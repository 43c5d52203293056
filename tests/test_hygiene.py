"""Source hygiene of the package, read with the stdlib `ast` module only.

Every name a module of src/flipkit imports is used in that module (or
exported through `__all__`), every module-private top-level name `_x` is
referenced somewhere in src/flipkit, and every public top-level function
or class is read by src/flipkit, listed in `flipkit.__all__` or kept on
`UNREAD_PUBLIC` for a stated reason, so a consolidation leaves no orphaned
import or helper behind and the library holds no code only tests call.
Every flipkit function the benchmark's tracer wraps by name is still
bound where it looks for it.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "flipkit"
TRACER = SRC.parent.parent / "perfbench" / "tracer.py"
MODULES = sorted(SRC.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}

# Public top-level functions and classes that no module of src/flipkit reads
# and `flipkit.__all__` does not list, each with the reason it stays.
UNREAD_PUBLIC = {
    "polyhedron_isometry_error": "the benchmark compares reconstructed polyhedra with it",
    "star_polyhedron": "the S^3 star kernel, waiting on a spherical prescribed-curvature solve",
    "sph_star_cone_angles": "the S^3 star kernel, waiting on a spherical prescribed-curvature "
                            "solve",
    "fuchsian_config_to_dict": "the writer for the fuchsian.v1 reader",
}


def _exported(tree):
    """The names listed in the module's `__all__`."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _read_names(tree):
    """The plain names a module reads."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}


def _defined_names(node):
    """The names a top-level statement binds, other than by import."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


@pytest.mark.parametrize("name", sorted(TREES))
def test_every_import_is_used(name):
    tree = TREES[name]
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    unused = sorted(imported - _read_names(tree) - _exported(tree))
    assert not unused, f"{name} imports names it never uses: {unused}"


def test_every_private_name_is_referenced():
    referenced = set()
    for tree in TREES.values():
        referenced |= _read_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    orphans = [f"{name}: {defined}" for name, tree in TREES.items()
               for node in tree.body for defined in _defined_names(node)
               if defined.startswith("_") and not defined.startswith("__")
               and defined not in referenced]
    assert not orphans, f"private names nothing references: {orphans}"


def test_every_public_name_has_a_caller():
    read = set()
    for tree in TREES.values():
        read |= _read_names(tree)
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    unread = {node.name: name for name, tree in TREES.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and not node.name.startswith("_")
              and node.name not in read | _exported(TREES["__init__.py"])}
    unlisted = sorted(f"{module}: {defined}" for defined, module in unread.items()
                      if defined not in UNREAD_PUBLIC)
    assert not unlisted, f"public names nothing in src/flipkit reads: {unlisted}"
    stale = sorted(UNREAD_PUBLIC.keys() - unread.keys())
    assert not stale, f"allowlisted names that are read, exported or gone: {stale}"


def _top_level_names(tree):
    """The names a module binds at top level, imports included."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        else:
            names |= set(_defined_names(node))
    return names


def test_every_name_the_tracer_wraps_resolves():
    # the tracer's tables are literals: read them without importing perfbench/
    tables = {node.targets[0].id: ast.literal_eval(node.value)
              for node in ast.parse(TRACER.read_text()).body
              if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
              and node.targets[0].id in ("SPANNED", "COUNTED", "MODULES")}
    assert tables.keys() == {"SPANNED", "COUNTED", "MODULES"}
    missing = sorted(f"flipkit.{m}" for m in tables["MODULES"] if f"{m}.py" not in TREES)
    missing += sorted(f"flipkit.{module}.{name}"
                      for module, name in {**tables["SPANNED"], **tables["COUNTED"]}.values()
                      if module != "scipy.spatial"
                      and name not in _top_level_names(TREES.get(f"{module}.py", ast.Module([]))))
    assert not missing, f"names the benchmark traces that flipkit no longer binds: {missing}"
