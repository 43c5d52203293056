"""Source hygiene of the package, read with the stdlib `ast` module only.

Every name a module of src/flipkit imports is used in that module (or
exported through `__all__`), and every module-private top-level name `_x`
is referenced somewhere in src/flipkit, so a consolidation leaves no
orphaned import or helper behind.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "flipkit"
MODULES = sorted(SRC.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}


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
