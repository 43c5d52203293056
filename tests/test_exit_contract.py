"""The exit-code contract of the commands, as a generated property over
each input schema.

Valid files get one node mutated: replaced (type swaps, null, booleans,
-0, huge numbers, empty and nested lists, out-of-range and negative
indices), removed (a missing key, or a list entry fewer), or joined by an
extra one (an unknown key beside it, or a list entry repeated).  The
mutants are a spherical, an antipodal-digon and an AdS n = 1 `tiling.v1`
through `check`, `flip`, `render` and `reconstruct` (and, with two nodes
mutated at once, through `flip` and `check`); a polyhedron with and
without faces (`polyhedron.v1`) through `check`, `dual` and `project`; and
an n = 1 solver input (`fuchsian.v1`) through `check` and `solve`.  Each
command runs in process, with every warning an error.  The contract: the
exit code is 0, 2, 3 or 4, and a failing command writes exactly one stderr
line, starting `error:`; nothing else escapes.
"""

import contextlib
import io
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_polyhedron
from flipkit import io as fio
from flipkit.cli import main
from flipkit.errors import GeometryError
from flipkit.fuchsian import FuchsianConfig, ads_project, genus2_group, orbit_hull
from flipkit.tilings import (Side, black_metric, make_antipodal_tiling, project,
                             validate_tiling, white_metric)

COMMANDS = ("check", "flip", "render", "reconstruct")
NEG_ZERO = "-0 literal"  # written as the JSON integer -0
DROP = "drop the node"  # a missing key, or a list entry fewer
EXTRA = "add a node"  # an unknown key beside the node, or the list entry repeated
MUTANTS = ("x", None, True, False, NEG_ZERO, -0.0, 1e308, 1e6, -1, 999, {}, [], [[]],
           [[0.5, 1]], DROP, EXTRA)


def base_tilings():
    """The valid tilings mutated: a projected n = 6 polyhedron, the antipodal
    digon tiling of a pentagon and the AdS n = 1 quotient tiling."""
    ang = np.linspace(0, 2 * np.pi, 6)[:-1]
    ray = [0.25, 0.15, math.sqrt(1.0 + 0.25 ** 2 + 0.15 ** 2)]
    surf = orbit_hull(FuchsianConfig(genus2_group(), np.array([ray]), np.array([0.55])))
    tilings = {
        "sphere": project(random_polyhedron(np.random.default_rng(6), 6), Side.LEFT),
        "digons": make_antipodal_tiling(
            np.column_stack([np.cos(ang), np.sin(ang), np.full(5, 0.8)]), Side.LEFT),
        "ads": ads_project(surf, Side.LEFT),
    }
    return {name: json.loads(fio.canonical_json(fio.tiling_to_dict(T)))
            for name, T in tilings.items()}


BASES = base_tilings()


def node_paths(value, path=()):
    """The path of every node below a JSON value, grouped by its pattern
    (list indices as "*"), patterns in first-seen order."""
    groups = {}
    children = (value.items() if isinstance(value, dict)
                else enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        at = path + (key,)
        groups.setdefault(tuple("*" if type(k) is int else k for k in at), []).append(at)
        for pattern, paths in node_paths(child, at).items():
            groups.setdefault(pattern, []).extend(paths)
    return groups


def polyhedron_bases():
    """The valid polyhedra mutated: an n = 7 polyhedron with its faces, and
    an n = 6 one as bare vertices for the hull."""
    with_faces = fio.polyhedron_to_dict(random_polyhedron(np.random.default_rng(7), 7))
    bare = fio.polyhedron_to_dict(random_polyhedron(np.random.default_rng(6), 6))
    del bare["faces"]
    return {"faces": with_faces, "hull": bare}


def fuchsian_bases():
    """The valid solver input mutated: README's n = 1 ray with a height and
    a target, so that `check` builds a hull and `solve` runs a short solve."""
    ray = [0.25, 0.15, math.sqrt(1.0 + 0.25 ** 2 + 0.15 ** 2)]
    cfg = FuchsianConfig(genus2_group(), np.array([ray]), np.array([0.55]),
                         np.array([-2 * np.pi]))
    return {"n1": json.loads(fio.canonical_json(fio.fuchsian_config_to_dict(cfg)))}


# per schema: its valid files and the commands that read it
SCHEMAS = {
    "tiling.v1": (BASES, COMMANDS),
    "polyhedron.v1": (polyhedron_bases(), ("check", "dual", "project")),
    "fuchsian.v1": (fuchsian_bases(), ("check", "solve")),
}
PATHS = {name: node_paths(d) for bases, _ in SCHEMAS.values() for name, d in bases.items()}


def mutated_text(d, *changes):
    """The JSON text of d with each (path, value) of `changes` applied in
    turn: the node at `path` replaced by `value`, or dropped (DROP) or
    joined by another (EXTRA).  A path that an earlier change removed or
    retyped is left alone."""
    d = json.loads(json.dumps(d))
    for path, value in changes:
        node = d
        try:
            for key in path[:-1]:
                node = node[key]
            node[path[-1]]
        except (KeyError, IndexError, TypeError):
            continue
        if not isinstance(node, (dict, list)):  # a string indexes, but takes no item
            continue
        if value == DROP:
            del node[path[-1]]
        elif value == EXTRA and isinstance(node, dict):
            node["extra"] = 0
        elif value == EXTRA:
            node.append(node[path[-1]])
        else:
            node[path[-1]] = value
    return json.dumps(d).replace(json.dumps(NEG_ZERO), "-0")


def run(command, path, out):
    """Exit code, stdout and stderr of one command, every warning an error."""
    argv = [command, "--in", str(path)] + ([] if command == "check" else ["--out", str(out)])
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_contract(code, _, err):
    assert code in (0, 2, 3, 4)
    if code:
        assert err.startswith("error: ") and len(err.splitlines()) == 1, err


def draw_change(data, name):
    """One (path, value) change of the base file `name`: a field pattern, a
    node of it and a mutant."""
    pattern = data.draw(st.sampled_from(list(PATHS[name])), label="field")
    path = data.draw(st.sampled_from(PATHS[name][pattern]), label="node")
    return path, data.draw(st.sampled_from(MUTANTS), label="value")


def check_a_mutant(data, tmp_path_factory, schema, commands=None, changes=1):
    """Draw one mutant of a valid file of `schema`, with `changes` nodes
    mutated, and run every command that reads it (or `commands`)."""
    bases, reading = SCHEMAS[schema]
    name = data.draw(st.sampled_from(sorted(bases)), label="file")
    text = mutated_text(bases[name], *(draw_change(data, name) for _ in range(changes)))
    work = tmp_path_factory.mktemp("mutant")
    (work / "t.json").write_text(text)
    for command in commands or reading:
        assert_contract(*run(command, work / "t.json", work / "out"))


@settings(max_examples=200)
@given(data=st.data())
def test_mutated_tilings_keep_the_exit_contract(data, tmp_path_factory):
    check_a_mutant(data, tmp_path_factory, "tiling.v1")


@settings(max_examples=100)
@given(data=st.data())
def test_doubly_mutated_tilings_keep_the_exit_contract(data, tmp_path_factory):
    # two nodes at once reach the numeric paths of a flip past the checks
    # that catch one damage alone
    check_a_mutant(data, tmp_path_factory, "tiling.v1", ("flip", "check"), changes=2)


@settings(max_examples=200)
@given(data=st.data())
def test_mutated_polyhedra_keep_the_exit_contract(data, tmp_path_factory):
    check_a_mutant(data, tmp_path_factory, "polyhedron.v1")


@settings(max_examples=100)
@given(data=st.data())
def test_mutated_solver_inputs_keep_the_exit_contract(data, tmp_path_factory):
    check_a_mutant(data, tmp_path_factory, "fuchsian.v1")


def damaged(name, change):
    """The text of a base tiling after change(d)."""
    d = json.loads(json.dumps(BASES[name]))
    change(d)
    return json.dumps(d)


def _first_digon_segment(d, key):
    """Set `key` of the first segment of a digon face to 1e6."""
    digons = {i for i, f in enumerate(x for x in d["faces"] if x["color"] == "white")
              if f["digon_angle"] is not None}
    seg = next(s for e in d["edges"] for s in e["segments"]
               if s["color"] == "white" and s["face"] in digons)
    seg[key] = 1e6


DAMAGES = {
    "t_max-1e5": ("sphere", lambda d: d["edges"][0].__setitem__("t_max", 1e5)),
    "t_max-1e6": ("sphere", lambda d: d["edges"][0].__setitem__("t_max", 1e6)),
    "digon-t0-1e6": ("digons", lambda d: _first_digon_segment(d, "t0")),
    "digon-t1-1e6": ("digons", lambda d: _first_digon_segment(d, "t1")),
    "ads-t_max-1e6": ("ads", lambda d: d["edges"][0].__setitem__("t_max", 1e6)),
}


@pytest.mark.parametrize("damage", sorted(DAMAGES))
def test_edge_parameters_off_their_edge_fail_check_and_render(damage, tmp_path):
    path = tmp_path / "t.json"
    path.write_text(damaged(*DAMAGES[damage]))
    code, out, err = run("check", path, None)
    assert code == 3 and err == "error: 1 artifact(s) failed validation\n"
    if damage.startswith("t_max"):
        # the sides' segments end at the former t_max
        assert out.endswith("tiling INVALID: edge 0: segments do not cover [t_min, t_max]\n")
    tracemalloc.start()
    try:
        code, _, err = run("render", path, tmp_path / "t.svg")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and err.startswith("error: ") and len(err.splitlines()) == 1
    assert peak < 20 * 2 ** 20  # no array sized by the damaged parameter


def _first_segment(key, change):
    """Apply `change` to `key` of the first segment of the first edge."""
    def mutate(d):
        seg = d["edges"][0]["segments"][0]
        seg[key] = change(seg[key])
    return mutate


OTHER = {"left": "right", "right": "left", "forward": "backward", "backward": "forward"}
SPHERE_MUTANTS = {
    "segment-t0": _first_segment("t0", lambda t: t + 0.01),
    "edge-t_max": lambda d: d["edges"][0].__setitem__("t_max", d["edges"][0]["t_max"] + 0.01),
    "segment-position": _first_segment("position", OTHER.get),
    "segment-side": _first_segment("side", OTHER.get),
    "handedness": lambda d: d.__setitem__("handedness", OTHER[d["handedness"]]),
    "edge-direction": lambda d: d["edges"][0].__setitem__(
        "direction", [-x for x in d["edges"][0]["direction"]]),
    "edge-repeated": lambda d: d["edges"].append(d["edges"][0]),
}


@pytest.mark.parametrize("mutant", sorted(SPHERE_MUTANTS))
def test_flip_refuses_what_check_refuses_on_the_sphere(mutant, tmp_path):
    # one field of the spherical base off: the white faces alone still
    # develop, but flip validates first and fails with check's first failure
    path = tmp_path / "t.json"
    path.write_text(damaged("sphere", SPHERE_MUTANTS[mutant]))
    code, out, _ = run("check", path, None)
    assert code == 3
    first = out.splitlines()[-1].split(": tiling INVALID: ", 1)[1]
    assert run("flip", path, tmp_path / "f.json") == (3, "", f"error: {first}\n")
    assert not (tmp_path / "f.json").exists()


@pytest.mark.parametrize("mutant", sorted(SPHERE_MUTANTS))
def test_metrics_refuse_what_check_refuses_on_the_sphere(mutant):
    # the cone metrics validate first, as flip does, and fail with the
    # report's first failure
    T = fio.tiling_from_dict(json.loads(damaged("sphere", SPHERE_MUTANTS[mutant])))
    first = validate_tiling(T).first
    assert first is not None
    for metric in (black_metric, white_metric):
        with pytest.raises(GeometryError) as exc:
            metric(T)
        assert str(exc.value) == first


FAR_LIGHT_LIKE = ([1e150, 0.0, 1e150], [1e5, 0.0, 1e5])


@pytest.mark.parametrize("command", COMMANDS)
def test_a_far_light_like_vertex_keeps_the_contract(command, tmp_path):
    # a relative rule |<v, v> + 1| <= 1e-9 |v|^2 alone accepts these light-like
    # points; the squared-norm bound 1e9 refuses them on load
    path = tmp_path / "t.json"
    for point in FAR_LIGHT_LIKE:
        path.write_text(damaged("ads", lambda d: d["vertices"].__setitem__(3, point)))
        assert run(command, path, tmp_path / "out") == (
            3, "", "error: tiling vertex 3 is not on the hyperboloid\n")


@pytest.mark.parametrize("command", COMMANDS)
def test_a_far_light_like_edge_base_keeps_the_contract(command, tmp_path):
    path = tmp_path / "t.json"
    path.write_text(damaged("ads", lambda d: d["edges"][0].__setitem__("base", [1e5, 0.0, 1e5])))
    assert run(command, path, tmp_path / "out") == (
        3, "", "error: base of tiling edge 0 is not on the hyperboloid\n")


@pytest.mark.parametrize("command", ("check", "dual", "project"))
@pytest.mark.parametrize("name", ("faces", "hull"))
@pytest.mark.parametrize("row", ([1e308, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [1e-320, 0.0, 0.0, 0.0]),
                         ids=str)
def test_a_polyhedron_vertex_of_no_length_is_refused(command, name, row, tmp_path):
    # its norm overflows or vanishes, so it has no unit multiple to normalize to
    bases, _ = SCHEMAS["polyhedron.v1"]
    d = json.loads(json.dumps(bases[name]))
    d["vertices"][2] = row
    path = tmp_path / "p.json"
    path.write_text(json.dumps(d))
    assert run(command, path, tmp_path / "out") == (
        3, "", "error: polyhedron vertex 2 has no finite nonzero length\n")


def _coplanar(d):
    """Move vertex 3 into the plane (in the chart) of vertices 0, 1 and 2."""
    v = np.array(d["vertices"][:3])
    d["vertices"][3] = list(v.mean(axis=0) / np.linalg.norm(v.mean(axis=0)))


@pytest.mark.parametrize("command", ("check", "dual", "project"))
@pytest.mark.parametrize("change", ("repeated", "coplanar"))
def test_degenerate_hull_input_keeps_the_exit_contract(command, change, tmp_path):
    bases, _ = SCHEMAS["polyhedron.v1"]
    d = json.loads(json.dumps(bases["hull"]))
    if change == "repeated":
        d["vertices"] += [d["vertices"][0]] * 3
    else:
        d["vertices"] = d["vertices"][:4]
        _coplanar(d)
    path = tmp_path / "p.json"
    path.write_text(json.dumps(d))
    code, out, err = run(command, path, tmp_path / "out")
    assert_contract(code, out, err)
    # a repeated point is no new hull vertex; four coplanar points have no hull
    assert code == (0 if change == "repeated" else 3)
