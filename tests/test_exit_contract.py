"""The exit-code contract of the commands that read `tiling.v1`, as a
generated property.

A valid spherical, antipodal-digon and AdS n = 1 tiling each get one field
mutated (type swaps, null, booleans, -0, huge numbers, empty and nested
lists, out-of-range and negative indices), and `check`, `flip`, `render`
and `reconstruct` run on the result in process, with every warning an
error.  The contract: the exit code is 0, 2, 3 or 4, and a failing command
writes exactly one stderr line, starting `error:`; nothing else escapes.
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
from flipkit.fuchsian import FuchsianConfig, ads_project, genus2_group, orbit_hull
from flipkit.tilings import Side, make_antipodal_tiling, project

COMMANDS = ("check", "flip", "render", "reconstruct")
NEG_ZERO = "-0 literal"  # written as the JSON integer -0
MUTANTS = ("x", None, True, False, NEG_ZERO, -0.0, 1e308, 1e6, -1, 999, {}, [], [[]],
           [[0.5, 1]])


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


PATHS = {name: node_paths(d) for name, d in BASES.items()}


def mutated_text(d, path, value):
    """The JSON text of d with the node at `path` replaced by `value`."""
    d = json.loads(json.dumps(d))
    node = d
    for key in path[:-1]:
        node = node[key]
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


@settings(max_examples=200)
@given(data=st.data())
def test_mutated_tilings_keep_the_exit_contract(data, tmp_path_factory):
    name = data.draw(st.sampled_from(sorted(BASES)), label="tiling")
    pattern = data.draw(st.sampled_from(list(PATHS[name])), label="field")
    path = data.draw(st.sampled_from(PATHS[name][pattern]), label="node")
    value = data.draw(st.sampled_from(MUTANTS), label="value")
    work = tmp_path_factory.mktemp("mutant")
    (work / "t.json").write_text(mutated_text(BASES[name], path, value))
    for command in COMMANDS:
        assert_contract(*run(command, work / "t.json", work / "out"))


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


@pytest.mark.parametrize("command", COMMANDS)
def test_a_far_light_like_vertex_keeps_the_contract(command, tmp_path):
    # (1e150, 0, 1e150) passes the relative vertex check
    # |<v, v> + 1| <= 1e-9 v3^2, and its products overflow
    path = tmp_path / "t.json"
    path.write_text(damaged("ads", lambda d: d["vertices"].__setitem__(3, [1e150, 0.0, 1e150])))
    code, _, err = run(command, path, tmp_path / "out")
    assert code == 3
    assert_contract(code, None, err)
