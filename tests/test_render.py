"""SVG rendering against committed golden files.

The goldens in tests/data/render_*.svg pin the renderer's bytes.  After a
deliberate change to the drawing, rewrite them with

    PYTHONPATH=src:tests python tests/test_render.py

and say in the change log which files changed and by how much.
"""

import os

import numpy as np
import pytest

from conftest import polyhedron_corpus, random_polyhedron
from flipkit.fuchsian import FuchsianConfig, ads_project, genus2_group, orbit_hull
from flipkit.render import ARC_STEP, EDGE_STROKE, render_svg
from flipkit.tilings import Side, flip, make_two_circles_tiling, project

DATA = os.path.join(os.path.dirname(__file__), "data")
# (seed, vertex count) of the polyhedra whose projections and flips are pinned
POLYHEDRA = ((1, 6), (2, 10))


def _polyhedron_tilings(seed, n):
    T = project(random_polyhedron(np.random.default_rng(seed), n), Side.LEFT)
    return {f"poly{seed}_n{n}_project": T, f"poly{seed}_n{n}_flip": flip(T)}


def _ads_n1():
    ray = np.array([0.25, 0.15, np.sqrt(1.0 + 0.25 ** 2 + 0.15 ** 2)])
    cfg = FuchsianConfig(genus2_group(), ray[None, :], np.array([0.55]))
    return ads_project(orbit_hull(cfg), Side.LEFT)


def golden_tilings():
    """Name -> tiling for every golden SVG."""
    cases = {}
    for seed, n in POLYHEDRA:
        cases.update(_polyhedron_tilings(seed, n))
    cases["two_circles"] = make_two_circles_tiling(
        [0.1, 0.2, 1.0], [1.0, 0.0, 0.3], Side.RIGHT
    )
    cases["ads_n1_project"] = _ads_n1()
    return cases


def _golden_path(name):
    return os.path.join(DATA, f"render_{name}.svg")


@pytest.fixture(scope="module")
def tilings():
    return golden_tilings()


@pytest.mark.parametrize(
    "name",
    [f"poly{s}_n{n}_{kind}" for s, n in POLYHEDRA for kind in ("project", "flip")]
    + ["two_circles", "ads_n1_project"],
)
def test_render_matches_golden(tilings, name):
    with open(_golden_path(name), newline="") as fh:
        assert render_svg(tilings[name]) == fh.read()


def _stroke_point_counts(svg):
    return [
        line.count("L") + 1
        for line in svg.splitlines()
        if f'stroke="{EDGE_STROKE}"' in line
    ]


def test_closed_edges_render_whole():
    # Both edges of a two-circles tiling are full great circles, t in [0, 2 pi].
    rng = np.random.default_rng(40)
    for _ in range(20):
        n1, n2 = rng.normal(size=(2, 3))
        for side in (Side.LEFT, Side.RIGHT):
            counts = _stroke_point_counts(render_svg(make_two_circles_tiling(n1, n2, side)))
            assert len(counts) == 2
            assert min(counts) >= 2 * np.pi / ARC_STEP


def test_edges_sampled_along_their_parameter():
    # Acceptance-corpus polyhedron 74 projects to a tiling with an edge of
    # length 3.30 > pi, which the shortest arc between its ends would miss.
    T = project(polyhedron_corpus(20240817, 75)[74], Side.LEFT)
    lengths = np.array([e.t_max - e.t_min for e in T.edges])
    assert lengths.max() > np.pi
    expected = [max(2, int(np.ceil(L / ARC_STEP)) + 1) for L in lengths]
    assert _stroke_point_counts(render_svg(T)) == expected


if __name__ == "__main__":
    for name, T in golden_tilings().items():
        with open(_golden_path(name), "w", newline="") as fh:
            fh.write(render_svg(T))
        print(_golden_path(name))
