"""SVG rendering against committed golden files and a per-arc reference.

The goldens in tests/data/render_*.svg pin the renderer's bytes.  After a
deliberate change to the drawing, rewrite them with

    PYTHONPATH=src:tests python tests/test_render.py

and say in the change log which files changed and by how much.

`reference_render_svg` is the renderer `render_svg` replaced, which samples
each arc on its own; the batched renderer must give the same bytes and
refuse the same tilings.
"""

import functools
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import polyhedron_corpus, random_polyhedron
from flipkit.errors import FlipkitError, GeometryError
from flipkit.fuchsian import FuchsianConfig, ads_project, genus2_group, orbit_hull
from flipkit.polyhedra import polar_dual
from flipkit.render import (ARC_STEP, BLACK_FILL, EDGE_STROKE, WHITE_FILL, _sample,
                            poincare, render_svg, stereographic)
from flipkit.spheremath import HyperbolicOps, SphereOps
from flipkit.tilings import (
    WHITE,
    Side,
    flip,
    make_antipodal_tiling,
    make_two_circles_tiling,
    project,
)
from reference_geometry import segments, tiling_faces, with_face

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
    lengths = T.edges.t_max - T.edges.t_min
    assert lengths.max() > np.pi
    expected = [max(2, int(np.ceil(L / ARC_STEP)) + 1) for L in lengths]
    assert _stroke_point_counts(render_svg(T)) == expected


# -- the per-arc reference renderer ---------------------------------------------


def _fmt(x):
    return format(float(x), ".8f")


def _path(xy, close=""):
    return ("M" + "L".join(["%.8f %.8f"] * len(xy)) + close) % tuple(xy.ravel().tolist())


def _sample_arc(ops, a, b):
    """Rows along the geodesic from a to b, both ends included."""
    d = ops.dist(a, b)
    if d < 1e-12:
        return np.array([a, b])
    steps = max(2, int(np.ceil(d / ARC_STEP)) + 1)
    return ops.geodesic(a, ops.tangent(a, b), np.linspace(0.0, d, steps)[:, None])


def _sample_edge(ops, base, direction, a, b):
    """Rows of a tiling edge at parameters a to b, both ends included."""
    n = max(2, int(np.ceil(abs(b - a) / ARC_STEP)) + 1)
    return ops.geodesic(base, direction, np.linspace(a, b, n)[:, None])


def _face_path(ops, proj, face):
    v = face.vertices
    k = len(v)
    arcs = [_sample_arc(ops, v[i], v[(i + 1) % k])[:-1] for i in range(k)]
    return _path(proj(np.concatenate(arcs)), "Z")


def _digon_path(T, ops, proj, color, fi):
    """Digon boundary sampled along its two supporting edge records."""
    f = tiling_faces(T.faces(color))[fi]
    arcs = []
    for k in range(len(f)):
        e = f.edge_refs[k]
        seg = next(s for s in segments(T.edges, e)
                   if (s.color, s.face, s.face_edge) == (color, fi, k))
        arcs.append(_sample_edge(ops, T.edges.base[e], T.edges.direction[e],
                                 seg.corner_param(True), seg.corner_param(False))[:-1])
    return _path(proj(np.concatenate(arcs)), "Z")


def reference_render_svg(T):
    """The renderer with one sampling call per arc, in its default
    projection."""
    ops, proj = (SphereOps, stereographic) if T.is_spherical else (HyperbolicOps, poincare)
    paths = []
    span = 1.0
    for color, fill in (("white", WHITE_FILL), ("black", BLACK_FILL)):
        for fi, f in enumerate(tiling_faces(T.faces(color))):
            if f.is_digon:
                d = _digon_path(T, ops, proj, color, fi)
            else:
                d = _face_path(ops, proj, f)
            paths.append(f'<path d="{d}" fill="{fill}" stroke="none"/>')
            span = max(span, float(np.max(np.abs(proj(f.vertices)))))
    E = T.edges
    for e in range(len(E)):
        xy = proj(_sample_edge(ops, E.base[e], E.direction[e], E.t_min[e], E.t_max[e]))
        paths.append(
            f'<path d="{_path(xy)}" fill="none" stroke="{EDGE_STROKE}" '
            f'stroke-width="0.01" stroke-linecap="round"/>'
        )
        span = max(span, float(np.max(np.abs(xy[[0, -1]]))))
    if not T.is_spherical:
        lo, hi = -1.05, 1.05
        paths.insert(
            0,
            '<circle cx="0" cy="0" r="1" fill="none" stroke="#888888" '
            'stroke-width="0.005"/>',
        )
    else:
        lo, hi = -1.05 * span, 1.05 * span
    size = hi - lo
    header = (
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{_fmt(lo)} {_fmt(lo)} {_fmt(size)} {_fmt(size)}" '
        'width="640" height="640">'
    )
    return "\n".join([header] + paths + ["</svg>"]) + "\n"


def outcome(render, T):
    try:
        return render(T)
    except FlipkitError as exc:
        return (type(exc), str(exc))


@functools.lru_cache(maxsize=None)
def ads_tilings(n, level):
    """Both projections of a genus-2 AdS surface with n rays and their
    flips."""
    pts = [(0.3, 0.1), (-0.4, 0.35), (0.05, -0.55)][:n]
    rays = np.array([[x, y, np.sqrt(1.0 + x * x + y * y)] for x, y in pts])
    heights = level + np.array([0.0, 0.04, -0.03])[:n]
    surf = orbit_hull(FuchsianConfig(genus2_group(), rays, heights))
    tilings = [ads_project(surf, side) for side in Side]
    return tilings + [flip(T) for T in tilings]


@st.composite
def any_tiling(draw):
    """Spherical projections (n = 5..14, both sides, polar duals, flips),
    AdS quotient tilings (n = 1..3), two-circles and antipodal tilings."""
    kind = draw(st.sampled_from(["sphere"] * 4 + ["ads", "two-circles", "antipodal"]))
    side = draw(st.sampled_from(Side))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "ads":
        return draw(st.sampled_from(ads_tilings(draw(st.integers(1, 3)),
                                                draw(st.sampled_from([0.55, 0.75, 0.9])))))
    if kind == "two-circles":
        return make_two_circles_tiling(*rng.normal(size=(2, 3)), side)
    if kind == "antipodal":
        k = draw(st.integers(3, 9))
        ang = 2 * np.pi * (np.arange(k) + rng.uniform(-0.2, 0.2, size=k)) / k
        lat = rng.uniform(0.3, 1.2)
        V = np.column_stack([np.sin(lat) * np.cos(ang), np.sin(lat) * np.sin(ang),
                             np.full(k, np.cos(lat))])
        return make_antipodal_tiling(V @ np.linalg.qr(rng.normal(size=(3, 3)))[0].T, side)
    P = random_polyhedron(rng, draw(st.integers(5, 14)))
    T = project(polar_dual(P) if draw(st.booleans()) else P, side)
    if draw(st.booleans()):
        try:
            T = flip(T)
        except FlipkitError:  # a flip that does not develop keeps T
            pass
    return T


@settings(max_examples=80)
@given(T=any_tiling())
def test_render_matches_reference(T):
    assert render_svg(T) == reference_render_svg(T)


@settings(max_examples=50)
@given(data=st.data())
def test_sample_is_linspace_per_arc(data):
    # the batched parameters carry the bits of np.linspace on every arc,
    # which the 8-decimal SVG text would mostly hide
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    k = data.draw(st.integers(1, 12))
    start = rng.uniform(-4, 4, size=k)
    length = rng.choice([0.0, 1e-13, ARC_STEP, 3 * ARC_STEP, 0.37, np.pi, 2 * np.pi], size=k)
    stop = start + length * rng.choice([-1.0, 1.0], size=k) + rng.uniform(-1e-9, 1e-9, size=k)
    whole = rng.random(k) < 0.5
    base, direction = rng.normal(size=(2, k, 3))
    rows, ends = _sample(SphereOps, base, direction, start, stop, whole)
    want = []
    for i in range(k):
        n = max(2, int(np.ceil(abs(stop[i] - start[i]) / ARC_STEP)) + 1)
        arc = SphereOps.geodesic(base[i], direction[i], np.linspace(start[i], stop[i], n)[:, None])
        want.append(arc if whole[i] else arc[:-1])
    assert np.array_equal(ends, np.cumsum([len(a) for a in want]))
    assert np.array_equal(rows, np.concatenate(want))


def _with_corners(T, rows):
    """A copy of T whose first polygonal white face has corner i set to
    rows[i](corners), for each i in rows."""
    fi = next(i for i, f in enumerate(tiling_faces(T.white)) if not f.is_digon)
    v = T.white[fi].vertices.copy()
    for i, value in rows.items():
        v[i] = value(v)
    return with_face(T, WHITE, fi, vertices=v)


def test_render_degenerate_sides_match_reference():
    T = project(random_polyhedron(np.random.default_rng(3), 9), Side.LEFT)
    antipodal = _with_corners(T, {1: lambda v: -v[0]})
    want = outcome(reference_render_svg, antipodal)
    assert want[0] is GeometryError
    assert outcome(render_svg, antipodal) == want
    # a side of no length, or of less than 1e-12, is drawn as its corner,
    # with the sign of a zero coordinate kept
    corner = np.array([-0.0, 0.6, 0.8])
    for offset in (0.0, 1e-13):
        C = _with_corners(T, {0: lambda v: corner, 1: lambda v: corner + [0.0, 0.0, offset]})
        assert render_svg(C) == reference_render_svg(C)
    at_pole = _with_corners(T, {2: lambda v: np.array([0.0, 0.0, -1.0])})
    assert outcome(render_svg, at_pole) == outcome(reference_render_svg, at_pole)


if __name__ == "__main__":
    for name, T in golden_tilings().items():
        with open(_golden_path(name), "w", newline="") as fh:
            fh.write(render_svg(T))
        print(_golden_path(name))
