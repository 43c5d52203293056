"""Genus-2 group, orbit hulls, Jacobian, solver, dual, projections."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from scipy.spatial import QhullError

from conftest import edge_lengths, random_polyhedron
from flipkit import fuchsian
from flipkit import io as fio
from flipkit.cli import main
from flipkit.errors import ConvergenceError, DevelopmentError, GeometryError
from flipkit.forms import cross4
from flipkit.fuchsian import (
    R0,
    R_MAX,
    FuchsianConfig,
    ads_project,
    admissible_targets,
    cone_angle_at,
    cone_angles,
    curvatures,
    extend_isometry,
    genus2_group,
    jacobian,
    minkowski_dual,
    orbit_hull,
    orbit_points,
    recover_heights,
    solve_prescribed_curvature,
    sph_star_cone_angles,
    sph_star_jacobian,
    star_polyhedron,
    _build_stars,
    _certified_hull,
    _truncated_hull,
)
from flipkit.spheremath import ADS_STAR, SPHERE_STAR, HyperbolicOps
from flipkit.tilings import (WHITE, FlippableTiling, Side, flip, project,
                             tiling_equality_error, validate_tiling, white_metric)
from reference_geometry import (
    ConvexityClass,
    Signature,
    assemble_tiling,
    cone_angles_fixed_combinatorics,
    cyclic_face_order,
    dict_ads_layout,
    face_records,
    faces_table,
    form,
    least_squares_heights,
    reembedded_points,
    reference_ads_layout,
    reference_assemble,
    reference_build_star,
    reference_cone_angle,
    reference_flip_hyperbolic,
    reference_project,
    star_records,
    tiling_faces,
    wedge_convexity,
    with_face,
    with_faces,
)

Q21 = np.diag([1.0, 1.0, -1.0])
DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN_N2 = os.path.join(DATA, "ads_project_flip_n2.json")
GOLDEN_STARS = os.path.join(DATA, "star_combinatorics_golden.json")
THREE_RAYS = [(0.3, 0.1), (-0.4, 0.35), (0.0, -0.5)]
# the rays of the benchmark's solver inputs (`tests/test_digests.py`)
SEED_RAYS = {
    1: [(0.25, 0.15)],
    2: [(0.3, 0.1), (-0.4, 0.35)],
    3: [(0.3, 0.1), (-0.4, 0.35), (0.05, -0.55)],
}
# (rays, heights) of the surf1 / surf2 / surf3 fixtures
FIXTURES = {
    "surf1": ([(0.25, 0.15)], [0.55]),
    "surf2": ([(0.3, 0.1), (-0.4, 0.35)], [0.5, 0.7]),
    "surf3": (THREE_RAYS, [0.5, 0.7, 0.62]),
}


@pytest.fixture(scope="module")
def group():
    return genus2_group()


def ads_inner(u, v):
    return form(u, v, Signature.ADS)


def ray_point(p, h):
    """Point at height h on the half-ray through p orthogonal to H: the
    one-point reference of `orbit_points`."""
    return np.concatenate([np.cos(h) * np.asarray(p), [np.sin(h)]])


def reflected_ray_point(p, h):
    """Point at height h on the ray reflected through H."""
    return np.concatenate([np.cos(h) * np.asarray(p), [-np.sin(h)]])


def lift(xy):
    p = np.array([xy[0], xy[1], 0.0])
    p[2] = math.sqrt(1.0 + p[0] ** 2 + p[1] ** 2)
    return p


def config(group, points, heights=None, targets=None):
    rays = np.array([lift(q) for q in points])
    return FuchsianConfig(
        group,
        rays,
        None if heights is None else np.asarray(heights, dtype=float),
        None if targets is None else np.asarray(targets, dtype=float),
    )


def fixture_surface(group, name):
    rays, heights = FIXTURES[name]
    return orbit_hull(config(group, rays, heights=heights))


@pytest.fixture(scope="module")
def surf1(group):
    return fixture_surface(group, "surf1")


@pytest.fixture(scope="module")
def surf2(group):
    return fixture_surface(group, "surf2")


@pytest.fixture(scope="module")
def surf3(group):
    return fixture_surface(group, "surf3")


# -- group ---------------------------------------------------------------------


def test_group_characteristic_and_area(group):
    assert group.chi == -2
    assert group.domain_area() == pytest.approx(4 * np.pi, abs=1e-6)


def test_generators_preserve_form(group):
    for g in group.generators:
        np.testing.assert_allclose(g.T @ Q21 @ g, Q21, atol=1e-12)


def test_side_pairing_relation(group):
    visited, product = group.side_pairing_walk()
    assert sorted(visited) == list(range(8))  # single corner cycle
    assert np.linalg.norm(product - np.eye(3)) < 1e-9


def quantized_key(m):
    """The brute-force oracle's own element hash: the entries floored at 0.1
    with an irrational offset.  Distinct elements differ by more than 0.2
    in some entry (`test_radius_enumeration_separated`), while float forms
    of one element agree to about 1e-9, so the key neither splits nor
    merges elements."""
    q = np.floor(np.asarray(m, dtype=float) * 10.0 + 0.61803398874989485)
    return q.astype(np.int64).tobytes()


def test_element_enumeration_dedup(group):
    els = group.elements(8.8)
    keys = {quantized_key(g) for g in els}
    assert len(keys) == len(els)
    assert np.allclose(els[0], np.eye(3))
    # each element is identified with itself, so the ids are its positions
    ball = group.ball(8.8)
    assert ball.mats is els
    assert [ball.lookup(g) for g in els] == list(range(len(els)))


def brute_force_ball(group, radius, max_word=7):
    """All products of at most `max_word` symmetric generators that move
    the center by at most `radius`, one matrix per `quantized_key`.

    A product of length k ends in the ball only if its length-j prefix
    lies within radius + (k - j) * 2d, 2d the generator displacement; that
    triangle-inequality bound is the only pruning.
    """
    gens = np.array(group.symmetric_generators)
    step = math.acosh(gens[0][2, 2])
    seen = {quantized_key(np.eye(3))}
    frontier = np.eye(3)[None]
    inside = {quantized_key(np.eye(3)): np.eye(3)}
    for j in range(1, max_word + 1):
        words = np.einsum("gij,wjk->gwik", gens, frontier).reshape(-1, 3, 3)
        words = words[words[:, 2, 2] <= math.cosh(radius + (max_word - j) * step)]
        fresh = {}
        for m in words:
            fresh.setdefault(quantized_key(m), m)
        fresh = {k: m for k, m in fresh.items() if k not in seen}
        seen |= fresh.keys()
        inside |= {k: m for k, m in fresh.items() if m[2, 2] <= math.cosh(radius)}
        frontier = np.array(list(fresh.values()))
    return inside


@pytest.mark.parametrize("radius", [5.5, 7.0])
def test_radius_enumeration_complete(group, radius):
    els = group.elements(radius)
    oracle = brute_force_ball(group, radius)
    assert {quantized_key(g) for g in els} == oracle.keys()
    assert np.all(els[:, 2, 2] <= math.cosh(radius))
    # through the ids: the oracle's products are the ball's elements, each once
    ball = group.ball(radius)
    assert sorted(ball.lookup(m) for m in oracle.values()) == list(range(len(els)))


def test_radius_enumeration_separated(group):
    # distinct elements differ by more than twice the 0.1 quantum of
    # `quantized_key` in some entry, so no two of them share a key, and by
    # more than MATCH_GAP, so the identification rule tells them apart
    els = group.elements(7.0).reshape(-1, 9)
    i, j = np.triu_indices(len(els), k=1)
    assert np.min(np.max(np.abs(els[i] - els[j]), axis=1)) > 0.2


def test_relative_table_agrees_with_lookup(group):
    ball = group.ball(R0)
    m = len(ball.mats)
    assert ball.relative(0, range(m)) == list(range(m))
    outside = 0
    for i in range(m):
        for j in range(m):
            prod = np.linalg.inv(ball.mats[i]) @ ball.mats[j]
            try:
                expected = ball.lookup(prod)
            except GeometryError:
                outside += 1
                with pytest.raises(GeometryError):
                    ball.relative(i, [j])
                continue
            assert ball.relative(i, [j]) == [expected]
    assert outside > 0


def bracketings(mats):
    """The product of `mats` formed in every association order."""
    if len(mats) == 1:
        return [mats[0]]
    return [a @ b for k in range(1, len(mats))
            for a in bracketings(mats[:k]) for b in bracketings(mats[k:])]


@settings(max_examples=30)
@given(word=st.lists(st.integers(0, 7), min_size=1, max_size=4),
       entry=st.integers(0, 8), sign=st.sampled_from([-1.0, 1.0]))
def test_ball_lookup_never_splits_and_refuses_perturbed(group, word, entry, sign):
    ball = group.ball(R_MAX)
    gens = group.symmetric_generators
    forms = bracketings([gens[i] for i in word])
    if forms[0][2, 2] <= math.cosh(R_MAX):
        # every association order is the same element of the ball
        ids = {ball.lookup(m) for m in forms}
        assert len(ids) == 1
        assert np.max(np.abs(ball.mats[ids.pop()] - forms[0])) < 1e-9
    else:
        for m in forms:
            with pytest.raises(GeometryError):
                ball.lookup(m)
    bad = forms[0].copy()
    bad.flat[entry] += sign * 1e-4
    with pytest.raises(GeometryError):
        ball.lookup(bad)


# -- configurations --------------------------------------------------------------


def test_config_validation(group):
    with pytest.raises(GeometryError):
        config(group, [(0.3, 0.1)], heights=[1.6])  # above pi/2
    with pytest.raises(GeometryError):
        config(group, [(0.3, 0.1)], heights=[float("nan")])
    with pytest.raises(GeometryError):
        config(group, [(0.3, 0.1)], targets=[0.1])  # positive curvature
    with pytest.raises(GeometryError):
        config(group, [(0.3, 0.1), (0.1, 0.3)], targets=[-9.0, -4.0])  # sum
    with pytest.raises(GeometryError):
        FuchsianConfig(group, np.array([[5.0, 0.0, 0.0]]))  # not on hyperboloid


def test_new_heights_check_only_the_heights(group, monkeypatch):
    cfg = config(group, THREE_RAYS, heights=[0.5, 0.7, 0.62])
    calls = []
    contains = group.contains
    monkeypatch.setattr(group, "contains",
                        lambda *args, **kw: calls.append(args) or contains(*args, **kw))
    new = cfg.with_heights([0.55, 0.6, 0.65])
    assert new.rays is cfg.rays and new.targets is None
    assert np.array_equal(new.heights, [0.55, 0.6, 0.65])
    for heights, message in (
        ([float("nan"), 0.6, 0.65], "heights must lie strictly inside (0, pi/2)"),
        ([0.55, 1.6, 0.65], "heights must lie strictly inside (0, pi/2)"),
        ([0.0, 0.6, 0.65], "heights must lie strictly inside (0, pi/2)"),
        ([0.55, 0.6], "one height per ray required"),
        (0.6, "one height per ray required"),
    ):
        with pytest.raises(GeometryError, match=re.escape(message)):
            cfg.with_heights(heights)
    assert calls == []


@pytest.mark.parametrize("kwargs", [
    {"heights": 0.7},                 # scalar heights
    {"targets": -1.0},                # scalar targets
    {"rays": [[0.1, 0.2]]},           # a ray with two components
], ids=["scalar-heights", "scalar-targets", "two-component-ray"])
def test_config_rejects_malformed_shapes(group, kwargs):
    args = {"rays": np.array([lift((0.3, 0.1))]), **kwargs}
    with pytest.raises(GeometryError):
        FuchsianConfig(group, **args)


def test_admissible_targets(group):
    assert admissible_targets([-1.0, -2.0], group.chi)
    assert not admissible_targets([-7.0, -7.0], group.chi)
    assert not admissible_targets([-1.0, 0.5], group.chi)


# -- orbit hull -------------------------------------------------------------------


def test_orbit_points_match_ray_point_loop(group, surf2):
    cfg = config(group, THREE_RAYS, heights=[0.5, 0.7, 0.62])
    elems = group.elements(7.0)
    ref = np.array([ray_point(g @ cfg.rays[b], cfg.heights[b])
                    for g in elems for b in range(cfg.n)])
    assert np.array_equal(orbit_points(elems, cfg.rays, cfg.heights), ref)
    h = [0.45, 0.8]
    ref = np.array([ray_point(surf2.element_of(v) @ surf2.config.rays[surf2.base_of(v)],
                              h[surf2.base_of(v)])
                    for v in range(len(surf2.points4))])
    assert np.array_equal(reembedded_points(surf2, h), ref)


def ordered_faces(surf):
    return {fi for fi, f in enumerate(face_records(surf)) if f.ordered}


def test_face_order_is_lazy(group):
    # the faces of a generic hull are triangles, each its own fan: building
    # the stars orders no face
    surf = orbit_hull(config(group, THREE_RAYS, heights=[0.5, 0.7, 0.62]))
    faces = face_records(surf)
    assert all(len(faces[fi].ids) == 3 for fi in surf.stars.wedge_face.tolist())
    assert ordered_faces(surf) == set()


def test_lazy_face_order_matches_eager(surf3):
    chart = surf3.points4[:, :3] / surf3.points4[:, 3:4]
    for f in face_records(surf3):
        assert f.ids == sorted(f.vertex_ids)
        assert f.vertex_ids == cyclic_face_order(chart, f.ids)


def test_face_order_turns_counterclockwise_about_outward(surf3):
    # the rule of the spherical hull: given a normal, the cycle turns
    # counterclockwise about it, from the same least vertex
    chart = surf3.points4[:, :3] / surf3.points4[:, 3:4]
    for f in face_records(surf3)[:200]:
        cyc = f.vertex_ids
        p = chart[cyc]
        normal = np.cross(p[1] - p[0], p[2] - p[0])
        assert cyclic_face_order(chart, f.ids, normal) == cyc
        assert cyclic_face_order(chart, f.ids, -normal) == cyc[:1] + cyc[:0:-1]


def run_in_fresh_interpreter(code):
    """Run `code` in a new Python process that imports flipkit from src/."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


SURF1_CODE = (
    "ray = np.array([[0.25, 0.15, (1 + 0.25**2 + 0.15**2) ** 0.5]])\n"
    "surf = fu.orbit_hull(fu.FuchsianConfig(fu.genus2_group(), ray, heights=np.array([0.55])))\n"
)


def test_hulls_never_load_csgraph():
    # one merge for both quadrics, by min-label propagation: neither a
    # spherical hull nor an orbit hull loads scipy.sparse.csgraph
    run_in_fresh_interpreter(
        "import sys, numpy as np\n"
        "from flipkit import fuchsian as fu\n"
        "from flipkit.polyhedra import from_chart, hull\n"
        "hull(from_chart(np.random.default_rng(1).normal(size=(12, 3))))\n"
        + SURF1_CODE
        + "assert 'scipy.sparse.csgraph' not in sys.modules\n"
    )


def test_hyperbolic_flip_never_loads_scipy_optimize():
    # the heights are recovered by Gauss-Newton on numpy rows; only the
    # least-squares reference of the tests imports scipy.optimize
    run_in_fresh_interpreter(
        "import sys, numpy as np\n"
        "import flipkit, flipkit.cli\n"
        "from flipkit import fuchsian as fu\n"
        "from flipkit.tilings import Side, flip\n"
        + SURF1_CODE
        + "flip(fu.ads_project(surf, Side.LEFT))\n"
        "assert 'scipy.optimize' not in sys.modules\n"
    )


def test_faces_at_matches_ordered_incidence(surf3):
    incidence = {}
    for fi, f in enumerate(face_records(surf3)):
        for v in f.vertex_ids:
            incidence.setdefault(v, []).append(fi)
    for vid in range(surf3.n):
        assert surf3.faces_at(vid) == incidence[vid]


def test_hull_symmetric_cone_angles(group, surf1):
    omega = cone_angles(surf1)[0]
    # the stars at the translates certify in a hull wider by the generator
    # displacement 2d
    shift = math.acosh(group.generators[0][2, 2])
    wide = _certified_hull(surf1.config, surf1.radius + shift)
    for g in group.generators:
        vid = wide._find_vertex(extend_isometry(g) @ surf1.points4[0], 1e-9)
        assert cone_angle_at(wide, vid) == pytest.approx(omega, abs=1e-8)


def test_star_at_refuses_ids_outside_the_hull(group):
    # the n = 2 hull at heights (0.6, 0.7) has 130 vertices; -1 once read
    # the star of vertex 1 and 135 failed inside the star builder
    surf = orbit_hull(config(group, [(0.3, 0.1), (-0.4, 0.35)], heights=[0.6, 0.7]))
    assert len(surf.points4) == 130
    assert cone_angle_at(surf, 1) == cone_angles(surf)[1]
    for vid in (-1, 135):
        with pytest.raises(GeometryError, match=f"vertex {vid} is not a vertex of the hull"):
            cone_angle_at(surf, vid)


def test_hull_certifies_at_r0(surf1, surf2, surf3):
    # the 65 elements within R0 carry 65 n orbit points, all in the hull
    for surf in (surf1, surf2, surf3):
        assert surf.radius == R0
        assert len(surf.points4) == 65 * surf.n


def test_uncertified_star_is_rejected(group):
    # at radius 5 the stars of this configuration close, but their face
    # planes are not yet proven to support the omitted orbit points
    cfg = config(group, [(0.25, 0.15)], heights=[0.55])
    small = _truncated_hull(cfg, 5.0)
    _build_stars(small, [0])
    with pytest.raises(GeometryError):
        fuchsian._certified_stars(small, [0])
    assert _certified_hull(cfg, 5.0).radius == R0


def test_degenerate_orbit_configuration_fails_on_one_line(group, monkeypatch):
    def flat(chart):
        raise QhullError("QH6154 Qhull precision error: flat\n\nWhile executing: | qhull i")

    monkeypatch.setattr(fuchsian, "EuclideanHull", flat)
    with pytest.raises(GeometryError) as info:
        _truncated_hull(config(group, [(0.25, 0.15)], heights=[0.55]), R0)
    assert str(info.value) == (
        "degenerate orbit configuration: QH6154 Qhull precision error: flat")


def test_uncertified_hull_stops_at_r_max(group, monkeypatch):
    radii = []
    truncated = fuchsian._truncated_hull

    def recording(cfg, radius):
        radii.append(radius)
        return truncated(cfg, radius)

    monkeypatch.setattr(fuchsian, "_truncated_hull", recording)
    monkeypatch.setattr(fuchsian, "_supports_orbit", lambda surf, faces: False)
    with pytest.raises(GeometryError, match="not certified by radius 10"):
        orbit_hull(config(group, [(0.25, 0.15)], heights=[0.55]))
    assert radii == [R0 + 0.5 * k for k in range(10)]


@settings(max_examples=20)
@given(n=st.integers(1, 3), level=st.floats(0.55, 0.95),
       offsets=st.lists(st.floats(-0.08, 0.08), min_size=3, max_size=3))
def test_certified_stars_match_wider_oracle(group, n, level, offsets):
    cfg = config(group, THREE_RAYS[:n], heights=level + np.array(offsets[:n]))
    surf = orbit_hull(cfg)
    oracle = _truncated_hull(cfg, surf.radius + 1.5)
    oracle.stars = _build_stars(oracle, range(n))
    # the oracle's labels carry ids of its wider ball: read them in surf's
    ball = surf.ball
    assert surf.star_combinatorics() == tuple(
        tuple((b, ball.lookup(oracle.elements[e])) for b, e in star)
        for star in oracle.star_combinatorics()
    )
    assert np.array_equal(curvatures(surf), curvatures(oracle))
    assert surf.check_equivariance()


def assert_stars_match_reference(surf):
    """The stars, cone angles and Jacobian of `surf` equal those of the
    one-star-at-a-time references: combinatorics exactly, numbers bit for
    bit."""
    stars = star_records(surf.stars)
    for vid, star in enumerate(stars):
        ref = reference_build_star(surf, vid)
        assert (star.vertex, star.neighbors, star.true_edge, star.wedge_face) == (
            ref.vertex, ref.neighbors, ref.true_edge, ref.wedge_face)
    pts = surf.points4
    assert np.array_equal(
        cone_angles(surf), [reference_cone_angle(star, pts) for star in stars])
    shifted = reembedded_points(surf, surf.heights + 0.01)
    assert np.array_equal(
        cone_angles_fixed_combinatorics(surf, surf.heights + 0.01),
        [reference_cone_angle(star, shifted) for star in stars])
    assert np.array_equal(
        jacobian(surf).matrix,
        reference_assemble(stars, pts, surf.base_of, surf.n, ADS_STAR))


@settings(max_examples=20)
@given(n=st.integers(1, 3), level=st.floats(0.55, 0.95),
       offsets=st.lists(st.floats(-0.08, 0.08), min_size=3, max_size=3))
def test_stars_match_one_star_references(group, n, level, offsets):
    cfg = config(group, THREE_RAYS[:n], heights=level + np.array(offsets[:n]))
    assert_stars_match_reference(orbit_hull(cfg))


def test_false_edge_stars_match_one_star_references(group):
    # the octagon-center surface merges coplanar triangles into larger
    # faces: only those are ordered, for their fans and false edges
    surf = orbit_hull(config(group, [(0.0, 0.0)], heights=[0.3]))
    faces = face_records(surf)
    merged = {fi for fi in surf.stars[0].wedge_face.tolist() if len(faces[fi].ids) > 3}
    assert merged and ordered_faces(surf) == merged
    assert not all(surf.stars[0].true_edge)
    assert_stars_match_reference(surf)


def assert_same_bits(a, b):
    """a and b have the same structure, types and bits."""
    assert type(a) is type(b)
    if isinstance(a, np.ndarray):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same_bits(x, y)
    elif isinstance(a, dict):
        assert_same_bits(list(a.items()), list(b.items()))
    else:
        assert a == b


def assert_layout_matches_oracle(cfg):
    """The dict-keyed layout of the hull of cfg, on the face orbits and
    decks of the library, equals the face by face one bit for bit, and so
    do both projections of the library and those of the face by face
    layout; each reads a hull of its own, so neither sees the face orders
    the other computed."""
    *layout, ambient = dict_ads_layout(orbit_hull(cfg))
    *oracle, oracle_ambient = reference_ads_layout(orbit_hull(cfg))
    assert_same_bits(layout, oracle)
    assert ambient.group is oracle_ambient.group and ambient.rays is oracle_ambient.rays
    for side in Side:
        assert_same_tiling(ads_project(orbit_hull(cfg), side),
                           assemble_tiling(ADS_STAR, side, *reference_ads_layout(orbit_hull(cfg))))


def outcome(call):
    """What a call returns, or the type and message of what it raises."""
    try:
        return call()
    except Exception as exc:  # any raise, matched by type and message
        return type(exc), str(exc)


def assert_same_tiling(a, b):
    """a and b are tilings with the same bits in every face and edge column,
    deck and flag, or the same raise."""
    assert type(a) is type(b)
    if type(a) is tuple:
        assert a == b
        return
    assert a.handedness is b.handedness and a.is_spherical == b.is_spherical
    if not a.is_spherical:
        assert a.ambient.group is b.ambient.group and a.ambient.rays is b.ambient.rays
    for x, y in ((a.black, b.black), (a.white, b.white), (a.edges, b.edges)):
        for field in dataclasses.fields(x):
            assert_same_bits(getattr(x, field.name), getattr(y, field.name))


@settings(max_examples=12)
@given(surface=st.booleans(), n=st.integers(1, 3), level=st.floats(0.55, 0.95),
       offsets=st.lists(st.floats(-0.08, 0.08), min_size=3, max_size=3),
       vertices=st.integers(6, 14), seed=st.integers(0, 2 ** 32 - 1))
def test_projections_match_the_list_pipeline(group, surface, n, level, offsets, vertices,
                                             seed):
    # the corner arrays of both projections against the list pipeline: a
    # Fuchsian surface laid out by the dict-keyed layout, a polyhedron by
    # its walked cycles
    if surface:
        surf = orbit_hull(config(group, SEED_RAYS[n], heights=level + np.array(offsets[:n])))
        pairs = [(lambda side=side: ads_project(surf, side),
                  lambda side=side: assemble_tiling(ADS_STAR, side, *dict_ads_layout(surf)))
                 for side in Side]
    else:
        P = random_polyhedron(np.random.default_rng(seed), vertices)
        pairs = [(lambda side=side: project(P, side),
                  lambda side=side: reference_project(P, side)) for side in Side]
    for new, old in pairs:
        assert_same_tiling(outcome(new), outcome(old))


@settings(max_examples=20)
@given(n=st.integers(1, 3), level=st.floats(0.55, 0.95),
       offsets=st.lists(st.floats(-0.08, 0.08), min_size=3, max_size=3))
def test_layout_matches_face_by_face_oracle(group, n, level, offsets):
    assert_layout_matches_oracle(
        config(group, THREE_RAYS[:n], heights=level + np.array(offsets[:n])))


def test_merged_face_layout_matches_face_by_face_oracle(group):
    # the octagon-center surface: merged faces and false edges
    cfg = config(group, [(0.0, 0.0)], heights=[0.3])
    surf = orbit_hull(cfg)
    faces = face_records(surf)
    assert any(len(faces[fi].ids) > 3 for fi in surf.stars[0].wedge_face.tolist())
    assert not all(surf.stars[0].true_edge)
    assert_layout_matches_oracle(cfg)


@settings(max_examples=15)
@given(n=st.integers(1, 3), level=st.floats(0.55, 0.95),
       offsets=st.lists(st.floats(-0.08, 0.08), min_size=3, max_size=3))
def test_paper_invariants_hold_on_generated_surfaces(group, n, level, offsets):
    # dual face area = -k, Gauss-Bonnet and the Euler characteristic of the
    # quotient, all read from the face arrays
    surf = orbit_hull(config(group, THREE_RAYS[:n], heights=level + np.array(offsets[:n])))
    duals, k = minkowski_dual(surf)
    assert max(abs(df.area() + k[df.ray_index]) for df in duals) <= 1e-9
    assert abs(surf.quotient_area() - (np.sum(k) - 2 * np.pi * group.chi)) <= 1e-9
    V, E, F = surf.quotient_counts()
    assert V - E + F == group.chi


def test_sphere_stars_match_one_star_references():
    rng = np.random.default_rng(11)
    for _ in range(3):
        _, _, P, order = random_star(rng)
        stars = star_records(P.stars)
        cone = np.empty(P.n_vertices)
        cone[order] = [reference_cone_angle(star, P.vertices, SPHERE_STAR) for star in stars]
        assert np.array_equal(sph_star_cone_angles(P, order), cone)
        assert np.array_equal(
            sph_star_jacobian(P, order).matrix,
            reference_assemble(stars, P.vertices, order.__getitem__, P.n_vertices,
                               SPHERE_STAR))


def reference_star_rows(offsets):
    """`fuchsian._star_rows` star by star: the reference."""
    star, nxt, prv = [], [], []
    for i, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:])):
        rows = list(range(lo, hi))
        star += [i] * (hi - lo)
        nxt += rows[1:] + rows[:1]
        prv += rows[-1:] + rows[:-1]
    return star, nxt, prv


@pytest.mark.parametrize("offsets", [[0], [0, 1], [0, 3, 4, 9], [0, 4, 10, 15, 18], [2, 5, 6]])
def test_star_rows_match_the_star_loop(offsets):
    # per stacked row: its star and the rows of its cyclic neighbours, a
    # one-neighbour star its own both ways
    rows = fuchsian._star_rows(offsets)
    assert all(a.dtype == np.intp for a in rows)
    assert [a.tolist() for a in rows] == list(reference_star_rows(offsets))


def test_solver_orders_no_face(group, monkeypatch):
    calls = []
    ordering = fuchsian.cyclic_orders

    def counting(*args):
        calls.append(args)
        return ordering(*args)

    monkeypatch.setattr(fuchsian, "cyclic_orders", counting)
    cfg = config(group, THREE_RAYS, targets=[-1.5, -2.0, -1.0])
    out = solve_prescribed_curvature(cfg)
    assert out["residual"] <= 1e-8 and out["iterations"] > 0
    assert calls == []


def test_hull_equivariant_faces(surf1):
    assert surf1.check_equivariance(n_generators=2)


def test_hull_quotient_euler(surf1, surf2):
    for surf in (surf1, surf2):
        V, E, F = surf.quotient_counts()
        assert V - E + F == -2


def test_hull_gauss_bonnet_area(surf1, surf2):
    for surf in (surf1, surf2):
        k = curvatures(surf)
        assert surf.quotient_area() == pytest.approx(
            float(np.sum(k)) + 4 * np.pi, abs=1e-6
        )


def test_hull_rejects_non_convex_position(group):
    # One very low vertex falls inside the hull of the other orbit.
    cfg = config(group, [(0.3, 0.1), (0.32, 0.12)], heights=[1.3, 0.05])
    with pytest.raises(GeometryError):
        orbit_hull(cfg)


def test_heights_flatten_to_zero_curvature(group):
    cfg = config(group, [(0.25, 0.15)], heights=[0.05])
    k = curvatures(orbit_hull(cfg))[0]
    assert -0.05 < k < 0


def test_curvature_monotone_in_height(group):
    vals = []
    for h in (0.3, 0.6, 0.9, 1.2):
        cfg = config(group, [(0.25, 0.15)], heights=[h])
        vals.append(curvatures(orbit_hull(cfg))[0])
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] > -4 * np.pi  # K(1) bound


def test_convexity_classification_on_surface(surf2):
    for vid in range(surf2.n):
        for is_true, cls in wedge_convexity(surf2, vid):
            if is_true:
                assert cls is ConvexityClass.CONVEX_SIDE
            else:
                assert cls is ConvexityClass.COPLANAR


# -- Jacobian ---------------------------------------------------------------------


def fd_jacobian(surf, step=1e-5):
    h = surf.heights
    n = surf.n
    out = np.zeros((n, n))
    for j in range(n):
        hp, hm = h.copy(), h.copy()
        hp[j] += step
        hm[j] -= step
        out[:, j] = (
            cone_angles_fixed_combinatorics(surf, hp)
            - cone_angles_fixed_combinatorics(surf, hm)
        ) / (2 * step)
    return out


def test_jacobian_matches_fd(surf1, surf2, surf3):
    for surf in (surf1, surf2, surf3):
        J = jacobian(surf).matrix
        fd = fd_jacobian(surf)
        rel = np.abs(J - fd) / np.maximum(np.abs(fd), 1e-8)
        assert np.max(rel) < 1e-5


def test_jacobian_signs_and_dominance(surf2):
    Jm = jacobian(surf2)
    J = Jm.matrix
    assert np.all(np.diag(J) > 0)
    off = J[~np.eye(surf2.n, dtype=bool)]
    assert np.all(off < 0)  # true cross-orbit edges
    assert Jm.is_diagonally_dominant()


def test_jacobian_asymmetry_tolerated(surf2):
    J = jacobian(surf2).matrix
    # The matrix is not symmetric in general; both entries stay negative.
    assert J[0, 1] != pytest.approx(J[1, 0], abs=1e-6)


def test_false_edges_contribute_zero(group):
    # The octagon-center configuration has coplanar merged faces, hence
    # false edges; their wedge pairs classify as coplanar and the Jacobian
    # still matches finite differences.
    cfg = config(group, [(0.0, 0.0)], heights=[0.3])
    surf = orbit_hull(cfg)
    star = surf.stars[0]
    assert not all(star.true_edge)
    for is_true, cls in wedge_convexity(surf, 0):
        if not is_true:
            assert cls is ConvexityClass.COPLANAR
    J = jacobian(surf).matrix
    fd = fd_jacobian(surf)
    assert np.max(np.abs(J - fd) / np.abs(fd)) < 1e-5


# -- solver -----------------------------------------------------------------------


def test_solver_n1_matches_bisection(group):
    target = -2 * np.pi
    cfg = config(group, [(0.25, 0.15)], targets=[target])
    out = solve_prescribed_curvature(cfg)
    assert out["residual"] <= 1e-8

    def k_of(h):
        return curvatures(orbit_hull(cfg.with_heights([h])))[0]

    lo, hi = 0.05, 1.5
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if k_of(mid) > target:
            lo = mid
        else:
            hi = mid
    h_bisect = 0.5 * (lo + hi)
    assert out["heights"][0] == pytest.approx(h_bisect, abs=1e-8)


@pytest.mark.parametrize("h0, message", [
    ([0.5], "one height per ray required"),
    ([float("nan"), 0.5], "heights must lie strictly inside (0, pi/2)"),
    ([0.5, 2.0], "heights must lie strictly inside (0, pi/2)"),
])
def test_solver_checks_h0_before_starting(group, monkeypatch, h0, message):
    # a malformed start is refused before any hull is built: not retried
    # from blended starts, nor blended into (0, pi/2)
    builds = []
    monkeypatch.setattr(fuchsian, "orbit_hull", lambda cfg: builds.append(cfg))
    cfg = config(group, [(0.3, 0.1), (-0.4, 0.35)], targets=[-2.0, -2.5])
    with pytest.raises(GeometryError, match=re.escape(message)):
        solve_prescribed_curvature(cfg, h0=h0)
    assert builds == []


def test_refused_start_is_blended_until_the_blend_is_still(monkeypatch):
    # the default start is uniform, so its blend toward equal heights is
    # itself: a refused default start is built once, not 12 times; an
    # uneven h0 is still blended, toward its mean, up to 12 builds
    starts = []

    def refused(cfg):
        starts.append(cfg.heights.tolist())
        raise GeometryError("vertices not in convex position")

    monkeypatch.setattr(fuchsian, "orbit_hull", refused)
    cfg = config(genus2_group(), SEED_RAYS[2], targets=[-2.0, -2.5])
    with pytest.raises(GeometryError, match="could not find a feasible starting surface"):
        solve_prescribed_curvature(cfg)
    assert starts == [[0.75, 0.75]]
    starts.clear()
    with pytest.raises(GeometryError, match="could not find a feasible starting surface"):
        solve_prescribed_curvature(cfg, h0=[0.5, 1.0])
    assert len(starts) == 12 and starts[:3] == [[0.5, 1.0], [0.625, 0.875],
                                                [0.6875, 0.8125]]
    # a start that raises is not kept
    assert not cfg.group._start_cache


def seed_99_solve(group, n):
    """The solve of the seed-99 round-0 input for n rays
    (`tests/test_digests.py`)."""
    rng = np.random.default_rng(99)
    for m in range(1, n + 1):
        while True:
            k = -rng.uniform(0.5, 3.5, size=m)
            if np.sum(k) > -4 * np.pi + 0.5:
                break
    return solve_prescribed_curvature(config(group, SEED_RAYS[n], targets=k))


def test_solves_on_one_ray_set_share_their_start(monkeypatch):
    # the group keeps the starting surface per ray set and start heights:
    # a second solve on the same rays builds no starting hull and returns
    # the bytes of a solve on a fresh group; an h0 equal to the default
    # start is the same start, and another ray set misses
    builds = []
    hull = fuchsian.orbit_hull

    def counting(cfg):
        builds.append(cfg.rays.tobytes())
        return hull(cfg)

    monkeypatch.setattr(fuchsian, "orbit_hull", counting)
    group = genus2_group()
    first = seed_99_solve(group, 3)
    assert len(builds) == 1
    second = seed_99_solve(group, 3)
    assert len(builds) == 1
    fresh = seed_99_solve(genus2_group(), 3)
    assert len(builds) == 2
    for out in (first, second):
        assert out["heights"].tobytes() == fresh["heights"].tobytes()
        assert (out["achieved_curvatures"].tobytes()
                == fresh["achieved_curvatures"].tobytes())
    cfg = config(group, SEED_RAYS[3], targets=[-1.5, -2.0, -1.0])
    solve_prescribed_curvature(cfg, h0=[0.75, 0.75, 0.75])
    assert len(builds) == 2
    solve_prescribed_curvature(config(group, THREE_RAYS, targets=[-1.5, -2.0, -1.0]))
    assert len(builds) == 3 and builds[-1] != builds[0]
    # one start per ray count, so a sweep over ray sets keeps a bounded
    # set: the other ray set of three rays took the place of the first,
    # whose next solve misses
    seed_99_solve(group, 1)
    assert len(builds) == 4 and sorted(group._start_cache) == [1, 3]
    seed_99_solve(group, 3)
    assert len(builds) == 5 and builds[-1] == builds[0]


def test_kept_start_aliases_no_caller_array():
    group = genus2_group()
    rays = np.array([lift(q) for q in SEED_RAYS[2]])
    k = [-1.5, -3.0]
    first = solve_prescribed_curvature(FuchsianConfig(group, rays, targets=k))
    ((_, start),) = group._start_cache.values()
    assert not start.config.rays.flags.writeable and not start.heights.flags.writeable
    # the caller's rays, edited in place, change neither the kept start nor
    # the next solve on the original rays
    rays[0] = lift((0.0, -0.5))
    assert start.config.rays.tobytes() == config(group, SEED_RAYS[2]).rays.tobytes()
    again = solve_prescribed_curvature(config(group, SEED_RAYS[2], targets=k))
    assert again["heights"].tobytes() == first["heights"].tobytes()
    assert again["achieved_curvatures"].tobytes() == first["achieved_curvatures"].tobytes()
    # a solve that takes no Newton step returns the shared start, read-only,
    # with heights of its own
    out = solve_prescribed_curvature(config(group, SEED_RAYS[2], targets=curvatures(start)))
    assert out["iterations"] == 0 and out["surface"] is start
    assert out["heights"].flags.writeable
    assert not np.shares_memory(out["heights"], start.heights)
    # its arrays, star table and star pass refuse writes
    for a in (start.points4, start.poles, start.triangles, start.chart,
              start.stars.neighbors, start.star_pass[3]):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[0]


def test_solver_n2_converges_and_unique(group):
    cfg = config(group, [(0.3, 0.1), (-0.4, 0.35)], targets=[-1.5, -3.0])
    out = solve_prescribed_curvature(cfg)
    assert out["residual"] <= 1e-8
    np.testing.assert_allclose(out["achieved_curvatures"], [-1.5, -3.0], atol=1e-8)
    # uniqueness probe: a different start reaches the same heights
    rng = np.random.default_rng(3)
    for _ in range(3):
        h0 = rng.uniform(0.3, 1.2, size=2)
        out2 = solve_prescribed_curvature(cfg, h0=h0)
        np.testing.assert_allclose(out2["heights"], out["heights"], atol=1e-6)


def test_solver_singular_jacobian_is_nonconvergence(group, monkeypatch):
    calls = []

    def singular(surf):
        calls.append(surf)
        return fuchsian.JacobianMatrix(np.zeros((surf.n, surf.n)), math.inf)

    monkeypatch.setattr(fuchsian, "jacobian", singular)
    cfg = config(group, [(0.25, 0.15)], targets=[-2.0])
    with pytest.raises(ConvergenceError):
        solve_prescribed_curvature(cfg)
    # the first singular Jacobian ends the solve: no retry reassembles it
    assert len(calls) == 1


def jacobian_or_error(surf):
    try:
        return jacobian(surf).matrix.tobytes()
    except GeometryError as exc:
        return str(exc)


def assert_trial_is_hull(trial, hull):
    """A certified fixed-star trial is the certified hull at its heights:
    same radius and stars, the same curvature and Jacobian bits."""
    assert hull.radius == R0
    assert [s.neighbors for s in star_records(hull.stars)] == [
        s.neighbors for s in star_records(trial.stars)]
    assert [s.true_edge for s in star_records(hull.stars)] == [
        s.true_edge for s in star_records(trial.stars)]
    assert curvatures(hull).tobytes() == curvatures(trial).tobytes()
    assert jacobian_or_error(hull) == jacobian_or_error(trial)


def trial_and_repair(surf, cfg):
    """`_fixed_star_trial(surf, cfg)` and whether it re-cut the stars, that
    is whether the certificate found points on the wrong side of them."""
    with mock.patch.object(fuchsian, "_recut_stars", wraps=fuchsian._recut_stars) as recut:
        return fuchsian._fixed_star_trial(surf, cfg), recut.called


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 3), level=st.floats(0.55, 0.95),
       offsets=st.lists(st.floats(-0.08, 0.08), min_size=3, max_size=3),
       direction=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
       size=st.floats(1e-3, 0.15))
def test_certified_fixed_star_trial_is_the_hull(group, n, level, offsets, direction, size):
    # a Newton-sized step of up to 0.15 per height; the certificate passes
    # for most small steps and refuses most large ones, and the repair
    # re-cuts most of those it refuses (`--hypothesis-show-statistics`
    # counts the paths)
    cfg = config(group, THREE_RAYS[:n], heights=level + np.array(offsets[:n]))
    trial_cfg = cfg.with_heights(cfg.heights + size * np.array(direction[:n]))
    surf = orbit_hull(cfg)
    trial, repaired = trial_and_repair(surf, trial_cfg)
    if repaired:
        event("refused, repaired" if trial is not None else "refused, not repaired")
    else:
        event("certified" if trial is not None else "refused")
    if trial is not None:
        assert_trial_is_hull(trial, _certified_hull(trial_cfg))


def test_fixed_star_trial_certifies_small_steps(surf1, surf3):
    for surf in (surf1, surf3):
        trial_cfg = surf.config.with_heights(surf.heights + 0.01)
        trial, repaired = trial_and_repair(surf, trial_cfg)
        assert trial is not None and not repaired
        assert_trial_is_hull(trial, _certified_hull(trial_cfg))
        # a trial surface certifies the next trial as its hull would
        again = surf.config.with_heights(surf.heights + 0.02)
        trial, repaired = trial_and_repair(trial, again)
        assert not repaired
        assert_trial_is_hull(trial, _certified_hull(again))


def test_fixed_star_trial_refuses_new_combinatorics(surf2):
    # from heights (0.5, 0.7) to (0.55, 0.6) the stars change: the hull
    # there has other neighbours, and the certificate refuses the trial
    trial_cfg = surf2.config.with_heights([0.55, 0.6])
    hull = _certified_hull(trial_cfg)
    assert [s.neighbors for s in star_records(hull.stars)] != [
        s.neighbors for s in star_records(surf2.stars)]
    # the repair re-cuts the stars where the certificate found points on
    # the wrong side, and they are the hull's
    trial, repaired = trial_and_repair(surf2, trial_cfg)
    assert repaired
    assert_trial_is_hull(trial, hull)
    # at (0.2, 0.7) the first ray point sinks inside the hull: the repair
    # refuses the trial, whose hull raises
    sunk = surf2.config.with_heights([0.2, 0.7])
    assert fuchsian._fixed_star_trial(surf2, sunk) is None
    with pytest.raises(GeometryError, match="not in convex position"):
        _certified_hull(sunk)


def test_fixed_star_trial_needs_a_hull_at_r0_with_true_edges(group, surf1):
    trial_cfg = surf1.config.with_heights(surf1.heights + 0.01)
    wide = _certified_hull(surf1.config, R0 + 0.5)
    assert fuchsian._fixed_star_trial(wide, trial_cfg) is None
    # the octagon-center surface has false edges from a coplanar merge
    merged = orbit_hull(config(group, [(0.0, 0.0)], heights=[0.3]))
    assert fuchsian._fixed_star_trial(
        merged, merged.config.with_heights([0.31])) is None


@pytest.mark.parametrize("n, budget", [(1, 1), (2, 1), (3, 2)])
def test_seed_99_solve_builds_few_hulls(monkeypatch, n, budget):
    # round 0 of the seed-99 solver inputs (`tests/test_digests.py`), on a
    # fresh group: the starting hull and, for n = 3, one trial whose stars
    # cannot be repaired; the repairs build no hull, and neither does the
    # returned surface, which is built from the certified stars
    radii, qhull_in_trials, in_trial = [], [], []
    truncated, euclidean, trial = (fuchsian._truncated_hull, fuchsian.EuclideanHull,
                                   fuchsian._fixed_star_trial)

    def counting(cfg, radius):
        radii.append(radius)
        return truncated(cfg, radius)

    def qhull(*args, **kwargs):
        qhull_in_trials.append(bool(in_trial))
        return euclidean(*args, **kwargs)

    def watched_trial(*args):
        in_trial.append(True)
        try:
            return trial(*args)
        finally:
            in_trial.pop()

    monkeypatch.setattr(fuchsian, "_truncated_hull", counting)
    monkeypatch.setattr(fuchsian, "EuclideanHull", qhull)
    monkeypatch.setattr(fuchsian, "_fixed_star_trial", watched_trial)
    out = seed_99_solve(genus2_group(), n)
    assert out["residual"] <= 1e-8 and out["iterations"] > 0
    assert len(radii) <= budget
    assert len(qhull_in_trials) == len(radii) and not any(qhull_in_trials)
    # the returned surface lies at the solved heights, with their curvatures
    surf = out["surface"]
    assert isinstance(surf, fuchsian.FuchsianSurface)
    assert np.array_equal(surf.heights, out["heights"])
    assert out["achieved_curvatures"].tobytes() == curvatures(surf).tobytes()


@pytest.mark.parametrize("seed", [99, 5])
def test_solve_returns_the_surface_of_its_certified_stars(group, seed):
    # rounds 0-1 of the solver inputs (`tests/test_digests.py`): each solve
    # ends on certified stars and returns the surface of their triangles,
    # with no final hull; the hull at the solved heights is its oracle, with
    # the same stars, wedge poles, dual faces and projections, byte for byte
    rng = np.random.default_rng(seed)
    for _ in range(2):
        for n in (1, 2, 3):
            while True:
                k = -rng.uniform(0.5, 3.5, size=n)
                if np.sum(k) > -4 * np.pi + 0.5:
                    break
            cfg = config(group, SEED_RAYS[n], targets=k)
            out = solve_prescribed_curvature(cfg)
            surf = out["surface"]
            assert surf.from_stars and surf.radius == R0
            hull = orbit_hull(cfg.with_heights(out["heights"]))
            for column in ("vertex", "offsets", "neighbors", "true_edge"):
                assert np.array_equal(getattr(surf.stars, column), getattr(hull.stars, column))
            assert (surf.poles[surf.stars.wedge_face].tobytes()
                    == hull.poles[hull.stars.wedge_face].tobytes())
            assert ([d.vertices.tobytes() for d in minkowski_dual(surf)[0]]
                    == [d.vertices.tobytes() for d in minkowski_dual(hull)[0]])
            for side in Side:
                assert (fio.canonical_json(fio.tiling_to_dict(ads_project(surf, side)))
                        == fio.canonical_json(fio.tiling_to_dict(ads_project(hull, side))))
            with pytest.raises(GeometryError, match="holds only its fundamental stars"):
                surf.star_at(n)


def test_solver_rejects_bad_targets(group):
    with pytest.raises(GeometryError):
        config(group, [(0.3, 0.1)], targets=[0.1])
    cfg = config(group, [(0.3, 0.1)], heights=[0.5])
    with pytest.raises(GeometryError):
        solve_prescribed_curvature(cfg)  # no targets attached


# -- Minkowski dual ----------------------------------------------------------------


def test_dual_face_areas_are_minus_curvature(group):
    cfg = config(group, [(0.3, 0.1), (-0.4, 0.35)], targets=[-1.5, -3.0])
    out = solve_prescribed_curvature(cfg)
    duals, ks = minkowski_dual(out["surface"])
    for df in duals:
        assert df.area() == pytest.approx(-ks[df.ray_index], abs=1e-7)


def test_dual_faces_orthogonal_to_reflected_rays(group):
    cfg = config(group, [(0.25, 0.15)], targets=[-2.0])
    out = solve_prescribed_curvature(cfg)
    surf = out["surface"]
    duals, ks = minkowski_dual(surf)
    h = out["heights"][0]
    foot = reflected_ray_point(cfg.rays[0], np.pi / 2 - h)
    df = duals[0]
    # the reflected ray meets the dual plane, orthogonally: the plane's
    # normal is the original vertex, which is tangent to the reflected ray
    assert abs(ads_inner(foot, df.plane_pole)) < 1e-8
    tangent = np.concatenate(
        [-np.sin(np.pi / 2 - h) * cfg.rays[0], [-np.cos(np.pi / 2 - h)]]
    )
    n_proj = df.plane_pole - (-ads_inner(df.plane_pole, foot)) * foot
    cross = tangent - ads_inner(tangent, df.plane_pole) / ads_inner(
        df.plane_pole, df.plane_pole
    ) * df.plane_pole
    assert np.linalg.norm(cross) < 1e-7  # tangent parallel to the plane normal


def test_dual_involution(group):
    cfg = config(group, [(0.3, 0.1), (-0.4, 0.35)], targets=[-1.5, -3.0])
    out = solve_prescribed_curvature(cfg)
    surf = out["surface"]
    duals, _ = minkowski_dual(surf)
    for df in duals:
        pole = ADS_STAR.form * cross4(df.vertices[0], df.vertices[1], df.vertices[2])
        pole = pole / math.sqrt(-ads_inner(pole, pole))
        if pole[3] < 0:
            pole = -pole
        assert np.linalg.norm(pole - surf.points4[df.ray_index]) < 1e-8


# -- projections and the hyperbolic flip --------------------------------------------


def test_projection_handedness_and_validity(surf2):
    Tr = ads_project(surf2, Side.LEFT)
    assert Tr.handedness is Side.RIGHT
    assert validate_tiling(Tr).ok
    Tl = ads_project(surf2, Side.RIGHT)
    assert Tl.handedness is Side.LEFT
    assert validate_tiling(Tl).ok


def test_projection_area_budget(surf1, surf2):
    for surf in (surf1, surf2):
        T = ads_project(surf, Side.LEFT)
        total = T.total_area()
        assert total == pytest.approx(4 * np.pi, abs=1e-6)


def test_projection_black_faces_are_links(surf2):
    # black face areas equal minus the curvatures (polar link areas)
    T = ads_project(surf2, Side.LEFT)
    k = curvatures(surf2)
    for i, area in enumerate(T.black_areas()):
        assert area == pytest.approx(-k[i], abs=1e-8)


def test_symmetric_tiling_spectra(surf1, surf2):
    for surf in (surf1, surf2):
        Tr = ads_project(surf, Side.LEFT)
        Tl = ads_project(surf, Side.RIGHT)
        for br, bl in zip(Tr.black, Tl.black):
            np.testing.assert_allclose(
                np.sort(edge_lengths(HyperbolicOps, br.vertices)),
                np.sort(edge_lengths(HyperbolicOps, bl.vertices)),
                atol=1e-7,
            )


def test_induced_cone_metric_hyperbolic(surf2):
    # the quotient's induced metric is the white metric of either projection
    for side in Side:
        m = white_metric(ads_project(surf2, side))
        assert m.curvature == -1
        assert np.all(m.cone_angles() > 2 * np.pi)
        np.testing.assert_allclose(
            m.singular_curvatures(), curvatures(surf2), atol=1e-12
        )


def test_recover_heights_round_trip(surf2):
    T = ads_project(surf2, Side.LEFT)
    h = recover_heights(T)
    np.testing.assert_allclose(h, surf2.heights, atol=1e-9)


@settings(max_examples=15)
@given(n=st.integers(1, 3), level=st.floats(0.08, 1.47),
       offsets=st.lists(st.floats(-0.03, 0.03), min_size=3, max_size=3))
def test_recover_heights_matches_least_squares(group, n, level, offsets):
    h = level + np.array(offsets[:n])
    T = ads_project(orbit_hull(config(group, THREE_RAYS[:n], heights=h)), Side.LEFT)
    new, old = recover_heights(T), least_squares_heights(T)
    np.testing.assert_allclose(new, old, rtol=0, atol=1e-12)
    np.testing.assert_allclose(new, h, rtol=0, atol=1e-12)
    np.testing.assert_allclose(old, h, rtol=0, atol=1e-12)


def test_recover_heights_stops_when_steps_stall_near_zero(group, monkeypatch):
    # at h = 0.02 the rows are nearly flat (their derivative goes like
    # sin 2h) and the steps stall at a few 1e-15 instead of vanishing
    T = ads_project(orbit_hull(config(group, [(0.25, 0.15)], heights=[0.02])), Side.LEFT)
    steps = []
    lstsq = np.linalg.lstsq

    def counting(*args, **kwargs):
        steps.append(args)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting)
    h = recover_heights(T)
    assert len(steps) < fuchsian.MAX_GAUSS_NEWTON
    assert abs(h[0] - 0.02) <= 3e-14


def move_white_vertex(T):
    """Push one white vertex of T off by a factor 1 + 1e-6."""
    T.white[0].vertices[0] = T.white[0].vertices[0] * (1.0 + 1e-6)


def drop_white_decks(T):
    """Drop the deck tags of a white face of T whose corners are not all on
    the fundamental copies (a tiling.v1 face may carry "decks": null)."""
    T.white = with_face(T, WHITE, 0, decks=None, tagged=None).white


def test_equality_error_of_a_non_finite_vertex_is_inf(surf2):
    T = ads_project(surf2, Side.LEFT)
    bad = ads_project(surf2, Side.LEFT)
    bad.white[-1].vertices[0, 2] = np.nan
    assert tiling_equality_error(T, bad) == np.inf
    assert tiling_equality_error(bad, T) == np.inf
    bad.white[-1].vertices[0, 2] = np.inf
    assert tiling_equality_error(T, bad) == np.inf


def test_equality_error_refuses_unmatched_face_counts(surf2):
    # the left projection of surf2 against copies missing its last white or
    # black face: zip alone would compare the faces they share
    T = ads_project(surf2, Side.LEFT)
    for black, white in ((T.black, faces_table(tiling_faces(T.white)[:-1])),
                         (faces_table(tiling_faces(T.black)[:-1]), T.white)):
        fewer = FlippableTiling(T.handedness, black, white, T.edges, T.ambient)
        for pair in ((T, fewer), (fewer, T)):
            with pytest.raises(GeometryError, match="different numbers of faces"):
                tiling_equality_error(*pair)


def test_flip_rejects_a_moved_white_vertex(surf1):
    # the flip validates T first; the height recovery refuses it too
    T = ads_project(surf1, Side.LEFT)
    move_white_vertex(T)
    with pytest.raises(GeometryError, match="off geodesic"):
        flip(T)
    with pytest.raises(DevelopmentError, match="apexes on the rays"):
        recover_heights(T)


def test_flip_rejects_heights_off_its_surface(surf1, monkeypatch):
    T = ads_project(surf1, Side.LEFT)
    recover = fuchsian.recover_heights
    monkeypatch.setattr(fuchsian, "recover_heights", lambda T: recover(T) + 1e-6)
    with pytest.raises(DevelopmentError, match="does not match its reconstructed surface"):
        flip(T)


TILING_COMMANDS = ["check", "flip", "render", "reconstruct"]
AMBIENT_DAMAGE = {
    "off-hyperboloid": (lambda rays: rays[0].__setitem__(2, 5.0), 3),
    "outside-octagon": (lambda rays: rays.__setitem__(0, lift((0.0, 8.0)).tolist()), 3),
    "two-rays": (lambda rays: rays.append(lift((-0.4, 0.35)).tolist()), 2),
}


def run_on_tiling(d, command, tmp_path, capsys):
    """Exit code and stderr of a command on the tiling.v1 dict d, failing
    on any warning."""
    path = tmp_path / "t.json"
    path.write_text(json.dumps(d))
    argv = [command, "--in", str(path)]
    if command != "check":
        argv += ["--out", str(tmp_path / "out")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    return code, capsys.readouterr().err


@pytest.mark.parametrize("command", TILING_COMMANDS)
@pytest.mark.parametrize("damage", sorted(AMBIENT_DAMAGE))
def test_cli_checks_the_rays_of_a_hyperbolic_tiling(surf1, damage, command, tmp_path,
                                                    capsys):
    d = fio.tiling_to_dict(ads_project(surf1, Side.LEFT))
    change, expected = AMBIENT_DAMAGE[damage]
    change(d["ambient"]["rays"])
    code, err = run_on_tiling(d, command, tmp_path, capsys)
    assert code == expected
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("command", TILING_COMMANDS)
@pytest.mark.parametrize("change", ["huge", "scaled", "below"])
def test_cli_refuses_a_vertex_off_the_hyperboloid(surf1, change, command, tmp_path, capsys):
    d = fio.tiling_to_dict(ads_project(surf1, Side.LEFT))
    v = d["vertices"][3]
    if change == "huge":
        v[0] = 1e300
    elif change == "scaled":
        v[:] = [x * (1 + 1e-6) for x in v]
    else:
        v[:] = [-x for x in v]
    code, err = run_on_tiling(d, command, tmp_path, capsys)
    assert code == 3
    assert err == "error: tiling vertex 3 is not on the hyperboloid\n"


def test_loaders_share_one_group_and_its_balls(surf1, group):
    d = fio.tiling_to_dict(ads_project(surf1, Side.LEFT))
    first = fio.tiling_from_dict(d)
    reference_flip_hyperbolic(first)  # its orbit hull builds the balls of its group
    balls = dict(first.ambient.group._element_cache)
    assert balls
    second = fio.tiling_from_dict(d)
    cfg = fio.fuchsian_config_from_dict(fio.fuchsian_config_to_dict(surf1.config))
    assert second.ambient.group is first.ambient.group is cfg.group
    assert all(second.ambient.group.ball(r) is ball for r, ball in balls.items())
    # the group of the library is still built fresh on each call
    assert genus2_group() is not genus2_group()
    fresh = genus2_group()
    assert not fresh._element_cache and not fresh._start_cache


@pytest.mark.parametrize("damage", [move_white_vertex, drop_white_decks])
def test_cli_flip_of_a_damaged_tiling_exits_3(surf1, damage, tmp_path, capsys):
    T = ads_project(surf1, Side.LEFT)
    damage(T)
    path = tmp_path / "damaged.json"
    fio.dump_json(fio.tiling_to_dict(T), path)
    assert main(["flip", "--in", str(path), "--out", str(tmp_path / "flipped.json")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_flip_rejects_singular_and_non_finite_height_equations(surf2):
    # no white corner links ray 1, so its height is free; the flip refuses
    # such tilings in validation, before the heights
    T = ads_project(surf2, Side.LEFT)
    T = with_faces(T, WHITE, [replace(w, links=(0,) * len(w)) for w in tiling_faces(T.white)])
    with pytest.raises(DevelopmentError, match="singular"):
        recover_heights(T)
    with pytest.raises(GeometryError, match="does not meet its linked face"):
        flip(T)
    T = ads_project(surf2, Side.LEFT)
    decks = tiling_faces(T.white)[0].decks.copy()
    decks[0] = np.nan
    T = with_face(T, WHITE, 0, decks=decks)
    with pytest.raises(DevelopmentError, match="not finite"):
        recover_heights(T)
    with pytest.raises(GeometryError, match="does not meet its linked face"):
        flip(T)


def test_projection_and_flip_match_golden(surf2):
    T = ads_project(surf2, Side.LEFT)
    text = fio.canonical_json(
        {"projected": fio.tiling_to_dict(T), "flipped": fio.tiling_to_dict(flip(T))}
    )
    with open(GOLDEN_N2) as fh:
        assert text + "\n" == fh.read()


def projection_golden_text(surf):
    """Canonical JSON of the left and right projections of a surface and of
    the flip of the left one."""
    T = ads_project(surf, Side.LEFT)
    return fio.canonical_json({
        "projected_left": fio.tiling_to_dict(T),
        "projected_right": fio.tiling_to_dict(ads_project(surf, Side.RIGHT)),
        "flipped": fio.tiling_to_dict(flip(T)),
    })


def projection_golden_path(n):
    return os.path.join(DATA, f"ads_project_flip_n{n}.json")


@pytest.mark.parametrize("name", ["surf1", "surf3"])
def test_projections_match_golden(name, request):
    surf = request.getfixturevalue(name)
    with open(projection_golden_path(surf.n)) as fh:
        assert projection_golden_text(surf) + "\n" == fh.read()


def stars_golden(group):
    """Per fixture surface: `star_combinatorics`, whose labels are (ray,
    element index in `surf.elements`), and the stars as built (neighbour
    vertex ids from the fan start, true edges, wedge faces)."""
    out = {}
    for name in FIXTURES:
        surf = fixture_surface(group, name)
        out[name] = {
            "combinatorics": surf.star_combinatorics(),
            "stars": [[s.neighbors, s.true_edge, s.wedge_face]
                      for s in star_records(surf.stars)],
        }
    return out


def test_star_combinatorics_match_golden(group):
    with open(GOLDEN_STARS) as fh:
        assert fio.canonical_json(stars_golden(group)) + "\n" == fh.read()


@settings(max_examples=15)
@given(n=st.integers(1, 3), level=st.floats(0.55, 0.95),
       offsets=st.lists(st.floats(-0.08, 0.08), min_size=3, max_size=3),
       side=st.sampled_from(Side))
def test_projection_validates_and_flip_is_involution(group, n, level, offsets, side):
    cfg = config(group, THREE_RAYS[:n], heights=level + np.array(offsets[:n]))
    T = ads_project(orbit_hull(cfg), side)
    assert validate_tiling(T).ok
    F = flip(T)
    assert tiling_equality_error(F, reference_flip_hyperbolic(T)) <= 1e-12
    assert tiling_equality_error(T, flip(F)) <= 1e-10


def test_hyperbolic_flip_round_trip(surf1, surf2):
    for surf in (surf1, surf2):
        T = ads_project(surf, Side.LEFT)
        F = flip(T)
        assert F.handedness is Side.LEFT
        assert validate_tiling(F).ok
        FF = flip(F)
        assert tiling_equality_error(T, FF) < 1e-7


# -- the developed flip --------------------------------------------------------------


def damage_black_deck(T):
    """Compose the deck of black corner 0 with a 1e-3 boost."""
    T.black.decks[0] = T.black.decks[0] @ fuchsian._boost(1e-3)


def damage_segment_deck(T):
    """Compose the deck of segment 0 of edge 0 with a 1e-3 boost."""
    T.edges.decks[0, 0] = T.edges.decks[0, 0] @ fuchsian._boost(1e-3)


@pytest.mark.parametrize("damage", [damage_black_deck, damage_segment_deck])
def test_flip_refuses_what_check_refuses(group, damage, tmp_path, capsys):
    # the development reads every deck, so a flip validates its input first
    T = ads_project(orbit_hull(config(group, [(0.25, 0.15)], heights=[0.7])), Side.LEFT)
    damage(T)
    first = validate_tiling(T).first
    assert first is not None
    with pytest.raises(GeometryError) as info:
        flip(T)
    assert str(info.value) == first
    path = tmp_path / "damaged.json"
    fio.dump_json(fio.tiling_to_dict(T), path)
    for argv in (["check", "--in", str(path)],
                 ["flip", "--in", str(path), "--out", str(tmp_path / "flipped.json")]):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not (tmp_path / "flipped.json").exists()


def test_flip_refuses_a_repeated_face(surf1):
    # a white face listed twice misses V - E + F = chi: validation, and so
    # the flip, refuses it
    T = ads_project(surf1, Side.LEFT)
    faces = tiling_faces(T.white)
    T = with_faces(T, WHITE, faces + faces[:1])
    first = validate_tiling(T).first
    assert first == "V - E + F = -1 is not chi = -2: the cells do not cover the quotient once"
    with pytest.raises(GeometryError) as info:
        flip(T)
    assert str(info.value) == first


@pytest.mark.parametrize("entry", ["faces", "edges"])
def test_check_and_flip_refuse_a_repeated_cell(surf1, entry, tmp_path, capsys):
    # a face or a tiling edge listed twice in a tiling.v1 file exits 3
    # under check and flip, both naming the V - E + F clause
    data = fio.tiling_to_dict(ads_project(surf1, Side.LEFT))
    data[entry].append(data[entry][-1])
    path = tmp_path / "repeated.json"
    fio.dump_json(data, path)
    for argv in (["check", "--in", str(path)],
                 ["flip", "--in", str(path), "--out", str(tmp_path / "flipped.json")]):
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "is not chi = -2" in out + err
    assert not (tmp_path / "flipped.json").exists()


@pytest.mark.parametrize("name", ["surf1", "surf2", "surf3"])
def test_hyperbolic_flip_builds_no_hull(name, request, monkeypatch):
    T = ads_project(request.getfixturevalue(name), Side.LEFT)
    expected = reference_flip_hyperbolic(T)

    def refuse(*args, **kwargs):
        raise AssertionError("a hyperbolic flip built an orbit hull")

    monkeypatch.setattr(fuchsian, "EuclideanHull", refuse)
    monkeypatch.setattr(fuchsian, "orbit_hull", refuse)
    F = flip(T)
    assert tiling_equality_error(F, expected) <= 1e-12


def certify(T, heights):
    """`_certify_development` of T developed at `heights`."""
    points, poles, q, _ = fuchsian._develop(T, np.asarray(heights, dtype=float))
    fuchsian._certify_development(T, points, poles, q, *fuchsian._edge_slots(T))


def test_certificate_names_the_edge_an_apex_was_pushed_across(surf2):
    T = ads_project(surf2, Side.LEFT)
    certify(T, surf2.heights)
    # ray point 0 lowered from h = 0.5 to 0.3 lies across the plane of a
    # face next to it, so the two faces of tiling edge 0 fold inward
    with pytest.raises(DevelopmentError, match="does not fold convexly at tiling edge 0$"):
        certify(T, [0.3, 0.7])


def test_certificate_names_a_merged_face_with_a_corner_off_its_plane(group):
    surf = orbit_hull(config(group, [(0.0, 0.0)], heights=[0.3]))
    T = ads_project(surf, Side.LEFT)
    big = int(np.argmax(T.white.sizes))
    assert T.white.sizes[big] > 3
    points, poles, q, _ = fuchsian._develop(T, surf.heights)
    slots = fuchsian._edge_slots(T)
    fuchsian._certify_development(T, points, poles, q, *slots)
    # corner 1 is none of the three corners the face's pole is taken from
    points[T.white.offsets[big] + 1] += 1e-4 * poles[big]
    with pytest.raises(DevelopmentError, match=f"white face {big} of the development is "
                                               "not planar"):
        fuchsian._certify_development(T, points, poles, q, *slots)


@pytest.mark.parametrize("side", list(Side))
def test_octagon_centre_flip_matches_the_hull_oracle(group, side):
    # one white octagon from a coplanar merge
    T = ads_project(orbit_hull(config(group, [(0.0, 0.0)], heights=[0.3])), side)
    assert max(T.white.sizes) >= 4
    F = flip(T)
    assert validate_tiling(F).ok
    assert tiling_equality_error(F, reference_flip_hyperbolic(T)) <= 1e-12


# -- spherical star polyhedra ---------------------------------------------------------


def random_star(rng, n=8):
    for _ in range(200):
        t = rng.normal(size=(n, 3))
        t /= np.linalg.norm(t, axis=1, keepdims=True)
        h = rng.uniform(0.5, 0.9, size=n)
        try:
            return t, h, *star_polyhedron(t, h)
        except GeometryError:
            continue
    raise RuntimeError("no star sample found")


def test_star_jacobian_matches_fd():
    from flipkit.polyhedra import ConvexPolyhedron

    rng = np.random.default_rng(11)
    for _ in range(3):
        t, h, P, order = random_star(rng)
        J = sph_star_jacobian(P, order).matrix

        def omegas(hv):
            pts = np.hstack([np.cos(hv)[:, None], np.sin(hv)[:, None] * t])
            newverts = np.array([pts[order[i]] for i in range(P.n_vertices)])
            Q = ConvexPolyhedron(
                newverts, P.faces, P.face_poles, P.interior, validate=False
            )
            return sph_star_cone_angles(Q, order)

        d = 1e-5
        n = len(t)
        fd = np.zeros((n, n))
        for j in range(n):
            hp, hm = h.copy(), h.copy()
            hp[j] += d
            hm[j] -= d
            fd[:, j] = (omegas(hp) - omegas(hm)) / (2 * d)
        rel = np.abs(J - fd) / np.maximum(np.abs(fd), 1e-8)
        assert np.max(rel) < 1e-5


def test_star_jacobian_rejects_reflex_edge():
    # pulling one vertex toward the apex folds the edges at it inward; the
    # assembly shared with the AdS Jacobian refuses their dihedral sums
    from flipkit.polyhedra import ConvexPolyhedron

    t, h, P, order = random_star(np.random.default_rng(11))
    h = h.copy()
    h[order[0]] = 0.1
    pts = np.hstack([np.cos(h)[:, None], np.sin(h)[:, None] * t])
    Q = ConvexPolyhedron(pts[order], P.faces, P.face_poles, P.interior, validate=False)
    with pytest.raises(GeometryError, match="not convex"):
        sph_star_jacobian(Q, order)


def test_star_jacobian_positive_off_diagonal():
    rng = np.random.default_rng(13)
    t, h, P, order = random_star(rng)
    J = sph_star_jacobian(P, order).matrix
    off = J - np.diag(np.diag(J))
    assert np.all(off[np.abs(off) > 1e-12] > 0)


def test_star_jacobian_tetrahedron_symmetry():
    t = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3)
    P, order = star_polyhedron(t, np.full(4, 0.7))
    J = sph_star_jacobian(P, order).matrix
    off = J[~np.eye(4, dtype=bool)]
    assert np.ptp(off) < 1e-9


def test_star_polyhedron_rejects_non_triangular():
    # A cube-like star has quadrilateral faces.
    t = np.array(
        [
            [1, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1],
            [-1, 1, 1], [-1, 1, -1], [-1, -1, 1], [-1, -1, -1],
        ]
    ) / np.sqrt(3)
    with pytest.raises(GeometryError):
        star_polyhedron(t, np.full(8, 0.7))


if __name__ == "__main__":
    # rewrite the golden files of this module from the current code
    g = genus2_group()
    for name in ("surf1", "surf3"):
        surf = fixture_surface(g, name)
        with open(projection_golden_path(surf.n), "w") as fh:
            fh.write(projection_golden_text(surf) + "\n")
        print(projection_golden_path(surf.n))
    with open(GOLDEN_STARS, "w") as fh:
        fh.write(fio.canonical_json(stars_golden(g)) + "\n")
    print(GOLDEN_STARS)
