"""Genus-2 group, orbit hulls, Jacobian, solver, dual, projections."""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipkit import fuchsian
from flipkit import io as fio
from flipkit.errors import ConvergenceError, GeometryError
from flipkit.fuchsian import (
    R0,
    FuchsianConfig,
    ads_inner,
    ads_project,
    admissible_targets,
    cone_angle_at,
    cone_angles,
    cone_angles_fixed_combinatorics,
    curvatures,
    extend_isometry,
    genus2_group,
    jacobian,
    minkowski_dual,
    orbit_hull,
    orbit_points,
    ray_point,
    recover_heights,
    reembedded_points,
    reflected_ray_point,
    solve_prescribed_curvature,
    sph_star_cone_angles,
    sph_star_jacobian,
    star_polyhedron,
    wedge_convexity,
    Q_ADS,
    _build_star,
    _certified_hull,
    _cross4,
    _cyclic_face_order,
    _truncated_hull,
)
from flipkit.spheremath import HyperbolicOps
from flipkit.tilings import Side, flip, tiling_equality_error, validate_tiling
from flipkit.trig import ConvexityClass

Q21 = np.diag([1.0, 1.0, -1.0])
GOLDEN_N2 = os.path.join(os.path.dirname(__file__), "data", "ads_project_flip_n2.json")
THREE_RAYS = [(0.3, 0.1), (-0.4, 0.35), (0.0, -0.5)]


@pytest.fixture(scope="module")
def group():
    return genus2_group()


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


@pytest.fixture(scope="module")
def surf1(group):
    return orbit_hull(config(group, [(0.25, 0.15)], heights=[0.55]))


@pytest.fixture(scope="module")
def surf2(group):
    return orbit_hull(
        config(group, [(0.3, 0.1), (-0.4, 0.35)], heights=[0.5, 0.7])
    )


@pytest.fixture(scope="module")
def surf3(group):
    return orbit_hull(config(group, THREE_RAYS, heights=[0.5, 0.7, 0.62]))


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


def test_element_enumeration_dedup(group):
    els = group.elements(8.8)
    keys = {group.element_key(g) for g in els}
    assert len(keys) == len(els)
    assert np.allclose(els[0], np.eye(3))


def brute_force_ball(group, radius, max_word=7):
    """Keys of all products of at most `max_word` symmetric generators that
    move the center by at most `radius`.

    A product of length k ends in the ball only if its length-j prefix
    lies within radius + (k - j) * 2d, 2d the generator displacement; that
    triangle-inequality bound is the only pruning.
    """
    gens = np.array(group.symmetric_generators)
    step = math.acosh(gens[0][2, 2])
    seen = {group.element_key(np.eye(3))}
    frontier = np.eye(3)[None]
    inside = set(seen)
    for j in range(1, max_word + 1):
        words = np.einsum("gij,wjk->gwik", gens, frontier).reshape(-1, 3, 3)
        words = words[words[:, 2, 2] <= math.cosh(radius + (max_word - j) * step)]
        fresh = {}
        for m in words:
            fresh.setdefault(group.element_key(m), m)
        fresh = {k: m for k, m in fresh.items() if k not in seen}
        seen |= fresh.keys()
        inside |= {k for k, m in fresh.items() if m[2, 2] <= math.cosh(radius)}
        frontier = np.array(list(fresh.values()))
    return inside


@pytest.mark.parametrize("radius", [5.5, 7.0])
def test_radius_enumeration_complete(group, radius):
    els = group.elements(radius)
    assert {group.element_key(g) for g in els} == brute_force_ball(group, radius)
    assert np.all(els[:, 2, 2] <= math.cosh(radius))


def test_radius_enumeration_separated(group):
    # distinct elements differ by more than twice the 0.1 key quantum in
    # some entry, so no two of them can share a key
    els = group.elements(7.0).reshape(-1, 9)
    i, j = np.triu_indices(len(els), k=1)
    assert np.min(np.max(np.abs(els[i] - els[j]), axis=1)) > 0.2


# -- configurations --------------------------------------------------------------


def test_config_validation(group):
    with pytest.raises(GeometryError):
        config(group, [(0.3, 0.1)], heights=[1.6])  # above pi/2
    with pytest.raises(GeometryError):
        config(group, [(0.3, 0.1)], targets=[0.1])  # positive curvature
    with pytest.raises(GeometryError):
        config(group, [(0.3, 0.1), (0.1, 0.3)], targets=[-9.0, -4.0])  # sum
    with pytest.raises(GeometryError):
        FuchsianConfig(group, np.array([[5.0, 0.0, 0.0]]))  # not on hyperboloid


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


def test_face_order_is_lazy(group):
    surf = orbit_hull(config(group, THREE_RAYS, heights=[0.5, 0.7, 0.62]))
    near = {fi for vid in range(surf.n) for fi in surf.faces_at(vid)}
    ordered = {fi for fi, f in enumerate(surf.faces) if f._cyclic is not None}
    assert ordered <= near < set(range(len(surf.faces)))


def test_lazy_face_order_matches_eager(surf3):
    chart = surf3.points4[:, :3] / surf3.points4[:, 3:4]
    for f in surf3.faces:
        assert f.ids == sorted(f.vertex_ids)
        assert f.vertex_ids == _cyclic_face_order(chart, f.ids)


def test_faces_at_matches_ordered_incidence(surf3):
    incidence = {}
    for fi, f in enumerate(surf3.faces):
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
    _build_star(small, 0)
    with pytest.raises(GeometryError):
        fuchsian._certified_star(small, 0)
    assert _certified_hull(cfg, 5.0).radius == R0


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


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(n=st.integers(1, 3), level=st.floats(0.55, 0.95),
       offsets=st.lists(st.floats(-0.08, 0.08), min_size=3, max_size=3))
def test_certified_stars_match_wider_oracle(group, n, level, offsets):
    cfg = config(group, THREE_RAYS[:n], heights=level + np.array(offsets[:n]))
    surf = orbit_hull(cfg)
    oracle = _truncated_hull(cfg, surf.radius + 1.5)
    oracle.stars = [_build_star(oracle, vid) for vid in range(n)]
    assert surf.star_combinatorics() == oracle.star_combinatorics()
    assert np.array_equal(curvatures(surf), curvatures(oracle))
    assert surf.check_equivariance()


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

    def singular(surf, require_convex=True):
        calls.append(surf)
        return fuchsian.JacobianMatrix(np.zeros((surf.n, surf.n)), math.inf)

    monkeypatch.setattr(fuchsian, "jacobian", singular)
    cfg = config(group, [(0.25, 0.15)], targets=[-2.0])
    with pytest.raises(ConvergenceError):
        solve_prescribed_curvature(cfg)
    # the first singular Jacobian ends the solve: no retry reassembles it
    assert len(calls) == 1


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
        pole = Q_ADS * _cross4(df.vertices[0], df.vertices[1], df.vertices[2])
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
        total = sum(f.area(HyperbolicOps) for f in T.white) + sum(
            f.area(HyperbolicOps) for f in T.black
        )
        assert total == pytest.approx(4 * np.pi, abs=1e-6)


def test_projection_black_faces_are_links(surf2):
    # black face areas equal minus the curvatures (polar link areas)
    T = ads_project(surf2, Side.LEFT)
    k = curvatures(surf2)
    for i, b in enumerate(T.black):
        assert b.area(HyperbolicOps) == pytest.approx(-k[i], abs=1e-8)


def test_symmetric_tiling_spectra(surf1, surf2):
    for surf in (surf1, surf2):
        Tr = ads_project(surf, Side.LEFT)
        Tl = ads_project(surf, Side.RIGHT)
        for br, bl in zip(Tr.black, Tl.black):
            np.testing.assert_allclose(
                np.sort(br.edge_lengths(HyperbolicOps)),
                np.sort(bl.edge_lengths(HyperbolicOps)),
                atol=1e-7,
            )


def test_induced_cone_metric_hyperbolic(surf2):
    from flipkit.fuchsian import induced_cone_metric

    m = induced_cone_metric(surf2)
    assert m.curvature == -1
    assert np.all(m.cone_angles() > 2 * np.pi)
    np.testing.assert_allclose(
        m.singular_curvatures(), curvatures(surf2), atol=1e-12
    )


def test_recover_heights_round_trip(surf2):
    T = ads_project(surf2, Side.LEFT)
    h = recover_heights(T)
    np.testing.assert_allclose(h, surf2.heights, atol=1e-9)


def test_projection_and_flip_match_golden(surf2):
    T = ads_project(surf2, Side.LEFT)
    text = fio.canonical_json(
        {"projected": fio.tiling_to_dict(T), "flipped": fio.tiling_to_dict(flip(T))}
    )
    with open(GOLDEN_N2) as fh:
        assert text + "\n" == fh.read()


def test_hyperbolic_flip_round_trip(surf1, surf2):
    for surf in (surf1, surf2):
        T = ads_project(surf, Side.LEFT)
        F = flip(T)
        assert F.handedness is Side.LEFT
        assert validate_tiling(F).ok
        FF = flip(F)
        assert tiling_equality_error(T, FF) < 1e-7


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
