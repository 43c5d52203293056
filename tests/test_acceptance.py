"""Acceptance suite: one property-based criterion per test, one line each.

Run with `pytest tests/test_acceptance.py -s` to see the PASS lines with
their measured errors and timings.
"""

import math
import time

import numpy as np
import pytest

from conftest import corner_angles, edge_lengths, polyhedron_corpus
from flipkit.errors import GeometryError
from flipkit.fuchsian import (
    FuchsianConfig,
    ads_project,
    curvatures,
    genus2_group,
    jacobian,
    minkowski_dual,
    orbit_hull,
    solve_prescribed_curvature,
    sph_star_cone_angles,
    sph_star_jacobian,
    star_polyhedron,
)
from flipkit.polyhedra import ConvexPolyhedron, polar_dual
from flipkit.spheremath import HyperbolicOps, SphereOps
from flipkit.tilings import (
    BLACK,
    Side,
    black_metric,
    flip,
    project,
    polyhedron_isometry_error,
    tiling_equality_error,
    validate_tiling,
    white_polyhedron,
)
from reference_geometry import (
    DegenerateTriangleError,
    ads_partials,
    ads_solve,
    cone_angles_fixed_combinatorics,
    hs2_laws,
    hs2_partial_a_b,
    polygon_congruent,
    segments,
    sph_partials,
    sph_solve,
    tiling_isometry_error,
)

FD_STEP = 1e-5


@pytest.fixture(scope="module")
def corpus():
    return polyhedron_corpus(seed=20240817, count=100, sizes=(6, 14))


@pytest.fixture(scope="module")
def group():
    return genus2_group()


def lift(xy):
    return np.array([xy[0], xy[1], math.sqrt(1.0 + xy[0] ** 2 + xy[1] ** 2)])


@pytest.fixture(scope="module")
def solved(group):
    """Solved surfaces for n = 1, 2, 3 with fixed random targets in K(n)."""
    rng = np.random.default_rng(99)
    rays = {
        1: [(0.25, 0.15)],
        2: [(0.3, 0.1), (-0.4, 0.35)],
        3: [(0.3, 0.1), (-0.4, 0.35), (0.05, -0.55)],
    }
    out = {}
    for n, pts in rays.items():
        while True:
            k = -rng.uniform(0.5, 3.5, size=n)
            if np.sum(k) > -4 * np.pi + 0.5:
                break
        cfg = FuchsianConfig(group, np.array([lift(q) for q in pts]), targets=k)
        out[n] = (cfg, solve_prescribed_curvature(cfg))
    return out


def report(num, name, status, detail, elapsed):
    print(f"ACCEPTANCE {num:>2} [{name}]: {status} ({detail}, {elapsed:.1f}s)")


def test_criterion_1_duality_involution(corpus):
    t0 = time.time()
    worst_vertex = 0.0
    worst_edge = 0.0
    for P in corpus:
        D = polar_dual(P)
        DD = polar_dual(D)
        assert DD.n_vertices == P.n_vertices
        for v in P.vertices:
            worst_vertex = max(
                worst_vertex, float(np.min(np.linalg.norm(DD.vertices - v, axis=1)))
            )
        dual_edges = {(e[0], e[1]) for e in D.edges}
        for e in P.edges:
            da = int(np.argmin(np.linalg.norm(D.vertices - P.face_poles[e[2]], axis=1)))
            db = int(np.argmin(np.linalg.norm(D.vertices - P.face_poles[e[3]], axis=1)))
            assert (min(da, db), max(da, db)) in dual_edges
            length = SphereOps.dist(D.vertices[da], D.vertices[db])
            worst_edge = max(worst_edge, abs(length - P.exterior_dihedral(e)))
    elapsed = time.time() - t0
    ok = worst_vertex <= 1e-9 and worst_edge <= 1e-9
    report(1, "duality involution", "PASS" if ok else "FAIL",
           f"vertex err {worst_vertex:.2e}, edge-vs-dihedral err {worst_edge:.2e}",
           elapsed)
    assert ok


def test_criterion_2_projection_correspondence(corpus):
    t0 = time.time()
    worst_area = 0.0
    for P in corpus:
        T = project(P, Side.LEFT)
        worst_area = max(worst_area, abs(T.total_area() - 4 * np.pi))
        for fi in range(P.n_faces):
            fp = P.face_polygon(fi)
            wf = T.white[fi]
            assert polygon_congruent(
                edge_lengths(SphereOps, fp.vertices), corner_angles(SphereOps, fp.vertices),
                edge_lengths(SphereOps, wf.vertices), corner_angles(SphereOps, wf.vertices),
                tol=1e-8,
            )
        for vi in range(P.n_vertices):
            link = P.polar_link(vi)
            bf = T.black[vi]
            assert polygon_congruent(
                edge_lengths(SphereOps, link.vertices), corner_angles(SphereOps, link.vertices),
                edge_lengths(SphereOps, bf.vertices), corner_angles(SphereOps, bf.vertices),
                tol=1e-8,
            )
    elapsed = time.time() - t0
    ok = worst_area <= 1e-8
    report(2, "projection correspondence", "PASS" if ok else "FAIL",
           f"spectra congruent, area budget err {worst_area:.2e}", elapsed)
    assert ok


def test_criterion_3_flip_involution(corpus):
    t0 = time.time()
    worst = 0.0
    for P in corpus:
        T = project(P, Side.LEFT)
        F = flip(T)
        assert F.handedness is Side.LEFT
        for ei in range(len(F.edges)):
            for s in segments(F.edges, ei):
                if s.color == BLACK:
                    expected = "forward" if s.side is Side.LEFT else "backward"
                    assert s.position == expected
        FF = flip(F)
        worst = max(worst, tiling_isometry_error(T, FF))
    elapsed = time.time() - t0
    ok = worst <= 1e-7
    report(3, "flip involution", "PASS" if ok else "FAIL",
           f"flip.flip isometry err {worst:.2e}", elapsed)
    assert ok


def test_criterion_4_reconstruction_round_trip(corpus):
    t0 = time.time()
    worst = 0.0
    for P in corpus:
        for side in (Side.LEFT, Side.RIGHT):
            Q = white_polyhedron(project(P, side))
            worst = max(worst, polyhedron_isometry_error(P, Q))
    elapsed = time.time() - t0
    ok = worst <= 1e-8
    report(4, "reconstruction round trip", "PASS" if ok else "FAIL",
           f"vertex err after alignment {worst:.2e}", elapsed)
    assert ok


def test_criterion_5_black_metric_law(corpus):
    t0 = time.time()
    worst = 0.0
    for P in corpus[:20]:
        T = project(P, Side.LEFT)
        m = black_metric(T)
        wa = T.white_areas()
        assert len(m.cone_points) == len(T.white)
        for c in m.cone_points:
            worst = max(worst, abs(c.angle - (2 * np.pi - wa[c.associated_face])))
    elapsed = time.time() - t0
    ok = worst <= 1e-8
    report(5, "black/white metric law", "PASS" if ok else "FAIL",
           f"cone angle vs 2pi-area err {worst:.2e}", elapsed)
    assert ok


def test_criterion_6_trig_kernels():
    t0 = time.time()
    rng = np.random.default_rng(6)
    h = FD_STEP
    worst = 0.0

    def rel(a, b):
        return abs(a - b) / max(abs(b), 1.0)

    count = 0
    while count < 1000:
        a, c = rng.uniform(0.2, 2.6, 2)
        beta = rng.uniform(0.2, 2.9)
        try:
            t = sph_solve(a, c, beta)
            if not (0.2 < t.b < 2.9 and min(t.alpha, t.gamma) > 0.1):
                continue
            db, da_, dc_ = sph_partials(a, c, beta)
        except DegenerateTriangleError:
            continue
        fd_b = (sph_solve(a + h, c, beta).b - sph_solve(a - h, c, beta).b) / (2 * h)
        fd_a = (sph_solve(a + h, c, beta).alpha - sph_solve(a - h, c, beta).alpha) / (2 * h)
        fd_c = (sph_solve(a, c + h, beta).alpha - sph_solve(a, c - h, beta).alpha) / (2 * h)
        worst = max(worst, rel(db, fd_b), rel(da_, fd_a), rel(dc_, fd_c))
        count += 1

    count = 0
    while count < 1000:
        a, c = rng.uniform(1.6, 3.0, 2)
        beta = rng.uniform(0.1, 2.2)
        try:
            t = ads_solve(a, c, beta)
            if not 0.2 < t.b < 3.0:
                continue
            d_da, d_dc, _ = ads_partials(a, c, beta)
            iso = ads_partials(a, a, beta)[2]
        except DegenerateTriangleError:
            continue
        fd_a = (ads_solve(a + h, c, beta).alpha - ads_solve(a - h, c, beta).alpha) / (2 * h)
        fd_c = (ads_solve(a, c + h, beta).alpha - ads_solve(a, c - h, beta).alpha) / (2 * h)
        fd_iso = (ads_solve(a + h, a + h, beta).alpha - ads_solve(a - h, a - h, beta).alpha) / (2 * h)
        worst = max(worst, rel(d_da, fd_a), rel(d_dc, fd_c), rel(iso, fd_iso))
        count += 1

    count = 0
    while count < 1000:
        b, c = rng.uniform(0.1, 2.0, 2)
        alpha = rng.uniform(0.2, 2.9)
        try:
            t = hs2_laws(b, c, alpha)
            if not 0.2 < t.a < 2.9:
                continue
            pa = hs2_partial_a_b(b, c, alpha)
        except DegenerateTriangleError:
            continue
        fd = (hs2_laws(b + h, c, alpha).a - hs2_laws(b - h, c, alpha).a) / (2 * h)
        worst = max(worst, rel(pa, fd))
        count += 1

    elapsed = time.time() - t0
    ok = worst <= 1e-6
    report(6, "trig kernels", "PASS" if ok else "FAIL",
           f"max rel FD err {worst:.2e} over 3x1000 triangles", elapsed)
    assert ok


def test_criterion_7_jacobian_assembly(group, solved):
    t0 = time.time()
    worst_fd = 0.0
    all_dominant = True
    all_neg = True
    for n, (cfg, result) in solved.items():
        surf = result["surface"]
        Jm = jacobian(surf)
        J = Jm.matrix
        all_dominant = all_dominant and Jm.is_diagonally_dominant()
        off = J[~np.eye(n, dtype=bool)]
        if off.size:
            all_neg = all_neg and bool(np.all(off < 0))
        fd = np.zeros((n, n))
        hgt = surf.heights
        for j in range(n):
            hp, hm = hgt.copy(), hgt.copy()
            hp[j] += FD_STEP
            hm[j] -= FD_STEP
            fd[:, j] = (
                cone_angles_fixed_combinatorics(surf, hp)
                - cone_angles_fixed_combinatorics(surf, hm)
            ) / (2 * FD_STEP)
        worst_fd = max(worst_fd, float(np.max(np.abs(J - fd) / np.maximum(np.abs(fd), 1e-8))))

    # spherical star polyhedra: positive off-diagonal entries, FD match
    rng = np.random.default_rng(77)
    all_pos = True
    stars = 0
    while stars < 3:
        t = rng.normal(size=(8, 3))
        t /= np.linalg.norm(t, axis=1, keepdims=True)
        hts = rng.uniform(0.5, 0.9, size=8)
        try:
            P, order = star_polyhedron(t, hts)
        except GeometryError:
            continue
        stars += 1
        J = sph_star_jacobian(P, order).matrix
        off = J - np.diag(np.diag(J))
        all_pos = all_pos and bool(np.all(off[np.abs(off) > 1e-12] > 0))

        def omegas(hv):
            pts = np.hstack([np.cos(hv)[:, None], np.sin(hv)[:, None] * t])
            newverts = np.array([pts[order[i]] for i in range(P.n_vertices)])
            Q = ConvexPolyhedron(newverts, P.faces, P.face_poles, P.interior,
                                 validate=False)
            return sph_star_cone_angles(Q, order)

        fd = np.zeros((8, 8))
        for j in range(8):
            hp, hm = hts.copy(), hts.copy()
            hp[j] += FD_STEP
            hm[j] -= FD_STEP
            fd[:, j] = (omegas(hp) - omegas(hm)) / (2 * FD_STEP)
        worst_fd = max(worst_fd, float(np.max(np.abs(J - fd) / np.maximum(np.abs(fd), 1e-8))))

    elapsed = time.time() - t0
    ok = worst_fd <= 1e-5 and all_dominant and all_neg and all_pos
    report(7, "jacobian assembly", "PASS" if ok else "FAIL",
           f"FD rel err {worst_fd:.2e}, dominance {all_dominant}, "
           f"AdS off-diag<0 {all_neg}, star off-diag>0 {all_pos}", elapsed)
    assert ok


def test_criterion_8_prescribed_curvature_solver(group, solved):
    t0 = time.time()
    worst_res = max(result["residual"] for _, result in solved.values())

    # n = 1 against an independent bisection oracle
    cfg1, result1 = solved[1]
    target = cfg1.targets[0]

    def k_of(hval):
        return curvatures(orbit_hull(cfg1.with_heights([hval])))[0]

    lo, hi = 0.02, math.pi / 2 - 0.02
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if k_of(mid) > target:
            lo = mid
        else:
            hi = mid
    bisect_err = abs(result1["heights"][0] - 0.5 * (lo + hi))

    # uniqueness probe: 10 random restarts agree to 1e-6
    cfg2, result2 = solved[2]
    rng = np.random.default_rng(13)
    spread = 0.0
    for _ in range(10):
        out = solve_prescribed_curvature(cfg2, h0=rng.uniform(0.3, 1.2, size=2))
        spread = max(spread, float(np.max(np.abs(out["heights"] - result2["heights"]))))

    # rejected targets
    rejected = 0
    try:
        FuchsianConfig(group, cfg1.rays, targets=np.array([0.1]))
    except GeometryError:
        rejected += 1
    try:
        FuchsianConfig(group, cfg2.rays, targets=np.array([-9.0, -4.0]))
    except GeometryError:
        rejected += 1

    elapsed = time.time() - t0
    ok = worst_res <= 1e-8 and bisect_err <= 1e-8 and spread <= 1e-6 and rejected == 2
    report(8, "prescribed-curvature solver", "PASS" if ok else "FAIL",
           f"residual {worst_res:.2e}, bisection err {bisect_err:.2e}, "
           f"restart spread {spread:.2e}, rejections {rejected}/2", elapsed)
    assert ok


def test_criterion_9_minkowski_dual(solved):
    t0 = time.time()
    worst = 0.0
    for n, (cfg, result) in solved.items():
        duals, ks = minkowski_dual(result["surface"])
        for df in duals:
            worst = max(worst, abs(df.area() + ks[df.ray_index]))
    elapsed = time.time() - t0
    ok = worst <= 1e-7
    report(9, "dual face areas", "PASS" if ok else "FAIL",
           f"area vs -k err {worst:.2e}", elapsed)
    assert ok


def test_criterion_10_symmetric_tiling(solved):
    t0 = time.time()
    worst_spec = 0.0
    worst_flip = 0.0
    for n, (cfg, result) in solved.items():
        surf = result["surface"]
        Tr = ads_project(surf, Side.LEFT)
        Tl = ads_project(surf, Side.RIGHT)
        for br, bl in zip(Tr.black, Tl.black):
            sr = np.sort(edge_lengths(HyperbolicOps, br.vertices))
            sl = np.sort(edge_lengths(HyperbolicOps, bl.vertices))
            worst_spec = max(worst_spec, float(np.max(np.abs(sr - sl))))
        FF = flip(flip(Tr))
        worst_flip = max(worst_flip, tiling_equality_error(Tr, FF))
    elapsed = time.time() - t0
    ok = worst_spec <= 1e-7 and worst_flip <= 1e-7
    report(10, "symmetric tiling + hyperbolic flip", "PASS" if ok else "FAIL",
           f"left/right spectra err {worst_spec:.2e}, flip.flip err {worst_flip:.2e}",
           elapsed)
    assert ok
