"""Triangle kernels: law consistency, analytic partials vs finite differences."""

import math

import numpy as np
import pytest

from reference_geometry import (
    AdSTimelikeTriangle,
    ConvexityClass,
    DegenerateTriangleError,
    ads_partials,
    ads_solve,
    convexity_sign,
    ds_solve,
    hs2_laws,
    hs2_partial_a_b,
    sph_partials,
    sph_solve,
)

FD_STEP = 1e-5
FD_RTOL = 1e-6
N_SAMPLES = 1000


def central(f, x, h=FD_STEP):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def rel_err(got, ref):
    return abs(got - ref) / max(abs(ref), 1.0)


def sample_sph_triangles(rng, n):
    out = []
    while len(out) < n:
        a, c = rng.uniform(0.2, 2.6, 2)
        beta = rng.uniform(0.2, 2.9)
        try:
            t = sph_solve(a, c, beta)
        except DegenerateTriangleError:
            continue
        if 0.2 < t.b < 2.9 and min(t.alpha, t.gamma) > 0.1:
            out.append((a, c, beta))
    return out


def sample_ads_triangles(rng, n):
    out = []
    while len(out) < n:
        a, c = rng.uniform(1.6, 3.0, 2)
        beta = rng.uniform(0.1, 2.2)
        try:
            t = ads_solve(a, c, beta)
        except DegenerateTriangleError:
            continue
        if 0.2 < t.b < 3.0:
            out.append((a, c, beta))
    return out


def sample_hs2_triangles(rng, n):
    out = []
    while len(out) < n:
        b, c = rng.uniform(0.1, 2.0, 2)
        alpha = rng.uniform(0.2, 2.9)
        try:
            t = hs2_laws(b, c, alpha)
        except DegenerateTriangleError:
            continue
        if 0.2 < t.a < 2.9:
            out.append((b, c, alpha))
    return out


def test_sph_octant_triangle():
    t = sph_solve(math.pi / 2, math.pi / 2, math.pi / 2)
    assert t.b == pytest.approx(math.pi / 2)
    assert t.alpha == pytest.approx(math.pi / 2)
    assert t.gamma == pytest.approx(math.pi / 2)
    db, da, dc = sph_partials(math.pi / 2, math.pi / 2, math.pi / 2)
    assert db == pytest.approx(0.0, abs=1e-12)
    assert da == pytest.approx(1.0)
    assert dc == pytest.approx(0.0, abs=1e-12)


def test_sph_all_three_cosine_laws_hold():
    rng = np.random.default_rng(1)
    for a, c, beta in sample_sph_triangles(rng, 200):
        t = sph_solve(a, c, beta)
        for (s1, s2, s3, ang) in (
            (t.b, t.c, t.a, t.beta),
            (t.a, t.b, t.c, t.alpha),
            (t.c, t.a, t.b, t.gamma),
        ):
            lhs = math.cos(s1)
            rhs = math.cos(s2) * math.cos(s3) + math.sin(s2) * math.sin(s3) * math.cos(ang)
            assert lhs == pytest.approx(rhs, abs=1e-10)


def test_sph_degenerate_inputs_raise():
    with pytest.raises(DegenerateTriangleError):
        sph_solve(1e-12, 1.0, 1.0)
    with pytest.raises(DegenerateTriangleError):
        sph_solve(1.0, 1.0, 1e-10)  # b collapses to 0


def test_sph_small_a_limit():
    t = sph_solve(1e-4, 1.2, 1.0)
    assert t.b == pytest.approx(1.2, abs=1e-3)


def test_sph_partials_match_fd():
    rng = np.random.default_rng(2)
    for a, c, beta in sample_sph_triangles(rng, N_SAMPLES):
        db, dal_a, dal_c = sph_partials(a, c, beta)
        fd_b = central(lambda x: sph_solve(x, c, beta).b, a)
        fd_a = central(lambda x: sph_solve(x, c, beta).alpha, a)
        fd_c = central(lambda x: sph_solve(a, x, beta).alpha, c)
        assert rel_err(db, fd_b) < FD_RTOL
        assert rel_err(dal_a, fd_a) < FD_RTOL
        assert rel_err(dal_c, fd_c) < FD_RTOL


def test_sph_chain_rule_identity():
    # dalpha/da at fixed (c, beta) decomposes through b when alpha is
    # regarded as a function of the three sides.
    rng = np.random.default_rng(3)
    for a, c, beta in sample_sph_triangles(rng, 100):
        t = sph_solve(a, c, beta)
        h = FD_STEP

        def alpha_of_sides(sa, sb, sc):
            ca = (math.cos(sa) - math.cos(sb) * math.cos(sc)) / (
                math.sin(sb) * math.sin(sc)
            )
            return math.acos(min(1.0, max(-1.0, ca)))

        dal_da_sides = (alpha_of_sides(a + h, t.b, c) - alpha_of_sides(a - h, t.b, c)) / (2 * h)
        dal_db_sides = (alpha_of_sides(a, t.b + h, c) - alpha_of_sides(a, t.b - h, c)) / (2 * h)
        db_da = sph_partials(a, c, beta)[0]
        total = dal_da_sides + dal_db_sides * db_da
        assert rel_err(sph_partials(a, c, beta)[1], total) < 1e-4


def test_ds_triangle_laws_and_sine_law():
    rng = np.random.default_rng(4)
    for _ in range(300):
        a, c = rng.uniform(0.3, 2.8, 2)
        beta = rng.uniform(0.05, 2.0)
        try:
            t = ds_solve(a, c, beta)
        except DegenerateTriangleError:
            continue
        for r in t.law_residuals():
            assert abs(r) < 1e-10
        # sine law (cosh at both real angles) and the dual cosine law
        r1 = math.sin(t.a) / math.cosh(t.alpha)
        r2 = math.sinh(t.b) / math.sinh(t.beta)
        r3 = math.sin(t.c) / math.cosh(t.gamma)
        assert r1 == pytest.approx(r2, abs=1e-10)
        assert r2 == pytest.approx(r3, abs=1e-10)
        lhs = math.cosh(t.beta)
        rhs = math.sinh(t.alpha) * math.sinh(t.gamma) + math.cosh(t.alpha) * math.cosh(
            t.gamma
        ) * math.cosh(t.b)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_ads_partials_match_fd():
    rng = np.random.default_rng(5)
    for a, c, beta in sample_ads_triangles(rng, N_SAMPLES):
        d_da, d_dc, _ = ads_partials(a, c, beta)
        fd_a = central(lambda x: ads_solve(x, c, beta).alpha, a)
        fd_c = central(lambda x: ads_solve(a, x, beta).alpha, c)
        assert rel_err(d_da, fd_a) < FD_RTOL
        assert rel_err(d_dc, fd_c) < FD_RTOL


def test_ads_isosceles_partial():
    rng = np.random.default_rng(6)
    count = 0
    for a, c, beta in sample_ads_triangles(rng, 400):
        iso = ads_partials(a, a, beta)[2]
        d_da, d_dc, _ = ads_partials(a, a, beta)
        assert iso == pytest.approx(d_da + d_dc, rel=1e-12)
        fd = central(lambda x: ads_solve(x, x, beta).alpha, a)
        assert rel_err(iso, fd) < FD_RTOL
        assert iso < 0.0  # 1 - cosh b < 0 whenever b > 0
        count += 1
    assert count > 100


def test_ads_degenerate_b_raises():
    with pytest.raises(DegenerateTriangleError):
        ads_solve(2.0, 2.0, 0.0)  # cosh b = 1, b = 0


def test_hs2_flat_case():
    # b = c, alpha = 0: cos a = cosh^2 b - sinh^2 b = 1, so a collapses to 0.
    t = hs2_laws(0.8, 0.8, 0.0)
    assert t.a == pytest.approx(0.0, abs=1e-7)


def test_hs2_partial_matches_fd():
    rng = np.random.default_rng(7)
    for b, c, alpha in sample_hs2_triangles(rng, N_SAMPLES):
        pa = hs2_partial_a_b(b, c, alpha)
        fd = central(lambda x: hs2_laws(x, c, alpha).a, b)
        assert rel_err(pa, fd) < FD_RTOL


def test_hs2_symmetry_swap():
    rng = np.random.default_rng(8)
    for b, c, alpha in sample_hs2_triangles(rng, 100):
        t = hs2_laws(b, c, alpha)
        s = hs2_laws(c, b, alpha)
        assert t.a == pytest.approx(s.a, abs=1e-12)
        assert t.beta == pytest.approx(s.gamma, abs=1e-12)
        assert t.gamma == pytest.approx(s.beta, abs=1e-12)


def test_hs2_out_of_range_rejected():
    # cos a far below -1: no triangle with these data.
    with pytest.raises(DegenerateTriangleError):
        hs2_laws(2.0, 2.0, 3.0)


def test_convexity_classification():
    assert convexity_sign(0.7, -0.7) is ConvexityClass.COPLANAR
    assert convexity_sign(-0.5, -0.5) is ConvexityClass.CONVEX_SIDE
    assert convexity_sign(1.0, -0.5) is ConvexityClass.NOT_CONVEX_SIDE
