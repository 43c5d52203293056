"""Bilinear forms, group structure and duality on the two quadrics."""

from functools import partial

import numpy as np
import pytest

from flipkit.errors import GeometryError, SignatureMismatchError
from flipkit.forms import cross4, inv4, mul4
from flipkit.spheremath import ADS_STAR, SPHERE_STAR, HyperbolicOps, SphereOps
from reference_geometry import (
    AngleKind,
    DualPlane,
    LightLikeError,
    Minkowski,
    QuadricPoint,
    Signature,
    canonical_ads_rep,
    dual,
    form,
    group_inv,
    group_mul,
    hs_angle,
    pseudo_norm,
    reference_cross4,
)

RNG = np.random.default_rng(20240817)

# the group of each star quadric, through the library's mul4 / inv4
SPHERE_E, ADS_E = SPHERE_STAR.e, ADS_STAR.e
mul4_sphere, inv4_sphere = partial(mul4, star=SPHERE_STAR), partial(inv4, star=SPHERE_STAR)
mul4_ads, inv4_ads = partial(mul4, star=ADS_STAR), partial(inv4, star=ADS_STAR)


def random_sphere_point():
    v = RNG.normal(size=4)
    return v / np.linalg.norm(v)


def random_ads_point():
    # Rejection sample a time-like vector for the (+,+,-,-) form.
    while True:
        v = RNG.normal(size=4)
        q = form(v, v, Signature.ADS)
        if q < -0.1:
            return v / np.sqrt(-q)


def test_form_unit_vectors():
    assert form((1, 0, 0, 0), (1, 0, 0, 0), Signature.SPHERE) == 1.0
    assert form((0, 0, 0, 1), (0, 0, 0, 1), Signature.ADS) == -1.0


def test_form_matches_componentwise_sum():
    for _ in range(50):
        u = RNG.normal(size=4)
        v = RNG.normal(size=4)
        expected = u[0] * v[0] + u[1] * v[1] - u[2] * v[2] - u[3] * v[3]
        assert form(u, v, Signature.ADS) == pytest.approx(expected, abs=1e-14)


def test_form_rejects_wrong_dimension():
    with pytest.raises(SignatureMismatchError):
        form((1, 0, 0), (0, 1, 0), Signature.SPHERE)


def test_mink21_three_coordinate_form():
    # (+,-,-) on 3 coordinates, the reduction used by the planar kernels
    assert form((1, 0, 0), (1, 0, 0), Minkowski.MINK21) == 1.0
    assert form((0, 1, 0), (0, 1, 0), Minkowski.MINK21) == -1.0
    u, v = RNG.normal(size=3), RNG.normal(size=3)
    expected = u[0] * v[0] - u[1] * v[1] - u[2] * v[2]
    assert form(u, v, Minkowski.MINK21) == pytest.approx(expected, abs=1e-14)
    with pytest.raises(SignatureMismatchError):
        form((1, 0, 0, 0), (1, 0, 0, 0), Minkowski.MINK21)


def su2_oracle_mul(x, y):
    """Multiply through the explicit 2x2 complex matrix picture."""

    def to_mat(v):
        a = v[0] + 1j * v[1]
        b = v[2] + 1j * v[3]
        return np.array([[a, b], [-np.conj(b), np.conj(a)]])

    m = to_mat(x) @ to_mat(y)
    return np.array([m[0, 0].real, m[0, 0].imag, m[0, 1].real, m[0, 1].imag])


def sl2_oracle_mul(x, y):
    def to_mat(v):
        return np.array([[v[1] + v[3], v[0] + v[2]], [v[0] - v[2], v[3] - v[1]]])

    m = to_mat(x) @ to_mat(y)
    return np.array(
        [
            0.5 * (m[0, 1] + m[1, 0]),
            0.5 * (m[0, 0] - m[1, 1]),
            0.5 * (m[0, 1] - m[1, 0]),
            0.5 * (m[0, 0] + m[1, 1]),
        ]
    )


def test_sphere_mul_matches_matrix_oracle():
    for _ in range(50):
        x, y = random_sphere_point(), random_sphere_point()
        np.testing.assert_allclose(mul4_sphere(x, y), su2_oracle_mul(x, y), atol=1e-14)


def test_ads_mul_matches_matrix_oracle():
    for _ in range(50):
        x, y = random_ads_point(), random_ads_point()
        np.testing.assert_allclose(mul4_ads(x, y), sl2_oracle_mul(x, y), atol=1e-12)


def test_sphere_identity_and_square_of_i():
    y = random_sphere_point()
    np.testing.assert_allclose(mul4_sphere(SPHERE_E, y), y, atol=1e-15)
    np.testing.assert_allclose(
        mul4_sphere([0, 1, 0, 0], [0, 1, 0, 0]), [-1, 0, 0, 0], atol=1e-15
    )


def test_ads_identity_element():
    y = random_ads_point()
    np.testing.assert_allclose(mul4_ads(ADS_E, y), y, atol=1e-15)
    np.testing.assert_allclose(inv4_ads(ADS_E), ADS_E, atol=1e-15)


def test_inverse_formulas():
    np.testing.assert_allclose(inv4_sphere([1, 0, 0, 0]), [1, 0, 0, 0])
    np.testing.assert_allclose(inv4_sphere([0, 1, 0, 0]), [0, -1, 0, 0])
    for sig, rand, mul, inv, e in (
        (Signature.SPHERE, random_sphere_point, mul4_sphere, inv4_sphere, SPHERE_E),
        (Signature.ADS, random_ads_point, mul4_ads, inv4_ads, ADS_E),
    ):
        for _ in range(20):
            y = rand()
            np.testing.assert_allclose(mul(y, inv(y)), e, atol=1e-12)


def test_quadricpoint_renormalizes_and_validates():
    p = QuadricPoint(np.array([2.0, 0.0, 0.0, 0.0]), Signature.SPHERE, 1)
    assert form(p.v, p.v, Signature.SPHERE) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(GeometryError):
        QuadricPoint(np.array([1.0, 0, 0, 0]), Signature.ADS, -1)
    with pytest.raises(GeometryError):
        QuadricPoint(np.array([-1.0, 0, 0, 0]), Signature.SPHERE, 1, hemisphere=True)


def test_group_mul_signature_mismatch():
    a = QuadricPoint(SPHERE_E, Signature.SPHERE, 1)
    b = QuadricPoint(ADS_E, Signature.ADS, -1)
    with pytest.raises(SignatureMismatchError):
        group_mul(a, b)
    assert np.allclose(group_mul(a, a).v, SPHERE_E)
    assert np.allclose(group_inv(b).v, ADS_E)


@pytest.mark.parametrize("ops", (SphereOps, HyperbolicOps), ids=("S2", "H2"))
def test_products_refuse_a_quadric_without_group(ops):
    x = np.array([[0.0, 0.0, 1.0]])
    with pytest.raises(SignatureMismatchError, match=f"no group structure on the {ops.name}"):
        mul4(x, x, ops)
    with pytest.raises(SignatureMismatchError):
        inv4(x, ops)


def test_multiplication_is_isometry():
    g = random_sphere_point()
    for _ in range(20):
        u, v = random_sphere_point(), random_sphere_point()
        fo = form(u, v, Signature.SPHERE)
        assert form(
            mul4_sphere(g, u), mul4_sphere(g, v), Signature.SPHERE
        ) == pytest.approx(fo, abs=1e-12)
        assert form(
            mul4_sphere(u, g), mul4_sphere(v, g), Signature.SPHERE
        ) == pytest.approx(fo, abs=1e-12)
    g = random_ads_point()
    for _ in range(20):
        u, v = random_ads_point(), random_ads_point()
        fo = form(u, v, Signature.ADS)
        assert form(mul4_ads(g, u), mul4_ads(g, v), Signature.ADS) == pytest.approx(
            fo, abs=1e-10
        )
        assert form(mul4_ads(u, g), mul4_ads(v, g), Signature.ADS) == pytest.approx(
            fo, abs=1e-10
        )


def test_left_multiplication_maps_dual_planes():
    # <z,y> = 0 implies <xz, xy> = 0.
    for _ in range(20):
        x, y = random_sphere_point(), random_sphere_point()
        z = RNG.normal(size=4)
        z -= form(z, y, Signature.SPHERE) * y  # orthogonal projection onto y*
        assert form(z, y, Signature.SPHERE) == pytest.approx(0, abs=1e-12)
        assert form(
            mul4_sphere(x, z), mul4_sphere(x, y), Signature.SPHERE
        ) == pytest.approx(0, abs=1e-12)


def test_equator_antisymmetry_under_inverse():
    # For x with x1 = 0, <x,y> = -<x, y^{-1}>.
    for _ in range(20):
        x = random_sphere_point()
        x[0] = 0.0
        y = random_sphere_point()
        assert form(x, y, Signature.SPHERE) == pytest.approx(
            -form(x, inv4_sphere(y), Signature.SPHERE), abs=1e-13
        )


def test_dual_round_trip_and_membership():
    p = QuadricPoint(SPHERE_E, Signature.SPHERE, 1, hemisphere=True)
    plane = dual(p)
    assert isinstance(plane, DualPlane)
    assert np.allclose(dual(plane).v, p.v)
    # Rejection-sampled points of the plane pair to zero with the pole.
    for _ in range(40):
        y = RNG.normal(size=4)
        y -= form(y, p.v, Signature.SPHERE) * p.v
        y /= np.linalg.norm(y)
        assert plane.contains(y, tol=1e-12)


def test_ads_dual_of_coordinate_plane():
    n = QuadricPoint(ADS_E, Signature.ADS, -1)
    plane = dual(n)
    for y in ([1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, 1.0, 0]):
        assert plane.contains(y)
    with pytest.raises(GeometryError):
        dual(QuadricPoint(np.array([1.0, 0, 0, 0]), Signature.ADS, 1))


def test_canonical_ads_representative():
    v = np.array([0.0, -2.0, 1.0, 0.5])
    np.testing.assert_allclose(canonical_ads_rep(v), -v)
    np.testing.assert_allclose(canonical_ads_rep(-v), -v)


def test_hs_angle_classification():
    t = np.array([0.0, 0.0, 0.0, 1.0])  # time-like for MINK31
    a = hs_angle(t, t)
    assert a.kind is AngleKind.REAL and a.magnitude == 0.0

    u = np.array([1.0, 0.0, 0.0, 0.0])
    v = np.array([0.0, 1.0, 0.0, 0.0])
    a = hs_angle(u, v)
    assert a.kind is AngleKind.REAL
    assert a.magnitude == pytest.approx(np.pi / 2)

    # Space-like pair spanning a time-like plane, same branch.
    w = np.array([np.cosh(0.7), 0.0, 0.0, np.sinh(0.7)])
    a = hs_angle(u, w)
    assert a.kind is AngleKind.PURE_IMAGINARY
    assert a.magnitude == pytest.approx(0.7, abs=1e-12)
    a = hs_angle(u, -w)
    assert a.kind is AngleKind.PI_MINUS_IMAGINARY
    assert a.magnitude == pytest.approx(0.7, abs=1e-12)


def test_hs_angle_mixed_pair_sinh_relation():
    for _ in range(30):
        u = RNG.normal(size=4)
        qu = form(u, u, Minkowski.MINK31)
        if abs(qu) < 0.1:
            continue
        v = RNG.normal(size=4)
        qv = form(v, v, Minkowski.MINK31)
        if abs(qv) < 0.1 or qu * qv > 0:
            continue
        a = hs_angle(u, v)
        assert a.kind is AngleKind.REAL
        lhs = np.sinh(a.magnitude)
        rhs = abs(form(u, v, Minkowski.MINK31)) / np.sqrt(abs(qu) * abs(qv))
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_hs_angle_light_like_rejected():
    ell = np.array([1.0, 0.0, 0.0, 1.0])
    with pytest.raises(LightLikeError):
        hs_angle(ell, np.array([0.0, 1.0, 0.0, 0.0]))


def test_antisym_norm_flip():
    # With form' = -form_1 the pseudo-norms differ by a factor sqrt(-1),
    # whose branch is fixed per class: a space-like x for form_1 has
    # ||x||_1 = -i ||x||', a time-like one has ||x||_1 = +i ||x||'.
    for _ in range(30):
        u = RNG.normal(size=4)
        q = form(u, u, Minkowski.MINK31)
        if abs(q) < 0.05:
            continue
        n1 = pseudo_norm(u, Minkowski.MINK31)
        qp = -q
        nprime = complex(np.sqrt(qp), 0.0) if qp >= 0 else complex(0.0, np.sqrt(-qp))
        if q > 0:
            assert nprime.real == 0.0 and nprime.imag > 0.0
            assert n1 == pytest.approx(-1j * nprime, abs=1e-12)
        else:
            assert nprime.imag == 0.0 and nprime.real > 0.0
            assert n1 == pytest.approx(1j * nprime, abs=1e-12)


@pytest.mark.parametrize("rows", [10, 237, 2000])
def test_cross4_matches_four_det_calls_bit_for_bit(rows):
    # one det over the stacked minors takes each 3x3 determinant on its
    # own, so every bit, signs of zeros included, is that of four calls
    rng = np.random.default_rng(rows)
    a, b, c = rng.normal(size=(3, rows, 4))
    c[::7] = a[::7]  # singular rows: zero entries keep their signs too
    out, ref = cross4(a, b, c), reference_cross4(a, b, c)
    assert out.shape == (rows, 4)
    assert out.tobytes() == ref.tobytes()
    assert np.array_equal(np.signbit(out), np.signbit(ref))
    assert cross4(a[0], b[0], c[0]).tobytes() == ref[0].tobytes()
