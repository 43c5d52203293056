"""The quadric primitives of `flipkit.spheremath` on all four quadrics.

Properties over generated rows: unit tangents are orthogonal to their base
point under the form, geodesics on S^2 and H^2 are parametrized by arc
length, and the octant triangle of S^2 has area pi/2.

The formulas the four instances replaced are kept here as references: the
former `SphereOps` and `HyperbolicOps` classes for S^2 and H^2, and the
star kernel of `fuchsian` (`_unit_tangents`, `_angles`, `polygon_angles`
and the star geometry built from them) for S^3 and AdS_3.  The instances
must give their bits, row for row; the AdS_3 stars and faces are those of
the surf1..3 surfaces of the fuchsian tests.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipkit.errors import GeometryError
from flipkit.fuchsian import genus2_group, minkowski_dual, star_geometry
from flipkit.spheremath import ADS_STAR, SPHERE_STAR, HyperbolicOps, SphereOps
from reference_geometry import FaceRecord, star_records
from test_fuchsian import FIXTURES, fixture_surface, random_star

QUADRICS = {"S2": SphereOps, "H2": HyperbolicOps, "S3": SPHERE_STAR, "AdS3": ADS_STAR}
SEEDS = st.integers(0, 2 ** 32 - 1)


def sphere_points(rng, m, dim):
    x = rng.normal(size=(m, dim))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def hyperboloid_points(rng, m):
    xy = rng.normal(size=(m, 2))
    return np.column_stack([xy, np.sqrt(1.0 + np.sum(xy * xy, axis=1))])


def ads_points(rng, m):
    """(cos h P, sin h) above points P of H^2 at heights h in (0, pi/2), as
    the orbit points of a Fuchsian surface."""
    h = rng.uniform(0.05, 1.5, size=m)
    return np.column_stack([np.cos(h)[:, None] * hyperboloid_points(rng, m), np.sin(h)])


POINTS = {
    "S2": lambda rng, m: sphere_points(rng, m, 3),
    "H2": hyperboloid_points,
    "S3": lambda rng, m: sphere_points(rng, m, 4),
    "AdS3": ads_points,
}


# -- the former formulas --------------------------------------------------------


class FormerSphereOps:
    """The former `SphereOps`."""

    @staticmethod
    def inner(u, v):
        return np.vecdot(np.ascontiguousarray(u), np.ascontiguousarray(v))

    @classmethod
    def dist(cls, u, v):
        return np.arccos(np.clip(cls.inner(u, v), -1.0, 1.0))

    @classmethod
    def tangents(cls, u, v):
        w = v - cls.inner(u, v)[..., None] * u
        n = np.sqrt(cls.inner(w, w))
        with np.errstate(divide="ignore", invalid="ignore"):
            return w / n[..., None], ~(n < 1e-13)

    @staticmethod
    def geodesic(p, t, s):
        return np.cos(s) * p + np.sin(s) * t

    @classmethod
    def geodesic_param(cls, p, t, x):
        return np.arctan2(cls.inner(x, t), cls.inner(x, p))

    @classmethod
    def geodesic_normal(cls, p, q):
        n = np.cross(p, q)
        norm = np.sqrt(cls.inner(n, n))
        if np.any(norm < 1e-13):
            raise GeometryError("geodesic through (anti)podal points is not unique")
        return n / norm[..., None]


class FormerHyperbolicOps:
    """The former `HyperbolicOps`."""

    Q = np.array([1.0, 1.0, -1.0])

    @classmethod
    def inner(cls, u, v):
        return np.sum(u * v * cls.Q, axis=-1)

    @classmethod
    def dist(cls, u, v):
        return np.arccosh(np.maximum(-cls.inner(u, v), 1.0))

    @classmethod
    def tangents(cls, u, v):
        w = v + cls.inner(u, v)[..., None] * u
        n = cls.inner(w, w)
        with np.errstate(divide="ignore", invalid="ignore"):
            return w / np.sqrt(n)[..., None], ~(n < 1e-26)

    @staticmethod
    def geodesic(p, t, s):
        return np.cosh(s) * p + np.sinh(s) * t

    @classmethod
    def geodesic_param(cls, p, t, x):
        return np.arcsinh(cls.inner(x, t))

    @classmethod
    def geodesic_normal(cls, p, q):
        n = cls.Q * np.cross(p, q)
        norm2 = cls.inner(n, n)
        if np.any(norm2 < 1e-26):
            raise GeometryError("degenerate geodesic")
        return n / np.sqrt(norm2)[..., None]


FORMER = {"S2": (FormerSphereOps, 1), "H2": (FormerHyperbolicOps, -1)}


def former_angle(ops, u, a, b):
    (ta, da), (tb, db) = ops.tangents(u, a), ops.tangents(u, b)
    assert np.all(da) and np.all(db)
    return np.arccos(np.clip(ops.inner(ta, tb), -1.0, 1.0))


def cycle_sum(angles):
    """The corner angles summed in cycle order, one after the other."""
    total = 0.0
    for a in np.asarray(angles).tolist():
        total += a
    return total


def former_area(curvature, angles):
    return float(curvature * (cycle_sum(angles) - (len(angles) - 2) * np.pi))


# the former star kernel: (form, kappa, apex, length, apex angle) per quadric
FORMER_STAR = {
    "S3": (np.ones(4), 1.0, np.array([1.0, 0.0, 0.0, 0.0]),
           lambda c: np.arccos(np.clip(c, -1.0, 1.0)),
           lambda s: np.arcsin(np.clip(s, -1.0, 1.0))),
    "AdS3": (np.array([1.0, 1.0, -1.0, -1.0]), -1.0, np.array([0.0, 0.0, 0.0, -1.0]),
             lambda c: np.arccosh(np.maximum(c, 1.0)), np.arcsinh),
}


def former_inner(u, v, form):
    return np.sum(u * v * form, axis=-1)


def former_unit_tangents(at, toward, ip, form, kappa, sign=1.0):
    w = toward - (kappa * ip)[..., None] * at
    q = sign * former_inner(w, w, form)
    if np.any(q <= 1e-26):
        raise GeometryError("tangent direction is degenerate or of the wrong type")
    return w / np.sqrt(q)[..., None]


def former_angles(ta, tb, form):
    return np.arccos(np.clip(former_inner(ta, tb, form), -1.0, 1.0))


def former_polygon_angles(pts):
    form, kappa = FORMER_STAR["AdS3"][:2]
    prev, nxt = np.roll(pts, 1, axis=0), np.roll(pts, -1, axis=0)
    ta = former_unit_tangents(pts, prev, former_inner(pts, prev, form), form, kappa)
    tb = former_unit_tangents(pts, nxt, former_inner(pts, nxt, form), form, kappa)
    return former_angles(ta, tb, form)


def former_star_geometry(x, ys, name):
    form, kappa, apex, length, apex_angle = FORMER_STAR[name]

    def apex_tangents(pts):
        return former_unit_tangents(pts, apex, former_inner(apex, pts, form), form,
                                    kappa, kappa)

    ip = former_inner(x, ys, form)
    t = former_unit_tangents(x, ys, ip, form, kappa)
    omega = former_angles(t, np.roll(t, -1, axis=0), form)
    rho_x = apex_angle(former_inner(apex_tangents(x[None]), t, form))
    back = former_unit_tangents(ys, x, ip, form, kappa)
    rho_s = apex_angle(former_inner(apex_tangents(ys), back, form))
    return length(kappa * ip), rho_x, rho_s, omega


def assert_bits(new, old):
    for a, b in zip(new, old):
        assert np.array_equal(a, b, equal_nan=True)


# -- properties -------------------------------------------------------------------


@settings(max_examples=20)
@given(seed=SEEDS)
@pytest.mark.parametrize("name", sorted(QUADRICS))
def test_unit_tangents_are_orthogonal_to_their_base(name, seed):
    ops, rng = QUADRICS[name], np.random.default_rng(seed)
    x, y = POINTS[name](rng, 40), POINTS[name](rng, 40)
    pairs = [(ops.tangents(x, y), 1)]
    if ops.apex is not None:  # the apex direction is time-like on AdS_3
        pairs.append((ops.tangents(x, ops.apex, ops.kappa), ops.kappa))
    for (t, defined), sign in pairs:
        assert defined.any()
        t, base = t[defined], x[defined]
        np.testing.assert_allclose(ops.inner(base, t), 0.0, atol=1e-10)
        np.testing.assert_allclose(sign * ops.inner(t, t), 1.0, rtol=1e-12)


@settings(max_examples=20)
@given(seed=SEEDS, s=st.floats(-3.0, 3.0))
@pytest.mark.parametrize("name", ["S2", "H2"])
def test_geodesics_have_unit_speed(name, seed, s):
    ops, rng = QUADRICS[name], np.random.default_rng(seed)
    p = POINTS[name](rng, 20)
    t = ops.tangent(p, POINTS[name](rng, 20))
    x = ops.geodesic(p, t, s)
    np.testing.assert_allclose(ops.dist(p, x), abs(s), atol=1e-7)
    np.testing.assert_allclose(ops.geodesic_param(p, t, x), s, atol=1e-9)


def test_octant_triangle_area():
    octant = np.eye(3)
    assert SphereOps.polygon_area(octant) == pytest.approx(np.pi / 2, abs=1e-12)
    # stacked with its antipode, corners in either cycle direction
    angles = SphereOps.corner_angles(np.vstack([octant, -octant[::-1]]), [3, 3])
    np.testing.assert_allclose(SphereOps.polygon_areas(angles, [3, 3]), np.pi / 2, atol=1e-12)


# -- against the former formulas -----------------------------------------------------


@settings(max_examples=20)
@given(seed=SEEDS)
@pytest.mark.parametrize("name", ["S2", "H2"])
def test_surface_ops_keep_the_former_bits(name, seed):
    ops, (former, curvature) = QUADRICS[name], FORMER[name]
    rng = np.random.default_rng(seed)
    x, y, z = (POINTS[name](rng, 40) for _ in range(3))
    y[:3] = x[:3]  # coincident points: no tangent direction
    if name == "S2":
        y[3:6] = -x[3:6]  # antipodal points: none either
    for f in ("inner", "dist"):
        assert np.array_equal(getattr(ops, f)(x, y), getattr(former, f)(x, y))
    assert_bits(ops.tangents(x, y), former.tangents(x, y))
    t, ok = former.tangents(x, y)
    ok &= former.tangents(x, z)[1]
    s = rng.uniform(-3.0, 3.0, size=(40, 1))
    assert np.array_equal(ops.geodesic(x, t, s), former.geodesic(x, t, s), equal_nan=True)
    x, y, z, t = x[ok], y[ok], z[ok], t[ok]
    assert np.array_equal(ops.geodesic_param(x, t, z), former.geodesic_param(x, t, z))
    assert np.array_equal(ops.geodesic_normal(x, y), former.geodesic_normal(x, y))
    assert np.array_equal(ops.angle(x, y, z), former_angle(former, x, y, z))
    polygon = x[:6]
    angles = former_angle(former, polygon, np.roll(polygon, 1, axis=0),
                          np.roll(polygon, -1, axis=0))
    assert np.array_equal(ops.corner_angles(polygon, [6]), angles)
    assert ops.polygon_area(polygon) == former_area(curvature, angles)


@pytest.mark.parametrize("name", ["S2", "H2"])
def test_degenerate_geodesic_normal_raises(name):
    p = POINTS[name](np.random.default_rng(0), 3)
    for q in ([p, -p] if name == "S2" else [p]):
        with pytest.raises(GeometryError):
            QUADRICS[name].geodesic_normal(p, q)


@settings(max_examples=20)
@given(seed=SEEDS)
@pytest.mark.parametrize("name", ["S3", "AdS3"])
def test_star_quadrics_keep_the_former_bits(name, seed):
    ops, (form, kappa) = QUADRICS[name], FORMER_STAR[name][:2]
    rng = np.random.default_rng(seed)
    x, y, z = (POINTS[name](rng, 40) for _ in range(3))
    ok = ops.tangents(x, y)[1] & ops.tangents(x, z)[1]
    x, y, z = x[ok], y[ok], z[ok]
    ta = former_unit_tangents(x, y, former_inner(x, y, form), form, kappa)
    tb = former_unit_tangents(x, z, former_inner(x, z, form), form, kappa)
    assert np.array_equal(ops.tangent(x, y), ta)
    assert np.array_equal(ops.angle(x, y, z), former_angles(ta, tb, form))
    assert np.array_equal(ops.dist(x, y), FORMER_STAR[name][3](kappa * former_inner(x, y, form)))
    with pytest.raises(GeometryError, match="degenerate or of the wrong type"):
        ops.tangent(x[:1], x[:1])


@settings(max_examples=10)
@given(seed=SEEDS)
def test_sphere_star_geometry_keeps_the_former_bits(seed):
    _, _, P, _ = random_star(np.random.default_rng(seed))
    for i, star in enumerate(star_records(P.stars)):
        x, ys = P.vertices[star.vertex], P.vertices[star.neighbors]
        assert_bits(star_geometry(P.stars[i], P.vertices, SPHERE_STAR),
                    former_star_geometry(x, ys, "S3"))


@pytest.fixture(scope="module")
def surfaces():
    group = genus2_group()
    return [fixture_surface(group, name) for name in sorted(FIXTURES)]


def test_ads_star_geometry_and_areas_keep_the_former_bits(surfaces):
    for surf in surfaces:
        for i, star in enumerate(star_records(surf.stars)):
            x, ys = surf.points4[star.vertex], surf.points4[star.neighbors]
            assert_bits(star_geometry(surf.stars[i], surf.points4),
                        former_star_geometry(x, ys, "AdS3"))
        for fi in sorted(set(surf.stars.wedge_face.tolist())):
            pts = surf.points4[FaceRecord(surf, fi).vertex_ids]
            angles = former_polygon_angles(pts)
            assert np.array_equal(ADS_STAR.corner_angles(pts, [len(pts)]), angles)
            assert surf.face_area(fi) == former_area(-1, angles)
        for df in minkowski_dual(surf)[0]:
            assert df.area() == former_area(-1, former_polygon_angles(df.vertices))
