"""Row-wise metric primitives of the quadrics flipkit works on.

A `Quadric` is the surface <x, x> = kappa of a diagonal form, with the
curvature sign kappa = +1 or -1 and the trigonometric family of its
geodesics, (cos, sin) or (cosh, sinh).  The one type has four instances:

- `SphereOps`, the unit sphere S^2 of R^3, and `HyperbolicOps`, the upper
  hyperboloid x1^2 + x2^2 - x3^2 = -1, x3 > 0: the surfaces tilings live on;
- `SPHERE_STAR`, the 3-sphere, and `ADS_STAR`, anti-de Sitter space
  x1^2 + x2^2 - x3^2 - x4^2 = -1: the quadrics of spherical star polyhedra
  and Fuchsian surfaces, which carry the apex o their vertex stars look
  back to, and their group: the row-wise product and inverse, the neutral
  element e and the surface quadric of the plane e*, `SphereOps` or
  `HyperbolicOps`, that the left and right projections land in.

Each primitive is written once for all four: the distance, the unit
tangent at x toward y along w = y - kappa <x, y> x, the angle between
tangents, the corner angles of polygons, their Gauss-Bonnet areas, and the
geodesics.

Every helper works row by row: points are arrays whose last axis holds the
coordinates, and a scalar result comes back with the leading shape, so one
call serves one vector or all corners of a tiling.  Each row gets the bits
of the same call on that row alone: the inner product of S^2 is
`np.vecdot` over unit-stride rows, which sums a row as `np.dot` sums one
vector, and that of the other quadrics is the sum of u * v * form over the
last axis.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GeometryError

TINY = 1e-26   # a tangent whose squared length is below this is undefined


@dataclass(frozen=True)
class Trig:
    """A trigonometric family.  C and S are `math` functions of one float,
    cos and sin numpy functions of rows; arc_c and arc_s invert C and S,
    clamped to their range, param(c, s) is the parameter t with
    (C(t), S(t)) = (c, s), and wrap(d) a difference of parameters as the
    least one of its class: in [-pi, pi) for angles, d itself otherwise."""

    C: Callable
    S: Callable
    cos: Callable
    sin: Callable
    arc_c: Callable
    arc_s: Callable
    param: Callable
    wrap: Callable


CIRCULAR = Trig(
    math.cos, math.sin, np.cos, np.sin,
    lambda c: np.arccos(np.clip(c, -1.0, 1.0)),
    lambda s: np.arcsin(np.clip(s, -1.0, 1.0)),
    lambda c, s: np.arctan2(s, c),
    lambda d: (d + np.pi) % (2 * np.pi) - np.pi,
)
HYPERBOLIC = Trig(
    math.cosh, math.sinh, np.cosh, np.sinh,
    lambda c: np.arccosh(np.maximum(c, 1.0)), np.arcsinh,
    lambda c, s: np.arcsinh(s),
    lambda d: d,
)


class Quadric:
    """Row-wise primitives of the quadric <x, x> = kappa of a diagonal form.

    name              : what messages call it
    form              : the diagonal of the form
    kappa             : the curvature sign, +1 or -1
    trig              : the family of its geodesics, CIRCULAR or HYPERBOLIC
    tangent_undefined : the message of GeometryError for a tangent with no
                        direction
    apex              : the apex o of a star quadric, None on S^2 and H^2
    inner             : the row-wise inner product, when it is not the sum
                        of u * v * form over the last axis
    group             : on a star quadric, (mul, inv, e, plane, tol): the
                        row-wise product and inverse, the neutral element e,
                        a coordinate vector, the surface quadric of the plane
                        e*, and how far a product may leave e* (`tol`); None
                        on S^2 and H^2
    """

    def __init__(self, name, form, kappa, trig, tangent_undefined, apex=None, inner=None,
                 group=None):
        self.name = name
        self.form = np.asarray(form, dtype=float)
        self.kappa = kappa
        self.trig = trig
        self.tangent_undefined = tangent_undefined
        self.apex = apex
        if inner is not None:
            self.inner = inner
        self.mul, self.inv, self.e, self.plane, self.tol = group or (None,) * 5

    def inner(self, u, v):
        """Row-wise <u, v>, each row summed left to right like one vector."""
        return (u * v * self.form).sum(axis=-1)

    def dist(self, u, v):
        return self.trig.arc_c(self.kappa * self.inner(u, v))

    def tangents(self, x, y, sign=1):
        """Unit tangents at the points x toward y, and where they are
        defined: w = y - kappa <x, y> x scaled to sign <w, w> = 1, defined
        where sign <w, w> is not below TINY.  `sign` is the sign of <w, w>:
        -1 for the time-like directions toward the apex of AdS_3."""
        w = y - (self.kappa * self.inner(x, y))[..., None] * x
        q = sign * self.inner(w, w)
        with np.errstate(divide="ignore", invalid="ignore"):
            return w / np.sqrt(q)[..., None], ~(q < TINY)

    def tangent(self, x, y, sign=1):
        """Unit tangents at x toward y; raises where one is undefined."""
        t, defined = self.tangents(x, y, sign)
        if not defined.all():
            raise GeometryError(self.tangent_undefined)
        return t

    def angle_between(self, s, t):
        """Angle between the unit tangents s and t at one point."""
        return CIRCULAR.arc_c(self.inner(s, t))

    def angle(self, x, a, b):
        """Angle at x between the geodesics toward a and b (of one shape),
        both tangents from one pass."""
        return self.angle_between(*self.tangent(x, np.array([a, b])))

    def apex_angles(self, x, t):
        """Signed angles rho at the points x between the direction toward
        the apex and the unit tangents t: S(rho) = <t_o, t>, which on S^3
        is the complement of the angle between them."""
        return self.trig.arc_s(self.inner(self.tangent(x, self.apex, self.kappa), t))

    def corner_angles(self, verts, sizes):
        """Angle at every corner of polygons stacked as rows of verts,
        polygon i taking the next sizes[i] rows in cyclic order: the angle
        between the edges toward the previous and the next corner."""
        first, k = _cycles(sizes)
        size = np.repeat(sizes, sizes)
        return self.angle(verts, verts[first + (k - 1) % size],
                          verts[first + (k + 1) % size])

    def polygon_areas(self, angles, sizes):
        """Gauss-Bonnet areas of polygons from their corner angles, stacked
        as in `corner_angles`; each polygon sums its angles in cycle order."""
        sizes = np.asarray(sizes)
        return self.kappa * (cycle_sums(angles, sizes) - (sizes - 2) * np.pi)

    def polygon_area(self, verts):
        """Gauss-Bonnet area of the polygon with its corners at the rows of
        verts."""
        sizes = [len(verts)]
        return float(self.polygon_areas(self.corner_angles(verts, sizes), sizes)[0])

    def geodesic(self, p, t, s):
        return self.trig.cos(s) * p + self.trig.sin(s) * t

    def geodesic_param(self, p, t, x):
        """The s with geodesic(p, t, s) = x, for x on it; in (-pi, pi] on
        S^2."""
        return self.trig.param(self.kappa * self.inner(x, p), self.inner(x, t))

    def geodesic_normal(self, p, q):
        """Unit normal of the oriented geodesic from p through q (S^2, H^2)."""
        n = self.form * _cross(p, q)
        n2 = self.inner(n, n)
        if (n2 < TINY).any():
            raise GeometryError("geodesic normal undefined (coincident or antipodal points)")
        return n / np.sqrt(n2)[..., None]

    def side(self, x, normal):
        return self.inner(x, normal)


def _cross(p, q):
    """Row-wise cross products of 3-vectors, bit for bit those of
    `np.cross`, which computes p1 q2 - p2 q1 and its cyclic shifts too:
    with each vector written twice, its cyclic shifts are slices."""
    pp, qq = np.concatenate([p, p], axis=-1), np.concatenate([q, q], axis=-1)
    return pp[..., 1:4] * qq[..., 2:5] - pp[..., 2:5] * qq[..., 1:4]


def _cycles(sizes):
    """Per row of polygons stacked with sizes[i] corners each, the row
    where its polygon starts and its position in that polygon."""
    first = np.repeat(np.cumsum(sizes) - sizes, sizes)
    return first, np.arange(len(first)) - first


def cycle_sums(values, sizes):
    """Per cycle of values stacked with sizes[i] entries each, their sum
    strictly in cycle order (np.add.reduceat sums pairwise past eight)."""
    sizes = np.asarray(sizes)
    _, k = _cycles(sizes)
    rows = np.zeros((len(sizes), sizes.max()))
    rows[np.repeat(np.arange(len(sizes)), sizes), k] = values
    return np.add.accumulate(rows, axis=1)[:, -1]


def _vecdot(u, v):
    """The inner product of S^2: np.vecdot over unit-stride rows."""
    return np.vecdot(np.ascontiguousarray(u), np.ascontiguousarray(v))


# Group structure of the star quadrics.  On S^3 the coordinates multiply as
# quaternions with real part first; on AdS_3 they multiply through the
# SL(2,R) picture with neutral element (0,0,0,1).  Products and inverses
# take 4-vectors or arrays of rows (..., 4), row by row.

def _mul_quaternion(x, y):
    x1, x2, x3, x4 = np.asarray(x).T
    y1, y2, y3, y4 = np.asarray(y).T
    return np.array([
        x1 * y1 - x2 * y2 - x3 * y3 - x4 * y4,
        x1 * y2 + x2 * y1 + x3 * y4 - x4 * y3,
        x1 * y3 + x3 * y1 - x2 * y4 + x4 * y2,
        x1 * y4 + x2 * y3 - x3 * y2 + x4 * y1,
    ]).T


_MAT_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])
_ADS_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])


def _ads_to_mat(x):
    # [[x2 + x4, x1 + x3], [x1 - x3, x4 - x2]] as two gathers and a sign
    x = np.asarray(x)
    m = x[..., [1, 0, 0, 3]] + x[..., [3, 2, 2, 1]] * _MAT_SIGNS
    return m.reshape(x.shape[:-1] + (2, 2))


def _mat_to_ads(m):
    f = m.reshape(m.shape[:-2] + (4,))
    return 0.5 * (f[..., [1, 0, 1, 0]] + f[..., [2, 3, 2, 3]] * _ADS_SIGNS)


def _mul_sl2(x, y):
    # np.matmul, not a written-out 2x2 product: the two round differently,
    # and the pinned AdS projections carry the bits of np.matmul
    return _mat_to_ads(np.matmul(_ads_to_mat(x), _ads_to_mat(y)))


def _conjugate(signs):
    """The inverse of a unit point: each coordinate times its sign."""
    signs = np.array(signs)
    return lambda y: np.asarray(y) * signs


_STAR_UNDEFINED = "tangent direction is degenerate or of the wrong type"

SphereOps = Quadric("unit sphere", np.ones(3), 1, CIRCULAR,
                    "tangent direction undefined (coincident or antipodal)", inner=_vecdot)
HyperbolicOps = Quadric("hyperboloid", [1.0, 1.0, -1.0], -1, HYPERBOLIC,
                        "tangent direction undefined (coincident points)")
_SPHERE_E = np.array([1.0, 0.0, 0.0, 0.0])
_ADS_E = np.array([0.0, 0.0, 0.0, 1.0])
SPHERE_STAR = Quadric("3-sphere", np.ones(4), 1, CIRCULAR, _STAR_UNDEFINED, apex=_SPHERE_E,
                      group=(_mul_quaternion, _conjugate([1.0, -1.0, -1.0, -1.0]), _SPHERE_E,
                             SphereOps, 1e-9))
# apex -H*: the dual of H antipodal to H* = e
ADS_STAR = Quadric("anti-de Sitter space", [1.0, 1.0, -1.0, -1.0], -1, HYPERBOLIC,
                   _STAR_UNDEFINED,
                   apex=np.array([0.0, 0.0, 0.0, -1.0]),
                   group=(_mul_sl2, _conjugate([-1.0, -1.0, -1.0, 1.0]), _ADS_E,
                          HyperbolicOps, 1e-8))
