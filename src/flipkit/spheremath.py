"""Intrinsic geometry helpers for the two tiling surfaces.

`SphereOps` works on the unit sphere of R^3, `HyperbolicOps` on the upper
hyperboloid x1^2 + x2^2 - x3^2 = -1, x3 > 0.  Both expose the same small
vocabulary (distance, tangent directions, geodesics, sides of an oriented
geodesic) so the tiling machinery can stay surface-agnostic.

Every helper works row by row: points are arrays whose last axis holds the
coordinates, and a scalar result comes back with the leading shape, so one
call serves one vector or all corners of a tiling.  Each row gets the bits
of the same call on that row alone: the sphere's inner product is
`np.vecdot` over unit-stride rows, which sums a row as `np.dot` sums one
vector, and the hyperboloid form is the sum over the last axis.
"""

import numpy as np

from .errors import GeometryError

Q_HYP = np.array([1.0, 1.0, -1.0])


class _SurfaceOps:
    """The helpers both surfaces derive from `inner` and `tangents`."""

    @classmethod
    def tangent(cls, u, v):
        """Unit tangents at u toward v; raises where one is undefined."""
        t, defined = cls.tangents(u, v)
        if not np.all(defined):
            raise GeometryError(cls.TANGENT_UNDEFINED)
        return t

    @classmethod
    def angle(cls, u, a, b):
        """Angle at u between the geodesics toward a and b."""
        c = cls.inner(cls.tangent(u, a), cls.tangent(u, b))
        return np.arccos(np.clip(c, -1.0, 1.0))

    @classmethod
    def side(cls, x, normal):
        return cls.inner(x, normal)

    @classmethod
    def polygon_areas(cls, angle_sums, corners):
        """Areas of geodesic polygons from their angle sums and corner
        counts (Gauss-Bonnet)."""
        return cls.curvature * (angle_sums - (corners - 2) * np.pi)


class SphereOps(_SurfaceOps):
    curvature = 1
    TANGENT_UNDEFINED = "tangent direction undefined (coincident or antipodal)"

    @staticmethod
    def inner(u, v):
        return np.vecdot(np.ascontiguousarray(u), np.ascontiguousarray(v))

    @staticmethod
    def dist(u, v):
        return np.arccos(np.clip(SphereOps.inner(u, v), -1.0, 1.0))

    @staticmethod
    def tangents(u, v):
        """Unit tangents at u toward v, and where they are defined."""
        w = v - SphereOps.inner(u, v)[..., None] * u
        n = np.sqrt(SphereOps.inner(w, w))  # np.linalg.norm, row by row
        with np.errstate(divide="ignore", invalid="ignore"):
            return w / n[..., None], ~(n < 1e-13)

    @staticmethod
    def geodesic(p, t, s):
        return np.cos(s) * p + np.sin(s) * t

    @staticmethod
    def geodesic_param(p, t, x):
        """The s in (-pi, pi] with geodesic(p, t, s) = x, for x on it."""
        return np.arctan2(SphereOps.inner(x, t), SphereOps.inner(x, p))

    @staticmethod
    def geodesic_normal(p, q):
        """Unit normal of the oriented geodesic from p through q."""
        n = np.cross(p, q)
        norm = np.sqrt(SphereOps.inner(n, n))
        if np.any(norm < 1e-13):
            raise GeometryError("geodesic through (anti)podal points is not unique")
        return n / norm[..., None]


class HyperbolicOps(_SurfaceOps):
    curvature = -1
    TANGENT_UNDEFINED = "tangent direction undefined (coincident points)"

    @staticmethod
    def inner(u, v):
        return np.sum(u * v * Q_HYP, axis=-1)

    @staticmethod
    def dist(u, v):
        return np.arccosh(np.maximum(-HyperbolicOps.inner(u, v), 1.0))

    @staticmethod
    def tangents(u, v):
        w = v + HyperbolicOps.inner(u, v)[..., None] * u
        n = HyperbolicOps.inner(w, w)
        with np.errstate(divide="ignore", invalid="ignore"):
            return w / np.sqrt(n)[..., None], ~(n < 1e-26)

    @staticmethod
    def geodesic(p, t, s):
        return np.cosh(s) * p + np.sinh(s) * t

    @staticmethod
    def geodesic_param(p, t, x):
        """The s with geodesic(p, t, s) = x, for x on it."""
        return np.arcsinh(HyperbolicOps.inner(x, t))

    @staticmethod
    def geodesic_normal(p, q):
        n = Q_HYP * np.cross(p, q)
        norm2 = HyperbolicOps.inner(n, n)
        if np.any(norm2 < 1e-26):
            raise GeometryError("degenerate geodesic")
        return n / np.sqrt(norm2)[..., None]
