"""Intrinsic geometry helpers for the two tiling surfaces.

`SphereOps` works on the unit sphere of R^3, `HyperbolicOps` on the upper
hyperboloid x1^2 + x2^2 - x3^2 = -1, x3 > 0.  Both expose the same small
vocabulary (distance, tangent directions, geodesics, sides of an oriented
geodesic) so the tiling machinery can stay surface-agnostic.
"""

import numpy as np

from .errors import GeometryError

Q_HYP = np.array([1.0, 1.0, -1.0])


class SphereOps:
    curvature = 1

    @staticmethod
    def inner(u, v):
        return float(np.dot(u, v))

    @staticmethod
    def valid_point(p, tol=1e-8):
        return abs(np.dot(p, p) - 1.0) <= tol

    @staticmethod
    def dist(u, v):
        return float(np.arccos(np.clip(np.dot(u, v), -1.0, 1.0)))

    @staticmethod
    def tangent(u, v):
        """Unit tangent at u toward v."""
        w = v - np.dot(u, v) * u
        n = np.linalg.norm(w)
        if n < 1e-13:
            raise GeometryError("tangent direction undefined (coincident or antipodal)")
        return w / n

    @staticmethod
    def geodesic(p, t, s):
        return np.cos(s) * p + np.sin(s) * t

    @staticmethod
    def angle(u, a, b):
        """Angle at u between the geodesics toward a and b."""
        ta = SphereOps.tangent(u, a)
        tb = SphereOps.tangent(u, b)
        return float(np.arccos(np.clip(np.dot(ta, tb), -1.0, 1.0)))

    @staticmethod
    def geodesic_normal(p, q):
        """Unit normal of the oriented geodesic from p through q."""
        n = np.cross(p, q)
        norm = np.linalg.norm(n)
        if norm < 1e-13:
            raise GeometryError("geodesic through (anti)podal points is not unique")
        return n / norm

    @staticmethod
    def side(x, normal):
        return float(np.dot(x, normal))

    @staticmethod
    def polygon_area(angles):
        angles = list(angles)
        return float(sum(angles) - (len(angles) - 2) * np.pi)


class HyperbolicOps:
    curvature = -1

    @staticmethod
    def inner(u, v):
        return float(np.sum(u * v * Q_HYP))

    @staticmethod
    def valid_point(p, tol=1e-8):
        return abs(HyperbolicOps.inner(p, p) + 1.0) <= tol and p[2] > 0

    @staticmethod
    def dist(u, v):
        c = -HyperbolicOps.inner(u, v)
        return float(np.arccosh(max(c, 1.0)))

    @staticmethod
    def tangent(u, v):
        w = v + HyperbolicOps.inner(u, v) * u
        n = HyperbolicOps.inner(w, w)
        if n < 1e-26:
            raise GeometryError("tangent direction undefined (coincident points)")
        return w / np.sqrt(n)

    @staticmethod
    def geodesic(p, t, s):
        return np.cosh(s) * p + np.sinh(s) * t

    @staticmethod
    def angle(u, a, b):
        ta = HyperbolicOps.tangent(u, a)
        tb = HyperbolicOps.tangent(u, b)
        return float(np.arccos(np.clip(HyperbolicOps.inner(ta, tb), -1.0, 1.0)))

    @staticmethod
    def geodesic_normal(p, q):
        n = Q_HYP * np.cross(p, q)
        norm2 = HyperbolicOps.inner(n, n)
        if norm2 < 1e-26:
            raise GeometryError("degenerate geodesic")
        return n / np.sqrt(norm2)

    @staticmethod
    def side(x, normal):
        return float(HyperbolicOps.inner(x, normal))

    @staticmethod
    def polygon_area(angles):
        angles = list(angles)
        return float((len(angles) - 2) * np.pi - sum(angles))
