"""Closed-form triangle laws on the sphere and in the hyperbolic-de Sitter
plane, together with their analytic partial derivatives.

These are the closed-form reference for the star formulas of
`flipkit.fuchsian`, which assembles both Jacobians (spherical star
polyhedra and Fuchsian AdS surfaces) from its own array kernel; the
library imports only `convexity_sign` from here.  Every solver takes the
two sides adjacent to a known angle and returns the completed triangle;
every derivative has a matching finite-difference test.
"""

from dataclasses import dataclass
from enum import Enum
import math

from .errors import DegenerateTriangleError

EPS_LAW = 1e-10
EPS_DEG = 1e-8
EPS_CVX = 1e-10


def _safe_acos(x, what):
    if abs(x) > 1.0 + EPS_DEG:
        raise DegenerateTriangleError(f"{what}: cosine {x:.6g} out of range")
    return math.acos(min(1.0, max(-1.0, x)))


def _safe_acosh(x, what):
    if x < 1.0 - EPS_DEG:
        raise DegenerateTriangleError(f"{what}: cosh value {x:.6g} below 1")
    return math.acosh(max(1.0, x))


@dataclass(frozen=True)
class SphTriangle:
    """Spherical triangle; side x is opposite angle chi."""

    a: float
    b: float
    c: float
    alpha: float
    beta: float
    gamma: float


def sph_solve(a, c, beta):
    """Solve a spherical triangle from sides a, c and the included angle beta."""
    for name, val in (("a", a), ("c", c), ("beta", beta)):
        if not EPS_DEG < val < math.pi - EPS_DEG:
            raise DegenerateTriangleError(f"sph_solve: {name}={val:.6g} outside (0, pi)")
    cos_b = math.cos(c) * math.cos(a) + math.sin(c) * math.sin(a) * math.cos(beta)
    b = _safe_acos(cos_b, "sph_solve")
    if b < EPS_DEG or b > math.pi - EPS_DEG:
        raise DegenerateTriangleError(f"sph_solve: side b={b:.6g} degenerate")
    alpha = _safe_acos(
        (math.cos(a) - cos_b * math.cos(c)) / (math.sin(b) * math.sin(c)), "sph_solve"
    )
    gamma = _safe_acos(
        (math.cos(c) - cos_b * math.cos(a)) / (math.sin(b) * math.sin(a)), "sph_solve"
    )
    return SphTriangle(a, b, c, alpha, beta, gamma)


def sph_partials(a, c, beta):
    """(db/da, dalpha/da, dalpha/dc) at fixed (a, c, beta) parameterization."""
    t = sph_solve(a, c, beta)
    if math.sin(t.b) < EPS_DEG:
        raise DegenerateTriangleError("sph_partials: sin b too small")
    return (
        math.cos(t.gamma),
        math.sin(t.gamma) / math.sin(t.b),
        -math.sin(t.alpha) * math.cos(t.b) / math.sin(t.b),
    )


@dataclass(frozen=True)
class DSTriangle:
    """de Sitter triangle: space-like sides a, c, time-like side i*b.

    The angle between the space-like sides is i*beta; the angles at the
    ends of the time-like side are the real numbers alpha (opposite a)
    and gamma (opposite c).
    """

    a: float
    b: float
    c: float
    alpha: float
    beta: float
    gamma: float

    def law_residuals(self):
        r1 = self.cos_law_a()
        r2 = self.cos_law_b()
        r3 = self.cos_law_c()
        return (r1, r2, r3)

    def cos_law_a(self):
        return math.cos(self.a) - (
            math.cosh(self.b) * math.cos(self.c)
            + math.sinh(self.b) * math.sin(self.c) * math.sinh(self.alpha)
        )

    def cos_law_b(self):
        return math.cosh(self.b) - (
            math.cos(self.c) * math.cos(self.a)
            + math.sin(self.c) * math.sin(self.a) * math.cosh(self.beta)
        )

    def cos_law_c(self):
        return math.cos(self.c) - (
            math.cos(self.a) * math.cosh(self.b)
            + math.sin(self.a) * math.sinh(self.b) * math.sinh(self.gamma)
        )


def ds_solve(a, c, beta):
    """de Sitter triangle from the space-like sides and the imaginary angle."""
    for name, val in (("a", a), ("c", c)):
        if not 0.0 < val < math.pi:
            raise DegenerateTriangleError(f"ds_solve: {name}={val:.6g} outside (0, pi)")
    cosh_b = math.cos(c) * math.cos(a) + math.sin(c) * math.sin(a) * math.cosh(beta)
    b = _safe_acosh(cosh_b, "ds_solve")
    if b < EPS_DEG:
        raise DegenerateTriangleError(f"ds_solve: side b={b:.6g} degenerate")
    alpha = math.asinh(
        (math.cos(a) - cosh_b * math.cos(c)) / (math.sinh(b) * math.sin(c))
    )
    gamma = math.asinh(
        (math.cos(c) - cosh_b * math.cos(a)) / (math.sinh(b) * math.sin(a))
    )
    return DSTriangle(a, b, c, alpha, beta, gamma)


@dataclass(frozen=True)
class AdSTimelikeTriangle:
    """Triangle in a time-like plane of AdS: time-like edges i*a, i*c and a
    space-like edge b, with real angles alpha (opposite i*a), beta, gamma."""

    a: float
    b: float
    c: float
    alpha: float
    beta: float
    gamma: float


def ads_solve(a, c, beta):
    """AdS time-like-plane triangle from the two time-like sides and beta.

    The triangle reduces to a de Sitter triangle with sides (a, i*b, c) and
    angles (-alpha, i*beta, -gamma); the returned angles are the AdS ones.
    """
    ds = ds_solve(a, c, beta)
    return AdSTimelikeTriangle(a, ds.b, c, -ds.alpha, beta, -ds.gamma)


def ads_partials(a, c, beta):
    """(dalpha/da, dalpha/dc, isosceles dalpha/da) for the AdS triangle."""
    t = ads_solve(a, c, beta)
    if math.sinh(t.b) < EPS_DEG:
        raise DegenerateTriangleError("ads_partials: sinh b too small")
    d_da = math.cosh(t.gamma) / math.sinh(t.b)
    d_dc = -math.cosh(t.b) * math.cosh(t.alpha) / math.sinh(t.b)
    iso = math.cosh(t.alpha) * (1.0 - math.cosh(t.b)) / math.sinh(t.b)
    return (d_da, d_dc, iso)


@dataclass(frozen=True)
class HS2Triangle:
    """Triangle with two de Sitter vertices (joined by the space-like side a)
    and one hyperbolic vertex; b, c are the mixed sides from the hyperbolic
    vertex, alpha the angle there, beta and gamma at the de Sitter vertices."""

    a: float
    b: float
    c: float
    alpha: float
    beta: float
    gamma: float


def hs2_laws(b, c, alpha):
    """Solve the hyperbolic-de Sitter triangle from (b, c, alpha).

    The collapsed case a = 0 (both de Sitter vertices coincide, reached at
    b = c, alpha = 0) is returned with beta = gamma = 0.
    """
    cos_a = -math.sinh(b) * math.sinh(c) + math.cosh(b) * math.cosh(c) * math.cos(alpha)
    a = _safe_acos(cos_a, "hs2_laws")
    if a < EPS_DEG:
        return HS2Triangle(a, b, c, alpha, 0.0, 0.0)
    if a > math.pi - EPS_DEG:
        raise DegenerateTriangleError(f"hs2_laws: side a={a:.6g} degenerate")
    beta = math.asinh((math.sinh(b) - cos_a * math.sinh(c)) / (math.sin(a) * math.cosh(c)))
    gamma = math.asinh((math.sinh(c) - cos_a * math.sinh(b)) / (math.sin(a) * math.cosh(b)))
    return HS2Triangle(a, b, c, alpha, beta, gamma)


def hs2_partial_a_b(b, c, alpha):
    """da/db at fixed (c, alpha)."""
    return math.sinh(hs2_laws(b, c, alpha).gamma)


class ConvexityClass(Enum):
    COPLANAR = "coplanar"
    CONVEX_SIDE = "convex_side"
    NOT_CONVEX_SIDE = "not_convex_side"


def convexity_sign(alpha1, alpha2, eps=EPS_CVX):
    """Classify a pair of space-like wedges by sinh(alpha1) + sinh(alpha2).

    The time-like reference half-plane lies inside the convex side of the
    wedge exactly when the sum is negative; a vanishing sum means the two
    half-planes are coplanar.
    """
    s = math.sinh(alpha1) + math.sinh(alpha2)
    if abs(s) <= eps:
        return ConvexityClass.COPLANAR
    return ConvexityClass.CONVEX_SIDE if s < 0 else ConvexityClass.NOT_CONVEX_SIDE
