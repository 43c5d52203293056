"""Linear algebra of R^4 with the two signatures.

Covers the quadric models of the 3-sphere and the anti-de Sitter space,
their group structures, point/plane duality and the complex-valued angles
between vectors of a Minkowski space.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import GeometryError, LightLikeError, SignatureMismatchError

EPS_NORM = 1e-10
EPS_ZERO = 1e-12

SPHERE_E = np.array([1.0, 0.0, 0.0, 0.0])
ADS_E = np.array([0.0, 0.0, 0.0, 1.0])


class Signature(Enum):
    """Diagonal bilinear forms used by the library."""

    SPHERE = (1.0, 1.0, 1.0, 1.0)
    ADS = (1.0, 1.0, -1.0, -1.0)
    MINK31 = (1.0, 1.0, 1.0, -1.0)
    MINK21 = (1.0, -1.0, -1.0)

    @property
    def diag(self):
        return np.array(self.value)

    @property
    def dim(self):
        return len(self.value)


def form(u, v, sig):
    """Evaluate the bilinear form of `sig` on two coordinate vectors."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape[-1] != sig.dim or v.shape[-1] != sig.dim:
        raise SignatureMismatchError(
            f"{sig.name} expects {sig.dim}-vectors, got {u.shape} and {v.shape}"
        )
    return float(np.sum(u * v * sig.diag)) if u.ndim == 1 else np.sum(
        u * v * sig.diag, axis=-1
    )


def pseudo_norm(u, sig):
    """Pseudo-norm sqrt(<u,u>); positive imaginary for time-like vectors."""
    q = form(u, u, sig)
    if q >= 0.0:
        return complex(np.sqrt(q), 0.0)
    return complex(0.0, np.sqrt(-q))


def cross4(a, b, c):
    """Euclidean generalized cross product of 4-vectors, row-wise.

    a, b, c are arrays of one shape (..., 4).  The result is orthogonal to
    all three; entry i is the signed determinant of the 3x3 minor that
    leaves out column i.
    """
    stack = np.stack([a, b, c], axis=-2)  # (..., 3, 4)
    out = np.empty(stack.shape[:-2] + (4,))
    for i in range(4):
        out[..., i] = ((-1) ** i) * np.linalg.det(stack[..., [j for j in range(4) if j != i]])
    return out


# Group structure.  On the sphere the coordinates multiply as quaternions
# with real part first; on AdS they multiply through the SL(2,R) picture
# with neutral element (0,0,0,1).  Products and inverses take 4-vectors or
# arrays of rows (..., 4), row by row.

def mul4_sphere(x, y):
    x1, x2, x3, x4 = np.asarray(x).T
    y1, y2, y3, y4 = np.asarray(y).T
    return np.array([
        x1 * y1 - x2 * y2 - x3 * y3 - x4 * y4,
        x1 * y2 + x2 * y1 + x3 * y4 - x4 * y3,
        x1 * y3 + x3 * y1 - x2 * y4 + x4 * y2,
        x1 * y4 + x2 * y3 - x3 * y2 + x4 * y1,
    ]).T


def inv4_sphere(y):
    return np.asarray(y) * np.array([1.0, -1.0, -1.0, -1.0])


def _ads_to_mat(x):
    x = np.asarray(x)
    x1, x2, x3, x4 = np.moveaxis(x, -1, 0)
    m = np.stack([x2 + x4, x1 + x3, x1 - x3, x4 - x2], axis=-1)
    return m.reshape(x.shape[:-1] + (2, 2))


def _mat_to_ads(m):
    return np.stack([
        0.5 * (m[..., 0, 1] + m[..., 1, 0]),
        0.5 * (m[..., 0, 0] - m[..., 1, 1]),
        0.5 * (m[..., 0, 1] - m[..., 1, 0]),
        0.5 * (m[..., 0, 0] + m[..., 1, 1]),
    ], axis=-1)


def mul4_ads(x, y):
    # np.matmul, not a written-out 2x2 product: the two round differently,
    # and the pinned AdS projections carry the bits of np.matmul
    return _mat_to_ads(np.matmul(_ads_to_mat(x), _ads_to_mat(y)))


def inv4_ads(y):
    return np.asarray(y) * np.array([-1.0, -1.0, -1.0, 1.0])


def mul4(x, y, sig):
    if sig is Signature.SPHERE:
        return mul4_sphere(x, y)
    if sig is Signature.ADS:
        return mul4_ads(x, y)
    raise SignatureMismatchError(f"no group structure for {sig.name}")


def inv4(y, sig):
    if sig is Signature.SPHERE:
        return inv4_sphere(y)
    if sig is Signature.ADS:
        return inv4_ads(y)
    raise SignatureMismatchError(f"no group structure for {sig.name}")


def neutral(sig):
    if sig is Signature.SPHERE:
        return SPHERE_E.copy()
    if sig is Signature.ADS:
        return ADS_E.copy()
    raise SignatureMismatchError(f"no group structure for {sig.name}")


def canonical_ads_rep(v, eps=EPS_ZERO):
    """Representative of {v, -v} whose first coordinate above `eps` is positive."""
    v = np.asarray(v, dtype=float)
    for c in v:
        if abs(c) > eps:
            return v.copy() if c > 0 else -v
    return v.copy()


@dataclass(frozen=True)
class QuadricPoint:
    """Point on one of the unit quadrics, renormalized at construction.

    `norm_class` is the value of <v,v>: +1 on the sphere, -1 on AdS.
    `hemisphere` asks for x1 > 0 (spherical polyhedron convention), while
    `canonical` stores the AdS/Z2 representative with positive leading
    coordinate.
    """

    v: np.ndarray
    sig: Signature
    norm_class: int = 0
    hemisphere: bool = False
    canonical: bool = False

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float)
        if v.shape != (4,) or not np.all(np.isfinite(v)):
            raise GeometryError(f"need a finite 4-vector, got {v!r}")
        q = form(v, v, self.sig)
        nc = self.norm_class if self.norm_class else (1 if q > 0 else -1)
        if q * nc <= 0:
            raise GeometryError(
                f"vector has <v,v>={q:.3g}, cannot renormalize to class {nc}"
            )
        v = v / np.sqrt(abs(q))
        if self.canonical and self.sig is Signature.ADS:
            v = canonical_ads_rep(v)
        if self.hemisphere and v[0] <= 1e-8:
            raise GeometryError(f"point not in the open hemisphere: x1={v[0]:.3g}")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "norm_class", nc)
        if abs(form(v, v, self.sig) - nc) > EPS_NORM:
            raise GeometryError("renormalization failed")

    def __array__(self, dtype=None):
        return np.asarray(self.v, dtype=dtype)


def group_mul(x: QuadricPoint, y: QuadricPoint) -> QuadricPoint:
    """Group product of two points of the same quadric."""
    if x.sig is not y.sig:
        raise SignatureMismatchError(f"{x.sig.name} * {y.sig.name}")
    return QuadricPoint(mul4(x.v, y.v, x.sig), x.sig, x.norm_class)


def group_inv(y: QuadricPoint) -> QuadricPoint:
    return QuadricPoint(inv4(y.v, y.sig), y.sig, y.norm_class)


@dataclass(frozen=True)
class DualPlane:
    """Totally geodesic surface {y : <pole,y> = 0} stored through its pole."""

    pole: QuadricPoint

    def contains(self, y, tol=1e-10):
        return abs(form(self.pole.v, np.asarray(y, dtype=float), self.pole.sig)) <= tol


def dual(obj):
    """Point -> orthogonal plane, plane -> pole.  Involutive by construction."""
    if isinstance(obj, QuadricPoint):
        if obj.sig is Signature.ADS and obj.norm_class > 0:
            raise GeometryError("dual plane of a space-like AdS point is not space-like")
        return DualPlane(obj)
    if isinstance(obj, DualPlane):
        return obj.pole
    raise TypeError(f"dual() expects a QuadricPoint or DualPlane, got {type(obj)!r}")


class AngleKind(Enum):
    REAL = "real"
    PURE_IMAGINARY = "pure_imaginary"
    PI_MINUS_IMAGINARY = "pi_minus_imaginary"


@dataclass(frozen=True)
class HSAngle:
    """Angle between two non-light-like directions of a Minkowski space.

    kind REAL covers both the circular angle of a space-like span and the
    real hyperbolic distance of the time-like/mixed cases; the imaginary
    kinds store theta with angle i*theta resp. pi - i*theta.
    """

    kind: AngleKind
    magnitude: float

    def as_complex(self):
        if self.kind is AngleKind.REAL:
            return complex(self.magnitude, 0.0)
        if self.kind is AngleKind.PURE_IMAGINARY:
            return complex(0.0, self.magnitude)
        return complex(np.pi, -self.magnitude)


def hs_angle(u, v, sig=Signature.MINK31):
    """Classify and measure the angle between u and v per the span of {u,v}.

    Raises LightLikeError when either vector or the spanned plane is
    light-like (within EPS_ZERO of degenerate).
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    qu = form(u, u, sig)
    qv = form(v, v, sig)
    quv = form(u, v, sig)
    if abs(qu) <= EPS_ZERO or abs(qv) <= EPS_ZERO:
        raise LightLikeError("light-like vector")
    nu, nv = np.sqrt(abs(qu)), np.sqrt(abs(qv))
    gram = qu * qv - quv * quv
    if qu < 0 and qv < 0:
        # Two time-like vectors: hyperbolic distance on the same sheet.
        if quv > 0:
            raise GeometryError("time-like vectors on opposite sheets")
        c = -quv / (nu * nv)
        return HSAngle(AngleKind.REAL, float(np.arccosh(max(c, 1.0))))
    if qu > 0 and qv > 0:
        c = quv / (nu * nv)
        if abs(gram) <= EPS_ZERO * max(abs(qu * qv), 1.0):
            raise LightLikeError("light-like span")
        if gram > 0:
            return HSAngle(AngleKind.REAL, float(np.arccos(np.clip(c, -1.0, 1.0))))
        if c > 0:
            return HSAngle(AngleKind.PURE_IMAGINARY, float(np.arccosh(c)))
        return HSAngle(AngleKind.PI_MINUS_IMAGINARY, float(np.arccosh(-c)))
    # Mixed pair: sinh(theta) = i<u,v>/(|u||v|) is real; magnitude kept >= 0.
    s = quv / (nu * nv)
    return HSAngle(AngleKind.REAL, float(np.arcsinh(abs(s))))
