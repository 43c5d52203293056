"""Linear algebra of R^4 with the two signatures.

Covers the diagonal forms of the 3-sphere and the anti-de Sitter space,
the group structures of the two quadrics and the generalized cross product
of 4-vectors.
"""

from enum import Enum

import numpy as np

from .errors import SignatureMismatchError

SPHERE_E = np.array([1.0, 0.0, 0.0, 0.0])
ADS_E = np.array([0.0, 0.0, 0.0, 1.0])


class Signature(Enum):
    """Diagonal bilinear forms used by the library."""

    SPHERE = (1.0, 1.0, 1.0, 1.0)
    ADS = (1.0, 1.0, -1.0, -1.0)

    @property
    def diag(self):
        return np.array(self.value)


_MINOR_COLUMNS = np.array([[j for j in range(4) if j != i] for i in range(4)])
_MINOR_SIGNS = np.array([1.0, -1.0, 1.0, -1.0])


def cross4(a, b, c):
    """Euclidean generalized cross product of 4-vectors, row-wise.

    a, b, c are arrays of one shape (..., 4).  The result is orthogonal to
    all three; entry i is (-1)^i times the determinant of the 3x3 minor that
    leaves out column i.  The four minors are one (..., 4, 3, 3) stack under
    one `det` call, which takes each determinant on its own.
    """
    stack = np.stack([a, b, c], axis=-2)  # (..., 3, 4)
    minors = np.swapaxes(stack[..., _MINOR_COLUMNS], -3, -2)  # (..., 4, 3, 3)
    return np.linalg.det(minors) * _MINOR_SIGNS


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
