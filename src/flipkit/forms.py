"""Linear algebra of R^4: the generalized cross product of 4-vectors and
the group products of the star quadrics `spheremath.SPHERE_STAR` and
`spheremath.ADS_STAR`, row by row.
"""

import numpy as np

from .errors import SignatureMismatchError

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


def _group(star):
    if star.mul is None:
        raise SignatureMismatchError(f"no group structure on the {star.name}")
    return star


def mul4(x, y, star):
    """The product x y in the group of a star quadric, row by row."""
    return _group(star).mul(x, y)


def inv4(y, star):
    """The inverse of y in the group of a star quadric, row by row."""
    return _group(star).inv(y)
