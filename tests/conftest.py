"""Shared corpus generators and the hypothesis profile of the test suite."""

import numpy as np
import pytest

from flipkit.errors import GeometryError
from flipkit.polyhedra import hull


def pytest_configure(config):
    """Every property test runs derandomized, without deadline or example
    database; each test sets only its own `max_examples`.  Registered here
    rather than at import, because the benchmark imports this module for
    its corpus generator and should not load hypothesis."""
    from hypothesis import settings

    settings.register_profile("flipkit", derandomize=True, deadline=None, database=None)
    settings.load_profile("flipkit")


def _spread_directions(rng, n, jitter=0.22):
    """Quasi-uniform unit 3-vectors: jittered Fibonacci sphere, random frame."""
    k = np.arange(n)
    z = 1.0 - (2.0 * k + 1.0) / n
    phi = np.pi * (1 + np.sqrt(5)) * k
    rho = np.sqrt(1.0 - z * z)
    dirs = np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)
    dirs += jitter * rng.normal(size=dirs.shape)
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    return dirs @ q.T


def random_polyhedron(rng, n, radial=(0.45, 0.95)):
    """Random convex polyhedron with n vertices, hemisphere center interior.

    Directions are kept quasi-uniform and the radii stay in a narrow band
    around a common value, so that all points are extreme; the draw is
    rejected until every face pole stays well inside the open hemisphere
    (so that the dual is again a valid polyhedron).
    """
    for _ in range(300):
        t = _spread_directions(rng, n)
        r0 = rng.uniform(*radial)
        r = r0 * (1.0 + rng.uniform(-0.08, 0.08, size=n))
        pts = np.hstack([np.cos(r)[:, None], np.sin(r)[:, None] * t])
        try:
            P = hull(pts)
        except GeometryError:
            continue
        if P.n_vertices == n and np.min(P.face_poles[:, 0]) > 1e-3:
            return P
    raise RuntimeError("could not sample a valid polyhedron")


def edge_lengths(ops, verts):
    """Lengths of the edges k -> k + 1 of the polygon whose corners are the
    rows of verts, on the surface of `ops`."""
    return ops.dist(verts, np.roll(verts, -1, axis=0))


def corner_angles(ops, verts):
    """Corner angles of the polygon whose corners are the rows of verts."""
    return ops.corner_angles(verts, [len(verts)])


def polyhedron_corpus(seed, count, sizes=(6, 14)):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(sizes[0], sizes[1] + 1))
        out.append(random_polyhedron(rng, n))
    return out


def regular_tetrahedron(radius=0.5):
    t = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3)
    return hull(
        np.hstack([np.cos(radius) * np.ones((4, 1)), np.sin(radius) * t])
    )


@pytest.fixture(scope="session")
def tetrahedron():
    return regular_tetrahedron()


@pytest.fixture(scope="session")
def small_corpus():
    return polyhedron_corpus(seed=11, count=20)
