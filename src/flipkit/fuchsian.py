"""Fuchsian polyhedral surfaces in anti-de Sitter space.

A cocompact group of hyperbolic-plane isometries acts on AdS_3 fixing the
space-like plane H = {x4 = 0}; convex hulls of orbits of points on
time-like half-rays orthogonal to H are the surfaces of interest.  This
module builds the genus-2 octagon group, truncated orbit hulls with their
vertex stars, cone angles, the analytic Jacobian of the angles with
respect to the heights, a Newton solver prescribing the singular
curvatures at the vertices, the dual surface with prescribed face areas,
the left/right projections to flippable tilings of the quotient
hyperbolic surface, and the spherical star-polyhedron Jacobian.

An orbit hull is built from the group elements that move the octagon
center o = (0, 0, 1) by at most a radius R, starting at R0 = 5.5.  Every
face of the fundamental vertex stars is then certified: a lower bound on
<x, p> over all omitted orbit points x shows that its plane supports the
whole orbit, so the stars are those of the infinite surface.  When a face
fails, R grows by 0.5 up to R_MAX = 10, past which GeometryError is raised.
Its faces come from the chart hull -> merged faces path of `polyhedra`,
with the future poles of the space-like planes, and are kept as arrays,
with no object per face: the hull triangles with a merge label, the face
poles, the vertex -> face incidence and a cyclic order per face computed
on first read (`FuchsianSurface`).

The stars of a surface are one table (`VertexStars`, as the S^3 star
polyhedron's `ConvexPolyhedron.stars`): per star its vertex and the
offsets of its rows, per row a neighbour in cycle order, whether the
edge to it is true and the face of the wedge after it.  A star is cut
from the fans of its faces; a triangle is its own fan, so only the larger
faces of coplanar merges are ordered.  One star kernel (`star_geometry`,
on `spheremath.ADS_STAR` or `SPHERE_STAR`) returns the edge lengths, apex
angles and wedge angles of all rows in one pass.  The cone angles are the
cycle sums of its wedge angles, and one assembly (`_assemble`) builds the
Jacobian of either quadric from the same pass; only the family (sinh,
cosh) or (sin, cos) differs.  The certificate, the repair and the quotient
layout read the same columns.  Distances, tangents, angles and face areas
are the primitives of `spheremath`.

The prescribed-curvature solver builds a hull only to start and after a
failed repair, and the group keeps the starting hull of the last ray set
and start heights of each ray count, so repeated solves on one ray set
build none to start (`_start_surface`).  A line-search trial keeps the
stars of its current surface at the trial heights when a certificate
(`_fixed_star_trial`) proves that the certified hull there has the same
stars; where it finds orbit points on the wrong side of star triangles,
those stars are re-cut through them (`_recut_stars`, a 2-D hull of
gnomonic images with no Qhull call) and certified once more.  Certified
stars are the hull's, so a trial's curvatures and the next Newton step's
Jacobian are the hull's bit for bit, from one `star_geometry` pass that
the surface keeps.  A solve that ends on certified stars returns the
surface of their triangles (`_star_surface`), with the certificate's poles
and no hull.

Group elements are identified by one rule.  The elements of a ball
(`FuchsianGroup.ball`) carry integer ids, their positions in
`elements(R)`; a 3x3 matrix is the element with id i when it lies within
MATCH_TOL = 1e-6 of it (Euclidean, over the nine entries, through a
cKDTree) and more than MATCH_GAP = 0.2 from every other element, and it
is clear of the ball when it lies more than MATCH_GAP from all of them;
anything else raises GeometryError.  Distinct elements of the ball of
radius 7 differ by at least 6.83 in some entry, so the rule never splits
an element and never merges two.  Surface vertices, face orbits, edge
orbits and face decks are then integer labels (ray, id), read from the
relative table rel[i, j] = id(g_i^-1 g_j) of the ball.

The projections lay out the quotient bookkeeping of a surface (`_ads_layout`:
face orbits, the decks carrying each face copy onto its orbit's
representative, link corners and edge orbits) array-at-a-time from the
face arrays: the orbit labels of all faces from one gather of the relative
table, the decks from one batched `inv`, the orders of the representative
faces from one SVD per face size and the edge orbits in one pass.

The flip of a quotient tiling builds no orbit hull (`flip_hyperbolic`): it
develops the Fuchsian surface from the tiling's own tables at the heights
read off its white metric, certifies the development convex edge by edge,
checks the tiling against it and assembles the other projection once.
"""

import itertools
import logging
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.spatial import ConvexHull as EuclideanHull
from scipy.spatial import QhullError, cKDTree

from .errors import ConvergenceError, DevelopmentError, GeometryError
from .forms import cross4, mul4
from .polyhedra import (
    MERGE_TOL,
    VertexStars,
    cyclic_orders,
    hull,
    merge_triangles,
    qhull_reason,
    triangle_poles,
)
from .spheremath import ADS_STAR, SPHERE_STAR, HyperbolicOps, cycle_sums
from .tilings import (
    BLACK,
    WHITE,
    ConeMetric,
    ConePoint,
    FlippableTiling,
    Side,
    assemble_corners,
    assemble_tiling,
    project_points,
    tiling_equality_error,
)

logger = logging.getLogger("flipkit.fuchsian")

EPS_EQUIVARIANT = 1e-8
EPS_SPACELIKE = 1e-12  # a plane is space-like when <p, p> < -EPS_SPACELIKE before scaling
EPS_MATCH = 1e-7       # a flipped tiling's corners lie this close to its development's

R0 = 5.5        # first truncation radius of an orbit hull
R_STEP = 0.5    # growth of the radius after an uncertified build
R_MAX = 10.0    # largest radius tried

MAX_NEWTON = 40        # Newton steps per target of the solver
MAX_CONTINUATION = 40  # continuation steps toward the prescribed target

MATCH_TOL = 1e-6   # a matrix within this of an element is that element ...
MATCH_GAP = 0.2    # ... when every other element is more than this away

HEIGHT_MIN = 1e-4       # recovered heights stay in [HEIGHT_MIN, pi/2 - HEIGHT_MIN]
MAX_GAUSS_NEWTON = 20   # Gauss-Newton steps of a height recovery


def extend_isometry(g):
    """Extend an SO(2,1) matrix to an AdS isometry fixing {x4 = 0}."""
    m = np.eye(4)
    m[:3, :3] = g
    return m


def orbit_points(elements, rays, heights):
    """Orbit points of the half-rays orthogonal to H: for each of the
    stacked (m, 3, 3) `elements` g and each ray b, the point
    (cos h_b g r_b, sin h_b) at height h_b above g r_b, as row
    g_index * len(rays) + b."""
    base = (elements[:, None] @ rays[None, :, :, None])[..., 0]
    h = np.asarray(heights, dtype=float)
    out = np.empty(base.shape[:2] + (4,))
    out[..., :3] = np.cos(h)[:, None] * base
    out[..., 3] = np.sin(h)
    return out.reshape(-1, 4)


# -- the genus-2 octagon group -------------------------------------------------


def _stable_key(m, scale):
    """Quantized matrix bytes: the ordering convention of a ball.

    `elements` breaks displacement ties by these bytes, and `ElementBall.rank`
    is their order; both fix the fan starts of `_fan` and the
    star starts of `_build_stars`.  Identity is decided by the matching rule
    (`_identify`), never by these bytes.
    """
    q = np.floor(np.asarray(m, dtype=float) * scale + 0.61803398874989485)
    return q.astype(np.int64).tobytes()


def _identify(tree, mats):
    """Per 3x3 matrix of `mats`, the index of the tree point it is under the
    identification rule (within MATCH_TOL, every other point farther than
    MATCH_GAP), or -1 when it lies farther than MATCH_GAP from every point;
    GeometryError for a matrix that is neither."""
    d, j = tree.query(np.reshape(mats, (-1, 9)), k=2)
    match = (d[:, 0] <= MATCH_TOL) & (d[:, 1] > MATCH_GAP)
    clear = d[:, 0] > MATCH_GAP
    if not np.all(match | clear):
        raise GeometryError("matrix is neither a group element nor clear of one")
    return np.where(match, j[:, 0], -1)


class ElementBall:
    """The elements of a group ball with integer ids: element i is mats[i].

    rank[i] is the position of element i in the byte order of its
    `_stable_key`.  Row i of the relative table rel[i, j] = id(g_i^-1 g_j)
    is computed on first use and kept with the ball, as row _slot[i] of
    _table; an entry whose product lies outside the ball is -1, and reading
    it raises GeometryError.
    """

    def __init__(self, mats, rank):
        self.mats = mats
        self.rank = rank
        self._tree = None
        self._slot = np.full(len(mats), -1, dtype=np.intp)
        self._table = np.empty((0, len(mats)), dtype=np.intp)

    def _ids(self, mats):
        if self._tree is None:
            self._tree = cKDTree(self.mats.reshape(-1, 9))
        return _identify(self._tree, mats)

    def lookup(self, g):
        """Id of the element g; GeometryError if g is not one of the ball."""
        i = int(self._ids(g)[0])
        if i < 0:
            raise GeometryError("matrix is not an element of the ball")
        return i

    def relative_ids(self, i, j):
        """The ids rel[i, j] of g_i^-1 g_j, entry by entry over the
        broadcast integer arrays i and j; the rows still missing are
        computed together, from one batched `inv` and one tree query."""
        i = np.asarray(i)
        need = self._slot[i] < 0
        if need.any():
            missing = np.unique(i[need])
            inv = np.linalg.inv(self.mats[missing])
            rows = self._ids(inv[:, None] @ self.mats).reshape(len(missing), -1)
            self._slot[missing] = len(self._table) + np.arange(len(missing))
            self._table = np.concatenate([self._table, rows])
        out = self._table[self._slot[i], j]
        if np.any(out < 0):
            raise GeometryError("relative element outside the ball")
        return out

    def relative(self, i, js):
        """The ids rel[i, j] of g_i^-1 g_j for the ids j in `js`, as a list."""
        return self.relative_ids(i, np.fromiter(js, dtype=np.intp)).tolist()


def _boost(t):
    return np.array(
        [
            [math.cosh(t), 0.0, math.sinh(t)],
            [0.0, 1.0, 0.0],
            [math.sinh(t), 0.0, math.cosh(t)],
        ]
    )


def _rot(phi):
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


class FuchsianGroup:
    """Cocompact Fuchsian group with an explicit fundamental polygon.

    Generators are SO(2,1) matrices acting on the hyperboloid
    x1^2 + x2^2 - x3^2 = -1, x3 > 0, extended to AdS_3 by fixing x4.

    A group keeps what depends on it and on nothing else: its element
    balls by radius (`ball`), and, per ray count, the certified starting
    surface of the last ray set and start heights that a solve started
    from (`_start_surface`).
    """

    def __init__(self, generators, genus, vertices, side_normals):
        self.generators = [np.asarray(g, dtype=float) for g in generators]
        self.genus = genus
        self.vertices = np.asarray(vertices, dtype=float)
        self.side_normals = np.asarray(side_normals, dtype=float)
        self._element_cache = {}
        self._start_cache = {}

    @property
    def chi(self):
        return 2 - 2 * self.genus

    @property
    def symmetric_generators(self):
        return self.generators + [np.linalg.inv(g) for g in self.generators]

    def domain_area(self):
        """Area of the fundamental polygon from its vertex angles."""
        return HyperbolicOps.polygon_area(self.vertices)

    def contains(self, p, tol=1e-9):
        """Is the hyperboloid point p inside the fundamental polygon?"""
        return bool(np.all(self.side_normals @ (HyperbolicOps.form * p) <= tol))

    def elements(self, radius):
        """The distinct elements moving the center o = (0, 0, 1) by at most
        `radius`, stacked (m, 3, 3), by displacement; the identity first."""
        return self.ball(radius).mats

    def ball(self, radius):
        """The `ElementBall` of `elements(radius)`, cached per radius.

        Breadth-first from the identity through the side pairings, keeping
        only elements inside the ball and, of equal products, the first
        formed.  This reaches every element of the ball: the octagon is the
        Dirichlet polygon at o, so every g != id has a side pairing s with
        d(o, s^-1 g o) < d(o, g o), and g is reached from s^-1 g, which
        lies in the ball too.
        """
        key = round(radius, 6)
        if key in self._element_cache:
            return self._element_cache[key]
        gens = np.array(self.symmetric_generators)
        cosh_r = math.cosh(radius)
        frontier = np.eye(3)[None]
        found = [frontier]
        while len(frontier):
            known = cKDTree(np.concatenate(found).reshape(-1, 9))
            stack = np.einsum("gij,fjk->gfik", gens, frontier).reshape(-1, 3, 3)
            stack = stack[stack[:, 2, 2] <= cosh_r]
            stack = stack[_identify(known, stack) < 0]
            flat = stack.reshape(-1, 9)
            pairs = cKDTree(flat).query_pairs(MATCH_GAP, output_type="ndarray")
            if np.any(np.linalg.norm(flat[pairs[:, 0]] - flat[pairs[:, 1]], axis=1)
                      > MATCH_TOL):
                raise GeometryError("products neither equal nor clear of each other")
            frontier = np.delete(stack, pairs[:, 1], axis=0)
            found.append(frontier)
        elems = np.concatenate(found)
        keys = [_stable_key(m, 10.0) for m in elems]
        order = sorted(range(len(elems)), key=lambda i: (elems[i][2, 2], keys[i]))
        by_key = sorted(range(len(order)), key=lambda p: keys[order[p]])
        rank = np.argsort(by_key)
        self._element_cache[key] = ElementBall(elems[order], rank)
        return self._element_cache[key]

    def side_pairing_walk(self):
        """Trace the corner cycle of the fundamental polygon.

        Returns the visited corner indices and the product of the side
        pairings around the cycle; for a closed surface group the product
        is the identity and the corner angles sum to 2 pi.
        """
        v = self.vertices
        k = len(v)
        half = k // 2
        side_map = {}
        for j in range(half):
            side_map[(j + half) % k] = (self.generators[j], j)
            side_map[j] = (np.linalg.inv(self.generators[j]), (j + half) % k)
        corner = 0
        side = 0
        product = np.eye(3)
        visited = []
        for _ in range(k):
            visited.append(corner)
            g, target = side_map[side]
            product = g @ product
            image = g @ v[corner]
            dists = np.linalg.norm(v - image, axis=1)
            corner = int(np.argmin(dists))
            if dists[corner] > 1e-9:
                raise GeometryError("side pairing does not permute the corners")
            sides_at = {corner, (corner - 1) % k}
            sides_at.discard(target)
            side = sides_at.pop()
        return visited, product


def genus2_group():
    """Regular-octagon genus-2 group with opposite-side pairings.

    The regular hyperbolic octagon with vertex angle pi/4 has all eight
    vertices identified; pairing opposite sides by translations along the
    axes through the side midpoints generates the surface group.
    """
    n = 8
    cosh_r = 1.0 / math.tan(math.pi / n) ** 2
    R = math.acosh(cosh_r)
    d = math.asinh(math.sin(math.pi / n) * math.sinh(R))
    verts = []
    for j in range(n):
        th = 2 * math.pi * j / n
        verts.append(
            [math.sinh(R) * math.cos(th), math.sinh(R) * math.sin(th), math.cosh(R)]
        )
    side_normals = []
    gens = []
    for j in range(n):
        phi = 2 * math.pi * (j + 0.5) / n
        side_normals.append(_rot(phi) @ np.array([math.cosh(d), 0.0, math.sinh(d)]))
        if j < n // 2:
            gens.append(_rot(phi) @ _boost(2.0 * d) @ _rot(-phi))
    return FuchsianGroup(gens, 2, verts, side_normals)


# -- configurations -------------------------------------------------------------


def admissible_targets(k, chi):
    """Membership in K(n): negative entries with sum above 2 pi chi."""
    k = np.asarray(k, dtype=float)
    return bool(np.all(k < 0) and np.sum(k) > 2 * np.pi * chi)


def check_rays(group, rays):
    """The ray base points as an (n, 3) array, once each is checked to lie
    on the hyperboloid and inside the fundamental domain of `group`; else
    GeometryError."""
    rays = np.atleast_2d(np.asarray(rays, dtype=float))
    if rays.ndim != 2 or rays.shape[1] != 3:
        raise GeometryError(f"rays must be an (n, 3) array, got {rays.shape}")
    for p in rays:
        with np.errstate(over="ignore", invalid="ignore"):  # a huge ray is refused here
            on = abs(HyperbolicOps.inner(p, p) + 1.0) <= 1e-9 and p[2] > 0
        if not on:
            raise GeometryError("ray base point not on the hyperboloid")
        if not group.contains(p, tol=1e-6):
            raise GeometryError("ray base point outside the fundamental domain")
    return rays


def _check_heights(heights, n):
    """The heights as an array, once there is one per ray, each strictly
    inside (0, pi/2); else GeometryError."""
    heights = np.asarray(heights, dtype=float)
    if heights.shape != (n,):
        raise GeometryError("one height per ray required")
    # NaN fails both comparisons, so it is rejected too
    if not np.all((heights > 0) & (heights < np.pi / 2)):
        raise GeometryError("heights must lie strictly inside (0, pi/2)")
    return heights


@dataclass
class FuchsianConfig:
    """Half-ray base points in the fundamental domain plus heights/targets.

    The hull is truncated by a certified radius, not by word length.
    """

    group: FuchsianGroup
    rays: np.ndarray
    heights: np.ndarray = None
    targets: np.ndarray = None

    def __post_init__(self):
        self.rays = check_rays(self.group, self.rays)
        if self.heights is not None:
            self.heights = _check_heights(self.heights, len(self.rays))
        if self.targets is not None:
            self.targets = np.asarray(self.targets, dtype=float)
            if self.targets.shape != (len(self.rays),):
                raise GeometryError("one curvature target per ray required")
            if not admissible_targets(self.targets, self.group.chi):
                raise GeometryError(
                    "targets must be negative with sum above 2 pi chi(S)"
                )

    @property
    def n(self):
        return len(self.rays)

    def with_heights(self, h):
        """This configuration at the heights h, without targets; its rays
        were checked once, so only the heights are."""
        return _config_on_checked_rays(self.group, self.rays, h)


def _config_on_checked_rays(group, rays, heights):
    """A `FuchsianConfig` on rays that `check_rays` has accepted, at the
    given heights and without targets: only the heights are checked."""
    cfg = object.__new__(FuchsianConfig)
    cfg.group, cfg.rays, cfg.targets = group, rays, None
    cfg.heights = _check_heights(heights, len(rays))
    return cfg


# -- orbit hulls and vertex stars -----------------------------------------------


class FuchsianSurface:
    """A convex Fuchsian surface: its faces, with the certified stars at
    the fundamental vertices as one `VertexStars` table, `stars`, and their
    `_star_pass`, `star_pass`, taken on first read unless handed over.

    The faces are those of one of two builds.  An orbit hull truncated at
    displacement `radius` (`orbit_hull`) holds every face of the truncated
    surface.  The surface of certified fixed stars (`_star_surface`, the
    end of a solve) holds only the triangles of the fundamental stars, one
    face each, on the ball of radius `radius` = R0 that they were certified
    on; it has `from_stars` set, and `star_at` refuses its other vertices.

    Vertex vid is the point of ray vid % n moved by elements[vid // n],
    the element with id vid // n of `ball`.  Fans and star cycles start at
    the least vertex by ray, then by element rank: the order of the keys
    order_keys[vid] = ray len(ball) + rank.

    The faces are arrays; no object stands for a face:
    triangles     : (T, 3) the space-like hull triangles visible from the
                    chart origin, each row ascending
    triangle_face : (T,) the merge label of each triangle, the face it
                    belongs to; faces are numbered by their least triangle
    poles         : (F, 4) the future unit pole of each face plane
    The faces at the fundamental vertices are the same on both builds, so
    the dual surface, the Jacobian, the projections and the quotient counts
    read either.  `face_rows(fis)` reads the vertex ids of faces,
    ascending, and `faces_at(vid)` the faces at a vertex, ascending; both
    are CSR rows.
    `face_cycle(fi)` is the cyclic order of the face from its least vertex,
    computed from the chart on first read.  The stars never read it for a
    triangle, only for a larger face from a coplanar merge; the layout and
    the face areas read it for the faces around the fundamental vertices.
    """

    def __init__(self, config, ball, points4, chart, triangles, triangle_face, poles,
                 radius):
        self.config = config
        self.ball = ball
        self.elements = ball.mats
        self.points4 = points4
        self.chart = chart
        self.triangles = triangles
        self.triangle_face = triangle_face
        self.poles = poles
        self.radius = radius
        self.order_keys = (ball.rank[:, None] + np.arange(self.n) * len(ball.rank)
                           ).ravel().tolist()
        self.stars = None
        self.from_stars = False
        self._cycles = {}
        # the vertex set of each face, ascending, from one sort of the
        # (face, vertex) pairs of its triangles; face fi has the vertices
        # _face_vertices[_face_start[fi]:_face_start[fi + 1]]
        m = len(points4)
        pairs = np.sort(triangle_face[:, None] * m + triangles, axis=None)
        pairs = pairs[np.concatenate([[True], pairs[1:] != pairs[:-1]])]
        face, self._face_vertices = np.divmod(pairs, m)
        self._face_start = np.searchsorted(face, np.arange(len(poles) + 1))
        # incidence as CSR: the faces at vertex v, ascending, are
        # _incident_faces[_incidence_start[v]:_incidence_start[v + 1]]
        by_vertex = np.argsort(self._face_vertices, kind="stable")
        self._incident_faces = face[by_vertex]
        self._incidence_start = np.searchsorted(self._face_vertices[by_vertex],
                                                np.arange(m + 1))

    @property
    def group(self):
        return self.config.group

    @property
    def heights(self):
        return self.config.heights

    @property
    def n(self):
        return self.config.n

    def base_of(self, vid):
        return vid % self.n

    def element_of(self, vid):
        return self.elements[vid // self.n]

    @cached_property
    def star_pass(self):
        """The `_star_pass` of `stars`: what `cone_angles`, `curvatures`,
        `jacobian` and `minkowski_dual` read."""
        return _star_pass(self.stars, self.points4)

    def star_at(self, vid):
        """Star of a hull vertex, as a table of one star.  The fundamental
        ones are cached; any other is certified like them, or
        GeometryError, as for an id that is no vertex of the hull and for
        any other vertex of a surface built from its stars."""
        if not 0 <= vid < len(self.points4):
            raise GeometryError(f"vertex {vid} is not a vertex of the hull")
        if vid < self.n:
            return self.stars[vid]
        if self.from_stars:
            raise GeometryError(f"vertex {vid}: this surface holds only its fundamental "
                                "stars")
        return _certified_stars(self, [vid])

    def star_combinatorics(self):
        """The neighbour cycle of each fundamental star as (ray, element id)
        labels, started at its least vertex under `order_keys` and read in
        the direction whose keys come first."""
        key = self.order_keys
        nbrs, offsets = self.stars.neighbors.tolist(), self.stars.offsets.tolist()
        out = []
        for lo, hi in zip(offsets, offsets[1:]):
            cyc = nbrs[lo:hi]
            pivot = min(range(len(cyc)), key=lambda j: key[cyc[j]])
            cyc = cyc[pivot:] + cyc[:pivot]
            rev = [cyc[0]] + cyc[1:][::-1]
            cyc = min(cyc, rev, key=lambda c: [key[v] for v in c])
            out.append(tuple((v % self.n, v // self.n) for v in cyc))
        return tuple(out)

    def face_rows(self, fis):
        """The faces fis by size k: per size, the positions in fis of the
        faces of k vertices and their vertex ids (m, k), ascending."""
        lo = self._face_start[fis]
        sizes = self._face_start[np.asarray(fis) + 1] - lo
        out = []
        for k in sorted(set(sizes.tolist())):
            at = np.flatnonzero(sizes == k)
            out.append((at, self._face_vertices[lo[at, None] + np.arange(k)]))
        return out

    def fans(self, vid):
        """The faces at vertex vid, ascending, each with its fan from its
        least vertex under `order_keys` and the false edges of the fan.  A
        triangle is its own fan, read from its vertex ids; a larger face is
        read in cyclic order."""
        lo, hi = self._incidence_start[vid:vid + 2]
        fis = self._incident_faces[lo:hi]
        start = self._face_start[fis]
        sizes = self._face_start[fis + 1] - start
        heads = self._face_vertices[start[:, None] + np.arange(3)].tolist()
        return [(fi, ([ids], ()) if k == 3 else _fan(self.face_cycle(fi), self.order_keys))
                for fi, k, ids in zip(fis.tolist(), sizes.tolist(), heads)]

    def face_cycle(self, fi):
        """The vertex ids of face fi in cyclic order, from the least one."""
        return self.face_cycles([fi])[0]

    def face_cycles(self, fis):
        """`face_cycle` of each face of fis: those not yet ordered are
        ordered together, one batched SVD per face size."""
        todo = [fi for fi in dict.fromkeys(fis) if fi not in self._cycles]
        if todo:
            for at, rows in self.face_rows(todo):
                self._cycles.update(zip([todo[p] for p in at.tolist()],
                                        cyclic_orders(self.chart, rows).tolist()))
        return [self._cycles[fi] for fi in fis]

    def faces_at(self, vid):
        lo, hi = self._incidence_start[vid:vid + 2]
        return self._incident_faces[lo:hi].tolist()

    def check_equivariance(self, tol=EPS_EQUIVARIANT, n_generators=None):
        """Fundamental-vertex stars match the stars at their translates.

        The translates are read from a hull wider by the largest generator
        displacement (2d for the octagon), so their stars certify too.
        """
        gens = self.group.generators
        if n_generators is not None:
            gens = gens[:n_generators]
        shift = max(math.acosh(g[2, 2]) for g in gens)
        wide = _certified_hull(self.config, min(self.radius + shift, R_MAX))
        for g in gens:
            m = extend_isometry(g)
            for vid in range(self.n):
                moved = m @ wide.points4[vid]
                target = wide._find_vertex(moved, tol)
                if target is None:
                    raise GeometryError("orbit vertex image missing from the hull")
                a = cone_angle_at(self, vid)
                b = cone_angle_at(wide, target)
                if abs(a - b) > tol * 10:
                    raise GeometryError(
                        f"cone angle not equivariant: {a:.12f} vs {b:.12f}"
                    )
                # face planes at the vertex map onto face planes at the image
                moved_poles = self.poles[self.faces_at(vid)] @ m.T
                moved_poles[moved_poles[:, 3] < 0] *= -1.0
                there = wide.poles[wide.faces_at(target)]
                gap = np.linalg.norm(moved_poles[:, None] - there[None], axis=2)
                if not np.all(np.any(gap < tol * 10, axis=1)):
                    raise GeometryError("face planes not equivariant")
        return True

    def _find_vertex(self, point, tol):
        d = np.linalg.norm(self.points4 - point, axis=1)
        j = int(np.argmin(d))
        return j if d[j] < tol * 10 else None

    def quotient_counts(self):
        """(V, E, F) of the quotient cell structure (true edges only)."""
        V = self.n
        E = int(np.count_nonzero(self.stars.true_edge)) // 2
        _, _, reps = _face_orbits(self, _wedge_faces(self))
        return V, E, len(reps)

    def face_area(self, fi):
        """Hyperbolic area of a space-like face via its angle sum."""
        return ADS_STAR.polygon_area(self.points4[self.face_cycle(fi)])

    def quotient_area(self):
        """Total face area of a fundamental set of faces: per face orbit,
        the copy met last among the wedges of the fundamental stars."""
        faces = _wedge_faces(self)
        _, orbit, _ = _face_orbits(self, faces)
        at = dict(zip(faces, orbit.tolist()))
        last = {at[fi]: fi for fi in self.stars.wedge_face.tolist()}
        return float(sum(self.face_area(last[o]) for o in sorted(last)))


def _wedge_faces(surf):
    """The faces of the wedges of the fundamental stars, each once, in the
    order first met."""
    return list(dict.fromkeys(surf.stars.wedge_face.tolist()))


def _fan(cycle, key):
    """Fan of a face in cyclic order from its least vertex under `key`:
    triangles and false edges."""
    start = min(range(len(cycle)), key=lambda i: key[cycle[i]])
    ids = cycle[start:] + cycle[:start]
    v0 = ids[0]
    tris = [(v0, ids[t], ids[t + 1]) for t in range(1, len(ids) - 1)]
    false_edges = {frozenset((v0, ids[t])) for t in range(2, len(ids) - 1)}
    return tris, false_edges


def _build_stars(surf, vids):
    """The stars at `vids` as one table.  The star at vid holds the wedges
    at vid of the fans of its faces, closed into a cycle from the neighbour
    of least order key toward the lesser of its two."""
    vids = list(vids)
    key = surf.order_keys
    cycles, true_edge, wedge_faces = [], [], []
    for vid in vids:
        fans = surf.fans(vid)
        if len(fans) < 2:
            raise GeometryError("vertex star is incomplete (truncation too small)")
        adj = {}
        false_edges = set()
        wedge_face = {}
        for fi, (tris, fe) in fans:
            false_edges.update(fe)
            for tri in tris:
                if vid in tri:
                    a, b = (u for u in tri if u != vid)
                    adj.setdefault(a, []).append(b)
                    adj.setdefault(b, []).append(a)
                    wedge_face[a, b] = wedge_face[b, a] = fi
        if not adj or any(len(vs) != 2 for vs in adj.values()):
            raise GeometryError("vertex star is not a disk")
        # each neighbour has two neighbours in the link, so the walk comes
        # back to its start; it comes back early when the link is not one cycle
        m = len(adj)
        start = min(adj, key=key.__getitem__)
        cycle = [start]
        prev = None
        while True:
            cands = [u for u in adj[cycle[-1]] if u != prev]
            nxt = cands[0] if len(cands) == 1 else min(cands, key=key.__getitem__)
            prev = cycle[-1]
            if nxt == start:
                break
            cycle.append(nxt)
        if len(cycle) != m:
            raise GeometryError("vertex star does not close")
        wf = [wedge_face.get((u, cycle[(j + 1) % m])) for j, u in enumerate(cycle)]
        if None in wf:
            raise GeometryError("wedge missing from the star triangulation")
        cycles.append(cycle)
        true_edge += [frozenset((vid, u)) not in false_edges for u in cycle]
        wedge_faces += wf
    return VertexStars.stacked(vids, cycles, true_edge, wedge_faces)


def orbit_hull(config):
    """Convex hull of the orbits: the space-like surface component.

    The hull is taken in the projective chart x4 = 1, where H* sits at the
    origin; the surface faces are the hull facets visible from the origin.
    It is built from the elements moving the octagon center o by at most R,
    starting at R = R0 = 5.5, and every face of the fundamental vertex
    stars is certified to support the whole orbit (`_supports_orbit`), so
    the stars are exact.  An uncertified build grows R by R_STEP = 0.5; past
    R_MAX = 10 the build raises GeometryError.  The faces are arrays, not
    objects (see `FuchsianSurface`).  A build orders no triangle: the stars
    read a triangle's vertices from its vertex set, and order only the
    larger faces of coplanar merges at the fundamental vertices; any other
    face is ordered when its `face_cycle` is first read, and the faces that
    the projections read are ordered together, one SVD per face size.

    The solver builds one only to start, unless the group kept that
    start (`_start_surface`), and after a failed repair: a solve that
    ends on certified stars returns their surface (`_star_surface`),
    whose faces at the fundamental vertices are those of this hull.
    """
    return _certified_hull(config)


def _certified_hull(config, radius=R0):
    """`orbit_hull` from a first radius of `radius`."""
    if config.heights is None:
        raise GeometryError("orbit_hull needs heights")
    while True:
        surf = _truncated_hull(config, radius)
        try:
            surf.stars = _certified_stars(surf, range(config.n))
            return surf
        except GeometryError as exc:
            if radius + R_STEP > R_MAX:
                raise GeometryError(
                    f"orbit hull stars not certified by radius {radius:g}: {exc}"
                ) from exc
        radius += R_STEP


def _certified_stars(surf, vids):
    """The stars at `vids`, once one `_supports_orbit` call certifies all
    their faces; else GeometryError."""
    stars = _build_stars(surf, vids)
    if not _supports_orbit(surf, stars.wedge_face):
        raise GeometryError(
            f"a face at vertices {list(vids)} may not support the orbit beyond "
            f"radius {surf.radius:g}"
        )
    return stars


def _supports_orbit(surf, face_ids):
    """Do the planes of these hull faces support the whole orbit?

    An omitted orbit point x = (cos h_b q, sin h_b) of ray b has
    d(o, q) >= s_b = R - d(o, r_b).  With the future unit pole p of a face,
    <x, p> >= cos h_b (-p3 cosh s - |p12| sinh s) - sin h_b p4 at s = d(o, q);
    the bound increases in s >= s_b once tanh(s_b) (-p3) >= |p12|.  When it
    is then positive at s_b for every ray, every omitted point lies strictly
    on the side <x, p> > 0 of the plane, where the hull keeps the points of
    the truncation.
    """
    rise, b, bound = _orbit_bound(surf.poles[face_ids], surf.heights, surf.config.rays,
                                  surf.radius)
    return bool(np.all((rise >= b) & (bound > 0)))


def _orbit_bound(poles, heights, rays, radius):
    """The terms of `_supports_orbit`, per pole (row) and ray (column):
    tanh(s_b) (-p3), |p12| and the lower bound on <x, p> at s_b."""
    s = radius - np.arccosh(np.maximum(rays[:, 2], 1.0))
    a = -poles[:, 2:3]
    b = np.hypot(poles[:, 0], poles[:, 1])[:, None]
    bound = (np.cos(heights) * (a * np.cosh(s) - b * np.sinh(s))
             - np.sin(heights) * poles[:, 3:4])
    return np.tanh(s) * a, b, bound


class _FixedStars:
    """Fundamental stars at other heights than those of the orbit hull they
    came from, certified by `_fixed_star_trial` to be the stars of the
    orbit hull there: what `curvatures`, `jacobian` and the next
    certificate read of a surface.  wedge_poles[j] is the certificate's
    future unit pole of the triangle of row j, what `_star_surface`
    reads."""

    def __init__(self, surf, config, points4, stars, wedge_poles):
        self.config = config
        self.points4 = points4
        self.ball = surf.ball
        self.elements = surf.elements
        self.order_keys = surf.order_keys
        self.radius = surf.radius
        self.stars = stars
        self.wedge_poles = wedge_poles

    n = FuchsianSurface.n
    base_of = FuchsianSurface.base_of
    star_pass = FuchsianSurface.star_pass


def _star_surface(fixed):
    """The `FuchsianSurface` of the certified fixed stars `fixed`, built
    from their triangles in one array pass with no hull.

    Its faces are the star triangles (v, y_j, y_j+1), each once: told
    apart by their sorted vertex ids and numbered by their first row, with
    the certificate's poles; `triangle_face` is the identity.  The stars
    keep their table with these faces as wedge faces, and the surface the
    `star_pass` the solve has read.  No merge is needed: the certificate
    refuses a false edge and puts every other orbit point more than
    4 MERGE_TOL beyond each triangle's plane, so no two wedges share a
    face; a surface whose hull merges coplanar triangles never becomes
    fixed stars.
    """
    stars, points4 = fixed.stars, fixed.points4
    tris = np.sort(_wedge_triangles(stars), axis=1)
    m = len(points4)
    _, first, face = np.unique((tris[:, 0] * m + tris[:, 1]) * m + tris[:, 2],
                               return_index=True, return_inverse=True)
    rows = np.sort(first)
    surf = FuchsianSurface(fixed.config, fixed.ball, points4,
                           points4[:, :3] / points4[:, 3:4], tris[rows],
                           np.arange(len(rows)), fixed.wedge_poles[rows], fixed.radius)
    # the faces by first row: the rank of each triangle's first row
    surf.stars = replace(stars, wedge_face=np.argsort(np.argsort(first))[face.ravel()])
    surf.star_pass = fixed.star_pass
    surf.from_stars = True
    return surf


def _fixed_star_trial(surf, config):
    """The stars of `surf` at the heights of `config` when a certificate
    proves that `_certified_hull(config)` has the same stars; else None.
    When the certificate finds orbit points on the wrong side of star
    triangles, the stars are re-cut there (`_recut_stars`) and certified
    once more.

    The certificate asks that surf was certified at R0, so the same ball
    gives the same vertex ids, and that every star edge is true.  At the
    new points, each star triangle (v, y_j, y_j+1) must be space-like
    (<p, p> < -1e-12 before scaling) and visible from the chart origin
    (p4 > 1e-9 |p123|), and every other orbit point x of the ball must lie
    strictly on its plane's hull side, <x, p> > 4 MERGE_TOL |x|: by
    Cauchy-Schwarz no other hull triangle's pole lies within MERGE_TOL of
    p, so the triangle is a hull face of its own.  The `_supports_orbit`
    bound at R0 must hold with a margin (bound > 1e-12, rising by a
    relative 1e-9), so the hull certifies these faces at R0.  The triangles
    around v then close into the hull's star at v, read in the order of
    `_build_stars`, so the cone angles and Jacobian are those of the
    hull bit for bit.  A repaired star is read in that order too, so the
    certificate makes no difference between kept and re-cut stars.
    """
    if surf.radius != R0 or not surf.stars.true_edge.all():
        return None
    points4 = orbit_points(surf.elements, config.rays, config.heights)
    margin = 4 * MERGE_TOL * np.linalg.norm(points4, axis=1)[:, None]
    stars = surf.stars
    poles, wrong, planes = _star_certificate(stars, points4, margin, config)
    if wrong.any():
        stars = _recut_stars(stars, points4, poles, wrong, surf.order_keys)
        if stars is None:
            return None
        poles, wrong, planes = _star_certificate(stars, points4, margin, config)
    if wrong.any() or not planes:
        return None
    return _FixedStars(surf, config, points4, stars, poles)


def _wedge_triangles(stars):
    """The triangle (v, y_j, y_j+1) of each row j of the star table
    `stars`, (rows, 3) in stacking order."""
    star, nxt, _ = _star_rows(stars.offsets)
    return np.stack([stars.vertex[star], stars.neighbors, stars.neighbors[nxt]], axis=1)


def _star_certificate(stars, points4, margin, config):
    """The certificate of `_fixed_star_trial` on `stars` with their
    vertices at points4: (poles, wrong, planes), the future unit poles p_t
    of the star triangles t in stacking order, wrong[x, t] telling that
    orbit point x, not a vertex of t, fails <x, p_t> > margin[x], and
    planes that every triangle is a space-like plane visible from the
    chart origin which passes the `_supports_orbit` bound with its
    margin."""
    tris = _wedge_triangles(stars)
    poles, q = triangle_poles(points4, tris, ADS_STAR, ADS_STAR.e)
    # <x, p> under the form is the Euclidean product with form * p; a NaN
    # side is wrong too
    wrong = ~(points4 @ (poles * ADS_STAR.form).T > margin)
    wrong[tris, np.arange(len(tris))[:, None]] = False
    rise, b, bound = _orbit_bound(poles, config.heights, config.rays, R0)
    return poles, wrong, bool(
        np.all(q < -EPS_SPACELIKE)
        and np.all(poles[:, 3] > 1e-9 * np.linalg.norm(poles[:, :3], axis=1))
        and np.all((rise > (1 + 1e-9) * b) & (bound > 1e-12)))


def _recut_stars(stars, points4, poles, wrong, keys):
    """The stars re-cut where the certificate found orbit points on the
    wrong side of their triangles; None when a star cannot be re-cut.

    A star's candidates are its neighbours and the points on the wrong
    side of one of its triangles.  Its new neighbours are the candidates
    that are extreme seen from its vertex v: the vertices of the 2-D hull
    of their gnomonic images x -> (x . u, x . w) / x . a, where a is the
    sum of form * p over the poles p of the star's triangles (`poles`, in
    the certificate's order), u is form * p of its first triangle and
    w = cross4(v, a, u), so that u, w and a span the covectors that vanish
    at v.  When x . a > 0 for every candidate they lie in one open
    half-space, and the hull's vertices are the extreme rays of the cone
    they span from v.  The cycle is read in the order of `_build_stars`: from
    the neighbour of least key toward the lesser of its two.  All stars
    share one pass: the candidates from one mask, the images from one
    `einsum` and one sort, then a pure-Python hull per star.
    """
    col_star, _, _ = _star_rows(stars.offsets)
    first = stars.offsets[:-1]
    covectors = poles * ADS_STAR.form
    a, u = np.add.reduceat(covectors, first), covectors[first]
    basis = np.stack([u, cross4(points4[stars.vertex], a, u), a], axis=1)  # (s, 3, 4)
    cand = np.zeros((len(stars), len(points4)), dtype=bool)
    cand[col_star, stars.neighbors] = True
    rows, cols = np.nonzero(wrong)
    cand[col_star[cols], rows] = True
    star_of, ids = np.nonzero(cand)
    uwa = np.einsum("kd,kcd->kc", points4[ids], basis[star_of])
    if not np.all(uwa[:, 2] > 0):
        return None
    x, y = uwa[:, 0] / uwa[:, 2], uwa[:, 1] / uwa[:, 2]
    # each star's candidates by x, then y: the order of the monotone chain
    order = np.lexsort((y, x, star_of))
    ends = np.cumsum(np.bincount(star_of, minlength=len(stars))).tolist()
    ids, x, y = ids[order].tolist(), x[order].tolist(), y[order].tolist()
    cycles = []
    for lo, hi in zip([0] + ends, ends):
        cycle = [ids[i] for i in _hull_2d(x, y, range(lo, hi))]
        if len(cycle) < 3:
            return None
        i = min(range(len(cycle)), key=lambda j: keys[cycle[j]])
        cycle = cycle[i:] + cycle[:i]
        if keys[cycle[-1]] < keys[cycle[1]]:
            cycle = cycle[:1] + cycle[:0:-1]
        cycles.append(cycle)
    return VertexStars.stacked(stars.vertex, cycles)


def _hull_2d(x, y, order):
    """The vertices of the convex hull of the points (x[i], y[i]) for i in
    `order`, which runs by x, then y: Andrew's monotone chain, counter-
    clockwise; points on an edge are not vertices."""

    def chain(idx):
        out = []
        for i in idx:
            xi, yi = x[i], y[i]
            while len(out) > 1:
                a, b = out[-2], out[-1]
                if (x[b] - x[a]) * (yi - y[a]) - (y[b] - y[a]) * (xi - x[a]) > 0:
                    break
                out.pop()
            out.append(i)
        return out

    return chain(order)[:-1] + chain(order[::-1])[:-1]


def _truncated_hull(config, radius):
    """Orbit hull of the elements within `radius`, without stars."""
    n = config.n
    ball = config.group.ball(radius)
    points4 = orbit_points(ball.mats, config.rays, config.heights)
    chart = points4[:, :3] / points4[:, 3:4]

    try:
        ch = EuclideanHull(chart)
    except QhullError as exc:
        raise GeometryError(f"degenerate orbit configuration: {qhull_reason(exc)}") from exc

    # the hull vertices ascending: the fundamental ones are hull vertices
    # when the first n of them are 0, ..., n - 1
    hull_vertices = np.sort(ch.vertices)
    if len(hull_vertices) < n or hull_vertices[n - 1] != n - 1:
        raise GeometryError(
            "vertices not in convex position (a ray point is inside the hull)"
        )

    # faces visible from the origin, with future poles; time-like planes
    # are truncation artifacts
    simplices = ch.simplices[ch.equations[:, 3] > 1e-13]
    poles, q = triangle_poles(points4, simplices, ADS_STAR, ADS_STAR.e)
    spacelike = q < -EPS_SPACELIKE
    simplices, poles = simplices[spacelike], poles[spacelike]
    # merged over the triangle indices, each face's "vertex ids" are the
    # indices of its triangles, so the merge labels come out exact
    first, members = merge_triangles(np.arange(len(simplices))[:, None], poles)
    sizes = np.fromiter(map(len, members), dtype=np.intp, count=len(members))
    triangle_face = np.empty(len(simplices), dtype=np.intp)
    triangle_face[np.fromiter(itertools.chain.from_iterable(members), dtype=np.intp,
                              count=len(simplices))] = np.repeat(np.arange(len(sizes)), sizes)
    return FuchsianSurface(config, ball, points4, chart, np.sort(simplices, axis=1),
                           triangle_face, poles[first], radius)


# -- the star kernel: cone angles and the Jacobian --------------------------------


def _star_rows(offsets):
    """Per row of the stars stacked at `offsets`: its star, and the rows of
    the next and of the previous neighbour in that star's cycle."""
    offsets = np.asarray(offsets, dtype=np.intp)
    sizes = np.diff(offsets)
    star = np.repeat(np.arange(len(sizes)), sizes)
    first, size = offsets[star], sizes[star]
    k = np.arange(offsets[0], offsets[-1]) - first
    return star, first + (k + 1) % size, first + (k - 1) % size


def star_geometry(xs, ys, offsets, sig=ADS_STAR):
    """Edge lengths ell, apex angles rho_x at the star vertex and rho_s at
    the neighbours, and wedge angles omega of stacked stars: star i has its
    vertex at xs[i] and its neighbour cycle at ys[offsets[i]:offsets[i + 1]].
    Each result is one row per neighbour, stacked the same way; omega[j]
    lies between neighbour j and the next one of its star.  One star is the
    call with offsets [0, m].  `sig` is the star quadric, `ADS_STAR` or
    `SPHERE_STAR`."""
    star, nxt, _ = _star_rows(offsets)
    x, m = xs[star], len(ys)
    # both ends of every edge in one pass: the tangents at x toward ys, then
    # those at ys toward x
    ends = np.concatenate([x, ys])
    t = sig.tangent(ends, np.concatenate([ys, x]))
    rho = sig.apex_angles(ends, t)
    return sig.dist(x, ys), rho[:m], rho[m:], sig.angle_between(t[:m], t[nxt])


def _star_pass(stars, pts, sig=ADS_STAR):
    """`star_geometry` of the star table `stars` with its vertices at
    `pts`: (ell, rho_x, rho_s, omega), one row per row of the table, what
    `_assemble` reads."""
    return star_geometry(pts[stars.vertex], pts[stars.neighbors], stars.offsets, sig)


def _cone_angles(stars, pts, sig=ADS_STAR):
    """Total wedge angle of each star with its vertices at `pts`: the cycle
    sums of the wedge angles of its `_star_pass`."""
    return cycle_sums(_star_pass(stars, pts, sig)[3], np.diff(stars.offsets))


def cone_angle_at(surf, vid):
    """Total face angle around one hull vertex, from its star."""
    return float(_cone_angles(surf.star_at(vid), surf.points4)[0])


def cone_angles(surf):
    """Cone angles at the fundamental vertices: the cycle sums of the
    wedge angles of the surface's `star_pass`."""
    return cycle_sums(surf.star_pass[3], np.diff(surf.stars.offsets))


def curvatures(surf):
    """Singular curvature is 2 pi minus the cone angle."""
    return 2.0 * np.pi - cone_angles(surf)


def _scalar_map(f, x):
    """f of one float, entry by entry over the array x: the `math`
    functions of a Trig, whose bits the numpy ones do not always match."""
    return np.fromiter(map(f, x.tolist()), dtype=float, count=len(x))


@dataclass
class JacobianMatrix:
    """Matrix of d(cone angle)_x / d(height)_y with its sign structure."""

    matrix: np.ndarray
    condition: float

    def is_diagonally_dominant(self):
        a = self.matrix
        d = np.abs(np.diag(a))
        col = np.sum(np.abs(a), axis=0) - np.abs(np.diag(a))
        return bool(np.all(d > col))


def _assemble(stars, star_pass, index, n, sig):
    """d omega_x / d h_y from the star table `stars` and its `_star_pass`;
    vertex v is row and column index(v) of the n x n matrix, `index` taking
    arrays of vertex ids.

    Per neighbour y of x, the dihedral sum D of the two wedges at the edge
    xy, each (S rho_other - cos omega S rho_y) / (sin omega C rho_y),
    vanishes on false edges and has the sign of kappa on true edges of a
    convex surface (negative in AdS_3, positive on S^3).  The chain rule
    through the apex triangles gives D C(rho_y) / S(ell) at (x, y) and
    -C(ell) D C(rho_x) / S(ell) on the diagonal; an edge joining x to its
    own orbit gives D C(rho_x) (1 - C(ell)) / S(ell).
    """
    S, C = sig.trig.S, sig.trig.C
    ell, rho_x, rho_s, omega = star_pass
    star, nxt, prv = _star_rows(stars.offsets)
    s, c = _scalar_map(S, rho_x), _scalar_map(C, rho_x)
    cos_w, sin_w = _scalar_map(math.cos, omega), _scalar_map(math.sin, omega)
    d = ((s[prv] - cos_w[prv] * s) / (sin_w[prv] * c)
         + (s[nxt] - cos_w * s) / (sin_w * c))
    true = stars.true_edge
    flat = ~true & (np.abs(d) > 1e-6)
    bad = np.flatnonzero(flat | (true & (-sig.kappa * d > 1e-9)))
    if len(bad):
        j = bad[0]
        if flat[j]:
            raise GeometryError(f"false edge with nonzero dihedral sum {d[j]:.2e}")
        raise GeometryError(
            f"surface is not convex along a true edge (dihedral sum {d[j]:.2e})"
        )
    ix, iy = index(stars.vertex[star][true]), index(stars.neighbors[true])
    d, c, ell = d[true], c[true], ell[true]
    s_ell, c_ell = _scalar_map(S, ell), _scalar_map(C, ell)
    loop = ix == iy
    diag = np.where(loop, d * c * (1.0 - c_ell) / s_ell, -c_ell * d * c / s_ell)
    off = d * _scalar_map(C, rho_s[true]) / s_ell
    # one bincount adds each cell's terms in star and cycle order
    cells = np.concatenate([(ix * n + iy)[~loop], ix * (n + 1)])
    J = np.bincount(cells, np.concatenate([off[~loop], diag]), n * n).reshape(n, n)
    cond = float(np.linalg.cond(J))
    logger.debug("jacobian condition number: %.3e", cond)
    return JacobianMatrix(J, cond)


def jacobian(surf):
    """d omega_x / d h_y of a Fuchsian surface, from its fundamental stars
    and their `star_pass`."""
    return _assemble(surf.stars, surf.star_pass, surf.base_of, surf.n, ADS_STAR)


# -- the prescribed-curvature solver ---------------------------------------------


def _freeze(surf):
    """Make the arrays of a surface, its star table and its star pass
    read-only."""
    for a in (surf.points4, surf.chart, surf.triangles, surf.triangle_face, surf.poles,
              surf._face_vertices, surf._face_start, surf._incident_faces,
              surf._incidence_start, *vars(surf.stars).values(), *surf.star_pass):
        a.flags.writeable = False


def _start_surface(config, h):
    """The certified surface that a solve on the rays of `config` from the
    start heights h begins on, kept by the group for the last ray set and
    h of each ray count.

    It is the orbit hull at h, or, when its vertices are not in convex
    position, at h blended toward equal heights, which always are; a
    blend that leaves h unchanged ends the search, and no start is found
    after 12 hulls.  A start that raises is not kept.  One start per ray
    count bounds what the group keeps however many ray sets are solved on
    it.  The kept surface is shared by every solve that starts there and
    is read-only: it is built on read-only copies of the rays and of its
    heights, so it aliases no caller's array, and its own arrays, star
    table and star pass are read-only (`_freeze`).
    """
    key = (config.rays.tobytes(), h.tobytes())
    cache = config.group._start_cache
    kept = cache.get(config.n)
    if kept is not None and kept[0] == key:
        return kept[1]
    rays = config.rays.copy()
    rays.flags.writeable = False
    h = h.copy()
    for _ in range(12):
        h.flags.writeable = False
        try:
            surf = orbit_hull(_config_on_checked_rays(config.group, rays, h))
        except GeometryError:
            blend = 0.5 * h + 0.5 * float(np.mean(h))
            if np.array_equal(blend, h):
                break
            h = blend
        else:
            _freeze(surf)
            cache[config.n] = (key, surf)
            return surf
    raise GeometryError("could not find a feasible starting surface")


def solve_prescribed_curvature(config, tol=1e-8, h0=None):
    """Heights whose Fuchsian surface has the prescribed vertex curvatures.

    Damped Newton iteration with the analytic Jacobian; when a cold start
    stalls, the target is reached by continuation along the straight
    segment (inside K(n)) from an evaluated feasible configuration.

    The starting surface is a certified hull, from h0 when it is given: one
    height per ray, each strictly inside (0, pi/2), else GeometryError before
    any hull is built.  The group keeps it for the last ray set and start of
    each ray count (`_start_surface`), so a later solve on the same group,
    rays and start builds no starting hull.  A line-search trial keeps or
    repairs the current surface's stars when `_fixed_star_trial` certifies
    them, and builds its certified hull only when the repair fails.  A solve
    that ends on certified stars builds no hull there: it returns the surface
    of their triangles (`_star_surface`), with the star pass whose curvatures
    it reports.

    Returns a dict with heights, achieved curvatures, residual, Jacobian
    condition number, iteration count and the surface.  Treat the surface
    as read-only: a solve that takes no Newton step returns the starting
    surface that the group shares with every solve from that start, whose
    arrays, star table and star pass refuse writes.
    """
    if config.targets is None:
        raise GeometryError("config has no curvature targets")
    k_target = config.targets
    n = config.n
    surf = _start_surface(config, np.full(n, 0.75) if h0 is None
                          else _check_heights(h0, n))
    h = surf.heights.copy()

    # Every trial is exact, a certified hull or certified fixed stars, so
    # each line-search trial is final.  A trial keeps the stars of the
    # current surface when the certificate allows, or repairs them, else
    # builds its hull; that fallback calls the builder, not `orbit_hull`, so
    # a trace tells it apart from the starting hull
    def evaluate(surf, hvec):
        cfg = config.with_heights(hvec)
        s = _fixed_star_trial(surf, cfg) or _certified_hull(cfg)
        return s, curvatures(s)

    k_now = curvatures(surf)
    iterations = 0
    last_cond = float("nan")

    # the Newton state: heights, surface and its curvatures; the surface
    # keeps the star pass that the next Jacobian reads
    def newton_to(target, h, surf, k_now):
        nonlocal iterations, last_cond
        r = k_now - target
        for _ in range(MAX_NEWTON):
            if np.max(np.abs(r)) <= tol:
                return h, surf, k_now, True
            Jm = jacobian(surf)
            last_cond = Jm.condition
            # k = 2 pi - omega, so dk/dh = -J; a singular J ends the solve,
            # since a retry from the same surface meets the same J
            try:
                step = np.linalg.solve(Jm.matrix, r)
            except np.linalg.LinAlgError as exc:
                raise ConvergenceError(
                    "singular Jacobian in the Newton step",
                    residual=float(np.max(np.abs(r))),
                    iterations=iterations,
                ) from exc
            lam = 1.0
            improved = False
            while lam > 1e-6:
                h_try = np.clip(h + lam * step, 1e-3, np.pi / 2 - 1e-3)
                try:
                    surf_try, k_try = evaluate(surf, h_try)
                except GeometryError:
                    lam *= 0.5
                    continue
                if np.max(np.abs(k_try - target)) < np.max(np.abs(r)):
                    h, surf, k_now = h_try, surf_try, k_try
                    r = k_now - target
                    improved = True
                    iterations += 1
                    break
                lam *= 0.5
            if not improved:
                return h, surf, k_now, False
        return h, surf, k_now, np.max(np.abs(r)) <= tol

    # cold start
    h, surf, k_now, ok = newton_to(k_target, h, surf, k_now)
    if not ok:
        # continuation from the current feasible point along K(n)
        k_anchor = k_now.copy()
        t, t_step = 0.0, 0.25
        cont = 0
        while t < 1.0 and cont < MAX_CONTINUATION:
            t_next = min(1.0, t + t_step)
            target = (1 - t_next) * k_anchor + t_next * k_target
            h2, surf2, k2, ok = newton_to(target, h, surf, k_now)
            if ok:
                h, surf, k_now = h2, surf2, k2
                t = t_next
                t_step = min(0.5, t_step * 1.5)
            else:
                t_step *= 0.5
                if t_step < 1e-4:
                    break
            cont += 1
        if t < 1.0:
            raise ConvergenceError(
                "Newton continuation stalled",
                residual=float(np.max(np.abs(k_now - k_target))),
                iterations=iterations,
            )
    if isinstance(surf, _FixedStars):
        surf = _star_surface(surf)
    residual = float(np.max(np.abs(k_now - k_target)))
    if residual > tol:
        raise ConvergenceError(
            "prescribed-curvature iteration did not reach tolerance",
            residual=residual,
            iterations=iterations,
        )
    return {
        "heights": h,
        "achieved_curvatures": k_now,
        "residual": residual,
        "jacobian_condition": last_cond,
        "iterations": iterations,
        "surface": surf,
    }


# -- the dual surface -------------------------------------------------------------


@dataclass
class DualFace:
    """Face of the dual surface: poles of the faces around one vertex."""

    ray_index: int
    vertices: np.ndarray   # (m, 4) on the AdS quadric
    plane_pole: np.ndarray

    def area(self):
        return ADS_STAR.polygon_area(self.vertices)


def _link_faces(stars, i):
    """The faces around star i of the table `stars`, each once, in cyclic
    order: its vertex link."""
    lo, hi = stars.offsets[i:i + 2]
    seq = []
    for fi in stars.wedge_face[lo:hi].tolist():
        if not seq or seq[-1] != fi:
            seq.append(fi)
    if len(seq) > 1 and seq[0] == seq[-1]:
        seq.pop()
    if len(seq) < 3:
        raise GeometryError("vertex link needs at least three faces")
    return seq


def minkowski_dual(surf):
    """Dual faces of the surface: one per fundamental vertex.

    The face dual to the vertex on ray r_i lies in the plane orthogonal to
    the reflected ray and has hyperbolic area equal to minus the vertex
    curvature.
    """
    out = []
    ks = curvatures(surf)
    for vid in range(surf.n):
        verts = surf.poles[_link_faces(surf.stars, vid)]
        out.append(
            DualFace(vid, verts, surf.points4[vid].copy())
        )
    return out, ks


def induced_cone_metric(surf):
    """Hyperbolic cone metric induced on the quotient surface.

    One cone point per ray; hyperbolic cone angles exceed 2 pi (negative
    singular curvature).  This is the white metric of the projected
    tilings of the surface.
    """
    omegas = cone_angles(surf)
    return ConeMetric(-1, [ConePoint(float(w), i) for i, w in enumerate(omegas)])


# -- projections to hyperbolic tilings --------------------------------------------


@dataclass
class HyperbolicAmbient:
    """Quotient surface data attached to a hyperbolic tiling.

    The rays are those of a checked configuration, or checked by
    `check_rays` when a `tiling.v1` file is read.
    """

    group: FuchsianGroup
    rays: np.ndarray

    def flip(self, T):
        """Flip of a hyperbolic tiling over this quotient: `flip_hyperbolic`,
        a development of T's tables at its recovered heights, certified
        convex and checked against T; no orbit hull."""
        return flip_hyperbolic(T)


def _least_rows(a):
    """Per block of the stack a (m, k, k), its lexicographically least row."""
    best = a[:, 0]
    each = np.arange(len(a))
    for i in range(1, a.shape[1]):
        row = a[:, i]
        first = np.argmax(row != best, axis=1)
        best = np.where((row < best)[each, first][:, None], row, best)
    return best


def _face_orbits(surf, faces):
    """The face orbits of the hull faces `faces`, numbered by first
    encounter, and per face size the labels that identify them.

    Vertex u of a face, seen from its vertex v, has the label
    ray(u) M + id(g_v^-1 g_u), M the size of the ball: two faces carry the
    same labels, seen from v and from v', exactly when g_v' g_v^-1 maps the
    first onto the second.  The orbit key of a face is the lexicographic
    least of its sorted labels over the vertices it is seen from.  The
    labels of all faces come from one gather of the relative table.

    Returns (groups, orbit, reps): faces[p] lies in orbit[p], the first
    copy met of orbit o is faces[reps[o]], and a group (at, rows, labels,
    ordered) holds the faces of one size k at positions `at`, their vertex
    ids rows (m, k) ascending, their labels (m, k, k), labels[f, i, j]
    being vertex j seen from vertex i, and those labels sorted along the
    last axis.
    """
    n, size = surf.n, len(surf.ball.mats)
    groups, keys = [], [None] * len(faces)
    for at, rows in surf.face_rows(faces):
        e, ray = np.divmod(rows, n)
        labels = ray[:, None, :] * size + surf.ball.relative_ids(e[:, :, None], e[:, None, :])
        ordered = np.sort(labels, axis=2)
        k = rows.shape[1]
        for p, key in zip(at.tolist(), _least_rows(ordered).tolist()):
            keys[p] = (k, *key)
        groups.append((at, rows, labels, ordered))
    first, orbit, reps = {}, [], []
    for p, key in enumerate(keys):
        orbit.append(first.setdefault(key, len(first)))
        if orbit[-1] == len(reps):
            reps.append(p)
    return groups, np.array(orbit, dtype=np.intp), np.array(reps, dtype=np.intp)


def _face_decks(surf, groups, orbit, reps):
    """Per face of `_face_orbits`: the deck g = g_u0 g_w^-1 that carries the
    representative copy of its orbit (faces[reps[orbit]]) onto it, and the
    vertices of that copy that g moves onto its vertices, in their order.

    u0 is the least vertex of the face and w the first vertex of the
    representative, by id, on the ray of u0 whose sorted labels equal those
    of the face at u0.  The decks come from one batched `inv`.
    """
    n, m = surf.n, len(orbit)
    local, u0, w = (np.empty(m, dtype=np.intp) for _ in range(3))
    to_rep = [None] * m
    for at, rows, labels, ordered in groups:
        local[at] = np.arange(len(at))
        rep = local[reps[orbit[at]]]
        ray = rows % n
        fits = (ray[rep] == ray[:, :1]) & np.all(ordered[rep] == ordered[:, :1], axis=2)
        if not np.all(np.any(fits, axis=1)):
            raise GeometryError("face deck transformation not found")
        i = np.argmax(fits, axis=1)
        # vertex j of the face has the label, seen from u0, that vertex
        # pos[j] of the representative has seen from w
        pos = np.argmax(labels[:, 0, :, None] == labels[rep, i][:, None, :], axis=2)
        u0[at], w[at] = rows[:, 0], rows[rep, i]
        for p, moved in zip(at.tolist(), rows[rep[:, None], pos].tolist()):
            to_rep[p] = moved
    decks = surf.elements[u0 // n] @ np.linalg.inv(surf.elements[w // n])
    return decks, to_rep


def _ads_layout(surf):
    """The quotient bookkeeping of the projections of a Fuchsian surface:
    the side-independent arguments (poles, points, white, black, edges,
    decks, ambient) of `tilings.assemble_tiling`, read from its face orbits,
    decks (rows of the face decks and the vertices' elements) and edge orbits.

    It is built array-at-a-time from the face arrays: the face orbits from
    one gather of the relative table (`_face_orbits`), the decks from one
    batched `inv` (`_face_decks`), the orders of the representative faces
    from one SVD per face size (`face_cycles`) and the edge orbits in one
    pass.
    """
    n = surf.n
    faces = _wedge_faces(surf)
    # each face orbit is represented by its first encountered copy
    groups, orbit, reps = _face_orbits(surf, faces)
    decks, to_rep = _face_decks(surf, groups, orbit, reps)
    rep_faces = [faces[p] for p in reps.tolist()]
    cycles = surf.face_cycles(rep_faces)
    corners = [{v: k for k, v in enumerate(cyc)} for cyc in cycles]
    orbit_of = dict(zip(faces, orbit.tolist()))
    index_of = {fi: i for i, fi in enumerate(faces)}
    # per face, the corner of the white polygon of its orbit that its deck
    # moves onto each of its vertices
    corner_of = {}
    for at, rows, _, _ in groups:
        for p, ids in zip(at.tolist(), rows.tolist()):
            corner = corners[orbit[p]]
            corner_of[faces[p]] = {u: corner[r] for u, r in zip(ids, to_rep[p])}

    # white faces: projections of the representative copies
    white = [([(fi, v) for v in cyc], tuple(surf.base_of(v) for v in cyc))
             for fi, cyc in zip(rep_faces, cycles)]

    # black faces: projected links at the fundamental vertices; a link
    # corner is known by the orbit of its face and the white corner at vid
    black, black_rows = [], []
    black_corner = []
    for vid in range(n):
        seq = _link_faces(surf.stars, vid)
        black.append(([(fi, vid) for fi in seq], tuple(orbit_of[fi] for fi in seq)))
        black_rows += [index_of[fi] for fi in seq]
        black_corner.append(
            {(orbit_of[fi], corner_of[fi][vid]): k for k, fi in enumerate(seq)}
        )

    # one tiling edge per true-edge orbit met at a fundamental vertex: the
    # first star row of each orbit key min((b_v, b_s, id(g_v^-1 g_s)),
    # (b_s, b_v, id(g_s^-1 g_v))), the keys encoded as integers
    stars = surf.stars
    star, _, prv = _star_rows(stars.offsets)
    true = np.flatnonzero(stars.true_edge)
    vertex = stars.vertex[star]
    (ev, bv), (es, bs) = np.divmod(vertex[true], n), np.divmod(stars.neighbors[true], n)
    size = len(surf.ball.mats)
    rel = surf.ball.relative_ids(np.stack([ev, es]), np.stack([es, ev]))
    key = np.minimum((bv * n + bs) * size + rel[0], (bs * n + bv) * size + rel[1])
    first_row = {}
    for row, k in zip(true.tolist(), key.tolist()):
        first_row.setdefault(k, row)
    slots = np.array(sorted(first_row.values()), dtype=np.intp)

    edges, edge_rows = [], []
    for vid, s, fa, fb in zip(vertex[slots].tolist(), stars.neighbors[slots].tolist(),
                              stars.wedge_face[prv[slots]].tolist(),
                              stars.wedge_face[slots].tolist()):
        if fa == fb:
            raise GeometryError("true edge inside a single face")
        segments = [(orbit_of[fi], corner_of[fi][vid], corner_of[fi][s]) for fi in (fa, fb)]
        # black segments: at vid (deck identity) and at s (deck of its orbit)
        for vtx in (vid, s):
            b = surf.base_of(vtx)
            ka = black_corner[b].get((orbit_of[fa], corner_of[fa][vtx]))
            kb = black_corner[b].get((orbit_of[fb], corner_of[fb][vtx]))
            if ka is None or kb is None:
                raise GeometryError("edge face missing from the vertex link")
            segments.append((b, ka, kb))
        edges.append(((vid, s, fa, fb), segments))
        edge_rows.append((index_of[fa], index_of[fb], vid // n, s // n))

    # the segment decks: the face decks of fa and fb, the elements of v and s
    rows = np.array(edge_rows, dtype=np.intp).reshape(-1, 4)
    decks = (surf.elements[[v // n for cyc in cycles for v in cyc]], decks[black_rows],
             np.concatenate([decks[rows[:, :2]], surf.elements[rows[:, 2:]]], axis=1))
    poles = dict(zip(faces, surf.poles[faces]))
    ambient = HyperbolicAmbient(surf.group, surf.config.rays)
    return poles, surf.points4, white, black, edges, decks, ambient


def ads_project(surf, side):
    """Left/right projection of a Fuchsian surface onto the quotient
    hyperbolic plane H = e*: a flippable tiling given by fundamental faces.

    White faces are projected surface faces (one per face orbit), black
    faces the projected links at the fundamental vertices; corner links
    carry the deck transformations identifying the incident copies.  The
    tiling itself is assembled by `tilings.assemble_tiling` from the
    quotient bookkeeping of `_ads_layout`.
    """
    return assemble_tiling(ADS_STAR, side, *_ads_layout(surf))


def _height_rows(T):
    """The equations of `recover_heights` as stacked rows (b1, b2, cosh
    dbase, cosh ell), one per white polygon edge."""
    rays, W = T.ambient.rays, T.white
    sizes = W.sizes
    starts = np.repeat(W.offsets[:-1], sizes)
    nxt = starts + (np.arange(len(starts)) - starts + 1) % np.repeat(sizes, sizes)
    links, verts = W.links, W.vertices
    with np.errstate(over="ignore", invalid="ignore"):  # huge decks: refused by the caller
        base = (W.decks @ rays[links][..., None])[..., 0]
        return (links, links[nxt], np.cosh(HyperbolicOps.dist(base, base[nxt])),
                np.cosh(HyperbolicOps.dist(verts, verts[nxt])))


def recover_heights(T):
    """Heights of the Fuchsian surface underlying a symmetric tiling.

    Each white polygon edge joins the apexes of two black-face copies:
    cosh(edge length) = cos(h_i) cos(h_j) cosh(base distance) +
    sin(h_i) sin(h_j), with the base distance read off the rays and the
    deck labels.  The rows of this small system are solved by undamped
    Gauss-Newton with their analytic derivative, from h = 0.7 and clipped
    to (HEIGHT_MIN, pi/2 - HEIGHT_MIN), until a step is below 1e-15, or
    below 1e-13 and no smaller than the step before it, or after
    MAX_GAUSS_NEWTON steps.  A residual above 1e-8, or rows or a Jacobian
    that are singular or not finite, raise DevelopmentError.
    """
    if T.ambient == "sphere":
        raise GeometryError("recover_heights expects a hyperbolic tiling")
    b1, b2, cd, ce = _height_rows(T)
    if not (np.all(np.isfinite(cd)) and np.all(np.isfinite(ce))):
        raise DevelopmentError("height equations are not finite")
    n = len(T.black)
    one1, one2 = np.eye(n)[b1], np.eye(n)[b2]
    h = np.full(n, 0.7)
    last = np.inf
    for _ in range(MAX_GAUSS_NEWTON):
        c, s = np.cos(h), np.sin(h)
        c1, c2, s1, s2 = c[b1], c[b2], s[b1], s[b2]
        r = c1 * c2 * cd + s1 * s2 - ce
        jac = ((c1 * s2 - s1 * c2 * cd)[:, None] * one1
               + (s1 * c2 - c1 * s2 * cd)[:, None] * one2)
        if not (np.all(np.isfinite(jac)) and np.all(np.isfinite(r))):
            raise DevelopmentError("height equations are not finite")
        step, _, rank, _ = np.linalg.lstsq(jac, -r, rcond=None)
        if rank < n:
            raise DevelopmentError("height equations are singular")
        new = np.clip(h + step, HEIGHT_MIN, np.pi / 2 - HEIGHT_MIN)
        size, h = float(np.max(np.abs(new - h))), new
        # near h = 0 the rows flatten and the steps stall at rounding level
        if size < 1e-15 or last <= size < 1e-13:
            break
        last = size
    c, s = np.cos(h), np.sin(h)
    res = float(np.max(np.abs(c[b1] * c[b2] * cd + s[b1] * s[b2] - ce)))
    if not res <= 1e-8:
        raise DevelopmentError(
            f"tiling is not consistent with apexes on the rays ({res:.2e})"
        )
    return h


def _moved(g, x):
    """The rows x (m, 4) moved by the AdS isometries extending the rows g
    (m, 3, 3), row by row."""
    out = x.copy()
    out[:, :3] = np.einsum("nij,nj->ni", g, x[:, :3])
    return out


def _develop(T, heights):
    """The Fuchsian surface under the hyperbolic tiling T, developed from
    its tables with its ray points at `heights`.

    Returns the vertex of every white corner in the frame of its stored
    face, extend_isometry(deck) @ apex[link] computed as `orbit_points`
    computes the hull's vertices; the pole of every white face, from the
    three corners 0, k // 3 and 2k // 3 of its k (`triangle_poles`), with
    <p, p> before scaling; and the pole of the face copy at every black
    corner, the white pole of its link moved by its deck.
    """
    W, B = T.white, T.black
    n = len(T.ambient.rays)
    points = orbit_points(W.decks, T.ambient.rays, heights)[
        np.arange(len(W.links)) * n + W.links]
    thirds = W.offsets[:-1, None] + W.sizes[:, None] * np.arange(3) // 3
    with np.errstate(divide="ignore", invalid="ignore"):  # flat: refused by the certificate
        poles, q = triangle_poles(points, thirds, ADS_STAR, ADS_STAR.e)
    return points, poles, q, _moved(B.decks, poles[B.links])


def _edge_slots(T):
    """The slots of each tiling edge of T read as an edge from v to s
    between the white face copies fa and fb, in the order of
    `tilings.assemble_corners`: per edge the slots (E, 4) of fa, fb, the
    black face at v and the black face at s; the corners of each (E, 4, 2),
    at v and at s (white) or of fa and of fb (black); and their decks (E,
    4, 3, 3).

    fa is the white segment with an end nearest the base of the edge's
    geodesic, and v that end; the black segment ending nearest v is the
    one at v, the other black segment the one at s, and the other ends of
    these place fb's corners.  A projection puts the base at (fa, v), so a
    flip of a flip reads its edges as they were built.
    """
    E = T.edges
    rows = np.arange(len(E))
    ends = np.stack([E.t0, E.t1], axis=2)  # (E, 4, 2) parameters of both ends
    nb = len(T.black)
    size = np.concatenate([T.black.sizes, T.white.sizes])[E.face + np.where(E.black, 0, nb)]
    k = E.face_edge[..., None] + np.where(E.reversed[..., None], [1, 0], [0, 1])
    corner = k % size[..., None]  # the corner at each end
    white = np.broadcast_to(~E.black[..., None], ends.shape)

    def nearest(t, allowed):
        d = np.where(allowed, np.abs(ends - t[:, None, None]), np.inf)
        return np.divmod(np.argmin(d.reshape(len(E), 8), axis=1), 2)

    a, ea = nearest(np.zeros(len(E)), white)
    bv, ebv = nearest(ends[rows, a, ea], ~white)
    other = np.arange(4)[None, :, None]
    bs, ebs = nearest(ends[rows, a, 1 - ea], ~white & (other != bv[:, None, None]))
    b, eb = nearest(ends[rows, bv, 1 - ebv], white & (other != a[:, None, None]))
    order, near = np.stack([a, b, bv, bs], axis=1), np.stack([ea, eb, ebv, ebs], axis=1)
    at = rows[:, None]
    corners = np.stack([corner[at, order, near], corner[at, order, 1 - near]], axis=2)
    return order, corners, E.decks[at, order]


def _certify_development(T, points, poles, q, order, corners, decks):
    """Check that the development of T is a convex Fuchsian surface, else
    raise DevelopmentError naming the white face or the tiling edge.

    `order`, `corners` and `decks` read T's edges (`_edge_slots`).  Every
    white plane is space-like (<p, p> < -EPS_SPACELIKE before scaling),
    every white corner lies on its plane (|<x, p>| <= 4 MERGE_TOL |x|; only
    the corners of a coplanar merge can fail), and every tiling edge folds
    convexly by the rule of `_fixed_star_trial`: the far corners of each of
    its white face copies lie strictly on the hull side of the other's
    plane, <x, p> > 4 MERGE_TOL |x|.  A locally convex surface at these
    heights is the convex Fuchsian one, which is unique (Fillastre, Math.
    Ann. 2011).
    """
    W = T.white
    bad = np.flatnonzero(~(q < -EPS_SPACELIKE))
    if len(bad):
        raise DevelopmentError(f"white face {bad[0]} of the development is not space-like")
    face = np.repeat(np.arange(len(W)), W.sizes)
    with np.errstate(over="ignore", invalid="ignore"):
        lift = np.abs(ADS_STAR.inner(points, poles[face]))
        off = ~(lift <= 4 * MERGE_TOL * np.linalg.norm(points, axis=1))
    if off.any():
        raise DevelopmentError(f"white face {face[np.argmax(off)]} of the development is "
                               "not planar")
    # per edge and white copy (the rows of fa, then those of fb), the
    # corners of that copy against the plane of the other one
    n = len(order)
    copy = T.edges.face[np.arange(n)[:, None], order[:, :2]].T.ravel()
    deck = decks[:, :2].transpose(1, 0, 2, 3).reshape(-1, 3, 3)
    across = np.concatenate([np.arange(n, 2 * n), np.arange(n)])
    shared = corners[:, :2].transpose(1, 0, 2).reshape(-1, 2)  # the corners at v and s
    m = W.sizes[copy]
    pair = np.repeat(np.arange(2 * n), m)
    j = np.arange(len(pair)) - np.repeat(np.cumsum(m) - m, m)
    with np.errstate(over="ignore", invalid="ignore"):
        x = _moved(deck[pair], points[W.offsets[copy][pair] + j])
        p = _moved(deck, poles[copy])[across][pair]
        inside = ADS_STAR.inner(x, p) > 4 * MERGE_TOL * np.linalg.norm(x, axis=1)
    folds = inside | np.any(j[:, None] == shared[pair], axis=1)
    if not folds.all():
        raise DevelopmentError("the development does not fold convexly at tiling edge "
                               f"{pair[np.argmin(folds)] % n}")


def flip_hyperbolic(T):
    """Flip of a symmetric hyperbolic tiling, developed from its own tables.

    T has passed `validate_tiling` (`tilings.flip` checks it first); so
    its black faces, tiling edges and white faces are cells that count
    V - E + F = chi.  The Fuchsian surface is developed at the
    heights that `recover_heights` reads off the white metric (`_develop`),
    and it must pass the convexity certificate (`_certify_development`);
    its projection on the side of T must lie within EPS_MATCH of T's
    corners (the rule of `tiling_equality_error`), else DevelopmentError.

    The flip is the projection on the other side, assembled once
    (`tilings.assemble_corners`) with T's face order, links and decks; no
    orbit hull is built.  The white corners are projected from the
    development.  A black corner's face copy reaches its black face through
    two decks, which costs digits, so the black faces are pushed instead:
    the other projection of (a, x) is x u x^-1 (or x^-1 u x) for the corner
    u = a^-1 x (or x a^-1) of T, so each black face of T is conjugated by
    its ray point x.  The edges read their corners off the black faces,
    whose decks are the elements of the vertices.
    """
    W, B = T.white, T.black
    if np.any(W.sizes < 3) or np.any(B.sizes < 3):
        raise DevelopmentError("a face of fewer than three corners has no Fuchsian surface")
    heights = recover_heights(T)
    points, poles, q, black_poles = _develop(T, heights)
    order, corners, decks = _edge_slots(T)
    _certify_development(T, points, poles, q, order, corners, decks)
    nw = len(W.links)
    white_poles = poles[np.repeat(np.arange(len(W)), W.sizes)]
    x = orbit_points(np.eye(3)[None], T.ambient.rays, heights)[
        np.repeat(np.arange(len(B)), B.sizes)]
    same = project_points(np.concatenate([white_poles, black_poles]),
                          np.concatenate([points, x]), T.handedness.other, ADS_STAR)
    err = tiling_equality_error(T, FlippableTiling(
        T.handedness, replace(B, vertices=same[nw:]), replace(W, vertices=same[:nw]),
        T.edges, T.ambient))
    if err > EPS_MATCH:
        raise DevelopmentError(
            f"tiling does not match its reconstructed surface ({err:.2e})"
        )
    u = np.zeros((len(x), 4))
    u[:, :3] = B.vertices
    pushed = mul4(x, u, ADS_STAR) if T.handedness is Side.RIGHT else mul4(u, x, ADS_STAR)
    img = project_points(np.concatenate([white_poles, x]), np.concatenate([points, pushed]),
                         T.handedness, ADS_STAR)
    # the corners of fa and fb on the black faces at v and s, moved onto the edge
    rows = np.arange(len(order))[:, None]
    face = T.edges.face[rows, order]
    at = nw + B.offsets[face[:, 2:, None]] + corners[:, 2:]  # (E, 2, 2)
    quad = (decks[:, 2:, None] @ img[at][..., None])[..., 0].transpose(2, 1, 0, 3)
    faces = {WHITE: (img[:nw], W.sizes, W.links, W.decks, W.tagged, W.decked),
             BLACK: (img[nw:], B.sizes, B.links, B.decks, B.tagged, B.decked)}
    return assemble_corners(
        ADS_STAR, T.handedness, faces, quad.reshape(4, -1, 3),
        np.concatenate([face[..., None], corners], axis=2), decks,
        T.edges.tagged[rows, order], T.ambient)


# -- spherical star polyhedra (interlude) ------------------------------------------


def star_polyhedron(directions, heights):
    """Convex spherical polyhedron with vertices on rays from o = e.

    Directions are unit 3-vectors (the rays through o in its tangent
    space), heights the distances from o; the hull must be simplicial with
    every point extreme and o interior.
    """
    t = np.asarray(directions, dtype=float)
    h = np.asarray(heights, dtype=float)
    pts = np.hstack([np.cos(h)[:, None], np.sin(h)[:, None] * t])
    P = hull(pts)
    if P.n_vertices != len(t):
        raise GeometryError("star points are not in convex position")
    if any(len(f) != 3 for f in P.faces):
        raise GeometryError("star polyhedron must have triangular faces")
    prods = P.face_poles @ np.array([1.0, 0, 0, 0])
    if np.min(prods) <= 1e-9:
        raise GeometryError("apex o is not interior to the star polyhedron")
    v = P.vertices
    away = v[:, 1:] / np.sqrt(np.maximum(1 - v[:, :1] * v[:, :1], 1e-30))  # unit directions
    order = np.linalg.norm(t - away[:, None], axis=2).argmin(axis=1).tolist()
    if sorted(order) != list(range(len(t))):
        raise GeometryError("could not match hull vertices to rays")
    return P, order


def sph_star_cone_angles(P, order):
    """Cone angle (total face angle) at each vertex, indexed by ray."""
    out = np.empty(P.n_vertices)
    out[order] = _cone_angles(P.stars, P.vertices, SPHERE_STAR)
    return out


def sph_star_jacobian(P, order):
    """d omega_x / d h_y for a spherical star polyhedron, indexed by ray:
    the assembly of `jacobian` with sin and cos.  Off-diagonal entries are
    positive by convexity."""
    return _assemble(P.stars, _star_pass(P.stars, P.vertices, SPHERE_STAR),
                     np.asarray(order).__getitem__, P.n_vertices, SPHERE_STAR)
