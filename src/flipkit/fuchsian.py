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
"""

import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.spatial import ConvexHull as EuclideanHull
from scipy.spatial import QhullError, cKDTree

from .errors import ConvergenceError, DevelopmentError, GeometryError
from .forms import Signature, inv4, mul4
from .spheremath import HyperbolicOps
from .trig import convexity_sign

logger = logging.getLogger("flipkit.fuchsian")

Q_ADS = np.array([1.0, 1.0, -1.0, -1.0])
Q_HYP = np.array([1.0, 1.0, -1.0])
N_FUTURE = np.array([0.0, 0.0, 0.0, 1.0])   # H*, the dual of H on the future side
O_APEX = np.array([0.0, 0.0, 0.0, -1.0])    # dual of H antipodal to H*

EPS_FACE_MERGE = 1e-8
EPS_EQUIVARIANT = 1e-8

R0 = 5.5        # first truncation radius of an orbit hull
R_STEP = 0.5    # growth of the radius after an uncertified build
R_MAX = 10.0    # largest radius tried


def ads_inner(u, v):
    return float(np.sum(u * v * Q_ADS))


def hyp_inner(u, v):
    return float(np.sum(u * v * Q_HYP))


def extend_isometry(g):
    """Extend an SO(2,1) matrix to an AdS isometry fixing {x4 = 0}."""
    m = np.eye(4)
    m[:3, :3] = g
    return m


def ray_point(p, h):
    """Point at height h on the half-ray through p orthogonal to H."""
    return np.concatenate([np.cos(h) * np.asarray(p), [np.sin(h)]])


def orbit_points(elements, rays, heights):
    """`ray_point(g @ rays[b], heights[b])` for each of the stacked (m, 3, 3)
    `elements` g and each ray b, as row g_index * len(rays) + b."""
    base = (elements[:, None] @ rays[None, :, :, None])[..., 0]
    h = np.asarray(heights, dtype=float)
    out = np.empty(base.shape[:2] + (4,))
    out[..., :3] = np.cos(h)[:, None] * base
    out[..., 3] = np.sin(h)
    return out.reshape(-1, 4)


def space_dist(x, y):
    """Space-like AdS distance: cosh d = -<x,y>_2."""
    return float(np.arccosh(max(-ads_inner(x, y), 1.0)))


def unit_tangent(x, y):
    """Unit space-like tangent at x toward y (both on the quadric)."""
    w = y + ads_inner(x, y) * x
    q = ads_inner(w, w)
    if q <= 1e-26:
        raise GeometryError("tangent toward a non-space-like direction")
    return w / math.sqrt(q)


def tangent_to_apex(x):
    """Unit time-like tangent at x toward the apex o = -H*."""
    w = O_APEX + ads_inner(O_APEX, x) * x
    q = ads_inner(w, w)
    if q >= -1e-26:
        raise GeometryError("degenerate direction toward the apex")
    return w / math.sqrt(-q)


def wedge_angle(x, u, v):
    """Angle at x between the space-like tangents toward u and v."""
    tu = unit_tangent(x, u)
    tv = unit_tangent(x, v)
    return float(np.arccos(np.clip(ads_inner(tu, tv), -1.0, 1.0)))


def apex_edge_angle(x, y):
    """Signed angle rho at x between the apex direction and the edge xy:
    sinh(rho) = <u_o, t_xy>_2 for unit tangents."""
    return float(np.arcsinh(ads_inner(tangent_to_apex(x), unit_tangent(x, y))))


# -- the genus-2 octagon group -------------------------------------------------


def _stable_key(m, scale):
    """Quantized matrix bytes, stable under tiny perturbations.

    Distinct elements of the groups used here differ by more than 0.6 in
    some matrix entry (the tests check more than 0.2 over the ball of
    radius 7), while different float representations of the same element
    agree to 1e-9; quantizing at 0.1 with an irrational offset therefore
    separates elements without ever splitting one.
    """
    q = np.floor(np.asarray(m, dtype=float) * scale + 0.61803398874989485)
    return q.astype(np.int64).tobytes()


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
    """

    def __init__(self, generators, genus, vertices, side_normals):
        self.generators = [np.asarray(g, dtype=float) for g in generators]
        self.genus = genus
        self.vertices = np.asarray(vertices, dtype=float)
        self.side_normals = np.asarray(side_normals, dtype=float)
        self._element_cache = {}

    @property
    def chi(self):
        return 2 - 2 * self.genus

    @property
    def symmetric_generators(self):
        return self.generators + [np.linalg.inv(g) for g in self.generators]

    def domain_area(self):
        """Area of the fundamental polygon from its vertex angles."""
        v = self.vertices
        k = len(v)
        angles = [HyperbolicOps.angle(v[i], v[i - 1], v[(i + 1) % k]) for i in range(k)]
        return (k - 2) * np.pi - float(sum(angles))

    def contains(self, p, tol=1e-9):
        """Is the hyperboloid point p inside the fundamental polygon?"""
        return bool(np.all(self.side_normals @ (Q_HYP * p) <= tol))

    def elements(self, radius):
        """The distinct elements moving the center o = (0, 0, 1) by at most
        `radius`, stacked (m, 3, 3), by displacement; the identity first.

        Breadth-first from the identity through the side pairings, keeping
        only elements inside the ball.  This reaches every element of the
        ball: the octagon is the Dirichlet polygon at o, so every g != id
        has a side pairing s with d(o, s^-1 g o) < d(o, g o), and g is
        reached from s^-1 g, which lies in the ball too.
        """
        key = round(radius, 6)
        if key in self._element_cache:
            return self._element_cache[key]
        gens = np.array(self.symmetric_generators)
        cosh_r = math.cosh(radius)
        seen = {}

        def register(mats):
            fresh = []
            for m in mats:
                if m[2, 2] > cosh_r:
                    continue
                k = _stable_key(m, 10.0)
                if k not in seen:
                    seen[k] = m
                    fresh.append(m)
            return fresh

        frontier = register([np.eye(3)])
        while frontier:
            stack = np.einsum("gij,fjk->gfik", gens, np.array(frontier))
            frontier = register(stack.reshape(-1, 3, 3))
        elems = sorted(seen.values(), key=lambda m: (m[2, 2], _stable_key(m, 10.0)))
        self._element_cache[key] = np.array(elems)
        return self._element_cache[key]

    def element_key(self, g):
        return _stable_key(g, 10.0)

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


@dataclass
class FuchsianConfig:
    """Half-ray base points in the fundamental domain plus heights/targets.

    `word_length` and `word_length_cap` are kept for format compatibility
    (`fuchsian.v1` reads and writes `word_len_cap`, `tiling.v1` both) and
    no longer affect the hull, which is truncated by a certified radius.
    """

    group: FuchsianGroup
    rays: np.ndarray
    heights: np.ndarray = None
    targets: np.ndarray = None
    word_length: int = 4
    word_length_cap: int = 10

    def __post_init__(self):
        self.rays = np.atleast_2d(np.asarray(self.rays, dtype=float))
        for p in self.rays:
            if abs(hyp_inner(p, p) + 1.0) > 1e-9 or p[2] <= 0:
                raise GeometryError("ray base point not on the hyperboloid")
            if not self.group.contains(p, tol=1e-6):
                raise GeometryError("ray base point outside the fundamental domain")
        if self.heights is not None:
            self.heights = np.asarray(self.heights, dtype=float)
            if len(self.heights) != len(self.rays):
                raise GeometryError("one height per ray required")
            if np.any(self.heights <= 0) or np.any(self.heights >= np.pi / 2):
                raise GeometryError("heights must lie strictly inside (0, pi/2)")
        if self.targets is not None:
            self.targets = np.asarray(self.targets, dtype=float)
            if len(self.targets) != len(self.rays):
                raise GeometryError("one curvature target per ray required")
            if not admissible_targets(self.targets, self.group.chi):
                raise GeometryError(
                    "targets must be negative with sum above 2 pi chi(S)"
                )

    @property
    def n(self):
        return len(self.rays)

    def with_heights(self, h):
        return FuchsianConfig(
            self.group, self.rays, np.asarray(h, dtype=float), None,
            self.word_length, self.word_length_cap
        )


# -- orbit hulls and vertex stars -----------------------------------------------


@dataclass
class VertexStar:
    """Fan data around one hull vertex.

    neighbors : vertex ids in cyclic order; wedge j is the triangle
                (x, neighbors[j], neighbors[j+1 mod m])
    true_edge : per neighbor, False for triangulation diagonals
    wedge_face: per wedge, the index of the merged face it belongs to
    """

    vertex: int
    neighbors: list
    true_edge: list
    wedge_face: list

    def degree(self):
        return len(self.neighbors)


class SurfaceFace:
    """Merged hull face: its vertex set, AdS plane pole and hull chart.

    ids        : the face's vertex ids, ascending
    vertex_ids : the same ids in cyclic order, starting from the least;
                 computed from the chart on first read, because a hull has
                 thousands of faces and only those near the fundamental
                 vertices are ever read in order
    """

    __slots__ = ("ids", "pole", "_chart", "_cyclic")

    def __init__(self, ids, pole, chart):
        self.ids = ids
        self.pole = pole
        self._chart = chart
        self._cyclic = None

    @property
    def vertex_ids(self):
        if self._cyclic is None:
            self._cyclic = _cyclic_face_order(self._chart, self.ids)
        return self._cyclic


class FuchsianSurface:
    """Orbit hull truncated at displacement `radius`, with the certified
    stars at the fundamental vertices.

    Vertex vid is the point of ray vid % n moved by elements[vid // n].
    """

    def __init__(self, config, elements, points4, faces, radius):
        self.config = config
        self.elements = elements
        self.points4 = points4
        self.faces = faces
        self.radius = radius
        self.stars = []
        # incidence as CSR: the faces at vertex v, ascending, are
        # _incident_faces[_incidence_start[v]:_incidence_start[v + 1]]
        sizes = np.array([len(f.ids) for f in faces], dtype=np.intp)
        flat = np.fromiter(itertools.chain.from_iterable(f.ids for f in faces),
                           dtype=np.intp, count=int(sizes.sum()))
        by_vertex = np.argsort(flat, kind="stable")
        self._incident_faces = np.repeat(np.arange(len(faces)), sizes)[by_vertex]
        self._incidence_start = np.searchsorted(
            flat[by_vertex], np.arange(len(points4) + 1)
        )

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

    def vkey(self, vid):
        return (self.base_of(vid), self.group.element_key(self.element_of(vid)))

    def star_at(self, vid):
        """Star of a hull vertex.  The fundamental ones are cached; any
        other is certified like them, or GeometryError."""
        if vid < self.n:
            return self.stars[vid]
        return _certified_star(self, vid)

    def star_combinatorics(self):
        out = []
        for star in self.stars:
            lab = [self.vkey(v) for v in star.neighbors]
            pivot = lab.index(min(lab))
            lab = lab[pivot:] + lab[:pivot]
            rev = [lab[0]] + lab[1:][::-1]
            out.append(tuple(min(lab, rev)))
        return tuple(out)

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
                for fi in self.faces_at(vid):
                    pole = self.faces[fi].pole
                    moved_pole = m @ pole
                    if moved_pole[3] < 0:
                        moved_pole = -moved_pole
                    ok = any(
                        np.linalg.norm(wide.faces[fj].pole - moved_pole) < tol * 10
                        for fj in wide.faces_at(target)
                    )
                    if not ok:
                        raise GeometryError("face planes not equivariant")
        return True

    def _find_vertex(self, point, tol):
        d = np.linalg.norm(self.points4 - point, axis=1)
        j = int(np.argmin(d))
        return j if d[j] < tol * 10 else None

    def quotient_counts(self):
        """(V, E, F) of the quotient cell structure (true edges only)."""
        V = self.n
        deg = sum(
            sum(1 for t in star.true_edge if t) for star in self.stars
        )
        E = deg // 2
        orbits = set()
        for star in self.stars:
            for fi in star.wedge_face:
                orbits.add(self.face_orbit_key(fi))
        return V, E, len(orbits)

    def face_orbit_key(self, fi):
        """Canonical key of the face orbit under the group action."""
        f = self.faces[fi]
        best = None
        for vid in f.ids:
            ginv = np.linalg.inv(self.element_of(vid))
            labels = sorted(
                (self.base_of(u), self.group.element_key(ginv @ self.element_of(u)))
                for u in f.ids
            )
            key = tuple(labels)
            if best is None or key < best:
                best = key
        return best

    def face_area(self, fi):
        """Hyperbolic area of a space-like face via its angle sum."""
        f = self.faces[fi]
        pts = [self.points4[v] for v in f.vertex_ids]
        k = len(pts)
        angles = [wedge_angle(pts[i], pts[i - 1], pts[(i + 1) % k]) for i in range(k)]
        return (k - 2) * np.pi - float(sum(angles))

    def quotient_area(self):
        """Total face area of a fundamental set of faces."""
        seen = {}
        for star in self.stars:
            for fi in star.wedge_face:
                seen[self.face_orbit_key(fi)] = fi
        return float(sum(self.face_area(fi) for fi in seen.values()))


def _triangulate_face(vertex_ids, key):
    """Fan from the least vertex under `key`: triangles and false edges."""
    ids = list(vertex_ids)
    start = min(range(len(ids)), key=lambda i: key(ids[i]))
    ids = ids[start:] + ids[:start]
    v0 = ids[0]
    tris = [(v0, ids[t], ids[t + 1]) for t in range(1, len(ids) - 1)]
    false_edges = {frozenset((v0, ids[t])) for t in range(2, len(ids) - 1)}
    return tris, false_edges


def _build_star(surf, vid):
    incident = surf.faces_at(vid)
    if len(incident) < 2:
        raise GeometryError("vertex star is incomplete (truncation too small)")
    tris = []
    false_edges = set()
    wedge_face = {}
    for fi in incident:
        t, fe = _triangulate_face(surf.faces[fi].vertex_ids, surf.vkey)
        false_edges |= fe
        for tri in t:
            if vid in tri:
                rest = tuple(u for u in tri if u != vid)
                tris.append(rest)
                wedge_face[frozenset(rest) | {vid}] = fi
    adj = {}
    for a, b in tris:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    if not adj or any(len(vs) != 2 for vs in adj.values()):
        raise GeometryError("vertex star is not a disk")
    start = min(adj, key=surf.vkey)
    cycle = [start]
    prev = None
    while True:
        cands = [u for u in adj[cycle[-1]] if u != prev]
        nxt = cands[0] if len(cands) == 1 else min(cands, key=surf.vkey)
        prev = cycle[-1]
        if nxt == start:
            break
        cycle.append(nxt)
        if len(cycle) > len(tris) + 1:
            raise GeometryError("vertex star does not close")
    if len(cycle) != len(tris):
        raise GeometryError("vertex star does not close")
    true_edge = [frozenset((vid, u)) not in false_edges for u in cycle]
    wf = []
    for j in range(len(cycle)):
        tri_key = frozenset((cycle[j], cycle[(j + 1) % len(cycle)])) | {vid}
        if tri_key not in wedge_face:
            raise GeometryError("wedge missing from the star triangulation")
        wf.append(wedge_face[tri_key])
    return VertexStar(vid, cycle, true_edge, wf)


def orbit_hull(config):
    """Convex hull of the orbits: the space-like surface component.

    The hull is taken in the projective chart x4 = 1, where H* sits at the
    origin; the surface faces are the hull facets visible from the origin.
    It is built from the elements moving the octagon center o by at most R,
    starting at R = R0 = 5.5, and every face of the fundamental vertex
    stars is certified to support the whole orbit (`_supports_orbit`), so
    the stars are exact.  An uncertified build grows R by R_STEP = 0.5; past
    R_MAX = 10 the build raises GeometryError.  Each build orders cyclically
    only the faces incident to the fundamental vertices, for their stars;
    any other face is ordered when its `vertex_ids` is first read.
    """
    return _certified_hull(config)


def _certified_hull(config, radius=R0):
    """`orbit_hull` from a first radius of `radius`."""
    if config.heights is None:
        raise GeometryError("orbit_hull needs heights")
    while True:
        surf = _truncated_hull(config, radius)
        try:
            surf.stars = [_certified_star(surf, vid) for vid in range(config.n)]
            return surf
        except GeometryError as exc:
            if radius + R_STEP > R_MAX:
                raise GeometryError(
                    f"orbit hull stars not certified by radius {radius:g}: {exc}"
                ) from exc
        radius += R_STEP


def _certified_star(surf, vid):
    star = _build_star(surf, vid)
    if not _supports_orbit(surf, star.wedge_face):
        raise GeometryError(
            f"a face at vertex {vid} may not support the orbit beyond "
            f"radius {surf.radius:g}"
        )
    return star


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
    poles = np.array([surf.faces[fi].pole for fi in face_ids])
    h = surf.heights
    s = surf.radius - np.arccosh(np.maximum(surf.config.rays[:, 2], 1.0))
    a = -poles[:, 2:3]
    b = np.hypot(poles[:, 0], poles[:, 1])[:, None]
    rising = np.tanh(s) * a >= b
    bound = np.cos(h) * (a * np.cosh(s) - b * np.sinh(s)) - np.sin(h) * poles[:, 3:4]
    return bool(np.all(rising & (bound > 0)))


def _batch_poles(points4, simplices):
    """Future-normalized AdS plane poles of hull triangles, vectorized.

    Returns (poles, spacelike mask): non-space-like planes are truncation
    artifacts and get masked out.
    """
    a = points4[simplices[:, 0]]
    b = points4[simplices[:, 1]]
    c = points4[simplices[:, 2]]
    m = np.empty((len(simplices), 4))
    cols = np.arange(4)
    stack = np.stack([a, b, c], axis=1)  # (S, 3, 4)
    for i in range(4):
        sub = stack[:, :, [j for j in cols if j != i]]
        m[:, i] = ((-1) ** i) * np.linalg.det(sub)
    poles = m * Q_ADS
    q = np.sum(poles * poles * Q_ADS, axis=1)
    ok = q < -1e-12
    poles[ok] /= np.sqrt(-q[ok])[:, None]
    flip = poles[:, 3] < 0
    poles[flip] = -poles[flip]
    return poles, ok


def _merge_faces(simplices, poles, chart):
    """Merge hull triangles whose plane poles lie within EPS_FACE_MERGE.

    Faces come in the order of their least triangle, whose pole they keep;
    `connected_components` labels components in that order.
    """
    # imported on first use: the spherical path never builds an orbit
    # hull, and loading csgraph adds about 3 MB to the process
    from scipy.sparse.csgraph import connected_components

    pairs = cKDTree(poles).query_pairs(EPS_FACE_MERGE, output_type="ndarray")
    graph = coo_matrix(
        (np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
        shape=(len(poles), len(poles)),
    )
    _, labels = connected_components(graph, directed=False)
    _, first, sizes = np.unique(labels, return_index=True, return_counts=True)
    ids = np.sort(simplices[first], axis=1).tolist()
    if np.any(sizes > 1):
        members = np.split(np.argsort(labels, kind="stable"), np.cumsum(sizes)[:-1])
        for k in np.nonzero(sizes > 1)[0]:
            ids[k] = np.unique(simplices[members[k]]).tolist()
    return [SurfaceFace(f, pole, chart) for f, pole in zip(ids, poles[first])]


def _truncated_hull(config, radius):
    """Orbit hull of the elements within `radius`, without stars."""
    n = config.n
    elems = config.group.elements(radius)
    points4 = orbit_points(elems, config.rays, config.heights)
    chart = points4[:, :3] / points4[:, 3:4]

    try:
        ch = EuclideanHull(chart)
    except QhullError as exc:
        raise GeometryError(f"degenerate orbit configuration: {exc}") from exc

    if not np.all(np.isin(np.arange(n), ch.vertices)):
        raise GeometryError(
            "vertices not in convex position (a ray point is inside the hull)"
        )

    visible = np.nonzero(ch.equations[:, 3] > 1e-13)[0]
    simplices = ch.simplices[visible]
    poles, spacelike = _batch_poles(points4, simplices)
    faces = _merge_faces(simplices[spacelike], poles[spacelike], chart)
    return FuchsianSurface(config, elems, points4, faces, radius)


def _cross4(a, b, c):
    """Euclidean generalized cross product of three 4-vectors."""
    m = np.stack([a, b, c])
    out = np.empty(4)
    for i in range(4):
        cols = [j for j in range(4) if j != i]
        out[i] = ((-1) ** i) * np.linalg.det(m[:, cols])
    return out


def _cyclic_face_order(chart, ids):
    """Order coplanar chart points cyclically around their centroid."""
    pts = chart[ids]
    ctr = pts.mean(axis=0)
    rel = pts - ctr
    _, _, vt = np.linalg.svd(rel)
    u1, u2 = vt[0], vt[1]
    ang = np.arctan2(rel @ u2, rel @ u1)
    out = [ids[k] for k in np.argsort(ang)]
    pivot = out.index(min(out))
    return out[pivot:] + out[:pivot]


# -- cone angles and the Jacobian ------------------------------------------------


def cone_angle_at(surf, vid):
    """Total face angle around one hull vertex, from its star."""
    star = surf.star_at(vid)
    x = surf.points4[vid]
    nb = star.neighbors
    total = 0.0
    for j in range(len(nb)):
        total += wedge_angle(x, surf.points4[nb[j]], surf.points4[nb[(j + 1) % len(nb)]])
    return total


def cone_angles(surf):
    """Cone angles at the fundamental vertices."""
    return np.array([cone_angle_at(surf, vid) for vid in range(surf.n)])


def curvatures(surf):
    """Singular curvature is 2 pi minus the cone angle."""
    return 2.0 * np.pi - cone_angles(surf)


def reembedded_points(surf, heights):
    """Orbit points re-embedded at new heights, same combinatorics."""
    return orbit_points(surf.elements, surf.config.rays, heights)


def cone_angles_fixed_combinatorics(surf, heights):
    """Cone angles at the fundamental vertices after re-embedding the
    vertices at new heights while keeping the face structure fixed; the
    finite-difference oracle for the Jacobian."""
    pts = reembedded_points(surf, heights)
    out = np.empty(surf.n)
    for vid in range(surf.n):
        star = surf.stars[vid]
        nb = star.neighbors
        x = pts[vid]
        total = 0.0
        for j in range(len(nb)):
            total += wedge_angle(x, pts[nb[j]], pts[nb[(j + 1) % len(nb)]])
        out[vid] = total
    return out


def _star_geometry(surf, vid):
    """Per-neighbor lengths/angles and per-wedge link-triangle data."""
    star = surf.star_at(vid)
    x = surf.points4[vid]
    nb = star.neighbors
    m = len(nb)
    ell = np.array([space_dist(x, surf.points4[s]) for s in nb])
    rho_x = np.array([apex_edge_angle(x, surf.points4[s]) for s in nb])
    rho_s = np.array([apex_edge_angle(surf.points4[s], x) for s in nb])
    omega = np.array(
        [
            wedge_angle(x, surf.points4[nb[j]], surf.points4[nb[(j + 1) % m]])
            for j in range(m)
        ]
    )
    return star, ell, rho_x, rho_s, omega


def _wedge_dihedral(omega, rho_this, rho_other):
    """Signed dihedral along the edge with apex angle rho_this, inside the
    wedge with angle omega whose other edge has apex angle rho_other."""
    return (math.sinh(rho_other) - math.cos(omega) * math.sinh(rho_this)) / (
        math.sin(omega) * math.cosh(rho_this)
    )


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


def jacobian(surf, require_convex=True):
    """Assemble d omega_x / d h_y from the vertex stars.

    Per neighbor s_j of x: the two wedges adjacent to the edge x-s_j give
    signed dihedrals whose sinh-sum vanishes on false edges and is negative
    on true edges of a convex surface; the chain rule through the apex
    triangles contributes cosh(rho)/sinh(ell) factors.
    """
    n = surf.n
    J = np.zeros((n, n))
    for ix in range(n):
        star, ell, rho_x, rho_s, omega = _star_geometry(surf, ix)
        m = len(star.neighbors)
        for j in range(m):
            s = star.neighbors[j]
            iy = surf.base_of(s)
            sinh_sum = _wedge_dihedral(
                omega[j - 1], rho_x[j], rho_x[j - 1]
            ) + _wedge_dihedral(omega[j], rho_x[j], rho_x[(j + 1) % m])
            if not star.true_edge[j]:
                if abs(sinh_sum) > 1e-6:
                    raise GeometryError(
                        f"false edge with nonzero dihedral sum {sinh_sum:.2e}"
                    )
                continue
            if require_convex and sinh_sum > 1e-9:
                raise GeometryError(
                    "surface is not convex along a true edge "
                    f"(sinh sum {sinh_sum:.2e})"
                )
            same_orbit = iy == ix
            if same_orbit:
                J[ix, ix] += (
                    sinh_sum
                    * math.cosh(rho_x[j])
                    * (1.0 - math.cosh(ell[j]))
                    / math.sinh(ell[j])
                )
            else:
                a_xy_j = sinh_sum * math.cosh(rho_s[j]) / math.sinh(ell[j])
                J[ix, iy] += a_xy_j
                J[ix, ix] += (
                    -math.cosh(ell[j])
                    * sinh_sum
                    * math.cosh(rho_x[j])
                    / math.sinh(ell[j])
                )
    cond = float(np.linalg.cond(J))
    logger.debug("jacobian condition number: %.3e", cond)
    return JacobianMatrix(J, cond)


def wedge_convexity(surf, vid):
    """Convexity classification of every true edge at a fundamental vertex."""
    star, ell, rho_x, rho_s, omega = _star_geometry(surf, vid)
    m = len(star.neighbors)
    out = []
    for j in range(m):
        a1 = _wedge_dihedral(omega[j - 1], rho_x[j], rho_x[j - 1])
        a2 = _wedge_dihedral(omega[j], rho_x[j], rho_x[(j + 1) % m])
        out.append(
            (star.true_edge[j], convexity_sign(math.asinh(a1), math.asinh(a2)))
        )
    return out


# -- the prescribed-curvature solver ---------------------------------------------


def solve_prescribed_curvature(
    config,
    tol=1e-8,
    max_newton=40,
    max_continuation=40,
    h0=None,
):
    """Heights whose Fuchsian surface has the prescribed vertex curvatures.

    Damped Newton iteration with the analytic Jacobian; when a cold start
    stalls, the target is reached by continuation along the straight
    segment (inside K(n)) from an evaluated feasible configuration.
    Returns a dict with heights, achieved curvatures, residual, Jacobian
    condition number and iteration count.
    """
    if config.targets is None:
        raise GeometryError("config has no curvature targets")
    k_target = config.targets
    n = config.n
    h = np.full(n, 0.75) if h0 is None else np.asarray(h0, dtype=float).copy()

    # Every hull is certified exact, so each line-search trial is final.
    # Starts whose vertices are not in convex position are blended toward
    # equal heights, which always are.
    surf = None
    for _ in range(12):
        try:
            surf = orbit_hull(config.with_heights(h))
            break
        except GeometryError:
            h = 0.5 * h + 0.5 * float(np.mean(h))
    if surf is None:
        raise GeometryError("could not find a feasible starting surface")

    # line-search trials call the builder, not `orbit_hull`, so a trace
    # tells them apart from the starting hull
    def evaluate(hvec):
        s = _certified_hull(config.with_heights(hvec))
        return s, curvatures(s)

    k_now = curvatures(surf)
    iterations = 0
    last_cond = float("nan")

    def newton_to(target, h, surf, k_now, budget):
        nonlocal iterations, last_cond
        r = k_now - target
        for _ in range(budget):
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
                    surf_try, k_try = evaluate(h_try)
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
    h, surf, k_now, ok = newton_to(k_target, h, surf, k_now, max_newton)
    if not ok:
        # continuation from the current feasible point along K(n)
        k_anchor = k_now.copy()
        t, t_step = 0.0, 0.25
        cont = 0
        while t < 1.0 and cont < max_continuation:
            t_next = min(1.0, t + t_step)
            target = (1 - t_next) * k_anchor + t_next * k_target
            h2, surf2, k2, ok = newton_to(target, h, surf, k_now, max_newton)
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
        v = self.vertices
        m = len(v)
        angles = []
        for i in range(m):
            t1 = unit_tangent(v[i], v[i - 1])
            t2 = unit_tangent(v[i], v[(i + 1) % m])
            angles.append(float(np.arccos(np.clip(ads_inner(t1, t2), -1.0, 1.0))))
        return (m - 2) * np.pi - float(sum(angles))


def minkowski_dual(surf):
    """Dual faces of the surface: one per fundamental vertex.

    The face dual to the vertex on ray r_i lies in the plane orthogonal to
    the reflected ray and has hyperbolic area equal to minus the vertex
    curvature.
    """
    out = []
    ks = curvatures(surf)
    for vid in range(surf.n):
        star = surf.stars[vid]
        face_seq = []
        for fi in star.wedge_face:
            if not face_seq or face_seq[-1] != fi:
                face_seq.append(fi)
        if len(face_seq) > 1 and face_seq[0] == face_seq[-1]:
            face_seq.pop()
        if len(face_seq) < 3:
            raise GeometryError("dual face needs at least three planes")
        verts = np.array([surf.faces[fi].pole for fi in face_seq])
        out.append(
            DualFace(vid, verts, surf.points4[vid].copy())
        )
    return out, ks


def reflected_ray_point(p, h):
    """Point at height h on the ray reflected through H."""
    return np.concatenate([np.cos(h) * np.asarray(p), [-np.sin(h)]])


def induced_cone_metric(surf):
    """Hyperbolic cone metric induced on the quotient surface.

    One cone point per ray; hyperbolic cone angles exceed 2 pi (negative
    singular curvature).  This is the white metric of the projected
    tilings of the surface.
    """
    from .tilings import ConeMetric, ConePoint

    omegas = cone_angles(surf)
    return ConeMetric(-1, [ConePoint(float(w), i) for i, w in enumerate(omegas)])


# -- projections to hyperbolic tilings --------------------------------------------


def _ads_project_point(pole, x, side):
    """a^{-1} x or x a^{-1} into e* = {x4 = 0}, upper-sheet representative."""
    from .tilings import Side

    ainv = inv4(pole, Signature.ADS)
    w = (
        mul4(ainv, x, Signature.ADS)
        if side is Side.LEFT
        else mul4(x, ainv, Signature.ADS)
    )
    if abs(w[3]) > 1e-8:
        raise GeometryError("projection left the reference plane")
    u = w[:3]
    return -u if u[2] < 0 else u


def _match_corner(stored_vertices, deck, point, tol=1e-6):
    """Index of the stored polygon corner that deck-translates to `point`."""
    moved = stored_vertices @ deck.T
    d = np.linalg.norm(moved - point, axis=1)
    j = int(np.argmin(d))
    if d[j] > tol:
        raise GeometryError(f"corner match failed ({d[j]:.2e})")
    return j


def _edge_orbit_key(surf, u, v):
    gu, gv = surf.element_of(u), surf.element_of(v)
    bu, bv = surf.base_of(u), surf.base_of(v)
    rel = np.linalg.inv(gu) @ gv
    a = (bu, bv, surf.group.element_key(rel))
    b = (bv, bu, surf.group.element_key(np.linalg.inv(rel)))
    return min(a, b)


def _face_deck(surf, fi, rep_fi):
    """Deck g with face fi = g . face rep_fi, by exhaustive vertex matching."""
    f = surf.faces[fi]
    rep = surf.faces[rep_fi]
    u0 = f.ids[0]
    b0 = surf.base_of(u0)
    g0 = surf.element_of(u0)
    rep_pts = surf.points4[rep.ids][:, :3]
    f_pts = surf.points4[f.ids][:, :3]
    for w in rep.ids:
        if surf.base_of(w) != b0:
            continue
        cand = g0 @ np.linalg.inv(surf.element_of(w))
        moved = rep_pts @ cand.T
        ok = all(
            np.min(np.linalg.norm(f_pts - mp, axis=1)) < 1e-7 for mp in moved
        )
        if ok:
            return cand
    raise GeometryError("face deck transformation not found")


@dataclass
class HyperbolicAmbient:
    """Quotient surface data attached to a hyperbolic tiling.

    `word_length` and `word_length_cap` are kept for `tiling.v1` format
    compatibility and no longer affect the hull.
    """

    group: FuchsianGroup
    rays: np.ndarray
    word_length: int = 4
    word_length_cap: int = 10

    def config(self, heights):
        return FuchsianConfig(
            self.group, self.rays, np.asarray(heights, dtype=float), None,
            self.word_length, self.word_length_cap
        )


def ads_project(surf, side):
    """Left/right projection of a Fuchsian surface onto the quotient
    hyperbolic plane H = e*: a flippable tiling given by fundamental faces.

    White faces are projected surface faces (one per face orbit), black
    faces the projected links at the fundamental vertices; corner links
    carry the deck transformations identifying the incident copies.
    """
    from .tilings import (
        BLACK,
        WHITE,
        FlippableTiling,
        Side,
        TilingFace,
        _build_edge,
    )

    ops = HyperbolicOps
    group = surf.group

    # face orbits, represented by the first encountered incident copy
    orbit_of = {}
    orbit_rep = []
    face_orbit = {}
    for star in surf.stars:
        for fi in star.wedge_face:
            key = surf.face_orbit_key(fi)
            if key not in orbit_of:
                orbit_of[key] = len(orbit_rep)
                orbit_rep.append(fi)
            face_orbit[fi] = orbit_of[key]
    deck_cache = {}

    def face_deck(fi):
        if fi not in deck_cache:
            deck_cache[fi] = _face_deck(surf, fi, orbit_rep[face_orbit[fi]])
        return deck_cache[fi]

    # white faces: projections of the representative copies
    white_polys = []
    white_links = []
    white_decks = []
    for wo, fi in enumerate(orbit_rep):
        f = surf.faces[fi]
        img = np.array(
            [_ads_project_point(f.pole, surf.points4[v], side) for v in f.vertex_ids]
        )
        white_polys.append(img)
        white_links.append(tuple(surf.base_of(v) for v in f.vertex_ids))
        white_decks.append(tuple(surf.element_of(v) for v in f.vertex_ids))

    # black faces: projected links at the fundamental vertices
    black_polys = []
    black_links = []
    black_decks = []
    black_face_seq = []
    for vid in range(surf.n):
        star = surf.stars[vid]
        x = surf.points4[vid]
        seq = []
        for fi in star.wedge_face:
            if not seq or seq[-1] != fi:
                seq.append(fi)
        if len(seq) > 1 and seq[0] == seq[-1]:
            seq.pop()
        if len(seq) < 3:
            raise GeometryError("vertex link needs at least three faces")
        pts = np.array(
            [_ads_project_point(surf.faces[fi].pole, x, side) for fi in seq]
        )
        black_polys.append(pts)
        black_links.append(tuple(face_orbit[fi] for fi in seq))
        black_decks.append(tuple(face_deck(fi) for fi in seq))
        black_face_seq.append(seq)

    # one tiling edge per true-edge orbit met at a fundamental vertex
    edge_slots = {}
    for vid in range(surf.n):
        star = surf.stars[vid]
        m = len(star.neighbors)
        for j in range(m):
            if not star.true_edge[j]:
                continue
            key = _edge_orbit_key(surf, vid, star.neighbors[j])
            if key not in edge_slots:
                edge_slots[key] = (vid, j)

    white_edge_refs = [[None] * len(p) for p in white_polys]
    black_edge_refs = [[None] * len(p) for p in black_polys]
    edges = []
    for ei, (vid, j) in enumerate(sorted(edge_slots.values())):
        star = surf.stars[vid]
        m = len(star.neighbors)
        s = star.neighbors[j]
        fa = star.wedge_face[(j - 1) % m]
        fb = star.wedge_face[j]
        if fa == fb:
            raise GeometryError("true edge inside a single face")
        pa, pb = surf.faces[fa].pole, surf.faces[fb].pole
        x_v, x_s = surf.points4[vid], surf.points4[s]
        wa_v = _ads_project_point(pa, x_v, side)
        wa_s = _ads_project_point(pa, x_s, side)
        wb_v = _ads_project_point(pb, x_v, side)
        wb_s = _ads_project_point(pb, x_s, side)
        base = wa_v
        direction = ops.tangent(wa_v, wa_s)
        ell = ops.dist(wa_v, wa_s)
        delta = float(np.arcsinh(hyp_inner(wb_v, direction)))
        t_check = float(np.arcsinh(hyp_inner(wb_s, direction)))
        if abs(t_check - (delta + ell)) > 1e-7:
            raise GeometryError("projected edge image is not rigid")

        entries = []
        # white segments
        for (fi, lo) in ((fa, 0.0), (fb, delta)):
            wo = face_orbit[fi]
            deck = face_deck(fi)
            img_v = wa_v if fi == fa else wb_v
            img_s = wa_s if fi == fa else wb_s
            kv = _match_corner(white_polys[wo], deck, img_v)
            ks = _match_corner(white_polys[wo], deck, img_s)
            npoly = len(white_polys[wo])
            if (kv + 1) % npoly == ks:
                slot, rev = kv, False
            elif (ks + 1) % npoly == kv:
                slot, rev = ks, True
            else:
                raise GeometryError("white corners not adjacent in the polygon")
            probe_pts = white_polys[wo] @ deck.T
            c = probe_pts.sum(axis=0)
            probe = c / math.sqrt(max(-hyp_inner(c, c), 1e-30))
            entries.append(
                dict(color=WHITE, face=wo, face_edge=slot, reversed=rev,
                     t0=min(lo, lo + ell), t1=max(lo, lo + ell), probe=probe,
                     deck=deck)
            )
            if white_edge_refs[wo][slot] is None:
                white_edge_refs[wo][slot] = ei
        # black segments: at vid (deck identity) and at s (deck of its orbit)
        for (vtx, lo) in ((vid, 0.0), (s, ell)):
            b = surf.base_of(vtx)
            deck = surf.element_of(vtx)
            img_a = _ads_project_point(pa, surf.points4[vtx], side)
            img_b = _ads_project_point(pb, surf.points4[vtx], side)
            ka = _match_corner(black_polys[b], deck, img_a)
            kb = _match_corner(black_polys[b], deck, img_b)
            npoly = len(black_polys[b])
            if (ka + 1) % npoly == kb:
                slot, rev = ka, (delta < 0)
            elif (kb + 1) % npoly == ka:
                slot, rev = kb, (delta > 0)
            else:
                raise GeometryError("black corners not adjacent in the link")
            probe_pts = black_polys[b] @ deck.T
            c = probe_pts.sum(axis=0)
            probe = c / math.sqrt(max(-hyp_inner(c, c), 1e-30))
            entries.append(
                dict(color=BLACK, face=b, face_edge=slot, reversed=rev,
                     t0=min(lo, lo + delta), t1=max(lo, lo + delta), probe=probe,
                     deck=deck)
            )
            if black_edge_refs[b][slot] is None:
                black_edge_refs[b][slot] = ei
        edges.append(_build_edge(ops, base, direction, entries))

    white = [
        TilingFace(WHITE, white_polys[w], white_links[w],
                   tuple(white_edge_refs[w]), decks=white_decks[w])
        for w in range(len(white_polys))
    ]
    black = [
        TilingFace(BLACK, black_polys[b], black_links[b],
                   tuple(black_edge_refs[b]), decks=black_decks[b])
        for b in range(len(black_polys))
    ]
    ambient = HyperbolicAmbient(
        group, surf.config.rays, surf.config.word_length,
        surf.config.word_length_cap
    )
    T = FlippableTiling(side.other, black, white, edges, ambient=ambient)
    from .tilings import _assert_handedness

    _assert_handedness(T)
    return T


def recover_heights(T):
    """Heights of the Fuchsian surface underlying a symmetric tiling.

    Each white polygon edge joins the apexes of two black-face copies:
    cosh(edge length) = cos(h_i) cos(h_j) cosh(base distance) +
    sin(h_i) sin(h_j), with the base distance read off the rays and the
    deck labels.  The resulting small system is solved by least squares.
    """
    from scipy.optimize import least_squares

    amb = T.ambient
    if amb == "sphere":
        raise GeometryError("recover_heights expects a hyperbolic tiling")
    rays = amb.rays
    n = len(T.black)
    ops = HyperbolicOps
    equations = []
    for w in T.white:
        k = len(w)
        for m in range(k):
            b1, b2 = w.links[m], w.links[(m + 1) % k]
            g1, g2 = w.decks[m], w.decks[(m + 1) % k]
            ell = ops.dist(w.vertices[m], w.vertices[(m + 1) % k])
            dbase = ops.dist(g1 @ rays[b1], g2 @ rays[b2])
            equations.append((b1, b2, math.cosh(dbase), math.cosh(ell)))

    def residuals(h):
        out = []
        for b1, b2, cd, ce in equations:
            out.append(
                math.cos(h[b1]) * math.cos(h[b2]) * cd
                + math.sin(h[b1]) * math.sin(h[b2])
                - ce
            )
        return out

    sol = least_squares(
        residuals,
        x0=np.full(n, 0.7),
        bounds=(1e-4, np.pi / 2 - 1e-4),
        xtol=1e-15,
        ftol=1e-15,
        gtol=1e-15,
    )
    res = float(np.max(np.abs(sol.fun)))
    if res > 1e-8:
        raise DevelopmentError(
            f"tiling is not consistent with apexes on the rays ({res:.2e})"
        )
    return sol.x


def flip_hyperbolic(T):
    """Flip of a symmetric hyperbolic tiling.

    The white polyhedron is re-embedded from the recovered heights, checked
    against the input tiling, then projected to the other side.
    """
    from .tilings import tiling_equality_error

    amb = T.ambient
    h = recover_heights(T)
    surf = orbit_hull(amb.config(h))
    same = ads_project(surf, T.handedness.other)
    err = tiling_equality_error(T, same)
    if err > 1e-7:
        raise DevelopmentError(
            f"tiling does not match its reconstructed surface ({err:.2e})"
        )
    return ads_project(surf, T.handedness)


# -- spherical star polyhedra (interlude) ------------------------------------------


def star_polyhedron(directions, heights):
    """Convex spherical polyhedron with vertices on rays from o = e.

    Directions are unit 3-vectors (the rays through o in its tangent
    space), heights the distances from o; the hull must be simplicial with
    every point extreme and o interior.
    """
    from .polyhedra import hull

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
    order = []
    for v in P.vertices:
        c = v[0]
        d = np.linalg.norm(t - v[1:] / math.sqrt(max(1 - c * c, 1e-30)), axis=1)
        order.append(int(np.argmin(d)))
    if sorted(order) != list(range(len(t))):
        raise GeometryError("could not match hull vertices to rays")
    return P, order


def _sph_star_geometry(P, vi):
    """Neighbor cycle, edge lengths and apex-edge angles at one vertex."""
    o = np.array([1.0, 0.0, 0.0, 0.0])
    x = P.vertices[vi]
    cyc_faces = P.face_cycle_at_vertex(vi)
    neighbors = []
    for idx in range(len(cyc_faces)):
        fa, fb = cyc_faces[idx], cyc_faces[(idx + 1) % len(cyc_faces)]
        shared = set(P.faces[fa]) & set(P.faces[fb]) - {vi}
        if len(shared) != 1:
            raise GeometryError("vertex star is not simplicial")
        neighbors.append(shared.pop())

    def tangent(a, b):
        w = b - np.dot(a, b) * a
        return w / np.linalg.norm(w)

    m = len(neighbors)
    ell = np.array(
        [float(np.arccos(np.clip(np.dot(x, P.vertices[s]), -1, 1))) for s in neighbors]
    )
    rho_x = np.empty(m)
    rho_s = np.empty(m)
    omega = np.empty(m)
    to = tangent(x, o)
    for j, s in enumerate(neighbors):
        y = P.vertices[s]
        rho_x[j] = float(np.arccos(np.clip(np.dot(to, tangent(x, y)), -1, 1)))
        rho_s[j] = float(
            np.arccos(np.clip(np.dot(tangent(y, o), tangent(y, x)), -1, 1))
        )
    for j in range(m):
        ta = tangent(x, P.vertices[neighbors[j]])
        tb = tangent(x, P.vertices[neighbors[(j + 1) % m]])
        omega[j] = float(np.arccos(np.clip(np.dot(ta, tb), -1, 1)))
    return neighbors, ell, rho_x, rho_s, omega


def _sph_wedge_dihedral(omega, rho_this, rho_other):
    return (math.cos(rho_other) - math.cos(omega) * math.cos(rho_this)) / (
        math.sin(omega) * math.sin(rho_this)
    )


def sph_star_cone_angles(P, order):
    """Cone angle (total face angle) at each vertex, indexed by ray."""
    n = P.n_vertices
    out = np.empty(n)
    for vi in range(n):
        _, _, _, _, omega = _sph_star_geometry(P, vi)
        out[order[vi]] = float(np.sum(omega))
    return out


def sph_star_jacobian(P, order):
    """d omega_x / d h_y for a spherical star polyhedron.

    Off-diagonal entries are (cos alpha + cos alpha') sin(rho_yx) /
    sin(ell_xy) over the edge xy, positive by convexity; the diagonal is
    minus the cos(ell)-weighted column sum.
    """
    n = P.n_vertices
    A = np.zeros((n, n))
    for vi in range(n):
        ix = order[vi]
        neighbors, ell, rho_x, rho_s, omega = _sph_star_geometry(P, vi)
        m = len(neighbors)
        for j in range(m):
            s = neighbors[j]
            iy = order[s]
            cos_sum = _sph_wedge_dihedral(
                omega[j - 1], rho_x[j], rho_x[j - 1]
            ) + _sph_wedge_dihedral(omega[j], rho_x[j], rho_x[(j + 1) % m])
            # a_xy accumulated at row ix; rho_s[j] is the angle at the
            # neighbor, whose height drives this entry
            A[ix, iy] += cos_sum * math.sin(rho_s[j]) / math.sin(ell[j])
            A[ix, ix] += -math.cos(ell[j]) * cos_sum * math.sin(rho_x[j]) / math.sin(
                ell[j]
            )
    cond = float(np.linalg.cond(A))
    logger.debug("spherical star jacobian condition: %.3e", cond)
    return JacobianMatrix(A, cond)
