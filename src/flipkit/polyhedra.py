"""Convex polyhedra in the open hemisphere of the 3-sphere.

Construction goes through the projective chart centered at e = (1,0,0,0):
a point with x1 > 0 is drawn at (x2,x3,x4)/x1, where spherical polyhedra
become Euclidean polytopes.  Hulls and their faces are derived from that
picture.

This module owns the one chart hull -> merged faces path, for the
polyhedra of S^3 here and the orbit hulls of AdS_3 in `fuchsian`: after
each caller's Qhull call, `triangle_poles`, `merge_triangles` and
`cyclic_orders` give the faces; spherical polyhedra keep SVD poles.

A polyhedron's combinatorics are one corner table (`Corners`, the doubly
connected edge list of Muller and Preparata): its edges, one star table
of all its vertices (`VertexStars`, which `fuchsian` keeps for its
surfaces too) and the projections of `tilings` are read off it.

Polar duality is read off the corner table too, with no hull: the face
poles of P are the vertices of its dual, the vertex stars of P its faces
and the vertices of P its face poles.  A star turns clockwise about its
vertex v seen from outside P.  The dual face of v lies in the plane v*,
where the outside of the dual is the side of -v, so the same cycle turns
counterclockwise seen from outside the dual.
"""

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import ConvexHull as EuclideanHull
from scipy.spatial import QhullError

from .errors import GeometryError
from .forms import cross4
from .spheremath import SPHERE_STAR, SphereOps

EPS_PLANE = 1e-9
EPS_HEMISPHERE = 1e-8
MERGE_TOL = 1e-8   # hull triangles whose unit poles lie this close share a face
SWEEP = np.array([1.0, 2 ** 0.5, 3 ** 0.5, 5 ** 0.5]) / 11 ** 0.5  # generic unit 4-vector


def to_chart(points):
    points = np.atleast_2d(points)
    if np.any(points[:, 0] <= EPS_HEMISPHERE):
        raise GeometryError("point on or beyond the hemisphere boundary")
    return points[:, 1:] / points[:, :1]


def from_chart(u):
    u = np.atleast_2d(u)
    w = np.hstack([np.ones((len(u), 1)), u])
    return w / np.linalg.norm(w, axis=1, keepdims=True)


def normalize_rows(a):
    """Rows scaled to unit length.  Rows already unit to within a few ulp
    are returned unchanged, so normalizing twice gives the same bits."""
    norms = np.linalg.norm(a, axis=-1, keepdims=True)
    norms[np.abs(norms - 1.0) <= 4 * np.finfo(float).eps] = 1.0
    return a / norms


@dataclass(frozen=True)
class SphericalPolygon:
    """Convex polygon on the unit 2-sphere, measured by `SphereOps`."""

    vertices: np.ndarray

    def __len__(self):
        return len(self.vertices)


def _complement_basis(u):
    """Orthonormal basis of the 3-space orthogonal to a unit 4-vector u,
    by Gram-Schmidt over the coordinate axes."""
    basis = []
    for seed in np.eye(4):
        w = seed - np.dot(seed, u) * u
        for b in basis:
            w -= np.dot(w, b) * b
        n = np.linalg.norm(w)
        if n > 1e-8:
            basis.append(w / n)
        if len(basis) == 3:
            break
    return np.array(basis)


@dataclass(frozen=True, eq=False)
class VertexStars:
    """The vertex stars of a surface as one table, on either quadric.

    Star i is at vertex[i], with its neighbour cycle
    neighbors[offsets[i]:offsets[i + 1]]; its rows are stacked star after
    star in cycle order, and row j is also wedge j of its star, the
    triangle (vertex, neighbors[j], the next neighbour of its star).  Per
    row, true_edge[j] is False for a triangulation diagonal and
    wedge_face[j] is the face of wedge j, -1 for a star re-cut by
    `fuchsian._recut_stars`.  The cone angles are the cycle sums of the
    wedge angles, one per row, of `fuchsian.star_geometry`."""

    vertex: np.ndarray
    offsets: np.ndarray
    neighbors: np.ndarray
    true_edge: np.ndarray
    wedge_face: np.ndarray

    @classmethod
    def stacked(cls, vertex, cycles, true_edge=True, wedge_face=-1):
        """The table of the stars at `vertex` with the neighbour `cycles`;
        the true-edge flags and wedge faces per row or once for all rows."""
        sizes = [len(c) for c in cycles]
        m = sum(sizes)
        return cls(np.asarray(vertex, dtype=np.intp), np.cumsum([0] + sizes, dtype=np.intp),
                   np.fromiter(itertools.chain.from_iterable(cycles), dtype=np.intp, count=m),
                   np.full(m, true_edge, dtype=bool), np.full(m, wedge_face, dtype=np.intp))

    def __len__(self):
        return len(self.vertex)

    def __getitem__(self, i):
        """Star i as a table of its own, its columns slices of these."""
        i = range(len(self))[i]
        a, b = self.offsets[i:i + 2].tolist()
        return VertexStars(self.vertex[i:i + 1], self.offsets[i:i + 2] - a,
                           self.neighbors[a:b], self.true_edge[a:b], self.wedge_face[a:b])


@dataclass(frozen=True, eq=False)
class Corners:
    """The corner table of a face list.  Corner c, face after face, is
    corner position[c] of face[c], at vertex[c]; next[c] is the next corner
    of its face, twin[c] the corner of vertex[c] in the face across the
    edge from vertex[c] to vertex[next[c]].  Edge e, in order of its ends
    i < j, leaves corner half[e, 0] of its lesser face and half[e, 1].
    `ConvexPolyhedron.corners` sorts the corners' undirected edges once and
    refuses an edge that does not border two faces."""

    vertex: np.ndarray
    face: np.ndarray
    position: np.ndarray
    next: np.ndarray
    twin: np.ndarray
    half: np.ndarray


class ConvexPolyhedron:
    """Convex polyhedron of the open hemisphere x1 > 0.

    vertices   : (n, 4) unit vectors
    faces      : tuples of vertex indices, counterclockwise from outside
    face_poles : (f, 4) inward unit normals; face i lies in face_poles[i]*
    corners    : the `Corners` of its faces, built on first read
    edges      : tuples (i, j, fa, fb), i < j and fa < fb, in order of (i, j)
    stars      : the `VertexStars` of all its vertices, read off the twins
    """

    def __init__(self, vertices, faces, face_poles, interior, validate=True):
        self.vertices = np.asarray(vertices, dtype=float)
        self.faces = tuple(tuple(int(i) for i in f) for f in faces)
        self.face_poles = np.asarray(face_poles, dtype=float)
        self.interior = np.asarray(interior, dtype=float)
        if validate:
            self.validate()

    # -- structure ---------------------------------------------------------

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_faces(self):
        return len(self.faces)

    @cached_property
    def corners(self):
        sizes = np.array([len(f) for f in self.faces], dtype=np.intp)
        face = np.repeat(np.arange(len(sizes)), sizes)
        vertex = np.fromiter(itertools.chain.from_iterable(self.faces), np.intp, len(face))
        first = (np.cumsum(sizes) - sizes)[face]
        position = np.arange(len(face)) - first
        nxt = first + (position + 1) % sizes[face]
        ends = np.sort([vertex, vertex[nxt]], axis=0)  # the edge after each corner, i < j
        m = int(ends.max(initial=0)) + 1
        key = ends[0] * m + ends[1]
        order = np.argsort(key, kind="stable")  # the corners edge by edge, face by face
        key = key[order]
        if len(key) % 2 or np.any(key[::2] != key[1::2]) or np.any(key[1:-1:2] == key[2::2]):
            keys, count = np.unique(key, return_counts=True)
            b = np.argmax(count != 2)
            raise GeometryError(f"edge {divmod(int(keys[b]), m)} borders {count[b]} faces")
        half = order.reshape(-1, 2)
        partner = np.empty_like(order)
        partner[half] = half[:, ::-1]  # the corner on the other side of its edge
        twin = np.where(vertex[partner] == vertex, partner, nxt[partner])
        return Corners(vertex, face, position, nxt, twin, half)

    @cached_property
    def edges(self):
        c = self.corners
        ends = np.sort([c.vertex[c.half[:, 0]], c.vertex[c.next[c.half[:, 0]]]], axis=0)
        return tuple(zip(*ends.tolist(), *c.face[c.half].T.tolist()))

    @property
    def n_edges(self):
        return len(self.corners.half)

    @cached_property
    def star_corners(self):
        """Row r of `stars` is corner star_corners[r]: star v runs from the
        corner of v in its least face through the twins.  GeometryError
        names the least vertex of fewer than 3 faces or whose twins do not
        close up."""
        c = self.corners
        deg = np.bincount(c.vertex, minlength=self.n_vertices).tolist()
        least = np.argsort(c.vertex, kind="stable").tolist()  # vertex by vertex, face by face
        twin, ring = c.twin.tolist(), []
        for v, k in enumerate(deg):
            if k < 3:
                raise GeometryError(f"vertex {v} has fewer than 3 faces")
            star = [least[len(ring)]]
            while len(star) < k:
                star.append(twin[star[-1]])
            if twin[star[-1]] != star[0] or len(set(star)) < k:
                raise GeometryError(f"vertex star at {v} does not close up")
            ring += star
        return np.array(ring, dtype=np.intp)

    @cached_property
    def stars(self):
        """Per star, neighbour j on the edge of its faces j and j + 1, wedge j in face j + 1."""
        c, ring = self.corners, self.star_corners
        deg = np.bincount(c.vertex, minlength=self.n_vertices)
        return VertexStars(np.arange(len(deg)), np.r_[0, np.cumsum(deg)], c.vertex[c.next[ring]],
                           np.ones(len(ring), dtype=bool), c.face[c.twin[ring]])

    def face_cycle_at_vertex(self, vi):
        """Faces around vertex vi, from the least: the faces of its star."""
        a, b = self.stars.offsets[vi:vi + 2]
        return self.corners.face[self.star_corners[a:b]].tolist()

    # -- validation --------------------------------------------------------

    def validate(self):
        v = self.vertices
        if len(v) < 4:
            raise GeometryError("a convex polyhedron needs at least 4 vertices")
        if np.any(np.abs(np.sum(v * v, axis=1) - 1.0) > 1e-9):
            raise GeometryError("vertices are not unit vectors")
        if np.any(v[:, 0] <= EPS_HEMISPHERE):
            raise GeometryError("vertex outside the open hemisphere")
        euler = self.n_vertices - self.n_edges + self.n_faces
        if euler != 2:
            raise GeometryError(f"Euler relation fails: V-E+F = {euler}")
        c = self.corners
        prods = self.vertices @ self.face_poles.T  # (n, f)
        worst = np.full(self.n_faces, -np.inf)
        np.maximum.at(worst, c.face, np.abs(prods[c.vertex, c.face]))
        bad = np.flatnonzero(worst > EPS_PLANE * 10)
        if len(bad):
            raise GeometryError(f"face {bad[0]} not coplanar: {worst[bad[0]]:.3g}")
        if np.min(prods) < -EPS_PLANE * 10:
            raise GeometryError("a vertex lies strictly outside a face half-space")
        flat = np.flatnonzero(prods.max(axis=0) <= EPS_PLANE * 10)
        if len(flat):
            raise GeometryError(f"face {flat[0]} has no vertex inside its plane: flat polyhedron")
        if np.min(self.interior @ self.face_poles.T) <= 0:
            raise GeometryError("empty interior")
        bad = np.nonzero(~self.faces_convex())[0]
        if len(bad):
            raise GeometryError(f"face {bad[0]} is not convex")
        return True

    def faces_convex(self):
        """Convexity of every face in one pass; its oracle, one polygon at a
        time, is `polygon_is_convex` in `tests/reference_geometry.py`.

        The normal of polygon edge (v_i, v_i+1) of face f inside the
        2-sphere pole_f^perp is the cross product (pole_f, v_i, v_i+1).  A
        face is convex when no edge normal is degenerate and the normalized
        products of all normals with the face's other vertices share a sign
        up to EPS_PLANE, the default tolerance of that oracle.
        """
        sizes = np.array([len(f) for f in self.faces])
        ids = np.fromiter(itertools.chain.from_iterable(self.faces), int, sizes.sum())
        start = np.cumsum(sizes) - sizes
        face_of = np.repeat(np.arange(len(sizes)), sizes)
        first = start[face_of]
        pos = np.arange(len(ids)) - first
        k = sizes[face_of]
        v = self.vertices
        normals = cross4(self.face_poles[face_of], v[ids], v[ids[first + (pos + 1) % k]])
        norms = np.linalg.norm(normals, axis=1)
        degenerate = norms < 1e-12
        normals /= np.where(degenerate, 1.0, norms)[:, None]
        # edge e meets the k - 2 vertices at positions pos + 2, ..., pos + k - 1
        others = np.maximum(k - 2, 0)
        edge = np.repeat(np.arange(len(ids)), others)
        step = np.arange(len(edge)) - np.repeat(np.cumsum(others) - others, others) + 2
        j = ids[first[edge] + (pos[edge] + step) % k[edge]]
        prods = np.einsum("ij,ij->i", v[j], normals[edge])
        lo = np.full(len(sizes), np.inf)
        hi = np.full(len(sizes), -np.inf)
        np.minimum.at(lo, face_of[edge], prods)
        np.maximum.at(hi, face_of[edge], prods)
        has_degenerate = np.bincount(face_of[degenerate], minlength=len(sizes)) > 0
        return ~has_degenerate & ((lo >= -EPS_PLANE) | (hi <= EPS_PLANE))

    # -- geometry ----------------------------------------------------------

    def face_polygon(self, fi):
        """Face fi as a spherical polygon in the 2-sphere carrying it."""
        pts = self.vertices[list(self.faces[fi])]
        coords = pts @ _complement_basis(self.face_poles[fi]).T
        return SphericalPolygon(normalize_rows(coords))

    def face_area(self, fi):
        return SphereOps.polygon_area(self.face_polygon(fi).vertices)

    def boundary_area(self):
        return float(sum(self.face_area(fi) for fi in range(self.n_faces)))

    def exterior_dihedral(self, edge):
        """Exterior dihedral angle along an edge: the distance of its two
        face poles."""
        i, j, fa, fb = edge
        return float(SPHERE_STAR.dist(self.face_poles[fa], self.face_poles[fb]))

    def polar_link(self, vi):
        """Link of outward unit normals at vertex vi: one corner per face of
        `face_cycle_at_vertex`, in its order.

        Edge lengths equal the exterior dihedral angles of the incident
        edges; interior angles are pi minus the face angles at vi.
        """
        outward = -self.face_poles[self.face_cycle_at_vertex(vi)]
        return SphericalPolygon(normalize_rows(outward @ _complement_basis(self.vertices[vi]).T))

    def vertex_cone_angle(self, vi):
        """Sum of the incident face angles at vertex vi, face by face."""
        c, v = self.corners, self.vertices
        before = np.flatnonzero(c.vertex[c.next] == vi)  # the corners before vi, face by face
        after = c.next[c.next[before]]
        return float(SPHERE_STAR.angle(v[vi], v[c.vertex[before]], v[c.vertex[after]]).sum())


# -- construction: one chart hull -> merged faces path for S^3 and AdS_3 ------


def triangle_poles(points4, simplices, star, toward):
    """Plane poles of hull triangles on the star quadric `star`.

    The pole of the plane through the rows of points4[s] is form * cross4,
    from one `cross4` over all triangles, scaled to |<p, p>| = 1 under the
    form and turned so that its Euclidean product with `toward` is not
    negative.  Returns the poles and <p, p> before scaling, whose sign
    tells space-like (< 0) from time-like planes on AdS_3.
    """
    tri = points4[simplices]  # (S, 3, 4)
    poles = cross4(tri[:, 0], tri[:, 1], tri[:, 2]) * star.form
    q = star.inner(poles, poles)
    poles /= np.sqrt(np.abs(q))[:, None]
    poles[poles @ toward < 0] *= -1.0
    return poles, q


def merge_triangles(simplices, poles):
    """Group hull triangles into faces: triangles whose poles lie within
    MERGE_TOL of each other, directly or through a chain, form one face.

    Returns, per face in the order of its least triangle, that triangle's
    index and the face's vertex ids, ascending.  Close pairs come from a
    sweep over the poles sorted along the unit vector SWEEP, not from a
    cKDTree, whose code the spherical path would load for this alone
    (about 0.4 MB more peak RSS).  Components are labelled by their least
    member: min-label propagation with pointer jumping.
    """
    key = poles @ SWEEP
    order = np.argsort(key, kind="stable")
    key = key[order]
    count = np.searchsorted(key, key + MERGE_TOL, side="right") - np.arange(len(key)) - 1
    a = np.repeat(np.arange(len(key)), count)
    b = a + 1 + np.arange(len(a)) - np.repeat(np.cumsum(count) - count, count)
    a, b = order[a], order[b]
    d = poles[a] - poles[b]
    close = np.sqrt(np.einsum("ij,ij->i", d, d)) <= MERGE_TOL
    a, b = a[close], b[close]
    labels = np.arange(len(poles))
    while True:
        low = np.minimum(labels[a], labels[b])
        new = labels.copy()
        np.minimum.at(new, a, low)
        np.minimum.at(new, b, low)
        new = new[new]
        if np.array_equal(new, labels):
            break
        labels = new
    first, sizes = np.unique(labels, return_counts=True)
    ids = np.sort(simplices[first], axis=1).tolist()
    if np.any(sizes > 1):
        members = np.split(np.argsort(labels, kind="stable"), np.cumsum(sizes)[:-1])
        for k in np.nonzero(sizes > 1)[0]:
            ids[k] = np.unique(simplices[members[k]]).tolist()
    return first, ids


def cyclic_orders(chart, rows, outward=None):
    """Each row of vertex ids of rows (m, k) ordered cyclically around the
    centroid of its coplanar chart points, from its least id: by the angle
    in the plane of the first two right singular vectors, with one batched
    SVD, counterclockwise seen from the side that outward[i] points to when
    `outward` (m, 3) is given."""
    pts = chart[rows]
    rel = pts - pts.mean(axis=1, keepdims=True)
    _, _, vt = np.linalg.svd(rel)
    u1, u2 = vt[:, 0], vt[:, 1]
    if outward is not None:
        u2 = np.where((np.einsum("mc,mc->m", np.cross(u1, u2), outward) < 0)[:, None], -u2, u2)
    ang = np.arctan2(np.einsum("mkc,mc->mk", rel, u2), np.einsum("mkc,mc->mk", rel, u1))
    m, k = rows.shape
    each = np.arange(m)[:, None]
    out = rows[each, np.argsort(ang, axis=1)]
    return out[each, (np.argmin(out, axis=1)[:, None] + np.arange(k)) % k]


def _svd_poles(faces, interior):
    """Unit normals toward `interior` of the planes through the rows of
    each (k, 4) block of `faces` (m, k, 4), from one batched SVD."""
    _, _, vt = np.linalg.svd(faces)
    n = vt[:, -1]
    # the bits of the 1-D np.linalg.norm, row by row
    n /= np.sqrt(np.matmul(n[:, None, :], n[:, :, None]))[:, 0]
    n[n @ interior < 0] *= -1.0
    return n


def qhull_reason(exc):
    """The first line of a QhullError, which names the failure; the lines
    after it are Qhull's diagnostic dump."""
    return str(exc).partition("\n")[0]


def _canonical_order(points):
    """The canonical vertex order: lexicographic on coordinates rounded to
    12 digits."""
    return np.lexsort(np.round(points, 12).T[::-1])


def hull(points):
    """Convex hull of points of the open hemisphere, via the projective chart.

    Input points must be unit 4-vectors with x1 > 0, at least 4 of them and
    not all coplanar in the chart.  Coplanar hull triangles are merged into
    faces when their plane poles agree within MERGE_TOL; a face stores the
    SVD pole of its least hull triangle.
    """
    pts = normalize_rows(np.atleast_2d(np.asarray(points, dtype=float)))
    if pts.shape[0] < 4 or pts.shape[1] != 4:
        raise GeometryError("hull needs at least 4 points of S3")
    chart = to_chart(pts)
    try:
        ch = EuclideanHull(chart)
    except QhullError as exc:
        raise GeometryError(f"degenerate input: {qhull_reason(exc)}") from exc
    keep = np.sort(ch.vertices)
    interior = from_chart(chart[keep].mean(axis=0)[None, :])[0]

    tri_poles, _ = triangle_poles(pts, ch.simplices, SPHERE_STAR, interior)
    first, ids = merge_triangles(ch.simplices, tri_poles)
    poles = _svd_poles(pts[ch.simplices[first]], interior)

    keep = keep[_canonical_order(pts[keep])]
    rank = np.empty(len(pts), dtype=int)
    rank[keep] = np.arange(len(keep))
    verts, chart = pts[keep], chart[keep]
    sizes = np.array([len(f) for f in ids])
    faces = [None] * len(ids)
    for k in np.unique(sizes).tolist():  # one batch per face size
        at = np.flatnonzero(sizes == k)
        rows = rank[np.array([ids[i] for i in at])]
        for i, cycle in zip(at.tolist(), cyclic_orders(chart, rows, -poles[at, 1:]).tolist()):
            faces[i] = tuple(cycle)
    face_order = sorted(range(len(faces)), key=faces.__getitem__)
    return ConvexPolyhedron(verts, [faces[i] for i in face_order], poles[face_order],
                            interior)


def from_vertices_and_faces(vertices, faces):
    """Build a polyhedron from explicit face cycles, recomputing the poles."""
    verts = normalize_rows(np.asarray(vertices, dtype=float))
    interior = from_chart(to_chart(verts).mean(axis=0)[None, :])[0]
    sizes = np.array([len(f) for f in faces], dtype=int)
    poles = np.empty((len(faces), 4))
    for k in np.unique(sizes):
        sel = np.nonzero(sizes == k)[0]
        poles[sel] = _svd_poles(verts[np.array([faces[i] for i in sel], dtype=int)],
                               interior)
    return ConvexPolyhedron(verts, faces, poles, interior)


def polar_dual(P):
    """Polar dual, read off the corner table of P with no hull: its vertices
    are the face poles of P, its faces the vertex stars of P, and its face
    poles the vertices of P.

    Vertices come in the `_canonical_order` of `hull`, and the interior is
    the chart mean of the poles, as `hull` takes it.  Face v is the cycle
    of the poles of the faces of star v, in star order, from its least id;
    the faces are sorted, and each carries the pole P.vertices[v].

    Star order is counterclockwise seen from outside the dual.  A star
    steps from a face to the face across the edge after v, clockwise about
    v seen from outside P, and the poles of those faces turn about v as the
    faces do.  Face v of the dual lies in the plane v*, where the outside
    of the dual is the side of -v, so the turn reverses.

    The dual of the dual of a P that `hull` or `polar_dual` built is P
    itself, bit for bit, and edge lengths of the dual equal the exterior
    dihedral angles of P.
    """
    poles = P.face_poles
    if np.any(poles[:, 0] <= EPS_HEMISPHERE):
        raise GeometryError(
            "a face pole leaves the open hemisphere; recenter P so that it "
            "contains the hemisphere center"
        )
    pts = normalize_rows(poles)
    interior = from_chart(to_chart(pts).mean(axis=0)[None, :])[0]
    order = _canonical_order(pts)
    rank = np.empty(len(pts), dtype=np.intp)
    rank[order] = np.arange(len(pts))
    c = P.corners
    ring = rank[c.face[P.star_corners]].tolist()
    ends = np.cumsum(np.bincount(c.vertex, minlength=P.n_vertices)).tolist()
    faces = []
    for a, b in zip([0] + ends[:-1], ends):
        cycle = ring[a:b]
        k = cycle.index(min(cycle))
        faces.append(tuple(cycle[k:] + cycle[:k]))
    face_order = sorted(range(len(faces)), key=faces.__getitem__)
    return ConvexPolyhedron(pts[order], [faces[i] for i in face_order],
                            P.vertices[face_order], interior)
