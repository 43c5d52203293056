"""Convex polyhedra in the open hemisphere of the 3-sphere.

Construction goes through the projective chart centered at e = (1,0,0,0):
a point with x1 > 0 is drawn at (x2,x3,x4)/x1, where spherical polyhedra
become Euclidean polytopes.  Faces, polar duals and polar links are all
derived from that picture.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull as EuclideanHull
from scipy.spatial import QhullError

from .errors import GeometryError
from .spheremath import SphereOps

EPS_PLANE = 1e-9
EPS_POLE_MERGE = 1e-8
EPS_HEMISPHERE = 1e-8
EPS_AREA = 1e-9


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
    """Convex polygon on the unit 2-sphere; digons carry their angle."""

    vertices: np.ndarray
    digon_angle: float = None

    @property
    def is_digon(self):
        return self.digon_angle is not None

    def __len__(self):
        return len(self.vertices)

    def edge_lengths(self):
        if self.is_digon:
            return np.array([np.pi, np.pi])
        v = self.vertices
        return np.array([SphereOps.dist(v[i], v[(i + 1) % len(v)]) for i in range(len(v))])

    def interior_angles(self):
        if self.is_digon:
            return np.array([self.digon_angle, self.digon_angle])
        v = self.vertices
        k = len(v)
        return np.array(
            [SphereOps.angle(v[i], v[i - 1], v[(i + 1) % k]) for i in range(k)]
        )

    def area(self):
        if self.is_digon:
            return 2.0 * self.digon_angle
        return SphereOps.polygon_area(self.interior_angles())

    def is_convex(self, tol=1e-9):
        if self.is_digon:
            return True
        v = self.vertices
        k = len(v)
        signs = []
        for i in range(k):
            n = np.cross(v[i], v[(i + 1) % k])
            nn = np.linalg.norm(n)
            if nn < 1e-12:
                return False
            n /= nn
            for j in range(k):
                if j in (i, (i + 1) % k):
                    continue
                signs.append(np.dot(v[j], n))
        signs = np.array(signs)
        return bool(np.all(signs >= -tol) or np.all(signs <= tol))


def make_digon(v, angle):
    """Digon with antipodal vertices v, -v and the given interior angle."""
    verts = np.array([v, -np.asarray(v)])
    return SphericalPolygon(verts, digon_angle=float(angle))


def exterior_dihedral(P, edge):
    """Exterior dihedral angle of P along an edge (i, j, face_a, face_b)."""
    return P.exterior_dihedral(edge)


def polar_link(P, vertex):
    """Polar link of a vertex: the polygon of outward face normals."""
    return P.polar_link(vertex)


@dataclass(frozen=True)
class PolarLink:
    """Spherical polygon of outward face normals at a vertex."""

    polygon: SphericalPolygon
    face_order: tuple

    def edge_lengths(self):
        return self.polygon.edge_lengths()

    def interior_angles(self):
        return self.polygon.interior_angles()

    def area(self):
        return self.polygon.area()


class ConvexPolyhedron:
    """Convex polyhedron of the open hemisphere x1 > 0.

    vertices   : (n, 4) unit vectors
    faces      : tuples of vertex indices, counterclockwise from outside
    face_poles : (f, 4) inward unit normals; face i lies in face_poles[i]*
    edges      : tuples (i, j, fa, fb) with i < j
    """

    def __init__(self, vertices, faces, face_poles, interior, validate=True):
        self.vertices = np.asarray(vertices, dtype=float)
        self.faces = tuple(tuple(int(i) for i in f) for f in faces)
        self.face_poles = np.asarray(face_poles, dtype=float)
        self.interior = np.asarray(interior, dtype=float)
        self._edges = None
        if validate:
            self.validate()

    # -- structure ---------------------------------------------------------

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_faces(self):
        return len(self.faces)

    @property
    def edges(self):
        if self._edges is None:
            found = {}
            for fi, face in enumerate(self.faces):
                k = len(face)
                for t in range(k):
                    i, j = face[t], face[(t + 1) % k]
                    key = (min(i, j), max(i, j))
                    found.setdefault(key, []).append(fi)
            edges = []
            for (i, j), fs in sorted(found.items()):
                if len(fs) != 2:
                    raise GeometryError(f"edge {(i, j)} borders {len(fs)} faces")
                edges.append((i, j, fs[0], fs[1]))
            self._edges = tuple(edges)
        return self._edges

    @property
    def n_edges(self):
        return len(self.edges)

    def faces_at_vertex(self, vi):
        return [fi for fi, f in enumerate(self.faces) if vi in f]

    def face_cycle_at_vertex(self, vi):
        """Faces around vertex vi, walked edge by edge.

        Starts at the least incident face index and crosses at each step the
        edge from vi to the successor of vi in the current face cycle.
        """
        incident = self.faces_at_vertex(vi)
        if len(incident) < 3:
            raise GeometryError(f"vertex {vi} has fewer than 3 faces")
        edge_faces = {}
        for (i, j, fa, fb) in self.edges:
            edge_faces[(i, j)] = (fa, fb)
        start = min(incident)
        order = [start]
        current = start
        while True:
            face = self.faces[current]
            pos = face.index(vi)
            succ = face[(pos + 1) % len(face)]
            key = (min(vi, succ), max(vi, succ))
            fa, fb = edge_faces[key]
            nxt = fb if fa == current else fa
            if nxt == start:
                break
            order.append(nxt)
            current = nxt
            if len(order) > len(incident):
                raise GeometryError(f"vertex star at {vi} does not close up")
        if len(order) != len(incident):
            raise GeometryError(f"vertex star at {vi} does not close up")
        return order

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
        prods = self.vertices @ self.face_poles.T  # (n, f)
        for fi, face in enumerate(self.faces):
            on_plane = np.abs(prods[list(face), fi])
            if np.max(on_plane) > EPS_PLANE * 10:
                raise GeometryError(f"face {fi} not coplanar: {np.max(on_plane):.3g}")
        if np.min(prods) < -EPS_PLANE * 10:
            raise GeometryError("a vertex lies strictly outside a face half-space")
        if np.min(self.interior @ self.face_poles.T) <= 0:
            raise GeometryError("empty interior")
        for fi in range(self.n_faces):
            if not self.face_polygon(fi).is_convex():
                raise GeometryError(f"face {fi} is not convex")
        return True

    # -- geometry ----------------------------------------------------------

    def tangent_basis(self, vi):
        """Orthonormal basis of the tangent space at vertex vi."""
        v = self.vertices[vi]
        basis = []
        for seed in np.eye(4):
            w = seed - np.dot(seed, v) * v
            for b in basis:
                w -= np.dot(w, b) * b
            n = np.linalg.norm(w)
            if n > 1e-8:
                basis.append(w / n)
            if len(basis) == 3:
                break
        return np.array(basis)

    def face_polygon(self, fi):
        """Face fi as a spherical polygon in the 2-sphere carrying it."""
        pole = self.face_poles[fi]
        pts = self.vertices[list(self.faces[fi])]
        basis = []
        for seed in np.eye(4):
            w = seed - np.dot(seed, pole) * pole
            for b in basis:
                w -= np.dot(w, b) * b
            n = np.linalg.norm(w)
            if n > 1e-8:
                basis.append(w / n)
            if len(basis) == 3:
                break
        coords = pts @ np.array(basis).T
        return SphericalPolygon(normalize_rows(coords))

    def face_area(self, fi):
        return self.face_polygon(fi).area()

    def boundary_area(self):
        return float(sum(self.face_area(fi) for fi in range(self.n_faces)))

    def exterior_dihedral(self, edge):
        """Exterior dihedral angle along an edge, from the two face poles."""
        i, j, fa, fb = edge
        c = np.dot(self.face_poles[fa], self.face_poles[fb])
        return float(np.arccos(np.clip(c, -1.0, 1.0)))

    def polar_link(self, vi):
        """Link of outward unit normals at vertex vi.

        Edge lengths equal the exterior dihedral angles of the incident
        edges; interior angles are pi minus the face angles at vi.
        """
        order = self.face_cycle_at_vertex(vi)
        basis = self.tangent_basis(vi)
        outward = np.array([-self.face_poles[fi] for fi in order])
        coords = normalize_rows(outward @ basis.T)
        poly = SphericalPolygon(coords)
        if not poly.is_convex(tol=1e-7):
            # The edge walk may run clockwise; both orientations are valid.
            poly = SphericalPolygon(coords[::-1])
        return PolarLink(poly, tuple(order))

    def vertex_cone_angle(self, vi):
        """Sum of the incident face angles at vertex vi."""
        total = 0.0
        v = self.vertices[vi]
        for fi in self.faces_at_vertex(vi):
            face = self.faces[fi]
            pos = face.index(vi)
            prv = self.vertices[face[(pos - 1) % len(face)]]
            nxt = self.vertices[face[(pos + 1) % len(face)]]
            ta = prv - np.dot(prv, v) * v
            tb = nxt - np.dot(nxt, v) * v
            ta /= np.linalg.norm(ta)
            tb /= np.linalg.norm(tb)
            total += float(np.arccos(np.clip(np.dot(ta, tb), -1.0, 1.0)))
        return total


# -- construction ------------------------------------------------------------


def _face_pole(points, interior):
    """Inward unit normal of the plane through the rows of `points`."""
    _, _, vt = np.linalg.svd(points)
    n = vt[-1]
    n /= np.linalg.norm(n)
    if np.dot(n, interior) < 0:
        n = -n
    return n


def hull(points):
    """Convex hull of points of the open hemisphere, via the projective chart.

    Input points must be unit 4-vectors with x1 > 0, at least 4 of them and
    not all coplanar in the chart.  Coplanar hull triangles are merged into
    faces when their plane poles agree within EPS_POLE_MERGE.
    """
    pts = normalize_rows(np.atleast_2d(np.asarray(points, dtype=float)))
    if pts.shape[0] < 4 or pts.shape[1] != 4:
        raise GeometryError("hull needs at least 4 points of S3")
    chart = to_chart(pts)
    try:
        ch = EuclideanHull(chart)
    except QhullError as exc:
        raise GeometryError(f"degenerate input: {exc}") from exc
    keep = sorted(ch.vertices)
    old_to_new = {old: new for new, old in enumerate(keep)}
    verts = pts[keep]

    chart_interior = chart[keep].mean(axis=0)
    interior = from_chart(chart_interior[None, :])[0]

    # Merge hull triangles into faces by their 4-space plane pole.
    groups = []   # (pole, set of new vertex ids, outward chart normal)
    for simplex, eq in zip(ch.simplices, ch.equations):
        tri = pts[simplex]
        pole = _face_pole(tri, interior)
        ids = {old_to_new[s] for s in simplex}
        for g in groups:
            if np.linalg.norm(g[0] - pole) < EPS_POLE_MERGE:
                g[1] |= ids
                break
        else:
            groups.append([pole, ids, eq[:3]])

    # Canonical vertex order: lexicographic on rounded coordinates.
    order = np.lexsort(np.round(verts, 12).T[::-1])
    rank = np.empty(len(order), dtype=int)
    rank[order] = np.arange(len(order))
    verts = verts[order]
    interior_chart = chart_interior

    faces = []
    poles = []
    for pole, ids, m_out in groups:
        ids = [int(rank[i]) for i in ids]
        face_chart = to_chart(verts[ids])
        centroid = face_chart.mean(axis=0)
        m = m_out / np.linalg.norm(m_out)
        u1 = face_chart[0] - centroid
        u1 -= np.dot(u1, m) * m
        u1 /= np.linalg.norm(u1)
        u2 = np.cross(m, u1)
        ang = np.arctan2((face_chart - centroid) @ u2, (face_chart - centroid) @ u1)
        cyc = [ids[k] for k in np.argsort(ang)]
        pivot = cyc.index(min(cyc))
        faces.append(tuple(cyc[pivot:] + cyc[:pivot]))
        poles.append(pole)

    face_order = sorted(range(len(faces)), key=lambda i: faces[i])
    faces = [faces[i] for i in face_order]
    poles = [poles[i] for i in face_order]
    return ConvexPolyhedron(verts, faces, np.array(poles), interior)


def from_vertices_and_faces(vertices, faces):
    """Build a polyhedron from explicit face cycles, recomputing the poles."""
    verts = normalize_rows(np.asarray(vertices, dtype=float))
    chart_interior = to_chart(verts).mean(axis=0)
    interior = from_chart(chart_interior[None, :])[0]
    poles = np.array([_face_pole(verts[list(f)], interior) for f in faces])
    return ConvexPolyhedron(verts, faces, poles, interior)


def polar_dual(P):
    """Polar dual: vertices are the duals of the face planes of P.

    The dual of the dual is P itself, and edge lengths of the dual equal the
    exterior dihedral angles of P.
    """
    poles = P.face_poles
    if np.any(poles[:, 0] <= EPS_HEMISPHERE):
        raise GeometryError(
            "a face pole leaves the open hemisphere; recenter P so that it "
            "contains the hemisphere center"
        )
    D = hull(poles)
    if D.n_vertices != P.n_faces:
        raise GeometryError("duality lost a face pole; P is degenerate")
    return D
