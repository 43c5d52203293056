"""Flippable tilings: projection of polyhedra, reconstruction, flip.

A tiling face stores its polygon together with, per corner, the index of
the opposite-color face whose corner coincides there, and, per polygon
edge, the tiling edge carrying it.  Tiling edges record the supporting
geodesic and the four incident face-edge segments with their side
(left/right of the oriented geodesic), position (forward/backward) and
color.  This is enough to check the definition clauses, glue the black
and white cone metrics, and develop the white polyhedron back.

One pipeline (`assemble_tiling`) projects a spherical polyhedron and a
Fuchsian AdS surface alike; the quotient projection `ads_project` adds
only the bookkeeping of face orbits and deck transformations.  A
hyperbolic tiling carries its quotient as `ambient`, which also flips it,
so this module never imports the Fuchsian one.
"""

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import DevelopmentError, GeometryError
from .forms import Signature, inv4, mul4, neutral
from .polyhedra import ConvexPolyhedron, from_vertices_and_faces, normalize_rows
from .spheremath import HyperbolicOps, SphereOps

EPS_LEN = 1e-9
EPS_AREA = 1e-8
EPS_DEV = 5e-8


class Side(Enum):
    LEFT = "left"
    RIGHT = "right"

    @property
    def other(self):
        return Side.RIGHT if self is Side.LEFT else Side.LEFT


BLACK = "black"
WHITE = "white"


@dataclass(frozen=True)
class TilingFace:
    """One black or white face with its corner and edge incidences.

    links[k]     : index of the opposite-color face meeting corner k
    edge_refs[k] : index of the tiling edge carrying polygon edge k -> k+1
    decks[k]     : deck transformation tags (hyperbolic quotient tilings)
    """

    color: str
    vertices: np.ndarray
    links: tuple
    edge_refs: tuple
    digon_angle: float = None
    decks: tuple = None

    def __len__(self):
        return len(self.vertices)

    @property
    def is_digon(self):
        return self.digon_angle is not None

    def edge_lengths(self, ops):
        if self.is_digon:
            return np.array([np.pi, np.pi])
        v = self.vertices
        k = len(v)
        return np.array([ops.dist(v[i], v[(i + 1) % k]) for i in range(k)])

    def interior_angles(self, ops):
        if self.is_digon:
            return np.array([self.digon_angle, self.digon_angle])
        v = self.vertices
        k = len(v)
        return np.array([ops.angle(v[i], v[i - 1], v[(i + 1) % k]) for i in range(k)])

    def area(self, ops):
        if self.is_digon:
            return 2.0 * self.digon_angle
        return ops.polygon_area(self.interior_angles(ops))

    def corner_angle(self, ops, k):
        if self.is_digon:
            return self.digon_angle
        v = self.vertices
        return ops.angle(v[k], v[k - 1], v[(k + 1) % len(v)])


@dataclass(frozen=True)
class EdgeSegment:
    side: Side
    position: str  # "forward" | "backward"
    color: str
    face: int
    face_edge: int
    reversed: bool  # polygon edge runs against the geodesic direction
    t0: float
    t1: float
    deck: np.ndarray = None  # face copy incident here = deck . stored face

    @property
    def length(self):
        return self.t1 - self.t0

    def corner_param(self, corner_is_start):
        """Edge parameter of the polygon vertex k (start) or k+1 (end)."""
        if corner_is_start:
            return self.t1 if self.reversed else self.t0
        return self.t0 if self.reversed else self.t1


@dataclass(frozen=True)
class TilingEdge:
    base: np.ndarray
    direction: np.ndarray
    t_min: float
    t_max: float
    segments: tuple

    def point_at(self, ops, t):
        return ops.geodesic(self.base, self.direction, t)

    def segment_of(self, color, face, face_edge):
        for s in self.segments:
            if s.color == color and s.face == face and s.face_edge == face_edge:
                return s
        raise GeometryError("segment not found on edge")

    def partner(self, seg):
        for s in self.segments:
            if s.color == seg.color and s.side is not seg.side:
                return s
        raise GeometryError("partner segment missing")

    def black_offset(self):
        """Length of the black intersections (the white-to-white gap)."""
        return min(s.length for s in self.segments if s.color == BLACK)


@dataclass
class ConePoint:
    angle: float
    associated_face: int


@dataclass
class ConeMetric:
    """Constant-curvature metric with cone points, one per opposite face."""

    curvature: int
    cone_points: list

    def cone_angles(self):
        return np.array([c.angle for c in self.cone_points])

    def singular_curvatures(self):
        return 2.0 * np.pi - self.cone_angles()


@dataclass
class TilingReport:
    ok: bool
    failures: list

    @property
    def first(self):
        return None if self.ok else self.failures[0]


class FlippableTiling:
    """Black/white tiling of the sphere or of a hyperbolic quotient."""

    def __init__(self, handedness, black, white, edges, ambient="sphere"):
        self.handedness = handedness
        self.black = list(black)
        self.white = list(white)
        self.edges = list(edges)
        self.ambient = ambient

    @property
    def ops(self):
        return SphereOps if self.ambient == "sphere" else HyperbolicOps

    @property
    def is_spherical(self):
        return self.ambient == "sphere"

    @property
    def degenerate(self):
        """Spherical tilings with two black (resp. white) faces develop to
        hosohedra (resp. dihedra); hyperbolic quotients have no such rule."""
        if not self.is_spherical:
            return False
        return len(self.black) <= 2 or len(self.white) <= 2

    def faces(self, color):
        return self.black if color == BLACK else self.white

    def total_area(self):
        ops = self.ops
        return float(
            sum(f.area(ops) for f in self.black) + sum(f.area(ops) for f in self.white)
        )

    def black_areas(self):
        return np.array([f.area(self.ops) for f in self.black])

    def white_areas(self):
        return np.array([f.area(self.ops) for f in self.white])


# -- edge assembly ------------------------------------------------------------


def _build_edge(ops, base, direction, entries, tol=1e-7):
    """Assemble the four labeled segments of one tiling edge.

    Each entry carries color, face, face_edge, params t0 < t1, the
    `reversed` flag and an interior probe point deciding the side.
    """
    normal = ops.geodesic_normal(base, ops.geodesic(base, direction, 0.5))
    t_min = min(e["t0"] for e in entries)
    t_max = max(e["t1"] for e in entries)
    segments = []
    for e in entries:
        s = ops.side(e["probe"], normal)
        if abs(s) < 1e-12:
            raise GeometryError("face probe sits on the edge geodesic")
        side = Side.LEFT if s > 0 else Side.RIGHT
        segments.append(
            EdgeSegment(
                side=side,
                position="",
                color=e["color"],
                face=e["face"],
                face_edge=e["face_edge"],
                reversed=e["reversed"],
                t0=e["t0"],
                t1=e["t1"],
                deck=e.get("deck"),
            )
        )
    final = []
    for side in (Side.LEFT, Side.RIGHT):
        group = sorted((s for s in segments if s.side is side), key=lambda g: g.t0)
        if len(group) != 2 or {g.color for g in group} != {BLACK, WHITE}:
            raise GeometryError("each edge side needs one black and one white segment")
        if (
            abs(group[0].t0 - t_min) > tol
            or abs(group[1].t1 - t_max) > tol
            or abs(group[0].t1 - group[1].t0) > tol
        ):
            raise GeometryError("segments do not partition the edge")
        final.append(replace(group[0], position="backward"))
        final.append(replace(group[1], position="forward"))
    black_lengths = [s.length for s in final if s.color == BLACK]
    white_lengths = [s.length for s in final if s.color == WHITE]
    if abs(black_lengths[0] - black_lengths[1]) > tol:
        raise GeometryError("black segment lengths differ")
    if abs(white_lengths[0] - white_lengths[1]) > tol:
        raise GeometryError("white segment lengths differ")
    return TilingEdge(base, direction, t_min, t_max, tuple(final))


def _assert_handedness(T):
    """The black face must be forward on the handedness side of each edge."""
    want = Side.RIGHT if T.handedness is Side.RIGHT else Side.LEFT
    for e in T.edges:
        for s in e.segments:
            if s.color != BLACK:
                continue
            expected = "forward" if s.side is want else "backward"
            if s.position != expected:
                raise GeometryError(
                    f"handedness rule violated: black {s.position} on {s.side.value}"
                )


# -- projection: one pipeline for S^3 and AdS_3 --------------------------------


def project_points(poles, points, side, sig):
    """Left projections a^{-1} x, or right projections x a^{-1}, into e*.

    `poles` and `points` are (m, 4) rows, paired row by row.  Returns the
    (m, 3) coordinates in e*: (x2, x3, x4) on S^3, where e* = {x1 = 0}, and
    (x1, x2, x3) on AdS_3, where e* = {x4 = 0}.  No sheet is chosen on
    AdS_3: future face poles move a Fuchsian surface's vertices onto the
    upper sheet x3 >= 1 (over the property-test and benchmark surfaces,
    both sides and their flips, the least third coordinate is 1.00008).
    """
    ainv = inv4(poles, sig)
    w = mul4(ainv, points, sig) if side is Side.LEFT else mul4(points, ainv, sig)
    if sig is Signature.SPHERE:
        # unit-stride rows, so that np.dot sums them as it sums any 3-vector
        off, tol, out = w[:, 0], 1e-9, np.ascontiguousarray(w[:, 1:])
    else:
        off, tol, out = w[:, 3], 1e-8, w[:, :3]
    if np.any(np.abs(off) > tol):
        raise GeometryError("projection left the reference plane e*")
    return out


def assemble_tiling(sig, side, poles, points, white, black, edges, ambient="sphere"):
    """The tiling of projected faces: the construction behind `project` and
    `ads_project`.

    A corner (f, v) is the vertex points[v] of the face with pole poles[f];
    each corner is projected once, by the `side` projection
    (`project_points`), and the tiling has the other handedness.
    white, black : per face, (its corners in cyclic order, links, decks)
    edges        : per true edge from v to s between the faces fa and fb,
                   ((v, s, fa, fb), segments).  The segments are those of
                   the white faces of fa and fb and the black faces at v
                   and s, each (face, k, k', deck): the corners at v and s
                   (white) or of fa and fb (black), and the deck carrying
                   the stored face onto the edge, None for the identity.
    """
    spherical = sig is Signature.SPHERE
    ops = SphereOps if spherical else HyperbolicOps
    row = {}
    for corners, _, _ in white + black:
        for c in corners:
            row.setdefault(c, len(row))
    for (v, s, fa, fb), _ in edges:
        for c in ((fa, v), (fa, s), (fb, v), (fb, s)):
            row.setdefault(c, len(row))
    img = project_points(np.array([poles[f] for f, _ in row]),
                         points[[v for _, v in row]], side, sig)

    polys, probes, refs = {}, {}, {}
    for color, faces in ((WHITE, white), (BLACK, black)):
        polys[color] = [img[[row[c] for c in corners]] for corners, _, _ in faces]
        # normalized corner sums: interior points, read only for their side
        sums = [p.sum(axis=0) for p in polys[color]]
        probes[color] = [c / np.sqrt(abs(ops.inner(c, c))) for c in sums]
        refs[color] = [[None] * len(p) for p in polys[color]]

    tiling_edges = []
    for ei, ((v, s, fa, fb), segments) in enumerate(edges):
        a_v, a_s, b_v, b_s = (img[row[c]] for c in ((fa, v), (fa, s), (fb, v), (fb, s)))
        direction = ops.tangent(a_v, a_s)
        ell = ops.dist(a_v, a_s)
        delta = ops.geodesic_param(a_v, direction, b_v)
        gap = ops.geodesic_param(a_v, direction, b_s) - (delta + ell)
        if spherical:  # parameters are angles, defined mod 2 pi
            gap = (gap + np.pi) % (2 * np.pi) - np.pi
        if abs(gap) > (1e-8 if spherical else 1e-7):
            raise GeometryError("projected edge image is not rigid")
        # each segment runs from its first corner at t = p to its second
        # at t = p + d
        entries = []
        for (color, p, d), (f, k0, k1, deck) in zip(
            ((WHITE, 0.0, ell), (WHITE, delta, ell), (BLACK, 0.0, delta), (BLACK, ell, delta)),
            segments,
        ):
            m = len(polys[color][f])
            if (k0 + 1) % m == k1:
                slot, rev = k0, d < 0
            elif (k1 + 1) % m == k0:
                slot, rev = k1, d > 0
            else:
                raise GeometryError(f"{color} corners of an edge are not adjacent")
            probe = probes[color][f]
            entries.append(
                dict(color=color, face=f, face_edge=slot, reversed=rev,
                     t0=min(p, p + d), t1=max(p, p + d),
                     probe=probe if deck is None else deck @ probe, deck=deck)
            )
            if refs[color][f][slot] is None:
                refs[color][f][slot] = ei
        tiling_edges.append(_build_edge(ops, a_v, direction, entries))

    white_faces, black_faces = (
        [TilingFace(color, polys[color][f], links, tuple(refs[color][f]), decks=decks)
         for f, (_, links, decks) in enumerate(faces)]
        for color, faces in ((WHITE, white), (BLACK, black))
    )
    T = FlippableTiling(side.other, black_faces, white_faces, tiling_edges, ambient)
    _assert_handedness(T)
    return T


def project(P: ConvexPolyhedron, side: Side) -> FlippableTiling:
    """Project a convex polyhedron to a flippable tiling of the 2-sphere.

    White faces are the projected faces of P, black faces the polar links
    of its vertices; a left projection yields a right tiling and vice
    versa.
    """
    cycles = [P.face_cycle_at_vertex(v) for v in range(P.n_vertices)]
    white = [([(fi, v) for v in face], face, None) for fi, face in enumerate(P.faces)]
    black = [([(fi, vi) for fi in cyc], tuple(cyc), None) for vi, cyc in enumerate(cycles)]
    edges = [
        ((i, j, fa, fb), [
            (fa, P.faces[fa].index(i), P.faces[fa].index(j), None),
            (fb, P.faces[fb].index(i), P.faces[fb].index(j), None),
            (i, cycles[i].index(fa), cycles[i].index(fb), None),
            (j, cycles[j].index(fa), cycles[j].index(fb), None),
        ])
        for i, j, fa, fb in P.edges
    ]
    return assemble_tiling(Signature.SPHERE, side, P.face_poles, P.vertices,
                           white, black, edges)


# -- development back to a polyhedron -----------------------------------------


def _embed(u):
    return np.concatenate([[0.0], u])


def white_polyhedron(T: FlippableTiling) -> ConvexPolyhedron:
    """Develop the white faces of a spherical tiling into a convex polyhedron.

    White faces are glued around each black face as a convex cone and the
    assignment is propagated breadth-first over the incidence graph; a
    closure failure raises DevelopmentError.  Hosohedral and dihedral
    cases (two black or two white faces) are reported as degenerate.
    """
    if not T.is_spherical:
        raise GeometryError("white_polyhedron expects a spherical tiling")
    if T.degenerate:
        raise DevelopmentError(
            "degenerate tiling: two black faces develop to a hosohedron, "
            "two white faces to a dihedron"
        )
    sig = Signature.SPHERE
    left_handed = T.handedness is Side.LEFT

    def compose_white(apex, corner):
        q_inv = inv4(_embed(corner), sig)
        return mul4(q_inv, apex, sig) if left_handed else mul4(apex, q_inv, sig)

    def compose_apex(g, corner):
        q = _embed(corner)
        return mul4(q, g, sig) if left_handed else mul4(g, q, sig)

    apex = [None] * len(T.black)
    pole = [None] * len(T.white)
    apex[0] = neutral(sig)
    queue = [(BLACK, 0)]
    while queue:
        color, idx = queue.pop(0)
        if color == BLACK:
            b = T.black[idx]
            for k in range(len(b)):
                g = compose_white(apex[idx], b.vertices[k])
                w = b.links[k]
                if pole[w] is None:
                    pole[w] = g
                    queue.append((WHITE, w))
                elif np.linalg.norm(pole[w] - g) > EPS_DEV:
                    raise DevelopmentError(
                        f"development fails to close around white face {w}: "
                        f"{np.linalg.norm(pole[w] - g):.2e}"
                    )
        else:
            w = T.white[idx]
            for k in range(len(w)):
                t = compose_apex(pole[idx], w.vertices[k])
                b = w.links[k]
                if apex[b] is None:
                    apex[b] = t
                    queue.append((BLACK, b))
                elif np.linalg.norm(apex[b] - t) > EPS_DEV:
                    raise DevelopmentError(
                        f"development fails to close around black face {b}: "
                        f"{np.linalg.norm(apex[b] - t):.2e}"
                    )
    if any(a is None for a in apex) or any(g is None for g in pole):
        raise DevelopmentError("incidence graph is not connected")

    verts = np.array(apex)
    # Recenter: rotate the vertex centroid onto the hemisphere center.
    c = verts.sum(axis=0)
    norm_c = np.linalg.norm(c)
    if norm_c < 1e-9:
        raise DevelopmentError("developed vertices have no hemisphere center")
    c /= norm_c
    e = neutral(sig)
    cos_t = float(np.clip(np.dot(c, e), -1.0, 1.0))
    if cos_t < 1.0 - 1e-14:
        v = c - cos_t * e
        v /= np.linalg.norm(v)
        sin_t = float(np.sqrt(max(0.0, 1.0 - cos_t * cos_t)))
        eu = np.outer(e, e) + np.outer(v, v)
        rot = np.eye(4) + (cos_t - 1.0) * eu + sin_t * (np.outer(e, v) - np.outer(v, e))
        verts = verts @ rot.T
    faces = [tuple(w.links) for w in T.white]
    try:
        return from_vertices_and_faces(verts, faces)
    except GeometryError as exc:
        raise DevelopmentError(f"developed surface is not a convex polyhedron: {exc}")


def flip(T: FlippableTiling) -> FlippableTiling:
    """Flip a tiling: push every black face across its edges.

    Implemented as the opposite-side projection of the white polyhedron;
    face indices are preserved, handedness is reversed.  A hyperbolic
    tiling is flipped by its ambient quotient (`HyperbolicAmbient.flip`).
    """
    if T.degenerate:
        raise GeometryError("flip is undefined on hosohedral/dihedral tilings")
    if not T.is_spherical:
        return T.ambient.flip(T)
    P = white_polyhedron(T)
    return project(P, T.handedness)


def recolor(T: FlippableTiling) -> FlippableTiling:
    """Swap black and white; reverses the handedness, involutive."""
    new_black = [replace(f, color=BLACK) for f in T.white]
    new_white = [replace(f, color=WHITE) for f in T.black]
    edges = [
        TilingEdge(
            e.base,
            e.direction,
            e.t_min,
            e.t_max,
            tuple(
                replace(s, color=BLACK if s.color == WHITE else WHITE)
                for s in e.segments
            ),
        )
        for e in T.edges
    ]
    return FlippableTiling(T.handedness.other, new_black, new_white, edges, T.ambient)


# -- cone metrics -------------------------------------------------------------


def _corner_walk(T, color, start):
    """Corners of `color` faces glued around one point, starting at `start`.

    A corner is (face index, vertex index); the walk repeatedly crosses the
    polygon edge after the corner, lands on the matched corner of the glued
    face, and leaves through that face's other incident edge.
    """
    faces = T.faces(color)
    visited = []
    f, k, exit_edge = start[0], start[1], start[1]
    while True:
        visited.append((f, k))
        if len(visited) > 4 * sum(len(x) for x in faces) + 8:
            raise GeometryError("cone walk does not close")
        face = faces[f]
        eidx = face.edge_refs[exit_edge]
        edge = T.edges[eidx]
        seg = edge.segment_of(color, f, exit_edge)
        partner = edge.partner(seg)
        t = seg.corner_param(corner_is_start=(exit_edge == k))
        t_partner = t - seg.t0 + partner.t0
        f2 = partner.face
        k2 = partner.face_edge
        face2 = faces[f2]
        start_param = partner.corner_param(corner_is_start=True)
        end_param = partner.corner_param(corner_is_start=False)
        if abs(t_partner - start_param) < 1e-7:
            corner2 = k2
        elif abs(t_partner - end_param) < 1e-7:
            corner2 = (k2 + 1) % len(face2)
        else:
            raise GeometryError("glued point is not a corner of the partner face")
        # The corner is incident to polygon edges corner2-1 and corner2; we
        # entered through k2, so we leave through the other one.
        other = (corner2 - 1) % len(face2) if k2 == corner2 else corner2
        f, k, exit_edge = f2, corner2, other
        if (f, k) == (start[0], start[1]):
            return visited


def _cone_metric(T, color):
    """Glue the faces of one color; cone points correspond to faces of the
    other color through the corner links."""
    if not T.is_spherical:
        raise GeometryError(
            "cone metrics of hyperbolic quotient tilings come from the "
            "underlying Fuchsian surface (induced_cone_metric)"
        )
    faces = T.faces(color)
    ops = T.ops
    seen = set()
    points = []
    for f in range(len(faces)):
        for k in range(len(faces[f])):
            if (f, k) in seen:
                continue
            orbit = _corner_walk(T, color, (f, k))
            for c in orbit:
                seen.add(c)
            angle = float(sum(faces[a].corner_angle(ops, b) for a, b in orbit))
            linked = {faces[a].links[b] for a, b in orbit}
            if len(linked) != 1:
                raise GeometryError(
                    f"corners around a cone point link to several faces: {linked}"
                )
            points.append(ConePoint(angle, linked.pop()))
    points.sort(key=lambda c: c.associated_face)
    expected = len(T.faces(WHITE if color == BLACK else BLACK))
    if len(points) != expected:
        raise GeometryError(
            f"{len(points)} cone points for {expected} opposite faces"
        )
    return ConeMetric(ops.curvature, points)


def black_metric(T: FlippableTiling) -> ConeMetric:
    """Metric obtained by gluing the black faces along the tiling edges."""
    return _cone_metric(T, BLACK)


def white_metric(T: FlippableTiling) -> ConeMetric:
    return _cone_metric(T, WHITE)


# -- the antipodal example -----------------------------------------------------


def make_antipodal_tiling(polygon_vertices, side: Side) -> FlippableTiling:
    """Tiling of the sphere by a convex polygon P, its antipode and digons.

    Black faces are P and -P; each vertex pair (v_i, -v_i) spans a white
    digon whose edges extend the polygon edges to half great circles.
    """
    V = normalize_rows(np.asarray(polygon_vertices, dtype=float))
    n = len(V)
    if n < 3:
        raise GeometryError("polygon needs at least 3 vertices")
    for attempt in range(2):
        try:
            T = _build_antipodal(V)
        except GeometryError:
            V = V[::-1].copy()
            continue
        if T.handedness is side:
            return T
        V = V[::-1].copy()
    raise GeometryError("could not realize the requested handedness")


def _build_antipodal(V):
    ops = SphereOps
    n = len(V)
    # blacks: 0 = P, 1 = -P; whites: digon i has vertices (v_{i+1}, -v_{i+1})
    # and is bounded by the great circles of polygon edges i and i+1.
    angles = [ops.angle(V[i], V[i - 1], V[(i + 1) % n]) for i in range(n)]

    black_links = []
    black_edge_refs = []
    # P corner at v_i (index i) meets digon (i-1); polygon edge i lies on
    # tiling edge i.
    black_links.append(tuple((i - 1) % n for i in range(n)))
    black_edge_refs.append(tuple(range(n)))
    black_links.append(tuple((i - 1) % n for i in range(n)))
    black_edge_refs.append(tuple(range(n)))
    black = [
        TilingFace(BLACK, V.copy(), black_links[0], black_edge_refs[0]),
        TilingFace(BLACK, -V.copy(), black_links[1], black_edge_refs[1]),
    ]

    white = []
    for i in range(n):
        ip1 = (i + 1) % n
        verts = np.array([V[ip1], -V[ip1]])
        digon_angle = np.pi - angles[ip1]
        # corner 0 (v_{i+1}) coincides with P's corner, corner 1 with -P's.
        links = (0, 1)
        edge_refs = (i, ip1)  # edge 0->1 on tiling edge i, edge 1->0 on i+1
        white.append(
            TilingFace(WHITE, verts, links, edge_refs, digon_angle=digon_angle)
        )

    probe_P = V.sum(axis=0) / np.linalg.norm(V.sum(axis=0))
    edges = []
    for i in range(n):
        ip1 = (i + 1) % n
        base = V[i]
        direction = ops.tangent(V[i], V[ip1])
        ell = ops.dist(V[i], V[ip1])
        # digon i-1 interior probe: inward normals of its two edge circles
        nm1 = _digon_probe(V, (i - 1) % n)
        ni = _digon_probe(V, i)
        entries = [
            dict(color=BLACK, face=0, face_edge=i, reversed=False, t0=0.0, t1=ell,
                 probe=probe_P),
            dict(color=BLACK, face=1, face_edge=i, reversed=False, t0=np.pi,
                 t1=np.pi + ell, probe=-probe_P),
            # digon i-1: polygon edge 1 (from -v_i back to v_i), params [0, pi]
            dict(color=WHITE, face=(i - 1) % n, face_edge=1, reversed=True,
                 t0=0.0, t1=np.pi, probe=nm1),
            # digon i: polygon edge 0 (v_{i+1} to -v_{i+1}), params [ell, pi+ell]
            dict(color=WHITE, face=i, face_edge=0, reversed=False, t0=ell,
                 t1=np.pi + ell, probe=ni),
        ]
        edges.append(_build_edge(ops, base, direction, entries))

    handedness = None
    for e in edges:
        for s in e.segments:
            if s.color == BLACK and s.position == "forward":
                h = Side.RIGHT if s.side is Side.RIGHT else Side.LEFT
                if handedness is None:
                    handedness = h
                elif handedness is not h:
                    raise GeometryError("inconsistent handedness")
    T = FlippableTiling(handedness, black, white, edges)
    _assert_handedness(T)
    return T


def make_two_circles_tiling(n1, n2, side: Side) -> FlippableTiling:
    """The two-great-circles tiling: four lunes, two of them black.

    The circles orthogonal to n1 and n2 divide the sphere into four digons
    meeting at the antipodal intersection points; opposite lunes get the
    same color.  Both tiling edges are full great circles, parameterized
    over [0, 2 pi].  Swapping the circles yields the other handedness.
    """
    return _build_two_circles(n1, n2, side)


def _build_two_circles(n1, n2, side):
    ops = SphereOps
    n1 = np.asarray(n1, dtype=float) / np.linalg.norm(n1)
    n2 = np.asarray(n2, dtype=float) / np.linalg.norm(n2)
    v = np.cross(n1, n2)
    if np.linalg.norm(v) < 1e-9:
        raise GeometryError("the two circles coincide")
    v /= np.linalg.norm(v)

    def lune_angle(s1, s2):
        d1 = np.cross(n1, v)
        d1 /= np.linalg.norm(d1)
        if s2 * np.dot(d1, n2) < 0:
            d1 = -d1
        d2 = np.cross(n2, v)
        d2 /= np.linalg.norm(d2)
        if s1 * np.dot(d2, n1) < 0:
            d2 = -d2
        return float(np.arccos(np.clip(np.dot(d1, d2), -1.0, 1.0)))

    def lune_probe(s1, s2):
        w = s1 * n1 + s2 * n2
        return w / np.linalg.norm(w)

    # faces: black = (+,+) and (-,-); white = (+,-) and (-,+); vertex cycle
    # [v, -v]; polygon edge 0 lies on circle 1, edge 1 on circle 2
    signs = {BLACK: [(1, 1), (-1, -1)], WHITE: [(1, -1), (-1, 1)]}
    placeholder = (0, 0)
    faces = {
        color: [
            TilingFace(
                color,
                np.array([v, -v]),
                placeholder,
                (0, 1),
                digon_angle=lune_angle(s1, s2),
            )
            for (s1, s2) in signs[color]
        ]
        for color in (BLACK, WHITE)
    }

    edges = []
    for ei, (n_this, n_other) in enumerate(((n1, n2), (n2, n1))):
        d = np.cross(n_this, v)
        d /= np.linalg.norm(d)
        sigma = np.sign(np.dot(d, n_other))
        entries = []
        for color in (BLACK, WHITE):
            for fi, (s1, s2) in enumerate(signs[color]):
                s_other = s2 if ei == 0 else s1
                lo, hi = (0.0, np.pi) if s_other * sigma > 0 else (np.pi, 2 * np.pi)
                face_edge = ei  # edge 0 on circle 1, edge 1 on circle 2
                # polygon edge 0 runs v -> -v, edge 1 runs -v -> v
                runs_forward = lo == 0.0
                rev = (face_edge == 0) != runs_forward
                entries.append(
                    dict(color=color, face=fi, face_edge=face_edge, reversed=rev,
                         t0=lo, t1=hi, probe=lune_probe(s1, s2))
                )
        edges.append(_build_edge(ops, v, d, entries))

    # association of corners to opposite faces, from the gluing orbits
    T = FlippableTiling(Side.RIGHT, faces[BLACK], faces[WHITE], edges)
    for color in (BLACK, WHITE):
        other = WHITE if color == BLACK else BLACK
        flist = T.faces(color)
        links = {fi: [None, None] for fi in range(2)}
        seen = set()
        orbits = []
        for fi in range(2):
            for k in range(2):
                if (fi, k) in seen:
                    continue
                orbit = _corner_walk(T, color, (fi, k))
                seen |= {(a, b) for a, b in orbit}
                orbits.append(orbit)
        areas = [f.area(SphereOps) for f in T.faces(other)]
        for oi, orbit in enumerate(orbits):
            angle = sum(flist[a].corner_angle(ops, b) for a, b in orbit)
            target = 2 * np.pi - angle
            cands = [j for j in range(2) if abs(areas[j] - target) < 1e-9]
            j = cands[0] if len(cands) == 1 else oi
            for a, b in orbit:
                links[a][b] = j
        new = [replace(f, links=tuple(links[fi])) for fi, f in enumerate(flist)]
        if color == BLACK:
            T.black = new
        else:
            T.white = new

    # On a closed geodesic the forward direction of each edge is a genuine
    # choice (the "two choices for the edges" of the construction); orient
    # every edge so the black faces sit forward on the requested side.
    def black_forward_side(e):
        return next(
            s.side for s in e.segments
            if s.color == BLACK and s.position == "forward"
        )

    want = Side.RIGHT if side is Side.RIGHT else Side.LEFT
    fixed_edges = []
    for e in T.edges:
        if black_forward_side(e) is not want:
            e = TilingEdge(
                e.base, e.direction, e.t_min, e.t_max,
                tuple(
                    replace(
                        s,
                        position="forward" if s.position == "backward" else "backward",
                    )
                    for s in e.segments
                ),
            )
        fixed_edges.append(e)
    T.edges = fixed_edges
    T.handedness = side
    _assert_handedness(T)
    return T


def _digon_probe(V, i):
    """Interior point of the digon spanned by vertex i+1 of the polygon."""
    ops = SphereOps
    n = len(V)
    ip1 = (i + 1) % n
    ip2 = (i + 2) % n
    # the digon is bisected at the shared vertex v_{i+1} of polygon edges
    # i and i + 1
    t1 = ops.tangent(V[ip1], -V[i])       # along edge i extended
    t2 = ops.tangent(V[ip1], V[ip2])      # along edge i+1
    bis = t1 + t2
    bis /= np.linalg.norm(bis)
    return ops.geodesic(V[ip1], bis, 1e-3)


# -- validation ----------------------------------------------------------------


def validate_tiling(T: FlippableTiling, tol_scale=1.0) -> TilingReport:
    """Check the defining clauses of a flippable tiling.

    Covers: face convexity and positive area, the area budget (sphere),
    per-edge segment structure, the handedness rule, equal black and equal
    white lengths, and coincidence of linked corners.
    """
    ops = T.ops
    failures = []
    if T.handedness not in (Side.LEFT, Side.RIGHT):
        failures.append("unknown handedness")

    for color in (BLACK, WHITE):
        for fi, f in enumerate(T.faces(color)):
            if f.is_digon:
                continue
            if f.area(ops) <= 0:
                failures.append(f"{color} face {fi} has nonpositive area")

    if T.is_spherical:
        budget = abs(T.total_area() - 4 * np.pi)
        if budget > EPS_AREA * tol_scale * 10:
            failures.append(f"area budget off by {budget:.2e}")

    want = Side.RIGHT if T.handedness is Side.RIGHT else Side.LEFT
    for ei, e in enumerate(T.edges):
        for side in (Side.LEFT, Side.RIGHT):
            group = sorted(
                (s for s in e.segments if s.side is side), key=lambda s: s.t0
            )
            if len(group) != 2 or {g.color for g in group} != {BLACK, WHITE}:
                failures.append(f"edge {ei}: side {side.value} lacks black+white pair")
                continue
            if abs(group[0].t1 - group[1].t0) > 1e-7 * tol_scale:
                failures.append(f"edge {ei}: segments do not abut")
        blacks = [s for s in e.segments if s.color == BLACK]
        whites = [s for s in e.segments if s.color == WHITE]
        if abs(blacks[0].length - blacks[1].length) > 1e-7 * tol_scale:
            failures.append(f"edge {ei}: black lengths differ")
        if abs(whites[0].length - whites[1].length) > 1e-7 * tol_scale:
            failures.append(f"edge {ei}: white lengths differ")
        for s in blacks:
            expected = "forward" if s.side is want else "backward"
            if s.position != expected:
                failures.append(
                    f"edge {ei}: black is {s.position} on the {s.side.value}"
                )
        # Geometry: the carried polygon edges must sit on the geodesic at
        # the recorded parameters.
        for s in e.segments:
            face = T.faces(s.color)[s.face]
            k = s.face_edge
            v0 = face.vertices[k % len(face)]
            v1 = face.vertices[(k + 1) % len(face)]
            if s.deck is not None:
                v0 = s.deck @ v0
                v1 = s.deck @ v1
            p0 = e.point_at(ops, s.corner_param(True))
            p1 = e.point_at(ops, s.corner_param(False))
            err = max(np.linalg.norm(p0 - v0), np.linalg.norm(p1 - v1))
            if err > 1e-6 * tol_scale:
                failures.append(
                    f"edge {ei}: {s.color} face {s.face} edge {k} off geodesic "
                    f"by {err:.2e}"
                )

    # Linked corners coincide (deck-translated for hyperbolic quotients).
    for color in (BLACK, WHITE):
        other = T.faces(WHITE if color == BLACK else BLACK)
        for fi, f in enumerate(T.faces(color)):
            for k in range(len(f)):
                g = other[f.links[k]]
                pts = g.vertices
                if f.decks is not None and f.decks[k] is not None:
                    pts = pts @ f.decks[k].T
                d = np.min(np.linalg.norm(pts - f.vertices[k], axis=1))
                if d > 1e-6 * tol_scale:
                    failures.append(
                        f"{color} face {fi} corner {k} does not meet its linked face"
                    )
    return TilingReport(not failures, failures)


# -- comparison up to isometry --------------------------------------------------


def kabsch(A, B):
    """Orientation-preserving orthogonal map sending point cloud A to B."""
    H = A.T @ B
    U, _, Vt = np.linalg.svd(H)
    d = np.sign(np.linalg.det(Vt.T @ U.T))
    D = np.eye(A.shape[1])
    D[-1, -1] = d
    return Vt.T @ D @ U.T


def tiling_isometry_error(T1, T2):
    """Max vertex distance between matched faces after optimal alignment."""
    A = np.vstack(
        [f.vertices for f in T1.black] + [f.vertices for f in T1.white]
    )
    B = np.vstack(
        [f.vertices for f in T2.black] + [f.vertices for f in T2.white]
    )
    if A.shape != B.shape:
        raise GeometryError("tilings are not combinatorially matched")
    R = kabsch(A, B)
    return float(np.max(np.linalg.norm(A @ R.T - B, axis=1)))


def _frame3(a, b):
    """Right-handed orthonormal frame from two independent unit vectors."""
    u = a / np.linalg.norm(a)
    v = b - np.dot(b, u) * u
    v /= np.linalg.norm(v)
    return np.stack([u, v, np.cross(u, v)])


def _match_faces_under(R, faces1, faces2, tol):
    used = set()
    worst = 0.0
    for f in faces1:
        moved = f.vertices @ R.T
        best = None
        for j, g in enumerate(faces2):
            if j in used or len(g) != len(f):
                continue
            k = len(g)
            for r in range(k):
                idx = [(r + i) % k for i in range(k)]
                err = float(np.max(np.linalg.norm(moved - g.vertices[idx], axis=1)))
                if best is None or err < best[0]:
                    best = (err, j)
                idx = [(r - i) % k for i in range(k)]
                err = float(np.max(np.linalg.norm(moved - g.vertices[idx], axis=1)))
                if err < best[0]:
                    best = (err, j)
        if best is None or best[0] > tol:
            return None
        used.add(best[1])
        worst = max(worst, best[0])
    return worst


def tiling_congruence_error(T1, T2, tol=1e-6):
    """Smallest max-vertex error over orientation-preserving isometries and
    face matchings; None if the tilings are not congruent within tol.

    Face indices need not correspond: an anchor black face of T1 is tried
    against every compatible placement on T2 and the induced rotation is
    then required to match all faces.
    """
    if len(T1.black) != len(T2.black) or len(T1.white) != len(T2.white):
        return None
    if not (T1.is_spherical and T2.is_spherical):
        raise GeometryError("congruence matching is for spherical tilings")
    a = T1.black[0].vertices
    best = None
    for cand in T2.black:
        if len(cand) != len(a):
            continue
        k = len(cand)
        for r in range(k):
            for direction in (1, -1):
                idx = [(r + direction * i) % k for i in range(k)]
                b = cand.vertices[idx]
                R = _frame3(b[0], b[1]).T @ _frame3(a[0], a[1])
                err_b = _match_faces_under(R, T1.black, T2.black, tol)
                if err_b is None:
                    continue
                err_w = _match_faces_under(R, T1.white, T2.white, tol)
                if err_w is None:
                    continue
                err = max(err_b, err_w)
                if best is None or err < best:
                    best = err
    return best


def tiling_equality_error(T1, T2):
    """Max coordinate distance between matched faces, with no alignment.

    Used for hyperbolic tilings, whose construction is anchored on the
    rays and therefore canonical.
    """
    err = 0.0
    for a, b in zip(T1.black + T1.white, T2.black + T2.white):
        if a.vertices.shape != b.vertices.shape:
            raise GeometryError("tilings are not combinatorially matched")
        err = max(err, float(np.max(np.linalg.norm(a.vertices - b.vertices, axis=1))))
    return err


def polyhedron_isometry_error(P, Q, vertex_map=None):
    """Max vertex distance between P and Q after optimal SO(4) alignment."""
    A = P.vertices
    B = Q.vertices if vertex_map is None else Q.vertices[list(vertex_map)]
    if A.shape != B.shape:
        raise GeometryError("polyhedra are not combinatorially matched")
    R = kabsch(A, B)
    return float(np.max(np.linalg.norm(A @ R.T - B, axis=1)))


def polygon_congruent(len_a, ang_a, len_b, ang_b, tol=1e-8):
    """Cyclic congruence of (edge length, angle) sequences, both orientations."""
    la, aa = np.asarray(len_a), np.asarray(ang_a)
    lb, ab = np.asarray(len_b), np.asarray(ang_b)
    if len(la) != len(lb):
        return False
    k = len(la)
    for flip_dir in (False, True):
        lbb, abb = (lb, ab) if not flip_dir else (lb[::-1], np.roll(ab[::-1], -1))
        for r in range(k):
            if np.max(np.abs(np.roll(lbb, r) - la)) < tol and np.max(
                np.abs(np.roll(abb, r) - aa)
            ) < tol:
                return True
    return False
