"""Flippable tilings: projection of polyhedra, reconstruction, flip.

The faces of each color form one table (`TilingFaces`): per corner the
opposite-color face whose corner coincides there and the tiling edge
carrying the polygon edge after it.  The tiling edges form one table too
(`TilingEdges`): per edge the supporting geodesic, and per edge and slot
one of its four face-edge segments with its side (left/right of the
oriented geodesic), position (forward/backward) and color.  Every corner
and segment of every tiling carries a 3x3 deck tag; the sphere is the
quotient by the trivial group, so its tags are the identity, and no
reader tells the two apart (the `tagged` and `decked` flags only record
which tags the `tiling.v1` file writes).  This is enough to check the
definition clauses, develop the white polyhedron back, and glue the black
and white cone metrics of both quadrics: the corners glued around one
cone point are those linked to one face of the other color, so each
metric is one sum of corner angles by their links.  The edge clauses are
one ordered list (`_edge_clauses`, then `_handedness_clauses`):
assembly raises the first that fails, `validate_tiling` lists them all.

One corner assembly (`assemble_corners`) builds every tiling from its
projected corners: `project` reads the corners of a spherical polyhedron
off its corner table, the quotient projection `ads_project` off the face
orbits and deck transformations of a Fuchsian AdS surface, and the
hyperbolic flip off a developed surface; each reads them through index
arrays and projects every (face, vertex) incidence once.  A hyperbolic
tiling carries its quotient as `ambient`, which also flips it,
so this module never imports the Fuchsian one.
"""

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import DevelopmentError, GeometryError
from .forms import inv4, mul4
from .polyhedra import ConvexPolyhedron, from_vertices_and_faces, normalize_rows
from .spheremath import SPHERE_STAR, HyperbolicOps, SphereOps

EPS_AREA = 1e-8
EPS_DEV = 5e-8
EPS_PARAM = 1e-7  # segment parameters that agree to this abut, cover or match in length


class Side(Enum):
    LEFT = "left"
    RIGHT = "right"

    @property
    def other(self):
        return Side.RIGHT if self is Side.LEFT else Side.LEFT


BLACK = "black"
WHITE = "white"


@dataclass(frozen=True, eq=False)
class TilingFaces:
    """The faces of one color of a tiling as one table.

    Face i has the corners vertices[offsets[i]:offsets[i + 1]], (N, 3) rows
    stacked face after face in cyclic order.  Per corner row r, links[r] is
    the opposite-color face meeting it, edge_refs[r] the tiling edge
    carrying the polygon edge from it to the next corner (-1 for none) and
    decks[r] its deck tag (the copy of the linked face met there = deck .
    stored face), a 3x3 matrix, the identity where none is set (on the
    sphere, everywhere).  Per face, digon_angle is a digon's angle (NaN for
    a polygon).  For the `tiling.v1` file only: per face, decked tells
    whether it lists deck tags, and per corner, tagged whether it writes
    the tag (else null).
    """

    vertices: np.ndarray
    offsets: np.ndarray
    links: np.ndarray
    edge_refs: np.ndarray
    digon_angle: np.ndarray
    decked: np.ndarray
    decks: np.ndarray
    tagged: np.ndarray

    @classmethod
    def stacked(cls, vertices, sizes, links, edge_refs, digon_angle=np.nan, decks=np.eye(3),
                tagged=False, decked=False):
        """The table of faces of sizes[i] corners each; the digon angle and
        the decked flag are given per face or once for all faces, the deck
        tags and the tagged flag per corner or once for all corners."""
        n = int(np.sum(sizes))
        return cls(np.asarray(vertices, dtype=float).reshape(-1, 3),
                   np.concatenate([[0], np.cumsum(sizes, dtype=int)]),
                   np.ravel(links).astype(int), np.ravel(edge_refs).astype(int),
                   np.full(len(sizes), digon_angle, dtype=float),
                   np.full(len(sizes), decked, dtype=bool),
                   np.full((n, 3, 3), decks, dtype=float), np.full(n, tagged, dtype=bool))

    def __len__(self):
        return len(self.offsets) - 1

    @property
    def sizes(self):
        return np.diff(self.offsets)

    def __getitem__(self, i):
        """Face i as a table of its own, to read one face: its columns are
        slices of these, so a write to its vertices reaches this table."""
        i = range(len(self))[i]
        a, b = self.offsets[i:i + 2].tolist()
        return TilingFaces(self.vertices[a:b], self.offsets[i:i + 2] - a, self.links[a:b],
                           self.edge_refs[a:b], self.digon_angle[i:i + 1],
                           self.decked[i:i + 1], self.decks[a:b], self.tagged[a:b])


@dataclass(frozen=True)
class TilingEdges:
    """All tiling edges of a tiling as one table.

    Row e is the geodesic base[e] + direction[e], (E, 3), covered over
    [t_min[e], t_max[e]]; column j of the (E, 4) arrays is its face-edge
    segment j, the slots in the order left backward, left forward, right
    backward, right forward as built (in file order as loaded):

    left, forward   : the face lies left of the oriented geodesic; the
                      segment is the forward one on its side
    black           : the face's color
    face, face_edge : the face (an index among its color) and its polygon
                      edge carried here
    reversed        : the polygon edge runs against the geodesic direction
    t0, t1          : the segment's parameters, t0 < t1
    decks           : (E, 4, 3, 3) the deck tags (the face copy incident
                      here = deck . stored face), the identity where no tag
                      is set, as on every segment of a spherical tiling
    tagged          : whether the `tiling.v1` file writes the tag, else null
    """

    base: np.ndarray
    direction: np.ndarray
    t_min: np.ndarray
    t_max: np.ndarray
    left: np.ndarray
    forward: np.ndarray
    black: np.ndarray
    face: np.ndarray
    face_edge: np.ndarray
    reversed: np.ndarray
    t0: np.ndarray
    t1: np.ndarray
    decks: np.ndarray
    tagged: np.ndarray

    def __len__(self):
        return len(self.base)

    def slot(self, e, black, face, face_edge):
        """The slot of edge e carrying polygon edge `face_edge` of a face, row-wise."""
        black, face, face_edge = (np.expand_dims(a, -1) for a in (black, face, face_edge))
        hit = (self.black[e] == black) & (self.face[e] == face) & (self.face_edge[e] == face_edge)
        if not hit.any(axis=-1).all():
            raise GeometryError("segment not found on edge")
        return np.argmax(hit, axis=-1)

    def corner_param(self, e, j, corner_is_start):
        """Edge parameter of the polygon vertex k (start) or k+1 (end) of
        the polygon edge k in slot j."""
        return np.where(self.reversed[e, j] == corner_is_start, self.t1[e, j], self.t0[e, j])


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
    """Black/white tiling of the sphere or of a hyperbolic quotient: the
    faces of each color as a `TilingFaces` table (`black`, `white`), the
    tiling edges as a `TilingEdges` table, and the ambient, "sphere" or
    the quotient's `HyperbolicAmbient`."""

    def __init__(self, handedness, black, white, edges, ambient="sphere"):
        self.handedness = handedness
        self.black = black
        self.white = white
        self.edges = edges
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
        return float(np.concatenate([self.black_areas(), self.white_areas()]).sum())

    def black_areas(self):
        B = self.black
        return _face_areas(self.ops, B.vertices, B.sizes, B.digon_angle)

    def white_areas(self):
        W = self.white
        return _face_areas(self.ops, W.vertices, W.sizes, W.digon_angle)


# -- faces as stacked corner rows -----------------------------------------------


def _corner_angles(ops, verts, sizes, digon_angle):
    """Interior angle of every corner of faces stacked as the rows of verts,
    face i taking sizes[i] rows, from one row-wise pass; a digon's corners
    carry its digon angle (NaN for a polygon)."""
    polygon = np.isnan(digon_angle)
    angles = np.repeat(np.where(polygon, 0.0, digon_angle), sizes)
    rows = np.repeat(polygon, sizes)
    angles[rows] = ops.corner_angles(verts[rows], sizes[polygon])
    return angles


def _face_areas(ops, verts, sizes, digon_angle):
    """Areas of faces stacked as in `_corner_angles` (Gauss-Bonnet; a
    digon's is twice its angle) from one pass over all corners."""
    if not len(sizes):
        return np.empty(0)
    return ops.polygon_areas(_corner_angles(ops, verts, sizes, digon_angle), sizes)


# -- edge assembly ------------------------------------------------------------


def _failing(clauses):
    """The messages of the failing clauses, edge by edge and, on each edge,
    in clause order.

    `clauses` are (per-edge failure mask, message) in the order one edge is
    checked; a message is a string or a function of the edge index.
    """
    fails = np.array([mask for mask, _ in clauses], dtype=bool)
    for e, c in zip(*np.nonzero(fails.T)):
        msg = clauses[c][1]
        yield msg if isinstance(msg, str) else msg(int(e))


def _raise_first(clauses):
    """Raise the first failing clause of the first failing edge."""
    for msg in _failing(clauses):
        raise GeometryError(msg)


def _first_last(m):
    """Per row of an (E, 4) mask, its first and its last marked column: the
    row's pair when it marks two."""
    return np.argmax(m, axis=1), 3 - np.argmax(m[:, ::-1], axis=1)


def _pair_diff(values, m):
    """|a - b| over the pair each row of the mask m marks."""
    rows, (first, last) = np.arange(len(m)), _first_last(m)
    return np.abs(values[rows, first] - values[rows, last])


def _side_pairs(left, black, t0):
    """Per edge and side (left, right): whether that side holds one black
    and one white segment, and its two segments in order of t0 (a stable
    sort, so a tie keeps segment order)."""
    rows = np.arange(len(t0))
    ok, lo, hi = [], [], []
    for m in (left, ~left):
        first, second = _first_last(m)
        swap = t0[rows, second] < t0[rows, first]
        ok.append((m.sum(axis=1) == 2) & ((m & black).sum(axis=1) == 1))
        lo.append(np.where(swap, second, first))
        hi.append(np.where(swap, first, second))
    return np.stack(ok, 1), np.stack(lo, 1), np.stack(hi, 1)


def _edge_clauses(left, black, t0, t1, t_min, t_max, tol):
    """The segment clauses of the edges, in the order one edge is checked,
    and the two segments of each side in order of t0 (`_side_pairs`): per
    side (left, then right) one black and one white segment, which abut and
    cover [t_min, t_max]; then equal black, then equal white lengths.  The
    handedness clauses follow.  Huge parameters overflow and fail a clause.
    """
    pair_ok, lo, hi = _side_pairs(left, black, t0)
    at = np.arange(len(t0))[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        abut = np.abs(t1[at, lo] - t0[at, hi]) > tol
        cover = ((np.abs(t0[at, lo] - t_min[:, None]) > tol)
                 | (np.abs(t1[at, hi] - t_max[:, None]) > tol))
        length = t1 - t0
        unequal = [_pair_diff(length, m) > tol for m in (black, ~black)]
    clauses = [clause for j, side in enumerate(("left", "right")) for clause in (
        (~pair_ok[:, j], lambda e, side=side: f"edge {e}: side {side} lacks black+white pair"),
        (pair_ok[:, j] & abut[:, j], lambda e: f"edge {e}: segments do not abut"),
        (pair_ok[:, j] & cover[:, j],
         lambda e: f"edge {e}: segments do not cover [t_min, t_max]"),
    )]
    clauses += [(u, lambda e, color=color: f"edge {e}: {color} lengths differ")
                for color, u in zip((BLACK, WHITE), unequal)]
    return clauses, lo, hi


def _build_edges(ops, base, direction, black, face, slot, rev, t0, t1, probes,
                 decks=np.eye(3), tagged=False, checks=()):
    """The table of the tiling edges of E geodesics and their four labeled
    segments.

    Row e holds the geodesic base[e] + direction[e] and, per segment, the
    (E, 4) arrays color (`black`), face, polygon edge `slot`, `rev` (the
    polygon edge runs against the geodesic) and parameters t0 < t1; probes
    (E, 4, 3) are interior points of the incident face copies, deciding the
    sides, and decks (E, 4, 3, 3) and tagged (E, 4) the deck tags and their
    file flags, by default the identity and untagged on every segment.
    `checks` are the caller's (mask, message) clauses, tested on an edge
    before these; the first failing edge raises its first failing clause.
    """
    normal = ops.geodesic_normal(base, ops.geodesic(base, direction, 0.5))
    s = ops.side(probes, normal[:, None, :])
    left = s > 0
    # Python's min and max, which keep the first of equal values
    t_min, t_max = (np.array([f(r) for r in t.tolist()], dtype=float)
                    for f, t in ((min, t0), (max, t1)))
    # checked on the columns as given: the reorder below can repeat one
    # segment of a side that lacks its pair and drop another
    clauses, lo, hi = _edge_clauses(left, black, t0, t1, t_min, t_max, EPS_PARAM)
    _raise_first([
        *checks,
        ((np.abs(s) < 1e-12).any(axis=1), "face probe sits on the edge geodesic"),
        *clauses,
    ])
    # final order: left backward, left forward, right backward, right forward
    order = np.stack([lo[:, 0], hi[:, 0], lo[:, 1], hi[:, 1]], axis=1)
    at = np.arange(len(order))[:, None]
    decks = np.broadcast_to(decks, order.shape + (3, 3))
    tagged = np.broadcast_to(tagged, order.shape)
    left, black, face, slot, rev, t0, t1, decks, tagged = (
        a[at, order] for a in (left, black, face, slot, rev, t0, t1, decks, tagged))
    return TilingEdges(
        base, direction, t_min, t_max, left,
        np.tile([False, True], (len(order), 2)), black, face, slot, rev, t0, t1, decks,
        tagged)


def _handedness_clauses(T):
    """The handedness clause, one per slot: a black segment is forward on
    the handedness side of its edge and backward on the other."""
    E = T.edges
    bad = E.black & (E.forward != (E.left == (T.handedness is not Side.RIGHT)))
    return [(bad[:, q], lambda e, q=q: f"edge {e}: black is "
             f"{'forward' if E.forward[e, q] else 'backward'} on the "
             f"{'left' if E.left[e, q] else 'right'}") for q in range(4)]


def _assert_handedness(T):
    _raise_first(_handedness_clauses(T))


# -- projection: one corner assembly for S^3 and AdS_3 --------------------------


def project_points(poles, points, side, star):
    """Left projections a^{-1} x, or right projections x a^{-1}, into e*.

    `poles` and `points` are (m, 4) rows of the star quadric `star`, paired
    row by row.  Returns the (m, 3) coordinates in e*, those other than e's:
    (x2, x3, x4) on S^3, where e* = {x1 = 0}, and (x1, x2, x3) on AdS_3,
    where e* = {x4 = 0}.  No sheet is chosen on AdS_3: future face poles
    move a Fuchsian surface's vertices onto the upper sheet x3 >= 1 (over
    the property-test and benchmark surfaces, both sides and their flips,
    the least third coordinate is 1.00008).
    """
    ainv = inv4(poles, star)
    w = mul4(ainv, points, star) if side is Side.LEFT else mul4(points, ainv, star)
    plane = star.e == 0
    if np.any(np.abs(w[:, ~plane]) > star.tol):
        raise GeometryError("projection left the reference plane e*")
    return w[:, plane]


# segment slots of a projected edge: the white faces fa, fb, then the black
# faces at v and s
SLOT_COLORS = (WHITE, WHITE, BLACK, BLACK)


def assemble_corners(star, side, faces, quad, segments, decks, tagged, ambient="sphere"):
    """The tiling of corners projected by the `side` projection onto the
    surface `star.plane`, which has the other handedness: the one assembly
    of `project`, `fuchsian.ads_project` and the hyperbolic flip.

    faces    : per color, (corners (N, 3) in cyclic order face after face,
               sizes, links, deck tags and tagged flags per corner, decked
               per face)
    quad     : (4, E, 3) per edge from v to s between the white face
               copies fa and fb, the corners (fa, v), (fa, s), (fb, v),
               (fb, s)
    segments : (E, 4, 3) per edge, the slots fa, fb, black at v, black at
               s, each (face, k, k'): the corners at v and s (white) or of
               fa and fb (black)
    decks    : (E, 4, 3, 3) the deck tags of the four slots, and tagged
               (E, 4) their flags; either may be given once for all slots
    """
    ops = star.plane
    probes, sizes, starts = {}, {}, {}
    for color, (corners, size, *_) in faces.items():
        sizes[color] = size
        starts[color] = np.cumsum(size) - size
        # normalized corner sums: interior points, read only for their side
        sums = np.add.reduceat(corners, starts[color])
        probes[color] = sums / np.sqrt(np.abs(ops.inner(sums, sums)))[:, None]

    E = len(segments)
    decks = np.broadcast_to(decks, (E, 4, 3, 3))
    a_v, a_s, b_v, b_s = quad
    direction, defined = ops.tangents(a_v, a_s)
    with np.errstate(invalid="ignore"):
        ell = ops.dist(a_v, a_s)
        delta = ops.geodesic_param(a_v, direction, b_v)
        gap = ops.trig.wrap(ops.geodesic_param(a_v, direction, b_s) - (delta + ell))
    # slot j runs from its first corner at t = p to its second at t = p + d
    zero = np.zeros(E)
    p, d = np.stack([zero, delta, zero, ell], 1), np.stack([ell, ell, delta, delta], 1)
    end = p + d
    face, k0, k1 = segments.transpose(2, 0, 1)
    m = np.concatenate([sizes[WHITE][face[:, :2]], sizes[BLACK][face[:, 2:]]], axis=1)
    forward = (k0 + 1) % m == k1
    adjacent = forward | ((k1 + 1) % m == k0)
    slot = np.where(forward, k0, k1)
    probe = np.concatenate([probes[WHITE][face[:, :2]], probes[BLACK][face[:, 2:]]], axis=1)
    probe = np.einsum("nij,nj->ni", decks.reshape(-1, 3, 3),
                      probe.reshape(-1, 3)).reshape(E, 4, 3)

    tiling_edges = _build_edges(
        ops, a_v, direction, np.tile(np.array(SLOT_COLORS) == BLACK, (E, 1)), face, slot,
        np.where(forward, d < 0, d > 0), np.where(end < p, end, p),
        np.where(end > p, end, p), probe, decks, tagged,
        checks=[
            (~defined, ops.tangent_undefined),
            (np.abs(gap) > 10 * star.tol, "projected edge image is not rigid"),
            (~adjacent.all(axis=1), lambda e: f"{SLOT_COLORS[np.argmin(adjacent[e])]} "
                                              "corners of an edge are not adjacent"),
        ],
    )

    # per polygon edge, the first tiling edge met carrying it
    tables = {}
    for color, cols in ((WHITE, slice(0, 2)), (BLACK, slice(2, 4))):
        corners, size, links, tags, flags, decked = faces[color]
        refs = np.full(len(corners), -1)
        at, first = np.unique(starts[color][face[:, cols]] + slot[:, cols], return_index=True)
        refs[at] = first // 2
        tables[color] = TilingFaces.stacked(corners, size, links, refs, decks=tags,
                                            tagged=flags, decked=decked)
    T = FlippableTiling(side.other, tables[BLACK], tables[WHITE], tiling_edges, ambient)
    _assert_handedness(T)
    return T


def project(P: ConvexPolyhedron, side: Side) -> FlippableTiling:
    """Project a convex polyhedron to a flippable tiling of the 2-sphere.

    White faces are the projected faces of P, black faces the polar links
    of its vertices; a left projection yields a right tiling and vice
    versa.  Every corner of P is projected once: the white corners are
    P's corners in face order, the black ones the same corners around each
    vertex (`star_corners`), and each edge reads its four corners off the
    corner table.
    """
    c, ring = P.corners, P.star_corners
    img = project_points(P.face_poles[c.face], P.vertices[c.vertex], side, SPHERE_STAR)
    degree = np.bincount(c.vertex, minlength=P.n_vertices)
    slot = np.empty_like(ring)  # each corner's place in the face cycle of its vertex
    slot[ring] = np.arange(len(ring)) - np.repeat(np.cumsum(degree) - degree, degree)
    # at[e, s, t]: the corner of edge e in its face s (fa, fb) at its end t (i, j)
    at = np.stack([c.half, c.next[c.half]], axis=-1)
    at = np.take_along_axis(at, np.argsort(c.vertex[at], axis=-1), axis=-1)
    segments = np.hstack([np.dstack([c.face[c.half], c.position[at]]),
                          np.dstack([c.vertex[at[:, 0]], slot[at].swapaxes(1, 2)])])
    sizes = np.bincount(c.face, minlength=P.n_faces)
    faces = {WHITE: (img, sizes, c.vertex, np.eye(3), False, False),
             BLACK: (img[ring], degree, c.face[ring], np.eye(3), False, False)}
    return assemble_corners(SPHERE_STAR, side, faces, img[at.reshape(-1, 4).T], segments,
                            np.eye(3), False)


# -- development back to a polyhedron -----------------------------------------


def white_polyhedron(T: FlippableTiling) -> ConvexPolyhedron:
    """Develop the white faces of a spherical tiling into a convex polyhedron.

    White faces are glued around each black face as a convex cone and the
    assignment is propagated breadth-first over the incidence graph, one
    level (all faces of one color) per row-wise product; a closure failure
    raises DevelopmentError.  Hosohedral and dihedral cases (two black or
    two white faces) are reported as degenerate.
    """
    if not T.is_spherical:
        raise GeometryError("white_polyhedron expects a spherical tiling")
    if T.degenerate:
        raise DevelopmentError(
            "degenerate tiling: two black faces develop to a hosohedron, "
            "two white faces to a dihedron"
        )
    left_handed = T.handedness is Side.LEFT
    # apex[b]: the vertex developed from black face b; pole[w]: the group
    # element placing white face w
    apex = [None] * len(T.black)
    pole = [None] * len(T.white)
    apex[0] = e = SPHERE_STAR.e
    frontier, color = [0], BLACK
    while frontier:
        F = T.faces(color)
        sizes = F.sizes[frontier]
        ends = np.cumsum(sizes)  # the frontier's corner rows, face after face:
        rows = np.repeat(F.offsets[frontier] - ends + sizes, sizes) + np.arange(ends[-1])
        v = F.vertices[rows]
        q = np.zeros((len(v), 4))  # the corners as points of e* in S^3
        q[:, e == 0] = v
        if color == BLACK:
            done, placed, other, q = apex, pole, WHITE, inv4(q, SPHERE_STAR)
        else:
            done, placed, other = pole, apex, BLACK
        g = np.repeat([done[i] for i in frontier], sizes, axis=0)
        g = mul4(q, g, SPHERE_STAR) if left_handed else mul4(g, q, SPHERE_STAR)
        frontier, known = [], []
        for r, j in enumerate(F.links[rows].tolist()):
            if placed[j] is None:
                placed[j] = g[r]
                frontier.append(j)
            else:
                known.append((r, j))
        if known:
            rs, js = zip(*known)
            diff = np.array([placed[j] for j in js]) - g[list(rs)]
            err = np.sqrt(np.vecdot(diff, diff))  # np.linalg.norm, row by row
            if np.any(err > EPS_DEV):
                i = int(np.argmax(err > EPS_DEV))
                raise DevelopmentError(
                    f"development fails to close around {other} face {js[i]}: "
                    f"{err[i]:.2e}"
                )
        color = other
    if any(a is None for a in apex) or any(g is None for g in pole):
        raise DevelopmentError("incidence graph is not connected")

    verts = np.array(apex)
    # Recenter: rotate the vertex centroid onto the hemisphere center.
    c = verts.sum(axis=0)
    norm_c = np.linalg.norm(c)
    if norm_c < 1e-9:
        raise DevelopmentError("developed vertices have no hemisphere center")
    c /= norm_c
    cos_t = float(np.clip(np.dot(c, e), -1.0, 1.0))
    if cos_t < 1.0 - 1e-14:
        v = c - cos_t * e
        v /= np.linalg.norm(v)
        sin_t = float(np.sqrt(max(0.0, 1.0 - cos_t * cos_t)))
        eu = np.outer(e, e) + np.outer(v, v)
        rot = np.eye(4) + (cos_t - 1.0) * eu + sin_t * (np.outer(e, v) - np.outer(v, e))
        verts = verts @ rot.T
    links, offsets = T.white.links.tolist(), T.white.offsets.tolist()
    faces = [tuple(links[a:b]) for a, b in zip(offsets, offsets[1:])]
    try:
        return from_vertices_and_faces(verts, faces)
    except GeometryError as exc:
        raise DevelopmentError(f"developed surface is not a convex polyhedron: {exc}")


def flip(T: FlippableTiling) -> FlippableTiling:
    """Flip a tiling: push every black face across its edges.

    T must pass `validate_tiling`, else GeometryError with its first
    failure.  A spherical tiling flips to the other projection of its
    white polyhedron, face indices kept.  A hyperbolic tiling is flipped by
    its ambient quotient (`HyperbolicAmbient.flip`), which develops its
    Fuchsian surface from the tiling's own tables and builds no orbit hull.
    """
    if T.degenerate:
        raise GeometryError("flip is undefined on hosohedral/dihedral tilings")
    report = validate_tiling(T)
    if not report.ok:
        raise GeometryError(report.first)
    if not T.is_spherical:
        return T.ambient.flip(T)
    return project(white_polyhedron(T), T.handedness)


def recolor(T: FlippableTiling) -> FlippableTiling:
    """Swap black and white; reverses the handedness, involutive."""
    return FlippableTiling(T.handedness.other, T.white, T.black,
                           replace(T.edges, black=~T.edges.black), T.ambient)


# -- cone metrics -------------------------------------------------------------


def _cone_metric(T, color):
    """Glue the faces of one color into a cone metric of curvature kappa.

    T must pass `validate_tiling`, else GeometryError with its first
    failure.  The corners glued around one point are those linked to one
    face of the other color, so the cone point at that face takes the sum
    of their angles, one weighted count over the links on both quadrics.
    """
    report = validate_tiling(T)
    if not report.ok:
        raise GeometryError(report.first)
    F, other = T.faces(color), BLACK if color == WHITE else WHITE
    m = len(T.faces(other))
    angles = _corner_angles(T.ops, F.vertices, F.sizes, F.digon_angle)
    lone = np.bincount(F.links, minlength=m) == 0
    if lone.any():
        raise GeometryError(f"{other} face {int(np.argmax(lone))} has no linked {color} corner")
    sums = np.bincount(F.links, weights=angles, minlength=m)
    return ConeMetric(T.ops.kappa, [ConePoint(a, i) for i, a in enumerate(sums.tolist())])


def black_metric(T: FlippableTiling) -> ConeMetric:
    """Metric obtained by gluing the black faces along the tiling edges:
    the cone point at white face w has angle 2 pi - kappa area(w)."""
    return _cone_metric(T, BLACK)


def white_metric(T: FlippableTiling) -> ConeMetric:
    """Metric obtained by gluing the white faces along the tiling edges,
    one cone point per black face: the induced metric of the white
    polyhedron (sphere) or of the Fuchsian surface (quotient), whose cone
    angles are those of its vertices.  The paper's parameterization of
    symmetric tilings: a flip leaves it unchanged."""
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
    T = _build_antipodal(V)
    if T.handedness is not side:  # reversing the polygon reverses the hand
        T = _build_antipodal(V[::-1].copy())
        if T.handedness is not side:
            raise GeometryError("could not realize the requested handedness")
    return T


def _build_antipodal(V):
    ops = SphereOps
    n = len(V)
    nxt = np.roll(V, -1, axis=0)
    # blacks: 0 = P, 1 = -P; whites: digon i has vertices (v_{i+1}, -v_{i+1})
    # and is bounded by the great circles of polygon edges i and i+1.
    angles = ops.corner_angles(V, [n])

    # P corner at v_i (index i) meets digon (i-1); polygon edge i lies on
    # tiling edge i.
    i = np.arange(n)
    black = TilingFaces.stacked(np.concatenate([V, -V]), [n, n], np.tile((i - 1) % n, 2),
                                np.tile(i, 2))
    # digon i: corner 0 (v_{i+1}) coincides with P's corner, corner 1 with
    # -P's; polygon edge 0 -> 1 lies on tiling edge i, edge 1 -> 0 on i+1
    white = TilingFaces.stacked(np.stack([nxt, -nxt], axis=1), np.full(n, 2),
                                np.tile([0, 1], n), np.stack([i, (i + 1) % n], axis=1),
                                np.pi - np.roll(angles, -1))

    ell = ops.dist(V, nxt)
    probe_P = V.sum(axis=0) / np.linalg.norm(V.sum(axis=0))
    # digon i is bisected at v_{i+1}, between polygon edge i extended and
    # polygon edge i + 1
    bis = ops.tangent(nxt, -V) + ops.tangent(nxt, np.roll(V, -2, axis=0))
    digon = ops.geodesic(nxt, bis / np.linalg.norm(bis, axis=1, keepdims=True), 1e-3)
    # per edge i: P and -P along polygon edge i; digon i-1 by its polygon
    # edge 1 (from -v_i back to v_i), params [0, pi]; digon i by its polygon
    # edge 0 (v_{i+1} to -v_{i+1}), params [ell, pi + ell]
    zero, one, pi = np.zeros(n, dtype=int), np.ones(n, dtype=int), np.full(n, np.pi)
    edges = _build_edges(
        ops, V, ops.tangent(V, nxt),
        np.tile([True, True, False, False], (n, 1)),
        np.column_stack([zero, one, (i - 1) % n, i]),
        np.column_stack([i, i, one, zero]),
        np.tile([False, False, True, False], (n, 1)),
        np.column_stack([np.zeros(n), pi, np.zeros(n), ell]),
        np.column_stack([ell, pi + ell, pi, pi + ell]),
        np.stack([np.tile(probe_P, (n, 1)), np.tile(-probe_P, (n, 1)),
                  np.roll(digon, 1, axis=0), digon], axis=1),
    )

    # the tiling's handedness: the side where the black faces sit forward
    sides = set(edges.left[edges.black & edges.forward].tolist())
    if len(sides) != 1:
        raise GeometryError("inconsistent handedness")
    T = FlippableTiling(Side.LEFT if sides.pop() else Side.RIGHT, black, white, edges)
    _assert_handedness(T)
    return T


def make_two_circles_tiling(n1, n2, side: Side) -> FlippableTiling:
    """The two-great-circles tiling: four lunes, two of them black.

    The circles orthogonal to n1 and n2 divide the sphere into four digons
    meeting at the antipodal intersection points; opposite lunes get the
    same color.  Both tiling edges are full great circles, parameterized
    over [0, 2 pi].  Swapping the circles yields the other handedness.
    """
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
        return float(SphereOps.angle_between(d1, d2))

    def lune_probe(s1, s2):
        w = s1 * n1 + s2 * n2
        return w / np.linalg.norm(w)

    # faces: black = (+,+) and (-,-); white = (+,-) and (-,+); vertex cycle
    # [v, -v]; polygon edge 0 lies on circle 1, edge 1 on circle 2.  Gluing
    # the lunes of one color puts the corner of face 0 at v and that of face
    # 1 at -v around one cone point, the other two around the other, so
    # either color links [0, 1, 1, 0]: the two lunes of the other color have
    # one angle, so which cone point goes to which is a choice
    signs = {BLACK: [(1, 1), (-1, -1)], WHITE: [(1, -1), (-1, 1)]}
    faces = {color: TilingFaces.stacked(np.tile([v, -v], (2, 1)), [2, 2], [0, 1, 1, 0],
                                        [0, 1] * 2,
                                        [lune_angle(s1, s2) for s1, s2 in signs[color]])
             for color in (BLACK, WHITE)}

    # edge 0 on circle 1, edge 1 on circle 2; per edge the segments of the
    # black lunes, then the white ones
    directions, rows = [], []
    for ei, (n_this, n_other) in enumerate(((n1, n2), (n2, n1))):
        d = np.cross(n_this, v)
        d /= np.linalg.norm(d)
        directions.append(d)
        sigma = np.sign(np.dot(d, n_other))
        for color in (BLACK, WHITE):
            for fi, (s1, s2) in enumerate(signs[color]):
                s_other = s2 if ei == 0 else s1
                lo, hi = (0.0, np.pi) if s_other * sigma > 0 else (np.pi, 2 * np.pi)
                # polygon edge 0 runs v -> -v, edge 1 runs -v -> v
                rev = (ei == 0) != (lo == 0.0)
                rows.append((color == BLACK, fi, ei, rev, lo, hi, lune_probe(s1, s2)))
    black, face, slot, rev, t0, t1, probes = (
        np.array(c).reshape((2, 4) + np.shape(c[0])) for c in zip(*rows)
    )
    edges = _build_edges(SphereOps, np.array([v, v]), np.array(directions), black, face,
                         slot, rev, t0, t1, probes)

    # On a closed geodesic the forward direction of each edge is a genuine
    # choice (the "two choices for the edges" of the construction); orient
    # every edge so the black faces sit forward on the requested side.
    lead = np.argmax(edges.black & edges.forward, axis=1)
    turn = edges.left[[0, 1], lead] != (side is not Side.RIGHT)
    T = FlippableTiling(side, faces[BLACK], faces[WHITE],
                        replace(edges, forward=edges.forward ^ turn[:, None]))

    _assert_handedness(T)
    return T


# -- validation ----------------------------------------------------------------


def validate_tiling(T: FlippableTiling, tol_scale=1.0) -> TilingReport:
    """Check the defining clauses of a flippable tiling.

    Covers: positive face area, the area budget (sphere), V - E + F = chi
    over black faces, tiling edges and white faces (2 on the sphere, the
    group's chi on hyperbolic quotients), per-edge segment structure, the handedness rule, equal black and equal white
    lengths, segments on their geodesic, and coincidence of linked
    corners.  Each clause is evaluated over all faces, segments or corners
    at once; failures are listed face by face, then edge by edge (each
    edge's clauses in the order above), then corner by corner.  Assumes
    the structure the `tiling.v1` loader enforces: four segments per edge,
    two of each color, and face, polygon-edge and link indices in range.
    """
    ops = T.ops
    failures = [] if T.handedness in (Side.LEFT, Side.RIGHT) else ["unknown handedness"]
    B, W, nb = T.black, T.white, len(T.black)
    names = [f"{BLACK} face {i}" for i in range(nb)] + [
        f"{WHITE} face {i}" for i in range(len(W))]
    # both colors' faces stacked, black first
    verts, sizes = np.concatenate([B.vertices, W.vertices]), np.concatenate([B.sizes, W.sizes])
    digon = np.concatenate([B.digon_angle, W.digon_angle])
    with np.errstate(over="ignore", invalid="ignore"):  # huge digon angles
        areas = _face_areas(ops, verts, sizes, digon)
        budget = abs(float(areas.sum()) - 4 * np.pi)
    failures += [f"{names[g]} has nonpositive area"
                 for g in np.flatnonzero(np.isnan(digon) & (areas <= 0))]
    if T.is_spherical and not budget <= EPS_AREA * tol_scale * 10:
        failures.append(f"area budget off by {budget:.2e}")
    # a quotient's cells: black faces, tiling edges and white faces; the
    # sphere is the quotient by the trivial group
    euler = nb - len(T.edges) + len(W)
    chi = 2 if T.is_spherical else T.ambient.group.chi
    if euler != chi:
        failures.append(f"V - E + F = {euler} is not chi = {chi}: "
                        "the cells do not cover the quotient once")
    starts = np.cumsum(sizes) - sizes
    if T.edges:
        failures += _edge_failures(T, verts, starts, sizes, tol_scale)

    # Linked corners coincide (deck-translated for hyperbolic quotients):
    # each corner against every vertex of its linked face, in one gather.
    linked = np.concatenate([B.links + nb, W.links])
    counts = sizes[linked]
    offsets = np.cumsum(counts) - counts
    corner = np.repeat(np.arange(len(verts)), counts)
    pts = verts[np.repeat(starts[linked] - offsets, counts) + np.arange(len(corner))]
    decks = np.concatenate([B.decks, W.decks])
    with np.errstate(over="ignore", invalid="ignore"):  # huge decks
        pts = np.einsum("nij,nj->ni", decks[corner], pts)
        dist = np.minimum.reduceat(np.linalg.norm(pts - verts[corner], axis=1), offsets)
    face_of = np.repeat(np.arange(len(sizes)), sizes)
    failures += [f"{names[face_of[r]]} corner {r - starts[face_of[r]]} does not meet "
                 "its linked face" for r in np.flatnonzero(~(dist <= 1e-6 * tol_scale))]
    return TilingReport(not failures, failures)


def _edge_failures(T, verts, starts, sizes, tol_scale):
    """The failures of the per-edge clauses, edge by edge: those of the
    definition (`_edge_clauses`, `_handedness_clauses`), then the segments
    that sit off their geodesic."""
    E = T.edges
    black, rev, face, k, t0, t1 = E.black, E.reversed, E.face, E.face_edge, E.t0, E.t1
    clauses = _edge_clauses(E.left, black, t0, t1, E.t_min, E.t_max, EPS_PARAM * tol_scale)[0]
    # Geometry: the carried polygon edges must sit on the geodesic at the
    # recorded parameters.
    with np.errstate(over="ignore", invalid="ignore"):
        g = face + np.where(black, 0, len(T.black))
        ends = [verts[starts[g] + (k + j) % sizes[g]] for j in (0, 1)]
        decks = E.decks.reshape(-1, 3, 3)
        ends = [np.einsum("nij,nj->ni", decks, v.reshape(-1, 3)).reshape(len(E), 4, 3)
                for v in ends]
        params = (np.where(rev, t1, t0), np.where(rev, t0, t1))
        err0, err1 = (np.linalg.norm(T.ops.geodesic(E.base[:, None], E.direction[:, None],
                                                    t[..., None]) - v, axis=-1)
                      for t, v in zip(params, ends))
    err = np.where(err1 > err0, err1, err0)  # Python's max(err0, err1)
    off = ~(err <= 1e-6 * tol_scale)  # a distance that is not finite is off too
    return list(_failing([*clauses, *_handedness_clauses(T), *(
        (off[:, q], lambda e, q=q: f"edge {e}: {BLACK if black[e, q] else WHITE} face "
                                   f"{face[e, q]} edge {k[e, q]} off geodesic by {err[e, q]:.2e}")
        for q in range(4))]))


# -- comparison up to isometry --------------------------------------------------


def kabsch(A, B):
    """Orientation-preserving orthogonal map sending point cloud A to B."""
    H = A.T @ B
    U, _, Vt = np.linalg.svd(H)
    d = np.sign(np.linalg.det(Vt.T @ U.T))
    D = np.eye(A.shape[1])
    D[-1, -1] = d
    return Vt.T @ D @ U.T


def _aligned_error(A, B, what):
    if A.shape != B.shape:
        raise GeometryError(f"{what} are not combinatorially matched")
    R = kabsch(A, B)
    return float(np.max(np.linalg.norm(A @ R.T - B, axis=1)))


def tiling_equality_error(T1, T2):
    """Max coordinate distance between matched faces, with no alignment:
    inf when a distance is not finite, GeometryError when the faces do not
    match in number or size.

    Used for hyperbolic tilings, whose construction is anchored on the
    rays and therefore canonical.
    """
    if (len(T1.black), len(T1.white)) != (len(T2.black), len(T2.white)):
        raise GeometryError("tilings have different numbers of faces")
    pairs = ((T1.black, T2.black), (T1.white, T2.white))
    if not all(np.array_equal(a.offsets, b.offsets) for a, b in pairs):
        raise GeometryError("tilings are not combinatorially matched")
    d = np.concatenate([np.linalg.norm(a.vertices - b.vertices, axis=1) for a, b in pairs])
    if not np.all(np.isfinite(d)):
        return np.inf
    return float(np.max(d, initial=0.0))


def polyhedron_isometry_error(P, Q, vertex_map=None):
    """Max vertex distance between P and Q after optimal SO(4) alignment."""
    B = Q.vertices if vertex_map is None else Q.vertices[list(vertex_map)]
    return _aligned_error(P.vertices, B, "polyhedra")
