"""Closed-form geometry that only the tests use.

The library computes everything its commands need from the row-wise
primitives of `flipkit.spheremath` and the star kernel of
`flipkit.fuchsian`.  This module keeps the independent references those
are checked against:

- closed-form triangle laws on the sphere and in the hyperbolic-de Sitter
  plane, with their analytic partial derivatives: the reference of the
  star formulas, each derivative with a matching finite-difference test;
- the convexity class of every edge at a fundamental vertex of a Fuchsian
  surface, from the sign of sinh(alpha1) + sinh(alpha2) of its two wedges;
- the combinatorics of a spherical polyhedron without its corner table:
  the edges from a dict keyed by vertex pairs, the face cycle of each
  vertex by a walk across edges, its stars by pairwise intersections of
  neighbouring faces and its projection by index lookups in those cycles,
  the oracles of `ConvexPolyhedron.edges`, `face_cycle_at_vertex`,
  `stars` and `tilings.project`; and its polar dual as the chart hull of
  its face poles (`reference_polar_dual`), the oracle of
  `polyhedra.polar_dual`;
- the vertex stars of a Fuchsian surface one at a time, one record each
  (`Star`, the per-star view of the library's star table): the star builder
  that orders every incident face and compares order keys per call, and the
  per-star kernel, cone angle and Jacobian assembly, the references of the
  stacked star layer of `flipkit.fuchsian`, and the cone angles of a
  surface's stars with its vertices re-embedded at other heights
  (`cone_angles_fixed_combinatorics`), the finite-difference oracle of the
  Jacobian;
- the faces of an orbit hull as one record each (`FaceRecord`), the
  per-item view of the face arrays of `fuchsian.FuchsianSurface`, the
  cyclic order of one face (`cyclic_face_order`), the oracle of the batched
  `polyhedra.cyclic_orders`, and the
  quotient layout of its projections one face at a time: face orbit keys,
  decks and edge orbit keys from per-face label lists, the oracle of the
  dict-keyed layout below;
- the corner assembly one color and one side at a time
  (`reference_assemble_corners`, `reference_build_edges`,
  `reference_edge_clauses`), with its per-edge Python min and max: the
  oracle of the stacked edge layer of `tilings.assemble_corners`;
- the projection pipeline of lists and dicts (`assemble_tiling`, which
  assembles by `reference_assemble_corners`) and the quotient layout of a
  Fuchsian surface keyed by face and vertex (`dict_ads_layout`, on the
  library's face orbits and decks): what the corner arrays of
  `tilings.project` and `fuchsian.ads_project` replaced, their oracles;
- the heights of the Fuchsian surface under a hyperbolic tiling, by
  bounded least squares over scalar residuals: the oracle of
  `fuchsian.recover_heights`, and the one importer of `scipy.optimize`;
- the flip of a hyperbolic tiling by its rebuilt orbit hull, laid out and
  assembled on both sides: the oracle of the developed
  `fuchsian.flip_hyperbolic`;
- the Minkowski forms (+,+,+,-) and (+,-,-) beside the two of the library,
  the bilinear forms as a checked function, the generalized cross product
  as one `det` call per minor, points of the unit quadrics,
  their group products, point/plane duality and the complex-valued angles
  between vectors of a Minkowski space;
- comparison of spherical tilings up to isometry and of polygons up to
  congruence, and the convexity of one spherical polygon, edge by edge
  (`polygon_is_convex`), the oracle of `ConvexPolyhedron.faces_convex`;
- the segments of a tiling edge as one record each, the per-item view of
  the library's edge table that the per-segment references read; the cone
  metric of one color by a walk across the tiling edges from corner to
  glued corner (`reference_cone_metric`), what the link sum of
  `tilings.black_metric` and `white_metric` replaced, its oracle; and the
  faces of a tiling as one record each (`Face`), the per-item view of its
  face tables, from which the tests that replace a face build new tables;
- the `tiling.v1` reader that reads a file's faces, edges and segments
  one record at a time (`reference_tiling_from_dict`), with its checks in
  the order the columnar `io.tiling_from_dict` keeps, and the JSON parse
  that reads every integer through a callback (`reference_load_json`),
  the oracles of the library's reader and of its parse; they share
  `io`'s record-free helpers (`_require_keys`, `_finite_list`,
  `_numbers`).

It is not collected (its name does not start with `test_`), and no module
of `src/flipkit` imports it.
"""

from dataclasses import dataclass, replace
from enum import Enum
import itertools
import json
import math

import numpy as np

from flipkit.errors import DevelopmentError, GeometryError, SchemaError, SignatureMismatchError
from flipkit.forms import inv4, mul4
from flipkit.fuchsian import (HyperbolicAmbient, _cone_angles, _config_on_checked_rays,
                              _face_decks, _face_orbits, _link_faces, _star_rows,
                              _wedge_faces, check_rays, orbit_hull, orbit_points,
                              recover_heights)
from flipkit.io import TILING_SCHEMA, _finite_list, _numbers, _require_keys, _shared_group
from flipkit.polyhedra import EPS_HEMISPHERE, VertexStars, hull
from flipkit.spheremath import ADS_STAR, SPHERE_STAR, HyperbolicOps
from flipkit.tilings import (BLACK, EPS_PARAM, SLOT_COLORS, WHITE, ConeMetric, ConePoint,
                             FlippableTiling, Side, TilingEdges, TilingFaces, _aligned_error,
                             _assert_handedness, _corner_angles, _raise_first, project_points,
                             tiling_equality_error)


class DegenerateTriangleError(GeometryError):
    """Triangle data outside the solvable range."""


class LightLikeError(GeometryError):
    """A vector or span is light-like where that is not allowed."""


# -- triangle laws ----------------------------------------------------------------

EPS_DEG = 1e-8
EPS_CVX = 1e-10


def _safe_acos(x, what):
    if abs(x) > 1.0 + EPS_DEG:
        raise DegenerateTriangleError(f"{what}: cosine {x:.6g} out of range")
    return math.acos(min(1.0, max(-1.0, x)))


def _safe_acosh(x, what):
    if x < 1.0 - EPS_DEG:
        raise DegenerateTriangleError(f"{what}: cosh value {x:.6g} below 1")
    return math.acosh(max(1.0, x))


@dataclass(frozen=True)
class SphTriangle:
    """Spherical triangle; side x is opposite angle chi."""

    a: float
    b: float
    c: float
    alpha: float
    beta: float
    gamma: float


def sph_solve(a, c, beta):
    """Solve a spherical triangle from sides a, c and the included angle beta."""
    for name, val in (("a", a), ("c", c), ("beta", beta)):
        if not EPS_DEG < val < math.pi - EPS_DEG:
            raise DegenerateTriangleError(f"sph_solve: {name}={val:.6g} outside (0, pi)")
    cos_b = math.cos(c) * math.cos(a) + math.sin(c) * math.sin(a) * math.cos(beta)
    b = _safe_acos(cos_b, "sph_solve")
    if b < EPS_DEG or b > math.pi - EPS_DEG:
        raise DegenerateTriangleError(f"sph_solve: side b={b:.6g} degenerate")
    alpha = _safe_acos(
        (math.cos(a) - cos_b * math.cos(c)) / (math.sin(b) * math.sin(c)), "sph_solve"
    )
    gamma = _safe_acos(
        (math.cos(c) - cos_b * math.cos(a)) / (math.sin(b) * math.sin(a)), "sph_solve"
    )
    return SphTriangle(a, b, c, alpha, beta, gamma)


def sph_partials(a, c, beta):
    """(db/da, dalpha/da, dalpha/dc) at fixed (a, c, beta) parameterization."""
    t = sph_solve(a, c, beta)
    if math.sin(t.b) < EPS_DEG:
        raise DegenerateTriangleError("sph_partials: sin b too small")
    return (
        math.cos(t.gamma),
        math.sin(t.gamma) / math.sin(t.b),
        -math.sin(t.alpha) * math.cos(t.b) / math.sin(t.b),
    )


@dataclass(frozen=True)
class DSTriangle:
    """de Sitter triangle: space-like sides a, c, time-like side i*b.

    The angle between the space-like sides is i*beta; the angles at the
    ends of the time-like side are the real numbers alpha (opposite a)
    and gamma (opposite c).
    """

    a: float
    b: float
    c: float
    alpha: float
    beta: float
    gamma: float

    def law_residuals(self):
        r1 = self.cos_law_a()
        r2 = self.cos_law_b()
        r3 = self.cos_law_c()
        return (r1, r2, r3)

    def cos_law_a(self):
        return math.cos(self.a) - (
            math.cosh(self.b) * math.cos(self.c)
            + math.sinh(self.b) * math.sin(self.c) * math.sinh(self.alpha)
        )

    def cos_law_b(self):
        return math.cosh(self.b) - (
            math.cos(self.c) * math.cos(self.a)
            + math.sin(self.c) * math.sin(self.a) * math.cosh(self.beta)
        )

    def cos_law_c(self):
        return math.cos(self.c) - (
            math.cos(self.a) * math.cosh(self.b)
            + math.sin(self.a) * math.sinh(self.b) * math.sinh(self.gamma)
        )


def ds_solve(a, c, beta):
    """de Sitter triangle from the space-like sides and the imaginary angle."""
    for name, val in (("a", a), ("c", c)):
        if not 0.0 < val < math.pi:
            raise DegenerateTriangleError(f"ds_solve: {name}={val:.6g} outside (0, pi)")
    cosh_b = math.cos(c) * math.cos(a) + math.sin(c) * math.sin(a) * math.cosh(beta)
    b = _safe_acosh(cosh_b, "ds_solve")
    if b < EPS_DEG:
        raise DegenerateTriangleError(f"ds_solve: side b={b:.6g} degenerate")
    alpha = math.asinh(
        (math.cos(a) - cosh_b * math.cos(c)) / (math.sinh(b) * math.sin(c))
    )
    gamma = math.asinh(
        (math.cos(c) - cosh_b * math.cos(a)) / (math.sinh(b) * math.sin(a))
    )
    return DSTriangle(a, b, c, alpha, beta, gamma)


@dataclass(frozen=True)
class AdSTimelikeTriangle:
    """Triangle in a time-like plane of AdS: time-like edges i*a, i*c and a
    space-like edge b, with real angles alpha (opposite i*a), beta, gamma."""

    a: float
    b: float
    c: float
    alpha: float
    beta: float
    gamma: float


def ads_solve(a, c, beta):
    """AdS time-like-plane triangle from the two time-like sides and beta.

    The triangle reduces to a de Sitter triangle with sides (a, i*b, c) and
    angles (-alpha, i*beta, -gamma); the returned angles are the AdS ones.
    """
    ds = ds_solve(a, c, beta)
    return AdSTimelikeTriangle(a, ds.b, c, -ds.alpha, beta, -ds.gamma)


def ads_partials(a, c, beta):
    """(dalpha/da, dalpha/dc, isosceles dalpha/da) for the AdS triangle."""
    t = ads_solve(a, c, beta)
    if math.sinh(t.b) < EPS_DEG:
        raise DegenerateTriangleError("ads_partials: sinh b too small")
    d_da = math.cosh(t.gamma) / math.sinh(t.b)
    d_dc = -math.cosh(t.b) * math.cosh(t.alpha) / math.sinh(t.b)
    iso = math.cosh(t.alpha) * (1.0 - math.cosh(t.b)) / math.sinh(t.b)
    return (d_da, d_dc, iso)


@dataclass(frozen=True)
class HS2Triangle:
    """Triangle with two de Sitter vertices (joined by the space-like side a)
    and one hyperbolic vertex; b, c are the mixed sides from the hyperbolic
    vertex, alpha the angle there, beta and gamma at the de Sitter vertices."""

    a: float
    b: float
    c: float
    alpha: float
    beta: float
    gamma: float


def hs2_laws(b, c, alpha):
    """Solve the hyperbolic-de Sitter triangle from (b, c, alpha).

    The collapsed case a = 0 (both de Sitter vertices coincide, reached at
    b = c, alpha = 0) is returned with beta = gamma = 0.
    """
    cos_a = -math.sinh(b) * math.sinh(c) + math.cosh(b) * math.cosh(c) * math.cos(alpha)
    a = _safe_acos(cos_a, "hs2_laws")
    if a < EPS_DEG:
        return HS2Triangle(a, b, c, alpha, 0.0, 0.0)
    if a > math.pi - EPS_DEG:
        raise DegenerateTriangleError(f"hs2_laws: side a={a:.6g} degenerate")
    beta = math.asinh((math.sinh(b) - cos_a * math.sinh(c)) / (math.sin(a) * math.cosh(c)))
    gamma = math.asinh((math.sinh(c) - cos_a * math.sinh(b)) / (math.sin(a) * math.cosh(b)))
    return HS2Triangle(a, b, c, alpha, beta, gamma)


def hs2_partial_a_b(b, c, alpha):
    """da/db at fixed (c, alpha)."""
    return math.sinh(hs2_laws(b, c, alpha).gamma)


# -- convexity of the edges of a Fuchsian surface ---------------------------------


class ConvexityClass(Enum):
    COPLANAR = "coplanar"
    CONVEX_SIDE = "convex_side"
    NOT_CONVEX_SIDE = "not_convex_side"


def convexity_sign(alpha1, alpha2, eps=EPS_CVX):
    """Classify a pair of space-like wedges by sinh(alpha1) + sinh(alpha2).

    The time-like reference half-plane lies inside the convex side of the
    wedge exactly when the sum is negative; a vanishing sum means the two
    half-planes are coplanar.
    """
    s = math.sinh(alpha1) + math.sinh(alpha2)
    if abs(s) <= eps:
        return ConvexityClass.COPLANAR
    return ConvexityClass.CONVEX_SIDE if s < 0 else ConvexityClass.NOT_CONVEX_SIDE


def wedge_convexity(surf, vid):
    """Convexity classification of every edge at a fundamental vertex."""
    star, = star_records(surf.star_at(vid))
    _, rho_x, _, omega = reference_star_geometry(
        surf.points4[vid], surf.points4[star.neighbors]
    )
    return [
        (is_true, convexity_sign(math.asinh(a1), math.asinh(a2)))
        for is_true, (a1, a2) in zip(
            star.true_edge, reference_edge_dihedrals(omega, rho_x, ADS_STAR)
        )
    ]


# -- spherical polyhedra without the corner table ------------------------------------


def reference_edges(P):
    """The edges (i, j, fa, fb) of P, i < j, from a dict of vertex pairs."""
    found = {}
    for fi, face in enumerate(P.faces):
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
    return tuple(edges)


def reference_face_cycles(P):
    """The faces around each vertex, walked edge by edge: from the least
    incident face, each step crosses the edge from the vertex to its
    successor in the current face.  The first vertex whose walk fails
    raises."""
    edge_faces = {(i, j): (fa, fb) for i, j, fa, fb in reference_edges(P)}
    cycles = []
    for vi in range(P.n_vertices):
        incident = [fi for fi, f in enumerate(P.faces) if vi in f]
        if len(incident) < 3:
            raise GeometryError(f"vertex {vi} has fewer than 3 faces")
        start = min(incident)
        order = [start]
        current = start
        while True:
            face = P.faces[current]
            pos = face.index(vi)
            succ = face[(pos + 1) % len(face)]
            fa, fb = edge_faces[(min(vi, succ), max(vi, succ))]
            nxt = fb if fa == current else fa
            if nxt == start:
                break
            order.append(nxt)
            current = nxt
            if len(order) > len(incident):
                raise GeometryError(f"vertex star at {vi} does not close up")
        if len(order) != len(incident):
            raise GeometryError(f"vertex star at {vi} does not close up")
        cycles.append(order)
    return cycles


def reference_sph_stars(P):
    """The stars of all vertices of a polyhedron as one table, each
    neighbour the vertex other than the star's that two neighbouring faces
    of its cycle share; wedge j lies in the face after neighbour j."""
    cycles, wedge_face = [], []
    for vi, cyc_faces in enumerate(reference_face_cycles(P)):
        after = cyc_faces[1:] + cyc_faces[:1]
        neighbors = []
        for fa, fb in zip(cyc_faces, after):
            shared = set(P.faces[fa]) & set(P.faces[fb]) - {vi}
            if len(shared) != 1:
                raise GeometryError("vertex star is not simplicial")
            neighbors.append(shared.pop())
        cycles.append(neighbors)
        wedge_face += after
    return VertexStars.stacked(range(P.n_vertices), cycles, wedge_face=wedge_face)


def reference_polar_dual(P):
    """The polar dual as the chart hull of the face poles of P, merged
    triangles, SVD cycles and SVD face poles: what `polyhedra.polar_dual`,
    which reads the dual off the corner table, replaced, its oracle.  It
    refuses a P one of whose face poles the hull drops."""
    if np.any(P.face_poles[:, 0] <= EPS_HEMISPHERE):
        raise GeometryError(
            "a face pole leaves the open hemisphere; recenter P so that it "
            "contains the hemisphere center"
        )
    D = hull(P.face_poles)
    if D.n_vertices != P.n_faces:
        raise GeometryError("duality lost a face pole; P is degenerate")
    return D


# -- the corner assembly one color and one side at a time ------------------------


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


def reference_edge_clauses(left, black, t0, t1, t_min, t_max, tol):
    """The segment clauses of the edges, one pass per side and per color:
    what `tilings._edge_clauses` replaced, its oracle.  They come in the
    order one edge is checked, with the two segments of each side in order
    of t0 (`_side_pairs`): per side (left, then right) one black and one
    white segment, which abut and cover [t_min, t_max]; then equal black,
    then equal white lengths.  Huge parameters overflow and fail a clause.
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


def reference_build_edges(ops, base, direction, black, face, slot, rev, t0, t1, probes,
                          decks=np.eye(3), tagged=False, checks=()):
    """The table of the tiling edges of E geodesics and their four labeled
    segments, a numpy pass per color and per side and a Python min and max
    per edge: what `tilings._build_edges` replaced, its oracle.

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
    clauses, lo, hi = reference_edge_clauses(left, black, t0, t1, t_min, t_max, EPS_PARAM)
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


def reference_assemble_corners(star, side, faces, quad, segments, decks, tagged,
                               ambient="sphere"):
    """The tiling of corners projected by the `side` projection onto the
    surface `star.plane`, which has the other handedness, one pass per
    color: what `tilings.assemble_corners` replaced, its oracle, with the
    arguments of that assembly.

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

    tiling_edges = reference_build_edges(
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


def assemble_tiling(star, side, poles, points, white, black, edges, decks=(np.eye(3),) * 3,
                    ambient="sphere"):
    """The tiling of projected faces given as lists and dicts: the pipeline
    that `tilings.project` and `fuchsian.ads_project` replaced by corner
    arrays, the oracle of both.

    A corner (f, v) is the vertex points[v] of the face with pole poles[f]
    on the star quadric `star`; each corner is projected once, by the
    `side` projection (`project_points`) onto the surface `star.plane`, and
    the tiling has the other handedness.
    white, black : per face, (its corners in cyclic order, links)
    edges        : per true edge from v to s between the faces fa and fb,
                   ((v, s, fa, fb), segments).  The segments are those of
                   the white faces of fa and fb and the black faces at v
                   and s, each (face, k, k'): the corners at v and s
                   (white) or of fa and fb (black).
    decks        : the deck tags of the white corners (Nw, 3, 3), the black
                   corners (Nb, 3, 3) and the segments (E, 4, 3, 3); the
                   identity by default.  A quotient's tiling writes them all.
    The projected corners are assembled by `reference_assemble_corners`.
    """
    quads = [((fa, v), (fa, s), (fb, v), (fb, s)) for (v, s, fa, fb), _ in edges]
    keys = [c for cyc, _ in white + black for c in cyc] + [c for q in quads for c in q]
    row = {c: r for r, c in enumerate(dict.fromkeys(keys))}
    img = project_points(np.array([poles[f] for f, _ in row]),
                         points[[v for _, v in row]], side, star)
    tagged = ambient != "sphere"
    faces = {color: (img[[row[c] for cyc, _ in fs for c in cyc]],
                     np.array([len(cyc) for cyc, _ in fs]),
                     [l for _, links in fs for l in links], tags, tagged, tagged)
             for color, fs, tags in ((WHITE, white, decks[0]), (BLACK, black, decks[1]))}
    E = len(edges)
    quad = img[np.array([[row[c] for c in q] for q in quads], dtype=int).reshape(E, 4).T]
    segments = np.array([segs for _, segs in edges], dtype=int).reshape(E, 4, 3)
    return reference_assemble_corners(star, side, faces, quad, segments, decks[2], tagged,
                                      ambient)


def reference_project(P, side):
    """`tilings.project` with its cycles walked and its segment corners
    looked up by index in the faces and the cycles."""
    cycles = reference_face_cycles(P)
    white = [([(fi, v) for v in face], face) for fi, face in enumerate(P.faces)]
    black = [([(fi, vi) for fi in cyc], tuple(cyc)) for vi, cyc in enumerate(cycles)]
    edges = [
        ((i, j, fa, fb), [
            (fa, P.faces[fa].index(i), P.faces[fa].index(j)),
            (fb, P.faces[fb].index(i), P.faces[fb].index(j)),
            (i, cycles[i].index(fa), cycles[i].index(fb)),
            (j, cycles[j].index(fa), cycles[j].index(fb)),
        ])
        for i, j, fa, fb in reference_edges(P)
    ]
    return assemble_tiling(SPHERE_STAR, side, P.face_poles, P.vertices, white, black, edges)


# -- vertex stars one at a time ------------------------------------------------------


@dataclass
class Star:
    """One vertex star, the per-star view of a `fuchsian.VertexStars` row
    block: its vertex id and, per neighbour in cycle order, the neighbour
    id, whether the edge to it is true and the face of the wedge after it."""

    vertex: int
    neighbors: list
    true_edge: list
    wedge_face: list


def star_records(stars):
    """The stars of a `VertexStars` table as one `Star` each, in its order."""
    offsets = stars.offsets.tolist()
    return [Star(v, *(col[lo:hi].tolist() for col in
                      (stars.neighbors, stars.true_edge, stars.wedge_face)))
            for v, lo, hi in zip(stars.vertex.tolist(), offsets, offsets[1:])]


def reference_vkey(surf, vid):
    """Order key of a vertex: its ray, then the rank of its element."""
    e, b = divmod(vid, surf.n)
    return (b, surf.ball.rank[e])


def reference_triangulate_face(vertex_ids, key):
    """Fan from the least vertex under `key`: triangles and false edges."""
    ids = list(vertex_ids)
    start = min(range(len(ids)), key=lambda i: key(ids[i]))
    ids = ids[start:] + ids[:start]
    v0 = ids[0]
    tris = [(v0, ids[t], ids[t + 1]) for t in range(1, len(ids) - 1)]
    false_edges = {frozenset((v0, ids[t])) for t in range(2, len(ids) - 1)}
    return tris, false_edges


def reference_build_star(surf, vid):
    """The star of hull vertex vid from the fans of its incident faces, each
    face read in its cyclic order."""
    def vkey(v):
        return reference_vkey(surf, v)

    incident = surf.faces_at(vid)
    if len(incident) < 2:
        raise GeometryError("vertex star is incomplete (truncation too small)")
    tris = []
    false_edges = set()
    wedge_face = {}
    for fi in incident:
        t, fe = reference_triangulate_face(FaceRecord(surf, fi).vertex_ids, vkey)
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
    start = min(adj, key=vkey)
    cycle = [start]
    prev = None
    while True:
        cands = [u for u in adj[cycle[-1]] if u != prev]
        nxt = cands[0] if len(cands) == 1 else min(cands, key=vkey)
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
    return Star(vid, cycle, true_edge, wf)


def _reference_wedges(x, ys, sig):
    t = sig.tangent(x, ys)
    return t, sig.angle_between(t, np.roll(t, -1, axis=0))


def reference_star_geometry(x, ys, sig=ADS_STAR):
    """Edge lengths, apex angles at x and at the neighbours, and wedge
    angles of the one star at x whose neighbour cycle is the rows of ys."""
    t, omega = _reference_wedges(x, ys, sig)
    rho_s = sig.apex_angles(ys, sig.tangent(ys, x))
    return sig.dist(x, ys), sig.apex_angles(x, t), rho_s, omega


def reference_cone_angle(star, pts, sig=ADS_STAR):
    """Total wedge angle of one star, summed in cycle order."""
    omega = _reference_wedges(pts[star.vertex], pts[star.neighbors], sig)[1]
    return float(np.add.accumulate(omega)[-1])


def reembedded_points(surf, heights):
    """The orbit points of `surf` re-embedded at new heights, on the same
    elements and rays."""
    return orbit_points(surf.elements, surf.config.rays, heights)


def cone_angles_fixed_combinatorics(surf, heights):
    """Cone angles at the fundamental vertices of `surf` with its vertices
    re-embedded at new heights and its stars kept: the finite-difference
    oracle of the Jacobian."""
    return _cone_angles(surf.stars, reembedded_points(surf, heights))


def reference_edge_dihedrals(omega, rho, sig):
    """Per edge j of one star, the signed dihedrals along it inside the
    wedges j - 1 and j, one `math` call per trigonometric value."""
    s = [sig.trig.S(r) for r in rho]
    c = [sig.trig.C(r) for r in rho]
    cos_w = [math.cos(w) for w in omega]
    sin_w = [math.sin(w) for w in omega]
    m = len(rho)
    return [
        ((s[j - 1] - cos_w[j - 1] * s[j]) / (sin_w[j - 1] * c[j]),
         (s[(j + 1) % m] - cos_w[j] * s[j]) / (sin_w[j] * c[j]))
        for j in range(m)
    ]


def reference_assemble(stars, pts, index, n, sig):
    """d omega_x / d h_y star by star and edge by edge; vertex v is row and
    column index(v)."""
    S, C = sig.trig.S, sig.trig.C
    J = np.zeros((n, n))
    for star in stars:
        ix = index(star.vertex)
        ell, rho_x, rho_s, omega = reference_star_geometry(
            pts[star.vertex], pts[star.neighbors], sig
        )
        for j, (a1, a2) in enumerate(reference_edge_dihedrals(omega, rho_x, sig)):
            d = a1 + a2
            if not star.true_edge[j]:
                if abs(d) > 1e-6:
                    raise GeometryError(f"false edge with nonzero dihedral sum {d:.2e}")
                continue
            if -sig.kappa * d > 1e-9:
                raise GeometryError(
                    f"surface is not convex along a true edge (dihedral sum {d:.2e})"
                )
            iy = index(star.neighbors[j])
            if iy == ix:
                J[ix, ix] += d * C(rho_x[j]) * (1.0 - C(ell[j])) / S(ell[j])
            else:
                J[ix, iy] += d * C(rho_s[j]) / S(ell[j])
                J[ix, ix] += -C(ell[j]) * d * C(rho_x[j]) / S(ell[j])
    return J


# -- the faces of an orbit hull one at a time ----------------------------------------


class FaceRecord:
    """One face of an orbit hull, read from the surface's face arrays.

    ids        : its vertex ids, ascending
    pole       : the future unit pole of its plane
    vertex_ids : its vertex ids in cyclic order from the least, the lazy
                 order of the surface: reading it orders the face
    ordered    : whether the surface has ordered the face
    """

    def __init__(self, surf, fi):
        self.surf = surf
        self.fi = fi

    @property
    def ids(self):
        (_, rows), = self.surf.face_rows([self.fi])
        return rows[0].tolist()

    @property
    def pole(self):
        return self.surf.poles[self.fi]

    @property
    def vertex_ids(self):
        return self.surf.face_cycle(self.fi)

    @property
    def ordered(self):
        return self.fi in self.surf._cycles


def face_records(surf):
    """Every face of an orbit hull as a `FaceRecord`, by face id."""
    return [FaceRecord(surf, fi) for fi in range(len(surf.poles))]


def cyclic_face_order(chart, ids, outward=None):
    """Order coplanar chart points cyclically around their centroid,
    starting from the least id; counterclockwise seen from the side that
    `outward` points to, when it is given: the per-face reference of the
    batched `polyhedra.cyclic_orders`."""
    pts = chart[ids]
    ctr = pts.mean(axis=0)
    rel = pts - ctr
    _, _, vt = np.linalg.svd(rel)
    u1, u2 = vt[0], vt[1]
    if outward is not None and np.dot(np.cross(u1, u2), outward) < 0:
        u2 = -u2
    ang = np.arctan2(rel @ u2, rel @ u1)
    out = [ids[k] for k in np.argsort(ang)]
    pivot = out.index(min(out))
    return out[pivot:] + out[:pivot]


def reference_face_labels(surf, ids, v):
    """(ray of u, id of g_v^-1 g_u) for each vertex id u of a face: the
    same set for two faces exactly when g_v' g_v^-1 maps the face with
    vertex v onto the face with vertex v'."""
    n = surf.n
    return list(zip([u % n for u in ids],
                    surf.ball.relative(v // n, [u // n for u in ids])))


def reference_face_orbit_key(surf, fi):
    """Canonical key of the face orbit under the group action: over the
    face's vertices v, the least of its sorted vertex labels
    (ray of u, id of g_v^-1 g_u)."""
    ids = FaceRecord(surf, fi).ids
    return min(tuple(sorted(reference_face_labels(surf, ids, v))) for v in ids)


def reference_edge_orbit_key(surf, u, v):
    (eu, bu), (ev, bv) = divmod(u, surf.n), divmod(v, surf.n)
    return min((bu, bv, surf.ball.relative(eu, [ev])[0]),
               (bv, bu, surf.ball.relative(ev, [eu])[0]))


def reference_face_deck(surf, fi, rep_fi):
    """Deck g with face fi = g . face rep_fi, and the map from each vertex
    of fi to the vertex of rep_fi that g moves onto it.

    g = g_u0 g_w^-1 for the least vertex u0 of fi and the vertex w of
    rep_fi whose face labels are those of fi at u0.
    """
    f_ids, rep_ids = FaceRecord(surf, fi).ids, FaceRecord(surf, rep_fi).ids
    u0 = f_ids[0]
    at_u0 = dict(zip(reference_face_labels(surf, f_ids, u0), f_ids))
    for w in rep_ids:
        if w % surf.n != u0 % surf.n:
            continue
        labels = reference_face_labels(surf, rep_ids, w)
        if set(labels) == at_u0.keys():
            deck = surf.element_of(u0) @ np.linalg.inv(surf.element_of(w))
            return deck, {at_u0[lab]: r for lab, r in zip(labels, rep_ids)}
    raise GeometryError("face deck transformation not found")


def reference_ads_layout(surf):
    """The arguments of `tilings.assemble_tiling` for the projections of a
    Fuchsian surface, face by face: the oracle of `fuchsian._ads_layout`."""
    # face orbits, represented by the first encountered incident copy
    orbit_of = {}
    orbit_rep = []
    face_orbit = {}
    stars = star_records(surf.stars)
    for star in stars:
        for fi in star.wedge_face:
            if fi in face_orbit:
                continue
            key = reference_face_orbit_key(surf, fi)
            if key not in orbit_of:
                orbit_of[key] = len(orbit_rep)
                orbit_rep.append(fi)
            face_orbit[fi] = orbit_of[key]
    deck_cache = {}

    def face_deck(fi):
        if fi not in deck_cache:
            rep_fi = orbit_rep[face_orbit[fi]]
            deck, to_rep = reference_face_deck(surf, fi, rep_fi)
            corner = {w: k for k, w in enumerate(FaceRecord(surf, rep_fi).vertex_ids)}
            deck_cache[fi] = deck, {u: corner[w] for u, w in to_rep.items()}
        return deck_cache[fi]

    white, white_decks = [], []
    for fi in orbit_rep:
        ids = FaceRecord(surf, fi).vertex_ids
        white.append(([(fi, v) for v in ids], tuple(surf.base_of(v) for v in ids)))
        white_decks += [surf.element_of(v) for v in ids]

    black, black_decks = [], []
    black_corner = []
    for vid in range(surf.n):
        seq = _link_faces(surf.stars, vid)
        black.append(([(fi, vid) for fi in seq], tuple(face_orbit[fi] for fi in seq)))
        black_decks += [face_deck(fi)[0] for fi in seq]
        black_corner.append(
            {(face_orbit[fi], face_deck(fi)[1][vid]): k for k, fi in enumerate(seq)}
        )

    edge_slots = {}
    for vid in range(surf.n):
        star = stars[vid]
        for j, s in enumerate(star.neighbors):
            if star.true_edge[j]:
                edge_slots.setdefault(reference_edge_orbit_key(surf, vid, s), (vid, j))

    edges, segment_decks = [], []
    for vid, j in sorted(edge_slots.values()):
        star = stars[vid]
        s = star.neighbors[j]
        fa, fb = star.wedge_face[j - 1], star.wedge_face[j]
        if fa == fb:
            raise GeometryError("true edge inside a single face")
        segments, decks = [], []
        for fi in (fa, fb):
            deck, corner = face_deck(fi)
            segments.append((face_orbit[fi], corner[vid], corner[s]))
            decks.append(deck)
        for vtx in (vid, s):
            b = surf.base_of(vtx)
            ka = black_corner[b].get((face_orbit[fa], face_deck(fa)[1][vtx]))
            kb = black_corner[b].get((face_orbit[fb], face_deck(fb)[1][vtx]))
            if ka is None or kb is None:
                raise GeometryError("edge face missing from the vertex link")
            segments.append((b, ka, kb))
            decks.append(surf.element_of(vtx))
        edges.append(((vid, s, fa, fb), segments))
        segment_decks.append(decks)

    poles = {fi: FaceRecord(surf, fi).pole for star in stars for fi in star.wedge_face}
    ambient = HyperbolicAmbient(surf.group, surf.config.rays)
    decks = tuple(np.array(d).reshape(shape) for d, shape in (
        (white_decks, (-1, 3, 3)), (black_decks, (-1, 3, 3)), (segment_decks, (-1, 4, 3, 3))))
    return poles, surf.points4, white, black, edges, decks, ambient


def dict_ads_layout(surf):
    """The quotient layout of the projections of a Fuchsian surface as the
    arguments of `assemble_tiling`, keyed by face and vertex in dicts: the
    layout that the array-at-a-time `fuchsian._ads_layout` replaced, the
    oracle of `fuchsian.ads_project`.  It reads the same face orbits and
    decks (`_face_orbits`, `_face_decks`) and looks every corner up by
    (face, vertex) key."""
    n = surf.n
    faces = _wedge_faces(surf)
    # each face orbit is represented by its first encountered copy
    groups, orbit, reps = _face_orbits(surf, faces)
    decks, _, moved = _face_decks(surf, groups, orbit, reps)
    to_rep = [[u for u in row if u >= 0] for row in moved.tolist()]
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


# -- heights of a hyperbolic tiling --------------------------------------------------


def least_squares_heights(T):
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
    for w in tiling_faces(T.white):
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



def reference_flip_hyperbolic(T):
    """The flip of a hyperbolic tiling by its orbit hull: the oracle of the
    developed `fuchsian.flip_hyperbolic`.

    The Fuchsian surface is rebuilt as the certified orbit hull at the
    heights `recover_heights` reads off the white metric; its quotient
    layout (`dict_ads_layout`) is assembled once on the side of T, to check
    T against it at 1e-7, and once on the other side as the flip.
    """
    amb = T.ambient
    surf = orbit_hull(_config_on_checked_rays(amb.group, amb.rays, recover_heights(T)))
    layout = dict_ads_layout(surf)
    same = assemble_tiling(ADS_STAR, T.handedness.other, *layout)
    err = tiling_equality_error(T, same)
    if err > 1e-7:
        raise DevelopmentError(
            f"tiling does not match its reconstructed surface ({err:.2e})"
        )
    return assemble_tiling(ADS_STAR, T.handedness, *layout)


# -- forms, quadric points, duality and Minkowski angles --------------------------

EPS_NORM = 1e-10
EPS_ZERO = 1e-12


class Signature(Enum):
    """The forms of the two quadrics of `QuadricPoint`: the 3-sphere and
    anti-de Sitter space, whose group is that of `star`."""

    SPHERE = (1.0, 1.0, 1.0, 1.0)
    ADS = (1.0, 1.0, -1.0, -1.0)

    @property
    def diag(self):
        return np.array(self.value)

    @property
    def star(self):
        return SPHERE_STAR if self is Signature.SPHERE else ADS_STAR


class Minkowski(Enum):
    """The Minkowski forms of the angle classification, beside the forms of
    the two quadrics (`Signature`): (+,+,+,-) on R^4 and its reduction
    (+,-,-) on R^3."""

    MINK31 = (1.0, 1.0, 1.0, -1.0)
    MINK21 = (1.0, -1.0, -1.0)

    @property
    def diag(self):
        return np.array(self.value)


def form(u, v, sig):
    """Evaluate the bilinear form of `sig`, a `Signature` or a `Minkowski`
    form, on two coordinate vectors."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    dim = len(sig.value)
    if u.shape[-1] != dim or v.shape[-1] != dim:
        raise SignatureMismatchError(
            f"{sig.name} expects {dim}-vectors, got {u.shape} and {v.shape}"
        )
    return float(np.sum(u * v * sig.diag)) if u.ndim == 1 else np.sum(
        u * v * sig.diag, axis=-1
    )


def reference_cross4(a, b, c):
    """The generalized cross product of `flipkit.forms.cross4` as four `det`
    calls, one per minor: the reference of its one-call form."""
    stack = np.stack([a, b, c], axis=-2)  # (..., 3, 4)
    out = np.empty(stack.shape[:-2] + (4,))
    for i in range(4):
        out[..., i] = ((-1) ** i) * np.linalg.det(stack[..., [j for j in range(4) if j != i]])
    return out


def pseudo_norm(u, sig):
    """Pseudo-norm sqrt(<u,u>); positive imaginary for time-like vectors."""
    q = form(u, u, sig)
    if q >= 0.0:
        return complex(np.sqrt(q), 0.0)
    return complex(0.0, np.sqrt(-q))


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
    return QuadricPoint(mul4(x.v, y.v, x.sig.star), x.sig, x.norm_class)


def group_inv(y: QuadricPoint) -> QuadricPoint:
    return QuadricPoint(inv4(y.v, y.sig.star), y.sig, y.norm_class)


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


def hs_angle(u, v, sig=Minkowski.MINK31):
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


# -- comparison up to isometry and congruence -------------------------------------


def tiling_isometry_error(T1, T2):
    """Max vertex distance between matched faces after optimal alignment."""
    return _aligned_error(*(np.concatenate([T.black.vertices, T.white.vertices])
                            for T in (T1, T2)), "tilings")


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
                for step in (1, -1):
                    idx = [(r + step * i) % k for i in range(k)]
                    err = float(np.max(np.linalg.norm(moved - g.vertices[idx], axis=1)))
                    if best is None or err < best[0]:
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
    (black1, white1), (black2, white2) = ((tiling_faces(T.black), tiling_faces(T.white))
                                          for T in (T1, T2))
    a = black1[0].vertices
    best = None
    for cand in black2:
        if len(cand) != len(a):
            continue
        k = len(cand)
        for r in range(k):
            for direction in (1, -1):
                idx = [(r + direction * i) % k for i in range(k)]
                b = cand.vertices[idx]
                R = _frame3(b[0], b[1]).T @ _frame3(a[0], a[1])
                err_b = _match_faces_under(R, black1, black2, tol)
                if err_b is None:
                    continue
                err_w = _match_faces_under(R, white1, white2, tol)
                if err_w is None:
                    continue
                err = max(err_b, err_w)
                if best is None or err < best:
                    best = err
    return best


def polygon_is_convex(polygon, tol=1e-9):
    """Is the `polyhedra.SphericalPolygon` convex?  Per edge, the other
    vertices must lie on one side of its great circle up to tol, edge by
    edge and vertex by vertex: the oracle of the one-pass
    `ConvexPolyhedron.faces_convex`."""
    v = polygon.vertices
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


# -- tiling edge segments as records ------------------------------------------------


@dataclass(frozen=True)
class Segment:
    """One face-edge segment of a tiling edge."""

    side: Side
    position: str  # "forward" | "backward"
    color: str
    face: int
    face_edge: int
    reversed: bool  # polygon edge runs against the geodesic direction
    t0: float
    t1: float
    deck: np.ndarray  # face copy incident here = deck . stored face
    tagged: bool  # the file writes the deck (else null)

    @property
    def length(self):
        return self.t1 - self.t0

    def corner_param(self, corner_is_start):
        """Edge parameter of the polygon vertex k (start) or k+1 (end)."""
        if corner_is_start:
            return self.t1 if self.reversed else self.t0
        return self.t0 if self.reversed else self.t1


def segments(edges, e):
    """The four segments of edge e of a `tilings.TilingEdges` table, in slot
    order."""
    return [Segment(Side.LEFT if edges.left[e, j] else Side.RIGHT,
                    "forward" if edges.forward[e, j] else "backward",
                    BLACK if edges.black[e, j] else WHITE, int(edges.face[e, j]),
                    int(edges.face_edge[e, j]), bool(edges.reversed[e, j]),
                    float(edges.t0[e, j]), float(edges.t1[e, j]), edges.decks[e, j],
                    bool(edges.tagged[e, j]))
            for j in range(4)]


# -- cone metrics by walking the gluing ----------------------------------------------


def reference_corner_walk(T, color, start):
    """Corner rows of `color` faces glued around one point, from row `start`.

    The walk repeatedly crosses the polygon edge after the corner onto the
    segment of its color on the other side of the tiling edge, lands on the
    matched corner of the glued face, and leaves through that face's other
    incident edge.
    """
    F = T.faces(color)
    starts, sizes, refs = F.offsets.tolist(), F.sizes.tolist(), F.edge_refs.tolist()
    f = int(np.searchsorted(F.offsets, start, side="right")) - 1
    visited = []
    k = exit_edge = start - starts[f]
    while True:
        visited.append(starts[f] + k)
        if len(visited) > 4 * len(refs) + 8:
            raise GeometryError("cone walk does not close")
        segs = segments(T.edges, refs[starts[f] + exit_edge])
        seg = next(s for s in segs
                   if (s.color, s.face, s.face_edge) == (color, f, exit_edge))
        partner = next(s for s in segs if s.color == color and s.side is not seg.side)
        t = seg.corner_param(corner_is_start=(exit_edge == k)) - seg.t0 + partner.t0
        f2, k2 = partner.face, partner.face_edge
        if abs(t - partner.corner_param(corner_is_start=True)) < 1e-7:
            corner2 = k2
        elif abs(t - partner.corner_param(corner_is_start=False)) < 1e-7:
            corner2 = (k2 + 1) % sizes[f2]
        else:
            raise GeometryError("glued point is not a corner of the partner face")
        # The corner is incident to polygon edges corner2-1 and corner2; we
        # entered through k2, so we leave through the other one.
        other = (corner2 - 1) % sizes[f2] if k2 == corner2 else corner2
        f, k, exit_edge = f2, corner2, other
        if starts[f] + k == start:
            return visited


def reference_cone_metric(T, color):
    """The cone metric of the `color` faces, one walk per cone point: the
    oracle of the link sum of `tilings.black_metric` and `white_metric`.
    Every walk's corners must link to one face of the other color, and the
    walks must meet every such face once."""
    F = T.faces(color)
    angles = _corner_angles(T.ops, F.vertices, F.sizes, F.digon_angle)
    links, seen, points = F.links.tolist(), set(), []
    for r in range(len(links)):
        if r in seen:
            continue
        orbit = reference_corner_walk(T, color, r)
        seen.update(orbit)
        linked = {links[o] for o in orbit}
        if len(linked) != 1:
            raise GeometryError(f"corners around a cone point link to several faces: {linked}")
        points.append(ConePoint(float(sum(angles[o] for o in orbit)), linked.pop()))
    points.sort(key=lambda c: c.associated_face)
    expected = len(T.faces(WHITE if color == BLACK else BLACK))
    faces = [c.associated_face for c in points]
    if faces != list(range(expected)):
        raise GeometryError(f"cone points at faces {faces}, not one at each of the "
                            f"{expected} opposite faces")
    return ConeMetric(T.ops.kappa, points)


# -- tiling faces as records -------------------------------------------------------


@dataclass(frozen=True)
class Face:
    """One face of a `tilings.TilingFaces` table; None stands for no edge
    ref, no digon angle (a polygon), the identity deck at every corner
    (decks) or no list of deck tags (tagged)."""

    vertices: np.ndarray
    links: tuple
    edge_refs: tuple
    digon_angle: float = None
    decks: np.ndarray = None  # (k, 3, 3) deck tags
    tagged: tuple = None  # per corner, whether the file writes its tag

    def __len__(self):
        return len(self.vertices)

    @property
    def is_digon(self):
        return self.digon_angle is not None


def tiling_faces(table):
    """The faces of a `tilings.TilingFaces` table as records, their vertices
    slices of the table's rows."""
    out = []
    for i, (a, b) in enumerate(zip(table.offsets.tolist(), table.offsets[1:].tolist())):
        angle = float(table.digon_angle[i])
        out.append(Face(table.vertices[a:b], tuple(table.links[a:b].tolist()),
                        tuple(None if e < 0 else e for e in table.edge_refs[a:b].tolist()),
                        None if math.isnan(angle) else angle, table.decks[a:b],
                        tuple(table.tagged[a:b].tolist()) if table.decked[i] else None))
    return out


def faces_table(faces):
    """The `tilings.TilingFaces` table of `Face` records."""
    faces = list(faces)
    return TilingFaces.stacked(
        np.concatenate([f.vertices for f in faces]) if faces else np.empty((0, 3)),
        [len(f) for f in faces], [l for f in faces for l in f.links],
        [-1 if e is None else e for f in faces for e in f.edge_refs],
        [np.nan if f.digon_angle is None else f.digon_angle for f in faces],
        np.concatenate([np.tile(np.eye(3), (len(f), 1, 1)) if f.decks is None else f.decks
                        for f in faces]) if faces else np.eye(3),
        [t for f in faces for t in f.tagged or (False,) * len(f)],
        [f.tagged is not None for f in faces])


def with_faces(T, color, faces):
    """A copy of T whose faces of `color` are the records `faces`; the
    other color's table and the edge table are shared."""
    table = faces_table(faces)
    black, white = (table, T.white) if color == BLACK else (T.black, table)
    return FlippableTiling(T.handedness, black, white, T.edges, T.ambient)


def with_face(T, color, i, **fields):
    """A copy of T whose face i of `color` has the given fields replaced."""
    faces = tiling_faces(T.faces(color))
    faces[i] = replace(faces[i], **fields)
    return with_faces(T, color, faces)


# -- the tiling.v1 reader, one record at a time ---------------------------------


def _ref_floats(rows, width, what):
    try:
        arr = np.array(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{what}: not numeric") from exc
    if arr.ndim != 2 or arr.shape[1] != width or not np.all(np.isfinite(arr)):
        raise SchemaError(f"{what}: expected rows of {width} finite numbers")
    _numbers(itertools.chain.from_iterable(rows), what)
    return arr


def _ref_objects(items, required, optional, what):
    """A JSON list of objects, each with the given fields."""
    if not isinstance(items, list):
        raise SchemaError(f"{what}s: expected a list")
    every = set(required) | set(optional)
    for item in items:
        if type(item) is not dict or item.keys() != every:
            _require_keys(item, required, optional, what)
    return items


def _ref_enum(values, allowed, what):
    try:
        ok = set(values) <= set(allowed)
    except TypeError:  # an unhashable value
        ok = False
    if not ok:
        raise SchemaError(f"{what} must be {' or '.join(allowed)}")


def _ref_lists(values, what):
    """A JSON list of JSON lists, flattened, with the length of each."""
    if not (isinstance(values, list) and all(isinstance(v, list) for v in values)):
        raise SchemaError(f"{what}: expected a list")
    return [x for v in values for x in v], np.array([len(v) for v in values], dtype=int)


def _ref_indices(values, bound, what, nullable=False):
    """JSON integer indices in [0, bound) as an int array; `bound` is one
    number or one per index, and null (read as -1) is allowed if
    `nullable`."""
    if nullable:
        null = np.array([i is None for i in values], dtype=bool)
        values = [-1 if i is None else i for i in values]
    try:
        arr = np.array(values)
    except ValueError:  # lists nested to uneven depths
        arr = None
    if (arr is None or arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu")
            or bool in set(map(type, values))):  # numpy reads [true, 1] as integers
        raise SchemaError(f"{what}: expected integer indices")
    arr = arr.astype(np.int64)
    bad = (arr < 0) | (arr >= bound)
    if (bad & ~null if nullable else bad).any():
        raise SchemaError(f"{what}: index out of range")
    return arr


def _ref_decks(tags, what):
    """Deck tags, each null or a 3x3 matrix of finite numbers: the (m, 3, 3)
    matrices, the identity for null, and the (m,) flags of the others."""
    tagged = np.array([d is not None for d in tags], dtype=bool)
    decks = np.tile(np.eye(3), (len(tags), 1, 1))
    if tagged.any():
        try:
            arr = np.array([d for d in tags if d is not None], dtype=float)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"{what}: not numeric") from exc
        if arr.shape[1:] != (3, 3) or not np.all(np.isfinite(arr)):
            raise SchemaError(f"{what}: expected 3x3 matrices of finite numbers")
        _numbers([x for d in tags if d is not None for row in d for x in row], what)
        decks[tagged] = arr
    return decks, tagged


def _ref_check_vertices(verts, ops, what="tiling vertex {}"):
    """Refuse a tiling vertex (or edge base) v off the surface quadric `ops`
    (GeometryError): |<v, v> - kappa| > 1e-9 |v|^2, with |.| the Euclidean
    norm; |v|^2 >= 1e9, where that tolerance reaches |kappa| and no longer
    tells the quadric from its light cone; or a time-like coordinate that
    is not positive (the lower sheet of the hyperboloid)."""
    with np.errstate(over="ignore", invalid="ignore"):
        n2 = np.einsum("ij,ij->i", verts, verts)
        q = np.einsum("ij,ij->i", verts * ops.form, verts)
        on = ((np.abs(q - ops.kappa) <= 1e-9 * n2) & (n2 < 1e9)
              & np.all(verts[:, ops.form < 0] > 0, axis=1))
    if not np.all(on):
        raise GeometryError(f"{what.format(int(np.argmin(on)))} is not on the {ops.name}")


def _ref_check_tangents(base, direction, ops):
    """Refuse an edge direction d that is not a unit tangent at its base b
    on the surface quadric `ops`: |<d, d> - 1| > 1e-9 |d|^2 or
    |<b, d>| > 1e-9 |b| |d|, with |.| the Euclidean norm (GeometryError)."""
    form = ops.form
    with np.errstate(over="ignore", invalid="ignore"):
        dd, bb = (np.einsum("ij,ij->i", a, a) for a in (direction, base))
        ok = ((np.abs(np.einsum("ij,ij->i", direction * form, direction) - 1.0) <= 1e-9 * dd)
              & (np.abs(np.einsum("ij,ij->i", base * form, direction)) <= 1e-9 * np.sqrt(bb * dd)))
    if not np.all(ok):
        raise GeometryError(f"tiling edge {int(np.argmin(ok))} direction is not a unit "
                            "tangent at its base")


def reference_tiling_from_dict(data):
    """A tiling from a `tiling.v1` dict, its structure checked first: enum
    values, index ranges, four segments (two of each color) per edge, one
    ambient ray per black face and the shapes of all arrays, so that a
    malformed file is a SchemaError and the tiling code can index without
    guards.  Then its geometry is checked: every vertex and edge base on
    its quadric, every edge direction a unit tangent at its base and every
    ambient ray as in `fuchsian.check_rays` (GeometryError)."""
    _require_keys(
        data,
        ("schema", "handedness", "ambient", "vertices", "faces", "edges"),
        (),
        TILING_SCHEMA,
    )
    if data["schema"] != TILING_SCHEMA:
        raise SchemaError(f"expected schema {TILING_SCHEMA}")
    if data["handedness"] not in ("left", "right"):
        raise SchemaError("handedness must be 'left' or 'right'")
    handedness = Side(data["handedness"])

    amb = data["ambient"]
    if amb == "sphere":
        ambient = "sphere"
    else:
        _require_keys(
            amb,
            ("type", "genus", "rays"),
            ("word_length", "word_length_cap"),
            "ambient",
        )
        if amb["type"] != "hyperbolic" or amb["genus"] != 2:
            raise SchemaError("only the built-in genus-2 hyperbolic ambient is supported")
        if not all(type(amb.get(k, 0)) is int for k in ("word_length", "word_length_cap")):
            raise SchemaError("ambient word lengths: expected integers")
        ambient = HyperbolicAmbient(_shared_group(), _ref_floats(amb["rays"], 3, "ambient rays"))
    verts = _ref_floats(data["vertices"], 3, "vertices")

    faces = _ref_objects(data["faces"], ("color", "vertices", "links", "edge_refs"),
                     ("digon_angle", "decks"), "face")
    edges = _ref_objects(data["edges"], ("base", "direction", "t_min", "t_max", "segments"),
                     (), "edge")
    if not all(isinstance(ed["segments"], list) and len(ed["segments"]) == 4
               for ed in edges):
        raise SchemaError("edge: expected four segments")
    segs = _ref_objects([sd for ed in edges for sd in ed["segments"]],
                    ("side", "position", "color", "face", "face_edge", "reversed",
                     "t0", "t1"), ("deck",), "segment")

    _ref_enum([fd["color"] for fd in faces], (BLACK, WHITE), "face color")
    black = np.array([fd["color"] == BLACK for fd in faces], dtype=bool)
    count = {BLACK: int(black.sum()), WHITE: int((~black).sum())}
    ids, sizes = _ref_lists([fd["vertices"] for fd in faces], "face vertices")
    ids = _ref_indices(ids, len(verts), "face vertices")
    digon = [fd.get("digon_angle") for fd in faces]
    is_digon = np.array([a is not None for a in digon], dtype=bool)
    if np.any(np.where(is_digon, sizes != 2, sizes < 3)):
        raise SchemaError("face: a digon has two vertices, a polygon at least three")
    angles = np.full(len(faces), np.nan)
    angles[is_digon] = _finite_list([a for a in digon if a is not None], "digon angles")
    links, n_links = _ref_lists([fd["links"] for fd in faces], "face links")
    refs, n_refs = _ref_lists([fd["edge_refs"] for fd in faces], "face edge_refs")
    decks = [fd.get("decks") for fd in faces]
    _, n_decks = _ref_lists([d for d in decks if d is not None], "face decks")
    if not (np.array_equal(n_links, sizes) and np.array_equal(n_refs, sizes)
            and np.array_equal(n_decks, sizes[[d is not None for d in decks]])):
        raise SchemaError("face: links, edge_refs and decks need one entry per vertex")
    links = _ref_indices(links, np.repeat(np.where(black, count[WHITE], count[BLACK]), sizes),
                     "face links")
    refs = _ref_indices(refs, len(edges), "face edge_refs", nullable=True)
    if np.any(refs[np.repeat(is_digon, sizes)] < 0):
        raise SchemaError("face: a digon lies on two tiling edges")
    decked = np.array([d is not None for d in decks], dtype=bool)
    # the corners of a face with no list of tags are untagged
    tags, tagged = _ref_decks([g for d, k in zip(decks, sizes.tolist()) for g in d or [None] * k],
                          "face decks")

    _ref_enum([sd["side"] for sd in segs], ("left", "right"), "segment side")
    _ref_enum([sd["position"] for sd in segs], ("forward", "backward"), "segment position")
    _ref_enum([sd["color"] for sd in segs], (BLACK, WHITE), "segment color")
    seg_black = np.array([sd["color"] == BLACK for sd in segs], dtype=bool)
    if np.any(seg_black.reshape(-1, 4).sum(axis=1) != 2):
        raise SchemaError("edge: expected two black and two white segments")
    face = _ref_indices([sd["face"] for sd in segs],
                    np.where(seg_black, count[BLACK], count[WHITE]), "segment face")
    bound = np.zeros(len(segs), dtype=int)
    bound[seg_black] = sizes[black][face[seg_black]]
    bound[~seg_black] = sizes[~black][face[~seg_black]]
    face_edge = _ref_indices([sd["face_edge"] for sd in segs], bound, "segment face_edge")
    if not {type(sd["reversed"]) for sd in segs} <= {bool}:
        raise SchemaError("segment reversed: expected true or false")
    t0 = _finite_list([sd["t0"] for sd in segs], "segment t0")
    t1 = _finite_list([sd["t1"] for sd in segs], "segment t1")
    seg_decks, seg_tagged = _ref_decks([sd.get("deck") for sd in segs], "segment deck")
    if ambient == "sphere" and (decked.any() or seg_tagged.any()):
        raise SchemaError("a spherical tiling carries no deck tags: face decks and "
                          "segment decks must be null")
    if edges:
        base = _ref_floats([ed["base"] for ed in edges], 3, "edge base")
        direction = _ref_floats([ed["direction"] for ed in edges], 3, "edge direction")
    else:
        base = direction = np.empty((0, 3))
    t_min = _finite_list([ed["t_min"] for ed in edges], "edge t_min")
    t_max = _finite_list([ed["t_max"] for ed in edges], "edge t_max")
    if ambient != "sphere" and len(ambient.rays) != count[BLACK]:
        raise SchemaError("ambient rays: expected one ray per black face")

    # each color's faces (mask m) and their corner rows, in file order
    black_faces, white_faces = (
        TilingFaces.stacked(verts[ids[rows]], sizes[m], links[rows], refs[rows], angles[m],
                            tags[rows], tagged[rows], decked[m])
        for m, rows in ((m, np.repeat(m, sizes)) for m in (black, ~black)))
    left = np.array([sd["side"] == "left" for sd in segs], dtype=bool)
    forward = np.array([sd["position"] == "forward" for sd in segs], dtype=bool)
    rev = np.array([sd["reversed"] for sd in segs], dtype=bool)
    tiling_edges = TilingEdges(
        base, direction, t_min, t_max,
        *(c.reshape(-1, 4) for c in (left, forward, seg_black, face, face_edge, rev, t0, t1)),
        seg_decks.reshape(-1, 4, 3, 3), seg_tagged.reshape(-1, 4))
    T = FlippableTiling(handedness, black_faces, white_faces, tiling_edges, ambient=ambient)
    _ref_check_vertices(verts, T.ops)
    _ref_check_vertices(base, T.ops, "base of tiling edge {}")
    _ref_check_tangents(base, direction, T.ops)
    if not T.is_spherical:
        check_rays(ambient.group, ambient.rays)
    return T


def _ref_json_int(text):
    """A JSON integer; "-0", which the writer prints only for the float
    -0.0, is read back as that float."""
    return -0.0 if text == "-0" else int(text)


def reference_load_json(path):
    """The JSON value in a file; an unreadable, undecodable, malformed or
    too deeply nested one is a SchemaError."""
    try:
        with open(path) as fh:
            return json.load(fh, parse_int=_ref_json_int)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON or bytes
        raise SchemaError(f"cannot parse {path}: {exc}") from exc
