"""Projection, reconstruction, flip, recoloring, metrics, validation.

tests/data/project_flip_sphere.json pins the bits of spherical projection
and flip.  After a deliberate change to either, rewrite it with

    PYTHONPATH=src:tests python tests/test_tilings.py

and say in the change log why it changed.
"""

import json
import os
import re

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import corner_angles, edge_lengths, random_polyhedron
from flipkit import io as fio
from flipkit import tilings
from flipkit.errors import DevelopmentError, GeometryError
from flipkit.forms import inv4, mul4
from flipkit.fuchsian import FuchsianConfig, ads_project, cone_angles, genus2_group, orbit_hull
from flipkit.polyhedra import hull, polar_dual
from flipkit.spheremath import SPHERE_STAR, SphereOps
from flipkit.tilings import (
    BLACK,
    WHITE,
    FlippableTiling,
    Side,
    TilingReport,
    black_metric,
    flip,
    make_antipodal_tiling,
    make_two_circles_tiling,
    project,
    project_points,
    recolor,
    tiling_equality_error,
    polyhedron_isometry_error,
    validate_tiling,
    white_metric,
    white_polyhedron,
)
from reference_geometry import (
    Segment,
    polygon_congruent,
    reference_cone_metric,
    segments,
    tiling_faces,
    tiling_isometry_error,
    with_face,
)
from test_digests import QUOTIENT_PROJECT_SEED, quotient_surfaces


GOLDEN = os.path.join(os.path.dirname(__file__), "data", "project_flip_sphere.json")
ADS_GOLDEN_N2 = os.path.join(os.path.dirname(__file__), "data", "ads_project_flip_n2.json")
# (seed, vertex count) of the pinned polyhedra, those of the render goldens
POLYHEDRA = ((1, 6), (2, 10))


def spread_polygon(n, lat=0.6):
    ang = np.linspace(0, 2 * np.pi, n + 1)[:-1]
    return np.array(
        [[np.sin(lat) * np.cos(a), np.sin(lat) * np.sin(a), np.cos(lat)] for a in ang]
    )


# -- angle projection ----------------------------------------------------------


def angle_project(a, b, x, side):
    """Project a point of the angle between a* and b* onto e* = S^2: the
    projection by whichever of a, b has x in its dual plane."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    x = np.asarray(x, dtype=float)
    if np.linalg.norm(a - b) < 1e-12 or np.linalg.norm(a + b) < 1e-12:
        raise GeometryError("digon angle (a = +-b) unsupported by angle_project")
    for pole in (a, b):
        if abs(float(np.dot(pole, x))) <= 1e-10:
            return project_points(pole[None], x[None], side, SPHERE_STAR)[0]
    raise GeometryError("point does not lie on the angle a* union b*")


def test_angle_project_edge_distance_is_dihedral():
    # For x on the edge E = a* cap b*, the two projected images are
    # at distance arccos<a,b>.
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.normal(size=4)
        a[0] = abs(a[0]) + 0.5
        a /= np.linalg.norm(a)
        b = rng.normal(size=4)
        b[0] = abs(b[0]) + 0.5
        b /= np.linalg.norm(b)
        # x orthogonal to both a and b
        x = rng.normal(size=4)
        for w in (a, b):
            pass
        M = np.stack([a, b])
        _, _, vt = np.linalg.svd(M)
        x = vt[-1] + 0.3 * vt[-2]
        x /= np.linalg.norm(x)
        ia = angle_project(a, b, x, Side.LEFT)
        ib = angle_project(b, a, x, Side.LEFT)
        # both branches: x in a* and x in b*, so both group elements apply
        ya = mul4(inv4(a, SPHERE_STAR), x, SPHERE_STAR)[1:]
        yb = mul4(inv4(b, SPHERE_STAR), x, SPHERE_STAR)[1:]
        d = SphereOps.dist(ya, yb)
        expected = np.arccos(np.clip(np.dot(a, b), -1, 1))
        assert d == pytest.approx(expected, abs=1e-10)


def test_angle_project_rejects_digon_angle():
    a = np.array([1.0, 0, 0, 0])
    with pytest.raises(GeometryError):
        angle_project(a, a, np.array([0.0, 1, 0, 0]), Side.LEFT)
    with pytest.raises(GeometryError):
        angle_project(a, -a, np.array([0.0, 1, 0, 0]), Side.LEFT)


def test_angle_project_off_angle_rejected():
    a = np.array([1.0, 0, 0, 0])
    b = np.array([np.cos(0.6), np.sin(0.6), 0, 0])
    with pytest.raises(GeometryError):
        angle_project(a, b, np.array([0.5, 0.5, 0.5, 0.5]), Side.LEFT)


# -- projection ----------------------------------------------------------------


def test_project_tetrahedron_combinatorics(tetrahedron):
    T = project(tetrahedron, Side.LEFT)
    assert T.handedness is Side.RIGHT
    assert len(T.white) == 4 and len(T.black) == 4 and len(T.edges) == 6
    T2 = project(tetrahedron, Side.RIGHT)
    assert T2.handedness is Side.LEFT


def test_project_area_budget(small_corpus):
    for P in small_corpus[:10]:
        T = project(P, Side.LEFT)
        assert T.total_area() == pytest.approx(4 * np.pi, abs=1e-8)


def test_project_white_faces_congruent_to_faces(small_corpus):
    P = small_corpus[0]
    T = project(P, Side.LEFT)
    for fi in range(P.n_faces):
        fp = P.face_polygon(fi)
        wf = T.white[fi]
        assert polygon_congruent(
            edge_lengths(SphereOps, fp.vertices),
            corner_angles(SphereOps, fp.vertices),
            edge_lengths(SphereOps, wf.vertices),
            corner_angles(SphereOps, wf.vertices),
        )


def test_project_black_faces_congruent_to_links(small_corpus):
    P = small_corpus[1]
    T = project(P, Side.RIGHT)
    for vi in range(P.n_vertices):
        link = P.polar_link(vi)
        bf = T.black[vi]
        assert polygon_congruent(
            edge_lengths(SphereOps, link.vertices),
            corner_angles(SphereOps, link.vertices),
            edge_lengths(SphereOps, bf.vertices),
            corner_angles(SphereOps, bf.vertices),
        )


def test_project_incidence_graph_is_one_skeleton(small_corpus):
    P = small_corpus[2]
    T = project(P, Side.LEFT)
    # one tiling edge per polyhedron edge, joining the black faces of its
    # endpoints and the white faces of its sides
    assert len(T.edges) == P.n_edges
    for ei, (i, j, fa, fb) in enumerate(P.edges):
        blacks = {s.face for s in segments(T.edges, ei) if s.color == BLACK}
        whites = {s.face for s in segments(T.edges, ei) if s.color == WHITE}
        assert blacks == {i, j}
        assert whites == {fa, fb}


def test_project_gap_equals_dihedral(small_corpus):
    for P in small_corpus[:6]:
        T = project(P, Side.LEFT)
        for ei, pe in enumerate(P.edges):
            # the length of the black intersections (the white-to-white gap)
            offset = min(s.length for s in segments(T.edges, ei) if s.color == BLACK)
            assert offset == pytest.approx(P.exterior_dihedral(pe), abs=1e-9)


def test_projected_tiling_validates(small_corpus):
    for P in small_corpus[:6]:
        assert validate_tiling(project(P, Side.LEFT)).ok
        assert validate_tiling(project(P, Side.RIGHT)).ok


@settings(max_examples=15)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(5, 14), dual=st.booleans(),
       side=st.sampled_from(Side))
def test_projection_validates_and_flip_is_involution(seed, n, dual, side):
    P = random_polyhedron(np.random.default_rng(seed), n)
    if dual:
        P = polar_dual(P)
    T = project(P, side)
    assert validate_tiling(T).ok
    assert tiling_equality_error(T, flip(flip(T))) <= 1e-10


def projection_golden_text():
    """Canonical JSON, per pinned polyhedron, of its left and right
    projections and of the flip of the left one."""
    out = {}
    for seed, n in POLYHEDRA:
        P = random_polyhedron(np.random.default_rng(seed), n)
        T = project(P, Side.LEFT)
        out[f"poly{seed}_n{n}"] = {
            "projected_left": fio.tiling_to_dict(T),
            "projected_right": fio.tiling_to_dict(project(P, Side.RIGHT)),
            "flipped": fio.tiling_to_dict(flip(T)),
        }
    return fio.canonical_json(out)


def test_projection_and_flip_match_golden():
    with open(GOLDEN) as fh:
        assert projection_golden_text() + "\n" == fh.read()


# -- reconstruction -------------------------------------------------------------


def test_white_polyhedron_round_trip(small_corpus):
    for P in small_corpus[:10]:
        for side in (Side.LEFT, Side.RIGHT):
            T = project(P, side)
            Q = white_polyhedron(T)
            assert Q.n_vertices == P.n_vertices
            assert polyhedron_isometry_error(P, Q) < 1e-8


def test_project_of_white_polyhedron_round_trip(small_corpus):
    # T -> P_w(T) -> same-side projection reproduces T up to isometry.
    P = small_corpus[3]
    T = project(P, Side.LEFT)
    Q = white_polyhedron(T)
    T2 = project(Q, Side.LEFT)
    assert tiling_isometry_error(T, T2) < 1e-8


def test_white_polyhedron_rejects_degenerate():
    T = make_antipodal_tiling(spread_polygon(4), Side.RIGHT)
    assert T.degenerate
    with pytest.raises(DevelopmentError):
        white_polyhedron(T)


def test_white_polyhedron_detects_corruption(small_corpus):
    P = small_corpus[4]
    T = project(P, Side.LEFT)
    # Corrupt one white face: stretch it away from its true position.
    w = T.white[0]
    bad = w.vertices.copy()
    c = bad.mean(axis=0)
    c /= np.linalg.norm(c)
    bad[0] = SphereOps.geodesic(bad[0], SphereOps.tangent(bad[0], c), -1e-3)
    T = with_face(T, WHITE, 0, vertices=bad)
    with pytest.raises(DevelopmentError):
        white_polyhedron(T)


# -- flip -----------------------------------------------------------------------


def test_flip_reverses_handedness_and_round_trips(small_corpus):
    for P in small_corpus[:8]:
        T = project(P, Side.LEFT)
        F = flip(T)
        assert F.handedness is Side.LEFT
        assert validate_tiling(F).ok
        FF = flip(F)
        assert FF.handedness is Side.RIGHT
        assert tiling_isometry_error(T, FF) < 1e-7


def test_flip_preserves_face_multisets(small_corpus):
    P = small_corpus[5]
    T = project(P, Side.LEFT)
    F = flip(T)
    np.testing.assert_allclose(
        np.sort(T.black_areas()), np.sort(F.black_areas()), atol=1e-10
    )
    np.testing.assert_allclose(
        np.sort(T.white_areas()), np.sort(F.white_areas()), atol=1e-10
    )
    # combinatorics preserved face by face
    for a, b in zip(tiling_faces(T.black), tiling_faces(F.black)):
        assert a.links == b.links
    for a, b in zip(tiling_faces(T.white), tiling_faces(F.white)):
        assert b.links == a.links


def test_flip_refuses_degenerate():
    T = make_antipodal_tiling(spread_polygon(5), Side.RIGHT)
    with pytest.raises(GeometryError):
        flip(T)


# -- recolor ---------------------------------------------------------------------


def test_recolor_involution_and_handedness(small_corpus):
    P = small_corpus[6]
    T = project(P, Side.LEFT)
    R = recolor(T)
    assert R.handedness is T.handedness.other
    assert len(R.black) == len(T.white)
    RR = recolor(R)
    assert RR.handedness is T.handedness
    assert tiling_isometry_error(T, RR) < 1e-12
    assert validate_tiling(R).ok
    # the tables themselves come back, and so do those of a quotient tiling
    assert_same_tiling(RR, T)
    Q = ads_project(ads_surface(2), Side.LEFT)
    assert_same_tiling(recolor(recolor(Q)), Q)


def test_recolor_relates_black_and_white_polyhedra(small_corpus):
    # P_b(T) = P_w(T*): reconstructing after recoloring swaps the roles.
    P = small_corpus[7]
    T = project(P, Side.LEFT)
    Pb = white_polyhedron(recolor(T))
    # The black polyhedron of T is the dual of its white polyhedron, so its
    # face count equals the vertex count of P_w and conversely.
    Pw = white_polyhedron(T)
    assert Pb.n_vertices == Pw.n_faces
    assert Pb.n_faces == Pw.n_vertices
    # areas swap between colors
    np.testing.assert_allclose(
        np.sort(T.black_areas()), np.sort(recolor(T).white_areas()), atol=1e-12
    )


# -- cone metrics -----------------------------------------------------------------


@pytest.fixture(scope="module")
def metric_cases(small_corpus):
    """(tiling, the induced cone angles of its white surface): both sides of
    the first 8 corpus polyhedra, with the vertex cone angles of each, and
    both projections of the first two rounds of seed-99 `quotient-flip`
    surfaces, with the cone angles of each."""
    out = []
    for P in small_corpus[:8]:
        angles = np.array([P.vertex_cone_angle(i) for i in range(P.n_vertices)])
        out += [(project(P, side), angles) for side in Side]
    for surf in quotient_surfaces(genus2_group(), QUOTIENT_PROJECT_SEED, rounds=2):
        out += [(ads_project(surf, side), cone_angles(surf)) for side in Side]
    return out


def test_black_metric_singular_curvature_is_white_area(metric_cases):
    for T, _ in metric_cases:
        m = black_metric(T)
        assert m.curvature == T.ops.kappa == (1 if T.is_spherical else -1)
        assert [c.associated_face for c in m.cone_points] == list(range(len(T.white)))
        np.testing.assert_allclose(m.cone_angles(), 2 * np.pi - m.curvature * T.white_areas(),
                                   rtol=0, atol=1e-8)
        # cone angles are below 2 pi on the sphere, above it on a quotient
        assert np.all(m.curvature * (2 * np.pi - m.cone_angles()) > 0)


def test_white_metric_is_the_induced_metric_of_the_white_surface(metric_cases):
    # the white metric of a projection is the induced metric on the white
    # polyhedron or Fuchsian surface: its cone angles are their vertex cone
    # angles, black face i at vertex (ray) i
    for T, angles in metric_cases:
        m = white_metric(T)
        assert m.curvature == T.ops.kappa
        assert [c.associated_face for c in m.cone_points] == list(range(len(T.black)))
        np.testing.assert_allclose(m.cone_angles(), angles, rtol=0, atol=1e-10)


def test_flip_leaves_both_metrics_unchanged(metric_cases):
    # the paper's symmetric tilings: the flip keeps the cone metrics
    for T, _ in metric_cases:
        F = flip(T)
        for metric in (black_metric, white_metric):
            a, b = metric(T), metric(F)
            assert a.curvature == b.curvature
            assert ([c.associated_face for c in a.cone_points]
                    == [c.associated_face for c in b.cone_points])
            np.testing.assert_allclose(b.cone_angles(), a.cone_angles(), rtol=0, atol=1e-10)


def test_metric_gauss_bonnet_budget(metric_cases):
    # kappa (black area) + total singular curvature = 2 pi chi: 4 pi on the
    # sphere, -4 pi on the genus-2 quotient
    for T, _ in metric_cases:
        m = black_metric(T)
        chi = 2 if T.is_spherical else T.ambient.group.chi
        total = m.curvature * float(T.black_areas().sum()) + float(
            np.sum(m.singular_curvatures()))
        assert total == pytest.approx(2 * np.pi * chi, abs=1e-8)


def test_metrics_match_the_walk_oracle(small_corpus):
    # the link sum against the walk across the tiling edges, corner by
    # corner, on both sides of the corpus and on the digon examples
    tilings_ = [project(P, side) for P in small_corpus for side in Side]
    tilings_ += [make_antipodal_tiling(spread_polygon(n), side) for n in (3, 4, 6)
                 for side in Side]
    tilings_ += [make_two_circles_tiling([0.1, 0.2, 1.0], [1.0, 0.0, 0.3], side)
                 for side in Side]
    for T in tilings_:
        for color, metric in ((BLACK, black_metric), (WHITE, white_metric)):
            a, b = metric(T), reference_cone_metric(T, color)
            assert a.curvature == b.curvature == 1
            assert ([c.associated_face for c in a.cone_points]
                    == [c.associated_face for c in b.cone_points])
            np.testing.assert_allclose(a.cone_angles(), b.cone_angles(), rtol=0, atol=1e-12)


def test_metric_refuses_a_face_no_corner_links_to():
    # every white corner of the two-circles tiling linked to black face 0:
    # each still meets its linked face, so the tiling validates, but the
    # cone point at black face 1 takes no corner
    T = make_two_circles_tiling([0, 0.3, 1], [1, 0.2, 0], Side.LEFT)
    T.white = replace(T.white, links=np.zeros(4, dtype=int))
    assert validate_tiling(T).ok
    with pytest.raises(GeometryError, match="black face 1 has no linked white corner"):
        white_metric(T)
    with pytest.raises(GeometryError, match=re.escape("cone points at faces [0, 0]")):
        reference_cone_metric(T, WHITE)
    assert len(black_metric(T).cone_points) == 2


# -- antipodal example -------------------------------------------------------------


def test_antipodal_tiling_structure():
    for n in (3, 4, 6):
        T = make_antipodal_tiling(spread_polygon(n), Side.RIGHT)
        assert len(T.black) == 2
        assert len(T.white) == n
        assert len(T.edges) == n
        assert all(w.is_digon for w in tiling_faces(T.white))
        assert T.total_area() == pytest.approx(4 * np.pi, abs=1e-10)
        assert validate_tiling(T).ok


def test_antipodal_tiling_both_hands():
    V = spread_polygon(5)
    Tr = make_antipodal_tiling(V, Side.RIGHT)
    Tl = make_antipodal_tiling(V, Side.LEFT)
    assert Tr.handedness is Side.RIGHT
    assert Tl.handedness is Side.LEFT


def test_antipodal_tiling_refuses_coincident_vertices():
    # the polygon edge between two equal vertices has no tangent, on either
    # orientation of the polygon
    V = spread_polygon(4)
    V[1] = V[0]
    with pytest.raises(GeometryError, match="^tangent direction undefined"):
        make_antipodal_tiling(V, Side.RIGHT)


def test_two_great_circles_special_case():
    # A digon (n = 2) of the antipodal family is the two-great-circles
    # example: 2 black + 2 white faces; built directly here.
    T = make_antipodal_tiling(spread_polygon(3), Side.RIGHT)
    assert T.degenerate  # two black faces


# -- validation -----------------------------------------------------------------


def test_validate_detects_moved_vertex(small_corpus):
    P = small_corpus[3]
    T = project(P, Side.LEFT)
    w = T.white[0]
    bad = w.vertices.copy()
    t = SphereOps.tangent(bad[0], bad[1])
    bad[0] = SphereOps.geodesic(bad[0], t, 1e-3)
    T = with_face(T, WHITE, 0, vertices=bad)
    rep = validate_tiling(T)
    assert not rep.ok
    assert rep.first is not None


def test_validate_detects_swapped_labels(small_corpus):
    P = small_corpus[4]
    T = project(P, Side.LEFT)
    forward = T.edges.forward.copy()
    forward[0] = ~forward[0]
    T.edges = replace(T.edges, forward=forward)
    rep = validate_tiling(T)
    assert not rep.ok
    assert any("forward" in f or "backward" in f for f in rep.failures)


# -- batched validator and edge builder against the per-item references --------


def reference_area(ops, f):
    """Area of one face from its corners, one scalar angle at a time."""
    if f.is_digon:
        return 2.0 * f.digon_angle
    v = f.vertices
    k = len(v)
    angles = [ops.angle(v[i], v[i - 1], v[(i + 1) % k]) for i in range(k)]
    return float(ops.kappa * (sum(angles) - (k - 2) * np.pi))


def reference_validate_tiling(T, tol_scale=1.0):
    """`validate_tiling` as it was written face by face and segment by
    segment: the reference for the batched one."""
    ops = T.ops
    faces = {color: tiling_faces(T.faces(color)) for color in (BLACK, WHITE)}
    failures = []
    if T.handedness not in (Side.LEFT, Side.RIGHT):
        failures.append("unknown handedness")

    for color in (BLACK, WHITE):
        for fi, f in enumerate(faces[color]):
            if f.is_digon:
                continue
            if reference_area(ops, f) <= 0:
                failures.append(f"{color} face {fi} has nonpositive area")

    if T.is_spherical:
        total = sum(reference_area(ops, f) for f in faces[BLACK]) + sum(
            reference_area(ops, f) for f in faces[WHITE])
        budget = abs(total - 4 * np.pi)
        if not budget <= tilings.EPS_AREA * tol_scale * 10:
            failures.append(f"area budget off by {budget:.2e}")

    want = Side.RIGHT if T.handedness is Side.RIGHT else Side.LEFT
    for ei in range(len(T.edges)):
        segs = segments(T.edges, ei)
        for side in (Side.LEFT, Side.RIGHT):
            group = sorted(
                (s for s in segs if s.side is side), key=lambda s: s.t0
            )
            if len(group) != 2 or {g.color for g in group} != {BLACK, WHITE}:
                failures.append(f"edge {ei}: side {side.value} lacks black+white pair")
                continue
            if abs(group[0].t1 - group[1].t0) > 1e-7 * tol_scale:
                failures.append(f"edge {ei}: segments do not abut")
            if (abs(group[0].t0 - T.edges.t_min[ei]) > 1e-7 * tol_scale
                    or abs(group[1].t1 - T.edges.t_max[ei]) > 1e-7 * tol_scale):
                failures.append(f"edge {ei}: segments do not cover [t_min, t_max]")
        blacks = [s for s in segs if s.color == BLACK]
        whites = [s for s in segs if s.color == WHITE]
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
        for s in segs:
            face = faces[s.color][s.face]
            k = s.face_edge
            v0 = face.vertices[k % len(face)]
            v1 = face.vertices[(k + 1) % len(face)]
            v0 = s.deck @ v0
            v1 = s.deck @ v1
            base, direction = T.edges.base[ei], T.edges.direction[ei]
            p0 = ops.geodesic(base, direction, s.corner_param(True))
            p1 = ops.geodesic(base, direction, s.corner_param(False))
            err = max(np.linalg.norm(p0 - v0), np.linalg.norm(p1 - v1))
            if not err <= 1e-6 * tol_scale:
                failures.append(
                    f"edge {ei}: {s.color} face {s.face} edge {k} off geodesic "
                    f"by {err:.2e}"
                )

    for color in (BLACK, WHITE):
        other = faces[WHITE if color == BLACK else BLACK]
        for fi, f in enumerate(faces[color]):
            for k in range(len(f)):
                g = other[f.links[k]]
                pts = g.vertices @ f.decks[k].T
                d = np.min(np.linalg.norm(pts - f.vertices[k], axis=1))
                if not d <= 1e-6 * tol_scale:
                    failures.append(
                        f"{color} face {fi} corner {k} does not meet its linked face"
                    )
    return TilingReport(not failures, failures)


def reference_build_edge(ops, ei, base, direction, entries, tol=1e-7):
    """Tiling edge ei from its four segment entries, as the per-edge
    builder made it: the reference for `tilings._build_edges`.  Returns
    (base, direction, t_min, t_max, segments in slot order)."""
    normal = ops.geodesic_normal(base, ops.geodesic(base, direction, 0.5))
    t_min = min(e["t0"] for e in entries)
    t_max = max(e["t1"] for e in entries)
    segs = []
    for e in entries:
        s = ops.side(e["probe"], normal)
        if abs(s) < 1e-12:
            raise GeometryError("face probe sits on the edge geodesic")
        side = Side.LEFT if s > 0 else Side.RIGHT
        segs.append(Segment(side, "", e["color"], e["face"], e["face_edge"],
                            e["reversed"], e["t0"], e["t1"], e["deck"], e["tagged"]))
    final = []
    for side in (Side.LEFT, Side.RIGHT):
        group = sorted((s for s in segs if s.side is side), key=lambda g: g.t0)
        if len(group) != 2 or {g.color for g in group} != {BLACK, WHITE}:
            raise GeometryError(f"edge {ei}: side {side.value} lacks black+white pair")
        if abs(group[0].t1 - group[1].t0) > tol:
            raise GeometryError(f"edge {ei}: segments do not abut")
        if abs(group[0].t0 - t_min) > tol or abs(group[1].t1 - t_max) > tol:
            raise GeometryError(f"edge {ei}: segments do not cover [t_min, t_max]")
        final.append(replace(group[0], position="backward"))
        final.append(replace(group[1], position="forward"))
    black_lengths = [s.length for s in final if s.color == BLACK]
    white_lengths = [s.length for s in final if s.color == WHITE]
    if abs(black_lengths[0] - black_lengths[1]) > tol:
        raise GeometryError(f"edge {ei}: black lengths differ")
    if abs(white_lengths[0] - white_lengths[1]) > tol:
        raise GeometryError(f"edge {ei}: white lengths differ")
    return base, direction, t_min, t_max, final


def batched_build_edges(ops, rows):
    """`tilings._build_edges` on rows of (base, direction, four entries)."""
    def col(key):
        return np.array([[e[key] for e in entries] for _, _, entries in rows])

    return tilings._build_edges(
        ops, np.array([b for b, _, _ in rows]), np.array([d for _, d, _ in rows]),
        col("color") == BLACK, col("face"), col("face_edge"), col("reversed"),
        col("t0"), col("t1"), col("probe"), col("deck").reshape(-1, 4, 3, 3), col("tagged"),
    )


def ads_surface(n, heights=(0.5, 0.7, 0.62)):
    pts = [(0.3, 0.1), (-0.4, 0.35), (0.0, -0.5)][:n]
    rays = np.array([[x, y, np.sqrt(1.0 + x * x + y * y)] for x, y in pts])
    return orbit_hull(FuchsianConfig(genus2_group(), rays, np.array(heights[:n])))


def sample_tilings():
    """Spherical tilings (n = 5..14, both sides, polar duals, flips), AdS
    quotient tilings (n = 1..3, both sides), the digon and two-circles
    examples."""
    out = []
    for n in range(5, 15):
        for seed in range(100 * n, 100 * n + 20):  # the first whose flips all develop
            P = random_polyhedron(np.random.default_rng(seed), n)
            try:
                projected = [project(Q, side) for Q in (P, polar_dual(P)) for side in Side]
                out += [X for T in projected for X in (T, flip(T))]
                break
            except DevelopmentError:
                continue
    for n in (1, 2, 3):
        surf = ads_surface(n)
        out += [ads_project(surf, side) for side in Side]
    out.append(make_antipodal_tiling(spread_polygon(5), Side.RIGHT))
    out.append(make_two_circles_tiling([0.1, 0.2, 1.0], [1.0, 0.0, 0.3], Side.LEFT))
    return out


def corruptions(T):
    """Copies of T with one corruption each: a vertex moved by 1e-5, a
    segment side swapped, a position swapped, a t0 shifted, a deck
    perturbed (quotient tilings) and a link redirected."""
    ops = T.ops
    out = []

    def with_edge(ei, column, change):
        """A copy of T whose column of the edge table holds change(value)
        at slot 0 of edge ei; the column is copied, not shared with T."""
        col = getattr(T.edges, column).copy()
        col[ei, 0] = change(col[ei, 0])
        return FlippableTiling(T.handedness, T.black, T.white,
                               replace(T.edges, **{column: col}), T.ambient)

    polygons = [f for f, w in enumerate(tiling_faces(T.white)) if not w.is_digon]
    if polygons:
        v = T.white[polygons[0]].vertices.copy()
        v[0] = ops.geodesic(v[0], ops.tangent(v[0], v[1]), 1e-5)
        out.append(with_face(T, WHITE, polygons[0], vertices=v))
    ei = len(T.edges) // 2
    out.append(with_edge(ei, "left", change=lambda left: not left))
    out.append(with_edge(ei, "forward", change=lambda forward: not forward))
    out.append(with_edge(ei, "t0", change=lambda t0: t0 + 1e-5))
    if T.edges.tagged[ei, 0]:
        out.append(with_edge(ei, "decks", change=lambda deck: deck + 1e-5))
    b = tiling_faces(T.black)[0]
    out.append(with_face(T, BLACK, 0, links=((b.links[0] + 1) % len(T.white),) + b.links[1:]))
    return out


def test_validate_tiling_matches_reference():
    # identical reports, failures in the same order, on valid tilings and
    # on corrupted copies of them
    corrupted = 0
    samples = sample_tilings()
    for i, T in enumerate(samples):
        rep = validate_tiling(T)
        assert rep.ok
        assert rep == reference_validate_tiling(T)
        # the corrupted copies of every fourth spherical tiling and of all
        # the others
        if i % 4 and T.is_spherical and i < len(samples) - 2:
            continue
        for C in corruptions(T):
            rep = validate_tiling(C)
            assert rep == reference_validate_tiling(C)
            corrupted += len(rep.failures) > 1
    assert corrupted > 30  # reports with several failures pin their order


def test_tiling_dict_round_trip_bytes(tmp_path):
    # every sample tiling and the flips of the quotient ones re-dump to the
    # same canonical bytes after a load, a negative zero included (the
    # antipodal example has one); a second load gives the same tables
    path = tmp_path / "t.json"
    samples = sample_tilings()
    for T in samples + [flip(T) for T in samples if not T.is_spherical]:
        text = fio.dump_json(fio.tiling_to_dict(T), path)
        _, again = fio.load_any(path)
        assert fio.canonical_json(fio.tiling_to_dict(again)) + "\n" == text
        assert_same_tiling(fio.tiling_from_dict(json.loads(text)), again)


def null_identity_tags(data):
    """Write the identity segment decks and face deck tags of a `tiling.v1`
    dict as null, and a face whose tags are all the identity as a null list
    of decks; return the counts of null deck lists, other lists holding a
    null, null corner tags in these, null segment decks and segments."""
    segs = [s for e in data["edges"] for s in e["segments"]]
    for s in segs:
        if np.array_equal(s["deck"], np.eye(3)):
            s["deck"] = None
    for f in data["faces"]:
        tags = [None if np.array_equal(g, np.eye(3)) else g for g in f["decks"]]
        f["decks"] = None if all(g is None for g in tags) else tags
    lists = [f["decks"] for f in data["faces"] if f["decks"] is not None]
    return (len(data["faces"]) - len(lists), sum(None in tags for tags in lists),
            sum(tags.count(None) for tags in lists),
            sum(s["deck"] is None for s in segs), len(segs))


def test_mixed_segment_decks_round_trip():
    # a quotient tiling whose identity deck tags are written as null (a null
    # tag acts as the identity) re-dumps to its bytes, and flips to the
    # corners of the fully tagged tiling's flip, bit for bit, its null tags
    # kept null
    with open(ADS_GOLDEN_N2) as fh:
        data = json.load(fh)["projected"]
    full = fio.tiling_from_dict(data)
    assert null_identity_tags(data) == (1, 9, 16, 30, 48)
    T = fio.tiling_from_dict(data)
    assert validate_tiling(T).ok
    assert fio.canonical_json(fio.tiling_to_dict(T)) == fio.canonical_json(data)
    F, G = flip(T), flip(full)
    assert validate_tiling(F).ok
    for color in (BLACK, WHITE):
        a, b = F.faces(color).vertices, G.faces(color).vertices
        assert a.tobytes() == b.tobytes()
    flipped, expected = fio.tiling_to_dict(F), fio.tiling_to_dict(G)
    assert null_identity_tags(expected) == (1, 9, 16, 30, 48)
    assert fio.canonical_json(flipped) == fio.canonical_json(expected)


def assert_same_tiling(S, T):
    """S and T hold the same handedness, ambient and tables, column by
    column (deck tags, their flags and NaN digon angles included)."""
    assert S.handedness is T.handedness and S.is_spherical == T.is_spherical
    for A, B in ((S.black, T.black), (S.white, T.white), (S.edges, T.edges)):
        for name, a in vars(A).items():
            b = getattr(B, name)
            assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), name


def edge_rows(T):
    """The tiling's edges as builder input: (base, direction, entries), the
    entries in reverse segment order with the face's normalized corner sum
    (deck-moved) as probe."""
    ops = T.ops
    rows = []
    for ei in range(len(T.edges)):
        entries = []
        for s in reversed(segments(T.edges, ei)):
            c = T.faces(s.color)[s.face].vertices.sum(axis=0)
            c = c / np.sqrt(abs(ops.inner(c, c)))
            entries.append(dict(color=s.color, face=s.face, face_edge=s.face_edge,
                                reversed=s.reversed, t0=s.t0, t1=s.t1, deck=s.deck,
                                tagged=s.tagged, probe=s.deck @ c))
        rows.append((T.edges.base[ei], T.edges.direction[ei], entries))
    return rows


def assert_same_edges(A, B):
    """The edge table A holds the reference edges B, row by row."""
    assert len(A) == len(B)
    for e, (base, direction, t_min, t_max, segs) in enumerate(B):
        assert np.array_equal(A.base[e], base) and np.array_equal(A.direction[e], direction)
        assert (A.t_min[e], A.t_max[e]) == (t_min, t_max)
        for s, t in zip(segments(A, e), segs, strict=True):
            assert replace(s, deck=None) == replace(t, deck=None)
            assert s.deck.tobytes() == t.deck.tobytes()


@pytest.mark.parametrize("kind", ["sphere", "ads"])
def test_build_edges_matches_reference(kind):
    T = (project(random_polyhedron(np.random.default_rng(5), 9), Side.LEFT)
         if kind == "sphere" else ads_project(ads_surface(2), Side.RIGHT))
    ops, rows = T.ops, edge_rows(T)
    assert_same_edges(batched_build_edges(ops, rows),
                      [reference_build_edge(ops, ei, *r) for ei, r in enumerate(rows)])

    def corrupt(ei, changes):
        """Edge ei's entries with {entry index: {field: value}} applied.
        `edge_rows` lists an edge's entries in reverse segment order, so
        entries 3, 2, 1, 0 are the left backward, left forward, right
        backward and right forward segments."""
        entries = [dict(e) for e in rows[ei][2]]
        for j, change in changes.items():
            entries[j].update(change)
        return entries

    def unequal_black(ei):
        # move the inner end point of the side whose backward segment is black
        e = rows[ei][2]
        back, fwd = (3, 2) if e[3]["color"] == BLACK else (1, 0)
        return corrupt(ei, {back: {"t1": e[back]["t1"] + 1e-5},
                            fwd: {"t0": e[fwd]["t0"] + 1e-5}})

    def unequal_white(ei):
        # stretch a white segment at both ends, each within the tolerance
        e = rows[ei][2]
        w = next(j for j, entry in enumerate(e) if entry["color"] == WHITE)
        return corrupt(ei, {w: {"t0": e[w]["t0"] - 6e-8, "t1": e[w]["t1"] + 6e-8}})

    three_on_one_side = corrupt(2, {0: {"probe": -rows[2][2][0]["probe"]}})
    probe = "face probe sits on the edge geodesic"
    cases = [
        ({1: corrupt(1, {2: {"probe": rows[1][0]}})}, probe),
        ({2: three_on_one_side}, "edge 2: side left lacks black+white pair"),
        ({3: corrupt(3, {3: {"t1": rows[3][2][3]["t1"] - 1e-3}})},
         "edge 3: segments do not abut"),
        ({4: unequal_black(4)}, "edge 4: black lengths differ"),
        ({5: corrupt(5, {1: {"probe": rows[5][0]}}), 2: three_on_one_side},
         "edge 2: side left lacks black+white pair"),
        ({6: corrupt(6, {0: {"color": BLACK if rows[6][2][0]["color"] == WHITE else WHITE}})},
         "edge 6: side right lacks black+white pair"),
        ({7: unequal_white(7)}, "edge 7: white lengths differ"),
        ({8: corrupt(8, {0: {"t0": rows[8][2][0]["t0"] + 1e-5}})},
         "edge 8: segments do not abut"),
        ({0: corrupt(0, {3: {"t0": rows[0][2][3]["t0"] + 1e-5}})},
         "edge 0: segments do not cover [t_min, t_max]"),
    ]
    for change, message in cases:
        bad = [(b, d, change.get(ei, entries)) for ei, (b, d, entries) in enumerate(rows)]
        with pytest.raises(GeometryError, match=f"^{re.escape(message)}$"):
            [reference_build_edge(ops, ei, *r) for ei, r in enumerate(bad)]
        with pytest.raises(GeometryError, match=f"^{re.escape(message)}$"):
            batched_build_edges(ops, bad)


def test_validation_and_assembly_share_the_edge_clauses():
    # one edge of a projected tiling corrupted per clause: validation's
    # first failure names the clause, and assembly raises the same message
    # on the same columns
    T = project(random_polyhedron(np.random.default_rng(5), 9), Side.LEFT)
    ops, E, ei = T.ops, T.edges, 2
    white, black = int(np.argmin(E.black[ei])), int(np.argmax(E.black[ei]))

    def changed(j, **changes):
        """T with slot j of edge ei changed, column by column."""
        cols = {column: getattr(E, column).copy() for column in changes}
        for column, change in changes.items():
            cols[column][ei, j] = change(cols[column][ei, j])
        return FlippableTiling(T.handedness, T.black, T.white, replace(E, **cols), T.ambient)

    def assembled(C):
        """`_build_edges` on C's edge columns, a probe on each slot's side."""
        X = C.edges
        normal = ops.geodesic_normal(X.base, ops.geodesic(X.base, X.direction, 0.5))
        probes = np.where(X.left[..., None], normal[:, None], -normal[:, None])
        return tilings._build_edges(ops, X.base, X.direction, X.black, X.face, X.face_edge,
                                    X.reversed, X.t0, X.t1, probes, X.decks, X.tagged)

    misplaced = (f"black is {'backward' if E.forward[ei, black] else 'forward'} on the "
                 f"{'left' if E.left[ei, black] else 'right'}")
    cases = [
        # slot 0 is the left backward segment: t0 its outer end, t1 its inner
        (changed(0, left=np.logical_not), assembled, "side left lacks black+white pair"),
        (changed(0, t1=lambda t: t + 1e-5), assembled, "segments do not abut"),
        (changed(0, t0=lambda t: t + 1e-5), assembled, "segments do not cover [t_min, t_max]"),
        # both ends within the tolerance, the length beyond it
        (changed(white, t0=lambda t: t - 6e-8, t1=lambda t: t + 6e-8), assembled,
         "white lengths differ"),
        (changed(black, forward=np.logical_not), tilings._assert_handedness, misplaced),
    ]
    assert validate_tiling(T).ok
    assert_same_tiling(FlippableTiling(T.handedness, T.black, T.white, assembled(T)), T)
    for C, check, clause in cases:
        first = validate_tiling(C).first
        assert first == f"edge {ei}: {clause}"
        with pytest.raises(GeometryError) as raised:
            check(C)
        assert str(raised.value) == first


if __name__ == "__main__":
    # rewrite the golden file of this module from the current code
    with open(GOLDEN, "w") as fh:
        fh.write(projection_golden_text() + "\n")
    print(GOLDEN)
