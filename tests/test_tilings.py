"""Projection, reconstruction, flip, recoloring, metrics, validation.

tests/data/project_flip_sphere.json pins the bits of spherical projection
and flip.  After a deliberate change to either, rewrite it with

    PYTHONPATH=src:tests python tests/test_tilings.py

and say in the change log why it changed.
"""

import os

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_polyhedron
from flipkit import io as fio
from flipkit.errors import DevelopmentError, GeometryError
from flipkit.forms import Signature, inv4_sphere, mul4_sphere
from flipkit.polyhedra import hull, polar_dual
from flipkit.spheremath import SphereOps
from flipkit.tilings import (
    BLACK,
    WHITE,
    FlippableTiling,
    Side,
    black_metric,
    flip,
    make_antipodal_tiling,
    polygon_congruent,
    project,
    project_points,
    recolor,
    tiling_equality_error,
    tiling_isometry_error,
    polyhedron_isometry_error,
    validate_tiling,
    white_metric,
    white_polyhedron,
)


GOLDEN = os.path.join(os.path.dirname(__file__), "data", "project_flip_sphere.json")
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
            return project_points(pole[None], x[None], side, Signature.SPHERE)[0]
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
        ya = mul4_sphere(inv4_sphere(a), x)[1:]
        yb = mul4_sphere(inv4_sphere(b), x)[1:]
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
            fp.edge_lengths(),
            fp.interior_angles(),
            wf.edge_lengths(SphereOps),
            wf.interior_angles(SphereOps),
        )


def test_project_black_faces_congruent_to_links(small_corpus):
    P = small_corpus[1]
    T = project(P, Side.RIGHT)
    for vi in range(P.n_vertices):
        link = P.polar_link(vi)
        bf = T.black[vi]
        assert polygon_congruent(
            link.polygon.edge_lengths(),
            link.polygon.interior_angles(),
            bf.edge_lengths(SphereOps),
            bf.interior_angles(SphereOps),
        )


def test_project_incidence_graph_is_one_skeleton(small_corpus):
    P = small_corpus[2]
    T = project(P, Side.LEFT)
    # one tiling edge per polyhedron edge, joining the black faces of its
    # endpoints and the white faces of its sides
    assert len(T.edges) == P.n_edges
    for e, (i, j, fa, fb) in zip(T.edges, P.edges):
        blacks = {s.face for s in e.segments if s.color == BLACK}
        whites = {s.face for s in e.segments if s.color == WHITE}
        assert blacks == {i, j}
        assert whites == {fa, fb}


def test_project_gap_equals_dihedral(small_corpus):
    for P in small_corpus[:6]:
        T = project(P, Side.LEFT)
        for e, pe in zip(T.edges, P.edges):
            assert e.black_offset() == pytest.approx(
                P.exterior_dihedral(pe), abs=1e-9
            )


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
    T.white[0] = replace(w, vertices=bad)
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
    for a, b in zip(T.black, F.black):
        assert a.links == b.links
    for a, b in zip(T.white, F.white):
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


def test_black_metric_singular_curvature_is_white_area(small_corpus):
    for P in small_corpus[:6]:
        T = project(P, Side.LEFT)
        m = black_metric(T)
        wa = T.white_areas()
        assert m.curvature == 1
        for c in m.cone_points:
            assert c.angle == pytest.approx(
                2 * np.pi - wa[c.associated_face], abs=1e-8
            )
        # spherical cone angles are below 2 pi
        assert np.all(m.cone_angles() < 2 * np.pi)


def test_white_metric_matches_polyhedron_boundary(small_corpus):
    # The white metric of a projection is the induced metric on the white
    # polyhedron: cone angles match the vertex cone angles of P.
    P = small_corpus[1]
    T = project(P, Side.RIGHT)
    m = white_metric(T)
    for c in m.cone_points:
        assert c.angle == pytest.approx(
            P.vertex_cone_angle(c.associated_face), abs=1e-8
        )


def test_metric_gauss_bonnet_budget(small_corpus):
    P = small_corpus[2]
    T = project(P, Side.LEFT)
    m = black_metric(T)
    # total black area + total singular curvature = 4 pi
    total = sum(f.area(SphereOps) for f in T.black) + float(
        np.sum(m.singular_curvatures())
    )
    assert total == pytest.approx(4 * np.pi, abs=1e-8)


# -- antipodal example -------------------------------------------------------------


def test_antipodal_tiling_structure():
    for n in (3, 4, 6):
        T = make_antipodal_tiling(spread_polygon(n), Side.RIGHT)
        assert len(T.black) == 2
        assert len(T.white) == n
        assert len(T.edges) == n
        assert all(w.is_digon for w in T.white)
        assert T.total_area() == pytest.approx(4 * np.pi, abs=1e-10)
        assert validate_tiling(T).ok


def test_antipodal_tiling_both_hands():
    V = spread_polygon(5)
    Tr = make_antipodal_tiling(V, Side.RIGHT)
    Tl = make_antipodal_tiling(V, Side.LEFT)
    assert Tr.handedness is Side.RIGHT
    assert Tl.handedness is Side.LEFT


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
    T.white[0] = replace(w, vertices=bad)
    rep = validate_tiling(T)
    assert not rep.ok
    assert rep.first is not None


def test_validate_detects_swapped_labels(small_corpus):
    P = small_corpus[4]
    T = project(P, Side.LEFT)
    e = T.edges[0]
    swapped = tuple(
        replace(
            s, position="forward" if s.position == "backward" else "backward"
        )
        for s in e.segments
    )
    T.edges[0] = replace(e, segments=swapped)
    rep = validate_tiling(T)
    assert not rep.ok
    assert any("forward" in f or "backward" in f for f in rep.failures)


if __name__ == "__main__":
    # rewrite the golden file of this module from the current code
    with open(GOLDEN, "w") as fh:
        fh.write(projection_golden_text() + "\n")
    print(GOLDEN)
