"""Hull construction, polar duality, links and areas on the 3-sphere."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull as EuclideanHull

from conftest import corner_angles, edge_lengths, random_polyhedron, regular_tetrahedron
from flipkit import io as fio
from flipkit import polyhedra
from flipkit.errors import GeometryError
from flipkit.polyhedra import (
    EPS_HEMISPHERE,
    MERGE_TOL,
    ConvexPolyhedron,
    from_chart,
    from_vertices_and_faces,
    hull,
    merge_triangles,
    normalize_rows,
    polar_dual,
    to_chart,
)
from flipkit.spheremath import SphereOps
from flipkit.tilings import FlippableTiling, Side, project, white_polyhedron
from reference_geometry import (
    Face,
    cyclic_face_order,
    faces_table,
    polygon_is_convex,
    reference_edges,
    reference_face_cycles,
    reference_polar_dual,
    reference_project,
    reference_sph_stars,
)


def face_pole(points, interior):
    """Reference pole: the inward unit normal of the plane through the rows
    of `points`, from one SVD."""
    _, _, vt = np.linalg.svd(points)
    n = vt[-1]
    n /= np.linalg.norm(n)
    if np.dot(n, interior) < 0:
        n = -n
    return n


def test_hull_tetrahedron_combinatorics(tetrahedron):
    P = tetrahedron
    assert (P.n_vertices, P.n_edges, P.n_faces) == (4, 6, 4)
    assert all(len(f) == 3 for f in P.faces)


def test_hull_drops_interior_point():
    rng = np.random.default_rng(5)
    P = random_polyhedron(rng, 4)
    # A convex chart-combination of the vertices is interior; the Euclidean
    # hull in the chart is the oracle for which points are extreme.
    chart = to_chart(P.vertices)
    inside = chart.mean(axis=0)
    pts = np.vstack([P.vertices, np.append(1.0, inside) / np.linalg.norm(np.append(1.0, inside))])
    oracle = EuclideanHull(to_chart(pts))
    assert sorted(oracle.vertices) == [0, 1, 2, 3]
    Q = hull(pts)
    assert Q.n_vertices == 4


def test_hull_euler_relation_random():
    rng = np.random.default_rng(7)
    for _ in range(10):
        P = random_polyhedron(rng, 10)
        assert P.n_vertices - P.n_edges + P.n_faces == 2


def test_hull_rejects_degenerate_input():
    with pytest.raises(GeometryError):
        hull(np.array([[1, 0, 0, 0], [1, 0.1, 0, 0], [1, 0.2, 0, 0], [1, 0.3, 0, 0]]))
    with pytest.raises(GeometryError):
        hull(np.array([[1e-12, 1, 0, 0], [1, 0.1, 0, 0], [1, 0, 0.1, 0], [1, 0, 0, 0.1]]))


def test_hull_idempotent_on_vertices():
    rng = np.random.default_rng(9)
    P = random_polyhedron(rng, 9)
    Q = hull(P.vertices)
    assert np.allclose(P.vertices, Q.vertices, atol=1e-12)
    assert P.faces == Q.faces


def test_polar_dual_involution(small_corpus):
    for P in small_corpus:
        D = polar_dual(P)
        DD = polar_dual(D)
        assert DD.n_vertices == P.n_vertices
        for v in P.vertices:
            assert np.min(np.linalg.norm(DD.vertices - v, axis=1)) < 1e-9


def test_polar_dual_edge_lengths_are_dihedrals(small_corpus):
    for P in small_corpus[:10]:
        D = polar_dual(P)
        dual_edges = {(e[0], e[1]) for e in D.edges}
        for e in P.edges:
            da = int(np.argmin(np.linalg.norm(D.vertices - P.face_poles[e[2]], axis=1)))
            db = int(np.argmin(np.linalg.norm(D.vertices - P.face_poles[e[3]], axis=1)))
            # adjacent faces of P dualize to an actual edge of P*
            assert (min(da, db), max(da, db)) in dual_edges
            length = SphereOps.dist(D.vertices[da], D.vertices[db])
            assert length == pytest.approx(P.exterior_dihedral(e), abs=1e-9)


def test_dual_of_tetrahedron_is_tetrahedron(tetrahedron):
    D = polar_dual(tetrahedron)
    assert (D.n_vertices, D.n_edges, D.n_faces) == (4, 6, 4)
    # Brute-force half-space oracle: every dual vertex y satisfies <x,y> >= 0
    # for all vertices x of P.
    prods = tetrahedron.vertices @ D.vertices.T
    assert np.min(prods) > -1e-12


def test_dual_face_congruent_to_link(small_corpus):
    P = small_corpus[0]
    D = polar_dual(P)
    for vi in range(P.n_vertices):
        link = P.polar_link(vi)
        # The face of P* dual to vertex vi lies in the plane vi*.
        fi = int(np.argmin(np.linalg.norm(D.face_poles - P.vertices[vi], axis=1)))
        assert np.linalg.norm(D.face_poles[fi] - P.vertices[vi]) < 1e-9
        face_poly = D.face_polygon(fi)
        a = np.sort(edge_lengths(SphereOps, link.vertices))
        b = np.sort(edge_lengths(SphereOps, face_poly.vertices))
        np.testing.assert_allclose(a, b, atol=1e-9)
        np.testing.assert_allclose(
            np.sort(corner_angles(SphereOps, link.vertices)),
            np.sort(corner_angles(SphereOps, face_poly.vertices)), atol=1e-9
        )


def test_polar_link_properties(small_corpus):
    P = small_corpus[1]
    for vi in range(P.n_vertices):
        link = P.polar_link(vi)
        order = P.face_cycle_at_vertex(vi)
        if len(order) == 3:
            assert len(link) == 3
        # Link edge lengths are the exterior dihedral angles at vi.
        lengths = edge_lengths(SphereOps, link.vertices)
        for k in range(len(order)):
            fa, fb = order[k], order[(k + 1) % len(order)]
            match = [
                e
                for e in P.edges
                if {e[2], e[3]} == {fa, fb} and vi in (e[0], e[1])
            ]
            assert len(match) == 1
            assert lengths[k] == pytest.approx(P.exterior_dihedral(match[0]), abs=1e-10)
        # Interior angles are pi minus the face angles at vi; their total
        # complements the cone angle (Gauss-Bonnet of the link).
        assert SphereOps.polygon_area(link.vertices) == pytest.approx(
            2 * np.pi - P.vertex_cone_angle(vi), abs=1e-10
        )


def test_link_angles_complement_face_angles(tetrahedron):
    P = tetrahedron
    link = P.polar_link(0)
    angles = np.sort(corner_angles(SphereOps, link.vertices))
    face_angles = []
    for fi in P.face_cycle_at_vertex(0):
        face = P.faces[fi]
        pos = face.index(0)
        prv = P.vertices[face[(pos - 1) % 3]]
        nxt = P.vertices[face[(pos + 1) % 3]]
        v = P.vertices[0]
        ta = SphereOps.tangent(v / np.linalg.norm(v), prv / np.linalg.norm(prv))
        # Angles computed in the 3-sphere: project to the tangent space.
        ta = prv - np.dot(prv, v) * v
        tb = nxt - np.dot(nxt, v) * v
        ta /= np.linalg.norm(ta)
        tb /= np.linalg.norm(tb)
        face_angles.append(np.arccos(np.clip(np.dot(ta, tb), -1, 1)))
    np.testing.assert_allclose(angles, np.sort(np.pi - np.array(face_angles)), atol=1e-10)


def test_exterior_dihedral_regular_tetrahedron(tetrahedron):
    P = tetrahedron
    vals = [P.exterior_dihedral(e) for e in P.edges]
    assert np.ptp(vals) < 1e-10


def test_exterior_dihedral_matches_chart_normals(small_corpus):
    # Oracle: angle between the 4-space face planes computed from scratch by
    # orthonormalizing each face's vertex span.
    P = small_corpus[2]
    for e in P.edges[:8]:
        i, j, fa, fb = e

        def plane_normal(face):
            pts = P.vertices[list(P.faces[face])]
            _, _, vt = np.linalg.svd(pts)
            n = vt[-1] / np.linalg.norm(vt[-1])
            if np.dot(n, P.interior) < 0:
                n = -n
            return n

        na, nb = plane_normal(fa), plane_normal(fb)
        ang = np.arccos(np.clip(np.dot(na, nb), -1, 1))
        assert ang == pytest.approx(P.exterior_dihedral(e), abs=1e-9)


def test_hull_orders_faces_by_the_per_face_rule(small_corpus):
    # one batched SVD per face size gives each face the order of the
    # per-face rule, counterclockwise about its outward normal
    for P in small_corpus:
        for Q in (P, polar_dual(P)):
            chart = to_chart(Q.vertices)
            for face, pole in zip(Q.faces, Q.face_poles):
                assert tuple(cyclic_face_order(chart, sorted(face), -pole[1:])) == face


def test_polygon_area_octant_and_digon():
    v = np.eye(3)
    assert SphereOps.polygon_area(v) == pytest.approx(np.pi / 2, abs=1e-12)
    # digons live in tilings, with antipodal corners and their angle
    dig = Face(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]), (0, 0), (0, 0), digon_angle=0.8)
    assert dig.is_digon
    T = FlippableTiling(Side.RIGHT, faces_table([]), faces_table([dig]), [])
    assert T.white_areas()[0] == pytest.approx(1.6)
    np.testing.assert_allclose(edge_lengths(SphereOps, dig.vertices), [np.pi, np.pi])


def test_polygon_area_matches_triangulation(small_corpus):
    P = small_corpus[3]
    for fi in range(P.n_faces):
        poly = P.face_polygon(fi)
        v = poly.vertices
        fan = 0.0
        for k in range(1, len(v) - 1):
            fan += SphereOps.polygon_area(np.array([v[0], v[k], v[k + 1]]))
        assert SphereOps.polygon_area(v) == pytest.approx(fan, abs=1e-9)


def test_area_budget_four_pi(small_corpus):
    for P in small_corpus[:8]:
        total = P.boundary_area() + sum(
            SphereOps.polygon_area(P.polar_link(vi).vertices) for vi in range(P.n_vertices)
        )
        assert total == pytest.approx(4 * np.pi, abs=1e-8)


def test_from_vertices_and_faces_round_trip(small_corpus):
    P = small_corpus[4]
    Q = from_vertices_and_faces(P.vertices, P.faces)
    assert Q.faces == P.faces
    np.testing.assert_allclose(Q.face_poles, P.face_poles, atol=1e-9)


def chart_cube():
    c = np.array([[x, y, z] for x in (-0.3, 0.3) for y in (-0.3, 0.3) for z in (-0.3, 0.3)])
    return c + [0.05, -0.02, 0.01]


def chart_prism():
    t = 0.35 * np.array([[np.cos(a), np.sin(a)] for a in (0.3, 2.4, 4.5)])
    return np.array([[x, y, z] for z in (-0.25, 0.3) for x, y in t])


@pytest.mark.parametrize("chart, sizes", [
    (chart_cube(), [4] * 6),
    (chart_prism(), [3, 3, 4, 4, 4]),
])
def test_hull_merges_coplanar_triangles(chart, sizes):
    # Qhull splits each quadrilateral into two triangles; the hull merges
    # them, orders every face counterclockwise seen from outside and keeps
    # the SVD pole of the face's least Qhull triangle.
    pts = normalize_rows(from_chart(chart))
    P = hull(pts)
    assert sorted(len(f) for f in P.faces) == sizes
    qhull = EuclideanHull(to_chart(pts))
    index = {row.tobytes(): i for i, row in enumerate(pts)}
    to_pts = [index[row.tobytes()] for row in P.vertices]
    centre = to_chart(P.interior)[0]
    for fi, face in enumerate(P.faces):
        c = to_chart(P.vertices[list(face)])
        area = sum(np.cross(c[i], c[(i + 1) % len(c)]) for i in range(len(c)))
        assert np.dot(area, c.mean(axis=0) - centre) > 0
        members = {to_pts[v] for v in face}
        first = min(t for t, s in enumerate(qhull.simplices) if set(s) <= members)
        ref = face_pole(pts[qhull.simplices[first]], P.interior)
        assert np.array_equal(P.face_poles[fi], ref)


def test_merge_triangles_follows_chains():
    # poles 0-2 and 2-3 are within MERGE_TOL, 0-3 is not: triangles 0, 2
    # and 3 form one face, listed by its least triangle before triangle 1
    p = np.array([1.0, 0.0, 0.0, 0.0])
    step = np.array([0.0, 0.6 * MERGE_TOL, 0.0, 0.0])
    poles = np.array([p, [0.0, 1.0, 0.0, 0.0], p + step, p + 2 * step])
    simplices = np.array([[0, 1, 2], [5, 7, 6], [2, 1, 3], [3, 4, 2]])
    first, ids = merge_triangles(simplices, poles)
    assert first.tolist() == [0, 1]
    assert ids == [[0, 1, 2, 3, 4], [5, 6, 7]]


def test_merge_triangles_matches_all_pairs():
    # clusters of poles jittered across MERGE_TOL, against the components
    # of the graph of all pairs within MERGE_TOL
    rng = np.random.default_rng(7)
    centres = normalize_rows(rng.normal(size=(40, 4)))
    jitter = rng.uniform(-0.7, 0.7, size=(300, 4)) * MERGE_TOL
    poles = centres[rng.integers(0, 40, size=300)] + jitter
    simplices = np.arange(900).reshape(300, 3)
    first, ids = merge_triangles(simplices, poles)
    close = np.linalg.norm(poles[:, None] - poles[None], axis=2) <= MERGE_TOL
    reach = close
    while True:
        wider = (reach.astype(int) @ close.astype(int)) > 0
        if np.array_equal(wider, reach):
            break
        reach = wider
    ref_first = sorted({int(np.argmax(row)) for row in reach})
    assert 40 < len(ref_first) < 300
    assert first.tolist() == ref_first
    assert ids == [np.sort(simplices[reach[f]].ravel()).tolist() for f in ref_first]


def test_from_vertices_and_faces_poles_are_svd_poles(small_corpus):
    def check(P):
        ref = [face_pole(P.vertices[list(f)], P.interior) for f in P.faces]
        assert np.array_equal(P.face_poles, np.array(ref))

    for P in small_corpus:
        for Q in (P, polar_dual(P)):
            check(from_vertices_and_faces(Q.vertices, Q.faces))
        for side in Side:
            check(white_polyhedron(project(P, side)))


def test_normalize_rows_idempotent():
    rng = np.random.default_rng(5)
    once = normalize_rows(rng.normal(size=(500, 4)))
    assert np.allclose(np.linalg.norm(once, axis=1), 1.0, rtol=0, atol=1e-15)
    assert np.array_equal(normalize_rows(once), once)


@settings(max_examples=30)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(5, 14), dual=st.booleans(),
       swap=st.tuples(st.integers(0, 20), st.integers(1, 20)))
def test_faces_convex_matches_polygon_oracle(seed, n, dual, swap):
    # One-pass convexity against polygon_is_convex, face by face, on
    # a random polyhedron or its polar dual, and again with two vertices of
    # every face of 4 or more swapped (convex or not, depending on the pair).
    P = random_polyhedron(np.random.default_rng(seed), n)
    if dual:
        P = polar_dual(P)
    assert P.faces_convex().all()
    faces = []
    for f in P.faces:
        f = list(f)
        a, b = swap[0] % len(f), (swap[0] + swap[1]) % len(f)
        if len(f) >= 4:
            f[a], f[b] = f[b], f[a]
        faces.append(f)
    Q = ConvexPolyhedron(P.vertices, faces, P.face_poles, P.interior, validate=False)
    oracle = [polygon_is_convex(Q.face_polygon(fi)) for fi in range(Q.n_faces)]
    assert Q.faces_convex().tolist() == oracle


def random_hull(rng, n):
    """The hull of n random points of the open hemisphere; interior points
    drop out."""
    t = rng.normal(size=(n, 3))
    t /= np.linalg.norm(t, axis=1, keepdims=True)
    r = rng.uniform(0.3, 1.2, size=n)
    return hull(np.hstack([np.cos(r)[:, None], np.sin(r)[:, None] * t]))


def relabelled(rng, P):
    """P rebuilt from its faces, each cycle rotated and the list permuted."""
    faces = [f[k:] + f[:k] for f in P.faces for k in [int(rng.integers(len(f)))]]
    return from_vertices_and_faces(P.vertices, [faces[i] for i in rng.permutation(len(faces))])


@pytest.fixture(scope="module")
def oracle_corpus():
    """60 polyhedra of 4 to 20 vertices: hulls of random points and polar
    duals (faces of more than three corners), each also rebuilt from its
    faces given rotated and permuted."""
    rng = np.random.default_rng(27)
    out = []
    for k in range(30):
        n = 4 + k % 17
        P = random_hull(rng, n) if k % 2 else polar_dual(random_polyhedron(rng, 4 + (n - 4) // 2))
        out += [P, relabelled(rng, P)]
    return out


def tiling_json(T):
    return fio.canonical_json(fio.tiling_to_dict(T))


def test_corner_table_matches_the_oracle(oracle_corpus):
    # the edges, cycles, stars and projections that the corner table derives
    # against the edge dict, the walk and the pairwise intersections
    for k, P in enumerate(oracle_corpus):
        assert P.edges == reference_edges(P)
        assert [P.face_cycle_at_vertex(v) for v in range(P.n_vertices)] == (
            reference_face_cycles(P))
        oracle = reference_sph_stars(P)
        for column in ("vertex", "offsets", "neighbors", "true_edge", "wedge_face"):
            got, want = getattr(P.stars, column), getattr(oracle, column)
            assert got.dtype == want.dtype and np.array_equal(got, want), column
        side = (Side.LEFT, Side.RIGHT)[k % 2]
        assert tiling_json(project(P, side)) == tiling_json(reference_project(P, side))


def error_message(call):
    with pytest.raises(GeometryError) as info:
        call()
    return str(info.value)


def test_corner_table_raises_the_oracle_messages():
    P = random_polyhedron(np.random.default_rng(4), 8)
    # a face across an edge that two faces border already
    i, j, fa, fb = P.edges[0]
    m = next(v for v in range(P.n_vertices) if v not in P.faces[fa] + P.faces[fb])
    faces = P.faces + ((i, j, m),)
    three = ConvexPolyhedron(P.vertices, faces, np.vstack([P.face_poles, P.face_poles[:1]]),
                             P.interior, validate=False)
    assert error_message(lambda: from_vertices_and_faces(P.vertices, faces)) == error_message(
        lambda: reference_edges(three))
    assert error_message(lambda: project(three, Side.LEFT)) == error_message(
        lambda: reference_project(three, Side.LEFT))
    # one face turned the other way loads, but the stars at its corners do
    # not close
    for fi in range(0, P.n_faces, 3):
        faces = [f[::-1] if k == fi else f for k, f in enumerate(P.faces)]
        Q = from_vertices_and_faces(P.vertices, faces)
        assert error_message(lambda: project(Q, Side.LEFT)) == error_message(
            lambda: reference_project(Q, Side.LEFT))
    # a vertex of no face
    lone = ConvexPolyhedron(np.vstack([P.interior, P.vertices]),
                            [tuple(v + 1 for v in f) for f in P.faces], P.face_poles,
                            P.interior, validate=False)
    assert error_message(lambda: project(lone, Side.LEFT)) == error_message(
        lambda: reference_project(lone, Side.LEFT)) == "vertex 0 has fewer than 3 faces"


# -- the polar dual off the corner table against the hull of the face poles ------


def coplanar_hull(rng, kind, k):
    """The hull of a prism, antiprism, bipyramid or pyramid over a regular
    k-gon in the chart, under a random linear map and a small shift: faces
    of four or more corners, or vertices of four or more faces."""
    a = 2 * np.pi * np.arange(k) / k
    ring = np.stack([np.cos(a), np.sin(a), np.zeros(k)], axis=1)
    twisted = np.stack([np.cos(a + np.pi / k), np.sin(a + np.pi / k), np.zeros(k)], axis=1)
    up = np.array([0.0, 0.0, 1.0])
    chart = np.vstack({"prism": [ring - 0.6 * up, ring + 0.6 * up],
                       "antiprism": [ring - 0.6 * up, twisted + 0.6 * up],
                       "bipyramid": [ring, -up, up],
                       "pyramid": [ring - 0.4 * up, up]}[kind])
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    m = q * rng.uniform(0.25, 0.6, size=3)
    return hull(from_chart(chart @ m.T + rng.uniform(-0.02, 0.02, size=3)))


def generated(kind, seed, n):
    """A random polyhedron of n vertices, the dual of one, or a coplanar
    hull over an (n % 6 + 3)-gon."""
    rng = np.random.default_rng(seed)
    if kind == "polyhedron":
        return random_polyhedron(rng, n)
    if kind == "dual":
        return reference_polar_dual(random_polyhedron(rng, n))
    return coplanar_hull(rng, kind, n % 6 + 3)


def bumped(rng, P, offset):
    """The hull of the vertices of P and one more point, `offset` outside
    a random face of P in the chart."""
    chart = to_chart(P.vertices)
    face = list(P.faces[int(rng.integers(P.n_faces))])
    x = rng.dirichlet(np.ones(len(face))) @ chart[face]
    a, b, c = chart[face[:3]]
    out = np.cross(b - a, c - a)
    out *= np.sign(out @ (x - chart.mean(axis=0))) / np.linalg.norm(out)
    return hull(np.vstack([P.vertices, from_chart(x + offset * out)]))


@pytest.fixture(scope="module")
def near_degenerate():
    """Valid hulls with one point 1e-4, 1e-8 or 1e-9 outside a face of a
    random polyhedron or of a random hull, whose face poles may leave the
    hemisphere; a bump Qhull or validation refuses is left out."""
    rng = np.random.default_rng(33)
    out = []
    for k in range(60):
        n = 5 + k % 8
        base = random_hull(rng, n) if k % 3 == 0 else random_polyhedron(rng, n)
        for offset in (1e-4, 1e-8, 1e-9):
            try:
                out.append(bumped(rng, base, offset))
            except GeometryError:
                pass
    return out


def dual_json(D):
    return fio.canonical_json(fio.polyhedron_to_dict(D))


KINDS = ["polyhedron", "dual", "prism", "antiprism", "bipyramid", "pyramid"]


@settings(max_examples=60)
@given(kind=st.sampled_from(KINDS), seed=st.integers(0, 2 ** 32 - 1), n=st.integers(4, 14))
def test_polar_dual_matches_the_hull_oracle(kind, seed, n):
    # generated polyhedra, their duals and hulls with coplanar points: the
    # same polyhedron.v1 bytes as the chart hull of the face poles
    P = generated(kind, seed, n)
    assert dual_json(polar_dual(P)) == dual_json(reference_polar_dual(P))


def test_polar_dual_where_the_oracle_refuses_or_splits_a_star(near_degenerate):
    # Near-degenerate hulls: both duals refuse a face pole outside the
    # hemisphere.  Where the hull of the poles refuses for another reason
    # (a lost pole, half-space, coplanarity, edge counts), the dual off the
    # corner table still validates.  Where both accept, the bytes agree,
    # unless the hull of the poles split a vertex star into several faces:
    # then it is no polar dual of P, as it has more faces than P vertices.
    seen = {"hemisphere": 0, "refused": 0, "split": 0, "same": 0}
    for P in near_degenerate:
        try:
            want = reference_polar_dual(P)
        except GeometryError as exc:
            if "open hemisphere" in str(exc):
                with pytest.raises(GeometryError, match="open hemisphere"):
                    polar_dual(P)
                seen["hemisphere"] += 1
            else:
                assert polar_dual(P).n_faces == P.n_vertices
                seen["refused"] += 1
            continue
        D = polar_dual(P)
        if dual_json(D) == dual_json(want):
            seen["same"] += 1
        else:
            assert want.n_faces > P.n_vertices == D.n_faces
            seen["split"] += 1
    assert min(seen.values()) > 0, seen


def assert_exact_involution(P):
    """polar_dual(polar_dual(P)) is P bit for bit, and the face poles of
    the dual are the vertices of P whose stars its faces are."""
    D = polar_dual(P)
    DD = polar_dual(D)
    assert DD.vertices.tobytes() == P.vertices.tobytes() and DD.faces == P.faces
    pole_face = {row.tobytes(): f for f, row in enumerate(normalize_rows(P.face_poles))}
    faces_of = [set(P.faces[pole_face[D.vertices[j].tobytes()]]) for j in range(D.n_vertices)]
    apexes = []
    for face in D.faces:
        (apex,) = set.intersection(*(faces_of[j] for j in face))
        apexes.append(apex)
    assert sorted(apexes) == list(range(P.n_vertices))
    assert D.face_poles.tobytes() == P.vertices[apexes].tobytes()


@settings(max_examples=60)
@given(kind=st.sampled_from(KINDS), seed=st.integers(0, 2 ** 32 - 1), n=st.integers(4, 14))
def test_polar_dual_is_an_exact_involution(kind, seed, n):
    assert_exact_involution(generated(kind, seed, n))


def test_polar_dual_is_an_exact_involution_near_degeneracy(near_degenerate):
    inside = [P for P in near_degenerate if np.all(P.face_poles[:, 0] > EPS_HEMISPHERE)]
    assert len(inside) < len(near_degenerate)
    for P in inside:
        assert_exact_involution(P)


def test_polar_dual_builds_no_hull(small_corpus, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("polar_dual called Qhull")

    monkeypatch.setattr(polyhedra, "EuclideanHull", refuse)
    for P in small_corpus:
        assert polar_dual(polar_dual(P)).faces == P.faces
