"""JSON schemas, canonical serialization, CLI commands and exit codes."""

import json
import math
import os
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import polyhedron_corpus, random_polyhedron, regular_tetrahedron
import flipkit
from flipkit import cli, fuchsian
from flipkit import io as fio
from flipkit.cli import main
from flipkit.errors import FlipkitError, SchemaError
from flipkit.polyhedra import polar_dual
from flipkit.render import render_svg
from flipkit.tilings import (
    FlippableTiling,
    Side,
    flip,
    make_antipodal_tiling,
    project,
    validate_tiling,
)
from reference_geometry import Face, faces_table, tiling_congruence_error, tiling_faces

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def readme_blocks(language):
    """The fenced code blocks of README.md in `language`."""
    with open(README, encoding="utf-8") as fh:
        return re.findall(rf"```{language}\n(.*?)```", fh.read(), re.S)


@pytest.fixture()
def tmpfiles(tmp_path):
    return tmp_path


def write_poly(tmp_path, P, name="poly.json"):
    path = tmp_path / name
    fio.dump_json(fio.polyhedron_to_dict(P), path)
    return str(path)


def test_public_names_resolve():
    for name in flipkit.__all__:
        assert getattr(flipkit, name) is not None, name
    namespace = {}
    exec("from flipkit import *", namespace)
    assert set(flipkit.__all__) <= namespace.keys()


def test_canonical_json_floats():
    s = fio.canonical_json({"a": 0.1, "b": [1.0, -2.5e-17]})
    expect = (
        '{"a":' + format(0.1, ".17g")
        + ',"b":[1,' + format(-2.5e-17, ".17g") + "]}"
    )
    assert s == expect
    assert "e-17" in s and "E" not in s
    # floats round-trip exactly through 17 significant digits
    for x in (0.12345678901234567, 1e-300, -math.pi, 3.0):
        assert float(format(x, ".17g")) == x


def reference_canonical_json(obj):
    """The recursive `isinstance` renderer `io.canonical_json` replaced:
    the reference for its bytes and its errors."""

    def render(o):
        if isinstance(o, dict):
            items = sorted(o.items())
            inner = ",".join(f"{json.dumps(k)}:{render(v)}" for k, v in items)
            return "{" + inner + "}"
        if isinstance(o, (list, tuple)):
            return "[" + ",".join(render(v) for v in o) + "]"
        if isinstance(o, bool):
            return "true" if o else "false"
        if isinstance(o, (int, np.integer)):
            return str(int(o))
        if isinstance(o, (float, np.floating)):
            if math.isnan(o) or math.isinf(o):
                raise SchemaError("non-finite number in output")
            return format(float(o), ".17g")
        if o is None:
            return "null"
        if isinstance(o, str):
            return json.dumps(o)
        if isinstance(o, np.ndarray):
            return render(o.tolist())
        raise SchemaError(f"cannot serialize {type(o)!r}")

    return render(obj)


def outcome(fn, obj):
    try:
        return fn(obj)
    except SchemaError as exc:
        return ("SchemaError", str(exc))


json_leaves = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, 1e-300, 5e-324, -5e-324, 1e308]),
    st.integers(-10 ** 20, 10 ** 20),
    st.booleans(),
    st.none(),
    st.text(max_size=6),
    st.floats(allow_nan=False).map(np.float64),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.lists(st.floats(-1e6, 1e6), max_size=4).map(np.array),
)


class DictSubclass(dict):
    pass


@st.composite
def records(draw, values):
    """A list of dicts with one set of str keys (as the faces, edges and
    segments of a tiling), or a near miss of one: a member with an extra or
    a missing key, a dict subclass, or number keys."""
    keys = draw(st.lists(st.text(max_size=4), max_size=4, unique=True))
    rows = [{k: draw(values) for k in keys} for _ in range(draw(st.integers(1, 4)))]
    i = draw(st.integers(0, len(rows) - 1))
    miss = draw(st.sampled_from(["none", "none", "extra", "missing", "subclass", "numbers"]))
    if miss == "extra":
        rows[i]["extra"] = draw(values)  # 5 characters: no drawn key
    elif miss == "missing" and keys:
        del rows[i][keys[0]]
    elif miss == "subclass":
        rows[i] = DictSubclass(rows[i])
    elif miss == "numbers":  # 1 and 1.0 are one key of a set, but not one text
        rows = [dict(zip((1 if j % 2 else 1.0, 2), r.values())) for j, r in enumerate(rows)]
    return rows


json_values = st.recursive(
    json_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(st.floats(allow_nan=True), max_size=5),  # the all-float rows
        st.tuples(inner, inner),
        st.dictionaries(st.text(max_size=5), inner, max_size=5),
        records(st.one_of(json_leaves, inner)),  # numpy and non-finite values inside
    ),
    max_leaves=25,
)


@settings(max_examples=100)
@given(obj=json_values)
def test_canonical_json_matches_reference(obj):
    assert outcome(fio.canonical_json, obj) == outcome(reference_canonical_json, obj)


def test_canonical_json_refuses_what_the_reference_refuses():
    for obj in ([1.0, float("nan")], {"a": [float("-inf")]}, float("inf"),
                [np.float64("nan")], {"a": {1, 2}}, [np.bool_(True)], object()):
        want = outcome(reference_canonical_json, obj)
        assert want[0] == "SchemaError"
        assert outcome(fio.canonical_json, obj) == want


def reference_vertex_table(T, tol=1e-9):
    """The dict-keyed vertex table `io._vertex_table` replaced: the
    reference for its ids and its first-seen order."""
    pts = []
    index = {}

    def lookup(p):
        k = tuple(np.round(p / tol).astype(np.int64).tolist())
        if k not in index:
            pts.append([float(x) for x in p])
            index[k] = len(pts) - 1
        return index[k]

    face_vertex_ids = {}
    for color in ("black", "white"):
        for fi, f in enumerate(T.faces(color)):
            face_vertex_ids[(color, fi)] = [lookup(p) for p in f.vertices]
    return pts, face_vertex_ids


def corpus_tilings():
    """Projections of corpus polyhedra and their polar duals on both sides,
    their flips, and a tiling with digons."""
    out = []
    for P in polyhedron_corpus(seed=101, count=12):
        for Q in (P, polar_dual(P)):
            for side in Side:
                T = project(Q, side)
                out.append(T)
                try:
                    out.append(flip(T))
                except FlipkitError:
                    pass
    ang = np.linspace(0, 2 * np.pi, 6)[:-1]
    out.append(make_antipodal_tiling(
        np.column_stack([np.cos(ang), np.sin(ang), np.full(5, 0.8)]), Side.LEFT))
    return out


def test_vertex_table_matches_reference():
    for T in corpus_tilings():
        assert fio._vertex_table(T) == reference_vertex_table(T)


@settings(max_examples=60)
@given(data=st.data())
def test_vertex_table_matches_reference_across_rounding(data):
    # corners a few ulp to either side of (k + 1/2) * 1e-9, where two
    # nearby points may or may not share a key
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    base = rng.integers(-10 ** 6, 10 ** 6, size=(4, 3)) * 1e-9 + 0.5e-9
    faces = {"black": [], "white": []}
    for color in faces:
        for _ in range(data.draw(st.integers(0, 3))):
            k = data.draw(st.integers(1, 5))
            pick = base[rng.integers(0, 4, size=k)]
            ulps = rng.integers(-3, 4, size=(k, 3))
            v = np.where(rng.random((k, 3)) < 0.5, np.nextafter(pick, np.inf), pick)
            v = v + ulps * np.spacing(pick)
            faces[color].append(Face(v, (0,) * k, (None,) * k))
    T = FlippableTiling(Side.LEFT, faces_table(faces["black"]), faces_table(faces["white"]), [])
    assert fio._vertex_table(T) == reference_vertex_table(T)


def test_polyhedron_round_trip_bytes(tmp_path, tetrahedron):
    p1 = write_poly(tmp_path, tetrahedron)
    P2 = fio.polyhedron_from_dict(fio.load_json(p1))
    assert fio.canonical_json(fio.polyhedron_to_dict(P2)) + "\n" == open(p1).read()


def test_polyhedron_corpus_redump_bytes():
    # the acceptance corpus and its polar duals: loading renormalizes the
    # vertex rows, which must leave rows that are already unit unchanged
    for P in polyhedron_corpus(seed=20240817, count=100, sizes=(6, 14)):
        for Q in (P, polar_dual(P)):
            text = fio.canonical_json(fio.polyhedron_to_dict(Q))
            again = fio.polyhedron_from_dict(json.loads(text))
            assert fio.canonical_json(fio.polyhedron_to_dict(again)) == text


def test_polyhedron_without_faces_rehulled(tmp_path, tetrahedron):
    d = fio.polyhedron_to_dict(tetrahedron)
    del d["faces"]
    path = tmp_path / "nofaces.json"
    fio.dump_json(d, path)
    P = fio.polyhedron_from_dict(fio.load_json(path))
    assert P.faces == tetrahedron.faces


def test_unknown_fields_rejected(tmp_path, tetrahedron):
    d = fio.polyhedron_to_dict(tetrahedron)
    d["extra"] = 1
    with pytest.raises(SchemaError):
        fio.polyhedron_from_dict(d)


def test_tiling_round_trip(tmp_path, tetrahedron):
    T = project(tetrahedron, Side.LEFT)
    d = fio.tiling_to_dict(T)
    text1 = fio.canonical_json(d)
    T2 = fio.tiling_from_dict(json.loads(text1))
    text2 = fio.canonical_json(fio.tiling_to_dict(T2))
    assert text1 == text2
    assert tiling_congruence_error(T, T2) < 1e-12


def test_tiling_faces_sorted_by_color(tetrahedron):
    d = fio.tiling_to_dict(project(tetrahedron, Side.LEFT))
    colors = [f["color"] for f in d["faces"]]
    assert colors == sorted(colors)  # black before white
    blacks = [f for f in d["faces"] if f["color"] == "black"]
    starts = [min(f["vertices"]) for f in blacks]
    assert starts == sorted(starts)


def test_digon_tiling_serializes(tmp_path):
    ang = np.linspace(0, 2 * np.pi, 5)[:-1]
    V = np.array(
        [[math.sin(0.7) * math.cos(a), math.sin(0.7) * math.sin(a), math.cos(0.7)]
         for a in ang]
    )
    T = make_antipodal_tiling(V, Side.RIGHT)
    T2 = fio.tiling_from_dict(fio.tiling_to_dict(T))
    assert sum(1 for f in tiling_faces(T2.white) if f.is_digon) == 4


def test_fuchsian_schema_round_trip(tmp_path):
    d = {
        "schema": "fuchsian.v1",
        "genus": 2,
        "rays": [{"p": [0.25, 0.15, math.sqrt(1 + 0.25 ** 2 + 0.15 ** 2)],
                  "label": "r0"}],
        "targets": [-2.0],
        "word_len_cap": 10,
    }
    path = tmp_path / "f.json"
    fio.dump_json(d, path)
    kind, cfg = fio.load_any(str(path))
    assert kind == "fuchsian"
    assert cfg.targets[0] == -2.0
    out = fio.fuchsian_config_to_dict(cfg)
    assert out["targets"] == [-2.0]


def test_fuchsian_schema_rejects_bad(tmp_path):
    with pytest.raises(SchemaError):
        fio.fuchsian_config_from_dict({"schema": "fuchsian.v1", "genus": 3,
                                       "rays": [{"p": [0, 0, 1]}],
                                       "targets": [-1.0]})
    with pytest.raises(SchemaError):
        fio.fuchsian_config_from_dict({"schema": "fuchsian.v1", "genus": 2,
                                       "rays": [{"p": [0, 0, 1]}]})


# -- CLI ----------------------------------------------------------------------


def test_cli_project_flip_flip_reproduces(tmp_path, tetrahedron):
    p = write_poly(tmp_path, tetrahedron)
    t1, t2, t3 = (str(tmp_path / n) for n in ("t1.json", "t2.json", "t3.json"))
    assert main(["project", "--in", p, "--out", t1, "--side", "left"]) == 0
    assert main(["flip", "--in", t1, "--out", t2]) == 0
    assert main(["flip", "--in", t2, "--out", t3]) == 0
    Ta = fio.tiling_from_dict(fio.load_json(t1))
    Tc = fio.tiling_from_dict(fio.load_json(t3))
    assert tiling_congruence_error(Ta, Tc) < 1e-9


@pytest.fixture(scope="module")
def tiling_n8():
    """The tiling.v1 dict of a projected n = 8 polyhedron."""
    P = random_polyhedron(np.random.default_rng(8), 8)
    return json.loads(fio.canonical_json(fio.tiling_to_dict(project(P, Side.LEFT))))


def _flip_color(d):
    seg = d["edges"][0]["segments"][0]
    seg["color"] = "white" if seg["color"] == "black" else "black"


TILING_CORRUPTIONS = {
    "side-up": lambda d: d["edges"][0]["segments"][0].update(side="up"),
    "position-sideways": lambda d: d["edges"][0]["segments"][1].update(position="sideways"),
    "segment-face-999": lambda d: d["edges"][0]["segments"][0].update(face=999),
    "face-edge-99": lambda d: d["edges"][1]["segments"][2].update(face_edge=99),
    "color-flipped": _flip_color,
    "color-purple": lambda d: d["edges"][0]["segments"][0].update(color="purple"),
    "reversed-not-bool": lambda d: d["edges"][0]["segments"][0].update(reversed="yes"),
    "three-segments": lambda d: d["edges"][0]["segments"].pop(),
    "links-999": lambda d: d["faces"][0]["links"].__setitem__(0, 999),
    "links-bool": lambda d: d["faces"][0]["links"].__setitem__(0, True),
    "base-two-components": lambda d: d["edges"][0].update(base=d["edges"][0]["base"][:2]),
    "edge-refs-999": lambda d: d["faces"][0]["edge_refs"].__setitem__(0, 999),
    "vertex-id-string": lambda d: d["faces"][1]["vertices"].__setitem__(0, "a"),
    "deck-not-3x3": lambda d: d["edges"][0]["segments"][0].update(deck=[[1.0, 0.0]]),
}


@pytest.mark.parametrize("command", ["check", "flip", "render", "reconstruct"])
@pytest.mark.parametrize("corruption", sorted(TILING_CORRUPTIONS))
def test_cli_refuses_malformed_tiling(tmp_path, capsys, tiling_n8, corruption, command):
    d = json.loads(json.dumps(tiling_n8))
    TILING_CORRUPTIONS[corruption](d)
    path = tmp_path / "t.json"
    path.write_text(json.dumps(d))
    argv = [command, "--in", str(path)]
    if command != "check":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("command", ["check", "flip", "render", "reconstruct"])
@pytest.mark.parametrize("scale", [1e300, 1 + 1e-6])
def test_cli_refuses_a_vertex_off_the_sphere(tmp_path, capsys, tiling_n8, scale, command):
    d = json.loads(json.dumps(tiling_n8))
    d["vertices"][3][0] *= scale
    path = tmp_path / "t.json"
    path.write_text(json.dumps(d))
    argv = [command, "--in", str(path)]
    if command != "check":
        argv += ["--out", str(tmp_path / "out")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 3
    assert capsys.readouterr().err == "error: tiling vertex 3 is not on the unit sphere\n"


def test_cli_dual_and_reconstruct(tmp_path):
    rng = np.random.default_rng(2)
    P = random_polyhedron(rng, 7)
    p = write_poly(tmp_path, P)
    d, t, r = (str(tmp_path / n) for n in ("d.json", "t.json", "r.json"))
    assert main(["dual", "--in", p, "--out", d]) == 0
    D = fio.polyhedron_from_dict(fio.load_json(d))
    assert D.n_vertices == P.n_faces
    assert main(["project", "--in", p, "--out", t]) == 0
    assert main(["reconstruct", "--in", t, "--out", r]) == 0
    R = fio.polyhedron_from_dict(fio.load_json(r))
    assert R.n_vertices == P.n_vertices


def test_cli_check_and_exit_codes(tmp_path, tetrahedron):
    p = write_poly(tmp_path, tetrahedron)
    assert main(["check", "--in", p]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check", "--in", str(bad)]) == 2
    # wrong schema for a command
    assert main(["flip", "--in", p, "--out", str(tmp_path / "x.json")]) == 2
    # geometry error: digon tiling cannot be flipped
    tpath = write_digon_tiling(tmp_path)
    assert main(["flip", "--in", tpath, "--out", str(tmp_path / "y.json")]) == 3


@pytest.mark.parametrize("content", [b"\xff\xfe{\x00", b"[" * 100000 + b"]" * 100000],
                         ids=["undecodable-bytes", "nested-too-deep"])
def test_cli_unreadable_input_exit_code(tmp_path, capsys, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert main(["check", "--in", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot parse {bad}: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["dual", "render"])
def test_cli_unwritable_output_exit_code(tmp_path, capsys, tetrahedron, command):
    src = write_poly(tmp_path, tetrahedron)
    if command == "render":
        src = str(tmp_path / "t.json")
        fio.dump_json(fio.tiling_to_dict(project(tetrahedron, Side.LEFT)), src)
    out = tmp_path / "missing" / "x.out"
    assert main([command, "--in", src, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", [["check"], ["dual", "--out", "{tmp}/d.json"],
                                     ["project", "--out", "{tmp}/t.json"]],
                         ids=["check", "dual", "project"])
def test_cli_coplanar_polyhedron_fails_on_one_line(tmp_path, capsys, command):
    # five vertices in one chart plane: Qhull refuses the flat input, and
    # only the first line of its message, not its diagnostic dump, is shown
    d = {"schema": "polyhedron.v1", "model": "S3",
         "vertices": [[0.8, 0.6, 0.0, 0.0], [0.8, 0.0, 0.6, 0.0], [0.8, -0.6, 0.0, 0.0],
                      [0.8, 0.0, -0.6, 0.0], [0.8, 0.36, 0.48, 0.0]]}
    src = tmp_path / "flat.json"
    src.write_text(json.dumps(d))
    argv = [a.format(tmp=tmp_path) for a in command] + ["--in", str(src)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: degenerate input: QH") and err.count("\n") == 1


def test_readme_json_examples_pass_check(tmp_path, capsys):
    examples = readme_blocks("json")
    assert len(examples) >= 2
    for i, text in enumerate(examples):
        path = tmp_path / f"example{i}.json"
        path.write_text(text)
        assert main(["check", "--in", str(path)]) == 0, capsys.readouterr().err


def test_readme_library_example_runs():
    # the Python example as written: the flip of the solved quotient tiling
    # validates and is the left tiling its comment promises
    (example,) = readme_blocks("python")
    names = {}
    exec(example, names)
    tiling, flipped = names["tiling"], names["flipped"]
    assert validate_tiling(flipped).ok
    assert flipped.handedness is tiling.handedness.other is Side.LEFT


def write_digon_tiling(tmp_path):
    ang = np.linspace(0, 2 * np.pi, 4)[:-1]
    V = np.array(
        [[math.sin(0.7) * math.cos(a), math.sin(0.7) * math.sin(a), math.cos(0.7)]
         for a in ang]
    )
    T = make_antipodal_tiling(V, Side.RIGHT)
    tpath = tmp_path / "digons.json"
    fio.dump_json(fio.tiling_to_dict(T), tpath)
    return str(tpath)


def test_cli_parser_built_once(tmp_path, tetrahedron, capsys):
    p = write_poly(tmp_path, tetrahedron)
    t = tmp_path / "t.json"

    def project_default_side():
        assert main(["project", "--in", p, "--out", str(t)]) == 0
        return capsys.readouterr(), t.read_bytes()

    first = project_default_side()
    parser = cli.build_parser()
    misses = cli.build_parser.cache_info().misses
    # failing calls with other options: a schema error (exit 2) that sets
    # --side, and a geometry error (exit 3)
    digons = write_digon_tiling(tmp_path)
    assert main(["project", "--in", digons, "--out", str(t), "--side", "right"]) == 2
    assert main(["flip", "--in", digons, "--out", str(tmp_path / "y.json")]) == 3
    capsys.readouterr()
    assert project_default_side() == first
    assert cli.build_parser() is parser
    assert cli.build_parser.cache_info().misses == misses


def _folded_tetrahedron(delta=1e-10):
    """Tetrahedron with a vertex inserted just beyond the end of one edge.

    The two faces along that edge fold back on themselves: the combinatorics,
    coplanarity and half-space checks pass, and only face convexity fails.
    """
    P = regular_tetrahedron()
    u, w, fa, fb = P.edges[0]
    m = P.vertices[w] + delta * (P.vertices[w] - P.vertices[u])
    faces = []
    for f in P.faces:
        f = list(f)
        for t in range(len(f)):
            if {f[t], f[(t + 1) % len(f)]} == {u, w}:
                f.insert(t + 1, P.n_vertices)
                break
        faces.append(f)
    verts = np.vstack([P.vertices, m / np.linalg.norm(m)])
    return verts, faces, min(fa, fb)


def test_cli_check_non_convex_face_exit_code(tmp_path, capsys):
    verts, faces, first_bad = _folded_tetrahedron()
    path = tmp_path / "folded.json"
    fio.dump_json({"schema": "polyhedron.v1", "model": "S3",
                   "vertices": verts.tolist(), "faces": faces}, path)
    assert main(["check", "--in", str(path)]) == 3
    assert f"face {first_bad} is not convex" in capsys.readouterr().err


def test_cli_check_rejects_tiny_tetrahedron(tmp_path):
    t = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3)
    verts = np.hstack([np.ones((4, 1)), 1e-12 * t])
    path = str(tmp_path / "tiny.json")
    fio.dump_json({"schema": "polyhedron.v1", "model": "S3",
                   "vertices": (verts / np.linalg.norm(verts, axis=1)[:, None]).tolist()},
                  path)
    assert main(["dual", "--in", path, "--out", str(tmp_path / "d.json")]) == 3
    assert main(["project", "--in", path, "--out", str(tmp_path / "t.json")]) == 3
    assert main(["check", "--in", path]) == 3


def test_cli_byte_identical_outputs(tmp_path, tetrahedron):
    p = write_poly(tmp_path, tetrahedron)
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["project", "--in", p, "--out", out1]) == 0
    assert main(["project", "--in", p, "--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_cli_render_two_circles_example(tmp_path):
    # Two great circles divide the sphere into 4 regions with 2 edges; the
    # drawing contains the four filled regions and the two stroked edges.
    from flipkit.tilings import make_two_circles_tiling

    T = make_two_circles_tiling([0.1, 0.2, 1.0], [1.0, 0.0, 0.3], Side.RIGHT)
    assert len(T.black) + len(T.white) == 4
    assert len(T.edges) == 2
    tpath = tmp_path / "t.json"
    fio.dump_json(fio.tiling_to_dict(T), tpath)
    svg_path = tmp_path / "t.svg"
    assert main(["render", "--in", str(tpath), "--out", str(svg_path)]) == 0
    svg = svg_path.read_text()
    assert svg.count('stroke="#c03a2b"') == 2  # two drawn edges
    assert svg.count('fill="#26262b"') == 2    # two black regions
    assert svg.count('fill="#f0ede4"') == 2    # two white regions


def test_render_deterministic(tetrahedron):
    T = project(tetrahedron, Side.LEFT)
    assert render_svg(T) == render_svg(T)


def test_cli_solve_writes_solution(tmp_path):
    d = {
        "schema": "fuchsian.v1",
        "genus": 2,
        "rays": [{"p": [0.25, 0.15, math.sqrt(1 + 0.25 ** 2 + 0.15 ** 2)],
                  "label": "r0"}],
        "targets": [-1.0],
        "word_len_cap": 10,
    }
    f = tmp_path / "f.json"
    fio.dump_json(d, f)
    sol = tmp_path / "sol.json"
    ht = tmp_path / "ht.json"
    rc = main(["solve", "--in", str(f), "--out", str(sol),
               "--tiling-out", str(ht), "--side", "left"])
    assert rc == 0
    out = json.loads(sol.read_text())
    assert out["schema"] == "solution.v1"
    assert out["residual"] <= 1e-8
    assert abs(out["achieved_curvatures"][0] + 1.0) <= 1e-8
    assert main(["check", "--in", str(ht)]) == 0
    svg = tmp_path / "ht.svg"
    assert main(["render", "--in", str(ht), "--out", str(svg)]) == 0
    assert "circle" in svg.read_text()  # Poincare disk boundary


def test_cli_check_fuchsian_with_heights(tmp_path):
    d = {
        "schema": "fuchsian.v1",
        "genus": 2,
        "rays": [{"p": [0.25, 0.15, math.sqrt(1 + 0.25 ** 2 + 0.15 ** 2)]}],
        "heights": [0.6],
    }
    f = tmp_path / "f.json"
    fio.dump_json(d, f)
    assert main(["check", "--in", str(f)]) == 0


FUCHSIAN_HEIGHTS = {
    "schema": "fuchsian.v1",
    "genus": 2,
    "rays": [{"p": [0.25, 0.15, math.sqrt(1 + 0.25 ** 2 + 0.15 ** 2)]}],
    "heights": [0.6],
}


def test_word_length_keys_are_written_as_the_defaults():
    # kept for format compatibility only: any integer is accepted, and
    # flipkit writes 10 (fuchsian.v1) and 4 and 10 (tiling.v1) back
    cfg = fio.fuchsian_config_from_dict(dict(FUCHSIAN_HEIGHTS, word_len_cap=7))
    assert fio.fuchsian_config_to_dict(cfg)["word_len_cap"] == 10
    data = fio.tiling_to_dict(fuchsian.ads_project(fuchsian.orbit_hull(cfg), Side.LEFT))
    data["ambient"].update(word_length=2, word_length_cap=3)
    ambient = fio.tiling_to_dict(fio.tiling_from_dict(data))["ambient"]
    assert (ambient["word_length"], ambient["word_length_cap"]) == (4, 10)


@pytest.mark.parametrize("change", [
    {"rays": [{"p": ["x", 0.15, 1.04]}]},
    {"rays": [{"p": [0.25, 0.15]}]},
    {"rays": {"p": [0.25, 0.15, 1.04]}},
    {"genus": "two"},
    {"heights": 0.5},
    {"heights": [float("nan")]},
    {"word_len_cap": "ten"},
    {"word_len_cap": True},
    {"word_len_cap": False},
], ids=["ray-not-numeric", "ray-two-components", "rays-not-a-list",
        "genus-not-a-number", "heights-scalar", "heights-nan", "cap-not-integer",
        "cap-true", "cap-false"])
def test_cli_check_rejects_malformed_fuchsian(tmp_path, capsys, change):
    f = tmp_path / "f.json"
    f.write_text(json.dumps(dict(FUCHSIAN_HEIGHTS, **change)))  # NaN as a literal
    assert main(["check", "--in", str(f)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("face", [
    ["a", 1, 2], {"a": 1}, 5, [5, [0, 1, 3]], [0, 1, None], [0, 1.5, 2], "012",
    [True, 1, 2], [False, 1, 2], [], [0, 1],
], ids=["index-string", "object", "number", "nested-list", "index-null",
        "index-float", "string", "index-bool", "index-false", "empty", "two-vertices"])
def test_cli_check_rejects_malformed_polyhedron_faces(tmp_path, capsys, tetrahedron, face):
    d = fio.polyhedron_to_dict(tetrahedron)
    d["faces"][d["faces"].index([0, 1, 2])] = face
    f = tmp_path / "p.json"
    f.write_text(json.dumps(d))
    assert main(["check", "--in", str(f)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_tol_env_must_be_numeric(tmp_path, monkeypatch, tetrahedron):
    monkeypatch.setenv("FLIPKIT_TOL", "not-a-number")
    p = write_poly(tmp_path, tetrahedron)
    t = str(tmp_path / "t.json")
    assert main(["project", "--in", p, "--out", t]) == 0  # tol unused here
    # with nan or inf every tolerance comparison is false: all are refused
    for bad in ("not-a-number", "nan", "inf", "-inf", "0", "-1e-3"):
        monkeypatch.setenv("FLIPKIT_TOL", bad)
        assert main(["check", "--in", t]) == 2
    monkeypatch.setenv("FLIPKIT_TOL", "10.0")
    assert main(["check", "--in", t]) == 0


def test_cli_solve_nonconvergence_exit_code(tmp_path, monkeypatch):
    import flipkit.cli as cli
    from flipkit.errors import ConvergenceError

    def boom(cfg, tol):
        raise ConvergenceError("stalled", residual=1.0, iterations=5)

    monkeypatch.setattr(cli, "solve_prescribed_curvature", lambda cfg, tol: boom(cfg, tol))
    d = {
        "schema": "fuchsian.v1",
        "genus": 2,
        "rays": [{"p": [0.25, 0.15, math.sqrt(1 + 0.25 ** 2 + 0.15 ** 2)]}],
        "targets": [-1.0],
    }
    f = tmp_path / "f.json"
    fio.dump_json(d, f)
    rc = main(["solve", "--in", str(f), "--out", str(tmp_path / "s.json")])
    assert rc == 4


def test_cli_solve_singular_jacobian_exit_code(tmp_path, monkeypatch):
    def singular(surf, require_convex=True):
        return fuchsian.JacobianMatrix(np.zeros((surf.n, surf.n)), math.inf)

    monkeypatch.setattr(fuchsian, "jacobian", singular)
    d = {
        "schema": "fuchsian.v1",
        "genus": 2,
        "rays": [{"p": [0.25, 0.15, math.sqrt(1 + 0.25 ** 2 + 0.15 ** 2)]}],
        "targets": [-1.0],
    }
    f = tmp_path / "f.json"
    fio.dump_json(d, f)
    rc = main(["solve", "--in", str(f), "--out", str(tmp_path / "s.json")])
    assert rc == 4
