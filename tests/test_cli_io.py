"""JSON schemas, canonical serialization, CLI commands and exit codes."""

import copy
import dataclasses
import functools
import itertools
import json
import math
import operator
import os
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import polyhedron_corpus, random_polyhedron, regular_tetrahedron
import flipkit
from flipkit import cli, fuchsian
from flipkit import io as fio
from flipkit.cli import main
from flipkit.errors import FlipkitError, SchemaError
from flipkit.polyhedra import ConvexPolyhedron, polar_dual
from flipkit.render import render_svg
from flipkit.tilings import (
    FlippableTiling,
    Side,
    flip,
    make_antipodal_tiling,
    make_two_circles_tiling,
    project,
    validate_tiling,
)
from reference_geometry import (Face, faces_table, reference_load_json, reference_tiling_from_dict,
                                tiling_congruence_error, tiling_faces)
from test_digests import (QUOTIENT_PROJECT_SEED, SPHERE_CLI_COMMANDS, SPHERE_CLI_SEED,
                          quotient_surfaces)
from test_exit_contract import BASES, DROP, EXTRA, MUTANTS, NEG_ZERO, PATHS
from test_tilings import spread_polygon

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


# a column of one plain type, floats drawn from a small pool so that they
# repeat and both zeros meet
plain_columns = st.sampled_from([
    st.sampled_from([0.0, -0.0, 0.1, -2.5, 1e-300, 0.1 + 0.2]),
    st.integers(-10 ** 20, 10 ** 20),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
])
# values that cannot be written: non-finite numbers, and objects of no
# JSON type
non_finite = st.sampled_from([math.nan, math.inf, -math.inf, np.float64("-inf")])
unserializable = st.sampled_from([{1, 2}, np.bool_(True), b"x"])


@st.composite
def records(draw, values):
    """A list of dicts with one set of str keys (as the faces, edges and
    segments of a tiling), or a near miss of one: a member with an extra or
    a missing key, a dict subclass, or number keys.

    Each key's column holds values of one plain type, any mix of `values`
    (numpy scalars among them), or lists of nested records of unequal
    lengths, empty ones among them.  One row may then take a non-finite
    number and another row a value that cannot be written, so that the two
    errors race: the first in document order must be raised."""
    keys = draw(st.lists(st.text(max_size=4), max_size=4, unique=True))
    rows = [{} for _ in range(draw(st.integers(1, 5)))]
    for k in keys:
        kind = draw(st.sampled_from(["plain", "mixed", "nested"]))
        if kind == "plain":
            leaf = draw(plain_columns)
            column = [draw(leaf) for _ in rows]
        elif kind == "mixed":
            column = [draw(values) for _ in rows]
        else:
            inner = draw(st.lists(st.text(max_size=3), min_size=1, max_size=3, unique=True))
            leaf = draw(plain_columns)
            column = [[{j: draw(leaf) for j in inner} for _ in range(draw(st.integers(0, 3)))]
                      for _ in rows]
        for row, value in zip(rows, column):
            row[k] = value
    if keys and len(rows) > 1 and draw(st.sampled_from([False, True, True])):
        # in the first and the last column: when the later row holds the
        # first column's error, column order and document order disagree
        bad, worse = draw(st.permutations(range(len(rows))))[:2]
        rows[bad][min(keys)] = draw(non_finite)
        rows[worse][max(keys)] = draw(unserializable)
    i = draw(st.integers(0, len(rows) - 1))
    miss = draw(st.sampled_from(["none"] * 4 + ["extra", "missing", "subclass", "numbers"]))
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
@given(obj=st.one_of(json_values, records(json_values)))  # records at the top, too
# the hazards of one `%` template per column: a bool column beside an int
# column (True is true, never 1); the zeros, 17-digit integers and the
# least subnormal; finite floats whose sum overflows; a non-finite number
# first or later in a row, alone or in a record; rows of equal length; and
# keys that a template would read as a conversion or a quote
@example(obj=[{"b": True, "i": 1}, {"b": False, "i": -2}])
@example(obj=[[True, 1], [0, False]])
@example(obj=[0.0, -0.0, 1e16, 1e17, 5e-324, -5e-324])
@example(obj=[1e308, 1e308])
@example(obj=[[1e308, 1.0], [1e308, 2.0]])
@example(obj=[[math.nan, 1.0], [2.0, 3.0]])
@example(obj=[[1.0, 2.0], [3.0, -math.inf]])
@example(obj=[{"a": [math.inf, 1.0]}, {"a": [2.0, 3.0]}])
@example(obj=[{"a": [1.0, 2.0], "b": 1}, {"a": [3.0, math.nan], "b": {1, 2}}])
@example(obj=[[0.1, -0.0, 1e-300], [2.5, 1e17, 0.1 + 0.2]])
@example(obj=[{"%d": 1.0, '"': "%s", "a%%s": [1, 2]}, {"%d": 2.5, '"': "%", "a%%s": [3, 4]}])
def test_canonical_json_matches_reference(obj):
    assert outcome(fio.canonical_json, obj) == outcome(reference_canonical_json, obj)


def test_canonical_json_refuses_what_the_reference_refuses():
    for obj in ([1.0, float("nan")], {"a": [float("-inf")]}, float("inf"),
                [np.float64("nan")], {"a": {1, 2}}, [np.bool_(True)], object()):
        want = outcome(reference_canonical_json, obj)
        assert want[0] == "SchemaError"
        assert outcome(fio.canonical_json, obj) == want


def test_column_path_renders_valid_documents():
    # the item-by-item fallback writes the same bytes, so only a watch on
    # the template path shows that it handles a valid document on its own:
    # no column's template raises, and no face, edge or segment is rendered
    # alone; nor is a record whose keys a template would misread
    cfg = fio.fuchsian_config_from_dict(FUCHSIAN_HEIGHTS)
    T = fuchsian.ads_project(fuchsian.orbit_hull(cfg), Side.LEFT)
    P = random_polyhedron(np.random.default_rng(5), 10)
    template, raised = fio._template, []

    def watched(values):
        try:
            return template(values)
        except Exception as exc:
            raised.append(exc)
            raise

    keyed = {"faces": [{"%d": 1.5, '"': "%s", "a%%s": [1, 2]},
                       {"%d": -0.0, '"': "%", "a%%s": [3, 4]}]}
    for doc in (fio.tiling_to_dict(project(P, Side.LEFT)), fio.tiling_to_dict(T),
                fio.tiling_to_dict(flip(T)), fio.polyhedron_to_dict(P), keyed):
        records = [*doc.get("faces", []), *doc.get("edges", [])]
        records += [s for e in doc.get("edges", []) for s in e["segments"]]
        with mock.patch.object(fio, "_template", watched), \
                mock.patch.object(fio, "_render", wraps=fio._render) as render:
            text = fio.canonical_json(doc)
        assert not raised and text == reference_canonical_json(doc)
        alone = {id(call.args[0]) for call in render.call_args_list}
        assert not alone & set(map(id, records))


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


def tiling_columns(T):
    """Every column of T's tables as (name, dtype, shape, bytes), so that
    floats compare by their bits (-0.0 is not 0.0), with its handedness
    and its ambient rays."""
    out = [T.handedness, T.is_spherical]
    if not T.is_spherical:
        out.append(T.ambient.rays.tobytes())
    for table in (T.black, T.white, T.edges):
        for field in dataclasses.fields(table):
            a = getattr(table, field.name)
            out.append((field.name, a.dtype.str, a.shape, a.tobytes()))
    return out


def reader_outcome(read, source):
    """The columns of the tiling `read` makes of `source`, or the first
    exception's type and message."""
    try:
        return tiling_columns(read(source))
    except Exception as exc:
        return type(exc), str(exc)


def one_field_mutants(d, path):
    """Every one-field mutant of d at `path` (`MUTANTS`, changed as
    `mutated_text` changes them): the one with -0 as the text that writes
    it as the JSON integer -0, the others as d itself, changed in place
    until the next mutant is drawn."""
    *above, key = path
    parent = functools.reduce(operator.getitem, above, d)
    kept = parent[key]
    try:
        for value in MUTANTS:
            parent[key] = kept
            if value in (DROP, EXTRA):
                # a changed copy of the parent, put in its place
                changed = copy.copy(parent)
                if value == DROP:
                    del changed[key]
                elif isinstance(changed, dict):
                    changed["extra"] = 0
                else:
                    changed.append(changed[key])
                if not above:
                    yield changed
                    continue
                grand = functools.reduce(operator.getitem, above[:-1], d)
                grand[above[-1]] = changed
                try:
                    yield d
                finally:
                    grand[above[-1]] = parent
            elif value == NEG_ZERO:
                parent[key] = "placeholder"
                yield json.dumps(d).replace('"placeholder"', "-0")
            else:
                parent[key] = value
                yield d
    finally:
        parent[key] = kept


def reader_inputs():
    """What the reader is checked on, as texts or as parsed documents:
    both projections and the flip of the first 9 `sphere-cli` corpus
    polyhedra and of the seed-99 round-0 quotient surfaces, as written
    (-0.0 as -0), then every one-field mutant of the first node of each
    field of the antipodal-digon and the AdS n = 1 tiling of the exit
    contract.  A text may hold an integer -0, where the two parses
    differ; the documents are mutants whose text would hold none, which
    both parses read as one value."""
    rng = np.random.default_rng(SPHERE_CLI_SEED)
    polyhedra = [random_polyhedron(rng, 6 + i % 9) for i in range(9)]
    surfaces = quotient_surfaces(fuchsian.genus2_group(), QUOTIENT_PROJECT_SEED, 1)
    for left, right in itertools.chain(
            ((project(P, Side.LEFT), project(P, Side.RIGHT)) for P in polyhedra),
            ((fuchsian.ads_project(S, Side.LEFT), fuchsian.ads_project(S, Side.RIGHT))
             for S in surfaces)):
        for T in (left, right, flip(left)):
            yield fio.canonical_json(fio.tiling_to_dict(T)) + "\n"
    for name in ("digons", "ads"):
        d = json.loads(json.dumps(BASES[name]))
        for paths in PATHS[name].values():
            yield from one_field_mutants(d, paths[0])


def test_reader_matches_reference(tmp_path):
    # the columnar reader and the C-scanner parse against the record-wise
    # reader and the callback parse they replaced: the same columns bit
    # for bit, or the same first error
    path = tmp_path / "t.json"
    for case in reader_inputs():
        if isinstance(case, str):
            path.write_text(case)
            new = reader_outcome(lambda p: fio.tiling_from_dict(fio.load_json(p)), path)
            ref = reader_outcome(
                lambda p: reference_tiling_from_dict(reference_load_json(p)), path)
        else:
            new = reader_outcome(fio.tiling_from_dict, case)
            ref = reader_outcome(reference_tiling_from_dict, case)
        assert new == ref, case if isinstance(case, str) else json.dumps(case)


def test_a_label_that_spells_minus_zero_takes_the_callback_parse(tmp_path):
    # the token search takes the "-0" of a ray label "r-0" for an integer
    # -0: that text is parsed through the integer callback, and reads as
    # the config with any other label
    configs = {}
    for label in ("r0", "r-0"):
        path = tmp_path / "f.json"
        ray = dict(FUCHSIAN_HEIGHTS["rays"][0], label=label)
        path.write_text(json.dumps(dict(FUCHSIAN_HEIGHTS, rays=[ray])))
        with mock.patch.object(fio, "_json_int", wraps=fio._json_int) as callback:
            kind, configs[label] = fio.load_any(path)
        assert kind == "fuchsian" and callback.called == (label == "r-0")
    plain, slow = configs.values()
    assert plain.rays.tobytes() == slow.rays.tobytes()
    assert plain.heights.tobytes() == slow.heights.tobytes()
    assert plain.targets is slow.targets is None


def test_minus_zero_face_vertex_is_refused(tmp_path, capsys, tetrahedron):
    # -0 is read as the float -0.0, which is no index
    d = json.loads(fio.canonical_json(fio.tiling_to_dict(project(tetrahedron, Side.LEFT))))
    ids = next(f["vertices"] for f in d["faces"] if 0 in f["vertices"])
    ids[ids.index(0)] = "placeholder"
    path = tmp_path / "t.json"
    path.write_text(json.dumps(d).replace('"placeholder"', "-0"))
    assert main(["check", "--in", str(path)]) == 2
    assert capsys.readouterr().err == "error: face vertices: expected integer indices\n"


def test_minus_zero_floats_redump_to_their_bytes(tmp_path):
    # the writer prints -0.0 as -0; read back, a vertex coordinate, a
    # segment t0 and a deck entry keep their sign and re-dump to their bytes
    sphere = fio.tiling_to_dict(make_two_circles_tiling([0.0, 0.0, 1.0], [1.0, 0.0, 0.0],
                                                        Side.LEFT))
    assert math.copysign(1.0, sphere["vertices"][1][0]) == -1.0
    sphere["edges"][0]["segments"][0]["t0"] = -0.0
    quotient = json.loads(json.dumps(BASES["ads"]))
    deck = next(g for f in quotient["faces"] for g in f["decks"] if g == np.eye(3).tolist())
    deck[0][1] = -0.0
    path = tmp_path / "t.json"
    for d in (sphere, quotient):
        text = fio.dump_json(d, path)
        assert re.search(r"[\[,:]-0[,\]]", text)
        assert fio.canonical_json(fio.tiling_to_dict(fio.load_any(path)[1])) + "\n" == text


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


def test_sphere_cli_reads_the_face_tables_only(tmp_path, monkeypatch):
    # the six sphere-cli commands on a corpus polyhedron never read the
    # tuple view of a polyhedron's faces
    def refuse(P):
        raise AssertionError("ConvexPolyhedron.faces was read")

    monkeypatch.chdir(tmp_path)
    P = random_polyhedron(np.random.default_rng(SPHERE_CLI_SEED), 9)
    fio.dump_json(fio.polyhedron_to_dict(P), "p.json")
    monkeypatch.setattr(ConvexPolyhedron, "faces", property(refuse))
    for argv in SPHERE_CLI_COMMANDS:
        assert main([a.format(src="p.json") for a in argv]) == 0, argv[0]


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


def _white_face(d):
    return next(f for f in d["faces"] if f["color"] == "white")


SPHERE_DECK_TAGS = {
    "face-decks": lambda d: _white_face(d).update(
        decks=[(2 * np.eye(3)).tolist()] * len(_white_face(d)["vertices"])),
    "face-null-decks": lambda d: _white_face(d).update(
        decks=[None] * len(_white_face(d)["vertices"])),
    "segment-deck": lambda d: d["edges"][0]["segments"][0].update(deck=np.eye(3).tolist()),
}


@pytest.mark.parametrize("command", ["check", "flip", "render", "reconstruct"])
@pytest.mark.parametrize("tags", sorted(SPHERE_DECK_TAGS))
def test_cli_refuses_deck_tags_on_the_sphere(tmp_path, capsys, tags, command):
    # the sphere is the quotient by the trivial group: a deck tag there
    # was applied by check alone and dropped by the other commands
    P = random_polyhedron(np.random.default_rng(1), 8)
    d = json.loads(fio.canonical_json(fio.tiling_to_dict(project(P, Side.LEFT))))
    SPHERE_DECK_TAGS[tags](d)
    path = tmp_path / "t.json"
    path.write_text(json.dumps(d))
    argv = [command, "--in", str(path)]
    if command != "check":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err == ("error: a spherical tiling carries no deck tags: "
                                       "face decks and segment decks must be null\n")
    assert not (tmp_path / "out").exists()


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


def test_cli_check_counts_the_cells_of_a_sphere_tiling(tmp_path, capsys):
    # the README polyhedron.v1 example projected, with one tiling edge
    # listed again: 4 black - 7 edges + 4 white = 1 misses V - E + F = 2
    (poly,) = [text for text in readme_blocks("json") if '"polyhedron.v1"' in text]
    src, tpath = tmp_path / "poly.json", tmp_path / "tiling.json"
    src.write_text(poly)
    assert main(["project", "--in", str(src), "--out", str(tpath)]) == 0
    data = fio.load_json(tpath)
    assert len(data["edges"]) == 6
    data["edges"].append(data["edges"][-1])
    fio.dump_json(data, tpath)
    capsys.readouterr()
    assert main(["check", "--in", str(tpath)]) == 3
    assert "tiling INVALID: V - E + F = 1 is not chi = 2" in capsys.readouterr().out
    # the special tilings count 2 too: two circles 2 - 2 + 2, antipodal
    # polygons 2 - k + k with k digons
    assert main(["check", "--in", write_digon_tiling(tmp_path)]) == 0
    for T in (make_two_circles_tiling([0.1, 0.2, 1.0], [1.0, 0.0, 0.3], Side.LEFT),
              make_antipodal_tiling(spread_polygon(5), Side.RIGHT)):
        assert validate_tiling(T).ok, validate_tiling(T).first


def inverted(T):
    """T with every forward flag inverted and the other handedness: the
    handedness clause still holds, the segments' order in t0 does not."""
    E = dataclasses.replace(T.edges, forward=~T.edges.forward)
    return FlippableTiling(T.handedness.other, T.black, T.white, E, T.ambient)


def test_cli_refuses_forward_flags_against_the_segment_order(tmp_path, capsys):
    T = project(random_polyhedron(np.random.default_rng(3), 8), Side.LEFT)
    report = validate_tiling(inverted(T))
    assert report.failures == [f"edge {e}: side {side} flags other than its later segment "
                               "forward" for e in range(len(T.edges)) for side in ("left", "right")]
    path, out = str(tmp_path / "inverted.json"), str(tmp_path / "flipped.json")
    fio.dump_json(fio.tiling_to_dict(inverted(T)), path)
    capsys.readouterr()
    assert main(["check", "--in", path]) == 3
    assert f"tiling INVALID: {report.first}" in capsys.readouterr().out
    assert main(["flip", "--in", path, "--out", out]) == 3
    assert report.first in capsys.readouterr().err
    assert not os.path.exists(out)
    # on a whole great circle which segment is forward is a free choice
    for side in Side:
        C = make_two_circles_tiling([0.1, 0.2, 1.0], [1.0, 0.0, 0.3], side)
        assert validate_tiling(C).ok and validate_tiling(inverted(C)).ok


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


def test_cli_solve_of_targets_met_at_the_start(tmp_path):
    # targets equal to the curvatures of the start surface (h = 0.75): the
    # solve takes no Newton step, and the condition number it writes is
    # that of the returned surface's Jacobian, a finite number
    d = {
        "schema": "fuchsian.v1",
        "genus": 2,
        "rays": [{"p": [0.25, 0.15, math.sqrt(1 + 0.25 ** 2 + 0.15 ** 2)]}],
        "heights": [0.75],
    }
    surf = fuchsian.orbit_hull(fio.fuchsian_config_from_dict(d))
    del d["heights"]
    d["targets"] = fuchsian.curvatures(surf).tolist()
    f = tmp_path / "f.json"
    fio.dump_json(d, f)
    sol = tmp_path / "sol.json"
    assert main(["solve", "--in", str(f), "--out", str(sol)]) == 0
    out = json.loads(sol.read_text())
    assert out["iterations"] == 0 and out["residual"] == 0.0
    assert math.isfinite(out["jacobian_condition"])
    assert out["jacobian_condition"] == fuchsian.jacobian(surf).condition


def test_cli_check_fuchsian_with_heights(tmp_path, capsys):
    d = {
        "schema": "fuchsian.v1",
        "genus": 2,
        "rays": [{"p": [0.25, 0.15, math.sqrt(1 + 0.25 ** 2 + 0.15 ** 2)]}],
        "heights": [0.6],
    }
    f = tmp_path / "f.json"
    fio.dump_json(d, f)
    assert main(["check", "--in", str(f)]) == 0
    # the printed curvatures are those of the orbit hull at the heights
    printed = capsys.readouterr().out.rsplit("curvatures ", 1)[1]
    cfg = fio.fuchsian_config_from_dict(d)
    expected = np.round(fuchsian.curvatures(fuchsian.orbit_hull(cfg)), 6).tolist()
    assert json.loads(printed) == expected


FUCHSIAN_HEIGHTS = {
    "schema": "fuchsian.v1",
    "genus": 2,
    "rays": [{"p": [0.25, 0.15, math.sqrt(1 + 0.25 ** 2 + 0.15 ** 2)]}],
    "heights": [0.6],
}


def test_cli_check_batch_of_fuchsian_configs_builds_one_hull(tmp_path, capsys, monkeypatch):
    # three configurations on one ray set in one call: the first builds its
    # orbit hull, the others read the stars the shared group kept; each
    # prints what it prints when checked alone on a group of its own
    paths = []
    for i, h in enumerate([0.6, 0.63, 0.57]):
        path = tmp_path / f"f{i}.json"
        fio.dump_json(dict(FUCHSIAN_HEIGHTS, heights=[h]), path)
        paths.append(str(path))
    monkeypatch.setattr(fio, "_shared_group", functools.cache(fuchsian.genus2_group))
    separate = []
    for path in paths:
        fio._shared_group.cache_clear()
        assert main(["check", "--in", path]) == 0
        separate.append(capsys.readouterr().out)
    calls = []
    euclidean = fuchsian.EuclideanHull

    def counting(*args, **kwargs):
        calls.append(1)
        return euclidean(*args, **kwargs)

    monkeypatch.setattr(fuchsian, "EuclideanHull", counting)
    fio._shared_group.cache_clear()
    assert main(["check", "--in", paths[0], "--batch", *paths[1:]]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out == "".join(separate)


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


@pytest.fixture(scope="module")
def number_documents(tetrahedron):
    """A valid file of each schema that has a column of numbers: a
    polyhedron, a spherical, an antipodal-digon and an AdS n = 1 tiling,
    whose faces and segments carry deck tags, and a solver input."""
    surf = fuchsian.orbit_hull(fuchsian.FuchsianConfig(
        fuchsian.genus2_group(), np.array([FUCHSIAN_HEIGHTS["rays"][0]["p"]]),
        np.array([0.55])))
    tilings = {"sphere": project(tetrahedron, Side.LEFT),
               "digons": make_antipodal_tiling(spread_polygon(5), Side.LEFT),
               "ads": fuchsian.ads_project(surf, Side.LEFT)}
    docs = {name: fio.tiling_to_dict(T) for name, T in tilings.items()}
    docs["polyhedron"] = fio.polyhedron_to_dict(tetrahedron)
    docs["fuchsian"] = dict(FUCHSIAN_HEIGHTS, targets=[-6.0])
    return {name: json.loads(fio.canonical_json(d)) for name, d in docs.items()}


def _tagged_face(d):
    return next(f for f in d["faces"] if f["decks"] and f["decks"][0] is not None)


def _tagged_segment(d):
    return next(s for e in d["edges"] for s in e["segments"] if s["deck"] is not None)


# per number column: the file, where a number goes and the column's name
NUMBER_COLUMNS = {
    "polyhedron-vertex": ("polyhedron", lambda d: d["vertices"][1], 2, "vertices"),
    "tiling-vertex": ("sphere", lambda d: d["vertices"][0], 1, "vertices"),
    "segment-t0": ("sphere", lambda d: d["edges"][0]["segments"][0], "t0", "segment t0"),
    "segment-t1": ("sphere", lambda d: d["edges"][1]["segments"][3], "t1", "segment t1"),
    "edge-t_min": ("sphere", lambda d: d["edges"][0], "t_min", "edge t_min"),
    "edge-t_max": ("sphere", lambda d: d["edges"][2], "t_max", "edge t_max"),
    "edge-base": ("sphere", lambda d: d["edges"][0]["base"], 0, "edge base"),
    "edge-direction": ("sphere", lambda d: d["edges"][0]["direction"], 2, "edge direction"),
    "digon-angle": ("digons", lambda d: _white_face(d), "digon_angle", "digon angles"),
    "ambient-ray": ("ads", lambda d: d["ambient"]["rays"][0], 2, "ambient rays"),
    "face-deck": ("ads", lambda d: _tagged_face(d)["decks"][0][1], 1, "face decks"),
    "segment-deck": ("ads", lambda d: _tagged_segment(d)["deck"][2], 0, "segment deck"),
    "ray": ("fuchsian", lambda d: d["rays"][0]["p"], 0, "rays"),
    "heights": ("fuchsian", lambda d: d["heights"], 0, "heights"),
    "targets": ("fuchsian", lambda d: d["targets"], 0, "targets"),
}


@pytest.mark.parametrize("value", [True, False, "0.5"], ids=["true", "false", "string"])
@pytest.mark.parametrize("column", sorted(NUMBER_COLUMNS))
def test_cli_check_refuses_booleans_and_strings_as_numbers(tmp_path, capsys, number_documents,
                                                           column, value):
    # numpy reads true, false and "0.5" as 1.0, 0.0 and 0.5; JSON does not
    name, node, key, what = NUMBER_COLUMNS[column]
    d = json.loads(json.dumps(number_documents[name]))
    node(d)[key] = value
    f = tmp_path / "f.json"
    f.write_text(json.dumps(d))
    assert main(["check", "--in", str(f)]) == 2
    assert capsys.readouterr().err == f"error: {what}: not numeric\n"


@pytest.mark.parametrize("column", sorted(NUMBER_COLUMNS))
def test_cli_check_refuses_integers_beyond_the_float_range(tmp_path, capsys, number_documents,
                                                          column):
    # numpy raises OverflowError for 10**400 in a float array; it is no
    # finite number
    name, node, key, what = NUMBER_COLUMNS[column]
    d = json.loads(json.dumps(number_documents[name]))
    node(d)[key] = 10 ** 400
    f = tmp_path / "f.json"
    f.write_text(json.dumps(d))
    assert main(["check", "--in", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {what}: expected ") and err.endswith(" finite numbers\n"), err


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


def test_cli_refuses_a_polyhedron_face_listed_the_other_way(tmp_path, capsys):
    # one face reversed: both faces at each of its edges run the edge the
    # same way, which every command that loads the file refuses; every face
    # reversed still loads and projects
    P = random_polyhedron(np.random.default_rng(SPHERE_CLI_SEED), 8)
    d = fio.polyhedron_to_dict(P)
    d["faces"][0] = d["faces"][0][::-1]
    path, out = str(tmp_path / "p.json"), str(tmp_path / "out.json")
    fio.dump_json(d, path)
    capsys.readouterr()
    for command in ("check", "dual", "project"):
        argv = [command, "--in", path] + ([] if command == "check" else ["--out", out])
        assert main(argv) == 3
        assert "the same way" in capsys.readouterr().err
    d["faces"] = [f[::-1] for f in fio.polyhedron_to_dict(P)["faces"]]
    fio.dump_json(d, path)
    assert main(["check", "--in", path]) == 0
    assert main(["project", "--in", path, "--out", out]) == 0
    assert main(["check", "--in", out]) == 0


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


def test_cli_flip_reads_the_tolerance_scale(tmp_path, monkeypatch, capsys, tetrahedron):
    # flip validates at the scale of FLIPKIT_TOL, as check does: a segment
    # end moved by 5e-7 fails the 1e-7 abut tolerance, but not 100 times it
    d = fio.tiling_to_dict(project(tetrahedron, Side.LEFT))
    valid = tmp_path / "t.json"
    fio.dump_json(d, valid)
    edge = d["edges"][0]
    next(s for s in edge["segments"] if s["t1"] < edge["t_max"])["t1"] += 5e-7
    moved = tmp_path / "moved.json"
    fio.dump_json(d, moved)

    def run(command, path):
        out = str(tmp_path / "out.json")
        code = main([command, "--in", str(path)] + (["--out", out] if command == "flip" else []))
        return code, capsys.readouterr().err

    monkeypatch.delenv("FLIPKIT_TOL", raising=False)
    for command in ("check", "flip"):
        assert run(command, moved) == (3, "error: edge 0: segments do not abut\n"
                                       if command == "flip" else
                                       "error: 1 artifact(s) failed validation\n")
    monkeypatch.setenv("FLIPKIT_TOL", "100")
    assert run("check", moved) == (0, "")
    assert run("flip", moved) == (0, "")
    # a scale that is not a positive finite number exits 2, before any load
    for bad in ("abc", "-1", "nan"):
        monkeypatch.setenv("FLIPKIT_TOL", bad)
        code, err = run("flip", valid)
        assert code == 2 and err.startswith("error: FLIPKIT_TOL must be"), err


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
        return fuchsian.JacobianMatrix(np.zeros((surf.n, surf.n)))

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
