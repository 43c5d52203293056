"""JSON persistence for polyhedra, tilings and solver configurations.

All writers emit canonical text: keys sorted, floats printed with 17
significant digits and a lowercase exponent, no insignificant whitespace.
Identical objects therefore serialize to identical bytes, and every float
round-trips exactly.
"""

import functools
import itertools
import json
import math
import operator
import re

import numpy as np

from .errors import GeometryError, SchemaError
from .fuchsian import FuchsianConfig, HyperbolicAmbient, check_rays, genus2_group
from .polyhedra import from_vertices_and_faces, hull
from .tilings import BLACK, WHITE, FlippableTiling, Side, TilingEdges, TilingFaces

POLYHEDRON_SCHEMA = "polyhedron.v1"
TILING_SCHEMA = "tiling.v1"
FUCHSIAN_SCHEMA = "fuchsian.v1"
SOLUTION_SCHEMA = "solution.v1"
VERTEX_GRID = 1e-9  # tiling corners that round to one multiple of this share a vertex


@functools.cache
def _shared_group():
    """The genus-2 group of every loaded tiling and configuration: one per
    process, so the balls it caches are built once."""
    return genus2_group()


_json_str = functools.lru_cache(maxsize=4096)(json.dumps)  # called on str only
_F17 = "{:.17g}".format


def canonical_json(obj):
    """Deterministic JSON text with 17-significant-digit floats."""
    return _render(obj)


def _render(o):
    """Dispatch on the exact type first; subclasses and numpy values come
    last, as the plain value they stand for."""
    exact = _EXACT.get(type(o))
    if exact is not None:
        return exact(o)
    for types, plain in _PLAIN:
        if isinstance(o, types):
            return _render(plain(o))
    raise SchemaError(f"cannot serialize {type(o)!r}")


def _list(o):
    """A list or tuple, its items rendered as one column (`_template`), in
    one `%` call; after any failure there, item by item, so that the error
    raised is the first in document order."""
    try:
        template, args, _ = _template(o)
        return "[" + ",".join([template] * len(o)) % tuple(args) + "]"
    except Exception:
        return "[" + ",".join(map(_render, o)) + "]"


def _template(values):
    """The `%` template of one item of a column, its arguments and their
    count per item: `template % args[i * count:(i + 1) * count]` is the
    text of values[i].  Floats render as `%.17g` and exact ints as `%d`
    (so a bool never reads as a number); other plain values as their text
    through `%s`.  Lists of one length and plain dicts with one nonempty
    set of str keys (faces, edges, segments) compose their items' or keys'
    columns into one template.  A column that no template expresses takes
    its texts through `%s` (`_texts`): floats whose sum is not finite, so
    that a non-finite one is refused, lists of unequal lengths, and any
    other column."""
    kinds = set(map(type, values))
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind is float and math.isfinite(sum(values)):
        return "%.17g", values, 1
    if kind is int:
        return "%d", values, 1
    if kind is list or kind is tuple:
        lengths = set(map(len, values))
        if len(lengths) == 1:
            template, args, count = _template(list(itertools.chain.from_iterable(values)))
            k = lengths.pop()
            return "[" + ",".join([template] * k) + "]", args, count * k
    elif kind is dict:
        keys = values[0].keys()
        if keys and all(map(keys.__eq__, map(dict.keys, values))) and all(
                type(k) is str for k in keys):
            keys = sorted(keys)
            columns = [_template([d[k] for d in values]) for k in keys]
            template = "{" + ",".join(_json_str(k).replace("%", "%%") + ":" + t
                                      for k, (t, _, _) in zip(keys, columns)) + "}"
            # each item's arguments, key after key
            rows = zip(*(zip(*[iter(args)] * count) if count else itertools.repeat((), len(values))
                         for _, args, count in columns))
            args = list(itertools.chain.from_iterable(itertools.chain.from_iterable(rows)))
            return template, args, sum(count for *_, count in columns)
    return "%s", _texts(values, kind), 1


def _texts(values, kind):
    """The text of each of `values`, all of the type `kind` (None for a mix):
    floats refused when one is not finite; lists through the template of
    their items in one `%` call and regrouped; any other column value by
    value."""
    if kind is float:
        texts = list(map(_F17, values))
        if "n" in "".join(texts):  # of the 17-digit forms, only "nan" and "inf" spell an n
            raise SchemaError("non-finite number in output")
        return texts
    if kind in _PLAIN_TEXT:
        return list(map(_PLAIN_TEXT[kind], values))
    if kind is list or kind is tuple:
        template, args, _ = _template(list(itertools.chain.from_iterable(values)))
        # "\0" never occurs in canonical text, which escapes every control
        # character, so it can part the items of one rendering
        rows = "\0".join("[" + ",".join([template] * len(v)) + "]" for v in values)
        return (rows % tuple(args)).split("\0")
    return list(map(_render, values))


def _dict(o):
    return "{" + ",".join(
        f"{_json_str(k) if type(k) is str else json.dumps(k)}:{_render(v)}"
        for k, v in sorted(o.items())) + "}"


_PLAIN_TEXT = {str: _json_str, int: str, bool: {True: "true", False: "false"}.__getitem__,
               type(None): lambda _: "null"}
_EXACT = {list: _list, tuple: _list, dict: _dict, float: lambda x: _texts([x], float)[0],
          **_PLAIN_TEXT}
# the plain value a subclass or numpy value is rendered as, in order of test
_PLAIN = ((dict, dict), ((list, tuple), list), ((int, np.integer), int),
          ((float, np.floating), float), (str, str), (np.ndarray, np.ndarray.tolist))


def _require_keys(data, required, optional=(), what="object"):
    if not isinstance(data, dict):
        raise SchemaError(f"{what}: expected a JSON object")
    keys = set(data)
    missing = set(required) - keys
    if missing:
        raise SchemaError(f"{what}: missing fields {sorted(missing)}")
    unknown = keys - set(required) - set(optional)
    if unknown:
        raise SchemaError(f"{what}: unknown fields {sorted(unknown)}")


def _numbers(values, what):
    """Refuse JSON true, false and strings among numbers, which numpy reads
    as 1.0, 0.0 and the number a string spells: one type scan of a
    flattened column."""
    if {bool, str} & set(map(type, values)):
        raise SchemaError(f"{what}: not numeric")


def _finite(arr):
    """Whether every entry of a float array is finite."""
    return np.count_nonzero(np.isfinite(arr)) == arr.size


def _floats(values, what, shape=(), expected="a list of finite numbers"):
    """A JSON list of numbers, or of rows or matrices of them, as a float
    array of items of `shape`.  SchemaError "{what}: expected {expected}"
    for another shape, a number that is not finite and an integer beyond
    the float range; "{what}: not numeric" for a value that numpy cannot
    read as a number, and for JSON true, false and strings, which it can.
    Lists of plain floats and integers nested as `shape`, the common case,
    take one `fromiter`."""
    finite = f"{what}: expected {expected}"
    flat = values if isinstance(values, (list, tuple)) else [None]
    for width in shape:  # one level of nesting at a time; [None] for another shape
        nested = set(map(type, flat)) == {list} and set(map(len, flat)) == {width}
        flat = list(itertools.chain.from_iterable(flat)) if nested else [None]
    arr = None
    if set(map(type, flat)) <= {float, int}:
        try:
            arr = np.fromiter(flat, float, len(flat)).reshape(-1, *shape)
        except OverflowError:  # read as np.array reads it, below
            pass
    plain = arr is not None
    if not plain:
        try:
            arr = np.array(values, dtype=float)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"{what}: not numeric") from exc
        except OverflowError as exc:  # an integer beyond the float range
            raise SchemaError(finite) from exc
    if arr.ndim != len(shape) + 1 or arr.shape[1:] != shape or not _finite(arr):
        raise SchemaError(finite)
    if not plain:
        for _ in shape:
            values = itertools.chain.from_iterable(values)
        _numbers(values, what)
    return arr


# -- polyhedron.v1 -------------------------------------------------------------


def polyhedron_to_dict(P):
    ids = iter(P.face_ids.tolist())
    return {
        "schema": POLYHEDRON_SCHEMA,
        "model": "S3",
        "vertices": P.vertices.tolist(),
        "faces": [list(itertools.islice(ids, k)) for k in P.sizes.tolist()],
    }


def polyhedron_from_dict(data):
    _require_keys(
        data, ("schema", "model", "vertices"), ("faces",), POLYHEDRON_SCHEMA
    )
    if data["schema"] != POLYHEDRON_SCHEMA:
        raise SchemaError(f"expected schema {POLYHEDRON_SCHEMA}")
    if data["model"] != "S3":
        raise SchemaError("only the S3 model is supported")
    verts = _floats(data["vertices"], "vertices", (4,), "rows of 4 finite numbers")
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(verts, axis=1)
    scalable = (norms > 0) & (norms < np.inf)  # rows that normalize to points of S3
    if not np.all(scalable):
        raise GeometryError(f"polyhedron vertex {int(np.argmin(scalable))} has no finite "
                            "nonzero length")
    faces = data.get("faces")
    if faces is None:
        return hull(verts)
    ids, sizes = _lists(faces, "faces")
    if np.any(sizes < 3):
        raise SchemaError("faces: a face has at least three vertices")
    return from_vertices_and_faces(verts, _indices(ids, len(verts), "faces"), sizes)


# -- tiling.v1 -----------------------------------------------------------------


def _vertex_table(T):
    """The face corners of T, black faces first, merged where they round
    to one multiple of VERTEX_GRID: the distinct corners in first-seen
    order, and the corner ids of each (color, face index)."""
    if not len(T.black) + len(T.white):
        return [], {}
    V = np.concatenate([T.black.vertices, T.white.vertices])
    grid = np.round(V / VERTEX_GRID).astype(np.int64)
    # the corners by grid point in a stable sort: each run is one vertex,
    # first seen at the head of its run
    order = np.lexsort(grid.T)
    head = np.concatenate([[True], (grid[order[1:]] != grid[order[:-1]]).any(axis=1)])
    first = order[head]
    ids = np.empty(len(V), dtype=np.intp)
    ids[order] = np.argsort(np.argsort(first))[np.cumsum(head) - 1]
    ids = ids.tolist()
    offsets = np.concatenate([T.black.offsets, T.white.offsets[1:] + len(T.black.links)]).tolist()
    keys = [(c, i) for c in (BLACK, WHITE) for i in range(len(T.faces(c)))]
    return V[np.sort(first)].tolist(), {k: ids[a:b] for k, a, b in zip(keys, offsets, offsets[1:])}


def _tag_list(decks, tagged):
    """The deck tags as the file writes them: a nested list per tagged
    matrix, null for the others."""
    mats = iter(decks[tagged].tolist())
    return [next(mats) if t else None for t in tagged.tolist()]


def tiling_to_dict(T):
    pts, fv = _vertex_table(T)
    # canonical face order: by color, then least vertex-table index
    order = {c: sorted(range(len(T.faces(c))), key=lambda i: (min(fv[c, i]), fv[c, i]))
             for c in (BLACK, WHITE)}
    rank = {c: np.argsort(order[c]) for c in (BLACK, WHITE)}  # each face's new index

    faces_out = []
    for color, other in ((BLACK, WHITE), (WHITE, BLACK)):
        F = T.faces(color)
        offsets, decked = F.offsets.tolist(), F.decked.tolist()
        tags = _tag_list(F.decks, F.tagged)
        links = rank[other][F.links].tolist()
        refs = [None if e < 0 else e for e in F.edge_refs.tolist()]
        angles = [None if a != a else a for a in F.digon_angle.tolist()]
        faces_out += [{"color": color, "vertices": fv[color, i], "links": links[a:b],
                       "edge_refs": refs[a:b], "digon_angle": angles[i],
                       "decks": tags[a:b] if decked[i] else None}
                      for i in order[color] for a, b in [offsets[i:i + 2]]]

    E = T.edges
    # the segments' faces renumbered by the new indices, black faces first
    face = np.concatenate([rank[BLACK], rank[WHITE]])
    face = face[E.face + np.where(E.black, 0, len(T.black))]
    decks = _tag_list(E.decks.reshape(-1, 3, 3), E.tagged.ravel())
    segments = [
        {"side": "left" if lf else "right", "position": "forward" if fw else "backward",
         "color": BLACK if bk else WHITE, "face": f, "face_edge": k, "reversed": rv,
         "t0": a, "t1": b, "deck": dk}
        for lf, fw, bk, f, k, rv, a, b, dk in zip(
            *(c.ravel().tolist() for c in (E.left, E.forward, E.black, face, E.face_edge,
                                           E.reversed, E.t0, E.t1)), decks)
    ]
    edges_out = [
        {"base": b, "direction": d, "t_min": lo, "t_max": hi,
         "segments": segments[4 * e:4 * e + 4]}
        for e, (b, d, lo, hi) in enumerate(zip(E.base.tolist(), E.direction.tolist(),
                                               E.t_min.tolist(), E.t_max.tolist()))
    ]

    if T.is_spherical:
        ambient = "sphere"
    else:
        ambient = {
            "type": "hyperbolic",
            "genus": int(T.ambient.group.genus),
            "rays": [[float(x) for x in p] for p in T.ambient.rays],
            # kept for format compatibility, at their former defaults;
            # nothing reads them
            "word_length": 4,
            "word_length_cap": 10,
        }
    return {
        "schema": TILING_SCHEMA,
        "handedness": T.handedness.value,
        "ambient": ambient,
        "vertices": pts,
        "faces": faces_out,
        "edges": edges_out,
    }


def _objects(items, required, optional, what):
    """A JSON list of objects, each with the given fields, as one column
    (a tuple) per field, `required` then `optional`; an optional field
    left out reads as null.  Plain dicts holding exactly the fields, the
    common case, are read in one pass."""
    if not isinstance(items, list):
        raise SchemaError(f"{what}s: expected a list")
    fields = required + optional
    if set(map(type, items)) <= {dict} and set(map(len, items)) <= {len(fields)}:
        try:  # every field present and no other, as the counts agree
            return list(zip(*map(operator.itemgetter(*fields), items))) or [()] * len(fields)
        except KeyError:
            pass
    every = set(fields)
    for item in items:
        if type(item) is not dict or item.keys() != every:
            _require_keys(item, required, optional, what)
    return [tuple(item.get(k) for item in items) for k in fields]


def _enum(values, allowed, what):
    """Refuse a value not in the two `allowed`; whether each is the first."""
    try:
        return np.fromiter(map(dict(zip(allowed, (True, False))).__getitem__, values), bool,
                           len(values))
    except (KeyError, TypeError):  # TypeError: an unhashable value
        raise SchemaError(f"{what} must be {' or '.join(allowed)}") from None


def _given(values):
    """Whether each of a column is not null."""
    if values.count(None) == len(values):
        return np.zeros(len(values), dtype=bool)
    return np.array([v is not None for v in values], dtype=bool)


def _lists(values, what):
    """A JSON list of JSON lists, flattened, with the length of each."""
    if not (isinstance(values, list) and (set(map(type, values)) <= {list}
                                          or all(isinstance(v, list) for v in values))):
        raise SchemaError(f"{what}: expected a list")
    return (list(itertools.chain.from_iterable(values)),
            np.fromiter(map(len, values), int, len(values)))


def _indices(values, bound, what, nullable=False):
    """JSON integer indices in [0, bound) as an int array; `bound` is one
    number or one per index, and null (read as -1) is allowed if
    `nullable`.  A list of plain integers, the common case, takes one
    `fromiter`."""
    null = None
    if nullable and None in values:
        null = ~_given(values)
        values = [-1 if i is None else i for i in values]
    arr = None
    if set(map(type, values)) <= {int}:
        try:
            arr = np.fromiter(values, np.int64, len(values))
        except OverflowError:  # read as np.array reads it, below
            pass
    if arr is None:
        try:
            arr = np.array(values)
        except ValueError:  # lists nested to uneven depths
            arr = None
        if (arr is None or arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu")
                or bool in set(map(type, values))):  # numpy reads [true, 1] as integers
            raise SchemaError(f"{what}: expected integer indices")
        arr = arr.astype(np.int64)
    bad = (arr < 0) | (arr >= bound)
    if np.count_nonzero(bad if null is None else bad & ~null):
        raise SchemaError(f"{what}: index out of range")
    return arr


def _decks(tags, what):
    """Deck tags, each null or a 3x3 matrix of finite numbers: the (m, 3, 3)
    matrices, the identity for null, and the (m,) flags of the others."""
    tagged = _given(tags)
    decks = np.full((len(tags), 3, 3), np.eye(3))
    if np.count_nonzero(tagged):
        decks[tagged] = _floats([d for d in tags if d is not None], what, (3, 3),
                                "3x3 matrices of finite numbers")
    return decks, tagged


def _check_geometry(verts, base, direction, ops):
    """Refuse a tiling vertex or edge base v off the surface quadric `ops`:
    |<v, v> - kappa| > 1e-9 |v|^2, with |.| the Euclidean norm; |v|^2 >= 1e9,
    where that tolerance reaches |kappa| and no longer tells the quadric
    from its light cone; or a time-like coordinate that is not positive
    (the lower sheet of the hyperboloid).  Then refuse an edge direction d
    that is not a unit tangent at its base b: |<d, d> - 1| > 1e-9 |d|^2 or
    |<b, d>| > 1e-9 |b| |d|.  The first failure, vertices before bases
    before directions, is a GeometryError."""
    form = ops.form
    dot = not np.count_nonzero(form != 1)  # <u, v> is the dot product, its sums taken once
    points = np.concatenate([verts, base])
    with np.errstate(over="ignore", invalid="ignore"):
        n2 = np.einsum("ij,ij->i", points, points)
        q = n2 if dot else np.einsum("ij,ij->i", points * form, points)
        on = (np.abs(q - ops.kappa) <= 1e-9 * n2) & (n2 < 1e9)
        timelike = form < 0
        if np.count_nonzero(timelike):
            on &= (points[:, timelike] > 0).all(axis=1)
        dd = np.einsum("ij,ij->i", direction, direction)
        unit = dd if dot else np.einsum("ij,ij->i", direction * form, direction)
        across = np.einsum("ij,ij->i", base if dot else base * form, direction)
        ok = ((np.abs(unit - 1.0) <= 1e-9 * dd)
              & (np.abs(across) <= 1e-9 * np.sqrt(n2[len(verts):] * dd)))
    if np.count_nonzero(on) < len(on):
        i = int(np.argmin(on))
        what = (f"tiling vertex {i}" if i < len(verts)
                else f"base of tiling edge {i - len(verts)}")
        raise GeometryError(f"{what} is not on the {ops.name}")
    if np.count_nonzero(ok) < len(ok):
        raise GeometryError(f"tiling edge {int(np.argmin(ok))} direction is not a unit "
                            "tangent at its base")


def tiling_from_dict(data):
    """A tiling from a `tiling.v1` dict, its structure checked first: enum
    values, index ranges, four segments (two of each color) per edge, one
    ambient ray per black face and the shapes of all arrays, so that a
    malformed file is a SchemaError and the tiling code can index without
    guards.  Then its geometry is checked: every vertex and edge base on
    its quadric, every edge direction a unit tangent at its base and every
    ambient ray as in `fuchsian.check_rays` (GeometryError).  Each field
    of the faces, edges and segments is read once, as one column, and
    every check runs on the columns."""
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
        rays = _floats(amb["rays"], "ambient rays", (3,), "rows of 3 finite numbers")
        ambient = HyperbolicAmbient(_shared_group(), rays)
    verts = _floats(data["vertices"], "vertices", (3,), "rows of 3 finite numbers")

    colors, vertex_ids, links, refs, digon, decks = _objects(
        data["faces"], ("color", "vertices", "links", "edge_refs"), ("digon_angle", "decks"),
        "face")
    base, direction, t_min, t_max, quads = _objects(
        data["edges"], ("base", "direction", "t_min", "t_max", "segments"), (), "edge")
    if not ((set(map(type, quads)) <= {list} and set(map(len, quads)) <= {4})
            or all(isinstance(q, list) and len(q) == 4 for q in quads)):
        raise SchemaError("edge: expected four segments")
    side, position, seg_colors, face, face_edge, rev, t0, t1, seg_decks = _objects(
        list(itertools.chain.from_iterable(quads)),
        ("side", "position", "color", "face", "face_edge", "reversed", "t0", "t1"), ("deck",),
        "segment")

    black = _enum(colors, (BLACK, WHITE), "face color")
    nb = int(np.count_nonzero(black))
    nw = len(black) - nb
    ids, sizes = _lists(list(vertex_ids), "face vertices")
    ids = _indices(ids, len(verts), "face vertices")
    is_digon = _given(digon)
    if np.count_nonzero(np.where(is_digon, sizes != 2, sizes < 3)):
        raise SchemaError("face: a digon has two vertices, a polygon at least three")
    angles = np.full(len(colors), np.nan)
    angles[is_digon] = _floats([a for a in digon if a is not None], "digon angles")
    links, n_links = _lists(list(links), "face links")
    refs, n_refs = _lists(list(refs), "face edge_refs")
    decked = _given(decks)
    _, n_decks = _lists([d for d in decks if d is not None], "face decks")
    if (np.count_nonzero(n_links != sizes) or np.count_nonzero(n_refs != sizes)
            or np.count_nonzero(n_decks != sizes[decked])):
        raise SchemaError("face: links, edge_refs and decks need one entry per vertex")
    links = _indices(links, np.repeat(np.where(black, nw, nb), sizes), "face links")
    refs = _indices(refs, len(quads), "face edge_refs", nullable=True)
    if np.count_nonzero(refs[np.repeat(is_digon, sizes)] < 0):
        raise SchemaError("face: a digon lies on two tiling edges")
    # the corners of a face with no list of tags are untagged
    tags, tagged = _decks([g for d, k in zip(decks, sizes.tolist()) for g in d or [None] * k]
                          if np.count_nonzero(decked) else (None,) * len(ids), "face decks")

    left = _enum(side, ("left", "right"), "segment side")
    forward = _enum(position, ("forward", "backward"), "segment position")
    seg_black = _enum(seg_colors, (BLACK, WHITE), "segment color")
    if np.count_nonzero(seg_black.reshape(-1, 4).sum(axis=1) != 2):
        raise SchemaError("edge: expected two black and two white segments")
    face = _indices(face, np.where(seg_black, nb, nw), "segment face")
    # the faces by color, black first, each color in file order
    by_color = np.argsort(~black, kind="stable")
    face_edge = _indices(face_edge, sizes[by_color[face + np.where(seg_black, 0, nb)]],
                         "segment face_edge")
    if not set(map(type, rev)) <= {bool}:
        raise SchemaError("segment reversed: expected true or false")
    t0 = _floats(t0, "segment t0")
    t1 = _floats(t1, "segment t1")
    seg_decks, seg_tagged = _decks(seg_decks, "segment deck")
    if ambient == "sphere" and (np.count_nonzero(decked) or np.count_nonzero(seg_tagged)):
        raise SchemaError("a spherical tiling carries no deck tags: face decks and "
                          "segment decks must be null")
    if quads:
        base = _floats(list(base), "edge base", (3,), "rows of 3 finite numbers")
        direction = _floats(list(direction), "edge direction", (3,), "rows of 3 finite numbers")
    else:
        base = direction = np.empty((0, 3))
    t_min = _floats(t_min, "edge t_min")
    t_max = _floats(t_max, "edge t_max")
    if ambient != "sphere" and len(ambient.rays) != nb:
        raise SchemaError("ambient rays: expected one ray per black face")

    # the corners in the order of their faces, black faces first; each
    # color's table takes its part of every column
    rows = np.argsort(np.repeat(~black, sizes), kind="stable")
    offsets = np.concatenate([[0], np.cumsum(sizes[by_color])])
    vertices, links, refs, tags, tagged = (c[rows] for c in (verts[ids], links, refs, tags, tagged))
    angles, decked = angles[by_color], decked[by_color]
    cut = int(offsets[nb])
    black_faces, white_faces = (
        TilingFaces(vertices[r], offsets[o] - offsets[o][0], links[r], refs[r], angles[f],
                    decked[f], tags[r], tagged[r])
        for f, o, r in ((slice(nb), slice(nb + 1), slice(cut)),
                        (slice(nb, None), slice(nb, None), slice(cut, None))))
    tiling_edges = TilingEdges(
        base, direction, t_min, t_max,
        *(c.reshape(-1, 4) for c in (left, forward, seg_black, face, face_edge,
                                     np.array(rev, dtype=bool), t0, t1)),
        seg_decks.reshape(-1, 4, 3, 3), seg_tagged.reshape(-1, 4))
    T = FlippableTiling(handedness, black_faces, white_faces, tiling_edges, ambient=ambient)
    _check_geometry(verts, base, direction, T.ops)
    if not T.is_spherical:
        check_rays(ambient.group, ambient.rays)
    return T


# -- fuchsian.v1 ----------------------------------------------------------------


def fuchsian_config_to_dict(cfg, labels=None):
    """`fuchsian.v1` dict; `word_len_cap` is written, as 10, for format
    compatibility and no longer affects the hull."""
    out = {
        "schema": FUCHSIAN_SCHEMA,
        "genus": int(cfg.group.genus),
        "rays": [
            {
                "p": [float(x) for x in p],
                "label": (labels[i] if labels else f"r{i}"),
            }
            for i, p in enumerate(cfg.rays)
        ],
        "word_len_cap": 10,
    }
    if cfg.heights is not None:
        out["heights"] = [float(h) for h in cfg.heights]
    if cfg.targets is not None:
        out["targets"] = [float(k) for k in cfg.targets]
    return out


def fuchsian_config_from_dict(data):
    """FuchsianConfig from a `fuchsian.v1` dict; an integer `word_len_cap`
    is accepted for format compatibility and ignored."""
    _require_keys(
        data,
        ("schema", "genus", "rays"),
        ("heights", "targets", "word_len_cap"),
        FUCHSIAN_SCHEMA,
    )
    if data["schema"] != FUCHSIAN_SCHEMA:
        raise SchemaError(f"expected schema {FUCHSIAN_SCHEMA}")
    if data["genus"] != 2:
        raise SchemaError("only genus 2 is supported (built-in octagon group)")
    if not isinstance(data["rays"], list):
        raise SchemaError("rays: expected a list")
    for rd in data["rays"]:
        _require_keys(rd, ("p",), ("label",), "ray")
    rays = _floats([rd["p"] for rd in data["rays"]], "rays", (3,), "rows of 3 finite numbers")
    heights = data.get("heights")
    targets = data.get("targets")
    if heights is None and targets is None:
        raise SchemaError("fuchsian config needs heights or targets")
    if type(data.get("word_len_cap", 0)) is not int:
        raise SchemaError("word_len_cap: expected an integer")
    return FuchsianConfig(
        _shared_group(),
        rays,
        None if heights is None else _floats(heights, "heights"),
        None if targets is None else _floats(targets, "targets"),
    )


def solution_to_dict(result):
    return {
        "schema": SOLUTION_SCHEMA,
        "heights": [float(h) for h in result["heights"]],
        "achieved_curvatures": [float(k) for k in result["achieved_curvatures"]],
        "residual": float(result["residual"]),
        "jacobian_condition": float(result["jacobian_condition"]),
        "iterations": int(result["iterations"]),
    }


# -- entry points ------------------------------------------------------------------


def _json_int(text):
    """A JSON integer; "-0", which the writer prints only for the float
    -0.0, is read back as that float.  Only a text in which `_NEG_ZERO`
    finds an integer -0 is parsed through this callback."""
    return -0.0 if text == "-0" else int(text)


# every integer -0 token of a JSON text, and a few texts that are not one
# (in a string, or the exponent of 1e-0)
_NEG_ZERO = re.compile(r"-0(?![0-9.eE])")


def load_json(path):
    """The JSON value in a file; an unreadable, undecodable, malformed or
    too deeply nested one is a SchemaError.  A text with no integer -0 is
    parsed by the C scanner alone; one with such a token (or with a text
    `_NEG_ZERO` mistakes for one) reads every integer through `_json_int`,
    so that -0 comes back as -0.0."""
    try:
        with open(path) as fh:
            text = fh.read()
        if _NEG_ZERO.search(text):
            return json.loads(text, parse_int=_json_int)
        return json.loads(text)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON or bytes
        raise SchemaError(f"cannot parse {path}: {exc}") from exc


def write_text(text, path):
    """Write `text` to a file; one that cannot be written is a SchemaError."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise SchemaError(f"cannot write {path}: {exc}") from exc


def dump_json(obj, path):
    text = canonical_json(obj) + "\n"
    write_text(text, path)
    return text


def load_any(path):
    """Dispatch on the schema tag; returns (kind, object)."""
    data = load_json(path)
    if not isinstance(data, dict) or "schema" not in data:
        raise SchemaError(f"{path}: missing schema tag")
    schema = data["schema"]
    if schema == POLYHEDRON_SCHEMA:
        return "polyhedron", polyhedron_from_dict(data)
    if schema == TILING_SCHEMA:
        return "tiling", tiling_from_dict(data)
    if schema == FUCHSIAN_SCHEMA:
        return "fuchsian", fuchsian_config_from_dict(data)
    raise SchemaError(f"{path}: unknown schema {schema!r}")
