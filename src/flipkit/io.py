"""JSON persistence for polyhedra, tilings and solver configurations.

All writers emit canonical text: keys sorted, floats printed with 17
significant digits and a lowercase exponent, no insignificant whitespace.
Identical objects therefore serialize to identical bytes, and every float
round-trips exactly.
"""

import functools
import json

import numpy as np

from .errors import GeometryError, SchemaError
from .fuchsian import FuchsianConfig, HyperbolicAmbient, check_rays, genus2_group
from .polyhedra import from_vertices_and_faces, hull
from .tilings import BLACK, WHITE, FlippableTiling, Side, TilingEdges, TilingFaces

POLYHEDRON_SCHEMA = "polyhedron.v1"
TILING_SCHEMA = "tiling.v1"
FUCHSIAN_SCHEMA = "fuchsian.v1"
SOLUTION_SCHEMA = "solution.v1"


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
    """A list of plain floats (a vertex row, say) is one join; a list of
    plain dicts with one set of str keys (faces, edges, segments) sorts
    and quotes the keys once."""
    first = type(o[0]) if o else float
    if first is float and all(type(x) is float for x in o):
        return "[" + _float_text(o) + "]"
    if first is dict:
        keys = o[0].keys()
        if (all(type(d) is dict and d.keys() == keys for d in o)
                and all(type(k) is str for k in keys)):
            keys = sorted(keys)
            heads = [_json_str(k) + ":" for k in keys]
            return "[" + ",".join(
                "{" + ",".join([h + _EXACT.get(type(v), _render)(v)
                                for h, v in zip(heads, map(d.__getitem__, keys))]) + "}"
                for d in o) + "]"
    return "[" + ",".join(map(_render, o)) + "]"


def _float(x):
    text = _F17(x)
    if "n" in text:  # of the 17-digit forms, only "nan" and "inf" spell an n
        raise SchemaError("non-finite number in output")
    return text


def _dict(o):
    return "{" + ",".join(
        f"{_json_str(k) if type(k) is str else json.dumps(k)}:{_render(v)}"
        for k, v in sorted(o.items())) + "}"


_EXACT = {list: _list, tuple: _list, dict: _dict, str: _json_str, int: str,
          float: _float, bool: lambda b: "true" if b else "false",
          type(None): lambda _: "null"}
# the plain value a subclass or numpy value is rendered as, in order of test
_PLAIN = ((dict, dict), ((list, tuple), list), ((int, np.integer), int),
          ((float, np.floating), float), (str, str), (np.ndarray, np.ndarray.tolist))


def _float_text(xs):
    """Comma-joined plain floats, refused when one is not finite."""
    text = ",".join(map(_F17, xs))
    if "n" in text:  # of the 17-digit forms, only "nan" and "inf" spell an n
        raise SchemaError("non-finite number in output")
    return text


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


def _floats(rows, width, what):
    try:
        arr = np.array(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{what}: not numeric") from exc
    if arr.ndim != 2 or arr.shape[1] != width or not np.all(np.isfinite(arr)):
        raise SchemaError(f"{what}: expected rows of {width} finite numbers")
    return arr


def _finite_list(values, what):
    """A JSON list of finite numbers as a 1-D float array."""
    try:
        arr = np.array(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{what}: not numeric") from exc
    if arr.ndim != 1 or not np.all(np.isfinite(arr)):
        raise SchemaError(f"{what}: expected a list of finite numbers")
    return arr


# -- polyhedron.v1 -------------------------------------------------------------


def polyhedron_to_dict(P):
    return {
        "schema": POLYHEDRON_SCHEMA,
        "model": "S3",
        "vertices": [[float(x) for x in v] for v in P.vertices],
        "faces": [list(f) for f in P.faces],
    }


def polyhedron_from_dict(data):
    _require_keys(
        data, ("schema", "model", "vertices"), ("faces",), POLYHEDRON_SCHEMA
    )
    if data["schema"] != POLYHEDRON_SCHEMA:
        raise SchemaError(f"expected schema {POLYHEDRON_SCHEMA}")
    if data["model"] != "S3":
        raise SchemaError("only the S3 model is supported")
    verts = _floats(data["vertices"], 4, "vertices")
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
    ids = _indices(ids, len(verts), "faces").tolist()
    starts = np.cumsum(sizes) - sizes
    return from_vertices_and_faces(verts, [tuple(ids[a:a + k]) for a, k in zip(starts, sizes)])


# -- tiling.v1 -----------------------------------------------------------------


def _vertex_table(T, tol=1e-9):
    """The face corners of T, black faces first, merged where they round
    to one multiple of `tol`: the distinct corners in first-seen order,
    and the corner ids of each (color, face index)."""
    if not len(T.black) + len(T.white):
        return [], {}
    V = np.concatenate([T.black.vertices, T.white.vertices])
    _, first, inverse = np.unique(np.round(V / tol).astype(np.int64), axis=0,
                                  return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    ids = rank[inverse.reshape(-1)].tolist()
    offsets = np.concatenate([T.black.offsets, T.white.offsets[1:] + len(T.black.links)]).tolist()
    keys = [(c, i) for c in (BLACK, WHITE) for i in range(len(T.faces(c)))]
    return V[first[order]].tolist(), {k: ids[a:b] for k, a, b in zip(keys, offsets, offsets[1:])}


def _deck_list(decks):
    return None if decks is None else [None if d is None else np.asarray(d).tolist()
                                       for d in decks]


def tiling_to_dict(T):
    pts, fv = _vertex_table(T)
    # canonical face order: by color, then least vertex-table index
    order = {c: sorted(range(len(T.faces(c))), key=lambda i: (min(fv[c, i]), fv[c, i]))
             for c in (BLACK, WHITE)}
    rank = {c: np.argsort(order[c]) for c in (BLACK, WHITE)}  # each face's new index

    faces_out = []
    for color, other in ((BLACK, WHITE), (WHITE, BLACK)):
        F = T.faces(color)
        offsets, decked, tags = F.offsets.tolist(), F.decked.tolist(), F.tags()
        links = rank[other][F.links].tolist()
        refs = [None if e < 0 else e for e in F.edge_refs.tolist()]
        angles = [None if a != a else a for a in F.digon_angle.tolist()]
        faces_out += [{"color": color, "vertices": fv[color, i], "links": links[a:b],
                       "edge_refs": refs[a:b], "digon_angle": angles[i],
                       "decks": _deck_list(tags[a:b]) if decked[i] else None}
                      for i in order[color] for a, b in [offsets[i:i + 2]]]

    E = T.edges
    # the segments' faces renumbered by the new indices, black faces first
    face = np.concatenate([rank[BLACK], rank[WHITE]])
    face = face[E.face + np.where(E.black, 0, len(T.black))]
    decks = [None] * E.t0.size if E.decks is None else _deck_list(
        [g for tags in E.decks for g in tags])
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
    """A JSON list of objects, each with the given fields."""
    if not isinstance(items, list):
        raise SchemaError(f"{what}s: expected a list")
    every = set(required) | set(optional)
    for item in items:
        if type(item) is not dict or item.keys() != every:
            _require_keys(item, required, optional, what)
    return items


def _enum(values, allowed, what):
    try:
        ok = set(values) <= set(allowed)
    except TypeError:  # an unhashable value
        ok = False
    if not ok:
        raise SchemaError(f"{what} must be {' or '.join(allowed)}")


def _lists(values, what):
    """A JSON list of JSON lists, flattened, with the length of each."""
    if not (isinstance(values, list) and all(isinstance(v, list) for v in values)):
        raise SchemaError(f"{what}: expected a list")
    return [x for v in values for x in v], np.array([len(v) for v in values], dtype=int)


def _indices(values, bound, what, nullable=False):
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


def _decks(tags, what):
    """Deck tags, each null or a 3x3 matrix of finite numbers, the matrices
    as rows of one array."""
    mats = [d for d in tags if d is not None]
    if not mats:
        return list(tags)
    try:
        arr = np.array(mats, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{what}: not numeric") from exc
    if arr.shape[1:] != (3, 3) or not np.all(np.isfinite(arr)):
        raise SchemaError(f"{what}: expected 3x3 matrices of finite numbers")
    rows = iter(arr)
    return [None if d is None else next(rows) for d in tags]


def _check_vertices(verts, ops, what="tiling vertex {}"):
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


def _check_tangents(base, direction, ops):
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


def tiling_from_dict(data):
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
        ambient = HyperbolicAmbient(_shared_group(), _floats(amb["rays"], 3, "ambient rays"))
    verts = _floats(data["vertices"], 3, "vertices")

    faces = _objects(data["faces"], ("color", "vertices", "links", "edge_refs"),
                     ("digon_angle", "decks"), "face")
    edges = _objects(data["edges"], ("base", "direction", "t_min", "t_max", "segments"),
                     (), "edge")
    if not all(isinstance(ed["segments"], list) and len(ed["segments"]) == 4
               for ed in edges):
        raise SchemaError("edge: expected four segments")
    segs = _objects([sd for ed in edges for sd in ed["segments"]],
                    ("side", "position", "color", "face", "face_edge", "reversed",
                     "t0", "t1"), ("deck",), "segment")

    _enum([fd["color"] for fd in faces], (BLACK, WHITE), "face color")
    black = np.array([fd["color"] == BLACK for fd in faces], dtype=bool)
    count = {BLACK: int(black.sum()), WHITE: int((~black).sum())}
    ids, sizes = _lists([fd["vertices"] for fd in faces], "face vertices")
    ids = _indices(ids, len(verts), "face vertices")
    digon = [fd.get("digon_angle") for fd in faces]
    is_digon = np.array([a is not None for a in digon], dtype=bool)
    if np.any(np.where(is_digon, sizes != 2, sizes < 3)):
        raise SchemaError("face: a digon has two vertices, a polygon at least three")
    angles = np.full(len(faces), np.nan)
    angles[is_digon] = _finite_list([a for a in digon if a is not None], "digon angles")
    links, n_links = _lists([fd["links"] for fd in faces], "face links")
    refs, n_refs = _lists([fd["edge_refs"] for fd in faces], "face edge_refs")
    decks = [fd.get("decks") for fd in faces]
    tags, n_decks = _lists([d for d in decks if d is not None], "face decks")
    if not (np.array_equal(n_links, sizes) and np.array_equal(n_refs, sizes)
            and np.array_equal(n_decks, sizes[[d is not None for d in decks]])):
        raise SchemaError("face: links, edge_refs and decks need one entry per vertex")
    links = _indices(links, np.repeat(np.where(black, count[WHITE], count[BLACK]), sizes),
                     "face links")
    refs = _indices(refs, len(edges), "face edge_refs", nullable=True)
    if np.any(refs[np.repeat(is_digon, sizes)] < 0):
        raise SchemaError("face: a digon lies on two tiling edges")
    decked = np.array([d is not None for d in decks], dtype=bool)
    tags = iter(_decks(tags, "face decks"))
    tags = [next(tags) if d else None for d in np.repeat(decked, sizes).tolist()]

    _enum([sd["side"] for sd in segs], ("left", "right"), "segment side")
    _enum([sd["position"] for sd in segs], ("forward", "backward"), "segment position")
    _enum([sd["color"] for sd in segs], (BLACK, WHITE), "segment color")
    seg_black = np.array([sd["color"] == BLACK for sd in segs], dtype=bool)
    if np.any(seg_black.reshape(-1, 4).sum(axis=1) != 2):
        raise SchemaError("edge: expected two black and two white segments")
    face = _indices([sd["face"] for sd in segs],
                    np.where(seg_black, count[BLACK], count[WHITE]), "segment face")
    bound = np.zeros(len(segs), dtype=int)
    bound[seg_black] = sizes[black][face[seg_black]]
    bound[~seg_black] = sizes[~black][face[~seg_black]]
    face_edge = _indices([sd["face_edge"] for sd in segs], bound, "segment face_edge")
    if not {type(sd["reversed"]) for sd in segs} <= {bool}:
        raise SchemaError("segment reversed: expected true or false")
    t0 = _finite_list([sd["t0"] for sd in segs], "segment t0")
    t1 = _finite_list([sd["t1"] for sd in segs], "segment t1")
    seg_decks = _decks([sd.get("deck") for sd in segs], "segment deck")
    if edges:
        base = _floats([ed["base"] for ed in edges], 3, "edge base")
        direction = _floats([ed["direction"] for ed in edges], 3, "edge direction")
    else:
        base = direction = np.empty((0, 3))
    t_min = _finite_list([ed["t_min"] for ed in edges], "edge t_min")
    t_max = _finite_list([ed["t_max"] for ed in edges], "edge t_max")
    if ambient != "sphere" and len(ambient.rays) != count[BLACK]:
        raise SchemaError("ambient rays: expected one ray per black face")

    # each color's faces (mask m) and their corner rows, in file order
    black_faces, white_faces = (
        TilingFaces.stacked(verts[ids[rows]], sizes[m], links[rows], refs[rows], angles[m],
                            [tags[r] for r in np.flatnonzero(rows)], decked[m])
        for m, rows in ((m, np.repeat(m, sizes)) for m in (black, ~black)))
    left = np.array([sd["side"] == "left" for sd in segs], dtype=bool)
    forward = np.array([sd["position"] == "forward" for sd in segs], dtype=bool)
    rev = np.array([sd["reversed"] for sd in segs], dtype=bool)
    tiling_edges = TilingEdges(
        base, direction, t_min, t_max,
        *(c.reshape(-1, 4) for c in (left, forward, seg_black, face, face_edge, rev, t0, t1)),
        None if all(d is None for d in seg_decks) else [
            tuple(seg_decks[i:i + 4]) for i in range(0, len(seg_decks), 4)])
    T = FlippableTiling(handedness, black_faces, white_faces, tiling_edges, ambient=ambient)
    _check_vertices(verts, T.ops)
    _check_vertices(base, T.ops, "base of tiling edge {}")
    _check_tangents(base, direction, T.ops)
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
    rays = _floats([rd["p"] for rd in data["rays"]], 3, "rays")
    heights = data.get("heights")
    targets = data.get("targets")
    if heights is None and targets is None:
        raise SchemaError("fuchsian config needs heights or targets")
    if type(data.get("word_len_cap", 0)) is not int:
        raise SchemaError("word_len_cap: expected an integer")
    return FuchsianConfig(
        _shared_group(),
        rays,
        None if heights is None else _finite_list(heights, "heights"),
        None if targets is None else _finite_list(targets, "targets"),
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
    -0.0, is read back as that float."""
    return -0.0 if text == "-0" else int(text)


def load_json(path):
    """The JSON value in a file; an unreadable, undecodable, malformed or
    too deeply nested one is a SchemaError."""
    try:
        with open(path) as fh:
            return json.load(fh, parse_int=_json_int)
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
