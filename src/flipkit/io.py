"""JSON persistence for polyhedra, tilings and solver configurations.

All writers emit canonical text: keys sorted, floats printed with 17
significant digits and a lowercase exponent, no insignificant whitespace.
Identical objects therefore serialize to identical bytes, and every float
round-trips exactly.
"""

import json
import math

import numpy as np

from .errors import SchemaError
from .fuchsian import FuchsianConfig, HyperbolicAmbient, genus2_group
from .polyhedra import from_vertices_and_faces, hull
from .tilings import (
    BLACK,
    WHITE,
    EdgeSegment,
    FlippableTiling,
    Side,
    TilingEdge,
    TilingFace,
)

POLYHEDRON_SCHEMA = "polyhedron.v1"
TILING_SCHEMA = "tiling.v1"
FUCHSIAN_SCHEMA = "fuchsian.v1"
SOLUTION_SCHEMA = "solution.v1"


def _fmt_float(x):
    if math.isnan(x) or math.isinf(x):
        raise SchemaError("non-finite number in output")
    return format(float(x), ".17g")


def canonical_json(obj):
    """Deterministic JSON text with 17-significant-digit floats."""

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
            return _fmt_float(o)
        if o is None:
            return "null"
        if isinstance(o, str):
            return json.dumps(o)
        if isinstance(o, np.ndarray):
            return render(o.tolist())
        raise SchemaError(f"cannot serialize {type(o)!r}")

    return render(obj)


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
    faces = data.get("faces")
    if faces is None:
        return hull(verts)
    cycles = []
    for f in faces:
        cyc = [int(i) for i in f]
        if any(i < 0 or i >= len(verts) for i in cyc):
            raise SchemaError("face references a missing vertex")
        cycles.append(tuple(cyc))
    return from_vertices_and_faces(verts, cycles)


# -- tiling.v1 -----------------------------------------------------------------


def _vertex_table(T, tol=1e-9):
    pts = []
    index = {}

    def key(p):
        return tuple(np.round(p / tol).astype(np.int64).tolist())

    def lookup(p):
        k = key(p)
        if k in index:
            return index[k]
        pts.append([float(x) for x in p])
        index[k] = len(pts) - 1
        return index[k]

    face_vertex_ids = {}
    for color in (BLACK, WHITE):
        for fi, f in enumerate(T.faces(color)):
            face_vertex_ids[(color, fi)] = [lookup(p) for p in f.vertices]
    return pts, face_vertex_ids


def _deck_list(decks):
    if decks is None:
        return None
    return [None if d is None else [[float(x) for x in row] for row in d] for d in decks]


def tiling_to_dict(T):
    pts, fv = _vertex_table(T)
    # canonical face order: by color, then least vertex-table index
    order = {}
    for color in (BLACK, WHITE):
        idx = list(range(len(T.faces(color))))
        idx.sort(key=lambda i: (min(fv[(color, i)]), fv[(color, i)]))
        order[color] = idx
    rank = {
        color: {old: new for new, old in enumerate(order[color])}
        for color in (BLACK, WHITE)
    }

    faces_out = []
    for color in (BLACK, WHITE):
        other = WHITE if color == BLACK else BLACK
        for old in order[color]:
            f = T.faces(color)[old]
            faces_out.append(
                {
                    "color": color,
                    "vertices": fv[(color, old)],
                    "links": [rank[other][l] for l in f.links],
                    "edge_refs": list(f.edge_refs),
                    "digon_angle": f.digon_angle,
                    "decks": _deck_list(f.decks),
                }
            )

    edges_out = []
    for e in T.edges:
        edges_out.append(
            {
                "base": [float(x) for x in e.base],
                "direction": [float(x) for x in e.direction],
                "t_min": float(e.t_min),
                "t_max": float(e.t_max),
                "segments": [
                    {
                        "side": s.side.value,
                        "position": s.position,
                        "color": s.color,
                        "face": rank[s.color][s.face],
                        "face_edge": s.face_edge,
                        "reversed": s.reversed,
                        "t0": float(s.t0),
                        "t1": float(s.t1),
                        "deck": None
                        if s.deck is None
                        else [[float(x) for x in row] for row in s.deck],
                    }
                    for s in e.segments
                ],
            }
        )

    if T.is_spherical:
        ambient = "sphere"
    else:
        ambient = {
            "type": "hyperbolic",
            "genus": int(T.ambient.group.genus),
            "rays": [[float(x) for x in p] for p in T.ambient.rays],
            # kept for format compatibility; the hull no longer reads them
            "word_length": int(T.ambient.word_length),
            "word_length_cap": int(T.ambient.word_length_cap),
        }
    return {
        "schema": TILING_SCHEMA,
        "handedness": T.handedness.value,
        "ambient": ambient,
        "vertices": pts,
        "faces": faces_out,
        "edges": edges_out,
    }


def tiling_from_dict(data):
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
        width = 3
    else:
        _require_keys(
            amb,
            ("type", "genus", "rays"),
            ("word_length", "word_length_cap"),
            "ambient",
        )
        if amb["type"] != "hyperbolic" or int(amb["genus"]) != 2:
            raise SchemaError("only the built-in genus-2 hyperbolic ambient is supported")
        ambient = HyperbolicAmbient(
            genus2_group(),
            _floats(amb["rays"], 3, "ambient rays"),
            int(amb.get("word_length", 4)),
            int(amb.get("word_length_cap", 10)),
        )
        width = 3
    verts = _floats(data["vertices"], width, "vertices")

    black, white = [], []
    for fd in data["faces"]:
        _require_keys(
            fd,
            ("color", "vertices", "links", "edge_refs"),
            ("digon_angle", "decks"),
            "face",
        )
        color = fd["color"]
        if color not in (BLACK, WHITE):
            raise SchemaError("face color must be black or white")
        ids = [int(i) for i in fd["vertices"]]
        if any(i < 0 or i >= len(verts) for i in ids):
            raise SchemaError("face references a missing vertex")
        decks = fd.get("decks")
        if decks is not None:
            decks = tuple(
                None if d is None else np.array(d, dtype=float) for d in decks
            )
        face = TilingFace(
            color,
            verts[ids],
            tuple(int(x) for x in fd["links"]),
            tuple(None if r is None else int(r) for r in fd["edge_refs"]),
            digon_angle=fd.get("digon_angle"),
            decks=decks,
        )
        (black if color == BLACK else white).append(face)

    edges = []
    for ed in data["edges"]:
        _require_keys(
            ed, ("base", "direction", "t_min", "t_max", "segments"), (), "edge"
        )
        segs = []
        for sd in ed["segments"]:
            _require_keys(
                sd,
                ("side", "position", "color", "face", "face_edge", "reversed",
                 "t0", "t1"),
                ("deck",),
                "segment",
            )
            segs.append(
                EdgeSegment(
                    side=Side(sd["side"]),
                    position=sd["position"],
                    color=sd["color"],
                    face=int(sd["face"]),
                    face_edge=int(sd["face_edge"]),
                    reversed=bool(sd["reversed"]),
                    t0=float(sd["t0"]),
                    t1=float(sd["t1"]),
                    deck=None
                    if sd.get("deck") is None
                    else np.array(sd["deck"], dtype=float),
                )
            )
        edges.append(
            TilingEdge(
                np.array(ed["base"], dtype=float),
                np.array(ed["direction"], dtype=float),
                float(ed["t_min"]),
                float(ed["t_max"]),
                tuple(segs),
            )
        )
    return FlippableTiling(handedness, black, white, edges, ambient=ambient)


# -- fuchsian.v1 ----------------------------------------------------------------


def fuchsian_config_to_dict(cfg, labels=None):
    """`fuchsian.v1` dict; `word_len_cap` is written for format
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
        "word_len_cap": int(cfg.word_length_cap),
    }
    if cfg.heights is not None:
        out["heights"] = [float(h) for h in cfg.heights]
    if cfg.targets is not None:
        out["targets"] = [float(k) for k in cfg.targets]
    return out


def fuchsian_config_from_dict(data):
    """FuchsianConfig from a `fuchsian.v1` dict; `word_len_cap` is accepted
    for format compatibility and no longer affects the hull."""
    _require_keys(
        data,
        ("schema", "genus", "rays"),
        ("heights", "targets", "word_len_cap"),
        FUCHSIAN_SCHEMA,
    )
    if data["schema"] != FUCHSIAN_SCHEMA:
        raise SchemaError(f"expected schema {FUCHSIAN_SCHEMA}")
    if int(data["genus"]) != 2:
        raise SchemaError("only genus 2 is supported (built-in octagon group)")
    rays = []
    for rd in data["rays"]:
        _require_keys(rd, ("p",), ("label",), "ray")
        rays.append([float(x) for x in rd["p"]])
    heights = data.get("heights")
    targets = data.get("targets")
    if heights is None and targets is None:
        raise SchemaError("fuchsian config needs heights or targets")
    return FuchsianConfig(
        genus2_group(),
        np.array(rays, dtype=float),
        None if heights is None else np.array(heights, dtype=float),
        None if targets is None else np.array(targets, dtype=float),
        word_length_cap=int(data.get("word_len_cap", 10)),
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


def load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot parse {path}: {exc}") from exc


def dump_json(obj, path):
    text = canonical_json(obj) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
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
