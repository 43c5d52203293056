"""Deterministic SVG pictures of tilings.

Spherical tilings are drawn through the stereographic projection from the
pole (0,0,-1); hyperbolic tilings land in the Poincare disk.  Geodesic
arcs are sampled at most 0.01 radians apart and emitted as polylines, so
the output is plain paths with no curve primitives.  Face sides are the
arcs between consecutive vertices, except on digons; tiling edges and digon
sides are sampled along the edge's own parameter, so closed edges and
edges longer than pi are drawn whole.  Each arc is sampled as one array,
projected row-wise and formatted in one pass.
"""

import numpy as np

from .errors import GeometryError
from .spheremath import HyperbolicOps, SphereOps

ARC_STEP = 0.01
BLACK_FILL = "#26262b"
WHITE_FILL = "#f0ede4"
EDGE_STROKE = "#c03a2b"


def _fmt(x):
    return format(float(x), ".8f")


def stereographic(p):
    """Projection of the unit sphere from the pole (0,0,-1), row-wise."""
    p = np.asarray(p)
    denom = 1.0 + p[..., 2:3]
    if np.any(denom < 1e-9):
        raise GeometryError("point at the projection pole")
    return p[..., :2] / denom


def poincare(p):
    """Hyperboloid points to the Poincare disk, row-wise."""
    p = np.asarray(p)
    return p[..., :2] / (1.0 + p[..., 2:3])


def _path(xy, close=""):
    """SVG path data of a polyline through the rows of xy."""
    return ("M" + "L".join(["%.8f %.8f"] * len(xy)) + close) % tuple(xy.ravel().tolist())


def _sample_arc(ops, a, b):
    """Rows along the geodesic from a to b, both ends included."""
    d = ops.dist(a, b)
    if d < 1e-12:
        return np.array([a, b])
    steps = max(2, int(np.ceil(d / ARC_STEP)) + 1)
    return ops.geodesic(a, ops.tangent(a, b), np.linspace(0.0, d, steps)[:, None])


def _sample_edge(ops, edge, a, b):
    """Rows of a tiling edge at parameters a to b, both ends included."""
    n = max(2, int(np.ceil(abs(b - a) / ARC_STEP)) + 1)
    return edge.point_at(ops, np.linspace(a, b, n)[:, None])


def _face_path(ops, proj, face):
    v = face.vertices
    k = len(v)
    arcs = [_sample_arc(ops, v[i], v[(i + 1) % k])[:-1] for i in range(k)]
    return _path(proj(np.concatenate(arcs)), "Z")


def _digon_path(T, ops, proj, color, fi):
    """Digon boundary sampled along its two supporting edge records."""
    f = T.faces(color)[fi]
    arcs = []
    for k in range(len(f)):
        edge = T.edges[f.edge_refs[k]]
        seg = edge.segment_of(color, fi, k)
        arcs.append(
            _sample_edge(ops, edge, seg.corner_param(True), seg.corner_param(False))[:-1]
        )
    return _path(proj(np.concatenate(arcs)), "Z")


def render_svg(T, projection=None):
    """Render a tiling to an SVG string.

    The projection defaults to stereographic for spherical tilings and to
    the Poincare disk for hyperbolic ones.
    """
    if projection is None:
        projection = "stereographic" if T.is_spherical else "poincare"
    if projection == "stereographic":
        if not T.is_spherical:
            raise GeometryError("stereographic projection applies to spherical tilings")
        ops, proj = SphereOps, stereographic
    elif projection == "poincare":
        if T.is_spherical:
            raise GeometryError("poincare projection applies to hyperbolic tilings")
        ops, proj = HyperbolicOps, poincare
    else:
        raise GeometryError(f"unknown projection {projection!r}")

    paths = []
    span = 1.0
    for color, fill in ((("white"), WHITE_FILL), (("black"), BLACK_FILL)):
        for fi, f in enumerate(T.faces(color)):
            if f.is_digon:
                d = _digon_path(T, ops, proj, color, fi)
            else:
                d = _face_path(ops, proj, f)
            paths.append(f'<path d="{d}" fill="{fill}" stroke="none"/>')
            span = max(span, float(np.max(np.abs(proj(f.vertices)))))
    for e in T.edges:
        xy = proj(_sample_edge(ops, e, e.t_min, e.t_max))
        paths.append(
            f'<path d="{_path(xy)}" fill="none" stroke="{EDGE_STROKE}" '
            f'stroke-width="0.01" stroke-linecap="round"/>'
        )
        span = max(span, float(np.max(np.abs(xy[[0, -1]]))))

    if projection == "poincare":
        lo, hi = -1.05, 1.05
        paths.insert(
            0,
            '<circle cx="0" cy="0" r="1" fill="none" stroke="#888888" '
            'stroke-width="0.005"/>',
        )
    else:
        lo, hi = -1.05 * span, 1.05 * span
    size = hi - lo
    header = (
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{_fmt(lo)} {_fmt(lo)} {_fmt(size)} {_fmt(size)}" '
        'width="640" height="640">'
    )
    return "\n".join([header] + paths + ["</svg>"]) + "\n"
