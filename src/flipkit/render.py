"""Deterministic SVG pictures of tilings.

Spherical tilings are drawn through the stereographic projection from the
pole (0,0,-1); hyperbolic tilings land in the Poincare disk.  Geodesic
arcs are sampled at most 0.01 radians apart and emitted as polylines, so
the output is plain paths with no curve primitives.  Arcs are of two kinds,
each set up in one row-wise pass over the tiling: polygon sides run from a
corner to the next (one `dist` and one `tangents` for all of them); tiling
edges and digon sides run along the edge's own parameter, so closed edges
and edges longer than pi are drawn whole.  All arcs are then sampled at one
concatenated parameter vector, equal bit for bit to np.linspace per arc, in
one geodesic call, projected in one call and formatted in one pass.
"""

import numpy as np

from .errors import GeometryError

ARC_STEP = 0.01
# arc samples of one picture; the valid tilings of the benchmark need at most about 15,000
MAX_RENDER_SAMPLES = 10 ** 6
BLACK_FILL = "#26262b"
WHITE_FILL = "#f0ede4"
EDGE_STROKE = "#c03a2b"


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


def _path(n, close=""):
    """SVG path data of a polyline through n points, as a %-template."""
    return "M" + "L".join(["%.8f %.8f"] * n) + close


def _sample(ops, base, direction, start, stop, whole):
    """Rows of many arcs along geodesic(base, direction, t) in one pass.

    Arc i is sampled at np.linspace(start[i], stop[i], n) with n = max(2,
    ceil(|stop[i] - start[i]| / ARC_STEP) + 1), bit for bit, and keeps its
    last row only where whole[i].  Returns the rows and the row after each
    arc's last.  The samples are counted first: an arc that is not finite,
    or more than MAX_RENDER_SAMPLES in all, is a GeometryError."""
    span = np.abs(stop - start)
    n = np.maximum(2.0, np.ceil(span / ARC_STEP) + 1)
    total = float(np.sum(n - 1 + whole))
    if not np.all(np.isfinite(span)):
        raise GeometryError("an arc to render has no finite length")
    if total > MAX_RENDER_SAMPLES:
        raise GeometryError(f"rendering needs {total:.0f} arc samples, more than "
                            f"{MAX_RENDER_SAMPLES}")
    n = n.astype(int)
    m = n - 1 + whole
    ends = np.cumsum(m)
    first = np.repeat(ends - m, m)
    t = (np.arange(len(first)) - first) * np.repeat((stop - start) / (n - 1), m)
    t += np.repeat(start, m)
    t[ends[whole] - 1] = stop[whole]
    return ops.geodesic(np.repeat(base, m, axis=0), np.repeat(direction, m, axis=0),
                        t[:, None]), ends


@np.errstate(all="ignore")  # what is not finite is refused below, with one message
def render_svg(T):
    """Render a tiling to an SVG string: stereographic for a spherical
    tiling, in the Poincare disk for a hyperbolic one."""
    ops, proj = T.ops, stereographic if T.is_spherical else poincare

    # one arc per face corner, white faces first, then one per tiling edge
    W, B, E = T.white, T.black, T.edges
    sizes = np.concatenate([W.sizes, B.sizes])
    V = np.concatenate([W.vertices, B.vertices])
    ends = np.cumsum(sizes)
    nxt = np.arange(1, len(V) + 1)
    nxt[ends - 1] = ends - sizes
    stop = ops.dist(V, V[nxt])
    direction, defined = ops.tangents(V, V[nxt])
    polygon = np.repeat(np.isnan(np.concatenate([W.digon_angle, B.digon_angle])), sizes)
    flat = polygon & (stop < 1e-12)  # a side of no length is drawn as its corner
    if np.any(polygon & ~flat & ~defined):
        raise GeometryError(ops.tangent_undefined)
    direction[flat] = 0.0
    base, start = V.copy(), np.zeros(len(V))
    # a digon side runs along its segment of the tiling edge it lies on
    side = np.flatnonzero(~polygon)
    of = np.repeat(np.arange(len(sizes)), sizes)[side]  # its face, white faces first
    black = of >= len(W)
    e = np.concatenate([W.edge_refs, B.edge_refs])[side]
    j = E.slot(e, black, of - np.where(black, len(W), 0), side - (ends - sizes)[of])
    base[side], direction[side] = E.base[e], E.direction[e]
    start[side], stop[side] = E.corner_param(e, j, True), E.corner_param(e, j, False)
    rows, arc_ends = _sample(
        ops, np.concatenate([base, E.base]), np.concatenate([direction, E.direction]),
        np.concatenate([start, E.t_min]), np.concatenate([stop, E.t_max]),
        np.arange(len(V) + len(E)) >= len(V))
    rows[arc_ends[:len(V)][flat] - 1] = V[flat]
    xy = proj(rows)
    if not np.all(np.isfinite(xy)):
        raise GeometryError("a point of the picture is not finite")

    F = len(sizes)
    bounds = np.concatenate([[0], arc_ends[ends - 1], arc_ends[len(V):]])
    span = max(np.max(np.abs(proj(V)), initial=1.0),
               np.max(np.abs(xy[np.concatenate([bounds[F:-1], bounds[F + 1:] - 1])]),
                      initial=1.0))
    counts = np.diff(bounds).tolist()
    paths = [f'<path d="{_path(n, "Z")}" fill="{WHITE_FILL if f < len(W) else BLACK_FILL}" '
             'stroke="none"/>' for f, n in enumerate(counts[:F])]
    paths += [f'<path d="{_path(n)}" fill="none" stroke="{EDGE_STROKE}" '
              'stroke-width="0.01" stroke-linecap="round"/>' for n in counts[F:]]
    if not T.is_spherical:
        lo, hi = -1.05, 1.05
        paths.insert(0, '<circle cx="0" cy="0" r="1" fill="none" stroke="#888888" '
                        'stroke-width="0.005"/>')
    else:
        lo, hi = -1.05 * span, 1.05 * span
    size = hi - lo
    header = (
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{lo:.8f} {lo:.8f} {size:.8f} {size:.8f}" '
        'width="640" height="640">'
    )
    return ("\n".join([header] + paths + ["</svg>"]) + "\n") % tuple(xy.ravel().tolist())
