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
one geodesic call and projected in one call.  `_fixed8` writes the "%.8f"
text of every coordinate in a few array passes, with no Python float per
coordinate, and one split gives the path data of each <path>.
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


def _digit_words(width):
    """The 4-digit texts of 0..9999, one uint32 word each, whose leading
    zeros beyond the last `width` digits are NUL bytes."""
    d = np.arange(10 ** 4)[:, None]
    place = 10 ** np.arange(3, -1, -1)
    digits = (d // place % 10 + ord("0")).astype(np.uint8)
    digits[(d < place) & (place >= 10 ** width)] = 0
    return digits.view(np.uint32)[:, 0]


# coordinates per pass of _fixed8: every temporary of a pass stays under 512 KiB
FORMAT_BLOCK = 1 << 14
_DIGITS = _digit_words(4)
# the low 4 digits of a whole part: at least one digit shown below 10**4, all four above
_LOW_DIGITS = np.concatenate([_digit_words(1), _DIGITS])
_HIGH_DIGITS = _digit_words(0)
_POINT, _FALLBACK = np.frombuffer(b".\0\0\0\x01\0\0\0", np.uint32)


@np.errstate(over="ignore", invalid="ignore")
def _fixed8_block(x, sep):
    s = x * 1e8
    r = np.rint(s)
    # below 2**52 every k + 1/2 is a float, so the rounded product s lies on
    # the same side of each tie as the exact x * 10**8 or on the tie itself:
    # rint(s) is the integer "%.8f" shows unless s is a tie, too large for
    # rint to be exact or not finite, and those values take "%.8f" itself
    slow = ~(np.abs(s) < 2.0 ** 52) | (np.abs(s - r) == 0.5)
    whole, frac = np.divmod(np.where(slow, 0.0, np.abs(r)).astype(np.int64), 10 ** 8)
    high, low = np.divmod(whole, 10 ** 4)
    # per value: [sep, NUL, NUL, sign] [whole 4] [whole 4] [. NUL NUL NUL] [frac 4] [frac 4]
    words = np.empty((len(x), 6), np.uint32)
    text = words.view(np.uint8)
    words[:, 0] = 0
    text[:, 0] = sep
    text[:, 3] = np.where(np.signbit(x) & ~slow, ord("-"), 0)
    words[:, 1] = _HIGH_DIGITS[high]
    words[:, 2] = _LOW_DIGITS[low + (high > 0) * 10 ** 4]
    words[:, 3] = _POINT
    words[:, 4] = _DIGITS[frac // 10 ** 4]
    words[:, 5] = _DIGITS[frac % 10 ** 4]
    exact = ["%.8f" % v for v in x[slow]]
    if exact:
        words[slow, 1:] = 0
        words[slow, 1] = _FALLBACK
    out = words.tobytes().translate(None, b"\0").decode("ascii")
    if not exact:
        return out
    parts = out.split("\x01")
    return parts[0] + "".join(v + p for v, p in zip(exact, parts[1:]))


def _fixed8(x, sep):
    """The "%.8f" text of every float of x, bit for bit, each preceded by
    its byte of sep (uint8, one per value; neither NUL nor 0x01), as one
    string."""
    return "".join(_fixed8_block(x[i:i + FORMAT_BLOCK], sep[i:i + FORMAT_BLOCK])
                   for i in range(0, len(x), FORMAT_BLOCK))


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
    # "x yLx yL...x y" per path: "L" before an x, " " before a y, a newline
    # before each path's first x
    sep = np.full(2 * len(xy), ord("L"), np.uint8)
    sep[1::2] = ord(" ")
    sep[2 * bounds[:-1]] = ord("\n")
    data = _fixed8(xy.ravel(), sep).split("\n")[1:]
    paths = [f'<path d="M{d}Z" fill="{WHITE_FILL if f < len(W) else BLACK_FILL}" '
             'stroke="none"/>' for f, d in enumerate(data[:F])]
    paths += [f'<path d="M{d}" fill="none" stroke="{EDGE_STROKE}" '
              'stroke-width="0.01" stroke-linecap="round"/>' for d in data[F:]]
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
    return "\n".join([header] + paths + ["</svg>"]) + "\n"
