"""Command-line surface: flipkit <command> [flags].

Exit codes separate failure classes: 2 for parse/schema problems, 3 for
geometry errors, 4 for solver non-convergence.
"""

import argparse
import functools
import os
import sys

import numpy as np

from . import io as fio
from . import render as frender
from .errors import ConvergenceError, FlipkitError, GeometryError, SchemaError
from .fuchsian import (
    ads_project,
    curvatures,
    minkowski_dual,
    orbit_hull,
    solve_prescribed_curvature,
)
from .polyhedra import polar_dual
from .tilings import Side, flip, project, validate_tiling, white_polyhedron

EXIT_PARSE = 2
EXIT_GEOMETRY = 3
EXIT_NONCONVERGENCE = 4


def _tol_scale():
    try:
        scale = float(os.environ.get("FLIPKIT_TOL", "1.0"))
    except ValueError:
        raise SchemaError("FLIPKIT_TOL must be a number")
    # with nan or inf every tolerance comparison would be false
    if not 0.0 < scale < np.inf:
        raise SchemaError("FLIPKIT_TOL must be a positive finite number")
    return scale


def _side(name):
    try:
        return Side(name)
    except ValueError:
        raise SchemaError(f"side must be 'left' or 'right', got {name!r}")


def cmd_project(args):
    kind, obj = fio.load_any(args.input)
    if kind != "polyhedron":
        raise SchemaError("project expects a polyhedron.v1 file")
    T = project(obj, _side(args.side))
    fio.dump_json(fio.tiling_to_dict(T), args.output)
    print(f"projected to a {T.handedness.value} tiling: "
          f"{len(T.black)} black, {len(T.white)} white faces -> {args.output}")


def cmd_flip(args):
    kind, obj = fio.load_any(args.input)
    if kind != "tiling":
        raise SchemaError("flip expects a tiling.v1 file")
    F = flip(obj)
    fio.dump_json(fio.tiling_to_dict(F), args.output)
    print(f"flipped to a {F.handedness.value} tiling -> {args.output}")


def cmd_dual(args):
    kind, obj = fio.load_any(args.input)
    if kind != "polyhedron":
        raise SchemaError("dual expects a polyhedron.v1 file")
    D = polar_dual(obj)
    fio.dump_json(fio.polyhedron_to_dict(D), args.output)
    print(f"polar dual: {D.n_vertices} vertices, {D.n_faces} faces -> {args.output}")


def cmd_reconstruct(args):
    kind, obj = fio.load_any(args.input)
    if kind != "tiling":
        raise SchemaError("reconstruct expects a tiling.v1 file")
    P = white_polyhedron(obj)
    fio.dump_json(fio.polyhedron_to_dict(P), args.output)
    print(f"white polyhedron: {P.n_vertices} vertices, {P.n_faces} faces "
          f"-> {args.output}")


def cmd_solve(args):
    kind, cfg = fio.load_any(args.input)
    if kind != "fuchsian":
        raise SchemaError("solve expects a fuchsian.v1 file")
    if cfg.targets is None:
        raise SchemaError("fuchsian config needs curvature targets to solve")
    result = solve_prescribed_curvature(cfg, tol=1e-8 * _tol_scale())
    surf = result["surface"]
    duals, ks = minkowski_dual(surf)
    dual_err = max(abs(df.area() + ks[df.ray_index]) for df in duals)
    fio.dump_json(fio.solution_to_dict(result), args.output)
    print(f"solved: residual {result['residual']:.3e}, "
          f"{result['iterations']} Newton steps, "
          f"dual face-area check {dual_err:.3e} -> {args.output}")
    if dual_err > 1e-7 * _tol_scale():
        raise GeometryError(f"dual face areas deviate from -k by {dual_err:.3e}")
    if args.tiling_out:
        T = ads_project(surf, _side(args.side))
        fio.dump_json(fio.tiling_to_dict(T), args.tiling_out)
        print(f"projected quotient tiling -> {args.tiling_out}")


def cmd_render(args):
    kind, obj = fio.load_any(args.input)
    if kind != "tiling":
        raise SchemaError("render expects a tiling.v1 file")
    fio.write_text(frender.render_svg(obj), args.output)
    print(f"rendered {len(obj.black) + len(obj.white)} faces -> {args.output}")


def cmd_check(args):
    paths = [args.input] + (args.batch or [])
    scale = _tol_scale()
    failures = 0
    for path in paths:
        kind, obj = fio.load_any(path)  # polyhedra are validated on load
        if kind == "polyhedron":
            print(f"{path}: polyhedron ok "
                  f"(V={obj.n_vertices} E={obj.n_edges} F={obj.n_faces})")
        elif kind == "tiling":
            report = validate_tiling(obj, tol_scale=scale)
            if report.ok:
                print(f"{path}: tiling ok ({len(obj.black)} black, "
                      f"{len(obj.white)} white)")
            else:
                failures += 1
                print(f"{path}: tiling INVALID: {report.first}")
        else:
            if obj.heights is not None:
                k = curvatures(orbit_hull(obj))
                print(f"{path}: fuchsian config ok, curvatures "
                      f"{np.round(k, 6).tolist()}")
            else:
                print(f"{path}: fuchsian config ok (targets only)")
    if failures:
        raise GeometryError(f"{failures} artifact(s) failed validation")


@functools.cache
def build_parser():
    """The argument parser, built once: parsing leaves it unchanged."""
    p = argparse.ArgumentParser(
        prog="flipkit",
        description="Flippable tilings of constant curvature surfaces: "
        "projections, flips, duality and the prescribed-curvature solver.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("project", help="polyhedron -> flippable tiling")
    sp.add_argument("--in", dest="input", required=True)
    sp.add_argument("--out", dest="output", required=True)
    sp.add_argument("--side", choices=("left", "right"), default="left")
    sp.set_defaults(func=cmd_project)

    sf = sub.add_parser("flip", help="flip a tiling")
    sf.add_argument("--in", dest="input", required=True)
    sf.add_argument("--out", dest="output", required=True)
    sf.set_defaults(func=cmd_flip)

    sd = sub.add_parser("dual", help="polar dual of a polyhedron")
    sd.add_argument("--in", dest="input", required=True)
    sd.add_argument("--out", dest="output", required=True)
    sd.set_defaults(func=cmd_dual)

    sr = sub.add_parser("reconstruct", help="tiling -> white polyhedron")
    sr.add_argument("--in", dest="input", required=True)
    sr.add_argument("--out", dest="output", required=True)
    sr.set_defaults(func=cmd_reconstruct)

    ss = sub.add_parser("solve", help="prescribed-curvature Fuchsian solver")
    ss.add_argument("--in", dest="input", required=True)
    ss.add_argument("--out", dest="output", required=True)
    ss.add_argument("--tiling-out", dest="tiling_out", default=None,
                    help="also write the projected quotient tiling here")
    ss.add_argument("--side", choices=("left", "right"), default="left")
    ss.set_defaults(func=cmd_solve)

    sv = sub.add_parser("render", help="tiling -> SVG")
    sv.add_argument("--in", dest="input", required=True)
    sv.add_argument("--out", dest="output", required=True)
    sv.set_defaults(func=cmd_render)

    sc = sub.add_parser("check", help="validate artifacts")
    sc.add_argument("--in", dest="input", required=True)
    sc.add_argument("--batch", nargs="*", default=None)
    sc.set_defaults(func=cmd_check)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ConvergenceError as exc:
        print(f"error: {exc} (residual {exc.residual})", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except FlipkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY
    return 0


if __name__ == "__main__":
    sys.exit(main())
