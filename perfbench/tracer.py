"""Span recorder that wraps flipkit's layer entry points from outside.

The package itself carries no instrumentation.  `Recorder.install` replaces
the traced functions in every flipkit module namespace that binds them, so a
call is recorded under the name its caller resolves (`flipkit.cli.project`,
`flipkit.fuchsian.EuclideanHull`, ...) and aggregated under the layer of the
function it reaches (`tilings.project`, `qhull`).  Spans stay in memory as
[name, layer, start, end, parent, points]; self time is a span's duration
minus that of its direct children.
"""

import functools
import importlib
import json
import time

from scipy.spatial import ConvexHull

MODULES = ("cli", "io", "polyhedra", "tilings", "render", "forms", "fuchsian")

# layer name -> (defining module, function name); each gets a span per call
SPANNED = {
    "qhull": ("scipy.spatial", "ConvexHull"),
    "fuchsian.solve_prescribed_curvature": ("fuchsian", "solve_prescribed_curvature"),
    "fuchsian.orbit_hull": ("fuchsian", "orbit_hull"),
    "fuchsian.curvatures": ("fuchsian", "curvatures"),
    "fuchsian.jacobian": ("fuchsian", "jacobian"),
    "fuchsian.minkowski_dual": ("fuchsian", "minkowski_dual"),
    "fuchsian.ads_project": ("fuchsian", "ads_project"),
    "fuchsian.recover_heights": ("fuchsian", "recover_heights"),
    "fuchsian.flip_hyperbolic": ("fuchsian", "flip_hyperbolic"),
    "tilings.project": ("tilings", "project"),
    "tilings.flip": ("tilings", "flip"),
    "tilings.white_polyhedron": ("tilings", "white_polyhedron"),
    "tilings.validate_tiling": ("tilings", "validate_tiling"),
    "polyhedra.polar_dual": ("polyhedra", "polar_dual"),
    "polyhedra.hull": ("polyhedra", "hull"),
    "polyhedra.from_vertices_and_faces": ("polyhedra", "from_vertices_and_faces"),
    "io.load_any": ("io", "load_any"),
    "io.dump_json": ("io", "dump_json"),
    "io.canonical_json": ("io", "canonical_json"),
    "io.tiling_to_dict": ("io", "tiling_to_dict"),
    "io.tiling_from_dict": ("io", "tiling_from_dict"),
    "render.render_svg": ("render", "render_svg"),
    "cli.main": ("cli", "main"),
}
# layer name -> (defining module, function name); counted, no span
COUNTED = {"forms.mul4": ("forms", "mul4")}

ROOT_SPAN = "bench.op"  # one per traced operation, opened by the benchmark
SOLVE = "fuchsian.solve_prescribed_curvature"
NAME, LAYER, START, END, PARENT, POINTS = range(6)


def _target(module, name):
    if module == "scipy.spatial":
        return ConvexHull
    return getattr(importlib.import_module(f"flipkit.{module}"), name)


class Recorder:
    """In-memory spans and counts; records only while `active` is set."""

    def __init__(self):
        self.active = False
        self.spans = []
        self.stack = []
        self.counts = {layer: 0 for layer in COUNTED}
        self.bytes_out = 0
        self._patched = []

    # -- installation ----------------------------------------------------------

    def install(self):
        by_object = {}
        for layer, (module, name) in {**SPANNED, **COUNTED}.items():
            by_object[id(_target(module, name))] = layer
        namespaces = [importlib.import_module("flipkit")] + [
            importlib.import_module(f"flipkit.{m}") for m in MODULES
        ]
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                layer = by_object.get(id(obj))
                if layer is None:
                    continue
                resolved = f"{mod.__name__}.{attr}"
                wrapper = (self._counter(obj, layer) if layer in COUNTED
                           else self._spanner(obj, resolved, layer))
                setattr(mod, attr, wrapper)
                self._patched.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched = []

    def _counter(self, fn, layer):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                counts[layer] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanner(self, fn, resolved, layer):
        is_hull = layer == "qhull"
        is_dump = layer == "io.dump_json"

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.open(resolved, layer, len(args[0]) if is_hull else 0)
            try:
                out = fn(*args, **kwargs)
                if is_dump:
                    self.bytes_out += len(out.encode())
                return out
            finally:
                self.close()

        # updated=(): ConvexHull is a class, whose __dict__ must not be copied
        return functools.update_wrapper(wrapper, fn, updated=())

    # -- spans -----------------------------------------------------------------

    def open(self, name, layer, points=0):
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, layer, time.perf_counter(), 0.0, parent, points])
        self.stack.append(sid)

    def close(self):
        self.spans[self.stack.pop()][END] = time.perf_counter()

    def write(self, path, header):
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for sid, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "parent": s[PARENT], "name": s[NAME],
                    "layer": s[LAYER], "start": s[START], "end": s[END],
                    "points": s[POINTS],
                }) + "\n")


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    own = [s[END] - s[START] for s in spans]
    for s, dur in zip(spans, list(own)):
        if s[PARENT] >= 0:
            own[s[PARENT]] -= dur
    return own


def layer_table(spans):
    """{layer: [calls, self_s, points]} and the same keyed by resolved name."""
    own = self_times(spans)
    by_layer, by_name = {}, {}
    for s, t in zip(spans, own):
        for key, table in ((s[LAYER], by_layer), (s[NAME], by_name)):
            row = table.setdefault(key, [0, 0.0, 0])
            row[0] += 1
            row[1] += t
            row[2] += s[POINTS]
    return by_layer, by_name


def solve_breakdown(spans):
    """Qhull work under each solve span.

    Returns one dict per solve with its hull calls, hull points and trial
    hulls: Qhull calls whose nearest traced ancestor is the solve itself,
    not `orbit_hull` (the line-search evaluations at fixed truncation).
    """
    solves = {}
    for sid, s in enumerate(spans):
        if s[LAYER] == SOLVE:
            solves[sid] = {"hulls": 0, "points": 0, "trial_hulls": 0}
    for s in spans:
        if s[LAYER] != "qhull":
            continue
        nearest = spans[s[PARENT]][LAYER] if s[PARENT] >= 0 else None
        p = s[PARENT]
        while p >= 0 and p not in solves:
            p = spans[p][PARENT]
        if p < 0:
            continue
        solves[p]["hulls"] += 1
        solves[p]["points"] += s[POINTS]
        if nearest == SOLVE:
            solves[p]["trial_hulls"] += 1
    return [solves[sid] for sid in sorted(solves)]
