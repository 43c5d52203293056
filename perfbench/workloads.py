"""The three benchmark workloads: inputs from a seed, one operation, its checks.

Every call an operation makes into flipkit goes through a module attribute
looked up at call time (`fu.orbit_hull`, `cli.main`, ...), so the tracer's
wrappers see it.
Each workload exposes:

- `setup(seed, work)`: build the inputs (the timed set-up);
- `ops(state, r)`: the operations of round r, as (tag, input) pairs;
- `trace_pass(state)`: the fixed operations a traced run replays;
- `run(state, x)`: one operation, returning its outputs;
- `check(state, x, out)`: a list of failed checks, empty when correct;
- `notes(state)`: lines on known defects the checks saw but did not count;
- `corrupt(state, x, out)`: damage an output the way a bug would;
- `per_tag_metric`: name pattern of the median time per operation tag
  (`solve_n1_s`, ...), or None.
"""

import contextlib
import io as _stdio
import json
import math
import os

import numpy as np

from conftest import random_polyhedron  # the acceptance-suite generator
from flipkit import cli
from flipkit import fuchsian as fu
from flipkit import io as fio
from flipkit import tilings

RAYS = {
    1: [(0.25, 0.15)],
    2: [(0.3, 0.1), (-0.4, 0.35)],
    3: [(0.3, 0.1), (-0.4, 0.35), (0.05, -0.55)],
}
ROUNDS = 16               # distinct rounds of solver / quotient inputs per seed
TRACE_POLYHEDRA = 18      # polyhedra replayed by a traced sphere-cli run
SIZES = range(6, 15)      # vertex counts of the sphere-cli corpus


def _lift(xy):
    return np.array([xy[0], xy[1], math.sqrt(1.0 + xy[0] ** 2 + xy[1] ** 2)])


def _rays(n):
    return np.array([_lift(q) for q in RAYS[n]])


def _warm_group():
    """A fresh genus-2 group with its element cache filled by one hull."""
    group = fu.genus2_group()
    fu.orbit_hull(fu.FuchsianConfig(group, _rays(1), heights=np.array([0.75])))
    return group


REDUMP_TOL = 1e-15        # about 4 ulp of a unit-vector coordinate


def _reload(path, to_dict, failures, drift=None):
    """Load `path` and re-dump it, noting a failure unless the file is
    canonical JSON and the re-dump gives its bytes.

    With a `drift` list, a polyhedron.v1 re-dump that differs from the file
    only in vertex coordinates, each by at most REDUMP_TOL, is noted there
    instead: `io.polyhedron_from_dict` renormalizes the vertex rows, which
    can change their last bits (a known io defect).
    """
    with open(path) as fh:
        text = fh.read()
    name = os.path.basename(path)
    written = json.loads(text)
    if fio.canonical_json(written) + "\n" != text:
        failures.append(f"{name} is not canonical JSON")
    _, obj = fio.load_any(path)
    again = to_dict(obj)
    if fio.canonical_json(again) + "\n" != text:
        if drift is not None and _vertex_drift(written, again) <= REDUMP_TOL:
            drift.append(name)
        else:
            failures.append(f"{name} does not re-dump byte-identically")
    return obj


def _vertex_drift(a, b):
    """Largest vertex-coordinate change between two polyhedron.v1 dicts
    that agree in all else; inf when they differ in anything else."""
    if {**a, "vertices": None} != {**b, "vertices": None}:
        return math.inf
    va, vb = np.array(a["vertices"]), np.array(b["vertices"])
    return float(np.max(np.abs(va - vb))) if va.shape == vb.shape else math.inf


# -- sphere-cli ---------------------------------------------------------------------


class SphereCli:
    name = "sphere-cli"
    default_seed = 20240817
    per_tag_metric = None
    OUTPUTS = ("dual.json", "tiling.json", "flipped.json", "poly2.json")
    corpus_size = 100

    def setup(self, seed, work):
        # Sizes take turns instead of being drawn as in the acceptance
        # corpus, so every seed has the same size mix: the time per
        # polyhedron grows by about 9 % per vertex, and a drawn mix moves
        # the median from seed to seed.
        rng = np.random.default_rng(seed)
        corpus = []
        for i in range(self.corpus_size):
            P = random_polyhedron(rng, SIZES[i % len(SIZES)])
            path = os.path.join(work, f"p{i:03d}.json")
            fio.dump_json(fio.polyhedron_to_dict(P), path)
            corpus.append((P, path))
        return {"corpus": corpus, "work": work, "reloads": 0, "drift": []}

    def ops(self, state, r):
        corpus = state["corpus"]
        return [(f"v{corpus[r % len(corpus)][0].n_vertices}", r % len(corpus))]

    def trace_pass(self, state):
        return [op for r in range(min(TRACE_POLYHEDRA, len(state["corpus"])))
                for op in self.ops(state, r)]

    def run(self, state, i):
        src = state["corpus"][i][1]
        d, t, f, q = (os.path.join(state["work"], o) for o in self.OUTPUTS)
        svg = os.path.join(state["work"], "tiling.svg")
        commands = (
            ["dual", "--in", src, "--out", d],
            ["project", "--in", src, "--out", t, "--side", "left"],
            ["flip", "--in", t, "--out", f],
            ["reconstruct", "--in", f, "--out", q],
            ["check", "--in", t, "--batch", f, d, q],
            ["render", "--in", t, "--out", svg],
        )
        sink = _stdio.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return [cli.main(argv) for argv in commands]

    def check(self, state, i, codes):
        failures = [f"exit code {c}" for c in codes if c != 0]
        if failures:
            return failures
        P = state["corpus"][i][0]
        work = state["work"]
        d, t, f, q = (os.path.join(work, o) for o in self.OUTPUTS)
        D = _reload(d, fio.polyhedron_to_dict, failures, state["drift"])
        T = _reload(t, fio.tiling_to_dict, failures)
        _reload(f, fio.tiling_to_dict, failures)
        Q = _reload(q, fio.polyhedron_to_dict, failures, state["drift"])
        state["reloads"] += 2
        if D.n_vertices != P.n_faces:
            failures.append("dual has the wrong number of vertices")
        err = (tilings.polyhedron_isometry_error(P, Q)
               if Q.n_vertices == P.n_vertices else math.inf)
        if not err <= 1e-8:
            failures.append(f"reconstruction is not isometric ({err:.2e})")
        if not tilings.validate_tiling(T).ok:
            failures.append("projected tiling fails validation")
        with open(os.path.join(work, "tiling.svg")) as fh:
            svg = fh.read()
        if not (svg.startswith("<svg") and svg.rstrip().endswith("</svg>")):
            failures.append("render did not write an SVG document")
        return failures

    def notes(self, state):
        return [f"io defect, not counted as failed: {len(state['drift'])} of "
                f"{state['reloads']} polyhedron.v1 re-dumps changed a vertex "
                f"coordinate by at most {REDUMP_TOL:g}"]

    def corrupt(self, state, i, codes):
        q = os.path.join(state["work"], "poly2.json")
        with open(q) as fh:
            data = json.load(fh)
        v = np.array(data["vertices"][0])
        v[1] += 1e-3
        data["vertices"][0] = (v / np.linalg.norm(v)).tolist()
        fio.dump_json(data, q)


# -- solve-genus2 -------------------------------------------------------------------


class SolveGenus2:
    name = "solve-genus2"
    default_seed = 99
    per_tag_metric = "solve_{}_s"

    def setup(self, seed, work):
        group = _warm_group()
        rng = np.random.default_rng(seed)
        rounds = []
        for _ in range(ROUNDS):
            cfgs = []
            for n in (1, 2, 3):
                while True:
                    k = -rng.uniform(0.5, 3.5, size=n)
                    if np.sum(k) > -4 * np.pi + 0.5:
                        break
                cfgs.append(fu.FuchsianConfig(group, _rays(n), targets=k))
            rounds.append(cfgs)
        return {"rounds": rounds}

    def ops(self, state, r):
        return [(f"n{c.n}", c) for c in state["rounds"][r % ROUNDS]]

    def trace_pass(self, state):
        return self.ops(state, 0)

    def run(self, state, cfg):
        result = fu.solve_prescribed_curvature(cfg)
        duals, ks = fu.minkowski_dual(result["surface"])
        dual_err = max(abs(df.area() + ks[df.ray_index]) for df in duals)
        return {"result": result, "k": ks, "dual_err": dual_err,
                "newton_steps": result["iterations"]}

    def check(self, state, cfg, out):
        failures = []
        if not out["result"]["residual"] <= 1e-8:
            failures.append(f"solver residual {out['result']['residual']:.2e}")
        err = float(np.max(np.abs(out["k"] - cfg.targets)))
        if not err <= 1e-8:
            failures.append(f"surface curvatures miss the targets by {err:.2e}")
        if not out["dual_err"] <= 1e-7:
            failures.append(f"dual face areas deviate from -k by {out['dual_err']:.2e}")
        return failures

    def notes(self, state):
        return []

    def corrupt(self, state, cfg, out):
        out["k"] = out["k"] + 1e-6


# -- quotient-flip ------------------------------------------------------------------


class QuotientFlip:
    name = "quotient-flip"
    default_seed = 99
    per_tag_metric = None

    def setup(self, seed, work):
        group = _warm_group()
        rng = np.random.default_rng(seed)
        rounds = []
        for _ in range(ROUNDS):
            cfgs = []
            for n in (1, 2, 3):
                # heights near a common level keep every ray point extreme
                h = rng.uniform(0.55, 0.95) + rng.uniform(-0.08, 0.08, size=n)
                cfgs.append(fu.FuchsianConfig(group, _rays(n), heights=h))
            rounds.append(cfgs)
        return {"rounds": rounds}

    def ops(self, state, r):
        return [(f"n{c.n}", c) for c in state["rounds"][r % ROUNDS]]

    def trace_pass(self, state):
        return self.ops(state, 0)

    def run(self, state, cfg):
        surf = fu.orbit_hull(cfg)
        k = fu.curvatures(surf)
        duals, ks = fu.minkowski_dual(surf)
        dual_err = max(abs(df.area() + ks[df.ray_index]) for df in duals)
        T = fu.ads_project(surf, tilings.Side.LEFT)
        F = tilings.flip(T)
        text = fio.canonical_json(fio.tiling_to_dict(F))
        return {"surface": surf, "k": k, "dual_k": ks, "dual_err": dual_err,
                "flipped": F, "text": text}

    def check(self, state, cfg, out):
        failures = []
        if not np.array_equal(out["k"], out["dual_k"]):
            failures.append("dual faces carry other curvatures than the surface")
        if not out["dual_err"] <= 1e-7:
            failures.append(f"dual face areas deviate from -k by {out['dual_err']:.2e}")
        # the flip of the left projection is the right projection
        expected = fu.ads_project(out["surface"], tilings.Side.RIGHT)
        err = tilings.tiling_equality_error(out["flipped"], expected)
        if not err <= 1e-7:
            failures.append(f"hyperbolic flip equality error {err:.2e}")
        again = fio.canonical_json(
            fio.tiling_to_dict(fio.tiling_from_dict(json.loads(out["text"]))))
        if again != out["text"]:
            failures.append("flipped tiling does not re-dump byte-identically")
        return failures

    def notes(self, state):
        return []

    def corrupt(self, state, cfg, out):
        F = out["flipped"]
        F.white[0].vertices[0] = F.white[0].vertices[0] * (1.0 + 1e-6)


WORKLOADS = {w.name: w for w in (SphereCli, SolveGenus2, QuotientFlip)}
