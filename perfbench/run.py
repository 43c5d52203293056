"""flipkit benchmark: one closed-loop client in one process.

    python3 perfbench/run.py --workload sphere-cli --seed 1 --seconds 32 --trace 0

Run from the repository root; the package is imported from `src/`.  With
`--trace 0` the run times the operations and prints the end-to-end metrics,
each time scaled to one machine speed by a fixed reference kernel sampled
around and during it (see `Speed`); with `--trace 1` it replays a fixed set
of operations twice each, once plain and once under the span recorder, and
prints the per-layer metrics.
Every operation's outputs are checked; the last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import os
import sys

# Cap BLAS/OpenMP threads before numpy loads: one closed-loop client, and
# the linear algebra is on 3x3 to 4x4 blocks where threads only add noise.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("sphere-cli", "solve-genus2", "quotient-flip"))
    p.add_argument("--seed", type=int, default=None,
                   help="input seed (default: the acceptance-suite seed)")
    p.add_argument("--seconds", type=float, default=32.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--rounds", type=int, default=None,
                   help="run exactly this many rounds (passes when traced) "
                   "instead of filling --seconds; sphere-cli then builds at "
                   "most that many polyhedra")
    p.add_argument("--corrupt", type=int, default=None, metavar="K",
                   help="damage the output of operation K before its check")
    return p.parse_args(argv)


class Runner:
    """Runs operations, checks each one and keeps the tallies."""

    def __init__(self, wl, state, corrupt):
        self.wl, self.state, self.corrupt = wl, state, corrupt
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def timed(self, x, before=None, after=None):
        """(seconds, output) of one operation; the output is the exception
        if the operation raised."""
        t0 = time.perf_counter()
        if before:
            before()
        try:
            out = self.wl.run(self.state, x)
        except Exception as exc:  # a program error is a failed operation
            out = exc
        finally:
            if after:
                after()
        return time.perf_counter() - t0, out

    def checked(self, tag, x, out):
        """Check one output and count it."""
        k = self.attempted
        self.attempted += 1
        if isinstance(out, Exception):
            problems = [f"{type(out).__name__}: {out}"]
        else:
            if self.corrupt == k:
                self.wl.corrupt(self.state, x, out)
            try:
                problems = self.wl.check(self.state, x, out)
            except Exception as exc:  # a check that cannot run is a failure
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.failures.append(f"op {k} ({tag}): {'; '.join(problems)}")


def keep_going(args, t_start, unit_times):
    """Start another round (or pass) while the mean one still fits in
    --seconds; there is always at least one."""
    if not unit_times:
        return True
    if args.rounds is not None:
        return len(unit_times) < args.rounds
    elapsed = time.perf_counter() - t_start
    return elapsed + statistics.fmean(unit_times) <= args.seconds


def reference_kernel(points, bulk):
    """Fixed work in the program's mix: interpreter loops, numpy calls on
    4-vectors and vectorized passes over a few thousand points."""
    acc = 0.0
    table = {}
    for i in range(7000):
        acc += (i * 7919) % 13
        table[i & 511] = acc
    for i in range(500):
        v = points[i]
        w = v / np.linalg.norm(v)
        acc += float(w @ points[i + 1])
    acc += float(np.sort(bulk * points[0, 0]).sum())
    return acc


class Speed:
    """Samples the reference kernel around and during operations, to scale
    their times to one machine speed.

    On a shared 2-core host the CPU speed was seen to swing by up to 1.7x
    within seconds to minutes, in the program and in any fixed code alike;
    process CPU time swings with it.  An operation's time is taken
    without the samples made inside it and multiplied by REF_S over the
    mean kernel time of the samples from its start to its end: that is its
    time at the speed at which the kernel takes REF_S seconds.  Samples are
    made at both ends and every PERIOD_S seconds in between, from a SIGALRM
    handler, so a long operation's speed is followed as it changes.
    """

    REF_S = 0.006     # the kernel's median time on the baseline machine
    PERIOD_S = 0.25

    def __init__(self):
        rng = np.random.default_rng(0)
        self.points = rng.standard_normal((4096, 4))
        self.bulk = rng.standard_normal(1 << 16)
        self.probe()  # warm-up
        self.samples = []   # kernel times since start()
        self.inside = 0.0   # seconds spent sampling since start()
        self.factors = []   # REF_S / mean sample, per scaled time

    def probe(self):
        """The kernel's time: the least of three runs, which drops those
        that an interrupt or a cold cache slowed."""
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            reference_kernel(self.points, self.bulk)
            best = min(best, time.perf_counter() - t0)
        return best

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(self.probe())
        self.inside += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def start(self):
        """Sample once; call right before the timed work starts."""
        first = self.probe()
        self.samples, self.inside = [first], 0.0

    def scale(self, raw):
        """The time at reference speed of `raw` seconds of timed work that
        began after start() and ended before this call."""
        work = raw - self.inside
        self.samples.append(self.probe())
        factor = self.REF_S / statistics.fmean(self.samples)
        self.factors.append(factor)
        return work * factor


def measure(args, wl, work):
    with Speed() as speed:
        return _measure(args, wl, work, speed)


def _measure(args, wl, work, speed):
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        speed.start()
        t0 = time.perf_counter()
        state = wl.setup(args.seed, work)
        raw_setups.append(time.perf_counter() - t0)
        setups.append(speed.scale(raw_setups[-1]))

    runner = Runner(wl, state, args.corrupt)
    lat = []          # (tag, seconds at reference speed) of operations that returned
    raw = []          # raw seconds of the same operations
    busy = 0.0        # seconds at reference speed spent inside operations
    round_times = []
    t_start = time.perf_counter()
    while keep_going(args, t_start, round_times):
        t_round = time.perf_counter()
        for tag, x in wl.ops(state, len(round_times)):
            speed.start()
            dt, out = runner.timed(x)
            scaled = speed.scale(dt)
            busy += scaled
            runner.checked(tag, x, out)
            if not isinstance(out, Exception):
                lat.append((tag, scaled))
                raw.append(dt)
        round_times.append(time.perf_counter() - t_round)

    times = sorted(dt for _, dt in lat)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(times) / busy, "1/s"),
        "op_p50_ms": (1e3 * statistics.median(times) if times else float("nan"), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {}
    if len(times) >= 100:
        extra["op_p90_ms"] = (1e3 * statistics.quantiles(times, n=10)[-1], "ms")
    if wl.per_tag_metric:
        for tag in sorted({t for t, _ in lat}):
            extra[wl.per_tag_metric.format(tag)] = (
                statistics.median(dt for t, dt in lat if t == tag), "s")
    f = sorted(speed.factors)
    info = [f"ops {runner.attempted} in {len(round_times)} rounds, "
            f"{busy:.2f} s busy at reference speed, "
            f"{time.perf_counter() - t_start:.2f} s measured",
            f"speed factors (reference / measured): median {statistics.median(f):.3f}, "
            f"range {f[0]:.3f} to {f[-1]:.3f}",
            f"raw, sampling included: ops_per_s {len(raw) / sum(raw) if raw else 0.0:.4f}, "
            f"op_p50_ms {1e3 * statistics.median(raw) if raw else 0.0:.2f}, "
            f"setup_s {statistics.median(raw_setups):.4f}",
            f"setup runs at reference speed {[round(s, 4) for s in setups]}"]
    info.extend(wl.notes(state))
    return runner, metrics, extra, info


def traced(args, wl, work):
    from tracer import (COUNTED, ROOT_SPAN, SPANNED, Recorder, layer_table,
                        solve_breakdown)

    state = wl.setup(args.seed, work)
    rec = Recorder()
    rec.install()
    runner = Runner(wl, state, args.corrupt)
    plain = traced_s = 0.0
    steps = []        # Newton steps of the traced solves
    tags = []         # tag of each traced operation, in order
    passes = []
    t_start = time.perf_counter()

    def start():
        rec.active = True
        rec.open(ROOT_SPAN, ROOT_SPAN)

    def stop():
        rec.close()
        rec.active = False

    try:
        while keep_going(args, t_start, passes):
            t_pass = time.perf_counter()
            for tag, x in wl.trace_pass(state):
                # alternate which copy runs first, counting across passes
                traced_first = len(tags) % 2 == 1
                for with_trace in (traced_first, not traced_first):
                    if with_trace:
                        dt, out = runner.timed(x, start, stop)
                        traced_s += dt
                        tags.append(tag)
                        if isinstance(out, dict) and "newton_steps" in out:
                            steps.append(out["newton_steps"])
                    else:
                        dt, out = runner.timed(x)
                        plain += dt
                    runner.checked(tag, x, out)
            passes.append(time.perf_counter() - t_pass)
    finally:
        rec.uninstall()

    ops = len(tags)
    by_layer, by_name = layer_table(rec.spans)
    metrics = {}
    for layer in SPANNED:
        calls, self_s, _ = by_layer.get(layer, (0, 0.0, 0))
        metrics[f"{layer}.calls"] = (calls / ops, "count/op")
        metrics[f"{layer}.self_s"] = (self_s / ops, "s/op")
    metrics["qhull.points"] = (by_layer.get("qhull", (0, 0, 0))[2] / ops, "pt/op")
    metrics["io.bytes_out"] = (rec.bytes_out / ops, "B/op")
    for layer in COUNTED:
        metrics[f"{layer}.calls"] = (rec.counts[layer] / ops, "count/op")
    metrics[f"{ROOT_SPAN}.self_s"] = (by_layer[ROOT_SPAN][1] / ops, "s/op")

    # only solve-genus2 has solves, one per traced operation; with none,
    # every per-solve figure reads 0
    solves = solve_breakdown(rec.spans)
    trials = sum(s["trial_hulls"] for s in solves)
    n_solves = len(solves) or 1
    metrics["fuchsian.hulls_per_solve"] = (
        sum(s["hulls"] for s in solves) / n_solves, "count/solve")
    metrics["fuchsian.trial_hulls"] = (trials / n_solves, "count/solve")
    metrics["fuchsian.newton_steps"] = (sum(steps) / n_solves, "count/solve")
    metrics["fuchsian.step_accept_ratio"] = (sum(steps) / (trials or 1), "ratio")
    for n in (1, 2, 3):
        mine = [s for s, t in zip(solves, tags) if t == f"n{n}"]
        k = len(mine) or 1
        metrics[f"fuchsian.hulls_per_solve.n{n}"] = (
            sum(s["hulls"] for s in mine) / k, "count/solve")
        metrics[f"qhull.points.n{n}"] = (sum(s["points"] for s in mine) / k, "pt/solve")

    program_self = sum(row[1] for layer, row in by_layer.items() if layer != ROOT_SPAN)
    metrics["trace.overhead_frac"] = (traced_s / plain - 1.0, "ratio")
    metrics["trace.accounted_frac"] = (program_self / plain, "ratio")

    spans_path = os.path.join(work, "spans.jsonl")
    rec.write(spans_path, {"workload": wl.name, "seed": args.seed,
                           "blas_threads": BLAS_THREADS, "ops": ops})
    info = [f"traced {ops} ops in {len(passes)} passes: {traced_s:.2f} s traced, "
            f"{plain:.2f} s plain; spans -> {os.path.relpath(spans_path, ROOT)}",
            "self time by resolved name (s/op, calls/op):"]
    for name, (calls, self_s, _) in sorted(by_name.items(), key=lambda kv: -kv[1][1]):
        info.append(f"  {name:<48} {self_s / ops:10.6f} {calls / ops:9.2f}")
    return runner, metrics, {}, info


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "flipkit", "__init__.py")):
        print(f"error: no flipkit sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, os.path.join(ROOT, "tests"))
    sys.path.insert(0, HERE)
    import scipy
    from workloads import WORKLOADS, SphereCli

    wl = WORKLOADS[args.workload]()
    if isinstance(wl, SphereCli) and args.rounds is not None:
        wl.corpus_size = min(wl.corpus_size, args.rounds)
    if args.seed is None:
        args.seed = wl.default_seed
    work = os.path.join(HERE, ".work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    runner, metrics, extra, info = (traced if args.trace else measure)(args, wl, work)

    print(f"# flipkit benchmark: workload {wl.name}, seed {args.seed}, "
          f"trace {args.trace}, {args.seconds:g} s")
    print(f"# python {platform.python_version()}, numpy {np.__version__}, "
          f"scipy {scipy.__version__}, {os.cpu_count()} cpus, "
          f"BLAS/OpenMP threads capped at {BLAS_THREADS}")
    for line in info:
        print(f"# {line}")
    for line in runner.failures:
        print(f"# FAILED {line}")
    extra["failed_frac"] = (runner.failed / runner.attempted, "ratio")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name:<44} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
