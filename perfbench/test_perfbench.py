"""Tiny runs of every workload: metric names, output format, failure
counting; and the tolerance of the polyhedron re-dump check.

    python3 -m pytest -q perfbench/test_perfbench.py      (about two minutes)
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _dir in ("src", "tests", "perfbench"):
    sys.path.insert(0, os.path.join(ROOT, _dir))

from conftest import regular_tetrahedron  # noqa: E402
from flipkit import io as fio  # noqa: E402
from workloads import REDUMP_TOL, _reload  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
LAYER_METRICS = {
    "qhull.calls", "qhull.points", "qhull.self_s",
    "fuchsian.orbit_hull.calls", "fuchsian.orbit_hull.self_s",
    "fuchsian.hulls_per_solve", "fuchsian.trial_hulls", "fuchsian.newton_steps",
    "fuchsian.step_accept_ratio", "forms.mul4.calls", "io.bytes_out",
    "cli.main.self_s", "trace.overhead_frac",
} | {f"{layer}.{kind}" for kind in ("calls", "self_s") for layer in (
    "fuchsian.curvatures", "fuchsian.jacobian", "fuchsian.minkowski_dual",
    "fuchsian.ads_project", "fuchsian.recover_heights", "fuchsian.flip_hyperbolic",
    "tilings.project", "tilings.flip", "tilings.white_polyhedron",
    "tilings.validate_tiling", "polyhedra.polar_dual", "polyhedra.hull",
    "polyhedra.from_vertices_and_faces", "io.load_any", "io.dump_json",
    "io.canonical_json", "io.tiling_to_dict", "io.tiling_from_dict",
    "render.render_svg")} | {
    f"{m}.n{n}" for n in (1, 2, 3)
    for m in ("fuchsian.hulls_per_solve", "qhull.points")}


def bench(*args):
    """Run the benchmark; returns the printed metric table, the final JSON
    object and the reported failures."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--seed", "3", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    table, failures = {}, []
    for line in lines[:-1]:
        if line.startswith("# FAILED "):
            failures.append(line[len("# FAILED "):])
        elif not line.startswith("#"):
            name, value, unit = line.split()
            table[name] = (float(value), unit)
    for name, m in result["metrics"].items():
        assert table[name][1] == m["unit"]
    assert len(failures) == result["failed"]
    return table, result, failures


@pytest.mark.parametrize("workload, extra, sizes", [
    ("sphere-cli", {"op_p90_ms"}, ["--rounds", "100"]),
    ("solve-genus2", {"solve_n1_s", "solve_n2_s", "solve_n3_s"}, ["--rounds", "1"]),
    ("quotient-flip", set(), ["--rounds", "1"]),
])
def test_end_to_end_metrics_printed(workload, extra, sizes):
    table, result, failures = bench("--workload", workload, "--trace", "0", *sizes)
    assert result["correct"], failures
    assert set(result["metrics"]) == END_TO_END
    assert END_TO_END | extra | {"failed_frac"} <= set(table)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert table["failed_frac"][0] == pytest.approx(result["failed"] / result["attempted"])


def test_per_layer_metrics_printed():
    assert LAYER_METRICS <= PER_LAYER
    table, result, _ = bench("--workload", "sphere-cli", "--trace", "1",
                             "--rounds", "1")
    assert set(result["metrics"]) == PER_LAYER
    assert table["tilings.project.calls"][0] > 0
    assert table["fuchsian.orbit_hull.calls"][0] == 0


def test_traced_solves_report_hulls_per_n():
    table, result, _ = bench("--workload", "solve-genus2", "--trace", "1", "--rounds", "1")
    assert result["failed"] == 0
    for n in (1, 2, 3):
        assert table[f"fuchsian.hulls_per_solve.n{n}"][0] >= 2
        assert table[f"qhull.points.n{n}"][0] > 0
    assert table["fuchsian.trial_hulls"][0] > 0


@pytest.mark.parametrize("workload, sizes, symptom", [
    ("quotient-flip", ["--rounds", "1"], "flip equality error"),
    ("sphere-cli", ["--rounds", "2"], "not isometric"),
])
def test_corrupted_result_counts_as_failed(workload, sizes, symptom):
    _, before, clean = bench("--workload", workload, "--trace", "0", *sizes)
    table, after, failures = bench("--workload", workload, "--trace", "0",
                                   "--corrupt", "1", *sizes)
    assert after["attempted"] == before["attempted"]
    assert after["correct"] is False
    assert any(f.startswith("op 1 ") and symptom in f for f in failures)
    assert not any(f.startswith("op 1 ") and symptom in f for f in clean)
    assert table["failed_frac"][0] == pytest.approx(after["failed"] / after["attempted"])
    assert table["failed_frac"][0] > 0


@pytest.mark.parametrize("scale, fails", [(1.0, False), (1.0 + 1e-9, True)])
def test_polyhedron_redump_tolerance(tmp_path, scale, fails):
    """A polyhedron file that the loader changes by more than REDUMP_TOL
    fails its operation; the last-bit drift of a unit vertex does not."""
    d = fio.polyhedron_to_dict(regular_tetrahedron())
    d["vertices"][0] = [x * scale for x in d["vertices"][0]]
    path = str(tmp_path / "p.json")
    fio.dump_json(d, path)
    failures, drift = [], []
    _reload(path, fio.polyhedron_to_dict, failures, drift)
    assert bool(failures) == fails, failures
    assert not (fails and drift)
    assert REDUMP_TOL < 1e-9
