"""SHA-256 pins of the outputs: byte identity as a test.

Two digests per seed, over the inputs of the `solve-genus2` and
`quotient-flip` benchmark workloads, and one over the `sphere-cli`
workload, drawn by the recipe of `perfbench/README.md` (nothing here
imports the benchmark):

- solver: per n = 1, 2, 3 of round 0, targets -U(0.5, 3.5) per vertex,
  redrawn until the sum exceeds -4 pi + 0.5; the digest covers the bytes of
  the solved heights and of the achieved curvatures;
- quotient flip: per n = 1, 2, 3 of rounds 0 and 1, heights U(0.55, 0.95)
  plus U(-0.08, 0.08) per ray; the digest covers the canonical JSON of the
  flipped left projection and the bytes of the curvatures;
- quotient projections: the same draws over all 16 rounds of the
  `quotient-flip` workload at its seed 99; the digest covers the canonical
  JSON of the left projection, of the right projection and of the flip of
  the left one (QUOTIENT_PROJECT_DIGEST_ALL);
- sphere cli: the first 9 polyhedra of the seed-20240817 corpus (sizes 6
  to 14, drawn by `random_polyhedron` from one stream), each run through
  the six commands of the workload in a scratch directory with relative
  file names; the digest covers every exit code, stdout and stderr and
  the bytes of every output file.  SPHERE_CLI_DIGEST_ALL is the same
  digest over all 100 polyhedra of the workload; it takes several seconds,
  so CI asserts it in a step of its own, outside the test suite.

A change that is meant to keep every output bit leaves these digests as
they are.  After a deliberate change, print the new ones with

    PYTHONPATH=src:tests python tests/test_digests.py

and say in the change log what changed and why.
"""

import contextlib
import hashlib
import io
import math
import os
import tempfile

import numpy as np
import pytest

from conftest import random_polyhedron
from flipkit import cli
from flipkit import io as fio
from flipkit.fuchsian import (
    FuchsianConfig,
    ads_project,
    curvatures,
    genus2_group,
    orbit_hull,
    solve_prescribed_curvature,
)
from flipkit.tilings import Side, flip

# the rays of the benchmark workloads
RAYS = {
    1: [(0.25, 0.15)],
    2: [(0.3, 0.1), (-0.4, 0.35)],
    3: [(0.3, 0.1), (-0.4, 0.35), (0.05, -0.55)],
}

SOLVER_DIGESTS = {
    99: "e608014d345d0e1c2760f5b5f963a3886c7bf9bb3bfaa12cf555fb2ddd287094",
    5: "a6ae9e4312a27ab3fd3caacf7e0aaf855ce38f309e3ac6fdad866bc17191c630",
}
QUOTIENT_FLIP_DIGESTS = {
    7: "f4b49e9c1491d103ab670dab2adacd768634582c159dedd89a7c5f9540e9fe64",
    31: "4bf6d5965d23635e5f2ade944b15849450a4d23499c577867605cae1f4a4194c",
}
QUOTIENT_PROJECT_SEED = 99
QUOTIENT_PROJECT_DIGEST_ALL = "7d348be1849095fb3ef31492cfad7704dc92827ec39a0ced224fb6cbc6f5c5c0"

SPHERE_CLI_SEED = 20240817
SPHERE_CLI_DIGEST = "3f0d4eae725d419504b9b05537bdcd43ff7440edf5f2b68e1b4459fcfdc0d59c"
SPHERE_CLI_DIGEST_ALL = "ddb61ffe282d4928145ca792f8c2b348f8abb5cec6f5dbcc2e7a013e3cfed3fd"
SPHERE_CLI_COMMANDS = (
    ["dual", "--in", "{src}", "--out", "dual.json"],
    ["project", "--in", "{src}", "--out", "tiling.json", "--side", "left"],
    ["flip", "--in", "tiling.json", "--out", "flipped.json"],
    ["reconstruct", "--in", "flipped.json", "--out", "poly2.json"],
    ["check", "--in", "tiling.json", "--batch", "flipped.json", "dual.json", "poly2.json"],
    ["render", "--in", "tiling.json", "--out", "tiling.svg"],
)
SPHERE_CLI_OUTPUTS = ("dual.json", "tiling.json", "flipped.json", "poly2.json", "tiling.svg")


def _rays(n):
    return np.array([[x, y, math.sqrt(1.0 + x ** 2 + y ** 2)] for x, y in RAYS[n]])


def solver_digest(group, seed):
    rng = np.random.default_rng(seed)
    digest = hashlib.sha256()
    for n in (1, 2, 3):
        while True:
            k = -rng.uniform(0.5, 3.5, size=n)
            if np.sum(k) > -4 * np.pi + 0.5:
                break
        out = solve_prescribed_curvature(FuchsianConfig(group, _rays(n), targets=k))
        digest.update(out["heights"].tobytes())
        digest.update(out["achieved_curvatures"].tobytes())
    return digest.hexdigest()


def quotient_surfaces(group, seed, rounds):
    """The surfaces the `quotient-flip` workload draws at `seed`: per round,
    heights near a common level on the rays of n = 1, 2, 3."""
    rng = np.random.default_rng(seed)
    for _ in range(rounds):
        for n in (1, 2, 3):
            h = rng.uniform(0.55, 0.95) + rng.uniform(-0.08, 0.08, size=n)
            yield orbit_hull(FuchsianConfig(group, _rays(n), heights=h))


def quotient_flip_digest(group, seed, rounds=2):
    digest = hashlib.sha256()
    for surf in quotient_surfaces(group, seed, rounds):
        k = curvatures(surf)
        F = flip(ads_project(surf, Side.LEFT))
        digest.update(fio.canonical_json(fio.tiling_to_dict(F)).encode())
        digest.update(k.tobytes())
    return digest.hexdigest()


def quotient_project_digest(group, seed=QUOTIENT_PROJECT_SEED, rounds=16):
    """Digest the text of both projections of the `quotient_surfaces` and
    of the flip of the left one."""
    digest = hashlib.sha256()
    for surf in quotient_surfaces(group, seed, rounds):
        left = ads_project(surf, Side.LEFT)
        for T in (left, ads_project(surf, Side.RIGHT), flip(left)):
            digest.update(fio.canonical_json(fio.tiling_to_dict(T)).encode())
    return digest.hexdigest()


def sphere_cli_digest(count=9):
    """Run the sphere-cli commands over the first `count` corpus polyhedra
    in the current directory and digest what they print and write."""
    rng = np.random.default_rng(SPHERE_CLI_SEED)
    digest = hashlib.sha256()
    for i in range(count):
        src = f"p{i:03d}.json"
        fio.dump_json(fio.polyhedron_to_dict(random_polyhedron(rng, 6 + i % 9)), src)
        for argv in SPHERE_CLI_COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([a.format(src=src) for a in argv])
            digest.update(f"{code}\n{out.getvalue()}\n{err.getvalue()}\n".encode())
        for name in SPHERE_CLI_OUTPUTS:
            with open(name, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def group():
    return genus2_group()


@pytest.mark.parametrize("seed", sorted(SOLVER_DIGESTS))
def test_solver_digest(group, seed):
    assert solver_digest(group, seed) == SOLVER_DIGESTS[seed]


@pytest.mark.parametrize("seed", sorted(QUOTIENT_FLIP_DIGESTS))
def test_quotient_flip_digest(group, seed):
    assert quotient_flip_digest(group, seed) == QUOTIENT_FLIP_DIGESTS[seed]


def test_quotient_project_digest(group):
    assert quotient_project_digest(group) == QUOTIENT_PROJECT_DIGEST_ALL


def test_sphere_cli_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert sphere_cli_digest() == SPHERE_CLI_DIGEST


if __name__ == "__main__":
    g = genus2_group()
    print("SOLVER_DIGESTS", {s: solver_digest(g, s) for s in SOLVER_DIGESTS})
    print("QUOTIENT_FLIP_DIGESTS",
          {s: quotient_flip_digest(g, s) for s in QUOTIENT_FLIP_DIGESTS})
    print("QUOTIENT_PROJECT_DIGEST_ALL", quotient_project_digest(g))
    for name, count in (("SPHERE_CLI_DIGEST", 9), ("SPHERE_CLI_DIGEST_ALL", 100)):
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            print(name, sphere_cli_digest(count))
