"""Star geometry and Jacobians against a committed golden file.

tests/data/star_jacobian_golden.json pins, for the AdS surfaces of the
fuchsian tests, the Jacobian, the curvatures, the cone angles at shifted
heights on fixed combinatorics, the convexity classes, the star face areas
and the dual face areas; the solver heights at the round-0 targets of the
`solve-genus2` benchmark (seed 99); and the Jacobians and cone angles of
the spherical star polyhedra of `test_star_jacobian_matches_fd`.  The AdS
part must match bit for bit (as canonical JSON text), the spherical part
to 1e-13 relative: the cone angles entry by entry, the matrices in the max
norm, since an entry whose dihedral sum nearly cancels is rounded to only
about 1e-12 of itself.  After a deliberate change, rewrite the file with

    PYTHONPATH=src:tests python tests/test_star_jacobian_golden.py

and say in the change log what changed and by how much.
"""

import json
import math
import os

import numpy as np
import pytest

from flipkit import io as fio
from flipkit.fuchsian import (
    curvatures,
    genus2_group,
    jacobian,
    minkowski_dual,
    orbit_hull,
    solve_prescribed_curvature,
    sph_star_cone_angles,
    sph_star_jacobian,
)
from reference_geometry import cone_angles_fixed_combinatorics, wedge_convexity
from test_fuchsian import THREE_RAYS, config, random_star

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "star_jacobian_golden.json")

# (rays, heights) of the surf1 / surf2 / surf3 fixtures and of the
# octagon-center surface with false edges
SURFACES = {
    "surf1": ([(0.25, 0.15)], [0.55]),
    "surf2": ([(0.3, 0.1), (-0.4, 0.35)], [0.5, 0.7]),
    "surf3": (THREE_RAYS, [0.5, 0.7, 0.62]),
    "center": ([(0.0, 0.0)], [0.3]),
}
# the rays of the solve-genus2 benchmark
SOLVE_RAYS = {
    1: [(0.25, 0.15)],
    2: [(0.3, 0.1), (-0.4, 0.35)],
    3: [(0.3, 0.1), (-0.4, 0.35), (0.05, -0.55)],
}


def _surface_record(surf):
    faces = sorted(set(surf.stars.wedge_face.tolist()))
    duals, _ = minkowski_dual(surf)
    return {
        "jacobian": jacobian(surf).matrix,
        "curvatures": curvatures(surf),
        "fixed_combinatorics": cone_angles_fixed_combinatorics(
            surf, surf.heights + 0.01
        ),
        "convexity": [
            [[is_true, cls.value] for is_true, cls in wedge_convexity(surf, vid)]
            for vid in range(surf.n)
        ],
        "face_areas": [surf.face_area(fi) for fi in faces],
        "dual_areas": [df.area() for df in duals],
    }


def _solve_targets():
    """Round 0 of the solve-genus2 targets at seed 99: -U(0.5, 3.5) per
    vertex, redrawn until the sum exceeds -4 pi + 0.5."""
    rng = np.random.default_rng(99)
    out = {}
    for n in (1, 2, 3):
        while True:
            k = -rng.uniform(0.5, 3.5, size=n)
            if np.sum(k) > -4 * math.pi + 0.5:
                break
        out[n] = k
    return out


def ads_cases():
    group = genus2_group()
    cases = {
        name: _surface_record(orbit_hull(config(group, rays, heights=h)))
        for name, (rays, h) in SURFACES.items()
    }
    for n, k in _solve_targets().items():
        out = solve_prescribed_curvature(config(group, SOLVE_RAYS[n], targets=k))
        cases[f"solve_n{n}"] = {"heights": out["heights"],
                                "curvatures": out["achieved_curvatures"]}
    return cases


def sphere_cases():
    rng = np.random.default_rng(11)
    out = []
    for _ in range(3):
        _, _, P, order = random_star(rng)
        out.append({"jacobian": sph_star_jacobian(P, order).matrix,
                    "cone_angles": sph_star_cone_angles(P, order)})
    return out


def golden_text():
    return fio.canonical_json({"ads": ads_cases(), "sphere": sphere_cases()})


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_ads_star_outputs_match_golden(golden):
    assert fio.canonical_json(ads_cases()) == fio.canonical_json(golden["ads"])


def test_sphere_star_outputs_match_golden(golden):
    cases = sphere_cases()
    assert len(cases) == len(golden["sphere"])
    for case, ref in zip(cases, golden["sphere"]):
        J, J_ref = case["jacobian"], np.asarray(ref["jacobian"])
        assert np.max(np.abs(J - J_ref)) <= 1e-13 * np.max(np.abs(J_ref))
        np.testing.assert_allclose(
            case["cone_angles"], ref["cone_angles"], rtol=1e-13, atol=0
        )


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        fh.write(golden_text() + "\n")
    print(GOLDEN)
