"""Acceptance suite: every exit criterion as a runnable check.

Each criterion returns a CriterionResult with a hard pass/fail verdict at
its pinned tolerance.  The CLI ``report`` command and the test suite both
drive these functions, so the shipped verdicts and the tested verdicts
are the same code path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import fibers4 as fb
from .exactgeom import format_vector, vector
from .moment import simplex_moment, weight_map
from .plucker import normalize_projective, plucker_relation_residual, projective_distance
from .regularity import (
    CHAMBER_POINT_MINUS,
    CHAMBER_POINT_PLUS,
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    _grid_numerators,
    _grid_subset_sums,
    _verdicts,
    center_point_regular,
    chamber_orbits,
    classify_point,
    is_regular_projective,
    projective_bruteforce_verdicts,
    solve_moment_triangle,
)

F = Fraction


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    seconds: float
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "number": self.number,
            "name": self.name,
            "passed": self.passed,
            "details": self.details,
        }


def _require_samples(samples: int) -> None:
    """Refuse a sample count that would let a sampled criterion pass vacuously."""
    if samples <= 0:
        raise ValueError(f"samples must be a positive integer, got {samples}")


def _result(number: int, name: str, started: float, passed: bool, details: dict) -> CriterionResult:
    return CriterionResult(number=number, name=name, passed=bool(passed),
                           seconds=time.perf_counter() - started, details=details)


def check_chambers(seed: int = DEFAULT_SEED, samples: int = DEFAULT_SAMPLES) -> CriterionResult:
    """Criterion 1: eight maximal chambers in two orbits of four; two
    disjoint orbits of four are the eight chambers."""
    _require_samples(samples)
    started = time.perf_counter()
    minus, plus = chamber_orbits()
    chambers = {c.id for c in minus.chambers + plus.chambers}
    reps_ok = (minus.representative.representative == CHAMBER_POINT_MINUS
               and plus.representative.representative == CHAMBER_POINT_PLUS)
    passed = (len(chambers) == 8
              and {len(minus.chambers), len(plus.chambers)} == {4}
              and minus.representative.id == (-1, -1, -1)
              and plus.representative.id == (1, 1, 1)
              and reps_ok)
    details = {
        "chamber_count": len(chambers),
        "orbit_sizes": [len(minus.chambers), len(plus.chambers)],
        "representatives": {
            "C-": format_vector(minus.representative.representative),
            "C+": format_vector(plus.representative.representative),
        },
    }
    return _result(1, "chamber count and orbits", started, passed, details)


def check_triangle(seed: int = DEFAULT_SEED, samples: int = DEFAULT_SAMPLES) -> CriterionResult:
    """Criterion 2: exact triangle vertices and their exact moment image."""
    _require_samples(samples)
    started = time.perf_counter()
    triangle = solve_moment_triangle()
    expected = {
        "X01": vector(["0", "0", "1/3", "4/9", "1/9", "1/9"]),
        "X02": vector(["0", "1/3", "0", "1/9", "4/9", "1/9"]),
        "X12": vector(["1/3", "0", "0", "1/9", "1/9", "4/9"]),
    }
    vertices = triangle.vertices
    vertices_ok = all(vertices[k] == expected[k] for k in expected)
    probe_points = list(vertices.values())
    probe_points += [triangle.edge_point(e, F(1, 7)) for e in range(3)]
    probe_points += [triangle.point(F(2, 9), F(2, 9)), triangle.point_from_head(F(1, 10), F(1, 10))]
    images_ok = all(weight_map(p, 4) == CHAMBER_POINT_MINUS for p in probe_points)
    passed = vertices_ok and images_ok
    details = {
        "vertices": {k: format_vector(v) for k, v in vertices.items()},
        "vertices_exact": vertices_ok,
        "probe_points_map_to_chamber_point": images_ok,
    }
    return _result(2, "exact solution triangle", started, passed, details)


def check_curve_points(seed: int = DEFAULT_SEED, samples: int = DEFAULT_SAMPLES) -> CriterionResult:
    """Criterion 3: lifted sphere points hit the three edge images; curve residuals."""
    _require_samples(samples)
    started = time.perf_counter()
    s6 = 1.0 / np.sqrt(6.0)
    lifted = [
        fb.lift_to_fiber(0.0, s6, s6),
        fb.lift_to_fiber(s6, 0.0, s6),
        fb.lift_to_fiber(s6, s6, 0.0),
    ]
    image_err = 0.0
    for point, target in zip(lifted, fb.EDGE_IMAGES):
        expected = np.array([float(v) for v in target])
        image_err = max(image_err, float(np.max(np.abs(simplex_moment(point) - expected))))
    residuals = {
        "(0,1/6)": fb.curve_residual(0.0, 1.0 / 6.0),
        "(1/6,1/6)": fb.curve_residual(1.0 / 6.0, 1.0 / 6.0),
    }
    passed = image_err <= 1e-12 and all(r <= 1e-12 for r in residuals.values())
    details = {"max_image_error": image_err, "curve_residuals": residuals}
    return _result(3, "edge curve points", started, passed, details)


def check_fiber7(seed: int = DEFAULT_SEED, samples: int = DEFAULT_SAMPLES) -> CriterionResult:
    """Criterion 4: seeded 7-fiber samples close the moment equation and round trip."""
    _require_samples(samples)
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    z0, z1, z2 = fb.random_sphere_triple(rng, samples)
    t4, t5 = fb.random_phases(rng, (2, samples))
    point = fb.fiber7_param(z0, z1, z2, t4, t5)
    max_moment = float(np.max(fb.moment_residual(point, CHAMBER_POINT_MINUS)))
    min_tail = float(np.min(fb.fiber7_residuals(point)["min_tail"]))
    max_round = float(np.max(fb.fiber7_roundtrip_error(z0, z1, z2, t4, t5)))
    passed = max_moment <= 1e-10 and min_tail >= 0.33 and max_round <= 1e-10
    details = {
        "samples": samples,
        "max_moment_residual": max_moment,
        "min_tail_modulus": min_tail,
        "max_roundtrip_error": max_round,
    }
    return _result(4, "7-fiber parametrization", started, passed, details)


def check_regular_dichotomy(seed: int = DEFAULT_SEED, samples: int = DEFAULT_SAMPLES) -> CriterionResult:
    """Criterion 5: the two regularity notions coincide on the full n=4 grid
    and split at the reference n=5 point.  The grid points k/18 are read
    as their numerators k at denominator 18, unreduced.  At n = 4 no split
    wall fits, so the grid half compares two closed forms that agree by
    construction; criterion 6 and tests/test_regularity.py's
    test_grassmann_closed_form_is_the_projective_definition_on_the_n4_grid
    check them against the definition."""
    _require_samples(samples)
    started = time.perf_counter()
    verdicts = [_verdicts(k, 18, sums, 4) for k, sums in _grid_subset_sums(4, 18)]
    total = len(verdicts)
    mismatches = sum(regular_mu != regular_mu_tilde for regular_mu, regular_mu_tilde in verdicts)
    gap_point = vector(["7/10", "6/10", "5/10", "1/10", "1/10"])
    _, regular_mu, regular_mu_tilde = classify_point(gap_point, 5)
    gap_ok = regular_mu and not regular_mu_tilde
    passed = mismatches == 0 and gap_ok
    details = {
        "grid_points": total,
        "mismatches": mismatches,
        "n5_point_grassmann_regular_projective_nonregular": gap_ok,
    }
    return _result(5, "regular value dichotomy", started, passed, details)


def check_oracle_equivalence(seed: int = DEFAULT_SEED, samples: int = DEFAULT_SAMPLES) -> CriterionResult:
    """Criterion 6: the closed form agrees with the brute-force oracle, one
    batch that tests each of 200 grid points against every vertex-spanned flat.
    The stride runs over the grid's numerators; only the points kept become
    Fractions."""
    _require_samples(samples)
    started = time.perf_counter()
    grid = list(_grid_numerators(4, 18))
    stride = max(1, len(grid) // 200)
    chosen = [tuple(F(k, 18) for k in point) for point in grid[::stride][:200]]
    oracle = projective_bruteforce_verdicts(chosen, 4)
    disagreements = sum(is_regular_projective(x, 4) != verdict
                        for x, verdict in zip(chosen, oracle))
    passed = disagreements == 0 and len(chosen) == 200
    details = {"points": len(chosen), "disagreements": disagreements}
    return _result(6, "brute-force oracle equivalence", started, passed, details)


def check_fiber5(seed: int = DEFAULT_SEED, samples: int = DEFAULT_SAMPLES) -> CriterionResult:
    """Criterion 7: 5-fiber certificates, both parametrizations, projection facts."""
    _require_samples(samples)
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    surface = fb.sample_surface_section(rng, count=samples)
    phases = fb.random_phases(rng, (samples, 3))
    sphere = fb.sample_sphere_section(rng, count=samples)
    t1, t2 = fb.random_phases(rng, (2, samples))
    points = np.concatenate([fb.surface_torus_param(surface, phases),
                             fb.sphere_torus_param(sphere, t1, t2)])
    max_plucker = float(np.max(plucker_relation_residual(normalize_projective(points))))
    max_moment = float(np.max(fb.moment_residual(points, CHAMBER_POINT_MINUS)))
    max_f_round = float(np.max(fb.surface_roundtrip_error(surface, phases)))
    max_g_round = float(np.max(fb.sphere_roundtrip_error(sphere, t1, t2)))
    circle = fb.surface_circle(np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False))
    max_circle = float(np.max(projective_distance(fb.base_projection(circle),
                                                  normalize_projective([1.0, 1.0]))))
    first = fb.sample_surface_section(rng, count=samples)
    second = fb.sample_surface_section(rng, count=samples)
    distinct = np.abs(first[:, 0] - second[:, 0]) + np.abs(first[:, 1] - second[:, 1]) >= 1e-8
    distances = projective_distance(fb.base_projection(first), fb.base_projection(second))
    min_pair_distance = float(np.min(distances[distinct], initial=np.inf))
    passed = (max_plucker <= 1e-10 and max_moment <= 1e-10
              and max_f_round <= 1e-10 and max_g_round <= 1e-10
              and max_circle <= 1e-10 and min_pair_distance > 1e-12)
    details = {
        "samples_per_parametrization": samples,
        "max_plucker_residual": max_plucker,
        "max_moment_residual": max_moment,
        "max_surface_roundtrip": max_f_round,
        "max_sphere_roundtrip": max_g_round,
        "max_circle_collapse_distance": max_circle,
        "min_offcircle_pair_distance": min_pair_distance,
    }
    return _result(7, "5-fiber certificates", started, passed, details)


def check_complete_intersection(seed: int = DEFAULT_SEED, samples: int = DEFAULT_SAMPLES) -> CriterionResult:
    """Criterion 8: equipotential values (0, -1, 0), Jacobian rank 3, FD cross-check,
    all on the chart quadrics of the C- fiber over q-."""
    _require_samples(samples)
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    bases = np.array([fiber.sample(np.ones(3, dtype=complex)) for fiber in fb.edge_fibers()])
    sampled = fb.sample_fiber5_mixed(rng, np.arange(samples) % 2 == 0)
    points = np.concatenate([bases, sampled])
    deviation, ranks, max_fd_dev = fb.complete_intersection_survey(points, fd_every=50)
    max_f_dev = float(np.max(deviation))
    ranks_ok = bool(np.all(ranks == 3))
    passed = max_f_dev <= 1e-9 and ranks_ok and max_fd_dev <= 1e-6
    details = {
        "points": len(points),
        "max_f_deviation": max_f_dev,
        "all_ranks_3": ranks_ok,
        "max_fd_deviation": max_fd_dev,
    }
    return _result(8, "complete intersection", started, passed, details)


def check_bundle_structure(seed: int = DEFAULT_SEED, samples: int = DEFAULT_SAMPLES) -> CriterionResult:
    """Criterion 9: unimodular transition, cocycle identity, chart coverage."""
    _require_samples(samples)
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    determinant = fb.transition_determinant()
    max_cocycle = fb.cocycle_error(fb.random_phases(rng, (max(samples // 10, 10), 3)))
    coverage_ok = bool(np.all(fb.chart_coverage(fb.sample_fiber5(rng, count=max(samples // 2, 1))).ok))
    fibers = fb.edge_fibers()
    cov0 = fb.chart_coverage(fibers[0].base)
    cov1 = fb.chart_coverage(fibers[1].base)
    classification_ok = bool(cov0.in_chart_m0 and not cov0.in_chart_m1
                             and cov1.in_chart_m1 and not cov1.in_chart_m0)
    passed = (determinant == -1 and max_cocycle <= 1e-12
              and coverage_ok and classification_ok)
    details = {
        "determinant": determinant,
        "max_cocycle_error": max_cocycle,
        "coverage_ok": coverage_ok,
        "edge_classification_ok": classification_ok,
    }
    return _result(9, "bundle structure", started, passed, details)


def check_center_parity(seed: int = DEFAULT_SEED, samples: int = DEFAULT_SAMPLES) -> CriterionResult:
    """Criterion 10: the center point is regular exactly for odd n, n = 4..10."""
    _require_samples(samples)
    started = time.perf_counter()
    verdicts = {n: center_point_regular(n) for n in range(4, 11)}
    passed = all(verdicts[n] == (n % 2 == 1) for n in verdicts)
    details = {"verdicts": {str(n): v for n, v in verdicts.items()}}
    return _result(10, "center point parity", started, passed, details)


def check_dimension_counts(seed: int = DEFAULT_SEED, samples: int = DEFAULT_SAMPLES) -> CriterionResult:
    """Criterion 11: SVD tangent dimensions 7 and 5 at random fiber points."""
    _require_samples(samples)
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    count = max(samples // 10, 100)
    dims7 = set(fb.tangent_fiber_dimension(fb.sample_fiber7(rng, count=count)).tolist())
    dims5 = set(fb.tangent_fiber_dimension(fb.sample_fiber5(rng, count=count),
                                           include_quadric=True).tolist())
    passed = dims7 == {7} and dims5 == {5}
    details = {"points_each": count, "dims7": sorted(dims7), "dims5": sorted(dims5)}
    return _result(11, "tangent dimension counts", started, passed, details)


def check_second_orbit(seed: int = DEFAULT_SEED, samples: int = DEFAULT_SAMPLES) -> CriterionResult:
    """Criterion 12: swap images of 7- and 5-fiber points map to q+, and the
    5-fiber images satisfy the Plücker relation.  The swap permutes indices,
    so all it leaves unchanged is checked by criteria 4, 7 and 8."""
    _require_samples(samples)
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    mq7 = fb.orbit_swap(fb.sample_for_kind("mq7", rng, samples))
    mq5 = fb.orbit_swap(fb.sample_for_kind("mq5", rng, samples))
    max_moment7 = float(np.max(fb.moment_residual(mq7, CHAMBER_POINT_PLUS)))
    max_moment5 = float(np.max(fb.moment_residual(mq5, CHAMBER_POINT_PLUS)))
    max_plucker = float(np.max(plucker_relation_residual(normalize_projective(mq5))))
    passed = max_moment7 <= 1e-10 and max_moment5 <= 1e-10 and max_plucker <= 1e-10
    details = {
        "samples": samples,
        "max_moment_residual_mq7": max_moment7,
        "max_moment_residual_mq5": max_moment5,
        "max_plucker_residual": max_plucker,
    }
    return _result(12, "second orbit swap images", started, passed, details)


CRITERIA = (
    ("chambers", check_chambers),
    ("triangle", check_triangle),
    ("curve", check_curve_points),
    ("fiber7", check_fiber7),
    ("dichotomy", check_regular_dichotomy),
    ("oracle", check_oracle_equivalence),
    ("fiber5", check_fiber5),
    ("intersection", check_complete_intersection),
    ("transition", check_bundle_structure),
    ("parity", check_center_parity),
    ("dimensions", check_dimension_counts),
    ("secondorbit", check_second_orbit),
)


def short_name(number: int) -> str:
    """The CRITERIA name of criterion ``number``; the table is in criterion order."""
    return CRITERIA[number - 1][0]


def run_all(seed: int = DEFAULT_SEED, samples: int = DEFAULT_SAMPLES,
            only: str | None = None) -> list[CriterionResult]:
    """Run the acceptance criteria, optionally filtered by short name substring.

    Raises ValueError for a non-positive sample count or a filter that
    matches no criterion: either would report a pass that checked nothing.
    """
    _require_samples(samples)
    selected = [func for name, func in CRITERIA if only is None or only in name]
    if not selected:
        raise ValueError(f"no criterion matches {only!r}")
    return [func(seed, samples) for func in selected]
