"""Acceptance suite: every exit criterion as a runnable check.

Each criterion is declared once, by ``_criterion``, and its check returns
a CriterionResult with a hard pass/fail verdict at its pinned tolerance.
Within one ``run_all`` call ``_once`` computes each shared value once: the
seeded batch per fiber kind that criteria 4, 7, 8, 9, 11 and 12 check, its
``fibers4.certify`` certificate (the checks ``fiber`` runs) that criteria 4,
7, 8 and 9 read, and the n = 4 grid walk that criterion 5 reads and
criterion 6 checks.  The CLI ``report`` command and the test suite both
drive these functions, so the shipped verdicts and the tested verdicts are
the same code path.
"""

from __future__ import annotations

import contextvars
import functools
import time
from dataclasses import dataclass
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
    _bruteforce_verdicts,
    _grid_verdicts,
    center_point_regular,
    chamber_orbits,
    classify_point,
    solve_moment_triangle,
)

F = Fraction


@dataclass
class CriterionResult:
    number: int
    name: str
    short: str
    passed: bool
    seconds: float
    details: dict

    def to_json(self) -> dict:
        """The verdict as ``report`` emits it; the seconds go to its timings, keyed by short."""
        return {key: getattr(self, key) for key in ("number", "name", "passed", "details")}


def _require_samples(samples: int) -> None:
    """Refuse a sample count that would let a sampled criterion pass vacuously."""
    if samples <= 0:
        raise ValueError(f"samples must be a positive integer, got {samples}")


#: (short name, check) per criterion, in criterion order; ``_criterion`` fills it.
CRITERIA: tuple = ()

#: The values computed in the running ``run_all`` call, by (function, *args); None outside one.
_shared: contextvars.ContextVar[dict | None] = contextvars.ContextVar("shared", default=None)


def _once(make, *args):
    """make(*args), computed once per ``run_all`` call and shared by its checks; a
    check run alone computes its own.  Shared values must be read-only."""
    store = {} if _shared.get() is None else _shared.get()
    key = (make, *args)
    if key not in store:
        store[key] = make(*args)
    return store[key]


def _batch(kind: str, seed: int, count: int) -> np.ndarray:
    """The seed's first draw of ``count`` points of fiber ``kind``, read-only."""
    points = fb.sample_for_kind(kind, np.random.default_rng(seed), count)
    points.flags.writeable = False
    return points


def _certified(kind: str, seed: int, count: int) -> fb.Certificates:
    """``certify`` of ``_batch(kind, seed, count)``, as ``fiber`` runs it; every array read-only."""
    batch = fb.certify(kind, _once(_batch, kind, seed, count))
    checked = [array for value, _, ok in batch.checks.values() for array in (value, ok)]
    for array in [*batch.residuals.values(), *checked, batch.f_values, batch.ranks]:
        if array is not None:
            array.flags.writeable = False
    return batch


def _criterion(number: int, name: str, short: str):
    """Declare criterion ``number`` from a body (seed, samples) -> (passed,
    details) and register it under ``short`` in CRITERIA.  The check(seed,
    samples) it returns refuses a non-positive sample count, times the body
    and wraps its verdict in a CriterionResult."""
    def declare(body):
        @functools.wraps(body)
        def check(seed: int = DEFAULT_SEED, samples: int = DEFAULT_SAMPLES) -> CriterionResult:
            _require_samples(samples)
            started = time.perf_counter()
            passed, details = body(seed, samples)
            return CriterionResult(number, name, short, bool(passed),
                                   time.perf_counter() - started, details)

        global CRITERIA
        CRITERIA += ((short, check),)
        return check
    return declare


@_criterion(1, "chamber count and orbits", "chambers")
def check_chambers(seed: int, samples: int) -> tuple[bool, dict]:
    """Criterion 1: eight maximal chambers in two orbits of four; two
    disjoint orbits of four are the eight chambers."""
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
    return passed, details


@_criterion(2, "exact solution triangle", "triangle")
def check_triangle(seed: int, samples: int) -> tuple[bool, dict]:
    """Criterion 2: exact triangle vertices and their exact moment image."""
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
    return passed, details


@_criterion(3, "edge curve points", "curve")
def check_curve_points(seed: int, samples: int) -> tuple[bool, dict]:
    """Criterion 3: lifted sphere points hit the three edge images; curve residuals."""
    lifted = np.array([fiber.base for fiber in fb.edge_fibers()])
    expected = np.array(fb.EDGE_IMAGES, dtype=float)
    image_err = float(np.max(np.abs(simplex_moment(lifted) - expected)))
    residuals = {
        "(0,1/6)": fb.curve_residual(0.0, 1.0 / 6.0),
        "(1/6,1/6)": fb.curve_residual(1.0 / 6.0, 1.0 / 6.0),
    }
    passed = image_err <= 1e-12 and all(r <= 1e-12 for r in residuals.values())
    details = {"max_image_error": image_err, "curve_residuals": residuals}
    return passed, details


@_criterion(4, "7-fiber parametrization", "fiber7")
def check_fiber7(seed: int, samples: int) -> tuple[bool, dict]:
    """Criterion 4: seeded 7-fiber samples pass every check of their certificate
    and round trip."""
    batch = _once(_certified, "mq7", seed, samples)
    max_round = float(np.max(fb.fiber7_roundtrip_error(batch.points)))
    passed = np.all(batch.passed) and max_round <= 1e-10
    details = {
        "samples": samples,
        "max_moment_residual": float(np.max(batch.residuals["moment"])),
        "min_tail_modulus": float(np.min(batch.residuals["min_tail"])),
        "max_roundtrip_error": max_round,
    }
    return passed, details


@_criterion(5, "regular value dichotomy", "dichotomy")
def check_regular_dichotomy(seed: int, samples: int) -> tuple[bool, dict]:
    """Criterion 5: the two regularity notions coincide on the full n=4 grid
    and split at the reference n=5 point.  _grid_verdicts walks the grid k/18
    as numerators at denominator 18, one head row at a time, once per run_all
    call.  At n = 4 no split wall fits, so the grid half compares two closed
    forms that agree by construction; criterion 6 checks the walk's verdicts
    against the definition."""
    grid = _once(_grid_verdicts, 4, 18)
    mismatched = [regular_mu != regular_mu_tilde for _, regular_mu, regular_mu_tilde in grid]
    gap_point = vector(["7/10", "6/10", "5/10", "1/10", "1/10"])
    _, regular_mu, regular_mu_tilde = classify_point(gap_point, 5)
    gap_ok = regular_mu and not regular_mu_tilde
    passed = not any(mismatched) and gap_ok
    details = {
        "grid_points": len(mismatched),
        "mismatches": sum(mismatched),
        "n5_point_grassmann_regular_projective_nonregular": gap_ok,
    }
    return passed, details


@_criterion(6, "brute-force oracle equivalence", "oracle")
def check_oracle_equivalence(seed: int, samples: int) -> tuple[bool, dict]:
    """Criterion 6: the projective verdicts of criterion 5's grid walk agree
    with the brute-force oracle, one batch that tests each of 200 strided grid
    points against every vertex-spanned flat.  The oracle's integer core reads
    the walk's numerators at denominator 18, so no Fraction is built."""
    grid = _once(_grid_verdicts, 4, 18)
    chosen = grid[::len(grid) // 200][:200]
    oracle = _bruteforce_verdicts([(point, 18) for point, _, _ in chosen], 4)
    disagreements = sum(regular != verdict for (_, _, regular), verdict in zip(chosen, oracle))
    passed = disagreements == 0 and len(chosen) == 200
    details = {"points": len(chosen), "disagreements": disagreements}
    return passed, details


@_criterion(7, "5-fiber certificates", "fiber5")
def check_fiber5(seed: int, samples: int) -> tuple[bool, dict]:
    """Criterion 7: one seeded 5-fiber batch passes every check of its
    certificate and round trips through both parametrizations; the base
    projection collapses the circle and separates the batch's surface
    sections, each paired with its other closure branch (its conjugate) and
    with the section before it."""
    batch = _once(_certified, "mq5", seed, samples)
    points = batch.points
    max_f_round = float(np.max(fb.surface_roundtrip_error(points)))
    max_g_round = float(np.max(fb.sphere_roundtrip_error(points)))
    circle = fb.surface_circle(np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False))
    max_circle = float(np.max(projective_distance(fb.base_projection(circle),
                                                  normalize_projective([1.0, 1.0]))))
    sections = fb.surface_torus_preimage(points)[0]
    first = np.concatenate([sections, sections])
    second = np.concatenate([sections.conj(), np.roll(sections, 1, axis=0)])
    distinct = np.abs(first[:, 0] - second[:, 0]) + np.abs(first[:, 1] - second[:, 1]) >= 1e-8
    distances = projective_distance(fb.base_projection(first), fb.base_projection(second))
    min_pair_distance = float(np.min(distances[distinct], initial=np.inf))
    passed = (np.all(batch.passed) and max_f_round <= 1e-10 and max_g_round <= 1e-10
              and max_circle <= 1e-10 and min_pair_distance > 1e-12)
    details = {
        "samples_per_parametrization": samples,
        "max_plucker_residual": float(np.max(batch.residuals["plucker"])),
        "max_moment_residual": float(np.max(batch.residuals["moment"])),
        "max_surface_roundtrip": max_f_round,
        "max_sphere_roundtrip": max_g_round,
        "max_circle_collapse_distance": max_circle,
        "min_offcircle_pair_distance": min_pair_distance,
    }
    return passed, details


@_criterion(8, "complete intersection", "intersection")
def check_complete_intersection(seed: int, samples: int) -> tuple[bool, dict]:
    """Criterion 8: equipotential values (0, -1, 0) and Jacobian rank 3, read from
    the certificates of the three edge-circle bases and of criterion 7's batch,
    and the FD cross-check, all on the chart quadrics of the C- fiber over q-."""
    bases = np.array([fiber.sample(np.ones(3, dtype=complex)) for fiber in fb.edge_fibers()])
    certificates = (fb.certify("mq5", bases), _once(_certified, "mq5", seed, samples))
    max_f_dev = max(float(np.max(batch.checks["f_values"][0])) for batch in certificates)
    f_ok = all(np.all(batch.checks["f_values"][2]) for batch in certificates)
    ranks_ok = all(bool(np.all(batch.ranks == 3)) for batch in certificates)
    points = np.concatenate([batch.points for batch in certificates])
    max_fd_dev = fb.jacobian_fd_gap(points, every=50)
    passed = f_ok and ranks_ok and max_fd_dev <= 1e-6
    details = {
        "points": len(points),
        "max_f_deviation": max_f_dev,
        "all_ranks_3": ranks_ok,
        "max_fd_deviation": max_fd_dev,
    }
    return passed, details


@_criterion(9, "bundle structure", "transition")
def check_bundle_structure(seed: int, samples: int) -> tuple[bool, dict]:
    """Criterion 9: unimodular transition, cocycle identity at seeded phases,
    chart coverage read from the certificate of the mq5 batch of criteria 7 and 8."""
    determinant = fb.transition_determinant()
    max_cocycle = fb.cocycle_error(fb.random_phases(np.random.default_rng(seed), (max(samples // 10, 10), 3)))
    coverage_ok = bool(np.all(_once(_certified, "mq5", seed, samples).checks["coverage"][2]))
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
    return passed, details


@_criterion(10, "center point parity", "parity")
def check_center_parity(seed: int, samples: int) -> tuple[bool, dict]:
    """Criterion 10: the center point is regular exactly for odd n, n = 4..10."""
    verdicts = {n: center_point_regular(n) for n in range(4, 11)}
    passed = all(verdicts[n] == (n % 2 == 1) for n in verdicts)
    details = {"verdicts": {str(n): v for n, v in verdicts.items()}}
    return passed, details


@_criterion(11, "tangent dimension counts", "dimensions")
def check_dimension_counts(seed: int, samples: int) -> tuple[bool, dict]:
    """Criterion 11: tangent dimensions 7 and 5 at the first count points of
    each seeded batch, drawn max(samples, count) long so none falls short."""
    count = max(samples // 10, 100)
    dims7 = set(fb.tangent_fiber_dimension(_once(_batch, "mq7", seed, max(samples, count))[:count]).tolist())
    dims5 = set(fb.tangent_fiber_dimension(_once(_batch, "mq5", seed, max(samples, count))[:count],
                                           include_quadric=True).tolist())
    passed = dims7 == {7} and dims5 == {5}
    details = {"points_each": count, "dims7": sorted(dims7), "dims5": sorted(dims5)}
    return passed, details


@_criterion(12, "second orbit swap images", "secondorbit")
def check_second_orbit(seed: int, samples: int) -> tuple[bool, dict]:
    """Criterion 12: swap images of the mq7 and mq5 batches of criteria 4 and 7
    map to q+, and the mq5 images satisfy the Plücker relation.  The swap
    permutes indices, so all it leaves unchanged is checked by criteria 4, 7 and 8."""
    mq7 = fb.orbit_swap(_once(_batch, "mq7", seed, samples))
    mq5 = fb.orbit_swap(_once(_batch, "mq5", seed, samples))
    max_moment7 = float(np.max(fb.moment_residual(mq7, CHAMBER_POINT_PLUS)))
    max_moment5 = float(np.max(fb.moment_residual(mq5, CHAMBER_POINT_PLUS)))
    max_plucker = float(np.max(plucker_relation_residual(normalize_projective(mq5))))
    tol = fb.DEFAULT_TOLERANCES
    passed = (max_moment7 <= tol["moment"] and max_moment5 <= tol["moment"]
              and max_plucker <= tol["plucker"])
    details = {
        "samples": samples,
        "max_moment_residual_mq7": max_moment7,
        "max_moment_residual_mq5": max_moment5,
        "max_plucker_residual": max_plucker,
    }
    return passed, details


def run_all(seed: int = DEFAULT_SEED, samples: int = DEFAULT_SAMPLES,
            only: str | None = None) -> list[CriterionResult]:
    """Run the acceptance criteria, optionally filtered by short name substring.

    Raises ValueError for a non-positive sample count or a filter that
    matches no criterion: either would report a pass that checked nothing.
    """
    selected = [func for name, func in CRITERIA if only is None or only in name]
    if not selected:
        raise ValueError(f"no criterion matches {only!r}")
    shared = _shared.set({})
    try:
        return [func(seed, samples) for func in selected]
    finally:
        _shared.reset(shared)
