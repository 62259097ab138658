"""Acceptance gate: one test per exit criterion, at full sample counts.

Each test prints a PASS/FAIL line so a plain pytest run doubles as the
acceptance record.
"""

import ast
import dataclasses
import json
import pathlib
from fractions import Fraction as F

import numpy as np
import pytest

import grassmoment
from grassmoment import acceptance, cli, regularity

SEED = acceptance.DEFAULT_SEED
SAMPLES = acceptance.DEFAULT_SAMPLES


def _run(func):
    result = func(SEED, SAMPLES)
    status = "PASS" if result.passed else "FAIL"
    print(f"{status}  criterion {result.number}: {result.name} "
          f"({result.seconds:.2f}s) {result.details}")
    return result


def test_criterion_01_chambers_and_orbits():
    result = _run(acceptance.check_chambers)
    assert result.passed


def test_criterion_01_enumerates_the_chambers_once(monkeypatch):
    # The count and the orbits come from one enumerate_chambers() call, and a run of all
    # criteria shares it with criterion 12.
    from grassmoment import regularity

    calls = []
    enumerate_chambers = regularity.enumerate_chambers
    for module in (regularity, acceptance):  # wherever the name is bound
        monkeypatch.setattr(module, "enumerate_chambers",
                            lambda: calls.append(None) or enumerate_chambers(), raising=False)
    result = acceptance.check_chambers(SEED, SAMPLES)
    assert result.passed and result.details["chamber_count"] == 8
    assert len(calls) == 1
    assert all(result.passed for result in acceptance.run_all(SEED, 8)) and len(calls) == 2


def test_criterion_02_solution_triangle():
    result = _run(acceptance.check_triangle)
    assert result.passed


def test_criterion_03_curve_points():
    result = _run(acceptance.check_curve_points)
    assert result.passed


def test_criterion_04_fiber7_parametrization():
    result = _run(acceptance.check_fiber7)
    assert result.passed
    assert result.details["max_moment_residual"] <= 1e-10
    assert result.details["min_tail_modulus"] >= 0.33
    assert result.details["max_roundtrip_error"] <= 1e-10


def test_criterion_05_regular_dichotomy():
    result = _run(acceptance.check_regular_dichotomy)
    assert result.passed
    assert result.details["grid_points"] == 4579
    assert result.details["mismatches"] == 0
    assert result.seconds < 30.0


def test_criterion_06_oracle_equivalence():
    result = _run(acceptance.check_oracle_equivalence)
    assert result.passed
    assert result.details["points"] == 200


def test_criterion_05_validates_only_the_gap_point(monkeypatch):
    # The grid's verdicts come from regularity._grid_verdicts, so the one
    # _integer_subset_sums call left is classify_point's, at the n = 5 gap point.
    from grassmoment import exactgeom, regularity
    from test_regularity import hypersimplex_grid

    validated, read = [], []
    integer_subset_sums, grid_verdicts = exactgeom._integer_subset_sums, acceptance._grid_verdicts

    def validating(cleared, den, n):
        validated.append(n)
        return integer_subset_sums(cleared, den, n)

    def reading(n, d):
        walk = grid_verdicts(n, d)
        read.extend((tuple(F(v, d) for v in k), regular_mu) for k, regular_mu, _ in walk)
        return walk

    for module in (exactgeom, regularity, acceptance):  # wherever the name is bound
        monkeypatch.setattr(module, "_integer_subset_sums", validating, raising=False)
    monkeypatch.setattr(acceptance, "_grid_verdicts", reading)
    result = acceptance.check_regular_dichotomy(SEED, SAMPLES)
    assert result.passed and validated == [5]
    assert [x for x, _ in read] == list(hypersimplex_grid(4, 18))
    assert sum(regular for _, regular in read) == 2464


def test_criterion_06_tests_the_strided_grid(monkeypatch):
    from test_regularity import hypersimplex_grid

    oracle = acceptance._bruteforce_verdicts
    seen = []

    def recording(targets, n):
        seen.extend(targets)
        return oracle(targets, n)

    monkeypatch.setattr(acceptance, "_bruteforce_verdicts", recording)
    assert acceptance.check_oracle_equivalence(SEED, SAMPLES).passed
    assert {den for _, den in seen} == {18}  # the integer entry, at the grid's denominator
    assert [tuple(F(k, den) for k in num) for num, den in seen] == list(hypersimplex_grid(4, 18))[::22][:200]


def test_criterion_06_fails_against_a_constant_closed_form(monkeypatch):
    grid_verdicts = acceptance._grid_verdicts
    monkeypatch.setattr(acceptance, "_grid_verdicts",
                        lambda n, d: tuple((k, True, True) for k, _, _ in grid_verdicts(n, d)))
    result = acceptance.check_oracle_equivalence(SEED, SAMPLES)
    assert not result.passed
    assert result.details["disagreements"] == 86  # the critical points among the 200


#: Each phase a torus preimage recovers: (preimage, position in its result,
#: column of a stacked phase array or None, check whose round trip it feeds).
PREIMAGE_PHASES = [
    ("fiber7_preimage", 3, None, "check_fiber7", "max_roundtrip_error"),
    ("fiber7_preimage", 4, None, "check_fiber7", "max_roundtrip_error"),
    *[("surface_torus_preimage", 1, k, "check_fiber5", "max_surface_roundtrip") for k in range(3)],
    ("sphere_torus_preimage", 1, None, "check_fiber5", "max_sphere_roundtrip"),
    ("sphere_torus_preimage", 2, None, "check_fiber5", "max_sphere_roundtrip"),
]


@pytest.mark.parametrize("mutant", [np.ones_like, np.conj], ids=["drop", "conjugate"])
@pytest.mark.parametrize("preimage,position,column,check,detail", PREIMAGE_PHASES)
def test_round_trip_criteria_fail_when_a_preimage_loses_a_phase(monkeypatch, mutant, preimage,
                                                                position, column, check, detail):
    # Criteria 4 and 7 check the round trips from sampled points alone, so a
    # preimage that drops or conjugates one phase must show in the rebuilt point.
    original = getattr(acceptance.fb, preimage)

    def broken(z):
        params = list(original(z))
        phases = params[position].copy()
        if column is None:
            phases = mutant(phases)
        else:
            phases[..., column] = mutant(phases[..., column])
        params[position] = phases
        return tuple(params)

    monkeypatch.setattr(acceptance.fb, preimage, broken)
    result = getattr(acceptance, check)(SEED, SAMPLES)
    assert not result.passed
    assert result.details[detail] > 1e-3


def test_criterion_07_fiber5_certificates():
    result = _run(acceptance.check_fiber5)
    assert result.passed
    assert result.details["max_plucker_residual"] <= 1e-10
    assert result.details["max_moment_residual"] <= 1e-10
    assert result.details["max_surface_roundtrip"] <= 1e-10
    assert result.details["max_sphere_roundtrip"] <= 1e-10
    assert result.details["max_section_s3_section_roundtrip"] <= 1e-10
    assert result.details["max_s3_section_s3_roundtrip"] <= 1e-10


@pytest.mark.parametrize("name,mutant,detail", [
    ("from_three_sphere", lambda real: lambda g: real(np.asarray(g)[..., ::-1]),
     "max_section_s3_section_roundtrip"),
    ("to_three_sphere", lambda real: lambda section: 1j * real(section), "max_s3_section_s3_roundtrip"),
], ids=["inverse-swaps-u-and-v", "map-turns-by-i"])
def test_criterion_07_fails_when_the_three_sphere_maps_disagree(monkeypatch, name, mutant, detail):
    # A wrong inverse of the S^3 map, or a wrong map, shows in the round trip from its side.
    monkeypatch.setattr(acceptance.fb, name, mutant(getattr(acceptance.fb, name)))
    result = acceptance.check_fiber5(SEED, SAMPLES)
    assert not result.passed
    assert result.details[detail] > 1e-3


def test_criterion_08_complete_intersection():
    result = _run(acceptance.check_complete_intersection)
    assert result.passed
    assert result.details["max_f_deviation"] <= 1e-9
    assert result.details["all_f_values_ok"] and result.details["all_ranks_3"]
    assert result.details["max_fd_deviation"] <= 1e-6 and result.details["max_gram_gap"] <= 1e-12


def test_criterion_09_bundle_structure():
    result = _run(acceptance.check_bundle_structure)
    assert result.passed
    assert result.details["determinant"] == -1
    assert result.details["max_cocycle_error"] == 0


def test_criterion_09_checks_coverage_at_one_sample(monkeypatch):
    # Coverage is read from the certificate of the whole mq5 batch, one point
    # at samples = 1, so a batch whose every point is off the charts fails.
    real = acceptance.fb.chart_coverage

    def uncovered(z, *args, **kwargs):
        coverage = real(z, *args, **kwargs)
        if np.ndim(z) == 1:  # the two edge-fiber bases of the classification check
            return coverage
        return dataclasses.replace(coverage, ok=np.zeros_like(coverage.ok))

    monkeypatch.setattr(acceptance.fb, "chart_coverage", uncovered)
    result = acceptance.check_bundle_structure(SEED, 1)
    assert not result.passed
    assert result.details["coverage_ok"] is False
    assert result.details["edge_classification_ok"] is True


def test_criteria_04_and_07_apply_every_check_of_the_fiber_certificate(monkeypatch):
    # A norm tolerance of 0 fails points in ``grassmoment fiber``; the
    # criteria read the same certificate, so they fail alike.
    monkeypatch.setitem(acceptance.fb.DEFAULT_TOLERANCES, "norm", 0.0)
    assert not acceptance.check_fiber7(SEED, SAMPLES).passed
    assert not acceptance.check_fiber5(SEED, SAMPLES).passed


def test_criterion_10_center_parity():
    result = _run(acceptance.check_center_parity)
    assert result.passed


def test_criterion_11_dimension_counts():
    result = _run(acceptance.check_dimension_counts)
    assert result.passed
    assert result.details["dims7"] == [7]
    assert result.details["dims5"] == [5]
    assert result.details["max_fd_gap"] <= 1e-8


@pytest.mark.parametrize("samples", [1, 50])
def test_criterion_11_checks_100_points_of_each_kind_below_100_samples(monkeypatch, samples):
    # count = max(samples // 10, 100) exceeds samples here, so a slice of a
    # samples-long batch would check fewer points than points_each claims.
    shapes = []
    real = acceptance.fb.tangent_fiber_dimension

    def recording(points, *args, **kwargs):
        shapes.append(np.shape(points))
        return real(points, *args, **kwargs)

    monkeypatch.setattr(acceptance.fb, "tangent_fiber_dimension", recording)
    result = acceptance.check_dimension_counts(SEED, samples)
    assert result.passed
    assert result.details["points_each"] == 100
    assert shapes == [(100, 6), (100, 6)]


def _second_row_shifted(weights):
    shifted = weights.copy()
    shifted[1, 3] = -3.0  # the -4 of the second chart quadric
    return shifted


def _cross_term_flipped(ci_jacobian):
    def flipped(a):  # the gradient of |a1*a4 - a2*a3|^2 in the third row, negated
        a, cross = acceptance.fb._chart_cross(a)
        grad = np.conj(cross)[..., None] * a[..., ::-1] * np.array([1, -1, -1, 1])
        jacobian = ci_jacobian(a)
        jacobian[..., 2, :] -= 4.0 * np.concatenate([grad.real, -grad.imag], axis=-1)
        return jacobian
    return flipped


def _gradient_norm_dropped(chart_gram):
    def dropped(r, rho):  # the closed-form Gram matrix without 4 rho sum_k r_k in G_22
        gram = chart_gram(r, rho)
        gram[2] -= 4.0 * rho * np.sum(r, axis=-1)
        return gram
    return dropped


def _quadric_all_plus(constraint_rows):
    def all_plus(z, include_quadric):  # rows of z0*z5 + z1*z4 + z2*z3 for the plane quadric's
        rows = constraint_rows(z, include_quadric)
        if include_quadric:
            qprime = z[..., ::-1]
            rows[..., 5, :] = np.concatenate([qprime.real, -qprime.imag], axis=-1)
            rows[..., 6, :] = np.concatenate([qprime.imag, qprime.real], axis=-1)
        return rows
    return all_plus


def _off_surface(failed):
    return not failed[8]["all_f_values_ok"]


def _directions_swapped(solve_moment_triangle):
    def swapped():  # the solution with the directions of x4 and x5 exchanged
        triangle = solve_moment_triangle()
        return dataclasses.replace(triangle, direction_x4=triangle.direction_x5,
                                   direction_x5=triangle.direction_x4)
    return swapped


def _boundary_blind(grid_verdicts):
    def blind(n, d):  # every grid point with a zero coordinate regular under both notions
        return tuple((k, regular or 0 in k, regular_tilde or 0 in k)
                     for k, regular, regular_tilde in grid_verdicts(n, d))
    return blind


#: The residuals criterion 12 reports: its two moment residuals, then its Plucker residual.
RESIDUALS_12 = ("max_moment_residual_mq7", "max_moment_residual_mq5", "max_plucker_residual")


#: Mutants of library code, at least one for each criterion: the name replaced,
#: its module, its replacement (a function of the original), the criteria
#: `report` fails under it, and what the failed criteria's details, by number,
#: show of the fault.
MUTANTS = {
    # criterion 12 moves the batches by the chambers' symmetries, so it fails with criterion 1
    "enumerate_chambers": (acceptance, lambda enumerate_chambers: lambda: enumerate_chambers()[:-1],
                           [1, 12], lambda failed: failed[1] == {"error": "KeyError: (1, 1, 1)"}
                           and failed[12]["chambers"] == 7),
    "solve_moment_triangle": (acceptance, _directions_swapped, [2],
                              lambda failed: not failed[2]["vertices_exact"]),
    "_off_split_walls": (regularity, lambda off_walls: lambda *args: not off_walls(*args), [5, 6],
                         lambda failed: failed[5]["mismatches"] > 0),
    # criterion 5 compares the walk's two verdicts, which stay equal: only the oracle sees it
    "_grid_verdicts": (acceptance, _boundary_blind, [6],
                       lambda failed: failed[6]["disagreements"] == 32),
    "TRANSITION_EXPONENTS_INVERSE": (regularity, lambda inverse: ((1, 0, 0), (1, -1, 1), (0, 0, 1)),
                                     [9], lambda failed: failed[9]["max_cocycle_error"] > 1e-12),
    # the last row negated: the determinant reads +1, and M M^-1 misses I by 2 at (2, 2)
    "TRANSITION_EXPONENTS": (regularity, lambda m: (*m[:2], tuple(-e for e in m[2])), [9],
                             lambda failed: failed[9]["determinant"] == 1 and failed[9]["max_cocycle_error"] == 2),
    "F_TARGET": (acceptance.fb, lambda target: target + np.array([0.0, 1e-7, 0.0]), [7, 8],
                 _off_surface),
    "_CI_WEIGHTS": (acceptance.fb, _second_row_shifted, [7, 8], _off_surface),
    "TAIL_GAP": (acceptance.fb, lambda gap: gap + 1e-6, [3, 4, 7, 8, 12], _off_surface),
    # an exception inside criterion 3 fails it by name; the other criteria still run
    "HEAD_RADIUS2": (acceptance.fb, lambda radius2: 0.3, [3, 4, 7, 8, 12],
                     lambda failed: failed[3]["error"].startswith("ValueError: ")
                     and "x0 + x1 <= 0.3, " in failed[3]["error"]),
    "ci_jacobian": (acceptance.fb, _cross_term_flipped, [8],
                    lambda failed: failed[8]["all_ranks_3"] and failed[8]["max_fd_deviation"] > 1e-6),
    # every rank still reads 3: only the comparison with the Jacobian's own Gram matrix sees it
    "_chart_gram": (acceptance.fb, _gradient_norm_dropped, [8],
                    lambda failed: failed[8]["all_ranks_3"] and failed[8]["max_gram_gap"] > 0.1),
    "center_point_regular": (acceptance, lambda regular: lambda n: True, [10],
                             lambda failed: failed[10]["verdicts"]["4"]),
    # generic fiber points still count dimension 5: only the finite-difference gap sees it
    "_constraint_rows": (acceptance.fb, _quadric_all_plus, [11],
                         lambda failed: failed[11]["dims5"] == [5] and failed[11]["max_fd_gap"] > 1e-8),
    # unsigned, a permutation of the pairs moves the points to the right levels but off the quadric
    "pair_table": (acceptance.fb, lambda table: lambda g: (table(g)[0], (1,) * 6), [12],
                   lambda failed: failed[12]["max_plucker_residual"] > 0.4
                   and max(failed[12][key] for key in RESIDUALS_12[:2]) <= 1e-10),
}


@pytest.mark.parametrize("name", list(MUTANTS))
def test_report_fails_each_mutant_by_name(monkeypatch, capsys, name):
    module, mutate, criteria, shows_fault = MUTANTS[name]
    monkeypatch.setattr(module, name, mutate(getattr(module, name)))
    assert cli.main(["report", "--no-timings"]) == 1
    failed = {c["number"]: c["details"] for c in json.loads(capsys.readouterr().out)["criteria"]
              if not c["passed"]}
    assert list(failed) == criteria and shows_fault(failed)


#: The MUTANTS that move the fiber off the equipotential surface, and whether
#: `fiber mq5 --tol f_values=1e-6` admits the moved points.
FIBER_MUTANTS = {"F_TARGET": True, "_CI_WEIGHTS": False, "TAIL_GAP": False}


@pytest.mark.parametrize("name", list(FIBER_MUTANTS))
def test_fiber_mutants_fail_by_name(monkeypatch, capsys, name):
    # An off-surface point is a failed 'f_values' check (exit 1, the check named
    # with its value and tolerance), never a usage error (exit 2), and --tol
    # f_values is the only bound on the f-values.
    module, mutate, _, _ = MUTANTS[name]
    monkeypatch.setattr(module, name, mutate(getattr(module, name)))

    def run(*argv):
        code = cli.main(list(argv))
        return code, json.loads(capsys.readouterr().out)

    code, fiber = run("fiber", "mq5")
    failed = {c["check"]: c for c in fiber["failing_sample"]["failed_checks"]}
    assert code == 1 and failed["f_values"]["value"] > failed["f_values"]["tolerance"] == 1e-9
    code, jacobian = run("jacobian")
    assert code == 1 and jacobian["details"]["all_ranks_3"] and not jacobian["details"]["all_f_values_ok"]
    assert run("fiber", "mq5", "--tol", "f_values=1e-6")[0] == (0 if FIBER_MUTANTS[name] else 1)


def test_criterion_12_symmetry_images():
    result = _run(acceptance.check_second_orbit)
    assert result.passed
    assert result.name == "symmetry images in every chamber"
    assert set(result.details) == {"samples", "chambers", *RESIDUALS_12}
    assert result.details["samples"] == SAMPLES and result.details["chambers"] == 8
    assert all(result.details[key] <= 1e-10 for key in RESIDUALS_12)


@pytest.mark.parametrize("samples", [1, 7])
def test_criterion_12_checks_every_chamber_at_few_samples(samples, monkeypatch):
    # Fewer rows than chambers wrap around the batch, so every chamber's symmetry moves a row.
    images, moved = acceptance.fb.symmetry_images, []

    def moving(symmetries, z):
        moved.append((list(symmetries), len(z)))
        return images(symmetries, z)

    monkeypatch.setattr(acceptance.fb, "symmetry_images", moving)
    result = acceptance.check_second_orbit(SEED, samples)
    assert result.passed and result.details["samples"] == samples
    assert result.details["chambers"] == 8
    symmetries = [c.symmetry for c in regularity.enumerate_chambers()]
    assert len(set(symmetries)) == 8 and moved == [(symmetries, 8)] * 2


def test_criterion_12_fails_with_the_identity_for_each_chamber(monkeypatch):
    # The C- points themselves map to q-, a max-norm distance 1/3 from q+.
    identity = regularity.SYMMETRIES[0]
    chambers = [dataclasses.replace(c, symmetry=identity) for c in regularity.enumerate_chambers()]
    monkeypatch.setattr(acceptance, "enumerate_chambers", lambda: chambers)
    result = acceptance.check_second_orbit(SEED, SAMPLES)
    assert not result.passed and result.details["chambers"] == 8
    assert result.details["max_moment_residual_mq7"] > 0.3
    assert result.details["max_moment_residual_mq5"] > 0.3


def test_full_suite_wall_time_budget():
    import time

    start = time.time()
    results = acceptance.run_all(SEED, SAMPLES)
    elapsed = time.time() - start
    assert all(r.passed for r in results)
    assert len(results) == 12
    assert elapsed < 60.0


@pytest.mark.parametrize("samples", [0, -3])
def test_nonpositive_samples_are_refused(samples):
    # With no samples the sampled criteria would pass on nothing (an
    # infinite minimum tail modulus), so every entry point refuses them.
    with pytest.raises(ValueError):
        acceptance.run_all(SEED, samples, only="fiber7")
    for _, check in acceptance.CRITERIA:
        with pytest.raises(ValueError):
            check(SEED, samples)


def test_filter_matching_nothing_is_refused():
    with pytest.raises(ValueError, match="nosuch"):
        acceptance.run_all(SEED, SAMPLES, only="nosuch")


#: (short name, number, name, check function name) of each criterion, in order.
#: The report's timing keys and perfbench's acceptance.check_*.s metrics read them.
DECLARED_CRITERIA = [
    ("chambers", 1, "chamber count and orbits", "check_chambers"),
    ("triangle", 2, "exact solution triangle", "check_triangle"),
    ("curve", 3, "edge curve points", "check_curve_points"),
    ("fiber7", 4, "7-fiber parametrization", "check_fiber7"),
    ("dichotomy", 5, "regular value dichotomy", "check_regular_dichotomy"),
    ("oracle", 6, "brute-force oracle equivalence", "check_oracle_equivalence"),
    ("fiber5", 7, "5-fiber certificates", "check_fiber5"),
    ("intersection", 8, "complete intersection", "check_complete_intersection"),
    ("transition", 9, "bundle structure", "check_bundle_structure"),
    ("parity", 10, "center point parity", "check_center_parity"),
    ("dimensions", 11, "tangent dimension counts", "check_dimension_counts"),
    ("symmetry", 12, "symmetry images in every chamber", "check_second_orbit"),
]


def test_criteria_are_declared_once_in_order():
    assert type(acceptance.CRITERIA) is tuple
    results = acceptance.run_all(SEED, 1)
    declared = [(short, result.number, result.name, check.__name__)
                for (short, check), result in zip(acceptance.CRITERIA, results, strict=True)]
    assert declared == DECLARED_CRITERIA
    assert [result.short for result in results] == [short for short, *_ in DECLARED_CRITERIA]
    for _, check in acceptance.CRITERIA:
        assert getattr(acceptance, check.__name__) is check


def test_run_all_reads_the_criteria_at_call_time(monkeypatch):
    # perfbench's tracer swaps CRITERIA for wrapped checks, so run_all must not keep a copy.
    calls = []

    def counted(short, check):
        def wrapped(seed, samples):
            calls.append(short)
            return check(seed, samples)
        return short, wrapped

    swapped = tuple(counted(short, check) for short, check in acceptance.CRITERIA
                    if short in ("curve", "parity"))
    monkeypatch.setattr(acceptance, "CRITERIA", swapped)
    assert [r.number for r in acceptance.run_all(SEED, SAMPLES)] == [3, 10]
    assert calls == ["curve", "parity"]


@pytest.mark.parametrize("samples", [1, SAMPLES])
@pytest.mark.parametrize("seed", [SEED, 7])
def test_shared_batches_couple_no_criteria(seed, samples):
    # Within run_all the sampled criteria read one batch per kind; each
    # verdict must still be the one its check gives when run alone.
    shared = [result.to_json() for result in acceptance.run_all(seed, samples)]
    alone = [check(seed, samples).to_json() for _, check in acceptance.CRITERIA]
    assert shared == alone


def test_run_all_draws_each_fiber_kind_once(monkeypatch):
    calls, certified, walks = [], [], []
    real, certify, grid_verdicts = (acceptance.fb.sample_for_kind, acceptance.fb.certify,
                                    acceptance._grid_verdicts)

    def recording(kind, rng, count):
        calls.append((kind, count))
        return real(kind, rng, count)

    def certifying(kind, z, tolerances=None):
        certified.append((kind, len(z)))
        return certify(kind, z, tolerances)

    def walking(n, d):
        walks.append((n, d))
        return grid_verdicts(n, d)

    monkeypatch.setattr(acceptance.fb, "sample_for_kind", recording)
    monkeypatch.setattr(acceptance.fb, "certify", certifying)
    monkeypatch.setattr(acceptance, "_grid_verdicts", walking)
    assert all(result.passed for result in acceptance.run_all(SEED, SAMPLES))
    assert calls == [("mq7", SAMPLES), ("mq5", SAMPLES)]
    # one certificate per kind for criteria 4, 7, 8 and 9, and one of criterion 8's edge bases
    assert certified == [("mq7", SAMPLES), ("mq5", SAMPLES), ("mq5", 3)]
    assert walks == [(4, 18)]  # criteria 5 and 6 read one walk


def test_shared_batches_are_read_only_and_live_for_one_run(monkeypatch):
    alone = acceptance._batch("mq5", SEED, 10)
    with pytest.raises(ValueError):
        alone[0, 0] = 0.0
    held = []

    def inspecting(seed, samples):
        held.append(dict(acceptance._shared.get()))
        raise RuntimeError("criterion failed to run")

    criteria = dict(acceptance.CRITERIA)
    monkeypatch.setattr(acceptance, "CRITERIA", (("fiber5", criteria["fiber5"]),
                                                 ("dichotomy", criteria["dichotomy"]),
                                                 ("broken", inspecting)))
    with pytest.raises(RuntimeError):
        acceptance.run_all(SEED, SAMPLES)
    assert acceptance._shared.get() is None
    [store] = held
    batch = (acceptance._batch, "mq5", SEED, SAMPLES)
    certified = (acceptance._certified, "mq5", SEED, SAMPLES)
    walk = (acceptance._grid_verdicts, 4, 18)
    assert list(store) == [batch, certified, walk]
    with pytest.raises(ValueError):
        store[batch][0, 0] = 0.0
    np.testing.assert_array_equal(store[batch], acceptance._batch("mq5", SEED, SAMPLES))
    assert store[certified].points is store[batch]  # the certificate holds the batch, not a copy
    with pytest.raises(dataclasses.FrozenInstanceError):
        store[certified].points = None
    shared = store[certified]
    arrays = [shared.f_values, shared.ranks,
              *(array for value, _, ok in shared.checks.values() for array in (value, ok))]
    for array in arrays:
        with pytest.raises(ValueError):
            array[0] = array[0]
    np.testing.assert_array_equal(store[certified].passed,
                                  acceptance._certified("mq5", SEED, SAMPLES).passed)
    assert type(store[walk]) is tuple and store[walk] == acceptance._grid_verdicts(4, 18)
    acceptance.run_all(SEED, 1, only="fiber5")
    assert acceptance._shared.get() is None


def test_cli_and_acceptance_draw_fiber_points_only_through_sample_for_kind():
    samplers = {name for name in dir(acceptance.fb) if name.startswith(("sample", "random_sphere"))}
    package = pathlib.Path(grassmoment.__file__).parent
    for module in ("acceptance.py", "cli.py"):
        tree = ast.parse((package / module).read_text(encoding="utf-8"))
        assert {name for name, _ in _references(tree)} & samplers == {"sample_for_kind"}


# -- the public surface --------------------------------------------------------

#: Names grassmoment exports and public top-level functions and classes of
#: src/ modules that no code in src/ uses, each with the reason it stays.
UNCONSUMED = {
    "orbit_dimension": "exact oracle of the float tangent dimensions and of the critical values",
    "from_chart": "round-trip oracle of plucker.chart_array",
    "symmetric_power_phases": "equivariance oracle: the paper's representation T^n -> T^N",
    "is_regular_projective_bruteforce": "the unfiltered definition the batch oracle is "
                                        "tested against; perfbench's tracer looks it up",
    "is_regular_projective": "the one-point projective regularity test of the API; criteria 5 "
                             "and 6 read the same verdicts from the grid walk, and perfbench's "
                             "classify workload calls it",
    "projective_bruteforce_verdicts": "the brute-force oracle's Fraction entry; criterion 6 "
                                      "calls its integer core, _bruteforce_verdicts",
    "build_certificate": "the one-point view of certify; perfbench's tracer looks it up",
    "jacobian_rank": "the one-point chart Jacobian rank; perfbench's tracer looks it up",
    "sign_vector": "the chamber id on its own; tests check classify_point's ids and the "
                   "chambers' representatives against it",
}


def _references(tree):
    """(name, names of its enclosing definitions) for every Name and
    attribute in tree; an alias from an import counts as the name imported.
    Strings and docstrings are not names, so they do not count."""
    aliases = {alias.asname: alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               for alias in node.names if alias.asname}
    found = []

    def visit(node, enclosing):
        if isinstance(node, ast.Name):
            found.append((aliases.get(node.id, node.id), enclosing))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, enclosing))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return found


def test_every_export_has_a_consumer_in_src():
    """Each name grassmoment exports, imported or lazy, and each public
    top-level function and class of a src/ module is used in src/ outside
    its own definition, or is listed in UNCONSUMED.  A criterion's check
    is used through CRITERIA, where its declaration registers it."""
    package = pathlib.Path(grassmoment.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in package.glob("*.py")}
    init = trees.pop("__init__.py")
    exported = {alias.asname or alias.name for node in init.body if isinstance(node, ast.ImportFrom)
                for alias in node.names} | set(grassmoment.__all__)
    public = {node.name for tree in trees.values() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}
    used = {name for tree in trees.values() for name, enclosing in _references(tree)
            if name not in enclosing} | {check.__name__ for _, check in acceptance.CRITERIA}
    assert (exported | public) - used == set(UNCONSUMED)


#: The public names of grassmoment; loading the float layer lazily keeps them all.
PUBLIC_NAMES = {
    "CHAMBER_POINT_MINUS", "CHAMBER_POINT_PLUS", "ChamberReport", "GrassmannPoint",
    "acceptance", "affine_rank", "arrangement_for_n", "center_point_regular",
    "classify_point", "convex_membership", "enumerate_chambers", "fibers4", "format_rational",
    "format_sign_vector", "format_vector", "from_chart", "grassmann_moment", "hypersimplex_moment",
    "hypersimplex_vertices", "is_regular_grassmann", "is_regular_projective",
    "is_regular_projective_bruteforce", "largest_chamber_witness", "normalize_projective",
    "orbit_dimension", "pairs_lex", "parse_vector", "plucker_embed", "plucker_relation_residual",
    "projective_bruteforce_verdicts", "projective_distance", "rational", "sign_vector",
    "simplex_moment", "symmetric_power_phases", "vector", "weight_map", "weight_vectors",
}


def test_every_public_name_is_listed_and_resolves():
    from grassmoment import moment, plucker

    assert set(grassmoment.__all__) == PUBLIC_NAMES
    assert PUBLIC_NAMES <= set(dir(grassmoment))
    for name in grassmoment.__all__:
        assert getattr(grassmoment, name) is vars(grassmoment)[name]  # resolved, then kept
    assert grassmoment.weight_map is moment.weight_map
    assert grassmoment.GrassmannPoint is plucker.GrassmannPoint
    with pytest.raises(AttributeError, match="nosuch"):
        grassmoment.nosuch
