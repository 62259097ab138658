"""Acceptance gate: one test per exit criterion, at full sample counts.

Each test prints a PASS/FAIL line so a plain pytest run doubles as the
acceptance record.
"""

import ast
import dataclasses
import pathlib

import numpy as np
import pytest

import grassmoment
from grassmoment import acceptance

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
    # The count and the orbits come from one chamber_orbits() call.
    from grassmoment import regularity

    calls = []
    enumerate_chambers = regularity.enumerate_chambers
    for module in (regularity, acceptance):  # wherever the name is bound
        monkeypatch.setattr(module, "enumerate_chambers",
                            lambda n=4: calls.append(n) or enumerate_chambers(n), raising=False)
    result = acceptance.check_chambers(SEED, SAMPLES)
    assert result.passed and result.details["chamber_count"] == 8
    assert calls == [4]


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


def test_criterion_05_fails_when_the_projective_verdict_flips(monkeypatch):
    from grassmoment import regularity

    split_walls = regularity._off_split_walls
    monkeypatch.setattr(regularity, "_off_split_walls", lambda *args: not split_walls(*args))
    result = acceptance.check_regular_dichotomy(SEED, SAMPLES)
    assert not result.passed
    assert result.details["mismatches"] > 0


def test_criterion_06_tests_the_strided_grid(monkeypatch):
    from test_regularity import hypersimplex_grid

    oracle = acceptance.projective_bruteforce_verdicts
    seen = []

    def recording(points, n):
        seen.extend(points)
        return oracle(points, n)

    monkeypatch.setattr(acceptance, "projective_bruteforce_verdicts", recording)
    assert acceptance.check_oracle_equivalence(SEED, SAMPLES).passed
    assert seen == list(hypersimplex_grid(4, 18))[::22][:200]


def test_criterion_06_fails_against_a_constant_closed_form(monkeypatch):
    monkeypatch.setattr(acceptance, "is_regular_projective", lambda x, n: True)
    result = acceptance.check_oracle_equivalence(SEED, SAMPLES)
    assert not result.passed
    assert result.details["disagreements"] == 86  # the critical points among the 200


def test_criterion_07_fiber5_certificates():
    result = _run(acceptance.check_fiber5)
    assert result.passed
    assert result.details["max_plucker_residual"] <= 1e-10
    assert result.details["max_moment_residual"] <= 1e-10
    assert result.details["max_surface_roundtrip"] <= 1e-10
    assert result.details["max_sphere_roundtrip"] <= 1e-10


def test_criterion_08_complete_intersection():
    result = _run(acceptance.check_complete_intersection)
    assert result.passed
    assert result.details["max_f_deviation"] <= 1e-9
    assert result.details["all_ranks_3"]
    assert result.details["max_fd_deviation"] <= 1e-6


def test_criterion_09_bundle_structure():
    result = _run(acceptance.check_bundle_structure)
    assert result.passed
    assert result.details["determinant"] == -1
    assert result.details["max_cocycle_error"] <= 1e-12


def test_criterion_09_checks_coverage_at_one_sample(monkeypatch):
    # At samples = 1 the coverage batch still holds a point, so a batch whose
    # every point is off the charts fails the criterion.
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


def test_criterion_10_center_parity():
    result = _run(acceptance.check_center_parity)
    assert result.passed


def test_criterion_11_dimension_counts():
    result = _run(acceptance.check_dimension_counts)
    assert result.passed
    assert result.details["dims7"] == [7]
    assert result.details["dims5"] == [5]


def test_criterion_12_second_orbit():
    result = _run(acceptance.check_second_orbit)
    assert result.passed
    assert result.name == "second orbit swap images"
    residuals = ("max_moment_residual_mq7", "max_moment_residual_mq5", "max_plucker_residual")
    assert set(result.details) == {"samples", *residuals}
    assert result.details["samples"] == SAMPLES
    assert all(result.details[key] <= 1e-10 for key in residuals)


def test_criterion_12_fails_without_the_swap(monkeypatch):
    # The C- points themselves map to q-, a max-norm distance 1/3 from q+.
    monkeypatch.setattr(acceptance.fb, "orbit_swap", lambda z: z)
    result = acceptance.check_second_orbit(SEED, SAMPLES)
    assert not result.passed
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


# -- the public surface --------------------------------------------------------

#: Names the grassmoment package exports that no code in src/ uses, each with
#: the reason it stays.
UNCALLED_EXPORTS = {
    "orbit_dimension": "exact oracle of the float tangent dimensions and of the critical values",
    "from_chart": "round-trip oracle of plucker.chart_array",
    "symmetric_power_phases": "equivariance oracle: the paper's representation T^n -> T^N",
    "is_regular_projective_bruteforce": "the unfiltered definition the batch oracle is "
                                        "tested against; perfbench's tracer looks it up",
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
    """Each name grassmoment exports, imported or lazy, is used in src/
    outside its own definition, or is listed in UNCALLED_EXPORTS."""
    package = pathlib.Path(grassmoment.__file__).parent
    init = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    exported = {alias.asname or alias.name for node in init.body if isinstance(node, ast.ImportFrom)
                for alias in node.names} | set(grassmoment.__all__)
    used = {name for path in package.glob("*.py") if path.name != "__init__.py"
            for name, enclosing in _references(ast.parse(path.read_text(encoding="utf-8")))
            if name not in enclosing}
    assert exported - used == set(UNCALLED_EXPORTS)


#: The public names of grassmoment; loading the float layer lazily keeps them all.
PUBLIC_NAMES = {
    "CHAMBER_POINT_MINUS", "CHAMBER_POINT_PLUS", "ChamberOrbit", "ChamberReport", "GrassmannPoint",
    "acceptance", "affine_rank", "arrangement_for_n", "center_point_regular", "chamber_orbits",
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
