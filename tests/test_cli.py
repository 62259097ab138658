import argparse
import contextlib
import dataclasses
import io
import json
import os
import pathlib
import subprocess
import sys
import typing
import warnings

import numpy as np
import orjson
import pytest

from grassmoment import cli, regularity
from grassmoment import fibers4 as fb
from grassmoment.exactgeom import vector
from grassmoment.moment import hypersimplex_moment, weight_map

Q_PLUS = np.array([2 / 3, 4 / 9, 4 / 9, 4 / 9])
STAR = (5, 4, 3, 2, 1, 0)  # the star reverses z0..z5, with no sign


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_chambers_enumeration(capsys):
    code, payload = run_cli(capsys, ["chambers"])
    assert code == 0
    assert len(payload["chambers"]) == 8
    assert payload["orbit_count"] == 2
    assert payload["orbit_sizes"] == [4, 4]
    by_id = {c["id"]: c for c in payload["chambers"]}
    assert by_id["[-1,-1,-1]"]["representative"] == ["1/3", "5/9", "5/9", "5/9"]
    assert by_id["[-1,-1,-1]"]["orbit"] == "C-"
    assert by_id["[1,1,1]"]["representative"] == ["2/3", "4/9", "4/9", "4/9"]
    assert by_id["[1,1,1]"]["orbit"] == "C+"


def test_regular_classify(capsys):
    code, payload = run_cli(
        capsys, ["regular", "--n", "4", "--classify", "1/3,5/9,5/9,5/9"])
    assert code == 0
    assert payload["id"] == "[-1,-1,-1]"
    assert payload["regular_mu"] is True
    assert payload["regular_mu_tilde"] is True


def test_regular_classify_n5_gap_point(capsys):
    code, payload = run_cli(
        capsys, ["regular", "--n", "5", "--classify", "7/10,6/10,5/10,1/10,1/10"])
    assert code == 0
    assert payload["regular_mu"] is True
    assert payload["regular_mu_tilde"] is False


def test_regular_command(capsys):
    code, payload = run_cli(
        capsys, ["regular", "--n", "4", "--classify", "2/3,4/9,4/9,4/9"])
    assert code == 0
    assert payload["id"] == "[1,1,1]"


def test_regular_clears_its_point_once(capsys, monkeypatch):
    # The chamber id and both verdicts read one validation and clearing.
    from grassmoment import exactgeom, regularity

    clear = exactgeom._cleared  # every clearing, clear_denominators' included, runs through it
    calls = []

    def counting(values):
        calls.append(values)
        return clear(values)

    for module in (exactgeom, regularity):  # wherever the name is bound
        monkeypatch.setattr(module, "_cleared", counting, raising=False)
    code, payload = run_cli(
        capsys, ["regular", "--n", "5", "--classify", "7/10,6/10,5/10,1/10,1/10"])
    assert code == 0
    assert (payload["regular_mu"], payload["regular_mu_tilde"]) == (True, False)
    assert len(calls) == 1


def test_regular_answers_beyond_n6(capsys):
    code, payload = run_cli(capsys, ["regular", "--n", "8", "--classify", ",".join(["1/4"] * 8)])
    assert code == 0
    assert payload["regular_mu"] is False
    assert payload["regular_mu_tilde"] is False


def test_regular_refuses_a_short_point(capsys):
    code = cli.main(["regular", "--n", "5", "--classify", "1/2,1/2,1/2,1/2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "point length does not match --n" in captured.err


def test_regular_checks_the_length(capsys):
    code = cli.main(["regular", "--n", "4", "--classify", "1/5,1/5,1/5,1/5,6/5"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: point length does not match --n\n"


@pytest.mark.parametrize("argv", [
    ["regular", "--n", "4", "--classify", "1/3,5/9,5/9,5/0"],
    ["curve", "--x0", "1/0", "--x1", "0"],
])
def test_zero_denominator_is_usage_error(capsys, argv):
    assert cli.main(argv) == 2
    assert capsys.readouterr().out == ""


def test_moment_mu_hat(capsys):
    point = json.dumps([[1.0, 0.0]] + [[0.0, 0.0]] * 5)
    code, payload = run_cli(capsys, ["moment", "--map", "mu_hat", "--point", point])
    assert code == 0
    assert payload["output"] == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]


@pytest.mark.parametrize("map_name", ["mu_hat", "mu_tilde"])
def test_moment_point_length_must_match_n(capsys, map_name):
    code, err = _usage_error_without_warnings(
        capsys, ["moment", "--map", map_name, "--n", "7", "--point", "[[1, 0]]"])
    assert code == 2
    assert "point has 1 coordinates, expected 21 for n=7" in err


def test_moment_mu(capsys):
    matrix = json.dumps([[[1, 0], [0, 0], [0, 0], [0, 0]],
                         [[0, 0], [1, 0], [0, 0], [0, 0]]])
    code, payload = run_cli(capsys, ["moment", "--map", "mu", "--n", "4",
                                     "--point", matrix])
    assert code == 0
    assert payload["output"] == [1.0, 1.0, 0.0, 0.0]


def test_fiber_empty_run(capsys):
    # A run with no samples would pass vacuously, so it is a usage error.
    with pytest.raises(SystemExit) as info:
        cli.main(["fiber", "m2", "--samples", "0"])
    assert info.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["fiber", "mq5", "--samples", "-3"],
    ["jacobian", "--samples", "0"],
    ["report", "--samples", "0", "--only", "fiber7"],
])
def test_nonpositive_samples_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    assert capsys.readouterr().out == ""


def test_fiber_certificates_pass(capsys):
    code, payload = run_cli(capsys, ["fiber", "mq5", "--samples", "5"])
    assert code == 0
    assert payload["aggregate"]["rank_histogram"] == {"3": 5}
    assert payload["aggregate"]["max_residuals"]["plucker"] <= 1e-10
    assert payload["failing_sample"] is None


def test_fiber_second_orbit(capsys):
    # `--orbit plus` emits the star images of the C- points drawn at the same
    # seed, each checked here against q+ without the library's residuals.
    for kind in ("mq7", "mq5", "m2", "m3"):
        argv = ["fiber", kind, "--samples", "20", "--seed", "11"]
        code_minus, minus = run_cli(capsys, argv)
        code, payload = run_cli(capsys, argv + ["--orbit", "plus"])
        assert code == code_minus == 0
        assert payload["second_orbit"] is True
        assert payload["aggregate"]["rank_histogram"] == minus["aggregate"]["rank_histogram"]
        for mirror, cert in zip(payload["certificates"], minus["certificates"], strict=True):
            assert mirror["point"] == [cert["point"][k] for k in STAR]
            assert (mirror["jacobian_rank"], mirror["f_values"]) == (cert["jacobian_rank"],
                                                                     cert["f_values"])
            z = np.array([complex(re, im) for re, im in mirror["point"]])
            assert abs(np.linalg.norm(z) - 1.0) <= 1e-10
            assert np.max(np.abs(hypersimplex_moment(z, 4) - Q_PLUS)) <= 1e-10
            s = np.abs(z) ** 2  # the mirror magnitude system, head from tail
            assert max(abs(s[0] - (s[3] + s[4] + 4 * s[5]) / 3),
                       abs(s[1] - (s[3] + 4 * s[4] + s[5]) / 3),
                       abs(s[2] - (4 * s[3] + s[4] + s[5]) / 3)) <= 1e-10
            if kind != "mq7":
                assert abs(z[0] * z[5] + z[2] * z[3] - z[1] * z[4]) <= 1e-10


def test_fiber_tolerance_override_fails(capsys):
    code, payload = run_cli(capsys, ["fiber", "mq7", "--samples", "2",
                                     "--tol", "moment=1e-30"])
    assert code == 1
    assert payload["failing_sample"] is not None
    failed = payload["failing_sample"]["failed_checks"]
    moment = [entry for entry in failed if entry["check"] == "moment"]
    assert len(moment) == 1 and moment[0]["tolerance"] == 1e-30
    assert moment[0]["value"] == payload["failing_sample"]["residuals"]["moment"] > 1e-30


@pytest.mark.parametrize("override", ["momnet=1e-30", "rank_tol=nan", "moment=inf", "moment",
                                      "roundtrip=1e-300", "norm=-1", "min_tail=-1"])
def test_bad_tolerance_is_usage_error(capsys, override):
    # A misspelt name, a non-finite or a negative value would otherwise
    # change nothing, fail every certificate or pass every tail check, and
    # the run would still report a verdict.
    code = cli.main(["fiber", "mq5", "--samples", "3", "--tol", override])
    assert code == 2
    assert capsys.readouterr().out == ""


def test_output_is_compact_json(capsys):
    code = cli.main(["fiber", "mq5", "--samples", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == json.dumps(json.loads(out), separators=(",", ":")) + "\n"
    assert "failed_checks" not in out


def test_fiber_byte_stability(capsys):
    code1 = cli.main(["fiber", "mq5", "--samples", "4", "--seed", "42"])
    out1 = capsys.readouterr().out
    code2 = cli.main(["fiber", "mq5", "--samples", "4", "--seed", "42"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


# -- certificate rows against the dict tree they replace -----------------------

def certificate_tree(batch):
    """One dict per certificate, column by column; orjson's encoding of this list is
    the independent oracle for Certificates.json_rows."""
    def column(values):
        return [None] * len(batch.points) if values is None else values.tolist()

    moment, plucker, surface = (column(batch.checks[key][0] if key in batch.checks else None)
                                for key in fb.EMITTED_RESIDUALS)
    ranks, f_values = column(batch.ranks), column(batch.f_values)
    points = np.stack([batch.points.real, batch.points.imag], axis=-1).tolist()
    certs = [{"point": p, "residuals": {"moment": m, "plucker": q, "surface": s},
              "jacobian_rank": r, "f_values": f}
             for p, m, q, s, r, f in zip(points, moment, plucker, surface, ranks, f_values)]
    for index in np.flatnonzero(~batch.passed):
        certs[index]["failed_checks"] = [
            {"check": name, "value": float(value[index]), "tolerance": tolerance}
            for name, (value, tolerance, ok) in batch.checks.items() if not ok[index]]
    return certs


def compact(value):
    return json.dumps(value, separators=(",", ":"), allow_nan=False)


def hexed(value):
    """A parsed JSON tree with each float as its float.hex, so -0.0 and 0.0 differ."""
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, list):
        return [hexed(item) for item in value]
    if isinstance(value, dict):
        return {key: hexed(item) for key, item in value.items()}
    return value


@pytest.mark.parametrize("kind,orbit,tol", [
    (kind, orbit, None) for kind in ("mq7", "mq5", "m2", "m3") for orbit in ("minus", "plus")
] + [("mq7", "minus", "moment=1e-30"), ("mq5", "plus", "moment=1e-30")])
def test_fiber_stdout_is_the_dumped_dict_tree(capsys, kind, orbit, tol):
    argv = ["fiber", kind, "--orbit", orbit, "--samples", "60", "--seed", "5"]
    code = cli.main(argv + (["--tol", tol] if tol else []))
    out = capsys.readouterr().out
    tolerances = cli._parse_tolerances([tol] if tol else [], fb.DEFAULT_TOLERANCES)
    batch = fb.certify(kind, fb.sample_for_kind(kind, np.random.default_rng(5), 60), tolerances)
    if orbit == "plus":
        batch = dataclasses.replace(batch, points=fb.symmetry_images([regularity.STAR], batch.points))
    certs = certificate_tree(batch)
    failing = np.flatnonzero(~batch.passed)
    assert code == (1 if tol else 0) and (failing.size > 0) == bool(tol)
    # The skeleton is json's text, the rows orjson's; a NUL string marks each row slot.
    skeleton = {**json.loads(out), "certificates": "\0rows",
                "failing_sample": "\0first" if failing.size else None}
    expected = compact(skeleton).replace('"\\u0000rows"', orjson.dumps(certs).decode())
    if failing.size:
        expected = expected.replace('"\\u0000first"', orjson.dumps(certs[failing[0]]).decode())
    assert out == expected + "\n"
    parsed = json.loads(out)
    assert hexed(parsed["certificates"]) == hexed(certs)
    assert hexed(parsed["failing_sample"]) == hexed(certs[failing[0]] if failing.size else None)
    assert out.count('"failed_checks"') == (failing.size + 1 if tol else 0)


def hand_built(values, f_values=None, failing=()):
    """Certificates of len(values) fixed points with the given moment residuals;
    with f_values, also plucker and surface residuals (the moment ones reversed)
    and rank 3.  The points listed in failing fail their moment check."""
    count = len(values)
    points = np.linspace(-1.0, 1.0, 6 * count).reshape(count, 6) * (1 - 0.5j)
    points[0, :2] = 0.0, -0.0
    moment = np.array(values, dtype=float)
    ok = ~np.isin(np.arange(count), failing)
    checks = {"moment": (moment, 1e-10, ok), "min_tail": (np.full(count, 0.5), 0.33, np.full(count, True))}
    if f_values is None:
        return fb.Certificates(points, None, None, checks)
    for key, column in (("plucker", moment[::-1].copy()), ("surface", moment.copy())):
        checks[key] = (column, 1e-10, np.full(count, True))
    return fb.Certificates(points, np.array(f_values, dtype=float), np.full(count, 3), checks)


ZEROS_AND_REPEATS = [0.0, -0.0, 1e-17, 0.0, -0.0, 1e-17, 2.5e-11, 2.5e-11]


@pytest.mark.parametrize("chart", [False, True], ids=["mq7", "mq5"])
def test_json_rows_keep_signed_zeros_and_repeats(chart):
    f_values = [[-0.0, -1.0, 0.0], [0.0, -1.0, -0.0]] * 4 if chart else None
    batch = hand_built(ZEROS_AND_REPEATS, f_values, failing=(3, 6))
    rows = batch.json_rows()
    assert "[" + ",".join(rows) + "]" == orjson.dumps(certificate_tree(batch)).decode()
    assert hexed([json.loads(row) for row in rows]) == hexed(certificate_tree(batch))
    assert rows[0].startswith('{"point":[[0.0,0.0],[-0.0,0.0],')
    assert '"moment":0.0,' in rows[0] and '"moment":-0.0,' in rows[1]
    assert not chart or '"f_values":[0.0,-1.0,-0.0]' in rows[1]
    assert [index for index, row in enumerate(rows) if "failed_checks" in row] == [3, 6]
    assert fb.certify("mq5" if chart else "mq7", np.empty((0, 6), complex)).json_rows() == []


#: Floats whose text differs most between spellings: signed zero, the subnormal and
#: normal extremes, exponent forms below 1e-4, and 1e16 up to the largest double.
EXTREME_FLOATS = [-0.0, 5e-324, 2.2250738585072014e-308, 1.3805595927814752e-05, 1e-7,
                  1e16, 1.7976931348623157e308]


@pytest.mark.parametrize("chart", [False, True], ids=["mq7", "mq5"])
def test_json_rows_hold_the_exact_bits_of_extreme_floats(chart):
    count = len(EXTREME_FLOATS)
    turned = [EXTREME_FLOATS[i:] + EXTREME_FLOATS[:i] for i in range(count)]
    batch = hand_built(EXTREME_FLOATS, [row[:3] for row in turned] if chart else None,
                       failing=(1, 5))
    batch.points.real, batch.points.imag = [row[:6] for row in turned], [row[1:] for row in turned]
    parsed = [json.loads(row) for row in batch.json_rows()]
    assert [[[float.hex(x) for x in pair] for pair in row["point"]] for row in parsed] == [
        [[float.hex(z.real), float.hex(z.imag)] for z in point] for point in batch.points]
    for key in fb.EMITTED_RESIDUALS if chart else ["moment"]:
        column = batch.checks[key][0]
        assert [float.hex(row["residuals"][key]) for row in parsed] == list(map(float.hex, column))
    assert [hexed(row["f_values"]) for row in parsed] == (
        [[float.hex(v) for v in row] for row in batch.f_values] if chart else [None] * count)
    assert [[float.hex(c["value"]) for c in row.get("failed_checks", [])] for row in parsed] == [
        [float.hex(EXTREME_FLOATS[i])] if i in (1, 5) else [] for i in range(count)]
    assert hexed(parsed) == hexed(certificate_tree(batch))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("where", ["residual", "f_value", "point", "failed_check"])
def test_non_finite_certificate_values_are_refused(capsys, monkeypatch, bad, where):
    # A non-finite float has no RFC 8259 form (orjson would write null): the row
    # refuses it, and the CLI then exits 2 with nothing on stdout.
    values = list(ZEROS_AND_REPEATS)
    f_values = [[0.0, -1.0, 0.0]] * len(values)
    if where == "residual":
        values[4] = bad
    elif where == "f_value":
        f_values[2] = [0.0, bad, 0.0]
    batch = hand_built(values, f_values)
    if where == "point":
        batch.points[5, 3] = complex(0.5, bad)
    elif where == "failed_check":  # min_tail is no emitted column: only failed_checks holds it
        min_tail, _, ok = batch.checks["min_tail"]
        min_tail[6], ok[6] = bad, False
    with pytest.raises(ValueError):
        batch.json_rows()
    monkeypatch.setattr(fb, "certify", lambda *args, **kwargs: batch)
    assert cli.main(["fiber", "mq5", "--samples", str(len(values))]) == 2
    assert capsys.readouterr().out == ""


def test_fiber_json_out_holds_the_stdout_bytes(tmp_path, capsys):
    target = tmp_path / "fiber.json"
    for extra in ([], ["--tol", "moment=1e-30"]):
        code = cli.main(["fiber", "mq5", "--samples", "30", "--json-out", str(target), *extra])
        assert code == (1 if extra else 0)
        assert target.read_bytes() == capsys.readouterr().out.encode()


def test_rank_histogram_hints_resolve():
    # cli imports numpy lazily, so its annotations must not name it.
    assert typing.get_type_hints(cli._rank_histogram) == {"ranks": list[int],
                                                           "return": dict[str, int]}


def test_jacobian_command(capsys):
    code, payload = run_cli(capsys, ["jacobian", "--samples", "10"])
    assert code == 0 and payload["passed"]
    assert payload["details"]["points"] == 13  # the three edge-circle bases and the batch
    assert payload["details"]["all_ranks_3"] and payload["details"]["all_f_values_ok"]
    assert payload["details"]["max_fd_deviation"] <= 1e-6 and payload["details"]["max_gram_gap"] <= 1e-12


@pytest.mark.parametrize("shift", [0.0, 1e-7])
def test_jacobian_is_criterion_8(capsys, monkeypatch, shift):
    # jacobian prints criterion 8's details and verdict, as report does, and
    # exits by that verdict; F_TARGET moved by 1e-7 fails it by its f-values.
    monkeypatch.setattr(fb, "F_TARGET", fb.F_TARGET + np.array([0.0, shift, 0.0]))
    seeded = ["--seed", "7", "--samples", "40"]
    code, jacobian = run_cli(capsys, ["jacobian", *seeded])
    report_code, report = run_cli(capsys, ["report", "--only", "intersection", "--no-timings", *seeded])
    [criterion] = report["criteria"]
    assert criterion["number"] == 8 and criterion["passed"] == (shift == 0.0)
    assert jacobian == {"seed": 7, "samples": 40, "details": criterion["details"],
                        "passed": criterion["passed"]}
    assert code == report_code == (0 if criterion["passed"] else 1)


def test_transition_command(capsys):
    code, payload = run_cli(capsys, ["transition"])
    assert code == 0
    assert payload == {"exponent_matrix": [[1, 1, -1], [1, 0, 0], [0, 0, 1]], "determinant": -1,
                       "cocycle_max_error": 0, "ok": True}


def test_triangle_command(capsys):
    code, payload = run_cli(capsys, ["triangle"])
    assert code == 0
    assert payload["vertices"]["X01"] == ["0", "0", "1/3", "4/9", "1/9", "1/9"]
    assert payload["solution"]["constant"] == ["-1/9", "-1/9", "5/9", "2/3"]


def test_triangle_points_map_to_target(capsys):
    code, payload = run_cli(capsys, ["triangle"])
    assert code == 0
    points = list(payload["vertices"].values())
    points += [p for edge in payload["edges"].values() for p in edge["endpoints"]]
    assert len(points) == 9
    assert all(weight_map(vector(p), 4) == vector(payload["target"]) for p in points)


@pytest.mark.parametrize("argv", [["triangle", "--orbit", "plus"],
                                  ["transition", "--orbit", "minus"],
                                  ["transition", "--samples", "5"],
                                  ["transition", "--seed", "1"],
                                  ["jacobian", "--orbit", "plus"],
                                  ["chambers", "--n", "4"],
                                  ["chambers", "--classify", "1/3,5/9,5/9,5/9"]])
def test_options_of_other_commands_are_refused(capsys, argv):
    # --orbit is fiber's alone, regular alone classifies a point, and transition samples nothing.
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    assert capsys.readouterr().out == ""


def test_regular_refuses_n_above_twenty(capsys):
    code = cli.main(["regular", "--n", "21", "--classify", ",".join(["2/21"] * 21)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "n <= 20" in captured.err


def test_curve_command(capsys):
    code, payload = run_cli(capsys, ["curve", "--x0", "0", "--x1", "1/6"])
    assert code == 0
    assert payload["fixed_sign_residual"] <= 1e-12
    code, payload = run_cli(capsys, ["curve", "--x0", "1/6", "--x1", "0"])
    assert payload["fixed_sign_residual"] > 0.4
    assert payload["closure_residual"] <= 1e-12


def _usage_error_without_warnings(capsys, argv):
    """Exit code and stderr of a run, asserting stdout stays empty and no
    RuntimeWarning is raised on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    return code, captured.err


def test_curve_nan_is_usage_error(capsys):
    code, err = _usage_error_without_warnings(capsys, ["curve", "--x0", "nan", "--x1", "0"])
    assert code == 2
    assert "curve parameters must be finite, got x0=nan" in err


def test_curve_infinite_parameter_is_usage_error(capsys):
    code, err = _usage_error_without_warnings(capsys, ["curve", "--x0", "0", "--x1", "inf"])
    assert code == 2
    assert "curve parameters must be finite, got x0=0.0, x1=inf" in err


def test_moment_bad_json_is_usage_error(capsys):
    # json.JSONDecodeError is a ValueError, so cli.main maps it to exit 2.
    code, err = _usage_error_without_warnings(capsys, ["moment", "--map", "mu_hat", "--point", "[[1, 0]"])
    assert code == 2 and err.startswith("error: Expecting ")


def test_moment_nan_modulus_is_usage_error(capsys):
    point = "[[NaN, 0]" + ", [0, 0]" * 5 + "]"
    code, err = _usage_error_without_warnings(capsys, ["moment", "--map", "mu_hat", "--point", point])
    assert code == 2
    assert "squared moduli of the point sum to nan" in err


@pytest.mark.parametrize("map_name", ["mu_hat", "mu_tilde"])
def test_moment_overflowed_moduli_are_usage_error(capsys, map_name):
    point = "[[1e308, 0], [1e308, 1e308]" + ", [0, 0]" * 4 + "]"
    code, err = _usage_error_without_warnings(
        capsys, ["moment", "--map", map_name, "--n", "4", "--point", point])
    assert code == 2
    assert "squared moduli of the point sum to inf" in err


@pytest.mark.parametrize("modulus, total", [("NaN", "nan"), ("Infinity", "inf"), ("1e200", "inf")])
def test_moment_mu_non_finite_or_overflowed_entry_is_usage_error(capsys, modulus, total):
    point = f"[[[{modulus}, 0], [0, 0], [0, 0], [0, 0]], [[0, 0], [{modulus}, 0], [0, 0], [0, 0]]]"
    code, err = _usage_error_without_warnings(
        capsys, ["moment", "--map", "mu", "--n", "4", "--point", point])
    assert code == 2
    assert f"squared moduli of the 2 x n matrix rows multiply to {total}" in err
    assert "Traceback" not in err


def test_witness_command(capsys):
    code, payload = run_cli(capsys, ["witness", "--n", "5"])
    assert code == 0
    assert payload["witness"] == ["2/5"] * 5


def test_report_only_filter(capsys):
    code, payload = run_cli(capsys, ["report", "--only", "transition",
                                     "--samples", "50"])
    assert code == 0
    assert len(payload["criteria"]) == 1
    assert payload["criteria"][0]["name"] == "bundle structure"
    assert payload["all_passed"] is True


def test_report_timings_sit_apart_from_verdicts(capsys):
    code, payload = run_cli(capsys, ["report", "--only", "fiber", "--samples", "40"])
    assert code == 0
    assert [c["number"] for c in payload["criteria"]] == [4, 7]
    assert all("seconds" not in c for c in payload["criteria"])
    assert list(payload["timings"]) == ["fiber7", "fiber5"]
    assert all(type(v) is float and v >= 0 for v in payload["timings"].values())


def test_report_times_every_criterion_above_zero(capsys):
    # Six decimals keep the sub-millisecond criteria (curve, parity) readable.
    code, payload = run_cli(capsys, ["report", "--samples", "1"])
    assert code == 0
    assert len(payload["timings"]) == 12
    assert all(v > 0 for v in payload["timings"].values())


def test_report_without_timings_is_byte_stable(capsys):
    outputs = []
    for _ in range(2):
        assert cli.main(["report", "--only", "dichotomy", "--no-timings"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    payload = json.loads(outputs[0])
    assert "timings" not in payload
    assert payload["criteria"][0]["number"] == 5


def test_report_filter_matching_nothing_is_usage_error(capsys):
    # An empty selection would report all_passed over no criteria at all.
    code = cli.main(["report", "--only", "nosuch"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "nosuch" in captured.err


def test_report_seed_independent_verdicts(capsys):
    _, first = run_cli(capsys, ["report", "--only", "fiber", "--samples", "40"])
    _, second = run_cli(capsys, ["report", "--only", "fiber", "--samples", "40",
                                 "--seed", "7"])
    verdicts1 = [(c["number"], c["passed"]) for c in first["criteria"]]
    verdicts2 = [(c["number"], c["passed"]) for c in second["criteria"]]
    assert verdicts1 == verdicts2
    assert all(passed for _, passed in verdicts1)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        cli.main(["fiber", "mq9"])
    assert info.value.code == 2


# -- main builds only the invoked subcommand's parser --------------------------

PARSER_ARGVS = [
    *(row["argv"] for row in json.loads(
        pathlib.Path(__file__).with_name("cli_corpus.json").read_text())),
    [], ["-h"], ["bogus"], ["fiber"], ["fiber", "--help"], ["fiber", "mq9"],
    ["jacobian", "--samples", "0"], ["chambers", "--n", "5"],
    # unrecognized arguments are reported with the top-level usage line
    ["report", "--bogus"], ["fiber", "mq5", "extra"],
]


class _Built(Exception):
    pass


def _parsed(parser, argv):
    """The Namespace, or the exit code and output, of one parse."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return parser.parse_args(argv)
        except SystemExit as exit_:
            return exit_.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=" ".join)
def test_mains_parser_parses_as_the_full_one(monkeypatch, argv):
    build_parser = cli.build_parser

    def built(*args):  # main's choice of parser, stopped before it parses
        raise _Built(*args)

    monkeypatch.setattr(cli, "build_parser", built)
    with pytest.raises(_Built) as choice:
        cli.main(list(argv))
    assert _parsed(build_parser(*choice.value.args), argv) == _parsed(build_parser(), argv)


def test_command_errors_name_the_command_argument():
    # The full parser's errors say "command", not the list of commands.
    code, _, err = _parsed(cli.build_parser(), [])
    assert code == 2 and err.endswith("error: the following arguments are required: command\n")
    code, _, err = _parsed(cli.build_parser(), ["bogus"])
    assert code == 2 and "error: argument command: invalid choice: 'bogus'" in err


def test_the_command_table_is_the_full_parsers_subcommands():
    (subparsers,) = [action for action in cli.build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    assert set(subparsers.choices) == set(cli.COMMANDS)


def test_bad_point_is_usage_error(capsys):
    code = cli.main(["regular", "--n", "4", "--classify", "1/3,5/9"])
    capsys.readouterr()
    assert code == 2


def test_json_out_writes_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code = cli.main(["triangle", "--json-out", str(target)])
    capsys.readouterr()
    assert code == 0
    on_disk = json.loads(target.read_text())
    assert on_disk["vertices"]["X12"] == ["1/3", "0", "0", "1/9", "1/9", "4/9"]


def test_unwritable_json_out_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code = cli.main(["regular", "--n", "4", "--classify", "1/3,5/9,5/9,5/9",
                     "--json-out", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--json-out" in captured.err and str(target) in captured.err
    assert not target.parent.exists()


CHAMBERS_N4_STDOUT = (
    '{"n":4,"chambers":['
    '{"id":"[-1,-1,-1]","dim":3,"representative":["1/3","5/9","5/9","5/9"],"orbit":"C-"},'
    '{"id":"[-1,-1,1]","dim":3,"representative":["4/9","4/9","4/9","2/3"],"orbit":"C+"},'
    '{"id":"[-1,1,-1]","dim":3,"representative":["4/9","4/9","2/3","4/9"],"orbit":"C+"},'
    '{"id":"[-1,1,1]","dim":3,"representative":["5/9","1/3","5/9","5/9"],"orbit":"C-"},'
    '{"id":"[1,-1,-1]","dim":3,"representative":["4/9","2/3","4/9","4/9"],"orbit":"C+"},'
    '{"id":"[1,-1,1]","dim":3,"representative":["5/9","5/9","1/3","5/9"],"orbit":"C-"},'
    '{"id":"[1,1,-1]","dim":3,"representative":["5/9","5/9","5/9","1/3"],"orbit":"C-"},'
    '{"id":"[1,1,1]","dim":3,"representative":["2/3","4/9","4/9","4/9"],"orbit":"C+"}'
    '],"orbit_count":2,"orbit_sizes":[4,4]}\n'
)


def test_chambers_stdout_is_pinned(capsys, monkeypatch):
    # The listing reads the chambers and their orbits from one enumeration.
    from grassmoment import regularity

    calls = []
    enumerate_chambers = regularity.enumerate_chambers
    for module in (regularity, cli):  # wherever the name is bound
        monkeypatch.setattr(module, "enumerate_chambers",
                            lambda: calls.append(None) or enumerate_chambers(), raising=False)
    assert cli.main(["chambers"]) == 0
    assert capsys.readouterr().out == CHAMBERS_N4_STDOUT
    assert len(calls) == 1


# -- the exact commands start without the float layer ---------------------------

EXACT_COMMANDS = [
    ["regular", "--n", "5", "--classify", "7/10,6/10,5/10,1/10,1/10"],
    ["chambers"],
    ["witness", "--n", "6"],
    ["triangle"],
    ["transition"],
]


def _python(code, *args):
    """stdout bytes of a fresh interpreter running code on the package in src/."""
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).resolve().parents[1])}
    result = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                            check=True, timeout=60)
    return result.stdout


#: How a fresh interpreter starts the CLI: through cli.main, or as ``python -m grassmoment``.
LAUNCHERS = {"main": "from grassmoment.cli import main; sys.exit(main(sys.argv[1:]))",
             "-m": "import runpy; runpy.run_module('grassmoment', run_name='__main__', alter_sys=True)"}


@pytest.mark.parametrize("launcher, argv",
                         [*(pytest.param("main", argv, id=argv[0]) for argv in EXACT_COMMANDS),
                          pytest.param("-m", EXACT_COMMANDS[0], id="-m regular")])
def test_exact_commands_run_without_numpy(capsys, launcher, argv):
    # With numpy unimportable, any float import on the exact path would raise.
    blocked = _python("import sys; sys.modules['numpy'] = None\n" + LAUNCHERS[launcher], *argv)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.encode() == blocked


def test_the_exact_path_loads_no_float_module():
    loaded = _python("import sys, grassmoment, grassmoment.cli\n"
                     "grassmoment.classify_point(grassmoment.vector(['1/2'] * 4), 4)\n"
                     "print(sorted({'numpy', 'orjson', 'grassmoment.fibers4',"
                     " 'grassmoment.acceptance'} & set(sys.modules)))")
    assert loaded == b"[]\n"


@pytest.mark.parametrize("argv, read", [(["fiber", "mq5", "--samples", "2000"], 10), (["chambers"], 0),
                                        (["--help"], 0), (["fiber", "--help"], 0)])
def test_a_closed_stdout_exits_141_without_a_traceback(argv, read):
    # fiber's megabyte fills the pipe, so its reader closes after 10 bytes, mid-write; chambers' text
    # and argparse's help fit stdout's buffer, so their reader closes before they start.  Buffered, as
    # in a shell pipeline, a write that failed stays pending for the flush at interpreter exit, which
    # must not fail again; argparse prints --help and exits inside parse_args.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(pathlib.Path(cli.__file__).resolve().parents[1])
    reader, writer = os.pipe()
    with subprocess.Popen([sys.executable, "-m", "grassmoment", *argv], stdout=writer,
                          stderr=subprocess.PIPE, env=env) as process:
        os.close(writer)
        with os.fdopen(reader, "rb") as stdout:
            assert len(stdout.read(read)) == read
        assert process.wait(timeout=60) == 141 and process.stderr.read() == b""


def test_jacobian_runs_without_orjson(capsys):
    # Only fiber encodes certificate rows; with orjson unimportable, jacobian's
    # output must not change.
    argv = ["jacobian", "--samples", "10"]
    blocked = _python("import sys; sys.modules['orjson'] = None\n" + LAUNCHERS["main"], *argv)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.encode() == blocked
