import dataclasses
import json
import os
import pathlib
import subprocess
import sys
import typing
import warnings

import numpy as np
import pytest

from grassmoment import cli
from grassmoment import fibers4 as fb
from grassmoment.exactgeom import vector
from grassmoment.moment import hypersimplex_moment, weight_map

Q_PLUS = np.array([2 / 3, 4 / 9, 4 / 9, 4 / 9])
SWAP = (3, 4, 5, 0, 1, 2)  # (z0, z1, z2) <-> (z3, z4, z5)


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_chambers_enumeration(capsys):
    code, payload = run_cli(capsys, ["chambers", "--n", "4"])
    assert code == 0
    assert len(payload["chambers"]) == 8
    assert payload["orbit_count"] == 2
    assert payload["orbit_sizes"] == [4, 4]
    by_id = {c["id"]: c for c in payload["chambers"]}
    assert by_id["[-1,-1,-1]"]["representative"] == ["1/3", "5/9", "5/9", "5/9"]
    assert by_id["[-1,-1,-1]"]["orbit"] == "C-"
    assert by_id["[1,1,1]"]["representative"] == ["2/3", "4/9", "4/9", "4/9"]
    assert by_id["[1,1,1]"]["orbit"] == "C+"


def test_chambers_classify(capsys):
    code, payload = run_cli(
        capsys, ["chambers", "--n", "4", "--classify", "1/3,5/9,5/9,5/9"])
    assert code == 0
    assert payload["id"] == "[-1,-1,-1]"
    assert payload["regular_mu"] is True
    assert payload["regular_mu_tilde"] is True


def test_chambers_classify_n5_gap_point(capsys):
    code, payload = run_cli(
        capsys, ["chambers", "--n", "5", "--classify", "7/10,6/10,5/10,1/10,1/10"])
    assert code == 0
    assert payload["regular_mu"] is True
    assert payload["regular_mu_tilde"] is False


def test_chambers_unsupported_n(capsys):
    code = cli.main(["chambers", "--n", "5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "chamber enumeration supports n = 4 only" in captured.err


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


def test_chambers_classify_checks_the_length(capsys):
    code = cli.main(["chambers", "--n", "5", "--classify", "1/2,1/2,1/2,1/2"])
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
    # `--orbit plus` emits the swap images of the C- points drawn at the same
    # seed, each checked here against q+ without the library's residuals.
    for kind in ("mq7", "mq5", "m2", "m3"):
        argv = ["fiber", kind, "--samples", "20", "--seed", "11"]
        code_minus, minus = run_cli(capsys, argv)
        code, payload = run_cli(capsys, argv + ["--orbit", "plus"])
        assert code == code_minus == 0
        assert payload["second_orbit"] is True
        assert payload["aggregate"]["rank_histogram"] == minus["aggregate"]["rank_histogram"]
        for mirror, cert in zip(payload["certificates"], minus["certificates"], strict=True):
            assert mirror["point"] == [cert["point"][k] for k in SWAP]
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
    """One dict per certificate, column by column; json.dumps of this list is the
    independent oracle for Certificates.json_rows."""
    def column(values):
        return [None] * len(batch.points) if values is None else values.tolist()

    moment, plucker, surface = (column(batch.residuals.get(key)) for key in fb.EMITTED_RESIDUALS)
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
        batch = dataclasses.replace(batch, points=fb.orbit_swap(batch.points))
    certs = certificate_tree(batch)
    failing = np.flatnonzero(~batch.passed)
    assert code == (1 if tol else 0) and (failing.size > 0) == bool(tol)
    expected = {**json.loads(out), "certificates": certs,
                "failing_sample": certs[failing[0]] if failing.size else None}
    assert out == compact(expected) + "\n"
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
        return fb.Certificates(points, {"moment": moment}, None, None, checks)
    residuals = {"moment": moment, "plucker": moment[::-1].copy(), "surface": moment.copy()}
    return fb.Certificates(points, residuals, np.array(f_values, dtype=float),
                           np.full(count, 3), checks)


ZEROS_AND_REPEATS = [0.0, -0.0, 1e-17, 0.0, -0.0, 1e-17, 2.5e-11, 2.5e-11]


@pytest.mark.parametrize("chart", [False, True], ids=["mq7", "mq5"])
def test_json_rows_keep_signed_zeros_and_repeats(chart):
    f_values = [[-0.0, -1.0, 0.0], [0.0, -1.0, -0.0]] * 4 if chart else None
    batch = hand_built(ZEROS_AND_REPEATS, f_values, failing=(3, 6))
    rows = batch.json_rows()
    assert "[" + ",".join(rows) + "]" == compact(certificate_tree(batch))
    assert batch.to_json() == certificate_tree(batch)
    assert rows[0].startswith('{"point":[[0.0,0.0],[-0.0,0.0],')
    assert '"moment":0.0,' in rows[0] and '"moment":-0.0,' in rows[1]
    assert not chart or '"f_values":[0.0,-1.0,-0.0]' in rows[1]
    assert [index for index, row in enumerate(rows) if "failed_checks" in row] == [3, 6]
    assert fb.certify("mq5" if chart else "mq7", np.empty((0, 6), complex)).json_rows() == []


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("where", ["residual", "f_value"])
def test_non_finite_certificate_values_are_refused(capsys, monkeypatch, bad, where):
    # A non-finite float has no RFC 8259 form: the row refuses it, and the CLI
    # then exits 2 with nothing on stdout.
    values = list(ZEROS_AND_REPEATS)
    f_values = [[0.0, -1.0, 0.0]] * len(values)
    if where == "residual":
        values[4] = bad
    else:
        f_values[2] = [0.0, bad, 0.0]
    batch = hand_built(values, f_values)
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
    assert code == 0
    assert payload["rank_histogram"] == {"3": 10}
    assert payload["max_fd_deviation"] <= 1e-6


def test_transition_command(capsys):
    code, payload = run_cli(capsys, ["transition", "--samples", "20"])
    assert code == 0
    assert payload["determinant"] == -1
    assert payload["cocycle_max_error"] <= 1e-12


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
                                  ["jacobian", "--orbit", "plus"]])
def test_orbit_is_only_for_fiber(capsys, argv):
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


def test_bad_point_is_usage_error(capsys):
    code = cli.main(["chambers", "--n", "4", "--classify", "1/3,5/9"])
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
    # The listing reads the chambers of the two orbits; they are enumerated once.
    from grassmoment import regularity

    calls = []
    enumerate_chambers = regularity.enumerate_chambers
    for module in (regularity, cli):  # wherever the name is bound
        monkeypatch.setattr(module, "enumerate_chambers",
                            lambda n=4: calls.append(n) or enumerate_chambers(n), raising=False)
    assert cli.main(["chambers", "--n", "4"]) == 0
    assert capsys.readouterr().out == CHAMBERS_N4_STDOUT
    assert calls == [4]


# -- the exact commands start without the float layer ---------------------------

EXACT_COMMANDS = [
    ["regular", "--n", "5", "--classify", "7/10,6/10,5/10,1/10,1/10"],
    ["chambers"],
    ["witness", "--n", "6"],
    ["triangle"],
]


def _python(code, *args):
    """stdout bytes of a fresh interpreter running code on the package in src/."""
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).resolve().parents[1])}
    result = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                            check=True, timeout=60)
    return result.stdout


@pytest.mark.parametrize("argv", EXACT_COMMANDS, ids=lambda argv: argv[0])
def test_exact_commands_run_without_numpy(capsys, argv):
    # With numpy unimportable, any float import on the exact path would raise.
    blocked = _python("import sys; sys.modules['numpy'] = None\n"
                      "from grassmoment.cli import main; sys.exit(main(sys.argv[1:]))", *argv)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.encode() == blocked


def test_the_exact_path_loads_no_float_module():
    loaded = _python("import sys, grassmoment, grassmoment.cli\n"
                     "grassmoment.classify_point(grassmoment.vector(['1/2'] * 4), 4)\n"
                     "print(sorted({'numpy', 'grassmoment.fibers4', 'grassmoment.acceptance'}"
                     " & set(sys.modules)))")
    assert loaded == b"[]\n"
