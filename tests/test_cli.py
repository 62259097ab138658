import json
import warnings

import numpy as np
import pytest

from grassmoment import cli
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
    capsys.readouterr()
    assert code == 2


def test_regular_command(capsys):
    code, payload = run_cli(
        capsys, ["regular", "--n", "4", "--classify", "2/3,4/9,4/9,4/9"])
    assert code == 0
    assert payload["id"] == "[1,1,1]"


def test_regular_clears_its_point_once(capsys, monkeypatch):
    # The chamber id and both verdicts read one validation and clearing.
    from grassmoment import exactgeom, regularity

    clear = exactgeom.clear_denominators
    calls = []

    def counting(vectors):
        calls.append(vectors)
        return clear(vectors)

    for module in (exactgeom, regularity):  # wherever the name is bound
        monkeypatch.setattr(module, "clear_denominators", counting, raising=False)
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
    assert "point length does not match --n" in captured.err


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
