"""The benchmark's own oracles: labels, verdict checks, re-checks and tracing.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests``.
"""

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path


BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import hostref  # noqa: E402
import inputs  # noqa: E402
import oracles  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402

from grassmoment import cli, exactgeom, fibers4, regularity  # noqa: E402


def _n5_points(per_kind: int, seed: int = 11) -> list:
    rng = random.Random(seed)
    return [make(rng, 5) for make in (inputs._generic, inputs._hull, inputs._arrangement)
            for _ in range(per_kind)]


def test_wall_counts_match_known_values():
    assert [len(inputs.walls(n)) for n in (4, 5, 6)] == [11, 30, 112]


def test_batches_are_seeded_and_mixed():
    first = inputs.classify_batch(3, 0)
    assert first == inputs.classify_batch(3, 0)
    assert first != inputs.classify_batch(4, 0)
    assert len(first) == inputs.BATCH_SIZE
    for n, kind, count in inputs.BATCH_MIX:
        assert sum(q.n == n and q.kind == kind for q in first) == count
    for query in first:
        assert sum(query.point) == 2 and all(0 <= v <= 1 for v in query.point)


def test_labels_agree_with_bruteforce_oracle():
    for query in _n5_points(per_kind=2):
        x = query.point
        assert regularity.is_regular_projective_bruteforce(x, 5) is query.projective_regular
        assert oracles.expected_grassmann(x) is regularity.is_regular_grassmann(x, 5)
        assert oracles.expected_signs(x) == exactgeom.sign_vector(x, exactgeom.arrangement_for_n(5))
        if query.kind != "hull":
            assert oracles.expected_grassmann(x) is query.projective_regular


def test_expected_signs_follow_library_order_for_even_n():
    x = tuple(Fraction(v, 6) for v in (1, 2, 3, 2, 2, 2))
    assert oracles.expected_signs(x) == exactgeom.sign_vector(x, exactgeom.arrangement_for_n(6))


def _n5_batch(seed, index):
    return _n5_points(per_kind=1, seed=seed + index)


def test_classify_pass_counts_no_failures(monkeypatch):
    monkeypatch.setattr(worker.inputs, "classify_batch", _n5_batch)
    result = worker.pass_classify(0, 0)
    assert result.ops == 3 and result.failed == 0


def test_stub_projective_test_drives_failures(monkeypatch):
    monkeypatch.setattr(worker.inputs, "classify_batch", _n5_batch)
    monkeypatch.setattr(regularity, "is_regular_projective", lambda x, n: False)
    result = worker.pass_classify(0, 0)
    assert result.failed / result.ops > 0


def test_raising_projective_test_counts_as_failure(monkeypatch):
    def broken(x, n):
        raise ValueError("broken")

    monkeypatch.setattr(worker.inputs, "classify_batch", _n5_batch)
    monkeypatch.setattr(regularity, "is_regular_projective", broken)
    assert worker.pass_classify(0, 0).failed == 3


def _fiber_run(samples: int) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(["fiber", "mq5", "--samples", str(samples), "--seed", "5"])
    return code, buffer.getvalue()


def test_fiber_recheck_passes_and_catches_altered_point():
    code, text = _fiber_run(8)
    assert oracles.recheck_fiber(code, text, 8) == 0
    payload = json.loads(text)
    payload["certificates"][3]["point"][0][0] += 1e-6
    assert oracles.recheck_fiber(code, json.dumps(payload), 8) == 1


def test_fiber_recheck_catches_wrong_emitted_values():
    code, text = _fiber_run(4)
    payload = json.loads(text)
    payload["certificates"][0]["jacobian_rank"] = 2
    payload["certificates"][1]["f_values"][1] = -0.9
    assert oracles.recheck_fiber(code, json.dumps(payload), 4) == 2


def test_fiber_recheck_fails_every_sample_on_bad_envelope():
    code, text = _fiber_run(4)
    assert oracles.recheck_fiber(1, text, 4) == 4
    assert oracles.recheck_fiber(code, text, 5) == 5
    assert oracles.recheck_fiber(code, "not json", 4) == 4


def test_pinned_tolerances_match_library():
    for key, value in oracles.TOLERANCES.items():
        assert fibers4.DEFAULT_TOLERANCES[key] == value


def _report_text(failing: int | None = None) -> str:
    criteria = []
    for number in range(1, 13):
        details = dict(oracles.REPORT_DETAILS.get(number, {}))
        criteria.append({"number": number, "passed": number != failing, "details": details})
    return json.dumps({"criteria": criteria})


def test_report_check():
    assert oracles.check_report(0, _report_text()) == 0
    assert oracles.check_report(1, _report_text(failing=6)) == 1
    assert oracles.check_report(1, _report_text()) == 1
    assert oracles.check_report(0, "{}") == 12
    skipped = json.loads(_report_text())
    skipped["criteria"][4]["details"]["grid_points"] = 10
    assert oracles.check_report(0, json.dumps(skipped)) == 1


def test_tracer_wraps_every_namespace_and_restores():
    original = exactgeom.affine_rank
    tracer = Tracer()
    tracer.install()
    try:
        assert regularity.affine_rank is exactgeom.affine_rank is not original
        regularity.is_regular_projective_bruteforce(
            tuple(Fraction(v) for v in ("1/3", "5/9", "5/9", "5/9")), 4)
    finally:
        tracer.uninstall()
    assert regularity.affine_rank is exactgeom.affine_rank is original
    totals = tracer.totals()
    assert totals["regularity.is_regular_projective_bruteforce"]["calls"] == 1
    # convex_membership calls affine_rank inside exactgeom: those spans nest.
    assert totals["exactgeom.affine_rank"]["calls"] > totals["exactgeom.convex_membership"]["calls"] > 0
    for entry in totals.values():
        assert 0 <= entry["self_s"] <= entry["total_s"]


def test_host_clock_leaves_out_probe_time():
    host = hostref.HostSpeed(interval_s=0.01)
    clock, wall = host.clock(), time.perf_counter()
    host.start()
    try:
        while time.perf_counter() - wall < 0.3:
            pass
    finally:
        host.stop()
    clock, wall = host.clock() - clock, time.perf_counter() - wall
    assert len(host.durations) >= 4
    assert host.paused_s > sum(host.durations)  # the warm-up probe is left out too
    assert abs(clock + host.paused_s - wall) < 0.002
    assert host.scale() == hostref.NOMINAL_S / host.mean_probe_s() > 0


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "traces"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "report",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""
