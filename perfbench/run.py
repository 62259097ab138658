"""Benchmark of the three user runs of grassmoment: report, fiber-mq5, classify.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Each workload runs single-threaded in
fresh worker processes (``worker.py``).  Set-up time is the median over
several fresh processes of the time from process start to the worker's
READY line.  Every time is taken with the worker's host-speed probes
left out and scaled to the nominal host (``hostref.py``).  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostref import NOMINAL_S

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
WORKLOADS = ("report", "fiber-mq5", "classify")
#: Set-up is timed in at least SETUP_MIN fresh processes, and in more while
#: they have taken under SETUP_BUDGET_S in total, up to SETUP_MAX: cheap
#: set-ups are noisy, so they are repeated more.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 11, 3.0
#: The whole run, set-ups included, must end well inside 180 seconds.
DEADLINE_S = 170.0

UNITS = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms",
         "op_ms_p95": "ms", "peak_rss_mb": "MB"}
#: Single-threaded numpy: the workload owns one core of a two-core machine.
THREAD_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


def per_layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith((".ms_p50", "_ms")):
        return "ms"
    if name.endswith("stdout_bytes"):
        return "B"
    return "s"


class WorkerError(RuntimeError):
    pass


def start_worker(args, setup_only: bool) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for READY; returns it with its set-up seconds,
    probes left out and scaled by the probes the worker took meanwhile."""
    command = [sys.executable, str(WORKER), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if setup_only:
        command.append("--setup-only")
    started = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            env=dict(os.environ, **THREAD_ENV))
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - started
    fields = line.split()
    if len(fields) != 3 or fields[0] != "READY":
        proc.kill()
        proc.wait()
        raise WorkerError(f"worker did not get ready: {line.strip()!r}")
    probes_s, mean_probe_s = float(fields[1]), float(fields[2])
    return proc, (elapsed - probes_s) * NOMINAL_S / mean_probe_s


def finish_worker(proc: subprocess.Popen, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerError("worker ran past the deadline") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return out


def run(args) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    setups = []
    while not args.trace and len(setups) < SETUP_MAX - 1 and (
            len(setups) < SETUP_MIN - 1 or sum(setups) < SETUP_BUDGET_S):
        proc, setup_s = start_worker(args, setup_only=True)
        finish_worker(proc, deadline)
        setups.append(setup_s)
    proc, setup_s = start_worker(args, setup_only=False)
    setups.append(setup_s)
    result = json.loads(finish_worker(proc, deadline).splitlines()[-1])
    metrics = result["metrics"]
    if args.trace:
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        metrics["setup_s"] = statistics.median(setups)
        units = UNITS
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in sorted(metrics)},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "grassmoment" / "__init__.py").is_file():
        print(f"no grassmoment sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    try:
        summary = run(args)
    except WorkerError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    fail_frac = summary["failed"] / summary["attempted"]
    readable = ", ".join(f"{name}={m['value']:.6g} {m['unit']}"
                         for name, m in summary["metrics"].items())
    print(f"{args.workload}: fail_frac={fail_frac:.6g} ({summary['failed']}/"
          f"{summary['attempted']}), {readable}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
