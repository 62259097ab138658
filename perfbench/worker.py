"""One workload in one fresh process; ``run.py`` starts it.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

The process imports grassmoment from the checkout's ``src/``, warms up the
lazy caches the workload uses, and prints ``READY`` with its host-speed
probe figures: ``run.py`` times that as set-up.  Unless ``--setup-only``,
it then runs timed passes for S seconds, checks every verdict outside the
timed code, and prints one JSON line of measurements.  With ``--trace 1``
passes alternate between untraced and traced, and the JSON carries
per-layer numbers instead.

Probes of host speed (``hostref``) run all the while; every time reported
has the probes' own time taken out and is scaled to the nominal host.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
sys.path.insert(0, str(SRC))

import hostref  # noqa: E402
import inputs  # noqa: E402
import oracles  # noqa: E402
from tracer import TRACED, Tracer  # noqa: E402

FIBER_SAMPLES = 2000
#: A classify run pools at least this many queries, so that ten lie beyond p95.
MIN_CLASSIFY_QUERIES = 200
#: Hard stop for a run whose passes got very slow, so it still ends in time.
MAX_MEASURE_SECONDS = 120.0
TRACE_DIR = BENCH_DIR / "traces"
#: Host-speed probes; its clock leaves out the probes' own time.
HOST = hostref.HostSpeed()


@dataclass
class Pass:
    wall_s: float
    ops: int
    failed: int
    latencies_ms: list[float]
    stdout_bytes: int = 0
    projective_ms: dict[str, list[float]] = field(default_factory=dict)

    def scale(self, factor: float) -> None:
        """Turn clock times into nominal-host times."""
        self.wall_s *= factor
        self.latencies_ms = [v * factor for v in self.latencies_ms]
        self.projective_ms = {k: [v * factor for v in vs] for k, vs in self.projective_ms.items()}


def _pass_seed(workload: str, seed: int, index: int) -> int:
    return random.Random(f"{workload}:{seed}:{index}").getrandbits(32)


def _run_cli(argv: list[str]) -> tuple[int, str, float]:
    from grassmoment import cli

    buffer = io.StringIO()
    started = HOST.clock()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue(), HOST.clock() - started


def _first_query(n: int) -> float:
    """Nominal-host seconds for the first projective query at n: the cold
    cache build.

    The query point is a vertex, which the first prepared tester catches.
    """
    from grassmoment import regularity

    vertex = tuple(Fraction(1 if i < 2 else 0) for i in range(n))
    mark = HOST.mark()
    HOST.sample()
    started = HOST.clock()
    regularity.is_regular_projective(vertex, n)
    elapsed = HOST.clock() - started
    HOST.sample()
    return elapsed * HOST.scale(mark)


# ---------------------------------------------------------------------------
# Workloads: a warm-up (part of set-up) and one timed pass
# ---------------------------------------------------------------------------

def warm_report() -> dict[str, float]:
    _first_query(4)
    return {"n5": _first_query(5)}


def pass_report(seed: int, index: int) -> Pass:
    code, text, wall = _run_cli(["report", "--seed", str(_pass_seed("report", seed, index))])
    failed = oracles.check_report(code, text)
    return Pass(wall, oracles.CRITERIA_COUNT, failed, [wall * 1e3], len(text.encode()))


def warm_fiber() -> dict[str, float]:
    _run_cli(["fiber", "mq5", "--samples", "20"])
    return {}


def pass_fiber(seed: int, index: int) -> Pass:
    code, text, wall = _run_cli(["fiber", "mq5", "--samples", str(FIBER_SAMPLES),
                                 "--seed", str(_pass_seed("fiber-mq5", seed, index))])
    failed = oracles.recheck_fiber(code, text, FIBER_SAMPLES)
    return Pass(wall, FIBER_SAMPLES, failed, [wall * 1e3], len(text.encode()))


def warm_classify() -> dict[str, float]:
    return {"n5": _first_query(5), "n6": _first_query(6)}


def pass_classify(seed: int, index: int) -> Pass:
    """One batch of the classify stream: the calls behind ``grassmoment regular``."""
    from grassmoment import exactgeom, regularity

    result = Pass(0.0, 0, 0, [])
    for query in inputs.classify_batch(seed, index):
        x, n = query.point, query.n
        result.ops += 1
        try:
            started = HOST.clock()
            signs = exactgeom.sign_vector(x, exactgeom.arrangement_for_n(n))
            grassmann = regularity.is_regular_grassmann(x, n)
            middle = HOST.clock()
            projective = regularity.is_regular_projective(x, n)
            ended = HOST.clock()
        except Exception as error:  # a crash on a valid point is a wrong verdict
            print(f"classify query {query} raised {error!r}", file=sys.stderr)
            result.failed += 1
            continue
        result.wall_s += ended - started
        result.latencies_ms.append((ended - started) * 1e3)
        result.projective_ms.setdefault(f"n{n}.{query.cls}", []).append((ended - middle) * 1e3)
        if not oracles.check_query(query, signs, grassmann, projective):
            result.failed += 1
    return result


WORKLOADS = {
    "report": (warm_report, pass_report, 1),
    "fiber-mq5": (warm_fiber, pass_fiber, 1),
    "classify": (warm_classify, pass_classify, MIN_CLASSIFY_QUERIES),
}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def _tail(values: list[float]) -> float:
    """p95, or, with fewer than 200 values, the highest percentile that still
    has ten values beyond it (the median at least), linearly interpolated.

    A classify run holds 200+ queries, so this is its p95; report and
    fiber-mq5 runs hold a few whole CLI runs, whose top two or three
    mostly show bursts of the shared host rather than the program.
    """
    ordered = sorted(values)
    q = max(0.5, min(0.95, 1 - 10 / len(ordered)))
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def measure(run_pass, seed: int, seconds: float, min_ops: int,
            tracer: Tracer | None) -> list[tuple[bool, Pass]]:
    """Run passes for about ``seconds``, and until ``min_ops`` are done.

    Another pass starts only if it would likely (judged by the one before)
    end nearer to ``seconds`` than stopping now.  Each pass starts from a
    collected heap and is scaled by the host probes taken during it, one
    right before and one right after included.  With a tracer, odd passes
    are traced and even ones are not.
    """
    passes: list[tuple[bool, Pass]] = []
    started = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        gc.collect()
        pass_started = time.perf_counter()
        mark = HOST.mark()
        HOST.sample()
        if traced:
            tracer.install()
        try:
            result = run_pass(seed, len(passes))
        finally:
            if traced:
                tracer.uninstall()
        HOST.sample()
        result.scale(HOST.scale(mark))
        passes.append((traced, result))
        now = time.perf_counter()
        enough = (sum(p.ops for _, p in passes) >= min_ops
                  and (tracer is None or len(passes) >= 2))
        if (enough and now - started + (now - pass_started) / 2 >= seconds) \
                or now - started >= MAX_MEASURE_SECONDS:
            return passes


def end_to_end(passes: list[Pass]) -> dict[str, float]:
    latencies = [v for p in passes for v in p.latencies_ms]
    return {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "ops_per_s": sum(p.ops - p.failed for p in passes) / sum(p.wall_s for p in passes),
        "op_ms_p50": statistics.median(latencies),
        "op_ms_p95": _tail(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(passes: list[tuple[bool, Pass]], tracer: Tracer,
              first_query: dict[str, float], mark: int) -> dict[str, float]:
    """Per traced pass; span times are scaled by the probes since ``mark``."""
    factor = HOST.scale(mark)
    traced = [p for is_traced, p in passes if is_traced]
    plain = [p for is_traced, p in passes if not is_traced]
    count = len(traced)
    totals = tracer.totals()
    out: dict[str, float] = {}
    for module, functions in TRACED.items():
        for function in functions:
            label = f"{module}.{function.lstrip('_')}"
            entry = totals.get(label, {"calls": 0, "self_s": 0.0})
            if module == "cli":
                out["cli.emit.s"] = entry["self_s"] * factor / count
            else:
                out[f"{label}.calls"] = entry["calls"] / count
                out[f"{label}.self_s"] = entry["self_s"] * factor / count
    import grassmoment.acceptance as acceptance

    for _, func in acceptance.CRITERIA:
        label = f"acceptance.{func.__name__}"
        out[f"{label}.s"] = totals.get(label, {"total_s": 0.0})["total_s"] * factor / count
    out["cli.stdout_bytes"] = sum(p.stdout_bytes for p in traced) / count
    for n in (5, 6):
        for cls in ("generic", "wall"):
            samples = [v for p in traced for v in p.projective_ms.get(f"n{n}.{cls}", [])]
            out[f"regularity.is_regular_projective.n{n}.{cls}.ms_p50"] = (
                statistics.median(samples) if samples else 0.0)
        out[f"regularity.first_query.n{n}.s"] = first_query.get(f"n{n}", 0.0)
    out["trace.overhead_s"] = (statistics.median(p.wall_s for p in traced)
                               - statistics.median(p.wall_s for p in plain))
    out["host.probe_ms"] = HOST.mean_probe_s(mark) * 1e3
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    HOST.start()
    import grassmoment
    import grassmoment.cli  # noqa: F401  (cli is not imported by the package)

    if Path(grassmoment.__file__).resolve().parent != SRC / "grassmoment":
        print(f"imported grassmoment from {grassmoment.__file__}, not {SRC}", file=sys.stderr)
        return 2
    warm_up, run_pass, min_ops = WORKLOADS[args.workload]
    first_query = warm_up()
    HOST.stop()
    # Probe seconds inside set-up, and the mean probe, for run.py to scale by.
    print(f"READY {HOST.paused_s!r} {HOST.mean_probe_s()!r}", flush=True)
    if args.setup_only:
        return 0

    HOST.start()
    mark = HOST.mark()
    tracer = Tracer(clock=HOST.clock) if args.trace else None
    passes = measure(run_pass, args.seed, args.seconds, min_ops, tracer)
    HOST.stop()
    if tracer is None:
        metrics = end_to_end([p for _, p in passes])
    else:
        metrics = per_layer(passes, tracer, first_query, mark)
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.write(TRACE_DIR / f"{args.workload}.spans.jsonl")
    print(json.dumps({"passes": len(passes),
                      "attempted": sum(p.ops for _, p in passes),
                      "failed": sum(p.failed for _, p in passes),
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
