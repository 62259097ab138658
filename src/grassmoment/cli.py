"""Command line front end: JSON certificates and reports for every operation.

Exit codes: 0 all checks passed, 1 a certificate or criterion failed, 2 usage error,
141 stdout closed early by its reader (128 + SIGPIPE), with no traceback.  Output is
JSON only, with full float precision, so the numbers can be re-verified downstream.
Only the float commands import numpy and the float layer, so the exact ones start without them.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from collections import Counter

from .exactgeom import format_sign_vector, format_vector, parse_vector, rational
from .regularity import (
    CHAMBER_POINT_MINUS,
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    STAR,
    TRANSITION_EXPONENTS,
    classify_point,
    enumerate_chambers,
    largest_chamber_witness,
    solve_moment_triangle,
    transition_check,
)


def _parse_seed(text: str) -> int:
    return int(text, 0)


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _parse_tolerances(items: list[str] | None, known: dict[str, float]) -> dict[str, float]:
    overrides: dict[str, float] = {}
    for item in items or []:
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep:
            raise ValueError(f"tolerance override must look like name=value, got {item!r}")
        if key not in known:
            raise ValueError(f"unknown tolerance {key!r}, known: {list(known)}")
        overrides[key] = float(value)
        if not math.isfinite(overrides[key]) or overrides[key] < 0:
            raise ValueError(f"tolerance {key} must be finite and at least 0, got {value!r}")
    return overrides


def _rank_histogram(ranks: list[int]) -> dict[str, int]:
    """Count of each Jacobian rank, in order of first appearance."""
    return {str(rank): count for rank, count in Counter(ranks).items()}


def _emit(payload: dict, path: str | None, batch=None) -> None:
    """Print payload as compact JSON (and write it to path): a batch's ``json_rows`` at
    'certificates', its first failing row (or null) at 'failing_sample', ``json``'s text
    elsewhere.  One join of all pieces, rows included, copies a batch's megabyte once."""
    dumps = json.JSONEncoder(separators=(",", ":"), allow_nan=False).encode
    if batch is None:
        text = dumps(payload)
    else:
        rows, passed = batch.json_rows(), batch.passed
        first = int(passed.argmin())
        certificates = [","] * (2 * len(rows) + 1)
        certificates[0], certificates[1::2], certificates[-1] = "[", rows, "]"
        placed = {"certificates": certificates,
                  "failing_sample": ["null" if passed[first] else rows[first]]}
        parts = []
        for key, value in payload.items():
            parts += [",", dumps(key), ":", *(placed[key] if key in placed else [dumps(value)])]
        text = "".join(["{", *parts[1:], "}"])
    if path:
        try:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        except OSError as error:
            raise ValueError(f"cannot write --json-out: {error}") from None
    print(text, flush=True)  # a reader that closed early shows here, not in the flush at interpreter exit


def cmd_chambers(args) -> int:
    chambers = enumerate_chambers()
    sizes = Counter(c.orbit for c in chambers)
    payload = {
        "n": 4,
        "chambers": [{"id": format_sign_vector(c.id), "dim": 3,
                      "representative": format_vector(c.representative), "orbit": c.orbit}
                     for c in chambers],
        "orbit_count": len(sizes),
        "orbit_sizes": list(sizes.values()),
    }
    _emit(payload, args.json_out)
    return 0


def cmd_regular(args) -> int:
    point = parse_vector(args.classify)
    if args.n != len(point):
        raise ValueError("point length does not match --n")
    signs, regular_mu, regular_mu_tilde = classify_point(point, args.n)
    payload = {
        "n": args.n,
        "point": format_vector(point),
        "id": format_sign_vector(signs),
        "regular_mu": regular_mu,
        "regular_mu_tilde": regular_mu_tilde,
    }
    _emit(payload, args.json_out)
    return 0


def cmd_moment(args) -> int:
    import numpy as np
    from .moment import grassmann_moment, hypersimplex_moment, simplex_moment
    from .plucker import GrassmannPoint

    echo = json.loads(args.point)
    pairs = np.array(echo, dtype=float)
    if pairs.ndim != (3 if args.map == "mu" else 2) or pairs.shape[-1] != 2:
        raise ValueError("--point takes [re, im] pairs, a 2 x n matrix of them for mu")
    coords = pairs[..., 0] + 1j * pairs[..., 1]
    if args.map == "mu":
        output = grassmann_moment(GrassmannPoint(coords), args.n)
    elif args.map == "mu_tilde":
        output = hypersimplex_moment(coords, args.n)
    else:
        expected = math.comb(args.n, 2)
        if coords.shape[-1] != expected:
            raise ValueError(
                f"point has {coords.shape[-1]} coordinates, expected {expected} for n={args.n}")
        output = simplex_moment(coords)
    _emit({"map": args.map, "n": args.n, "input": echo, "output": output.tolist()},
          args.json_out)
    return 0


def cmd_fiber(args) -> int:
    import numpy as np
    from . import fibers4 as fb

    overrides = _parse_tolerances(args.tol, fb.DEFAULT_TOLERANCES)
    second_orbit = args.orbit == "plus"
    rng = np.random.default_rng(args.seed)
    points = fb.sample_for_kind(args.kind, rng, args.samples)
    batch = fb.certify(args.kind, points, tolerances=overrides)
    if second_orbit:  # the C+ fiber over q+ is the star image of the certified C- points
        batch = dataclasses.replace(batch, points=fb.symmetry_images([STAR], batch.points))
    failing = np.flatnonzero(~batch.passed)
    payload = {
        "kind": args.kind,
        "samples": args.samples,
        "seed": args.seed,
        "second_orbit": second_orbit,
        "certificates": None,  # the batch's rows, filled in by _emit
        "aggregate": {
            "max_residuals": {key: max(0.0, float(np.max(batch.checks[key][0])))
                              for key in fb.EMITTED_RESIDUALS if key in batch.checks},
            "rank_histogram": {} if batch.ranks is None else _rank_histogram(batch.ranks.tolist()),
            "all_passed": failing.size == 0,
        },
        "failing_sample": None,
    }
    _emit(payload, args.json_out, batch)
    return 0 if failing.size == 0 else 1


def cmd_jacobian(args) -> int:
    """Criterion 8 of the acceptance suite, the complete intersection of the
    chart quadrics, at the seed and sample count given: its details and verdict."""
    from . import acceptance

    result = acceptance.check_complete_intersection(args.seed, args.samples)
    _emit({"seed": args.seed, "samples": args.samples, "details": result.details,
           "passed": result.passed}, args.json_out)
    return 0 if result.passed else 1


def cmd_transition(args) -> int:
    determinant, max_cocycle, ok = transition_check()
    payload = {
        "exponent_matrix": [list(row) for row in TRANSITION_EXPONENTS],
        "determinant": determinant,
        "cocycle_max_error": max_cocycle,
        "ok": ok,
    }
    _emit(payload, args.json_out)
    return 0 if ok else 1


def cmd_triangle(args) -> int:
    triangle = solve_moment_triangle()
    edges = {}
    for edge in range(3):
        endpoints = [triangle.edge_point(edge, 0),
                     triangle.edge_point(edge, CHAMBER_POINT_MINUS[0])]
        edges[f"I{edge}"] = {
            "vanishing_coordinate": edge,
            "endpoints": [format_vector(p) for p in endpoints],
        }
    payload = {
        "solution": {
            "constant": format_vector(triangle.constant),
            "x4_coefficients": format_vector(triangle.direction_x4),
            "x5_coefficients": format_vector(triangle.direction_x5),
        },
        "vertices": {k: format_vector(v) for k, v in triangle.vertices.items()},
        "edges": edges,
        "target": format_vector(CHAMBER_POINT_MINUS),
    }
    _emit(payload, args.json_out)
    return 0


def cmd_curve(args) -> int:
    from . import fibers4 as fb

    x0 = float(rational(args.x0)) if "/" in args.x0 else float(args.x0)
    x1 = float(rational(args.x1)) if "/" in args.x1 else float(args.x1)
    payload = {
        "x0": x0,
        "x1": x1,
        "fixed_sign_residual": fb.curve_residual(x0, x1),
        "closure_residual": fb.curve_closure_residual(x0, x1),
    }
    _emit(payload, args.json_out)
    return 0


def cmd_witness(args) -> int:
    witness = largest_chamber_witness(args.n)
    _emit({"n": args.n, "witness": format_vector(witness)}, args.json_out)
    return 0


def cmd_report(args) -> int:
    from . import acceptance

    results = acceptance.run_all(seed=args.seed, samples=args.samples, only=args.only)
    payload = {
        "seed": args.seed,
        "samples": args.samples,
        "criteria": [r.to_json() for r in results],
        "all_passed": all(r.passed for r in results),
    }
    if not args.no_timings:
        payload["timings"] = {r.short: round(r.seconds, 6) for r in results}
    _emit(payload, args.json_out)
    return 0 if payload["all_passed"] else 1


def _seeded(samples: int = DEFAULT_SAMPLES) -> tuple:
    return (("--seed", dict(type=_parse_seed, default=DEFAULT_SEED)),
            ("--samples", dict(type=_positive_int, default=samples)))


#: Each subcommand's help, handler and arguments, in the order ``--help``
#: lists them; ``build_parser`` adds ``--json-out`` to every one.
COMMANDS = {
    "chambers": ("enumerate the n=4 chambers and their orbits", cmd_chambers, ()),
    "regular": ("regularity report for one rational point", cmd_regular, (
        ("--n", dict(type=int, required=True)),
        ("--classify", dict(required=True)))),
    "moment": ("evaluate one of the three moment maps", cmd_moment, (
        ("--map", dict(choices=["mu", "mu_tilde", "mu_hat"], required=True)),
        ("--n", dict(type=int, default=4)),
        ("--point", dict(required=True,
                         help="JSON [re,im] pairs; a 2 x n matrix of pairs for mu")))),
    "fiber": ("sample a fiber and emit residual certificates", cmd_fiber, (
        ("kind", dict(choices=["mq7", "mq5", "m2", "m3"])),
        *_seeded(),
        ("--orbit", dict(choices=["minus", "plus"], default="minus")),
        ("--tol", dict(action="append", default=None, metavar="NAME=VALUE")))),
    "jacobian": ("complete intersection check, criterion 8", cmd_jacobian, _seeded(200)),
    "transition": ("chart transition cocycle report", cmd_transition, ()),
    "triangle": ("exact solution triangle of the moment system over q-", cmd_triangle, ()),
    "curve": ("edge curve residuals at one parameter point", cmd_curve, (
        ("--x0", dict(required=True)),
        ("--x1", dict(required=True)))),
    "witness": ("largest chamber witness point", cmd_witness, (
        ("--n", dict(type=int, required=True)),)),
    "report": ("run the acceptance suite", cmd_report, (
        *_seeded(),
        ("--only", dict(default=None)),
        ("--no-timings", dict(action="store_true",
                              help="omit per-criterion seconds, so the output is byte-stable")))),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser; given ``command``, with that subcommand alone, which
    parses every argv that starts with ``command`` as the full parser does."""
    parser = argparse.ArgumentParser(
        prog="grassmoment",
        description="Exact chamber combinatorics and verified n=4 moment fibers.")
    # The usage line, printed for an unrecognized argument, lists every command.
    metavar = None if command is None else "{%s}" % ",".join(COMMANDS)
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in COMMANDS if command is None else [command]:
        help_text, handler, arguments = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.add_argument("--json-out", default=None, help="also write the JSON to this file")
        p.set_defaults(func=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        try:
            args = parser.parse_args(argv)
        finally:  # --help prints, then exits here: a reader that closed early shows in this flush
            sys.stdout.flush()
        return args.func(args)
    except BrokenPipeError:  # stdout now writes to devnull, so the flush at interpreter exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ValueError as error:  # a json.JSONDecodeError is a ValueError
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
