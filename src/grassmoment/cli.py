"""Command line front end: JSON certificates and reports for every operation.

Exit codes: 0 all checks passed, 1 a certificate or criterion failed,
2 usage error.  Output is JSON only, with full float precision, so the
numbers can be re-verified downstream.  Only the float commands import
numpy and the float layer, so the exact ones start without them.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from collections import Counter
from fractions import Fraction

from .exactgeom import format_sign_vector, format_vector, parse_vector, rational
from .regularity import (
    CHAMBER_POINT_MINUS,
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    chamber_orbits,
    classify_point,
    largest_chamber_witness,
    solve_moment_triangle,
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
    """A fiber batch's ``json_rows`` go in at the 'certificates' and 'failing_sample' keys."""
    dumps = json.JSONEncoder(separators=(",", ":"), allow_nan=False).encode
    if batch is None:
        text = dumps(payload)
    else:  # NUL marks the rows' place: dumps escapes it, so it occurs only there
        rows, first = batch.json_rows(), int(batch.passed.argmin())
        rows_at = {"certificates": "[\0]",
                   "failing_sample": "null" if batch.passed[first] else rows[first]}
        text = "{%s}" % ",".join(f"{dumps(key)}:{rows_at.get(key) or dumps(value)}"
                                for key, value in payload.items())
        text = text.replace("\0", ",".join(rows), 1)
    if path:
        try:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        except OSError as error:
            raise ValueError(f"cannot write --json-out: {error}") from None
    print(text)


def cmd_chambers(args) -> int:
    if args.classify:
        return cmd_regular(args)
    if args.n != 4:
        raise ValueError("chamber enumeration supports n = 4 only")
    orbits = chamber_orbits()
    chambers = [
        {
            "id": format_sign_vector(c.id),
            "dim": c.dimension,
            "representative": format_vector(c.representative),
            "orbit": label,
        }
        for c, label in sorted(((c, o.label) for o in orbits for c in o.chambers),
                               key=lambda item: item[0].id)
    ]
    payload = {
        "n": 4,
        "chambers": chambers,
        "orbit_count": len(orbits),
        "orbit_sizes": [len(o.chambers) for o in orbits],
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
    if second_orbit:  # the C+ fiber is the swap image of the certified C- points
        batch = dataclasses.replace(batch, points=fb.orbit_swap(batch.points))
    failing = np.flatnonzero(~batch.passed)
    payload = {
        "kind": args.kind,
        "samples": args.samples,
        "seed": args.seed,
        "second_orbit": second_orbit,
        "certificates": None,  # the batch's rows, filled in by _emit
        "aggregate": {
            "max_residuals": {key: max(0.0, float(np.max(batch.residuals[key])))
                              for key in fb.EMITTED_RESIDUALS if key in batch.residuals},
            "rank_histogram": {} if batch.ranks is None else _rank_histogram(batch.ranks.tolist()),
            "all_passed": failing.size == 0,
        },
        "failing_sample": None,
    }
    _emit(payload, args.json_out, batch)
    return 0 if failing.size == 0 else 1


def cmd_jacobian(args) -> int:
    import numpy as np
    from . import fibers4 as fb

    rng = np.random.default_rng(args.seed)
    points = fb.sample_for_kind("mq5", rng, args.samples)
    batch = fb.certify("mq5", points)
    rank_histogram = _rank_histogram(batch.ranks.tolist())
    all_rank3 = set(rank_histogram) <= {"3"}
    payload = {
        "samples": args.samples,
        "seed": args.seed,
        "rank_histogram": rank_histogram,
        "max_f_deviation": np.max(np.abs(batch.f_values - fb.F_TARGET), axis=0).tolist(),
        "max_fd_deviation": fb.jacobian_fd_gap(points),
        "all_rank_3": all_rank3,
    }
    _emit(payload, args.json_out)
    return 0 if all_rank3 else 1


def cmd_transition(args) -> int:
    import numpy as np
    from . import fibers4 as fb

    rng = np.random.default_rng(args.seed)
    max_cocycle = fb.cocycle_error(fb.random_phases(rng, (args.samples, 3)))
    determinant = fb.transition_determinant()
    ok = determinant == -1 and max_cocycle <= 1e-12
    payload = {
        "exponent_matrix": [list(row) for row in fb.TRANSITION_EXPONENTS],
        "determinant": determinant,
        "cocycle_max_error": max_cocycle,
        "samples": args.samples,
        "ok": ok,
    }
    _emit(payload, args.json_out)
    return 0 if ok else 1


def cmd_triangle(args) -> int:
    triangle = solve_moment_triangle()
    edges = {}
    for edge in range(3):
        endpoints = [triangle.edge_point(edge, Fraction(0)),
                     triangle.edge_point(edge, Fraction(1, 3))]
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grassmoment",
        description="Exact chamber combinatorics and verified n=4 moment fibers.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, samples_default=DEFAULT_SAMPLES):
        p.add_argument("--seed", type=_parse_seed, default=DEFAULT_SEED)
        p.add_argument("--samples", type=_positive_int, default=samples_default)

    p = sub.add_parser("chambers", help="enumerate n=4 chambers or classify a point")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--classify", default=None, help="comma separated rational point")
    p.set_defaults(func=cmd_chambers)

    p = sub.add_parser("regular", help="regularity report for one rational point")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--classify", required=True)
    p.set_defaults(func=cmd_regular)

    p = sub.add_parser("moment", help="evaluate one of the three moment maps")
    p.add_argument("--map", choices=["mu", "mu_tilde", "mu_hat"], required=True)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--point", required=True,
                   help="JSON [re,im] pairs; a 2 x n matrix of pairs for mu")
    p.set_defaults(func=cmd_moment)

    p = sub.add_parser("fiber", help="sample a fiber and emit residual certificates")
    p.add_argument("kind", choices=["mq7", "mq5", "m2", "m3"])
    common(p)
    p.add_argument("--orbit", choices=["minus", "plus"], default="minus")
    p.add_argument("--tol", action="append", default=None, metavar="NAME=VALUE")
    p.set_defaults(func=cmd_fiber)

    p = sub.add_parser("jacobian", help="rank histogram of the chart Jacobian")
    common(p, samples_default=200)
    p.set_defaults(func=cmd_jacobian)

    p = sub.add_parser("transition", help="chart transition cocycle report")
    common(p, samples_default=200)
    p.set_defaults(func=cmd_transition)

    p = sub.add_parser("triangle", help="exact solution triangle of the moment system over q-")
    p.set_defaults(func=cmd_triangle)

    p = sub.add_parser("curve", help="edge curve residuals at one parameter point")
    p.add_argument("--x0", required=True)
    p.add_argument("--x1", required=True)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("witness", help="largest chamber witness point")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("report", help="run the acceptance suite")
    common(p)
    p.add_argument("--only", default=None)
    p.add_argument("--no-timings", action="store_true",
                   help="omit per-criterion seconds, so the output is byte-stable")
    p.set_defaults(func=cmd_report)

    for p in sub.choices.values():
        p.add_argument("--json-out", default=None, help="also write the JSON to this file")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
