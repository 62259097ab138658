"""Verdict checks for the three workloads, written without grassmoment.

A broken exact test or a certificate that is never really checked is
fast; these checks make it count as a failure instead of a gain.

* classify: the projective verdict must match the label the point was
  built with (``inputs``); the Grassmann verdict and the sign vector are
  recomputed from their definitions.
* fiber-mq5: every emitted point is re-checked with numpy at pinned
  tolerances (the values of ``fibers4.DEFAULT_TOLERANCES``).
* report: every one of the twelve criteria must pass, the exit code must
  be 0, and the deterministic counts in the details must hold.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction

import numpy as np

#: Tolerances of fibers4.DEFAULT_TOLERANCES, pinned so that loosening them
#: in the library does not loosen the re-check.
TOLERANCES = {"norm": 1e-10, "plucker": 1e-10, "moment": 1e-10, "f_values": 1e-9,
              "rank_tol": 1e-6}

#: Moment image of the first-orbit n = 4 fiber.
FIBER_TARGET = np.array([1 / 3, 5 / 9, 5 / 9, 5 / 9])

CRITERIA_COUNT = 12


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def arrangement(n: int) -> list[tuple[int, ...]]:
    """Supports T (0-based) of sum_{i in T} x_i = 1 in the library's documented
    canonical order: by size 2..n//2, then lexicographic, and for even n at
    size n/2 only the lexicographically smaller of T and its complement."""
    supports = []
    for size in range(2, n // 2 + 1):
        for support in itertools.combinations(range(n), size):
            if n % 2 == 0 and size == n // 2:
                complement = tuple(i for i in range(n) if i not in support)
                if complement < support:
                    continue
            supports.append(support)
    return supports


def expected_signs(x: tuple[Fraction, ...]) -> tuple[int, ...]:
    out = []
    for support in arrangement(len(x)):
        value = sum(x[i] for i in support) - 1
        out.append((value > 0) - (value < 0))
    return tuple(out)


def expected_grassmann(x: tuple[Fraction, ...]) -> bool:
    """Regular for the Grassmannian moment map: inside the open hypersimplex
    and on no hyperplane sum_{i in T} x_i = 1."""
    n = len(x)
    if not all(0 < v < 1 for v in x):
        return False
    return all(sum(x[i] for i in support) != 1
               for size in range(2, n - 1)
               for support in itertools.combinations(range(n), size))


def check_query(query, signs, grassmann, projective) -> bool:
    """True iff all three verdicts on ``query`` (an ``inputs.Query``) are right."""
    x = query.point
    return (tuple(signs) == expected_signs(x)
            and grassmann == expected_grassmann(x)
            and projective == query.projective_regular)


# ---------------------------------------------------------------------------
# fiber-mq5
# ---------------------------------------------------------------------------

def _chart_jacobian(a: np.ndarray) -> np.ndarray:
    """(N, 3, 8) real Jacobian of the chart quadrics in (Re a1..a4, Im a1..a4)."""
    cross = a[:, 0] * a[:, 3] - a[:, 1] * a[:, 2]
    dcross = np.stack([a[:, 3], -a[:, 2], -a[:, 1], a[:, 0]], axis=1)
    # d|a_k|^2 / d(Re, Im) = 2 (Re a_k, Im a_k); d|C|^2 = 2 Re(conj(C) dC).
    ds = 2.0 * np.concatenate([a.real, a.imag], axis=1)
    dc = 2.0 * np.concatenate([(np.conj(cross)[:, None] * dcross).real,
                               (np.conj(cross)[:, None] * 1j * dcross).real], axis=1)
    rows1 = np.array([1, 1, -1, -1] * 2, dtype=float)
    rows2 = np.array([5, 0, 1, -4] * 2, dtype=float)
    rows3 = np.array([4, 0, 1, -3] * 2, dtype=float)
    return np.stack([ds * rows1, ds * rows2, ds * rows3 + dc], axis=1)


def recheck_fiber(returncode: int, text: str, samples: int) -> int:
    """Failed certificates of one ``fiber mq5 --samples N`` run.

    A bad exit code, a failed aggregate or a wrong certificate count fails
    every sample; otherwise each certificate whose point or emitted
    values do not pass the independent re-check counts once.
    """
    try:
        payload = json.loads(text)
        certs = payload["certificates"]
        envelope_ok = (returncode == 0 and payload["aggregate"]["all_passed"] is True
                       and len(certs) == samples)
    except (ValueError, KeyError, TypeError):
        return samples
    if not envelope_ok:
        return samples
    z = np.array([[complex(re, im) for re, im in c["point"]] for c in certs])
    emitted_f = np.array([c["f_values"] for c in certs], dtype=float)
    emitted_rank = np.array([c["jacobian_rank"] for c in certs])
    tol = TOLERANCES

    norm_ok = np.abs(np.linalg.norm(z, axis=1) - 1.0) <= tol["norm"]
    unit = z / np.linalg.norm(z, axis=1)[:, None]
    quadric = unit[:, 0] * unit[:, 5] + unit[:, 2] * unit[:, 3] - unit[:, 1] * unit[:, 4]
    plucker_ok = np.abs(quadric) <= tol["plucker"]
    profile = np.abs(unit) ** 2
    pairs = list(itertools.combinations(range(4), 2))
    image = np.stack([sum(profile[:, k] for k, p in enumerate(pairs) if i in p)
                      for i in range(4)], axis=1)
    moment_ok = np.max(np.abs(image - FIBER_TARGET), axis=1) <= tol["moment"]

    # Affine chart on the {2,3}-minor coordinate z3.
    a = np.stack([z[:, 1], -z[:, 5], -z[:, 0], z[:, 4]], axis=1) / z[:, 3:4]
    s = np.abs(a) ** 2
    cross = np.abs(a[:, 0] * a[:, 3] - a[:, 1] * a[:, 2]) ** 2
    f = np.stack([s[:, 0] + s[:, 1] - s[:, 2] - s[:, 3],
                  5 * s[:, 0] + s[:, 2] - 4 * s[:, 3],
                  4 * s[:, 0] + s[:, 2] - 3 * s[:, 3] + cross], axis=1)
    target_f = np.array([0.0, -1.0, 0.0])
    f_ok = ((np.max(np.abs(f - target_f), axis=1) <= tol["f_values"])
            & (np.max(np.abs(emitted_f - target_f), axis=1) <= tol["f_values"]))
    singular = np.linalg.svd(_chart_jacobian(a), compute_uv=False)
    rank = np.sum(singular > tol["rank_tol"] * singular[:, :1], axis=1)
    rank_ok = (rank == 3) & (emitted_rank == 3)

    passed = norm_ok & plucker_ok & moment_ok & f_ok & rank_ok
    return int(samples - np.count_nonzero(passed))


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

#: Deterministic details every passing report shows, by criterion number.
REPORT_DETAILS = {
    1: {"chamber_count": 8, "orbit_sizes": [4, 4]},
    5: {"grid_points": 4579, "mismatches": 0,
        "n5_point_grassmann_regular_projective_nonregular": True},
    6: {"points": 200, "disagreements": 0},
    10: {"verdicts": {str(n): n % 2 == 1 for n in range(4, 11)}},
    11: {"dims7": [7], "dims5": [5]},
}


def check_report(returncode: int, text: str) -> int:
    """Failed criteria, out of twelve, of one ``report`` run."""
    try:
        criteria = json.loads(text)["criteria"]
        by_number = {c["number"]: c for c in criteria}
    except (ValueError, KeyError, TypeError):
        return CRITERIA_COUNT
    failed = 0
    for number in range(1, CRITERIA_COUNT + 1):
        criterion = by_number.get(number)
        expected = REPORT_DETAILS.get(number, {})
        if (criterion is None or criterion.get("passed") is not True
                or any(criterion["details"].get(k) != v for k, v in expected.items())):
            failed += 1
    if returncode != 0:
        failed = max(failed, 1)
    return failed
