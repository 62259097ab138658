"""Exact rational geometry on the hypersimplex slice sum(x) = 2.

Chamber and regularity questions reduce to signs of coordinate subset
sums of one point x (sum_T x = 1, sum_A x = sum_B x) and to membership
tests in convex hulls of 0/1 vertices.  A sign test cannot be decided
reliably in floating point, so everything here is exact: the API takes
and returns rationals (fractions.Fraction).  A point query clears x once,
in _subset_sums, validates it in _integer_subset_sums, which callers
holding integer numerators use directly, and reads every sign from its
2^n integer subset sums; a hyperplane is the bitmask of its support.  Other
calls scale their vectors once by a common denominator, after which all
work runs on integers and one fraction-free elimination.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]


def rational(value: Fraction | int | str) -> Fraction:
    """Coerce an int, a string like '5/9', or a Fraction to a Fraction.

    Floats are rejected on purpose: a float has already lost exactness.
    A zero denominator is a ValueError, like any other malformed text.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value.strip()!r}") from None
    raise TypeError(f"cannot build an exact rational from {type(value).__name__}")


def format_rational(value: Fraction) -> str:
    """Serialize as 'p/q', or plain 'p' for integers (never 'p/1')."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def vector(values: Iterable[Fraction | int | str]) -> Vector:
    return tuple(rational(v) for v in values)


def parse_vector(text: str) -> Vector:
    """Parse a comma separated rational vector such as '1/3,5/9,5/9,5/9'."""
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty vector")
    return vector(parts)


def format_vector(x: Sequence[Fraction]) -> list[str]:
    return [format_rational(v) for v in x]


def pairs_lex(n: int) -> list[tuple[int, int]]:
    """All pairs {i, j} in {1..n}, i < j, in lexicographic order."""
    return list(itertools.combinations(range(1, n + 1), 2))


def hypersimplex_vertices(n: int) -> list[Vector]:
    """Exact 0/1 vertices of the hypersimplex, one per pair, lex order."""
    verts = []
    for i, j in pairs_lex(n):
        verts.append(tuple(Fraction(1) if k in (i, j) else Fraction(0)
                           for k in range(1, n + 1)))
    return verts


@lru_cache(maxsize=16)
def arrangement_for_n(n: int) -> tuple[int, ...]:
    """All hyperplanes sum_{i in T} x_i = 1 with 2 <= |T| <= n//2, each as
    the bitmask of T (bit i-1 for coordinate i).

    Canonical order: by support size, then lexicographic.  For even n and
    |T| = n/2, T and its complement cut the same hyperplane on the slice
    sum x = 2, so only the lexicographically smaller support, the one
    holding coordinate 1, is kept.  Built once per n.
    """
    if n < 4:
        raise ValueError(f"arrangement needs n >= 4, got {n}")
    return tuple(sum(1 << i for i in support)
                 for size in range(2, n // 2 + 1)
                 for support in itertools.combinations(range(n), size)
                 if 2 * size < n or support[0] == 0)


def clear_denominators(vectors: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """Scale rational vectors by their least common denominator.

    Returns (rows, den) with integer rows[i][j] = den * vectors[i][j].
    """
    ratios = [[(v if type(v) in (int, Fraction) else rational(v)).as_integer_ratio()
               for v in vec] for vec in vectors]
    den = math.lcm(*{d for row in ratios for _, d in row})
    return [[p * (den // d) for p, d in row] for row in ratios], den


#: Largest n for which an exact point query builds its 2^n subset sums;
#: past it the table no longer fits in memory.
SUBSET_SUM_MAX_N = 20


def _subset_sums(x: Sequence[Fraction], n: int) -> tuple[list[int], int, list[int]]:
    """_integer_subset_sums of x scaled to integers by its common denominator."""
    (cleared,), den = clear_denominators([x])
    return _integer_subset_sums(cleared, den, n)


def _integer_subset_sums(cleared: Sequence[int], den: int, n: int) -> tuple[Sequence[int], int, list[int]]:
    """The point cleared / den, that denominator, and the 2^n coordinate
    subset sums: sums[mask] adds the cleared coordinates whose bits are
    set in mask.  Every verdict read from them is invariant under
    positive scaling of (cleared, den, sums), so den need not be the
    least one.

    The one validation of an exact point query: raises unless
    cleared / den is a point of the hypersimplex of length n, and for n
    above SUBSET_SUM_MAX_N, where the table would not fit in memory.
    """
    if n > SUBSET_SUM_MAX_N:
        raise ValueError(f"exact point queries support n <= {SUBSET_SUM_MAX_N}, got {n}")
    if len(cleared) != n:
        raise ValueError(f"expected a point of length {n}")
    if den < 1 or sum(cleared) != 2 * den or min(cleared) < 0 or max(cleared) > den:
        raise ValueError("point lies outside the hypersimplex")
    sums = [0]
    for value in cleared:
        sums += [s + value for s in sums]
    return cleared, den, sums


def _signs(den: int, sums: Sequence[int], arrangement: Sequence[int]) -> tuple[int, ...]:
    # sum_T x - 1 has the sign of sums[T] - den.
    return tuple((sums[t] > den) - (sums[t] < den) for t in arrangement)


def sign_vector(x: Sequence[Fraction], arrangement: Sequence[int]) -> tuple[int, ...]:
    """Exact sign of sum_{i in T} x_i - 1 per mask T of arrangement_for_n(n),
    each in {-1, 0, 1}.

    Raises unless x is a point of the hypersimplex of length n.
    """
    _, den, sums = _subset_sums(x, max(arrangement).bit_length())
    return _signs(den, sums, arrangement)


def format_sign_vector(signs: Sequence[int]) -> str:
    return "[" + ",".join(str(s) for s in signs) + "]"


def _row_echelon(rows: list[list[int]], width: int | None = None) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free (Bareiss) Gauss-Jordan elimination over the integers.

    Pivots are chosen among the first width columns, all of them by
    default; the columns after those are right-hand sides that go through
    the same updates.  Returns (rows, pivot columns, det).  The first
    len(pivots) rows are det times the reduced row echelon form and the
    rest are zero in the pivot range; det is the last pivot, the
    determinant of the pivot minor up to sign.  Each update divides by the
    previous pivot, and by Sylvester's identity the division is exact:
    every entry stays a minor of the input.
    """
    rows = list(rows)  # a shallow copy: rows are replaced, never changed in place
    pivots: list[int] = []
    det = 1
    for c in range(width if width is not None else len(rows[0]) if rows else 0):
        r = len(pivots)
        for pivot_row in range(r, len(rows)):
            if rows[pivot_row][c]:
                break
        else:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        top = rows[r]
        pivot = top[c]
        for i, row in enumerate(rows):
            if i == r:
                continue
            factor = row[c]
            if factor:
                rows[i] = [(pivot * a - factor * b) // det for a, b in zip(row, top)]
            elif pivot != det:
                rows[i] = [pivot * a // det for a in row]
        det = pivot
        pivots.append(c)
        if len(pivots) == len(rows):
            break
    return rows, pivots, det


def _affine_rank(points: Sequence[Sequence[int]]) -> int:
    base = points[0]
    _, pivots, _ = _row_echelon([[a - b for a, b in zip(p, base)] for p in points[1:]])
    return len(pivots)


def affine_rank(points: Sequence[Sequence[Fraction]]) -> int:
    """Rank over Q of {v - v0 : v in points}, by exact elimination."""
    if not points:
        raise ValueError("affine_rank of an empty set")
    length = len(points[0])
    for p in points:
        if len(p) != length:
            raise ValueError("mixed vector lengths")
    cleared, _ = clear_denominators(points)
    return _affine_rank(cleared)


def solve_exact(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> list[Fraction] | None:
    """Solve A x = b exactly when A has full column rank.

    Returns None if the system is inconsistent, raises if the solution is
    not unique.  A may have more rows than columns.
    """
    augmented, _ = clear_denominators([[*row, rhs[i]] for i, row in enumerate(rows)])
    reduced, pivots, det = _row_echelon(augmented)
    ncols = len(rows[0]) if rows else 0
    if ncols in pivots:
        return None  # a pivot in the rhs column means inconsistency
    if len(pivots) < ncols:
        raise ValueError("underdetermined system")
    return [Fraction(row[-1], det) for row in reduced[:ncols]]


def _hull_system(points: Sequence[Sequence[int]], targets: Sequence[tuple[Sequence[int], int]]) -> list[list[int]]:
    """One row per coordinate: p - last for each point p but the last, then
    den * (x - last) for each target x = num / den, given as (num, den)."""
    last = points[-1]
    return [[p[i] - last[i] for p in points[:-1]] + [num[i] - den * last[i] for num, den in targets]
            for i in range(len(last))]


def _hull_weights(points: Sequence[Sequence[int]],
                  targets: Sequence[tuple[Sequence[int], int]]) -> list[tuple[Fraction, ...] | None]:
    """convex_membership of each target x = num / den (den > 0) in the hull
    of the integer points, every target eliminated alongside the others.

    One _row_echelon of [p - last | targets], pivoting in the point columns
    only, gives the affine rank of the points; a target is off their affine
    hull iff its column is nonzero below the pivot rows.  The rest are
    decided over the subsets of size rank+1 in combinations order, one
    elimination per subset while a target is undecided, none past the
    first when the points are independent.  On an independent subset a
    target's column holds det * den times its weights but the last, which
    is det * den minus their sum, and it lies in the subset's hull iff
    all of them have the sign of det.
    """
    m = len(points)
    first = _row_echelon(_hull_system(points, targets), m - 1)
    rank = len(first[1])
    pending = [t for t in range(len(targets)) if not any(row[m - 1 + t] for row in first[0][rank:])]
    found: list[tuple[Fraction, ...] | None] = [None] * len(targets)
    candidates = [tuple(range(m))] if m == rank + 1 else itertools.combinations(range(m), rank + 1)
    for idx in candidates:
        if not pending:
            break
        if len(idx) == m:
            (reduced, pivots, det), columns = first, pending
        else:
            reduced, pivots, det = _row_echelon(
                _hull_system([points[i] for i in idx], [targets[t] for t in pending]), rank)
            columns = range(len(pending))
        if len(pivots) < rank:
            continue  # a dependent subset
        undecided = []
        for t, c in zip(pending, columns):
            den = targets[t][1]
            weights = [row[rank + c] for row in reduced[:rank]]
            weights.append(det * den - sum(weights))
            if det < 0:
                weights = [-w for w in weights]
            if min(weights) < 0:
                undecided.append(t)
                continue
            full = [Fraction(0)] * m
            for i, w in zip(idx, weights):
                full[i] = Fraction(w, abs(det) * den)
            found[t] = tuple(full)
        pending = undecided
    return found


def convex_membership(x: Sequence[Fraction], points: Sequence[Sequence[Fraction]]) -> tuple[Fraction, ...] | None:
    """Exact test for x in conv(points).

    Returns exact weights lambda >= 0 with sum 1 and sum lambda_i v_i = x,
    or None.  The one-target case of _hull_weights: one elimination of
    [p - last | x - last] gives the affine rank of the points and returns
    None at once when x is off their affine hull.  Otherwise the decision
    runs over affinely independent subsets of size rank+1 (a membership
    witness always reduces to one such subset), and each candidate subset
    admits at most one weight vector, found by exact elimination, or read
    from the first one when the points themselves are independent.  x and
    the points are scaled to integers once, by one common denominator,
    which leaves the weights unchanged.
    """
    if not points:
        raise ValueError("membership in an empty hull")
    length = len(x)
    for p in points:
        if len(p) != length:
            raise ValueError("mixed vector lengths")
    (target, *cleared), _ = clear_denominators([x, *points])
    return _hull_weights(cleared, [(target, 1)])[0]
