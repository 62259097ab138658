"""Exact rational geometry on the hypersimplex slice sum(x) = 2.

Chamber and regularity questions reduce to sign tests against hyperplanes
sum_{i in T} x_i = 1 and to membership tests in convex hulls of 0/1
vertices.  A sign test cannot be decided reliably in floating point, so
everything in this module runs on fractions.Fraction and is exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Rational = Fraction
Vector = tuple[Fraction, ...]


def rational(value: Fraction | int | str) -> Fraction:
    """Coerce an int, a string like '5/9', or a Fraction to a Fraction.

    Floats are rejected on purpose: a float has already lost exactness.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
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


def in_hypersimplex(x: Sequence[Fraction]) -> bool:
    """Exact membership test for {0 <= x_i <= 1, sum x_i = 2}."""
    return all(0 <= v <= 1 for v in x) and sum(x) == 2


@dataclass(frozen=True)
class Hyperplane:
    """The hyperplane sum_{i in support} x_i = 1, with 1-based support."""

    support: tuple[int, ...]

    def __post_init__(self):
        support = tuple(sorted(self.support))
        if len(support) < 2:
            raise ValueError("hyperplane support needs at least two indices")
        if len(set(support)) != len(support) or support[0] < 1:
            raise ValueError(f"bad hyperplane support {support}")
        object.__setattr__(self, "support", support)

    def evaluate(self, x: Sequence[Fraction]) -> Fraction:
        """sum_{i in support} x_i - 1, exactly."""
        return sum(x[i - 1] for i in self.support) - 1


def arrangement_for_n(n: int) -> list[Hyperplane]:
    """All hyperplanes sum_{i in T} x_i = 1 with 2 <= |T| <= n//2.

    Canonical order: by support size, then lexicographic.  For even n and
    |T| = n/2, T and its complement cut the same hyperplane on the slice
    sum x = 2, so only the lexicographically smaller support is kept.
    """
    if n < 4:
        raise ValueError(f"arrangement needs n >= 4, got {n}")
    half = n // 2
    hyperplanes = []
    for size in range(2, half + 1):
        for support in itertools.combinations(range(1, n + 1), size):
            if n % 2 == 0 and size == half:
                complement = tuple(sorted(set(range(1, n + 1)) - set(support)))
                if complement < support:
                    continue
            hyperplanes.append(Hyperplane(support))
    return hyperplanes


def sign_vector(x: Sequence[Fraction], arrangement: Sequence[Hyperplane]) -> tuple[int, ...]:
    """Exact sign of sum_{i in T} x_i - 1 per hyperplane, each in {-1, 0, 1}."""
    if arrangement:
        needed = max(max(h.support) for h in arrangement)
        if len(x) < needed:
            raise ValueError(f"point of length {len(x)} too short for arrangement")
    if sum(x) != 2:
        raise ValueError("point is not on the slice sum(x) = 2")
    signs = []
    for h in arrangement:
        value = h.evaluate(x)
        signs.append(0 if value == 0 else (1 if value > 0 else -1))
    return tuple(signs)


def format_sign_vector(signs: Sequence[int]) -> str:
    return "[" + ",".join(str(s) for s in signs) + "]"


def _row_echelon(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form by exact Gauss-Jordan; returns (rows, pivot cols)."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def span_normal(rows: Sequence[Sequence[Fraction]]) -> Vector | None:
    """Normal of the linear span of d-1 vectors in Q^d, or None if they are dependent.

    The free coordinate is set to 1 and the others are read off the
    reduced rows.  Reduced row echelon form depends only on the row
    space, so every spanning set of a hyperplane gives the same normal.
    """
    reduced, pivots = _row_echelon(rows)
    ncols = len(rows[0])
    if len(pivots) != ncols - 1:
        return None
    free = next(c for c in range(ncols) if c not in pivots)
    normal = [Fraction(0)] * ncols
    normal[free] = Fraction(1)
    for row, c in zip(reduced, pivots):
        normal[c] = -row[free]
    return tuple(normal)


def affine_rank(points: Sequence[Sequence[Fraction]]) -> int:
    """Rank over Q of {v - v0 : v in points}, by exact elimination."""
    if not points:
        raise ValueError("affine_rank of an empty set")
    base = points[0]
    length = len(base)
    for p in points:
        if len(p) != length:
            raise ValueError("mixed vector lengths")
    rows = [[Fraction(p[j]) - Fraction(base[j]) for j in range(length)]
            for p in points[1:]]
    _, pivots = _row_echelon(rows)
    return len(pivots)


def solve_exact(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> list[Fraction] | None:
    """Solve A x = b exactly when A has full column rank.

    Returns None if the system is inconsistent, raises if the solution is
    not unique.  A may have more rows than columns.
    """
    augmented = [[Fraction(v) for v in row] + [Fraction(rhs[i])]
                 for i, row in enumerate(rows)]
    reduced, pivots = _row_echelon(augmented)
    ncols = len(rows[0]) if rows else 0
    if ncols in pivots:
        return None  # a pivot in the rhs column means inconsistency
    if len(pivots) < ncols:
        raise ValueError("underdetermined system")
    solution = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        solution[c] = reduced[r][-1]
    return solution


def _barycentric(x: Sequence[Fraction], points: Sequence[Sequence[Fraction]]) -> tuple[Fraction, ...] | None:
    """Unique affine weights of x over affinely independent points, or None."""
    if len(points) == 1:
        return (Fraction(1),) if tuple(x) == tuple(points[0]) else None
    last = points[-1]
    rows = [[Fraction(p[i]) - Fraction(last[i]) for p in points[:-1]]
            for i in range(len(last))]
    rhs = [Fraction(x[i]) - Fraction(last[i]) for i in range(len(last))]
    partial = solve_exact(rows, rhs)
    if partial is None:
        return None
    return tuple(partial) + (1 - sum(partial),)


def convex_membership(x: Sequence[Fraction], points: Sequence[Sequence[Fraction]]) -> tuple[Fraction, ...] | None:
    """Exact test for x in conv(points).

    Returns exact weights lambda >= 0 with sum 1 and sum lambda_i v_i = x,
    or None.  The decision runs over affinely independent subsets of size
    rank+1 (a membership witness always reduces to one such subset), and
    each candidate subset admits at most one weight vector, found by exact
    elimination.
    """
    if not points:
        raise ValueError("membership in an empty hull")
    length = len(x)
    for p in points:
        if len(p) != length:
            raise ValueError("mixed vector lengths")
    m = len(points)
    rank = affine_rank(points)
    size = rank + 1
    if m <= size:
        candidates: Iterable[tuple[int, ...]] = [tuple(range(m))]
    else:
        candidates = itertools.combinations(range(m), size)
    for idx in candidates:
        subset = [points[i] for i in idx]
        if len(subset) > 1 and affine_rank(subset) != len(subset) - 1:
            continue
        weights = _barycentric(x, subset)
        if weights is None or any(w < 0 for w in weights):
            continue
        full = [Fraction(0)] * m
        for i, w in zip(idx, weights):
            full[i] = w
        return tuple(full)
    return None
