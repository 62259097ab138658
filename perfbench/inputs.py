"""Seeded exact query points for the classify workload, labeled by construction.

Nothing here imports grassmoment: the labels must not come from the code
under test.  Every point lies on the slice sum(x) = 2 of the hypersimplex
and is stored as integer numerators over one common denominator.

Kinds (a batch of 20 holds the counts in ``BATCH_MIX``, shuffled):

* ``generic``: numerators drawn over the prime ``PRIME`` and rejected if
  the point lies on any wall, i.e. any hyperplane of the slice spanned by
  n - 1 hypersimplex vertices.  Every vertex set of dimension <= n - 2 lies
  in such a wall, so the point is regular for both moment maps.
* ``hull`` (on a wall): a convex combination, with positive weights, of
  ``HULL_SIZE`` = 4 <= n - 1 affinely independent vertices, so it lies in a
  hull of dimension <= n - 2 and is not projectively regular.
* ``arrangement`` (on a wall): a point of a hyperplane sum_{i in T} x_i = 1,
  which sits inside the (n-2)-dimensional hull of the vertices e_i + e_j
  with i in T, j not in T, so it is regular for neither map.

Every batch has the same mix, and the hull size is fixed, so batches cost
about the same and a run's numbers do not hinge on which kinds it drew.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

PRIME = 10_007

#: (n, kind, count) per batch: n=5 generic 60%, n=5 on a wall 15%, n=6 generic
#: 15%, n=6 on a wall 10% of the queries.
BATCH_MIX = ((5, "generic", 12), (5, "hull", 2), (5, "arrangement", 1),
             (6, "generic", 3), (6, "hull", 1), (6, "arrangement", 1))
BATCH_SIZE = sum(count for _, _, count in BATCH_MIX)
HULL_SIZE = 4


@dataclass(frozen=True)
class Query:
    n: int
    kind: str  # "generic", "hull" or "arrangement"
    numerators: tuple[int, ...]
    denominator: int

    @property
    def cls(self) -> str:
        return "generic" if self.kind == "generic" else "wall"

    @property
    def point(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(a, self.denominator) for a in self.numerators)

    @property
    def projective_regular(self) -> bool:
        return self.kind == "generic"


def vertices(n: int) -> list[tuple[int, ...]]:
    """The 0/1 vertices e_i + e_j of the hypersimplex, i < j in lex order."""
    return [tuple(1 if k in (i, j) else 0 for k in range(n))
            for i, j in itertools.combinations(range(n), 2)]


def _det(matrix: list[list[int]]) -> int:
    """Integer determinant by fraction-free (Bareiss) elimination."""
    m = [list(row) for row in matrix]
    size = len(m)
    sign, previous = 1, 1
    for k in range(size - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // previous
        previous = m[k][k]
    return sign * m[-1][-1]


def _normal(rows: list[tuple[int, ...]]) -> tuple[int, ...] | None:
    """Primitive integer normal of the linear span of n - 1 vectors in Z^n.

    Components are the signed maximal minors; None when the rows are
    linearly dependent.  On the slice sum(x) = 2 the linear span of
    vertices is the same as their affine hull plus the origin, so
    c . x = 0 cuts out the wall they span.
    """
    n = len(rows[0])
    c = [(-1) ** j * _det([[row[k] for k in range(n) if k != j] for row in rows])
         for j in range(n)]
    if not any(c):
        return None
    lead = next(v for v in c if v != 0)
    scale = math.gcd(*c) if lead > 0 else -math.gcd(*c)
    return tuple(v // scale for v in c)


@lru_cache(maxsize=None)
def walls(n: int) -> tuple[tuple[int, ...], ...]:
    """Normals of all hyperplanes of the slice spanned by n - 1 vertices."""
    found = set()
    for subset in itertools.combinations(vertices(n), n - 1):
        normal = _normal(list(subset))
        if normal is not None:
            found.add(normal)
    return tuple(sorted(found))


def on_a_wall(numerators: tuple[int, ...]) -> bool:
    n = len(numerators)
    return any(sum(c * a for c, a in zip(normal, numerators)) == 0 for normal in walls(n))


def _affinely_independent(points: list[tuple[int, ...]]) -> bool:
    # Vertices sit on sum(x) = 2, away from the origin, so affine and
    # linear independence coincide; test linear independence by a nonzero
    # maximal minor of the (k x n) matrix.
    k = len(points)
    n = len(points[0])
    return any(_det([[p[c] for c in cols] for p in points]) != 0
               for cols in itertools.combinations(range(n), k))


def _generic(rng: random.Random, n: int) -> Query:
    p = PRIME
    while True:
        head = [rng.randint(1, p - 1) for _ in range(n - 1)]
        last = 2 * p - sum(head)
        if not 1 <= last <= p - 1:
            continue
        numerators = tuple(head + [last])
        if not on_a_wall(numerators):
            return Query(n, "generic", numerators, p)


def _positive_weights(rng: random.Random, count: int, total: int) -> list[int]:
    cuts = sorted(rng.sample(range(1, total), count - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _hull(rng: random.Random, n: int) -> Query:
    verts = vertices(n)
    while True:
        chosen = rng.sample(verts, HULL_SIZE)
        if _affinely_independent(chosen):
            break
    weights = _positive_weights(rng, HULL_SIZE, PRIME)
    numerators = tuple(sum(w * v[i] for w, v in zip(weights, chosen)) for i in range(n))
    return Query(n, "hull", numerators, PRIME)


def _arrangement(rng: random.Random, n: int) -> Query:
    # x_T is a positive split of 1 over T, x_rest a positive split of 1
    # over the complement, each coordinate below 1.
    size = rng.randint(2, n // 2)
    support = set(rng.sample(range(n), size))
    inside = iter(_positive_weights(rng, size, PRIME))
    outside = iter(_positive_weights(rng, n - size, PRIME))
    numerators = tuple(next(inside) if i in support else next(outside) for i in range(n))
    return Query(n, "arrangement", numerators, PRIME)


def classify_batch(seed: int, index: int) -> list[Query]:
    """Batch ``index`` of the classify stream for ``seed``; same inputs, same batch."""
    rng = random.Random(f"classify:{seed}:{index}")
    make = {"generic": _generic, "hull": _hull, "arrangement": _arrangement}
    batch = [make[kind](rng, n) for n, kind, count in BATCH_MIX for _ in range(count)]
    rng.shuffle(batch)
    return batch
