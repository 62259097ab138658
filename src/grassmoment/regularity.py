"""Regular values, strata stabilizers, and the chamber combinatorics.

Two regularity notions live side by side.  A point of the hypersimplex is
a regular value for the Grassmannian moment map iff it avoids the
arrangement sum_{i in T} x_i = 1 and the boundary; it is a regular value
for the ambient projective moment map iff it lies in no convex hull of
vertices of dimension below n-1.  The second condition is decided over
walls, the hyperplanes of the slice spanned by n-1 vertices: x fails iff
it lies on a wall W and in the hull P_W of the vertices on W.  Each facet
of P_W, joined with any vertex off W, spans another wall, so P_W is the
part of W on the inner side of those walls.  One integer dot product of
x with every wall normal therefore decides both conditions.  An
exhaustive scan over all coordinate supports cross-checks it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence

from .exactgeom import (
    Vector,
    affine_rank,
    arrangement_for_n,
    clear_denominators,
    cleared_sign_vector,
    convex_membership,
    hypersimplex_vertices,
    pairs_lex,
    sign_vector,
    span_normal,
)

DEFAULT_SEED = 0xC0FFEE

#: Largest n the projective regularity test supports: the wall
#: enumeration grows too fast beyond it.
PROJECTIVE_MAX_N = 6

#: Canonical interior points of the two reference chambers.
CHAMBER_POINT_MINUS: Vector = (Fraction(1, 3), Fraction(5, 9), Fraction(5, 9), Fraction(5, 9))
CHAMBER_POINT_PLUS: Vector = (Fraction(2, 3), Fraction(4, 9), Fraction(4, 9), Fraction(4, 9))


@dataclass(frozen=True)
class AdmissiblePolytope:
    """Convex hull of the weight vectors indexed by a stratum support."""

    vertex_set: tuple[Vector, ...]
    dim: int


@dataclass(frozen=True)
class StabilizerReport:
    dim_polytope: int
    dim_stabilizer: int


@dataclass(frozen=True)
class ChamberReport:
    id: tuple[int, ...]
    dimension: int
    representative: Vector


@dataclass(frozen=True)
class ChamberOrbit:
    label: str
    representative: ChamberReport
    chambers: tuple[ChamberReport, ...]


def support_from_pairs(pairs: Sequence[tuple[int, int]], n: int) -> tuple[int, ...]:
    """Translate pairs {i, j} into 0-based coordinate indices, lex order."""
    index = {pair: k for k, pair in enumerate(pairs_lex(n))}
    return tuple(sorted(index[tuple(sorted(p))] for p in pairs))


def polytope_of_support(sigma: Sequence[int], n: int) -> AdmissiblePolytope:
    """The admissible polytope of a stratum support, with its exact dimension."""
    sigma = tuple(sigma)
    if not sigma:
        raise ValueError("stratum support must be nonempty")
    vertices = hypersimplex_vertices(n)
    if any(i < 0 or i >= len(vertices) for i in sigma):
        raise ValueError("support index out of range")
    vertex_set = tuple(vertices[i] for i in sigma)
    return AdmissiblePolytope(vertex_set=vertex_set, dim=affine_rank(vertex_set))


def stabilizer_dim(sigma: Sequence[int], n: int) -> StabilizerReport:
    """Stabilizer dimension of the stratum with nonzero coordinates sigma.

    The polytope spanned by the weight vectors of sigma has the same
    dimension as the freely acting quotient torus, so the stabilizer
    (diagonal circle included) has dimension n minus that.
    """
    polytope = polytope_of_support(sigma, n)
    return StabilizerReport(dim_polytope=polytope.dim, dim_stabilizer=n - polytope.dim)


def _cleared_point(x: Sequence[Fraction], n: int) -> tuple[list[int], int]:
    """x scaled to integers by its common denominator, with that denominator.

    Raises unless x is a point of the hypersimplex of length n.
    """
    if len(x) != n:
        raise ValueError(f"expected a point of length {n}")
    (cleared,), den = clear_denominators([x])
    if sum(cleared) != 2 * den or not all(0 <= v <= den for v in cleared):
        raise ValueError("point lies outside the hypersimplex")
    return cleared, den


def is_regular_grassmann(x: Sequence[Fraction], n: int) -> bool:
    """Regular value test for the Grassmannian moment map, exact.

    True iff 0 < x_i < 1 for all i and x avoids every arrangement
    hyperplane, i.e. x sits in an open chamber of maximal dimension.
    """
    cleared, den = _cleared_point(x, n)
    if not all(0 < v < den for v in cleared):
        return False
    return 0 not in cleared_sign_vector(cleared, den, arrangement_for_n(n))


@lru_cache(maxsize=8)
def _walls(n: int) -> tuple[tuple[tuple[int, ...], tuple[Vector, ...]], ...]:
    """Each wall of the slice sum x = 2, as (normal, vertices on the wall).

    A wall is the hyperplane of the slice spanned by n-1 affinely
    independent vertices.  The vertices lie off the origin, so their
    linear span cuts the slice in their affine hull, and the wall is
    {x : normal . x = 0} there.  The normal is the primitive integer
    normal of the span.  A subset whose vertices all lie on a wall found
    before spans that wall or nothing, so it is skipped unseen: every
    elimination left finds a new wall, in the order of the first subset
    that spans it.

    A vertex is e_a + e_b, so the normal y of a wall has y_a = -y_b on
    every edge {a, b} of the graph of its vertices: y is +-1 on the two
    sides of the one bipartite component of that graph and 0 elsewhere.

    Each wall W also bounds the hull P_W of its vertices, inside W: a
    facet F of P_W together with any vertex off W spans another wall W',
    and W' cuts W in the affine hull of F.  So P_W is cut out of W by the
    walls that leave every vertex of W on one side; ``_facet_table``
    keeps one such wall per facet.
    """
    vertices = hypersimplex_vertices(n)
    pairs = list(itertools.combinations(range(n), 2))
    walls: list[tuple[tuple[int, ...], tuple[Vector, ...]]] = []
    masks: list[int] = []
    for subset in itertools.combinations(range(len(vertices)), n - 1):
        mask = sum(1 << k for k in subset)
        if any(mask & m == mask for m in masks):
            continue
        spanned = span_normal([vertices[k] for k in subset])
        if spanned is None:
            continue
        normal = tuple(v.numerator for v in spanned)
        on_wall = [k for k, (a, b) in enumerate(pairs) if normal[a] + normal[b] == 0]
        masks.append(sum(1 << k for k in on_wall))
        walls.append((normal, tuple(vertices[k] for k in on_wall)))
    return tuple(walls)


@lru_cache(maxsize=8)
def _facet_table(n: int) -> tuple[tuple[tuple[int, int], ...],
                                  tuple[tuple[tuple[int, int], ...], ...]]:
    """Per wall, its normal as coordinate bitmasks (plus, minus) and the
    facets of its hull as pairs (j, s).

    The normal is +1 on plus and -1 on minus, so normal . x is a
    difference of two coordinate sums.  The hull of the vertices on wall
    i is {x on wall i : s * (normal_j . x) >= 0 for every (j, s) of row i}.
    Candidates are the walls j that leave all vertices of wall i on
    their side s; each touches the hull in the face of the vertices it
    holds.  The facets are the maximal such faces, so one wall is kept
    per maximal vertex set (the first in wall order).  Integers only: a
    vertex {a, b} has normal . v = normal[a] + normal[b].
    """
    walls = _walls(n)
    signed = []
    for normal, _ in walls:
        if not set(normal) <= {-1, 0, 1}:
            raise ValueError(f"wall normal {normal} is not a signed 0/1 vector")
        signed.append((sum(1 << k for k, v in enumerate(normal) if v > 0),
                       sum(1 << k for k, v in enumerate(normal) if v < 0)))
    pairs = list(itertools.combinations(range(n), 2))
    dots = [[normal[a] + normal[b] for a, b in pairs] for normal, _ in walls]
    facets = []
    for i, row in enumerate(dots):
        on_wall = [k for k, value in enumerate(row) if value == 0]
        faces: dict[int, tuple[int, int]] = {}
        for j, other in enumerate(dots):
            values = [other[k] for k in on_wall]
            side = 1 if min(values) >= 0 else -1 if max(values) <= 0 else 0
            if j != i and side:
                face = sum(1 << k for k in on_wall if other[k] == 0)
                faces.setdefault(face, (j, side))
        facets.append(tuple(entry for face, entry in faces.items()
                            if not any(face != f and face & f == face for f in faces)))
    return tuple(signed), tuple(facets)


def is_regular_projective(x: Sequence[Fraction], n: int) -> bool:
    """Regular value test for the ambient projective moment map, exact.

    A point fails iff it lies on some wall W and in the convex hull P_W
    of the vertices on W.  Such a hull has dimension n-2.  Conversely, by
    Caratheodory a low-dimensional witness hull reduces to at most n-1
    affinely independent vertices, which extend to n-1 independent
    vertices spanning a wall.  Each facet of P_W lies on another wall
    (see ``_walls``), so membership in P_W is a sign test against those
    walls.  x is scaled to integers once, its 2^n coordinate subset sums
    give the dot product with every wall normal, and the verdict reads
    that one integer vector, with no elimination.  Guarded to
    n <= PROJECTIVE_MAX_N.
    """
    if n > PROJECTIVE_MAX_N:
        raise ValueError(f"projective regularity test supports n <= {PROJECTIVE_MAX_N}")
    cleared, _ = _cleared_point(x, n)
    signed, facets = _facet_table(n)
    sums = [0]  # sums[mask]: the sum of the cleared coordinates in mask
    for value in cleared:
        sums += [s + value for s in sums]
    dots = [sums[plus] - sums[minus] for plus, minus in signed]
    for i, value in enumerate(dots):
        if value == 0 and all(s * dots[j] >= 0 for j, s in facets[i]):
            return False
    return True


def is_regular_projective_bruteforce(x: Sequence[Fraction], n: int) -> bool:
    """Reference scan over all nonempty coordinate supports.

    Declares x non-regular iff some support spans a polytope of dimension
    at most n-2 whose hull contains x.  Kept deliberately independent of
    the bounded enumeration above so the two can cross-check each other.
    """
    _cleared_point(x, n)
    vertices = hypersimplex_vertices(n)
    x = tuple(Fraction(v) for v in x)
    for size in range(1, len(vertices) + 1):
        for sigma in itertools.combinations(range(len(vertices)), size):
            subset = [vertices[i] for i in sigma]
            if affine_rank(subset) > n - 2:
                continue
            if convex_membership(x, subset) is not None:
                return False
    return True


def _representative_candidates() -> Iterator[Vector]:
    """Interior rational candidates: the eight reference points, then a grid."""
    for base in (CHAMBER_POINT_MINUS, CHAMBER_POINT_PLUS):
        special, common = base[0], base[1]
        for position in range(4):
            point = [common] * 4
            point[position] = special
            yield tuple(point)
    for point in hypersimplex_grid(4, 9):
        yield point


def enumerate_chambers(n: int = 4) -> list[ChamberReport]:
    """The eight maximal chambers of the n=4 decomposition, with exact representatives."""
    if n != 4:
        raise ValueError("chamber enumeration is implemented for n = 4 only")
    arrangement = arrangement_for_n(4)
    found: dict[tuple[int, ...], Vector] = {}
    for x in _representative_candidates():
        if not all(0 < v < 1 for v in x):
            continue
        signs = sign_vector(x, arrangement)
        if 0 in signs:
            continue
        found.setdefault(signs, x)
        if len(found) == 8:
            break
    return [ChamberReport(id=signs, dimension=3, representative=x)
            for signs, x in sorted(found.items())]


def chamber_orbits() -> tuple[ChamberOrbit, ChamberOrbit]:
    """Partition of the eight chambers under coordinate permutations.

    Two orbits of four chambers each; the orbit of the all-minus chamber
    is labeled C- and the orbit of the all-plus chamber C+.
    """
    chambers = enumerate_chambers(4)
    by_id = {c.id: c for c in chambers}
    arrangement = arrangement_for_n(4)

    parent = {c.id: c.id for c in chambers}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for chamber in chambers:
        for perm in itertools.permutations(range(4)):
            image = tuple(chamber.representative[p] for p in perm)
            union(chamber.id, sign_vector(image, arrangement))

    groups: dict[tuple[int, ...], list[ChamberReport]] = {}
    for chamber in chambers:
        groups.setdefault(find(chamber.id), []).append(chamber)

    minus_id = (-1, -1, -1)
    plus_id = (1, 1, 1)
    orbits = []
    for label, rep_id in (("C-", minus_id), ("C+", plus_id)):
        members = tuple(sorted(groups[find(rep_id)], key=lambda c: c.id))
        orbits.append(ChamberOrbit(label=label, representative=by_id[rep_id], chambers=members))
    return tuple(orbits)


def orbit_label(chamber_id: Sequence[int]) -> str:
    """C- or C+ label for a maximal chamber id."""
    for orbit in chamber_orbits():
        if tuple(chamber_id) in {c.id for c in orbit.chambers}:
            return orbit.label
    raise ValueError(f"not a maximal chamber id: {chamber_id}")


def center_point_regular(n: int) -> bool:
    """Whether the center (2/n, ..., 2/n) is a regular value; true iff n is odd."""
    if n < 4:
        raise ValueError("need n >= 4")
    center = tuple(Fraction(2, n) for _ in range(n))
    return is_regular_grassmann(center, n)


def largest_chamber_witness(n: int, seed: int = DEFAULT_SEED, max_trials: int = 2000) -> Vector:
    """Exact interior point of the largest maximal chamber.

    All support sums with |T| up to n//2 (odd n) or n//2 - 1 (even n) stay
    below 1, and no arrangement hyperplane is hit.  For odd n the center
    works; for even n a seeded exact perturbation of the center is
    searched.
    """
    if not 4 <= n <= 8:
        raise ValueError("witness search supports 4 <= n <= 8")
    strict_bound = n // 2 if n % 2 == 1 else n // 2 - 1
    arrangement = arrangement_for_n(n)

    def qualifies(x: Vector) -> bool:
        if not all(0 < v < 1 for v in x):
            return False
        for h in arrangement:
            value = h.evaluate(x)
            if value == 0:
                return False
            if len(h.support) <= strict_bound and value >= 0:
                return False
        return True

    center = tuple(Fraction(2, n) for _ in range(n))
    if qualifies(center):
        return center

    rng = random.Random(seed)
    scale = 100 * n * n
    for _ in range(max_trials):
        raw = [rng.randrange(-97, 98) for _ in range(n)]
        total = sum(raw)
        candidate = tuple(Fraction(2, n) + Fraction(n * r - total, n * scale) for r in raw)
        if sum(candidate) == 2 and qualifies(candidate):
            return candidate
    raise RuntimeError(f"witness search exhausted after {max_trials} trials")


def hypersimplex_grid(n: int, denominator: int) -> Iterator[Vector]:
    """All exact points of the hypersimplex with the given denominator."""
    d = denominator

    def rec(position: int, remaining: int):
        if position == n - 1:
            if 0 <= remaining <= d:
                yield (remaining,)
            return
        low = max(0, remaining - d * (n - 1 - position))
        high = min(d, remaining)
        for k in range(low, high + 1):
            for tail in rec(position + 1, remaining - k):
                yield (k,) + tail

    for numerators in rec(0, 2 * d):
        yield tuple(Fraction(k, d) for k in numerators)
