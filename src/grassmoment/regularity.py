"""Torus orbit dimensions (orbit_dimension), regular values, the chamber combinatorics, the exact
solution triangle of the moment system over the chamber point q- (solve_moment_triangle), and the
torus bundle's chart transition t -> t^M (transition_check); nothing here uses a float.

Two regularity notions live side by side.  A point of the hypersimplex is
a regular value for the Grassmannian moment map iff it avoids the
arrangement sum_{i in T} x_i = 1 and the boundary; it is a regular value
for the ambient projective moment map iff it lies in no convex hull of
vertices of dimension below n-1.  The second condition has a closed form
(the hypersimplex faces of Gelfand-Goresky-MacPherson-Serganova): x is
critical iff some x_i = 0, or [n] = A + B + C with A and B nonempty,
|C| = 0 or 3 <= |C| <= n-2, sum_A x = sum_B x and 2 max_C x <= sum_C x.
Sketch: a wall, a hyperplane of the slice spanned by n-1 vertices, has
normal e_a or 1_A - 1_B; the vertices on the latter form the graph
K_{A,B} + K_C, which has the single bipartite component a spanning set
needs only for those |C|, and on the wall their hull,
conv(Delta_A x Delta_B, Delta(2, C)), is cut out by x_c <= 1 - sum_A x.
The C = {} walls are the arrangement, so every Grassmann-critical point
is projective-critical; beyond it, _off_split_walls finds the |C| >= 3
walls as pairs of disjoint masks of equal subset sum.  For n = 4 no
|C| >= 3 fits, so there the two notions coincide.  classify_point reads
the chamber id and both verdicts from one table of the 2^n integer subset
sums of x (exactgeom._subset_sums).  A scan of the definition over every
flat spanned by vertices cross-checks them.

At n = 4 one exact action of the 48 symmetries (sigma, star) of Delta_{4,2} moves levels
(act_on_level) and Plucker coordinates (pair_table); the chambers are the images of q-.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .exactgeom import (
    Vector,
    _check_point,
    _cleared,
    _hull_weights,
    _integer_subset_sums,
    _signs,
    _subset_sums,
    affine_rank,
    arrangement_for_n,
    convex_membership,
    hypersimplex_vertices,
    solve_exact,
)

DEFAULT_SEED = 0xC0FFEE
DEFAULT_SAMPLES = 1000

#: Largest n the projective regularity test supports, set by its worst known
#: input: the regular point (1 - eps, y, ..., y) has about 3^(n-1) pairs of
#: disjoint masks of equal sum, 0.4 s at n = 14 and 1.5 s at n = 15 (2-CPU host).
PROJECTIVE_MAX_N = 14

#: A symmetry (sigma, star) of Delta_{4,2}: sigma a permutation of range(4), star whether the star acts first.
Symmetry = tuple[tuple[int, ...], bool]
#: The 48 symmetries S_4 x <star>: the permutations in itertools order (the identity first), then with star.
SYMMETRIES = tuple((sigma, star) for star in (False, True) for sigma in itertools.permutations(range(4)))
#: The star alone, x -> 1 - x, which exchanges C- and C+; ``fiber --orbit plus`` applies it.
STAR: Symmetry = ((0, 1, 2, 3), True)


def act_on_level(g: Symmetry, x: Sequence[Fraction]) -> Vector:
    """g . x for a level x: x, or 1 - x when g is starred, with coordinate i moved to sigma(i)."""
    sigma, star = g
    return tuple(1 - x[sigma.index(i)] if star else x[sigma.index(i)] for i in range(4))


def pair_table(g: Symmetry) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """g on the Plucker coordinates z0..z5 = P_ij (ij in lex order) as (source, sign): coordinate
    m of g . z is sign[m] * z[source[m]].  The star reverses z0..z5, then sigma sends P_ij to
    P_sigma(i)sigma(j), negated where sigma reverses the pair's order; the moment of g . z is g . x."""
    sigma, star = g
    pairs = list(itertools.combinations(range(4), 2))
    preimages = [(sigma.index(a), sigma.index(b)) for a, b in pairs]  # sigma sends (i, j) to (a, b)
    source = [pairs.index((i, j) if i < j else (j, i)) for i, j in preimages]
    return tuple(5 - k if star else k for k in source), tuple(1 if i < j else -1 for i, j in preimages)


#: The reference levels q- of the chamber (-1, -1, -1) and q+ = star q- of (1, 1, 1).
CHAMBER_POINT_MINUS: Vector = (Fraction(1, 3), Fraction(5, 9), Fraction(5, 9), Fraction(5, 9))
CHAMBER_POINT_PLUS: Vector = act_on_level(STAR, CHAMBER_POINT_MINUS)


@dataclass(frozen=True)
class MomentTriangle:
    """Exact affine solution of the weight-map system over the chamber point.

    The solution plane is parametrized by the two free coordinates
    (x4, x5); intersected with the standard simplex it is a triangle.
    """

    constant: Vector
    direction_x4: Vector
    direction_x5: Vector

    def point(self, x4: Fraction, x5: Fraction) -> Vector:
        x4, x5 = Fraction(x4), Fraction(x5)
        head = tuple(self.constant[i] + x4 * self.direction_x4[i] + x5 * self.direction_x5[i]
                     for i in range(4))
        return head + (x4, x5)

    def point_from_head(self, x0: Fraction, x1: Fraction) -> Vector:
        x0, x1 = Fraction(x0), Fraction(x1)
        rows = [[self.direction_x4[0], self.direction_x5[0]],
                [self.direction_x4[1], self.direction_x5[1]]]
        rhs = [x0 - self.constant[0], x1 - self.constant[1]]
        x4, x5 = solve_exact(rows, rhs)
        return self.point(x4, x5)

    def edge_point(self, edge: int, t: Fraction) -> Vector:
        """Point of edge 0, 1 or 2 (where x0, x1 or x2 vanishes), 0 <= t <= R, the head sphere's
        radius^2 and x0 + x1 + x2 on the triangle: R = q1, read off the level."""
        t, radius2 = Fraction(t), CHAMBER_POINT_MINUS[0]
        if not 0 <= t <= radius2:
            raise ValueError(f"edge parameter must lie in [0, {radius2}]")
        if edge not in (0, 1, 2):
            raise ValueError("edge must be 0, 1 or 2")
        return self.point_from_head(*((0, t), (t, 0), (t, radius2 - t))[edge])

    @property
    def vertices(self) -> dict[str, Vector]:
        heads = {"X01": (0, 0), "X02": (0, CHAMBER_POINT_MINUS[0]), "X12": (CHAMBER_POINT_MINUS[0], 0)}
        return {name: self.point_from_head(*head) for name, head in heads.items()}


def solve_moment_triangle() -> MomentTriangle:
    """Solve the 4 x 6 weight-map system sum_k x_k v_k = q- exactly with
    x4, x5 free; v_k are the hypersimplex vertices, one per pair."""
    vertices = hypersimplex_vertices(4)
    rows = [[v[j] for v in vertices[:4]] for j in range(4)]
    constant = solve_exact(rows, list(CHAMBER_POINT_MINUS))
    dir4 = solve_exact(rows, [-c for c in vertices[4]])
    dir5 = solve_exact(rows, [-c for c in vertices[5]])
    return MomentTriangle(constant=tuple(constant),
                          direction_x4=tuple(dir4),
                          direction_x5=tuple(dir5))


#: The chart transition t -> t^M on the torus fiber: M, and M^-1 typed by hand as the datum M is checked on.
TRANSITION_EXPONENTS = ((1, 1, -1), (1, 0, 0), (0, 0, 1))
TRANSITION_EXPONENTS_INVERSE = ((0, 1, 0), (1, -1, 1), (0, 0, 1))


def transition_check() -> tuple[int, int, bool]:
    """M's determinant, the largest entry of |M M^-1 - I|, and whether they are -1 and 0, in integers.
    Monomial maps compose by multiplying exponents: M M^-1 = I is the cocycle identity on every torus element."""
    m, inverse = TRANSITION_EXPONENTS, TRANSITION_EXPONENTS_INVERSE
    determinant = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                   - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                   + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
    max_cocycle = max(abs(sum(m[i][k] * inverse[k][j] for k in range(3)) - (i == j))
                      for i in range(3) for j in range(3))
    return determinant, max_cocycle, determinant == -1 and max_cocycle == 0


@dataclass(frozen=True)
class ChamberReport:
    id: tuple[int, ...]
    representative: Vector
    #: The first of SYMMETRIES that carries q- into the chamber; representative is that image.
    symmetry: Symmetry

    @property
    def orbit(self) -> str:
        """The chamber's S_4 orbit: C- when S_4 carries q- to it (its first symmetry is
        unstarred), else C+, which only sigma . star reaches; the star exchanges the two."""
        return "C+" if self.symmetry[1] else "C-"


def orbit_dimension(support: Sequence[int], n: int) -> int:
    """Dimension of the torus orbit of a point of CP^N whose nonzero
    coordinates are support (0-based indices in lex pair order).

    It is the affine rank of the weights e_i + e_j over the support
    (Atiyah 1982; Gelfand-Goresky-MacPherson-Serganova 1987), so it is
    also the rank of the moment map's differential at the point, and
    n minus it is the dimension of the stabilizer, diagonal circle included.
    """
    support = tuple(support)
    if not support:
        raise ValueError("stratum support must be nonempty")
    vertices = hypersimplex_vertices(n)
    if any(i < 0 or i >= len(vertices) for i in support):
        raise ValueError("support index out of range")
    return affine_rank([vertices[i] for i in support])


def _off_arrangement(cleared: Sequence[int], den: int, sums: Sequence[int]) -> bool:
    """0 < x_i < 1 for all i and no coordinate sum of x equals 1.

    A singleton T and its complement give the boundary x_i = 1, so
    sums[T] == den for some T is exactly a hit on the arrangement or on
    that boundary.
    """
    return min(cleared) > 0 and den not in sums


def is_regular_grassmann(x: Sequence[Fraction], n: int) -> bool:
    """Regular value test for the Grassmannian moment map, exact.

    True iff 0 < x_i < 1 for all i and x avoids every arrangement
    hyperplane, i.e. x sits in an open chamber of maximal dimension.
    """
    return _off_arrangement(*_subset_sums(x, n))


def is_regular_projective(x: Sequence[Fraction], n: int) -> bool:
    """Regular value test for the ambient projective moment map, exact.

    x fails iff it lies in the hull of the vertices on some wall; the
    closed form of that condition and its sketch are in the module
    docstring.  Read from the integer subset sums, with no elimination.
    Guarded to n <= PROJECTIVE_MAX_N.
    """
    if n > PROJECTIVE_MAX_N:
        raise ValueError(f"projective regularity test supports n <= {PROJECTIVE_MAX_N}")
    cleared, den, sums = _subset_sums(x, n)
    return _off_arrangement(cleared, den, sums) and _off_split_walls(cleared, sums, n)


def _off_split_walls(cleared: Sequence[int], sums: Sequence[int], n: int) -> bool:
    """x is in the hull on no wall of a split with |C| >= 3: no two disjoint
    nonempty masks A and B with |A| + |B| <= n-3 have sums[A] == sums[B]
    while C = [n] - A - B has 2 max_C x <= sum_C x."""
    if n < 5 or len(set(sums)) == len(sums):
        return True  # |A|, |B| >= 1 and |C| >= 3 need n >= 5; or no two subsets share a sum
    full = (1 << n) - 1
    groups: dict[int, list[int]] = {}
    for mask in range(1, full):
        if mask.bit_count() <= n - 4:  # B needs a coordinate and C three
            groups.setdefault(sums[mask], []).append(mask)
    for masks in groups.values():
        masks.sort(key=int.bit_count)  # so a pair too large for |C| >= 3 ends the scan of a
        for k, a in enumerate(masks):
            room = n - 3 - a.bit_count()  # B may take this many coordinates, so |C| >= 3
            for b in masks[k + 1:]:
                if b.bit_count() > room:
                    break
                if a & b:
                    continue
                c = full ^ a ^ b
                if 2 * max(cleared[i] for i in range(n) if c >> i & 1) <= sums[c]:
                    return False
    return True


def _verdicts(cleared: Sequence[int], den: int, sums: Sequence[int], n: int) -> tuple[bool, bool | None]:
    """is_regular_grassmann, then is_regular_projective or None for
    n > PROJECTIVE_MAX_N, read from one table of _integer_subset_sums."""
    regular = _off_arrangement(cleared, den, sums)
    return regular, regular and _off_split_walls(cleared, sums, n) if n <= PROJECTIVE_MAX_N else None


def classify_point(x: Sequence[Fraction], n: int) -> tuple[tuple[int, ...], bool, bool | None]:
    """The chamber id sign_vector(x, arrangement_for_n(n)), then
    is_regular_grassmann(x, n), then is_regular_projective(x, n), or None
    for n > PROJECTIVE_MAX_N: all three from one validation and clearing.
    """
    cleared, den, sums = _subset_sums(x, n)
    return (_signs(den, sums, arrangement_for_n(n)), *_verdicts(cleared, den, sums, n))


def _list_flats(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The integer vertices of each flat, the vertex set of an
    (n-2)-dimensional affine span of vertices, listed from the (n-1)-subsets
    sigma of rank n-2 that no flat found before contains (11, 30 and 112
    flats for n = 4, 5 and 6); a flat's members are the vertices v with
    affine_rank(sigma + [v]) = n-2.
    """
    vertices = [tuple(map(int, v)) for v in hypersimplex_vertices(n)]
    flats: list[int] = []
    for sigma in itertools.combinations(range(len(vertices)), n - 1):
        mask = sum(1 << i for i in sigma)
        if any(mask & flat == mask for flat in flats):
            continue
        subset = [vertices[i] for i in sigma]
        if affine_rank(subset) != n - 2:
            continue
        flat = mask
        for j, v in enumerate(vertices):
            if not mask >> j & 1 and affine_rank(subset + [v]) == n - 2:
                flat |= 1 << j
        flats.append(flat)
    return tuple(tuple(v for j, v in enumerate(vertices) if flat >> j & 1) for flat in flats)


#: _list_flats(n), listed once per n as arrangement_for_n is built once; its
#: tuples cannot be changed by a caller.
_flat_hulls = lru_cache(maxsize=16)(_list_flats)


def _bruteforce_verdicts(targets: Sequence[tuple[Sequence[int], int]], n: int) -> list[bool]:
    """projective_bruteforce_verdicts of the points num / den, each given as
    (num, den) with integer numerators over a positive denominator and
    validated by exactgeom._check_point; no Fraction is built."""
    for num, den in targets:
        _check_point(num, den, n)
    open_points = list(range(len(targets)))
    for hull in _flat_hulls(n):
        held = _hull_weights(hull, [targets[k] for k in open_points])
        open_points = [k for k, weights in zip(open_points, held) if weights is None]
    regular = set(open_points)
    return [k in regular for k in range(len(targets))]


def projective_bruteforce_verdicts(points: Sequence[Sequence[Fraction]], n: int) -> list[bool]:
    """Reference verdicts of the definition: x is regular iff no support of
    vertices spanning a polytope of dimension at most n-2 holds x in its hull.

    The supports reduce to the flats of _flat_hulls.  conv is monotone under
    inclusion; a support of rank at most n-2 extends one vertex at a time to
    rank exactly n-2, since all vertices have rank n-1 and each added vertex
    raises the rank by at most 1, and then to every vertex on its affine
    span; and each flat is itself such a support.  Each point is cleared to
    integers once, and _bruteforce_verdicts, the integer core, decides
    them: the flats are listed once per n, and each flat decides at once,
    by exactgeom._hull_weights, every point no flat before has held: one
    elimination of the flat's vertices with those points as right-hand
    sides drops the points off its affine span, then one per candidate
    subset of vertices decides the rest.  Only the flat's own vertices are
    eliminated; no split table, closed-form wall or subset sum is used, so
    this cross-checks the closed form.
    """
    return _bruteforce_verdicts([_cleared(x) for x in points], n)


def is_regular_projective_bruteforce(x: Sequence[Fraction], n: int) -> bool:
    """The definition, unfiltered: x lies in the hull of no flat.  It lists
    the flats afresh, by _list_flats, so the reference
    projective_bruteforce_verdicts is tested against shares no cache with
    it; its public name stays because perfbench's tracer looks it up."""
    _check_point(*_cleared(x), n)
    return all(convex_membership(x, hull) is None for hull in _list_flats(n))


def enumerate_chambers() -> list[ChamberReport]:
    """The eight maximal chambers of the n = 4 decomposition in id order, those the images
    of q- under SYMMETRIES lie in, each with the first as its representative."""
    found: dict[tuple[int, ...], tuple[Symmetry, Vector]] = {}
    for sigma, star in SYMMETRIES:  # the star acts first: a starred g . q- is sigma . q+
        x = act_on_level((sigma, False), CHAMBER_POINT_PLUS if star else CHAMBER_POINT_MINUS)
        signs, regular, _ = classify_point(x, 4)
        if regular:
            found.setdefault(signs, ((sigma, star), x))
    return [ChamberReport(id=signs, representative=x, symmetry=g)
            for signs, (g, x) in sorted(found.items())]


def center_point_regular(n: int) -> bool:
    """Whether the center (2/n, ..., 2/n) is a regular value; true iff n is odd."""
    if n < 4:
        raise ValueError("need n >= 4")
    center = tuple(Fraction(2, n) for _ in range(n))
    return is_regular_grassmann(center, n)


def largest_chamber_witness(n: int) -> Vector:
    """Exact interior point of the largest maximal chamber: no support sum is 1
    and each over |T| < n/2 is below 1.  Odd n: the center (2/n, ..., 2/n), whose
    sums 2|T|/n are below 1 for |T| < n/2 and never 1.  Even n: the center moved
    by d_i = eps * (2^i - (2^n - 1)/n), i = 0..n-1, with eps = 1/(n^2 2^n).  Sum
    d_i = 0, so the point stays on sum x = 2.  A sum of d over n/2 coordinates is
    eps times an integer minus a half-integer, never 0: no |T| = n/2 hyperplane is
    hit.  Over |T| <= n/2 - 1 a sum moves by less than 1/(2n), below its gap 2/n to
    1, so it stays below 1; by complements every larger sum stays above 1.  Each
    |d_i| < 1/n^2, so each x_i stays in (0, 1).
    """
    if not 4 <= n <= 8:
        raise ValueError("witness supports 4 <= n <= 8")
    center = Fraction(2, n)
    if n % 2:
        return (center,) * n
    eps, mean = Fraction(1, n * n * 2 ** n), Fraction(2 ** n - 1, n)
    return tuple(center + eps * (2 ** i - mean) for i in range(n))


GridRow = tuple[tuple[int, ...], range, tuple[bool, ...], tuple[bool | None, ...]]


def _grid_verdicts(n: int, d: int) -> tuple[GridRow, ...]:
    """The points k / d of the hypersimplex in lexicographic order as one record (head, ks, regular,
    projective) per head row k[:n-2]: its points are (*head, k, rest - k) for k in ks, rest = 2d -
    sum(head), and point i's verdicts are regular[i] and projective[i], as _verdicts gives them; at
    n < 5 projective is regular.  With h over the head's table a point's sums are h, h + k,
    h + rest - k and h + rest.  The table holds 2d - rest - h with each h (the complement), so
    h + rest = d for some h iff d is in it, and h + rest - k = d iff k = d - h for some h: the row
    is critical if 0 in head or d in table, else k is iff k in {0, rest} + {d - h}.  A point's own 2^n
    table is built, and the point validated, only for _off_split_walls, 5 <= n <= PROJECTIVE_MAX_N."""
    if d < 1 or n < 2:
        raise ValueError(f"a hypersimplex grid needs n >= 2 and d >= 1, got n={n}, d={d}")
    rows = []
    for head in itertools.product(range(d + 1), repeat=n - 2):
        rest = 2 * d - sum(head)
        ks = range(max(0, rest - d), min(d, rest) + 1)
        table = [0]
        for value in head:
            table += [s + value for s in table]
        if 0 in head or d in table:  # a critical row has every k of ks critical
            regular = (False,) * len(ks)
        else:
            critical = {0, rest, *(d - h for h in table)}
            regular = tuple(k not in critical for k in ks)
        projective = (None,) * len(ks) if n > PROJECTIVE_MAX_N else regular
        if 5 <= n <= PROJECTIVE_MAX_N:
            projective = tuple(r and _off_split_walls(x, _integer_subset_sums(x, d, n)[2], n)
                               for x, r in zip([(*head, k, rest - k) for k in ks], regular))
        rows.append((head, ks, regular, projective))
    return tuple(rows)


def _grid_stride(rows: Sequence[GridRow], d: int, count: int) -> list[tuple[tuple[int, ...], bool | None]]:
    """(numerators, projective verdict) of the walk's points[::max(1, len(points) // count)][:count],
    each found in its row by bisecting the rows' end offsets: only those numerators are built."""
    ends = list(itertools.accumulate(len(ks) for _, ks, _, _ in rows))
    chosen = []
    for j in range(0, ends[-1], max(1, ends[-1] // count))[:count]:
        head, ks, _, projective = rows[row := bisect.bisect_right(ends, j)]
        i = j - ends[row] + len(ks)
        chosen.append(((*head, ks[i], 2 * d - sum(head) - ks[i]), projective[i]))
    return chosen
