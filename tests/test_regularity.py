import functools
import itertools
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings

from grassmoment import exactgeom, regularity
from grassmoment.exactgeom import (
    _integer_subset_sums,
    _row_echelon,
    affine_rank,
    arrangement_for_n,
    clear_denominators,
    convex_membership,
    hypersimplex_vertices,
    pairs_lex,
    sign_vector,
    vector,
)
from grassmoment.regularity import (
    PROJECTIVE_MAX_N,
    CHAMBER_POINT_MINUS,
    CHAMBER_POINT_PLUS,
    center_point_regular,
    classify_point,
    enumerate_chambers,
    is_regular_grassmann,
    is_regular_projective,
    is_regular_projective_bruteforce,
    largest_chamber_witness,
    orbit_dimension,
    projective_bruteforce_verdicts,
)
from test_exactgeom import _defect, _sympy_matrix, _vertex, rational_matrices

N5_GAP_POINT = vector(["7/10", "6/10", "5/10", "1/10", "1/10"])


def hypersimplex_grid(n, d):
    """All exact points k / d of the hypersimplex, in lexicographic order, as
    the grid walker lists them; test_grid_walk_gives_the_fraction_grid_in_order
    checks its order against _recursive_grid and _filtered_grid."""
    values = [F(k, d) for k in range(d + 1)]
    return (tuple(values[k] for k in point) for point, _, _ in regularity._grid_verdicts(n, d))


#: The coordinates, as lex indices, of the n = 5 stratum whose hull holds
#: the gap point: the pairs 12, 13, 23 and 45.
N5_GAP_SUPPORT = [k for k, pair in enumerate(pairs_lex(5)) if pair in {(1, 2), (1, 3), (2, 3), (4, 5)}]


def test_stabilizer_dim_examples():
    # (orbit dimension, stabilizer dimension n - orbit dimension)
    for support, n, dims in ((range(6), 4, (3, 1)), (N5_GAP_SUPPORT, 5, (3, 2)), ([0], 4, (0, 4))):
        r = orbit_dimension(support, n)
        assert (r, n - r) == dims


@pytest.mark.parametrize("support", [[], [-1], [6], [0, 6]],
                         ids=["empty", "negative", "past_the_end", "mixed"])
def test_orbit_dimension_refuses_an_empty_or_out_of_range_support(support):
    with pytest.raises(ValueError):
        orbit_dimension(support, 4)


def test_stabilizer_always_contains_diagonal_circle():
    for size in (1, 2, 3, 4):
        for sigma in itertools.islice(itertools.combinations(range(6), size), 20):
            assert 4 - orbit_dimension(sigma, 4) >= 1


def test_exact_queries_refuse_n_above_twenty():
    # The subset-sum table has 2^n entries; n = 21 would build only 2M of them.
    with pytest.raises(ValueError, match="n <= 20"):
        is_regular_grassmann(vector(["2/21"] * 21), 21)


def test_is_regular_grassmann_examples():
    assert is_regular_grassmann(CHAMBER_POINT_MINUS, 4)
    assert not is_regular_grassmann(vector(["1/2"] * 4), 4)
    assert is_regular_grassmann(N5_GAP_POINT, 5)
    with pytest.raises(ValueError):
        is_regular_grassmann(vector(["2", "-1", "1/2", "1/2"]), 4)


def test_is_regular_projective_examples():
    assert is_regular_projective(CHAMBER_POINT_MINUS, 4)
    assert not is_regular_projective(N5_GAP_POINT, 5)
    assert not is_regular_projective(vector([1, 1, 0, 0]), 4)
    # The centre of the n = 7 slice lies in the hull of a wall x1 + x2 = x3 + x4.
    assert not is_regular_projective(tuple(F(2, 7) for _ in range(7)), 7)
    n = PROJECTIVE_MAX_N + 1
    with pytest.raises(ValueError):
        is_regular_projective(tuple(F(2, n) for _ in range(n)), n)


def test_enumerate_chambers():
    chambers = enumerate_chambers()
    assert len(chambers) == 8
    assert len({c.id for c in chambers}) == 8
    arrangement = arrangement_for_n(4)
    by_id = {c.id: c for c in chambers}
    for c in chambers:
        assert sign_vector(c.representative, arrangement) == c.id
        assert 0 not in c.id
    assert by_id[(-1, -1, -1)].representative == CHAMBER_POINT_MINUS
    assert by_id[(1, 1, 1)].representative == CHAMBER_POINT_PLUS


def test_chamber_orbits():
    chambers = enumerate_chambers()
    assert sorted(c.orbit for c in chambers) == ["C+"] * 4 + ["C-"] * 4
    special = F(1, 3)
    common = F(5, 9)
    expected = {tuple(special if j == i else common for j in range(4)) for i in range(4)}
    assert {c.representative for c in chambers if c.orbit == "C-"} == expected


def test_center_point_parity():
    for n in range(4, 11):
        assert center_point_regular(n) == (n % 2 == 1)


def test_largest_chamber_witness_odd():
    assert largest_chamber_witness(5) == tuple(F(2, 5) for _ in range(5))
    assert largest_chamber_witness(7) == tuple(F(2, 7) for _ in range(7))


def test_largest_chamber_witness_even():
    for n in (4, 6, 8):
        witness = largest_chamber_witness(n)
        assert sum(witness) == 2
        assert all(0 < v < 1 for v in witness)
        bound = n // 2 - 1
        for size in range(2, n // 2 + 1):
            for support in itertools.combinations(range(n), size):
                total = sum(witness[i] for i in support)
                assert total != 1
                if size <= bound:
                    assert total < 1


def test_witness_deterministic():
    assert largest_chamber_witness(6) == largest_chamber_witness(6)
    with pytest.raises(ValueError):
        largest_chamber_witness(9)


def test_grid_size_n4():
    grid = list(hypersimplex_grid(4, 18))
    assert len(grid) == 4579
    assert all(sum(x) == 2 for x in itertools.islice(grid, 50))


def _recursive_grid(n, d):
    """The Fraction grid as the recursive lexicographic walk built it."""
    def rec(position, remaining):
        if position == n - 1:
            if 0 <= remaining <= d:
                yield (remaining,)
            return
        for k in range(max(0, remaining - d * (n - 1 - position)), min(d, remaining) + 1):
            for tail in rec(position + 1, remaining - k):
                yield (k,) + tail

    return [tuple(F(k, d) for k in point) for point in rec(0, 2 * d)]


def _filtered_grid(n, d):
    """The numerators as the filtering walk built them: every head of n-1
    numerators, kept when the last one, 2d minus their sum, lies in [0, d]."""
    return [(*head, 2 * d - sum(head)) for head in itertools.product(range(d + 1), repeat=n - 1)
            if d <= sum(head) <= 2 * d]


@pytest.mark.parametrize("n, d", [(4, 18), (5, 10), (2, 1), (2, 4), (3, 1), (3, 5), (4, 1), (6, 3)])
def test_grid_walk_gives_the_fraction_grid_in_order(n, d):
    walk = regularity._grid_verdicts(n, d)
    assert type(walk) is tuple  # criteria 5 and 6 share it, so it must be read-only
    numerators = [k for k, _, _ in walk]
    assert numerators == _filtered_grid(n, d)
    assert list(hypersimplex_grid(n, d)) == _recursive_grid(n, d)


@pytest.mark.parametrize("n, d", [(2, 1), (2, 4), (3, 1), (3, 5), (4, 1), (4, 7), (4, 18),
                                  (5, 3), (5, 10), (6, 3), (6, 6), (6, 7)])
def test_grid_verdicts_match_the_per_point_verdicts(n, d):
    # (6, 7) is the smallest n = 6 grid with Grassmann-regular points; its split walls refuse them all.
    assert list(regularity._grid_verdicts(n, d)) == [
        (k, *regularity._verdicts(*_integer_subset_sums(k, d, n), n)) for k in _filtered_grid(n, d)]


@pytest.mark.parametrize("n, d", [(4, 0), (4, -1), (1, 5), (0, 3)])
def test_grid_refuses_an_empty_or_undefined_grid(n, d):
    with pytest.raises(ValueError):
        regularity._grid_verdicts(n, d)


@pytest.mark.parametrize("n, d", [(4, 18), (5, 10)])
def test_unreduced_numerator_verdicts_match_classify_point(n, d):
    reduced = 0
    for point, x in zip(_filtered_grid(n, d), _recursive_grid(n, d), strict=True):
        _, den, _ = exactgeom._subset_sums(x, n)
        reduced += den < d
        assert regularity._verdicts(*_integer_subset_sums(point, d, n), n) == classify_point(x, n)[1:]
    assert reduced > 0  # the scaled tables are really exercised


def test_integer_subset_sums_validate_like_the_fraction_path():
    assert _integer_subset_sums((9, 9, 9, 9), 18, 4)[2][0b1111] == 36
    for point, den, n in [((9, 9, 9), 18, 4), ((9, 9, 9, 8), 18, 4), ((-1, 19, 9, 9), 18, 4),
                          ((0, 0, 0, 0), 0, 4), ((1,) * 21, 10, 21)]:
        with pytest.raises(ValueError):
            _integer_subset_sums(point, den, n)


def test_projective_regular_implies_grassmann_regular_n4():
    grid = list(hypersimplex_grid(4, 18))
    sample = grid[::4]
    assert len(sample) >= 1000
    for x in sample:
        mu = is_regular_grassmann(x, 4)
        mu_tilde = is_regular_projective(x, 4)
        if mu_tilde:
            assert mu
        # For n = 4 the two notions coincide outright.
        assert mu == mu_tilde


def test_projective_regular_implies_grassmann_regular_n5():
    grid = list(hypersimplex_grid(5, 15))
    sample = grid[::30]
    sample.append((F(10, 15), F(9, 15), F(7, 15), F(2, 15), F(2, 15)))
    assert len(sample) >= 1000
    gap_points = 0
    for x in sample:
        mu = is_regular_grassmann(x, 5)
        mu_tilde = is_regular_projective(x, 5)
        if mu_tilde:
            assert mu
        if mu and not mu_tilde:
            gap_points += 1
    assert gap_points > 0


def _simplex_interior_points(n, count, seed):
    """Positive combinations of n-1 affinely independent vertices: all non-regular."""
    from grassmoment.exactgeom import affine_rank, hypersimplex_vertices

    vertices = hypersimplex_vertices(n)
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        subset = rng.sample(vertices, n - 1)
        if affine_rank(subset) != n - 2:
            continue
        weights = [rng.randint(1, 5) for _ in subset]
        total = sum(weights)
        points.append(tuple(F(sum(w * v[i] for w, v in zip(weights, subset)), total)
                            for i in range(n)))
    return points


def _generic_interior_points(n, count, seed):
    """Seeded points 2 w / sum(w) with 10 <= w_i <= 30, so 0 < x_i < 1:
    almost all off every wall, hence regular."""
    rng = random.Random(seed)
    points = []
    for _ in range(count):
        weights = [rng.randint(10, 30) for _ in range(n)]
        points.append(tuple(F(2 * w, sum(weights)) for w in weights))
    return points


def test_walls_match_bruteforce():
    points = {
        4: list(hypersimplex_grid(4, 18))[::80],
        5: [x for x in hypersimplex_grid(5, 10) if all(0 < v < 1 for v in x)][::113],
        # The oracle tests each point against the 112 flats of n = 6, so
        # regular points cost about as much as hull points.
        6: _simplex_interior_points(6, 3, seed=6) + _generic_interior_points(6, 20, seed=60),
    }
    expected = {4: {True, False}, 5: {True, False}, 6: {True, False}}
    for n, sample in points.items():
        verdicts = [is_regular_projective(x, n) for x in sample]
        assert verdicts == projective_bruteforce_verdicts(sample, n), n
        assert set(verdicts) == expected[n], n


def test_grassmann_closed_form_is_the_projective_definition_on_the_n4_grid():
    # At n = 4 no split wall fits, so criterion 5 compares two closed forms
    # that agree by construction; here the definition decides every point.
    grid = list(hypersimplex_grid(4, 18))
    verdicts = [is_regular_grassmann(x, 4) for x in grid]
    assert len(grid) == 4579 and sum(verdicts) == 2464
    assert projective_bruteforce_verdicts(grid, 4) == verdicts


def _all_supports_scan(x, n):
    """The definition scanned over every nonempty support of vertices: x is
    regular iff no support of affine rank at most n-2 holds it in its hull."""
    vertices = hypersimplex_vertices(n)
    for size in range(1, len(vertices) + 1):
        for subset in itertools.combinations(vertices, size):
            if affine_rank(subset) <= n - 2 and convex_membership(x, subset) is not None:
                return False
    return True


def _criterion_6_points():
    grid = list(hypersimplex_grid(4, 18))
    return grid[::max(1, len(grid) // 200)][:200]


def test_flat_oracle_matches_the_all_supports_scan():
    chosen = _criterion_6_points()
    assert len(chosen) == 200
    assert projective_bruteforce_verdicts(chosen, 4) == [_all_supports_scan(x, 4) for x in chosen]
    sample = random.Random(505).sample(list(hypersimplex_grid(5, 10)), 24)
    verdicts = projective_bruteforce_verdicts(sample, 5)
    assert verdicts == [_all_supports_scan(x, 5) for x in sample]
    assert set(verdicts) == {True, False}


def test_flat_oracle_enumerates_the_flats_once_per_batch(monkeypatch):
    calls = []

    def counting_rank(points):
        calls.append(1)
        return affine_rank(points)

    monkeypatch.setattr(regularity, "affine_rank", counting_rank)
    regularity._flat_hulls.cache_clear()
    counts = []
    for k in (1, 50):
        calls.clear()
        projective_bruteforce_verdicts(_criterion_6_points()[:k], 4)
        counts.append(len(calls))
    # 11 flats, each from one rank test of its sigma and one per other vertex,
    # listed by the first batch and read from the cache by the second.
    assert counts == [44, 0]


@pytest.mark.parametrize("n, count", [(4, 11), (5, 30), (6, 112)])
def test_flat_listing_is_cached_and_immutable(n, count):
    flats = regularity._flat_hulls(n)
    assert regularity._flat_hulls(n) is flats
    assert flats == regularity._list_flats(n)
    assert len(flats) == count
    assert type(flats) is tuple and all(type(hull) is tuple for hull in flats)
    assert all(type(v) is tuple and all(type(c) is int for c in v) for hull in flats for v in hull)
    with pytest.raises(TypeError):
        flats[0][0] = flats[1][0]


@pytest.mark.parametrize("num, den", [
    ((9, 9, 9, 8), 18),    # sum != 2 den
    ((-1, 19, 9, 9), 18),  # a negative numerator
    ((19, 17, 0, 0), 18),  # a numerator above den
    ((0, 0, 0, 0), 0),     # den < 1
    ((-1, -1, 0, 0), -1),  # den < 1, sum = 2 den
    ((9, 9, 18), 18),      # a wrong length
    ((9, 9, 9, 9, 0), 18),
])
def test_integer_oracle_refuses_a_point_outside_the_hypersimplex(num, den):
    with pytest.raises(ValueError):
        regularity._bruteforce_verdicts([((9, 9, 9, 9), 18), (num, den)], 4)
    if den > 0:  # the Fraction entry clears the point and refuses it alike
        with pytest.raises(ValueError):
            projective_bruteforce_verdicts([CHAMBER_POINT_MINUS, tuple(F(v, den) for v in num)], 4)


def test_integer_oracle_reads_numerators_at_any_denominator():
    points = _criterion_6_points()
    targets = []
    for scale, x in zip(itertools.cycle((1, 2, 5)), points):
        (num,), den = clear_denominators([x])
        targets.append(([scale * v for v in num], scale * den))
    assert regularity._bruteforce_verdicts(targets, 4) == projective_bruteforce_verdicts(points, 4)


def _flat_points(n, count, seed):
    """Seeded pairs (x, flat) with x on the flat's affine span, half of
    them on flats whose vertices are affinely dependent (the squares at
    n = 4): positive combinations of the flat's vertices, inside its hull,
    and for n >= 5 every other pair an affine combination with a negative
    weight, on the span and mostly outside the hull.  (At n = 4 each flat
    is the whole slice of the hypersimplex by its span, so no point of the
    hypersimplex lies on a span outside the hull.)"""
    flats = regularity._flat_hulls(n)
    groups = ([h for h in flats if len(h) == n - 1], [h for h in flats if len(h) > n - 1])
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        hull = rng.choice(groups[len(pairs) % 2])
        weights = [rng.randint(1, 6) for _ in hull]
        if n >= 5 and len(pairs) % 4 >= 2:
            weights[rng.randrange(len(hull))] = -1
        total = sum(weights)
        x = tuple(F(sum(w * v[i] for w, v in zip(weights, hull)), total) for i in range(n))
        if all(0 <= v <= 1 for v in x):
            pairs.append((x, hull))
    return pairs


@pytest.mark.parametrize("n", [4, 5, 6])
def test_flat_oracle_batch_matches_the_per_point_definition(n):
    pairs = _flat_points(n, 16 if n < 6 else 8, seed=40 + n)
    if n >= 5:  # points on a flat's span but outside its hull
        assert any(convex_membership(x, hull) is None for x, hull in pairs)
    points = [x for x, _ in pairs] + _generic_interior_points(n, 8 if n < 6 else 4, seed=50 + n)
    if n == 5:
        points += _large_coprime_points()
    verdicts = projective_bruteforce_verdicts(points, n)
    assert verdicts == [is_regular_projective_bruteforce(x, n) for x in points]
    assert set(verdicts) == {True, False}


def test_flat_oracle_eliminates_each_flat_once_per_batch(monkeypatch):
    """The batch's eliminations do not grow with its size: 44 rank tests
    list the 11 flats once per n, each flat is eliminated once with every
    point no earlier flat held as a right-hand side, and each of the 3
    squares then solves 3 candidate triangles."""
    calls = []
    row_echelon = exactgeom._row_echelon

    def counting(rows, width=None):
        calls.append(1)
        return row_echelon(rows, width)

    monkeypatch.setattr(exactgeom, "_row_echelon", counting)
    regularity._flat_hulls.cache_clear()
    counts = []
    for k in (20, 200):
        calls.clear()
        verdicts = projective_bruteforce_verdicts(_criterion_6_points()[:k], 4)
        counts.append(len(calls))
    assert counts == [64, 20]  # the 44 listing the flats are made once, by the first batch
    assert verdicts.count(False) == 86


def span_normal(rows):
    """Normal of the linear span of d-1 vectors in Q^d, or None if they are dependent.

    The normal is primitive: integer entries with gcd 1, the first
    nonzero one positive.  So it depends only on the span, and every
    spanning set of a hyperplane gives the same normal.
    """
    cleared, _ = clear_denominators(rows)
    reduced, pivots, det = _row_echelon(cleared)
    ncols = len(cleared[0])
    if len(pivots) != ncols - 1:
        return None
    free = next(c for c in range(ncols) if c not in pivots)
    normal = [0] * ncols
    normal[free] = det
    for row, c in zip(reduced, pivots):
        normal[c] = -row[free]
    scale = math.gcd(*normal)
    if next(v for v in normal if v) < 0:
        scale = -scale
    return tuple(F(v // scale) for v in normal)


def test_span_normal_depends_only_on_the_span():
    # The wall x1 = 0 of the n = 5 slice, from two different spanning sets.
    first = [_vertex(5, p) for p in [(2, 3), (2, 4), (2, 5), (3, 4)]]
    second = [_vertex(5, p) for p in [(4, 5), (3, 5), (2, 4), (3, 4)]]
    assert span_normal(first) == span_normal(second) == (1, 0, 0, 0, 0)
    # On a wall that is not a coordinate facet the normal is still orthogonal to its span.
    spanning = [_vertex(5, p) for p in [(1, 3), (1, 4), (2, 5), (1, 5)]]
    normal = span_normal(spanning)
    assert all(sum(a * b for a, b in zip(normal, v)) == 0 for v in spanning)
    dependent = [_vertex(5, p) for p in [(1, 2), (1, 3), (2, 4), (3, 4)]]
    assert span_normal(dependent) is None


@given(rational_matrices())
@settings(max_examples=80, deadline=None)
def test_span_normal_matches_sympy_nullspace(rows):
    normal = span_normal(rows)
    kernel = _sympy_matrix(rows).nullspace()
    if len(kernel) != 1:
        assert normal is None
        return
    assert normal is not None
    assert all(v.denominator == 1 for v in normal)
    assert math.gcd(*(v.numerator for v in normal)) == 1
    assert next(v for v in normal if v) > 0
    # Parallel to sympy's kernel vector.
    assert _sympy_matrix([list(normal)]).col_join(kernel[0].T).rank() == 1


@functools.lru_cache(maxsize=None)
def _oracle_walls(n):
    """Each wall of the slice sum x = 2, as (normal, vertices on the wall),
    found by exact elimination.

    A wall is the hyperplane of the slice spanned by n-1 affinely
    independent vertices; its normal is the primitive integer normal of
    their linear span.  A subset whose vertices all lie on a wall found
    before spans that wall or nothing, so it is skipped unseen.
    """
    vertices = hypersimplex_vertices(n)
    pairs = list(itertools.combinations(range(n), 2))
    walls = []
    masks = []
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


def _closed_form_walls(n):
    """The walls in closed form, as {primitive normal: vertices on the wall}.

    The facets x_a = 0 hold the vertices avoiding a.  A split
    [n] = A + B + C with A, B nonempty and |C| = 0 (every subset A) or
    |C| >= 3 (_split_oracle) gives the normal 1_A - 1_B, which holds
    the vertices {a, b} with a in A and b in B, and those inside C.
    """
    full = (1 << n) - 1
    splits = [(a, full ^ a, 0) for a in range(1, full)]
    splits += _split_oracle(n)
    pairs = list(itertools.combinations(range(n), 2))
    walls = {tuple(int(i == a) for i in range(n)): [p for p in pairs if a not in p]
             for a in range(n)}
    for a, b, c in splits:
        sign = 1 if a & -a < b & -b else -1  # the lowest index of A + B gets +1
        side = tuple(sign * ((a >> i & 1) - (b >> i & 1)) for i in range(n))
        walls[side] = [(i, j) for i, j in pairs
                       if side[i] * side[j] == -1 or c >> i & c >> j & 1]
    vertices = dict(zip(pairs, hypersimplex_vertices(n)))
    return {normal: tuple(vertices[p] for p in on_wall) for normal, on_wall in walls.items()}


@functools.lru_cache(maxsize=None)
def _walls(n):
    """The oracle's walls up to n = 7, the closed form beyond."""
    return _oracle_walls(n) if n <= 7 else tuple(_closed_form_walls(n).items())


def _split_oracle(n):
    """Every split [n] = A + B + C with A and B nonempty, A < B as bitmasks
    and |C| >= 3, as (A, B, C): the walls 1_A . x = 1_B . x beyond the
    arrangement, listed from the split side."""
    full = (1 << n) - 1
    splits = []
    for c in range(full + 1):
        if c.bit_count() < 3:
            continue
        rest = a = full ^ c
        while a:
            a = (a - 1) & rest
            if a and a < rest ^ a:
                splits.append((a, rest ^ a, c))
    return splits


def _split_blocks(n):
    """The splits of _split_oracle, in another order, as arrays of the masks
    (A, B, C), at most 2^16 candidates a block.  Nothing is kept: n = 14's
    2.1 million splits never sit in memory at once."""
    full = (1 << n) - 1
    for k in range(2, n - 2):  # |A + B| = k, so |C| >= 3
        subsets = np.arange(1 << k)[:, None] >> np.arange(k) & 1  # every subset of k slots
        members = 1 << np.array(list(itertools.combinations(range(n), k)))
        step = max(1, (1 << 16) >> k)
        for start in range(0, len(members), step):
            bits = members[start:start + step]
            rest = bits.sum(axis=1)
            a = subsets @ bits.T  # every submask of every rest
            keep = (a > 0) & (a < rest - a)
            yield a[keep], (rest - a)[keep], np.broadcast_to(full ^ rest, a.shape)[keep]


def _split_oracle_verdicts(points, n):
    """is_regular_projective of each point by a scan of every split wall of _split_blocks."""
    tables, verdicts = [], []
    for x in points:
        cleared, den, sums = exactgeom._subset_sums(x, n)
        verdicts.append(regularity._off_arrangement(cleared, den, sums))
        tables.append((np.array(cleared, dtype=np.int64), np.array(sums, dtype=np.int64)))
    for a, b, c in _split_blocks(n):
        for i, (cleared, sums) in enumerate(tables):
            if verdicts[i]:
                hit = c[sums[a] == sums[b]]
                largest = np.max(np.where(hit[:, None] >> np.arange(n) & 1, cleared, 0), axis=1)
                verdicts[i] = not np.any(2 * largest <= sums[hit])
    return verdicts


def test_split_table_sizes():
    assert [len(_split_oracle(n)) for n in range(4, 9)] == [0, 10, 75, 371, 1526]
    for n in range(4, 11):
        listed = [split for block in _split_blocks(n) for split in zip(*(m.tolist() for m in block))]
        assert sorted(listed) == sorted(_split_oracle(n))
    # |A + B| = k of n indices, and A one of the 2^(k-1) - 1 halves of a split of them
    for n in range(4, 15):
        assert sum(len(a) for a, _, _ in _split_blocks(n)) == sum(
            math.comb(n, k) * (2 ** (k - 1) - 1) for k in range(2, n - 2))


def _forced_collision_points(n, count, seed):
    """Seeded Grassmann-regular points with sum_A x = sum_B x for random
    disjoint nonempty A and B.  In half of them the first coordinate of the
    rest C is pushed to about the sum of the others, the edge of the hull
    of the wall when |C| >= 3."""
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        order = rng.sample(range(n), n)
        size = rng.randint(1, n - 2)
        cut = rng.randint(size + 1, n - 1)
        a, b, c = order[size:cut], order[cut:], order[:size]
        w = [rng.randint(1, 60) for _ in range(n)]
        w[b[0]] += sum(w[i] for i in a) - sum(w[i] for i in b)
        if len(points) % 2:
            w[c[0]] = sum(w[i] for i in c[1:]) + rng.randint(-2, 2)
        if min(w) < 1:
            continue
        x = tuple(F(2 * v, sum(w)) for v in w)
        if max(x) < 1 and is_regular_grassmann(x, n):
            points.append(x)
    return points


def _adversarial_point(n):
    """(1 - eps, y, ..., y), regular, with about 3^(n-1) pairs of disjoint
    masks of equal sum: the worst known input of the equal-sum scan."""
    eps = F(1, 10**6)
    return (1 - eps,) + ((1 + eps) / (n - 1),) * (n - 1)


@pytest.mark.parametrize("n", range(5, 15))
def test_equal_sum_scan_matches_the_split_oracle(n):
    count = {12: 150, 13: 80, 14: 50}.get(n, 250)
    points = _forced_collision_points(n, count, seed=n)
    if n >= 8:
        points.append(_adversarial_point(n))  # regular, checked last
    verdicts = [is_regular_projective(x, n) for x in points]
    assert verdicts == _split_oracle_verdicts(points, n)
    assert set(verdicts[:count]) == {True, False}  # regular points with a collision, and critical ones
    if n <= 6:
        sample = points[:12]
        assert verdicts[:12] == projective_bruteforce_verdicts(sample, n)
    if n >= 8:
        assert verdicts[-1]


@pytest.mark.parametrize("n, count", [(4, 11), (5, 30), (6, 112), (7, 441)])
def test_wall_cache_holds_primitive_integer_normals(n, count):
    walls = _oracle_walls(n)
    assert len(walls) == count
    assert len({normal for normal, _ in walls}) == count
    vertices = hypersimplex_vertices(n)
    for normal, on_wall in walls:
        assert len(normal) == n and all(type(v) is int for v in normal)
        assert math.gcd(*normal) == 1
        assert next(v for v in normal if v) > 0
        assert on_wall == tuple(v for v in vertices
                                if sum(a * b for a, b in zip(normal, v)) == 0)
    # The closed form has the same walls with the same vertices on them.
    assert _closed_form_walls(n) == dict(walls)


def _large_coprime_points():
    """Weights over 10007 and 10009 give points whose common denominator is
    their product: hull points of 4 affinely independent vertices (on a
    wall, non-regular) and positive combinations of all 10 vertices."""
    vertices = hypersimplex_vertices(5)
    rng = random.Random(10007)
    points = []
    for size in (4, 4, 10, 10):
        while True:
            subset = rng.sample(vertices, size)
            if size == 10 or affine_rank(subset) == 3:
                break
        weights = [F(rng.randint(1, 1000), (10007, 10009)[k % 2])
                   for k in range(size - 1)]
        weights.insert(0, 1 - sum(weights))
        points.append(tuple(sum(w * v[i] for w, v in zip(weights, subset))
                            for i in range(5)))
    assert all(math.lcm(*(v.denominator for v in x)) > 10**8 for x in points)
    return points


def test_walls_match_bruteforce_large_coprime_denominators():
    points = _large_coprime_points()
    verdicts = [is_regular_projective(x, 5) for x in points]
    assert verdicts == [is_regular_projective_bruteforce(x, 5) for x in points]
    assert set(verdicts) == {True, False}


def _on_wall_points(n, count, seed):
    """Seeded points of the hypersimplex on walls, inside and outside the hulls.

    Half are affine combinations of all vertices of one wall with some
    weights negative; half push a point of the hull of n-2 vertices of
    one wall (often a facet) away from the wall's centre.
    """
    walls = _walls(n)
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        _, on_wall = rng.choice(walls)
        centre = [sum(v[i] for v in on_wall) / len(on_wall) for i in range(n)]
        if len(points) % 2:
            subset, weights = on_wall, [rng.randint(-2, 6) for _ in on_wall]
            push = F(0)
        else:
            subset = rng.sample(on_wall, n - 2)
            weights = [rng.randint(1, 9) for _ in subset]
            push = F(1, rng.randint(2, 40))
        total = sum(weights)
        if total == 0:
            continue
        y = [F(sum(w * v[i] for w, v in zip(weights, subset)), total) for i in range(n)]
        x = tuple(a + push * (a - c) for a, c in zip(y, centre))
        if all(0 <= v <= 1 for v in x):
            points.append(x)
    return points


def _walls_through(x, n):
    """The walls on which x lies, by their normals' dot product with x."""
    (cleared,), _ = clear_denominators([x])
    return [(normal, on_wall) for normal, on_wall in _walls(n)
            if sum(a * b for a, b in zip(normal, cleared)) == 0]


def _on_some_wall(x, n):
    return bool(_walls_through(x, n))


def _outside_every_wall_hull(x, n):
    """The definition: x is regular iff no wall holds it inside its hull."""
    return not any(convex_membership(x, on_wall) is not None
                   for _, on_wall in _walls_through(x, n))


@pytest.mark.parametrize("n, count, seed", [(5, 160, 55), (6, 100, 66)])
def test_facet_signs_decide_on_wall_points(n, count, seed):
    points = _on_wall_points(n, count, seed)
    assert all(_on_some_wall(x, n) for x in points)
    verdicts = [is_regular_projective(x, n) for x in points]
    assert verdicts == [_outside_every_wall_hull(x, n) for x in points]
    # Regular points on a wall are the ones only the hull inequality decides.
    assert set(verdicts) == {True, False}
    if n == 5:
        assert verdicts == projective_bruteforce_verdicts(points, 5)


def _split_wall_points(n, count, seed):
    """Seeded points on walls sum_A x = sum_B x with |C| >= 3, near the hull's edge.

    x_A and x_B are random points of t * Delta_A and t * Delta_B, and x_C a
    random point of (1 - t) * Delta(2, C) whose first weight is near the
    sum of the others; the hull holds x iff that weight is at most the sum.
    |C| stays at most 5, which keeps the definition's hull search fast.
    """
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        order = rng.sample(range(n), n)
        size = rng.randint(3, min(n - 2, 5))  # at most 12 vertices on the wall
        cut = rng.randint(size + 1, n - 1)
        t = F(rng.randint(1, 19), 20)
        x = [F(0)] * n
        for part, scale in ((order[size:cut], t), (order[cut:], t), (order[:size], 2 - 2 * t)):
            weights = [rng.randint(1, 97) for _ in part]
            if scale == 2 - 2 * t:
                weights[0] = sum(weights[1:]) + rng.randint(-2, 1)
            for i, w in zip(part, weights):
                x[i] = scale * F(w, sum(weights))
        if all(0 < v < 1 for v in x):
            points.append(tuple(x))
    return points


@pytest.mark.parametrize("n, count, seed", [(7, 100, 77), (8, 40, 86)])
def test_split_walls_decide_like_the_hull_definition(n, count, seed):
    points = _split_wall_points(n, count, seed)
    assert all(_on_some_wall(x, n) for x in points)
    verdicts = [is_regular_projective(x, n) for x in points]
    assert verdicts == [_outside_every_wall_hull(x, n) for x in points]
    assert set(verdicts) == {True, False}


def _classify_points(n):
    """The hypersimplex_grid points for n = 5 and 6.  Beyond, the centre and
    seeded random points, and up to n = 8 also the half-integer points (most
    on the arrangement) and points on both sides of |C| >= 3 wall hulls."""
    if n <= 6:
        return list(hypersimplex_grid(n, {5: 10, 6: 5}[n]))
    rng = random.Random(n)
    points = [tuple(F(2, n) for _ in range(n))]
    while len(points) < 40:
        weights = [rng.randint(10, 30) for _ in range(n)]  # so 2 w_i <= sum(w)
        points.append(tuple(F(2 * w, sum(weights)) for w in weights))
    if n > 8:
        return points
    return points + list(hypersimplex_grid(n, 2)) + _split_wall_points(n, 40, seed=n)


@pytest.mark.parametrize("n", [5, 6, 7, 8, 11])
def test_classify_point_matches_the_views_and_the_oracle(n):
    arrangement = arrangement_for_n(n)
    answers = set()
    for x in _classify_points(n):
        signs, regular_mu, regular_mu_tilde = classify_point(x, n)
        assert signs == sign_vector(x, arrangement)
        assert signs == tuple((d > 0) - (d < 0) for d in (_defect(t, x) for t in arrangement))
        assert regular_mu == is_regular_grassmann(x, n)
        assert regular_mu_tilde == is_regular_projective(x, n)
        answers.add((regular_mu, regular_mu_tilde))
    if n in (5, 7, 8):  # at n = 6 every grid point has a subset of numerators summing to 5
        assert answers == {(False, False), (True, False), (True, True)}


def test_classify_point_answers_none_past_the_guard():
    n = PROJECTIVE_MAX_N + 1
    x = _adversarial_point(n)
    assert classify_point(x, n)[1:] == (True, None)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_warm_projective_query_runs_no_elimination(monkeypatch, n):
    vertices = hypersimplex_vertices(n)
    hull_point = _simplex_interior_points(n, 1, seed=n)[0]
    # A point off every wall: the centre moved by small unequal steps.
    steps = [F(k ** 3, 997) for k in range(n)]
    generic = tuple(F(2, n) + step - sum(steps) / n for step in steps)
    assert not _on_some_wall(generic, n)
    points = [generic, hull_point, vertices[0]] + _on_wall_points(n, 6, seed=n)
    expected = [_outside_every_wall_hull(x, n) for x in points]
    assert expected[:3] == [True, False, False]

    def refuse(*args, **kwargs):
        raise AssertionError("a projective query ran an elimination")

    for module in (exactgeom, regularity):
        monkeypatch.setattr(module, "convex_membership", refuse)
    monkeypatch.setattr(exactgeom, "_row_echelon", refuse)
    assert [is_regular_projective(x, n) for x in points] == expected


def test_gap_point_membership_structure():
    # The reference n=5 gap point sits in a rank-3 hull of four vertices.
    from grassmoment.exactgeom import affine_rank, convex_membership, hypersimplex_vertices

    vertices = hypersimplex_vertices(5)
    subset = [vertices[k] for k in N5_GAP_SUPPORT]
    assert affine_rank(subset) == 3
    assert convex_membership(N5_GAP_POINT, subset) is not None


def test_gap_point_realized_by_stratum_point():
    # Semantic counterpart: an actual projective point supported on that
    # stratum maps to the gap point, and the stratum stabilizer is not a
    # circle, so the value cannot be regular for the ambient moment map.
    import numpy as np

    from grassmoment.moment import hypersimplex_moment

    weights = (F(4, 10), F(3, 10), F(2, 10), F(1, 10))
    z = np.zeros(10, dtype=complex)
    for index, weight in zip(N5_GAP_SUPPORT, weights):
        z[index] = np.sqrt(float(weight)) * np.exp(1j * index)
    image = hypersimplex_moment(z, 5)
    assert np.max(np.abs(image - np.array([float(v) for v in N5_GAP_POINT]))) < 1e-12
    assert 5 - orbit_dimension(N5_GAP_SUPPORT, 5) == 2


@pytest.mark.parametrize("n", [4, 5, 6])
def test_points_with_a_small_orbit_map_to_critical_values(n):
    """A point of orbit dimension r < n - 1 has more stabilizer than the
    diagonal circle, so its moment image is a critical value.  With
    Gaussian-integer coordinates the squared moduli are integers and the
    image is exact: mu of a 2 x n plane, through its Plücker minors, must be
    Grassmann-critical, and mu_tilde of a point of CP^N projective-critical."""
    rng = random.Random(n)
    pairs = pairs_lex(n)
    rank = functools.cache(lambda support: orbit_dimension(support, n))

    def gaussian(count):
        """Entries in {-2..2} + i{-2..2}, about half of them 0; products of
        such small Gaussian integers are exact in floating point."""
        return [0j if rng.random() < 0.5 else complex(rng.randint(-2, 2), rng.randint(-2, 2))
                for _ in range(count)]

    def image(z):
        moduli = [int(w.real) ** 2 + int(w.imag) ** 2 for w in z]
        return tuple(F(sum(m for m, pair in zip(moduli, pairs) if i in pair), sum(moduli))
                     for i in range(1, n + 1))

    checked = {"mu": 0, "mu_tilde": 0}
    for _ in range(2000):
        u, v = gaussian(n), gaussian(n)
        plane = [u[i - 1] * v[j - 1] - u[j - 1] * v[i - 1] for i, j in pairs]
        for name, z, verdict in (("mu", plane, 1), ("mu_tilde", gaussian(len(pairs)), 2)):
            support = tuple(k for k, w in enumerate(z) if w)
            if support and rank(support) < n - 1:
                assert classify_point(image(z), n)[verdict] is False
                checked[name] += 1
    assert min(checked.values()) >= 200
