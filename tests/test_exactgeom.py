import itertools
import random
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from grassmoment import exactgeom
from grassmoment.exactgeom import (
    affine_rank,
    arrangement_for_n,
    clear_denominators,
    convex_membership,
    format_rational,
    format_sign_vector,
    format_vector,
    hypersimplex_vertices,
    pairs_lex,
    parse_vector,
    rational,
    sign_vector,
    solve_exact,
    vector,
)


def _vertex(n, pair):
    return hypersimplex_vertices(n)[pairs_lex(n).index(pair)]


def _support(mask):
    """The 1-based coordinates T of a hyperplane mask (bit i-1 for coordinate i)."""
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def _defect(mask, x):
    """The oracle for a hyperplane: sum_{i in T} x_i - 1, in Fractions."""
    return sum(x[i - 1] for i in _support(mask)) - 1


def _mask(support):
    return sum(1 << (i - 1) for i in support)


def test_arrangement_n4():
    supports = [_support(h) for h in arrangement_for_n(4)]
    assert supports == [(1, 2), (1, 3), (1, 4)]


def test_arrangement_n5():
    supports = [_support(h) for h in arrangement_for_n(5)]
    assert len(supports) == 10
    assert all(len(s) == 2 for s in supports)


def test_arrangement_n6_complement_dedup():
    supports = [_support(h) for h in arrangement_for_n(6)]
    assert len(supports) == 25
    triples = [s for s in supports if len(s) == 3]
    assert len(triples) == 10
    for s in triples:
        complement = tuple(sorted(set(range(1, 7)) - set(s)))
        assert s < complement


def test_arrangement_rejects_small_n():
    with pytest.raises(ValueError):
        arrangement_for_n(3)


def test_arrangement_canonical_order():
    supports = [_support(h) for h in arrangement_for_n(8)]
    keys = [(len(s), s) for s in supports]
    assert keys == sorted(keys)


@given(st.lists(st.integers(0, 12), min_size=6, max_size=6))
def test_complement_sign_identity_even_n(raw):
    # On the slice sum(x) = 2, the defect of T and of its complement are opposite.
    total = sum(raw)
    if total == 0:
        raw = [1] * 6
        total = 6
    x = tuple(F(2 * r, total) for r in raw)
    assert sum(x) == 2
    for support in itertools.combinations(range(1, 7), 3):
        complement = tuple(sorted(set(range(1, 7)) - set(support)))
        assert _defect(_mask(support), x) == -_defect(_mask(complement), x)


def test_arrangement_is_built_once_per_n():
    first = arrangement_for_n(6)
    assert isinstance(first, tuple) and len(first) == 25
    assert arrangement_for_n(6) is first
    assert arrangement_for_n(5) is not first


def test_sign_vector_examples():
    arrangement = arrangement_for_n(4)
    assert sign_vector(vector(["1/2"] * 4), arrangement) == (0, 0, 0)
    assert sign_vector(vector(["1/3", "5/9", "5/9", "5/9"]), arrangement) == (-1, -1, -1)
    assert sign_vector(vector(["2/3", "4/9", "4/9", "4/9"]), arrangement) == (1, 1, 1)


def test_sign_vector_rejects_bad_input():
    arrangement = arrangement_for_n(4)
    with pytest.raises(ValueError):
        sign_vector(vector(["1/2", "1/2", "1/2"]), arrangement)
    with pytest.raises(ValueError):
        sign_vector(vector(["1/2", "1/2", "1/2", "1/3"]), arrangement)
    # On the slice but outside the hypersimplex.
    with pytest.raises(ValueError):
        sign_vector(vector(["4/3", "-1/3", "1/2", "1/2"]), arrangement)
    # A point of Delta(2, 5) against the n = 4 arrangement.
    with pytest.raises(ValueError):
        sign_vector(vector(["1/2", "1/2", "1/2", "1/2", "0"]), arrangement)


@given(st.permutations(range(4)), st.lists(st.integers(0, 9), min_size=4, max_size=4))
def test_sign_vector_equivariance(perm, raw):
    total = sum(raw)
    if total == 0:
        raw = [1] * 4
        total = 4
    x = tuple(F(2 * r, total) for r in raw)
    permuted_x = tuple(x[perm[i]] for i in range(4))
    for h in arrangement_for_n(4):
        permuted_support = tuple(perm.index(i - 1) + 1 for i in _support(h))
        assert _defect(_mask(permuted_support), permuted_x) == _defect(h, x)


def test_affine_rank_examples():
    assert affine_rank([_vertex(5, (1, 2))]) == 0
    subset = [_vertex(5, p) for p in [(1, 2), (1, 3), (2, 3), (4, 5)]]
    assert affine_rank(subset) == 3
    assert affine_rank(hypersimplex_vertices(4)) == 3


def test_affine_rank_rejects_empty_and_mixed():
    with pytest.raises(ValueError):
        affine_rank([])
    with pytest.raises(ValueError):
        affine_rank([(F(1), F(0)), (F(1),)])


def test_affine_rank_bound_on_vertex_subsets():
    vertices = hypersimplex_vertices(5)
    for size in (2, 3, 4, 6):
        for idx in itertools.islice(itertools.combinations(range(10), size), 30):
            rank = affine_rank([vertices[i] for i in idx])
            assert rank <= min(size - 1, 4)


_small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=12)


@st.composite
def rational_matrices(draw):
    """Small rational matrices with mixed denominators, often rank deficient:
    zero rows and rational combinations of other rows are mixed in, and
    there are often more rows than columns."""
    ncols = draw(st.integers(1, 5))
    row = st.lists(_small_rationals, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=1, max_size=5))
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            rows.append([F(0)] * ncols)
        else:
            i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
            a, b = draw(_small_rationals), draw(_small_rationals)
            rows.append([a * u + b * v for u, v in zip(rows[i], rows[j])])
    order = draw(st.permutations(range(len(rows))))
    return [rows[k] for k in order]


def _sympy_matrix(rows):
    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row]
                         for row in rows])


@given(rational_matrices())
@settings(max_examples=80, deadline=None)
def test_affine_rank_matches_sympy(rows):
    # The affine rank of {0} and the rows is the linear rank of the rows.
    origin = [F(0)] * len(rows[0])
    assert affine_rank([origin] + rows) == _sympy_matrix(rows).rank()


@given(rational_matrices(), st.data())
@settings(max_examples=80, deadline=None)
def test_solve_exact_matches_sympy(rows, data):
    if data.draw(st.booleans()):
        rhs = data.draw(st.lists(_small_rationals, min_size=len(rows), max_size=len(rows)))
    else:  # a consistent right-hand side
        x0 = data.draw(st.lists(_small_rationals, min_size=len(rows[0]),
                                max_size=len(rows[0])))
        rhs = [sum(a * b for a, b in zip(row, x0)) for row in rows]
    try:
        expected, params = _sympy_matrix(rows).gauss_jordan_solve(_sympy_matrix([[v] for v in rhs]))
    except ValueError:  # sympy: the system has no solution
        assert solve_exact(rows, rhs) is None
        return
    if params.shape[0]:
        with pytest.raises(ValueError):
            solve_exact(rows, rhs)
    else:
        assert solve_exact(rows, rhs) == [F(str(v)) for v in expected]


def test_clear_denominators_of_ints_and_fractions():
    assert clear_denominators([(1, 0), (0, 2)]) == ([[1, 0], [0, 2]], 1)
    assert clear_denominators([(1, 0), (F(1, 3), F(5, 6))]) == ([[6, 0], [2, 5]], 6)
    assert clear_denominators([("1/2", 1)]) == ([[1, 2]], 2)
    integer = [tuple(map(int, v)) for v in hypersimplex_vertices(5)]
    assert affine_rank(integer) == affine_rank(hypersimplex_vertices(5)) == 4
    x = (F(7, 10), F(6, 10), F(5, 10), F(1, 10), F(1, 10))
    assert convex_membership(x, integer) == convex_membership(x, hypersimplex_vertices(5))


def test_convex_membership_vertex():
    s = [_vertex(4, (1, 2)), _vertex(4, (1, 3))]
    assert convex_membership(_vertex(4, (1, 2)), s) == (F(1), F(0))


def test_convex_membership_weights_example():
    subset = [_vertex(5, p) for p in [(1, 2), (1, 3), (2, 3), (4, 5)]]
    x = vector(["7/10", "6/10", "5/10", "1/10", "1/10"])
    weights = convex_membership(x, subset)
    assert weights == (F(4, 10), F(3, 10), F(2, 10), F(1, 10))


def test_an_independent_hull_is_eliminated_once(monkeypatch):
    calls = []
    row_echelon = exactgeom._row_echelon

    def counting(rows, width=None):
        calls.append(1)
        return row_echelon(rows, width)

    monkeypatch.setattr(exactgeom, "_row_echelon", counting)
    independent = [_vertex(5, p) for p in [(1, 2), (1, 3), (2, 3), (4, 5)]]
    x = vector(["7/10", "6/10", "5/10", "1/10", "1/10"])
    assert convex_membership(x, independent) == (F(4, 10), F(3, 10), F(2, 10), F(1, 10))
    assert len(calls) == 1
    # Dependent points still solve their independent subsets one by one.
    calls.clear()
    square = [_vertex(4, p) for p in [(1, 2), (1, 3), (2, 4), (3, 4)]]
    assert convex_membership(vector(["1/2"] * 4), square) is not None
    assert len(calls) > 1


def test_convex_membership_not_member():
    assert convex_membership(vector([1, 1, 0, 0]), [_vertex(4, (3, 4))]) is None


@given(st.lists(st.integers(0, 5), min_size=4, max_size=4),
       st.sets(st.integers(0, 9), min_size=1, max_size=4))
@settings(max_examples=60)
def test_convex_membership_reproduces_point(raw, idx):
    vertices = hypersimplex_vertices(5)
    subset = [vertices[i] for i in sorted(idx)]
    raw = raw[:len(subset)]
    if sum(raw) == 0:
        raw[0] = 1
    total = sum(raw)
    x = tuple(sum(F(raw[k], total) * subset[k][j] for k in range(len(subset)))
              for j in range(5))
    weights = convex_membership(x, subset)
    assert weights is not None
    assert all(w >= 0 for w in weights)
    assert sum(weights) == 1
    rebuilt = tuple(sum(weights[k] * subset[k][j] for k in range(len(subset)))
                    for j in range(5))
    assert rebuilt == x


def _old_candidate_scan(x, points):
    """convex_membership before its affine-hull early exit: the rank of the
    points, then every affinely independent subset of size rank+1 in order,
    each solved for barycentric weights."""
    m, size = len(points), affine_rank(points) + 1
    candidates = [tuple(range(m))] if m <= size else itertools.combinations(range(m), size)
    for idx in candidates:
        rows = [[points[i][j] for i in idx] for j in range(len(x))] + [[F(1)] * len(idx)]
        try:
            weights = solve_exact(rows, [*x, F(1)])
        except ValueError:  # a dependent subset
            continue
        if weights is None or any(w < 0 for w in weights):
            continue
        full = [F(0)] * m
        for i, w in zip(idx, weights):
            full[i] = w
        return tuple(full)
    return None


def test_convex_membership_matches_the_old_candidate_scan():
    rng = random.Random(2718)
    seen = set()
    for _ in range(400):
        d, m = rng.randint(2, 5), rng.randint(1, 6)
        points = [tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d))
                  for _ in range(m)]
        if m > 1 and rng.random() < 0.3:  # a dependent set: repeat or average points
            points[-1] = rng.choice([points[0], tuple((a + b) / 2 for a, b in zip(*points[:2]))])
        weights = [F(rng.randint(-2, 5)) for _ in points]
        if sum(weights) == 0:
            weights[0] += 1
        x = tuple(sum(w * p[j] for w, p in zip(weights, points)) / sum(weights)
                  for j in range(d))
        if rng.random() < 0.3:  # almost surely off the affine hull
            x = tuple(v + F(rng.randint(1, 5), 7) * (j == 0) for j, v in enumerate(x))
        expected = _old_candidate_scan(x, points)
        assert convex_membership(x, points) == expected
        on_hull = affine_rank([*points, x]) == affine_rank(points)
        seen.add((expected is not None, on_hull, affine_rank(points) < len(points) - 1))
    # Members and non-members on the hull, points off it, independent and dependent sets.
    assert {(True, True), (False, True), (False, False)} <= {s[:2] for s in seen}
    assert {True, False} == {s[2] for s in seen}


def test_hull_weights_decide_a_batch_like_convex_membership():
    """One _hull_weights batch gives every target the weights
    convex_membership gives it alone.  Integer hulls, affinely independent
    and dependent, in d = 2..6; targets at mixed, unreduced denominators at
    a vertex, inside the hull, on its affine span with a negative weight,
    and moved off the span."""
    rng = random.Random(1618)
    seen = set()
    for _ in range(150):
        d, m = rng.randint(2, 6), rng.randint(1, 6)
        points = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(m)]
        if m > 2 and rng.random() < 0.4:  # a dependent set: an affine combination of three points
            points[-1] = tuple(a + b - c for a, b, c in zip(*points[:3]))
        rank = affine_rank(points)
        xs, kinds, targets = [], [rng.randrange(4) for _ in range(8)], []
        for kind in kinds:
            weights = [F(rng.randint(0 if kind < 2 else -3, 4)) for _ in points]
            if kind == 0:  # a vertex
                weights = [F(i == rng.randrange(m)) for i in range(m)]
            if sum(weights) == 0:
                weights[0] += 1
            x = tuple(sum(w * p[j] for w, p in zip(weights, points)) / sum(weights)
                      for j in range(d))
            if kind == 3:  # almost surely off the affine span when rank < d
                x = tuple(v + F(rng.randint(1, 5), 7) * (j == 0) for j, v in enumerate(x))
            (num,), den = clear_denominators([x])
            scale = rng.randint(1, 3)
            xs.append(x)
            targets.append(([scale * v for v in num], scale * den))
        assert len({den for _, den in targets}) > 1
        found = exactgeom._hull_weights(points, targets)
        assert found == [convex_membership(x, points) for x in xs]
        for kind, x, weights in zip(kinds, xs, found):
            on_span = affine_rank([*points, x]) == rank
            seen.add((kind, weights is not None, on_span, rank < m - 1))
    assert all(member for kind, member, _, _ in seen if kind < 2)
    # Non-members on the span and off it, for independent and dependent hulls.
    assert {(False, True), (False, False)} <= {s[1:3] for s in seen if s[0] >= 2 and s[3]}
    assert {(False, True), (False, False)} <= {s[1:3] for s in seen if s[0] >= 2 and not s[3]}


def test_hypersimplex_membership():
    assert exactgeom._subset_sums(vector(["1/3", "5/9", "5/9", "5/9"]), 4)[:2] == ([3, 5, 5, 5], 9)
    for outside in (["4/3", "-1/3", "1/2", "1/2"], ["1/2", "1/2", "1/2", "1/3"]):
        with pytest.raises(ValueError, match="outside the hypersimplex"):
            exactgeom._subset_sums(vector(outside), 4)


def test_serialization_round_trip():
    assert format_rational(F(5, 9)) == "5/9"
    assert format_rational(F(3, 1)) == "3"
    assert format_rational(F(-7, 3)) == "-7/3"
    assert rational("5/9") == F(5, 9)
    x = parse_vector("1/3,5/9,5/9,5/9")
    assert format_vector(x) == ["1/3", "5/9", "5/9", "5/9"]
    assert format_sign_vector((-1, 0, 1)) == "[-1,0,1]"
    with pytest.raises(TypeError):
        rational(0.5)
