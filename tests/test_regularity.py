import itertools
import math
import random
from fractions import Fraction as F

import pytest

from grassmoment import exactgeom, regularity
from grassmoment.exactgeom import (
    affine_rank,
    arrangement_for_n,
    convex_membership,
    hypersimplex_vertices,
    pairs_lex,
    sign_vector,
    vector,
)
from grassmoment.regularity import (
    _walls,
    CHAMBER_POINT_MINUS,
    CHAMBER_POINT_PLUS,
    center_point_regular,
    chamber_orbits,
    enumerate_chambers,
    hypersimplex_grid,
    is_regular_grassmann,
    is_regular_projective,
    is_regular_projective_bruteforce,
    largest_chamber_witness,
    stabilizer_dim,
    support_from_pairs,
)

N5_GAP_POINT = vector(["7/10", "6/10", "5/10", "1/10", "1/10"])


def test_stabilizer_dim_examples():
    full = stabilizer_dim(range(6), 4)
    assert (full.dim_polytope, full.dim_stabilizer) == (3, 1)
    sigma = support_from_pairs([(1, 2), (1, 3), (2, 3), (4, 5)], 5)
    report = stabilizer_dim(sigma, 5)
    assert (report.dim_polytope, report.dim_stabilizer) == (3, 2)
    vertex = stabilizer_dim([0], 4)
    assert (vertex.dim_polytope, vertex.dim_stabilizer) == (0, 4)
    with pytest.raises(ValueError):
        stabilizer_dim([], 4)


def test_stabilizer_always_contains_diagonal_circle():
    for size in (1, 2, 3, 4):
        for sigma in itertools.islice(itertools.combinations(range(6), size), 20):
            assert stabilizer_dim(sigma, 4).dim_stabilizer >= 1


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
    with pytest.raises(ValueError):
        is_regular_projective(tuple(F(2, 7) for _ in range(7)), 7)


def test_enumerate_chambers():
    chambers = enumerate_chambers(4)
    assert len(chambers) == 8
    assert len({c.id for c in chambers}) == 8
    arrangement = arrangement_for_n(4)
    by_id = {c.id: c for c in chambers}
    for c in chambers:
        assert c.dimension == 3
        assert sign_vector(c.representative, arrangement) == c.id
        assert 0 not in c.id
    assert by_id[(-1, -1, -1)].representative == CHAMBER_POINT_MINUS
    assert by_id[(1, 1, 1)].representative == CHAMBER_POINT_PLUS
    with pytest.raises(ValueError):
        enumerate_chambers(5)


def test_chamber_orbits():
    minus, plus = chamber_orbits()
    assert (minus.label, plus.label) == ("C-", "C+")
    assert len(minus.chambers) == 4 and len(plus.chambers) == 4
    special = F(1, 3)
    common = F(5, 9)
    expected = {tuple(special if j == i else common for j in range(4)) for i in range(4)}
    assert {c.representative for c in minus.chambers} == expected


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
    assert largest_chamber_witness(6, seed=123) == largest_chamber_witness(6, seed=123)
    with pytest.raises(ValueError):
        largest_chamber_witness(9)


def test_polytope_of_support():
    from grassmoment.regularity import polytope_of_support

    sigma = support_from_pairs([(1, 2), (1, 3), (2, 3), (4, 5)], 5)
    polytope = polytope_of_support(sigma, 5)
    assert polytope.dim == 3
    assert len(polytope.vertex_set) == 4


def test_grid_size_n4():
    grid = list(hypersimplex_grid(4, 18))
    assert len(grid) == 4579
    assert all(sum(x) == 2 for x in itertools.islice(grid, 50))


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


def test_walls_match_bruteforce():
    points = {
        4: list(hypersimplex_grid(4, 18))[::80],
        5: [x for x in hypersimplex_grid(5, 10) if all(0 < v < 1 for v in x)][::113],
        # Regular n = 6 points take about 90 s each by brute force.
        6: _simplex_interior_points(6, 3, seed=6),
    }
    expected = {4: {True, False}, 5: {True, False}, 6: {False}}
    for n, sample in points.items():
        verdicts = [is_regular_projective(x, n) for x in sample]
        assert verdicts == [is_regular_projective_bruteforce(x, n) for x in sample], n
        assert set(verdicts) == expected[n], n


@pytest.mark.parametrize("n, count", [(4, 11), (5, 30), (6, 112)])
def test_wall_cache_holds_primitive_integer_normals(n, count):
    walls = _walls(n)
    assert len(walls) == count
    assert len({normal for normal, _ in walls}) == count
    vertices = hypersimplex_vertices(n)
    for normal, on_wall in walls:
        assert len(normal) == n and all(type(v) is int for v in normal)
        assert math.gcd(*normal) == 1
        assert next(v for v in normal if v) > 0
        assert on_wall == tuple(v for v in vertices
                                if sum(a * b for a, b in zip(normal, v)) == 0)


def test_walls_match_bruteforce_large_coprime_denominators():
    # Weights over 10007 and 10009 give points whose common denominator is
    # their product: hull points of 4 affinely independent vertices (on a
    # wall, non-regular) and positive combinations of all 10 vertices.
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


def _on_some_wall(x, n):
    return any(sum(a * b for a, b in zip(normal, x)) == 0 for normal, _ in _walls(n))


def _outside_every_wall_hull(x, n):
    """The definition: x is regular iff no wall holds it inside its hull."""
    return not any(sum(a * b for a, b in zip(normal, x)) == 0
                   and convex_membership(x, on_wall) is not None
                   for normal, on_wall in _walls(n))


@pytest.mark.parametrize("n, count, seed", [(5, 160, 55), (6, 100, 66)])
def test_facet_signs_decide_on_wall_points(n, count, seed):
    points = _on_wall_points(n, count, seed)
    assert all(_on_some_wall(x, n) for x in points)
    verdicts = [is_regular_projective(x, n) for x in points]
    assert verdicts == [_outside_every_wall_hull(x, n) for x in points]
    # Regular points on a wall are the ones only the facet signs decide.
    assert set(verdicts) == {True, False}
    if n == 5:
        # The oracle is slow on regular points, so it sees a prefix that
        # holds both verdicts.
        sample = points[:40]
        assert {is_regular_projective(x, 5) for x in sample} == {True, False}
        assert ([is_regular_projective(x, 5) for x in sample]
                == [is_regular_projective_bruteforce(x, 5) for x in sample])


@pytest.mark.parametrize("n", [4, 5, 6])
def test_warm_projective_query_runs_no_elimination(monkeypatch, n):
    vertices = hypersimplex_vertices(n)
    hull_point = _simplex_interior_points(n, 1, seed=n)[0]
    # A point off every wall: the centre moved by small unequal steps.
    steps = [F(k * k, 997) for k in range(n)]
    generic = tuple(F(2, n) + step - sum(steps) / n for step in steps)
    assert not _on_some_wall(generic, n)
    points = [generic, hull_point, vertices[0]] + _on_wall_points(n, 6, seed=n)
    expected = [_outside_every_wall_hull(x, n) for x in points]
    assert expected[:3] == [True, False, False]
    is_regular_projective(generic, n)  # warm the wall and facet caches

    def refuse(*args, **kwargs):
        raise AssertionError("a warm projective query ran an elimination")

    for module in (exactgeom, regularity):
        monkeypatch.setattr(module, "convex_membership", refuse)
    monkeypatch.setattr(exactgeom, "_row_echelon", refuse)
    assert [is_regular_projective(x, n) for x in points] == expected


def test_gap_point_membership_structure():
    # The reference n=5 gap point sits in a rank-3 hull of four vertices.
    from grassmoment.exactgeom import affine_rank, convex_membership, hypersimplex_vertices

    vertices = hypersimplex_vertices(5)
    idx = {p: i for i, p in enumerate(pairs_lex(5))}
    subset = [vertices[idx[p]] for p in [(1, 2), (1, 3), (2, 3), (4, 5)]]
    assert affine_rank(subset) == 3
    assert convex_membership(N5_GAP_POINT, subset) is not None


def test_gap_point_realized_by_stratum_point():
    # Semantic counterpart: an actual projective point supported on that
    # stratum maps to the gap point, and the stratum stabilizer is not a
    # circle, so the value cannot be regular for the ambient moment map.
    import numpy as np

    from grassmoment.moment import hypersimplex_moment

    sigma = support_from_pairs([(1, 2), (1, 3), (2, 3), (4, 5)], 5)
    weights = (F(4, 10), F(3, 10), F(2, 10), F(1, 10))
    z = np.zeros(10, dtype=complex)
    for index, weight in zip(sigma, weights):
        z[index] = np.sqrt(float(weight)) * np.exp(1j * index)
    image = hypersimplex_moment(z, 5)
    assert np.max(np.abs(image - np.array([float(v) for v in N5_GAP_POINT]))) < 1e-12
    assert stabilizer_dim(sigma, 5).dim_stabilizer == 2
