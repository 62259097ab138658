import itertools
import math
from fractions import Fraction as F

import numpy as np
import pytest

from grassmoment.exactgeom import vector
from grassmoment.moment import (
    grassmann_moment,
    hypersimplex_moment,
    simplex_moment,
    symmetric_power_phases,
    weight_map,
    weight_vectors,
)
from grassmoment.plucker import (
    GrassmannPoint,
    from_chart,
    normalize_projective,
    plucker_embed,
    projective_distance,
)

RNG = np.random.default_rng(0xC0FFEE)

CHAMBER_POINT = np.array([1 / 3, 5 / 9, 5 / 9, 5 / 9])
EDGE_IMAGE_0 = np.array([0, 1 / 6, 1 / 6, 5 / 18, 5 / 18, 1 / 9])
CIRCLE_BASE_0 = np.array([0, 1 / math.sqrt(6), 1 / math.sqrt(6),
                          math.sqrt(5 / 18), math.sqrt(5 / 18), 1 / 3], dtype=complex)


def hypersimplex_residual(x, n):
    """How far a real vector is from {0 <= x_i <= 1, sum = 2}, in max norm."""
    x = np.asarray(x, dtype=float)
    assert x.shape == (n,)
    return max(np.max(-x, initial=0.0), np.max(x - 1.0, initial=0.0), abs(x.sum() - 2.0))


def random_plane(n):
    return GrassmannPoint(RNG.normal(size=(2, n)) + 1j * RNG.normal(size=(2, n)))


def test_weight_vectors_n4():
    w = weight_vectors(4)
    assert w.shape == (6, 4)
    assert list(w[0]) == [1, 1, 0, 0]
    assert list(w[5]) == [0, 0, 1, 1]
    assert all(row.sum() == 2 for row in w)


def test_weight_vectors_n5():
    w = weight_vectors(5)
    assert w.shape == (10, 5)
    assert list(w[4]) == [0, 1, 1, 0, 0]
    assert all(row.sum() == 2 for row in w)
    with pytest.raises(ValueError):
        weight_vectors(3)


def test_simplex_moment_examples():
    z = np.zeros(6, dtype=complex)
    z[0] = 1.0
    assert np.allclose(simplex_moment(z), [1, 0, 0, 0, 0, 0])
    assert np.max(np.abs(simplex_moment(CIRCLE_BASE_0) - EDGE_IMAGE_0)) < 1e-12
    equal = np.exp(1j * RNG.uniform(size=6))
    assert np.allclose(simplex_moment(equal), np.full(6, 1 / 6), atol=1e-12)


def test_hypersimplex_moment_examples():
    z = np.zeros(6, dtype=complex)
    z[0] = 1.0
    assert np.allclose(hypersimplex_moment(z, 4), [1, 1, 0, 0])
    assert np.max(np.abs(hypersimplex_moment(CIRCLE_BASE_0, 4) - CHAMBER_POINT)) < 1e-12
    z5 = np.zeros(10, dtype=complex)
    for idx in (0, 1, 4, 9):
        z5[idx] = 0.5
    assert np.allclose(hypersimplex_moment(z5, 5), [0.5, 0.5, 0.5, 0.25, 0.25])


def test_hypersimplex_moment_length_mismatch():
    with pytest.raises(ValueError):
        hypersimplex_moment(np.ones(6), 5)


def test_a_non_finite_row_of_a_batch_is_refused():
    batch = np.ones((3, 6), dtype=complex)
    batch[1, 2] = np.nan
    with pytest.raises(ValueError, match="sum to nan"):
        hypersimplex_moment(batch, 4)
    batch[1, 2] = 1e200
    with pytest.raises(ValueError, match="sum to inf"):
        simplex_moment(batch)


#: Functions that work along the last axis, called as f(z, w, n) on a batch or on one of its rows.
ROW_FUNCTIONS = {
    "simplex_moment": lambda z, w, n: simplex_moment(z),
    "hypersimplex_moment": lambda z, w, n: hypersimplex_moment(z, n),
    "normalize_projective": lambda z, w, n: normalize_projective(z),
    "projective_distance": lambda z, w, n: projective_distance(z, w),
}


@pytest.mark.parametrize("n", [4, 5, 6, 7])
@pytest.mark.parametrize("name", list(ROW_FUNCTIONS))
def test_batch_rows_equal_one_point_results_bit_for_bit(name, n):
    """In C and Fortran order alike.  numpy adds 8 or more contiguous reals pairwise and strided
    ones left to right, and a point's C(n,2) coordinates are 12 or more reals as complex numbers
    and, at n >= 5, 10 or more squared moduli."""
    rng = np.random.default_rng(n)
    shape = (500, math.comb(n, 2))
    z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    z[::4, 0] = 0.0  # normalize_projective pivots on a later coordinate
    w = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    w[::2] = z[::2] * np.exp(1j * rng.uniform(0.0, 2 * np.pi, size=(250, 1)))  # same class
    batch = ROW_FUNCTIONS[name](z, w, n)
    assert batch.shape[0] == 500
    fortran = ROW_FUNCTIONS[name](np.asfortranarray(z), np.asfortranarray(w), n)
    assert fortran.dtype == batch.dtype and fortran.shape == batch.shape
    assert fortran.tobytes() == batch.tobytes()
    for k in range(500):
        one = np.asarray(ROW_FUNCTIONS[name](z[k], w[k], n))
        assert one.shape == batch.shape[1:] and one.tobytes() == batch[k].tobytes()


def test_grassmann_moment_vertex():
    plane = GrassmannPoint(np.array([[1, 0, 0, 0], [0, 1, 0, 0]], dtype=complex))
    assert np.allclose(grassmann_moment(plane, 4), [1, 1, 0, 0])


def test_moment_factorization():
    # The hypersimplex moment equals the weight map of the simplex moment.
    for n in (4, 5):
        for _ in range(20):
            z = plucker_embed(random_plane(n))
            left = hypersimplex_moment(z, n)
            right = weight_map(simplex_moment(z), n)
            assert np.max(np.abs(left - right)) < 1e-12


def test_grassmann_moment_lands_in_hypersimplex():
    for _ in range(20):
        image = grassmann_moment(random_plane(5), 5)
        assert hypersimplex_residual(image, 5) < 1e-10


def test_hypersimplex_moment_range_on_raw_points():
    for _ in range(20):
        z = RNG.normal(size=10) + 1j * RNG.normal(size=10)
        assert hypersimplex_residual(hypersimplex_moment(z, 5), 5) < 1e-10


def test_moment_composition_on_chart_plane():
    plane = from_chart([1, 1, 1, 1])
    z = plucker_embed(plane)
    left = grassmann_moment(plane, 4)
    right = weight_map(simplex_moment(z), 4)
    assert np.max(np.abs(left - right)) < 1e-12


def test_torus_invariance():
    for _ in range(20):
        z = plucker_embed(random_plane(4))
        phases = symmetric_power_phases(np.exp(2j * np.pi * RNG.uniform(size=4)), 4)
        moved = z * phases
        assert np.max(np.abs(hypersimplex_moment(moved, 4)
                             - hypersimplex_moment(z, 4))) < 1e-10


def test_weight_map_exact_examples():
    q = vector(["1/3", "5/9", "5/9", "5/9"])
    assert weight_map(vector(["0", "0", "1/3", "4/9", "1/9", "1/9"]), 4) == q
    assert weight_map(vector(["0", "1/6", "1/6", "5/18", "5/18", "1/9"]), 4) == q
    unit = (F(1), F(0), F(0), F(0), F(0), F(0))
    assert weight_map(unit, 4) == (F(1), F(1), F(0), F(0))
    with pytest.raises(ValueError):
        weight_map(unit, 5)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_weight_map_exact_is_the_pair_sum(n):
    # Coordinate i of the image sums the simplex coordinates of the pairs holding i.
    rng = np.random.default_rng(100 + n)
    pairs = list(itertools.combinations(range(n), 2))
    for _ in range(25):
        x = [F(int(a), int(b)) for a, b in zip(rng.integers(-50, 50, len(pairs)),
                                                rng.integers(1, 30, len(pairs)))]
        image = weight_map(x, n)
        assert type(image) is tuple and all(type(v) is F for v in image)
        assert image == tuple(sum((v for v, pair in zip(x, pairs) if i in pair), F(0))
                              for i in range(n))
    with pytest.raises(ValueError, match="need n >= 4"):
        weight_map([F(1), F(0), F(0)], 3)


def test_weight_map_float_path():
    x = np.zeros(6)
    x[0] = 1.0
    assert np.allclose(weight_map(x, 4), [1, 1, 0, 0])
