import math
import warnings

import numpy as np
import pytest

from grassmoment.exactgeom import pairs_lex
from grassmoment.moment import symmetric_power_phases
from grassmoment.plucker import (
    GrassmannPoint,
    chart_array,
    from_chart,
    normalize_projective,
    plucker_embed,
    plucker_relation_residual,
    projective_distance,
)

RNG = np.random.default_rng(0xC0FFEE)


def random_plane(n=4):
    m = RNG.normal(size=(2, n)) + 1j * RNG.normal(size=(2, n))
    return GrassmannPoint(m)


def test_embed_coordinate_plane():
    plane = GrassmannPoint(np.array([[1, 0, 0, 0], [0, 1, 0, 0]], dtype=complex))
    z = plucker_embed(plane)
    assert np.allclose(z, [1, 0, 0, 0, 0, 0])


def test_embed_sum_plane():
    plane = GrassmannPoint(np.array([[1, 0, 1, 0], [0, 1, 0, 1]], dtype=complex))
    z = plucker_embed(plane)
    expected = np.array([1, 0, 1, -1, 0, 1], dtype=complex) / 2.0
    assert np.max(np.abs(z - expected)) < 1e-14


def test_embed_satisfies_quadric():
    for _ in range(50):
        z = plucker_embed(random_plane())
        assert plucker_relation_residual(z) < 1e-12


def test_rank_certification():
    with pytest.raises(ValueError):
        GrassmannPoint(np.array([[1, 2, 3, 4], [2, 4, 6, 8]], dtype=complex))
    with pytest.raises(ValueError):
        GrassmannPoint(np.zeros((2, 4), dtype=complex))


def test_quadric_residual_values():
    assert plucker_relation_residual(np.array([1, 0, 0, 0, 0, 1])) == pytest.approx(1.0)
    base = np.array([0, 1 / math.sqrt(6), 1 / math.sqrt(6),
                     math.sqrt(5 / 18), math.sqrt(5 / 18), 1 / 3], dtype=complex)
    assert plucker_relation_residual(base) < 1e-12


def test_chart_round_trip():
    a = [1, 2, 3, 4]
    plane = from_chart(a)
    back = chart_array(plucker_embed(plane))
    assert max(abs(x - y) for x, y in zip(back, a)) < 1e-12

    a = [1 + 2j, -0.5j, 3 - 1j, 4 + 0.25j]
    back = chart_array(plucker_embed(from_chart(a)))
    assert max(abs(x - y) for x, y in zip(back, a)) < 1e-12


def test_from_chart_inverts_chart_array_projectively():
    for _ in range(20):
        plane = random_plane()
        embedded = plucker_embed(plane)
        if abs(embedded[3]) <= 1e-6:
            continue
        rebuilt = plucker_embed(from_chart(chart_array(embedded)))
        assert projective_distance(rebuilt, embedded) < 1e-10


def test_chart_of_coordinate_plane():
    plane = GrassmannPoint(np.array([[0, 1, 0, 0], [0, 0, 1, 0]], dtype=complex))
    assert chart_array(plucker_embed(plane)).tolist() == [0, 0, 0, 0]


def test_outside_chart_rejected():
    plane = GrassmannPoint(np.array([[1, 0, 0, 0], [0, 1, 0, 0]], dtype=complex))
    with pytest.raises(ValueError):
        chart_array(plucker_embed(plane))


def test_from_chart_ones_satisfies_quadric():
    # The embedded point is (-1 : 1 : 0 : 1 : 1 : -1) up to normalization.
    z = plucker_embed(from_chart([1, 1, 1, 1]))
    assert plucker_relation_residual(z) < 1e-12
    expected = normalize_projective(np.array([-1, 1, 0, 1, 1, -1], dtype=complex))
    assert projective_distance(z, expected) < 1e-12


def test_embed_is_torus_equivariant():
    for _ in range(20):
        plane = random_plane()
        phases = np.exp(2j * np.pi * RNG.uniform(size=4))
        scaled = GrassmannPoint(plane.matrix * phases[None, :])
        left = plucker_embed(scaled)
        right = normalize_projective(plucker_embed(plane)
                                     * symmetric_power_phases(phases, 4))
        assert projective_distance(left, right) < 1e-10


def test_canonical_normalization():
    z = normalize_projective(np.array([0.0, -2j, 1.0], dtype=complex))
    assert abs(np.linalg.norm(z) - 1.0) < 1e-14
    first = z[np.nonzero(np.abs(z) > 1e-12)[0][0]]
    assert abs(first.imag) == 0.0 and first.real > 0
    with pytest.raises(ValueError, match="zero vector"):
        normalize_projective(np.zeros(3))


@pytest.mark.parametrize("coords", [[math.nan, 1.0, 0.0], [math.inf, 0.0, 0.0],
                                    [1e200, 1.0, 0.0]])
def test_nonfinite_coordinates_are_named(coords):
    # A NaN, an infinity or a norm that overflows is not a zero vector, and
    # the error says so without a numpy warning first.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="must be finite"):
            normalize_projective(np.array(coords))


def test_embed_is_the_canonical_representative_of_the_minors():
    m = np.array([[1 + 2j, -0.5, 3j, 0.25, 2], [0.5j, 1, -1 + 1j, 4, 0]])
    minors = [m[0, i - 1] * m[1, j - 1] - m[0, j - 1] * m[1, i - 1] for i, j in pairs_lex(5)]
    assert np.array_equal(plucker_embed(GrassmannPoint(m)), normalize_projective(minors))


@pytest.mark.parametrize("z", [
    # An n = 5 Plücker vector: without a shape check its {1,5}-minor would
    # pass for the {2,3}-minor and give four wrong chart numbers.
    plucker_embed(GrassmannPoint(np.array([[1, 0, 1, 0, 1], [0, 1, 0, 1, 1]], dtype=complex))),
    np.ones(3, dtype=complex),
], ids=["n5", "length3"])
def test_chart_array_rejects_a_wrong_length(z):
    with pytest.raises(ValueError, match="expected six homogeneous coordinates"):
        chart_array(z)
