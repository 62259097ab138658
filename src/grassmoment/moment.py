"""Moment maps for the torus actions on CP^N and on the Grassmannian.

Three maps share one weight structure.  The standard simplex moment map
sends a projective point to its squared-modulus profile; the hypersimplex
moment map pushes that profile forward along the 0/1 weight vectors, one
per coordinate pair; and the Grassmannian moment map is the hypersimplex
one precomposed with the Plücker embedding.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from .exactgeom import pairs_lex
from .plucker import GrassmannPoint, plucker_embed


def weight_vectors(n: int) -> np.ndarray:
    """Integer weight vectors, one per pair {i, j} in lex order, as rows.

    Row k has ones exactly at the two positions of the k-th pair.
    """
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    pairs = pairs_lex(n)
    weights = np.zeros((len(pairs), n), dtype=int)
    for k, (i, j) in enumerate(pairs):
        weights[k, i - 1] = 1
        weights[k, j - 1] = 1
    return weights


def symmetric_power_phases(t: Sequence[complex], n: int) -> np.ndarray:
    """Second symmetric power of a torus element: products t_i * t_j, lex order.

    This is the paper's representation T^n -> T^N, kept as the oracle the
    equivariance of the Plücker embedding and the moment maps is tested against.
    """
    t = np.asarray(t, dtype=complex)
    if t.shape != (n,):
        raise ValueError(f"expected {n} phases, got shape {t.shape}")
    return np.array([t[i - 1] * t[j - 1] for i, j in pairs_lex(n)], dtype=complex)


def simplex_moment(point) -> np.ndarray:
    """Standard moment map CP^N -> Delta^N: normalized squared moduli, along the last axis."""
    coords = np.asarray(point, dtype=complex, order="C")  # one memory order, so one summation order
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        profile = np.abs(coords) ** 2
        total = np.sum(profile, axis=-1, keepdims=True)
    if not np.all(np.isfinite(total)):
        raise ValueError(f"squared moduli of the point sum to {total[~np.isfinite(total)][0]}: "
                         "coordinates must be finite and below about 1e154")
    if np.any(total == 0.0):
        raise ValueError("zero vector has no moment image")
    return profile / total


def hypersimplex_moment(point, n: int) -> np.ndarray:
    """Moment map CP^N -> hypersimplex: weight-vector average of |z_i|^2.

    Works along the last axis, so an (N, C(n,2)) batch gives (N, n) images.
    """
    profile = simplex_moment(point)
    weights = weight_vectors(n)
    if profile.shape[-1] != weights.shape[0]:
        raise ValueError(
            f"point has {profile.shape[-1]} coordinates, expected {weights.shape[0]} for n={n}")
    # Each coordinate adds its n - 1 pair columns left to right in lex order, not
    # by a matrix product, so that a batch row equals a batch of one bit for bit.
    return np.moveaxis(np.stack([sum(profile[..., k] for k in np.flatnonzero(w)) for w in weights.T]), 0, -1)


def grassmann_moment(plane: GrassmannPoint, n: int) -> np.ndarray:
    """Moment map on 2-planes: hypersimplex moment of the Plücker image."""
    if plane.n != n:
        raise ValueError(f"plane is in C^{plane.n}, not C^{n}")
    return hypersimplex_moment(plucker_embed(plane), n)


def weight_map(x: Sequence, n: int):
    """Linear map sending the k-th simplex vertex to the k-th weight vector.

    Exact on Fraction input (returns a tuple of Fractions), floating point
    otherwise (returns an ndarray).
    """
    weights = weight_vectors(n)
    if len(x) != len(weights):
        raise ValueError(f"expected a simplex point of length {len(weights)}, got {len(x)}")
    if not any(isinstance(v, Fraction) for v in x):
        return np.asarray(x, dtype=float) @ weights
    image = [Fraction(0)] * n
    for v, (i, j) in zip(map(Fraction, x), pairs_lex(n)):
        image[i - 1] += v
        image[j - 1] += v
    return tuple(image)
