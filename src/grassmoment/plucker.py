"""Two-planes in C^n, their Plücker embedding, and the n=4 chart.

A plane is a rank-2 complex 2 x n matrix; its Plücker image is the vector
of 2 x 2 column minors, one per pair {i, j} in lexicographic order.  For
n = 4 the image is cut out by the single quadric z0*z5 + z2*z3 = z1*z4,
and the chart where the {2,3}-minor is nonzero carries the affine
coordinates used by the complete-intersection checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exactgeom import pairs_lex

RANK_TOL = 1e-12
COORD_TOL = 1e-12


def normalize_projective(coords) -> np.ndarray:
    """Canonical representative: unit norm, first nonzero entry real positive.

    Works along the last axis: an (N, k) array gives N representatives.
    """
    v = np.array(coords, dtype=complex, order="C")  # one memory order, so one summation order
    if v.ndim == 0 or v.shape[-1] == 0:
        raise ValueError("projective point must be a nonempty vector")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite norm is reported below
        norm = np.linalg.norm(v, axis=-1, keepdims=True)
    if not np.all(np.isfinite(norm)):
        raise ValueError("coordinates must be finite and must not overflow the norm "
                         "(moduli below about 1e154)")
    if not np.all(norm > 0.0):
        raise ValueError("cannot normalize the zero vector")
    v /= norm
    nonzero = np.abs(v) > COORD_TOL
    if not np.all(nonzero.any(axis=-1)):
        raise ValueError("all coordinates below tolerance")
    first = np.argmax(nonzero, axis=-1)[..., None]
    pivot = np.take_along_axis(v, first, axis=-1)
    v *= np.conj(pivot) / np.abs(pivot)
    np.put_along_axis(v, first, np.take_along_axis(v, first, axis=-1).real, axis=-1)
    return v


def projective_distance(u, v) -> float:
    """Fubini-Study style distance sqrt(1 - |<u, v>|^2) on unit vectors.

    Computed as the norm of the component of u orthogonal to v, which is
    the same number but does not lose precision when the classes agree.
    Works along the last axis, so batches of points broadcast.
    """
    a = np.asarray(u, dtype=complex, order="C")  # one memory order, so one summation order
    b = np.asarray(v, dtype=complex, order="C")
    a = a / np.linalg.norm(a, axis=-1, keepdims=True)
    b = b / np.linalg.norm(b, axis=-1, keepdims=True)
    inner = np.sum(np.conj(b) * a, axis=-1, keepdims=True)
    return np.linalg.norm(a - inner * b, axis=-1)


@dataclass(frozen=True)
class GrassmannPoint:
    """A 2-plane in C^n as a certified rank-2 complex 2 x n matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex).copy()
        if m.ndim != 2 or m.shape[0] != 2 or m.shape[1] < 2:
            raise ValueError(f"expected a 2 x n matrix with n >= 2, got shape {m.shape}")
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
            # Bounds the squared norm of the Plücker vector (Cauchy-Binet).
            bound = np.prod(np.sum(np.abs(m) ** 2, axis=1))
        if not np.isfinite(bound):
            raise ValueError(f"squared moduli of the 2 x n matrix rows multiply to {bound}: "
                             "entries must be finite and below about 1e76")
        scale = float(np.max(np.abs(m))) ** 2
        largest_minor = max(
            abs(m[0, i - 1] * m[1, j - 1] - m[0, j - 1] * m[1, i - 1])
            for i, j in pairs_lex(m.shape[1])
        )
        if scale == 0.0 or largest_minor <= RANK_TOL * scale:
            raise ValueError("matrix is not certifiably of rank 2")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return self.matrix.shape[1]


def plucker_embed(plane: GrassmannPoint) -> np.ndarray:
    """Plücker image: the 2 x 2 column minors in lexicographic pair order,
    as the canonical representative of normalize_projective."""
    m = plane.matrix
    minors = [m[0, i - 1] * m[1, j - 1] - m[0, j - 1] * m[1, i - 1]
              for i, j in pairs_lex(plane.n)]
    return normalize_projective(minors)


def as_coords6(point) -> np.ndarray:
    """Six homogeneous coordinates of CP^5 along the last axis, as a complex array."""
    z = np.asarray(point, dtype=complex)
    if z.shape[-1:] != (6,):
        raise ValueError("expected six homogeneous coordinates")
    return z


def plucker_relation_residual(point) -> float:
    """|z0*z5 + z2*z3 - z1*z4| on the given representative(s), along the last axis.

    The value is scale dependent, so callers pass a normalized point; the
    coordinates are used exactly as handed in.
    """
    z = as_coords6(point)
    return np.abs(z[..., 0] * z[..., 5] + z[..., 2] * z[..., 3] - z[..., 1] * z[..., 4])


def chart_array(z) -> np.ndarray:
    """Chart coordinates a1 = P13/P23, a2 = -P34/P23, a3 = -P12/P23, a4 = P24/P23.

    z holds the six Plücker coordinates in lexicographic pair order along
    its last axis: shape (6,) gives (4,), shape (N, 6) gives (N, 4).
    """
    z = as_coords6(z)
    if not np.all(np.abs(z[..., 3]) > COORD_TOL):
        raise ValueError("outside chart: the {2,3}-minor vanishes")
    return np.moveaxis(np.stack([z[..., 1], -z[..., 5], -z[..., 0], z[..., 4]]), 0, -1) / z[..., 3:4]


def from_chart(coords) -> GrassmannPoint:
    """Plane with {2,3}-minor 1 realizing the four chart coordinates: the
    inverse of chart_array, kept as the oracle its round trips are tested
    against."""
    a1, a2, a3, a4 = (complex(c) for c in coords)
    matrix = np.array([[a1, 1.0, 0.0, a2],
                       [a3, 0.0, 1.0, a4]], dtype=complex)
    return GrassmannPoint(matrix)
