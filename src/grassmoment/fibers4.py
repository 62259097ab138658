"""Explicit n=4 fiber machinery over the reference chamber point.

The moment fiber over q = (1/3, 5/9, 5/9, 5/9) inside CP^5 is the
7-dimensional manifold carved out by fixing the squared-modulus profile
of the last three coordinates in terms of the first three; intersecting
with the plane quadric z0*z5 + z2*z3 = z1*z4 gives the 5-dimensional
fiber of the Grassmannian moment map.  This module provides the
parametrizations of both fibers, their cross sections, the projection to
CP^1, the map of the sphere section onto S^3 and its closed-form inverse,
the complete-intersection certificate in the affine chart, the
chart-transition cocycle, and seeded samplers with residual certificates
for all of it.  The 5-fiber's sections are drawn as the inverse images of
uniform S^3 points, so no sampler rejects a draw.

Every function here describes the fiber over q, in the chamber orbit C-.  The fiber
over another chamber's level g.q is its image under the symmetry g of regularity.SYMMETRIES,
which ``symmetry_images`` applies exactly, row by row into a C-order array (the order the
moment maps read): callers move points once, at the boundary.  The star reverses z0..z5.

All numerics work along the last axis: one point has shape (6,) and N
points (N, 6), section points included; a chart point is its four complex
chart coordinates, shape (4,) or (N, 4).  A run is drawn by one
``sample_for_kind(kind, rng, count)``, shape (count, 6), and certified by one
``certify``, the one judge of a sampled point: a point off the fiber is a
failed check, with its value and tolerance, not an error (non-finite input
is).  A batch row has the bits of the same point as a batch of one.  Batches
are handled and stored by columns: each is a column-major (Fortran-ordered)
(N, k) array, namely ``_stack``'s, ``sample_fiber5``'s buffer, the Gaussian
draws of ``random_sphere_triple`` and ``random_three_sphere``, the f-values of
``_chart_checks``, the singular values of ``_gram_singular_values``, plucker's
``chart_array`` and moment's ``hypersimplex_moment``.  Per-point reductions are
numpy's along the last axis and read contiguous columns, and no bit moves: a
max or min is exact, and each sum or norm spans at most 6 real entries, which
numpy adds left to right in either memory order (8 or more contiguous ones
pairwise).  ``Certificates.json_rows`` encodes each column once.

The level q enters only through c = 1 - q1 - q2 = 1/9 (``TAIL_GAP``) of the
tail rule |z_(5-k)|^2 = |z_k|^2 + c and R = (1 - 3c)/2 = 1/3 (``HEAD_RADIUS2``),
the head sphere's radius^2, both reduced exactly before rounding.  The moduli
1/sqrt(3) and 1/sqrt(6) stay reciprocals, 1/sqrt(1/R) and 1/sqrt(2/R):
sqrt(R) and sqrt(R/2) round to other floats and would move every sampled bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exactgeom import Vector, pairs_lex
from .moment import hypersimplex_moment, weight_vectors
from .plucker import as_coords6, chart_array, normalize_projective, plucker_relation_residual
from .regularity import CHAMBER_POINT_MINUS, pair_table, solve_moment_triangle

F = Fraction

_GAP = 1 - CHAMBER_POINT_MINUS[0] - CHAMBER_POINT_MINUS[1]
#: The level q as the tail gap c and the head sphere's radius^2 R, exact until rounded.
TAIL_GAP, HEAD_RADIUS2 = float(_GAP), float((1 - 3 * _GAP) / 2)

#: Simplex images of the three edge circles, exact: the triangle's edge points at t = 1/6.
EDGE_IMAGES: tuple[Vector, ...] = tuple(solve_moment_triangle().edge_point(k, F(1, 6)) for k in range(3))

#: Exponent matrix of the chart transition on the torus fiber, unimodular.
TRANSITION_EXPONENTS = ((1, 1, -1), (1, 0, 0), (0, 0, 1))
TRANSITION_EXPONENTS_INVERSE = ((0, 1, 0), (1, -1, 1), (0, 0, 1))

DEFAULT_TOLERANCES: dict[str, float] = {
    "moment": 1e-10,
    "plucker": 1e-10,
    "surface": 1e-10,
    "magnitudes": 1e-10,
    "norm": 1e-10,
    "min_tail": 0.33,
    "f_values": 1e-9,
    "rank_tol": 1e-6,
}

#: Residuals a certificate emits, in order; 'mq7' has only the first.
EMITTED_RESIDUALS = ("moment", "plucker", "surface")

_UNIT_TOL = 1e-12
_ZERO_TOL = 1e-12
_COVERAGE_TOL = 1e-10
#: Equipotential values (f1, f2, f3) of the chart quadrics on the fiber.
F_TARGET = np.array([0.0, -1.0, 0.0])


def _split(x) -> tuple:
    """The entries along the last axis, one scalar or array each."""
    return tuple(np.moveaxis(np.asarray(x), -1, 0))


def _stack(*values) -> np.ndarray:
    """Broadcast complex values to one shape and stack them along a new last axis, column-major."""
    return np.moveaxis(np.stack(np.broadcast_arrays(*(np.asarray(v, dtype=complex) for v in values))), 0, -1)


def symmetry_images(symmetries, z) -> np.ndarray:
    """Row i of the batch z (a point (6,) as row 0) moved by the (i mod k)-th of k symmetries of
    regularity.SYMMETRIES, exactly: coordinate m of g.z is sign[m] * z[source[m]] by g's pair_table."""
    rows = as_coords6(z).reshape(-1, 6)
    moved = np.empty(rows.shape, complex)
    for j, (source, sign) in enumerate(map(pair_table, symmetries)):
        part = rows[j::len(symmetries), source]
        moved[j::len(symmetries)] = np.negative(part, out=part, where=np.array(sign) < 0)
    return moved.reshape(np.shape(z))


def _check_unit_phases(phases) -> np.ndarray:
    t = np.asarray(phases, dtype=complex)
    if not np.all(np.abs(np.abs(t) - 1.0) <= _UNIT_TOL):
        raise ValueError("torus element has non-unit modulus")
    return t


# ---------------------------------------------------------------------------
# The 7-dimensional fiber in CP^5
# ---------------------------------------------------------------------------

def tail_magnitudes(z0, z1, z2) -> tuple:
    """Moduli (|z3|, |z4|, |z5|) of the fiber coordinates from the first three
    by the one tail rule |z_(5-k)|^2 = |z_k|^2 + c (c = 1/9), on the head
    sphere |z0|^2 + |z1|^2 + |z2|^2 = R (R = 1/3), required to within 1e-10."""
    s = np.abs(_stack(z0, z1, z2)) ** 2
    if not np.all(np.abs(np.sum(s, axis=-1) - HEAD_RADIUS2) <= 1e-10):
        raise ValueError("head coordinates do not satisfy the sphere constraint")
    return _split(np.sqrt(s[..., ::-1] + TAIL_GAP))


def lift_to_fiber(z0, z1, z2) -> np.ndarray:
    """Lift sphere triples to the fiber points (z0, z1, z2, |z3|, |z4|, |z5|)."""
    return _stack(z0, z1, z2, *tail_magnitudes(z0, z1, z2))


def fiber7_param(z0, z1, z2, t4, t5) -> np.ndarray:
    """Sphere x torus parametrization of the 7-fiber."""
    z = lift_to_fiber(z0, z1, z2)
    z[..., 4:] *= _check_unit_phases(_stack(t4, t5))
    return z


def fiber7_preimage(z):
    """Recover (z0, z1, z2, t4, t5); unique because z4, z5 never vanish."""
    w = as_coords6(z)
    w = w * (np.conj(w[..., 3]) / np.abs(w[..., 3]))[..., None]
    z0, z1, z2, _, z4, z5 = _split(w)
    return z0, z1, z2, z4 / np.abs(z4), z5 / np.abs(z5)


def random_sphere_triple(rng: np.random.Generator, count: int) -> tuple:
    """count uniform points of the radius 1/sqrt(3) sphere in C^3, as three (count,) arrays."""
    v = np.asfortranarray(rng.normal(size=(count, 3)) + 1j * rng.normal(size=(count, 3)))
    v *= 1.0 / (math.sqrt(1.0 / HEAD_RADIUS2) * np.linalg.norm(v, axis=-1, keepdims=True))
    return _split(v)


def random_phases(rng: np.random.Generator, count) -> np.ndarray:
    """Uniform unit phases; count is a length or an array shape."""
    return np.exp(2j * np.pi * rng.uniform(0.0, 1.0, size=count))


def sample_fiber7(rng: np.random.Generator, count: int) -> np.ndarray:
    z0, z1, z2 = random_sphere_triple(rng, count)
    t4, t5 = _split(random_phases(rng, (count, 2)))
    return fiber7_param(z0, z1, z2, t4, t5)


def _roundtrip_error(z, preimage, param, recovered=True):
    """Round trip from fiber points z, sampled with z3 real positive: for
    p = preimage(z), the reconstruction error max|param(*p) - z|, and where
    ``recovered`` the larger of it and the recovery error max|preimage(param(*p)) - p|."""
    z = as_coords6(z)
    params = preimage(z)
    rebuilt = param(*params)
    recovery = np.concatenate([np.reshape(again - first, z.shape[:-1] + (-1,))
                               for first, again in zip(params, preimage(rebuilt))], axis=-1)
    error = np.max(np.abs(rebuilt - z), axis=-1)
    return np.where(recovered, np.maximum(error, np.max(np.abs(recovery), axis=-1)), error)[()]


def fiber7_roundtrip_error(z):
    """``_roundtrip_error`` of the sphere x torus parametrization at 7-fiber points."""
    return _roundtrip_error(z, fiber7_preimage, fiber7_param)


def curve_residual(x0: float, x1: float) -> float:
    """Residual of the edge curve equation in its fixed sign arrangement."""
    a, b, c = _curve_sides(x0, x1)
    return abs(a + b - c)


def curve_closure_residual(x0: float, x1: float) -> float:
    """Best degenerate-triangle residual over all sign choices.

    The fixed-arrangement form pins one sign pattern of the three sides;
    phase closure only requires them to close a degenerate triangle with
    some signs, so this is the honest distance to the curve locus.
    """
    a, b, c = _curve_sides(x0, x1)
    return min(abs(a + s1 * b + s2 * c) for s1 in (1, -1) for s2 in (1, -1))


def _curve_sides(x0: float, x1: float) -> tuple[float, float, float]:
    """Sides |z0||z5|, |z2||z3|, |z1||z4| of the closure triangle at |z0|^2 = x0, |z1|^2 = x1."""
    x0, x1 = float(x0), float(x1)
    if not (math.isfinite(x0) and math.isfinite(x1)):
        raise ValueError(f"curve parameters must be finite, got x0={x0}, x1={x1}")
    if x0 < -1e-15 or x1 < -1e-15 or x0 + x1 > HEAD_RADIUS2 + 1e-12:
        raise ValueError(f"curve parameters must satisfy x0, x1 >= 0, x0 + x1 <= {HEAD_RADIUS2}, "
                         "the head sphere's radius^2")
    r0, r1 = math.sqrt(max(x0, 0.0)), math.sqrt(max(x1, 0.0))
    s2 = float(_third_square(r0 * r0, r1 * r1))
    middle = math.sqrt(s2 * (s2 + TAIL_GAP))
    return r0 * math.sqrt(r0 * r0 + TAIL_GAP), middle, r1 * math.sqrt(r1 * r1 + TAIL_GAP)


# ---------------------------------------------------------------------------
# Cross sections of the 5-dimensional Grassmannian fiber
# ---------------------------------------------------------------------------

def _section(z0, z1, z2=None) -> np.ndarray:
    """Section point (z0, z1, z2, |z3|, |z4|, |z5|), checked on the sphere
    |z|^2 = 1/3 and the surface, each to 1e-10.  Without z2 it is a surface
    point: z2 is the real nonnegative root of 1/3 - |z0|^2 - |z1|^2."""
    if z2 is None:
        z2 = np.sqrt(_third_square(np.abs(z0) ** 2, np.abs(z1) ** 2))
    z = lift_to_fiber(z0, z1, z2)
    if not np.all(plucker_relation_residual(z) <= 1e-10):
        raise ValueError("point does not satisfy the surface equation")
    return z


def _third_square(s0, s1):
    """|z2|^2 = 1/3 - |z0|^2 - |z1|^2 on a surface point, with values up to
    1e-15 taken as 0: that is rounding noise, whose square root (up to 3e-8)
    would break the 1e-10 surface equation next to the circle z2 = 0.  The
    edge curve reads its middle product |z2||z3| from it too."""
    s2 = HEAD_RADIUS2 - s0 - s1
    return np.where(s2 > 1e-15, s2, 0.0)


def surface_circle(psi) -> np.ndarray:
    """Circle of surface points with z0 = z1 = e^(i*psi)/sqrt(6).

    Here |z2| = 0 and |z3| = 1/3, forced by |z3|^2 = |z2|^2 + 1/9.
    """
    z = np.exp(1j * np.asarray(psi, dtype=float)) / math.sqrt(2.0 / HEAD_RADIUS2)
    return _section(z, z)


# ---------------------------------------------------------------------------
# Torus parametrizations of the 5-dimensional fiber
# ---------------------------------------------------------------------------

def surface_torus_param(section, phases) -> np.ndarray:
    """Image of (section point, t1, t2, t3) under (t1, t2, t3, 1, t3/t2, t3/t1)."""
    t1, t2, t3 = _split(_check_unit_phases(phases))
    z0, z1, m2, m3, m4, m5 = _split(as_coords6(section))
    return _stack(t1 * z0, t2 * z1, t3 * m2, m3, (t3 / t2) * m4, (t3 / t1) * m5)


def surface_torus_preimage(z):
    """Invert the surface parametrization; on the circle the t3 = 1 branch is used."""
    w0, w1, w2, _, w4, w5 = _split(as_coords6(z))
    off_circle = np.abs(w2) > _ZERO_TOL
    t3 = np.where(off_circle, w2 / np.where(off_circle, np.abs(w2), 1.0), 1.0 + 0.0j)
    t1 = t3 * np.abs(w5) / w5
    t2 = t3 * np.abs(w4) / w4
    return _section(w0 / t1, w1 / t2), _stack(t1, t2, t3)


def sphere_torus_param(section, t1, t2) -> np.ndarray:
    """Image of (section point, t1, t2) under (t1, t2, 1, 1, 1/t2, 1/t1)."""
    t1, t2 = _split(_check_unit_phases(_stack(t1, t2)))
    z0, z1, z2, m3, m4, m5 = _split(as_coords6(section))
    return _stack(t1 * z0, t2 * z1, z2, m3, m4 / t2, m5 / t1)


def sphere_torus_preimage(z):
    """Invert the sphere parametrization by reading phases off z4 and z5."""
    w0, w1, w2, _, w4, w5 = _split(as_coords6(z))
    t2 = np.abs(w4) / w4
    t1 = np.abs(w5) / w5
    return _section(w0 / t1, w1 / t2, w2), t1, t2


def sample_fiber5(rng: np.random.Generator, count: int) -> np.ndarray:
    """count 5-fiber points, each from the surface or the sphere parametrization with
    equal odds: one uniform draw per point picks it, then each point takes a
    uniform S^3 point (turned onto the surface section for the surface points)
    through from_three_sphere and three uniform phases (t3 unused by the sphere
    points); each map runs on its own points only.  perfbench's tracer looks the name up."""
    surface = rng.uniform(size=count) < 0.5
    g = random_three_sphere(rng, count)
    g[surface] = _surface_turn(g[surface])
    sections, phases = from_three_sphere(g), random_phases(rng, (count, 3))
    points = np.empty((count, 6), dtype=complex, order="F")
    points[surface] = surface_torus_param(sections[surface], phases[surface])
    points[~surface] = sphere_torus_param(sections[~surface], *phases[~surface, :2].T)
    return points


def surface_roundtrip_error(z):
    """``_roundtrip_error`` of the surface parametrization at 5-fiber points;
    the recovery is skipped on the circle z2 = 0, where t3 is free."""
    off_circle = np.abs(as_coords6(z)[..., 2]) > 1e-9
    return _roundtrip_error(z, surface_torus_preimage, surface_torus_param, off_circle)


def sphere_roundtrip_error(z):
    """``_roundtrip_error`` of the sphere parametrization at 5-fiber points."""
    return _roundtrip_error(z, sphere_torus_preimage, sphere_torus_param)


# ---------------------------------------------------------------------------
# Projections to CP^1 and the 3-sphere
# ---------------------------------------------------------------------------

def _base_products(point) -> np.ndarray:
    z = as_coords6(point)
    return z[..., [1, 0]] * np.abs(z[..., [4, 5]])


def base_projection(point) -> np.ndarray:
    """Bundle projection to CP^1: (z1*|z4| : z0*|z5|), canonically normalized."""
    c = _base_products(point)
    if not np.all(np.max(np.abs(c), axis=-1) >= 1e-14):
        raise ValueError("degenerate projection: both products vanish")
    return normalize_projective(c)


def to_three_sphere(section) -> np.ndarray:
    """Homeomorphism of the sphere section onto the unit sphere in C^2;
    ``from_three_sphere`` is its inverse.

    Returns (z1*a(z1), z0*a(z0)) with a(w) = sqrt(1/9 + |w|^2), which is
    (z1*|z4|, z0*|z5|) by the tail formula, divided by its Euclidean norm
    so the image lies exactly on the unit sphere.
    """
    g = _base_products(section)
    norm = np.linalg.norm(g, axis=-1, keepdims=True)
    if not np.all(norm > 0.0):
        raise ValueError("degenerate section: z0 = z1 = 0 cannot happen on the fiber")
    return g / norm


def from_three_sphere(g) -> np.ndarray:
    """The sphere section point over g = (u, v) on the unit sphere in C^2,
    shape (..., 2): the inverse of ``to_three_sphere``.

    By the surface equation a section point has (z1|z4|, z0|z5|, z2|z3|) =
    t (u, v, u - v) for one t > 0, so z0, z1, z2 take the phases of v, u and
    u - v.  Each product p = r sqrt(r^2 + c) fixes its modulus r, as
    r^2 = 2p^2 / (sqrt(c^2 + 4p^2) + c), which keeps its precision where p
    is small.  With p_k^2 = s a_k^2 for a = (|v|, |u|, |u - v|), the sphere
    |z0|^2 + |z1|^2 + |z2|^2 = R reads sum_k sqrt(c^2 + 4 s a_k^2) = 2R + 3c.
    Its left side is concave and increasing in s, so Newton's method from
    s = 0 never passes the root; six steps reach it to rounding.
    """
    g = np.asarray(g, dtype=complex)
    if g.shape[-1:] != (2,) or not np.all(np.abs(np.linalg.norm(g, axis=-1) - 1.0) <= _UNIT_TOL):
        raise ValueError("expected points of the unit sphere in C^2")
    u, v = _split(g)
    w = np.stack([v, u, u - v])
    a2 = w.real ** 2 + w.imag ** 2
    s = np.zeros(a2.shape[1:])
    for _ in range(6):
        root = np.sqrt(TAIL_GAP * TAIL_GAP + 4.0 * s * a2)
        s = s - (np.sum(root, axis=0) - 2.0 * HEAD_RADIUS2 - 3.0 * TAIL_GAP) / np.sum(2.0 * a2 / root, axis=0)
    return _section(*(w * np.sqrt(2.0 * s / (np.sqrt(TAIL_GAP * TAIL_GAP + 4.0 * s * a2) + TAIL_GAP))))


def random_three_sphere(rng: np.random.Generator, count: int) -> np.ndarray:
    """count uniform points of the unit sphere in C^2, shape (count, 2)."""
    g = np.asfortranarray(rng.normal(size=(count, 2)) + 1j * rng.normal(size=(count, 2)))
    return g / np.linalg.norm(g, axis=-1, keepdims=True)


def _surface_turn(g) -> np.ndarray:
    """g = (u, v) turned by the common phase that makes u - v, and so the
    section's z2, real and nonnegative: the surface section's S^3 point."""
    return g * np.exp(-1j * np.angle(g[..., :1] - g[..., 1:]))


# ---------------------------------------------------------------------------
# The three edge circles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EdgeFiber:
    """Torus orbit over one intersection of the edge curve with the triangle."""

    name: str
    base: np.ndarray
    exponents: np.ndarray
    image: Vector

    def sample(self, taus) -> np.ndarray:
        """Affine representative of the orbit point at the given torus element."""
        taus = _check_unit_phases(taus)
        if taus.shape != (3,):
            raise ValueError("edge fibers are three-torus orbits")
        factors = np.prod(taus[None, :] ** self.exponents, axis=1)
        return affine_representative(self.base * factors)


def edge_fibers() -> tuple[EdgeFiber, EdgeFiber, EdgeFiber]:
    s = 1.0 / math.sqrt(2.0 / HEAD_RADIUS2)
    # The sign on the third coordinate of the middle base point makes
    # z0*z5 + z2*z3 vanish, as membership in the plane quadric forces
    # (z1 = 0 along this circle).
    bases = lift_to_fiber(*np.array([(0.0, s, s), (s, 0.0, -s), (s, s, 0.0)]).T)
    exponents = (
        np.array([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, -1, 0), (-1, 0, 0), (0, 0, 1)]),
        np.array([(1, 0, 0), (0, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (-1, 0, 0)]),
        np.array([(1, 0, 0), (0, 1, 0), (0, 0, 0), (0, 0, 1), (0, -1, 0), (-1, 0, 0)]),
    )
    bases.setflags(write=False)
    return tuple(EdgeFiber(name=f"edge{k}", base=bases[k], exponents=exponents[k],
                           image=EDGE_IMAGES[k]) for k in range(3))


def affine_representative(z) -> np.ndarray:
    """Unit-norm representative with the pivot coordinate real positive.

    The pivot is coordinate 3, which never vanishes on the fiber.
    """
    w = as_coords6(z)
    w = w / np.linalg.norm(w, axis=-1, keepdims=True)
    pivot = np.abs(w[..., 3])
    if not np.all(pivot > _ZERO_TOL):
        raise ValueError("pivot coordinate vanishes; not a fiber point")
    w *= (np.conj(w[..., 3]) / pivot)[..., None]
    w[..., 3] = w[..., 3].real
    return w


# ---------------------------------------------------------------------------
# Chart coordinates, complete intersection, Jacobian
# ---------------------------------------------------------------------------

#: Coefficients of |a1|^2..|a4|^2 in the three chart quadrics.
_CI_WEIGHTS = np.array([[1.0, 1.0, -1.0, -1.0], [5.0, 0.0, 1.0, -4.0], [4.0, 0.0, 1.0, -3.0]])


def _chart_cross(a) -> tuple[np.ndarray, np.ndarray]:
    """The chart point a, checked for shape (..., 4), and its cross term a1*a4 - a2*a3."""
    a = np.asarray(a, dtype=complex)
    if a.shape[-1:] != (4,):
        raise ValueError("expected four complex chart coordinates")
    return a, a[..., 0] * a[..., 3] - a[..., 1] * a[..., 2]


def complete_intersection_f(a) -> tuple:
    """The three defining quadrics of the fiber in the affine chart:
    f = W |a|^2 + (0, 0, |a1*a4 - a2*a3|^2) with W = _CI_WEIGHTS.

    On chart coordinates of fiber points the value is (0, -1, 0).
    """
    a, cross = _chart_cross(a)
    f1, f2, f3 = _split(np.sum(_CI_WEIGHTS * (np.abs(a) ** 2)[..., None, :], axis=-1))
    return f1, f2, f3 + np.abs(cross) ** 2


def ci_jacobian(a) -> np.ndarray:
    """Closed-form 3 x 8 Jacobian of the chart quadrics, columns (u1..u4, v1..v4)
    for a = u + i*v.

    d|a_k|^2 = 2 (u_k, v_k), and d|C|^2 = 2 Re(conj(C) dC) with
    dC/da = (a4, -a3, -a2, a1) along u and i times that along v.
    """
    a, cross = _chart_cross(a)
    grad = np.conj(cross)[..., None] * a[..., ::-1] * np.array([1, -1, -1, 1])
    squares = 2.0 * np.concatenate([a.real, a.imag], axis=-1)[..., None, :] * np.tile(_CI_WEIGHTS, 2)
    squares[..., 2, :] += 2.0 * np.concatenate([grad.real, -grad.imag], axis=-1)
    return squares


def ci_jacobian_fd(a) -> np.ndarray:
    """Central finite-difference Jacobian at chart points (..., 4), step 1e-6,
    shaped like ci_jacobian: the cross-check for the closed form."""
    a, _ = _chart_cross(a)
    forward = np.concatenate([a.real, a.imag], axis=-1)[..., None, :] + 1e-6 * np.eye(8)
    backward = forward - 2e-6 * np.eye(8)
    f_plus = np.stack(complete_intersection_f(forward[..., :4] + 1j * forward[..., 4:]), axis=-2)
    f_minus = np.stack(complete_intersection_f(backward[..., :4] + 1j * backward[..., 4:]), axis=-2)
    return (f_plus - f_minus) / 2e-6


def _dot3(s, t):
    """s[0] * t[0] + s[1] * t[1] + s[2] * t[2], added left to right: for a stacked symmetric
    matrix s, shape (3, 3, N), and vectors t, shape (3, N), the products s t."""
    return s[0] * t[0] + s[1] * t[1] + s[2] * t[2]


def _cofactors(d0, d1, d2, o01, o02, o12) -> tuple:
    """Cofactors 00, 11, 22, 01, 02, 12 of the symmetric 3 x 3 matrices with diagonal d and off-diagonal o."""
    return (d1 * d2 - o12 * o12, d0 * d2 - o02 * o02, d0 * d1 - o01 * o01,
            o02 * o12 - o01 * d2, o01 * o12 - o02 * d1, o01 * o02 - o12 * d0)


def _gram_singular_values(jacobian) -> np.ndarray:
    """Descending singular values of (..., 3, 8) matrices J, column-major: the roots of the eigenvalues
    of G = J J^T, rounding below 0 read as 0, in closed form over the batch (Smith 1961, after Eberly's
    robust 3 x 3 solver).  On G scaled by its largest diagonal entry, the trigonometric formula gives
    the eigenvalue alpha set apart from the other two: the largest where det(G - tr(G) I/3) >= 0, else
    the smallest.  Its eigenvector is the longest row of adj(G - alpha I), each row a cross product of two
    rows of G - alpha I, and the other two eigenvalues are the roots of G's 2 x 2 block on that vector's
    complement: the larger mid + hypot, the smaller det / larger."""
    gram = (jacobian @ jacobian.swapaxes(-1, -2)).reshape(-1, 9).T
    scale = np.maximum(np.maximum(gram[0], gram[4]), gram[8])
    scale = np.where(scale > 0.0, scale, 1.0)
    x0, x1, x2, y01, y02, y12 = gram[[0, 4, 8, 1, 2, 5]] / scale
    q = (x0 + x1 + x2) / 3.0
    b = np.array([x0 - q, x1 - q, x2 - q, y01, y02, y12])
    p = np.sqrt((_dot3(b, b) + 2.0 * _dot3(b[3:], b[3:])) / 6.0)
    c = b * np.divide(1.0, p, out=np.zeros_like(p), where=p > 0.0)
    c00, _, _, c01, c02, _ = _cofactors(*c)
    half = np.clip((c[0] * c00 + c[3] * c01 + c[4] * c02) / 2.0, -1.0, 1.0)
    alpha = q + 2.0 * p * np.cos(np.arccos(half) / 3.0 + np.where(half >= 0.0, 0.0, 2.0 * np.pi / 3.0))
    k00, k11, k22, k01, k02, k12 = _cofactors(x0 - alpha, x1 - alpha, x2 - alpha, y01, y02, y12)
    adj = np.array([[k00, k01, k02], [k01, k11, k12], [k02, k12, k22]])
    l0, l1, l2 = _dot3(adj, adj)
    length = np.sqrt(np.maximum(np.maximum(l0, l1), l2))
    v = np.where(l0 >= np.maximum(l1, l2), adj[0], np.where(l1 >= l2, adj[1], adj[2]))
    v = np.where(length > 0.0, v / np.where(length > 0.0, length, 1.0), [[1.0], [0.0], [0.0]])
    zero = np.zeros_like(q)
    u = np.where(np.abs(v[0]) > np.abs(v[1]), np.array([-v[2], zero, v[0]]), np.array([zero, v[2], -v[1]]))
    u = u / np.sqrt(_dot3(u, u))
    w = np.array([v[1] * u[2] - v[2] * u[1], v[2] * u[0] - v[0] * u[2], v[0] * u[1] - v[1] * u[0]])
    a = np.array([[x0, y01, y02], [y01, x1, y12], [y02, y12, x2]])
    au, aw = _dot3(a, u), _dot3(a, w)
    d0, d1, off = _dot3(u, au), _dot3(w, aw), _dot3(w, au)
    larger = (d0 + d1) / 2.0 + np.hypot((d0 - d1) / 2.0, off)
    smaller = np.minimum(np.divide(d0 * d1 - off * off, larger, out=np.zeros_like(larger), where=larger > 0.0),
                         larger)
    top, low = np.maximum(alpha, larger), np.minimum(alpha, smaller)
    eigenvalues = np.array([top, np.maximum(np.minimum(alpha, larger), smaller), low])
    return np.sqrt(np.maximum(eigenvalues, 0.0) * scale).T.reshape(np.shape(jacobian)[:-2] + (3,))


def _chart_checks(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """f-values, their distance from (0, -1, 0), and the chart Jacobian's singular values from the
    closed-form eigenvalues of its 3 x 3 Gram matrix (sigma3/sigma1 to relative error
    ~eps/(sigma3/sigma1)^2, a true 0 reads below 2e-8), at any chart point: judging the distance is
    ``certify``'s 'f_values' check."""
    f = np.moveaxis(np.stack(complete_intersection_f(a)), 0, -1)
    return f, np.max(np.abs(f - F_TARGET), axis=-1), _gram_singular_values(ci_jacobian(a))


def _rank(singular: np.ndarray, tol: float):
    return np.sum(singular > tol * singular[..., :1], axis=-1)


def jacobian_rank(a):
    """Numerical rank of the chart Jacobian at chart points, on the fiber or off it:
    the count of Gram singular values above rank_tol times the largest.  Non-finite
    points raise ValueError.  A public name because perfbench's tracer looks it up."""
    a = np.asarray(a, dtype=complex)
    if not np.all(np.isfinite(a)):
        raise ValueError("chart point has non-finite coordinates")
    return _rank(_chart_checks(a)[2], DEFAULT_TOLERANCES["rank_tol"])


def jacobian_fd_gap(points) -> float:
    """Largest gap between the closed-form and the finite-difference chart
    Jacobian over every 25th fiber point."""
    a = chart_array(as_coords6(points)[::25])
    return float(np.max(np.abs(ci_jacobian(a) - ci_jacobian_fd(a)), initial=0.0))


# ---------------------------------------------------------------------------
# Chart transition cocycle and chart coverage
# ---------------------------------------------------------------------------

def bundle_transition(t, direction: str = "01"):
    """Chart transition on the torus fiber; '01' and '10' are mutually inverse.

    Works along the last axis.
    """
    if direction not in ("01", "10"):
        raise ValueError("direction must be '01' or '10'")
    t = _check_unit_phases(t)
    if t.shape[-1:] != (3,):
        raise ValueError("expected a three-torus element")
    matrix = TRANSITION_EXPONENTS if direction == "01" else TRANSITION_EXPONENTS_INVERSE
    return np.prod(t[..., None, :] ** np.array(matrix), axis=-1)


def cocycle_error(t) -> float:
    """Largest deviation from the identity of the round trips '01' then '10'
    and '10' then '01', over torus elements t of shape (N, 3)."""
    t = np.asarray(t, dtype=complex)
    forward = bundle_transition(bundle_transition(t, "01"), "10")
    backward = bundle_transition(bundle_transition(t, "10"), "01")
    return float(np.max(np.abs(np.concatenate([forward - t, backward - t], axis=-1)), initial=0.0))


def transition_determinant() -> int:
    m = TRANSITION_EXPONENTS
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def transition_check(t) -> tuple[int, float, bool]:
    """The transition's determinant, its cocycle error over torus elements t, and
    the bundle verdict on both: determinant -1 and the cocycle identity to 1e-12."""
    determinant, max_cocycle = transition_determinant(), cocycle_error(t)
    return determinant, max_cocycle, determinant == -1 and max_cocycle <= 1e-12


@dataclass(frozen=True)
class ChartCoverage:
    """Which standard charts of the base CP^1 a fiber point sits over; for a
    batch, arrays.  Covered (ok) iff margin = min(min |z3|, |z4|, |z5|,
    max(|z0|, |z1|)) exceeds the tolerance."""

    in_chart_m0: bool
    in_chart_m1: bool
    margin: float
    ok: bool


def chart_coverage(z) -> ChartCoverage:
    """Certify the chart picture: the tail minors never vanish, and the point
    lies over chart 0 iff z1 is nonzero, over chart 1 iff z0 is nonzero."""
    w = np.abs(as_coords6(z))
    margin = np.minimum(np.min(w[..., 3:], axis=-1), np.maximum(w[..., 0], w[..., 1]))
    return ChartCoverage(in_chart_m0=w[..., 1] > _COVERAGE_TOL, in_chart_m1=w[..., 0] > _COVERAGE_TOL,
                         margin=margin, ok=margin > _COVERAGE_TOL)


# ---------------------------------------------------------------------------
# Tangent dimension by rank-nullity
# ---------------------------------------------------------------------------

def tangent_fiber_dimension(z, include_quadric: bool = False):
    """Fiber dimension at z from the rank of the real constraint differential.

    The constraints on the unit sphere of C^6 are the four moment
    coordinates plus the norm (one dependency among them), and optionally
    the real and imaginary parts of the plane quadric.  The fiber dimension,
    12 - rank - 1 for the Hopf circle, is 10 - r on CP^5 and 8 - r on G(4,2)
    for r = regularity.orbit_dimension of the support of z.
    """
    z = as_coords6(z)
    rows = _constraint_rows(z / np.linalg.norm(z, axis=-1, keepdims=True), include_quadric)
    # SVD, not the Gram route: these rows have exact zero singular values, which Gram reads as ~1e-8.
    return 12 - _rank(np.linalg.svd(rows, compute_uv=False), 1e-6) - 1


def _constraint_rows(z, include_quadric: bool) -> np.ndarray:
    """Differentials at z, as rows over (Re z, Im z), of the four moment
    coordinates sum_j w_j |z_j|^2 (w a row of weight_vectors(4).T) and of |z|^2,
    then with include_quadric of the real and imaginary parts of the plane
    quadric z0*z5 + z2*z3 - z1*z4: shape (..., 5, 12) or (..., 7, 12)."""
    rows = [np.concatenate([2.0 * z.real * w, 2.0 * z.imag * w], axis=-1)
            for w in list(weight_vectors(4).T.astype(float)) + [np.ones(6)]]
    if include_quadric:
        qprime = z[..., ::-1] * np.array([1, -1, 1, 1, -1, 1])
        rows.append(np.concatenate([qprime.real, -qprime.imag], axis=-1))
        rows.append(np.concatenate([qprime.imag, qprime.real], axis=-1))
    return np.stack(rows, axis=-2)


def constraint_values(x) -> np.ndarray:
    """The constraints of tangent_fiber_dimension at real points x = (Re z, Im z),
    shape (..., 12): the moment coordinates, each the sum of |z_ij|^2 over the
    pairs ij holding it, then |z|^2, then the real and imaginary parts of the
    plane quadric z0*z5 + z2*z3 - z1*z4.  The oracle of _constraint_rows."""
    z = x[..., :6] + 1j * x[..., 6:]
    squares = np.abs(z) ** 2
    moment = [sum(squares[..., k] for k, pair in enumerate(pairs_lex(4)) if i in pair) for i in range(1, 5)]
    quadric = z[..., 0] * z[..., 5] + z[..., 2] * z[..., 3] - z[..., 1] * z[..., 4]
    return np.stack([*moment, np.sum(squares, axis=-1), quadric.real, quadric.imag], axis=-1)


def constraint_fd_gap(z) -> float:
    """Largest gap between the constraint rows, quadric included, and central
    differences (step 1e-6) of constraint_values at the points z."""
    z = as_coords6(z)
    x = np.concatenate([z.real, z.imag], axis=-1)[..., None, :]
    fd = (constraint_values(x + 1e-6 * np.eye(12)) - constraint_values(x - 1e-6 * np.eye(12))) / 2e-6
    return float(np.max(np.abs(_constraint_rows(z, True) - fd.swapaxes(-1, -2)), initial=0.0))


# ---------------------------------------------------------------------------
# Residuals and certificates
# ---------------------------------------------------------------------------

def moment_residual(z, target):
    """Max-norm distance of the moment image from the chamber point target."""
    target = np.array(target, dtype=float)
    return np.max(np.abs(hypersimplex_moment(as_coords6(z), 4) - target), axis=-1)


def fiber7_residuals(z) -> dict:
    """Norm and moment residuals, the tail rule's residual after unit
    normalization, and the smallest tail modulus."""
    z = as_coords6(z)
    norm = np.linalg.norm(z, axis=-1, keepdims=True)
    s = np.abs(z / norm) ** 2
    return {
        "norm": np.abs(norm[..., 0] - 1.0),
        "moment": moment_residual(z, CHAMBER_POINT_MINUS),
        "magnitudes": np.max(np.abs(s[..., :2:-1] - s[..., :3] - TAIL_GAP), axis=-1),
        "min_tail": np.min(np.abs(z[..., 3:]), axis=-1),
    }


def fiber5_residuals(z) -> dict:
    """fiber7_residuals plus the quadric residual, on the point as given
    ('plucker') and on its affine representative ('surface')."""
    out = fiber7_residuals(z)
    out["plucker"] = plucker_relation_residual(as_coords6(z))
    out["surface"] = plucker_relation_residual(affine_representative(z))
    return out


@dataclass(frozen=True)
class Certificates:
    """Certificates of N fiber points as arrays, column by column; ``json_rows`` is their JSON text.

    ``checks`` maps each check to (value, tolerance, pass mask): residuals and
    'f_values' (distance from (0, -1, 0)) pass at or below tolerance, 'min_tail'
    at or above, 'rank' (sigma3/sigma1 of the chart Jacobian, from its closed-form Gram eigenvalues)
    and 'coverage' (ChartCoverage.margin) above.  The emitted residuals are the
    values of their checks.
    """

    points: np.ndarray
    f_values: np.ndarray | None
    ranks: np.ndarray | None
    checks: dict[str, tuple[np.ndarray, float, np.ndarray]]

    @property
    def passed(self) -> np.ndarray:
        return np.logical_and.reduce([ok for _, _, ok in self.checks.values()])

    def json_rows(self) -> list[str]:
        """One compact JSON certificate per point, as ``fiber`` emits them: the point as [re, im]
        pairs, the emitted residuals (null where the kind has none), rank, f-values and on failing
        points ``failed_checks``.  Each column is encoded once by ``orjson`` (shortest round-trip
        floats, so each row parses to the arrays' exact bits) and cut into the rows' pieces, which
        an f-string joins.  A non-finite value, which orjson would write as null, raises ValueError."""
        import orjson

        residuals = [self.checks[key][0] if key in self.checks else None for key in EMITTED_RESIDUALS]
        emitted = [a for a in [self.points, *residuals, self.f_values] if a is not None]
        emitted += [np.append(value[~ok], tolerance)
                    for value, tolerance, ok in self.checks.values() if not ok.all()]
        if not all(np.all(np.isfinite(a)) for a in emitted):
            raise ValueError("certificate holds a non-finite value")
        if len(self.points) == 0:
            return []

        def cells(column: np.ndarray | None) -> list[str]:
            """Each row of column as orjson writes it, less ndim - 1 outer brackets; null where none."""
            if column is None:
                return ["null"] * len(self.points)
            text = orjson.dumps(np.ascontiguousarray(column), option=orjson.OPT_SERIALIZE_NUMPY).decode()
            ndim = column.ndim
            return text[ndim:-ndim].split("]" * (ndim - 1) + "," + "[" * (ndim - 1))

        points = np.stack([self.points.real, self.points.imag], axis=-1)
        f_open, f_close = ("", "") if self.f_values is None else ("[", "]")
        rows = [f'{{"point":[[{p}]],"residuals":{{"moment":{m},"plucker":{q},"surface":{s}}},'
                f'"jacobian_rank":{r},"f_values":{f_open}{f}{f_close}}}'
                for p, m, q, s, r, f in zip(*map(cells, [points, *residuals, self.ranks, self.f_values]))]
        for index in np.flatnonzero(~self.passed).tolist():
            failed = [{"check": name, "value": float(value[index]), "tolerance": tolerance}
                      for name, (value, tolerance, ok) in self.checks.items() if not ok[index]]
            rows[index] = f'{rows[index][:-1]},"failed_checks":{orjson.dumps(failed).decode()}}}'
        return rows


def certify(kind: str, z, tolerances: dict[str, float] | None = None) -> Certificates:
    """Residual certificates for an (N, 6) batch of sampled points.

    Kinds: 'mq7' (the 7-fiber in CP^5), 'mq5' (the Grassmannian 5-fiber),
    'm2' and 'm3' (its surface and sphere sections as fiber points).
    Tolerances override DEFAULT_TOLERANCES per key.  A point off the fiber,
    the equipotential surface (0, -1, 0) included, fails its checks by name;
    non-finite points, and 5-fiber points off the chart (|z3| <= 1e-12), raise
    ValueError.
    """
    if kind not in ("mq7", "mq5", "m2", "m3"):
        raise ValueError(f"unknown fiber kind {kind!r}")
    tol = {**DEFAULT_TOLERANCES, **(tolerances or {})}
    z = as_coords6(z)
    if z.ndim != 2:
        raise ValueError("expected an (N, 6) array of fiber points")
    if not np.all(np.isfinite(z)):
        raise ValueError("fiber point has non-finite coordinates")
    res = fiber7_residuals(z) if kind == "mq7" else fiber5_residuals(z)
    checks = {key: (value, tol[key], value <= tol[key])
              for key, value in res.items() if key != "min_tail"}
    checks["min_tail"] = (res["min_tail"], tol["min_tail"], res["min_tail"] >= tol["min_tail"])
    if kind == "mq7":
        return Certificates(z, None, None, checks)
    f_values, off, singular = _chart_checks(chart_array(z))
    ranks = _rank(singular, tol["rank_tol"])
    margin = singular[:, 2] / np.where(singular[:, 0] > 0.0, singular[:, 0], 1.0)
    coverage = chart_coverage(z)
    checks["f_values"] = (off, tol["f_values"], off <= tol["f_values"])
    checks["rank"] = (margin, tol["rank_tol"], ranks == 3)
    checks["coverage"] = (coverage.margin, _COVERAGE_TOL, coverage.ok)
    return Certificates(z, f_values, ranks, checks)


def build_certificate(kind: str, z, tolerances: dict[str, float] | None = None) -> tuple[dict, bool]:
    """``certify`` at N = 1, its one certificate parsed from ``json_rows``; perfbench's
    tracer looks it up."""
    batch = certify(kind, as_coords6(z)[None], tolerances)
    return json.loads(batch.json_rows()[0]), bool(batch.passed[0])


def sample_for_kind(kind: str, rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw count fiber points of the given kind, shape (count, 6).

    The one sampler entry of the CLI and the acceptance suite; for 'mq5'
    see sample_fiber5.  The sections 'm3' and 'm2' are from_three_sphere of
    uniform S^3 points, turned onto the surface section for 'm2'.
    """
    if kind == "mq7":
        return sample_fiber7(rng, count)
    if kind == "mq5":
        return sample_fiber5(rng, count)
    if kind in ("m2", "m3"):
        g = random_three_sphere(rng, count)
        return from_three_sphere(_surface_turn(g) if kind == "m2" else g)
    raise ValueError(f"unknown fiber kind {kind!r}")
