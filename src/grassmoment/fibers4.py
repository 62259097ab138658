"""Explicit n=4 fiber machinery over the reference chamber point.

The moment fiber over q = (1/3, 5/9, 5/9, 5/9) inside CP^5 is the
7-dimensional manifold carved out by fixing the squared-modulus profile
of the last three coordinates in terms of the first three; intersecting
with the plane quadric z0*z5 + z2*z3 = z1*z4 gives the 5-dimensional
fiber of the Grassmannian moment map.  This module provides the
parametrizations of both fibers, their cross sections, the projections
to CP^1/CP^2, the complete-intersection certificate in the affine chart,
the chart-transition cocycle, and seeded samplers with residual
certificates for all of it.

The fiber over the mirror point (2/3, 4/9, 4/9, 4/9) is obtained from
the first one by the coordinate swap (z0,z1,z2) <-> (z3,z4,z5); every
operation takes a ``second_orbit`` flag instead of duplicating code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exactgeom import Vector, solve_exact
from .moment import hypersimplex_moment, weight_vectors
from .plucker import (
    ChartCoords4,
    chart_from_plucker,
    normalize_projective,
    plucker_relation_residual,
)
from .regularity import CHAMBER_POINT_MINUS, CHAMBER_POINT_PLUS, DEFAULT_SEED

F = Fraction

#: Coordinate swap exchanging the two chamber orbits; it is an involution.
ORBIT_SWAP = np.array([3, 4, 5, 0, 1, 2])

#: Simplex images of the three edge circles, exact.
EDGE_IMAGES: tuple[Vector, ...] = (
    (F(0), F(1, 6), F(1, 6), F(5, 18), F(5, 18), F(1, 9)),
    (F(1, 6), F(0), F(1, 6), F(5, 18), F(1, 9), F(5, 18)),
    (F(1, 6), F(1, 6), F(0), F(1, 9), F(5, 18), F(5, 18)),
)

#: Exponent matrix of the chart transition on the torus fiber, unimodular.
TRANSITION_EXPONENTS = ((1, 1, -1), (1, 0, 0), (0, 0, 1))
TRANSITION_EXPONENTS_INVERSE = ((0, 1, 0), (1, -1, 1), (0, 0, 1))

DEFAULT_TOLERANCES: dict[str, float] = {
    "moment": 1e-10,
    "plucker": 1e-10,
    "surface": 1e-10,
    "magnitudes": 1e-10,
    "norm": 1e-10,
    "roundtrip": 1e-10,
    "min_tail": 0.33,
    "f_values": 1e-9,
    "rank_tol": 1e-6,
}

_UNIT_TOL = 1e-12
_ZERO_TOL = 1e-12


def _chamber_target(second_orbit: bool) -> np.ndarray:
    point = CHAMBER_POINT_PLUS if second_orbit else CHAMBER_POINT_MINUS
    return np.array([float(v) for v in point])


def _as_coords6(point) -> np.ndarray:
    if isinstance(point, (SurfaceSection, SphereSection)):
        return point.coords
    z = np.asarray(point, dtype=complex)
    if z.shape != (6,):
        raise ValueError("expected six homogeneous coordinates")
    return z


def orbit_swap(z) -> np.ndarray:
    """Apply the coordinate swap between the two chamber orbits."""
    return _as_coords6(z)[ORBIT_SWAP]


def _first_orbit_view(z, second_orbit: bool) -> np.ndarray:
    z = _as_coords6(z)
    return z[ORBIT_SWAP] if second_orbit else z


def _check_unit_phases(phases) -> np.ndarray:
    t = np.asarray(phases, dtype=complex)
    if np.max(np.abs(np.abs(t) - 1.0)) > _UNIT_TOL:
        raise ValueError("torus element has non-unit modulus")
    return t


# ---------------------------------------------------------------------------
# The 7-dimensional fiber in CP^5
# ---------------------------------------------------------------------------

def tail_magnitudes(z0: complex, z1: complex, z2: complex,
                    tol: float = 1e-10) -> tuple[float, float, float]:
    """Moduli of the last three fiber coordinates from the first three.

    Requires |z0|^2 + |z1|^2 + |z2|^2 = 1/3.  On that sphere the symmetric
    form used here agrees identically with the short form
    |z4|^2 = |z1|^2 + 1/9, |z5|^2 = |z0|^2 + 1/9, |z3|^2 = 4/9 - |z0|^2 - |z1|^2.
    """
    s0, s1, s2 = abs(z0) ** 2, abs(z1) ** 2, abs(z2) ** 2
    if abs(s0 + s1 + s2 - 1.0 / 3.0) > tol:
        raise ValueError("head coordinates do not satisfy the sphere constraint")
    m3 = math.sqrt((s0 + s1 + 4.0 * s2) / 3.0)
    m4 = math.sqrt((s0 + 4.0 * s1 + s2) / 3.0)
    m5 = math.sqrt((4.0 * s0 + s1 + s2) / 3.0)
    return m3, m4, m5


def lift_to_fiber(z0: complex, z1: complex, z2: complex) -> np.ndarray:
    """Lift a sphere triple to the fiber point (z0, z1, z2, |z3|, |z4|, |z5|)."""
    m3, m4, m5 = tail_magnitudes(z0, z1, z2)
    return np.array([z0, z1, z2, m3, m4, m5], dtype=complex)


def fiber7_param(z0: complex, z1: complex, z2: complex,
                 t4: complex, t5: complex, second_orbit: bool = False) -> np.ndarray:
    """Sphere x torus parametrization of the 7-fiber."""
    t4, t5 = _check_unit_phases([t4, t5])
    z = lift_to_fiber(z0, z1, z2)
    z[4] *= t4
    z[5] *= t5
    return orbit_swap(z) if second_orbit else z


def fiber7_preimage(z, second_orbit: bool = False):
    """Recover (z0, z1, z2, t4, t5); unique because z4, z5 never vanish."""
    w = _first_orbit_view(z, second_orbit).copy()
    phase = w[3] / abs(w[3])
    w *= np.conj(phase)
    t4 = w[4] / abs(w[4])
    t5 = w[5] / abs(w[5])
    return complex(w[0]), complex(w[1]), complex(w[2]), complex(t4), complex(t5)


def random_sphere_triple(rng: np.random.Generator) -> tuple[complex, complex, complex]:
    """Uniform point of the radius 1/sqrt(3) sphere in C^3."""
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    v *= 1.0 / (math.sqrt(3.0) * np.linalg.norm(v))
    return complex(v[0]), complex(v[1]), complex(v[2])


def random_phases(rng: np.random.Generator, count: int) -> np.ndarray:
    return np.exp(2j * np.pi * rng.uniform(0.0, 1.0, size=count))


def sample_fiber7(rng: np.random.Generator, second_orbit: bool = False) -> np.ndarray:
    z0, z1, z2 = random_sphere_triple(rng)
    t4, t5 = random_phases(rng, 2)
    return fiber7_param(z0, z1, z2, t4, t5, second_orbit=second_orbit)


def fiber7_roundtrip_error(z0, z1, z2, t4, t5, second_orbit: bool = False) -> float:
    point = fiber7_param(z0, z1, z2, t4, t5, second_orbit=second_orbit)
    recovered = fiber7_preimage(point, second_orbit=second_orbit)
    original = (z0, z1, z2, t4, t5)
    return max(abs(a - b) for a, b in zip(recovered, original))


# ---------------------------------------------------------------------------
# Exact simplex image: the solution triangle of the moment system
# ---------------------------------------------------------------------------

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
        x4, x5 = F(x4), F(x5)
        head = tuple(self.constant[i] + x4 * self.direction_x4[i] + x5 * self.direction_x5[i]
                     for i in range(4))
        return head + (x4, x5)

    def point_from_head(self, x0: Fraction, x1: Fraction) -> Vector:
        x0, x1 = F(x0), F(x1)
        rows = [[self.direction_x4[0], self.direction_x5[0]],
                [self.direction_x4[1], self.direction_x5[1]]]
        rhs = [x0 - self.constant[0], x1 - self.constant[1]]
        x4, x5 = solve_exact(rows, rhs)
        return self.point(x4, x5)

    def contains(self, x4: Fraction, x5: Fraction) -> bool:
        return all(v >= 0 for v in self.point(x4, x5))

    def edge_point(self, edge: int, t: Fraction) -> Vector:
        """Point of edge 0, 1 or 2 (where x0, x1 or x2 vanishes), 0 <= t <= 1/3."""
        t = F(t)
        if not 0 <= t <= F(1, 3):
            raise ValueError("edge parameter must lie in [0, 1/3]")
        if edge == 0:
            return self.point_from_head(F(0), t)
        if edge == 1:
            return self.point_from_head(t, F(0))
        if edge == 2:
            return self.point_from_head(t, F(1, 3) - t)
        raise ValueError("edge must be 0, 1 or 2")

    @property
    def vertices(self) -> dict[str, Vector]:
        return {
            "X01": self.point_from_head(F(0), F(0)),
            "X02": self.point_from_head(F(0), F(1, 3)),
            "X12": self.point_from_head(F(1, 3), F(0)),
        }


def solve_moment_triangle() -> MomentTriangle:
    """Solve the 4 x 6 weight-map system exactly with x4, x5 free."""
    weights = weight_vectors(4)
    rows = [[F(int(weights[k][j])) for k in range(4)] for j in range(4)]
    target = list(CHAMBER_POINT_MINUS)
    constant = solve_exact(rows, target)
    dir4 = solve_exact(rows, [-F(int(weights[4][j])) for j in range(4)])
    dir5 = solve_exact(rows, [-F(int(weights[5][j])) for j in range(4)])
    return MomentTriangle(constant=tuple(constant),
                          direction_x4=tuple(dir4),
                          direction_x5=tuple(dir5))


def curve_residual(x0: float, x1: float) -> float:
    """Residual of the edge curve equation in its fixed sign arrangement."""
    p05, p23, p14 = _curve_products(x0, x1)
    return abs(math.sqrt(p05) + math.sqrt(p23) - math.sqrt(p14))


def curve_closure_residual(x0: float, x1: float) -> float:
    """Best degenerate-triangle residual over all sign choices.

    The fixed-arrangement form pins one sign pattern of the three real
    products; phase closure only requires the three square roots to close
    a degenerate triangle with some signs, so this is the honest distance
    to the curve locus.
    """
    p05, p23, p14 = _curve_products(x0, x1)
    a, b, c = math.sqrt(p05), math.sqrt(p23), math.sqrt(p14)
    return min(abs(a + s1 * b + s2 * c) for s1 in (1, -1) for s2 in (1, -1))


def _curve_products(x0: float, x1: float) -> tuple[float, float, float]:
    x0, x1 = float(x0), float(x1)
    if x0 < -1e-15 or x1 < -1e-15 or x0 + x1 > 1.0 / 3.0 + 1e-12:
        raise ValueError("curve parameters must satisfy x0, x1 >= 0, x0 + x1 <= 1/3")
    x0, x1 = max(x0, 0.0), max(x1, 0.0)
    p05 = x0 * (x0 + 1.0 / 9.0)
    p23 = max(0.0, (1.0 / 3.0 - x0 - x1)) * max(0.0, (4.0 / 9.0 - x0 - x1))
    p14 = x1 * (x1 + 1.0 / 9.0)
    return p05, p23, p14


# ---------------------------------------------------------------------------
# Cross sections of the 5-dimensional Grassmannian fiber
# ---------------------------------------------------------------------------

def _section_tail(s0: float, s1: float) -> tuple[float, float, float, float]:
    s2 = max(0.0, 1.0 / 3.0 - s0 - s1)
    m2 = math.sqrt(s2)
    m3 = math.sqrt(s2 + 1.0 / 9.0)
    m4 = math.sqrt(s1 + 1.0 / 9.0)
    m5 = math.sqrt(s0 + 1.0 / 9.0)
    return m2, m3, m4, m5


@dataclass(frozen=True)
class SurfaceSection:
    """Point of the two-dimensional section: third coordinate real nonnegative.

    Carries (z0, z1); the remaining moduli are determined.  Valid points
    satisfy z0*|z5| + |z2|*|z3| = z1*|z4|.
    """

    z0: complex
    z1: complex

    def __post_init__(self):
        object.__setattr__(self, "z0", complex(self.z0))
        object.__setattr__(self, "z1", complex(self.z1))
        s0, s1 = abs(self.z0) ** 2, abs(self.z1) ** 2
        if s0 + s1 > 1.0 / 3.0 + 1e-9:
            raise ValueError("head moduli leave no room for the third coordinate")
        if self.surface_residual() > 1e-10:
            raise ValueError("point does not satisfy the surface equation")

    def magnitudes(self) -> tuple[float, float, float, float]:
        return _section_tail(abs(self.z0) ** 2, abs(self.z1) ** 2)

    def surface_residual(self) -> float:
        m2, m3, m4, m5 = self.magnitudes()
        return abs(self.z0 * m5 + m2 * m3 - self.z1 * m4)

    @property
    def coords(self) -> np.ndarray:
        m2, m3, m4, m5 = self.magnitudes()
        return np.array([self.z0, self.z1, m2, m3, m4, m5], dtype=complex)

    @property
    def on_circle(self) -> bool:
        return abs(self.z0) ** 2 + abs(self.z1) ** 2 > 1.0 / 3.0 - 1e-9


@dataclass(frozen=True)
class SphereSection:
    """Point of the three-dimensional section: all three head coordinates complex."""

    z0: complex
    z1: complex
    z2: complex

    def __post_init__(self):
        for name in ("z0", "z1", "z2"):
            object.__setattr__(self, name, complex(getattr(self, name)))
        total = abs(self.z0) ** 2 + abs(self.z1) ** 2 + abs(self.z2) ** 2
        if abs(total - 1.0 / 3.0) > 1e-9:
            raise ValueError("head coordinates must lie on the radius 1/sqrt(3) sphere")
        if self.surface_residual() > 1e-10:
            raise ValueError("point does not satisfy the surface equation")

    def magnitudes(self) -> tuple[float, float, float]:
        s2 = abs(self.z2) ** 2
        m3 = math.sqrt(s2 + 1.0 / 9.0)
        m4 = math.sqrt(abs(self.z1) ** 2 + 1.0 / 9.0)
        m5 = math.sqrt(abs(self.z0) ** 2 + 1.0 / 9.0)
        return m3, m4, m5

    def surface_residual(self) -> float:
        m3, m4, m5 = self.magnitudes()
        return abs(self.z0 * m5 + self.z2 * m3 - self.z1 * m4)

    @property
    def coords(self) -> np.ndarray:
        m3, m4, m5 = self.magnitudes()
        return np.array([self.z0, self.z1, self.z2, m3, m4, m5], dtype=complex)


def surface_section(r0: float, r1: float, branch: int = 1) -> SurfaceSection:
    """Construct the surface point with |z0| = r0, |z1| = r1 by phase closure.

    Writes the surface equation as R0*e^(i*phi) + C = R1*e^(i*psi) and
    solves for the relative phase by the law of cosines; ``branch``
    selects the sign of sin(phi).  Collinear degenerate cases (one of the
    three magnitudes zero) are accepted when the other two balance.
    """
    r0, r1 = float(r0), float(r1)
    if r0 < 0 or r1 < 0:
        raise ValueError("magnitudes must be nonnegative")
    if r0 * r0 + r1 * r1 > 1.0 / 3.0 + 1e-12:
        raise ValueError("head moduli exceed the sphere bound")
    if branch not in (1, -1):
        raise ValueError("branch must be +1 or -1")
    big0 = r0 * math.sqrt(r0 * r0 + 1.0 / 9.0)
    big1 = r1 * math.sqrt(r1 * r1 + 1.0 / 9.0)
    s2 = max(0.0, 1.0 / 3.0 - r0 * r0 - r1 * r1)
    middle = math.sqrt(s2 * (s2 + 1.0 / 9.0))

    if middle <= _ZERO_TOL:
        if abs(big0 - big1) > 1e-10:
            raise ValueError("no phase closure: circle case needs equal head products")
        return SurfaceSection(r0, r1)
    if big0 <= _ZERO_TOL:
        if abs(middle - big1) > 1e-10:
            raise ValueError("no phase closure with a vanishing first coordinate")
        return SurfaceSection(0.0, r1)
    if big1 <= _ZERO_TOL:
        if abs(middle - big0) > 1e-10:
            raise ValueError("no phase closure with a vanishing second coordinate")
        return SurfaceSection(-r0, 0.0)

    cos_phi = (big1 * big1 - big0 * big0 - middle * middle) / (2.0 * big0 * middle)
    if abs(cos_phi) > 1.0 + 1e-9:
        raise ValueError("no phase closure: the three products violate the triangle bound")
    cos_phi = min(1.0, max(-1.0, cos_phi))
    phi = branch * math.acos(cos_phi)
    z0 = r0 * complex(math.cos(phi), math.sin(phi))
    closing = middle + big0 * complex(math.cos(phi), math.sin(phi))
    z1 = r1 * closing / abs(closing)
    return SurfaceSection(z0, z1)


def surface_circle(psi: float) -> SurfaceSection:
    """Circle of surface points with z0 = z1 = e^(i*psi)/sqrt(6).

    Here |z2| = 0 and |z3| = 1/3, forced by |z3|^2 = |z2|^2 + 1/9.
    """
    z = complex(math.cos(psi), math.sin(psi)) / math.sqrt(6.0)
    return SurfaceSection(z, z)


def sample_surface_section(rng: np.random.Generator, max_trials: int = 10000) -> SurfaceSection:
    """Rejection sampler over the feasible magnitude region, off the circle."""
    bound = math.sqrt(1.0 / 3.0)
    for _ in range(max_trials):
        r0 = rng.uniform(0.0, bound)
        r1 = rng.uniform(0.0, bound)
        if r0 * r0 + r1 * r1 > 1.0 / 3.0:
            continue
        big0 = r0 * math.sqrt(r0 * r0 + 1.0 / 9.0)
        big1 = r1 * math.sqrt(r1 * r1 + 1.0 / 9.0)
        s2 = 1.0 / 3.0 - r0 * r0 - r1 * r1
        middle = math.sqrt(s2 * (s2 + 1.0 / 9.0))
        if middle < 1e-6 or big0 < 1e-9:
            continue
        cos_phi = (big1 * big1 - big0 * big0 - middle * middle) / (2.0 * big0 * middle)
        if abs(cos_phi) > 1.0 - 1e-9:
            continue
        branch = 1 if rng.uniform() < 0.5 else -1
        return surface_section(r0, r1, branch)
    raise RuntimeError("surface sampler exhausted its trial budget")


def rotate_section(section: SurfaceSection, phase: complex) -> SphereSection:
    """Apply a common phase to the head coordinates of a surface point."""
    (phase,) = _check_unit_phases([phase])
    m2 = section.magnitudes()[0]
    return SphereSection(section.z0 * phase, section.z1 * phase, m2 * phase)


def sample_sphere_section(rng: np.random.Generator) -> SphereSection:
    """Surface sample pushed around by a uniform common phase."""
    return rotate_section(sample_surface_section(rng), random_phases(rng, 1)[0])


# ---------------------------------------------------------------------------
# Torus parametrizations of the 5-dimensional fiber
# ---------------------------------------------------------------------------

def surface_torus_param(section: SurfaceSection, phases,
                        second_orbit: bool = False) -> np.ndarray:
    """Image of (section, t1, t2, t3) under (t1, t2, t3, 1, t3/t2, t3/t1)."""
    t1, t2, t3 = _check_unit_phases(phases)
    z0, z1, m2, m3, m4, m5 = section.coords
    out = np.array([t1 * z0, t2 * z1, t3 * m2, m3, (t3 / t2) * m4, (t3 / t1) * m5])
    return orbit_swap(out) if second_orbit else out


def surface_torus_preimage(z, second_orbit: bool = False):
    """Invert the surface parametrization; on the circle the t3 = 1 branch is used."""
    w = _first_orbit_view(z, second_orbit)
    if abs(w[2]) > _ZERO_TOL:
        t3 = w[2] / abs(w[2])
        t1 = t3 * abs(w[5]) / w[5]
        t2 = t3 * abs(w[4]) / w[4]
    else:
        t3 = 1.0 + 0.0j
        t1 = abs(w[5]) / w[5]
        t2 = abs(w[4]) / w[4]
    section = SurfaceSection(w[0] / t1, w[1] / t2)
    return section, np.array([t1, t2, t3], dtype=complex)


def sphere_torus_param(section: SphereSection, t1: complex, t2: complex,
                       second_orbit: bool = False) -> np.ndarray:
    """Image of (section, t1, t2) under (t1, t2, 1, 1, 1/t2, 1/t1)."""
    t1, t2 = _check_unit_phases([t1, t2])
    z0, z1, z2, m3, m4, m5 = section.coords
    out = np.array([t1 * z0, t2 * z1, z2, m3, m4 / t2, m5 / t1])
    return orbit_swap(out) if second_orbit else out


def sphere_torus_preimage(z, second_orbit: bool = False):
    """Invert the sphere parametrization by reading phases off z4 and z5."""
    w = _first_orbit_view(z, second_orbit)
    t2 = abs(w[4]) / w[4]
    t1 = abs(w[5]) / w[5]
    section = SphereSection(w[0] / t1, w[1] / t2, w[2])
    return section, complex(t1), complex(t2)


def sample_fiber5(rng: np.random.Generator, method: str = "surface",
                  second_orbit: bool = False) -> np.ndarray:
    if method == "surface":
        return surface_torus_param(sample_surface_section(rng), random_phases(rng, 3),
                                   second_orbit=second_orbit)
    if method == "sphere":
        t1, t2 = random_phases(rng, 2)
        return sphere_torus_param(sample_sphere_section(rng), t1, t2,
                                  second_orbit=second_orbit)
    raise ValueError("method must be 'surface' or 'sphere'")


def surface_roundtrip_error(section: SurfaceSection, phases,
                            second_orbit: bool = False) -> float:
    """Parameter recovery error off the circle, reconstruction error on it."""
    point = surface_torus_param(section, phases, second_orbit=second_orbit)
    recovered, t = surface_torus_preimage(point, second_orbit=second_orbit)
    rebuilt = surface_torus_param(recovered, t, second_orbit=second_orbit)
    err = float(np.max(np.abs(rebuilt - point)))
    if abs(section.coords[2]) > 1e-9:
        err = max(err,
                  abs(recovered.z0 - section.z0),
                  abs(recovered.z1 - section.z1),
                  float(np.max(np.abs(t - np.asarray(phases, dtype=complex)))))
    return err


def sphere_roundtrip_error(section: SphereSection, t1: complex, t2: complex,
                           second_orbit: bool = False) -> float:
    point = sphere_torus_param(section, t1, t2, second_orbit=second_orbit)
    recovered, s1, s2 = sphere_torus_preimage(point, second_orbit=second_orbit)
    return max(abs(recovered.z0 - section.z0),
               abs(recovered.z1 - section.z1),
               abs(recovered.z2 - section.z2),
               abs(s1 - t1), abs(s2 - t2))


# ---------------------------------------------------------------------------
# Projections to CP^1, CP^2 and the 3-sphere
# ---------------------------------------------------------------------------

def base_projection(point) -> np.ndarray:
    """Bundle projection to CP^1: (z1*|z4| : z0*|z5|), canonically normalized."""
    z = _as_coords6(point)
    c0 = z[1] * abs(z[4])
    c1 = z[0] * abs(z[5])
    if max(abs(c0), abs(c1)) < 1e-14:
        raise ValueError("degenerate projection: both products vanish")
    return normalize_projective(np.array([c0, c1]))


def hopf_projection(point) -> np.ndarray:
    """Hopf-style projection to CP^2: (z1*|z4| : z0*|z5| : z2*|z3|).

    Images of section points satisfy c0 - c1 - c2 = 0.
    """
    z = _as_coords6(point)
    c = np.array([z[1] * abs(z[4]), z[0] * abs(z[5]), z[2] * abs(z[3])])
    return normalize_projective(c)


def to_three_sphere(section) -> np.ndarray:
    """Homeomorphism of the sphere section onto the unit sphere in C^2.

    Returns (z1*a(z1), z0*a(z0)) with a(w) = sqrt(1/9 + |w|^2), divided by
    its Euclidean norm so the image lies exactly on the unit sphere.
    """
    z = _as_coords6(section)
    g = np.array([z[1] * math.sqrt(1.0 / 9.0 + abs(z[1]) ** 2),
                  z[0] * math.sqrt(1.0 / 9.0 + abs(z[0]) ** 2)])
    norm = np.linalg.norm(g)
    if norm == 0.0:
        raise ValueError("degenerate section: z0 = z1 = 0 cannot happen on the fiber")
    return g / norm


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
    s6 = 1.0 / math.sqrt(6.0)
    s518 = math.sqrt(5.0 / 18.0)
    third = 1.0 / 3.0
    # The sign on the third coordinate of the middle base point makes
    # z0*z5 + z2*z3 vanish, as membership in the plane quadric forces
    # (z1 = 0 along this circle).
    bases = (
        np.array([0.0, s6, s6, s518, s518, third], dtype=complex),
        np.array([s6, 0.0, -s6, s518, third, s518], dtype=complex),
        np.array([s6, s6, 0.0, third, s518, s518], dtype=complex),
    )
    exponents = (
        np.array([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, -1, 0), (-1, 0, 0), (0, 0, 1)]),
        np.array([(1, 0, 0), (0, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (-1, 0, 0)]),
        np.array([(1, 0, 0), (0, 1, 0), (0, 0, 0), (0, 0, 1), (0, -1, 0), (-1, 0, 0)]),
    )
    out = []
    for k in range(3):
        base = bases[k].copy()
        base.setflags(write=False)
        out.append(EdgeFiber(name=f"edge{k}", base=base,
                             exponents=exponents[k], image=EDGE_IMAGES[k]))
    return tuple(out)


def affine_representative(z, second_orbit: bool = False) -> np.ndarray:
    """Unit-norm representative with the pivot coordinate real positive.

    The pivot is coordinate 3 (coordinate 0 in second-orbit position),
    which never vanishes on the fiber.
    """
    w = _first_orbit_view(z, second_orbit).copy()
    w /= np.linalg.norm(w)
    if abs(w[3]) <= _ZERO_TOL:
        raise ValueError("pivot coordinate vanishes; not a fiber point")
    w *= np.conj(w[3]) / abs(w[3])
    w[3] = w[3].real
    return w[ORBIT_SWAP] if second_orbit else w


# ---------------------------------------------------------------------------
# Chart coordinates, complete intersection, Jacobian
# ---------------------------------------------------------------------------

def fiber5_chart(z, second_orbit: bool = False) -> ChartCoords4:
    """Affine chart coordinates of a Grassmannian fiber point.

    Ratios against the {2,3}-minor coordinate, which is bounded away from
    zero on the fiber.
    """
    return chart_from_plucker(_first_orbit_view(z, second_orbit))


def _chart_uv(first, second=None) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(first, ChartCoords4):
        return first.as_uv()
    u = np.asarray(first, dtype=float)
    v = np.asarray(second, dtype=float)
    if u.shape != (4,) or v.shape != (4,):
        raise ValueError("expected two real 4-vectors")
    return u, v


def complete_intersection_f(u, v=None) -> tuple[float, float, float]:
    """The three defining quadrics of the fiber in the affine chart.

    On chart coordinates of fiber points the value is (0, -1, 0).
    """
    u, v = _chart_uv(u, v)
    s = u * u + v * v
    cross_re = u[0] * u[3] - v[0] * v[3] - u[1] * u[2] + v[1] * v[2]
    cross_im = u[0] * v[3] + v[0] * u[3] - u[1] * v[2] - u[2] * v[1]
    f1 = s[0] + s[1] - s[2] - s[3]
    f2 = 5.0 * s[0] + s[2] - 4.0 * s[3]
    f3 = 4.0 * s[0] + s[2] - 3.0 * s[3] + cross_re ** 2 + cross_im ** 2
    return float(f1), float(f2), float(f3)


def ci_jacobian(u, v=None) -> np.ndarray:
    """Closed-form 3 x 8 Jacobian of the chart quadrics, columns (u1..u4, v1..v4)."""
    u, v = _chart_uv(u, v)
    a = u[0] * u[3] - v[0] * v[3] - u[1] * u[2] + v[1] * v[2]
    b = u[0] * v[3] + v[0] * u[3] - u[1] * v[2] - u[2] * v[1]
    row1 = [2 * u[0], 2 * u[1], -2 * u[2], -2 * u[3],
            2 * v[0], 2 * v[1], -2 * v[2], -2 * v[3]]
    row2 = [10 * u[0], 0.0, 2 * u[2], -8 * u[3],
            10 * v[0], 0.0, 2 * v[2], -8 * v[3]]
    row3 = [8 * u[0] + 2 * (a * u[3] + b * v[3]),
            -2 * (a * u[2] + b * v[2]),
            2 * u[2] - 2 * (a * u[1] + b * v[1]),
            -6 * u[3] + 2 * (a * u[0] + b * v[0]),
            8 * v[0] + 2 * (-a * v[3] + b * u[3]),
            2 * (a * v[2] - b * u[2]),
            2 * v[2] + 2 * (a * v[1] - b * u[1]),
            -6 * v[3] + 2 * (-a * v[0] + b * u[0])]
    return np.array([row1, row2, row3], dtype=float)


def ci_jacobian_fd(u, v=None, step: float = 1e-6) -> np.ndarray:
    """Central finite-difference Jacobian, the cross-check for the closed form."""
    u, v = _chart_uv(u, v)
    packed = np.concatenate([u, v])
    out = np.zeros((3, 8))
    for k in range(8):
        forward = packed.copy()
        backward = packed.copy()
        forward[k] += step
        backward[k] -= step
        f_plus = complete_intersection_f(forward[:4], forward[4:])
        f_minus = complete_intersection_f(backward[:4], backward[4:])
        out[:, k] = (np.array(f_plus) - np.array(f_minus)) / (2.0 * step)
    return out


def jacobian_rank(u, v=None, tol: float = 1e-6) -> int:
    """Numerical rank of the chart Jacobian at a fiber chart point.

    Requires the equipotential values (0, -1, 0) to hold to 1e-8 first;
    rank is counted by singular values above tol times the largest.
    """
    u, v = _chart_uv(u, v)
    f1, f2, f3 = complete_intersection_f(u, v)
    if max(abs(f1), abs(f2 + 1.0), abs(f3)) > 1e-8:
        raise ValueError("point is not on the equipotential surface (0, -1, 0)")
    singular = np.linalg.svd(ci_jacobian(u, v), compute_uv=False)
    return int(np.sum(singular > tol * singular[0]))


# ---------------------------------------------------------------------------
# Chart transition cocycle and chart coverage
# ---------------------------------------------------------------------------

def _apply_exponents(matrix, t) -> tuple[complex, complex, complex]:
    t = _check_unit_phases(t)
    if t.shape != (3,):
        raise ValueError("expected a three-torus element")
    out = []
    for row in matrix:
        value = 1.0 + 0.0j
        for exponent, phase in zip(row, t):
            value *= phase ** exponent
        out.append(complex(value))
    return tuple(out)


def bundle_transition(t, direction: str = "01") -> tuple[complex, complex, complex]:
    """Chart transition on the torus fiber; '01' and '10' are mutually inverse."""
    if direction == "01":
        return _apply_exponents(TRANSITION_EXPONENTS, t)
    if direction == "10":
        return _apply_exponents(TRANSITION_EXPONENTS_INVERSE, t)
    raise ValueError("direction must be '01' or '10'")


def transition_determinant() -> int:
    m = TRANSITION_EXPONENTS
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


@dataclass(frozen=True)
class ChartCoverage:
    """Which standard charts of the base CP^1 a fiber point sits over."""

    min_tail: float
    vanishing_head: tuple[int, ...]
    in_chart_m0: bool
    in_chart_m1: bool
    ok: bool


def chart_coverage(z, second_orbit: bool = False, tol: float = 1e-10) -> ChartCoverage:
    """Certify the chart picture: the tail minors never vanish, and the point
    lies over chart 0 iff z1 is nonzero, over chart 1 iff z0 is nonzero."""
    w = _first_orbit_view(z, second_orbit)
    min_tail = float(min(abs(w[3]), abs(w[4]), abs(w[5])))
    vanishing = tuple(i for i in range(3) if abs(w[i]) <= tol)
    in_m0 = abs(w[1]) > tol
    in_m1 = abs(w[0]) > tol
    return ChartCoverage(min_tail=min_tail, vanishing_head=vanishing,
                         in_chart_m0=in_m0, in_chart_m1=in_m1,
                         ok=min_tail > tol and (in_m0 or in_m1))


# ---------------------------------------------------------------------------
# Tangent dimension by rank-nullity
# ---------------------------------------------------------------------------

def tangent_fiber_dimension(z, include_quadric: bool = False, tol: float = 1e-6) -> int:
    """Fiber dimension at z from the rank of the real constraint differential.

    The constraints on the unit sphere of C^6 are the four moment
    coordinates plus the norm (one dependency among them), and optionally
    the real and imaginary parts of the plane quadric.  The fiber
    dimension is 12 minus the rank minus 1 for the Hopf circle.
    """
    z = _as_coords6(z)
    z = z / np.linalg.norm(z)
    weights = weight_vectors(4).astype(float)
    rows = []
    for j in range(4):
        rows.append(np.concatenate([2.0 * z.real * weights[:, j],
                                    2.0 * z.imag * weights[:, j]]))
    rows.append(np.concatenate([2.0 * z.real, 2.0 * z.imag]))
    if include_quadric:
        qprime = np.array([z[5], -z[4], z[3], z[2], -z[1], z[0]])
        rows.append(np.concatenate([qprime.real, -qprime.imag]))
        rows.append(np.concatenate([qprime.imag, qprime.real]))
    jacobian = np.array(rows)
    singular = np.linalg.svd(jacobian, compute_uv=False)
    rank = int(np.sum(singular > tol * singular[0]))
    return 12 - rank - 1


# ---------------------------------------------------------------------------
# Residuals and certificates
# ---------------------------------------------------------------------------

def moment_residual(z, second_orbit: bool = False) -> float:
    """Max-norm distance of the moment image from the chamber point."""
    image = hypersimplex_moment(_as_coords6(z), 4)
    return float(np.max(np.abs(image - _chamber_target(second_orbit))))


def magnitude_residual(z, second_orbit: bool = False) -> float:
    """Deviation from the tail magnitude system, after unit normalization."""
    w = _first_orbit_view(z, second_orbit)
    w = w / np.linalg.norm(w)
    s = np.abs(w) ** 2
    return float(max(
        abs(s[3] - (s[0] + s[1] + 4.0 * s[2]) / 3.0),
        abs(s[4] - (s[0] + 4.0 * s[1] + s[2]) / 3.0),
        abs(s[5] - (4.0 * s[0] + s[1] + s[2]) / 3.0),
    ))


def affine_relation_residual(z, second_orbit: bool = False) -> float:
    """Residual of z0*z5 + z2*|z3| - z1*z4 on the affine representative."""
    w = affine_representative(z, second_orbit=second_orbit)
    w = _first_orbit_view(w, second_orbit)
    return float(abs(w[0] * w[5] + w[2] * abs(w[3]) - w[1] * w[4]))


def fiber7_residuals(z, second_orbit: bool = False) -> dict[str, float]:
    z = _as_coords6(z)
    w = _first_orbit_view(z, second_orbit)
    return {
        "norm": float(abs(np.linalg.norm(z) - 1.0)),
        "moment": moment_residual(z, second_orbit),
        "magnitudes": magnitude_residual(z, second_orbit),
        "min_tail": float(min(abs(w[3]), abs(w[4]), abs(w[5]))),
    }


def fiber5_residuals(z, second_orbit: bool = False) -> dict[str, float]:
    out = fiber7_residuals(z, second_orbit)
    out["plucker"] = plucker_relation_residual(_as_coords6(z))
    out["surface"] = affine_relation_residual(z, second_orbit)
    return out


def build_certificate(kind: str, z, second_orbit: bool = False,
                      tolerances: dict[str, float] | None = None) -> tuple[dict, bool]:
    """Residual certificate for one sampled point, JSON-ready.

    Kinds: 'mq7' (the 7-fiber in CP^5), 'mq5' (the Grassmannian 5-fiber),
    'm2' and 'm3' (its surface and sphere sections, embedded as fiber
    points).  Exit criteria follow the per-key tolerances.
    """
    tol = dict(DEFAULT_TOLERANCES)
    if tolerances:
        tol.update(tolerances)
    z = _as_coords6(z)
    point_json = [[float(c.real), float(c.imag)] for c in z]
    if kind == "mq7":
        res = fiber7_residuals(z, second_orbit)
        passed = (res["norm"] <= tol["norm"] and res["moment"] <= tol["moment"]
                  and res["magnitudes"] <= tol["magnitudes"]
                  and res["min_tail"] >= tol["min_tail"])
        cert = {
            "point": point_json,
            "residuals": {"moment": res["moment"], "plucker": None, "surface": None},
            "jacobian_rank": None,
            "f_values": None,
        }
        return cert, passed
    if kind in ("mq5", "m2", "m3"):
        res = fiber5_residuals(z, second_orbit)
        chart = fiber5_chart(z, second_orbit=second_orbit)
        f_values = complete_intersection_f(chart)
        rank = jacobian_rank(*chart.as_uv(), tol=tol["rank_tol"])
        coverage = chart_coverage(z, second_orbit=second_orbit)
        passed = (res["norm"] <= tol["norm"] and res["moment"] <= tol["moment"]
                  and res["magnitudes"] <= tol["magnitudes"]
                  and res["plucker"] <= tol["plucker"]
                  and res["surface"] <= tol["surface"]
                  and res["min_tail"] >= tol["min_tail"]
                  and abs(f_values[0]) <= tol["f_values"]
                  and abs(f_values[1] + 1.0) <= tol["f_values"]
                  and abs(f_values[2]) <= tol["f_values"]
                  and rank == 3 and coverage.ok)
        cert = {
            "point": point_json,
            "residuals": {"moment": res["moment"], "plucker": res["plucker"],
                          "surface": res["surface"]},
            "jacobian_rank": rank,
            "f_values": [f_values[0], f_values[1], f_values[2]],
        }
        return cert, passed
    raise ValueError(f"unknown fiber kind {kind!r}")


def sample_for_kind(kind: str, rng: np.random.Generator,
                    second_orbit: bool = False) -> np.ndarray:
    """Draw one fiber point of the given kind."""
    if kind == "mq7":
        return sample_fiber7(rng, second_orbit=second_orbit)
    if kind == "mq5":
        method = "surface" if rng.uniform() < 0.5 else "sphere"
        return sample_fiber5(rng, method=method, second_orbit=second_orbit)
    if kind == "m2":
        z = sample_surface_section(rng).coords
        return orbit_swap(z) if second_orbit else z
    if kind == "m3":
        z = sample_sphere_section(rng).coords
        return orbit_swap(z) if second_orbit else z
    raise ValueError(f"unknown fiber kind {kind!r}")
