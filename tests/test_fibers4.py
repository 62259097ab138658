import collections
import functools
import json
import math
import re
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from grassmoment import fibers4 as fb
from grassmoment import regularity
from grassmoment.exactgeom import pairs_lex
from grassmoment.moment import hypersimplex_moment, simplex_moment
from grassmoment.plucker import (
    chart_array,
    normalize_projective,
    plucker_relation_residual,
    projective_distance,
)
from grassmoment.regularity import CHAMBER_POINT_MINUS, orbit_dimension, solve_moment_triangle

S6 = 1.0 / math.sqrt(6.0)
S518 = math.sqrt(5.0 / 18.0)
Q_MINUS = np.array([1 / 3, 5 / 9, 5 / 9, 5 / 9])
Q_PLUS = np.array([2 / 3, 4 / 9, 4 / 9, 4 / 9])


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)


def on_circle(section):
    """|z2|^2 = 1/3 - |z0|^2 - |z1|^2 below 1e-9: the section point sits on z2 = 0."""
    return np.abs(section[..., 2]) ** 2 < 1e-9


# -- the level, tail magnitudes and the 7-fiber ------------------------------

def test_level_is_read_exactly_off_the_chamber_point():
    # Each partner pair's gap c_k = 1 - (x_1 + x_(k+2)) and the head sphere's
    # R = (1 - sum |c_k|)/2, from the exact chamber point, then rounded once.
    x = CHAMBER_POINT_MINUS
    gaps = {1 - x[0] - x[k] for k in (1, 2, 3)}
    assert gaps == {F(1, 9)}
    (gap,) = gaps
    radius2 = (1 - 3 * gap) / 2
    assert radius2 == F(1, 3)
    assert fb.TAIL_GAP == float(gap) == 1.0 / 9.0
    assert fb.HEAD_RADIUS2 == float(radius2) == 1.0 / 3.0


def test_tail_magnitudes_examples():
    m3, m4, m5 = fb.tail_magnitudes(0.0, S6, S6)
    assert (m3, m4, m5) == pytest.approx((S518, S518, 1 / 3), abs=1e-14)
    m3, m4, m5 = fb.tail_magnitudes(S6, S6, 0.0)
    assert (m3, m4, m5) == pytest.approx((1 / 3, S518, S518), abs=1e-14)
    # both closed forms give (1/9, 1/9, 4/9) for the squared tail here
    m3, m4, m5 = fb.tail_magnitudes(1.0 / math.sqrt(3.0), 0.0, 0.0)
    assert (m3, m4, m5) == pytest.approx((1 / 3, 1 / 3, 2 / 3), abs=1e-14)


def test_tail_magnitudes_two_forms_agree(rng):
    # On the sphere the tail rule agrees with the magnitude system
    # |z3|^2 = (|z0|^2 + |z1|^2 + 4|z2|^2)/3 (cyclic).
    for _ in range(100):
        (z0,), (z1,), (z2,) = fb.random_sphere_triple(rng, 1)
        m3, m4, m5 = fb.tail_magnitudes(z0, z1, z2)
        s0, s1, s2 = abs(z0) ** 2, abs(z1) ** 2, abs(z2) ** 2
        assert m3 == pytest.approx(math.sqrt((s0 + s1 + 4 * s2) / 3), abs=1e-13)
        assert m4 == pytest.approx(math.sqrt((s0 + 4 * s1 + s2) / 3), abs=1e-13)
        assert m5 == pytest.approx(math.sqrt((4 * s0 + s1 + s2) / 3), abs=1e-13)


def test_tail_magnitudes_rejects_off_sphere():
    with pytest.raises(ValueError):
        fb.tail_magnitudes(1.0, 0.0, 0.0)


def test_lift_hits_edge_images():
    triples = [(0.0, S6, S6), (S6, 0.0, S6), (S6, S6, 0.0)]
    for triple, image in zip(triples, fb.EDGE_IMAGES):
        point = fb.lift_to_fiber(*triple)
        expected = np.array([float(v) for v in image])
        assert np.max(np.abs(simplex_moment(point) - expected)) < 1e-12


def test_fiber7_param_reduces_to_lift():
    z0, z1, z2 = 0.1 + 0.2j, 0.3 - 0.1j, None
    s2 = math.sqrt(max(0.0, 1 / 3 - abs(z0) ** 2 - abs(z1) ** 2))
    z2 = s2 * np.exp(0.7j)
    assert np.allclose(fb.fiber7_param(z0, z1, z2, 1.0, 1.0),
                       fb.lift_to_fiber(z0, z1, z2))


def test_fiber7_moment_and_roundtrip(rng):
    for _ in range(300):
        (z0,), (z1,), (z2,) = fb.random_sphere_triple(rng, 1)
        t4, t5 = fb.random_phases(rng, 2)
        point = fb.fiber7_param(z0, z1, z2, t4, t5)
        res = fb.fiber7_residuals(point)
        assert res["moment"] <= 1e-10
        assert res["magnitudes"] <= 1e-10
        assert res["min_tail"] >= 1 / 3 - 1e-12
        assert fb.fiber7_roundtrip_error(point) <= 1e-10


def test_fiber7_torus_equivariance(rng):
    # Scaling the inputs by (tau0..tau2, tau4, tau5) multiplies the image
    # coordinates by (tau0, tau1, tau2, 1, tau4, tau5).
    for _ in range(50):
        (z0,), (z1,), (z2,) = fb.random_sphere_triple(rng, 1)
        t4, t5 = fb.random_phases(rng, 2)
        tau = fb.random_phases(rng, 5)
        left = fb.fiber7_param(tau[0] * z0, tau[1] * z1, tau[2] * z2,
                               tau[3] * t4, tau[4] * t5)
        action = np.array([tau[0], tau[1], tau[2], 1.0, tau[3], tau[4]])
        right = action * fb.fiber7_param(z0, z1, z2, t4, t5)
        assert np.max(np.abs(left - right)) < 1e-10


def test_fiber7_rejects_nonunit_phase():
    with pytest.raises(ValueError):
        fb.fiber7_param(0.0, S6, S6, 2.0, 1.0)


# -- the exact triangle ------------------------------------------------------

def test_triangle_solution_coefficients():
    tri = solve_moment_triangle()
    assert tri.constant == (F(-1, 9), F(-1, 9), F(5, 9), F(2, 3))
    assert tri.direction_x4 == (F(0), F(1), F(-1), F(-1))
    assert tri.direction_x5 == (F(1), F(0), F(-1), F(-1))


def test_triangle_vertices_and_images():
    from grassmoment.moment import weight_map

    tri = solve_moment_triangle()
    assert tri.vertices["X01"] == (F(0), F(0), F(1, 3), F(4, 9), F(1, 9), F(1, 9))
    assert tri.vertices["X02"] == (F(0), F(1, 3), F(0), F(1, 9), F(4, 9), F(1, 9))
    assert tri.vertices["X12"] == (F(1, 3), F(0), F(0), F(1, 9), F(1, 9), F(4, 9))
    q = tuple(fb.CHAMBER_POINT_MINUS)
    # x0 + x1 + x2 is q1, the head sphere's radius^2 R, on the whole triangle
    assert all(sum(point[:3]) == q[0] for point in [*tri.vertices.values(), tri.point(F(2, 9), F(1, 7))])
    for point in list(tri.vertices.values()) + [
            tri.point(F(2, 9), F(2, 9)),
            tri.point_from_head(F(1, 12), F(1, 8)),
            tri.edge_point(0, F(1, 7)),
            tri.edge_point(1, F(2, 9)),
            tri.edge_point(2, F(1, 5))]:
        assert weight_map(point, 4) == q


def test_triangle_edge_zero_coordinates():
    tri = solve_moment_triangle()
    for edge in range(3):
        point = tri.edge_point(edge, F(1, 8))
        assert point[edge] == 0
    with pytest.raises(ValueError, match=re.escape("edge parameter must lie in [0, 1/3]")):
        tri.edge_point(0, F(1, 2))
    with pytest.raises(ValueError):
        tri.edge_point(3, F(1, 8))


def test_triangle_edge_curve_crossing():
    # EDGE_IMAGES is read off the triangle; pinned here as the table worked out by hand.
    assert fb.EDGE_IMAGES == (
        (F(0), F(1, 6), F(1, 6), F(5, 18), F(5, 18), F(1, 9)),
        (F(1, 6), F(0), F(1, 6), F(5, 18), F(1, 9), F(5, 18)),
        (F(1, 6), F(1, 6), F(0), F(1, 9), F(5, 18), F(5, 18)),
    )


def test_triangle_region_matches_inequalities():
    tri = solve_moment_triangle()
    ninth = F(1, 9)
    for a in range(10):
        for b in range(10):
            x4, x5 = F(a, 12), F(b, 12)
            inside = x4 >= ninth and x5 >= ninth and x4 + x5 <= F(5, 9)
            assert all(v >= 0 for v in tri.point(x4, x5)) == inside


# -- the edge curve ----------------------------------------------------------

def test_curve_residual_zeros():
    for x0, x1 in ((0.0, 1 / 6), (1 / 6, 1 / 6)):
        assert fb.curve_residual(x0, x1) < 1e-16
        assert fb.curve_closure_residual(x0, x1) < 1e-16


def product_form_curve(x0, x1):
    """The edge curve's two residuals from the products |z0|^2|z5|^2 = x0 (x0 + 1/9),
    |z2|^2|z3|^2 = (1/3 - x0 - x1)(4/9 - x0 - x1) and |z1|^2|z4|^2 = x1 (x1 + 1/9)."""
    a = math.sqrt(x0 * (x0 + 1 / 9))
    b = math.sqrt(max(0.0, 1 / 3 - x0 - x1) * max(0.0, 4 / 9 - x0 - x1))
    c = math.sqrt(x1 * (x1 + 1 / 9))
    return abs(a + b - c), min(abs(a + s1 * b + s2 * c) for s1 in (1, -1) for s2 in (1, -1))


def test_curve_matches_the_product_form():
    draws = np.random.default_rng(2026).uniform(0.0, 1 / 3, size=(600, 2))
    grid = [(i / 36, j / 36) for i in range(13) for j in range(13 - i)]
    for x0, x1 in [*draws[draws.sum(axis=1) <= 1 / 3].tolist(), *grid]:
        fixed, closure = product_form_curve(x0, x1)
        assert abs(fb.curve_residual(x0, x1) - fixed) <= 1e-15
        assert abs(fb.curve_closure_residual(x0, x1) - closure) <= 1e-15


def test_curve_fixed_sign_branch_fails_where_closure_holds():
    # At (1/6, 0) the fixed sign arrangement is off by a sign flip, so
    # its residual is 2*sqrt(5/108) while the closure residual is 0.
    fixed = fb.curve_residual(1 / 6, 0.0)
    assert fixed == pytest.approx(2.0 * math.sqrt(5.0 / 108.0), abs=1e-12)
    assert fb.curve_closure_residual(1 / 6, 0.0) < 1e-15


def test_curve_domain_errors():
    with pytest.raises(ValueError, match=r"x0, x1 >= 0"):
        fb.curve_residual(-0.1, 0.0)
    with pytest.raises(ValueError, match=re.escape(f"x0 + x1 <= {fb.HEAD_RADIUS2}, ")):
        fb.curve_residual(0.3, 0.3)


# -- surface and sphere sections --------------------------------------------

#: The points of S^3 over the three edge circles z0 = 0, z1 = 0 and z2 = 0:
#: the Hopf circles v = 0, u = 0 and u = v.
HOPF_CIRCLE_POINTS = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]) / np.sqrt([[1.0], [1.0], [2.0]])


def turned(section, lam):
    """The sphere section with its head turned by the common phase lam, through S^3."""
    return fb.from_three_sphere(lam * fb.to_three_sphere(section))


def test_surface_section_circle_case():
    section = fb.surface_circle(0.0)
    assert section[0] == pytest.approx(section[1])
    assert abs(section[0] - S6) < 1e-12
    assert on_circle(section)


def test_surface_section_vanishing_first_coordinate():
    # Solve middle(r1) = big1(r1) for the edge case r0 = 0; the root is
    # |z1|^2 = 1/6, the modulus of z1 on the edge circle where z0 = 0.
    def gap(r1):
        s2 = 1 / 3 - r1 * r1
        return math.sqrt(s2 * (s2 + 1 / 9)) - r1 * math.sqrt(r1 * r1 + 1 / 9)

    lo, hi = 0.3, 0.5
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0:
            lo = mid
        else:
            hi = mid
    r1 = 0.5 * (lo + hi)
    assert r1 ** 2 == pytest.approx(1 / 6, abs=1e-9)
    section = fb.edge_fibers()[0].base
    assert section[0] == 0 and abs(abs(section[1]) - r1) <= 1e-9
    assert plucker_relation_residual(section) <= 1e-12
    expected = np.array([float(v) for v in fb.EDGE_IMAGES[0]])
    assert np.max(np.abs(simplex_moment(section) - expected)) < 1e-9


def test_surface_sampler_residuals(rng):
    sections = fb.sample_for_kind("m2", rng, 3000)
    assert sections.shape == (3000, 6)
    assert np.max(plucker_relation_residual(sections)) <= 1e-10
    assert not np.any(on_circle(sections))
    assert np.min(np.abs(sections[:, 0])) > 0.0 and np.min(np.abs(sections[:, 2])) > 0.0
    # the surface section's z2 is real and nonnegative, to rounding
    assert np.max(np.abs(sections[:, 2].imag)) <= 1e-15 and np.min(sections[:, 2].real) > 0.0


def test_surface_circle_structure():
    section = fb.surface_circle(0.8)
    phase = complex(math.cos(0.8), math.sin(0.8))
    assert section[0] == pytest.approx(phase / math.sqrt(6))
    assert section[0] == pytest.approx(section[1])
    m2, m3, m4, m5 = section[2:].real
    assert (m2, m3) == pytest.approx((0.0, 1 / 3), abs=1e-12)
    assert m4 == pytest.approx(S518) and m5 == pytest.approx(S518)


def test_sphere_section_rotation_invariance(rng):
    section = fb.sample_for_kind("m3", rng, 1)[0]
    rotated = turned(section, np.exp(1.3j))
    assert plucker_relation_residual(rotated) <= 1e-10
    assert np.max(np.abs(rotated[:3] - np.exp(1.3j) * section[:3])) <= 1e-15
    assert np.max(np.abs(rotated[3:] - section[3:])) <= 1e-15
    assert np.max(np.abs(turned(section, 1.0) - section)) <= 1e-15


def test_sphere_section_circle_point():
    coords = turned(fb.surface_circle(0.7), np.exp(1.3j))
    phase = np.exp(2.0j)
    assert coords[0] == pytest.approx(phase / math.sqrt(6))
    assert coords[1] == pytest.approx(phase / math.sqrt(6))
    assert abs(coords[2]) < 1e-12
    assert coords[3] == pytest.approx(1 / 3)
    assert coords[4] == pytest.approx(S518) and coords[5] == pytest.approx(S518)


# -- torus parametrizations of the 5-fiber -----------------------------------

def test_surface_param_identity(rng):
    section = fb.sample_for_kind("m2", rng, 1)[0]
    point = fb.surface_torus_param(section, np.ones(3))
    assert np.allclose(point, section)
    assert fb.surface_roundtrip_error(point.tolist()) <= 1e-10


def test_surface_param_invariants(rng):
    for section in fb.sample_for_kind("m2", rng, 200):
        phases = fb.random_phases(rng, 3)
        point = fb.surface_torus_param(section, phases)
        res = fb.fiber5_residuals(point)
        assert res["plucker"] <= 1e-10
        assert res["surface"] <= 1e-10
        assert res["moment"] <= 1e-10
        assert fb.surface_roundtrip_error(point) <= 1e-10


def test_surface_preimage_on_circle(rng):
    section = fb.surface_circle(1.1)
    phases = fb.random_phases(rng, 3)
    point = fb.surface_torus_param(section, phases)
    recovered, t = fb.surface_torus_preimage(point)
    assert abs(t[2] - 1.0) < 1e-12  # the z2 = 0 branch pins t3 = 1
    rebuilt = fb.surface_torus_param(recovered, t)
    assert np.max(np.abs(rebuilt - point)) < 1e-10


def test_torus_preimages_reject_points_off_quadric(rng):
    # A generic 7-fiber point has its head on the sphere but is off the
    # plane quadric, so neither preimage is a section point.
    point = fb.sample_fiber7(rng, 1)[0]
    assert plucker_relation_residual(point) > 1e-3
    with pytest.raises(ValueError, match="surface equation"):
        fb.surface_torus_preimage(point)
    with pytest.raises(ValueError, match="surface equation"):
        fb.sphere_torus_preimage(point)


def test_sphere_param_preserves_quadric_for_distinct_phases(rng):
    # Regression guard: the torus weights on z4 and z5 must pair with t2
    # and t1 respectively, otherwise the quadric breaks.
    section = fb.sample_for_kind("m3", rng, 1)[0]
    point = fb.sphere_torus_param(section, np.exp(0.9j), np.exp(-1.7j))
    assert plucker_relation_residual(point) <= 1e-12


def test_sphere_param_invariants(rng):
    for section in fb.sample_for_kind("m3", rng, 200):
        t1, t2 = fb.random_phases(rng, 2)
        point = fb.sphere_torus_param(section, t1, t2)
        res = fb.fiber5_residuals(point)
        assert res["plucker"] <= 1e-10
        assert res["moment"] <= 1e-10
        assert fb.sphere_roundtrip_error(point) <= 1e-10
    assert fb.sphere_roundtrip_error(point.tolist()) <= 1e-10


def test_sphere_param_injectivity(rng):
    t1, t2 = fb.random_phases(rng, (2, 300))
    points = fb.sphere_torus_param(fb.sample_for_kind("m3", rng, 300), t1, t2)
    flattened = points.reshape(len(points), -1)
    gram = np.abs(flattened.conj() @ flattened.T)
    np.fill_diagonal(gram, 0.0)
    norms = np.linalg.norm(flattened, axis=1)
    # distinct parameters give distinct points: no off-diagonal pair collides
    cosines = gram / np.outer(norms, norms)
    assert np.max(cosines) < 1.0 - 1e-12


# -- projections -------------------------------------------------------------

def test_base_projection_collapses_circle():
    target = normalize_projective([1.0, 1.0])
    for psi in np.linspace(0, 2 * np.pi, 17):
        image = fb.base_projection(fb.surface_circle(psi))
        assert projective_distance(image, target) <= 1e-10


def test_base_projection_vanishing_z1():
    section, flipped = (fiber.base for fiber in fb.edge_fibers()[:2])
    # on the first edge circle z0 = 0, so the image is (c : 0) = (1 : 0)
    image = fb.base_projection(section)
    assert projective_distance(image, normalize_projective([1.0, 0.0])) <= 1e-12
    image = fb.base_projection(flipped)
    assert projective_distance(image, normalize_projective([0.0, 1.0])) <= 1e-12


def test_base_projection_injective_off_circle(rng):
    first, second = (fb.sample_for_kind("m2", rng, 300) for _ in range(2))
    distinct = np.abs(first[:, 0] - second[:, 0]) + np.abs(first[:, 1] - second[:, 1]) >= 1e-8
    distances = projective_distance(fb.base_projection(first), fb.base_projection(second))
    assert np.count_nonzero(distinct) == 300 and np.min(distances) > 1e-12


def test_base_projection_degenerate_error():
    with pytest.raises(ValueError):
        fb.base_projection(np.zeros(6, dtype=complex))


def hopf_projection(point):
    """The Hopf-style projection to CP^2, (z1|z4| : z0|z5| : z2|z3|): the
    oracle of to_three_sphere's CP^1 class.  On section points the surface
    equation makes it lie on the line c0 - c1 - c2 = 0."""
    z = np.asarray(point)
    return normalize_projective(z[..., [1, 0, 2]] * np.abs(z[..., [4, 5, 3]]))


def test_hopf_projection_line(rng):
    c = hopf_projection(fb.sample_for_kind("m3", rng, 100))
    assert np.max(np.abs(c[:, 0] - c[:, 1] - c[:, 2])) <= 1e-10


def test_hopf_projection_circle_point():
    image = hopf_projection(turned(fb.surface_circle(0.4), np.exp(0.9j)))
    assert projective_distance(image, normalize_projective([1.0, 1.0, 0.0])) <= 1e-10


def test_hopf_projection_phase_invariant(rng):
    section = fb.sample_for_kind("m3", rng, 1)[0]
    assert projective_distance(hopf_projection(section),
                               hopf_projection(turned(section, np.exp(0.77j)))) <= 1e-10


def test_three_sphere_map(rng):
    circle = fb.surface_circle(0.0)
    g = fb.to_three_sphere(circle)
    assert np.allclose(g, [1 / math.sqrt(2), 1 / math.sqrt(2)])
    section = fb.edge_fibers()[1].base  # z1 = 0
    g = fb.to_three_sphere(section)
    assert abs(g[0]) < 1e-12 and abs(abs(g[1]) - 1.0) < 1e-12
    g = fb.to_three_sphere(fb.sample_for_kind("m3", rng, 100))
    assert np.max(np.abs(np.linalg.norm(g, axis=-1) - 1.0)) <= 1e-12


def test_three_sphere_equivariance_and_diagram(rng):
    # Turning the head coordinates by lam turns the S^3 point by lam, both ways.
    sections = fb.sample_for_kind("m3", rng, 100)
    lam = np.exp(1j * rng.uniform(0, 2 * np.pi, size=(100, 1)))
    heads_turned = np.concatenate([lam * sections[:, :3], sections[:, 3:]], axis=-1)
    assert np.max(np.abs(fb.to_three_sphere(heads_turned) - lam * fb.to_three_sphere(sections))) <= 1e-10
    assert np.max(np.abs(fb.from_three_sphere(lam * fb.to_three_sphere(sections)) - heads_turned)) <= 1e-10
    # the CP^1 class of the 3-sphere image is the truncated Hopf image
    hopf = hopf_projection(sections)
    assert np.max(projective_distance(fb.to_three_sphere(sections), hopf[:, :2])) <= 1e-10


# -- the inverse of the 3-sphere map -------------------------------------------

def test_three_sphere_round_trips():
    # S^3 -> section -> S^3 on uniform points, the Hopf-circle points, their
    # negatives and points with one small component, where the cancelling form
    # r^2 = (sqrt(c^2 + 4p^2) - c)/2 would lose 4.6e-13; section -> S^3 ->
    # section on sampled sphere sections.
    rng = np.random.default_rng(32)
    small = np.array([[math.sqrt(1.0 - 1e-12), 1e-6], [1e-6j, math.sqrt(1.0 - 1e-12)], [1.0, 1e-12]])
    g = np.concatenate([fb.random_three_sphere(rng, 20000), HOPF_CIRCLE_POINTS, -HOPF_CIRCLE_POINTS, small])
    sections = fb.from_three_sphere(g)
    assert np.max(np.abs(fb.to_three_sphere(sections) - g)) <= 1e-14
    assert np.max(np.abs(np.sum(np.abs(sections[:, :3]) ** 2, axis=-1) - 1 / 3)) <= 1e-15
    assert np.max(plucker_relation_residual(sections)) <= 1e-15
    spheres = fb.sample_for_kind("m3", rng, 5000)
    assert np.max(np.abs(fb.from_three_sphere(fb.to_three_sphere(spheres)) - spheres)) <= 1e-14


def test_edge_circle_bases_are_the_hopf_circle_images():
    # The hand-written bases of edge_fibers are the independent side.
    bases = np.array([fiber.base for fiber in fb.edge_fibers()])
    assert np.max(np.abs(fb.from_three_sphere(HOPF_CIRCLE_POINTS) - bases)) <= 2e-16


def test_the_z1_zero_edge_point_is_a_section_point():
    # Here the surface equation's triangle of products |z0||z5|, |z2||z3|,
    # |z1||z4| is degenerate (the third is 0, the first two equal), the point
    # where an angle closing that triangle is worst conditioned.
    point = fb.from_three_sphere([0.0, 1.0])
    assert point[1] == 0
    assert abs(abs(point[0]) ** 2 - 1 / 6) <= 1e-16
    assert plucker_relation_residual(point) <= 1e-15
    assert np.max(np.abs(simplex_moment(point) - np.array(fb.EDGE_IMAGES[1], dtype=float))) <= 1e-15


@pytest.mark.parametrize("g", [[1.0, 1.0], [0.6, 0.0], [float("nan"), 0.0], [1.0, 0.0, 0.0]],
                         ids=["long", "short", "nan", "three-coordinates"])
def test_from_three_sphere_refuses_points_off_the_sphere(g):
    with pytest.raises(ValueError, match="unit sphere in C\\^2"):
        fb.from_three_sphere(g)


# -- edge fibers -------------------------------------------------------------

def test_edge_fiber_bases():
    fibers = fb.edge_fibers()
    third = 1 / 3
    literal = np.array([[0.0, S6, S6, S518, S518, third], [S6, 0.0, -S6, S518, third, S518],
                        [S6, S6, 0.0, third, S518, S518]])
    assert np.max(np.abs(np.array([fiber.base for fiber in fibers]) - literal)) <= 1e-16
    for fiber in fibers:
        expected = np.array([float(v) for v in fiber.image])
        assert np.max(np.abs(simplex_moment(fiber.base) - expected)) < 1e-12
        assert plucker_relation_residual(fiber.base) <= 1e-12
        assert fb.moment_residual(fiber.base, Q_MINUS) <= 1e-12


def test_edge_fiber_samples(rng):
    for fiber in fb.edge_fibers():
        for _ in range(25):
            point = fiber.sample(fb.random_phases(rng, 3))
            res = fb.fiber5_residuals(point)
            assert res["plucker"] <= 1e-12
            assert res["moment"] <= 1e-10
            expected = np.array([float(v) for v in fiber.image])
            assert np.max(np.abs(simplex_moment(point) - expected)) < 1e-10


def test_edge_fiber_exponent_structure():
    # The torus weights must cancel on the two nonvanishing quadric
    # monomials so the relation survives along the whole orbit, and the
    # three parameters must act with full rank.
    quadric_pairs = ((0, 5), (2, 3), (1, 4))
    for k, fiber in enumerate(fb.edge_fibers()):
        active = [(a, b) for a, b in quadric_pairs if k not in (a, b)]
        sums = {tuple(fiber.exponents[a] + fiber.exponents[b]) for a, b in active}
        assert sums == {(0, 0, 0)}
        assert np.linalg.matrix_rank(fiber.exponents) == 3


# -- complete intersection ---------------------------------------------------

def test_equipotential_values_symbolic():
    # Independent derivation: with s1 = |a1|^2, s3 = |a3|^2, d = |a1a4 - a2a3|^2,
    # the chart system fixes |a4|^2 and |a2|^2 and forces (f1, f2, f3) = (0, -1, 0).
    import sympy as sp

    s1, s3, d = sp.symbols("s1 s3 d", nonnegative=True)
    s4 = (s3 + 4 * s1 + d) / 3
    s2 = (4 * s3 + s1 + d) / 3
    f1 = s1 + s2 - s3 - s4
    f2 = 5 * s1 + s3 - 4 * s4
    f3 = 4 * s1 + s3 - 3 * s4 + d
    assert sp.simplify(f1) == 0
    assert sp.simplify(f3) == 0
    # f2 needs the chart normalization s3 + s1 + 4d = 3:
    f2_on_surface = sp.simplify(f2.subs(s3, 3 - s1 - 4 * d))
    assert f2_on_surface == -1


def test_complete_intersection_at_edge_bases():
    for fiber in fb.edge_fibers():
        chart = chart_array(fiber.base)
        f1, f2, f3 = fb.complete_intersection_f(chart)
        assert abs(f1) <= 1e-10 and abs(f2 + 1) <= 1e-10 and abs(f3) <= 1e-10
        assert fb.jacobian_rank(chart) == 3


def test_complete_intersection_origin():
    f1, f2, f3 = fb.complete_intersection_f(np.zeros(4))
    assert (f1, f2, f3) == (0.0, 0.0, 0.0)


def test_complete_intersection_on_samples(rng):
    for point in fb.sample_fiber5(rng, count=300):
        chart = chart_array(point)
        f1, f2, f3 = fb.complete_intersection_f(chart)
        assert max(abs(f1), abs(f2 + 1), abs(f3)) <= 1e-9
        assert fb.jacobian_rank(chart) == 3


def test_jacobian_against_finite_differences(rng):
    a = chart_array(np.array([fb.sample_fiber5(rng, 1)[0] for _ in range(25)]))
    batch = fb.ci_jacobian_fd(a)
    assert batch.shape == (25, 3, 8)
    assert np.max(np.abs(fb.ci_jacobian(a) - batch)) <= 1e-6
    assert all(np.array_equal(fb.ci_jacobian_fd(point), row) for point, row in zip(a, batch))
    with pytest.raises(ValueError, match="four complex chart coordinates"):
        fb.ci_jacobian_fd(np.zeros((2, 5)))


def test_jacobian_rank_off_the_surface():
    # The origin has f = (0, 0, 0), off (0, -1, 0): it gets its rank, the zero
    # matrix's 0; judging the f-values is certify's 'f_values' check.
    assert fb.jacobian_rank(np.zeros(4)) == 0


def gram_entries(jacobians):
    """Entries 00, 11, 22, 01, 02, 12 of J J^T for (..., 3, n) matrices J, stacked first, by matmul."""
    gram = jacobians @ jacobians.swapaxes(-1, -2)
    return np.stack([gram[..., i, j] for i, j in [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)]])


def test_chart_gram_expands_the_gram_matrix_of_the_chart_quadrics():
    # The Gram matrix of the chart Jacobian depends only on r_k = |a_k|^2 and rho = |C|^2: sympy
    # differentiates the chart quadrics in the real coordinates a = u + i v and expands J J^T, which
    # must equal _chart_gram's closed form entry by entry, at today's weights and at symbolic ones.
    import sympy as sp

    u, v = sp.symbols("u1:5", real=True), sp.symbols("v1:5", real=True)
    a = [x + sp.I * y for x, y in zip(u, v)]
    cross = a[0] * a[3] - a[1] * a[2]
    r = np.array([x * x + y * y for x, y in zip(u, v)], dtype=object)
    rho = sp.expand(sp.re(cross) ** 2 + sp.im(cross) ** 2)
    for weights in (fb._CI_WEIGHTS, np.array(sp.symbols("w0:3_0:4")).reshape(3, 4)):
        f = [sum(weights[i, k] * r[k] for k in range(4)) + (rho if i == 2 else 0) for i in range(3)]
        jacobian = sp.Matrix([[sp.diff(fi, x) for x in (*u, *v)] for fi in f])
        gram = jacobian * jacobian.T
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fb, "_CI_WEIGHTS", weights)
            closed = fb._chart_gram(r, rho)
        for entry, (i, j) in zip(closed, [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)]):
            assert sp.expand(sp.nsimplify(entry) - gram[i, j]) == 0


def test_chart_gram_matches_the_jacobian_gram_in_floats(monkeypatch):
    # To 1e-14 of each matrix's largest entry: on seeded fiber points, on Gaussian chart points off
    # the fiber, and with the second quadric's weights shifted (the _CI_WEIGHTS mutant of test_acceptance).
    rng = np.random.default_rng(41)
    fiber = chart_array(fb.sample_fiber5(rng, 2000))
    gaussian = rng.standard_normal((2000, 4)) + 1j * rng.standard_normal((2000, 4))
    shifted = fb._CI_WEIGHTS.copy()
    shifted[1, 3] = -3.0
    for weights in (fb._CI_WEIGHTS, shifted):
        monkeypatch.setattr(fb, "_CI_WEIGHTS", weights)
        for a in (fiber, gaussian):
            expected = gram_entries(fb.ci_jacobian(a))
            closed = fb._chart_gram(*fb._chart_invariants(a)[1:])
            assert closed.shape == (6, 2000)
            assert np.max(np.abs(closed - expected) / np.max(expected[:3], axis=0)) <= 1e-14


RATIOS = (1.0, 1e-2, 1e-4, 2e-6, 5e-7, 1e-9, 0.0)


def spectrum_matrices(sigma, rng, count=20):
    """3 x 8 matrices U diag(scale * sigma) V^T with random orthonormal U, V, scales 1e-3 to 1e3."""
    scales = np.repeat(10.0 ** np.arange(-3, 4), count)
    u = np.linalg.qr(rng.standard_normal((len(scales), 3, 3)))[0]
    v = np.linalg.qr(rng.standard_normal((len(scales), 8, 3)))[0]
    s = scales[:, None] * np.array(sigma, dtype=float)
    return u * s[:, None, :] @ v.swapaxes(-1, -2)


def conditioned_matrices(ratio, rng, count=20):
    """spectrum_matrices with sigma = (1, (1 + ratio) / 2, ratio)."""
    return spectrum_matrices([1.0, (1.0 + ratio) / 2.0, ratio], rng, count)


@pytest.mark.parametrize("ratio", RATIOS)
def test_gram_singular_values_decide_ranks_like_the_svd(ratio):
    # The chart Jacobian's singular values come from its 3 x 3 Gram matrix.
    # sigma3/sigma1 then carries a relative error of about eps/(sigma3/sigma1)^2
    # and a true zero reads up to about 1.6e-8, against the rank threshold 1e-6.
    jacobians = conditioned_matrices(ratio, np.random.default_rng(23))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gram = fb._gram_singular_values(gram_entries(jacobians))
    reference = np.linalg.svd(jacobians, compute_uv=False)
    assert not np.any(np.isnan(gram))
    assert np.array_equal(fb._rank(gram, 1e-6), fb._rank(reference, 1e-6))
    margin, expected = gram[:, 2] / gram[:, 0], reference[:, 2] / reference[:, 0]
    if ratio in (0.0, 1e-9):
        assert np.all(margin < 1e-7) and np.all(fb._rank(gram, 1e-6) == 2)
    else:
        bound = {1.0: 1e-12, 1e-2: 1e-10, 1e-4: 1e-6}.get(ratio, 1e-2)
        assert np.max(np.abs(margin - expected) / expected) <= bound
        assert np.all(fb._rank(gram, 1e-6) == (3 if ratio > 1e-6 else 2))


#: Spectra where closed forms for 3 x 3 eigenvalues lose accuracy: repeated, nearly repeated and
#: vanishing singular values.
SPECTRA = ((1.0, 1.0, 1.0), (1.0, 1.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1e-9, 1e-9), (1.0, 1.0, 1.0 - 1e-9),
           (1.0, 1.0, 5e-7))


@pytest.mark.parametrize("sigma", SPECTRA)
def test_gram_singular_values_at_repeated_and_vanishing_singular_values(sigma):
    # The eigenvalue the closed form sets apart must be the simple one: at (1, 1, 0) the largest is
    # double and its eigenvector undefined.  Each ratio sigma_k/sigma_1 keeps the bound of
    # test_gram_singular_values_decide_ranks_like_the_svd for that ratio, and a true zero reads below 1e-7.
    jacobians = spectrum_matrices(sigma, np.random.default_rng(29))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gram = fb._gram_singular_values(gram_entries(jacobians))
    reference = np.linalg.svd(jacobians, compute_uv=False)
    assert not np.any(np.isnan(gram)) and np.all(np.diff(gram, axis=-1) <= 0.0)
    assert np.array_equal(fb._rank(gram, 1e-6), fb._rank(reference, 1e-6))
    for k in (1, 2):
        ratio = sigma[k] / sigma[0]
        margin, expected = gram[:, k] / gram[:, 0], reference[:, k] / reference[:, 0]
        if ratio < 1e-7:
            assert np.all(margin < 1e-7)
        else:
            bound = 1e-12 if ratio > 0.5 else 1e-2
            assert np.max(np.abs(margin - expected) / expected) <= bound


def test_gram_singular_values_of_the_zero_matrix():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(fb._gram_singular_values(gram_entries(np.zeros((2, 3, 8)))), np.zeros((2, 3)))
    assert np.array_equal(fb._rank(np.zeros((2, 3)), 1e-6), [0, 0])


def test_certify_ranks_match_an_svd_reference():
    points = fb.sample_fiber5(np.random.default_rng(2301), count=2000)
    reference = np.linalg.svd(fb.ci_jacobian(chart_array(points)), compute_uv=False)
    expected = reference[:, 2] / reference[:, 0]
    # the median threshold sits between two margins and fails half the points
    for rank_tol in (1e-6, float(np.median(expected))):
        batch = fb.certify("mq5", points, {"rank_tol": rank_tol})
        margin, tol, ok = batch.checks["rank"]
        assert tol == rank_tol
        assert np.array_equal(batch.ranks, np.sum(reference > rank_tol * reference[:, :1], axis=-1))
        assert np.array_equal(ok, batch.ranks == 3)
        assert np.max(np.abs(margin - expected) / expected) <= 1e-12
    assert np.count_nonzero(ok) == 1000 and np.min(expected) > 1e-2


def test_chart_coordinates_never_degenerate(rng):
    # On fiber points a2 and a4 never vanish and no two chart coordinates
    # vanish simultaneously.
    for _ in range(100):
        a = chart_array(fb.sample_fiber5(rng, 1)[0])
        assert abs(a[1]) > 1e-6 and abs(a[3]) > 1e-6
        for i in range(4):
            for j in range(i + 1, 4):
                assert abs(a[i]) ** 2 + abs(a[j]) ** 2 > 1e-12


def test_chart_consistency_with_plucker_chart(rng):
    from grassmoment.plucker import from_chart, plucker_embed

    point = fb.sample_fiber5(rng, 1)[0]
    chart = chart_array(point)
    rebuilt = plucker_embed(from_chart(chart))
    assert projective_distance(rebuilt, point) <= 1e-10
    back = chart_array(plucker_embed(from_chart(chart)))
    assert max(abs(a - b) for a, b in zip(back, chart)) <= 1e-10


# -- transition and coverage -------------------------------------------------

def test_transition_determinant_and_cocycle(monkeypatch):
    # The monomial maps t -> t^M and t -> t^(M^-1), composed in both orders on symbolic torus
    # coordinates, are the identity, which the integer product M M^-1 = I decides without a sample.
    assert regularity.transition_check() == (-1, 0, True)
    assert [type(value) for value in regularity.transition_check()] == [int, int, bool]
    m, inverse = regularity.TRANSITION_EXPONENTS, regularity.TRANSITION_EXPONENTS_INVERSE
    t = list(sympy.symbols("t1:4", nonzero=True))

    def transition(matrix, t):
        return [sympy.Mul(*(tj ** e for tj, e in zip(t, row))) for row in matrix]

    assert transition(inverse, transition(m, t)) == transition(m, transition(inverse, t)) == t
    assert sympy.Matrix(m).det() == -1 and sympy.Matrix(m).inv() == sympy.Matrix(inverse)
    monkeypatch.setattr(regularity, "TRANSITION_EXPONENTS_INVERSE", ((1, 0, 0), (1, -1, 1), (0, 0, 1)))
    assert regularity.transition_check() == (-1, 1, False)


def test_chart_coverage_classification(rng):
    fibers = fb.edge_fibers()
    cov0 = fb.chart_coverage(fibers[0].base)
    assert cov0.in_chart_m0 and not cov0.in_chart_m1
    assert np.array_equal(np.abs(fibers[0].base[:3]) <= 1e-10, [True, False, False])
    cov1 = fb.chart_coverage(fibers[1].base)
    assert cov1.in_chart_m1 and not cov1.in_chart_m0
    assert np.array_equal(np.abs(fibers[1].base[:3]) <= 1e-10, [False, True, False])
    for _ in range(50):
        point = fb.sample_fiber5(rng, 1)[0]
        cov = fb.chart_coverage(point)
        assert cov.ok and cov.in_chart_m0 and cov.in_chart_m1
        assert np.min(np.abs(point[3:])) > 1 / 3 - 1e-9


# -- tangent dimensions -------------------------------------------------------

def test_tangent_dimensions(rng):
    for _ in range(20):
        assert fb.tangent_fiber_dimension(fb.sample_fiber7(rng, 1)[0]) == 7
        assert fb.tangent_fiber_dimension(fb.sample_fiber5(rng, 1)[0], include_quadric=True) == 5


def gaussian_integers(rng, shape):
    """Entries in {-2..2} + i{-2..2}, about half of them 0."""
    values = rng.integers(-2, 3, shape) + 1j * rng.integers(-2, 3, shape)
    return np.where(rng.random(shape) < 0.5, 0, values)


def plucker_minors(planes):
    """The six 2 x 2 minors, in pairs_lex order, of (N, 2, 4) plane matrices."""
    u, v = planes[:, 0], planes[:, 1]
    return np.stack([u[:, i - 1] * v[:, j - 1] - u[:, j - 1] * v[:, i - 1] for i, j in pairs_lex(4)],
                    axis=-1)


def test_tangent_dimension_is_the_exact_orbit_codimension():
    """The float tangent dimension against the exact one at every orbit
    dimension: with Gaussian-integer coordinates the support is exact, and
    the fiber dimension is 10 - r on CP^5 and 8 - r on G(4,2), where r =
    orbit_dimension(support) is the rank of the moment map's differential.
    The products of small Gaussian integers are exact in floating point, so
    the Plücker minors have exact supports too."""
    rng = np.random.default_rng(16)
    general = gaussian_integers(rng, (5000, 6))
    minors = plucker_minors(gaussian_integers(rng, (5000, 2, 4)))
    rank = functools.cache(lambda support: orbit_dimension(support, 4))
    for points, quadric, top in ((general, False, 10), (minors, True, 8)):
        points = points[np.any(points != 0, axis=-1)]
        expected = [top - rank(tuple(np.flatnonzero(z).tolist())) for z in points]
        dims = fb.tangent_fiber_dimension(points, include_quadric=quadric)
        assert dims.tolist() == expected
        counts = collections.Counter(expected)
        assert set(counts) == set(range(top - 3, top + 1))
        assert min(counts.values()) >= 400


def test_constraint_rows_match_finite_differences():
    """The rows whose rank gives the tangent dimension against central differences
    of the constraints, at seeded 5-fiber points and at unit-normalized Plücker
    images of seeded Gaussian-integer planes, every orbit dimension among them."""
    rng = np.random.default_rng(91)
    minors = plucker_minors(gaussian_integers(rng, (400, 2, 4)))
    minors = minors[np.any(minors != 0, axis=-1)]
    points = np.concatenate([fb.sample_fiber5(rng, 200),
                             minors / np.linalg.norm(minors, axis=-1, keepdims=True)])
    rows = fb._constraint_rows(points, include_quadric=True)
    assert rows.shape == (len(points), 7, 12)
    assert fb.constraint_fd_gap(points) <= 1e-8
    # The oracle itself, at unit points: the moment image, |z|^2 = 1 and the quadric.
    values = fb.constraint_values(np.concatenate([points.real, points.imag], axis=-1))
    assert np.allclose(values[:, :4], hypersimplex_moment(points, 4)) and np.allclose(values[:, 4], 1.0)
    assert np.allclose(np.abs(values[:, 5] + 1j * values[:, 6]), plucker_relation_residual(points))
    assert np.array_equal(fb._constraint_rows(points, include_quadric=False), rows[:, :5])


# -- the symmetries S_4 x <star> --------------------------------------------

def _quadric(z):
    return z[..., 0] * z[..., 5] + z[..., 2] * z[..., 3] - z[..., 1] * z[..., 4]


def _star(z):
    """The symmetry `fiber --orbit plus` applies."""
    return fb.symmetry_images([regularity.STAR], z)


def test_symmetries_keep_the_quadric_up_to_one_sign():
    # Gaussian-integer vectors: every product and sum below is an integer under 2^53, so exact.
    re, im = np.random.default_rng(38).integers(-40, 41, size=(2, 200, 6))
    z, value = re + 1j * im, _quadric(re + 1j * im)
    assert np.all(value != 0) and np.array_equal(value, np.round(value))
    assert regularity.SYMMETRIES[0] == (tuple(range(4)), False) and len(set(regularity.SYMMETRIES)) == 48
    for g in regularity.SYMMETRIES:
        moved = _quadric(fb.symmetry_images([g], z))
        assert np.array_equal(moved, value) or np.array_equal(moved, -value), g
        source, sign = regularity.pair_table(g)
        assert sorted(source) == list(range(6)) and set(sign) <= {1, -1}


def test_symmetries_carry_q_minus_into_every_chamber():
    images = {regularity.classify_point(regularity.act_on_level(g, CHAMBER_POINT_MINUS), 4)
              for g in regularity.SYMMETRIES}
    assert len(images) == 8 and all(regular and projective for _, regular, projective in images)
    assert {signs for signs, _, _ in images} == {c.id for c in regularity.enumerate_chambers()}
    for c in regularity.enumerate_chambers():
        assert regularity.act_on_level(c.symmetry, CHAMBER_POINT_MINUS) == c.representative


def test_permutations_keep_each_orbit_and_the_star_exchanges_them():
    orbit_of = {c.id: c.orbit for c in regularity.enumerate_chambers()}
    assert sorted(orbit_of.values()) == ["C+"] * 4 + ["C-"] * 4
    for c in regularity.enumerate_chambers():
        for g in regularity.SYMMETRIES:
            signs, _, _ = regularity.classify_point(regularity.act_on_level(g, c.representative), 4)
            assert (orbit_of[signs] == orbit_of[c.id]) == (not g[1])


def test_q_plus_is_the_star_of_q_minus():
    assert regularity.CHAMBER_POINT_PLUS == regularity.act_on_level(regularity.STAR, CHAMBER_POINT_MINUS)
    assert regularity.CHAMBER_POINT_PLUS == (F(2, 3), F(4, 9), F(4, 9), F(4, 9))
    assert regularity.pair_table(regularity.STAR) == ((5, 4, 3, 2, 1, 0), (1,) * 6)


def test_symmetry_images_move_the_moment_with_the_level(rng):
    z = fb.sample_fiber5(rng, 200)
    for g in regularity.SYMMETRIES:
        moved = fb.symmetry_images([g], z)
        level = np.array(regularity.act_on_level(g, CHAMBER_POINT_MINUS), dtype=float)
        assert np.max(fb.moment_residual(moved, level)) <= 1e-12
        assert np.max(plucker_relation_residual(normalize_projective(moved))) <= 1e-12
    # a batch of several symmetries moves row i by the (i mod k)-th, a point (6,) by the first
    symmetries = regularity.SYMMETRIES[5:8]
    together = fb.symmetry_images(symmetries, z)
    for i in (0, 1, 2, 3, 199):
        assert np.array_equal(together[i], fb.symmetry_images([symmetries[i % 3]], z[i:i + 1])[0])
        assert np.array_equal(together[i], fb.symmetry_images(symmetries[i % 3:], z[i]))
    assert fb.symmetry_images(symmetries, z[0]).shape == (6,)


def test_affine_representative_idempotent(rng):
    point = fb.sample_fiber5(rng, 1)[0]
    skewed = point * np.exp(0.9j) * 1.7
    fixed = fb.affine_representative(skewed)
    assert np.max(np.abs(fixed - point)) <= 1e-12
    assert np.max(np.abs(fb.affine_representative(fixed) - fixed)) <= 1e-15
    # The mirror representative, taken through the star, pivots on slot 2 (the star is an involution).
    starred = _star(skewed)
    back = _star(fb.affine_representative(_star(starred)))
    assert np.max(np.abs(back - _star(point))) <= 1e-12
    assert back[2].imag == 0.0 and back[2].real > 0.0
    assert abs(np.linalg.norm(back) - 1.0) <= 1e-15


def test_second_orbit_moment_target(rng):
    point = _star(fb.sample_fiber7(rng, 1)[0])
    image = hypersimplex_moment(point, 4)
    assert np.max(np.abs(image - Q_PLUS)) <= 1e-10
    assert fb.moment_residual(point, Q_PLUS) <= 1e-10
    assert fb.fiber7_residuals(_star(point))["magnitudes"] <= 1e-10


def test_second_orbit_satisfies_mirror_system(rng):
    # In its own coordinates the mirror fiber fixes the head moduli in
    # terms of the tail: |z0|^2 = (|z3|^2 + |z4|^2 + 4|z5|^2)/3 and cyclic.
    for _ in range(50):
        z = _star(fb.sample_fiber7(rng, 1)[0])
        s = np.abs(z / np.linalg.norm(z)) ** 2
        assert abs(s[0] - (s[3] + s[4] + 4 * s[5]) / 3) <= 1e-10
        assert abs(s[1] - (s[3] + 4 * s[4] + s[5]) / 3) <= 1e-10
        assert abs(s[2] - (4 * s[3] + s[4] + s[5]) / 3) <= 1e-10


def test_second_orbit_fiber5(rng):
    for point in _star(fb.sample_fiber5(rng, count=20)):
        assert plucker_relation_residual(point) <= 1e-10
        assert fb.moment_residual(point, Q_PLUS) <= 1e-10
        f1, f2, f3 = fb.complete_intersection_f(chart_array(_star(point)))
        assert max(abs(f1), abs(f2 + 1), abs(f3)) <= 1e-9


def test_second_orbit_roundtrips(rng):
    # A mirror point starred back recovers the parameters it was built from.
    section = fb.sample_for_kind("m2", rng, 1)[0]
    phases = fb.random_phases(rng, 3)
    mirror = _star(fb.surface_torus_param(section, phases))
    recovered, t = fb.surface_torus_preimage(_star(mirror))
    assert np.max(np.abs(recovered[:2] - section[:2])) <= 1e-10
    assert np.max(np.abs(t - phases)) <= 1e-10
    sphere = fb.sample_for_kind("m3", rng, 1)[0]
    t1, t2 = fb.random_phases(rng, 2)
    mirror = _star(fb.sphere_torus_param(sphere, t1, t2))
    recovered, s1, s2 = fb.sphere_torus_preimage(_star(mirror))
    assert np.max(np.abs(recovered[:3] - sphere[:3])) <= 1e-10
    assert max(abs(s1 - t1), abs(s2 - t2)) <= 1e-10
    (z0,), (z1,), (z2,) = fb.random_sphere_triple(rng, 1)
    t4, t5 = fb.random_phases(rng, 2)
    mirror = _star(fb.fiber7_param(z0, z1, z2, t4, t5))
    recovered = fb.fiber7_preimage(_star(mirror))
    assert max(abs(a - b) for a, b in zip(recovered, (z0, z1, z2, t4, t5))) <= 1e-10


# -- certificates -------------------------------------------------------------

def test_certificate_schema(rng):
    point = fb.sample_fiber5(rng, 1)[0]
    cert, passed = fb.build_certificate("mq5", point)
    assert passed
    assert set(cert) == {"point", "residuals", "jacobian_rank", "f_values"}
    assert set(cert["residuals"]) == {"moment", "plucker", "surface"}
    assert cert["jacobian_rank"] == 3
    cert7, passed7 = fb.build_certificate("mq7", fb.sample_fiber7(rng, 1)[0])
    assert passed7
    assert cert7["residuals"]["plucker"] is None
    assert cert7["jacobian_rank"] is None
    with pytest.raises(ValueError):
        fb.build_certificate("bogus", point)


def test_certificate_tolerance_overrides(rng):
    point = fb.sample_fiber7(rng, 1)[0]
    # the tail moduli share squared norm 2/3, so min_tail can never reach 0.9
    _, passed = fb.build_certificate("mq7", point, tolerances={"min_tail": 0.9})
    assert not passed


def test_sample_for_kind(rng):
    for kind in ("mq7", "mq5", "m2", "m3"):
        assert fb.sample_for_kind(kind, rng, 3).shape == (3, 6)
    with pytest.raises(ValueError):
        fb.sample_for_kind("mq3", rng, 1)


# -- the batch kernel and its one-point views ---------------------------------

KINDS = ("mq7", "mq5", "m2", "m3")


@pytest.mark.parametrize("kind,mirror", [(kind, False) for kind in KINDS] + [("mq5", True)])
def test_certify_batch_equals_one_point_views(kind, mirror):
    rng = np.random.default_rng(20261018)
    points = fb.sample_for_kind(kind, rng, 1000)
    assert points.shape == (1000, 6)
    batch = fb.certify(kind, points)
    certificates = [json.loads(row) for row in batch.json_rows()]
    assert batch.passed.all()
    if mirror:
        # `fiber --orbit plus` emits the star images of certified C- points:
        # the star is exact, and their moment residuals against q+ agree.
        mirrored = _star(points)
        assert np.array_equal(_star(mirrored), points)
        residual = fb.moment_residual(mirrored, Q_PLUS)
        assert np.max(np.abs(residual - batch.checks["moment"][0])) <= 1e-15
    for point, batched in zip(points, certificates):
        single, passed = fb.build_certificate(kind, point)
        assert passed
        assert single["point"] == batched["point"]
        assert single["jacobian_rank"] == batched["jacobian_rank"]
        for key, value in single["residuals"].items():
            if value is None:
                assert batched["residuals"][key] is None
            else:
                assert abs(value - batched["residuals"][key]) <= 1e-15
        if kind != "mq7":
            assert max(abs(a - b) for a, b in zip(single["f_values"], batched["f_values"])) <= 1e-15


def test_batched_helpers_equal_their_one_point_views(rng):
    points = fb.sample_fiber5(rng, count=200)
    batch = fb.certify("mq5", points)
    dims = fb.tangent_fiber_dimension(points, include_quadric=True)
    coverage = fb.chart_coverage(points)
    for k, point in enumerate(points):
        f1, f2, f3 = fb.complete_intersection_f(chart_array(point))
        assert np.array_equal(batch.f_values[k], [f1, f2, f3])
        assert np.array_equal(np.abs(batch.f_values[k] - fb.F_TARGET), np.abs([f1, f2 + 1.0, f3]))
        assert batch.ranks[k] == fb.jacobian_rank(chart_array(point)) == 3
        assert dims[k] == fb.tangent_fiber_dimension(point, include_quadric=True) == 5
        single = fb.chart_coverage(point)
        assert single.ok == coverage.ok[k] and single.margin == coverage.margin[k]
        assert single.in_chart_m0 == coverage.in_chart_m0[k] == (abs(point[1]) > 1e-10)
        assert single.in_chart_m1 == coverage.in_chart_m1[k] == (abs(point[0]) > 1e-10)
        a = chart_array(point)
        gap = float(np.max(np.abs(fb.ci_jacobian(a) - fb.ci_jacobian_fd(a))))
        assert fb.jacobian_gaps(point[None])[0] == gap
    gaps = [fb.jacobian_gaps(point[None]) for point in points[::25]]
    fd_gap, gram_gap = fb.jacobian_gaps(points)
    assert (fd_gap, gram_gap) == tuple(map(max, zip(*gaps))) and fd_gap <= 1e-6 and gram_gap <= 1e-12


def test_certificate_names_failed_checks(rng):
    point = fb.sample_fiber5(rng, 1)[0]
    cert, passed = fb.build_certificate("mq5", point, tolerances={"moment": -1.0, "rank_tol": 0.5})
    assert not passed
    named = {entry["check"]: entry for entry in cert["failed_checks"]}
    assert set(named) == {"moment", "rank"}
    assert named["moment"]["tolerance"] == -1.0
    assert named["moment"]["value"] == cert["residuals"]["moment"]
    assert named["rank"]["tolerance"] == 0.5 and 0.0 < named["rank"]["value"] <= 0.5
    passing, ok = fb.build_certificate("mq5", point)
    assert ok and "failed_checks" not in passing


@pytest.mark.parametrize("kind", ["m2", "m3", "mq5"])
def test_section_samplers_reject_no_draw(kind):
    """Each point takes a fixed set of draws, so a batch of 1,000 leaves the
    generator where those draws leave it: no candidate is drawn and refused."""
    sampled, reference = np.random.default_rng(7), np.random.default_rng(7)
    fb.sample_for_kind(kind, sampled, 1000)
    if kind == "mq5":
        reference.uniform(size=1000)
    reference.normal(size=(2, 1000, 2))
    if kind == "mq5":
        reference.uniform(size=(1000, 3))
    assert sampled.bit_generator.state == reference.bit_generator.state


# -- NaN never passes a guard ---------------------------------------------------

def test_nan_phase_is_refused():
    with pytest.raises(ValueError):
        fb.fiber7_param(0.0, S6, S6, float("nan"), 1.0)


def test_nan_head_is_refused():
    with pytest.raises(ValueError):
        fb.tail_magnitudes(float("nan"), 0.0, 0.0)
    with pytest.raises(ValueError):
        fb.surface_circle(float("nan"))
    with pytest.raises(ValueError):
        fb.from_three_sphere([float("nan"), 1.0])


def test_nan_chart_point_is_refused_by_jacobian_rank():
    with pytest.raises(ValueError):
        fb.jacobian_rank(np.full(4, np.nan, dtype=complex))


def test_nan_point_is_refused_by_certificates(rng):
    points = fb.sample_for_kind("mq5", rng, 3)
    points[1, 2] = np.nan
    for kind in ("mq7", "mq5"):
        with pytest.raises(ValueError):
            fb.certify(kind, points)
    with pytest.raises(ValueError):
        fb.build_certificate("mq5", points[1])


@pytest.mark.parametrize("kind", KINDS)
def test_certify_judges_off_fiber_points_without_raising(kind):
    # Finite points in the chart (|z3| >= 0.1), whether far off the fiber (Gaussian
    # points at scales 1e-2 to 1e2) or near it (fiber points moved by 1e-12 to 1e-2),
    # are certified, and each row that fails names exactly its failed checks.
    for seed in range(20):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.uniform(-2.0, 2.0, size=(40, 1))
        far = scale * (rng.normal(size=(40, 6)) + 1j * rng.normal(size=(40, 6)))
        near = fb.sample_for_kind(kind, rng, 40)
        near += 10.0 ** rng.uniform(-12.0, -2.0, size=(40, 1)) * rng.normal(size=(40, 6))
        points = np.concatenate([far, near])
        points[:, 3] *= np.maximum(1.0, 0.1 / np.abs(points[:, 3]))
        batch = fb.certify(kind, points)
        assert not batch.passed[:40].any()
        for row, passed, failing in zip(batch.json_rows(), batch.passed,
                                        np.transpose([~ok for _, _, ok in batch.checks.values()])):
            named = [check["check"] for check in json.loads(row).get("failed_checks", [])]
            assert named == [name for name, fails in zip(batch.checks, failing) if fails]
            assert bool(named) != passed


# -- degenerate points of the sections -----------------------------------------------

phase = st.floats(0.0, 2.0 * math.pi)
angle = st.one_of(st.sampled_from([0.0, math.pi / 4, math.pi / 2]), st.floats(0.0, math.pi / 2),
                  st.floats(math.pi / 4 - 1e-12, math.pi / 4 + 1e-12), st.floats(0.0, 1e-9))


def _check_section(section, r0, r1):
    assert abs(abs(section[0]) - r0) <= 1e-11 and abs(abs(section[1]) - r1) <= 1e-11
    assert plucker_relation_residual(section) <= 1e-10


@given(theta=angle, alpha=phase, beta=phase)
@settings(max_examples=200, deadline=None)
def test_three_sphere_inverse_at_every_point(theta, alpha, beta):
    # g = (cos(theta) e^(i alpha), sin(theta) e^(i beta)), the Hopf circles
    # and their neighbourhoods included: a section point that maps back to g,
    # and conjugation commutes with the inverse.
    g = np.array([math.cos(theta) * np.exp(1j * alpha), math.sin(theta) * np.exp(1j * beta)])
    section = fb.from_three_sphere(g)
    assert abs(np.sum(np.abs(section[:3]) ** 2) - 1 / 3) <= 1e-15
    assert plucker_relation_residual(section) <= 1e-15
    assert np.max(np.abs(fb.to_three_sphere(section) - g)) <= 1e-14
    assert np.max(np.abs(fb.from_three_sphere(g.conj()) - section.conj())) <= 1e-15


@given(psi=phase)
@settings(max_examples=100, deadline=None)
def test_surface_section_circle_branch(psi):
    # The circle z2 = 0 of the surface section is the image of the Hopf
    # circle u = v, and the base projection collapses it to (1 : 1).
    target = normalize_projective([1.0, 1.0])
    circle = fb.surface_circle(psi)
    _check_section(circle, S6, S6)
    assert on_circle(circle) and abs(circle[2]) == 0.0
    assert projective_distance(fb.base_projection(circle), target) <= 1e-12
    image = fb.from_three_sphere(np.exp(1j * psi) * HOPF_CIRCLE_POINTS[2])
    assert np.max(np.abs(image - circle)) <= 1e-15


@given(vanishing=st.sampled_from([0, 1]), taus=st.tuples(phase, phase, phase))
@settings(max_examples=150, deadline=None)
def test_surface_section_vanishing_head_branch(vanishing, taus):
    # Where one head coordinate vanishes, the other has |z|^2 = 1/6: those
    # section points are the edge circles, the images of the Hopf circles
    # v = 0 and u = 0, and the base projection lands on (1 : 0) or (0 : 1).
    target = normalize_projective([1.0, 0.0] if vanishing == 0 else [0.0, 1.0])
    on_edge = (0.0, S6) if vanishing == 0 else (S6, 0.0)
    section = fb.from_three_sphere(np.exp(1j * taus[0]) * HOPF_CIRCLE_POINTS[vanishing])
    _check_section(section, *on_edge)
    assert section[vanishing] == 0
    assert projective_distance(fb.base_projection(section), target) <= 1e-12
    point = fb.edge_fibers()[vanishing].sample(np.exp(1j * np.array(taus)))
    _check_section(point, *on_edge)
    assert point[vanishing] == 0
    assert projective_distance(fb.base_projection(point), target) <= 1e-12
