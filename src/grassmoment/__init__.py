"""Torus moment maps on CP^N and G(n,2): exact chamber combinatorics and
numerical verification of the explicit n=4 moment fibers."""

from . import acceptance, fibers4
from .exactgeom import (
    affine_rank,
    arrangement_for_n,
    convex_membership,
    format_rational,
    format_sign_vector,
    format_vector,
    hypersimplex_vertices,
    pairs_lex,
    parse_vector,
    rational,
    sign_vector,
    vector,
)
from .moment import (
    grassmann_moment,
    hypersimplex_moment,
    simplex_moment,
    symmetric_power_phases,
    weight_map,
    weight_vectors,
)
from .plucker import (
    GrassmannPoint,
    from_chart,
    normalize_projective,
    plucker_embed,
    plucker_relation_residual,
    projective_distance,
)
from .regularity import (
    CHAMBER_POINT_MINUS,
    CHAMBER_POINT_PLUS,
    ChamberOrbit,
    ChamberReport,
    center_point_regular,
    chamber_orbits,
    classify_point,
    enumerate_chambers,
    is_regular_grassmann,
    is_regular_projective,
    is_regular_projective_bruteforce,
    largest_chamber_witness,
    orbit_dimension,
    projective_bruteforce_verdicts,
)

__version__ = "0.1.0"
