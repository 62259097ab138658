"""Torus moment maps on CP^N and G(n,2): exact chamber combinatorics and
numerical verification of the explicit n=4 moment fibers."""

import importlib

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
from .regularity import (
    CHAMBER_POINT_MINUS,
    CHAMBER_POINT_PLUS,
    ChamberReport,
    center_point_regular,
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

#: The float layer, numpy underneath, imported on first access (PEP 562): name -> module.
_LAZY = {"acceptance": "acceptance", "fibers4": "fibers4",
         **dict.fromkeys(["grassmann_moment", "hypersimplex_moment", "simplex_moment",
                          "symmetric_power_phases", "weight_map", "weight_vectors"], "moment"),
         **dict.fromkeys(["GrassmannPoint", "from_chart", "normalize_projective", "plucker_embed",
                          "plucker_relation_residual", "projective_distance"], "plucker")}
#: The names imported above and the lazy ones; the submodules the imports bind are not exports.
__all__ = sorted(set(_LAZY).union(name for name, value in globals().items()
                                  if name[0] != "_" and not isinstance(value, type(importlib))))


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_LAZY[name]}", __name__)
    globals()[name] = value = module if _LAZY[name] == name else getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
