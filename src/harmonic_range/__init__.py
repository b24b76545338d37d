"""Numerical toolkit for the ranges of entire harmonic maps in the plane.

Public surface: expression parsing and harmonic components, circle-arc
arithmetic, circle maxima and Fourier profiles, range sampling and
asymptotic-direction estimation, Lewis discs and rescaled maps, zero-set
tracing, and theorem-instance checkers.
"""

from .arcs import ArcSet
from .catalog import CatalogEntry, get_entry, load_catalog
from .circles import (NonFiniteError, circle_max, circle_values,
                      fourier_profile, harnack_bound_check, lemma_abs_check,
                      multiplicity)
from .expressions import (HarmonicComponent, HarmonicMap, ParseError,
                          parse_expr, parse_map)
from .lewis import (LewisDisc, RescaledMap, lewis_disc_search,
                    rescaled_range_check, rescaled_sequence)
from .ranges import (DirectionEstimate, PhiProfile, RangeSample,
                     antipodal_gap_alpha, antipodal_pairs,
                     cone_avoidance_normalize, estimate_directions,
                     i_alpha_fit, phi_profile, phi_sublinearity_check,
                     sample_range)
from .reports import TheoremVerdict
from .theorems import (check_antipodal_theorem, check_cor_alpha,
                       check_halfplane_theorem, check_lewis_region,
                       check_log2_inequalities, check_murdoch_kuran,
                       log2_sample_points)
from .zeros import (DependenceReport, Rect, TractReport, ZeroCurve,
                    detect_dependence, local_structure, trace_zero_set,
                    tract_report)

__version__ = "0.1.0"

__all__ = [
    "ArcSet",
    "CatalogEntry", "get_entry", "load_catalog",
    "NonFiniteError", "circle_max", "circle_values", "fourier_profile",
    "harnack_bound_check", "lemma_abs_check", "multiplicity",
    "HarmonicComponent", "HarmonicMap", "ParseError",
    "parse_expr", "parse_map",
    "LewisDisc", "RescaledMap",
    "lewis_disc_search", "rescaled_range_check", "rescaled_sequence",
    "DirectionEstimate", "PhiProfile", "RangeSample",
    "antipodal_gap_alpha", "antipodal_pairs", "cone_avoidance_normalize",
    "estimate_directions", "i_alpha_fit", "phi_profile",
    "phi_sublinearity_check", "sample_range",
    "TheoremVerdict",
    "check_antipodal_theorem", "check_cor_alpha", "check_halfplane_theorem",
    "check_lewis_region", "check_log2_inequalities", "check_murdoch_kuran",
    "log2_sample_points",
    "DependenceReport", "Rect", "TractReport", "ZeroCurve",
    "detect_dependence", "local_structure", "trace_zero_set", "tract_report",
    "__version__",
]
