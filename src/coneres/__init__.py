"""Scattering resonances of cone surfaces via diffractive edge transfer."""

from .errors import (AuditError, CostBudgetExceeded, EscapedBox,
                     GeometricRaySingularity, InsufficientData, NoConvergence,
                     NotAdjacent, PolygonError, SurfaceValidationError,
                     ZeroNearBoundary)
from .tolerances import Tolerances, DEFAULT, from_environment, with_overrides
from .geometry import (ConePoint, ConeSurfaceSpec, GeodesicEdge,
                       HypothesisReport, LengthScales, build_polygon_double,
                       build_two_cone_surface, length_scales, link_distance,
                       load_surface, serialize_surface, validate_hypotheses,
                       validate_spec)
from .diffraction import (DiffractionEvaluator, diffraction_coefficient,
                          diffraction_series_oracle, is_geometric)
from .monodromy import (CharFunction, MonodromyVector, char_function,
                        coupling_coefficient, null_vector, transfer_entry)
from .resonances import (Box, FunctionHandle, Resonance, ResonanceSet,
                         SearchRegion, count_zeros, polyline_path,
                         refine_root, scan_strip, winding_number)
from .asymptotics import (FitReport, GapReport, LadderModel,
                          VerificationReport, coset_deviations, fit_log_curve,
                          gap_report, ladder_in_window, ladder_model_from_spec,
                          log_band_path, predicted_ladder, verify_scan)
from .statphase import (OrderCheckReport, QuadraticPhase, StatPhaseProblem,
                        nonstationary_decay, order_check, quadratic_expansion,
                        quadratic_expansion_terms, quadrature_oracle,
                        radial_cutoff)

__version__ = "0.1.0"

__all__ = [
    "AuditError", "Box", "CharFunction", "ConePoint", "ConeSurfaceSpec",
    "CostBudgetExceeded", "DEFAULT", "DiffractionEvaluator", "EscapedBox",
    "FitReport", "FunctionHandle", "GapReport", "GeodesicEdge",
    "GeometricRaySingularity", "HypothesisReport", "InsufficientData",
    "LadderModel", "LengthScales", "MonodromyVector", "NoConvergence",
    "NotAdjacent", "OrderCheckReport", "PolygonError", "QuadraticPhase",
    "Resonance", "ResonanceSet", "SearchRegion", "StatPhaseProblem",
    "SurfaceValidationError", "Tolerances", "VerificationReport",
    "ZeroNearBoundary", "build_polygon_double", "build_two_cone_surface",
    "char_function", "coset_deviations", "count_zeros", "coupling_coefficient",
    "diffraction_coefficient", "diffraction_series_oracle", "fit_log_curve",
    "from_environment", "gap_report", "is_geometric", "ladder_in_window",
    "ladder_model_from_spec", "length_scales", "link_distance",
    "load_surface", "log_band_path", "nonstationary_decay", "null_vector",
    "order_check", "polyline_path", "predicted_ladder", "quadratic_expansion",
    "quadratic_expansion_terms", "quadrature_oracle", "radial_cutoff",
    "refine_root", "scan_strip", "serialize_surface", "transfer_entry",
    "validate_hypotheses", "validate_spec", "verify_scan", "winding_number",
    "with_overrides",
]
