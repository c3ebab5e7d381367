"""Frenet frames, direction curves, and companion constructions on sampled
space curves.

Everything operates on curves sampled uniformly in any regular parameter:
a curve is its samples, derivatives are finite differences, and every
classification or theorem check reports the measured deviation next to the
tolerance it was judged by.  See the README for the command line front end.
"""

from .classify import (
    ClassificationReport,
    ConstancyReport,
    LineFit,
    RectifyingReport,
    classify,
    general_helix_test,
    line_test,
    plane_test,
    rectifying_test,
    slant_helix_invariant,
    slant_helix_test,
)
from .curves import (
    CatalogEntry,
    CurveSamples,
    arclength_reparametrize,
    catalog_entry,
    catalog_names,
    evaluate_catalog,
    load_csv,
    save_csv,
)
from .direction import (
    AgreementReport,
    DirectionCoefficients,
    MannheimReport,
    PredictedBar,
    RecoveredCurvatures,
    binormal_direction_curve,
    compare_predicted,
    direction_field,
    donor_from_direction,
    integrate_direction_curve,
    mannheim_check,
    osculating_coefficients,
    osculating_direction_curve,
    predicted_bar_data,
    principal_direction_curve,
)
from .errors import DomainError, NumericalError
from .frenet import (
    FrameCheck,
    FrenetData,
    KAPPA_FLOOR,
    ResidualCheck,
    frenet_apparatus,
    frenet_derivative_check,
    unit_speed_deviation,
    verify_frame,
)
from .numerics import (
    BOUNDARY_MARGIN,
    Grid,
    VectorSamples,
    cumulative_integral,
    derivative,
    uniform_grid,
)
from .od import (
    ODParameters,
    ODReport,
    modified_darboux,
    od_osculating_curve,
    verify_od_properties,
)
from .verify import CheckRow, run_checks

__version__ = "0.1.0"

__all__ = [
    "AgreementReport",
    "BOUNDARY_MARGIN",
    "CatalogEntry",
    "CheckRow",
    "ClassificationReport",
    "ConstancyReport",
    "CurveSamples",
    "DirectionCoefficients",
    "DomainError",
    "FrameCheck",
    "FrenetData",
    "Grid",
    "KAPPA_FLOOR",
    "LineFit",
    "MannheimReport",
    "NumericalError",
    "ODParameters",
    "ODReport",
    "PredictedBar",
    "RecoveredCurvatures",
    "RectifyingReport",
    "ResidualCheck",
    "VectorSamples",
    "arclength_reparametrize",
    "binormal_direction_curve",
    "catalog_entry",
    "catalog_names",
    "classify",
    "compare_predicted",
    "cumulative_integral",
    "derivative",
    "direction_field",
    "donor_from_direction",
    "evaluate_catalog",
    "frenet_apparatus",
    "frenet_derivative_check",
    "general_helix_test",
    "integrate_direction_curve",
    "line_test",
    "load_csv",
    "mannheim_check",
    "modified_darboux",
    "od_osculating_curve",
    "osculating_coefficients",
    "osculating_direction_curve",
    "plane_test",
    "predicted_bar_data",
    "principal_direction_curve",
    "rectifying_test",
    "run_checks",
    "save_csv",
    "slant_helix_invariant",
    "slant_helix_test",
    "uniform_grid",
    "unit_speed_deviation",
    "verify_frame",
    "verify_od_properties",
]
