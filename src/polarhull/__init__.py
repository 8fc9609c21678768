"""polarhull: classify pluripolar hull fibers of graphs with polar singularities.

Library layout mirrors the pipeline: `core` (complex plumbing), `laurent`
(analytic/principal splits), `fekete` (Leja systems), `ratapprox` (prescribed
pole approximants), `pshbuild` (the layered field), `potential` (thinness and
harmonic measure), `hull` (fiber classification), `cli` (front end).
"""

__version__ = "0.1.0"

from .core import (
    CircleContour,
    CompactSample,
    Disk,
    DiskUnion,
    PolarhullError,
    PolynomialC,
    poly_eval,
    poly_from_roots,
    sup_norm,
)
from .models import ExpReciprocal, FunctionModel, PoleSeries, RationalModel, RecipSinPi
from .laurent import find_clean_radius, laurent_split, mittag_leffler
from .fekete import capacity_estimate, leja_points
from .ratapprox import build_approximant, convergence_scan, rho_of
from .pshbuild import certify_schedule, evans_discrete, export_field, h_eval, u_eval
from .potential import harmonic_measure, sublevel_cover, two_constants_check, wiener_test, witness_build
from .hull import classify_fiber, f_at_origin, series_conditions, vn_upper_bound

__all__ = [
    "__version__",
    "CircleContour",
    "CompactSample",
    "Disk",
    "DiskUnion",
    "PolarhullError",
    "PolynomialC",
    "poly_eval",
    "poly_from_roots",
    "sup_norm",
    "ExpReciprocal",
    "FunctionModel",
    "PoleSeries",
    "RationalModel",
    "RecipSinPi",
    "find_clean_radius",
    "laurent_split",
    "mittag_leffler",
    "capacity_estimate",
    "leja_points",
    "build_approximant",
    "convergence_scan",
    "rho_of",
    "certify_schedule",
    "evans_discrete",
    "export_field",
    "h_eval",
    "u_eval",
    "harmonic_measure",
    "sublevel_cover",
    "two_constants_check",
    "wiener_test",
    "witness_build",
    "classify_fiber",
    "f_at_origin",
    "series_conditions",
    "vn_upper_bound",
]
