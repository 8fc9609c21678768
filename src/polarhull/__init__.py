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
    poly_from_roots,
)
from .models import ExpReciprocal, PoleSeries, RationalModel, RecipSinPi
from .laurent import laurent_split, mittag_leffler
from .fekete import capacity_estimate, leja_points
from .ratapprox import build_approximant, convergence_scan, rho_of
from .pshbuild import certify_schedule, export_field, u_eval
from .potential import harmonic_measure, sublevel_cover, wiener_test
from .hull import classify_fiber, series_conditions, vn_upper_bound

__all__ = [
    "__version__",
    "CircleContour",
    "CompactSample",
    "Disk",
    "DiskUnion",
    "PolarhullError",
    "PolynomialC",
    "poly_from_roots",
    "ExpReciprocal",
    "PoleSeries",
    "RationalModel",
    "RecipSinPi",
    "laurent_split",
    "mittag_leffler",
    "capacity_estimate",
    "leja_points",
    "build_approximant",
    "convergence_scan",
    "rho_of",
    "certify_schedule",
    "export_field",
    "u_eval",
    "harmonic_measure",
    "sublevel_cover",
    "wiener_test",
    "classify_fiber",
    "series_conditions",
    "vn_upper_bound",
]
