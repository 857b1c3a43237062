"""Measure concentration toolkit for Hamming cubes.

Information functionals (total correlation and its dual), exact transportation
distances with dual certificates, transportation-inequality refutation, and
constructive mixture/partition decompositions of measures on finite product
spaces, plus block statistics of stationary finite-state processes.
"""

__version__ = "0.1.0"

from .measures import (  # noqa: F401
    DiscreteMeasure,
    FuzzyPartition,
    MeasureError,
    MixtureRepresentation,
    ProductSpace,
    SupportCapExceeded,
    condition,
    fuzzy_split,
    hookup,
    load_measure,
    marginal,
    mix,
    product_measure,
    regroup,
    reweight,
    tv_distance,
    variation_norm,
)
from .information import (  # noqa: F401
    InfoReport,
    dtc_decrement,
    dual_total_correlation,
    fuzzy_mutual_information,
    info_report,
    kl_divergence,
    shannon_entropy,
    total_correlation,
    trim_coordinates,
)
from .transport import (  # noqa: F401
    DualCertificate,
    TransportPlan,
    dual_gap,
    hamming,
    product_coupling_bound,
    transport_distance,
)
