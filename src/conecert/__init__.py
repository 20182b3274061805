"""Certified computations over finitely generated convex cones.

Best approximations from generated cones and their dual-form partners,
Farkas alternatives with verifiable certificates, positive quadrature
rules, and shape-preserving polynomial approximation, all in
finite-dimensional real Hilbert space.
"""

from .certificates import CertificateCheck, CertificateReport
from .cones import (
    PositiveRelative,
    ProjectionResult,
    ZigDecomposition,
    positive_relative_test,
    project_dual,
    project_generated,
    verify_characterization,
    zig_decompose,
)
from .errors import BadInterval, IterationLimit, MomentFitFailed
from .farkas import (
    FarkasOutcome,
    FarkasTag,
    FarkasVerification,
    GenFarkasReport,
    farkas_alternative,
    generalized_farkas,
    verify_outcome,
)
from .legendre import (
    LegendreBasis,
    chebyshev_points,
    derivative_matrix,
    legendre_to_monomial,
    monomial_to_legendre,
)
from .linalg import (
    DEFAULT_TOL,
    CaratheodoryResult,
    NnlsResult,
    SpanMembership,
    SvdFactors,
    caratheodory_reduce,
    nnls,
    span_membership,
    svd_factors,
)
from .quadrature import (
    MomentSpec,
    QuadratureRule,
    integral_moments,
    positive_quadrature,
    verify_exactness,
)
from .shape import (
    LegendrePoly,
    ShapeProblem,
    ShapeResult,
    default_grid,
    project_shape,
)

__version__ = "0.1.0"

__all__ = [
    "BadInterval",
    "CaratheodoryResult",
    "CertificateCheck",
    "CertificateReport",
    "DEFAULT_TOL",
    "FarkasOutcome",
    "FarkasTag",
    "FarkasVerification",
    "GenFarkasReport",
    "IterationLimit",
    "LegendreBasis",
    "LegendrePoly",
    "MomentFitFailed",
    "MomentSpec",
    "NnlsResult",
    "PositiveRelative",
    "ProjectionResult",
    "QuadratureRule",
    "ShapeProblem",
    "ShapeResult",
    "SpanMembership",
    "SvdFactors",
    "ZigDecomposition",
    "caratheodory_reduce",
    "chebyshev_points",
    "default_grid",
    "derivative_matrix",
    "farkas_alternative",
    "generalized_farkas",
    "integral_moments",
    "legendre_to_monomial",
    "monomial_to_legendre",
    "nnls",
    "positive_quadrature",
    "positive_relative_test",
    "project_dual",
    "project_generated",
    "project_shape",
    "span_membership",
    "svd_factors",
    "verify_characterization",
    "verify_exactness",
    "verify_outcome",
    "zig_decompose",
]
