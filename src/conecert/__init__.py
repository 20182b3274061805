"""Certified computations over finitely generated convex cones.

Best approximations from generated cones and their dual-form partners,
Farkas alternatives with verifiable certificates, positive quadrature
rules, and shape-preserving polynomial approximation, all in
finite-dimensional real Hilbert space.
"""

from .certificates import CertificateCheck, CertificateReport
from .cones import (
    Membership,
    ProjectionResult,
    ZigDecomposition,
    positive_relative_test,
    project_dual,
    project_generated,
    span_membership,
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
from .linalg import DEFAULT_TOL, NnlsResult, nnls
from .quadrature import MomentSpec, QuadratureRule, integral_moments, positive_quadrature
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
    "Membership",
    "MomentFitFailed",
    "MomentSpec",
    "NnlsResult",
    "ProjectionResult",
    "QuadratureRule",
    "ShapeProblem",
    "ShapeResult",
    "ZigDecomposition",
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
    "verify_characterization",
    "verify_outcome",
    "zig_decompose",
]
