"""Positive quadrature by moment matching on a candidate grid.

For any degree n there is a rule with at most n + 1 nodes and strictly
positive weights that integrates every polynomial of degree <= n exactly.
The construction here fits nonnegative weights on a Chebyshev candidate
grid to the moments of the orthonormal shifted-Legendre basis.  Any
`MomentSpec` may be fitted; for integration (`integral_moments`) the
moment vector is (sqrt(b - a), 0, ..., 0).  A rule exists exactly when
the moments lie in the cone of the grid's evaluation vectors, so the fit
is the cone module's membership test (`positive_relative_test`), within
``tol ||moments||`` (the library's one rule), and no answer depends on
the units of [a, b].  The support of its one Lawson-Hanson solve is an
independent set of evaluation vectors, so it is the rule.  The solve
starts from the n + 1 grid points nearest the Clenshaw-Curtis nodes of
degree n.  Their interpolatory weights are positive (Clenshaw & Curtis,
Numer. Math. 1960; Imhof, Numer. Math. 1963), so for the integral the
start is usually the answer: on a grid of 8(n + 1) points the solve ends
after one pivot for 64 of the degrees 1-80, and after 3 or 4 for the
rest.  For any other spec Lawson-Hanson corrects the signs from there.
The rule holds its spec, and `rule_certificate(rule, tol)` re-checks it
against that spec alone.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .certificates import CertificateReport
from .cones import positive_relative_test
from .errors import BadInterval, MomentFitFailed
from .legendre import LegendreBasis, chebyshev_points
from .linalg import DEFAULT_TOL, _norm, _scale


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes (strictly increasing) and positive weights matching the
    moments of ``spec``, exact to its degree on its interval."""

    nodes: np.ndarray
    weights: np.ndarray
    spec: MomentSpec

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))

    @property
    def degree(self) -> int:
        return self.spec.degree

    @property
    def interval(self) -> tuple:
        return self.spec.interval


@dataclass(frozen=True, eq=False)
class MomentSpec:
    """Target integrals of the orthonormal shifted-Legendre basis on [a, b].

    Checked on construction: ``a < b`` (else `BadInterval`), a degree
    n >= 0, and n + 1 finite moments.
    """

    interval: tuple
    degree: int
    moments: np.ndarray

    def __post_init__(self):
        a, b = (float(v) for v in self.interval)
        if not a < b:
            raise BadInterval(f"need a < b, got [{a}, {b}]")
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        moments = np.array(self.moments, dtype=float)
        if moments.shape != (self.degree + 1,):
            raise ValueError(f"degree {self.degree} needs {self.degree + 1} moments, got shape {moments.shape}")
        if not np.all(np.isfinite(moments)):
            raise ValueError("moments must be finite")
        object.__setattr__(self, "interval", (a, b))
        object.__setattr__(self, "moments", moments)


def shifted_basis_values(n: int, a: float, b: float, t) -> np.ndarray:
    """Values of the orthonormal Legendre basis shifted to [a, b]."""
    u = (2.0 * np.asarray(t, dtype=float) - (a + b)) / (b - a)
    return LegendreBasis(n).values(u) * np.sqrt(2.0 / (b - a))


def integral_moments(n: int, a: float, b: float) -> MomentSpec:
    """Moments of the integration functional over [a, b].

    By orthogonality to constants only the degree-0 moment survives:
    it equals sqrt(b - a).
    """
    # clipped so that `MomentSpec`, not numpy, refuses n < 0 and b <= a
    moments = np.zeros(max(n + 1, 0))
    moments[:1] = np.sqrt(max(b - a, 0.0))
    return MomentSpec(interval=(a, b), degree=int(n), moments=moments)


def positive_quadrature(spec: MomentSpec, grid_size: int) -> QuadratureRule:
    """Construct a positive rule matching the moments, on <= n + 1 nodes.

    Candidate nodes are Chebyshev points of the interval (clustered at
    the endpoints for conditioning); the weights are the coefficients of
    one `positive_relative_test` of the moments against the candidates'
    evaluation vectors at `DEFAULT_TOL`.  Its Lawson-Hanson support, the
    nodes of positive weight, is a linearly independent set of evaluation
    vectors in R^(n+1), which caps it at n + 1 nodes.  Any `MomentSpec` is
    fitted.

    The solve starts from the n + 1 candidates spread evenly by index.  On
    the Chebyshev-Lobatto grid these are the points nearest the
    Clenshaw-Curtis nodes cos(pi i / n), i = 0..n.  Clenshaw-Curtis
    quadrature integrates degree n exactly on those nodes with positive
    weights (Imhof, 1963), so for the integral the start is usually the
    rule, and the solve takes one pivot.  Where rounding to the grid moves
    a neighbour of an endpoint far enough, the endpoint's small weight
    turns negative and a few more pivots follow.  Other moments start
    there too, and the solve drops and enters nodes until the weights are
    positive.

    Raises
    ------
    MomentFitFailed
        If the moments are not a member of that cone: the fit misses them
        by more than ``DEFAULT_TOL ||moments||`` (grid too coarse; retry denser).
    """
    a, b = spec.interval
    n = spec.degree
    if grid_size < 4 * (n + 1):
        raise ValueError("grid_size must be at least 4 (n + 1)")
    grid = chebyshev_points(grid_size, a, b)
    start = np.round(np.linspace(0, grid_size - 1, n + 1)).astype(int)
    fit = positive_relative_test(shifted_basis_values(n, a, b, grid).T, spec.moments, DEFAULT_TOL, start)
    if not fit.member:
        limit = _scale(spec.moments, DEFAULT_TOL)
        raise MomentFitFailed(f"moment fit missed by {_norm(fit.witness):.3e} > {limit:.3e} on a {grid_size}-point grid")
    # the grid ascends, so the nodes do too
    support = fit.coefficients > 0.0
    return QuadratureRule(nodes=grid[support], weights=fit.coefficients[support], spec=spec)


def _moment_residual(rule: QuadratureRule, spec: MomentSpec) -> np.ndarray:
    """The moments of the rule less those of ``spec``, on the spec's interval."""
    E = shifted_basis_values(spec.degree, *spec.interval, rule.nodes)
    return E @ rule.weights - spec.moments


def verify_exactness(rule: QuadratureRule, n: int) -> float:
    """Moment error over degrees <= n on the rule's interval, over ``||moments||``."""
    spec = integral_moments(n, *rule.interval)
    return float(np.linalg.norm(_moment_residual(rule, spec)) / np.linalg.norm(spec.moments))


def rule_certificate(result: QuadratureRule, tol: float = DEFAULT_TOL) -> CertificateReport:
    """Re-check a rule against the degree, interval and moments of its
    spec: the moment error within ``tol ||moments||``, the nodes within
    ``tol ||(a, b)||`` of [a, b], and weights strictly positive."""
    (a, b), n = result.interval, result.degree
    outside = max(0.0, float(a - result.nodes.min(initial=a)), float(result.nodes.max(initial=b) - b))
    report = CertificateReport()
    report.add("basis_exactness", _norm(_moment_residual(result, result.spec)), _scale(result.spec.moments, tol))
    report.add("node_count_bound", result.nodes.size - (n + 1), 0.0)
    report.add_margin("weights_positive", float(result.weights.min(initial=np.inf)))
    report.add("nodes_in_interval", outside, _scale(result.interval, tol))
    return report
