"""Positive quadrature by moment matching on a candidate grid.

For any degree n there is a rule with at most n + 1 nodes and strictly
positive weights that integrates every polynomial of degree <= n exactly.
The construction here fits nonnegative weights on a Chebyshev candidate
grid to the moments of the orthonormal shifted-Legendre basis (where the
moment vector is (sqrt(b - a), 0, ..., 0)).  The support of that one
Lawson-Hanson solve is already an independent set of evaluation vectors,
so it is the rule.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .certificates import CertificateReport
from .errors import BadInterval, MomentFitFailed
from .legendre import LegendreBasis, chebyshev_points
from .linalg import nnls

# moment mismatch allowed in a finished rule, scaled by 1 + |moment_0|
EXACTNESS_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes (strictly increasing) and positive weights, exact to degree n."""

    nodes: np.ndarray
    weights: np.ndarray
    degree: int
    interval: tuple

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "interval", (float(self.interval[0]), float(self.interval[1])))


@dataclass(frozen=True, eq=False)
class MomentSpec:
    """Target integrals of the orthonormal shifted-Legendre basis on [a, b]."""

    interval: tuple
    degree: int
    moments: np.ndarray


def shifted_basis_values(n: int, a: float, b: float, t) -> np.ndarray:
    """Values of the orthonormal Legendre basis shifted to [a, b]."""
    u = (2.0 * np.asarray(t, dtype=float) - (a + b)) / (b - a)
    return LegendreBasis(n).values(u) * np.sqrt(2.0 / (b - a))


def integral_moments(n: int, a: float, b: float) -> MomentSpec:
    """Moments of the integration functional over [a, b].

    By orthogonality to constants only the degree-0 moment survives:
    it equals sqrt(b - a).
    """
    if not a < b:
        raise BadInterval(f"need a < b, got [{a}, {b}]")
    if n < 0:
        raise ValueError("degree must be nonnegative")
    moments = np.zeros(n + 1)
    moments[0] = np.sqrt(b - a)
    return MomentSpec(interval=(float(a), float(b)), degree=int(n), moments=moments)


def positive_quadrature(spec: MomentSpec, grid_size: int) -> QuadratureRule:
    """Construct a positive rule matching the moments, on <= n + 1 nodes.

    Candidate nodes are Chebyshev points of the interval (clustered at
    the endpoints for conditioning); weights come from one nonnegative
    least-squares fit to the moments.  The Lawson-Hanson support is a
    linearly independent set of evaluation vectors in R^(n+1), which caps
    it at n + 1 nodes; weights at or below 1e-12 are dropped.

    Raises
    ------
    MomentFitFailed
        If the fitted rule misses a moment by more than
        ``1e-8 (1 + |moment_0|)`` (grid too coarse; retry denser).
    """
    a, b = spec.interval
    n = spec.degree
    if grid_size < 4 * (n + 1):
        raise ValueError("grid_size must be at least 4 (n + 1)")
    grid = chebyshev_points(grid_size, a, b)
    E = shifted_basis_values(n, a, b, grid)

    fit_tol = EXACTNESS_TOL * (1.0 + abs(float(spec.moments[0])))
    sol = nnls(E, spec.moments, tol=1e-12)
    if float(np.abs(sol.residual).max()) > fit_tol:
        raise MomentFitFailed(
            f"moment fit missed by {float(np.abs(sol.residual).max()):.3e} on a {grid_size}-point grid"
        )

    # the support indices and the grid both ascend, so the nodes do too
    support = np.flatnonzero(sol.rho > 1e-12)
    nodes, weights = grid[support], sol.rho[support]
    rule = QuadratureRule(nodes=nodes, weights=weights, degree=n, interval=(a, b))
    if verify_exactness(rule, n) > EXACTNESS_TOL:
        raise MomentFitFailed("rule without its tiny weights misses the moments")
    return rule


def _moment_error(rule: QuadratureRule, spec: MomentSpec) -> float:
    """Worst moment error of the rule against ``spec``, on the interval and
    moments of ``spec``, relative to ``1 + |moment_0|``; 1 for an empty rule."""
    if rule.nodes.size == 0:
        return 1.0
    E = shifted_basis_values(spec.degree, *spec.interval, rule.nodes)
    err = float(np.abs(E @ rule.weights - spec.moments).max())
    return err / (1.0 + abs(float(spec.moments[0])))


def verify_exactness(rule: QuadratureRule, n: int) -> float:
    """Worst relative moment error over degrees <= n on the rule's own interval."""
    return _moment_error(rule, integral_moments(n, *rule.interval))


def rule_certificate(spec: MomentSpec, rule: QuadratureRule) -> CertificateReport:
    """Re-check a rule against the degree, interval and moments of ``spec``,
    at the construction's own thresholds: `EXACTNESS_TOL` and 1e-12."""
    (a, b), n = spec.interval, spec.degree
    exactness = _moment_error(rule, spec)
    min_weight = float(rule.weights.min(initial=np.inf))
    outside = max(0.0, float(a - rule.nodes.min(initial=a)), float(rule.nodes.max(initial=b) - b))
    report = CertificateReport()
    report.add("basis_exactness", exactness, exactness <= EXACTNESS_TOL)
    report.add("node_count_bound", float(rule.nodes.size - (n + 1)), rule.nodes.size <= n + 1)
    report.add("weights_positive", max(0.0, 1e-12 - min_weight), min_weight > 1e-12)
    report.add("nodes_in_interval", outside, rule.nodes.size == 0 or (rule.nodes.min() >= a - 1e-12 and rule.nodes.max() <= b + 1e-12))
    return report
