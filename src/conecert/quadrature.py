"""Positive quadrature by moment matching on a candidate grid.

For any degree n there is a rule with at most n + 1 nodes and strictly
positive weights that integrates every polynomial of degree <= n exactly.
The construction here fits nonnegative weights on a Chebyshev candidate
grid to the moments of the orthonormal shifted-Legendre basis.  Any
`MomentSpec` may be fitted; for integration (`integral_moments`) the
moment vector is (sqrt(b - a), 0, ..., 0).  The support of that one
Lawson-Hanson solve is already an independent set of evaluation vectors,
so it is the rule, and it is checked against the spec's own moments,
within ``tol ||moments||`` (the library's one rule), so that no answer
depends on the units of [a, b].  The rule holds its spec, and
`rule_certificate(rule, tol)` re-checks it against that spec alone.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .certificates import CertificateReport
from .errors import BadInterval, MomentFitFailed
from .legendre import LegendreBasis, chebyshev_points
from .linalg import DEFAULT_TOL, _member, _scale, nnls


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
    the endpoints for conditioning); weights come from one nonnegative
    least-squares fit to the moments at `DEFAULT_TOL`.  The Lawson-Hanson
    support, the nodes of positive weight, is a linearly independent set
    of evaluation vectors in R^(n+1), which caps it at n + 1 nodes.  Any
    `MomentSpec` is fitted, and the rule is checked against its moments.

    Raises
    ------
    MomentFitFailed
        If the moments of the rule miss those of ``spec`` by more than
        ``DEFAULT_TOL ||moments||`` (grid too coarse; retry denser).
    """
    a, b = spec.interval
    n = spec.degree
    if grid_size < 4 * (n + 1):
        raise ValueError("grid_size must be at least 4 (n + 1)")
    grid = chebyshev_points(grid_size, a, b)
    sol = nnls(shifted_basis_values(n, a, b, grid), spec.moments, DEFAULT_TOL)
    # the support indices and the grid both ascend, so the nodes do too
    support = np.flatnonzero(sol.rho)
    rule = QuadratureRule(nodes=grid[support], weights=sol.rho[support], spec=spec)
    residual = _moment_residual(rule, spec)
    if not _member(residual, spec.moments, DEFAULT_TOL):
        limit = _scale(spec.moments, DEFAULT_TOL)
        raise MomentFitFailed(f"moment fit missed by {np.linalg.norm(residual):.3e} > {limit:.3e} on a {grid_size}-point grid")
    return rule


def _moment_residual(rule: QuadratureRule, spec: MomentSpec) -> np.ndarray:
    """The moments of the rule less those of ``spec``, on the spec's interval."""
    E = shifted_basis_values(spec.degree, *spec.interval, rule.nodes)
    return E @ rule.weights - spec.moments


def verify_exactness(rule: QuadratureRule, n: int) -> float:
    """Moment error over degrees <= n on the rule's interval, over ``||moments||``."""
    spec = integral_moments(n, *rule.interval)
    return float(np.linalg.norm(_moment_residual(rule, spec)) / np.linalg.norm(spec.moments))


def rule_certificate(rule: QuadratureRule, tol: float = DEFAULT_TOL) -> CertificateReport:
    """Re-check a rule against the degree, interval and moments of its
    spec: the moment error within ``tol ||moments||``, the nodes within
    ``tol ||(a, b)||`` of [a, b], and weights strictly positive."""
    (a, b), n = rule.interval, rule.degree
    outside = max(0.0, float(a - rule.nodes.min(initial=a)), float(rule.nodes.max(initial=b) - b))
    report = CertificateReport()
    report.add("basis_exactness", np.linalg.norm(_moment_residual(rule, rule.spec)), _scale(rule.spec.moments, tol))
    report.add("node_count_bound", rule.nodes.size - (n + 1), 0.0)
    report.add_margin("weights_positive", float(rule.weights.min(initial=np.inf)))
    report.add("nodes_in_interval", outside, _scale(rule.interval, tol))
    return report
