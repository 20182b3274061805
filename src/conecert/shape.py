"""Shape-preserving least-squares approximation on [-1, 1].

Best approximation of a polynomial by one whose r-th derivative is
nonnegative (nonnegative, increasing, or convex polynomials for
r = 0, 1, 2).  In orthonormal Legendre coordinates the constraint
"p^(r)(alpha) >= 0" is an inner product against a representer vector, so
the continuum cone is discretized on a grid of alphas and the problem
becomes a dual-form cone projection in coefficient space.  It is solved
over the representers divided by their lengths, the same cone, because
Lawson-Hanson enters the column of largest raw score and the raw lengths
vary across the grid (by 4.6x at r = 0 and 102x at r = 2 for n = 12);
``rho`` is reported on the raw representers.

Grid feasibility is certified exactly; between grid points the
derivative may dip below zero by O(spacing^2), which the result reports
as the minimum over a ten-times-denser check grid rather than hiding.
A `ShapeResult` holds its `ShapeProblem`, and `shape_certificate(result,
tol)` re-checks it against that problem alone: each derivative value
``p^(r)(t)``, divided by the length of the representer at t, is judged
against ``tol ||target||`` (the library's one rule).

The representers at the grid and at the check grid, with their lengths,
are read from the memo of `legendre` (`_basis_values`, keyed by n, r and
the points' float64 bytes, bounded by ``legendre.MEMO_BYTES``,
thread-safe), so the solve, its certificate and the reported minimum
evaluate each point set once; those at ``active_alphas`` are evaluated
afresh.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certificates import CertificateReport
from .cones import project_dual
from .legendre import LegendreBasis, _basis_values, chebyshev_points, derivative_matrix, legendre_to_monomial
from .linalg import DEFAULT_TOL, _norm, _products, _scale, as_vector


@dataclass(frozen=True, eq=False)
class LegendrePoly:
    """Polynomial in orthonormal Legendre coordinates.

    Parseval holds: the L2[-1, 1] norm is the Euclidean norm of
    ``coeffs``.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", as_vector(self.coeffs))

    @property
    def degree_bound(self) -> int:
        return self.coeffs.size - 1


def default_grid(n: int) -> np.ndarray:
    """Default constraint grid: 20 (n+1) Chebyshev-distributed points."""
    return chebyshev_points(20 * (n + 1))


@dataclass(frozen=True, eq=False)
class ShapeProblem:
    """Discretized best-approximation problem over C_{n,r}.

    The active-count bound of the characterization needs r < n, but the
    projection itself is well-defined up to r = n (a sign constraint on
    the leading derivative), so r = n is accepted.
    """

    n: int
    r: int
    grid: np.ndarray
    target: LegendrePoly

    def __post_init__(self):
        if not 0 <= self.r <= self.n:
            raise ValueError("need 0 <= r <= n")
        g = as_vector(self.grid)
        if g.size < self.n + 1:
            raise ValueError("grid must have at least n + 1 points")
        if np.any(np.diff(g) <= 0):
            raise ValueError("grid must be strictly increasing")
        if g[0] < -1.0 or g[-1] > 1.0:
            raise ValueError("grid must lie in [-1, 1]")
        object.__setattr__(self, "grid", g)
        if self.target.degree_bound != self.n:
            raise ValueError("target must carry exactly n + 1 coefficients")


@dataclass(frozen=True, eq=False)
class ShapeResult:
    """Projected polynomial with the active constraint points.

    ``rho`` are the strictly positive multipliers on ``active_alphas``
    (the Lawson-Hanson support, an independent representer set), on the
    raw representers although the solve runs on unit ones;
    ``problem`` is the problem solved.  The coefficients in either basis,
    the ``distance`` from the target and ``min_derivative_on_checkgrid``,
    the continuum feasibility margin, are derived from the two.
    """

    solution: LegendrePoly
    active_alphas: np.ndarray
    rho: np.ndarray
    problem: ShapeProblem

    legendre_coeffs = property(lambda self: self.solution.coeffs)
    monomial_coeffs = property(lambda self: legendre_to_monomial(self.solution.coeffs))
    min_derivative_on_checkgrid = property(lambda self: float((self.solution.coeffs @ _checkgrid_representers(self.problem)[0]).min()))
    distance = property(lambda self: float(_norm(self.solution.coeffs - self.problem.target.coeffs)))


def _checkgrid_representers(problem: ShapeProblem) -> tuple:
    """Representers of p -> p^(r)(t) at the check grid, ``chebyshev_points(10 * grid.size)``, and their lengths."""
    return _basis_values(problem.n, problem.r, chebyshev_points(10 * problem.grid.size))


def project_shape(problem: ShapeProblem, tol: float = DEFAULT_TOL) -> ShapeResult:
    """Best approximation of the target from the grid-discretized cone.

    The solve runs on the representers divided by their lengths (a zero
    one keeps length 1), so each pivot enters the most violated constraint
    ``p^(r)(alpha) >= 0`` whatever the scale of its representer; the cone
    and the projection are the same.  The multipliers are divided back,
    ``rho_j = rho'_j / ||v_j||``, onto the raw representers that
    `shape_certificate` uses.
    """
    columns, lengths = _basis_values(problem.n, problem.r, problem.grid)  # column j is the representer at grid[j]
    proj = project_dual((columns / lengths).T, problem.target.coeffs, tol)
    active = proj.active
    return ShapeResult(
        solution=LegendrePoly(proj.point),
        active_alphas=problem.grid[active],
        rho=proj.rho[active] / lengths[active],
        problem=problem,
    )


def shape_certificate(result: ShapeResult, tol: float = DEFAULT_TOL) -> CertificateReport:
    """Re-check a `project_shape` result on its problem through `LegendreBasis`, not the solver
    state or the reported minimum, and the bound ``m <= (n - r + 2) / 2`` unless p^(r) vanishes."""
    problem = result.problem
    p, target, n, r = result.solution.coeffs, problem.target.coeffs, problem.n, problem.r
    # column j evaluates the r-th derivative at active_alphas[j]
    representers = LegendreBasis(n).values(result.active_alphas, r)
    limit = _scale(target, tol)
    vanishes = np.abs(_products(derivative_matrix(n, r).T, p)).max() <= limit
    bound_ok = vanishes or result.active_alphas.size <= 0.5 * (n - r + 2)
    report = CertificateReport()
    report.add("representation", _norm(p - target - representers @ result.rho), limit)
    report.add("active_derivative_zero", np.abs(_products(representers, p)).max(initial=0.0), limit)
    grid, grid_lengths = _basis_values(n, r, problem.grid)
    checkgrid, checkgrid_lengths = _checkgrid_representers(problem)
    report.add("grid_feasibility", max(0.0, -float(_products(grid, p, grid_lengths).min())), limit)
    report.add("checkgrid_feasibility", max(0.0, -float(_products(checkgrid, p, checkgrid_lengths).min())), limit)
    report.add("active_count_bound", float(not bound_ok), 0.0)
    return report
