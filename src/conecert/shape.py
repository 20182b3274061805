"""Shape-preserving least-squares approximation on [-1, 1].

Best approximation of a polynomial by one whose r-th derivative is
nonnegative (nonnegative, increasing, or convex polynomials for
r = 0, 1, 2).  In orthonormal Legendre coordinates the constraint
"p^(r)(alpha) >= 0" is an inner product against a representer vector, so
the continuum cone is discretized on a grid of alphas and the problem
becomes a dual-form cone projection in coefficient space.

Grid feasibility is certified exactly; between grid points the
derivative may dip below zero by O(spacing^2), which the result reports
as the minimum over a ten-times-denser check grid rather than hiding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certificates import CertificateReport
from .cones import project_dual
from .legendre import LegendreBasis, chebyshev_points, derivative_matrix
from .linalg import DEFAULT_TOL, _scale, add_member_check, as_vector


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

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


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
    (the Lawson-Hanson support, an independent representer set);
    ``min_derivative_on_checkgrid`` is the continuum feasibility margin.
    """

    solution: LegendrePoly
    active_alphas: np.ndarray
    rho: np.ndarray
    min_derivative_on_checkgrid: float


def _checkgrid_min(problem: ShapeProblem, coeffs) -> float:
    """Minimum of p^(r) over the check grid, ``chebyshev_points(10 * grid.size)``."""
    check_grid = chebyshev_points(10 * problem.grid.size)
    return float((coeffs @ LegendreBasis(problem.n).values(check_grid, problem.r)).min())


def project_shape(problem: ShapeProblem, tol: float = DEFAULT_TOL) -> ShapeResult:
    """Best approximation of the target from the grid-discretized cone."""
    n, r = problem.n, problem.r
    basis = LegendreBasis(n)
    columns = basis.values(problem.grid, r)  # column j is the representer at grid[j]
    proj = project_dual(columns.T, problem.target.coeffs, tol)
    solution = LegendrePoly(proj.point)
    return ShapeResult(
        solution=solution,
        active_alphas=problem.grid[proj.active],
        rho=proj.rho[proj.active],
        min_derivative_on_checkgrid=_checkgrid_min(problem, solution.coeffs),
    )


def shape_certificate(problem: ShapeProblem, result: ShapeResult, tol: float = DEFAULT_TOL) -> CertificateReport:
    """Re-check a `project_shape` result through `LegendreBasis`, not the solver
    state or the reported minimum, and the bound ``m <= (n - r + 2) / 2`` unless p^(r) vanishes."""
    sol, target, n, r = result.solution, problem.target, problem.n, problem.r
    basis = LegendreBasis(n)
    # column j evaluates the r-th derivative at active_alphas[j]
    representers = basis.values(result.active_alphas, r)
    active_deriv = float(np.abs(sol.coeffs @ representers).max(initial=0.0))
    grid_min = float((sol.coeffs @ basis.values(problem.grid, r)).min())
    sol_scale = _scale(sol.coeffs, tol)
    check_min = _checkgrid_min(problem, sol.coeffs)
    deriv_norm = float(np.linalg.norm(derivative_matrix(n, r) @ sol.coeffs))
    bound_ok = deriv_norm <= 1e-8 or result.active_alphas.size <= 0.5 * (n - r + 2)
    report = CertificateReport()
    add_member_check(report, "representation", sol.coeffs - target.coeffs - representers @ result.rho, target.coeffs, tol)
    report.add("active_derivative_zero", active_deriv, active_deriv <= sol_scale)
    report.add("grid_feasibility", max(0.0, -grid_min), grid_min >= -sol_scale)
    report.add("checkgrid_feasibility", max(0.0, -check_min), check_min >= -1e-7)
    report.add("active_count_bound", float(not bound_ok), bound_ok)
    return report
