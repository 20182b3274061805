"""`shape_certificate` against residuals recomputed with `numpy.polynomial.legendre`.

The oracle never touches `LegendreBasis`: the orthonormal basis function
p_k is ``sqrt((2k + 1) / 2) P_k``, and its r-th derivative comes from
``legder`` and ``legval`` on the classic Legendre series.
"""

import dataclasses

import numpy as np
import pytest
from numpy.polynomial import legendre as L

from conecert import LegendrePoly, ShapeProblem, chebyshev_points, monomial_to_legendre, project_shape
from conecert.shape import shape_certificate

NAMES = ["representation", "active_derivative_zero", "grid_feasibility", "checkgrid_feasibility", "active_count_bound"]


def _derivative(coeffs, r, t):
    """p^(r)(t) for p with orthonormal Legendre coefficients ``coeffs``."""
    classic = np.asarray(coeffs) * np.sqrt((2 * np.arange(len(coeffs)) + 1) / 2.0)
    return L.legval(t, L.legder(classic, r))


def _representers(n, r, alphas):
    """Column j holds p_k^(r)(alphas[j]) for k = 0..n."""
    return np.array([_derivative(np.eye(n + 1)[k], r, alphas) for k in range(n + 1)])


def _oracle(problem, result):
    sol = result.solution.coeffs
    reps = _representers(problem.n, problem.r, result.active_alphas)
    representation = np.linalg.norm(sol - problem.target.coeffs - reps @ result.rho)
    active = np.abs(_derivative(sol, problem.r, result.active_alphas)).max(initial=0.0)
    grid_min = _derivative(sol, problem.r, problem.grid).min()
    return representation, active, max(0.0, -grid_min)


def _solve(n, r, target, grid_size):
    problem = ShapeProblem(n=n, r=r, grid=chebyshev_points(grid_size), target=LegendrePoly(target))
    return problem, project_shape(problem)


CASES = [
    (2, 1, [0.3, -1.0, 0.5], 12),  # decreasing target: n = r + 1
    (3, 2, [0.1, 0.2, -1.0, 0.3], 16),  # concave target: n = r + 1
    (6, 2, list(np.random.default_rng(5).standard_normal(7)), 140),
]


@pytest.mark.parametrize("n, r, target, grid_size", CASES)
def test_residuals_match_oracle(n, r, target, grid_size):
    problem, result = _solve(n, r, target, grid_size)
    assert result.active_alphas.size > 0
    report = shape_certificate(result)
    assert [c.name for c in report.checks] == NAMES
    # p^(r) may dip between grid points (checkgrid_feasibility); the grid itself holds
    assert all(report[name].passed for name in NAMES[:3])
    representation, active, grid = _oracle(problem, result)
    scale = 1e-12 * (1.0 + np.linalg.norm(result.solution.coeffs))
    assert report["representation"].residual == pytest.approx(representation, abs=scale)
    assert report["active_derivative_zero"].residual == pytest.approx(active, abs=scale)
    assert report["grid_feasibility"].residual == pytest.approx(grid, abs=scale)


@pytest.mark.parametrize("n, r, target, grid_size", CASES)
def test_perturbed_solution_fails(n, r, target, grid_size):
    problem, result = _solve(n, r, target, grid_size)
    moved = LegendrePoly(result.solution.coeffs + 1e-6)
    report = shape_certificate(dataclasses.replace(result, solution=moved))
    representation, active, _ = _oracle(problem, dataclasses.replace(result, solution=moved))
    assert representation > 1e-7 and active > 1e-7
    assert not report["representation"].passed
    assert not report["active_derivative_zero"].passed


def test_checkgrid_minimum_is_recomputed():
    # t^3 on 16 points dips below zero between them (about -7.2e-4)
    problem, result = _solve(3, 0, monomial_to_legendre([0.0, 0.0, 0.0, 1.0]), 16)
    assert result.min_derivative_on_checkgrid < -1e-7
    assert not shape_certificate(result)["checkgrid_feasibility"].passed
    forged = dataclasses.replace(result, min_derivative_on_checkgrid=0.0)
    report = shape_certificate(forged)
    # the residual is the recomputed minimum, divided by the representer's length at its point
    assert report["checkgrid_feasibility"].residual == shape_certificate(result)["checkgrid_feasibility"].residual > 0.0
    assert not report["checkgrid_feasibility"].passed


@pytest.mark.parametrize(
    "n, r, grid, target, message",
    [
        (2, 3, np.linspace(-1.0, 1.0, 5), np.ones(3), "need 0 <= r <= n"),
        (2, 1, np.linspace(-1.0, 1.5, 5), np.ones(3), "grid must lie in"),
        (2, 1, np.linspace(-1.5, 1.0, 5), np.ones(3), "grid must lie in"),
        (2, 1, np.linspace(-1.0, 1.0, 5), np.ones(2), "exactly n \\+ 1 coefficients"),
        (2, 1, np.linspace(-1.0, 1.0, 5), np.ones(4), "exactly n \\+ 1 coefficients"),
    ],
)
def test_problem_refuses_inconsistent_inputs(n, r, grid, target, message):
    with pytest.raises(ValueError, match=message):
        ShapeProblem(n=n, r=r, grid=grid, target=LegendrePoly(target))
