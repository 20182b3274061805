"""`shape_certificate` against residuals recomputed with `numpy.polynomial.legendre`.

The oracle never touches `LegendreBasis`: the orthonormal basis function
p_k is ``sqrt((2k + 1) / 2) P_k``, and its r-th derivative comes from
``legder`` and ``legval`` on the classic Legendre series.
"""

import dataclasses

import numpy as np
import pytest
from numpy.polynomial import legendre as L

from conecert import LegendrePoly, ShapeProblem, chebyshev_points, monomial_to_legendre, project_dual, project_shape
from conecert.shape import default_grid, shape_certificate

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


def _random_problems(count):
    """``count`` problems on the default grid: n in 4..20, r in 0..2 (below n), a scaled normal target."""
    rng = np.random.default_rng(2028)
    problems = []
    for _ in range(count):
        n = int(rng.integers(4, 21))
        r = min(int(rng.integers(0, 3)), n - 1)
        target = rng.standard_normal(n + 1) * rng.uniform(0.1, 10.0)
        problems.append(ShapeProblem(n=n, r=r, grid=default_grid(n), target=LegendrePoly(target)))
    return problems


RANDOM_PROBLEMS = _random_problems(40)


@pytest.mark.parametrize("problem", RANDOM_PROBLEMS, ids=[f"{i}-n{p.n}-r{p.r}" for i, p in enumerate(RANDOM_PROBLEMS)])
def test_unit_representers_keep_the_projection(problem):
    # the solve runs on representers of length 1, which changes the entering order but not the cone:
    # the point is the projection over the raw representers, and rho certifies it on them
    result = project_shape(problem)
    target = problem.target.coeffs
    raw = project_dual(_representers(problem.n, problem.r, problem.grid).T, target)
    assert np.linalg.norm(result.solution.coeffs - raw.point) <= 1e-11 * np.linalg.norm(target)
    report = shape_certificate(result)
    assert all(report[name].passed for name in NAMES[:3])


def test_checkgrid_minimum_is_recomputed():
    # t^3 on 16 points dips below zero between them (about -7.2e-4)
    problem, result = _solve(3, 0, monomial_to_legendre([0.0, 0.0, 0.0, 1.0]), 16)
    assert result.min_derivative_on_checkgrid < -1e-7
    assert not shape_certificate(result)["checkgrid_feasibility"].passed
    # the minimum is derived from the solution, so it cannot be forged
    with pytest.raises(TypeError):
        dataclasses.replace(result, min_derivative_on_checkgrid=0.0)
    # the residual is the recomputed minimum, each value divided by its representer's length
    representers = _representers(3, 0, chebyshev_points(160))
    assert result.min_derivative_on_checkgrid == pytest.approx(float((result.solution.coeffs @ representers).min()), rel=1e-9)
    normalised = (result.solution.coeffs @ representers) / np.linalg.norm(representers, axis=0)
    assert shape_certificate(result)["checkgrid_feasibility"].residual == pytest.approx(-float(normalised.min()), rel=1e-9)


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
