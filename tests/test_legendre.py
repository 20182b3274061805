"""The Legendre module against `numpy.polynomial`, which never calls it.

The orthonormal basis function p_k is ``sqrt((2k + 1) / 2) P_k`` with P_k
numpy's classic ``Legendre.basis(k)``.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.polynomial import Legendre
from numpy.polynomial import legendre as L
from numpy.polynomial import polynomial as P

import conecert.cones
import conecert.legendre
import conecert.shape
from conecert import LegendrePoly, ShapeProblem, chebyshev_points, integral_moments, positive_quadrature, project_shape
from conecert.legendre import MEMO_BYTES, LegendreBasis, _basis_values, derivative_matrix, legendre_to_monomial, monomial_to_legendre
from conecert.quadrature import _preimage, rule_certificate, verify_exactness
from conecert.shape import default_grid, shape_certificate

T = np.linspace(-1.0, 1.0, 41)

# the affine map of the Chebyshev-Lobatto points rounds the first node of
# this interval to 4.4e-16 below a
A, B = -2.1124434925352644, 2.5692661377622166


def test_chebyshev_end_nodes_are_the_endpoints():
    points = chebyshev_points(88, A, B)
    assert points[0] == A
    assert points[-1] == B
    assert np.all(np.diff(points) > 0)


def test_quadrature_nodes_stay_in_interval():
    rule = positive_quadrature(integral_moments(10, A, B), 88)
    assert rule.nodes.min() >= A
    assert rule.nodes.max() <= B


def _oracle(n, r, t):
    """Row k holds p_k^(r)(t) for k = 0..n."""
    return np.array([Legendre.basis(k).deriv(r)(t) * np.sqrt((2 * k + 1) / 2.0) for k in range(n + 1)])


def _evaluate(coeffs, t):
    """The polynomial with orthonormal Legendre coordinates ``coeffs`` at t."""
    return L.legval(t, np.asarray(coeffs) * np.sqrt((2 * np.arange(len(coeffs)) + 1) / 2.0))


def _close(got, expected):
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12 * max(1.0, float(np.abs(expected).max())))


@pytest.mark.parametrize("r", range(4))
@pytest.mark.parametrize("n", [*range(13), 20, 30, 40])
def test_values_match_numpy(n, r):
    basis = LegendreBasis(n)
    got = basis.values(T, r)
    assert got.shape == (n + 1, T.size)
    _close(got, _oracle(n, r, T))
    for t in (0.3, np.float64(-0.7), np.array(1.0)):
        scalar = basis.values(t, r)
        assert scalar.shape == (n + 1,)
        _close(scalar, _oracle(n, r, float(t)))


def test_values_are_legendres_recurrence_exactly():
    # at r = 0 the recurrence is numpy's, operation for operation, so quadrature sees the same numbers
    t = np.concatenate([T, np.random.default_rng(0).uniform(-1.0, 1.0, 200)])
    for n in range(41):
        basis = LegendreBasis(n)
        assert np.array_equal(basis.values(t), basis.norms[:, None] * L.legvander(t, n).T)


@pytest.mark.parametrize("n", [0, 1, 5, 12])
def test_orthonormal_on_gauss_nodes(n):
    nodes, weights = L.leggauss(n + 1)  # exact to degree 2n + 1
    V = LegendreBasis(n).values(nodes)
    _close((V * weights) @ V.T, np.eye(n + 1))


@pytest.mark.parametrize("n, r", [(0, 0), (3, 1), (6, 2), (12, 3), (4, 4), (40, 3)])
def test_derivative_matrix_differentiates(n, r):
    c = np.random.default_rng(n + 10 * r).standard_normal(n + 1)
    D = derivative_matrix(n, r)
    assert np.all(D[n - r + 1:] == 0.0)
    _close(_evaluate(D @ c, T), c @ LegendreBasis(n).values(T, r))


def test_derivative_matrix_order_range():
    with pytest.raises(ValueError):
        derivative_matrix(3, 4)
    with pytest.raises(ValueError):
        derivative_matrix(3, -1)


@pytest.mark.parametrize("n", [0, 1, 4, 9])
def test_monomial_conversions(n):
    m = np.random.default_rng(n).standard_normal(n + 1)
    leg = monomial_to_legendre(m)
    _close(legendre_to_monomial(leg), m)
    _close(_evaluate(leg, T), P.polyval(T, m))
    _close(P.polyval(T, legendre_to_monomial(m)), _evaluate(m, T))


def test_chebyshev_single_point_is_the_midpoint():
    assert chebyshev_points(1).tolist() == [0.0]
    assert chebyshev_points(1, 1.0, 4.0).tolist() == [2.5]


@pytest.mark.parametrize("count", [0, -3])
def test_chebyshev_count_must_be_positive(count):
    with pytest.raises(ValueError, match="count must be positive"):
        chebyshev_points(count)


# ---------------------------------------------------------------------------
# the basis-value memo shared by positive_quadrature and project_shape


@pytest.fixture
def values_calls(monkeypatch):
    """The sizes of the point sets `LegendreBasis.values` is called on, from a cleared memo."""
    calls = []
    evaluate = LegendreBasis.values

    def counted(self, t, r=0):
        calls.append(np.size(t))
        return evaluate(self, t, r)

    monkeypatch.setattr(LegendreBasis, "values", counted)
    _basis_values.clear()
    yield calls
    _basis_values.clear()


def _shape_problem(n, r, seed, grid_size=None):
    target = LegendrePoly(np.random.default_rng(seed).standard_normal(n + 1))
    grid = default_grid(n) if grid_size is None else chebyshev_points(grid_size)
    return ShapeProblem(n=n, r=r, grid=grid, target=target)


QUADRATURE_CASES = [(10, (0.0, 1.0)), (16, (-0.5, 2.25)), (38, (-3.0, 1.0)), (38, (0.125, 0.25))]
SHAPE_CASES = [(5, 0, 1), (8, 1, 2), (12, 2, 3)]


def _quadrature_outputs(n, interval):
    rule = positive_quadrature(integral_moments(n, *interval), 8 * (n + 1))
    return [rule.nodes, rule.weights]


def _shape_outputs(n, r, seed):
    result = project_shape(_shape_problem(n, r, seed))
    residuals = [check.residual for check in shape_certificate(result).checks]
    return [result.solution.coeffs, result.active_alphas, result.rho, np.array([result.min_derivative_on_checkgrid, *residuals])]


def _all_outputs():
    return [_quadrature_outputs(*case) for case in QUADRATURE_CASES] + [_shape_outputs(*case) for case in SHAPE_CASES]


def _bit_identical(first, second):
    assert len(first) == len(second)
    for arrays, again in zip(first, second):
        assert all(np.array_equal(x, y) and x.dtype == y.dtype for x, y in zip(arrays, again))


def test_memo_entries_are_read_only_and_results_own_their_arrays(values_calls, monkeypatch):
    values, lengths = _basis_values(6, 1, default_grid(6))
    assert not values.flags.writeable and not lengths.flags.writeable
    with pytest.raises(ValueError):
        values[0, 0] = 1.0
    with pytest.raises(ValueError):
        lengths[0] = 1.0

    rule = positive_quadrature(integral_moments(10, -1.0, 1.0), 88)
    evaluated = len(values_calls)
    candidates = _basis_values(10, 0, _preimage(-1.0, 1.0, chebyshev_points(88, -1.0, 1.0)))
    assert len(values_calls) == evaluated  # the entry the fit read
    assert not any(np.shares_memory(a, e) for a in (rule.nodes, rule.weights) for e in candidates)

    projections = []

    def spy(*args, **kwargs):
        projections.append(conecert.cones.project_dual(*args, **kwargs))
        return projections[-1]

    monkeypatch.setattr(conecert.shape, "project_dual", spy)
    problem = _shape_problem(6, 1, 0)
    result = project_shape(problem)
    representers = _basis_values(6, 1, problem.grid)
    owned = (result.rho, result.solution.coeffs, result.active_alphas, projections[0].S)
    assert not any(np.shares_memory(a, e) for a in owned for e in representers)


def test_cold_and_warm_calls_are_bit_identical(values_calls):
    cold = _all_outputs()
    evaluated = len(values_calls)
    warm = _all_outputs()
    _bit_identical(cold, warm)
    # only the active alphas of each shape certificate are evaluated again
    assert len(values_calls) - evaluated == len(SHAPE_CASES)


def test_a_grid_one_ulp_away_is_another_key(values_calls):
    problem = _shape_problem(6, 1, 0)
    moved = problem.grid.copy()
    moved[5] = np.nextafter(moved[5], 1.0)
    project_shape(problem)
    project_shape(problem)
    assert values_calls == [problem.grid.size] and len(_basis_values) == 1
    project_shape(ShapeProblem(n=6, r=1, grid=moved, target=problem.target))
    assert values_calls == [problem.grid.size] * 2 and len(_basis_values) == 2


def test_an_entry_past_the_byte_bound_is_solved_and_not_kept(values_calls):
    n = 40
    grid_size = MEMO_BYTES // (8 * (n + 1)) + 1  # the values alone pass the bound
    for _ in range(2):
        rule = positive_quadrature(integral_moments(n, 0.0, 1.0), grid_size)
        assert rule.nodes.size <= n + 1
        assert rule_certificate(rule).passed
        assert verify_exactness(rule, n) < 1e-13
        assert len(_basis_values) == 0 and _basis_values.nbytes == 0
    # the certificates evaluate the basis at the rule's nodes, not at the grid
    assert [size for size in values_calls if size > n + 1] == [grid_size] * 2


def test_least_recently_used_entries_leave_first(values_calls, monkeypatch):
    def held(count):
        return 4 * 8 * count  # the two rows of n = 1, the lengths and the key

    grids = {count: chebyshev_points(count) for count in (100, 101, 102)}
    monkeypatch.setattr(conecert.legendre, "MEMO_BYTES", held(100) + held(102))
    for count in (100, 101, 100, 102):  # the 101-point grid is then the least recently used
        _basis_values(1, 0, grids[count])
    assert len(_basis_values) == 2 and _basis_values.nbytes == held(100) + held(102)
    for count in (100, 102, 101):
        _basis_values(1, 0, grids[count])
    assert values_calls == [100, 101, 102, 101]


def test_concurrent_calls_give_identical_results(values_calls):
    expected = _all_outputs()
    _basis_values.clear()
    jobs = [(_quadrature_outputs, case, i) for i, case in enumerate(QUADRATURE_CASES)]
    jobs += [(_shape_outputs, case, len(QUADRATURE_CASES) + i) for i, case in enumerate(SHAPE_CASES)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [(i, pool.submit(fn, *case)) for fn, case, i in jobs * 6]
            got = [(i, future.result(timeout=120)) for i, future in futures]
    finally:
        sys.setswitchinterval(switch)
    for i, outputs in got:
        _bit_identical([expected[i]], [outputs])
    # no lost update: the memo holds each key of the jobs once, and its byte count is theirs
    held = len(_basis_values), _basis_values.nbytes
    entries = [_basis_values(n, 0, _preimage(*interval, chebyshev_points(8 * (n + 1), *interval))) for n, interval in QUADRATURE_CASES]
    for n, r, _ in SHAPE_CASES:
        grid = default_grid(n)
        entries += [_basis_values(n, r, grid), _basis_values(n, r, chebyshev_points(10 * grid.size))]
    assert held == (len(entries), sum(v.nbytes + 2 * lengths.nbytes for v, lengths in entries))
