"""The Legendre module against `numpy.polynomial`, which never calls it.

The orthonormal basis function p_k is ``sqrt((2k + 1) / 2) P_k`` with P_k
numpy's classic ``Legendre.basis(k)``.
"""

import numpy as np
import pytest
from numpy.polynomial import Legendre
from numpy.polynomial import legendre as L
from numpy.polynomial import polynomial as P

from conecert import chebyshev_points, integral_moments, positive_quadrature
from conecert.legendre import LegendreBasis, derivative_matrix, legendre_to_monomial, monomial_to_legendre

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
@pytest.mark.parametrize("n", range(13))
def test_values_match_numpy(n, r):
    basis = LegendreBasis(n)
    got = basis.values(T, r)
    assert got.shape == (n + 1, T.size)
    _close(got, _oracle(n, r, T))
    for t in (0.3, np.float64(-0.7), np.array(1.0)):
        scalar = basis.values(t, r)
        assert scalar.shape == (n + 1,)
        _close(scalar, _oracle(n, r, float(t)))


@pytest.mark.parametrize("n", [0, 1, 5, 12])
def test_orthonormal_on_gauss_nodes(n):
    nodes, weights = L.leggauss(n + 1)  # exact to degree 2n + 1
    V = LegendreBasis(n).values(nodes)
    _close((V * weights) @ V.T, np.eye(n + 1))


@pytest.mark.parametrize("n, r", [(0, 0), (3, 1), (6, 2), (12, 3), (4, 4)])
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
