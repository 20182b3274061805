"""Each independent check accepts a right answer and rejects a perturbed one.

The right answers are built with numpy and scipy alone, so these tests
exercise the checks, not ``conecert``.  Run with
``python3 -m pytest bench/test_checks.py``.
"""

import numpy as np
import pytest
from numpy.polynomial import legendre as npleg
from scipy.optimize import linprog, nnls

import checks
from instances import Orientation, _pointed_generators, chebyshev_lobatto


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def test_orientation_keeps_inner_products(rng):
    K = rng.standard_normal((5, 9))
    x = rng.standard_normal(5)
    o = Orientation(rng, 5, 9)
    assert np.allclose(o.columns(K).T @ o.vector(x), (K.T @ x)[o.order])


def test_projection_generated(rng):
    K = _pointed_generators(rng, 8, 20)
    x = rng.standard_normal(8)
    rho, _ = nnls(K, x)
    assert checks.projection_generated(K, x, K @ rho, rho) == []
    assert checks.projection_generated(K, x, K @ rho * 1.01, rho * 1.01)
    bad = rho.copy()
    bad[np.argmax(bad)] *= -1.0
    assert checks.projection_generated(K, x, K @ rho, bad)


def test_projection_dual(rng):
    K = _pointed_generators(rng, 8, 20)
    x = rng.standard_normal(8)
    rho, _ = nnls(K, -x)
    x0 = x + K @ rho
    assert checks.projection_dual(K, x, x0) == []
    assert checks.projection_dual(K, x, x0 + 1e-3 * rng.standard_normal(8))
    assert checks.projection_dual(K, x, x)  # x itself is infeasible here


def test_farkas_both_systems(rng):
    K = _pointed_generators(rng, 6, 15)
    A = K.T
    y = np.zeros(15)
    y[:4] = 1.0
    b1 = K @ y
    assert checks.farkas(A, b1, "system1", y, None) == []
    assert checks.farkas(A, b1, "system2", None, -b1)
    y_bad = y.copy()
    y_bad[0] += 1e-3
    assert checks.farkas(A, b1, "system1", y_bad, None)
    b2 = -b1
    rho, _ = nnls(K, b2)
    witness = b2 - K @ rho
    assert checks.farkas(A, b2, "system2", None, witness) == []
    assert checks.farkas(A, b2, "system2", None, -witness)
    assert checks.farkas(A, b2, "system1", rho, None)


def test_quadrature(rng):
    n, (a, b) = 9, (-0.5, 2.0)
    u, w = npleg.leggauss(5)  # exact to degree 9
    nodes = 0.5 * (a + b) + 0.5 * (b - a) * u
    weights = 0.5 * (b - a) * w
    assert checks.quadrature(n, (a, b), nodes, weights) == []
    assert checks.quadrature(n, (a, b), nodes, weights * (1 + 1e-4))
    assert checks.quadrature(n, (a, b), nodes + 1e-4, weights)
    neg = weights.copy()
    neg[0] = -neg[0]
    assert checks.quadrature(n, (a, b), nodes, neg)
    assert checks.quadrature(3, (a, b), nodes, weights)  # 5 nodes for degree 3


def test_shape(rng):
    n, r = 6, 1
    grid = chebyshev_lobatto(20 * (n + 1))
    target = rng.standard_normal(n + 1)
    R = checks.derivative_representers(n, r, grid)
    rho, _ = nnls(R, -target)
    solution = target + R @ rho
    assert checks.shape(n, r, grid, target, solution) == []
    assert checks.shape(n, r, grid, target, solution + 1e-3 * rng.standard_normal(n + 1))
    assert checks.shape(n, r, grid, target, target) or (R.T @ target).min() >= 0.0


def test_derivative_representers_match_numpy_derivatives():
    grid = np.linspace(-1.0, 1.0, 7)
    R = checks.derivative_representers(4, 2, grid)
    c = np.array([0.3, -1.0, 0.5, 2.0, 0.7])  # orthonormal coordinates
    classic = c * np.sqrt((2 * np.arange(5) + 1) / 2.0)
    assert np.allclose(c @ R, npleg.legval(grid, npleg.legder(classic, 2)))


def test_membership(rng):
    G = _pointed_generators(rng, 6, 10)
    coeffs = np.zeros(10)
    coeffs[:3] = [1.0, 0.5, 2.0]
    x = G @ coeffs
    assert checks.membership("cone", G, x, True, coeffs, None) == []
    assert checks.membership("cone", G, x, False, None, x)
    assert checks.membership("cone", G, x, True, coeffs * 1.001, None)
    rho, _ = nnls(G, -x)
    witness = -x - G @ rho
    assert checks.membership("cone", G, -x, False, None, witness) == []
    assert checks.membership("cone", G, -x, False, None, -witness)
    S = rng.standard_normal((6, 3))
    y = rng.standard_normal(6)
    c, *_ = np.linalg.lstsq(S, y, rcond=None)
    residual = y - S @ c
    assert checks.membership("span", S, y, False, None, residual) == []
    assert checks.membership("span", S, y, False, None, residual + 1e-3 * S[:, 0])


def test_generalized_farkas(rng):
    S = rng.standard_normal((12, 4))
    p = 3.0 * np.linalg.norm(S, axis=1)
    b = rng.standard_normal(4)
    lp = linprog(-b, A_ub=S, b_ub=p, bounds=[(None, None)] * 4, method="highs")
    if lp.status == 0:
        top = -lp.fun
        assert checks.generalized_farkas(S, p, b, top + 1.0, True) == []
        assert checks.generalized_farkas(S, p, b, top + 1.0, False)
        assert checks.generalized_farkas(S, p, b, top - 1.0, True)
    else:
        assert checks.generalized_farkas(S, p, b, 1.0, True)


def test_cli_report_rejects_a_wrong_point(rng):
    K = _pointed_generators(rng, 4, 8)
    x = rng.standard_normal(4)
    rho, _ = nnls(K, x)
    problem = {"kind": "project", "orientation": "generated", "generators": K.T.tolist(), "point": x.tolist()}
    report = {"result": {"orientation": "generated", "point": (K @ rho).tolist(), "rho": rho.tolist()}}
    import json

    assert checks.cli_report(problem, json.dumps(report)) == []
    report["result"]["point"][0] += 1e-3
    assert checks.cli_report(problem, json.dumps(report))
