import dataclasses

import numpy as np
import pytest

import conecert.cones
from conecert import (
    BadInterval,
    MomentFitFailed,
    MomentSpec,
    integral_moments,
    positive_quadrature,
    positive_relative_test,
)
from conecert.legendre import chebyshev_points
from conecert.linalg import nnls
from conecert.quadrature import rule_certificate, shifted_basis_values, verify_exactness


def _apply_rule(rule, f):
    """The rule applied to f: sum of w_i f(t_i)."""
    return float(sum(w * float(f(t)) for t, w in zip(rule.nodes, rule.weights)))


def _monomial_integral(k, a, b):
    return (b ** (k + 1) - a ** (k + 1)) / (k + 1)


class TestIntegralMoments:
    def test_symmetric_interval(self):
        spec = integral_moments(2, -1.0, 1.0)
        assert np.allclose(spec.moments, [np.sqrt(2.0), 0.0, 0.0], atol=1e-15)

    def test_unit_interval_constant(self):
        spec = integral_moments(0, 0.0, 1.0)
        assert np.allclose(spec.moments, [1.0], atol=1e-15)

    def test_shifted_interval(self):
        spec = integral_moments(1, 0.0, 2.0)
        assert np.allclose(spec.moments, [np.sqrt(2.0), 0.0], atol=1e-15)

    def test_bad_interval(self):
        with pytest.raises(BadInterval):
            integral_moments(2, 1.0, 1.0)
        with pytest.raises(BadInterval):
            integral_moments(2, 2.0, 1.0)


class TestMomentSpec:
    def test_reversed_interval(self):
        with pytest.raises(BadInterval):
            MomentSpec((1.0, -1.0), 2, [1.0, 0.0, 0.0])

    def test_negative_degree(self):
        with pytest.raises(ValueError, match="degree must be nonnegative"):
            MomentSpec((0.0, 1.0), -1, [])
        with pytest.raises(ValueError, match="degree must be nonnegative"):
            integral_moments(-1, 0.0, 1.0)

    @pytest.mark.parametrize("moments", [[1.0, 0.0], [1.0, 0.0, 0.0, 0.0], [[1.0, 0.0, 0.0]]])
    def test_moment_count(self, moments):
        with pytest.raises(ValueError, match="degree 2 needs 3 moments"):
            MomentSpec((-1.0, 1.0), 2, moments)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_moments_finite(self, bad):
        with pytest.raises(ValueError, match="moments must be finite"):
            MomentSpec((-1.0, 1.0), 2, [1.0, bad, 0.0])

    def test_interval_and_moments_coerced(self):
        spec = MomentSpec((-1, 1), 1, [1, 0])
        assert spec.interval == (-1.0, 1.0)
        assert spec.moments.dtype == float


class TestPositiveQuadrature:
    def test_degree_zero(self):
        rule = positive_quadrature(integral_moments(0, -1.0, 1.0), 8)
        assert rule.nodes.size == 1
        assert np.isclose(rule.weights.sum(), 2.0, atol=1e-12)

    def test_degree_one_exactness(self):
        rule = positive_quadrature(integral_moments(1, -1.0, 1.0), 16)
        assert rule.nodes.size <= 2
        assert np.isclose(rule.weights.sum(), 2.0, atol=1e-10)
        assert abs(float(rule.weights @ rule.nodes)) <= 1e-10

    def test_degree_three_monomials(self):
        rule = positive_quadrature(integral_moments(3, -1.0, 1.0), 64)
        assert rule.nodes.size <= 4
        for k in range(4):
            got = _apply_rule(rule, lambda t, k=k: t**k)
            assert abs(got - _monomial_integral(k, -1.0, 1.0)) <= 1e-8

    def test_grid_size_precondition(self):
        with pytest.raises(ValueError):
            positive_quadrature(integral_moments(3, -1.0, 1.0), 15)

    def test_unreachable_moments_fail(self):
        # sum w p_1(t_i) is bounded by sqrt(3/2) * sum w = sqrt(6) < 5
        spec = MomentSpec(interval=(-1.0, 1.0), degree=1, moments=np.array([np.sqrt(2.0), 5.0]))
        with pytest.raises(MomentFitFailed):
            positive_quadrature(spec, 32)

    def test_fits_a_spec_other_than_integration(self):
        # the rule is checked against the spec's own moments, not the integral's
        spec = MomentSpec(interval=(-1.0, 1.0), degree=4, moments=np.array([np.sqrt(2.0), 0.3, 0.0, 0.0, 0.0]))
        rule = positive_quadrature(spec, 80)
        assert rule.nodes.size <= 5
        assert rule_certificate(rule).passed

    def test_positivity_and_count_200_random(self):
        rng = np.random.default_rng(97)
        for _ in range(200):
            n = int(rng.integers(0, 11))
            a = float(rng.uniform(-3.0, 2.0))
            b = a + float(rng.uniform(0.5, 4.0))
            rule = positive_quadrature(integral_moments(n, a, b), 8 * (n + 1))
            assert rule.nodes.size <= n + 1
            assert np.all(rule.weights > 1e-12)
            assert np.all(np.diff(rule.nodes) > 0.0)
            assert rule.nodes.min() >= a - 1e-12 and rule.nodes.max() <= b + 1e-12
            assert verify_exactness(rule, n) <= 1e-8

    @pytest.mark.parametrize("n", [40, 60])
    @pytest.mark.parametrize("interval", [(-1.0, 1.0), (0.0, 1.0), (-3.0, 2.5)])
    def test_high_degree(self, n, interval):
        a, b = interval
        rule = positive_quadrature(integral_moments(n, a, b), 8 * (n + 1))
        assert rule.nodes.size <= n + 1
        assert np.all(rule.weights > 1e-12)
        assert np.all(np.diff(rule.nodes) > 0.0)
        assert rule.nodes.min() >= a and rule.nodes.max() <= b
        assert verify_exactness(rule, n) <= 1e-8

    def test_random_polynomial_exactness(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            n = int(rng.integers(0, 9))
            a = float(rng.uniform(-2.0, 1.0))
            b = a + float(rng.uniform(0.5, 3.0))
            rule = positive_quadrature(integral_moments(n, a, b), 8 * (n + 1))
            coeffs = rng.standard_normal(n + 1)
            exact = sum(c * _monomial_integral(k, a, b) for k, c in enumerate(coeffs))
            got = _apply_rule(rule, lambda t: float(np.polynomial.polynomial.polyval(t, coeffs)))
            L = max(abs(a), abs(b), 1.0)
            scale = sum(abs(c) * L ** (k + 1) for k, c in enumerate(coeffs))
            assert abs(got - exact) <= 1e-7 * (1.0 + scale)


# nonnegative weights on [-1, 1]: the integral and four others, two of them not smooth
WEIGHTS = {
    "1": np.ones_like,
    "1+t": lambda t: 1.0 + t,
    "|t|": np.abs,
    "exp(3t)": lambda t: np.exp(3.0 * t),
    "sqrt(1-t^2)": lambda t: np.sqrt(1.0 - t * t),
}


def _weight_spec(weight, n):
    """The moments of ``weight`` on [-1, 1], by 200-point Gauss-Legendre."""
    t, g = np.polynomial.legendre.leggauss(200)
    return MomentSpec((-1.0, 1.0), n, shifted_basis_values(n, -1.0, 1.0, t) @ (g * WEIGHTS[weight](t)))


class TestClenshawCurtisStart:
    """The fit starts `nnls` at the n + 1 grid points nearest the
    Clenshaw-Curtis nodes; the start changes the pivots, not the answer."""

    @pytest.mark.parametrize("weight", list(WEIGHTS))
    @pytest.mark.parametrize("n", [0, 1, 7, 12, 20, 40])
    @pytest.mark.parametrize("per_moment", [4, 8])
    def test_same_decision_as_the_cold_test(self, weight, n, per_moment):
        spec, grid_size = _weight_spec(weight, n), per_moment * (n + 1)
        E = shifted_basis_values(n, -1.0, 1.0, chebyshev_points(grid_size))
        cold = positive_relative_test(E.T, spec.moments)
        try:
            rule = positive_quadrature(spec, grid_size)
        except MomentFitFailed:
            rule = None
        assert (rule is not None) == cold.member
        if rule is not None:
            assert rule_certificate(rule).passed

    @pytest.mark.parametrize("n", [7, 12, 20, 30, 40])
    def test_the_integral_takes_one_pivot(self, monkeypatch, n):
        # the Clenshaw-Curtis weights are positive, so the start is the answer
        solves = []

        def spy(*args, **kwargs):
            solves.append(nnls(*args, **kwargs))
            return solves[-1]

        monkeypatch.setattr(conecert.cones, "nnls", spy)
        rule = positive_quadrature(integral_moments(n, -1.0, 1.0), 8 * (n + 1))
        assert [sol.pivots for sol in solves] == [1]
        assert rule.nodes.size == n + 1
        assert rule_certificate(rule).passed


class TestApplyRule:
    def test_constant(self):
        rule = positive_quadrature(integral_moments(2, 0.0, 3.0), 24)
        assert np.isclose(_apply_rule(rule, lambda t: 1.0), 3.0, atol=1e-9)

    def test_odd_function_symmetric_interval(self):
        rule = positive_quadrature(integral_moments(1, -1.0, 1.0), 16)
        assert abs(_apply_rule(rule, lambda t: t)) <= 1e-9

    def test_square(self):
        rule = positive_quadrature(integral_moments(2, -1.0, 1.0), 24)
        assert abs(_apply_rule(rule, lambda t: t * t) - 2.0 / 3.0) <= 1e-8


class TestVerifyExactness:
    def test_fresh_rule(self):
        rule = positive_quadrature(integral_moments(4, -1.0, 1.0), 40)
        assert verify_exactness(rule, 4) <= 1e-8

    def test_perturbed_weight_detected(self):
        rule = positive_quadrature(integral_moments(4, -1.0, 1.0), 40)
        weights = rule.weights.copy()
        weights[0] += 0.1
        bad = dataclasses.replace(rule, weights=weights)
        assert verify_exactness(bad, 4) >= 0.01

    def test_empty_rule_scores_one(self):
        from conecert import QuadratureRule

        empty = QuadratureRule(nodes=np.zeros(0), weights=np.zeros(0), spec=integral_moments(0, -1.0, 1.0))
        assert verify_exactness(empty, 0) == 1.0


class TestRuleCertificate:
    def test_honest_rule_scores_its_exactness(self):
        spec = integral_moments(6, 0.0, 1.0)
        rule = positive_quadrature(spec, 28)
        report = rule_certificate(rule)
        assert report.passed
        assert report["basis_exactness"].residual == verify_exactness(rule, 6)

    def test_moments_come_from_the_spec(self):
        # the weights of a rule for [0, 1] sum to 1, while [0, 2] has length 2
        rule = positive_quadrature(integral_moments(6, 0.0, 1.0), 28)
        report = rule_certificate(dataclasses.replace(rule, spec=integral_moments(6, 0.0, 2.0)))
        assert not report["basis_exactness"].passed

    def test_tol_sets_the_thresholds(self):
        # a rule off its moments by 1e-6 of ||moments|| passes at tol 1e-5 and fails at 1e-9
        rule = positive_quadrature(integral_moments(4, 0.0, 1.0), 40)
        off = dataclasses.replace(rule, weights=rule.weights * (1.0 + 1e-6))
        assert rule_certificate(off, tol=1e-5).passed
        assert not rule_certificate(off)["basis_exactness"].passed
        # nodes 1e-7 past b = 1: inside tol ||(a, b)|| = 1e-6, outside 1e-9
        past = dataclasses.replace(rule, nodes=rule.nodes + 1e-7 * (rule.nodes == rule.nodes.max()))
        assert rule_certificate(past, tol=1e-6)["nodes_in_interval"].passed
        assert not rule_certificate(past)["nodes_in_interval"].passed


class TestUnits:
    @pytest.mark.parametrize("width", [1e-10, 1e-14, 1e6])
    def test_narrow_and_wide_intervals(self, width):
        # the fit's tolerance is relative: [0, 1e-10] and [0, 1e-14] missed by
        # 2.7e-8 and 1.0 when weights at or below 1e-12 were dropped
        rule = positive_quadrature(integral_moments(6, 0.0, width), 56)
        assert rule_certificate(rule).passed
        unit = positive_quadrature(integral_moments(6, 0.0, 1.0), 56)
        assert rule.nodes.size == unit.nodes.size
        assert np.isclose(rule.weights.sum(), width, rtol=1e-12, atol=0.0)
