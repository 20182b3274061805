import numpy as np
import pytest

from conecert import (
    BadInterval,
    MomentFitFailed,
    MomentSpec,
    integral_moments,
    positive_quadrature,
    verify_exactness,
)
from conecert.quadrature import rule_certificate


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
        bad = type(rule)(nodes=rule.nodes, weights=weights, degree=rule.degree, interval=rule.interval)
        assert verify_exactness(bad, 4) >= 0.01

    def test_empty_rule_scores_one(self):
        from conecert import QuadratureRule

        empty = QuadratureRule(nodes=np.zeros(0), weights=np.zeros(0), degree=0, interval=(-1.0, 1.0))
        assert verify_exactness(empty, 0) == 1.0


class TestRuleCertificate:
    def test_honest_rule_scores_its_exactness(self):
        spec = integral_moments(6, 0.0, 1.0)
        rule = positive_quadrature(spec, 28)
        report = rule_certificate(spec, rule)
        assert report.passed
        assert report["basis_exactness"].residual == verify_exactness(rule, 6)

    def test_moments_come_from_the_spec(self):
        # the weights of a rule for [0, 1] sum to 1, while [0, 2] has length 2
        rule = positive_quadrature(integral_moments(6, 0.0, 1.0), 28)
        report = rule_certificate(integral_moments(6, 0.0, 2.0), rule)
        assert not report["basis_exactness"].passed
