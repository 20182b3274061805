"""Decisions and pass flags do not depend on units.

The separation theorem is homogeneous: scaling x, a generator, a pair or
the interval changes no cone, no Farkas alternative and no moment cone.
Each property solves a problem and its rescaled copy and compares them
with each other (``P(c x) = c P(x)``), not with an outside solver, so the
file runs without scipy.  Integer data keeps every decision away from its
threshold, so a flag that moves is the rule's doing, not the data's.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conecert import (
    farkas_alternative,
    generalized_farkas,
    integral_moments,
    positive_quadrature,
    positive_relative_test,
    project_dual,
    project_generated,
    span_membership,
    zig_decompose,
)
from conecert.cones import (cone_membership_certificate, dual_projection_certificate, generated_projection_certificate,
                            span_membership_certificate, zig_certificate)
from conecert.farkas import farkas_certificate, implication_certificate
from conecert.quadrature import rule_certificate

# 10^e for e in [lo, hi]
def _powers(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


SCALES = _powers(-12.0, 12.0)


def _cone_problem():
    """``(K, x)``: up to 6 integer generators of R^d and an integer x."""
    return st.integers(1, 4).flatmap(
        lambda d: st.tuples(
            st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d), min_size=0, max_size=6),
            st.lists(st.integers(-3, 3), min_size=d, max_size=d),
        )
    ).map(lambda kx: (np.array(kx[0], dtype=float).reshape(-1, len(kx[1])), np.array(kx[1], dtype=float)))


def _flags(report):
    return {c.name: c.passed for c in report.checks}


def _solves(K, x):
    """Every decision, point and pass flag of the cone solves on ``(K, x)``."""
    out = {}
    for name, solve, certificate in (
        ("cone", positive_relative_test, cone_membership_certificate),
        ("span", span_membership, span_membership_certificate),
    ):
        res = solve(K, x)
        out[name] = (res.member, _flags(certificate(res)))
    for name, solve, certificate in (
        ("generated", project_generated, generated_projection_certificate),
        ("dual", project_dual, dual_projection_certificate),
    ):
        res = solve(K, x)
        out[name] = (res.point, _flags(certificate(res)))
    outcome = farkas_alternative(K, x)
    out["farkas"] = (outcome.tag, _flags(farkas_certificate(outcome)))
    out["zig"] = (None, _flags(zig_certificate(zig_decompose(K, x))))
    return out


def _same(base, other, c=1.0):
    """``other`` is ``base`` with every point multiplied by c."""
    for name, (value, flags) in base.items():
        got, got_flags = other[name]
        assert got_flags == flags, name
        if isinstance(value, np.ndarray):
            assert np.linalg.norm(got - c * value) <= 1e-8 * c * (1.0 + np.linalg.norm(value)), name
        else:
            assert got == value, name


class TestCones:
    @settings(max_examples=150, deadline=None)
    @given(_cone_problem(), SCALES)
    def test_scaling_x(self, problem, c):
        K, x = problem
        _same(_solves(K, x), _solves(K, c * x), c)

    @settings(max_examples=150, deadline=None)
    @given(_cone_problem().flatmap(lambda kx: st.tuples(
        st.just(kx),
        st.lists(SCALES, min_size=len(kx[0]), max_size=len(kx[0])),
        st.permutations(range(len(kx[0]))),
        st.integers(0, max(len(kx[0]) - 1, 0)),
    )))
    def test_scaling_reordering_and_duplicating_generators(self, data):
        (K, x), scales, order, copy = data
        base = _solves(K, x)
        _same(base, _solves(K * np.array(scales)[:, None], x))
        _same(base, _solves(K[list(order)], x))
        if len(K):
            _same(base, _solves(np.vstack([K, K[copy]]), x))


def _pairs_problem():
    """``(S, p, b, r)``: up to 4 integer pairs in R^n, an integer b and a
    half-integer r, so max <b, x> over the system is never r."""
    return st.integers(1, 3).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=1, max_size=4),
            st.lists(st.integers(-3, 5), min_size=4, max_size=4),
            st.lists(st.integers(-3, 3), min_size=n, max_size=n),
            st.integers(-10, 10),
        )
    ).map(lambda d: (np.array(d[0], dtype=float), np.array(d[1][: len(d[0])], dtype=float), np.array(d[2], dtype=float), d[3] + 0.5))


def _decisions(S, p, b, r):
    report = generalized_farkas(list(zip(S, p)), b, r)
    flags = (report.member_plain, report.member_augmented, report.hypothesis_verified, report.sampled_implication_holds)
    return flags, _flags(implication_certificate(report))


class TestPairs:
    @settings(max_examples=150, deadline=None)
    @given(_pairs_problem(), SCALES)
    def test_scaling_the_implication(self, problem, c):
        S, p, b, r = problem
        assert _decisions(S, p, c * b, c * r) == _decisions(S, p, b, r)

    @settings(max_examples=150, deadline=None)
    @given(_pairs_problem().flatmap(lambda d: st.tuples(st.just(d), st.lists(SCALES, min_size=len(d[1]), max_size=len(d[1])))))
    def test_scaling_each_pair(self, data):
        (S, p, b, r), scales = data
        c = np.array(scales)
        assert _decisions(S * c[:, None], p * c, b, r) == _decisions(S, p, b, r)

    @settings(max_examples=150, deadline=None)
    @given(_pairs_problem(), SCALES)
    def test_changing_the_units_of_x(self, problem, c):
        # x -> x / c multiplies every s_j and b by c
        S, p, b, r = problem
        assert _decisions(c * S, p, c * b, r) == _decisions(S, p, b, r)


class TestQuadrature:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 12), st.floats(-3.0, 2.0), st.floats(0.5, 4.0), SCALES)
    def test_scaling_the_interval(self, n, a, length, c):
        grid = 8 * (n + 1)
        rule = positive_quadrature(integral_moments(n, a, a + length), grid)
        scaled = positive_quadrature(integral_moments(n, c * a, c * (a + length)), grid)
        # the rule need not be the same: a symmetric fit has mirror-image
        # rules, and rounding can pick the other one
        assert _flags(rule_certificate(scaled)) == _flags(rule_certificate(rule))
        assert rule_certificate(rule).passed


class TestActivity:
    """Activity is judged on each generator's share ``rho_i ||k_i||`` of the
    projection, and the rank of the active set on unit generators."""

    def test_activity_does_not_depend_on_generator_lengths(self):
        # rho = (1e-6, 1e6): both generators carry weight, as on unit generators
        res = project_dual([[1e6, 0.0], [0.0, 1e-6]], [-1.0, -1.0])
        assert res.active.tolist() == project_dual(np.eye(2), [-1.0, -1.0]).active.tolist() == [0, 1]

    def test_active_set_rank_does_not_depend_on_generator_lengths(self):
        # unscaled, both generators are active and independent; ranked as raw columns,
        # (1e8, 0, -1e8) and (-1e-7, 0, 0) fell under the rank cut-off of the longer one
        K = np.array([[1.0, 0.0, -1.0], [-1.0, 0.0, 0.0]])
        x = np.array([0.0, 0.0, 1.0])
        for scales in ([1.0, 1.0], [1e8, 1e-7]):
            res = project_dual(K * np.array(scales)[:, None], x)
            assert res.active.tolist() == [0, 1]
            report = dual_projection_certificate(res)
            assert report["active_set_independent"].passed and report.passed


class TestRandomSystems:
    """Random systems at the scales where an absolute term in the rule made
    the answers wrong or the certificates unsound."""

    @pytest.mark.parametrize("c", [1e-10, 1e-8, 1e6])
    def test_dual_projection(self, c):
        for s in range(20):
            rng = np.random.default_rng(s)
            K, x = rng.standard_normal((12, 5)), rng.standard_normal(5)
            base, scaled = project_dual(K, x), project_dual(K, c * x)
            assert np.linalg.norm(scaled.point - c * base.point) <= 1e-6 * c * np.linalg.norm(x)
            assert dual_projection_certificate(scaled).passed

    def test_farkas_tag(self):
        for s in range(50):
            rng = np.random.default_rng(1000 + s)
            A, b = rng.standard_normal((4, 5)), rng.standard_normal(5)
            assert farkas_alternative(A, 1e-10 * b).tag == farkas_alternative(A, b).tag

    def test_pairs(self):
        for s in range(50):
            rng = np.random.default_rng(s)
            S, p, b, r = rng.standard_normal((8, 4)), rng.standard_normal(8), rng.standard_normal(4), float(rng.standard_normal())
            base = generalized_farkas(list(zip(S, p)), b, r)
            assert generalized_farkas(list(zip(S, p)), 1e-10 * b, 1e-10 * r).member_augmented == base.member_augmented
            assert implication_certificate(generalized_farkas(list(zip(1e-8 * S, p)), 1e-8 * b, r)).passed
