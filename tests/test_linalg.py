import inspect
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conecert.linalg

from conecert import (FarkasOutcome, FarkasTag, IterationLimit, farkas_alternative, integral_moments, nnls, positive_quadrature,
                      span_membership)
from conecert.cones import span_membership_certificate
from conecert.farkas import farkas_certificate
from conecert.legendre import LegendreBasis, chebyshev_points
from conecert.linalg import _delete_columns, _norm, _products, caratheodory_reduce, svd_factors
from conecert.quadrature import rule_certificate
from oracles import nnls_bruteforce, random_cone_instance

_EPS = float(np.finfo(float).eps)


class TestSvdFactors:
    def test_reconstruction_and_ordering(self):
        rng = np.random.default_rng(5)
        for trial in range(100):
            rows = int(rng.integers(1, 9))
            cols = int(rng.integers(1, 9))
            if trial % 2 == 0:
                k = int(rng.integers(1, min(rows, cols) + 1))
                M = rng.standard_normal((rows, k)) @ rng.standard_normal((k, cols))
            else:
                M = rng.standard_normal((rows, cols))
            f = svd_factors(M)
            s = f.singular_values
            assert np.all(np.diff(s) <= 0.0)
            assert np.all(s > f.rank_tol)
            recon = f.u @ np.diag(s) @ f.vt if f.rank else np.zeros_like(M)
            sigma1 = float(s[0]) if f.rank else 0.0
            bound = 10.0 * _EPS * sigma1 * max(M.shape)
            assert np.linalg.norm(recon - M, 2) <= max(bound, 10.0 * _EPS)


class TestSpanMembership:
    def test_element_of_the_set(self):
        gamma = [np.array([1.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0])]
        res = span_membership(gamma, gamma[0])
        assert res.member
        assert np.allclose(res.coefficients, [1.0, 0.0], atol=1e-12)

    def test_orthogonal_complement(self):
        res = span_membership([[1.0, 0.0]], [0.0, 1.0])
        assert not res.member
        assert np.allclose(res.witness, [0.0, 1.0], atol=1e-14)

    def test_two_by_two_solve(self):
        res = span_membership([[1.0, 1.0], [1.0, -1.0]], [3.0, 1.0])
        assert res.member
        assert np.allclose(res.coefficients, [2.0, 1.0], atol=1e-12)

    def test_empty_gamma_denotes_zero_span(self):
        assert span_membership([], [0.0, 0.0]).member
        assert not span_membership([], [1e-3, 0.0]).member

    def test_empty_gamma_takes_the_membership_rule(self):
        # ||x|| <= 1e-9 ||x|| holds for x = 0 alone, as the rule has no absolute term
        assert span_membership([], [0.0]).member
        assert not span_membership([], [1.0000000005e-9]).member
        assert not span_membership([], [1e-150]).member

    def test_generators_of_r0(self):
        assert conecert.linalg.generator_matrix(np.zeros((3, 0)), dim=0).shape == (0, 3)
        assert span_membership(np.zeros((3, 0)), []).coefficients.shape == (3,)

    def test_generators_of_r0_refused_for_wider_points(self):
        with pytest.raises(ValueError):
            span_membership(np.zeros((3, 0)), [1.0, 2.0, 3.0, 4.0, 5.0])

    def test_generator_width_must_match_point(self):
        with pytest.raises(ValueError, match="vectors of length 5, expected 3"):
            span_membership(np.ones((2, 5)), [1.0, 2.0, 3.0])

    def test_old_argument_order_refused(self):
        # (x, gamma): a 2-d x is not a vector, a 1-d gamma is not a generator set
        with pytest.raises(ValueError, match="expected a vector"):
            span_membership([1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="generators must be vectors sharing one dimension"):
            span_membership([1.0, 0.0], [])

    def test_witness_property_random(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            d = int(rng.integers(2, 7))
            k = int(rng.integers(1, d))
            gamma = [rng.standard_normal(d) for _ in range(k)]
            x = rng.standard_normal(d)
            res = span_membership(gamma, x)
            if res.member:
                continue
            r = res.witness
            assert float(x @ r) > 0.0
            assert abs(float(x @ r) - float(r @ r)) <= 1e-9 * (1.0 + float(x @ x))
            G = np.column_stack(gamma)
            assert float(np.abs(G.T @ r).max()) <= 1e-9 * (1.0 + np.linalg.norm(x))


class TestNorm:
    """`_norm` is ``np.linalg.norm`` where the squares of the entries neither
    underflow nor overflow, and the exact rescaled length elsewhere."""

    def test_matches_numpy_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            M = rng.standard_normal((3, int(rng.integers(1, 6)))) * 10.0 ** rng.uniform(-100.0, 100.0)
            for axis in (None, 0, 1):
                assert np.array_equal(_norm(M, axis), np.linalg.norm(M, axis=axis))

    @pytest.mark.parametrize("power", [-900, -600, 600, 1000])
    def test_rescaling_is_exact(self, power):
        rng = np.random.default_rng(13)
        M = rng.standard_normal((4, 3))
        for axis in (None, 0, 1):
            assert np.array_equal(_norm(np.ldexp(M, power), axis), np.ldexp(np.linalg.norm(M, axis=axis), power))

    @pytest.mark.parametrize(
        "solve, certificate, answer, expected",
        [
            (lambda: farkas_alternative([[1.0]], [-1e-200]), farkas_certificate, "tag", FarkasTag.SYSTEM2),
            (lambda: span_membership([], [1e-300]), span_membership_certificate, "member", False),
            (lambda: span_membership([], [1e200, 1e200]), span_membership_certificate, "member", False),
            # the interval (0, 1e-300) is a tuple whose norm takes the rescaled path
            (lambda: positive_quadrature(integral_moments(3, 0.0, 1e-300), 32), rule_certificate, "degree", 3),
        ],
        ids=["farkas-1e-200", "span-1e-300", "span-1e200", "quadrature-1e-300"],
    )
    def test_decisions_at_the_ends_of_the_float_range(self, solve, certificate, answer, expected):
        # a norm that underflowed to 0 put -1e-200 in the cone of (1) and 1e-300 in the
        # empty span; one that overflowed raised a RuntimeWarning, an error in this suite
        result = solve()
        assert getattr(result, answer) == expected
        assert certificate(result).passed

    def test_underflowing_system1_fails(self):
        # y = 0 leaves A^T y - b = 1e-200, which is not within tol ||b||
        forged = FarkasOutcome(FarkasTag.SYSTEM1, y=np.zeros(1), x=None, A=np.ones((1, 1)), b=np.array([-1e-200]))
        assert not farkas_certificate(forged)["primal_residual"].passed


class TestProducts:
    """`_products` divides each column by a power of two near its length
    before the product, which changes no value in the normal range."""

    def test_matches_raw_products_bit_for_bit(self):
        rng = np.random.default_rng(17)
        for _ in range(500):
            S = rng.standard_normal((4, int(rng.integers(1, 6)))) * 10.0 ** rng.uniform(-100.0, 100.0, size=1)
            w = rng.standard_normal(4) * 10.0 ** rng.uniform(-100.0, 100.0)
            assert np.array_equal(_products(S, w), (S.T @ w) / np.linalg.norm(S, axis=0))

    def test_tiny_generator_and_vector(self):
        # the raw product 1e-400 underflows to 0
        assert _products(np.array([[1e-200]]), np.array([1e-200]))[0] == 1e-200


class TestGeneratorMatrix:
    @pytest.mark.parametrize("vectors", [[1.0, 2.0], np.zeros((2, 2, 2))])
    def test_not_a_set_of_vectors(self, vectors):
        with pytest.raises(ValueError, match="generators must be vectors sharing one dimension"):
            conecert.linalg.generator_matrix(vectors, dim=2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_entries_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="vector entries must be finite"):
            conecert.linalg.generator_matrix([[1.0, 0.0], [0.0, bad]])

    def test_empty_set_needs_dim(self):
        with pytest.raises(ValueError, match="dim is required"):
            conecert.linalg.generator_matrix([])


class TestNnls:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch between S and x"):
            nnls(np.eye(3), [1.0, 2.0])

    def test_coordinate_cone(self):
        res = nnls(np.eye(2), [1.0, -1.0])
        assert np.allclose(res.rho, [1.0, 0.0], atol=1e-12)
        assert np.allclose(res.residual, [0.0, -1.0], atol=1e-12)

    def test_two_generator_projection(self):
        S = np.column_stack([[0.0, -1.0], [1.0, 1.0]])
        res = nnls(S, [-2.0, -1.0])
        assert np.allclose(S @ res.rho, [0.0, -1.0], atol=1e-12)
        assert np.allclose(res.rho, [1.0, 0.0], atol=1e-12)

    def test_single_generator_ray(self):
        S = np.array([[1.0], [1.0]])
        res = nnls(S, [1.0, 0.0])
        assert np.allclose(S @ res.rho, [0.5, 0.5], atol=1e-12)
        assert np.allclose(res.rho, [0.5], atol=1e-12)

    def test_empty_generator_list(self):
        res = nnls(np.zeros((3, 0)), [1.0, 2.0, 3.0])
        assert res.rho.size == 0
        assert np.allclose(res.residual, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("tol", [0.0, -1e-9, float("nan"), float("inf")])
    def test_rejects_tolerance_not_positive_and_finite(self, tol):
        rng = np.random.default_rng(29)
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            nnls(rng.standard_normal((5, 12)), rng.standard_normal(5), tol)

    def test_iteration_limit_raised(self, monkeypatch):
        monkeypatch.setattr(conecert.linalg, "PIVOTS_PER_ENTRY", 0)
        with pytest.raises(IterationLimit):
            nnls(np.eye(2), [1.0, 1.0])

    def test_iteration_limit_raised_on_a_start(self, monkeypatch):
        # the set-up solve is a pivot like any other
        monkeypatch.setattr(conecert.linalg, "PIVOTS_PER_ENTRY", 0)
        with pytest.raises(IterationLimit):
            nnls(np.eye(2), [1.0, 1.0], support=[0, 1])

    @pytest.mark.parametrize("k, j", [(k, j) for k in (-900, 0, 900) for j in (-900, 0, 900) if abs(j - k) <= 900])
    def test_rescaling_is_exact(self, k, j):
        # S and x are divided by powers of two near their largest entries, so the pivots are
        # those at unit scale; past |j - k| = 900, rho itself leaves the float range
        rng = np.random.default_rng(31)
        for _ in range(50):
            S, x = random_cone_instance(rng, d_max=6, m_max=8)
            assert np.array_equal(nnls(np.ldexp(S, k), np.ldexp(x, j)).rho, np.ldexp(nnls(S, x).rho, j - k))

    def test_kkt_conditions_random(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            S, x = random_cone_instance(rng, d_max=6, m_max=6)
            res = nnls(S, x)
            assert res.rho.min(initial=0.0) >= 0.0
            slack = 1e-9 * (1.0 + np.linalg.norm(x)) * np.linalg.norm(S, axis=0)
            grad = S.T @ res.residual
            assert np.all(grad <= slack + 1e-15)
            comp = np.abs(res.rho * grad)
            assert float(comp.max(initial=0.0)) <= 1e-9 * (1.0 + np.linalg.norm(x)) * max(
                1.0, float(np.linalg.norm(S, axis=0).max())
            )

    def test_objective_matches_bruteforce_1000(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            S, x = random_cone_instance(rng, d_max=6, m_max=6)
            res = nnls(S, x)
            obj = float(res.residual @ res.residual)
            best, _ = nnls_bruteforce(S, x)
            assert obj <= best + 1e-9
            assert obj >= best - 1e-9



def _kkt_holds(S, x, res, tol=1e-9):
    """The stopping conditions the nnls docstring states, at its tolerance."""
    colnorm = np.linalg.norm(S, axis=0)
    slack = tol * (1.0 + np.linalg.norm(x)) * colnorm
    grad = S.T @ res.residual
    comp = np.abs(res.rho * grad)
    return (
        res.rho.min(initial=0.0) >= 0.0
        and bool(np.all(grad <= slack + 1e-15))
        and float(comp.max(initial=0.0)) <= tol * (1.0 + np.linalg.norm(x)) * max(1.0, float(colnorm.max(initial=0.0)))
    )


def _objective_matches_oracle(S, x, res, rel=1e-9, best=None):
    """The objective against ``best``, the optimum of an instance built to
    have a known one, or else the optimum by subset enumeration."""
    if best is None:
        # the cone, hence the optimum, does not change when columns are rescaled,
        # so the oracle sees unit columns and its absolute feasibility test stays fair
        colnorm = np.linalg.norm(S, axis=0)
        unit = S / np.where(colnorm > 0.0, colnorm, 1.0)
        best, _ = nnls_bruteforce(unit, x)
    obj = float(res.residual @ res.residual)
    return abs(obj - best) <= rel * (1.0 + float(x @ x))


def _pivots_add_up(res):
    """Each pivot either ends an addition or is a blocking step: the columns
    added are the final support plus every dropped one."""
    return res.pivots == np.count_nonzero(res.rho) + sum(res.drops) + len(res.drops)


def _refuse_linalg(m):
    """Make every `np.linalg` routine but `norm` raise, within the monkeypatch context m."""

    def refuse(*args, **kwargs):
        raise AssertionError("a np.linalg routine was called")

    for name in set(np.linalg.__all__) - {"norm", "LinAlgError"}:
        m.setattr(np.linalg, name, refuse)


@pytest.fixture
def deletions(monkeypatch):
    """`nnls` with every `np.linalg` routine but `norm` (the lengths it takes at
    set-up) made to raise during the call, and the ``(k, hit)`` of each column
    deletion it makes, in order: the support size and the deleted positions.
    A call given a ``support`` may also call `qr` and `inv`, which factor the
    start; each such call is recorded in order too, as ``"qr"`` or ``"inv"``."""
    seen = []
    delete = conecert.linalg._delete_columns

    def spy(F, cols, w, k, hit):
        seen.append((k, tuple(int(h) for h in hit)))
        return delete(F, cols, w, k, hit)

    def recorded(name):
        routine = getattr(np.linalg, name)

        def call(*args, **kwargs):
            seen.append(name)
            return routine(*args, **kwargs)

        return call

    def solve(*args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(conecert.linalg, "_delete_columns", spy)
            setup = {name: recorded(name) for name in ("qr", "inv")} if kwargs.get("support") is not None else {}
            _refuse_linalg(m)
            for name, call in setup.items():
                m.setattr(np.linalg, name, call)
            return nnls(*args, **kwargs)

    return solve, seen


def _legendre_polar_target(grid, points, r):
    """Orthonormal Legendre coefficients of a polynomial q of degree
    len(points) * 2 + r with q^(r) = -prod (t - c)^2 over c in points:
    q^(r) <= 0 on the grid and zero exactly at the points."""
    P = np.polynomial.polynomial
    c = np.array([-1.0])
    for t in points:
        c = P.polymul(c, [t * t, -2.0 * t, 1.0])
    leg = np.polynomial.legendre.poly2leg(P.polyint(c, r))
    return leg * np.sqrt(2.0 / (2 * np.arange(leg.size) + 1))


class TestNnlsFactor:
    def test_blocking_step_drops_one_column(self):
        S = np.array([[-2.0, 2.0, 3.0, -3.0], [-1.0, 1.0, -3.0, 0.0], [1.0, 2.0, 3.0, -1.0]])
        x = np.array([0.0, 0.0, 3.0])
        res = nnls(S, x)
        assert res.drops == (1,)
        assert _pivots_add_up(res)
        assert _kkt_holds(S, x, res)
        assert _objective_matches_oracle(S, x, res)

    def test_blocking_step_drops_two_columns(self):
        S = np.array([[0.0, 1.0, 1.0, -2.0], [0.0, 1.0, 2.0, -1.0], [1.0, 2.0, 0.0, 2.0]])
        x = np.array([2.0, -3.0, 3.0])
        res = nnls(S, x)
        assert res.drops == (2,)
        assert _pivots_add_up(res)
        assert _kkt_holds(S, x, res)
        assert _objective_matches_oracle(S, x, res)

    # Integer instances whose one blocking step deletes a known position.
    # Each case: S, x, drops, and the support size and deleted positions.
    @pytest.mark.parametrize(
        "S, x, drops, deleted",
        [
            pytest.param([[-3, -3, -2, 0], [-2, 2, -3, -2], [3, 2, 3, 1]], [0, -2, 2], (1,), [(3, (0,))], id="first-of-3"),
            pytest.param(
                [[0, 1, -3, -3, 1], [2, 3, 2, 0, 3], [-3, 1, 0, 1, 3], [-2, 2, -3, 0, -3]], [-2, 3, -1, 1], (1,), [(4, (0,))],
                id="first-of-4",
            ),
            pytest.param(
                [[-1, 0, 3, -2, 2, -2], [-1, 3, -1, 0, -1, -3], [-1, 1, 0, 2, -1, 1]], [2, 3, -1], (1,), [(3, (1,))],
                id="middle-of-3",
            ),
            pytest.param(
                [[3, -3, 2, 1, 1, 1], [2, 2, 2, -1, -2, 0], [1, -1, 2, 1, 3, 1], [3, 0, 3, 1, -3, -1]], [-1, 2, 0, -1], (1,),
                [(4, (1,))], id="middle-of-4",
            ),
            # positions 0 and 2 of 4 reach zero at the same step
            pytest.param(
                [[0, -1, -1, 0, 1, -1], [0, 1, 1, -1, 1, 0], [1, -1, -1, -1, 1, -1], [-1, 1, 1, 0, 0, 0]],
                [-2, 1, -2, 0], (2,), [(4, (0, 2))], id="two-non-adjacent",
            ),
        ],
    )
    def test_blocking_step_deletes_a_known_position(self, deletions, S, x, drops, deleted):
        solve, seen = deletions
        S = np.array(S, dtype=float)
        x = np.array(x, dtype=float)
        res = solve(S, x)
        assert res.drops == drops
        assert seen == deleted
        assert _pivots_add_up(res)
        assert _kkt_holds(S, x, res)
        assert _objective_matches_oracle(S, x, res)

    @pytest.mark.parametrize(
        "k, hit",
        [
            (6, [0]),
            (6, [3]),
            (6, [5]),
            (6, [4, 5]),
            (6, [1, 4]),
            (7, [0, 2, 5]),
            (45, [22]),
            (45, [0]),
            (45, [10, 30]),
        ],
    )
    def test_delete_columns_leaves_the_factor_of_the_kept_columns(self, monkeypatch, k, hit):
        rng = np.random.default_rng(k + 100 * hit[0])
        d, m = 60, 80
        A = rng.standard_normal((d, m))
        b = rng.standard_normal(d)
        cols = rng.permutation(m)[:d].astype(np.intp)
        # F = [qtb^T; Q; T] and the multipliers w as `nnls` keeps them, zero past the support
        F = np.zeros((1 + 2 * d, d))
        qtb, Q, T = F[0], F[1 : 1 + d], F[1 + d :]
        q, r = np.linalg.qr(A[:, cols[:k]])
        Q[:, :k], T[:k, :k], qtb[:k] = q, np.linalg.inv(r), q.T @ b
        w = np.zeros(d)
        w[:k] = rng.uniform(0.5, 1.5, size=k)
        hit = np.array(hit)
        w[hit] = 0.0
        held = dict(zip(cols[:k].tolist(), w[:k].tolist()))
        kept = np.delete(cols[:k], hit)
        with monkeypatch.context() as m:
            _refuse_linalg(m)
            k2 = _delete_columns(F, cols, w, k, hit)
        assert k2 == kept.size
        assert np.array_equal(np.sort(cols[:k2]), np.sort(kept))
        Qk, Tk = Q[:, :k2], T[:k2, :k2]
        assert np.linalg.norm(Qk.T @ Qk - np.eye(k2)) <= 1e-13
        assert np.linalg.norm(A[:, cols[:k2]] @ Tk - Qk) <= 1e-13 * np.linalg.norm(Qk)
        assert np.linalg.norm(qtb[:k2] - Qk.T @ b) <= 1e-13 * np.linalg.norm(b)
        # the padding is zero again, and each multiplier moved with its column
        assert not F[:, k2:].any() and not T[k2:].any() and not w[k2:].any()
        assert dict(zip(cols[:k2].tolist(), w[:k2].tolist())) == {c: held[c] for c in kept.tolist()}

    def test_successive_deletions_keep_the_factor_of_near_parallel_pairs(self):
        # each odd column is its even neighbour plus 1e-3 noise; deleting one
        # random position at a time from 60 down to 3 must not let the factor drift
        rng = np.random.default_rng(89)
        d, m = 60, 80
        for _ in range(20):
            A = rng.standard_normal((d, m))
            A[:, 1::2] = A[:, ::2] + 1e-3 * rng.standard_normal((d, m // 2))
            cols = np.arange(d, dtype=np.intp)
            Q, R = np.linalg.qr(A[:, :d])
            F = np.vstack([Q.T @ rng.standard_normal(d), Q, np.linalg.inv(R)])
            Q, T = F[1 : 1 + d], F[1 + d :]
            w = np.zeros(d)
            k = d
            while k > 3:
                k = _delete_columns(F, cols, w, k, np.array([rng.integers(k)]))
                Qk = Q[:, :k]
                assert np.linalg.norm(A[:, cols[:k]] @ T[:k, :k] - Qk) <= 1e-10 * np.linalg.norm(Qk)
                assert not F[:, k:].any() and not T[k:].any()

    def test_in_cone_targets_with_long_blocks_after_the_deleted_column(self, deletions):
        solve, seen = deletions
        rng = np.random.default_rng(73)
        for d in (20, 30, 40, 50, 60):
            for _ in range(2):
                # a pointed cone and a sparse positive combination of its
                # generators: the support grows past the combination's and
                # shrinks back through blocking steps
                S = rng.standard_normal((d, 5 * d))
                S[0] = np.abs(S[0]) + 1.0
                cols = rng.choice(5 * d, size=d // 3, replace=False)
                x = S[:, cols] @ rng.uniform(0.5, 1.5, size=cols.size)
                res = solve(S, x)
                assert len(res.drops) > 0
                assert _pivots_add_up(res)
                assert _kkt_holds(S, x, res)
                assert _objective_matches_oracle(S, x, res, best=0.0)
        # some blocking step kept twenty or more columns after its first deleted position
        assert max(k - hit[0] - len(hit) for k, hit in seen) >= 20

    def test_near_parallel_legendre_representers(self, deletions):
        solve, seen = deletions
        # the shape cone at n = 12, r = 2 on 260 Chebyshev points: the columns
        # are the second-derivative representers, neighbours nearly parallel.
        # The target is a point of the cone of five columns J plus the
        # polynomial q of `_legendre_polar_target` at their points: q is in
        # the polar cone and orthogonal to the five, so the projection is the
        # point and the optimum ||q||^2
        grid = chebyshev_points(260)
        V = LegendreBasis(12).values(grid, 2)
        rng = np.random.default_rng(79)
        for scale in (1e-2, 1.0, 1e2):
            J = np.sort(rng.choice(np.arange(10, 250), size=5, replace=False))
            q = scale * _legendre_polar_target(grid, grid[J], 2)
            assert float((V.T @ q).max()) <= 1e-12 * scale
            x = V[:, J] @ rng.uniform(0.5, 1.5, size=5) + q
            # a tolerance below the default, so that the objective is the
            # optimum to far below the default's slack on columns of norm ~1e4
            res = solve(V, x, tol=1e-12)
            assert len(res.drops) >= 10
            assert _pivots_add_up(res)
            assert _kkt_holds(V, x, res, tol=1e-12)
            assert _objective_matches_oracle(V, x, res, best=float(q @ q))
        # thirty or more blocking steps kept columns after their first deleted position
        assert sum(k - hit[0] - len(hit) > 0 for k, hit in seen) >= 30

    def test_drops_random_against_oracle(self):
        rng = np.random.default_rng(31)
        dropped = 0
        for _ in range(300):
            S = rng.integers(-2, 3, size=(int(rng.integers(2, 6)), int(rng.integers(3, 8)))).astype(float)
            x = rng.integers(-3, 4, size=S.shape[0]).astype(float)
            res = nnls(S, x)
            dropped += len(res.drops)
            assert _pivots_add_up(res)
            assert _kkt_holds(S, x, res)
            assert _objective_matches_oracle(S, x, res)
        assert dropped > 0

    def test_support_grows_to_rank_d(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            d = int(rng.integers(2, 7))
            S = rng.standard_normal((d, 2 * d + 3))
            x = S @ rng.uniform(0.5, 1.5, size=S.shape[1])  # inside the cone
            res = nnls(S, x)
            assert np.count_nonzero(res.rho) == d
            assert np.linalg.norm(res.residual) <= 1e-12 * np.linalg.norm(x)
            assert np.linalg.norm(S @ res.rho - x) <= 1e-12 * np.linalg.norm(x)

    def test_fewer_columns_than_rows(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            d = int(rng.integers(3, 9))
            m = int(rng.integers(1, d))
            S = rng.standard_normal((d, m))
            x = 2.0 * rng.standard_normal(d)
            res = nnls(S, x)
            assert res.rho.shape == (m,)
            assert _kkt_holds(S, x, res)
            assert _objective_matches_oracle(S, x, res)

    def test_near_duplicate_generators_stay_finite(self):
        rng = np.random.default_rng(43)
        cos = 1.0 - 1e-12
        for trial in range(100):
            d = int(rng.integers(2, 6))
            a = rng.standard_normal(d)
            a /= np.linalg.norm(a)
            u = rng.standard_normal(d)
            u -= (u @ a) * a
            u /= np.linalg.norm(u)
            twin = cos * a + np.sqrt(1.0 - cos * cos) * u
            S = np.column_stack([a, twin, rng.standard_normal((d, int(rng.integers(0, 4))))])
            # half the targets sit just off the thin wedge between the twins
            x = a + 10.0 ** rng.uniform(-9, -3) * rng.standard_normal(d) if trial % 2 else rng.standard_normal(d)
            for tol in (1e-9, 1e-12):
                res = nnls(S, x, tol)
                assert np.all(np.isfinite(res.rho))
                assert np.all(np.isfinite(res.residual))
                assert _objective_matches_oracle(S, x, res)

    def test_entering_twins_take_the_second_gram_schmidt_pass(self, monkeypatch):
        # twins a and a + delta u, delta 1e-12 to 1e-6, among random columns scaled
        # by 1e-3 to 1e3: a twin entering beside its sibling leaves at most delta of
        # its length after the first pass, so the second one runs.  At tol = 1e-300
        # every column with a positive gradient past the rank and sign rules enters,
        # so the objective is scipy's to rounding
        scipy_optimize = pytest.importorskip("scipy.optimize")
        together = []
        delete = conecert.linalg._delete_columns

        def spy(F, cols, w, k, hit):
            together.append({0, 1} <= set(cols[:k].tolist()))
            return delete(F, cols, w, k, hit)

        monkeypatch.setattr(conecert.linalg, "_delete_columns", spy)
        rng = np.random.default_rng(103)
        side_by_side = 0
        for _ in range(200):
            d = int(rng.integers(3, 9))
            a = rng.standard_normal(d)
            a /= np.linalg.norm(a)
            u = rng.standard_normal(d)
            u -= (u @ a) * a
            u /= np.linalg.norm(u)
            S = np.column_stack([a, a + 10.0 ** rng.uniform(-12.0, -6.0) * u, rng.standard_normal((d, int(rng.integers(1, 2 * d))))])
            S *= 10.0 ** rng.uniform(-3.0, 3.0, size=S.shape[1])
            x = rng.standard_normal(d)
            together.clear()
            res = nnls(S, x, tol=1e-300)
            # both twins in the support at once, at a blocking step or at the end
            side_by_side += any(together) or bool(res.rho[0] > 0.0 and res.rho[1] > 0.0)
            _, ref_norm = scipy_optimize.nnls(S, x)
            assert abs(float(res.residual @ res.residual) - ref_norm**2) <= 1e-12 * float(x @ x)
            assert _kkt_holds(S, x, res)
        assert side_by_side >= 20

    def test_well_separated_columns_take_one_gram_schmidt_pass(self):
        # unit columns with pairwise cosines at most 0.1, scaled by 1e-3 to 1e3: a
        # column's remainder against k <= 7 others is at least 1 - 7 (0.1)^2 / 0.4 of
        # its squared length, above half, so the second pass never runs
        scipy_optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(107)
        for _ in range(200):
            d = int(rng.integers(3, 9))
            m = int(rng.integers(1, d + 1))
            Q, _ = np.linalg.qr(rng.standard_normal((d, m)))
            U = Q + 0.01 * rng.standard_normal((d, m))
            U /= np.linalg.norm(U, axis=0)
            assert float(np.abs(U.T @ U - np.eye(m)).max()) <= 0.1
            S = U * 10.0 ** rng.uniform(-3.0, 3.0, size=m)
            x = rng.standard_normal(d)
            res = nnls(S, x)
            _, ref_norm = scipy_optimize.nnls(S, x)
            assert abs(float(res.residual @ res.residual) - ref_norm**2) <= 1e-12 * float(x @ x)
            assert _kkt_holds(S, x, res)

    def test_oracle_and_nnls_agree_with_scipy_on_columns_scaled_1e_minus8_to_1e8(self):
        scipy_optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(71)
        for _ in range(1000):
            d = int(rng.integers(2, 6))
            m = int(rng.integers(2, 7))
            S = rng.standard_normal((d, m)) * 10.0 ** rng.uniform(-8.0, 8.0, size=m)
            x = 2.0 * rng.standard_normal(d)
            _, ref_norm = scipy_optimize.nnls(S, x)
            best, _ = nnls_bruteforce(S, x)
            res = nnls(S, x)
            limit = 1e-9 * (1.0 + float(x @ x))
            assert abs(best - ref_norm**2) <= limit
            assert abs(float(res.residual @ res.residual) - ref_norm**2) <= limit

    def test_dependent_entering_column_is_passed_over(self):
        # parallel columns with a slack below rounding: after one of them
        # enters, another can show a positive gradient that is pure rounding
        # and whose remainder is under the rank rule
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.standard_normal(3)
            c = rng.standard_normal(3)
            S = np.column_stack([a, a, c, 2.0 * a])
            x = rng.standard_normal(3)
            res = nnls(S, x, tol=1e-300)
            assert np.all(np.isfinite(res.rho))
            support = np.flatnonzero(res.rho)
            assert np.linalg.matrix_rank(S[:, support]) == support.size
            best, _ = nnls_bruteforce(S, x)
            assert abs(float(res.residual @ res.residual) - best) <= 1e-12 * (1.0 + float(x @ x))

    def test_entering_column_with_a_rounding_multiplier_is_passed_over(self):
        # x = a + u with u orthogonal to both a and c = a + 1e-3 w: after a
        # enters, c's gradient <u, c> is zero up to rounding, and at a slack
        # below rounding a positive one lets c through the stopping test and
        # the rank rule while its trial multiplier has a rounding sign.
        # Entered on a sign at or below zero, c would be dropped at once,
        # leave the factor as it was and be picked again until the pivot
        # budget ran out
        rng = np.random.default_rng(83)
        for _ in range(2000):
            R, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            a, u, w = R.T
            S = np.column_stack([a, a + 1e-3 * w])
            x = a + u
            for tol in (1e-300, 1e-16):
                res = nnls(S, x, tol)
                assert np.all(np.isfinite(res.rho))
                assert abs(float(res.residual @ res.residual) - 1.0) <= 1e-12

    def test_columns_scaled_from_1e_minus6_to_1e6(self):
        rng = np.random.default_rng(47)
        for _ in range(200):
            d = int(rng.integers(2, 6))
            m = int(rng.integers(2, 8))
            S = rng.standard_normal((d, m)) * 10.0 ** rng.uniform(-6.0, 6.0, size=m)
            x = 2.0 * rng.standard_normal(d)
            res = nnls(S, x)
            assert np.all(np.isfinite(res.rho))
            assert _kkt_holds(S, x, res)
            assert _objective_matches_oracle(S, x, res)

    def test_final_support_agrees_with_plain_lstsq(self):
        rng = np.random.default_rng(53)
        for trial in range(300):
            d = int(rng.integers(2, 9))
            m = int(rng.integers(1, 14))
            S = rng.standard_normal((d, m))
            if trial % 3 == 0:
                S *= 10.0 ** rng.uniform(-6.0, 6.0, size=m)
            x = 2.0 * rng.standard_normal(d)
            res = nnls(S, x)
            support = np.flatnonzero(res.rho)
            if support.size == 0:
                continue
            # an SVD solve is not invariant under column scaling (off by 1e-7
            # relative at scalings of 1e12), so it sees unit columns
            B = S[:, support]
            norms = np.linalg.norm(B, axis=0)
            plain, *_ = np.linalg.lstsq(B / norms, x, rcond=None)
            assert np.linalg.norm(res.rho[support] * norms - plain) <= 1e-10 * np.linalg.norm(plain)

    def test_pivots_count_inner_solves(self):
        assert nnls(np.zeros((3, 0)), [1.0, 2.0, 3.0]).pivots == 0
        assert nnls(np.eye(2), [-1.0, -1.0]).pivots == 0
        assert nnls(np.eye(2), [1.0, -1.0]).pivots == 1
        assert nnls(np.eye(3), [1.0, 2.0, 3.0]).pivots == 3

    def test_matches_scipy_on_100_by_1000(self):
        scipy_optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(0)
        S = rng.standard_normal((100, 1000))
        x = rng.standard_normal(100)
        res = nnls(S, x)
        ref, ref_norm = scipy_optimize.nnls(S, x)
        obj = float(res.residual @ res.residual)
        assert abs(obj - ref_norm**2) <= 1e-9 * float(x @ x)
        assert np.array_equal(np.flatnonzero(res.rho), np.flatnonzero(ref))


def _same_objective(S, x, res, cold):
    """``||x - S rho||`` of res within 1e-10 ||x|| of the cold solve's."""
    return abs(np.linalg.norm(res.residual) - np.linalg.norm(cold.residual)) <= 1e-10 * np.linalg.norm(x)


class TestNnlsStart:
    """`nnls` started from a given support."""

    def test_no_support_is_the_cold_solve(self):
        rng = np.random.default_rng(37)
        instances = [random_cone_instance(rng, d_max=6, m_max=8) for _ in range(100)]
        instances.append((rng.standard_normal((60, 300)), rng.standard_normal(60)))
        for S, x in instances:
            cold = nnls(S, x)
            for support in (None, (), np.zeros(0, dtype=int)):
                res = nnls(S, x, support=support)
                assert np.array_equal(res.rho, cold.rho) and np.array_equal(res.residual, cold.residual)
                assert (res.pivots, res.drops) == (cold.pivots, cold.drops)

    @pytest.mark.parametrize("d, m", [(5, 12), (20, 80), (60, 300)])
    def test_the_cold_support_returns_in_one_pivot(self, d, m):
        rng = np.random.default_rng(41 + d)
        for _ in range(20):
            S, x = rng.standard_normal((d, m)), rng.standard_normal(d)
            cold = nnls(S, x)
            res = nnls(S, x, support=np.flatnonzero(cold.rho))
            assert res.pivots == 1 and res.drops == ()
            assert _same_objective(S, x, res, cold)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_any_start_reaches_the_cold_objective(self, data):
        d, m = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 16))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        S = rng.standard_normal((d, m))
        # copies and 1e-12 near-duplicates of other columns
        for i, j, gap in data.draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1), st.sampled_from([0.0, 1e-12])), max_size=4)):
            S[:, j] = S[:, i] + gap * np.linalg.norm(S[:, i]) * rng.standard_normal(d)
        # a target off the cone, or a positive combination of a few columns
        x = rng.standard_normal(d) if data.draw(st.booleans()) else S[:, : min(m, 3)] @ rng.uniform(0.5, 1.5, min(m, 3))
        # any index list, repeats and more than d columns included
        start = data.draw(st.lists(st.integers(0, m - 1), max_size=2 * m))
        res = nnls(S, x, support=start)
        assert _same_objective(S, x, res, nnls(S, x))
        assert _kkt_holds(S, x, res)

    @pytest.mark.parametrize("support", [[-1], [3], [0, 1, 7], [0.0, 1.0], [True, False, True]])
    def test_support_not_column_indices(self, support):
        with pytest.raises(ValueError, match="support must hold column indices"):
            nnls(np.eye(3), [1.0, 2.0, 3.0], support=support)

    def test_start_factored_once_at_set_up(self, deletions):
        # half the answer's support and a quarter of d other columns: entries
        # and blocking steps follow set-up's one qr and one inv, with no
        # LAPACK call of their own
        solve, seen = deletions
        rng = np.random.default_rng(97)
        for d in (10, 20, 40):
            S, x = rng.standard_normal((d, 4 * d)), rng.standard_normal(d)
            cold = nnls(S, x)
            support = np.flatnonzero(cold.rho)
            start = np.concatenate([support[::2], rng.choice(np.setdiff1d(np.arange(4 * d), support), d // 4, replace=False)])
            seen.clear()
            res = solve(S, x, support=start)
            assert seen[:2] == ["qr", "inv"]
            assert "qr" not in seen[2:] and "inv" not in seen[2:]
            assert len(seen) > 4 and len(res.drops) > 2
            assert np.setdiff1d(np.flatnonzero(res.rho), start).size > 2
            assert _same_objective(S, x, res, cold)
            assert _kkt_holds(S, x, res)


def _pointed_cone(rng, d, m):
    """d x m Gaussian generators in the half-space x_0 > 0, as the benchmark's cones."""
    S = rng.standard_normal((d, m))
    S[0] = np.abs(S[0]) + 1.0
    return S


def _unit_shape_representers(r):
    """The 13 x 260 representers of the shape cone at n = 12 on its default grid,
    divided by their lengths, as `project_shape` solves over them."""
    V = LegendreBasis(12).values(chebyshev_points(260), r)
    return V / np.linalg.norm(V, axis=0)


def _traced_states(S, x, **kwargs):
    """`nnls` on (S, x) and the states its factor passes through.

    A state is a dict of copies of `nnls`'s locals F, cols, w, k, A, b, ex
    and eS.  A line tracer takes one as each pivot begins, at ``pivots +=
    1`` (after set-up, an entering step or a deletion; tagged ``"pivot"``),
    and one where the support's least-squares step has been accepted and
    the entering step begins, at ``resid = b - Q @ qtb`` (``"solved"``),
    and the last as it returns (``"return"``).  A spy on `_delete_columns`
    takes ``"before"`` and ``"after"`` around each deletion, with A and b
    of the last state."""
    lines, first = inspect.getsourcelines(conecert.linalg.nnls)
    at = {first + i: tag for i, line in enumerate(lines) for tag, stmt in (("pivot", "pivots += 1"), ("solved", "resid = b - Q @ qtb")) if line.strip() == stmt}
    assert sorted(at.values()) == ["pivot", "solved"]
    code = conecert.linalg.nnls.__code__
    states = []

    def copy(values):
        return {name: np.copy(values[name]) for name in ("F", "cols", "w", "k", "A", "b", "ex", "eS")}

    def line(frame, event, arg):
        if event == "line" and frame.f_lineno in at:
            states.append((at[frame.f_lineno], copy(frame.f_locals)))
        elif event == "return":
            states.append(("return", copy(frame.f_locals)))
        return line

    def call(frame, event, arg):
        return line if frame.f_code is code else None

    delete = conecert.linalg._delete_columns

    def spy(F, cols, w, k, hit):
        last = states[-1][1]
        states.append(("before", copy(dict(last, F=F, cols=cols, w=w, k=k))))
        k = delete(F, cols, w, k, hit)
        states.append(("after", copy(dict(last, F=F, cols=cols, w=w, k=k))))
        return k

    previous = sys.gettrace()
    conecert.linalg._delete_columns = spy
    sys.settrace(call)
    try:
        res = nnls(S, x, **kwargs)
    finally:
        sys.settrace(previous)
        conecert.linalg._delete_columns = delete
    return res, states


def _check_state(tag, s):
    """The kernel's invariants on one state of `_traced_states`."""
    F, cols, w, k, A, b = (s[name] for name in ("F", "cols", "w", "k", "A", "b"))
    k = int(k)
    d = A.shape[0]
    qtb, Q, T = F[0], F[1 : 1 + d], F[1 + d :]
    # the padding: F's columns, T's rows and the multipliers at and past k are exactly zero
    assert not F[:, k:].any() and not T[k:].any() and not w[k:].any()
    Qk, Tk, B = Q[:, :k], T[:k, :k], A[:, cols[:k]]
    assert np.linalg.norm(Qk.T @ Qk - np.eye(k)) <= 1e-12
    R = Qk.T @ B
    # T R = I on the support, and Q spans it
    assert np.linalg.norm(Tk @ R - np.eye(k)) <= 1e-12 * max(1.0, np.linalg.norm(Tk))
    assert np.linalg.norm(B @ Tk - Qk) <= 1e-12 * max(1.0, np.linalg.norm(Tk))
    assert np.linalg.norm(qtb[:k] - Qk.T @ b) <= 1e-13
    assert w.min(initial=0.0) >= 0.0
    if tag == "solved":
        # the support-ordered multipliers are T Q^T b, the least-squares fit of b on cols[:k]
        assert np.linalg.norm(w - T @ qtb) <= 1e-13 * max(1.0, np.linalg.norm(w))
        assert w[:k].min(initial=1.0) > 0.0
        if k:
            fit = np.linalg.lstsq(B, b, rcond=None)[0]
            assert np.linalg.norm(w[:k] - fit) <= 1e-12 * np.linalg.norm(Tk) * max(1.0, np.linalg.norm(fit))


class TestNnlsInvariants:
    """The zero-padded factor and the support-ordered multipliers after every
    pivot and every deletion, and the objective against scipy at the
    benchmark's shapes."""

    def _instances(self):
        rng = np.random.default_rng(109)
        for _ in range(60):
            S, x = random_cone_instance(rng, d_max=6, m_max=12)
            yield S, x, {}
        for d in (20, 60):
            S = _pointed_cone(rng, d, 5 * d)
            cols = rng.choice(5 * d, size=d // 3, replace=False)
            yield S, S[:, cols] @ rng.uniform(0.5, 1.5, size=cols.size), {}
            yield S, -rng.standard_normal(d), {}
            start = rng.choice(5 * d, size=d // 2, replace=False)
            yield S, rng.standard_normal(d), {"support": start}
        for r in (0, 1, 2):
            yield _unit_shape_representers(r), -rng.standard_normal(13), {}
        # candidates passed over by the rank rule (parallel columns) and the sign rule
        # (a gradient and trial multiplier of rounding), at a slack below rounding
        for _ in range(10):
            a, c = rng.standard_normal(3), rng.standard_normal(3)
            yield np.column_stack([a, a, c, 2.0 * a]), rng.standard_normal(3), {"tol": 1e-300}
            a, u, v = np.linalg.qr(rng.standard_normal((3, 3)))[0].T
            yield np.column_stack([a, a + 1e-3 * v]), a + u, {"tol": 1e-300}

    def test_padding_factor_and_multipliers_hold_at_every_step(self):
        seen = dict.fromkeys(("pivot", "solved", "before", "after", "return"), 0)
        for S, x, kwargs in self._instances():
            res, states = _traced_states(S, x, **kwargs)
            for tag, state in states:
                seen[tag] += 1
                _check_state(tag, state)
            for (tag, before), (_, after) in zip(states, states[1:]):
                if tag == "before":
                    # each multiplier moved with its column, and the deleted ones were zero
                    held = dict(zip(before["cols"][: before["k"]].tolist(), before["w"][: before["k"]].tolist()))
                    kept = dict(zip(after["cols"][: after["k"]].tolist(), after["w"][: after["k"]].tolist()))
                    assert all(held[c] == v for c, v in kept.items())
                    assert all(v == 0.0 for c, v in held.items() if c not in kept)
            # rho is the support-ordered multipliers, scattered once at return
            tag, last = states[-1]
            rho = np.zeros(S.shape[1])
            rho[last["cols"][: last["k"]]] = np.ldexp(last["w"][: last["k"]], last["ex"] - last["eS"])
            assert tag == "return" and np.array_equal(res.rho, rho)
        assert seen["before"] == seen["after"] >= 50 and seen["solved"] >= 200

    @pytest.mark.parametrize("shape", ["cone-60x300", "shape-13x260"])
    def test_objective_matches_scipy_at_the_benchmark_shapes(self, shape):
        # the benchmark's solves: 60 x 300 pointed Gaussian cones with targets off the
        # cone, in it (a sparse positive combination) and the negative of one in it, and
        # the shape cone's unit representers at n = 12, r = 0, 1, 2 with random targets
        scipy_optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(113)
        for trial in range(24):
            if shape == "cone-60x300":
                S = _pointed_cone(rng, 60, 300)
                combo = S[:, rng.choice(300, size=20, replace=False)] @ rng.uniform(0.5, 1.5, size=20)
                x = (rng.standard_normal(60), combo, -combo)[trial % 3]
            else:
                S = _unit_shape_representers(trial % 3)
                x = rng.standard_normal(13) * rng.uniform(0.5, 2.0)
            res = nnls(S, x)
            _, ref_norm = scipy_optimize.nnls(S, x)
            assert abs(float(res.residual @ res.residual) - ref_norm**2) <= 1e-9 * float(x @ x)
            assert _kkt_holds(S, x, res)


class TestCaratheodoryReduce:
    def test_duplicate_merge(self):
        res = caratheodory_reduce([[1.0, 0.0], [1.0, 0.0]], [1.0, 1.0])
        assert res.indices.size == 1
        assert np.isclose(res.weights.sum(), 2.0, atol=1e-12)

    def test_independent_set_unchanged(self):
        res = caratheodory_reduce([[1.0, 0.0], [0.0, 1.0]], [1.0, 2.0])
        assert list(res.indices) == [0, 1]
        assert np.allclose(res.weights, [1.0, 2.0], atol=1e-12)

    def test_small_weights_are_kept(self):
        # an independent vector of weight 5e-10 is at nnls's default slack
        res = caratheodory_reduce([[1.0, 0.0], [0.0, 1.0]], [1.0, 5e-10])
        assert list(res.indices) == [0, 1]
        assert np.allclose(res.weights, [1.0, 5e-10], rtol=1e-12, atol=0.0)
        rng = np.random.default_rng(37)
        for _ in range(300):
            d = int(rng.integers(1, 7))
            V = rng.standard_normal((d, int(rng.integers(1, 11))))
            w = 10.0 ** rng.uniform(-12.0, 0.5, size=V.shape[1])
            res = caratheodory_reduce(list(V.T), w)
            sel = V[:, res.indices]
            assert res.indices.size == 0 or np.linalg.matrix_rank(sel) == res.indices.size
            assert np.linalg.norm(sel @ res.weights - V @ w) <= 1e-14 * (1.0 + np.linalg.norm(V @ w))

    def test_three_vectors_in_the_plane(self):
        vectors = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0])]
        res = caratheodory_reduce(vectors, [1.0, 1.0, 1.0])
        assert res.indices.size <= 2
        total = sum(w * vectors[i] for i, w in zip(res.indices, res.weights))
        assert np.allclose(total, [2.0, 2.0], atol=1e-10)
        assert np.all(res.weights > 0.0)

    def test_zero_target_empties(self):
        res = caratheodory_reduce([[1.0, 0.0], [-1.0, 0.0]], [1.0, 1.0])
        total = sum(
            (w * np.array([1.0, 0.0]) if i == 0 else w * np.array([-1.0, 0.0]))
            for i, w in zip(res.indices, res.weights)
        )
        assert np.linalg.norm(np.asarray(total)) <= 1e-12 if res.indices.size else True
        assert res.indices.size <= 1

    def test_is_the_support_of_one_nnls_solve(self, monkeypatch):
        # no SVD or least-squares routine: `nnls` takes only `np.linalg.norm`, at set-up
        calls = []
        solve = conecert.linalg.nnls

        def spy(*args, **kwargs):
            calls.append(solve(*args, **kwargs))
            return calls[-1]

        rng = np.random.default_rng(31)
        V = rng.standard_normal((3, 6))
        V[:, 5] = 2.0 * V[:, 0]
        w = rng.uniform(0.1, 3.0, size=6)
        with monkeypatch.context() as m:
            m.setattr(conecert.linalg, "nnls", spy)
            _refuse_linalg(m)
            res = caratheodory_reduce(list(V.T), w)
        assert len(calls) == 1
        assert np.array_equal(res.indices, np.flatnonzero(calls[0].rho))
        assert np.array_equal(res.weights, calls[0].rho[res.indices])

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            caratheodory_reduce([[1.0, 0.0]], [0.0])

    def test_preserves_sum_and_independence_random(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            d = int(rng.integers(1, 7))
            m = int(rng.integers(1, 11))
            V = rng.standard_normal((d, m))
            if m >= 2 and rng.random() < 0.5:
                V[:, -1] = V[:, 0] * rng.uniform(0.5, 2.0)  # force a dependency
            w = rng.uniform(0.1, 3.0, size=m)
            target = V @ w
            res = caratheodory_reduce(list(V.T), w)
            assert res.indices.size <= d
            assert np.all(res.weights > 0.0)
            if res.indices.size:
                sel = V[:, res.indices]
                assert np.linalg.matrix_rank(sel) == res.indices.size
                err = np.linalg.norm(sel @ res.weights - target)
            else:
                err = np.linalg.norm(target)
            assert err <= 1e-10 * (1.0 + np.linalg.norm(target))
