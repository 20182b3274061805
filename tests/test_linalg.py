import numpy as np
import pytest

from conecert import (
    IterationLimit,
    caratheodory_reduce,
    matrix_rank,
    nnls,
    span_membership,
    svd_factors,
)
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
        res = span_membership(gamma[0], gamma)
        assert res.member
        assert np.allclose(res.coefficients, [1.0, 0.0], atol=1e-12)

    def test_orthogonal_complement(self):
        res = span_membership([0.0, 1.0], [[1.0, 0.0]])
        assert not res.member
        assert np.allclose(res.residual, [0.0, 1.0], atol=1e-14)

    def test_two_by_two_solve(self):
        res = span_membership([3.0, 1.0], [[1.0, 1.0], [1.0, -1.0]])
        assert res.member
        assert np.allclose(res.coefficients, [2.0, 1.0], atol=1e-12)

    def test_empty_gamma_denotes_zero_span(self):
        assert span_membership([0.0, 0.0], []).member
        assert not span_membership([1e-3, 0.0], []).member

    def test_witness_property_random(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            d = int(rng.integers(2, 7))
            k = int(rng.integers(1, d))
            gamma = [rng.standard_normal(d) for _ in range(k)]
            x = rng.standard_normal(d)
            res = span_membership(x, gamma)
            if res.member:
                continue
            r = res.residual
            assert float(x @ r) > 0.0
            assert abs(float(x @ r) - float(r @ r)) <= 1e-9 * (1.0 + float(x @ x))
            G = np.column_stack(gamma)
            assert float(np.abs(G.T @ r).max()) <= 1e-9 * (1.0 + np.linalg.norm(x))


class TestNnls:
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

    def test_iteration_limit_raised(self):
        with pytest.raises(IterationLimit):
            nnls(np.eye(2), [1.0, 1.0], max_pivots=0)

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


def _objective_matches_oracle(S, x, res, rel=1e-9):
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
            assert matrix_rank(S[:, support]) == support.size
            best, _ = nnls_bruteforce(S, x)
            assert abs(float(res.residual @ res.residual) - best) <= 1e-12 * (1.0 + float(x @ x))

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


class TestNnlsPrefer:
    def test_none_and_empty_are_a_cold_call(self):
        rng = np.random.default_rng(59)
        for _ in range(200):
            S, x = random_cone_instance(rng, d_max=6, m_max=9)
            cold = nnls(S, x)
            for prefer in (None, [], np.zeros(0, dtype=int)):
                res = nnls(S, x, prefer=prefer)
                assert np.array_equal(res.rho, cold.rho)
                assert res.pivots == cold.pivots

    def test_random_preferences_keep_kkt_and_optimum(self):
        rng = np.random.default_rng(61)
        for trial in range(300):
            S, x = random_cone_instance(rng, d_max=6, m_max=6)
            if trial % 3 == 0:
                S = np.hstack([S, S[:, :1]])  # a repeated column
            prefer = np.flatnonzero(rng.random(S.shape[1]) < 0.5)
            res = nnls(S, x, prefer=prefer)
            assert _kkt_holds(S, x, res)
            best, _ = nnls_bruteforce(S, x)
            assert abs(float(res.residual @ res.residual) - best) <= 1e-9 * (1.0 + float(x @ x))

    def test_cold_support_as_preference_reproduces_rho(self):
        rng = np.random.default_rng(67)
        for _ in range(200):
            d = int(rng.integers(2, 9))
            S = rng.standard_normal((d, int(rng.integers(1, 4 * d))))
            x = 2.0 * rng.standard_normal(d)
            cold = nnls(S, x)
            res = nnls(S, x, prefer=set(np.flatnonzero(cold.rho).tolist()))
            assert np.linalg.norm(res.rho - cold.rho) <= 1e-12 * np.linalg.norm(cold.rho)

    @pytest.mark.parametrize("prefer", [[3], [-1], [0, 7], [0.0], [1.5], ["a"]])
    def test_rejects_indices_that_name_no_column(self, prefer):
        with pytest.raises(ValueError):
            nnls(np.eye(3), [1.0, 2.0, 3.0], prefer=prefer)


class TestCaratheodoryReduce:
    def test_duplicate_merge(self):
        res = caratheodory_reduce([[1.0, 0.0], [1.0, 0.0]], [1.0, 1.0])
        assert res.indices.size == 1
        assert np.isclose(res.weights.sum(), 2.0, atol=1e-12)

    def test_independent_set_unchanged(self):
        res = caratheodory_reduce([[1.0, 0.0], [0.0, 1.0]], [1.0, 2.0])
        assert list(res.indices) == [0, 1]
        assert np.allclose(res.weights, [1.0, 2.0], atol=1e-12)

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
                assert matrix_rank(sel) == res.indices.size
                err = np.linalg.norm(sel @ res.weights - target)
            else:
                err = np.linalg.norm(target)
            assert err <= 1e-10 * (1.0 + np.linalg.norm(target))
