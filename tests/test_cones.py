import numpy as np
import pytest

import conecert.cones
from conecert import (
    ProjectionResult,
    nnls,
    positive_relative_test,
    project_dual,
    project_generated,
    verify_characterization,
    zig_decompose,
)
from conecert.cones import dual_projection_certificate, generated_projection_certificate
from oracles import (
    dual_cone_rays,
    dual_projection_bruteforce,
    null_space_part,
    orthonormal_dual_projection,
    pinv,
    random_cone_instance,
    zig_statement_flags,
)

# the worked two-generator example: C = {y : <y, k> >= 0 for both k}
K_EXAMPLE = [np.array([0.0, -1.0]), np.array([1.0, 1.0])]


class TestContains:
    """Membership in the dual-form cone C, decided by the ``point_in_cone`` check."""

    def test_dual_form_feasible_point(self):
        # (2, 0) satisfies both cone inequalities
        assert verify_characterization(K_EXAMPLE, [2.0, 1.0], [2.0, 0.0])["point_in_cone"].passed

    def test_dual_form_infeasible_point(self):
        # (2, 1) has <(2, 1), k_1> = -1
        report = verify_characterization(K_EXAMPLE, [2.0, 1.0], [2.0, 1.0])
        assert report["point_in_cone"].residual == 1.0
        assert not report["point_in_cone"].passed


class TestPositiveRelative:
    def test_coordinate_cone(self):
        res = positive_relative_test([[1.0, 0.0], [0.0, 1.0]], [1.0, 2.0])
        assert res.positive
        assert np.allclose(res.rho, [1.0, 2.0], atol=1e-12)

    def test_opposite_ray(self):
        res = positive_relative_test([[1.0, 0.0]], [-1.0, 0.0])
        assert not res.positive
        assert np.allclose(res.witness, [-1.0, 0.0], atol=1e-12)

    def test_two_generator_combination(self):
        res = positive_relative_test(K_EXAMPLE, [2.0, 1.0])
        assert res.positive
        assert np.allclose(res.rho, [1.0, 2.0], atol=1e-10)

    def test_generated_off_ray(self):
        assert not positive_relative_test([np.array([1.0, 0.0])], [0.0, 1.0]).positive

    def test_empty_generators(self):
        assert not positive_relative_test((), [1.0, 2.0]).positive
        assert positive_relative_test((), [0.0, 0.0]).positive

    def test_witness_separates(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            S, x = random_cone_instance(rng, d_max=5, m_max=5)
            res = positive_relative_test(list(S.T), x)
            if res.positive:
                assert np.linalg.norm(S @ res.rho - x) <= 1e-9 * (1.0 + np.linalg.norm(x))
            else:
                w = res.witness
                assert float(x @ w) > 0.0
                slack = 1e-9 * (1.0 + np.linalg.norm(x)) * np.linalg.norm(S, axis=0)
                assert np.all(S.T @ w <= slack + 1e-15)


class TestProjectGenerated:
    def test_fixed_point_inside(self):
        rng = np.random.default_rng(37)
        S = rng.standard_normal((3, 4))
        x = S @ rng.uniform(0.2, 1.0, size=4)
        res = project_generated(list(S.T), x)
        assert np.linalg.norm(res.point - x) <= 1e-9 * (1.0 + np.linalg.norm(x))
        assert res.kkt_residual <= 1e-9 * (1.0 + np.linalg.norm(x))

    def test_worked_example_via_moreau(self):
        res = project_generated(K_EXAMPLE, [-2.0, -1.0])
        assert np.allclose(res.point, [0.0, -1.0], atol=1e-12)

    def test_single_ray_formula(self):
        res = project_generated([[1.0, 1.0]], [1.0, 0.0])
        assert np.allclose(res.point, [0.5, 0.5], atol=1e-12)

    def test_certificate_recomputes_reported_residuals(self):
        # the point 0 with rho = 0 reports zero residuals, but x - 0 = (1, 2)
        # has positive products with both generators
        forged = ProjectionResult(np.zeros(2), np.zeros(2), np.zeros(0, dtype=int), 0.0, 0.0)
        report = generated_projection_certificate(np.eye(2), [1.0, 2.0], forged)
        assert report["kkt_inequalities"].residual == 2.0
        assert not report["kkt_inequalities"].passed
        assert not report.passed


class TestProjectDual:
    def test_worked_example(self):
        res = project_dual(K_EXAMPLE, [2.0, 1.0])
        assert np.allclose(res.point, [2.0, 0.0], atol=1e-12)
        assert np.allclose(res.rho, [1.0, 0.0], atol=1e-12)
        assert list(res.active) == [0]

    def test_feasible_point_is_fixed(self):
        res = project_dual(K_EXAMPLE, [2.0, 0.0])
        assert np.allclose(res.point, [2.0, 0.0], atol=1e-12)
        assert np.allclose(res.rho, [0.0, 0.0], atol=1e-12)

    def test_two_constraint_case_matches_oracle(self):
        S = np.column_stack(K_EXAMPLE)
        x = np.array([-1.0, -2.0])
        res = project_dual(K_EXAMPLE, x)
        oracle = dual_projection_bruteforce(S, x)
        assert np.allclose(res.point, oracle, atol=1e-9)
        assert np.allclose(res.point, [0.5, -0.5], atol=1e-10)

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(41)
        for _ in range(150):
            S, x = random_cone_instance(rng, d_max=5, m_max=6)
            res = project_dual(list(S.T), x)
            oracle = dual_projection_bruteforce(S, x)
            assert np.linalg.norm(res.point - oracle) <= 1e-8 * (1.0 + np.linalg.norm(x))

    def test_active_count_bounds(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            S, x = random_cone_instance(rng, d_max=6, m_max=8)
            res = project_dual(list(S.T), x)
            d = x.size
            assert res.active.size <= d
            if np.linalg.norm(res.point) > 1e-8:
                assert res.active.size <= d - 1
            if res.active.size:
                assert np.linalg.matrix_rank(S[:, res.active]) == res.active.size

    def test_nonexpansive(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            S, x = random_cone_instance(rng, d_max=5, m_max=6)
            y = x + rng.standard_normal(x.size)
            px = project_dual(list(S.T), x).point
            py = project_dual(list(S.T), y).point
            assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-9


def _duplicated(rng, d, m):
    S = rng.standard_normal((d, m))
    return np.hstack([S, S[:, :2], 3.0 * S[:, :1]])


def _rank_deficient(rng, d, m):
    k = max(1, d - 2)
    return rng.standard_normal((d, k)) @ rng.standard_normal((k, m))


def _near_duplicate(rng, d, m):
    S = rng.standard_normal((d, m))
    return np.hstack([S, S[:, :2] * (1.0 + 1e-9)])


class TestDegenerateGenerators:
    """Repeated and dependent generators: the solver's support stays independent."""

    @pytest.mark.parametrize("make", [_duplicated, _rank_deficient, _near_duplicate])
    def test_projection_and_certificate(self, make):
        rng = np.random.default_rng(107)
        for _ in range(40):
            d = int(rng.integers(2, 6))
            S = make(rng, d, int(rng.integers(2, 6)))
            x = 2.0 * rng.standard_normal(d)
            res = project_dual(list(S.T), x)
            oracle = dual_projection_bruteforce(S, x)
            assert np.linalg.norm(res.point - oracle) <= 1e-8 * (1.0 + np.linalg.norm(x))
            if res.active.size:
                assert np.linalg.matrix_rank(S[:, res.active]) == res.active.size
            assert verify_characterization(list(S.T), x, res.point).passed


class TestProjectOrthonormal:
    """`project_dual` on orthonormal generators, against the closed form
    ``x + sum_i max(0, -<x, k_i>) k_i``."""

    def _both(self, x):
        res = project_dual(np.eye(2), x)
        closed = orthonormal_dual_projection(np.eye(2), x)
        assert np.allclose(res.point, closed, atol=1e-14)
        return res

    def test_single_negative_component(self):
        res = self._both([-1.0, 2.0])
        assert np.allclose(res.point, [0.0, 2.0], atol=1e-14)

    def test_feasible_point(self):
        res = self._both([1.0, 1.0])
        assert np.allclose(res.point, [1.0, 1.0], atol=1e-14)

    def test_both_negative(self):
        res = self._both([-1.0, -2.0])
        assert np.allclose(res.point, [0.0, 0.0], atol=1e-14)

    def test_agrees_with_general_projection(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            d = int(rng.integers(1, 7))
            k = int(rng.integers(1, d + 1))
            Q, _ = np.linalg.qr(rng.standard_normal((d, k)))
            K = list(Q.T)
            x = 2.0 * rng.standard_normal(d)
            closed = orthonormal_dual_projection(Q, x)
            general = project_dual(K, x)
            oracle = dual_projection_bruteforce(Q, x)
            assert np.linalg.norm(closed - general.point) <= 1e-9 * (1.0 + np.linalg.norm(x))
            assert np.linalg.norm(closed - oracle) <= 1e-9 * (1.0 + np.linalg.norm(x))


class TestMoreau:
    """Moreau's split ``x = pc + pdual``, read off `zig_decompose`; ``pc`` is
    `project_generated`'s point."""

    def _split(self, K, x):
        dec = zig_decompose(K, x)
        assert np.array_equal(dec.pc, project_generated(K, x).point)
        return dec

    def test_inside_cone(self):
        ms = self._split([[1.0, 0.0]], [2.0, 0.0])
        assert np.allclose(ms.pc, [2.0, 0.0], atol=1e-12)
        assert np.allclose(ms.pdual, [0.0, 0.0], atol=1e-12)

    def test_inside_dual(self):
        ms = self._split([[1.0, 0.0]], [-1.0, 0.5])
        assert np.allclose(ms.pc, [0.0, 0.0], atol=1e-12)
        assert np.allclose(ms.pdual, [-1.0, 0.5], atol=1e-12)

    def test_axis_split(self):
        ms = self._split([[1.0, 0.0]], [1.0, 1.0])
        assert np.allclose(ms.pc, [1.0, 0.0], atol=1e-12)
        assert np.allclose(ms.pdual, [0.0, 1.0], atol=1e-12)

    def test_identity_and_orthogonality_random(self):
        rng = np.random.default_rng(59)
        for _ in range(300):
            S, x = random_cone_instance(rng, d_max=6, m_max=8)
            ms = self._split(list(S.T), x)
            nx = np.linalg.norm(x)
            assert np.linalg.norm(ms.pc + ms.pdual - x) <= 1e-10 * (1.0 + nx)
            assert abs(float(ms.pc @ ms.pdual)) <= 1e-9 * (1.0 + nx * nx)
            # pdual in the dual cone, pc back in the generated cone
            slack = 1e-8 * (1.0 + nx) * np.linalg.norm(S, axis=0)
            assert np.all(S.T @ ms.pdual <= slack + 1e-15)
            assert positive_relative_test(tuple(S.T), ms.pc, tol=1e-8).positive


class TestBipolarProperty:
    def test_membership_matches_dual_ray_test(self):
        rng = np.random.default_rng(61)
        tested = 0
        while tested < 40:
            d = int(rng.integers(1, 5))
            m = int(rng.integers(d, 7))
            S = rng.standard_normal((d, m))
            if np.linalg.matrix_rank(S) < d:
                continue
            tested += 1
            rays = dual_cone_rays(S)
            points = [2.0 * rng.standard_normal(d) for _ in range(3)]
            points.append(S @ rng.uniform(0.1, 1.0, size=m))
            for x in points:
                member = positive_relative_test(tuple(S.T), x, tol=1e-8).positive
                slack = 1e-8 * (1.0 + np.linalg.norm(x))
                by_rays = all(float(x @ ray) <= slack for ray in rays)
                assert member == by_rays


class TestVerifyCharacterization:
    def test_worked_example_passes(self):
        x = np.array([2.0, 1.0])
        res = project_dual(K_EXAMPLE, x)
        report = verify_characterization(K_EXAMPLE, x, res.point)
        assert report.passed
        assert "fixed_point" not in _names(report)
        assert report["active_count_bound"].passed  # m = 1 <= d - 1 = 1

    def test_trivial_feasible(self):
        report = verify_characterization(K_EXAMPLE, [2.0, 0.0], [2.0, 0.0])
        assert _names(report) == ["fixed_point"]
        assert report.passed

    def test_perturbed_point_fails_orthogonality(self):
        report = verify_characterization(K_EXAMPLE, [2.0, 1.0], [2.0, 0.1])
        assert not report.passed
        assert not report["active_orthogonality"].passed

    def test_witness_certificate(self):
        report = verify_characterization(
            K_EXAMPLE, [2.0, 1.0], [2.0, 0.0], witness_e=np.array([1.0, -0.5])
        )
        assert report["witness_positivity"].passed
        assert report.passed

    def test_nonpositive_witness_fails(self):
        # <k_1, e> = 0 for e = (0, 1): e does not witness a pointed cone
        report = verify_characterization(K_EXAMPLE, [2.0, 1.0], [2.0, 0.0], witness_e=np.array([0.0, 1.0]))
        assert report.checks[0].name == "witness_positivity"
        assert not report["witness_positivity"].passed
        assert not report.passed


def _near_duplicate_instance(s):
    """Dual projection problem s of a near-duplicate generator set: d in
    2..8, m in 1..15 standard normal generators, two of them repeated
    with 1e-9 normal noise, and x of norm scaled by 10^U(-2, 2)."""
    rng = np.random.default_rng(s)
    d = int(rng.integers(2, 9))
    m = int(rng.integers(1, 16))
    K = rng.standard_normal((m, d))
    K = np.vstack([K, K[rng.integers(0, m, size=2)] + 1e-9 * rng.standard_normal((2, d))])
    return K, rng.standard_normal(d) * 10.0 ** rng.uniform(-2, 2)


def _no_solve(*args, **kwargs):
    raise AssertionError("a certificate called the solver")


class TestDualProjectionCertificate:
    """The certificate checks the result's own multipliers and solves nothing."""

    def test_reads_multipliers_without_solving(self, monkeypatch):
        K, x = _recertification_instance(5)
        res = project_dual(K, x)
        monkeypatch.setattr(conecert.cones, "nnls", _no_solve)
        report = dual_projection_certificate(K, x, res)
        assert "fixed_point" not in _names(report)
        assert report.passed

    @pytest.mark.parametrize("seed", [1977, 2142])
    def test_near_duplicate_generators(self, seed):
        # verify_characterization's re-solve of x0 - x stops at residuals
        # 2.6e-8 and 1.0e-8 here, though the point is right; rho reaches it
        K, x = _near_duplicate_instance(seed)
        res = project_dual(K, x)
        report = dual_projection_certificate(K, x, res)
        assert report.passed
        oracle = dual_projection_bruteforce(K.T, x)
        assert np.linalg.norm(res.point - oracle) <= 1e-8 * (1.0 + np.linalg.norm(x))

    def test_negative_multiplier_fails(self):
        # x0 - x = (-1, 1) = S rho with rho = (-1, 1): the point 0 passes
        # every other check, but (1, 0) is the projection of (1, -1)
        forged = ProjectionResult(np.zeros(2), np.array([-1.0, 1.0]), np.array([1]), 0.0, 0.0)
        report = dual_projection_certificate(np.eye(2), [1.0, -1.0], forged)
        assert report["positive_multipliers"].residual == 1.0
        assert not report["positive_multipliers"].passed
        assert [c.name for c in report.checks if not c.passed] == ["positive_multipliers"]

    def test_point_off_its_multipliers_fails(self):
        res = project_dual(K_EXAMPLE, [2.0, 1.0])
        moved = ProjectionResult(res.point + [0.0, 0.5], res.rho, res.active, 0.0, 0.0)
        report = dual_projection_certificate(K_EXAMPLE, [2.0, 1.0], moved)
        assert not report["difference_in_cone"].passed

    def test_same_checks_as_point_only_verification(self):
        for s in range(200):
            K, x = _recertification_instance(s)
            res = project_dual(K, x)
            report = dual_projection_certificate(K, x, res)
            assert _checks(report)[: len(report.checks) - 2] == _checks(verify_characterization(K, x, res.point)), s


def _recertification_instance(s):
    """Dual projection problem s of the face-first equivalence set.

    d in 3..8 and m in d..4d; the kinds cycle with s: plain, three
    duplicated generators, a copied coordinate with every other generator
    scaled by 1e3, and a near-duplicate of the first generator.
    """
    rng = np.random.default_rng(s)
    d = int(rng.integers(3, 9))
    m = int(rng.integers(d, 4 * d + 1))
    K = rng.standard_normal((m, d))
    kind = s % 4
    if kind == 1:
        K = np.vstack([K, K[rng.choice(m, 3, replace=False)]])
    elif kind == 2:
        K[:, 1] = K[:, 0]
        K[::2] *= 1e3
    elif kind == 3:
        K = np.vstack([K, K[0] + 1e-12 * rng.standard_normal(d)])
    return K, 2.0 * rng.standard_normal(d)


def _cold_nnls(S, x, tol=1e-9, prefer=None):
    return nnls(S, x, tol)


def _names(report):
    return [c.name for c in report.checks]


def _checks(report):
    return [(c.name, c.passed) for c in report.checks]


class TestFaceFirstRecertification:
    """The re-solve tries the face of x0 first; the certificate must read
    exactly as after a cold re-solve over all generators."""

    def _both(self, monkeypatch, s):
        K, x = _recertification_instance(s)
        point = project_dual(K, x).point
        face_first = verify_characterization(K, x, point)
        with monkeypatch.context() as patched:
            patched.setattr(conecert.cones, "nnls", _cold_nnls)
            cold = verify_characterization(K, x, point)
        return face_first, cold

    def test_same_checks_as_cold_resolve_600(self, monkeypatch):
        nontrivial = 0
        for s in range(600):
            face_first, cold = self._both(monkeypatch, s)
            assert _checks(face_first) == _checks(cold), s
            nontrivial += "fixed_point" not in _names(cold)
        assert nontrivial > 500

    def test_near_duplicate_seed_63(self, monkeypatch):
        # both twins lie on the face here; a solve that put the whole face
        # into the factor at once kept weight on both and failed
        # active_count_bound, where the face-first pivots pick one
        face_first, cold = self._both(monkeypatch, 63)
        assert "fixed_point" not in _names(cold)
        assert _checks(face_first) == _checks(cold)
        assert face_first["active_count_bound"].passed
        assert face_first.passed


class TestDualConeDecompose:
    """A dual-cone element y (``rho`` all zero) splits as ``y = nu + z`` with
    ``nu = pdual - z`` in the null space of ``S^T``."""

    def test_zero_vector(self):
        dec = zig_decompose([[1.0, 0.0]], [0.0, 0.0])
        assert not dec.rho.any()
        assert np.allclose(dec.pdual - dec.z, 0.0) and np.allclose(dec.eta, 0.0) and np.allclose(dec.z, 0.0)

    def test_null_space_component(self):
        dec = zig_decompose([[1.0, 0.0]], [0.0, 1.0])
        assert not dec.rho.any()
        assert np.allclose(dec.pdual - dec.z, [0.0, 1.0], atol=1e-12)
        assert np.allclose(dec.eta, [0.0], atol=1e-12)
        assert np.allclose(dec.z, [0.0, 0.0], atol=1e-12)

    def test_full_rank_case(self):
        dec = zig_decompose([[1.0, 0.0], [0.0, 1.0]], [-1.0, -2.0])
        assert not dec.rho.any()
        assert np.allclose(dec.pdual - dec.z, [0.0, 0.0], atol=1e-12)
        assert np.allclose(dec.eta, [1.0, 2.0], atol=1e-12)
        assert np.allclose(dec.z, [-1.0, -2.0], atol=1e-12)

    def test_rejects_point_outside(self):
        assert zig_decompose([[1.0, 0.0]], [1.0, 0.0]).rho.any()

    def test_invariants_random(self):
        rng = np.random.default_rng(67)
        for _ in range(100):
            S, x = random_cone_instance(rng, d_max=5, m_max=6)
            y = zig_decompose(list(S.T), x).pdual  # a genuine dual-cone element
            dec = zig_decompose(list(S.T), y, tol=1e-7)
            assert not dec.rho.any()
            nu = dec.pdual - dec.z
            assert abs(float(nu @ dec.z)) <= 1e-8 * (1.0 + float(y @ y))
            assert dec.eta.min(initial=0.0) >= 0.0
            assert np.linalg.norm(nu + dec.z - y) <= 1e-9 * (1.0 + np.linalg.norm(y))
            null_part = null_space_part(S, dec.eta)
            assert np.linalg.norm(null_part) <= 1e-7 * (1.0 + np.linalg.norm(dec.eta))
            assert np.linalg.norm(nu - dec.x0) <= 1e-7 * (1.0 + np.linalg.norm(y))


class TestZigDecompose:
    def test_interior_of_full_rank_cone(self):
        dec = zig_decompose([[1.0, 0.0], [0.0, 1.0]], [1.0, 2.0])
        assert np.allclose(dec.rho, [1.0, 2.0], atol=1e-12)
        assert np.allclose(dec.eta, [0.0, 0.0], atol=1e-12)
        assert np.allclose(dec.x0, [0.0, 0.0], atol=1e-12)
        assert dec.report.passed

    def test_half_plane_split(self):
        dec = zig_decompose([[1.0, 0.0]], [-1.0, 1.0])
        assert np.allclose(dec.rho, [0.0], atol=1e-12)
        assert np.allclose(dec.eta, [1.0], atol=1e-12)
        assert np.allclose(dec.x0, [0.0, 1.0], atol=1e-12)
        assert np.allclose(dec.pdual, [-1.0, 1.0], atol=1e-12)
        assert dec.report.passed

    def test_worked_example_cone(self):
        dec = zig_decompose(K_EXAMPLE, [-2.0, -1.0])
        assert np.allclose(dec.pc, [0.0, -1.0], atol=1e-10)
        assert dec.report.passed

    def test_all_statements_random(self):
        rng = np.random.default_rng(71)
        for _ in range(100):
            S, x = random_cone_instance(rng, d_max=6, m_max=8)
            dec = zig_decompose(list(S.T), x)
            assert dec.report.passed

    def test_duplicated_and_scaled_generators(self):
        # the least-squares solves with S^T must decide every statement as
        # an explicit pseudoinverse does, where S is rank deficient or its
        # columns differ in scale by up to 1e6
        rng = np.random.default_rng(73)
        for trial in range(300):
            S, x = random_cone_instance(rng, d_max=6, m_max=8)
            m = S.shape[1]
            if trial % 3 and m >= 2:
                S[:, 1 : 1 + trial % 3] = S[:, :1]
            S = S * 10.0 ** rng.uniform(-3.0, 3.0, size=m)
            x = x * 10.0 ** rng.uniform(-2.0, 2.0)
            dec = zig_decompose(list(S.T), x)
            flags = {c.name: c.passed for c in dec.report.checks}
            assert flags == zig_statement_flags(S, x, dec.rho), trial
            scale = 1e-9 * (1.0 + np.linalg.norm(x))
            assert np.linalg.norm(dec.z + pinv(S.T) @ dec.eta) <= scale, trial
            dual = zig_decompose(list(S.T), dec.pdual, tol=1e-7)
            assert not dual.rho.any(), trial
            inner = S.T @ dec.pdual
            assert np.linalg.norm(dual.z + pinv(S.T) @ dual.eta) <= scale, trial
            assert np.linalg.norm(dual.x0 - (dec.pdual - pinv(S.T) @ inner)) <= scale, trial


class TestIdentitySemantics:
    def test_equality_and_hash_do_not_raise(self):
        member = positive_relative_test(K_EXAMPLE, [2.0, 1.0])
        res = project_dual(K_EXAMPLE, [2.0, 1.0])
        for obj in (member, res):
            assert obj == obj
            assert hash(obj) == hash(obj)
        assert len({member, res}) == 2
