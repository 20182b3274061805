import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conecert.cones
from conecert import (
    Membership,
    ProjectionResult,
    nnls,
    positive_relative_test,
    project_dual,
    project_generated,
    span_membership,
    verify_characterization,
    zig_decompose,
)
from conecert.cones import _characterization, dual_projection_certificate, generated_projection_certificate, zig_certificate
from conecert.linalg import _lengths
from test_cli import K as K_POINTED, X as X_POINTED
from oracles import (
    dual_cone_rays,
    dual_projection_bruteforce,
    monotone_generators,
    null_space_part,
    orthant_projection,
    orthonormal_dual_projection,
    pava,
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
        assert res.member
        assert np.allclose(res.coefficients, [1.0, 2.0], atol=1e-12)

    def test_opposite_ray(self):
        res = positive_relative_test([[1.0, 0.0]], [-1.0, 0.0])
        assert not res.member
        assert np.allclose(res.witness, [-1.0, 0.0], atol=1e-12)

    def test_two_generator_combination(self):
        res = positive_relative_test(K_EXAMPLE, [2.0, 1.0])
        assert res.member
        assert np.allclose(res.coefficients, [1.0, 2.0], atol=1e-10)

    def test_generated_off_ray(self):
        assert not positive_relative_test([np.array([1.0, 0.0])], [0.0, 1.0]).member

    def test_empty_generators(self):
        assert not positive_relative_test((), [1.0, 2.0]).member
        assert positive_relative_test((), [0.0, 0.0]).member

    def test_witness_separates(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            S, x = random_cone_instance(rng, d_max=5, m_max=5)
            res = positive_relative_test(list(S.T), x)
            if res.member:
                assert np.linalg.norm(S @ res.coefficients - x) <= 1e-9 * (1.0 + np.linalg.norm(x))
            else:
                w = res.witness
                assert float(x @ w) > 0.0
                slack = 1e-9 * (1.0 + np.linalg.norm(x)) * np.linalg.norm(S, axis=0)
                assert np.all(S.T @ w <= slack + 1e-15)


class TestMembership:
    """Both membership tests return one `Membership`: coefficients exactly
    for a member, a witness exactly otherwise."""

    @pytest.mark.parametrize("test", [positive_relative_test, span_membership])
    def test_one_certificate_per_outcome(self, test):
        rng = np.random.default_rng(41)
        outcomes = set()
        for _ in range(100):
            S, x = random_cone_instance(rng, d_max=5, m_max=5)
            res = test(list(S.T), x)
            assert isinstance(res, Membership)
            assert type(res.member) is bool
            assert (res.coefficients is not None) is res.member
            assert (res.witness is None) is res.member
            outcomes.add(res.member)
        assert outcomes == {True, False}


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
        forged = dataclasses.replace(project_generated(np.eye(2), [1.0, 2.0]), point=np.zeros(2), rho=np.zeros(2))
        report = generated_projection_certificate(forged)
        assert report["kkt_inequalities"].residual == 2.0
        assert not report["kkt_inequalities"].passed
        assert not report.passed


class TestProjectionResult:
    def test_active_is_read_off_rho(self):
        # 1e-12 is below the activity threshold 1e-10 * max rho = 2e-10
        res = ProjectionResult("dual", np.zeros(3), np.array([0.0, 2.0, 1e-12, 0.5]), np.zeros((3, 4)), np.zeros(3))
        assert res.active.tolist() == [1, 3]
        stored = {f.name for f in dataclasses.fields(res)}
        assert stored.isdisjoint({"active", "kkt_residual", "orthogonality_residual"})


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
            assert positive_relative_test(tuple(S.T), ms.pc, tol=1e-8).member


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
                member = positive_relative_test(tuple(S.T), x, tol=1e-8).member
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

    def test_witness_of_the_wrong_length(self):
        with pytest.raises(ValueError, match="witness_e has length 3, expected 2"):
            verify_characterization([[1, 0], [0, 1]], [-1, -1], [0, 0], witness_e=[1, 0, 0])

    def test_point_of_the_wrong_length(self):
        with pytest.raises(ValueError, match="x0 has length 3, expected 2"):
            verify_characterization([[1, 0], [0, 1]], [-1, -1], [0, 0, 0])


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
        report = dual_projection_certificate(res)
        assert "fixed_point" not in _names(report)
        assert report.passed

    @pytest.mark.parametrize("seed", [1977, 2142])
    def test_near_duplicate_generators(self, seed):
        # verify_characterization's re-solve of x0 - x stops at residuals
        # 2.6e-8 and 1.0e-8 here, though the point is right; rho reaches it
        K, x = _near_duplicate_instance(seed)
        res = project_dual(K, x)
        report = dual_projection_certificate(res)
        assert report.passed
        oracle = dual_projection_bruteforce(K.T, x)
        assert np.linalg.norm(res.point - oracle) <= 1e-8 * (1.0 + np.linalg.norm(x))

    def test_negative_multiplier_fails(self):
        # x0 - x = (-1, 1) = S rho with rho = (-1, 1): the point 0 passes
        # every other check, but (1, 0) is the projection of (1, -1)
        forged = dataclasses.replace(project_dual(np.eye(2), [1.0, -1.0]), point=np.zeros(2), rho=np.array([-1.0, 1.0]))
        report = dual_projection_certificate(forged)
        assert report["positive_multipliers"].residual == 1.0
        assert not report["positive_multipliers"].passed
        assert [c.name for c in report.checks if not c.passed] == ["positive_multipliers"]

    def test_point_off_its_multipliers_fails(self):
        res = project_dual(K_EXAMPLE, [2.0, 1.0])
        moved = dataclasses.replace(res, point=res.point + [0.0, 0.5])
        report = dual_projection_certificate(moved)
        assert not report["difference_in_cone"].passed

    def test_witness_is_part_of_the_problem(self):
        # every generator of the cli's pointed cone has a positive first coordinate
        res = project_dual(K_POINTED, X_POINTED, witness_e=[1, 0, 0, 0])
        report = dual_projection_certificate(res)
        assert np.array_equal(res.witness_e, [1.0, 0.0, 0.0, 0.0])
        assert report.checks[0].name == "witness_positivity"
        assert report.passed
        # <k, e> < 0 for some generator, and the projection itself is right
        off = dual_projection_certificate(project_dual(K_POINTED, X_POINTED, witness_e=[0, 1, 0, 0]))
        assert [c.name for c in off.checks if not c.passed] == ["witness_positivity"]
        assert project_generated(K_POINTED, X_POINTED).witness_e is None

    def test_witness_of_the_wrong_length(self):
        with pytest.raises(ValueError, match="witness_e has length 2, expected 4"):
            project_dual(K_POINTED, X_POINTED, witness_e=[1.0, 0.0])

    def test_sign_checks_do_not_underflow(self):
        # <k, e> = 1e-400 and <k, x> = -1e-400 underflow to zero as raw products;
        # the other failures of this report come from nnls's raw scores
        K, x, e = [[1e-200, 0.0]], [-1e-200, 1e-200], [1e-200, 0.0]
        res = project_dual(K, x, witness_e=e)
        for report in (dual_projection_certificate(res), verify_characterization(K, x, res.point, witness_e=e)):
            assert report["witness_positivity"].passed
            assert report["infeasible_direction_exists"].passed

    def test_same_checks_as_point_only_verification(self):
        for s in range(200):
            K, x = _recertification_instance(s)
            res = project_dual(K, x)
            report = dual_projection_certificate(res)
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


def _names(report):
    return [c.name for c in report.checks]


def _checks(report):
    return [(c.name, c.passed) for c in report.checks]


class TestFaceFirstRecertification:
    """x0 - x is fitted by one solve over all generators started from the
    face of x0; the certificate must read exactly as with one cold solve."""

    def _both(self, monkeypatch, K, x, point):
        """The face-first report, the cold report, and the solves the
        face-first one made, each as its start support and its rho."""
        solves = []

        def counted(S, b, tol, support=None):
            res = nnls(S, b, tol, support)
            solves.append((support, res.rho))
            return res

        with monkeypatch.context() as patched:
            patched.setattr(conecert.cones, "nnls", counted)
            face_first = verify_characterization(K, x, point)
        S = K.T
        cold = _characterization(S, x, point, 1e-9, None, lambda diff, face: nnls(S, diff, 1e-9).rho, _lengths(S))
        return face_first, cold, solves

    def test_same_checks_as_cold_resolve_600(self, monkeypatch):
        # each projection, and the same point moved 1% of ||x||: the moved
        # points' differences miss the face's cone, so the solve carries on past it
        nontrivial = off_face = 0
        for s in range(600):
            K, x = _recertification_instance(s)
            point = project_dual(K, x).point
            face_first, cold, solves = self._both(monkeypatch, K, x, point)
            assert _checks(face_first) == _checks(cold), s
            assert len(solves) <= 1, s
            nontrivial += "fixed_point" not in _names(cold)
            direction = np.random.default_rng(10_000 + s).standard_normal(x.size)
            moved = point + 0.01 * np.linalg.norm(x) * direction / np.linalg.norm(direction)
            face_first, cold, solves = self._both(monkeypatch, K, x, moved)
            assert _checks(face_first) == _checks(cold), s
            assert len(solves) <= 1, s
            if solves:
                face, rho = solves[0]
                off_face += bool(np.delete(rho, face).any())
        assert nontrivial > 500
        assert off_face > 500

    def test_face_is_a_start_only_where_it_can_be_the_support(self, monkeypatch):
        # at x0 = 0, or with more than d generators, set-up would factor the face
        # and the inner loop drop most of it again: there the solve is cold, and
        # a started solve hardly ever takes more pivots than a cold one
        started = slower = 0
        for s in range(600):
            K, x = _recertification_instance(s)
            point = project_dual(K, x).point
            solves = []

            def counted(S, b, tol, support=None):
                solves.append((support, nnls(S, b, tol, support)))
                return solves[-1][1]

            with monkeypatch.context() as patched:
                patched.setattr(conecert.cones, "nnls", counted)
                verify_characterization(K, x, point)
            if not solves:
                continue
            [(support, res)] = solves
            limit = 1e-9 * np.linalg.norm(x)
            face = np.flatnonzero(np.abs(K @ point) / np.linalg.norm(K, axis=1) <= limit)
            if np.linalg.norm(point) > limit and face.size <= x.size:
                assert np.array_equal(support, face), s
                started += 1
                slower += res.pivots > nnls(K.T, point - x).pivots
            else:
                assert support is None, s
        assert started > 100
        assert slower <= 1

    def test_near_duplicate_seed_63(self, monkeypatch):
        # both twins lie on the face here; a start factored at the rank rule
        # d eps kept weight on both and failed active_count_bound, where the
        # start's rule max(tol, d eps) drops the second twin at set-up
        K, x = _recertification_instance(63)
        face_first, cold, _ = self._both(monkeypatch, K, x, project_dual(K, x).point)
        assert "fixed_point" not in _names(cold)
        assert _checks(face_first) == _checks(cold)
        assert face_first["active_count_bound"].passed
        assert face_first.passed


# vectors of length 1..200 made of constant runs of small integers, so
# with ties, times a scale
_RUNS = st.tuples(
    st.lists(st.tuples(st.integers(-20, 20), st.integers(1, 30)), min_size=1, max_size=40),
    st.floats(1e-6, 1e6),
).map(lambda runs_scale: runs_scale[1] * np.repeat(*np.array(runs_scale[0]).T)[:200].astype(float))


def _random_walk(d, seed):
    """A random walk of d unit normal steps plus unit normal noise."""
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.standard_normal(d)) + rng.standard_normal(d)


class TestKnownAnswerCones:
    """The monotone cone (rows e_{i+1} - e_i) against pool-adjacent-violators
    and the orthant (rows e_i) against max(x, 0): dual-form cones whose
    projections have closed forms independent of the library."""

    @settings(max_examples=100, deadline=None)
    @given(_RUNS)
    def test_monotone_cone_is_pava(self, x):
        K, fit = monotone_generators(x.size), pava(x)
        assert np.linalg.norm(project_dual(K, x).point - fit) <= 1e-10 * np.linalg.norm(x)
        assert verify_characterization(K, x, fit).passed

    @settings(max_examples=100, deadline=None)
    @given(_RUNS)
    def test_orthant_is_max_with_zero(self, x):
        K, fit = np.eye(x.size), orthant_projection(x)
        assert np.linalg.norm(project_dual(K, x).point - fit) <= 1e-10 * np.linalg.norm(x)
        assert verify_characterization(K, x, fit).passed

    @pytest.mark.parametrize("d", [50, 200, 500])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_start_at_pavas_ties_returns_in_one_pivot(self, d, seed):
        # project_dual's solve, started from the constraints PAVA's fit holds
        # with equality; cold, it takes one pivot per entering constraint
        x = _random_walk(d, seed)
        S, fit = monotone_generators(d).T, pava(x)
        res = nnls(S, -x, support=np.flatnonzero(np.diff(fit) == 0.0))
        assert res.pivots == 1
        assert np.linalg.norm(x + S @ res.rho - fit) <= 1e-10 * np.linalg.norm(x)
        if d <= 200:
            assert np.linalg.norm(project_dual(S.T, x).point - fit) <= 1e-10 * np.linalg.norm(x)


def _polar_part(S, x):
    """``zig_decompose``'s ``pdual`` of x, a point of the polar cone; 0 when x
    lies in cone(S), where pdual is rounding of 0 whose direction is noise
    and, judged at its own size, not a polar point."""
    if positive_relative_test(list(S.T), x).member:
        return np.zeros_like(x)
    return zig_decompose(list(S.T), x).pdual


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
            y = _polar_part(S, x)  # a genuine dual-cone element
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
        assert zig_certificate(dec).passed

    def test_half_plane_split(self):
        dec = zig_decompose([[1.0, 0.0]], [-1.0, 1.0])
        assert np.allclose(dec.rho, [0.0], atol=1e-12)
        assert np.allclose(dec.eta, [1.0], atol=1e-12)
        assert np.allclose(dec.x0, [0.0, 1.0], atol=1e-12)
        assert np.allclose(dec.pdual, [-1.0, 1.0], atol=1e-12)
        assert zig_certificate(dec).passed

    def test_worked_example_cone(self):
        dec = zig_decompose(K_EXAMPLE, [-2.0, -1.0])
        assert np.allclose(dec.pc, [0.0, -1.0], atol=1e-10)
        assert zig_certificate(dec).passed

    def test_tampered_decompositions_fail(self):
        # x = (1, 0) lies in cone{(1, 0)}, not in its polar cone: claiming
        # pc = 0 with all of x in the null space of S^T satisfies (1)-(3)
        dec = zig_decompose([[1.0, 0.0]], [1.0, 0.0])
        zero = np.zeros(2)
        polar = dataclasses.replace(dec, rho=np.zeros(1), pc=zero, pdual=dec.x, x0=dec.x, eta=np.zeros(1), z=zero)
        checks = zig_certificate(polar)
        assert [c.name for c in checks.checks if not c.passed] == ["statement4_projection_formulas"]
        assert checks["statement4_projection_formulas"].residual == 1.0
        # pc that is not S rho
        moved = dataclasses.replace(dec, pc=dec.pc + [0.0, 1.0], x0=dec.x0 - [0.0, 1.0], pdual=dec.pdual - [0.0, 1.0])
        assert [c.name for c in zig_certificate(moved).checks if not c.passed] == ["statement4_projection_formulas"]

    @pytest.mark.parametrize(
        "key, twin, tol, trials",
        [
            # the solve can stop with a product <k_i, pdual> positive inside its
            # slack; a z fitted to eta, where it is clipped to 0, missed statements
            # (1) and (3) by the product over sigma_min
            ([5, 0], 1e-3, 1e-6, (333, 546, 1639)),
            ([5, 2], 1e-3, 1e-6, (826, 1307, 1362, 1612)),
            # twins 1e-6 apart make the span fit's coefficients about 1e6 |x|: with
            # x0 = x - S c taken once, S^T x0 missed statements (2) and (4)
            ([6, 0], 1e-6, 1e-9, (82, 128, 156, 180, 303)),
        ],
    )
    def test_nearly_parallel_generators(self, key, twin, tol, trials):
        # K's last generator is its first plus `twin` N(0, I); of 2,000 cones
        # drawn per key, the trials listed are those the splits above failed
        rng = np.random.default_rng(key)
        for trial in range(max(trials) + 1):
            d, m = int(rng.integers(2, 7)), int(rng.integers(2, 9))
            K = rng.standard_normal((m, d))
            K[-1] = K[0] + twin * rng.standard_normal(d)
            x = rng.standard_normal(d)
            if trial in trials:
                assert zig_certificate(zig_decompose(K, x, tol=tol), tol=tol).passed, trial

    def test_all_statements_random(self):
        rng = np.random.default_rng(71)
        for _ in range(100):
            S, x = random_cone_instance(rng, d_max=6, m_max=8)
            dec = zig_decompose(list(S.T), x)
            assert zig_certificate(dec).passed

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
            flags = {c.name: c.passed for c in zig_certificate(dec).checks}
            assert flags == zig_statement_flags(S, x, dec.rho), trial
            scale = 1e-9 * (1.0 + np.linalg.norm(x))
            assert np.linalg.norm(dec.z + pinv(S.T) @ dec.eta) <= scale, trial
            y = _polar_part(S, x)
            dual = zig_decompose(list(S.T), y, tol=1e-7)
            assert not dual.rho.any(), trial
            inner = S.T @ y
            assert np.linalg.norm(dual.z + pinv(S.T) @ dual.eta) <= scale, trial
            assert np.linalg.norm(dual.x0 - (y - pinv(S.T) @ inner)) <= scale, trial


class TestIdentitySemantics:
    def test_equality_and_hash_do_not_raise(self):
        member = positive_relative_test(K_EXAMPLE, [2.0, 1.0])
        res = project_dual(K_EXAMPLE, [2.0, 1.0])
        for obj in (member, res):
            assert obj == obj
            assert hash(obj) == hash(obj)
        assert len({member, res}) == 2


class TestDerivedResiduals:
    """A projection stores no residuals: ``kkt_residual`` and
    ``orthogonality_residual`` are derived from the problem it holds and
    its rho, as its certificate derives them, and a forged rho or point
    fails the certificate."""

    @pytest.mark.parametrize(
        "solve, certify, kkt_name",
        [(project_generated, generated_projection_certificate, "kkt_inequalities"), (project_dual, dual_projection_certificate, "kkt_residual")],
    )
    def test_forged_rho_or_point_fails(self, solve, certify, kkt_name):
        res = solve(K_EXAMPLE, [2.0, 1.0])
        report = certify(res)
        assert report.passed
        assert report[kkt_name].residual == res.kkt_residual
        assert report["orthogonality"].residual == res.orthogonality_residual
        with pytest.raises(TypeError):
            dataclasses.replace(res, kkt_residual=123.0)
        assert not certify(dataclasses.replace(res, rho=res.rho + [0.5, 0.0])).passed
        assert not certify(dataclasses.replace(res, point=res.point + [0.0, 0.5])).passed
