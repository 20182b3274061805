import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conecert import (
    FarkasOutcome,
    FarkasTag,
    farkas_alternative,
    generalized_farkas,
    verify_outcome,
)
from conecert import farkas
from conecert.farkas import farkas_certificate, implication_certificate, implication_multipliers_hold, infeasibility_residual, violator_holds
from oracles import nnls_bruteforce

# the box |x_i| <= 1
BOX_PAIRS = [(np.array([1.0, 0.0]), 1.0), (np.array([0.0, 1.0]), 1.0), (np.array([-1.0, 0.0]), 1.0), (np.array([0.0, -1.0]), 1.0)]

# a system strictly feasible about 1e3 from the origin whose implication fails:
# linprog's maximiser (-3203.74, -1629.44) gives <b, x> = 0.695 > r
UNDECIDED = {
    "kind": "farkas",
    "pairs": [
        [[-0.016992827689987458, 1.0230709861662282], -1612.4660664007133],
        [[-0.9223527317780604, 0.6094447166785476], 1962.7400429629183],
        [[-0.22409652333839417, 0.19421790271512154], 401.7829462824307],
        [[0.07174953052553523, 0.9362911217747878], -1755.498981666267],
        [[-2.0196125016048723, 0.3230817417792985], 5943.8747165339555],
        [[-1.4944986408123775, 1.2068168345550954], 2821.904651521806],
    ],
    "b": [-0.33728799501759815, 0.6627352508595122],
    "r": -3.2772885997906944,
}


class TestFarkasAlternative:
    def test_identity_system1(self):
        out = farkas_alternative(np.eye(2), [1.0, 1.0])
        assert out.tag is FarkasTag.SYSTEM1
        assert np.allclose(out.y, [1.0, 1.0], atol=1e-12)
        assert verify_outcome(np.eye(2), [1.0, 1.0], out)

    def test_identity_system2(self):
        out = farkas_alternative(np.eye(2), [-1.0, 0.0])
        assert out.tag is FarkasTag.SYSTEM2
        assert np.allclose(out.x, [-1.0, 0.0], atol=1e-12)
        assert verify_outcome(np.eye(2), [-1.0, 0.0], out)

    def test_two_row_system1(self):
        A = np.array([[0.0, -1.0], [1.0, 1.0]])
        out = farkas_alternative(A, [2.0, 1.0])
        assert out.tag is FarkasTag.SYSTEM1
        assert np.allclose(out.y, [1.0, 2.0], atol=1e-10)

    def test_system2_witness_structure(self):
        # complementarity of the construction: <y*, A x> = 0 where y* is
        # the multiplier vector behind the witness
        rng = np.random.default_rng(73)
        seen = 0
        while seen < 50:
            m = int(rng.integers(1, 7))
            n = int(rng.integers(1, 7))
            A = rng.standard_normal((m, n))
            b = rng.standard_normal(n)
            out = farkas_alternative(A, b)
            if out.tag is not FarkasTag.SYSTEM2:
                continue
            seen += 1
            from conecert import nnls

            rho = nnls(A.T, b).rho
            assert abs(float(rho @ (A @ out.x))) <= 1e-9 * (1.0 + np.linalg.norm(b) ** 2)
            assert float(b @ out.x) >= 0.5 * float(out.x @ out.x)

    def test_exclusivity_random(self):
        rng = np.random.default_rng(79)
        both = neither = 0
        for _ in range(300):
            m = int(rng.integers(1, 7))
            n = int(rng.integers(1, 7))
            A = rng.standard_normal((m, n))
            b = rng.standard_normal(n)
            out = farkas_alternative(A, b)
            from conecert import nnls

            sol = nnls(A.T, b)
            cand1 = FarkasOutcome(FarkasTag.SYSTEM1, y=sol.rho, x=None, A=A, b=b)
            cand2 = FarkasOutcome(FarkasTag.SYSTEM2, y=None, x=sol.residual, A=A, b=b)
            ok1 = verify_outcome(A, b, cand1, tol=1e-7)
            ok2 = verify_outcome(A, b, cand2, tol=1e-7)
            if ok1 and ok2:
                both += 1
            if not ok1 and not ok2:
                neither += 1
            assert verify_outcome(A, b, out, tol=1e-7)
        assert both == 0
        assert neither == 0

    @pytest.mark.parametrize("A, b", [([1.0, 0.0], [1.0, 0.0]), (np.eye(2), [1.0, 0.0, 0.0])], ids=["1-d A", "b of the wrong length"])
    def test_malformed_problem_raises(self, A, b):
        with pytest.raises(ValueError):
            farkas_alternative(A, b)

    def test_empty_matrix_is_the_zero_cone(self):
        out = farkas_alternative([], [1.0, 2.0])
        assert out.tag is FarkasTag.SYSTEM2
        assert np.array_equal(out.x, [1.0, 2.0])
        assert out.A.shape == (0, 2)
        assert farkas_certificate(out).passed
        out = farkas_alternative([], [0.0, 0.0])
        assert out.tag is FarkasTag.SYSTEM1
        assert out.y.size == 0
        assert farkas_certificate(out).passed

    @pytest.mark.parametrize("b", [[2.0, 1.0], [-1.0, 0.5], [0.0, 1e160], [0.0, 1e-160]])
    def test_certificate_judges_the_verification(self, b):
        # the residuals are computed once, by `verification`, and are finite at any scale
        out = farkas_alternative([[1.0, 0.0], [1.0, 1.0]], b)
        found = dataclasses.astuple(out.verification)
        assert np.all(np.isfinite(found))
        checks = {c.name: c.residual for c in farkas_certificate(out).checks}
        if out.tag is FarkasTag.SYSTEM1:
            assert (checks["primal_residual"], checks["multipliers_nonnegative"]) == found[:2]
        else:
            assert checks["dual_violation_normalized"] == found[1]
            assert found[2] > 0.0 and checks["strict_gap_positive"] == 0.0


class TestMembershipRule:
    """System 1 exactly when the residual is within ``tol ||b||``, 1e-9 here (a gap of 1e-9 is on it)."""

    @pytest.mark.parametrize("gap, tag", [(5e-8, FarkasTag.SYSTEM2), (5e-9, FarkasTag.SYSTEM2), (1e-9, FarkasTag.SYSTEM1)])
    def test_decision_and_certificate_agree(self, gap, tag):
        A, b = np.array([[1.0, 0.0]]), np.array([1.0, gap])
        out = farkas_alternative(A, b)
        assert out.tag is tag
        if tag is FarkasTag.SYSTEM2:
            assert np.array_equal(out.x, [0.0, gap])
        else:
            assert out.verification.primal_residual == gap
        assert farkas_certificate(out).passed


class TestVerifyOutcome:
    def test_valid_certificate(self):
        out = farkas_alternative(np.eye(3), [1.0, 2.0, 3.0])
        assert verify_outcome(np.eye(3), [1.0, 2.0, 3.0], out)

    def test_judged_against_the_given_problem(self):
        # y = (1, 1) proves system 1 for the b it was solved on, not for (1, 3)
        out = farkas_alternative(np.eye(2), [1.0, 1.0])
        assert farkas_certificate(out).passed
        assert not verify_outcome(np.eye(2), [1.0, 3.0], out)

    def test_zero_inner_product_rejected(self):
        # a "witness" orthogonal to b violates the strict inequality
        A = np.array([[1.0, 0.0]])
        b = np.array([0.0, 1.0])
        fake = FarkasOutcome(FarkasTag.SYSTEM2, y=None, x=np.array([-1.0, 0.0]), A=A, b=b)
        assert not verify_outcome(A, b, fake)

    def test_zero_witness_rejected(self):
        fake = FarkasOutcome(FarkasTag.SYSTEM2, y=None, x=np.zeros(2), A=np.eye(2), b=np.ones(2))
        assert not verify_outcome(np.eye(2), [1.0, 1.0], fake)

    def test_swapped_tag_rejected(self):
        out = farkas_alternative(np.eye(2), [1.0, 1.0])
        swapped = dataclasses.replace(out, tag=FarkasTag.SYSTEM2, y=None, x=out.y)
        assert not verify_outcome(np.eye(2), [1.0, 1.0], swapped)

    def test_negative_multiplier_rejected(self):
        fake = FarkasOutcome(FarkasTag.SYSTEM1, y=np.array([-1.0, 2.0]), x=None, A=np.eye(2), b=np.array([-1.0, 2.0]))
        assert not verify_outcome(np.eye(2), [-1.0, 2.0], fake)


class TestMalformedOutcome:
    """An outcome whose certificate is missing, doubled or of the wrong
    length gets ``certificate_verifies`` as its only, failing, check."""

    @pytest.mark.parametrize(
        "tag, y, x",
        [
            (FarkasTag.SYSTEM1, [1.0, 1.0], [1.0, 1.0]),
            (FarkasTag.SYSTEM2, [1.0, 1.0], [1.0, 1.0]),
            (FarkasTag.SYSTEM1, None, None),
            (FarkasTag.SYSTEM2, None, None),
            (FarkasTag.SYSTEM1, [1.0, 1.0, 1.0], None),
            (FarkasTag.SYSTEM2, None, [1.0]),
        ],
    )
    def test_only_check_fails(self, tag, y, x):
        y, x = (None if v is None else np.array(v) for v in (y, x))
        report = farkas_certificate(FarkasOutcome(tag, y=y, x=x, A=np.eye(2), b=np.ones(2)))
        assert [(c.name, c.residual, c.passed) for c in report.checks] == [("certificate_verifies", 1.0, False)]


class TestGeneralizedFarkas:
    def test_ray_scaling(self):
        report = generalized_farkas([(np.array([1.0, 0.0]), 1.0)], [2.0, 0.0], 2.0)
        assert report.member_plain
        assert report.member_augmented
        assert report.hypothesis_verified

    def test_augmentation_needed(self):
        report = generalized_farkas([(np.array([1.0, 0.0]), 0.0)], [1.0, 0.0], 1.0)
        assert not report.member_plain
        assert report.member_augmented

    def test_violating_feasible_point_found(self):
        report = generalized_farkas([(np.array([1.0, 0.0]), 1.0)], [-1.0, 0.0], -2.0)
        assert not report.member_plain
        assert not report.member_augmented
        assert report.hypothesis_verified
        assert not report.sampled_implication_holds

    def test_membership_monotone_random(self):
        rng = np.random.default_rng(83)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            k = int(rng.integers(1, 5))
            pairs = [(rng.standard_normal(n), float(rng.standard_normal())) for _ in range(k)]
            b = rng.standard_normal(n)
            r = float(rng.standard_normal())
            report = generalized_farkas(pairs, b, r)
            assert (not report.member_plain) or report.member_augmented

    def test_plain_members_with_large_p(self):
        # (b, r) = sum_j lam_j (s_j, p_j) with the p_j up to 1e6 times the
        # s_j: the plain test must be balanced as the augmented one is, or
        # the size of r sets its stopping tolerance and threshold
        rng = np.random.default_rng(3)
        missed = []
        for trial in range(500):
            n = int(rng.integers(1, 4))
            k = int(rng.integers(1, 6))
            S = rng.standard_normal((k, n))
            p = rng.standard_normal(k) * 10.0 ** rng.uniform(0.0, 6.0)
            lam = rng.uniform(0.0, 2.0, size=k)
            report = generalized_farkas(list(zip(S, p)), S.T @ lam, float(lam @ p))
            if not report.member_plain:
                missed.append(trial)
        assert missed == []

    def test_member_implies_sampled_holds(self):
        # (b, r) in the augmented cone means the implication is a theorem;
        # the sampled spot-check must agree
        rng = np.random.default_rng(89)
        checked = 0
        while checked < 30:
            n = int(rng.integers(1, 4))
            k = int(rng.integers(1, 4))
            pairs = [(rng.standard_normal(n), float(rng.uniform(0.1, 2.0))) for _ in range(k)]
            weights = rng.uniform(0.0, 2.0, size=k)
            b = sum(w * s for w, (s, _) in zip(weights, pairs))
            r = float(sum(w * p for w, (_, p) in zip(weights, pairs)) + rng.uniform(0.0, 1.0))
            report = generalized_farkas(pairs, np.asarray(b), r)
            if not report.hypothesis_verified:
                continue
            checked += 1
            assert report.member_augmented
            assert report.sampled_implication_holds

    def test_empty_pairs(self):
        report = generalized_farkas([], [0.0, 0.0], 1.0)
        assert report.hypothesis_verified
        assert report.member_augmented  # (0, 1) alone reaches (0, 0, 1)

    def test_wedge_far_from_origin(self):
        # the origin violates both constraints; the feasible set is the
        # wedge x2 <= -100 (1 + |x1|)
        S = np.array([[1.0, 0.01], [-1.0, 0.01]])
        p = np.array([-1.0, -1.0])
        report = generalized_farkas(list(zip(S, p)), [1.0, 0.0], 0.0)
        assert report.hypothesis_verified
        x = report.feasible_point
        assert np.all(S @ x - p <= 1e-9 * (1.0 + np.linalg.norm(x)))

    def test_known_feasible_point_random(self):
        # systems built around a feasible point away from the origin are
        # found feasible, with a point satisfying S x <= p at the samples' slack
        rng = np.random.default_rng(103)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            k = int(rng.integers(1, 7))
            S = rng.standard_normal((k, n))
            center = 5.0 * rng.standard_normal(n)
            p = S @ center + rng.uniform(0.0, 0.5, size=k)
            report = generalized_farkas(list(zip(S, p)), rng.standard_normal(n), 0.0)
            assert report.hypothesis_verified
            x = report.feasible_point
            assert np.all(S @ x - p <= 1e-9 * (1.0 + np.abs(p).max()))

    @pytest.mark.parametrize("far", [1e4, 1e8, 1e12])
    def test_single_pair_far_from_origin(self, far):
        # x1 >= far: the lifted residual's last entry cancels to about
        # 1 / far^2, so the point must not be read off as w / -t
        report = generalized_farkas([(np.array([-1.0]), -far)], [-1.0], -far)
        assert report.hypothesis_verified
        x = report.feasible_point
        assert -x[0] <= -far + 1e-9 * (1.0 + far)
        assert x[0] == pytest.approx(far, rel=1e-12)
        assert report.sampled_implication_holds

    def test_box_far_from_origin(self):
        # the unit square at (1e6, 1e6), cut by x1 + x2 <= 2e6 + 1
        c = 1e6
        S = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [1.0, 1.0]])
        p = np.array([c + 1.0, -c, c + 1.0, -c, 2.0 * c + 1.0])
        report = generalized_farkas(list(zip(S, p)), [1.0, 1.0], 2.0 * c + 1.0)
        assert report.hypothesis_verified
        x = report.feasible_point
        assert np.all(S @ x - p <= 1e-9 * (1.0 + np.abs(p).max()))
        assert np.allclose(x, [c, c], rtol=1e-12)
        assert report.sampled_implication_holds

    def test_far_system_needs_refinement(self):
        # a small triangle near (963000, -400000): the first lifted solve
        # stops short of the tight pairs, and the refined point must pass
        S = np.array([[-0.8, -1.0], [-0.4, 1.1], [-1.1, 0.7]])
        p = np.array([-370399.3, -825199.7, -1339299.1])
        report = generalized_farkas(list(zip(S, p)), [1.0, 0.0], 0.0)
        assert report.hypothesis_verified
        x = report.feasible_point
        assert np.all(S @ x - p <= 1e-9 * (1.0 + np.abs(p).max()))
        assert np.allclose(x, [963000.0, -400000.0], rtol=1e-5)
        assert not report.sampled_implication_holds  # x1 <= 0 fails there

    @pytest.mark.parametrize(
        "S, p, b",
        [
            (
                [
                    [-1.1551410801801176, 0.9534181889978128],
                    [-0.9418959197785431, -0.44692773201164593],
                    [0.975276942477362, -1.2211790049331497],
                    [-0.33091284621125844, 0.7681241158657377],
                ],
                [-2136622.841726204, 181986.1929662563, 2458060.5598285603, -1390019.2157834629],
                [1.2508511116576373, 0.323221056611202],
            ),
            (
                [[0.6050450937108203, -0.9456142108667503], [-0.5631696304919982, 1.64549819365313]],
                [102008091.57534093, -170748447.644503],
                [-1.8168550749412615, 1.2870594888955915],
            ),
            (
                [
                    [-0.852090895401681, 1.7934749674108597],
                    [1.1988121870719866, 1.7167396113638904],
                    [0.07185200202799348, 0.8122824870482084],
                    [0.43123519142894345, -0.7874371296617452],
                ],
                [-49859914.54905547, 150103796.59171444, 22373892.748544473, 27500750.63550458],
                [-0.5864945198655476, 0.31360834220668277],
            ),
        ],
    )
    def test_membership_far_from_origin(self, S, p, b):
        # lifted pairs whose p_j are 1e6-1e8 times their s_j: x - S @ rho
        # carries rounding of order 1 there, and an NNLS that picks entering
        # columns by gradients of it exceeds its pivot budget
        S, p, b = np.array(S), np.array(p), np.array(b)
        report = generalized_farkas(list(zip(S, p)), b, 0.0)
        target = np.append(b, 0.0)
        threshold = 1e-9 * (1.0 + np.linalg.norm(target))
        lifted = np.column_stack([S, p]).T
        augmented = np.column_stack([lifted, np.eye(3)[:, 2]])
        # unit columns generate the same cone and keep the oracle's
        # absolute feasibility test meaningful
        plain, _ = nnls_bruteforce(lifted / np.linalg.norm(lifted, axis=0), target)
        aug, _ = nnls_bruteforce(augmented / np.linalg.norm(augmented, axis=0), target)
        assert report.member_plain == bool(np.sqrt(plain) <= threshold)
        assert report.member_augmented == bool(np.sqrt(aug) <= threshold)

    def test_infeasible_zero_row(self):
        # 0 <= -1 alone refutes the system; balanced by the 1e-93 distance of x1 <= -1.2e-93,
        # its multiplier is 1e-93 and the solve's rounding of 2e-17 on the other pair hid it
        S, p = np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([-1.1783594579216751e-93, -1.0])
        report = generalized_farkas(list(zip(S, p)), [0.0, 0.0], 0.5)
        assert report.feasible_point is None and report.infeasibility_multipliers is not None
        assert implication_certificate(report).passed

    def test_infeasible_system(self):
        # x1 <= 1 and -x1 <= -2: the lifted pairs reach (0, -1)
        report = generalized_farkas([(np.array([1.0]), 1.0), (np.array([-1.0]), -2.0)], [1.0], 0.0)
        assert report.feasible_point is None
        assert not report.hypothesis_verified
        assert report.samples_used == 0


def _far_system(index):
    """System `index` of the *far* family drawn from ``default_rng(7)``: S
    and b standard normal, feasible at a point c of norm 10^uniform(0, 6)
    with gaps uniform(0.1, 2), and r = <b, c> + uniform(-5, 5)."""
    rng = np.random.default_rng(7)
    for _ in range(index + 1):
        n, k = int(rng.integers(1, 6)), int(rng.integers(1, 9))
        S = rng.standard_normal((k, n))
        b = rng.standard_normal(n)
        c = rng.standard_normal(n)
        c = c / np.linalg.norm(c) * 10.0 ** rng.uniform(0, 6)
        p = S @ c + rng.uniform(0.1, 2, k)
        r = float(b @ c + rng.uniform(-5, 5))
    return S, p, b, r


def _random_system(linprog, rng, far):
    """A system strictly feasible at a point within `far` of the origin, an r
    at a clear margin from max <b, x> over it (anywhere if unbounded), and
    whether the implication holds, by linprog."""
    n = int(rng.integers(1, 6))
    k = int(rng.integers(1, 9))
    S = rng.standard_normal((k, n))
    direction = rng.standard_normal(n)
    center = direction / np.linalg.norm(direction) * far * 10.0 ** rng.uniform(-4.0, 0.0)
    p = S @ center + rng.uniform(0.1, 2.0, size=k)
    b = rng.standard_normal(n)
    # the system is feasible, but HiGHS's presolve calls a few unbounded
    # problems infeasible; without presolve it fails on others
    for options in ({}, {"presolve": False}):
        lp = linprog(-b, A_ub=S, b_ub=p, bounds=[(None, None)] * n, method="highs", options=options)
        if lp.status in (0, 3):  # optimal or unbounded
            break
    assert lp.status in (0, 3)
    if lp.status == 3:
        return S, p, b, float(b @ center + rng.uniform(-5.0, 5.0)), False
    top = -float(lp.fun)
    margin = 10.0 ** rng.uniform(-3.0, 0.0) * (1.0 + abs(top))
    r = top + margin if rng.random() < 0.5 else top - margin
    return S, p, b, r, r > top


class TestExactImplication:
    """The implication is decided from checked certificates, as linprog decides it."""

    @pytest.mark.parametrize("count, far, seed", [(1000, 0.0, 107), (500, 1e3, 109), (500, 1e5, 131)])
    def test_matches_linprog(self, count, far, seed):
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = np.random.default_rng(seed)
        for _ in range(count):
            S, p, b, r, holds = _random_system(linprog, rng, far)
            report = generalized_farkas(list(zip(S, p)), b, r)
            assert report.hypothesis_verified
            assert report.member_augmented == holds
            assert report.sampled_implication_holds == holds
            if holds:
                assert report.violator is None
            else:
                assert violator_holds(S, p, b, r, report.violator)

    def test_member_far_from_origin(self):
        # {x <= -5e4} implies 1.3 x <= -4.5e4 with lam = 1.3 and mu = 2e4; an
        # augmented solve whose last coordinate is not balanced stops at
        # lam = 0.9, mu = 0, the vertical column's gradient being under a
        # stopping tolerance that scales with |r|
        S, p, b, r = np.array([[1.0]]), np.array([-5e4]), np.array([1.3]), -4.5e4
        report = generalized_farkas(list(zip(S, p)), b, r)
        assert report.member_augmented
        lam, mu = report.multipliers[:-1], report.multipliers[-1]
        assert implication_multipliers_hold(S, p, b, r, lam, mu)
        assert np.allclose(report.multipliers, [1.3, 2e4], rtol=1e-9)
        assert report.sampled_implication_holds and report.violator is None

    def test_violator_with_large_gaps_at_feasible_origin(self):
        # the origin is feasible and the p_j are ~1e5 times the s_j; max <b, x>
        # is 243,890 at (-59786, 179333) by linprog, so <b, x> <= 2e5 fails, and
        # the violator is a point of the system with <b, x> >= 2e5 + margin
        S = np.array([[-2.07, -0.66], [-0.66, 1.95], [1.95, 0.76]])
        p = np.array([5471.0, 389159.0, 19711.0])
        b, r = np.array([0.45, 1.51]), 2e5
        report = generalized_farkas(list(zip(S, p)), b, r)
        assert not report.member_augmented
        assert not report.sampled_implication_holds
        assert violator_holds(S, p, b, r, report.violator)

    def test_recession_direction_violator(self):
        # x2 <= 0 bounds nothing along x1, so x2 <= 0, x1 >= 5 + margin has
        # a point, and it is the violator
        S, p, b, r = np.array([[0.0, 1.0]]), np.array([0.0]), np.array([1.0, 0.0]), 5.0
        report = generalized_farkas(list(zip(S, p)), b, r)
        assert not report.member_augmented
        assert not report.sampled_implication_holds
        x = report.violator
        assert violator_holds(S, p, b, r, x)
        assert x[1] <= 0.0 and x[0] > 5.0

    @pytest.mark.parametrize("pairs, b", [(BOX_PAIRS, [1.0, 1.0]), ([(np.array([0.0, 1.0]), 0.0)], [1.0, 0.0]), ([], [-1.0])])
    def test_violator_of_homogeneous_implication_at_feasible_origin(self, pairs, b):
        # <b, x> <= 0 fails, and violator_holds's threshold at the origin is 0
        report = generalized_farkas(pairs, b, 0.0)
        assert report.violator is not None and implication_certificate(report).passed

    def test_violator_found_on_second_try(self, monkeypatch):
        # the point of S x <= p, <b, x> >= r + margin found first falls short of
        # violator_holds's threshold at itself; the doubled margin reaches it
        S = np.array([[-1.1300871646206154, -0.5443607249071664], [0.006050414894510384, -0.17736344944360424]])
        p = np.array([-0.8931829153370813, 0.15988218506207735])
        b, r = np.array([-1.4144878738047868, -0.2658282410436973]), 1.8646518752041161
        calls = []
        find_point = farkas._find_point
        monkeypatch.setattr(farkas, "_find_point", lambda *args: calls.append(args) or find_point(*args))
        report = generalized_farkas(list(zip(S, p)), b, r)
        # the consistency test, then two tries
        assert len(calls) == 3
        assert violator_holds(S, p, b, r, report.violator)

    def test_multiplier_check_rejects_perturbed_multipliers(self):
        # the box |x_i| <= 1 implies x1 + 2 x2 <= 4
        S = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        p = np.ones(4)
        b, r = np.array([1.0, 2.0]), 4.0
        report = generalized_farkas(list(zip(S, p)), b, r)
        assert report.sampled_implication_holds and report.violator is None
        lam, mu = report.multipliers[:-1], report.multipliers[-1]
        assert implication_multipliers_hold(S, p, b, r, lam, mu)
        assert not implication_multipliers_hold(S, p, b, r, 1.01 * lam, mu)
        # x1 + 2 x2 <= 3 is the sum of x1 <= 1 and twice x2 <= 1, with mu = 0;
        # a negative mu is refused even where the equations hold to 1e-15
        lam = np.array([1.0, 2.0, 0.0, 0.0])
        assert implication_multipliers_hold(S, p, b, 3.0, lam, 0.0)
        assert not implication_multipliers_hold(S, p, b, 3.0, lam, -1e-15)
        # 2 (x2 <= 1) - (-x1 <= 1) with mu = 2 also reads x1 + 2 x2 <= 3, but lam_3 < 0
        assert not implication_multipliers_hold(S, p, b, 3.0, np.array([0.0, 2.0, -1.0, 0.0]), 2.0)

    def test_violator_check_rejects_point_outside(self):
        # the box |x_i| <= 1 does not imply x1 + x2 <= 1.5
        S = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        p = np.ones(4)
        b, r = np.array([1.0, 1.0]), 1.5
        report = generalized_farkas(list(zip(S, p)), b, r)
        x = report.violator
        assert not report.sampled_implication_holds
        assert violator_holds(S, p, b, r, x)
        slack = 1e-9 * (1.0 + np.abs(p).max())
        j = int(np.argmax(S @ x - p))
        nudged = x + (p[j] - S[j] @ x + 2.0 * slack) * S[j]
        assert not violator_holds(S, p, b, r, nudged)
        assert not violator_holds(S, p, b, float(b @ x), x)

    def test_infeasibility_multipliers_checked(self):
        # x1 <= 1 and -x1 <= -2: 1 * (x1 <= 1) + 1 * (-x1 <= -2) reads 0 <= -1
        S, p = np.array([[1.0], [-1.0]]), np.array([1.0, -2.0])
        report = generalized_farkas(list(zip(S, p)), [1.0], 0.0)
        lam = report.infeasibility_multipliers
        assert report.sampled_implication_holds
        consistency = implication_certificate(report)["feasibility_hypothesis"]
        assert consistency.residual == infeasibility_residual(S, p, lam) <= 1e-9
        assert infeasibility_residual(S, p, [1.0, 1.0]) == 0.0
        # forged: the same rows with lam . p >= 0, and a negative multiplier
        assert infeasibility_residual(S, np.array([1.0, -1.0]), [1.0, 1.0]) == 1.0
        assert infeasibility_residual(S, np.array([2.0, -1.0]), [1.0, 1.0]) == 1.0
        assert infeasibility_residual(S, p, [-1.0, -1.0]) == 1.0
        assert infeasibility_residual(S, p, [1.0, 0.5]) > 1e-9

    def test_missing_consistency_certificate_fails_at_any_tol(self):
        # neither a feasible point nor multipliers: residual 1.0 must not pass at tol >= 1
        report = generalized_farkas(BOX_PAIRS, [1.0, 1.0], 3.0)
        forged = dataclasses.replace(report, feasible_point=None, infeasibility_multipliers=None)
        check = implication_certificate(forged, tol=2.0)["feasibility_hypothesis"]
        assert (check.residual, check.passed) == (1.0, False)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda n: st.tuples(
                st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=1, max_size=4),
                st.lists(st.integers(-3, 5), min_size=4, max_size=4),
                st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                st.integers(-10, 10),
                st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n),
            )
        )
    )
    # the pair (1, 3e-301) balances the lifted coordinate by 3e-301: the norm of the
    # lifted target (0, 1.6e300) overflowed, and the plain solve's t lies past the float range
    @example(([[1]], [0, 0, 0, 0], [0], 0, [3.182476207446911e-301]))
    # x1 <= -1.2e-93 and 0 <= -1: see test_infeasible_zero_row
    @example(([[1, 0], [0, 0]], [0, -1, 0, 0], [0, 0], 0, [-1.1783594579216751e-93, 0.0]))
    def test_translation_leaves_decisions_unchanged(self, data):
        # x -> x + c maps {S x <= p} onto {S x <= p + S c} and the
        # implication <b, x> <= r onto <b, x> <= r + <b, c>
        rows, p, b, r, c = data
        S = np.array(rows, dtype=float)
        p = np.array(p[: len(rows)], dtype=float)
        b, c = np.array(b, dtype=float), np.array(c)
        r = r + 0.5  # integer data keeps max <b, x> away from a half-integer r
        base = generalized_farkas(list(zip(S, p)), b, r)
        moved = generalized_farkas(list(zip(S, p + S @ c)), b, r + float(b @ c))
        for report in (base, moved):
            consistent = report.hypothesis_verified
            assert consistent != (report.infeasibility_multipliers is not None)
        assert moved.hypothesis_verified == base.hypothesis_verified
        assert moved.sampled_implication_holds == base.sampled_implication_holds


class TestImplicationCertificate:
    """The certificate re-checks the proof or refutation a report carries,
    not only its flags and the feasibility hypothesis."""

    def test_forged_multipliers_fail(self):
        # x1 + x2 <= 3 holds on the box, but not by these multipliers
        report = generalized_farkas(BOX_PAIRS, [1.0, 1.0], 3.0)
        assert implication_certificate(report).passed
        forged = dataclasses.replace(report, multipliers=np.array([-5.0, 7.0, 0.0, 0.0, 1.0]))
        report = implication_certificate(forged)
        assert [(c.name, c.residual) for c in report.checks if not c.passed] == [("implication_multipliers", 1.0)]

    def test_forged_violator_fails(self):
        # x1 + x2 <= 1 fails on the box, but (100, 100) is not a point of it
        report = generalized_farkas(BOX_PAIRS, [1.0, 1.0], 1.0)
        assert implication_certificate(report).passed
        forged = dataclasses.replace(report, violator=np.array([100.0, 100.0]))
        report = implication_certificate(forged)
        assert [(c.name, c.residual) for c in report.checks if not c.passed] == [("implication_violator", 1.0)]

    def test_flags_are_read_off_the_certificates(self):
        # the two forged reports of the earlier finding cannot be built: the
        # flags are properties of feasible_point and violator, not fields
        infeasible = generalized_farkas([(np.array([1.0]), 1.0), (np.array([-1.0]), -2.0)], [1.0], 0.0)
        assert (infeasible.hypothesis_verified, infeasible.samples_used) == (False, 0)
        with pytest.raises(TypeError):
            dataclasses.replace(infeasible, hypothesis_verified=True, samples_used=7)
        violated = generalized_farkas(BOX_PAIRS, [1.0, 1.0], 1.0)
        assert violated.violator is not None and not violated.sampled_implication_holds
        with pytest.raises(TypeError):
            dataclasses.replace(violated, sampled_implication_holds=True, member_augmented=False)
        with pytest.raises(TypeError):
            dataclasses.replace(violated, member_augmented=True)
        assert violated.member_augmented is (violated.multipliers is not None) is False

    def test_undecided_report_fails(self):
        # a consistent system's report must prove or refute the implication:
        # without its violator the box report claims x1 + x2 <= 1 unproved
        violated = generalized_farkas(BOX_PAIRS, [1.0, 1.0], 1.0)
        undecided = dataclasses.replace(violated, violator=None)
        assert undecided.sampled_implication_holds and not undecided.member_augmented
        check = implication_certificate(undecided)["sampled_implication_consistent"]
        assert (check.residual, check.passed) == (1.0, False)
        # a report carrying both a proof and a refutation fails it too
        proved = generalized_farkas(BOX_PAIRS, [1.0, 1.0], 3.0)
        assert not implication_certificate(dataclasses.replace(proved, violator=violated.violator)).passed

    # UNDECIDED and four *far* systems, each feasible far from the origin, whose implication fails
    @pytest.mark.parametrize("far", [None, 253, 336, 912, 1153])
    def test_undecided_system_is_refuted(self, far):
        if far is None:
            S = np.array([s for s, _ in UNDECIDED["pairs"]])
            p = np.array([q for _, q in UNDECIDED["pairs"]])
            b, r = np.array(UNDECIDED["b"]), UNDECIDED["r"]
            # the implication fails at linprog's maximiser, the vertex of pairs 3 and 4
            assert violator_holds(S, p, b, r, np.linalg.solve(S[[3, 4]], p[[3, 4]]))
        else:
            S, p, b, r = _far_system(far)
        report = generalized_farkas(list(zip(S, p)), b, r)
        assert report.violator is not None and implication_certificate(report).passed
