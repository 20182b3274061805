"""Farkas alternatives with machine-checkable certificates.

Exactly one of the two systems is solvable: either the target is a
nonnegative combination of the matrix rows, or some vector separates it
from their cone.  The decision is `positive_relative_test` on the rows;
a zero residual yields the combination, a nonzero residual *is* the
separating vector.  Every membership decision and check here is the
library's one rule, ``||residual|| <= tol (1 + ||target||)``.
`farkas_certificate` re-checks either certificate without the solver.

`generalized_farkas` decides the paper's finite generalized Farkas
theorem the same way: for a consistent system ``<s_j, x> <= p_j``, the
implication ``<b, x> <= r`` holds exactly when ``(b, r)`` lies in
``cone{(s_j, p_j)} + R_+ (0, 1)``.  Every answer carries the
certificate the theorem gives, checked before it is reported:
multipliers when the implication holds, a feasible point that violates
it when it fails, and multipliers that combine the pairs into
``0 <= -1`` when the system itself is inconsistent.  Nothing is
sampled.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .certificates import CertificateReport
from .cones import positive_relative_test
from .linalg import DEFAULT_TOL, _member, add_member_check, as_matrix, as_vector, generator_matrix, nnls

# most lifted solves `generalized_farkas` makes towards a point passing S x <= p
FEASIBLE_ROUNDS = 3


class FarkasTag(str, Enum):
    SYSTEM1 = "system1"
    SYSTEM2 = "system2"


@dataclass(frozen=True)
class FarkasVerification:
    """Residuals backing the declared alternative.

    System 1: ``primal_residual = ||A^T y - b||`` and ``dual_violation``
    is the worst negativity of y.  System 2: ``dual_violation`` is the
    worst positive row product ``<a_i, x>`` and ``strict_gap = <b, x> -
    ||x||^2 / 2`` (positive for a valid witness).
    """

    primal_residual: float
    dual_violation: float
    strict_gap: float


@dataclass(frozen=True, eq=False)
class FarkasOutcome:
    tag: FarkasTag
    y: Optional[np.ndarray]
    x: Optional[np.ndarray]
    verification: FarkasVerification


@dataclass(frozen=True, eq=False)
class GenFarkasReport:
    """Finite-index generalized Farkas equivalences, with certificates.

    ``member_plain`` tests ``(b, r)`` against the cone of the pairs
    alone, ``member_augmented`` adds the vertical ray ``(0, 1)``; both
    are balanced solves whose decisions do not depend on the units of r.
    Consistency of ``<s_j, x> <= p_j`` is decided by a checked
    certificate either way: a ``feasible_point`` passing ``S x <= p``
    (then ``hypothesis_verified``), or ``infeasibility_multipliers``;
    `implication_certificate` reports the margin of that check.

    The implication is decided from the augmented test, not sampled.
    ``multipliers`` (``lam`` on the pairs, then ``mu`` on ``(0, 1)``)
    prove it; ``violator`` is a feasible point refuting it.
    ``sampled_implication_holds`` keeps its name and its meaning, "no
    violation found": it is False exactly when ``violator`` is set.
    ``samples_used`` is the number of points checked against the system.
    """

    member_plain: bool
    member_augmented: bool
    sampled_implication_holds: bool
    hypothesis_verified: bool
    feasible_point: Optional[np.ndarray]
    samples_used: int
    multipliers: Optional[np.ndarray]
    violator: Optional[np.ndarray]
    infeasibility_multipliers: Optional[np.ndarray]


def farkas_alternative(A, b, tol: float = DEFAULT_TOL) -> FarkasOutcome:
    """Decide which Farkas system is solvable for (A, b).

    System 1: ``A^T y = b`` with ``y >= 0``.  System 2: ``A x <= 0`` with
    ``<b, x> > 0``.  `positive_relative_test` of b against the rows of A
    supplies y when the membership rule puts b in the cone (residual at
    most ``tol (1 + ||b||)``).  Otherwise its witness, the residual of the
    fit, is x: it has nonpositive products with the rows and
    ``<b, x> = ||x||^2 > 0``.
    """
    Am = as_matrix(A)
    bv = as_vector(b)
    if Am.shape[1] != bv.size:
        raise ValueError("A and b have mismatched widths")
    test = positive_relative_test(Am, bv, tol)
    if test.positive:
        y = test.rho
        ver = FarkasVerification(
            primal_residual=float(np.linalg.norm(bv - Am.T @ y)),
            dual_violation=max(0.0, -float(y.min(initial=0.0))),
            strict_gap=0.0,
        )
        return FarkasOutcome(FarkasTag.SYSTEM1, y=y, x=None, verification=ver)
    x = test.witness
    row_products = Am @ x
    ver = FarkasVerification(
        primal_residual=0.0,
        dual_violation=max(0.0, float(row_products.max(initial=0.0))),
        strict_gap=float(bv @ x - 0.5 * (x @ x)),
    )
    return FarkasOutcome(FarkasTag.SYSTEM2, y=None, x=x, verification=ver)


def farkas_certificate(A, b, outcome: FarkasOutcome, tol: float = DEFAULT_TOL) -> CertificateReport:
    """Re-check a Farkas certificate from A, b and its own y or x.

    ``certificate_verifies``: the certificate of the tag is present, alone
    and of the right length (else it is the only check), and a system-2 x
    fails the membership rule: a shorter one is rounding of an exact fit.
    """
    Am = as_matrix(A)
    bv = as_vector(b)
    system1 = outcome.tag is FarkasTag.SYSTEM1
    cert, other, size = (outcome.y, outcome.x, Am.shape[0]) if system1 else (outcome.x, outcome.y, bv.size)
    report = CertificateReport()
    if cert is None or other is not None or as_vector(cert).size != size:
        report.add("certificate_verifies", 1.0, False)
        return report
    v = as_vector(cert)
    if system1:
        add_member_check(report, "primal_residual", Am.T @ v - bv, bv, tol)
        violation = max(0.0, -float(v.min(initial=0.0)))
        report.add("multipliers_nonnegative", violation, violation <= tol)
        verified = True
    else:
        row_norms = np.linalg.norm(Am, axis=1)
        ratios = (Am @ v) / np.where(row_norms > 0, row_norms, 1.0)
        normalized = max(0.0, float(ratios.max(initial=0.0))) / (1.0 + float(np.linalg.norm(v)))
        report.add("dual_violation_normalized", normalized, normalized <= tol)
        gap = float(bv @ v - 0.5 * (v @ v))
        report.add("strict_gap_positive", max(0.0, -gap), gap > 0.0)
        verified = not _member(v, bv, tol)
    report.add("certificate_verifies", float(not verified), verified)
    return report


def verify_outcome(A, b, outcome: FarkasOutcome, tol: float = DEFAULT_TOL) -> bool:
    """Whether `farkas_certificate` passes; the benchmark checks Farkas answers with it."""
    return farkas_certificate(A, b, outcome, tol).passed


def _slack(pvals: np.ndarray, tol: float) -> float:
    """How far ``<s_j, x>`` may exceed ``p_j`` for x to count as feasible."""
    return tol * (1.0 + float(np.abs(pvals).max(initial=0.0)))


def implication_multipliers_hold(S, p, b, r, lam, mu, tol: float = DEFAULT_TOL) -> bool:
    """Check that ``(lam, mu)`` prove ``<b, x> <= r`` on ``{S x <= p}``.

    Requires ``lam >= 0``, ``mu >= 0`` and ``(S^T lam, lam . p + mu) =
    (b, r)`` by the membership rule, within ``tol (1 + ||(b, r)||)``.
    Then ``<b, x> = <lam, S x> <= lam . p <= r`` for every feasible x.
    """
    lam = as_vector(lam)
    if (lam.size and lam.min() < 0.0) or mu < 0.0:
        return False
    return _member(np.append(S.T @ lam - b, lam @ p + mu - r), np.append(b, r), tol)


def violator_holds(S, p, b, r, x, tol: float = DEFAULT_TOL) -> bool:
    """Check that x satisfies ``S x <= p`` and ``<b, x> > r``.

    Feasibility is tested at `generalized_farkas`'s slack
    ``tol (1 + max |p_j|)``, the violation beyond ``tol (1 + |r|)``.
    """
    if not np.all(S @ x - p <= _slack(p, tol)):
        return False
    return bool(b @ x > r + tol * (1.0 + abs(r)))


def infeasibility_residual(S, p, lam) -> float:
    """How far ``lam`` is from proving that ``S x <= p`` has no solution.

    A proof is ``lam >= 0`` with ``lam . p < 0`` and ``S^T lam = 0``: then
    ``0 = <lam, S x> <= lam . p < 0`` for any feasible x.  The residual is
    ``||S^T lam|| / sum_j lam_j ||(s_j, p_j)||``: moving each ``s_j`` by
    that fraction of its lifted pair's length makes ``S^T lam`` vanish
    exactly, so the moved system has no solution.  It does not change
    when a pair is scaled.  It is 1.0, its largest value, when a sign
    condition fails.
    """
    lam = as_vector(lam)
    if lam.size == 0 or lam.min() < 0.0 or not lam @ p < 0.0:
        return 1.0
    lifted_norms = np.linalg.norm(np.column_stack([S, p]), axis=1)
    return float(np.linalg.norm(S.T @ lam) / (lam @ lifted_norms))


def _pairs_matrix(pairs, dim: int):
    S = generator_matrix([s for s, _ in pairs], dim=dim).T
    return S, np.array([float(p) for _, p in pairs])


def _balance_unit(gaps, r, b, row_norm: float) -> float:
    size = max(float(np.abs(gaps).max(initial=0.0)), abs(r))
    scale = max(row_norm, float(np.linalg.norm(b)))
    return max(size / scale, 1.0) if scale else 1.0


def _augmented_test(S, gaps, b, r, unit: float, tol: float):
    """Balanced NNLS of ``(b, r)`` over the pairs ``(s_j, gaps_j)`` and ``(0, 1)``.

    The last coordinate is divided by ``unit = max(1, max(|gaps_j|, |r|) /
    max(max_j ||s_j||, ||b||))``.  That maps the cone onto the cone of
    the scaled pairs and fixes the ray ``(0, 1)``, so membership is
    unchanged, but the stopping tolerance and the membership threshold
    (``tol (1 + ||target||)`` of the scaled target) no longer grow with
    the gaps and r.  Returns the membership flag, the multipliers
    ``(lam, mu)`` with mu scaled back up by ``unit``, and the residual
    ``(u, t)`` with t divided by ``unit``, which still separates:
    ``<s_j, u> + t gaps_j <= 0``, ``t <= 0`` and ``<b, u> + t r > 0``.
    """
    columns = np.column_stack([S, gaps / unit])
    vertical = np.append(np.zeros(b.size), 1.0)
    target = np.append(b, r / unit)
    sol = nnls(np.vstack([columns, vertical]).T, target, tol)
    member = _member(sol.residual, target, tol)
    rho, w = sol.rho, sol.residual
    rho[-1] *= unit
    w[-1] /= unit
    return member, rho, w


def generalized_farkas(pairs, b, r, tol: float = DEFAULT_TOL) -> GenFarkasReport:
    """Membership form of the generalized Farkas theorem for finite pairs.

    Parameters
    ----------
    pairs : sequence of (vector, scalar)
        The constraint data ``<s_j, x> <= p_j``.
    b, r : vector and scalar
        The candidate consequence ``<b, x> <= r``.

    Consistency.  The system is infeasible exactly when ``(0, -1)`` lies
    in the cone of the lifted pairs ``(s_j, p_j)``; the multipliers of
    that solve are reported once `infeasibility_residual` is at most
    `tol`.  Otherwise the residual ``(w, t)`` has ``t < 0`` and
    ``w / -t`` is the feasible point nearest the origin, solved from the
    pairs carrying multipliers (tight there) rather than divided by the
    cancelling ``t``.  It is kept only if it passes ``S x <= p`` at the
    slack ``tol (1 + max |p_j|)``; one that misses it is refined by the
    same step taken from it.

    The implication.  For a consistent system it holds exactly when
    ``(b, r)`` lies in the augmented cone.  That test is one balanced
    NNLS solve (`_augmented_test`): the last coordinate is divided so
    that the p_j and r are no larger than the s_j and b, which leaves
    membership unchanged but keeps the size of r from setting the
    stopping tolerance and the membership threshold; ``member_plain`` is
    the same test without ``(0, 1)``, balanced by the same divisor.  Its
    multipliers ``(lam, mu)``, mu scaled back to the units of r, are the
    proof and are reported once `implication_multipliers_hold` passes.
    When it does not, the residual ``(u, t)`` of that solve, t brought back to
    the units of r, separates: ``<s_j, u> + t p_j <= 0``, ``t <= 0`` and
    ``<b, u> + t r > 0``.  So ``a u`` is feasible for ``0 <= a <= 1 / -t``
    (for every a when ``t = 0``, u being a recession direction), and
    ``<b, a u>`` exceeds r from some ``a < 1 / -t`` on.

    The test is solved centred at the feasible point x_f, on the pairs
    ``(s_j, p_j - <s_j, x_f>)`` and the target ``(b, r - <b, x_f>)``: the
    map ``(v, c) -> (v, c - <v, x_f>)`` is invertible and fixes
    ``(0, 1)``, so membership is unchanged, but the witness is measured
    from a point of the system.  It is balanced in the same way, with the
    centred gaps and ``r - <b, x_f>`` in place of the p_j and r.  When x_f
    is the origin the centred test is the augmented solve already made,
    and its residual is reused.  The candidate ``x_f + a u`` takes a at
    twice the step that reaches ``r + tol (1 + |r|)``, or halfway from
    there to ``1 / -t`` when that is nearer: the end point ``u / -t`` lies
    on the pairs tight at the solve, where rounding in u is multiplied by
    ``1 / -t``.  It is reported once `violator_holds` passes.

    ``sampled_implication_holds`` is False exactly when a violator is
    reported; ``samples_used`` counts the points checked against the
    system, 1 when it is consistent and 0 otherwise.
    """
    bv = as_vector(b)
    r = float(r)
    S, pvals = _pairs_matrix(pairs, bv.size)

    row_norm = float(np.linalg.norm(S, axis=1).max(initial=0.0))
    unit = _balance_unit(pvals, r, bv, row_norm)
    plain = positive_relative_test(np.column_stack([S, pvals / unit]), np.append(bv, r / unit), tol)
    member, aug, w = _augmented_test(S, pvals, bv, r, unit, tol)

    # dividing the gaps by the worst violation over the largest ||s_j||
    # balances the lifted pairs; it scales the point, not which pairs are tight
    slack = _slack(pvals, tol)
    point, gaps = np.zeros(bv.size), pvals
    below = np.append(np.zeros(bv.size), -1.0)
    refuted = None
    for _ in range(FEASIBLE_ROUNDS):
        if np.all(gaps >= -slack):
            break
        unit = -gaps.min() / row_norm if row_norm else 1.0
        sol = nnls(np.column_stack([S, gaps / unit]).T, below, tol)
        if _member(sol.residual, below, tol):
            refuted = sol.rho  # (0, -1) is in the lifted cone
            break
        tight = np.flatnonzero(sol.rho)
        point = point + np.linalg.lstsq(S[tight], gaps[tight], rcond=None)[0]
        gaps = pvals - S @ point

    feasible = point if np.all(gaps >= -slack) else None
    if refuted is not None and infeasibility_residual(S, pvals, refuted) > tol:
        refuted = None

    multipliers = violator = None
    if member and implication_multipliers_hold(S, pvals, bv, r, aug[:-1], aug[-1], tol):
        multipliers = aug
    elif feasible is not None:
        r_c = r - float(bv @ feasible)
        if feasible.any():
            w = _augmented_test(S, gaps, bv, r_c, _balance_unit(gaps, r_c, bv, row_norm), tol)[2]
        u, t = w[:-1], min(float(w[-1]), 0.0)
        rate = float(bv @ u)
        candidate = feasible
        if rate > 0.0:
            need = max(r_c + tol * (1.0 + abs(r)), 0.0) / rate
            spare = 0.5 * (1.0 + t * need)
            candidate = feasible + (need + (spare / -t if spare < -t * need else need)) * u
        if violator_holds(S, pvals, bv, r, candidate, tol):
            violator = candidate

    return GenFarkasReport(
        member_plain=plain.positive,
        member_augmented=member,
        sampled_implication_holds=violator is None,
        hypothesis_verified=feasible is not None,
        feasible_point=feasible,
        samples_used=int(feasible is not None),
        multipliers=multipliers,
        violator=violator,
        infeasibility_multipliers=refuted,
    )


def implication_certificate(pairs, b, result: GenFarkasReport, tol: float = DEFAULT_TOL) -> CertificateReport:
    """Re-check a `generalized_farkas` report against ``<s_j, x> <= p_j``: its
    flags agree, and a feasible point or infeasibility multipliers pass."""
    S, pvals = _pairs_matrix(pairs, as_vector(b).size)
    plain, aug, holds = result.member_plain, result.member_augmented, result.sampled_implication_holds
    report = CertificateReport()
    report.add("membership_monotone", float(plain and not aug), (not plain) or aug)
    report.add("sampled_implication_consistent", float((plain or aug) and not holds), not (plain or aug) or holds)
    if result.feasible_point is not None:
        gaps = pvals - S @ result.feasible_point
        report.add("feasibility_hypothesis", max(0.0, -float(gaps.min(initial=0.0))), bool(np.all(gaps >= -_slack(pvals, tol))))
    else:
        lam = result.infeasibility_multipliers
        residual = 1.0 if lam is None else infeasibility_residual(S, pvals, lam)
        report.add("feasibility_hypothesis", residual, lam is not None and residual <= tol)
    return report
