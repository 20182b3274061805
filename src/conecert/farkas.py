"""Farkas alternatives with machine-checkable certificates.

Exactly one of the two systems is solvable: either the target is a
nonnegative combination of the matrix rows, or some vector separates it
from their cone.  The decision is `positive_relative_test` on the rows:
its `Membership` coefficients are the combination y, and its witness,
the residual of the fit, *is* the separating vector x.  Every decision
and check here is the library's one rule (`linalg`), and a constraint
``<s_j, x> <= p_j`` holds within tol times the size of its terms
(`_excess`).  Each result holds its problem, and `farkas_certificate`
and `implication_certificate` re-check it from ``(result, tol)`` alone.

`generalized_farkas` decides the paper's finite generalized Farkas
theorem the same way, by two lifted tests: Gale's consistency test of
``S x <= p`` and the membership of ``(b, r)`` in the augmented cone.  A
failed implication is refuted by a violator, a solution of ``S x <= p,
<b, x> >= r + margin`` found by the same consistency test.  Every answer
carries the certificate the theorem gives, checked before it is
reported.  Nothing is sampled.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import Optional

import numpy as np

from .certificates import CertificateReport
from .cones import positive_relative_test
from .linalg import DEFAULT_TOL, _lengths, _member, _norm, _products, _scale, as_matrix, as_vector, generator_matrix, nnls

# most lifted solves `_find_point` makes, and most margins `generalized_farkas` tries
FEASIBLE_ROUNDS = 3
_LARGEST = float(np.finfo(float).max)


class FarkasTag(str, Enum):
    SYSTEM1 = "system1"
    SYSTEM2 = "system2"


@dataclass(frozen=True)
class FarkasVerification:
    """Residuals backing the declared alternative (`FarkasOutcome.verification`).

    System 1: ``primal_residual = ||A^T y - b||`` and ``dual_violation``
    is the worst negativity of y.  System 2: ``dual_violation`` is the
    worst positive normalised row product ``<a_i, x> / ||a_i||`` and
    ``strict_gap = (<b, x> - ||x||^2 / 2) / ||b||^2``, unit-free, positive
    for a valid witness (``||x||^2 / (2 ||b||^2)`` for `farkas_alternative`'s),
    and taken on b and x divided by a power of two near ``||b||`` (exact).
    `farkas_certificate` judges these numbers.
    """

    primal_residual: float
    dual_violation: float
    strict_gap: float


@dataclass(frozen=True, eq=False)
class FarkasOutcome:
    """The solvable system's ``tag`` and its ``y`` or ``x`` for ``(A, b)``;
    ``verification`` is derived from them on the first read and kept."""

    tag: FarkasTag
    y: Optional[np.ndarray]
    x: Optional[np.ndarray]
    A: np.ndarray
    b: np.ndarray

    @cached_property
    def verification(self) -> FarkasVerification:
        A, b, y, x = self.A, self.b, self.y, self.x
        if self.tag is FarkasTag.SYSTEM1:
            return FarkasVerification(float(_norm(A.T @ y - b)), max(0.0, -float(y.min(initial=0.0))), 0.0)
        bs, xs = np.ldexp([b, x], -np.frexp(_norm(b))[1])  # exact: the products neither underflow nor overflow
        gap = (bs @ xs - 0.5 * (xs @ xs)) / (float(bs @ bs) or 1.0)
        return FarkasVerification(0.0, max(0.0, float(_products(A.T, x).max(initial=0.0))), float(gap))


@dataclass(frozen=True, eq=False)
class GenFarkasReport:
    """A `generalized_farkas` answer on ``S`` (rows s_j), ``p``, ``b`` and ``r``.

    Consistency of ``<s_j, x> <= p_j`` carries a ``feasible_point``
    passing ``S x <= p`` or ``infeasibility_multipliers``.  The
    implication is decided by lifted solves, not sampled: ``multipliers``
    (``lam`` on the pairs, then ``mu`` on ``(0, 1)``) prove it,
    ``violator``, a solution of ``S x <= p, <b, x> >= r + margin`` found
    by the consistency test, refutes it, and ``member_plain`` says the
    pairs alone prove it.  ``member_augmented``,
    ``sampled_implication_holds`` ("no violation found"),
    ``hypothesis_verified`` and ``samples_used`` are read off these.
    """

    member_plain: bool
    feasible_point: Optional[np.ndarray]
    multipliers: Optional[np.ndarray]
    violator: Optional[np.ndarray]
    infeasibility_multipliers: Optional[np.ndarray]
    S: np.ndarray
    p: np.ndarray
    b: np.ndarray
    r: float

    member_augmented = property(lambda self: self.multipliers is not None)
    sampled_implication_holds = property(lambda self: self.violator is None)
    hypothesis_verified = property(lambda self: self.feasible_point is not None)
    samples_used = property(lambda self: int(self.feasible_point is not None))


def farkas_alternative(A, b, tol: float = DEFAULT_TOL) -> FarkasOutcome:
    """Decide which Farkas system is solvable for (A, b).

    System 1: ``A^T y = b`` with ``y >= 0``.  System 2: ``A x <= 0`` with
    ``<b, x> > 0``.  `positive_relative_test` of b against the rows of A
    supplies y, its coefficients, when the membership rule puts b in the
    cone (residual at most ``tol ||b||``).  Otherwise its witness, the
    residual of the fit, is x: it has nonpositive products with the rows
    and ``<b, x> = ||x||^2 > 0``.
    """
    test = positive_relative_test(A, b, tol)
    # the test holds copies: its generators are the rows of A, its target b
    if test.member:
        return FarkasOutcome(FarkasTag.SYSTEM1, y=test.coefficients, x=None, A=test.S.T, b=test.x)
    return FarkasOutcome(FarkasTag.SYSTEM2, y=None, x=test.witness, A=test.S.T, b=test.x)


def farkas_certificate(result: FarkasOutcome, tol: float = DEFAULT_TOL) -> CertificateReport:
    """Re-check a Farkas certificate from the result's A, b and its own y or x.

    ``certificate_verifies``: the certificate of the tag is present, alone
    and a vector of the right length (else it is the only check, failing
    at any tol), and a system-2 x fails the membership rule: a shorter
    one is rounding of an exact fit.  The other checks judge the
    result's own `verification`.
    """
    bv = result.b
    system1 = result.tag is FarkasTag.SYSTEM1
    v, other, size = (result.y, result.x, result.A.shape[0]) if system1 else (result.x, result.y, bv.size)
    report = CertificateReport()
    if v is None or other is not None or np.shape(v) != (size,):
        report.add("certificate_verifies", 1.0, 0.0)
        return report
    found = result.verification
    if system1:
        report.add("primal_residual", found.primal_residual, _scale(bv, tol))
        report.add("multipliers_nonnegative", found.dual_violation, 0.0)
        verified = True
    else:
        report.add("dual_violation_normalized", found.dual_violation, _scale(bv, tol))
        report.add_margin("strict_gap_positive", found.strict_gap)
        verified = not _member(v, bv, tol)
    report.add("certificate_verifies", float(not verified), 0.0)
    return report


def verify_outcome(A, b, outcome: FarkasOutcome, tol: float = DEFAULT_TOL) -> bool:
    """Whether `farkas_certificate` passes on (A, b), which need not be the
    problem the outcome holds; the benchmark checks Farkas answers with it."""
    return farkas_certificate(replace(outcome, A=as_matrix(A), b=as_vector(b)), tol).passed


def _excess(S, p, x, tol: float):
    """``(<s_j, x> - p_j, threshold)`` at the row nearest to failing ``<s_j, x>
    - p_j <= tol ||(||s_j|| ||x||, p_j)||``, tol times the size of its terms."""
    if not p.size:
        return 0.0, 0.0
    excess = S @ x - p
    limits = _scale(np.column_stack([_norm(S, axis=1) * _norm(x), p]), tol, axis=1)
    j = int(np.argmax(excess - limits))
    return float(excess[j]), float(limits[j])


def _feasible(S, p, x, tol: float) -> bool:
    excess, limit = _excess(S, p, x, tol)
    return excess <= limit


def implication_multipliers_hold(S, p, b, r, lam, mu, tol: float = DEFAULT_TOL) -> bool:
    """Check that ``(lam, mu)`` prove ``<b, x> <= r`` on ``{S x <= p}``.

    Requires ``lam >= 0``, ``mu >= 0`` and ``(S^T lam, lam . p + mu) =
    (b, r)`` by the membership rule, the last coordinate divided by
    `_balance_unit`.  Then ``<b, x> = <lam, S x> <= lam . p <= r`` for
    every feasible x.
    """
    lam = np.asarray(lam, dtype=float)
    if (lam.size and lam.min() < 0.0) or mu < 0.0:
        return False
    unit = _balance_unit(S, p, b, r)
    return _member(np.append(S.T @ lam - b, (lam @ p + mu - r) / unit), np.append(b, r / unit), tol)


def violator_holds(S, p, b, r, x, tol: float = DEFAULT_TOL) -> bool:
    """Check that x satisfies ``S x <= p`` and ``<b, x> > r``.

    Both are judged at the rule of `_excess`, the second as the row ``(b, r)``.
    """
    if not _feasible(S, p, x, tol):
        return False
    excess, limit = _excess(b[None], np.array([r]), x, tol)
    return excess > limit


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
    lam = np.asarray(lam, dtype=float)
    if lam.size == 0 or lam.min() < 0.0 or not lam @ p < 0.0:
        return 1.0
    lifted_norms = _norm(np.column_stack([S, p]), axis=1)
    return float(_norm(S.T @ lam) / (lam @ lifted_norms))


def _balance_unit(S, gaps, b, r) -> float:
    """``|r| / ||b||``, the distance of ``<b, x> = r`` from the origin in the
    units of x (else the largest ``|gaps_j| / ||s_j||``, else 1): dividing the
    last lifted coordinate by it balances ``(b, r)`` in any units.  A distance
    past the float range becomes the largest float, so every lifted column
    stays finite."""
    norm_b = float(_norm(b))
    if r and norm_b:
        unit = abs(float(r)) / norm_b  # a Python float: inf past the float range, with no warning
    else:
        norms = _norm(S, axis=1)
        with np.errstate(over="ignore"):
            unit = float((np.abs(gaps[norms > 0.0]) / norms[norms > 0.0]).max(initial=0.0)) or 1.0
    return min(unit, _LARGEST)


def _lifted(S, gaps, c, q, unit: float, tol: float):
    """Balanced NNLS of ``(c, q / unit)`` over the lifted pairs ``(s_j, gaps_j / unit)``.

    Dividing the last coordinate by ``unit`` (`_balance_unit`) leaves the
    cone and the multipliers of the pairs unchanged.  Returns the
    membership flag and those multipliers.
    """
    target = np.append(c, q / unit)
    sol = nnls(np.column_stack([S, gaps / unit]).T, target, tol)
    return _member(sol.residual, target, tol), sol.rho


def _find_point(S, p, tol: float):
    """``(feasible, refuted)``: a point passing ``S x <= p`` or multipliers
    proving the system infeasible, each None when not found.

    The system is infeasible exactly when ``(0, -1)`` lies in the cone of
    the lifted pairs ``(s_j, p_j)``; that solve's multipliers above tol
    are kept once `infeasibility_residual` is at most `tol`.  Otherwise
    the residual ``(w, t)`` has ``t < 0`` and ``w / -t`` is the feasible
    point nearest the origin, solved from the pairs carrying multipliers
    (tight there) rather than divided by the cancelling ``t``.  It is kept
    if it passes `_excess`'s rule, else refined by the same solve on the
    gaps left at it, at most `FEASIBLE_ROUNDS` solves in all.  Each pair
    is balanced by the point's largest distance ``-gaps_j / ||s_j||``
    outside a half-space (at most the largest float) and divided by its
    largest entry, so no gap overflows; neither changes the cone.  A pair
    whose largest entry passes the float range is left out of that solve;
    its point and multipliers are still checked against every pair.
    """
    row_norms = _norm(S, axis=1)
    rows = row_norms > 0.0
    point, gaps = np.zeros(S.shape[1]), p
    feasible = refuted = None
    for _ in range(FEASIBLE_ROUNDS):
        if _feasible(S, p, point, tol):
            feasible = point
            break
        # a reach past the float range becomes the largest float, and a pair whose size passes it drops out
        with np.errstate(over="ignore"):
            reach = min(float((np.maximum(-gaps[rows], 0.0) / row_norms[rows]).max(initial=0.0)) or 1.0, _LARGEST)
            size = np.maximum(reach * np.abs(S).max(axis=1, initial=0.0), np.abs(gaps))
        size[size == 0.0] = 1.0
        infeasible, rho = _lifted(S * (reach / size)[:, None], gaps / size, np.zeros(S.shape[1]), -1.0, 1.0, tol)
        if infeasible:
            refuted = np.where(rho > tol, rho, 0.0) * (reach / size)  # (0, -1) is in the cone; rho <= tol is rounding
            break
        tight = np.flatnonzero(rho)
        # each tight equation divided by ||s_j||: the same solution, at a cut-off blind to their lengths
        lengths = _lengths(S[tight].T)
        point = point + np.linalg.lstsq(S[tight] / lengths[:, None], gaps[tight] / lengths, rcond=None)[0]
        gaps = p - S @ point
    else:  # the rounds ran out: judge the last refined point
        feasible = point if _feasible(S, p, point, tol) else None
    if refuted is not None and infeasibility_residual(S, p, refuted) > tol:
        refuted = None
    return feasible, refuted


def generalized_farkas(pairs, b, r, tol: float = DEFAULT_TOL) -> GenFarkasReport:
    """Membership form of the generalized Farkas theorem for finite pairs.

    Parameters
    ----------
    pairs : sequence of (vector, scalar)
        The constraint data ``<s_j, x> <= p_j``.
    b, r : vector and scalar
        The candidate consequence ``<b, x> <= r``.

    Consistency is `_find_point`, Gale's test on the lifted pairs.  For a
    consistent system the implication holds exactly when ``(b, r)`` lies
    in the augmented cone, the lifted pairs and the vertical ray ``(0,
    1)``: one `_lifted` solve, the ray being the pair ``(0, unit)`` of the
    constraint ``0 <= unit``, whose column stays exactly ``(0, 1)``; mu is
    its multiplier times ``unit``.  The multipliers ``(lam, mu)`` of a
    member are the proof, reported once `implication_multipliers_hold`
    passes.  ``member_plain`` is that check on a member of the solve
    without ``(0, 1)``, with ``mu = 0``; it runs only on a proof, as the
    pairs' cone lies inside the augmented one.

    Otherwise the implication fails exactly when ``S x <= p, <b, x> > r``
    is consistent, and the violator is the point `_find_point` gives for
    ``S x <= p, <b, x> >= r + margin``.  The margin starts at twice
    `violator_holds`'s threshold at the feasible point (at a point of norm
    ``unit`` when that is 0, at ``x = 0`` with ``r = 0``).  While a point
    falls short of the threshold at itself, the margin becomes twice the
    larger of the two, at most `FEASIBLE_ROUNDS` tries in all; a point of
    the system passes ``S x <= p`` already.
    """
    bv = as_vector(b)
    r = float(r)
    S = generator_matrix([s for s, _ in pairs], dim=bv.size).T
    pvals = np.array([float(p) for _, p in pairs])

    unit = _balance_unit(S, pvals, bv, r)
    member, aug = _lifted(np.vstack([S, np.zeros(bv.size)]), np.append(pvals, unit), bv, r, unit, tol)
    aug[-1] *= unit
    multipliers = aug if member and implication_multipliers_hold(S, pvals, bv, r, aug[:-1], aug[-1], tol) else None
    member_plain = False
    if multipliers is not None:
        plain_member, plain = _lifted(S, pvals, bv, r, unit, tol)
        member_plain = plain_member and implication_multipliers_hold(S, pvals, bv, r, plain, 0.0, tol)

    feasible, refuted = _find_point(S, pvals, tol)
    violator = None
    if multipliers is None and feasible is not None:
        margin = 2.0 * (_excess(bv[None], np.array([r]), feasible, tol)[1] or tol * float(_norm(bv)) * unit)
        for _ in range(FEASIBLE_ROUNDS):
            candidate = _find_point(np.vstack([S, -bv]), np.append(pvals, -r - margin), tol)[0]
            if candidate is None:
                break
            excess, limit = _excess(bv[None], np.array([r]), candidate, tol)
            if excess > limit:
                violator = candidate
                break
            margin = 2.0 * max(margin, limit)

    return GenFarkasReport(
        member_plain=member_plain,
        feasible_point=feasible,
        multipliers=multipliers,
        violator=violator,
        infeasibility_multipliers=refuted,
        S=S,
        p=pvals,
        b=bv,
        r=r,
    )


def implication_certificate(result: GenFarkasReport, tol: float = DEFAULT_TOL) -> CertificateReport:
    """Re-check a `generalized_farkas` report against ``<s_j, x> <= p_j``: its
    flags agree, the implication holds by multipliers or vacuously or fails
    at a violator, and every certificate it carries passes."""
    S, pvals, b, r = result.S, result.p, result.b, result.r
    aug, holds = result.member_augmented, result.sampled_implication_holds
    report = CertificateReport()
    report.add("membership_monotone", float(result.member_plain and not aug), 0.0)
    report.add("sampled_implication_consistent", float(holds != (aug or result.feasible_point is None)), 0.0)
    lam = result.infeasibility_multipliers
    if result.feasible_point is not None:
        excess, limit = _excess(S, pvals, result.feasible_point, tol)
        report.add("feasibility_hypothesis", max(0.0, excess), limit)
    elif lam is None:
        report.add("feasibility_hypothesis", 1.0, 0.0)
    else:
        report.add("feasibility_hypothesis", infeasibility_residual(S, pvals, lam), tol)
    proof = result.multipliers
    if proof is not None:
        report.add("implication_multipliers", float(not implication_multipliers_hold(S, pvals, b, r, proof[:-1], proof[-1], tol)), 0.0)
    if result.violator is not None:
        report.add("implication_violator", float(not violator_holds(S, pvals, b, r, result.violator, tol)), 0.0)
    return report
