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
theorem the same way, and every answer carries the certificate the
theorem gives, checked before it is reported.  Nothing is sampled.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

import numpy as np

from .certificates import CertificateReport
from .cones import positive_relative_test
from .linalg import DEFAULT_TOL, _lengths, _member, _products, _scale, as_matrix, as_vector, generator_matrix, nnls

# most lifted solves `generalized_farkas` makes towards a point passing S x <= p
FEASIBLE_ROUNDS = 3


class FarkasTag(str, Enum):
    SYSTEM1 = "system1"
    SYSTEM2 = "system2"


@dataclass(frozen=True)
class FarkasVerification:
    """Residuals backing the declared alternative (`FarkasOutcome.verification`).

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
    """The solvable system's ``tag`` and its ``y`` or ``x`` for ``(A, b)``."""

    tag: FarkasTag
    y: Optional[np.ndarray]
    x: Optional[np.ndarray]
    A: np.ndarray
    b: np.ndarray

    @property
    def verification(self) -> FarkasVerification:
        A, b, y, x = self.A, self.b, self.y, self.x
        if self.tag is FarkasTag.SYSTEM1:
            return FarkasVerification(float(np.linalg.norm(b - A.T @ y)), max(0.0, -float(y.min(initial=0.0))), 0.0)
        return FarkasVerification(0.0, max(0.0, float((A @ x).max(initial=0.0))), float(b @ x - 0.5 * (x @ x)))


@dataclass(frozen=True, eq=False)
class GenFarkasReport:
    """Finite-index generalized Farkas equivalences, with certificates:
    ``member_plain`` tests ``(b, r)`` against the cone of the pairs
    alone, ``member_augmented`` adds the vertical ray ``(0, 1)``; both
    are balanced solves, blind to the units of x and r.  Consistency of ``<s_j, x> <= p_j`` is decided by a checked
    certificate either way: a ``feasible_point`` passing ``S x <= p``
    (then ``hypothesis_verified``), or ``infeasibility_multipliers``;
    `implication_certificate` reports the margin of that check.

    The implication is decided from the augmented test, not sampled.
    ``multipliers`` (``lam`` on the pairs, then ``mu`` on ``(0, 1)``)
    prove it; ``violator`` is a feasible point refuting it.
    ``sampled_implication_holds`` ("no violation found"), ``samples_used``
    (the points checked against the system) and ``hypothesis_verified``
    are read off ``violator`` and ``feasible_point``.  ``S`` (rows s_j),
    ``p``, ``b`` and ``r`` are the problem as coerced.
    """

    member_plain: bool
    member_augmented: bool
    feasible_point: Optional[np.ndarray]
    multipliers: Optional[np.ndarray]
    violator: Optional[np.ndarray]
    infeasibility_multipliers: Optional[np.ndarray]
    S: np.ndarray
    p: np.ndarray
    b: np.ndarray
    r: float

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
    Am = as_matrix(A)
    bv = as_vector(b)
    test = positive_relative_test(Am, bv, tol)
    # the test holds copies: its generators are the rows of A, its target b
    if test.member:
        return FarkasOutcome(FarkasTag.SYSTEM1, y=test.coefficients, x=None, A=test.S.T, b=test.x)
    return FarkasOutcome(FarkasTag.SYSTEM2, y=None, x=test.witness, A=test.S.T, b=test.x)


def farkas_certificate(outcome: FarkasOutcome, tol: float = DEFAULT_TOL) -> CertificateReport:
    """Re-check a Farkas certificate from the outcome's A, b and its own y or x.

    ``certificate_verifies``: the certificate of the tag is present, alone
    and a vector of the right length (else it is the only check, failing
    at any tol), and a system-2 x fails the membership rule: a shorter
    one is rounding of an exact fit.
    """
    Am, bv = outcome.A, outcome.b
    system1 = outcome.tag is FarkasTag.SYSTEM1
    v, other, size = (outcome.y, outcome.x, Am.shape[0]) if system1 else (outcome.x, outcome.y, bv.size)
    report = CertificateReport()
    if v is None or other is not None or np.shape(v) != (size,):
        report.add("certificate_verifies", 1.0, 0.0)
        return report
    if system1:
        report.add("primal_residual", np.linalg.norm(Am.T @ v - bv), _scale(bv, tol))
        report.add("multipliers_nonnegative", max(0.0, -float(v.min(initial=0.0))), 0.0)
        verified = True
    else:
        report.add("dual_violation_normalized", max(0.0, float(_products(Am.T, v).max(initial=0.0))), _scale(bv, tol))
        report.add_margin("strict_gap_positive", bv @ v - 0.5 * (v @ v))
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
    limits = _scale(np.column_stack([np.linalg.norm(S, axis=1) * np.linalg.norm(x), p]), tol, axis=1)
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
    lifted_norms = np.linalg.norm(np.column_stack([S, p]), axis=1)
    return float(np.linalg.norm(S.T @ lam) / (lam @ lifted_norms))


def _balance_unit(S, gaps, b, r) -> float:
    """``|r| / ||b||``, the distance of ``<b, x> = r`` from the origin in the
    units of x (else the largest ``|gaps_j| / ||s_j||``, else 1): dividing the
    last lifted coordinate by it balances ``(b, r)`` in any units."""
    norm_b = float(np.linalg.norm(b))
    if r and norm_b:
        return abs(r) / norm_b
    norms = np.linalg.norm(S, axis=1)
    far = float((np.abs(gaps[norms > 0.0]) / norms[norms > 0.0]).max(initial=0.0))
    return far if far else 1.0


def _augmented_test(S, gaps, b, r, unit: float, tol: float):
    """Balanced NNLS of ``(b, r)`` over the pairs ``(s_j, gaps_j)`` and ``(0, 1)``.

    The last coordinate is divided by ``unit`` (`_balance_unit`), which
    leaves membership unchanged.  Returns the membership flag, the
    multipliers ``(lam, mu)`` with mu scaled back up by ``unit``, and the
    residual ``(u, t)`` with t divided by ``unit``, which still separates:
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
    cancelling ``t``.  It is kept only if it passes `_excess`'s rule; one
    that misses it is refined by the same step taken from it.

    The implication.  For a consistent system it holds exactly when
    ``(b, r)`` lies in the augmented cone: one balanced NNLS solve
    (`_augmented_test`); ``member_plain`` is the same test without
    ``(0, 1)``.  Its multipliers ``(lam, mu)``, mu scaled back to the units of r, are the
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
    from a point of the system; the divisor, a length, is the same.  When
    x_f is the origin the augmented solve's residual is reused.  The
    candidate ``x_f + a u`` takes a at twice the step that reaches r plus
    `violator_holds`'s threshold at x_f, or halfway from there to
    ``1 / -t`` when that is nearer: the end point ``u / -t`` lies on the
    pairs tight at the solve, where rounding in u is multiplied by
    ``1 / -t``.  It is reported once `violator_holds` passes.
    """
    bv = as_vector(b)
    r = float(r)
    S = generator_matrix([s for s, _ in pairs], dim=bv.size).T
    pvals = np.array([float(p) for _, p in pairs])

    unit = _balance_unit(S, pvals, bv, r)
    plain = positive_relative_test(np.column_stack([S, pvals / unit]), np.append(bv, r / unit), tol)
    member, aug, w = _augmented_test(S, pvals, bv, r, unit, tol)

    # dividing the gaps by the point's largest distance -gaps_j / ||s_j|| outside
    # a half-space balances the lifted pairs, and dividing each pair by its
    # largest entry keeps the other gaps from overflowing; neither changes the cone
    row_norms = np.linalg.norm(S, axis=1)
    rows = row_norms > 0.0
    point, gaps = np.zeros(bv.size), pvals
    below = np.append(np.zeros(bv.size), -1.0)
    refuted = None
    for _ in range(FEASIBLE_ROUNDS):
        if _feasible(S, pvals, point, tol):
            break
        reach = float((np.maximum(-gaps[rows], 0.0) / row_norms[rows]).max(initial=0.0)) or 1.0
        size = np.maximum(reach * np.abs(S).max(axis=1, initial=0.0), np.abs(gaps))
        size[size == 0.0] = 1.0
        sol = nnls(np.column_stack([S * (reach / size)[:, None], gaps / size]).T, below, tol)
        if _member(sol.residual, below, tol):
            refuted = sol.rho * (reach / size)  # (0, -1) is in the lifted cone
            break
        tight = np.flatnonzero(sol.rho)
        # each tight equation divided by ||s_j||: the same solution, at a cut-off blind to their lengths
        lengths = _lengths(S[tight].T)
        point = point + np.linalg.lstsq(S[tight] / lengths[:, None], gaps[tight] / lengths, rcond=None)[0]
        gaps = pvals - S @ point

    feasible = point if _feasible(S, pvals, point, tol) else None
    if refuted is not None and infeasibility_residual(S, pvals, refuted) > tol:
        refuted = None

    multipliers = violator = None
    if member and implication_multipliers_hold(S, pvals, bv, r, aug[:-1], aug[-1], tol):
        multipliers = aug
    elif feasible is not None:
        excess, margin = _excess(bv[None], np.array([r]), feasible, tol)
        if feasible.any():
            w = _augmented_test(S, gaps, bv, -excess, unit, tol)[2]
        u, t = w[:-1], min(float(w[-1]), 0.0)
        rate = float(bv @ u)
        candidate = feasible
        if rate > 0.0:
            need = max(margin - excess, 0.0) / rate
            spare = 0.5 * (1.0 + t * need)
            candidate = feasible + (need + (spare / -t if spare < -t * need else need)) * u
        if violator_holds(S, pvals, bv, r, candidate, tol):
            violator = candidate

    return GenFarkasReport(
        member_plain=plain.member,
        member_augmented=member,
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
    flags agree, and a feasible point or infeasibility multipliers pass,
    as do ``multipliers`` and ``violator`` when set."""
    S, pvals, b, r = result.S, result.p, result.b, result.r
    plain, aug, holds = result.member_plain, result.member_augmented, result.sampled_implication_holds
    report = CertificateReport()
    report.add("membership_monotone", float(plain and not aug), 0.0)
    report.add("sampled_implication_consistent", float((plain or aug) and not holds), 0.0)
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
