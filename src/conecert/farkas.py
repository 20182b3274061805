"""Farkas alternatives with machine-checkable certificates.

Exactly one of the two systems is solvable: either the target is a
nonnegative combination of the matrix rows, or some vector separates it
from their cone.  The decision reduces to one nonnegative least-squares
solve; a zero residual yields the combination, a nonzero residual *is*
the separating vector.  `verify_outcome` re-checks either certificate
without the solver.

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

from .cones import positive_relative_test
from .linalg import DEFAULT_TOL, as_matrix, as_vector, generator_matrix, nnls

# residual norms above this (times 1 + ||b||) classify as system 2; the
# dichotomy is exact in exact arithmetic, a single threshold keeps it
# decidable in floats
SYSTEM2_RESIDUAL_FACTOR = 1e-7

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
    alone, ``member_augmented`` adds the vertical ray ``(0, 1)`` in a
    balanced solve whose decision does not depend on the units of r.
    Consistency of ``<s_j, x> <= p_j`` is decided by a checked
    certificate either way: a ``feasible_point`` passing ``S x <= p``
    (then ``hypothesis_verified``), or ``infeasibility_multipliers``.
    ``consistency_residual`` is the worst margin of that check: the
    largest excess of ``S x`` over ``p`` at the point, or
    `infeasibility_residual` of the multipliers; 1.0 when neither was
    found.

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
    consistency_residual: float


def farkas_alternative(A, b, tol: float = DEFAULT_TOL) -> FarkasOutcome:
    """Decide which Farkas system is solvable for (A, b).

    System 1: ``A^T y = b`` with ``y >= 0``.  System 2: ``A x <= 0`` with
    ``<b, x> > 0``.  The nonnegative least-squares fit of b over the rows
    of A supplies y; when its residual is substantially nonzero the
    residual itself is the system-2 witness, since at optimality it has
    nonpositive inner product with every row and
    ``<b, x> = ||x||^2 > 0``.
    """
    Am = as_matrix(A)
    bv = as_vector(b)
    if Am.shape[1] != bv.size:
        raise ValueError("A and b have mismatched widths")
    sol = nnls(Am.T, bv, tol)
    rnorm = float(np.linalg.norm(sol.residual))
    if rnorm <= SYSTEM2_RESIDUAL_FACTOR * (1.0 + np.linalg.norm(bv)):
        y = sol.rho
        ver = FarkasVerification(
            primal_residual=rnorm,
            dual_violation=max(0.0, -float(y.min(initial=0.0))),
            strict_gap=0.0,
        )
        return FarkasOutcome(FarkasTag.SYSTEM1, y=y, x=None, verification=ver)
    x = sol.residual
    row_products = Am @ x
    ver = FarkasVerification(
        primal_residual=0.0,
        dual_violation=max(0.0, float(row_products.max(initial=0.0))),
        strict_gap=float(bv @ x - 0.5 * (x @ x)),
    )
    return FarkasOutcome(FarkasTag.SYSTEM2, y=None, x=x, verification=ver)


def verify_outcome(A, b, outcome: FarkasOutcome, tol: float = DEFAULT_TOL) -> bool:
    """Re-check a Farkas certificate from scratch.

    Returns True only when the certificate matching the tag is present
    and satisfies its system's conditions at the given tolerance.  Used
    in tests to confirm the two systems are mutually exclusive.
    """
    Am = as_matrix(A)
    bv = as_vector(b)
    if outcome.tag is FarkasTag.SYSTEM1:
        if outcome.y is None or outcome.x is not None:
            return False
        y = as_vector(outcome.y)
        if y.size != Am.shape[0]:
            return False
        if y.size and y.min() < -tol:
            return False
        return bool(np.linalg.norm(Am.T @ y - bv) <= tol * (1.0 + np.linalg.norm(bv)))
    if outcome.x is None or outcome.y is not None:
        return False
    x = as_vector(outcome.x)
    if x.size != bv.size:
        return False
    nx2 = float(x @ x)
    # strictness in floats: a witness below tolerance scale is noise from
    # an exact system-1 fit, not a separating vector
    if not nx2 > (tol * (1.0 + np.linalg.norm(bv))) ** 2:
        return False
    if float(bv @ x) < 0.5 * nx2:
        return False
    row_norms = np.linalg.norm(Am, axis=1)
    slack = tol * (1.0 + np.linalg.norm(x)) * row_norms
    return bool(np.all(Am @ x <= slack))


def _slack(pvals: np.ndarray, tol: float) -> float:
    """How far ``<s_j, x>`` may exceed ``p_j`` for x to count as feasible."""
    return tol * (1.0 + float(np.abs(pvals).max(initial=0.0)))


def implication_multipliers_hold(S, p, b, r, lam, mu, tol: float = DEFAULT_TOL) -> bool:
    """Check that ``(lam, mu)`` prove ``<b, x> <= r`` on ``{S x <= p}``.

    Requires ``lam >= 0``, ``mu >= 0`` and ``(S^T lam, lam . p + mu) =
    (b, r)`` within the membership threshold ``tol (1 + ||(b, r)||)``.
    Then ``<b, x> = <lam, S x> <= lam . p <= r`` for every feasible x.
    """
    lam = as_vector(lam)
    target = np.append(b, r)
    if (lam.size and lam.min() < 0.0) or mu < 0.0:
        return False
    residual = np.append(S.T @ lam - b, lam @ p + mu - r)
    return bool(np.linalg.norm(residual) <= tol * (1.0 + np.linalg.norm(target)))


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


def _augmented_test(S, gaps, b, r, row_norm: float, tol: float):
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
    size = max(float(np.abs(gaps).max(initial=0.0)), abs(r))
    scale = max(row_norm, float(np.linalg.norm(b)))
    unit = max(size / scale, 1.0) if scale else 1.0
    columns = np.column_stack([S, gaps / unit])
    vertical = np.append(np.zeros(b.size), 1.0)
    target = np.append(b, r / unit)
    sol = nnls(np.vstack([columns, vertical]).T, target, tol)
    member = bool(np.linalg.norm(sol.residual) <= tol * (1.0 + np.linalg.norm(target)))
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
    stopping tolerance and the membership threshold.  Its multipliers
    ``(lam, mu)``, mu scaled back to the units of r, are the proof and
    are reported once `implication_multipliers_hold` passes.  When it
    does not, the residual ``(u, t)`` of that solve, t brought back to
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
    S = generator_matrix([s for s, _ in pairs], dim=bv.size).T
    pvals = np.array([float(p) for _, p in pairs])

    plain = positive_relative_test(np.column_stack([S, pvals]), np.append(bv, r), tol)
    row_norm = float(np.linalg.norm(S, axis=1).max(initial=0.0))
    member, aug, w = _augmented_test(S, pvals, bv, r, row_norm, tol)

    # dividing the gaps by the worst violation over the largest ||s_j||
    # balances the lifted pairs; it scales the point, not which pairs are tight
    slack = _slack(pvals, tol)
    point, gaps = np.zeros(bv.size), pvals
    refuted = None
    for _ in range(FEASIBLE_ROUNDS):
        if np.all(gaps >= -slack):
            break
        unit = -gaps.min() / row_norm if row_norm else 1.0
        sol = nnls(np.column_stack([S, gaps / unit]).T, np.append(np.zeros(bv.size), -1.0), tol)
        if np.linalg.norm(sol.residual) <= 2.0 * tol:
            refuted = sol.rho  # (0, -1) is in the lifted cone (`positive_relative_test`'s threshold)
            break
        tight = np.flatnonzero(sol.rho)
        point = point + np.linalg.lstsq(S[tight], gaps[tight], rcond=None)[0]
        gaps = pvals - S @ point

    feasible = point if np.all(gaps >= -slack) else None
    if feasible is not None:
        consistency = max(0.0, -float(gaps.min(initial=0.0)))
    else:
        consistency = 1.0 if refuted is None else infeasibility_residual(S, pvals, refuted)
        if consistency > tol:
            refuted = None

    multipliers = violator = None
    if member and implication_multipliers_hold(S, pvals, bv, r, aug[:-1], aug[-1], tol):
        multipliers = aug
    elif feasible is not None:
        r_c = r - float(bv @ feasible)
        if feasible.any():
            w = _augmented_test(S, gaps, bv, r_c, row_norm, tol)[2]
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
        consistency_residual=consistency,
    )
