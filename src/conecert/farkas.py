"""Farkas alternatives with machine-checkable certificates.

Exactly one of the two systems is solvable: either the target is a
nonnegative combination of the matrix rows, or some vector separates it
from their cone.  The decision reduces to one nonnegative least-squares
solve; a zero residual yields the combination, a nonzero residual *is*
the separating vector.  `verify_outcome` re-checks either certificate
without the solver.
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
    """Finite-index generalized Farkas equivalences.

    ``member_plain`` tests ``(b, r)`` against the cone of the pairs
    alone, ``member_augmented`` adds the vertical ray ``(0, 1)``.
    Feasibility of ``<s_j, x> <= p_j`` is decided on the lifted pairs
    (see `generalized_farkas`), and a reported ``feasible_point`` passes
    ``S x <= p``; the universally quantified implication is only
    spot-checked on sampled feasible points, and an infeasible system is
    flagged unverified.
    """

    member_plain: bool
    member_augmented: bool
    sampled_implication_holds: bool
    hypothesis_verified: bool
    feasible_point: Optional[np.ndarray]
    samples_used: int


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


def generalized_farkas(pairs, b, r, tol: float = DEFAULT_TOL, seed: int = 0, samples: int = 100) -> GenFarkasReport:
    """Membership form of the generalized Farkas theorem for finite pairs.

    Parameters
    ----------
    pairs : sequence of (vector, scalar)
        The constraint data ``<s_j, x> <= p_j``.
    b, r : vector and scalar
        The candidate consequence ``<b, x> <= r``.
    seed, samples : RNG seed and number of feasible points for the
        spot-check of the universally quantified statement.

    The system is infeasible exactly when ``(0, -1)`` lies in the cone of
    the lifted pairs ``(s_j, p_j)``; then ``feasible_point`` is None.
    Otherwise the residual ``(w, t)`` has ``t < 0`` and ``w / -t`` is the
    feasible point nearest the origin, solved from the pairs carrying
    multipliers (tight there) rather than divided by the cancelling ``t``.
    It is kept only if it passes the samples' ``S x <= p`` check; one that
    misses it is refined by the same step taken from it.
    """
    bv = as_vector(b)
    S = generator_matrix([s for s, _ in pairs], dim=bv.size).T
    pvals = np.array([float(p) for _, p in pairs])

    lifted = np.column_stack([S, pvals])
    target = np.append(bv, float(r))
    plain = positive_relative_test(lifted, target, tol)
    vertical = np.append(np.zeros(bv.size), 1.0)
    augmented = positive_relative_test(np.vstack([lifted, vertical]), target, tol)

    # dividing the gaps by the worst violation over the largest ||s_j||
    # balances the lifted pairs; it scales the point, not which pairs are tight
    slack = tol * (1.0 + float(np.abs(pvals).max(initial=0.0)))
    row_norm = float(np.linalg.norm(S, axis=1).max(initial=0.0))
    point, gaps = np.zeros(bv.size), pvals
    for _ in range(FEASIBLE_ROUNDS):
        if np.all(gaps >= -slack):
            break
        unit = -gaps.min() / row_norm if row_norm else 1.0
        sol = nnls(np.column_stack([S, gaps / unit]).T, np.append(np.zeros(bv.size), -1.0), tol)
        if np.linalg.norm(sol.residual) <= 2.0 * tol:
            break  # (0, -1) is in the lifted cone (`positive_relative_test`'s threshold)
        tight = np.flatnonzero(sol.rho)
        point = point + np.linalg.lstsq(S[tight], gaps[tight], rcond=None)[0]
        gaps = pvals - S @ point
    feasible = point if np.all(gaps >= -slack) else None
    sampled_ok = True
    used = 0
    if feasible is not None:
        rng = np.random.default_rng(seed)
        points = [feasible]
        attempts = 0
        spread = 1.0 + float(np.linalg.norm(feasible))
        while len(points) < samples and attempts < 50 * samples:
            attempts += 1
            cand = feasible + spread * rng.standard_normal(bv.size)
            if np.all(S @ cand - pvals <= slack):
                points.append(cand)
        used = len(points)
        bound = float(r) + tol * (1.0 + abs(float(r)))
        sampled_ok = all(float(bv @ pt) <= bound for pt in points)

    return GenFarkasReport(
        member_plain=plain.positive,
        member_augmented=augmented.positive,
        sampled_implication_holds=sampled_ok,
        hypothesis_verified=feasible is not None,
        feasible_point=feasible,
        samples_used=used,
    )
