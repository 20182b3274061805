"""Cone data model and certified projections.

Two orientations of a finitely generated cone appear throughout: the
generated cone ``cone(K)`` of all nonnegative combinations, and its
dual-form partner ``C = {y : <y, k> >= 0 for all k in K}``.  Projections
onto both are computed from one nonnegative least-squares solve and come
back with the multipliers, the active generators, and residuals for the
optimality conditions.  The certificates re-check a result from its own
multipliers and solve nothing.  ``verify_characterization`` checks a
dual-form projection given only as a point, each condition separately.

``zig_decompose`` is the one decomposition of x through the synthesis
operator S of cone(K): ``x = S rho + x0 + z`` with ``z = -pinv(S^T) eta``.
Its corollaries are read off its fields rather than computed again:
Moreau's split ``x = pc + pdual`` (``pc`` is `project_generated`'s point,
``pdual`` lies in the polar cone ``K^- = {y : <y, k> <= 0}``), and for y
in ``K^-`` (up to the NNLS slack; exactly when ``rho`` is all zero) the
split ``y = x0 + z`` into its parts in and orthogonal to the null space
of ``S^T``.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .certificates import CertificateReport
from .linalg import (DEFAULT_TOL, _member, _products_limit, _scale, add_member_check, add_witness_checks, as_vector,
                     generator_matrix, nnls)

# multipliers above 1e-10 * max(1, ||rho||_inf) count as active
ACTIVE_RTOL = 1e-10


@dataclass(frozen=True, eq=False)
class ProjectionResult:
    """Projected point with multipliers and certificate residuals.

    ``active`` indexes the generators carrying multipliers above the
    activity threshold; ``kkt_residual`` is the largest violation of the
    optimality conditions and ``orthogonality_residual`` is
    ``|<x - point, point>|``.
    """

    point: np.ndarray
    rho: np.ndarray
    active: np.ndarray
    kkt_residual: float
    orthogonality_residual: float


@dataclass(frozen=True, eq=False)
class PositiveRelative:
    """Conic membership with representation or separating witness."""

    positive: bool
    rho: Optional[np.ndarray]
    witness: Optional[np.ndarray]


@dataclass(frozen=True, eq=False)
class ZigDecomposition:
    """Joint cone/dual-cone decomposition through the synthesis operator.

    ``x = pc + x0 + z`` with ``pc = S rho`` and ``z = -pinv(S^T) eta``;
    ``pc + pdual = x`` is Moreau's split, and when x lies in ``K^-``
    (``rho`` all zero) ``x0`` and ``z`` are its parts in and orthogonal
    to the null space of ``S^T``.
    """

    rho: np.ndarray
    x0: np.ndarray
    eta: np.ndarray
    z: np.ndarray
    pc: np.ndarray
    pdual: np.ndarray
    report: CertificateReport


def _active_indices(rho: np.ndarray) -> np.ndarray:
    if rho.size == 0:
        return np.zeros(0, dtype=int)
    return np.flatnonzero(rho > ACTIVE_RTOL * max(1.0, float(np.abs(rho).max())))


def positive_relative_test(gamma, x, tol: float = DEFAULT_TOL) -> PositiveRelative:
    """Decide membership of x in the closed conical hull of gamma.

    Positive outcome carries nonnegative multipliers reproducing x;
    negative outcome carries a separating witness w with ``<g, w>``
    below tolerance for every g in gamma while ``<x, w> = ||w||^2 > 0``.
    """
    xv = as_vector(x)
    G = generator_matrix(gamma, dim=xv.size)
    sol = nnls(G, xv, tol)
    if _member(sol.residual, xv, tol):
        return PositiveRelative(True, sol.rho, None)
    return PositiveRelative(False, None, sol.residual)


def cone_membership_certificate(gamma, x, result: PositiveRelative, tol: float = DEFAULT_TOL) -> CertificateReport:
    """Re-check a `positive_relative_test` answer: multipliers >= 0, or ``<g, w> <= 0``."""
    xv = as_vector(x)
    G = generator_matrix(gamma, dim=xv.size)
    report = CertificateReport()
    if result.positive:
        add_member_check(report, "representation", xv - G @ result.rho, xv, tol)
        min_coeff = float(result.rho.min(initial=0.0))
        report.add("multipliers_nonnegative", max(0.0, -min_coeff), min_coeff >= 0.0)
    else:
        w = result.witness
        add_witness_checks(report, G, xv, w, "witness_nonpositive_products", max(0.0, float((G.T @ w).max(initial=0.0))), tol)
    return report


def _add_residual_checks(report: CertificateReport, S, xv, result: ProjectionResult, kkt_name: str, tol: float) -> None:
    """A projection's KKT residual within `_products_limit` and its
    orthogonality residual within ``tol (1 + ||x||^2)``."""
    report.add(kkt_name, result.kkt_residual, result.kkt_residual <= _products_limit(S, xv, tol))
    report.add("orthogonality", result.orthogonality_residual, result.orthogonality_residual <= tol * (1.0 + float(xv @ xv)))


def _generated_result(S, xv, rho) -> ProjectionResult:
    """The projection ``S rho`` onto cone(K), its active set and residuals."""
    point = S @ rho
    r = xv - point
    inner = S.T @ r
    kkt = 0.0
    if inner.size:
        kkt = max(float(np.maximum(inner, 0.0).max()), float(np.abs(rho * inner).max()))
    orth = abs(float(r @ point))
    return ProjectionResult(point, rho, _active_indices(rho), kkt, orth)


def project_generated(K, x, tol: float = DEFAULT_TOL) -> ProjectionResult:
    """Project x onto cone(K) with the multipliers certifying optimality."""
    xv = as_vector(x)
    S = generator_matrix(K, dim=xv.size)
    return _generated_result(S, xv, nnls(S, xv, tol).rho)


def generated_projection_certificate(K, x, result: ProjectionResult, tol: float = DEFAULT_TOL) -> CertificateReport:
    """Re-check a `project_generated` result: rho >= 0, the residuals rho
    gives (not the reported ones), ``point = S rho``."""
    xv = as_vector(x)
    S = generator_matrix(K, dim=xv.size)
    report = CertificateReport()
    min_rho = float(result.rho.min(initial=0.0))
    report.add("multipliers_nonnegative", max(0.0, -min_rho), min_rho >= 0.0)
    _add_residual_checks(report, S, xv, _generated_result(S, xv, result.rho), "kkt_inequalities", tol)
    add_member_check(report, "representation", result.point - S @ result.rho, xv, tol)
    return report


def _dual_result(S, xv, rho) -> ProjectionResult:
    """The projection ``x + S rho`` onto the dual-form cone, its active set and residuals."""
    active = _active_indices(rho)
    point = xv + S @ rho
    kkt = 0.0
    if S.shape[1]:
        inner = S.T @ point
        kkt = max(0.0, float((-inner).max()))
        if active.size:
            kkt = max(kkt, float(np.abs(inner[active]).max()))
    orth = abs(float((xv - point) @ point))
    return ProjectionResult(point, rho, active, kkt, orth)


def project_dual(K, x, tol: float = DEFAULT_TOL) -> ProjectionResult:
    """Project x onto the dual-form cone ``{y : <y, k> >= 0 for all k in K}``.

    Computed as ``x + P_cone(K)(-x)``, a consequence of the Moreau
    decomposition.  The multipliers are those of the one Lawson-Hanson
    solve, whose support is linearly independent by construction; the
    projected point satisfies ``<k_i, x0> = 0`` on the active set.
    """
    xv = as_vector(x)
    S = generator_matrix(K, dim=xv.size)
    return _dual_result(S, xv, nnls(S, -xv, tol).rho)


def _characterization(S, xv, x0v, tol: float, witness_e, multipliers) -> CertificateReport:
    """`verify_characterization`'s checks on ``rho = multipliers(x0 - x, face)``,
    ``face`` the generators within the ``active_orthogonality`` threshold."""
    d = xv.size
    report = CertificateReport()

    if witness_e is not None:
        e = as_vector(witness_e)
        margin = float((S.T @ e).min()) if S.shape[1] else 1.0
        report.add("witness_positivity", max(0.0, -margin), margin > 0.0)

    if S.shape[1] == 0 or float((S.T @ xv).min(initial=0.0)) >= -_scale(xv, tol):
        add_member_check(report, "fixed_point", x0v - xv, xv, tol)
        return report

    inner = S.T @ x0v
    orth_scale = _scale(x0v, tol)
    diff = x0v - xv
    rho = multipliers(diff, np.flatnonzero(np.abs(inner) <= orth_scale))
    add_member_check(report, "difference_in_cone", diff - S @ rho, diff, tol)

    active = _active_indices(rho)
    m = int(active.size)
    report.add("active_set_nonempty", float(m == 0), m >= 1)
    if m:
        rank = np.linalg.matrix_rank(S[:, active])
        report.add("active_set_independent", float(m - rank), rank == m)
        # the active multipliers are positive by their threshold; the rest must not be negative
        min_w = float(rho.min())
        report.add("positive_multipliers", max(0.0, -min_w), min_w >= 0.0)
        ortho = float(np.abs(inner[active]).max())
        report.add("active_orthogonality", ortho, ortho <= orth_scale)

    viol = max(0.0, -float(inner.min()))
    report.add("point_in_cone", viol, viol <= orth_scale)

    limit = d - 1 if np.linalg.norm(x0v) > 1e-8 else d
    report.add("active_count_bound", float(m - limit), m <= limit)

    min_inner = float((S.T @ xv).min())
    report.add("infeasible_direction_exists", max(0.0, min_inner), min_inner < 0.0)
    return report


def verify_characterization(K, x, x0, tol: float = DEFAULT_TOL, witness_e=None) -> CertificateReport:
    """Independently certify that x0 is the dual-form projection of x.

    Checks (each a named report entry):
      * the difference ``x0 - x`` is ``S rho`` with rho >= 0, strictly
        positive on a linearly independent subset,
      * every active generator is orthogonal to x0,
      * x0 satisfies the cone inequalities,
      * the active count m obeys ``m <= d`` (and ``m <= d - 1`` when
        ``||x0|| > 1e-8``),
      * some generator has negative inner product with x (so x was
        genuinely infeasible).

    rho comes from an NNLS re-solve of ``x0 - x`` over all of K, made only
    because a point carries no multipliers; `dual_projection_certificate`
    reads them off the result.  By the characterization only generators
    orthogonal to x0 can carry weight, so the re-solve tries that face of
    x0 first (``nnls``'s ``prefer``, the generators with ``|<k_i, x0>|``
    within the ``active_orthogonality`` threshold) and falls back to every
    generator only when none of them can enter.  That order changes the
    work, not the checks: the re-solve still stops only at the optimum
    over all of K, and every check, threshold and name above is the same
    as for a cold re-solve.

    When x already lies in the cone the report instead records the
    trivial fixed-point check ``x0 == x``.  A provided ``witness_e`` adds
    a positivity check of the compactness/pointedness hypothesis.
    """
    xv = as_vector(x)
    S = generator_matrix(K, dim=xv.size)
    return _characterization(S, xv, as_vector(x0), tol, witness_e, lambda diff, face: nnls(S, diff, tol, prefer=face).rho)


def dual_projection_certificate(K, x, result: ProjectionResult, tol: float = DEFAULT_TOL, witness_e=None) -> CertificateReport:
    """`verify_characterization`'s checks on a `project_dual` result's own
    rho, with no solve, then the residuals rho gives (not those reported)."""
    xv = as_vector(x)
    S = generator_matrix(K, dim=xv.size)
    report = _characterization(S, xv, as_vector(result.point), tol, witness_e, lambda diff, face: result.rho)
    _add_residual_checks(report, S, xv, _dual_result(S, xv, result.rho), "kkt_residual", tol)
    return report


def zig_decompose(K, x, tol: float = DEFAULT_TOL) -> ZigDecomposition:
    """Decompose x through the synthesis operator of cone(K).

    Returns ``rho`` and ``eta`` nonnegative with ``<rho, eta> = 0``,
    ``x0`` the component of x in the null space of ``S^T``,
    ``z = -pinv(S^T) eta``, and the two Moreau parts ``pc`` and
    ``pdual``; the attached report certifies
      (1) ``x = S rho + x0 + z``,
      (2) the sign and orthogonality conditions on rho and eta,
      (3) ``pdual = x0 + z`` with ``<x0, z> = 0``,
      (4) both expressions for the cone projection agree.

    y lies in the polar cone ``K^-`` within the NNLS slack
    ``tol (1 + ||y||) ||k_i||`` exactly when ``rho`` is all zero; then
    ``pdual = y`` and ``y = x0 + z``.

    ``pinv(S^T) @ v`` is computed as the minimum-norm least-squares
    solution of ``S^T z = v`` (``np.linalg.lstsq`` at numpy's default
    cut-off ``max(d, m) * eps * sigma_1``, the library's rank rule), one
    solve for ``S^T x`` and ``eta``; the residual of the eta column is the
    part of eta in the null space of S that statement (2) bounds.
    """
    xv = as_vector(x)
    S = generator_matrix(K, dim=xv.size)
    sol = nnls(S, xv, tol)
    rho = sol.rho
    pc = S @ rho
    pdual = xv - pc
    eta = np.maximum(-(S.T @ pdual), 0.0)
    along, lift = np.linalg.lstsq(S.T, np.column_stack([S.T @ xv, eta]), rcond=None)[0].T
    x0 = xv - along

    report = CertificateReport()
    add_member_check(report, "statement1_decomposition", xv - (pc + x0 - lift), xv, tol)
    r2_sign = max(0.0, -float(rho.min(initial=0.0)), -float(eta.min(initial=0.0)))
    report.add("statement2_sign_conditions", r2_sign, r2_sign <= tol)
    add_member_check(report, "statement2_eta_in_row_space", eta - S.T @ lift, eta, tol)
    r2_comp = abs(float(rho @ eta))
    report.add(
        "statement2_complementarity",
        r2_comp,
        r2_comp <= tol * (1.0 + np.linalg.norm(rho) * np.linalg.norm(eta)),
    )
    add_member_check(report, "statement3_dual_projection", pdual - (x0 - lift), xv, tol)
    r3b = abs(float(x0 @ lift))
    report.add("statement3_orthogonality", r3b, r3b <= tol * (1.0 + float(xv @ xv)))
    add_member_check(report, "statement4_projection_formulas", pc - (along + lift), xv, tol)

    return ZigDecomposition(rho=rho, x0=x0, eta=eta, z=-lift, pc=pc, pdual=pdual, report=report)
