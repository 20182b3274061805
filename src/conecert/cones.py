"""Cone data model and certified projections.

Two orientations of a finitely generated cone appear throughout: the
generated cone ``cone(K)`` of all nonnegative combinations, and its
dual-form partner ``C = {y : <y, k> >= 0 for all k in K}``.  Projections
onto both are computed from one nonnegative least-squares solve and come
back with the multipliers, the active generators, and residuals for the
optimality conditions.  ``verify_characterization`` re-checks a claimed
projection independently and reports each condition separately.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .certificates import CertificateReport
from .errors import NotInDualCone
from .linalg import DEFAULT_TOL, as_vector, generator_matrix, matrix_rank, nnls

# multipliers above 1e-10 * max(1, ||rho||_inf) count as active
ACTIVE_RTOL = 1e-10


class Orientation(str, Enum):
    GENERATED = "generated"
    DUAL_FORM = "dual"


@dataclass(frozen=True, eq=False)
class ConeSpec:
    """A finite generator set plus the orientation it is read in.

    ``generators`` is converted once, to an m x d array with one generator
    per row (an empty set becomes a 0 x 0 array).  ``witness_e`` is
    optional metadata: a vector with ``<k, e> > 0`` for every generator.
    When present it is validated here and certified in
    `verify_characterization`; no computation requires it.
    """

    generators: np.ndarray
    orientation: Orientation = Orientation.DUAL_FORM
    witness_e: Optional[np.ndarray] = None

    def __post_init__(self):
        gens = generator_matrix(self.generators, dim=0).T
        object.__setattr__(self, "generators", gens)
        if self.witness_e is not None:
            e = as_vector(self.witness_e)
            object.__setattr__(self, "witness_e", e)
            if gens.size and float((gens @ e).min()) <= 0.0:
                raise ValueError("witness_e must have strictly positive inner product with every generator")


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
class MoreauSplit:
    pc: np.ndarray
    pdual: np.ndarray


@dataclass(frozen=True, eq=False)
class DualDecomposition:
    """Split of a dual-cone element into null-space and pseudoinverse parts."""

    nu: np.ndarray
    eta: np.ndarray
    z: np.ndarray
    x0: np.ndarray


@dataclass(frozen=True, eq=False)
class ZigDecomposition:
    """Joint cone/dual-cone decomposition through the synthesis operator."""

    rho: np.ndarray
    x0: np.ndarray
    eta: np.ndarray
    pc: np.ndarray
    pdual: np.ndarray
    report: CertificateReport


def _active_indices(rho: np.ndarray) -> np.ndarray:
    if rho.size == 0:
        return np.zeros(0, dtype=int)
    return np.flatnonzero(rho > ACTIVE_RTOL * max(1.0, float(np.abs(rho).max())))


def contains(cone: ConeSpec, x, tol: float = DEFAULT_TOL) -> bool:
    """Membership test for either cone orientation.

    Dual form: all generator inner products at least ``-tol * (1 + ||x||)``.
    Generated: the nonnegative least-squares residual is below the same
    scaled tolerance.
    """
    if cone.orientation is Orientation.GENERATED:
        return positive_relative_test(cone.generators, x, tol).positive
    xv = as_vector(x)
    if cone.generators.size == 0:
        return True
    return bool((cone.generators @ xv).min() >= -tol * (1.0 + np.linalg.norm(xv)))


def positive_relative_test(gamma, x, tol: float = DEFAULT_TOL) -> PositiveRelative:
    """Decide membership of x in the closed conical hull of gamma.

    Positive outcome carries nonnegative multipliers reproducing x;
    negative outcome carries a separating witness w with ``<g, w>``
    below tolerance for every g in gamma while ``<x, w> = ||w||^2 > 0``.
    """
    xv = as_vector(x)
    G = generator_matrix(gamma, dim=xv.size)
    sol = nnls(G, xv, tol)
    if np.linalg.norm(sol.residual) <= tol * (1.0 + np.linalg.norm(xv)):
        return PositiveRelative(True, sol.rho, None)
    return PositiveRelative(False, None, sol.residual)


def project_generated(K, x, tol: float = DEFAULT_TOL) -> ProjectionResult:
    """Project x onto cone(K) with the multipliers certifying optimality."""
    xv = as_vector(x)
    S = generator_matrix(K, dim=xv.size)
    sol = nnls(S, xv, tol)
    point = S @ sol.rho
    r = xv - point
    inner = S.T @ r
    kkt = 0.0
    if inner.size:
        kkt = max(float(np.maximum(inner, 0.0).max()), float(np.abs(sol.rho * inner).max()))
    orth = abs(float(r @ point))
    return ProjectionResult(point, sol.rho, _active_indices(sol.rho), kkt, orth)


def project_dual(K, x, tol: float = DEFAULT_TOL) -> ProjectionResult:
    """Project x onto the dual-form cone ``{y : <y, k> >= 0 for all k in K}``.

    Computed as ``x + P_cone(K)(-x)``, a consequence of the Moreau
    decomposition.  The multipliers are those of the one Lawson-Hanson
    solve, whose support is linearly independent by construction; the
    projected point satisfies ``<k_i, x0> = 0`` on the active set.
    """
    xv = as_vector(x)
    S = generator_matrix(K, dim=xv.size)
    rho = nnls(S, -xv, tol).rho
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


def moreau_decompose(K, x, tol: float = DEFAULT_TOL) -> MoreauSplit:
    """Split x into its projections onto cone(K) and the dual cone.

    ``pc + pdual == x`` with ``<pc, pdual> == 0`` up to tolerance;
    ``pc`` lies in cone(K) and ``pdual`` in ``K^-`` (all inner products
    with generators nonpositive).
    """
    xv = as_vector(x)
    pc = project_generated(K, xv, tol).point
    return MoreauSplit(pc=pc, pdual=xv - pc)


def verify_characterization(K, x, x0, tol: float = DEFAULT_TOL, witness_e=None) -> CertificateReport:
    """Independently certify that x0 is the dual-form projection of x.

    Checks (each a named report entry):
      * the difference ``x0 - x`` lies in cone(K) with strictly positive
        multipliers on a linearly independent subset,
      * every active generator is orthogonal to x0,
      * x0 satisfies the cone inequalities,
      * the active count m obeys ``m <= d`` (and ``m <= d - 1`` when
        ``||x0|| > 1e-8``),
      * some generator has negative inner product with x (so x was
        genuinely infeasible).

    The multipliers come from an NNLS re-solve of ``x0 - x`` over all of
    K.  By the characterization only generators orthogonal to x0 can carry
    weight, so the re-solve tries that face of x0 first (``nnls``'s
    ``prefer``, the generators with ``|<k_i, x0>|`` within the
    ``active_orthogonality`` threshold) and falls back to every generator
    only when none of them can enter.  That order changes the work, not
    the checks: the re-solve still stops only at the optimum over all of
    K, and every check, threshold and name above is the same as for a
    cold re-solve.

    When x already lies in the cone the report instead records the
    trivial fixed-point check ``x0 == x``.  A provided ``witness_e`` adds
    a positivity check of the compactness/pointedness hypothesis.
    """
    xv = as_vector(x)
    x0v = as_vector(x0)
    S = generator_matrix(K, dim=xv.size)
    d = xv.size
    report = CertificateReport()

    if witness_e is not None:
        e = as_vector(witness_e)
        margin = float((S.T @ e).min()) if S.shape[1] else 1.0
        report.add("witness_positivity", max(0.0, -margin), margin > 0.0)

    feas_scale = tol * (1.0 + np.linalg.norm(xv))
    if S.shape[1] == 0 or float((S.T @ xv).min(initial=0.0)) >= -feas_scale:
        report.trivial_feasible = True
        fix = float(np.linalg.norm(x0v - xv))
        report.add("fixed_point", fix, fix <= feas_scale)
        return report

    inner = S.T @ x0v
    orth_scale = tol * (1.0 + np.linalg.norm(x0v))
    diff = x0v - xv
    sol = nnls(S, diff, tol, prefer=np.flatnonzero(np.abs(inner) <= orth_scale))
    res_a = float(np.linalg.norm(sol.residual))
    report.add("difference_in_cone", res_a, res_a <= tol * (1.0 + np.linalg.norm(diff)))

    active = _active_indices(sol.rho)
    m = int(active.size)
    report.add("active_set_nonempty", float(m == 0), m >= 1)
    if m:
        rank = matrix_rank(S[:, active])
        report.add("active_set_independent", float(m - rank), rank == m)
        min_w = float(sol.rho[active].min())
        report.add("positive_multipliers", max(0.0, -min_w), min_w > 0.0)
        ortho = float(np.abs(inner[active]).max())
        report.add("active_orthogonality", ortho, ortho <= orth_scale)

    viol = max(0.0, -float(inner.min()))
    report.add("point_in_cone", viol, viol <= orth_scale)

    limit = d - 1 if np.linalg.norm(x0v) > 1e-8 else d
    report.add("active_count_bound", float(m - limit), m <= limit)

    min_inner = float((S.T @ xv).min())
    report.add("infeasible_direction_exists", max(0.0, min_inner), min_inner < 0.0)
    return report


def dual_cone_decompose(K, y, tol: float = DEFAULT_TOL) -> DualDecomposition:
    """Split y in the dual cone of cone(K) into orthogonal components.

    ``eta_j = -<y, k_j> >= 0``, ``z = -pinv(S^T) @ eta`` lies in the
    orthogonal complement of the null space of ``S^T``, and
    ``nu = y - z`` lies in that null space.  Raises `NotInDualCone` when
    y violates ``<y, k_j> <= 0`` beyond tolerance.

    ``pinv(S^T) @ v`` is computed as the minimum-norm least-squares
    solution of ``S^T z = v`` (``np.linalg.lstsq`` at numpy's default
    cut-off ``max(d, m) * eps * sigma_1``, the library's rank rule), one
    solve for ``eta`` and the ``<y, k_j>``.
    """
    yv = as_vector(y)
    S = generator_matrix(K, dim=yv.size)
    inner = S.T @ yv
    allowance = tol * (1.0 + np.linalg.norm(yv)) * np.linalg.norm(S, axis=0)
    if inner.size and np.any(inner > allowance):
        worst = float(inner.max())
        raise NotInDualCone(f"<y, k_i> = {worst:.3e} > 0 beyond tolerance")
    eta = np.maximum(-inner, 0.0)
    lift, along = np.linalg.lstsq(S.T, np.column_stack([eta, inner]), rcond=None)[0].T
    z = -lift
    nu = yv - z
    x0 = yv - along
    return DualDecomposition(nu=nu, eta=eta, z=z, x0=x0)


def zig_decompose(K, x, tol: float = DEFAULT_TOL) -> ZigDecomposition:
    """Decompose x through the synthesis operator of cone(K).

    Returns ``rho`` and ``eta`` nonnegative with ``<rho, eta> = 0``,
    ``x0`` the component of x in the null space of ``S^T``, and the two
    Moreau parts ``pc`` and ``pdual``; the attached report certifies
      (1) ``x = S rho + x0 - pinv(S^T) eta``,
      (2) the sign and orthogonality conditions on rho and eta,
      (3) ``pdual = x0 - pinv(S^T) eta`` with ``<x0, pinv(S^T) eta> = 0``,
      (4) both expressions for the cone projection agree.

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

    scale = 1.0 + np.linalg.norm(xv)
    report = CertificateReport()
    r1 = float(np.linalg.norm(xv - (pc + x0 - lift)))
    report.add("statement1_decomposition", r1, r1 <= tol * scale)
    r2_sign = max(0.0, -float(rho.min(initial=0.0)), -float(eta.min(initial=0.0)))
    report.add("statement2_sign_conditions", r2_sign, r2_sign <= tol)
    r2_null = float(np.linalg.norm(eta - S.T @ lift))
    report.add("statement2_eta_in_row_space", r2_null, r2_null <= tol * (1.0 + np.linalg.norm(eta)))
    r2_comp = abs(float(rho @ eta))
    report.add(
        "statement2_complementarity",
        r2_comp,
        r2_comp <= tol * (1.0 + np.linalg.norm(rho) * np.linalg.norm(eta)),
    )
    r3 = float(np.linalg.norm(pdual - (x0 - lift)))
    report.add("statement3_dual_projection", r3, r3 <= tol * scale)
    r3b = abs(float(x0 @ lift))
    report.add("statement3_orthogonality", r3b, r3b <= tol * (1.0 + float(xv @ xv)))
    r4 = float(np.linalg.norm(pc - (along + lift)))
    report.add("statement4_projection_formulas", r4, r4 <= tol * scale)

    return ZigDecomposition(rho=rho, x0=x0, eta=eta, pc=pc, pdual=pdual, report=report)
