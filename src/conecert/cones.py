"""Cone data model, membership and certified projections.

Two orientations of a finitely generated cone appear throughout: the
generated cone ``cone(K)`` of all nonnegative combinations, and its
dual-form partner ``C = {y : <y, k> >= 0 for all k in K}``.  Projections
onto both are computed from one nonnegative least-squares solve and come
back with the multipliers, from which the active generators and the
optimality residuals are derived.  Membership of x in the cone
(`positive_relative_test`) or span (`span_membership`) of gamma has the
separation theorem's two outcomes, one `Membership`: coefficients, or
the fit's residual as a separating witness.  Each result holds its
problem, ``S`` (the generators as columns) and ``x``, and
``*_certificate(result, tol)`` re-checks it from its own multipliers or
witness, with no solve and no coercion, at the library's one rule (`linalg`).
``verify_characterization`` checks a dual-form projection given only as
a point, each condition separately, on multipliers from one solve
started from the point's face.

``zig_decompose`` is the one decomposition of x through the synthesis
operator S of cone(K), and ``zig_certificate`` re-checks it; its
corollaries, Moreau's split and the split of a polar-cone point by the
null space of ``S^T``, are read off its fields.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .certificates import CertificateReport
from .linalg import DEFAULT_TOL, _lengths, _member, _norm, _products, _scale, as_vector, generator_matrix, nnls

# generators whose share rho_i ||k_i|| is above 1e-10 times the largest count as active
ACTIVE_RTOL = 1e-10


@dataclass(frozen=True, eq=False)
class ProjectionResult:
    """Projected point and multipliers on the problem ``(S, x)``: ``S rho``
    onto cone(K) for ``orientation`` ``"generated"``, ``x + S rho`` onto
    the dual-form cone for ``"dual"``, whose problem may add ``witness_e``.
    ``kkt_residual`` and ``orthogonality_residual`` come from rho (`_optimality`)."""

    orientation: str
    point: np.ndarray
    rho: np.ndarray
    S: np.ndarray
    x: np.ndarray
    witness_e: Optional[np.ndarray] = None

    @property
    def active(self) -> np.ndarray:
        """The generators whose share ``rho_i ||k_i||`` is above the activity threshold."""
        return _active_indices(self.rho, _lengths(self.S))

    @property
    def kkt_residual(self) -> float:
        return _optimality(self, _lengths(self.S))[0]

    @property
    def orthogonality_residual(self) -> float:
        return _optimality(self, _lengths(self.S))[1]


@dataclass(frozen=True, eq=False)
class Membership:
    """Membership of x in the cone or span (``mode``) of S: a member carries
    only ``coefficients`` reproducing x, a nonmember only the ``witness``
    w, the residual of the fit, with ``<x, w> = ||w||^2 > 0``."""

    mode: str
    member: bool
    coefficients: Optional[np.ndarray]
    witness: Optional[np.ndarray]
    S: np.ndarray
    x: np.ndarray


@dataclass(frozen=True, eq=False)
class ZigDecomposition:
    """Joint cone/dual-cone decomposition of x through the synthesis operator S.

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
    S: np.ndarray
    x: np.ndarray


def _split_product(a, b, x) -> float:
    """``|<a, b>| / ||x||`` (``|<a, b>|`` for x = 0) for parts a, b of x: how far
    the split is from orthogonal, as a length.  Divided by ``||a||``, an a
    that is rounding of 0 would give the product the size of x."""
    nx = float(_norm(x))
    return abs(float(a @ b)) / (nx if nx > 0.0 else 1.0)


def _of_length(v, name: str, d: int) -> Optional[np.ndarray]:
    """``as_vector(v)`` (None stays None), which must have length d (else ValueError)."""
    if v is not None and (v := as_vector(v)).size != d:
        raise ValueError(f"{name} has length {v.size}, expected {d}")
    return v


def _active_indices(rho: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The generators whose share ``rho_i ||k_i||`` of ``S rho`` is above ACTIVE_RTOL times the largest."""
    if rho.size == 0:
        return np.zeros(0, dtype=int)
    share = rho * lengths
    return np.flatnonzero(share > ACTIVE_RTOL * float(np.abs(share).max()))


def positive_relative_test(gamma, x, tol: float = DEFAULT_TOL) -> Membership:
    """Decide membership of x in the closed conical hull of gamma.

    A member's coefficients are nonnegative multipliers reproducing x;
    otherwise the witness w has ``<g, w> / ||g||`` at most ``tol ||x||``
    for every g in gamma while ``<x, w> = ||w||^2 > 0``.
    """
    xv = as_vector(x)
    G = generator_matrix(gamma, dim=xv.size)
    sol = nnls(G, xv, tol)
    if _member(sol.residual, xv, tol):
        return Membership("cone", True, sol.rho, None, G, xv)
    return Membership("cone", False, None, sol.residual, G, xv)


def span_membership(gamma, x, tol: float = DEFAULT_TOL) -> Membership:
    """Decide membership of x in span(gamma) by one least-squares fit over
    the generators divided by their lengths, whose residual is the witness,
    orthogonal to gamma.  An empty gamma spans {0}, by the same rule."""
    xv = as_vector(x)
    G = generator_matrix(gamma, dim=xv.size)
    lengths = _lengths(G)
    coeffs = np.linalg.lstsq(G / lengths, xv, rcond=None)[0] / lengths
    residual = xv - G @ coeffs
    if _member(residual, xv, tol):
        return Membership("span", True, coeffs, None, G, xv)
    return Membership("span", False, None, residual, G, xv)


def _membership_checks(result: Membership, tol: float, products_name: str, products) -> CertificateReport:
    """A member's ``representation``, or the checks of a witness w:
    ``<x, w> > 0``, ``products`` of the normalised products of gamma with
    w, and ``<x - w, w> = 0`` (`_split_product`), each within ``_scale(x)``."""
    S, xv = result.S, result.x
    limit = _scale(xv, tol)
    report = CertificateReport()
    if result.member:
        report.add("representation", _norm(xv - S @ result.coefficients), limit)
        return report
    w = result.witness
    xs, ws = np.ldexp([xv, w], -np.frexp(_norm(xv))[1])  # exact: the product neither underflows nor overflows
    report.add_margin("witness_separates", xs @ ws)
    report.add(products_name, products(_products(S, w)), limit)
    report.add("witness_self_product", _split_product(xv - w, w, xv), limit)
    return report


def cone_membership_certificate(result: Membership, tol: float = DEFAULT_TOL) -> CertificateReport:
    """Re-check a `positive_relative_test` answer: coefficients >= 0, or ``<g, w> <= 0``."""
    report = _membership_checks(result, tol, "witness_nonpositive_products", lambda p: max(0.0, float(p.max(initial=0.0))))
    if result.member:
        report.add("multipliers_nonnegative", max(0.0, -float(result.coefficients.min(initial=0.0))), 0.0)
    return report


def span_membership_certificate(result: Membership, tol: float = DEFAULT_TOL) -> CertificateReport:
    """Re-check a `span_membership` answer: coefficients, or a witness orthogonal to gamma."""
    return _membership_checks(result, tol, "witness_orthogonality", lambda p: float(np.abs(p).max(initial=0.0)))


def _optimality(result: ProjectionResult, lengths) -> tuple:
    """``(kkt, orthogonality)`` at the point p that ``rho`` gives (``S rho`` or
    ``x + S rho``): the worst normalised product with ``x - p`` above 0
    (generated) or with p below 0 (dual), or an active one off 0, and
    ``|<x - p, p>| / ||x||``."""
    S, xv, rho = result.S, result.x, result.rho
    if result.orientation == "generated":
        point = S @ rho
        inner = -_products(S, xv - point, lengths)
    else:
        point = xv + S @ rho
        inner = _products(S, point, lengths)
    kkt = max(0.0, -float(inner.min(initial=0.0)))
    active = _active_indices(rho, lengths)
    if active.size:
        kkt = max(kkt, float(np.abs(inner[active]).max()))
    return kkt, _split_product(xv - point, point, xv)


def _add_residual_checks(report: CertificateReport, result: ProjectionResult, kkt_name: str, tol: float, lengths) -> None:
    """A projection's KKT and orthogonality residuals, each within ``_scale(x)``."""
    kkt, orth = _optimality(result, lengths)
    limit = _scale(result.x, tol)
    report.add(kkt_name, kkt, limit)
    report.add("orthogonality", orth, limit)


def project_generated(K, x, tol: float = DEFAULT_TOL) -> ProjectionResult:
    """Project x onto cone(K) with the multipliers certifying optimality."""
    xv = as_vector(x)
    S = generator_matrix(K, dim=xv.size)
    rho = nnls(S, xv, tol).rho
    return ProjectionResult("generated", S @ rho, rho, S, xv)


def generated_projection_certificate(result: ProjectionResult, tol: float = DEFAULT_TOL) -> CertificateReport:
    """Re-check a `project_generated` result: rho >= 0, the residuals rho
    gives, ``point = S rho``."""
    report = CertificateReport()
    report.add("multipliers_nonnegative", max(0.0, -float(result.rho.min(initial=0.0))), 0.0)
    _add_residual_checks(report, result, "kkt_inequalities", tol, _lengths(result.S))
    report.add("representation", _norm(result.point - result.S @ result.rho), _scale(result.x, tol))
    return report


def project_dual(K, x, tol: float = DEFAULT_TOL, witness_e=None) -> ProjectionResult:
    """Project x onto the dual-form cone ``{y : <y, k> >= 0 for all k in K}``.

    Computed as ``x + P_cone(K)(-x)``, a consequence of the Moreau
    decomposition.  The multipliers are those of the one Lawson-Hanson
    solve, whose support is linearly independent by construction; the
    projected point satisfies ``<k_i, x0> = 0`` on the active set.  A given
    ``witness_e``, the pointedness hypothesis ``<k, e> > 0`` for every k, is
    kept on the result for `dual_projection_certificate` to check; it must
    be a finite vector of x's length (else ValueError).
    """
    xv = as_vector(x)
    S = generator_matrix(K, dim=xv.size)
    witness_e = _of_length(witness_e, "witness_e", xv.size)
    rho = nnls(S, -xv, tol).rho
    return ProjectionResult("dual", xv + S @ rho, rho, S, xv, witness_e)


def _characterization(S, xv, x0v, tol: float, witness_e, multipliers, lengths) -> CertificateReport:
    """`verify_characterization`'s checks on ``rho = multipliers(x0 - x, face)``,
    ``face`` the generators within the ``active_orthogonality`` threshold; products
    with x0 = x + S rho are judged against ``_scale(x)``, ranks on unit generators."""
    report = CertificateReport()
    if witness_e is not None:
        report.add_margin("witness_positivity", _products(S, witness_e, lengths).min() if S.shape[1] else 1.0)

    limit = _scale(xv, tol)
    inner_x = _products(S, xv, lengths)
    if S.shape[1] == 0 or float(inner_x.min()) >= -limit:
        report.add("fixed_point", _norm(x0v - xv), limit)
        return report
    inner = _products(S, x0v, lengths)
    diff = x0v - xv
    rho = multipliers(diff, np.flatnonzero(np.abs(inner) <= limit))
    report.add("difference_in_cone", _norm(diff - S @ rho), _scale(diff, tol))

    active = _active_indices(rho, lengths)
    m = int(active.size)
    report.add("active_set_nonempty", float(m == 0), 0.0)
    if m:
        report.add("active_set_independent", m - np.linalg.matrix_rank(S[:, active] / lengths[active]), 0.0)
        # the active multipliers are positive by their threshold; the rest must not be negative
        report.add("positive_multipliers", max(0.0, -float(rho.min())), 0.0)
        report.add("active_orthogonality", np.abs(inner[active]).max(), limit)
    report.add("point_in_cone", max(0.0, -float(inner.min())), limit)
    bound = xv.size - 1 if _norm(x0v) > limit else xv.size
    report.add("active_count_bound", m - bound, 0.0)
    report.add_margin("infeasible_direction_exists", -inner_x.min())
    return report


def verify_characterization(K, x, x0, tol: float = DEFAULT_TOL, witness_e=None) -> CertificateReport:
    """Independently certify that x0 is the dual-form projection of x.

    Checks (each a named report entry):
      * the difference ``x0 - x`` is ``S rho`` with rho >= 0, strictly
        positive on a linearly independent subset,
      * every active generator is orthogonal to x0,
      * x0 satisfies the cone inequalities,
      * the active count m obeys ``m <= d`` (and ``m <= d - 1`` when
        ``||x0|| > tol ||x||``),
      * some generator has negative inner product with x (so x was
        genuinely infeasible).

    A point carries no multipliers, so rho is solved for here;
    `dual_projection_certificate` reads them off the result instead.  By
    the characterization only the face of x0 (the generators with
    ``|<k_i, x0>|`` within the ``active_orthogonality`` threshold) can
    carry weight, so rho is one NNLS solve over all of K started from the
    face (`nnls`'s ``support``): at the projection the face's multipliers
    end it in one pivot, and a point that is not the projection is judged
    on the best multipliers the cone offers.

    When x already lies in the cone the report instead records the
    trivial fixed-point check ``x0 == x``.  A provided ``witness_e`` adds
    a positivity check of the compactness/pointedness hypothesis.  ``x0``
    and a given ``witness_e`` must be finite vectors of x's length (else
    ValueError).
    """
    xv = as_vector(x)
    S = generator_matrix(K, dim=xv.size)
    x0v, witness_e = _of_length(x0, "x0", xv.size), _of_length(witness_e, "witness_e", xv.size)
    return _characterization(S, xv, x0v, tol, witness_e, lambda diff, face: nnls(S, diff, tol, face).rho, _lengths(S))


def dual_projection_certificate(result: ProjectionResult, tol: float = DEFAULT_TOL) -> CertificateReport:
    """`verify_characterization`'s checks on a `project_dual` result's own
    rho, with no solve, then the residuals rho gives; the result's
    ``witness_e``, if it has one, adds ``witness_positivity`` first."""
    lengths = _lengths(result.S)
    report = _characterization(result.S, result.x, result.point, tol, result.witness_e, lambda diff, face: result.rho, lengths)
    _add_residual_checks(report, result, "kkt_residual", tol, lengths)
    return report


def zig_decompose(K, x, tol: float = DEFAULT_TOL) -> ZigDecomposition:
    """Decompose x through the synthesis operator of cone(K).

    Returns ``rho`` and ``eta`` nonnegative with ``<rho, eta> = 0``,
    ``x0`` the component of x in the null space of ``S^T``,
    ``z = -pinv(S^T) eta``, and the two Moreau parts ``pc`` and
    ``pdual``, from `project_generated`'s rho and point; `zig_certificate`
    re-checks it.

    y lies in the polar cone ``K^-`` within the NNLS slack
    ``tol ||y|| ||k_i||`` exactly when ``rho`` is all zero; then
    ``pdual = y`` and ``y = x0 + z``.

    ``pinv(S^T) @ v`` is the minimum-norm least-squares solution of
    ``S^T z = v`` with each equation divided by ``||k_i||`` (the same z for
    consistent equations, at a conditioning blind to the lengths), one
    ``np.linalg.lstsq`` for ``S^T x`` and ``eta`` at the library's rank
    rule; the eta column's residual, outside the row space, is bounded by
    `zig_certificate`'s statement (2).
    """
    proj = project_generated(K, x, tol)
    S, xv, pc = proj.S, proj.x, proj.point
    pdual = xv - pc
    eta = np.maximum(-(S.T @ pdual), 0.0)
    # eta_i / ||k_i||, the normalised product of k_i with -pdual
    eta_along = np.maximum(-_products(S, pdual), 0.0)
    along, lift = np.linalg.lstsq((S / _lengths(S)).T, np.column_stack([_products(S, xv), eta_along]), rcond=None)[0].T
    return ZigDecomposition(rho=proj.rho, x0=xv - along, eta=eta, z=-lift, pc=pc, pdual=pdual, S=S, x=xv)


def zig_certificate(result: ZigDecomposition, tol: float = DEFAULT_TOL) -> CertificateReport:
    """Re-check a `zig_decompose` result from its own fields:
      (1) ``x = S rho + x0 + z``,
      (2) the sign and orthogonality conditions on rho and eta,
      (3) ``pdual = x0 + z`` with ``<x0, z> = 0``,
      (4) both expressions for the cone projection agree, ``pc = S rho`` and ``pc = x - x0 - z``
          with ``S^T x0 = 0``; so pc is the projection.  z's null-space part is not checked."""
    S, xv, rho, eta, x0, z, pc, pdual = result.S, result.x, result.rho, result.eta, result.x0, result.z, result.pc, result.pdual
    eta_along = np.maximum(-_products(S, pdual), 0.0)
    limit = _scale(xv, tol)
    report = CertificateReport()
    report.add("statement1_decomposition", _norm(xv - (pc + x0 + z)), limit)
    report.add("statement2_sign_conditions", max(0.0, -float(rho.min(initial=0.0)), -float(eta.min(initial=0.0))), 0.0)
    # divided by ||k_i||, eta lies in the row space when it is -S^T z, and it must vanish where rho_i > 0
    report.add("statement2_eta_in_row_space", _norm(eta_along + _products(S, z)), limit)
    report.add("statement2_complementarity", float(eta_along[rho > 0].max(initial=0.0)), limit)
    report.add("statement3_dual_projection", _norm(pdual - (x0 + z)), limit)
    report.add("statement3_orthogonality", _split_product(x0, z, xv), limit)
    report.add("statement4_projection_formulas", max(_norm(pc - S @ rho), _norm(_products(S, x0))), limit)
    return report
