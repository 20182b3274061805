"""Dense linear-algebra substrate.

Coercion of vectors, matrices and generator sets (`as_vector` and
`generator_matrix` copy, so a result may hold what they return without
aliasing its caller's arrays; `as_matrix` does not), the one tolerance
rule and nonnegative least squares (`nnls`).  The rule: a residual
passes when it is at most ``tol`` times the size of the largest term it
is computed from, ``_scale(v) = tol ||v||``, where a product with a
generator is the normalised ``<k_i, w> / ||k_i||`` (`_products`).  The
NNLS slack, `_member` and every certificate threshold are written with
these two, so no answer depends on the units of x or of a generator.
Everything here is pure and thread-safe.  The rank rule (`svd_factors`)
and Caratheodory reduction (`caratheodory_reduce`) have no caller in the
library; they stay, outside the package namespace, only while the
benchmark's traced run wraps them by name.

`nnls` is the Lawson-Hanson active-set method on a thin QR factor of
its support, kept up to date pivot by pivot, so that a pivot costs
mat-vecs and no LAPACK solve; its docstring gives the details.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import IterationLimit

DEFAULT_TOL = 1e-9

# `nnls` gives up after this many pivots per entry of its d x m matrix
PIVOTS_PER_ENTRY = 3

_EPS = float(np.finfo(float).eps)
_SUBNORMAL = float(np.finfo(float).smallest_subnormal)


def as_vector(x) -> np.ndarray:
    """Copy to a finite 1-d float array."""
    v = np.array(x, dtype=float, ndmin=1)
    if v.ndim != 1:
        raise ValueError("expected a vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


def as_matrix(M) -> np.ndarray:
    """Coerce to a finite 2-d float array."""
    A = np.asarray(M, dtype=float)
    if A.ndim != 2:
        raise ValueError("expected a matrix")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    return A


def generator_matrix(vectors, dim: Optional[int] = None) -> np.ndarray:
    """The d x m matrix whose columns are the generators.

    Accepts a sequence of m vectors of length d or an m x d array; either
    way there is one generator per row (per entry of the sequence), and
    when `dim` is given the rows must have that length.  A set with no
    rows is legal (it denotes the cone {0} / span {0}), but then `dim`
    must be supplied; an m x 0 array with ``dim = 0`` is m generators of
    R^0.  The result is a view of a copy, never of an array input.
    """
    G = np.array(vectors, dtype=float)
    if G.ndim == 2 and dim is not None and G.shape[1] != dim:
        raise ValueError(f"vectors of length {G.shape[1]}, expected {dim}")
    if G.ndim and G.shape[0] == 0:
        if dim is None:
            raise ValueError("dim is required for an empty generator list")
        return np.zeros((int(dim), 0))
    if G.ndim != 2:
        raise ValueError("generators must be vectors sharing one dimension")
    if not np.all(np.isfinite(G)):
        raise ValueError("vector entries must be finite")
    return G.T


@dataclass(frozen=True, eq=False)
class SvdFactors:
    """Thin SVD truncated at the rank tolerance.

    Singular values are sorted descending and strictly above
    ``rank_tol = max(rows, cols) * eps * sigma_1``.
    """

    u: np.ndarray
    singular_values: np.ndarray
    vt: np.ndarray
    rank_tol: float

    @property
    def rank(self) -> int:
        return int(self.singular_values.size)


def svd_factors(M) -> SvdFactors:
    """Truncated SVD of M with the library-wide rank rule."""
    A = as_matrix(M)
    if min(A.shape) == 0:
        return SvdFactors(
            u=np.zeros((A.shape[0], 0)),
            singular_values=np.zeros(0),
            vt=np.zeros((0, A.shape[1])),
            rank_tol=0.0,
        )
    u, s, vt = np.linalg.svd(A, full_matrices=False)
    cutoff = max(A.shape) * _EPS * (float(s[0]) if s.size else 0.0)
    keep = s > cutoff
    return SvdFactors(u=u[:, keep], singular_values=s[keep], vt=vt[keep], rank_tol=cutoff)


def _scale(v, tol: float, axis=None):
    """``tol ||v||``: the threshold of a residual computed from terms no larger
    than v (with ``axis``, one per row or column)."""
    return tol * np.linalg.norm(v, axis=axis)


def _lengths(S) -> np.ndarray:
    """``||k_i||`` of each column k_i of S, 1 for a zero column."""
    norms = np.linalg.norm(S, axis=0)
    return np.where(norms > 0.0, norms, 1.0)


def _products(S, w) -> np.ndarray:
    """``<k_i, w> / ||k_i||`` for each column k_i of S (0 for a zero column):
    the component of w along k_i, judged against ``_scale`` of w's terms."""
    return (S.T @ w) / _lengths(S)


def _member(residual, target, tol: float) -> bool:
    """The membership rule: a least-squares fit of ``target`` over a cone or
    span reaches it when ``||residual|| <= _scale(target)``."""
    return bool(np.linalg.norm(residual) <= _scale(target, tol))


@dataclass(frozen=True, eq=False)
class NnlsResult:
    """Nonnegative multipliers, the residual ``x - S @ rho``, ``pivots``, the
    number of inner least-squares solves performed, and ``drops``, the
    number of columns each blocking step removed from the support, in
    order."""

    rho: np.ndarray
    residual: np.ndarray
    pivots: int
    drops: tuple


def _delete_columns(A, Q, T, qtb, cols, k: int, hit) -> int:
    """Delete the support positions ``hit`` (sorted) from the factor
    ``A[:, cols[:k]] = Q[:, :k] R`` with ``T = R^-1`` and ``qtb = Q^T b``,
    in place, as the `nnls` docstring describes; return the new support
    size."""
    p = int(hit[0])
    keep = np.ones(k - p, dtype=bool)
    keep[hit - p] = False
    after = cols[p:k][keep]
    k2 = p + after.size
    if k2 > p:
        M = Q[:, :k].T @ A[:, after]
        qs, rs = np.linalg.qr(M[p:])
        Q[:, p:k2] = Q[:, p:k] @ qs
        qtb[p:k2] = qtb[p:k] @ qs
        T22 = np.linalg.inv(rs)
        T[p:k2, p:k2] = T22
        # M[:p] is R12, the new R's block beside R11 = R[:p, :p]
        T[:p, p:k2] = (T[:p, :p] @ M[:p]) @ -T22
        cols[p:k2] = after
    return k2


def nnls(S, x, tol: float = DEFAULT_TOL) -> NnlsResult:
    """Active-set solve of ``min ||S @ rho - x||`` over ``rho >= 0``.

    Lawson-Hanson iteration with lowest-index tie-breaking on entering
    variables.  At the returned point the residual ``r = x - S @ rho``
    satisfies the projection optimality conditions: ``<r, k_i>`` is at
    most ``tol * ||x|| * ||k_i||`` for every column ``k_i`` (so x = 0
    returns rho = 0 at once), and columns carrying positive multipliers
    are orthogonal to ``r``.  ``S @ rho`` is then the nearest point of the
    generated cone.

    The support columns are kept as the factor Q of a thin QR
    ``S[:, support] = Q R``, together with ``Q^T x`` and the inverse
    ``T = R^-1`` (Lawson & Hanson, *Solving Least Squares Problems*, 1974,
    ch. 23), in buffers of ``min(d, m)`` columns allocated once per
    call; R itself is not stored.  Each pivot's least-squares solution on
    the support is then one product ``z = T Q^T x``: no fresh
    least-squares problem and no LU solve.  The factor is of the columns
    themselves, not of the Gram matrix ``S^T S``, whose condition number
    is the square.

    * An entering column is appended to Q by one Gram-Schmidt step with
      one reorthogonalisation, O(d k) for a support of k columns, which
      also gives its column ``R[:k, k]`` and ``r_kk`` of R, and borders T
      with one mat-vec: ``T[k, k] = 1 / r_kk`` and
      ``T[:k, k] = -T[:k, :k] R[:k, k] / r_kk``.
    * A blocking step deletes its columns from the factor in place
      (Lawson & Hanson, ch. 24; Golub & Van Loan, *Matrix Computations*,
      sec. 6.5).  With p the first deleted position and t the kept
      columns after it, one product ``Q[:, :k]^T S[:, kept]`` gives the
      block R12 above row p and the (k - p) x t block below it that the
      deletion leaves out of triangular form; one QR of that block,
      O(d k t) with the products, rotates Q[:, p:k] and ``Q^T x`` and
      gives the new triangle, whose inverse is the new block T22, with
      ``T12 = -T11 R12 T22``; the block T[:p, :p] stands.
      When only trailing columns go, the factor left is already that of
      the kept columns, and no QR runs.

    T is safe to keep: it is formed only by bordering or from the inverse
    of a fresh QR triangle, whose diagonal is no shorter than when each
    column entered past the rank rule below, as dropping columns only
    lengthens the part of a later column orthogonal to those before it.

    The gradient ``S^T r`` that picks the entering column is taken from
    the factor's residual ``x - Q Q^T x``, accurate where ``x - S @ rho``
    would carry rounding of order ``eps ||S|| ||rho||`` and could let a
    column re-enter forever; the returned ``residual`` is ``x - S @ rho``.

    An entering column whose part orthogonal to the support is at or
    below the library rank rule (``d * eps * ||k_i||``) lies in the span
    of the support to working precision, so its positive gradient is
    rounding.  As in Lawson and Hanson's NNLS it is passed over and the
    next candidate is tried; when none is left the solve returns.  The
    support therefore stays linearly independent, with at most
    ``min(d, m)`` columns.  Likewise a candidate is passed over when its
    trial multiplier ``(Q^T x)_k / r_kk`` is not positive: a positive
    gradient makes it positive in exact arithmetic, and entering such a
    column would only see it dropped at once and picked again until the
    pivot budget ran out.

    Parameters
    ----------
    S : array, shape (d, m)
        Generators as columns; m may be zero.
    x : array, shape (d,)
    tol : float
        Relative KKT slack used as the stopping threshold: a column enters
        only while ``<r, k_i> / ||k_i||`` exceeds ``tol ||x||``.

    Raises
    ------
    IterationLimit
        If the pivot budget ``PIVOTS_PER_ENTRY * m * d`` runs out (degenerate input).
    ValueError
        On mismatched shapes or a ``tol`` that is not positive and finite.
    """
    A = as_matrix(S)
    b = as_vector(x)
    d, m = A.shape
    if b.size != d:
        raise ValueError("dimension mismatch between S and x")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be positive and finite")
    budget = PIVOTS_PER_ENTRY * m * d

    colnorm = np.linalg.norm(A, axis=0)
    slack = _scale(b, tol) * colnorm
    # an entering column whose remainder is at or below floor * ||a|| is dependent
    floor = d * _EPS
    # thin QR of the support, A[:, cols[:k]] = Q[:, :k] @ R, kept as Q and T = R^-1
    kmax = min(d, m)
    cols = np.empty(kmax, dtype=np.intp)
    Q = np.empty((d, kmax))
    # T is upper triangular: an entering column writes on and above the
    # diagonal, a blocking step the inverse of a QR triangle and the block
    # above it, so the zeros below it are written once, here
    T = np.zeros((kmax, kmax))
    qtb = np.empty(kmax)
    k = 0
    rho = np.zeros(m)
    resid = b.copy()
    pivots = 0
    drops = []

    while True:
        score = A.T @ resid
        score[score <= slack] = -np.inf
        score[cols[:k]] = -np.inf
        entering = -1
        while k < kmax:
            j = int(score.argmax())
            if score[j] == -np.inf:
                break
            a = A[:, j]
            Qk = Q[:, :k]
            c = Qk.T @ a
            v = a - Qk @ c
            c2 = Qk.T @ v
            v -= Qk @ c2
            rkk = math.sqrt(v @ v)
            if rkk > floor * colnorm[j]:
                np.divide(v, rkk, out=Q[:, k])
                qtb[k] = Q[:, k] @ b
                # the column's trial multiplier is qtb[k] / rkk
                if qtb[k] > 0.0:
                    entering = j
                    break
            score[j] = -np.inf
        if entering < 0:
            break
        cols[k] = entering
        # border T: one mat-vec of its old columns with R[:k, k] = c + c2
        T[k, k] = 1.0 / rkk
        T[:k, k] = (T[:k, :k] @ (c + c2)) * -T[k, k]
        k += 1

        while True:
            pivots += 1
            if pivots > budget:
                raise IterationLimit(f"nnls exceeded {budget} pivots on a {d}x{m} system")
            sup = cols[:k]
            z = T[:k, :k] @ qtb[:k]
            if z.size and z.min() > 0.0:
                rho[sup] = z
                break
            blocking = np.flatnonzero(z <= 0.0)
            if blocking.size == 0:
                raise IterationLimit("nnls inner loop stalled on degenerate input")
            current = rho[sup]
            held = current[blocking]
            # held >= 0 >= z, so the denominator is zero only where held is
            # zero too, and that ratio is zero
            ratios = held / np.maximum(held - z[blocking], _SUBNORMAL)
            alpha = float(ratios.min())
            current += alpha * (z - current)
            hit = blocking[ratios <= alpha * (1.0 + 1e-12)]
            current[hit] = 0.0
            np.maximum(current, 0.0, out=current)
            rho[sup] = current
            drops.append(int(hit.size))
            k = _delete_columns(A, Q, T, qtb, cols, k, hit)
        resid = b - Q[:, :k] @ qtb[:k]

    return NnlsResult(rho=rho, residual=b - A @ rho, pivots=pivots, drops=tuple(drops))


@dataclass(frozen=True, eq=False)
class CaratheodoryResult:
    """Index subset (into the input list) and its strictly positive weights."""

    indices: np.ndarray
    weights: np.ndarray


def caratheodory_reduce(vectors, weights) -> CaratheodoryResult:
    """Rewrite a positive combination over a linearly independent subset.

    While the selected columns are rank deficient, a unit null-space
    direction ``eta`` is stepped against the weights (``t = min w_i /
    eta_i`` over ``eta_i > 0``) so one weight reaches zero; the weighted
    sum is unchanged along null directions.  A final least-squares polish
    re-solves the surviving weights against the original sum.  At most d
    vectors survive and they are linearly independent at the rank
    tolerance.

    Parameters
    ----------
    vectors : sequence of arrays, shape (d,) each, or an m x d array
    weights : array of matching length, strictly positive
    """
    if len(vectors) == 0:
        if np.asarray(weights, dtype=float).size:
            raise ValueError("weights without vectors")
        return CaratheodoryResult(np.zeros(0, dtype=int), np.zeros(0))
    V = generator_matrix(vectors)
    w = as_vector(weights)
    if w.size != V.shape[1]:
        raise ValueError("one weight per vector is required")
    if np.any(w <= 0.0):
        raise ValueError("weights must be strictly positive")

    target = V @ w
    idx = np.arange(V.shape[1])
    wact = w.copy()

    while idx.size:
        A = V[:, idx]
        u, s, vt = np.linalg.svd(A, full_matrices=True)
        cutoff = max(A.shape) * _EPS * (float(s[0]) if s.size else 0.0)
        rank = int(np.count_nonzero(s > cutoff))
        if rank == idx.size:
            break
        eta = vt[-1]
        if eta.max() <= 0.0:
            eta = -eta
        pos = eta > 1e-12
        ratios = wact[pos] / eta[pos]
        t = float(ratios.min())
        wact = wact - t * eta
        keep = wact > 64.0 * _EPS * max(1.0, float(wact.max(initial=0.0)))
        idx = idx[keep]
        wact = wact[keep]

    if idx.size:
        polished, *_ = np.linalg.lstsq(V[:, idx], target, rcond=None)
        # keep the drift-corrected weights only if they stay nonnegative
        if polished.min(initial=0.0) >= -1e-12 * max(1.0, float(np.abs(polished).max(initial=0.0))):
            wact = np.maximum(polished, 0.0)
            keep = wact > 0.0
            idx = idx[keep]
            wact = wact[keep]

    return CaratheodoryResult(indices=idx, weights=wact)
