"""Dense linear-algebra substrate.

Coercion of vectors, matrices and generator sets (`as_vector` and
`generator_matrix` copy, so a result may hold what they return without
aliasing its caller's arrays; `as_matrix` does not), the one tolerance
rule and nonnegative least squares (`nnls`).  The rule: a residual
passes when it is at most ``tol`` times the size of the largest term it
is computed from, ``_scale(v) = tol ||v||``, where a product with a
generator is the normalised ``<k_i, w> / ||k_i||`` (`_products`), each
norm by `_norm`, exact at any scale.  `_member` and every certificate
threshold use them, so no answer depends on the units of x or k_i.
Everything here is pure and thread-safe.

`nnls` is the Lawson-Hanson active-set method on an orthogonal factor
of its support, kept up to date pivot by pivot in one zero-padded
buffer ``[Q^T x; Q; R^-1]``, so that a pivot costs whole-block mat-vecs
and no LAPACK call, and it can start from a given support, factored
once at set-up; its docstring gives the details.  Its support is
linearly independent by its rank rule, so Caratheodory reduction
(`caratheodory_reduce`) is that support.  The truncated SVD
(`svd_factors`) has no caller in the library; both stay, outside the
package namespace, only while the benchmark's traced run wraps them.
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
    """Thin SVD, singular values descending and strictly above ``rank_tol =
    max(rows, cols) * eps * sigma_1``, a cutoff of its own: the library's
    rank rule is `nnls`'s ``d * eps * ||a_j||``."""

    u: np.ndarray
    singular_values: np.ndarray
    vt: np.ndarray
    rank_tol: float

    @property
    def rank(self) -> int:
        return int(self.singular_values.size)


def svd_factors(M) -> SvdFactors:
    """Truncated SVD of M at the cutoff of `SvdFactors`."""
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


def _norm(v, axis=None):
    """``||v||`` (with ``axis``, of each row or column) that neither underflows nor
    overflows: where an entry reaches ``2^450`` or a nonzero v has a norm at most
    ``2^-450``, v is first divided by a power of two near its largest entry (exact)."""
    if np.abs(v).max(initial=0.0) < 2.0**450:
        norms = np.linalg.norm(v, axis=axis)
        if (norms if axis is None else norms.min(initial=np.inf)) > 2.0**-450 or not np.any(v):
            return norms
    e = np.frexp(np.abs(v).max(axis=axis, keepdims=True, initial=0.0))[1]
    return np.ldexp(np.linalg.norm(np.ldexp(v, -e), axis=axis, keepdims=True), e).squeeze(axis)[()]


def _scale(v, tol: float, axis=None):
    """``tol ||v||``: the threshold of a residual computed from terms no larger
    than v (with ``axis``, one per row or column)."""
    return tol * _norm(v, axis)


def _lengths(S) -> np.ndarray:
    """``||k_i||`` of each column k_i of S, 1 for a zero column."""
    norms = _norm(S, 0)
    return np.where(norms > 0.0, norms, 1.0)


def _products(S, w, lengths=None) -> np.ndarray:
    """``<k_i, w> / ||k_i||`` for each column k_i of S (0 for a zero column; pass
    ``_lengths(S)`` if held): w's component along k_i, judged against ``_scale``,
    from k_i divided by a power of two near its length (exact), so it does not underflow."""
    unit, e = np.frexp(_lengths(S) if lengths is None else lengths)
    return (np.ldexp(S, -e).T @ w) / unit


def _member(residual, target, tol: float) -> bool:
    """The membership rule: a least-squares fit of ``target`` over a cone or
    span reaches it when ``||residual|| <= _scale(target)``."""
    return bool(_norm(residual) <= _scale(target, tol))


@dataclass(frozen=True, eq=False)
class NnlsResult:
    """Nonnegative multipliers, the residual ``x - S @ rho``, ``pivots``, the
    number of inner least-squares solves performed (a start's set-up solve
    among them), and ``drops``, the number of columns each blocking step
    removed from the support, in order."""

    rho: np.ndarray
    residual: np.ndarray
    pivots: int
    drops: tuple


def _delete_columns(F, cols, w, k: int, hit) -> int:
    """Delete the support positions ``hit`` (sorted) from the factor
    ``A[:, cols[:k]] = Q R`` in `nnls`'s one buffer ``F = [Q^T b; Q; T]``,
    ``T = R^-1`` its last ``cols.size`` rows, and from the multipliers ``w``,
    held in support order like ``cols``, in place, one Householder reflection
    each as the `nnls` docstring describes; return the new support size.

    Every product runs on the whole buffer, which is exact because F's
    columns, T's rows and w's entries at and past k are zero; the freed
    column, row and entry are zeroed again after each deletion."""
    T = F[-cols.size:]
    for p in hit[::-1]:
        k -= 1
        # H maps row p of T, orthogonal to every other column of R, onto axis k
        y = T[p] / np.maximum.reduce(np.abs(T[p]))
        y /= math.sqrt(y @ y)
        y[k] += math.copysign(1.0, y[k])
        v = y / math.sqrt(abs(y[k]))
        F -= (F @ v)[:, None] * v
        T[p] = T[k]
        cols[p] = cols[k]
        w[p] = w[k]
        F[:, k] = T[k] = w[k] = 0.0
    return k


def nnls(S, x, tol: float = DEFAULT_TOL, support=None) -> NnlsResult:
    """Active-set solve of ``min ||S @ rho - x||`` over ``rho >= 0``.

    Lawson-Hanson iteration with lowest-index tie-breaking on entering
    variables.  At the returned point the residual ``r = x - S @ rho``
    satisfies the projection optimality conditions: ``<r, k_i>`` is at
    most ``tol * ||x|| * ||k_i||`` for every column ``k_i`` (so x = 0
    returns rho = 0 at once), and columns carrying positive multipliers
    are orthogonal to ``r``.  ``S @ rho`` is then the nearest point of the
    generated cone.

    The support columns are kept as a factor ``S[:, support] = Q R`` with
    Q orthonormal and R invertible (triangular until the first blocking
    step), together with ``Q^T x`` and the inverse ``T = R^-1`` (Lawson &
    Hanson, *Solving Least Squares Problems*, 1974, ch. 23-24), stacked in
    one buffer ``F = [Q^T x; Q; T]`` of ``min(d, m)`` columns allocated
    once per call; R itself is not stored.  Each pivot's least-squares
    solution on the support is then one product ``z = T Q^T x``, right
    for any invertible R: no fresh least-squares problem, no LU solve and
    no LAPACK call after set-up.  The factor is of the columns themselves,
    not of the Gram matrix ``S^T S``, whose condition number is the square.

    F is zero padded: for a support of k columns, F's columns at and past
    k (those of Q, the entries of ``Q^T x``) and T's rows at and past k are
    exactly zero.  So every product (``T Q^T x``, ``x - Q Q^T x``, ``Q^T a``,
    ``Q c``, ``T c`` and each reflection's ``F v``) runs on whole blocks,
    contiguous and with no slice by k; only the lengths of the BLAS sums
    differ from products on the first k columns, so only rounding does.
    An entering column is written into F once it is accepted, and a
    deletion zeroes the column it frees.  The support's multipliers are
    one vector in support order, zero past k, that moves with the support
    positions; it is scattered into rho once, at return.

    * An entering column a is appended to Q by one Gram-Schmidt step,
      O(d k) for a support of k columns, reorthogonalised only when its
      first pass leaves ``||v||^2 < ||a||^2 / 2`` (Daniel, Gragg, Kaufman
      & Stewart, *Math. Comp.* 30, 1976).  A skipped pass leaves ``r_kk
      >= ||a|| / sqrt(2)``, far above the rank rule below, so it moves no
      decision.  The step gives ``R[:k, k]`` and ``r_kk`` and borders T
      with one mat-vec: ``T[k, k] = 1 / r_kk``, ``T[:k, k] = -T[:k, :k]
      R[:k, k] / r_kk``, the product of all of T with c, zero past k.
    * A blocking step deletes its positions in descending order, each
      by one Householder reflection H, O(d k) (Golub & Van Loan, *Matrix
      Computations*, sec. 5.1).  Row p of T is orthogonal to every column
      of R but the p-th, as ``T R = I``; H maps it to a multiple of
      e_{k-1} and is applied once to the stacked buffer, ``F <- F H``,
      with ``Q^T x`` a row of F.  Then no other column of ``H R`` reaches
      row k - 1, so the first k - 1 columns of Q span the kept columns,
      and the rows of T but the p-th, on their first k - 1 entries, are
      the new T.  Support position k - 1 moves into p, in T, the support
      and the multipliers, and column k - 1 of F, which H left holding the
      deleted column's part, is zeroed.

    T is safe to keep: it changes only by bordering, past the rank rule
    below, and by orthogonal reflections, which keep its norm
    ``1 / sigma_min(R)``; deleting a column cannot shrink the smallest
    singular value of R, since singular values interlace.

    The solve runs on S and x divided by powers of two near their largest
    entries, and rho is scaled back.  The division is exact unless an
    entry lies some 1e308 times below the largest, so the pivots are those
    of the raw data, while column lengths and scores stay in the float
    range for entries of 1e-200 or 1e200.  One power of two serves all of
    S, though: a column some 1e154 times shorter than S's largest entry
    has a squared length below the float range, so its length and its
    remainder read 0 and the rank rule passes it over.

    The gradient ``S^T r`` that picks the entering column is taken from
    the factor's residual ``x - Q Q^T x``, accurate where ``x - S @ rho``
    would carry rounding of order ``eps ||S|| ||rho||`` and could let a
    column re-enter forever; the returned ``residual`` is ``x - S @ rho``.
    One comparison masks the support and the scores within the slack.

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

    A ``support`` (column indices, a set) starts the solve from those
    columns.  At set-up one ``np.linalg.qr`` factors them, with ``T =
    inv(R)`` and ``Q^T x``; a column whose ``|r_jj|`` (its remainder
    against the kept start columns before it) is at or below
    ``max(tol, d * eps) * ||k_j||`` is dropped and the rest factored
    again.  Its score is at most ``||x|| r_jj`` while those columns are
    in the support, so below the cut it could never pass the entering
    slack; at ``d * eps`` a 1e-12 near-duplicate kept weight beside its
    twin.  The inner loop then runs from rho = 0, where the ratio test
    drops every non-positive multiplier, and the outer loop follows as
    usual.  ``pivots`` counts the set-up solve: a start at the optimal
    support returns after one.  No support, or an empty one, is the cold
    solve.

    Parameters
    ----------
    S : array, shape (d, m)
        Generators as columns; m may be zero.
    x : array, shape (d,)
    tol : float
        Relative KKT slack used as the stopping threshold: a column enters
        only while ``<r, k_i> / ||k_i||`` exceeds ``tol ||x||``.
    support : sequence of int, optional
        Columns of S to start from (see above).

    Raises
    ------
    IterationLimit
        If the pivot budget ``PIVOTS_PER_ENTRY * m * d`` runs out (degenerate input).
    ValueError
        On mismatched shapes, a ``tol`` that is not positive and finite, or
        a support that is not integer indices in ``[0, m)``.
    """
    S, x = as_matrix(S), as_vector(x)
    d, m = S.shape
    if x.size != d:
        raise ValueError("dimension mismatch between S and x")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be positive and finite")
    # sorted(set()), not np.unique, whose first call in a process imports numpy.ma (about 10 ms)
    start = np.empty(0, dtype=np.intp) if support is None else np.array(sorted(set(np.ravel(support).tolist())))
    if start.size and (start.dtype.kind not in "iu" or not 0 <= start[0] <= start[-1] < m):
        raise ValueError(f"support must hold column indices in [0, {m})")
    budget = PIVOTS_PER_ENTRY * m * d
    # power-of-two scaling (see above): the pivots are the raw data's, and no score leaves the float range
    eS, ex = (math.frexp(np.abs(v).max(initial=0.0))[1] for v in (S, x))
    A, b = np.ldexp(S, -eS), np.ldexp(x, -ex)

    colnorm = np.sqrt(np.einsum("ij,ij->j", A, A))
    slack = _scale(b, tol) * colnorm
    thresh = slack.copy()  # a score at or below it cannot enter: the slack off the support, inf on it
    # an entering column whose remainder is at or below floor * ||a|| is dependent
    floor = d * _EPS
    # the factor of the support, A[:, cols[:k]] = Q[:, :k] @ R, kept as one buffer [Q^T b; Q; T = R^-1]
    kmax = min(d, m)
    cols = np.empty(kmax, dtype=np.intp)
    # zero padded: F's columns and T's rows at and past k stay exactly zero, so every
    # product runs on whole blocks; an accepted column fills column k, a deletion clears it
    F = np.zeros((1 + d + kmax, kmax))
    qtb, Q, T = F[0], F[1 : 1 + d], F[1 + d :]
    # a start column whose remainder is at or below max(tol, floor) * ||a|| could never enter
    while start.size:
        q, r = np.linalg.qr(A[:, start])
        kept = np.abs(np.diagonal(r)) > max(tol, floor) * colnorm[start[:d]]
        start, r = start[:d][kept], r[:, :d]
        if kept.all():
            break
    k = start.size
    if k:
        cols[:k], Q[:, :k], T[:k, :k], qtb[:k] = start, q, np.linalg.inv(r), q.T @ b
        thresh[start] = np.inf
    w = np.zeros(kmax)  # the support's multipliers, in support order, zero past k
    pivots = 0
    drops = []

    while True:
        # least squares on the support and its blocking steps; a start's comes first, from w = 0
        while k:
            pivots += 1
            if pivots > budget:
                raise IterationLimit(f"nnls exceeded {budget} pivots on a {d}x{m} system")
            z = T @ qtb
            if np.minimum.reduce(z[:k]) > 0.0:
                w = z
                break
            blocking = (z[:k] <= 0.0).nonzero()[0]
            if blocking.size == 0:
                raise IterationLimit("nnls inner loop stalled on degenerate input")
            held = w[blocking]
            # held >= 0 >= z, so the denominator is zero only where held is
            # zero too, and that ratio is zero
            ratios = held / np.maximum(held - z[blocking], _SUBNORMAL)
            alpha = float(np.minimum.reduce(ratios))
            w += alpha * (z - w)
            hit = blocking[ratios <= alpha * (1.0 + 1e-12)]
            w[hit] = 0.0
            np.maximum(w, 0.0, out=w)
            drops.append(int(hit.size))
            thresh[cols[hit]] = slack[cols[hit]]
            k = _delete_columns(F, cols, w, k, hit)
        resid = b - Q @ qtb
        score = A.T @ resid
        score[score <= thresh] = -np.inf
        entering = -1
        while k < kmax:
            j = int(score.argmax())
            if score[j] == -np.inf:
                break
            a = A[:, j]
            c = Q.T @ a
            v = a - Q @ c
            rkk = math.sqrt(v @ v)
            if rkk * rkk < 0.5 * colnorm[j] * colnorm[j]:  # the first pass cancelled: a second one
                c2 = Q.T @ v
                v -= Q @ c2
                c += c2
                rkk = math.sqrt(v @ v)
            if rkk > floor * colnorm[j]:
                v /= rkk
                qtbk = v @ b  # the column's trial multiplier is qtbk / rkk
                if qtbk > 0.0:
                    entering = j
                    break
            score[j] = -np.inf
        if entering < 0:
            break
        cols[k], Q[:, k], qtb[k] = entering, v, qtbk
        thresh[entering] = np.inf
        # border T: one mat-vec with R[:k, k] = c, summed over the passes (c is zero past k)
        T[:, k] = (T @ c) * (-1.0 / rkk)
        T[k, k] = 1.0 / rkk
        k += 1

    rho = np.zeros(m)
    rho[cols[:k]] = np.ldexp(w[:k], ex - eS)
    return NnlsResult(rho=rho, residual=x - S @ rho, pivots=pivots, drops=tuple(drops))


@dataclass(frozen=True, eq=False)
class CaratheodoryResult:
    """Index subset (into the input list) and its strictly positive weights."""

    indices: np.ndarray
    weights: np.ndarray


def caratheodory_reduce(vectors, weights) -> CaratheodoryResult:
    """Rewrite a positive combination over a linearly independent subset.

    The subset is the support of `nnls` on the weighted sum: its columns are linearly
    independent by `nnls`'s rank rule, so there are at most d of them, and its multipliers
    are strictly positive (Caratheodory's theorem as Lawson and Hanson's active-set method
    constructs it).  The sum lies in the cone, so `nnls` runs to rounding, at ``tol =
    eps``: its default slack would drop a vector of small weight.

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
    rho = nnls(V, V @ w, _EPS).rho
    idx = np.flatnonzero(rho)
    return CaratheodoryResult(indices=idx, weights=rho[idx])
