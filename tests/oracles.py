"""Independent brute-force oracles.

Exhaustive, deliberately simple reference implementations the tests
compare the solver paths against.  Nothing here calls into the library's
solve routines.
"""

import itertools

import numpy as np

_EPS = float(np.finfo(float).eps)


def nnls_bruteforce(S, x, feas_tol=1e-12):
    """Minimum of ``||S w - x||^2`` over ``w >= 0`` by subset enumeration.

    Solves the unconstrained least-squares problem on every column
    subset and keeps the best whose coefficients are nonnegative.  The
    constrained optimum is attained on some independent subset with
    nonnegative coefficients, so the enumeration reaches it.

    Each subset is solved on unit columns, so a coefficient is the
    contribution ``w_i ||k_i||`` of its column, and it counts as negative
    only below ``-feas_tol * ||x||``.  Neither the solve nor the test then
    depends on the columns' scales: on raw columns scaled over many
    orders of magnitude, the least-squares rank cut-off drops the small
    columns of a subset and the enumeration can miss the optimum.

    Returns (best objective, best point).
    """
    S = np.asarray(S, dtype=float)
    x = np.asarray(x, dtype=float)
    d, m = S.shape
    colnorm = np.linalg.norm(S, axis=0)
    unit = S / np.where(colnorm > 0.0, colnorm, 1.0)
    limit = feas_tol * np.linalg.norm(x)
    best = float(x @ x)
    best_point = np.zeros(d)
    for size in range(1, m + 1):
        for subset in itertools.combinations(range(m), size):
            cols = unit[:, subset]
            contribution, *_ = np.linalg.lstsq(cols, x, rcond=None)
            if contribution.min(initial=0.0) < -limit:
                continue
            point = cols @ np.maximum(contribution, 0.0)
            obj = float((point - x) @ (point - x))
            if obj < best:
                best = obj
                best_point = point
    return best, best_point


def dual_projection_bruteforce(S, x, feas_tol=1e-9):
    """Projection of x onto ``{y : S^T y >= 0}`` by active-set enumeration.

    For every constraint subset, projects x onto the subspace where those
    constraints hold with equality and keeps the nearest candidate that
    satisfies all inequalities.
    """
    S = np.asarray(S, dtype=float)
    x = np.asarray(x, dtype=float)
    d, m = S.shape
    slack = -feas_tol * (1.0 + np.linalg.norm(x))
    best = None
    best_dist = np.inf
    for size in range(0, m + 1):
        for subset in itertools.combinations(range(m), size):
            if size == 0:
                y = x.copy()
            else:
                B = S[:, subset]
                y = x - B @ (np.linalg.pinv(B) @ x)
            if (S.T @ y).min(initial=0.0) < slack:
                continue
            dist = float(np.linalg.norm(y - x))
            if dist < best_dist:
                best_dist = dist
                best = y
    return best


def orthonormal_dual_projection(S, x):
    """Projection of x onto ``{y : S^T y >= 0}`` for orthonormal columns.

    The closed form ``x + sum_i max(0, -<x, k_i>) k_i``: for orthonormal
    generators the constraints decouple, and each violated one is
    corrected along its own generator.
    """
    S = np.asarray(S, dtype=float)
    x = np.asarray(x, dtype=float)
    deviation = float(np.abs(S.T @ S - np.eye(S.shape[1])).max(initial=0.0))
    if deviation > 1e-8:
        raise ValueError(f"Gram matrix deviates from the identity by {deviation:.3e}")
    return x + S @ np.maximum(0.0, -(S.T @ x))


def pinv(M):
    """Moore-Penrose pseudoinverse by numpy's SVD, singular values at or
    below ``max(rows, cols) * eps * sigma_1`` treated as zero."""
    return np.linalg.pinv(np.asarray(M, dtype=float), rtol=None)


def null_space_part(S, v):
    """The part of v in the null space of S: ``(I - pinv(S) S) v``."""
    return v - pinv(S) @ (S @ v)


def zig_statement_flags(S, x, rho, tol=1e-9):
    """Pass flag of each statement check of ``zig_decompose``, by `pinv`.

    Takes the cone multipliers rho and evaluates the statements' formulas
    and thresholds with an explicit ``pinv(S^T)`` and null-space part.
    """
    S = np.asarray(S, dtype=float)
    x = np.asarray(x, dtype=float)
    St_pinv = pinv(S.T)
    pc = S @ rho
    pdual = x - pc
    eta = np.maximum(-(S.T @ pdual), 0.0)
    x0 = x - St_pinv @ (S.T @ x)
    lift = St_pinv @ eta
    # every residual is a length, judged against tol ||x||; eta and S^T lift
    # are products with the generators, divided by their lengths
    scale = tol * np.linalg.norm(x)
    colnorm = np.linalg.norm(S, axis=0)
    unit = np.where(colnorm > 0.0, colnorm, 1.0)
    sign = max(0.0, -float(rho.min(initial=0.0)), -float(eta.min(initial=0.0)))
    return {
        "statement1_decomposition": np.linalg.norm(x - (pc + x0 - lift)) <= scale,
        "statement2_sign_conditions": sign <= 0.0,
        "statement2_eta_in_row_space": np.linalg.norm((eta - S.T @ lift) / unit) <= scale,
        "statement2_complementarity": float((eta / unit)[rho > 0].max(initial=0.0)) <= scale,
        "statement3_dual_projection": np.linalg.norm(pdual - (x0 - lift)) <= scale,
        "statement3_orthogonality": abs(float(x0 @ lift)) <= scale * np.linalg.norm(x),
        "statement4_projection_formulas": np.linalg.norm(pc - St_pinv @ (S.T @ x + eta)) <= scale,
    }


def dual_cone_rays(S, feas_tol=1e-10):
    """Generating rays of ``{y : S^T y <= 0}`` when the columns span R^d.

    Every extreme ray makes d - 1 independent constraints active, so all
    candidates arise as unit null directions of (d-1)-column subsets.
    Non-extreme survivors are harmless: they still lie in the cone.
    """
    S = np.asarray(S, dtype=float)
    d, m = S.shape
    rays = []
    for subset in itertools.combinations(range(m), d - 1):
        if d == 1:
            candidates = [np.array([1.0])]
        else:
            B = S[:, subset].T  # (d-1) x d
            u, s, vt = np.linalg.svd(B, full_matrices=True)
            cutoff = max(B.shape) * _EPS * (float(s[0]) if s.size else 0.0)
            if int(np.count_nonzero(s > cutoff)) != d - 1:
                continue
            candidates = [vt[-1]]
        for v0 in candidates:
            for v in (v0, -v0):
                if (S.T @ v).max(initial=0.0) <= feas_tol:
                    rays.append(v)
    unique = []
    for v in rays:
        if not any(np.linalg.norm(v - u) < 1e-8 for u in unique):
            unique.append(v)
    return unique


def line_fit_bruteforce(step=1e-3):
    """Grid search for the best L2[-1,1] fit of t by a nonnegative c1 t + c0.

    The squared error integrates to ``2/3 (c1 - 1)^2 + 2 c0^2`` and
    nonnegativity on [-1, 1] is ``c0 >= |c1|``.  Returns (c0, c1).
    """
    values = np.arange(-1.0, 1.0 + step / 2.0, step)
    C1, C0 = np.meshgrid(values, values, indexing="ij")
    objective = (2.0 / 3.0) * (C1 - 1.0) ** 2 + 2.0 * C0**2
    objective = np.where(C0 >= np.abs(C1), objective, np.inf)
    i, j = np.unravel_index(int(np.argmin(objective)), objective.shape)
    return float(C0[i, j]), float(C1[i, j])


def random_cone_instance(rng, d_max, m_max, scale=2.0):
    """Random generators (columns) and a target point."""
    d = int(rng.integers(1, d_max + 1))
    m = int(rng.integers(1, m_max + 1))
    S = rng.standard_normal((d, m))
    x = scale * rng.standard_normal(d)
    return S, x


def monotone_generators(d):
    """The rows ``e_{i+1} - e_i``, i < d - 1: their dual-form cone is the
    nondecreasing vectors of R^d."""
    return np.diff(np.eye(d), axis=0)


def pava(x):
    """Nearest nondecreasing vector to x by pool-adjacent-violators (Barlow,
    Bartholomew, Bremner & Brunk, *Statistical Inference under Order
    Restrictions*, 1972): a block whose mean exceeds the next one's is
    pooled with it, until the block means are nondecreasing."""
    blocks = []  # [sum, count] of each block, left to right
    for v in np.asarray(x, dtype=float):
        blocks.append([v, 1])
        while len(blocks) > 1 and blocks[-2][0] / blocks[-2][1] > blocks[-1][0] / blocks[-1][1]:
            total, count = blocks.pop()
            blocks[-1][0] += total
            blocks[-1][1] += count
    return np.repeat([total / count for total, count in blocks], [count for _, count in blocks])


def orthant_projection(x):
    """Nearest point of the nonnegative orthant, the dual-form cone of the
    unit vectors: ``max(x, 0)``."""
    return np.maximum(np.asarray(x, dtype=float), 0.0)
