"""Independent checks of every benchmark output.

Each check recomputes what it needs with numpy and scipy, never with
``conecert``, and tests properties the answer must have.  A check returns
a list of problems; an empty list means the output is right.
"""

from __future__ import annotations

import json

import numpy as np
from numpy.polynomial import legendre as npleg
from scipy.optimize import linprog, nnls

from instances import chebyshev_lobatto

# agreement with scipy on distances, relative to 1 + ||input||
DIST_RTOL = 1e-6
# feasibility and orthogonality slack, relative to the data's scale
FEAS_RTOL = 1e-8
# the Farkas dichotomy threshold on the residual, relative to 1 + ||b||
SYSTEM2_RESIDUAL = 1e-7
# quadrature exactness, relative to the interval length
EXACT_RTOL = 1e-7


def _nnls(A, b):
    return nnls(A, b, maxiter=50 * A.shape[1])


def projection_generated(K, x, point, rho) -> list:
    """``point`` is the projection of x onto cone(K) with multipliers rho."""
    problems = []
    scale = 1.0 + np.linalg.norm(x)
    _, dist = _nnls(K, x)
    if rho is not None:
        if rho.min(initial=0.0) < 0.0:
            problems.append("negative multiplier")
        if np.linalg.norm(K @ rho - point) > FEAS_RTOL * scale * max(1.0, np.abs(K).max()):
            problems.append("point differs from K @ rho")
    if abs(np.linalg.norm(x - point) - dist) > DIST_RTOL * scale:
        problems.append(f"distance {np.linalg.norm(x - point):.9g} differs from scipy's {dist:.9g}")
    if abs((x - point) @ point) > FEAS_RTOL * scale**2:
        problems.append("Moreau orthogonality <x - x0, x0> = 0 fails")
    return problems


def projection_dual(K, x, point) -> list:
    """``point`` is the projection of x onto {y : K^T y >= 0}.

    Moreau: that projection is x + P(-x) with P the projection onto
    cone(K), so its distance from x is ||P(-x)||.
    """
    problems = []
    scale = 1.0 + np.linalg.norm(x)
    rho, _ = _nnls(K, -x)
    dist = np.linalg.norm(K @ rho)
    if abs(np.linalg.norm(point - x) - dist) > DIST_RTOL * scale:
        problems.append(f"distance {np.linalg.norm(point - x):.9g} differs from scipy's {dist:.9g}")
    if K.shape[1] and (K.T @ point).min() < -FEAS_RTOL * scale * np.linalg.norm(K, axis=0).max():
        problems.append("point violates a cone inequality")
    if abs((x - point) @ point) > FEAS_RTOL * scale**2:
        problems.append("Moreau orthogonality <x - x0, x0> = 0 fails")
    return problems


def farkas(A, b, tag, y, x) -> list:
    """The tag agrees with scipy's residual and the witness solves its system."""
    _, rnorm = _nnls(A.T, b)
    expected = "system1" if rnorm <= SYSTEM2_RESIDUAL * (1.0 + np.linalg.norm(b)) else "system2"
    if tag != expected:
        return [f"tag {tag} but scipy's residual {rnorm:.3g} says {expected}"]
    if tag == "system1":
        problems = [] if y is not None and y.min(initial=0.0) >= 0.0 else ["y missing or negative"]
        if y is not None and np.linalg.norm(A.T @ y - b) > SYSTEM2_RESIDUAL * (1.0 + np.linalg.norm(b)):
            problems.append("A^T y != b")
        return problems
    if x is None:
        return ["system-2 witness missing"]
    problems = []
    slack = FEAS_RTOL * (1.0 + np.linalg.norm(x)) * np.linalg.norm(A, axis=1)
    if np.any(A @ x > slack):
        problems.append("A x <= 0 fails")
    if not b @ x > 0.0:
        problems.append("<b, x> > 0 fails")
    return problems


def quadrature(n, interval, nodes, weights) -> list:
    """Positive weights, at most n + 1 nodes in [a, b], exact to degree n."""
    a, b = interval
    problems = []
    if nodes.size > n + 1:
        problems.append(f"{nodes.size} nodes for degree {n}")
    if nodes.size == 0 or weights.min() <= 0.0:
        problems.append("a weight is not positive")
    if nodes.size and (nodes.min() < a or nodes.max() > b):
        problems.append("a node lies outside [a, b]")
    u = (2.0 * nodes - (a + b)) / (b - a)
    computed = npleg.legvander(u, n).T @ weights  # sum_i w_i P_k(u_i)
    exact = np.zeros(n + 1)
    exact[0] = b - a  # shifted P_k integrate to 0 for k >= 1
    err = float(np.abs(computed - exact).max())
    if err > EXACT_RTOL * (b - a):
        problems.append(f"moment error {err:.3g}")
    return problems


def derivative_representers(n: int, r: int, grid) -> np.ndarray:
    """Column j holds p_k^(r)(grid[j]) for the orthonormal Legendre p_k."""
    rows = []
    for k in range(n + 1):
        c = np.zeros(k + 1)
        c[k] = np.sqrt((2 * k + 1) / 2.0)
        rows.append(npleg.legval(grid, npleg.legder(c, r)) if r <= k else np.zeros(len(grid)))
    return np.array(rows)


def shape(n, r, grid, target, coeffs) -> list:
    """Same distance as scipy's grid-discretized dual projection; p^(r) >= 0 on the grid."""
    problems = []
    R = derivative_representers(n, r, grid)
    rho, _ = _nnls(R, -target)
    dist = np.linalg.norm(R @ rho)
    scale = 1.0 + np.linalg.norm(target)
    if abs(np.linalg.norm(coeffs - target) - dist) > DIST_RTOL * scale:
        problems.append(f"distance {np.linalg.norm(coeffs - target):.9g} differs from scipy's {dist:.9g}")
    worst = float((coeffs @ R).min())
    if worst < -FEAS_RTOL * scale * np.abs(R).max():
        problems.append(f"p^({r}) = {worst:.3g} < 0 at a grid point")
    return problems


def membership(mode, G, x, member, coefficients, witness) -> list:
    """The decision agrees with scipy/numpy and its certificate holds."""
    scale = 1.0 + np.linalg.norm(x)
    if mode == "cone":
        _, rnorm = _nnls(G, x)
    else:
        c, *_ = np.linalg.lstsq(G, x, rcond=None)
        rnorm = np.linalg.norm(x - G @ c)
    expected = bool(rnorm <= SYSTEM2_RESIDUAL * scale)
    if member != expected:
        return [f"member={member} but the residual {rnorm:.3g} says {expected}"]
    if member:
        problems = [] if np.linalg.norm(G @ coefficients - x) <= FEAS_RTOL * scale else ["G c != x"]
        if mode == "cone" and coefficients.min(initial=0.0) < 0.0:
            problems.append("negative coefficient")
        return problems
    problems = [] if x @ witness > 0.0 else ["witness does not separate"]
    products = G.T @ witness
    slack = FEAS_RTOL * (1.0 + np.linalg.norm(witness)) * np.linalg.norm(G, axis=0)
    bad = np.abs(products) > slack if mode == "span" else products > slack
    if np.any(bad):
        problems.append("witness is not orthogonal/nonpositive on the vectors")
    return problems


def generalized_farkas(S, p, b, r, member_augmented) -> list:
    """``S x <= p  =>  <b, x> <= r`` holds exactly when member_augmented is true."""
    lp = linprog(-b, A_ub=S, b_ub=p, bounds=[(None, None)] * S.shape[1], method="highs")
    if lp.status not in (0, 3):
        return [f"linprog status {lp.status}"]
    holds = lp.status == 0 and -lp.fun <= r
    if holds != member_augmented:
        return [f"member_augmented={member_augmented} but the implication {'holds' if holds else 'fails'}"]
    return []


def _vec(v):
    return None if v is None else np.asarray(v, dtype=float)


def cli_report(problem: dict, text: str) -> list:
    """Check a cli report against the problem file it came from."""
    try:
        result = json.loads(text)["result"]
    except (ValueError, KeyError) as exc:
        return [f"unreadable report: {exc}"]
    if result is None:  # the computation gave up; cli.run returned nonzero
        return []
    kind = problem["kind"]
    if kind == "project":
        K = np.asarray(problem["generators"], dtype=float).T
        x = _vec(problem["point"])
        if result["orientation"] == "generated":
            return projection_generated(K, x, _vec(result["point"]), _vec(result["rho"]))
        return projection_dual(K, x, _vec(result["point"]))
    if kind == "farkas" and "pairs" in problem:
        S = np.array([s for s, _ in problem["pairs"]], dtype=float)
        p = np.array([q for _, q in problem["pairs"]], dtype=float)
        return generalized_farkas(S, p, _vec(problem["b"]), problem["r"], result["member_augmented"])
    if kind == "farkas":
        A = np.asarray(problem["matrix"], dtype=float)
        return farkas(A, _vec(problem["rhs"]), result["tag"], _vec(result["y"]), _vec(result["x"]))
    if kind == "quadrature":
        return quadrature(problem["degree"], problem["interval"], _vec(result["nodes"]), _vec(result["weights"]))
    if kind == "shape":
        n, r = problem["n"], problem["r"]
        target = problem["target"]
        if "legendre" in target:
            c = np.zeros(n + 1)
            c[: len(target["legendre"])] = target["legendre"]
        else:  # power series -> orthonormal Legendre coordinates
            leg = npleg.poly2leg(np.asarray(target["monomial"], dtype=float))
            c = np.zeros(n + 1)
            c[: leg.size] = leg * np.sqrt(2.0 / (2 * np.arange(leg.size) + 1))
        grid = chebyshev_lobatto(problem.get("grid_size", 20 * (n + 1)))  # 20 (n + 1) is the default
        return shape(n, r, grid, c, _vec(result["legendre_coeffs"]))
    if kind == "membership":
        G = np.asarray(problem["vectors"], dtype=float).T
        return membership(
            problem.get("mode", "cone"), G, _vec(problem["point"]), result["member"],
            _vec(result["coefficients"]), _vec(result["witness"]),
        )
    return [f"no check for kind {kind}"]


def output(name: str, data: dict, out: dict, report_text=None) -> list:
    """Check one operation's output; ``report_text`` is the cli report file."""
    if name == "project_dual":
        problems = projection_dual(data["K"], data["x"], out["point"])
        if not problems and not out["certificate_passed"]:
            problems.append("verify_characterization rejects a correct projection")
        return problems
    if name == "project_generated":
        return projection_generated(data["K"], data["x"], out["point"], out["rho"])
    if name == "farkas":
        problems = farkas(data["A"], data["b"], out["tag"], _vec(out["y"]), _vec(out["x"]))
        if not problems and not out["certificate_passed"]:
            problems.append("verify_outcome rejects a correct certificate")
        return problems
    if name == "quadrature":
        return quadrature(data["n"], data["interval"], out["nodes"], out["weights"])
    if name == "shape":
        return shape(data["n"], data["r"], data["grid"], data["target"], out["coeffs"])
    if name == "cli":
        return cli_report(data["problem"], report_text)
    return [f"no check for operation {name}"]
