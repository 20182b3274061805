"""Command-line front end.

Reads a JSON problem file, dispatches to the library, re-verifies every
numeric claim, and emits a certificate report as JSON (the documented
schema) or as text.  Exit status: 0 when all certificates pass, 2 when a
result was produced but some certificate failed (or the solver gave up),
1 on malformed input.

Report schema (JSON format)::

    {"kind": ..., "input_echo": ..., "result": ...,
     "certificates": [{"name": ..., "residual": ..., "pass": ...}, ...],
     "runtime_ms": ...}

All floating-point numbers are serialized in Python's shortest
round-trip form, so re-reading a report reproduces every value bit for
bit.  Non-finite values are refused.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .certificates import CertificateReport
from .cones import project_dual, project_generated, positive_relative_test, verify_characterization
from .errors import BadInterval, IterationLimit, MomentFitFailed
from .farkas import FarkasTag, farkas_alternative, generalized_farkas, verify_outcome
from .legendre import LegendreBasis, chebyshev_points, legendre_to_monomial, monomial_to_legendre
from .linalg import as_vector, generator_matrix, span_membership
from .quadrature import EXACTNESS_TOL, integral_moments, positive_quadrature, verify_exactness
from .shape import LegendrePoly, ShapeProblem, default_grid, project_shape

KINDS = ("project", "farkas", "quadrature", "shape", "membership")


class InputError(Exception):
    """Malformed problem file; the message carries a location."""


def dumps_report(obj) -> str:
    """Serialize a report deterministically (insertion-ordered keys)."""
    return json.dumps(obj, indent=2, allow_nan=False)


# ---------------------------------------------------------------------------
# input handling


def _load_input(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path}:1:1: top-level value must be an object")
    return data


def _field(data: dict, name: str, path: str, required=True, default=None):
    if name not in data:
        if required:
            raise InputError(f"{path}: missing required field '{name}'")
        return default
    return data[name]


def _vector_field(data, name, path, required=True, default=None):
    raw = _field(data, name, path, required, default)
    if raw is None:
        return None
    try:
        return as_vector(raw)
    except (ValueError, TypeError) as exc:
        raise InputError(f"{path}: field '{name}': {exc}") from exc


def _vectors_field(data, name, path, dim: int) -> np.ndarray:
    """A list of length-``dim`` vectors, as the columns of a dim x m matrix."""
    raw = _field(data, name, path)
    if not isinstance(raw, list):
        raise InputError(f"{path}: field '{name}' must be a list of vectors")
    try:
        S = generator_matrix(raw, dim=dim)
    except (ValueError, TypeError) as exc:
        raise InputError(f"{path}: field '{name}': {exc}") from exc
    if S.shape[0] != dim:
        raise InputError(f"{path}: field '{name}': vectors of length {S.shape[0]}, expected {dim}")
    return S


# ---------------------------------------------------------------------------
# per-kind handlers: return (result dict, certificate report)


def _handle_project(data: dict, path: str, tol: float):
    x = _vector_field(data, "point", path)
    S = _vectors_field(data, "generators", path, x.size)
    orientation = _field(data, "orientation", path, required=False, default="dual")
    if orientation not in ("dual", "generated"):
        raise InputError(f"{path}: field 'orientation' must be 'dual' or 'generated'")
    witness = _vector_field(data, "witness_e", path, required=False)
    if witness is not None and witness.size != x.size:
        raise InputError(f"{path}: field 'witness_e' has length {witness.size}, expected {x.size}")
    scale = tol * (1.0 + float(np.linalg.norm(x)))
    kkt_limit = scale * max(1.0, float(np.linalg.norm(S, axis=0).max(initial=0.0)))
    orth_limit = tol * (1.0 + float(x @ x))

    if orientation == "generated":
        res = project_generated(S.T, x, tol)
        report = CertificateReport()
        min_rho = float(res.rho.min(initial=0.0))
        report.add("multipliers_nonnegative", max(0.0, -min_rho), min_rho >= 0.0)
        report.add("kkt_inequalities", res.kkt_residual, res.kkt_residual <= kkt_limit)
        report.add("orthogonality", res.orthogonality_residual, res.orthogonality_residual <= orth_limit)
        rep_residual = float(np.linalg.norm(res.point - S @ res.rho))
        report.add("representation", rep_residual, rep_residual <= scale)
    else:
        res = project_dual(S.T, x, tol)
        report = verify_characterization(S.T, x, res.point, tol, witness_e=witness)
        report.add("kkt_residual", res.kkt_residual, res.kkt_residual <= kkt_limit)
        report.add("orthogonality", res.orthogonality_residual, res.orthogonality_residual <= orth_limit)

    result = {
        "orientation": orientation,
        "point": res.point.tolist(),
        "rho": res.rho.tolist(),
        "active": res.active.tolist(),
        "kkt_residual": float(res.kkt_residual),
        "orthogonality_residual": float(res.orthogonality_residual),
    }
    return result, report


def _handle_farkas(data: dict, path: str, tol: float):
    report = CertificateReport()
    if "pairs" in data:
        raw_pairs = _field(data, "pairs", path)
        if not isinstance(raw_pairs, list):
            raise InputError(f"{path}: field 'pairs' must be a list of [vector, scalar] pairs")
        b = _vector_field(data, "b", path)
        pairs = []
        for i, entry in enumerate(raw_pairs):
            try:
                s, p = entry
                s, p = as_vector(s), float(p)
            except (ValueError, TypeError) as exc:
                raise InputError(f"{path}: field 'pairs[{i}]': {exc}") from exc
            if s.size != b.size:
                raise InputError(f"{path}: field 'pairs[{i}]': vector of length {s.size}, expected {b.size}")
            pairs.append((s, p))
        r = _field(data, "r", path)
        if not isinstance(r, (int, float)):
            raise InputError(f"{path}: field 'r' must be a number")
        gen = generalized_farkas(pairs, b, float(r), tol)
        result = {
            "member_plain": gen.member_plain,
            "member_augmented": gen.member_augmented,
            "sampled_implication_holds": gen.sampled_implication_holds,
            "hypothesis_verified": gen.hypothesis_verified,
            "feasible_point": None if gen.feasible_point is None else gen.feasible_point.tolist(),
            "samples_used": gen.samples_used,
        }
        member = gen.member_plain or gen.member_augmented
        report.add("membership_monotone", float(gen.member_plain and not gen.member_augmented), (not gen.member_plain) or gen.member_augmented)
        report.add("sampled_implication_consistent", float(member and not gen.sampled_implication_holds), (not member) or gen.sampled_implication_holds)
        decided = gen.hypothesis_verified or gen.infeasibility_multipliers is not None
        report.add("feasibility_hypothesis", gen.consistency_residual, decided)
        return result, report

    b = _vector_field(data, "rhs", path)
    A = _vectors_field(data, "matrix", path, b.size).T
    outcome = farkas_alternative(A, b, tol)
    verified = verify_outcome(A, b, outcome, tol)
    ver = outcome.verification
    if outcome.tag is FarkasTag.SYSTEM1:
        report.add("primal_residual", ver.primal_residual, ver.primal_residual <= tol * (1.0 + float(np.linalg.norm(b))))
        report.add("multipliers_nonnegative", ver.dual_violation, ver.dual_violation <= tol)
    else:
        row_norms = np.linalg.norm(A, axis=1)
        normalized = 0.0
        if row_norms.size:
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(row_norms > 0, (A @ outcome.x) / np.where(row_norms > 0, row_norms, 1.0), 0.0)
            normalized = max(0.0, float(ratios.max())) / (1.0 + float(np.linalg.norm(outcome.x)))
        report.add("dual_violation_normalized", normalized, normalized <= tol)
        report.add("strict_gap_positive", max(0.0, -ver.strict_gap), ver.strict_gap > 0.0)
    report.add("certificate_verifies", float(not verified), verified)
    result = {
        "tag": outcome.tag.value,
        "y": None if outcome.y is None else outcome.y.tolist(),
        "x": None if outcome.x is None else outcome.x.tolist(),
        "verification": {
            "primal_residual": ver.primal_residual,
            "dual_violation": ver.dual_violation,
            "strict_gap": ver.strict_gap,
        },
    }
    return result, report


def _handle_quadrature(data: dict, path: str, tol: float):
    degree = _field(data, "degree", path)
    interval = _field(data, "interval", path)
    grid_size = _field(data, "grid_size", path, required=False, default=None)
    if not isinstance(degree, int) or degree < 0:
        raise InputError(f"{path}: field 'degree' must be a nonnegative integer")
    try:
        a, b = (float(v) for v in interval)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}: field 'interval' must be [a, b]") from exc
    if grid_size is None:
        grid_size = 8 * (degree + 1)
    if not isinstance(grid_size, int) or grid_size < 4 * (degree + 1):
        raise InputError(f"{path}: field 'grid_size' must be an integer >= 4 (degree + 1)")
    try:
        spec = integral_moments(degree, a, b)
    except BadInterval as exc:
        raise InputError(f"{path}: {exc}") from exc
    rule = positive_quadrature(spec, grid_size)

    exactness = verify_exactness(rule, degree)
    min_weight = float(rule.weights.min(initial=np.inf))
    outside = max(0.0, float(a - rule.nodes.min(initial=a)), float(rule.nodes.max(initial=b) - b))
    report = CertificateReport()
    report.add("basis_exactness", exactness, exactness <= EXACTNESS_TOL)
    report.add("node_count_bound", float(rule.nodes.size - (degree + 1)), rule.nodes.size <= degree + 1)
    report.add("weights_positive", max(0.0, 1e-12 - min_weight), min_weight > 1e-12)
    report.add("nodes_in_interval", outside, rule.nodes.size == 0 or (rule.nodes.min() >= a - 1e-12 and rule.nodes.max() <= b + 1e-12))
    result = {
        "nodes": rule.nodes.tolist(),
        "weights": rule.weights.tolist(),
        "degree": degree,
        "interval": [a, b],
    }
    return result, report


def _parse_shape_target(data: dict, path: str, n: int) -> LegendrePoly:
    raw = _field(data, "target", path)
    if not isinstance(raw, dict) or not ({"legendre", "monomial"} & set(raw)):
        raise InputError(f"{path}: field 'target' must be an object with 'legendre' or 'monomial' coefficients")
    if "legendre" in raw:
        coeffs = _vector_field(raw, "legendre", path)
    else:
        coeffs = monomial_to_legendre(_vector_field(raw, "monomial", path))
    if coeffs.size > n + 1:
        raise InputError(f"{path}: target degree exceeds n = {n}")
    padded = np.zeros(n + 1)
    padded[: coeffs.size] = coeffs
    return LegendrePoly(padded)


def _handle_shape(data: dict, path: str, tol: float):
    n = _field(data, "n", path)
    r = _field(data, "r", path)
    if not isinstance(n, int) or not isinstance(r, int) or not 0 <= r < n:
        raise InputError(f"{path}: need integers 0 <= r < n")
    target = _parse_shape_target(data, path, n)
    grid = _vector_field(data, "grid", path, required=False)
    grid_size = _field(data, "grid_size", path, required=False)
    if grid is None and grid_size is not None:
        if not isinstance(grid_size, int) or grid_size < n + 1:
            raise InputError(f"{path}: field 'grid_size' must be an integer >= n + 1")
        grid = chebyshev_points(grid_size)
    elif grid is None:
        grid = default_grid(n)
    try:
        problem = ShapeProblem(n=n, r=r, grid=grid, target=target)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc
    res = project_shape(problem, tol)

    # re-verify the claims through the basis evaluator, not the solver state:
    # column j of `representers` evaluates the r-th derivative at active_alphas[j]
    sol = res.solution
    basis = LegendreBasis(n)
    representers = basis.values(res.active_alphas, r)
    rep_residual = float(np.linalg.norm(sol.coeffs - target.coeffs - representers @ res.rho))
    active_deriv = float(np.abs(sol.coeffs @ representers).max(initial=0.0))
    grid_min = float((sol.coeffs @ basis.values(problem.grid, r)).min())
    sol_scale = tol * (1.0 + sol.norm())
    report = CertificateReport()
    report.add("representation", rep_residual, rep_residual <= tol * (1.0 + target.norm()))
    report.add("active_derivative_zero", active_deriv, active_deriv <= sol_scale)
    report.add("grid_feasibility", max(0.0, -grid_min), grid_min >= -sol_scale)
    report.add("checkgrid_feasibility", max(0.0, -res.min_derivative_on_checkgrid), res.min_derivative_on_checkgrid >= -1e-7)
    report.add("active_count_bound", float(not res.bound_ok), res.bound_ok)
    result = {
        "legendre_coeffs": sol.coeffs.tolist(),
        "monomial_coeffs": legendre_to_monomial(sol.coeffs).tolist(),
        "active_alphas": res.active_alphas.tolist(),
        "rho": res.rho.tolist(),
        "min_derivative_on_checkgrid": float(res.min_derivative_on_checkgrid),
        "distance": float(np.linalg.norm(sol.coeffs - target.coeffs)),
    }
    return result, report


def _handle_membership(data: dict, path: str, tol: float):
    mode = _field(data, "mode", path, required=False, default="cone")
    if mode not in ("span", "cone"):
        raise InputError(f"{path}: field 'mode' must be 'span' or 'cone'")
    x = _vector_field(data, "point", path)
    G = _vectors_field(data, "vectors", path, x.size)
    scale = tol * (1.0 + float(np.linalg.norm(x)))

    if mode == "span":
        res = span_membership(x, G.T, tol)
        member = res.member
        coeffs = res.coefficients
        witness = res.residual
    else:
        res = positive_relative_test(G.T, x, tol)
        member = res.positive
        coeffs = res.rho
        witness = res.witness if res.witness is not None else np.zeros(x.size)

    report = CertificateReport()
    if member:
        rep_residual = float(np.linalg.norm(x - G @ coeffs))
        report.add("representation", rep_residual, rep_residual <= scale)
        if mode == "cone":
            min_coeff = float(coeffs.min(initial=0.0))
            report.add("multipliers_nonnegative", max(0.0, -min_coeff), min_coeff >= 0.0)
    else:
        w = witness
        col_scale = scale * max(1.0, float(np.linalg.norm(G, axis=0).max(initial=0.0)))
        if mode == "span":
            ortho = float(np.abs(G.T @ w).max(initial=0.0))
            ortho_name = "witness_orthogonality"
        else:
            ortho = max(0.0, float((G.T @ w).max(initial=0.0)))
            ortho_name = "witness_nonpositive_products"
        gap = float(x @ w) - float(w @ w)
        report.add("witness_separates", max(0.0, -float(x @ w)), float(x @ w) > 0.0)
        report.add(ortho_name, ortho, ortho <= col_scale)
        report.add("witness_self_product", abs(gap), abs(gap) <= tol * (1.0 + float(x @ x)))
    result = {
        "mode": mode,
        "member": bool(member),
        "coefficients": None if coeffs is None else coeffs.tolist(),
        "witness": None if member else witness.tolist(),
    }
    return result, report


_HANDLERS = {
    "project": _handle_project,
    "farkas": _handle_farkas,
    "quadrature": _handle_quadrature,
    "shape": _handle_shape,
    "membership": _handle_membership,
}


# ---------------------------------------------------------------------------
# rendering


def _render_text(report: dict) -> str:
    lines = [f"kind: {report['kind']}"]
    result = report["result"]
    if result is None:
        lines.append("result: (none)")
    else:
        lines.append("result:")
        for key, value in result.items():
            lines.append(f"  {key}: {value}")
    if "error" in report:
        lines.append(f"error: {report['error']}")
    lines.append("certificates:")
    for cert in report["certificates"]:
        status = "pass" if cert["pass"] else "FAIL"
        lines.append(f"  [{status}] {cert['name']}  residual={cert['residual']!r}")
    lines.append(f"runtime_ms: {report['runtime_ms']!r}")
    return "\n".join(lines) + "\n"


def _dump_csv(report: dict, csv_path: str) -> None:
    kind = report["kind"]
    result = report["result"] or {}
    if kind == "quadrature":
        rows = ["node,weight"] + [f"{t!r},{w!r}" for t, w in zip(result.get("nodes", []), result.get("weights", []))]
    elif kind == "shape":
        coeffs = result.get("monomial_coeffs", [])
        rows = ["t,solution"]
        for t in np.linspace(-1.0, 1.0, 201).tolist():
            val = float(np.polynomial.polynomial.polyval(t, coeffs)) if coeffs else 0.0
            rows.append(f"{t!r},{val!r}")
    else:
        if kind == "project":
            column, vec = "point", result.get("point", [])
        elif kind == "farkas":
            column, vec = "value", result.get("y") or result.get("x") or []
        else:
            column, vec = "value", result.get("coefficients") or result.get("witness") or []
        rows = [f"component,{column}"] + [f"{i},{v!r}" for i, v in enumerate(vec)]
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")


# ---------------------------------------------------------------------------
# entry points

_PARSER = argparse.ArgumentParser(prog="conecert", description=__doc__.splitlines()[0])
_PARSER.add_argument("kind", choices=KINDS, help="problem kind; must match the file's 'kind' field")
_PARSER.add_argument("--input", required=True, help="path to the JSON problem file")
_PARSER.add_argument("--output", default=None, help="write the report here instead of stdout")
_PARSER.add_argument("--tol", type=float, default=1e-9, help="certificate tolerance (default 1e-9)")
_PARSER.add_argument("--format", choices=("json", "text"), default="json")
_PARSER.add_argument("--seed", type=int, default=0, help="echoed in the report's input_echo; no kind samples")
_PARSER.add_argument("--dump-csv", default=None, help="also write the main result table as CSV")


def run(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1

    if args.tol <= 0:
        print("error: --tol must be positive", file=sys.stderr)
        return 1

    started = time.perf_counter()
    try:
        data = _load_input(args.input)
        kind = _field(data, "kind", args.input)
        if kind != args.kind:
            raise InputError(f"{args.input}: file kind '{kind}' does not match requested kind '{args.kind}'")
        result, certificates = _HANDLERS[args.kind](data, args.input, args.tol)
        error = None
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (IterationLimit, MomentFitFailed) as exc:
        result = None
        certificates = CertificateReport()
        certificates.add("computation_completed", 1.0, False)
        error = f"{type(exc).__name__}: {exc}"

    report = {
        "kind": args.kind,
        "input_echo": {"file": data, "tol": float(args.tol), "seed": int(args.seed)},
        "result": result,
        "certificates": [{"name": c.name, "residual": c.residual, "pass": c.passed} for c in certificates.checks],
        "runtime_ms": (time.perf_counter() - started) * 1000.0,
    }
    if error is not None:
        report["error"] = error

    rendered = dumps_report(report) + "\n" if args.format == "json" else _render_text(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(rendered)
    else:
        sys.stdout.write(rendered)
    if args.dump_csv:
        _dump_csv(report, args.dump_csv)

    return 0 if certificates.passed else 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
