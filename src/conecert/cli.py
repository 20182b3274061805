"""Command-line front end.

Reads a JSON problem file, dispatches to the library, and emits the
result's certificate report as JSON (the documented schema) or as text.
A handler per kind only parses and solves, and returns the library's
result.  One table, `REPORTS`, gives each result its report: the
library's check function for it (``*_certificate``, which takes
``(result, tol)``) and the fields the report shows; `run` looks the
result up once, certifies and serializes.  Exit status: 0 when all
certificates pass, 2 when a result was produced but some certificate
failed (or the solver gave up), 1 on malformed input.

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
import functools
import json
import sys
import time
from dataclasses import fields, is_dataclass
from enum import Enum

import numpy as np

from .certificates import CertificateReport
from .cones import (cone_membership_certificate, dual_projection_certificate, generated_projection_certificate,
                    positive_relative_test, project_dual, project_generated, span_membership, span_membership_certificate)
from .errors import IterationLimit, MomentFitFailed
from .farkas import FarkasOutcome, GenFarkasReport, farkas_alternative, farkas_certificate, generalized_farkas, implication_certificate
from .legendre import chebyshev_points, monomial_to_legendre
from .linalg import DEFAULT_TOL, as_vector, generator_matrix
from .quadrature import QuadratureRule, integral_moments, positive_quadrature, rule_certificate
from .shape import LegendrePoly, ShapeProblem, ShapeResult, default_grid, project_shape, shape_certificate

_PROJECTION_FIELDS = ("orientation", "point", "rho", "active", "kkt_residual", "orthogonality_residual")
_MEMBERSHIP_FIELDS = ("mode", "member", "coefficients", "witness")
_PAIRS_FIELDS = ("member_plain", "member_augmented", "sampled_implication_holds", "hypothesis_verified", "feasible_point", "samples_used")

# each result's check function and the fields (some of them properties) its
# report shows, by its type or a projection's orientation or a membership's mode
REPORTS = {
    FarkasOutcome: (farkas_certificate, ("tag", "y", "x", "verification")),
    GenFarkasReport: (implication_certificate, _PAIRS_FIELDS),
    QuadratureRule: (rule_certificate, ("nodes", "weights", "degree", "interval")),
    ShapeResult: (shape_certificate, ("legendre_coeffs", "monomial_coeffs", "active_alphas", "rho", "min_derivative_on_checkgrid", "distance")),
    "generated": (generated_projection_certificate, _PROJECTION_FIELDS),
    "dual": (dual_projection_certificate, _PROJECTION_FIELDS),
    "span": (span_membership_certificate, _MEMBERSHIP_FIELDS),
    "cone": (cone_membership_certificate, _MEMBERSHIP_FIELDS),
}


class InputError(Exception):
    """Malformed problem file; the message carries a location."""


def dumps_report(obj) -> str:
    """Serialize a report deterministically (insertion-ordered keys)."""
    return json.dumps(obj, indent=2, allow_nan=False)


def _json(value, names=None):
    """A result value as JSON: arrays and tuples become lists, enums their
    value, a dataclass a dict of its fields (only ``names``, if given)."""
    if is_dataclass(value):
        return {name: _json(getattr(value, name)) for name in names or [f.name for f in fields(value)]}
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    if isinstance(value, tuple):
        return [_json(v) for v in value]
    return value.value if isinstance(value, Enum) else value


# ---------------------------------------------------------------------------
# input handling

_FLOAT_MAX = sys.float_info.max


def _finite(literal, parse=float):
    """A number of the problem file; NaN, Infinity and literals beyond the
    float range are refused."""
    value = parse(literal)
    # false for NaN; an integer is compared exactly, without conversion
    if -_FLOAT_MAX <= value <= _FLOAT_MAX:
        return value
    raise ValueError(f"{literal} is not a finite number")


_DECODER = json.JSONDecoder(parse_float=_finite, parse_int=functools.partial(_finite, parse=int), parse_constant=_finite)


def _load_input(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc
    try:
        data = _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # refused by _finite, or by int() past sys.get_int_max_str_digits() digits
        raise InputError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path}:1:1: top-level value must be an object")
    return data


def _field(data: dict, name: str, path: str, required=True, default=None):
    if name not in data:
        if required:
            raise InputError(f"{path}: missing required field '{name}'")
        return default
    return data[name]


def _numbers(raw, where: str):
    """``raw`` itself if it is a number or a (nested) list of numbers.  JSON's
    true, false, null and strings are refused here, where the field is read:
    numpy would take them as 1.0, 0.0, NaN and the number a string spells."""
    items = [raw]
    for item in items:  # grows by the entries of each nested list it meets
        if type(item) is list:
            items.extend(item)
        elif type(item) is not float and type(item) is not int:  # a bool is neither
            raise InputError(f"{where} must hold numbers, not {json.dumps(item)}")
    return raw


def _int_field(data, name, path, low: int, required=True):
    """An integer of at least ``low``; JSON's true and false are not integers.
    An optional field that is absent or null reads as None."""
    value = _field(data, name, path, required)
    if value is None and not required:
        return None
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise InputError(f"{path}: field '{name}' must be an integer >= {low}")
    return value


def _convert(raw, where: str, convert, *args):
    """``convert(raw, *args)`` of a value that `_numbers` admits; a refusal
    (ValueError or TypeError) is an InputError at ``where``."""
    try:
        return convert(_numbers(raw, where), *args)
    except (ValueError, TypeError) as exc:
        raise InputError(f"{where}: {exc}") from exc


def _vector_field(data, name, path, required=True):
    """A finite vector; an optional field that is absent or null reads as None."""
    raw = _field(data, name, path, required)
    if raw is None:
        if required:
            raise InputError(f"{path}: field '{name}' must be a vector, not null")
        return None
    return _convert(raw, f"{path}: field '{name}'", as_vector)


def _vectors_field(data, name, path, dim: int) -> np.ndarray:
    """A list of length-``dim`` vectors, as the columns of a dim x m matrix."""
    raw = _field(data, name, path)
    if not isinstance(raw, list):
        raise InputError(f"{path}: field '{name}' must be a list of vectors")
    return _convert(raw, f"{path}: field '{name}'", generator_matrix, dim)


def _two(raw, first, second):
    """``(first(a), second(b))`` of a two-entry list ``[a, b]``."""
    a, b = raw
    return first(a), second(b)


# ---------------------------------------------------------------------------
# per-kind handlers parse and solve, and return the library's result


def _handle_project(data: dict, path: str, tol: float):
    x = _vector_field(data, "point", path)
    S = _vectors_field(data, "generators", path, x.size)
    orientation = _field(data, "orientation", path, required=False, default="dual")
    if orientation not in ("dual", "generated"):
        raise InputError(f"{path}: field 'orientation' must be 'dual' or 'generated'")
    witness = _vector_field(data, "witness_e", path, required=False)
    if witness is not None and witness.size != x.size:
        raise InputError(f"{path}: field 'witness_e' has length {witness.size}, expected {x.size}")
    # a generated cone needs no pointedness hypothesis: its witness is ignored
    return project_generated(S.T, x, tol) if orientation == "generated" else project_dual(S.T, x, tol, witness)


def _handle_farkas(data: dict, path: str, tol: float):
    if "pairs" in data:
        raw_pairs = _field(data, "pairs", path)
        if not isinstance(raw_pairs, list):
            raise InputError(f"{path}: field 'pairs' must be a list of [vector, scalar] pairs")
        b = _vector_field(data, "b", path)
        pairs = [_convert(entry, f"{path}: field 'pairs[{i}]'", _two, as_vector, float) for i, entry in enumerate(raw_pairs)]
        for i, (s, _) in enumerate(pairs):
            if s.size != b.size:
                raise InputError(f"{path}: field 'pairs[{i}]': vector of length {s.size}, expected {b.size}")
        r = _field(data, "r", path)
        if isinstance(r, bool) or not isinstance(r, (int, float)):
            raise InputError(f"{path}: field 'r' must be a number")
        return generalized_farkas(pairs, b, float(r), tol)

    b = _vector_field(data, "rhs", path)
    return farkas_alternative(_vectors_field(data, "matrix", path, b.size).T, b, tol)


def _handle_quadrature(data: dict, path: str, tol: float):
    degree = _int_field(data, "degree", path, 0)
    a, b = _convert(_field(data, "interval", path), f"{path}: field 'interval'", _two, float, float)
    # a given grid_size is at least 4 (degree + 1), so `or` replaces only an absent one
    grid_size = _int_field(data, "grid_size", path, 4 * (degree + 1), required=False) or 8 * (degree + 1)
    try:
        spec = integral_moments(degree, a, b)
    except ValueError as exc:  # BadInterval, or moments past the float range
        raise InputError(f"{path}: {exc}") from exc
    return positive_quadrature(spec, grid_size)


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
    n = _int_field(data, "n", path, 1)
    r = _int_field(data, "r", path, 0)
    if r >= n:
        raise InputError(f"{path}: need integers 0 <= r < n")
    target = _parse_shape_target(data, path, n)
    grid = _vector_field(data, "grid", path, required=False)
    if grid is None:
        grid_size = _int_field(data, "grid_size", path, n + 1, required=False)
        grid = default_grid(n) if grid_size is None else chebyshev_points(grid_size)
    try:
        problem = ShapeProblem(n=n, r=r, grid=grid, target=target)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc
    return project_shape(problem, tol)


# membership mode -> solve
MEMBERSHIP = {"span": span_membership, "cone": positive_relative_test}


def _handle_membership(data: dict, path: str, tol: float):
    mode = _field(data, "mode", path, required=False, default="cone")
    if not isinstance(mode, str) or mode not in MEMBERSHIP:
        raise InputError(f"{path}: field 'mode' must be 'span' or 'cone'")
    x = _vector_field(data, "point", path)
    G = _vectors_field(data, "vectors", path, x.size)
    return MEMBERSHIP[mode](G.T, x, tol)


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
    """A header, then one row per node, component or sample of the result;
    a run with no result writes the header alone."""
    kind = report["kind"]
    result = report["result"] or {}
    if kind == "quadrature":
        rows = ["node,weight"] + [f"{t!r},{w!r}" for t, w in zip(result.get("nodes", []), result.get("weights", []))]
    elif kind == "shape":
        ts = np.linspace(-1.0, 1.0, 201).tolist() if result else []
        rows = ["t,solution"] + [f"{t!r},{float(np.polynomial.polynomial.polyval(t, result['monomial_coeffs']))!r}" for t in ts]
    else:
        if kind == "project":
            column, vec = "point", result.get("point", [])
        elif kind == "farkas":
            column, vec = "value", result.get("y") or result.get("x") or result.get("feasible_point") or []
        else:
            column, vec = "value", result.get("coefficients") or result.get("witness") or []
        rows = [f"component,{column}"] + [f"{i},{v!r}" for i, v in enumerate(vec)]
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")


# ---------------------------------------------------------------------------
# entry points

_PARSER = argparse.ArgumentParser(prog="conecert", description=__doc__.splitlines()[0])
_PARSER.add_argument("kind", choices=tuple(_HANDLERS), help="problem kind; must match the file's 'kind' field")
_PARSER.add_argument("--input", required=True, help="path to the JSON problem file")
_PARSER.add_argument("--output", default=None, help="write the report here instead of stdout")
_PARSER.add_argument("--tol", type=float, default=DEFAULT_TOL, help=f"relative tolerance of every solve and check (default {DEFAULT_TOL:g})")
_PARSER.add_argument("--format", choices=("json", "text"), default="json")
_PARSER.add_argument("--seed", type=int, default=0, help="echoed in the report's input_echo; no kind samples")
_PARSER.add_argument("--dump-csv", default=None, help="also write the main result table as CSV")


def run(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1

    if not (np.isfinite(args.tol) and args.tol > 0):
        print("error: --tol must be positive and finite", file=sys.stderr)
        return 1

    started = time.perf_counter()
    try:
        data = _load_input(args.input)
        kind = _field(data, "kind", args.input)
        if kind != args.kind:
            raise InputError(f"{args.input}: file kind '{kind}' does not match requested kind '{args.kind}'")
        solved = _HANDLERS[args.kind](data, args.input, args.tol)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (IterationLimit, MomentFitFailed) as exc:
        result, error = None, f"{type(exc).__name__}: {exc}"
        certificates = CertificateReport()
        # no result to check: fails at any tol
        certificates.add("computation_completed", 1.0, 0.0)
    else:
        certify, names = REPORTS[getattr(solved, "orientation", getattr(solved, "mode", type(solved)))]
        result, error = _json(solved, names), None
        certificates = certify(solved, args.tol)

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
