"""The timed operations: calls into ``conecert``'s public functions.

Every function looks ``conecert`` names up at call time, so the traced
run's wrappers (installed on the modules) see the calls.  Each returns
plain arrays and numbers for the independent checks.
"""

from __future__ import annotations

import conecert
import conecert.cli


def project_dual(d: dict) -> dict:
    K, x = d["K"], d["x"]
    gens = list(K.T)
    res = conecert.project_dual(gens, x)
    report = conecert.verify_characterization(gens, x, res.point)
    return {"point": res.point, "certificate_passed": report.passed}


def project_generated(d: dict) -> dict:
    res = conecert.project_generated(list(d["K"].T), d["x"])
    return {"point": res.point, "rho": res.rho}


def farkas(d: dict) -> dict:
    out = conecert.farkas_alternative(d["A"], d["b"])
    verified = conecert.verify_outcome(d["A"], d["b"], out)
    return {"tag": out.tag.value, "y": out.y, "x": out.x, "certificate_passed": verified}


def quadrature(d: dict) -> dict:
    a, b = d["interval"]
    rule = conecert.positive_quadrature(conecert.integral_moments(d["n"], a, b), d["grid_size"])
    return {"nodes": rule.nodes, "weights": rule.weights}


def shape(d: dict) -> dict:
    problem = conecert.ShapeProblem(n=d["n"], r=d["r"], grid=d["grid"], target=conecert.LegendrePoly(d["target"]))
    return {"coeffs": conecert.project_shape(problem).solution.coeffs}


def cli(argv: list) -> dict:
    return {"rc": conecert.cli.run(argv)}


OPS = {
    "project_dual": project_dual,
    "project_generated": project_generated,
    "farkas": farkas,
    "quadrature": quadrature,
    "shape": shape,
    "cli": cli,
}
