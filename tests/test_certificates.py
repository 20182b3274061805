"""Every ``*_certificate`` re-checks the result it is given and solves nothing.

One table pairs each solve with its certificate.  Each result is computed
first; then ``nnls``, ``as_vector`` and ``generator_matrix`` are replaced,
in every module that binds them, by a function that raises, and
``certificate(result)`` must still return a passing report: the
certificate reads the problem the result holds and neither solves nor
coerces.
"""

import importlib
import inspect

import numpy as np
import pytest

from conecert import (
    CertificateReport,
    LegendrePoly,
    ShapeProblem,
    chebyshev_points,
    farkas_alternative,
    generalized_farkas,
    integral_moments,
    positive_quadrature,
    positive_relative_test,
    project_dual,
    project_generated,
    project_shape,
    span_membership,
)
from conecert.cones import (cone_membership_certificate, dual_projection_certificate, generated_projection_certificate,
                            span_membership_certificate)
from conecert.farkas import farkas_certificate, implication_certificate
from conecert.quadrature import rule_certificate
from conecert.shape import shape_certificate

K = [[1.0, 0.5, -0.2], [1.2, -0.7, 0.3], [0.8, 0.1, 0.9], [1.5, 0.2, -0.6]]
X = [-1.0, 0.4, -0.3]
BOX = [([1.0, 0.0], 1.0), ([0.0, 1.0], 1.0), ([-1.0, 0.0], 1.0), ([0.0, -1.0], 1.0)]
SPEC = integral_moments(5, 0.0, 1.0)
SHAPE = ShapeProblem(n=4, r=1, grid=chebyshev_points(30), target=LegendrePoly(np.array([0.3, -1.0, 0.5, 0.2, -0.1])))

# name -> (solve, certificate)
RESULTS = {
    "cone_membership": (lambda: positive_relative_test(K, X), cone_membership_certificate),
    "span_membership": (lambda: span_membership(K, X), span_membership_certificate),
    "generated_projection": (lambda: project_generated(K, X), generated_projection_certificate),
    "dual_projection": (lambda: project_dual(K, X), dual_projection_certificate),
    "dual_projection_witness": (lambda: project_dual(K, X, witness_e=[1.0, 0.0, 0.0]), dual_projection_certificate),
    "farkas": (lambda: farkas_alternative(K, X), farkas_certificate),
    "implication": (lambda: generalized_farkas(BOX, [1.0, 1.0], 3.0), implication_certificate),
    "rule": (lambda: positive_quadrature(SPEC, 48), rule_certificate),
    "shape": (lambda: project_shape(SHAPE), shape_certificate),
}

# inputs where a product is divided by a zero length or a threshold is 0:
# a zero generator, an empty K, x = 0 (b = 0 for the Farkas system)
EDGES = {
    "zero_generator": (K + [[0.0, 0.0, 0.0]], X),
    "empty_K": (np.zeros((0, 3)), X),
    "x_zero": (K, [0.0, 0.0, 0.0]),
    "zero_generator_x_zero": (K + [[0.0, 0.0, 0.0]], [0.0, 0.0, 0.0]),
}
for edge, (gens, x) in EDGES.items():
    RESULTS.update({
        f"cone_membership-{edge}": (lambda g=gens, x=x: positive_relative_test(g, x), cone_membership_certificate),
        f"span_membership-{edge}": (lambda g=gens, x=x: span_membership(g, x), span_membership_certificate),
        f"generated_projection-{edge}": (lambda g=gens, x=x: project_generated(g, x), generated_projection_certificate),
        f"dual_projection-{edge}": (lambda g=gens, x=x: project_dual(g, x), dual_projection_certificate),
        f"farkas-{edge}": (lambda g=gens, x=x: farkas_alternative(np.reshape(g, (-1, 3)), x), farkas_certificate),
    })


def _no_solve(*args, **kwargs):
    raise AssertionError("a certificate called the solver or a coercion")


@pytest.mark.parametrize("name", list(RESULTS))
def test_certificate_does_not_solve(monkeypatch, name):
    solve, certificate = RESULTS[name]
    result = solve()
    for module in ("linalg", "cones", "farkas", "quadrature", "shape"):
        mod = importlib.import_module(f"conecert.{module}")
        for function in ("nnls", "as_vector", "generator_matrix"):
            if hasattr(mod, function):
                monkeypatch.setattr(mod, function, _no_solve)
    assert certificate(result).passed


@pytest.mark.parametrize("module", ["cones", "farkas", "quadrature", "shape"])
def test_every_certificate_takes_result_and_tol(module):
    mod = importlib.import_module(f"conecert.{module}")
    certificates = [f for name, f in vars(mod).items() if name.endswith("_certificate") and f.__module__ == mod.__name__]
    assert certificates
    for certificate in certificates:
        assert list(inspect.signature(certificate).parameters) == ["result", "tol"], certificate.__name__


def test_report_lookup_of_an_absent_check():
    report = CertificateReport()
    report.add("present", 0.0, 0.0)
    assert report["present"].passed
    with pytest.raises(KeyError):
        report["absent"]


@pytest.mark.parametrize("residual, threshold, passed", [(0.0, 0.0, True), (1.0, 1.0, True), (1.0, 0.5, False), (np.nan, 1.0, False)])
def test_add_judges_residual_against_threshold(residual, threshold, passed):
    report = CertificateReport()
    report.add("check", residual, threshold)
    assert report["check"].passed is passed


@pytest.mark.parametrize("margin, residual, passed", [(2.0, 0.0, True), (0.0, 0.0, False), (-3.0, 3.0, False)])
def test_add_margin_passes_only_a_positive_margin(margin, residual, passed):
    report = CertificateReport()
    report.add_margin("check", margin)
    assert (report["check"].residual, report["check"].passed) == (residual, passed)


@pytest.mark.parametrize(
    "solve, certificate",
    [
        (project_generated, generated_projection_certificate),
        (project_dual, dual_projection_certificate),
        (positive_relative_test, cone_membership_certificate),
        (span_membership, span_membership_certificate),
        (farkas_alternative, farkas_certificate),
    ],
)
def test_result_does_not_alias_the_callers_arrays(solve, certificate):
    K_array, x = np.array(K), np.array(X)
    result = solve(K_array, x)

    def observed():
        residuals = [getattr(result, name) for name in ("kkt_residual", "orthogonality_residual", "verification") if hasattr(result, name)]
        return [(c.name, c.residual, c.passed) for c in certificate(result).checks], residuals

    before = observed()
    K_array[:] = 7.0
    x[:] = 5.0
    assert observed() == before
