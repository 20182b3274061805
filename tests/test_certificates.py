"""Every ``*_certificate`` re-checks the result it is given and solves nothing.

Each result is computed first; then ``nnls`` is replaced, in every module
that binds it, by a function that raises, and each certificate must
still return a passing report.
"""

import importlib

import numpy as np
import pytest

from conecert import (
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
from conecert.cones import cone_membership_certificate, dual_projection_certificate, generated_projection_certificate
from conecert.farkas import farkas_certificate, implication_certificate
from conecert.linalg import span_membership_certificate
from conecert.quadrature import rule_certificate
from conecert.shape import shape_certificate

K = [[1.0, 0.5, -0.2], [1.2, -0.7, 0.3], [0.8, 0.1, 0.9], [1.5, 0.2, -0.6]]
X = [-1.0, 0.4, -0.3]
BOX = [([1.0, 0.0], 1.0), ([0.0, 1.0], 1.0), ([-1.0, 0.0], 1.0), ([0.0, -1.0], 1.0)]
SPEC = integral_moments(5, 0.0, 1.0)
SHAPE = ShapeProblem(n=4, r=1, grid=chebyshev_points(30), target=LegendrePoly(np.array([0.3, -1.0, 0.5, 0.2, -0.1])))


def _certificates() -> dict:
    """Each certificate's call, on a result already computed."""
    member = positive_relative_test(K, X)
    span = span_membership(X, K)
    gen = project_generated(K, X)
    dual = project_dual(K, X)
    farkas = farkas_alternative(K, X)
    pairs = generalized_farkas(BOX, [1.0, 1.0], 3.0)
    rule = positive_quadrature(SPEC, 48)
    shape = project_shape(SHAPE)
    return {
        "cone_membership": lambda: cone_membership_certificate(K, X, member),
        "span_membership": lambda: span_membership_certificate(X, K, span),
        "generated_projection": lambda: generated_projection_certificate(K, X, gen),
        "dual_projection": lambda: dual_projection_certificate(K, X, dual),
        "farkas": lambda: farkas_certificate(K, X, farkas),
        "implication": lambda: implication_certificate(BOX, [1.0, 1.0], pairs),
        "rule": lambda: rule_certificate(SPEC, rule),
        "shape": lambda: shape_certificate(SHAPE, shape),
    }


def _no_solve(*args, **kwargs):
    raise AssertionError("a certificate called the solver")


@pytest.mark.parametrize(
    "name",
    ["cone_membership", "span_membership", "generated_projection", "dual_projection", "farkas", "implication", "rule", "shape"],
)
def test_certificate_does_not_solve(monkeypatch, name):
    certify = _certificates()[name]
    for module in ("linalg", "cones", "farkas", "quadrature", "shape"):
        mod = importlib.import_module(f"conecert.{module}")
        if hasattr(mod, "nnls"):
            monkeypatch.setattr(mod, "nnls", _no_solve)
    assert certify().passed
