"""Orthonormal Legendre basis p_k = sqrt((2k + 1) / 2) P_k on [-1, 1].

The first members are sqrt(2)/2, sqrt(6)/2 t, sqrt(10)/4 (3t^2 - 1), ...
Derivative values come from the Gegenbauer identity
P_k^(r) = (2r - 1)!! C_{k-r}^(r+1/2) and the Gegenbauer recurrence (NIST
DLMF 18.9.19 and 18.9.1), which is Legendre's own at r = 0.  Coefficient-space
differentiation is numpy's `legder`.
"""

from __future__ import annotations

import math

import numpy as np


class LegendreBasis:
    """Evaluators for the orthonormal basis p_0..p_n and its derivatives."""

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("degree bound must be nonnegative")
        self.n = int(n)
        k = np.arange(self.n + 1)
        self.norms = np.sqrt((2 * k + 1) / 2.0)

    def values(self, t, r: int = 0) -> np.ndarray:
        """Evaluate p_k^(r) for k = 0..n.

        Returns shape (n+1,) for scalar t and (n+1, len(t)) otherwise.
        """
        if r < 0:
            raise ValueError("derivative order must be nonnegative")
        scalar = np.isscalar(t) or np.ndim(t) == 0
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        # P[k] = P_k^(r)(ts) = (2r - 1)!! C_{k-r}(ts), with C_j = C_j^(r+1/2) and P_k^(r) = 0 below k = r
        P = np.zeros((self.n + 1, ts.size))
        # the first two rows, C_0 and C_1 = (2r + 1) t C_0; the slices are empty past n
        P[r : r + 1] = math.prod(range(1, 2 * r, 2))
        P[r + 1 : r + 2] = math.prod(range(1, 2 * r + 2, 2)) * ts
        # j C_j = (2j + 2r - 1) t C_{j-1} - (j + 2r - 1) C_{j-2} at j = k - r
        for k in range(r + 2, self.n + 1):
            term = ts * P[k - 1]
            term *= 2 * k - 1
            term -= (k + r - 1) * P[k - 2]
            np.divide(term, k - r, out=P[k])
        vals = self.norms[:, None] * P
        return vals[:, 0] if scalar else vals


def derivative_matrix(n: int, r: int) -> np.ndarray:
    """Matrix of r-fold differentiation in orthonormal Legendre coordinates.

    Applied to the coefficients of p it yields the coefficients of
    p^(r); rows of degree above n - r are zero.
    """
    if not 0 <= r <= n:
        raise ValueError("need 0 <= r <= n")
    norms = np.sqrt((2 * np.arange(n + 1) + 1) / 2.0)
    D = np.zeros((n + 1, n + 1))
    D[: n + 1 - r] = np.polynomial.legendre.legder(np.diag(norms), r) / norms[: n + 1 - r, None]
    return D


def chebyshev_points(count: int, a: float = -1.0, b: float = 1.0) -> np.ndarray:
    """Chebyshev-Lobatto points on [a, b]: endpoint-clustered, endpoints included.

    The end nodes are exactly a and b; the affine map alone can round them
    one ulp outside the interval.
    """
    if count < 1:
        raise ValueError("count must be positive")
    if count == 1:
        return np.array([0.5 * (a + b)])
    u = -np.cos(np.pi * np.arange(count) / (count - 1))
    points = 0.5 * (a + b) + 0.5 * (b - a) * u
    points[0], points[-1] = a, b
    return points


def monomial_to_legendre(coeffs) -> np.ndarray:
    """Power-series coefficients (ascending) to orthonormal Legendre coordinates."""
    c = np.atleast_1d(np.asarray(coeffs, dtype=float))
    leg = np.polynomial.legendre.poly2leg(c)
    k = np.arange(leg.size)
    return leg * np.sqrt(2.0 / (2 * k + 1))


def legendre_to_monomial(coeffs) -> np.ndarray:
    """Orthonormal Legendre coordinates to power-series coefficients (ascending)."""
    a = np.atleast_1d(np.asarray(coeffs, dtype=float))
    k = np.arange(a.size)
    return np.polynomial.legendre.leg2poly(a * np.sqrt((2 * k + 1) / 2.0))
