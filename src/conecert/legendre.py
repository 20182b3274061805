"""Orthonormal Legendre basis on [-1, 1].

Values and derivatives come from the three-term recurrence and its
differentiated form; differentiation in coefficient space uses the
classic expansion of P'_j over lower-degree polynomials.  The first few
members are sqrt(2)/2, sqrt(6)/2 t, sqrt(10)/4 (3t^2 - 1), ...
"""

from __future__ import annotations

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
        n = self.n
        # P[k, s] = s-th derivative of the classic polynomial P_k at ts
        P = np.zeros((n + 1, r + 1, ts.size))
        P[0, 0] = 1.0
        if n >= 1:
            P[1, 0] = ts
            if r >= 1:
                P[1, 1] = 1.0
        # the recurrence differentiated s times, for all orders at once:
        # (k + 1) P_{k+1}^(s) = (2k + 1) (t P_k^(s) + s P_k^(s-1)) - k P_{k-1}^(s)
        orders = np.arange(1, r + 1)[:, None]
        for k in range(1, n):
            term = ts * P[k]
            if r:
                term[1:] += orders * P[k, :-1]
            term *= 2 * k + 1
            term -= k * P[k - 1]
            np.divide(term, k + 1, out=P[k + 1])
        vals = self.norms[:, None] * P[:, r]
        return vals[:, 0] if scalar else vals


def derivative_matrix(n: int, r: int) -> np.ndarray:
    """Matrix of r-fold differentiation in orthonormal Legendre coordinates.

    Applied to the coefficients of p it yields the coefficients of
    p^(r); rows of degree above n - r are zero.
    """
    if not 0 <= r <= n:
        raise ValueError("need 0 <= r <= n")
    norms = np.sqrt((2 * np.arange(n + 1) + 1) / 2.0)
    D1 = np.zeros((n + 1, n + 1))
    for j in range(1, n + 1):
        for k in range(j - 1, -1, -2):
            D1[k, j] = (2 * k + 1) * norms[j] / norms[k]
    D = np.eye(n + 1)
    for _ in range(r):
        D = D1 @ D
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
