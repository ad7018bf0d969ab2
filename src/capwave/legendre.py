"""Legendre polynomials, their derivatives, and Gauss-Legendre quadrature.

Everything downstream (kernel symbols, Gram matrices, quadrature grids)
reduces to evaluating P_n and integrating polynomials exactly, so this
module keeps those two jobs in one place.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

__all__ = ["legendre_all", "gauss_rule"]


def legendre_all(n_max: int, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate P_n, P_n' and P_n'' for all degrees n = 0..n_max.

    Parameters
    ----------
    n_max : int
        Highest degree, n_max >= 0.
    t : array_like
        Evaluation points in [-1, 1] (values slightly outside are not
        rejected; the recurrences remain valid polynomial evaluations).

    Returns
    -------
    (values, first, second) : three arrays of shape (n_max + 1,) + t.shape
        Row n holds P_n, P_n' and P_n'' at the points t.

    The three-term recurrence n P_n = (2n-1) t P_{n-1} - (n-1) P_{n-2}
    is differentiated once and twice to propagate the derivatives with
    the same coefficients.
    """
    p = _legendre_values(n_max, t)
    t = np.asarray(t, dtype=float)
    dp = np.empty_like(p)
    d2p = np.empty_like(p)
    dp[0] = 0.0
    d2p[0] = 0.0
    if n_max == 0:
        return p, dp, d2p
    dp[1] = 1.0
    d2p[1] = 0.0
    for n in range(2, n_max + 1):
        c1 = (2.0 * n - 1.0) / n
        c2 = (n - 1.0) / n
        dp[n] = c1 * (p[n - 1] + t * dp[n - 1]) - c2 * dp[n - 2]
        d2p[n] = c1 * (2.0 * dp[n - 1] + t * d2p[n - 1]) - c2 * d2p[n - 2]
    return p, dp, d2p


def _legendre_values(n_max: int, t) -> np.ndarray:
    """P_n for n = 0..n_max, shape (n_max + 1,) + t.shape; the rows of legendre_all."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    t = np.asarray(t, dtype=float)
    p = np.empty((n_max + 1,) + t.shape)
    p[0] = 1.0
    if n_max == 0:
        return p
    p[1] = t
    for n in range(2, n_max + 1):
        c1 = (2.0 * n - 1.0) / n
        c2 = (n - 1.0) / n
        p[n] = c1 * t * p[n - 1] - c2 * p[n - 2]
    return p


def gauss_rule(m: int, a: float = -1.0, b: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """m-point Gauss-Legendre rule on [a, b].

    Nodes are the roots of P_m found by Newton iteration from Chebyshev
    initial guesses (tolerance 1e-15, at most 100 iterations), then
    mirrored so the rule is exactly symmetric about the midpoint.
    Integrates polynomials of degree <= 2m - 1 exactly.

    Returns (nodes, weights) in ascending node order with
    sum(weights) == b - a up to rounding. Rules are memoized, so both
    arrays are read-only and shared between callers.
    """
    m = _as_index(m, "m")
    if m < 1:
        raise ValueError("m must be >= 1")
    a = float(a)
    b = float(b)
    if not np.isfinite(a) or not np.isfinite(b) or a >= b:
        raise ValueError("need finite a < b")
    return _gauss_rule(m, a, b)


def _as_index(value, name: str) -> int:
    """value as an int, or TypeError unless operator.index takes it: a
    float count, 3.5 or even 3.0, is rejected rather than cut to an int."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, not {value!r}") from None


@functools.lru_cache(maxsize=64)
def _gauss_rule(m: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    k = np.arange(1, m + 1, dtype=float)
    x = np.cos(np.pi * (k - 0.25) / (m + 0.5))
    for _ in range(100):
        pm, dpm = _legendre_with_derivative(m, x)
        dx = pm / dpm
        x -= dx
        if np.max(np.abs(dx)) < 1e-15:
            break

    # Enforce exact symmetry: x came out in descending order, so pair
    # each root with its mirror image and average.
    x = 0.5 * (x - x[::-1])
    if m % 2 == 1:
        x[m // 2] = 0.0
    _, dpm = _legendre_with_derivative(m, x)
    w = 2.0 / ((1.0 - x * x) * dpm * dpm)
    w = 0.5 * (w + w[::-1])

    order = np.argsort(x)
    x = x[order]
    w = w[order]

    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)
    nodes, weights = mid + half * x, half * w
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _legendre_with_derivative(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_m and P_m' at the points x via the standard recurrence."""
    p_prev = np.ones_like(x)
    if m == 0:
        return p_prev, np.zeros_like(x)
    p = x.copy()
    for n in range(2, m + 1):
        p_prev, p = p, ((2.0 * n - 1.0) * x * p - (n - 1.0) * p_prev) / n
    # (1 - x^2) P_m' = m (P_{m-1} - x P_m)
    dp = m * (p_prev - x * p) / (1.0 - x * x)
    return p, dp
