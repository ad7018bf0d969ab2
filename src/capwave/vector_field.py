"""Gradient-field reconstruction: vector basis functions, tensor kernels,
and the vector_* names of the chain.

The gradient of a harmonic potential restricted to a sphere splits into a
radial pattern (type 1, xi times a scalar harmonic) and a tangential
surface-gradient pattern (type 2). The coefficient container, whose data
is the (2, L) stack of one row per type in the scalar flat layout, its
synthesis, analysis and file format live in harmonics, where synthesize,
analyze, save_coefficients and load_coefficients serve both field kinds,
and the reconstruction chain in transforms serves both kinds too. This
module adds the basis functions, the optimizer front end and the
tensor-kernel diagnostics the localization analysis needs (kernel values,
Frobenius-profile moments). The vector_* chain functions are the
harmonics and transforms functions under their gradient-field names.
"""

from __future__ import annotations

import math

import numpy as np

from .harmonics import VectorCoefficients, synthesize
from .kernels import Geometry, KernelPair, PenaltyWeights, SymbolSet, optimize
from .legendre import legendre_all
from .transforms import (
    approximate,
    approximate_coefficients,
    field_samples,
    relative_error,
    scaling_transform,
    upward_continue,
    wavelet_transform_local,
)

__all__ = [
    "VectorCoefficients",
    "vsh",
    "vector_synthesize",
    "vector_field_samples",
    "vector_upward_continue",
    "vector_optimize",
    "vector_scaling_transform",
    "vector_wavelet_transform_local",
    "vector_approximate",
    "vector_approximate_coefficients",
    "vector_relative_error",
    "tensor_kernel_eval",
    "tensor_first_moment",
]


# ---------------------------------------------------------------------------
# basis functions


def vsh(i: int, n: int, k: int, xi) -> np.ndarray:
    """Vector spherical harmonic y^(i)_{n,k} at unit direction(s) xi.

    Type 1 is xi Y_{n,k}(xi); type 2 is the surface gradient of Y_{n,k}
    divided by sqrt(n(n+1)) and exists only for n >= 1. The toroidal third
    type carries no gradient-field content and is not provided.
    """
    if i not in (1, 2):
        raise ValueError("type i must be 1 or 2")
    if i == 2 and n == 0:
        raise ValueError("type 2 starts at degree 1")
    if n < 0:
        raise ValueError("degree n must be >= 0")
    if not (1 <= k <= 2 * n + 1):
        raise ValueError(f"order k={k} outside 1..{2 * n + 1}")
    single = VectorCoefficients(1.0, n)
    single.set_coeff(i, n, k, 1.0)
    return synthesize(single, xi)


# ---------------------------------------------------------------------------
# the optimizer front end


def vector_optimize(geometry: Geometry, w: PenaltyWeights,
                    targets: SymbolSet | None = None) -> KernelPair:
    """Unique minimizer of the tensor-kernel functional.

    The quadratic structure is identical to the scalar optimizer; the vector
    case enters through the derivative-weighted Gram matrix and the shifted
    damping exponent, both selected by geometry.case.
    """
    if geometry.case != "vector":
        raise ValueError("vector_optimize needs geometry.case == 'vector'")
    return optimize(geometry, w, targets)


# ---------------------------------------------------------------------------
# tensor-kernel diagnostics


def tensor_kernel_eval(symbols: SymbolSet, xi, eta) -> np.ndarray:
    """3x3 tensor kernel value at one direction pair, radius factors excluded.

    Sums sym(n) times the degree-n reproducing tensor of both types; the
    closed form uses only Legendre values and derivatives at t = xi.eta.
    """
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    t = float(np.clip(xi @ eta, -1.0, 1.0))
    p, dp, d2p = legendre_all(symbols.n_max, np.asarray(t))
    a = eta - t * xi
    b = xi - t * eta
    radial = np.outer(xi, eta)
    tang = np.eye(3) - np.outer(eta, eta) - np.outer(xi, b)
    out = symbols.values[0] / (4.0 * math.pi) * radial
    for n in range(1, symbols.n_max + 1):
        v = symbols.values[n]
        if v == 0.0:
            continue
        c = (2.0 * n + 1.0) * v / (4.0 * math.pi)
        out = out + c * (
            float(p[n]) * radial
            + (float(d2p[n]) * np.outer(a, b) + float(dp[n]) * tang)
            / (n * (n + 1.0))
        )
    return out


def tensor_first_moment(symbols: SymbolSet) -> float:
    """8 pi^2 r^4 times the first moment of the tensor Frobenius profile.

    The integral of t |K(t)|_F^2 over [-1, 1] reduces to neighbouring-degree
    products: only |n - m| = 1 pairs survive, each weighted by the channel
    overlap 1/2 for the radial-only degree 0 and
    1/2 + (n(n+1) + m(m+1) - 2)^2 / (8 n(n+1) m(m+1)) otherwise, times the
    Legendre moment 2(n+1) / ((2n+1)(2n+3)).
    """
    v = symbols.values
    total = 0.0
    for n in range(symbols.n_max):
        m = n + 1
        if n == 0:
            weight = 0.5
        else:
            a = n * (n + 1.0)
            b = m * (m + 1.0)
            weight = 0.5 + (a + b - 2.0) ** 2 / (8.0 * a * b)
        moment = 2.0 * (n + 1.0) / ((2.0 * n + 1.0) * (2.0 * n + 3.0))
        total += 2.0 * v[n] * v[m] * (2 * n + 1) * (2 * m + 1) * weight * moment
    return total


# ---------------------------------------------------------------------------
# the chain under its gradient-field names

vector_synthesize = synthesize
vector_field_samples = field_samples
vector_upward_continue = upward_continue
vector_wavelet_transform_local = wavelet_transform_local
vector_approximate_coefficients = approximate_coefficients
vector_approximate = approximate
vector_relative_error = relative_error


def vector_scaling_transform(pair: KernelPair, f1, points, *,
                             method: str = "spectral") -> np.ndarray:
    """scaling_transform. method names that path and accepts only
    "spectral"; it stays for callers that name it."""
    if method != "spectral":
        raise ValueError("method must be 'spectral', the only path")
    return scaling_transform(pair, f1, points)

