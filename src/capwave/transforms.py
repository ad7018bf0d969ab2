"""Field-level operators of the two-step reconstruction.

The chain is: upward continuation relates the inner-sphere truth to
outer-sphere data; the scaling transform brings (noisy) outer-sphere data
back down in a regularized way; the wavelet transform refines the result
using (noisy) ground data integrated over spherical caps only; their sum is
the combined approximation whose error is measured on the eroded evaluation
region where every integration cap stays inside the data cap.

Scalar fields only; the gradient-field analogues live in vector_field.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .harmonics import (
    CapGrid,
    HarmonicCoefficients,
    SphereGrid,
    _as_directions,
    cap_grid,
    sphere_grid,
    synthesize,
    analyze,
)
from .kernels import KernelPair
from .legendre import gauss_rule, legendre_all

__all__ = [
    "RegionSpec",
    "NoiseSpec",
    "FieldSamples",
    "default_region",
    "field_samples",
    "upward_continue",
    "scaling_transform",
    "wavelet_multipliers",
    "wavelet_transform_local",
    "approximate",
    "approximate_coefficients",
    "add_noise",
    "relative_error",
]


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class RegionSpec:
    """Data cap, integration cap radius, and the derived evaluation region.

    data_rho is the radius (in t units, 1 - cos of the angular radius) of
    the cap carrying ground data; kernel_rho the radius of the caps the
    wavelet transform integrates over. Evaluation happens on the eroded cap
    of radius data_rho - kernel_rho about the same center, so integration
    caps around evaluation points stay within the data region. data_rho = 2
    means global ground coverage; then every point qualifies and the
    evaluation region is the whole sphere too.
    """

    center: tuple
    data_rho: float
    kernel_rho: float

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        norm = np.linalg.norm(c)
        if norm == 0:
            raise ValueError("center must be a nonzero direction")
        object.__setattr__(self, "center", tuple(c / norm))
        if not (0.0 < self.kernel_rho <= 2.0):
            raise ValueError("kernel_rho must lie in (0, 2]")
        if not (0.0 < self.data_rho <= 2.0):
            raise ValueError("data_rho must lie in (0, 2]")
        if self.data_rho < 2.0 and self.data_rho - self.kernel_rho <= 0.0:
            raise ValueError("need data_rho > kernel_rho (or data_rho = 2)")

    @property
    def center_direction(self) -> np.ndarray:
        return np.asarray(self.center, dtype=float)

    @property
    def eval_rho(self) -> float:
        """Radius of the evaluation region (2 for global data coverage)."""
        if self.data_rho >= 2.0:
            return 2.0
        return self.data_rho - self.kernel_rho

    def contains(self, x, tol: float = 1e-9) -> bool:
        """Whether the unit direction x lies in the evaluation region."""
        if self.eval_rho >= 2.0:
            return True
        d = 1.0 - float(np.asarray(x, dtype=float) @ self.center_direction)
        return d <= self.eval_rho + tol

    def eval_grid(self, radius: float, exact_degree: int) -> CapGrid:
        """Quadrature rule on the evaluation region."""
        return cap_grid(radius, self.center_direction, self.eval_rho, exact_degree)

    def data_grid(self, radius: float, exact_degree: int) -> CapGrid:
        """Quadrature rule on the data region."""
        return cap_grid(radius, self.center_direction, self.data_rho, exact_degree)


def default_region(center, kernel_rho: float) -> RegionSpec:
    """Region with the shipped margin: data cap 0.1 wider than the kernel cap."""
    data_rho = min(kernel_rho + 0.1, 2.0)
    return RegionSpec(tuple(np.asarray(center, dtype=float)), data_rho, kernel_rho)


@dataclass(frozen=True)
class NoiseSpec:
    """Noise levels, bandlimit of the noise, and the deterministic seed.

    epsilon1 scales the outer-sphere noise, epsilon2 the ground noise. The
    noise field has i.i.d. standard normal coefficients up to noise_degree,
    rescaled so its norm over the relevant region matches the signal's.
    """

    epsilon1: float
    epsilon2: float
    noise_degree: int = 110
    seed: int = 0

    def __post_init__(self):
        if self.epsilon1 < 0 or self.epsilon2 < 0:
            raise ValueError("noise levels must be nonnegative")
        if self.noise_degree < 0:
            raise ValueError("noise_degree must be >= 0")


@dataclass
class FieldSamples:
    """Point samples of a bandlimited field on a full-sphere rule.

    degree declares the bandlimit of the sampled field so exactness
    preconditions can be checked; the caller is the authority on it.
    """

    grid: SphereGrid
    values: np.ndarray
    degree: int

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_nodes,):
            raise ValueError("values must match the grid node count")
        if self.degree < 0:
            raise ValueError("degree must be >= 0")


def field_samples(coeffs: HarmonicCoefficients, exact_degree: int) -> FieldSamples:
    """Sample a coefficient field on a fresh grid of the stated exactness."""
    grid = sphere_grid(coeffs.radius, exact_degree)
    return FieldSamples(grid, synthesize(coeffs, grid), coeffs.n_max)


# ---------------------------------------------------------------------------
# continuation and transforms


def upward_continue(u_plus: HarmonicCoefficients, R: float) -> HarmonicCoefficients:
    """Potential-field coefficients on the sphere of radius R > r.

    Degree n is damped by sigma_n = (r/R)^n under the orthonormal-basis
    normalization used throughout.
    """
    r = u_plus.radius
    if R <= r:
        raise ValueError("upward continuation needs R > r")
    n = np.arange(u_plus.n_max + 1, dtype=float)
    return u_plus.scaled_by_degree((r / R) ** n, radius=R)


def _outer_coefficients(f1, n_keep: int) -> HarmonicCoefficients:
    """Outer-sphere data as coefficients, analyzed first if given as samples.

    Only the scaling part reads them, and it keeps degrees <= n_keep, so
    samples are analyzed to n = min(n_keep, f1.degree) and the higher
    degrees of the declared f1.degree are left zero. Products of the field
    with those harmonics reach degree n + f1.degree, which the grid must
    integrate exactly.
    """
    if isinstance(f1, HarmonicCoefficients):
        return f1
    if not isinstance(f1, FieldSamples):
        raise TypeError("f1 must be FieldSamples or HarmonicCoefficients")
    n = min(n_keep, f1.degree)
    if f1.grid.exact_degree < n + f1.degree:
        raise ValueError(
            "outer analysis needs grid exactness >= min(N, degree) + degree "
            f"({f1.grid.exact_degree} < {n + f1.degree})"
        )
    out = HarmonicCoefficients(f1.grid.radius, f1.degree)
    kept = analyze(f1.values, f1.grid, n)
    out.data[: kept.data.size] = kept.data
    return out


def scaling_transform(pair: KernelPair, f1, points) -> np.ndarray:
    """Regularized downward continuation of outer-sphere data.

    f1 is either FieldSamples on a grid at radius R (the native input) or
    HarmonicCoefficients at R. The coefficients of degree n <= N are
    multiplied by the scaling symbols phi(n), which for bandlimited data
    equals integrating the zonal scaling kernel against the samples (the
    node-wise form the tests keep as their oracle).
    """
    out = _scaling_spectral_coefficients(pair, _outer_coefficients(f1, pair.geometry.N))
    return synthesize(out, points)


def _scaling_spectral_coefficients(pair: KernelPair,
                                   f1: HarmonicCoefficients) -> HarmonicCoefficients:
    """Coefficient-space action of the scaling transform, output at radius r."""
    g = pair.geometry
    n_keep = min(g.N, f1.n_max)
    factors = np.zeros(f1.n_max + 1)
    factors[: n_keep + 1] = pair.phi.values[: n_keep + 1]
    out = f1.scaled_by_degree(factors, radius=g.r)
    return out


@functools.lru_cache(maxsize=8)
def _cap_rule(kN: int, n_max: int, kernel_rho: float) -> tuple[np.ndarray, ...]:
    """(t, w, p, dp, d2p): the Gauss rule on [1 - kernel_rho, 1] exact for
    degree kN + n_max and legendre_all to max(kN, n_max) at its nodes.

    The cap multipliers of every kernel pair with wavelet band kN, scalar
    (wavelet_multipliers) and vector (vector_field's type 2), integrate
    against these rows, so they are built once per (kN, n_max, kernel_rho)
    and shared read-only.
    """
    t, w = gauss_rule((kN + n_max) // 2 + 1, 1.0 - kernel_rho, 1.0)
    rule = (t, w) + legendre_all(max(kN, n_max), t)
    for arr in rule[2:]:
        arr.flags.writeable = False
    return rule


def wavelet_multipliers(pair: KernelPair, kernel_rho: float, n_max: int) -> np.ndarray:
    """Degree-wise action of the cap-restricted wavelet convolution.

    For a field bandlimited to n_max, integrating the zonal wavelet kernel
    over a cap of radius kernel_rho multiplies the coefficient of degree n
    by lambda_n = 2 pi * integral over [1-kernel_rho, 1] of the kernel
    profile times P_n. The 1-D rule of _cap_rule is exact for the
    polynomial integrand, so for bandlimited data the multipliers equal
    the node-wise cap integral.
    """
    g = pair.geometry
    _, w, rows, _, _ = _cap_rule(g.kN, n_max, kernel_rho)
    j = np.arange(g.kN + 1, dtype=float)
    prof = ((j + 0.5) * pair.psi_tilde.values) @ rows[: g.kN + 1]
    return rows[: n_max + 1] @ (w * prof)


def wavelet_transform_local(pair: KernelPair, f2: HarmonicCoefficients, x,
                            region: RegionSpec) -> float:
    """Wavelet refinement at one evaluation point from cap-local ground data.

    Integrates the wavelet kernel against the field over the cap of radius
    region.kernel_rho around x, as the degree-wise wavelet_multipliers.
    Points outside the evaluation region are rejected: their caps would
    leave the data region.
    """
    _check_evaluation(pair, region, x)
    lam = wavelet_multipliers(pair, region.kernel_rho, f2.n_max)
    return float(synthesize(f2.scaled_by_degree(lam), x))


def _check_evaluation(pair: KernelPair, region: RegionSpec, points) -> None:
    """Reject integration caps wider than the kernel's cap, and points
    outside the evaluation region (within 1e-9 in t units)."""
    if region.kernel_rho > pair.geometry.rho + 1e-12:
        raise ValueError("region.kernel_rho exceeds the geometry's cap radius")
    if region.eval_rho < 2.0:
        pts = _as_directions(points)
        dist = 1.0 - pts @ region.center_direction / np.linalg.norm(pts, axis=-1)
        if np.any(dist > region.eval_rho + 1e-9):
            raise ValueError("an evaluation point lies outside the evaluation region")


def approximate_coefficients(pair: KernelPair, f1, f2: HarmonicCoefficients,
                             region: RegionSpec) -> HarmonicCoefficients:
    """Coefficient field of the combined approximation.

    The scaling part contributes phi(n) times the outer-data coefficients
    for n <= N; the wavelet part contributes lambda_n times the ground-data
    coefficients, with lambda_n the cap-restricted wavelet multipliers.
    Exact for bandlimited data. f1 may be FieldSamples (analyzed first,
    needing grid exactness >= min(N, degree) + degree) or
    HarmonicCoefficients at R.
    """
    f1 = _outer_coefficients(f1, pair.geometry.N)
    lam = wavelet_multipliers(pair, region.kernel_rho, f2.n_max)
    return _assemble(pair, f1, f2, lam)


def _assemble(pair: KernelPair, f1: HarmonicCoefficients,
             f2: HarmonicCoefficients, lam: np.ndarray) -> HarmonicCoefficients:
    """Scaling part of f1 plus f2 times the wavelet multipliers lam.

    lam must be wavelet_multipliers(pair, kernel_rho, f2.n_max); callers
    that combine many data sets with one pair compute it once.
    """
    g = pair.geometry
    t_part = _scaling_spectral_coefficients(pair, f1)
    w_part = f2.scaled_by_degree(lam)
    n_out = max(t_part.n_max, w_part.n_max)
    out = HarmonicCoefficients(g.r, n_out)
    out.data[: t_part.data.size] += t_part.data
    out.data[: w_part.data.size] += w_part.data
    return out


def approximate(pair: KernelPair, f1, f2: HarmonicCoefficients,
                region: RegionSpec, points) -> np.ndarray:
    """Combined two-step approximation at the given points.

    Sum of the regularized downward continuation of the outer-sphere data
    and the cap-local wavelet refinement of the ground data: the field of
    approximate_coefficients, synthesized at the points. Exact for
    bandlimited data.
    """
    _check_evaluation(pair, region, points)
    return synthesize(approximate_coefficients(pair, f1, f2, region), points)


# ---------------------------------------------------------------------------
# noise and error metrics


def _noise_generator(seed: int, field_index: int) -> np.random.Generator:
    """Counter-based stream keyed by (seed, field index): stable across runs."""
    return np.random.Generator(np.random.Philox(key=[seed, field_index]))


def add_noise(coeffs: HarmonicCoefficients, spec: NoiseSpec,
              norm_region) -> HarmonicCoefficients:
    """Signal plus epsilon times a norm-matched bandlimited noise field.

    norm_region selects both the matching norm and the noise level:
    "sphere" uses epsilon1 and the full-sphere L2 norm (outer data);
    a RegionSpec uses epsilon2 and the L2 norm over its data cap
    (ground data). The noise field is reproducible per (seed, region kind).
    """
    if norm_region == "sphere":
        eps = spec.epsilon1
        field_index = 0
    elif isinstance(norm_region, RegionSpec):
        eps = spec.epsilon2
        field_index = 1
    else:
        raise ValueError("norm_region must be 'sphere' or a RegionSpec")
    if eps == 0.0:
        return coeffs.copy()

    gen = _noise_generator(spec.seed, field_index)
    raw = gen.standard_normal((spec.noise_degree + 1) ** 2)
    noise = HarmonicCoefficients(coeffs.radius, spec.noise_degree, raw)

    if norm_region == "sphere":
        signal_norm = coeffs.l2_norm()
        noise_norm = noise.l2_norm()
    else:
        degree = max(coeffs.n_max, spec.noise_degree)
        grid = norm_region.data_grid(coeffs.radius, 2 * degree)
        f_vals = synthesize(coeffs, grid)
        e_vals = synthesize(noise, grid)
        signal_norm = math.sqrt(grid.integrate(f_vals * f_vals))
        noise_norm = math.sqrt(grid.integrate(e_vals * e_vals))
    if noise_norm == 0.0:
        raise ValueError("degenerate noise draw with zero norm")

    scale = eps * signal_norm / noise_norm
    n_out = max(coeffs.n_max, spec.noise_degree)
    out = HarmonicCoefficients(coeffs.radius, n_out)
    out.data[: coeffs.data.size] += coeffs.data
    out.data[: noise.data.size] += scale * noise.data
    return out


def relative_error(u_ref: HarmonicCoefficients, u_approx: HarmonicCoefficients,
                   region: RegionSpec) -> float:
    """L2 error over the evaluation region, relative to the reference norm."""
    if u_ref.radius != u_approx.radius:
        raise ValueError("fields must live on the same sphere")
    degree = max(u_ref.n_max, u_approx.n_max)
    grid = region.eval_grid(u_ref.radius, 2 * degree)
    ref_vals = synthesize(u_ref, grid)
    diff = synthesize(u_approx, grid) - ref_vals
    den = grid.integrate(ref_vals * ref_vals)
    if den <= 0.0 or not np.isfinite(den):
        raise ValueError("reference field is zero on the evaluation region")
    return math.sqrt(grid.integrate(diff * diff) / den)
