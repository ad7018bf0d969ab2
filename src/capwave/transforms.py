"""Field-level operators of the two-step reconstruction.

The chain is: upward continuation relates the inner-sphere truth to
outer-sphere data; the scaling transform brings (noisy) outer-sphere data
back down in a regularized way; the wavelet transform refines the result
using (noisy) ground data integrated over spherical caps only; their sum is
the combined approximation whose error is measured on the eroded evaluation
region where every integration cap stays inside the data cap.

One chain serves scalar potentials and gradient fields alike. Each field
names its kind in its case attribute, which must match the kernel pair's
geometry.case. Only three things follow from the kind: the sigma_n
exponent (kernels._sigma_exponents), the type-2 cap multiplier of a
gradient field, and two more degrees of quadrature exactness, since the
vector basis components carry one polynomial degree more.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .harmonics import (
    CapGrid,
    HarmonicCoefficients,
    SphereGrid,
    VectorCoefficients,
    _as_directions,
    _cap_norms,
    _kept_cap_norm,
    _padded,
    _per_coefficient,
    _unit_directions,
    cap_grid,
    sphere_grid,
    synthesize,
    analyze,
)
from .kernels import KernelPair, _sigma_exponents
from .legendre import _as_index, gauss_rule, legendre_all

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
    "relative_errors",
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
        if norm == 0 or not np.isfinite(norm):
            raise ValueError("center must be a finite nonzero direction")
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
        """Whether the direction of x, a finite nonzero 3-vector of any
        length, lies in the evaluation region (within tol in t units)."""
        (d,) = self._distances(x)
        return self.eval_rho >= 2.0 or bool(d <= self.eval_rho + tol)

    def _distances(self, points) -> np.ndarray:
        """1 - x.center / |x| of each 3-vector x in points, its direction's
        distance from the centre in t units; ValueError unless every point
        is a finite nonzero 3-vector."""
        return 1.0 - _unit_directions(points) @ self.center_direction

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

    epsilon1 scales the outer-sphere noise, epsilon2 the ground noise;
    both must be finite and nonnegative. The noise field is of the
    signal's kind, with i.i.d. standard normal coefficients up to
    noise_degree (both types of a gradient field, type 2 from degree 1),
    rescaled so its norm over the relevant region matches the signal's.
    """

    epsilon1: float
    epsilon2: float
    noise_degree: int = 110
    seed: int = 0

    def __post_init__(self):
        if not (0 <= self.epsilon1 < math.inf and 0 <= self.epsilon2 < math.inf):
            raise ValueError("noise levels must be finite and nonnegative")
        noise_degree = _as_index(self.noise_degree, "noise_degree")
        seed = _as_index(self.seed, "seed")
        if noise_degree < 0:
            raise ValueError("noise_degree must be >= 0")
        if not 0 <= seed < 2 ** 64:
            raise ValueError("seed must lie in [0, 2^64)")
        object.__setattr__(self, "noise_degree", noise_degree)
        object.__setattr__(self, "seed", seed)


@dataclass(frozen=True, eq=False)
class FieldSamples:
    """Point samples of a bandlimited field on a full-sphere rule.

    values holds one value per node, shape (P,), for a scalar field, or one
    Cartesian 3-vector per node, shape (P, 3), for a gradient field; case
    names the kind that shape gives, as the coefficient containers do.
    degree declares the bandlimit of the sampled field so exactness
    preconditions can be checked; the caller is the authority on it.

    Samples are immutable: values is a private read-only copy, so the
    caller's array stays writeable and later writes to it do not reach the
    samples, and the arrays of a sphere_grid are read-only too. A sample
    set therefore keeps the result of its outer analysis
    (_outer_coefficients): one entry, for the last kept degree asked.
    """

    grid: SphereGrid
    values: np.ndarray
    degree: int
    _outer: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.grid, SphereGrid):
            raise TypeError("samples need a SphereGrid (a full-sphere rule), "
                            f"not a {type(self.grid).__name__}")
        degree = _as_index(self.degree, "degree")
        if degree < 0:
            raise ValueError("degree must be >= 0")
        values = np.array(self.values, dtype=float)
        n = self.grid.n_nodes
        if values.shape not in ((n,), (n, 3)):
            raise ValueError(f"values must have shape ({n},) or ({n}, 3), one per grid node")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "degree", degree)

    @property
    def case(self) -> str:
        return "vector" if self.values.ndim == 2 else "scalar"


def field_samples(coeffs, exact_degree: int) -> FieldSamples:
    """Sample a coefficient field on the sphere_grid of the stated exactness."""
    grid = sphere_grid(coeffs.radius, exact_degree)
    return FieldSamples(grid, synthesize(coeffs, grid), coeffs.n_max)


def _extra_exactness(field) -> int:
    """Quadrature exactness a gradient field needs beyond a scalar one: its
    basis components carry one polynomial degree more, products two."""
    return 2 if field.case == "vector" else 0


def _check_data(pair: KernelPair, field, outer: bool) -> None:
    """Reject data of another kind than the kernel pair was built for, or
    off the sphere the pair expects it on: outer data f1 at R, ground data
    f2 at r (within 1e-9 relative, as build_model checks a model file)."""
    g = pair.geometry
    if field.case != g.case:
        raise ValueError(f"a {field.case} field needs a kernel pair with "
                         f"geometry.case == {field.case!r}, not {g.case!r}")
    name, symbol, radius = ("outer data f1", "R", g.R) if outer else ("ground data f2", "r", g.r)
    if not math.isclose(field.radius, radius, rel_tol=1e-9):
        raise ValueError(f"{name} must lie at {symbol} = {radius:.17g}, "
                         f"not at radius {field.radius:.17g}")


# ---------------------------------------------------------------------------
# continuation and transforms


def upward_continue(u_plus, R: float):
    """Field coefficients on the sphere of finite radius R > r.

    Degree n is damped by sigma_n = (r/R)^n under the orthonormal-basis
    normalization used throughout; both types of a gradient field by
    (r/R)^(n+1), since the potential is differentiated before restricting.
    """
    r = u_plus.radius
    if not r < R < math.inf:
        raise ValueError("upward continuation needs R > r, and R finite")
    sigmas = (r / R) ** _sigma_exponents(u_plus.case, u_plus.n_max)
    return u_plus.scaled_by_degree(sigmas, radius=R)


def _outer_coefficients(f1, n_keep: int):
    """Outer-sphere data as coefficients, analyzed first if given as samples.

    Only the scaling part reads them, and it keeps degrees <= n_keep, so
    samples are analyzed to n = min(n_keep, f1.degree) and the higher
    degrees of the declared f1.degree are left zero. Products of the field
    with those basis functions reach degree n + f1.degree (+ 2 for
    gradient fields), which the grid must integrate exactly.

    Samples are immutable, so each set keeps its analysis to the last n
    asked, with read-only data, and analyzes again only for another n,
    which then replaces it. Callers build new containers from it and never
    write into it.
    """
    if isinstance(f1, (HarmonicCoefficients, VectorCoefficients)):
        return f1
    if not isinstance(f1, FieldSamples):
        raise TypeError("f1 must be FieldSamples or coefficients")
    n = min(n_keep, f1.degree)
    if f1._outer is not None and f1._outer[0] == n:
        return f1._outer[1]
    need = n + f1.degree + _extra_exactness(f1)
    if f1.grid.exact_degree < need:
        raise ValueError(
            "outer analysis needs grid exactness >= min(N, degree) + degree "
            f"(+ 2 for gradient fields): {f1.grid.exact_degree} < {need}"
        )
    kept = analyze(f1.values, f1.grid, n)
    out = type(kept)(f1.grid.radius, f1.degree, _padded(kept.data, f1.degree))
    out.data.flags.writeable = False
    object.__setattr__(f1, "_outer", (n, out))
    return out


def scaling_transform(pair: KernelPair, f1, points) -> np.ndarray:
    """Regularized downward continuation of outer-sphere data.

    f1 is either FieldSamples on a grid at radius R (the native input) or
    coefficients at R; data at another radius raises ValueError. The
    coefficients of degree n <= N are multiplied by the scaling symbols
    phi(n), which for bandlimited data equals integrating the zonal scaling
    kernel against the samples (the node-wise form the tests keep as their
    oracle). A sample set is analyzed once for every call with the same
    min(N, degree), however many points or calls follow.
    """
    f1 = _outer_coefficients(f1, pair.geometry.N)
    _check_data(pair, f1, outer=True)
    return synthesize(_downward(f1, pair.phi.values, pair.geometry.r), points)


def _downward(f1, symbols: np.ndarray, r: float):
    """f1 at radius r with degree n times symbols[n], and zero past the
    last symbol: a downward continuation by per-degree symbols, as the
    scaling transform's phi and the truncation inversion's 1/sigma_n."""
    return type(f1)(r, f1.n_max, _formed(f1.n_max, f1, [symbols])[0])


@functools.lru_cache(maxsize=8)
def _cap_rule(kN: int, n_max: int, kernel_rho: float) -> tuple[np.ndarray, ...]:
    """(t, w, p, dp, d2p): the Gauss rule on [1 - kernel_rho, 1] exact for
    degree kN + n_max and legendre_all to max(kN, n_max) at its nodes.

    The cap multipliers of every kernel pair with wavelet band kN, scalar
    and type 2, integrate against these rows, so they are built once per
    (kN, n_max, kernel_rho) and shared read-only.
    """
    t, w = gauss_rule((kN + n_max) // 2 + 1, 1.0 - kernel_rho, 1.0)
    rule = (t, w) + legendre_all(max(kN, n_max), t)
    for arr in rule[2:]:
        arr.flags.writeable = False
    return rule


def wavelet_multipliers(pair: KernelPair, kernel_rho: float, n_max: int) -> np.ndarray:
    """lambda_n for n = 0..n_max, the scalar (and type-1) cap multipliers
    of _multipliers_by_content: row 0 of the pair's table, read-only.
    kernel_rho must lie in (0, 2], as in RegionSpec."""
    return _cap_multipliers(pair, kernel_rho, n_max)[0]


def _cap_multipliers(pair: KernelPair, kernel_rho: float, n_max: int) -> np.ndarray:
    """The pair's cap multiplier table from _multipliers_by_content, kept by
    what it reads: psi_tilde's bytes and the field kind, with kernel_rho
    and n_max. A pair's symbols are read-only, but every optimize call
    returns a new pair, so a key by the pair itself would miss a repeated
    solve's equal symbols."""
    return _multipliers_by_content(pair.psi_tilde.values.tobytes(), pair.geometry.case,
                                   kernel_rho, n_max)


# A table scores every method of a cell before the next cell, so the memo
# must hold one cell's methods (100 in both shipped configs), or each row
# would evict the entry the next cell needs; 256 degree-110 gradient-field
# tables take about 0.7 MB with their keys.
@functools.lru_cache(maxsize=256)
def _multipliers_by_content(psi_tilde: bytes, case: str, kernel_rho: float,
                            n_max: int) -> np.ndarray:
    """Read-only (types, n_max + 1) table of the degree-wise action of the
    cap-restricted wavelet convolution: row 0 holds lambda_n, and a
    gradient field's row 1 holds mu_n (0 at n = 0, where type 2 starts).

    For a field bandlimited to n_max, integrating the zonal wavelet kernel
    over a cap of radius kernel_rho multiplies the coefficient of degree n
    by lambda_n = 2 pi * integral over [1-kernel_rho, 1] of the kernel
    profile times P_n. For a gradient field, restricting the zonal tensor
    kernel to a cap keeps it equivariant under rotations and reflections,
    so it still acts degree by degree and type by type (a tensor
    Funk-Hecke formula). Type 1 is the radial channel, whose profile is
    the scalar one, so it takes lambda_n. By Schur's lemma the type-2
    multiplier of degree n is the trace of the restricted operator over
    that space divided by its dimension:

        mu_n = 1/(n(n+1)) * integral over [1-kernel_rho, 1] of
               P_n' ((1+t^2) K' - t(1-t^2) K'')
               + P_n'' ((1-t^2)^2 K'' - t(1-t^2) K')

    with K = sum_j (j+1/2) psi_tilde(j) / (j(j+1)) P_j, the tangential
    Frobenius product that gram_vector integrates over the cap exterior.
    Both integrands have degree at most kN + n_max, so the rule of
    _cap_rule is exact and, for bandlimited data, the multipliers equal
    the node-wise cap integral. On the full-sphere cap lambda_n and mu_n
    equal psi_tilde(n). kernel_rho must lie in (0, 2]; past 2 the rule
    would run below t = -1.
    """
    if not (0.0 < kernel_rho <= 2.0):
        raise ValueError("kernel_rho must lie in (0, 2]")
    psi = np.frombuffer(psi_tilde)
    kN = psi.size - 1
    t, w, p, dp, d2p = _cap_rule(kN, n_max, kernel_rho)
    table = np.zeros((1 if case == "scalar" else 2, n_max + 1))
    j = np.arange(kN + 1, dtype=float)
    table[0] = p[: n_max + 1] @ (w * (((j + 0.5) * psi) @ p[: kN + 1]))
    if case == "vector":
        j = j[1:]
        k = (j + 0.5) * psi[1:] / (j * (j + 1.0))
        dk, d2k = k @ dp[1 : kN + 1], k @ d2p[1 : kN + 1]
        s = 1.0 - t * t
        first = w * ((1.0 + t * t) * dk - t * s * d2k)
        second = w * (s * s * d2k - t * s * dk)
        n = np.arange(1, n_max + 1, dtype=float)
        table[1, 1:] = (dp[1:n_max + 1] @ first + d2p[1:n_max + 1] @ second) / (n * (n + 1.0))
    table.flags.writeable = False
    return table


def _cap_wavelet_coefficients(pair: KernelPair, f2, kernel_rho: float):
    """Coefficient-space action of the cap-restricted wavelet convolution:
    each degree (and type, for a gradient field) of f2 times its cap
    multiplier from _cap_multipliers."""
    _check_data(pair, f2, outer=False)
    table = _cap_multipliers(pair, kernel_rho, f2.n_max)
    return f2.scaled_by_degree(table[0] if f2.case == "scalar" else table)


def wavelet_transform_local(pair: KernelPair, f2, x, region: RegionSpec):
    """Wavelet refinement at one evaluation point from cap-local ground data.

    Integrates the wavelet kernel against the field over the cap of radius
    region.kernel_rho around x, as the degree-wise cap multipliers of
    _cap_wavelet_coefficients. A scalar field gives a float, a gradient
    field a 3-vector. Points outside the evaluation region are rejected:
    their caps would leave the data region.
    """
    _check_evaluation(pair, region, x)
    out = synthesize(_cap_wavelet_coefficients(pair, f2, region.kernel_rho), x)
    return out if f2.case == "vector" else float(out)


def _check_evaluation(pair: KernelPair, region: RegionSpec, points) -> None:
    """Reject integration caps wider than the kernel's cap, points that are
    not finite nonzero 3-vectors, and points outside the evaluation region
    (within 1e-9 in t units)."""
    if region.kernel_rho > pair.geometry.rho + 1e-12:
        raise ValueError("region.kernel_rho exceeds the geometry's cap radius")
    dist = region._distances(_as_directions(points))
    if region.eval_rho < 2.0 and np.any(dist > region.eval_rho + 1e-9):
        raise ValueError("an evaluation point lies outside the evaluation region")


def approximate_coefficients(pair: KernelPair, f1, f2, region: RegionSpec):
    """Coefficient field of the combined approximation, on any cap.

    The scaling part contributes phi(n) times the outer-data coefficients
    for n <= N; the wavelet part contributes the cap-restricted wavelet
    multipliers times the ground-data coefficients, per degree (and type,
    for a gradient field). Exact for bandlimited data. f1 may be
    FieldSamples (analyzed first, needing grid exactness >= min(N, degree)
    + degree, + 2 for gradient fields) or coefficients at R. A sample set
    keeps its analysis, so repeated calls with it analyze it once. f1 must
    lie at R and f2 at r; data at another radius raises ValueError. The
    result has the larger of the two data degrees.
    """
    f1 = _outer_coefficients(f1, pair.geometry.N)
    _check_data(pair, f2, outer=False)
    _check_data(pair, f1, outer=True)
    table = _cap_multipliers(pair, region.kernel_rho, f2.n_max)
    n_out = max(f1.n_max, f2.n_max)
    return type(f2)(pair.geometry.r, n_out,
                    _formed(n_out, f1, [pair.phi.values], f2, [table])[0])


def _formed(n_out: int, f1, scaling: list, f2=None, tables: list | None = None) -> np.ndarray:
    """Candidate data at degree n_out, one per method i: f1's degree n
    times scaling[i][n] (zero past its last), plus, given tables, f2's
    degree n times the (types, degrees) table tables[i][:, n], each part
    zero-padded to n_out. Each entry takes the same elementwise operations
    whatever the number of methods, so approximate_coefficients is the
    one-method case of a table cell's runs (experiments._score_cell)."""
    k, lead = len(scaling), (1,) * (f1.data.ndim - 1)
    a = np.zeros((k, f1.n_max + 1))
    for row, symbols in zip(a, scaling):
        keep = min(len(symbols), f1.n_max + 1)
        row[:keep] = symbols[:keep]
    a = _per_coefficient(a, f1.n_max).reshape((k,) + lead + (-1,))
    out = _padded(a * f1.data, n_out)
    if tables is not None:
        b = _per_coefficient(np.stack(tables), f2.n_max) * f2.data
        out += _padded(b.reshape((k,) + f2.data.shape), n_out)
    return out


def approximate(pair: KernelPair, f1, f2, region: RegionSpec, points) -> np.ndarray:
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
    """Counter-based stream keyed by (seed, field index): stable across runs.

    The key is built as uint64, since a list holding a seed of 2^63 or more
    becomes float64, which rounds it (or, at 2^64 - 1, overflows); a seed
    outside [0, 2^64) raises OverflowError.
    """
    key = np.array([seed, field_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _normal_field(kind, radius: float, n_max: int, gen: np.random.Generator):
    """A field of container type kind with i.i.d. standard normal
    coefficients from gen: one draw per coefficient, for a gradient field
    type 1 and then type 2 from degree 1, whose structural zero data[1, 0]
    takes none, so a stream gives a scalar field its first L draws."""
    size = (n_max + 1) ** 2
    if kind.case == "scalar":
        return kind(radius, n_max, gen.standard_normal(size))
    data = np.insert(gen.standard_normal(2 * size - 1), size, 0.0)
    return kind(radius, n_max, data.reshape(2, size))


def add_noise(coeffs, spec: NoiseSpec, norm_region):
    """Signal plus epsilon times a norm-matched bandlimited noise field.

    norm_region selects both the matching norm and the noise level:
    "sphere" uses epsilon1 and the full-sphere L2 norm (outer data); a
    RegionSpec uses epsilon2 and the L2 norm over its data cap (ground
    data): the signal's norm is kept by content (harmonics._kept_cap_norm),
    since a noise study matches every draw to one unchanged signal, and
    only the noise goes through harmonics._cap_norms. The noise field is
    of the signal's kind, drawn by _normal_field from the stream keyed by
    (seed, region kind), so it is reproducible per pair; the result has
    the larger of the two degrees. At a zero level the result is a copy of
    the signal at its own degree.
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
    noise = _normal_field(type(coeffs), coeffs.radius, spec.noise_degree, gen)
    n_out = max(coeffs.n_max, spec.noise_degree)
    signal, raw = _padded(coeffs.data, n_out), _padded(noise.data, n_out)

    if norm_region == "sphere":
        signal_norm = coeffs.l2_norm()
        noise_norm = noise.l2_norm()
    else:
        cap = (norm_region.center_direction, norm_region.data_rho,
               2 * n_out + _extra_exactness(coeffs))
        signal_norm = math.sqrt(_kept_cap_norm(signal, *cap))
        noise_norm = math.sqrt(_cap_norms(raw[None], *cap)[0])
    if noise_norm == 0.0:
        raise ValueError("degenerate noise draw with zero norm")
    scale = eps * signal_norm / noise_norm
    return type(coeffs)(coeffs.radius, n_out, signal + scale * raw)


# Candidates that relative_errors, or a table cell (experiments._score_cell),
# norms in one _cap_norms call, at most.
# On a 2-vCPU host, runs of 8 scored degree-110 fields as fast as runs of
# 16 or faster (0.42 ms per polar scalar field, 1.0 ms per polar gradient
# field, against 0.76 and 1.5 ms alone), and held half the transient
# arrays: 0.55 MB more peak RSS than scoring one at a time on a reduced
# table, against 1.25 MB for 16.
_RUN_WIDTH = 8


def relative_error(u_ref, u_approx, region: RegionSpec) -> float:
    """L2 error of u_approx over the evaluation region, relative to the
    reference norm: the one-candidate case of relative_errors."""
    (error,) = relative_errors(u_ref, (u_approx,), region)
    return error


def relative_errors(u_ref, candidates, region: RegionSpec) -> list[float]:
    """L2 errors of candidates over the evaluation region, each relative
    to the reference norm, in the order of the iterable.

    Each u - u_ref is formed in coefficient space at the larger degree D
    and normed by harmonics._cap_norms at exactness 2 D (2 D + 2 for
    gradient fields). Candidates are drawn in runs of one D, at most
    _RUN_WIDTH long, and each run's stack of differences takes one
    _cap_norms call, which keeps every field's bits as alone: each entry
    is == to the single call, whatever its run. At most one candidate of
    the next run is drawn before a run is normed, so a generator keeps
    memory bounded by the run width. The reference's norm is kept by
    content (harmonics._kept_cap_norm), since a study scores many
    candidates against one unchanged reference. Every field must be of
    the reference's kind on its sphere (radii equal within 1e-9 relative,
    as build_model checks a model file). A reference that is zero there
    raises ValueError.
    """
    def degree(u) -> int:
        if not math.isclose(u_ref.radius, u.radius, rel_tol=1e-9):
            raise ValueError("fields must live on the same sphere")
        if u_ref.case != u.case:
            raise ValueError(f"cannot compare a {u.case} field with a {u_ref.case} one")
        return max(u_ref.n_max, u.n_max)

    errors = []
    for d, same_degree in itertools.groupby(candidates, key=degree):
        while run := list(itertools.islice(same_degree, _RUN_WIDTH)):
            errors += _run_errors(u_ref, np.stack([_padded(u.data, d) for u in run]), region)
    return errors


def _run_errors(u_ref, stack: np.ndarray, region: RegionSpec) -> list[float]:
    """relative_errors of one run of candidates, given as the stack of
    their data at one degree D >= u_ref.n_max; the stack is overwritten."""
    degree = math.isqrt(stack.shape[-1]) - 1
    ref = _padded(u_ref.data, degree)
    cap = (region.center_direction, region.eval_rho, 2 * degree + _extra_exactness(u_ref))
    den = _kept_cap_norm(ref, *cap)
    if not (den > 0.0 and math.isfinite(den)):
        raise ValueError("reference field is zero on the cap")
    stack -= ref
    return [math.sqrt(num / den) for num in _cap_norms(stack, *cap)]
