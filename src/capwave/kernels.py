"""Kernel symbols, truncated-interval Gram matrices, and the pair optimizer.

A zonal kernel on the sphere is determined by its degree-wise symbols. The
reconstruction method needs two of them: a scaling kernel applied to
outer-sphere data and a wavelet kernel applied to inner-sphere cap data,
coupled so that their spectral responses telescope. This module builds the
quadratic functional that scores a candidate pair (fidelity on both spheres,
regularization of the downward continuation, energy of the wavelet outside
its cap) and returns its unique minimizer as the solution of one symmetric
positive-definite linear system.

Systems of one geometry differ only in their diagonal weights: the Gram
blocks are assembled once per geometry and kept read-only, and optimize is
the one-row case of the stacked solve a table's weight grid makes, whose
weights are arrays with one weight triple per row. That solve returns
arrays; only optimize builds a kernel pair.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import get_lapack_funcs

from .legendre import _legendre_values, gauss_rule, legendre_all

__all__ = [
    "Geometry",
    "SymbolSet",
    "KernelPair",
    "PenaltyWeights",
    "NumericalFailure",
    "gram_scalar",
    "gram_vector",
    "functional_value",
    "stationarity_residual",
    "optimize",
    "shannon_reference_pair",
    "tsvd_symbols",
    "kernel_eval",
    "localization_ratio",
    "shannon_bound",
    "raised_cosine_targets",
    "full_interval_energy",
    "save_pair_csv",
]


class NumericalFailure(RuntimeError):
    """A linear solve failed; the weight configuration is pathological."""


# The LAPACK routines scipy.linalg's cho_factor and cho_solve call for
# float64, called directly: the same bits without the wrappers' checks.
_potrf, _potrs = get_lapack_funcs(("potrf", "potrs"), dtype=np.float64)


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class Geometry:
    """Radii, truncation degrees, wavelet cap radius, and field type.

    sigma(n) is the degree-n damping factor of upward continuation:
    (r/R)^n for potential values, (r/R)^(n+1) for gradient fields.
    rho = 2 denotes the degenerate full-sphere cap. Its cap exterior
    [-1, 1-rho] is empty, so _gram_for gives the zero Gram there and the
    optimizer decouples; gram_scalar and gram_vector still require
    rho < 2.
    """

    r: float
    R: float
    N: int
    kappa: float = 1.25
    rho: float = 0.5
    case: str = "scalar"

    def __post_init__(self):
        if not (0 < self.r < self.R < math.inf and math.isfinite(self.kappa)):
            raise ValueError("need 0 < r < R, both finite, and a finite kappa")
        if self.N < 0:
            raise ValueError("N must be >= 0")
        if self.kN <= self.N:
            raise ValueError("kappa must give kN = floor(kappa N) > N")
        if not (0.0 < self.rho <= 2.0):
            raise ValueError("rho must lie in (0, 2]")
        if self.case not in ("scalar", "vector"):
            raise ValueError("case must be 'scalar' or 'vector'")

    @property
    def kN(self) -> int:
        return int(math.floor(self.kappa * self.N))

    def sigma(self, n: int) -> float:
        return float(self.sigmas(n)[n])

    def sigmas(self, n_hi: int) -> np.ndarray:
        return (self.r / self.R) ** _sigma_exponents(self.case, n_hi)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)  # cheaper than setting a.flags.writeable
    return a


def _sigma_exponents(case: str, n_hi: int) -> np.ndarray:
    """Exponent of r/R in sigma_n for n = 0..n_hi: n for potential values,
    n + 1 for gradient fields, which differentiate the potential first."""
    n = np.arange(n_hi + 1, dtype=float)
    return n if case == "scalar" else n + 1.0


@dataclass(frozen=True, eq=False)
class SymbolSet:
    """Degree-indexed multipliers value(0..n_max) of a zonal kernel.

    Immutable: values is a private read-only copy, so later writes to the
    caller's array do not reach the symbols.
    """

    n_max: int
    values: np.ndarray

    def __post_init__(self):
        values = _read_only(np.array(self.values, dtype=float))
        if values.shape != (self.n_max + 1,):
            raise ValueError(f"values must have shape ({self.n_max + 1},)")
        if not np.all(np.isfinite(values)):
            raise ValueError("symbols must be finite")
        object.__setattr__(self, "values", values)

    def value(self, n: int) -> float:
        if not (0 <= n <= self.n_max):
            raise ValueError(f"degree {n} outside 0..{self.n_max}")
        return float(self.values[n])

    @classmethod
    def zeros(cls, n_max: int) -> "SymbolSet":
        return cls(n_max, np.zeros(n_max + 1))

    @classmethod
    def ones(cls, n_max: int) -> "SymbolSet":
        return cls(n_max, np.ones(n_max + 1))


@dataclass(frozen=True, eq=False)
class KernelPair:
    """Coupled scaling/wavelet symbols for one geometry.

    The wavelet symbols are derived, never set directly:
    psi_tilde(n) = phi_tilde(n) - phi(n) sigma(n) for n <= N, and
    psi_tilde(n) = phi_tilde(n) for N < n <= kN. The pair and its symbol
    sets are immutable, so the three always agree.
    """

    geometry: Geometry
    phi: SymbolSet
    phi_tilde: SymbolSet
    psi_tilde: SymbolSet = field(init=False)

    def __post_init__(self):
        g = self.geometry
        if self.phi.n_max != g.N:
            raise ValueError(f"phi must have n_max = N = {g.N}")
        if self.phi_tilde.n_max != g.kN:
            raise ValueError(f"phi_tilde must have n_max = kN = {g.kN}")
        psi = self.phi_tilde.values.copy()
        psi[: g.N + 1] -= self.phi.values * g.sigmas(g.N)
        object.__setattr__(self, "psi_tilde", SymbolSet(g.kN, psi))


@dataclass(frozen=True, eq=False)
class PenaltyWeights:
    """Finite, strictly positive weights of the minimization functional.

    Immutable: alpha and alpha_tilde are private read-only copies, so the
    weight check holds for the weights' whole life.
    """

    alpha: np.ndarray        # length N+1, outer-sphere fidelity
    alpha_tilde: np.ndarray  # length kN+1, inner-sphere fidelity
    beta: float              # downward-continuation regularization

    def __post_init__(self):
        alpha = _read_only(np.array(self.alpha, dtype=float))
        alpha_tilde = _read_only(np.array(self.alpha_tilde, dtype=float))
        _check_weights(alpha, alpha_tilde, self.beta)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "alpha_tilde", alpha_tilde)

    @classmethod
    def uniform(cls, geometry: Geometry, alpha: float, alpha_tilde: float,
                beta: float) -> "PenaltyWeights":
        return cls(
            np.full(geometry.N + 1, float(alpha)),
            np.full(geometry.kN + 1, float(alpha_tilde)),
            float(beta),
        )

    @classmethod
    def localization_pattern(cls, geometry: Geometry, beta: float,
                             delta: float = 0.5) -> "PenaltyWeights":
        """Fidelity weights N^(2(1+delta)) times the Shannon energy bound.

        This scaling grows the fidelity terms fast enough with N that the
        optimizer is forced to spend its freedom on localization, which is
        what the monotone-localization property exercises.
        """
        level = geometry.N ** (2.0 * (1.0 + delta)) * shannon_bound(geometry, beta)
        return cls.uniform(geometry, level, level, beta)


# ---------------------------------------------------------------------------
# Gram construction


def _truncated_rule(n_points: int, rho: float):
    if not (0.0 < rho < 2.0):
        raise ValueError("rho must lie in (0, 2)")
    return gauss_rule(n_points, -1.0, 1.0 - rho)


def gram_scalar(n_max: int, rho: float) -> np.ndarray:
    """Entries (2n+1)(2m+1)/2 * integral of P_n P_m over [-1, 1-rho].

    The quadratic form of the wavelet symbols in this matrix equals
    8 pi^2 r^4 times the squared L2 norm of the wavelet profile outside
    the cap (both 1/r^2 kernel factors included). The (n_max+1)^2 array
    is read-only, so _gram_for can share it.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    t, w = _truncated_rule(n_max + 1, rho)
    p, _, _ = legendre_all(n_max, t)
    scale = np.arange(1, 2 * n_max + 2, 2, dtype=float)  # 2n+1
    g = (p * w) @ p.T
    g *= np.outer(scale, scale) / 2.0
    return _read_only(0.5 * (g + g.T))


def gram_vector(n_max: int, rho: float) -> np.ndarray:
    """Tensor-kernel analogue of gram_scalar with derivative-weighted terms.

    For n, m >= 1 the integrand adds, on top of P_n P_m, the combination
    [(1+t^2) P_n'P_m' + (1-t^2)^2 P_n''P_m'' - t(1-t^2)(P_n''P_m' + P_n'P_m'')]
    divided by n(n+1)m(m+1); rows with n = 0 or m = 0 keep only P_n P_m
    (the radial channel is the only contributor there). The prefactor
    (2n+1)(2m+1)/2 matches the scalar convention, so the quadratic form
    again equals 8 pi^2 r^4 times the squared cap-exterior L2 norm of the
    tensor kernel's Frobenius profile; this is the convention the
    surface-integration oracle confirms. The array is read-only.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    t, w = _truncated_rule(n_max + 3, rho)
    p, dp, d2p = legendre_all(n_max, t)

    base = (p * w) @ p.T
    one_plus = w * (1.0 + t * t)
    sq = w * (1.0 - t * t) ** 2
    cross = w * t * (1.0 - t * t)
    c1 = (dp * one_plus) @ dp.T
    c2 = (d2p * sq) @ d2p.T
    c3 = (d2p * cross) @ dp.T

    n = np.arange(n_max + 1, dtype=float)
    inv = np.zeros(n_max + 1)
    inv[1:] = 1.0 / (n[1:] * (n[1:] + 1.0))
    extra = (c1 + c2 - c3 - c3.T) * np.outer(inv, inv)
    g = base + extra
    g[0, :] = base[0, :]
    g[:, 0] = base[:, 0]

    scale = np.arange(1, 2 * n_max + 2, 2, dtype=float)
    g *= np.outer(scale, scale) / 2.0
    return _read_only(0.5 * (g + g.T))


@functools.lru_cache(maxsize=4)
def _gram_for(case: str, n_max: int, rho: float) -> np.ndarray:
    """The Gram matrix of the field case, from gram_scalar or gram_vector.

    For rho >= 2 the exterior [-1, 1-rho] is empty and the Gram is zero.
    Memoized for the last 4 argument triples: a noise study optimizes
    every pair of one geometry against the same cap-exterior matrix, and
    the array is read-only, so callers share it.
    """
    if rho >= 2.0:
        return _read_only(np.zeros((n_max + 1, n_max + 1)))
    builder = gram_scalar if case == "scalar" else gram_vector
    return builder(n_max, rho)


# ---------------------------------------------------------------------------
# functional, gradient, optimizer


@functools.lru_cache(maxsize=8)
def _energy_scale(case: str, n_max: int) -> np.ndarray:
    """Degree weights (2n+1) c_n of full_interval_energy for n = 0..n_max,
    with c_0 = 1 and c_n = 2 (n >= 1) for tensor kernels (two channels per
    degree), else 1. Read-only and memoized, so a sweep's pairs share it."""
    c = np.ones(n_max + 1)
    if case == "vector":
        c[1:] = 2.0
    return _read_only(np.arange(1, 2 * n_max + 2, 2, dtype=float) * c)


def full_interval_energy(symbols: SymbolSet, case: str = "scalar") -> float:
    """8 pi^2 r^4 ||kernel||^2 over the whole interval [-1, 1].

    Equals sum (2n+1) c_n value(n)^2 with c_n = 1 for scalar kernels and
    c_0 = 1, c_n = 2 (n >= 1) for tensor kernels (two channels per degree).
    """
    return float(np.sum(_energy_scale(case, symbols.n_max) * symbols.values**2))


def _check_dimensions(g: Geometry, alpha: np.ndarray, alpha_tilde: np.ndarray,
                      rows: tuple[int, ...] = ()) -> None:
    """Weights of one triple, or rows = (k,) stacked triples, must have
    N+1 and kN+1 entries each."""
    if alpha.shape != rows + (g.N + 1,):
        raise ValueError(f"alpha must have length N+1 = {g.N + 1}")
    if alpha_tilde.shape != rows + (g.kN + 1,):
        raise ValueError(f"alpha_tilde must have length kN+1 = {g.kN + 1}")


def _check_weights(*weights) -> None:
    """Every entry of the weights, one triple's or stacked rows', must be
    finite and > 0. A NaN fails both comparisons."""
    if not all(((0 < w) & (w < np.inf)).all() for w in map(np.asarray, weights)):
        raise ValueError("all weights must be finite and strictly positive")


def _resolve_targets(geometry: Geometry, targets: SymbolSet | None) -> np.ndarray:
    if targets is None:
        return np.ones(geometry.kN + 1)
    if targets.n_max != geometry.kN:
        raise ValueError(f"targets must have n_max = kN = {geometry.kN}")
    return targets.values


def functional_value(pair: KernelPair, w: PenaltyWeights,
                     targets: SymbolSet | None = None) -> float:
    """Value of the minimized functional at the given pair.

    Fidelity terms measure the distance of the effective spectral responses
    (phi sigma on the outer sphere, phi_tilde on the inner sphere) from the
    targets (all ones unless a filtered target set is supplied); the beta
    term penalizes the raw scaling symbols; the Gram quadratic form is the
    wavelet energy outside the cap, in the geometry's Gram.
    """
    g = pair.geometry
    _check_dimensions(g, w.alpha, w.alpha_tilde)
    tgt = _resolve_targets(g, targets)
    x = pair.phi.values * g.sigmas(g.N)
    y = pair.phi_tilde.values
    psi = pair.psi_tilde.values
    value = float(
        w.alpha_tilde @ (tgt - y) ** 2
        + w.alpha @ (tgt[: g.N + 1] - x) ** 2
        + w.beta * pair.phi.values @ pair.phi.values
        + float(psi @ _gram_for(g.case, g.kN, g.rho) @ psi)
    )
    return value


def stationarity_residual(pair: KernelPair, w: PenaltyWeights,
                          targets: SymbolSet | None = None) -> float:
    """Max-norm of the analytic gradient of the functional at the pair.

    The gradient is taken with respect to the solver unknowns
    x_n = phi(n) sigma(n) and y_n = phi_tilde(n).
    """
    g = pair.geometry
    _check_dimensions(g, w.alpha, w.alpha_tilde)
    tgt = _resolve_targets(g, targets)
    sig = g.sigmas(g.N)
    x = pair.phi.values * sig
    y = pair.phi_tilde.values
    psi = pair.psi_tilde.values
    gpsi = _gram_for(g.case, g.kN, g.rho) @ psi
    grad_x = -2.0 * w.alpha * (tgt[: g.N + 1] - x) \
        + 2.0 * w.beta * x / sig**2 - 2.0 * gpsi[: g.N + 1]
    grad_y = -2.0 * w.alpha_tilde * (tgt - y) + 2.0 * gpsi
    return float(max(np.max(np.abs(grad_x)), np.max(np.abs(grad_y))))


@functools.lru_cache(maxsize=4)
def _system_for(case: str, N: int, kN: int, rho: float) -> np.ndarray:
    """optimize's system without its diagonal weights, [[G11, -G1], [-G1^T, G]]
    for G = _gram_for(case, kN, rho) and G1 its first N + 1 rows, in
    column-major order (LAPACK's). Read-only and memoized for the last 4
    geometries: the systems of a weight grid differ only on the diagonal."""
    G = _gram_for(case, kN, rho)
    n_x = N + 1
    M = np.empty((n_x + kN + 1, n_x + kN + 1), order="F")
    M[:n_x, :n_x] = G[:n_x, :n_x]
    M[:n_x, n_x:] = -G[:n_x, :]
    M[n_x:, :n_x] = -G[:, :n_x]
    M[n_x:, n_x:] = G
    return _read_only(M)


_SINGULAR = ("kernel optimizer system is numerically singular; "
             "the weight configuration is pathological")


def _optimize_all(geometry: Geometry, alpha, alpha_tilde, beta,
                  targets: SymbolSet | None = None):
    """optimize for each row of stacked weights alpha (k, N+1), alpha_tilde
    (k, kN+1) and beta (k,), checked with optimize's and PenaltyWeights'
    messages, as arrays: (solved, phi, phi_tilde, psi_tilde), a bool per
    row and read-only symbol stacks, zero on the rows whose solve failed.

    Each step that is one elementwise operation per row runs once on the
    stack: the diagonals alpha + beta / sigma^2, the right-hand sides, the
    symbols and their finiteness check, which raises SymbolSet's
    ValueError for the whole call. Per row remain the copy of the memoized
    system (_system_for) with its diagonal, potrf and potrs, so every row
    has optimize's bits.
    """
    g = geometry
    alpha, alpha_tilde, beta = (np.asarray(a, dtype=float) for a in (alpha, alpha_tilde, beta))
    if beta.ndim != 1:
        raise ValueError("beta must hold one weight per row")
    _check_dimensions(g, alpha, alpha_tilde, beta.shape)
    _check_weights(alpha, alpha_tilde, beta)
    n_x = g.N + 1
    sig = g.sigmas(g.N)
    system = _system_for(g.case, g.N, g.kN, g.rho)
    diagonals = np.concatenate([alpha, alpha_tilde], axis=1)  # the weights, so far
    if targets is None:  # right-hand sides: the weights times all-ones targets
        sol = diagonals.copy()
    else:
        tgt = _resolve_targets(g, targets)
        sol = diagonals * np.concatenate([tgt[:n_x], tgt])
    diagonals[:, :n_x] += beta[:, None] / sig**2
    diagonals += system.diagonal()
    solved = []
    for row, row_diagonal in zip(sol, diagonals):  # each row is solved in place
        M = system.copy(order="F")
        M.reshape(-1, order="F")[:: M.shape[0] + 1] = row_diagonal  # through a view
        factor, info = _potrf(M, lower=True, clean=False, overwrite_a=True)
        if info == 0:
            row[:], info = _potrs(factor, row, lower=True, overwrite_b=True)
        if info != 0:
            row[:] = 0.0
        solved.append(info == 0)
    phi = sol[:, :n_x] / sig
    phi_tilde = sol[:, n_x:]
    psi = phi_tilde.copy()
    psi[:, :n_x] -= phi * sig
    if not np.isfinite(psi).all():
        raise ValueError("symbols must be finite")
    return solved, _read_only(phi), _read_only(phi_tilde), _read_only(psi)


def optimize(geometry: Geometry, w: PenaltyWeights,
             targets: SymbolSet | None = None) -> KernelPair:
    """Unique minimizer of the functional for the given weights.

    Unknowns are x_n = phi(n) sigma(n) (n = 0..N) and y_n = phi_tilde(n)
    (n = 0..kN); this keeps the system's dynamic range flat where phi itself
    grows like (R/r)^n. The system matrix

        [[D1 + P1, -P2], [-P2^T, D2 + P4]]

    with D1 = diag(alpha_n + beta/sigma_n^2), D2 = diag(alpha_tilde_n) and
    P* the Gram blocks, is symmetric positive definite, so a Cholesky solve
    applies: LAPACK's potrf and potrs, the routines of scipy.linalg's
    cho_factor and cho_solve, called directly on the system assembled in
    column-major order, so the symbols have those functions' bits. A
    nonzero LAPACK info (a factorization failure) is raised as
    NumericalFailure, never silently regularized; at uniform weights of
    1e-16 the singular Gram part prevails and it is raised.

    A solve that passes potrf can still be near-singular, and nothing here
    measures its conditioning. On the reduced gradient-field geometry (case
    = vector, N = 30, kN = 40) at alpha_tilde = 1e-16, beta = 1e-3 and
    alpha = alpha_tilde / 5 factor, while the other 11 triples of the
    reduced grid at that alpha_tilde fail. The pair's localization ratio
    reads 3.4e-17, and its one-cell table row (epsilon1 = 0.01, gamma = 2,
    seed 0) reads relative error 0.984 with status ok, against 0.113 at
    alpha_tilde = 1e3 with the same beta and ratio. The per-solve pivot
    report of ROADMAP item 5 is what will flag such a solve.

    This is the one-row case of the stacked solve (_optimize_all) that a
    table's weight grid makes once. That solve returns arrays; only
    optimize builds a pair, whose constructor derives psi_tilde with the
    solve's operations. Each solve copies the system's Gram blocks, kept
    read-only per geometry (_system_for), and sets its diagonal.
    """
    solved, phi, phi_tilde, _ = _optimize_all(
        geometry, w.alpha[None], w.alpha_tilde[None], [w.beta], targets)
    if not solved[0]:
        raise NumericalFailure(_SINGULAR)
    return KernelPair(geometry, SymbolSet(geometry.N, phi[0]),
                      SymbolSet(geometry.kN, phi_tilde[0]))


# ---------------------------------------------------------------------------
# reference kernels


def shannon_reference_pair(geometry: Geometry, M: int) -> KernelPair:
    """Shannon pair with scaling cut M and wavelet band (M, kN].

    The scaling symbols invert the continuation up to degree M and drop the
    rest; the derived wavelet band then starts right above M while still
    ending at the configured band degree, so varying M trades satellite
    against ground information at a fixed overall bandwidth. M = N gives
    the sharp-cutoff pair whose wavelet symbols are the indicator of
    N+1..kN.
    """
    if M < 0 or M > geometry.N:
        raise ValueError("scaling cut M must lie in [0, N]")
    values = np.zeros(geometry.N + 1)
    values[: M + 1] = 1.0 / geometry.sigmas(M)
    phi = SymbolSet(geometry.N, values)
    return KernelPair(geometry, phi, SymbolSet.ones(geometry.kN))


def tsvd_symbols(geometry: Geometry, M: int) -> SymbolSet:
    """Hard-truncation inversion symbols 1/sigma_n for n <= M."""
    if M < 0:
        raise ValueError("M must be >= 0")
    return SymbolSet(M, (geometry.R / geometry.r) ** _sigma_exponents(geometry.case, M))


def shannon_bound(geometry: Geometry, beta: float) -> float:
    """Closed-form upper bound for the functional at the Shannon pair.

    Scalar: beta (1 - q^(2(N+1)))/(1 - q^2) + (kN+1)^2 with q = R/r.
    Vector: the regularization sum gains a q^2 factor (sigma exponent n+1)
    and the energy term counts both channels, 2 (kN+1)^2 - 1.
    """
    q2 = (geometry.R / geometry.r) ** 2
    geo_sum = (1.0 - q2 ** (geometry.N + 1)) / (1.0 - q2)
    if geometry.case == "scalar":
        return beta * geo_sum + (geometry.kN + 1) ** 2
    return beta * q2 * geo_sum + 2.0 * (geometry.kN + 1) ** 2 - 1.0


def raised_cosine_targets(geometry: Geometry) -> SymbolSet:
    """Default filtered target symbols cos^2(pi n / (2 (kN+1))).

    A smooth taper from 1 at degree 0 to near 0 at degree kN; any other
    target SymbolSet of length kN+1 is equally accepted by optimize.
    """
    n = np.arange(geometry.kN + 1, dtype=float)
    return SymbolSet(geometry.kN, np.cos(np.pi * n / (2.0 * (geometry.kN + 1))) ** 2)


# ---------------------------------------------------------------------------
# evaluation and diagnostics


def kernel_eval(symbols: SymbolSet, t) -> float | np.ndarray:
    """Zonal profile sum (2n+1)/(4 pi) value(n) P_n(t), radius factors excluded."""
    n = np.arange(symbols.n_max + 1, dtype=float)
    out = np.tensordot((2.0 * n + 1.0) * symbols.values / (4.0 * math.pi),
                       _legendre_values(symbols.n_max, t), axes=1)
    return float(out) if out.ndim == 0 else out


def localization_ratio(psi_tilde: SymbolSet, rho: float, geometry: Geometry) -> float:
    """Fraction of the wavelet kernel's energy lying outside the cap.

    Ratio of the squared L2 norm of the kernel profile over [-1, 1-rho] to
    the squared norm over the whole interval; near 0 for a well-localized
    kernel, near 1 as rho shrinks to nothing, and 0 for the full-sphere cap
    rho = 2. The exterior Gram of the geometry's case at psi_tilde's degree
    and rho comes from _gram_for's memo, so many symbol sets share one.
    This is the one-row case of _localization_ratios.
    """
    (ratio,) = _localization_ratios(psi_tilde.values[None], geometry.case, rho)
    if ratio is None:
        raise ValueError("localization ratio of a symbol set of zero energy is undefined")
    return ratio


def _localization_ratios(psi: np.ndarray, case: str, rho: float) -> list[float | None]:
    """localization_ratio of each row of a (k, n_max+1) symbol stack, None
    for a row of zero energy. The denominators, full_interval_energy of
    each row, are summed for all rows at once; the numerator psi @ G @ psi
    is taken per row."""
    n_max = psi.shape[1] - 1
    G = _gram_for(case, n_max, rho)
    energy = np.sum(_energy_scale(case, n_max) * psi**2, axis=1).tolist()
    return [min(max(float(row @ G @ row) / den, 0.0), 1.0) if den else None
            for row, den in zip(psi, energy)]


def save_pair_csv(pair: KernelPair, path) -> None:
    """Raw symbols as CSV rows `n,phi,phi_tilde,psi_tilde` (phi zero past N)."""
    g = pair.geometry
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write("n,phi,phi_tilde,psi_tilde\n")
        for n in range(g.kN + 1):
            phi_n = pair.phi.values[n] if n <= g.N else 0.0
            fh.write(
                f"{n},{phi_n:.17g},{pair.phi_tilde.values[n]:.17g},"
                f"{pair.psi_tilde.values[n]:.17g}\n"
            )
