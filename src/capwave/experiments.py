"""Sweep harness producing the method-comparison tables.

A table run fixes one geometry, one data region and one model field, then
sweeps a grid of noise levels, noise seeds and reconstruction methods. Every
(epsilon1, gamma, seed) triple is one cell; within a cell each method
produces one row holding the relative reconstruction error over the
evaluation region. Methods are the optimized kernel pairs (one per weight
combination), Shannon reference pairs with scaling cut M and wavelet band
(M, kN], and, in the satellite-only table, hard-truncation inversions of
the outer data alone.

Determinism contract: rows depend only on the configuration. Noise fields
are keyed by (seed, data channel) exactly as in add_noise, so permuting the
sweep lists permutes nothing; rows always come out sorted by their numeric
coordinates and the written CSV is byte-identical across runs. Wall-clock
timings are kept on the in-memory rows for diagnostics but never written to
the file, since they would break that guarantee.

Everything that depends only on the run is built once: the cap-exterior
Gram, each method's kernel pair, localization ratio and wavelet multipliers,
and the Legendre blocks of the evaluation grid. A row's wall_time_s
therefore times only its own assembly and scoring. Each candidate still
takes the same per-block products as synthesize, so the errors, bit for
bit, do not depend on this reuse.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, fields

import numpy as np

from .harmonics import (
    HarmonicCoefficients,
    _grid_synthesis,
    load_coefficients,
    synthesize,
)
from .kernels import (
    Geometry,
    GramMatrix,
    KernelPair,
    NumericalFailure,
    PenaltyWeights,
    gram_scalar,
    localization_ratio,
    optimize,
    shannon_reference_pair,
    tsvd_symbols,
)
from .transforms import (
    NoiseSpec,
    RegionSpec,
    _assemble,
    add_noise,
    upward_continue,
    wavelet_multipliers,
)
from .vector_field import VectorCoefficients, load_vector_coefficients

__all__ = [
    "ExperimentConfig",
    "ResultRow",
    "TABLE_COLUMNS",
    "build_model",
    "shannon_reference_pair",
    "run_table",
    "run_tsvd_table",
    "write_table",
    "export_spectra",
    "read_spectra",
]

# Philox stream index for synthetic model draws; outer and ground noise use
# streams 0 and 1, so a model seed equal to a noise seed still decorrelates.
_MODEL_STREAM = 2


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ExperimentConfig:
    """One self-contained description of a sweep run.

    The defaults encode the reference protocol: Earth radius to a 700 km
    orbit, scaling cut 80 with wavelet band up to 100, ground data in a cap
    of radius 1.0 around the north pole, weight decades beta in [1e-3, 1e2]
    and alpha_tilde in [1e-3, 1e4] with alpha = alpha_tilde / ratio, noise
    levels epsilon1 in {0.001, 0.01, 0.05, 0.1} with epsilon2 = gamma *
    epsilon1. A file model overrides the synthetic one when given.
    """

    case: str = "scalar"
    r_km: float = 6371.2
    R_km: float = 7071.2
    scaling_degree: int = 80
    kappa: float = 1.25
    kernel_rho: float = 0.5
    region_center: tuple[float, float, float] = (0.0, 0.0, 1.0)
    region_rho: float = 1.0
    model_file: str = ""
    model_degree: int = 100
    model_seed: int = 7
    noise_degree: int = 110
    beta: tuple[float, ...] = (1e-3, 1e-2, 1e-1, 1e0, 1e1, 1e2)
    alpha_tilde: tuple[float, ...] = (1e-3, 1e-2, 1e-1, 1e0, 1e1, 1e2, 1e3, 1e4)
    alpha_ratio: tuple[float, ...] = (1.0, 5.0)
    epsilon1: tuple[float, ...] = (0.001, 0.01, 0.05, 0.1)
    gamma: tuple[float, ...] = (1.0, 2.0, 5.0)
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
    shannon_degrees: tuple[int, ...] = (0, 30, 50, 80)
    tsvd_degrees: tuple[int, ...] = (50, 60, 70, 80, 100)
    out: str = "table.csv"

    def __post_init__(self):
        for name in ("beta", "alpha_tilde", "alpha_ratio", "epsilon1",
                     "gamma", "seeds", "shannon_degrees", "tsvd_degrees",
                     "region_center"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        geometry = self.geometry
        self.region
        for name in ("beta", "alpha_tilde", "alpha_ratio", "gamma"):
            vals = getattr(self, name)
            if not vals or any(v <= 0 for v in vals):
                raise ValueError(f"{name} needs a non-empty list of positive values")
        if not self.epsilon1 or any(e < 0 for e in self.epsilon1):
            raise ValueError("epsilon1 needs a non-empty list of values >= 0")
        if not self.seeds:
            raise ValueError("seeds must not be empty")
        if self.model_degree < 0:
            raise ValueError("model_degree must be >= 0")
        if self.noise_degree < 1:
            raise ValueError("noise_degree must be >= 1")
        if any(m < 0 or m > geometry.N for m in self.shannon_degrees):
            raise ValueError("shannon_degrees must lie in [0, scaling_degree]")
        if any(m < 0 or m > geometry.kN for m in self.tsvd_degrees):
            raise ValueError("tsvd_degrees must lie in [0, band degree]")
        if not self.out:
            raise ValueError("out must name an output file")

    @property
    def geometry(self) -> Geometry:
        return Geometry(self.r_km, self.R_km, self.scaling_degree,
                        kappa=self.kappa, rho=self.kernel_rho, case=self.case)

    @property
    def region(self) -> RegionSpec:
        return RegionSpec(self.region_center, self.region_rho, self.kernel_rho)


# ---------------------------------------------------------------------------
# result rows


@dataclass(frozen=True)
class ResultRow:
    """One (cell, method) outcome; None marks fields a method does not have."""

    case: str
    rho: float
    region_rho: float
    scaling_degree: int
    band_degree: int
    model_degree: int
    noise_degree: int
    epsilon1: float
    gamma: float | None
    seed: int
    method: str
    beta: float | None
    alpha_tilde: float | None
    alpha_ratio: float | None
    relative_error: float | None
    localization_ratio: float | None
    status: str
    wall_time_s: float


TABLE_COLUMNS = tuple(f.name for f in fields(ResultRow) if f.name != "wall_time_s")


def _method_order(tag: str) -> tuple[int, int]:
    if tag == "optimized":
        return (0, 0)
    kind, _, m = tag.partition("-")
    return (1 if kind == "shannon" else 2, int(m))


def _row_key(row: ResultRow):
    return (
        row.epsilon1,
        -1.0 if row.gamma is None else row.gamma,
        row.seed,
        _method_order(row.method),
        row.beta or 0.0,
        row.alpha_tilde or 0.0,
        row.alpha_ratio or 0.0,
    )


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_table(rows, path) -> None:
    """Rows as RFC-4180 CSV, floats at 17 significant digits, timings omitted."""
    ordered = sorted(rows, key=_row_key)
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TABLE_COLUMNS)
        for row in ordered:
            writer.writerow([_cell(getattr(row, name)) for name in TABLE_COLUMNS])


# ---------------------------------------------------------------------------
# model fields


def build_model(config: ExperimentConfig):
    """Truth field on the inner sphere, from file or synthesized.

    The synthetic model draws i.i.d. normal coefficients and scales degree n
    by 1/max(n, 1), a power-law degree variance n^(-2) continued by 1 at
    degree zero; both channels of a gradient field draw independently. A
    file model must live on the configured inner radius.
    """
    if config.model_file:
        loader = (load_coefficients if config.case == "scalar"
                  else load_vector_coefficients)
        model = loader(config.model_file)
        if not math.isclose(model.radius, config.r_km, rel_tol=1e-9):
            raise ValueError(
                f"model file radius {model.radius} does not match r_km {config.r_km}"
            )
        return model

    gen = np.random.Generator(
        np.random.Philox(key=[config.model_seed, _MODEL_STREAM]))
    d = config.model_degree
    degrees = np.repeat(np.arange(d + 1), 2 * np.arange(d + 1) + 1)
    if config.case == "scalar":
        scale = 1.0 / np.maximum(degrees, 1)
        data = gen.standard_normal(degrees.size) * scale
        return HarmonicCoefficients(config.r_km, d, data)
    both = np.concatenate([degrees, degrees[1:]])
    scale = 1.0 / np.maximum(both, 1)
    data = gen.standard_normal(both.size) * scale
    return VectorCoefficients(config.r_km, d, data)


# ---------------------------------------------------------------------------
# reference methods


def _tsvd_apply(geometry: Geometry, f1: HarmonicCoefficients,
                M: int) -> HarmonicCoefficients:
    """Hard-truncation inversion of outer-sphere data, back on the inner sphere."""
    keep = min(M, f1.n_max)
    factors = np.zeros(f1.n_max + 1)
    factors[: keep + 1] = tsvd_symbols(geometry, keep).values
    return f1.scaled_by_degree(factors, radius=geometry.r)


# ---------------------------------------------------------------------------
# sweep execution


@dataclass(frozen=True)
class _Method:
    tag: str
    beta: float | None
    alpha_tilde: float | None
    alpha_ratio: float | None
    pair: KernelPair | None
    localization: float | None
    status: str
    # wavelet_multipliers(pair, kernel_rho, n) for the run's data degree n
    multipliers: np.ndarray | None = None


def _run_gram(geometry: Geometry) -> GramMatrix:
    """The cap-exterior Gram shared by every method of a run."""
    if geometry.rho >= 2.0:
        # Full-sphere cap: the exterior [-1, 1-rho] is empty, the
        # localization penalty vanishes and the optimizer decouples.
        size = geometry.kN + 1
        return GramMatrix(geometry.kN, geometry.rho, geometry.case,
                          np.zeros((size, size)))
    return gram_scalar(geometry.kN, geometry.rho)


def _scored_method(tag: str, pair: KernelPair, gram: GramMatrix,
                   kernel_rho: float, degree: int, **weights) -> _Method:
    g = pair.geometry
    return _Method(tag, pair=pair, status="ok",
                   localization=localization_ratio(pair.psi_tilde, g.rho, g, gram),
                   multipliers=wavelet_multipliers(pair, kernel_rho, degree),
                   **weights)


def _optimized_methods(config: ExperimentConfig, geometry: Geometry,
                       gram: GramMatrix, degree: int) -> list[_Method]:
    out = []
    for beta in config.beta:
        for alpha_tilde in config.alpha_tilde:
            for ratio in config.alpha_ratio:
                weights = dict(beta=beta, alpha_tilde=alpha_tilde, alpha_ratio=ratio)
                w = PenaltyWeights.uniform(
                    geometry, alpha_tilde / ratio, alpha_tilde, beta)
                try:
                    pair = optimize(geometry, w, gram=gram)
                except NumericalFailure as exc:
                    out.append(_Method("optimized", pair=None, localization=None,
                                       status=f"numerical-failure: {exc}", **weights))
                    continue
                out.append(_scored_method("optimized", pair, gram, config.kernel_rho,
                                          degree, **weights))
    return out


def _shannon_methods(config: ExperimentConfig, geometry: Geometry,
                     gram: GramMatrix, degree: int) -> list[_Method]:
    return [_scored_method(f"shannon-{M}", shannon_reference_pair(geometry, M),
                           gram, config.kernel_rho, degree,
                           beta=None, alpha_tilde=None, alpha_ratio=None)
            for M in config.shannon_degrees]


class _ErrorMeter:
    """Shared evaluation grid: truth synthesized once, error per candidate.

    Candidates are synthesized through _grid_synthesis, which keeps the
    Legendre blocks for the run's degree on the evaluation cap's
    colatitude axis, in its own frame, and turns each candidate into that
    frame; each candidate then costs one batched product per block and the
    two azimuth products. Each error is the same arithmetic as
    relative_error.
    """

    def __init__(self, model, region: RegionSpec, radius: float, max_degree: int):
        self.grid = region.eval_grid(radius, 2 * max_degree)
        self.truth = synthesize(model, self.grid)
        den = self.grid.integrate(self.truth * self.truth)
        if den <= 0.0 or not np.isfinite(den):
            raise ValueError("model field vanishes on the evaluation region")
        self.den = den
        self.synthesize = _grid_synthesis(self.grid, max_degree)

    def error(self, candidate: HarmonicCoefficients) -> float:
        diff = self.synthesize(candidate) - self.truth
        return math.sqrt(self.grid.integrate(diff * diff) / self.den)


def _require_scalar(config: ExperimentConfig) -> None:
    if config.case != "scalar":
        raise ValueError(
            "table sweeps cover the scalar chain; run gradient-field "
            "reconstructions through the vector_field functions directly"
        )


def run_table(config: ExperimentConfig) -> list[ResultRow]:
    """All (cell, method) rows of the combined-approximation sweep.

    Per cell the outer data is the upward-continued model plus norm-matched
    noise at level epsilon1, the ground data is the model plus cap-matched
    noise at epsilon2 = gamma * epsilon1, and every method reconstructs the
    model on the evaluation region. A method whose kernel optimization
    fails keeps its rows, carrying the failure message in the status column.
    """
    _require_scalar(config)
    geometry = config.geometry
    region = config.region
    model = build_model(config)
    f1_clean = upward_continue(model, geometry.R)
    degree = max(model.n_max, config.noise_degree)
    gram = _run_gram(geometry)
    methods = (_optimized_methods(config, geometry, gram, degree)
               + _shannon_methods(config, geometry, gram, degree))
    meter = _ErrorMeter(model, region, geometry.r, degree)

    common = dict(case=config.case, rho=geometry.rho,
                  region_rho=config.region_rho,
                  scaling_degree=geometry.N, band_degree=geometry.kN,
                  model_degree=model.n_max, noise_degree=config.noise_degree)
    rows = []
    for eps1 in config.epsilon1:
        for gamma in config.gamma:
            for seed in config.seeds:
                spec = NoiseSpec(eps1, gamma * eps1, config.noise_degree, seed)
                f1 = add_noise(f1_clean, spec, "sphere")
                f2 = add_noise(model, spec, region)
                for m in methods:
                    start = time.perf_counter()
                    err, status = None, m.status
                    if m.pair is not None:
                        try:
                            lam = m.multipliers
                            if lam.size != f2.n_max + 1:  # noise-free ground data
                                lam = wavelet_multipliers(m.pair, region.kernel_rho,
                                                          f2.n_max)
                            err = meter.error(_assemble(m.pair, f1, f2, lam))
                        except (ValueError, NumericalFailure) as exc:
                            status = f"evaluation-failure: {exc}"
                    rows.append(ResultRow(
                        epsilon1=eps1, gamma=gamma, seed=seed, method=m.tag,
                        beta=m.beta, alpha_tilde=m.alpha_tilde,
                        alpha_ratio=m.alpha_ratio, relative_error=err,
                        localization_ratio=m.localization, status=status,
                        wall_time_s=time.perf_counter() - start, **common))
    return sorted(rows, key=_row_key)


def run_tsvd_table(config: ExperimentConfig) -> list[ResultRow]:
    """Satellite-only rows: truncated inversion of the outer data.

    Ground data and gamma play no part, so those columns stay empty; cells
    are (epsilon1, seed) pairs and each truncation degree M in the config
    list contributes one row per cell.
    """
    _require_scalar(config)
    geometry = config.geometry
    region = config.region
    model = build_model(config)
    f1_clean = upward_continue(model, geometry.R)
    meter = _ErrorMeter(model, region, geometry.r,
                        max(model.n_max, config.noise_degree))

    common = dict(case=config.case, rho=geometry.rho,
                  region_rho=config.region_rho,
                  scaling_degree=geometry.N, band_degree=geometry.kN,
                  model_degree=model.n_max, noise_degree=config.noise_degree)
    rows = []
    for eps1 in config.epsilon1:
        for seed in config.seeds:
            spec = NoiseSpec(eps1, 0.0, config.noise_degree, seed)
            f1 = add_noise(f1_clean, spec, "sphere")
            for M in config.tsvd_degrees:
                start = time.perf_counter()
                err = meter.error(_tsvd_apply(geometry, f1, M))
                rows.append(ResultRow(
                    epsilon1=eps1, gamma=None, seed=seed, method=f"tsvd-{M}",
                    beta=None, alpha_tilde=None, alpha_ratio=None,
                    relative_error=err, localization_ratio=None, status="ok",
                    wall_time_s=time.perf_counter() - start, **common))
    return sorted(rows, key=_row_key)


# ---------------------------------------------------------------------------
# kernel spectra files


_SPECTRA_HEADER = ("n", "phi_sigma", "phi_tilde", "psi_tilde")


def export_spectra(pair: KernelPair, path) -> None:
    """Degree-wise symbols as CSV: n, phi(n) sigma(n), phi_tilde(n), psi_tilde(n).

    The scaling column carries the continuation factor, so a Shannon pair
    shows plain step functions and the coupling identity reads
    psi_tilde = phi_tilde - phi_sigma at every degree.
    """
    g = pair.geometry
    sig = g.sigmas(g.N)
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_SPECTRA_HEADER)
        for n in range(g.kN + 1):
            phi_sigma = pair.phi.values[n] * sig[n] if n <= g.N else 0.0
            writer.writerow([
                n,
                format(phi_sigma, ".17g"),
                format(pair.phi_tilde.values[n], ".17g"),
                format(pair.psi_tilde.values[n], ".17g"),
            ])


def read_spectra(path) -> dict[str, np.ndarray]:
    """Arrays keyed by spectra column name, validated against the header."""
    with open(path, "r", encoding="ascii", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(_SPECTRA_HEADER):
            raise ValueError(f"unexpected spectra header {header}")
        rows = [[float(x) for x in row] for row in reader]
    if not rows:
        raise ValueError("spectra file has no data rows")
    table = np.asarray(rows)
    out = {name: table[:, i].copy() for i, name in enumerate(_SPECTRA_HEADER)}
    out["n"] = out["n"].astype(int)
    return out
