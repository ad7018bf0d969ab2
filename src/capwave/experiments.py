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

A run builds once what depends only on its configuration: the model, its
upward-continued outer data, and each method's kernel pair and
localization ratio. Every row then runs the library chain, the
approximate_coefficients of its method's pair on the cell's noisy data
scored by relative_errors, so the table and a single reconstruction share
one code path, for scalar and gradient fields alike (config.case). A cell
is scored as one stream: its candidates are assembled one at a time and
normed in stacked runs, each entry == to its own relative_error call, so
at most one run is alive. Process memos keep what the chain rebuilds from
unchanged arguments: the cap-exterior Gram (kernels._gram_for, zero for a
full-sphere kernel cap), the cap multipliers' Gauss rule and Legendre
rows (transforms._cap_rule), each method's cap multipliers, kept by its
pair's content (transforms._cap_multipliers), each cap's norm operator
(harmonics._cap_factor) and the model's norm on each cap, kept by the
model's content (harmonics._kept_cap_norm). A run's first cell builds them
and a repeated run in one process finds them built. A row's wall_time_s
is its own assembly time (in its run's first cell with the method's
multipliers) plus an equal share of its cell's stacked scoring time; a
row without a candidate takes no share. None of this reuse changes a bit
of any error.
"""

from __future__ import annotations

import csv
import functools
import math
import time
from dataclasses import dataclass, fields

import numpy as np

from .harmonics import (
    HarmonicCoefficients,
    VectorCoefficients,
    load_coefficients,
)
from .kernels import (
    Geometry,
    KernelPair,
    NumericalFailure,
    PenaltyWeights,
    localization_ratio,
    optimize,
    shannon_reference_pair,
    tsvd_symbols,
)
from .transforms import (
    NoiseSpec,
    RegionSpec,
    _noise_generator,
    _normal_field,
    add_noise,
    approximate_coefficients,
    relative_error,
    relative_errors,
    upward_continue,
)

__all__ = [
    "ConfigError",
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


class ConfigError(ValueError):
    """Raised for malformed config text or key values a run cannot carry
    out (inconsistent, non-finite, or a seed outside [0, 2^64)), and by a
    run whose model file cannot be read or lies at another radius."""


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
        for name in ("r_km", "R_km", "kappa", "kernel_rho", "region_rho",
                     "region_center", "beta", "alpha_tilde", "alpha_ratio",
                     "epsilon1", "gamma"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        for name, vals in (("seeds", self.seeds), ("model_seed", (self.model_seed,))):
            if any(not 0 <= s < 2 ** 64 for s in vals):
                raise ValueError(f"{name} must lie in [0, 2^64)")
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
    """One (cell, method) outcome; None marks fields a method does not have.

    wall_time_s, kept in memory only, is the row's assembly time plus an
    equal share of its cell's stacked scoring time (0 for a row without a
    candidate, such as a failed optimization).
    """

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

    The synthetic model draws i.i.d. normal coefficients in add_noise's
    draw order (transforms._normal_field) from the stream keyed by
    (model_seed, 2) and scales degree n by 1/max(n, 1), a power-law degree
    variance n^(-2) continued by 1 at degree zero. A file model must hold
    a field of the configured case and live on the configured inner radius.
    """
    if config.model_file:
        try:
            model = load_coefficients(config.model_file)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read model file: {exc}") from exc
        if model.case != config.case:
            raise ConfigError(
                f"model file holds a {model.case} field, but case = {config.case}"
            )
        if not math.isclose(model.radius, config.r_km, rel_tol=1e-9):
            raise ConfigError(
                f"model file radius {model.radius} does not match r_km {config.r_km}"
            )
        return model

    kind = HarmonicCoefficients if config.case == "scalar" else VectorCoefficients
    d = config.model_degree
    gen = _noise_generator(config.model_seed, _MODEL_STREAM)
    draw = _normal_field(kind, config.r_km, d, gen)
    return draw.scaled_by_degree(1.0 / np.maximum(np.arange(d + 1), 1))


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


def _scored_method(tag: str, pair: KernelPair, **weights) -> _Method:
    g = pair.geometry
    return _Method(tag, pair=pair, status="ok",
                   localization=localization_ratio(pair.psi_tilde, g.rho, g),
                   **weights)


def _optimized_methods(config: ExperimentConfig, geometry: Geometry) -> list[_Method]:
    out = []
    for beta in config.beta:
        for alpha_tilde in config.alpha_tilde:
            for ratio in config.alpha_ratio:
                weights = dict(beta=beta, alpha_tilde=alpha_tilde, alpha_ratio=ratio)
                w = PenaltyWeights.uniform(
                    geometry, alpha_tilde / ratio, alpha_tilde, beta)
                try:
                    pair = optimize(geometry, w)
                except NumericalFailure as exc:
                    out.append(_Method("optimized", pair=None, localization=None,
                                       status=f"numerical-failure: {exc}", **weights))
                    continue
                out.append(_scored_method("optimized", pair, **weights))
    return out


def _shannon_methods(config: ExperimentConfig, geometry: Geometry) -> list[_Method]:
    return [_scored_method(f"shannon-{M}", shannon_reference_pair(geometry, M),
                           beta=None, alpha_tilde=None, alpha_ratio=None)
            for M in config.shannon_degrees]


def _sweep(config: ExperimentConfig) -> tuple:
    """What both tables share: the model, its upward-continued outer data
    and the columns of every row. A model that is zero on the evaluation
    region fails here, before any row: the relative error of the zero
    field at the run's degree raises for it, and otherwise keeps the
    model's norm there for the rows."""
    g = config.geometry
    model = build_model(config)
    degree = max(model.n_max, config.noise_degree)
    relative_error(model, type(model)(model.radius, degree), config.region)
    common = dict(case=config.case, rho=g.rho, region_rho=config.region_rho,
                  scaling_degree=g.N, band_degree=g.kN,
                  model_degree=model.n_max, noise_degree=config.noise_degree)
    return model, upward_continue(model, g.R), common


def run_table(config: ExperimentConfig) -> list[ResultRow]:
    """All (cell, method) rows of the combined-approximation sweep.

    Per cell the outer data is the upward-continued model plus norm-matched
    noise at level epsilon1, the ground data is the model plus cap-matched
    noise at epsilon2 = gamma * epsilon1, and every method reconstructs the
    model on the evaluation region. A method whose kernel optimization
    fails keeps its rows, carrying the failure message in the status column.
    """
    geometry, region = config.geometry, config.region
    model, f1_clean, common = _sweep(config)
    methods = _optimized_methods(config, geometry) + _shannon_methods(config, geometry)
    rows = []
    for eps1 in config.epsilon1:
        for gamma in config.gamma:
            for seed in config.seeds:
                spec = NoiseSpec(eps1, gamma * eps1, config.noise_degree, seed)
                f1 = add_noise(f1_clean, spec, "sphere")
                f2 = add_noise(model, spec, region)
                scores = _score_cell(model, region, [
                    None if m.pair is None
                    else functools.partial(approximate_coefficients, m.pair, f1, f2, region)
                    for m in methods])
                for m, (err, failure, seconds) in zip(methods, scores):
                    rows.append(ResultRow(
                        epsilon1=eps1, gamma=gamma, seed=seed, method=m.tag,
                        beta=m.beta, alpha_tilde=m.alpha_tilde,
                        alpha_ratio=m.alpha_ratio, relative_error=err,
                        localization_ratio=m.localization, status=failure or m.status,
                        wall_time_s=seconds, **common))
    return sorted(rows, key=_row_key)


def run_tsvd_table(config: ExperimentConfig) -> list[ResultRow]:
    """Satellite-only rows: truncated inversion of the outer data.

    Ground data and gamma play no part, so those columns stay empty; cells
    are (epsilon1, seed) pairs and each truncation degree M in the config
    list contributes one row per cell.
    """
    geometry = config.geometry
    model, f1_clean, common = _sweep(config)
    rows = []
    for eps1 in config.epsilon1:
        for seed in config.seeds:
            spec = NoiseSpec(eps1, 0.0, config.noise_degree, seed)
            f1 = add_noise(f1_clean, spec, "sphere")
            scores = _score_cell(model, config.region, [
                functools.partial(_tsvd_apply, geometry, f1, M) for M in config.tsvd_degrees])
            for M, (err, failure, seconds) in zip(config.tsvd_degrees, scores):
                rows.append(ResultRow(
                    epsilon1=eps1, gamma=None, seed=seed, method=f"tsvd-{M}",
                    beta=None, alpha_tilde=None, alpha_ratio=None,
                    relative_error=err, localization_ratio=None, status=failure or "ok",
                    wall_time_s=seconds, **common))
    return sorted(rows, key=_row_key)


def _score_cell(model, region: RegionSpec, assemblies: list) -> list[tuple]:
    """(relative_error, failure, wall_time_s) of each assembly of one cell.

    An assembly is a callable of no arguments that returns one candidate
    field, or None for a method without one (error and failure None).
    Candidates are scored by one relative_errors call that draws them from
    a generator, so at most one run of them is alive. An assembly that
    raises ValueError or NumericalFailure leaves its error None and its
    failure "evaluation-failure: <message>", and the others are still
    scored; scoring itself cannot fail once _sweep has checked the model.
    wall_time_s is the assembly's own time plus an equal share of the
    time the scoring took beyond all assemblies.
    """
    seconds, failures, scored = [0.0] * len(assemblies), [None] * len(assemblies), []

    def candidates():
        for i, assemble in enumerate(assemblies):
            if assemble is None:
                continue
            start = time.perf_counter()
            try:
                u = assemble()
            except (ValueError, NumericalFailure) as exc:
                failures[i] = f"evaluation-failure: {exc}"
                continue
            finally:
                seconds[i] = time.perf_counter() - start
            scored.append(i)
            yield u

    start = time.perf_counter()
    errors = relative_errors(model, candidates(), region)
    share = (time.perf_counter() - start - sum(seconds)) / max(len(scored), 1)
    for i in scored:
        seconds[i] += share
    kept = dict(zip(scored, errors))
    return [(kept.get(i), failures[i], seconds[i]) for i in range(len(assemblies))]


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
