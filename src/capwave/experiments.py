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
coordinates and the written CSV is byte-identical across runs. No row
carries a wall-clock time, in memory or in the file.

Both tables run one sweep (_sweep): it builds once the model, its
upward-continued outer data and each method's row columns and per-degree
factors (phi and the wavelet symbols psi_tilde, or the truncation
symbols), then loops over the cells, for scalar and gradient fields alike
(config.case). A cell's candidates a * f1 + b * f2 (b the cap multipliers
of psi_tilde, none for truncation) are formed in runs of at most
_RUN_WIDTH methods by the helper of approximate_coefficients
(transforms._formed) and normed by that of relative_errors
(transforms._run_errors), so at most one run is alive and every error is
== to relative_error of the method's approximate_coefficients, or of
_tsvd_apply. The weight grid goes to one stacked solve
(kernels._optimize_all) as arrays with one weight triple per row and comes
back as arrays, with no kernel pair: each row's phi and psi_tilde with
optimize's bits, and their localization ratios from one stacked call
(kernels._localization_ratios). Process memos keep what the chain
rebuilds from unchanged arguments: the cap-exterior Gram
(kernels._gram_for, zero for a full-sphere kernel cap), the optimizer's
system of Gram blocks (kernels._system_for), the localization ratio's
degree weights (kernels._energy_scale), the cap multipliers' Gauss rule
and Legendre rows (transforms._cap_rule), each method's read-only table
of cap multipliers, kept by its psi_tilde's content in one lru_cache
(transforms._multipliers_by_content), each cap's norm operator
(harmonics._cap_factor) and the model's norm on each cap, kept by the
model's content (harmonics._kept_cap_norm). A run's first cell builds
them and a repeated run in one process finds them built. None of this
reuse changes a bit of any error.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, fields

import numpy as np

from .harmonics import (
    HarmonicCoefficients,
    VectorCoefficients,
    load_coefficients,
)
from .kernels import (
    _SINGULAR,
    Geometry,
    KernelPair,
    _localization_ratios,
    _optimize_all,
    localization_ratio,
    shannon_reference_pair,
    tsvd_symbols,
)
from .transforms import (
    _RUN_WIDTH,
    NoiseSpec,
    RegionSpec,
    _downward,
    _formed,
    _multipliers_by_content,
    _noise_generator,
    _normal_field,
    _run_errors,
    add_noise,
    relative_error,
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
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(f.default, tuple):
                value = tuple(value)
                object.__setattr__(self, f.name, value)
                if f.name != "region_center" and len(set(value)) < len(value):
                    raise ValueError(f"{f.name} lists a value twice")
            if _item_type(f) is float and not np.all(np.isfinite(value)):
                raise ValueError(f"{f.name} must be finite")
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


def _item_type(f) -> type:
    """Type of a config field's value, or of its items for a list field:
    read from the field's default, so the dataclass is the one schema."""
    return type(f.default[0]) if isinstance(f.default, tuple) else type(f.default)


# ---------------------------------------------------------------------------
# result rows


@dataclass(frozen=True)
class ResultRow:
    """One (cell, method) outcome; None marks fields a method does not have.

    Every field is a table column, so a row carries nothing that varies
    from run to run, such as a wall-clock time.
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


TABLE_COLUMNS = tuple(f.name for f in fields(ResultRow))


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
    """Rows as RFC-4180 CSV, floats at 17 significant digits."""
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
    return _downward(f1, tsvd_symbols(geometry, min(M, f1.n_max)).values, geometry.r)


# ---------------------------------------------------------------------------
# sweep execution


@dataclass(frozen=True)
class _Method:
    """One method's row columns and its per-degree factors: scaling on a
    cell's outer data (phi, or the truncation symbols; None for a failed
    optimization) and the cap multipliers of the wavelet symbols psi on its
    ground data (none for a truncation or a failed optimization)."""

    tag: str
    scaling: np.ndarray | None
    psi: np.ndarray | None = None
    localization: float | None = None
    status: str = "ok"
    beta: float | None = None
    alpha_tilde: float | None = None
    alpha_ratio: float | None = None


def _pair_method(tag: str, pair: KernelPair) -> _Method:
    g = pair.geometry
    return _Method(tag, pair.phi.values, pair.psi_tilde.values,
                   localization_ratio(pair.psi_tilde, g.rho, g))


def _optimized_methods(config: ExperimentConfig) -> list[_Method]:
    """One method per weight triple (beta, alpha_tilde, alpha_ratio), in
    itertools.product order: its row of one stacked _optimize_all call."""
    geometry = config.geometry
    grid = list(itertools.product(config.beta, config.alpha_tilde, config.alpha_ratio))
    beta, alpha_tilde, ratio = np.array(grid, dtype=float).T
    solved, phi, _, psi = _optimize_all(
        geometry,
        np.broadcast_to((alpha_tilde / ratio)[:, None], (len(grid), geometry.N + 1)),
        np.broadcast_to(alpha_tilde[:, None], (len(grid), geometry.kN + 1)),
        beta)
    ratios = _localization_ratios(psi, geometry.case, geometry.rho)
    out = []
    for i, (b, at, r) in enumerate(grid):
        weights = dict(beta=b, alpha_tilde=at, alpha_ratio=r)
        if solved[i]:
            out.append(_Method("optimized", phi[i], psi[i], ratios[i], **weights))
        else:
            out.append(_Method("optimized", None, status=f"numerical-failure: {_SINGULAR}",
                               **weights))
    return out


def _sweep(config: ExperimentConfig, gammas, make_methods) -> list[ResultRow]:
    """Every (cell, method) row of one table, sorted.

    The model, its upward-continued outer data and the columns of every
    row are built once. A model that is zero on the evaluation region
    fails first, before make_methods() runs and before any row: the
    relative error of the zero field at the run's degree raises for it,
    and otherwise keeps the model's norm there for the rows. Cells are
    (epsilon1, gamma, seed) triples; a gamma of None gives epsilon2 = 0,
    so the ground data is a copy of the model and draws no noise.
    """
    g, region = config.geometry, config.region
    model = build_model(config)
    degree = max(model.n_max, config.noise_degree)
    relative_error(model, type(model)(model.radius, degree), region)
    f1_clean = upward_continue(model, g.R)
    methods = make_methods()
    common = dict(case=config.case, rho=g.rho, region_rho=config.region_rho,
                  scaling_degree=g.N, band_degree=g.kN,
                  model_degree=model.n_max, noise_degree=config.noise_degree)
    rows = []
    for eps1 in config.epsilon1:
        for gamma in gammas:
            for seed in config.seeds:
                eps2 = 0.0 if gamma is None else gamma * eps1
                spec = NoiseSpec(eps1, eps2, config.noise_degree, seed)
                f1 = add_noise(f1_clean, spec, "sphere")
                f2 = add_noise(model, spec, region)
                errors = _score_cell(model, region, methods, f1, f2)
                for m, err in zip(methods, errors):
                    rows.append(ResultRow(
                        epsilon1=eps1, gamma=gamma, seed=seed, method=m.tag,
                        beta=m.beta, alpha_tilde=m.alpha_tilde,
                        alpha_ratio=m.alpha_ratio, relative_error=err,
                        localization_ratio=m.localization, status=m.status,
                        **common))
    return sorted(rows, key=_row_key)


def run_table(config: ExperimentConfig) -> list[ResultRow]:
    """All (cell, method) rows of the combined-approximation sweep.

    Per cell the outer data is the upward-continued model plus norm-matched
    noise at level epsilon1, the ground data is the model plus cap-matched
    noise at epsilon2 = gamma * epsilon1, and every method reconstructs the
    model on the evaluation region. A method whose kernel optimization
    fails keeps its rows, carrying the failure message in the status column.
    """
    geometry = config.geometry
    return _sweep(config, config.gamma, lambda: _optimized_methods(config) + [
        _pair_method(f"shannon-{M}", shannon_reference_pair(geometry, M))
        for M in config.shannon_degrees])


def run_tsvd_table(config: ExperimentConfig) -> list[ResultRow]:
    """Satellite-only rows: truncated inversion of the outer data.

    The same sweep as run_table with the single gamma None: ground data
    plays no part, so the gamma column stays empty and draws no noise,
    cells are (epsilon1, seed) pairs, and each truncation degree M in the
    config list contributes one row per cell.
    """
    geometry = config.geometry
    return _sweep(config, (None,), lambda: [
        _Method(f"tsvd-{M}", tsvd_symbols(geometry, M).values)
        for M in config.tsvd_degrees])


def _score_cell(model, region: RegionSpec, methods: list[_Method],
                f1, f2) -> list[float | None]:
    """relative_error of each method on one cell's data f1, f2, None for a
    method without factors. Each run of at most _RUN_WIDTH methods is one
    stack, formed and normed at once. _sweep has checked the model, and the
    data's kind and radii follow from the config, so scoring cannot fail."""
    scored = [m for m in methods if m.scaling is not None]
    degree = max(model.n_max, f1.n_max, f2.n_max)
    errors = []
    for lo in range(0, len(scored), _RUN_WIDTH):
        run = scored[lo : lo + _RUN_WIDTH]
        tables = [_multipliers_by_content(m.psi.tobytes(), f2.case, region.kernel_rho,
                                          f2.n_max)
                  for m in run if m.psi is not None] or None
        stack = _formed(degree, f1, [m.scaling for m in run], f2, tables)
        errors += _run_errors(model, stack, region)
    kept = iter(errors)
    return [None if m.scaling is None else next(kept) for m in methods]


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
