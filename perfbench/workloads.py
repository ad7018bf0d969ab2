"""The benchmark's three workloads, each a closed loop from one client.

A workload builds its fixed inputs from the workload seed in ``__init__``
(this is the set-up that ``setup_s`` measures), then runs operation ``i`` in
``op``. ``collect`` turns an operation's raw result into the output that
``check`` verifies; both run outside the timed region. ``check`` takes the
``(i, output)`` pairs of a run and returns the failed item count of each.

Sizes: ``full`` is the measured size; ``smoke`` shrinks every degree so the
self-check finishes in seconds. Reference values stored in
``reference.json`` exist for the full size at seed 0 only.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from capwave import cli, experiments, harmonics, kernels, transforms, vector_field

DEFAULT_SEED = 0
REL_TOL = 1e-12

# Degrees small enough for a self-check in seconds; constraints of
# ExperimentConfig (Shannon cuts <= N, truncation degrees <= kN) still hold.
SMOKE = dict(scaling_degree=8, kappa=1.25, model_degree=10, noise_degree=12,
             shannon_degrees=(0, 8), tsvd_degrees=(5, 10), beta=(1.0,),
             alpha_tilde=(100.0,), alpha_ratio=(1.0,))

# Kernel weights of the README's quick start.
ALPHA, ALPHA_TILDE, BETA = 20.0, 100.0, 10.0


def rel_close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


def _config_text(path: Path, overrides: dict) -> str:
    """Config file text with the given keys replaced."""
    kept = [line for line in path.read_text().splitlines()
            if line.split("#", 1)[0].partition("=")[0].strip() not in overrides]
    return "\n".join(kept + [f"{k} = {v}" for k, v in overrides.items()]) + "\n"


def _smoke_overrides() -> dict:
    return {k: " ".join(map(str, v)) if isinstance(v, tuple) else str(v)
            for k, v in SMOKE.items()}


class _Workload:
    """Defaults: one item per operation, raw results are the outputs."""

    items_per_op = 1

    def collect(self, raw):
        return raw


class TableReduced(_Workload):
    """`capwave table` on a 1-cell slice of configs/reduced.cfg, 100 methods.

    The slice keeps one noise level and one noise ratio; its noise seed
    comes from the workload seed. One cell keeps an operation near a
    second, so a run holds enough operations for a steady median. Every
    operation runs the same command in-process, so outputs must repeat
    byte for byte.
    """

    item = "rows"

    def __init__(self, root: Path, seed: int, size: str, tmp: Path):
        rng = np.random.default_rng(seed)
        noise_seed = rng.integers(0, 1_000_000)
        overrides = {"epsilon1": "0.01", "gamma": "2", "seeds": str(noise_seed),
                     "out": str(tmp / "table.csv")}
        if size == "smoke":
            overrides.update(_smoke_overrides())
            overrides["epsilon1"] = "0.05"
        self.cfg_path = tmp / "slice.cfg"
        self.cfg_path.write_text(_config_text(root / "configs" / "reduced.cfg", overrides))
        self.config = cli.load_config(self.cfg_path)
        self.out = Path(self.config.out)
        c = self.config
        n_methods = (len(c.beta) * len(c.alpha_tilde) * len(c.alpha_ratio)
                     + len(c.shannon_degrees))
        self.items_per_op = n_methods * len(c.epsilon1) * len(c.gamma) * len(c.seeds)
        self.model = experiments.build_model(c)

    def op(self, i: int):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(["table", str(self.cfg_path), "--out", str(self.out)])
        return code, stdout.getvalue()

    def collect(self, raw):
        code, message = raw
        if code != 0 or message != f"wrote {self.items_per_op} rows to {self.out}\n":
            raise RuntimeError(f"table command exited {code}: {message!r}")
        return self.out.read_bytes()

    @staticmethod
    def _rows(data: bytes) -> list[dict]:
        return list(csv.DictReader(io.StringIO(data.decode("ascii"))))

    def reference_values(self, outputs: list) -> dict:
        rows = self._rows(outputs[0][1])
        return {"relative_error": [float(r["relative_error"]) for r in rows],
                "localization_ratio": [float(r["localization_ratio"]) for r in rows]}

    def _rescore(self, row: dict) -> tuple[float, float]:
        """Error and localization of one row through the library, not the sweep."""
        c = self.config
        g = c.geometry
        region = c.region
        if row["method"] == "optimized":
            at, ratio = float(row["alpha_tilde"]), float(row["alpha_ratio"])
            w = kernels.PenaltyWeights.uniform(g, at / ratio, at, float(row["beta"]))
            pair = kernels.optimize(g, w)
        else:
            pair = experiments.shannon_reference_pair(g, int(row["method"].split("-")[1]))
        spec = transforms.NoiseSpec(float(row["epsilon1"]),
                                    float(row["gamma"]) * float(row["epsilon1"]),
                                    c.noise_degree, int(row["seed"]))
        f1 = transforms.add_noise(transforms.upward_continue(self.model, g.R), spec, "sphere")
        f2 = transforms.add_noise(self.model, spec, region)
        u = transforms.approximate_coefficients(pair, f1, f2, region)
        return (transforms.relative_error(self.model, u, region),
                kernels.localization_ratio(pair.psi_tilde, g.rho, g))

    def check(self, outputs: list, reference: dict | None) -> list[int]:
        """Failed row count per output: status, repeats, stored and rescored values."""
        first = outputs[0][1]
        rows = self._rows(first)
        bad = {k for k, r in enumerate(rows) if r["status"] != "ok"}
        if len(rows) != self.items_per_op:
            bad.update(range(len(rows), self.items_per_op))
        if reference is not None:
            for k, r in enumerate(rows):
                if not (rel_close(float(r["relative_error"]), reference["relative_error"][k])
                        and rel_close(float(r["localization_ratio"]),
                                      reference["localization_ratio"][k])):
                    bad.add(k)
        sample = sorted({0, len(rows) // 3, len(rows) - 1})
        for k in sample:
            err, loc = self._rescore(rows[k])
            if not (rel_close(float(rows[k]["relative_error"]), err)
                    and rel_close(float(rows[k]["localization_ratio"]), loc)):
                bad.add(k)
        failed = [len(bad)]
        first_lines = first.splitlines()
        for _, data in outputs[1:]:
            lines = data.splitlines()
            differ = sum(a != b for a, b in zip(first_lines[1:], lines[1:]))
            failed.append(len(bad) + differ + abs(len(lines) - len(first_lines)))
        return failed


class ReconOffcenter(_Workload):
    """Single full-scale reconstructions on a data cap centred off the pole.

    Operation ``i`` reconstructs noise cell ``i mod CELLS``; the cells'
    noise levels and seeds come from the workload seed. Satellite data
    arrives as samples on a Gauss grid, so every reconstruction analyzes.
    """

    item = "reconstructions"
    CELLS = 8
    CENTER = (0.3, 0.4, 0.8)

    def __init__(self, root: Path, seed: int, size: str, tmp: Path):
        config = cli.load_config(root / "configs" / "full.cfg")
        config = replace(config, region_center=self.CENTER)
        if size == "smoke":
            config = replace(config, **SMOKE)
        self.geometry = config.geometry
        self.region = config.region
        self.model = experiments.build_model(config)
        self.f1_clean = transforms.upward_continue(self.model, self.geometry.R)
        self.weights = kernels.PenaltyWeights.uniform(self.geometry, ALPHA, ALPHA_TILDE, BETA)
        rng = np.random.default_rng(seed)
        self.specs = []
        for _ in range(self.CELLS):
            eps1 = float(rng.choice(config.epsilon1))
            gamma = float(rng.choice(config.gamma))
            self.specs.append(transforms.NoiseSpec(
                eps1, gamma * eps1, config.noise_degree, int(rng.integers(0, 1_000_000))))

    def op(self, i: int) -> float:
        spec = self.specs[i % self.CELLS]
        f1 = transforms.add_noise(self.f1_clean, spec, "sphere")
        f2 = transforms.add_noise(self.model, spec, self.region)
        samples = transforms.field_samples(f1, 2 * f1.n_max)
        pair = kernels.optimize(self.geometry, self.weights)
        u = transforms.approximate_coefficients(pair, samples, f2, self.region)
        return transforms.relative_error(self.model, u, self.region)

    def reference_values(self, outputs: list) -> dict:
        return {"relative_error": [err for _, err in outputs]}

    def _independent_error(self, i: int) -> float:
        """Coefficient input (no analysis) and the difference field synthesized once."""
        spec = self.specs[i % self.CELLS]
        f1 = transforms.add_noise(self.f1_clean, spec, "sphere")
        f2 = transforms.add_noise(self.model, spec, self.region)
        pair = kernels.optimize(self.geometry, self.weights)
        u = transforms.approximate_coefficients(pair, f1, f2, self.region)
        diff = harmonics.HarmonicCoefficients(u.radius, max(u.n_max, self.model.n_max))
        diff.data[: u.data.size] += u.data
        diff.data[: self.model.data.size] -= self.model.data
        grid = self.region.eval_grid(u.radius, 2 * diff.n_max)
        d = harmonics.synthesize(diff, grid)
        m = harmonics.synthesize(self.model, grid)
        return math.sqrt(grid.integrate(d * d) / grid.integrate(m * m))

    def check(self, outputs: list, reference: dict | None) -> list[int]:
        first: dict[int, float] = {}
        failed = []
        for i, err in outputs:
            cell = i % self.CELLS
            ok = math.isfinite(err) and err > 0.0
            if cell in first:
                ok = ok and err == first[cell]
            else:
                first[cell] = err
                if reference is not None:
                    ok = ok and rel_close(err, reference["relative_error"][cell])
            failed.append(0 if ok else 1)
        i0, err0 = outputs[0]
        if not rel_close(err0, self._independent_error(i0), 1e-10):
            failed[0] = 1
        return failed


class VectorCap(_Workload):
    """vector_approximate at single points inside the true polar cap of reduced.cfg.

    Gradient-field model at reduced scale; satellite data arrives as vector
    samples on a Gauss grid at R. Operation ``i`` evaluates point
    ``i mod POINTS`` of a point set drawn uniformly over the evaluation cap
    from the workload seed; each point needs a new rotated integration cap.
    """

    item = "points"
    POINTS = 256

    def __init__(self, root: Path, seed: int, size: str, tmp: Path):
        config = replace(cli.load_config(root / "configs" / "reduced.cfg"), case="vector")
        if size == "smoke":
            config = replace(config, **SMOKE)
        self.geometry = g = config.geometry
        self.region = config.region
        self.model = experiments.build_model(config)
        self.f1_coeffs = vector_field.vector_upward_continue(self.model, g.R)
        self.f1 = vector_field.vector_field_samples(self.f1_coeffs, g.N + self.model.n_max + 2)
        weights = kernels.PenaltyWeights.uniform(g, ALPHA, ALPHA_TILDE, BETA)
        self.pair = vector_field.vector_optimize(g, weights)
        rng = np.random.default_rng(seed)
        rho = self.region.eval_rho
        t = 1.0 - rng.uniform(0.0, 0.999 * rho, self.POINTS)
        phi = rng.uniform(0.0, 2.0 * math.pi, self.POINTS)
        s = np.sqrt(1.0 - t * t)
        self.points = np.stack([s * np.cos(phi), s * np.sin(phi), t], axis=1)

    def op(self, i: int) -> np.ndarray:
        point = self.points[i % self.POINTS][None, :]
        return vector_field.vector_approximate(self.pair, self.f1, self.model,
                                               self.region, point)[0]

    def reference_values(self, outputs: list) -> dict:
        return {"values": [v.tolist() for _, v in outputs]}

    def _independent_value(self, i: int) -> np.ndarray:
        """Spectral scaling part plus the closed-form tensor kernel on the cap rule."""
        g = self.geometry
        x = self.points[i % self.POINTS]
        scaling = vector_field.vector_scaling_transform(
            self.pair, self.f1_coeffs, x[None, :], method="spectral")[0]
        cap = harmonics.cap_grid(g.r, x, self.region.kernel_rho,
                                 g.kN + self.model.n_max + 2)
        values = vector_field.vector_synthesize(self.model, cap)
        wavelet = np.zeros(3)
        for w, eta, f in zip(cap.weights, cap.nodes, values):
            wavelet += w * (vector_field.tensor_kernel_eval(self.pair.psi_tilde, x, eta) @ f)
        return scaling + wavelet / (g.r * g.r)

    @staticmethod
    def _close(a: np.ndarray, b, tol: float = REL_TOL) -> bool:
        b = np.asarray(b, dtype=float)
        return float(np.max(np.abs(a - b))) <= tol * float(np.max(np.abs(b)))

    def check(self, outputs: list, reference: dict | None) -> list[int]:
        first: dict[int, np.ndarray] = {}
        failed = []
        for i, v in outputs:
            k = i % self.POINTS
            ok = v.shape == (3,) and bool(np.all(np.isfinite(v)))
            if k in first:
                ok = ok and np.array_equal(v, first[k])
            else:
                first[k] = v
                if reference is not None:
                    ok = ok and self._close(v, reference["values"][k])
            failed.append(0 if ok else 1)
        i0, v0 = outputs[0]
        if not self._close(v0, self._independent_value(i0), 1e-10):
            failed[0] = 1
        return failed


WORKLOADS = {
    "table-reduced": TableReduced,
    "recon-offcenter": ReconOffcenter,
    "vector-cap": VectorCap,
}

# Operations a reference recording covers: every distinct input once.
REFERENCE_OPS = {"table-reduced": 1, "recon-offcenter": ReconOffcenter.CELLS,
                 "vector-cap": VectorCap.POINTS}
