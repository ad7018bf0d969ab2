"""Tests for the sweep harness: models, tables, determinism, spectra files."""

import csv
import statistics

import numpy as np
import pytest

from capwave.experiments import (
    TABLE_COLUMNS,
    ConfigError,
    ExperimentConfig,
    ResultRow,
    build_model,
    export_spectra,
    read_spectra,
    run_table,
    run_tsvd_table,
    shannon_reference_pair,
    write_table,
    _MODEL_STREAM,
    _tsvd_apply,
)
from capwave.harmonics import (
    HarmonicCoefficients,
    _cap_factor,
    _cap_norm_by_content,
    save_coefficients,
)
from capwave.kernels import (
    Geometry,
    NumericalFailure,
    PenaltyWeights,
    _gram_for,
    optimize,
)
from capwave.transforms import (
    _RUN_WIDTH,
    NoiseSpec,
    add_noise,
    approximate_coefficients,
    relative_error,
    upward_continue,
)
from capwave.vector_field import VectorCoefficients


def tiny_config(**overrides):
    base = dict(
        scaling_degree=6, kappa=1.5, kernel_rho=0.5, region_rho=1.0,
        model_degree=9, model_seed=3, noise_degree=10,
        beta=(1.0,), alpha_tilde=(10.0,), alpha_ratio=(1.0,),
        epsilon1=(0.05,), gamma=(1.0,), seeds=(0,),
        shannon_degrees=(0, 6), tsvd_degrees=(3, 6, 9),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def reduced_config(**overrides):
    base = dict(
        scaling_degree=30, kappa=4 / 3, kernel_rho=0.5, region_rho=1.0,
        model_degree=40, model_seed=7, noise_degree=44,
        shannon_degrees=(0, 10, 20, 30), tsvd_degrees=(30, 40),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_defaults_mirror_reference_protocol(self):
        cfg = ExperimentConfig()
        g = cfg.geometry
        assert (g.r, g.R, g.N, g.kN) == (6371.2, 7071.2, 80, 100)
        assert cfg.epsilon1 == (0.001, 0.01, 0.05, 0.1)
        assert cfg.gamma == (1.0, 2.0, 5.0)
        assert len(cfg.beta) == 6 and len(cfg.alpha_tilde) == 8
        assert cfg.alpha_ratio == (1.0, 5.0)
        assert cfg.tsvd_degrees == (50, 60, 70, 80, 100)

    def test_region_property(self):
        cfg = tiny_config(region_rho=0.8)
        region = cfg.region
        assert region.data_rho == 0.8
        assert region.kernel_rho == 0.5
        assert region.eval_rho == pytest.approx(0.3)

    def test_lists_normalized_to_tuples(self):
        cfg = tiny_config(beta=[1.0, 2.0], seeds=[3, 4])
        assert cfg.beta == (1.0, 2.0)
        assert cfg.seeds == (3, 4)

    @pytest.mark.parametrize("bad", [
        dict(seeds=()),
        dict(epsilon1=(-0.1,)),
        dict(beta=(0.0,)),
        dict(alpha_tilde=()),
        dict(gamma=(0.0,)),
        dict(shannon_degrees=(7,)),
        dict(tsvd_degrees=(10,)),
        dict(model_degree=-1),
        dict(noise_degree=0),
        dict(out=""),
        dict(case="tensor"),
        dict(kappa=1.0),
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            tiny_config(**bad)

    @pytest.mark.parametrize("name, values", [
        ("beta", (1.0, 1.0)),
        ("alpha_tilde", (10.0, 1.0, 10.0)),
        ("alpha_ratio", (1.0, 1)),
        ("epsilon1", (0.0, -0.0)),
        ("gamma", (2.0, 2.0)),
        ("seeds", (3, 3)),
        ("shannon_degrees", (0, 6, 0)),
        ("tsvd_degrees", (6, 6)),
    ])
    def test_repeated_list_value_rejected(self, name, values):
        # a repeat would sweep its cells or methods twice and write
        # duplicate rows, counted twice by any per-cell statistic
        with pytest.raises(ValueError, match=f"^{name} lists a value twice$"):
            tiny_config(**{name: values})


class TestBuildModel:
    def test_degree_zero_reproducible(self):
        cfg = tiny_config(model_degree=0)
        a = build_model(cfg)
        b = build_model(cfg)
        assert a.n_max == 0 and a.data.size == 1
        assert a.data[0] == b.data[0] != 0.0

    def test_scalar_reproducible_and_seed_sensitive(self):
        a = build_model(tiny_config(model_degree=12))
        b = build_model(tiny_config(model_degree=12))
        c = build_model(tiny_config(model_degree=12, model_seed=4))
        assert np.array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)
        assert a.radius == 6371.2

    def test_degree_prefix_is_stable(self):
        low = build_model(tiny_config(model_degree=3))
        high = build_model(tiny_config(model_degree=5))
        assert np.array_equal(high.data[: low.data.size], low.data)

    def test_full_degree_model_is_finite(self):
        cfg = tiny_config(model_degree=100)
        model = build_model(cfg)
        assert model.n_max == 100
        norm = model.l2_norm()
        assert np.isfinite(norm) and norm > 0
        other = build_model(tiny_config(model_degree=100, model_seed=8))
        assert not np.array_equal(model.data, other.data)

    def test_power_law_damping(self):
        model = build_model(tiny_config(model_degree=60))
        lo = np.mean(model.data[1:16] ** 2)
        hi = np.mean(model.degree_slice(60) ** 2)
        assert hi < lo / 100.0

    def test_file_round_trip(self, tmp_path):
        model = build_model(tiny_config(model_degree=5))
        path = tmp_path / "model.txt"
        save_coefficients(model, path)
        loaded = build_model(tiny_config(model_file=str(path)))
        assert loaded.n_max == 5
        assert np.allclose(loaded.data, model.data, rtol=0, atol=1e-17)

    def test_file_radius_mismatch(self, tmp_path):
        path = tmp_path / "model.txt"
        save_coefficients(HarmonicCoefficients(1.0, 2), path)
        with pytest.raises(ValueError, match="radius"):
            build_model(tiny_config(model_file=str(path)))

    @pytest.mark.parametrize("case", ["scalar", "vector"])
    def test_file_of_the_other_kind_rejected(self, tmp_path, case):
        other = "vector" if case == "scalar" else "scalar"
        path = tmp_path / "model.txt"
        save_coefficients(build_model(tiny_config(case=other, model_degree=3)), path)
        with pytest.raises(ConfigError, match=f"model file holds a {other} field"):
            build_model(tiny_config(case=case, model_file=str(path)))

    def test_vector_synthetic(self):
        cfg = tiny_config(case="vector", model_degree=6)
        model = build_model(cfg)
        assert isinstance(model, VectorCoefficients)
        assert model.data.shape == (2, 49) and model.data[1, 0] == 0.0
        again = build_model(cfg)
        assert np.array_equal(model.data, again.data)
        assert np.all(np.isfinite(model.data))

    def test_vector_draw_order(self):
        # 2L - 1 normals, type 1 and then type 2 from degree 1, each times
        # the reciprocal 1 / max(n, 1): the bits of an independent draw
        cfg = tiny_config(case="vector", model_degree=6)
        model = build_model(cfg)
        gen = np.random.Generator(np.random.Philox(key=[cfg.model_seed, _MODEL_STREAM]))
        n = np.repeat(np.arange(7), 2 * np.arange(7) + 1)
        n = np.concatenate([n, n[1:]])
        expected = gen.standard_normal(n.size) * (1.0 / np.maximum(n, 1))
        got = np.concatenate([model.data[0], model.data[1, 1:]])
        assert got.tobytes() == expected.tobytes()


class TestShannonReference:
    def test_full_cut_matches_shannon_pair(self):
        g = tiny_config().geometry
        # the sharp-cutoff pair: phi = 1/sigma up to N, phi_tilde = 1 up to
        # kN, so the wavelet symbols are the indicator of N+1..kN
        ref = shannon_reference_pair(g, g.N)
        band = np.zeros(g.kN + 1)
        band[g.N + 1 :] = 1.0
        assert np.allclose(ref.phi.values, 1.0 / g.sigmas(g.N), rtol=1e-15)
        assert np.array_equal(ref.phi_tilde.values, np.ones(g.kN + 1))
        assert np.allclose(ref.psi_tilde.values, band, rtol=0, atol=1e-12)

    def test_zero_cut_is_pure_wavelet(self):
        g = tiny_config().geometry
        pair = shannon_reference_pair(g, 0)
        assert pair.phi.values[0] == 1.0
        assert np.all(pair.phi.values[1:] == 0.0)
        assert abs(pair.psi_tilde.values[0]) < 1e-15
        assert np.allclose(pair.psi_tilde.values[1:], 1.0, atol=1e-12)

    def test_band_split_at_general_cut(self):
        g = tiny_config().geometry
        pair = shannon_reference_pair(g, 4)
        psi = pair.psi_tilde.values
        assert np.max(np.abs(psi[:5])) < 1e-12
        assert np.allclose(psi[5:], 1.0, atol=1e-12)

    def test_cut_out_of_range(self):
        g = tiny_config().geometry
        with pytest.raises(ValueError, match="M"):
            shannon_reference_pair(g, g.N + 1)


class TestRunTable:
    def test_row_grid_shape_and_order(self):
        cfg = tiny_config(epsilon1=(0.0, 0.05), seeds=(0, 1),
                          beta=(1.0, 10.0))
        rows = run_table(cfg)
        assert len(rows) == 2 * 2 * (2 + 2)
        keys = [(r.epsilon1, r.gamma, r.seed, r.method, r.beta) for r in rows]
        assert len(set(keys)) == len(keys)
        assert keys == sorted(keys, key=lambda k: (k[0], k[1], k[2]))
        assert all(r.status == "ok" for r in rows)

    def test_row_carries_config_coordinates(self):
        rows = run_table(tiny_config())
        row = rows[0]
        assert (row.case, row.rho, row.region_rho) == ("scalar", 0.5, 1.0)
        assert (row.scaling_degree, row.band_degree) == (6, 9)
        assert (row.model_degree, row.noise_degree) == (9, 10)

    def test_matches_library_pipeline_exactly(self):
        cfg = tiny_config(epsilon1=(0.05,), gamma=(2.0,), seeds=(4,),
                          shannon_degrees=(0,))
        row = next(r for r in run_table(cfg) if r.method == "optimized")
        g = cfg.geometry
        region = cfg.region
        model = build_model(cfg)
        pair = optimize(g, PenaltyWeights.uniform(g, 10.0, 10.0, 1.0))
        spec = NoiseSpec(0.05, 0.1, 10, 4)
        f1 = add_noise(upward_continue(model, g.R), spec, "sphere")
        f2 = add_noise(model, spec, region)
        err = relative_error(
            model, approximate_coefficients(pair, f1, f2, region), region)
        assert row.relative_error == err

    def test_noise_free_full_cap_shannon_is_exact(self):
        cfg = tiny_config(kernel_rho=2.0, region_rho=2.0, epsilon1=(0.0,),
                          shannon_degrees=(0, 3, 6))
        rows = run_table(cfg)
        shannon = [r for r in rows if r.method.startswith("shannon")]
        assert len(shannon) == 3
        assert max(r.relative_error for r in shannon) < 1e-8

    def test_noise_free_full_cap_every_method(self):
        cfg = tiny_config(kernel_rho=2.0, region_rho=2.0, epsilon1=(0.0,),
                          beta=(0.001, 1.0, 100.0), alpha_tilde=(0.01, 10.0),
                          alpha_ratio=(1.0, 5.0), shannon_degrees=(0, 3, 6))
        rows = run_table(cfg)
        assert len(rows) == 3 * 2 * 2 + 3
        assert max(r.relative_error for r in rows) < 1e-6

    def test_identical_csv_bytes(self, tmp_path):
        cfg = tiny_config(epsilon1=(0.0, 0.05), seeds=(1, 0))
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_table(run_table(cfg), a)
        write_table(run_table(cfg), b)
        assert a.read_bytes() == b.read_bytes()

    def test_csv_bytes_from_cold_and_warm_norm_operator(self, tmp_path):
        # the caps' norm operators, the model's kept norms and the Gram are
        # memoized across runs: a run that builds them and one that finds
        # them built write the same bytes
        cfg = reduced_config(epsilon1=(0.0, 0.01), gamma=(2.0,), seeds=(3,),
                             beta=(1.0,), alpha_tilde=(100.0,), alpha_ratio=(1.0,))
        cold, warm = tmp_path / "cold.csv", tmp_path / "warm.csv"
        memos = (_cap_factor, _cap_norm_by_content, _gram_for)
        for memo in memos:
            memo.cache_clear()
        write_table(run_table(cfg), cold)
        built = [memo.cache_info().misses for memo in memos]
        write_table(run_table(cfg), warm)
        # the data cap's for noise, and the evaluation cap's at the run's
        # degree and at the model's, which noise-free cells score at; the
        # model's norm on each of those; one Gram
        assert built == [3, 3, 1]
        assert [memo.cache_info().misses for memo in memos] == built
        assert cold.read_bytes() == warm.read_bytes()

    def test_sweep_order_does_not_change_values(self, tmp_path):
        cfg = tiny_config(epsilon1=(0.05, 0.0), seeds=(1, 0),
                          shannon_degrees=(6, 0))
        permuted = tiny_config(epsilon1=(0.0, 0.05), seeds=(0, 1),
                               shannon_degrees=(0, 6))
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_table(run_table(cfg), a)
        write_table(run_table(permuted), b)
        assert a.read_bytes() == b.read_bytes()

    def test_optimizer_failure_recorded_in_row(self, monkeypatch):
        import capwave.experiments as exp

        real = optimize

        def flaky(geometry, w, targets=None):
            if w.beta == 13.0:
                raise NumericalFailure("synthetic breakdown")
            return real(geometry, w, targets=targets)

        monkeypatch.setattr(exp, "optimize", flaky)
        rows = run_table(tiny_config(beta=(1.0, 13.0)))
        bad = [r for r in rows if r.beta == 13.0]
        good = [r for r in rows if r.beta != 13.0]
        assert bad and all(r.status.startswith("numerical-failure") for r in bad)
        assert all(r.relative_error is None for r in bad)
        assert all(r.status == "ok" for r in good)

    def test_real_optimizer_breakdown_recorded_in_row(self):
        # no monkeypatch: at weights 1e-16 the reduced system is singular
        rows = run_table(reduced_config(beta=(1e-16,), alpha_tilde=(1e-16,),
                                        alpha_ratio=(1.0,), epsilon1=(0.1,),
                                        gamma=(2.0,), seeds=(0,)))
        bad = [r for r in rows if r.method == "optimized"]
        good = [r for r in rows if r.method != "optimized"]
        assert len(bad) == 1 and len(good) == 4
        assert bad[0].status == ("numerical-failure: kernel optimizer system is "
                                 "numerically singular; the weight configuration "
                                 "is pathological")
        assert bad[0].relative_error is None and bad[0].localization_ratio is None
        assert all(r.status == "ok" and r.relative_error > 0.0 for r in good)

    def test_rows_run_the_library_chain(self, monkeypatch):
        # every row that has a kernel pair is == to relative_error of that
        # pair's approximate_coefficients on the cell's data
        import capwave.experiments as exp

        real_optimize = optimize

        def flaky(geometry, w, targets=None):
            if w.beta == 13.0:
                raise NumericalFailure("synthetic breakdown")
            return real_optimize(geometry, w, targets=targets)

        monkeypatch.setattr(exp, "optimize", flaky)
        cfg = tiny_config(beta=(1.0, 13.0), epsilon1=(0.0, 0.05), seeds=(0, 1))
        rows = run_table(cfg)
        assert len(rows) == 4 * 4
        ok = [r for r in rows if r.status == "ok"]
        assert len(ok) == 4 * 3
        g, region = cfg.geometry, cfg.region
        model = build_model(cfg)
        f1_clean = upward_continue(model, g.R)
        for row in ok:
            spec = NoiseSpec(row.epsilon1, row.gamma * row.epsilon1,
                             cfg.noise_degree, row.seed)
            f1 = add_noise(f1_clean, spec, "sphere")
            f2 = add_noise(model, spec, region)
            pair = TestScoringMatchesLibrary._pair(cfg, row)
            assert row.relative_error == relative_error(
                model, approximate_coefficients(pair, f1, f2, region), region)

    def test_vector_csv_bytes_repeat_and_ignore_sweep_order(self, tmp_path):
        cfg = tiny_config(case="vector", epsilon1=(0.05, 0.0), seeds=(1, 0),
                          shannon_degrees=(6, 0))
        permuted = tiny_config(case="vector", epsilon1=(0.0, 0.05), seeds=(0, 1),
                               shannon_degrees=(0, 6))
        paths = [tmp_path / f"{k}.csv" for k in "abc"]
        for c, path in zip((cfg, cfg, permuted), paths):
            write_table(run_table(c), path)
        data = [path.read_bytes() for path in paths]
        assert data[0] == data[1] == data[2]
        assert data[0].count(b"\r\nvector,") == 2 * 2 * 3

    def test_multipliers_computed_once_per_method(self):
        # the cap multipliers are kept by content across cells: a 2-cell
        # table computes each method's once, not once per row
        from capwave.transforms import _multipliers_by_content as memo

        for case in ("scalar", "vector"):
            memo.cache_clear()
            rows = run_table(tiny_config(case=case, beta=(1.0, 10.0), seeds=(0, 1)))
            assert len({(r.epsilon1, r.seed) for r in rows}) == 2
            info = memo.cache_info()
            assert len(rows) == 2 * 4 and info.misses == info.currsize == 4
            assert info.hits == 4

    def test_reduced_noisy_cell_ordering(self):
        self._noisy_cell_ordering("scalar")

    def test_reduced_noisy_cell_ordering_vector(self):
        self._noisy_cell_ordering("vector")

    @staticmethod
    def _noisy_cell_ordering(case):
        cfg = reduced_config(
            case=case, beta=(1.0, 10.0, 100.0), alpha_tilde=(1e3, 1e4),
            alpha_ratio=(1.0, 5.0), epsilon1=(0.1,), gamma=(1.0,),
            seeds=(0, 1, 2))
        rows = run_table(cfg)
        assert all(r.status == "ok" for r in rows)

        def best(seed, kind):
            return min(r.relative_error for r in rows
                       if r.seed == seed and r.method.startswith(kind))

        opt = statistics.median(best(s, "optimized") for s in (0, 1, 2))
        sha = statistics.median(best(s, "shannon") for s in (0, 1, 2))
        assert opt <= sha


class TestScoringMatchesLibrary:
    """Sweep rows reuse the run's Gram, multipliers and Legendre rows, yet
    every error must equal the library pipeline's bit for bit."""

    @staticmethod
    def _pair(cfg, row):
        g = cfg.geometry
        if row.method == "optimized":
            w = PenaltyWeights.uniform(g, row.alpha_tilde / row.alpha_ratio,
                                       row.alpha_tilde, row.beta)
            return optimize(g, w)
        return shannon_reference_pair(g, int(row.method.split("-")[1]))

    def _check(self, cfg):
        g = cfg.geometry
        region = cfg.region
        model = build_model(cfg)
        f1_clean = upward_continue(model, g.R)
        rows = run_table(cfg)
        assert len({(r.epsilon1, r.seed) for r in rows}) == 2
        for row in rows:
            spec = NoiseSpec(row.epsilon1, row.gamma * row.epsilon1,
                             cfg.noise_degree, row.seed)
            f1 = add_noise(f1_clean, spec, "sphere")
            f2 = add_noise(model, spec, region)
            u = approximate_coefficients(self._pair(cfg, row), f1, f2, region)
            assert row.relative_error == relative_error(model, u, region)
        for row in run_tsvd_table(cfg):
            spec = NoiseSpec(row.epsilon1, 0.0, cfg.noise_degree, row.seed)
            f1 = add_noise(f1_clean, spec, "sphere")
            M = int(row.method.split("-")[1])
            assert row.relative_error == relative_error(
                model, _tsvd_apply(g, f1, M), region)

    def test_polar_region(self):
        self._check(tiny_config(epsilon1=(0.01, 0.1), beta=(0.1, 10.0)))

    def test_off_pole_region(self):
        self._check(tiny_config(epsilon1=(0.01,), seeds=(0, 5),
                                region_center=(0.3, 0.4, 0.8)))

    def test_south_pole_region(self):
        self._check(tiny_config(epsilon1=(0.01,), seeds=(0, 5),
                                region_center=(0.0, 0.0, -1.0)))

    def test_noise_free_polar_cells(self):
        # noise-free candidates keep the model's degree, below the run's
        self._check(tiny_config(epsilon1=(0.0, 0.01), seeds=(0,)))

    def test_noise_free_off_pole_cells(self):
        self._check(tiny_config(epsilon1=(0.0, 0.01), seeds=(0,),
                                region_center=(0.3, 0.4, 0.8)))

    def test_vector_polar_region(self):
        self._check(tiny_config(case="vector", epsilon1=(0.0, 0.1), beta=(0.1, 10.0)))

    def test_vector_off_pole_region(self):
        self._check(tiny_config(case="vector", epsilon1=(0.01,), seeds=(0, 5),
                                region_center=(0.3, 0.4, 0.8)))

    @pytest.mark.parametrize("case", ["scalar", "vector"])
    def test_cells_longer_than_one_run(self, case):
        # 3 x 3 x 2 weights and 2 Shannon cuts score in three runs per cell,
        # 9 truncation cuts in two
        cfg = tiny_config(case=case, epsilon1=(0.0, 0.01), seeds=(0,),
                          region_center=(0.3, 0.4, 0.8), beta=(0.1, 1.0, 10.0),
                          alpha_tilde=(1.0, 10.0, 100.0), alpha_ratio=(1.0, 5.0),
                          tsvd_degrees=tuple(range(1, 10)))
        assert 2 * _RUN_WIDTH < 3 * 3 * 2 + 2 and _RUN_WIDTH < 9
        self._check(cfg)


class TestTsvdTable:
    def test_noise_free_full_cut_is_exact(self):
        cfg = tiny_config(epsilon1=(0.0,), tsvd_degrees=(9,))
        rows = run_tsvd_table(cfg)
        assert len(rows) == 1
        assert rows[0].relative_error < 1e-8

    def test_satellite_only_columns_empty(self):
        rows = run_tsvd_table(tiny_config())
        assert all(r.gamma is None and r.beta is None for r in rows)
        assert all(r.localization_ratio is None for r in rows)
        assert all(r.method.startswith("tsvd-") for r in rows)

    def test_noise_amplification_grows_with_cut(self):
        cfg = ExperimentConfig(
            scaling_degree=80, kappa=1.25, kernel_rho=0.5, region_rho=1.0,
            model_degree=40, model_seed=7, noise_degree=110,
            epsilon1=(0.1,), gamma=(1.0,), seeds=(0, 1, 2),
            shannon_degrees=(0,), tsvd_degrees=(50, 80, 100))
        rows = run_tsvd_table(cfg)

        def med(m):
            return statistics.median(r.relative_error for r in rows
                                     if r.method == f"tsvd-{m}")

        e50, e80, e100 = med(50), med(80), med(100)
        assert e50 < e80 < e100
        expected = (7071.2 / 6371.2) ** 20
        assert expected / 3.0 < e100 / e80 < expected * 3.0

    def test_vector_noise_amplification_grows_with_cut(self):
        # a gradient field's sigma_n is (r/R)^(n+1), so the amplification
        # ratio of two cuts is the scalar one
        cfg = ExperimentConfig(
            case="vector", scaling_degree=80, kappa=1.25, kernel_rho=0.5,
            region_rho=1.0, model_degree=40, model_seed=7, noise_degree=110,
            epsilon1=(0.1,), gamma=(1.0,), seeds=(0, 1, 2),
            shannon_degrees=(0,), tsvd_degrees=(50, 80, 100))
        rows = run_tsvd_table(cfg)
        assert all(r.case == "vector" and r.status == "ok" for r in rows)

        def med(m):
            return statistics.median(r.relative_error for r in rows
                                     if r.method == f"tsvd-{m}")

        e50, e80, e100 = med(50), med(80), med(100)
        assert e50 < e80 < e100
        expected = (7071.2 / 6371.2) ** 20
        assert expected / 3.0 < e100 / e80 < expected * 3.0


class TestWriteTable:
    def test_header_and_float_round_trip(self, tmp_path):
        rows = run_table(tiny_config())
        path = tmp_path / "t.csv"
        write_table(rows, path)
        with open(path, newline="") as fh:
            records = list(csv.reader(fh))
        assert records[0] == list(TABLE_COLUMNS)
        assert "wall_time_s" not in records[0]
        assert len(records) == len(rows) + 1
        err_col = records[0].index("relative_error")
        parsed = sorted(float(rec[err_col]) for rec in records[1:])
        exact = sorted(r.relative_error for r in rows)
        assert parsed == exact

    def test_quoting_and_empty_cells(self, tmp_path):
        row = ResultRow(
            case="scalar", rho=0.5, region_rho=1.0, scaling_degree=6,
            band_degree=9, model_degree=9, noise_degree=10, epsilon1=0.1,
            gamma=None, seed=0, method="tsvd-6", beta=None, alpha_tilde=None,
            alpha_ratio=None, relative_error=None, localization_ratio=None,
            status="numerical-failure: a, b")
        path = tmp_path / "t.csv"
        write_table([row], path)
        text = path.read_text()
        assert '"numerical-failure: a, b"' in text
        with open(path, newline="") as fh:
            rec = list(csv.reader(fh))[1]
        cols = list(TABLE_COLUMNS)
        assert rec[cols.index("gamma")] == ""
        assert rec[cols.index("relative_error")] == ""
        assert rec[cols.index("status")] == "numerical-failure: a, b"


class TestSpectra:
    def test_shannon_steps(self, tmp_path):
        g = tiny_config().geometry
        path = tmp_path / "s.csv"
        export_spectra(shannon_reference_pair(g, 3), path)
        d = read_spectra(path)
        assert np.array_equal(d["n"], np.arange(10))
        assert np.allclose(d["phi_sigma"], (np.arange(10) <= 3), atol=1e-12)
        assert np.array_equal(d["phi_tilde"], np.ones(10))
        assert np.allclose(d["psi_tilde"], (np.arange(10) > 3), atol=1e-12)

    def test_reload_equals_export(self, tmp_path):
        g = Geometry(6371.2, 7071.2, 10, kappa=1.5, rho=0.5)
        pair = optimize(g, PenaltyWeights.uniform(g, 5.0, 5.0, 0.1))
        path = tmp_path / "s.csv"
        export_spectra(pair, path)
        d = read_spectra(path)
        assert np.array_equal(d["phi_tilde"], pair.phi_tilde.values)
        assert np.array_equal(d["psi_tilde"], pair.psi_tilde.values)
        sig = g.sigmas(g.N)
        assert np.array_equal(d["phi_sigma"][:11], pair.phi.values * sig)
        assert np.all(d["phi_sigma"][11:] == 0.0)

    def test_coupling_identity_in_file(self, tmp_path):
        g = Geometry(6371.2, 7071.2, 10, kappa=1.5, rho=0.5)
        pair = optimize(g, PenaltyWeights.uniform(g, 5.0, 5.0, 0.1))
        path = tmp_path / "s.csv"
        export_spectra(pair, path)
        d = read_spectra(path)
        gap = d["phi_tilde"][:11] - d["phi_sigma"][:11] - d["psi_tilde"][:11]
        assert np.max(np.abs(gap)) < 1e-12

    def test_optimized_trend_is_damped_below_band(self, tmp_path):
        g = Geometry(6371.2, 7071.2, 20, kappa=1.25, rho=0.5)
        pair = optimize(g, PenaltyWeights.localization_pattern(g, beta=1.0))
        path = tmp_path / "s.csv"
        export_spectra(pair, path)
        psi = read_spectra(path)["psi_tilde"]
        low = np.sum(psi[:11] ** 2)
        assert low < 1e-6 * np.sum(psi ** 2)

    def test_header_validation(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("n,phi,psi\n0,1,1\n")
        with pytest.raises(ValueError, match="header"):
            read_spectra(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("n,phi_sigma,phi_tilde,psi_tilde\n")
        with pytest.raises(ValueError, match="no data"):
            read_spectra(path)
