"""Tests for config parsing, subcommands, output files, and exit codes."""

import csv
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import capwave
from capwave.cli import ConfigError, load_config, main, parse_config
from capwave.experiments import ExperimentConfig, build_model, read_spectra
from capwave.harmonics import (
    HarmonicCoefficients,
    VectorCoefficients,
    load_coefficients,
    save_coefficients,
)
from capwave.kernels import NumericalFailure, gram_scalar, tsvd_symbols
from capwave.transforms import relative_error

TINY = """
# smoke geometry
case = scalar
r_km = 6371.2
R_km = 7071.2
scaling_degree = 6
kappa = 1.5
kernel_rho = 0.5
region_rho = 1.0
model_degree = 9
model_seed = 3
noise_degree = 10
beta = 1.0
alpha_tilde = 10.0
alpha_ratio = 1
epsilon1 = 0.05
gamma = 1
seeds = 0
shannon_degrees = 0 6
tsvd_degrees = 6
out = out.csv
"""


@pytest.fixture
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY)
    return path


class TestParseConfig:
    def test_happy_path(self):
        cfg = parse_config(TINY)
        assert cfg.geometry.kN == 9
        assert cfg.beta == (1.0,)
        assert cfg.seeds == (0,)
        assert cfg.out == "out.csv"

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("# only a comment\n\nkappa = 1.5   # trailing\n")
        assert cfg.kappa == 1.5

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="line 2: unknown key 'bogus'"):
            parse_config("kappa = 1.5\nbogus = 1\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="line 2: duplicate"):
            parse_config("kappa = 1.5\nkappa = 1.5\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("kappa 1.5\n")

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="line 1: bad value for 'kappa'"):
            parse_config("kappa = fast\n")

    def test_bad_center(self):
        with pytest.raises(ConfigError, match="three components"):
            parse_config("region_center = 0 1\n")

    def test_semantic_error_becomes_config_error(self):
        with pytest.raises(ConfigError, match="shannon_degrees"):
            parse_config("scaling_degree = 6\nkappa = 1.5\n"
                         "shannon_degrees = 7\n")

    def test_defaults_round_trip_through_config_text(self):
        # every key's parser comes from its ExperimentConfig default, so
        # the defaults written out as text parse back to the defaults
        def text(value):
            if isinstance(value, tuple):
                return " ".join(text(v) for v in value)
            return format(value, ".17g") if isinstance(value, float) else str(value)

        default = ExperimentConfig()
        lines = [f"{f.name} = {text(getattr(default, f.name))}" for f in fields(default)]
        parsed = parse_config("\n".join(lines) + "\n")
        assert parsed == default
        assert [type(getattr(parsed, f.name)) for f in fields(default)] == \
            [type(getattr(default, f.name)) for f in fields(default)]

    def test_float_key_takes_an_integer_literal(self):
        cfg = parse_config("r_km = 6371\n")
        assert cfg.r_km == 6371.0 and type(cfg.r_km) is float

    def test_int_key_rejects_a_fraction(self):
        with pytest.raises(ConfigError, match="line 1: bad value for 'model_degree'"):
            parse_config("model_degree = 1.5\n")

    def test_empty_list_value(self):
        with pytest.raises(ConfigError, match="at least one value"):
            parse_config("beta =\n")

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.cfg")


class TestShippedConfigs:
    CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

    def test_reduced(self):
        cfg = load_config(self.CONFIG_DIR / "reduced.cfg")
        g = cfg.geometry
        assert (g.N, g.kN) == (30, 40)
        assert cfg.model_degree == 40 and cfg.noise_degree == 44
        assert cfg.epsilon1 == (0.001, 0.01, 0.05, 0.1)
        assert cfg.gamma == (1.0, 2.0, 5.0)

    def test_full(self):
        cfg = load_config(self.CONFIG_DIR / "full.cfg")
        g = cfg.geometry
        assert (g.N, g.kN) == (80, 100)
        assert cfg.model_degree == 100 and cfg.noise_degree == 110
        assert cfg.shannon_degrees == (0, 30, 50, 80)
        assert cfg.tsvd_degrees == (50, 60, 70, 80, 100)


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("bogus = 1\n")
        assert main(["table", str(bad)]) == 2
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["table", "tsvd-table"])
    def test_repeated_list_value_is_2_and_writes_nothing(self, tmp_path, capsys,
                                                         command):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text(TINY.replace("seeds = 0", "seeds = 0 0"))
        out = tmp_path / "t.csv"
        assert main([command, str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "config error: seeds lists a value twice\n"
        assert captured.out == ""
        assert not out.exists()

    def test_missing_config_is_2(self, tmp_path, capsys):
        assert main(["table", str(tmp_path / "none.cfg")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_numerical_failure_is_3(self, tiny_cfg, tmp_path, monkeypatch, capsys):
        import capwave.cli as cli

        def explode(geometry, w, targets=None, gram=None):
            raise NumericalFailure("synthetic breakdown")

        monkeypatch.setattr(cli, "optimize", explode)
        code = main(["optimize", str(tiny_cfg),
                     "--out", str(tmp_path / "pair.csv")])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_command_error_is_4_not_a_config_error(self, tiny_cfg, tmp_path,
                                                   monkeypatch, capsys):
        # a numerical ValueError from the command is not the config's fault
        import capwave.cli as cli

        def zero_model(config):
            return HarmonicCoefficients(config.r_km, config.model_degree)

        monkeypatch.setattr(cli, "build_model", zero_model)
        code = main(["approximate", str(tiny_cfg), "--out", str(tmp_path / "u.txt")])
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("error: ") and "reference field is zero on the cap" in err
        assert "config error" not in err

    @pytest.mark.parametrize("command", ["table", "tsvd-table"])
    def test_zero_model_table_is_4_and_writes_nothing(self, tiny_cfg, tmp_path,
                                                       monkeypatch, capsys, command):
        # a sweep fails on a model that is zero on the evaluation region
        # before it scores any row
        import capwave.experiments as experiments

        def zero_model(config):
            return HarmonicCoefficients(config.r_km, config.model_degree)

        optimized = []

        def counted_optimize(*args, **kwargs):
            optimized.append(args)
            return real_optimize(*args, **kwargs)

        real_optimize = experiments.optimize
        monkeypatch.setattr(experiments, "build_model", zero_model)
        monkeypatch.setattr(experiments, "optimize", counted_optimize)
        out = tmp_path / "t.csv"
        assert main([command, str(tiny_cfg), "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.err == "error: reference field is zero on the cap\n"
        assert captured.out == ""
        assert not out.exists()
        # the model is checked before any kernel pair is optimized
        assert len(optimized) == 0

    @pytest.mark.parametrize("command", ["gram", "table"])
    def test_unwritable_output_is_2(self, tiny_cfg, tmp_path, monkeypatch,
                                    capsys, command):
        # the output path is checked before any work: no model, no sweep
        import capwave.experiments as experiments

        def no_model(config):
            raise AssertionError("the command ran before checking its output")

        monkeypatch.setattr(experiments, "build_model", no_model)
        out = tmp_path / "missing" / "t.csv"
        assert main([command, str(tiny_cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"config error: cannot write {out}: "
                                "No such file or directory\n")
        assert captured.out == ""
        assert not out.parent.exists()

    def test_unwritable_output_exits_2_without_traceback(self, tiny_cfg, tmp_path):
        src = str(Path(capwave.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "capwave", "gram", str(tiny_cfg),
             "--out", str(tmp_path / "missing" / "g.csv")],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error: cannot write ")
        assert "Traceback" not in proc.stderr

    def test_output_check_keeps_an_existing_file(self, tiny_cfg, tmp_path,
                                                 monkeypatch, capsys):
        # checking the output path neither truncates nor deletes a file
        # that is already there when the command then fails
        import capwave.experiments as experiments

        def zero_model(config):
            return HarmonicCoefficients(config.r_km, config.model_degree)

        monkeypatch.setattr(experiments, "build_model", zero_model)
        out = tmp_path / "t.csv"
        out.write_text("old\n")
        assert main(["table", str(tiny_cfg), "--out", str(out)]) == 4
        assert out.read_text() == "old\n"

    @pytest.mark.parametrize("command, rows", [("table", 3), ("tsvd-table", 1)])
    def test_vector_case_table_is_0(self, tmp_path, capsys, command, rows):
        # sweeps run gradient fields through the same chain: TINY has one
        # cell, one optimized and two Shannon methods, and one cut
        path = tmp_path / "vector.cfg"
        path.write_text(TINY.replace("case = scalar", "case = vector"))
        out = tmp_path / "t.csv"
        assert main([command, str(path), "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote {rows} rows to {out}\n"
        with open(out, newline="") as fh:
            records = list(csv.DictReader(fh))
        assert len(records) == rows
        assert all(r["case"] == "vector" and r["status"] == "ok" for r in records)

    @pytest.mark.parametrize("key, value", [
        ("epsilon1", "nan"), ("gamma", "inf"), ("kappa", "inf"),
        ("seeds", str(2 ** 64)), ("seeds", "-1"), ("model_seed", "-1"),
        ("beta", "nan"), ("alpha_tilde", "inf"), ("R_km", "inf"),
        ("region_center", "nan 0 1"),
    ])
    @pytest.mark.parametrize("command", ["approximate", "table"])
    def test_value_a_run_cannot_carry_out_is_2(self, tmp_path, capsys, command,
                                               key, value):
        # non-finite values and seeds outside [0, 2^64) are rejected with
        # the config, before a run could print nan, overflow or warn
        kept = [line for line in TINY.splitlines()
                if line.partition("=")[0].strip() != key]
        path = tmp_path / "bad.cfg"
        path.write_text("\n".join(kept + [f"{key} = {value}"]) + "\n")
        out = tmp_path / "out.txt"
        assert main([command, str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: {key} must ")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", ["approximate", "table"])
    def test_model_file_at_wrong_radius_is_2(self, tmp_path, capsys, command):
        model = tmp_path / "model.txt"
        save_coefficients(HarmonicCoefficients(1.0, 2), model)
        path = tmp_path / "file.cfg"
        path.write_text(TINY + f"model_file = {model}\n")
        assert main([command, str(path), "--out", str(tmp_path / "t.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: model file radius 1.0 does not match")

    @pytest.mark.parametrize("command", ["approximate", "table"])
    def test_model_file_of_the_other_kind_is_2(self, tmp_path, capsys, command):
        model = tmp_path / "model.txt"
        save_coefficients(VectorCoefficients(6371.2, 2), model)
        path = tmp_path / "file.cfg"
        path.write_text(TINY + f"model_file = {model}\n")
        assert main([command, str(path), "--out", str(tmp_path / "t.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: model file holds a vector field, but case = scalar")

    @pytest.mark.parametrize("text", ["# radius_km=6371.2 n_max=2\n0 1 x\n", None])
    def test_unreadable_model_file_is_2(self, tmp_path, capsys, text):
        model = tmp_path / "model.txt"
        if text is not None:
            model.write_text(text)
        path = tmp_path / "file.cfg"
        path.write_text(TINY + f"model_file = {model}\n")
        assert main(["table", str(path), "--out", str(tmp_path / "t.csv")]) == 2
        assert capsys.readouterr().err.startswith("config error: cannot read model file")

    def test_bad_override_is_2(self, tiny_cfg, capsys):
        assert main(["table", str(tiny_cfg), "--out", ""]) == 2
        assert capsys.readouterr().err == "config error: out must name an output file\n"

    def test_multi_value_weights_rejected_for_optimize(self, tmp_path, capsys):
        path = tmp_path / "two.cfg"
        path.write_text(TINY.replace("beta = 1.0", "beta = 1.0 2.0"))
        assert main(["optimize", str(path)]) == 2
        assert "exactly one beta" in capsys.readouterr().err


class TestCommands:
    @pytest.mark.parametrize("command", ["optimize", "spectra", "approximate", "gram"])
    def test_full_sphere_kernel_cap(self, tmp_path, command):
        # kernel_rho = region_rho = 2: global ground data and an empty cap
        # exterior, whose Gram is zero
        path = tmp_path / "global.cfg"
        path.write_text(TINY.replace("kernel_rho = 0.5", "kernel_rho = 2")
                        .replace("region_rho = 1.0", "region_rho = 2"))
        out = tmp_path / "out.csv"
        assert main([command, str(path), "--out", str(out)]) == 0
        if command == "gram":
            with open(out, newline="") as fh:
                records = list(csv.reader(fh))
            assert records[0] == ["n", "m", "value"] and len(records) == 1 + 100
            assert all(float(rec[2]) == 0.0 for rec in records[1:])

    @pytest.mark.parametrize("command", ["approximate", "table"])
    def test_model_file_within_radius_tolerance(self, tmp_path, capsys, command):
        # a file radius 1e-12 relative off r_km passes build_model's check,
        # and so every later radius check
        rng = np.random.default_rng(5)
        model = tmp_path / "model.txt"
        save_coefficients(HarmonicCoefficients(6371.2 * (1.0 + 1e-12), 9,
                                               rng.standard_normal(100)), model)
        assert load_coefficients(model).radius != 6371.2
        path = tmp_path / "file.cfg"
        path.write_text(TINY + f"model_file = {model}\n")
        out = tmp_path / "out.csv"
        assert main([command, str(path), "--out", str(out)]) == 0
        if command == "table":
            with open(out, newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == 3 and all(r["status"] == "ok" for r in rows)

    def test_table(self, tiny_cfg, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert main(["table", str(tiny_cfg), "--out", str(out)]) == 0
        assert "wrote 3 rows" in capsys.readouterr().out
        with open(out, newline="") as fh:
            records = list(csv.reader(fh))
        assert records[0][0] == "case"
        assert len(records) == 4

    def test_table_seed_override(self, tiny_cfg, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["table", str(tiny_cfg), "--seed", "5",
                     "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            records = list(csv.reader(fh))
        seed_col = records[0].index("seed")
        assert {rec[seed_col] for rec in records[1:]} == {"5"}

    def test_table_determinism(self, tiny_cfg, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["table", str(tiny_cfg), "--out", str(a)]) == 0
        assert main(["table", str(tiny_cfg), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_off_pole_table_determinism(self, tmp_path):
        cfg = tmp_path / "off.cfg"
        cfg.write_text(TINY + "region_center = 0.3 0.4 0.8\n")
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["table", str(cfg), "--out", str(a)]) == 0
        assert main(["table", str(cfg), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_tsvd_table(self, tiny_cfg, tmp_path):
        out = tmp_path / "tt.csv"
        assert main(["tsvd-table", str(tiny_cfg), "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            records = list(csv.reader(fh))
        method_col = records[0].index("method")
        assert records[1][method_col] == "tsvd-6"

    @pytest.mark.parametrize("command, name", [("table", "run_table"),
                                               ("tsvd-table", "run_tsvd_table")])
    def test_table_commands_call_the_module_binding(self, tiny_cfg, tmp_path,
                                                    monkeypatch, command, name):
        # the commands look their run up when called, so a wrapper bound
        # into cli afterwards (as a call tracer does) sees every run
        import capwave.cli as cli

        calls = []
        real = getattr(cli, name)

        def counted(config):
            calls.append(config.out)
            return real(config)

        monkeypatch.setattr(cli, name, counted)
        out = tmp_path / "t.csv"
        assert main([command, str(tiny_cfg), "--out", str(out)]) == 0
        assert calls == [str(out)]

    def test_optimize_writes_pair(self, tiny_cfg, tmp_path):
        out = tmp_path / "pair.csv"
        assert main(["optimize", str(tiny_cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,phi,phi_tilde,psi_tilde"
        assert len(lines) == 11

    def test_shannon_writes_pair(self, tiny_cfg, tmp_path):
        out = tmp_path / "sh.csv"
        assert main(["shannon", str(tiny_cfg), "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        first = rows[0].split(",")
        assert float(first[1]) == 1.0 and float(first[3]) == 0.0

    def test_gram_matches_library(self, tiny_cfg, tmp_path):
        out = tmp_path / "g.csv"
        assert main(["gram", str(tiny_cfg), "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            records = list(csv.reader(fh))
        assert records[0] == ["n", "m", "value"]
        assert len(records) == 1 + 100
        gram = gram_scalar(9, 0.5)
        rec = records[1 + 2 * 10 + 3]
        assert (int(rec[0]), int(rec[1])) == (2, 3)
        assert float(rec[2]) == gram[2, 3]

    def test_tsvd_symbols_file(self, tiny_cfg, tmp_path):
        out = tmp_path / "sv.csv"
        assert main(["tsvd", str(tiny_cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,value"
        values = np.array([float(l.split(",")[1]) for l in lines[1:]])
        cfg = load_config(tiny_cfg)
        assert np.array_equal(values, tsvd_symbols(cfg.geometry, 6).values)

    def test_spectra(self, tiny_cfg, tmp_path):
        out = tmp_path / "sp.csv"
        assert main(["spectra", str(tiny_cfg), "--out", str(out)]) == 0
        d = read_spectra(out)
        assert d["n"].size == 10
        gap = d["phi_tilde"][:7] - d["phi_sigma"][:7] - d["psi_tilde"][:7]
        assert np.max(np.abs(gap)) < 1e-12

    def test_approximate(self, tiny_cfg, tmp_path, capsys):
        out = tmp_path / "u.txt"
        assert main(["approximate", str(tiny_cfg), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "relative_error = " in printed
        coeffs = load_coefficients(out)
        assert coeffs.case == "scalar"
        assert coeffs.radius == pytest.approx(6371.2)
        assert coeffs.n_max == 10

    def test_vector_approximate_writes_gradient_field(self, tmp_path, capsys):
        # the file reads back as a gradient field, and the printed error is
        # that of the field as read
        path = tmp_path / "vector.cfg"
        path.write_text(TINY.replace("case = scalar", "case = vector"))
        out = tmp_path / "u.txt"
        assert main(["approximate", str(path), "--out", str(out)]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed[0] == f"wrote approximation coefficients to {out}"
        coeffs = load_coefficients(out)
        assert (coeffs.radius, coeffs.n_max, coeffs.data.shape) == (6371.2, 10, (2, 121))
        cfg = load_config(path)
        err = relative_error(build_model(cfg), coeffs, cfg.region)
        assert 0.0 < err < 1.0
        assert printed[1] == f"relative_error = {err:.17g}"

    def test_module_entry_point(self, tiny_cfg, tmp_path):
        out = tmp_path / "pair.csv"
        # the child imports the same capwave as this test, installed or not
        src = str(Path(capwave.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "capwave", "shannon", str(tiny_cfg),
             "--out", str(out)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0
        assert out.exists()
