"""Command-line front end: one flat config file drives every subcommand.

Config files are line-oriented `key = value` text. `#` starts a comment,
blank lines are skipped, list values are whitespace-separated, and unknown
or duplicate keys are hard errors, so a typo cannot silently fall back to a
default. Each key's parser comes from its ExperimentConfig field. Exit codes: 0 on success, 2 for any configuration problem (an
output path that cannot be written among them), 3 when the kernel
optimization fails numerically, 4 when the command itself rejects its
inputs (a ValueError such as a model that is zero on the evaluation
region).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import fields, replace

from .experiments import (
    ConfigError,
    ExperimentConfig,
    _item_type,
    build_model,
    export_spectra,
    run_table,
    run_tsvd_table,
    write_table,
)
from .harmonics import save_coefficients
from .kernels import (
    NumericalFailure,
    PenaltyWeights,
    _gram_for,
    optimize,
    save_pair_csv,
    shannon_reference_pair,
    tsvd_symbols,
)
from .transforms import NoiseSpec, add_noise, approximate_coefficients, \
    relative_error, upward_continue

__all__ = ["ConfigError", "parse_config", "load_config", "main"]


# ---------------------------------------------------------------------------
# config file parsing


def _parse_list(item):
    """Parser of a nonempty whitespace-separated list of item values."""
    def parse(text: str) -> tuple:
        items = text.split()
        if not items:
            raise ValueError("expected at least one value")
        return tuple(item(x) for x in items)
    return parse


def _parse_center(text: str) -> tuple[float, float, float]:
    items = text.split()
    if len(items) != 3:
        raise ValueError("region_center needs exactly three components")
    return tuple(float(x) for x in items)


# one parser per ExperimentConfig field: a tuple default takes a list of its
# items' type, any other default its own type
_PARSERS = {
    f.name: _parse_list(_item_type(f)) if isinstance(f.default, tuple) else _item_type(f)
    for f in fields(ExperimentConfig)
}
_PARSERS["region_center"] = _parse_center


def parse_config(text: str) -> ExperimentConfig:
    """Config object from `key = value` text; unknown keys are rejected."""
    kwargs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected `key = value`")
        key = key.strip()
        value = value.strip()
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if key in kwargs:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        try:
            kwargs[key] = _PARSERS[key](value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for '{key}': {exc}") from exc
    try:
        return ExperimentConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config(text)


# ---------------------------------------------------------------------------
# subcommands


def _single(values, name: str, command: str):
    if len(values) != 1:
        raise ConfigError(
            f"the {command} command needs exactly one {name} value, "
            f"got {len(values)}"
        )
    return values[0]


def _single_weights(config: ExperimentConfig, command: str) -> PenaltyWeights:
    beta = _single(config.beta, "beta", command)
    alpha_tilde = _single(config.alpha_tilde, "alpha_tilde", command)
    ratio = _single(config.alpha_ratio, "alpha_ratio", command)
    return PenaltyWeights.uniform(
        config.geometry, alpha_tilde / ratio, alpha_tilde, beta)


def _check_writable(path) -> None:
    """Raise ConfigError unless path opens for writing. A file the check
    creates is removed again, so a command that fails later leaves none."""
    existed = os.path.lexists(path)
    try:
        with open(path, "a", encoding="ascii"):
            pass
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
    if not existed:
        os.remove(path)


def _cmd_gram(config: ExperimentConfig) -> int:
    geometry = config.geometry
    gram = _gram_for(geometry.case, geometry.kN, geometry.rho)
    with open(config.out, "w", encoding="ascii", newline="") as fh:
        fh.write("n,m,value\n")
        for n, row in enumerate(gram):
            for m, value in enumerate(row):
                fh.write(f"{n},{m},{value:.17g}\n")
    print(f"wrote {gram.size} gram entries to {config.out}")
    return 0


def _cmd_optimize(config: ExperimentConfig) -> int:
    pair = optimize(config.geometry, _single_weights(config, "optimize"))
    save_pair_csv(pair, config.out)
    print(f"wrote optimized kernel pair to {config.out}")
    return 0


def _cmd_shannon(config: ExperimentConfig) -> int:
    geometry = config.geometry
    save_pair_csv(shannon_reference_pair(geometry, geometry.N), config.out)
    print(f"wrote Shannon kernel pair to {config.out}")
    return 0


def _cmd_tsvd(config: ExperimentConfig) -> int:
    M = _single(config.tsvd_degrees, "tsvd_degrees", "tsvd")
    symbols = tsvd_symbols(config.geometry, M)
    with open(config.out, "w", encoding="ascii", newline="") as fh:
        fh.write("n,value\n")
        for n in range(symbols.n_max + 1):
            fh.write(f"{n},{symbols.values[n]:.17g}\n")
    print(f"wrote truncation symbols up to degree {M} to {config.out}")
    return 0


def _cmd_approximate(config: ExperimentConfig) -> int:
    eps1 = _single(config.epsilon1, "epsilon1", "approximate")
    gamma = _single(config.gamma, "gamma", "approximate")
    seed = _single(config.seeds, "seeds", "approximate")
    geometry = config.geometry
    region = config.region
    model = build_model(config)
    spec = NoiseSpec(eps1, gamma * eps1, config.noise_degree, seed)
    f1 = add_noise(upward_continue(model, geometry.R), spec, "sphere")
    f2 = add_noise(model, spec, region)
    pair = optimize(geometry, _single_weights(config, "approximate"))
    u = approximate_coefficients(pair, f1, f2, region)
    save_coefficients(u, config.out)
    err = relative_error(model, u, region)
    print(f"wrote approximation coefficients to {config.out}")
    print(f"relative_error = {err:.17g}")
    return 0


def _cmd_table(config: ExperimentConfig) -> int:
    return _write_rows(run_table(config), config.out)


def _cmd_tsvd_table(config: ExperimentConfig) -> int:
    return _write_rows(run_tsvd_table(config), config.out)


def _write_rows(rows, path) -> int:
    write_table(rows, path)
    print(f"wrote {len(rows)} rows to {path}")
    return 0


def _cmd_spectra(config: ExperimentConfig) -> int:
    pair = optimize(config.geometry, _single_weights(config, "spectra"))
    export_spectra(pair, config.out)
    print(f"wrote kernel spectra to {config.out}")
    return 0


# Each subcommand's function and help text, in --help order.
_COMMANDS = {
    "gram": (_cmd_gram,
             "write the cap-exterior Gram matrix of the configured geometry"),
    "optimize": (_cmd_optimize,
                 "solve for one optimized kernel pair and write its symbols"),
    "shannon": (_cmd_shannon,
                "write the Shannon reference pair for the configured geometry"),
    "tsvd": (_cmd_tsvd,
             "write hard-truncation inversion symbols for one cut-off degree"),
    "approximate": (_cmd_approximate,
                    "run one noisy reconstruction and write its coefficients"),
    "table": (_cmd_table,
              "sweep noise cells and methods, write the comparison table"),
    "tsvd-table": (_cmd_tsvd_table,
                   "sweep satellite-only truncation errors, write the table"),
    "spectra": (_cmd_spectra,
                "optimize one pair and write its degree-wise spectra"),
}


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args keeps
    no state between calls, so each call sees only its own arguments."""
    parser = argparse.ArgumentParser(
        prog="capwave",
        description="two-step reconstruction of a harmonic field from "
                    "outer-sphere and cap-local data",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to a `key = value` config file")
        p.add_argument("--seed", type=int, default=None,
                       help="replace the configured seeds list with one seed")
        p.add_argument("--out", default=None,
                       help="override the configured output path")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        config = load_config(args.config)
        if args.seed is not None:
            config = replace(config, seeds=(args.seed,))
        if args.out is not None:
            config = replace(config, out=args.out)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        _check_writable(config.out)
        return _COMMANDS[args.command][0](config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
