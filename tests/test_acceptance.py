"""End-to-end acceptance suite: one test per guaranteed behavior.

Each test pins a contract of the finished package: analytic Gram entries
and the surface-integration oracle, optimizer exactness and stationarity,
the closed-form Shannon energy bound, exact noise-free recovery on the
degenerate full cap, the method orderings of the noisy reduced-scale
sweeps, satellite-only noise amplification, the paper's orderings on a
full-scale slice (polar, off-pole and gradient field), monotone
localization of the optimized wavelet, the gradient-field identities, and
byte-level determinism of the table command. Run with -v for one line per
behavior.
"""

import dataclasses
import math
import statistics
from pathlib import Path

import numpy as np
import pytest

from capwave.cli import load_config, main
from capwave.experiments import (
    ExperimentConfig,
    build_model,
    run_table,
    run_tsvd_table,
)
from capwave.harmonics import sphere_grid
from capwave.kernels import (
    Geometry,
    PenaltyWeights,
    SymbolSet,
    full_interval_energy,
    functional_value,
    gram_scalar,
    gram_vector,
    localization_ratio,
    optimize,
    shannon_bound,
    shannon_reference_pair,
    stationarity_residual,
)
from capwave.transforms import (
    RegionSpec,
    approximate_coefficients,
    relative_error,
    upward_continue,
)
from capwave.vector_field import (
    tensor_first_moment,
    tensor_kernel_eval,
    vector_approximate_coefficients,
    vector_relative_error,
    vector_upward_continue,
    vsh,
)

import oracles

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
NORTH = (0.0, 0.0, 1.0)
EIGHT_PI_SQ = 8.0 * math.pi ** 2


def reduced_geometry(rho, case="scalar"):
    return Geometry(6371.2, 7071.2, 30, kappa=4 / 3, rho=rho, case=case)


def random_rotation(rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


# ---------------------------------------------------------------------------
# reduced-scale sweep shared by the ordering and amplification tests


@pytest.fixture(scope="module")
def reduced_sweep():
    base = dict(
        scaling_degree=30, kappa=4 / 3, kernel_rho=0.5, region_rho=1.0,
        model_degree=40, model_seed=7, noise_degree=44,
        seeds=tuple(range(10)), shannon_degrees=(0, 10, 20, 30),
        tsvd_degrees=(30, 40))
    table_a = run_table(ExperimentConfig(
        **base, epsilon1=(0.0, 0.05, 0.1), gamma=(1.0,)))
    table_b = run_table(ExperimentConfig(
        **base, epsilon1=(0.1,), gamma=(5.0,)))
    tsvd_rows = run_tsvd_table(ExperimentConfig(
        **base, epsilon1=(0.05, 0.1), gamma=(1.0,)))
    return table_a, table_b, tsvd_rows


def median_best(rows, eps, gamma, kind):
    seeds = sorted({r.seed for r in rows})
    return statistics.median(
        min(r.relative_error for r in rows
            if r.seed == s and r.epsilon1 == eps and r.gamma == gamma
            and r.method.startswith(kind) and r.relative_error is not None)
        for s in seeds)


# ---------------------------------------------------------------------------
# the pinned behaviors


def test_gram_entries_match_analytic_values_and_surface_oracle():
    scalar = gram_scalar(1, 0.5)
    assert abs(scalar[0, 0] - 0.75) < 1e-13
    assert abs(scalar[0, 1] - (-0.5625)) < 1e-13

    rho = 0.5
    gram = gram_vector(10, rho)
    oracle_matrix = oracles.vector_profile_energy_matrix(10, rho)
    rng = np.random.default_rng(11)
    for _ in range(20):
        values = rng.standard_normal(11)
        expected = EIGHT_PI_SQ * (values @ oracle_matrix @ values)
        assert values @ gram @ values == pytest.approx(expected, rel=1e-8)


def test_optimizer_matches_decoupled_oracle_and_is_stationary():
    g0 = reduced_geometry(1e-9)
    w0 = PenaltyWeights.uniform(g0, 0.1, 0.1, 0.5)
    pair = optimize(g0, w0)
    sig = g0.sigmas(g0.N)
    x = pair.phi.values * sig
    y = pair.phi_tilde.values
    for n in range(g0.kN + 1):
        gn = 2.0 * n + 1.0
        if n <= g0.N:
            a = np.array([
                [w0.alpha[n] + w0.beta / sig[n] ** 2 + gn, -gn],
                [-gn, w0.alpha_tilde[n] + gn],
            ])
            xr, yr = np.linalg.solve(a, [w0.alpha[n], w0.alpha_tilde[n]])
            assert x[n] == pytest.approx(xr, abs=1e-8)
        else:
            yr = w0.alpha_tilde[n] / (w0.alpha_tilde[n] + gn)
        assert y[n] == pytest.approx(yr, abs=1e-8)

    for rho in (0.5, 0.1, 0.01):
        g = reduced_geometry(rho)
        w = PenaltyWeights.uniform(g, 10.0, 10.0, 0.1)
        pair = optimize(g, w)
        residual = stationarity_residual(pair, w)
        assert residual < 1e-8 * (1.0 + np.linalg.norm(w.alpha))
        f_opt = functional_value(pair, w)
        f_shannon = functional_value(shannon_reference_pair(g, g.N), w)
        assert f_opt < f_shannon


def test_shannon_functional_within_closed_form_bound():
    for geometry in (reduced_geometry(0.5),
                     Geometry(6371.2, 7071.2, 80, kappa=1.25, rho=0.5)):
        beta = 0.5
        w = PenaltyWeights.uniform(geometry, 1.0, 1.0, beta)
        value = functional_value(shannon_reference_pair(geometry, geometry.N), w)
        assert value <= shannon_bound(geometry, beta)
        kn = geometry.kN
        assert sum(2 * n + 1 for n in range(kn + 1)) == (kn + 1) ** 2


def test_noise_free_full_cap_recovery_scalar_and_vector():
    region = RegionSpec(NORTH, 2.0, 2.0)

    g = reduced_geometry(2.0)
    model = build_model(ExperimentConfig(
        scaling_degree=30, kappa=4 / 3, kernel_rho=2.0, region_rho=2.0,
        model_degree=40, model_seed=7, shannon_degrees=(0,),
        tsvd_degrees=(40,)))
    f1 = upward_continue(model, g.R)
    approx = approximate_coefficients(shannon_reference_pair(g, g.N), f1, model, region)
    assert relative_error(model, approx, region) < 1e-8

    gv = Geometry(6371.2, 7071.2, 20, kappa=1.5, rho=2.0, case="vector")
    model_v = build_model(ExperimentConfig(
        case="vector", scaling_degree=20, kappa=1.5, kernel_rho=2.0,
        region_rho=2.0, model_degree=30, model_seed=7, shannon_degrees=(0,),
        tsvd_degrees=(30,)))
    f1_v = vector_upward_continue(model_v, gv.R)
    approx_v = vector_approximate_coefficients(
        shannon_reference_pair(gv, gv.N), f1_v, model_v, region)
    assert vector_relative_error(model_v, approx_v, region) < 1e-8


def test_optimized_beats_best_shannon_on_reduced_noisy_cells(reduced_sweep):
    table_a, table_b, _ = reduced_sweep
    for rows, eps, gamma in ((table_a, 0.05, 1.0), (table_a, 0.1, 1.0),
                             (table_b, 0.1, 5.0)):
        opt = median_best(rows, eps, gamma, "optimized")
        shannon = median_best(rows, eps, gamma, "shannon")
        assert opt <= shannon
    assert median_best(table_a, 0.0, 1.0, "optimized") < 0.05


def test_tsvd_noise_amplification_and_combined_advantage(reduced_sweep):
    table_a, _, tsvd_rows = reduced_sweep
    seeds = sorted({r.seed for r in tsvd_rows})

    def tsvd_median(eps, m):
        return statistics.median(
            r.relative_error for r in tsvd_rows
            if r.epsilon1 == eps and r.method == f"tsvd-{m}")

    assert tsvd_median(0.1, 30) < tsvd_median(0.1, 40)

    best_tsvd = statistics.median(
        min(r.relative_error for r in tsvd_rows
            if r.seed == s and r.epsilon1 == 0.05)
        for s in seeds)
    best_combined = median_best(table_a, 0.05, 1.0, "optimized")
    assert best_combined < best_tsvd


@pytest.mark.parametrize("variant", [{}, {"region_center": (0.3, 0.4, 0.8)},
                                     {"case": "vector"}], ids=["polar", "off-pole", "vector"])
def test_paper_orderings_on_a_full_scale_slice(variant):
    # full.cfg (N = 80, wavelet band to 100, noise degree 110) cut to
    # epsilon1 = 0.01 0.1, gamma = 1 and seeds 0 1 2: the orderings, not values
    config = dataclasses.replace(load_config(CONFIGS / "full.cfg"), epsilon1=(0.01, 0.1),
                                 gamma=(1.0,), seeds=(0, 1, 2), **variant)
    table, tsvd_rows = run_table(config), run_tsvd_table(config)
    assert all(r.status == "ok" for r in table + tsvd_rows)
    truncation = [median_best(tsvd_rows, eps, None, "tsvd") for eps in (0.01, 0.1)]
    for eps, best_tsvd in zip((0.01, 0.1), truncation):
        combined = median_best(table, eps, 1.0, "optimized")
        assert combined <= median_best(table, eps, 1.0, "shannon")
        assert combined < best_tsvd
    assert truncation[0] < truncation[1]


def test_localization_ratio_non_increasing_in_bandwidth():
    for case in ("scalar", "vector"):
        ratios = []
        for n_cut in (10, 20, 40):
            g = Geometry(6371.2, 7071.2, n_cut, kappa=1.25, rho=0.5, case=case)
            w = PenaltyWeights.localization_pattern(g, beta=1.0, delta=0.5)
            pair = optimize(g, w)
            ratios.append(localization_ratio(pair.psi_tilde, 0.5, g))
        assert ratios[0] >= ratios[1] >= ratios[2]


def test_gradient_basis_and_tensor_kernel_identities():
    # orthonormality of the gradient-field basis up to degree 10
    grid = sphere_grid(1.0, 22)
    fields = []
    for n in range(11):
        for k in range(1, 2 * n + 2):
            fields.append(vsh(1, n, k, grid.nodes))
            if n >= 1:
                fields.append(vsh(2, n, k, grid.nodes))
    stack = np.array(fields)
    weighted = stack * grid.weights[None, :, None]
    gram = np.einsum("ipc,jpc->ij", weighted, stack)
    assert np.max(np.abs(gram - np.eye(len(fields)))) < 1e-10

    # rotation invariance of the tensor kernel
    rng = np.random.default_rng(5)
    values = rng.standard_normal(9)
    symbols = SymbolSet(8, values)
    for _ in range(8):
        rot = random_rotation(rng)
        xi = rng.standard_normal(3)
        xi /= np.linalg.norm(xi)
        eta = rng.standard_normal(3)
        eta /= np.linalg.norm(eta)
        base = tensor_kernel_eval(symbols, xi, eta)
        moved = tensor_kernel_eval(symbols, rot @ xi, rot @ eta)
        assert np.max(np.abs(moved - rot @ base @ rot.T)) < 1e-10

    # full-interval energy identity against the surface quadrature oracle
    energy_matrix = oracles.vector_profile_energy_matrix(8, 0.0)
    expected = EIGHT_PI_SQ * (values @ energy_matrix @ values)
    assert full_interval_energy(symbols, "vector") == pytest.approx(
        expected, rel=1e-9)

    # first-moment identity against the weighted quadrature oracle
    moment_matrix = oracles.vector_profile_moment_matrix(8)
    expected_moment = EIGHT_PI_SQ * (values @ moment_matrix @ values)
    assert tensor_first_moment(symbols) == pytest.approx(
        expected_moment, rel=1e-8)


def test_table_command_is_byte_deterministic(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "scaling_degree = 6\nkappa = 1.5\nkernel_rho = 0.5\n"
        "region_rho = 1.0\nmodel_degree = 9\nmodel_seed = 3\n"
        "noise_degree = 10\nbeta = 1.0\nalpha_tilde = 10.0\n"
        "alpha_ratio = 1\nepsilon1 = 0.0 0.05\ngamma = 1 2\n"
        "seeds = 0 1\nshannon_degrees = 0 6\ntsvd_degrees = 6\n"
        "out = unused.csv\n")
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(["table", str(cfg), "--out", str(first)]) == 0
    assert main(["table", str(cfg), "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
