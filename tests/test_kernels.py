import csv
import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from capwave.kernels import (
    Geometry,
    KernelPair,
    NumericalFailure,
    PenaltyWeights,
    SymbolSet,
    _gram_for,
    _optimize_all,
    _system_for,
    full_interval_energy,
    functional_value,
    gram_scalar,
    gram_vector,
    kernel_eval,
    localization_ratio,
    optimize,
    raised_cosine_targets,
    save_pair_csv,
    shannon_bound,
    shannon_reference_pair,
    stationarity_residual,
    tsvd_symbols,
)

from oracles import (
    scalar_profile_energy,
    vector_profile_energy_matrix,
)

EIGHT_PI_SQ = 8.0 * math.pi**2

R_INNER = 6371.2
R_OUTER = 7071.2


def reduced_geometry(case="scalar", rho=0.5):
    """N=30, kN=40 configuration on the shipped radii."""
    return Geometry(R_INNER, R_OUTER, 30, kappa=4.0 / 3.0, rho=rho, case=case)


class TestGeometry:
    def test_truncation_degrees(self):
        g = reduced_geometry()
        assert (g.N, g.kN) == (30, 40)
        full = Geometry(R_INNER, R_OUTER, 80)
        assert full.kN == 100

    def test_sigma_exponents(self):
        q = R_INNER / R_OUTER
        scalar = reduced_geometry("scalar")
        vector = reduced_geometry("vector")
        assert scalar.sigma(0) == 1.0
        assert scalar.sigma(3) == pytest.approx(q**3, rel=1e-15)
        assert vector.sigma(0) == pytest.approx(q, rel=1e-15)
        assert vector.sigma(3) == pytest.approx(q**4, rel=1e-15)
        assert np.allclose(scalar.sigmas(5), q ** np.arange(6), rtol=1e-15)

    @pytest.mark.parametrize("case", ["scalar", "vector"])
    def test_sigma_is_entry_of_sigmas(self, case):
        # one exponent rule: sigma(n) has the bits of sigmas(n_hi)[n]
        g = reduced_geometry(case)
        table = g.sigmas(110)
        assert [g.sigma(n) for n in range(111)] == table.tolist()

    def test_validation(self):
        with pytest.raises(ValueError):
            Geometry(2.0, 1.0, 10)
        with pytest.raises(ValueError):
            Geometry(1.0, 2.0, 10, kappa=1.0)
        with pytest.raises(ValueError):
            Geometry(1.0, 2.0, 10, rho=0.0)
        with pytest.raises(ValueError):
            Geometry(1.0, 2.0, 10, rho=2.5)
        with pytest.raises(ValueError):
            Geometry(1.0, 2.0, 10, case="tensor")

    @pytest.mark.parametrize("r, R, kappa", [
        (math.nan, 2.0, 1.25), (1.0, math.inf, 1.25), (1.0, math.nan, 1.25),
        (1.0, 2.0, math.inf), (1.0, 2.0, math.nan),
    ])
    def test_non_finite_values_rejected(self, r, R, kappa):
        with pytest.raises(ValueError, match="finite"):
            Geometry(r, R, 10, kappa=kappa)


class TestGramScalar:
    def test_degree_zero_entry(self):
        g = gram_scalar(0, 0.5)
        assert g[0, 0] == pytest.approx(0.75, abs=1e-13)

    def test_cross_entry(self):
        g = gram_scalar(1, 0.5)
        assert g[0, 1] == pytest.approx(-0.5625, abs=1e-13)

    def test_small_rho_limit(self):
        g = gram_scalar(5, 1e-9)
        expected = np.diag(2.0 * np.arange(6) + 1.0)
        assert np.max(np.abs(g - expected)) < 1e-6

    def test_symmetry_exact(self):
        g = gram_scalar(30, 0.7)
        assert np.array_equal(g, g.T)

    def test_quadratic_form_matches_profile_energy(self):
        rng = np.random.default_rng(11)
        for rho in (0.3, 1.2):
            g = gram_scalar(25, rho)
            v = rng.standard_normal(26)
            oracle = EIGHT_PI_SQ * scalar_profile_energy(v, rho)
            assert v @ g @ v == pytest.approx(oracle, rel=1e-9)

    def test_rho_validation(self):
        with pytest.raises(ValueError):
            gram_scalar(5, 0.0)
        with pytest.raises(ValueError):
            gram_scalar(5, 2.0)


class TestGramVector:
    def test_degree_zero_entry(self):
        g = gram_vector(0, 0.5)
        assert g[0, 0] == pytest.approx(0.75, abs=1e-13)

    def test_reduced_row_matches_scalar(self):
        gv = gram_vector(5, 0.7)
        gs = gram_scalar(5, 0.7)
        assert np.allclose(gv[0, :], gs[0, :], atol=1e-13)
        assert np.allclose(gv[:, 0], gs[:, 0], atol=1e-13)

    def test_small_rho_limit(self):
        g = gram_vector(5, 1e-9)
        c = np.array([1.0, 2.0, 2.0, 2.0, 2.0, 2.0])
        expected = np.diag((2.0 * np.arange(6) + 1.0) * c)
        assert np.max(np.abs(g - expected)) < 1e-5

    def test_symmetry_exact(self):
        g = gram_vector(30, 0.7)
        assert np.array_equal(g, g.T)

    def test_quadratic_form_matches_surface_quadrature(self):
        rho = 0.6
        n_max = 8
        g = gram_vector(n_max, rho)
        q = vector_profile_energy_matrix(n_max, rho)
        rng = np.random.default_rng(7)
        for _ in range(5):
            v = rng.standard_normal(n_max + 1)
            oracle = EIGHT_PI_SQ * float(v @ q @ v)
            assert v @ g @ v == pytest.approx(oracle, rel=1e-8)


class TestGramMemo:
    """One cap-exterior Gram per (case, degree, rho), shared read-only."""

    @pytest.mark.parametrize("case, builder", [("scalar", gram_scalar), ("vector", gram_vector)])
    def test_same_read_only_object_with_the_builder_s_bits(self, case, builder):
        _gram_for.cache_clear()
        first = _gram_for(case, 12, 0.5)
        assert _gram_for(case, 12, 0.5) is first
        assert np.array_equal(first, builder(12, 0.5))
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = 1.0

    def test_builders_return_read_only_arrays(self):
        for builder in (gram_scalar, gram_vector):
            gram = builder(5, 0.5)
            assert gram.shape == (6, 6) and not gram.flags.writeable
            with pytest.raises(ValueError):
                gram[0, 0] = 1.0

    @pytest.mark.parametrize("case, builder", [("scalar", gram_scalar), ("vector", gram_vector)])
    def test_full_sphere_cap_has_the_zero_gram(self, case, builder):
        # rho = 2 leaves the exterior [-1, 1 - rho] empty; the builders
        # themselves still need a nonempty interval
        gram = _gram_for(case, 12, 2.0)
        assert gram.shape == (13, 13) and not np.any(gram)
        assert not gram.flags.writeable
        with pytest.raises(ValueError, match="rho must lie in"):
            builder(12, 2.0)

    @pytest.mark.parametrize("case", ["scalar", "vector"])
    def test_optimize_same_bits_from_cold_and_warm_memo(self, case):
        # the system memo builds from the Gram memo once; a warm solve
        # copies the kept system and never asks for the Gram again
        g = reduced_geometry(case)
        w = PenaltyWeights.uniform(g, 10.0, 10.0, 0.1)
        _gram_for.cache_clear()
        _system_for.cache_clear()
        cold = optimize(g, w)
        warm = optimize(g, w)
        assert _gram_for.cache_info().misses == 1
        assert _gram_for.cache_info().hits == 0
        assert _system_for.cache_info().misses == 1
        assert _system_for.cache_info().hits == 1
        for a, b in ((cold.phi, warm.phi), (cold.phi_tilde, warm.phi_tilde)):
            assert np.array_equal(a.values, b.values)


class TestKernelPair:
    def test_coupling_identity(self):
        g = reduced_geometry()
        rng = np.random.default_rng(3)
        phi = SymbolSet(g.N, rng.standard_normal(g.N + 1))
        phi_tilde = SymbolSet(g.kN, rng.standard_normal(g.kN + 1))
        pair = KernelPair(g, phi, phi_tilde)
        sig = g.sigmas(g.N)
        assert np.allclose(
            pair.psi_tilde.values[: g.N + 1],
            phi_tilde.values[: g.N + 1] - phi.values * sig,
            rtol=1e-15, atol=1e-15,
        )
        assert np.array_equal(
            pair.psi_tilde.values[g.N + 1 :], phi_tilde.values[g.N + 1 :]
        )

    def test_dimension_validation(self):
        g = reduced_geometry()
        with pytest.raises(ValueError):
            KernelPair(g, SymbolSet.zeros(g.N + 1), SymbolSet.zeros(g.kN))
        with pytest.raises(ValueError):
            KernelPair(g, SymbolSet.zeros(g.N), SymbolSet.zeros(g.kN - 1))

    def test_writes_to_the_callers_arrays_do_not_reach_the_pair(self):
        g = reduced_geometry()
        phi = np.linspace(1.0, 2.0, g.N + 1)
        pair = KernelPair(g, SymbolSet(g.N, phi), SymbolSet.ones(g.kN))
        psi = pair.psi_tilde.values.copy()
        phi[:] = 0.0
        assert np.array_equal(pair.phi.values, np.linspace(1.0, 2.0, g.N + 1))
        assert np.array_equal(pair.psi_tilde.values, psi)
        alpha = np.ones(g.N + 1)
        w = PenaltyWeights(alpha, np.ones(g.kN + 1), 1.0)
        alpha[0] = -1.0
        assert w.alpha[0] == 1.0

    def test_symbols_and_weights_are_read_only(self):
        g = reduced_geometry()
        pair = shannon_reference_pair(g, g.N)
        w = PenaltyWeights.uniform(g, 1.0, 1.0, 1.0)
        for values in (pair.phi.values, pair.phi_tilde.values,
                       pair.psi_tilde.values, w.alpha, w.alpha_tilde):
            with pytest.raises(ValueError):
                values[0] = -1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            pair.phi = SymbolSet.zeros(g.N)
        with pytest.raises(dataclasses.FrozenInstanceError):
            pair.phi_tilde.values = np.zeros(g.kN + 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            w.beta = -1.0


class TestFunctionalValue:
    def test_all_zero_symbols(self):
        g = reduced_geometry()
        w = PenaltyWeights.uniform(g, 2.0, 3.0, 0.5)
        pair = KernelPair(g, SymbolSet.zeros(g.N), SymbolSet.zeros(g.kN))
        expected = 2.0 * (g.N + 1) + 3.0 * (g.kN + 1)
        assert functional_value(pair, w) == pytest.approx(expected, rel=1e-15)

    def test_tail_term_matches_profile_energy(self):
        g = reduced_geometry()
        w = PenaltyWeights.uniform(g, 2.0, 3.0, 0.5)
        rng = np.random.default_rng(5)
        phi_tilde = rng.standard_normal(g.kN + 1)
        pair = KernelPair(g, SymbolSet.zeros(g.N), SymbolSet(g.kN, phi_tilde))
        fit = float(
            w.alpha_tilde @ (1.0 - phi_tilde) ** 2
            + w.alpha @ np.ones(g.N + 1)
        )
        tail = functional_value(pair, w) - fit
        oracle = EIGHT_PI_SQ * scalar_profile_energy(phi_tilde, g.rho)
        assert tail == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("case, builder", [("scalar", gram_scalar), ("vector", gram_vector)])
    def test_value_and_gradient_read_the_geometry_gram(self, case, builder):
        # the formulas written out with the builder's Gram of (kN, rho)
        g = reduced_geometry(case)
        w = PenaltyWeights(np.linspace(0.5, 2.0, g.N + 1),
                           np.linspace(1.0, 3.0, g.kN + 1), 0.3)
        rng = np.random.default_rng(37)
        pair = KernelPair(g, SymbolSet(g.N, rng.standard_normal(g.N + 1)),
                          SymbolSet(g.kN, rng.standard_normal(g.kN + 1)))
        gram = builder(g.kN, g.rho)
        tgt = np.ones(g.kN + 1)
        sig = g.sigmas(g.N)
        x = pair.phi.values * sig
        y = pair.phi_tilde.values
        psi = pair.psi_tilde.values
        value = float(
            w.alpha_tilde @ (tgt - y) ** 2
            + w.alpha @ (tgt[: g.N + 1] - x) ** 2
            + w.beta * pair.phi.values @ pair.phi.values
            + float(psi @ gram @ psi)
        )
        gpsi = gram @ psi
        grad_x = -2.0 * w.alpha * (tgt[: g.N + 1] - x) \
            + 2.0 * w.beta * x / sig**2 - 2.0 * gpsi[: g.N + 1]
        grad_y = -2.0 * w.alpha_tilde * (tgt - y) + 2.0 * gpsi
        assert functional_value(pair, w) == value
        assert stationarity_residual(pair, w) == max(np.max(np.abs(grad_x)),
                                                     np.max(np.abs(grad_y)))

    def test_dimension_mismatch(self):
        g = reduced_geometry()
        w = PenaltyWeights.uniform(g, 1.0, 1.0, 1.0)
        pair = shannon_reference_pair(g, g.N)
        bad_w = PenaltyWeights(np.ones(g.N + 2), np.ones(g.kN + 1), 1.0)
        with pytest.raises(ValueError):
            functional_value(pair, bad_w)

    def test_shannon_bound_both_cases(self):
        for case in ("scalar", "vector"):
            g = reduced_geometry(case)
            w = PenaltyWeights.uniform(g, 1.0, 1.0, 0.01)
            value = functional_value(shannon_reference_pair(g, g.N), w)
            assert value <= shannon_bound(g, w.beta)


def decoupled_reference(g, w, channel_weight):
    """Per-degree closed-form minimizer in the vanishing-cap limit.

    For n <= N solve the 2x2 system with the limiting Gram diagonal
    g_n = (2n+1) * channel count; for n > N only the inner fidelity and
    the tail energy act on y_n.
    """
    x = np.zeros(g.N + 1)
    y = np.zeros(g.kN + 1)
    sig = g.sigmas(g.N)
    for n in range(g.kN + 1):
        gn = (2.0 * n + 1.0) * channel_weight[n]
        if n <= g.N:
            a = np.array([
                [w.alpha[n] + w.beta / sig[n] ** 2 + gn, -gn],
                [-gn, w.alpha_tilde[n] + gn],
            ])
            rhs = np.array([w.alpha[n], w.alpha_tilde[n]])
            x[n], y[n] = np.linalg.solve(a, rhs)
        else:
            y[n] = w.alpha_tilde[n] / (w.alpha_tilde[n] + gn)
    return x, y


class TestOptimize:
    @pytest.mark.parametrize("case", ["scalar", "vector"])
    def test_full_sphere_cap_matches_decoupled_closed_form(self, case):
        # rho = 2: no cap exterior, so each degree balances fidelity and
        # regularization alone
        g = reduced_geometry(case, rho=2.0)
        w = PenaltyWeights(np.linspace(0.5, 2.0, g.N + 1),
                           np.linspace(1.0, 3.0, g.kN + 1), 0.3)
        pair = optimize(g, w)
        sig = g.sigmas(g.N)
        expected = w.alpha / (w.alpha + w.beta / sig**2)
        assert np.max(np.abs(pair.phi_tilde.values - 1.0)) < 1e-14
        assert np.max(np.abs(pair.phi.values * sig - expected)) < 1e-14

    def test_near_decoupled_limit_scalar(self):
        g = reduced_geometry("scalar", rho=1e-9)
        w = PenaltyWeights.uniform(g, 0.1, 0.1, 0.5)
        pair = optimize(g, w)
        ones = np.ones(g.kN + 1)
        x_ref, y_ref = decoupled_reference(g, w, ones)
        x = pair.phi.values * g.sigmas(g.N)
        assert np.max(np.abs(x - x_ref)) < 1e-8
        assert np.max(np.abs(pair.phi_tilde.values - y_ref)) < 1e-8

    def test_near_decoupled_limit_vector(self):
        g = reduced_geometry("vector", rho=1e-9)
        w = PenaltyWeights.uniform(g, 0.1, 0.1, 0.5)
        pair = optimize(g, w)
        c = np.full(g.kN + 1, 2.0)
        c[0] = 1.0
        x_ref, y_ref = decoupled_reference(g, w, c)
        x = pair.phi.values * g.sigmas(g.N)
        assert np.max(np.abs(x - x_ref)) < 1e-8
        assert np.max(np.abs(pair.phi_tilde.values - y_ref)) < 1e-8

    @pytest.mark.parametrize("rho", [0.5, 0.1, 0.01])
    def test_stationarity(self, rho):
        g = reduced_geometry("scalar", rho=rho)
        w = PenaltyWeights.uniform(g, 10.0, 10.0, 0.1)
        pair = optimize(g, w)
        scale = 1.0 + np.linalg.norm(np.concatenate([w.alpha, w.alpha_tilde]))
        assert stationarity_residual(pair, w) < 1e-8 * scale

    def test_minimality_against_shannon_and_perturbations(self):
        g = reduced_geometry("scalar", rho=0.5)
        w = PenaltyWeights.uniform(g, 5.0, 5.0, 0.05)
        pair = optimize(g, w)
        f_opt = functional_value(pair, w)
        assert f_opt < functional_value(shannon_reference_pair(g, g.N), w)

        sig = g.sigmas(g.N)
        x = pair.phi.values * sig
        y = pair.phi_tilde.values
        rng = np.random.default_rng(17)
        for _ in range(100):
            d = rng.standard_normal(x.size + y.size)
            d *= 1e-3 / np.linalg.norm(d)
            perturbed = KernelPair(
                g,
                SymbolSet(g.N, (x + d[: x.size]) / sig),
                SymbolSet(g.kN, y + d[x.size :]),
            )
            assert functional_value(perturbed, w) >= f_opt - 1e-12

    def test_permuted_assembly_uniqueness(self):
        g = reduced_geometry("scalar", rho=0.5)
        w = PenaltyWeights.uniform(g, 2.0, 4.0, 0.3)
        gram = gram_scalar(g.kN, g.rho)
        pair = optimize(g, w)

        n_x, n_y = g.N + 1, g.kN + 1
        sig = g.sigmas(g.N)
        m = np.zeros((n_x + n_y, n_x + n_y))
        m[:n_x, :n_x] = gram[:n_x, :n_x] + np.diag(w.alpha + w.beta / sig**2)
        m[:n_x, n_x:] = -gram[:n_x, :]
        m[n_x:, :n_x] = -gram[:, :n_x]
        m[n_x:, n_x:] = gram + np.diag(w.alpha_tilde)
        rhs = np.concatenate([w.alpha, w.alpha_tilde])

        rng = np.random.default_rng(23)
        perm = rng.permutation(n_x + n_y)
        sol_perm = np.linalg.solve(m[np.ix_(perm, perm)], rhs[perm])
        sol = np.empty_like(sol_perm)
        sol[perm] = sol_perm

        assert np.max(np.abs(sol[:n_x] - pair.phi.values * sig)) < 1e-10
        assert np.max(np.abs(sol[n_x:] - pair.phi_tilde.values)) < 1e-10

    def test_penalty_dominated_limit(self):
        g = reduced_geometry("scalar", rho=0.5)
        w = PenaltyWeights.uniform(g, 1e10, 1e10, 1e-10)
        pair = optimize(g, w)
        x = pair.phi.values * g.sigmas(g.N)
        assert np.max(np.abs(x - 1.0)) < 1e-4
        assert np.max(np.abs(pair.phi_tilde.values - 1.0)) < 1e-4

    def test_filtered_targets_followed(self):
        g = reduced_geometry("scalar", rho=0.5)
        targets = raised_cosine_targets(g)
        w = PenaltyWeights.uniform(g, 1e10, 1e10, 1e-10)
        pair = optimize(g, w, targets=targets)
        x = pair.phi.values * g.sigmas(g.N)
        assert np.max(np.abs(x - targets.values[: g.N + 1])) < 1e-4
        assert np.max(np.abs(pair.phi_tilde.values - targets.values)) < 1e-4
        scale = 1.0 + np.linalg.norm(np.concatenate([w.alpha, w.alpha_tilde]))
        resid = stationarity_residual(pair, w, targets=targets)
        assert resid < 1e-8 * scale

    def test_coupling_after_optimize(self):
        g = reduced_geometry("scalar", rho=0.1)
        pair = optimize(g, PenaltyWeights.uniform(g, 1.0, 1.0, 0.1))
        sig = g.sigmas(g.N)
        expected = pair.phi_tilde.values.copy()
        expected[: g.N + 1] -= pair.phi.values * sig
        assert np.allclose(pair.psi_tilde.values, expected, atol=1e-15)

    def test_weight_validation(self):
        g = reduced_geometry()
        with pytest.raises(ValueError):
            PenaltyWeights.uniform(g, -1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            PenaltyWeights.uniform(g, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            PenaltyWeights.uniform(g, 1.0, 1.0, -0.5)

    @pytest.mark.parametrize("flaw", ["nan alpha", "inf alpha_tilde", "nan beta"])
    def test_non_finite_weight_rejected_at_both_entry_points(self, flaw):
        # NaN passes a `<= 0` test, so it used to surface only later, as
        # "symbols must be finite"
        g = reduced_geometry()
        alpha, alpha_tilde, beta = np.ones(g.N + 1), np.ones(g.kN + 1), 1.0
        if flaw == "nan alpha":
            alpha[3] = np.nan
        elif flaw == "inf alpha_tilde":
            alpha_tilde[-1] = np.inf
        else:
            beta = np.nan
        message = "^all weights must be finite and strictly positive$"
        with pytest.raises(ValueError, match=message):
            PenaltyWeights(alpha, alpha_tilde, beta)
        with pytest.raises(ValueError, match=message):
            _optimize_all(g, alpha[None], alpha_tilde[None], [beta])


def cho_reference(geometry, w, targets=None):
    """(phi, phi_tilde) of optimize's system assembled block by block and
    solved through scipy.linalg's cho_factor and cho_solve."""
    n_x, n_y = geometry.N + 1, geometry.kN + 1
    tgt = np.ones(n_y) if targets is None else targets.values
    sig = geometry.sigmas(geometry.N)
    G = _gram_for(geometry.case, geometry.kN, geometry.rho)
    M = np.empty((n_x + n_y, n_x + n_y))
    M[:n_x, :n_x] = G[:n_x, :n_x]
    M[:n_x, :n_x][np.diag_indices(n_x)] += w.alpha + w.beta / sig**2
    M[:n_x, n_x:] = -G[:n_x, :]
    M[n_x:, :n_x] = -G[:, :n_x]
    M[n_x:, n_x:] = G
    M[n_x:, n_x:][np.diag_indices(n_y)] += w.alpha_tilde
    rhs = np.concatenate([w.alpha * tgt[:n_x], w.alpha_tilde * tgt])
    sol = cho_solve(cho_factor(M, lower=True, check_finite=False), rhs, check_finite=False)
    return sol[:n_x] / sig, sol[n_x:]


class TestOptimizeOracle:
    """optimize calls LAPACK's potrf and potrs itself; its symbols must
    keep the bits of the block assembly solved by cho_factor and cho_solve,
    and a system that is not positive definite must still raise."""

    @pytest.mark.parametrize("case", ["scalar", "vector"])
    @pytest.mark.parametrize("rho", [0.5, 2.0])
    @pytest.mark.parametrize("filtered", [False, True])
    def test_same_bits_as_cho_factor_and_cho_solve(self, case, rho, filtered):
        g = reduced_geometry(case, rho=rho)
        targets = raised_cosine_targets(g) if filtered else None
        weights = [PenaltyWeights.uniform(g, 2.0, 4.0, 0.3),
                   PenaltyWeights.uniform(g, 1e-3 / 5, 1e-3, 100.0),
                   PenaltyWeights(np.linspace(0.5, 2.0, g.N + 1),
                                  np.linspace(1.0, 3.0, g.kN + 1), 1e-2)]
        for w in weights:
            pair = optimize(g, w, targets=targets)
            phi, phi_tilde = cho_reference(g, w, targets)
            assert np.array_equal(pair.phi.values, phi)
            assert np.array_equal(pair.phi_tilde.values, phi_tilde)

    @pytest.mark.parametrize("case", ["scalar", "vector"])
    def test_tiny_uniform_weights_raise(self, case):
        # at weights 1e-16 the Gram part dominates, and it has an
        # (N+1)-dimensional null space: potrf stops at a nonpositive pivot
        g = reduced_geometry(case)
        w = PenaltyWeights.uniform(g, 1e-16, 1e-16, 1e-16)
        with pytest.raises(NumericalFailure, match="^kernel optimizer system is "
                           "numerically singular; the weight configuration is "
                           "pathological$"):
            optimize(g, w)


class TestGramPositiveDefiniteness:
    """Raw Gram matrices are PD in exact arithmetic, but their smallest
    eigenvalues fall below float64 resolution for wide caps at high degree.
    The checks below pin what float64 can honestly certify: Cholesky on the
    representable part of the (rho, n_max) grid, an eigenvalue floor at
    roundoff scale everywhere, and Cholesky of the full optimizer matrix
    (diagonal plus Gram) everywhere.
    """

    CHOLESKY_GRID = {
        "scalar": [(0.01, (20, 40, 80, 120)), (0.1, (20, 40))],
        "vector": [(0.01, (20, 40, 80, 120)), (0.1, (20, 40)), (0.5, (20,))],
    }

    @pytest.mark.parametrize("case", ["scalar", "vector"])
    def test_cholesky_on_representable_grid(self, case):
        builder = gram_scalar if case == "scalar" else gram_vector
        for rho, sizes in self.CHOLESKY_GRID[case]:
            for n_max in sizes:
                np.linalg.cholesky(builder(n_max, rho))

    @pytest.mark.parametrize("case", ["scalar", "vector"])
    def test_eigenvalue_floor_full_grid(self, case):
        builder = gram_scalar if case == "scalar" else gram_vector
        for rho in (0.01, 0.1, 0.5, 1.0, 1.9):
            for n_max in (20, 40, 80, 120):
                eig = np.linalg.eigvalsh(builder(n_max, rho))
                assert eig[-1] > 0.0
                assert eig[0] >= -1e-10 * eig[-1]

    @pytest.mark.parametrize("case", ["scalar", "vector"])
    def test_optimizer_matrix_factorizes_full_grid(self, case):
        for rho in (0.01, 0.1, 0.5, 1.0, 1.9):
            g = Geometry(R_INNER, R_OUTER, 96, kappa=1.25, rho=rho, case=case)
            assert g.kN == 120
            w = PenaltyWeights.uniform(g, 1.0, 1.0, 0.01)
            pair = optimize(g, w)
            assert np.all(np.isfinite(pair.phi.values))
            assert np.all(np.isfinite(pair.phi_tilde.values))


class TestShannonPair:
    def test_wavelet_symbols_are_band_indicator(self):
        g = reduced_geometry()
        pair = shannon_reference_pair(g, g.N)
        expected = np.zeros(g.kN + 1)
        expected[g.N + 1 :] = 1.0
        assert np.allclose(pair.psi_tilde.values, expected, atol=1e-12)

    def test_sigma_one_on_shipped_radii(self):
        g = reduced_geometry()
        assert g.sigma(1) == pytest.approx(R_INNER / R_OUTER, rel=1e-15)
        assert abs(g.sigma(1) - 0.9010069) < 5e-7

    def test_full_interval_wavelet_energy(self):
        g = reduced_geometry()
        pair = shannon_reference_pair(g, g.N)
        n = np.arange(g.N + 1, g.kN + 1)
        expected = float(np.sum(2 * n + 1))
        assert full_interval_energy(pair.psi_tilde) == pytest.approx(
            expected, rel=1e-13
        )
        x, wq = np.polynomial.legendre.leggauss(g.kN + 1)
        prof = kernel_eval(pair.psi_tilde, x)
        quad = float(wq @ prof**2)
        assert quad == pytest.approx(expected / EIGHT_PI_SQ, rel=1e-10)


class TestTsvdSymbols:
    def test_degree_zero(self):
        g = reduced_geometry("scalar")
        assert tsvd_symbols(g, 0).values.tolist() == [1.0]

    def test_scalar_amplification(self):
        g = Geometry(R_INNER, R_OUTER, 80, rho=0.5)
        s = tsvd_symbols(g, 80)
        assert s.value(80) == pytest.approx((R_OUTER / R_INNER) ** 80, rel=1e-14)
        assert s.value(80) == pytest.approx(4186.7, rel=5e-4)

    def test_vector_exponent(self):
        g = reduced_geometry("vector")
        s = tsvd_symbols(g, 50)
        assert s.value(50) == pytest.approx((R_OUTER / R_INNER) ** 51, rel=1e-14)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            tsvd_symbols(reduced_geometry(), -1)


class TestKernelEval:
    def test_constant_symbol(self):
        s = SymbolSet(0, [1.0])
        t = np.linspace(-1.0, 1.0, 7)
        assert np.allclose(kernel_eval(s, t), 1.0 / (4.0 * math.pi), rtol=1e-15)

    def test_all_ones_at_coincidence(self):
        L = 12
        s = SymbolSet.ones(L)
        expected = (L + 1) ** 2 / (4.0 * math.pi)
        assert kernel_eval(s, 1.0) == pytest.approx(expected, rel=1e-13)

    def test_parseval(self):
        rng = np.random.default_rng(29)
        v = rng.standard_normal(31)
        s = SymbolSet(30, v)
        x, w = np.polynomial.legendre.leggauss(40)
        quad = float(w @ kernel_eval(s, x) ** 2)
        expected = float(np.sum((2 * np.arange(31) + 1) * v**2)) / EIGHT_PI_SQ
        assert quad == pytest.approx(expected, rel=1e-10)

    def test_matches_legendre_series(self):
        rng = np.random.default_rng(31)
        v = rng.standard_normal(16)
        s = SymbolSet(15, v)
        t = np.linspace(-1.0, 1.0, 11)
        series = (2 * np.arange(16) + 1) / (4.0 * math.pi) * v
        expected = np.polynomial.legendre.legval(t, series)
        assert np.allclose(kernel_eval(s, t), expected, rtol=1e-12, atol=1e-12)


class TestLocalizationRatio:
    def test_constant_symbol_closed_form(self):
        g = reduced_geometry()
        s = SymbolSet(0, [1.0])
        for rho in (0.3, 1.5, 1.999):
            assert localization_ratio(s, rho, g) == pytest.approx(
                (2.0 - rho) / 2.0, abs=1e-12
            )

    def test_degenerate_endpoints(self):
        g = reduced_geometry()
        s = SymbolSet(0, [1.0])
        assert localization_ratio(s, 2.0, g) == 0.0
        assert localization_ratio(s, 1e-9, g) == pytest.approx(1.0, abs=1e-8)

    def test_shannon_trend_in_bandwidth(self):
        g80 = Geometry(R_INNER, R_OUTER, 80, rho=0.1)
        g160 = Geometry(R_INNER, R_OUTER, 160, rho=0.1)
        r80 = localization_ratio(shannon_reference_pair(g80, 80).psi_tilde, 0.1, g80)
        r160 = localization_ratio(shannon_reference_pair(g160, 160).psi_tilde, 0.1, g160)
        assert 0.0 < r160 < r80 < 1.0

    def test_vector_case_in_range(self):
        g = reduced_geometry("vector")
        r = localization_ratio(shannon_reference_pair(g, g.N).psi_tilde, 0.5, g)
        assert 0.0 < r < 1.0

    def test_zero_symbols_rejected(self):
        g = reduced_geometry()
        with pytest.raises(ValueError):
            localization_ratio(SymbolSet.zeros(5), 0.5, g)


class TestMonotoneLocalization:
    @pytest.mark.parametrize("case", ["scalar", "vector"])
    def test_ratio_non_increasing_in_bandwidth(self, case):
        rho = 0.5
        ratios = []
        for n_scaling in (10, 20, 40):
            g = Geometry(R_INNER, R_OUTER, n_scaling, kappa=1.25,
                         rho=rho, case=case)
            w = PenaltyWeights.localization_pattern(g, beta=1.0, delta=0.5)
            pair = optimize(g, w)
            ratios.append(localization_ratio(pair.psi_tilde, rho, g))
        assert ratios[0] >= ratios[1] >= ratios[2]
        assert all(0.0 < r < 1.0 for r in ratios)

    def test_pattern_weight_level(self):
        g = reduced_geometry()
        w = PenaltyWeights.localization_pattern(g, beta=2.0, delta=0.5)
        expected = g.N**3 * shannon_bound(g, 2.0)
        assert w.alpha[0] == pytest.approx(expected, rel=1e-13)
        assert np.all(w.alpha == w.alpha[0])
        assert np.all(w.alpha_tilde == w.alpha[0])


class TestShannonBound:
    def test_scalar_formula(self):
        g = reduced_geometry("scalar")
        q2 = (R_OUTER / R_INNER) ** 2
        expected = 0.5 * (1.0 - q2**31) / (1.0 - q2) + 41**2
        assert shannon_bound(g, 0.5) == pytest.approx(expected, rel=1e-13)

    def test_vector_formula(self):
        g = reduced_geometry("vector")
        q2 = (R_OUTER / R_INNER) ** 2
        expected = 0.5 * q2 * (1.0 - q2**31) / (1.0 - q2) + 2 * 41**2 - 1
        assert shannon_bound(g, 0.5) == pytest.approx(expected, rel=1e-13)

    def test_channel_count_identity(self):
        for kn in (40, 100):
            n = np.arange(kn + 1)
            assert int(np.sum(2 * n + 1)) == (kn + 1) ** 2


class TestPairCsv:
    def test_round_trip(self, tmp_path):
        g = reduced_geometry()
        pair = optimize(g, PenaltyWeights.uniform(g, 1.0, 1.0, 0.1))
        path = tmp_path / "pair.csv"
        save_pair_csv(pair, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "phi", "phi_tilde", "psi_tilde"]
        assert len(rows) == g.kN + 2
        for n in range(g.kN + 1):
            row = rows[n + 1]
            assert int(row[0]) == n
            phi_expected = pair.phi.values[n] if n <= g.N else 0.0
            assert float(row[1]) == phi_expected
            assert float(row[2]) == pair.phi_tilde.values[n]
            assert float(row[3]) == pair.psi_tilde.values[n]
