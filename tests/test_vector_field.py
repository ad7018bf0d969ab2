import math

import numpy as np
import pytest

from capwave.harmonics import sphere_grid, ynk
from capwave.kernels import (
    Geometry,
    KernelPair,
    PenaltyWeights,
    SymbolSet,
    full_interval_energy,
    functional_value,
    gram_vector,
    shannon_reference_pair,
    stationarity_residual,
)
from capwave.transforms import RegionSpec
from capwave.vector_field import (
    VectorCoefficients,
    VectorFieldSamples,
    load_vector_coefficients,
    save_vector_coefficients,
    tensor_first_moment,
    tensor_kernel_eval,
    vector_analyze,
    vector_approximate,
    vector_approximate_coefficients,
    vector_field_samples,
    vector_optimize,
    vector_relative_error,
    vector_scaling_transform,
    vector_synthesize,
    vector_upward_continue,
    vector_wavelet_transform_local,
    vsh,
)

import node_wise
import oracles

R_INNER = 6371.2
R_OUTER = 7071.2
NORTH = (0.0, 0.0, 1.0)


def reduced_geometry(rho=0.5, case="vector"):
    return Geometry(R_INNER, R_OUTER, 30, kappa=4.0 / 3.0, rho=rho, case=case)


def random_vector_field(radius, n_max, seed):
    rng = np.random.default_rng(seed)
    size = 2 * (n_max + 1) ** 2 - 1
    return VectorCoefficients(radius, n_max, rng.standard_normal(size))


def random_unit(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def random_rotation(rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def basis_index_list(n_max):
    """All (i, n, k) triples up to degree n_max in storage order."""
    out = []
    for i in (1, 2):
        for n in range(0 if i == 1 else 1, n_max + 1):
            for k in range(1, 2 * n + 2):
                out.append((i, n, k))
    return out


# ---------------------------------------------------------------------------


class TestVectorCoefficients:
    def test_index_layout_round_trip(self):
        c = VectorCoefficients(1.0, 3)
        triples = basis_index_list(3)
        assert len(triples) == c.data.size
        for value, (i, n, k) in enumerate(triples, start=1):
            c.set_coeff(i, n, k, float(value))
        for value, (i, n, k) in enumerate(triples, start=1):
            assert c.coeff(i, n, k) == float(value)
        # storage slots are all distinct: every write landed somewhere new
        assert np.all(np.sort(c.data) == np.arange(1.0, c.data.size + 1.0))

    def test_type2_degree_zero_rejected(self):
        c = VectorCoefficients(1.0, 2)
        with pytest.raises(ValueError):
            c.coeff(2, 0, 1)
        with pytest.raises(ValueError):
            c.set_coeff(3, 1, 1, 0.0)
        with pytest.raises(ValueError):
            c.coeff(1, 1, 4)

    def test_channel_extraction(self):
        c = random_vector_field(2.0, 2, seed=1)
        c1 = c.channel(1)
        c2 = c.channel(2)
        assert c1.shape == (9,)
        assert c2.shape == (9,)
        assert c2[0] == 0.0
        assert c.coeff(1, 2, 3) == c1[4 + 3 - 1]
        assert c.coeff(2, 2, 3) == c2[4 + 3 - 1]

    def test_scaled_by_degree_hits_both_types(self):
        c = random_vector_field(3.0, 2, seed=2)
        factors = np.array([2.0, 5.0, -1.0])
        s = c.scaled_by_degree(factors, radius=4.0)
        assert s.radius == 4.0
        for i, n, k in basis_index_list(2):
            assert s.coeff(i, n, k) == pytest.approx(
                factors[n] * c.coeff(i, n, k), rel=1e-15
            )

    def test_parseval_l2_norm(self):
        c = random_vector_field(3.7, 6, seed=3)
        grid = sphere_grid(3.7, 2 * 6 + 2)
        vals = vector_synthesize(c, grid)
        surface = math.sqrt(grid.integrate(np.einsum("ij,ij->i", vals, vals)))
        assert surface == pytest.approx(c.l2_norm(), rel=1e-12)


class TestVsh:
    def test_degree_zero_radial(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            xi = random_unit(rng)
            np.testing.assert_allclose(
                vsh(1, 0, 1, xi), xi / math.sqrt(4.0 * math.pi), atol=1e-15
            )

    def test_type1_is_radial_scalar_harmonic(self):
        rng = np.random.default_rng(5)
        for n, k in [(1, 2), (3, 4), (5, 9), (8, 17)]:
            xi = random_unit(rng)
            np.testing.assert_allclose(
                vsh(1, n, k, xi), xi * ynk(n, k, xi), atol=1e-13
            )

    def test_type2_tangential(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            k = int(rng.integers(1, 2 * n + 2))
            xi = random_unit(rng)
            assert abs(xi @ vsh(2, n, k, xi)) < 1e-12

    def test_orthonormality_by_quadrature(self):
        n_max = 10
        grid = sphere_grid(1.0, 2 * n_max + 2)
        triples = basis_index_list(n_max)
        table = np.empty((len(triples), grid.n_nodes, 3))
        for row, (i, n, k) in enumerate(triples):
            table[row] = vsh(i, n, k, grid.nodes)
        flat = table.reshape(len(triples), -1)
        weighted = (table * grid.weights[None, :, None]).reshape(len(triples), -1)
        gram = weighted @ flat.T
        np.testing.assert_allclose(gram, np.eye(len(triples)), atol=1e-10)

    def test_pole_values_by_limit(self):
        north = np.array([0.0, 0.0, 1.0])
        south = np.array([0.0, 0.0, -1.0])
        for n in (1, 2, 5, 9):
            level = math.sqrt((2 * n + 1) / (8.0 * math.pi))
            np.testing.assert_allclose(
                vsh(2, n, 2, north), level * np.array([1.0, 0.0, 0.0]), atol=1e-13
            )
            np.testing.assert_allclose(
                vsh(2, n, n + 2, north), level * np.array([0.0, 1.0, 0.0]), atol=1e-13
            )
            sign = (-1.0) ** (n + 1)
            np.testing.assert_allclose(
                vsh(2, n, 2, south), sign * level * np.array([1.0, 0.0, 0.0]),
                atol=1e-13,
            )
            # m = 0 and m >= 2 vanish at both poles
            np.testing.assert_allclose(vsh(2, n, 1, north), 0.0, atol=1e-13)
            if n >= 2:
                np.testing.assert_allclose(vsh(2, n, 3, south), 0.0, atol=1e-13)

    def test_continuous_through_the_pole(self):
        # the colatitude formulas are written in reduced form, so walking a
        # basis function across the pole must not lose accuracy
        eps = 1e-8
        tilted = np.array([eps, 0.0, math.sqrt(1.0 - eps * eps)])
        for n, k in [(3, 2), (3, 5), (4, 1), (4, 4)]:
            np.testing.assert_allclose(
                vsh(2, n, k, tilted),
                vsh(2, n, k, np.array([0.0, 0.0, 1.0])),
                atol=1e-6,
            )

    def test_rejections(self):
        with pytest.raises(ValueError):
            vsh(2, 0, 1, (0.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            vsh(3, 1, 1, (0.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            vsh(1, 2, 6, (0.0, 0.0, 1.0))


class TestSynthesizeAnalyze:
    def test_round_trip_degree_ten(self):
        c = random_vector_field(R_INNER, 10, seed=7)
        grid = sphere_grid(R_INNER, 2 * 10 + 2)
        vals = vector_synthesize(c, grid)
        back = vector_analyze(vals, grid, 10)
        np.testing.assert_allclose(back.data, c.data, atol=1e-9 * c.l2_norm())

    def test_single_basis_field(self):
        c = VectorCoefficients(2.0, 4)
        c.set_coeff(2, 3, 6, 1.0)
        rng = np.random.default_rng(8)
        pts = np.array([random_unit(rng) for _ in range(6)])
        np.testing.assert_allclose(
            vector_synthesize(c, pts), vsh(2, 3, 6, pts) / 2.0, atol=1e-13
        )

    def test_tangent_only_field_has_zero_radial_channel(self):
        n_max = 6
        c = VectorCoefficients(1.0, n_max)
        rng = np.random.default_rng(9)
        size1 = (n_max + 1) ** 2
        c.data[size1:] = rng.standard_normal(c.data.size - size1)
        grid = sphere_grid(1.0, 2 * n_max + 2)
        back = vector_analyze(vector_synthesize(c, grid), grid, n_max)
        np.testing.assert_allclose(back.data[:size1], 0.0, atol=1e-12)
        np.testing.assert_allclose(back.data[size1:], c.data[size1:], atol=1e-12)

    def test_product_and_points_paths_agree(self):
        c = random_vector_field(1.0, 8, seed=10)
        grid = sphere_grid(1.0, 20)
        np.testing.assert_allclose(
            vector_synthesize(c, grid),
            vector_synthesize(c, grid.nodes),
            atol=1e-12,
        )

    @pytest.mark.parametrize("points", [np.zeros(3), np.array([1.0, 0.0]),
                                        np.array([[0.0, 0.0, 1.0], [np.nan, 0.0, 1.0]]),
                                        np.array([np.inf, 0.0, 0.0])],
                             ids=["zero", "two-vector", "nan", "inf"])
    def test_synthesize_rejects_bad_points(self, points):
        c = random_vector_field(1.0, 3, seed=12)
        with pytest.raises(ValueError, match="finite nonzero 3-vectors"):
            vector_synthesize(c, points)

    def test_analyze_validation(self):
        grid = sphere_grid(1.0, 10)
        with pytest.raises(ValueError):
            vector_analyze(np.zeros((grid.n_nodes, 3)), grid, 5)
        with pytest.raises(ValueError):
            vector_analyze(np.zeros(grid.n_nodes), grid, 4)
        with pytest.raises(TypeError):
            vector_analyze(np.zeros((4, 3)), np.zeros((4, 3)), 1)

    def test_field_samples_wrapper(self):
        c = random_vector_field(R_OUTER, 5, seed=11)
        samples = vector_field_samples(c, 2 * 5 + 2)
        assert samples.degree == 5
        assert samples.values.shape == (samples.grid.n_nodes, 3)
        with pytest.raises(ValueError):
            VectorFieldSamples(samples.grid, samples.values[:, :2], 5)


class TestUpwardContinue:
    def test_degree_zero_factor(self):
        c = VectorCoefficients(R_INNER, 0, np.array([1.0]))
        up = vector_upward_continue(c, R_OUTER)
        assert up.radius == R_OUTER
        assert up.coeff(1, 0, 1) == pytest.approx(R_INNER / R_OUTER, rel=1e-15)

    def test_degree_ten_damping(self):
        c = VectorCoefficients(R_INNER, 10)
        c.set_coeff(1, 10, 3, 1.0)
        c.set_coeff(2, 10, 3, 1.0)
        up = vector_upward_continue(c, R_OUTER)
        exact = (R_INNER / R_OUTER) ** 11
        assert up.coeff(1, 10, 3) == pytest.approx(exact, rel=1e-14)
        assert up.coeff(2, 10, 3) == pytest.approx(exact, rel=1e-14)
        assert up.coeff(1, 10, 3) == pytest.approx(0.3176, abs=3e-4)

    def test_exact_inverse(self):
        c = random_vector_field(R_INNER, 8, seed=12)
        up = vector_upward_continue(c, R_OUTER)
        n = np.arange(9, dtype=float)
        back = up.scaled_by_degree((R_OUTER / R_INNER) ** (n + 1.0), radius=R_INNER)
        np.testing.assert_allclose(back.data, c.data, rtol=1e-12)

    def test_needs_larger_radius(self):
        c = VectorCoefficients(R_OUTER, 2)
        with pytest.raises(ValueError):
            vector_upward_continue(c, R_INNER)


class TestVectorOptimize:
    def test_rejects_scalar_geometry(self):
        g = reduced_geometry(case="scalar")
        w = PenaltyWeights.uniform(g, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            vector_optimize(g, w)

    def test_stationarity(self):
        for rho in (0.5, 0.1, 0.01):
            g = reduced_geometry(rho=rho)
            w = PenaltyWeights.uniform(g, 2.0, 3.0, 0.5)
            gram = gram_vector(g.kN, rho)
            pair = vector_optimize(g, w, gram=gram)
            scale = 1.0 + float(np.linalg.norm(np.concatenate([w.alpha, w.alpha_tilde])))
            assert stationarity_residual(pair, w, gram) < 1e-8 * scale

    def test_near_decoupled_limit(self):
        # as rho -> 0 the Gram matrix becomes diag((2n+1) c_n) with both
        # tangential channels counting, so the minimizer solves independent
        # per-degree 2x2 systems
        g = reduced_geometry(rho=1e-9)
        w = PenaltyWeights.uniform(g, 0.1, 0.1, 0.5)
        pair = vector_optimize(g, w, gram=gram_vector(g.kN, 1e-9))
        sig = g.sigmas(g.N)
        x = pair.phi.values * sig
        y = pair.phi_tilde.values
        for n in range(g.kN + 1):
            gn = (2 * n + 1) * (1.0 if n == 0 else 2.0)
            if n <= g.N:
                m = np.array([
                    [w.alpha[n] + w.beta / sig[n] ** 2 + gn, -gn],
                    [-gn, w.alpha_tilde[n] + gn],
                ])
                ref = np.linalg.solve(m, np.array([w.alpha[n], w.alpha_tilde[n]]))
                assert x[n] == pytest.approx(ref[0], abs=1e-8)
                assert y[n] == pytest.approx(ref[1], abs=1e-8)
            else:
                ref = w.alpha_tilde[n] / (w.alpha_tilde[n] + gn)
                assert y[n] == pytest.approx(ref, abs=1e-8)

    def test_beats_shannon(self):
        g = reduced_geometry(rho=0.5)
        w = PenaltyWeights.uniform(g, 2.0, 3.0, 0.5)
        gram = gram_vector(g.kN, g.rho)
        pair = vector_optimize(g, w, gram=gram)
        assert functional_value(pair, w, gram) < functional_value(
            shannon_reference_pair(g, g.N), w, gram
        )


class TestScalingTransform:
    def test_zero_symbols_zero_output(self):
        g = Geometry(1.0, 1.2, 6, kappa=1.5, rho=0.5, case="vector")
        pair = KernelPair(g, SymbolSet.zeros(6), SymbolSet.zeros(9))
        f1 = random_vector_field(1.2, 4, seed=13)
        rng = np.random.default_rng(14)
        pts = np.array([random_unit(rng) for _ in range(3)])
        out = vector_scaling_transform(pair, f1, pts)
        np.testing.assert_allclose(out, 0.0, atol=1e-15)

    def test_shannon_recovers_truncation(self):
        # phi = 1/sigma undoes upward continuation for degrees <= N
        g = Geometry(R_INNER, R_OUTER, 6, kappa=1.5, rho=2.0, case="vector")
        pair = shannon_reference_pair(g, g.N)
        b = random_vector_field(R_INNER, 6, seed=15)
        f1 = vector_upward_continue(b, R_OUTER)
        rng = np.random.default_rng(16)
        pts = np.array([random_unit(rng) for _ in range(4)])
        expected = vector_synthesize(b, pts)
        for out in (vector_scaling_transform(pair, f1, pts),
                    node_wise.vector_scaling(pair, f1, pts)):
            np.testing.assert_allclose(out, expected,
                                       atol=1e-9 * np.abs(expected).max())

    def test_quadrature_matches_spectral(self):
        g = Geometry(1.0, 1.3, 6, kappa=4.0 / 3.0, rho=0.5, case="vector")
        pair = KernelPair(
            g,
            SymbolSet(6, np.linspace(1.0, 0.25, 7)),
            SymbolSet(8, np.linspace(1.0, 0.0, 9)),
        )
        coeffs = random_vector_field(1.3, 10, seed=17)
        samples = vector_field_samples(coeffs, 2 * 10 + 2)
        rng = np.random.default_rng(18)
        pts = np.array([random_unit(rng) for _ in range(5)])
        quad = node_wise.vector_scaling(pair, samples, pts)
        spec = vector_scaling_transform(pair, coeffs, pts)
        np.testing.assert_allclose(quad, spec, atol=1e-9 * (1.0 + np.abs(spec).max()))

    def test_exactness_rejections(self):
        g = Geometry(1.0, 1.3, 6, kappa=1.5, rho=0.5, case="vector")
        pair = shannon_reference_pair(g, g.N)
        coeffs = random_vector_field(1.3, 5, seed=19)
        # one short of min(N, degree) + degree + 2, below and above N = 6
        for degree in (5, 9):
            thin = vector_field_samples(random_vector_field(1.3, degree, seed=19),
                                        min(g.N, degree) + degree + 1)
            with pytest.raises(ValueError):
                vector_scaling_transform(pair, thin, np.array([[0.0, 0.0, 1.0]]))
        with pytest.raises(TypeError):
            vector_scaling_transform(pair, coeffs.data, np.array([[0.0, 0.0, 1.0]]))
        scalar_pair = shannon_reference_pair(Geometry(1.0, 1.3, 6, kappa=1.5, rho=0.5), 6)
        with pytest.raises(ValueError):
            vector_scaling_transform(scalar_pair, coeffs, np.array([[0.0, 0.0, 1.0]]))

    def test_method_keyword_takes_only_spectral(self):
        g = Geometry(1.0, 1.3, 6, kappa=1.5, rho=0.5, case="vector")
        pair = shannon_reference_pair(g, g.N)
        coeffs = random_vector_field(1.3, 5, seed=19)
        pts = np.array([[0.0, 0.0, 1.0]])
        named = vector_scaling_transform(pair, coeffs, pts, method="spectral")
        assert np.array_equal(named, vector_scaling_transform(pair, coeffs, pts))
        with pytest.raises(ValueError):
            vector_scaling_transform(pair, coeffs, pts, method="quadrature")


class TestWaveletLocal:
    def test_zero_wavelet_zero_output(self):
        g = Geometry(1.0, 1.2, 5, kappa=1.6, rho=0.8, case="vector")
        phi = SymbolSet(5, np.linspace(1.0, 0.5, 6))
        coupled = np.zeros(9)
        coupled[:6] = phi.values * g.sigmas(5)
        pair = KernelPair(g, phi, SymbolSet(8, coupled))
        np.testing.assert_allclose(pair.psi_tilde.values, 0.0, atol=1e-15)
        region = RegionSpec(NORTH, 2.0, 0.8)
        f2 = random_vector_field(1.0, 6, seed=20)
        out = vector_wavelet_transform_local(pair, f2, NORTH, region)
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_outside_region_rejected(self):
        g = Geometry(1.0, 1.2, 5, kappa=1.6, rho=0.3, case="vector")
        pair = shannon_reference_pair(g, g.N)
        region = RegionSpec(NORTH, 0.5, 0.3)
        f2 = random_vector_field(1.0, 4, seed=21)
        with pytest.raises(ValueError):
            vector_wavelet_transform_local(pair, f2, (1.0, 0.0, 0.0), region)

    def test_spectral_matches_quadrature_on_true_cap(self):
        # the cap-restricted tensor kernel still acts degree by degree and
        # type by type, so the spectral multipliers reproduce the node-wise
        # integral for bandlimited data on any cap
        g = Geometry(1.0, 1.2, 6, kappa=1.5, rho=0.5, case="vector")
        pair = KernelPair(
            g,
            SymbolSet(6, np.linspace(0.8, 0.2, 7)),
            SymbolSet(9, np.linspace(1.0, 0.1, 10)),
        )
        f2 = random_vector_field(1.0, 12, seed=22)
        region = RegionSpec(NORTH, 2.0, 0.5)
        rng = np.random.default_rng(122)
        for x in [NORTH, *(random_unit(rng) for _ in range(3))]:
            quad = node_wise.vector_wavelet(pair, f2, x, region.kernel_rho)
            spec = vector_wavelet_transform_local(pair, f2, x, region)
            np.testing.assert_allclose(spec, quad, rtol=0,
                                       atol=1e-12 * np.abs(quad).max())

    def test_full_sphere_cap_matches_spectral(self):
        g = Geometry(1.0, 1.11, 6, kappa=1.5, rho=2.0, case="vector")
        pair = KernelPair(
            g,
            SymbolSet(6, np.linspace(0.8, 0.2, 7)),
            SymbolSet(9, np.linspace(1.0, 0.1, 10)),
        )
        f2 = random_vector_field(1.0, 12, seed=23)
        region = RegionSpec(NORTH, 2.0, 2.0)
        rng = np.random.default_rng(24)
        for _ in range(3):
            x = random_unit(rng)
            quad = node_wise.vector_wavelet(pair, f2, x, region.kernel_rho)
            spec = vector_wavelet_transform_local(pair, f2, x, region)
            np.testing.assert_allclose(quad, spec, atol=1e-9 * (1.0 + np.abs(spec).max()))


class TestApproximate:
    def test_zero_kernels_zero_field(self):
        g = Geometry(1.0, 1.2, 5, kappa=1.6, rho=0.5, case="vector")
        pair = KernelPair(g, SymbolSet.zeros(5), SymbolSet.zeros(8))
        f1 = random_vector_field(1.2, 4, seed=25)
        f2 = random_vector_field(1.0, 4, seed=26)
        region = RegionSpec(NORTH, 0.8, 0.5)
        pts = np.array([NORTH])
        out = vector_approximate(pair, f1, f2, region, pts)
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_shannon_full_cap_recovery(self):
        # noise-free data and the sharp-cutoff pair telescope to the truth
        # for degrees <= kN when the cap covers the whole sphere
        g = Geometry(R_INNER, R_OUTER, 20, kappa=1.5, rho=2.0, case="vector")
        pair = shannon_reference_pair(g, g.N)
        b = random_vector_field(R_INNER, g.kN, seed=27)
        f1 = vector_upward_continue(b, R_OUTER)
        region = RegionSpec(NORTH, 2.0, 2.0)
        approx = vector_approximate_coefficients(pair, f1, b, region)
        assert vector_relative_error(b, approx, region) < 1e-7

        rng = np.random.default_rng(28)
        pts = np.array([random_unit(rng) for _ in range(2)])
        expected = vector_synthesize(b, pts)
        for out in (vector_approximate(pair, f1, b, region, pts),
                    node_wise.vector_approximate(pair, f1, b, region, pts)):
            np.testing.assert_allclose(out, expected,
                                       atol=1e-7 * np.abs(expected).max())

    def test_methods_agree_for_bandlimited_data(self):
        g = Geometry(1.0, 1.3, 6, kappa=4.0 / 3.0, rho=2.0, case="vector")
        pair = KernelPair(
            g,
            SymbolSet(6, np.linspace(1.2, 0.3, 7)),
            SymbolSet(8, np.linspace(1.0, 0.2, 9)),
        )
        f1 = random_vector_field(1.3, 10, seed=29)
        f2 = random_vector_field(1.0, 10, seed=30)
        rng = np.random.default_rng(31)
        pts = np.array([random_unit(rng) for _ in range(3)])
        for kernel_rho in (2.0, 0.5):
            region = RegionSpec(NORTH, 2.0, kernel_rho)
            spec = vector_approximate(pair, f1, f2, region, pts)
            quad = node_wise.vector_approximate(pair, f1, f2, region, pts)
            np.testing.assert_allclose(quad, spec,
                                       atol=1e-9 * (1.0 + np.abs(spec).max()))

    def test_point_and_cap_validation(self):
        g = Geometry(1.0, 1.2, 5, kappa=1.6, rho=0.3, case="vector")
        pair = shannon_reference_pair(g, g.N)
        f1 = random_vector_field(1.2, 4, seed=32)
        f2 = random_vector_field(1.0, 4, seed=33)
        region = RegionSpec(NORTH, 0.5, 0.3)
        with pytest.raises(ValueError):
            vector_approximate(pair, f1, f2, region, np.array([[1.0, 0.0, 0.0]]))
        wide = RegionSpec(NORTH, 0.8, 0.6)
        with pytest.raises(ValueError):
            vector_approximate(pair, f1, f2, wide, np.array([NORTH]))


class TestRelativeError:
    def test_identical_fields(self):
        b = random_vector_field(1.0, 5, seed=34)
        region = RegionSpec(NORTH, 0.9, 0.4)
        assert vector_relative_error(b, b, region) == pytest.approx(0.0, abs=1e-14)

    def test_zero_approximation(self):
        b = random_vector_field(1.0, 5, seed=35)
        zero = VectorCoefficients(1.0, 5)
        region = RegionSpec(NORTH, 0.9, 0.4)
        assert vector_relative_error(b, zero, region) == pytest.approx(1.0, rel=1e-12)

    def test_scaling_homogeneity(self):
        b = random_vector_field(1.0, 5, seed=36)
        scaled = VectorCoefficients(1.0, 5, 1.1 * b.data)
        region = RegionSpec(NORTH, 0.9, 0.4)
        assert vector_relative_error(b, scaled, region) == pytest.approx(
            0.1, abs=1e-12
        )

    def test_radius_mismatch(self):
        b = random_vector_field(1.0, 3, seed=37)
        other = random_vector_field(2.0, 3, seed=38)
        with pytest.raises(ValueError):
            vector_relative_error(b, other, RegionSpec(NORTH, 0.9, 0.4))


class TestTensorKernel:
    def test_matches_closed_form_oracle(self):
        rng = np.random.default_rng(39)
        values = rng.standard_normal(9)
        symbols = SymbolSet(8, values)
        for _ in range(5):
            xi = random_unit(rng)
            eta = random_unit(rng)
            np.testing.assert_allclose(
                tensor_kernel_eval(symbols, xi, eta),
                oracles.vector_tensor_matrix(values, xi, eta),
                atol=1e-12,
            )

    def test_tensor_zonality(self):
        rng = np.random.default_rng(40)
        symbols = SymbolSet(10, rng.standard_normal(11))
        xi = random_unit(rng)
        eta = random_unit(rng)
        base = np.linalg.norm(tensor_kernel_eval(symbols, xi, eta))
        for _ in range(8):
            q = random_rotation(rng)
            rotated = np.linalg.norm(tensor_kernel_eval(symbols, q @ xi, q @ eta))
            assert rotated == pytest.approx(base, abs=1e-10 * (1.0 + base))

    def test_frobenius_parseval(self):
        # full-interval energy of the Frobenius profile against the
        # degree-wise sum with both tangential channels counted
        rng = np.random.default_rng(41)
        symbols = SymbolSet(10, rng.standard_normal(11))
        xi = oracles.generic_direction()
        u, _ = oracles.orthonormal_complement(xi)
        t, w = np.polynomial.legendre.leggauss(symbols.n_max + 4)
        total = 0.0
        for ti, wi in zip(t, w):
            eta = ti * xi + math.sqrt(1.0 - ti * ti) * u
            frob = np.linalg.norm(tensor_kernel_eval(symbols, xi, eta))
            total += wi * frob * frob
        energy = full_interval_energy(symbols, "vector")
        assert 8.0 * math.pi**2 * total == pytest.approx(energy, rel=1e-9)

    def test_first_moment_identity(self):
        # neighbouring-degree band formula against direct quadrature of
        # t |K(t)|_F^2, both through the package and through the oracle
        rng = np.random.default_rng(42)
        values = rng.standard_normal(11)
        symbols = SymbolSet(10, values)
        xi = oracles.generic_direction()
        u, _ = oracles.orthonormal_complement(xi)
        t, w = np.polynomial.legendre.leggauss(symbols.n_max + 4)
        total = 0.0
        for ti, wi in zip(t, w):
            eta = ti * xi + math.sqrt(1.0 - ti * ti) * u
            frob = np.linalg.norm(tensor_kernel_eval(symbols, xi, eta))
            total += wi * ti * frob * frob
        claimed = tensor_first_moment(symbols)
        assert 8.0 * math.pi**2 * total == pytest.approx(claimed, rel=1e-8)

        moment = oracles.vector_profile_moment_matrix(10)
        oracle_total = float(values @ moment @ values)
        assert 8.0 * math.pi**2 * oracle_total == pytest.approx(claimed, rel=1e-8)

    def test_gram_form_for_optimized_pair(self):
        g = Geometry(R_INNER, R_OUTER, 6, kappa=4.0 / 3.0, rho=0.6, case="vector")
        w = PenaltyWeights.uniform(g, 1.0, 1.0, 1.0)
        gram = gram_vector(g.kN, g.rho)
        pair = vector_optimize(g, w, gram=gram)
        direct = oracles.vector_profile_energy(pair.psi_tilde.values, g.rho)
        form = gram.quadratic_form(pair.psi_tilde.values)
        assert form == pytest.approx(8.0 * math.pi**2 * direct, rel=1e-8)


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        c = random_vector_field(6371.2, 5, seed=43)
        path = tmp_path / "field.txt"
        save_vector_coefficients(c, path)
        back = load_vector_coefficients(path)
        assert back.radius == c.radius
        assert back.n_max == c.n_max
        np.testing.assert_array_equal(back.data, c.data)

    def test_header_validation(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# radius_km=1.0 n_max=2\n")
        with pytest.raises(ValueError, match="channels"):
            load_vector_coefficients(path)
        path.write_text("# radius_km=1.0 n_max=2 channels=3\n")
        with pytest.raises(ValueError, match="channels"):
            load_vector_coefficients(path)

    def test_bad_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(
            "# radius_km=1.0 n_max=2 channels=2\n1 0 1 0.5\n2 0 1 0.25\n"
        )
        with pytest.raises(ValueError, match="line 3"):
            load_vector_coefficients(path)
