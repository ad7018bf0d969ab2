import dataclasses
import math
import warnings

import numpy as np
import pytest

import node_wise
from capwave import harmonics, transforms
from capwave.harmonics import (
    HarmonicCoefficients,
    SphereGrid,
    VectorCoefficients,
    cap_grid,
    sphere_grid,
    synthesize,
)
from capwave.kernels import (
    Geometry,
    KernelPair,
    PenaltyWeights,
    SymbolSet,
    gram_scalar,
    gram_vector,
    optimize,
    shannon_reference_pair,
)
from capwave.transforms import (
    FieldSamples,
    NoiseSpec,
    RegionSpec,
    _check_evaluation,
    _outer_coefficients,
    add_noise,
    approximate,
    approximate_coefficients,
    default_region,
    field_samples,
    relative_error,
    relative_errors,
    scaling_transform,
    upward_continue,
    wavelet_multipliers,
    wavelet_transform_local,
)

R_INNER = 6371.2
R_OUTER = 7071.2
NORTH = (0.0, 0.0, 1.0)


def reduced_geometry(rho=0.5):
    return Geometry(R_INNER, R_OUTER, 30, kappa=4.0 / 3.0, rho=rho, case="scalar")


def random_field(radius, n_max, seed):
    rng = np.random.default_rng(seed)
    return HarmonicCoefficients(radius, n_max, rng.standard_normal((n_max + 1) ** 2))


def random_pair(geometry, seed):
    rng = np.random.default_rng(seed)
    phi = SymbolSet(geometry.N, rng.standard_normal(geometry.N + 1))
    phi_tilde = SymbolSet(geometry.kN, rng.standard_normal(geometry.kN + 1))
    return KernelPair(geometry, phi, phi_tilde)


def points_in_region(region, count, seed):
    """Random unit directions inside the evaluation region."""
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < count:
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        if region.contains(v, tol=-1e-6):
            pts.append(v)
    return np.array(pts)


class TestRegionSpec:
    def test_eval_region_erosion(self):
        region = RegionSpec(NORTH, 0.6, 0.5)
        assert region.eval_rho == pytest.approx(0.1, abs=1e-15)
        assert region.contains(NORTH)
        t_in = 1.0 - 0.05
        t_out = 1.0 - 0.3
        s_in = math.sqrt(1.0 - t_in**2)
        s_out = math.sqrt(1.0 - t_out**2)
        assert region.contains((s_in, 0.0, t_in))
        assert not region.contains((s_out, 0.0, t_out))

    def test_global_data_coverage(self):
        region = RegionSpec(NORTH, 2.0, 0.5)
        assert region.eval_rho == 2.0
        assert region.contains((0.0, 0.0, -1.0))

    def test_contains_agrees_with_approximate_on_non_unit_points(self):
        # a point's direction decides: (4, 0, 2) lies at 1 - 2/sqrt(20) =
        # 0.553 from the centre, past eval_rho 0.5, though x.center = 2
        g = reduced_geometry()
        pair = shannon_reference_pair(g, g.N)
        region = RegionSpec(NORTH, 1.0, 0.5)
        f1, f2 = random_field(R_OUTER, 8, 60), random_field(R_INNER, 8, 61)
        for x, inside in (((4.0, 0.0, 2.0), False), ((-3.0, 0.0, 0.1), False),
                          ((1.0, 0.0, 2.0), True), ((0.0, 0.0, 5.0), True),
                          ((0.0, 0.3, 0.4), True)):
            assert region.contains(x) == inside
            if inside:
                approximate(pair, f1, f2, region, np.array([x]))
            else:
                with pytest.raises(ValueError, match="outside the evaluation region"):
                    approximate(pair, f1, f2, region, np.array([x]))

    @pytest.mark.parametrize("data_rho", [1.0, 2.0])
    @pytest.mark.parametrize("bad", [(0.0, 0.0, 0.0), (np.nan, 0.0, 1.0), (0.0, np.inf, 1.0)])
    def test_contains_rejects_zero_and_non_finite_points(self, data_rho, bad):
        region = RegionSpec(NORTH, data_rho, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite nonzero 3-vectors"):
                region.contains(bad)

    @pytest.mark.parametrize("center", [(np.nan, 0.0, 1.0), (0.0, np.inf, 1.0)])
    def test_non_finite_center_rejected(self, center):
        with pytest.raises(ValueError, match="finite nonzero direction"):
            RegionSpec(center, 1.0, 0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            RegionSpec(NORTH, 0.5, 0.5)
        with pytest.raises(ValueError):
            RegionSpec(NORTH, 0.4, 0.6)
        with pytest.raises(ValueError):
            RegionSpec(NORTH, 0.5, 0.0)
        with pytest.raises(ValueError):
            RegionSpec((0.0, 0.0, 0.0), 0.5, 0.1)

    def test_center_normalized(self):
        region = RegionSpec((0.0, 0.0, 5.0), 0.6, 0.5)
        assert np.allclose(region.center_direction, [0.0, 0.0, 1.0])

    def test_default_margin(self):
        region = default_region(NORTH, 0.5)
        assert region.data_rho == pytest.approx(0.6, abs=1e-15)
        wide = default_region(NORTH, 1.95)
        assert wide.data_rho == 2.0

    def test_grids_live_on_given_radius(self):
        region = RegionSpec(NORTH, 0.6, 0.5)
        assert region.eval_grid(R_INNER, 20).radius == R_INNER
        assert region.data_grid(R_INNER, 20).radius == R_INNER


class TestUpwardContinue:
    def test_degree_zero_unchanged(self):
        u = random_field(R_INNER, 5, 1)
        up = upward_continue(u, R_OUTER)
        assert up.radius == R_OUTER
        assert up.coeff(0, 1) == u.coeff(0, 1)

    def test_single_degree_damping(self):
        r, R = 0.9010, 1.0
        u = HarmonicCoefficients(r, 10)
        u.set_coeff(10, 3, 1.0)
        up = upward_continue(u, R)
        assert up.coeff(10, 3) == pytest.approx(0.9010**10, rel=1e-15)
        assert up.coeff(10, 3) == pytest.approx(0.3524, abs=3e-4)

    def test_round_trip(self):
        u = random_field(R_INNER, 20, 2)
        up = upward_continue(u, R_OUTER)
        n = np.arange(21, dtype=float)
        back = up.scaled_by_degree((R_OUTER / R_INNER) ** n, radius=R_INNER)
        assert np.max(np.abs(back.data - u.data)) < 1e-12 * np.max(np.abs(u.data))

    def test_requires_larger_radius(self):
        u = random_field(R_INNER, 5, 3)
        with pytest.raises(ValueError):
            upward_continue(u, R_INNER)

    @pytest.mark.parametrize("R", [math.inf, math.nan])
    def test_requires_finite_radius(self, R):
        # inf used to give a field at radius inf, nan one of nan symbols
        with pytest.raises(ValueError, match="upward continuation needs R > r"):
            upward_continue(random_field(R_INNER, 5, 3), R)


class TestScalingTransform:
    def test_zero_symbols_give_zero(self):
        g = reduced_geometry()
        pair = KernelPair(g, SymbolSet.zeros(g.N), SymbolSet.zeros(g.kN))
        f1 = field_samples(random_field(R_OUTER, 20, 4), g.N + 20)
        pts = points_in_region(RegionSpec(NORTH, 0.6, 0.5), 5, 5)
        out = scaling_transform(pair, f1, pts)
        assert np.allclose(out, 0.0, atol=1e-30)

    def test_shannon_reproduces_bandlimited_potential(self):
        g = reduced_geometry()
        pair = shannon_reference_pair(g, g.N)
        u_plus = random_field(R_INNER, g.N, 6)
        f1 = field_samples(upward_continue(u_plus, R_OUTER), 2 * g.N)
        region = RegionSpec(NORTH, 0.6, 0.5)
        pts = points_in_region(region, 8, 7)
        out = scaling_transform(pair, f1, pts)
        expected = synthesize(u_plus, pts)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(out - expected)) < 1e-9 * scale

    def test_quadrature_and_spectral_paths_agree(self):
        g = reduced_geometry()
        pair = optimize(g, PenaltyWeights.uniform(g, 1.0, 1.0, 0.1))
        f1 = field_samples(random_field(R_OUTER, 20, 8), g.N + 20)
        pts = points_in_region(RegionSpec(NORTH, 0.6, 0.5), 10, 9)
        quad = node_wise.scaling(pair, f1, pts)
        spec = scaling_transform(pair, f1, pts)
        scale = np.max(np.abs(quad))
        assert np.max(np.abs(quad - spec)) < 1e-10 * scale

    def test_coefficient_input_accepted(self):
        g = reduced_geometry()
        pair = shannon_reference_pair(g, g.N)
        f1 = random_field(R_OUTER, 15, 10)
        pts = points_in_region(RegionSpec(NORTH, 0.6, 0.5), 4, 11)
        quad = node_wise.scaling(pair, f1, pts)
        spec = scaling_transform(pair, f1, pts)
        assert np.max(np.abs(quad - spec)) < 1e-10 * np.max(np.abs(quad))

    def test_insufficient_exactness_rejected(self):
        # one short of min(N, degree) + degree, below and above N = 30
        g = reduced_geometry()
        pair = shannon_reference_pair(g, g.N)
        pts = np.array([[0.0, 0.0, 1.0]])
        for degree in (20, 40):
            coarse = field_samples(random_field(R_OUTER, degree, 12),
                                   min(g.N, degree) + degree - 1)
            with pytest.raises(ValueError):
                scaling_transform(pair, coarse, pts)


class TestWaveletTransformLocal:
    def test_zero_wavelet_gives_zero(self):
        g = reduced_geometry()
        rng = np.random.default_rng(13)
        phi = SymbolSet(g.N, rng.standard_normal(g.N + 1))
        phi_tilde_vals = np.zeros(g.kN + 1)
        phi_tilde_vals[: g.N + 1] = phi.values * g.sigmas(g.N)
        pair = KernelPair(g, phi, SymbolSet(g.kN, phi_tilde_vals))
        assert np.allclose(pair.psi_tilde.values, 0.0, atol=1e-15)
        region = RegionSpec(NORTH, 0.6, 0.5)
        f2 = random_field(R_INNER, 20, 14)
        assert wavelet_transform_local(pair, f2, NORTH, region) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_point_outside_region_rejected(self):
        g = reduced_geometry()
        pair = shannon_reference_pair(g, g.N)
        region = RegionSpec(NORTH, 0.6, 0.5)
        f2 = random_field(R_INNER, 10, 15)
        t_out = 1.0 - 0.3
        x = (math.sqrt(1.0 - t_out**2), 0.0, t_out)
        with pytest.raises(ValueError):
            wavelet_transform_local(pair, f2, x, region)

    def test_zero_point_rejected_without_warning(self):
        g = reduced_geometry()
        pair = shannon_reference_pair(g, g.N)
        region = RegionSpec(NORTH, 0.6, 0.5)
        f2 = random_field(R_INNER, 10, 15)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite nonzero 3-vectors"):
                wavelet_transform_local(pair, f2, np.zeros(3), region)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_point_rejected_before_region_test(self, bad):
        # nan > eval_rho is False, so the region test alone lets NaN through
        g = reduced_geometry()
        pair = shannon_reference_pair(g, g.N)
        region = RegionSpec(NORTH, 0.6, 0.5)
        with pytest.raises(ValueError, match="finite nonzero 3-vectors"):
            _check_evaluation(pair, region, np.array([[0.0, 0.0, 1.0], [bad, 0.0, 1.0]]))

    def test_full_sphere_cap_matches_spectral_identity(self):
        g = Geometry(1.0, 1.11, 10, kappa=1.5, rho=2.0, case="scalar")
        pair = random_pair(g, 16)
        region = RegionSpec(NORTH, 2.0, 2.0)
        f2 = random_field(1.0, 18, 17)
        x = np.array([0.3, -0.4, math.sqrt(1 - 0.25)])
        x /= np.linalg.norm(x)
        quad = node_wise.wavelet(pair, f2, x, region.kernel_rho)
        psi = np.zeros(f2.n_max + 1)
        psi[: g.kN + 1] = pair.psi_tilde.values
        spectral_field = f2.scaled_by_degree(psi)
        spectral = float(synthesize(spectral_field, x[None, :])[0])
        assert quad == pytest.approx(spectral, rel=1e-9, abs=1e-9)

    def test_cap_quadrature_matches_multipliers_for_bandlimited_data(self):
        g = Geometry(1.0, 1.11, 10, kappa=1.5, rho=0.8, case="scalar")
        pair = random_pair(g, 18)
        region = RegionSpec(NORTH, 0.9, 0.8)
        f2 = random_field(1.0, 12, 19)
        x = NORTH
        quad = node_wise.wavelet(pair, f2, x, region.kernel_rho)
        spec = wavelet_transform_local(pair, f2, x, region)
        assert quad == pytest.approx(spec, rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("kernel_rho", [0.0, -0.1, 2.0 + 1e-12, 3.0, np.nan])
    def test_multipliers_reject_cap_radius_outside_zero_two(self, kernel_rho):
        # past 2 the Gauss rule would run below t = -1
        pair = random_pair(Geometry(1.0, 1.11, 10, kappa=1.5, rho=2.0, case="scalar"), 20)
        with pytest.raises(ValueError, match=r"kernel_rho must lie in \(0, 2\]"):
            wavelet_multipliers(pair, kernel_rho, 10)

    def test_multipliers_at_full_cap_equal_symbols(self):
        g = Geometry(1.0, 1.11, 10, kappa=1.5, rho=2.0, case="scalar")
        pair = random_pair(g, 20)
        lam = wavelet_multipliers(pair, 2.0, g.kN)
        assert np.max(np.abs(lam - pair.psi_tilde.values)) < 1e-12

    def test_leakage_bound(self):
        g = Geometry(1.0, 1.11, 10, kappa=1.5, rho=0.7, case="scalar")
        gram = gram_scalar(g.kN, g.rho)
        region = RegionSpec(NORTH, 0.8, 0.7)
        rng = np.random.default_rng(21)
        eight_pi_sq = 8.0 * math.pi**2
        for trial in range(100):
            pair = random_pair(g, 1000 + trial)
            f2 = random_field(1.0, 20, 2000 + trial)
            x = points_in_region(region, 1, 3000 + trial)[0]
            cap_value = node_wise.wavelet(pair, f2, x, region.kernel_rho)
            psi = np.zeros(f2.n_max + 1)
            psi[: g.kN + 1] = pair.psi_tilde.values
            full_value = float(synthesize(f2.scaled_by_degree(psi), x[None, :])[0])
            tail_norm = math.sqrt(
                max(float(pair.psi_tilde.values @ gram @ pair.psi_tilde.values), 0.0)
                / (eight_pi_sq * g.r**4)
            )
            bound = math.sqrt(2.0 * math.pi) * g.r * tail_norm * f2.l2_norm()
            assert abs(cap_value - full_value) <= bound * (1.0 + 1e-9) + 1e-12


def gram_complement(psi, case, kernel_rho, n_max):
    """The cap multiplier table from the cap-exterior Gram instead of the cap
    rule: the whole-sphere multiplier psi_n less the exterior part,
    lambda_n = psi_n - (G psi)_n / (2n+1) with G = gram_scalar, and for a
    gradient field mu_n the same with gram_vector - gram_scalar, whose row
    and column 0 are taken as zero (type 2 starts at degree 1)."""
    d = max(psi.size - 1, n_max)
    p = np.zeros(d + 1)
    p[: psi.size] = psi
    scale = np.arange(1, 2 * d + 2, 2, dtype=float)
    G = gram_scalar(d, kernel_rho)
    rows = [p - G @ p / scale]
    if case == "vector":
        tangential = gram_vector(d, kernel_rho) - G
        tangential[0, :] = tangential[:, 0] = 0.0
        rows.append(p - tangential @ p / scale)
        rows[1][0] = 0.0
    return np.stack(rows)[:, : n_max + 1]


class TestMultipliersAgainstGram:
    """Two quadratures of one cap: the multipliers integrate over the cap
    with its own Gauss rule, the Gram complement over the cap exterior.
    Both form each multiplier from terms of the size of the symbols, so
    they agree to 1e-12 of the largest symbol: a localized kernel's
    low-degree multipliers are far smaller than that."""

    @pytest.mark.parametrize("case", ["scalar", "vector"])
    @pytest.mark.parametrize("kernel_rho", [0.2, 0.5, 1.0, 1.7])
    def test_multipliers_are_the_exterior_gram_complement(self, case, kernel_rho):
        g = Geometry(R_INNER, R_OUTER, 30, kappa=4.0 / 3.0, rho=kernel_rho, case=case)
        pairs = [optimize(g, PenaltyWeights.uniform(g, 2.0, 10.0, 1.0)),
                 shannon_reference_pair(g, 20), random_pair(g, 23)]
        for pair in pairs:
            for n_max in (10, g.kN, 44):
                psi = pair.psi_tilde.values
                table = transforms._multipliers_by_content(psi.tobytes(), case,
                                                           kernel_rho, n_max)
                expected = gram_complement(psi, case, kernel_rho, n_max)
                assert table.shape == expected.shape
                np.testing.assert_allclose(table, expected, rtol=0.0,
                                           atol=1e-12 * np.max(np.abs(psi)))


class TestApproximate:
    def test_exact_recovery_full_sphere_cap(self):
        g = reduced_geometry(rho=2.0)
        pair = shannon_reference_pair(g, g.N)
        u_plus = random_field(R_INNER, g.kN, 22)
        f1 = field_samples(upward_continue(u_plus, R_OUTER), 2 * g.kN)
        region = RegionSpec(NORTH, 2.0, 2.0)

        approx = approximate_coefficients(pair, f1, u_plus, region)
        assert relative_error(u_plus, approx, region) < 1e-8

        pts = points_in_region(region, 6, 23)
        vals = node_wise.approximate(pair, f1, u_plus, region, pts)
        expected = synthesize(u_plus, pts)
        assert np.max(np.abs(vals - expected)) < 1e-8 * np.max(np.abs(expected))

    def test_zero_kernels_give_zero(self):
        g = reduced_geometry()
        pair = KernelPair(g, SymbolSet.zeros(g.N), SymbolSet.zeros(g.kN))
        region = RegionSpec(NORTH, 0.6, 0.5)
        f1 = random_field(R_OUTER, 10, 24)
        f2 = random_field(R_INNER, 10, 25)
        pts = points_in_region(region, 4, 26)
        out = approximate(pair, f1, f2, region, pts)
        assert np.allclose(out, 0.0, atol=1e-25)

    def test_methods_agree_on_bandlimited_data(self):
        g = reduced_geometry(rho=0.5)
        pair = optimize(g, PenaltyWeights.uniform(g, 1.0, 1.0, 0.1))
        u_plus = random_field(R_INNER, 20, 27)
        f1 = field_samples(upward_continue(u_plus, R_OUTER), 2 * (g.N + 20))
        region = RegionSpec(NORTH, 0.6, 0.5)
        pts = points_in_region(region, 5, 28)
        quad = node_wise.approximate(pair, f1, u_plus, region, pts)
        spec = approximate(pair, f1, u_plus, region, pts)
        assert np.max(np.abs(quad - spec)) < 1e-9 * max(np.max(np.abs(quad)), 1.0)

    @pytest.mark.parametrize("case", ["scalar", "vector"])
    def test_points_normalized_once_per_evaluation(self, monkeypatch, case):
        # the region check's unit directions are the ones synthesis uses:
        # one _unit_directions call per evaluation, with synthesize's bits
        # at points that are not unit vectors
        g = Geometry(R_INNER, R_OUTER, 12, kappa=1.5, rho=0.5, case=case)
        pair = random_pair(g, 40)
        region = RegionSpec(NORTH, 0.6, 0.5)
        rng = np.random.default_rng(41)
        f1 = field_of_kind(case, R_OUTER, 10, rng)
        f2 = field_of_kind(case, R_INNER, 10, rng)
        pts = points_in_region(region, 5, 42) * rng.uniform(0.5, 3.0, (5, 1))
        calls = []
        real = harmonics._unit_directions

        def counted(points):
            calls.append(np.shape(points))
            return real(points)

        monkeypatch.setattr(harmonics, "_unit_directions", counted)
        monkeypatch.setattr(transforms, "_unit_directions", counted)
        for x in (pts, pts[0], pts[1:2]):
            calls.clear()
            out = approximate(pair, f1, f2, region, x)
            assert len(calls) == 1
            assert np.array_equal(
                out, synthesize(approximate_coefficients(pair, f1, f2, region), x))
        calls.clear()
        out = wavelet_transform_local(pair, f2, pts[2], region)
        assert len(calls) == 1
        expected = synthesize(
            transforms._cap_wavelet_coefficients(pair, f2, region.kernel_rho), pts[2])
        assert np.array_equal(out, expected)

    def test_point_outside_region_rejected(self):
        g = reduced_geometry()
        pair = shannon_reference_pair(g, g.N)
        region = RegionSpec(NORTH, 0.6, 0.5)
        f1 = random_field(R_OUTER, 5, 29)
        f2 = random_field(R_INNER, 5, 30)
        bad = np.array([[0.0, 0.0, -1.0]])
        with pytest.raises(ValueError):
            approximate(pair, f1, f2, region, bad)

    def test_wider_integration_cap_than_kernel_rejected(self):
        g = reduced_geometry(rho=0.1)
        pair = shannon_reference_pair(g, g.N)
        region = RegionSpec(NORTH, 0.6, 0.5)
        f1 = random_field(R_OUTER, 5, 31)
        f2 = random_field(R_INNER, 5, 32)
        with pytest.raises(ValueError):
            approximate(pair, f1, f2, region, np.array([NORTH]))


class TestAddNoise:
    def test_zero_level_returns_equal_copy(self):
        f = random_field(R_OUTER, 10, 33)
        spec = NoiseSpec(0.0, 0.5, noise_degree=15, seed=3)
        out = add_noise(f, spec, "sphere")
        assert out is not f
        assert np.array_equal(out.data, f.data)

    def test_sphere_norm_matching(self):
        f = random_field(R_OUTER, 40, 34)
        spec = NoiseSpec(0.05, 0.0, noise_degree=44, seed=4)
        out = add_noise(f, spec, "sphere")
        assert out.n_max == 44
        diff = out.data.copy()
        diff[: f.data.size] -= f.data
        noise_norm = float(np.linalg.norm(diff))
        assert noise_norm == pytest.approx(0.05 * f.l2_norm(), rel=1e-10)

    def test_cap_norm_matching(self):
        region = RegionSpec(NORTH, 0.6, 0.5)
        f = random_field(R_INNER, 40, 35)
        spec = NoiseSpec(0.0, 0.1, noise_degree=44, seed=5)
        out = add_noise(f, spec, region)
        grid = region.data_grid(R_INNER, 2 * 44)
        norm_f = math.sqrt(node_wise.cap_norm(f, grid))
        norm_e = math.sqrt(node_wise.cap_norm(out, grid, minus=f))
        assert norm_e == pytest.approx(0.1 * norm_f, rel=1e-10)

    @pytest.mark.parametrize("center", [(0.3, 0.4, 0.8), (0.0, 0.0, -1.0)])
    def test_cap_norm_matching_off_pole(self, center):
        region = RegionSpec(center, 0.6, 0.5)
        f = random_field(R_INNER, 40, 35)
        out = add_noise(f, NoiseSpec(0.0, 0.1, noise_degree=44, seed=5), region)
        grid = region.data_grid(R_INNER, 2 * 44)
        norm_f = math.sqrt(node_wise.cap_norm(f, grid))
        norm_e = math.sqrt(node_wise.cap_norm(out, grid, minus=f))
        assert norm_e == pytest.approx(0.1 * norm_f, rel=1e-12)

    def test_deterministic_per_seed(self):
        f = random_field(R_OUTER, 20, 36)
        spec = NoiseSpec(0.07, 0.0, noise_degree=30, seed=11)
        a = add_noise(f, spec, "sphere")
        b = add_noise(f, spec, "sphere")
        assert np.array_equal(a.data, b.data)
        other = add_noise(f, NoiseSpec(0.07, 0.0, noise_degree=30, seed=12), "sphere")
        assert not np.array_equal(a.data, other.data)

    def test_independent_streams_per_region_kind(self):
        f = random_field(R_INNER, 20, 37)
        spec = NoiseSpec(0.1, 0.1, noise_degree=30, seed=13)
        region = RegionSpec(NORTH, 2.0, 0.5)
        on_sphere = add_noise(f, spec, "sphere")
        on_cap = add_noise(f, spec, region)
        assert not np.array_equal(on_sphere.data, on_cap.data)

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec(-0.1, 0.0)
        f = random_field(R_INNER, 5, 38)
        with pytest.raises(ValueError):
            add_noise(f, NoiseSpec(0.1, 0.1), "cap")

    @pytest.mark.parametrize("norm_region", ["sphere", RegionSpec(NORTH, 0.6, 0.5)])
    def test_gradient_field_noise(self, norm_region):
        # a gradient field's noise is 2L - 1 draws of the (seed, region
        # kind) stream, type 1 and then type 2 from degree 1, with the
        # structural zero data[1, 0] inserted, as build_model draws
        sphere = norm_region == "sphere"
        eps = 0.1 if sphere else 0.2
        f = field_of_kind("vector", R_INNER, 12)
        out = add_noise(f, NoiseSpec(0.1, 0.2, noise_degree=16, seed=9), norm_region)
        size = 17 ** 2
        gen = np.random.Generator(np.random.Philox(key=[9, 0 if sphere else 1]))
        raw = np.insert(gen.standard_normal(2 * size - 1), size, 0.0).reshape(2, size)
        signal = harmonics._padded(f.data, 16)
        if sphere:
            norms = (f.l2_norm(), float(np.linalg.norm(raw)))
            grid = sphere_grid(R_INNER, 2 * 16 + 2)
        else:
            cap = (norm_region.center_direction, 0.6, 2 * 16 + 2)
            norms = [math.sqrt(harmonics._cap_norms(x[None], *cap)[0]) for x in (signal, raw)]
            grid = norm_region.data_grid(R_INNER, 2 * 16 + 2)
        assert isinstance(out, VectorCoefficients) and out.n_max == 16
        assert np.array_equal(out.data, signal + eps * norms[0] / norms[1] * raw)
        assert out.data[1, 0] == 0.0
        ratio = math.sqrt(node_wise.cap_norm(out, grid, minus=f) / node_wise.cap_norm(f, grid))
        assert ratio == pytest.approx(eps, rel=1e-12)

    def test_seeds_past_2_63_keep_their_own_stream(self):
        # a seed list of 2^63 or more used to become float64: 2^63 and
        # 2^63 + 1 drew one stream, and 2^64 - 1 overflowed in a cast
        f = random_field(R_OUTER, 5, 36)
        seeds = (2 ** 63, 2 ** 63 + 1, 2 ** 64 - 1)
        draws = [add_noise(f, NoiseSpec(0.1, 0.0, 5, s), "sphere").data for s in seeds]
        assert not np.array_equal(draws[0], draws[1])
        for s, data in zip(seeds, draws):
            gen = np.random.Generator(np.random.Philox(key=np.array([s, 0], dtype=np.uint64)))
            raw = gen.standard_normal(36)
            assert np.array_equal(data, f.data + 0.1 * f.l2_norm() / np.linalg.norm(raw) * raw)
        for s in (-1, 2 ** 64):
            with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\^64\)"):
                NoiseSpec(0.1, 0.0, 5, s)

    def test_counts_must_be_integers(self):
        # seed 1.5 used to draw seed 1's noise through the uint64 key, and
        # noise_degree 3.5 to fail only inside the draw
        with pytest.raises(TypeError, match="seed must be an integer, not 1.5"):
            NoiseSpec(0.1, 0.0, 5, 1.5)
        with pytest.raises(TypeError, match="noise_degree must be an integer, not 3.5"):
            NoiseSpec(0.1, 0.0, 3.5, 1)
        spec = NoiseSpec(0.1, 0.0, np.int64(5), np.uint64(2 ** 64 - 1))
        assert type(spec.noise_degree) is int and spec.seed == 2 ** 64 - 1

    @pytest.mark.parametrize("levels", [(math.nan, 0.1), (0.1, math.inf), (-0.1, 0.0)])
    def test_levels_must_be_finite_and_nonnegative(self, levels):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            NoiseSpec(*levels)


class TestRelativeError:
    def test_identical_fields(self):
        region = RegionSpec(NORTH, 0.6, 0.5)
        u = random_field(R_INNER, 15, 39)
        assert relative_error(u, u.copy(), region) == pytest.approx(0.0, abs=1e-14)

    def test_zero_approximation(self):
        region = RegionSpec(NORTH, 0.6, 0.5)
        u = random_field(R_INNER, 15, 40)
        zero = HarmonicCoefficients(R_INNER, 15)
        assert relative_error(u, zero, region) == pytest.approx(1.0, rel=1e-12)

    def test_homogeneity(self):
        region = RegionSpec(NORTH, 0.6, 0.5)
        u = random_field(R_INNER, 15, 41)
        scaled = HarmonicCoefficients(R_INNER, 15, 1.1 * u.data)
        assert relative_error(u, scaled, region) == pytest.approx(0.1, abs=1e-12)

    def test_zero_reference_rejected(self):
        region = RegionSpec(NORTH, 0.6, 0.5)
        zero = HarmonicCoefficients(R_INNER, 15)
        u = random_field(R_INNER, 15, 42)
        with pytest.raises(ValueError):
            relative_error(zero, u, region)

    @pytest.mark.parametrize("center", [NORTH, (0.3, 0.4, 0.8), (0.0, 0.0, -1.0)])
    def test_matches_node_wise_difference(self, center):
        region = RegionSpec(center, 0.6, 0.5)
        u = random_field(R_INNER, 30, 44)
        v = random_field(R_INNER, 36, 45)
        grid = region.eval_grid(R_INNER, 2 * 36)
        expected = math.sqrt(node_wise.cap_norm(v, grid, minus=u) / node_wise.cap_norm(u, grid))
        assert relative_error(u, v, region) == pytest.approx(expected, rel=1e-13)

    def test_radius_mismatch_rejected(self):
        region = RegionSpec(NORTH, 0.6, 0.5)
        u = random_field(R_INNER, 5, 43)
        v = random_field(R_OUTER, 5, 43)
        with pytest.raises(ValueError):
            relative_error(u, v, region)

    def test_radii_equal_within_1e_9_relative(self):
        # the rule of build_model and the transforms' radius checks
        region = RegionSpec(NORTH, 0.6, 0.5)
        u = random_field(R_INNER, 5, 43)
        near = HarmonicCoefficients(R_INNER * (1.0 + 1e-12), 5, u.data)
        assert near.radius != u.radius
        assert relative_error(u, near, region) == 0.0
        for a, b in ((1.0, 2.0), (2.0, 1.0)):
            with pytest.raises(ValueError, match="same sphere"):
                relative_error(random_field(a, 5, 1), random_field(b, 5, 2), region)

    def test_mixed_field_kinds_rejected(self):
        region = RegionSpec(NORTH, 0.6, 0.5)
        u = random_field(R_INNER, 5, 43)
        b = field_of_kind("vector", R_INNER)
        for ref, approx in ((u, b), (b, u)):
            with pytest.raises(ValueError, match="cannot compare"):
                relative_error(ref, approx, region)


class TestKeptReferenceNorm:
    """add_noise keeps the signal's norm and relative_error the reference's,
    by content: each call norms only the field that changed."""

    REGION = RegionSpec((0.3, 0.4, 0.8), 0.6, 0.5)

    @staticmethod
    def count_fields(monkeypatch):
        """Fields per _cap_norms call, kept norms (harmonics) and others alike."""
        fields = []
        real = harmonics._cap_norms

        def counted(data, *args):
            fields.append(len(data))
            return real(data, *args)

        monkeypatch.setattr(harmonics, "_cap_norms", counted)
        monkeypatch.setattr(transforms, "_cap_norms", counted)
        return fields

    @staticmethod
    def pair_of_fields(case, seed):
        rng = np.random.default_rng(seed)
        return [field_of_kind(case, R_INNER, 8, rng) for _ in range(2)]

    def test_add_noise_norms_one_field_per_call(self, monkeypatch):
        fields = self.count_fields(monkeypatch)
        harmonics._cap_norm_by_content.cache_clear()
        f = random_field(R_INNER, 8, 47)
        add_noise(f, NoiseSpec(0.0, 0.1, noise_degree=10, seed=6), self.REGION)
        assert fields == [1, 1]  # the signal, then the noise
        add_noise(f, NoiseSpec(0.0, 0.2, noise_degree=10, seed=7), self.REGION)
        assert fields == [1, 1, 1]  # the signal's norm is kept

    @pytest.mark.parametrize("case", ["scalar", "vector"])
    def test_relative_error_norms_one_field_per_call(self, monkeypatch, case):
        fields = self.count_fields(monkeypatch)
        harmonics._cap_norm_by_content.cache_clear()
        u, v = self.pair_of_fields(case, 48)
        relative_error(u, v, self.REGION)
        assert fields == [1, 1]  # the reference, then the difference
        relative_error(u, v.copy(), self.REGION)
        relative_error(u.copy(), v, self.REGION)
        assert fields == [1, 1, 1, 1]  # the reference's norm is kept

    def test_add_noise_after_a_write_equals_a_cold_memo(self):
        f = random_field(R_INNER, 8, 49)
        spec = NoiseSpec(0.0, 0.1, noise_degree=10, seed=8)
        before = add_noise(f, spec, self.REGION)
        f.set_coeff(2, 3, 5.0)
        warm = add_noise(f, spec, self.REGION)
        harmonics._cap_norm_by_content.cache_clear()
        assert np.array_equal(warm.data, add_noise(f, spec, self.REGION).data)
        f.data[:] = 0.0
        f.data[5] = 1.0
        warm = add_noise(f, spec, self.REGION)
        harmonics._cap_norm_by_content.cache_clear()
        assert np.array_equal(warm.data, add_noise(f, spec, self.REGION).data)
        assert not np.array_equal(before.data[9 ** 2:], warm.data[9 ** 2:])

    @pytest.mark.parametrize("case", ["scalar", "vector"])
    def test_relative_error_after_a_write_equals_a_cold_memo(self, case):
        u, v = self.pair_of_fields(case, 50)
        grid = self.REGION.eval_grid(R_INNER, 18)

        def node_wise_error():
            return math.sqrt(node_wise.cap_norm(v, grid, minus=u) / node_wise.cap_norm(u, grid))

        relative_error(u, v, self.REGION)
        u.data.flat[3] *= 2.0
        warm = relative_error(u, v, self.REGION)
        harmonics._cap_norm_by_content.cache_clear()
        assert warm == relative_error(u, v, self.REGION)
        assert warm == pytest.approx(node_wise_error(), rel=1e-12)
        if case == "vector":
            u.set_coeff(2, 1, 1, 4.0)
        else:
            u.set_coeff(1, 1, 4.0)
        warm = relative_error(u, v, self.REGION)
        harmonics._cap_norm_by_content.cache_clear()
        assert warm == relative_error(u, v, self.REGION)
        assert warm == pytest.approx(node_wise_error(), rel=1e-12)


class TestRelativeErrors:
    """relative_errors norms runs of candidates as one stack; every entry
    must be == to the one-candidate call, whatever its run."""

    WIDTH = transforms._RUN_WIDTH
    CAPS = [RegionSpec(NORTH, 1.0, 0.5), RegionSpec((0.3, 0.4, 0.8), 1.0, 0.5),
            RegionSpec((0.0, 0.0, -1.0), 1.8, 0.5)]

    @pytest.mark.parametrize("case", ["scalar", "vector"])
    @pytest.mark.parametrize("region", CAPS, ids=["polar", "off-pole", "south-pole"])
    def test_entries_equal_single_calls(self, case, region):
        rng = np.random.default_rng(51)
        ref = field_of_kind(case, R_INNER, 40, rng)
        candidates = [field_of_kind(case, R_INNER, 44, rng) for _ in range(2 * self.WIDTH + 1)]
        alone = [relative_error(ref, u, region) for u in candidates]
        for count in (1, self.WIDTH - 1, self.WIDTH, self.WIDTH + 1, 2 * self.WIDTH + 1):
            assert relative_errors(ref, candidates[:count], region) == alone[:count]
            assert relative_errors(ref, iter(candidates[:count]), region) == alone[:count]

    @pytest.mark.parametrize("case", ["scalar", "vector"])
    def test_mixed_degrees_keep_each_entry_s_own_exactness(self, case):
        # candidates of degrees 12 and 14 against a degree-10 reference are
        # normed at exactness 24 and 28: a run must never mix them
        rng = np.random.default_rng(52)
        region = self.CAPS[1]
        ref = field_of_kind(case, R_INNER, 10, rng)
        degrees = [12, 14, 12, 12, 14, 14, 8, 10] + [12] * (self.WIDTH + 2) + [14]
        candidates = [field_of_kind(case, R_INNER, n, rng) for n in degrees]
        alone = [relative_error(ref, u, region) for u in candidates]
        assert relative_errors(ref, candidates, region) == alone
        assert len(set(alone)) == len(alone)

    def test_empty_iterable(self):
        assert relative_errors(random_field(R_INNER, 5, 1), [], self.CAPS[0]) == []

    @pytest.mark.parametrize("case", ["scalar", "vector"])
    def test_generator_drawn_at_most_one_ahead(self, monkeypatch, case):
        # each _cap_norms call norms one run; by then at most one candidate
        # of the next run may have been drawn, and a run holds <= WIDTH
        rng = np.random.default_rng(53)
        ref = field_of_kind(case, R_INNER, 10, rng)
        degrees = [12] * (self.WIDTH + 3) + [14] * 2 + [10, 12] + [12] * (2 * self.WIDTH)
        candidates = [field_of_kind(case, R_INNER, n, rng) for n in degrees]
        drawn, calls = [0], []
        real = transforms._cap_norms

        def recorded(data, *args):
            calls.append((drawn[0], len(data)))
            return real(data, *args)

        def generate():
            for u in candidates:
                drawn[0] += 1
                yield u

        monkeypatch.setattr(transforms, "_cap_norms", recorded)
        errors = relative_errors(ref, generate(), self.CAPS[0])
        assert len(errors) == len(candidates)
        normed = 0
        for seen, size in calls:
            normed += size
            assert 1 <= size <= self.WIDTH
            assert normed <= seen <= normed + 1
        assert normed == len(candidates)
        assert [size for _, size in calls] == [self.WIDTH, 3, 2, 1, self.WIDTH, self.WIDTH, 1]

    def test_mismatched_candidate_rejected_in_any_position(self):
        ref = random_field(R_INNER, 5, 54)
        good = [random_field(R_INNER, 5, seed) for seed in range(3)]
        with pytest.raises(ValueError, match="same sphere"):
            relative_errors(ref, good + [random_field(R_OUTER, 5, 4)], self.CAPS[0])
        with pytest.raises(ValueError, match="cannot compare"):
            relative_errors(ref, good + [field_of_kind("vector", R_INNER)], self.CAPS[0])


def field_of_kind(case, radius=1.0, n_max=5, rng=None):
    rng = np.random.default_rng(46) if rng is None else rng
    size = (n_max + 1) ** 2
    if case == "vector":
        flat = rng.standard_normal(2 * size - 1)  # type 1, then type 2 from degree 1
        return VectorCoefficients(radius, n_max, np.insert(flat, size, 0.0).reshape(2, size))
    return HarmonicCoefficients(radius, n_max, rng.standard_normal(size))


def pair_of_kind(case, N=6):
    return shannon_reference_pair(Geometry(1.0, 1.3, N, kappa=1.5, rho=0.5, case=case), N)


def at_outer(pair, f):
    """f's coefficients on the outer sphere R, where outer data f1 lies."""
    return type(f)(pair.geometry.R, f.n_max, f.data)


KIND_REGION = RegionSpec(NORTH, 0.9, 0.4)
CHAIN = {
    "scaling_transform":
        lambda pair, f: scaling_transform(pair, at_outer(pair, f), np.array([NORTH])),
    "wavelet_transform_local":
        lambda pair, f: wavelet_transform_local(pair, f, NORTH, KIND_REGION),
    "approximate_coefficients":
        lambda pair, f: approximate_coefficients(pair, at_outer(pair, f), f, KIND_REGION),
    "approximate":
        lambda pair, f: approximate(pair, at_outer(pair, f), f, KIND_REGION,
                                    np.array([NORTH])),
}


class TestFieldKind:
    """One chain serves both field kinds; each field must match the pair's."""

    @pytest.mark.parametrize("name", CHAIN)
    @pytest.mark.parametrize("field_case, pair_case",
                             [("scalar", "vector"), ("vector", "scalar")])
    def test_mismatched_pair_rejected(self, name, field_case, pair_case):
        with pytest.raises(ValueError, match="kernel pair"):
            CHAIN[name](pair_of_kind(pair_case), field_of_kind(field_case))

    @pytest.mark.parametrize("name", CHAIN)
    @pytest.mark.parametrize("case", ["scalar", "vector"])
    def test_matched_pair_accepted(self, name, case):
        out = CHAIN[name](pair_of_kind(case), field_of_kind(case))
        if hasattr(out, "case"):  # a coefficient container
            assert out.case == case
            out = out.data
        assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("case", ["scalar", "vector"])
    def test_one_mismatched_data_set_rejected(self, case):
        other = "vector" if case == "scalar" else "scalar"
        pair = pair_of_kind(case)
        for f1, f2 in ((field_of_kind(case), field_of_kind(other)),
                       (field_of_kind(other), field_of_kind(case))):
            with pytest.raises(ValueError, match="kernel pair"):
                approximate_coefficients(pair, f1, f2, KIND_REGION)


OUTER_READERS = {
    "scaling_transform": lambda pair, f1, f2: scaling_transform(pair, f1, np.array([NORTH])),
    "approximate_coefficients":
        lambda pair, f1, f2: approximate_coefficients(pair, f1, f2, KIND_REGION),
    "approximate":
        lambda pair, f1, f2: approximate(pair, f1, f2, KIND_REGION, np.array([NORTH])),
}
GROUND_READERS = {
    "wavelet_transform_local":
        lambda pair, f1, f2: wavelet_transform_local(pair, f2, NORTH, KIND_REGION),
    "approximate_coefficients": OUTER_READERS["approximate_coefficients"],
    "approximate": OUTER_READERS["approximate"],
}


class TestDataRadius:
    """Outer data f1 must lie at R and ground data f2 at r."""

    @pytest.mark.parametrize("name", OUTER_READERS)
    @pytest.mark.parametrize("case", ["scalar", "vector"])
    def test_outer_data_at_r_rejected(self, name, case):
        inner = field_of_kind(case)
        with pytest.raises(ValueError, match=r"outer data f1 must lie at R = 1\.3, "
                                             r"not at radius 1$"):
            OUTER_READERS[name](pair_of_kind(case), inner, inner)

    @pytest.mark.parametrize("name", GROUND_READERS)
    @pytest.mark.parametrize("case", ["scalar", "vector"])
    def test_ground_data_at_R_rejected(self, name, case):
        pair = pair_of_kind(case)
        outer = at_outer(pair, field_of_kind(case))
        with pytest.raises(ValueError, match=r"ground data f2 must lie at r = 1, "
                                             r"not at radius 1\.3$"):
            GROUND_READERS[name](pair, outer, outer)

    @pytest.mark.parametrize("case", ["scalar", "vector"])
    def test_samples_on_a_grid_at_r_rejected(self, case):
        pair = pair_of_kind(case)
        samples = field_samples(field_of_kind(case), 12)
        with pytest.raises(ValueError, match="outer data f1 must lie at R"):
            scaling_transform(pair, samples, np.array([NORTH]))
        with pytest.raises(ValueError, match="outer data f1 must lie at R"):
            approximate_coefficients(pair, samples, field_of_kind(case), KIND_REGION)

    @pytest.mark.parametrize("case", ["scalar", "vector"])
    def test_radii_within_rounding_accepted(self, case):
        pair = pair_of_kind(case)
        f = field_of_kind(case)
        f1 = type(f)(1.3 * (1.0 + 1e-12), f.n_max, f.data)
        f2 = type(f)(1.0 - 1e-12, f.n_max, f.data)
        out = approximate_coefficients(pair, f1, f2, KIND_REGION)
        assert out.radius == 1.0 and np.all(np.isfinite(out.data))


class TestFieldSamplesConstruction:
    def test_cap_grid_rejected(self):
        grid = cap_grid(1.3, NORTH, 0.5, 10)
        with pytest.raises(TypeError, match="SphereGrid"):
            FieldSamples(grid, np.zeros(grid.n_nodes), 4)
        with pytest.raises(TypeError, match="SphereGrid"):
            FieldSamples(grid, np.zeros((grid.n_nodes, 3)), 4)

    @pytest.mark.parametrize("degree", [12.5, 12.0, "12", None])
    def test_non_integer_degree_rejected(self, degree):
        grid = sphere_grid(1.3, 30)
        with pytest.raises(TypeError, match="degree must be an integer"):
            FieldSamples(grid, np.zeros(grid.n_nodes), degree)

    def test_numpy_integer_degree_accepted(self):
        grid = sphere_grid(1.3, 30)
        samples = FieldSamples(grid, np.zeros(grid.n_nodes), np.int64(12))
        assert samples.degree == 12 and type(samples.degree) is int

    def test_negative_degree_and_wrong_shape_rejected(self):
        grid = sphere_grid(1.3, 10)
        with pytest.raises(ValueError, match="degree must be >= 0"):
            FieldSamples(grid, np.zeros(grid.n_nodes), -1)
        with pytest.raises(ValueError, match="one per grid node"):
            FieldSamples(grid, np.zeros(grid.n_nodes + 1), 4)
        with pytest.raises(ValueError, match="one per grid node"):
            FieldSamples(grid, np.zeros((grid.n_nodes, 2)), 4)

    def test_field_samples_share_one_grid(self):
        a = field_samples(field_of_kind("scalar", 1.3, 4), 10)
        b = field_samples(field_of_kind("vector", 1.3, 4), 10)
        assert a.grid is b.grid and (a.case, b.case) == ("scalar", "vector")
        with pytest.raises(ValueError, match="exact_degree must be >= 0"):
            field_samples(field_of_kind("scalar", 1.3, 4), -1)


def count_analyses(monkeypatch):
    """Record the kept degree of every outer analysis the chain runs."""
    original = transforms.analyze
    degrees = []

    def counted(values, grid, n_max):
        degrees.append(n_max)
        return original(values, grid, n_max)

    monkeypatch.setattr(transforms, "analyze", counted)
    return degrees


class TestKeptOuterAnalysis:
    """A sample set keeps its outer analysis: immutable samples, one entry."""

    DEGREE = 8

    def samples(self, case):
        return field_samples(field_of_kind(case, 1.3, self.DEGREE), 2 * self.DEGREE + 2)

    @staticmethod
    def calls(pair, f1, f2):
        pts = np.array([NORTH, (0.6, 0.0, 0.8)])
        return [
            approximate(pair, f1, f2, KIND_REGION, pts),
            scaling_transform(pair, f1, pts),
            approximate_coefficients(pair, f1, f2, KIND_REGION).data,
            approximate(pair, f1, f2, KIND_REGION, pts[:1]),
            scaling_transform(pair, f1, pts[1:]),
        ]

    @pytest.mark.parametrize("case", ["scalar", "vector"])
    def test_five_calls_analyze_once(self, monkeypatch, case):
        degrees = count_analyses(monkeypatch)
        samples, f2 = self.samples(case), field_of_kind(case)
        self.calls(pair_of_kind(case, 6), samples, f2)
        assert degrees == [6]

    @pytest.mark.parametrize("case", ["scalar", "vector"])
    def test_results_equal_those_of_fresh_samples(self, case):
        pair, f2 = pair_of_kind(case, 6), field_of_kind(case)
        kept = self.samples(case)
        first = self.calls(pair, kept, f2)
        again = self.calls(pair, kept, f2)
        fresh = self.calls(pair, self.samples(case), f2)
        for a, b, c in zip(first, again, fresh):
            assert np.array_equal(a, c) and np.array_equal(b, c)

    @pytest.mark.parametrize("case", ["scalar", "vector"])
    def test_another_N_replaces_the_entry(self, monkeypatch, case):
        degrees = count_analyses(monkeypatch)
        samples, f2 = self.samples(case), field_of_kind(case)
        wide, narrow = pair_of_kind(case, 6), pair_of_kind(case, 4)
        before = approximate_coefficients(wide, samples, f2, KIND_REGION).data
        other = approximate_coefficients(narrow, samples, f2, KIND_REGION).data
        after = approximate_coefficients(wide, samples, f2, KIND_REGION).data
        assert degrees == [6, 4, 6]
        assert np.array_equal(before, after)
        assert np.array_equal(
            other, approximate_coefficients(narrow, self.samples(case), f2, KIND_REGION).data)

    @pytest.mark.parametrize("case", ["scalar", "vector"])
    def test_samples_and_entry_are_read_only(self, case):
        samples = self.samples(case)
        entry = _outer_coefficients(samples, 6)
        assert _outer_coefficients(samples, 6) is entry
        with pytest.raises(ValueError, match="read-only"):
            samples.values[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            entry.data[0] = 1.0
        with pytest.raises(AttributeError):
            samples.values = np.zeros_like(samples.values)

    @pytest.mark.parametrize("case", ["scalar", "vector"])
    def test_callers_array_is_copied(self, case):
        grid = sphere_grid(1.3, 2 * self.DEGREE + 2)
        values = synthesize(field_of_kind(case, 1.3, self.DEGREE), grid)
        original = values.copy()
        samples = FieldSamples(grid, values, self.DEGREE)
        assert values.flags.writeable
        values[:] = 0.0
        assert np.array_equal(samples.values, original)
        pair, f2 = pair_of_kind(case, 6), field_of_kind(case)
        assert np.array_equal(
            approximate_coefficients(pair, samples, f2, KIND_REGION).data,
            approximate_coefficients(pair, FieldSamples(grid, original, self.DEGREE), f2,
                                     KIND_REGION).data)

    def test_sphere_grid_arrays_are_read_only(self):
        grid = sphere_grid(1.3, 12)
        for name in ("nodes", "weights", "ct", "ct_weights", "phis"):
            arr = getattr(grid, name)
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0

    def test_hand_built_grid_cannot_go_stale(self):
        # a grid built by hand from writeable arrays used to keep them, so
        # doubling its ct_weights left samples with a stale kept analysis
        made = sphere_grid(1.3, 20)
        arrays = {name: getattr(made, name).copy()
                  for name in ("nodes", "weights", "ct", "ct_weights", "phis")}
        grid = SphereGrid(made.radius, made.exact_degree, **arrays)
        samples = FieldSamples(grid, synthesize(field_of_kind("scalar", 1.3, 8), grid), 8)
        pair = pair_of_kind("scalar", 6)
        before = scaling_transform(pair, samples, np.array([NORTH]))
        with pytest.raises(ValueError, match="read-only"):
            grid.ct_weights *= 2.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            grid.ct_weights = arrays["ct_weights"] * 2.0
        arrays["ct_weights"] *= 2.0  # the caller's array was copied
        assert np.array_equal(grid.ct_weights, made.ct_weights)
        assert np.array_equal(scaling_transform(pair, samples, np.array([NORTH])), before)
        fresh = FieldSamples(grid, samples.values, 8)
        assert np.array_equal(scaling_transform(pair, fresh, np.array([NORTH])), before)

    def test_cap_grid_is_frozen_with_read_only_arrays(self):
        grid = cap_grid(1.3, (0.3, 0.4, 0.8), 0.5, 12)
        for name in ("center", "nodes", "weights", "t_nodes", "t_weights", "phis",
                     "rotation"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(grid, name)[0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            grid.cap_rho = 1.0


class TestNoiseMonotonicity:
    def test_median_error_non_decreasing_in_noise_level(self):
        g = reduced_geometry(rho=0.5)
        pair = optimize(g, PenaltyWeights.uniform(g, 100.0, 100.0, 1.0))
        region = RegionSpec(NORTH, 0.6, 0.5)
        u_plus = random_field(R_INNER, 40, 44)
        f1_clean = upward_continue(u_plus, R_OUTER)

        medians = []
        for eps in (0.001, 0.01, 0.05, 0.1):
            errors = []
            for seed in range(10):
                spec = NoiseSpec(eps, eps, noise_degree=44, seed=seed)
                f1 = add_noise(f1_clean, spec, "sphere")
                f2 = add_noise(u_plus, spec, region)
                approx = approximate_coefficients(pair, f1, f2, region)
                errors.append(relative_error(u_plus, approx, region))
            medians.append(float(np.median(errors)))
        assert medians == sorted(medians)
