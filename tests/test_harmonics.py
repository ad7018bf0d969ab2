"""Tests for spherical harmonics, grids, synthesis, and analysis."""

import math

import numpy as np
import pytest
from scipy.special import sph_harm_y

from capwave.harmonics import (
    CapGrid,
    HarmonicCoefficients,
    analyze,
    cap_grid,
    load_coefficients,
    save_coefficients,
    sobolev_norm,
    sphere_grid,
    synthesize,
    ynk,
)


def random_unit(rng, n=1):
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v[0] if n == 1 else v


def random_coeffs(rng, radius, n_max):
    return HarmonicCoefficients(radius, n_max, rng.normal(size=(n_max + 1) ** 2))


class TestYnk:
    def test_constant_harmonic(self):
        xi = np.array([0.3, -0.5, 0.81])
        xi /= np.linalg.norm(xi)
        assert ynk(0, 1, xi) == pytest.approx(1.0 / math.sqrt(4 * math.pi), abs=1e-15)

    def test_addition_theorem_diagonal(self):
        rng = np.random.default_rng(3)
        xi = random_unit(rng)
        for n in (3, 7):
            s = sum(ynk(n, k, xi) ** 2 for k in range(1, 2 * n + 2))
            assert s == pytest.approx((2 * n + 1) / (4 * math.pi), rel=1e-12)

    def test_addition_theorem_cross(self):
        # sum_k Y_nk(xi) Y_nk(eta) = (2n+1)/(4pi) P_n(xi.eta), pinned at n=2
        rng = np.random.default_rng(4)
        xi = random_unit(rng)
        # construct eta with xi.eta = 0.5
        helper = random_unit(rng)
        perp = helper - (helper @ xi) * xi
        perp /= np.linalg.norm(perp)
        eta = 0.5 * xi + math.sqrt(1 - 0.25) * perp
        s = sum(ynk(2, k, xi) * ynk(2, k, eta) for k in range(1, 6))
        assert s == pytest.approx((5 / (4 * math.pi)) * (-0.125), rel=1e-12)

    def test_addition_theorem_many_degrees(self):
        rng = np.random.default_rng(5)
        t_vals = []
        for n in (1, 13, 29, 50):
            xi = random_unit(rng)
            eta = random_unit(rng)
            s = sum(ynk(n, k, xi) * ynk(n, k, eta) for k in range(1, 2 * n + 2))
            from capwave.legendre import legendre_all
            p, _, _ = legendre_all(n, np.array([xi @ eta]))
            expect = (2 * n + 1) / (4 * math.pi) * p[n, 0]
            t_vals.append(abs(s - expect))
        assert max(t_vals) < 1e-10

    def test_against_scipy_complex_harmonics(self):
        # |sum_k Y_nk c_k| built from scipy's complex Ynm for a spot pair
        rng = np.random.default_rng(6)
        xi = random_unit(rng)
        theta = math.acos(xi[2])
        phi = math.atan2(xi[1], xi[0])
        for n, m in ((3, 0), (4, 2), (8, 7)):
            y_complex = sph_harm_y(n, m, theta, phi)
            if m == 0:
                assert ynk(n, 1, xi) == pytest.approx(float(np.real(y_complex)), abs=1e-12)
            else:
                # no Condon-Shortley here, scipy includes it: factor (-1)^m
                cs = (-1.0) ** m
                expect_cos = cs * math.sqrt(2) * float(np.real(y_complex))
                expect_sin = cs * math.sqrt(2) * float(np.imag(y_complex))
                assert ynk(n, 1 + m, xi) == pytest.approx(expect_cos, abs=1e-12)
                assert ynk(n, 1 + n + m, xi) == pytest.approx(expect_sin, abs=1e-12)

    def test_invalid_k_rejected(self):
        xi = np.array([0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            ynk(2, 0, xi)
        with pytest.raises(ValueError):
            ynk(2, 6, xi)


class TestGrids:
    def test_sphere_grid_weight_sum(self):
        for r in (1.0, 6371.2):
            g = sphere_grid(r, 40)
            assert np.sum(g.weights) == pytest.approx(4 * math.pi * r * r, rel=1e-12)

    def test_sphere_grid_integrates_harmonics(self):
        g = sphere_grid(1.0, 12)
        vals0 = np.array([ynk(0, 1, x) for x in g.nodes])
        assert g.integrate(vals0) == pytest.approx(math.sqrt(4 * math.pi), rel=1e-12)
        vals5 = np.array([ynk(5, 3, x) for x in g.nodes])
        assert abs(g.integrate(vals5)) < 1e-12

    def test_sphere_grid_normalization_identity(self):
        r = 2.5
        g = sphere_grid(r, 8)
        vals = np.array([ynk(3, 2, x) for x in g.nodes])
        assert g.integrate(vals * vals) == pytest.approx(r * r, rel=1e-12)

    def test_cap_area(self):
        for rho in (0.5, 0.1, 1.7):
            g = cap_grid(1.0, [0.0, 0.0, 1.0], rho, 10)
            assert np.sum(g.weights) == pytest.approx(2 * math.pi * rho, rel=1e-12)
        g = cap_grid(3.0, [1.0, 1.0, 0.0], 0.5, 6)
        assert np.sum(g.weights) == pytest.approx(2 * math.pi * 0.5 * 9.0, rel=1e-12)

    def test_cap_nodes_inside_cap(self):
        g = cap_grid(1.0, [0.2, -0.4, 0.7], 0.8, 15)
        dist = 1.0 - g.nodes @ g.center
        assert np.all(dist < 0.8)
        assert np.all(dist >= 0.0)

    def test_cap_constant_integral(self):
        g = cap_grid(1.0, [0.0, 0.0, 1.0], 0.5, 9)
        assert g.integrate(np.ones(g.n_nodes)) == pytest.approx(math.pi, rel=1e-12)

    def test_cap_zonal_integral(self):
        # integral of t over the cap t in [0.5, 1]: 2 pi * 0.375
        g = cap_grid(1.0, [0.0, 0.0, 1.0], 0.5, 9)
        vals = g.nodes[:, 2]
        assert g.integrate(vals) == pytest.approx(0.75 * math.pi, rel=1e-12)

    def test_cap_zonal_integral_rotated(self):
        center = np.array([1.0, -2.0, 0.5])
        center /= np.linalg.norm(center)
        g = cap_grid(1.0, center, 0.5, 9)
        vals = g.nodes @ g.center
        assert g.integrate(vals) == pytest.approx(0.75 * math.pi, rel=1e-12)

    def test_degenerate_cap_equals_sphere(self):
        g = cap_grid(1.0, [0.0, 0.0, 1.0], 2.0, 14)
        vals = np.array([ynk(0, 1, x) for x in g.nodes])
        assert g.integrate(vals) == pytest.approx(math.sqrt(4 * math.pi), rel=1e-9)
        rng = np.random.default_rng(0)
        c = random_coeffs(rng, 1.0, 6)
        f = synthesize(c, g)
        sg = sphere_grid(1.0, 14)
        fs = synthesize(c, sg)
        assert g.integrate(f * f) == pytest.approx(sg.integrate(fs * fs), rel=1e-9)

    def test_cap_rule_needs_only_e_plus_one_azimuths(self):
        # a degree-E product has azimuthal modes |m| <= E in the cap frame
        center = np.array([0.3, -0.6, 0.74])
        center /= np.linalg.norm(center)
        E = 12
        g = cap_grid(1.0, center, 0.9, E)
        fine = cap_grid(1.0, center, 0.9, 2 * E)
        assert g.n_nodes == ((E + 2) // 2) * (E + 1)
        for a, ka, kb in ((5, 4, 12), (0, 1, 24), (9, 17, 3)):
            def product_integral(grid):
                return grid.integrate(ynk(a, ka, grid.nodes) * ynk(E - a, kb, grid.nodes))
            assert product_integral(g) == pytest.approx(product_integral(fine), abs=1e-13)

    def test_cap_rho_bounds(self):
        with pytest.raises(ValueError):
            cap_grid(1.0, [0, 0, 1], 0.0, 5)
        with pytest.raises(ValueError):
            cap_grid(1.0, [0, 0, 1], 2.3, 5)


class TestSynthesizeAnalyze:
    def test_constant_field(self):
        c = HarmonicCoefficients(1.0, 0)
        c.set_coeff(0, 1, 1.0)
        pts = np.array([[0, 0, 1.0], [1.0, 0, 0], [0.6, -0.8, 0.0]])
        vals = synthesize(c, pts)
        assert np.allclose(vals, 1.0 / math.sqrt(4 * math.pi), atol=1e-14)

    def test_single_degree_one_term_at_pole(self):
        r = 2.0
        e3 = np.array([0.0, 0.0, 1.0])
        for k in (1, 2, 3):
            c = HarmonicCoefficients(r, 1)
            c.set_coeff(1, k, 1.0)
            val = synthesize(c, e3[None, :])[0]
            assert val == pytest.approx(ynk(1, k, e3) / r, abs=1e-14)

    def test_round_trip_degree_20(self):
        rng = np.random.default_rng(11)
        c = random_coeffs(rng, 6371.2, 20)
        g = sphere_grid(6371.2, 40)
        vals = synthesize(c, g)
        back = analyze(vals, g, 20)
        assert np.allclose(back.data, c.data, atol=1e-10)
        assert back.radius == c.radius

    def test_product_and_point_paths_agree(self):
        rng = np.random.default_rng(12)
        c = random_coeffs(rng, 1.0, 15)
        g = sphere_grid(1.0, 30)
        fast = synthesize(c, g)
        slow = synthesize(c, g.nodes)
        assert np.allclose(fast, slow, atol=1e-12)

    def test_parseval(self):
        rng = np.random.default_rng(13)
        r = 3.7
        c = random_coeffs(rng, r, 12)
        g = sphere_grid(r, 24)
        vals = synthesize(c, g)
        quad_norm = math.sqrt(g.integrate(vals * vals))
        assert quad_norm == pytest.approx(c.l2_norm(), rel=1e-10)

    def test_analyze_requires_exactness(self):
        g = sphere_grid(1.0, 10)
        with pytest.raises(ValueError):
            analyze(np.zeros(g.n_nodes), g, 6)

    def test_synthesize_on_rotated_cap_matches_points(self):
        rng = np.random.default_rng(14)
        c = random_coeffs(rng, 1.0, 8)
        center = np.array([0.4, 0.3, -0.85])
        center /= np.linalg.norm(center)
        g = cap_grid(1.0, center, 0.7, 16)
        assert np.allclose(synthesize(c, g), synthesize(c, g.nodes), atol=1e-12)


class TestSobolevNorm:
    def test_s_zero_is_l2(self):
        rng = np.random.default_rng(15)
        c = random_coeffs(rng, 1.0, 9)
        assert sobolev_norm(c, 0.0) == pytest.approx(c.l2_norm(), rel=1e-14)

    def test_single_coefficient_values(self):
        c = HarmonicCoefficients(1.0, 3)
        c.set_coeff(3, 1, 2.0)
        assert sobolev_norm(c, 1.0) == pytest.approx(7.0, abs=1e-13)
        c2 = HarmonicCoefficients(1.0, 0)
        c2.set_coeff(0, 1, 4.0)
        assert sobolev_norm(c2, 2.0) == pytest.approx(1.0, abs=1e-13)

    def test_negative_s_rejected(self):
        c = HarmonicCoefficients(1.0, 0)
        with pytest.raises(ValueError):
            sobolev_norm(c, -0.5)


class TestCoefficientFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(16)
        c = random_coeffs(rng, 6371.2, 7)
        path = tmp_path / "model.txt"
        save_coefficients(c, path)
        back = load_coefficients(path)
        assert back.radius == c.radius
        assert back.n_max == c.n_max
        assert np.array_equal(back.data, c.data)

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# radius_km=1 n_max=2\n0 1 0.5\n1 oops 3\n")
        with pytest.raises(ValueError, match="line 3"):
            load_coefficients(path)

    def test_out_of_range_index_reports_line(self, tmp_path):
        path = tmp_path / "bad2.txt"
        path.write_text("# radius_km=1 n_max=1\n2 1 0.5\n")
        with pytest.raises(ValueError, match="line 2"):
            load_coefficients(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad3.txt"
        path.write_text("0 1 0.5\n")
        with pytest.raises(ValueError, match="header"):
            load_coefficients(path)
