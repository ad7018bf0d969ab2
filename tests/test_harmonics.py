"""Tests for spherical harmonics, grids, synthesis, and analysis."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import sph_harm_y

import oracles
from capwave import harmonics
from capwave.harmonics import (
    CapGrid,
    HarmonicCoefficients,
    _grid_synthesis,
    _legendre_blocks,
    _legendre_orders,
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

    def test_points_off_unit_length_by_ulps_keep_degree_110_accuracy(self):
        # rotated nodes miss unit length by up to 4.4e-16; read unnormalized
        # they cost the point path 8e-13 here, normalized 1e-13
        rng = np.random.default_rng(0)
        c = random_coeffs(rng, 1.0, 110)
        g = cap_grid(1.0, np.array([-0.5, 0.2, -0.6]), 0.6, 110)
        grid_vals = synthesize(c, g)
        point_vals = synthesize(c, g.nodes)
        scale = np.max(np.abs(grid_vals))
        assert np.max(np.abs(point_vals - grid_vals)) < 2.5e-13 * scale


    @pytest.mark.parametrize("points", [np.zeros(3), np.array([1.0, 0.0]),
                                        np.array([[0.0, 0.0, 1.0], [np.nan, 0.0, 1.0]]),
                                        np.array([np.inf, 0.0, 0.0])],
                             ids=["zero", "two-vector", "nan", "inf"])
    def test_rejects_bad_points(self, points):
        c = random_coeffs(np.random.default_rng(17), 1.0, 3)
        with pytest.raises(ValueError, match="finite nonzero 3-vectors"):
            synthesize(c, points)

def colatitudes(n_points, seed=0):
    """Colatitude cosines; with two or more points both poles (ct = +-1,
    st = 0) are among them."""
    ct = np.random.default_rng(seed).uniform(-1.0, 1.0, n_points)
    if n_points >= 2:
        ct[0], ct[-1] = 1.0, -1.0
    return ct


def assert_rows_match_oracle(n_max, ct):
    sin_t = np.sqrt(np.maximum(0.0, 1.0 - ct * ct))
    pairs = zip(_legendre_orders(n_max, ct, sin_t),
                oracles.legendre_orders(n_max, ct, sin_t), strict=True)
    for (m, rows), (m_ref, ref) in pairs:
        assert m == m_ref
        assert rows.shape == ref.shape
        assert np.array_equal(rows, ref), f"order {m}"


class TestLegendreOrders:
    """The blocked engine gives the rows of the per-order recurrence bit for
    bit, whatever block width the input size picks."""

    @pytest.mark.parametrize("n_max", [0, 1, 2, 44, 110])
    @pytest.mark.parametrize("t", [1.0, -1.0, 0.3])
    def test_single_point(self, n_max, t):
        assert_rows_match_oracle(n_max, np.array([t]))

    @pytest.mark.parametrize("n_max", [0, 1, 2, 44, 110])
    @pytest.mark.parametrize("n_points", [45, 111])
    def test_colatitude_axes(self, n_max, n_points):
        assert_rows_match_oracle(n_max, colatitudes(n_points))

    @pytest.mark.parametrize("n_max", [0, 1, 2, 44, 110])
    def test_loose_points_one_order_per_block(self, n_max):
        # so many points that one order's rows alone exceed the block budget
        n_points = harmonics._BLOCK_BUDGET // (n_max + 1) + 1
        assert_rows_match_oracle(n_max, colatitudes(n_points))

    def test_block_boundaries_mid_range(self):
        # 700 points at degree 44 give blocks of four orders, so blocks
        # start at orders 4, 8, ..., 40 and order 44 stands alone
        assert_rows_match_oracle(44, colatitudes(700))

    def test_keeps_the_shape_of_ct(self):
        assert_rows_match_oracle(9, colatitudes(12).reshape(3, 4))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 120), st.integers(1, 400), st.integers(0, 2**32 - 1))
    def test_drawn_degrees_and_point_counts(self, n_max, n_points, seed):
        assert_rows_match_oracle(n_max, colatitudes(n_points, seed))



class TestLegendreBlocks:
    """Blocks are multiplied whole, so the entries below each order's first
    degree must be exact zeros, whatever width the input size picks."""

    @pytest.mark.parametrize("n_max", [0, 1, 44, 110])
    @pytest.mark.parametrize("n_points", [1, 45, 111, "one-order"])
    def test_entries_below_the_order_are_zero(self, n_max, n_points):
        if n_points == "one-order":
            n_points = harmonics._BLOCK_BUDGET // (n_max + 1) + 1
        self.assert_blocks(n_max, colatitudes(n_points))

    def test_block_boundaries_mid_range(self):
        self.assert_blocks(44, colatitudes(700))

    @staticmethod
    def assert_blocks(n_max, ct):
        sin_t = np.sqrt(np.maximum(0.0, 1.0 - ct * ct))
        next_lo = 0
        for lo, block in _legendre_blocks(n_max, ct, sin_t):
            assert lo == next_lo
            assert block.shape[1:] == (n_max + 1 - lo, ct.size)
            for i in range(block.shape[0]):
                below = block[i, :i]
                assert np.all(below == 0.0) and not np.any(np.signbit(below))
            next_lo = lo + block.shape[0]
        assert next_lo == n_max + 1


def assert_close_to(values, reference, rel=1e-13):
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(np.asarray(values) - reference)) <= rel * scale


class TestBlockFoldAgainstOracle:
    """Block-folded synthesis and analysis against the per-order sums of
    oracles.py, which share no code with the package."""

    R = 6371.2

    # degree 60 on its 61 colatitudes takes two blocks, of 35 and 26 orders
    @pytest.mark.parametrize("n_max", [0, 12, 60])
    def test_synthesize_on_sphere_grid(self, n_max):
        c = random_coeffs(np.random.default_rng(n_max), self.R, n_max)
        g = sphere_grid(self.R, 2 * n_max)
        assert_close_to(synthesize(c, g), oracles.synthesis(c.data, self.R, g.nodes))

    @pytest.mark.parametrize("center", [[0.0, 0.0, 1.0], [0.3, 0.4, 0.8]],
                             ids=["polar", "off-pole"])
    @pytest.mark.parametrize("n_max", [12, 60])
    def test_synthesize_on_caps(self, center, n_max):
        c = random_coeffs(np.random.default_rng(n_max + 1), self.R, n_max)
        g = cap_grid(self.R, center, 0.6, 2 * n_max)
        assert_close_to(synthesize(c, g), oracles.synthesis(c.data, self.R, g.nodes))

    @pytest.mark.parametrize("n_max", [0, 1, 44, 110])
    def test_synthesize_at_one_point(self, n_max):
        rng = np.random.default_rng(n_max + 2)
        c = random_coeffs(rng, self.R, n_max)
        rms = c.l2_norm() / (self.R * math.sqrt(4.0 * math.pi))
        for x in (random_unit(rng), np.array([0.0, 0.0, -1.0])):
            ref = oracles.synthesis(c.data, self.R, x)[0]
            assert abs(synthesize(c, x) - ref) <= 1e-13 * max(abs(ref), rms)

    @pytest.mark.parametrize("n_max", [1, 44])
    def test_synthesize_at_points_one_order_per_block(self, n_max):
        rng = np.random.default_rng(n_max + 3)
        c = random_coeffs(rng, self.R, n_max)
        pts = random_unit(rng, harmonics._BLOCK_BUDGET // (n_max + 1) + 1)
        pts[0], pts[-1] = [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]
        assert_close_to(synthesize(c, pts), oracles.synthesis(c.data, self.R, pts))

    @pytest.mark.parametrize("n_max", [0, 1, 12, 60])
    def test_analyze_on_sphere_grid(self, n_max):
        rng = np.random.default_rng(n_max + 4)
        g = sphere_grid(self.R, 2 * n_max + 3)
        samples = rng.normal(size=g.n_nodes)
        ref = oracles.analysis(samples, g.nodes, g.weights, self.R, n_max)
        assert_close_to(analyze(samples, g, n_max).data, ref)

class TestGridSynthesis:
    def test_same_bits_as_synthesize(self):
        rng = np.random.default_rng(5)
        r = 6371.2
        grids = [sphere_grid(r, 24), cap_grid(r, [0, 0, 1], 0.6, 24),
                 cap_grid(r, random_unit(rng), 0.6, 24)]
        for grid in grids:
            run = _grid_synthesis(grid, 12)
            for n_max in (12, 7):
                c = random_coeffs(rng, r, n_max)
                assert np.array_equal(run(c), synthesize(c, grid))


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
