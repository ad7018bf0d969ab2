"""Tests for spherical harmonics, grids, synthesis, and analysis."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import sph_harm_y

import node_wise
import oracles
from capwave import harmonics
from capwave.harmonics import (
    CapGrid,
    HarmonicCoefficients,
    VectorCoefficients,
    _axis_tiles,
    _cap_frame,
    _cap_factor,
    _cap_norms,
    _kept_cap_norm,
    _legendre_blocks,
    _rotation_from_north,
    _padded,
    analyze,
    cap_grid,
    load_coefficients,
    save_coefficients,
    sobolev_norm,
    sphere_grid,
    synthesize,
    ynk,
)
from capwave.transforms import RegionSpec, relative_error


def random_unit(rng, n=1):
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v[0] if n == 1 else v


def random_coeffs(rng, radius, n_max):
    return HarmonicCoefficients(radius, n_max, rng.normal(size=(n_max + 1) ** 2))


def random_vector_coeffs(rng, radius, n_max):
    """Gradient field from 2L - 1 normal draws, type 1 and then type 2 from
    degree 1, L = (n_max + 1)^2; type 2's degree-0 slot takes no draw."""
    size = (n_max + 1) ** 2
    flat = rng.normal(size=2 * size - 1)
    return VectorCoefficients(radius, n_max, np.insert(flat, size, 0.0).reshape(2, size))


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
    @pytest.mark.parametrize("radius", [math.nan, math.inf, 0.0])
    def test_radius_must_be_positive_and_finite(self, radius):
        # nan used to pass every check, and sphere_grid gave nan weights
        for build in (lambda: HarmonicCoefficients(radius, 2),
                      lambda: VectorCoefficients(radius, 2),
                      lambda: sphere_grid(radius, 4),
                      lambda: cap_grid(radius, (0.0, 0.0, 1.0), 0.5, 4)):
            with pytest.raises(ValueError, match="radius must be positive"):
                build()

    def test_sphere_grid_degree_must_be_an_integer(self):
        sphere_grid(1.0, 4)  # kept, yet a float equal to it still raises
        for degree in (4.5, 4.0):
            with pytest.raises(TypeError, match=f"exact_degree must be an integer, not {degree}"):
                sphere_grid(1.0, degree)

    def test_cap_grid_degree_must_be_an_integer(self):
        with pytest.raises(TypeError, match="exact_degree must be an integer, not 4.0"):
            cap_grid(1.0, (0.0, 0.0, 1.0), 0.5, 4.0)

    @pytest.mark.parametrize("kind", [HarmonicCoefficients, VectorCoefficients])
    def test_coefficient_degree_must_be_an_integer(self, kind):
        with pytest.raises(TypeError, match="n_max must be an integer, not 2.0"):
            kind(1.0, 2.0)

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


def tile_orders(n_max, ct, blocks):
    """Yield (m, rows) for m = 0..n_max, rows[j] holding degree n = m + j,
    joined from the (lo, n0, tile) triples blocks of _legendre_blocks at ct
    once a range's last tile is in, shaped (n_max + 1 - m,) + ct.shape."""
    tiles = []
    for lo, n0, tile in blocks:
        tiles.append((n0, tile))
        if n0 + tile.shape[1] <= n_max:
            continue
        for i in range(tile.shape[0]):
            m = lo + i
            rows = np.concatenate([t[i, max(0, m - s):] for s, t in tiles if i < t.shape[0]])
            yield m, rows.reshape((n_max + 1 - m,) + np.shape(ct))
        tiles = []


def assert_rows_match_oracle(n_max, ct):
    sin_t = np.sqrt(np.maximum(0.0, 1.0 - ct * ct))
    pairs = zip(tile_orders(n_max, ct, _legendre_blocks(n_max, ct, sin_t)),
                oracles.legendre_orders(n_max, ct, sin_t), strict=True)
    for (m, rows), (m_ref, ref) in pairs:
        assert m == m_ref
        assert rows.shape == ref.shape
        assert np.array_equal(rows, ref), f"order {m}"


class TestLegendreOrders:
    """The tiled engine gives the rows of the per-order recurrence bit for
    bit, whatever tiling the input size picks."""

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
    """Tiles are multiplied whole, so the entries below each order's first
    degree must be exact zeros, whatever tiling the input size picks; the
    tiles of a range follow each other in degree and cover every degree
    n >= m of every order once."""

    @pytest.mark.parametrize("n_max", [0, 1, 44, 110])
    @pytest.mark.parametrize("n_points", [1, 45, 111, "one-order"])
    def test_entries_below_the_order_are_zero(self, n_max, n_points):
        if n_points == "one-order":
            n_points = harmonics._BLOCK_BUDGET // (n_max + 1) + 1
        self.assert_blocks(n_max, colatitudes(n_points))

    def test_block_boundaries_mid_range(self):
        # 700 points at degree 44 give tiles of every order and four
        # degrees, so chunks start at degrees 4, 8, ..., 40 and degree 44
        # stands alone
        self.assert_blocks(44, colatitudes(700))

    @pytest.mark.parametrize("n_max", [44, 110])
    def test_one_degree_of_every_order_per_tile(self, n_max):
        # the largest point count that still gets tiles of every order
        self.assert_blocks(n_max, colatitudes(harmonics._BLOCK_BUDGET // (n_max + 1)))

    @staticmethod
    def assert_blocks(n_max, ct):
        sin_t = np.sqrt(np.maximum(0.0, 1.0 - ct * ct))
        seen = np.zeros((n_max + 1, n_max + 1), dtype=int)  # [m, n]
        expect = (0, 0)  # (lo, n0) of the next tile
        for lo, n0, tile in _legendre_blocks(n_max, ct, sin_t):
            w, d, p = tile.shape
            assert (lo, n0) == expect and p == ct.size
            # only one order's rows alone may exceed the budget
            assert tile.size <= harmonics._BLOCK_BUDGET or (w == 1 and n0 == lo)
            for i in range(w):
                below = tile[i, :max(0, lo + i - n0)]
                assert np.all(below == 0.0) and not np.any(np.signbit(below))
                seen[lo + i, max(lo + i, n0):n0 + d] += 1
            expect = (lo + w, lo + w) if n0 + d == n_max + 1 else (lo, n0 + d)
        assert expect == (n_max + 1, n_max + 1)
        assert np.array_equal(seen, np.triu(np.ones_like(seen)))


class TestLegendreTiles:
    """Each tile read directly holds the oracle's rows bit for bit, across
    degree chunks and on both sides of the switch from tiles of every order
    to one order per range."""

    BUDGET = harmonics._BLOCK_BUDGET

    @pytest.mark.parametrize("n_max, n_points, n_tiles", [
        (110, 111, 12),  # degree 110 on 111 colatitudes: chunks of 10
        (80, 111, 6),  # the degree-80 analysis on 111 colatitudes: chunks of 14
        (110, BUDGET // 111, 111),  # one degree of every order per tile
        (110, BUDGET // 111 + 1, 111),  # one order per range
        (44, BUDGET // 45, 45),
        (44, BUDGET // 45 + 1, 45),
    ])
    def test_tiles_match_oracle(self, n_max, n_points, n_tiles):
        ct = colatitudes(n_points)
        sin_t = np.sqrt(np.maximum(0.0, 1.0 - ct * ct))
        ref = dict(oracles.legendre_orders(n_max, ct, sin_t))
        tiles = list(_legendre_blocks(n_max, ct, sin_t))
        assert len(tiles) == n_tiles
        for lo, n0, tile in tiles:
            for i, rows in enumerate(tile):
                m = lo + i
                first = max(m, n0)
                assert np.array_equal(rows[first - n0:],
                                      ref[m][first - m:n0 + tile.shape[1] - m]), (m, n0)


def mirrored(tiles, size):
    """Full-axis tiles of a mirrored axis of size colatitudes from the
    half-axis tiles of _axis_tiles: row(-t) = (-1)^(n+m) row(t)."""
    for lo, n0, tile in tiles:
        w, d, half = tile.shape
        m, n = np.arange(lo, lo + w)[:, None, None], np.arange(n0, n0 + d)[:, None]
        south = np.where((m + n) % 2, -1.0, 1.0) * tile[..., ::-1][..., :size - half]
        yield lo, n0, np.concatenate([south, tile], axis=-1)


class TestSphereGridAxis:
    """Sphere grids read the Legendre rows of the northern half of their
    colatitude axis from one stored, read-only entry, that of the last
    axis used."""

    R = 6371.2

    @pytest.fixture(autouse=True)
    def empty_store(self):
        harmonics._AXIS_TILES.clear()
        yield
        harmonics._AXIS_TILES.clear()

    # 1, 2, 111 and 112 colatitudes: odd and even counts, with and
    # without an equator node
    @pytest.mark.parametrize("exact", [0, 2, 220, 222])
    @pytest.mark.parametrize("n_max", [0, 1, 44, 110])
    def test_mirrored_half_axis_rows_match_oracle(self, exact, n_max):
        g = sphere_grid(self.R, exact)
        assert g.ct.size == {0: 1, 2: 2, 220: 111, 222: 112}[exact]
        sin_t = np.sqrt(np.maximum(0.0, 1.0 - g.ct * g.ct))
        rows = tile_orders(n_max, g.ct, mirrored(_axis_tiles(g, n_max), g.ct.size))
        for (m, got), (m_ref, ref) in zip(rows, oracles.legendre_orders(n_max, g.ct, sin_t),
                                          strict=True):
            assert m == m_ref and np.array_equal(got, ref), f"order {m}"

    def test_stored_and_fresh_tiles_same_bits(self):
        # whatever degree the stored entry was built to, each transform
        # gives the bits of a fresh entry of its own degree
        rng = np.random.default_rng(21)
        g = sphere_grid(self.R, 222)
        c = {n: random_coeffs(rng, self.R, n) for n in (80, 110)}
        v = {n: random_vector_coeffs(rng, self.R, n) for n in (80, 110)}
        scalar, vector = rng.normal(size=g.n_nodes), rng.normal(size=(g.n_nodes, 3))
        calls = {}
        for n in (80, 110):
            calls[f"synthesize {n}"] = lambda n=n: synthesize(c[n], g)
            calls[f"analyze {n}"] = lambda n=n: analyze(scalar, g, n).data
            calls[f"vector_synthesize {n}"] = lambda n=n: synthesize(v[n], g)
            calls[f"vector_analyze {n}"] = lambda n=n: analyze(vector, g, n).data
        fresh = {}
        for name, call in calls.items():
            harmonics._AXIS_TILES.clear()
            fresh[name] = call()
        harmonics._AXIS_TILES.clear()
        for name in list(calls) + list(calls)[::-1] + list(calls):
            assert np.array_equal(calls[name](), fresh[name]), name
        assert len(harmonics._AXIS_TILES) == 1

    def test_entries_are_read_only(self):
        g = sphere_grid(self.R, 60)
        synthesize(random_coeffs(np.random.default_rng(22), self.R, 30), g)
        analyze(np.ones(g.n_nodes), g, 20)
        (top, tiles), = harmonics._AXIS_TILES.values()
        assert top == 30 and tiles
        for _, _, tile in tiles + _axis_tiles(g, 20):
            assert not tile.flags.writeable
            with pytest.raises(ValueError):
                tile[0, 0, 0] = 1.0

    def test_lower_degree_adds_no_entry(self):
        g = sphere_grid(self.R, 220)
        samples = synthesize(random_coeffs(np.random.default_rng(23), self.R, 110), g)
        ((top, tiles),) = harmonics._AXIS_TILES.values()
        assert top == 110
        analyze(samples, g, 80)
        ((top, after),) = harmonics._AXIS_TILES.values()
        assert top == 110 and after is tiles

    def test_another_axis_replaces_the_entry(self):
        g, other = sphere_grid(self.R, 40), sphere_grid(self.R, 60)
        c = random_coeffs(np.random.default_rng(25), self.R, 20)
        expected = synthesize(c, g)
        synthesize(c, other)
        assert list(harmonics._AXIS_TILES) == [other.ct.tobytes()]
        assert np.array_equal(synthesize(c, g), expected)
        assert list(harmonics._AXIS_TILES) == [g.ct.tobytes()]

    def test_stored_axis_size(self):
        # 111 colatitudes at degree 110, as every recon-offcenter operation
        # samples and analyzes: about 3.3 MB
        g = sphere_grid(self.R, 220)
        _axis_tiles(g, 110)  # memoized factor tables are built once
        harmonics._AXIS_TILES.clear()
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _axis_tiles(g, 110)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert 3.0e6 <= held <= 3.5e6

    def test_axis_not_mirrored_rejected(self):
        g = sphere_grid(self.R, 20)
        ct = g.ct.copy()
        ct[0] = math.nextafter(ct[0], 0.0)
        bad = dataclasses.replace(g, ct=ct)
        c = random_coeffs(np.random.default_rng(24), self.R, 10)
        v = VectorCoefficients(self.R, 9)
        calls = [lambda: synthesize(c, bad), lambda: analyze(np.ones(g.n_nodes), bad, 10),
                 lambda: synthesize(v, bad),
                 lambda: analyze(np.ones((g.n_nodes, 3)), bad, 9)]
        for call in calls:
            with pytest.raises(ValueError, match="mirrored"):
                call()


def assert_close_to(values, reference, rel=1e-13):
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(np.asarray(values) - reference)) <= rel * scale


class TestBlockFoldAgainstOracle:
    """Block-folded synthesis and analysis against the per-order sums of
    oracles.py, which share no code with the package."""

    R = 6371.2

    # sphere grids read the rows of the northern half of their axis
    # (_axis_tiles); degree 110 on its 111 colatitudes takes six degree chunks
    @pytest.mark.parametrize("n_max", [0, 12, 60, 110])
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

    # degree 110 at exactness 220 off the pole, as recon-offcenter's caps:
    # turning coefficients into the cap's frame (_cap_frame) leaves errors
    # up to 1.13e-13 of the largest value over four fields (1.4e-14 on the
    # polar cap), so these cases hold the stated limit of 1.5e-13
    CAP_110 = 1.5e-13

    @pytest.mark.parametrize("center", [[0.3, 0.4, 0.8], [-0.5, 0.2, -0.6]])
    def test_synthesize_degree_110_on_off_pole_caps(self, center):
        c = random_coeffs(np.random.default_rng(113), self.R, 110)
        g = cap_grid(self.R, center, 0.6, 220)
        assert_close_to(synthesize(c, g), oracles.synthesis(c.data, self.R, g.nodes),
                        rel=self.CAP_110)

    @pytest.mark.parametrize("center", [[0.3, 0.4, 0.8], [-0.5, 0.2, -0.6]])
    def test_vector_synthesize_degree_110_on_off_pole_caps(self, center):
        v = self.vector_coeffs(np.random.default_rng(113), 110)
        g = cap_grid(self.R, center, 0.6, 220)
        assert_close_to(synthesize(v, g),
                        oracles.vector_synthesis(v.data, self.R, g.nodes), rel=self.CAP_110)

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

    @pytest.mark.parametrize("n_max", [0, 1, 12, 60, 110])
    def test_analyze_on_sphere_grid(self, n_max):
        rng = np.random.default_rng(n_max + 4)
        g = sphere_grid(self.R, 2 * n_max + 3)
        samples = rng.normal(size=g.n_nodes)
        ref = oracles.analysis(samples, g.nodes, g.weights, self.R, n_max)
        assert_close_to(analyze(samples, g, n_max).data, ref)

    def vector_coeffs(self, rng, n_max):
        return random_vector_coeffs(rng, self.R, n_max)

    @pytest.mark.parametrize("n_max", [0, 1, 12, 60, 110])
    def test_vector_synthesize_on_sphere_grid(self, n_max):
        c = self.vector_coeffs(np.random.default_rng(n_max + 5), n_max)
        g = sphere_grid(self.R, 2 * n_max + 2)
        assert_close_to(synthesize(c, g),
                        oracles.vector_synthesis(c.data, self.R, g.nodes))

    @pytest.mark.parametrize("center", [[0.0, 0.0, 1.0], [0.3, 0.4, 0.8]],
                             ids=["polar", "off-pole"])
    @pytest.mark.parametrize("n_max", [12, 60])
    def test_vector_synthesize_on_caps(self, center, n_max):
        c = self.vector_coeffs(np.random.default_rng(n_max + 6), n_max)
        g = cap_grid(self.R, center, 0.6, 2 * n_max)
        assert_close_to(synthesize(c, g),
                        oracles.vector_synthesis(c.data, self.R, g.nodes))

    @pytest.mark.parametrize("n_max", [0, 1, 44, 110])
    def test_vector_synthesize_at_one_point(self, n_max):
        rng = np.random.default_rng(n_max + 7)
        c = self.vector_coeffs(rng, n_max)
        rms = c.l2_norm() / (self.R * math.sqrt(4.0 * math.pi))
        for x in (random_unit(rng), np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])):
            ref = oracles.vector_synthesis(c.data, self.R, x)[0]
            err = np.max(np.abs(synthesize(c, x) - ref))
            assert err <= 1e-13 * max(np.max(np.abs(ref)), rms)

    @pytest.mark.parametrize("n_max", [1, 44])
    def test_vector_synthesize_at_points_one_order_per_block(self, n_max):
        # order 0's colatitude channel needs order 1's rows, one range later
        rng = np.random.default_rng(n_max + 8)
        c = self.vector_coeffs(rng, n_max)
        pts = random_unit(rng, harmonics._BLOCK_BUDGET // (n_max + 1) + 1)
        pts[0], pts[-1] = [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]
        assert_close_to(synthesize(c, pts),
                        oracles.vector_synthesis(c.data, self.R, pts))

    @pytest.mark.parametrize("n_max", [0, 1, 12, 60, 110])
    def test_vector_analyze_on_sphere_grid(self, n_max):
        rng = np.random.default_rng(n_max + 9)
        g = sphere_grid(self.R, 2 * n_max + 3)
        samples = rng.normal(size=(g.n_nodes, 3))
        ref = oracles.vector_analysis(samples, g.nodes, g.weights, self.R, n_max)
        assert_close_to(analyze(samples, g, n_max).data, ref)


class TestVectorTransformMemory:
    """A degree-110 gradient field on a sphere grid is synthesized and
    analyzed tile by tile: no call holds the rows of a whole axis."""

    LIMIT = 3.5e6  # bytes; at most two tiles of 1 MB live at once, the whole axis takes 6 MB

    @staticmethod
    def traced_peak(call):
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            call()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()

    def test_degree_110_sphere_grid_peaks(self):
        n_max = 110
        rng = np.random.default_rng(10)
        c = random_vector_coeffs(rng, 1.0, n_max)
        g = sphere_grid(1.0, 2 * n_max + 2)
        values = synthesize(c, g)
        analyze(values, g, n_max)  # warm-up: memoized tables are built once
        assert self.traced_peak(lambda: synthesize(c, g)) <= self.LIMIT
        assert self.traced_peak(lambda: analyze(values, g, n_max)) <= self.LIMIT

class TestCapNorms:
    def test_same_bits_alone_batched_stored_fresh(self):
        # degree 110 at exactness 220 spans every order's factor; a norm
        # must not depend on its batch or on whether the cap's operator
        # was memoized or built afresh, for scalar and gradient fields
        # (type-1 and type-2 stacks) alike
        rng = np.random.default_rng(5)
        for degree, lower in ((12, 7), (110, 80)):
            caps = [([0.0, 0.0, 1.0], 0.6), (random_unit(rng), 0.6), ([0.0, 0.0, -1.0], 1.3)]
            for center, rho in caps:
                scalar = np.stack([_padded(rng.normal(size=(n + 1) ** 2), degree)
                                   for n in (degree, lower, degree)])
                vector = np.stack([_padded(rng.normal(size=(2, (n + 1) ** 2)), degree)
                                   for n in (degree, lower, degree)])
                vector[:, 1, 0] = 0.0  # type 2 starts at degree 1
                for data in (scalar, vector):
                    _cap_factor.cache_clear()
                    fresh = _cap_norms(data, center, rho, 2 * degree)
                    stored = _cap_norms(data, center, rho, 2 * degree)
                    assert _cap_factor.cache_info().hits == 1
                    assert np.array_equal(fresh, stored)
                    for row, norm in zip(data, fresh):
                        alone = _cap_norms(row[None], center, rho, 2 * degree)
                        assert np.array_equal(alone, [norm])

    def test_stack_has_one_vector_products_bits(self):
        # the factor takes a stack's cos- and sin-type coefficients as
        # columns of one CSR product; each norm must keep the bits of the
        # one-field reduction: one product per coefficient vector, then
        # numpy's sum of each vector's squares
        rng = np.random.default_rng(8)
        for degree in (12, 110):
            for center, rho in (([0.0, 0.0, 1.0], 0.6), ([0.3, 0.4, 0.8], 0.5),
                                ([0.0, 0.0, -1.0], 1.3)):
                for case, shape in (("scalar", (9, (degree + 1) ** 2)),
                                    ("vector", (9, 2, (degree + 1) ** 2))):
                    data = rng.normal(size=shape)
                    exactness = 2 * degree + (2 if case == "vector" else 0)
                    op, gather = _cap_factor(case, degree, rho, exactness)
                    frame = _cap_frame(data, _rotation_from_north(center))
                    expected = []
                    for f in frame.reshape(len(data), -1):
                        cos, sin = (op @ x for x in np.append(f, 0.0)[gather])
                        expected.append(float(np.sum(cos * cos) + np.sum(sin * sin)))
                    assert _cap_norms(data, center, rho, exactness) == expected

    @pytest.mark.parametrize("center, rho", [([0.0, 0.0, 1.0], 0.6), ([0.3, 0.4, 0.8], 0.5),
                                             ([0.0, 0.0, -1.0], 1.3), ([-0.5, 0.2, -0.6], 2.0)])
    def test_degree_110_matches_node_wise(self, center, rho):
        # polar, off-pole, south-pole and full-sphere caps at full scale
        rng = np.random.default_rng(7)
        c = HarmonicCoefficients(6371.2, 110, rng.normal(size=111 ** 2))
        v = random_vector_coeffs(rng, 6371.2, 110)
        (scalar,) = _cap_norms(c.data[None], center, rho, 220)
        (vector,) = _cap_norms(v.data[None], center, rho, 222)
        assert math.isclose(scalar, node_wise.cap_norm(c, cap_grid(6371.2, center, rho, 220)),
                            rel_tol=1e-13)
        assert math.isclose(vector, node_wise.cap_norm(v, cap_grid(6371.2, center, rho, 222)),
                            rel_tol=1e-13)

    def test_operator_memory_at_degree_110(self):
        # one triangular factor per order, shared by cos and sin: about
        # (N + 1)^3 / 6 doubles and int32 indices for a scalar field, twice
        # that for a gradient field (radial and tangential parts)
        sizes = {}
        for case, exactness in (("scalar", 220), ("vector", 222)):
            op, gather = _cap_factor(case, 110, 0.5, exactness)
            arrays = (op.data, op.indices, op.indptr, gather)
            assert not any(arr.flags.writeable for arr in arrays)
            sizes[case] = sum(arr.nbytes for arr in arrays)
        assert sizes["scalar"] <= 3e6 and sizes["vector"] <= 4 * sizes["scalar"]

    def test_frame_of_a_stack_has_each_field_s_bits(self):
        # two fields of one cap turn together in every recon-offcenter
        # operation; each must keep the bits it has alone
        rng = np.random.default_rng(6)
        scalar = rng.normal(size=(3, 111 ** 2))
        vector = rng.normal(size=(2, 2, 111 ** 2))
        for center in ([0.3, 0.4, 0.8], [-0.5, 0.2, -0.6], [0.0, 0.0, -1.0]):
            rotation = _rotation_from_north(center)
            for stack in (scalar, vector):
                turned = _cap_frame(stack, rotation)
                assert turned.shape == stack.shape
                for index in np.ndindex(stack.shape[:-1]):
                    assert np.array_equal(turned[index], _cap_frame(stack[index], rotation))

    @pytest.mark.parametrize("center, rho", [([0.0, 0.0, 1.0], 0.6), ([0.3, 0.4, 0.8], 0.5),
                                             ([0.0, 0.0, -1.0], 1.3)])
    def test_kept_norm_has_a_fresh_norm_s_bits(self, center, rho):
        # polar, off-pole and south-pole caps, scalar and gradient fields:
        # computed (cold), found by content (warm) or fresh, one norm
        rng = np.random.default_rng(9)
        scalar = rng.normal(size=111 ** 2)
        vector = rng.normal(size=(2, 111 ** 2))
        vector[1, 0] = 0.0
        for data, exactness in ((scalar, 220), (vector, 222)):
            harmonics._cap_norm_by_content.cache_clear()
            fresh = _cap_norms(data[None], center, rho, exactness)[0]
            cold = _kept_cap_norm(data, center, rho, exactness)
            warm = _kept_cap_norm(data.copy(), tuple(center), rho, exactness)
            assert harmonics._cap_norm_by_content.cache_info().hits == 1
            assert np.array_equal([fresh, fresh], [cold, warm])

    def test_kept_norm_keys_on_content_and_cap(self):
        # another value, another cap centre or radius, another exactness:
        # each is its own entry, and the norms differ
        data = np.random.default_rng(4).normal(size=36)
        changed = data.copy()
        changed[7] += 1.0
        harmonics._cap_norm_by_content.cache_clear()
        norms = [_kept_cap_norm(data, [0.3, 0.4, 0.8], 0.5, 10),
                 _kept_cap_norm(changed, [0.3, 0.4, 0.8], 0.5, 10),
                 _kept_cap_norm(data, [0.0, 0.0, 1.0], 0.5, 10),
                 _kept_cap_norm(data, [0.3, 0.4, 0.8], 0.7, 10),
                 _kept_cap_norm(data, [0.3, 0.4, 0.8], 0.5, 12)]
        assert harmonics._cap_norm_by_content.cache_info().misses == 5
        assert len(set(norms[:4])) == 4
        assert math.isclose(norms[4], norms[0], rel_tol=1e-13)

    def test_zero_reference_rejected(self):
        data = np.zeros((2, 16))
        data[1, 3] = 1.0
        zero, other = (HarmonicCoefficients(1.0, 3, row) for row in data)
        region = RegionSpec((0.3, 0.4, 0.8), 0.6, 0.1)  # evaluation cap radius 0.5
        with pytest.raises(ValueError, match="reference field is zero"):
            relative_error(zero, other, region)
        assert _cap_norms(data, [0.3, 0.4, 0.8], 0.5, 6)[0] == 0.0


class TestGridSynthesis:
    @pytest.mark.parametrize("n_max", [0, 12, 63, 64, 110])
    def test_azimuth_table_same_bits(self, n_max):
        r = 6371.2
        for grid in (sphere_grid(r, 2 * n_max), cap_grid(r, [0.3, 0.4, 0.8], 0.6, 2 * n_max)):
            cos_m, sin_m = harmonics._grid_azimuth(n_max, grid.phis)
            ref_cos, ref_sin = harmonics._azimuth(0, n_max + 1, grid.phis)
            assert np.array_equal(cos_m, ref_cos) and np.array_equal(sin_m, ref_sin)
            assert not cos_m.flags.writeable and not sin_m.flags.writeable


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

    def test_scalar_value_is_the_weighted_dot_product(self):
        # the bits of weights @ (data * data), the scalar-only formula
        rng = np.random.default_rng(17)
        c = random_coeffs(rng, 1.0, 12)
        for s in (0.0, 0.5, 1.0, 2.5):
            weights = harmonics._per_coefficient((np.arange(13) + 0.5) ** (2 * s), 12)
            assert sobolev_norm(c, s) == math.sqrt(float(weights @ (c.data * c.data)))

    def test_gradient_field_s_zero_is_l2(self):
        rng = np.random.default_rng(18)
        data = rng.normal(size=(2, 100))
        data[1, 0] = 0.0
        v = VectorCoefficients(1.0, 9, data)
        assert sobolev_norm(v, 0.0) == pytest.approx(v.l2_norm(), rel=1e-14)

    def test_gradient_field_single_type_two_coefficient(self):
        v = VectorCoefficients(1.0, 3)
        v.set_coeff(2, 3, 5, 2.0)
        assert sobolev_norm(v, 1.0) == pytest.approx(7.0, abs=1e-13)


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

    def test_duplicate_entry_rejected(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("# radius_km=1 n_max=1\n0 1 1.0\n1 2 0.5\n0 1 2.0\n")
        with pytest.raises(ValueError, match=r"dup\.txt: line 4: duplicate entry"):
            load_coefficients(path)

    @pytest.mark.parametrize("case", ["scalar", "vector"])
    def test_round_trip_both_kinds(self, tmp_path, case):
        rng = np.random.default_rng(19)
        data = rng.normal(size=(2, 64))
        data[1, 0] = 0.0
        c = (VectorCoefficients(6371.2, 7, data) if case == "vector"
             else HarmonicCoefficients(6371.2, 7, data[0]))
        path = tmp_path / "field.txt"
        save_coefficients(c, path)
        back = load_coefficients(path)
        assert type(back) is type(c) and back.case == case
        assert (back.radius, back.n_max) == (c.radius, c.n_max)
        assert np.array_equal(back.data, c.data)

    # Files written before both kinds shared one saver and one loader.
    EARLIER_FILES = {
        "vector": ("# radius_km=6371.1999999999998 n_max=1 channels=2\n"
                   "1 0 1 0.5\n1 1 1 -1.25\n1 1 2 2\n1 1 3 0.33333333333333331\n"
                   "2 1 1 0.10000000000000001\n2 1 2 -7.0000000000000001e-20\n"
                   "2 1 3 6371.1999999999998\n"),
        "scalar": ("# radius_km=7071.1999999999998 n_max=1\n"
                   "0 1 0.5\n1 1 -1.25\n1 2 2\n1 3 0.33333333333333331\n"),
    }

    @pytest.mark.parametrize("case", ["scalar", "vector"])
    def test_earlier_files_load_and_save_unchanged(self, tmp_path, case):
        path = tmp_path / "earlier.txt"
        path.write_text(self.EARLIER_FILES[case])
        c = load_coefficients(path)
        rows = np.array([[0.5, -1.25, 2.0, 1 / 3], [0.0, 0.1, -7.0e-20, 6371.2]])
        if case == "vector":
            assert type(c) is VectorCoefficients and c.radius == 6371.2
            assert np.array_equal(c.data, rows)
        else:
            assert type(c) is HarmonicCoefficients and c.radius == 7071.2
            assert np.array_equal(c.data, rows[0])
        again = tmp_path / "again.txt"
        save_coefficients(c, again)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("header, message",
                             [("radius_km=1 n_max=-1", "n_max must be >= 0"),
                              ("radius_km=0 n_max=2", "radius must be positive")])
    def test_rejected_header_value_names_file_and_line(self, tmp_path, header, message):
        path = tmp_path / "head.txt"
        path.write_text(f"# {header}\n")
        with pytest.raises(ValueError, match=rf"head\.txt: line 1: {message}"):
            load_coefficients(path)
