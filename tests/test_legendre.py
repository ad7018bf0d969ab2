"""Tests for Legendre evaluation and Gauss-Legendre rules."""

import numpy as np
import pytest
from numpy.polynomial import legendre as npleg

from capwave.legendre import gauss_rule, legendre_all


class TestLegendreAll:
    def test_known_values_degree_two(self):
        p, dp, d2p = legendre_all(2, np.array([0.5]))
        assert p[2, 0] == pytest.approx(-0.125, abs=1e-15)
        assert dp[2, 0] == pytest.approx(1.5, abs=1e-15)
        assert d2p[2, 0] == pytest.approx(3.0, abs=1e-15)

    def test_endpoints(self):
        p, _, _ = legendre_all(15, np.array([1.0, -1.0]))
        for n in range(16):
            assert p[n, 0] == pytest.approx(1.0, abs=1e-13)
            assert p[n, 1] == pytest.approx((-1.0) ** n, abs=1e-13)

    def test_against_numpy_legendre(self):
        t = np.linspace(-1, 1, 23)
        p, dp, d2p = legendre_all(10, t)
        for n in range(11):
            c = np.zeros(n + 1)
            c[n] = 1.0
            assert np.allclose(p[n], npleg.legval(t, c), atol=1e-12)
            assert np.allclose(dp[n], npleg.legval(t, npleg.legder(c)), atol=1e-11)
            assert np.allclose(d2p[n], npleg.legval(t, npleg.legder(c, 2)), atol=1e-10)

    def test_ode_invariant_high_degree(self):
        # (1 - t^2) P'' - 2 t P' + n (n+1) P = 0, relative to term size
        t = np.linspace(-0.999, 0.999, 41)
        p, dp, d2p = legendre_all(200, t)
        for n in (3, 27, 111, 200):
            resid = (1 - t * t) * d2p[n] - 2 * t * dp[n] + n * (n + 1) * p[n]
            scale = 1.0 + np.abs(n * (n + 1) * p[n])
            assert np.max(np.abs(resid) / scale) < 1e-10

    def test_scalar_input_shape(self):
        p, dp, d2p = legendre_all(3, 0.25)
        assert p.shape == (4,)
        assert p[0] == 1.0

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            legendre_all(-1, 0.0)


class TestGaussRule:
    def test_matches_numpy_leggauss(self):
        for m in (1, 2, 5, 20, 64):
            x, w = gauss_rule(m)
            xr, wr = np.polynomial.legendre.leggauss(m)
            assert np.allclose(x, xr, atol=1e-13)
            assert np.allclose(w, wr, atol=1e-13)

    def test_weight_sum_equals_interval_length(self):
        for m, a, b in ((7, -1.0, 0.5), (33, 0.0, 2.0), (64, -1.0, 0.5)):
            _, w = gauss_rule(m, a, b)
            assert np.sum(w) == pytest.approx(b - a, abs=1e-13)

    def test_polynomial_exactness(self):
        # degree 2m-1 integrates exactly; here odd powers on [-1, 0.5]
        m = 64
        x, w = gauss_rule(m, -1.0, 0.5)
        assert np.sum(w * x) == pytest.approx(-0.375, abs=1e-14)
        for p in (3, 17, 40):
            exact = (0.5 ** (p + 1) - (-1.0) ** (p + 1)) / (p + 1)
            assert np.sum(w * x**p) == pytest.approx(exact, rel=1e-13)

    def test_legendre_orthogonality_by_quadrature(self):
        m = 26
        x, w = gauss_rule(m)
        p, _, _ = legendre_all(25, x)
        for n in (0, 3, 12, 25):
            for n2 in (0, 3, 12, 25):
                val = np.sum(w * p[n] * p[n2])
                expect = 2.0 / (2 * n + 1) if n == n2 else 0.0
                assert val == pytest.approx(expect, abs=1e-12)

    def test_recurrence_vs_expanded_polynomial(self):
        # P_4 = (35 t^4 - 30 t^2 + 3)/8 against the recurrence
        t = np.linspace(-1, 1, 17)
        p, _, _ = legendre_all(4, t)
        direct = (35 * t**4 - 30 * t**2 + 3) / 8
        assert np.allclose(p[4], direct, atol=1e-12)

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            gauss_rule(4, 1.0, -1.0)
        with pytest.raises(ValueError):
            gauss_rule(0)

    def test_rejects_a_fractional_point_count(self):
        # 3.5 used to build a 3-point rule quietly
        with pytest.raises(TypeError, match="m must be an integer, not 3.5"):
            gauss_rule(3.5)
        assert np.array_equal(gauss_rule(np.int64(3))[0], gauss_rule(3)[0])

    def test_rules_are_read_only_and_repeatable(self):
        x, w = gauss_rule(7, -0.5, 1.0)
        with pytest.raises(ValueError):
            x[0] = 0.0
        with pytest.raises(ValueError):
            w[0] = 0.0
        x2, w2 = gauss_rule(7, -0.5, 1.0)
        assert np.array_equal(x, x2) and np.array_equal(w, w2)
