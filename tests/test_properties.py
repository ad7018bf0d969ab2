"""Property-based invariants of scalar and vector synthesis and analysis.

Each property holds for every bandlimited field, so hypothesis draws the
degree, radius, coefficients (through an RNG seed) and geometry.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from capwave.harmonics import (
    HarmonicCoefficients,
    analyze,
    cap_grid,
    sphere_grid,
    synthesize,
)
from capwave.vector_field import VectorCoefficients, vector_analyze, vector_synthesize

PROPERTY = settings(max_examples=25, deadline=None)

degrees = st.integers(0, 20)
radii = st.floats(0.5, 7000.0)
seeds = st.integers(0, 2**32 - 1)


def scalar_field(radius, n_max, seed):
    rng = np.random.default_rng(seed)
    return HarmonicCoefficients(radius, n_max, rng.standard_normal((n_max + 1) ** 2))


def vector_field(radius, n_max, seed):
    rng = np.random.default_rng(seed)
    size = 2 * (n_max + 1) ** 2 - 1
    return VectorCoefficients(radius, n_max, rng.standard_normal(size))


@st.composite
def centers(draw):
    """Unit cap centres, the two poles included."""
    pole = draw(st.sampled_from([None, 1.0, -1.0]))
    if pole is not None:
        return np.array([0.0, 0.0, pole])
    v = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3)))
    norm = np.linalg.norm(v)
    if norm < 1e-3:
        return np.array([0.0, 0.0, 1.0])
    return v / norm


class TestRoundTrip:
    @PROPERTY
    @given(n_max=degrees, radius=radii, seed=seeds)
    def test_scalar(self, n_max, radius, seed):
        c = scalar_field(radius, n_max, seed)
        grid = sphere_grid(radius, 2 * n_max)
        back = analyze(synthesize(c, grid), grid, n_max)
        np.testing.assert_allclose(back.data, c.data, atol=1e-11 * c.l2_norm())

    @PROPERTY
    @given(n_max=degrees, radius=radii, seed=seeds)
    def test_vector(self, n_max, radius, seed):
        c = vector_field(radius, n_max, seed)
        grid = sphere_grid(radius, 2 * n_max + 2)
        back = vector_analyze(vector_synthesize(c, grid), grid, n_max)
        np.testing.assert_allclose(back.data, c.data, atol=1e-11 * c.l2_norm())


class TestGridEqualsPoints:
    @PROPERTY
    @given(n_max=degrees, seed=seeds, center=centers(),
           cap_rho=st.floats(0.05, 2.0), exact=st.integers(0, 30))
    def test_scalar_cap(self, n_max, seed, center, cap_rho, exact):
        c = scalar_field(1.0, n_max, seed)
        grid = cap_grid(1.0, center, cap_rho, exact)
        np.testing.assert_allclose(synthesize(c, grid), synthesize(c, grid.nodes),
                                   atol=1e-12 * c.l2_norm())

    @PROPERTY
    @given(n_max=degrees, seed=seeds, center=centers(),
           cap_rho=st.floats(0.05, 2.0), exact=st.integers(0, 30))
    def test_vector_cap(self, n_max, seed, center, cap_rho, exact):
        c = vector_field(1.0, n_max, seed)
        grid = cap_grid(1.0, center, cap_rho, exact)
        np.testing.assert_allclose(vector_synthesize(c, grid),
                                   vector_synthesize(c, grid.nodes),
                                   atol=1e-12 * c.l2_norm())

    @PROPERTY
    @given(n_max=degrees, seed=seeds, exact=st.integers(0, 40))
    def test_sphere(self, n_max, seed, exact):
        c = scalar_field(1.0, n_max, seed)
        v = vector_field(1.0, n_max, seed)
        grid = sphere_grid(1.0, exact)
        np.testing.assert_allclose(synthesize(c, grid), synthesize(c, grid.nodes),
                                   atol=1e-12 * c.l2_norm())
        np.testing.assert_allclose(vector_synthesize(v, grid),
                                   vector_synthesize(v, grid.nodes),
                                   atol=1e-12 * v.l2_norm())


class TestPoles:
    # a field of degree n changes by at most about n^2 |c| delta over an arc
    # of length delta, so delta = 1e-9 leaves the limit visible to 1e-6 |c|
    @PROPERTY
    @given(n_max=degrees, seed=seeds, z=st.sampled_from([1.0, -1.0]),
           phi=st.floats(0.0, 2.0 * math.pi))
    def test_pole_is_meridian_limit(self, n_max, seed, z, phi):
        delta = 1e-9
        pole = np.array([0.0, 0.0, z])
        near = np.array([delta * math.cos(phi), delta * math.sin(phi),
                         z * math.sqrt(1.0 - delta * delta)])
        c = scalar_field(1.0, n_max, seed)
        v = vector_field(1.0, n_max, seed)
        assert abs(synthesize(c, pole) - synthesize(c, near)) <= 1e-6 * c.l2_norm()
        np.testing.assert_allclose(vector_synthesize(v, pole),
                                   vector_synthesize(v, near),
                                   atol=1e-6 * v.l2_norm())


class TestParseval:
    @PROPERTY
    @given(n_max=degrees, radius=radii, seed=seeds)
    def test_scalar_and_vector(self, n_max, radius, seed):
        c = scalar_field(radius, n_max, seed)
        grid = sphere_grid(radius, 2 * n_max)
        f = synthesize(c, grid)
        assert math.isclose(math.sqrt(grid.integrate(f * f)), c.l2_norm(),
                            rel_tol=1e-11)
        v = vector_field(radius, n_max, seed)
        vgrid = sphere_grid(radius, 2 * n_max + 2)
        g = vector_synthesize(v, vgrid)
        assert math.isclose(math.sqrt(vgrid.integrate(np.einsum("ij,ij->i", g, g))),
                            v.l2_norm(), rel_tol=1e-11)
