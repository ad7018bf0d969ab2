"""Property-based invariants of synthesis, analysis and the estimator.

Each property holds for every bandlimited field, so hypothesis draws the
degree, radius, coefficients (through an RNG seed) and geometry.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import node_wise
from capwave.harmonics import (
    HarmonicCoefficients,
    _cap_frame,
    _cap_norms,
    _quarter_turn,
    analyze,
    cap_grid,
    sphere_grid,
    synthesize,
    ynk,
)
from capwave.kernels import (
    Geometry,
    KernelPair,
    NumericalFailure,
    PenaltyWeights,
    SymbolSet,
    _localization_ratios,
    _optimize_all,
    localization_ratio,
    optimize,
    raised_cosine_targets,
)
from capwave.legendre import gauss_rule, legendre_all
from capwave.transforms import (
    FieldSamples,
    RegionSpec,
    approximate,
    approximate_coefficients,
    relative_error,
    upward_continue,
    wavelet_multipliers,
)
from capwave.transforms import _cap_wavelet_coefficients
from capwave.transforms import _outer_coefficients as scalar_outer
from capwave.transforms import _outer_coefficients as vector_outer
from capwave.vector_field import (
    VectorCoefficients,
    vector_approximate,
    vector_relative_error,
    vector_synthesize,
)

from test_kernels import cho_reference, reduced_geometry

PROPERTY = settings(max_examples=25, deadline=None)

degrees = st.integers(0, 20)
radii = st.floats(0.5, 7000.0)
seeds = st.integers(0, 2**32 - 1)


def scalar_field(radius, n_max, seed):
    rng = np.random.default_rng(seed)
    return HarmonicCoefficients(radius, n_max, rng.standard_normal((n_max + 1) ** 2))


def vector_field(radius, n_max, seed):
    rng = np.random.default_rng(seed)
    size = (n_max + 1) ** 2
    flat = rng.standard_normal(2 * size - 1)  # type 1, then type 2 from degree 1
    return VectorCoefficients(radius, n_max, np.insert(flat, size, 0.0).reshape(2, size))


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
        back = analyze(vector_synthesize(c, grid), grid, n_max)
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


@st.composite
def frame_centres(draw):
    """Cap centres, drawing often the poles, one rounding step off each
    pole, and the equator."""
    kind = draw(st.sampled_from([None, 1.0, -1.0, 1.0 - 1e-15, -1.0 + 1e-15, 0.0]))
    if kind is None:
        return draw(centers())
    phi = draw(st.floats(0.0, 2.0 * math.pi))
    s = math.sqrt(1.0 - kind * kind)
    return np.array([s * math.cos(phi), s * math.sin(phi), kind])


@st.composite
def rotations(draw):
    """Proper rotations: cap frames, or uniform draws from an RNG seed."""
    if draw(st.booleans()):
        return cap_grid(1.0, draw(frame_centres()), 1.0, 0).rotation
    q, r = np.linalg.qr(np.random.default_rng(draw(seeds)).standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


def polar_twin(grid):
    """The north-pole cap whose nodes, times grid.rotation.T, are grid's."""
    return cap_grid(grid.radius, (0.0, 0.0, 1.0), grid.cap_rho, grid.exact_degree)


def vector_in_frame(v, rotation):
    return VectorCoefficients(v.radius, v.n_max, _cap_frame(v.data, rotation))


def dense_quarter_turn(n):
    j = np.zeros((2 * n + 1, 2 * n + 1))
    for rows, cols, block in _quarter_turn(n):
        j[np.ix_(rows, cols)] = block
    return j


class TestCapFrame:
    # f o R synthesized on the polar cap gives f at the cap R carries there,
    # node for node; the per-point path is the oracle
    @PROPERTY
    @given(n_max=degrees, seed=seeds, center=frame_centres(),
           cap_rho=st.floats(0.05, 2.0), exact=st.integers(0, 30))
    def test_scalar_polar_twin_equals_points(self, n_max, seed, center, cap_rho, exact):
        c = scalar_field(1.0, n_max, seed)
        grid = cap_grid(1.0, center, cap_rho, exact)
        turned = HarmonicCoefficients(1.0, n_max, _cap_frame(c.data, grid.rotation))
        np.testing.assert_allclose(synthesize(turned, polar_twin(grid)),
                                   synthesize(c, grid.nodes),
                                   rtol=0.0, atol=1e-13 * c.l2_norm())

    @PROPERTY
    @given(n_max=degrees, seed=seeds, center=frame_centres(),
           cap_rho=st.floats(0.05, 2.0), exact=st.integers(0, 30))
    def test_vector_polar_twin_equals_points(self, n_max, seed, center, cap_rho, exact):
        v = vector_field(1.0, n_max, seed)
        grid = cap_grid(1.0, center, cap_rho, exact)
        local = vector_synthesize(vector_in_frame(v, grid.rotation), polar_twin(grid))
        np.testing.assert_allclose(local @ grid.rotation.T,
                                   vector_synthesize(v, grid.nodes),
                                   rtol=0.0, atol=1e-13 * v.l2_norm())

    @PROPERTY
    @given(n_max=degrees, seed=seeds, rotation=rotations())
    def test_degree_norms_invariant(self, n_max, seed, rotation):
        c = scalar_field(1.0, n_max, seed)
        turned = HarmonicCoefficients(1.0, n_max, _cap_frame(c.data, rotation))
        for n in range(n_max + 1):
            assert abs(np.linalg.norm(turned.degree_slice(n))
                       - np.linalg.norm(c.degree_slice(n))) <= 1e-13 * c.l2_norm()

    @PROPERTY
    @given(n_max=degrees, seed=seeds, first=rotations(), second=rotations())
    def test_composition(self, n_max, seed, first, second):
        # coefficients of (f o R1) o R2 are those of f o (R1 R2)
        c = scalar_field(1.0, n_max, seed)
        np.testing.assert_allclose(_cap_frame(_cap_frame(c.data, first), second),
                                   _cap_frame(c.data, first @ second),
                                   rtol=0.0, atol=1e-13 * c.l2_norm())

    def test_degree_110_spot_checks(self):
        for n in (1, 2, 55, 109, 110):
            j = dense_quarter_turn(n)
            np.testing.assert_allclose(j.T @ j, np.eye(2 * n + 1), rtol=0.0, atol=1e-14)
        c = scalar_field(1.0, 110, 7)
        grid = cap_grid(1.0, (0.3, 0.4, 0.8), 0.5, 20)
        turned = HarmonicCoefficients(1.0, 110, _cap_frame(c.data, grid.rotation))
        np.testing.assert_allclose(synthesize(turned, polar_twin(grid)),
                                   synthesize(c, grid.nodes),
                                   rtol=0.0, atol=1e-13 * c.l2_norm())


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


@st.composite
def regions(draw):
    """Regions about polar, south-pole and generic centres; data_rho = 2
    makes the evaluation cap the full sphere."""
    data_rho = draw(st.just(2.0) | st.floats(0.2, 1.9))
    kernel_rho = draw(st.floats(0.05, 0.9)) * min(data_rho, 1.9)
    return RegionSpec(tuple(draw(centers())), data_rho, kernel_rho)


class TestCapNorms:
    """Azimuthal Parseval on a cap's rule in t against node-wise integration
    on the cap grid (node_wise.cap_norm)."""

    @PROPERTY
    @given(n_max=degrees, radius=radii, seed=seeds, center=centers(),
           cap_rho=st.just(2.0) | st.floats(0.05, 2.0))
    def test_scalar_norm(self, n_max, radius, seed, center, cap_rho):
        c = scalar_field(radius, n_max, seed)
        (norm,) = _cap_norms(c.data[None], center, cap_rho, 2 * n_max)
        oracle = node_wise.cap_norm(c, cap_grid(radius, center, cap_rho, 2 * n_max))
        assert math.isclose(norm, oracle, rel_tol=1e-13)

    @PROPERTY
    @given(n_max=degrees, radius=radii, seed=seeds, center=centers(),
           cap_rho=st.just(2.0) | st.floats(0.05, 2.0))
    def test_vector_norm(self, n_max, radius, seed, center, cap_rho):
        v = vector_field(radius, n_max, seed)
        (norm,) = _cap_norms(v.data[None], center, cap_rho, 2 * n_max + 2)
        oracle = node_wise.cap_norm(v, cap_grid(radius, center, cap_rho, 2 * n_max + 2))
        assert math.isclose(norm, oracle, rel_tol=1e-13)

    @PROPERTY
    @given(n_ref=degrees, n_approx=degrees, radius=radii, seed=seeds, region=regions())
    def test_scalar_relative_error(self, n_ref, n_approx, radius, seed, region):
        ref = scalar_field(radius, n_ref, seed)
        approx = scalar_field(radius, n_approx, seed + 1)
        grid = region.eval_grid(radius, 2 * max(n_ref, n_approx))
        oracle = node_wise.cap_norm(approx, grid, minus=ref) / node_wise.cap_norm(ref, grid)
        assert math.isclose(relative_error(ref, approx, region) ** 2, oracle, rel_tol=1e-13)

    @PROPERTY
    @given(n_ref=degrees, n_approx=degrees, radius=radii, seed=seeds, region=regions())
    def test_vector_relative_error(self, n_ref, n_approx, radius, seed, region):
        ref = vector_field(radius, n_ref, seed)
        approx = vector_field(radius, n_approx, seed + 1)
        grid = region.eval_grid(radius, 2 * max(n_ref, n_approx) + 2)
        oracle = node_wise.cap_norm(approx, grid, minus=ref) / node_wise.cap_norm(ref, grid)
        assert math.isclose(vector_relative_error(ref, approx, region) ** 2, oracle,
                            rel_tol=1e-13)


class TestOuterAnalysisKeepsScalingDegrees:
    # the scaling part keeps degrees <= N, so outer samples are analyzed
    # only that far; the declared degree and every kept coefficient stay,
    # on a grid of exactness 2 * degree and on one at exactly the bound
    # min(N, degree) + degree (vector: + 2)
    @PROPERTY
    @given(n_max=degrees, n_keep=st.integers(0, 25), seed=seeds, radius=radii)
    def test_scalar(self, n_max, n_keep, seed, radius):
        c = scalar_field(radius, n_max, seed)
        head = (min(n_keep, n_max) + 1) ** 2
        for exact in (2 * n_max, min(n_keep, n_max) + n_max):
            grid = sphere_grid(radius, exact)
            out = scalar_outer(FieldSamples(grid, synthesize(c, grid), n_max), n_keep)
            assert out.n_max == n_max and out.radius == radius
            np.testing.assert_allclose(out.data[:head], c.data[:head],
                                       rtol=0.0, atol=1e-11 * c.l2_norm())
            assert not out.data[head:].any()

    @PROPERTY
    @given(n_max=degrees, n_keep=st.integers(0, 25), seed=seeds, radius=radii)
    def test_vector(self, n_max, n_keep, seed, radius):
        v = vector_field(radius, n_max, seed)
        n = min(n_keep, n_max)
        kept = np.zeros_like(v.data, dtype=bool)
        kept[:, : (n + 1) ** 2] = True  # both types
        for exact in (2 * n_max + 2, n + n_max + 2):
            grid = sphere_grid(radius, exact)
            out = vector_outer(
                FieldSamples(grid, vector_synthesize(v, grid), n_max), n_keep)
            assert out.n_max == n_max and out.radius == radius
            np.testing.assert_allclose(out.data[kept], v.data[kept],
                                       rtol=0.0, atol=1e-11 * v.l2_norm())
            assert not out.data[~kept].any()


def random_weights(geometry, seed):
    """Log-uniform weights: fidelity in [1e-2, 1e3], beta in [1e-3, 1e2]."""
    rng = np.random.default_rng(seed)
    return PenaltyWeights(10.0 ** rng.uniform(-2.0, 3.0, geometry.N + 1),
                          10.0 ** rng.uniform(-2.0, 3.0, geometry.kN + 1),
                          10.0 ** rng.uniform(-3.0, 2.0))


@st.composite
def geometries(draw):
    """Small geometries of either case with kN = N + extra > N."""
    N = draw(st.integers(1, 12))
    extra = draw(st.integers(1, N))
    return Geometry(1.0, 1.1, N, kappa=(N + extra + 0.5) / N,
                    rho=draw(st.floats(0.05, 1.5)),
                    case=draw(st.sampled_from(["scalar", "vector"])))


class TestApproximationLinearity:
    @PROPERTY
    @given(n_max=st.integers(0, 14), seed=seeds, a=st.floats(-3.0, 3.0),
           b=st.floats(-3.0, 3.0))
    def test_linear_in_both_data_sets(self, n_max, seed, a, b):
        g = Geometry(1.0, 1.1, 6, kappa=1.5, rho=0.5)
        pair = optimize(g, random_weights(g, seed))
        region = RegionSpec((0.0, 0.0, 1.0), 1.0, 0.5)
        f1, g1 = scalar_field(g.R, n_max, seed), scalar_field(g.R, n_max, seed + 1)
        f2, g2 = scalar_field(g.r, n_max, seed + 2), scalar_field(g.r, n_max, seed + 3)

        def mix(u, v):
            return HarmonicCoefficients(u.radius, n_max, a * u.data + b * v.data)

        first = approximate_coefficients(pair, f1, f2, region)
        second = approximate_coefficients(pair, g1, g2, region)
        combined = approximate_coefficients(pair, mix(f1, g1), mix(f2, g2), region)
        scale = abs(a) * first.l2_norm() + abs(b) * second.l2_norm()
        np.testing.assert_allclose(combined.data, a * first.data + b * second.data,
                                   rtol=0.0, atol=1e-12 * max(scale, 1e-300))


class TestCouplingIdentity:
    @PROPERTY
    @given(geometry=geometries(), seed=seeds)
    def test_optimized_pair(self, geometry, seed):
        pair = optimize(geometry, random_weights(geometry, seed))
        N = geometry.N
        expected = pair.phi_tilde.values.copy()
        expected[: N + 1] -= pair.phi.values * geometry.sigmas(N)
        np.testing.assert_allclose(
            pair.psi_tilde.values, expected, rtol=0.0,
            atol=1e-12 * max(1.0, float(np.max(np.abs(pair.phi_tilde.values)))))


# one weight row each: a seed for log-uniform non-uniform weights, and None
# or the alpha_ratio of a row at alpha_tilde = 1e-16, where the singular
# Gram part prevails and most solves fail
weight_rows = st.lists(st.tuples(seeds, st.sampled_from([None, 1.0, 5.0])),
                       min_size=1, max_size=6)


def stacked_weights(geometry, rows):
    weights = []
    for seed, tiny_ratio in rows:
        w = random_weights(geometry, seed)
        if tiny_ratio is not None:
            w = PenaltyWeights(np.full(geometry.N + 1, 1e-16 / tiny_ratio),
                               np.full(geometry.kN + 1, 1e-16), w.beta)
        weights.append(w)
    stacks = [np.stack([w.alpha for w in weights]),
              np.stack([w.alpha_tilde for w in weights]),
              np.array([w.beta for w in weights])]
    return weights, stacks


class TestStackedSolve:
    """Each row of _optimize_all's stacked solve is its own Cholesky solve."""

    @PROPERTY
    @given(case=st.sampled_from(["scalar", "vector"]), filtered=st.booleans(),
           rows=weight_rows)
    def test_each_row_is_its_own_solve(self, case, filtered, rows):
        g = reduced_geometry(case)
        targets = raised_cosine_targets(g) if filtered else None
        weights, stacks = stacked_weights(g, rows)
        solved, phi, phi_tilde, psi = _optimize_all(g, *stacks, targets)
        ratios = _localization_ratios(psi, g.case, g.rho)
        assert len(solved) == len(ratios) == len(weights)
        for i, w in enumerate(weights):
            try:
                ref_phi, ref_phi_tilde = cho_reference(g, w, targets)
            except np.linalg.LinAlgError:
                assert not solved[i] and ratios[i] is None and not psi[i].any()
                with pytest.raises(NumericalFailure) as failure:
                    optimize(g, w, targets)
                assert str(failure.value) == ("kernel optimizer system is numerically "
                                              "singular; the weight configuration is "
                                              "pathological")
                continue
            pair = optimize(g, w, targets)
            assert solved[i]
            assert np.array_equal(phi[i], ref_phi)
            assert np.array_equal(phi_tilde[i], ref_phi_tilde)
            assert np.array_equal(psi[i], pair.psi_tilde.values)
            assert ratios[i] == localization_ratio(pair.psi_tilde, g.rho, g)
        for stack in (phi, phi_tilde, psi):
            assert not stack.flags.writeable

    @PROPERTY
    @given(case=st.sampled_from(["scalar", "vector"]), rows=weight_rows,
           flaw=st.sampled_from(["alpha short", "alpha_tilde long", "alpha",
                                 "alpha_tilde", "beta"]),
           where=st.integers(0, 10**6),
           bad=st.sampled_from([0.0, -1.0, -1e-300, np.nan, np.inf, -np.inf]))
    def test_bad_row_raises_the_one_weight_message(self, case, rows, flaw, where, bad):
        g = reduced_geometry(case)
        _, stacks = stacked_weights(g, rows)
        i = where % len(rows)
        if flaw == "alpha short":
            stacks[0] = stacks[0][:, 1:]
            message = f"alpha must have length N\\+1 = {g.N + 1}$"
        elif flaw == "alpha_tilde long":
            stacks[1] = np.concatenate([stacks[1], stacks[1][:, :1]], axis=1)
            message = f"alpha_tilde must have length kN\\+1 = {g.kN + 1}$"
        else:
            k = ["alpha", "alpha_tilde", "beta"].index(flaw)
            if k == 2:
                stacks[2][i] = bad
            else:
                stacks[k][i, where % stacks[k].shape[1]] = bad
            message = "^all weights must be finite and strictly positive$"
        with pytest.raises(ValueError, match=message):
            _optimize_all(g, *stacks)


class TestZonalCapIntegral:
    # a_n P_n(c.x) has coefficients radius a_n 4 pi / (2n+1) Y_{n,k}(c) by
    # the addition theorem; its integral over the cap about c is
    # 2 pi radius^2 sum_n a_n times the integral of P_n over [1 - rho, 1]
    @PROPERTY
    @given(n_max=st.integers(0, 10), seed=seeds, center=centers(),
           cap_rho=st.floats(0.05, 2.0), radius=radii)
    def test_independent_of_centre(self, n_max, seed, center, cap_rho, radius):
        a = np.random.default_rng(seed).standard_normal(n_max + 1)
        moved = HarmonicCoefficients(radius, n_max)
        polar = HarmonicCoefficients(radius, n_max)
        for n in range(n_max + 1):
            factor = radius * a[n] * 4.0 * math.pi / (2 * n + 1)
            moved.degree_slice(n)[:] = [factor * ynk(n, k, center)
                                        for k in range(1, 2 * n + 2)]
            polar.set_coeff(n, 1, factor * math.sqrt((2 * n + 1) / (4.0 * math.pi)))

        def cap_integral(coeffs, c):
            grid = cap_grid(radius, c, cap_rho, n_max)
            return grid.integrate(synthesize(coeffs, grid))

        t, w = gauss_rule(n_max // 2 + 1, 1.0 - cap_rho, 1.0)
        p, _, _ = legendre_all(n_max, t)
        exact = 2.0 * math.pi * radius**2 * float(a @ (p @ w))
        tol = 1e-12 * 4.0 * math.pi * radius**2 * float(np.sum(np.abs(a)))
        at_centre = cap_integral(moved, center)
        assert abs(at_centre - cap_integral(polar, np.array([0.0, 0.0, 1.0]))) <= tol
        assert abs(at_centre - exact) <= tol


@st.composite
def kernel_pairs(draw, case="vector"):
    """Pairs with random symbols, kN <= 8, cap radius in [0.2, 2]."""
    N = draw(st.integers(1, 6))
    extra = draw(st.integers(1, min(N, 8 - N)))
    rho = draw(st.floats(0.2, 2.0))
    g = Geometry(1.0, 1.1, N, kappa=(N + extra + 0.5) / N, rho=rho, case=case)
    rng = np.random.default_rng(draw(seeds))
    return KernelPair(g, SymbolSet(N, rng.standard_normal(N + 1)),
                      SymbolSet(g.kN, rng.standard_normal(g.kN + 1)))


def cap_multipliers(pair, kernel_rho, n_max):
    """Type-1 and type-2 cap multipliers, read off an all-ones field."""
    ones = np.ones((2, (n_max + 1) ** 2))
    ones[1, 0] = 0.0  # type 2 starts at degree 1
    out = _cap_wavelet_coefficients(pair, VectorCoefficients(1.0, n_max, ones), kernel_rho)
    lam = np.array([out.coeff(1, n, 1) for n in range(n_max + 1)])
    mu = np.array([0.0] + [out.coeff(2, n, 1) for n in range(1, n_max + 1)])
    return lam, mu


class TestScalarCapMultipliers:
    # the cap-restricted zonal kernel acts degree by degree on every cap,
    # so the spectral path is the node-wise quadrature of the oracle
    @PROPERTY
    @given(pair=kernel_pairs("scalar"), n_max=st.integers(0, 8), seed=seeds,
           center=centers(), margin=st.floats(0.05, 1.0))
    def test_spectral_equals_quadrature(self, pair, n_max, seed, center, margin):
        g = pair.geometry
        region = RegionSpec(center, min(g.rho + margin, 2.0), g.rho)
        f1 = scalar_field(g.R, n_max, seed)
        f2 = scalar_field(g.r, n_max, seed + 1)
        pts = region.eval_grid(1.0, 2).nodes[::2]
        spec = approximate(pair, f1, f2, region, pts)
        quad = node_wise.approximate(pair, f1, f2, region, pts)
        np.testing.assert_allclose(spec, quad, rtol=0.0,
                                   atol=1e-12 * np.abs(quad).max())


class TestVectorCapMultipliers:
    # the cap-restricted tensor kernel acts degree by degree and type by
    # type on every cap, so the spectral path is the quadrature path
    @PROPERTY
    @given(pair=kernel_pairs(), n_max=st.integers(0, 8), seed=seeds,
           center=centers(), margin=st.floats(0.05, 1.0))
    def test_spectral_equals_quadrature(self, pair, n_max, seed, center, margin):
        g = pair.geometry
        region = RegionSpec(center, min(g.rho + margin, 2.0), g.rho)
        f1 = vector_field(g.R, n_max, seed)
        f2 = vector_field(g.r, n_max, seed + 1)
        pts = region.eval_grid(1.0, 2).nodes[::2]
        spec = vector_approximate(pair, f1, f2, region, pts)
        quad = node_wise.vector_approximate(pair, f1, f2, region, pts)
        np.testing.assert_allclose(spec, quad, rtol=0.0,
                                   atol=1e-12 * np.abs(quad).max())

    @PROPERTY
    @given(pair=kernel_pairs(), n_max=st.integers(0, 8))
    def test_radial_type_takes_scalar_multipliers(self, pair, n_max):
        rho = pair.geometry.rho
        lam, _ = cap_multipliers(pair, rho, n_max)
        assert np.array_equal(lam, wavelet_multipliers(pair, rho, n_max))

    @PROPERTY
    @given(pair=kernel_pairs())
    def test_full_sphere_cap_gives_wavelet_symbols(self, pair):
        kN = pair.geometry.kN
        _, mu = cap_multipliers(pair, 2.0, kN)
        psi = pair.psi_tilde.values
        np.testing.assert_allclose(mu[1:], psi[1:], rtol=0.0,
                                   atol=1e-13 * np.abs(psi).max())


def zonal_sums(n_max, symbols, centres):
    """Coefficients of sum_j sum_n symbols[i, n] (2n+1)/(4 pi) P_n(x.xi_ij)
    for centres[..., i, j, :] = xi_ij, shape centres.shape[:-2] + (rows,
    L): by the addition theorem, degree n of row i is symbols[i, n] times
    the sum over j of Y_nk(xi_ij), which ynk evaluates at loose points."""
    basis = np.array([ynk(n, k, centres.reshape(-1, 3)) for n in range(n_max + 1)
                      for k in range(1, 2 * n + 2)]).reshape(-1, *centres.shape[:-1])
    return (np.repeat(symbols, 2 * np.arange(n_max + 1) + 1, axis=-1)
            * np.moveaxis(basis.sum(axis=-1), 0, -1))


class TestRotationEquivariance:
    # a model of zonal kernels centred at xi_j, turned by Q, is the same
    # sum centred at Q xi_j; with the region moved from c to Q c as well,
    # the noise-free error of the combined approximation cannot change.
    # Both models come from their centres in closed form, so the cap-frame
    # turn inside relative_error is checked against a path that takes none
    @PROPERTY
    @given(pair=kernel_pairs("scalar"), n_max=st.integers(0, 30), seed=seeds,
           rotation=rotations(), center=centers(), margin=st.floats(0.05, 1.0))
    def test_scalar(self, pair, n_max, seed, rotation, center, margin):
        self._check(pair, n_max, seed, rotation, center, margin)

    @PROPERTY
    @given(pair=kernel_pairs(), n_max=st.integers(0, 30), seed=seeds,
           rotation=rotations(), center=centers(), margin=st.floats(0.05, 1.0))
    def test_vector(self, pair, n_max, seed, rotation, center, margin):
        # type 1 and type 2 are two such sums, type 2 from degree 1
        self._check(pair, n_max, seed, rotation, center, margin)

    @staticmethod
    def _check(pair, n_max, seed, rotation, center, margin):
        g = pair.geometry
        rng = np.random.default_rng(seed)
        types = 1 if g.case == "scalar" else 2
        symbols = rng.standard_normal((types, n_max + 1))
        symbols[1:, 0] = 0.0
        centres = rng.standard_normal((types, int(rng.integers(1, 4)), 3))
        centres /= np.linalg.norm(centres, axis=-1, keepdims=True)
        kind = HarmonicCoefficients if types == 1 else VectorCoefficients
        models = zonal_sums(n_max, symbols, np.stack([centres, centres @ rotation.T]))
        errors = []
        for data, c in zip(models, (center, rotation @ center)):
            u = kind(g.r, n_max, data[0] if types == 1 else data)
            region = RegionSpec(c, min(g.rho + margin, 2.0), g.rho)
            approx = approximate_coefficients(pair, upward_continue(u, g.R), u, region)
            errors.append(relative_error(u, approx, region))
        assert abs(errors[1] - errors[0]) <= 1e-12 * errors[0]
