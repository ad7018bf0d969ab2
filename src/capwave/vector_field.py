"""Vector spherical harmonics and the gradient-field reconstruction chain.

The gradient of a harmonic potential restricted to a sphere splits into a
radial pattern (type 1, xi times a scalar harmonic) and a tangential
surface-gradient pattern (type 2). This module provides that basis, the
coefficient container and transforms mirroring the scalar ones, the
tensor-kernel convolutions built from the same symbol sets as the scalar
case, and the diagnostics (tensor kernel values, Frobenius-profile moments)
the localization analysis needs.

Pole handling: synthesis and analysis run on the blocked Legendre engine
of the harmonics module, whose rows for m >= 1 are the reduced functions
B_n^m = A_n^m / sin(theta). Every channel comes from those rows and stays
finite at the poles: the radial values are sin(theta) B_n^m, the colatitude
derivative is n t B_n^m - e_nm B_{n-1}^m, the azimuthal one m B_n^m, and
for m = 0 the colatitude derivative of A_n^0 is
-sqrt(n(n+1)) sin(theta) B_n^1. Basis values at |xi_3| = 1 are therefore the
correct limits without a special branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .harmonics import (
    _SQRT2,
    CapGrid,
    SphereGrid,
    _azimuth_sums,
    _cap_frame,
    _leading_shape,
    _legendre_orders,
    _order_index,
    _per_coefficient,
    _read_coefficient_file,
    _synthesis,
    _theta_factor,
    sphere_grid,
)
from .kernels import Geometry, KernelPair, PenaltyWeights, SymbolSet, optimize
from .legendre import legendre_all
from .transforms import (
    RegionSpec,
    _cap_rule,
    _check_evaluation,
    _scaling_spectral_coefficients,
    wavelet_multipliers,
)

__all__ = [
    "VectorCoefficients",
    "TensorKernelPair",
    "VectorFieldSamples",
    "vsh",
    "vector_synthesize",
    "vector_analyze",
    "vector_field_samples",
    "vector_upward_continue",
    "vector_optimize",
    "vector_scaling_transform",
    "vector_wavelet_transform_local",
    "vector_approximate",
    "vector_approximate_coefficients",
    "vector_relative_error",
    "tensor_kernel_eval",
    "tensor_first_moment",
    "save_vector_coefficients",
    "load_vector_coefficients",
]

# The coupled symbols behave identically for scalar and tensor kernels; the
# tensor structure enters only through evaluation, so the pair type is shared.
TensorKernelPair = KernelPair


# ---------------------------------------------------------------------------
# coefficient container


@dataclass
class VectorCoefficients:
    """Flat real coefficient store for a two-type vector field on a sphere.

    Type 1 (radial pattern) occupies data[n^2 + k - 1] for n = 0..n_max;
    type 2 (surface-gradient pattern) starts at degree 1 and occupies
    data[(n_max+1)^2 + n^2 + k - 2]. The Euclidean norm of data equals the
    L2 surface norm of the synthesized field.
    """

    radius: float
    n_max: int
    data: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.n_max < 0:
            raise ValueError("n_max must be >= 0")
        size = 2 * (self.n_max + 1) ** 2 - 1
        if self.data is None:
            self.data = np.zeros(size)
        else:
            self.data = np.asarray(self.data, dtype=float)
            if self.data.shape != (size,):
                raise ValueError(
                    f"data must have shape ({size},) for n_max={self.n_max}"
                )

    def _index(self, i: int, n: int, k: int) -> int:
        if i not in (1, 2):
            raise ValueError("type i must be 1 or 2")
        lo = 0 if i == 1 else 1
        if not (lo <= n <= self.n_max):
            raise ValueError(f"degree n={n} outside {lo}..{self.n_max} for type {i}")
        if not (1 <= k <= 2 * n + 1):
            raise ValueError(f"order k={k} outside 1..{2 * n + 1} for n={n}")
        if i == 1:
            return n * n + k - 1
        return (self.n_max + 1) ** 2 + n * n + k - 2

    def coeff(self, i: int, n: int, k: int) -> float:
        return float(self.data[self._index(i, n, k)])

    def set_coeff(self, i: int, n: int, k: int, value: float) -> None:
        self.data[self._index(i, n, k)] = value

    def l2_norm(self) -> float:
        """L2(sphere) norm of the represented field."""
        return float(np.linalg.norm(self.data))

    def copy(self) -> "VectorCoefficients":
        return VectorCoefficients(self.radius, self.n_max, self.data.copy())

    def channel(self, i: int) -> np.ndarray:
        """Copy of one type's coefficients in the scalar flat layout.

        Degree-0 of the returned array is zero for type 2 (that slot does
        not exist in the vector basis).
        """
        size = (self.n_max + 1) ** 2
        if i == 1:
            return self.data[:size].copy()
        if i == 2:
            out = np.zeros(size)
            out[1:] = self.data[size:]
            return out
        raise ValueError("type i must be 1 or 2")

    def scaled_by_degree(self, factors: np.ndarray,
                         radius: float | None = None) -> "VectorCoefficients":
        """New container with degree n of both types multiplied by factors[n]."""
        scale = _per_coefficient(factors, self.n_max)
        return VectorCoefficients(
            self.radius if radius is None else radius, self.n_max,
            np.concatenate([scale, scale[1:]]) * self.data,
        )


@dataclass
class VectorFieldSamples:
    """Vector point samples of a bandlimited field on a full-sphere rule.

    degree declares the bandlimit of the sampled field; the caller is the
    authority on it.
    """

    grid: SphereGrid
    values: np.ndarray
    degree: int

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_nodes, 3):
            raise ValueError("values must have one 3-vector per grid node")
        if self.degree < 0:
            raise ValueError("degree must be >= 0")


def vector_field_samples(coeffs: VectorCoefficients,
                         exact_degree: int) -> VectorFieldSamples:
    """Sample a coefficient field on a fresh grid of the stated exactness."""
    grid = sphere_grid(coeffs.radius, exact_degree)
    return VectorFieldSamples(grid, vector_synthesize(coeffs, grid), coeffs.n_max)


# ---------------------------------------------------------------------------
# basis functions


def vsh(i: int, n: int, k: int, xi) -> np.ndarray:
    """Vector spherical harmonic y^(i)_{n,k} at unit direction(s) xi.

    Type 1 is xi Y_{n,k}(xi); type 2 is the surface gradient of Y_{n,k}
    divided by sqrt(n(n+1)) and exists only for n >= 1. The toroidal third
    type carries no gradient-field content and is not provided.
    """
    if i not in (1, 2):
        raise ValueError("type i must be 1 or 2")
    if i == 2 and n == 0:
        raise ValueError("type 2 starts at degree 1")
    if n < 0:
        raise ValueError("degree n must be >= 0")
    if not (1 <= k <= 2 * n + 1):
        raise ValueError(f"order k={k} outside 1..{2 * n + 1}")
    single = VectorCoefficients(1.0, n)
    single.set_coeff(i, n, k, 1.0)
    return vector_synthesize(single, xi)


# ---------------------------------------------------------------------------
# synthesis and analysis


def vector_synthesize(coeffs: VectorCoefficients, points) -> np.ndarray:
    """Cartesian field values at unit directions, a SphereGrid, or a CapGrid.

    Returns one 3-vector per point (shape (3,) for a single direction).
    Runs the blocked Legendre engine of the harmonics module on three
    channels at once: the radial, colatitude and azimuth components of each
    order come from one matrix product of the coefficients with that
    order's reduced Legendre rows, and grids sum the orders with one
    azimuth matrix product. On a CapGrid both types are turned into the
    cap's own frame by the same per-degree rotation, since each comes from
    Y_nk through a rotation-equivariant operator; the vectors found there
    are mapped back with grid.rotation.
    """
    rotation = points.rotation if isinstance(points, CapGrid) else None
    if rotation is not None:
        both = _cap_frame(np.stack([coeffs.channel(1), coeffs.channel(2)]), rotation)
        coeffs = VectorCoefficients(coeffs.radius, coeffs.n_max,
                                    np.concatenate([both[0], both[1, 1:]]))
    (f_r, f_t, f_p), (ct, st, cp, sp) = _synthesis(_vector_blocks, coeffs, points)
    horiz = f_r * st + f_t * ct
    out = np.stack([horiz * cp - f_p * sp, horiz * sp + f_p * cp,
                    f_r * ct - f_t * st], axis=-1)
    if rotation is not None:
        out = out @ rotation.T
    return np.reshape(out / coeffs.radius, _leading_shape(points) + (3,))


def _vector_orders(coeffs: VectorCoefficients, ct: np.ndarray, st: np.ndarray):
    """Per-order (radial, colatitude, azimuth) amplitudes for _synthesis.

    The m = 0 colatitude channel needs the B_n^1 rows, so order 0 is
    yielded once order 1 has been seen.
    """
    n_max = coeffs.n_max
    c1, c2 = coeffs.channel(1), coeffs.channel(2)
    zero = np.zeros_like(ct)
    for m, rows in _legendre_orders(n_max, ct, st):
        n, cos_i, sin_i = _order_index(n_max, m)
        if m == 0:
            radial = c1[cos_i] @ rows
            if n_max == 0:
                yield 0, np.stack([radial, zero, zero]), np.zeros((3,) + ct.shape)
            continue
        # d @ dA/dtheta = t (n d) @ B - (e d shifted one degree down) @ B
        d = c2[np.stack([cos_i, sin_i])] / np.sqrt(n * (n + 1.0))
        down = np.zeros_like(d)
        down[:, :-1] = (_theta_factor(n, m) * d)[:, 1:]
        stack = [c1[cos_i], c1[sin_i], n * d[0], n * d[1], down[0], down[1], d[0], d[1]]
        if m == 1:
            stack.append(c2[cos_i - 1])  # order-0 type-2 coefficients, n >= 1
        p = np.stack(stack) @ rows
        if m == 1:
            yield 0, np.stack([radial, -st * p[8], zero]), np.zeros((3,) + ct.shape)
        yield m, _SQRT2 * np.stack([st * p[0], ct * p[2] - p[4], m * p[7]]), \
            _SQRT2 * np.stack([st * p[1], ct * p[3] - p[5], -m * p[6]])


def _vector_blocks(coeffs: VectorCoefficients, ct: np.ndarray, st: np.ndarray):
    """_vector_orders as amplitude blocks of one order each, for _synthesis."""
    for m, a, b in _vector_orders(coeffs, ct, st):
        yield m, a[:, None], b[:, None]


def vector_analyze(samples: np.ndarray, grid: SphereGrid,
                   n_max: int) -> VectorCoefficients:
    """Vector coefficients of sampled Cartesian values by exact quadrature.

    Requires grid.exact_degree >= 2 n_max + 2: basis components carry one
    polynomial degree more than the scalar harmonics, so products of a
    degree-n_max field with any basis function reach degree 2 n_max + 2.
    The transpose of vector_synthesize on the grid: azimuth sums of the
    three spherical components, then one product per order with the
    reduced Legendre rows.
    """
    if not isinstance(grid, SphereGrid):
        raise TypeError("vector_analyze needs samples on a SphereGrid")
    if grid.exact_degree < 2 * n_max + 2:
        raise ValueError(
            f"grid exact_degree {grid.exact_degree} < 2*n_max+2 = {2 * n_max + 2}"
        )
    values = np.asarray(samples, dtype=float)
    if values.shape != (grid.n_nodes, 3):
        raise ValueError("samples must be one 3-vector per grid node")
    ct = grid.ct
    st = np.sqrt(np.maximum(0.0, 1.0 - ct * ct))
    cp = np.cos(grid.phis)
    sp = np.sin(grid.phis)

    vx, vy, vz = values.T.reshape(3, ct.size, grid.phis.size)
    f_r = vx * np.outer(st, cp) + vy * np.outer(st, sp) + vz * ct[:, None]
    f_t = vx * np.outer(ct, cp) + vy * np.outer(ct, sp) - vz * st[:, None]
    f_p = -vx * sp[None, :] + vy * cp[None, :]
    (rc, tc, pc), (rs, ts, ps) = _azimuth_sums(np.stack([f_r, f_t, f_p]), grid, n_max)

    c1 = np.empty((n_max + 1) ** 2)
    c2 = np.zeros_like(c1)
    for m, rows in _legendre_orders(n_max, ct, st):
        n, cos_i, sin_i = _order_index(n_max, m)
        if m == 0:
            c1[cos_i] = rows @ rc[:, 0]
            continue
        cols = [st * rc[:, m], st * rs[:, m], ct * tc[:, m], ct * ts[:, m],
                tc[:, m], ts[:, m], ps[:, m], pc[:, m]]
        if m == 1:
            cols.append(st * tc[:, 0])
        q = rows @ np.stack(cols, axis=1)
        # transpose of the shift in _vector_orders: degree n reads row n - 1
        below = np.zeros((q.shape[0], 2))
        below[1:] = q[:-1, 4:6]
        below *= _theta_factor(n, m)[:, None]
        scale = _SQRT2 / np.sqrt(n * (n + 1.0))
        c1[cos_i], c1[sin_i] = _SQRT2 * q[:, 0], _SQRT2 * q[:, 1]
        c2[cos_i] = scale * (n * q[:, 2] - below[:, 0] - m * q[:, 6])
        c2[sin_i] = scale * (n * q[:, 3] - below[:, 1] + m * q[:, 7])
        if m == 1:
            c2[cos_i - 1] = -q[:, 8]
    return VectorCoefficients(grid.radius, n_max, np.concatenate([c1, c2[1:]]))


# ---------------------------------------------------------------------------
# continuation and the optimizer front end


def vector_upward_continue(b_plus: VectorCoefficients, R: float) -> VectorCoefficients:
    """Gradient-field coefficients on the sphere of radius R > r.

    Degree n of both types is damped by sigma_n = (r/R)^(n+1); the extra
    power relative to the scalar case comes from differentiating the
    potential before restricting.
    """
    r = b_plus.radius
    if R <= r:
        raise ValueError("upward continuation needs R > r")
    n = np.arange(b_plus.n_max + 1, dtype=float)
    return b_plus.scaled_by_degree((r / R) ** (n + 1.0), radius=R)


def vector_optimize(geometry: Geometry, w: PenaltyWeights,
                    targets: SymbolSet | None = None,
                    gram=None) -> TensorKernelPair:
    """Unique minimizer of the tensor-kernel functional.

    The quadratic structure is identical to the scalar optimizer; the vector
    case enters through the derivative-weighted Gram matrix and the shifted
    damping exponent, both selected by geometry.case.
    """
    if geometry.case != "vector":
        raise ValueError("vector_optimize needs geometry.case == 'vector'")
    return optimize(geometry, w, targets, gram)


# ---------------------------------------------------------------------------
# tensor-kernel application


def _require_vector(pair: KernelPair) -> Geometry:
    g = pair.geometry
    if g.case != "vector":
        raise ValueError("tensor transforms need geometry.case == 'vector'")
    return g


def tensor_kernel_eval(symbols: SymbolSet, xi, eta) -> np.ndarray:
    """3x3 tensor kernel value at one direction pair, radius factors excluded.

    Sums sym(n) times the degree-n reproducing tensor of both types; the
    closed form uses only Legendre values and derivatives at t = xi.eta.
    """
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    t = float(np.clip(xi @ eta, -1.0, 1.0))
    p, dp, d2p = legendre_all(symbols.n_max, np.asarray(t))
    a = eta - t * xi
    b = xi - t * eta
    radial = np.outer(xi, eta)
    tang = np.eye(3) - np.outer(eta, eta) - np.outer(xi, b)
    out = symbols.values[0] / (4.0 * math.pi) * radial
    for n in range(1, symbols.n_max + 1):
        v = symbols.values[n]
        if v == 0.0:
            continue
        c = (2.0 * n + 1.0) * v / (4.0 * math.pi)
        out = out + c * (
            float(p[n]) * radial
            + (float(d2p[n]) * np.outer(a, b) + float(dp[n]) * tang)
            / (n * (n + 1.0))
        )
    return out


def tensor_first_moment(symbols: SymbolSet) -> float:
    """8 pi^2 r^4 times the first moment of the tensor Frobenius profile.

    The integral of t |K(t)|_F^2 over [-1, 1] reduces to neighbouring-degree
    products: only |n - m| = 1 pairs survive, each weighted by the channel
    overlap 1/2 for the radial-only degree 0 and
    1/2 + (n(n+1) + m(m+1) - 2)^2 / (8 n(n+1) m(m+1)) otherwise, times the
    Legendre moment 2(n+1) / ((2n+1)(2n+3)).
    """
    v = symbols.values
    total = 0.0
    for n in range(symbols.n_max):
        m = n + 1
        if n == 0:
            weight = 0.5
        else:
            a = n * (n + 1.0)
            b = m * (m + 1.0)
            weight = 0.5 + (a + b - 2.0) ** 2 / (8.0 * a * b)
        moment = 2.0 * (n + 1.0) / ((2.0 * n + 1.0) * (2.0 * n + 3.0))
        total += 2.0 * v[n] * v[m] * (2 * n + 1) * (2 * m + 1) * weight * moment
    return total


# ---------------------------------------------------------------------------
# transforms


def _outer_coefficients(f1, n_keep: int) -> VectorCoefficients:
    """Outer-sphere data as coefficients, analyzed first if given as samples.

    As in the scalar chain, samples are analyzed only to the degrees n <=
    n_keep that the scaling part keeps; the rest of f1.degree stays zero.
    Basis components carry one degree more than the scalar harmonics, so
    the grid must integrate degree n + f1.degree + 2 exactly.
    """
    if isinstance(f1, VectorCoefficients):
        return f1
    if not isinstance(f1, VectorFieldSamples):
        raise TypeError("f1 must be VectorFieldSamples or VectorCoefficients")
    n = min(n_keep, f1.degree)
    if f1.grid.exact_degree < n + f1.degree + 2:
        raise ValueError(
            "outer analysis needs grid exactness >= min(N, degree) + degree + 2 "
            f"({f1.grid.exact_degree} < {n + f1.degree + 2})"
        )
    kept = vector_analyze(f1.values, f1.grid, n)
    out = VectorCoefficients(f1.grid.radius, f1.degree)
    head, start = (n + 1) ** 2, (f1.degree + 1) ** 2
    out.data[:head] = kept.data[:head]
    out.data[start : start + head - 1] = kept.data[head:]
    return out


def vector_scaling_transform(pair: TensorKernelPair, f1, points, *,
                             method: str = "spectral") -> np.ndarray:
    """Regularized downward continuation of outer-sphere gradient data.

    f1 is either VectorFieldSamples on a grid at radius R or
    VectorCoefficients at R. Both types of degree n <= N are multiplied by
    the scaling symbols phi(n). method names that path and accepts only
    "spectral"; it stays for callers that name it.
    """
    if method != "spectral":
        raise ValueError("method must be 'spectral', the only path")
    g = _require_vector(pair)
    out = _scaling_spectral_coefficients(pair, _outer_coefficients(f1, g.N))
    return vector_synthesize(out, points)


def _cap_wavelet_coefficients(pair: TensorKernelPair, f2: VectorCoefficients,
                              kernel_rho: float) -> VectorCoefficients:
    """Coefficient-space action of the cap-restricted tensor wavelet convolution.

    Restricting the zonal tensor kernel to a cap keeps it equivariant under
    rotations and reflections, so it still acts degree by degree and type
    by type (a tensor Funk-Hecke formula). Type 1 is the radial channel,
    whose profile is the scalar one, so it takes wavelet_multipliers. By
    Schur's lemma the type-2 multiplier of degree n is the trace of the
    restricted operator over that space divided by its dimension:

        mu_n = 1/(n(n+1)) * integral over [1-kernel_rho, 1] of
               P_n' ((1+t^2) K' - t(1-t^2) K'')
               + P_n'' ((1-t^2)^2 K'' - t(1-t^2) K')

    with K = sum_j (j+1/2) psi_tilde(j) / (j(j+1)) P_j, the tangential
    Frobenius product that gram_vector integrates over the cap exterior.
    The integrand has degree at most kN + n_max, so the Gauss rule of
    wavelet_multipliers (transforms._cap_rule) is exact. On the full-sphere
    cap mu_n = psi_tilde(n).
    """
    g = pair.geometry
    n_max = f2.n_max
    t, w, _, dp, d2p = _cap_rule(g.kN, n_max, kernel_rho)
    j = np.arange(1, g.kN + 1, dtype=float)
    k = (j + 0.5) * pair.psi_tilde.values[1:] / (j * (j + 1.0))
    dk, d2k = k @ dp[1 : g.kN + 1], k @ d2p[1 : g.kN + 1]
    s = 1.0 - t * t
    first = w * ((1.0 + t * t) * dk - t * s * d2k)
    second = w * (s * s * d2k - t * s * dk)
    n = np.arange(1, n_max + 1, dtype=float)
    mu = np.zeros(n_max + 1)
    mu[1:] = (dp[1:n_max + 1] @ first + d2p[1:n_max + 1] @ second) / (n * (n + 1.0))
    lam = _per_coefficient(wavelet_multipliers(pair, kernel_rho, n_max), n_max)
    mu = _per_coefficient(mu, n_max)[1:]
    return VectorCoefficients(f2.radius, n_max, np.concatenate([lam, mu]) * f2.data)


def vector_wavelet_transform_local(pair: TensorKernelPair,
                                   f2: VectorCoefficients, x,
                                   region: RegionSpec) -> np.ndarray:
    """Wavelet refinement 3-vector at one point from cap-local ground data.

    Integrates the tensor wavelet kernel against the field over the cap of
    radius region.kernel_rho around x, as the cap multipliers of each
    degree and type.
    """
    _require_vector(pair)
    _check_evaluation(pair, region, x)
    return vector_synthesize(_cap_wavelet_coefficients(pair, f2, region.kernel_rho), x)


def vector_approximate_coefficients(pair: TensorKernelPair, f1,
                                    f2: VectorCoefficients,
                                    region: RegionSpec) -> VectorCoefficients:
    """Coefficient field of the combined vector approximation, on any cap.

    The scaling part contributes phi(n) times the outer-data coefficients
    of both types for n <= N; the wavelet part contributes the cap
    multipliers times the ground-data coefficients, per degree and type.
    f1 may be VectorFieldSamples (analyzed first, needing grid exactness
    >= min(N, degree) + degree + 2) or VectorCoefficients at R.
    """
    f1 = _outer_coefficients(f1, pair.geometry.N)
    g = _require_vector(pair)
    t_part = _scaling_spectral_coefficients(pair, f1)
    w_part = _cap_wavelet_coefficients(pair, f2, region.kernel_rho)
    n_out = max(t_part.n_max, w_part.n_max)
    out = VectorCoefficients(g.r, n_out)
    for part in (t_part, w_part):
        head = (part.n_max + 1) ** 2
        off = (n_out + 1) ** 2
        out.data[:head] += part.data[:head]
        out.data[off : off + part.data.size - head] += part.data[head:]
    return out


def vector_approximate(pair: TensorKernelPair, f1, f2: VectorCoefficients,
                       region: RegionSpec, points) -> np.ndarray:
    """Combined two-step vector approximation at the given points.

    Sum of the regularized downward continuation of outer-sphere gradient
    data and the cap-local tensor wavelet refinement of ground data, on
    any cap: the field of vector_approximate_coefficients, synthesized at
    the points.
    """
    _check_evaluation(pair, region, points)
    out = vector_approximate_coefficients(pair, f1, f2, region)
    return vector_synthesize(out, points)


def vector_relative_error(b_ref: VectorCoefficients,
                          b_approx: VectorCoefficients,
                          region: RegionSpec) -> float:
    """L2 error over the evaluation region, relative to the reference norm.

    Pointwise Euclidean norms of the Cartesian difference field, integrated
    with a rule exact for both squared fields.
    """
    if b_ref.radius != b_approx.radius:
        raise ValueError("fields must live on the same sphere")
    degree = max(b_ref.n_max, b_approx.n_max)
    grid = region.eval_grid(b_ref.radius, 2 * degree + 2)
    ref_vals = vector_synthesize(b_ref, grid)
    diff = vector_synthesize(b_approx, grid) - ref_vals
    den = grid.integrate(np.einsum("ij,ij->i", ref_vals, ref_vals))
    if den <= 0.0 or not np.isfinite(den):
        raise ValueError("reference field is zero on the evaluation region")
    num = grid.integrate(np.einsum("ij,ij->i", diff, diff))
    return math.sqrt(num / den)


# ---------------------------------------------------------------------------
# text file format


def save_vector_coefficients(coeffs: VectorCoefficients, path) -> None:
    """Write `i n k value` lines under a channels=2 header."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(
            f"# radius_km={coeffs.radius:.17g} n_max={coeffs.n_max} channels=2\n"
        )
        for i in (1, 2):
            for n in range(0 if i == 1 else 1, coeffs.n_max + 1):
                for k in range(1, 2 * n + 2):
                    fh.write(f"{i} {n} {k} {coeffs.coeff(i, n, k):.17g}\n")


def load_vector_coefficients(path) -> VectorCoefficients:
    """Read the text format written by save_vector_coefficients.

    Missing (i, n, k) entries default to zero; malformed lines are reported
    with their line number.
    """
    radius, (n_max, channels), rows = _read_coefficient_file(
        path, "# radius_km=... n_max=... channels=2", ("n_max", "channels"),
        ("i", "n", "k", "value"))
    if channels != 2:
        raise ValueError(f"{path}: line 1: expected channels=2, got {channels}")

    out = VectorCoefficients(radius, n_max)
    for idx, (i, n, k), value in rows:
        try:
            out.set_coeff(i, n, k, value)
        except ValueError as exc:
            raise ValueError(f"{path}: line {idx}: {exc}") from exc
    return out
