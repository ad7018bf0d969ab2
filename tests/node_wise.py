"""Node-wise quadrature forms of the scaling and wavelet transforms and of
cap norms.

capwave computes all of them spectrally; the tests compare that path with
these. Fields are sampled on capwave's exact quadrature rules, and the
kernels are summed node by node with the convolutions of oracles.py, which
share no code with the package.
"""

import numpy as np

import oracles
from capwave.harmonics import HarmonicCoefficients, cap_grid, synthesize
from capwave.transforms import field_samples
from capwave.vector_field import VectorCoefficients, vector_field_samples


def scaling(pair, f1, points):
    """Scaling transform of outer samples (or coefficients, sampled exactly)."""
    g = pair.geometry
    if isinstance(f1, HarmonicCoefficients):
        f1 = field_samples(f1, g.N + f1.n_max)
    weighted = f1.grid.weights * f1.values
    return oracles.zonal_convolution(pair.phi.values, points, f1.grid.nodes,
                                     weighted) / (g.r * g.R)


def wavelet(pair, f2, x, kernel_rho):
    """Wavelet kernel integrated against f2 over the cap about x."""
    g = pair.geometry
    cap = cap_grid(g.r, x, kernel_rho, g.kN + f2.n_max)
    weighted = cap.weights * synthesize(f2, cap)
    return oracles.zonal_convolution(pair.psi_tilde.values, x, cap.nodes,
                                     weighted) / (g.r * g.r)


def approximate(pair, f1, f2, region, points):
    """Scaling part plus the cap wavelet part at each point."""
    waves = [wavelet(pair, f2, x, region.kernel_rho) for x in points]
    return scaling(pair, f1, points) + np.array(waves)


def vector_scaling(pair, f1, points):
    """Tensor scaling transform of outer vector samples or coefficients."""
    g = pair.geometry
    if isinstance(f1, VectorCoefficients):
        f1 = vector_field_samples(f1, g.N + f1.n_max + 2)
    weighted = f1.grid.weights[:, None] * f1.values
    return np.array([
        oracles.tensor_convolution(pair.phi.values, x, f1.grid.nodes, weighted)
        for x in points
    ]) / (g.r * g.R)


def vector_wavelet(pair, f2, x, kernel_rho):
    """Tensor wavelet kernel integrated against f2 over the cap about x."""
    g = pair.geometry
    cap = cap_grid(g.r, x, kernel_rho, g.kN + f2.n_max + 2)
    weighted = cap.weights[:, None] * synthesize(f2, cap)
    return oracles.tensor_convolution(pair.psi_tilde.values, x, cap.nodes,
                                      weighted) / (g.r * g.r)


def vector_approximate(pair, f1, f2, region, points):
    """Tensor scaling part plus the cap tensor wavelet part at each point."""
    waves = [vector_wavelet(pair, f2, x, region.kernel_rho) for x in points]
    return vector_scaling(pair, f1, points) + np.array(waves)


def cap_norm(field, grid, minus=None):
    """Squared L2 norm over a cap rule (region.data_grid or eval_grid) of a
    scalar or vector field, or of field - minus: each field synthesized at
    the nodes, subtracted there, squared and integrated node by node."""
    values = synthesize(field, grid)
    if minus is not None:
        values = values - synthesize(minus, grid)
    return grid.integrate((values * values).reshape(grid.n_nodes, -1).sum(axis=1))
