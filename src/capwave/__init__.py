"""capwave: harmonic field reconstruction from satellite and local ground data.

The package combines a regularized downward-continuation transform acting on
outer-sphere data with a cap-localized wavelet refinement acting on
inner-sphere data. The kernel pair driving both transforms is obtained as the
unique minimizer of a quadratic functional balancing reconstruction fidelity,
regularization, and spatial localization of the wavelet.

Modules: legendre (orthogonal polynomial engine), harmonics (scalar and
vector spherical harmonics, both coefficient containers, grids, and one
synthesis, analysis and file format for both field kinds), kernels (zonal
kernel pairs and their optimization), transforms (one reconstruction
chain for scalar and gradient fields, and noise), vector_field (vector
basis functions, tensor-kernel diagnostics and the vector_* names of the
chain), experiments (sweep tables), cli (command line).
"""

from . import legendre, harmonics, kernels, transforms, vector_field, experiments

__version__ = "0.1.0"
