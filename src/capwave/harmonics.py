"""Real spherical harmonics, coefficient containers, and exact quadrature grids.

Conventions used throughout the package:

- Fully normalized real harmonics Y_{n,k} without the Condon-Shortley phase.
- The order index k runs 1..2n+1 and enumerates m = 0 first, then the
  cos(m phi) functions for m = 1..n, then the sin(m phi) functions.
- A field F on the sphere of radius ``rad`` is expanded in the orthonormal
  basis (1/rad) Y_{n,k}(x/|x|), so coefficients are
  c(n,k) = integral of F * (1/rad) Y_{n,k} d omega, and the Euclidean norm of
  the flat coefficient vector equals the L2 surface norm of F.
- Grids store unit node directions; quadrature weights carry the radius^2
  surface factor, so ``weights @ values`` is the surface integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .legendre import gauss_rule

__all__ = [
    "HarmonicCoefficients",
    "SphereGrid",
    "CapGrid",
    "ynk",
    "sphere_grid",
    "cap_grid",
    "synthesize",
    "analyze",
    "sobolev_norm",
    "save_coefficients",
    "load_coefficients",
]

_INV_SQRT_4PI = 1.0 / math.sqrt(4.0 * math.pi)
_SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# coefficient container


@dataclass
class HarmonicCoefficients:
    """Flat real coefficient store for a scalar field on a sphere.

    data[n^2 + k - 1] holds c(n,k). The layout keeps whole degrees
    contiguous so degree-wise multipliers are cheap slices.
    """

    radius: float
    n_max: int
    data: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.n_max < 0:
            raise ValueError("n_max must be >= 0")
        size = (self.n_max + 1) ** 2
        if self.data is None:
            self.data = np.zeros(size)
        else:
            self.data = np.asarray(self.data, dtype=float)
            if self.data.shape != (size,):
                raise ValueError(
                    f"data must have shape ({size},) for n_max={self.n_max}"
                )

    def coeff(self, n: int, k: int) -> float:
        self._check_index(n, k)
        return float(self.data[n * n + k - 1])

    def set_coeff(self, n: int, k: int, value: float) -> None:
        self._check_index(n, k)
        self.data[n * n + k - 1] = value

    def _check_index(self, n: int, k: int) -> None:
        if not (0 <= n <= self.n_max):
            raise ValueError(f"degree n={n} outside 0..{self.n_max}")
        if not (1 <= k <= 2 * n + 1):
            raise ValueError(f"order k={k} outside 1..{2 * n + 1} for n={n}")

    def degree_slice(self, n: int) -> np.ndarray:
        """View of the 2n+1 coefficients of degree n."""
        return self.data[n * n : (n + 1) * (n + 1)]

    def l2_norm(self) -> float:
        """L2(sphere) norm of the represented field."""
        return float(np.linalg.norm(self.data))

    def copy(self) -> "HarmonicCoefficients":
        return HarmonicCoefficients(self.radius, self.n_max, self.data.copy())

    def scaled_by_degree(self, factors: np.ndarray, radius: float | None = None) -> "HarmonicCoefficients":
        """New container with degree n multiplied by factors[n]."""
        return HarmonicCoefficients(
            self.radius if radius is None else radius, self.n_max,
            _per_coefficient(factors, self.n_max) * self.data,
        )


def _per_coefficient(factors, n_max: int) -> np.ndarray:
    """factors[n] repeated over the 2n+1 flat slots of degree n, n = 0..n_max."""
    factors = np.asarray(factors, dtype=float)
    if factors.shape[0] < n_max + 1:
        raise ValueError("need one factor per degree")
    return np.repeat(factors[: n_max + 1], 2 * np.arange(n_max + 1) + 1)


def sobolev_norm(coeffs: HarmonicCoefficients, s: float) -> float:
    """Norm with degree weights (n + 1/2)^(2s) on squared coefficients."""
    if s < 0:
        raise ValueError("s must be >= 0")
    n = np.arange(coeffs.n_max + 1)
    weights = _per_coefficient((n + 0.5) ** (2 * s), coeffs.n_max)
    return math.sqrt(float(weights @ (coeffs.data * coeffs.data)))


# ---------------------------------------------------------------------------
# quadrature grids


@dataclass
class SphereGrid:
    """Gauss-colatitude x uniform-longitude product rule on a full sphere.

    Exact for spherical polynomials of degree <= exact_degree. Nodes are
    unit directions ordered colatitude-major; weights include radius^2.
    """

    radius: float
    exact_degree: int
    nodes: np.ndarray
    weights: np.ndarray
    ct: np.ndarray       # Gauss nodes in t = cos(theta), ascending
    ct_weights: np.ndarray
    phis: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    def integrate(self, values: np.ndarray) -> float:
        return float(self.weights @ np.asarray(values, dtype=float))


@dataclass
class CapGrid:
    """Rotated product rule on the spherical cap 1 - center.xi <= cap_rho.

    Exact for restrictions of spherical polynomials of degree <=
    exact_degree E: Gauss nodes in t = center.xi times E + 1 uniform
    azimuths in the cap's own frame. Weights include radius^2 and sum to
    the cap area 2 pi cap_rho radius^2.
    """

    radius: float
    center: np.ndarray
    cap_rho: float
    exact_degree: int
    nodes: np.ndarray
    weights: np.ndarray
    t_nodes: np.ndarray       # Gauss nodes in t = center.xi, ascending
    t_weights: np.ndarray
    phis: np.ndarray
    rotation: np.ndarray      # maps the north-pole rule onto the cap

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    def integrate(self, values: np.ndarray) -> float:
        return float(self.weights @ np.asarray(values, dtype=float))


def sphere_grid(radius: float, exact_degree: int) -> SphereGrid:
    """Full-sphere rule with (L+1) x (2L+1) nodes, L = ceil(exact_degree/2)."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    if exact_degree < 0:
        raise ValueError("exact_degree must be >= 0")
    L = (exact_degree + 1) // 2
    ct, cw = gauss_rule(L + 1, -1.0, 1.0)
    n_phi = 2 * L + 1
    phis = 2.0 * np.pi * np.arange(n_phi) / n_phi

    st = np.sqrt(np.maximum(0.0, 1.0 - ct * ct))
    cos_p, sin_p = np.cos(phis), np.sin(phis)
    nodes = np.empty((ct.size * n_phi, 3))
    nodes[:, 0] = np.outer(st, cos_p).ravel()
    nodes[:, 1] = np.outer(st, sin_p).ravel()
    nodes[:, 2] = np.repeat(ct, n_phi)
    weights = np.repeat(cw, n_phi) * (2.0 * np.pi / n_phi) * radius * radius
    return SphereGrid(radius, exact_degree, nodes, weights, ct, cw, phis)


def _rotation_from_north(center: np.ndarray) -> np.ndarray:
    """Rotation matrix taking e3 to the unit vector center."""
    c = np.asarray(center, dtype=float)
    norm = np.linalg.norm(c)
    if norm == 0:
        raise ValueError("center must be a nonzero direction")
    c = c / norm
    cz = c[2]
    if cz > 1.0 - 1e-14:
        return np.eye(3)
    if cz < -1.0 + 1e-14:
        # half turn about the x-axis
        return np.diag([1.0, -1.0, -1.0])
    axis = np.array([-c[1], c[0], 0.0])
    s = np.linalg.norm(axis)
    axis = axis / s
    K = np.array([
        [0.0, -axis[2], axis[1]],
        [axis[2], 0.0, -axis[0]],
        [-axis[1], axis[0], 0.0],
    ])
    return np.eye(3) + s * K + (1.0 - cz) * (K @ K)


def cap_grid(radius: float, center, cap_rho: float, exact_degree: int) -> CapGrid:
    """Cap rule: Gauss in t on [1-cap_rho, 1] x uniform azimuth, rotated to center.

    A polynomial of degree E = exact_degree has azimuthal modes |m| <= E in
    the cap's own frame, so (E+2)//2 Gauss nodes in t times E + 1 uniform
    azimuths integrate it exactly. cap_rho may equal 2, in which case the
    rule covers the full sphere (the degenerate cap).
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if not (0.0 < cap_rho <= 2.0):
        raise ValueError("cap_rho must lie in (0, 2]")
    if exact_degree < 0:
        raise ValueError("exact_degree must be >= 0")
    m_t = (exact_degree + 2) // 2
    t, tw = gauss_rule(max(m_t, 1), 1.0 - cap_rho, 1.0)
    n_phi = exact_degree + 1
    phis = 2.0 * np.pi * np.arange(n_phi) / n_phi

    rot = _rotation_from_north(center)
    center = rot @ np.array([0.0, 0.0, 1.0])

    st = np.sqrt(np.maximum(0.0, 1.0 - t * t))
    cos_p, sin_p = np.cos(phis), np.sin(phis)
    local = np.empty((t.size * n_phi, 3))
    local[:, 0] = np.outer(st, cos_p).ravel()
    local[:, 1] = np.outer(st, sin_p).ravel()
    local[:, 2] = np.repeat(t, n_phi)
    nodes = local @ rot.T
    weights = np.repeat(tw, n_phi) * (2.0 * np.pi / n_phi) * radius * radius
    return CapGrid(radius, center, cap_rho, exact_degree, nodes, weights,
                   t, tw, phis, rot)


# ---------------------------------------------------------------------------
# per-order Legendre engine (orthonormal, no Condon-Shortley)

# B_1^1 = A_1^1 / sin(theta) is constant; the diagonal and column recurrences
# for B coincide with those for A because dividing by sin(theta) commutes
# with both.
_B11 = math.sqrt(1.5) * _INV_SQRT_4PI


def _alf_column(n_max: int, m: int, ct: np.ndarray, amm: np.ndarray) -> np.ndarray:
    """Rows A_n^m for n = m..n_max, shape (n_max - m + 1,) + ct.shape.

    amm is A_m^m at the same points; the upward three-term recurrence in n
    is stable for these normalized functions.
    """
    rows = np.empty((n_max - m + 1,) + np.shape(ct))
    rows[0] = amm
    if n_max == m:
        return rows
    rows[1] = math.sqrt(2 * m + 3) * ct * amm
    for n in range(m + 2, n_max + 1):
        a = math.sqrt((2 * n + 1) * (2 * n - 1) / ((n - m) * (n + m)))
        b = math.sqrt(
            (2 * n + 1) * (n - 1 - m) * (n - 1 + m)
            / ((2 * n - 3) * (n - m) * (n + m))
        )
        rows[n - m] = a * ct * rows[n - m - 1] - b * rows[n - m - 2]
    return rows


def _legendre_orders(n_max: int, ct: np.ndarray, st: np.ndarray):
    """Yield (m, rows) for m = 0..n_max, rows[j] holding degree n = m + j.

    m = 0 gives A_n^0; m >= 1 gives the reduced rows B_n^m = A_n^m / sin(theta),
    which stay finite at the poles and give back A_n^m = sin(theta) B_n^m.
    Each order's block is built when it is asked for, so no table over all
    orders is ever held.
    """
    first = np.full(np.shape(ct), _INV_SQRT_4PI)  # A_0^0, then B_m^m
    for m in range(n_max + 1):
        yield m, _alf_column(n_max, m, ct, first)
        if m == 0:
            first = np.full(np.shape(ct), _B11)
        else:
            first = math.sqrt((2 * m + 3) / (2 * m + 2)) * st * first


def _order_index(n_max: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Degrees n = m..n_max and the flat indices of their cos- and sin-type
    coefficients of order m (the sin indices are meaningless for m = 0)."""
    n = np.arange(m, n_max + 1)
    return n, n * n + m, n * n + n + m


def _theta_factor(n: np.ndarray, m: int) -> np.ndarray:
    """e_nm in sin(theta) dA_n^m/dtheta = n t A_n^m - e_nm A_{n-1}^m."""
    return np.sqrt((n * n - m * m) * (2 * n + 1) / (2 * n - 1))


def _direction_angles(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(ct, st, cos phi, sin phi) for unit directions, safe at the poles."""
    pts = np.asarray(points, dtype=float)
    ct = np.clip(pts[..., 2], -1.0, 1.0)
    st = np.hypot(pts[..., 0], pts[..., 1])
    safe = np.where(st > 0, st, 1.0)
    cp = np.where(st > 0, pts[..., 0] / safe, 1.0)
    sp = np.where(st > 0, pts[..., 1] / safe, 0.0)
    return ct, st, cp, sp


def _as_directions(points) -> np.ndarray:
    """Node directions of a grid, or the given directions as an (n, 3) array."""
    if isinstance(points, (CapGrid, SphereGrid)):
        return points.nodes
    pts = np.asarray(points, dtype=float)
    return pts[None, :] if pts.ndim == 1 else pts


def _leading_shape(points) -> tuple[int, ...]:
    """Shape of one value per direction in points."""
    if isinstance(points, (CapGrid, SphereGrid)):
        return (points.n_nodes,)
    return np.shape(points)[:-1]


def _azimuth(n_max: int, phis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos(m phi) and sin(m phi), shape (n_max + 1, len(phis))."""
    mphi = np.outer(np.arange(n_max + 1), phis)
    return np.cos(mphi), np.sin(mphi)


def _synthesis(orders, coeffs, points):
    """Sum per-order amplitudes over azimuth, on a product grid or at points.

    orders(coeffs, ct, st) yields (m, a_m, b_m) for m = 0..coeffs.n_max in
    turn, amplitudes with a last axis over the colatitudes, and the field is
    sum_m a_m cos(m phi) + b_m sin(m phi). A grid with product structure in
    the global frame needs the amplitudes only on its colatitude axis and
    sums them with one matrix product; at other points the azimuth factors
    advance order by order. Returns the values (last axes over the grid's
    colatitudes and azimuths, or over the points) and (ct, st, cos phi,
    sin phi) broadcastable against them.
    """
    if isinstance(points, SphereGrid):
        ct, phis = points.ct, points.phis
    elif isinstance(points, CapGrid) and np.allclose(points.rotation, np.eye(3), atol=1e-14):
        ct, phis = points.t_nodes, points.phis
    else:
        ct, st, cp, sp = _direction_angles(_as_directions(points).reshape(-1, 3))
        vals = 0.0
        cos_m, sin_m = np.ones_like(ct), np.zeros_like(ct)
        for _, a, b in orders(coeffs, ct, st):
            vals = vals + a * cos_m + b * sin_m
            cos_m, sin_m = cos_m * cp - sin_m * sp, sin_m * cp + cos_m * sp
        return vals, (ct, st, cp, sp)
    st = np.sqrt(np.maximum(0.0, 1.0 - ct * ct))
    _, a, b = zip(*orders(coeffs, ct, st))
    cos_m, sin_m = _azimuth(coeffs.n_max, phis)
    vals = np.stack(a, axis=-1) @ cos_m + np.stack(b, axis=-1) @ sin_m
    return vals, (ct[:, None], st[:, None], np.cos(phis), np.sin(phis))


def _scalar_orders(coeffs: HarmonicCoefficients, ct: np.ndarray, st: np.ndarray):
    """Per-order amplitudes of a scalar field for _synthesis."""
    data = coeffs.data
    for m, rows in _legendre_orders(coeffs.n_max, ct, st):
        _, cos_i, sin_i = _order_index(coeffs.n_max, m)
        if m == 0:
            a = data[cos_i] @ rows
            yield 0, a, np.zeros_like(a)
        else:
            a, b = _SQRT2 * st * (data[np.stack([cos_i, sin_i])] @ rows)
            yield m, a, b


def _azimuth_sums(values: np.ndarray, grid: SphereGrid, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature-weighted sums of grid samples against cos(m phi), sin(m phi).

    values has last axes (colatitude, azimuth); the sums have last axes
    (colatitude, m). The weights carry radius^2 and one 1/radius for the
    basis factor. This is the transpose of the grid step of _synthesis.
    """
    cos_m, sin_m = _azimuth(n_max, grid.phis)
    w = (grid.ct_weights * (2.0 * np.pi / grid.phis.size) * grid.radius)[:, None]
    return w * (values @ cos_m.T), w * (values @ sin_m.T)


def ynk(n: int, k: int, xi) -> float | np.ndarray:
    """Real orthonormal spherical harmonic Y_{n,k} at unit direction(s) xi."""
    if n < 0:
        raise ValueError("degree n must be >= 0")
    if not (1 <= k <= 2 * n + 1):
        raise ValueError(f"order k={k} outside 1..{2 * n + 1}")
    single = HarmonicCoefficients(1.0, n)
    single.set_coeff(n, k, 1.0)
    return synthesize(single, xi)


# ---------------------------------------------------------------------------
# synthesis and analysis


def synthesize(coeffs: HarmonicCoefficients, points) -> np.ndarray:
    """Evaluate the field at unit directions, a SphereGrid, or a CapGrid.

    Runs the per-order Legendre engine: each order's degree sum is one
    matrix product of the coefficients with that order's Legendre rows.
    Grids with product structure in the global frame (sphere grids, polar
    caps) evaluate the rows on their colatitude axis only and sum the
    orders with one azimuth matrix product; rotated caps and loose
    directions multiply by cos(m phi), sin(m phi) point by point. A single
    direction gives a float, a grid one value per node.
    """
    vals, _ = _synthesis(_scalar_orders, coeffs, points)
    out = np.reshape(vals / coeffs.radius, _leading_shape(points))
    return float(out) if out.ndim == 0 else out


def analyze(samples: np.ndarray, grid: SphereGrid, n_max: int) -> HarmonicCoefficients:
    """Coefficients of a sampled field by exact quadrature.

    Requires grid.exact_degree >= 2 * n_max so products of the field with any
    basis function of degree <= n_max integrate exactly when the field itself
    is bandlimited to n_max. The transpose of grid synthesis: azimuth sums
    first, then one product of each order's Legendre rows with them.
    """
    if not isinstance(grid, SphereGrid):
        raise TypeError("analyze needs samples on a SphereGrid")
    if grid.exact_degree < 2 * n_max:
        raise ValueError(
            f"grid exact_degree {grid.exact_degree} < 2*n_max = {2 * n_max}"
        )
    values = np.asarray(samples, dtype=float)
    if values.shape != (grid.n_nodes,):
        raise ValueError("samples must match the grid node count")
    tc, ts = _azimuth_sums(values.reshape(grid.ct.size, grid.phis.size), grid, n_max)
    st = np.sqrt(np.maximum(0.0, 1.0 - grid.ct * grid.ct))
    out = HarmonicCoefficients(grid.radius, n_max)
    for m, rows in _legendre_orders(n_max, grid.ct, st):
        _, cos_i, sin_i = _order_index(n_max, m)
        if m == 0:
            out.data[cos_i] = rows @ tc[:, 0]
        else:
            q = rows @ (_SQRT2 * st[:, None] * np.stack([tc[:, m], ts[:, m]], axis=1))
            out.data[cos_i], out.data[sin_i] = q.T
    return out


# ---------------------------------------------------------------------------
# text file format


def save_coefficients(coeffs: HarmonicCoefficients, path) -> None:
    """Write `n k value` lines under a `# radius_km=... n_max=...` header."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# radius_km={coeffs.radius:.17g} n_max={coeffs.n_max}\n")
        for n in range(coeffs.n_max + 1):
            for k in range(1, 2 * n + 2):
                fh.write(f"{n} {k} {coeffs.data[n * n + k - 1]:.17g}\n")


def _read_coefficient_file(path, header: str, keys: tuple[str, ...],
                           columns: tuple[str, ...]):
    """Header fields and data lines of a coefficient text file.

    header is the expected header line quoted in errors; keys are the
    integer header fields besides radius_km; columns name the fields of a
    data line, all integer indices except the final value. Returns
    (radius, key values, [(line number, indices, value)]) skipping blank
    and comment lines; malformed lines are reported with their number.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.readlines()
    if not lines:
        raise ValueError(f"{path}: empty coefficient file")
    text = lines[0].strip()
    if not text.startswith("#"):
        raise ValueError(f"{path}: line 1: missing `{header}` header")
    fields = dict()
    for token in text[1:].split():
        if "=" not in token:
            raise ValueError(f"{path}: line 1: bad header token {token!r}")
        key, _, val = token.partition("=")
        fields[key] = val
    names = ("radius_km",) + keys
    try:
        radius = float(fields["radius_km"])
        values = tuple(int(fields[key]) for key in keys)
    except (KeyError, ValueError) as exc:
        needs = ", ".join(names[:-1]) + " and " + names[-1]
        raise ValueError(f"{path}: line 1: header needs {needs}") from exc

    rows = []
    for idx, line in enumerate(lines[1:], start=2):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        parts = text.split()
        if len(parts) != len(columns):
            raise ValueError(f"{path}: line {idx}: expected `{' '.join(columns)}`")
        try:
            rows.append((idx, tuple(int(p) for p in parts[:-1]), float(parts[-1])))
        except ValueError as exc:
            raise ValueError(f"{path}: line {idx}: unparsable entry") from exc
    return radius, values, rows


def load_coefficients(path) -> HarmonicCoefficients:
    """Read the text format written by save_coefficients.

    Missing (n, k) entries default to zero; malformed lines are reported
    with their line number.
    """
    radius, (n_max,), rows = _read_coefficient_file(
        path, "# radius_km=... n_max=...", ("n_max",), ("n", "k", "value"))
    out = HarmonicCoefficients(radius, n_max)
    for idx, (n, k), value in rows:
        if not (0 <= n <= n_max) or not (1 <= k <= 2 * n + 1):
            raise ValueError(f"{path}: line {idx}: index (n={n}, k={k}) out of range")
        out.data[n * n + k - 1] = value
    return out
