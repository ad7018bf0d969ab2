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

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal

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
    the cap area 2 pi cap_rho radius^2. The nodes are those of the same
    rule at the north pole times rotation.T, in the same order, so every
    cap is a product grid in its own frame.
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
# rotating coefficients into a cap's frame


def _quarter_turn(n: int) -> tuple:
    """J_n, taking the degree-n coefficients of f to those of f o Q.

    Q is the quarter turn about the x-axis with Q e3 = e2. In the complex
    basis with the Condon-Shortley phase, f o Rx(a) = exp(i a L_x) f, and
    L_x = (L+ + L-)/2 is a real symmetric tridiagonal matrix with the
    eigenvalues -n..n. Its eigenvectors V come out orthonormal to rounding
    at every degree, so J_n = W^H V diag((-i)^lambda) V^T W keeps only
    their error; W changes to the real basis. (The Ivanic-Ruedenberg
    recursion over degrees loses orthogonality to 3e-8 by degree 110.)

    Q commutes with the reflection x -> -x and takes y -> -y to z -> -z
    (Q sigma_y = sigma_z Q), so J_n maps a basis function of given x- and
    z-parity onto functions of the same x-parity whose y-parity (cos or
    sin) equals that z-parity. Only four square blocks, about a quarter of
    the entries, are nonzero; J_n is returned as (rows, cols, block)
    triples with J_n[rows, cols] = block. It does not depend on any centre,
    and _quarter_turn_group keeps it once built.
    """
    m = np.arange(-n, n)
    ladder = 0.5 * np.sqrt((n - m) * (n + m + 1.0))
    lam, vec = eigh_tridiagonal(np.zeros(2 * n + 1), ladder)
    phase = np.array([1.0, -1j, -1.0, 1j])[np.rint(lam).astype(int) % 4]
    # a = V^T W, where column k of W writes the k-th real basis function in
    # terms of Y_n^m (rows m + n): 1 for m = 0, and for m >= 1
    # cos: ((-1)^m Y^m + Y^-m)/sqrt2, sin: -i ((-1)^m Y^m - Y^-m)/sqrt2
    k = np.arange(1, n + 1)
    up = ((-1.0) ** k)[:, None] * vec[n + k] / _SQRT2
    down = vec[n - k] / _SQRT2
    a = np.concatenate([vec[n][None, :], up + down, -1j * (up - down)]).T

    k = np.arange(2 * n + 1)
    is_sin = (k > n).astype(int)
    m = k - n * is_sin
    x_parity = (m + is_sin) % 2
    row_class = 2 * x_parity + is_sin
    col_class = 2 * x_parity + (n + m) % 2
    blocks = []
    for c in range(4):
        rows = np.flatnonzero(row_class == c)
        cols = np.flatnonzero(col_class == c)
        if rows.size:
            blocks.append((rows, cols, ((a[:, rows].conj().T * phase) @ a[:, cols]).real))
    return tuple(blocks)


# degrees per group of quarter-turn blocks applied by one matrix product;
# block sizes grow as n/2, so padding to a group's largest wastes little
_TURN_GROUP = 16


@functools.lru_cache(maxsize=None)
def _quarter_turn_group(g: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The blocks of J_n for the degrees n of group g (_TURN_GROUP g + 1
    onwards), zero-padded to one size and stacked in order of degree, with
    the flat rows and columns each acts on (-1 for padding: a zero slot is
    appended to the data) and, per degree, the number of blocks up to it.
    The indices do not depend on the field's degree, so one group serves
    every degree. Built on first use, held for the process, read-only."""
    degrees = range(_TURN_GROUP * g + 1, _TURN_GROUP * (g + 1) + 1)
    per_degree = [_quarter_turn(n) for n in degrees]
    blocks = [(n * n + r, n * n + c, block)
              for n, turn in zip(degrees, per_degree) for r, c, block in turn]
    size = max(block.shape[0] for *_, block in blocks)
    mats = np.zeros((len(blocks), size, size))
    rows = np.full((len(blocks), size), -1)
    cols = np.full((len(blocks), size), -1)
    for i, (r, c, block) in enumerate(blocks):
        mats[i, : r.size, : c.size] = block
        rows[i, : r.size] = r
        cols[i, : c.size] = c
    ends = np.cumsum([len(turn) for turn in per_degree])
    for arr in (mats, rows, cols, ends):
        arr.flags.writeable = False
    return mats, rows, cols, ends


def _quarter_turns(data: np.ndarray, inverse: bool) -> np.ndarray:
    """J_n (or J_n^T) applied to every degree n >= 1 of flat coefficients."""
    n_max = math.isqrt(data.shape[-1]) - 1
    ext = np.concatenate([data, np.zeros(data.shape[:-1] + (1,))], axis=-1)
    out = ext.copy()  # degree 0 stays; padded rows land in the extra slot
    for g in range((n_max + _TURN_GROUP - 1) // _TURN_GROUP):
        mats, rows, cols, ends = _quarter_turn_group(g)
        k = ends[min(n_max - _TURN_GROUP * g, _TURN_GROUP) - 1]
        mats, rows, cols = mats[:k], rows[:k], cols[:k]
        if inverse:
            mats, rows, cols = mats.transpose(0, 2, 1), cols, rows
        out[..., rows] = (mats @ ext[..., cols, None])[..., 0]
    return out[..., :-1]


@functools.lru_cache(maxsize=8)
def _turn_index(n_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Order m of each flat slot, the slot of its partner (cos(m phi) and
    sin(m phi) of one degree; m = 0 is its own) and the sign the partner
    enters a turn about z with. Memoized and read-only."""
    deg = np.repeat(np.arange(n_max + 1), 2 * np.arange(n_max + 1) + 1)
    k = np.arange(deg.size) - deg * deg
    is_sin = k > deg
    m = np.where(is_sin, k - deg, k)
    partner = np.arange(deg.size) + np.where(is_sin, -deg, np.where(k > 0, deg, 0))
    sign = np.where(is_sin, -1.0, 1.0)
    for arr in (m, partner, sign):
        arr.flags.writeable = False
    return m, partner, sign


def _turn_z(data: np.ndarray, angle: float) -> np.ndarray:
    """Coefficients of f o Rz(angle): each (cos m phi, sin m phi) pair turns
    by m angle. The last axis of data is the flat layout; angle 0 returns
    data itself."""
    if angle == 0.0:
        return data
    n_max = math.isqrt(data.shape[-1]) - 1
    m, partner, sign = _turn_index(n_max)
    turn = np.arange(n_max + 1) * angle
    return data * np.cos(turn)[m] + sign * np.sin(turn)[m] * data[..., partner]


def _cap_frame(data: np.ndarray, rotation: np.ndarray) -> np.ndarray:
    """Coefficients of f o rotation from those of f, degree by degree.

    The last axis of data is the flat layout; leading axes hold independent
    fields. Synthesized at a node x of a polar cap, the result gives f at
    rotation @ x, the matching node of the cap rotation carries there. With
    rotation = Rz(alpha) Ry(beta) Rz(gamma) and Ry(beta) = Q Rz(beta) Q^T,
    the result is Z(gamma) J^T Z(beta) J Z(alpha) data, where Z(a) is
    _turn_z and J is _quarter_turn. The angles come from the matrix, so the
    half-turn south-pole frame works too; the identity returns data itself.
    """
    r = np.asarray(rotation, dtype=float)
    alpha = math.atan2(r[1, 2], r[0, 2])
    beta = math.atan2(math.hypot(r[0, 2], r[1, 2]), r[2, 2])
    # alpha + gamma, or past the equator alpha - gamma, from the block that
    # states it well, so a beta near 0 or pi leaves no error about z
    if r[2, 2] >= 0.0:
        gamma = math.atan2(r[1, 0] - r[0, 1], r[0, 0] + r[1, 1]) - alpha
    else:
        gamma = alpha - math.atan2(-(r[0, 1] + r[1, 0]), r[1, 1] - r[0, 0])
    out = _turn_z(data, alpha)
    if beta != 0.0:
        out = _quarter_turns(_turn_z(_quarter_turns(out, False), beta), True)
    return _turn_z(out, gamma)


def _in_cap_frame(coeffs: HarmonicCoefficients, points) -> HarmonicCoefficients:
    """coeffs turned into a CapGrid's own frame (_cap_frame), or unchanged
    for any other points."""
    if not isinstance(points, CapGrid):
        return coeffs
    return HarmonicCoefficients(coeffs.radius, coeffs.n_max,
                                _cap_frame(coeffs.data, points.rotation))


# ---------------------------------------------------------------------------
# blocked Legendre engine (orthonormal, no Condon-Shortley)

# B_1^1 = A_1^1 / sin(theta) is constant; the diagonal and column recurrences
# for B coincide with those for A because dividing by sin(theta) commutes
# with both.
_B11 = math.sqrt(1.5) * _INV_SQRT_4PI

# Elements of one block of Legendre rows (orders x degrees x points), 1 MB.
_BLOCK_BUDGET = 1 << 17


@functools.lru_cache(maxsize=4)
def _recurrence_factors(n_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Factors of the upward recurrences to degree n_max, memoized read-only.

    Returns (sub, diag, a, b): A_{m+1}^m = sub[m] t A_m^m, the seeds
    B_{m+1}^{m+1} = diag[m] sin(theta) B_m^m, and for m <= n - 2
    A_n^m = a[n, m] t A_{n-1}^m - b[n, m] A_{n-2}^m (zero elsewhere). Each
    factor is one sqrt of exact integers or of one true division of exact
    integer products, so it has the bits of its scalar formula. No factor
    depends on n_max, so a table also serves every lower degree.
    """
    m = np.arange(n_max + 1)
    n = m[:, None]
    live = m <= n - 2
    den = np.where(live, (n - m) * (n + m), 1)
    a = np.sqrt(np.where(live, (2 * n + 1) * (2 * n - 1), 0) / den)
    b = np.sqrt(np.where(live, (2 * n + 1) * (n - 1 - m) * (n - 1 + m), 0)
                / np.where(live, (2 * n - 3) * den, 1))
    factors = (np.sqrt(2 * m + 3.0), np.sqrt((2 * m + 3) / (2 * m + 2)), a, b)
    for f in factors:
        f.flags.writeable = False
    return factors


def _legendre_blocks(n_max: int, ct: np.ndarray, st: np.ndarray):
    """Yield (lo, block) for consecutive blocks of orders m = lo..hi - 1.

    block[m - lo, n - lo, j] holds degree n of order m at point j of the
    raveled ct: A_n^0 for m = 0 and the reduced rows B_n^m = A_n^m /
    sin(theta) for m >= 1, which stay finite at the poles and give back
    A_n^m = sin(theta) B_n^m. Entries with n < m are exactly 0.0, so a
    block multiplies whole against coefficients laid out by degree. The
    recurrence runs degree-major: each step in n updates every order of a
    block at once. A block is as many orders as fit, over all n_max + 1
    degrees and every point, in _BLOCK_BUDGET elements, and at least one.
    Grids and single points get wide blocks; large sets of loose points
    get one order per block, the plain per-order recurrence. Every element
    takes the same floating-point operations whatever the width. Each block
    is built only when it is asked for, so a consumer that folds blocks as
    they arrive holds one at a time.
    """
    ct, st = np.ravel(ct), np.ravel(st)
    sub, diag, a, b = _recurrence_factors(n_max | 63)  # one table per 64 degrees
    width = max(1, _BLOCK_BUDGET // ((n_max + 1) * max(1, ct.size)))
    seed = np.full(ct.shape, _INV_SQRT_4PI)  # A_0^0, then B_m^m
    for lo in range(0, n_max + 1, width):
        hi = min(lo + width, n_max + 1)
        block = np.empty((hi - lo, n_max + 1 - lo, ct.size))
        for m in range(lo, hi):
            block[m - lo, : m - lo] = 0.0
            block[m - lo, m - lo] = seed
            if m < n_max:
                block[m - lo, m - lo + 1] = sub[m] * ct * seed
            seed = np.full(ct.shape, _B11) if m == 0 else diag[m] * st * seed
        for n in range(lo + 2, n_max + 1):
            j = min(hi, n - 1) - lo  # orders lo .. lo + j - 1 have m <= n - 2
            row = block[:j, n - lo]
            np.multiply(a[n, lo:lo + j, None], ct, out=row)
            row *= block[:j, n - lo - 1]
            row -= b[n, lo:lo + j, None] * block[:j, n - lo - 2]
        yield lo, block


def _legendre_orders(n_max: int, ct: np.ndarray, st: np.ndarray):
    """Yield (m, rows) for m = 0..n_max, rows[j] holding degree n = m + j.

    The per-order view of _legendre_blocks: rows are views into its blocks,
    shaped (n_max + 1 - m,) + ct.shape, and bit-identical to the per-order
    recurrence.
    """
    shape = np.shape(ct)
    for lo, block in _legendre_blocks(n_max, ct, st):
        for i, rows in enumerate(block):
            yield lo + i, rows[i:].reshape((n_max + 1 - lo - i,) + shape)


def _order_index(n_max: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Degrees n = m..n_max and the flat indices of their cos- and sin-type
    coefficients of order m (the sin indices are meaningless for m = 0)."""
    n = np.arange(m, n_max + 1)
    return n, n * n + m, n * n + n + m


def _theta_factor(n: np.ndarray, m: int) -> np.ndarray:
    """e_nm in sin(theta) dA_n^m/dtheta = n t A_n^m - e_nm A_{n-1}^m."""
    return np.sqrt((n * n - m * m) * (2 * n + 1) / (2 * n - 1))


def _direction_angles(points) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(ct, st, cos phi, sin phi) of directions, one axis over them, safe at
    the poles.

    points is an array of 3-vectors, each of which must be finite and
    nonzero. The directions are normalized first: nodes of a rotated grid
    miss unit length by a few ulps, and ct = z, st = hypot(x, y) taken from
    them directly cost degree-110 values a digit.
    """
    pts = np.asarray(points, dtype=float)
    if pts.shape[-1:] != (3,) or not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite nonzero 3-vectors")
    pts = pts.reshape(-1, 3)
    norm = np.linalg.norm(pts, axis=-1, keepdims=True)
    if not np.all(norm > 0):
        raise ValueError("points must be finite nonzero 3-vectors")
    pts = pts / norm
    ct = np.clip(pts[:, 2], -1.0, 1.0)
    st = np.hypot(pts[:, 0], pts[:, 1])
    safe = np.where(st > 0, st, 1.0)
    cp = np.where(st > 0, pts[:, 0] / safe, 1.0)
    sp = np.where(st > 0, pts[:, 1] / safe, 0.0)
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


def _azimuth(lo: int, hi: int, phis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos(m phi) and sin(m phi) for m = lo..hi - 1, shape (hi - lo, len(phis))."""
    mphi = np.outer(np.arange(lo, hi), phis)
    return np.cos(mphi), np.sin(mphi)


def _product_axes(points):
    """(colatitude cosines, azimuths) of a grid's product rule, in the cap's
    own frame for a CapGrid, or None for loose directions."""
    if isinstance(points, SphereGrid):
        return points.ct, points.phis
    if isinstance(points, CapGrid):
        return points.t_nodes, points.phis
    return None


def _synthesis(blocks, coeffs, points, azimuth=None):
    """Sum amplitudes over azimuth, on a product grid or at points.

    blocks(coeffs, ct, st) yields (lo, a, b) for consecutive blocks of
    orders, in ascending order: a and b have shape (..., w, P), the
    amplitudes of orders m = lo..lo + w - 1 (leading axes over channels,
    the last over the colatitudes), and the field is
    sum_m a_m cos(m phi) + b_m sin(m phi). A grid needs the amplitudes only
    on its colatitude axis; it joins the blocks (at most n_max + 1 orders
    by its colatitudes) and sums them with one matrix product against the
    azimuth factors (built here unless given as _azimuth(0, coeffs.n_max + 1,
    phis)). On a CapGrid both axes are in the cap's own frame, so coeffs
    must already be turned into it (_cap_frame). At loose directions each
    block is folded as it arrives, against cos(m phi) and sin(m phi) of its
    own orders, so no more than one block of orders is held. Returns the
    values (last axes over the grid's colatitudes and azimuths, or over the
    points) and (ct, st, cos phi, sin phi) broadcastable against them, in
    the frame the values were summed in.
    """
    axes = _product_axes(points)
    if axes is None:
        ct, st, cp, sp = _direction_angles(_as_directions(points))
        phi = np.arctan2(sp, cp)
        vals = 0.0
        for lo, a, b in blocks(coeffs, ct, st):
            cos_m, sin_m = _azimuth(lo, lo + a.shape[-2], phi)
            vals = vals + (a * cos_m).sum(axis=-2) + (b * sin_m).sum(axis=-2)
        return vals, (ct, st, cp, sp)
    ct, phis = axes
    st = np.sqrt(np.maximum(0.0, 1.0 - ct * ct))
    _, a, b = zip(*blocks(coeffs, ct, st))
    a, b = np.concatenate(a, axis=-2), np.concatenate(b, axis=-2)
    cos_m, sin_m = _azimuth(0, coeffs.n_max + 1, phis) if azimuth is None else azimuth
    vals = np.swapaxes(a, -1, -2) @ cos_m + np.swapaxes(b, -1, -2) @ sin_m
    return vals, (ct[:, None], st[:, None], np.cos(phis), np.sin(phis))


@functools.lru_cache(maxsize=8)
def _scalar_slots(n_max: int) -> np.ndarray:
    """Flat slots of a degree-n_max field in the layout of its Legendre
    blocks: [m, 0, n] is the cos-type coefficient of degree n and order m,
    [m, 1, n] the sin-type one. Slots with n < m, and the sin-type ones of
    order 0, are (n_max + 1)^2, one past the field: a zero is appended
    there before reading, and a write there is dropped. Block lo..hi - 1
    takes [lo:hi, :, lo:]. Memoized and read-only."""
    m = np.arange(n_max + 1)[:, None]
    n = np.arange(n_max + 1)[None, :]
    pad = (n_max + 1) ** 2
    cos_i = np.where(n >= m, n * n + m, pad)
    sin_i = np.where((n >= m) & (m > 0), n * n + n + m, pad)
    slots = np.stack([cos_i, sin_i], axis=1)
    slots.flags.writeable = False
    return slots


def _scalar_blocks(coeffs: HarmonicCoefficients, ct: np.ndarray, st: np.ndarray,
                   table=None):
    """Amplitude blocks of a scalar field for _synthesis.

    Each block of Legendre rows takes one product with the coefficients
    gathered through _scalar_slots, giving the cos- and sin-type amplitudes
    of its orders at once; orders m >= 1 are then multiplied by
    sqrt(2) sin(theta). table, when given, holds the (lo, block) pairs that
    _legendre_blocks yields for coeffs.n_max at ct, read instead of running
    the recurrence.
    """
    n_max = coeffs.n_max
    padded = np.append(coeffs.data, 0.0)
    slots = _scalar_slots(n_max)
    scale = _SQRT2 * np.ravel(st)
    for lo, block in _legendre_blocks(n_max, ct, st) if table is None else table:
        amp = padded[slots[lo:lo + block.shape[0], :, lo:]] @ block
        amp[1 if lo == 0 else 0:] *= scale
        yield lo, amp[:, 0], amp[:, 1]


def _azimuth_sums(values: np.ndarray, grid: SphereGrid, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature-weighted sums of grid samples against cos(m phi), sin(m phi).

    values has last axes (colatitude, azimuth); the sums have last axes
    (colatitude, m). The weights carry radius^2 and one 1/radius for the
    basis factor. This is the transpose of the grid step of _synthesis.
    """
    cos_m, sin_m = _azimuth(0, n_max + 1, grid.phis)
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

    Runs the blocked Legendre engine: each block of orders takes one
    batched matrix product of the coefficients with its Legendre rows
    (_scalar_blocks). Grids evaluate the rows on their colatitude axis only
    and sum the orders with one azimuth matrix product. A cap off the pole
    does so in its own frame, on coefficients turned into it degree by
    degree; at loose directions each block is folded against cos(m phi),
    sin(m phi) point by point as it arrives. A single direction gives a
    float, a grid one value per node. Points must be finite nonzero
    3-vectors (ValueError otherwise).
    """
    vals, _ = _synthesis(_scalar_blocks, _in_cap_frame(coeffs, points), points)
    out = np.reshape(vals / coeffs.radius, _leading_shape(points))
    return float(out) if out.ndim == 0 else out


def _grid_synthesis(grid: SphereGrid | CapGrid, n_max: int):
    """synthesize on one grid for many fields, with the Legendre rows built once.

    Returns a function of the coefficients that gives synthesize(coeffs,
    grid) bit for bit. Every block of _legendre_blocks for degree n_max (on
    the colatitude axis only, in a cap's own frame) and the azimuth factors
    are built here and kept, unlike in synthesize, which drops each block
    once its orders are summed; a field of that degree is turned into the
    cap's frame as synthesize turns it and takes the same per-block
    products with the stored blocks. Fields of another degree go to
    synthesize.
    """
    ct, phis = _product_axes(grid)
    st = np.sqrt(np.maximum(0.0, 1.0 - ct * ct))
    stored_blocks = functools.partial(
        _scalar_blocks, table=tuple(_legendre_blocks(n_max, ct, st)))
    azimuth = _azimuth(0, n_max + 1, phis)

    def run(coeffs: HarmonicCoefficients) -> np.ndarray:
        if coeffs.n_max != n_max:
            return synthesize(coeffs, grid)
        vals, _ = _synthesis(stored_blocks, _in_cap_frame(coeffs, grid), grid, azimuth)
        return np.reshape(vals / coeffs.radius, (grid.n_nodes,))

    return run


def analyze(samples: np.ndarray, grid: SphereGrid, n_max: int) -> HarmonicCoefficients:
    """Coefficients of a sampled field by exact quadrature.

    Requires grid.exact_degree >= 2 * n_max so products of the field with any
    basis function of degree <= n_max integrate exactly when the field itself
    is bandlimited to n_max. The transpose of grid synthesis: azimuth sums
    first, times sqrt(2) sin(theta) for orders m >= 1, then one batched
    product of each block of Legendre rows with the sums of its orders,
    scattered to the flat layout through _scalar_slots.
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
    cols = np.stack([tc.T, ts.T], axis=-1)  # (order, colatitude, cos/sin)
    cols[1:] *= (_SQRT2 * st)[:, None]
    slots = _scalar_slots(n_max)
    out = np.empty((n_max + 1) ** 2 + 1)
    for lo, block in _legendre_blocks(n_max, grid.ct, st):
        hi = lo + block.shape[0]
        out[slots[lo:hi, :, lo:]] = np.swapaxes(block @ cols[lo:hi], -1, -2)
    return HarmonicCoefficients(grid.radius, n_max, out[:-1])


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
