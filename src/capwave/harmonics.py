"""Real scalar and vector spherical harmonics, their coefficient containers,
exact quadrature grids, and the Legendre engine every transform runs on.

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
- A gradient field restricted to a sphere splits into a radial pattern
  (type 1, xi times a scalar harmonic) and a tangential surface-gradient
  pattern (type 2). Its coefficients are the (2, L) stack
  data[i - 1, n^2 + k - 1] of VectorCoefficients: one row per type, each
  in the scalar flat layout, with data[1, 0] zero since type 2 starts at
  degree 1; the engine reads the stack as it is. Its synthesis and
  analysis use the reduced rows
  B_n^m = A_n^m / sin(theta) for m >= 1, so every channel stays finite at
  the poles: the radial values are sin(theta) B_n^m, the colatitude
  derivative is n t B_n^m - e_nm B_{n-1}^m, the azimuthal one m B_n^m, and
  for m = 0 the colatitude derivative of A_n^0 is
  -sqrt(n(n+1)) sin(theta) B_n^1. Basis values at |xi_3| = 1 are the
  correct limits without a special branch.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .legendre import _as_index, gauss_rule

__all__ = [
    "HarmonicCoefficients",
    "VectorCoefficients",
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


@dataclass(eq=False)
class _Coefficients:
    """What both coefficient containers share: a radius, a degree n_max and
    data of shape channels + (L,), L = (n_max + 1)^2, each row in the flat
    layout of HarmonicCoefficients. The Euclidean norm of data equals the
    L2 surface norm of the field. case names the field kind with
    Geometry.case's values.
    """

    radius: float
    n_max: int
    data: np.ndarray = field(default=None)
    channels = ()

    def __post_init__(self):
        _check_sphere_radius(self.radius)
        self.n_max = _as_index(self.n_max, "n_max")
        if self.n_max < 0:
            raise ValueError("n_max must be >= 0")
        shape = self.channels + ((self.n_max + 1) ** 2,)
        if self.data is None:
            self.data = np.zeros(shape)
        else:
            self.data = np.asarray(self.data, dtype=float)
            if self.data.shape != shape:
                raise ValueError(
                    f"data must have shape {shape} for n_max={self.n_max}"
                )

    def l2_norm(self) -> float:
        """L2(sphere) norm of the represented field."""
        return float(np.linalg.norm(self.data))

    def copy(self):
        return type(self)(self.radius, self.n_max, self.data.copy())

    def scaled_by_degree(self, factors: np.ndarray, radius: float | None = None):
        """New container with degree n multiplied by factors[..., n]: of
        every row for one factor per degree, of row i for a (types,
        degrees) table's row i."""
        return type(self)(
            self.radius if radius is None else radius, self.n_max,
            _per_coefficient(factors, self.n_max) * self.data,
        )


class HarmonicCoefficients(_Coefficients):
    """Flat real coefficient store for a scalar field on a sphere.

    data[n^2 + k - 1] holds c(n,k). The layout keeps whole degrees
    contiguous so degree-wise multipliers are cheap slices.
    """

    case = "scalar"

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


class VectorCoefficients(_Coefficients):
    """Real coefficient store for a two-type vector field on a sphere.

    data is the (2, L) stack the engine reads: data[i - 1, n^2 + k - 1]
    holds c_i(n,k), type 1 (radial pattern) in row 0 and type 2
    (surface-gradient pattern) in row 1, each in the scalar flat layout.
    Type 2 starts at degree 1, so data[1, 0] is a structural zero, and
    data with anything else there is rejected.
    """

    channels = (2,)
    case = "vector"

    def __post_init__(self):
        super().__post_init__()
        if self.data[1, 0] != 0.0:
            raise ValueError("data[1, 0] must be 0: type 2 starts at degree 1")

    def _index(self, i: int, n: int, k: int) -> tuple[int, int]:
        if i not in (1, 2):
            raise ValueError("type i must be 1 or 2")
        lo = 0 if i == 1 else 1
        if not (lo <= n <= self.n_max):
            raise ValueError(f"degree n={n} outside {lo}..{self.n_max} for type {i}")
        if not (1 <= k <= 2 * n + 1):
            raise ValueError(f"order k={k} outside 1..{2 * n + 1} for n={n}")
        return i - 1, n * n + k - 1

    def coeff(self, i: int, n: int, k: int) -> float:
        return float(self.data[self._index(i, n, k)])

    def set_coeff(self, i: int, n: int, k: int, value: float) -> None:
        self.data[self._index(i, n, k)] = value


def _check_sphere_radius(radius: float) -> None:
    if not 0.0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, not {radius!r}")


def _per_coefficient(factors, n_max: int) -> np.ndarray:
    """factors[..., n] repeated over the 2n+1 flat slots of degree n,
    n = 0..n_max, along the last axis: one row per type of a
    (types, degrees) table."""
    factors = np.asarray(factors, dtype=float)
    if factors.shape[-1] < n_max + 1:
        raise ValueError("need one factor per degree")
    return np.repeat(factors[..., : n_max + 1], 2 * np.arange(n_max + 1) + 1, axis=-1)


def sobolev_norm(coeffs, s: float) -> float:
    """Norm with degree weights (n + 1/2)^(2s) on squared coefficients, of
    every row of data: both types of a gradient field."""
    if s < 0:
        raise ValueError("s must be >= 0")
    n = np.arange(coeffs.n_max + 1)
    weights = _per_coefficient((n + 0.5) ** (2 * s), coeffs.n_max)
    return math.sqrt(float(np.sum((coeffs.data * coeffs.data) @ weights)))


# ---------------------------------------------------------------------------
# quadrature grids


def _freeze_arrays(grid, names: tuple[str, ...]) -> None:
    """Give a frozen grid private read-only float copies of its arrays, so
    neither a caller's array nor a write through the grid can change it."""
    for name in names:
        arr = np.array(getattr(grid, name), dtype=float)
        arr.flags.writeable = False
        object.__setattr__(grid, name, arr)


@dataclass(frozen=True, eq=False)
class SphereGrid:
    """Gauss-colatitude x uniform-longitude product rule on a full sphere.

    Exact for spherical polynomials of degree <= exact_degree. Nodes are
    unit directions ordered colatitude-major; weights include radius^2.
    The transforms read Legendre rows on the northern half of the
    colatitude axis only, so ct must be mirrored about the equator bit for
    bit, np.array_equal(ct, -ct[::-1]), as sphere_grid builds it; a grid
    built otherwise raises ValueError in synthesize and analyze. A grid is
    immutable: it holds private read-only copies of its arrays, so samples
    on it can keep their analysis and sphere_grid can share it.
    """

    radius: float
    exact_degree: int
    nodes: np.ndarray
    weights: np.ndarray
    ct: np.ndarray       # Gauss nodes in t = cos(theta), ascending
    ct_weights: np.ndarray
    phis: np.ndarray

    def __post_init__(self):
        _freeze_arrays(self, ("nodes", "weights", "ct", "ct_weights", "phis"))

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    def integrate(self, values: np.ndarray) -> float:
        return float(self.weights @ np.asarray(values, dtype=float))


@dataclass(frozen=True, eq=False)
class CapGrid:
    """Rotated product rule on the spherical cap 1 - center.xi <= cap_rho.

    Exact for restrictions of spherical polynomials of degree <=
    exact_degree E: Gauss nodes in t = center.xi times E + 1 uniform
    azimuths in the cap's own frame. Weights include radius^2 and sum to
    the cap area 2 pi cap_rho radius^2. The nodes are those of the same
    rule at the north pole times rotation.T, in the same order, so every
    cap is a product grid in its own frame. Immutable, with private
    read-only copies of its arrays, as SphereGrid.
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

    def __post_init__(self):
        _freeze_arrays(self, ("center", "nodes", "weights", "t_nodes", "t_weights",
                              "phis", "rotation"))

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    def integrate(self, values: np.ndarray) -> float:
        return float(self.weights @ np.asarray(values, dtype=float))


@functools.lru_cache(maxsize=4, typed=True)  # typed: 4.0 raises though 4 is kept
def sphere_grid(radius: float, exact_degree: int) -> SphereGrid:
    """Full-sphere rule with (L+1) x (2L+1) nodes, L = ceil(exact_degree/2).

    The last 4 grids asked are kept and shared: a grid is immutable, and a
    study samples every field on the same one.
    """
    _check_sphere_radius(radius)
    exact_degree = _as_index(exact_degree, "exact_degree")
    if exact_degree < 0:
        raise ValueError("exact_degree must be >= 0")
    L = (exact_degree + 1) // 2
    ct, cw = gauss_rule(L + 1, -1.0, 1.0)
    phis, nodes, weights = _product_rule(ct, cw, 2 * L + 1, radius)
    return SphereGrid(radius, exact_degree, nodes, weights, ct, cw, phis)


def _product_rule(t: np.ndarray, tw: np.ndarray, n_phi: int, radius: float) -> tuple:
    """(phis, nodes, weights) of Gauss nodes t in cos(colatitude), weights
    tw, times n_phi uniform azimuths about the north pole: unit nodes
    ordered colatitude-major, weights times radius^2."""
    phis = 2.0 * np.pi * np.arange(n_phi) / n_phi
    st = np.sqrt(np.maximum(0.0, 1.0 - t * t))
    nodes = np.empty((t.size * n_phi, 3))
    nodes[:, 0] = np.outer(st, np.cos(phis)).ravel()
    nodes[:, 1] = np.outer(st, np.sin(phis)).ravel()
    nodes[:, 2] = np.repeat(t, n_phi)
    weights = np.repeat(tw, n_phi) * (2.0 * np.pi / n_phi) * radius * radius
    return phis, nodes, weights


def _rotation_from_north(center: np.ndarray) -> np.ndarray:
    """Rotation matrix taking e3 to the unit vector center.

    The axis-angle formula leaves r r^T - I as large as 1.8e-15 for
    centres south of the equator (5.6e-16 north of it; 20,000 random
    centres). A cap's nodes are its polar twin's times this matrix, while
    its frame (_cap_frame) can only turn by a true rotation, so at degree
    110 that gap alone cost synthesis on the cap up to half a digit. One
    Newton-Schulz step takes the largest entry of r r^T - I to 4.4e-16.
    """
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
    r = np.eye(3) + s * K + (1.0 - cz) * (K @ K)
    return r @ (3.0 * np.eye(3) - r.T @ r) / 2.0


def cap_grid(radius: float, center, cap_rho: float, exact_degree: int) -> CapGrid:
    """Cap rule: Gauss in t on [1-cap_rho, 1] x uniform azimuth, rotated to center.

    A polynomial of degree E = exact_degree has azimuthal modes |m| <= E in
    the cap's own frame, so (E+2)//2 Gauss nodes in t times E + 1 uniform
    azimuths integrate it exactly. cap_rho may equal 2, in which case the
    rule covers the full sphere (the degenerate cap).
    """
    _check_sphere_radius(radius)
    if not (0.0 < cap_rho <= 2.0):
        raise ValueError("cap_rho must lie in (0, 2]")
    exact_degree = _as_index(exact_degree, "exact_degree")
    if exact_degree < 0:
        raise ValueError("exact_degree must be >= 0")
    t, tw = gauss_rule((exact_degree + 2) // 2, 1.0 - cap_rho, 1.0)
    phis, local, weights = _product_rule(t, tw, exact_degree + 1, radius)
    rot = _rotation_from_north(center)
    return CapGrid(radius, rot @ np.array([0.0, 0.0, 1.0]), cap_rho, exact_degree,
                   local @ rot.T, weights, t, tw, phis, rot)


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
    """J_n (or J_n^T) applied to every degree n >= 1 of flat coefficients.
    The fields of a stack take their matrix products one at a time: one
    product broadcast over them is slower than a loop, and its bits could
    depend on the stack."""
    if data.ndim > 1:
        flat = data.reshape(-1, data.shape[-1])
        return np.stack([_quarter_turns(f, inverse) for f in flat]).reshape(data.shape)
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
    # take, not data[..., partner]: the fancy index is ten times slower on a stack
    return data * np.cos(turn)[m] + sign * np.sin(turn)[m] * np.take(data, partner, axis=-1)


def _cap_frame(data: np.ndarray, rotation: np.ndarray) -> np.ndarray:
    """Coefficients of f o rotation from those of f, degree by degree.

    The last axis of data is the flat layout; leading axes hold independent
    fields. Synthesized at a node x of a polar cap, the result gives f at
    rotation @ x, the matching node of the cap rotation carries there. With
    rotation = Rz(alpha) Ry(beta) Rz(gamma) and Ry(beta) = Q Rz(beta) Q^T,
    the result is Z(gamma) J^T Z(beta) J Z(alpha) data, where Z(a) is
    _turn_z and J is _quarter_turn. The angles come from the matrix, so the
    half-turn south-pole frame works too; the identity returns data itself.
    A stack of k fields costs no more than k fields turned alone, and each
    field keeps the bits it has alone.

    Synthesis through this turn is the least accurate grid path at high
    degree: degree-110 fields on caps off the pole match an independent
    quadrature to 1.5e-13 of their largest value (up to 1.13e-13 measured
    at exactness 220, scalar and vector), against 1.4e-14 on the polar cap
    and about 2e-14 at the same nodes taken as loose points.
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


# ---------------------------------------------------------------------------
# tiled Legendre engine (orthonormal, no Condon-Shortley)

# B_1^1 = A_1^1 / sin(theta) is constant; the diagonal and column recurrences
# for B coincide with those for A because dividing by sin(theta) commutes
# with both.
_B11 = math.sqrt(1.5) * _INV_SQRT_4PI

# Elements of one tile of Legendre rows (orders x degrees x points), 1 MB.
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


def _legendre_blocks(n_max: int, ct: np.ndarray, st: np.ndarray, cut: int | None = None):
    """Yield (lo, n0, tile) for consecutive tiles of the Legendre rows.

    tile[m - lo, n - n0, j] holds degree n of order m at point j of the
    raveled ct: A_n^0 for m = 0 and the reduced rows B_n^m = A_n^m /
    sin(theta) for m >= 1, which stay finite at the poles and give back
    A_n^m = sin(theta) B_n^m. A tile covers the orders lo..hi - 1 of one
    range and a chunk of degrees n0..n1 - 1, trimmed to the orders below
    n1 (the others are zero there); entries with n < m are exactly 0.0, so
    a tile multiplies whole against coefficients laid out by degree. The
    recurrence runs degree-major: each step in n updates every order of a
    tile at once, carrying the last two degrees from tile to tile. A tile
    is a view of an array stored degree by degree, so each step is one
    contiguous pass over the orders of its degree. One width rule picks
    the tiling. While one degree of every order fits in _BLOCK_BUDGET
    elements (grid axes, single points, small point sets), one range holds
    all orders and each tile as many degrees as fit. Otherwise (large sets
    of loose points, where the tiles of all orders run slower) each range
    is one order m = lo with all its degrees in one tile, n0 = lo: the
    plain per-order recurrence. The tiles of a range come in ascending
    degree chunks, the last one reaching n_max. Every element takes the
    same floating-point operations whatever the tiling. Each tile is built
    only when it is asked for, so a consumer that folds tiles as they
    arrive holds one at a time. The width rule is applied at degree cut,
    n_max unless given: a stored axis (_axis_tiles) fixes it, so that its
    tiles of a lower degree are sub-blocks of those of a higher one, and
    _cap_factor passes _BLOCK_BUDGET to take one order per tile.
    """
    ct, st = np.ravel(ct), np.ravel(st)
    sub, diag, a, b = _recurrence_factors(n_max | 63)  # one table per 64 degrees
    cut = n_max if cut is None else cut
    chunk = _BLOCK_BUDGET // ((cut + 1) * max(1, ct.size))
    width, chunk = (cut + 1, chunk) if chunk else (1, cut + 1)
    seed = np.full(ct.shape, _INV_SQRT_4PI)  # A_0^0, then B_m^m
    prev = prev2 = None  # rows of degrees n - 1 and n - 2 of the current range
    for lo in range(0, n_max + 1, width):
        hi = min(lo + width, n_max + 1)
        for n0 in range(lo, n_max + 1, chunk):
            n1 = min(n0 + chunk, n_max + 1)
            rows = np.empty((n1 - n0, min(hi, n1) - lo, ct.size))  # degree-major
            for n in range(n0, n1):
                row = rows[n - n0]
                j = min(hi, n - 1) - lo  # orders lo .. lo + j - 1 have m <= n - 2
                if j > 0:
                    step = row[:j]
                    np.multiply(a[n, lo:lo + j, None], ct, out=step)
                    step *= prev[:j]
                    step -= b[n, lo:lo + j, None] * prev2[:j]
                if lo < n <= hi:  # order n - 1 starts from its seed
                    row[n - 1 - lo] = sub[n - 1] * ct * prev[n - 1 - lo]
                if n < hi:
                    row[n - lo] = seed
                    row[n + 1 - lo:] = 0.0
                    seed = np.full(ct.shape, _B11) if n == 0 else diag[n] * st * seed
                prev2, prev = prev, row
            yield lo, n0, rows.transpose(1, 0, 2)


def _direction_angles(points) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(ct, st, cos phi, sin phi) of directions, one axis over them, safe at
    the poles.

    points is an array of 3-vectors, each of which must be finite and
    nonzero. The directions are normalized first (_unit_directions): nodes
    of a rotated grid miss unit length by a few ulps, and ct = z, st =
    hypot(x, y) taken from them directly cost degree-110 values a digit.
    """
    pts = _unit_directions(points)
    ct = np.clip(pts[:, 2], -1.0, 1.0)
    st = np.hypot(pts[:, 0], pts[:, 1])
    safe = np.where(st > 0, st, 1.0)
    cp = np.where(st > 0, pts[:, 0] / safe, 1.0)
    sp = np.where(st > 0, pts[:, 1] / safe, 0.0)
    return ct, st, cp, sp


def _unit_directions(points) -> np.ndarray:
    """points, an array of 3-vectors, as an (n, 3) array of unit vectors.
    Raises ValueError before any norm divides unless every point is a
    finite nonzero 3-vector."""
    pts = np.asarray(points, dtype=float)
    if pts.shape[-1:] != (3,) or not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite nonzero 3-vectors")
    pts = pts.reshape(-1, 3)
    norm = np.linalg.norm(pts, axis=-1, keepdims=True)
    if not np.all(norm > 0):
        raise ValueError("points must be finite nonzero 3-vectors")
    return pts / norm


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


@functools.lru_cache(maxsize=8)
def _azimuth_table(n_phi: int, top: int) -> tuple[np.ndarray, np.ndarray]:
    """_azimuth(0, top + 1, phis) on the n_phi grid azimuths phis =
    2 pi k / n_phi, memoized read-only."""
    table = _azimuth(0, top + 1, 2.0 * np.pi * np.arange(n_phi) / n_phi)
    for t in table:
        t.flags.writeable = False
    return table


def _grid_azimuth(n_max: int, phis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_azimuth(0, n_max + 1, phis) for a grid's azimuths, sliced bit for bit
    from one table per azimuth count, built to order n_max | 63."""
    cos_m, sin_m = _azimuth_table(phis.size, n_max | 63)
    return cos_m[:n_max + 1], sin_m[:n_max + 1]


# Half-axis Legendre tiles of the last sphere-grid axis used, keyed by
# that axis (_axis_tiles)
_AXIS_TILES: dict[bytes, tuple[int, tuple]] = {}


def _axis_tiles(grid: SphereGrid, n_max: int) -> tuple:
    """The (lo, n0, tile) triples of _legendre_blocks to degree n_max on the
    northern half of a sphere grid's colatitude axis, ct[J // 2:] of its J
    colatitudes (the equator included when J is odd).

    Gauss nodes on a sphere grid are mirror images bit for bit, and so are
    the rows: row(-t) = (-1)^(n+m) row(t), so these tiles serve the whole
    axis (_range_sums, _fold_sums). A grid whose ct is not mirrored raises
    ValueError. One entry is kept for the process, that of the last axis
    used; another axis replaces it. It is built to the highest degree asked
    so far on its axis, and a lower degree reads a sub-block of it, since
    no recurrence factor depends on n_max. The tiles are cut as for degree
    J - 1 whatever the degree, so the sub-block has the tiles and the bits
    a fresh entry of that degree would have. Read-only. An entry of degree
    N holds at most 4 ceil(J / 2) (N + 1)(N + c + 1) bytes, c the degrees
    per tile: 3.26 MB for 111 colatitudes at degree 110. Nothing else
    limits it, so it grows as J N^2: about 250 MB for a degree-500 grid,
    held until another axis is used.
    """
    ct = grid.ct
    if not np.array_equal(ct, -ct[::-1]):
        raise ValueError("SphereGrid colatitudes must be mirrored about the "
                         "equator (ct == -ct[::-1])")
    key = ct.tobytes()
    top, tiles = _AXIS_TILES.get(key, (-1, ()))
    if top < n_max:
        _AXIS_TILES.clear()
        half = ct[ct.size // 2:]
        st = np.sqrt(np.maximum(0.0, 1.0 - half * half))
        top, tiles = n_max, tuple(_legendre_blocks(n_max, half, st, ct.size - 1))
        for _, _, tile in tiles:
            tile.flags.writeable = False
        _AXIS_TILES[key] = top, tiles
    return tuple((lo, n0, tile[:n_max + 1 - lo, :n_max + 1 - n0])
                 for lo, n0, tile in tiles if n0 <= n_max)


@functools.lru_cache(maxsize=8)
def _mirror_signs(n_max: int) -> np.ndarray:
    """(-1)^(n+m) in the [m, channel, n] layout of the slot tables, one
    channel wide, memoized read-only."""
    m = np.arange(n_max + 1)
    signs = np.where((m[:, None, None] + m) % 2, -1.0, 1.0)
    signs.flags.writeable = False
    return signs


def _unfold(amp: np.ndarray, size: int) -> np.ndarray:
    """Amplitudes on a whole mirrored axis of size colatitudes from products
    over its northern half: the first half of the channels (axis -2) holds
    them there, the second at the mirror nodes."""
    c, half = amp.shape[-2] // 2, amp.shape[-1]
    south = amp[..., c:, ::-1][..., :size - half]
    return np.concatenate([south, amp[..., :c, :]], axis=-1)


def _fold_sums(cols: np.ndarray, tiles, n_max: int):
    """Yield (tab, part) per tile of _axis_tiles, the transpose of
    _range_sums: part[i, c, k] is the sum over the whole mirrored axis of
    cols[lo + i, c, :] times the row of order lo + i and degree n0 + k,
    and tab the tile's [orders, :, degrees] slice of an (order, channel,
    degree) table. cols holds an analysis's columns, [order, channel,
    colatitude] with the colatitudes ascending. They are folded onto the
    northern half first, north + south for rows of even n + m and north -
    south for odd ones, an equator node counted once, so each product runs
    over the half axis only.
    """
    size, c = cols.shape[-1], cols.shape[-2]
    half = (size + 1) // 2
    south = cols[..., :size - half][..., ::-1]  # mirror of north[..., 2 half - size:]
    folded = np.concatenate([cols[..., size - half:]] * 2, axis=-2)
    folded[..., :c, 2 * half - size:] += south
    folded[..., c:, 2 * half - size:] -= south
    del cols, south  # a caller's temporary columns die here
    odd = _mirror_signs(n_max) < 0
    for lo, n0, tile in tiles:
        w, d = tile.shape[:2]
        tab = np.s_[lo:lo + w, :, n0:n0 + d]
        part = folded[lo:lo + w] @ np.swapaxes(tile, -1, -2)
        yield tab, np.where(odd[tab], part[:, c:], part[:, :c])


def _product_axes(points):
    """(colatitude cosines, azimuths) of a grid's product rule, in the cap's
    own frame for a CapGrid, or None for loose directions."""
    if isinstance(points, SphereGrid):
        return points.ct, points.phis
    if isinstance(points, CapGrid):
        return points.t_nodes, points.phis
    return None


def _synthesis(blocks, n_max: int, points):
    """Sum amplitudes over azimuth, on a product grid or at points.

    blocks(ct, st, tiles, size=None) yields (lo, a, b) for consecutive
    blocks of orders, in ascending order, from the (lo, n0, tile) triples
    tiles of Legendre rows at ct (with size, those of _axis_tiles on the
    northern half of a sphere grid's size colatitudes): a and b have shape
    (..., w, P), the amplitudes of orders m = lo..lo + w - 1 (leading axes
    over channels, the last over the colatitudes), and the field is
    sum_m a_m cos(m phi) + b_m sin(m phi). A grid needs the amplitudes only
    on its colatitude axis; it joins the blocks (at most n_max + 1 orders
    by its colatitudes) and sums them with one matrix product against the
    azimuth factors, sliced from the memoized table of its azimuth count
    (_grid_azimuth). A SphereGrid reads its stored half axis; a CapGrid
    streams fresh tiles, in the cap's own frame, so blocks must give the
    field turned into it (_cap_frame). At loose directions each block is
    folded as it arrives, against cos(m phi) and sin(m phi) of its own
    orders, so no more than one block of orders is held. Returns the
    values (last axes over the grid's colatitudes and azimuths, or over the
    points) and (ct, st, cos phi, sin phi) broadcastable against them, in
    the frame the values were summed in.
    """
    axes = _product_axes(points)
    if axes is None:
        ct, st, cp, sp = _direction_angles(_as_directions(points))
        phi = np.arctan2(sp, cp)
        vals = 0.0
        for lo, a, b in blocks(ct, st, _legendre_blocks(n_max, ct, st)):
            cos_m, sin_m = _azimuth(lo, lo + a.shape[-2], phi)
            vals = vals + (a * cos_m).sum(axis=-2) + (b * sin_m).sum(axis=-2)
        return vals, (ct, st, cp, sp)
    ct, phis = axes
    st = np.sqrt(np.maximum(0.0, 1.0 - ct * ct))
    if isinstance(points, SphereGrid):
        found = blocks(ct, st, _axis_tiles(points, n_max), ct.size)
    else:
        found = blocks(ct, st, _legendre_blocks(n_max, ct, st))
    _, a, b = zip(*found)
    a, b = np.concatenate(a, axis=-2), np.concatenate(b, axis=-2)
    cos_m, sin_m = _grid_azimuth(n_max, phis)
    vals = np.swapaxes(a, -1, -2) @ cos_m + np.swapaxes(b, -1, -2) @ sin_m
    return vals, (ct[:, None], st[:, None], np.cos(phis), np.sin(phis))


def _range_sums(gather, n_max: int, tiles, size: int | None = None):
    """Yield (lo, amp) once per range of orders of the tiles: amp[..., i,
    c, j] is the sum over the range's tiles of gather(tab)[..., i, c, :] @
    tile[i, :, j], one batched product per tile. gather takes the tile's
    [orders, :, degrees] slice tab of an (order, channel, degree) table and
    returns the coefficients in that layout, with the fields' leading axes.
    With size, the tiles hold the northern half of a mirrored axis of size
    colatitudes (_axis_tiles): each product also takes a copy of the
    coefficients signed by (-1)^(n+m), which gives the amplitudes at the
    mirror nodes, and amp covers the whole axis (_unfold).
    """
    signs = None if size is None else _mirror_signs(n_max)
    for lo, n0, tile in tiles:
        w, d = tile.shape[:2]
        tab = np.s_[lo:lo + w, :, n0:n0 + d]
        coeffs = gather(tab)
        if signs is not None:
            coeffs = np.concatenate([coeffs, coeffs * signs[tab]], axis=-2)
        part = coeffs @ tile
        if n0 > lo:  # a later chunk of the range: tiles only gain orders
            part[..., :amp.shape[-3], :, :] += amp
        amp = part
        if n0 + d == n_max + 1:
            yield lo, amp if size is None else _unfold(amp, size)


@functools.lru_cache(maxsize=8)
def _scalar_slots(n_max: int) -> np.ndarray:
    """Flat slots of a degree-n_max field in the layout of its Legendre
    tiles: [m, 0, n] is the cos-type coefficient of degree n and order m,
    [m, 1, n] the sin-type one. Slots with n < m, and the sin-type ones of
    order 0, are (n_max + 1)^2, one past the field: a zero is appended
    there before reading, and a write there is dropped. The tile of orders
    lo..hi - 1 and degrees n0..n1 - 1 takes [lo:hi, :, n0:n1]. Memoized and
    read-only."""
    m = np.arange(n_max + 1)[:, None]
    n = np.arange(n_max + 1)[None, :]
    pad = (n_max + 1) ** 2
    cos_i = np.where(n >= m, n * n + m, pad)
    sin_i = np.where((n >= m) & (m > 0), n * n + n + m, pad)
    slots = np.stack([cos_i, sin_i], axis=1)
    slots.flags.writeable = False
    return slots


def _scalar_blocks(data: np.ndarray, ct: np.ndarray, st: np.ndarray, tiles, size=None):
    """Amplitude blocks of scalar fields for _synthesis.

    data is flat coefficient data of degree n_max; a and b keep its leading
    axes. Each tile of Legendre rows in tiles takes one batched product
    with the coefficients gathered through _scalar_slots, giving the cos-
    and sin-type amplitudes of its orders over its degrees at once; the
    products of a range's tiles are summed (_range_sums, where size is
    explained), and once its last tile is in, orders m >= 1 are multiplied
    by sqrt(2) sin(theta) on the whole axis and the range is yielded.
    """
    n_max = math.isqrt(data.shape[-1]) - 1
    padded = np.concatenate([data, np.zeros(data.shape[:-1] + (1,))], axis=-1)
    slots = _scalar_slots(n_max)
    scale = _SQRT2 * np.ravel(st)
    for lo, amp in _range_sums(lambda tab: padded[..., slots[tab]], n_max, tiles, size):
        amp[..., 1 if lo == 0 else 0:, :, :] *= scale
        yield lo, amp[..., 0, :], amp[..., 1, :]


@functools.lru_cache(maxsize=8)
def _vector_slots(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat slots and weights of a gradient field's nine amplitude channels
    in the layout of its Legendre tiles, [m, channel, n]: a channel's
    amplitude is the sum over n of weight * coefficient * row.

    Slots index VectorCoefficients.data, the (2, L) stack of type-1 and
    type-2 coefficients, raveled, L = (n_max + 1)^2, with a zero appended
    at 2L; pad slots are 2L and weigh 0. With d = c2 / sqrt(n(n+1)) and
    orders m >= 1 weighed by sqrt(2), the channels are: 0, 1 the type-1
    cos and sin coefficients; 2, 3 n d; 4 m d_sin and 5 -m d_cos, the
    azimuth amplitudes; 6, 7 -e_{n+1,m} d_{n+1}, the lower term of the
    colatitude derivative with its degree shift taken in coefficient
    space, so no tile reads another; 8, on the order-1 rows B_n^1 only,
    -c2 of order 0, whose colatitude derivative is -sqrt(n(n+1))
    sin(theta) B_n^1. Memoized and read-only.
    """
    size = (n_max + 1) ** 2
    pad = 2 * size
    scalar = _scalar_slots(n_max)  # [m, cos/sin, n]
    m = np.arange(n_max + 1)[:, None, None]
    n = np.arange(n_max + 1)
    type1 = np.where(scalar < size, scalar, pad)
    type2 = np.where((scalar < size) & (m > 0), scalar + size, pad)
    r = np.where(type2 < pad, _SQRT2 / np.sqrt(np.maximum(n * (n + 1.0), 1.0)), 0.0)
    e = np.sqrt(np.maximum(((n + 1.0) ** 2 - m * m) * (2 * n + 3) / (2 * n + 1), 0.0))
    slots = np.full((n_max + 1, 9, n_max + 1), pad)
    weights = np.zeros(slots.shape)
    slots[:, 0:2], weights[:, 0:2] = type1, np.where(type1 < pad, np.where(m > 0, _SQRT2, 1.0), 0.0)
    slots[:, 2:4], weights[:, 2:4] = type2, n * r
    slots[:, 4:6], weights[:, 4:6] = type2[:, ::-1], m * r * [[1.0], [-1.0]]
    slots[:, 6:8, :-1], weights[:, 6:8, :-1] = type2[:, :, 1:], -e[..., :-1] * r[:, :, 1:]
    if n_max > 0:
        slots[1, 8, 1:], weights[1, 8, 1:] = size + n[1:] ** 2, -1.0
    slots.flags.writeable = weights.flags.writeable = False
    return slots, weights


def _vector_blocks(data: np.ndarray, ct: np.ndarray, st: np.ndarray, tiles, size=None):
    """Amplitude blocks of gradient fields for _synthesis.

    data is a (..., 2, L) stack of type-1 and type-2 coefficients in the
    scalar flat layout; a and b are (..., 3, w, P), leading axes kept, then
    the radial, colatitude and azimuth channels. Each tile of Legendre rows
    in tiles takes one batched product with the coefficients gathered and
    weighed through _vector_slots, and the products of a range's tiles are
    summed (_range_sums, where size is explained). Once its last tile is
    in, on the whole axis, the radial channel of orders m >= 1 is
    multiplied by sin(theta), the colatitude channel is t (n d) plus the
    lower term, and order 0's is sin(theta) times channel 8 of order 1.
    Where ranges are one order wide, order 0 waits for order 1's range and
    is yielded just before it.
    """
    n_max = math.isqrt(data.shape[-1]) - 1
    flat = data.reshape(data.shape[:-2] + (-1,))
    padded = np.concatenate([flat, np.zeros(flat.shape[:-1] + (1,))], axis=-1)
    slots, weights = _vector_slots(n_max)
    for lo, amp in _range_sums(lambda tab: padded[..., slots[tab]] * weights[tab],
                               n_max, tiles, size):
        w = amp.shape[-3]
        amp = np.moveaxis(amp, -2, -3)  # (..., channel, order, point)
        amp[..., 0:2, 1 if lo == 0 else 0:, :] *= st
        amp[..., 2:4, :, :] *= ct
        amp[..., 2:4, :, :] += amp[..., 6:8, :, :]
        if lo == 0:
            first = amp
        if lo <= 1 < lo + w:
            first[..., 2, 0, :] += st * amp[..., 8, 1 - lo, :]
        if lo == 1:
            yield 0, first[..., 0:6:2, :, :], first[..., 1:6:2, :, :]
        if lo + w > min(n_max, 1):
            yield lo, amp[..., 0:6:2, :, :], amp[..., 1:6:2, :, :]


def _azimuth_sums(values: np.ndarray, grid: SphereGrid, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature-weighted sums of grid samples against cos(m phi), sin(m phi).

    values has last axes (colatitude, azimuth); the sums have last axes
    (colatitude, m). The weights carry radius^2 and one 1/radius for the
    basis factor. This is the transpose of the grid step of _synthesis.
    """
    cos_m, sin_m = _grid_azimuth(n_max, grid.phis)
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


def synthesize(coeffs, points) -> np.ndarray:
    """Evaluate a field of either kind at unit directions, a SphereGrid, or
    a CapGrid. A scalar field gives one value per point (a float for a
    single direction), a gradient field (coeffs.case == "vector") one
    Cartesian 3-vector per point (shape (3,) for a single direction).

    Runs the tiled Legendre engine: each tile of rows takes one batched
    matrix product with the coefficients of its orders and degrees
    (_scalar_blocks; _vector_blocks on the radial, colatitude and azimuth
    channels at once). Grids evaluate the rows on their colatitude axis
    only, in tiles of every order and a chunk of degrees whose products are
    summed, and sum the orders with one azimuth matrix product. A
    SphereGrid reads the stored tiles of the northern half of its axis
    (_axis_tiles), and one product per tile also gives the mirror nodes;
    its ct must be mirrored (ValueError otherwise). A cap streams fresh
    tiles; off the pole it does so in its own frame, on coefficients
    turned into it degree by degree (_cap_frame), which holds degree-110
    values to 1.5e-13 of the largest one there, against 1.4e-14 on the
    polar cap. Both types of a gradient field turn by the same per-degree
    rotation, since each comes from Y_nk through a rotation-equivariant
    operator, and the vectors found there are mapped back with
    grid.rotation. At loose directions each range of orders is folded
    against cos(m phi), sin(m phi) point by point once its last tile is
    in; large point sets take one order per range. Points must be finite
    nonzero 3-vectors (ValueError otherwise).
    """
    rotation = points.rotation if isinstance(points, CapGrid) else None
    data = coeffs.data if rotation is None else _cap_frame(coeffs.data, rotation)
    if coeffs.case == "scalar":
        vals, _ = _synthesis(functools.partial(_scalar_blocks, data), coeffs.n_max, points)
        out = np.reshape(vals / coeffs.radius, _leading_shape(points))
        return float(out) if out.ndim == 0 else out
    (f_r, f_t, f_p), (ct, st, cp, sp) = _synthesis(
        functools.partial(_vector_blocks, data), coeffs.n_max, points)
    horiz = f_r * st + f_t * ct
    out = np.stack([horiz * cp - f_p * sp, horiz * sp + f_p * cp,
                    f_r * ct - f_t * st], axis=-1)
    if rotation is not None:
        out = out @ rotation.T
    return np.reshape(out / coeffs.radius, _leading_shape(points) + (3,))


def _vector_columns(values: np.ndarray, grid: SphereGrid, n_max: int, st: np.ndarray) -> np.ndarray:
    """Columns of the analysis of a gradient field, [m, channel, colatitude]:
    quadrature sums of the three spherical components against cos(m phi)
    and sin(m phi), times each channel's factor in synthesis. Its
    temporaries die before any tile."""
    ct = grid.ct
    v = values.reshape(ct.size, grid.phis.size, 3)
    cp, sp = np.cos(grid.phis), np.sin(grid.phis)
    horiz = v[..., 0] * cp + v[..., 1] * sp
    comps = np.stack([horiz * st[:, None] + v[..., 2] * ct[:, None],
                      horiz * ct[:, None] - v[..., 2] * st[:, None],
                      v[..., 1] * cp - v[..., 0] * sp])
    sums = np.array(_azimuth_sums(comps, grid, n_max))  # [cos/sin, component, colatitude, m]
    cols = np.empty((n_max + 1, 9, ct.size))
    cols[:, :6] = sums.transpose(3, 1, 0, 2).reshape(n_max + 1, 6, ct.size)
    cols[:, 6:8] = cols[:, 2:4]
    cols[:, 2:4] *= ct
    cols[1:, 0:2] *= st
    cols[:, 8] = st * cols[0, 6]
    return cols


def analyze(samples: np.ndarray, grid: SphereGrid, n_max: int):
    """Coefficients of a sampled field by exact quadrature. The samples'
    shape decides the kind: one value per node, (P,), gives
    HarmonicCoefficients, and one Cartesian 3-vector per node, (P, 3),
    VectorCoefficients; any other shape raises ValueError.

    Requires grid.exact_degree >= 2 n_max, plus 2 for a gradient field, so
    products of a field bandlimited to n_max with any basis function of
    degree <= n_max integrate exactly: vector basis components carry one
    polynomial degree more than the scalar harmonics. The transpose of grid
    synthesis: azimuth sums first (of the three spherical components for a
    gradient field), times sqrt(2) sin(theta) for scalar orders m >= 1,
    folded onto the northern half of the axis as north + south and north -
    south (_fold_sums), then one batched product of each stored half-axis
    tile of Legendre rows (_axis_tiles: every order, a chunk of degrees)
    with the folded sums of its orders, the sum kept for even n + m and the
    difference for odd. Scalar sums scatter to the flat layout through
    _scalar_slots[:, :, n0:n1]; gradient-field sums scatter-add through the
    table that synthesis gathers through (_vector_slots). The grid's ct
    must be mirrored (ValueError otherwise).
    """
    if not isinstance(grid, SphereGrid):
        raise TypeError("analyze needs samples on a SphereGrid")
    values = np.asarray(samples, dtype=float)
    if values.shape not in ((grid.n_nodes,), (grid.n_nodes, 3)):
        raise ValueError("samples must be one value or one 3-vector per grid node")
    vector = values.ndim == 2
    need = 2 * n_max + (2 if vector else 0)
    if grid.exact_degree < need:
        raise ValueError(f"grid exact_degree {grid.exact_degree} < 2*n_max"
                         f"{'+2' if vector else ''} = {need}")
    tiles = _axis_tiles(grid, n_max)
    st = np.sqrt(np.maximum(0.0, 1.0 - grid.ct * grid.ct))
    size = (n_max + 1) ** 2
    if vector:
        slots, weights = _vector_slots(n_max)
        out = np.zeros(2 * size + 1)
        for tab, part in _fold_sums(_vector_columns(values, grid, n_max, st), tiles, n_max):
            out += np.bincount(slots[tab].ravel(), (weights[tab] * part).ravel(), out.size)
        return VectorCoefficients(grid.radius, n_max, out[:-1].reshape(2, size))
    tc, ts = _azimuth_sums(values.reshape(grid.ct.size, grid.phis.size), grid, n_max)
    cols = np.stack([tc.T, ts.T], axis=1)  # (order, cos/sin, colatitude)
    cols[1:] *= _SQRT2 * st
    slots = _scalar_slots(n_max)
    out = np.empty(size + 1)
    for tab, part in _fold_sums(cols, tiles, n_max):
        out[slots[tab]] = part
    return HarmonicCoefficients(grid.radius, n_max, out[:-1])


def _padded(data: np.ndarray, n_max: int) -> np.ndarray:
    """Flat coefficient data raised to degree n_max by zeros; leading axes kept."""
    out = np.zeros(np.shape(data)[:-1] + ((n_max + 1) ** 2,))
    out[..., :np.shape(data)[-1]] = data
    return out


def _selected(slots: np.ndarray, weights: np.ndarray, columns: np.ndarray,
              rows: np.ndarray) -> np.ndarray:
    """Node-by-coefficient block of one amplitude channel of one order: the
    channel is sum_n weights[n] x[slots[n]] rows[n, j] at node j, and
    column c of the block takes the coefficient x[columns[c]]. Each entry
    is one weight times one row value, exactly."""
    return rows.T @ (weights[:, None] * (slots[:, None] == columns))


@functools.lru_cache(maxsize=4)
def _triangles(sizes: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """CSR indices and indptr, int32 and read-only, of square upper
    triangles of the given sizes stacked on the diagonal, rows packed one
    after another. Memoized, so caps of one field kind, degree and
    exactness share them."""
    # row g starts at column g and runs to the end of its block
    ends = np.repeat(np.cumsum(sizes, dtype=np.int32), sizes)
    starts = np.arange(ends.size, dtype=np.int32)
    indptr = np.concatenate([[0], np.cumsum(ends - starts, dtype=np.int32)]).astype(np.int32)
    indices = (np.arange(indptr[-1], dtype=np.int32)
               - np.repeat(indptr[:-1] - starts, ends - starts))
    indices.flags.writeable = indptr.flags.writeable = False
    return indices, indptr


@functools.lru_cache(maxsize=4)
def _cap_factor(case: str, n_max: int, cap_rho: float, exact_degree: int) -> tuple:
    """The operator of _cap_norms for one field kind, degree, cap radius
    and exactness: (op, gather). op is a square CSR matrix holding one
    upper-triangular factor R per block on its diagonal, and gather[:, c]
    the slots of the cos- and sin-type coefficients that column c takes.
    With x a field's data in the cap's frame, raveled (a gradient field's
    (2, L) stack row after row), and a zero appended, the squared norm
    over the cap is the sum of squares of op @ x[gather[0]] and
    op @ x[gather[1]].

    Per azimuthal order m, azimuthal Parseval on cap_grid's Gauss rule in t
    makes the norm sum_j pi w_j c_m (a_m^2 + b_m^2)(t_j), c_0 = 2 and c_m =
    1 otherwise, where a_m and b_m are the order's amplitudes (those of
    _scalar_blocks or _vector_blocks) from its cos- and sin-type
    coefficients. Both come from one node-by-coefficient matrix M_m with
    sqrt(pi w_j c_m) folded into its rows, built from the order's Legendre
    tile and the kind's slot table; the QR of M_m leaves an upper-triangular
    R_m with ||R_m x|| = ||M_m x||, so a norm is a sum of squares and never
    negative. The cos- and sin-type coefficients of an order share R_m as
    two right-hand sides (sin of order 0 reads the pad slot). A gradient
    field has two blocks per order. Its radial channel reads type 1 only,
    with M_m that of a scalar field times sin(theta) on the reduced rows.
    The colatitude and azimuth channels read type 2 only; the azimuth
    channel swaps cos and sin coefficients and flips one sign, which leaves
    the quadratic form, so one R_m of the stacked [colatitude; azimuth]
    matrix serves both. Type 2 of order 0 reads the order-1 tile
    (_vector_blocks' channel 8).

    The triangles hold about (n_max + 1)^3 / 6 doubles, 1.9 MB for a
    scalar field of degree 110 and 3.7 MB for a gradient field, and their
    int32 column indices half as much again, shared by the caps of one
    kind, degree and exactness (_triangles). Tiles come one order at a
    time and die once factored, and each factor is written straight into
    op's data. Memoized read-only for the last 4 operators used: a table's
    sweep and a reconstruction's data and evaluation caps reuse theirs.
    """
    t, tw = gauss_rule((exact_degree + 2) // 2, 1.0 - cap_rho, 1.0)
    st = np.sqrt(np.maximum(0.0, 1.0 - t * t))
    root = np.sqrt(math.pi * tw)
    pad = (n_max + 1) ** 2 * (1 if case == "scalar" else 2)
    # block sizes in the order the loop below builds them: per order m the
    # scalar or radial block of degrees m..n_max, then for a gradient field
    # type 2's (order 0's, of degrees 1..n_max, comes with order 1's)
    sizes = []
    for m in range(n_max + 1):
        sizes += [n_max + 1 - m]
        if case == "vector" and m >= 1:
            sizes += [n_max] * (m == 1) + [n_max + 1 - m]
    indices, indptr = _triangles(tuple(sizes))
    data, starts, gather = np.empty(indptr[-1]), np.cumsum([0] + sizes), []

    def factor(matrix, cos_slots, sin_slots):
        k, c = matrix.shape[1], starts[len(gather)]
        r = np.zeros((k, k))  # zero rows below a rule of fewer nodes than degrees
        r[:min(matrix.shape)] = np.linalg.qr(matrix, mode="r")
        data[indptr[c]:indptr[c + k]] = r[np.triu_indices(k)]
        gather.append(np.stack([cos_slots, sin_slots]))

    # a cut this high overflows _BLOCK_BUDGET at every size, so each tile
    # is one order m with all its degrees n = m..n_max
    for m, _, tile in _legendre_blocks(n_max, t, st, _BLOCK_BUDGET):
        rows = tile[0]
        parseval = (root * (_SQRT2 if m == 0 else 1.0))[:, None]
        if case == "scalar":
            slots = _scalar_slots(n_max)[m, :, m:]
            factor(rows.T * parseval * (1.0 if m == 0 else _SQRT2 * st[:, None]),
                   slots[0], slots[1])
            continue
        slots, weights = (s[m, :, m:] for s in _vector_slots(n_max))
        radial = _selected(slots[0], weights[0], slots[0], rows)
        factor(radial * parseval * (1.0 if m == 0 else st[:, None]), slots[0], slots[1])
        if m == 1:  # type 2 of order 0: its colatitude channel, sin(theta) B_n^1
            colat = _selected(slots[8], weights[8], slots[8], rows) * st[:, None]
            factor(colat * (root * _SQRT2)[:, None], slots[8], np.full(slots[8].size, pad))
        if m >= 1:
            colat = (_selected(slots[2], weights[2], slots[2], rows) * t[:, None]
                     + _selected(slots[6], weights[6], slots[2], rows))
            azimuth = _selected(slots[5], weights[5], slots[2], rows)
            factor(np.concatenate([colat, azimuth]) * np.tile(root, 2)[:, None],
                   slots[2], slots[3])
    data.flags.writeable = False
    gather = np.concatenate(gather, axis=1).astype(np.int32)
    gather.flags.writeable = False
    from scipy import sparse  # only cap norms need it, and it takes about 1 MB

    return sparse.csr_array((data, indices, indptr), shape=(gather.shape[1],) * 2), gather


def _cap_norms(data: np.ndarray, center, cap_rho: float, exact_degree: int) -> list[float]:
    """Squared L2 norms of the fields data[i] over the cap 1 - center.xi <= cap_rho.

    All k fields (flat, one degree) turn into the cap's frame in one call,
    and each norm is then a sum of squares of the memoized triangular
    factors of _cap_factor applied to the field's coefficients; no node
    and no Legendre tile is built per call. data[i] is the data of a
    coefficient container: shape (L,) for a scalar field, the (2, L) stack
    for a gradient field, whose norm sums the squared radial, colatitude
    and azimuth channels, since turning them into Cartesian axes keeps
    pointwise norms.

    The factor takes the cos- and sin-type coefficients of all k fields
    as 2 k columns of one CSR product, which sums each column in the
    order of a one-column product (SciPy's csr_matvecs), and each
    column's squares are summed alone as a contiguous array, in numpy's
    pairwise order. So a norm's bits depend neither on its batch nor on
    whether its operator was memoized or fresh. The transient arrays grow
    with k, so callers bound it (transforms.relative_errors takes runs of
    at most 8). A field that many calls share takes _kept_cap_norm.
    """
    frame = _cap_frame(np.asarray(data, dtype=float), _rotation_from_north(center))
    k, n_max = frame.shape[0], math.isqrt(frame.shape[-1]) - 1
    op, gather = _cap_factor("scalar" if frame.ndim == 2 else "vector",
                             n_max, cap_rho, exact_degree)
    columns = np.zeros((frame[0].size + 1, k))  # one per field, and the pad slot
    columns[:-1] = frame.reshape(k, -1).T
    # (C, cos/sin, k) -> (C, 2 k): the k cos-type columns, then the k sin-type
    products = op @ columns[gather.T].reshape(-1, 2 * k)
    sums = [np.sum(x * x) for x in products.T]  # each column's squares, contiguous
    return [float(sums[i] + sums[k + i]) for i in range(k)]


def _kept_cap_norm(data: np.ndarray, center, cap_rho: float, exact_degree: int) -> float:
    """_cap_norms(data[None], center, cap_rho, exact_degree)[0], kept.

    For a field that many calls share and that does not change between
    them, such as the model a noise study matches and scores against. The
    norm is kept by the field's content (its bytes and shape) with the cap
    and exactness, so a later write into the caller's array or container
    can never return a stale norm. Finding a degree-110 field's norm this
    way (its 97 KB copied and hashed) took 47 us on a 2-vCPU Xeon, against
    2.0 ms for norming it. Memoized for the last 4 norms asked: a
    reconstruction asks for the model's on its data and evaluation caps,
    a table sweep for three (the data cap, and the evaluation cap at the
    run's degree and at the model's).
    """
    data = np.ascontiguousarray(data, dtype=float)
    center = tuple(np.asarray(center, dtype=float).tolist())
    return _cap_norm_by_content(data.tobytes(), data.shape, center, cap_rho, exact_degree)


@functools.lru_cache(maxsize=4)
def _cap_norm_by_content(raw: bytes, shape: tuple, center: tuple, cap_rho: float,
                         exact_degree: int) -> float:
    """The memo of _kept_cap_norm, keyed by a field's bytes and shape."""
    return _cap_norms(np.frombuffer(raw).reshape(shape)[None], center, cap_rho,
                      exact_degree)[0]


# ---------------------------------------------------------------------------
# text file format


def save_coefficients(coeffs, path) -> None:
    """Write `n k value` lines under a `# radius_km=... n_max=...` header.

    A gradient field adds channels=2 to the header and writes `i n k value`
    lines, type i = 1 from degree 0, then type 2 from degree 1.
    """
    vector = coeffs.case == "vector"
    rows = coeffs.data.reshape(-1, coeffs.data.shape[-1])
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# radius_km={coeffs.radius:.17g} n_max={coeffs.n_max}"
                 f"{' channels=2' if vector else ''}\n")
        for i, row in enumerate(rows, start=1):
            prefix = f"{i} " if vector else ""
            for n in range(i - 1, coeffs.n_max + 1):
                for k in range(1, 2 * n + 2):
                    fh.write(f"{prefix}{n} {k} {row[n * n + k - 1]:.17g}\n")


def load_coefficients(path):
    """Read the text format written by save_coefficients.

    The header decides the kind: channels=2 gives VectorCoefficients from
    `i n k value` lines, no channels key HarmonicCoefficients from `n k
    value` lines, and any other channels value is rejected at line 1.
    Missing entries default to zero. Malformed lines, header values the
    container rejects, indices out of range and repeated indices are
    reported with their line number; blank and comment lines are skipped.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.readlines()
    if not lines:
        raise ValueError(f"{path}: empty coefficient file")
    text = lines[0].strip()
    if not text.startswith("#"):
        raise ValueError(f"{path}: line 1: missing `# radius_km=... n_max=...` header")
    fields = dict()
    for token in text[1:].split():
        if "=" not in token:
            raise ValueError(f"{path}: line 1: bad header token {token!r}")
        key, _, val = token.partition("=")
        fields[key] = val
    try:
        radius, n_max = float(fields["radius_km"]), int(fields["n_max"])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path}: line 1: header needs radius_km and n_max") from exc
    vector = "channels" in fields
    if vector and fields["channels"] != "2":
        raise ValueError(f"{path}: line 1: expected channels=2, got {fields['channels']}")
    try:
        out = (VectorCoefficients if vector else HarmonicCoefficients)(radius, n_max)
    except ValueError as exc:
        raise ValueError(f"{path}: line 1: {exc}") from exc

    columns = ("i", "n", "k", "value") if vector else ("n", "k", "value")
    seen = set()
    for idx, line in enumerate(lines[1:], start=2):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        parts = text.split()
        if len(parts) != len(columns):
            raise ValueError(f"{path}: line {idx}: expected `{' '.join(columns)}`")
        try:
            index, value = tuple(int(p) for p in parts[:-1]), float(parts[-1])
        except ValueError as exc:
            raise ValueError(f"{path}: line {idx}: unparsable entry") from exc
        if index in seen:
            raise ValueError(f"{path}: line {idx}: duplicate entry")
        seen.add(index)
        try:
            out.set_coeff(*index, value)
        except ValueError as exc:
            raise ValueError(f"{path}: line {idx}: {exc}") from exc
    return out
