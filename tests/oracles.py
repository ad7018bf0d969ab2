"""Independent reference computations used by the test suite.

Everything here is built on numpy.polynomial.legendre and explicit 3-D
vector algebra, deliberately avoiding the package's own Legendre and Gram
code paths, so agreement between the two is meaningful evidence.
"""

import math

import numpy as np
from numpy.polynomial import legendre as npleg

FOUR_PI = 4.0 * math.pi


def generic_direction():
    """A fixed unit vector away from poles and coordinate planes."""
    v = np.array([0.31, -0.52, 0.71])
    return v / np.linalg.norm(v)


def orthonormal_complement(axis):
    """Two unit vectors completing axis to a right-handed frame."""
    helper = np.array([1.0, 0.0, 0.0])
    if abs(axis @ helper) > 0.9:
        helper = np.array([0.0, 1.0, 0.0])
    u = np.cross(axis, helper)
    u /= np.linalg.norm(u)
    v = np.cross(axis, u)
    return u, v


def _profile_series(values):
    """Legendre series sum_n (2n+1)/(4 pi) values[n] P_n of a zonal kernel."""
    values = np.asarray(values, dtype=float)
    return (2.0 * np.arange(values.size) + 1.0) / FOUR_PI * values


def scalar_profile_energy(values, rho, n_points=None):
    """Integral over [-1, 1-rho] of the squared scalar zonal profile.

    The profile is sum_n (2n+1)/(4 pi) values[n] P_n(t), evaluated through
    numpy's Legendre series.
    """
    values = np.asarray(values, dtype=float)
    n_max = values.size - 1
    m = n_points or (n_max + 2)
    x, w = npleg.leggauss(m)
    a, b = -1.0, 1.0 - rho
    t = 0.5 * (b - a) * x + 0.5 * (a + b)
    wt = 0.5 * (b - a) * w
    prof = npleg.legval(t, _profile_series(values))
    return float(wt @ prof**2)


def zonal_convolution(values, points, nodes, weighted):
    """sum_j K(x . eta_j) weighted_j at each point x, node by node.

    K is the scalar zonal profile sum_n (2n+1)/(4 pi) values[n] P_n; nodes
    are the unit directions eta_j of a quadrature rule and weighted the
    rule's weights times the field samples. Radius factors are excluded.
    """
    t = np.clip(np.asarray(points, dtype=float) @ np.asarray(nodes).T, -1.0, 1.0)
    return npleg.legval(t, _profile_series(values)) @ weighted


def tensor_convolution(values, x, nodes, weighted):
    """sum_j K(x, eta_j) weighted_j for the tensor kernel of vector_tensor_matrix.

    weighted holds one 3-vector w_j f_j per node. The tensor acts on f_j in
    the closed form of vector_tensor_matrix, summed over degrees first:
    S0 x (eta.f) + S2 a (b.f) + S1 (f - eta (eta.f) - x (b.f)), with S0 the
    profile series and S1, S2 the first and second derivatives of the
    series with coefficients (2n+1)/(4 pi) values[n] / (n(n+1)), n >= 1.
    """
    x = np.asarray(x, dtype=float)
    c = _profile_series(values)
    n = np.arange(1, c.size)
    d = np.zeros_like(c)
    d[1:] = c[1:] / (n * (n + 1.0))
    t = np.clip(nodes @ x, -1.0, 1.0)
    s0 = npleg.legval(t, c)
    s1 = npleg.legval(t, npleg.legder(d))
    s2 = npleg.legval(t, npleg.legder(d, 2))
    eta_f = np.einsum("ij,ij->i", nodes, weighted)
    b_f = weighted @ x - t * eta_f
    a = nodes - t[:, None] * x
    return (x * float(np.sum(s0 * eta_f - s1 * b_f)) + (s2 * b_f) @ a
            + s1 @ weighted - (s1 * eta_f) @ nodes)


def legendre_orders(n_max, ct, st):
    """Yield (m, rows) for m = 0..n_max by the per-order upward recurrence.

    rows[j] holds degree n = m + j of the fully normalized associated
    Legendre functions without the Condon-Shortley phase: A_n^0 for m = 0
    and the reduced B_n^m = A_n^m / sin(theta) for m >= 1, at the colatitude
    cosines ct and sines st. Each order seeds B_m^m from a running product
    over orders and steps its own loop over degrees with scalar factors.
    """
    ct = np.asarray(ct, dtype=float)
    inv_sqrt_4pi = 1.0 / math.sqrt(4.0 * math.pi)
    first = np.full(ct.shape, inv_sqrt_4pi)  # A_0^0, then B_m^m
    for m in range(n_max + 1):
        rows = np.empty((n_max - m + 1,) + ct.shape)
        rows[0] = first
        if n_max > m:
            rows[1] = math.sqrt(2 * m + 3) * ct * first
        for n in range(m + 2, n_max + 1):
            a = math.sqrt((2 * n + 1) * (2 * n - 1) / ((n - m) * (n + m)))
            b = math.sqrt(
                (2 * n + 1) * (n - 1 - m) * (n - 1 + m)
                / ((2 * n - 3) * (n - m) * (n + m))
            )
            rows[n - m] = a * ct * rows[n - m - 1] - b * rows[n - m - 2]
        yield m, rows
        if m == 0:
            first = np.full(ct.shape, math.sqrt(1.5) * inv_sqrt_4pi)
        else:
            first = math.sqrt((2 * m + 3) / (2 * m + 2)) * st * first


def _order_harmonics(n_max, points):
    """Yield (n, cos-type, sin-type) per order m: the degrees n = m..n_max
    and the real harmonics Y of order m at the directions, one row per
    degree (the sin-type rows are None for m = 0). The harmonic with flat
    index n^2 + k - 1 is cos-type for k = m + 1 and sin-type for
    k = n + m + 1, with A_n^m = sin(theta) B_n^m from legendre_orders."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    pts = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    ct = np.clip(pts[:, 2], -1.0, 1.0)
    st = np.hypot(pts[:, 0], pts[:, 1])
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    for m, rows in legendre_orders(n_max, ct, st):
        n = np.arange(m, n_max + 1)
        if m == 0:
            yield n, rows, None
        else:
            radial = math.sqrt(2.0) * st * rows
            yield n, radial * np.cos(m * phi), radial * np.sin(m * phi)


def synthesis(data, radius, points):
    """Field values (1/radius) sum c(n,k) Y_{n,k} at the directions, summed
    order by order over the flat coefficients data."""
    data = np.asarray(data, dtype=float)
    n_max = math.isqrt(data.size) - 1
    vals = 0.0
    for n, cos_y, sin_y in _order_harmonics(n_max, points):
        m = n[0]
        vals = vals + data[n * n + m] @ cos_y
        if sin_y is not None:
            vals = vals + data[n * n + n + m] @ sin_y
    return vals / radius


def analysis(samples, nodes, weights, radius, n_max):
    """Flat coefficients sum_j weights_j samples_j Y_{n,k}(nodes_j) / radius
    to degree n_max: the quadrature of each harmonic, order by order."""
    weighted = np.asarray(weights) * np.asarray(samples, dtype=float) / radius
    out = np.zeros((n_max + 1) ** 2)
    for n, cos_y, sin_y in _order_harmonics(n_max, nodes):
        m = n[0]
        out[n * n + m] = cos_y @ weighted
        if sin_y is not None:
            out[n * n + n + m] = sin_y @ weighted
    return out


def _order_vector_harmonics(n_max, points):
    """Yield (n, (radial, e_theta, e_phi), rows, ring, types) per order m.

    n holds the degrees m..n_max; radial, e_theta and e_phi are the unit
    3-vectors of the spherical frame at each direction (at a pole, the
    frame of azimuth 0). rows = (A, dA, mB), one row per degree and one
    column per distinct colatitude cosine of the directions (ring[j] is
    the column of direction j): A_n^m, its colatitude derivative and
    m B_n^m = m A_n^m / sin(theta). The derivative comes from the ladder
    relation between neighbouring orders, dA_n^m/dtheta =
    (sqrt((n+m)(n-m+1)) A_n^{m-1} - sqrt((n-m)(n+m+1)) A_n^{m+1}) / 2 and
    dA_n^0/dtheta = -sqrt(n(n+1)) A_n^1, with A_n^m = sin(theta) B_n^m
    from legendre_orders. types lists, per real harmonic of order m, its
    flat index offset k - 1 - n from degree n^2 + n and the azimuth
    factors (f, g) per direction: the harmonic is A f, its surface
    gradient dA f e_theta + mB g e_phi. For m >= 1 these are the cos type
    (sqrt2 cos m phi, -sqrt2 sin m phi) and the sin type (sqrt2 sin m phi,
    sqrt2 cos m phi); m = 0 has the cos type only.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    pts = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    ct = np.clip(pts[:, 2], -1.0, 1.0)
    st = np.hypot(pts[:, 0], pts[:, 1])
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    cp, sp = np.cos(phi), np.sin(phi)
    frame = (pts, np.stack([ct * cp, ct * sp, -st], axis=-1),
             np.stack([-sp, cp, np.zeros_like(cp)], axis=-1))
    _, first, ring = np.unique(ct, return_index=True, return_inverse=True)
    ct, st = ct[first], st[first]  # grid nodes share rings of colatitude
    orders = legendre_orders(n_max, ct, st)
    lower = None
    _, rows = next(orders)
    for m in range(n_max + 1):
        following = next(orders, None)
        n = np.arange(m, n_max + 1)[:, None]
        full = rows if m == 0 else st * rows
        upper = np.zeros_like(full)
        if following is not None:
            upper[1:] = st * following[1]
        if m == 0:
            d_theta = -np.sqrt(n * (n + 1.0)) * upper
            types = [(-n[:, 0], np.ones_like(phi), np.zeros_like(phi))]
        else:
            d_theta = 0.5 * (np.sqrt((n + m) * (n - m + 1.0)) * lower[1:]
                             - np.sqrt((n - m) * (n + m + 1.0)) * upper)
            c, s = math.sqrt(2.0) * np.cos(m * phi), math.sqrt(2.0) * np.sin(m * phi)
            types = [(m - n[:, 0], c, -s), (m, s, c)]
        yield n[:, 0], frame, (full, d_theta, m * rows), ring, types
        lower = full
        if following is not None:
            rows = following[1]


def _vector_split(data):
    """Type-1 and type-2 rows of a (2, L) vector coefficient stack, each in
    the scalar flat layout (type 2 zero at degree 0), and their degree count."""
    c1, c2 = np.asarray(data, dtype=float)
    return c1, c2, math.isqrt(c1.size) - 1


def _type2_scale(n):
    """1 / sqrt(n(n+1)) per degree, 0 at n = 0 where type 2 does not exist."""
    return np.where(n > 0, 1.0 / np.sqrt(np.maximum(n * (n + 1.0), 1.0)), 0.0)


def vector_synthesis(data, radius, points):
    """Cartesian values (1/radius) sum c1 xi Y + c2 grad* Y / sqrt(n(n+1))
    at the directions, shape (points, 3), summed order by order over the
    (2, L) stack data of type-1 and type-2 coefficients."""
    c1, c2, n_max = _vector_split(data)
    out = 0.0
    for n, frame, (a, da, mb), ring, types in _order_vector_harmonics(n_max, points):
        radial, theta, azimuth = frame
        for offset, f, g in types:
            idx = n * n + n + offset
            d = c2[idx] * _type2_scale(n)
            out = out + (((c1[idx] @ a)[ring] * f)[:, None] * radial
                         + ((d @ da)[ring] * f)[:, None] * theta
                         + ((d @ mb)[ring] * g)[:, None] * azimuth)
    return out / radius


def vector_analysis(samples, nodes, weights, radius, n_max):
    """The (2, L) vector coefficient stack to degree n_max from Cartesian samples:
    the quadrature sum_j weights_j samples_j . y(nodes_j) / radius of each
    type-1 and type-2 basis function, order by order."""
    weighted = np.asarray(weights)[:, None] * np.asarray(samples, dtype=float) / radius
    size = (n_max + 1) ** 2
    c1, c2 = np.zeros(size), np.zeros(size)
    for n, frame, (a, da, mb), ring, types in _order_vector_harmonics(n_max, nodes):
        radial, theta, azimuth = (np.einsum("ij,ij->i", weighted, vec) for vec in frame)
        for offset, f, g in types:
            idx = n * n + n + offset
            rings = a.shape[1]  # sums over each ring of colatitude
            c1[idx] = a @ np.bincount(ring, radial * f, rings)
            c2[idx] = _type2_scale(n) * (da @ np.bincount(ring, theta * f, rings)
                                         + mb @ np.bincount(ring, azimuth * g, rings))
    return np.stack([c1, c2])


def _legendre_value_and_derivatives(n, t):
    e = np.zeros(n + 1)
    e[n] = 1.0
    p = npleg.legval(t, e)
    dp = npleg.legval(t, npleg.legder(e)) if n >= 1 else 0.0
    d2p = npleg.legval(t, npleg.legder(e, 2)) if n >= 2 else 0.0
    return p, dp, d2p


def vector_tensor_matrix(values, xi, eta):
    """3x3 tensor zonal kernel sum_n values[n] (2n+1)/(4 pi) A_n(xi, eta).

    A_n collects the degree-n sums of outer products of the radial and
    tangential vector harmonics; the tangential part uses the closed form
    in P_n', P_n'' so no harmonic expansion is needed.
    """
    values = np.asarray(values, dtype=float)
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    t = float(xi @ eta)
    eye = np.eye(3)
    a = eta - t * xi
    b = xi - t * eta
    out = values[0] / FOUR_PI * np.outer(xi, eta)
    for n in range(1, values.size):
        if values[n] == 0.0:
            continue
        p, dp, d2p = _legendre_value_and_derivatives(n, t)
        tang = (d2p * np.outer(a, b)
                + dp * (eye - np.outer(eta, eta) - np.outer(xi, b)))
        tens = p * np.outer(xi, eta) + tang / (n * (n + 1.0))
        out += (2.0 * n + 1.0) / FOUR_PI * values[n] * tens
    return out


def _tensor_profile_sweep(n_max, upper, t_weighted, n_t, n_phi):
    """Gram matrix of per-degree unit-symbol tensors over [-1, upper].

    The first kernel argument sweeps a product grid (Gauss in t, uniform in
    azimuth) around a fixed generic second argument; at each node the
    per-degree tensors are flattened and their Frobenius inner products
    accumulated, optionally weighted by the node's t. The azimuth average
    recovers the zonal profile.
    """
    y0 = generic_direction()
    u, v = orthonormal_complement(y0)
    m = n_t or (2 * n_max + 12)
    x, w = npleg.leggauss(m)
    a, b = -1.0, upper
    t = 0.5 * (b - a) * x + 0.5 * (a + b)
    wt = 0.5 * (b - a) * w
    phis = 2.0 * math.pi * np.arange(n_phi) / n_phi

    q = np.zeros((n_max + 1, n_max + 1))
    unit = np.eye(n_max + 1)
    for ti, wi in zip(t, wt):
        s = math.sqrt(max(0.0, 1.0 - ti * ti))
        node_w = wi * ti if t_weighted else wi
        for phi in phis:
            x_dir = ti * y0 + s * (math.cos(phi) * u + math.sin(phi) * v)
            stack = np.array([
                vector_tensor_matrix(unit[n], x_dir, y0).ravel()
                for n in range(n_max + 1)
            ])
            q += (node_w / n_phi) * (stack @ stack.T)
    return q


def vector_profile_energy_matrix(n_max, rho, n_t=None, n_phi=16):
    """Matrix Q with v @ Q @ v = cap-exterior energy of the tensor profile.

    Built by genuine surface quadrature over the complement of the cap of
    radius rho (rho = 0 gives the full interval).
    """
    return _tensor_profile_sweep(n_max, 1.0 - rho, False, n_t, n_phi)


def vector_profile_moment_matrix(n_max, n_t=None, n_phi=16):
    """Matrix Q with v @ Q @ v = integral of t |profile|_F^2 over [-1, 1]."""
    return _tensor_profile_sweep(n_max, 1.0, True, n_t, n_phi)


def vector_profile_energy(values, rho, n_t=None, n_phi=16):
    """Integral over [-1, 1-rho] of the squared Frobenius tensor profile."""
    values = np.asarray(values, dtype=float)
    q = vector_profile_energy_matrix(values.size - 1, rho, n_t=n_t, n_phi=n_phi)
    return float(values @ q @ values)
