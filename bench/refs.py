"""Reference computations written apart from gibbslab.

Nothing here imports the package under test: each function recomputes a
quantity the benchmark checks the program's outputs against, from its
definition.
"""

import math

import numpy as np
from scipy.special import gammaln, logsumexp


def compositions(n, m):
    """All count vectors of m non-negative integers summing to n, as rows."""
    rows = []
    row = [0] * m

    def fill(slot, left):
        if slot == m - 1:
            row[slot] = left
            rows.append(list(row))
            return
        for c in range(left, -1, -1):
            row[slot] = c
            fill(slot + 1, left - c)

    fill(0, n)
    return np.array(rows, dtype=np.int64)


def finite_class_energies(pair, counts, n):
    """w_n of each type class: n^-2 times the sum over unordered pairs of
    distinct particles of pair[a_i, a_j]."""
    c = counts.astype(float)
    ordered = np.einsum("ra,ab,rb->r", c, pair, c)  # includes i == j
    self_pairs = c @ np.diag(pair)
    return 0.5 * (ordered - self_pairs) / float(n) ** 2


def finite_log_weights(probs, pair, beta, n, tilt=None):
    """Type classes and log of multinomial * prod(pi^c) * exp(-n beta (w_n + tilt.c/n))."""
    counts = compositions(n, len(probs))
    log_multi = gammaln(n + 1.0) - gammaln(counts + 1.0).sum(axis=1)
    energy = finite_class_energies(np.asarray(pair, float), counts, n)
    if tilt is not None:
        energy = energy + counts @ np.asarray(tilt, float) / n
    log_w = log_multi + counts @ np.log(probs) - n * beta * energy
    return counts, log_w


def finite_laplace_value(probs, pair, beta, n, tilt=None):
    """L_n = log(sum of class weights) / (n beta)."""
    _, log_w = finite_log_weights(probs, pair, beta, n, tilt)
    return float(logsumexp(log_w)) / (n * beta)


def finite_marginals(probs, pair, beta, n):
    """Exact single-site occupation frequencies E[c/n] of the n-particle gas."""
    counts, log_w = finite_log_weights(probs, pair, beta, n)
    weights = np.exp(log_w - logsumexp(log_w))
    return weights @ counts / n


def finite_fixed_point_error(tau, probs, pair, beta, tilt):
    """max |tau - T(tau)| for T(tau) proportional to pi exp(-beta (G tau + g));
    the minimizer of the finite free energy is a fixed point of T."""
    tau = np.asarray(tau, float)
    field = np.asarray(pair, float) @ tau + np.asarray(tilt, float)
    mapped = np.asarray(probs, float) * np.exp(-beta * (field - field.min()))
    return float(np.abs(tau - mapped / mapped.sum()).max())


def two_atom_edge_limit(probs, pair, beta, tilt, points=2_000_001, chunk=100_000):
    """-min over tau = (t, 1 - t) of  tilt.tau + tau^T G tau / 2 + D(tau || pi) / beta,
    by a dense sweep of the simplex edge, ``chunk`` points at a time so that
    the sweep holds a few MB whatever ``points`` is."""
    probs, g, tilt = (np.asarray(a, float) for a in (probs, pair, tilt))
    best = math.inf
    for first in range(0, points, chunk):
        t = np.arange(first, min(first + chunk, points)) / (points - 1.0)
        taus = np.stack([t, 1.0 - t], axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            ent = np.where(taus > 0.0, taus * np.log(taus / probs), 0.0).sum(axis=1)
        quad = 0.5 * (g[0, 0] * t * t + 2.0 * g[0, 1] * t * (1.0 - t)
                      + g[1, 1] * (1.0 - t) ** 2)
        best = min(best, float((taus @ tilt + quad + ent / beta).min()))
    return -best


def torus_modes(order):
    """Half of the nonzero frequency square |k1|, |k2| <= order: each +-k pair once."""
    return np.array([(k1, k2) for k1 in range(-order, order + 1)
                     for k2 in range(-order, order + 1)
                     if (k1, k2) > (0, 0)], dtype=float)


def torus_green(points_a, points_b, order):
    """Truncated torus Green kernel for the uniform charge,
    G(x, y) = sum over kept modes of 2 cos(2 pi k.(x - y)) / (4 pi^2 |k|^2)."""
    modes = torus_modes(order)
    weights = 2.0 / (4.0 * math.pi ** 2 * (modes ** 2).sum(axis=1))
    diff = np.asarray(points_a, float)[:, None, :] - np.asarray(points_b, float)[None, :, :]
    phase = 2.0 * math.pi * diff @ modes.T
    return np.cos(phase) @ weights


def torus_green_energy(points, order):
    """w_n = n^-2 sum_{i<j} G(x_i, x_j) of a torus configuration."""
    points = np.asarray(points, float)
    n = points.shape[0]
    table = torus_green(points, points, order)
    return float(table[np.triu_indices(n, k=1)].sum()) / n ** 2


def torus_green_apply(masses, order):
    """(G m)(node) on the square torus grid, as the same Fourier sum applied
    through a 2-d FFT; ``masses`` is indexed node = i * side + j for the node
    (i / side, j / side)."""
    side = int(round(math.sqrt(masses.size)))
    grid = np.asarray(masses, float).reshape(side, side)
    k = np.fft.fftfreq(side, d=1.0 / side)
    k1, k2 = np.meshgrid(k, k, indexing="ij")
    keep = (np.abs(k1) <= order) & (np.abs(k2) <= order) & ((k1 != 0) | (k2 != 0))
    symbol = np.zeros((side, side))
    symbol[keep] = 1.0 / (4.0 * math.pi ** 2 * (k1[keep] ** 2 + k2[keep] ** 2))
    return (np.fft.ifft2(np.fft.fft2(grid) * symbol).real * side * side).ravel()


def torus_equilibrium_error(masses, potential, ref_weights, beta, order):
    """max_i |m_i / T(m)_i - 1| for T(m) proportional to w exp(-beta (G m + V))."""
    field = torus_green_apply(masses, order) + potential
    mapped = ref_weights * np.exp(-beta * (field - field.min()))
    mapped /= mapped.sum()
    return float(np.abs(masses / mapped - 1.0).max())


def circle_log_energy(theta):
    """w_n = -(1/n^2) sum_{i<j} log |2 sin((theta_i - theta_j) / 2)|."""
    theta = np.asarray(theta, float).ravel()
    n = theta.size
    i, j = np.triu_indices(n, k=1)
    chords = np.abs(2.0 * np.sin(0.5 * (theta[i] - theta[j])))
    return -float(np.log(chords).sum()) / n ** 2


def circle_fekete_minimum(n):
    """Minimum of the circle log energy at n points, reached by the regular
    n-gon: -(log n) / (2 n)."""
    return -math.log(n) / (2.0 * n)
