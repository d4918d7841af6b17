"""Probability measures on base spaces and finite atom spaces.

Grid measures carry a density against the space's reference measure;
empirical measures carry atom locations.  Relative entropy follows the
convention 0*log(0) = 0 and returns +inf when absolute continuity fails
(in particular for any empirical measure against a diffuse reference).
"""

from dataclasses import dataclass

import math

import numpy as np

from .errors import MeasureError
from .simplex import simplex_minimize

__all__ = [
    "EmpiricalMeasure",
    "GridMeasure",
    "FiniteSpace",
    "LegendreReport",
    "relative_entropy",
    "legendre_check",
]

_MASS_TOL = 1e-10


class EmpiricalMeasure:
    """Uniform atoms 1/n at explicit points of a base space."""

    def __init__(self, space, points):
        self.space = space
        self.points = space._as_points(points)
        if self.points.shape[0] == 0:
            raise MeasureError("empirical measure needs at least one atom")


class GridMeasure:
    """Nonnegative density against the reference measure, total mass 1."""

    def __init__(self, space, density):
        density = np.asarray(density, dtype=float)
        if density.shape != (space.n_nodes,):
            raise MeasureError(
                f"density has shape {density.shape}, expected ({space.n_nodes},)"
            )
        if np.any(density < 0.0) or not np.all(np.isfinite(density)):
            raise MeasureError("grid density must be finite and nonnegative")
        mass = float((space.weights * density).sum())
        if abs(mass - 1.0) > _MASS_TOL:
            raise MeasureError(f"grid density has mass {mass!r}, expected 1")
        self.space = space
        self.density = density

    @classmethod
    def uniform(cls, space):
        return cls(space, np.ones(space.n_nodes))

    @classmethod
    def from_unnormalized(cls, space, values):
        values = np.asarray(values, dtype=float)
        total = float((space.weights * values).sum())
        if total <= 0.0 or not np.isfinite(total):
            raise MeasureError("cannot normalize a density with nonpositive total mass")
        return cls(space, values / total)

    @property
    def node_masses(self):
        return self.space.weights * self.density


class FiniteSpace:
    """Finitely many atoms with a positive base distribution."""

    def __init__(self, probs):
        probs = np.asarray(probs, dtype=float)
        if probs.ndim != 1 or probs.shape[0] < 2:
            raise MeasureError("finite space needs at least two atoms")
        if np.any(probs <= 0.0):
            raise MeasureError("finite base distribution must be strictly positive")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise MeasureError(f"finite base distribution sums to {probs.sum()!r}")
        self.probs = probs

    @property
    def n_atoms(self):
        return self.probs.shape[0]


def _xlogx(x):
    return x * np.log(np.where(x > 0.0, x, 1.0))


def relative_entropy(mu, ref=None):
    """Relative entropy D(mu || ref) in nats.

    ``mu`` may be a GridMeasure (ref: GridMeasure or None for the space's
    reference), an EmpiricalMeasure (+inf against any diffuse reference), or
    a plain probability vector with ``ref`` a vector of the same length;
    an (r, m) array of such vectors gives r values.
    """
    if isinstance(mu, EmpiricalMeasure):
        return math.inf
    if isinstance(mu, GridMeasure):
        p = mu.density
        if ref is None:
            q = np.ones_like(p)
        elif isinstance(ref, GridMeasure):
            if ref.space is not mu.space:
                raise MeasureError("measures live on different spaces")
            q = ref.density
        else:
            raise MeasureError(f"unsupported reference {type(ref).__name__}")
        w = mu.space.weights
        if np.any((q == 0.0) & (p > 0.0)):
            return math.inf
        mask = p > 0.0
        value = float((w[mask] * p[mask] * np.log(p[mask] / q[mask])).sum())
        # Entropy is nonnegative; clamp quadrature round-off.
        return 0.0 if -1e-12 < value < 0.0 else value
    p = np.asarray(mu, dtype=float)
    q = np.asarray(ref, dtype=float)
    if p.shape[-1:] != q.shape:
        raise MeasureError("distribution and reference have different lengths")
    rows = np.atleast_2d(p)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = (rows * np.log(np.where(rows > 0.0, rows / q, 1.0))).sum(axis=1)
    values[(-1e-12 < values) & (values < 0.0)] = 0.0
    return values if p.ndim == 2 else float(values[0])


@dataclass
class LegendreReport:
    """Two independent evaluations of the entropy Legendre identity."""

    lhs: float
    rhs_closed: float
    rhs_grid: float
    tilt: np.ndarray


def _finite_objective(pi, g):
    finite = np.isfinite(g)
    coef = np.where(finite, g, 0.0) - np.log(pi)

    def objective(taus):
        vals = taus @ coef + _xlogx(taus).sum(axis=1)
        if not finite.all():
            vals = np.where(taus[:, ~finite].max(axis=1) > 0.0, np.inf, vals)
        return vals

    return objective


def legendre_check(space, g):
    """Check  log E_pi[exp(-g)] = -inf_tau { E_tau[g] + D(tau || pi) }.

    Returns the log-mean-exp left side together with the right side computed
    two ways: from the closed-form minimizing tilt, and by dense simplex grid
    search with local refinement (independent of the closed form).
    """
    pi = space.probs
    g = np.asarray(g, dtype=float)
    if g.shape != pi.shape:
        raise MeasureError(f"g has shape {g.shape}, expected {pi.shape}")
    if np.any(np.isnan(g)) or np.any(g == -math.inf):
        raise MeasureError("g must take values in (-inf, +inf]")
    finite = np.isfinite(g)
    if not finite.any():
        raise MeasureError("g is identically +inf; the identity degenerates")

    weights = np.zeros_like(pi)
    weights[finite] = pi[finite] * np.exp(-g[finite])
    z = float(weights.sum())
    lhs = math.log(z)

    tilt = weights / z
    lin = float(tilt[finite] @ g[finite])
    rhs_closed = -(lin + relative_entropy(tilt, pi))

    if space.n_atoms > 5:
        raise MeasureError("simplex grid oracle supports at most 5 atoms")
    value, _ = simplex_minimize(_finite_objective(pi, g), space.n_atoms, steps=200,
                                refine_rounds=6)
    return LegendreReport(lhs=lhs, rhs_closed=rhs_closed, rhs_grid=-value, tilt=tilt)

