"""Pair interaction energies, microscopic and macroscopic.

The microscopic energy of a configuration x = (x_1..x_n) under a pair
kernel G plus one-body potentials V is

    w_n(x) = n^{-2} * sum over pairs i < j G(x_i, x_j)
             + n^{-1} * sum_i V_n(x_i).

Each kernel owns the pair sums of a configuration (``Kernel.pairs``): they
read the n(n-1)/2 pairs i < j only, elementwise by ``Kernel.values``
without an n x n table (the Green kernel excepted: ``_GreenPairs``), and
score the single-particle moves of the sampler and the Fekete polish.

The macroscopic energy of a density mu is

    w(mu) = (1/2) * double integral of G d(mu tensor mu) + integral of V d(mu).

Singular pair kernels (log, Riesz) are integrated on the grid by excluding
the self-pair and replacing the diagonal with the kernel's cell average: a
node with cell volume v is assigned the mean kernel value over a ball of the
same volume (radius R, with mean(-log r) = -log R + 1/d and
mean(r^-s) = d/(d-s) * R^-s in dimension d).  The same corrected node matrix
is used by the free-energy minimizer, so both sides of every comparison see
one discretization.

A Euclidean transform (``euclidean_transform``) moves a confining potential
V on a box into the reference measure and a pair tilt c_n (V(x) + V(y)).
Over the pairs i < j that tilt sums to the one-body potential
c_n (n-1)/n V, so a transformed model is a plain ``EnergyModel`` that every
chain, estimator, Fekete search and limit solver takes.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EnergyError
from .expressions import compile_point_function
from .measures import FiniteSpace, GridMeasure
from .spaces import Space, _coordinate_names

__all__ = [
    "BetaSchedule",
    "Kernel",
    "ConstantKernel",
    "LogChordKernel",
    "RieszKernel",
    "GreenKernel",
    "CallableKernel",
    "StaticPotential",
    "EnvironmentPotential",
    "EnvironmentSequence",
    "EnergyModel",
    "EnergyReport",
    "FiniteEnergyModel",
    "w_n",
    "w_n_report",
    "w_macro",
    "confining_bound_check",
    "euclidean_transform",
    "kernel_node_matrix",
]


class BetaSchedule:
    """Inverse-temperature sequence beta_n with its limit."""

    def __init__(self, fn, limit):
        self._fn = fn
        self.limit = limit

    @classmethod
    def constant(cls, beta):
        beta = float(beta)
        if not beta > 0.0:
            raise EnergyError(f"beta must be positive, got {beta!r}")
        return cls(lambda n: beta, beta)

    @classmethod
    def linear(cls, coefficient=1.0):
        coefficient = float(coefficient)
        if not coefficient > 0.0:
            raise EnergyError(f"linear beta coefficient must be positive, got {coefficient!r}")
        return cls(lambda n: coefficient * n, math.inf)

    @classmethod
    def from_callable(cls, fn, limit):
        return cls(fn, float(limit))

    def beta_at(self, n):
        return float(self._fn(n))


# -- kernels -------------------------------------------------------------------


class Kernel:
    """Symmetric pair interaction kernel G(x, y) on a base space.
    ``values(space, a, b)`` evaluates it elementwise on broadcastable point
    arrays whose last axis holds the coordinates.  Singular kernels give
    +inf on coinciding points and leave the divide warning to the caller's
    ``np.errstate``."""

    def values(self, space, a, b):
        raise EnergyError(f"{type(self).__name__} has no elementwise values")

    def pairwise(self, space, x, y):
        """Kernel table between two point arrays, from ``values``."""
        a, b = space._as_points(x)[:, None], space._as_points(y)[None]
        with np.errstate(divide="ignore"):
            return self.values(space, a, b)

    def pairs(self, space, points):
        """Pair sums of the configuration ``points``; accepted moves write it."""
        return _DensePairs(self, space, points)

    def diagonal_values(self, space):
        """Corrected self-pair values at the grid nodes (singular kernels)."""
        raise EnergyError(f"{type(self).__name__} has no diagonal correction")

    def lower_bound(self, space):
        return None


class ConstantKernel(Kernel):
    def __init__(self, value):
        self.value = float(value)

    def values(self, space, a, b):
        return np.full(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]), self.value)

    def diagonal_values(self, space):
        return np.full(space.n_nodes, self.value)

    def lower_bound(self, space):
        return self.value


def _ball_radius(space):
    """Radius of the ball with each node cell's volume, per node."""
    if space.dim == 1:
        return space.cell_volumes / 2.0
    return np.sqrt(space.cell_volumes / np.pi)


class LogChordKernel(Kernel):
    """G(x, y) = -scale * log d(x, y), chord distance where an embedding exists."""

    def __init__(self, scale=1.0):
        if not scale > 0.0:
            raise EnergyError(f"log kernel scale must be positive, got {scale!r}")
        self.scale = float(scale)

    def values(self, space, a, b):
        return -self.scale * np.log(space.distance(a, b, chord=True))

    pairwise = Kernel.pairwise  # its own entry: wrapping it leaves other kernels alone

    def diagonal_values(self, space):
        radius = _ball_radius(space)
        return -self.scale * (np.log(radius) - 1.0 / space.dim)

    def lower_bound(self, space):
        if space.kind in ("circle", "sphere"):
            dmax = 2.0
        else:
            dmax = space.diameter
        return -self.scale * math.log(dmax)


class RieszKernel(Kernel):
    """G(x, y) = scale * d(x, y)^(-s), chord distance where an embedding exists."""

    def __init__(self, s, scale=1.0):
        if not 0.0 < s:
            raise EnergyError(f"riesz exponent must be positive, got {s!r}")
        if not scale > 0.0:
            raise EnergyError(f"riesz scale must be positive, got {scale!r}")
        self.s = float(s)
        self.scale = float(scale)

    def values(self, space, a, b):
        return self.scale * space.distance(a, b, chord=True) ** (-self.s)

    def diagonal_values(self, space):
        d = space.dim
        if self.s >= d:
            raise EnergyError(
                f"riesz exponent {self.s} >= dimension {d}: grid integral diverges"
            )
        radius = _ball_radius(space)
        return self.scale * (d / (d - self.s)) * radius ** (-self.s)

    def lower_bound(self, space):
        return 0.0


class GreenKernel(Kernel):
    """The truncated spectral Green kernel; bounded, finite on the diagonal."""

    def __init__(self, model):
        self.model = model

    def pairwise(self, space, x, y):
        return self._model_on(space).pairwise(x, y)

    def pairs(self, space, points):
        return _GreenPairs(self._model_on(space), points)

    def _model_on(self, space):
        """The Green model, which must live on ``space``."""
        if space is not self.model.space:
            raise EnergyError("Green kernel evaluated on a different space")
        return self.model

    def diagonal_values(self, space):
        return self.model.node_diagonal()


class CallableKernel(Kernel):
    """User-supplied pair kernel; ``fn(space, a, b)`` maps two broadcastable
    point arrays, coordinates on the last axis, to values elementwise.
    Fekete searches descend it on finite-difference gradients whether or
    not it is smooth: a kinked kernel such as pi - d still reaches its
    minimum.  It has no diagonal correction, so its self-pair values at the
    grid nodes must be finite."""

    def __init__(self, fn, bound=None):
        self.fn = fn
        self.bound = bound

    def values(self, space, a, b):
        # a value constant along an axis, or a scalar, fills the whole shape
        shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
        return np.full(shape, self.fn(space, a, b), dtype=float)

    def diagonal_values(self, space):
        with np.errstate(divide="ignore"):
            diagonal = self.values(space, space.nodes[:, None], space.nodes[:, None])[:, 0]
        if not np.all(np.isfinite(diagonal)):
            raise EnergyError("callable kernel is not finite on the diagonal, and it "
                              "has no diagonal correction")
        return diagonal

    def lower_bound(self, space):
        return self.bound


# -- pair sums of one configuration ----------------------------------------------


@functools.lru_cache(maxsize=64)
def _upper_triangle(n):
    """Read-only index pair of the strict upper triangle of an n x n table."""
    rows, cols = np.triu_indices(n, k=1)
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


class _DensePairs:
    """Pair sums of a configuration under elementwise ``values``.  Callers of
    ``changes`` and ``against`` hold ``np.errstate(divide="ignore", invalid="ignore")``."""

    def __init__(self, kernel, space, points):
        self.kernel = kernel
        self.space = space
        self.points = points

    def values(self):
        """Kernel values on the pairs i < j in row-major order."""
        rows, cols = _upper_triangle(self.points.shape[0])
        with np.errstate(divide="ignore"):
            return self.kernel.values(self.space, self.points[rows], self.points[cols])

    def changes(self, i, rows):
        """n^2 times the internal energy change of moving particle i to each
        of ``rows[:-1]`` (``rows[-1]`` is particle i), from one table."""
        self.drawn = rows
        table = self.kernel.values(self.space, rows[:, None], self.points[None])
        table[:, i] = 0.0
        # np.add.reduce, a 1-element slice and a float divisor skip numpy's
        # slower paths for .sum, numpy scalars and int operands (the same bits)
        sums = np.add.reduce(table, 1)
        return sums[:-1] - sums[-1:]

    def accept(self, i, k):
        """Move particle i to row k of the last ``changes``."""
        self.points[i] = self.drawn[k]

    def against(self, points):
        """The kernel table between ``points`` and the configuration."""
        return self.kernel.pairwise(self.space, points, self.points)


class _GreenPairs:
    """Pair sums of a configuration under a Green model.  G(x, y) =
    b~(x).b~(y) - phi(x) - phi(y) + c has phi = q.b~, b~ the scaled basis
    row and q the charge coefficients over sqrt(lambda).  With the rows
    b~(x_j) and the field S - (n-1) q kept, S their sum, moving particle i
    to the rows of P changes n^2 times the internal energy by
    (B~(P) - b~(x_i)).(S - (n-1) q - b~(x_i)), exactly 0 at p = x_i: the
    basis is evaluated elementwise, so a kept row has a fresh one's bits.
    One evaluation (``GreenModel.features``) gives the rows and ``values``,
    ``w_n``'s bits; on accept row i is replaced, S summed afresh, and the
    features dropped, so that later reads evaluate them."""

    def __init__(self, green, points):
        self.green = green
        self.points = points
        self.features = green.features(points)
        self.rows = self.features[0]
        self.shift = (points.shape[0] - 1) * (green.charge_coeffs * green._inv_sqrt_eigs)
        self.field = self.rows.sum(axis=0) - self.shift

    def values(self):
        rows, cols = _upper_triangle(self.points.shape[0])
        features = self.features or self.green.features(self.points)
        return self.green._feature_table(features, features)[rows, cols]

    def changes(self, i, rows):
        green, old = self.green, self.rows[i]
        self.drawn = rows
        basis = green.space.evaluate_basis(rows[:-1])
        self.scaled = basis[:, 1 : green.order + 1] * green._inv_sqrt_eigs
        return (self.scaled - old) @ (self.field - old)

    def accept(self, i, k):
        self.points[i] = self.drawn[k]
        self.rows[i] = self.scaled[k]
        self.field = self.rows.sum(axis=0) - self.shift
        self.features = None

    def against(self, points):
        features = self.features or self.green.features(self.points)
        return self.green._feature_table(self.green.features(points), features)


def kernel_node_matrix(kernel, space):
    """Node-by-node kernel table; singular diagonals replaced by cell averages."""
    matrix = kernel.pairwise(space, space.nodes, space.nodes)
    np.fill_diagonal(matrix, kernel.diagonal_values(space))
    return matrix


# -- one-body potentials ---------------------------------------------------------


class StaticPotential:
    """Fixed one-body potential V, identical at every stage n."""

    def __init__(self, fn):
        self.fn = fn

    @classmethod
    def from_expression(cls, space, expr):
        return cls(compile_point_function(expr, _coordinate_names(space)))

    def stage_values(self, n, points):
        return np.broadcast_to(
            np.asarray(self.fn(points), dtype=float), (points.shape[0],)
        )

    def limit_values(self, points):
        return self.stage_values(None, points)


class EnvironmentSequence:
    """Environment measures nu_n with their weak limit nu."""

    def __init__(self, stage_fn, limit):
        self._stage_fn = stage_fn
        self.limit = limit

    @classmethod
    def fixed(cls, measure):
        return cls(lambda n: measure, measure)

    def measure_at(self, n):
        return self._stage_fn(n)


class EnvironmentPotential:
    """V_n(x) = integral of an external pair kernel against nu_n."""

    def __init__(self, kernel, environment):
        self.kernel = kernel
        self.environment = environment

    def _against(self, measure, points):
        space = measure.space
        if isinstance(measure, GridMeasure):
            rows = self.kernel.pairwise(space, points, space.nodes)
            return rows @ measure.node_masses
        rows = self.kernel.pairwise(space, points, measure.points)
        return rows.mean(axis=1)

    def stage_values(self, n, points):
        return self._against(self.environment.measure_at(n), points)

    def limit_values(self, points):
        return self._against(self.environment.limit, points)


# -- energy models ---------------------------------------------------------------


@dataclass
class EnergyReport:
    """Decomposed microscopic energy of one configuration."""

    value: float
    internal: float
    external: float
    n: int
    pair_values: np.ndarray | None = None


class EnergyModel:
    """Base space + interaction kernel + beta schedule + one-body potentials."""

    def __init__(self, space, kernel, beta, potentials=()):
        self.space = space
        self.kernel = kernel
        self.beta = beta
        self.potentials = tuple(potentials)
        self._node_matrix = None

    def node_matrix(self):
        """Corrected kernel table on the grid (cached).  A Green kernel gives
        its rank-(order + 2) ``GreenOperator``, which offers products only."""
        if self._node_matrix is None:
            if isinstance(self.kernel, GreenKernel):
                self._node_matrix = self.kernel.model.kernel_matrix()
            else:
                self._node_matrix = kernel_node_matrix(self.kernel, self.space)
        return self._node_matrix

    def potential_stage_values(self, n, points):
        if not self.potentials:
            return np.zeros(points.shape[0])
        return sum(p.stage_values(n, points) for p in self.potentials)

    def potential_limit_values(self, points):
        if not self.potentials:
            return np.zeros(points.shape[0])
        return sum(p.limit_values(points) for p in self.potentials)


def _sorted_sum(values):
    """Sum in a canonical (sorted) order so permuting inputs changes nothing."""
    flat = np.asarray(values, dtype=float).ravel()
    return float(np.sort(flat).sum())


def w_n_report(model, config):
    """Microscopic energy with its internal/external decomposition."""
    return _w_n_report(model, config)


def _w_n_report(model, config, pairs=None):
    """``w_n_report``, reading the pair values from ``pairs`` of the
    configuration when the caller holds them."""
    config = model.space._as_points(config)
    n = config.shape[0]
    if n < 1:
        raise EnergyError("configuration must hold at least one point")
    if pairs is None:
        pairs = model.kernel.pairs(model.space, config)
    pair_values = pairs.values()
    internal = _sorted_sum(pair_values) / float(n) ** 2
    external = _sorted_sum(model.potential_stage_values(n, config)) / n
    value = internal + external
    return EnergyReport(
        value=value,
        internal=internal,
        external=external,
        n=n,
        pair_values=pair_values,
    )


def w_n(model, config):
    """Microscopic energy of one configuration (extended real)."""
    return w_n_report(model, config).value


def w_macro(model, mu):
    """Macroscopic energy of a grid density: half the pair double integral
    plus the potentials."""
    if not isinstance(mu, GridMeasure):
        raise EnergyError("macroscopic energy expects a GridMeasure")
    if mu.space is not model.space:
        raise EnergyError("measure lives on a different space")
    masses = mu.node_masses
    internal = float(masses @ model.node_matrix() @ masses) / 2.0
    external = float((masses * model.potential_limit_values(model.space.nodes)).sum())
    return internal + external


def confining_bound_check(model, config, inside_fn, kernel_floor, energy_bound=None):
    """Outside-mass bound for confining kernels.

    Hypotheses checked: the kernel is nonnegative, ``kernel_floor`` is a
    positive lower bound for G on pairs outside the compact set, and the
    configuration's energy is at most ``energy_bound`` (defaults to the
    realized energy).  Returns ``(mass_outside, bound)`` with

        bound = (2 * energy_bound / kernel_floor)^(1/2) + 2/n.
    """
    config = model.space._as_points(config)
    floor = model.kernel.lower_bound(model.space)
    if floor is None or floor < 0.0:
        raise EnergyError("confining bound requires a nonnegative kernel")
    if not kernel_floor > 0.0:
        raise EnergyError(f"kernel floor must be positive, got {kernel_floor!r}")
    inside = np.asarray(inside_fn(config), dtype=bool)
    outside = ~inside
    if outside.sum() >= 2:
        values = model.kernel.pairs(model.space, config[outside]).values()
        if values.min() < kernel_floor - 1e-12:
            raise EnergyError(
                f"kernel drops to {values.min()!r} < floor {kernel_floor!r} outside the set"
            )
    energy = w_n(model, config)
    if energy_bound is None:
        energy_bound = energy
    if not math.isfinite(energy) or energy > energy_bound + 1e-12:
        raise EnergyError(
            f"configuration energy {energy!r} exceeds the hypothesized bound {energy_bound!r}"
        )
    n = config.shape[0]
    mass_outside = float(outside.sum()) / n
    bound = (2.0 * energy_bound / kernel_floor) ** 0.5 + 2 / n
    return mass_outside, bound


# -- transforms of Euclidean models ----------------------------------------------


class _TransformPotential:
    """The pair tilt c_n (V(x) + V(y)) of a Euclidean transform as the
    one-body potential it sums to over the pairs i < j of n particles,
    c_n (n - 1)/n V.  Weak mode (no ``xi``) has c_n = 1, so stage n holds
    (n - 1)/n V and the limit V; strong mode has
    c_n = (n - n xi/beta_n)/(n - 1), so stage n holds (1 - xi/beta_n) V and
    the limit (1 - xi/beta) V."""

    def __init__(self, potential, beta, xi=None, eps=None):
        self.potential = potential
        self.beta = beta
        self.xi = xi
        self.eps = eps

    def coefficient_at(self, n):
        if self.xi is None:
            return 1.0
        return (n - (n / self.beta.beta_at(n)) * self.xi) / (n - 1.0)

    def a_coefficient(self, n):
        """Normalizing coefficient a_n -> 1 in the strong regime."""
        if self.xi is None:
            return 1.0
        return (self.coefficient_at(n) - self.eps) / (1.0 - self.eps)

    def stage_values(self, n, points):
        scale = (n - 1.0) / n if self.xi is None else 1.0 - self.xi / self.beta.beta_at(n)
        return scale * self.potential.limit_values(points)

    def limit_values(self, points):
        scale = 1.0 if self.xi is None else 1.0 - self.xi / self.beta.limit
        return scale * self.potential.limit_values(points)


def _reweighted_box(space, v_fn, factor):
    """Copy of a box space with reference density multiplied by exp(-factor*V)."""
    base_density = space.density_values if space.density_values is not None else (
        np.ones(space.n_nodes) / space.volume
    )
    raw = base_density * np.exp(-factor * v_fn(space.nodes))
    total = float((raw * space.cell_volumes).sum())
    if not math.isfinite(total) or total <= 0.0:
        raise EnergyError("tilted reference measure is not normalizable on the grid")
    weights = raw * space.cell_volumes / total
    params = dict(space.params)
    base_fn = space.params.get("_density_fn")
    base_norm = space.params.get("_density_norm", 1.0 / space.volume)

    def density_fn(pts):
        base = base_norm if base_fn is None else base_fn(pts) * base_norm
        return base * np.exp(-factor * v_fn(pts)) / total

    params["_density_fn"] = density_fn
    params["_density_norm"] = 1.0
    return Space(space.kind, space.dim, space.nodes.copy(), weights,
                 space.cell_volumes.copy(), params, density_values=raw / total)


def euclidean_transform(model, mode, xi=None, eps=None):
    """Fold the model's one static potential V into the reference measure
    and a pair tilt.

    ``weak``:   reference exp(-V) l, pair kernel G + V(x) + V(y).
    ``strong``: reference exp(-xi V) l, pair kernel G + c_n (V(x) + V(y)) with
                c_n = (n - (n/beta_n) xi)/(n-1) and
                a_n = (c_n - eps)/(1 - eps) -> 1; needs eps in [0,1).

    The tilt enters as the one-body potential it sums to over the pairs, so
    the result is an ``EnergyModel``: the model's kernel and potentials, with
    V replaced by a ``_TransformPotential``.
    """
    space = model.space
    if space.kind != "box":
        raise EnergyError("euclidean transforms apply to box spaces")
    pots = [p for p in model.potentials if isinstance(p, StaticPotential)]
    if len(pots) != 1:
        raise EnergyError("model needs exactly one static potential V to transform")
    potential = pots[0]
    v_nodes = potential.limit_values(space.nodes)
    if not np.all(np.isfinite(v_nodes)):
        raise EnergyError("potential V must be finite on the grid")
    if mode == "weak":
        factor, coefficient = 1.0, 1.0
        tilt = _TransformPotential(potential, model.beta)
    elif mode == "strong":
        if xi is None or eps is None:
            raise EnergyError("strong mode needs xi and eps")
        if not 0.0 <= eps < 1.0:
            raise EnergyError(f"eps must lie in [0, 1), got {eps!r}")
        factor, coefficient = float(xi), float(eps)
        tilt = _TransformPotential(potential, model.beta, factor, coefficient)
    else:
        raise EnergyError(f"unknown transform mode {mode!r}")
    floor = model.kernel.lower_bound(space)
    if floor is not None and not math.isfinite(floor + 2.0 * coefficient * float(v_nodes.min())):
        raise EnergyError("G + c(V(x) + V(y)) is not bounded below on the grid")
    return EnergyModel(_reweighted_box(space, potential.limit_values, factor), model.kernel,
                       model.beta, [tilt if p is potential else p for p in model.potentials])


# -- finite atom spaces ------------------------------------------------------------


class FiniteEnergyModel:
    """Energy model on a finite atom space: a symmetric m x m pair matrix G
    defines the microscopic energy of the type class with atom counts c,
    the pair sum over within-atom and cross-atom pairs divided by n^2.
    """

    def __init__(self, space, beta, pair_matrix):
        if not isinstance(space, FiniteSpace):
            raise EnergyError("FiniteEnergyModel needs a FiniteSpace")
        self.space = space
        self.beta = beta
        pair_matrix = np.asarray(pair_matrix, dtype=float)
        m = space.n_atoms
        if pair_matrix.shape != (m, m):
            raise EnergyError(f"pair matrix must be {m}x{m}")
        if not np.array_equal(pair_matrix, pair_matrix.T):
            raise EnergyError("pair matrix must be symmetric")
        self.pair_matrix = pair_matrix

    def w_counts(self, counts, n=None):
        """Microscopic energy of a configuration with the given atom counts."""
        counts = np.asarray(counts)
        if n is None:
            n = int(counts.sum())
        return float(self.class_energies(counts[None, :], n)[0])

    def class_energies(self, counts, n):
        """Microscopic energies of the rows of an (r, m) array of atom counts."""
        if n < 1:
            raise EnergyError(f"need n >= 1 particles, got {n}")
        c = np.asarray(counts, dtype=float)
        g = self.pair_matrix
        # cross pairs c_a c_b G_ab (a < b) plus within-atom pairs C(c_a, 2) G_aa,
        # term by term so that a row's value does not depend on its batch
        total = np.zeros(c.shape[0])
        for a in range(c.shape[1]):
            total += c[:, a] * (c[:, a] - 1.0) / 2.0 * g[a, a]
            for b in range(a + 1, c.shape[1]):
                total += c[:, a] * c[:, b] * g[a, b]
        return total / float(n) ** 2

    def w_mean(self, mu):
        """Macroscopic energy (1/2) mu^T G mu of a distribution vector, or of
        each row of an (r, m) array of them."""
        rows = np.asarray(mu, dtype=float).T
        values = 0.5 * ((self.pair_matrix @ rows) * rows).sum(axis=0)
        return values if rows.ndim == 2 else float(values)
