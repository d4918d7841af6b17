"""Pair interaction energies, microscopic and macroscopic.

The microscopic energy of a configuration x = (x_1..x_n) under a pair
kernel G plus one-body potentials V is

    w_n(x) = n^{-2} * sum over pairs i < j G(x_i, x_j)
             + n^{-1} * sum_i V_n(x_i).

Its pair sum reads the n(n-1)/2 pairs i < j only, evaluated elementwise by
``Kernel.values`` (the Green kernel excepted) without an n x n table.

The macroscopic energy of a density mu is

    w(mu) = (1/2) * double integral of G d(mu tensor mu) + integral of V d(mu).

Singular pair kernels (log, Riesz) are integrated on the grid by excluding
the self-pair and replacing the diagonal with the kernel's cell average: a
node with cell volume v is assigned the mean kernel value over a ball of the
same volume (radius R, with mean(-log r) = -log R + 1/d and
mean(r^-s) = d/(d-s) * R^-s in dimension d).  The same corrected node matrix
is used by the free-energy minimizer, so both sides of every comparison see
one discretization.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EnergyError
from .expressions import compile_point_function
from .measures import EmpiricalMeasure, FiniteSpace, GridMeasure
from .spaces import _coordinate_names

__all__ = [
    "BetaSchedule",
    "Kernel",
    "ConstantKernel",
    "LogChordKernel",
    "RieszKernel",
    "GreenKernel",
    "CallableKernel",
    "TiltedKernel",
    "StaticPotential",
    "EnvironmentPotential",
    "EnvironmentSequence",
    "EnergyModel",
    "EnergyReport",
    "FiniteEnergyModel",
    "TransformedEnergyModel",
    "w_n",
    "w_n_report",
    "w_macro",
    "expected_energy",
    "confining_bound_check",
    "euclidean_transform",
    "kernel_node_matrix",
]


class BetaSchedule:
    """Inverse-temperature sequence beta_n with its limit."""

    def __init__(self, fn, limit, description):
        self._fn = fn
        self.limit = limit
        self.description = description

    @classmethod
    def constant(cls, beta):
        beta = float(beta)
        if not beta > 0.0:
            raise EnergyError(f"beta must be positive, got {beta!r}")
        return cls(lambda n: beta, beta, f"constant({beta!r})")

    @classmethod
    def linear(cls, coefficient=1.0):
        coefficient = float(coefficient)
        if not coefficient > 0.0:
            raise EnergyError(f"linear beta coefficient must be positive, got {coefficient!r}")
        return cls(lambda n: coefficient * n, math.inf, f"linear({coefficient!r})")

    @classmethod
    def from_callable(cls, fn, limit):
        return cls(fn, float(limit), "custom")

    def beta_at(self, n):
        return float(self._fn(n))


# -- kernels -------------------------------------------------------------------


class Kernel:
    """Symmetric pair interaction kernel G(x, y) on a base space.
    ``values(space, a, b)`` evaluates it elementwise on broadcastable point
    arrays whose last axis holds the coordinates.  Singular kernels give
    +inf on coinciding points and leave the divide warning to the caller's
    ``np.errstate``."""

    singular = False

    def values(self, space, a, b):
        raise EnergyError(f"{type(self).__name__} has no elementwise values")

    def pairwise(self, space, x, y):
        """Kernel table between two point arrays, from ``values``."""
        a, b = space._as_points(x)[:, None], space._as_points(y)[None]
        with np.errstate(divide="ignore"):
            return self.values(space, a, b)

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

    singular = True

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

    singular = True

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

    def _model_on(self, space):
        """The Green model, which must live on ``space``."""
        if space is not self.model.space:
            raise EnergyError("Green kernel evaluated on a different space")
        return self.model

    def diagonal_values(self, space):
        return self.model.node_diagonal()

    def lower_bound(self, space):
        return self.model.lower_bound()


class CallableKernel(Kernel):
    """User-supplied pair kernel; ``fn(space, a, b)`` maps two broadcastable
    point arrays, coordinates on the last axis, to values elementwise.
    Fekete searches descend it on finite-difference gradients whether or
    not it is smooth: a kinked kernel such as pi - d still reaches its
    minimum."""

    def __init__(self, fn, bound=None, singular=False):
        self.fn = fn
        self.bound = bound
        self.singular = singular

    def values(self, space, a, b):
        # a value constant along an axis, or a scalar, fills the whole shape
        shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
        return np.full(shape, self.fn(space, a, b), dtype=float)

    def diagonal_values(self, space):
        if self.singular:
            raise EnergyError("singular callable kernel has no diagonal correction")
        return self.values(space, space.nodes[:, None], space.nodes[:, None])[:, 0]

    def lower_bound(self, space):
        return self.bound


class TiltedKernel(Kernel):
    """G(x, y) + coefficient * (V(x) + V(y)) for a one-body tilt V."""

    def __init__(self, base, v_fn, coefficient=1.0):
        self.base = base
        self.v_fn = v_fn
        self.coefficient = float(coefficient)
        self.singular = base.singular

    def values(self, space, a, b):
        # v_fn maps (r, d) point arrays to (r,)
        v = lambda pts: self.v_fn(pts.reshape(-1, pts.shape[-1])).reshape(pts.shape[:-1])
        return self.base.values(space, a, b) + self.coefficient * (v(a) + v(b))

    def diagonal_values(self, space):
        return self.base.diagonal_values(space) + 2.0 * self.coefficient * self.v_fn(space.nodes)

    def lower_bound(self, space):
        base = self.base.lower_bound(space)
        if base is None:
            return None
        v = self.v_fn(space.nodes)
        extreme = v.min() if self.coefficient >= 0 else v.max()
        return base + 2.0 * self.coefficient * float(extreme)


def kernel_node_matrix(kernel, space):
    """Node-by-node kernel table; singular diagonals replaced by cell averages."""
    matrix = kernel.pairwise(space, space.nodes, space.nodes)
    np.fill_diagonal(matrix, kernel.diagonal_values(space))
    return matrix


# -- one-body potentials ---------------------------------------------------------


class StaticPotential:
    """Fixed one-body potential V, identical at every stage n."""

    def __init__(self, fn, description="potential"):
        self.fn = fn
        self.description = description

    @classmethod
    def from_expression(cls, space, expr):
        return cls(compile_point_function(expr, _coordinate_names(space)),
                   description=expr)

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

    @classmethod
    def point_stream(cls, space, stream_points, limit):
        stream_points = space._as_points(stream_points)

        def stage(n):
            if n > stream_points.shape[0]:
                raise EnergyError(
                    f"environment stream holds {stream_points.shape[0]} points, stage {n} requested"
                )
            return EmpiricalMeasure(space, stream_points[:n])

        return cls(stage, limit)

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

    def kernel_floor(self):
        return self.kernel.lower_bound(self.space)


def _sorted_sum(values):
    """Sum in a canonical (sorted) order so permuting inputs changes nothing."""
    flat = np.asarray(values, dtype=float).ravel()
    return float(np.sort(flat).sum())


@functools.lru_cache(maxsize=64)
def _upper_triangle(n):
    """Read-only index pair of the strict upper triangle of an n x n table."""
    rows, cols = np.triu_indices(n, k=1)
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


def _internal_pair_values(model, config, features=None):
    """Kernel values on the pairs i < j in row-major order: elementwise, or
    for the Green kernel entries of its matrix-product table, built from
    ``features`` (``GreenModel.features(config)``) when they are given."""
    kernel, space = model.kernel, model.space
    rows, cols = _upper_triangle(config.shape[0])
    if isinstance(kernel, GreenKernel):
        if features is None:
            return kernel.pairwise(space, config, config)[rows, cols]
        return kernel.model._feature_table(features, features)[rows, cols]
    with np.errstate(divide="ignore"):
        return kernel.values(space, config[rows], config[cols])


def w_n_report(model, config):
    """Microscopic energy with its internal/external decomposition."""
    return _w_n_report(model, config)


def _w_n_report(model, config, features=None):
    """``w_n_report``; a Green model's pair table comes from ``features``
    of the configuration when the caller holds them."""
    config = model.space._as_points(config)
    n = config.shape[0]
    if n < 1:
        raise EnergyError("configuration must hold at least one point")
    pair_values = _internal_pair_values(model, config, features)
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


def _macro_internal_integral(model, mu, clip=None):
    """Double integral of G d(mu tensor mu) with the corrected diagonal."""
    masses = mu.node_masses
    if clip is not None and isinstance(model.kernel, GreenKernel):
        # clipped block by block: the Green table is never held whole
        green = model.kernel.model
        diagonal = green.node_diagonal()
        total = 0.0
        for part, block in green.table_blocks():
            np.fill_diagonal(block[:, part.start :], diagonal[part])
            total += float(masses[part] @ np.minimum(block, clip) @ masses)
        return total
    matrix = model.node_matrix()
    if clip is not None:
        matrix = np.minimum(matrix, clip)
    return float(masses @ matrix @ masses)


def w_macro(model, mu, clip=None):
    """Macroscopic energy of a grid density: half the pair double integral
    plus the potentials.

    ``clip`` truncates the pair kernel at G ∧ clip (monotone approximation)."""
    if not isinstance(mu, GridMeasure):
        raise EnergyError("macroscopic energy expects a GridMeasure")
    if mu.space is not model.space:
        raise EnergyError("measure lives on a different space")
    internal = _macro_internal_integral(model, mu, clip=clip) / 2.0
    external = float((mu.node_masses * model.potential_limit_values(model.space.nodes)).sum())
    return internal + external


def expected_energy(model, mu, n):
    """E[w_n] under mu^(tensor n):  n^{-2} C(n,2) integral G d(mu tensor mu)
    plus the stage-n one-body terms."""
    if n < 1:
        raise EnergyError(f"need n >= 1, got {n}")
    integral = _macro_internal_integral(model, mu)
    coefficient = math.comb(n, 2) / float(n) ** 2
    external = float(
        (mu.node_masses * model.potential_stage_values(n, model.space.nodes)).sum()
    )
    return coefficient * integral + external


def confining_bound_check(model, config, inside_fn, kernel_floor, energy_bound=None):
    """Outside-mass bound for confining kernels.

    Hypotheses checked: the kernel is nonnegative, ``kernel_floor`` is a
    positive lower bound for G on pairs outside the compact set, and the
    configuration's energy is at most ``energy_bound`` (defaults to the
    realized energy).  Returns ``(mass_outside, bound)`` with

        bound = (2 * energy_bound / kernel_floor)^(1/2) + 2/n.
    """
    config = model.space._as_points(config)
    floor = model.kernel_floor()
    if floor is None or floor < 0.0:
        raise EnergyError("confining bound requires a nonnegative kernel")
    if not kernel_floor > 0.0:
        raise EnergyError(f"kernel floor must be positive, got {kernel_floor!r}")
    inside = np.asarray(inside_fn(config), dtype=bool)
    outside = ~inside
    if outside.sum() >= 2:
        probe = EnergyModel(model.space, model.kernel, model.beta)
        values = _internal_pair_values(probe, config[outside])
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


class TransformedEnergyModel:
    """Result of a weak/strong transform: reference space plus an n-dependent
    kernel family with its limit."""

    def __init__(self, space, base_kernel, v_fn, beta, mode, xi=None, eps=None):
        self.space = space
        self.base_kernel = base_kernel
        self.v_fn = v_fn
        self.beta = beta
        self.mode = mode
        self.xi = xi
        self.eps = eps

    def coefficient_at(self, n):
        if self.mode == "weak":
            return 1.0
        beta_n = self.beta.beta_at(n)
        return (n - (n / beta_n) * self.xi) / (n - 1.0)

    def a_coefficient(self, n):
        """Normalizing coefficient a_n -> 1 in the strong regime."""
        if self.mode == "weak":
            return 1.0
        return (self.coefficient_at(n) - self.eps) / (1.0 - self.eps)

    def kernel_at(self, n):
        return TiltedKernel(self.base_kernel, self.v_fn, self.coefficient_at(n))

    @property
    def limit_kernel(self):
        return TiltedKernel(self.base_kernel, self.v_fn, 1.0)


def _reweighted_box(space, v_fn, factor):
    """Copy of a box space with reference density multiplied by exp(-factor*V)."""
    from .spaces import Space

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


def euclidean_transform(model, mode, xi=None, eps=None, potential=None):
    """Fold a confining potential into the kernel and reference measure.

    ``weak``:   reference exp(-V) l, kernel G + V(x) + V(y).
    ``strong``: reference exp(-xi V) l, kernel family
                G + (n - (n/beta_n) xi)/(n-1) (V(x) + V(y)) with
                a_n = (coefficient - eps)/(1 - eps) -> 1; needs eps in [0,1).
    """
    space = model.space
    if space.kind != "box":
        raise EnergyError("euclidean transforms apply to box spaces")
    pots = [p for p in model.potentials if isinstance(p, StaticPotential)]
    if potential is None:
        if len(pots) != 1:
            raise EnergyError("model needs exactly one static potential V to transform")
        potential = pots[0]
    v_fn = lambda pts: np.asarray(potential.fn(pts), dtype=float)
    v_nodes = v_fn(space.nodes)
    if not np.all(np.isfinite(v_nodes)):
        raise EnergyError("potential V must be finite on the grid")
    if mode == "weak":
        factor = 1.0
    elif mode == "strong":
        if xi is None or eps is None:
            raise EnergyError("strong mode needs xi and eps")
        if not 0.0 <= eps < 1.0:
            raise EnergyError(f"eps must lie in [0, 1), got {eps!r}")
        base_floor = model.kernel.lower_bound(space)
        probe = TiltedKernel(model.kernel, v_fn, eps)
        if base_floor is not None:
            floor = probe.lower_bound(space)
            if floor is None or not math.isfinite(floor):
                raise EnergyError("G + eps(V + V) is not bounded below on the grid")
        factor = float(xi)
    else:
        raise EnergyError(f"unknown transform mode {mode!r}")
    new_space = _reweighted_box(space, v_fn, factor)
    if mode == "weak":
        tilted = TiltedKernel(model.kernel, v_fn, 1.0)
        floor = tilted.lower_bound(space)
        if floor is not None and not math.isfinite(floor):
            raise EnergyError("transformed kernel is not bounded below")
        return EnergyModel(new_space, tilted, model.beta)
    return TransformedEnergyModel(new_space, model.kernel, v_fn, model.beta,
                                  "strong", xi=float(xi), eps=float(eps))


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
