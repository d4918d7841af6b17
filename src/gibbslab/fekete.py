"""Zero-temperature configuration optimization.

Finds n-point configurations minimizing the microscopic energy w_n,
optionally tilted by a functional f of the empirical measure, and compares
the resulting minima against the macroscopic infimum inf w (resp.
inf {w + f}) computed on the node grid.

The continuous optimizer is a multi-start local search on w_n itself: an
integral tilt is first folded into the model as a one-body potential, and
any other functional is refused, as the macroscopic infimum could not judge
it.  Particles are drawn from the reference distribution, descended by
geodesic gradient steps with Armijo backtracking (kinked kernels such as
pi - d descend on their finite-difference gradients too), then polished by
single-particle relocation sweeps that may exchange a particle's position
for the best of a batch of fresh draws, all scored by one collision table
and the sampler's batched energy delta, and descended once more.  Collision
tests and energies read only the n(n-1)/2 pairs i < j.  Finite atom spaces
are solved exactly by enumerating occupation-count classes.  Results are
best-found local minima, not certified global optima; the circle log-gas,
whose global minimum is known in closed form, serves as the regression
anchor for the optimizer.

One solver, ``_limit_infimum``, gives inf {f + F} for F = w + D/beta: the
Fekete infimum at beta = inf, and the Laplace limits of ``ldp`` at the
model's limit beta.

Functionals of the empirical measure come in two representable classes:
plain integrals ``f(mu) = integral of g dmu``, which every space takes, and
scalar compositions of several such integrals, which only finite atom spaces
take: there exact enumeration and the simplex limit can judge them.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .energy import (
    EnergyModel,
    FiniteEnergyModel,
    LogChordKernel,
    StaticPotential,
    _upper_triangle,
    w_n,
)
from .equilibrium import _equilibrium, _limit_tables, _mirror_descent
from .errors import CollisionError, EnergyError
from .measures import FiniteSpace, relative_entropy
from .rng import derive_rng
from .sampler import _continuous_deltas
from .simplex import class_table, simplex_minimize

__all__ = [
    "MeasureFunctional",
    "IntegralFunctional",
    "ComposedFunctional",
    "FeketeResult",
    "fekete_minimize",
    "macro_infimum",
    "InfimaTable",
    "infima_convergence_table",
]

_COLLISION_TOL = 1e-12
_POLISH_CANDIDATES = 8  # fresh reference draws per particle in a relocation sweep


# -- functionals of the empirical measure --------------------------------------------


class MeasureFunctional:
    """Functional of a probability measure, evaluated on rows of atom-mass
    vectors over a finite space."""

    def simplex_values(self, space, taus):
        raise NotImplementedError


class IntegralFunctional(MeasureFunctional):
    """f(mu) = integral of g dmu.

    ``g`` is a callable on (r, d) point arrays for continuous spaces, or a
    length-m vector of per-atom values for finite spaces."""

    def __init__(self, g):
        self.g = g

    def point_values(self, points):
        """g at (r, d) points of a continuous space."""
        if not callable(self.g):
            raise EnergyError(
                "per-atom value vectors need a finite space; continuous spaces "
                "take a function of the coordinates (an 'expr' block)")
        return np.asarray(self.g(points), dtype=float)

    def node_values(self, space):
        """g at the atoms of a finite space or at the nodes of a grid."""
        if not isinstance(space, FiniteSpace):
            return self.point_values(space.nodes)
        if callable(self.g):
            raise EnergyError("finite-space functionals need a per-atom value vector")
        values = np.asarray(self.g, dtype=float)
        if values.shape != (space.n_atoms,):
            raise EnergyError(
                f"per-atom vector has shape {values.shape}, expected ({space.n_atoms},)"
            )
        return values

    def simplex_values(self, space, taus):
        return np.asarray(taus, dtype=float) @ self.node_values(space)


def _fold_functional(model, f):
    """Copy of ``model`` with the integral functional ``f`` added as a
    one-body potential, so that its energy is w_n + f(i_n); any other f
    raises EnergyError."""
    if not isinstance(f, IntegralFunctional):
        raise EnergyError("continuous spaces support integral functionals only")
    tilt = StaticPotential(f.point_values)
    return EnergyModel(model.space, model.kernel, model.beta,
                       potentials=[*model.potentials, tilt])


class ComposedFunctional(MeasureFunctional):
    """f(mu) = phi(I_1(mu), ..., I_k(mu)) for integral parts I_j."""

    def __init__(self, phi, parts):
        self.phi = phi
        self.parts = tuple(parts)
        if not self.parts:
            raise EnergyError("composition needs at least one integral part")

    def simplex_values(self, space, taus):
        columns = [p.simplex_values(space, taus) for p in self.parts]
        return np.array([float(self.phi(*vals)) for vals in zip(*columns)])


# -- results -------------------------------------------------------------------------


@dataclass
class FeketeResult:
    """Best configuration found over all restarts.

    ``points`` is the canonicalized configuration: rows sorted by coordinate
    key for continuous spaces, sorted atom labels for finite spaces.
    ``restart_values`` holds one final objective value per restart
    (``+inf`` for restarts abandoned after a particle collision), so
    ``value == min(restart_values)`` always holds.
    """

    points: np.ndarray
    value: float
    restarts: int
    restart_values: np.ndarray
    gradient_norm: float | None
    iterations: int
    collisions: int = 0
    trace: np.ndarray | None = None


# -- geometry helpers ----------------------------------------------------------------


def _retract(space, config):
    """Map an ambient/coordinate perturbation back onto the space."""
    kind = space.kind
    if kind == "circle":
        return config % (2.0 * np.pi)
    if kind == "torus":
        return config % 1.0
    if kind == "sphere":
        return config / np.linalg.norm(config, axis=1, keepdims=True)
    bounds = np.asarray(space.params["bounds"], dtype=float)
    return np.clip(config, bounds[:, 0], bounds[:, 1])


def _closest_pair(space, config):
    """Smallest geodesic distance over the pairs i < j, and its pair: the
    full table's first row-major minimum, ties included, as the table is
    exactly symmetric."""
    n = config.shape[0]
    if n < 2:
        return math.inf, None
    rows, cols = _upper_triangle(n)
    dists = space.distance(config[rows], config[cols])
    k = int(np.argmin(dists))
    return float(dists[k]), (int(rows[k]), int(cols[k]))


def _canonical(config):
    """Sort configuration rows lexicographically by coordinates."""
    keys = tuple(config[:, c] for c in range(config.shape[1] - 1, -1, -1))
    return config[np.lexsort(keys)]


# -- gradients -------------------------------------------------------------------------


def _analytic_pair_gradient(model, config):
    """Closed-form pair-energy gradient where available (circle log kernel)."""
    kernel, space = model.kernel, model.space
    if isinstance(kernel, LogChordKernel) and space.kind == "circle":
        theta = config[:, 0]
        delta = theta[:, None] - theta[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            cot = 1.0 / np.tan(0.5 * delta)
        np.fill_diagonal(cot, 0.0)
        n = config.shape[0]
        return (-kernel.scale * 0.5 * cot.sum(axis=1) / n ** 2)[:, None]
    return None


def _fd_pair_gradient(model, config, h):
    """Central-difference pair-energy gradient, one coordinate at a time, from
    the tables of the shifted points against the configuration.  On the sphere
    they are renormalized, so the quotient is the tangential derivative."""
    space = model.space
    pairs = model.kernel.pairs(space, config)
    n, dim = config.shape
    grad = np.empty_like(config)
    for c in range(dim):
        shift = np.zeros((1, dim))
        shift[0, c] = h
        plus = _retract(space, config + shift)
        minus = _retract(space, config - shift)
        with np.errstate(divide="ignore", invalid="ignore"):
            diff = pairs.against(plus) - pairs.against(minus)
        np.fill_diagonal(diff, 0.0)
        grad[:, c] = diff.sum(axis=1) / (2.0 * h) / n ** 2
    return grad


def _gradient(model, config, h=1e-6):
    grad = _analytic_pair_gradient(model, config)
    if grad is None:
        grad = _fd_pair_gradient(model, config, h)
    if model.potentials:
        space = model.space
        n, dim = config.shape
        for c in range(dim):
            shift = np.zeros((1, dim))
            shift[0, c] = h
            plus = _retract(space, config + shift)
            minus = _retract(space, config - shift)
            dv = model.potential_stage_values(n, plus) - model.potential_stage_values(n, minus)
            grad[:, c] += dv / (2.0 * h) / n
    return grad


# -- local searches -------------------------------------------------------------------


def _gradient_descent(model, config, max_iters, grad_tol):
    """Geodesic descent with Barzilai-Borwein trial steps and Armijo
    backtracking; accepted values are strictly decreasing."""
    space = model.space
    value = w_n(model, config)
    if not math.isfinite(value):
        raise CollisionError("initial configuration has infinite energy",
                             pair=_closest_pair(space, config)[1])
    trace = [value]
    eta = 0.1
    prev_config = prev_grad = None
    iterations = 0
    for iterations in range(1, max_iters + 1):
        grad = _gradient(model, config)
        if not np.isfinite(grad).all():
            raise CollisionError("gradient blew up near the diagonal",
                                 pair=_closest_pair(space, config)[1])
        gnorm2 = float((grad * grad).sum())
        if math.sqrt(gnorm2) <= grad_tol:
            break
        if prev_grad is not None:
            dx = (config - prev_config).ravel()
            dg = (grad - prev_grad).ravel()
            dgg = float(dg @ dg)
            if dgg > 0.0:
                bb = abs(float(dx @ dg)) / dgg
                if math.isfinite(bb) and bb > 0.0:
                    eta = min(max(bb, 1e-10), 1e3)
        prev_config, prev_grad = config, grad
        accepted = False
        while eta >= 1e-18:
            cand = _retract(space, config - eta * grad)
            dist, _ = _closest_pair(space, cand)
            cand_value = math.inf if dist < _COLLISION_TOL else w_n(model, cand)
            if cand_value < value - 1e-6 * eta * gnorm2:
                config, value = cand, cand_value
                trace.append(value)
                accepted = True
                break
            eta *= 0.5
        if not accepted:
            break
    return config, value, iterations, trace


@np.errstate(divide="ignore", invalid="ignore")  # a draw on a particle divides by zero
def _relocation_polish(model, config, rng, value, rounds):
    """Single-particle exchange sweeps: each particle may trade its position
    for the best of a batch of fresh reference draws when that strictly
    lowers w_n.  The batch costs one geodesic table for the collision mask
    and one batched energy delta (``sampler._continuous_deltas``, under this
    function's one errstate) on ``Kernel.pairs`` of one copy of the
    configuration, which take each exchange; an integral tilt arrives folded
    into the model as a one-body potential, so the deltas score it too."""
    space = model.space
    n = config.shape[0]
    config = config.copy()
    pairs = model.kernel.pairs(space, config)
    improved_any = False
    for _ in range(rounds):
        improved = False
        for i in range(n):
            draws = space.sample_points(rng, _POLISH_CANDIDATES)
            gaps = space.distance(draws[:, None], config[None])
            gaps[:, i] = np.inf
            clear = gaps.min(axis=1) >= _COLLISION_TOL
            deltas = _continuous_deltas(model, pairs, i, np.concatenate((draws, config[i : i + 1])))
            # colliding draws and NaN deltas never win; argmin keeps the first
            # of equal minima, as a strict-improvement scan would
            deltas[~clear | np.isnan(deltas)] = math.inf
            best = int(np.argmin(deltas))
            best_delta = deltas[best]
            if best_delta < -1e-13 * max(1.0, abs(value)):
                pairs.accept(i, best)
                value += best_delta
                improved = improved_any = True
        if not improved:
            break
    if improved_any:
        value = w_n(model, config)
    return config, value, improved_any


def _collision_free_init(space, rng, n):
    for _ in range(50):
        config = space.sample_points(rng, n)
        if _closest_pair(space, config)[0] >= _COLLISION_TOL:
            return config
    raise CollisionError("could not draw a collision-free initial configuration")


# -- main entry points ------------------------------------------------------------------


def _finite_fekete(model, n, f):
    table = class_table(model, n)
    values = table.energies
    if f is not None:
        values = values + f.simplex_values(model.space, table.counts / n)
    best = int(np.argmin(values))
    labels = np.repeat(np.arange(model.space.n_atoms), table.counts[best])
    value = float(values[best])
    return FeketeResult(
        points=labels,
        value=value,
        restarts=1,
        restart_values=np.array([value]),
        gradient_norm=None,
        iterations=len(values),
    )


def fekete_minimize(model, n, f=None, restarts=8, seed=0, max_iters=2000,
                    grad_tol=1e-9, polish_rounds=2):
    """Minimize w_n (plus an optional empirical-measure functional) over
    n-point configurations.

    Finite atom spaces are solved exactly by enumeration, for integral and
    composed functionals alike.  Continuous spaces take integral f only: it
    is folded into the model as a one-body potential, then ``restarts``
    independent local searches (reproducible streams derived from ``seed``)
    minimize w_n of the folded model; restarts that collide are recorded as
    ``+inf`` and the best survivor wins, with ties broken by the canonical
    coordinate key.
    """
    if isinstance(model, FiniteEnergyModel):
        return _finite_fekete(model, n, f)
    if not isinstance(model, EnergyModel):
        raise EnergyError(f"cannot optimize a {type(model).__name__}")
    if n < 2:
        raise EnergyError(f"need at least 2 particles, got {n}")
    for name, count, least in (("restarts", restarts, 1), ("max_iters", max_iters, 1),
                               ("polish_rounds", polish_rounds, 0)):
        if count < least:
            raise EnergyError(f"{name} must be >= {least}, got {count}")
    if f is not None:
        model = _fold_functional(model, f)
    values, configs, iter_counts, traces = [], [], [], []
    collisions = 0
    for r in range(restarts):
        rng = derive_rng(seed, "fekete", f"restart{r}")
        try:
            config = _collision_free_init(model.space, rng, n)
            config, value, iters, trace = _gradient_descent(model, config, max_iters, grad_tol)
            config, value, moved = _relocation_polish(
                model, config, rng, value, polish_rounds)
            if moved:
                trace.append(value)
                config, value, extra, tail = _gradient_descent(model, config, max_iters, grad_tol)
                iters += extra
                trace.extend(tail[1:])
        except CollisionError:
            collisions += 1
            values.append(math.inf)
            configs.append(None)
            iter_counts.append(0)
            traces.append(None)
            continue
        values.append(value)
        configs.append(_canonical(config))
        iter_counts.append(iters)
        traces.append(trace)
    # deterministic merge: order restarts by (value, canonical byte key)
    order = sorted(range(restarts),
                   key=lambda i: (values[i],
                                  b"" if configs[i] is None else configs[i].tobytes()))
    best = order[0]
    if configs[best] is None:
        raise CollisionError("every restart ended in a particle collision")
    points = configs[best]
    return FeketeResult(
        points=points,
        value=values[best],
        restarts=restarts,
        restart_values=np.asarray(values),
        gradient_norm=float(np.abs(_gradient(model, points)).max()),
        iterations=iter_counts[best],
        collisions=collisions,
        trace=np.asarray(traces[best]),
    )


def _finite_free_energy(model, taus, beta):
    """w(tau) + D(tau || pi) / beta for each row of an (r, m) array;
    beta = inf drops the entropy term."""
    energies = model.w_mean(taus)
    if math.isinf(beta):
        return energies
    return energies + relative_entropy(taus, model.space.probs) / beta


def _limit_infimum(model, f, beta, grid_steps=200):
    """inf {f + F} over probability measures for the limit free energy
    F = w + D( . || ref) / beta; beta = inf drops the entropy term.

    (M, V, ref) come from ``equilibrium._limit_tables``, and an integral f
    adds its atom or node values to V.  Grid models run the mirror descent
    of ``minimize_free_energy`` from the node weights; finite models a
    refining simplex grid search, polished by mirror descent at finite beta
    when f is an integral or None.  Returns (value, witness).
    """
    matrix, v, ref = _limit_tables(model, "the limit infimum")
    space = model.space
    linear = f is None or isinstance(f, IntegralFunctional)
    if isinstance(model, EnergyModel) and not linear:
        raise EnergyError("continuous spaces support integral functionals only")
    if not (f is None or isinstance(f, MeasureFunctional)):
        raise EnergyError(f"f must be a MeasureFunctional or None, got {type(f).__name__}")
    if f is not None and linear:
        v = v + f.node_values(space)
    if isinstance(model, EnergyModel):
        result = _equilibrium(space, matrix, v, beta, ref.copy())
        return result.value, result.measure

    def objective(taus):
        values = _finite_free_energy(model, taus, beta)
        if f is not None:
            values = values + f.simplex_values(space, taus)
        return values

    value, tau = simplex_minimize(objective, space.n_atoms, steps=grid_steps)
    if math.isfinite(beta) and linear:
        init = np.maximum(tau, 1e-12)
        masses = _mirror_descent(matrix, v, ref, beta, init / init.sum()).masses
        total = float(objective(masses[None, :])[0])
        if total < value:
            value, tau = total, masses
    return value, tau


def macro_infimum(model, f=None, grid_steps=200):
    """Macroscopic infimum inf {w + f} over probability measures: the limit
    solver at beta = inf (exact for convex kernels, best-found otherwise).
    Returns (value, witness)."""
    return _limit_infimum(model, f, math.inf, grid_steps)


def _particle_counts(n_values, least=1):
    """``n_values`` as a list of ints; raises EnergyError unless it holds at
    least ``least`` strictly increasing counts."""
    n_values = [int(n) for n in n_values]
    if len(n_values) < least or any(b <= a for a, b in zip(n_values, n_values[1:])):
        raise EnergyError(
            f"need at least {least} strictly increasing particle counts, got {n_values}")
    return n_values


@dataclass
class InfimaTable:
    """Discrete minima against the macroscopic infimum, per particle count."""

    n_values: list
    inf_values: np.ndarray
    macro_inf: float
    gaps: np.ndarray
    slope: float
    final_gap: float
    threshold: float
    passed: bool
    results: list
    witness: object = field(default=None, repr=False)


def infima_convergence_table(model, n_values, f=None, threshold=0.05,
                             restarts=4, seed=0, max_iters=2000, grid_steps=200):
    """Tabulate the best-found discrete minima inf w_n (+ f) against the
    macroscopic infimum; the table passes when the gap trend slopes down
    (least-squares slope < 0) and the final gap beats ``threshold``."""
    n_values = _particle_counts(n_values, least=2)
    macro_inf, witness = macro_infimum(model, f=f, grid_steps=grid_steps)
    results = [fekete_minimize(model, n, f=f, restarts=restarts, seed=seed,
                               max_iters=max_iters) for n in n_values]
    inf_values = np.array([r.value for r in results])
    gaps = np.abs(inf_values - macro_inf)
    slope = float(np.polyfit(n_values, gaps, 1)[0])
    final_gap = float(gaps[-1])
    passed = bool(slope < 0.0 and final_gap < threshold)
    return InfimaTable(
        n_values=n_values,
        inf_values=inf_values,
        macro_inf=float(macro_inf),
        gaps=gaps,
        slope=slope,
        final_gap=final_gap,
        threshold=float(threshold),
        passed=passed,
        results=results,
        witness=witness,
    )
