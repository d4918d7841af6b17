"""Metropolis sampling of interacting-particle ensembles.

The chains target the tilted product measure with density proportional to

    exp(-n beta_n w_n(x)) d(reference)^n,

using single-particle moves: geodesic random-walk proposals on circle,
torus, sphere and box spaces, and per-particle independence proposals
(fresh atom from the reference distribution) on finite atom spaces, which
cancel the reference factor out of the acceptance ratio.

Energies are cached and updated incrementally; every 1000 steps of a chain,
burn-in included, the cache is recomputed from scratch and must agree to
1e-9, so a drifting update rule cannot silently corrupt a run.  All
randomness flows through one generator derived from (seed, name), making
equal-seed runs byte-identical.

Pair kernels other than the Green kernel take a move's energy change from
one (R + 1, n) table of elementwise ``Kernel.values``, the rows of R
candidate points and of the moving particle's own position, with the
particle's own column zeroed: a chain step has R = 1, and the Fekete
relocation polish scores a whole batch of candidate draws at once.

Green-kernel chains instead cache, per particle, the scaled basis row
b~(x_j) and phi(x_j) of G(x, y) = b~(x).b~(y) - phi(x) - phi(y) + c, and the
row sum S.  Moving particle i to p then changes the internal energy by

    [(b~(p) - b~(x_i)).(S - b~(x_i)) - (n-1)(phi(p) - phi(x_i))] / n^2,

one basis row per step instead of two kernel rows.  On accept the row is
replaced and S is summed afresh from the rows, so no rounding error
accumulates; the coherence check rebuilds the rows from the positions, and a
tempering swap exchanges them with the positions.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .energy import EnergyModel, FiniteEnergyModel, GreenKernel, w_n
from .errors import EnergyError, TrappedChainError
from .measures import EmpiricalMeasure
from .rng import derive_rng
from .simplex import class_table, logsumexp

__all__ = [
    "ChainState",
    "SampleResult",
    "GibbsEnumeration",
    "mcmc_run",
    "enumerate_gibbs",
]

_COHERENCE_EVERY = 1000
_COHERENCE_TOL = 1e-9
_TRAP_LIMIT = 100_000


@dataclass
class ChainState:
    """One walker: particle state plus its cached energy."""

    positions: np.ndarray  # (n, d) points or (n,) labels
    energy: float
    steps: int = 0
    accepts: int = 0
    consecutive_rejects: int = 0
    proposal_scale: float = 0.5


@dataclass
class SampleResult:
    """Thinned post-burn-in draws of an interacting-particle chain."""

    kind: str
    samples: np.ndarray
    energies: np.ndarray
    acceptance_rate: float
    proposal_scale: float
    steps: int
    burn_in_steps: int
    thin: int
    seed: int
    n: int
    coupling: float
    final_state: ChainState
    swap_rates: list | None = None
    ladder_energies: dict | None = None

    def empirical(self, space, index):
        """Empirical measure of one stored continuous sample."""
        return EmpiricalMeasure(space, self.samples[index])

    def counts(self, n_atoms, index):
        """Atom counts of one stored finite-space sample."""
        return np.bincount(self.samples[index], minlength=n_atoms)

    def to_json_dict(self):
        return {
            "kind": self.kind,
            "n": self.n,
            "steps": self.steps,
            "burn_in_steps": self.burn_in_steps,
            "thin": self.thin,
            "seed": self.seed,
            "coupling": self.coupling,
            "acceptance_rate": self.acceptance_rate,
            "proposal_scale": self.proposal_scale,
            "n_samples": int(self.samples.shape[0]),
            "mean_energy": float(self.energies.mean()) if self.energies.size else None,
            "swap_rates": self.swap_rates,
        }


# -- proposals -----------------------------------------------------------------


def _propose_point(space, rng, point, scale):
    """Symmetric geodesic random-walk proposal; returns the new point or None
    when the move leaves the chart (box spaces)."""
    kind = space.kind
    if kind == "circle":
        return np.array([(point[0] + scale * rng.standard_normal()) % (2.0 * np.pi)])
    if kind == "torus":
        return (point + scale * rng.standard_normal(2)) % 1.0
    if kind == "sphere":
        raw = rng.standard_normal(3)
        tangent = raw - (raw @ point) * point
        norm = float(np.linalg.norm(tangent))
        if norm < 1e-12:
            return point.copy()
        angle = scale * norm
        moved = math.cos(angle) * point + math.sin(angle) * (tangent / norm)
        return moved / np.linalg.norm(moved)
    moved = point + scale * rng.standard_normal(point.shape[0])
    if not bool(space.contains(moved[None, :])[0]):
        return None
    return moved


def _stage_value(model, n, point):
    """One-body stage-n potential at a single point."""
    return float(model.potential_stage_values(n, point[None, :])[0])


def _continuous_deltas(model, positions, i, points):
    """Energy changes of moving particle i to each of the (R, d) ``points``.

    Pair kernels take one (R + 1, n) table of ``values`` (the Green kernel's
    ``pairwise`` table): the R candidate rows and particle i's own row, with
    column i zeroed.  A row that sums to NaN gives +inf.  Higher arities
    difference w_n against one w_n(positions).
    """
    n, kernel = positions.shape[0], model.kernel
    if kernel.arity == 2:
        rows = np.concatenate((points, positions[i : i + 1]))
        with np.errstate(divide="ignore", invalid="ignore"):
            if isinstance(kernel, GreenKernel):
                table = kernel.pairwise(model.space, rows, positions)
            else:
                table = kernel.values(model.space, rows[:, None], positions[None])
            table[:, i] = 0.0
            internal = table.sum(axis=1)
            external = model.potential_stage_values(n, rows)
            deltas = ((internal[:-1] - internal[-1]) / n ** 2
                      + (external[:-1] - external[-1]) / n)
        deltas[np.isnan(internal[:-1])] = math.inf
        return deltas
    base = w_n(model, positions)
    deltas = np.empty(points.shape[0])
    for r, point in enumerate(points):
        moved = positions.copy()
        moved[i] = point
        deltas[r] = w_n(model, moved) - base
    return deltas


def _finite_delta(model, counts, n, a, b):
    if model.pair_matrix is not None:
        g = model.pair_matrix
        change = float(counts @ (g[b] - g[a])) - (g[b, a] - g[a, a])
        return change / n ** 2
    moved = counts.copy()
    moved[a] -= 1
    moved[b] += 1
    return model.w_counts(moved, n) - model.w_counts(counts, n)


class _GreenCache:
    """Scaled basis rows, phi values and their row sum for one Green-kernel
    configuration (see the module docstring)."""

    def __init__(self, green, positions):
        self.green = green
        self.rebuild(positions)

    def rebuild(self, positions):
        self.rows, self.phi = self.green.features(positions)
        self.total = self.rows.sum(axis=0)

    def internal_change(self, i, point):
        """n^2 times the internal energy change of moving particle i to
        ``point``, with the features of ``point`` for ``accept``."""
        n = self.rows.shape[0]
        rows, phi = self.green.features(point[None, :])
        row, new_phi = rows[0], float(phi[0])
        old = self.rows[i]
        change = (row - old) @ (self.total - old) - (n - 1) * (new_phi - self.phi[i])
        return float(change), (row, new_phi)

    def accept(self, i, features):
        self.rows[i], self.phi[i] = features
        self.total = self.rows.sum(axis=0)


# -- single-chain kernels ----------------------------------------------------------


class _Chain:
    """Bookkeeping shared by the single-chain kernels.  ``age`` counts every
    step since the chain started and drives the coherence check; the burn-in
    adaptation resets ``state.steps`` and ``state.accepts`` but not it."""

    age = 0

    def _book(self, accept):
        state = self.state
        if accept:
            state.accepts += 1
            state.consecutive_rejects = 0
        else:
            state.consecutive_rejects += 1
            if state.consecutive_rejects >= _TRAP_LIMIT:
                raise TrappedChainError(
                    f"chain rejected {state.consecutive_rejects} consecutive proposals"
                )
        self.age += 1
        if self.age % _COHERENCE_EVERY == 0:
            self.check_coherence()

    def check_coherence(self):
        """Replace the cached energy by a fresh one, which it must match."""
        state = self.state
        fresh = self.fresh_energy()
        if abs(state.energy - fresh) > _COHERENCE_TOL * max(1.0, abs(fresh)):
            raise EnergyError(
                f"cached energy {state.energy!r} drifted from recomputed {fresh!r}"
            )
        state.energy = fresh


class _ContinuousChain(_Chain):
    def __init__(self, model, n, rng, initial, scale):
        self.model = model
        self.space = model.space
        self.n = n
        if initial is None:
            positions = self.space.sample_points(rng, n)
        else:
            positions = self.space._as_points(initial).copy()
            if positions.shape[0] != n:
                raise EnergyError(f"initial configuration has {positions.shape[0]} points, expected {n}")
        energy = w_n(model, positions)
        if not math.isfinite(energy):
            raise EnergyError("initial configuration has infinite energy")
        self.state = ChainState(positions=positions, energy=energy, proposal_scale=scale)
        self.is_box = self.space.kind == "box"
        self.green_cache = None
        if isinstance(model.kernel, GreenKernel):
            self.green_cache = _GreenCache(model.kernel.model, positions)

    def delta(self, i, new_point):
        """Energy change of moving particle i to ``new_point``, with what
        ``accept`` needs to keep the Green cache (None for other kernels)."""
        positions = self.state.positions
        if self.green_cache is None:
            delta = _continuous_deltas(self.model, positions, i, new_point[None, :])[0]
            return float(delta), None
        n = self.n
        internal, features = self.green_cache.internal_change(i, new_point)
        external = (_stage_value(self.model, n, new_point)
                    - _stage_value(self.model, n, positions[i]))
        return internal / n ** 2 + external / n, features

    def step(self, rng, coupling):
        state = self.state
        state.steps += 1
        i = int(rng.integers(self.n))
        new_point = _propose_point(self.space, rng, state.positions[i], state.proposal_scale)
        accept = False
        if new_point is not None:
            delta, features = self.delta(i, new_point)
            if math.isfinite(delta):
                log_alpha = -coupling * delta
                if self.is_box:
                    old_d = float(self.space.reference_density(state.positions[i][None, :])[0])
                    new_d = float(self.space.reference_density(new_point[None, :])[0])
                    if new_d <= 0.0:
                        log_alpha = -math.inf
                    else:
                        log_alpha += math.log(new_d) - math.log(old_d)
                if log_alpha >= 0.0 or rng.random() < math.exp(log_alpha):
                    state.positions[i] = new_point
                    state.energy += delta
                    if self.green_cache is not None:
                        self.green_cache.accept(i, features)
                    accept = True
        self._book(accept)

    def check_coherence(self):
        super().check_coherence()
        if self.green_cache is not None:
            self.green_cache.rebuild(self.state.positions)

    def fresh_energy(self):
        return w_n(self.model, self.state.positions)

    def snapshot(self):
        return self.state.positions.copy()


class _FiniteChain(_Chain):
    def __init__(self, model, n, rng, initial, scale):
        self.model = model
        self.n = n
        self.m = model.space.n_atoms
        self.probs = model.space.probs
        # the cumulative table rng.choice(m, p=probs) builds on every call
        self._cdf = np.cumsum(self.probs)
        self._cdf /= self._cdf[-1]
        if initial is None:
            labels = rng.choice(self.m, size=n, p=self.probs)
        else:
            labels = np.asarray(initial, dtype=np.int64).copy()
            if labels.shape != (n,) or labels.min() < 0 or labels.max() >= self.m:
                raise EnergyError("initial labels must be n atom indices")
        self.labels = labels
        self.counts = np.bincount(labels, minlength=self.m)
        energy = model.w_counts(self.counts, n)
        if not math.isfinite(energy):
            raise EnergyError("initial configuration has infinite energy")
        self.state = ChainState(positions=labels, energy=energy, proposal_scale=scale)

    def step(self, rng, coupling):
        state = self.state
        state.steps += 1
        i = int(rng.integers(self.n))
        a = int(self.labels[i])
        b = int(self._cdf.searchsorted(rng.random(), side="right"))
        accept = False
        if a == b:
            accept = True
        else:
            delta = _finite_delta(self.model, self.counts, self.n, a, b)
            if math.isfinite(delta):
                log_alpha = -coupling * delta
                if log_alpha >= 0.0 or rng.random() < math.exp(log_alpha):
                    self.labels[i] = b
                    self.counts[a] -= 1
                    self.counts[b] += 1
                    state.energy += delta
                    accept = True
        self._book(accept)

    def fresh_energy(self):
        return self.model.w_counts(self.counts, self.n)

    def snapshot(self):
        return self.labels.copy()


def _make_chain(model, n, rng, initial, scale):
    if isinstance(model, FiniteEnergyModel):
        return _FiniteChain(model, n, rng, initial, scale), "finite"
    if isinstance(model, EnergyModel):
        return _ContinuousChain(model, n, rng, initial, scale), "continuous"
    raise EnergyError(f"cannot sample from {type(model).__name__}")


# -- driver --------------------------------------------------------------------


def mcmc_run(model, n, steps, seed, initial=None, proposal_scale=0.5,
             burn_in=0.2, thin=None, ladder=None, swap_every=50, name="chain"):
    """Run a Metropolis chain for the n-particle Gibbs measure of ``model``.

    The first ``burn_in`` fraction of steps adapts the proposal scale toward
    30-50% acceptance (continuous chains) and is discarded; afterwards the
    scale is frozen and every ``thin``-th configuration is stored.  With a
    ``ladder`` of coupling fractions (ascending, ending at 1.0), parallel
    tempering chains run side by side with state swaps every ``swap_every``
    steps; samples come from the full-coupling rung.
    """
    if steps < 10:
        raise EnergyError(f"need at least 10 steps, got {steps}")
    if n < 1:
        raise EnergyError(f"need at least one particle, got {n}")
    if not 0.0 <= burn_in <= 0.9:
        raise EnergyError(f"burn-in fraction must lie in [0, 0.9], got {burn_in!r}")
    beta_n = model.beta.beta_at(n)
    coupling = n * beta_n
    if not math.isfinite(coupling) or coupling <= 0.0:
        raise EnergyError(f"coupling n*beta_n must be finite and positive, got {coupling!r}")

    if ladder is not None:
        scales = [float(s) for s in ladder]
        if len(scales) < 2 or sorted(scales) != scales or len(set(scales)) != len(scales):
            raise EnergyError("ladder must be strictly increasing coupling fractions")
        if not 0.0 < scales[0] or scales[-1] != 1.0:
            raise EnergyError("ladder fractions must lie in (0, 1] and end at 1.0")
    else:
        scales = [1.0]

    rng = derive_rng(seed, "sampler", name)
    chains = []
    kind = None
    for _ in scales:
        chain, kind = _make_chain(model, n, rng, initial, proposal_scale)
        chains.append(chain)

    burn_steps = int(round(steps * burn_in))
    post = steps - burn_steps
    if thin is None:
        thin = max(1, math.ceil(post / 2000))
    elif thin < 1:
        raise EnergyError(f"thinning stride must be >= 1, got {thin}")
    swap_attempts = [0] * (len(scales) - 1)
    swap_accepts = [0] * (len(scales) - 1)
    samples, energies = [], []
    ladder_energies = {s: [] for s in scales} if ladder is not None else None
    swap_round = 0

    for step_index in range(1, steps + 1):
        in_burn = step_index <= burn_steps
        for chain, fraction in zip(chains, scales):
            chain.step(rng, coupling * fraction)
        if kind == "continuous" and in_burn and step_index % 200 == 0:
            for chain in chains:
                state = chain.state
                rate = state.accepts / max(1, state.steps)
                if rate < 0.3:
                    state.proposal_scale *= 0.8
                elif rate > 0.5:
                    state.proposal_scale *= 1.25
                state.accepts = 0
                state.steps = 0
        if step_index == burn_steps:
            for chain in chains:
                chain.state.accepts = 0
                chain.state.steps = 0
        if len(chains) > 1 and step_index % swap_every == 0:
            swap_round += 1
            for pair in range(swap_round % 2, len(chains) - 1, 2):
                lo, hi = chains[pair], chains[pair + 1]
                gap = coupling * (scales[pair + 1] - scales[pair])
                log_alpha = gap * (hi.state.energy - lo.state.energy)
                swap_attempts[pair] += 1
                if log_alpha >= 0.0 or rng.random() < math.exp(log_alpha):
                    swap_accepts[pair] += 1
                    # exchange particle states; tuned proposal scales and
                    # bookkeeping stay with their rung
                    lo.state.positions, hi.state.positions = (
                        hi.state.positions, lo.state.positions)
                    lo.state.energy, hi.state.energy = hi.state.energy, lo.state.energy
                    if kind == "finite":
                        lo.labels, hi.labels = hi.labels, lo.labels
                        lo.counts, hi.counts = hi.counts, lo.counts
                    else:
                        lo.green_cache, hi.green_cache = hi.green_cache, lo.green_cache
        if not in_burn:
            offset = step_index - burn_steps
            if offset % thin == 0:
                top = chains[-1]
                samples.append(top.snapshot())
                energies.append(top.state.energy)
                if ladder_energies is not None:
                    for chain, fraction in zip(chains, scales):
                        ladder_energies[fraction].append(chain.state.energy)

    swap_rates = None
    if ladder is not None:
        swap_rates = []
        for pair in range(len(scales) - 1):
            rate = swap_accepts[pair] / max(1, swap_attempts[pair])
            swap_rates.append(rate)
            if not 0.1 <= rate <= 0.9:
                warnings.warn(
                    f"tempering swap rate {rate:.3f} between coupling fractions "
                    f"{scales[pair]} and {scales[pair + 1]} is outside [0.1, 0.9]",
                    RuntimeWarning,
                )
    top = chains[-1]
    post_rate = top.state.accepts / max(1, top.state.steps)
    result = SampleResult(
        kind=kind,
        samples=np.array(samples),
        energies=np.array(energies),
        acceptance_rate=post_rate,
        proposal_scale=top.state.proposal_scale,
        steps=steps,
        burn_in_steps=burn_steps,
        thin=thin,
        seed=seed,
        n=n,
        coupling=coupling,
        final_state=top.state,
        swap_rates=swap_rates,
        ladder_energies={s: np.array(v) for s, v in ladder_energies.items()}
        if ladder_energies is not None else None,
    )
    return result


# -- exact enumeration over type classes -----------------------------------------


@dataclass
class GibbsEnumeration:
    """Exact Gibbs distribution over atom-count type classes."""

    counts: np.ndarray  # (classes, m)
    log_probs: np.ndarray  # (classes,)
    log_partition: float
    n: int
    coupling: float

    @property
    def probs(self):
        return np.exp(self.log_probs)

    def expectation(self, fn):
        """Exact mean of a function of the count vector."""
        values = np.array([float(fn(c)) for c in self.counts])
        return float(self.probs @ values)

    def marginal(self):
        """Exact single-site occupation frequencies E[c/n]."""
        return (self.probs @ self.counts) / self.n


def enumerate_gibbs(model, n, coupling=None):
    """Exact n-particle Gibbs distribution on a finite atom space.

    Sums the tilted multinomial weights over all C(n+m-1, m-1) type classes;
    raises EnumerationCapError beyond the class-count cap.
    """
    if not isinstance(model, FiniteEnergyModel):
        raise EnergyError("exact enumeration needs a FiniteEnergyModel")
    table = class_table(model, n)
    if coupling is None:
        coupling = n * model.beta.beta_at(n)
    if not math.isfinite(coupling):
        raise EnergyError(f"enumeration needs a finite coupling, got {coupling!r}")
    log_weights = table.log_multinomials + table.log_reference - coupling * table.energies
    log_z = float(logsumexp(log_weights))
    return GibbsEnumeration(
        counts=table.counts,
        log_probs=log_weights - log_z,
        log_partition=log_z,
        n=n,
        coupling=float(coupling),
    )
