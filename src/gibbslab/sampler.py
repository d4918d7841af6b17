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

A continuous chain draws its variates step by step: the moving particle,
the proposal's standard normals (1 on the circle, 2 on the torus, 3 on the
sphere, d in a box), and an accept uniform only when the move would raise
the density.  ``_propose_point`` moves the point on those normals in
scalar math that rounds as the array formulas do (the sphere move keeps
numpy's dot products), so a seed's samples do not depend on how the step
is computed.  A finite chain draws blocks of min(_FINITE_BLOCK, steps)
steps (``_FiniteChain.draw_block``): the moving particles, the proposed
atoms (the stream of ``rng.choice(m, size, p=probs)``) and one accept
uniform per step, needed or not; so a 10-step segment draws 10 steps'
worth, and a chain of at least _FINITE_BLOCK steps draws full blocks.

During burn-in the proposal scale adapts every 200 steps toward 30-50%
acceptance: x0.8 below, x1.25 above, but never past ``Space.diameter``, the
largest useful step; a free gas accepts every move and would otherwise
push the scale to inf.

Singular kernels divide by zero where points coincide.  ``mcmc_run`` and
the Fekete polish each enter ``np.errstate(divide="ignore",
invalid="ignore")`` once, and ``_continuous_deltas`` runs under it without
entering one per call.

One function, ``_continuous_deltas``, scores every continuous
single-particle move: R = 1 candidate in a chain step, a batch of R draws in
the Fekete relocation polish.  Dense pair kernels take one (R + 1, n) table
of elementwise ``Kernel.values`` (the candidates' rows and the moving
particle's own, its own column zeroed).  The Green kernel
G(x, y) = b~(x).b~(y) - phi(x) - phi(y) + c has phi = q.b~, with b~ the
scaled basis row and q the charge coefficients over sqrt(lambda); a
``_GreenCache`` keeps the rows b~(x_j) and S - (n-1) q, with S their sum,
and moving particle i to the rows of P changes n^2 times the internal
energy by

    (B~(P) - b~(x_i)).(S - (n-1) q - b~(x_i)).

The basis is evaluated elementwise, so a cached row equals a fresh one bit
for bit and the change at p = x_i is exactly 0.  A chain evaluates the
basis at its n start points once (``GreenModel.features``): the same rows
give its start energy, equal to ``w_n`` bit for bit, and its cache.  A
chain and the Fekete polish keep their cache live: on accept the chosen
candidate's row from the last call replaces row i and S is summed afresh,
so no rounding error accumulates.  A chain's coherence check rebuilds the
cache from the one evaluation that gives the fresh energy, and a tempering
swap exchanges it with the positions.

A finite-chain step does scalar work only, beyond reading and writing one
entry of the live labels array.  It keeps the counts c and the row sums
r = G.c of the pair matrix G as Python scalars; moving a particle from atom
a to atom b changes the energy by (r_b - r_a - G_ba + G_aa) / n^2, and on
accept r gains G_b - G_a.  The coherence check rebuilds r from the counts,
and a tempering swap carries it with the labels and counts.  A
continuous-chain step writes the candidate and the moving particle's
position into one preallocated 2-row buffer and scores it with
``_continuous_deltas``, which evaluates potentials only when the model has
some; a box chain reads the reference density only when it is not uniform.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .energy import EnergyModel, FiniteEnergyModel, GreenKernel, _w_n_report, w_n
from .errors import EnergyError, TrappedChainError
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
_FINITE_BLOCK = 1024


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

_TAU = 2.0 * math.pi


def _propose_point(space, point, normals, scale):
    """Symmetric geodesic random-walk proposal from ``point`` (a list of
    coordinates) driven by the standard ``normals``; returns the new point
    as a list, or None when the move leaves the chart (box spaces)."""
    kind = space.kind
    if kind == "circle":
        theta = (point[0] + scale * normals[0]) % _TAU
        return [theta if theta < _TAU else 0.0]  # a tiny negative angle rounds to 2 pi
    if kind == "torus":
        moved = [(x + scale * z) % 1.0 for x, z in zip(point, normals)]
        return [x if x < 1.0 else 0.0 for x in moved]
    if kind == "sphere":
        point, raw = np.array(point), np.array(normals)
        tangent = raw - (raw @ point) * point
        norm = float(np.linalg.norm(tangent))
        if norm < 1e-12:
            return point.tolist()
        angle = scale * norm
        moved = math.cos(angle) * point + math.sin(angle) * (tangent / norm)
        return (moved / np.linalg.norm(moved)).tolist()
    moved = [x + scale * z for x, z in zip(point, normals)]
    for x, (lo, hi) in zip(moved, space.params["bounds"]):
        if not lo <= x <= hi:
            return None
    return moved


def _continuous_deltas(model, positions, i, points, cache=None, rows=None):
    """Energy changes of moving particle i to each of the (R, d) ``points``.

    A Green kernel reads the rows of ``cache``, a ``_GreenCache`` of
    ``positions`` (built here when None); every other kernel takes one
    (R + 1, n) table of ``values``, the R candidate rows and particle i's
    own row, with column i zeroed.  ``rows``, when given, already holds the
    candidates followed by particle i's position.  A candidate whose pair
    sum is NaN gives +inf.  Coinciding points divide by zero: the caller
    holds ``np.errstate(divide="ignore", invalid="ignore")``.
    """
    n, kernel = positions.shape[0], model.kernel
    if rows is None:
        rows = np.concatenate((points, positions[i : i + 1]))
    if isinstance(kernel, GreenKernel):
        if cache is None:
            cache = _GreenCache(kernel.model, kernel.model.features(positions)[0])
        internal = cache.changes(i, points)
    else:
        table = kernel.values(model.space, rows[:, None], positions[None])
        table[:, i] = 0.0
        # np.add.reduce, a 1-element slice and a float divisor skip numpy's
        # slower paths for .sum, numpy scalars and int operands (the same bits)
        sums = np.add.reduce(table, 1)
        internal = sums[:-1] - sums[-1:]
    deltas = internal / float(n * n)
    if model.potentials:
        external = model.potential_stage_values(n, rows)
        deltas += (external[:-1] - external[-1]) / n
    deltas[np.isnan(internal)] = math.inf
    return deltas


class _GreenCache:
    """The scaled basis rows of one Green-kernel configuration (the first of
    its ``GreenModel.features``) and the field S - (n-1) q (see the module
    docstring)."""

    def __init__(self, green, rows):
        self.green = green
        self.rows = rows
        self.shift = (rows.shape[0] - 1) * (green.charge_coeffs * green._inv_sqrt_eigs)
        self.field = rows.sum(axis=0) - self.shift

    def scaled_rows(self, points):
        green = self.green
        return green.space.evaluate_basis(points)[:, 1 : green.order + 1] * green._inv_sqrt_eigs

    def changes(self, i, points):
        """n^2 times the internal energy change of moving particle i to each
        of ``points``; keeps their rows for ``accept``."""
        old = self.rows[i]
        self.drawn = self.scaled_rows(points)
        return (self.drawn - old) @ (self.field - old)

    def accept(self, i, k):
        """Move particle i to point k of the last ``changes``."""
        self.rows[i] = self.drawn[k]
        self.field = self.rows.sum(axis=0) - self.shift


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

    def exchange(self, other):
        """Swap particle states with ``other``: positions, energy and the
        caches kept from them (``carried``).  Tuned proposal scales and
        bookkeeping stay with their rung."""
        mine, theirs = self.state, other.state
        mine.positions, theirs.positions = theirs.positions, mine.positions
        mine.energy, theirs.energy = theirs.energy, mine.energy
        for name in self.carried:
            cache = getattr(self, name)
            setattr(self, name, getattr(other, name))
            setattr(other, name, cache)


class _ContinuousChain(_Chain):
    carried = ("green_cache",)

    def __init__(self, model, n, rng, initial, scale):
        self.model = model
        self.space = space = model.space
        self.n = n
        if initial is None:
            positions = space.sample_points(rng, n)
        else:
            positions = space._as_points(initial).copy()
            if positions.shape[0] != n:
                raise EnergyError(f"initial configuration has {positions.shape[0]} points, expected {n}")
        self.green = (model.kernel._model_on(space) if isinstance(model.kernel, GreenKernel)
                      else None)
        self.green_cache = None
        energy = self._energy_of(positions)
        if not math.isfinite(energy):
            raise EnergyError("initial configuration has infinite energy")
        self.state = ChainState(positions=positions, energy=energy, proposal_scale=scale)
        self.width = space.point_dim  # standard normals per proposal
        # the candidate, then the moving particle's position
        self.rows = np.empty((2, space.point_dim))
        self.candidate = self.rows[:1]
        self.density = (space.reference_density if space.kind == "box"
                        and space.params.get("_density_fn") is not None else None)

    def step(self, rng, coupling):
        state = self.state
        state.steps += 1
        i = int(rng.integers(self.n))
        # one scalar draw on the circle: the stream of standard_normal(1)
        normals = ((rng.standard_normal(),) if self.width == 1
                   else rng.standard_normal(self.width).tolist())
        positions = state.positions
        own = positions[i]
        point = _propose_point(self.space, own.tolist(), normals, state.proposal_scale)
        accept = False
        if point is not None:
            rows = self.rows
            rows[0] = point
            rows[1] = own
            delta = _continuous_deltas(self.model, positions, i, self.candidate,
                                       self.green_cache, rows).item()
            if math.isfinite(delta):
                log_alpha = -coupling * delta
                if self.density is not None:
                    new_d, old_d = self.density(rows).tolist()
                    if new_d <= 0.0:
                        log_alpha = -math.inf
                    else:
                        log_alpha += math.log(new_d) - math.log(old_d)
                if log_alpha >= 0.0 or rng.random() < math.exp(log_alpha):
                    positions[i] = rows[0]
                    state.energy += delta
                    if self.green_cache is not None:
                        self.green_cache.accept(i, 0)
                    accept = True
        self._book(accept)

    def fresh_energy(self):
        return self._energy_of(self.state.positions)

    def _energy_of(self, positions):
        """w_n of ``positions``.  A Green chain (re)builds its cache from the
        same single basis evaluation of the points."""
        if self.green is None:
            return w_n(self.model, positions)
        features = self.green.features(positions)
        self.green_cache = _GreenCache(self.green, features[0])
        return _w_n_report(self.model, positions, features).value


class _FiniteChain(_Chain):
    carried = ("counts", "rowsums")

    def __init__(self, model, n, rng, initial, scale, block=_FINITE_BLOCK):
        self.model = model
        self.n = n
        self.block = block
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
        self.counts = np.bincount(labels, minlength=self.m).tolist()
        energy = model.w_counts(self.counts, n)
        if not math.isfinite(energy):
            raise EnergyError("initial configuration has infinite energy")
        self.state = ChainState(positions=labels, energy=energy, proposal_scale=scale)
        self.pairs = model.pair_matrix.tolist()
        self.rowsums = self.fresh_rowsums()
        self.draws = iter(())

    def draw_block(self, rng, size):
        """Variates of the next ``size`` steps: the moving particles, their
        proposed atoms (the stream of ``rng.choice(m, size, p=probs)``) and
        the uniforms of the accept tests."""
        sites = rng.integers(self.n, size=size).tolist()
        atoms = self._cdf.searchsorted(rng.random(size), side="right").tolist()
        return zip(sites, atoms, rng.random(size).tolist())

    def fresh_rowsums(self):
        """r = G.c, the interaction of one particle at each atom with all n."""
        return (self.model.pair_matrix @ np.array(self.counts, dtype=float)).tolist()

    def delta(self, a, b):
        """Energy change of moving one particle from atom a to atom b."""
        g_b, g_a = self.pairs[b], self.pairs[a]
        return (self.rowsums[b] - self.rowsums[a] - g_b[a] + g_a[a]) / self.n ** 2

    def step(self, rng, coupling):
        try:
            i, b, u = next(self.draws)
        except StopIteration:
            self.draws = self.draw_block(rng, self.block)
            i, b, u = next(self.draws)
        state = self.state
        state.steps += 1
        labels = state.positions
        a = labels.item(i)
        accept = a == b
        if not accept:
            delta = self.delta(a, b)
            log_alpha = -coupling * delta
            if math.isfinite(delta) and (log_alpha >= 0.0 or u < math.exp(log_alpha)):
                labels[i] = b
                counts = self.counts
                counts[a] -= 1
                counts[b] += 1
                g_b, g_a = self.pairs[b], self.pairs[a]
                self.rowsums = [r + x - y for r, x, y in zip(self.rowsums, g_b, g_a)]
                state.energy += delta
                accept = True
        self._book(accept)

    def check_coherence(self):
        super().check_coherence()
        self.rowsums = self.fresh_rowsums()

    def fresh_energy(self):
        return self.model.w_counts(self.counts, self.n)


def _make_chain(model, n, rng, initial, scale, block):
    if isinstance(model, FiniteEnergyModel):
        return _FiniteChain(model, n, rng, initial, scale, block), "finite"
    if isinstance(model, EnergyModel):
        return _ContinuousChain(model, n, rng, initial, scale), "continuous"
    raise EnergyError(f"cannot sample from {type(model).__name__}")


# -- driver --------------------------------------------------------------------


@np.errstate(divide="ignore", invalid="ignore")  # one for every step: see the module docstring
def mcmc_run(model, n, steps, seed, initial=None, proposal_scale=0.5,
             burn_in=0.2, thin=None, ladder=None, swap_every=50, name="chain"):
    """Run a Metropolis chain for the n-particle Gibbs measure of ``model``.

    The first ``burn_in`` fraction of steps adapts the proposal scale toward
    30-50% acceptance, never past the space's diameter (continuous chains),
    and is discarded; afterwards the scale is frozen and every ``thin``-th
    configuration is stored.  With a ``ladder`` of coupling fractions
    (ascending, ending at 1.0), parallel tempering chains run side by side
    with state swaps every ``swap_every`` steps; samples come from the
    full-coupling rung.
    """
    if steps < 10:
        raise EnergyError(f"need at least 10 steps, got {steps}")
    if n < 1:
        raise EnergyError(f"need at least one particle, got {n}")
    if not 0.0 <= burn_in <= 0.9:
        raise EnergyError(f"burn-in fraction must lie in [0, 0.9], got {burn_in!r}")
    if not (math.isfinite(proposal_scale) and proposal_scale > 0.0):
        raise EnergyError(f"proposal scale must be finite and positive, got {proposal_scale!r}")
    beta_n = model.beta.beta_at(n)
    coupling = n * beta_n
    if not math.isfinite(coupling) or coupling <= 0.0:
        raise EnergyError(f"coupling n*beta_n must be finite and positive, got {coupling!r}")
    if swap_every < 1:
        raise EnergyError(f"swap interval must be >= 1 step, got {swap_every}")

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
        chain, kind = _make_chain(model, n, rng, initial, proposal_scale,
                                  min(_FINITE_BLOCK, steps))
        chains.append(chain)

    burn_steps = int(round(steps * burn_in))
    post = steps - burn_steps
    if thin is None:
        thin = max(1, math.ceil(post / 2000))
    elif not 1 <= thin <= post:
        raise EnergyError(
            f"thinning stride must lie in [1, {post}] (the post-burn-in steps), got {thin}")
    swap_attempts = [0] * (len(scales) - 1)
    swap_accepts = [0] * (len(scales) - 1)
    swap_round = 0
    rungs = [(chain.step, coupling * fraction) for chain, fraction in zip(chains, scales)]
    tempered, adapts, top = len(chains) > 1, kind == "continuous", chains[-1]
    cap = model.space.diameter if adapts else None  # the adaptation's largest scale
    count = post // thin
    first = top.state.positions
    samples = np.empty((count,) + first.shape, dtype=first.dtype)
    energies = np.empty(count)
    rung_energies = np.empty((len(chains), count)) if ladder is not None else None
    row, record_at = 0, burn_steps + thin

    for step_index in range(1, steps + 1):
        for step, rung_coupling in rungs:
            step(rng, rung_coupling)
        if step_index <= burn_steps:
            if adapts and step_index % 200 == 0:
                for chain in chains:
                    state = chain.state
                    rate = state.accepts / max(1, state.steps)
                    if rate < 0.3:
                        state.proposal_scale *= 0.8
                    elif rate > 0.5 and state.proposal_scale < cap:
                        state.proposal_scale = min(1.25 * state.proposal_scale, cap)
                    state.accepts = 0
                    state.steps = 0
            if step_index == burn_steps:
                for chain in chains:
                    chain.state.accepts = 0
                    chain.state.steps = 0
        if tempered and step_index % swap_every == 0:
            swap_round += 1
            for pair in range(swap_round % 2, len(chains) - 1, 2):
                lo, hi = chains[pair], chains[pair + 1]
                gap = coupling * (scales[pair + 1] - scales[pair])
                log_alpha = gap * (hi.state.energy - lo.state.energy)
                swap_attempts[pair] += 1
                if log_alpha >= 0.0 or rng.random() < math.exp(log_alpha):
                    swap_accepts[pair] += 1
                    lo.exchange(hi)
        if step_index == record_at:
            samples[row] = top.state.positions
            energies[row] = top.state.energy
            if rung_energies is not None:
                for chain, rung in zip(chains, rung_energies):
                    rung[row] = chain.state.energy
            row += 1
            record_at += thin

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
    post_rate = top.state.accepts / max(1, top.state.steps)
    result = SampleResult(
        kind=kind,
        samples=samples,
        energies=energies,
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
        ladder_energies=dict(zip(scales, rung_energies)) if ladder is not None else None,
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


def enumerate_gibbs(model, n):
    """Exact n-particle Gibbs distribution on a finite atom space.

    Sums the tilted multinomial weights over all C(n+m-1, m-1) type classes;
    raises EnumerationCapError beyond the class-count cap.
    """
    if not isinstance(model, FiniteEnergyModel):
        raise EnergyError("exact enumeration needs a FiniteEnergyModel")
    table = class_table(model, n)
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
