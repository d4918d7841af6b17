"""Numerical checks of exponential-integral asymptotics.

The central quantity is

    L_n = (1/(n beta_n)) log integral of exp(-n beta_n f(i_n(x))) dgamma_n(x),

where gamma_n = exp(-n beta_n w_n) d(reference)^n and i_n is the empirical
measure.  L_n is computed exactly on finite atom spaces (enumeration over
occupation-count classes) and estimated on manifolds by thermodynamic
integration over a tempering ladder.  Each verdict compares the L_n sequence
against the candidate limit -inf {f + F}, which comes from the one limit
solver ``fekete._limit_infimum`` at the model's limit beta (mirror descent
on the node grid, or a refined simplex search polished by the same descent
on finite spaces); Fekete tables call the same solver at beta = inf.  It
reports (final gap, trend slope) against explicit thresholds -- a limit is
never declared from finitely many terms.

Also provided: constrained minimization of the rate function I = F - inf F
over half-spaces {mu : integral of g dmu >= c} through the tilted family
argmin (F - lambda * integral of g dmu), whose one multiplier lambda >= 0 is
found by bisection and is the slope of the profile in c.  Conditional gases
take two calls: ``laplace_estimate_mc`` on a model whose energy holds the
deterministic environment as an environment potential, and
``single_particle_limit``, the one-particle quadrature limit.

Desk-scale caps: ``simplex.CLASS_CAP`` bounds the type classes enumerated,
``PARTICLE_CAP`` the particles of a chain.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .energy import EnergyModel, FiniteEnergyModel, w_n
from .equilibrium import _limit_tables, _mirror_descent, _objective
from .errors import EnergyError, InfeasibleConstraintError
from .fekete import _fold_functional, _limit_infimum, _particle_counts
from .measures import FiniteSpace, GridMeasure
from .rng import derive_rng
from .sampler import mcmc_run
# bench/check_bench.py checks that its span recorder rebinds ldp.simplex_minimize
from .simplex import class_count, class_table, logsumexp, simplex_minimize  # noqa: F401

__all__ = [
    "PARTICLE_CAP",
    "LaplaceVerdict",
    "HalfSpace",
    "RateProfile",
    "laplace_verify_finite",
    "laplace_estimate_mc",
    "rate_function_profile",
    "single_particle_limit",
]

PARTICLE_CAP = 64  # manifold Monte Carlo refuses beyond this particle count
_DOUBLING_CAP = 60  # a rate profile's multiplier bracket grows to at most 2**60
_PROFILE_MAX_ITERS = 3000  # gap evaluations per rate-profile descent
_PROFILE_TOL = 1e-10  # a rate-profile descent's gap and move tolerance
_TOL_FLOOR = 2.0 * np.finfo(float).eps  # the smallest tilted-descent tolerance


# -- verdict record -----------------------------------------------------------------


@dataclass
class LaplaceVerdict:
    """Per-n exponential-integral values against a candidate limit."""

    kind: str
    n_values: list
    values: np.ndarray
    errors: np.ndarray | None
    limit: float
    gaps: np.ndarray
    slope: float
    final_gap: float
    threshold: float
    passed: bool
    witness: object = field(default=None, repr=False)


def _verdict(kind, n_values, values, errors, limit, threshold, witness=None):
    values = np.asarray(values, dtype=float)
    gaps = np.abs(values - limit)
    slope = float(np.polyfit(n_values, gaps, 1)[0]) if len(n_values) > 1 else 0.0
    final_gap = float(gaps[-1])
    if errors is None:
        passed = bool(final_gap < threshold and (len(n_values) < 2 or slope <= 0.0))
    else:
        # Monte Carlo verdicts are advisory: the gap test absorbs the error bar
        passed = bool(final_gap < threshold + 3.0 * float(errors[-1]))
    return LaplaceVerdict(
        kind=kind,
        n_values=list(n_values),
        values=values,
        errors=None if errors is None else np.asarray(errors, dtype=float),
        limit=float(limit),
        gaps=gaps,
        slope=slope,
        final_gap=final_gap,
        threshold=float(threshold),
        passed=passed,
        witness=witness,
    )


# -- finite enumeration --------------------------------------------------------------


def _log_class_sum(table, exponents, probs, n):
    """log sum over type classes of multinomial * pi^counts * exp(exponent):
    exactly by ``math.fsum`` when every factor is a normal float, so that the
    zero-energy dyadic case sums to exactly 1, else by ``logsumexp``.  The
    choice reads log-magnitudes, which cannot overflow or underflow."""
    finite = np.isfinite(exponents)
    if not finite.any():
        return -math.inf
    log_terms = table.log_multinomials + table.log_reference + exponents
    magnitude = max(float(table.log_multinomials.max()),
                    -float(table.log_reference.min()),
                    float(np.abs(exponents).max()))
    if finite.all() and magnitude < 700.0 and -600.0 < float(log_terms.max()) < 600.0:
        factorials = np.array([math.factorial(k) for k in range(n + 1)], dtype=object)
        multis = (factorials[n] // np.prod(factorials[table.counts], axis=1)).astype(float)
        prob_factors = np.prod(probs[None, :] ** table.counts, axis=1)
        exps = np.fromiter(map(math.exp, exponents.tolist()), float, exponents.size)
        return math.log(math.fsum(multis * prob_factors * exps))
    return float(logsumexp(log_terms[finite]))


def laplace_verify_finite(space, model, f, n_values, threshold=0.05, grid_steps=400):
    """Exact L_n on a finite atom space against the refined simplex limit.

    The per-class weights multinomial(c) * prod(pi^c) * exp(-coupling * S(c))
    come from one type-class table per n (``simplex.class_table``) and are
    accumulated by ``_log_class_sum``.  The limit -inf {f + F} comes from
    ``fekete._limit_infimum`` at the model's limit beta: a refining simplex
    grid search, polished by mirror descent.  ``f`` is None or a
    MeasureFunctional.
    """
    if not isinstance(model, FiniteEnergyModel):
        raise EnergyError("finite-space verification needs a FiniteEnergyModel")
    if space is not model.space:
        raise EnergyError("space does not match the model's space")
    n_values = _particle_counts(n_values)
    class_count(n_values[-1], space.n_atoms)
    limit_value, tau = _limit_infimum(model, f, model.beta.limit, grid_steps)
    values = []
    for n in n_values:
        beta_n = model.beta.beta_at(n)
        coupling = n * beta_n
        if not math.isfinite(coupling):
            raise EnergyError(f"coupling n*beta_n is not finite at n={n}")
        table = class_table(model, n)
        energies = table.energies
        if f is not None:
            energies = energies + f.simplex_values(space, table.counts / n)
        values.append(_log_class_sum(table, -coupling * energies, space.probs, n) / coupling)
    return _verdict("finite-enumeration", n_values, values, None,
                    -limit_value + 0.0, threshold, witness=tau)


# -- Monte Carlo estimator ---------------------------------------------------------------


def _batch_stats(values, batches=40):
    values = np.asarray(values, dtype=float)
    batches = min(batches, max(1, values.size))
    usable = values.size // batches * batches
    means = values[:usable].reshape(batches, -1).mean(axis=1)
    mean = float(values.mean())
    if batches < 2:
        return mean, 0.0, float(values.size)
    var_b = float(means.var(ddof=1))
    var_x = float(values.var(ddof=1))
    se = math.sqrt(var_b / batches)
    if var_b <= 0.0 or var_x <= 0.0:
        return mean, se, float(values.size)
    ess = batches * var_x / var_b
    return mean, se, float(ess)


def laplace_estimate_mc(model, f, n_values, chain_budget=20_000, seed=0, rungs=8,
                        threshold=0.05, ess_floor=100.0):
    """Thermodynamic-integration estimate of L_n with error bars.

    Writing Z(s) for the partition function tempered by s in [0, 1],
    d log Z / ds = -n beta_n E_s[w_n + f(i_n)], so L_n is minus the
    integral of the per-rung mean energies (composite Simpson on the
    uniform s-grid for an even rung count, trapezoid otherwise); the s = 0
    endpoint uses independent reference draws.  Error bars combine per-rung
    batch-means standard errors through the quadrature weights (adjacent
    rungs are treated as independent, which replica swaps make only
    approximately true).
    """
    if not isinstance(model, EnergyModel):
        raise EnergyError("the Monte Carlo estimator needs a continuous-space model")
    n_values = _particle_counts(n_values)
    if max(n_values) > PARTICLE_CAP:
        raise EnergyError(
            f"n={max(n_values)} exceeds the Monte Carlo cap {PARTICLE_CAP}")
    if rungs < 2:
        raise EnergyError(f"need at least 2 ladder rungs, got {rungs}")
    target = model if f is None else _fold_functional(model, f)
    ladder = [k / rungs for k in range(1, rungs + 1)]
    nodes = np.array([0.0] + ladder)
    h = 1.0 / rungs
    if rungs % 2 == 0:
        # composite Simpson over the uniform s-grid
        weights = np.full(nodes.size, 2.0)
        weights[1::2] = 4.0
        weights[0] = weights[-1] = 1.0
        weights *= h / 3.0
    else:
        weights = np.full(nodes.size, h)
        weights[0] = weights[-1] = h / 2.0
    values, errors = [], []
    for n in n_values:
        beta_n = target.beta.beta_at(n)
        if not math.isfinite(n * beta_n):
            raise EnergyError(f"coupling n*beta_n is not finite at n={n}")
        free_rng = derive_rng(seed, "laplace", f"n{n}", "free")
        free_draws = max(500, chain_budget // 10)
        e0 = np.array([w_n(target, target.space.sample_points(free_rng, n))
                       for _ in range(free_draws)])
        mean0 = float(e0.mean())
        se0 = float(e0.std(ddof=1) / math.sqrt(e0.size)) if e0.size > 1 else 0.0
        result = mcmc_run(target, n, steps=chain_budget, seed=seed,
                          ladder=ladder, name=f"laplace-n{n}")
        means, ses = [mean0], [se0]
        for s in ladder:
            mean_s, se_s, ess = _batch_stats(result.ladder_energies[s])
            if ess < ess_floor:
                raise EnergyError(
                    f"effective sample size {ess:.0f} at rung s={s} is below "
                    f"the floor {ess_floor:.0f}")
            means.append(mean_s)
            ses.append(se_s)
        values.append(-float(weights @ np.asarray(means)))
        errors.append(float(np.sqrt((weights ** 2) @ (np.asarray(ses) ** 2))))
    limit_value, witness = _limit_infimum(model, f, model.beta.limit)
    return _verdict("mc", n_values, values, errors, -limit_value,
                    threshold, witness=witness)


# -- rate-function profiles ----------------------------------------------------------------


@dataclass
class HalfSpace:
    """Constraint set {mu : integral of g dmu >= c}."""

    g: object
    c: float

    def node_values(self, space):
        if callable(self.g):
            if isinstance(space, FiniteSpace):
                raise EnergyError("finite-space constraints need a per-atom vector")
            return np.asarray(self.g(space.nodes), dtype=float)
        values = np.asarray(self.g, dtype=float)
        expected = space.n_atoms if isinstance(space, FiniteSpace) else space.n_nodes
        if values.shape != (expected,):
            raise EnergyError(
                f"constraint vector has shape {values.shape}, expected ({expected},)")
        return values


@dataclass
class RateProfile:
    """Constrained infimum of the rate function I = F - inf F.

    ``multiplier`` is the Lagrange multiplier lambda of the half-space: 0 when
    the constraint is absent or inactive, and None when the witness was
    solved on the face {argmax g}, where the search over lambda does not
    run."""

    value: float
    witness: object
    base_value: float
    constrained_value: float
    constraint_slack: float | None
    iterations: int
    multiplier: float | None = 0.0


def rate_function_profile(model, descriptor=None):
    """Infimum of the rate function I = F - inf F over a half-space
    {mu : g.mu >= c}.

    An active constraint is met by the tilted minimizer of F - lambda g.m,
    the unconstrained descent with V replaced by V - lambda g; g.m does not
    decrease in lambda >= 0.  The multiplier is bracketed by doubling from 1
    and bisected until the bracket collapses at round-off, each bisection
    descent warm-started from the last feasible masses, and the feasible end
    is returned, so the witness meets the constraint.  For c within 1e-12 of
    max g the witness is the minimizer on the face {argmax g} instead.
    Raises InfeasibleConstraintError when c > max g + 1e-12, and EnergyError
    when no multiplier up to 2**_DOUBLING_CAP reaches c or when g.m jumps
    across c at the collapsed bracket (a duality gap of a non-convex F).

    Returns a RateProfile whose ``witness`` is a GridMeasure (continuous
    models) or an atom-mass vector (finite models)."""
    matrix, v, ref = _limit_tables(model, "a rate profile")
    beta = model.beta.limit
    if not beta > 0.0:
        raise EnergyError(f"limit temperature must be positive, got {beta!r}")
    iterations = 0

    def descend(matrix, v, ref, init, tol=_PROFILE_TOL):
        nonlocal iterations
        descent = _mirror_descent(matrix, v, ref, beta, init, max_iters=_PROFILE_MAX_ITERS,
                                  tol=tol)
        iterations += descent.iterations
        return descent.masses

    def profile(masses, multiplier=0.0):
        value = _objective(matrix, v, ref, masses, beta)
        witness = (GridMeasure.from_unnormalized(model.space, masses / ref)
                   if isinstance(model, EnergyModel) else masses)
        slack = None if descriptor is None else float(g @ masses) - c
        return RateProfile(max(0.0, value - base_value), witness, base_value,
                           value, slack, iterations, multiplier)

    base = descend(matrix, v, ref, ref / ref.sum())
    base_value = _objective(matrix, v, ref, base, beta)
    if descriptor is None:
        return profile(base)
    g, c = descriptor.node_values(model.space), float(descriptor.c)
    if float(g @ base) >= c:
        return profile(base)
    g_max = float(g.max())
    if c > g_max + 1e-12:
        raise InfeasibleConstraintError(
            f"no probability measure reaches integral {c} (max attainable {g_max})")
    if c >= g_max - 1e-12:
        # the face block of the table from one product per face node, which a
        # GreenOperator serves as well as a dense table
        face = np.flatnonzero(g == g_max)
        block = np.column_stack([np.asarray(matrix @ np.eye(1, ref.size, j)[0])[face]
                                 for j in face])
        masses = np.zeros(ref.size)
        masses[face] = descend(block, v[face], ref[face], ref[face] / ref[face].sum())
        return profile(masses, None)
    # the descent stops at a duality gap of tol * (1 + |F - lam g.m|) and at a
    # total-variation move of tol; the first loosens as lam grows, the second
    # as the mass off the face {argmax g}, at least (max g - c) / span g,
    # shrinks, and either leaves the multiplier low.  The tilted descents
    # scale tol back by both, but not below _TOL_FLOOR: a move that flips the
    # face mass by one ulp of 1 is round-off, and a tol under it is never met.
    off_face = min(1.0, (g_max - c) / (g_max - float(g.min())))

    def tilted(lam, init):
        scaled = _PROFILE_TOL * off_face / (1.0 + lam * float(np.abs(g).max()))
        return descend(matrix, v - lam * g, ref, init, max(scaled, _TOL_FLOOR))

    lo, lam, masses = 0.0, 1.0, base
    for _ in range(_DOUBLING_CAP):
        masses = tilted(lam, masses)
        if float(g @ masses) >= c:
            break
        lo, lam = lam, 2.0 * lam
    else:
        raise EnergyError(f"no multiplier up to {lo!r} reaches the constraint level {c}")
    while lo < 0.5 * (lo + lam) < lam:
        mid = 0.5 * (lo + lam)
        trial = tilted(mid, masses)
        if float(g @ trial) >= c:
            lam, masses = mid, trial
        else:
            lo = mid
    overshoot = float(g @ masses) - c
    if overshoot > 1e-8 * (1.0 + abs(c)):
        raise EnergyError(
            f"the tilted minimizers jump across the level {c} at multiplier "
            f"{lam!r} (overshoot {overshoot:.3e}): a duality gap")
    return profile(masses, lam)


# -- conditional gases -----------------------------------------------------------------------


def single_particle_limit(space, beta, f_fn, potential, n_values, threshold=0.05):
    """One-particle quadrature check: compares

        (1/beta_n) log integral of exp(-beta_n (f + V_n)) dPi

    against -min over the grid of (f + V_limit).  ``potential`` supplies the
    stage fields V_n and their limit."""
    n_values = _particle_counts(n_values)
    nodes = space.nodes
    log_w = np.log(space.weights)
    f_nodes = np.zeros(space.n_nodes) if f_fn is None else np.asarray(
        f_fn(nodes), dtype=float)
    values = []
    for n in n_values:
        beta_n = beta.beta_at(n)
        field_n = np.asarray(potential.stage_values(n, nodes), dtype=float)
        if not np.all(np.isfinite(field_n)):
            raise EnergyError(f"stage potential is not finite on the grid at n={n}")
        values.append(float(logsumexp(log_w - beta_n * (f_nodes + field_n))) / beta_n)
    v_limit = np.asarray(potential.limit_values(nodes), dtype=float)
    target = f_nodes + v_limit
    limit = -float(target.min())
    witness = nodes[int(np.argmin(target))]
    return _verdict("single-particle", n_values, values, None, limit,
                    threshold, witness=witness)
