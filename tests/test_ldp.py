import itertools
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import brentq, minimize_scalar
from scipy.special import iv

from gibbslab import fekete, ldp
from gibbslab.config import RunConfig, build_finite_model, build_functional
from gibbslab.energy import (
    BetaSchedule,
    CallableKernel,
    ConstantKernel,
    EnergyModel,
    EnvironmentPotential,
    EnvironmentSequence,
    FiniteEnergyModel,
    GreenKernel,
    LogChordKernel,
    StaticPotential,
    kernel_node_matrix,
)
from gibbslab.errors import (
    EnergyError,
    EnumerationCapError,
    InfeasibleConstraintError,
)
from gibbslab.fekete import ComposedFunctional, IntegralFunctional, macro_infimum
from gibbslab.ldp import (
    HalfSpace,
    LaplaceVerdict,
    laplace_estimate_mc,
    laplace_verify_finite,
    rate_function_profile,
    single_particle_limit,
)
from gibbslab.measures import EmpiricalMeasure, FiniteSpace, relative_entropy
from gibbslab.simplex import CLASS_CAP, class_table, simplex_minimize


TWO_ATOM_PI = np.array([0.5, 0.5])
THREE_ATOM_PI = np.array([0.4, 0.3, 0.3])
THREE_ATOM_G = np.array([
    [0.0, 1.0, -0.5],
    [1.0, 0.2, 0.3],
    [-0.5, 0.3, 0.0],
])


@pytest.fixture(scope="module")
def three_atom_model():
    space = FiniteSpace(THREE_ATOM_PI)
    return FiniteEnergyModel(space, BetaSchedule.constant(2.0),
                             pair_matrix=THREE_ATOM_G)


def _three_atom_free_energy(taus):
    taus = np.asarray(taus, dtype=float)
    w = 0.5 * np.einsum("ri,ij,rj->r", taus, THREE_ATOM_G, taus)
    with np.errstate(divide="ignore", invalid="ignore"):
        ent = np.where(taus > 0, taus * np.log(taus / THREE_ATOM_PI), 0.0)
    return w + ent.sum(axis=1) / 2.0


def _enumerated_decay(model, n, g, level):
    """Exact -log P_n(mean of g >= level) / (n beta_n) from the class table."""
    table = class_table(model, n)
    counts = table.counts
    coupling = n * model.beta.beta_at(n)
    log_w = table.log_multinomials + table.log_reference - coupling * table.energies
    shift = log_w.max()
    log_total = shift + math.log(np.exp(log_w - shift).sum())
    inset = (counts @ g) / n >= level - 1e-12
    kept = log_w[inset]
    shift = kept.max()
    log_part = shift + math.log(np.exp(kept - shift).sum())
    return -(log_part - log_total) / coupling, int(len(counts))


# -- exact finite-space verdicts --------------------------------------------------


def test_zero_energy_gaps_are_exactly_zero():
    space = FiniteSpace(TWO_ATOM_PI)
    model = FiniteEnergyModel(space, BetaSchedule.constant(1.0),
                              pair_matrix=np.zeros((2, 2)))
    verdict = laplace_verify_finite(space, model, None, list(range(2, 13)))
    assert all(value == 0.0 for value in verdict.values)
    assert all(gap == 0.0 for gap in verdict.gaps)
    assert verdict.limit == 0.0
    assert verdict.passed


def test_zero_energy_exact_on_four_dyadic_atoms():
    space = FiniteSpace([0.25, 0.25, 0.25, 0.25])
    model = FiniteEnergyModel(space, BetaSchedule.constant(1.0),
                              pair_matrix=np.zeros((4, 4)))
    verdict = laplace_verify_finite(space, model, None, [2, 5, 9])
    assert all(value == 0.0 for value in verdict.values)
    assert all(gap == 0.0 for gap in verdict.gaps)


def test_mismatch_kernel_gaps_decrease_to_simplex_limit():
    space = FiniteSpace(TWO_ATOM_PI)
    model = FiniteEnergyModel(space, BetaSchedule.constant(1.0),
                              pair_matrix=np.array([[0.0, 1.0], [1.0, 0.0]]))
    tilt = IntegralFunctional(np.array([1.0, 0.0]))
    verdict = laplace_verify_finite(space, model, tilt, list(range(2, 13)))
    assert np.all(np.diff(verdict.gaps) < 0.0)
    assert verdict.final_gap < 0.05
    assert verdict.slope < 0.0
    assert verdict.passed

    # dense one-dimensional sweep over the simplex edge as the limit oracle
    ts = np.linspace(0.0, 1.0, 2_000_001)
    taus = np.stack([ts, 1.0 - ts], axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ent = np.where(taus > 0, taus * np.log(taus / 0.5), 0.0).sum(axis=1)
    objective = ts + ts * (1.0 - ts) + ent
    assert_allclose(verdict.limit, -objective.min(), atol=1e-9)


def test_composed_tilt_matches_brute_force_and_the_edge_minimum():
    # a nonlinear f = 3 (tau_0 - 0.2)^2, which only finite spaces take
    space = FiniteSpace(TWO_ATOM_PI)
    model = FiniteEnergyModel(space, BetaSchedule.constant(2.0),
                              pair_matrix=np.array([[0.0, 1.0], [1.0, 0.0]]))
    phi = lambda t: 3.0 * (t - 0.2) ** 2
    f = ComposedFunctional(phi, [IntegralFunctional(np.array([1.0, 0.0]))])
    n_values = list(range(2, 13))
    verdict = laplace_verify_finite(space, model, f, n_values)
    for n, value in zip(n_values, verdict.values):
        # log of the sum over all 2^n label sequences, each of weight 2^-n
        coupling = 2.0 * n
        exponents = []
        for labels in itertools.product((0, 1), repeat=n):
            t = labels.count(0) / n
            exponents.append(-coupling * (t * (1.0 - t) + phi(t)) - n * math.log(2.0))
        top = max(exponents)
        brute = top + math.log(math.fsum(math.exp(e - top) for e in exponents))
        assert abs(value - brute / coupling) < 1e-14, n

    def edge(t):
        ent = sum(x * math.log(2.0 * x) for x in (t, 1.0 - t) if x > 0.0)
        return phi(t) + t * (1.0 - t) + ent / 2.0

    oracle = minimize_scalar(edge, bounds=(0.0, 1.0), method="bounded",
                             options={"xatol": 1e-12})
    assert abs(verdict.limit + oracle.fun) < 1e-9
    assert np.all(np.diff(verdict.gaps) < 0.0)
    assert verdict.passed


def test_product_case_matches_closed_form_at_every_n():
    rng = np.random.default_rng(5)
    probs = np.array([0.2, 0.3, 0.5])
    g = rng.normal(size=3)
    beta = 0.7
    space = FiniteSpace(probs)
    model = FiniteEnergyModel(space, BetaSchedule.constant(beta),
                              pair_matrix=np.zeros((3, 3)))
    verdict = laplace_verify_finite(space, model, IntegralFunctional(g),
                                    [2, 4, 8, 16])
    closed = math.log((probs * np.exp(-beta * g)).sum()) / beta
    assert np.abs(verdict.values - closed).max() < 1e-13
    assert abs(verdict.limit - closed) < 1e-10
    assert verdict.errors is None


@pytest.mark.parametrize("probs,tilt", [([0.5, 0.5], None), ([0.3, 0.7], [0.4, -0.2])])
def test_large_n_sums_in_log_space(probs, tilt):
    # n = 1100 on two atoms: multinomials overflow a float and pi^counts
    # underflows to zero, so the sum must be taken in log space
    probs = np.array(probs)
    beta = 1.3
    space = FiniteSpace(probs)
    model = FiniteEnergyModel(space, BetaSchedule.constant(beta),
                              pair_matrix=np.zeros((2, 2)))
    f = None if tilt is None else IntegralFunctional(np.array(tilt))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdict = laplace_verify_finite(space, model, f, [1100], grid_steps=100)
    g = np.zeros(2) if tilt is None else np.array(tilt)
    closed = math.log((probs * np.exp(-beta * g)).sum()) / beta
    assert abs(verdict.values[0] - closed) < 1e-14


def _fixed_point_error(tau, model, g):
    """max |tau - T(tau)| for T(tau) proportional to pi exp(-beta (G tau + g))."""
    field = model.pair_matrix @ tau + g
    mapped = model.space.probs * np.exp(-model.beta.limit * (field - field.min()))
    return float(np.abs(tau - mapped / mapped.sum()).max())


def _finite2_config_model():
    config = RunConfig.from_file(
        Path(__file__).resolve().parent.parent / "configs" / "finite2_laplace.yaml")
    model = build_finite_model(config)
    f = build_functional(config, config.section("ldp")["f"], model.space)
    return model, f


@pytest.mark.parametrize("case,grid_steps", [
    ("benchmark 3-atom", 40), ("benchmark 3-atom", 200),
    ("finite2 config", 400), ("diagonal 3-atom", 200)])
def test_limit_witness_is_the_fixed_point(case, grid_steps, monkeypatch):
    if case == "benchmark 3-atom":  # the finite-exact benchmark's tilted model
        model = FiniteEnergyModel(
            FiniteSpace([0.5, 0.3, 0.2]), BetaSchedule.constant(1.5),
            pair_matrix=[[0.0, 1.0, 0.4], [1.0, 0.3, -0.2], [0.4, -0.2, 0.6]])
        f = IntegralFunctional(np.array([0.5, 0.0, -0.3]))
    elif case == "finite2 config":
        model, f = _finite2_config_model()
    else:
        model = FiniteEnergyModel(FiniteSpace(THREE_ATOM_PI), BetaSchedule.constant(2.0),
                                  pair_matrix=np.diag([1.0, 0.5, 2.0]))
        f = None
    iterations = []
    descent = fekete._mirror_descent

    def recording(*args, **kwargs):
        result = descent(*args, **kwargs)
        iterations.append(result.iterations)
        return result

    monkeypatch.setattr(fekete, "_mirror_descent", recording)
    verdict = laplace_verify_finite(model.space, model, f, [2], grid_steps=grid_steps)
    g = np.zeros(model.space.n_atoms) if f is None else np.asarray(f.g, dtype=float)
    assert _fixed_point_error(verdict.witness, model, g) <= 1e-9
    assert len(iterations) == 1 and iterations[0] < 200


def test_finite_enumeration_guards(three_atom_model):
    space = three_atom_model.space
    with pytest.raises(EnergyError, match="FiniteEnergyModel"):
        laplace_verify_finite(space, object(), None, [2, 3])
    with pytest.raises(EnergyError, match="space"):
        laplace_verify_finite(FiniteSpace(THREE_ATOM_PI), three_atom_model,
                              None, [2, 3])
    with pytest.raises(EnergyError, match="increasing"):
        laplace_verify_finite(space, three_atom_model, None, [4, 4])
    with pytest.raises(EnergyError, match="increasing"):
        laplace_verify_finite(space, three_atom_model, None, [])
    over_cap = 1500  # C(1502, 2) = 1,127,251 type classes on 3 atoms
    assert math.comb(over_cap + 2, 2) > CLASS_CAP
    with pytest.raises(EnumerationCapError):
        laplace_verify_finite(space, three_atom_model, None, [2, over_cap])
    schedule = BetaSchedule.from_callable(lambda n: math.inf, 1.0)
    bad = FiniteEnergyModel(space, schedule, pair_matrix=THREE_ATOM_G)
    with pytest.raises(EnergyError, match="finite"):
        laplace_verify_finite(space, bad, None, [2, 3])


def test_verdict_export_round_trip():
    space = FiniteSpace(TWO_ATOM_PI)
    model = FiniteEnergyModel(space, BetaSchedule.constant(1.0),
                              pair_matrix=np.array([[0.0, 1.0], [1.0, 0.0]]))
    verdict = laplace_verify_finite(space, model, None, [2, 4, 8])
    rows = verdict.to_csv_rows()
    assert rows[0] == ["n", "L_n", "error"]
    assert len(rows) == 4
    parsed = [float(row[1]) for row in rows[1:]]
    assert_allclose(parsed, verdict.values, rtol=1e-12)
    blob = verdict.to_json_dict()
    assert blob["kind"] == "finite-enumeration"
    assert blob["n_values"] == [2, 4, 8]
    assert blob["errors"] is None
    assert isinstance(blob["passed"], bool)
    assert len(blob["gaps"]) == 3
    assert isinstance(verdict, LaplaceVerdict)


# -- Monte Carlo estimator ----------------------------------------------------------


@pytest.fixture(scope="module")
def flat_circle_model(circle_space):
    return EnergyModel(circle_space, ConstantKernel(0.0),
                       BetaSchedule.constant(2.0))


@pytest.fixture(scope="module")
def cosine_tilt():
    return IntegralFunctional(lambda pts: np.cos(pts[:, 0]))


def test_mc_matches_product_closed_form_across_twenty_seeds(
        flat_circle_model, cosine_tilt):
    closed = math.log(iv(0, 2.0)) / 2.0
    z_scores = []
    for seed in range(20):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            verdict = laplace_estimate_mc(flat_circle_model, cosine_tilt, [6],
                                          chain_budget=6000, seed=seed)
        z_scores.append((verdict.values[0] - closed) / verdict.errors[0])
    z_scores = np.array(z_scores)
    assert np.abs(z_scores).max() < 3.0
    assert abs(z_scores.mean()) < 1.0


def test_mc_limit_equals_grid_closed_form(flat_circle_model, cosine_tilt):
    closed = math.log(iv(0, 2.0)) / 2.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        verdict = laplace_estimate_mc(flat_circle_model, cosine_tilt, [4, 8],
                                      chain_budget=12000, seed=3)
    assert abs(verdict.limit - closed) < 1e-12
    assert verdict.errors is not None and np.all(verdict.errors > 0.0)
    assert verdict.kind == "mc"
    assert verdict.passed
    assert np.abs((verdict.values - closed) / verdict.errors).max() < 4.0


def test_mc_error_bars_grow_when_budget_halves(flat_circle_model, cosine_tilt):
    ratios = []
    for seed in range(4):
        errors = []
        for budget in (10000, 5000):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                verdict = laplace_estimate_mc(flat_circle_model, cosine_tilt,
                                              [6], chain_budget=budget,
                                              seed=seed)
            errors.append(verdict.errors[0])
        ratios.append(errors[1] / errors[0])
    mean_ratio = float(np.mean(ratios))
    assert 1.1 < mean_ratio < 1.75  # sqrt(2) up to sampling noise


def test_mc_log_gas_trends_toward_zero_energy(circle_space):
    model = EnergyModel(circle_space, LogChordKernel(), BetaSchedule.linear(1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        verdict = laplace_estimate_mc(model, None, [8, 16, 32],
                                      chain_budget=20000, seed=1,
                                      threshold=0.1)
    assert abs(verdict.limit) < 1e-3
    assert np.all(np.diff(verdict.gaps) < 0.0)
    assert verdict.final_gap < 0.05
    assert verdict.passed


def test_mc_guards(flat_circle_model, cosine_tilt, three_atom_model):
    with pytest.raises(EnergyError, match="continuous"):
        laplace_estimate_mc(three_atom_model, None, [4])
    with pytest.raises(EnergyError, match="cap"):
        laplace_estimate_mc(flat_circle_model, None, [128])
    with pytest.raises(EnergyError, match="rungs"):
        laplace_estimate_mc(flat_circle_model, None, [4], rungs=1)
    with pytest.raises(EnergyError, match="increasing"):
        laplace_estimate_mc(flat_circle_model, None, [8, 4])
    composed = ComposedFunctional(
        lambda v: v * v,
        [IntegralFunctional(lambda pts: np.cos(pts[:, 0]))])
    with pytest.raises(EnergyError, match="integral functionals"):
        laplace_estimate_mc(flat_circle_model, composed, [4])


def test_mc_effective_sample_floor(flat_circle_model, cosine_tilt):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(EnergyError, match="effective sample size"):
            laplace_estimate_mc(flat_circle_model, cosine_tilt, [6],
                                chain_budget=400, seed=0, ess_floor=1e6)


# -- rate-function profiles -----------------------------------------------------------


def test_profile_without_constraint_is_zero(three_atom_model):
    profile = rate_function_profile(three_atom_model)
    assert profile.value == 0.0
    assert_allclose(profile.witness.sum(), 1.0, atol=1e-12)
    _, tau = simplex_minimize(_three_atom_free_energy, 3, steps=600)
    assert_allclose(profile.witness, tau, atol=1e-4)
    blob = profile.to_json_dict()
    assert set(blob) == {"value", "base_value", "constrained_value",
                         "constraint_slack", "iterations", "multiplier"}
    assert profile.multiplier == 0.0


def test_profile_matches_masked_grid_oracle(three_atom_model):
    g = np.array([1.0, 0.0, 0.0])
    for level in (0.7, 0.75):
        profile = rate_function_profile(three_atom_model, HalfSpace(g, level))

        def masked(taus, level=level):
            taus = np.asarray(taus, dtype=float)
            values = _three_atom_free_energy(taus)
            return np.where(taus[:, 0] >= level - 1e-12, values, np.inf)

        base, _ = simplex_minimize(_three_atom_free_energy, 3, steps=800)
        oracle, oracle_tau = simplex_minimize(masked, 3, steps=800)
        assert_allclose(profile.value, oracle - base, atol=1e-5)
        assert_allclose(profile.witness[0], level, atol=1e-5)
        assert profile.constraint_slack > -1e-6
        assert_allclose(profile.witness, oracle_tau, atol=1e-3)


@pytest.mark.parametrize("level", [0.7, 0.75, 0.9, 0.99])
def test_profile_witness_is_feasible(three_atom_model, level):
    profile = rate_function_profile(
        three_atom_model, HalfSpace(np.array([1.0, 0.0, 0.0]), level))
    assert 0.0 <= profile.constraint_slack <= 1e-9
    assert profile.multiplier > 0.0
    if level == 0.7:
        assert profile.iterations <= 500


def test_profile_multiplier_is_the_slope_in_the_level(three_atom_model):
    # Legendre duality: the multiplier of the half-space is dI/dc
    g = np.array([1.0, 0.0, 0.0])
    level, h = 0.7, 1e-4
    profile = rate_function_profile(three_atom_model, HalfSpace(g, level))
    up, down = (rate_function_profile(three_atom_model, HalfSpace(g, c)).value
                for c in (level + h, level - h))
    assert_allclose(profile.multiplier, (up - down) / (2.0 * h), atol=1e-6)
    assert profile.to_json_dict()["multiplier"] == profile.multiplier


def _tilted_fixed_point(model, g, lam):
    """The damped fixed point tau = pi exp(-beta (G tau - lam g)) / Z."""
    tau = model.space.probs.copy()
    for _ in range(10_000):
        field = model.pair_matrix @ tau - lam * g
        log_tau = np.log(model.space.probs) - model.beta.limit * field
        mapped = np.exp(log_tau - log_tau.max())
        nxt = 0.5 * tau + 0.5 * mapped / mapped.sum()
        if np.abs(nxt - tau).max() == 0.0:
            break
        tau = nxt
    return nxt


def test_profile_multiplier_near_the_face_is_the_fixed_point_multiplier(three_atom_model):
    # near max g almost no mass lies off the face, and the tilted descents
    # must still resolve the multiplier at which the exact minimizer is feasible
    g = np.array([1.0, 0.0, 0.0])
    level = 1.0 - 1e-9
    profile = rate_function_profile(three_atom_model, HalfSpace(g, level))
    assert profile.constraint_slack >= 0.0
    assert profile.witness[0] >= level
    lo, hi = 0.0, 64.0
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if _tilted_fixed_point(three_atom_model, g, mid)[0] >= level:
            hi = mid
        else:
            lo = mid
    assert abs(profile.multiplier - hi) <= 1e-6


def test_profile_just_below_the_face_ends_every_descent(three_atom_model, monkeypatch):
    # a tilted tol scaled below round-off is never met, so such descents would
    # run to the iteration cap; the floor on it stops them
    statuses = []
    descent = ldp._mirror_descent

    def recording(*args, **kwargs):
        result = descent(*args, **kwargs)
        statuses.append(result.status)
        return result

    monkeypatch.setattr(ldp, "_mirror_descent", recording)
    level = 1.0 - 1e-11
    profile = rate_function_profile(three_atom_model, HalfSpace(np.array([1.0, 0.0, 0.0]), level))
    assert "max_iterations" not in statuses
    assert profile.witness[0] >= level


def test_profile_at_the_largest_level_is_the_face_minimizer(three_atom_model):
    profile = rate_function_profile(
        three_atom_model, HalfSpace(np.array([1.0, 0.0, 0.0]), 1.0))
    assert np.array_equal(profile.witness, [1.0, 0.0, 0.0])
    vertex_value = 0.5 * THREE_ATOM_G[0, 0] + math.log(1.0 / 0.4) / 2.0
    assert_allclose(profile.constrained_value, vertex_value, rtol=0.0, atol=1e-12)
    assert_allclose(profile.value, vertex_value - profile.base_value, rtol=0.0, atol=1e-12)
    assert profile.constraint_slack == 0.0
    assert profile.multiplier is None


def test_profile_face_through_the_green_operator(torus_space, torus_green):
    model = EnergyModel(torus_space, GreenKernel(torus_green), BetaSchedule.constant(2.0))
    g = np.cos(2.0 * np.pi * torus_space.nodes[:, 0])
    profile = rate_function_profile(model, HalfSpace(g, float(g.max())))
    face = np.flatnonzero(g == g.max())
    masses = profile.witness.node_masses
    assert_allclose(masses[face].sum(), 1.0, atol=1e-12)
    assert not masses[g < g.max()].any()
    table = kernel_node_matrix(model.kernel, torus_space)[np.ix_(face, face)]
    ref = torus_space.weights[face]
    dense = ldp._mirror_descent(table, np.zeros(face.size), ref, 2.0, ref / ref.sum())
    assert np.abs(masses[face] - dense.masses).max() <= 1e-12


def test_profile_raises_when_the_tilted_minimizers_jump():
    # a concave energy: the tilted minimizers jump from t ~ 0 to t ~ 1
    model = FiniteEnergyModel(FiniteSpace([0.45, 0.55]), BetaSchedule.constant(20.0),
                              pair_matrix=[[0.0, 4.0], [4.0, 0.0]])
    with pytest.raises(EnergyError, match="duality gap"):
        rate_function_profile(model, HalfSpace(np.array([1.0, 0.0]), 0.3))


def test_profile_raises_without_a_bracket(three_atom_model, monkeypatch):
    monkeypatch.setattr(ldp, "_DOUBLING_CAP", 1)
    with pytest.raises(EnergyError, match="no multiplier"):
        rate_function_profile(three_atom_model,
                              HalfSpace(np.array([1.0, 0.0, 0.0]), 0.99))


def test_profile_inactive_constraint_returns_zero(three_atom_model):
    profile = rate_function_profile(
        three_atom_model, HalfSpace(np.array([1.0, 0.0, 0.0]), 0.05))
    assert profile.value == 0.0
    assert profile.constraint_slack > 0.0


def test_profile_infeasible_constraint_raises(three_atom_model):
    with pytest.raises(InfeasibleConstraintError, match="max attainable"):
        rate_function_profile(three_atom_model,
                              HalfSpace(np.array([1.0, 0.0, 0.0]), 1.2))


def test_profile_on_circle_matches_tilted_family(circle_space):
    # minimizers of F + lambda (c - <cos, mu>) form an exponential family;
    # solving <cos> = c in the tilt gives the constrained optimum in closed form
    model = EnergyModel(circle_space, ConstantKernel(0.0),
                        BetaSchedule.constant(1.0),
                        potentials=[StaticPotential(lambda p: np.cos(p[:, 0]))])
    level = 0.5
    profile = rate_function_profile(
        model, HalfSpace(lambda p: np.cos(p[:, 0]), level))
    theta = circle_space.nodes[:, 0]
    weights = circle_space.weights

    def tilted_mean(lam):
        dens = np.exp(-(1.0 - lam) * np.cos(theta))
        dens /= (weights * dens).sum()
        return (weights * dens * np.cos(theta)).sum()

    lam = brentq(lambda l: tilted_mean(l) - level, 0.0, 60.0, xtol=1e-14)
    dens = np.exp(-(1.0 - lam) * np.cos(theta))
    dens /= (weights * dens).sum()
    constrained = ((weights * dens * np.cos(theta)).sum()
                   + (weights * dens * np.log(dens)).sum())
    base = -math.log((weights * np.exp(-np.cos(theta))).sum())
    assert_allclose(profile.value, constrained - base, atol=5e-7)
    assert profile.constraint_slack > -1e-6
    assert 0.0 <= profile.constraint_slack <= 1e-9
    assert_allclose(profile.multiplier, lam, atol=1e-6)
    assert_allclose(profile.witness.node_masses.sum(), 1.0, atol=1e-10)


def test_profile_guards(three_atom_model, circle_space):
    with pytest.raises(EnergyError, match="per-atom vector"):
        rate_function_profile(three_atom_model,
                              HalfSpace(lambda p: p[:, 0], 0.5))
    with pytest.raises(EnergyError, match="shape"):
        rate_function_profile(three_atom_model,
                              HalfSpace(np.ones(4), 0.5))
    negative = BetaSchedule.from_callable(lambda n: 1.0, -1.0)
    bad = FiniteEnergyModel(three_atom_model.space, negative,
                            pair_matrix=THREE_ATOM_G)
    with pytest.raises(EnergyError, match="positive"):
        rate_function_profile(bad)
    with pytest.raises(EnergyError, match="profile"):
        rate_function_profile(object())


# -- enumerated decay rates against the profile ----------------------------------------


def test_enumerated_decay_sandwich_at_small_n(three_atom_model):
    g = np.array([1.0, 0.0, 0.0])
    level = 0.7
    closed = rate_function_profile(three_atom_model, HalfSpace(g, level))
    for n in (8, 10, 12):
        decay, n_classes = _enumerated_decay(three_atom_model, n, g, level)
        # upper-bound direction: the enumerated rate can only exceed the
        # closed-set profile value
        assert decay >= closed.value - 1e-9
        # two-sided union bound around the profile at the lattice-attainable
        # constraint level
        lattice_level = math.ceil(n * level - 1e-9) / n
        lattice = rate_function_profile(three_atom_model,
                                        HalfSpace(g, lattice_level))
        slack = math.log(n_classes) / (n * three_atom_model.beta.beta_at(n))
        assert lattice.value - slack <= decay <= lattice.value + slack


def test_enumerated_decay_approaches_profile(three_atom_model):
    g = np.array([1.0, 0.0, 0.0])
    level = 0.7
    profile = rate_function_profile(three_atom_model, HalfSpace(g, level))
    gaps = []
    for n in (20, 80, 200):
        decay, _ = _enumerated_decay(three_atom_model, n, g, level)
        gaps.append(decay - profile.value)
    assert all(gap > 0.0 for gap in gaps)
    assert gaps[2] < gaps[1] < gaps[0]
    assert gaps[2] < 0.01


# -- conditional gases -------------------------------------------------------------------


def test_conditional_environment_mode_matches_closed_form(circle_space):
    # one pinned unit charge felt through cos(x - y) adds the field cos(x),
    # so with the cos tilt the one-body term doubles and the product
    # closed form is log I_0(4) / 2
    external = CallableKernel(lambda sp, a, b: np.cos(a[..., 0] - b[..., 0]))
    pinned = EmpiricalMeasure(circle_space, np.array([[0.0]]))
    env = EnvironmentPotential(external, EnvironmentSequence.fixed(pinned))
    model = EnergyModel(circle_space, ConstantKernel(0.0),
                        BetaSchedule.constant(2.0), potentials=[env])
    tilt = IntegralFunctional(lambda pts: np.cos(pts[:, 0]))
    closed = math.log(iv(0, 4.0)) / 2.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        verdict = laplace_estimate_mc(model, tilt, [4, 8],
                                      chain_budget=12000, seed=2)
    assert abs(verdict.limit - closed) < 1e-10
    assert np.abs((verdict.values - closed) / verdict.errors).max() < 4.0
    assert verdict.passed


def test_single_particle_quadrature_gap_shrinks_in_beta(circle_space):
    potential = StaticPotential(lambda pts: np.cos(pts[:, 0]))
    verdict = single_particle_limit(circle_space, BetaSchedule.linear(2.0),
                                    None, potential, [1, 2, 4, 8, 16, 32])
    assert_allclose(verdict.limit, 1.0, atol=1e-15)
    assert np.all(np.diff(verdict.gaps) < 0.0)
    assert verdict.final_gap < 0.05
    assert verdict.passed
    assert_allclose(verdict.witness[0], math.pi, atol=1e-12)


def test_single_particle_witness_tracks_shifted_minimum(circle_space):
    potential = StaticPotential(lambda pts: -np.cos(pts[:, 0] - 1.0))
    verdict = single_particle_limit(circle_space, BetaSchedule.linear(4.0),
                                    None, potential, [1, 2, 4, 8])
    spacing = 2.0 * math.pi / circle_space.n_nodes
    assert abs(verdict.witness[0] - 1.0) <= spacing
    assert_allclose(verdict.limit, -potential.fn(verdict.witness[None, :])[0],
                    atol=1e-12)


def test_single_particle_dispatch_and_guards(circle_space):
    external = CallableKernel(lambda sp, a, b: np.cos(a[..., 0] - b[..., 0]))
    pinned = EmpiricalMeasure(circle_space, np.array([[0.0]]))
    env = EnvironmentPotential(external, EnvironmentSequence.fixed(pinned))
    verdict = single_particle_limit(circle_space, BetaSchedule.linear(2.0), None,
                                    env, [1, 2, 4, 8])
    assert_allclose(verdict.witness[0], math.pi, atol=1e-12)
    assert np.all(np.diff(verdict.gaps) < 0.0)

    with pytest.raises(EnergyError, match="increasing"):
        single_particle_limit(circle_space, BetaSchedule.linear(2.0), None,
                              StaticPotential(lambda p: p[:, 0] * 0.0), [4, 2])
    singular = EnvironmentPotential(
        LogChordKernel(), EnvironmentSequence.fixed(
            EmpiricalMeasure(circle_space, circle_space.nodes[:1])))
    with pytest.raises(EnergyError, match="finite"):
        single_particle_limit(circle_space, BetaSchedule.linear(2.0), None,
                              singular, [1, 2])


def test_finite_limit_stable_under_grid_refinement():
    # The limit estimate comes from a simplex grid search plus a descent
    # polish; the polish must erase the grid coarseness, so refining the
    # grid cannot move an already-resolved estimate.
    space = FiniteSpace(np.array([0.5, 0.5]))
    model = FiniteEnergyModel(space, BetaSchedule.constant(2.0),
                              pair_matrix=np.array([[0.0, 1.0], [1.0, 0.0]]))
    f = IntegralFunctional(np.array([1.0, 0.0]))
    limits = [laplace_verify_finite(space, model, f, [2],
                                    grid_steps=steps).limit
              for steps in (25, 100, 200, 400)]
    assert abs(limits[-1] - limits[-2]) < 1e-9
    assert max(limits) - min(limits) < 1e-6


def test_finite_limits_fall_to_the_fekete_infimum():
    # Gamma-convergence on the benchmark's tilted 3-atom model: -limit(beta) =
    # inf {f + w + D/beta} does not rise with beta, stays above the Fekete
    # infimum inf {f + w}, and exceeds it by at most D(tau || pi) / beta at
    # the Fekete witness tau
    space = FiniteSpace([0.5, 0.3, 0.2])
    pair = [[0.0, 1.0, 0.4], [1.0, 0.3, -0.2], [0.4, -0.2, 0.6]]
    f = IntegralFunctional(np.array([0.5, 0.0, -0.3]))
    betas = [1.0, 4.0, 16.0, 64.0]
    infima = [-laplace_verify_finite(
        space, FiniteEnergyModel(space, BetaSchedule.constant(beta), pair_matrix=pair),
        f, [2]).limit for beta in betas]
    fekete_value, tau = macro_infimum(
        FiniteEnergyModel(space, BetaSchedule.constant(1.0), pair_matrix=pair), f)
    assert all(b <= a for a, b in zip(infima, infima[1:]))
    assert min(infima) >= fekete_value - 1e-12
    entropy = relative_entropy(tau, space.probs)
    for beta, value in zip(betas, infima):
        assert value - fekete_value <= entropy / beta + 1e-12


def test_finite_verification_refuses_a_plain_callable(three_atom_model):
    space = three_atom_model.space
    with pytest.raises(EnergyError, match="MeasureFunctional"):
        laplace_verify_finite(space, three_atom_model, lambda tau: float(tau[0]), [2, 3])


def test_environment_route_matches_static_potential_route(circle_space):
    # Dual route: a fixed two-point environment coupled through cos of the
    # geodesic distance is the same physics as the explicit external field
    # (cos(x) + cos(x - 1))/2.  Both Monte Carlo estimates and both limits
    # must agree.
    beta = BetaSchedule.constant(2.0)
    pair = CallableKernel(
        lambda sp, a, b: np.cos(sp_geodesic(a, b)), singular=False)

    def sp_geodesic(a, b):
        delta = np.abs(a[..., 0] - b[..., 0]) % (2.0 * math.pi)
        return np.minimum(delta, 2.0 * math.pi - delta)

    pinned = EmpiricalMeasure(circle_space, np.array([[0.0], [1.0]]))
    env = EnvironmentPotential(pair, EnvironmentSequence.fixed(pinned))
    env_model = EnergyModel(circle_space, ConstantKernel(0.0), beta,
                            potentials=[env])

    static = StaticPotential.from_expression(
        circle_space, "(cos(theta) + cos(theta - 1)) / 2")
    static_model = EnergyModel(circle_space, ConstantKernel(0.0), beta,
                               potentials=[static])

    n_values = [8]
    env_verdict = laplace_estimate_mc(env_model, None, n_values,
                                      chain_budget=8000, seed=21)
    static_verdict = laplace_estimate_mc(static_model, None, n_values,
                                         chain_budget=8000, seed=21)
    assert_allclose(env_verdict.limit, static_verdict.limit, atol=1e-8)
    spread = abs(env_verdict.values[0] - static_verdict.values[0])
    assert spread < 3.0 * (env_verdict.errors[0] + static_verdict.errors[0])
