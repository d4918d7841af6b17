"""Metropolis chains against exact enumerations and closed-form marginals."""

import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import chi2 as chi2_dist

from gibbslab import sampler
from gibbslab.energy import (
    BetaSchedule,
    CallableKernel,
    ConstantKernel,
    EnergyModel,
    FiniteEnergyModel,
    GreenKernel,
    LogChordKernel,
    RieszKernel,
    StaticPotential,
    w_n,
)
from gibbslab.errors import EnergyError, EnumerationCapError, TrappedChainError
from gibbslab.measures import FiniteSpace
from gibbslab.sampler import (
    _FINITE_BLOCK,
    _ContinuousChain,
    _continuous_deltas,
    _FiniteChain,
    _propose_point,
    enumerate_gibbs,
    mcmc_run,
)
from gibbslab.spaces import build_space


@pytest.fixture(scope="module")
def four_atom_model():
    space = FiniteSpace([0.4, 0.3, 0.2, 0.1])
    g = np.array([
        [0.0, 1.0, 0.5, -0.3],
        [1.0, 0.2, 0.8, 0.1],
        [0.5, 0.8, 0.0, 0.4],
        [-0.3, 0.1, 0.4, 0.6],
    ])
    return FiniteEnergyModel(space, BetaSchedule.constant(1.0), pair_matrix=g)


def _batch_z(values, exact, batches=50):
    values = np.asarray(values, dtype=float)
    usable = len(values) // batches * batches
    means = values[:usable].reshape(batches, -1).mean(axis=1)
    se = means.std(ddof=1) / math.sqrt(batches)
    return (values.mean() - exact) / se


# -- finite chains vs exact enumeration ---------------------------------------------


def test_enumeration_normalizes(four_atom_model):
    table = enumerate_gibbs(four_atom_model, 6)
    assert table.counts.shape == (84, 4)
    assert abs(np.exp(table.log_probs).sum() - 1.0) < 1e-12
    assert np.all(table.counts.sum(axis=1) == 6)
    marginal = table.marginal()
    assert abs(marginal.sum() - 1.0) < 1e-12


def test_free_case_enumeration_is_multinomial(four_atom_model):
    # zero interaction: the Gibbs measure is the bare product measure
    space = four_atom_model.space
    free = FiniteEnergyModel(space, BetaSchedule.constant(1.0),
                             pair_matrix=np.zeros((4, 4)))
    table = enumerate_gibbs(free, 5)
    assert abs(table.log_partition) < 1e-12
    np.testing.assert_allclose(table.marginal(), space.probs, atol=1e-13)


def test_finite_chain_matches_enumeration(four_atom_model):
    n = 6
    exact = enumerate_gibbs(four_atom_model, n)
    result = mcmc_run(four_atom_model, n, steps=200_000, seed=77, thin=1)
    occupation = (result.samples == 0).sum(axis=1) / n
    z_occ = _batch_z(occupation, exact.expectation(lambda c: c[0] / n))
    z_energy = _batch_z(result.energies,
                        exact.expectation(lambda c: four_atom_model.w_counts(c, n)))
    assert abs(z_occ) < 3.0
    assert abs(z_energy) < 3.0


def test_seed_determinism_byte_exact(four_atom_model):
    a = mcmc_run(four_atom_model, 6, steps=20_000, seed=123)
    b = mcmc_run(four_atom_model, 6, steps=20_000, seed=123)
    assert a.samples.tobytes() == b.samples.tobytes()
    assert a.energies.tobytes() == b.energies.tobytes()
    c = mcmc_run(four_atom_model, 6, steps=20_000, seed=124)
    assert a.samples.tobytes() != c.samples.tobytes()


@pytest.mark.parametrize("probs", [[0.5, 0.25, 0.125, 0.125], [0.4, 0.3, 0.2, 0.1]])
def test_finite_proposal_draws_the_stream_of_rng_choice(probs):
    model = FiniteEnergyModel(FiniteSpace(probs), BetaSchedule.constant(1.0),
                              pair_matrix=np.zeros((4, 4)))
    chain = _FiniteChain(model, 3, np.random.default_rng(0), None, 1.0)
    ours, reference = np.random.default_rng(11), np.random.default_rng(11)
    sites, atoms, uniforms = zip(*chain.draw_block(ours, 100_000))
    assert list(sites) == reference.integers(3, size=100_000).tolist()
    assert list(atoms) == reference.choice(4, size=100_000, p=chain.probs).tolist()
    assert list(uniforms) == reference.random(100_000).tolist()
    assert ours.bit_generator.state == reference.bit_generator.state


def _random_finite_model(rng, m):
    space = FiniteSpace(rng.dirichlet(np.ones(m)))
    g = rng.normal(size=(m, m))
    return FiniteEnergyModel(space, BetaSchedule.constant(1.0), pair_matrix=g + g.T)


@settings(max_examples=80, deadline=None)
@given(m=st.integers(2, 6), n=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1))
def test_row_sum_delta_equals_energy_difference(m, n, seed):
    rng = np.random.default_rng(seed)
    model = _random_finite_model(rng, m)
    chain = _FiniteChain(model, n, rng, rng.integers(m, size=n), 1.0)
    # accepted moves first (coupling 0 accepts all), so that later deltas run
    # on updated row sums
    for _ in range(int(rng.integers(0, 20))):
        chain.step(rng, 0.0)
    counts = np.array(chain.counts)
    assert counts.tolist() == np.bincount(chain.state.positions, minlength=m).tolist()
    for a in np.flatnonzero(counts):
        for b in range(m):
            if b == a:
                continue
            moved = counts.copy()
            moved[a] -= 1
            moved[b] += 1
            want = model.w_counts(moved, n) - model.w_counts(counts, n)
            assert abs(chain.delta(a, b) - want) < 1e-12


def test_finite_tempering_swaps_carry_the_row_sums(four_atom_model, monkeypatch):
    chains = []
    make_chain = sampler._make_chain

    def recording(*args):
        chain, kind = make_chain(*args)
        chains.append(chain)
        return chain, kind

    monkeypatch.setattr(sampler, "_make_chain", recording)
    # fewer steps than the coherence check's period, so only the caches are judged
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = mcmc_run(four_atom_model, 6, steps=900, seed=5, ladder=[0.25, 0.5, 1.0],
                          swap_every=5)
    assert min(result.swap_rates) > 0.0
    g = four_atom_model.pair_matrix
    for chain in chains:
        counts = np.bincount(chain.state.positions, minlength=4)
        assert chain.counts == counts.tolist()
        np.testing.assert_allclose(chain.rowsums, g @ counts, rtol=0.0, atol=1e-12)
        assert abs(chain.state.energy - four_atom_model.w_counts(counts, 6)) < 1e-12


def test_finite_chain_energy_across_block_refills(four_atom_model):
    # several refills of the variate block and several coherence checks
    steps = 3 * _FINITE_BLOCK + 500
    result = mcmc_run(four_atom_model, 6, steps=steps, seed=8, burn_in=0.0, thin=1)
    final = result.final_state
    assert np.array_equal(result.samples[-1], final.positions)
    counts = np.bincount(final.positions, minlength=4)
    assert abs(final.energy - four_atom_model.w_counts(counts, 6)) < 1e-12
    assert final.energy == result.energies[-1]


def test_detailed_balance_flow_counts(four_atom_model):
    result = mcmc_run(four_atom_model, 6, steps=120_000, seed=31, thin=1, burn_in=0.1)
    samples = result.samples
    flows = np.zeros((4, 4))
    changed = samples[1:] != samples[:-1]
    rows, cols = np.nonzero(changed)
    for r, c in zip(rows, cols):
        flows[samples[r, c], samples[r + 1, c]] += 1
    for a in range(4):
        for b in range(a + 1, 4):
            total = flows[a, b] + flows[b, a]
            if total == 0:
                continue
            assert abs(flows[a, b] - flows[b, a]) <= 3.0 * math.sqrt(total)


# -- continuous chains ---------------------------------------------------------------


def test_circle_potential_marginal_chi_squared(circle_space):
    pot = StaticPotential(lambda pts: np.cos(pts[:, 0]))
    model = EnergyModel(circle_space, ConstantKernel(0.0),
                        BetaSchedule.constant(2.0), potentials=[pot])
    result = mcmc_run(model, n=4, steps=400_000, seed=11, thin=40)
    angles = result.samples[..., 0].ravel()
    z = quad(lambda t: math.exp(-2.0 * math.cos(t)), 0.0, 2.0 * np.pi)[0]
    bins = np.linspace(0.0, 2.0 * np.pi, 13)
    observed, _ = np.histogram(angles, bins)
    probs = np.array([
        quad(lambda t: math.exp(-2.0 * math.cos(t)) / z, bins[i], bins[i + 1])[0]
        for i in range(12)
    ])
    expected = probs * angles.size
    statistic = float(((observed - expected) ** 2 / expected).sum())
    assert statistic < chi2_dist.ppf(0.99, 11)


def test_repulsive_pair_distance(circle_space):
    # two log-gas particles at coupling 2: gap density ~ sin(gap/2)^(1/2)
    model = EnergyModel(circle_space, LogChordKernel(), BetaSchedule.constant(1.0))
    result = mcmc_run(model, n=2, steps=200_000, seed=9, thin=25)
    gaps = np.array([
        float(circle_space.geodesic(s[0], s[1])[0, 0]) for s in result.samples
    ])
    weight = lambda d: math.sin(d / 2.0) ** 0.5
    exact = (quad(lambda d: d * weight(d), 0.0, np.pi)[0]
             / quad(weight, 0.0, np.pi)[0])
    assert abs(_batch_z(gaps, exact)) < 3.0
    assert gaps.mean() > np.pi / 2.0  # strictly more spread than independent pairs


def test_box_reference_density_is_respected():
    space = build_space("box", 64, bounds=[(-4.0, 4.0)], density="exp(-x*x/2)")
    model = EnergyModel(space, ConstantKernel(0.0), BetaSchedule.constant(1.0))
    result = mcmc_run(model, n=2, steps=150_000, seed=21, thin=20)
    xs = result.samples[..., 0].ravel()
    assert abs(_batch_z(xs, 0.0)) < 3.5
    assert abs(xs.var() - 1.0) < 0.1


def test_sphere_and_torus_chains(sphere_space, torus_space, torus_green):
    green = EnergyModel(torus_space, GreenKernel(torus_green), BetaSchedule.constant(2.0))
    res = mcmc_run(green, n=8, steps=4000, seed=3)
    assert res.samples.shape[1:] == (8, 2)
    assert 0.0 < res.acceptance_rate <= 1.0
    assert np.all((res.samples >= 0.0) & (res.samples < 1.0))
    pot = StaticPotential(lambda pts: pts[:, 2])
    sp_model = EnergyModel(sphere_space, ConstantKernel(0.0),
                           BetaSchedule.constant(1.0), potentials=[pot])
    res2 = mcmc_run(sp_model, n=6, steps=4000, seed=4)
    norms = np.linalg.norm(res2.samples, axis=-1)
    assert np.abs(norms - 1.0).max() < 1e-12
    # the linear potential pushes mass toward the south pole
    assert res2.samples[..., 2].mean() < 0.0


@pytest.fixture(scope="module")
def green_chain_models(torus_green, sphere_charged_green):
    """Torus Green gas (uniform charge) and sphere Green gas (non-uniform
    charge, with a one-body potential)."""
    pot = StaticPotential.from_expression(sphere_charged_green.space, "x*y - z")
    return {
        "torus": EnergyModel(torus_green.space, GreenKernel(torus_green),
                             BetaSchedule.constant(2.0)),
        "sphere": EnergyModel(sphere_charged_green.space, GreenKernel(sphere_charged_green),
                              BetaSchedule.constant(1.0), potentials=[pot]),
    }


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["torus", "sphere"]), n=st.integers(2, 9),
       r=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_green_cached_delta_equals_energy_difference(green_chain_models, kind, n, r, seed):
    # one Green formula: the chain's live cache, after several accepted
    # moves, scores a batch exactly as a cache built from the positions, and
    # each value is the w_n difference
    model = green_chain_models[kind]
    space = model.space
    rng = np.random.default_rng(seed)
    chain = _ContinuousChain(model, n, rng, space.sample_points(rng, n), 0.5)
    positions, cache = chain.state.positions, chain.green_cache
    for _ in range(4):
        i = int(rng.integers(n))
        point = space.sample_points(rng, 1)[0]
        delta = _continuous_deltas(model, positions, i, point[None, :], cache)[0]
        assert abs(delta - _energy_difference(model, positions, i, point)[0]) < 1e-12
        positions[i] = point
        cache.accept(i, 0)
    i = int(rng.integers(n))
    points = space.sample_points(rng, r)
    live = _continuous_deltas(model, positions, i, points, cache)
    fresh = _continuous_deltas(model, positions, i, points)
    assert np.array_equal(live, fresh)
    for point, delta in zip(points, live):
        want, scale = _energy_difference(model, positions, i, point)
        assert abs(delta - want) < 1e-12 * scale


@pytest.mark.parametrize("kind", ["torus", "sphere"])
def test_green_chain_start_is_one_evaluation(green_chain_models, monkeypatch, kind, rng):
    # the start energy and the cache come from one basis evaluation of the n
    # points; the energy is w_n's bit for bit, and so is the coherence check's
    model = green_chain_models[kind]
    space, green = model.space, model.kernel.model
    positions = space.sample_points(rng, 7)
    calls = []
    evaluate_basis = type(space).evaluate_basis

    def counting(self, points):
        calls.append(len(points))
        return evaluate_basis(self, points)

    monkeypatch.setattr(type(space), "evaluate_basis", counting)
    chain = _ContinuousChain(model, 7, rng, positions, 0.5)
    assert calls == [7]
    monkeypatch.setattr(type(space), "evaluate_basis", evaluate_basis)
    assert chain.state.energy == w_n(model, positions)
    assert np.array_equal(chain.green_cache.rows, green.features(positions)[0])
    for _ in range(3):
        chain.step(rng, 2.0)
    chain.check_coherence()
    assert chain.state.energy == w_n(model, chain.state.positions)
    assert np.array_equal(chain.green_cache.rows, green.features(chain.state.positions)[0])


@pytest.fixture(scope="module")
def dense_delta_models(circle_space, sphere_space, box_space, torus_green):
    """Pair models scored by ``_continuous_deltas`` without a live cache:
    the circle log gas, a sphere Riesz gas and a box log gas in a confining
    potential through one (R + 1, n) kernel table, and the torus Green gas
    through a cache built from the positions, as in the Fekete polish."""
    return {
        "circle": EnergyModel(circle_space, LogChordKernel(), BetaSchedule.constant(2.0)),
        "sphere": EnergyModel(sphere_space, RieszKernel(1.0), BetaSchedule.constant(1.0)),
        "box": EnergyModel(box_space, LogChordKernel(2.0), BetaSchedule.constant(2.0),
                           potentials=[StaticPotential(lambda p: 0.5 * p[:, 0] ** 2)]),
        "torus": EnergyModel(torus_green.space, GreenKernel(torus_green),
                             BetaSchedule.constant(2.0)),
    }


def _energy_difference(model, positions, i, point):
    moved = positions.copy()
    moved[i] = point
    before, after = w_n(model, positions), w_n(model, moved)
    return after - before, max(1.0, abs(before), abs(after))


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["circle", "sphere", "box", "torus"]), n=st.integers(2, 9),
       r=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1))
def test_dense_deltas_equal_energy_differences(dense_delta_models, kind, n, r, seed):
    model = dense_delta_models[kind]
    space = model.space
    rng = np.random.default_rng(seed)
    positions = space.sample_points(rng, n)
    i = int(rng.integers(n))
    points = space.sample_points(rng, r)
    with np.errstate(divide="ignore", invalid="ignore"):  # as the caller must
        deltas = _continuous_deltas(model, positions, i, points)
    assert deltas.shape == (r,)
    for point, delta in zip(points, deltas):
        want, scale = _energy_difference(model, positions, i, point)
        assert abs(delta - want) < 1e-12 * scale


@pytest.mark.parametrize("kind", ["circle", "sphere", "box", "torus"])
def test_dense_deltas_at_a_particle(dense_delta_models, kind, rng):
    model = dense_delta_models[kind]
    positions = model.space.sample_points(rng, 6)
    # row 0: particle 2's own position; row 1: particle 4's position
    with np.errstate(divide="ignore", invalid="ignore"):  # as the caller must
        deltas = _continuous_deltas(model, positions, 2, positions[[2, 4]])
    assert deltas[0] == 0.0
    if kind == "torus":  # the truncated Green kernel is finite on the diagonal
        want, scale = _energy_difference(model, positions, 2, positions[4])
        assert abs(deltas[1] - want) < 1e-12 * scale
    else:
        assert deltas[1] == math.inf


def test_dense_delta_nan_row_is_infinite(circle_space):
    # the kernel is undefined beyond angle 5
    def fn(space, a, b):
        t, p = a[..., 0], b[..., 0]
        return np.where((t > 5.0) | (p > 5.0), np.nan, np.cos(t - p))

    model = EnergyModel(circle_space, CallableKernel(fn), BetaSchedule.constant(1.0))
    positions = np.array([[0.5], [1.5], [2.5], [3.5]])
    deltas = _continuous_deltas(model, positions, 1, np.array([[5.5], [4.5]]))
    assert deltas[0] == math.inf
    want, scale = _energy_difference(model, positions, 1, np.array([4.5]))
    assert abs(deltas[1] - want) < 1e-12 * scale


def test_green_tempering_swaps_carry_the_cache(green_chain_models):
    model = green_chain_models["torus"]
    # fewer steps than the coherence check's period, so only the cache is judged
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = mcmc_run(model, n=8, steps=900, seed=5, ladder=[0.5, 1.0], swap_every=10)
    assert result.swap_rates[0] > 0.0
    final = result.final_state
    assert abs(final.energy - w_n(model, final.positions)) < 1e-10


# -- the chain step against the reference ----------------------------------------------


@pytest.fixture(scope="module")
def chain_models(circle_space, sphere_space, torus_green):
    """One model per proposal kind: the circle log gas, a sphere Riesz gas,
    the torus Green gas and a box log gas with a non-uniform reference and
    a confining potential."""
    box = build_space("box", 64, bounds=[(-3.0, 3.0)], density="exp(-x*x/4)")
    return {
        "circle": EnergyModel(circle_space, LogChordKernel(), BetaSchedule.constant(2.0)),
        "sphere": EnergyModel(sphere_space, RieszKernel(1.0), BetaSchedule.constant(1.0)),
        "torus": EnergyModel(torus_green.space, GreenKernel(torus_green),
                             BetaSchedule.constant(2.0)),
        "box": EnergyModel(box, LogChordKernel(2.0), BetaSchedule.constant(2.0),
                           potentials=[StaticPotential(lambda p: 0.5 * p[:, 0] ** 2)]),
    }


def _recorded_run(monkeypatch, *args, **kwargs):
    """``mcmc_run`` that also returns every chain it made."""
    chains = []
    make_chain = sampler._make_chain

    def recording(*chain_args):
        chain, kind = make_chain(*chain_args)
        chains.append(chain)
        return chain, kind

    monkeypatch.setattr(sampler, "_make_chain", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # swap rates of short ladders
        result = mcmc_run(*args, **kwargs)
    monkeypatch.setattr(sampler, "_make_chain", make_chain)
    return result, chains


# sha256 of samples then energies (first 16 hex digits), taken before the
# step lost its per-call overhead: the step keeps the stream.  None where
# the burn-in adaptation now stops at the torus diameter sqrt(1/2).
PARENT_DIGESTS = {
    "circle": ("6fe8e5230a0f3690", "955394ba61f80393", "73f43978383e3757"),
    "sphere": ("aae59474f90ed3d3", "02dd1226c5c6057c", "9c52d6c6b1ea6c9c"),
    "torus": ("f5ead3664a27d7c9", None, None),
    "box": ("79cacf9f91f19473", "f01ab2bd25b674a2", "a8a253686fb5a96d"),
}
RUNS = [(10, None), (2_500, None), (2_500, [0.5, 1.0])]


@pytest.mark.parametrize("kind, steps, ladder, digest", [
    (kind, steps, ladder, PARENT_DIGESTS[kind][k])
    for kind in PARENT_DIGESTS for k, (steps, ladder) in enumerate(RUNS)
], ids=[f"{kind}-{case}" for kind in PARENT_DIGESTS
        for case in ("ten-steps", "coherence-checks", "two-rungs")])
def test_chain_energy_and_stream_against_the_reference(chain_models, monkeypatch, kind,
                                                       steps, ladder, digest):
    # every rung's cached energy is w_n of its positions at the end, after
    # coherence checks, a same-seed rerun is byte-identical, and the stream
    # is the pinned one
    model = chain_models[kind]
    runs = [_recorded_run(monkeypatch, model, 6, steps=steps, seed=13, ladder=ladder,
                          swap_every=10, thin=1) for _ in range(2)]
    (result, chains), (again, _) = runs
    assert len(chains) == (1 if ladder is None else 2)
    for chain in chains:
        state = chain.state
        assert abs(state.energy - w_n(model, state.positions)) < 1e-9
    assert result.final_state.energy == result.energies[-1]
    assert result.samples.tobytes() == again.samples.tobytes()
    assert result.energies.tobytes() == again.energies.tobytes()
    if digest is not None:
        pinned = hashlib.sha256(result.samples.tobytes() + result.energies.tobytes())
        assert pinned.hexdigest()[:16] == digest


@pytest.mark.parametrize("steps, sizes", [(10, [10]), (2_500, [_FINITE_BLOCK] * 3)])
def test_finite_variate_blocks_follow_the_chain_length(four_atom_model, monkeypatch,
                                                       steps, sizes):
    # a short segment draws only the steps it makes
    drawn = []
    draw_block = _FiniteChain.draw_block

    def recording(chain, rng, size):
        drawn.append(size)
        return draw_block(chain, rng, size)

    monkeypatch.setattr(_FiniteChain, "draw_block", recording)
    mcmc_run(four_atom_model, 6, steps=steps, seed=13)
    assert drawn == sizes


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(["circle", "torus", "sphere"]), seed=st.integers(0, 2 ** 32 - 1),
       normals=st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3),
       scale=st.floats(0.0, 10.0))
def test_proposal_stays_on_the_space(circle_space, torus_space, sphere_space, kind, seed,
                                     normals, scale):
    space = {"circle": circle_space, "torus": torus_space, "sphere": sphere_space}[kind]
    point = space.sample_points(np.random.default_rng(seed), 1)[0].tolist()
    moved = np.array(_propose_point(space, point, normals[: space.point_dim], scale))
    assert moved.shape == (space.point_dim,)
    if kind == "sphere":
        assert abs(np.linalg.norm(moved) - 1.0) < 1e-12
    else:
        period = 2.0 * math.pi if kind == "circle" else 1.0
        assert np.all((moved >= 0.0) & (moved < period))


def test_proposal_wraps_a_tiny_negative_step(circle_space, torus_space):
    # -1e-300 mod the period rounds to the period itself, which is off the chart
    assert _propose_point(circle_space, [0.0], [-1e-300], 1.0) == [0.0]
    assert _propose_point(torus_space, [0.0, 0.5], [-1e-300, 0.0], 1.0) == [0.0, 0.5]


def test_box_proposal_leaving_the_chart_is_none(box_space):
    assert _propose_point(box_space, [2.5], [1.0], 1.0) is None
    assert _propose_point(box_space, [2.5], [0.5], 1.0) == [3.0]


def test_near_collision_chain_warns_nothing(circle_space):
    # two particles one float apart and steps of 1e-16: candidates land on
    # the other particle, where the log kernel divides by zero
    model = EnergyModel(circle_space, LogChordKernel(), BetaSchedule.constant(1.0))
    initial = np.array([[1.0], [np.nextafter(1.0, 2.0)]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = mcmc_run(model, 2, steps=2_000, seed=3, initial=initial,
                          proposal_scale=1e-16, burn_in=0.0)
    assert np.isfinite(result.energies).all()
    final = result.final_state
    assert abs(final.energy - w_n(model, final.positions)) < 1e-9


def test_burn_in_adaptation_stops_at_the_diameter():
    # a free gas accepts every move; the scale grew without bound before
    space = build_space("circle", 64)
    model = EnergyModel(space, ConstantKernel(0.0), BetaSchedule.constant(1.0))
    result = mcmc_run(model, 2, steps=20_000, seed=1, burn_in=0.9)
    assert result.proposal_scale <= math.pi
    assert np.isfinite(result.samples).all()


# -- safety rails ----------------------------------------------------------------------


def test_trapped_chain_raises():
    space = build_space("box", 32, bounds=[(-1.0, 1.0)])
    model = EnergyModel(space, ConstantKernel(0.0), BetaSchedule.constant(1.0))
    with pytest.raises(TrappedChainError):
        mcmc_run(model, n=2, steps=150_000, seed=1, proposal_scale=1e9, burn_in=0.0)


def test_cache_coherence_guard(circle_space):
    calls = {"count": 0}

    def drifting(space, a, b):
        calls["count"] += 1
        scale = 1.5 if calls["count"] > 500 else 1.0
        return scale * np.cos(a[..., 0] - b[..., 0])

    model = EnergyModel(circle_space, CallableKernel(drifting),
                        BetaSchedule.constant(1.0))
    with pytest.raises(EnergyError, match="drifted"):
        mcmc_run(model, n=6, steps=5000, seed=2, burn_in=0.0)


def test_coherence_checks_run_through_burn_in(circle_space, monkeypatch):
    # the burn-in adaptation resets the acceptance counters every 200 steps;
    # the check every 1000 steps must not depend on them
    checks = []
    fresh_energy = _ContinuousChain.fresh_energy

    def counting(chain):
        checks.append(chain.state.steps)
        return fresh_energy(chain)

    monkeypatch.setattr(_ContinuousChain, "fresh_energy", counting)
    model = EnergyModel(circle_space, LogChordKernel(), BetaSchedule.constant(1.0))
    mcmc_run(model, n=4, steps=10_000, seed=5, burn_in=0.5)
    assert len(checks) == 10


def test_swap_interval_must_be_positive(circle_space):
    model = EnergyModel(circle_space, ConstantKernel(0.0), BetaSchedule.constant(1.0))
    # checked with or without a ladder: a plain chain must not run past it
    for ladder in (None, [0.5, 1.0]):
        for swap_every in (0, -5):
            with pytest.raises(EnergyError, match="swap interval"):
                mcmc_run(model, n=2, steps=100, seed=1, ladder=ladder,
                         swap_every=swap_every)


def test_run_guards(four_atom_model, circle_space):
    model = EnergyModel(circle_space, ConstantKernel(0.0), BetaSchedule.constant(1.0))
    with pytest.raises(EnergyError):
        mcmc_run(model, n=2, steps=5, seed=1)
    with pytest.raises(EnergyError):
        mcmc_run(model, n=0, steps=100, seed=1)
    with pytest.raises(EnergyError):
        mcmc_run(model, n=2, steps=100, seed=1, burn_in=0.95)
    with pytest.raises(EnergyError):
        mcmc_run(model, n=2, steps=100, seed=1, thin=0)
    with pytest.raises(EnergyError):
        mcmc_run(model, n=2, steps=100, seed=1, ladder=[0.5, 0.2, 1.0])
    with pytest.raises(EnergyError):
        mcmc_run(model, n=2, steps=100, seed=1, ladder=[0.5, 0.9])
    with pytest.raises(EnergyError):
        mcmc_run(model, n=3, steps=100, seed=1, initial=np.zeros((2, 1)))
    singular = EnergyModel(circle_space, LogChordKernel(), BetaSchedule.constant(1.0))
    with pytest.raises(EnergyError):
        mcmc_run(singular, n=2, steps=100, seed=1,
                 initial=np.array([[1.0], [1.0]]))
    frozen = EnergyModel(circle_space, ConstantKernel(0.0),
                         BetaSchedule.from_callable(lambda n: math.inf, math.inf))
    with pytest.raises(EnergyError):
        mcmc_run(frozen, n=2, steps=100, seed=1)


def test_proposal_scale_and_thinning_guards(circle_space):
    # a zero scale never moves a particle, a NaN one never accepts, and a
    # stride past the post-burn-in steps keeps no sample
    model = EnergyModel(circle_space, ConstantKernel(0.0), BetaSchedule.constant(1.0))
    for scale in (0.0, -0.5, math.nan, math.inf):
        with pytest.raises(EnergyError, match="proposal scale"):
            mcmc_run(model, n=2, steps=2000, seed=1, proposal_scale=scale)
    with pytest.raises(EnergyError, match=r"thinning stride must lie in \[1, 1600\]"):
        mcmc_run(model, n=2, steps=2000, seed=1, thin=5000)
    result = mcmc_run(model, n=2, steps=2000, seed=1, thin=1600)
    assert result.samples.shape[0] == 1


def test_enumeration_guards(four_atom_model, circle_space):
    with pytest.raises(EnumerationCapError):
        enumerate_gibbs(FiniteEnergyModel(FiniteSpace(np.full(6, 1 / 6)),
                                          BetaSchedule.constant(1.0),
                                          pair_matrix=np.zeros((6, 6))), 100)
    model = EnergyModel(circle_space, ConstantKernel(0.0), BetaSchedule.constant(1.0))
    with pytest.raises(EnergyError):
        enumerate_gibbs(model, 4)


# -- parallel tempering -----------------------------------------------------------------


def test_parallel_tempering_matches_enumeration(four_atom_model):
    n = 6
    exact = enumerate_gibbs(four_atom_model, n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = mcmc_run(four_atom_model, n, steps=120_000, seed=56, thin=1,
                          ladder=[0.25, 0.5, 1.0], swap_every=25)
    assert result.swap_rates is not None and len(result.swap_rates) == 2
    assert set(result.ladder_energies) == {0.25, 0.5, 1.0}
    occupation = (result.samples == 0).sum(axis=1) / n
    z = _batch_z(occupation, exact.expectation(lambda c: c[0] / n))
    assert abs(z) < 3.0


def test_tempering_swap_rate_warning(four_atom_model):
    with pytest.warns(RuntimeWarning, match="swap rate"):
        mcmc_run(four_atom_model, 4, steps=5000, seed=13, ladder=[0.99, 1.0],
                 swap_every=10)


def test_result_accessors(four_atom_model):
    finite = mcmc_run(four_atom_model, 5, steps=2000, seed=6)
    counts = finite.counts(4, 0)
    assert counts.sum() == 5
    payload = finite.to_json_dict()
    assert payload["kind"] == "finite" and payload["n"] == 5
