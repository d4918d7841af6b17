"""Microscopic/macroscopic energies, kernels, schedules, and transforms."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gibbslab.config import RunConfig, build_kernel
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
    RieszKernel,
    StaticPotential,
    confining_bound_check,
    euclidean_transform,
    kernel_node_matrix,
    w_macro,
    w_n,
    w_n_report,
)
from gibbslab.errors import EnergyError
from gibbslab.fekete import IntegralFunctional, fekete_minimize
from gibbslab.ldp import laplace_estimate_mc
from gibbslab.measures import EmpiricalMeasure, FiniteSpace, GridMeasure
from gibbslab.sampler import mcmc_run
from gibbslab.spaces import BackgroundCharge, GreenModel, build_space

BETA = BetaSchedule.constant(2.0)


# -- beta schedules ------------------------------------------------------------


def test_beta_schedules():
    const = BetaSchedule.constant(3.5)
    assert const.beta_at(2) == 3.5
    assert const.limit == 3.5
    lin = BetaSchedule.linear()
    assert lin.beta_at(7) == 7.0
    assert lin.limit == math.inf
    assert BetaSchedule.linear(0.5).beta_at(8) == 4.0
    with pytest.raises(EnergyError):
        BetaSchedule.constant(0.0)
    with pytest.raises(EnergyError):
        BetaSchedule.linear(-1.0)


# -- microscopic energies --------------------------------------------------------


def test_antipodal_log_pair(circle_space):
    # two atoms at chord distance 2: w_2 = (1/4) * (-log 2)
    model = EnergyModel(circle_space, LogChordKernel(), BETA)
    value = w_n(model, np.array([[0.0], [np.pi]]))
    assert value == -math.log(2.0) / 4.0


def test_report_decomposition(circle_space):
    pot = StaticPotential(lambda pts: np.cos(pts[:, 0]))
    model = EnergyModel(circle_space, LogChordKernel(), BETA, potentials=[pot])
    config = np.array([[0.0], [np.pi / 2], [np.pi]])
    rep = w_n_report(model, config)
    pair_sum = sum(
        -math.log(float(circle_space.chord(config[i], config[j])[0, 0]))
        for i, j in itertools.combinations(range(3), 2)
    )
    assert_allclose(rep.internal, pair_sum / 9.0, rtol=1e-14)
    assert_allclose(rep.external, (1.0 + 0.0 - 1.0) / 3.0, atol=1e-15)
    assert rep.value == rep.internal + rep.external
    assert rep.pair_values.shape == (3,)


def test_coincident_atoms_hit_infinity(circle_space):
    model = EnergyModel(circle_space, LogChordKernel(), BETA)
    rep = w_n_report(model, np.array([[1.0], [1.0], [2.0]]))
    assert rep.value == math.inf


def test_single_point_configuration(circle_space):
    pot = StaticPotential(lambda pts: np.full(pts.shape[0], 5.0))
    model = EnergyModel(circle_space, LogChordKernel(), BETA, potentials=[pot])
    assert w_n(model, np.array([[1.0]])) == 5.0
    with pytest.raises(EnergyError):
        w_n(model, np.empty((0, 1)))


def test_permutation_invariance_exact(circle_space, rng):
    pot = StaticPotential(lambda pts: np.sin(3.0 * pts[:, 0]))
    model = EnergyModel(circle_space, LogChordKernel(), BETA, potentials=[pot])
    for _ in range(5):
        config = circle_space.sample_points(rng, 40)
        base = w_n(model, config)
        perm = rng.permutation(40)
        assert w_n(model, config[perm]) == base


def test_stability_bound_randomized(circle_space, rng):
    # w_n >= floor * C(n,2)/n^2 for every configuration
    model = EnergyModel(circle_space, LogChordKernel(), BETA)
    floor = model.kernel.lower_bound(circle_space)
    assert floor == -math.log(2.0)
    n = 8
    lower = floor * math.comb(n, 2) / n ** 2
    configs = circle_space.sample_points(rng, 10_000 * n).reshape(10_000, n, 1)
    values = np.array([w_n(model, c) for c in configs])
    assert values.min() >= lower - 1e-12


# -- macroscopic energies ---------------------------------------------------------


def test_uniform_circle_log_energy(circle_space):
    # The equispaced pair sum contributes -log(N)/N and the cell-average
    # diagonal contributes (1 - log pi + log N)/(2N); the log N terms cancel,
    # leaving exactly (1 - log pi)/(2N).
    model = EnergyModel(circle_space, LogChordKernel(), BETA)
    value = w_macro(model, GridMeasure.uniform(circle_space))
    n = circle_space.n_nodes
    assert_allclose(value, (1.0 - math.log(math.pi)) / (2.0 * n), atol=1e-15)
    assert abs(value) < 1e-3


def test_log_energy_grid_refinement():
    previous = None
    for res in (64, 128, 256):
        space = build_space("circle", res, basis_order=16)
        model = EnergyModel(space, LogChordKernel(), BETA)
        value = abs(w_macro(model, GridMeasure.uniform(space)))
        if previous is not None:
            assert value < previous
        previous = value


def test_riesz_energy_closed_form(circle_space):
    # (1/2) * mean of (2 sin(t/2))^(-s) over the circle = Gamma(1-s) / (2 Gamma(1-s/2)^2)
    s = 0.5
    model = EnergyModel(circle_space, RieszKernel(s), BETA)
    value = w_macro(model, GridMeasure.uniform(circle_space))
    closed = 0.5 * math.gamma(1.0 - s) / math.gamma(1.0 - s / 2.0) ** 2
    assert_allclose(value, closed, atol=5e-3)


def test_green_kernel_energy_vanishes(circle_green):
    # integral of G(x, .) against the charge is zero, so the quadratic form is too
    space = circle_green.space
    model = EnergyModel(space, GreenKernel(circle_green), BETA)
    value = w_macro(model, GridMeasure.uniform(space))
    assert abs(value) < 1e-12


def test_macro_guards(circle_space, box_space):
    model = EnergyModel(circle_space, LogChordKernel(), BETA)
    with pytest.raises(EnergyError):
        w_macro(model, GridMeasure.uniform(box_space))


def test_diagonal_corrections(circle_space):
    n = circle_space.n_nodes
    log_diag = LogChordKernel().diagonal_values(circle_space)
    assert_allclose(log_diag, -(math.log(math.pi / n) - 1.0), rtol=1e-14)
    rz = RieszKernel(0.5).diagonal_values(circle_space)
    assert_allclose(rz, 2.0 * (math.pi / n) ** -0.5, rtol=1e-14)
    with pytest.raises(EnergyError):
        RieszKernel(1.0).diagonal_values(circle_space)
    # -log of the chord is +inf on the diagonal, and a callable kernel has no
    # correction for it
    log_chord = CallableKernel(lambda sp, a, b: -np.log(sp.distance(a, b, chord=True)))
    with pytest.raises(EnergyError, match="not finite on the diagonal"):
        log_chord.diagonal_values(circle_space)


def test_node_matrix_symmetry(circle_space):
    matrix = kernel_node_matrix(LogChordKernel(), circle_space)
    assert np.array_equal(matrix, matrix.T)
    assert np.all(np.isfinite(matrix))


# -- expected energies -------------------------------------------------------------


def test_expected_energy_matches_enumeration():
    # brute-force E over all m^n labelled configurations
    probs = np.array([0.5, 0.3, 0.2])
    fs = FiniteSpace(probs)
    G = np.array([[0.0, 1.0, -0.5], [1.0, 0.25, 2.0], [-0.5, 2.0, 1.5]])
    fem = FiniteEnergyModel(fs, BETA, pair_matrix=G)
    n = 4
    total = 0.0
    for cfg in itertools.product(range(3), repeat=n):
        p = math.prod(probs[a] for a in cfg)
        total += p * fem.w_counts(np.bincount(cfg, minlength=3), n)
    closed = (n - 1) / (2 * n) * float(probs @ G @ probs)
    assert_allclose(total, closed, atol=1e-14)


# -- confining bound ---------------------------------------------------------------


def test_confining_bound_randomized(box_space, rng):
    kernel = CallableKernel(
        lambda sp, a, b: np.abs(a[..., 0]) * np.abs(b[..., 0]), bound=0.0
    )
    model = EnergyModel(box_space, kernel, BETA)
    inside = lambda pts: np.abs(pts[:, 0]) <= 1.0
    for _ in range(50):
        n = int(rng.integers(10, 80))
        config = box_space.sample_points(rng, n)
        mass, bound = confining_bound_check(model, config, inside, kernel_floor=1.0)
        assert 0.0 <= mass <= 1.0
        assert mass <= bound + 1e-12


def test_confining_bound_guards(box_space, circle_space, circle_green, rng):
    kernel = CallableKernel(
        lambda sp, a, b: np.abs(a[..., 0]) * np.abs(b[..., 0]), bound=0.0
    )
    model = EnergyModel(box_space, kernel, BETA)
    config = box_space.sample_points(rng, 30)
    inside = lambda pts: np.abs(pts[:, 0]) <= 1.0
    with pytest.raises(EnergyError):
        confining_bound_check(model, config, inside, kernel_floor=-1.0)
    with pytest.raises(EnergyError):
        confining_bound_check(model, config, inside, kernel_floor=1.0,
                              energy_bound=-100.0)
    signed = EnergyModel(circle_space, LogChordKernel(), BETA)
    with pytest.raises(EnergyError):
        confining_bound_check(signed, circle_space.sample_points(rng, 10),
                              lambda pts: np.ones(pts.shape[0], bool), kernel_floor=1.0)
    # a Green kernel has no lower bound, so the check refuses it
    green = EnergyModel(circle_space, GreenKernel(circle_green), BETA)
    with pytest.raises(EnergyError, match="nonnegative kernel"):
        confining_bound_check(green, circle_space.sample_points(rng, 10),
                              lambda pts: np.ones(pts.shape[0], bool), kernel_floor=1.0)
    # a floor larger than realized kernel values outside the set is rejected
    with pytest.raises(EnergyError):
        confining_bound_check(model, np.array([[1.5], [2.0], [-1.2]]),
                              inside, kernel_floor=10.0)


# -- potentials and environments -----------------------------------------------------


def test_static_potential_expression(box_space):
    pot = StaticPotential.from_expression(box_space, "x*x/2")
    pts = np.array([[0.5], [-2.0]])
    assert_allclose(pot.stage_values(17, pts), [0.125, 2.0], rtol=1e-15)
    assert_allclose(pot.limit_values(pts), [0.125, 2.0], rtol=1e-15)


def test_environment_potential(circle_space, rng):
    stream = circle_space.sample_points(rng, 50)
    limit = GridMeasure.uniform(circle_space)
    env = EnvironmentSequence(lambda n: EmpiricalMeasure(circle_space, stream[:n]), limit)
    pot = EnvironmentPotential(CallableKernel(
        lambda sp, a, b: np.cos(a[..., 0] - b[..., 0])), env)
    x = np.array([[0.3]])
    by_hand = np.cos(x[0, 0] - stream[:10, 0]).mean()
    assert_allclose(pot.stage_values(10, x), [by_hand], rtol=1e-14)
    # against the uniform limit the cosine integrates to zero
    assert_allclose(pot.limit_values(x), [0.0], atol=1e-14)
    model = EnergyModel(circle_space, ConstantKernel(0.0), BETA, potentials=[pot])
    cfg = stream[:4]
    expect = np.mean([np.cos(cfg[i, 0] - stream[:4, 0]).mean() for i in range(4)])
    assert_allclose(w_n(model, cfg), expect, rtol=1e-13)


# -- transforms --------------------------------------------------------------------


def _box_model():
    space = build_space("box", 64, bounds=[(-3.0, 3.0)])
    pot = StaticPotential.from_expression(space, "x*x/2")
    return EnergyModel(space, LogChordKernel(2.0), BetaSchedule.linear(),
                       potentials=[pot]), space, pot


def _tilted_pair_energy(config, c_n):
    """n^-2 times the sum over pairs i < j of G + c_n (V_i + V_j), written
    out for the box model's G = -2 log|x - y| and V = x^2/2."""
    x = config[:, 0]
    n = x.shape[0]
    total = sum(-2.0 * math.log(abs(x[i] - x[j])) + c_n * (x[i] ** 2 + x[j] ** 2) / 2.0
                for i, j in itertools.combinations(range(n), 2))
    return total / n ** 2


def test_weak_transform_reference_and_kernel(rng):
    model, space, pot = _box_model()
    weak = euclidean_transform(model, "weak")
    v = 0.5 * space.nodes[:, 0] ** 2
    raw = np.exp(-v) / space.volume
    expected_weights = raw * space.cell_volumes
    expected_weights /= expected_weights.sum()
    assert_allclose(weak.space.weights, expected_weights, rtol=1e-12)
    # the kernel stays G; the pair tilt V(x) + V(y) is the stage potential
    assert weak.kernel is model.kernel
    for n in (2, 3, 7, 12):
        config = rng.uniform(-3.0, 3.0, size=(n, 1))
        assert_allclose(w_n(weak, config), _tilted_pair_energy(config, 1.0), rtol=1e-13)
    nodes = space.nodes[::7]
    assert_allclose(weak.potential_limit_values(nodes), 0.5 * nodes[:, 0] ** 2, rtol=1e-15)
    # off-node density is consistent with the node table
    probe = weak.space.nodes[:5]
    assert_allclose(weak.space.reference_density(probe),
                    weak.space.density_values[:5], rtol=1e-12)


def test_strong_transform_coefficients(rng):
    model, space, pot = _box_model()
    strong = euclidean_transform(model, "strong", xi=1.0, eps=0.0)
    # beta_n = n and xi = 1 give the constant-one normalization exactly
    for n in (2, 10, 1000):
        assert strong.potentials[0].a_coefficient(n) == 1.0
    xi, eps = 0.7, 0.3
    general = euclidean_transform(model, "strong", xi=xi, eps=eps)
    tilt = general.potentials[0]
    for n in (2, 37, 1000):
        beta_n = general.beta.beta_at(n)
        c_n = (n - (n / beta_n) * xi) / (n - 1.0)
        assert_allclose(tilt.coefficient_at(n), c_n, rtol=1e-15)
        assert_allclose(tilt.a_coefficient(n), (c_n - eps) / (1.0 - eps), rtol=1e-15)
    assert abs(tilt.a_coefficient(10_000) - 1.0) < 1e-4
    # the stage-n energy really is the pair sum of G + c_n (V + V)
    for n in (2, 5, 11):
        config = rng.uniform(-3.0, 3.0, size=(n, 1))
        c_n = (n - (n / general.beta.beta_at(n)) * xi) / (n - 1.0)
        assert_allclose(w_n(general, config), _tilted_pair_energy(config, c_n), rtol=1e-13)
    # the limit potential is (1 - xi/beta) V, V itself for beta_n = n
    nodes = space.nodes[::7]
    assert_allclose(general.potential_limit_values(nodes), 0.5 * nodes[:, 0] ** 2, rtol=1e-15)
    finite = EnergyModel(space, LogChordKernel(2.0), BetaSchedule.constant(2.0),
                         potentials=[pot])
    limit = euclidean_transform(finite, "strong", xi=xi, eps=eps).potential_limit_values(nodes)
    assert_allclose(limit, (1.0 - xi / 2.0) * 0.5 * nodes[:, 0] ** 2, rtol=1e-15)


@settings(max_examples=60, deadline=None)
@given(xi=st.floats(0.05, 1.5), eps=st.floats(0.0, 0.9), coefficient=st.floats(0.5, 3.0),
       n=st.integers(2, 12), seed=st.integers(0, 2 ** 32 - 1))
def test_strong_transform_shifts_n_beta_w_n_by_xi_sum_v(xi, eps, coefficient, n, seed):
    # n beta_n (w_n^T - w_n) = -xi sum_i V(x_i): the strong transform moves
    # xi V from the energy into the reference measure
    model, space, pot = _box_model()
    model.beta = BetaSchedule.linear(coefficient)
    strong = euclidean_transform(model, "strong", xi=xi, eps=eps)
    config = np.random.default_rng(seed).uniform(-3.0, 3.0, size=(n, 1))
    xi_sum_v = xi * float(pot.stage_values(n, config).sum())
    shift = n * model.beta.beta_at(n) * (w_n(strong, config) - w_n(model, config))
    assert abs(shift + xi_sum_v) <= 1e-10 * max(1.0, abs(xi_sum_v))


def test_weak_transform_keeps_the_environment_potential():
    model, space, pot = _box_model()
    environment = EnvironmentPotential(
        LogChordKernel(), EnvironmentSequence.fixed(EmpiricalMeasure(space, [[0.5], [-1.5]])))
    model.potentials = (environment, pot)
    weak = euclidean_transform(model, "weak")
    assert weak.potentials[0] is environment
    assert weak.potentials[1].a_coefficient(5) == 1.0
    nodes = space.nodes[::5]
    assert_allclose(weak.potential_limit_values(nodes),
                    environment.limit_values(nodes) + 0.5 * nodes[:, 0] ** 2, rtol=1e-14)


def test_strong_transformed_line_gas_runs_through_every_solver():
    model, space, pot = _box_model()
    strong = euclidean_transform(model, "strong", xi=1.0, eps=0.0)
    run = mcmc_run(strong, 6, steps=400, seed=3, thin=20)
    assert np.isfinite(run.energies).all()
    points = fekete_minimize(strong, 6, restarts=2, seed=3, max_iters=200)
    assert math.isfinite(points.value)
    verdict = laplace_estimate_mc(strong, IntegralFunctional(lambda pts: pts[:, 0]), [2, 4],
                                  chain_budget=400, seed=3, rungs=2, ess_floor=1.0)
    assert np.isfinite(verdict.values).all()


def test_transform_guards(circle_space):
    model, space, pot = _box_model()
    with pytest.raises(EnergyError):
        euclidean_transform(model, "strong", xi=1.0, eps=1.0)
    with pytest.raises(EnergyError):
        euclidean_transform(model, "strong")
    with pytest.raises(EnergyError):
        euclidean_transform(model, "sideways")
    bare = EnergyModel(space, LogChordKernel(), BetaSchedule.linear())
    with pytest.raises(EnergyError):
        euclidean_transform(bare, "weak")
    on_circle = EnergyModel(circle_space, LogChordKernel(), BetaSchedule.linear(),
                            potentials=[StaticPotential(lambda p: p[:, 0])])
    with pytest.raises(EnergyError):
        euclidean_transform(on_circle, "weak")


# -- finite atom spaces ---------------------------------------------------------------


def test_finite_energy_counts():
    fs = FiniteSpace([0.5, 0.5])
    G = np.array([[0.0, 1.0], [1.0, 0.0]])
    fem = FiniteEnergyModel(fs, BETA, pair_matrix=G)
    # counts (2, 1) at n=3: pairs are {aa}, {ab}, {ab} -> 0 + 1 + 1
    assert fem.w_counts(np.array([2, 1])) == 2.0 / 9.0
    assert fem.w_mean(np.array([0.5, 0.5])) == 0.25


def test_finite_energy_matches_labelled_sum(rng):
    fs = FiniteSpace([0.4, 0.3, 0.3])
    G = np.array([[0.3, 1.0, -0.5], [1.0, 0.25, 2.0], [-0.5, 2.0, 1.5]])
    fem = FiniteEnergyModel(fs, BETA, pair_matrix=G)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        labels = rng.integers(0, 3, size=n)
        brute = sum(
            G[labels[i], labels[j]] for i, j in itertools.combinations(range(n), 2)
        ) / n ** 2
        counts = np.bincount(labels, minlength=3)
        assert_allclose(fem.w_counts(counts, n), brute, atol=1e-14)


def test_finite_energy_guards():
    fs = FiniteSpace([0.5, 0.5])
    with pytest.raises(EnergyError):
        FiniteEnergyModel(fs, BETA, pair_matrix=np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(EnergyError):
        FiniteEnergyModel(fs, BETA, pair_matrix=np.zeros((3, 3)))


# -- kernel catalogue edge cases -------------------------------------------------------


def test_kernel_guards(circle_space):
    with pytest.raises(EnergyError):
        LogChordKernel(0.0)
    with pytest.raises(EnergyError):
        RieszKernel(-0.5)


# -- the elementwise kernel primitive ------------------------------------------


def _same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.array_equal(np.ascontiguousarray(got).view(np.int64),
                          np.ascontiguousarray(want).view(np.int64))


_SPACES = {
    "circle": build_space("circle", 16, 3),
    "torus": build_space("torus", 8, 3),
    "sphere": build_space("sphere", 1, 2),
    "box": build_space("box", 8, bounds=[(-1.0, 2.0), (0.0, 1.0)]),
}


def _expression_kernel(space):
    config = RunConfig.from_text(
        "seed: 1\nkernel:\n  kind: expression\n  expr: cos(d) + c**2\n")
    return build_kernel(config, space)


_KERNELS = {
    "log": lambda space: LogChordKernel(1.5),
    "riesz": lambda space: RieszKernel(0.7, 2.0),
    "constant": lambda space: ConstantKernel(-0.25),
    "expression": _expression_kernel,
}


def _table_reference(name, kernel, space, x, y):
    """The kernel table as the per-kernel ``pairwise`` bodies formed it
    before they were derived from ``values``."""
    if name == "log":
        return -kernel.scale * np.log(space.chord(x, y))
    if name == "riesz":
        return kernel.scale * space.chord(x, y) ** (-kernel.s)
    if name == "constant":
        return np.full((x.shape[0], y.shape[0]), kernel.value)
    return np.cos(space.geodesic(x, y)) + space.chord(x, y) ** 2


def _points(space, rng, count):
    pts = space.sample_points(rng, count)
    if space.kind in ("circle", "torus"):
        # coordinates off the fundamental domain name the same points
        pts = pts + rng.integers(-2, 3, size=pts.shape) * (
            2.0 * np.pi if space.kind == "circle" else 1.0)
    return pts


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(sorted(_SPACES)), name=st.sampled_from(sorted(_KERNELS)),
       seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 9), cols=st.integers(1, 9))
def test_values_on_aligned_pairs_are_the_pairwise_entries(kind, name, seed, rows, cols):
    space = _SPACES[kind]
    kernel = _KERNELS[name](space)
    rng = np.random.default_rng(seed)
    x = _points(space, rng, rows)
    # y repeats x's first point, so singular kernels meet a coinciding pair
    y = np.concatenate((x[:1], _points(space, rng, cols)))
    table = kernel.pairwise(space, x, y)
    i, j = np.divmod(np.arange(table.size), table.shape[1])
    with np.errstate(divide="ignore"):
        aligned = kernel.values(space, x[i], y[j])
        _same_bits(table, _table_reference(name, kernel, space, x, y))
    _same_bits(aligned, table.ravel())


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(sorted(_SPACES)),
       name=st.sampled_from(sorted(_KERNELS) + ["green"]),
       seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 14))
def test_w_n_pair_values_are_the_upper_triangle_of_the_table(kind, name, seed, n):
    space = _SPACES[kind]
    if name == "green":
        if not space.has_basis:
            return
        kernel = GreenKernel(GreenModel(space, BackgroundCharge.uniform(space)))
    else:
        kernel = _KERNELS[name](space)
    config = _points(space, np.random.default_rng(seed), n)
    report = w_n_report(EnergyModel(space, kernel, BETA), config)
    _same_bits(report.pair_values,
               kernel.pairwise(space, config, config)[np.triu_indices(n, k=1)])


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(sorted(_SPACES)),
       name=st.sampled_from(sorted(_KERNELS) + ["green"]),
       seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 14))
def test_w_n_is_bitwise_permutation_invariant(kind, name, seed, n):
    space = _SPACES[kind]
    if name == "green":
        if not space.has_basis:
            return
        kernel = GreenKernel(GreenModel(space, BackgroundCharge.uniform(space)))
    else:
        kernel = _KERNELS[name](space)
    potential = StaticPotential(lambda pts: np.cos(2.0 * pts[:, 0]) + pts[:, -1] ** 2)
    model = EnergyModel(space, kernel, BETA, potentials=[potential])
    rng = np.random.default_rng(seed)
    config = _points(space, rng, n)
    with np.errstate(divide="ignore"):
        _same_bits(w_n(model, config[rng.permutation(n)]), w_n(model, config))


def _modulo_distance(space, a, b, chord=False):
    """``Space.distance`` on the circle and the torus with ``%`` in place of
    ``np.fmod``."""
    if space.kind == "circle":
        d = np.abs(a[..., 0] - b[..., 0]) % (2.0 * np.pi)
        d = np.minimum(d, 2.0 * np.pi - d)
        return 2.0 * np.sin(0.5 * d) if chord else d
    d = np.abs(a - b) % 1.0
    d = np.minimum(d, 1.0 - d)
    return np.sqrt((d ** 2).sum(axis=-1))


_SPECIAL = [0.0, -0.0, 1.0, -1.0, np.pi, 2.0 * np.pi, -2.0 * np.pi, 4.0 * np.pi,
            np.nextafter(2.0 * np.pi, 0.0), math.inf, -math.inf, math.nan]
_COORDINATE = st.floats(-20.0, 20.0) | st.floats(-1e6, 1e6) | st.sampled_from(_SPECIAL)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["circle", "torus"]), chord=st.booleans(),
       coords=st.lists(_COORDINATE, min_size=4, max_size=24))
@example(kind="circle", chord=False, coords=[0.0, 2.0 * np.pi, math.inf, math.nan])
@example(kind="torus", chord=False, coords=[0.0, 1.0, 2.0, -1.0, math.inf, 0.5, math.nan, 3.0])
def test_fmod_distance_is_the_modulo_formula(kind, chord, coords):
    space = _SPACES[kind]
    width = space.point_dim
    pts = np.array(coords[: len(coords) // (2 * width) * 2 * width]).reshape(2, -1, width)
    with np.errstate(invalid="ignore"):
        _same_bits(space.distance(pts[0], pts[1], chord=chord),
                   _modulo_distance(space, pts[0], pts[1], chord=chord))
        _same_bits(space.distance(pts[0][:, None], pts[1][None], chord=chord),
                   _modulo_distance(space, pts[0][:, None], pts[1][None], chord=chord))


@pytest.mark.parametrize("kind", sorted(_SPACES))
def test_constant_expression_kernel_fills_every_pair(kind):
    space = _SPACES[kind]
    config = RunConfig.from_text("seed: 1\nkernel:\n  kind: expression\n  expr: '1.5'\n")
    kernel = build_kernel(config, space)
    pts = _points(space, np.random.default_rng(3), 6)
    _same_bits(kernel.pairwise(space, pts, pts[:4]), np.full((6, 4), 1.5))
    _same_bits(kernel_node_matrix(kernel, space), np.full((space.n_nodes,) * 2, 1.5))
    assert w_n(EnergyModel(space, kernel, BETA), pts) == w_n(
        EnergyModel(space, ConstantKernel(1.5), BETA), pts)
