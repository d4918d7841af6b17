"""Free-energy values, the mirror-descent minimizer, and stationarity checks."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gibbslab.energy import (
    BetaSchedule,
    CallableKernel,
    EnergyModel,
    FiniteEnergyModel,
    GreenKernel,
    LogChordKernel,
    StaticPotential,
    kernel_node_matrix,
    w_macro,
)
from gibbslab.equilibrium import (
    _mirror_descent,
    directional_derivative_check,
    free_energy,
    mean_field_residual,
    minimize_free_energy,
)
from gibbslab.errors import EnergyError, MeasureError, StepSizeFailureError
from gibbslab.measures import FiniteSpace, GridMeasure, relative_entropy
from gibbslab.spaces import BackgroundCharge, GreenModel, GreenOperator, build_space


@pytest.fixture(scope="module")
def torus_model(torus_space, torus_green):
    return EnergyModel(torus_space, GreenKernel(torus_green), BetaSchedule.constant(2.0))


@pytest.fixture(scope="module")
def torus_equilibrium(torus_model, torus_space):
    u = torus_space.nodes[:, 0]
    init = GridMeasure.from_unnormalized(torus_space, 1.0 + 0.4 * np.cos(2.0 * np.pi * u))
    return minimize_free_energy(torus_model, initial=init, tol=1e-12, max_iters=3000)


def test_free_energy_decomposition(torus_model, torus_space):
    mu = GridMeasure.from_unnormalized(
        torus_space, 1.0 + 0.3 * np.sin(2.0 * np.pi * torus_space.nodes[:, 1])
    )
    value = free_energy(torus_model, mu)
    assert_allclose(
        value,
        w_macro(torus_model, mu) + relative_entropy(mu) / 2.0,
        rtol=1e-14,
    )
    frozen = EnergyModel(torus_model.space, torus_model.kernel, BetaSchedule.linear())
    assert free_energy(frozen, mu) == w_macro(frozen, mu)


def test_uniform_charge_equilibrium_is_uniform(torus_equilibrium):
    res = torus_equilibrium
    assert res.converged and res.status == "gap_below_tol"
    assert np.abs(res.measure.density - 1.0).max() < 1e-10
    assert abs(res.value) < 1e-12
    assert res.gap <= 1e-12 * (1.0 + abs(res.value))


def test_trace_monotone(torus_equilibrium):
    trace = np.asarray(torus_equilibrium.trace)
    assert np.all(np.diff(trace[:-1]) <= 0.0)
    assert abs(trace[-1] - trace[-2]) < 1e-9


def test_mean_field_residual_at_equilibrium(torus_model, torus_equilibrium):
    report = mean_field_residual(torus_model, torus_equilibrium.measure)
    assert report.residual < 1e-8
    assert report.tail < 1e-12
    assert report.beta == 2.0


def test_charged_torus_reaches_the_gap_tolerance(torus_space):
    charge = BackgroundCharge.from_expression(torus_space, "1 + 0.5*cos(2*pi*u)")
    model = EnergyModel(torus_space, GreenKernel(GreenModel(torus_space, charge)),
                        BetaSchedule.constant(2.0))
    result = minimize_free_energy(model, max_iters=100)
    assert result.converged and result.status == "gap_below_tol"
    assert result.gap <= 1e-10 * (1.0 + abs(result.value))
    assert np.all(np.diff(result.trace) <= 0.0)


def test_operator_descent_matches_the_dense_table(torus_space):
    charge = BackgroundCharge.from_expression(torus_space, "1 + 0.5*cos(2*pi*u)")
    model = EnergyModel(torus_space, GreenKernel(GreenModel(torus_space, charge)),
                        BetaSchedule.constant(2.0))
    op = model.node_matrix()
    assert isinstance(op, GreenOperator)
    weights = torus_space.weights
    v = np.zeros(torus_space.n_nodes)
    dense, fast = (_mirror_descent(table, v, weights, 2.0, weights)
                   for table in (kernel_node_matrix(model.kernel, torus_space), op))
    assert fast.status == dense.status == "gap_below_tol"
    assert fast.iterations == dense.iterations
    assert np.abs(fast.masses - dense.masses).max() <= 1e-12


def _traced_equilibrium(space):
    """Equilibrium of the uniform-charge Green gas with potential cos(2 pi u)
    at beta = 2 on a fresh model, its mean-field report and the tracemalloc
    peak in MiB of both calls."""
    pot = StaticPotential.from_expression(space, "cos(2*pi*u)")
    model = EnergyModel(space, GreenKernel(GreenModel(space, BackgroundCharge.uniform(space))),
                        BetaSchedule.constant(2.0), potentials=[pot])
    tracemalloc.start()
    try:
        result = minimize_free_energy(model)
        report = mean_field_residual(model, result.measure)
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    return result, report, peak


def test_torus_equilibrium_never_forms_the_node_table(torus_space):
    # the 64^2 node table alone would take 128 MiB
    result, _, peak = _traced_equilibrium(torus_space)
    assert result.status == "gap_below_tol"
    assert peak <= 100.0


def test_torus_128_equilibrium():
    # the 128^2 node table would take 2 GiB; the scaled node basis takes 136 MiB
    result, report, peak = _traced_equilibrium(build_space("torus", 128, 16))
    assert result.status == "gap_below_tol"
    assert report.residual < 1e-8
    assert peak <= 250.0


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), size=st.integers(2, 6),
       beta=st.sampled_from([0.5, 2.0, math.inf]))
def test_each_accepted_change_is_the_objective_difference(seed, size, beta):
    rng = np.random.default_rng(seed)
    half = rng.normal(size=(size, size))
    matrix = half + half.T
    v = rng.normal(size=size)
    ref = rng.uniform(0.1, 1.0, size)
    ref /= ref.sum()
    init = rng.uniform(0.05, 1.0, size)
    init /= init.sum()

    def objective(m):
        value = 0.5 * float(m @ matrix @ m) + float(v @ m)
        if math.isfinite(beta):
            value += float((m * np.log(m / ref)).sum()) / beta
        return value

    previous = init
    for steps in range(1, 6):
        # tol = 0 turns both stop rules off; run k repeats run k-1 and adds a step
        result = _mirror_descent(matrix, v, ref, beta, init, max_iters=steps, tol=0.0)
        if len(result.trace) != steps + 1:
            break
        change = result.trace[-1] - result.trace[-2]
        assert change <= 0.0
        assert abs(change - (objective(result.masses) - objective(previous))) <= 1e-12
        previous = result.masses


def test_semicircle_density():
    space = build_space("box", 128, bounds=[(-3.0, 3.0)])
    pot = StaticPotential.from_expression(space, "x*x/2")
    model = EnergyModel(space, LogChordKernel(2.0), BetaSchedule.linear(),
                        potentials=[pot])
    result = minimize_free_energy(model, tol=1e-10, max_iters=5000)
    x = space.nodes[:, 0]
    target = np.where(np.abs(x) <= 2.0,
                      np.sqrt(np.maximum(4.0 - x ** 2, 0.0)) / (2.0 * np.pi), 0.0)
    density = result.measure.node_masses / space.cell_volumes
    l1 = float((np.abs(density - target) * space.cell_volumes).sum())
    assert l1 < 0.02
    # symmetric potential on a symmetric grid gives a symmetric profile
    assert_allclose(density, density[::-1], atol=1e-9)


def test_sphere_nonuniform_charge_residual(sphere_space):
    lam = 1.0 + 0.5 * math.sqrt(3.0) * sphere_space.nodes[:, 2]
    green = GreenModel(sphere_space, BackgroundCharge(sphere_space, lam))
    model = EnergyModel(sphere_space, GreenKernel(green), BetaSchedule.constant(4.0))
    result = minimize_free_energy(model, tol=1e-12, max_iters=2000)
    assert result.converged
    report = mean_field_residual(model, result.measure)
    assert report.residual < 1e-3
    assert report.residual < 1e-8  # discrete optimum sits far below the target
    # the equilibrium density leans toward the charge surplus
    north = sphere_space.nodes[:, 2] > 0.5
    assert result.measure.density[north].mean() > 1.0


def test_directional_derivative_random_pairs(torus_model, torus_space, rng):
    for _ in range(25):
        mu = GridMeasure.from_unnormalized(
            torus_space, np.exp(0.3 * rng.normal(size=torus_space.n_nodes)))
        nu = GridMeasure.from_unnormalized(
            torus_space, np.exp(0.3 * rng.normal(size=torus_space.n_nodes)))
        report = directional_derivative_check(torus_model, mu, nu)
        assert report.consistent
        # one-sided differences converge at first order
        if report.errors[1e-3] > 1e-11:
            assert report.errors[1e-4] < report.errors[1e-3]


def test_directional_derivative_vanishes_at_minimizer(torus_model, torus_equilibrium,
                                                      torus_space, rng):
    for _ in range(10):
        nu = GridMeasure.from_unnormalized(
            torus_space, np.exp(0.3 * rng.normal(size=torus_space.n_nodes)))
        report = directional_derivative_check(torus_model, torus_equilibrium.measure, nu)
        assert abs(report.analytic) < 1e-6


def test_minimize_guards(torus_model, torus_space, circle_space):
    other = GridMeasure.uniform(circle_space)
    with pytest.raises(MeasureError):
        minimize_free_energy(torus_model, initial=other)
    zeros = np.ones(torus_space.n_nodes)
    zeros[0] = 0.0
    flat = GridMeasure.from_unnormalized(torus_space, zeros)
    with pytest.raises(MeasureError):
        minimize_free_energy(torus_model, initial=flat)


@pytest.mark.parametrize("keyword, value, message", [
    ("step", math.nan, "descent step must be finite and positive, got nan"),
    ("step", 0.0, "descent step must be finite and positive, got 0.0"),
    ("step", math.inf, "descent step must be finite and positive, got inf"),
    ("tol", -1.0, r"descent tolerance must be finite and >= 0, got -1.0"),
    ("tol", math.nan, r"descent tolerance must be finite and >= 0, got nan"),
])
def test_minimize_refuses_bad_step_and_tol(circle_space, keyword, value, message):
    # a NaN step used to halve forever in the line search; tol -1 ran to "stalled"
    model = EnergyModel(circle_space, LogChordKernel(), BetaSchedule.constant(1.0),
                        potentials=[StaticPotential(lambda p: np.cos(p[:, 0]))])
    with pytest.raises(EnergyError, match=message):
        minimize_free_energy(model, **{keyword: value})


@pytest.mark.parametrize("max_iters", [0, -5])
def test_descent_refuses_max_iters_below_one(circle_space, max_iters):
    # 0 and -5 used to return "max_iterations" after no iteration at all
    model = EnergyModel(circle_space, LogChordKernel(), BetaSchedule.constant(1.0))
    message = f"max_iters must be >= 1, got {max_iters}"
    with pytest.raises(EnergyError, match=message):
        minimize_free_energy(model, max_iters=max_iters)


def test_grid_only_jobs_refuse_a_finite_model(torus_space):
    model = FiniteEnergyModel(FiniteSpace([0.5, 0.5]), BetaSchedule.constant(1.0),
                              pair_matrix=np.array([[0.0, 1.0], [1.0, 0.0]]))
    mu = GridMeasure.uniform(torus_space)
    for job, call in [
        ("free-energy minimization", lambda: minimize_free_energy(model)),
        ("the directional derivative check",
         lambda: directional_derivative_check(model, mu, mu)),
    ]:
        with pytest.raises(EnergyError, match=f"^{job} needs a grid model"):
            call()
    with pytest.raises(EnergyError, match="mean-field residual needs a Green-kernel model"):
        mean_field_residual(model, mu)


def test_nonfinite_gradient_raises(torus_space):
    # NaN off the diagonal reaches the descent; a NaN diagonal is refused
    # when the node table is built
    nan_kernel = CallableKernel(
        lambda sp, a, b: np.where(np.all(a == b, axis=-1), 0.0, np.nan))
    model = EnergyModel(torus_space, nan_kernel, BetaSchedule.constant(1.0))
    with pytest.raises(StepSizeFailureError):
        minimize_free_energy(model, max_iters=10)
    nan_kernel = CallableKernel(
        lambda sp, a, b: np.full((a.shape[0], b.shape[1]), np.nan))
    model = EnergyModel(torus_space, nan_kernel, BetaSchedule.constant(1.0))
    with pytest.raises(EnergyError, match="not finite on the diagonal"):
        minimize_free_energy(model, max_iters=10)


def test_mean_field_residual_guards(torus_model, torus_space, torus_green,
                                    circle_space):
    mu = GridMeasure.uniform(torus_space)
    plain = EnergyModel(torus_space, LogChordKernel(), BetaSchedule.constant(2.0))
    with pytest.raises(EnergyError):
        mean_field_residual(plain, mu)
    frozen = EnergyModel(torus_space, GreenKernel(torus_green), BetaSchedule.linear())
    with pytest.raises(EnergyError):
        mean_field_residual(frozen, mu)
    with pytest.raises(MeasureError):
        mean_field_residual(torus_model, GridMeasure.uniform(circle_space))
    holey = np.ones(torus_space.n_nodes)
    holey[3] = 0.0
    with pytest.raises(MeasureError):
        mean_field_residual(torus_model, GridMeasure.from_unnormalized(torus_space, holey))
