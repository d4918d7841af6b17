"""Configuration optimizers against closed-form minimal energies."""

import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from gibbslab import energy, fekete
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
)
from gibbslab.errors import CollisionError, EnergyError, EnumerationCapError
from gibbslab.fekete import (
    _POLISH_CANDIDATES,
    ComposedFunctional,
    IntegralFunctional,
    _analytic_pair_gradient,
    _closest_pair,
    _fd_pair_gradient,
    _fold_functional,
    _gradient_descent,
    _relocation_polish,
    fekete_minimize,
    infima_convergence_table,
    macro_infimum,
)
from gibbslab.config import RunConfig, build_model
from gibbslab.measures import FiniteSpace
from gibbslab.energy import w_macro, w_n
from gibbslab.spaces import BackgroundCharge, GreenModel, Space, build_space


@pytest.fixture(scope="module")
def log_gas(circle_space):
    return EnergyModel(circle_space, LogChordKernel(), BetaSchedule.linear(1.0))


@pytest.fixture(scope="module")
def circle_table(log_gas):
    return infima_convergence_table(log_gas, list(range(2, 65)), threshold=0.04,
                                    restarts=3, seed=11)


# -- circle log-gas regression (known global optimum) ----------------------------------


def test_equilateral_triangle_value(log_gas):
    result = fekete_minimize(log_gas, 3, restarts=3, seed=11)
    assert_allclose(result.value, -math.log(3.0) / 6.0, atol=1e-12)
    # three equispaced angles
    gaps = np.sort(np.diff(np.sort(result.points[:, 0])))
    assert_allclose(gaps, 2.0 * np.pi / 3.0, atol=1e-6)


def test_circle_values_match_closed_form(circle_table):
    for n, result in zip(circle_table.n_values, circle_table.results):
        assert abs(result.value - (-math.log(n) / (2.0 * n))) < 1e-6
        assert result.value == result.restart_values.min()


def test_circle_gap_table(circle_table):
    assert circle_table.passed
    assert circle_table.slope < 0.0
    assert circle_table.final_gap < 0.04
    # the grid infimum is the uniform-measure energy, known in closed form
    assert_allclose(circle_table.macro_inf, (1.0 - math.log(math.pi)) / 512.0,
                    atol=1e-9)
    gaps = circle_table.gaps
    assert np.all(np.diff(gaps[1:]) < 0.0)  # strictly decreasing from n = 3 on


def test_descent_trace_monotone(log_gas):
    result = fekete_minimize(log_gas, 12, restarts=2, seed=4)
    assert np.all(np.diff(result.trace) <= 1e-12)
    assert result.gradient_norm < 1e-8


def test_analytic_gradient_matches_fd(log_gas, rng):
    config = log_gas.space.sample_points(rng, 9)
    analytic = _analytic_pair_gradient(log_gas, config)
    fd = _fd_pair_gradient(log_gas, config, 1e-6)
    assert np.abs(analytic - fd).max() < 1e-7


def test_green_fd_gradient_evaluates_the_configuration_once(monkeypatch):
    space = build_space("torus", 16, 4)
    kernel = GreenKernel(GreenModel(space, BackgroundCharge.uniform(space)))
    model = EnergyModel(space, kernel, BetaSchedule.linear(1.0))
    config = space.sample_points(np.random.default_rng(3), 8)
    # the same bits as differencing the kernel's pairwise tables
    expected = np.empty_like(config)
    for c in range(2):
        shift = np.zeros((1, 2))
        shift[0, c] = 1e-6
        plus, minus = (config + shift) % 1.0, (config - shift) % 1.0
        diff = kernel.pairwise(space, plus, config) - kernel.pairwise(space, minus, config)
        np.fill_diagonal(diff, 0.0)
        expected[:, c] = diff.sum(axis=1) / (2.0 * 1e-6) / 8 ** 2
    rows = []
    evaluate = Space.evaluate_basis
    monkeypatch.setattr(Space, "evaluate_basis",
                        lambda self, points: rows.append(len(points)) or evaluate(self, points))
    assert_array_equal(_fd_pair_gradient(model, config, 1e-6), expected)
    # (2 * dim + 1) * n rows per gradient: the configuration once, each shift once
    assert sum(rows) == (2 * 2 + 1) * 8


def test_canonical_point_order(log_gas):
    result = fekete_minimize(log_gas, 8, restarts=2, seed=9)
    assert np.all(np.diff(result.points[:, 0]) >= 0.0)


# -- sphere log-gas: tetrahedron and octahedron are the known minimizers ----------------


def test_sphere_minimizers(sphere_space):
    model = EnergyModel(sphere_space, LogChordKernel(), BetaSchedule.linear(1.0))
    r4 = fekete_minimize(model, 4, restarts=4, seed=2)
    assert_allclose(r4.value, -3.0 * math.log(8.0 / 3.0) / 16.0, atol=1e-10)
    r6 = fekete_minimize(model, 6, restarts=4, seed=2)
    assert_allclose(r6.value, -math.log(2.0) / 4.0, atol=1e-10)
    assert np.abs(np.linalg.norm(r6.points, axis=1) - 1.0).max() < 1e-12


# -- relocation polish: batched against the per-candidate scan -----------------------------


def _row_delta(model, config, i, point):
    """Energy change of moving particle i to ``point`` from two kernel rows
    and two one-body values, one candidate at a time."""
    n = config.shape[0]
    sums = []
    for p in (point, config[i]):
        with np.errstate(invalid="ignore"):
            row = model.kernel.pairwise(model.space, p[None, :], config)[0]
        row[i] = 0.0
        sums.append((float(row.sum()), float(model.potential_stage_values(n, p[None, :])[0])))
    (new_int, new_ext), (old_int, old_ext) = sums
    if math.isnan(new_int):
        return math.inf
    return (new_int - old_int) / n ** 2 + (new_ext - old_ext) / n


def _looped_relocation_polish(model, config, rng, value, rounds):
    """The per-candidate scan that the batched polish replaced."""
    space = model.space
    n = config.shape[0]
    improved_any = False
    for _ in range(rounds):
        improved = False
        for i in range(n):
            draws = space.sample_points(rng, _POLISH_CANDIDATES)
            best_delta, best_point = 0.0, None
            for cand in draws:
                gaps = space.geodesic(cand[None, :], config)[0]
                gaps[i] = np.inf
                if float(gaps.min()) < 1e-12:
                    continue
                delta = _row_delta(model, config, i, cand)
                if delta < best_delta:
                    best_delta, best_point = delta, cand
            if best_point is not None and best_delta < -1e-13 * max(1.0, abs(value)):
                config = config.copy()
                config[i] = best_point
                value += best_delta
                improved = improved_any = True
        if not improved:
            break
    if improved_any:
        value = w_n(model, config)
    return config, value, improved_any


@pytest.mark.parametrize("case", ["circle", "sphere", "circle tilt"])
def test_batched_polish_matches_looped_scan(case, circle_space, sphere_space):
    if case.startswith("sphere"):
        model = EnergyModel(sphere_space, RieszKernel(1.0), BetaSchedule.constant(1.0))
    else:
        model = EnergyModel(circle_space, LogChordKernel(), BetaSchedule.linear(1.0))
    if case == "circle tilt":
        # fekete_minimize folds an integral tilt into the model
        model = _fold_functional(model, IntegralFunctional(lambda pts: np.cos(3.0 * pts[:, 0])))
    start_rng = np.random.default_rng(31)
    config = model.space.sample_points(start_rng, 12)
    value = w_n(model, config)
    outcomes = []
    for polish in (_relocation_polish, _looped_relocation_polish):
        rng = np.random.default_rng(7)
        out = polish(model, config.copy(), rng, value, 3)
        outcomes.append((out, rng.bit_generator.state))
    (batched, state), (looped, looped_state) = outcomes
    assert batched[2] and looped[2]
    assert np.array_equal(batched[0], looped[0])
    assert batched[1] == looped[1]
    assert state == looped_state


@pytest.mark.parametrize("fixture", ["torus_green", "sphere_charged_green"])
def test_green_polish_keeps_one_cache(fixture, request, monkeypatch):
    # the polish builds one _GreenCache and gives it each exchange's row; a
    # cache built afresh for every particle, which _continuous_deltas makes
    # when it is given none, scores the same bits
    green = request.getfixturevalue(fixture)
    space = green.space
    model = EnergyModel(space, GreenKernel(green), BetaSchedule.constant(1.0))
    n = 6  # fewer than the polish's 8 draws, so the row counts tell them apart
    config = space.sample_points(np.random.default_rng(31), n)
    value = w_n(model, config)
    rows = []
    evaluate = Space.evaluate_basis
    monkeypatch.setattr(Space, "evaluate_basis",
                        lambda self, points: rows.append(len(points)) or evaluate(self, points))
    outcomes = []
    for _ in range(2):
        rows.clear()
        rng = np.random.default_rng(7)
        outcomes.append((_relocation_polish(model, config.copy(), rng, value, 3),
                         rng.bit_generator.state, list(rows)))
        monkeypatch.setattr(fekete, "_GreenCache", lambda green, rows: None)
    (live, state, live_rows), (fresh, fresh_state, fresh_rows) = outcomes
    assert live[2]
    assert np.array_equal(live[0], fresh[0])
    assert live[1] == fresh[1] and state == fresh_state
    # the configuration's rows once for the cache and once for the closing w_n
    assert live_rows.count(n) == 2 < fresh_rows.count(n)


@pytest.mark.parametrize("kind", ["circle", "sphere"])
def test_integral_tilt_is_folded_into_the_model(kind, circle_space, sphere_space):
    if kind == "circle":
        model = EnergyModel(circle_space, LogChordKernel(), BetaSchedule.linear(1.0))
        f = IntegralFunctional(lambda pts: np.cos(3.0 * pts[:, 0]))
    else:
        model = EnergyModel(sphere_space, RieszKernel(1.0), BetaSchedule.constant(1.0),
                            potentials=[StaticPotential(lambda p: 0.3 * p[:, 2])])
        f = IntegralFunctional(lambda pts: pts[:, 0] * pts[:, 1])
    tilted = fekete_minimize(model, 6, f=f, restarts=2, seed=5)
    folded = fekete_minimize(_fold_functional(model, f), 6, restarts=2, seed=5)
    assert tilted.value == folded.value
    assert np.array_equal(tilted.points, folded.points)
    assert np.array_equal(tilted.restart_values, folded.restart_values)
    assert tilted.gradient_norm == folded.gradient_norm


@pytest.mark.parametrize("keyword, value, message", [
    ("restarts", 0, "restarts must be >= 1, got 0"),
    ("max_iters", -5, "max_iters must be >= 1, got -5"),
    ("polish_rounds", -1, "polish_rounds must be >= 0, got -1"),
])
def test_fekete_refuses_counts_below_their_minimum(log_gas, keyword, value, message):
    with pytest.raises(EnergyError, match=message):
        fekete_minimize(log_gas, 4, **{keyword: value})


# -- explicit coefficient identities ----------------------------------------------------


def test_constant_kernel_identity(circle_space):
    model = EnergyModel(circle_space, ConstantKernel(0.8), BetaSchedule.constant(1.0))
    for n in (2, 5, 9):
        result = fekete_minimize(model, n, restarts=2, seed=0)
        assert_allclose(result.value, 0.8 * (n - 1) / (2.0 * n), rtol=1e-12)
    value, _ = macro_infimum(model)
    assert_allclose(value, 0.4, atol=1e-10)


def test_unique_minimum_pair(circle_space):
    # symmetric kernel with a unique minimizing unordered pair {pi/2, 3pi/2}
    def pair_fn(space, a, b):
        t, p = a[..., 0], b[..., 0]
        return 2.0 * (1.0 - np.cos(t - p - np.pi)) + (1.0 - np.cos(t + p))

    model = EnergyModel(circle_space, CallableKernel(pair_fn), BetaSchedule.constant(1.0))
    result = fekete_minimize(model, 2, restarts=4, seed=3)
    assert_allclose(np.sort(result.points[:, 0]),
                    [np.pi / 2.0, 3.0 * np.pi / 2.0], atol=1e-6)
    # grid-search oracle over all node pairs cannot beat the optimizer
    nodes = circle_space.nodes
    table = pair_fn(circle_space, nodes[:, None, :], nodes[None, :, :])
    assert result.value <= table.min() / 4.0 + 1e-9


def test_kinked_kernel_reaches_the_largest_distance_sum():
    # pi - d is kinked at d = 0 and d = pi; equally spaced points attain the
    # circle's largest sum of geodesic distances, floor(n^2 / 4) * pi
    model = build_model(RunConfig.from_text(
        "seed: 1\nspace:\n  kind: circle\n  resolution: 256\n"
        "kernel:\n  kind: expression\n  expr: pi - d\n"
        "beta:\n  kind: constant\n  value: 1.0\n"))
    for n in range(2, 13):
        expected = (math.comb(n, 2) - n * n // 4) * math.pi / n ** 2
        value = fekete_minimize(model, n, restarts=3, seed=n).value
        assert abs(value - expected) < 1e-12, n


# -- finite atom spaces: exhaustive enumeration ------------------------------------------


def test_finite_enumeration_vs_brute_force(rng):
    space = FiniteSpace([0.5, 0.3, 0.2])
    raw = rng.standard_normal((3, 3))
    g = 0.5 * (raw + raw.T)
    model = FiniteEnergyModel(space, BetaSchedule.constant(1.0), pair_matrix=g)
    tilt = np.array([0.4, -0.1, 0.2])
    n = 4
    # an integral tilt and a composed one, which finite spaces also take
    for phi in (None, lambda v: 3.0 * (v - 0.1) ** 2):
        f = IntegralFunctional(tilt)
        if phi is not None:
            f = ComposedFunctional(phi, [f])
        best = math.inf
        for labels in itertools.product(range(3), repeat=n):
            counts = np.bincount(labels, minlength=3)
            lin = float(counts / n @ tilt)
            best = min(best, model.w_counts(counts, n) + (lin if phi is None else phi(lin)))
        result = fekete_minimize(model, n, f=f)
        assert_allclose(result.value, best, rtol=1e-12)
        assert result.points.shape == (n,)
        assert np.all(np.diff(result.points) >= 0)


def test_finite_infima_table():
    # single attractive edge: the continuum optimum -1/4 sits at (1/2, 1/2, 0)
    # and is attained exactly by even splits, so even-n gaps vanish and odd-n
    # gaps equal 1/(4 n^2)
    space = FiniteSpace([1 / 3, 1 / 3, 1 / 3])
    g = np.array([[0.0, -1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    model = FiniteEnergyModel(space, BetaSchedule.constant(1.0), pair_matrix=g)
    table = infima_convergence_table(model, list(range(2, 13)), threshold=1e-3)
    assert table.passed
    assert_allclose(table.macro_inf, -0.25, atol=1e-9)
    assert table.final_gap < 1e-3
    for n, gap in zip(table.n_values, table.gaps):
        expected = 0.0 if n % 2 == 0 else 1.0 / (4.0 * n ** 2)
        assert_allclose(gap, expected, atol=1e-9)


def test_enumeration_cap():
    space = FiniteSpace(np.full(6, 1 / 6))
    model = FiniteEnergyModel(space, BetaSchedule.constant(1.0),
                              pair_matrix=np.zeros((6, 6)))
    with pytest.raises(EnumerationCapError):
        fekete_minimize(model, 100)


# -- empirical-measure functionals --------------------------------------------------------


def test_nonnegative_tilt_raises_infimum(log_gas):
    f = IntegralFunctional(lambda pts: 1.0 + np.cos(pts[:, 0]))  # >= 0
    base = fekete_minimize(log_gas, 6, restarts=3, seed=5)
    tilted = fekete_minimize(log_gas, 6, f=f, restarts=3, seed=5)
    assert tilted.value >= base.value - 1e-12


def test_macro_infimum_with_tilt(log_gas):
    f = IntegralFunctional(lambda pts: np.cos(pts[:, 0]))
    value, witness = macro_infimum(log_gas, f=f)
    recomputed = w_macro(log_gas, witness) + float(
        witness.node_masses @ f.node_values(log_gas.space))
    assert_allclose(value, recomputed, rtol=1e-10)
    uniform_value = w_macro(log_gas, type(witness).uniform(log_gas.space)) + 0.0
    assert value < uniform_value


def test_grid_limit_reuses_the_cached_node_table(circle_space, monkeypatch):
    # the limit reads the model's own node table: a second n_nodes**2 table
    # would double the memory of a large grid
    model = EnergyModel(circle_space, LogChordKernel(), BetaSchedule.linear(1.0),
                        potentials=[StaticPotential(lambda pts: 0.2 * np.sin(pts[:, 0]))])
    table = model.node_matrix()

    def rebuild(*args, **kwargs):
        raise AssertionError("the node table was built a second time")

    monkeypatch.setattr(energy, "kernel_node_matrix", rebuild)
    value, witness = macro_infimum(model, IntegralFunctional(lambda pts: np.cos(pts[:, 0])))
    assert model.node_matrix() is table
    assert math.isfinite(value) and witness.space is circle_space


def test_finite_limit_refuses_a_plain_callable():
    model = FiniteEnergyModel(FiniteSpace([0.5, 0.5]), BetaSchedule.constant(1.0),
                              pair_matrix=np.eye(2))
    with pytest.raises(EnergyError, match="MeasureFunctional"):
        macro_infimum(model, lambda tau: float(tau[0]))


# -- error paths ----------------------------------------------------------------------------


def test_collision_error_on_coincident_start(log_gas):
    config = np.array([[1.0], [1.0], [2.0]])
    with pytest.raises(CollisionError) as info:
        _gradient_descent(log_gas, config, 10, 1e-9)
    assert info.value.pair is not None


def test_guards(log_gas):
    with pytest.raises(EnergyError):
        fekete_minimize(log_gas, 1)  # n < 2
    with pytest.raises(EnergyError):
        fekete_minimize(log_gas, 4, restarts=0)
    with pytest.raises(EnergyError):
        fekete_minimize(object(), 4)
    with pytest.raises(EnergyError):
        infima_convergence_table(log_gas, [4])
    with pytest.raises(EnergyError):
        infima_convergence_table(log_gas, [4, 4])
    f = IntegralFunctional(lambda pts: pts[:, 0])
    with pytest.raises(EnergyError):
        f.simplex_values(FiniteSpace([0.5, 0.5]), np.array([[0.5, 0.5]]))
    with pytest.raises(EnergyError):
        ComposedFunctional(lambda: 0.0, [])
    composed = ComposedFunctional(lambda v: v * v, [f])
    with pytest.raises(EnergyError, match="integral functionals only"):
        fekete_minimize(log_gas, 4, f=composed)


def test_vector_functional_needs_a_finite_space(log_gas):
    # a per-atom vector on a continuous space would be indexed by the
    # integer part of each coordinate
    f = IntegralFunctional(np.arange(64.0))
    with pytest.raises(EnergyError, match="finite space"):
        fekete_minimize(log_gas, 4, f=f, seed=0)
    with pytest.raises(EnergyError, match="finite space"):
        macro_infimum(log_gas, f)


def test_exports(circle_table, log_gas):
    rows = circle_table.to_csv_rows()
    assert rows[0] == ["n", "inf_n", "inf_macro", "gap"]
    assert len(rows) == len(circle_table.n_values) + 1
    payload = circle_table.to_json_dict()
    assert payload["passed"] is True
    result = fekete_minimize(log_gas, 4, restarts=2, seed=8)
    prows = result.to_csv_rows()
    assert prows[0] == ["index", "theta"]
    assert len(prows) == 5
    finite = fekete_minimize(
        FiniteEnergyModel(FiniteSpace([0.5, 0.5]), BetaSchedule.constant(1.0),
                          pair_matrix=np.eye(2)), 3)
    assert finite.to_csv_rows()[0] == ["index", "atom"]
    assert "points" in finite.to_json_dict()


# -- closest pairs ---------------------------------------------------------------


def _table_closest_pair(space, config):
    """First row-major minimum of the full geodesic table, diagonal excluded."""
    dists = space.geodesic(config, config)
    np.fill_diagonal(dists, np.inf)
    i, j = np.unravel_index(int(np.argmin(dists)), dists.shape)
    return float(dists[i, j]), (int(i), int(j))


def _closest_pair_cases():
    rng = np.random.default_rng(5)
    circle = build_space("circle", 16, 3)
    torus = build_space("torus", 8, 3)
    sphere = build_space("sphere", 1, 2)
    box = build_space("box", 8, bounds=[(-1.0, 2.0), (0.0, 1.0)])
    side = np.arange(5) / 5.0
    lattice = np.column_stack([np.repeat(side, 5), np.tile(side, 5)])
    cases = [
        ("two points", circle, np.array([[0.3], [5.0]])),
        ("equispaced circle", circle, 2.0 * np.pi * np.arange(12)[:, None] / 12),
        ("shifted equispaced circle", circle, 0.1 + 2.0 * np.pi * np.arange(7)[:, None] / 7),
        ("torus lattice", torus, lattice),
        ("torus lattice, permuted", torus, lattice[rng.permutation(25)]),
        ("icosahedron", sphere, sphere.nodes[:12]),
        ("box grid", box, box.nodes),
    ]
    for name, space in (("circle", circle), ("torus", torus), ("sphere", sphere), ("box", box)):
        config = space.sample_points(rng, 9)
        cases.append((f"random {name}", space, config))
        colliding = config.copy()
        colliding[6] = colliding[2]
        cases.append((f"colliding {name}", space, colliding))
    return cases


@pytest.mark.parametrize("name, space, config", _closest_pair_cases(),
                         ids=[case[0] for case in _closest_pair_cases()])
def test_closest_pair_is_the_full_table_argmin(name, space, config):
    assert _closest_pair(space, config) == _table_closest_pair(space, config)
