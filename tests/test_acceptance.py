"""End-to-end acceptance suite: one test per shipped guarantee.

Run ``pytest -v tests/test_acceptance.py`` to get a single pass/fail line
per criterion.  Every tolerance is pinned in the test body, and criteria
that carry a time budget assert the measured runtime.
"""

import hashlib
import math
import time

import numpy as np

from gibbslab.energy import (
    BetaSchedule,
    CallableKernel,
    EnergyModel,
    FiniteEnergyModel,
    GreenKernel,
    LogChordKernel,
    StaticPotential,
    confining_bound_check,
    euclidean_transform,
)
from gibbslab.equilibrium import (
    directional_derivative_check,
    mean_field_residual,
    minimize_free_energy,
)
from gibbslab.fekete import (
    IntegralFunctional,
    infima_convergence_table,
)
from gibbslab.ldp import laplace_verify_finite
from gibbslab.measures import FiniteSpace, GridMeasure, legendre_check
from gibbslab.sampler import enumerate_gibbs, mcmc_run
from gibbslab.spaces import (
    BackgroundCharge,
    GreenModel,
    build_space,
    green_identity_residual,
)

_CACHE = {}


def _circle_log_gas():
    if "log_gas" not in _CACHE:
        space = build_space("circle", 256, 64)
        _CACHE["log_gas"] = EnergyModel(space, LogChordKernel(),
                                        BetaSchedule.linear(1.0))
    return _CACHE["log_gas"]


def _circle_table():
    if "table" not in _CACHE:
        _CACHE["table"] = infima_convergence_table(
            _circle_log_gas(), list(range(2, 65)), threshold=0.04,
            restarts=3, seed=11)
    return _CACHE["table"]


def _torus_model():
    if "torus_model" not in _CACHE:
        space = build_space("torus", 64, 16)
        green = GreenModel(space, BackgroundCharge.uniform(space))
        _CACHE["torus_model"] = EnergyModel(space, GreenKernel(green),
                                            BetaSchedule.constant(2.0))
    return _CACHE["torus_model"]


def _max_green_residual(model, rng, trials=100):
    worst = 0.0
    for _ in range(trials):
        x = model.space.sample_points(rng, 1)
        coeffs = rng.standard_normal(model.order + 1)
        worst = max(worst, green_identity_residual(model, coeffs, x))
    return worst


def test_criterion_01_green_identity():
    start = time.monotonic()
    rng = np.random.default_rng(20260814)
    circle = build_space("circle", 256, 64)
    torus = build_space("torus", 64, 16)
    sphere = build_space("sphere", 4, 12)
    cases = {
        "circle-uniform": GreenModel(circle, BackgroundCharge.uniform(circle)),
        "torus-uniform": GreenModel(torus, BackgroundCharge.uniform(torus)),
        "sphere-uniform": GreenModel(sphere, BackgroundCharge.uniform(sphere)),
        "circle-tilted": GreenModel(
            circle,
            BackgroundCharge.from_expression(circle, "1 + 0.5 * cos(theta)")),
    }
    residuals = {name: _max_green_residual(model, rng, trials=100)
                 for name, model in cases.items()}
    elapsed = time.monotonic() - start
    for name, worst in residuals.items():
        assert worst < 1e-6, f"{name}: max residual {worst:.3e}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(f"criterion 1 PASS: max residual "
          f"{max(residuals.values()):.3e} over 4x100 trials, {elapsed:.1f}s")


def test_criterion_02_entropy_legendre_identity():
    start = time.monotonic()
    rng = np.random.default_rng(31)
    worst_closed, worst_grid = 0.0, 0.0
    for trial in range(500):
        m = int(rng.integers(2, 5))
        pi = rng.dirichlet(2.0 * np.ones(m))
        pi = pi / pi.sum()
        g = rng.uniform(0.0, 2.0, size=m)
        if trial % 3 == 0 and m > 2:
            g[int(rng.integers(m))] = math.inf
        report = legendre_check(FiniteSpace(pi), g)
        worst_closed = max(worst_closed, abs(report.lhs - report.rhs_closed))
        worst_grid = max(worst_grid, abs(report.lhs - report.rhs_grid))
    elapsed = time.monotonic() - start
    assert worst_closed < 1e-12, f"closed-form mismatch {worst_closed:.3e}"
    assert worst_grid < 1e-4, f"grid oracle mismatch {worst_grid:.3e}"
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    print(f"criterion 2 PASS: closed {worst_closed:.2e}, grid "
          f"{worst_grid:.2e} over 500 draws, {elapsed:.1f}s")


def test_criterion_03_circle_minima_match_closed_form():
    start = time.monotonic()
    table = _circle_table()
    worst = 0.0
    for n, result in zip(table.n_values, table.results):
        worst = max(worst, abs(result.value - (-math.log(n) / (2.0 * n))))
    assert worst < 1e-6, f"worst closed-form deviation {worst:.3e}"
    # distance to the macroscopic infimum 0 shrinks strictly from n = 3 on
    values = np.array([result.value for result in table.results])
    gaps_to_zero = np.abs(values)
    assert np.all(np.diff(gaps_to_zero[1:]) < 0.0)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    print(f"criterion 3 PASS: worst deviation {worst:.2e} over n=2..64, "
          f"{elapsed:.1f}s")


def test_criterion_04_infima_table_convergence():
    table = _circle_table()
    assert table.slope < 0.0
    assert table.final_gap < 0.04
    assert table.passed

    space = FiniteSpace([1 / 3, 1 / 3, 1 / 3])
    g = np.array([[0.0, -1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    model = FiniteEnergyModel(space, BetaSchedule.constant(1.0), pair_matrix=g)
    finite_table = infima_convergence_table(model, list(range(2, 13)),
                                            threshold=1e-3)
    assert finite_table.final_gap < 1e-3
    assert finite_table.passed
    print(f"criterion 4 PASS: circle slope {table.slope:.2e}, final gap "
          f"{table.final_gap:.4f}; 3-atom final gap "
          f"{finite_table.final_gap:.2e}")


def test_criterion_05_finite_space_exponential_integrals():
    start = time.monotonic()
    space = FiniteSpace(np.array([0.5, 0.5]))
    model = FiniteEnergyModel(space, BetaSchedule.constant(2.0),
                              pair_matrix=np.array([[0.0, 1.0], [1.0, 0.0]]))
    f = IntegralFunctional(np.array([1.0, 0.0]))
    verdict = laplace_verify_finite(space, model, f, list(range(2, 13)))
    assert np.all(np.diff(verdict.gaps) < 0.0)
    assert verdict.final_gap < 0.05
    assert verdict.passed

    free_model = FiniteEnergyModel(space, BetaSchedule.constant(2.0),
                                   pair_matrix=np.zeros((2, 2)))
    zero = laplace_verify_finite(space, free_model, None, list(range(2, 13)))
    assert all(value == 0.0 for value in zero.values)
    assert all(gap == 0.0 for gap in zero.gaps)
    assert zero.limit == 0.0
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    print(f"criterion 5 PASS: final gap {verdict.final_gap:.4f}, "
          f"zero-energy gaps exactly 0, {elapsed:.1f}s")


def test_criterion_06_equilibrium_profiles():
    start = time.monotonic()
    space = build_space("box", 128, bounds=[(-3.0, 3.0)])
    pot = StaticPotential.from_expression(space, "x*x/2")
    model = EnergyModel(space, LogChordKernel(2.0), BetaSchedule.linear(),
                        potentials=[pot])
    result = minimize_free_energy(model, tol=1e-10, max_iters=5000)
    x = space.nodes[:, 0]
    target = np.where(
        np.abs(x) <= 2.0,
        np.sqrt(np.maximum(4.0 - x ** 2, 0.0)) / (2.0 * np.pi), 0.0)
    density = result.measure.node_masses / space.cell_volumes
    l1 = float((np.abs(density - target) * space.cell_volumes).sum())
    assert l1 < 0.02, f"L1 distance {l1:.4f}"

    torus_model = _torus_model()
    uniform = GridMeasure.uniform(torus_model.space)
    report = mean_field_residual(torus_model, uniform)
    assert report.residual < 1e-6, f"mean-field residual {report.residual:.2e}"
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    print(f"criterion 6 PASS: semicircle L1 {l1:.4f}, torus residual "
          f"{report.residual:.2e}, {elapsed:.1f}s")


def test_criterion_07_first_variation_checks():
    model = _torus_model()
    space = model.space
    rng = np.random.default_rng(47)
    for _ in range(50):
        mu = GridMeasure.from_unnormalized(
            space, np.exp(0.3 * rng.normal(size=space.n_nodes)))
        nu = GridMeasure.from_unnormalized(
            space, np.exp(0.3 * rng.normal(size=space.n_nodes)))
        report = directional_derivative_check(model, mu, nu,
                                              hs=(1e-3, 1e-4))
        assert report.consistent  # |analytic - fd| <= h * curvature

    u = space.nodes[:, 0]
    init = GridMeasure.from_unnormalized(
        space, 1.0 + 0.4 * np.cos(2.0 * np.pi * u))
    equilibrium = minimize_free_energy(model, initial=init, tol=1e-12,
                                       max_iters=3000)
    worst = 0.0
    for _ in range(10):
        nu = GridMeasure.from_unnormalized(
            space, np.exp(0.3 * rng.normal(size=space.n_nodes)))
        report = directional_derivative_check(model, equilibrium.measure, nu)
        worst = max(worst, abs(report.analytic))
    assert worst < 1e-6, f"derivative at minimizer {worst:.2e}"
    print(f"criterion 7 PASS: 50 consistent pairs, derivative at minimizer "
          f"{worst:.2e}")


def test_criterion_08_sampler_against_enumeration():
    space = FiniteSpace([0.4, 0.3, 0.2, 0.1])
    g = np.array([
        [0.0, 1.0, 0.5, -0.3],
        [1.0, 0.2, 0.8, 0.1],
        [0.5, 0.8, 0.0, 0.4],
        [-0.3, 0.1, 0.4, 0.6],
    ])
    model = FiniteEnergyModel(space, BetaSchedule.constant(1.0),
                              pair_matrix=g)
    n = 6
    exact = enumerate_gibbs(model, n)
    result = mcmc_run(model, n, steps=1_000_000, seed=77, thin=1)

    def batch_z(values, target, batches=50):
        values = np.asarray(values, dtype=float)
        usable = len(values) // batches * batches
        means = values[:usable].reshape(batches, -1).mean(axis=1)
        se = means.std(ddof=1) / math.sqrt(batches)
        return (values.mean() - target) / se

    z_occ = batch_z((result.samples == 0).sum(axis=1) / n,
                    exact.expectation(lambda c: c[0] / n))
    z_energy = batch_z(result.energies,
                       exact.expectation(lambda c: model.w_counts(c, n)))
    assert abs(z_occ) < 3.0, f"occupation z {z_occ:.2f}"
    assert abs(z_energy) < 3.0, f"energy z {z_energy:.2f}"

    again = mcmc_run(model, n, steps=1_000_000, seed=77, thin=1)
    assert result.samples.tobytes() == again.samples.tobytes()
    assert result.energies.tobytes() == again.energies.tobytes()
    # the stream of a finite chain of at least one full variate block, pinned
    assert hashlib.sha256(result.samples.tobytes()).hexdigest() == (
        "48fc9d58bb1de5c7ae5eb48c769c3f4285caf307c3599c88d8f26d436c426fb5")
    assert hashlib.sha256(result.energies.tobytes()).hexdigest() == (
        "cb0066db5adc448748f154e79f2902966a916f0b58a50795b1826eec7257b5c3")
    print(f"criterion 8 PASS: z_occ {z_occ:.2f}, z_energy {z_energy:.2f}, "
          "rerun byte-exact")


def test_criterion_09_confining_mass_bound():
    space = build_space("box", 64, bounds=[(-3.0, 3.0)])
    kernel = CallableKernel(
        lambda sp, a, b: np.abs(a[..., 0]) * np.abs(b[..., 0]), bound=0.0)
    model = EnergyModel(space, kernel, BetaSchedule.constant(2.0))
    inside = lambda pts: np.abs(pts[:, 0]) <= 1.0
    rng = np.random.default_rng(53)
    worst_margin = math.inf
    for _ in range(1000):
        n = int(rng.integers(10, 81))
        config = space.sample_points(rng, n)
        mass, bound = confining_bound_check(model, config, inside,
                                            kernel_floor=1.0)
        worst_margin = min(worst_margin, bound - mass)
        assert mass <= bound + 1e-12
    print(f"criterion 9 PASS: 1000 trials, smallest slack "
          f"{worst_margin:.4f}")


def test_criterion_10_euclidean_transforms():
    space = build_space("box", 64, bounds=[(-3.0, 3.0)])
    pot = StaticPotential.from_expression(space, "x*x/2")
    rng = np.random.default_rng(59)
    worst = 0.0
    for _ in range(100):
        xi = float(rng.uniform(0.05, 1.5))
        eps = float(rng.uniform(0.0, 0.9))
        coefficient = float(rng.uniform(0.5, 3.0))
        beta = BetaSchedule.linear(coefficient)
        model = EnergyModel(space, LogChordKernel(2.0), beta,
                            potentials=[pot])
        tilt = euclidean_transform(model, "strong", xi=xi, eps=eps).potentials[0]
        n = int(rng.integers(2, 500))
        beta_n = beta.beta_at(n)
        c_n = (n - (n / beta_n) * xi) / (n - 1.0)
        expected = (c_n - eps) / (1.0 - eps)
        worst = max(worst, abs(tilt.a_coefficient(n) - expected))
        assert abs(tilt.a_coefficient(10 ** 6) - 1.0) < 1e-3
    assert worst < 1e-12, f"coefficient mismatch {worst:.2e}"

    # the weak transform's pair kernel G + V(x) + V(y) on the grid
    model = EnergyModel(space, LogChordKernel(2.0), BetaSchedule.linear(),
                        potentials=[pot])
    weak = euclidean_transform(model, "weak")
    nodes = weak.space.nodes
    v = pot.limit_values(nodes)
    values = weak.kernel.pairwise(weak.space, nodes, nodes) + v[:, None] + v[None, :]
    off_diag = values[~np.eye(len(nodes), dtype=bool)]
    grid_min = float(off_diag.min())
    assert math.isfinite(grid_min)
    assert grid_min >= -2.0 * math.log(6.0) - 1e-9
    print(f"criterion 10 PASS: coefficient identity to {worst:.1e}, "
          f"tilted-kernel grid minimum {grid_min:.4f}")
