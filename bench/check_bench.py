"""Tests of the benchmark's own references and span recorder.

Run with ``python3 -m pytest bench/check_bench.py``.  The file name keeps it
out of the package's test collection; nothing here times anything.
"""

import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import refs  # noqa: E402
import spans  # noqa: E402

PROBS = np.array([0.5, 0.3, 0.2])
PAIR = np.array([[0.0, 1.0, 0.4], [1.0, 0.3, -0.2], [0.4, -0.2, 0.6]])
TILT = np.array([0.5, 0.0, -0.3])


def _sequences(m, n):
    """Every labelled configuration with its w_n, by brute force."""
    for labels in itertools.product(range(m), repeat=n):
        pairs = sum(PAIR[labels[i], labels[j]] for i in range(n) for j in range(i + 1, n))
        yield labels, pairs / n ** 2


@pytest.mark.parametrize("n,m", [(0, 3), (1, 2), (5, 3), (6, 4)])
def test_compositions_are_all_count_vectors_once(n, m):
    rows = refs.compositions(n, m)
    assert rows.shape == (math.comb(n + m - 1, m - 1), m)
    assert np.all(rows.sum(axis=1) == n) and np.all(rows >= 0)
    assert len({tuple(r) for r in rows}) == rows.shape[0]


@pytest.mark.parametrize("n", [1, 2, 5])
def test_laplace_value_matches_sum_over_sequences(n):
    beta = 1.5
    total = 0.0
    for labels, w in _sequences(3, n):
        tilt = sum(TILT[a] for a in labels) / n
        total += np.prod(PROBS[list(labels)]) * math.exp(-n * beta * (w + tilt))
    want = math.log(total) / (n * beta)
    assert refs.finite_laplace_value(PROBS, PAIR, beta, n, TILT) == pytest.approx(
        want, rel=1e-13, abs=1e-15)


def test_marginals_match_sum_over_sequences():
    n, beta = 4, 1.0
    weights = np.zeros(3)
    z = 0.0
    for labels, w in _sequences(3, n):
        weight = np.prod(PROBS[list(labels)]) * math.exp(-n * beta * w)
        z += weight
        weights += weight * np.bincount(labels, minlength=3) / n
    np.testing.assert_allclose(refs.finite_marginals(PROBS, PAIR, beta, n),
                               weights / z, rtol=1e-13)


def test_fixed_point_error_vanishes_only_at_the_fixed_point():
    beta = 1.5
    tau = PROBS.copy()
    for _ in range(2000):  # damped iteration of the fixed-point map
        field = PAIR @ tau + TILT
        mapped = PROBS * np.exp(-beta * field)
        tau = 0.5 * tau + 0.5 * mapped / mapped.sum()
    assert refs.finite_fixed_point_error(tau, PROBS, PAIR, beta, TILT) < 1e-14
    assert refs.finite_fixed_point_error(PROBS, PROBS, PAIR, beta, TILT) > 1e-2


def test_edge_limit_matches_a_scalar_minimizer():
    probs, pair, beta, tilt = [0.5, 0.5], np.array([[0.0, 1.0], [1.0, 0.0]]), 2.0, [1.0, 0.0]

    def objective(t):
        tau = np.array([t, 1.0 - t])
        return float(tau @ tilt + 0.5 * tau @ pair @ tau
                     + (tau * np.log(tau / probs)).sum() / beta)

    best = minimize_scalar(objective, bounds=(1e-12, 1 - 1e-12), method="bounded",
                           options={"xatol": 1e-12})
    assert refs.two_atom_edge_limit(probs, pair, beta, tilt) == pytest.approx(
        -best.fun, abs=1e-11)


def test_torus_green_matches_a_loop_over_modes():
    rng = np.random.default_rng(3)
    a, b = rng.uniform(size=(4, 2)), rng.uniform(size=(5, 2))
    order = 3
    want = np.zeros((4, 5))
    for k1 in range(0, order + 1):
        for k2 in range(-order, order + 1):
            if k1 == 0 and k2 <= 0:
                continue
            lam = 4.0 * math.pi ** 2 * (k1 * k1 + k2 * k2)
            phase = 2.0 * math.pi * ((a[:, None, 0] - b[None, :, 0]) * k1
                                     + (a[:, None, 1] - b[None, :, 1]) * k2)
            want += 2.0 * np.cos(phase) / lam
    np.testing.assert_allclose(refs.torus_green(a, b, order), want, atol=1e-14)


def test_torus_green_apply_equals_the_dense_table():
    side, order = 16, 4
    grid = np.arange(side) / side
    uu, vv = np.meshgrid(grid, grid, indexing="ij")
    nodes = np.column_stack([uu.ravel(), vv.ravel()])
    masses = np.random.default_rng(4).dirichlet(np.ones(side * side))
    np.testing.assert_allclose(refs.torus_green_apply(masses, order),
                               refs.torus_green(nodes, nodes, order) @ masses, atol=1e-14)


def test_torus_energy_is_permutation_invariant_pair_sum():
    pts = np.random.default_rng(5).uniform(size=(6, 2))
    table = refs.torus_green(pts, pts, 4)
    want = sum(table[i, j] for i in range(6) for j in range(i + 1, 6)) / 36
    assert refs.torus_green_energy(pts, 4) == pytest.approx(want, abs=1e-15)
    assert refs.torus_green_energy(pts[::-1], 4) == pytest.approx(want, abs=1e-15)


@pytest.mark.parametrize("n", [2, 3, 16, 64])
def test_regular_polygon_reaches_the_closed_form(n):
    theta = 0.3 + 2.0 * math.pi * np.arange(n) / n
    assert refs.circle_log_energy(theta) == pytest.approx(refs.circle_fekete_minimum(n),
                                                          abs=1e-13)
    jittered = theta + np.random.default_rng(n).normal(scale=1e-2, size=n)
    assert refs.circle_log_energy(jittered) > refs.circle_fekete_minimum(n)


def test_self_time_subtracts_direct_children():
    rec = spans.SpanRecorder()
    outer = rec.open("outer")
    inner = rec.open("inner")
    leaf = rec.open("leaf")
    rec.close(leaf)
    rec.close(inner)
    rec.close(outer)
    rec.starts[:] = [0.0, 1.0, 2.0]
    rec.ends[:] = [10.0, 5.0, 3.0]
    assert rec.self_times() == [6.0, 3.0, 1.0]
    assert rec.roots() == [0, 0, 0]
    assert rec.parents == [-1, 0, 1]


def test_install_rebinds_names_bound_on_import():
    import gibbslab
    from gibbslab import energy, fekete, ldp, measures, simplex

    rec = spans.SpanRecorder()
    spans.install(rec, gibbslab)
    assert ldp.simplex_minimize is simplex.simplex_minimize
    model = energy.FiniteEnergyModel(measures.FiniteSpace(PROBS), energy.BetaSchedule.constant(1.5),
                                     pair_matrix=PAIR)
    ldp.laplace_verify_finite(model.space, model, fekete.IntegralFunctional(TILT), [2, 3],
                              grid_steps=10)
    names = rec.names
    top = names.index("ldp.laplace_verify_finite")
    assert rec.parents[top] == -1
    assert rec.parents[names.index("simplex.simplex_minimize")] == top
    assert rec.counters["ldp.type_classes"] == math.comb(4, 2) + math.comb(5, 2)
    assert rec.counters["simplex.grid_rows"] >= math.comb(12, 2)
    assert names.count("energy.FiniteEnergyModel.w_mean") >= math.comb(12, 2)
    assert all(t >= 0.0 for t in rec.self_times())


def test_disabled_recorder_calls_straight_through():
    import gibbslab
    from gibbslab import measures

    rec = spans.SpanRecorder()
    spans.install(rec, gibbslab)
    rec.enabled = False
    measures.relative_entropy(PROBS, PROBS)
    assert rec.names == [] and not rec.counters
    rec.enabled = True
    measures.relative_entropy(PROBS, PROBS)
    assert rec.names == ["measures.relative_entropy"]
