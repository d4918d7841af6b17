"""Vectorized type classes and simplex grids against the loops they replace."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import gammaln
from scipy.special import logsumexp as scipy_logsumexp

from gibbslab.energy import BetaSchedule, FiniteEnergyModel
from gibbslab.errors import EnergyError
from gibbslab.fekete import _finite_free_energy
from gibbslab.ldp import laplace_verify_finite
from gibbslab.measures import FiniteSpace
from gibbslab.sampler import enumerate_gibbs
from gibbslab.simplex import _blocks, class_table, compositions, logsumexp, simplex_minimize

PROBS = np.array([0.4, 0.3, 0.2, 0.1])
PAIR = np.array([[0.0, 1.0, 0.5, -0.3], [1.0, 0.2, 0.8, 0.1],
                 [0.5, 0.8, 0.0, 0.4], [-0.3, 0.1, 0.4, 0.6]])


def _recursive_compositions(total, parts):
    """The recursive generator the block generator replaced."""
    if parts == 1:
        return np.array([[total]], dtype=np.int64)
    blocks = []
    for first in range(total + 1):
        rest = _recursive_compositions(total - first, parts - 1)
        blocks.append(np.column_stack([np.full(len(rest), first, dtype=np.int64), rest]))
    return np.vstack(blocks)


@pytest.mark.parametrize("parts", [1, 2, 3, 4, 5])
def test_compositions_equal_the_recursive_generator(parts):
    for total in range(0, 13):
        want = _recursive_compositions(total, parts)
        got = compositions(total, parts)
        assert got.dtype == want.dtype
        assert_array_equal(got, want)
        for rows in (1, 2, 5, 64):
            blocks = list(_blocks(total, parts, rows))
            assert all(len(b) == rows for b in blocks[:-1])
            assert_array_equal(np.concatenate(blocks), want)


def test_grid_minimizer_is_the_first_one_across_blocks():
    # a constant objective ties everywhere: the first grid row must win, as
    # np.argmin over the whole grid would pick it
    value, tau = simplex_minimize(lambda taus: np.zeros(len(taus)), 3, steps=600,
                                  refine_rounds=0)
    assert value == 0.0
    assert_array_equal(tau, [0.0, 0.0, 1.0])


@pytest.mark.parametrize("n", [1, 7, 40])
def test_class_energies_equal_w_counts_row_by_row(n):
    model = FiniteEnergyModel(FiniteSpace(PROBS), BetaSchedule.constant(1.0),
                              pair_matrix=PAIR)
    counts = compositions(n, 4)
    want = np.array([model.w_counts(row, n) for row in counts])
    assert_array_equal(model.class_energies(counts, n), want)


@pytest.mark.parametrize("n,m", [(1, 2), (9, 4), (60, 3), (300, 2)])
def test_log_multinomials_equal_exact_factorial_ratios(n, m):
    model = FiniteEnergyModel(FiniteSpace(np.full(m, 1.0 / m)), BetaSchedule.constant(1.0),
                              pair_matrix=np.zeros((m, m)))
    table = class_table(model, n)
    exact = [math.log(math.factorial(n) // math.prod(math.factorial(int(c)) for c in row))
             for row in table.counts]
    assert_allclose(table.log_multinomials, exact, rtol=1e-14, atol=1e-12)
    assert_allclose(table.log_reference, table.counts @ np.log(model.space.probs),
                    rtol=1e-15)


def _same_float(got, want):
    return got == want or (math.isnan(got) and math.isnan(want))


@settings(max_examples=400, deadline=None)
@given(st.lists(st.floats(-4.0, 4.0) | st.floats(-750.0, 750.0)
                | st.sampled_from([-np.inf, -1.5, 0.0, 2.5]), min_size=1, max_size=80),
       st.integers(0, 3), st.sampled_from([None, -np.inf, np.inf, np.nan]))
def test_logsumexp_equals_scipy_bit_for_bit(values, ties, special):
    a = np.array(values)
    a = np.concatenate([a, np.full(ties, a.max())])
    if special is not None:
        a[len(a) // 2] = special
    assert _same_float(logsumexp(a), float(scipy_logsumexp(a)))


def test_logsumexp_equals_scipy_on_seeded_ties():
    # unit-scale terms with ties at the maximum: here the summation order
    # decides the last bit, which the split-off maximum must keep
    rng = np.random.default_rng(7)
    for _ in range(2000):
        a = rng.normal(size=int(rng.integers(2, 100)))
        a[rng.integers(0, a.size, size=int(rng.integers(1, 4)))] = a.max()
        a[rng.random(a.size) < 0.1] = -np.inf
        assert logsumexp(a) == float(scipy_logsumexp(a))


@pytest.mark.parametrize("a,want", [
    ([-np.inf], -np.inf), ([-np.inf] * 9, -np.inf), ([np.inf, 1.0], np.inf),
    ([np.inf, np.inf], np.inf), ([np.nan, 1.0], np.nan), ([-np.inf, np.nan], np.nan),
    ([np.inf, -np.inf], np.inf), ([-np.inf, 0.0], 0.0)])
def test_logsumexp_edge_cases_match_scipy(a, want):
    got = logsumexp(np.array(a, dtype=float))
    assert _same_float(got, want)
    assert _same_float(got, float(scipy_logsumexp(np.array(a, dtype=float))))


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 1000))
@example(1000)
def test_log_multinomials_equal_the_gammaln_form(n):
    # both forms subtract log-factorials of size up to log n! that each carry
    # a few ulps, so they agree to 1e-15 of log n!, not of the difference
    model = FiniteEnergyModel(FiniteSpace([0.5, 0.3, 0.2]), BetaSchedule.constant(1.0),
                              pair_matrix=np.zeros((3, 3)))
    table = class_table(model, n)
    want = gammaln(n + 1.0) - gammaln(table.counts + 1.0).sum(axis=1)
    scale = max(1.0, float(gammaln(n + 1.0)))
    assert np.abs(table.log_multinomials - want).max() <= 1e-15 * scale


@pytest.mark.parametrize("n", [1, 2, 7, 40, 150])
def test_log_partition_equals_the_scipy_form(n):
    model = FiniteEnergyModel(FiniteSpace(PROBS), BetaSchedule.constant(1.5),
                              pair_matrix=PAIR)
    gibbs = enumerate_gibbs(model, n)
    counts = gibbs.counts
    log_weights = (gammaln(n + 1.0) - gammaln(counts + 1.0).sum(axis=1)
                   + counts @ np.log(PROBS) - gibbs.coupling * model.class_energies(counts, n))
    assert_allclose(gibbs.log_partition, scipy_logsumexp(log_weights), rtol=1e-14, atol=1e-14)


def _free_energy_rows(model, taus):
    """The per-row loop the batched grid objective replaced."""
    out = []
    for row in taus:
        mask = row > 0.0
        entropy = float((row[mask] * np.log(row[mask] / model.space.probs[mask])).sum())
        if -1e-12 < entropy < 0.0:
            entropy = 0.0
        out.append(float(0.5 * row @ model.pair_matrix @ row)
                   + entropy / model.beta.limit)
    return np.array(out)


_weights = st.lists(st.sampled_from([0.0, 0.0, 1e-300, 1e-9, 0.25, 1.0, 3.0])
                    | st.floats(0.0, 5.0), min_size=4, max_size=4)


@settings(max_examples=200, deadline=None)
@given(st.lists(_weights, min_size=1, max_size=12), st.floats(0.1, 10.0))
def test_batched_free_energy_equals_the_row_loop(rows, beta):
    taus = np.array(rows, dtype=float)
    taus[taus.sum(axis=1) == 0.0, 0] = 1.0
    taus /= taus.sum(axis=1, keepdims=True)
    model = FiniteEnergyModel(FiniteSpace(PROBS), BetaSchedule.constant(beta),
                              pair_matrix=PAIR)
    assert_allclose(_finite_free_energy(model, taus, beta), _free_energy_rows(model, taus),
                    rtol=0.0, atol=1e-14)


def test_zero_particles_raise_before_dividing():
    model = FiniteEnergyModel(FiniteSpace(PROBS[:2] / PROBS[:2].sum()),
                              BetaSchedule.constant(1.0), pair_matrix=PAIR[:2, :2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EnergyError, match="n >= 1"):
            class_table(model, 0)
        with pytest.raises(EnergyError, match="n >= 1"):
            enumerate_gibbs(model, 0)
        with pytest.raises(EnergyError, match="n >= 1"):
            laplace_verify_finite(model.space, model, None, [0, 2])
        with pytest.raises(EnergyError, match="n >= 1"):
            model.w_counts([0, 0])


@pytest.mark.parametrize("steps", [0, -3])
def test_grid_without_steps_is_an_error(steps):
    model = FiniteEnergyModel(FiniteSpace(PROBS), BetaSchedule.constant(1.0), pair_matrix=PAIR)
    with pytest.raises(EnergyError, match="at least 1 step"):
        simplex_minimize(model.w_mean, 4, steps=steps)
    with pytest.raises(EnergyError, match="at least 1 step"):
        laplace_verify_finite(model.space, model, None, [2, 4], grid_steps=steps)
