import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gibbslab.errors import MeasureError
from gibbslab.measures import (
    EmpiricalMeasure,
    FiniteSpace,
    GridMeasure,
    legendre_check,
    relative_entropy,
)


def test_grid_measure_validation(circle_space):
    GridMeasure.uniform(circle_space)
    with pytest.raises(MeasureError):
        GridMeasure(circle_space, 1.5 * np.ones(circle_space.n_nodes))
    with pytest.raises(MeasureError):
        density = np.ones(circle_space.n_nodes)
        density[0] = -0.5
        GridMeasure(circle_space, density)
    with pytest.raises(MeasureError):
        GridMeasure(circle_space, np.ones(3))
    measure = GridMeasure.from_unnormalized(circle_space, np.exp(np.cos(circle_space.nodes[:, 0])))
    assert abs((circle_space.weights * measure.density).sum() - 1.0) < 1e-12


def test_relative_entropy_uniform_is_exactly_zero(circle_space):
    assert relative_entropy(GridMeasure.uniform(circle_space)) == 0.0


def test_relative_entropy_two_atoms():
    fs = FiniteSpace([0.5, 0.5])
    assert relative_entropy(np.array([1.0, 0.0]), fs.probs) == pytest.approx(math.log(2), abs=1e-15)


def test_relative_entropy_absolute_continuity_failure():
    assert relative_entropy(np.array([0.5, 0.5]), np.array([1.0, 0.0])) == math.inf


def test_relative_entropy_rows_keep_the_clamp():
    # rows within 1e-9 of the reference sum to tiny negatives before the clamp
    probs = np.array([0.4, 0.3, 0.2, 0.1])
    rows = probs * (1.0 + 1e-9 * np.random.default_rng(7).standard_normal((200, 4)))
    rows /= rows.sum(axis=1, keepdims=True)
    values = relative_entropy(rows, probs)
    assert values.shape == (200,) and np.all(values >= 0.0)
    pair = relative_entropy(np.array([[0.5, 0.5], [1.0, 0.0]]), np.array([1.0, 0.0]))
    assert list(pair) == [math.inf, 0.0]


def test_relative_entropy_on_grids(circle_space):
    rho = 1.0 + 0.5 * np.cos(circle_space.nodes[:, 0])
    mu = GridMeasure.from_unnormalized(circle_space, rho)
    assert relative_entropy(mu) > 0.0
    assert relative_entropy(mu, mu) == 0.0
    hole = rho.copy()
    hole[:10] = 0.0
    nu = GridMeasure.from_unnormalized(circle_space, hole)
    assert relative_entropy(mu, nu) == math.inf
    assert relative_entropy(nu, mu) < math.inf


def test_relative_entropy_empirical_is_infinite(circle_space):
    emp = EmpiricalMeasure(circle_space, circle_space.nodes[:3])
    assert relative_entropy(emp) == math.inf


def test_finite_space_validation():
    with pytest.raises(MeasureError):
        FiniteSpace([1.0])
    with pytest.raises(MeasureError):
        FiniteSpace([0.5, 0.5, 0.0])
    with pytest.raises(MeasureError):
        FiniteSpace([0.7, 0.7])


def test_legendre_two_atom_value():
    fs = FiniteSpace([0.5, 0.5])
    rep = legendre_check(fs, np.array([0.0, 1.0]))
    expected = math.log(0.5 * (1.0 + math.exp(-1.0)))
    assert rep.lhs == pytest.approx(expected, abs=1e-15)
    assert abs(rep.lhs - rep.rhs_closed) < 1e-12
    assert abs(rep.lhs - rep.rhs_grid) < 1e-4
    assert_allclose(rep.tilt.sum(), 1.0, atol=1e-14)


def test_legendre_constant_shift():
    fs = FiniteSpace([0.3, 0.7])
    rep = legendre_check(fs, np.array([2.0, 2.0]))
    assert rep.lhs == pytest.approx(-2.0, abs=1e-14)
    assert rep.rhs_closed == pytest.approx(-2.0, abs=1e-14)


def test_legendre_with_infinite_entries():
    fs = FiniteSpace([0.25, 0.25, 0.5])
    g = np.array([0.5, math.inf, 1.5])
    rep = legendre_check(fs, g)
    assert rep.tilt[1] == 0.0
    assert abs(rep.lhs - rep.rhs_closed) < 1e-12
    assert abs(rep.lhs - rep.rhs_grid) < 1e-4


def test_legendre_randomized(rng):
    worst_closed, worst_grid = 0.0, 0.0
    for trial in range(100):
        m = int(rng.integers(2, 5))
        pi = rng.dirichlet(2.0 * np.ones(m))
        pi = pi / pi.sum()
        g = rng.uniform(0.0, 2.0, size=m)
        if trial % 3 == 0 and m > 2:
            g[int(rng.integers(m))] = math.inf
        rep = legendre_check(FiniteSpace(pi), g)
        worst_closed = max(worst_closed, abs(rep.lhs - rep.rhs_closed))
        worst_grid = max(worst_grid, abs(rep.lhs - rep.rhs_grid))
    assert worst_closed < 1e-12
    assert worst_grid < 1e-4


def test_legendre_guards():
    with pytest.raises(MeasureError):
        legendre_check(FiniteSpace([0.5, 0.5]), np.array([math.inf, math.inf]))
    with pytest.raises(MeasureError):
        legendre_check(FiniteSpace([0.5, 0.5]), np.array([0.0, -math.inf]))
    with pytest.raises(MeasureError):
        legendre_check(FiniteSpace(np.full(6, 1 / 6)), np.zeros(6))


def test_empirical_needs_atoms(circle_space):
    with pytest.raises(MeasureError):
        EmpiricalMeasure(circle_space, np.empty((0, 1)))
