import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gibbslab.errors import MeasureError
from gibbslab.measures import (
    EmpiricalMeasure,
    FiniteSpace,
    GridMeasure,
    bounded_lipschitz_distance,
    legendre_check,
    relative_entropy,
)
from gibbslab.spaces import build_space


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


def test_bl_distance_equispaced_empiricals(circle_space):
    uniform = GridMeasure.uniform(circle_space)
    values = []
    for n in (4, 8, 16, 32):
        pts = (2.0 * np.pi * np.arange(n) / n)[:, None]
        emp = EmpiricalMeasure(circle_space, pts)
        values.append(bounded_lipschitz_distance(emp, uniform))
    assert_allclose(values, [0.25, 0.125, 0.0625, 0.03125], atol=1e-12)
    assert all(a > b for a, b in zip(values, values[1:]))


def test_bl_distance_separates_close_atoms(circle_space):
    a = EmpiricalMeasure(circle_space, circle_space.nodes[[0]])
    b = EmpiricalMeasure(circle_space, circle_space.nodes[[2]])
    r = circle_space.geodesic(circle_space.nodes[[0]], circle_space.nodes[[2]])[0, 0]
    assert bounded_lipschitz_distance(a, b) >= r / 2.0


def test_bl_distance_identity(circle_space):
    mu = GridMeasure.uniform(circle_space)
    assert bounded_lipschitz_distance(mu, mu) == 0.0


def test_bl_distance_on_box(box_space):
    shifted = GridMeasure.from_unnormalized(box_space, np.exp(-box_space.nodes[:, 0]))
    uniform = GridMeasure.uniform(box_space)
    assert bounded_lipschitz_distance(shifted, uniform) > 0.01


def _reference_bl_dictionary(space, n_anchors=64):
    """The closure dictionary the one-pass table replaced: one function per
    basis column, coordinate or anchor, with its values at the nodes."""
    functions = []
    if space.has_basis:
        sups = np.abs(space.basis_values).max(axis=0)
        scales = sups * np.maximum(1.0, np.sqrt(space.eigenvalues))
        for k in range(1, space.n_basis):
            functions.append(
                lambda pts, k=k: space.evaluate_basis(pts)[:, k] / scales[k])
    else:
        for axis, (a, b) in enumerate(np.asarray(space.params["bounds"], float)):
            center, scale = 0.5 * (a + b), max(1.0, 0.5 * (b - a))
            functions.append(
                lambda pts, axis=axis, c=center, s=scale: (pts[:, axis] - c) / s)
    stride = max(1, space.n_nodes // n_anchors)
    for anchor in space.nodes[::stride]:
        functions.append(lambda pts, anchor=anchor.copy(): np.minimum(
            space.geodesic(anchor, pts)[0], 1.0))
    return functions, np.stack([fn(space.nodes) for fn in functions], axis=0)


def _reference_bl_distance(dictionary, mu, nu):
    functions, node_values = dictionary

    def integrals(measure):
        if isinstance(measure, GridMeasure):
            return node_values @ measure.node_masses
        return np.array([float(np.mean(fn(measure.points))) for fn in functions])

    return float(np.abs(integrals(mu) - integrals(nu)).max())


BL_SPACES = {
    "circle": lambda: build_space("circle", 256, 64),
    "torus": lambda: build_space("torus", 32, 8),
    "sphere": lambda: build_space("sphere", 3, 8),
    "box2": lambda: build_space("box", 16, bounds=[(-2.0, 1.0), (0.0, 4.0)]),
    "box1": lambda: build_space("box", 64, bounds=[(-3.0, 3.0)]),
    "box-density": lambda: build_space("box", 32, bounds=[(-1.0, 2.0)],
                                       density="exp(-x*x)"),
}


def _bl_measures(space, seed):
    rng = np.random.default_rng(seed)
    grids = [GridMeasure.from_unnormalized(space, rng.uniform(0.2, 2.0, space.n_nodes))
             for _ in range(2)]
    empiricals = [EmpiricalMeasure(space, space.nodes[rng.integers(0, space.n_nodes, n)])
                  for n in (7, 13)]
    return grids, empiricals


@pytest.mark.parametrize("name", sorted(BL_SPACES))
def test_bl_table_matches_closure_dictionary(name):
    space = BL_SPACES[name]()
    dictionary = _reference_bl_dictionary(space)
    (g1, g2), (e1, e2) = _bl_measures(space, 5)
    for mu, nu in [(g1, e1), (g1, g2), (e1, e2), (g1, g1), (e1, e1)]:
        value = bounded_lipschitz_distance(mu, nu)
        assert abs(value - _reference_bl_distance(dictionary, mu, nu)) <= 1e-15
    assert bounded_lipschitz_distance(g1, g1) == 0.0
    assert bounded_lipschitz_distance(e1, e1) == 0.0


BL_CIRCLE = build_space("circle", 64, 16)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), grid_mu=st.booleans(), grid_nu=st.booleans())
def test_bl_distance_symmetric_and_zero_on_the_diagonal(seed, grid_mu, grid_nu):
    grids, empiricals = _bl_measures(BL_CIRCLE, seed)
    mu = grids[0] if grid_mu else empiricals[0]
    nu = grids[1] if grid_nu else empiricals[1]
    assert bounded_lipschitz_distance(mu, nu) == bounded_lipschitz_distance(nu, mu)
    assert bounded_lipschitz_distance(mu, mu) == 0.0
    assert bounded_lipschitz_distance(nu, nu) == 0.0


def test_bl_distance_keeps_no_space_alive():
    space = build_space("sphere", 2, 4)
    uniform = GridMeasure.uniform(space)
    assert bounded_lipschitz_distance(uniform, EmpiricalMeasure(space, space.nodes[:3])) > 0.0
    ref = weakref.ref(space)
    del space, uniform
    gc.collect()
    assert ref() is None


def test_empirical_needs_atoms(circle_space):
    with pytest.raises(MeasureError):
        EmpiricalMeasure(circle_space, np.empty((0, 1)))
