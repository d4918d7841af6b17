import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import lpmv

from gibbslab.energy import GreenKernel, kernel_node_matrix
from gibbslab.errors import SpaceError
from gibbslab.spaces import (
    BackgroundCharge,
    GreenModel,
    build_space,
    _sphere_basis,
    _sphere_norm,
    _torus_modes,
    green_identity_residual,
)


def circle_closed_form(delta):
    # Zero-mean Green kernel of the uniform circle: Fourier series of the
    # second Bernoulli polynomial, valid for delta in [0, 2*pi].
    return 2.0 * (np.pi ** 2 / 6.0 - np.pi * delta / 2.0 + delta ** 2 / 4.0)


def dense_green_table(model):
    """Reference node table of a Green model, formed densely."""
    scaled = model.space.basis_values[:, 1 : model.order + 1] * model._inv_sqrt_eigs
    h = scaled @ scaled.T
    h = 0.5 * (h + h.T)  # force exact symmetry over BLAS blocking
    shift = model.phi_nodes[:, None] + model.phi_nodes[None, :]
    return (h - shift) + model.constant


def gram_matrix(space):
    return (space.basis_values * space.weights[:, None]).T @ space.basis_values


def test_circle_build(circle_space):
    assert circle_space.n_nodes == 256
    assert circle_space.n_basis == 129
    assert_allclose(circle_space.eigenvalues[:7], [0, 1, 1, 4, 4, 9, 9])
    assert abs(circle_space.weights.sum() - 1.0) < 1e-12
    assert circle_space.weights.min() > 0


def test_torus_build(torus_space):
    assert torus_space.n_nodes == 64 * 64
    assert torus_space.n_basis == 1 + 2 * ((2 * 16 + 1) ** 2 - 1) // 2
    assert abs(torus_space.weights.sum() - 1.0) < 1e-12
    lam1 = 4.0 * np.pi ** 2
    assert_allclose(torus_space.eigenvalues[1:5], [lam1] * 4)


def test_sphere_build(sphere_space):
    assert sphere_space.n_nodes == 2562
    assert sphere_space.n_basis == 13 ** 2
    assert abs(sphere_space.weights.sum() - 1.0) < 1e-12
    assert sphere_space.weights.min() > 0
    assert_allclose(sphere_space.eigenvalues[1:4], [2, 2, 2])
    assert_allclose(sphere_space.eigenvalues[4:9], [6] * 5)


def torus_basis_loop(points, order):
    """Reference torus basis: one column pair per mode, in a Python loop."""
    cols = [np.ones(points.shape[0])]
    for m1, m2 in _torus_modes(order):
        phase = 2.0 * np.pi * (m1 * points[:, 0] + m2 * points[:, 1])
        cols.append(np.sqrt(2.0) * np.cos(phase))
        cols.append(np.sqrt(2.0) * np.sin(phase))
    return np.stack(cols, axis=1)


def sphere_basis_lpmv(points, order):
    """Reference sphere basis: one scipy ``lpmv`` call per (l, m) column."""
    ct = np.clip(points[:, 2], -1.0, 1.0)
    phi = np.arctan2(points[:, 1], points[:, 0])
    cols = [np.ones(points.shape[0])]
    for l in range(1, order + 1):
        for m in range(-l, l + 1):
            am = abs(m)
            leg = _sphere_norm(l, am) * lpmv(am, l, ct)
            if m == 0:
                cols.append(leg)
            elif m > 0:
                cols.append(math.sqrt(2.0) * leg * np.cos(am * phi))
            else:
                cols.append(math.sqrt(2.0) * leg * np.sin(am * phi))
    return np.stack(cols, axis=1)


def sphere_basis_by_column(points, order):
    """Reference sphere basis: the P_m^m -> P_{m+1}^m -> P_l^m recurrence one
    (l, m) column at a time, with the operations of ``_sphere_basis`` in the
    same order."""
    ct = np.clip(points[:, 2], -1.0, 1.0)
    phi = np.arctan2(points[:, 1], points[:, 0])
    sine = np.sqrt((1.0 - ct) * (1.0 + ct))
    out = np.empty((points.shape[0], (order + 1) ** 2))
    pmm = np.ones_like(ct)
    for m in range(order + 1):
        if m > 0:
            pmm = -(2 * m - 1) * sine * pmm
        cos_m, sin_m = np.cos(m * phi), np.sin(m * phi)
        prev, leg = None, pmm
        for l in range(m, order + 1):
            if l == m + 1:
                prev, leg = leg, (2 * m + 1) * ct * leg
            elif l > m + 1:
                prev, leg = leg, ((2 * l - 1) * ct * leg - (l + m - 1) * prev) / (l - m)
            norm = _sphere_norm(l, m)
            if m == 0:
                out[:, l * l + l] = norm * leg
            else:
                out[:, l * l + l + m] = math.sqrt(2.0) * norm * leg * cos_m
                out[:, l * l + l - m] = math.sqrt(2.0) * norm * leg * sin_m
    return out


def test_torus_basis_equals_mode_loop(torus_space, rng):
    points = rng.uniform(size=(4096, 2))
    assert np.array_equal(torus_space.evaluate_basis(points), torus_basis_loop(points, 16))
    assert np.array_equal(torus_space.basis_values, torus_basis_loop(torus_space.nodes, 16))


def node_blocks(space, size=4096):
    """Row slices of a node table, so that a reference is formed a block at a time."""
    return [slice(start, start + size) for start in range(0, space.n_nodes, size)]


@pytest.mark.parametrize("resolution, order", [(8, 3), (16, 7), (32, 12), (64, 16), (128, 16)])
def test_torus_node_table_equals_mode_loop(resolution, order):
    # at a power-of-two resolution the integer-phase table is the per-mode formula
    space = build_space("torus", resolution, order)
    for rows in node_blocks(space):
        assert_array_equal(space.basis_values[rows], torus_basis_loop(space.nodes[rows], order))


@pytest.mark.parametrize("resolution, order", [(24, 5), (40, 8), (100, 16)])
def test_torus_node_table_off_powers_of_two(resolution, order):
    # elsewhere it is within round-off of the per-mode formula and of
    # sqrt(2) cos/sin of 2*pi*k/R in long double, k = a*m1 + b*m2 exact
    space = build_space("torus", resolution, order)
    modes = np.array(_torus_modes(order))
    two_pi, root2 = 8 * np.arctan(np.longdouble(1)), np.sqrt(np.longdouble(2))
    for rows in node_blocks(space, 2000):
        table = space.basis_values[rows]
        assert_allclose(table, torus_basis_loop(space.nodes[rows], order), rtol=0, atol=1e-13)
        a, b = np.divmod(np.arange(space.n_nodes)[rows], resolution)
        k = a[:, None] * modes[:, 0] + b[:, None] * modes[:, 1]
        phase = two_pi * k.astype(np.longdouble) / resolution
        assert np.abs(table[:, 1::2] - root2 * np.cos(phase)).max() < 1e-13
        assert np.abs(table[:, 2::2] - root2 * np.sin(phase)).max() < 1e-13


def test_torus_build_peak_is_the_node_table():
    # no temporary of the table's size: the build's peak is the table itself
    tracemalloc.start()
    try:
        space = build_space("torus", 64, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * space.basis_values.nbytes


def test_torus_row_equals_mode_loop(torus_space, rng):
    # a chain evaluates one point at a time
    for point in rng.uniform(size=(32, 2)):
        assert_array_equal(torus_space.evaluate_basis(point), torus_basis_loop(point[None], 16))


@pytest.mark.parametrize("order", range(25))
def test_sphere_basis_equals_column_loop(order, rng):
    points = rng.normal(size=(300, 3))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    points = np.vstack([points, [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0],
                                 [-0.0, 0.0, 1.0], [0.0, -0.0, -1.0]]])
    assert_array_equal(_sphere_basis(points, order), sphere_basis_by_column(points, order))
    for point in points[[0, 300, 301]]:  # one row at a time, poles included
        assert_array_equal(_sphere_basis(point[None], order),
                           sphere_basis_by_column(point[None], order))


def test_sphere_node_tables_equal_column_loop(sphere_space):
    # the basis table and the order-24 moments of the quadrature correction
    nodes = sphere_space.nodes
    assert_array_equal(sphere_space.basis_values, sphere_basis_by_column(nodes, 12))
    assert_array_equal(_sphere_basis(nodes, 24), sphere_basis_by_column(nodes, 24))


@pytest.mark.parametrize("order", [1, 12, 24])
def test_sphere_basis_matches_lpmv(order, rng):
    points = rng.normal(size=(2000, 3))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    points = np.vstack([points, [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]]])
    assert_allclose(_sphere_basis(points, order), sphere_basis_lpmv(points, order),
                    rtol=0.0, atol=1e-12)


def test_sphere_node_basis_matches_lpmv(sphere_space):
    assert_allclose(sphere_space.basis_values, sphere_basis_lpmv(sphere_space.nodes, 12),
                    rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("fixture", ["circle_space", "torus_space", "sphere_space"])
def test_eigenvalues_nondecreasing_first_zero(fixture, request):
    space = request.getfixturevalue(fixture)
    eigs = space.eigenvalues
    assert eigs[0] == 0.0
    assert np.all(np.diff(eigs) >= 0.0)
    assert_allclose(space.basis_values[:, 0], 1.0)


@pytest.mark.parametrize("fixture", ["circle_space", "torus_space", "sphere_space"])
def test_basis_orthonormal_on_grid(fixture, request):
    space = request.getfixturevalue(fixture)
    gram = gram_matrix(space)
    err = np.abs(gram - np.eye(space.n_basis)).max()
    assert err < 1e-3
    assert err < 1e-10


def test_circle_series_oracle():
    # Brute-force series sum against the closed form at the antipodal pair.
    m = np.arange(1, 10 ** 6 + 1)
    series = float((2.0 * np.cos(m * np.pi) / m ** 2).sum())
    assert abs(series - circle_closed_form(np.pi)) < 1e-8
    assert abs(circle_closed_form(np.pi) - (-np.pi ** 2 / 6.0)) < 1e-14


def test_circle_green_matches_closed_form(circle_space, circle_green):
    origin, antipode = np.array([[0.0]]), np.array([[np.pi]])
    value = circle_green.pairwise(origin, antipode)[0, 0]
    assert abs(value - circle_closed_form(np.pi)) < 5e-4
    # truncation error shrinks as the order grows
    charge = BackgroundCharge.uniform(circle_space)
    errs = []
    for order in (32, 64, 128):
        model = GreenModel(circle_space, charge, order=order)
        errs.append(abs(model.pairwise(origin, antipode)[0, 0] - circle_closed_form(np.pi)))
    assert errs[0] > errs[1] > errs[2]
    # generic offsets against the closed form at full order
    for delta in (0.3, 1.2, 2.5):
        value = circle_green.pairwise(origin, np.array([[delta]]))[0, 0]
        assert abs(value - circle_closed_form(delta)) < 2e-3


def residual_all_basis(model, xs):
    """Residuals for every basis function at each point in xs, shape (p, B)."""
    space = model.space
    g_rows = model.rows_at_nodes(xs)
    lap = -space.basis_values * space.eigenvalues[None, :]
    integrals = g_rows @ (space.weights[:, None] * lap)
    f_at_x = space.evaluate_basis(xs)
    targets = (space.weights * model.charge.values) @ space.basis_values
    return np.abs(integrals + f_at_x - targets[None, :])


@pytest.mark.parametrize("fixture", ["circle_space", "torus_space", "sphere_space"])
def test_green_identity_every_basis_function(fixture, request, rng):
    space = request.getfixturevalue(fixture)
    model = GreenModel(space, BackgroundCharge.uniform(space))
    idx = rng.choice(space.n_nodes, size=100, replace=False)
    worst = residual_all_basis(model, space.nodes[idx]).max()
    assert worst < 1e-6


def test_green_identity_nonuniform_charge(torus_space, rng):
    lam = 1.0 + 0.5 * np.cos(2.0 * np.pi * torus_space.nodes[:, 0])
    model = GreenModel(torus_space, BackgroundCharge(torus_space, lam))
    idx = rng.choice(torus_space.n_nodes, size=50, replace=False)
    assert residual_all_basis(model, torus_space.nodes[idx]).max() < 1e-6


def test_green_identity_signed_charge(circle_space, rng):
    lam = 1.0 + 1.5 * np.cos(circle_space.nodes[:, 0])
    assert lam.min() < 0  # genuinely signed
    model = GreenModel(circle_space, BackgroundCharge(circle_space, lam))
    idx = rng.choice(circle_space.n_nodes, size=100, replace=False)
    assert residual_all_basis(model, circle_space.nodes[idx]).max() < 1e-6


def test_green_identity_scalar_entry_point(circle_green, rng):
    coeffs = rng.normal(size=circle_green.space.n_basis)
    x = circle_green.space.sample_points(rng, 1)
    assert green_identity_residual(circle_green, coeffs, x) < 1e-6


def residual_two_evaluations(model, coeffs, x):
    """``green_identity_residual`` with f(x) and the kernel row G(x, node_i)
    read from two separate basis evaluations at x."""
    space = model.space
    full = np.zeros(space.n_basis)
    full[: coeffs.shape[0]] = coeffs
    lap_nodes = space.basis_values @ (-space.eigenvalues * full)
    f_nodes = space.basis_values @ full
    f_at_x = float((space.evaluate_basis(x) @ full)[0])
    g_row = model.rows_at_nodes(x)[0]
    integral = float((space.weights * g_row * lap_nodes).sum())
    target = float((space.weights * f_nodes * model.charge.values).sum())
    return abs(integral + f_at_x - target)


# The torus residuals at the four probes below, as float.hex; they hold at
# one BLAS thread and at two.  The sphere's move with the thread count.
TORUS_RESIDUALS = ["0x1.e352000000000p-40", "0x1.1ea0000000000p-44",
                   "0x1.be30000000000p-40", "0x1.c570000000000p-40"]


@pytest.mark.parametrize("fixture", ["torus_green", "sphere_charged_green"])
def test_green_identity_residual_is_pinned(fixture, request):
    # one basis evaluation at x serves f(x) and the kernel row; a second
    # evaluation of the same point gives the same bits, so the residual
    # equals the two-evaluation reference exactly at four seeded probes
    model = request.getfixturevalue(fixture)
    rng = np.random.default_rng(7)
    got = []
    for _ in range(4):
        coeffs = rng.standard_normal(model.order + 1)
        x = model.space.sample_points(rng, 1)
        got.append(green_identity_residual(model, coeffs, x).hex())
        assert got[-1] == residual_two_evaluations(model, coeffs, x).hex()
    if fixture == "torus_green":
        assert got == TORUS_RESIDUALS


@pytest.mark.parametrize("fixture", ["circle_green", "torus_green", "sphere_charged_green"])
def test_green_pairwise_on_itself_equals_a_copy(fixture, request, rng):
    # pairwise(x, x) evaluates x once; the table keeps the bits of two
    # evaluations of equal points
    model = request.getfixturevalue(fixture)
    x = model.space.sample_points(rng, 9)
    assert_array_equal(model.pairwise(x, x), model.pairwise(x, x.copy()))


def test_green_identity_rejects_unresolved_test_function(circle_space):
    model = GreenModel(circle_space, BackgroundCharge.uniform(circle_space), order=16)
    coeffs = np.zeros(circle_space.n_basis)
    coeffs[40] = 1.0
    with pytest.raises(SpaceError):
        green_identity_residual(model, coeffs, circle_space.nodes[[0]])


@pytest.mark.parametrize("fixture", ["circle_space", "torus_space", "sphere_space"])
def test_green_normalization_every_node(fixture, request):
    space = request.getfixturevalue(fixture)
    if space.kind == "torus":
        lam = 1.0 + 0.5 * np.cos(2.0 * np.pi * space.nodes[:, 0])
    elif space.kind == "circle":
        lam = 1.0 + 0.5 * np.cos(space.nodes[:, 0])
    else:
        lam = 1.0 + 0.5 * space.nodes[:, 2]
    lam = lam / float((space.weights * lam).sum())
    model = GreenModel(space, BackgroundCharge(space, lam))
    integrals = dense_green_table(model) @ (space.weights * lam)
    assert np.abs(integrals).max() < 1e-8


@pytest.mark.parametrize("kind", ["torus", "sphere"])
def test_green_node_diagonal_matches_dense_table(kind, torus_green, sphere_charged_green):
    # fresh models, so that the session fixtures do not keep a dense table
    base = {"torus": torus_green, "sphere": sphere_charged_green}[kind]
    model = GreenModel(base.space, base.charge)
    assert_allclose(model.node_diagonal(), np.diag(dense_green_table(model)), rtol=0.0, atol=1e-12)


def test_green_symmetry(torus_space):
    lam = 1.0 + 0.5 * np.cos(2.0 * np.pi * torus_space.nodes[:, 1])
    model = GreenModel(torus_space, BackgroundCharge(torus_space, lam))
    k = dense_green_table(model)
    assert np.array_equal(k, k.T)


def test_green_unique_up_to_constant():
    space = build_space("circle", 2048, 1000)
    charge = BackgroundCharge(space, 1.0 + 0.5 * np.cos(space.nodes[:, 0]))
    coarse = GreenModel(space, charge, order=1000)
    fine = GreenModel(space, charge, order=2000)
    rng = np.random.default_rng(7)
    idx = rng.choice(space.n_nodes, size=160, replace=False)
    diff = (dense_green_table(fine) - dense_green_table(coarse))[np.ix_(idx, idx)]
    off = ~np.eye(len(idx), dtype=bool)
    assert diff[off].std() < 1e-4


@pytest.mark.parametrize("case", ["torus", "charged-torus", "charged-sphere", "circle"])
def test_green_operator_matches_dense_table(case, circle_green, torus_green,
                                            sphere_charged_green):
    if case == "charged-torus":
        space = torus_green.space
        model = GreenModel(space, BackgroundCharge.from_expression(
            space, "1 + 0.5*cos(2*pi*u)"))
    else:
        model = {"torus": torus_green, "charged-sphere": sphere_charged_green,
                 "circle": circle_green}[case]
    op = model.kernel_matrix()
    table = kernel_node_matrix(GreenKernel(model), model.space)
    size = model.space.n_nodes

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), zeros=st.sampled_from([0.0, 0.5, 0.99, 1.0]),
           signs=st.sampled_from(["mixed", "positive", "negative"]))
    def check(seed, zeros, signs):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(size)
        if signs != "mixed":
            x = np.abs(x) if signs == "positive" else -np.abs(x)
        x[rng.random(size) < zeros] = 0.0
        if x.any():
            x /= np.abs(x).sum()  # a signed measure of total variation 1
        dense = table @ x
        assert np.abs(op @ x - dense).max() <= 1e-12
        assert np.abs(x @ op - x @ table).max() <= 1e-12
        assert abs(x @ op @ x - x @ table @ x) <= 1e-12

    check()
    with pytest.raises(SpaceError):
        op @ np.ones((size, 2))


def test_background_charge_validation(circle_space):
    with pytest.raises(SpaceError):
        BackgroundCharge(circle_space, 2.0 * np.ones(circle_space.n_nodes))
    with pytest.raises(SpaceError):
        BackgroundCharge(circle_space, np.ones(4))
    charge = BackgroundCharge.from_expression(circle_space, "1 + 0.5*cos(theta)")
    assert abs((circle_space.weights * charge.values).sum() - 1.0) < 1e-12


def test_build_space_errors():
    with pytest.raises(SpaceError):
        build_space("moebius", 64)
    with pytest.raises(SpaceError):
        build_space("circle", 4)
    with pytest.raises(SpaceError):
        build_space("circle", 64, 32)  # Nyquist mode would degenerate
    with pytest.raises(SpaceError):
        build_space("torus", 16, 8)
    with pytest.raises(SpaceError):
        build_space("box", 32, basis_order=4, bounds=[(0, 1)])
    with pytest.raises(SpaceError):
        build_space("box", 32)
    with pytest.raises(SpaceError):
        build_space("circle", 64, bounds=[(0, 1)])
    with pytest.raises(SpaceError):
        build_space("box", 32, bounds=[(0, 1), (0, 1), (0, 1)])
    with pytest.raises(SpaceError):
        build_space("sphere", 2, 12)  # 162 nodes cannot resolve degree 12


def test_green_order_guard(circle_space):
    charge = BackgroundCharge.uniform(circle_space)
    with pytest.raises(SpaceError):
        GreenModel(circle_space, charge, order=0)
    with pytest.raises(SpaceError):
        GreenModel(circle_space, charge, order=circle_space.n_basis)
    other = build_space("circle", 32, 8)
    with pytest.raises(SpaceError):
        GreenModel(other, charge)


def test_geodesic_chord(circle_space, sphere_space, torus_space):
    a = np.array([[0.0]])
    b = np.array([[np.pi]])
    assert_allclose(circle_space.geodesic(a, b)[0, 0], np.pi)
    assert_allclose(circle_space.chord(a, b)[0, 0], 2.0)
    north = np.array([[0.0, 0.0, 1.0]])
    south = np.array([[0.0, 0.0, -1.0]])
    assert_allclose(sphere_space.geodesic(north, south)[0, 0], np.pi)
    assert_allclose(sphere_space.chord(north, south)[0, 0], 2.0)
    p = np.array([[0.1, 0.1]])
    q = np.array([[0.9, 0.9]])
    assert_allclose(torus_space.geodesic(p, q)[0, 0], np.sqrt(0.08))


def test_box_space(box_space):
    assert box_space.kind == "box"
    assert not box_space.has_basis
    assert abs(box_space.weights.sum() - 1.0) < 1e-12
    assert_allclose(box_space.cell_volumes, 6.0 / 64)
    with pytest.raises(SpaceError):
        box_space.evaluate_basis(box_space.nodes[:2])
    inside = box_space.contains(np.array([[0.0], [2.9]]))
    outside = box_space.contains(np.array([[3.1], [-4.0]]))
    assert inside.all() and not outside.any()


def test_box_density_expression():
    space = build_space("box", 64, bounds=[(-1.0, 1.0)], density="exp(-x*x)")
    assert abs(space.weights.sum() - 1.0) < 1e-12
    dens = space.reference_density(space.nodes)
    assert (space.cell_volumes * dens).sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(SpaceError):
        build_space("box", 64, bounds=[(-1.0, 1.0)], density="x")  # vanishes/negative


def test_sample_points_shapes(rng, circle_space, sphere_space, box_space):
    pts = circle_space.sample_points(rng, 5)
    assert pts.shape == (5, 1)
    pts = sphere_space.sample_points(rng, 7)
    assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    pts = box_space.sample_points(rng, 11)
    assert box_space.contains(pts).all()
