import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from gibbslab.config import (
    RunConfig,
    build_beta,
    build_constraint,
    build_environment,
    build_finite_model,
    build_functional,
    build_kernel,
    build_model,
    build_run_space,
)
from gibbslab.energy import (
    ConstantKernel,
    EnvironmentPotential,
    FiniteEnergyModel,
    GreenKernel,
    LogChordKernel,
)
from gibbslab.errors import ConfigError
from gibbslab.measures import FiniteSpace
from gibbslab.spaces import build_space

MINIMAL = "seed: 1\n"

FINITE_TEXT = """
seed: 3
finite:
  probs: [0.5, 0.5]
  pair_matrix:
    - [0.0, 1.0]
    - [1.0, 0.0]
beta:
  kind: constant
  value: 2.0
"""

CIRCLE_TEXT = """
seed: 11
output_dir: out
space:
  kind: circle
  resolution: 128
kernel:
  kind: log_chord
  scale: 1.0
beta:
  kind: constant
  value: 2.0
"""


def test_minimal_config_defaults():
    config = RunConfig.from_text(MINIMAL)
    assert config.seed == 1
    assert config.output_dir == "."


def test_seed_required():
    with pytest.raises(ConfigError, match="seed"):
        RunConfig.from_text("output_dir: out\n")
    with pytest.raises(ConfigError, match="seed"):
        RunConfig.from_text("seed: null\n")


def test_seed_must_be_integer():
    with pytest.raises(ConfigError, match="integer"):
        RunConfig.from_text("seed: 1.5\n")
    with pytest.raises(ConfigError, match="integer"):
        RunConfig.from_text("seed: true\n")


def test_empty_config_rejected():
    with pytest.raises(ConfigError, match="empty"):
        RunConfig.from_text("")


def test_unknown_key_reports_location():
    text = "seed: 1\nspace:\n  kind: circle\n  resolutionn: 4\n"
    with pytest.raises(ConfigError) as info:
        RunConfig.from_text(text)
    message = str(info.value)
    assert "resolutionn" in message
    assert "line 4" in message


def test_unknown_top_level_key():
    with pytest.raises(ConfigError, match="unknown key 'speed'"):
        RunConfig.from_text("seed: 1\nspeed: 2\n")


def test_duplicate_key_reports_location():
    text = "seed: 1\nseed: 2\n"
    with pytest.raises(ConfigError) as info:
        RunConfig.from_text(text)
    assert "duplicate key 'seed'" in str(info.value)
    assert "line 2" in str(info.value)


def test_non_mapping_section_rejected():
    with pytest.raises(ConfigError, match="must be a mapping"):
        RunConfig.from_text("seed: 1\nspace: [1, 2]\n")


def test_yaml_syntax_error_reports_location():
    with pytest.raises(ConfigError, match="line"):
        RunConfig.from_text("seed: 1\nspace:\n  kind: [unclosed\n")


def test_threads_validation():
    # runs are single-process: the former worker-pool key is unknown
    with pytest.raises(ConfigError, match="unknown key 'threads'"):
        RunConfig.from_text("seed: 1\nthreads: 2\n")


def test_environment_overrides(monkeypatch):
    monkeypatch.setenv("GIBBSLAB_OUTPUT_DIR", "/tmp/elsewhere")
    config = RunConfig.from_text(CIRCLE_TEXT)
    assert config.output_dir == "/tmp/elsewhere"


@pytest.mark.parametrize("text, message, line, column", [
    ("seed: 1\nsampler:\n  n: 2.5\n", "sampler.n must be an integer", 3, 6),
    ("seed: 1\nequilibrium:\n  tol: abc\n", "equilibrium.tol must be a number",
     3, 8),
    ("seed: 1\nspace:\n  kind: 3\n", "space.kind must be a string", 3, 9),
    ("seed: 1\nenvironment:\n  equispaced: 16\n",
     "environment.equispaced must be true or false", 3, 15),
    ("seed: 1\nldp:\n  n_values: [4, x]\n", r"ldp.n_values\[1\] must be an integer",
     3, 17),
    ("seed: 1\nldp:\n  n_values: 4\n", "ldp.n_values must be a list", 3, 13),
    ("seed: 1\nfinite:\n  pair_matrix: [[0, 1], [1, zero]]\n",
     r"finite.pair_matrix\[1\]\[1\] must be a number", 3, 29),
    ("seed: 1\nfekete:\n  restarts: [2]\n", "fekete.restarts must be an integer",
     3, 13),
])
def test_leaf_types_are_checked_with_location(text, message, line, column):
    with pytest.raises(ConfigError, match=message) as info:
        RunConfig.from_text(text)
    assert (info.value.line, info.value.column) == (line, column)


def test_float_leaves_read_yaml_strings_and_ints():
    config = RunConfig.from_text(
        "seed: 1\nequilibrium:\n  tol: 1e-10\n  step: 2\n"
        "beta:\n  kind: expression\n  expr: n\n  limit: inf\n")
    # YAML 1.1 loads 1e-10 and inf as strings; the raw mapping keeps them
    assert config.data["equilibrium"]["tol"] == "1e-10"
    options = config.options("equilibrium", "max_iters", "tol", "step")
    assert options == {"tol": 1e-10, "step": 2.0}
    assert all(type(v) is float for v in options.values())
    assert build_beta(config).limit == math.inf


def test_null_leaves_count_as_unset():
    config = RunConfig.from_text(
        "seed: 1\noutput_dir: null\nequilibrium:\n  tol: null\n"
        "ldp:\n  n_values: ~\n")
    assert config.output_dir == "."
    assert config.options("equilibrium", "tol") == {}
    assert config.options("ldp", "n_values") == {}
    assert config.options("fekete", "restarts") == {}


def test_round_trip_preserves_values():
    config = RunConfig.from_text(CIRCLE_TEXT)
    again = RunConfig.from_text(config.to_yaml())
    assert again.data == config.data
    assert again.to_yaml() == config.to_yaml()


def test_from_file_missing_path():
    with pytest.raises(ConfigError, match="cannot read"):
        RunConfig.from_file("/nonexistent/config.yaml")


def test_build_run_space_defaults():
    config = RunConfig.from_text("seed: 1\nspace:\n  kind: circle\n")
    space = build_run_space(config)
    assert space.kind == "circle"
    assert space.n_nodes == 256


def test_build_run_space_scales_basis_with_resolution():
    config = RunConfig.from_text(
        "seed: 1\nspace:\n  kind: circle\n  resolution: 64\n")
    space = build_run_space(config)
    assert space.n_nodes == 64
    assert space.n_basis <= 2 * 16 + 1


@pytest.mark.parametrize("kind, lines, resolution, bounds", [
    ("circle", "", 256, None),
    ("circle", "  resolution: 512\n", 512, None),
    ("torus", "", 64, None),
    ("sphere", "  resolution: 3\n", 3, None),
    ("box", "  bounds: [[-1.0, 2.0]]\n", 64, [(-1.0, 2.0)]),
], ids=["circle", "circle-512", "torus", "sphere-3", "box"])
def test_config_spaces_take_the_build_space_basis_order(kind, lines, resolution, bounds):
    config = RunConfig.from_text(f"seed: 1\nspace:\n  kind: {kind}\n{lines}")
    space = build_run_space(config)
    want = build_space(kind, resolution, bounds=bounds)
    assert space.basis_order == want.basis_order
    assert space.n_basis == want.n_basis
    assert_array_equal(space.nodes, want.nodes)


def test_build_run_space_bad_kind():
    config = RunConfig.from_text("seed: 1\nspace:\n  kind: disk\n")
    with pytest.raises(ConfigError, match="space.kind"):
        build_run_space(config)


def test_build_run_space_requires_section():
    config = RunConfig.from_text(MINIMAL)
    with pytest.raises(ConfigError, match="'space' is required"):
        build_run_space(config)


def test_build_beta_kinds():
    constant = build_beta(RunConfig.from_text(
        "seed: 1\nbeta:\n  kind: constant\n  value: 2.5\n"))
    assert constant.beta_at(10) == 2.5
    assert constant.limit == 2.5

    linear = build_beta(RunConfig.from_text(
        "seed: 1\nbeta:\n  kind: linear\n  coefficient: 0.5\n"))
    assert linear.beta_at(8) == 4.0
    assert linear.limit == math.inf

    expr = build_beta(RunConfig.from_text(
        "seed: 1\nbeta:\n  kind: expression\n  expr: log(n + 1)\n"
        "  limit: inf\n"))
    assert_allclose(expr.beta_at(7), math.log(8.0))
    assert expr.limit == math.inf


def test_build_beta_expression_requires_limit():
    config = RunConfig.from_text(
        "seed: 1\nbeta:\n  kind: expression\n  expr: n\n")
    with pytest.raises(ConfigError, match="beta.limit"):
        build_beta(config)


def test_build_beta_unknown_kind():
    config = RunConfig.from_text("seed: 1\nbeta:\n  kind: quadratic\n")
    with pytest.raises(ConfigError, match="beta.kind"):
        build_beta(config)


def test_build_kernel_kinds(circle_space):
    config = RunConfig.from_text(
        "seed: 1\nkernel:\n  kind: log_chord\n  scale: 2.0\n")
    kernel = build_kernel(config, circle_space)
    assert isinstance(kernel, LogChordKernel)

    config = RunConfig.from_text(
        "seed: 1\nkernel:\n  kind: constant\n  value: 0.25\n")
    kernel = build_kernel(config, circle_space)
    assert isinstance(kernel, ConstantKernel)

    config = RunConfig.from_text("seed: 1\nkernel:\n  kind: green\n")
    kernel = build_kernel(config, circle_space)
    assert isinstance(kernel, GreenKernel)

    config = RunConfig.from_text("seed: 1\nkernel:\n  kind: spline\n")
    with pytest.raises(ConfigError, match="kernel.kind"):
        build_kernel(config, circle_space)


def test_expression_kernel_matches_distances(circle_space):
    config = RunConfig.from_text(
        "seed: 1\nkernel:\n  kind: expression\n  expr: cos(d) + c**2\n")
    kernel = build_kernel(config, circle_space)
    a = np.array([[0.0], [1.0], [2.0]])
    b = np.array([[0.5], [2.5]])
    values = kernel.pairwise(circle_space, a, b)
    d = circle_space.geodesic(a, b)
    c = circle_space.chord(a, b)
    assert_allclose(values, np.cos(d) + c ** 2, atol=1e-14)


def test_expression_kernel_on_sphere(sphere_space):
    config = RunConfig.from_text(
        "seed: 1\nkernel:\n  kind: expression\n  expr: d - c\n")
    kernel = build_kernel(config, sphere_space)
    nodes = sphere_space.nodes[:5]
    values = kernel.pairwise(sphere_space, nodes, nodes)
    expected = sphere_space.geodesic(nodes, nodes) - sphere_space.chord(
        nodes, nodes)
    assert_allclose(values, expected, atol=1e-12)


@pytest.mark.parametrize("kind", ["circle", "torus", "sphere", "box"])
def test_expression_kernel_tables_are_the_pairwise_distances(kind):
    if kind == "box":
        space = build_space(kind, 12, bounds=[(-1.0, 2.0), (0.0, 1.0)])
    else:
        space = build_space(kind, 2 if kind == "sphere" else 12, 3)
    nodes = space.nodes
    for expr, pairwise in (("d", space.geodesic), ("c", space.chord)):
        config = RunConfig.from_text(
            f"seed: 1\nkernel:\n  kind: expression\n  expr: {expr}\n")
        kernel = build_kernel(config, space)
        assert_array_equal(kernel.pairwise(space, nodes, nodes[::2]),
                           pairwise(nodes, nodes[::2]))


def test_build_finite_model():
    model = build_finite_model(RunConfig.from_text(FINITE_TEXT))
    assert isinstance(model, FiniteEnergyModel)
    assert isinstance(model.space, FiniteSpace)
    assert model.beta.limit == 2.0
    assert_allclose(model.pair_matrix, [[0.0, 1.0], [1.0, 0.0]])


def test_build_finite_model_requires_matrix():
    config = RunConfig.from_text(
        "seed: 1\nfinite:\n  probs: [0.5, 0.5]\n")
    with pytest.raises(ConfigError, match="pair_matrix"):
        build_finite_model(config)


def test_build_finite_model_requires_probs():
    config = RunConfig.from_text(
        "seed: 1\nfinite:\n  pair_matrix: [[0.0]]\n")
    with pytest.raises(ConfigError, match="probs"):
        build_finite_model(config)


def test_build_model_with_potential_and_environment():
    text = """
seed: 2
space:
  kind: circle
  resolution: 64
kernel:
  kind: constant
  value: 0.0
beta:
  kind: constant
  value: 1.0
potentials:
  - expr: cos(theta)
environment:
  kernel:
    kind: expression
    expr: cos(d)
  equispaced: true
"""
    model = build_model(RunConfig.from_text(text))
    kinds = [type(p).__name__ for p in model.potentials]
    assert kinds == ["StaticPotential", "EnvironmentPotential"]
    env = model.potentials[1]
    stage = env.environment.measure_at(4)
    assert stage.points.shape == (4, 1)
    assert_allclose(stage.points[:, 0], np.arange(4) * math.pi / 2.0)


def test_environment_fixed_points_default_limit(circle_space):
    text = """
seed: 2
environment:
  kernel:
    kind: constant
    value: 1.0
  points: [[0.0], [3.14159]]
"""
    env = build_environment(RunConfig.from_text(text), circle_space)
    assert isinstance(env, EnvironmentPotential)
    assert env.environment.measure_at(2) is env.environment.measure_at(50)
    assert env.environment.limit.points.shape == (2, 1)


def test_environment_rejects_bad_blocks(circle_space):
    with pytest.raises(ConfigError, match="not both"):
        build_environment(RunConfig.from_text(
            "seed: 1\nenvironment:\n  kernel: {kind: constant}\n"
            "  points: [[0.0]]\n  equispaced: true\n"), circle_space)
    with pytest.raises(ConfigError, match="equispaced must"):
        build_environment(RunConfig.from_text(
            "seed: 1\nenvironment:\n  kernel: {kind: constant}\n"
            "  equispaced: 16\n"), circle_space)
    with pytest.raises(ConfigError, match="'points' or"):
        build_environment(RunConfig.from_text(
            "seed: 1\nenvironment:\n  kernel: {kind: constant}\n"),
            circle_space)


def test_environment_equispaced_circle_only(torus_space):
    config = RunConfig.from_text(
        "seed: 1\nenvironment:\n  kernel: {kind: constant}\n"
        "  equispaced: true\n")
    with pytest.raises(ConfigError, match="circle"):
        build_environment(config, torus_space)


def test_build_functional_vector_and_expr(circle_space):
    config = RunConfig.from_text(MINIMAL)
    assert build_functional(config, None, circle_space) is None
    f = build_functional(config, {"vector": [1.0, 0.0]}, circle_space)
    assert_allclose(np.asarray(f.g), [1.0, 0.0])
    f = build_functional(config, {"expr": "sin(theta)"}, circle_space)
    points = np.array([[0.0], [math.pi / 2.0]])
    assert_allclose(f.g(points), [0.0, 1.0], atol=1e-15)


def test_build_functional_finite_needs_vector():
    config = RunConfig.from_text(FINITE_TEXT)
    space = FiniteSpace(np.array([0.5, 0.5]))
    with pytest.raises(ConfigError, match="'vector'"):
        build_functional(config, {"expr": "x"}, space)
    with pytest.raises(ConfigError, match="'vector' or 'expr'"):
        build_functional(config, {}, space)


def test_build_constraint(circle_space):
    config = RunConfig.from_text("""
seed: 1
ldp:
  n_values: [2]
  constraint:
    expr: cos(theta)
    level: 0.3
""")
    constraint = build_constraint(config, circle_space)
    assert constraint.c == 0.3
    values = constraint.node_values(circle_space)
    assert_allclose(values, np.cos(circle_space.nodes[:, 0]), atol=1e-15)
    assert build_constraint(RunConfig.from_text(MINIMAL), circle_space) is None


def test_build_constraint_validation(circle_space):
    with pytest.raises(ConfigError, match="level"):
        build_constraint(RunConfig.from_text(
            "seed: 1\nldp:\n  constraint:\n    vector: [1.0]\n"),
            circle_space)
    with pytest.raises(ConfigError, match="'vector' or"):
        build_constraint(RunConfig.from_text(
            "seed: 1\nldp:\n  constraint:\n    level: 0.5\n"), circle_space)
    space = FiniteSpace(np.array([0.5, 0.5]))
    with pytest.raises(ConfigError, match="'vector' block"):
        build_constraint(RunConfig.from_text(
            "seed: 1\nldp:\n  constraint:\n    expr: x\n    level: 0.1\n"),
            space)
