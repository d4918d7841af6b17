"""Run configuration: strict YAML parsing and model construction.

A run config is a YAML mapping with nested sections.  Parsing is strict:
unknown or duplicate keys fail with their line and column, and the seed is
required (runs never fall back to wall-clock entropy).  ``RunConfig`` keeps
the validated mapping verbatim, so parse -> serialize -> parse is the
identity on values.

Only two environment overrides exist: ``GIBBSLAB_OUTPUT_DIR`` and
``GIBBSLAB_THREADS``.
"""

import math
import os
from dataclasses import dataclass, field

import numpy as np
import yaml

from .energy import (
    BetaSchedule,
    CallableKernel,
    ConstantKernel,
    EnergyModel,
    EnvironmentPotential,
    EnvironmentSequence,
    FiniteEnergyModel,
    GreenKernel,
    LogChordKernel,
    StaticPotential,
)
from .errors import ConfigError
from .expressions import compile_expression
from .fekete import IntegralFunctional
from .ldp import HalfSpace
from .measures import EmpiricalMeasure, FiniteSpace, GridMeasure
from .spaces import BackgroundCharge, GreenModel, build_space

__all__ = [
    "RunConfig",
    "build_beta",
    "build_constraint",
    "build_environment",
    "build_finite_model",
    "build_functional",
    "build_kernel",
    "build_model",
    "build_run_space",
]

# nested key schema; None marks a leaf whose value the builders validate
_SCHEMA = {
    "seed": None,
    "output_dir": None,
    "threads": None,
    "space": {
        "kind": None,
        "resolution": None,
        "basis_order": None,
        "bounds": None,
        "density": None,
    },
    "finite": {"probs": None, "pair_matrix": None},
    "kernel": {
        "kind": None,
        "scale": None,
        "value": None,
        "expr": None,
        "order": None,
        "charge": None,
    },
    "beta": {"kind": None, "value": None, "coefficient": None, "expr": None,
             "limit": None},
    "potentials": [{"expr": None}],
    "environment": {
        "kernel": {
            "kind": None,
            "scale": None,
            "value": None,
            "expr": None,
            "order": None,
            "charge": None,
        },
        "points": None,
        "equispaced": None,
        "limit": None,
    },
    "sampler": {"n": None, "steps": None, "burn_in": None, "thin": None,
                "proposal_scale": None, "ladder": None, "swap_every": None},
    "equilibrium": {"max_iters": None, "tol": None, "step": None,
                    "overlay": None},
    "fekete": {"n": None, "n_values": None, "restarts": None,
               "max_iters": None, "grad_tol": None, "grid_steps": None,
               "threshold": None, "polish_rounds": None},
    "ldp": {"n_values": None, "threshold": None, "chain_budget": None,
            "rungs": None, "ess_floor": None, "grid_steps": None,
            "mode": None, "f": {"vector": None, "expr": None},
            "constraint": {"vector": None, "expr": None, "level": None}},
    "green_check": {"trials": None, "tolerance": None, "order": None},
}

_SPACE_DEFAULTS = {
    "circle": (256, 64),
    "torus": (64, 16),
    "sphere": (4, 12),
    "box": (64, None),
}


def _mark(node):
    mark = node.start_mark
    return mark.line + 1, mark.column + 1


def _validate_node(node, schema, path):
    if isinstance(schema, dict):
        if not isinstance(node, yaml.MappingNode):
            line, column = _mark(node)
            raise ConfigError(f"section '{path}' must be a mapping",
                              line=line, column=column)
        seen = set()
        for key_node, value_node in node.value:
            if not isinstance(key_node, yaml.ScalarNode):
                line, column = _mark(key_node)
                raise ConfigError(f"non-scalar key in section '{path}'",
                                  line=line, column=column)
            key = key_node.value
            line, column = _mark(key_node)
            if key in seen:
                raise ConfigError(f"duplicate key '{key}' in section '{path}'",
                                  line=line, column=column)
            seen.add(key)
            if key not in schema:
                raise ConfigError(f"unknown key '{key}' in section '{path}'",
                                  line=line, column=column)
            child = schema[key]
            if child is not None:
                _validate_node(value_node, child, f"{path}.{key}")
        return
    if isinstance(schema, list):
        if not isinstance(node, yaml.SequenceNode):
            line, column = _mark(node)
            raise ConfigError(f"section '{path}' must be a list",
                              line=line, column=column)
        for index, item in enumerate(node.value):
            _validate_node(item, schema[0], f"{path}[{index}]")


@dataclass
class RunConfig:
    """Validated run configuration with the raw mapping preserved."""

    seed: int
    output_dir: str
    threads: int
    data: dict
    source: str = field(default="<config>", repr=False)

    @classmethod
    def from_text(cls, text, source="<config>"):
        try:
            root = yaml.compose(text, Loader=yaml.SafeLoader)
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            if mark is not None:
                raise ConfigError(f"{source}: {getattr(exc, 'problem', exc)}",
                                  line=mark.line + 1, column=mark.column + 1)
            raise ConfigError(f"{source}: {exc}")
        if root is None:
            raise ConfigError(f"{source}: config file is empty")
        _validate_node(root, _SCHEMA, "top-level")
        data = yaml.safe_load(text)
        if "seed" not in data:
            raise ConfigError(f"{source}: 'seed' is required (runs never use "
                              "wall-clock entropy)")
        seed = data["seed"]
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ConfigError(f"{source}: seed must be an integer, got {seed!r}")
        output_dir = data.get("output_dir", ".")
        if not isinstance(output_dir, str):
            raise ConfigError(f"{source}: output_dir must be a string")
        threads = data.get("threads", 1)
        if isinstance(threads, bool) or not isinstance(threads, int) or threads < 1:
            raise ConfigError(f"{source}: threads must be a positive integer, "
                              f"got {threads!r}")
        env_dir = os.environ.get("GIBBSLAB_OUTPUT_DIR")
        if env_dir:
            output_dir = env_dir
        env_threads = os.environ.get("GIBBSLAB_THREADS")
        if env_threads:
            try:
                threads = int(env_threads)
            except ValueError:
                raise ConfigError(
                    f"GIBBSLAB_THREADS must be an integer, got {env_threads!r}")
            if threads < 1:
                raise ConfigError(
                    f"GIBBSLAB_THREADS must be positive, got {env_threads!r}")
        return cls(seed=seed, output_dir=output_dir, threads=threads,
                   data=data, source=source)

    @classmethod
    def from_file(cls, path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}")
        return cls.from_text(text, source=str(path))

    def to_yaml(self):
        return yaml.safe_dump(self.data, sort_keys=True,
                              default_flow_style=False)

    def section(self, name, default=None):
        value = self.data.get(name, default)
        return {} if value is None and default is None else value

    def require(self, name):
        if name not in self.data:
            raise ConfigError(f"{self.source}: section '{name}' is required "
                              f"for this command")
        return self.data[name]


# -- builders ----------------------------------------------------------------------


def _as_float(block, key, default, source):
    value = block.get(key, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{source}: '{key}' must be a number, got {value!r}")
    return float(value)


def _as_int(block, key, default, source):
    value = block.get(key, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{source}: '{key}' must be an integer, got {value!r}")
    return int(value)


def build_run_space(config):
    """Continuous base space from the ``space`` section."""
    block = config.require("space")
    kind = block.get("kind")
    if kind not in _SPACE_DEFAULTS:
        raise ConfigError(f"{config.source}: space.kind must be one of "
                          f"{sorted(_SPACE_DEFAULTS)}, got {kind!r}")
    resolution_default, basis_default = _SPACE_DEFAULTS[kind]
    resolution = _as_int(block, "resolution", resolution_default, config.source)
    if "basis_order" not in block and kind in ("circle", "torus"):
        # keep the spectral truncation clear of the grid's aliasing limit
        basis_default = min(basis_default, max(1, resolution // 4))
    basis_order = _as_int(block, "basis_order", basis_default, config.source)
    bounds = block.get("bounds")
    if bounds is not None:
        bounds = [tuple(pair) for pair in bounds]
    return build_space(kind, resolution, basis_order, bounds=bounds,
                       density=block.get("density"))


def build_finite_space(config):
    block = config.require("finite")
    probs = block.get("probs")
    if not isinstance(probs, list) or not probs:
        raise ConfigError(f"{config.source}: finite.probs must be a nonempty "
                          "list of atom probabilities")
    return FiniteSpace(np.asarray(probs, dtype=float))


def build_beta(config):
    block = config.section("beta", {"kind": "constant", "value": 1.0})
    kind = block.get("kind", "constant")
    if kind == "constant":
        return BetaSchedule.constant(_as_float(block, "value", 1.0,
                                               config.source))
    if kind == "linear":
        return BetaSchedule.linear(_as_float(block, "coefficient", 1.0,
                                             config.source))
    if kind == "expression":
        expr = block.get("expr")
        fn = compile_expression(expr, ["n"])
        limit = block.get("limit")
        if limit is None:
            raise ConfigError(f"{config.source}: beta.limit is required for "
                              "expression schedules")
        limit = math.inf if limit in ("inf", ".inf") else float(limit)
        return BetaSchedule.from_callable(lambda n: float(fn(float(n))), limit)
    raise ConfigError(f"{config.source}: beta.kind must be constant, linear "
                      f"or expression, got {kind!r}")


def _distance_kernel(space, expr):
    """Kernel from an expression over the geodesic (d) and chord (c)
    distances; symmetric by construction."""
    fn = compile_expression(expr, ["d", "c"])

    def pair_fn(sp, a, b):
        return fn(sp.distance(a, b), sp.distance(a, b, chord=True))

    return CallableKernel(pair_fn, singular=False)


def build_kernel(config, space, block=None):
    if block is None:
        block = config.require("kernel")
    kind = block.get("kind")
    if kind == "green":
        charge = block.get("charge", "uniform")
        if charge == "uniform":
            charge = BackgroundCharge.uniform(space)
        else:
            charge = BackgroundCharge.from_expression(space, charge)
        order = _as_int(block, "order", None, config.source)
        return GreenKernel(GreenModel(space, charge, order=order))
    if kind == "log_chord":
        return LogChordKernel(_as_float(block, "scale", 1.0, config.source))
    if kind == "constant":
        return ConstantKernel(_as_float(block, "value", 0.0, config.source))
    if kind == "expression":
        return _distance_kernel(space, block.get("expr"))
    raise ConfigError(f"{config.source}: kernel.kind must be green, "
                      f"log_chord, constant or expression, got {kind!r}")


def build_potentials(config, space):
    potentials = []
    for item in config.section("potentials", []):
        potentials.append(StaticPotential.from_expression(space, item.get("expr")))
    return potentials


def build_environment(config, space):
    """Environment potential from the ``environment`` section.

    ``equispaced: true`` places n equally spaced circle points at stage n
    (weakly converging to the uniform limit); ``points`` pins the same
    empirical environment at every stage.
    """
    block = config.require("environment")
    kernel = build_kernel(config, space, block=block.get("kernel"))
    limit_key = block.get("limit")
    equispaced = block.get("equispaced")
    points = block.get("points")
    if equispaced is not None and points is not None:
        raise ConfigError(f"{config.source}: give either environment.points "
                          "or environment.equispaced, not both")
    if equispaced is not None:
        if equispaced is not True:
            raise ConfigError(f"{config.source}: environment.equispaced must "
                              "be true (stage n then holds n equally spaced "
                              f"points), got {equispaced!r}")
        if space.kind != "circle":
            raise ConfigError(f"{config.source}: equispaced environment "
                              "streams are defined on the circle")
        limit = GridMeasure.from_unnormalized(space, np.ones(space.n_nodes))

        def stage(n):
            angles = np.linspace(0.0, 2.0 * math.pi, n,
                                 endpoint=False)[:, None]
            return EmpiricalMeasure(space, angles)

        return EnvironmentPotential(kernel, EnvironmentSequence(stage, limit))
    if points is None:
        raise ConfigError(f"{config.source}: environment needs 'points' or "
                          "'equispaced: true'")
    fixed = EmpiricalMeasure(space, np.asarray(points, dtype=float))
    if limit_key == "uniform":
        limit = GridMeasure.from_unnormalized(space, np.ones(space.n_nodes))
    elif limit_key is None:
        limit = fixed
    else:
        raise ConfigError(f"{config.source}: environment.limit supports only "
                          f"'uniform', got {limit_key!r}")
    return EnvironmentPotential(
        kernel, EnvironmentSequence(lambda n: fixed, limit))


def build_finite_model(config):
    space = build_finite_space(config)
    block = config.require("finite")
    matrix = block.get("pair_matrix")
    if matrix is None:
        raise ConfigError(f"{config.source}: finite.pair_matrix is required")
    return FiniteEnergyModel(space, build_beta(config),
                             pair_matrix=np.asarray(matrix, dtype=float))


def build_model(config, environment=False):
    """Continuous-space energy model assembled from the config sections."""
    space = build_run_space(config)
    kernel = build_kernel(config, space)
    potentials = build_potentials(config, space)
    if environment:
        potentials.append(build_environment(config, space))
    return EnergyModel(space, kernel, build_beta(config),
                       potentials=potentials)


def build_functional(config, block, space):
    """Integral functional from a ``{vector: [...]}`` or ``{expr: ...}``
    block; None passes through."""
    if block is None:
        return None
    vector = block.get("vector")
    if vector is not None:
        return IntegralFunctional(np.asarray(vector, dtype=float))
    expr = block.get("expr")
    if expr is None:
        raise ConfigError(f"{config.source}: functional blocks need 'vector' "
                          "or 'expr'")
    if isinstance(space, FiniteSpace):
        raise ConfigError(f"{config.source}: finite-space functionals need a "
                          "'vector' block, not an expression")
    from .spaces import _coordinate_names

    fn = compile_expression(expr, _coordinate_names(space))

    def point_values(points):
        return fn(*[points[:, i] for i in range(points.shape[1])])

    return IntegralFunctional(point_values)


def build_constraint(config, space):
    block = config.section("ldp", {}).get("constraint")
    if block is None:
        return None
    level = block.get("level")
    if level is None or isinstance(level, bool) or not isinstance(level, (int, float)):
        raise ConfigError(f"{config.source}: constraint.level must be a number")
    vector = block.get("vector")
    if vector is not None:
        return HalfSpace(np.asarray(vector, dtype=float), float(level))
    expr = block.get("expr")
    if expr is None:
        raise ConfigError(f"{config.source}: constraint needs 'vector' or "
                          "'expr'")
    if isinstance(space, FiniteSpace):
        raise ConfigError(f"{config.source}: finite-space constraints need a "
                          "'vector' block, not an expression")
    from .spaces import _coordinate_names

    fn = compile_expression(expr, _coordinate_names(space))

    def node_values(points):
        return fn(*[points[:, i] for i in range(points.shape[1])])

    return HalfSpace(node_values, float(level))
