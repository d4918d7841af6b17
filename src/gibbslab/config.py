"""Run configuration: strict, typed YAML parsing and model construction.

A run config is a YAML mapping with nested sections.  ``_SCHEMA`` is the one
source of truth for its keys and their types.  Parsing is strict: unknown or
duplicate keys and values of the wrong type fail with their line and column,
and the seed is required (runs never fall back to wall-clock entropy).  A
null value counts as unset.  ``RunConfig`` keeps the validated mapping
verbatim, so parse -> serialize -> parse is the identity on values;
``RunConfig.options`` hands the keys a config sets, converted to their
schema types, to the library, whose signatures hold every default.

The one environment override is ``GIBBSLAB_OUTPUT_DIR``.
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
from .expressions import compile_expression, compile_point_function
from .fekete import IntegralFunctional
from .ldp import HalfSpace
from .measures import EmpiricalMeasure, FiniteSpace, GridMeasure
from .spaces import BackgroundCharge, GreenModel, _coordinate_names, build_space

__all__ = [
    "RunConfig",
    "build_beta",
    "build_constraint",
    "build_environment",
    "build_finite_model",
    "build_functional",
    "build_green_model",
    "build_kernel",
    "build_model",
    "build_run_space",
]

# A leaf names its type: int, float, str, bool, or [type] for a list.  A
# dict is a section, and [section] a list of sections.
_KERNEL = {"kind": str, "scale": float, "value": float, "expr": str,
           "order": int, "charge": str}
_FUNCTIONAL = {"vector": [float], "expr": str}

_SCHEMA = {
    "seed": int,
    "output_dir": str,
    "space": {"kind": str, "resolution": int, "basis_order": int,
              "bounds": [[float]], "density": str},
    "finite": {"probs": [float], "pair_matrix": [[float]]},
    "kernel": _KERNEL,
    "beta": {"kind": str, "value": float, "coefficient": float, "expr": str,
             "limit": float},
    "potentials": [{"expr": str}],
    "environment": {"kernel": _KERNEL, "points": [[float]],
                    "equispaced": bool, "limit": str},
    "sampler": {"n": int, "steps": int, "burn_in": float, "thin": int,
                "proposal_scale": float, "ladder": [float],
                "swap_every": int},
    "equilibrium": {"max_iters": int, "tol": float, "step": float,
                    "overlay": str},
    "fekete": {"n": int, "n_values": [int], "restarts": int,
               "max_iters": int, "grad_tol": float, "grid_steps": int,
               "threshold": float, "polish_rounds": int},
    "ldp": {"n_values": [int], "threshold": float, "chain_budget": int,
            "rungs": int, "ess_floor": float, "grid_steps": int,
            "mode": str, "f": _FUNCTIONAL,
            "constraint": {**_FUNCTIONAL, "level": float}},
    "green_check": {"trials": int, "tolerance": float},
}

# YAML tags each leaf type accepts; a float leaf also takes a string that
# float() reads, since YAML 1.1 loads 1e-10 (no dot) and inf as strings
_TAGS = {int: {"int"}, float: {"int", "float"}, str: {"str"}, bool: {"bool"}}
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string",
               bool: "true or false"}

# default resolutions; build_space picks the default basis order
_SPACE_RESOLUTIONS = {"circle": 256, "torus": 64, "sphere": 4, "box": 64}


def _fail(node, message):
    mark = node.start_mark
    raise ConfigError(message, line=mark.line + 1, column=mark.column + 1)


def _tag(node):
    return node.tag.rsplit(":", 1)[-1]


def _reads_as_float(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def _validate_node(node, schema, path):
    """Check a composed YAML node against its schema entry: keys, nesting
    and leaf types, failing at the offending node's line and column."""
    if isinstance(schema, dict):
        section = path or "top-level"
        if not isinstance(node, yaml.MappingNode):
            _fail(node, f"section '{section}' must be a mapping")
        seen = set()
        for key_node, value_node in node.value:
            if not isinstance(key_node, yaml.ScalarNode):
                _fail(key_node, f"non-scalar key in section '{section}'")
            key = key_node.value
            if key in seen:
                _fail(key_node, f"duplicate key '{key}' in section '{section}'")
            seen.add(key)
            if key not in schema:
                _fail(key_node, f"unknown key '{key}' in section '{section}'")
            child = schema[key]
            # a null leaf or list counts as unset; sections must be mappings
            if isinstance(child, dict) or _tag(value_node) != "null":
                _validate_node(value_node, child, f"{path}.{key}" if path else key)
        return
    if isinstance(schema, list):
        if not isinstance(node, yaml.SequenceNode):
            _fail(node, f"{path} must be a list")
        for index, item in enumerate(node.value):
            _validate_node(item, schema[0], f"{path}[{index}]")
        return
    if not isinstance(node, yaml.ScalarNode):
        _fail(node, f"{path} must be {_TYPE_NAMES[schema]}")
    tag = _tag(node)
    if tag not in _TAGS[schema] and not (
            schema is float and tag == "str" and _reads_as_float(node.value)):
        _fail(node, f"{path} must be {_TYPE_NAMES[schema]}, got {node.value!r}")


def _convert(value, kind):
    if isinstance(kind, list):
        return [_convert(item, kind[0]) for item in value]
    return kind(value)


def _typed(block, schema, keys):
    """The ``keys`` that ``block`` sets (not null), converted to their
    ``schema`` types."""
    return {key: _convert(block[key], schema[key]) for key in keys
            if block.get(key) is not None}


@dataclass
class RunConfig:
    """Validated run configuration with the raw mapping preserved."""

    seed: int
    output_dir: str
    data: dict
    source: str = field(default="<config>", repr=False)

    @classmethod
    def from_text(cls, text, source="<config>"):
        try:
            root = yaml.compose(text, Loader=yaml.SafeLoader)
            if root is None:
                raise ConfigError(f"{source}: config file is empty")
            _validate_node(root, _SCHEMA, "")
            data = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            if mark is not None:
                raise ConfigError(f"{source}: {getattr(exc, 'problem', exc)}",
                                  line=mark.line + 1, column=mark.column + 1)
            raise ConfigError(f"{source}: {exc}")
        if data.get("seed") is None:
            raise ConfigError(f"{source}: 'seed' is required (runs never use "
                              "wall-clock entropy)")
        output_dir = (os.environ.get("GIBBSLAB_OUTPUT_DIR")
                      or data.get("output_dir") or ".")
        return cls(seed=data["seed"], output_dir=output_dir, data=data,
                   source=source)

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

    def section(self, name):
        """The mapping of section ``name``; empty when the config omits it."""
        return self.data.get(name) or {}

    def require(self, name):
        if name not in self.data:
            raise ConfigError(f"{self.source}: section '{name}' is required "
                              f"for this command")
        return self.data[name]

    def options(self, section, *keys):
        """The ``keys`` that ``section`` sets, converted to their schema
        types, as keyword arguments: a key the config leaves unset takes the
        default of the library signature it is passed to."""
        return _typed(self.section(section), _SCHEMA[section], keys)


# -- builders ----------------------------------------------------------------------


def build_run_space(config):
    """Continuous base space from the ``space`` section."""
    block = config.require("space")
    kind = block.get("kind")
    if kind not in _SPACE_RESOLUTIONS:
        raise ConfigError(f"{config.source}: space.kind must be one of "
                          f"{sorted(_SPACE_RESOLUTIONS)}, got {kind!r}")
    values = config.options("space", "resolution", "basis_order", "bounds")
    return build_space(kind, values.get("resolution", _SPACE_RESOLUTIONS[kind]),
                       values.get("basis_order"), bounds=values.get("bounds"),
                       density=block.get("density"))


def build_finite_space(config):
    probs = config.options("finite", "probs").get("probs")
    if not probs:
        raise ConfigError(f"{config.source}: finite.probs must be a nonempty "
                          "list of atom probabilities")
    return FiniteSpace(np.asarray(probs, dtype=float))


def build_beta(config):
    kind = config.section("beta").get("kind", "constant")
    if kind == "constant":
        return BetaSchedule.constant(
            config.options("beta", "value").get("value", 1.0))
    if kind == "linear":
        return BetaSchedule.linear(**config.options("beta", "coefficient"))
    if kind == "expression":
        fn = compile_expression(config.section("beta").get("expr"), ["n"])
        limit = config.options("beta", "limit").get("limit")
        if limit is None:
            raise ConfigError(f"{config.source}: beta.limit is required for "
                              "expression schedules")
        return BetaSchedule.from_callable(lambda n: float(fn(float(n))), limit)
    raise ConfigError(f"{config.source}: beta.kind must be constant, linear "
                      f"or expression, got {kind!r}")


def _distance_kernel(space, expr):
    """Kernel from an expression over the geodesic (d) and chord (c)
    distances; symmetric by construction."""
    fn = compile_expression(expr, ["d", "c"])

    def pair_fn(sp, a, b):
        return fn(sp.distance(a, b), sp.distance(a, b, chord=True))

    return CallableKernel(pair_fn)


def build_green_model(space, block):
    """Green model for the ``charge`` of a kernel block, ``uniform`` (the
    default) or an expression over the space's coordinates, truncated at the
    block's ``order`` (the model's default when unset)."""
    charge = block.get("charge", "uniform")
    if charge == "uniform":
        charge = BackgroundCharge.uniform(space)
    else:
        charge = BackgroundCharge.from_expression(space, charge)
    return GreenModel(space, charge, order=block.get("order"))


def build_kernel(config, space, block=None):
    if block is None:
        block = config.require("kernel")
    kind = block.get("kind")
    if kind == "green":
        return GreenKernel(build_green_model(space, block))
    if kind == "log_chord":
        return LogChordKernel(**_typed(block, _KERNEL, ["scale"]))
    if kind == "constant":
        return ConstantKernel(_typed(block, _KERNEL, ["value"]).get("value", 0.0))
    if kind == "expression":
        return _distance_kernel(space, block.get("expr"))
    raise ConfigError(f"{config.source}: kernel.kind must be green, "
                      f"log_chord, constant or expression, got {kind!r}")


def build_potentials(config, space):
    return [StaticPotential.from_expression(space, item.get("expr"))
            for item in config.data.get("potentials") or []]


def build_environment(config, space):
    """Environment potential from the ``environment`` section.

    ``equispaced: true`` places n equally spaced circle points at stage n
    (weakly converging to the uniform limit); ``points`` pins the same
    empirical environment at every stage, with itself as the limit unless
    ``limit: uniform`` (the only other value) names the uniform one.
    """
    block = config.require("environment")
    kernel = build_kernel(config, space, block=block.get("kernel"))
    limit_key = block.get("limit")
    equispaced = block.get("equispaced")
    points = config.options("environment", "points").get("points")
    if equispaced is not None and points is not None:
        raise ConfigError(f"{config.source}: give either environment.points "
                          "or environment.equispaced, not both")
    if limit_key not in (None, "uniform"):
        raise ConfigError(f"{config.source}: environment.limit supports only "
                          f"'uniform', got {limit_key!r}")
    if equispaced is not None:
        if not equispaced:
            raise ConfigError(f"{config.source}: environment.equispaced must "
                              "be true (stage n then holds n equally spaced "
                              "points), got false")
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
    limit = fixed if limit_key is None else GridMeasure.from_unnormalized(
        space, np.ones(space.n_nodes))
    return EnvironmentPotential(
        kernel, EnvironmentSequence(lambda n: fixed, limit))


def build_finite_model(config):
    extra = [key for key in ("space", "kernel", "potentials", "environment") if key in config.data]
    if extra:
        raise ConfigError(f"{config.source}: a finite model takes no "
                          f"{' or '.join(map(repr, extra))} section")
    space = build_finite_space(config)
    matrix = config.options("finite", "pair_matrix").get("pair_matrix")
    if matrix is None:
        raise ConfigError(f"{config.source}: finite.pair_matrix is required")
    return FiniteEnergyModel(space, build_beta(config),
                             pair_matrix=np.asarray(matrix, dtype=float))


def build_model(config):
    """Continuous-space energy model assembled from the config sections; an
    ``environment`` section adds its potential after the ``potentials``."""
    space = build_run_space(config)
    kernel = build_kernel(config, space)
    potentials = build_potentials(config, space)
    if "environment" in config.data:
        potentials.append(build_environment(config, space))
    return EnergyModel(space, kernel, build_beta(config),
                       potentials=potentials)


def _point_values(config, block, space, what):
    """Per-point values from a ``{vector: [...]}`` or ``{expr: ...}`` block:
    the vector, or the expression over the space's coordinates."""
    vector = _typed(block, _FUNCTIONAL, ["vector"]).get("vector")
    if vector is not None:
        return np.asarray(vector, dtype=float)
    expr = block.get("expr")
    if expr is None:
        raise ConfigError(f"{config.source}: {what} blocks need 'vector' or "
                          "'expr'")
    if isinstance(space, FiniteSpace):
        raise ConfigError(f"{config.source}: finite-space {what}s need a "
                          "'vector' block, not an expression")
    return compile_point_function(expr, _coordinate_names(space))


def build_functional(config, block, space):
    """Integral functional from a ``{vector: [...]}`` or ``{expr: ...}``
    block; None passes through."""
    if block is None:
        return None
    return IntegralFunctional(_point_values(config, block, space, "functional"))


def build_constraint(config, space):
    block = config.section("ldp").get("constraint")
    if block is None:
        return None
    level = _typed(block, _SCHEMA["ldp"]["constraint"], ["level"]).get("level")
    if level is None:
        raise ConfigError(f"{config.source}: constraint.level is required")
    return HalfSpace(_point_values(config, block, space, "constraint"), level)
