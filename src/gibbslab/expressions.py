"""Tiny arithmetic-expression compiler for config-supplied scalar fields.

Grammar: numbers, the coordinate symbols of the target space, + - * /,
** (or pow), unary minus, and the functions exp, log, cos, sin, sqrt, abs,
maximum, minimum.
Expressions are parsed with :mod:`ast` and compiled against a whitelist, so
config files cannot execute arbitrary code.
"""

import ast

import numpy as np

from .errors import ConfigError

__all__ = ["compile_expression", "compile_point_function"]

_FUNCTIONS = {
    "exp": np.exp,
    "log": np.log,
    "cos": np.cos,
    "sin": np.sin,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "pow": np.power,
    "maximum": np.maximum,
    "minimum": np.minimum,
}

_CONSTANTS = {"pi": np.pi, "e": np.e}

_BINOPS = {
    ast.Add: np.add,
    ast.Sub: np.subtract,
    ast.Mult: np.multiply,
    ast.Div: np.true_divide,
    ast.Pow: np.power,
}


def _evaluate(node, env):
    if isinstance(node, ast.Expression):
        return _evaluate(node.body, env)
    if isinstance(node, ast.Constant):
        if isinstance(node.value, (int, float)):
            return float(node.value)
        raise ConfigError(f"literal {node.value!r} not allowed in expressions",
                          line=node.lineno, column=node.col_offset)
    if isinstance(node, ast.Name):
        if node.id in env:
            return env[node.id]
        if node.id in _CONSTANTS:
            return _CONSTANTS[node.id]
        raise ConfigError(f"unknown symbol {node.id!r} in expression",
                          line=node.lineno, column=node.col_offset)
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        return _BINOPS[type(node.op)](_evaluate(node.left, env), _evaluate(node.right, env))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_evaluate(node.operand, env)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.UAdd):
        return _evaluate(node.operand, env)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id not in _FUNCTIONS:
            raise ConfigError(f"unknown function {node.func.id!r} in expression",
                              line=node.lineno, column=node.col_offset)
        if node.keywords:
            raise ConfigError("keyword arguments not allowed in expressions",
                              line=node.lineno, column=node.col_offset)
        args = [_evaluate(a, env) for a in node.args]
        return _FUNCTIONS[node.func.id](*args)
    raise ConfigError(f"unsupported syntax {type(node).__name__} in expression",
                      line=getattr(node, "lineno", None),
                      column=getattr(node, "col_offset", None))


def compile_expression(text, names):
    """Compile ``text`` into a vectorized function of the listed coordinates."""
    if not isinstance(text, str) or not text.strip():
        raise ConfigError(f"expected a nonempty expression string, got {text!r}")
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"cannot parse expression {text!r}: {exc.msg}",
                          line=exc.lineno, column=exc.offset) from None

    def fn(*coords):
        if len(coords) != len(names):
            raise ConfigError(f"expression takes {len(names)} coordinates, got {len(coords)}")
        env = dict(zip(names, coords))
        value = _evaluate(tree, env)
        return np.asarray(value, dtype=float)

    return fn


def compile_point_function(text, names):
    """Compile ``text`` into a function of an (m, d) point array whose
    columns are the coordinates ``names``; it returns one value per point."""
    fn = compile_expression(text, names)

    def point_fn(points):
        values = fn(*points.T)
        return values if values.ndim else np.full(points.shape[0], values)

    return point_fn
