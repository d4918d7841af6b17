"""The span tables of bench/spans.py name functions and methods that exist
where ``spans.install`` looks for them.

A traced name that moved would otherwise show only in a ``--trace 1`` run:
``install`` raises for a listed method that its class no longer defines,
and a hook whose function left its module's ``__all__`` is never put in
place.  These checks read the tables without installing them."""

import ast
import importlib
import inspect
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
SPANS = BENCH / "spans.py"


def _spans():
    """bench/spans.py as a module, compiled from its source so that no
    bytecode cache is written next to it."""
    module = types.ModuleType("bench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), module.__dict__)
    return module


def test_span_methods_are_defined_on_their_own_classes():
    spans = _spans()
    for layer, classes in spans.METHODS.items():
        module = importlib.import_module(f"gibbslab.{layer}")
        for cls_name, methods in classes.items():
            own = vars(getattr(module, cls_name))
            for method in methods:
                assert inspect.isfunction(own.get(method)), f"{layer}.{cls_name}.{method}"


def test_span_hooks_name_wrapped_functions():
    spans = _spans()
    for key in spans.HOOKS:
        layer, *path = key.split(".")
        assert layer in spans.LAYERS, key
        module = importlib.import_module(f"gibbslab.{layer}")
        if len(path) == 2:  # a method: wrapped only when METHODS lists it
            cls_name, method = path
            assert method in spans.METHODS[layer][cls_name], key
            continue
        (name,) = path
        fn = getattr(module, name, None)
        assert name in module.__all__, key
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__, key


def test_layer_exports_all_exist():
    # install calls getattr on every name in each layer's __all__, so a
    # deleted name left there breaks only a traced run
    spans = _spans()
    for layer in spans.LAYERS:
        module = importlib.import_module(f"gibbslab.{layer}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{layer}.{name}"


def _per_layer_span_keys():
    """The string keys that bench/run.py's ``per_layer`` reads from its span
    tables ``self_s``, ``incl_s`` and ``calls``."""
    tree = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    (per_layer,) = [node for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef) and node.name == "per_layer"]
    return {node.slice.value for node in ast.walk(per_layer)
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id in ("self_s", "incl_s", "calls")
            and isinstance(node.slice, ast.Constant)}


def test_per_layer_reads_wrapped_spans():
    # the span tables are defaultdicts, so a key that no wrapper records
    # reads as 0 and silently zeroes its per-layer figure
    spans = _spans()
    keys = _per_layer_span_keys()
    wrapped_methods = {method for classes in spans.METHODS.values()
                       for methods in classes.values() for method in methods}
    assert len(keys) > 1
    for key in keys:
        layer, _, path = key.partition(".")
        if not path:  # per_layer folds every ``*.<key>`` method span into one
            assert key in wrapped_methods, key
            continue
        assert layer in spans.LAYERS, key
        module = importlib.import_module(f"gibbslab.{layer}")
        if "." in path:
            cls_name, method = path.split(".")
            assert method in spans.METHODS[layer].get(cls_name, ()), key
            assert inspect.isfunction(vars(getattr(module, cls_name)).get(method)), key
            continue
        fn = getattr(module, path, None)
        assert path in module.__all__, key
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__, key
