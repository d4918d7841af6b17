"""The span tables of bench/spans.py name functions and methods that exist
where ``spans.install`` looks for them.

A traced name that moved would otherwise show only in a ``--trace 1`` run:
``install`` raises for a listed method that its class no longer defines,
and a hook whose function left its module's ``__all__`` is never put in
place.  These checks read the tables without installing them."""

import importlib
import inspect
import types
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


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
