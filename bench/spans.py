"""Span recorder and the wrappers that put it around gibbslab's layers.

A span is (name, start, end, parent).  Spans are kept in memory while the
benchmark runs and written out when it ends; a span's self time is its
duration minus the durations of its direct children.

``install`` wraps the public functions of each gibbslab module, and the
public methods listed in ``METHODS``, at every name a gibbslab module bound
them to on import (``from .simplex import simplex_minimize`` binds
``ldp.simplex_minimize``), so calls between layers open spans without any
change to the package.  The wrappers record only while the recorder is
``enabled``; otherwise they call straight through.
"""

import functools
import gzip
import importlib
import inspect
import math
import sys
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("spaces", "energy", "measures", "sampler", "equilibrium", "fekete",
          "ldp", "simplex", "cli")

# Public methods that carry the work a per-layer metric reads, for the
# kernels the workloads use; module-level functions are taken from each
# module's __all__.
METHODS = {
    "spaces": {"Space": ("evaluate_basis",),
               "GreenModel": ("kernel_matrix", "rows_at_nodes")},
    "energy": {"EnergyModel": ("node_matrix",),
               "FiniteEnergyModel": ("w_counts", "w_mean"),
               "LogChordKernel": ("pairwise",),
               "GreenKernel": ("pairwise",)},
}


class SpanRecorder:
    """In-memory spans with parent links, plus named counters."""

    def __init__(self):
        self.enabled = True
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.counters = defaultdict(float)
        self._open = []

    def open(self, name):
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(math.nan)
        self._open.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index):
        self.ends[index] = time.perf_counter()
        if self._open.pop() != index:
            raise RuntimeError(f"span {self.names[index]!r} closed out of order")

    def count(self, name, amount=1):
        self.counters[name] += amount

    def self_times(self):
        """Per span: duration minus the durations of its direct children."""
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[index] - self.starts[index]
        return own

    def roots(self):
        """Index of each span's outermost ancestor."""
        root = []
        for index, parent in enumerate(self.parents):
            root.append(index if parent < 0 else root[parent])
        return root

    def write(self, path):
        """Write every span as a gzipped TSV row: index, parent, name,
        start, end, self time (seconds)."""
        own = self.self_times()
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index\tparent\tname\tstart\tend\tself\n")
            for index, name in enumerate(self.names):
                fh.write(f"{index}\t{self.parents[index]}\t{name}\t"
                         f"{self.starts[index]!r}\t{self.ends[index]!r}\t"
                         f"{own[index]!r}\n")


def _timed(recorder, name, fn, args, kwargs):
    index = recorder.open(name)
    try:
        return fn(*args, **kwargs)
    finally:
        recorder.close(index)


def _wrap(recorder, name, fn, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.enabled:
            return fn(*args, **kwargs)
        return hook(recorder, name, fn, args, kwargs)
    return wrapper


# -- hooks: counts taken at the same boundaries as the spans ------------------


def _simplex_minimize(recorder, name, fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    objective = bound.arguments["objective"]

    def counted(taus):
        recorder.count("simplex.grid_rows", len(taus))
        return objective(taus)

    bound.arguments["objective"] = counted
    return _timed(recorder, name, fn, bound.args, bound.kwargs)


def _laplace_verify_finite(recorder, name, fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    result = _timed(recorder, name, fn, args, kwargs)
    m = bound.arguments["space"].n_atoms
    recorder.count("ldp.type_classes", sum(
        math.comb(int(n) + m - 1, m - 1) for n in bound.arguments["n_values"]))
    return result


def _chain_family(model):
    kernel = getattr(model, "kernel", None)
    if kernel is None:
        return "finite"
    return {"GreenKernel": "green", "LogChordKernel": "log"}.get(
        type(kernel).__name__, "other")


def _mcmc_run(recorder, name, fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    family = _chain_family(bound.arguments["model"])
    index = recorder.open(name)
    start = time.perf_counter()
    try:
        result = fn(*args, **kwargs)
    finally:
        recorder.close(index)
    rungs = len(bound.arguments.get("ladder") or [1.0])
    recorder.count(f"sampler.{family}_steps", result.steps * rungs)
    recorder.count(f"sampler.{family}_s", time.perf_counter() - start)
    return result


def _minimize_free_energy(recorder, name, fn, args, kwargs):
    result = _timed(recorder, name, fn, args, kwargs)
    recorder.count("equilibrium.iterations", result.iterations)
    return result


def _fekete_minimize(recorder, name, fn, args, kwargs):
    result = _timed(recorder, name, fn, args, kwargs)
    recorder.count("fekete.iterations", result.iterations)
    recorder.count("fekete.restarts", result.restarts)
    recorder.count("fekete.useful_restarts", result.restarts - result.collisions)
    return result


def _build_space(recorder, name, fn, args, kwargs):
    kind = inspect.signature(fn).bind(*args, **kwargs).arguments["kind"]
    return _timed(recorder, f"{name}.{kind}", fn, args, kwargs)


def _node_matrix(recorder, name, fn, args, kwargs):
    model = args[0]
    if getattr(model, "_node_matrix", None) is not None or tracemalloc.is_tracing():
        return _timed(recorder, name, fn, args, kwargs)
    tracemalloc.start()
    try:
        return _timed(recorder, name, fn, args, kwargs)
    finally:
        key = "energy.node_matrix_peak_mb"
        recorder.counters[key] = max(recorder.counters[key],
                                     tracemalloc.get_traced_memory()[1] / 2 ** 20)
        tracemalloc.stop()


HOOKS = {
    "simplex.simplex_minimize": _simplex_minimize,
    "ldp.laplace_verify_finite": _laplace_verify_finite,
    "sampler.mcmc_run": _mcmc_run,
    "equilibrium.minimize_free_energy": _minimize_free_energy,
    "fekete.fekete_minimize": _fekete_minimize,
    "spaces.build_space": _build_space,
    "energy.EnergyModel.node_matrix": _node_matrix,
}


def install(recorder, package):
    """Wrap every public function of the layer modules of ``package`` and the
    methods in METHODS, at every name any loaded ``package`` module bound
    them to."""
    modules = {layer: importlib.import_module(f"{package.__name__}.{layer}")
               for layer in LAYERS}
    binders = [module for key, module in sys.modules.items()
               if key.startswith(package.__name__ + ".")]
    for layer, module in modules.items():
        for attr in getattr(module, "__all__", ()):
            fn = getattr(module, attr)
            if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            name = f"{layer}.{attr}"
            wrapper = _wrap(recorder, name, fn, HOOKS.get(name, _timed))
            # rebind the defining module's name and every name another layer
            # bound to the same function on import
            for other in binders:
                for key, value in list(vars(other).items()):
                    if value is fn:
                        setattr(other, key, wrapper)
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(module, cls_name)
            for method in methods:
                fn = cls.__dict__[method]
                name = f"{layer}.{cls_name}.{method}"
                setattr(cls, method, _wrap(recorder, name, fn, HOOKS.get(name, _timed)))
