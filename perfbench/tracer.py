"""Span tracing of fgo from outside the package.

:func:`install` wraps public module-level functions of the fgo layers
in place. A wrapper replaces the original under every name that points
at it in any fgo module, because the layers import each other's
functions by name (``ownership`` does ``from .grid import resample``),
and a module calls its own functions through its globals. Each call
then records a span: id, parent id, name, start and end. Ids carry the
process id, so spans of pool workers merge with the parent's without
clashes, and self time can be computed per process.

Spans and counters stay in memory until :func:`dump` writes them at the
end of the command. The ``cli.ProcessPoolExecutor`` of ``fgo eval`` is
replaced by :class:`TracedPool`, which runs each task under a fresh
tracer in the worker and merges the worker's spans and counters into
the parent's when the result comes back; the task's root span is
``cli.eval.worker``. Workers must be forked (the pool's default on
Linux before Python 3.14), so that they inherit the wrappers; a worker
started any other way fails its first task.

Two sets of functions are wrapped. The timed commands of tune-small wrap
only ``PROBES``: ``grid_search_weights``, whose objective calls become
``POINT`` spans, the weight points. The traced run wraps every public
function of ``LAYERS``, and replaces the pool. Other timed commands run
the bare program: nothing is installed.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import itertools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter

import numpy as np

LAYERS = ("channels", "filters", "grid", "ownership", "cues", "pipeline", "evaluation", "io", "cli")
PROBES = ("evaluation.grid_search_weights",)
POINT = "evaluation.grid_search_weights.point"
WORKER = "cli.eval.worker"

_ID_BITS = 32
# one sequence per process: a worker runs many tasks, each with its own tracer
_SPAN_NUMBERS = itertools.count(1)


class Tracer:
    """Spans and counters of one process, or of one pool task."""

    def __init__(self, parent: int = 0):
        self.pid = os.getpid()
        self.stack = [parent] if parent else []
        self.depth = {}
        # (id, parent id, name, start, end, outermost of its name)
        self.spans = []
        self.counters = {}  # sums
        self.maxima = {}
        self.distinct = {}  # sets of distinct values

    def current(self) -> int:
        return self.stack[-1] if self.stack else 0

    def open(self, name: str):
        span_id = (self.pid << _ID_BITS) | next(_SPAN_NUMBERS)
        parent = self.current()
        self.stack.append(span_id)
        depth = self.depth.get(name, 0)
        self.depth[name] = depth + 1
        return span_id, parent, name, depth == 0, perf_counter()

    def close(self, token) -> None:
        end = perf_counter()
        span_id, parent, name, outermost, start = token
        self.stack.pop()
        self.depth[name] -= 1
        self.spans.append((span_id, parent, name, start, end, outermost))

    def add(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def peak(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def note_distinct(self, key: str, value) -> None:
        self.distinct.setdefault(key, set()).add(value)

    def export(self) -> dict:
        return {
            "spans": self.spans,
            "counters": self.counters,
            "maxima": self.maxima,
            "distinct": {k: sorted(v) for k, v in self.distinct.items()},
        }

    def merge(self, exported: dict) -> None:
        self.spans.extend(exported["spans"])
        for key, amount in exported["counters"].items():
            self.add(key, amount)
        for key, value in exported["maxima"].items():
            self.peak(key, value)
        for key, values in exported["distinct"].items():
            self.distinct.setdefault(key, set()).update(values)


_TRACER: Tracer | None = None


# ----------------------------------------------------------------------
# counters taken at the layer boundaries
# ----------------------------------------------------------------------

def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_correlate(tracer, args, kwargs, result) -> None:
    rows, cols = np.shape(_arg(args, kwargs, 0, "input_map"))
    k_rows, k_cols = np.shape(_arg(args, kwargs, 1, "kernel"))
    # the direct sum, one multiply and one add per kernel cell and output
    tracer.add("grid.correlate2d.mflop_computed", 2.0 * rows * cols * k_rows * k_cols / 1e6)
    # input, kernel and output, 8 bytes a value
    tracer.add("grid.correlate2d.mib_computed", (2 * rows * cols + k_rows * k_cols) * 8 / 2**20)


def _count_von_mises(tracer, args, kwargs, result) -> None:
    tracer.note_distinct("filters.make_von_mises.kernels", repr(_arg(args, kwargs, 0, "params")))


def _count_junctions(tracer, args, kwargs, result) -> None:
    tracer.add("cues.junctions", len(result))


def _nbytes(value) -> int:
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (list, tuple)):
        return sum(_nbytes(v) for v in value)
    return 0


def _count_prepared(tracer, args, kwargs, result) -> None:
    mib = sum(_nbytes(getattr(result, f.name)) for f in dataclasses.fields(result)) / 2**20
    tracer.peak("pipeline.prepared_mib", mib)


def _count_fm1(tracer, args, kwargs, result) -> None:
    tracer.add("io.write_fm1.mib", os.path.getsize(_arg(args, kwargs, 0, "path")) / 2**20)


def _count_points(tracer, args, kwargs, result) -> None:
    tracer.add("evaluation.grid_search_weights.points", len(result[2]))


OBSERVERS = {
    "grid.correlate2d": _count_correlate,
    "filters.make_von_mises": _count_von_mises,
    "cues.detect_t_junctions": _count_junctions,
    "pipeline.prepare_components": _count_prepared,
    "io.write_fm1": _count_fm1,
    "evaluation.grid_search_weights": _count_points,
}


# ----------------------------------------------------------------------
# wrapping
# ----------------------------------------------------------------------

def _traced(name: str, fn):
    observe = OBSERVERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer = _TRACER
        token = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(token)
        if observe is not None:
            observe(tracer, args, kwargs, result)
        return result

    return wrapper


def _traced_search(fn):
    """grid_search_weights with each objective call recorded as a point."""

    @functools.wraps(fn)
    def wrapper(objective, *args, **kwargs):
        def point(weights):
            tracer = _TRACER
            token = tracer.open(POINT)
            try:
                return objective(weights)
            finally:
                tracer.close(token)

        return fn(point, *args, **kwargs)

    return wrapper


def _public_functions(module):
    for attr, value in vars(module).items():
        if (
            not attr.startswith("_")
            and inspect.isfunction(value)
            and value.__module__ == module.__name__
        ):
            yield attr, value


class TracedPool(ProcessPoolExecutor):
    """A process pool that brings each task's spans back to the parent."""

    def __init__(self, max_workers=None, *args, **kwargs):
        super().__init__(max_workers, *args, **kwargs)
        self.jobs = max_workers or os.cpu_count()

    def map(self, fn, *iterables, timeout=None, chunksize=1):
        tracer = _TRACER
        tracer.peak("cli.eval.jobs", float(self.jobs))
        calls = [(fn, args, tracer.current()) for args in zip(*iterables)]
        results = super().map(_pool_task, calls, timeout=timeout, chunksize=chunksize)

        def merged():
            for result, exported in results:
                tracer.merge(exported)
                yield result

        return merged()


def _pool_task(call):
    # runs in a forked worker, which inherits the wrapped functions
    fn, args, parent = call
    global _TRACER
    outer = _TRACER
    _TRACER = Tracer(parent)
    try:
        token = _TRACER.open(WORKER)
        try:
            result = fn(*args)
        finally:
            _TRACER.close(token)
        return result, _TRACER.export()
    finally:
        _TRACER = outer


def install(names=None) -> Tracer:
    """Wrap the named functions (``layer.function``), or all of them.

    Wrapping all of them also replaces the pool of ``fgo eval`` with
    :class:`TracedPool`. Returns the process tracer. Functions a layer
    no longer has are skipped, so the benchmark keeps running as the
    package changes.
    """
    global _TRACER
    from fgo import cli  # noqa: F401  (imports every layer)

    modules = {layer: sys.modules[f"fgo.{layer}"] for layer in LAYERS}
    wrappers = {}
    for layer, module in modules.items():
        for attr, fn in _public_functions(module):
            name = f"{layer}.{attr}"
            if names is None or name in names:
                wrapped = _traced(name, fn)
                if name == "evaluation.grid_search_weights":
                    wrapped = _traced_search(wrapped)
                wrappers[id(fn)] = (fn, wrapped)
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").partition(".")[0] == "fgo":
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
    if names is None:
        modules["cli"].ProcessPoolExecutor = TracedPool
    _TRACER = Tracer()
    return _TRACER


# ----------------------------------------------------------------------
# reading spans back
# ----------------------------------------------------------------------

def weight_points(spans) -> list:
    """Durations of the ``POINT`` spans: one per objective call of
    ``grid_search_weights``, that is one weight triple finalized and
    scored over the train images. Empty for commands other than
    ``fgo tune``."""
    return [end - start for _, _, name, start, end, _ in spans if name == POINT]


def span_stats(spans) -> dict:
    """Per span name: calls, busy time (outermost spans) and self time.

    Self time is a span's duration less that of its children in the same
    process; a pool task's root span runs in another process beside its
    parent, not inside it.
    """
    child_time = {}
    for span_id, parent, _, start, end, _ in spans:
        if parent >> _ID_BITS == span_id >> _ID_BITS:
            child_time[parent] = child_time.get(parent, 0.0) + end - start
    stats = {}
    for span_id, _, name, start, end, outermost in spans:
        entry = stats.setdefault(name, {"calls": 0, "busy": 0.0, "self": 0.0})
        entry["calls"] += 1
        entry["busy"] += (end - start) if outermost else 0.0
        entry["self"] += end - start - child_time.get(span_id, 0.0)
    return stats


def dump(path) -> None:
    """Write the process tracer's spans and counters as JSON."""
    exported = _TRACER.export()
    with open(path, "w") as fh:
        json.dump(exported, fh, separators=(",", ":"))
