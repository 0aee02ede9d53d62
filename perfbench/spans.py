"""Span recording for the traced run, from outside the program.

:func:`installed` replaces the public names that ``cohlab.experiments``
calls into with timing wrappers and puts the originals back on exit.  It
wraps only the names that exist, so a refactor that removes one leaves
its layer at zero calls instead of failing the run.  Nothing under
``src/`` is edited.

Each span splits its parent's time: while a child runs, the parent's
current self segment is closed, and reopened when the child returns.  Self
segments are kept per thread in compact arrays and attributed to layers
after the run by :meth:`Tracer.attribute`.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import threading
from array import array
from time import perf_counter

import numpy as np

import cohlab.analytics
import cohlab.cli
import cohlab.experiments
import cohlab.measures
import cohlab.sampler
import cohlab.streams

# Layers whose spans come from the campaign functions and the CLI around them;
# every other layer is a leaf that the campaign calls into.
CLI, EXPERIMENTS = "cli", "experiments"

KERNELS = {
    "entropy_from_probs": "measures.entropy",
    "purity_from_probs": "measures.purity",
    "trdist_mm_from_probs": "measures.trdist",
    "l1_from_probs": "measures.l1",
}
CAMPAIGNS = ("run_concentration", "run_subspace_floor")
# Gaussian draws today; exponentials for a Dirichlet sampler of the diagonals
DRAW_METHODS = ("standard_normal", "standard_exponential")

# Modules whose globals may hold a reference to a wrapped function, directly
# or as a value of a module-level dict (kernel and suite tables).
_HOLDERS = (
    cohlab.streams,
    cohlab.sampler,
    cohlab.measures,
    cohlab.analytics,
    cohlab.experiments,
    cohlab.cli,
)


class _ThreadLog:
    """Spans and counts of one thread; only that thread writes to it."""

    def __init__(self) -> None:
        # open spans: layer ids, and where each one's current self segment began
        self.stack_ids: list[int] = []
        self.stack_starts: list[float] = []
        self.starts = array("d")
        self.ends = array("d")
        self.layer_ids = array("h")
        self.calls: dict[int, int] = {}
        self.counts: dict[str, int] = {}
        self.chunk_bytes: list[int] = []


class Tracer:
    """Spans and counts of one traced iteration, from every thread that calls in."""

    def __init__(self) -> None:
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []
        self._lock = threading.Lock()

    def layer_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.layers)
            self.layers.append(name)
        return self._ids[name]

    def log(self) -> _ThreadLog:
        try:
            return self._local.log
        except AttributeError:
            log = self._local.log = _ThreadLog()
            with self._lock:
                self._logs.append(log)
            return log

    def call(self, lid: int, fn, args, kwargs, count_key: str | None = None):
        """Call ``fn`` inside a span; with ``count_key``, add the result's size to that count."""
        log = self.log()
        ids, starts = log.stack_ids, log.stack_starts
        now = perf_counter()
        if ids:
            log.starts.append(starts[-1])
            log.ends.append(now)
            log.layer_ids.append(ids[-1])
        ids.append(lid)
        starts.append(now)
        try:
            result = fn(*args, **kwargs)
        finally:
            now = perf_counter()
            ids.pop()
            log.starts.append(starts.pop())
            log.ends.append(now)
            log.layer_ids.append(lid)
            log.calls[lid] = log.calls.get(lid, 0) + 1
            if ids:
                starts[-1] = now
        if count_key is not None:
            log.counts[count_key] = log.counts.get(count_key, 0) + np.size(result)
        return result

    def count(self, key: str, n: int) -> None:
        counts = self.log().counts
        counts[key] = counts.get(key, 0) + n

    def chunk(self, rows: int, complex_per_row: int) -> None:
        """One batched chunk; its bytes are computed as rows x 2 x row length x 8."""
        log = self.log()
        log.counts["experiments.chunks"] = log.counts.get("experiments.chunks", 0) + 1
        log.chunk_bytes.append(rows * complex_per_row * 16)

    def wrap(self, fn, layer: str, after=None):
        lid = self.layer_id(layer)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            result = self.call(lid, fn, args, kwargs)
            return result if after is None else after(args, result)

        return timed

    def totals(self) -> tuple[dict[str, int], dict[str, int], int]:
        calls: dict[str, int] = {}
        counts: dict[str, int] = {}
        peak_chunk = 0
        for log in self._logs:
            for lid, n in log.calls.items():
                calls[self.layers[lid]] = calls.get(self.layers[lid], 0) + n
            for key, n in log.counts.items():
                counts[key] = counts.get(key, 0) + n
            peak_chunk = max([peak_chunk, *log.chunk_bytes])
        return calls, counts, peak_chunk

    def attribute(self) -> tuple[dict[str, float], int]:
        """Wall seconds per layer, and the peak number of threads in leaf layers.

        At each instant the leaf-layer segments open on any thread share it
        equally; an instant with none goes to the campaign or CLI segment
        open on the main thread.  The layer times therefore sum to the wall
        time the CLI spans cover, with threads or without.
        """
        starts = np.concatenate([np.frombuffer(log.starts) for log in self._logs])
        ends = np.concatenate([np.frombuffer(log.ends) for log in self._logs])
        ids = np.concatenate([np.frombuffer(log.layer_ids, dtype=np.int16) for log in self._logs])
        n = starts.size
        times = np.concatenate([starts, ends])
        order = np.argsort(times, kind="stable")  # a start sorts before its own end
        leaf = np.array([name not in (CLI, EXPERIMENTS) for name in self.layers])[ids]
        signs = np.concatenate([leaf, leaf]).astype(np.int64)
        signs[n:] *= -1
        open_leaves = np.cumsum(signs[order])[:-1]
        dt = np.diff(times[order])
        shared = np.divide(dt, open_leaves, out=np.zeros_like(dt), where=open_leaves > 0)
        idle = np.where(open_leaves == 0, dt, 0.0)
        pos = np.empty(2 * n, dtype=np.intp)
        pos[order] = np.arange(2 * n)

        def over_segments(rate: np.ndarray) -> np.ndarray:
            cumulative = np.concatenate([[0.0], np.cumsum(rate)])
            return cumulative[pos[n:]] - cumulative[pos[:n]]

        per_segment = np.where(leaf, over_segments(shared), over_segments(idle))
        seconds = np.bincount(ids, weights=per_segment, minlength=len(self.layers))
        # ties between a parent's end and a child's start open no real interval
        threads = int(open_leaves[dt > 0].max(initial=0))
        return dict(zip(self.layers, seconds.tolist())), threads


def _wrapped_targets(tracer: Tracer) -> list[tuple[object, object]]:
    """(original, wrapper) pairs for every traced name that exists."""

    proxy = _proxy_class(tracer)

    def keyed(args, gen):
        return proxy(gen)

    def kernel_after(layer):
        def after(args, result):
            shape = np.shape(args[0])
            tracer.count(f"{layer}.elements", int(np.prod(shape)))
            if len(shape) >= 2:
                tracer.chunk(int(np.prod(shape[:-1])), shape[-1])
            return result

        return after

    def qr_after(args, result):
        matrix = args[0]
        shape = np.shape(matrix)
        n = int(np.prod(shape[:-2])) if len(shape) > 2 else 1
        tracer.count("sampler.qr_matrices", n)
        if len(shape) > 2:
            tracer.chunk(n, int(np.prod(shape[-2:])))
        return result

    pairs = []

    def add(module, name, layer, after=None):
        fn = getattr(module, name, None)
        if callable(fn):
            pairs.append((fn, tracer.wrap(fn, layer, after)))

    add(cohlab.streams, "new_generator", "streams.new_generator", keyed)
    add(cohlab.sampler, "positive_qr", "sampler.positive_qr", qr_after)
    add(cohlab.sampler, "sample_random_subspace", "sampler.subspace")
    for name, layer in KERNELS.items():
        add(cohlab.measures, name, layer, kernel_after(layer))
    for name, fn in vars(cohlab.analytics).items():
        if inspect.isfunction(fn) and fn.__module__ == cohlab.analytics.__name__ and not name.startswith("_"):
            add(cohlab.analytics, name, "analytics")
    for name in CAMPAIGNS:
        add(cohlab.experiments, name, EXPERIMENTS)
    return pairs


def _proxy_class(tracer: Tracer) -> type:
    """A Generator stand-in whose draw methods record ``sampler.draw`` spans."""
    lid = tracer.layer_id("sampler.draw")

    def draw_method(name):
        def method(self, *args, **kwargs):
            return tracer.call(lid, getattr(self._gen, name), args, kwargs, "sampler.variates_drawn")

        method.__name__ = name
        return method

    class TimedGenerator:
        __slots__ = ("_gen",)

        def __init__(self, gen):
            self._gen = gen

        def __getattr__(self, name):
            return getattr(self._gen, name)

    for name in DRAW_METHODS:
        setattr(TimedGenerator, name, draw_method(name))
    return TimedGenerator


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Swap every reference to a traced function for its wrapper, then restore."""
    swap = {id(orig): wrapper for orig, wrapper in _wrapped_targets(tracer)}
    undo: list[tuple[dict, str, object]] = []
    for module in _HOLDERS:
        for space in [vars(module)] + [v for v in vars(module).values() if type(v) is dict]:
            for key, value in list(space.items()):
                wrapper = swap.get(id(value))
                if wrapper is not None:
                    undo.append((space, key, value))
                    space[key] = wrapper
    try:
        yield
    finally:
        for space, key, value in reversed(undo):
            space[key] = value
