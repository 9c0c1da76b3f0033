"""Outside-in tracer: wraps the public functions of each layer module.

Nothing in the library is edited.  ``Tracer.install`` replaces every
public function of the layer modules (plus the extractor ``__call__``
methods and the numpy.linalg eigen/SVD entry points) with a wrapper that
records one span per call: name, start, end, parent and whether the
parent lives on another thread.  Because ``harness.checks`` and
``harness.scenarios`` import functions by name, and ``harness.checks``
dispatches through its ``CHECKS`` dict, each wrapper is rebound in every
``extraction_lab`` module namespace and module-level dict that held the
original.  ``uninstall`` puts the originals back.

Spans are kept in per-thread arrays and aggregated after the pass.  A
span's self time is its duration minus the part of its interval that its
child spans cover.  A span opened on a worker thread with nothing open on
that thread takes as parent the innermost span open on the main thread
(``run_suite`` while it waits on its thread pool), so the pool's work is
covered time of ``run_suite`` and its waiting is not counted as self time.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import sys
import threading
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYER_MODULES = (
    "gf2",
    "extractors",
    "operators",
    "cq_states",
    "entropies",
    "xor_analysis",
    "harness.scenarios",
    "harness.bounds",
    "harness.checks",
    "harness.suite",
)
METHODS = (
    ("extractors", "ExtractorSpec", "__call__"),
    ("extractors", "ComponentExtractor", "__call__"),
)
LINALG = ("eigh", "eigvalsh", "svd")
SOLVERS = ("h_min_cond", "h2_cond")
PACKAGE = "extraction_lab"


class _ThreadState(threading.local):
    def __init__(self):
        self.stack = []
        self.recs = None


class _Records:
    """Span records of one thread, appended when each span ends."""

    def __init__(self):
        self.sid = array("q")
        self.parent = array("q")
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.cross = array("b")
        self.counts = defaultdict(float)   # observer counters, summed
        self.maxima = defaultdict(float)   # observer maxima


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._ids = itertools.count()
        self._local = _ThreadState()
        self._main_stack = self._local.stack
        self._all_records: list[_Records] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._dict_patches: list[tuple[dict, object, object]] = []

    # -- recording ---------------------------------------------------------

    def _records(self) -> _Records:
        local = self._local
        if local.recs is None:
            local.recs = _Records()
            with self._lock:
                self._all_records.append(local.recs)
        return local.recs

    def _name_id(self, name: str, layer: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return self._name_ids[name]

    def _open(self):
        stack = self._local.stack
        cross = 0
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if (main and stack is not main) else -1
            cross = 1 if parent >= 0 else 0
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent, cross

    def _close(self, sid, parent, cross, name_id, t0, t1):
        self._local.stack.pop()
        recs = self._records()
        recs.sid.append(sid)
        recs.parent.append(parent)
        recs.name.append(name_id)
        recs.start.append(t0)
        recs.end.append(t1)
        recs.cross.append(cross)

    @contextlib.contextmanager
    def span(self, name: str, layer: str = "bench"):
        """Record one span around a block of the benchmark's own code."""
        name_id = self._name_id(name, layer)
        ids = self._open()
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(*ids, name_id, t0, perf_counter())

    def _wrap(self, fn, name: str, layer: str, observe=None):
        name_id = self._name_id(name, layer)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent, cross = open_()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(sid, parent, cross, name_id, t0, perf_counter())
            if observe is not None:
                observe(self._records(), args, kwargs, result)
            return result

        return wrapper

    # -- observers: counts computed from arguments and results --------------

    @staticmethod
    def _observe_linalg(kind: str):
        def observe(recs, args, kwargs, result):
            shape = np.shape(args[0])
            batch = int(np.prod(shape[:-2])) if len(shape) > 2 else 1
            rows, cols = (shape[-2], shape[-1]) if len(shape) >= 2 else (1, 1)
            recs.counts[f"{kind}_calls"] += 1
            recs.counts[f"{kind}_dim3"] += batch * rows * cols * min(rows, cols)
        return observe

    @staticmethod
    def _observe_solver(name: str, default_iters: int, starts: int):
        def observe(recs, args, kwargs, result):
            iters = kwargs.get("iters", args[1] if len(args) > 1 else default_iters)
            c = recs.counts
            c[f"{name}.iterations"] += result.iterations
            c[f"{name}.solver_calls"] += result.iterations > 0
            c[f"{name}.cap_hits"] += result.iterations >= starts * iters
            c[f"{name}.unconverged"] += not result.converged
            m = recs.maxima
            m[f"{name}.max_gap_bits"] = max(m[f"{name}.max_gap_bits"], float(result.gap))
        return observe

    @staticmethod
    def _observe_blocks(key: str, count):
        def observe(recs, args, kwargs, result):
            recs.counts[key] += count(args, kwargs)
        return observe

    def _observer_for(self, layer: str, fname: str, fn):
        if layer == "entropies" and fname in SOLVERS:
            default = inspect.signature(fn).parameters["iters"].default
            # h2_cond runs its fixed point from three starts; a call counts
            # as a cap hit only when every start ran to the cap.
            starts = 3 if fname == "h2_cond" else 1
            return self._observe_solver(f"entropies.{fname}", default, starts)
        if layer == "cq_states" and fname == "extractor_output_state":
            def pairs(args, kwargs):
                s1 = args[1] if len(args) > 1 else kwargs["s1"]
                s2 = args[2] if len(args) > 2 else kwargs["s2"]
                return len(s1.blocks) * len(s2.blocks)
            return self._observe_blocks("cq_states.extractor_output_state.blocks_in", pairs)
        if layer == "cq_states" and fname == "distance_to_uniform":
            def blocks(args, kwargs):
                state = args[0] if args else kwargs["state"]
                return len(state.blocks)
            return self._observe_blocks("cq_states.distance_to_uniform.blocks", blocks)
        return None

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        import importlib

        originals: dict[int, object] = {}
        for layer in LAYER_MODULES:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for fname, obj in sorted(vars(mod).items()):
                if (fname.startswith("_") or inspect.isclass(obj) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                wrapper = self._wrap(obj, f"{layer}.{fname}", layer,
                                     self._observer_for(layer, fname, obj))
                originals[id(obj)] = wrapper
        for layer, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"{PACKAGE}.{layer}"), cls_name)
            fn = cls.__dict__[meth]
            self._patches.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(fn, f"{layer}.{cls_name}.{meth}", layer))
        for fname in LINALG:
            fn = getattr(np.linalg, fname)
            kind = "svd" if fname == "svd" else "eig"
            self._patches.append((np.linalg, fname, fn))
            setattr(np.linalg, fname, self._wrap(fn, f"numpy.linalg.{fname}", "numpy.linalg",
                                                 self._observe_linalg(kind)))
        # Rebind every reference to a wrapped function inside the package.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in originals:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, originals[id(val)])
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        if id(item) in originals:
                            self._dict_patches.append((val, key, item))
                            val[key] = originals[id(item)]

    def uninstall(self) -> None:
        for obj, attr, val in reversed(self._patches):
            setattr(obj, attr, val)
        for dct, key, val in reversed(self._dict_patches):
            dct[key] = val
        self._patches.clear()
        self._dict_patches.clear()

    # -- aggregation ---------------------------------------------------------

    def spans(self) -> dict:
        """All spans as arrays indexed by span id."""
        recs = self._all_records
        sid = np.concatenate([np.frombuffer(r.sid, dtype=np.int64) for r in recs])
        order = np.argsort(sid)

        def cat(field, dtype):
            return np.concatenate([np.frombuffer(getattr(r, field), dtype=dtype)
                                   for r in recs])[order]

        return {
            "sid": sid[order],
            "parent": cat("parent", np.int64),
            "name": cat("name", np.dtype("l")),
            "start": cat("start", np.float64),
            "end": cat("end", np.float64),
            "cross": cat("cross", np.int8),
        }

    def counters(self) -> tuple[dict, dict]:
        counts: dict = defaultdict(float)
        maxima: dict = defaultdict(float)
        for r in self._all_records:
            for k, v in r.counts.items():
                counts[k] += v
            for k, v in r.maxima.items():
                maxima[k] = max(maxima[k], v)
        return dict(counts), dict(maxima)


def self_times(sp: dict) -> np.ndarray:
    """Duration minus the union of child intervals, per span."""
    n = len(sp["sid"])
    if not np.array_equal(sp["sid"], np.arange(n)):
        raise RuntimeError("span ids are not contiguous; a span was left open")
    dur = sp["end"] - sp["start"]
    parent, cross = sp["parent"], sp["cross"]
    # Children on the parent's own thread run one after another, so their
    # durations add up.  A parent with children on other threads (run_suite
    # with a pool) gets the union of all its children's intervals instead.
    has_parent = parent >= 0
    pooled = np.unique(parent[has_parent & (cross == 1)])
    in_pooled = has_parent & np.isin(parent, pooled)
    serial = has_parent & ~in_pooled
    covered = np.bincount(parent[serial], weights=dur[serial], minlength=n)
    intervals: dict[int, list] = defaultdict(list)
    for i in np.flatnonzero(in_pooled):
        p = int(parent[i])
        lo = max(sp["start"][i], sp["start"][p])
        hi = min(sp["end"][i], sp["end"][p])
        if hi > lo:
            intervals[p].append((lo, hi))
    for p, ivs in intervals.items():
        ivs.sort()
        total, cur_lo, cur_hi = 0.0, ivs[0][0], ivs[0][1]
        for lo, hi in ivs[1:]:
            if lo > cur_hi:
                total += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        covered[p] += total + (cur_hi - cur_lo)
    return dur - covered
