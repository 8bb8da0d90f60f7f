"""Span tracer for one icelab CLI process, installed from outside the library.

Usage: ``python3 perfbench/tracer.py TRACE_OUT ICELAB_ARGS...``

The tracer wraps every public function of the icelab modules ``words``,
``iceberg``, ``dynamics``, ``correlation``, ``spectral``, ``rank`` and ``cli``
at every module binding that refers to it (``from .words import build_word``
copies included), plus the classmethod ``ProjectionChain.build``, the property
``Word.text``, the private evaluators and writers that carry the counters, and
``icelab.cli.ThreadPoolExecutor`` (the pool span and one span per task).  It
then runs ``icelab.cli.run(ICELAB_ARGS)`` as the root span and writes the spans
and counters to ``TRACE_OUT`` as JSON.  The library itself is not modified.

A span is ``[name, layer, thread, start, end, parent, self_s, id]``; ``parent``
is the id of the enclosing span on the same thread (``-1`` for a thread's top
span) and ``self_s`` is the span's duration minus its children's durations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from collections import Counter

LAYERS = ("words", "iceberg", "dynamics", "correlation", "spectral", "rank", "cli")

# Private functions wrapped because their counters are per-layer metrics.
PRIVATE = {
    ("cli", "_write_csv"),
    ("cli", "_write_json"),
    ("spectral", "_eval_integer_circle"),
    ("spectral", "_eval_line"),
}

POOL_SPAN = "cli.pool"
TASK_SPAN = "cli.task"
ROOT_SPAN = "cli.run"
WRITE_SPANS = ("cli._write_csv", "cli._write_json")


class Tracer:
    """In-memory span recorder with per-thread stacks and named counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.level_symbols: dict[tuple, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()  # counters are updated from pool workers too

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, layer: str) -> list:
        stack = self._stack()
        parent = stack[-1][0] if stack else -1
        # [id, name, layer, thread, parent, start, children_s]
        rec = [next(self._ids), name, layer, threading.get_ident(), parent, 0.0, 0.0]
        stack.append(rec)
        rec[5] = time.perf_counter()
        return rec

    def close(self, rec: list) -> None:
        end = time.perf_counter()
        stack = self._stack()
        if not stack or stack[-1] is not rec:
            raise RuntimeError(f"span {rec[1]} closed out of order")
        stack.pop()
        duration = end - rec[5]
        if stack:
            stack[-1][6] += duration
        self.spans.append([rec[1], rec[2], rec[3], rec[5], end, rec[4], duration - rec[6], rec[0]])

    def wrap(self, layer: str, name: str, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(rec)
            if count is not None:
                with tracer._lock:
                    count(tracer, args, kwargs, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        payload = {
            "main_thread": threading.main_thread().ident,
            "spans": self.spans,
            "counters": dict(self.counters),
            "distinct_level_symbols": sum(self.level_symbols.values()),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


# ---------------------------------------------------------------------------
# Counters recorded at the layer boundaries
# ---------------------------------------------------------------------------


def _count_build_word(tracer: Tracer, args, kwargs, words) -> None:
    schedule = args[0] if args else kwargs["schedule"]
    key = (hash(schedule.stages), schedule.seed_word.symbols.tobytes())
    for level, word in enumerate(words[1:], start=1):
        tracer.counters["words.symbols_built"] += word.h
        tracer.level_symbols[key + (level,)] = word.h


def _count_text(tracer: Tracer, args, kwargs, text) -> None:
    tracer.counters["words.text_symbols"] += len(text)


def _count_coords(tracer: Tracer, args, kwargs, coords) -> None:
    tracer.counters["dynamics.coords_computed"] += int(coords.size)
    tracer.counters["dynamics.bytes_computed"] += int(coords.nbytes)


def _count_cyclic(tracer: Tracer, args, kwargs, series) -> None:
    h = series.h
    if kwargs.get("method", "fft") == "fft":
        tracer.counters["correlation.fft_points"] += 3 * h  # two forward, one inverse
    else:
        tracer.counters["correlation.direct_points"] += h * h


def _count_lags(tracer: Tracer, args, kwargs, values) -> None:
    f = args[0] if args else kwargs["f"]
    tracer.counters["correlation.direct_points"] += int(values.size) * f.h


def _count_grid(tracer: Tracer, args, kwargs, values) -> None:
    tracer.counters["spectral.grid_points"] += int(values.size)


def _count_merit(tracer: Tracer, args, kwargs, value) -> None:
    n = len(args[0] if args else kwargs["signs"])
    tracer.counters["spectral.merit_ops"] += n * n


def _count_uniformity(tracer: Tracer, args, kwargs, value) -> None:
    ib = args[0] if args else kwargs["ib"]
    tracer.counters["iceberg.exact_terms"] += len(ib.counts)


def _count_jump_uniformity(tracer: Tracer, args, kwargs, value) -> None:
    jm = args[0] if args else kwargs["jm"]
    tracer.counters["iceberg.exact_terms"] += len(jm.cells)


def _count_sweep(tracer: Tracer, args, kwargs, cert) -> None:
    ib = args[0] if args else kwargs["ib"]
    m = len(ib.counts)  # rotation 0 maps to class h, so classes and values biject
    tracer.counters["rank.sweep_cells"] += m * m
    tracer.counters["rank.bytes_computed"] += 3 * 8 * m * m  # three int64 m x m arrays


def _count_csv(tracer: Tracer, args, kwargs, result) -> None:
    path = args[0] if args else kwargs["path"]
    rows = args[2] if len(args) > 2 else kwargs["rows"]
    tracer.counters["cli.rows_written"] += len(rows)
    tracer.counters["cli.write_bytes"] += os.path.getsize(path)


def _count_json(tracer: Tracer, args, kwargs, result) -> None:
    path = args[0] if args else kwargs["path"]
    tracer.counters["cli.write_bytes"] += os.path.getsize(path)


COUNTERS = {
    ("words", "build_word"): _count_build_word,
    ("dynamics", "project_positions"): _count_coords,
    ("dynamics", "project_all"): _count_coords,
    ("correlation", "cyclic_correlation"): _count_cyclic,
    ("correlation", "correlation_at_lags"): _count_lags,
    ("spectral", "_eval_integer_circle"): _count_grid,
    ("spectral", "_eval_line"): _count_grid,
    ("spectral", "merit_factor"): _count_merit,
    ("iceberg", "uniformity_deviation"): _count_uniformity,
    ("iceberg", "jump_uniformity_deviation"): _count_jump_uniformity,
    ("rank", "best_subtower_rectangle"): _count_sweep,
    ("cli", "_write_csv"): _count_csv,
    ("cli", "_write_json"): _count_json,
}


# ---------------------------------------------------------------------------
# Installation at every binding
# ---------------------------------------------------------------------------


def _traced_pool_class(tracer: Tracer, base):
    class TracedThreadPoolExecutor(base):
        def __enter__(self):
            self._span = tracer.open(POOL_SPAN, "cli")
            with tracer._lock:
                tracer.counters["cli.pool_threads"] = self._max_workers
            return super().__enter__()

        def __exit__(self, exc_type, exc, tb):
            try:
                return super().__exit__(exc_type, exc, tb)
            finally:
                tracer.close(self._span)

        def submit(self, fn, /, *args, **kwargs):
            return super().submit(tracer.wrap("cli", TASK_SPAN, fn), *args, **kwargs)

    return TracedThreadPoolExecutor


def install(tracer: Tracer) -> None:
    """Wrap the layer functions at every binding of each of them."""
    package = importlib.import_module("icelab")
    modules = {layer: importlib.import_module(f"icelab.{layer}") for layer in LAYERS}

    wrappers: dict = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            if attr.startswith("_") and (layer, attr) not in PRIVATE:
                continue
            wrappers[obj] = tracer.wrap(layer, f"{layer}.{attr}", obj, COUNTERS.get((layer, attr)))

    every_module = [package, *(m for name, m in sys.modules.items()
                               if name.startswith("icelab.") and m is not None)]
    for mod in every_module:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])

    words, dynamics, cli = modules["words"], modules["dynamics"], modules["cli"]
    build = dynamics.ProjectionChain.__dict__["build"].__func__
    dynamics.ProjectionChain.build = classmethod(
        tracer.wrap("dynamics", "dynamics.ProjectionChain.build", build))
    text = words.Word.__dict__["text"].fget
    words.Word.text = property(tracer.wrap("words", "words.Word.text", text, _count_text))
    cli.ThreadPoolExecutor = _traced_pool_class(tracer, cli.ThreadPoolExecutor)

    _verify_installed(every_module, wrappers)


def _verify_installed(modules, wrappers: dict) -> None:
    """Refuse to trace if any module still binds an unwrapped layer function."""
    for mod in modules:
        for attr, obj in vars(mod).items():
            values = obj.values() if isinstance(obj, dict) else (obj,)
            for value in values:
                if inspect.isfunction(value) and value in wrappers:
                    raise RuntimeError(f"{mod.__name__}.{attr} still binds an unwrapped function")


# ---------------------------------------------------------------------------
# Summary of one traced command
# ---------------------------------------------------------------------------


def summarise(doc: dict) -> dict:
    """Per-layer self times, calls and counters of one traced command.

    Self time is taken per thread.  ``problems`` lists every way the spans
    fail to partition the root span: a recorded self time that is not the
    duration minus the children, a main thread whose self times do not add
    up to the single ``cli.run`` root, a span outside the root, or worker
    work that is not inside a pool task.
    """
    spans, main = doc["spans"], doc["main_thread"]
    problems: list[str] = []
    children: dict[int, float] = {}
    for name, layer, thread, start, end, parent, self_s, span_id in spans:
        if parent >= 0:
            children[parent] = children.get(parent, 0.0) + (end - start)
    for name, layer, thread, start, end, parent, self_s, span_id in spans:
        if abs(end - start - children.get(span_id, 0.0) - self_s) > 1e-9:
            problems.append(f"{name}: self time is not its duration minus its children")

    roots = [sp for sp in spans if sp[2] == main and sp[5] < 0]
    if len(roots) != 1 or roots[0][0] != ROOT_SPAN:
        return {"problems": problems + [f"main thread has top spans {[r[0] for r in roots]}"]}
    root_start, root_end = roots[0][3], roots[0][4]
    root_s = root_end - root_start
    main_self = sum(sp[6] for sp in spans if sp[2] == main)
    if abs(main_self - root_s) > 1e-9 * max(1.0, len(spans)):
        problems.append(f"main-thread self times add to {main_self} s, root is {root_s} s")
    if any(sp[3] < root_start or sp[4] > root_end for sp in spans):
        problems.append("a span lies outside the cli.run root")
    if any(sp[2] != main and sp[5] < 0 and sp[0] != TASK_SPAN for sp in spans):
        problems.append("worker-thread work outside a pool task")

    layer_self = {layer: 0.0 for layer in LAYERS}
    layer_calls = {layer: 0 for layer in LAYERS}
    pool_s = task_s = write_s = 0.0
    for name, layer, thread, start, end, parent, self_s, span_id in spans:
        if name == POOL_SPAN:
            pool_s += end - start
            continue
        if name == TASK_SPAN:
            task_s += end - start
        if name in WRITE_SPANS:
            write_s += end - start
        if layer == "cli" and thread != main:
            continue  # task closures: counted as pool busy time, not cli self time
        layer_self[layer] += self_s
        layer_calls[layer] += 1
    counters = doc["counters"]
    return {
        "problems": problems,
        "root_s": root_s,
        "self_s": layer_self,
        "calls": layer_calls,
        "pool_s": pool_s,
        "pool_slots_s": pool_s * counters.get("cli.pool_threads", 0),
        "task_s": task_s,
        "write_s": write_s,
        "counters": counters,
        "distinct_level_symbols": doc["distinct_level_symbols"],
    }


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py TRACE_OUT ICELAB_ARGS...", file=sys.stderr)
        return 2
    out, args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    cli = importlib.import_module("icelab.cli")
    try:
        code = cli.run(args)
    finally:
        tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
