"""Span tracer that wraps fedunlab's public functions at run time.

The tracer replaces every public module-level function of the layer
modules, and the methods named in METHODS, with a wrapper that, while
tracing is enabled, records one span per call: name, start, end, parent
span and request id. Functions that callers imported by name
(``from .streams import substream``) are rebound in every ``fedunlab``
module and in this benchmark's modules, so the engine's calls are seen
too. Generator functions are left alone: a span around one would only
time the creation of the generator.

Spans stay in memory; ``write_jsonl`` writes them once the run ends and
``layer_metrics`` turns them into self times and counts.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("streams", "data", "losses", "engine", "store", "unlearn", "stability")

# Methods traced besides the module-level functions: the ones a layer
# metric names. Small accessors stay unwrapped, since a span costs more
# than they do.
METHODS = {
    "HistoryStore": (
        "record_round_start", "record_iteration", "record_global", "discard_from",
        "prune_after", "history_tuple",
    ),
    "QuadraticLoss": ("mean_grad",),
    "LogisticLoss": ("mean_grad",),
}

_HERE = os.path.dirname(os.path.abspath(__file__))

_NAME, _START, _END, _PARENT = range(4)


def _iterations(args, kwargs, result):
    start, hyper = args[0], args[1]
    return hyper.total_steps - start + 1


def _support_size(args, kwargs, result):
    return len(result.support)


# Functions whose span also records a count taken from the call.
_VALUES = {
    "engine.run_fats": _iterations,
    "stability.enumerate_history_distribution": _support_size,
    "stability.unlearned_history_distribution": _support_size,
}


class Tracer:
    """Records nested spans around calls into the fedunlab layers."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.enabled = False
        self.request: int | None = None
        self._stack: list[int] = []
        self._bindings: list[tuple] | None = None

    def wrap(self, name: str, fn):
        value = _VALUES.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            spans = tracer.spans
            stack = tracer._stack
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.request, None)
            if value is not None:
                spans[index] = (name, start, end, parent, tracer.request, value(args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        """Put the wrappers in place of the public functions and methods of
        every layer module, wherever a fedunlab module or a module of this
        benchmark holds them by name."""
        if self._bindings is None:
            self._bindings = self._find_bindings()
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore the original functions, so untraced rounds run the
        program exactly as it is."""
        for owner, attr, original, _ in self._bindings or ():
            setattr(owner, attr, original)

    def _find_bindings(self) -> list[tuple]:
        bindings = []
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"fedunlab.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
                elif attr in METHODS:
                    for method in METHODS[attr]:
                        fn = vars(obj)[method]
                        wrapper = self.wrap(f"{layer}.{attr}.{method}", fn)
                        bindings.append((obj, method, fn, wrapper))
        for name, module in list(sys.modules.items()):
            path = getattr(module, "__file__", None) or ""
            if not (name.split(".", 1)[0] == "fedunlab" or path.startswith(_HERE)):
                continue
            for attr, obj in list(vars(module).items()):
                found = wrappers.get(id(obj))
                if found is not None and found[0] is obj:
                    bindings.append((module, attr, obj, found[1]))
        return bindings

    def phase(self, name: str, request: int | None = None) -> "_Phase":
        """Root span for one timed phase of the benchmark; tracing is on
        only inside phases, so correctness checks are never traced."""
        return _Phase(self, name, request)

    def write_jsonl(self, path: str, origin: float) -> None:
        """Write the spans as gzip-compressed JSON lines, times in seconds
        from ``origin``."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            for name, start, end, parent, request, value in self.spans:
                record = {
                    "name": name,
                    "start": start - origin,
                    "end": end - origin,
                    "parent": parent,
                    "request": request,
                }
                if value is not None:
                    record["value"] = value
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")


class _Phase:
    def __init__(self, tracer: Tracer, name: str, request: int | None) -> None:
        self.tracer = tracer
        self.name = name
        self.request = request

    def __enter__(self):
        tracer = self.tracer
        tracer.request = self.request
        self.index = len(tracer.spans)
        tracer.spans.append(None)
        tracer._stack.append(self.index)
        tracer.enabled = True
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        tracer = self.tracer
        end = perf_counter()
        tracer.spans[self.index] = (f"phase.{self.name}", self.start, end, -1, self.request, None)
        tracer.enabled = False
        tracer._stack.pop()
        tracer.request = None
        return False


def layer_metrics(spans: list, first: int) -> dict[str, float]:
    """Per-layer self times and counts of spans[first:].

    A span's self time is its duration minus the durations of its direct
    children. Every span is either a phase root (``phase.*``) or a
    benchmark pipeline (``bench.*``), both the benchmark's own code
    between calls into the program, or it belongs to one layer; so the
    per-layer self times plus ``trace.unattributed_s`` add up to
    ``trace.phases_s``.
    """
    child_time: dict[int, float] = defaultdict(float)
    for index in range(first, len(spans)):
        span = spans[index]
        if span[_PARENT] >= first:
            child_time[span[_PARENT]] += span[_END] - span[_START]
    # name -> [calls, inclusive seconds, self seconds, summed value]
    by_name: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0, 0])
    recompute_s = 0.0
    recompute_iters = 0
    under_unlearn: dict[int, bool] = {}
    for index in range(first, len(spans)):
        name, start, end, parent, _, value = spans[index]
        duration = end - start
        entry = by_name[name]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child_time[index]
        entry[3] += value or 0
        under = parent >= first and (
            under_unlearn[parent] or spans[parent][_NAME].startswith("unlearn.")
        )
        under_unlearn[index] = under
        if under and name == "engine.run_fats":
            recompute_s += duration
            recompute_iters += value

    def total(field, *names):
        return sum(by_name[name][field] for name in names if name in by_name)

    mean_grads = [name for name in by_name if name.endswith(".mean_grad")]
    records = (
        "store.HistoryStore.record_round_start",
        "store.HistoryStore.record_iteration",
        "store.HistoryStore.record_global",
    )
    removes = ("data.remove_sample", "data.remove_client")
    distributions = (
        "stability.enumerate_history_distribution",
        "stability.unlearned_history_distribution",
    )
    calls, incl, self_, value = 0, 1, 2, 3
    metrics = {
        "streams.substream_calls": total(calls, "streams.substream"),
        "streams.substream_s": total(incl, "streams.substream"),
        "data.remove_s": total(incl, *removes),
        "data.remove_calls": total(calls, *removes),
        "data.digest_s": total(incl, "data.dataset_digest"),
        "data.digest_calls": total(calls, "data.dataset_digest"),
        "losses.mean_grad_s": total(incl, *mean_grads),
        "losses.mean_grad_calls": total(calls, *mean_grads),
        "engine.sample_s": total(self_, "engine.sample_client_multiset", "engine.sample_minibatch"),
        "engine.aggregate_s": total(self_, "engine.aggregate", "engine.virtual_average"),
        "engine.loop_s": total(self_, "engine.run_fats"),
        "engine.iterations": total(value, "engine.run_fats"),
        "store.record_s": total(self_, *records),
        "store.record_calls": total(calls, *records),
        "store.prune_s": total(
            self_, "store.HistoryStore.discard_from", "store.HistoryStore.prune_after"
        ),
        "store.save_s": total(self_, "store.save_checkpoint"),
        "store.load_s": total(self_, "store.load_checkpoint"),
        "store.history_tuple_s": total(incl, "store.HistoryStore.history_tuple"),
        "unlearn.plan_s": total(incl, "unlearn.build_sample_replay_plan"),
        "unlearn.recompute_s": recompute_s,
        "unlearn.recomputed_iters": recompute_iters,
        "stability.enumerate_s": total(
            self_,
            "stability.enumerate_history_distribution",
            "stability.per_round_outcomes",
            "stability.enumeration_budget",
        ),
        "stability.couple_s": total(self_, "stability.unlearned_history_distribution"),
        "stability.tv_s": total(incl, "stability.tv_distance"),
        "stability.support_size": total(value, *distributions),
        "stability.chi2_s": total(self_, "stability.equivalence_test_mc"),
    }
    metrics.update({f"{layer}.self_s": 0.0 for layer in LAYERS})
    metrics["trace.unattributed_s"] = 0.0
    for name, entry in by_name.items():
        layer = name.split(".", 1)[0]
        key = "trace.unattributed_s" if layer in ("phase", "bench") else f"{layer}.self_s"
        metrics[key] += entry[self_]
    metrics["trace.phases_s"] = sum(
        entry[incl] for name, entry in by_name.items() if name.startswith("phase.")
    )
    return metrics
