"""Spans and counters recorded around the program's public entry points.

The benchmark times each layer from outside: :func:`instrument` replaces
the entry points listed in :data:`ENTRY_POINTS` with thin wrappers that
open a span (name, start, end, parent, pass id) and bump the layer's
counters.  A function a caller imported with ``from ... import`` is
replaced in every ``repro`` module that holds it, and a registered
scenario runner is replaced in the scenario registry, so every call path
reaches the wrapper.  Nothing under ``src/`` changes.

Recording happens only inside a pass (:meth:`Recorder.begin_pass`), so
set-up work and the benchmark's own correctness checks leave no spans.
A wrapper called while the innermost open span has its own name records
nothing: an override that calls its base implementation counts once.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: one recorded span: [name, start, end, parent index (-1: top level), pass id]
Span = List[Any]

#: ``count(counters, args, kwargs, result)`` bumps a layer's counters from
#: one call of its entry point.
CountFn = Callable[[Counter, tuple, dict, Any], None]


class Recorder:
    """In-memory spans and per-pass counters for one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, Counter] = {}
        self.pass_id: Optional[str] = None
        self._stack: List[int] = []

    def begin_pass(self, pass_id: str) -> None:
        self.pass_id = pass_id
        self.counters.setdefault(pass_id, Counter())

    def end_pass(self) -> None:
        if self._stack:
            raise RuntimeError(f"pass {self.pass_id} ended with open spans")
        self.pass_id = None

    def call(self, name: str, fn: Callable, args, kwargs, count) -> Any:
        nested = self._stack and self.spans[self._stack[-1]][0] == name
        if self.pass_id is None or nested:
            return fn(*args, **kwargs)
        index = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()
        if count is not None:
            count(self.counters[self.pass_id], args, kwargs, result)
        return result

    def iterate(self, name: str, fn: Callable, args, kwargs):
        """Generator counterpart of :meth:`call`: the span runs from the
        first item to exhaustion, and is the innermost open span while the
        wrapped generator's body runs, so calls it makes nest under it."""
        if self.pass_id is None:
            yield from fn(*args, **kwargs)
            return
        index = self._open(name)
        self._stack.pop()
        inner = fn(*args, **kwargs)
        try:
            while True:
                self._stack.append(index)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._stack.pop()
                yield item
        finally:
            inner.close()
            self.spans[index][2] = time.perf_counter()

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.pass_id])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1


# ------------------------------------------------------------- counters


def _calls(name: str) -> CountFn:
    def count(counters: Counter, args: tuple, kwargs: dict, result: Any) -> None:
        counters[name] += 1

    return count


def _count_batch(counters: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    counters["xnn.analytic.batch_points"] += len(result)


def _count_memo(counters: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    key = args[1] if len(args) > 1 else kwargs["key"]
    if result is None:
        counters["runner.cache.memo_misses"] += 1
    elif key.startswith("workload-"):
        counters["runner.cache.memo_upstream_hits"] += 1
    else:
        counters["runner.cache.memo_downstream_hits"] += 1


def _count_chunk(counters: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    if result is None:
        counters["runner.cache.chunk_misses"] += 1
    else:
        counters["runner.cache.chunk_hits"] += 1


def _count_submit(counters: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    # submit returns (name, result, elapsed_s) triples and submit_chunks
    # (results, elapsed_s) pairs: the job's elapsed seconds are always last.
    counters["runner.executors.jobs"] += len(result)
    counters["runner.executors.worker_busy_s"] += sum(item[-1] for item in result)


def _count_requeues(counters: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    counters["runner.executors.requeues"] += len(result)


def _count_feasible(counters: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    counters["explore.space.feasible_calls"] += 1
    if not result:
        counters["explore.space.infeasible"] += 1


def _count_pool(counters: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    counters["analysis.pareto.pool_points"] += len(args[0])


def _count_events(counters: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    counters["core.engine.events"] += result.events


def _count_requests(counters: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    counters["serve.simulate.requests"] += result["requests"]


#: (module, attribute path, span name, counter): every entry point the
#: benchmark wraps.  ``layers.json`` maps the spans to metrics and layers.
ENTRY_POINTS: Tuple[Tuple[str, str, str, Optional[CountFn]], ...] = (
    ("repro.core.engine", "Simulator.run", "core.engine.run", _count_events),
    (
        "repro.core.network",
        "Datapath.build_simulator",
        "core.network.build_simulator",
        None,
    ),
    (
        "repro.xnn.datapath",
        "XNNDatapath.__init__",
        "xnn.datapath.build",
        _calls("xnn.datapath.builds"),
    ),
    (
        "repro.xnn.codegen",
        "ProgramBuilder.load_programs",
        "xnn.codegen.load_programs",
        _calls("xnn.codegen.programs"),
    ),
    (
        "repro.xnn.codegen",
        "ProgramBuilder.fingerprint",
        "xnn.codegen.fingerprint",
        None,
    ),
    (
        "repro.xnn.executor",
        "XNNExecutor.run_encoder",
        "xnn.executor.run_encoder",
        None,
    ),
    ("repro.runner.cache", "SegmentMemo.load", "runner.cache.memo_load", _count_memo),
    ("repro.runner.cache", "SegmentMemo.store", "runner.cache.memo_store", None),
    ("repro.runner.cache", "ResultCache.load", "runner.cache.result_load", None),
    ("repro.runner.cache", "ResultCache.store", "runner.cache.result_store", None),
    (
        "repro.runner.cache",
        "ResultCache.load_chunk",
        "runner.cache.chunk_load",
        _count_chunk,
    ),
    (
        "repro.runner.cache",
        "ResultCache.store_chunk",
        "runner.cache.chunk_store",
        None,
    ),
    ("repro.runner.sweep", "run_sweep", "runner.sweep.run_sweep", None),
    (
        "repro.runner.sweep",
        "evaluate_chunked",
        "runner.sweep.evaluate_chunked",
        None,
    ),
    (
        "repro.runner.executors",
        "Executor.submit_chunks",
        "runner.executors.submit",
        _count_submit,
    ),
    (
        "repro.runner.executors",
        "SerialExecutor.submit",
        "runner.executors.submit",
        _count_submit,
    ),
    (
        "repro.runner.executors",
        "WorkQueueExecutor.submit",
        "runner.executors.submit",
        _count_submit,
    ),
    (
        "repro.runner.executors",
        "WorkQueueExecutor.submit_chunks",
        "runner.executors.submit",
        _count_submit,
    ),
    (
        "repro.runner.executors",
        "Spool.requeue_orphans",
        "runner.executors.requeue_orphans",
        _count_requeues,
    ),
    (
        "repro.explore.space",
        "DesignSpace.iter_points",
        "explore.space.iter_points",
        None,
    ),
    (
        "repro.explore.space",
        "DesignSpace.feasible",
        "explore.space.feasible",
        _count_feasible,
    ),
    (
        "repro.explore.space",
        "DesignSpace.feasible_count",
        "explore.space.feasible_count",
        None,
    ),
    (
        "repro.explore.space",
        "DesignSpace.point_params",
        "explore.space.point_params",
        None,
    ),
    (
        "repro.explore.space",
        "DesignSpace.point_id",
        "explore.space.point_id",
        None,
    ),
    (
        "repro.xnn.analytic",
        "EncoderBatchEvaluator.evaluate_batch",
        "xnn.analytic.evaluate_batch",
        _count_batch,
    ),
    (
        "repro.xnn.analytic",
        "EncoderBatchEvaluator.evaluate_chiplet_batch",
        "xnn.analytic.evaluate_batch",
        _count_batch,
    ),
    (
        "repro.xnn.analytic",
        "AnalyticXNN.run_encoder",
        "xnn.analytic.run_encoder",
        None,
    ),
    (
        "repro.xnn.partition",
        "chiplet_payload",
        "xnn.partition.chiplet_payload",
        _calls("xnn.partition.payloads"),
    ),
    (
        "repro.analysis.pareto",
        "pareto_frontier",
        "analysis.pareto.frontier",
        _count_pool,
    ),
    ("repro.serve.traffic", "generate_trace", "serve.traffic.generate", None),
    ("repro.serve.cost", "build_cost_table", "serve.cost.build", None),
    (
        "repro.serve.simulate",
        "run_serve_sim",
        "serve.simulate.run",
        _count_requests,
    ),
    ("repro.serve.metrics", "latency_summary", "serve.metrics.summary", None),
)


def _wrapper(recorder: Recorder, name: str, fn: Callable, count) -> Callable:
    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def traced_generator(*args, **kwargs):
            return recorder.iterate(name, fn, args, kwargs)

        return traced_generator

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return recorder.call(name, fn, args, kwargs, count)

    return traced


def instrument(recorder: Recorder) -> None:
    """Wrap every entry point in :data:`ENTRY_POINTS` for ``recorder``.
    Irreversible for the process: traced and untraced passes run in
    separate interpreters."""
    from repro.runner import library  # noqa: F401  (registers every kind)
    from repro.runner.scenarios import REGISTRY

    for module_name, path, name, count in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, _wrapper(recorder, name, original, count))
            continue
        original = getattr(module, attr)
        traced = _wrapper(recorder, name, original, count)
        for loaded in list(sys.modules.values()):
            holds = getattr(loaded, attr, None) is original
            if holds and getattr(loaded, "__name__", "").startswith("repro"):
                setattr(loaded, attr, traced)
        for runners in REGISTRY._kinds.values():
            for backend, runner in runners.items():
                if runner is original:
                    runners[backend] = traced


# ----------------------------------------------------------- aggregation


#: time metric -> (span name, "total" or "self" time)
TIME_METRICS: Dict[str, Tuple[str, str]] = {
    "core.engine.run_s": ("core.engine.run", "self"),
    "core.network.build_simulator_s": ("core.network.build_simulator", "total"),
    "xnn.datapath.build_s": ("xnn.datapath.build", "total"),
    "xnn.codegen.load_programs_s": ("xnn.codegen.load_programs", "total"),
    "xnn.codegen.fingerprint_s": ("xnn.codegen.fingerprint", "total"),
    "xnn.executor.run_encoder_s": ("xnn.executor.run_encoder", "self"),
    "runner.cache.memo_load_s": ("runner.cache.memo_load", "total"),
    "runner.cache.memo_store_s": ("runner.cache.memo_store", "total"),
    "runner.cache.result_load_s": ("runner.cache.result_load", "total"),
    "runner.cache.result_store_s": ("runner.cache.result_store", "total"),
    "runner.cache.chunk_load_s": ("runner.cache.chunk_load", "total"),
    "runner.cache.chunk_store_s": ("runner.cache.chunk_store", "total"),
    "runner.sweep.run_sweep_s": ("runner.sweep.run_sweep", "self"),
    "runner.sweep.evaluate_chunked_s": ("runner.sweep.evaluate_chunked", "self"),
    "runner.executors.submit_s": ("runner.executors.submit", "total"),
    "explore.space.enumerate_s": ("explore.space.iter_points", "total"),
    "explore.space.feasible_s": ("explore.space.feasible", "total"),
    "explore.space.feasible_count_s": ("explore.space.feasible_count", "total"),
    "explore.space.point_params_s": ("explore.space.point_params", "total"),
    "explore.space.point_id_s": ("explore.space.point_id", "total"),
    "xnn.analytic.evaluate_batch_s": ("xnn.analytic.evaluate_batch", "total"),
    "xnn.analytic.run_encoder_s": ("xnn.analytic.run_encoder", "total"),
    "xnn.partition.chiplet_payload_s": ("xnn.partition.chiplet_payload", "total"),
    "analysis.pareto.frontier_s": ("analysis.pareto.frontier", "total"),
    "serve.traffic.generate_s": ("serve.traffic.generate", "total"),
    "serve.cost.build_s": ("serve.cost.build", "total"),
    "serve.simulate.loop_s": ("serve.simulate.run", "self"),
    "serve.metrics.summary_s": ("serve.metrics.summary", "total"),
}

#: counters reported as metrics under their own names.
COUNT_METRICS: Tuple[str, ...] = (
    "core.engine.events",
    "xnn.datapath.builds",
    "xnn.codegen.programs",
    "runner.cache.memo_upstream_hits",
    "runner.cache.memo_downstream_hits",
    "runner.cache.memo_misses",
    "runner.cache.chunk_hits",
    "runner.cache.chunk_misses",
    "runner.executors.jobs",
    "runner.executors.worker_busy_s",
    "runner.executors.requeues",
    "explore.space.feasible_calls",
    "explore.space.infeasible",
    "xnn.analytic.batch_points",
    "xnn.partition.payloads",
    "analysis.pareto.pool_points",
    "serve.simulate.requests",
)


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part its child spans cover."""
    own = [span[2] - span[1] for span in spans]
    for span in spans:
        if span[3] >= 0:
            own[span[3]] -= span[2] - span[1]
    return own


def top_level_seconds(recorder: Recorder, pass_id: str) -> float:
    """Summed duration of the spans of ``pass_id`` that have no parent."""
    spans = recorder.spans
    return sum(s[2] - s[1] for s in spans if s[4] == pass_id and s[3] < 0)


def layer_metrics(
    recorder: Recorder, pass_walls: Dict[str, float], workers: int
) -> Dict[str, float]:
    """Per-layer metrics summed over the passes in ``pass_walls`` (pass id
    -> host wall seconds of the pass)."""
    totals: Counter = Counter()
    selfs: Counter = Counter()
    for span, own in zip(recorder.spans, self_times(recorder.spans)):
        if span[4] in pass_walls:
            totals[span[0]] += span[2] - span[1]
            selfs[span[0]] += own
    counters: Counter = Counter()
    for pass_id in pass_walls:
        counters.update(recorder.counters.get(pass_id, Counter()))

    metrics: Dict[str, float] = {}
    for metric, (name, kind) in TIME_METRICS.items():
        metrics[metric] = (selfs if kind == "self" else totals)[name]
    for metric in COUNT_METRICS:
        metrics[metric] = counters[metric]
    engine_s = totals["core.engine.run"]
    events = counters["core.engine.events"]
    metrics["core.engine.events_per_s"] = events / engine_s if engine_s else 0.0
    hits = (
        counters["runner.cache.memo_upstream_hits"]
        + counters["runner.cache.memo_downstream_hits"]
    )
    lookups = hits + counters["runner.cache.memo_misses"]
    metrics["runner.cache.memo_hit_ratio"] = hits / lookups if lookups else 0.0
    busy_s = counters["runner.executors.worker_busy_s"]
    submit_s = metrics["runner.executors.submit_s"]
    metrics["runner.executors.dispatch_overhead_s"] = submit_s - busy_s / workers
    metrics["trace.unattributed_s"] = sum(
        wall - top_level_seconds(recorder, pass_id)
        for pass_id, wall in pass_walls.items()
    )
    return metrics


def chrome_events(spans: Sequence[Span], origin: float, pid: int) -> List[dict]:
    """Spans as Chrome trace-event ``X`` events (microseconds since
    ``origin``), loadable in Perfetto or ``chrome://tracing``."""
    events = []
    for index, (name, start, end, parent, pass_id) in enumerate(spans):
        args = {"span": index, "parent": parent if parent >= 0 else None}
        args["pass"] = pass_id
        events.append(
            {
                "name": name,
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": pid,
                "tid": 0,
                "args": args,
            }
        )
    return events
