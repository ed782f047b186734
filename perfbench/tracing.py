"""Spans around the calls into each layer, for the traced run.

The benchmark times layers from its own files: :func:`install` replaces
each boundary below with a wrapper that records one span per call
(name, start, end, parent span, run id) in memory, and returns a
function that puts the originals back.  :func:`layer_metrics` reduces
the spans of one workload iteration to the per-layer metrics named in
``BENCHMARK.json``.

Only calls made in the benchmark process are seen.  The traced
``fig10`` run therefore evaluates in-process (``workers=1``); the
traced ``service`` run sees the parent-side layers only, because its
chip tasks run in fleet worker processes.
"""

from __future__ import annotations

import functools
import itertools
import pickle
import statistics
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional

#: Kernel paths reported per path; ``kernel_support(cache).path`` values.
REPLAY_PATHS = ("flattened", "timeline", "event")


@dataclass
class Span:
    """One call into a layer boundary."""

    span_id: int
    parent: Optional[int]
    run_id: str
    name: str
    start: float
    end: float
    attrs: Dict[str, Any] = field(default_factory=dict)


class Tracer:
    """Keeps the spans of one run in memory; parents are per thread."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        original: Callable,
        before: Optional[Callable[..., Dict[str, Any]]] = None,
        after: Optional[Callable[[Any], Dict[str, Any]]] = None,
    ) -> Callable:
        """``original`` with a span around every call.

        ``before(*args, **kwargs)`` and ``after(result)`` add attributes;
        ``functools.wraps`` keeps the original's module and qualified
        name, so task functions still cross process boundaries by name.
        """

        @functools.wraps(original)
        def traced(*args, **kwargs):
            attrs = before(*args, **kwargs) if before is not None else {}
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(
                    span_id, parent, self.run_id, name, start, end, attrs
                ))
            if after is not None:
                attrs.update(after(result))
            return result

        return traced

    def to_records(self) -> List[Dict[str, Any]]:
        """The spans as JSON-able records, in completion order."""
        return [asdict(span) for span in self.spans]


def _task_bytes(runner, tasks, *args, **kwargs) -> Dict[str, Any]:
    sizes = [
        len(pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL))
        for task in tasks
    ] if isinstance(tasks, (list, tuple)) else []
    return {"workers": runner.workers, "task_bytes": sizes}


def _batch_workers(runner, *args, **kwargs) -> Dict[str, Any]:
    return {"workers": runner.workers}


def install(tracer: Tracer, in_process_tasks: bool) -> Callable[[], None]:
    """Wrap every layer boundary; returns the function that unwraps.

    ``in_process_tasks`` also wraps the engine's task functions, which
    gives each batch its task busy time; leave it off when tasks run in
    other processes.
    """
    from repro.array.chip import ChipBuildTask
    from repro.array.power import CachePowerModel
    from repro.core import evaluation
    from repro.core.batcheval import TraceArtifacts, kernel_support
    from repro.cpu.perfmodel import AnalyticCPUModel
    from repro.engine import parallel
    from repro.engine.cache import ResultCache
    from repro.engine.checkpoint import RunJournal
    from repro.service.api import ExecutionService
    from repro.workloads.generator import SyntheticWorkload

    def replay_attrs(cache, artifacts, *args, **kwargs):
        return {"path": kernel_support(cache).path, "refs": len(artifacts)}

    boundaries = [
        (ChipBuildTask, "build", "array.chip_build", None, None),
        (SyntheticWorkload, "memory_trace", "workloads.trace", None,
         lambda trace: {"refs": len(trace)}),
        (TraceArtifacts, "from_trace", "core.artifacts", None, None),
        # Patched where the evaluator looks it up, so every replay the
        # suite makes is seen whichever kernel path it takes.
        (evaluation, "simulate_trace", "core.replay", replay_attrs, None),
        (parallel, "evaluate_many", "core.evaluate_chip", None, None),
        (AnalyticCPUModel, "estimate", "cpu.estimate", None, None),
        (AnalyticCPUModel, "estimate_global_refresh", "cpu.estimate",
         None, None),
        (CachePowerModel, "event_dynamic_power", "array.power", None, None),
        (CachePowerModel, "global_refresh_power", "array.power", None, None),
        (parallel.ParallelChipRunner, "evaluate", "engine.batch",
         _task_bytes, None),
        (parallel.ParallelChipRunner, "build_chips", "engine.batch",
         _batch_workers, None),
        # The base class: ShardedResultCache takes its shard lock and
        # then calls these, so both cache kinds are timed at one place.
        (ResultCache, "get", "engine.cache_get", None,
         lambda value: {"hit": value is not None}),
        (ResultCache, "put", "engine.cache_put", None, None),
        (RunJournal, "record", "engine.journal", None, None),
        (ExecutionService, "submit", "service.submit", None, None),
    ]
    if in_process_tasks:
        boundaries += [
            (parallel, "run_eval_task", "engine.task", None, None),
            (parallel, "run_build_task", "engine.task", None, None),
        ]
    undo = []
    for owner, attr, name, before, after in boundaries:
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            replacement = classmethod(
                tracer.wrap(name, raw.__func__, before, after)
            )
        else:
            replacement = tracer.wrap(name, raw, before, after)
        setattr(owner, attr, replacement)
        undo.append((owner, attr, raw))

    def uninstall() -> None:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)

    return uninstall


def layer_metrics(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer counts and times from one iteration's span records.

    ``*_s`` layer times are self times: a span's duration minus the
    durations of its child spans (children run on the span's thread,
    so they never overlap).  ``engine.batch_s`` is the batch wall
    instead, and ``engine.overhead_s`` the batch wall minus its tasks'
    busy time divided by the pool width.
    """
    children: Dict[int, List[Dict[str, Any]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)

    def duration(span) -> float:
        return span["end"] - span["start"]

    def self_time(span) -> float:
        return duration(span) - sum(
            duration(child) for child in children.get(span["span_id"], ())
        )

    by_name: Dict[str, List[Dict[str, Any]]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def group(name):
        return by_name.get(name, [])

    def total_self(name) -> float:
        return sum(self_time(span) for span in group(name))

    def median_ms(name) -> float:
        durations = [duration(span) for span in group(name)]
        return 1e3 * statistics.median(durations) if durations else 0.0

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    metrics: Dict[str, float] = {}
    builds = group("array.chip_build")
    metrics["array.chips_built"] = len(builds)
    metrics["array.chip_build_s"] = total_self("array.chip_build")
    metrics["array.chip_build_ms_p50"] = median_ms("array.chip_build")
    metrics["array.power_s"] = total_self("array.power")

    traces = group("workloads.trace")
    trace_s = total_self("workloads.trace")
    metrics["workloads.traces_built"] = len(traces)
    metrics["workloads.trace_s"] = trace_s
    metrics["workloads.trace_refs_per_s"] = rate(
        sum(span["attrs"].get("refs", 0) for span in traces), trace_s
    )

    metrics["core.artifacts_s"] = total_self("core.artifacts")
    for path in REPLAY_PATHS:
        replays = [
            span for span in group("core.replay")
            if span["attrs"]["path"] == path
        ]
        seconds = sum(self_time(span) for span in replays)
        refs = sum(span["attrs"]["refs"] for span in replays)
        metrics[f"core.replay_calls.{path}"] = len(replays)
        metrics[f"core.replay_refs.{path}"] = refs
        metrics[f"core.replay_s.{path}"] = seconds
        metrics[f"core.replay_refs_per_s.{path}"] = rate(refs, seconds)
    metrics["core.evaluate_chip_ms_p50"] = median_ms("core.evaluate_chip")
    # The straggler: on the pool the slowest chip task ends the batch.
    metrics["core.evaluate_chip_ms_tail"] = 1e3 * max(
        (duration(span) for span in group("core.evaluate_chip")), default=0.0
    )

    metrics["cpu.estimate_calls"] = len(group("cpu.estimate"))
    metrics["cpu.estimate_s"] = total_self("cpu.estimate")

    batches = group("engine.batch")
    overhead = 0.0
    for batch in batches:
        busy = sum(
            duration(child)
            for child in children.get(batch["span_id"], ())
            if child["name"] == "engine.task"
        )
        overhead += duration(batch) - busy / batch["attrs"]["workers"]
    task_bytes = [
        size for batch in batches
        for size in batch["attrs"].get("task_bytes", ())
    ]
    metrics["engine.batches"] = len(batches)
    metrics["engine.batch_s"] = sum(duration(batch) for batch in batches)
    metrics["engine.overhead_s"] = overhead
    metrics["engine.task_kb"] = (
        statistics.mean(task_bytes) / 1024 if task_bytes else 0.0
    )
    gets = group("engine.cache_get")
    metrics["engine.cache_hits"] = sum(
        1 for span in gets if span["attrs"].get("hit")
    )
    metrics["engine.cache_misses"] = sum(
        1 for span in gets if not span["attrs"].get("hit")
    )
    metrics["engine.cache_get_ms"] = median_ms("engine.cache_get")
    metrics["engine.cache_put_ms"] = median_ms("engine.cache_put")
    metrics["engine.journal_records"] = len(group("engine.journal"))
    metrics["engine.journal_s"] = total_self("engine.journal")
    metrics["service.submit_ms"] = median_ms("service.submit")
    metrics["trace.spans"] = len(spans)
    return metrics
