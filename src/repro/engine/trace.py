"""Cross-process hierarchical tracing and profiling for engine runs.

The engine's cost is spread across processes (chip builds and scheme
evaluations run in pool workers) and layers (trace generation, kernel
replay, cache I/O, journalling).  This module makes every component
individually reportable:

* :func:`span` -- a context manager recording one named, monotonic-clock
  timed region into the process-ambient :class:`Tracer` (a no-op when
  tracing is off, so instrumentation can stay in hot paths);
* worker-side collection -- :func:`collect_task_spans` installs a
  per-task collector in a worker; the runner ships the collected spans
  back with the task result (see
  :class:`~repro.engine.parallel.ParallelChipRunner`) wrapped in a
  :class:`TracedResult`, and re-emits them on the event stream as
  :class:`~repro.engine.events.SpansCollected`;
* :class:`Tracer` -- the coordinator-side sink: it subscribes to the
  typed event stream (run / experiment / batch events become spans,
  robustness events become instants), absorbs worker span batches, and
  exports the merged timeline as Chrome ``trace_event`` JSON
  (``chrome://tracing`` / Perfetto-loadable) plus an aggregated
  per-phase table for ``metrics.json``.

Tracing is strictly observational: span timestamps come from the
monotonic clock, never touch results, task payloads, journal records,
or cache fingerprints, so traced and untraced runs are bit-identical
(enforced by tests and the ``--inject-faults`` identity gate).

Cross-process timestamps are comparable because ``time.monotonic_ns``
reads ``CLOCK_MONOTONIC``, which is system-wide on Linux; on platforms
where worker clocks are not aligned the per-process timelines remain
internally consistent.
"""

from __future__ import annotations

import json
import pathlib
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None  # type: ignore[assignment]

import os


def peak_rss_kb() -> int:
    """This process's peak resident set size in KiB (0 if unavailable)."""
    if resource is None:
        return 0
    usage = resource.getrusage(resource.RUSAGE_SELF)
    # Linux reports ru_maxrss in KiB; macOS in bytes.
    rss = int(usage.ru_maxrss)
    return rss // 1024 if rss > 1 << 30 else rss


@dataclass(frozen=True)
class Span:
    """One named, closed region of the merged timeline.

    ``args`` is a tuple of ``(key, value)`` pairs (not a dict) so spans
    stay frozen, hashable-free, and cheaply picklable across the worker
    boundary.
    """

    name: str
    cat: str
    start_ns: int
    duration_ns: int
    pid: int
    tid: int
    args: Tuple[Tuple[str, Any], ...] = ()

    @property
    def end_ns(self) -> int:
        """Monotonic end timestamp in nanoseconds."""
        return self.start_ns + self.duration_ns

    @property
    def duration_s(self) -> float:
        """Span duration in seconds."""
        return self.duration_ns / 1e9


@dataclass(frozen=True)
class Instant:
    """One point-in-time annotation (retry, respawn, checkpoint)."""

    name: str
    cat: str
    at_ns: int
    pid: int
    args: Tuple[Tuple[str, Any], ...] = ()


class _OpenSpan:
    """Context manager recording one span into a tracer on exit."""

    __slots__ = ("_tracer", "name", "cat", "_args", "_start_ns")

    def __init__(self, tracer: "Tracer", name: str, cat: str,
                 args: Tuple[Tuple[str, Any], ...]):
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self._args = args
        self._start_ns = 0

    def set(self, **args: Any) -> None:
        """Attach extra args discovered mid-span (e.g. a cache hit)."""
        self._args = self._args + tuple(args.items())

    def __enter__(self) -> "_OpenSpan":
        self._start_ns = time.monotonic_ns()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        end = time.monotonic_ns()
        self._tracer.add_span(Span(
            name=self.name,
            cat=self.cat,
            start_ns=self._start_ns,
            duration_ns=end - self._start_ns,
            pid=os.getpid(),
            tid=threading.get_ident() & 0xFFFF,
            args=self._args,
        ))


class _NullSpan:
    """Do-nothing span used when no tracer is active."""

    __slots__ = ()

    def set(self, **args: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        pass


NULL_SPAN = _NullSpan()
"""Shared no-op span (returned by :func:`span` when tracing is off)."""


@dataclass(frozen=True)
class TracedResult:
    """A task result bundled with the spans its execution produced.

    The wrapper exists only on the wire between a worker and the
    supervisor: the runner unwraps it *before* results are journalled,
    cached, or returned, so profiling data can never leak into outputs.
    """

    value: Any
    spans: Tuple[Span, ...] = ()
    pid: int = 0
    peak_rss_kb: int = 0


class Tracer:
    """Collects spans from every process into one exportable timeline.

    The tracer is both the ambient span sink (:func:`activate` /
    :func:`span`) and a typed-event subscriber: run, experiment, and
    batch lifecycle events open and close spans; robustness events
    become instant markers; :class:`SpansCollected` batches from workers
    are merged in.  Thread-safe: the supervisor and pool callbacks may
    record concurrently.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._instants: List[Instant] = []
        self._open: Dict[Tuple[str, str], int] = {}
        self._rss_kb: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def span(self, name: str, cat: str = "task", **args: Any) -> _OpenSpan:
        """A context manager timing one region into this tracer."""
        return _OpenSpan(self, name, cat, tuple(args.items()))

    def add_span(self, span_: Span) -> None:
        """Record one closed span."""
        with self._lock:
            self._spans.append(span_)

    def extend(self, spans: Tuple[Span, ...]) -> None:
        """Merge a batch of spans (e.g. shipped back from a worker)."""
        with self._lock:
            self._spans.extend(spans)

    def add_instant(self, name: str, cat: str, **args: Any) -> None:
        """Record one point-in-time marker at 'now'."""
        with self._lock:
            self._instants.append(Instant(
                name=name, cat=cat, at_ns=time.monotonic_ns(),
                pid=os.getpid(), args=tuple(args.items()),
            ))

    def note_rss(self, pid: int, rss_kb: int) -> None:
        """Track the peak resident set size observed for one process."""
        if rss_kb <= 0:
            return
        with self._lock:
            if rss_kb > self._rss_kb.get(pid, 0):
                self._rss_kb[pid] = rss_kb

    # ------------------------------------------------------------------
    # typed-event subscription
    # ------------------------------------------------------------------

    def handle(self, event: Any) -> None:
        """Consume one typed engine event (the subscriber surface)."""
        # Local import: events.py must stay importable without trace.py.
        from repro.engine import events

        now = time.monotonic_ns()
        if isinstance(event, events.RunStarted):
            self._open_span(("run", ""), now)
        elif isinstance(event, events.RunEnded):
            self._close_span(("run", ""), "run", "run", now)
        elif isinstance(event, events.ExperimentStarted):
            self._open_span(("experiment", event.name), now)
        elif isinstance(event, events.ExperimentEnded):
            self._close_span(
                ("experiment", event.name), event.name, "experiment", now,
                cached=event.cached,
            )
        elif isinstance(event, events.BatchStarted):
            self._open_span(("batch", event.label), now)
        elif isinstance(event, events.BatchEnded):
            self._close_span(
                ("batch", event.label), event.label, "batch", now,
                items=event.total,
            )
        elif isinstance(event, events.SpansCollected):
            self.extend(event.spans)
            self.note_rss(event.pid, event.peak_rss_kb)
        elif isinstance(event, events.TaskRetried):
            self.add_instant(
                "task_retried", "robustness", label=event.label,
                index=event.index, attempt=event.attempt,
            )
        elif isinstance(event, events.WorkerRespawned):
            self.add_instant(
                "worker_respawned", "robustness", label=event.label,
                pool_failures=event.pool_failures,
            )
        elif isinstance(event, events.RunCheckpointed):
            self.add_instant(
                "run_checkpointed", "robustness", label=event.label,
                flushed=event.flushed,
            )
        elif isinstance(event, events.RunResumed):
            self.add_instant(
                "run_resumed", "robustness", label=event.label,
                restored=event.restored,
            )
        # ChipCompleted is deliberately not recorded: per-item progress
        # would dominate the trace; worker task spans already cover it.

    def _open_span(self, key: Tuple[str, str], now: int) -> None:
        with self._lock:
            self._open[key] = now

    def _close_span(self, key: Tuple[str, str], name: str, cat: str,
                    now: int, **args: Any) -> None:
        with self._lock:
            start = self._open.pop(key, None)
        if start is None:
            # Unmatched end (observer attached mid-run): drop silently.
            return
        self.add_span(Span(
            name=name, cat=cat, start_ns=start, duration_ns=now - start,
            pid=os.getpid(), tid=threading.get_ident() & 0xFFFF,
            args=tuple(args.items()),
        ))

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------

    def spans(self) -> Tuple[Span, ...]:
        """Every recorded span (insertion order)."""
        with self._lock:
            return tuple(self._spans)

    def instants(self) -> Tuple[Instant, ...]:
        """Every recorded instant marker (insertion order)."""
        with self._lock:
            return tuple(self._instants)

    def _epoch_ns(self) -> int:
        """The earliest timestamp, used as the exported time origin."""
        with self._lock:
            starts = [s.start_ns for s in self._spans]
            starts.extend(i.at_ns for i in self._instants)
        return min(starts) if starts else 0

    def chrome_events(self) -> List[Dict[str, Any]]:
        """The merged timeline as Chrome ``trace_event`` dicts."""
        epoch = self._epoch_ns()
        events_out: List[Dict[str, Any]] = []
        for s in self.spans():
            events_out.append({
                "name": s.name,
                "cat": s.cat,
                "ph": "X",
                "ts": (s.start_ns - epoch) / 1000.0,
                "dur": s.duration_ns / 1000.0,
                "pid": s.pid,
                "tid": s.tid,
                "args": dict(s.args),
            })
        for i in self.instants():
            events_out.append({
                "name": i.name,
                "cat": i.cat,
                "ph": "i",
                "s": "g",
                "ts": (i.at_ns - epoch) / 1000.0,
                "pid": i.pid,
                "tid": 0,
                "args": dict(i.args),
            })
        with self._lock:
            rss_items = sorted(self._rss_kb.items())
        for pid, rss in rss_items:
            events_out.append({
                "name": "peak_rss",
                "ph": "C",
                "ts": 0.0,
                "pid": pid,
                "tid": 0,
                "args": {"rss_kb": rss},
            })
        return events_out

    def to_chrome(self, path: pathlib.Path) -> pathlib.Path:
        """Write the timeline as a Chrome-loadable ``trace_event`` file."""
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "traceEvents": self.chrome_events(),
            "displayTimeUnit": "ms",
            "metadata": {"producer": "repro.engine.trace"},
        }
        path.write_text(json.dumps(document, indent=1) + "\n")
        return path

    def phase_table(self) -> Dict[str, Any]:
        """Aggregated per-phase durations for ``metrics.json``.

        Phases are span categories; within each phase the table breaks
        totals down by span name.  Names whose spans carry ``chips`` and
        ``references`` args (the chip-lane replay kernel's) also report
        ``chip_references`` and ``chip_references_per_s``.
        ``wall_clock_coverage`` is the fraction of the root run span
        covered by the union of its coordinator-side child spans (1.0
        when no run span exists yet).
        """
        table: Dict[str, Dict[str, Any]] = {}
        run_span: Optional[Span] = None
        top_intervals: List[Tuple[int, int]] = []
        for s in self.spans():
            phase = table.setdefault(s.cat, {"total_s": 0.0, "spans": 0,
                                             "by_name": {}})
            phase["total_s"] += s.duration_s
            phase["spans"] += 1
            entry = phase["by_name"].setdefault(
                s.name, {"total_s": 0.0, "spans": 0}
            )
            entry["total_s"] += s.duration_s
            entry["spans"] += 1
            args = dict(s.args)
            if "chips" in args and "references" in args:
                entry["chip_references"] = (
                    entry.get("chip_references", 0)
                    + args["chips"] * args["references"]
                )
            if s.cat == "run":
                run_span = s
            elif s.cat == "experiment":
                top_intervals.append((s.start_ns, s.end_ns))
        for phase in table.values():
            phase["total_s"] = round(phase["total_s"], 6)
            for entry in phase["by_name"].values():
                if "chip_references" in entry and entry["total_s"] > 0:
                    entry["chip_references_per_s"] = round(
                        entry["chip_references"] / entry["total_s"], 1
                    )
                entry["total_s"] = round(entry["total_s"], 6)
        coverage = 1.0
        if run_span is not None and run_span.duration_ns > 0:
            covered = _union_ns(top_intervals, run_span.start_ns,
                                run_span.end_ns)
            coverage = covered / run_span.duration_ns
        rss = dict(sorted(self._rss_kb.items())) if self._rss_kb else {}
        return {
            "phases": table,
            "wall_clock_coverage": round(coverage, 4),
            "peak_rss_kb_by_pid": {str(k): v for k, v in rss.items()},
        }


def _union_ns(intervals: List[Tuple[int, int]], lo: int, hi: int) -> int:
    """Total length of the union of ``intervals`` clipped to [lo, hi]."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0
    end = lo
    for a, b in clipped:
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


# ----------------------------------------------------------------------
# process-ambient tracer
# ----------------------------------------------------------------------

_ACTIVE: Optional[Tracer] = None


def current_tracer() -> Optional[Tracer]:
    """The process-ambient tracer, or ``None`` when tracing is off."""
    return _ACTIVE


def tracing_active() -> bool:
    """True when a tracer is collecting in this process."""
    return _ACTIVE is not None


def span(name: str, cat: str = "task", **args: Any) -> Any:
    """Time one region into the ambient tracer (no-op when inactive).

    Designed for permanent instrumentation of hot paths: when no tracer
    is active the returned context manager is a shared do-nothing
    singleton, so the cost is one global read and one call.
    """
    tracer = _ACTIVE
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, cat, **args)


class activate:
    """Install ``tracer`` as the process-ambient span sink.

    Usable as a context manager; ``activate(None)`` is a no-op context
    (convenient for optional-tracing call sites).  Re-entrant: the
    previous tracer is restored on exit.
    """

    def __init__(self, tracer: Optional[Tracer]):
        self.tracer = tracer
        self._previous: Optional[Tracer] = None

    def __enter__(self) -> Optional[Tracer]:
        global _ACTIVE
        self._previous = _ACTIVE
        if self.tracer is not None:
            _ACTIVE = self.tracer
        return self.tracer

    def __exit__(self, *exc_info: Any) -> None:
        global _ACTIVE
        if self.tracer is not None:
            _ACTIVE = self._previous


class collect_task_spans:
    """Collect spans produced during one worker task.

    Installs a fresh :class:`Tracer` as the process-ambient sink for the
    duration of the ``with`` block and exposes the recorded spans via
    :attr:`spans` afterwards.  Used by the runner's worker shim so
    instrumented code (chip builds, the batched kernel) records into a
    per-task collector that ships home with the result.
    """

    def __init__(self) -> None:
        self._collector = Tracer()
        self._activation = activate(self._collector)
        self.spans: Tuple[Span, ...] = ()

    def __enter__(self) -> "collect_task_spans":
        self._activation.__enter__()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._activation.__exit__(*exc_info)
        self.spans = self._collector.spans()


__all__ = [
    "Span",
    "Instant",
    "NULL_SPAN",
    "TracedResult",
    "Tracer",
    "peak_rss_kb",
    "current_tracer",
    "tracing_active",
    "span",
    "activate",
    "collect_task_spans",
]
