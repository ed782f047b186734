"""Process-pool chip-batch scheduler for Monte-Carlo experiments.

:class:`ParallelChipRunner` fans two kinds of work across worker
processes:

* **chip builds** -- :class:`~repro.array.chip.ChipBuildTask` items whose
  per-chip seeds were reserved *serially* from the sampler's root
  generator, so a parallel batch reproduces the serial chip sequence
  bit for bit;
* **chip evaluations** -- :class:`EvalTask` items that rebuild a worker-
  local :class:`~repro.core.evaluation.Evaluator` from an
  :class:`EvaluatorSpec` (traces are seeded, hence identical in every
  process) and reduce each (chip, scheme) evaluation to a small
  :class:`SchemeOutcome` payload.

With ``workers <= 1`` the runner executes the very same task functions
inline, in submission order; because every task is self-contained and
deterministically seeded, serial and parallel runs return identical
results -- only wall-clock differs.
"""

from __future__ import annotations

import itertools
import os
import time
from collections import OrderedDict
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError, ExecutionError
from repro.technology.node import TechnologyNode
from repro.array.chip import ChipBuildTask, DRAM3T1DChipSample
from repro.array.geometry import CacheGeometry
from repro.array.power import CachePowerModel
from repro.cache.config import CacheConfig
from repro.core.architecture import IdealCacheArchitecture
from repro.core.batcheval import evaluate_many
from repro.core.evaluation import Evaluator
from repro.core.schemes import get_scheme
from repro.engine import trace as trace_mod
from repro.engine.checkpoint import RunJournal, task_key
from repro.engine.config import EngineConfig, LOCAL_BACKEND
from repro.engine.events import (
    BatchEnded,
    BatchStarted,
    ChipCompleted,
    KernelPathsCollected,
    RunCheckpointed,
    RunResumed,
    SpansCollected,
    Subscriber,
    TaskRetried,
    WorkerRespawned,
    dispatch,
)
from repro.engine.faults import CorruptedPayload, FaultPlan
from repro.engine.observer import NULL_OBSERVER


@dataclass(frozen=True)
class EvaluatorSpec:
    """Everything needed to rebuild an :class:`Evaluator` in any process.

    Two processes holding equal specs build evaluators with identical
    (seeded) traces, which is what makes parallel evaluation bit-identical
    to serial evaluation.
    """

    node: TechnologyNode
    ways: int = 4
    n_references: int = 8000
    seed: int = 2007
    benchmarks: Optional[Tuple[str, ...]] = None
    technology: str = "3t1d"
    """Registered technology backend; non-default backends adjust the
    cache timing (read/write hit latency) from their latency model."""
    geometry: Optional["CacheGeometry"] = None
    """L1 organisation to evaluate; ``None`` keeps the legacy ways-based
    paper-geometry path (bit-identical to pre-geometry specs).  When
    set, its associativity must agree with ``ways``."""

    def __post_init__(self) -> None:
        if self.benchmarks is not None:
            object.__setattr__(self, "benchmarks", tuple(self.benchmarks))
        if self.ways < 1:
            raise ConfigurationError(f"ways must be >= 1, got {self.ways}")
        if self.geometry is not None and self.geometry.ways != self.ways:
            raise ConfigurationError(
                f"spec ways={self.ways} disagrees with geometry.ways="
                f"{self.geometry.ways}"
            )

    def build(self) -> Evaluator:
        """Construct the evaluator this spec describes."""
        if self.geometry is not None:
            config = CacheConfig(geometry=self.geometry)
        else:
            config = CacheConfig()
            if self.ways != config.geometry.ways:
                config = config.with_ways(self.ways)
        if self.technology != "3t1d":
            from repro.technology.backends import get_backend

            latency = get_backend(self.technology).latency_model(
                self.node, config.geometry
            )
            config = replace(
                config,
                hit_latency_cycles=latency.read_hit_cycles,
                write_hit_extra_cycles=latency.write_extra_cycles,
            )
        return Evaluator(
            self.node,
            config=config,
            n_references=self.n_references,
            seed=self.seed,
            benchmarks=self.benchmarks,
        )


# Per-process evaluator cache: workers (and the serial path) reuse the
# expensive benchmark traces across tasks that share a spec.  Bounded so
# long-lived processes running many differently-scaled contexts don't
# accumulate traces without limit.
DEFAULT_EVALUATOR_CACHE_SIZE = 6

_EVALUATOR_CACHE: "OrderedDict[EvaluatorSpec, Evaluator]" = OrderedDict()
_EVALUATOR_CACHE_MAX = DEFAULT_EVALUATOR_CACHE_SIZE


def evaluator_cache_size() -> int:
    """The current process-local evaluator LRU capacity."""
    return _EVALUATOR_CACHE_MAX


def set_evaluator_cache_size(size: int) -> None:
    """Resize the process-local evaluator LRU (evicting if shrinking).

    Worker processes inherit the size from the
    :class:`ParallelChipRunner` that spawned them; raise it when one run
    interleaves more than ``DEFAULT_EVALUATOR_CACHE_SIZE`` distinct
    :class:`EvaluatorSpec` shapes and trace regeneration shows up in
    profiles.
    """
    global _EVALUATOR_CACHE_MAX
    if size < 1:
        raise ConfigurationError(
            f"evaluator cache size must be >= 1, got {size}"
        )
    _EVALUATOR_CACHE_MAX = size
    while len(_EVALUATOR_CACHE) > _EVALUATOR_CACHE_MAX:
        _EVALUATOR_CACHE.popitem(last=False)


def clear_evaluator_cache() -> None:
    """Drop every process-local cached evaluator (and its traces)."""
    _EVALUATOR_CACHE.clear()


def evaluator_for(spec: EvaluatorSpec) -> Evaluator:
    """The process-local cached evaluator for ``spec``."""
    evaluator = _EVALUATOR_CACHE.get(spec)
    if evaluator is None:
        # Evict before building, so a full cache never holds one
        # evaluator more than its capacity while the new one is built.
        while len(_EVALUATOR_CACHE) >= _EVALUATOR_CACHE_MAX:
            _EVALUATOR_CACHE.popitem(last=False)
        with trace_mod.span(
            "build_evaluator", cat="traces",
            node=getattr(spec.node, "name", str(spec.node)),
            n_references=spec.n_references,
        ):
            evaluator = spec.build()
        _EVALUATOR_CACHE[spec] = evaluator
    else:
        _EVALUATOR_CACHE.move_to_end(spec)
    return evaluator


def _init_worker(cache_size: int) -> None:
    """Process-pool initializer: propagate the evaluator LRU capacity."""
    set_evaluator_cache_size(cache_size)


@dataclass(frozen=True)
class SchemeOutcome:
    """The scalar reduction of one (chip, scheme) evaluation.

    Carries everything any experiment driver consumes, so the full
    :class:`~repro.core.evaluation.ChipEvaluation` (with its per-benchmark
    cache statistics) never crosses a process boundary.
    """

    scheme: str
    discarded: bool = False
    normalized_performance: float = 0.0
    dynamic_power_normalized: float = 0.0
    bips: float = 0.0
    worst_benchmark: str = ""
    worst_performance: float = 0.0
    mean_dynamic_power_watts: float = 0.0
    ideal_power_watts: float = 0.0
    refresh_power_normalized: float = 0.0
    """Closed-form global-refresh share of ``dynamic_power_normalized``;
    zero for line-level schemes."""
    mean_miss_rate: float = 0.0
    """Suite-mean L1 miss rate (includes expiry-induced misses)."""
    mean_expired_miss_rate: float = 0.0
    """Suite-mean rate of accesses that missed because the line's
    retention expired (or the line is dead) -- the technology-variation
    signal the cross-backend comparison tracks."""
    kernel_paths: Tuple[Tuple[str, str], ...] = ()
    """Per-benchmark replay path (``(benchmark, path)`` pairs, in suite
    order) that produced this outcome's statistics -- see
    :func:`repro.core.kernel_support`.  Empty for discarded chips."""


@dataclass(frozen=True, eq=False)
class EvalTask:
    """One unit of evaluation work shipped to a worker.

    ``kind`` selects the payload:

    * ``"schemes"`` -- evaluate ``chip`` under each named scheme; returns
      a tuple of :class:`SchemeOutcome` (one per scheme, in order).
    * ``"ideal_ipc"`` -- per-benchmark IPC of the golden design on the
      spec's suite; returns a tuple of floats.
    """

    evaluator: EvaluatorSpec
    kind: str = "schemes"
    chip: Optional[DRAM3T1DChipSample] = None
    schemes: Tuple[str, ...] = ()
    benchmarks: Optional[Tuple[str, ...]] = None
    """Optional benchmark subset passed to ``Evaluator.evaluate`` (the
    evaluator still hosts the full suite's traces)."""

    def __post_init__(self) -> None:
        if self.kind not in ("schemes", "ideal_ipc"):
            raise ConfigurationError(f"unknown EvalTask kind {self.kind!r}")
        if self.kind == "schemes":
            if self.chip is None:
                raise ConfigurationError("a 'schemes' task needs a chip")
            if not self.schemes:
                raise ConfigurationError(
                    "a 'schemes' task needs at least one scheme"
                )


@dataclass(frozen=True, eq=False)
class EvalGroup:
    """Consecutive ``"schemes"`` tasks evaluated as one chip batch.

    :meth:`ParallelChipRunner.evaluate` packs tasks that share a spec,
    schemes and benchmark subset into groups, so a worker hands the
    whole batch to :func:`~repro.core.batcheval.evaluate_many` (and its
    chip-lane kernel); the result is one outcome tuple per chip, in
    order, exactly as the separate tasks would have returned.
    """

    evaluator: EvaluatorSpec
    chips: Tuple[DRAM3T1DChipSample, ...]
    schemes: Tuple[str, ...]
    benchmarks: Optional[Tuple[str, ...]] = None


def _evaluate_schemes(
    evaluator: Evaluator,
    chips: Sequence[DRAM3T1DChipSample],
    schemes: Tuple[str, ...],
    benchmarks: Optional[Tuple[str, ...]],
) -> List[Tuple[SchemeOutcome, ...]]:
    """Per chip, the :class:`SchemeOutcome` of each scheme."""
    rows = evaluate_many(chips, schemes, evaluator, benchmarks=benchmarks)
    return [
        _scheme_outcomes(evaluator, chip, schemes, row)
        for chip, row in zip(chips, rows)
    ]


def _scheme_outcomes(
    evaluator: Evaluator,
    chip: DRAM3T1DChipSample,
    schemes: Tuple[str, ...],
    evaluations: Sequence,
) -> Tuple[SchemeOutcome, ...]:
    outcomes: List[SchemeOutcome] = []
    for name, evaluation in zip(schemes, evaluations):
        scheme = get_scheme(name)
        if evaluation is None:
            outcomes.append(SchemeOutcome(scheme=name, discarded=True))
            continue
        results = evaluation.results
        worst_name, worst_perf = evaluation.worst_benchmark
        ideal_watts = float(np.mean([
            r.dynamic_power_watts / max(r.dynamic_power_normalized, 1e-12)
            for r in results.values()
        ]))
        refresh_norm = 0.0
        if scheme.is_global:
            technology = getattr(chip, "technology", "3t1d")
            power_model = CachePowerModel(
                evaluator.node,
                cell_kind="3T1D" if technology == "3t1d" else technology,
                geometry=evaluator.config.geometry,
            )
            refresh_watts = power_model.global_refresh_power(
                chip.chip_retention_time
            )
            refresh_norm = refresh_watts / ideal_watts
        with_stats = [r for r in results.values() if r.stats is not None]
        outcomes.append(
            SchemeOutcome(
                scheme=name,
                normalized_performance=evaluation.normalized_performance,
                dynamic_power_normalized=evaluation.dynamic_power_normalized,
                bips=evaluation.bips,
                worst_benchmark=worst_name,
                worst_performance=worst_perf,
                mean_dynamic_power_watts=float(np.mean(
                    [r.dynamic_power_watts for r in results.values()]
                )),
                ideal_power_watts=ideal_watts,
                refresh_power_normalized=refresh_norm,
                mean_miss_rate=float(np.mean(
                    [r.stats.miss_rate for r in with_stats]
                )) if with_stats else 0.0,
                mean_expired_miss_rate=float(np.mean(
                    [r.stats.expired_miss_rate for r in with_stats]
                )) if with_stats else 0.0,
                kernel_paths=tuple(
                    (bench, result.kernel_path)
                    for bench, result in results.items()
                ),
            )
        )
    return tuple(outcomes)


def run_eval_task(task: Union[EvalTask, EvalGroup]):
    """Execute one evaluation task or chip group (in a worker or inline)."""
    evaluator = evaluator_for(task.evaluator)
    if isinstance(task, EvalGroup):
        with trace_mod.span(
            "evaluate_chip", cat="evaluate",
            chips=len(task.chips), schemes=len(task.schemes),
        ):
            return tuple(_evaluate_schemes(
                evaluator, task.chips, task.schemes, task.benchmarks
            ))
    if task.kind == "ideal_ipc":
        with trace_mod.span("ideal_ipc", cat="evaluate"):
            ideal = IdealCacheArchitecture(
                evaluator.node, config=evaluator.config
            )
            return tuple(
                evaluator.evaluate_benchmark(ideal, name).ipc
                for name in evaluator.benchmarks
            )
    with trace_mod.span(
        "evaluate_chip", cat="evaluate",
        chip_id=getattr(task.chip, "chip_id", -1),
        schemes=len(task.schemes),
    ):
        return _evaluate_schemes(
            evaluator, (task.chip,), task.schemes, task.benchmarks
        )[0]


def run_build_task(task: ChipBuildTask):
    """Execute one chip-build task (in a worker or inline)."""
    with trace_mod.span(
        "build_chip", cat="build", chip_id=getattr(task, "chip_id", -1)
    ):
        return task.build()


#: Target chips per :class:`EvalGroup`: where the lane kernel's cost per
#: chip levels off.  On the 20k-reference suite (no-refresh/LRU plus
#: partial-refresh/DSP, 2-core host) a chip cost 15.2 ms per
#: benchmark replayed alone, 5.6 ms in a batch of 4, 4.1 ms in 8, and
#: 3.6-3.9 ms in 16-32; past 8 a bigger group saves little and loses
#: more work to a kill or a retry.
_CHIP_GROUP = 8

#: Fewest chips a run needs before it is grouped.  Below this, batching
#: saves too little to give up spreading the chips over workers.
_MIN_CHIP_GROUP = 4


def _chip_groups(
    tasks: Sequence[EvalTask],
) -> List[Union[EvalTask, EvalGroup]]:
    """Pack runs of like ``"schemes"`` tasks into :class:`EvalGroup` items.

    A run of ``n`` consecutive tasks sharing spec, schemes and
    benchmarks splits evenly into ``ceil(n / _CHIP_GROUP)`` groups (so
    each holds at least ``_MIN_CHIP_GROUP`` chips) when ``n`` is at least
    ``_MIN_CHIP_GROUP``; shorter runs keep their per-chip tasks (and task
    keys) unchanged.  The split depends on the run alone, never on the
    worker count, so journal keys carry over when a run resumes at a
    different width.
    """
    work: List[Union[EvalTask, EvalGroup]] = []
    for _, run in itertools.groupby(tasks, key=lambda task: (
        (task.evaluator, task.schemes, task.benchmarks)
        if task.kind == "schemes" else task
    )):
        run = list(run)
        if run[0].kind != "schemes" or len(run) < _MIN_CHIP_GROUP:
            work.extend(run)
            continue
        head = run[0]
        groups = -(-len(run) // _CHIP_GROUP)
        for chunk in np.array_split(np.arange(len(run)), groups):
            work.append(EvalGroup(
                evaluator=head.evaluator,
                chips=tuple(run[i].chip for i in chunk),
                schemes=head.schemes,
                benchmarks=head.benchmarks,
            ))
    return work


@dataclass
class RunnerStats:
    """Robustness counters one :class:`ParallelChipRunner` accumulates."""

    task_retries: int = 0
    worker_respawns: int = 0
    tasks_quarantined: int = 0
    results_checkpointed: int = 0
    results_resumed: int = 0


def _supervised_call(
    fn: Callable[[Any], Any],
    task: Any,
    plan: Optional[FaultPlan],
    key: str,
    attempt: int,
    hard_faults: bool,
    collect_spans: bool = False,
):
    """Run one task under the (optional) fault plan.

    Module-level so it pickles by name into workers; ``hard_faults``
    selects process-killing crash injection (pool) vs. raising (inline).

    With ``collect_spans`` (pool submissions of a traced run) the task
    runs under a per-task span collector and the result travels home
    wrapped in a :class:`~repro.engine.trace.TracedResult` -- which the
    supervisor unwraps *before* journalling or returning anything, so
    profiling never touches outputs.  The inline path never wraps: the
    coordinator's ambient tracer receives spans directly.
    """
    kind = None
    if plan is not None:
        kind = plan.apply(key, attempt, hard_faults)
    if not collect_spans:
        result = fn(task)
        if kind == "corrupt":
            return CorruptedPayload(task_key=key, attempt=attempt)
        return result
    with trace_mod.collect_task_spans() as collected:
        result = fn(task)
    if kind == "corrupt":
        result = CorruptedPayload(task_key=key, attempt=attempt)
    return trace_mod.TracedResult(
        value=result,
        spans=collected.spans,
        pid=os.getpid(),
        peak_rss_kb=trace_mod.peak_rss_kb(),
    )


_MISSING = object()

#: How long the supervisor blocks waiting for completions before it
#: re-checks task deadlines and due retries.
_SUPERVISION_TICK = 0.1


class ParallelChipRunner:
    """Schedules chip batches over a supervised process pool.

    ``workers=1`` (or a single-item batch) runs inline in the calling
    process; results are always returned in task order, and are
    bit-identical across worker counts because every task is
    deterministically seeded and self-contained.

    The runner is configured by an :class:`EngineConfig`; the legacy
    ``workers=`` / ``evaluator_cache_size=`` keywords completed their
    deprecation cycle and were removed.  Beyond scheduling, it supervises the
    pool: per-task timeouts, bounded retries with deterministic backoff,
    crashed-worker respawn, poison-task quarantine (a task that exhausts
    its pool retry budget finishes inline instead), and graceful
    degradation to serial execution after repeated pool failures.  When
    the config names a ``checkpoint_dir``, every completed work item is
    flushed to a :class:`~repro.engine.checkpoint.RunJournal` keyed by
    the task's content digest, and ``resume=True`` restores completed
    items instead of recomputing them -- none of which changes results.
    """

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        *,
        run_key: str = "",
    ):
        if config is None:
            config = EngineConfig()
        elif not isinstance(config, EngineConfig):
            raise TypeError(
                "ParallelChipRunner takes an EngineConfig; the legacy "
                "workers=/evaluator_cache_size= arguments were removed "
                "-- pass EngineConfig(workers=..., "
                "evaluator_cache_size=...) instead"
            )
        self.config = config
        self.workers = config.effective_workers
        if config.evaluator_cache_size is not None:
            # Applies to the serial/inline path immediately; worker
            # processes pick it up through the pool initializer.
            set_evaluator_cache_size(config.evaluator_cache_size)
        self.evaluator_cache_size = (
            config.evaluator_cache_size
            if config.evaluator_cache_size is not None
            else _EVALUATOR_CACHE_MAX
        )
        self.run_key = run_key
        self.stats = RunnerStats()
        self._executor: Optional[ProcessPoolExecutor] = None
        self._backend_executor: Optional[Any] = None
        self._journal: Optional[RunJournal] = None
        self._journal_opened = False
        self._degraded = False
        self._pool_failures = 0

    # ------------------------------------------------------------------

    @property
    def degraded(self) -> bool:
        """True once repeated pool failures forced serial execution."""
        return self._degraded

    @property
    def pool_failures(self) -> int:
        """Pool breakdowns (crashes/timeouts) seen so far."""
        return self._pool_failures

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_init_worker,
                initargs=(self.evaluator_cache_size,),
            )
        return self._executor

    def _shutdown_executor(self, force: bool = False) -> None:
        executor = self._executor
        self._executor = None
        if executor is None:
            return
        if not force:
            executor.shutdown()
            return
        # A broken or hung pool: don't wait for it, and reclaim any
        # worker still grinding on a timed-out task.  ``_processes`` is
        # private, so treat the kill as best-effort.
        processes = getattr(executor, "_processes", None) or {}
        alive = list(processes.values())
        executor.shutdown(wait=False, cancel_futures=True)
        for process in alive:
            try:
                process.kill()
            except Exception:
                pass

    def _ensure_journal(self) -> Optional[RunJournal]:
        if not self._journal_opened:
            self._journal_opened = True
            if self.config.checkpoint_dir is not None:
                path = RunJournal.path_for(
                    self.config.checkpoint_dir, self.run_key
                )
                self._journal = RunJournal(path, resume=self.config.resume)
        return self._journal

    # ------------------------------------------------------------------

    def map(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Any],
        observer: Subscriber = NULL_OBSERVER,
        label: str = "batch",
    ) -> List[Any]:
        """Run ``fn`` over ``tasks``; results come back in task order.

        ``fn`` must be a module-level callable (it crosses the process
        boundary by reference).  ``observer`` is any typed-event
        subscriber (an :class:`~repro.engine.events.EventStream`, a
        legacy :class:`RunObserver`, or a bare callable); it sees one
        :class:`~repro.engine.events.ChipCompleted` per computed item in
        completion order, the batch lifecycle events, the robustness
        events when recovery paths fire, and -- on traced pool runs --
        one :class:`~repro.engine.events.SpansCollected` per task.
        """
        tasks = list(tasks)
        total = len(tasks)
        dispatch(observer, BatchStarted(label, total))
        start = time.perf_counter()
        journal = self._ensure_journal()
        plan = self.config.fault_plan
        keys: Optional[List[str]] = None
        if (
            journal is not None
            or plan is not None
            or self.config.backend != LOCAL_BACKEND
        ):
            keys = [task_key(fn, task) for task in tasks]
        results: List[Any] = [_MISSING] * total
        if journal is not None:
            restored = 0
            with trace_mod.span("journal_restore", cat="checkpoint",
                                label=label) as restore_span:
                for index in range(total):
                    if keys[index] in journal:
                        results[index] = journal.get(keys[index])
                        restored += 1
                restore_span.set(restored=restored)
            if restored:
                self.stats.results_resumed += restored
                dispatch(observer, RunResumed(label, restored))
        remaining = [i for i in range(total) if results[i] is _MISSING]
        state = {"completed": total - len(remaining), "flushed": 0}

        def finish(index: int, value: Any) -> None:
            results[index] = value
            state["completed"] += 1
            if journal is not None and journal.record(keys[index], value):
                state["flushed"] += 1
            dispatch(observer, ChipCompleted(label, state["completed"], total))

        if remaining:
            if self.config.backend != LOCAL_BACKEND:
                self._run_backend(fn, tasks, keys, remaining, finish,
                                  observer, label)
            elif self.workers <= 1 or len(remaining) <= 1 or self._degraded:
                self._run_serial(fn, tasks, keys, remaining, finish,
                                 observer, label)
            else:
                self._run_pool(fn, tasks, keys, remaining, finish,
                               observer, label)
                leftovers = [i for i in remaining if results[i] is _MISSING]
                if leftovers:
                    # Quarantined tasks and the tail of a degraded run
                    # finish inline, where a persistent failure surfaces
                    # as a real traceback.
                    self._run_serial(fn, tasks, keys, leftovers, finish,
                                     observer, label)
        if state["flushed"]:
            self.stats.results_checkpointed += state["flushed"]
            dispatch(observer, RunCheckpointed(label, state["flushed"]))
        dispatch(observer, BatchEnded(label, total,
                                      time.perf_counter() - start))
        return results

    # ------------------------------------------------------------------

    def _run_serial(
        self,
        fn: Callable[[Any], Any],
        tasks: List[Any],
        keys: Optional[List[str]],
        indices: Sequence[int],
        finish: Callable[[int, Any], None],
        observer: Subscriber,
        label: str,
    ) -> None:
        """Inline execution with the same retry budget as the pool."""
        plan = self.config.fault_plan
        for index in indices:
            key = keys[index] if keys is not None else ""
            failures = 0
            while True:
                try:
                    value = _supervised_call(
                        fn, tasks[index], plan, key, failures, False
                    )
                    if isinstance(value, CorruptedPayload):
                        raise ExecutionError(
                            f"corrupted payload from task {index} of "
                            f"{label!r} (attempt {value.attempt})"
                        )
                    break
                except Exception as exc:
                    failures += 1
                    if failures > self.config.max_retries:
                        raise ExecutionError(
                            f"task {index} of batch {label!r} failed "
                            f"{failures} times; giving up"
                        ) from exc
                    self.stats.task_retries += 1
                    dispatch(
                        observer, TaskRetried(label, index, failures, repr(exc))
                    )
                    time.sleep(self.config.retry_backoff(failures))
            finish(index, value)

    def _run_backend(
        self,
        fn: Callable[[Any], Any],
        tasks: List[Any],
        keys: Optional[List[str]],
        remaining: Sequence[int],
        finish: Callable[[int, Any], None],
        observer: Subscriber,
        label: str,
    ) -> None:
        """Route a batch through the configured execution backend.

        Non-local backends (``"subprocess-fleet"`` and anything
        registered via
        :func:`repro.service.backends.register_execution_backend`) come
        here; the executor is created lazily on first use and lives
        until :meth:`close`, so a persistent fleet amortises across
        batches.  Where an :class:`~repro.service.api.ExecutionService`
        shares a fleet for the config's queue directory, the executor
        is a lease on it, and :meth:`close` only releases the lease.
        Supervision events the executor reports are folded
        into :attr:`stats` exactly like the pool path's.
        """
        from repro.service.backends import BatchItem, get_execution_backend

        if self._backend_executor is None:
            backend = get_execution_backend(self.config.backend)
            self._backend_executor = backend.executor(self.config)

        def notify(event: Any) -> None:
            if isinstance(event, TaskRetried):
                self.stats.task_retries += 1
            elif isinstance(event, WorkerRespawned):
                self.stats.worker_respawns += 1
            dispatch(observer, event)

        items = [BatchItem(i, keys[i], tasks[i]) for i in remaining]
        for index, value in self._backend_executor.run_batch(
            fn, items, notify, label=label
        ):
            finish(index, value)

    def _run_pool(
        self,
        fn: Callable[[Any], Any],
        tasks: List[Any],
        keys: Optional[List[str]],
        remaining: Sequence[int],
        finish: Callable[[int, Any], None],
        observer: Subscriber,
        label: str,
    ) -> None:
        """The supervision loop: submit, watch deadlines, retry, respawn."""
        config = self.config
        plan = config.fault_plan
        # Decided once per batch: traced runs ask workers to collect and
        # ship their spans home alongside each result.
        collect_spans = trace_mod.tracing_active()
        attempts: Dict[int, int] = {index: 0 for index in remaining}
        failures: Dict[int, int] = {index: 0 for index in remaining}
        pending: Dict[Any, int] = {}
        deadlines: Dict[Any, float] = {}
        delayed: List[Tuple[float, int]] = []
        quarantined: List[int] = []

        def submit(index: int) -> bool:
            """Submit one task; respawns the pool if submission breaks."""
            key = keys[index] if keys is not None else ""
            while not self._degraded:
                executor = self._ensure_executor()
                try:
                    future = executor.submit(
                        _supervised_call, fn, tasks[index], plan, key,
                        attempts[index], True, collect_spans,
                    )
                except BrokenExecutor:
                    note_pool_failure()
                    continue
                pending[future] = index
                if config.task_timeout is not None:
                    deadlines[future] = (
                        time.monotonic() + config.task_timeout
                    )
                return True
            return False

        def note_pool_failure() -> None:
            self._pool_failures += 1
            self.stats.worker_respawns += 1
            self._shutdown_executor(force=True)
            dispatch(observer, WorkerRespawned(label, self._pool_failures))
            if self._pool_failures >= config.max_pool_failures:
                self._degraded = True

        def task_failed(index: int, reason: str) -> None:
            failures[index] += 1
            attempts[index] += 1
            if failures[index] > config.max_retries:
                quarantined.append(index)
                self.stats.tasks_quarantined += 1
            else:
                self.stats.task_retries += 1
                dispatch(
                    observer,
                    TaskRetried(label, index, failures[index], reason),
                )
                delayed.append((
                    time.monotonic() + config.retry_backoff(failures[index]),
                    index,
                ))

        for index in remaining:
            if not submit(index):
                return
        while (pending or delayed) and not self._degraded:
            now = time.monotonic()
            for entry in [e for e in delayed if e[0] <= now]:
                delayed.remove(entry)
                if not submit(entry[1]):
                    return
            if not pending:
                if not delayed:
                    break
                next_due = min(entry[0] for entry in delayed)
                pause = min(_SUPERVISION_TICK, next_due - time.monotonic())
                if pause > 0:
                    time.sleep(pause)
                continue
            done, _ = wait(
                list(pending), timeout=_SUPERVISION_TICK,
                return_when=FIRST_COMPLETED,
            )
            broken = False
            in_flight_casualties: List[int] = []
            for future in done:
                index = pending.pop(future)
                deadlines.pop(future, None)
                try:
                    value = future.result()
                except BrokenExecutor:
                    # The pool died under this task; it may or may not
                    # be the culprit, so it is resubmitted (with a fresh
                    # attempt number) rather than charged a failure.
                    broken = True
                    in_flight_casualties.append(index)
                    continue
                except Exception as exc:
                    task_failed(index, repr(exc))
                    continue
                if isinstance(value, trace_mod.TracedResult):
                    # Unwrap BEFORE journalling/returning: profiling
                    # data must never reach results or checkpoints.
                    dispatch(observer, SpansCollected(
                        label, value.spans, value.pid, value.peak_rss_kb,
                    ))
                    value = value.value
                if isinstance(value, CorruptedPayload):
                    task_failed(
                        index,
                        f"corrupted payload (attempt {value.attempt})",
                    )
                    continue
                finish(index, value)
            now = time.monotonic()
            timed_out = [
                future for future, deadline in deadlines.items()
                if deadline <= now
            ]
            for future in timed_out:
                index = pending.pop(future)
                deadlines.pop(future, None)
                task_failed(
                    index, f"task timeout after {config.task_timeout:g}s"
                )
                # The worker is still grinding on the hung task; the
                # only way to reclaim it is to recycle the pool.
                broken = True
            if broken:
                survivors = sorted(pending.values()) + in_flight_casualties
                pending.clear()
                deadlines.clear()
                note_pool_failure()
                if self._degraded:
                    return
                for index in survivors:
                    attempts[index] += 1
                    if not submit(index):
                        return

    def build_chips(
        self,
        tasks: Sequence[ChipBuildTask],
        observer: Subscriber = NULL_OBSERVER,
        label: str = "sample chips",
    ) -> List[Any]:
        """Realize reserved chip-build tasks (order = reservation order)."""
        return self.map(run_build_task, tasks, observer=observer, label=label)

    def evaluate(
        self,
        tasks: Sequence[EvalTask],
        observer: Subscriber = NULL_OBSERVER,
        label: str = "evaluate chips",
    ) -> List[Any]:
        """Run evaluation tasks; one result per task, in task order.

        Consecutive ``"schemes"`` tasks that share a spec, schemes and
        benchmarks run as :class:`EvalGroup` chip batches (see
        :func:`_chip_groups`), so the chip-lane kernel can replay each
        group at once; results are unpacked back to one per task, and
        journal records, fault injection and
        :class:`~repro.engine.events.ChipCompleted` events count groups.
        After the batch completes, the replay paths taken per
        scheme x benchmark cell are aggregated and reported through one
        :class:`~repro.engine.events.KernelPathsCollected` event.
        """
        work = _chip_groups(list(tasks))
        results: List[Any] = []
        for item, value in zip(work, self.map(
            run_eval_task, work, observer=observer, label=label
        )):
            if isinstance(item, EvalGroup):
                results.extend(value)
            else:
                results.append(value)
        paths: Dict[str, str] = {}
        for value in results:
            if not isinstance(value, tuple):
                continue
            for outcome in value:
                if not isinstance(outcome, SchemeOutcome):
                    continue
                for bench, path in outcome.kernel_paths:
                    paths[f"{outcome.scheme}/{bench}"] = path
        if paths:
            dispatch(observer, KernelPathsCollected(
                label, tuple(sorted(paths.items())),
            ))
        return results

    # ------------------------------------------------------------------

    def close(self) -> None:
        """Shut the worker pool and journal down.

        A later batch re-creates the pool; the journal re-opens in
        resume mode so already-flushed results survive the close.
        """
        self._shutdown_executor()
        if self._backend_executor is not None:
            self._backend_executor.close()
            self._backend_executor = None
        if self._journal is not None:
            self._journal.close()
            self._journal = None
        if self._journal_opened and self.config.checkpoint_dir is not None:
            # Re-open on next use without discarding flushed entries.
            self.config = self.config.replace(resume=True)
        self._journal_opened = False

    def __enter__(self) -> "ParallelChipRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = [
    "DEFAULT_EVALUATOR_CACHE_SIZE",
    "EvaluatorSpec",
    "EvalGroup",
    "EvalTask",
    "SchemeOutcome",
    "ParallelChipRunner",
    "RunnerStats",
    "clear_evaluator_cache",
    "evaluator_cache_size",
    "evaluator_for",
    "run_eval_task",
    "run_build_task",
    "set_evaluator_cache_size",
]
