"""The three workloads: inputs from the seed, and one timed iteration.

Each iteration runs in a fresh process (see ``child.py``), so its set-up
time and peak memory belong to it alone.  An iteration

1. imports ``repro`` and builds the workload's context or service (the
   set-up), then signals ``READY``;
2. runs the timed part through the public APIs;
3. returns its times, its peak resident set and one digest per
   operation of its full-precision summary.

The program sees only the inputs :func:`make_inputs` derives from the
benchmark seed: experiment seeds, and for ``service`` the job stream
including which jobs repeat an earlier one.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import pathlib
import random
import resource
import statistics
import threading
import time
from typing import Any, Callable, Dict, List

from perfbench import tracing

WORKLOADS = ("fig10", "geomsweep", "service")

#: The workloads ``BENCHMARK.json`` lists.  ``geomsweep`` runs only by
#: hand: its serial iterations spread by more than the 0.25 bound between
#: sets of runs on a shared 2-core host, and a third workload would leave
#: too little of the time budget for runs long enough to steady it.  All
#: of the layers it times are also timed on ``fig10``.
BENCHMARKED = ("fig10", "service")

#: Seed whose report digests ``digests.json`` records.
DEFAULT_SEED = 2007

#: Workload sizes.  ``full`` is what the benchmark measures; ``tiny``
#: keeps the benchmark's own tests fast.
SCALES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        # Figure 10 at the paper geometry on a 2-worker pool; traces long
        # enough that per-set streams are much longer than the ways.
        "fig10": {"chips": 16, "refs": 20000, "workers": 2},
        # The reduced geometry grid: 3 sizes x 3 ways x 2 bankings x 2
        # severities x 3 schemes = 108 cells, serial, short traces.
        "geomsweep": {
            "chips": 1, "refs": 1000, "sizes_kb": [16, 64, 256],
            "ways": [1, 4, 8], "banks": [2, 8],
            "severities": ["typical", "severe"],
        },
        # A closed loop of small Figure 10 jobs on a 2-process fleet;
        # every fourth job repeats an earlier one.
        "service": {"jobs": 12, "chips": 2, "refs": 1000, "fleet_size": 2},
    },
    "tiny": {
        "fig10": {"chips": 2, "refs": 1500, "workers": 2},
        "geomsweep": {
            "chips": 1, "refs": 400, "sizes_kb": [16], "ways": [1, 4],
            "banks": [2], "severities": ["severe"],
        },
        "service": {"jobs": 4, "chips": 1, "refs": 400, "fleet_size": 2},
    },
}


def make_inputs(workload: str, seed: int, scale: str) -> Dict[str, Any]:
    """The workload's inputs; the same seed gives the same inputs."""
    inputs = dict(SCALES[scale][workload])
    rng = random.Random(f"perfbench:{workload}:{seed}")
    if workload == "fig10":
        inputs["workers"] = min(inputs["workers"], os.cpu_count() or 1)
    if workload != "service":
        inputs["seed"] = rng.randrange(1, 2**31)
        return inputs
    jobs: List[Dict[str, Any]] = []
    for index in range(inputs["jobs"]):
        if index % 4 == 3:
            earlier = rng.choice(
                [j for j, job in enumerate(jobs) if job["repeat_of"] is None]
            )
            jobs.append({"seed": jobs[earlier]["seed"], "repeat_of": earlier})
        else:
            jobs.append({"seed": rng.randrange(1, 2**31), "repeat_of": None})
    inputs["jobs"] = jobs
    return inputs


def digest(summary: Any) -> str:
    """SHA-256 of a summary's canonical JSON (floats at full precision)."""
    text = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def summarize_fig10(result) -> Dict[str, Any]:
    """Every number of a Figure 10 result, keyed for the output check."""
    return {
        "chip_ids": [int(chip_id) for chip_id in result.chip_ids],
        "performance": {
            name: [float(v) for v in values]
            for name, values in result.performance.items()
        },
        "power": {
            name: [float(v) for v in values]
            for name, values in result.power.items()
        },
    }


def summarize_geomsweep(result) -> Dict[str, Any]:
    """Every row of a geometry sweep result."""
    return {"rows": [dataclasses.asdict(row) for row in result.rows]}


def peak_rss_mb() -> float:
    """Largest peak resident set of this process or any reaped child."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024


class _RobustnessCounter:
    """Counts retries and respawns on the engine's public event stream."""

    def __init__(self):
        self.retries = 0
        self.respawns = 0

    def __call__(self, event) -> None:
        from repro.engine.events import TaskRetried, WorkerRespawned

        if isinstance(event, TaskRetried):
            self.retries += 1
        elif isinstance(event, WorkerRespawned):
            self.respawns += 1


def _experiment(workload: str, inputs: Dict[str, Any]):
    """The registered experiment the workload runs (grid bound in)."""
    from repro.engine.registry import get_experiment

    if workload == "fig10":
        return get_experiment("fig10_hundred_chips")
    from repro.experiments import geomsweep

    # The registered sweep runs the full 540-cell grid.
    return dataclasses.replace(
        geomsweep.EXPERIMENT,
        run=functools.partial(
            geomsweep.run,
            sizes_kb=tuple(inputs["sizes_kb"]),
            banks_sweep=tuple(inputs["banks"]),
            ways_sweep=tuple(inputs["ways"]),
            severities=tuple(inputs["severities"]),
        ),
    )


def experiment_context(inputs: Dict[str, Any], **fields):
    """The :class:`ExperimentContext` an experiment workload runs under."""
    from repro.engine.config import EngineConfig
    from repro.experiments.runner import ExperimentContext

    return ExperimentContext(
        n_chips=inputs["chips"],
        n_references=inputs["refs"],
        seed=inputs["seed"],
        engine=EngineConfig(workers=inputs.get("workers", 1)),
        **fields,
    )


def _run_experiment(
    workload: str,
    inputs: Dict[str, Any],
    out_dir: pathlib.Path,
    ready: Callable[[], None],
    tracer,
) -> Dict[str, Any]:
    """Run the experiment once and write its report."""
    counter = _RobustnessCounter()
    observer = {"observer": counter} if tracer is not None else {}
    experiment = _experiment(workload, inputs)
    context = experiment_context(inputs, **observer)
    ready()
    uninstall = _install(tracer, in_process_tasks=True)
    try:
        start = time.perf_counter()
        result = experiment.run(context)
        computed = time.perf_counter()
        (out_dir / "report.txt").write_text(experiment.report(result) + "\n")
        end = time.perf_counter()
    finally:
        uninstall()
        context.close()
    summarize = summarize_fig10 if workload == "fig10" else summarize_geomsweep
    summary = summarize(result)
    return {
        "wall_s": end - start,
        "job_s": [computed - start],
        "peak_rss_mb": peak_rss_mb(),
        "operations": [{"digest": digest(summary), "ok": True}],
        "summary": summary,
        "retries": counter.retries,
        "respawns": counter.respawns,
    }


def _run_service(
    inputs: Dict[str, Any],
    out_dir: pathlib.Path,
    ready: Callable[[], None],
    tracer,
) -> Dict[str, Any]:
    """One client submitting the job stream in a closed loop."""
    from repro.engine.config import EngineConfig
    from repro.engine.events import TaskRetried, WorkerRespawned
    from repro.service.api import ExecutionService

    backend = {"backend": "subprocess-fleet",
               "fleet_size": inputs["fleet_size"]}
    service = ExecutionService(
        out_dir / "service", engine=EngineConfig(**backend)
    )
    ready()
    uninstall = _install(tracer, in_process_tasks=False)
    latencies: List[float] = []
    first_events: List[float] = []
    job_ids: List[str] = []
    try:
        start = time.perf_counter()
        for job in inputs["jobs"]:
            before = set(threading.enumerate())
            submitted = time.perf_counter()
            handle = service.submit(
                "fig10_hundred_chips", chips=inputs["chips"],
                refs=inputs["refs"], seed=job["seed"], **backend,
            )
            if tracer is not None:
                first_events.append(
                    _first_event(service, handle.job_id) - submitted
                )
            # submit() runs the job on a new service thread; joining it
            # ends the wait when the job does, without polling the
            # status or scanning the job directory beside the job.
            for thread in set(threading.enumerate()) - before:
                thread.join()
            latencies.append(time.perf_counter() - submitted)
            job_ids.append(handle.job_id)
        end = time.perf_counter()
    finally:
        uninstall()
        service.close()
    retries = respawns = 0
    operations = []
    summaries = []
    for job, job_id in zip(inputs["jobs"], job_ids):
        status = service.status(job_id)
        summary = None
        if status.state == "done":
            summary = summarize_fig10(service.result(job_id))
        summaries.append(summary)
        ok = status.state == "done"
        if job["repeat_of"] is not None:
            original = summaries[job["repeat_of"]]
            ok = ok and status.cached and summary == original
        operations.append(
            {"digest": digest(summary), "ok": ok, "cached": status.cached}
        )
        for event in service.events(job_id):
            retries += isinstance(event, TaskRetried)
            respawns += isinstance(event, WorkerRespawned)
    computes = [
        t for t, job in zip(latencies, inputs["jobs"])
        if job["repeat_of"] is None
    ]
    repeats = [
        t for t, job in zip(latencies, inputs["jobs"])
        if job["repeat_of"] is not None
    ]
    cached_repeats = sum(
        1 for op, job in zip(operations, inputs["jobs"])
        if job["repeat_of"] is not None and op["cached"]
    )
    return {
        "wall_s": end - start,
        "job_s": computes,
        "hit_s": repeats,
        "peak_rss_mb": peak_rss_mb(),
        "operations": operations,
        "summary": {"jobs": summaries},
        "retries": retries,
        "respawns": respawns,
        "first_event_s": first_events,
        "repeats": len(repeats),
        "cached_repeats": cached_repeats,
    }


def _first_event(service, job_id: str) -> float:
    """When the job's first event became readable (1 ms polling)."""
    while True:
        if next(iter(service.events(job_id)), None) is not None:
            return time.perf_counter()
        if service.status(job_id).terminal:
            return time.perf_counter()
        time.sleep(0.001)


def _install(tracer, in_process_tasks: bool) -> Callable[[], None]:
    if tracer is None:
        return lambda: None
    return tracing.install(tracer, in_process_tasks=in_process_tasks)


def run_iteration(
    workload: str,
    inputs: Dict[str, Any],
    out_dir: pathlib.Path,
    ready: Callable[[], None],
    run_id: str,
    traced: bool,
) -> Dict[str, Any]:
    """Set up, signal ``ready``, run the timed part; returns the record.

    A traced iteration also returns the per-layer metrics of its spans
    and writes the spans to ``spans.json`` in ``out_dir`` once the run
    has ended.
    """
    tracer = tracing.Tracer(run_id) if traced else None
    if workload == "service":
        record = _run_service(inputs, out_dir, ready, tracer)
    else:
        record = _run_experiment(workload, inputs, out_dir, ready, tracer)
    record["traced"] = traced
    if tracer is not None:
        spans = tracer.to_records()
        (out_dir / "spans.json").write_text(json.dumps(spans))
        layers = tracing.layer_metrics(spans)
        layers["engine.retries"] = record["retries"]
        layers["engine.respawns"] = record["respawns"]
        first = record.get("first_event_s") or []
        layers["service.first_event_s"] = (
            statistics.median(first) if first else 0.0
        )
        repeats = record.get("repeats", 0)
        layers["service.repeats"] = repeats
        layers["service.dedupe_ratio"] = (
            record["cached_repeats"] / repeats if repeats else 0.0
        )
        record["layers"] = layers
    return record
