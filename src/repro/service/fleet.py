"""Subprocess-fleet batch execution over the durable task queue.

:class:`SubprocessFleetExecutor` is the coordinator half of the
``"subprocess-fleet"`` backend: it spawns N persistent
``python -m repro.service.worker`` processes over one
:class:`~repro.service.queue.DurableTaskQueue`; its clients, the
:class:`FleetLease` batch executors, enqueue each batch item under its
content-digest task key and poll for durably recorded results.  Supervision mirrors the in-process pool where the queue makes
it meaningful: a SIGKILLed worker is respawned and its claimed tasks are
requeued (:class:`~repro.engine.events.WorkerRespawned` fires), and an
erroring task is re-enqueued up to the config's retry budget
(:class:`~repro.engine.events.TaskRetried`) before the batch fails with
:class:`~repro.errors.ExecutionError`.

Because results are keyed by content digest, the queue directory *is*
the fleet-wide memo: a second run -- or a concurrent client sharing the
same ``queue_dir`` -- never recomputes a key any worker has finished,
and :attr:`FleetLease.deduped` counts exactly those skips.

A fleet either belongs to one runner -- whose lease owns it: spawned at
its first batch, stopped when the lease closes -- or outlives many
runners: the :class:`~repro.service.api.ExecutionService` opens one
shared fleet per fleet configuration, and each job's runner borrows it
through a lease of its own.  Closing the last borrowed lease writes the
queue's release signal, on which workers drop their evaluator caches;
only :meth:`SubprocessFleetExecutor.close` stops and reaps the workers.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Set, Tuple

from repro.errors import ConfigurationError, ExecutionError
from repro.engine.config import EngineConfig
from repro.engine.events import EngineEvent, TaskRetried, WorkerRespawned
from repro.service.backends import BatchExecutor
from repro.service.queue import (
    DurableTaskQueue,
    OK,
    TaskEnvelope,
)

#: Coordinator poll period while waiting on queue results.
RESULT_POLL_S = 0.02

#: Seconds a stopping fleet worker gets before it is killed.
SHUTDOWN_GRACE_S = 5.0


def _worker_env() -> Dict[str, str]:
    """Child environment with the repro package importable by name."""
    import repro

    package_root = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_root if not existing
        else os.pathsep.join([package_root, existing])
    )
    return env


def resolve_queue_dir(config: EngineConfig) -> Tuple[pathlib.Path, bool]:
    """The queue directory for ``config``; True when it is private.

    An explicit ``queue_dir`` (shared fleet-wide dedupe) wins; otherwise
    the queue rides next to the run journal under ``checkpoint_dir``;
    with neither, a private temporary directory is created (and removed
    when the executor closes).
    """
    if config.queue_dir is not None:
        return config.queue_dir, False
    if config.checkpoint_dir is not None:
        return config.checkpoint_dir / "fleet-queue", False
    return (
        pathlib.Path(tempfile.mkdtemp(prefix="repro-fleet-queue-")), True
    )


def _require_supported(config: EngineConfig) -> None:
    if config.task_timeout is not None:
        raise ConfigurationError(
            "task_timeout is not supported by the subprocess-fleet "
            "backend (workers own their tasks durably); use the "
            "local backend for timeout supervision"
        )


class SubprocessFleetExecutor:
    """Coordinates persistent worker subprocesses over one durable queue.

    Batches run through the :class:`FleetLease` clients :meth:`lease`
    hands out; any number of threads may run them at once, because
    spawning, supervision and respawn happen under one lock and queue
    task keys are content digests.
    """

    def __init__(self, config: EngineConfig):
        _require_supported(config)
        self.config = config
        self.fleet_size = config.effective_fleet_size
        self.queue_dir, self._private_queue = resolve_queue_dir(config)
        self.queue = DurableTaskQueue(self.queue_dir)
        self._workers: Dict[str, subprocess.Popen] = {}
        self._respawns = 0
        self._closed = False
        self._lock = threading.Lock()
        self._leases: Set["FleetLease"] = set()

    # ------------------------------------------------------------------

    def _spawn(self, worker_id: str) -> None:
        command = [
            sys.executable, "-m", "repro.service.worker",
            "--queue", str(self.queue_dir),
            "--worker-id", worker_id,
            "--parent-pid", str(os.getpid()),
        ]
        if self.config.evaluator_cache_size is not None:
            command += [
                "--evaluator-cache-size",
                str(self.config.evaluator_cache_size),
            ]
        self._workers[worker_id] = subprocess.Popen(
            command,
            env=_worker_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    def ensure_fleet(
        self, notify: Callable[[EngineEvent], None], label: str
    ) -> None:
        """Spawn missing workers and respawn dead ones.

        A dead worker's claimed tasks return to the ready set before its
        replacement starts, and each respawn is reported to ``notify``
        (after the lock is released, so a raising subscriber cannot
        leave the fleet half-supervised).
        """
        respawned: List[WorkerRespawned] = []
        with self._lock:
            if self._closed:
                raise ExecutionError("fleet executor already closed")
            for n in range(self.fleet_size):
                worker_id = f"w{n:03d}"
                process = self._workers.get(worker_id)
                if process is not None:
                    if process.poll() is None:
                        continue
                    self.queue.requeue_worker(worker_id)
                    self._respawns += 1
                    respawned.append(WorkerRespawned(label, self._respawns))
                # A queue reused across runs may hold a stale stop.
                self.queue.clear_stop()
                self._spawn(worker_id)
        for event in respawned:
            notify(event)

    # ------------------------------------------------------------------

    def lease(
        self, config: EngineConfig, owns_fleet: bool = False
    ) -> "FleetLease":
        """A client of this fleet with ``config``'s retry budget.

        Closing an owning lease closes the fleet; closing a borrowed one
        only releases it.
        """
        _require_supported(config)
        with self._lock:
            if self._closed:
                raise ExecutionError("fleet executor already closed")
            lease = FleetLease(self, config, owns_fleet)
            self._leases.add(lease)
        return lease

    def _release(self, lease: "FleetLease") -> None:
        """Drop one lease; the last one signals the workers to go idle.

        Tasks the lease still waited on (an abandoned batch: cancelled
        or failed) leave the ready set unless another lease waits on
        them too, so a cancelled job stops occupying the fleet.
        """
        with self._lock:
            self._leases.discard(lease)
            for key in lease.awaiting:
                if not any(key in other.awaiting for other in self._leases):
                    self.queue.withdraw(key)
            lease.awaiting.clear()
            if not self._leases and self._workers and not self._closed:
                self.queue.request_release()

    def _stream(
        self,
        client: "FleetLease",
        fn: Callable[[Any], Any],
        items: List[Any],
        notify: Callable[[EngineEvent], None],
        label: str,
    ) -> Iterator[Tuple[int, Any]]:
        """The batch loop for one lease (see :meth:`FleetLease.run_batch`).

        ``client`` supplies the retry budget (``config.max_retries``)
        and collects ``deduped`` and the ``awaiting`` key set.
        """
        if self._closed:
            raise ExecutionError("fleet executor already closed")
        by_key: Dict[str, List[int]] = {}
        tasks_by_key: Dict[str, Any] = {}
        for item in items:
            by_key.setdefault(item.key, []).append(item.index)
            tasks_by_key[item.key] = item.task
        envelope_fn = TaskEnvelope.for_call(fn, None)

        def envelope(key: str) -> TaskEnvelope:
            return TaskEnvelope(
                envelope_fn.fn_module, envelope_fn.fn_qualname,
                tasks_by_key[key],
            )

        failures: Dict[str, int] = {key: 0 for key in by_key}
        pending = sorted(by_key)
        with self._lock:
            # Under the lock so a concurrently released lease cannot
            # withdraw a task this batch is about to wait on.
            for key in pending:
                if self.queue.read_result(key) is not None:
                    client.deduped += len(by_key[key])
                else:
                    # False when a concurrent client already enqueued
                    # (or finished) the key; either way the result
                    # arrives.
                    self.queue.enqueue(key, envelope(key))
                client.awaiting.add(key)
        self.ensure_fleet(notify, label)
        while pending:
            progressed = False
            for key in list(pending):
                recorded = self.queue.read_result(key)
                if recorded is None:
                    continue
                status, value = recorded
                if status == OK:
                    pending.remove(key)
                    with self._lock:
                        client.awaiting.discard(key)
                    progressed = True
                    for index in by_key[key]:
                        yield index, value
                    continue
                failures[key] += 1
                self.queue.discard_result(key)
                if failures[key] > client.config.max_retries:
                    raise ExecutionError(
                        f"fleet task {key[:12]} of batch {label!r} failed "
                        f"{failures[key]} times; giving up: {value}"
                    )
                notify(TaskRetried(
                    label, by_key[key][0], failures[key], str(value),
                ))
                self.queue.enqueue(key, envelope(key))
                progressed = True
            if pending and not progressed:
                self.ensure_fleet(notify, label)
                time.sleep(RESULT_POLL_S)

    # ------------------------------------------------------------------

    def close(self) -> None:
        """Stop and reap the fleet; a private queue directory is removed."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._leases.clear()
            workers = sorted(self._workers.items())
            self._workers.clear()
        self.queue.request_stop()
        deadline = time.monotonic() + SHUTDOWN_GRACE_S
        for _, process in workers:
            budget = max(0.0, deadline - time.monotonic())
            try:
                process.wait(timeout=budget)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        if self._private_queue:
            shutil.rmtree(self.queue_dir, ignore_errors=True)


class FleetLease(BatchExecutor):
    """One runner's use of a :class:`SubprocessFleetExecutor`.

    ``run_batch`` runs on the fleet's workers with this lease's retry
    budget.  ``close`` stops the fleet when the lease owns it (a
    runner-owned fleet); a borrowed lease only releases the fleet and
    leaves the workers running for their owner to stop.
    """

    def __init__(
        self,
        fleet: SubprocessFleetExecutor,
        config: EngineConfig,
        owns_fleet: bool = False,
    ):
        self.fleet = fleet
        self.config = config
        self.owns_fleet = owns_fleet
        self.deduped = 0
        """Batch items served from pre-existing queue results."""
        self.awaiting: Set[str] = set()
        """Keys this lease's batches still wait on."""
        self._closed = False

    def run_batch(
        self,
        fn: Callable[[Any], Any],
        items: List[Any],
        notify: Callable[[EngineEvent], None],
        label: str = "batch",
    ) -> Iterator[Tuple[int, Any]]:
        """Yield ``(index, result)`` pairs as queue results land.

        ``items`` are :class:`~repro.service.backends.BatchItem`-shaped
        (``index``/``key``/``task``); identical keys within a batch are
        computed once and fanned out to every index.
        """
        if self._closed:
            raise ExecutionError("fleet lease already closed")
        return self.fleet._stream(self, fn, items, notify, label)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self.owns_fleet:
            self.fleet.close()
        else:
            self.fleet._release(self)


__all__ = [
    "FleetLease",
    "RESULT_POLL_S",
    "SHUTDOWN_GRACE_S",
    "SubprocessFleetExecutor",
    "resolve_queue_dir",
]
