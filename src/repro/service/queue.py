"""Durable on-disk task queue keyed by content-digest task keys.

The queue is a directory protocol, not a server: producers atomically
rename task envelopes into ``tasks/``, workers atomically rename them
into a per-worker ``claims/<worker-id>/`` directory (rename is the
mutual-exclusion primitive -- exactly one claimant wins), and completed
results land in ``results/<key>.result`` via the same tmp-file +
``os.replace`` pattern the :class:`~repro.engine.cache.ResultCache`
uses.  Because every filename is the :func:`repro.engine.checkpoint.
task_key` content digest of its payload, the queue dedupes fleet-wide
for free: enqueueing work that any client already completed is a no-op,
and a crashed worker's claims can be requeued without ever recomputing
a finished key.

Layout under one queue root::

    tasks/<key>.task          ready work (pickled TaskEnvelope)
    claims/<worker-id>/       tasks a live worker is executing
    results/<key>.result      pickled ("ok" | "error", value)
    workers/<worker-id>.pid   liveness breadcrumb, written by workers
    stop                      sentinel: workers drain and exit
    release                   generation counter: bumped when the last
                              client of a shared fleet lets go, so idle
                              workers drop their per-job caches

Envelope functions are referenced by ``module:qualname`` (never pickled
by value), mirroring the engine's rule that task functions cross
process boundaries by name.
"""

from __future__ import annotations

import os
import pathlib
import pickle
import tempfile
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.errors import ConfigurationError

OK = "ok"
ERROR = "error"


@dataclass(frozen=True)
class TaskEnvelope:
    """One queued unit of work: a by-name function plus its payload."""

    fn_module: str
    fn_qualname: str
    task: Any

    @classmethod
    def for_call(cls, fn: Any, task: Any) -> "TaskEnvelope":
        module = getattr(fn, "__module__", None)
        qualname = getattr(fn, "__qualname__", None)
        if (
            not module
            or not qualname
            or module == "__main__"
            or "<locals>" in qualname
        ):
            raise ConfigurationError(
                f"queue task functions must be module-level (importable "
                f"by name from any process); got {fn!r}"
            )
        return cls(fn_module=module, fn_qualname=qualname, task=task)


def _atomic_write(path: pathlib.Path, payload: bytes) -> None:
    """Write ``payload`` to ``path`` via tmp file + atomic replace."""
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


class DurableTaskQueue:
    """Filesystem work queue shared by clients and fleet workers."""

    def __init__(self, root: pathlib.Path):
        self.root = pathlib.Path(root)
        self.tasks_dir = self.root / "tasks"
        self.claims_dir = self.root / "claims"
        self.results_dir = self.root / "results"
        self.workers_dir = self.root / "workers"
        for directory in (
            self.tasks_dir, self.claims_dir, self.results_dir,
            self.workers_dir,
        ):
            directory.mkdir(parents=True, exist_ok=True)

    # -- paths ---------------------------------------------------------

    def task_path(self, key: str) -> pathlib.Path:
        return self.tasks_dir / f"{key}.task"

    def claim_path(self, worker_id: str, key: str) -> pathlib.Path:
        return self.claims_dir / worker_id / f"{key}.task"

    def result_path(self, key: str) -> pathlib.Path:
        return self.results_dir / f"{key}.result"

    @property
    def stop_path(self) -> pathlib.Path:
        return self.root / "stop"

    @property
    def release_path(self) -> pathlib.Path:
        return self.root / "release"

    # -- producer side -------------------------------------------------

    def enqueue(self, key: str, envelope: TaskEnvelope) -> bool:
        """Offer one task; False if its result or the task already exists.

        The result check is the fleet-wide dedupe: a key any client ever
        completed through this queue is never recomputed.
        """
        if self.result_path(key).exists() or self.task_path(key).exists():
            return False
        _atomic_write(
            self.task_path(key),
            pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL),
        )
        return True

    def read_result(self, key: str) -> Optional[Tuple[str, Any]]:
        """The completed ``(status, value)`` for ``key``, or ``None``.

        An unreadable entry (torn by a crash before the atomic replace,
        which cannot happen, or hand-damaged) reads as missing.
        """
        try:
            with open(self.result_path(key), "rb") as handle:
                return pickle.load(handle)
        except FileNotFoundError:
            return None
        except Exception:
            return None

    def discard_result(self, key: str) -> None:
        """Drop a completed result (the retry path for error results)."""
        try:
            self.result_path(key).unlink()
        except FileNotFoundError:
            pass

    def withdraw(self, key: str) -> None:
        """Take a not-yet-claimed task back out of the ready set."""
        try:
            self.task_path(key).unlink()
        except FileNotFoundError:
            pass

    # -- worker side ---------------------------------------------------

    def claim(self, worker_id: str) -> Optional[Tuple[str, TaskEnvelope]]:
        """Atomically take one ready task, or ``None`` when idle.

        The claiming rename moves the envelope under this worker's
        ``claims/`` directory, so a SIGKILLed worker's in-flight work is
        exactly the contents of that directory -- requeueable by the
        coordinator without guessing.
        """
        claim_dir = self.claims_dir / worker_id
        claim_dir.mkdir(parents=True, exist_ok=True)
        for path in sorted(self.tasks_dir.glob("*.task")):
            target = claim_dir / path.name
            try:
                os.rename(path, target)
            except OSError:
                continue  # lost the race to another worker
            key = path.stem
            try:
                with open(target, "rb") as handle:
                    envelope = pickle.load(handle)
            except Exception:
                # Unreadable envelope: record the failure as this task's
                # result so the producer sees it instead of hanging.
                self.complete(worker_id, key, ERROR, "unreadable envelope")
                continue
            return key, envelope
        return None

    def complete(
        self, worker_id: str, key: str, status: str, value: Any
    ) -> None:
        """Durably record one outcome, then release the claim.

        Result-before-claim-release ordering means a crash between the
        two steps leaves a stale claim whose requeue is harmless: the
        re-enqueued task dedupes against the already-written result.
        """
        _atomic_write(
            self.result_path(key),
            pickle.dumps((status, value), protocol=pickle.HIGHEST_PROTOCOL),
        )
        try:
            self.claim_path(worker_id, key).unlink()
        except FileNotFoundError:
            pass

    def write_worker_pid(self, worker_id: str, pid: int) -> None:
        """Leave the worker's liveness breadcrumb."""
        _atomic_write(
            self.workers_dir / f"{worker_id}.pid", str(pid).encode()
        )

    # -- coordinator side ----------------------------------------------

    def requeue_worker(self, worker_id: str) -> List[str]:
        """Return a dead worker's claimed tasks to the ready set."""
        claim_dir = self.claims_dir / worker_id
        requeued: List[str] = []
        if not claim_dir.is_dir():
            return requeued
        for path in sorted(claim_dir.glob("*.task")):
            key = path.stem
            if self.result_path(key).exists():
                # Completed just before the crash: nothing to redo.
                path.unlink()
                continue
            try:
                os.rename(path, self.task_path(key))
            except OSError:
                continue
            requeued.append(key)
        return requeued

    def pending_tasks(self) -> List[str]:
        """Keys currently waiting in the ready set (sorted)."""
        return [p.stem for p in sorted(self.tasks_dir.glob("*.task"))]

    def request_stop(self) -> None:
        """Ask every worker on this queue to exit after its current task."""
        _atomic_write(self.stop_path, b"stop\n")

    def clear_stop(self) -> None:
        try:
            self.stop_path.unlink()
        except FileNotFoundError:
            pass

    def stop_requested(self) -> bool:
        return self.stop_path.exists()

    def request_release(self) -> None:
        """Bump the release generation (single writer: the coordinator)."""
        _atomic_write(
            self.release_path, str(self.release_generation() + 1).encode()
        )

    def release_generation(self) -> int:
        """How many releases were signalled on this queue (0 if none)."""
        try:
            return int(self.release_path.read_text())
        except (FileNotFoundError, ValueError):
            return 0


__all__ = [
    "DurableTaskQueue",
    "ERROR",
    "OK",
    "TaskEnvelope",
]
