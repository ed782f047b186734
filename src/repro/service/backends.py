"""Pluggable execution backends behind ``EngineConfig.backend``.

An :class:`ExecutionBackend` is the protocol surface a work-distribution
strategy implements: given an :class:`~repro.engine.config.EngineConfig`
it produces a *batch executor* whose ``run_batch`` streams
``(index, result)`` pairs for a batch of content-keyed items and whose
``close`` releases whatever the strategy holds (processes, queue
directories, connections).  The
:class:`~repro.engine.parallel.ParallelChipRunner` resolves non-local
backend names through :func:`get_execution_backend` lazily, so the
engine never imports this package for the default path and third-party
backends (a remote-host fleet speaking the same queue protocol, say)
plug in with :func:`register_execution_backend` -- the two built-ins are
registered the same way a remote backend would be.

Executor contract (what a remote-host backend must provide):

* ``run_batch(fn, items, notify, label)`` -- ``fn`` is a module-level
  callable (crosses boundaries by name), ``items`` are
  :class:`BatchItem` records whose ``key`` is the content digest of
  ``(fn, task)``, ``notify`` accepts typed
  :mod:`repro.engine.events` records for supervision reporting.  Yields
  every item's ``(index, result)`` exactly once, in any order; raises
  :class:`~repro.errors.ExecutionError` when an item exhausts its retry
  budget.  Results must be bit-identical to inline execution of
  ``fn(task)`` -- the cross-backend identity tests gate this.
* ``close()`` -- idempotent teardown.
"""

from __future__ import annotations

import abc
import pathlib
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Tuple

from repro.errors import ConfigurationError, ExecutionError
from repro.engine.config import (
    EngineConfig,
    LOCAL_BACKEND,
    SUBPROCESS_FLEET_BACKEND,
)
from repro.engine.events import EngineEvent, TaskRetried

if TYPE_CHECKING:
    from repro.service.fleet import SubprocessFleetExecutor


@dataclass(frozen=True)
class BatchItem:
    """One unit of backend work: batch position, content key, payload."""

    index: int
    key: str
    task: Any


class BatchExecutor(abc.ABC):
    """One live execution strategy instance (see the module contract)."""

    @abc.abstractmethod
    def run_batch(
        self,
        fn: Callable[[Any], Any],
        items: List[BatchItem],
        notify: Callable[[EngineEvent], None],
        label: str = "batch",
    ) -> Iterator[Tuple[int, Any]]:
        """Yield every item's ``(index, result)`` exactly once."""

    @abc.abstractmethod
    def close(self) -> None:
        """Release held resources (idempotent)."""


class ExecutionBackend(abc.ABC):
    """Factory for batch executors, keyed by ``EngineConfig.backend``."""

    name: str = ""

    @abc.abstractmethod
    def executor(self, config: EngineConfig) -> BatchExecutor:
        """A live executor honouring ``config``'s knobs."""


class _InlineExecutor(BatchExecutor):
    """Serial in-process execution with the config's retry budget.

    The reference implementation of the executor contract -- and what
    the ``"local"`` name resolves to when a service routes through the
    registry explicitly.  (The runner's own local path never comes here;
    it keeps its historical supervised pool/serial code bit for bit.)
    """

    def __init__(self, config: EngineConfig):
        self.config = config

    def run_batch(
        self,
        fn: Callable[[Any], Any],
        items: List[BatchItem],
        notify: Callable[[EngineEvent], None],
        label: str = "batch",
    ) -> Iterator[Tuple[int, Any]]:
        for item in items:
            failures = 0
            while True:
                try:
                    value = fn(item.task)
                    break
                except Exception as exc:
                    failures += 1
                    if failures > self.config.max_retries:
                        raise ExecutionError(
                            f"task {item.index} of batch {label!r} failed "
                            f"{failures} times; giving up"
                        ) from exc
                    notify(TaskRetried(label, item.index, failures, repr(exc)))
                    time.sleep(self.config.retry_backoff(failures))
            yield item.index, value

    def close(self) -> None:
        pass


class LocalBackend(ExecutionBackend):
    """The in-process strategy, as a registry entry."""

    name = LOCAL_BACKEND

    def executor(self, config: EngineConfig) -> BatchExecutor:
        return _InlineExecutor(config)


class SubprocessFleetBackend(ExecutionBackend):
    """Persistent worker processes over a durable on-disk queue.

    By default every :meth:`executor` is an owning lease on a fleet of
    its own, spawned at its first batch and stopped on ``close``.  A
    fleet opened with :meth:`open_shared` instead outlives its clients:
    while it is open, every :meth:`executor` call whose config names its
    queue directory gets a borrowed lease on it.
    """

    name = SUBPROCESS_FLEET_BACKEND

    def __init__(self) -> None:
        self._shared: Dict[pathlib.Path, SubprocessFleetExecutor] = {}
        self._lock = threading.Lock()

    def executor(self, config: EngineConfig) -> BatchExecutor:
        from repro.service.fleet import SubprocessFleetExecutor

        with self._lock:
            fleet = self._shared.get(config.queue_dir)
        if fleet is not None:
            return fleet.lease(config)
        return SubprocessFleetExecutor(config).lease(config, owns_fleet=True)

    def open_shared(self, config: EngineConfig) -> SubprocessFleetExecutor:
        """The shared fleet on ``config.queue_dir``, created if needed.

        Workers spawn at the fleet's first batch; :meth:`close_shared`
        stops them.
        """
        from repro.service.fleet import SubprocessFleetExecutor

        if config.queue_dir is None:
            raise ConfigurationError("a shared fleet needs a queue_dir")
        with self._lock:
            fleet = self._shared.get(config.queue_dir)
            if fleet is None:
                fleet = SubprocessFleetExecutor(config)
                self._shared[config.queue_dir] = fleet
        return fleet

    def close_shared(self, queue_dir: pathlib.Path) -> None:
        """Stop and reap the shared fleet on ``queue_dir``, if open."""
        with self._lock:
            fleet = self._shared.pop(queue_dir, None)
        if fleet is not None:
            fleet.close()


_BACKENDS: Dict[str, ExecutionBackend] = {}


def register_execution_backend(backend: ExecutionBackend) -> ExecutionBackend:
    """Add (or re-register) a backend; returns it for assignment."""
    if not backend.name:
        raise ConfigurationError("execution backend name must be non-empty")
    _BACKENDS[backend.name] = backend
    return backend


def get_execution_backend(name: str) -> ExecutionBackend:
    """Look up one registered execution backend by name."""
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown execution backend {name!r}; available: "
            f"{sorted(_BACKENDS)}"
        ) from None


def execution_backend_names() -> Tuple[str, ...]:
    """Names of all registered backends, sorted."""
    return tuple(sorted(_BACKENDS))


register_execution_backend(LocalBackend())
register_execution_backend(SubprocessFleetBackend())


__all__ = [
    "BatchExecutor",
    "BatchItem",
    "ExecutionBackend",
    "LocalBackend",
    "SubprocessFleetBackend",
    "execution_backend_names",
    "get_execution_backend",
    "register_execution_backend",
]
