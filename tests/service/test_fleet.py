"""The subprocess-fleet executor: identity, dedupe, crash recovery."""

import os
import signal
import sys
import textwrap

import pytest

from repro.engine.config import EngineConfig, SUBPROCESS_FLEET_BACKEND
from repro.engine.parallel import ParallelChipRunner
from repro.errors import ConfigurationError
from repro.service.backends import BatchItem, SubprocessFleetBackend
from repro.service.fleet import (
    FleetLease,
    SubprocessFleetExecutor,
    resolve_queue_dir,
)
from repro.variation import harmonic_mean

TASKS = [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [2.0, 9.0], [7.0, 8.0]]


def fleet_config(tmp_path, **overrides) -> EngineConfig:
    fields = dict(
        workers=2,
        backend=SUBPROCESS_FLEET_BACKEND,
        fleet_size=2,
        queue_dir=tmp_path / "queue",
    )
    fields.update(overrides)
    return EngineConfig(**fields)


class TestQueueDirResolution:
    def test_explicit_queue_dir_wins(self, tmp_path):
        config = fleet_config(tmp_path, checkpoint_dir=tmp_path / "ckpt")
        path, private = resolve_queue_dir(config)
        assert path == tmp_path / "queue"
        assert private is False

    def test_checkpoint_dir_hosts_the_queue(self, tmp_path):
        config = EngineConfig(
            backend=SUBPROCESS_FLEET_BACKEND,
            checkpoint_dir=tmp_path / "ckpt",
        )
        path, private = resolve_queue_dir(config)
        assert path == tmp_path / "ckpt" / "fleet-queue"
        assert private is False

    def test_fallback_is_a_private_tempdir(self):
        config = EngineConfig(backend=SUBPROCESS_FLEET_BACKEND)
        path, private = resolve_queue_dir(config)
        try:
            assert private is True
            assert path.is_dir()
        finally:
            path.rmdir()

    def test_task_timeout_unsupported(self, tmp_path):
        config = fleet_config(tmp_path, task_timeout=1.0)
        with pytest.raises(ConfigurationError, match="task_timeout"):
            SubprocessFleetExecutor(config)


class TestFleetIdentity:
    def test_results_identical_to_local_backend(self, tmp_path):
        with ParallelChipRunner(fleet_config(tmp_path)) as runner:
            fleet = runner.map(harmonic_mean, TASKS, label="identity")
        with ParallelChipRunner(EngineConfig(workers=1)) as runner:
            local = runner.map(harmonic_mean, TASKS, label="identity")
        assert fleet == local

    def test_shared_queue_dedupes_across_runs(self, tmp_path):
        config = fleet_config(tmp_path)
        with ParallelChipRunner(config) as runner:
            first = runner.map(harmonic_mean, TASKS, label="dedupe")
        # A second runner over the same queue directory never recomputes.
        with ParallelChipRunner(config) as runner:
            runner.map(harmonic_mean, TASKS, label="dedupe")
            executor = runner._backend_executor
            assert executor.deduped == len(TASKS)
            second = [
                v for v in runner.map(harmonic_mean, TASKS, label="dedupe")
            ]
        assert second == first

    def test_duplicate_keys_within_a_batch_fan_out(self, tmp_path):
        tasks = [[2.0, 2.0], [2.0, 2.0], [4.0, 4.0]]
        with ParallelChipRunner(fleet_config(tmp_path)) as runner:
            out = runner.map(harmonic_mean, tasks, label="fanout")
        assert out == [2.0, 2.0, 4.0]


SLOW_MODULE = textwrap.dedent(
    """
    import time

    from repro.engine import parallel

    def slow_square(task):
        delay, value = task
        time.sleep(delay)
        return value * value

    def fill_evaluator_cache(nonce):
        parallel._EVALUATOR_CACHE[("probe", nonce)] = object()
        return len(parallel._EVALUATOR_CACHE)

    def evaluator_cache_len(nonce):
        return len(parallel._EVALUATOR_CACHE)
    """
)


@pytest.fixture
def slow_helper(tmp_path, monkeypatch):
    """An importable module whose tasks are slow enough to kill under."""
    helper_dir = tmp_path / "helpers"
    helper_dir.mkdir()
    (helper_dir / "fleet_test_helper.py").write_text(SLOW_MODULE)
    monkeypatch.syspath_prepend(str(helper_dir))
    existing = os.environ.get("PYTHONPATH")
    monkeypatch.setenv(
        "PYTHONPATH",
        str(helper_dir) if not existing
        else os.pathsep.join([str(helper_dir), existing]),
    )
    import importlib

    importlib.invalidate_caches()
    module = importlib.import_module("fleet_test_helper")
    try:
        yield module
    finally:
        sys.modules.pop("fleet_test_helper", None)


class TestCrashRecovery:
    def test_sigkilled_worker_is_respawned_and_batch_completes(
        self, tmp_path, slow_helper
    ):
        from repro.engine.checkpoint import task_key
        from repro.service.backends import BatchItem

        tasks = [(0.25, n) for n in range(6)]
        config = fleet_config(tmp_path, fleet_size=2)
        executor = SubprocessFleetExecutor(config)
        lease = executor.lease(config, owns_fleet=True)
        batch = [
            BatchItem(i, task_key(slow_helper.slow_square, t), t)
            for i, t in enumerate(tasks)
        ]
        results = {}
        killed = {"done": False}
        try:
            for index, value in lease.run_batch(
                slow_helper.slow_square, batch, lambda e: None,
                label="sigkill",
            ):
                results[index] = value
                if not killed["done"] and executor._workers:
                    # First result observed: SIGKILL a live worker while
                    # the rest of the batch is still in flight.
                    worker = sorted(executor._workers)[0]
                    os.kill(executor._workers[worker].pid, signal.SIGKILL)
                    killed["done"] = True
        finally:
            lease.close()
        assert killed["done"], "no worker was alive to kill"
        assert executor._closed
        assert results == {i: n * n for i, (_, n) in enumerate(tasks)}

    def test_results_byte_identical_after_worker_sigkill(
        self, tmp_path, slow_helper
    ):
        import pickle

        tasks = [(0.0, n) for n in range(6)]
        reference = [slow_helper.slow_square(t) for t in tasks]
        config = fleet_config(
            tmp_path, fleet_size=2, queue_dir=tmp_path / "q2"
        )
        with ParallelChipRunner(config) as runner:
            out = runner.map(slow_helper.slow_square, tasks, label="ident")
        assert pickle.dumps(out) == pickle.dumps(reference)


def run_all_items(executor, fn, tasks):
    """Every result of one batch, in task order."""
    from repro.engine.checkpoint import task_key

    items = [BatchItem(i, task_key(fn, t), t) for i, t in enumerate(tasks)]
    results = dict(executor.run_batch(fn, items, lambda e: None))
    return [results[i] for i in range(len(tasks))]


class TestSharedFleet:
    def test_executor_leases_the_open_shared_fleet(self, tmp_path):
        backend = SubprocessFleetBackend()
        config = fleet_config(tmp_path)
        fleet = backend.open_shared(config)
        try:
            lease = backend.executor(config)
            assert isinstance(lease, FleetLease) and lease.fleet is fleet
            assert run_all_items(lease, harmonic_mean, TASKS) == [
                harmonic_mean(t) for t in TASKS
            ]
            workers = dict(fleet._workers)
            lease.close()
            # Releasing a lease leaves the workers running ...
            assert all(p.poll() is None for p in workers.values())
            again = backend.executor(config)
            run_all_items(again, harmonic_mean, [[9.0, 3.0]])
            assert fleet._workers == workers  # ... and reused.
            again.close()
        finally:
            backend.close_shared(config.queue_dir)
        assert all(p.returncode is not None for p in workers.values())
        # Without an open shared fleet the runner owns its own again.
        owned = backend.executor(config)
        try:
            assert isinstance(owned, FleetLease) and owned.owns_fleet
            assert owned.fleet is not fleet
        finally:
            owned.close()
        assert owned.fleet._closed

    def test_concurrent_leases_spawn_each_worker_once(
        self, tmp_path, monkeypatch
    ):
        import threading

        backend = SubprocessFleetBackend()
        config = fleet_config(tmp_path)
        fleet = backend.open_shared(config)
        spawned = []
        real_spawn = fleet._spawn

        def counting_spawn(worker_id):
            spawned.append(worker_id)
            real_spawn(worker_id)

        monkeypatch.setattr(fleet, "_spawn", counting_spawn)
        results = {}

        def client(n):
            lease = backend.executor(config)
            try:
                tasks = [[float(n + 1), float(k + 1)] for k in range(4)]
                results[n] = (
                    run_all_items(lease, harmonic_mean, tasks),
                    [harmonic_mean(t) for t in tasks],
                )
            finally:
                lease.close()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=client, args=(n,)) for n in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            backend.close_shared(config.queue_dir)
        assert sorted(spawned) == ["w000", "w001"]
        assert len(results) == 6
        assert all(got == want for got, want in results.values())

    def test_workers_drop_evaluator_cache_after_last_release(
        self, tmp_path, slow_helper
    ):
        backend = SubprocessFleetBackend()
        config = fleet_config(tmp_path, fleet_size=1)
        fleet = backend.open_shared(config)
        try:
            first = backend.executor(config)
            assert run_all_items(
                first, slow_helper.fill_evaluator_cache, ["a"]
            ) == [1]
            second = backend.executor(config)
            first.close()
            # Another lease is still open: the cache survives.
            assert run_all_items(
                second, slow_helper.evaluator_cache_len, ["b"]
            ) == [1]
            second.close()
            third = backend.executor(config)
            assert run_all_items(
                third, slow_helper.evaluator_cache_len, ["c"]
            ) == [0]
            third.close()
        finally:
            backend.close_shared(config.queue_dir)

    def test_released_lease_withdraws_its_abandoned_tasks(
        self, tmp_path, slow_helper
    ):
        from repro.engine.checkpoint import task_key

        backend = SubprocessFleetBackend()
        config = fleet_config(tmp_path, fleet_size=1)
        fleet = backend.open_shared(config)
        tasks = [(0.3, n) for n in range(4)]
        items = [
            BatchItem(i, task_key(slow_helper.slow_square, t), t)
            for i, t in enumerate(tasks)
        ]
        try:
            lease = backend.executor(config)
            stream = lease.run_batch(
                slow_helper.slow_square, items, lambda e: None
            )
            next(stream)  # a cancelled job stops consuming here
            stream.close()
            lease.close()
            assert fleet.queue.pending_tasks() == []
        finally:
            backend.close_shared(config.queue_dir)

    def test_close_reaps_every_worker(self, tmp_path):
        backend = SubprocessFleetBackend()
        config = fleet_config(tmp_path)
        fleet = backend.open_shared(config)
        lease = backend.executor(config)
        run_all_items(lease, harmonic_mean, TASKS)
        workers = list(fleet._workers.values())
        lease.close()
        backend.close_shared(config.queue_dir)
        assert len(workers) == 2
        assert all(p.returncode is not None for p in workers)

    def test_open_shared_is_idempotent(self, tmp_path):
        backend = SubprocessFleetBackend()
        config = fleet_config(tmp_path)
        fleet = backend.open_shared(config)
        try:
            assert backend.open_shared(config) is fleet
        finally:
            backend.close_shared(config.queue_dir)
        assert fleet._closed
        backend.close_shared(config.queue_dir)  # a second close: no-op
