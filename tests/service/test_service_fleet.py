"""One subprocess fleet per service: spawned once, leased by every job.

Jobs run ``fig10_hundred_chips`` at a small scale; the fleet's worker
pids come from the queue's ``workers/<id>.pid`` breadcrumbs, which a
respawned worker overwrites.  A service keeps its fleet queues in
``fleets/<pid>-<suffix>/``, so the tests find this process's by pid.
"""

import os
import pickle
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.engine.config import EngineConfig, SUBPROCESS_FLEET_BACKEND
from repro.engine.events import WorkerRespawned
from repro.service import ExecutionService
from repro.service.fleet import _worker_env
from repro.service.jobs import DONE

EXPERIMENT = "fig10_hundred_chips"
FLEET_SIZE = 2
JOB = dict(chips=2, refs=400)


def fleet_service(root) -> ExecutionService:
    return ExecutionService(
        root,
        engine=EngineConfig(
            backend=SUBPROCESS_FLEET_BACKEND, fleet_size=FLEET_SIZE
        ),
    )


def fleet_queue(service: ExecutionService):
    """The queue directory of this process's fleet on ``service``."""
    queues = list(
        service.root.glob(f"fleets/{os.getpid()}-*/size{FLEET_SIZE}")
    )
    assert len(queues) == 1, queues
    return queues[0]


def worker_pids(service: ExecutionService) -> dict:
    """Worker id -> pid, once every worker has left its breadcrumb."""
    workers = fleet_queue(service) / "workers"
    deadline = time.monotonic() + 60
    while len(list(workers.glob("*.pid"))) < FLEET_SIZE:
        assert time.monotonic() < deadline, "fleet workers never started"
        time.sleep(0.05)
    return {
        path.stem: int(path.read_text())
        for path in sorted(workers.glob("*.pid"))
    }


def alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def run_job(service: ExecutionService, seed: int):
    handle = service.submit(EXPERIMENT, seed=seed, **JOB)
    status = handle.wait(timeout=300)
    assert status.state == DONE, status.detail
    return handle.result()


@pytest.fixture
def service(tmp_path):
    svc = fleet_service(tmp_path / "svc")
    yield svc
    svc.close()


class TestOneFleetPerService:
    def test_constructor_spawns_nothing(self, service):
        assert not (service.root / "fleets").exists()

    def test_sequential_jobs_reuse_the_same_workers(self, service):
        run_job(service, seed=1)
        pids = worker_pids(service)
        assert len(pids) == FLEET_SIZE
        for seed in (2, 3):
            run_job(service, seed=seed)
            assert worker_pids(service) == pids
        assert all(alive(pid) for pid in pids.values())

    def test_results_byte_identical_to_local_backend(
        self, service, tmp_path
    ):
        fleet = [run_job(service, seed) for seed in (4, 5)]
        local_service = ExecutionService(tmp_path / "local")
        try:
            local = [run_job(local_service, seed) for seed in (4, 5)]
        finally:
            local_service.close()
        assert pickle.dumps(fleet) == pickle.dumps(local)

    def test_worker_killed_between_jobs_is_respawned(self, service):
        run_job(service, seed=6)
        before = worker_pids(service)
        os.kill(before["w000"], signal.SIGKILL)
        # Wait for the death without reaping it: the fleet must notice.
        os.waitid(os.P_PID, before["w000"], os.WEXITED | os.WNOWAIT)
        handle = service.submit(EXPERIMENT, seed=7, **JOB)
        assert handle.wait(timeout=300).state == DONE
        events = list(service.events(handle.job_id))
        assert any(isinstance(e, WorkerRespawned) for e in events)
        # The replacement leaves its breadcrumb once it has started.
        deadline = time.monotonic() + 60
        while worker_pids(service)["w000"] == before["w000"]:
            assert time.monotonic() < deadline, "w000 never respawned"
            time.sleep(0.05)
        after = worker_pids(service)
        assert alive(after["w000"])
        assert after["w001"] == before["w001"]

    def test_concurrent_jobs_share_the_fleet(self, service):
        handles = [
            service.submit(EXPERIMENT, seed=seed, **JOB) for seed in (8, 9)
        ]
        for handle in handles:
            status = handle.wait(timeout=300)
            assert status.state == DONE, status.detail
        assert len(worker_pids(service)) == FLEET_SIZE

    def test_close_leaves_no_live_worker(self, tmp_path):
        svc = fleet_service(tmp_path / "svc")
        run_job(svc, seed=10)
        pids = worker_pids(svc)
        svc.close()
        assert pids and not any(alive(pid) for pid in pids.values())
        # A later fleet job on the closed service opens a fresh fleet,
        # whose workers overwrite the old breadcrumbs as they start.
        run_job(svc, seed=11)
        deadline = time.monotonic() + 60
        while not set(worker_pids(svc).values()).isdisjoint(pids.values()):
            assert time.monotonic() < deadline, "no fresh fleet started"
            time.sleep(0.05)
        svc.close()


#: A second service process on the same root: one fleet job, then close.
OTHER_SERVICE = textwrap.dedent(
    f"""
    import sys

    from repro.engine.config import EngineConfig
    from repro.service import ExecutionService

    service = ExecutionService(
        sys.argv[1],
        engine=EngineConfig(
            backend={SUBPROCESS_FLEET_BACKEND!r}, fleet_size={FLEET_SIZE}
        ),
    )
    try:
        status = service.submit(
            {EXPERIMENT!r}, seed=int(sys.argv[2]), **{JOB!r}
        ).wait(timeout=300)
        assert status.state == "done", status.detail
    finally:
        service.close()
    """
)


class TestFleetIsPrivateToItsService:
    def test_another_process_closing_its_service_leaves_ours_alone(
        self, service
    ):
        run_job(service, seed=12)
        pids = worker_pids(service)
        other = subprocess.Popen(
            [sys.executable, "-c", OTHER_SERVICE, str(service.root), "13"],
            env=_worker_env(),
        )
        try:
            handles = [service.submit(EXPERIMENT, seed=14, **JOB)]
            assert handles[0].wait(timeout=300).state == DONE
        finally:
            assert other.wait(timeout=300) == 0
        # The other service has closed: its workers and queue are gone,
        # and ours never saw its stop or release signals.
        handles.append(service.submit(EXPERIMENT, seed=15, **JOB))
        assert handles[1].wait(timeout=300).state == DONE
        for handle in handles:
            events = list(service.events(handle.job_id))
            assert not any(isinstance(e, WorkerRespawned) for e in events)
        assert worker_pids(service) == pids
        assert all(alive(pid) for pid in pids.values())
        assert list((service.root / "fleets").iterdir()) == [
            fleet_queue(service).parent
        ]

    def test_template_queue_dir_is_used_as_is(self, tmp_path):
        queue = tmp_path / "queue"
        svc = ExecutionService(
            tmp_path / "svc",
            engine=EngineConfig(
                backend=SUBPROCESS_FLEET_BACKEND,
                fleet_size=FLEET_SIZE,
                queue_dir=queue,
            ),
        )
        try:
            run_job(svc, seed=16)
        finally:
            svc.close()
        # Results land in the named queue itself, so they dedupe
        # against every other client of it.
        assert list((queue / "results").glob("*.result"))
        assert not (svc.root / "fleets").exists()
