"""The in-process lease holder: claim order, cancel races, dead workers.

The dispatcher pops a job (it leaves ``queued`` under the queue lock),
claims it (cache hits end there), waits for a pool slot and completes
the lease when the pool returns.  These tests pin the orderings that
used to go wrong: a cancel landing after the pop, a cache hit queued
behind a solve, and a pool worker process killed mid-job.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import signal
import threading
import time

from repro.service import api
from repro.service.api import AnalysisService, local_service, start_server
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import JobState

CHEAP = {"benchmark": "antlr", "analysis": "insens"}
#: About 1.5 s of solving on a 2-vCPU host: long enough to overlap.
SLOW = {"benchmark": "jython", "analysis": "2objH"}


@contextlib.contextmanager
def served(service: AnalysisService):
    server, _thread = start_server(service)
    host, port = server.server_address[:2]
    try:
        yield ServiceClient(f"http://{host}:{port}")
    finally:
        server.shutdown()
        server.server_close()
        service.stop()


def wait_until(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


def delete_status(client: ServiceClient, job_id: str) -> int:
    try:
        client.cancel(job_id)
    except ServiceError as exc:
        return exc.status
    return 200


class TestCancelRace:
    """A DELETE after the pop is refused, and the job ends exactly once."""

    def test_delete_right_after_pop_is_refused(self, monkeypatch):
        service = AnalysisService(workers=0)
        statuses = []
        real_pop = service.queue.pop

        def pop_then_delete(timeout=None):
            job = real_pop(timeout)
            if job is not None and not statuses:
                statuses.append(delete_status(client, job.id))
            return job

        monkeypatch.setattr(service.queue, "pop", pop_then_delete)
        with served(service) as client:
            job_id = client.submit(**CHEAP)
            assert client.wait(job_id, timeout=60)["state"] == JobState.DONE
        assert statuses == [409]
        assert service._m_jobs.value(state=JobState.DONE) == 1
        assert service._m_jobs.value(state=JobState.CANCELLED) == 0

    def test_delete_during_build_is_refused(self, monkeypatch):
        entered, release = threading.Event(), threading.Event()
        real_encode = api.encode_spec

        def slow_encode(spec):
            entered.set()
            release.wait(30)
            return real_encode(spec)

        monkeypatch.setattr(api, "encode_spec", slow_encode)
        service = AnalysisService(workers=0)
        with served(service) as client:
            job_id = client.submit(**CHEAP)
            assert entered.wait(30)
            assert delete_status(client, job_id) == 409
            assert client.status(job_id)["state"] == JobState.RUNNING
            release.set()
            assert client.wait(job_id, timeout=60)["state"] == JobState.DONE
        assert service._m_jobs.value(state=JobState.DONE) == 1
        assert service._m_jobs.value(state=JobState.CANCELLED) == 0


def test_cache_hit_does_not_wait_for_a_solve():
    with local_service(workers=1) as url:
        client = ServiceClient(url)
        first = client.submit(**CHEAP)
        assert client.wait(first, timeout=120)["state"] == JobState.DONE
        slow = client.submit(**SLOW)
        assert wait_until(
            lambda: client.metric_value("repro_service_jobs_running") == 1
        )
        replay = client.submit(**CHEAP)
        snapshot = client.wait(replay, timeout=60)
        assert snapshot["state"] == JobState.DONE
        assert snapshot["cached"] is True
        # The hit was answered while the solve still held the one slot.
        assert client.status(slow)["state"] == JobState.RUNNING
        assert client.wait(slow, timeout=120)["state"] == JobState.DONE


def test_dead_pool_worker_is_replaced():
    before = {p.pid for p in multiprocessing.active_children()}
    service = AnalysisService(workers=1)
    with served(service) as client:
        warm = client.submit(**CHEAP)
        assert client.wait(warm, timeout=120)["state"] == JobState.DONE
        (worker,) = [
            p for p in multiprocessing.active_children() if p.pid not in before
        ]
        slow = client.submit(**SLOW)
        assert wait_until(
            lambda: client.metric_value("repro_service_jobs_running") == 1
        )
        time.sleep(0.2)
        os.kill(worker.pid, signal.SIGKILL)
        snapshot = client.wait(slow, timeout=60)
        assert snapshot["state"] == JobState.ERROR
        assert "BrokenProcessPool" in snapshot["error"]

        after = client.submit(benchmark="antlr", analysis="1call")
        assert client.wait(after, timeout=120)["state"] == JobState.DONE
        assert client.metric_value("repro_service_jobs_running") == 0
        assert client.metric_value("repro_service_pool_restarts_total") == 1



def test_held_miss_goes_back_to_the_queue_on_stop():
    """With the one slot busy the dispatcher holds the next miss; a stop
    puts that job back in the queue instead of losing it."""
    service = AnalysisService(workers=1)
    with served(service) as client:
        slow = client.submit(**SLOW)
        assert wait_until(
            lambda: client.metric_value("repro_service_jobs_running") == 1
        )
        held = client.submit(benchmark="antlr", analysis="1call")
        assert wait_until(
            lambda: client.metric_value("repro_service_jobs_running") == 2
        )
        assert client.status(held)["state"] == JobState.RUNNING
    assert service.job(slow).state == JobState.DONE
    assert service.job(held).state == JobState.QUEUED
    assert service.queue.depth() == 1
    assert service.leases() == {}
