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
import sys
import threading
import time

from repro.service import api
from repro.service.api import AnalysisService, local_service, start_server
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import JobSpec, JobState

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


class TestDigestMemo:
    """The spec -> digest memo: a replay keys itself without a build."""

    def test_replay_claims_with_zero_builds(self):
        service = AnalysisService(workers=0)
        builds = service._m_spec_builds
        with served(service) as client:
            cold = client.submit(**CHEAP)
            assert client.wait(cold, timeout=60)["state"] == JobState.DONE
            assert builds.value() == 1
            replay = client.submit(**CHEAP)
            assert client.wait(replay, timeout=60)["state"] == JobState.DONE
            assert builds.value() == 1
            cold_result = client.result(cold)
            replay_result = client.result(replay)
        assert cold_result["cached"] is False
        assert replay_result["cached"] is True
        replayed = dict(replay_result["result"])
        assert replayed.pop("cached") is True
        assert replayed == cold_result["result"]

    def test_failed_build_is_not_memoized(self):
        service = AnalysisService(workers=0)
        with served(service) as client:
            for attempt in (1, 2):
                job_id = client.submit(source="class {", analysis="insens")
                snapshot = client.wait(job_id, timeout=60)
                assert snapshot["state"] == JobState.ERROR
                assert "SyntaxError" in snapshot["error"]
                assert service._m_spec_builds.value() == attempt
        assert service._digests == {}

    def test_memo_is_bounded_by_cache_capacity(self):
        """Eight threads key six programs through a two-entry memo: every
        digest is right and the memo never holds more than two."""
        sources = [
            f"class Main {{ static method main() {{ x{i} = new Main(); }} }}"
            for i in range(6)
        ]
        specs = [JobSpec(source=src, analysis="insens") for src in sources]
        expected = [api.encode_spec(spec)[2] for spec in specs]
        service = AnalysisService(workers=0, cache_capacity=2)
        wrong, sizes = [], []

        def key_all(offset):
            for turn in range(12):
                n = (offset + turn) % len(specs)
                if service._spec_digest(specs[n]) != expected[n]:
                    wrong.append(n)
                with service._digests_lock:
                    sizes.append(len(service._digests))

        threads = [
            threading.Thread(target=key_all, args=(i,)) for i in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
            service.stop()
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert len(sizes) == 8 * 12
        assert max(sizes) <= 2
        assert service._m_spec_builds.value() >= len(specs)
