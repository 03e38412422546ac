"""Coordinator unit tests: journaled intake, leases, liveness, 429s.

These drive :class:`ClusterCoordinator` directly on a never-started
service — jobs stay queued unless a (test-issued) lease pulls them, which
makes worker-loss interleavings deterministic.
"""

from __future__ import annotations

import contextlib
import errno
import sys
import threading
import time

import pytest

from repro.cluster import Backpressure, ClusterConfig
from repro.cluster.journal import JobJournal, read_journal
from repro.service import AnalysisService, JobSpec, JobState, api
from repro.service.api import create_server
from repro.service.client import ServiceClient, ServiceError


def make_service(tmp_path, **overrides) -> AnalysisService:
    config = ClusterConfig(
        journal=str(tmp_path / "journal.jsonl"), **overrides
    )
    return AnalysisService(workers=0, cluster=config)


def make_spec(**kwargs) -> JobSpec:
    kwargs.setdefault("benchmark", "antlr")
    kwargs.setdefault("analysis", "insens")
    return JobSpec(**kwargs)


def done_payload(digest: str) -> dict:
    return {
        "state": JobState.DONE,
        "facts_digest": digest,
        "stats": {"tuple_count": 7, "seconds": 0.01},
    }


class TestDurableIntake:
    def test_submit_journals_before_queueing(self, tmp_path):
        service = make_service(tmp_path)
        try:
            job = service.submit(make_spec())
            assert service.queue.depth() == 1
            records, _, _ = read_journal(service.cluster.journal.path)
            assert [r["type"] for r in records] == ["accepted"]
            assert records[0]["id"] == job.id
            assert records[0]["spec"]["benchmark"] == "antlr"
        finally:
            service.stop()

    def test_replay_restores_unfinished_jobs_with_original_ids(self, tmp_path):
        first = make_service(tmp_path)
        survivor = first.submit(make_spec())
        finished = first.submit(make_spec(analysis="1call"))
        first.cluster.record_terminal(finished.id, JobState.DONE)
        first.stop()

        second = make_service(tmp_path)
        try:
            restored = second.job(survivor.id)
            assert restored is not None
            assert restored.state == JobState.QUEUED
            assert restored.spec.benchmark == "antlr"
            assert second.job(finished.id) is None
            assert second.queue.depth() == 1
            assert second.cluster._m_replayed.total() == 1
        finally:
            second.stop()

    def test_cancelled_job_is_not_replayed(self, tmp_path):
        first = make_service(tmp_path)
        job = first.submit(make_spec())
        assert first.cancel(job.id)
        first.stop()
        second = make_service(tmp_path)
        try:
            assert second.queue.depth() == 0
            assert second.job(job.id) is None
        finally:
            second.stop()

    def test_requeue_attempts_survive_restart(self, tmp_path):
        first = make_service(tmp_path, heartbeat_timeout=0.05)
        job = first.submit(make_spec())
        worker = first.cluster.register_worker("http://127.0.0.1:9")
        leased = first.cluster.lease(worker["id"])
        assert leased["job_id"] == job.id
        time.sleep(0.1)
        assert first.cluster.reap() == [worker["id"]]
        first.stop()

        second = make_service(tmp_path)
        try:
            assert second.cluster._attempts[job.id] == 1
        finally:
            second.stop()


class TestLeases:
    def test_register_lease_complete_flow(self, tmp_path):
        receipt_dir = tmp_path / "receipts"
        service = make_service(tmp_path)
        service.receipt_dir = str(receipt_dir)
        try:
            job = service.submit(make_spec())
            worker = service.cluster.register_worker(
                "http://127.0.0.1:9", name="w1"
            )
            leased = service.cluster.lease(worker["id"])
            assert leased["job_id"] == job.id
            assert leased["spec"]["benchmark"] == "antlr"
            assert job.state == JobState.RUNNING
            assert service.cluster.lease_count() == 1

            accepted = service.cluster.complete(
                worker["id"], job.id, done_payload(leased["facts_digest"])
            )
            assert accepted
            assert job.state == JobState.DONE
            assert job.result["worker"]["id"] == worker["id"]
            assert job.result["worker"]["name"] == "w1"
            assert service.cluster.lease_count() == 0
            # Exactly one receipt for the completed job.
            assert len(list(receipt_dir.glob("*.json"))) == 1
        finally:
            service.stop()

    def test_empty_queue_leases_none(self, tmp_path):
        service = make_service(tmp_path)
        try:
            worker = service.cluster.register_worker("http://127.0.0.1:9")
            assert service.cluster.lease(worker["id"]) is None
        finally:
            service.stop()

    def test_unknown_worker_cannot_lease(self, tmp_path):
        service = make_service(tmp_path)
        try:
            with pytest.raises(KeyError):
                service.cluster.lease("deadbeef")
        finally:
            service.stop()

    def test_cache_hit_is_answered_inline(self, tmp_path):
        service = make_service(tmp_path)
        try:
            first = service.submit(make_spec())
            worker = service.cluster.register_worker("http://127.0.0.1:9")
            leased = service.cluster.lease(worker["id"])
            service.cluster.complete(
                worker["id"], first.id, done_payload(leased["facts_digest"])
            )
            # An identical submission never reaches a worker.
            second = service.submit(make_spec())
            assert service.cluster.lease(worker["id"]) is None
            assert second.state == JobState.DONE
            assert second.cached is True
        finally:
            service.stop()

    def test_stale_completion_is_rejected_with_one_receipt(self, tmp_path):
        receipt_dir = tmp_path / "receipts"
        service = make_service(tmp_path, heartbeat_timeout=0.05)
        service.receipt_dir = str(receipt_dir)
        try:
            job = service.submit(make_spec())
            lost = service.cluster.register_worker("http://127.0.0.1:9")
            leased = service.cluster.lease(lost["id"])
            digest = leased["facts_digest"]
            time.sleep(0.1)
            assert service.cluster.reap() == [lost["id"]]
            assert job.state == JobState.QUEUED  # requeued, attempt 1

            fresh = service.cluster.register_worker("http://127.0.0.1:10")
            assert service.cluster.lease(fresh["id"])["job_id"] == job.id
            assert service.cluster.complete(
                fresh["id"], job.id, done_payload(digest)
            )
            # The lost worker reports late: stale, ignored, no 2nd receipt.
            assert not service.cluster.complete(
                lost["id"], job.id, done_payload(digest)
            )
            assert job.state == JobState.DONE
            assert job.result["worker"]["id"] == fresh["id"]
            assert len(list(receipt_dir.glob("*.json"))) == 1
            assert service.cluster._m_completions.value(outcome="stale") == 1
        finally:
            service.stop()

    def test_failed_done_append_is_counted_and_job_finalizes_once(
        self, tmp_path, monkeypatch
    ):
        receipt_dir = tmp_path / "receipts"
        service = make_service(tmp_path)
        service.receipt_dir = str(receipt_dir)
        real_append = JobJournal.append

        def append(self, type, **fields):
            if type == "done":
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_append(self, type, **fields)

        monkeypatch.setattr(JobJournal, "append", append)
        try:
            job = service.submit(make_spec())
            worker = service.cluster.register_worker("http://127.0.0.1:9")
            leased = service.cluster.lease(worker["id"])
            assert service.cluster.complete(
                worker["id"], job.id, done_payload(leased["facts_digest"])
            )
            assert job.state == JobState.DONE
            assert service._m_jobs.value(state=JobState.DONE) == 1
            assert len(list(receipt_dir.glob("*.json"))) == 1
            failures = service.cluster._m_journal_failures
            assert failures.value(type="done") == 1
            assert failures.total() == 1
            assert (
                'repro_cluster_journal_write_failures_total{type="done"} 1'
                in service.telemetry.render()
            )
        finally:
            service.stop()

    def test_bounded_retries_then_dead_letter(self, tmp_path):
        service = make_service(tmp_path, heartbeat_timeout=0.05, max_retries=1)
        try:
            job = service.submit(make_spec())
            for attempt in (1, 2):
                worker = service.cluster.register_worker("http://127.0.0.1:9")
                assert service.cluster.lease(worker["id"])["job_id"] == job.id
                time.sleep(0.1)
                assert service.cluster.reap() == [worker["id"]]
            # Two lost leases at max_retries=1: dead-lettered, not requeued.
            assert job.state == JobState.ERROR
            assert job.result["dead_lettered"] is True
            assert "dead-lettered after 2 attempts" in job.error
            assert job.id in service.cluster.dead_letters
            assert service.queue.depth() == 0
            # The terminal state is journaled: no zombie replay.
            records, _, _ = read_journal(service.cluster.journal.path)
            assert [r["type"] for r in records] == [
                "accepted", "requeue", "done",
            ]
        finally:
            service.stop()

    def test_detach_requeues_immediately(self, tmp_path):
        service = make_service(tmp_path)
        try:
            job = service.submit(make_spec())
            worker = service.cluster.register_worker("http://127.0.0.1:9")
            service.cluster.lease(worker["id"])
            assert service.cluster.detach_worker(worker["id"])
            assert job.state == JobState.QUEUED
            assert service.queue.depth() == 1
            assert not service.cluster.detach_worker(worker["id"])
        finally:
            service.stop()


@contextlib.contextmanager
def http(service: AnalysisService):
    """Serve ``service`` over HTTP without starting its dispatcher."""
    server = create_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield ServiceClient(f"http://{host}:{port}")
    finally:
        server.shutdown()
        server.server_close()
        service.stop()


def delete_status(client: ServiceClient, job_id: str) -> int:
    try:
        client.cancel(job_id)
    except ServiceError as exc:
        return exc.status
    return 200


class TestCancelRaceOnLease:
    """A DELETE after ``/cluster/lease`` popped the job gets 409, and the
    job reaches exactly one terminal state."""

    def _finish(self, service, client, worker_id, leased):
        accepted = client._request(
            "POST",
            "/cluster/complete",
            {
                "worker": worker_id,
                "job_id": leased["job_id"],
                "payload": done_payload(leased["facts_digest"]),
            },
        )
        assert accepted == {"accepted": True}
        job = service.job(leased["job_id"])
        assert job.state == JobState.DONE
        assert service._m_jobs.value(state=JobState.DONE) == 1
        assert service._m_jobs.value(state=JobState.CANCELLED) == 0

    def test_delete_right_after_pop_is_refused(self, tmp_path, monkeypatch):
        service = make_service(tmp_path)
        statuses = []
        real_pop = service.queue.pop

        def pop_then_delete(timeout=None):
            job = real_pop(timeout)
            if job is not None and not statuses:
                statuses.append(delete_status(client, job.id))
            return job

        monkeypatch.setattr(service.queue, "pop", pop_then_delete)
        with http(service) as client:
            worker = service.cluster.register_worker("http://127.0.0.1:9")
            job_id = client.submit(benchmark="antlr", analysis="insens")
            leased = client._request(
                "POST", "/cluster/lease", {"worker": worker["id"]}
            )
            assert leased["job_id"] == job_id
            assert statuses == [409]
            self._finish(service, client, worker["id"], leased)

    def test_delete_during_build_is_refused(self, tmp_path, monkeypatch):
        entered, release = threading.Event(), threading.Event()
        real_encode = api.encode_spec

        def slow_encode(spec):
            entered.set()
            release.wait(30)
            return real_encode(spec)

        monkeypatch.setattr(api, "encode_spec", slow_encode)
        service = make_service(tmp_path)
        with http(service) as client:
            worker = service.cluster.register_worker("http://127.0.0.1:9")
            job_id = client.submit(benchmark="antlr", analysis="insens")
            answers = []
            lease_call = threading.Thread(
                target=lambda: answers.append(
                    client._request(
                        "POST", "/cluster/lease", {"worker": worker["id"]}
                    )
                )
            )
            lease_call.start()
            assert entered.wait(30)
            assert delete_status(client, job_id) == 409
            release.set()
            lease_call.join(30)
            (leased,) = answers
            assert leased["job_id"] == job_id
            self._finish(service, client, worker["id"], leased)


class TestLeaseStress:
    def test_every_job_ends_exactly_once_under_contention(self, tmp_path):
        """Eight workers lease and complete while a ninth thread cancels
        every job: each job reaches one terminal state, counted once, and
        the lease table drains."""
        service = make_service(tmp_path)
        jobs = [
            service.submit(make_spec(analysis=flavor))
            for flavor in ("insens", "1call", "1obj", "2objH") * 6
        ]
        workers = [
            service.cluster.register_worker(f"http://127.0.0.1:{9 + i}")["id"]
            for i in range(8)
        ]
        cancelled = []

        def pull(worker_id):
            while True:
                leased = service.cluster.lease(worker_id)
                if leased is None:
                    return
                service.cluster.complete(
                    worker_id,
                    leased["job_id"],
                    done_payload(leased["facts_digest"]),
                )

        def cancel_all():
            cancelled.extend(job for job in jobs if service.cancel(job.id))

        threads = [threading.Thread(target=pull, args=(w,)) for w in workers]
        threads.append(threading.Thread(target=cancel_all))
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
        assert all(job.terminal for job in jobs)
        assert service._m_jobs.total() == len(jobs)
        assert service._m_jobs.value(state=JobState.CANCELLED) == len(
            cancelled
        )
        assert all(job.state == JobState.CANCELLED for job in cancelled)
        assert service.leases() == {}
        assert service._m_running.value() == 0


class TestBackpressure:
    def test_queue_depth_cap(self, tmp_path):
        service = make_service(tmp_path, max_queue_depth=1)
        try:
            service.submit(make_spec())
            with pytest.raises(Backpressure) as exc:
                service.submit(make_spec(analysis="1call"))
            assert exc.value.reason == "queue_full"
            assert exc.value.retry_after > 0
            # The rejected job never reached the journal.
            records, _, _ = read_journal(service.cluster.journal.path)
            assert len(records) == 1
        finally:
            service.stop()

    def test_per_client_rate_limit(self, tmp_path):
        service = make_service(tmp_path, rate_limit=0.001, rate_burst=2)
        try:
            service.submit(make_spec(), client="alice")
            service.submit(make_spec(priority=1), client="alice")
            with pytest.raises(Backpressure) as exc:
                service.submit(make_spec(priority=2), client="alice")
            assert exc.value.reason == "rate_limited"
            # Other clients are unaffected.
            service.submit(make_spec(priority=3), client="bob")
        finally:
            service.stop()


class TestTopology:
    def test_snapshot_shape(self, tmp_path):
        service = make_service(tmp_path)
        try:
            service.submit(make_spec())
            worker = service.cluster.register_worker(
                "http://127.0.0.1:9", name="w1"
            )
            service.cluster.lease(worker["id"])
            topo = service.cluster.topology()
            assert topo["node_id"] == "coordinator"
            (worker_snap,) = topo["workers"]
            assert worker_snap["alive"] is True
            assert worker_snap["name"] == "w1"
            (lease_snap,) = topo["leases"]
            assert lease_snap["worker"] == worker["id"]
            assert worker["id"] in topo["ring_nodes"]
            assert "coordinator" in topo["ring_nodes"]
            assert topo["journal"]["records"] == 1
            assert topo["journal"]["bytes"] > 0
        finally:
            service.stop()

    def test_local_jobs_show_as_coordinator_leases(self, tmp_path):
        service = make_service(tmp_path)
        try:
            job = service.submit(make_spec())
            lease = service.claim(service.pop(timeout=0), "coordinator")
            (lease_snap,) = service.cluster.topology()["leases"]
            assert lease_snap["job_id"] == job.id
            assert lease_snap["worker"] == "coordinator"
            # Health and the lease gauge count remote leases only.
            assert service.cluster.lease_count() == 0
            assert service.complete(lease, done_payload(lease.digest))
            assert service.cluster.topology()["leases"] == []
            assert job.result["worker"]["name"] == "local"
        finally:
            service.stop()
