"""End-to-end cluster tests over real HTTP: coordinator + worker nodes.

In-process :class:`WorkerNode` instances (threads, real sockets) against
a :func:`local_service` coordinator — the same wiring the CI
``cluster-smoke`` job exercises with separate OS processes.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.cluster import ClusterConfig, WorkerNode, worker as worker_module
from repro.cluster.worker import _http_json
from repro.service import ServiceClient, ServiceError
from repro.service.api import local_service


def wait_until(predicate, timeout=10.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def start_worker(url: str, **kwargs) -> WorkerNode:
    node = WorkerNode(url, poll_interval=0.05, **kwargs)
    node.start()
    assert wait_until(lambda: node.worker_id is not None, timeout=5.0)
    return node


class TestClusterEndToEnd:
    def test_jobs_run_on_workers_with_provenance_and_receipts(self, tmp_path):
        config = ClusterConfig(
            journal=str(tmp_path / "journal.jsonl"), heartbeat_timeout=5.0
        )
        receipt_dir = tmp_path / "receipts"
        with local_service(
            workers=0, cluster=config, receipt_dir=str(receipt_dir)
        ) as url:
            client = ServiceClient(url)
            nodes = [start_worker(url, name=f"w{i}") for i in range(2)]
            try:
                assert wait_until(
                    lambda: client.healthz()["cluster"]["live_workers"] == 2
                )
                specs = [
                    {"benchmark": "antlr", "analysis": "insens"},
                    {"benchmark": "antlr", "analysis": "1call"},
                    {"benchmark": "lusearch", "analysis": "insens"},
                ]
                ids = [client.submit(**spec) for spec in specs]
                worker_ids = {node.worker_id for node in nodes}
                for job_id in ids:
                    snapshot = client.wait(job_id, timeout=120)
                    assert snapshot["state"] == "done"
                    result = client.result(job_id)["result"]
                    # Executed by a registered worker, not the coordinator.
                    assert result["worker"]["id"] in worker_ids
                # One receipt per (uncached) job, stamped with its worker.
                import json

                receipts = [
                    json.loads(p.read_text())
                    for p in receipt_dir.glob("*.json")
                ]
                assert len(receipts) == len(ids)
                assert all(
                    r["payload"]["worker"]["id"] in worker_ids
                    for r in receipts
                )
                # Cluster metrics made it to the exposition.
                assert client.metric_value("repro_cluster_workers") == 2
                assert (
                    client.metric_value("repro_cluster_journal_records_total")
                    >= len(ids) * 2
                )
            finally:
                for node in nodes:
                    node.stop()

    def test_lease_expiry_requeues_to_a_live_worker(self, tmp_path):
        """The satellite regression: a worker vanishes mid-job, the lease
        expires, the job completes elsewhere, and exactly one receipt is
        emitted (the ghost's late completion is rejected as stale)."""
        config = ClusterConfig(
            journal=str(tmp_path / "journal.jsonl"),
            heartbeat_timeout=0.5,
            reaper_interval=0.05,
        )
        receipt_dir = tmp_path / "receipts"
        with local_service(
            workers=0, cluster=config, receipt_dir=str(receipt_dir)
        ) as url:
            client = ServiceClient(url)
            # A "worker" that leases a job and then goes silent: plain
            # HTTP registration with no heartbeat loop behind it.
            status, ghost = _http_json(
                f"{url}/cluster/workers",
                {"url": "http://127.0.0.1:9", "name": "ghost"},
            )
            assert status == 201
            job_id = client.submit(benchmark="antlr", analysis="insens")
            status, leased = _http_json(
                f"{url}/cluster/lease", {"worker": ghost["id"]}
            )
            assert status == 200 and leased["job_id"] == job_id

            # While the ghost sits on the lease, a real worker joins.
            node = start_worker(url, name="survivor")
            try:
                snapshot = client.wait(job_id, timeout=60)
                assert snapshot["state"] == "done"
                result = client.result(job_id)["result"]
                assert result["worker"]["id"] == node.worker_id

                # The ghost finally reports: stale, rejected.
                status, verdict = _http_json(
                    f"{url}/cluster/complete",
                    {
                        "worker": ghost["id"],
                        "job_id": job_id,
                        "payload": {"state": "done"},
                    },
                )
                assert status == 200 and verdict["accepted"] is False
                assert len(list(receipt_dir.glob("*.json"))) == 1
                assert client.metric_value("repro_cluster_requeues_total") == 1
            finally:
                node.stop()

    def test_http_backpressure_and_topology(self, tmp_path):
        config = ClusterConfig(
            journal=str(tmp_path / "journal.jsonl"), max_queue_depth=0
        )
        with local_service(workers=0, cluster=config) as url:
            client = ServiceClient(url)
            with pytest.raises(ServiceError) as exc:
                client.submit(benchmark="antlr", analysis="insens")
            assert exc.value.status == 429
            assert exc.value.payload["reason"] == "queue_full"
            # Retry-After surfaced through the client (header or body).
            assert exc.value.retry_after and exc.value.retry_after > 0
            topo = client._request("GET", "/cluster")
            assert topo["workers"] == []
            assert topo["config"]["max_queue_depth"] == 0

    def test_non_coordinator_rejects_cluster_routes(self):
        with local_service(workers=0) as url:
            client = ServiceClient(url)
            for method, path in (
                ("GET", "/cluster"),
                ("POST", "/cluster/lease"),
                ("POST", "/cluster/workers"),
                ("DELETE", "/cluster/workers/feedbeef"),
            ):
                with pytest.raises(ServiceError) as exc:
                    client._request(
                        method, path, {} if method == "POST" else None
                    )
                assert exc.value.status == 404

    def test_single_process_fallback_without_workers(self, tmp_path):
        """A coordinator with no workers behaves like plain serve."""
        config = ClusterConfig(journal=str(tmp_path / "journal.jsonl"))
        with local_service(workers=0, cluster=config) as url:
            client = ServiceClient(url)
            job_id = client.submit(benchmark="antlr", analysis="insens")
            assert client.wait(job_id, timeout=60)["state"] == "done"
            result = client.result(job_id)["result"]
            assert result["worker"] == {
                "id": "coordinator", "url": None, "name": "local",
            }

    def test_coordinator_restart_replays_unfinished_jobs(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        # First life: accept jobs but never run them (no dispatcher, no
        # workers), then die with them queued.
        from repro.service import AnalysisService, JobSpec

        first = AnalysisService(
            workers=0, cluster=ClusterConfig(journal=journal)
        )
        accepted = [
            first.submit(JobSpec(benchmark="antlr", analysis="insens")),
            first.submit(JobSpec(benchmark="antlr", analysis="1call")),
        ]
        first.stop()

        # Second life: the replayed jobs complete on a real worker.
        with local_service(
            workers=0, cluster=ClusterConfig(journal=journal)
        ) as url:
            client = ServiceClient(url)
            node = start_worker(url)
            try:
                for job in accepted:
                    snapshot = client.wait(job.id, timeout=120)
                    assert snapshot["state"] == "done"
            finally:
                node.stop()


def test_reports_to_a_down_coordinator_are_counted(tmp_path, monkeypatch):
    """A completion and a detach that cannot reach the coordinator are
    counted in the worker's health, not dropped silently."""
    started, release = threading.Event(), threading.Event()

    def blocked_execute(spec):
        started.set()
        release.wait(30)
        return {"state": "done"}

    monkeypatch.setattr(worker_module, "execute_job", blocked_execute)
    config = ClusterConfig(journal=str(tmp_path / "journal.jsonl"))
    with local_service(workers=0, cluster=config) as url:
        node = start_worker(url)
        ServiceClient(url).submit(benchmark="antlr", analysis="insens")
        assert started.wait(30)
    # The coordinator is down now; the job in hand finishes anyway.
    try:
        release.set()
        assert wait_until(lambda: node.health()["failed_completions"] == 1)
    finally:
        node.stop()
    health = node.health()
    assert health["failed_completions"] == 1
    assert health["failed_detaches"] == 1
