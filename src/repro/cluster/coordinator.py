"""The cluster coordinator: journaled intake, leases, and liveness.

:class:`ClusterCoordinator` is an extension object attached to an
:class:`~repro.service.api.AnalysisService` (``service.cluster``).  It
adds four responsibilities on top of the single-process service, without
changing its behavior when no workers ever join:

* **Durable intake** — every job accepted on ``POST /jobs`` is appended
  to the :class:`~repro.cluster.journal.JobJournal` (fsynced) *before*
  the 202 is sent; on restart the journal is replayed and every
  accepted-but-unfinished job re-enters the queue with its original id.
* **Worker registry + leases** — workers register, heartbeat, and pull
  jobs through the service's lease table (``claim`` / ``complete``); a
  worker that misses its heartbeat window has its leases expired and the
  jobs requeued, up to ``max_retries`` requeues before dead-lettering.
* **Cache sharding** — the result cache is sharded across the
  coordinator and all live workers by consistent hashing on
  ``FactBase.digest()`` (see :mod:`repro.cluster.shard`).
* **Backpressure** — a bounded queue depth and a per-client token
  bucket; both reject with :class:`Backpressure` which the HTTP layer
  turns into ``429`` + ``Retry-After``.

The local dispatcher keeps running: with zero live workers the
coordinator claims and runs jobs itself under its node id
:data:`~repro.service.jobs.NODE_ID`; while any worker is live it claims
nothing and the pull path takes over.
"""

from __future__ import annotations

import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, TYPE_CHECKING

from ..service.jobs import NODE_ID, Job, JobSpec, JobState, Lease
from .journal import JobJournal
from .ratelimit import TokenBucketLimiter
from .shard import ShardedResultCache

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..service.api import AnalysisService

__all__ = ["Backpressure", "ClusterConfig", "ClusterCoordinator"]


class Backpressure(Exception):
    """The coordinator refuses new work right now (HTTP 429)."""

    def __init__(self, reason: str, retry_after: float) -> None:
        super().__init__(f"backpressure ({reason}); retry in {retry_after:.2f}s")
        self.reason = reason
        self.retry_after = retry_after


@dataclass(frozen=True)
class ClusterConfig:
    """Coordinator tuning; ``journal`` is the only required field."""

    journal: str
    #: A worker silent for longer than this is declared dead: its leases
    #: expire and its jobs requeue.  Lease requests and completions count
    #: as liveness, not just explicit heartbeats.
    heartbeat_timeout: float = 10.0
    #: Requeues per job before dead-lettering (so a job may be leased at
    #: most ``1 + max_retries`` times).
    max_retries: int = 3
    #: ``POST /jobs`` returns 429 once this many jobs are queued.
    max_queue_depth: Optional[int] = None
    #: Per-client token-bucket refill rate (submissions/second); None
    #: disables rate limiting.
    rate_limit: Optional[float] = None
    rate_burst: int = 10
    #: Reaper cadence; defaults to a quarter of the heartbeat window.
    reaper_interval: Optional[float] = None


@dataclass
class WorkerInfo:
    """One registered worker node."""

    id: str
    url: str
    name: Optional[str] = None
    registered_at: float = field(default_factory=time.time)
    last_seen: float = field(default_factory=time.monotonic)
    jobs_completed: int = 0

    def snapshot(self, now: float, timeout: float) -> Dict[str, Any]:
        return {
            "id": self.id,
            "url": self.url,
            "name": self.name,
            "registered_at": self.registered_at,
            "seconds_since_seen": round(max(0.0, now - self.last_seen), 3),
            "alive": (now - self.last_seen) <= timeout,
            "jobs_completed": self.jobs_completed,
        }


class ClusterCoordinator:
    """Cluster brain bolted onto one :class:`AnalysisService`."""

    def __init__(self, service: "AnalysisService", config: ClusterConfig) -> None:
        self.service = service
        self.config = config
        t = service.telemetry
        self._m_workers = t.gauge(
            "repro_cluster_workers", "Live registered worker nodes."
        )
        self._m_leases = t.gauge(
            "repro_cluster_leases", "Jobs currently leased to workers."
        )
        self._m_journal_records = t.counter(
            "repro_cluster_journal_records_total",
            "Journal records appended, by type.",
        )
        self._m_journal_bytes = t.gauge(
            "repro_cluster_journal_bytes", "Job journal size on disk."
        )
        self._m_journal_failures = t.counter(
            "repro_cluster_journal_write_failures_total",
            "Journal appends that failed with an OSError, by record type.",
        )
        self._m_requeues = t.counter(
            "repro_cluster_requeues_total",
            "Jobs requeued after their worker was lost.",
        )
        self._m_dead_letters = t.counter(
            "repro_cluster_dead_letters_total",
            "Jobs dead-lettered after exhausting their retries.",
        )
        self._m_rejected = t.counter(
            "repro_cluster_rejected_total",
            "Submissions rejected with 429, by reason.",
        )
        self._m_replayed = t.counter(
            "repro_cluster_replayed_jobs_total",
            "Jobs re-enqueued from the journal at startup.",
        )
        self._m_completions = t.counter(
            "repro_cluster_completions_total",
            "Worker completion reports, by outcome.",
        )
        self._m_shard_ops = t.counter(
            "repro_cluster_shard_ops_total",
            "Sharded-cache operations, by op and routing outcome.",
        )

        self.shard = ShardedResultCache(
            service.cache, node_id=NODE_ID, ops=self._m_shard_ops
        )
        self.limiter: Optional[TokenBucketLimiter] = None
        if config.rate_limit is not None:
            self.limiter = TokenBucketLimiter(
                config.rate_limit, config.rate_burst
            )

        self._lock = threading.RLock()
        self._workers: Dict[str, WorkerInfo] = {}
        self._attempts: Dict[str, int] = {}
        self.dead_letters: List[str] = []
        self._stop = threading.Event()
        self._reaper: Optional[threading.Thread] = None

        self.journal = JobJournal(config.journal)
        self._m_journal_bytes.set(self.journal.size_bytes())
        self._replay()

    # ------------------------------------------------------------------
    # Journal
    # ------------------------------------------------------------------
    def _journal(self, type: str, **fields: Any) -> None:
        try:
            self.journal.append(type, **fields)
        except OSError:
            # A full disk must not turn a finished job into a crashed
            # coordinator; the cost is a possible replay after restart.
            self._m_journal_failures.inc(type=type)
            return
        self._m_journal_records.inc(type=type)
        self._m_journal_bytes.set(self.journal.size_bytes())

    def _replay(self) -> None:
        """Re-enqueue accepted-but-unfinished jobs from the journal."""
        pending, attempts = self.journal.pending()
        for job_id, record in pending.items():
            try:
                spec = JobSpec.from_payload(record["spec"])
            except (ValueError, TypeError, KeyError):
                # A journaled spec that no longer validates (e.g. a
                # benchmark renamed across versions) is dead-lettered,
                # not silently dropped.
                self._journal("done", id=job_id, state=JobState.ERROR)
                continue
            job = Job(spec=spec, id=job_id)
            self._attempts[job_id] = attempts.get(job_id, 0)
            self.service.enqueue(job)
            self._m_replayed.inc()

    def record_terminal(self, job_id: str, state: str) -> None:
        """Journal a terminal transition (called from ``_finalize``)."""
        with self._lock:
            self._attempts.pop(job_id, None)
        self._journal("done", id=job_id, state=state)

    # ------------------------------------------------------------------
    # Intake: backpressure + durable accept
    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec, client: Optional[str] = None) -> Job:
        """Admission control, durable journaling, then enqueue."""
        depth_cap = self.config.max_queue_depth
        if depth_cap is not None and self.service.queue.depth() >= depth_cap:
            self._m_rejected.inc(reason="queue_full")
            raise Backpressure("queue_full", retry_after=1.0)
        if self.limiter is not None and client:
            allowed, retry_after = self.limiter.allow(client)
            if not allowed:
                self._m_rejected.inc(reason="rate_limited")
                raise Backpressure("rate_limited", retry_after=retry_after)
        job = Job(spec=spec)
        # Durability before acknowledgement: the accepted record must be
        # fsynced before the job becomes observable (202, queue).
        self.journal.accepted(job.id, spec.to_payload())
        self._m_journal_records.inc(type="accepted")
        self._m_journal_bytes.set(self.journal.size_bytes())
        return self.service.enqueue(job)

    # ------------------------------------------------------------------
    # Worker registry
    # ------------------------------------------------------------------
    def register_worker(
        self, url: str, name: Optional[str] = None
    ) -> Dict[str, Any]:
        worker = WorkerInfo(id=uuid.uuid4().hex[:12], url=url, name=name)
        with self._lock:
            self._workers[worker.id] = worker
            self._m_workers.set(len(self._workers))
        self.shard.add_peer(worker.id, url)
        return {
            "id": worker.id,
            "node_id": NODE_ID,
            "heartbeat_seconds": self.config.heartbeat_timeout / 3.0,
            "heartbeat_timeout": self.config.heartbeat_timeout,
        }

    def heartbeat(self, worker_id: str) -> bool:
        with self._lock:
            worker = self._workers.get(worker_id)
            if worker is None:
                return False
            worker.last_seen = time.monotonic()
            return True

    def detach_worker(self, worker_id: str) -> bool:
        """Graceful worker shutdown: requeue its leases immediately."""
        with self._lock:
            if worker_id not in self._workers:
                return False
            self._expire_worker(worker_id, reason="detached")
            return True

    def live_workers(self) -> List[WorkerInfo]:
        now = time.monotonic()
        with self._lock:
            return [
                w
                for w in self._workers.values()
                if now - w.last_seen <= self.config.heartbeat_timeout
            ]

    def defer_local(self) -> bool:
        """True when live workers exist: the local dispatcher yields."""
        return bool(self.live_workers())

    def lease_count(self) -> int:
        """Jobs leased to remote workers (not the coordinator's own)."""
        leases = self.service.leases().values()
        return sum(1 for lease in leases if lease.worker_id != NODE_ID)

    def provenance(self, worker_id: str) -> Dict[str, Any]:
        """The ``worker`` stamp of a job run by ``worker_id``."""
        if worker_id == NODE_ID:
            return {"id": NODE_ID, "url": None, "name": "local"}
        with self._lock:
            worker = self._workers.get(worker_id)
        if worker is None:  # pragma: no cover - completed right after detach
            return {"id": worker_id, "url": None, "name": None}
        return {"id": worker_id, "url": worker.url, "name": worker.name}

    # ------------------------------------------------------------------
    # Leases
    # ------------------------------------------------------------------
    def lease(self, worker_id: str) -> Optional[Dict[str, Any]]:
        """Grant the next runnable job to ``worker_id`` (None = empty).

        Cache hits are answered by the claim (the worker never sees
        them) and the pop continues to the next queued job.  A lease
        request counts as a heartbeat — a pulling worker is a live worker.
        """
        if not self.heartbeat(worker_id):
            raise KeyError(worker_id)
        while True:
            job = self.service.pop(timeout=0)
            if job is None:
                return None
            lease = self.service.claim(job, worker_id)
            if lease is None:
                continue
            self._m_leases.set(self.lease_count())
            return {
                "job_id": job.id,
                "spec": job.spec.to_payload(),
                "facts_digest": lease.digest,
            }

    def complete(
        self, worker_id: str, job_id: str, payload: Dict[str, Any]
    ) -> bool:
        """Accept a worker's result; False for stale/unknown leases.

        Staleness is the exactly-once guard: a lease that expired (the
        job was requeued, possibly finished elsewhere) makes the late
        completion a no-op, so every job finalizes — and emits its
        warehouse receipt — exactly once.
        """
        self.heartbeat(worker_id)
        if not isinstance(payload, dict) or "state" not in payload:
            payload = {
                "state": JobState.ERROR,
                "error": "worker returned a malformed result payload",
            }
        lease = self.service.leases().get(job_id)
        if (
            lease is None
            or lease.worker_id != worker_id
            or not self.service.complete(lease, payload)
        ):
            self._m_completions.inc(outcome="stale")
            return False
        self._m_leases.set(self.lease_count())
        with self._lock:
            worker = self._workers.get(worker_id)
            if worker is not None:
                worker.jobs_completed += 1
        self._m_completions.inc(outcome="accepted")
        return True

    # ------------------------------------------------------------------
    # Liveness reaper
    # ------------------------------------------------------------------
    def _expire_worker(self, worker_id: str, reason: str) -> None:
        """Drop a worker and requeue its leases (caller holds the lock)."""
        self._workers.pop(worker_id, None)
        self._m_workers.set(len(self._workers))
        self.shard.remove_peer(worker_id)
        for lease in self.service.leases().values():
            if lease.worker_id == worker_id and self.service.revoke(lease):
                self._requeue(lease, reason=reason)
        self._m_leases.set(self.lease_count())

    def _requeue(self, lease: Lease, reason: str) -> None:
        """Retry or dead-letter one expired lease (caller holds the lock)."""
        job = lease.job
        attempts = self._attempts.get(job.id, 0) + 1
        self._attempts[job.id] = attempts
        if attempts > self.config.max_retries:
            self.dead_letters.append(job.id)
            self._m_dead_letters.inc()
            self.service._finalize(
                job,
                {
                    "state": JobState.ERROR,
                    "error": (
                        f"dead-lettered after {attempts} attempts "
                        f"(last worker {lease.worker_id} {reason})"
                    ),
                    "dead_lettered": True,
                },
            )
            return
        self._m_requeues.inc()
        self._journal(
            "requeue", id=job.id, attempts=attempts, worker=lease.worker_id
        )
        self.service.requeue(job)

    def reap(self) -> List[str]:
        """One liveness sweep; returns the ids of workers expired."""
        now = time.monotonic()
        expired: List[str] = []
        with self._lock:
            for worker_id, worker in list(self._workers.items()):
                if now - worker.last_seen > self.config.heartbeat_timeout:
                    self._expire_worker(worker_id, reason="missed heartbeats")
                    expired.append(worker_id)
        return expired

    def _reaper_loop(self) -> None:
        interval = self.config.reaper_interval
        if interval is None:
            interval = max(0.05, self.config.heartbeat_timeout / 4.0)
        while not self._stop.wait(interval):
            self.reap()

    # ------------------------------------------------------------------
    # Lifecycle + introspection
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._reaper is not None:
            return
        self._stop.clear()
        self._reaper = threading.Thread(
            target=self._reaper_loop, name="repro-cluster-reaper", daemon=True
        )
        self._reaper.start()

    def stop(self) -> None:
        self._stop.set()
        if self._reaper is not None:
            self._reaper.join(timeout=5.0)
            self._reaper = None
        self.journal.close()

    def topology(self) -> Dict[str, Any]:
        """The ``GET /cluster`` snapshot."""
        now = time.monotonic()
        timeout = self.config.heartbeat_timeout
        leases = [
            {
                "job_id": lease.job.id,
                "worker": lease.worker_id,
                "facts_digest": lease.digest,
                "held_seconds": round(now - lease.granted_mono, 3),
            }
            for lease in self.service.leases().values()
        ]
        with self._lock:
            workers = [
                w.snapshot(now, timeout) for w in self._workers.values()
            ]
            dead = list(self.dead_letters)
        return {
            "node_id": NODE_ID,
            "workers": workers,
            "leases": leases,
            "dead_letters": dead,
            "ring_nodes": list(self.shard.ring.nodes()),
            "journal": {
                "path": self.journal.path,
                "records": len(self.journal.records),
                "bytes": self.journal.size_bytes(),
                "torn_records_recovered": self.journal.torn_records,
            },
            "config": {
                "heartbeat_timeout": self.config.heartbeat_timeout,
                "max_retries": self.config.max_retries,
                "max_queue_depth": self.config.max_queue_depth,
                "rate_limit": self.config.rate_limit,
                "rate_burst": self.config.rate_burst,
            },
        }
