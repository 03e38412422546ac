"""Analysis-as-a-service: the service core and its HTTP JSON API.

:class:`AnalysisService` ties the pieces together: a priority
:class:`~repro.service.jobs.JobQueue`, a
:class:`~repro.service.workers.WorkerPool`, a content-addressed
:class:`~repro.service.cache.ResultCache`, and a telemetry
:class:`~repro.service.telemetry.Registry`.

Every running job is a :class:`~repro.service.jobs.Lease` in one table.
``claim`` computes a popped job's content key (build + encode + digest,
cheap relative to a solve) and answers cache hits and build errors on the
spot; ``complete`` fills the cache and finalizes the job.  The dispatcher
thread holds leases for the in-process pool; in coordinator mode remote
workers hold them through ``/cluster/lease`` and ``/cluster/complete``.

The HTTP layer is a stdlib :class:`~http.server.ThreadingHTTPServer`
speaking JSON, mirroring the submit/poll shape of builder-style services:

===========================  ======  ======================================
``POST /jobs``               202     submit a job (benchmark or inline
                                     source)
``GET /jobs``                200     list job snapshots
``GET /jobs/{id}``           200     one job's status snapshot
``GET /jobs/{id}/result``    200     terminal result payload (409 while
                                     queued/running)
``DELETE /jobs/{id}``        200     cancel a queued job (409 once it
                                     has been popped)
``POST /sessions``           201     open a warm edit session (pays the
                                     initial solve; 409 at capacity)
``GET /sessions``            200     list session snapshots
``GET /sessions/{id}``       200     one session's snapshot
``POST /sessions/{id}/edits``  200   apply an edit script, returning the
                                     result delta + tier + timing (400
                                     rejects, session unchanged)
``DELETE /sessions/{id}``    200     close a session
``POST /queries``            200     answer a batch of demand ``pts(v)``
                                     queries over slices (cached via the
                                     result-cache tiers; 400 rejects)
``GET /healthz``             200     liveness + quick stats
``GET /metrics``             200     Prometheus text format
===========================  ======  ======================================

Sessions are the incremental subsystem over HTTP — see
``docs/incremental.md`` for the edit vocabulary and payload shapes.

``serve()`` is the blocking entry point behind ``repro serve``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import re
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from functools import partial
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Iterator, Optional, TYPE_CHECKING, Tuple

from .cache import ResultCache, cache_key
from .jobs import NODE_ID, Job, JobQueue, JobSpec, JobState, Lease
from .sessions import SessionError, SessionStore
from .telemetry import Registry
from .workers import WorkerPool, encode_spec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..cluster.coordinator import ClusterConfig

__all__ = [
    "AnalysisService",
    "create_server",
    "local_service",
    "serve",
    "start_server",
]


class AnalysisService:
    """Queue + worker pool + cache + telemetry behind one submit() call."""

    def __init__(
        self,
        workers: int = 2,
        cache_capacity: int = 128,
        cache_dir: Optional[str] = None,
        receipt_dir: Optional[str] = None,
        max_sessions: int = 16,
        cluster: Optional["ClusterConfig"] = None,
    ) -> None:
        self.receipt_dir = receipt_dir
        self.telemetry = Registry()
        t = self.telemetry
        self._m_submitted = t.counter(
            "repro_service_jobs_submitted_total", "Jobs accepted for execution."
        )
        self._m_jobs = t.counter(
            "repro_service_jobs_total", "Jobs finished, by terminal state."
        )
        self._m_cache_hits = t.counter(
            "repro_service_cache_hits_total", "Result-cache hits, by tier."
        )
        self._m_cache_misses = t.counter(
            "repro_service_cache_misses_total", "Result-cache misses."
        )
        self._m_pass1 = t.counter(
            "repro_service_pass1_reuse_total",
            "Introspective jobs that reused a cached insensitive first pass.",
        )
        self._m_depth = t.gauge(
            "repro_service_queue_depth", "Jobs currently queued."
        )
        self._m_running = t.gauge(
            "repro_service_jobs_running", "Jobs currently executing."
        )
        self._m_workers = t.gauge(
            "repro_service_workers", "Configured worker-process count."
        )
        self._m_solve = t.histogram(
            "repro_service_solve_seconds", "Job execution wall time (seconds)."
        )
        self._m_solver_seconds = t.summary(
            "repro_service_solver_seconds",
            "Solver wall time per job (seconds), excluding build/encode.",
        )
        self._m_solver_tuples = t.summary(
            "repro_service_solver_tuples",
            "Tuples derived by the solver per job.",
        )
        self._m_solver_tps = t.gauge(
            "repro_service_solver_tuples_per_second",
            "Solver throughput of the most recent uncached job.",
        )
        self._m_stage = t.summary(
            "repro_service_stage_seconds",
            "Per-stage job wall time (seconds), labeled by stage.",
        )
        self._m_queries = t.counter(
            "repro_service_queries_total",
            "Demand queries answered, by outcome.",
        )
        self._m_query_seconds = t.summary(
            "repro_service_query_seconds",
            "Wall time per answered demand query (seconds).",
        )
        self._m_query_slice_vars = t.summary(
            "repro_service_query_slice_vars",
            "Planned slice size per answered demand query (variables).",
        )
        self._m_receipt_failures = t.counter(
            "repro_service_receipt_write_failures_total",
            "Job receipts that could not be written to --receipt-dir.",
        )
        self._m_pool_restarts = t.counter(
            "repro_service_pool_restarts_total",
            "Worker-process pools replaced after a worker process died.",
        )

        self.queue = JobQueue()
        self.pool = WorkerPool(workers, restarts=self._m_pool_restarts)
        self.cache = ResultCache(
            capacity=cache_capacity,
            cache_dir=cache_dir,
            hits=self._m_cache_hits,
            misses=self._m_cache_misses,
        )
        self._m_workers.set(workers)
        self.sessions = SessionStore(max_sessions=max_sessions)
        self._m_sessions = t.gauge(
            "repro_service_sessions", "Live warm edit sessions."
        )
        self._m_session_edits = t.counter(
            "repro_service_session_edits_total",
            "Edit scripts applied to warm sessions, by tier.",
        )
        self._jobs: Dict[str, Job] = {}
        self._jobs_lock = threading.Lock()
        # The lease table: every running job, by job id, whoever runs it.
        self._leases: Dict[str, Lease] = {}
        self._leases_lock = threading.Lock()
        # Warm demand-query engines, LRU by facts digest (each one holds
        # an insensitive pass + memo tables; see repro.query).
        self._engines: "OrderedDict[str, Any]" = OrderedDict()
        self._engines_lock = threading.Lock()
        self._query_lock = threading.Lock()
        self._slots = threading.BoundedSemaphore(self.pool.slots)
        self._stop = threading.Event()
        self._dispatcher: Optional[threading.Thread] = None
        self.started_at = time.time()
        # The cluster extension (docs/cluster.md) — None keeps the exact
        # single-process behavior.  Constructed last: it registers its
        # own telemetry and may replay journaled jobs into the queue.
        self.cluster = None
        if cluster is not None:
            from ..cluster.coordinator import ClusterCoordinator

            self.cluster = ClusterCoordinator(self, cluster)

    # ------------------------------------------------------------------
    # Public API (used by the HTTP layer and directly by tests/harness)
    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec, client: Optional[str] = None) -> Job:
        """Accept a job.  In cluster mode this runs admission control
        (may raise :class:`~repro.cluster.coordinator.Backpressure`) and
        journals the acceptance durably before the job becomes visible.
        """
        if self.cluster is not None:
            return self.cluster.submit(spec, client=client)
        return self.enqueue(Job(spec=spec))

    def enqueue(self, job: Job) -> Job:
        """Register and queue an already-constructed job (no admission)."""
        with self._jobs_lock:
            self._jobs[job.id] = job
        self.queue.put(job)
        self._m_submitted.inc()
        self._m_depth.set(self.queue.depth())
        return job

    def job(self, job_id: str) -> Optional[Job]:
        with self._jobs_lock:
            return self._jobs.get(job_id)

    def jobs(self) -> Tuple[Job, ...]:
        with self._jobs_lock:
            return tuple(self._jobs.values())

    def cancel(self, job_id: str) -> bool:
        job = self.job(job_id)
        if job is None or not self.queue.cancel(job):
            return False
        self._m_jobs.inc(state=JobState.CANCELLED)
        self._m_depth.set(self.queue.depth())
        if self.cluster is not None:
            # Keep the journal truthful: a cancelled job must not be
            # resurrected by a replay after a coordinator restart.
            self.cluster.record_terminal(job.id, JobState.CANCELLED)
        return True

    def start(self) -> None:
        if self._dispatcher is not None:
            return
        self._stop.clear()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-dispatcher", daemon=True
        )
        self._dispatcher.start()
        if self.cluster is not None:
            self.cluster.start()

    def stop(self, wait: bool = True) -> None:
        self._stop.set()
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=5.0)
            self._dispatcher = None
        if self.cluster is not None:
            self.cluster.stop()
        self.pool.shutdown(wait=wait)

    # ------------------------------------------------------------------
    # Leases: pop -> claim -> (run) -> complete, for every worker
    # ------------------------------------------------------------------
    def pop(self, timeout: Optional[float]) -> Optional[Job]:
        """The next queued job, now ``running`` (None on timeout)."""
        job = self.queue.pop(timeout)
        self._m_depth.set(self.queue.depth())
        return job

    def requeue(self, job: Job) -> None:
        """Put a popped job back in the queue."""
        self.queue.put(job)
        self._m_depth.set(self.queue.depth())

    def leases(self) -> Dict[str, Lease]:
        """A snapshot of the lease table, by job id."""
        with self._leases_lock:
            return dict(self._leases)

    def claim(self, job: Job, worker_id: str) -> Optional[Lease]:
        """Lease a popped job to ``worker_id``, or answer it on the spot.

        The content key costs one build -> encode -> digest.  A cache hit
        and a spec that does not build are finalized here (None is
        returned); any other job is recorded as ``worker_id``'s lease.
        """
        try:
            _program, _facts, digest = encode_spec(job.spec)
            key = cache_key(digest, job.spec)
            if self.cluster is not None:
                cached = self.cluster.shard.get(key, digest)
            else:
                cached = self.cache.get(key)
        except Exception as exc:  # noqa: BLE001 - bad source/benchmark
            error = f"{type(exc).__name__}: {exc}"
            self._finalize(job, {"state": JobState.ERROR, "error": error})
            return None
        if cached is not None:
            self._finalize(job, dict(cached, cached=True))
            return None
        lease = Lease(job=job, worker_id=worker_id, key=key, digest=digest)
        with self._leases_lock:
            self._leases[job.id] = lease
            self._m_running.set(len(self._leases))
        return lease

    def revoke(self, lease: Lease) -> bool:
        """Drop a lease; False if it was no longer held."""
        with self._leases_lock:
            if self._leases.get(lease.job.id) is not lease:
                return False
            del self._leases[lease.job.id]
            self._m_running.set(len(self._leases))
        return True

    def complete(self, lease: Lease, payload: Dict[str, Any]) -> bool:
        """Finish a leased job with its result payload.

        False, with no effect, for a lease that is no longer held (it
        expired and was requeued, perhaps finished elsewhere): every job
        finalizes — and emits its receipt — exactly once.
        """
        if not self.revoke(lease):
            return False
        self._finalize(lease.job, dict(payload), lease)
        return True

    def _dispatch_loop(self) -> None:
        """The in-process lease holder: pop -> claim -> wait for a pool
        slot (misses only) -> run -> complete.

        It claims only while no remote worker is live.  A claimed miss
        waits for the next free slot, so one job can be held claimed but
        not yet solving, and the jobs queued behind it wait with it.
        """
        defer = self.cluster.defer_local if self.cluster else (lambda: False)
        while not self._stop.is_set():
            if defer():
                time.sleep(0.05)
                continue
            job = self.pop(timeout=0.1)
            if job is None:
                continue
            if defer():
                # A worker registered while we were blocked in pop():
                # hand the job back to the pull path.
                self.requeue(job)
                continue
            lease = self.claim(job, NODE_ID)
            if lease is None:
                continue
            while not self._slots.acquire(timeout=0.1):
                if self._stop.is_set():
                    if self.revoke(lease):
                        self.requeue(job)
                    return
            future = self.pool.submit(job.spec.to_payload())
            future.add_done_callback(partial(self._complete_local, lease))

    def _complete_local(
        self, lease: Lease, future: "Future[Dict[str, Any]]"
    ) -> None:
        try:
            payload = future.result()
        except Exception as exc:  # noqa: BLE001 - e.g. BrokenProcessPool
            payload = {
                "state": JobState.ERROR,
                "error": f"{type(exc).__name__}: {exc}",
            }
        try:
            self.complete(lease, payload)
        finally:
            self._slots.release()

    def _finalize(
        self,
        job: Job,
        payload: Dict[str, Any],
        lease: Optional[Lease] = None,
    ) -> None:
        """Drive a job to its terminal state; a completed ``lease`` also
        fills the result cache."""
        state = payload.get("state", JobState.ERROR)
        job.result = payload
        job.error = payload.get("error")
        job.cached = bool(payload.get("cached", False))
        job.mark_finished()
        self._m_jobs.inc(state=state)
        if "solve_seconds" in payload:
            self._m_solve.observe(payload["solve_seconds"])
        # Solver throughput: only jobs that actually ran a solve (cache
        # hits replay a payload without doing solver work).
        stats = payload.get("stats")
        if stats and not job.cached:
            seconds = stats.get("seconds") or 0.0
            tuples = stats.get("tuple_count") or 0
            self._m_solver_seconds.observe(seconds)
            self._m_solver_tuples.observe(tuples)
            if seconds > 0:
                self._m_solver_tps.set(round(tuples / seconds, 3))
        if not job.cached:
            for stage_name, stage_seconds in (payload.get("stages") or {}).items():
                self._m_stage.observe(stage_seconds, stage=stage_name)
        if payload.get("pass1_reused"):
            self._m_pass1.inc()
        if (
            self.cluster is not None
            and not job.cached
            and state != JobState.CANCELLED
        ):
            # Every receipt (and cache entry) carries the provenance of
            # the node that did the work: the lease holder, or the
            # coordinator itself for what it answered on the spot.
            worker_id = lease.worker_id if lease is not None else NODE_ID
            payload.setdefault("worker", self.cluster.provenance(worker_id))
        if lease is not None and state in (JobState.DONE, JobState.TIMEOUT):
            if self.cluster is not None:
                self.cluster.shard.put(lease.key, lease.digest, payload)
            else:
                self.cache.put(lease.key, payload)
        if (
            self.receipt_dir is not None
            and state == JobState.DONE
            and not job.cached
        ):
            # Every completed uncached job leaves a perf receipt in the
            # results warehouse (docs/warehouse.md).  Best-effort: a full
            # disk must not turn a finished job into a failed one, so a
            # failed write is only counted.  The terminal state is
            # stamped into the snapshot by hand because job.state flips
            # only below: once a poller can observe DONE, the receipt
            # must already be on disk.
            try:
                from ..warehouse import receipt_from_service_job, write_receipt

                snapshot = job.snapshot()
                snapshot["state"] = state
                write_receipt(
                    receipt_from_service_job(snapshot, payload),
                    self.receipt_dir,
                )
            except Exception:  # noqa: BLE001 - receipts are advisory
                self._m_receipt_failures.inc()
        if self.cluster is not None:
            # Journal the terminal transition before the state flip: a
            # replay after a crash must never resurrect a job whose
            # terminal state a poller could already have observed.
            self.cluster.record_terminal(job.id, state)
        job.state = state

    # ------------------------------------------------------------------
    # Demand queries (POST /queries — synchronous, like sessions)
    # ------------------------------------------------------------------
    #: Warm query engines kept per service (each holds one insensitive
    #: pass; mirrors the worker pool's pass-1 cache limit).
    _ENGINE_CACHE_LIMIT = 4

    def _query_engine(self, program: Any, facts: Any, digest: str) -> Any:
        with self._engines_lock:
            engine = self._engines.get(digest)
            if engine is not None:
                self._engines.move_to_end(digest)
                return engine
        from ..query import QueryEngine

        engine = QueryEngine(program, facts=facts)  # pays the insens pass
        with self._engines_lock:
            self._engines.setdefault(digest, engine)
            self._engines.move_to_end(digest)
            while len(self._engines) > self._ENGINE_CACHE_LIMIT:
                self._engines.popitem(last=False)
            return self._engines[digest]

    def run_queries(self, payload: Any) -> Dict[str, Any]:
        """Answer one ``POST /queries`` batch; raises ``ValueError`` on 400s.

        The batch shares a slice union-solve inside the engine, the
        response caches in the ordinary :class:`ResultCache` tiers under
        a content key of ``(facts digest, flavor, vars, budgets)``, and a
        per-query blown budget lands in its answer slot — it fails alone.
        """
        if not isinstance(payload, dict):
            raise ValueError("payload must be a JSON object")
        allowed = {
            "vars",
            "flavor",
            "benchmark",
            "source",
            "max_tuples",
            "max_seconds",
        }
        unknown = sorted(set(payload) - allowed)
        if unknown:
            raise ValueError(f"unknown query fields: {', '.join(unknown)}")
        variables = payload.get("vars")
        if (
            not isinstance(variables, list)
            or not variables
            or not all(isinstance(v, str) for v in variables)
        ):
            raise ValueError("vars must be a non-empty list of variable names")
        flavor = payload.get("flavor", "insens")
        if not isinstance(flavor, str):
            raise ValueError("flavor must be a string")
        max_tuples = payload.get("max_tuples")
        max_seconds = payload.get("max_seconds")
        benchmark = payload.get("benchmark")
        source = payload.get("source")
        if (benchmark is None) == (source is None):
            raise ValueError("exactly one of benchmark or source is required")

        program, facts, digest = encode_spec(
            JobSpec(benchmark=benchmark, source=source)
        )
        key = hashlib.sha256(
            json.dumps(
                {
                    "kind": "queries",
                    "facts": digest,
                    "flavor": flavor,
                    "vars": variables,
                    "max_tuples": max_tuples,
                    "max_seconds": max_seconds,
                },
                sort_keys=True,
            ).encode()
        ).hexdigest()
        cached = self.cache.get(key)
        if cached is not None:
            cached = dict(cached)
            cached["cached"] = True
            return cached

        engine = self._query_engine(program, facts, digest)
        engine.policy(flavor)  # unknown flavor -> ValueError -> 400
        with self._query_lock:
            outcomes = engine.query_batch(
                variables, flavor, max_tuples=max_tuples, max_seconds=max_seconds
            )
        for outcome in outcomes:
            if outcome.answer is not None:
                self._m_queries.inc(state="done")
                self._m_query_seconds.observe(outcome.answer.seconds)
                self._m_query_slice_vars.observe(outcome.answer.slice_variables)
            else:
                self._m_queries.inc(state="timeout")
        response: Dict[str, Any] = {
            "facts_digest": digest,
            "flavor": flavor,
            "cached": False,
            "slice_memo_entries": engine.memo_entries,
            "answers": [o.to_json() for o in outcomes],
        }
        self.cache.put(key, response)
        return response

    # ------------------------------------------------------------------
    # Introspection for /healthz
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        health: Dict[str, Any] = {
            "status": "ok",
            "workers": self.pool.workers,
            "queue_depth": self.queue.depth(),
            "jobs": len(self.jobs()),
            "sessions": len(self.sessions),
            "cache_entries": len(self.cache),
            "uptime_seconds": round(time.time() - self.started_at, 3),
        }
        if self.cluster is not None:
            health["cluster"] = {
                "node_id": NODE_ID,
                "live_workers": len(self.cluster.live_workers()),
                "leases": self.cluster.lease_count(),
            }
        return health


# ----------------------------------------------------------------------
# HTTP layer
# ----------------------------------------------------------------------
_JOB_PATH = re.compile(r"^/jobs/([0-9a-f]+)$")
_RESULT_PATH = re.compile(r"^/jobs/([0-9a-f]+)/result$")
_SESSION_PATH = re.compile(r"^/sessions/([0-9a-f]+)$")
_SESSION_EDITS_PATH = re.compile(r"^/sessions/([0-9a-f]+)/edits$")
_CLUSTER_HEARTBEAT_PATH = re.compile(
    r"^/cluster/workers/([0-9a-f]+)/heartbeat$"
)
_CLUSTER_WORKER_PATH = re.compile(r"^/cluster/workers/([0-9a-f]+)$")
_CLUSTER_CACHE_PATH = re.compile(r"^/cluster/cache/([0-9a-f]+)$")


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-service/1.0"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> AnalysisService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, fmt: str, *args: Any) -> None:
        if getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(fmt, *args)

    # -- helpers -------------------------------------------------------
    def _send_json(
        self,
        status: int,
        payload: Dict[str, Any],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_empty(self, status: int) -> None:
        self.send_response(status)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def _client_key(self) -> str:
        """Rate-limit identity: an explicit header, else the peer IP."""
        return (
            self.headers.get("X-Repro-Client") or self.client_address[0]
        )

    def _send_text(self, status: int, text: str) -> None:
        body = text.encode()
        self.send_response(status)
        self.send_header("Content-Type", "text/plain; version=0.0.4")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ValueError("empty request body")
        return json.loads(raw)

    # -- methods -------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if self.path.startswith("/cluster"):
            self._cluster("POST")
            return
        if self.path == "/jobs":
            try:
                spec = JobSpec.from_payload(self._read_json())
            except ValueError as exc:
                self._send_json(400, {"error": str(exc)})
                return
            try:
                job = self.service.submit(spec, client=self._client_key())
            except Exception as exc:  # Backpressure (cluster mode only)
                from ..cluster.coordinator import Backpressure

                if not isinstance(exc, Backpressure):
                    raise
                self._send_json(
                    429,
                    {"error": str(exc), "reason": exc.reason,
                     "retry_after": round(exc.retry_after, 3)},
                    headers={
                        "Retry-After": str(
                            max(1, int(exc.retry_after + 0.999))
                        )
                    },
                )
                return
            self._send_json(
                202,
                {
                    "id": job.id,
                    "state": job.state,
                    "status_url": f"/jobs/{job.id}",
                    "result_url": f"/jobs/{job.id}/result",
                },
            )
            return
        if self.path == "/sessions":
            try:
                record = self.service.sessions.create(self._read_json())
            except SessionError as exc:
                self._send_json(exc.status, {"error": str(exc)})
                return
            except ValueError as exc:
                self._send_json(400, {"error": str(exc)})
                return
            self.service._m_sessions.set(len(self.service.sessions))
            snapshot = record.snapshot()
            snapshot["edits_url"] = f"/sessions/{record.id}/edits"
            self._send_json(201, snapshot)
            return
        if self.path == "/queries":
            try:
                payload = self.service.run_queries(self._read_json())
            except ValueError as exc:
                self._send_json(400, {"error": str(exc)})
                return
            self._send_json(200, payload)
            return
        m = _SESSION_EDITS_PATH.match(self.path)
        if m:
            try:
                payload = self.service.sessions.apply_edits(
                    m.group(1), self._read_json()
                )
            except SessionError as exc:
                self._send_json(exc.status, {"error": str(exc)})
                return
            except ValueError as exc:
                self._send_json(400, {"error": str(exc)})
                return
            self.service._m_session_edits.inc(tier=payload["tier"])
            self._send_json(200, payload)
            return
        self._send_json(404, {"error": f"no such route: POST {self.path}"})

    # -- cluster routes (docs/cluster.md) ------------------------------
    def _cluster(self, method: str) -> None:
        """Answer every ``/cluster*`` route (404 on a plain service)."""
        cluster = self.service.cluster
        if cluster is None:
            self._send_json(
                404, {"error": "not a cluster coordinator (no --journal)"}
            )
            return
        if method == "GET" and self.path == "/cluster":
            self._send_json(200, cluster.topology())
            return
        m = _CLUSTER_CACHE_PATH.match(self.path)
        if m and method in ("GET", "PUT"):
            # This node's shard of the cluster cache.
            from ..cluster.shard import serve_cache_route

            try:
                status, payload = serve_cache_route(
                    self.service.cache, method, m.group(1), self._read_json
                )
            except ValueError as exc:
                status, payload = 400, {"error": str(exc)}
            self._send_json(status, payload)
            return
        m = _CLUSTER_WORKER_PATH.match(self.path)
        if m and method == "DELETE":
            if cluster.detach_worker(m.group(1)):
                self._send_json(200, {"id": m.group(1), "detached": True})
            else:
                self._send_json(
                    404, {"error": f"unknown worker {m.group(1)}"}
                )
            return
        if method == "POST" and self.path == "/cluster/workers":
            try:
                payload = self._read_json()
                url = payload["url"]
                if not isinstance(url, str) or not url.startswith("http"):
                    raise ValueError("'url' must be an http(s) URL")
            except (ValueError, KeyError, TypeError) as exc:
                self._send_json(400, {"error": f"bad registration: {exc}"})
                return
            granted = cluster.register_worker(url, name=payload.get("name"))
            self._send_json(201, granted)
            return
        m = _CLUSTER_HEARTBEAT_PATH.match(self.path)
        if m and method == "POST":
            if cluster.heartbeat(m.group(1)):
                self._send_json(200, {"ok": True})
            else:
                self._send_json(
                    404, {"error": f"unknown worker {m.group(1)}; re-register"}
                )
            return
        if method == "POST" and self.path == "/cluster/lease":
            try:
                worker_id = self._read_json()["worker"]
            except (ValueError, KeyError, TypeError) as exc:
                self._send_json(400, {"error": f"bad lease request: {exc}"})
                return
            try:
                leased = cluster.lease(worker_id)
            except KeyError:
                self._send_json(
                    404, {"error": f"unknown worker {worker_id}; re-register"}
                )
                return
            if leased is None:
                self._send_empty(204)
            else:
                self._send_json(200, leased)
            return
        if method == "POST" and self.path == "/cluster/complete":
            try:
                body = self._read_json()
                worker_id = body["worker"]
                job_id = body["job_id"]
                payload = body["payload"]
            except (ValueError, KeyError, TypeError) as exc:
                self._send_json(400, {"error": f"bad completion: {exc}"})
                return
            accepted = cluster.complete(worker_id, job_id, payload)
            self._send_json(200, {"accepted": accepted})
            return
        self._send_json(404, {"error": f"no such route: {method} {self.path}"})

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self.path.startswith("/cluster"):
            self._cluster("GET")
            return
        if self.path == "/healthz":
            self._send_json(200, self.service.health())
            return
        if self.path == "/metrics":
            self._send_text(200, self.service.telemetry.render())
            return
        if self.path == "/jobs":
            self._send_json(
                200, {"jobs": [j.snapshot() for j in self.service.jobs()]}
            )
            return
        m = _JOB_PATH.match(self.path)
        if m:
            job = self.service.job(m.group(1))
            if job is None:
                self._send_json(404, {"error": f"no such job: {m.group(1)}"})
            else:
                self._send_json(200, job.snapshot())
            return
        m = _RESULT_PATH.match(self.path)
        if m:
            job = self.service.job(m.group(1))
            if job is None:
                self._send_json(404, {"error": f"no such job: {m.group(1)}"})
            elif not job.terminal:
                self._send_json(
                    409,
                    {"id": job.id, "state": job.state,
                     "error": "job is not finished; poll the status URL"},
                )
            else:
                self._send_json(
                    200,
                    {"id": job.id, "state": job.state, "cached": job.cached,
                     "result": job.result},
                )
            return
        if self.path == "/sessions":
            self._send_json(
                200,
                {
                    "sessions": [
                        r.snapshot() for r in self.service.sessions.list()
                    ]
                },
            )
            return
        m = _SESSION_PATH.match(self.path)
        if m:
            record = self.service.sessions.get(m.group(1))
            if record is None:
                self._send_json(
                    404, {"error": f"no such session: {m.group(1)}"}
                )
            else:
                self._send_json(200, record.snapshot())
            return
        self._send_json(404, {"error": f"no such route: GET {self.path}"})

    def do_PUT(self) -> None:  # noqa: N802 - http.server API
        if self.path.startswith("/cluster"):
            self._cluster("PUT")
            return
        self._send_json(404, {"error": f"no such route: PUT {self.path}"})

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        if self.path.startswith("/cluster"):
            self._cluster("DELETE")
            return
        m = _SESSION_PATH.match(self.path)
        if m:
            if self.service.sessions.delete(m.group(1)):
                self.service._m_sessions.set(len(self.service.sessions))
                self._send_json(200, {"id": m.group(1), "deleted": True})
            else:
                self._send_json(
                    404, {"error": f"no such session: {m.group(1)}"}
                )
            return
        m = _JOB_PATH.match(self.path)
        if not m:
            self._send_json(404, {"error": f"no such route: DELETE {self.path}"})
            return
        job = self.service.job(m.group(1))
        if job is None:
            self._send_json(404, {"error": f"no such job: {m.group(1)}"})
            return
        if self.service.cancel(job.id):
            self._send_json(200, {"id": job.id, "state": job.state})
        else:
            self._send_json(
                409,
                {"id": job.id, "state": job.state,
                 "error": "only queued jobs can be cancelled"},
            )


def create_server(
    service: AnalysisService,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
) -> ThreadingHTTPServer:
    """Bind an HTTP server to ``service`` (``port=0`` picks a free port)."""
    server = ThreadingHTTPServer((host, port), _Handler)
    server.service = service  # type: ignore[attr-defined]
    server.verbose = verbose  # type: ignore[attr-defined]
    server.daemon_threads = True
    return server


def start_server(
    service: AnalysisService,
    host: str = "127.0.0.1",
    port: int = 0,
) -> Tuple[ThreadingHTTPServer, threading.Thread]:
    """Start ``service`` and a server thread; returns (server, thread)."""
    service.start()
    server = create_server(service, host, port)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-http", daemon=True
    )
    thread.start()
    return server, thread


@contextlib.contextmanager
def local_service(workers: int = 0, **options: Any) -> Iterator[str]:
    """Context manager: an ephemeral service; yields its base URL.

    Used by the harness (`run through the service`), the test suite, and
    CI smoke checks.  ``workers=0`` runs solves inline in the dispatcher
    thread — no process pool — which is the cheapest way to exercise the
    cache path.  ``options`` are the other :class:`AnalysisService`
    arguments; passing ``cluster`` makes the service a coordinator (see
    ``docs/cluster.md``).
    """
    service = AnalysisService(workers=workers, **options)
    server, _thread = start_server(service)
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()
        service.stop()


def serve(
    host: str = "127.0.0.1",
    port: int = 8080,
    verbose: bool = False,
    **options: Any,
) -> int:
    """Blocking entry point behind ``repro serve``; ``options`` are
    :class:`AnalysisService` arguments."""
    service = AnalysisService(**options)
    service.start()
    server = create_server(service, host, port, verbose=verbose)
    bound_host, bound_port = server.server_address[:2]
    cache_dir, cluster = options.get("cache_dir"), options.get("cluster")
    print(
        f"repro service listening on http://{bound_host}:{bound_port} "
        f"(workers={service.pool.workers}, cache={service.cache.capacity}"
        + (f", cache-dir={cache_dir}" if cache_dir else "")
        + (f", journal={cluster.journal}" if cluster is not None else "")
        + ")",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.server_close()
        service.stop()
    return 0
