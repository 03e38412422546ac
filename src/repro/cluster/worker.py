"""Worker node: register, heartbeat, pull jobs, serve a cache shard.

``repro worker --coordinator URL`` runs one :class:`WorkerNode`:

* it binds a small HTTP server exposing its shard of the result cache
  (``GET``/``PUT /cluster/cache/{key}`` — see :mod:`repro.cluster.shard`)
  plus ``/healthz``;
* registers with the coordinator (retrying with backoff while the
  coordinator is unreachable) and heartbeats on the interval the
  coordinator prescribes;
* pulls jobs over ``POST /cluster/lease``, executes them in-process via
  the same :func:`~repro.service.workers.execute_job` the single-node
  pool uses, and reports results on ``POST /cluster/complete``.

A worker is stateless from the cluster's point of view: SIGKILL one and
the coordinator's reaper requeues its leased jobs after the heartbeat
window.  If the *coordinator* restarts, heartbeats start failing with
404 (the registry is in memory) and the worker transparently
re-registers under a fresh id.  Reports that do not reach the
coordinator are counted in :meth:`WorkerNode.health`.
"""

from __future__ import annotations

import json
import re
import signal
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from ..service.cache import ResultCache
from ..service.workers import execute_job
from .shard import serve_cache_route

__all__ = ["WorkerNode", "run_worker"]

_CACHE_PATH = re.compile(r"^/cluster/cache/([0-9a-f]+)$")

#: Ceiling for the reconnect backoff while the coordinator is down.
_MAX_BACKOFF_SECONDS = 5.0


def _http_json(
    url: str,
    body: Optional[Dict[str, Any]] = None,
    method: Optional[str] = None,
    timeout: float = 30.0,
) -> Tuple[int, Any]:
    """One JSON request; returns ``(status, decoded_or_None)``.

    HTTP error statuses are returned, not raised; transport failures
    (connection refused, timeout) raise ``urllib.error.URLError``.
    """
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(
        url,
        data=data,
        method=method or ("POST" if data is not None else "GET"),
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            raw = resp.read()
            return resp.status, (json.loads(raw) if raw else None)
    except urllib.error.HTTPError as exc:
        raw = exc.read()
        try:
            payload = json.loads(raw) if raw else None
        except ValueError:
            payload = {"error": raw.decode(errors="replace")}
        return exc.code, payload


class _ShardHandler(BaseHTTPRequestHandler):
    """The worker's cache-shard server (plus a /healthz)."""

    server_version = "repro-worker/1.0"
    protocol_version = "HTTP/1.1"

    def log_message(self, fmt: str, *args: Any) -> None:  # pragma: no cover
        pass

    @property
    def node(self) -> "WorkerNode":
        return self.server.node  # type: ignore[attr-defined]

    def _send(self, status: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        return json.loads(raw) if raw else None

    def _cache(self, method: str) -> None:
        m = _CACHE_PATH.match(self.path)
        if not m:
            self._send(404, {"error": f"no such route: {method} {self.path}"})
            return
        try:
            status, payload = serve_cache_route(
                self.node.cache, method, m.group(1), self._read_json
            )
        except ValueError as exc:
            status, payload = 400, {"error": str(exc)}
        self._send(status, payload)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self.path == "/healthz":
            self._send(200, self.node.health())
            return
        self._cache("GET")

    def do_PUT(self) -> None:  # noqa: N802 - http.server API
        self._cache("PUT")


class WorkerNode:
    """One pull-based worker process/thread."""

    def __init__(
        self,
        coordinator_url: str,
        host: str = "127.0.0.1",
        port: int = 0,
        poll_interval: float = 0.2,
        cache_capacity: int = 128,
        cache_dir: Optional[str] = None,
        name: Optional[str] = None,
        advertise_host: Optional[str] = None,
    ) -> None:
        self.coordinator_url = coordinator_url.rstrip("/")
        self.poll_interval = poll_interval
        self.name = name
        self.cache = ResultCache(capacity=cache_capacity, cache_dir=cache_dir)
        self.worker_id: Optional[str] = None
        self.heartbeat_seconds = 3.0
        self.jobs_executed = 0
        self.failed_completions = 0
        self.failed_detaches = 0
        self.started_at = time.time()
        self._stop = threading.Event()
        self._threads: list = []
        self._server = ThreadingHTTPServer((host, port), _ShardHandler)
        self._server.node = self  # type: ignore[attr-defined]
        self._server.daemon_threads = True
        bound_host, bound_port = self._server.server_address[:2]
        self.url = f"http://{advertise_host or bound_host}:{bound_port}"

    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        return {
            "status": "ok",
            "worker_id": self.worker_id,
            "coordinator": self.coordinator_url,
            "jobs_executed": self.jobs_executed,
            "failed_completions": self.failed_completions,
            "failed_detaches": self.failed_detaches,
            "cache_entries": len(self.cache),
            "uptime_seconds": round(time.time() - self.started_at, 3),
        }

    # ------------------------------------------------------------------
    def _register(self) -> bool:
        """One registration attempt; True on success."""
        try:
            status, payload = _http_json(
                f"{self.coordinator_url}/cluster/workers",
                {"url": self.url, "name": self.name},
            )
        except (urllib.error.URLError, OSError):
            return False
        if status != 201 or not isinstance(payload, dict):
            return False
        self.worker_id = payload["id"]
        self.heartbeat_seconds = float(
            payload.get("heartbeat_seconds") or self.heartbeat_seconds
        )
        return True

    def _register_until_stopped(self) -> bool:
        backoff = 0.2
        while not self._stop.is_set():
            if self._register():
                return True
            self._stop.wait(backoff)
            backoff = min(backoff * 2, _MAX_BACKOFF_SECONDS)
        return False

    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_seconds):
            worker_id = self.worker_id
            if worker_id is None:
                continue
            try:
                status, _ = _http_json(
                    f"{self.coordinator_url}/cluster/workers/"
                    f"{worker_id}/heartbeat",
                    {},
                )
            except (urllib.error.URLError, OSError):
                continue  # coordinator briefly unreachable: keep trying
            if status == 404:
                # The coordinator restarted (or reaped us): re-register
                # under a fresh id.  In-flight jobs under the old id are
                # requeued coordinator-side; our late completions for
                # them are rejected as stale, preserving exactly-once.
                self._register_until_stopped()

    def _pull_loop(self) -> None:
        backoff = 0.2
        while not self._stop.is_set():
            worker_id = self.worker_id
            if worker_id is None:
                self._stop.wait(0.1)
                continue
            try:
                status, leased = _http_json(
                    f"{self.coordinator_url}/cluster/lease",
                    {"worker": worker_id},
                )
            except (urllib.error.URLError, OSError):
                self._stop.wait(backoff)
                backoff = min(backoff * 2, _MAX_BACKOFF_SECONDS)
                continue
            backoff = 0.2
            if status == 404:
                self._register_until_stopped()
                continue
            if status != 200 or not isinstance(leased, dict):
                self._stop.wait(self.poll_interval)
                continue
            payload = execute_job(leased["spec"])
            self.jobs_executed += 1
            try:
                status, _ = _http_json(
                    f"{self.coordinator_url}/cluster/complete",
                    {
                        "worker": worker_id,
                        "job_id": leased["job_id"],
                        "payload": payload,
                    },
                )
            except (urllib.error.URLError, OSError):
                status = 0  # the coordinator is gone mid-report
            if status != 200:
                self.failed_completions += 1

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Non-blocking start (used by tests and by ``run``)."""
        server_thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-worker-shard",
            daemon=True,
        )
        server_thread.start()
        self._threads.append(server_thread)
        if not self._register_until_stopped():
            return
        for target, label in (
            (self._heartbeat_loop, "repro-worker-heartbeat"),
            (self._pull_loop, "repro-worker-pull"),
        ):
            thread = threading.Thread(target=target, name=label, daemon=True)
            thread.start()
            self._threads.append(thread)

    def stop(self, detach: bool = True) -> None:
        self._stop.set()
        if detach and self.worker_id is not None:
            try:
                status, _ = _http_json(
                    f"{self.coordinator_url}/cluster/workers/"
                    f"{self.worker_id}",
                    method="DELETE",
                    timeout=3.0,
                )
            except (urllib.error.URLError, OSError):
                status = 0
            if status != 200:
                self.failed_detaches += 1
        self._server.shutdown()
        self._server.server_close()
        for thread in self._threads:
            if thread is not threading.current_thread():
                thread.join(timeout=5.0)
        self._threads = []

    def run(self) -> int:
        """Blocking entry point behind ``repro worker``."""
        self.start()
        print(
            f"repro worker {self.worker_id or '(unregistered)'} "
            f"serving shard on {self.url}, "
            f"coordinator {self.coordinator_url}"
        )
        try:
            while not self._stop.wait(0.5):
                pass
        except KeyboardInterrupt:
            print("worker shutting down")
        finally:
            self.stop()
        return 0


def run_worker(
    coordinator_url: str,
    host: str = "127.0.0.1",
    port: int = 0,
    poll_interval: float = 0.2,
    cache_capacity: int = 128,
    cache_dir: Optional[str] = None,
    name: Optional[str] = None,
) -> int:
    """CLI shim: build a node, wire SIGTERM, run until stopped."""
    node = WorkerNode(
        coordinator_url,
        host=host,
        port=port,
        poll_interval=poll_interval,
        cache_capacity=cache_capacity,
        cache_dir=cache_dir,
        name=name,
    )

    def _terminate(_signum: int, _frame: Any) -> None:
        node._stop.set()

    try:
        signal.signal(signal.SIGTERM, _terminate)
    except ValueError:  # pragma: no cover - non-main thread
        pass
    return node.run()
