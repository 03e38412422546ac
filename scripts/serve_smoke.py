#!/usr/bin/env python3
"""End-to-end ``repro serve`` smoke check with a real server process.

* start ``python -m repro.cli serve --port 0 --workers 1`` as a child;
* a cold job must end ``done`` and its replay must be a cache hit
  (hits 1, misses 1);
* SIGKILL the pool's worker process while it solves a slow job: that
  job must end ``error``, the next job must end ``done`` on a replaced
  pool (``repro_service_pool_restarts_total`` 1), nothing may be left
  counted as running, and the cache counters must have moved only by
  the two misses.

Exit code 0 on success; any assertion failure or timeout is fatal.  The
server's log goes to the file named by ``--log`` (default: a temp file).
"""

import argparse
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from repro.service.client import ServiceClient  # noqa: E402

LISTEN_RE = re.compile(r"listening on (http://[\d.]+:\d+)")
CHEAP = {"benchmark": "antlr", "analysis": "insens"}
SLOW = {"benchmark": "jython", "analysis": "2objH"}


def start_server(log_path):
    log = open(log_path, "w", buffering=1)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--workers", "1"],
        stdout=log, stderr=subprocess.STDOUT, env=env, cwd=str(ROOT),
        start_new_session=True,
    )
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            sys.exit(f"repro serve exited early; see {log_path}")
        match = LISTEN_RE.search(Path(log_path).read_text())
        if match:
            return proc, match.group(1)
        time.sleep(0.05)
    sys.exit(f"repro serve never announced its port; see {log_path}")


def children(pid):
    """Direct child pids of ``pid`` (Linux ``/proc``)."""
    found = []
    for task in Path(f"/proc/{pid}/task").iterdir():
        found += [int(c) for c in (task / "children").read_text().split()]
    return found


def wait_until(predicate, timeout, what):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    sys.exit(f"timed out waiting for {what}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--log", default=None)
    args = parser.parse_args()
    log_path = args.log or tempfile.mkstemp(suffix="-serve.log")[1]

    proc, url = start_server(log_path)
    try:
        client = ServiceClient(url)
        assert client.healthz()["status"] == "ok"
        first = client.submit(**CHEAP)
        assert client.wait(first, timeout=90)["state"] == "done"
        again = client.submit(**CHEAP)
        client.wait(again, timeout=90)
        assert client.result(again)["cached"] is True
        assert client.metric_value("repro_service_cache_hits_total") == 1
        assert client.metric_value("repro_service_cache_misses_total") == 1

        (pool_worker,) = children(proc.pid)
        slow = client.submit(**SLOW)
        wait_until(
            lambda: client.metric_value("repro_service_jobs_running") == 1,
            30, "the slow job to start",
        )
        time.sleep(0.2)
        os.kill(pool_worker, signal.SIGKILL)
        print(f"SIGKILLed pool worker {pool_worker} mid-job")
        killed = client.wait(slow, timeout=90)
        assert killed["state"] == "error", killed
        print(f"killed job ended error: {killed['error']}")

        after = client.submit(benchmark="antlr", analysis="1call")
        assert client.wait(after, timeout=90)["state"] == "done"
        assert client.metric_value("repro_service_jobs_running") == 0
        assert client.metric_value("repro_service_pool_restarts_total") == 1
        assert client.metric_value("repro_service_cache_hits_total") == 1
        assert client.metric_value("repro_service_cache_misses_total") == 3
    finally:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    print("service smoke test OK")


if __name__ == "__main__":
    main()
