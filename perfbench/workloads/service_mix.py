"""service-mix: one closed-loop client against a ``repro serve`` child.

Each pass starts a fresh server: ``--workers 1`` on a free port, memory
cache only.  The client sends its next request only after the previous
one completed.  Its script is 60% replays of earlier job bodies (cache
hits; each fresh body is replayed three times), 20% fresh introspective
jobs (one per analog, 2objH or 2typeH with heuristic A or B; a distinct
generous ``max_seconds`` gives each a new cache key without changing its
result) and 20% ``POST /queries`` batches of three pool variables under
2objH.  Jobs go through the public ``ServiceClient``.

One client, not several: the server and the benchmark share a 2-vCPU
host, and a second client's requests would time the scheduler and the
order in which the two arrive, not the service.  The host speed is read
between requests, while the server is idle.

The work is the same for every seed: the fresh jobs and query batches,
and the batches' variables, are fixed.  The run seed only orders the
requests (a replay always follows its fresh job).  ``ops_per_s`` divides
the requests by the time spent in them.
"""

from __future__ import annotations

import json
import os
import queue
import random
import re
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from typing import Dict, List, Optional, Tuple

from .. import oracle
from ..common import (
    OUT,
    ROOT,
    SpanTable,
    child_env,
    fresh_import_seconds,
    stop_group,
    vm_hwm_mb,
)
from . import Pass, refinement_counts

from repro.service.client import ServiceClient, ServiceError

SETUP = "spawn of `repro serve` to its listening line (twice per pass)"
SETUP_REPEATS = 2
#: Seconds of --seconds given to a full pass, each analog's fresh job once
#: (it takes about 12 s).
PASS_SECONDS = 20.0
HITS_PER_COLD = 3
QUERIES_PER_COLD = 1
VARS_PER_QUERY = 3
#: ServiceClient.wait polls at this fixed interval, so a job's measured
#: latency overshoots its completion by at most one interval, while the
#: polls take little of the server's CPU.
POLL_SECONDS = 0.01
READY_TIMEOUT = 60.0
JOB_TIMEOUT = 120.0

_LISTENING = re.compile(r"listening on (http://\S+)")


#: (flavor, heuristic) of each analog's fresh job, by analog index: both
#: flavors and both heuristics appear, and jython gets 2objH-IntroB, the
#: expected budget timeout.
_JOB_KINDS = (("2typeH", "A"), ("2objH", "B"), ("2typeH", "B"), ("2objH", "A"))


#: Seed of the query batches' variables, which every run shares.
WORK_SEED = 0


def client_work(table: dict) -> Tuple[list, list]:
    """The fresh (analog, flavor, heuristic) jobs and the query bodies,
    the same for every seed."""
    jobs = [(analog,) + _JOB_KINDS[i % len(_JOB_KINDS)]
            for i, analog in enumerate(oracle.ANALOGS)]
    work = random.Random(WORK_SEED)
    analogs = list(oracle.query_analogs(table))
    work.shuffle(analogs)
    n_queries = QUERIES_PER_COLD * len(jobs)
    queries = [{
        "benchmark": analog,
        "flavor": oracle.QUERY_FLAVOR,
        "vars": work.sample(sorted(table["queries"][analog]), VARS_PER_QUERY),
    } for analog in (analogs * n_queries)[:n_queries]]
    return jobs, queries


def make_script(seed: int, table: dict) -> dict:
    """The fresh jobs, each replayed exactly HITS_PER_COLD times after it,
    and the query batches, in a seeded order (the first op is always
    fresh)."""
    rng = random.Random(seed)
    jobs, queries = client_work(table)
    rng.shuffle(jobs)
    rng.shuffle(queries)
    ops: List[dict] = []
    replays: List[int] = []  # one entry per replay still owed
    issued = 0
    while issued < len(jobs) or replays or queries:
        weights = [len(jobs) - issued, len(replays), len(queries)]
        kind = "cold" if issued == 0 else rng.choices(
            ("cold", "hit", "query"), weights)[0]
        if kind == "cold":
            analog, flavor, label = jobs[issued]
            ops.append({"kind": "cold", "body": {
                "benchmark": analog,
                "analysis": flavor,
                "introspective": label,
                "heuristic_constants": oracle.HEURISTIC_CONSTANTS[label],
                "max_tuples": oracle.BUDGET,
                "max_seconds": 600.0 + issued,
            }})
            replays.extend([issued] * HITS_PER_COLD)
            issued += 1
        elif kind == "hit":
            ops.append({"kind": "hit", "replay": replays.pop(
                rng.randrange(len(replays)))})
        else:
            ops.append({"kind": "query", "body": queries.pop()})
    return {"workload": "service-mix", "ops": ops}


# ----------------------------------------------------------------------
# The server child
# ----------------------------------------------------------------------
class Server:
    """A ``repro serve`` child in its own process group, reaped on exit
    (normal, exception or interrupt) together with its worker pool."""

    def __init__(self) -> None:
        OUT.mkdir(parents=True, exist_ok=True)
        self._log = open(OUT / "serve.log", "ab")
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                 "--workers", "1"],
                cwd=str(ROOT), env=child_env(), stdout=subprocess.PIPE,
                stderr=self._log, start_new_session=True,
            )
        except BaseException:
            self._log.close()
            raise
        self.url: Optional[str] = None
        lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(
            target=self._drain, args=(lines,), daemon=True
        )
        self._reader.start()
        try:
            deadline = time.monotonic() + READY_TIMEOUT
            while self.url is None:
                line = lines.get(timeout=max(0.0, deadline - time.monotonic()))
                if line is None:
                    raise RuntimeError("repro serve exited before listening")
                found = _LISTENING.search(line)
                if found:
                    self.url = found.group(1)
        except BaseException:
            self.stop()
            raise

    def _drain(self, lines: "queue.Queue[Optional[str]]") -> None:
        for raw in self.proc.stdout:
            lines.put(raw.decode(errors="replace"))
        lines.put(None)

    def group_peak_rss_mb(self) -> float:
        """Largest peak RSS among the server and its pool workers."""
        peak = 0.0
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                    fields = fh.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[2]) == self.proc.pid:  # process group id
                peak = max(peak, vm_hwm_mb(entry))
        return peak

    def stop(self) -> None:
        stop_group(self.proc)
        self._reader.join(timeout=5.0)
        self.proc.stdout.close()
        self._log.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def spawn_ready() -> Tuple[Server, List[float]]:
    """Spawn the server SETUP_REPEATS times, timing spawn-to-ready; keep
    the last one running."""
    samples = []
    for i in range(SETUP_REPEATS):
        start = time.perf_counter()
        server = Server()
        samples.append(time.perf_counter() - start)
        if i < SETUP_REPEATS - 1:
            server.stop()
    return server, samples


# ----------------------------------------------------------------------
# Clients
# ----------------------------------------------------------------------
class CountingClient(ServiceClient):
    """The public client, counting status polls."""

    def __init__(self, base_url: str) -> None:
        super().__init__(base_url, request_timeout=JOB_TIMEOUT)
        self.polls = 0

    def status(self, job_id: str) -> Dict[str, object]:
        self.polls += 1
        return super().status(job_id)


def post_queries(base_url: str, body: dict) -> dict:
    """``POST /queries`` (the client library has no wrapper for it)."""
    req = urllib.request.Request(
        base_url + "/queries", data=json.dumps(body).encode(), method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=JOB_TIMEOUT) as resp:
            return json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        raise ServiceError(exc.code, {"error": exc.read().decode()}) from None
    except OSError as exc:
        raise ServiceError(0, {"error": str(exc)}) from None


def observed_cell(state: str, payload: dict) -> Dict[str, object]:
    """A job payload as a paper-table entry."""
    refinement = payload.get("refinement")
    if refinement is not None:
        refinement = [refinement["total_call_sites"],
                      refinement["excluded_call_sites"],
                      refinement["total_objects"],
                      refinement["excluded_objects"]]
    if state == "timeout":
        return {"timed_out": True, "tuples": None, "precision": None,
                "refinement": refinement}
    precision = payload["precision"]
    return {
        "timed_out": False,
        "tuples": payload["stats"]["tuple_count"],
        "precision": [precision["polymorphic_call_sites"],
                      precision["reachable_methods"],
                      precision["casts_may_fail"]],
        "refinement": refinement,
    }


class _Client:
    """The closed-loop client: it records its ops in ``result``."""

    def __init__(self, url: str, table: dict, traced: bool,
                 result: Pass) -> None:
        self.url = url
        self.api = CountingClient(url)
        self.table = table
        self.traced = traced
        self.result = result
        self.rows: List[Tuple[str, float]] = []  # (span name, seconds)
        self.events: List[dict] = []  # trace events of uncached jobs
        self.bodies: List[dict] = []  # fresh job bodies, for replays

    def run(self, ops: List[dict]) -> None:
        for op in ops:
            self.result.speed.read()
            self.run_op(op)
        self.result.speed.read()

    def run_op(self, op: dict) -> None:
        result = self.result
        if op["kind"] == "query":
            body = op["body"]
            start = time.perf_counter()
            try:
                response = post_queries(self.url, body)
            except ServiceError as exc:
                result.op("query", start)
                result.count("service.http_errors")
                result.fail(f"query {body['benchmark']}: {exc}")
                return
            result.op("query", start)
            self.rows.append(("service.query", result.ops[-1][2] - start))
            self.check_query(body, response)
            return
        if op["kind"] == "cold":
            body = dict(op["body"], trace=True) if self.traced else op["body"]
            self.bodies.append(body)
        else:
            body = self.bodies[op["replay"]]
        category = "job_cold" if op["kind"] == "cold" else "job_hit"
        key = oracle.cell_key(body["benchmark"], body["analysis"],
                              body["introspective"])
        start = time.perf_counter()
        try:
            job_id = self.api.submit(**body)
            submitted = time.perf_counter()
            snapshot = self.api.wait(job_id, timeout=JOB_TIMEOUT,
                                     interval=POLL_SECONDS,
                                     max_interval=POLL_SECONDS)
            final = self.api.result(job_id)
        except (ServiceError, TimeoutError) as exc:
            result.op(category, start)
            result.count("service.http_errors", isinstance(exc, ServiceError))
            result.fail(f"{key}: {exc}")
            return
        result.op(category, start)
        result.count("service.jobs")
        self.rows.append(("service.submit", submitted - start))
        self.rows.append(("service.queue", snapshot["queue_seconds"] or 0.0))
        self.rows.append(("service.run", snapshot["run_seconds"] or 0.0))
        payload = final["result"]
        if final["state"] not in ("done", "timeout"):
            result.fail(f"{key}: state {final['state']}: {payload.get('error')}")
            return
        observed = observed_cell(final["state"], payload)
        result.outputs.append([key, observed])
        expected = self.table["cells"][key]
        if observed != expected:
            result.fail(f"{key}: got {observed}, expected {expected}")
        if not final["cached"]:
            for stage, seconds in payload.get("stages", {}).items():
                self.rows.append((f"service.stage.{stage}", seconds))
            if "trace" in payload:
                self.events.extend(payload["trace"]["chrome"]["traceEvents"])
            for name, amount in refinement_counts(observed).items():
                result.count(name, amount)

    def check_query(self, body: dict, response: dict) -> None:
        result = self.result
        pool = self.table["queries"][body["benchmark"]]
        answers = {}
        for answer in response["answers"]:
            if "error" in answer:
                result.fail(f"query {answer['var']}: {answer['error']}")
                continue
            answers[answer["var"]] = answer["points_to"]
            result.count("query.answers")
            result.count("query.footprint_sum", answer["footprint"])
        result.outputs.append([body["benchmark"], answers])
        for var in body["vars"]:
            if answers.get(var) != pool[var]:
                result.fail(f"pts({var}) = {answers.get(var)}, "
                            f"expected {pool[var]}")


def cache_counters(api: ServiceClient) -> Tuple[float, float]:
    return (api.metric_value("repro_service_cache_hits_total"),
            api.metric_value("repro_service_cache_misses_total"))


def run(script: dict, table: dict, traced: bool) -> Pass:
    server, setup = spawn_ready()
    with server:
        result = Pass(setup=setup)
        admin = ServiceClient(server.url)
        hits0, misses0 = cache_counters(admin)
        client = _Client(server.url, table, traced, result)
        client.run(script["ops"])
        hits1, misses1 = cache_counters(admin)
        result.peak_rss_mb = server.group_peak_rss_mb()
    if traced:
        spans = result.spans = SpanTable()
        spans.add_events(client.events)
        for name, seconds in client.rows:
            spans.add(name, 1, seconds, seconds)
        result.count("service.polls", client.api.polls)
        for seconds in fresh_import_seconds(["repro.cli"], SETUP_REPEATS):
            spans.add("cli.import", 1, seconds, seconds)
        result.count("service.cache_hits", hits1 - hits0)
        result.count("service.cache_lookups",
                     (hits1 - hits0) + (misses1 - misses0))
    return result
