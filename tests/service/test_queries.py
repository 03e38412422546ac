"""HTTP tests for the demand-query route (`POST /queries`) and the
`--max-sessions` cap plumbing."""

import json
import urllib.error
import urllib.request

import pytest

from repro import analyze, encode_program
from repro.frontend import parse_source
from repro.service import AnalysisService, JobSpec, ServiceClient, local_service
from repro.service.api import start_server

SOURCE = """
class Box {
    field v;
    method set(x) { this.v = x; }
    method get()  { r = this.v; return r; }
}
class Main {
    static method main() {
        b1 = new Box();  b2 = new Box();
        a = new Box();   b = new Box();
        b1.set(a);       b2.set(b);
        g1 = b1.get();   g2 = b2.get();
    }
}
"""
VARS = ["Main.main/0/g1", "Main.main/0/g2"]


def _req(url, method="GET", payload=None):
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        url,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestQueriesRoute:
    def test_answers_equal_whole_program_projection(self):
        program = parse_source(SOURCE)
        facts = encode_program(program)
        whole = analyze(program, "2objH", facts=facts)
        with local_service(workers=0) as url:
            status, body = _req(
                f"{url}/queries",
                "POST",
                {"source": SOURCE, "vars": VARS, "flavor": "2objH"},
            )
            assert status == 200
            assert body["flavor"] == "2objH"
            assert body["cached"] is False
            assert body["facts_digest"] == facts.digest()
            assert [a["var"] for a in body["answers"]] == VARS
            for answer in body["answers"]:
                assert answer["points_to"] == sorted(
                    whole.points_to(answer["var"])
                )
                assert 0.0 < answer["footprint"] <= 1.0

    def test_identical_batch_replays_from_cache(self):
        payload = {"source": SOURCE, "vars": VARS, "flavor": "2typeH"}
        with local_service(workers=0) as url:
            _, first = _req(f"{url}/queries", "POST", payload)
            assert first["cached"] is False
            _, second = _req(f"{url}/queries", "POST", payload)
            assert second["cached"] is True
            assert second["answers"] == first["answers"]

    def test_blown_budget_is_an_error_slot_not_a_failure(self):
        with local_service(workers=0) as url:
            status, body = _req(
                f"{url}/queries",
                "POST",
                {
                    "source": SOURCE,
                    "vars": VARS,
                    "flavor": "2objH",
                    "max_tuples": 1,
                },
            )
            assert status == 200
            for slot in body["answers"]:
                assert set(slot["error"]) == {"reason", "tuples", "seconds"}
            # ... and the timeouts are visible on /metrics.
            client = ServiceClient(url)
            text = client.metrics()
            assert 'repro_service_queries_total{state="timeout"}' in text

    @pytest.mark.parametrize(
        "payload",
        [
            {"vars": VARS, "flavor": "2objH"},  # neither program selector
            {"source": SOURCE, "benchmark": "antlr", "vars": VARS},  # both
            {"source": SOURCE, "vars": []},  # empty batch
            {"source": SOURCE, "vars": VARS, "flavor": "introspective-C"},
            {"source": SOURCE, "vars": VARS, "flavor": "bad-flavor"},
            {"source": SOURCE, "vars": VARS, "nope": 1},  # unknown field
            {"benchmark": "no-such-bench", "vars": VARS},
        ],
        ids=[
            "no-program",
            "both-programs",
            "no-vars",
            "bad-flavor",
            "bad-analysis-flavor",
            "unknown-field",
            "bad-benchmark",
        ],
    )
    def test_malformed_payloads_are_400(self, payload):
        """Every reject is answered before the program is built: no
        build is counted and no engine is cached."""
        service = AnalysisService(workers=0)
        server, _thread = start_server(service)
        host, port = server.server_address[:2]
        url = f"http://{host}:{port}"
        try:
            status, body = _req(f"{url}/queries", "POST", payload)
            assert status == 400
            assert "error" in body
            builds = ServiceClient(url).metric_value(
                "repro_service_spec_builds_total"
            )
            assert builds == 0
            assert not service._engines
        finally:
            server.shutdown()
            server.server_close()
            service.stop()

    def test_query_metrics_are_exposed(self):
        with local_service(workers=0) as url:
            _req(
                f"{url}/queries",
                "POST",
                {"source": SOURCE, "vars": VARS, "flavor": "insens"},
            )
            text = ServiceClient(url).metrics()
            assert 'repro_service_queries_total{state="done"}' in text
            assert "repro_service_query_seconds" in text
            assert "repro_service_query_slice_vars" in text

    def test_engine_cache_reuses_warm_insensitive_pass(self):
        """Two uncached batches over the same program share one engine:
        the second answers from the engine's memo tiers."""
        service = AnalysisService(workers=0)
        try:
            first = service.run_queries(
                {"source": SOURCE, "vars": [VARS[0]], "flavor": "2objH"}
            )
            second = service.run_queries(
                {"source": SOURCE, "vars": VARS, "flavor": "2objH"}
            )
            assert second["cached"] is False  # different cache key ...
            assert (
                second["slice_memo_entries"] >= first["slice_memo_entries"]
            )  # ... but the same warm engine underneath
        finally:
            service.stop()

    def test_cold_batch_builds_and_hashes_once(self, monkeypatch):
        """A cold batch builds its program once and hashes its facts
        once (the new engine's digest keys the response); a batch on
        the warm engine and a replay build nothing."""
        from repro.facts.encoder import FactBase

        hashes = []
        real_digest = FactBase.digest

        def counting_digest(facts):
            hashes.append(1)
            return real_digest(facts)

        monkeypatch.setattr(FactBase, "digest", counting_digest)
        service = AnalysisService(workers=0)
        builds = service._m_spec_builds
        try:
            payload = {"source": SOURCE, "vars": VARS, "flavor": "2objH"}
            cold = service.run_queries(payload)
            assert builds.value() == 1
            assert len(hashes) == 1
            warm = service.run_queries(dict(payload, flavor="insens"))
            replay = service.run_queries(payload)
            assert builds.value() == 1
            assert len(hashes) == 1
            assert warm["facts_digest"] == cold["facts_digest"]
            assert replay["cached"] is True
            assert replay["answers"] == cold["answers"]
        finally:
            service.stop()

    def test_job_claim_seeds_the_digest_for_queries(self):
        """A query batch on a program a job already keyed finds the
        digest in the memo; it still builds once for its engine."""
        service = AnalysisService(workers=0)
        try:
            job = service.submit(JobSpec(source=SOURCE, analysis="insens"))
            service.claim(service.pop(timeout=0), "test")
            assert service._m_spec_builds.value() == 1
            body = service.run_queries({"source": SOURCE, "vars": VARS})
            assert service._m_spec_builds.value() == 2
            assert body["facts_digest"] == service.leases()[job.id].digest
        finally:
            service.stop()


class TestMaxSessionsPlumbing:
    def test_session_cap_reaches_http_as_409(self):
        with local_service(workers=0, max_sessions=1) as url:
            status, body = _req(
                f"{url}/sessions",
                "POST",
                {"source": SOURCE, "analysis": "insens"},
            )
            assert status == 201
            status, body = _req(
                f"{url}/sessions",
                "POST",
                {"source": SOURCE, "analysis": "insens"},
            )
            assert status == 409
            assert "error" in body

    def test_default_cap_is_sixteen(self):
        from repro.service.sessions import SessionStore

        assert AnalysisService(workers=0).sessions.max_sessions == 16
        assert SessionStore().max_sessions == 16
