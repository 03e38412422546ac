"""Tests for the engine-comparison loop and its ``repro-bench/2`` report."""

from __future__ import annotations

import dataclasses
import json
import time
import types

import pytest

import repro.harness.bench as bench
from repro.analysis.reference_solver import reference_solve
from repro.analysis.solver import solve as packed_solve
from repro.benchgen.generator import generate
from repro.contexts.policies import policy_by_name
from repro.facts.encoder import encode_program
from repro.harness.bench import (
    BENCH_SCHEMA,
    COMPARISONS,
    DEFAULT_FLAVORS,
    run_comparison,
    suite_names,
    suite_specs,
    write_report,
)

#: Every BENCH_*.json carries this provenance block so scaling numbers
#: stay interpretable across machines (docs/performance.md).
PROVENANCE_KEYS = {"python", "platform", "cpu_count", "gc_enabled"}

#: Keys of every entry, whatever the comparison.
ENTRY_KEYS = {
    "benchmark", "flavor", "variant", "cpu_seconds", "seconds",
    "baseline_cpu_seconds", "baseline_seconds", "work", "peak_rss_kb",
    "detail",
}


def _check_report(report, comparison, variants):
    """Shape every ``repro-bench/2`` report shares."""
    spec = COMPARISONS[comparison]
    assert report["schema"] == BENCH_SCHEMA
    assert report["comparison"] == comparison
    assert report["suite"] == "tiny"
    assert report["baseline"] == spec.baseline
    assert report["candidate"] == spec.candidate
    specs = suite_specs("tiny", comparison)
    cells = len(specs) * len(report["flavors"])
    assert len(report["entries"]) == cells * len(variants)
    for entry in report["entries"]:
        assert set(entry) == ENTRY_KEYS
        assert entry["variant"] in variants
        assert entry["cpu_seconds"] > 0
        assert entry["baseline_cpu_seconds"] > 0
        assert entry["seconds"] >= 0
        key = f"{entry['benchmark']}/{entry['flavor']}/{entry['variant']}"
        # Every speedup is a CPU-time ratio.
        assert report["speedups"][key] == pytest.approx(
            entry["baseline_cpu_seconds"] / entry["cpu_seconds"], rel=1e-2
        )
    assert len(report["speedups"]) == cells * len(variants)
    assert report["geomean_speedup"] > 0


class TestSuiteRegistry:
    def test_known_suites(self):
        assert {"tiny", "small", "medium"} <= set(suite_names())

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite"):
            suite_specs("nope")

    def test_repeat_must_be_positive(self):
        with pytest.raises(ValueError, match="repeat"):
            run_comparison("solver", "tiny", repeat=0)

    def test_unknown_comparison_rejected(self):
        with pytest.raises(ValueError, match="unknown comparison"):
            run_comparison("quantum", "tiny")


class TestRunSuite:
    def test_tiny_suite_report_shape(self):
        messages = []
        report = run_comparison(
            "solver", "tiny", repeat=1, progress=messages.append
        )
        assert report["flavors"] == list(DEFAULT_FLAVORS)
        _check_report(report, "solver", {"packed"})
        assert all(e["work"] > 0 for e in report["entries"])
        assert any("geomean" in m for m in messages)

    def test_engines_agree_on_tuples_per_cell(self):
        # The loop checks agreement; the agreed count is the entry's work.
        report = run_comparison("solver", "tiny", flavors=("2objH",), repeat=1)
        (entry,) = report["entries"]
        (spec,) = suite_specs("tiny")
        program = generate(spec)
        facts = encode_program(program)
        policy = policy_by_name("2objH", alloc_class_of=facts.alloc_class_of)
        expected = reference_solve(program, policy, facts=facts).tuple_count
        assert entry["work"] == expected

    def test_write_report_round_trips(self, tmp_path):
        report = run_comparison("solver", "tiny", flavors=("2objH",), repeat=1)
        path = tmp_path / "BENCH_solver.json"
        write_report(report, str(path))
        assert json.loads(path.read_text()) == json.loads(
            json.dumps(report)
        )


class TestDatalogSuite:
    def test_known_suites(self):
        assert {"tiny", "small", "medium"} <= set(suite_names("datalog"))

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite"):
            suite_specs("nope", "datalog")

    def test_repeat_must_be_positive(self):
        with pytest.raises(ValueError, match="repeat"):
            run_comparison("datalog", "tiny", repeat=0)

    def test_tiny_suite_report_shape(self):
        messages = []
        report = run_comparison(
            "datalog", "tiny", repeat=1, progress=messages.append
        )
        assert report["flavors"] == list(DEFAULT_FLAVORS)
        _check_report(report, "datalog", {"compiled"})
        assert all(e["work"] > 0 for e in report["entries"])
        assert any("geomean" in m for m in messages)

    def test_engines_agree_on_rows_per_cell(self):
        report = run_comparison(
            "datalog", "tiny", flavors=("2objH",), repeat=1
        )
        (entry,) = report["entries"]
        assert entry["variant"] == "compiled"
        assert entry["work"] > 0

    def test_write_report_round_trips(self, tmp_path):
        report = run_comparison(
            "datalog", "tiny", flavors=("2typeH",), repeat=1
        )
        path = tmp_path / "BENCH_datalog.json"
        write_report(report, str(path))
        assert json.loads(path.read_text()) == json.loads(json.dumps(report))


class TestProvenance:
    def test_every_report_kind_records_host_provenance(self):
        solver = run_comparison("solver", "tiny", flavors=("2objH",), repeat=1)
        datalog = run_comparison(
            "datalog", "tiny", flavors=("2objH",), repeat=1
        )
        for report in (solver, datalog):
            assert PROVENANCE_KEYS <= set(report)
            assert report["cpu_count"] >= 1
            assert isinstance(report["gc_enabled"], bool)


def _wrong_packed(monkeypatch):
    def solve(*args, **kwargs):
        raw = packed_solve(*args, **kwargs)
        return types.SimpleNamespace(tuple_count=raw.tuple_count + 1)

    monkeypatch.setattr(bench, "packed_solve", solve)
    return "micro/2objH/packed"


def _wrong_compiled(monkeypatch):
    class OffByOne(bench.CompiledEngine):
        def run(self):
            db = super().run()
            db.add_fact("BogusRow", ("x",))
            return db

    monkeypatch.setattr(bench, "CompiledEngine", OffByOne)
    return "dl-micro/2objH/compiled"


def _wrong_warm(monkeypatch):
    relations = bench.IncrementalSession.relations

    def diverged(self):
        out = relations(self)
        out["VARPOINTSTO"] = out["VARPOINTSTO"] | {("bogus",)}
        return out

    monkeypatch.setattr(bench.IncrementalSession, "relations", diverged)
    return "micro/2objH/alloc"


def _wrong_answer(monkeypatch):
    from repro.query import QueryEngine

    query = QueryEngine.query

    def extra_heap(self, *args, **kwargs):
        answer = query(self, *args, **kwargs)
        return dataclasses.replace(
            answer, points_to=answer.points_to | {"<bogus heap>"}
        )

    monkeypatch.setattr(QueryEngine, "query", extra_heap)
    return "micro/2objH/query"


class TestCorrectnessGate:
    """A candidate that disagrees with its baseline fails the run, and the
    error names the cell — a speedup from computing less is not one."""

    @pytest.mark.parametrize(
        "comparison,inject",
        [
            ("solver", _wrong_packed),
            ("datalog", _wrong_compiled),
            ("incremental", _wrong_warm),
            ("demand", _wrong_answer),
        ],
    )
    def test_disagreement_raises_naming_the_cell(
        self, comparison, inject, monkeypatch
    ):
        cell = inject(monkeypatch)
        with pytest.raises(RuntimeError) as info:
            run_comparison(
                comparison, "tiny", flavors=("2objH",), repeat=1, queries=2
            )
        assert f"{comparison} disagreement on {cell}" in str(info.value)


class TestEngineEquivalence:
    """The packed solver is a representation change, not a semantic one:
    both engines must derive identical points-to sets at string level."""

    @pytest.mark.parametrize("flavor", DEFAULT_FLAVORS)
    def test_string_level_points_to_identical(self, flavor):
        (spec,) = suite_specs("tiny")
        program = generate(spec)
        facts = encode_program(program)
        policy = policy_by_name(flavor, alloc_class_of=facts.alloc_class_of)
        packed = packed_solve(program, policy, facts=facts)
        reference = reference_solve(program, policy, facts=facts)
        assert packed.tuple_count == reference.tuple_count

        def var_pts_packed(raw):
            out = {}
            for (var_i, ctx_i), node in raw.var_nodes.items():
                key = (raw.vars.value(var_i), raw.ctxs.value(ctx_i))
                out[key] = {
                    (raw.heaps.value(h), raw.hctxs.value(hc))
                    for h, hc in raw.iter_pts(node)
                }
            return out

        def var_pts_reference(raw):
            out = {}
            for (var_i, ctx_i), node in raw.var_nodes.items():
                key = (raw.vars.value(var_i), raw.ctxs.value(ctx_i))
                out[key] = {
                    (raw.heaps.value(h), raw.hctxs.value(hc))
                    for h, hc in raw.pts[node]
                }
            return out

        assert var_pts_packed(packed) == var_pts_reference(reference)

        def call_graph(raw):
            return {
                (
                    raw.invos.value(invo),
                    raw.ctxs.value(cctx),
                    raw.meths.value(meth),
                    raw.ctxs.value(mctx),
                )
                for invo, cctx, meth, mctx in raw.call_graph
            }

        assert call_graph(packed) == call_graph(reference)

        def reachable(raw):
            return {
                (raw.meths.value(m), raw.ctxs.value(c))
                for m, c in raw.reachable
            }

        assert reachable(packed) == reachable(reference)


class TestWriteReportAtomicity:
    """A killed bench run must never leave a truncated ``BENCH_*.json``.

    ``write_report`` lands reports via temp file + ``os.replace``; these
    tests simulate the kill arriving mid-write (during the fsync, after
    bytes have been written to the temp file) and assert the previous
    report survives byte-for-byte with no temp debris left behind.
    """

    OLD = {"schema": BENCH_SCHEMA, "suite": "tiny", "speedups": {"a/f": 1.0}}

    def test_kill_mid_write_preserves_previous_report(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "BENCH_solver.json"
        write_report(self.OLD, str(path))
        before = path.read_bytes()

        def killed(_fd):
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.utils.os.fsync", killed)
        new = {"schema": BENCH_SCHEMA, "suite": "tiny", "pad": "x" * 65536}
        with pytest.raises(KeyboardInterrupt):
            write_report(new, str(path))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["BENCH_solver.json"]

    def test_kill_on_first_write_leaves_nothing(self, tmp_path, monkeypatch):
        path = tmp_path / "BENCH_solver.json"

        def killed(_fd):
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.utils.os.fsync", killed)
        with pytest.raises(KeyboardInterrupt):
            write_report(self.OLD, str(path))
        assert list(tmp_path.iterdir()) == []

    def test_uninterrupted_write_replaces_the_report(self, tmp_path):
        path = tmp_path / "BENCH_solver.json"
        write_report(self.OLD, str(path))
        new = dict(self.OLD, suite="small")
        write_report(new, str(path))
        assert json.loads(path.read_text()) == new
        assert [p.name for p in tmp_path.iterdir()] == ["BENCH_solver.json"]


class TestDemandSuite:
    def test_repeat_and_queries_validated(self):
        with pytest.raises(ValueError, match="repeat"):
            run_comparison("demand", "tiny", repeat=0)
        with pytest.raises(ValueError, match="queries"):
            run_comparison("demand", "tiny", queries=0)

    def test_tiny_suite_report_shape(self):
        messages = []
        flavors = ("2objH", "2typeH")
        queries = 2
        report = run_comparison(
            "demand",
            "tiny",
            flavors=flavors,
            repeat=1,
            queries=queries,
            progress=messages.append,
        )
        _check_report(report, "demand", {"query", "batch"})
        assert PROVENANCE_KEYS <= set(report)
        specs = suite_specs("tiny")
        detail = report["detail"]
        assert set(detail["warmup_seconds"]) == {s.name for s in specs}
        assert detail["queries"] == queries
        assert 0.0 < detail["median_footprint"] <= 1.0
        for entry in report["entries"]:
            if entry["variant"] != "query":
                continue
            # One row per sampled variable, with its slice economics.
            rows = entry["detail"]["queries"]
            assert len(rows) == queries
            assert entry["work"] == sum(row["points_to"] for row in rows)
            for row in rows:
                assert row["cpu_seconds"] > 0
                assert 0.0 < row["footprint"] <= 1.0
        assert any("geomean" in m for m in messages)

    def test_batch_is_billed_per_query(self, monkeypatch):
        # One batch answers every picked variable; its cell is the
        # per-query cost, so the speedup is full * queries / batch.
        from repro.query import QueryEngine

        spent = []
        query_batch = QueryEngine.query_batch

        def spy(self, *args, **kwargs):
            c0 = time.process_time()
            out = query_batch(self, *args, **kwargs)
            spent.append(time.process_time() - c0)
            return out

        monkeypatch.setattr(QueryEngine, "query_batch", spy)
        report = run_comparison(
            "demand", "tiny", flavors=("2objH",), repeat=1, queries=6
        )
        by_variant = {e["variant"]: e for e in report["entries"]}
        picked = len(by_variant["query"]["detail"]["queries"])
        assert picked > 1
        batch = by_variant["batch"]
        (batch_cpu,) = spent
        assert batch["cpu_seconds"] * picked == pytest.approx(batch_cpu, rel=0.25)
        assert report["speedups"]["micro/2objH/batch"] == pytest.approx(
            batch["baseline_cpu_seconds"] * picked / batch_cpu, rel=0.25
        )

    def test_report_adapts_into_warehouse_cells(self):
        from repro.warehouse import cells_of, receipt_from_bench_report

        report = run_comparison(
            "demand", "tiny", flavors=("2objH",), repeat=1, queries=1
        )
        receipt = receipt_from_bench_report(report)
        assert receipt["kind"] == "bench-demand"
        cells = cells_of(receipt)
        assert len(cells) == len(report["speedups"])
        assert {c["variant"] for c in cells} == {"query", "batch"}
        assert all(c["unit"] == "speedup" for c in cells)

    def test_write_report_round_trips(self, tmp_path):
        report = run_comparison(
            "demand", "tiny", flavors=("2objH",), repeat=1, queries=1
        )
        path = tmp_path / "BENCH_demand.json"
        write_report(report, str(path))
        assert json.loads(path.read_text()) == report
