"""`repro bench --compare incremental` smoke: schema, equality gate, speedups."""

from __future__ import annotations

import math

import pytest

from repro.harness.bench import (
    BENCH_SCHEMA,
    INCREMENTAL_EDIT_KINDS,
    run_comparison,
)


@pytest.fixture(scope="module")
def report():
    return run_comparison("incremental", suite="tiny", repeat=1)


def test_schema_and_shape(report):
    assert report["schema"] == BENCH_SCHEMA
    assert report["comparison"] == "incremental"
    assert report["suite"] == "tiny"
    assert (report["baseline"], report["candidate"]) == ("scratch", "warm")
    assert report["entries"], "no cells measured"
    assert {e["variant"] for e in report["entries"]} == set(
        INCREMENTAL_EDIT_KINDS
    )
    for entry in report["entries"]:
        assert entry["cpu_seconds"] > 0
        assert entry["baseline_cpu_seconds"] > 0
        assert entry["detail"]["tiers"], entry


def test_speedups_cover_every_cell_and_geomean_agrees(report):
    expected = {
        f"{e['benchmark']}/{e['flavor']}/{e['variant']}"
        for e in report["entries"]
    }
    assert set(report["speedups"]) == expected
    geomean = math.exp(
        sum(math.log(s) for s in report["speedups"].values())
        / len(report["speedups"])
    )
    assert report["geomean_speedup"] == pytest.approx(geomean, abs=1e-3)


def test_single_edit_cells_stay_on_the_fast_tier(report):
    # The bench generates pure-addition single edits; every cell should be
    # absorbed monotonically — a silent fall back to "full" would inflate
    # warm timings and must be visible in the data.
    for entry in report["entries"]:
        assert set(entry["detail"]["tiers"]) == {"monotonic"}, entry
