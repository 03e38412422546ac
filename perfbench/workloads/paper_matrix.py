"""paper-matrix: every cell of the paper's evaluation, in-process.

A cell is what ``repro bench NAME --analysis F [--introspective H
--heuristic-constants ...] --budget 150000 --precision`` does:
``build_benchmark`` -> ``encode_program`` -> ``analyze`` or
``run_introspective`` -> ``measure_precision``.  One thread, GC on.  Each
cell starts from a collected heap, as a fresh ``repro bench`` process does,
so the peak RSS does not depend on the seeded cell order.  The host speed
is read before each cell, after the collection; neither is part of the
cell's time, so ``ops_per_s`` is cells per second of summed cell time.
"""

from __future__ import annotations

import gc
import random
import time
from typing import Dict, Optional, Tuple

from .. import oracle
from ..common import (
    SpanTable,
    fresh_import_seconds,
    reset_peak_rss,
    span,
    vm_hwm_mb,
)
from . import Pass, refinement_counts

from repro.analysis import BudgetExceeded, analyze
from repro.benchgen.dacapo import build_benchmark
from repro.clients.precision import measure_precision
from repro.facts.encoder import FactBase, encode_program
from repro.introspection import run_introspective
from repro.obs import Tracer

SETUP_REPEATS = 3
SETUP = ("fresh-interpreter import of the cell pipeline's modules "
         f"({SETUP_REPEATS} per pass)")
#: Modules a user's script imports to run a cell.
MODULES = (
    "repro.benchgen.dacapo",
    "repro.facts.encoder",
    "repro.analysis",
    "repro.introspection",
    "repro.clients.precision",
    "repro.harness",
)
#: Seconds of --seconds given to a pass over the 90 cells (it takes about
#: 20 s).  Two passes put the tail inside the 20 jython cells, not at the
#: edge between them and the rest.
PASS_SECONDS = 20.0


def make_script(seed: int, table: dict) -> dict:
    rng = random.Random(seed)
    cells = [list(cell) for cell in oracle.paper_cells()]
    rng.shuffle(cells)
    return {"workload": "paper-matrix", "cells": cells}


def run_cell(
    analog: str, flavor: str, label: Optional[str], tracer: Optional[Tracer]
) -> Tuple[Dict[str, object], FactBase]:
    """Run one cell; returns its observed table entry and its facts."""
    with span(tracer, "benchgen.build"):
        program = build_benchmark(analog)
    facts = encode_program(program, tracer=tracer)
    refinement = None
    if label is None:
        try:
            result = analyze(
                program, flavor, facts=facts, max_tuples=oracle.BUDGET,
                tracer=tracer,
            )
        except BudgetExceeded:
            result = None
    else:
        outcome = run_introspective(
            program, flavor, oracle.heuristic(label), facts=facts,
            max_tuples=oracle.BUDGET, tracer=tracer,
        )
        stats = outcome.refinement_stats
        refinement = [stats.total_call_sites, stats.excluded_call_sites,
                      stats.total_objects, stats.excluded_objects]
        result = outcome.result
    if result is None:
        return {"timed_out": True, "tuples": None, "precision": None,
                "refinement": refinement}, facts
    with span(tracer, "clients.precision"):
        precision = measure_precision(result, facts)
    return {
        "timed_out": False,
        "tuples": result.raw.tuple_count,
        "precision": [precision.polymorphic_call_sites,
                      precision.reachable_methods, precision.casts_may_fail],
        "refinement": refinement,
    }, facts


def run(script: dict, table: dict, traced: bool) -> Pass:
    result = Pass(setup=fresh_import_seconds(MODULES, SETUP_REPEATS))
    tracer = Tracer() if traced else None
    reset_peak_rss()
    for analog, flavor, label in script["cells"]:
        key = oracle.cell_key(analog, flavor, label)
        facts = None  # drop the previous cell's program before collecting
        gc.collect()
        result.speed.read()
        start = time.perf_counter()
        try:
            observed, facts = run_cell(analog, flavor, label, tracer)
        except Exception as exc:  # noqa: BLE001 - a failed op, reported
            result.op("cell", start)
            result.fail(f"{key}: {type(exc).__name__}: {exc}")
            result.outputs.append([key, None])
            continue
        result.op("cell", start)
        result.outputs.append([key, observed])
        if observed != table["cells"][key]:
            result.fail(
                f"{key}: got {observed}, expected {table['cells'][key]}"
            )
        if tracer is not None:
            # Digest cost on the same programs, outside the cell's time.
            with tracer.span("facts.digest"):
                facts.digest()
            if label is not None:
                for name, amount in refinement_counts(observed).items():
                    result.count(name, amount)
    result.speed.read()
    result.peak_rss_mb = vm_hwm_mb()
    if tracer is not None:
        result.spans = SpanTable()
        result.spans.add_tracer(tracer)
    return result
