"""Expected outputs, computed independently with the frozen reference solver.

Every workload checks what the program returns against this module:

* the **paper table** (``expected.json``, written by ``gen_expected.py``)
  holds, for each of the 90 cells of the paper's evaluation, the timeout
  flag, tuple count, precision triple and refinement statistics, solved
  by :func:`repro.analysis.reference_solver.reference_solve` under the
  same context policy and tuple budget.  It also holds, per analog whose
  plain 2objH finishes, a fixed pool of variables with their reference
  2objH points-to sets, from which query workloads draw;
* :func:`reference_relations` and :func:`reference_points_to` solve an
  arbitrary program version at run time (edited programs), for the
  checks that cannot be tabulated ahead.

The precision clients and refinement statistics are re-derived here from
the reference relations rather than by calling ``repro.clients``; only the
introspection metrics and heuristics (the policy under test) are shared.
"""

from __future__ import annotations

import json
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .common import ROOT, use_source_tree

use_source_tree()

from repro.analysis.reference_solver import (  # noqa: E402
    ReferenceRawSolution,
    reference_solve,
)
from repro.analysis.solver import BudgetExceeded  # noqa: E402
from repro.benchgen.dacapo import benchmark_names, build_benchmark  # noqa: E402
from repro.contexts.introspective import IntrospectivePolicy  # noqa: E402
from repro.contexts.policies import InsensitivePolicy, policy_by_name  # noqa: E402
from repro.facts.encoder import FactBase, encode_program  # noqa: E402
from repro.harness import (  # noqa: E402
    EXPERIMENT_BUDGET,
    scaled_heuristic_a,
    scaled_heuristic_b,
)
from repro.introspection import compute_metrics, heuristic_from_spec  # noqa: E402
from repro.ir.program import Program  # noqa: E402

EXPECTED_PATH = ROOT / "perfbench" / "expected.json"
SCHEMA = "perfbench-expected/1"

ANALOGS: Tuple[str, ...] = tuple(benchmark_names())
PLAIN_FLAVORS = ("insens", "2objH", "2typeH", "2callH")
INTRO_FLAVORS = ("2objH", "2typeH", "2callH")
#: ``--heuristic-constants`` spelling of ``scaled_heuristic_a/b``.
HEURISTIC_CONSTANTS = {"A": "40,40,10", "B": "150,250"}
BUDGET = EXPERIMENT_BUDGET
QUERY_FLAVOR = "2objH"
QUERY_POOL_SIZE = 40

Cell = Tuple[str, str, Optional[str]]  # (analog, flavor, heuristic label)


def paper_cells() -> List[Cell]:
    """The paper's matrix: 9 analogs x (4 plain + 3 flavors x IntroA/B)."""
    cells: List[Cell] = []
    for analog in ANALOGS:
        cells.extend((analog, flavor, None) for flavor in PLAIN_FLAVORS)
        cells.extend(
            (analog, flavor, label)
            for flavor in INTRO_FLAVORS
            for label in ("A", "B")
        )
    return cells


def cell_key(analog: str, flavor: str, heuristic: Optional[str]) -> str:
    suffix = f"-Intro{heuristic}" if heuristic else ""
    return f"{analog}/{flavor}{suffix}"


def heuristic(label: str):
    """The scaled heuristic the paper workloads use for ``label``."""
    built = scaled_heuristic_a() if label == "A" else scaled_heuristic_b()
    spelled = heuristic_from_spec(label, HEURISTIC_CONSTANTS[label])
    if built.describe() != spelled.describe():
        raise RuntimeError(
            f"heuristic {label}: {HEURISTIC_CONSTANTS[label]!r} no longer "
            f"spells {built.describe()}"
        )
    return built


# ----------------------------------------------------------------------
# Reference projections and clients
# ----------------------------------------------------------------------
class ReferenceView:
    """Context-insensitive projections of a reference solution, shaped like
    the four ``AnalysisResult`` projections the introspection metrics read."""

    def __init__(self, raw: ReferenceRawSolution) -> None:
        self.raw = raw
        heap = raw.heaps.value
        self.var_points_to: Dict[str, set] = {}
        for (var_i, _ctx), node in raw.var_nodes.items():
            if raw.pts[node]:
                self.var_points_to.setdefault(raw.vars.value(var_i), set()).update(
                    heap(h) for h, _hc in raw.pts[node]
                )
        self.fld_points_to: Dict[Tuple[str, str], set] = {}
        for (base_i, _hctx, fld_i), node in raw.fld_nodes.items():
            if raw.pts[node]:
                key = (heap(base_i), raw.flds.value(fld_i))
                self.fld_points_to.setdefault(key, set()).update(
                    heap(h) for h, _hc in raw.pts[node]
                )
        self.call_graph: Dict[str, set] = {}
        for invo_i, _cc, meth_i, _ec in raw.call_graph:
            self.call_graph.setdefault(raw.invos.value(invo_i), set()).add(
                raw.meths.value(meth_i)
            )
        self.reachable_methods: FrozenSet[str] = frozenset(
            raw.meths.value(m) for m, _c in raw.reachable
        )


def reference_precision(view: ReferenceView, facts: FactBase) -> List[int]:
    """[polymorphic virtual call sites, reachable methods, casts that may
    fail], by the paper's definitions (Section 4)."""
    poly = sum(
        1
        for invo, targets in view.call_graph.items()
        if invo in facts.vcall_invos and len(targets) >= 2
    )
    hierarchy = facts.program.hierarchy
    failing = set()
    for to, type_name, frm, meth in facts.cast:
        if meth in view.reachable_methods and any(
            not hierarchy.is_subtype(facts.heap_type[h], type_name)
            for h in view.var_points_to.get(frm, ())
        ):
            failing.add(to)
    return [poly, len(view.reachable_methods), len(failing)]


def _solve(program: Program, facts: FactBase, policy) -> Optional[ReferenceRawSolution]:
    try:
        return reference_solve(program, policy, facts=facts, max_tuples=BUDGET)
    except BudgetExceeded:
        return None


def reference_cell(
    program: Program, facts: FactBase, flavor: str, label: Optional[str]
) -> Dict[str, object]:
    """One cell of the paper table, solved by the reference engine."""
    refined = policy_by_name(flavor, alloc_class_of=facts.alloc_class_of)
    refinement = None
    if label is None:
        raw = _solve(program, facts, refined)
    else:
        pass1 = _solve(program, facts, InsensitivePolicy())
        if pass1 is None:
            raise RuntimeError("the insensitive pass exceeded the budget")
        view1 = ReferenceView(pass1)
        decision = heuristic(label).decide(
            compute_metrics(view1, facts), facts, view1
        )
        refinement = [
            len(view1.call_graph),
            len({invo for invo, _meth in decision.excluded_sites}),
            len({h for _v, h, m in facts.alloc if m in view1.reachable_methods}),
            len(decision.excluded_objects),
        ]
        raw = _solve(program, facts, IntrospectivePolicy(refined, decision))
    if raw is None:
        return {"timed_out": True, "tuples": None, "precision": None,
                "refinement": refinement}
    return {
        "timed_out": False,
        "tuples": raw.tuple_count,
        "precision": reference_precision(ReferenceView(raw), facts),
        "refinement": refinement,
    }


def reference_relations(program: Program, flavor: str) -> Dict[str, FrozenSet[tuple]]:
    """The five output relations of an unbudgeted reference solve, as the
    string-level rows :meth:`IncrementalSession.relations` returns."""
    facts = encode_program(program)
    raw = reference_solve(
        program, policy_by_name(flavor, alloc_class_of=facts.alloc_class_of),
        facts=facts,
    )
    v, h, m, c, hc = (raw.vars.value, raw.heaps.value, raw.meths.value,
                      raw.ctxs.value, raw.hctxs.value)
    return {
        "VARPOINTSTO": frozenset(
            (v(var), c(ctx), h(x), hc(xc))
            for (var, ctx), node in raw.var_nodes.items()
            for x, xc in raw.pts[node]
        ),
        "FLDPOINTSTO": frozenset(
            (h(base), hc(bctx), raw.flds.value(fld), h(x), hc(xc))
            for (base, bctx, fld), node in raw.fld_nodes.items()
            for x, xc in raw.pts[node]
        ),
        "CALLGRAPH": frozenset(
            (raw.invos.value(invo), c(cc), m(meth), c(ec))
            for invo, cc, meth, ec in raw.call_graph
        ),
        "REACHABLE": frozenset((m(meth), c(ctx)) for meth, ctx in raw.reachable),
        "THROWPOINTSTO": frozenset(
            (m(meth), c(ctx), h(x), hc(xc))
            for (meth, ctx), node in raw.throw_nodes.items()
            for x, xc in raw.pts[node]
        ),
    }


def points_to_of(relations: Dict[str, FrozenSet[tuple]]) -> Dict[str, FrozenSet[str]]:
    """Context-insensitive ``var -> heaps`` projection of VARPOINTSTO rows."""
    proj: Dict[str, set] = {}
    for var, _ctx, heap, _hctx in relations["VARPOINTSTO"]:
        proj.setdefault(var, set()).add(heap)
    return {var: frozenset(heaps) for var, heaps in proj.items()}


# ----------------------------------------------------------------------
# The committed table
# ----------------------------------------------------------------------
def generate_table() -> Dict[str, object]:
    cells: Dict[str, object] = {}
    queries: Dict[str, Dict[str, List[str]]] = {}
    for analog in ANALOGS:
        program = build_benchmark(analog)
        facts = encode_program(program)
        for _a, flavor, label in (c for c in paper_cells() if c[0] == analog):
            cells[cell_key(analog, flavor, label)] = reference_cell(
                program, facts, flavor, label
            )
        raw = _solve(
            program, facts,
            policy_by_name(QUERY_FLAVOR, alloc_class_of=facts.alloc_class_of),
        )
        if raw is None:
            continue  # no whole-program answer to query against
        pts = ReferenceView(raw).var_points_to
        candidates = sorted(pts)
        step = len(candidates) / QUERY_POOL_SIZE
        pool = [candidates[int(i * step)] for i in range(QUERY_POOL_SIZE)]
        queries[analog] = {var: sorted(pts[var]) for var in pool}
    return {
        "schema": SCHEMA,
        "budget": BUDGET,
        "heuristic_constants": HEURISTIC_CONSTANTS,
        "query_flavor": QUERY_FLAVOR,
        "cells": cells,
        "queries": queries,
    }


def dump_table(table: Dict[str, object]) -> str:
    return json.dumps(table, indent=1, sort_keys=True) + "\n"


def load_table() -> Dict[str, object]:
    path = EXPECTED_PATH
    with open(path, encoding="utf-8") as fh:
        table = json.load(fh)
    if table.get("schema") != SCHEMA:
        raise ValueError(f"{path}: not a {SCHEMA} table")
    return table


def query_analogs(table: Dict[str, object]) -> Sequence[str]:
    """Analogs whose plain 2objH finishes within the budget."""
    return sorted(table["queries"])
