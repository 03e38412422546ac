"""Engine comparisons: live engines and warm paths vs fixed yardsticks.

Every number here is a speedup of a *candidate* over a fixed *baseline*,
measured by one loop (:func:`run_comparison`) over one of the
:data:`COMPARISONS`:

* ``solver`` — the packed solver (variant ``packed``) against the frozen
  :mod:`repro.analysis.reference_solver`; with ``tracers``, variant
  ``traced`` times the packed solve with a :class:`~repro.obs.Tracer`
  attached against the untraced one, on the suite's first cell;
* ``datalog`` — the compiled Datalog engine (``compiled``) against the
  frozen :mod:`repro.datalog.reference_engine`, both evaluating the full
  Figure 3 model over their own, smaller suites;
* ``incremental`` — one warm-session edit per kind in
  :data:`INCREMENTAL_EDIT_KINDS` against re-analysis from scratch;
* ``demand`` — demand queries (``query``: one variable at a time;
  ``batch``: one shared union-solve, billed per query) against a full
  solve.

The loop owns the measurement.  Per repeat it runs every variant's
candidate, then the baseline, so machine drift hits both alike; every
timed section runs with the cyclic GC collected and paused.  It keeps
the best times, requires the last candidate and baseline runs to agree
(a disagreement is a correctness bug, not a benchmark result: it raises
``RuntimeError`` naming the cell), and computes every speedup from
process CPU time, which is robust on shared machines where wall clock
swings by tens of percent.  Every comparison writes one report schema,
``repro-bench/2`` (``docs/performance.md``).
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import random
import sys
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

try:  # POSIX only; peak RSS is reported as None elsewhere.
    import resource
except ImportError:  # pragma: no cover - non-POSIX platform
    resource = None  # type: ignore[assignment]

from ..analysis.datalog_model import DatalogPointsToAnalysis
from ..analysis.reference_solver import reference_solve
from ..analysis.solver import solve as packed_solve
from ..benchgen.generator import generate
from ..benchgen.spec import BenchmarkSpec, HubSpec
from ..contexts.policies import policy_by_name
from ..datalog.engine import Engine as CompiledEngine
from ..datalog.reference_engine import ReferenceEngine
from ..facts.encoder import FactBase, encode_program
from ..fuzz.oracles import solver_relations
from ..fuzz.sketch import ProgramSketch
from ..incremental.edits import random_edit_script
from ..incremental.session import RESULT_RELATIONS, IncrementalSession
from ..ir.program import Program
from ..obs import Tracer
from ..utils import atomic_write_text
from ..warehouse.receipt import BENCH_SCHEMA

__all__ = [
    "BENCH_SCHEMA",
    "COMPARISONS",
    "DEFAULT_DEMAND_FLAVORS",
    "DEFAULT_FLAVORS",
    "INCREMENTAL_EDIT_KINDS",
    "run_comparison",
    "suite_names",
    "suite_specs",
    "write_report",
]

DEFAULT_FLAVORS: Tuple[str, ...] = ("2objH", "2typeH", "2callH")

#: Flavors the demand comparison sweeps — the context-sensitive ones a
#: query would otherwise pay a full solve for, including an introspective
#: variant (the engine's two-pass refinement decision).
DEFAULT_DEMAND_FLAVORS: Tuple[str, ...] = ("2objH", "2typeH", "introspective-A")

#: The monotonic edit vocabulary the incremental comparison measures —
#: one variant per kind, all absorbed by the warm solver's fast path.
INCREMENTAL_EDIT_KINDS: Tuple[str, ...] = (
    "alloc",
    "move",
    "new-call",
    "new-entry",
)

#: Benchmark suites.  All programs are pathology-hub workloads — the
#: paper's explosion structure and the solver's dominant cost — sized so
#: every flavor terminates without a budget.  ``tiny`` is for unit tests,
#: ``small`` for CI smoke runs (``repro bench --quick``), ``medium`` for
#: the committed ``BENCH_*.json`` trajectories.
_SUITES: Dict[str, Tuple[BenchmarkSpec, ...]] = {
    "tiny": (
        BenchmarkSpec(
            name="micro",
            util_classes=4,
            util_methods_per_class=3,
            strategy_clusters=(3,),
            box_groups=(3,),
            sink_groups=(3,),
            hubs=(HubSpec(readers=6, elements=5, chain=3),),
        ),
    ),
    "small": (
        BenchmarkSpec(
            name="minihub",
            util_classes=10,
            util_methods_per_class=4,
            hubs=(
                HubSpec(
                    readers=20,
                    elements=16,
                    payloads_per_element=3,
                    chain=5,
                ),
            ),
        ),
        BenchmarkSpec(
            name="typedhub",
            util_classes=10,
            util_methods_per_class=4,
            hubs=(
                HubSpec(
                    readers=16,
                    elements=12,
                    payloads_per_element=3,
                    chain=5,
                    distinct_reader_classes=True,
                ),
            ),
        ),
    ),
    "medium": (
        BenchmarkSpec(
            name="megahub",
            util_classes=24,
            util_methods_per_class=8,
            hubs=(
                HubSpec(
                    readers=70,
                    elements=60,
                    payloads_per_element=30,
                    chain=12,
                    reader_call_sites=2,
                    distinct_reader_classes=True,
                ),
            ),
        ),
        BenchmarkSpec(
            name="mixedhubs",
            util_classes=24,
            util_methods_per_class=8,
            hubs=(
                HubSpec(
                    readers=60,
                    elements=48,
                    payloads_per_element=30,
                    chain=12,
                    reader_call_sites=2,
                    distinct_reader_classes=True,
                ),
                HubSpec(
                    readers=40,
                    elements=30,
                    payloads_per_element=24,
                    chain=10,
                    reader_call_sites=2,
                ),
            ),
        ),
        BenchmarkSpec(
            name="wrappers",
            util_classes=24,
            util_methods_per_class=8,
            hubs=(
                HubSpec(
                    readers=50,
                    elements=40,
                    payloads_per_element=24,
                    chain=10,
                    reader_call_sites=2,
                    distinct_reader_classes=True,
                    wrapper_depth=3,
                ),
            ),
        ),
    ),
}

#: Datalog-model benchmark suites.  Deliberately much smaller than the
#: solver suites: every cell runs the full Figure 3 rule model through a
#: pure-Python Datalog evaluator, and the frozen reference interpreter is
#: orders of magnitude slower than the worklist solver.  ``tiny`` is for
#: unit tests, ``small`` for CI smoke runs (``--quick``), ``medium`` for
#: the committed ``BENCH_datalog.json`` trajectory.
_DATALOG_SUITES: Dict[str, Tuple[BenchmarkSpec, ...]] = {
    "tiny": (
        BenchmarkSpec(
            name="dl-micro",
            util_classes=4,
            util_methods_per_class=3,
            strategy_clusters=(3,),
            box_groups=(3,),
            sink_groups=(3,),
            hubs=(HubSpec(readers=6, elements=5, chain=3),),
        ),
    ),
    "small": (
        BenchmarkSpec(
            name="dl-minihub",
            util_classes=6,
            util_methods_per_class=3,
            hubs=(HubSpec(readers=10, elements=8, chain=4),),
        ),
        BenchmarkSpec(
            name="dl-clusters",
            util_classes=6,
            util_methods_per_class=4,
            strategy_clusters=(4, 3),
            box_groups=(4,),
            sink_groups=(4,),
        ),
    ),
    "medium": (
        BenchmarkSpec(
            name="dl-hub",
            util_classes=8,
            util_methods_per_class=4,
            hubs=(
                HubSpec(
                    readers=16,
                    elements=12,
                    payloads_per_element=2,
                    chain=5,
                ),
            ),
        ),
        BenchmarkSpec(
            name="dl-typedhub",
            util_classes=8,
            util_methods_per_class=4,
            hubs=(
                HubSpec(
                    readers=12,
                    elements=10,
                    payloads_per_element=2,
                    chain=4,
                    distinct_reader_classes=True,
                ),
            ),
        ),
        BenchmarkSpec(
            name="dl-mixed",
            util_classes=10,
            util_methods_per_class=4,
            strategy_clusters=(4, 4),
            box_groups=(5,),
            sink_groups=(5,),
            static_chain_depth=3,
            static_chain_fanout=2,
            static_chain_payloads=2,
            exception_sites=3,
            hubs=(HubSpec(readers=8, elements=6, chain=3),),
        ),
    ),
}


def _provenance() -> Dict[str, object]:
    """Host/interpreter provenance recorded in every report.

    A speedup number is only interpretable against the machine that
    produced it, so every report carries the Python version, platform,
    visible CPU count, and whether the cyclic GC was enabled in the
    harness process (the timed sections always pause it; this records
    the ambient state around them).
    """
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "gc_enabled": gc.isenabled(),
    }


def _peak_rss_kb() -> Optional[int]:
    """Process peak RSS in KB: a lifetime high-water mark, not a per-cell delta."""
    if resource is None:  # pragma: no cover - non-POSIX platform
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KB; macOS reports bytes.
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        peak //= 1024
    return int(peak)


def _geomean(values: Iterable[float]) -> float:
    logs = [math.log(v) for v in values]
    return math.exp(sum(logs) / len(logs))


#: ``timed(fn, items=1)`` calls ``fn()`` inside the clock and returns its
#: result; a section doing ``items`` units of work at once is billed per
#: unit (its seconds divided by ``items``).
Timed = Callable[..., Any]
#: One baseline or candidate run: untimed setup plus one or more ``timed``
#: sections.  Returns what the agreement check compares.
Run = Callable[[Timed], Any]


@dataclass
class Cell:
    """One (benchmark, flavor) cell of a comparison.

    ``check(variant, candidate, baseline)`` receives the last results of
    a variant and of its baseline and returns ``(work, problem)``: the
    agreed work count, and what disagrees (``None`` when nothing does).
    ``detail(variant, result, cpu, baseline_cpu)`` returns the entry's
    ``detail`` object from the variant's last result and its best CPU
    seconds per timed section.
    """

    baseline: Run
    variants: Dict[str, Run]
    check: Callable[[str, Any, Any], Tuple[int, Optional[str]]]
    detail: Callable[[str, Any, List[float], float], Dict[str, Any]] = (
        lambda *_: {}
    )


@dataclass
class _Options:
    """What a comparison's cells may use beyond the suite and flavors."""

    say: Callable[[str], None]
    queries: int
    seed: int
    #: Receives the tracer of every ``traced`` solve, when tracing.
    tracers: Optional[List[Tracer]]
    #: Report-level ``detail`` a comparison may fill.
    detail: Dict[str, Any] = field(default_factory=dict)


class Comparison(NamedTuple):
    suites: Dict[str, Tuple[BenchmarkSpec, ...]]
    flavors: Tuple[str, ...]
    baseline: str
    candidate: str
    #: ``cells(specs, flavors, options)`` yields ``(benchmark, flavor,
    #: cell)``; each cell is measured before the next is requested.
    cells: Callable[..., Iterator[Tuple[str, str, Cell]]]


def _same_count(unit: str) -> Callable[..., Tuple[int, Optional[str]]]:
    """Agreement on one count: the candidate's equals the baseline's."""

    def check(variant: str, got: int, want: int) -> Tuple[int, Optional[str]]:
        if got == want:
            return got, None
        return got, f"{variant}={got} baseline={want} {unit}"

    return check


def _programs(
    specs: Sequence[BenchmarkSpec], opts: _Options
) -> Iterator[Tuple[str, Program, FactBase]]:
    for spec in specs:
        program = generate(spec)
        opts.say(f"{spec.name}: {program.summary()}")
        yield spec.name, program, encode_program(program)


def _solver_cell(
    program: Program,
    facts: FactBase,
    flavor: str,
    tracers: Optional[List[Tracer]] = None,
) -> Cell:
    """Packed vs reference solve; with ``tracers``, the traced packed
    solve vs the untraced one instead."""
    policy = policy_by_name(flavor, alloc_class_of=facts.alloc_class_of)

    def run(solve: Callable[..., Any], tracers: Optional[List[Tracer]] = None) -> Run:
        def solved(timed: Timed) -> int:
            extra = {}
            if tracers is not None:
                # A fresh tracer per run, so the spans describe one solve.
                tracers.append(Tracer())
                extra["tracer"] = tracers[-1]
            return timed(
                lambda: solve(program, policy, facts=facts, **extra)
            ).tuple_count

        return solved

    if tracers is None:
        return Cell(
            run(reference_solve), {"packed": run(packed_solve)}, _same_count("tuples")
        )

    def detail(
        _variant: str, _count: int, cpu: List[float], base_cpu: float
    ) -> Dict[str, Any]:
        return {
            "overhead_percent": round((cpu[0] / base_cpu - 1.0) * 100.0, 2),
            "span_names": tracers[-1].span_names(),
            "events": len(tracers[-1].chrome_trace()["traceEvents"]),
        }

    return Cell(
        run(packed_solve),
        {"traced": run(packed_solve, tracers)},
        _same_count("tuples"),
        detail,
    )


def _solver_cells(
    specs: Sequence[BenchmarkSpec], flavors: Sequence[str], opts: _Options
) -> Iterator[Tuple[str, str, Cell]]:
    first = None
    for name, program, facts in _programs(specs, opts):
        first = first or (name, program, facts)
        yield from ((name, f, _solver_cell(program, facts, f)) for f in flavors)
    if opts.tracers is not None:
        # The traced twin: the first cell again, measured after the suite
        # so neither side pays the process's cold start.
        name, program, facts = first
        yield name, flavors[0], _solver_cell(
            program, facts, flavors[0], opts.tracers
        )


def _datalog_cell(program: Program, facts: FactBase, flavor: str) -> Cell:
    def run(factory: Callable[..., Any]) -> Run:
        def rows(timed: Timed) -> int:
            # Everything is rebuilt per run: construction loads the EDB
            # through the same ``Database.add_fact`` path for both engines,
            # and policies memoize context tuples, so a warm policy must
            # not favor whichever engine runs second.
            policy = policy_by_name(flavor, alloc_class_of=facts.alloc_class_of)

            def evaluate() -> int:
                analysis = DatalogPointsToAnalysis(
                    program, policy, facts=facts, engine_factory=factory
                )
                analysis.run()
                return analysis.engine.db.total_rows()

            return timed(evaluate)

        return rows

    return Cell(
        run(ReferenceEngine),
        {"compiled": run(CompiledEngine)},
        _same_count("rows"),
    )


def _datalog_cells(
    specs: Sequence[BenchmarkSpec], flavors: Sequence[str], opts: _Options
) -> Iterator[Tuple[str, str, Cell]]:
    for name, program, facts in _programs(specs, opts):
        yield from ((name, f, _datalog_cell(program, facts, f)) for f in flavors)


def _incremental_cell(
    sketch: ProgramSketch, benchmark: str, flavor: str, say: Callable[[str], None]
) -> Cell:
    """Warm edits vs from-scratch re-analysis of the edited program.

    The session is warmed up once, unmeasured.  Each edit is timed end to
    end — program rebuild, fact diff, tier classification, warm solve —
    because that is what an editing service pays per keystroke.  The
    baseline is what a session-less server redoes to answer the same
    queries: rebuild, encode, solve, and materialize the result
    relations (``session.apply`` leaves ``session.relations()``
    current).  It runs after the edits, so the agreement check compares
    it with the warm session over all of :data:`RESULT_RELATIONS`.
    """
    session = IncrementalSession(sketch, analysis=flavor, engine="solver")
    say(
        f"{benchmark}/{flavor}: warm solve "
        f"{session.initial_solve_seconds:.3f}s ({session.program.summary()})"
    )
    # Seeded by cell name so runs are reproducible across processes
    # (str seeds hash deterministically in random).
    rng = random.Random(f"{benchmark}/{flavor}")
    tiers: Dict[str, List[str]] = {kind: [] for kind in INCREMENTAL_EDIT_KINDS}

    def edit(kind: str) -> Run:
        def run(timed: Timed) -> Any:
            script = random_edit_script(
                session.sketch, rng, edits=1, allow_removals=False, kinds=(kind,)
            )
            outcome = timed(lambda: session.apply(script))
            tiers[kind].append(outcome.tier)
            return outcome

        return run

    def scratch(timed: Timed) -> Dict[str, Any]:
        def rebuild() -> Any:
            program = session.sketch.build()
            facts = encode_program(program)
            policy = policy_by_name(flavor, alloc_class_of=facts.alloc_class_of)
            return solver_relations(packed_solve(program, policy, facts=facts))

        return dict(zip(RESULT_RELATIONS, timed(rebuild)))

    def check(
        kind: str, outcome: Any, relations: Dict[str, Any]
    ) -> Tuple[int, Optional[str]]:
        warm = session.relations()
        bad = [name for name in RESULT_RELATIONS if warm[name] != relations[name]]
        problem = f"warm session diverged from scratch: {', '.join(bad)}"
        return outcome.result_rows_added, problem if bad else None

    # Each entry records the tiers the session took, so a fall back to
    # ``full`` shows up in the data rather than inflating the baseline.
    return Cell(
        scratch,
        {kind: edit(kind) for kind in INCREMENTAL_EDIT_KINDS},
        check,
        lambda kind, *_: {"tiers": tiers[kind]},
    )


def _incremental_cells(
    specs: Sequence[BenchmarkSpec], flavors: Sequence[str], opts: _Options
) -> Iterator[Tuple[str, str, Cell]]:
    for spec in specs:
        sketch = ProgramSketch.from_program(generate(spec))
        for flavor in flavors:
            cell = _incremental_cell(sketch, spec.name, flavor, opts.say)
            yield spec.name, flavor, cell


def _demand_cell(
    engine: Any, picked: List[str], flavor: str, footprints: List[float]
) -> Cell:
    """Demand queries vs the full solve they replace.

    ``query`` answers each picked variable alone, memos cleared outside
    the clock, so each timing is a cold plan + sliced solve (the planner
    and the insensitive pass stay warm — the steady state of a long-lived
    engine, whose one-time warm-up is reported separately); its CPU time
    is the geometric mean over the variables, so its speedup is the
    geomean of the per-variable speedups.  ``batch`` answers all of them
    in one ``query_batch`` sharing a single union-solve, billed per query
    (its time divided by the number of variables).  Every answer must
    equal the full solve's projection for its variable.
    """
    from ..analysis import analyze

    policy = engine.policy(flavor)

    def full(timed: Timed) -> Any:
        return timed(lambda: analyze(engine.program, policy, facts=engine.facts))

    def query(timed: Timed) -> Dict[str, Any]:
        answers = {}
        for var in picked:
            engine.clear_memos()
            answers[var] = timed(lambda: engine.query(var, flavor))
        return answers

    def batch(timed: Timed) -> Dict[str, Any]:
        engine.clear_memos()
        outcomes = timed(lambda: engine.query_batch(picked, flavor), len(picked))
        return {outcome.var: outcome.answer for outcome in outcomes}

    def check(
        mode: str, answers: Dict[str, Any], result: Any
    ) -> Tuple[int, Optional[str]]:
        work = 0
        for var in picked:
            expected = frozenset(result.var_points_to.get(var, ()))
            answer = answers.get(var)
            if answer is None or answer.points_to != expected:
                got = "none" if answer is None else len(answer.points_to)
                return work, f"{var}: {mode}={got} full={len(expected)} heaps"
            work += len(expected)
        return work, None

    def detail(
        mode: str, answers: Dict[str, Any], cpu: List[float], _base: float
    ) -> Dict[str, Any]:
        if mode != "query":
            return {}
        footprints.extend(answers[var].footprint for var in picked)
        return {
            "queries": [
                {
                    "var": var,
                    "cpu_seconds": round(seconds, 6),
                    "points_to": len(answers[var].points_to),
                    "slice_variables": answers[var].slice_variables,
                    "slice_methods": answers[var].slice_methods,
                    "slice_tuples": answers[var].slice_tuples,
                    "footprint": round(answers[var].footprint, 6),
                }
                for var, seconds in zip(picked, cpu)
            ]
        }

    return Cell(full, {"query": query, "batch": batch}, check, detail)


def _demand_cells(
    specs: Sequence[BenchmarkSpec], flavors: Sequence[str], opts: _Options
) -> Iterator[Tuple[str, str, Cell]]:
    from ..query import QueryEngine

    rng = random.Random(opts.seed)
    warmup: Dict[str, float] = {}
    footprints: List[float] = []
    for name, program, facts in _programs(specs, opts):
        variables = sorted({var for var, _m in facts.varinmeth})
        picked = rng.sample(variables, min(opts.queries, len(variables)))
        w0 = time.perf_counter()
        engine = QueryEngine(program, facts=facts)
        warmup[name] = round(time.perf_counter() - w0, 6)
        for flavor in flavors:
            yield name, flavor, _demand_cell(engine, picked, flavor, footprints)
    median = sorted(footprints)[len(footprints) // 2]
    opts.say(f"median footprint: {median:.4f}")
    opts.detail.update(
        queries=opts.queries,
        seed=opts.seed,
        warmup_seconds=warmup,
        median_footprint=round(median, 6),
    )


#: The four comparisons, by ``--compare`` name.
COMPARISONS: Dict[str, Comparison] = {
    "solver": Comparison(
        _SUITES, DEFAULT_FLAVORS, "reference", "packed", _solver_cells
    ),
    "datalog": Comparison(
        _DATALOG_SUITES, DEFAULT_FLAVORS, "reference", "compiled", _datalog_cells
    ),
    "incremental": Comparison(
        _SUITES, DEFAULT_FLAVORS, "scratch", "warm", _incremental_cells
    ),
    "demand": Comparison(
        _SUITES, DEFAULT_DEMAND_FLAVORS, "packed-full", "packed-slice", _demand_cells
    ),
}


def _comparison(name: str) -> Comparison:
    try:
        return COMPARISONS[name]
    except KeyError:
        raise ValueError(
            f"unknown comparison {name!r}; try one of: {', '.join(COMPARISONS)}"
        ) from None


def suite_names(comparison: str = "solver") -> List[str]:
    return sorted(_comparison(comparison).suites)


def suite_specs(
    suite: str, comparison: str = "solver"
) -> Tuple[BenchmarkSpec, ...]:
    try:
        return _comparison(comparison).suites[suite]
    except KeyError:
        raise ValueError(
            f"unknown suite {suite!r}; try one of: "
            f"{', '.join(suite_names(comparison))}"
        ) from None


def _measure(run: Run) -> Tuple[Any, List[Tuple[float, float]]]:
    """Run once; return its result and (cpu, wall) seconds per section."""
    laps: List[Tuple[float, float]] = []

    def timed(fn: Callable[[], Any], items: int = 1) -> Any:
        gc.collect()
        gc.disable()
        try:
            w0 = time.perf_counter()
            c0 = time.process_time()
            out = fn()
            cpu = time.process_time() - c0
            wall = time.perf_counter() - w0
        finally:
            gc.enable()
        laps.append((cpu / items, wall / items))
        return out

    return run(timed), laps


def run_comparison(
    name: str,
    suite: str = "medium",
    flavors: Optional[Sequence[str]] = None,
    repeat: int = 3,
    progress: Optional[Callable[[str], None]] = None,
    queries: int = 6,
    seed: int = 2014,
    tracers: Optional[List[Tracer]] = None,
) -> Dict[str, object]:
    """Measure one comparison over a suite; return the ``repro-bench/2`` report.

    ``flavors`` defaults to the comparison's own sweep.  ``queries`` and
    ``seed`` pick the demand comparison's variables.  ``tracers`` (solver
    only) adds the ``traced`` variant; the tracer of each traced solve is
    appended to it, so the caller can export the last.  Raises ``ValueError`` for bad arguments and ``RuntimeError``
    when a candidate disagrees with its baseline.
    """
    comparison = _comparison(name)
    if repeat < 1:
        raise ValueError("repeat must be >= 1")
    if queries < 1:
        raise ValueError("queries must be >= 1")
    flavors = list(comparison.flavors if flavors is None else flavors)
    if not flavors:
        raise ValueError("flavors must name at least one context flavor")
    if tracers is not None and name != "solver":
        raise ValueError(
            f"--trace times the packed solver; the {name} comparison "
            "has no traced variant"
        )
    specs = suite_specs(suite, name)

    def say(msg: str) -> None:
        if progress is not None:
            progress(msg)

    opts = _Options(say, queries, seed, tracers)
    entries: List[Dict[str, object]] = []
    speedups: Dict[str, float] = {}
    pooled: List[float] = []
    for benchmark, flavor, cell in comparison.cells(specs, flavors, opts):
        # Best (cpu, wall) per timed section and last result, keyed by
        # variant; None is the baseline, which runs after the candidates.
        runs = [*cell.variants.items(), (None, cell.baseline)]
        best: Dict[Optional[str], List[Tuple[float, float]]] = {}
        last: Dict[Optional[str], Any] = {}
        for _ in range(repeat):
            for variant, run in runs:
                last[variant], laps = _measure(run)
                best[variant] = [
                    (min(c0, c1), min(w0, w1))
                    for (c0, w0), (c1, w1) in zip(best.get(variant, laps), laps)
                ]
        base_cpu = _geomean(c for c, _w in best[None])
        base_wall = _geomean(w for _c, w in best[None])
        for variant in cell.variants:
            work, problem = cell.check(variant, last[variant], last[None])
            if problem is not None:
                raise RuntimeError(
                    f"{name} disagreement on {benchmark}/{flavor}/{variant}: "
                    f"{problem}"
                )
            cpu = [c for c, _w in best[variant]]
            speedup = base_cpu / _geomean(cpu)
            entries.append(
                {
                    "benchmark": benchmark,
                    "flavor": flavor,
                    "variant": variant,
                    "cpu_seconds": round(_geomean(cpu), 6),
                    "seconds": round(_geomean(w for _c, w in best[variant]), 6),
                    "baseline_cpu_seconds": round(base_cpu, 6),
                    "baseline_seconds": round(base_wall, 6),
                    "work": work,
                    "peak_rss_kb": _peak_rss_kb(),
                    "detail": cell.detail(variant, last[variant], cpu, base_cpu),
                }
            )
            speedups[f"{benchmark}/{flavor}/{variant}"] = round(speedup, 3)
            # The geomean covers the candidate against the comparison's
            # baseline; ``traced`` is measured against the packed solve.
            if variant != "traced":
                pooled.append(speedup)
            say(
                f"  {flavor:15s} {variant:9s} baseline={base_cpu:.4f}s "
                f"{variant}={_geomean(cpu):.4f}s  {speedup:.2f}x"
            )
    geomean = _geomean(pooled)
    say(f"geomean speedup: {geomean:.2f}x")
    report: Dict[str, object] = {
        "schema": BENCH_SCHEMA,
        "comparison": name,
        "suite": suite,
        "flavors": flavors,
        "repeat": repeat,
        **_provenance(),
        "baseline": comparison.baseline,
        "candidate": comparison.candidate,
        "entries": entries,
        "speedups": speedups,
        "geomean_speedup": round(geomean, 3),
    }
    if opts.detail:
        report["detail"] = opts.detail
    return report


def write_report(report: Dict[str, object], path: str) -> None:
    """Write a ``BENCH_*.json`` report atomically.

    An interrupted bench run (ctrl-C, OOM kill, power loss) must never
    leave a truncated report behind — downstream, the results warehouse
    ingests these files as evidence, and a half-written artifact would
    poison the trajectory.  ``atomic_write_text`` serializes fully
    first, then lands the bytes via temp file + ``os.replace``.
    """
    atomic_write_text(
        path, json.dumps(report, indent=2, sort_keys=False) + "\n"
    )
