"""edit-query: warm incremental sessions with demand queries between edits.

Set-up opens one ``IncrementalSession`` (2objH, packed solver) on each
analog whose plain 2objH finishes within the budget (three times per pass:
each set is timed, and all but the last dropped, so ``setup_s`` has three
samples a pass).
Each step applies one edit to one session, then asks three ``query_batch``
calls of three variables from the analog's query pool through a
``QueryEngine`` on the session's current program, rebuilt after each edit.
The host speed is read before each step, outside the timed ops.

The work is the same for every seed.  Each session's edits and their
query batches are drawn once from a fixed internal seed: edit kinds follow
a fixed schedule matching ``random_edit_script`` with removals allowed for
30% of the edits (per 17 edits, 4 each of alloc, move, new-call and
new-entry, and 1 delete), and the batches walk a fixed order of the pool
variables.  The run seed only interleaves the sessions' step sequences;
each session still takes its own edits in order, so every edit stays
valid.  A full pass is 51 steps.

After the timed loop, each session's warm relations and a fixed sample of
the answers are checked against reference solves of the program version
they were computed on.
"""

from __future__ import annotations

import gc
import itertools
import random
import time
from typing import Dict, List

from .. import oracle
from ..common import (
    SpanTable,
    fresh_import_seconds,
    reset_peak_rss,
    span,
    vm_hwm_mb,
)
from . import Pass

from repro.benchgen.dacapo import build_benchmark
from repro.fuzz.sketch import ProgramSketch
from repro.incremental.edits import EditScript, random_edit_script
from repro.incremental.session import IncrementalSession
from repro.obs import Tracer
from repro.query import QueryEngine

MODULES = (
    "repro.benchgen.dacapo",
    "repro.fuzz.sketch",
    "repro.incremental",
    "repro.query",
)
FLAVOR = oracle.QUERY_FLAVOR
#: One round of the edit-kind schedule; the i-th step drawn applies kind
#: i % 17 to session i % 7, so the kinds rotate across the sessions.
EDIT_KINDS = ("alloc", "move", "new-call", "new-entry") * 4 + ("delete",)
BATCHES_PER_STEP = 3
VARS_PER_BATCH = 3
ROUNDS_PER_PASS = 3
#: Seconds of --seconds given to a full pass (it takes about 25 s, set-up
#: and checks included).
PASS_SECONDS = 40.0
SETUP_REPEATS = 3
SETUP = ("fresh-interpreter import of the session and query modules plus "
         f"the warm sessions' build and initial solve ({SETUP_REPEATS} per pass)")
#: Answers checked against a reference solve after the loop.
CHECKED_BATCHES = 6
#: Seed of the edits and query batches, which every run shares.
WORK_SEED = 0


def session_steps(table: dict) -> List[List[dict]]:
    """Each session's steps in order (its edits, each with its query
    batches, and which batches the oracle checks), drawn from WORK_SEED."""
    rng = random.Random(WORK_SEED)
    analogs = list(oracle.query_analogs(table))
    sketches = [ProgramSketch.from_program(build_benchmark(a)) for a in analogs]
    pools = []
    for analog in analogs:
        pool = sorted(table["queries"][analog])
        rng.shuffle(pool)
        pools.append(itertools.cycle(pool))
    steps: List[List[dict]] = [[] for _ in analogs]
    kinds = list(EDIT_KINDS) * ROUNDS_PER_PASS
    for i, kind in enumerate(kinds):
        s = i % len(analogs)
        for _attempt in range(50):
            edit = random_edit_script(sketches[s], rng, edits=1, kinds=[kind])
            trial = sketches[s].clone()
            try:
                edit.apply(trial)
                trial.build()
            except Exception:  # noqa: BLE001 - an invalid draw; draw again
                continue
            sketches[s] = trial
            break
        else:
            raise RuntimeError(f"no valid edit for session {s} at step {i}")
        steps[s].append({
            "session": s,
            "edit": edit.to_json(),
            "queries": [[next(pools[s]) for _ in range(VARS_PER_BATCH)]
                        for _ in range(BATCHES_PER_STEP)],
            "checked": [],
        })
    batches = [(s, k, j) for s, mine in enumerate(steps)
               for k in range(len(mine)) for j in range(BATCHES_PER_STEP)]
    for s, k, j in sorted(rng.sample(batches, CHECKED_BATCHES)):
        steps[s][k]["checked"].append(j)
    return steps


def make_script(seed: int, table: dict) -> dict:
    """The sessions' fixed step sequences, interleaved in a seeded order."""
    per_session = session_steps(table)
    order = [s for s, mine in enumerate(per_session) for _ in mine]
    random.Random(seed).shuffle(order)
    cursors = [iter(mine) for mine in per_session]
    return {"workload": "edit-query",
            "analogs": list(oracle.query_analogs(table)),
            "steps": [next(cursors[s]) for s in order]}


def open_sessions(analogs: List[str]) -> List[IncrementalSession]:
    return [
        IncrementalSession(ProgramSketch.from_program(build_benchmark(a)),
                           analysis=FLAVOR)
        for a in analogs
    ]


def run(script: dict, table: dict, traced: bool) -> Pass:
    setup = []
    sessions: List[IncrementalSession] = []
    for imports in fresh_import_seconds(MODULES, SETUP_REPEATS):
        sessions = []  # drop the previous set before opening the next
        gc.collect()
        start = time.perf_counter()
        sessions = open_sessions(script["analogs"])
        setup.append(imports + time.perf_counter() - start)
    result = Pass(setup=setup)
    tracer = Tracer() if traced else None
    edits = [EditScript.from_json(step["edit"]) for step in script["steps"]]
    reset_peak_rss()
    engines: Dict[int, QueryEngine] = {}
    asked = []  # (op index, program version, answers) to check later
    last_edit = {}  # session -> op index of its latest edit
    for i, (step, edit) in enumerate(zip(script["steps"], edits)):
        s = step["session"]
        session = sessions[s]
        result.speed.read()
        start = time.perf_counter()
        try:
            with span(tracer, "incremental.apply"):
                outcome = session.apply(edit)
        except Exception as exc:  # noqa: BLE001 - a failed op, reported
            result.op("edit", start)
            result.fail(f"step {i}: edit: {type(exc).__name__}: {exc}")
            continue
        result.op("edit", start)
        result.outputs.append([i, outcome.tier, outcome.digest])
        last_edit[s] = len(result.ops) - 1
        stale = engines.pop(s, None)
        if tracer is not None:
            if stale is not None:
                result.count("query.solves", stale.solves)
            result.count("incremental.edits")
            result.count(f"incremental.tier.{outcome.tier}")
            result.count("incremental.rows_added", outcome.result_rows_added)
        for j, variables in enumerate(step["queries"]):
            start = time.perf_counter()
            try:
                if s not in engines:
                    with span(tracer, "query.engine_init"):
                        engines[s] = QueryEngine(session.program,
                                                 facts=session.facts)
                with span(tracer, "query.batch"):
                    outcomes = engines[s].query_batch(variables, FLAVOR)
            except Exception as exc:  # noqa: BLE001 - a failed op, reported
                result.op("query", start)
                result.fail(
                    f"step {i}: query: {type(exc).__name__}: {exc}")
                continue
            result.op("query", start)
            answers = {}
            for o in outcomes:
                if o.answer is None:
                    result.fail(f"step {i}: pts({o.var}): {o.error}")
                    continue
                answers[o.var] = sorted(o.answer.points_to)
                if tracer is not None:
                    result.count("query.answers")
                    result.count("query.footprint_sum", o.answer.footprint)
            result.outputs.append([i, answers])
            if j in step["checked"]:
                asked.append((len(result.ops) - 1, session.program, answers))
    result.speed.read()
    if tracer is not None:
        result.count("query.solves", sum(e.solves for e in engines.values()))
    result.peak_rss_mb = vm_hwm_mb()

    # Oracle checks, outside every timed region.
    for s, session in enumerate(sessions):
        expected = oracle.reference_relations(session.program, FLAVOR)
        warm = session.relations()
        for name in sorted(expected):
            if warm[name] != expected[name]:
                result.fail(
                    f"session {script['analogs'][s]}: warm {name} differs "
                    f"from the reference ({len(warm[name])} vs "
                    f"{len(expected[name])} rows)",
                    op=last_edit.get(s, 0),
                )
    for op, program, answers in asked:
        reference = oracle.points_to_of(
            oracle.reference_relations(program, FLAVOR))
        for var, heaps in answers.items():
            want = sorted(reference.get(var, ()))
            if heaps != want:
                result.fail(f"op {op}: pts({var}) = {heaps}, expected {want}",
                            op=op)
    if tracer is not None:
        result.spans = SpanTable()
        result.spans.add_tracer(tracer)
    return result
