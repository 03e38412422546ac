"""The demand-driven query engine: plan, slice-solve, memoize.

:class:`QueryEngine` answers ``pts(v)`` under any context flavor by
running the ordinary packed bitset solver over the queried variable's
:class:`~repro.query.planner.SlicePlan` instead of the whole program.
The win is not a faster fixpoint but skipping most of it: the solver,
the policies, and the budget machinery are exactly the whole-program
ones, fed a sliced :class:`FactBase`.

Supported flavors are every :func:`policy_by_name` analysis name
(``insens``, ``2objH``, ``2typeH``, ``2callH``, …) plus the two-pass
introspective variants ``introspective-A`` / ``introspective-B``: the
refinement decision is computed once per engine from the whole-program
insensitive pass (the same inputs :func:`run_introspective` uses), so a
sliced introspective solve reproduces the whole-program introspective
answer.

Results memoize at two grains, both keyed under ``FactBase.digest()``:

* **slice memo** — ``(digest, flavor, slice signature)`` maps to the
  solved projection of the slice's planned variables.  Two queries (or
  two engines over the same facts) whose closures coincide share one
  solve; a batch's union-plan lands here too, so later sub-queries whose
  slices are subsets still pay nothing.
* **answer memo** — ``(digest, flavor, var)`` caches the finished
  :class:`QueryAnswer` for exact repeats.

Budgets are per query: ``max_tuples`` / ``max_seconds`` are handed to
the sliced solver verbatim, so an exhausted query raises the very same
:class:`~repro.analysis.solver.BudgetExceeded` (same ``reason`` /
``tuples`` / ``seconds`` fields) as the whole-program path.  In a batch,
a blown union-solve falls back to per-variable solves — one poisonous
query cannot keep its siblings from being answered or memoized, and a
failed solve never populates the memo.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..analysis import AnalysisResult, BudgetExceeded, analyze
from ..contexts.policies import ContextPolicy, policy_by_name
from ..facts.encoder import FactBase, encode_program
from ..ir.program import Program
from .planner import QueryPlanner, SlicePlan

__all__ = [
    "QueryAnswer",
    "QueryOutcome",
    "QueryEngine",
    "QUERY_FLAVORS",
    "check_flavor",
]

#: Flavors every engine answers (any ``policy_by_name`` name also works).
QUERY_FLAVORS = (
    "insens",
    "2objH",
    "2typeH",
    "2callH",
    "introspective-A",
    "introspective-B",
)

_INTROSPECTIVE = "introspective-"


def check_flavor(flavor: str) -> None:
    """Raise ``ValueError`` unless ``flavor`` names a query flavor.

    Needs no program: callers validate a request before paying for an
    engine.
    """
    if flavor.startswith(_INTROSPECTIVE):
        if flavor[len(_INTROSPECTIVE):] not in ("A", "B"):
            raise ValueError(
                f"unknown introspective flavor {flavor!r}; "
                f"expected introspective-A or introspective-B"
            )
    else:
        policy_by_name(flavor, alloc_class_of=str)


@dataclass(frozen=True)
class QueryAnswer:
    """One answered query, with its slice-economics receipts."""

    var: str
    flavor: str
    points_to: FrozenSet[str]
    slice_variables: int  # planned variables in the slice
    slice_methods: int  # methods the slice keeps reachable
    slice_tuples: int  # instruction facts the sliced solve saw
    footprint: float  # slice_variables / program variables (0..1)
    seconds: float  # wall clock to answer (plan + solve), ~0 on a hit
    memoized: bool  # answered from the memo without solving

    def to_json(self) -> Dict[str, object]:
        return {
            "var": self.var,
            "flavor": self.flavor,
            "points_to": sorted(self.points_to),
            "slice_variables": self.slice_variables,
            "slice_methods": self.slice_methods,
            "slice_tuples": self.slice_tuples,
            "footprint": self.footprint,
            "seconds": self.seconds,
            "memoized": self.memoized,
        }


@dataclass
class QueryOutcome:
    """One slot of a batch answer: an answer or a per-query timeout."""

    var: str
    answer: Optional[QueryAnswer] = None
    error: Optional[BudgetExceeded] = None

    def to_json(self) -> Dict[str, object]:
        if self.answer is not None:
            return self.answer.to_json()
        err = self.error
        return {
            "var": self.var,
            "error": {
                "reason": err.reason,
                "tuples": err.tuples,
                "seconds": err.seconds,
            },
        }


class QueryEngine:
    """Answer points-to queries over slices of one program.

    Building an engine pays for one context-insensitive whole-program
    pass (the ahead-of-time call graph every demand-driven formulation
    assumes); every query after that touches only its slice.  Pass a
    precomputed ``insens`` result to amortize that warm-up across
    engines — the service does, via its session/pass-1 caches.
    """

    def __init__(
        self,
        program: Program,
        facts: Optional[FactBase] = None,
        insens: Optional[AnalysisResult] = None,
        max_tuples: Optional[int] = None,
        max_seconds: Optional[float] = None,
    ) -> None:
        self.program = program
        self.facts = facts if facts is not None else encode_program(program)
        self.insens = (
            insens
            if insens is not None
            else analyze(program, "insens", facts=self.facts)
        )
        self.digest = self.facts.digest()
        self.planner = QueryPlanner(program, self.facts, self.insens.call_graph)
        self.max_tuples = max_tuples
        self.max_seconds = max_seconds
        self._plans: Dict[str, SlicePlan] = {}
        self._policies: Dict[str, ContextPolicy] = {}
        self._decisions: Dict[str, object] = {}
        # (digest, flavor, slice signature) -> planned-variable projection
        self._slice_memo: Dict[
            Tuple[str, str, str], Dict[str, FrozenSet[str]]
        ] = {}
        # (digest, flavor, var) -> finished answer
        self._answer_memo: Dict[Tuple[str, str, str], QueryAnswer] = {}
        self.solves = 0  # sliced fixpoints actually run (tests/metrics)

    # ------------------------------------------------------------------
    # Flavors
    # ------------------------------------------------------------------
    def policy(self, flavor: str) -> ContextPolicy:
        """The context policy a flavor name denotes, memoized.

        ``introspective-A``/``-B`` build the two-pass refinement policy
        from this engine's whole-program insensitive pass — the same
        metrics and heuristic decision :func:`run_introspective` would
        compute, so sliced answers match the driver's.
        """
        cached = self._policies.get(flavor)
        if cached is not None:
            return cached
        if flavor.startswith(_INTROSPECTIVE):
            from ..contexts.introspective import IntrospectivePolicy
            from ..introspection import HeuristicA, HeuristicB, compute_metrics

            check_flavor(flavor)
            heuristics = {"A": HeuristicA, "B": HeuristicB}
            metrics = compute_metrics(self.insens, self.facts)
            decision = heuristics[flavor[len(_INTROSPECTIVE):]]().decide(
                metrics, self.facts, self.insens
            )
            refined = policy_by_name(
                "2objH", alloc_class_of=self.facts.alloc_class_of
            )
            policy: ContextPolicy = IntrospectivePolicy(refined, decision)
        else:
            policy = policy_by_name(
                flavor, alloc_class_of=self.facts.alloc_class_of
            )
        self._policies[flavor] = policy
        return policy

    # ------------------------------------------------------------------
    # Planning / solving
    # ------------------------------------------------------------------
    def plan(self, var: str) -> SlicePlan:
        plan = self._plans.get(var)
        if plan is None:
            plan = self._plans[var] = self.planner.plan([var])
        return plan

    def _solve_plan(
        self,
        plan: SlicePlan,
        flavor: str,
        max_tuples: Optional[int],
        max_seconds: Optional[float],
    ) -> Tuple[Dict[str, FrozenSet[str]], bool]:
        """Solve one slice (or return its memoized projection).

        Returns ``(projection, memo_hit)``; raises
        :class:`BudgetExceeded` without touching the memo.
        """
        key = (self.digest, flavor, plan.signature)
        hit = self._slice_memo.get(key)
        if hit is not None:
            return hit, True
        sliced = plan.sliced_facts(self.program, self.facts)
        result = analyze(
            self.program,
            self.policy(flavor),
            facts=sliced,
            max_tuples=max_tuples,
            max_seconds=max_seconds,
        )
        self.solves += 1
        # Memoize the *whole* sliced projection, not just this plan's
        # variables: two plans can select identical facts (same
        # signature) while planning different variable sets — and over
        # identical facts the solves are identical, so any colliding
        # plan's variables project exactly from this one solve.
        projection = {
            v: frozenset(heaps) for v, heaps in result.var_points_to.items()
        }
        self._slice_memo[key] = projection
        return projection, False

    def _footprint(self, plan: SlicePlan) -> float:
        total = self.planner.total_variables
        return len(plan.variables) / total if total else 0.0

    def query(
        self,
        var: str,
        flavor: str = "insens",
        max_tuples: Optional[int] = None,
        max_seconds: Optional[float] = None,
    ) -> QueryAnswer:
        """Answer ``pts(var)`` under ``flavor``; raises on a blown budget."""
        akey = (self.digest, flavor, var)
        cached = self._answer_memo.get(akey)
        if cached is not None:
            return cached
        start = time.perf_counter()
        plan = self.plan(var)
        projection, memo_hit = self._solve_plan(
            plan,
            flavor,
            max_tuples if max_tuples is not None else self.max_tuples,
            max_seconds if max_seconds is not None else self.max_seconds,
        )
        answer = QueryAnswer(
            var=var,
            flavor=flavor,
            points_to=projection.get(var, frozenset()),
            slice_variables=len(plan.variables),
            slice_methods=len(plan.methods),
            slice_tuples=plan.kept_tuples,
            footprint=self._footprint(plan),
            seconds=time.perf_counter() - start,
            memoized=memo_hit,
        )
        self._answer_memo[akey] = answer
        return answer

    def query_batch(
        self,
        variables: Sequence[str],
        flavor: str = "insens",
        max_tuples: Optional[int] = None,
        max_seconds: Optional[float] = None,
    ) -> List[QueryOutcome]:
        """Answer a batch of queries, sharing one slice union-solve.

        The per-query budget applies to the union-solve first (it is the
        cheapest way to answer everyone); if the union blows it, each
        query retries alone under the same budget, so only the genuinely
        over-budget variables report errors.  Answer order matches input
        order; duplicate variables share one slot's work.
        """
        max_tuples = max_tuples if max_tuples is not None else self.max_tuples
        max_seconds = (
            max_seconds if max_seconds is not None else self.max_seconds
        )
        outcomes: List[QueryOutcome] = []
        fresh = [
            v
            for v in dict.fromkeys(variables)
            if (self.digest, flavor, v) not in self._answer_memo
        ]
        if len(fresh) > 1:
            union = self.planner.plan(fresh)
            try:
                projection, _ = self._solve_plan(
                    union, flavor, max_tuples, max_seconds
                )
            except BudgetExceeded:
                pass  # fall back to per-variable solves below
            else:
                # every individual plan is a sub-closure of the union,
                # and the union's facts are a superset of each plan's:
                # its projection is exact for every planned variable, so
                # seed the slice memo for the per-variable path to hit.
                for v in fresh:
                    plan = self.plan(v)
                    self._slice_memo.setdefault(
                        (self.digest, flavor, plan.signature), projection
                    )
        for var in variables:
            try:
                outcomes.append(
                    QueryOutcome(
                        var,
                        answer=self.query(
                            var,
                            flavor,
                            max_tuples=max_tuples,
                            max_seconds=max_seconds,
                        ),
                    )
                )
            except BudgetExceeded as exc:
                outcomes.append(QueryOutcome(var, error=exc))
        return outcomes

    def clear_memos(self) -> None:
        """Drop both memo tiers (plans and policies stay warm).

        The bench harness uses this to time every query cold while still
        amortizing the insensitive pass and the planner's indexes, which
        is the steady-state a long-lived engine actually runs in.
        """
        self._slice_memo.clear()
        self._answer_memo.clear()

    # ------------------------------------------------------------------
    # Introspection of the memo (tests, /metrics)
    # ------------------------------------------------------------------
    @property
    def memo_entries(self) -> int:
        return len(self._slice_memo)

    @property
    def answered(self) -> int:
        return len(self._answer_memo)
