"""The workloads.  Each module exposes:

* ``make_script(seed, table)`` — the seeded, JSON-able op script of one
  pass (all inputs the program will see; the program never sees the seed).
  Every seed does the same work: the seed only orders it;
* ``run(script, table, traced)`` — one timed pass over the script, with
  its own set-up, returning a :class:`Pass`;
* ``PASS_SECONDS`` — the share of ``--seconds`` one full pass is given
  (a pass ends when its script does, often sooner); ``--seconds`` buys
  ``round(seconds / PASS_SECONDS)`` full passes, so two runs with the
  same arguments do the same work however fast the host is;
* ``SETUP`` — one line on what ``setup_s`` covers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..common import SpanTable, Speed


@dataclass
class Pass:
    """What one pass over an op script produced."""

    #: Set-up durations (seconds); ``setup_s`` is the median of their
    #: adjusted times.
    setup: List[float]
    #: ``(category, start, end)`` of every attempted op, in script order.
    ops: List[Tuple[str, float, float]] = field(default_factory=list)
    #: Host-speed readings taken between the ops and set-ups.
    speed: Speed = field(default_factory=Speed)
    peak_rss_mb: float = 0.0
    #: ``(op index, message)`` for each wrong output or raised op.
    failures: List[Tuple[int, str]] = field(default_factory=list)
    #: JSON-able outputs, compared between the traced and untraced pass.
    outputs: List[object] = field(default_factory=list)
    #: Traced pass only: spans and counters for the per-layer metrics.
    spans: Optional[SpanTable] = None
    counters: Dict[str, float] = field(default_factory=dict)

    def op(self, category: str, start: float) -> None:
        """Record an op of ``category`` that began at ``start`` and ends now."""
        self.ops.append((category, start, time.perf_counter()))

    def adjusted_ops(self) -> List[Tuple[str, float]]:
        """``(category, seconds)`` of every op at the reference speed."""
        return [(category, (end - start) * self.speed.factor(start, end))
                for category, start, end in self.ops]

    def adjusted_setup(self) -> List[float]:
        factor = self.speed.overall_factor()
        return [seconds * factor for seconds in self.setup]

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def fail(self, message: str, op: Optional[int] = None) -> None:
        """Record a failed check of ``op`` (default: the latest op)."""
        self.failures.append((len(self.ops) - 1 if op is None else op, message))

    @property
    def failed(self) -> int:
        """Number of distinct ops with at least one failed check."""
        return len({op for op, _message in self.failures})


def refinement_counts(observed: Dict[str, object]) -> Dict[str, int]:
    """Introspection counters of one introspective paper-table entry."""
    sites, excluded_sites, objects, excluded_objects = observed["refinement"]
    return {
        "intro.total_sites": sites,
        "intro.excluded_sites": excluded_sites,
        "intro.total_objects": objects,
        "intro.excluded_objects": excluded_objects,
        "intro.timeouts": int(observed["timed_out"]),
    }


def registry():
    from . import edit_query, paper_matrix, service_mix

    return {
        "paper-matrix": paper_matrix,
        "service-mix": service_mix,
        "edit-query": edit_query,
    }
