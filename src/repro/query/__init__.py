"""Demand-driven query engine: ``pts(v)`` over a slice, under any flavor.

High-level entry point::

    from repro.query import QueryEngine
    engine = QueryEngine(program)            # one cheap insensitive pass
    engine.query("Main.main/0/x", "2objH")   # solves only x's slice

See :mod:`repro.query.planner` for the slice-closure semantics and
``docs/queries.md`` for the CLI/HTTP surfaces.
"""

from .engine import (
    QUERY_FLAVORS,
    QueryAnswer,
    QueryEngine,
    QueryOutcome,
    check_flavor,
)
from .planner import SLICED_RELATIONS, QueryPlanner, SlicePlan

__all__ = [
    "QUERY_FLAVORS",
    "QueryAnswer",
    "QueryEngine",
    "QueryOutcome",
    "QueryPlanner",
    "SLICED_RELATIONS",
    "SlicePlan",
    "check_flavor",
]
