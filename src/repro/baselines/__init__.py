"""Baseline techniques the paper compares against (Section 5).

The demand-driven comparator is the query engine, :mod:`repro.query`.
"""

from .pruning import (
    PruningOutcome,
    build_pruned_program,
    keep_set,
    prune_and_analyze,
    relevant_variables,
)

__all__ = [
    "PruningOutcome",
    "build_pruned_program",
    "keep_set",
    "prune_and_analyze",
    "relevant_variables",
]
