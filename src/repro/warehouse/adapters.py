"""Adapters: every results artifact becomes a receipt.

The warehouse ingests two kinds of file:

* native receipts (``repro-receipt/1``), written by every producer, and
* bench reports (``repro-bench/2``) — the committed ``BENCH_*.json``
  files and anything ``repro bench --output`` wrote — which are wrapped
  into a ``bench-<comparison>`` receipt.

:func:`adapt` wraps a report without touching it: the payload is the
report verbatim, the provenance block is lifted from the report's own
host keys (``git_rev`` and ``created_at`` stay ``null`` — a report
records neither), and the identity is the report's comparison, suite,
flavors, baseline and candidate.  Adaptation is deterministic, so the
same report always maps to the same content address.

The ``receipt_from_*`` builders are the producer-side glue: they stamp
``created_at`` and a fresh host provenance (including the current git
rev), which is what distinguishes "this run, here, now" from an adapted
historical artifact.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from .receipt import BENCH_SCHEMA, RECEIPT_SCHEMA, make_receipt, validate_receipt

__all__ = [
    "adapt",
    "ingest",
    "load_any",
    "receipt_from_bench_report",
    "receipt_from_fuzz_campaign",
    "receipt_from_service_job",
]

#: Host keys a bench report carries (harness.bench._provenance).
_REPORT_HOST_KEYS = ("python", "platform", "cpu_count", "gc_enabled")
#: Report keys that identify a bench run.
_REPORT_IDENTITY_KEYS = ("comparison", "suite", "flavors", "baseline", "candidate")


def _bench_receipt(
    report: Dict[str, Any],
    created_at: Optional[float],
    provenance: Optional[Dict[str, Any]],
) -> Dict[str, Any]:
    return make_receipt(
        f"bench-{report.get('comparison')}",
        identity={key: report.get(key) for key in _REPORT_IDENTITY_KEYS},
        payload=report,
        created_at=created_at,
        provenance=provenance,
    )


def adapt(data: Dict[str, Any]) -> Dict[str, Any]:
    """Turn a receipt or a bench report into a validated receipt.

    Native receipts pass through untouched; bench reports are wrapped.
    Raises ``ValueError`` for unknown schemas or malformed artifacts.
    """
    if not isinstance(data, dict):
        raise ValueError("artifact must be a JSON object")
    schema = data.get("schema")
    if schema == RECEIPT_SCHEMA:
        validate_receipt(data)
        return data
    if schema != BENCH_SCHEMA:
        raise ValueError(
            f"unknown artifact schema {schema!r}; expected {RECEIPT_SCHEMA!r} "
            f"or {BENCH_SCHEMA!r}"
        )
    provenance = {key: data.get(key) for key in _REPORT_HOST_KEYS}
    provenance["git_rev"] = None
    return _bench_receipt(data, None, provenance)


def load_any(path: str) -> Dict[str, Any]:
    """Load one file (receipt or bench report) as a receipt."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        return adapt(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def ingest(
    inputs: List[str],
) -> Tuple[List[Tuple[str, Dict[str, Any]]], List[str]]:
    """Load receipts from files and directories.

    Explicitly named files must adapt cleanly (``ValueError`` otherwise);
    inside a directory, ``*.json`` files with unrecognized schemas are
    skipped and reported in the second return value — a warehouse
    directory may sit next to unrelated artifacts.

    Returns ``(ordered (path, receipt) pairs, skipped paths)``.
    """
    receipts: List[Tuple[str, Dict[str, Any]]] = []
    skipped: List[str] = []
    for raw in inputs:
        path = Path(raw)
        if path.is_dir():
            # Sort by bare filename: Path ordering compares whole paths,
            # whose prefix can differ across filesystems/mounts for the
            # "same" store — filename order keeps table and trajectory
            # output byte-deterministic (ingestion order is the scorer's
            # tie-break for equal timestamps).
            for child in sorted(path.glob("*.json"), key=lambda p: p.name):
                try:
                    receipts.append((str(child), load_any(str(child))))
                except (ValueError, json.JSONDecodeError):
                    skipped.append(str(child))
        elif path.is_file():
            receipts.append((str(path), load_any(str(path))))
        else:
            raise ValueError(f"no such receipt file or directory: {raw}")
    return receipts, skipped


def receipt_from_bench_report(
    report: Dict[str, Any],
    created_at: Optional[float] = None,
) -> Dict[str, Any]:
    """Receipt for a bench report produced *by this run* (fresh provenance).

    Unlike :func:`adapt`, this stamps ``created_at`` (now, unless given)
    and the current host/git provenance — the report's own host keys stay
    inside the payload, so nothing is lost if the two ever diverge.
    """
    if report.get("schema") != BENCH_SCHEMA:
        raise ValueError(f"not a bench report: schema {report.get('schema')!r}")
    return _bench_receipt(
        report, time.time() if created_at is None else created_at, None
    )


def receipt_from_fuzz_campaign(
    seed: int,
    flavors: List[str],
    budget_seconds: float,
    stats: Dict[str, Any],
    violations: List[str],
    created_at: Optional[float] = None,
) -> Dict[str, Any]:
    """Receipt for one completed fuzz campaign (``repro fuzz``)."""
    return make_receipt(
        "fuzz-campaign",
        identity={
            "seed": seed,
            "flavors": list(flavors),
            "budget_seconds": budget_seconds,
        },
        payload={"stats": stats, "violations": list(violations)},
        created_at=time.time() if created_at is None else created_at,
    )


def receipt_from_service_job(
    snapshot: Dict[str, Any],
    result: Dict[str, Any],
    created_at: Optional[float] = None,
) -> Dict[str, Any]:
    """Receipt for one terminal service job (queue + run provenance).

    ``snapshot`` is ``Job.snapshot()`` and ``result`` the worker payload;
    the receipt keeps the timing split and solver stats but drops the
    bulky optional sections (points-to sets, traces) — the warehouse
    stores evidence about *performance*, not full results.
    """
    spec = snapshot.get("spec") or {}
    stats = result.get("stats")
    payload: Dict[str, Any] = {
        "job_id": snapshot.get("id"),
        "state": snapshot.get("state"),
        "cached": snapshot.get("cached", False),
        "queue_seconds": snapshot.get("queue_seconds"),
        "run_seconds": snapshot.get("run_seconds"),
        "total_seconds": snapshot.get("total_seconds"),
        "solve_seconds": result.get("solve_seconds"),
        "stages": result.get("stages"),
        "stats": stats,
        "pass1_reused": result.get("pass1_reused", False),
        "facts_digest": result.get("facts_digest"),
    }
    # Cluster-executed jobs carry the executing node's provenance
    # (worker id/url/name — see docs/cluster.md); plain single-process
    # jobs have no such stamp and the field is omitted.
    worker = result.get("worker")
    if worker is not None:
        payload["worker"] = worker
    return make_receipt(
        "service-job",
        identity={
            "analysis": spec.get("analysis"),
            "benchmark": spec.get("benchmark"),
            "source": (result.get("facts_digest") or "")[:12]
            if spec.get("benchmark") is None
            else None,
            "introspective": spec.get("introspective"),
        },
        payload=payload,
        created_at=time.time() if created_at is None else created_at,
    )
