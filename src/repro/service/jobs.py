"""Job model and priority queue for the analysis service.

A :class:`JobSpec` is the validated, JSON-able description of one analysis
request — either a built-in benchmark name or inline surface-language
source, plus the analysis/introspection configuration and per-job budgets
(the tuple budget is the paper's timeout analog, ``max_seconds`` the
wall-clock guard).  A :class:`Job` wraps a spec with identity, lifecycle
state, and timestamps; :class:`JobQueue` orders pending jobs by priority
(higher first, FIFO within a priority) and supports cancellation of
queued jobs.  A :class:`Lease` is a running job held by one worker.

Lifecycle (:meth:`JobQueue.pop` makes a job ``running`` under the queue
lock, so a cancel either wins before the pop or is refused)::

    queued -> running -> done | timeout | error
         \\-> cancelled

``timeout`` is a *successful* terminal state from the pool's perspective:
the solver's :class:`~repro.analysis.solver.BudgetExceeded` is caught in
the worker, so a budget-tripped job never kills its worker process.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
import uuid
from dataclasses import dataclass, field, asdict
from typing import Any, Dict, List, Optional, Tuple

from ..contexts.policies import policy_by_name
from ..introspection.heuristics import heuristic_from_spec

__all__ = ["Job", "JobQueue", "JobSpec", "JobState", "Lease", "NODE_ID",
           "TERMINAL_STATES"]

#: The worker id under which a service runs jobs itself; in coordinator
#: mode it is also the coordinator's node id on the cache ring.
NODE_ID = "coordinator"


class JobState:
    """String constants for the job lifecycle (JSON-friendly)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    TIMEOUT = "timeout"
    ERROR = "error"
    CANCELLED = "cancelled"


TERMINAL_STATES = frozenset(
    {JobState.DONE, JobState.TIMEOUT, JobState.ERROR, JobState.CANCELLED}
)

_SPEC_FIELDS = {
    "benchmark",
    "source",
    "analysis",
    "introspective",
    "heuristic_constants",
    "max_tuples",
    "max_seconds",
    "priority",
    "show",
    "trace",
}


@dataclass(frozen=True)
class JobSpec:
    """One analysis request, validated and serializable."""

    benchmark: Optional[str] = None
    source: Optional[str] = None
    analysis: str = "2objH"
    introspective: Optional[str] = None
    heuristic_constants: Optional[str] = None
    max_tuples: Optional[int] = None
    max_seconds: Optional[float] = None
    priority: int = 0
    show: Tuple[str, ...] = ()
    #: Opt-in per-job tracing: the result payload gains a "trace" section
    #: (Chrome trace events + per-span summary) and per-stage timings.
    trace: bool = False

    def __post_init__(self) -> None:
        if (self.benchmark is None) == (self.source is None):
            raise ValueError(
                "exactly one of 'benchmark' or 'source' must be given"
            )
        if self.benchmark is not None:
            from ..benchgen.dacapo import DACAPO_SPECS, benchmark_names

            if self.benchmark not in DACAPO_SPECS:
                raise ValueError(
                    f"unknown benchmark {self.benchmark!r}; "
                    f"try one of: {', '.join(benchmark_names())}"
                )
        # Fail fast on bad analysis names / heuristic specs at submission
        # time (HTTP 400) instead of inside a worker process.
        policy_by_name(self.analysis, alloc_class_of=lambda _h: "")
        if self.introspective is not None:
            heuristic_from_spec(self.introspective, self.heuristic_constants)
        elif self.heuristic_constants is not None:
            raise ValueError(
                "'heuristic_constants' requires 'introspective' to be set"
            )
        if self.max_tuples is not None and self.max_tuples <= 0:
            raise ValueError("'max_tuples' must be a positive integer")
        if self.max_seconds is not None and self.max_seconds <= 0:
            raise ValueError("'max_seconds' must be positive")

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "JobSpec":
        """Build a spec from a decoded JSON object, rejecting junk keys."""
        if not isinstance(payload, dict):
            raise ValueError("job payload must be a JSON object")
        unknown = set(payload) - _SPEC_FIELDS
        if unknown:
            raise ValueError(f"unknown job fields: {', '.join(sorted(unknown))}")
        kwargs = dict(payload)
        show = kwargs.pop("show", ())
        if isinstance(show, str):
            show = (show,)
        elif not isinstance(show, (list, tuple)) or not all(
            isinstance(s, str) for s in show
        ):
            raise ValueError("'show' must be a list of variable names")
        for key in ("benchmark", "source", "analysis", "introspective",
                    "heuristic_constants"):
            if key in kwargs and kwargs[key] is not None and not isinstance(
                kwargs[key], str
            ):
                raise ValueError(f"{key!r} must be a string")
        for key in ("max_tuples", "priority"):
            if key in kwargs and kwargs[key] is not None:
                if not isinstance(kwargs[key], int) or isinstance(
                    kwargs[key], bool
                ):
                    raise ValueError(f"{key!r} must be an integer")
        if "max_seconds" in kwargs and kwargs["max_seconds"] is not None:
            if not isinstance(kwargs["max_seconds"], (int, float)) or isinstance(
                kwargs["max_seconds"], bool
            ):
                raise ValueError("'max_seconds' must be a number")
            kwargs["max_seconds"] = float(kwargs["max_seconds"])
        if "trace" in kwargs and not isinstance(kwargs["trace"], bool):
            raise ValueError("'trace' must be a boolean")
        return cls(show=tuple(show), **kwargs)

    def to_payload(self) -> Dict[str, Any]:
        """Inverse of :meth:`from_payload` (picklable/JSON-able dict)."""
        payload = asdict(self)
        payload["show"] = list(self.show)
        return payload


@dataclass
class Job:
    """A spec plus identity, lifecycle state, and result.

    Timekeeping is split by purpose: the ``*_at`` fields are wall-clock
    (:func:`time.time`) and exist only for display — "when did this
    run".  Durations come from the matching ``*_mono`` fields
    (:func:`time.monotonic`): subtracting wall-clock stamps would let an
    NTP step or DST shift produce negative or wildly wrong queue/run
    times, which is exactly the clock the queue's pop deadlines already
    avoid.  Lifecycle transitions must stamp both (see :meth:`mark`).
    """

    spec: JobSpec
    id: str = field(default_factory=lambda: uuid.uuid4().hex[:12])
    state: str = JobState.QUEUED
    created_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    created_mono: float = field(default_factory=time.monotonic)
    started_mono: Optional[float] = None
    finished_mono: Optional[float] = None
    error: Optional[str] = None
    result: Optional[Dict[str, Any]] = None
    cached: bool = False

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def mark_started(self) -> None:
        """Stamp the queued->running transition on both clocks."""
        self.started_at = time.time()
        self.started_mono = time.monotonic()

    def mark_finished(self) -> None:
        """Stamp the terminal transition on both clocks."""
        self.finished_at = time.time()
        self.finished_mono = time.monotonic()

    @property
    def queue_seconds(self) -> Optional[float]:
        """Monotonic time from submission to start (or cancellation)."""
        end = self.started_mono
        if end is None:
            end = self.finished_mono  # cancelled while queued
        if end is None:
            return None
        return end - self.created_mono

    @property
    def run_seconds(self) -> Optional[float]:
        """Monotonic time from start to finish; None until both exist."""
        if self.started_mono is None or self.finished_mono is None:
            return None
        return self.finished_mono - self.started_mono

    @property
    def total_seconds(self) -> Optional[float]:
        """Monotonic time from submission to finish."""
        if self.finished_mono is None:
            return None
        return self.finished_mono - self.created_mono

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able status view (``GET /jobs/{id}``)."""

        def _round(value: Optional[float]) -> Optional[float]:
            return None if value is None else round(value, 6)

        return {
            "id": self.id,
            "state": self.state,
            "spec": self.spec.to_payload(),
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "queue_seconds": _round(self.queue_seconds),
            "run_seconds": _round(self.run_seconds),
            "total_seconds": _round(self.total_seconds),
            "error": self.error,
            "cached": self.cached,
        }


class JobQueue:
    """Thread-safe priority queue of pending jobs.

    Higher ``spec.priority`` pops first; equal priorities are FIFO.
    Cancellation is lazy: :meth:`cancel` flips the job's state and
    :meth:`pop` silently discards entries that are no longer queued — but
    the queue tracks how many stale entries it holds and compacts the heap
    once they outnumber the live ones, so cancel-heavy load cannot grow
    the heap (or the O(n) :meth:`depth` scan) without bound.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, Job]] = []
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._seq = itertools.count()
        self._stale = 0  # cancelled entries still sitting in _heap

    def put(self, job: Job) -> None:
        """Queue a new job, or put a popped one back."""
        with self._not_empty:
            job.state = JobState.QUEUED
            heapq.heappush(self._heap, (-job.spec.priority, next(self._seq), job))
            self._not_empty.notify()

    def pop(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Next queued job, now ``running``; None if the wait times out."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._not_empty:
            while True:
                while self._heap:
                    _, _, job = heapq.heappop(self._heap)
                    if job.state == JobState.QUEUED:
                        job.state = JobState.RUNNING
                        job.mark_started()
                        return job
                    if self._stale:
                        self._stale -= 1
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                    self._not_empty.wait(remaining)
                else:
                    self._not_empty.wait()

    def cancel(self, job: Job) -> bool:
        """Cancel a still-queued job; False once it left the queue."""
        with self._lock:
            if job.state != JobState.QUEUED:
                return False
            job.state = JobState.CANCELLED
            job.mark_finished()
            self._stale += 1
            if self._stale > len(self._heap) // 2:
                self._compact()
            return True

    def _compact(self) -> None:
        """Drop non-queued entries and re-heapify (caller holds the lock).

        The entries keep their original ``(-priority, seq)`` keys, so the
        pop order of the survivors is untouched.
        """
        self._heap = [
            entry for entry in self._heap if entry[2].state == JobState.QUEUED
        ]
        heapq.heapify(self._heap)
        self._stale = 0

    def depth(self) -> int:
        with self._lock:
            return sum(
                1 for _, _, job in self._heap if job.state == JobState.QUEUED
            )


@dataclass
class Lease:
    """A running job held by one worker, keyed for its cache fill."""

    job: Job
    worker_id: str
    key: str  # result-cache content key
    digest: str  # facts digest (the shard routing key)
    granted_mono: float = field(default_factory=time.monotonic)
