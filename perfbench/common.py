"""Shared plumbing: paths, statistics, memory, provenance, child processes
and span summaries."""

from __future__ import annotations

import contextlib
import gc
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Result files and child logs (ignored by git).
OUT = ROOT / "perfbench" / "out"


def use_source_tree() -> None:
    """Make ``import repro`` resolve to this checkout's ``src``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for a child interpreter running this checkout's code."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def p50(samples: Sequence[float]) -> float:
    return statistics.median(samples)


def tail(samples: Sequence[float]) -> Tuple[float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``; with fewer than eleven samples the
    tail is the maximum, reported as percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100
    k = n - TAIL_BEYOND - 1
    return ordered[k], (100 * (k + 1)) // n


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
#: Seconds the speed kernel takes on the reference host; adjusted times
#: are what an op would take there.  On a shared 2-vCPU Xeon at 2.0 GHz the
#: kernel takes 1.2-1.6 ms, depending on the load of its neighbours.
REFERENCE_KERNEL_S = 0.0015
#: Readings within this many seconds of an op set its speed.
SPEED_WINDOW_S = 1.0
KERNEL_REPEATS = 3


class _Node:
    __slots__ = ("succ", "bits")

    def __init__(self) -> None:
        self.succ: List["_Node"] = []
        self.bits = 0


def speed_kernel() -> int:
    """A fixed pure-Python worklist propagation of bitsets over a small
    object graph: the instruction mix of the program's solvers, in code
    that no change to the program can move."""
    nodes = [_Node() for _ in range(600)]
    for i, node in enumerate(nodes):
        node.succ.append(nodes[(i * 7 + 3) % 600])
        node.succ.append(nodes[(i * 13 + 1) % 600])
        node.bits = 1 << (i % 500)
    work = nodes[:50]
    while work:
        node = work.pop()
        for succ in node.succ:
            merged = succ.bits | node.bits
            if merged != succ.bits:
                succ.bits = merged
                work.append(succ)
    return sum(node.bits.bit_count() for node in nodes)


class Speed:
    """The host's speed over a run, read between ops.

    A shared host runs the same code up to 1.5 times slower in some
    stretches than in others, for minutes at a time, so wall times of two
    runs of one commit differ by more than a regression bound.  Each
    reading times the speed kernel (median of three); an op's adjusted time
    is its wall time scaled by ``REFERENCE_KERNEL_S`` over the median
    reading within ``SPEED_WINDOW_S`` of the op.  Readings are taken
    outside every timed op.
    """

    def __init__(self) -> None:
        #: ``(perf_counter at the reading, kernel seconds)``
        self.readings: List[Tuple[float, float]] = []

    def read(self) -> None:
        # With the collector off, the reading does not depend on how many
        # objects the program keeps alive.
        enabled = gc.isenabled()
        gc.disable()
        try:
            samples = []
            for _ in range(KERNEL_REPEATS):
                start = time.perf_counter()
                speed_kernel()
                samples.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        self.readings.append((time.perf_counter(), statistics.median(samples)))

    def factor(self, start: float, end: float) -> float:
        """``REFERENCE_KERNEL_S`` over the kernel's time around
        ``[start, end]`` (the two nearest readings if none is that close)."""
        def distance(reading: Tuple[float, float]) -> float:
            return max(start - reading[0], reading[0] - end, 0.0)

        near = [s for t, s in self.readings
                if distance((t, s)) <= SPEED_WINDOW_S]
        if len(near) < 2:
            near = [s for _t, s in sorted(self.readings, key=distance)[:2]]
        return REFERENCE_KERNEL_S / statistics.median(near)

    def overall_factor(self) -> float:
        """``REFERENCE_KERNEL_S`` over the kernel's median time in the run:
        for set-ups, which run in child processes or for longer than the
        window, so that readings next to them say little."""
        return REFERENCE_KERNEL_S / statistics.median(
            s for _t, s in self.readings)

    def kernel_ms(self) -> float:
        return statistics.median(s for _t, s in self.readings) * 1000.0


# ----------------------------------------------------------------------
# Memory and host
# ----------------------------------------------------------------------
def vm_hwm_mb(pid: object = "self") -> float:
    """Peak resident set size of a live process, from ``/proc``."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError):
        pass
    if pid == "self":
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return 0.0


def reset_peak_rss() -> None:
    """Restart this process's ``VmHWM`` from its current RSS, so a pass
    reports its own peak rather than an earlier pass's."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
            fh.write("5")
    except OSError:
        pass


def pin_to_one_cpu() -> None:
    """Run this process, and every child it starts, on one CPU.

    The speed readings then come from the CPU the program runs on, and the
    service's client, server and pool worker hand work to each other there
    instead of waking one another across CPUs whose speeds, on a shared
    host, drift apart.  A change that adds parallelism cannot show a gain
    on this benchmark.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def git_rev() -> Optional[str]:
    """The checkout's commit, or None outside a git work tree."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def provenance() -> Dict[str, object]:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "gc_enabled": gc.isenabled(),
        "cpus_used": (sorted(os.sched_getaffinity(0))
                      if hasattr(os, "sched_getaffinity") else None),
        "git_rev": git_rev(),
    }


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def stop_group(proc: subprocess.Popen, grace: float = 5.0) -> None:
    """Interrupt a child started with ``start_new_session=True``, then
    kill its whole process group if it lingers, and wait for all of it.

    The child and everything it forked share the group, so nothing it
    started can outlive this call by more than the reaping delay of its
    own parent.
    """
    pgid = proc.pid
    if proc.poll() is None:
        try:
            os.killpg(pgid, signal.SIGINT)
        except ProcessLookupError:
            pass
        try:
            proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            pass
    if _group_alive(pgid):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    proc.wait()
    deadline = time.monotonic() + grace
    while _group_alive(pgid) and time.monotonic() < deadline:
        time.sleep(0.02)


def fresh_import_seconds(modules: Iterable[str], repeats: int) -> List[float]:
    """Time ``import`` of ``modules`` in fresh interpreters (one per repeat),
    measured inside the child so interpreter start-up is excluded."""
    code = (
        "import time; t0 = time.perf_counter(); "
        + "; ".join(f"import {m}" for m in modules)
        + "; print(repr(time.perf_counter() - t0))"
    )
    samples = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=child_env(),
            cwd=str(ROOT),
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


# ----------------------------------------------------------------------
# Span summaries
# ----------------------------------------------------------------------
def span(tracer, name: str):
    """``tracer.span(name)``, or a context that does nothing untraced."""
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


class SpanTable:
    """Per-span-name ``count``/``total``/``self`` seconds, merged across
    sources: this process's tracer and the traces of service job payloads.

    Also sums the ``tuples`` attribute of ``analysis.solve`` spans (set on
    every finished solve), which the throughput metric needs.
    """

    def __init__(self) -> None:
        self.rows: Dict[str, List[float]] = {}
        self.solved_tuples = 0

    def add(self, name: str, count: int, total: float, self_s: float) -> None:
        row = self.rows.setdefault(name, [0, 0.0, 0.0])
        row[0] += count
        row[1] += total
        row[2] += self_s

    def add_events(self, events: Iterable[dict]) -> None:
        """Fold Chrome ``trace_event`` complete events into the table.

        Self time is a span's duration minus that of its direct children:
        spans nest per thread, so a stack over start-ordered events finds
        each span's innermost enclosing span.
        """
        by_tid: Dict[object, List[dict]] = {}
        for ev in events:
            if ev.get("ph") == "X":
                by_tid.setdefault(ev.get("tid"), []).append(ev)
        slack = 0.01  # microseconds: timestamps are rounded to 1 ns
        for evs in by_tid.values():
            evs.sort(key=lambda e: (e["ts"], -e["dur"]))
            child: Dict[int, float] = {}
            stack: List[Tuple[int, float]] = []
            for i, ev in enumerate(evs):
                end = ev["ts"] + ev["dur"]
                while stack and stack[-1][1] + slack < end:
                    stack.pop()
                if stack:
                    parent = stack[-1][0]
                    child[parent] = child.get(parent, 0.0) + ev["dur"]
                stack.append((i, end))
            for i, ev in enumerate(evs):
                dur = ev["dur"] / 1e6
                self_s = max(0.0, dur - child.get(i, 0.0) / 1e6)
                self.add(ev["name"], 1, dur, self_s)
                if ev["name"] == "analysis.solve":
                    self.solved_tuples += int(ev.get("args", {}).get("tuples", 0))

    def add_tracer(self, tracer) -> None:
        self.add_events(tracer.chrome_trace()["traceEvents"])

    def total(self, *names: str) -> float:
        return sum(self.rows.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_time(self, *names: str) -> float:
        return sum(self.rows.get(n, (0, 0.0, 0.0))[2] for n in names)

    def count(self, *names: str) -> int:
        return int(sum(self.rows.get(n, (0, 0.0, 0.0))[0] for n in names))
