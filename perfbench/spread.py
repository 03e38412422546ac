"""Run one workload over several seeds and report each end-to-end metric's
spread: the distance between its first and third quartile as a share of
its median, next to the metric's bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload edit-query --seeds 1-10 --sets 2

A metric is steady when its spread stays below a third of its bound
(``setup_s`` is exempt, though its spread is printed).  With ``--sets 2``
or more, the seeds are run again, set after set, and each later set's
median is compared with the first set's: a median worse by more than the
bound fails, for ``setup_s`` too.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text: str) -> List[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def run_set(workload: str, seeds: List[int], seconds: float,
            names: List[str]) -> Dict[str, List[float]]:
    values: Dict[str, List[float]] = {name: [] for name in names}
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"],
            cwd=str(ROOT), capture_output=True, text=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            raise SystemExit(f"seed {seed}: exit {proc.returncode}, "
                             f"failed {result['failed']}/{result['attempted']}")
        for name in names:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={result['metrics'][name]['value']:.4g}" for name in names),
            flush=True)
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--sets", type=int, default=1,
                        help="run the seeds this many times and compare medians")
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    steady = True
    first: Dict[str, float] = {}
    for n in range(args.sets):
        print(f"set {n + 1}:")
        values = run_set(args.workload, seeds_of(args.seeds), seconds,
                         list(metrics))
        for name, series in values.items():
            bound = metrics[name]["bound"]
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            ok = name == "setup_s" or spread < bound / 3
            line = (f"{name}: median {median:.5g} q1 {q1:.5g} q3 {q3:.5g} "
                    f"spread {spread:.3f} bound {bound}")
            if n == 0:
                first[name] = median
            else:
                worse = (median - first[name]) / first[name]
                if metrics[name]["better"] == "higher":
                    worse = -worse
                ok &= worse <= bound
                line += f" worse-than-set-1 {worse:+.3f}"
            steady &= ok
            print(f"{line} {'ok' if ok else 'WIDE'}", flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
