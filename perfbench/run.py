"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper-matrix --seed 1 --seconds 40 --trace 0

Workloads: paper-matrix, service-mix, edit-query (see
``perfbench/layers.json`` for what each exercises and why).

``--seconds`` buys whole passes over the workload's seeded op script
(``round(seconds / PASS_SECONDS)`` of them, at least one), so two runs with
the same arguments do the same work however fast the host is.  Every
seed does the same work; the seed only orders it.  ``--trace 0`` runs the
passes, each with its own set-up, and prints the end-to-end metrics over
all of their ops.
``--trace 1`` runs one untraced pass, then one traced pass; it prints every
per-layer metric (with span count, total and self time), the traced minus
untraced difference of each end-to-end metric, and checks that both passes
produced the same outputs.

Every time metric is at the reference speed: the workloads read the host's
speed between ops with a fixed kernel, and each wall time is scaled to what
it would be where that kernel takes ``REFERENCE_KERNEL_S`` (see
``common.Speed``).  A shared host drifts by up to 1.5x between stretches of
minutes; the adjusted times drift far less.  The wall times are printed on
``wall`` lines next to them.  The run and every process it starts share
one CPU (``common.pin_to_one_cpu``).

Every output is checked against the reference-solver table
(``perfbench/expected.json``).  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code
is 1 when any check failed.  A result file with host provenance is written
under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"
LAYERS = ROOT / "perfbench" / "layers.json"

Metric = Tuple[float, str]


def _interrupt(signum, frame):  # pragma: no cover - signal plumbing
    raise KeyboardInterrupt(f"signal {signum}")


def combine(passes: list):
    """Pool repeated passes over one script into one sample: every op of
    every pass counts, so the run's medians average over bursts of other
    load on the host.  Set-up samples and speed readings are pooled too,
    the peak RSS is the highest pass peak, and the passes must agree on
    every output."""
    from perfbench.workloads import Pass

    first = passes[0]
    merged = Pass(setup=[], outputs=first.outputs)
    for p in passes:
        offset = len(merged.ops)
        merged.setup.extend(p.setup)
        merged.ops.extend(p.ops)
        merged.speed.readings.extend(p.speed.readings)
        merged.peak_rss_mb = max(merged.peak_rss_mb, p.peak_rss_mb)
        for op, message in p.failures:
            merged.fail(message, op=offset + op)
        if p.outputs != first.outputs:
            merged.fail("outputs differ from the first pass", op=offset)
    return merged


def end_to_end(p, units: Dict[str, str]) -> Tuple[Dict[str, Metric], List[str]]:
    """The gated metrics of one (combined) pass, and the lines that explain
    them: every time at the reference speed, then the per-category detail
    metrics and the wall-clock times they were adjusted from."""
    from perfbench.common import REFERENCE_KERNEL_S, p50, tail
    from perfbench.oracle import paper_cells

    ops = p.adjusted_ops()
    latencies = [seconds for _category, seconds in ops]
    tail_value, tail_pct = tail(latencies)
    n = len(latencies)
    setup = p.adjusted_setup()
    values = {
        "setup_s": (p50(setup), f"n={len(setup)}"),
        "peak_rss_mb": (p.peak_rss_mb, ""),
        "ops_per_s": (n / sum(latencies), f"n={n} busy={sum(latencies)!r}s"),
        "op_p50_ms": (p50(latencies) * 1000.0, f"n={n}"),
        "op_tail_ms": (tail_value * 1000.0, f"p{tail_pct} n={n}"),
    }
    metrics = {name: (values[name][0], unit) for name, unit in units.items()}
    lines = [f"metric {name} {value!r} {unit} {values[name][1]}".rstrip()
             for name, (value, unit) in metrics.items()]
    for category in dict.fromkeys(category for category, _s in ops):
        samples = [s for c, s in ops if c == category]
        value, pct = tail(samples)
        lines.append(f"detail {category}_p50_ms {p50(samples) * 1000.0!r} ms "
                     f"n={len(samples)}")
        lines.append(f"detail {category}_tail_ms {value * 1000.0!r} ms "
                     f"p{pct} n={len(samples)}")
        if category == "cell":
            # the cells' summed latency, scaled to one pass of all 90
            per_pass = sum(samples) * len(paper_cells()) / len(samples)
            lines.append(f"detail matrix_s {per_pass!r} s n={len(samples)}")
    lines.append(f"detail failed_ratio {p.failed / max(1, n)!r} ratio "
                 f"failed={p.failed} attempted={n}")
    wall = [end - start for _category, start, end in p.ops]
    wall_tail, wall_pct = tail(wall)
    lines += [
        f"wall setup_s {p50(p.setup)!r} s",
        f"wall ops_per_s {n / sum(wall)!r} 1/s",
        f"wall op_p50_ms {p50(wall) * 1000.0!r} ms",
        f"wall op_tail_ms {wall_tail * 1000.0!r} ms p{wall_pct}",
        f"speed kernel_ms {p.speed.kernel_ms()!r} ms "
        f"(reference {REFERENCE_KERNEL_S * 1000.0!r} ms) "
        f"n={len(p.speed.readings)}",
    ]
    return metrics, lines


def per_layer(p, units: Dict[str, str],
              definitions: Dict[str, dict]) -> Tuple[Dict[str, Metric], List[str]]:
    """Every per-layer metric of a traced pass (0 where the workload does
    not reach the layer), with count/total/self lines for span metrics."""
    from perfbench.common import SpanTable

    spans = p.spans or SpanTable()
    metrics: Dict[str, Metric] = {}
    lines = []
    for name, unit in units.items():
        kind, source = definitions[name]["kind"], definitions[name]["source"]
        detail = ""
        if kind in ("span_total", "span_self"):
            total, self_s = spans.total(*source), spans.self_time(*source)
            value = total if kind == "span_total" else self_s
            detail = (f" count={spans.count(*source)} total={total!r}s "
                      f"self={self_s!r}s")
        elif kind == "tuples":
            value = spans.solved_tuples
        elif kind == "tuples_rate":
            solve = spans.total(*source)
            value = spans.solved_tuples / solve if solve else 0.0
        elif kind == "counter":
            value = p.counters.get(source, 0)
        elif kind == "ratio":
            num, den = (p.counters.get(name, 0) for name in source)
            value = num / den if den else 0.0
            detail = f" ({num!r}/{den!r})"
        else:
            raise ValueError(f"{name}: unknown metric kind {kind!r}")
        metrics[name] = (value, unit)
        lines.append(f"layer {name} {value!r} {unit}{detail}")
    return metrics, lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one perfbench workload and print its metrics."
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="nominal measuring time; sizes the op script")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no program source at src/repro; run from the root "
              "of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT))
    signal.signal(signal.SIGTERM, _interrupt)

    from perfbench import common

    common.use_source_tree()
    common.pin_to_one_cpu()
    from perfbench import oracle
    from perfbench.workloads import registry

    workloads = registry()
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads)}", file=sys.stderr)
        return 2
    module = workloads[args.workload]
    table = oracle.load_table()
    bench = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    e2e_units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    definitions = json.loads(LAYERS.read_text(encoding="utf-8"))["per_layer"]
    passes = max(1, round(args.seconds / module.PASS_SECONDS))
    script = module.make_script(args.seed, table)
    host = common.provenance()

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("host " + " ".join(f"{k}={v}" for k, v in host.items()))
    print(f"setup {module.SETUP}")
    if not args.trace:
        measured = combine([module.run(script, table, traced=False)
                            for _ in range(passes)])
        metrics, lines = end_to_end(measured, e2e_units)
        report = {"untraced": lines}
        attempted, failed = len(measured.ops), measured.failed
        failures = measured.failures
    else:
        untraced = module.run(script, table, traced=False)
        traced = module.run(script, table, traced=True)
        base, base_lines = end_to_end(untraced, e2e_units)
        traced_e2e, traced_lines = end_to_end(traced, e2e_units)
        metrics, layer_lines = per_layer(traced, layer_units, definitions)
        mismatches = sum(a != b for a, b in zip(untraced.outputs,
                                                traced.outputs))
        mismatches += abs(len(untraced.outputs) - len(traced.outputs))
        overhead = [
            f"overhead {name} {traced_e2e[name][0] - value!r} {unit} "
            f"(traced {traced_e2e[name][0]!r}, untraced {value!r})"
            for name, (value, unit) in base.items()
        ]
        lines = (["untraced pass:"] + base_lines + ["traced pass:"]
                 + traced_lines + overhead + layer_lines
                 + [f"outputs traced vs untraced: {mismatches} differ"])
        report = {"untraced": base_lines, "traced": traced_lines,
                  "overhead": overhead, "layers": layer_lines}
        attempted = len(untraced.ops) + len(traced.ops)
        failed = untraced.failed + traced.failed + mismatches
        failures = untraced.failures + traced.failures
    for line in lines:
        print(line)
    for op, message in failures[:20]:
        print(f"FAILED op {op}: {message}")
    correct = failed == 0
    report.update(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, host=host,
                  correct=correct, attempted=attempted, failed=failed,
                  failures=[message for _op, message in failures])
    common.OUT.mkdir(parents=True, exist_ok=True)
    out = common.OUT / (f"result-{args.workload}-seed{args.seed}"
                        f"-trace{args.trace}.json")
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
