"""kvldp benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload protocol-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; kvldp is imported from its ``src``
directory, never from an installed copy.  ``--trace 0`` sets up the
workload several times, repeats its timed unit for ``--seconds`` and
reports the end-to-end metrics.  ``--trace 1`` records spans, measures
the tracing overhead on the workload's own unit and reports the
per-layer metrics, which come from every layer of the program.  The last
line of standard output is the JSON result; the lines before it give
the environment and every metric by name with its unit.  Scratch files
go under ``.perfbench_out/`` in the checkout and spans of a traced run
are written there when it ends.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")


def import_program():
    """Put the checkout's sources first on the path; refuse to run without them."""
    if not os.path.isfile(os.path.join(SRC, "kvldp", "__init__.py")):
        sys.exit(f"perfbench: no kvldp sources under {SRC}")
    sys.path.insert(0, SRC)
    import kvldp

    if not os.path.abspath(kvldp.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported kvldp from {kvldp.__file__}, not from {SRC}")


import_program()

import numpy as np  # noqa: E402

import layers  # noqa: E402
from spans import Tracer, median, span_cost  # noqa: E402
from workloads import (  # noqa: E402
    LAYER,
    SETUP_REPEATS,
    WORKERS,
    WORKLOADS,
    Totals,
    derive,
)


def environment(seed: int) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    philox = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "bit_generator": type(philox).__name__,
        # First word of Philox(key=0): changes if the stream the program draws from changes.
        "bit_generator_first_word": int(philox.random_raw()),
        "workers": WORKERS,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_units(workload, tracer, totals, seconds):
    """Repeat the timed unit until the run has lasted `seconds` (at least once)."""
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        workload.unit(i, tracer, totals)
        i += 1


def end_to_end(name, seed, seconds, workdir):
    tracer = Tracer(False)
    workload = WORKLOADS[name](seed, workdir)
    setup_s = []
    for _ in range(SETUP_REPEATS):
        with tracer.span("setup") as span:
            workload.setup(tracer)
        setup_s.append(span.seconds)
    totals = Totals()
    run_units(workload, tracer, totals, seconds)
    metrics = {
        "setup_s": median(setup_s),
        "wall_s": median(totals.walls),
        "cells_per_s": totals.rate("cells"),
        "pairs_per_s": totals.rate("pairs"),
        "reports_per_s": totals.rate("reports"),
        "peak_rss_mb": peak_rss_mb(),
        "freq_ae": float(np.mean(totals.freq_errors)),
        "mean_ae": float(np.mean(totals.mean_errors)),
        "defined_ratio": 1.0 - totals.undefined / totals.answers,
    }
    report = {
        "units": len(totals.walls),
        "failed_ratio": totals.failed / totals.attempted,
        "undefined_ratio": totals.undefined / totals.answers,
    }
    return metrics, report, totals.attempted, totals.failed, totals.gates


def traced(name, seed, seconds, workdir):
    """Spans over every workload's unit plus the layer suite; overhead on the named workload."""
    tracer = Tracer(True)
    workloads = {}
    for wname, cls in WORKLOADS.items():
        workloads[wname] = cls(seed, workdir)
        with tracer.span("setup", cell=f"{wname}/setup"):
            workloads[wname].setup(tracer)
    totals = {wname: Totals() for wname in WORKLOADS}

    # Tracing overhead: untraced and traced units of the named workload, alternating.
    own, untraced = workloads[name], Totals()
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        own.unit(2 * i, Tracer(False), untraced)
        own.unit(2 * i + 1, tracer, totals[name])
        i += 1
    for wname, workload in workloads.items():
        if wname != name:
            workload.unit(0, tracer, totals[wname])

    out, missing, gates = {}, [], []
    layer_seed = derive(seed, LAYER)
    cells = layers.mechanism_layers(workloads["protocol-sweep"], layer_seed, tracer, out, missing, gates)
    cells += layers.conditional_layers(workloads["conditional-sweep"], layer_seed, tracer, out, missing)
    layers.records_layers(workloads["records-io"], workdir, layer_seed, tracer, out)

    def self_median(span, cell="", scale=1.0):
        values = tracer.self_seconds(span, cell)
        if values:
            return median(values) * scale
        missing.append(span)
        return None

    def per_unit_sum(span, cell):
        by_cell = {}
        for s, t in zip(tracer.spans, tracer.self_times()):
            if s.name == span and str(s.cell).startswith(cell):
                by_cell[s.cell] = by_cell.get(s.cell, 0.0) + t
        return median(list(by_cell.values())) if by_cell else None

    protocol, records = totals["protocol-sweep"], totals["records-io"]
    out["harness.parallel_efficiency"] = median(
        [busy / (WORKERS * wall) for busy, wall in protocol.extra["cell_seconds"]])
    out["harness.summarize_ms"] = self_median("harness.summarize", scale=1e3)
    out["harness.emit_ms"] = self_median("harness.emit", scale=1e3)
    out["datagen.generate_s"] = self_median("datagen.generate", "protocol-sweep/setup")
    out["datagen.true_stats_s"] = self_median("datagen.true_stats", "protocol-sweep/setup")
    out["datagen.true_conditional_ms"] = self_median("datagen.true_conditional", scale=1e3)
    out["datagen.save_s"] = self_median("datagen.save")
    out["datagen.load_s"] = self_median("datagen.load", "records-io/unit")
    out["datagen.pairs"] = workloads["records-io"].pairs
    out["datagen.file_bytes"] = median(records.extra["file_bytes"])
    out["cli.generate_s"] = self_median("cli.generate")
    out["cli.run_s"] = self_median("cli.run")
    for layer in ("parse", "pack", "unpack", "tally_reports"):
        out[f"mechanisms.{layer}_s"] = per_unit_sum(f"mechanisms.{layer}", "records-io/unit")
    out["mechanisms.packed_bytes"] = median(records.extra["packed_bytes"])
    out["trace.overhead_s"] = median(totals[name].walls) - median(untraced.walls)
    out["trace.span_cost_us"] = median([span_cost() for _ in range(5)]) * 1e6

    attempted = untraced.attempted + cells + sum(t.attempted for t in totals.values())
    failed = untraced.failed + sum(t.failed for t in totals.values())
    gates += untraced.gates + [g for t in totals.values() for g in t.gates]
    report = {"missing": missing, "overhead_units": i}
    return {k: v for k, v in out.items() if v is not None}, report, attempted, failed, gates, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="kvldp benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    env = environment(args.seed)
    try:
        if args.trace:
            measured, report, attempted, failed, gates, tracer = traced(
                args.workload, args.seed, args.seconds, workdir)
            spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
            tracer.write(spans_path, env)
            report["spans"] = os.path.relpath(spans_path, ROOT)
        else:
            measured, report, attempted, failed, gates = end_to_end(
                args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    for entry in declared:
        if entry["name"] in measured:
            value = float(measured[entry["name"]])
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
            print(f"{entry['name']:<44} {value:>16.6g} {entry['unit']}")
    for key, value in report.items():
        print(f"{key:<44} {value}")
    print("env " + json.dumps(env, sort_keys=True))
    for message in gates:
        print(f"gate failed: {message}")
    absent = [e["name"] for e in declared if e["name"] not in metrics]
    if absent:
        print(f"missing metrics: {absent}")
    correct = not gates and not (absent and not args.trace)
    print(json.dumps({"correct": correct, "attempted": int(attempted), "failed": int(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
