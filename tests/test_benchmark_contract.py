"""The benchmark's own code runs against this tree: no failed gate, no missing layer.

``perfbench/`` imports layer functions, report types and harness entry
points from kvldp by name.  Renaming one, changing its signature or what
it returns makes a benchmark run crash, print metrics as missing, or fail
its recomposition gate.  These tests run the benchmark's set-up, timed
unit and layer suites at small sizes, so such a change fails tier-1
first.
"""

import os
import sys
import types

import pytest

from kvldp import gen_regime, gen_synthetic, true_stats

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
SEED = 1


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, PERFBENCH)
    try:
        import layers
        import spans
        import workloads
    finally:
        sys.path.remove(PERFBENCH)
    return types.SimpleNamespace(layers=layers, spans=spans, workloads=workloads)


def test_records_io_unit_passes_its_gates(bench, tmp_path, monkeypatch):
    monkeypatch.setattr(bench.workloads, "RECORDS_N", 5000)
    tracer = bench.spans.Tracer(True)
    records = bench.workloads.RecordsIO(SEED, str(tmp_path))
    records.setup(tracer)
    totals = bench.workloads.Totals()
    records.unit(0, tracer, totals)
    assert totals.gates == []
    assert totals.failed == 0
    assert totals.attempted > 0

    out = {}
    bench.layers.records_layers(records, str(tmp_path), SEED, tracer, out)
    assert out["harness.trace_s"] > 0


def test_conditional_sweep_unit_passes_its_gates(bench, monkeypatch):
    # The workload's n, so its row-count and d=4, eps=4 tolerance gates hold as in a benchmark run.
    monkeypatch.setattr(bench.workloads, "COND_DIMS", (4, 8))
    tracer = bench.spans.Tracer(True)
    sweep = bench.workloads.ConditionalSweep(SEED, "")
    sweep.setup(tracer)
    totals = bench.workloads.Totals()
    sweep.unit(0, tracer, totals)
    assert totals.gates == []
    assert totals.failed == 0
    assert totals.attempted == 2 * len(bench.workloads.COND_EPSILONS) * bench.workloads.COND_REPS


def test_mechanism_layers_recompose_run_single(bench):
    ds = gen_synthetic("gaussian", d=20, n=5000, seed=SEED)
    protocol = types.SimpleNamespace(ds=ds, truth=true_stats(ds))
    out, missing, gates = {}, [], []
    cells = bench.layers.mechanism_layers(protocol, SEED, bench.spans.Tracer(True), out, missing, gates)
    assert gates == []
    assert missing == []
    assert cells == len(bench.layers.MECHANISMS) * bench.layers.CELL_SAMPLES


def test_conditional_layers_find_every_layer(bench):
    ds = gen_regime("high", "low", 4, 5000, seed=SEED)
    cond = types.SimpleNamespace(inputs=[(ds, bench.workloads.conditional_queries(4))],
                                 epsilons=bench.workloads.COND_EPSILONS)
    out, missing = {}, []
    cells = bench.layers.conditional_layers(cond, SEED, bench.spans.Tracer(True), out, missing)
    assert missing == []
    assert cells == bench.layers.COND_SAMPLES
    assert out["conditional.positions.d4"] == 3 ** 4
