"""The three workloads: set-up, one timed unit, and the correctness gates.

Each workload builds its inputs from the run's seed in ``setup`` and then
repeats ``unit`` while the run lasts.  Unit ``i`` draws its private
randomness from its own sub-seed, so every unit is a fresh sample of the
same work and the accuracy figures average over all units of a run.
Gates run outside the timed spans and append a message to
``totals.gates`` when they fail.
"""

from __future__ import annotations

import contextlib
import io
import math
import os

import numpy as np

from kvldp import (
    Condition,
    ExperimentConfig,
    RandomSource,
    cli,
    emit,
    gen_regime,
    gen_synthetic,
    load_dataset,
    run_conditional,
    run_single,
    run_sweep,
    summarize,
    true_conditional,
    true_stats,
)
from kvldp.harness import MECHANISMS, parse_table, soft_checks
from kvldp.mechanisms import Report, pack_reports, tally_reports, unpack_reports

import layers
from layers import SWEEP_TAG

WORKERS = 2          # nproc on the reference machine
SETUP_REPEATS = 5    # setup_s is the median of this many set-ups

# Sub-seed tags: dataset, timed unit, layer suite.
DATA, UNIT, LAYER = 0, 1, 2

# protocol-sweep: the paper's evaluation protocol at the ROADMAP's sizes.
# 5 mechanisms x 8 epsilons x 5 repetitions = the 200-cell sweep of the
# ROADMAP baseline table.
PROTOCOL_D, PROTOCOL_N, PROTOCOL_REPS = 100, 100_000, 5

# conditional-sweep.
COND_DIMS = (4, 8, 12)
COND_N = 100_000
COND_EPSILONS = (0.5, 1.0, 2.0, 4.0)
COND_REPS = 2
# Gate at eps=4, d=4: 7x the per-answer standard deviation measured over
# 1800 answers (0.013 for frequency, 0.034 for mean) plus margin.
COND_FREQ_TOLERANCE = 0.1
COND_MEAN_TOLERANCE = 0.3

# records-io: the ROADMAP's n=1e6 CLI run scaled to n=1e5; costs are per
# pair and per report, so they scale linearly.  Every key sits in the
# middle regime (frequency 0.6, mean 0), so each seed writes the same
# number of pairs and the accuracy does not hinge on a few rare keys.
RECORDS_D, RECORDS_N = 20, 100_000
RECORDS_REGIME = "middle"
RECORDS_EPSILON = 1.0
RECORDS_VBAR = 1.0   # the CLI's default f2m default value
TRACE_FILES = ("privkv", "privkv-improved", "f2m", "kvue", "kvoh")
# One trace per wire form: ternary, f2m, kvoh.
INGESTED = ("kvue", "f2m", "kvoh")


def derive(seed: int, *indices: int) -> int:
    """A 64-bit sub-seed that depends on the run's seed and the indices."""
    return RandomSource(0, seed).substream(*indices).stream_id


class Totals:
    """What the timed units of one run did: unit times, work done, accuracy, gates."""

    def __init__(self):
        self.walls = []
        self.work = {"cells": [0.0, 0.0], "pairs": [0.0, 0.0], "reports": [0.0, 0.0]}
        self.attempted = 0
        self.failed = 0
        self.freq_errors = []
        self.mean_errors = []
        self.answers = 0
        self.undefined = 0
        self.gates = []
        self.extra = {}

    def add(self, kind: str, amount: float, seconds: float):
        self.work[kind][0] += amount
        self.work[kind][1] += seconds

    def rate(self, kind: str) -> float:
        """Work per second over the whole timed phase, not per unit.

        The machine's speed drifts in periods of seconds, so a ratio over
        every unit of the run averages more of them than a median of a
        few long units would.
        """
        amount, seconds = self.work[kind]
        return amount / seconds

    def check(self, ok: bool, message: str):
        if not ok:
            self.gates.append(message)

    def add_key_errors(self, frequency, mean, defined, truth):
        """Accuracy of one cell's per-key estimates, counted as run_single counts them."""
        freq_err = np.abs(frequency - truth.frequency)
        valid = ~np.isnan(freq_err)
        if valid.any():
            self.freq_errors.append(float(freq_err[valid].mean()))
        truth_defined = ~np.isnan(truth.mean)
        usable = defined & truth_defined & ~np.isnan(mean)
        if usable.any():
            self.mean_errors.append(float(np.abs(mean[usable] - truth.mean[usable]).mean()))
        self.answers += int(truth_defined.sum())
        self.undefined += int((truth_defined & ~usable).sum())


def _quiet(argv):
    """cli.main with its stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


class ProtocolSweep:
    name = "protocol-sweep"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.ds = self.truth = None

    def setup(self, tr):
        self.ds = self.truth = None
        with tr.span("datagen.generate"):
            self.ds = gen_synthetic("gaussian", d=PROTOCOL_D, n=PROTOCOL_N,
                                    seed=derive(self.seed, DATA))
        with tr.span("datagen.true_stats"):
            self.truth = true_stats(self.ds)
        self.pairs = int((~np.isnan(self.ds.values)).sum())

    def unit(self, i: int, tr, totals: Totals):
        config = ExperimentConfig(repetitions=PROTOCOL_REPS, seed=derive(self.seed, UNIT, i),
                                  workers=WORKERS)
        rows_path = os.path.join(self.workdir, "sweep.csv")
        summary_path = os.path.join(self.workdir, "sweep.summary.csv")
        with tr.span("protocol.unit", cell=f"{self.name}/unit{i}") as unit:
            with tr.span("harness.run_sweep") as sweep:
                result = run_sweep(config, self.ds)
            with tr.span("harness.summarize"):
                summary = summarize(result.rows)
            with tr.span("harness.emit"):
                emit(result.rows, "csv", rows_path, config=config.as_dict())
                emit(summary, "csv", summary_path, config=config.as_dict())
        cells = len(result.rows)
        totals.walls.append(unit.seconds)
        totals.add("cells", cells, sweep.seconds)
        totals.add("pairs", cells * self.pairs, sweep.seconds)
        totals.add("reports", cells * self.ds.n, sweep.seconds)
        totals.attempted += cells + len(result.failures)
        totals.failed += len(result.failures)
        for row in result.rows:
            if not math.isnan(row.freq_ae):
                totals.freq_errors.append(row.freq_ae)
            if not math.isnan(row.mean_ae):
                totals.mean_errors.append(row.mean_ae)
            totals.answers += self.ds.d
            totals.undefined += row.undefined_means
        totals.extra.setdefault("cell_seconds", []).append(
            (sum(row.wall_time for row in result.rows), sweep.seconds))

        expected = len(config.mechanisms) * len(config.epsilons) * config.repetitions
        totals.check(not result.failures, f"unit {i}: failed cells {result.failures[:3]}")
        totals.check(cells == expected, f"unit {i}: {cells} rows, expected {expected}")
        violations = soft_checks(summary)
        totals.check(not violations, f"unit {i}: soft checks {violations}")
        if cells == expected:
            self._spot_check(i, config, result.rows, totals)

    def _spot_check(self, i, config, rows, totals):
        """Re-run one cell with run_single on its own substream; it must reproduce its row."""
        mi = i % len(config.mechanisms)
        ei = (3 * i + 1) % len(config.epsilons)
        rep = i % config.repetitions
        rng = RandomSource(config.seed).substream(SWEEP_TAG, mi, ei, rep).generator()
        spot = run_single(self.ds, config.mechanisms[mi], config.epsilons[ei], rng,
                          repetition=rep, default_value=config.default_value, truth=self.truth)
        row = rows[(mi * len(config.epsilons) + ei) * config.repetitions + rep]
        totals.check(spot.row.as_dict() == row.as_dict(),
                     f"unit {i}: spot cell {(mi, ei, rep)} did not reproduce its sweep row")


def conditional_queries(d: int):
    """Target k1 conditioned on kj=1 and on kj=0 for every j != 1: 2(d-1) queries."""
    return [(0, Condition.parse(f"k{j}={bit}", d)) for j in range(2, d + 1) for bit in (1, 0)]


class ConditionalSweep:
    name = "conditional-sweep"
    epsilons = COND_EPSILONS

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.inputs = []

    def setup(self, tr):
        self.inputs = []
        for d in COND_DIMS:
            with tr.span("datagen.generate"):
                ds = gen_regime("high", "low", d, COND_N, seed=derive(self.seed, DATA, d))
            queries = conditional_queries(d)
            # run_conditional recomputes its oracle; this one is the set-up cost.
            for k, cond in queries:
                with tr.span("datagen.true_conditional"):
                    true_conditional(ds, k, cond)
            self.inputs.append((ds, queries))

    def unit(self, i: int, tr, totals: Totals):
        results = []
        with tr.span("conditional.unit", cell=f"{self.name}/unit{i}") as unit:
            for ds, queries in self.inputs:
                with tr.span(f"harness.run_conditional.d{ds.d}") as call:
                    rows = run_conditional(ds, COND_EPSILONS, COND_REPS, derive(self.seed, UNIT, i),
                                           queries=queries, method="column", workers=WORKERS)
                results.append((ds, queries, rows, call.seconds))
        totals.walls.append(unit.seconds)
        cells = len(COND_DIMS) * len(COND_EPSILONS) * COND_REPS
        seconds = sum(r[3] for r in results)
        totals.add("cells", cells, seconds)
        totals.add("pairs", sum(len(COND_EPSILONS) * COND_REPS * int((~np.isnan(ds.values)).sum())
                                 for ds, _, _, _ in results), seconds)
        totals.add("reports", cells * COND_N, seconds)
        totals.attempted += cells
        for ds, queries, rows, _ in results:
            expected = len(COND_EPSILONS) * COND_REPS * len(queries)
            totals.check(len(rows) == expected, f"unit {i}: d={ds.d}: {len(rows)} rows, expected {expected}")
            for row in rows:
                for est, true, errors in (("freq_est", "freq_true", totals.freq_errors),
                                          ("mean_est", "mean_true", totals.mean_errors)):
                    totals.answers += 1
                    if math.isnan(row[est]):
                        totals.undefined += 1
                    elif not math.isnan(row[true]):
                        errors.append(abs(row[est] - row[true]))
                if ds.d == 4 and row["epsilon"] == 4.0:
                    totals.check(abs(row["freq_est"] - row["freq_true"]) <= COND_FREQ_TOLERANCE
                                 and abs(row["mean_est"] - row["mean_true"]) <= COND_MEAN_TOLERANCE,
                                 f"unit {i}: d=4 eps=4 answer outside tolerance: {row}")


class RecordsIO:
    name = "records-io"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.data_path = os.path.join(workdir, "records.csv")
        self.trace_dir = os.path.join(workdir, "traces")
        self.out_path = os.path.join(workdir, "records-run.csv")
        self.reference = self.truth = None

    def setup(self, tr):
        self.reference = self.truth = None
        with tr.span("datagen.generate"):
            self.reference = gen_regime(RECORDS_REGIME, RECORDS_REGIME, RECORDS_D, RECORDS_N,
                                        seed=derive(self.seed, DATA))
        with tr.span("datagen.true_stats"):
            self.truth = true_stats(self.reference)
        self.pairs = int((~np.isnan(self.reference.values)).sum())

    def unit(self, i: int, tr, totals: Totals):
        n, d = RECORDS_N, RECORDS_D
        generate = ["generate", "--dist", "regime", "--freq-regime", RECORDS_REGIME,
                    "--mean-regime", RECORDS_REGIME, "--d", str(d), "--n", str(n),
                    "--seed", str(derive(self.seed, DATA)), "--out", self.data_path]
        run = ["run", "--dataset", self.data_path, "--reps", "1", "--epsilon", str(RECORDS_EPSILON),
               "--seed", str(derive(self.seed, UNIT, i)), "--workers", str(WORKERS),
               "--per-key", "--trace", self.trace_dir, "--out", self.out_path]
        ingested = []
        with tr.span("records.unit", cell=f"{self.name}/unit{i}") as unit:
            with tr.span("cli.generate") as gen_span:
                gen_code, gen_err = _quiet(generate)
            with tr.span("datagen.load") as load_span:
                loaded = load_dataset(self.data_path)
            with tr.span("cli.run") as run_span:
                run_code, run_err = _quiet(run)
            for name in INGESTED:
                ingested.append((name,) + self._ingest(name, tr))
        ingest_s = sum(item[1] for item in ingested)
        totals.walls.append(gen_span.seconds + load_span.seconds + run_span.seconds + ingest_s)
        totals.add("cells", len(MECHANISMS) + len(INGESTED), run_span.seconds + ingest_s)
        totals.add("pairs", 2 * self.pairs, gen_span.seconds + load_span.seconds)
        reports = (len(TRACE_FILES) + len(INGESTED)) * n
        totals.add("reports", reports, run_span.seconds + ingest_s)
        totals.extra.setdefault("file_bytes", []).append(os.path.getsize(self.data_path))
        totals.extra.setdefault("packed_bytes", []).append(sum(item[-1] for item in ingested))

        totals.check(gen_code == 0 and run_code == 0,
                     f"unit {i}: cli exit codes {gen_code}, {run_code}: {gen_err}{run_err}")
        totals.check("cell-failure" not in run_err, f"unit {i}: {run_err.strip()}")
        self._check_dataset(i, loaded, totals)
        for name in TRACE_FILES:
            with open(os.path.join(self.trace_dir, f"{name}.txt")) as handle:
                lines = sum(1 for _ in handle)
            totals.check(lines == n, f"unit {i}: trace {name} has {lines} lines, expected {n}")
        _, rows = parse_table(self.out_path)
        totals.check(len(rows) == len(MECHANISMS), f"unit {i}: run wrote {len(rows)} rows")
        totals.attempted += len(MECHANISMS) + len(INGESTED)
        totals.failed += max(0, len(MECHANISMS) - len(rows))
        for row in rows:
            if not math.isnan(row["freq_ae"]):
                totals.freq_errors.append(row["freq_ae"])
            if not math.isnan(row["mean_ae"]):
                totals.mean_errors.append(row["mean_ae"])
            totals.answers += d
            totals.undefined += row["undefined_means"]
        for name, _, round_trip, estimates, _ in ingested:
            totals.check(round_trip, f"unit {i}: {name}: parsed tally differs from the packed round trip")
            totals.add_key_errors(*estimates, self.truth)

    def _ingest(self, name, tr):
        """Aggregator side of one wire form: parse, pack, unpack, tally, decode.

        Returns the seconds the five stages took, whether the parsed lines
        tally the same as their pack/unpack round trip (checked after the
        timed stages, so no parsed report outlives this call), the
        estimates and the packed size.
        """
        path = os.path.join(self.trace_dir, f"{name}.txt")
        with tr.span("mechanisms.parse") as parse:
            with open(path) as handle:
                reports = [Report.from_line(line) for line in handle]
        with tr.span("mechanisms.pack") as pack:
            packed = pack_reports(reports, RECORDS_D)
        with tr.span("mechanisms.unpack") as unpack:
            unpacked = unpack_reports(packed, reports[0].mechanism, len(reports), RECORDS_D)
        with tr.span("mechanisms.tally_reports") as tally:
            tallied = tally_reports(unpacked, RECORDS_D)
        with tr.span("mechanisms.decode") as decode:
            estimates = layers.decode(name, tallied, RECORDS_EPSILON, RECORDS_VBAR)
        seconds = sum(span.seconds for span in (parse, pack, unpack, tally, decode))
        round_trip = all(np.array_equal(a, b) for a, b in
                         zip(_parts(tally_reports(reports, RECORDS_D)), _parts(tallied)))
        return seconds, round_trip, estimates, len(packed)

    def _check_dataset(self, i, loaded, totals):
        """load_dataset must return the generated matrix bit for bit, NaN pattern included."""
        ref = self.reference.values
        got = loaded.values
        same_shape = got.shape == ref.shape
        absent = np.isnan(ref)
        same = (same_shape and np.array_equal(absent, np.isnan(got))
                and np.array_equal(ref[~absent].view(np.uint64), got[~absent].view(np.uint64)))
        totals.check(same, f"unit {i}: loaded dataset differs from the generated matrix")


def _parts(tallied):
    return tallied if isinstance(tallied, tuple) else (tallied,)


WORKLOADS = {cls.name: cls for cls in (ProtocolSweep, ConditionalSweep, RecordsIO)}
