"""Experiment runner: budget sweeps, repetitions, error metrics, and output.

Every experiment is a grid of cells over one dataset, run by one grid
runner: the sweep over (mechanism, epsilon, repetition), the conditional
experiment over (epsilon, repetition) and the f2m default-value study
over (epsilon, default value, repetition).  Every cell derives its own
random stream from the master seed and the cell coordinates, so results
are identical no matter how many workers the grid is spread over, and
output files are byte-for-byte reproducible.  A cell that raises is
recorded as a failure and the rest of the grid still runs.

Errors are reported as AE (absolute error, averaged over keys) and MSE
against the exact ground truth of the dataset; mean estimates that come
back undefined are counted separately instead of polluting the averages.
Per-cell wall time is collected but kept out of emitted files unless
explicitly requested, since timing would break reproducible output.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import re
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .conditional import (
    IOH_DIMENSION_CAP,
    Condition,
    Lumping,
    QueryPlan,
    query_classes,
)
from .core import DomainError, RandomSource, atomic_writer, ensure_generator
from .datagen import Dataset, GroundTruth, true_conditionals, true_stats
from .mechanisms import PAYLOADS, PROTOCOLS, code_table

MECHANISMS = tuple(PROTOCOLS)
DEFAULT_EPSILON_GRID = (0.1, 0.2, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0)
DEFAULT_VBAR_GRID = (-1.0, -0.5, 0.0, 0.5, 1.0)

# Stream-id tags keeping the sweep, conditional, and default-value
# experiments on disjoint substreams of the master seed.
_SWEEP_TAG = 1
_COND_TAG = 2
_STUDY_TAG = 3


class ConfigError(ValueError):
    """An experiment configuration is inconsistent or incomplete."""


def _check_grid(epsilons, repetitions, workers) -> tuple:
    """Check the settings every experiment shares; returns the epsilons as floats."""
    if isinstance(epsilons, (str, bytes)):  # iterating text would read each character as an epsilon
        raise ConfigError(f"epsilons must be a sequence of positive finite reals, not text: {epsilons!r}")
    try:
        epsilons = tuple(float(e) for e in epsilons)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"epsilons must be positive finite reals, got {epsilons!r}") from exc
    if not epsilons or any(not (math.isfinite(e) and e > 0) for e in epsilons):
        raise ConfigError(f"epsilons must be positive finite reals, got {epsilons}")
    for name, count in (("repetitions", repetitions), ("workers", workers)):
        if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or not 1 <= count <= sys.maxsize:
            raise ConfigError(f"{name} must be an integer from 1 to {sys.maxsize}, got {count!r}")
    return epsilons


def check_mechanisms(names) -> list:
    """The registry entries behind names; ConfigError naming every name not in MECHANISMS."""
    unknown = [m for m in names if m not in MECHANISMS]
    if unknown:
        raise ConfigError(f"unknown mechanisms {unknown}; choose from {list(MECHANISMS)}")
    return [PROTOCOLS[m] for m in names]


def check_format(fmt) -> str:
    """fmt itself; ConfigError unless it is an output format emit writes."""
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unknown output format {fmt!r}; choose csv or json")
    return fmt


@dataclass(frozen=True)
class ExperimentConfig:
    mechanisms: tuple = MECHANISMS
    epsilons: tuple = DEFAULT_EPSILON_GRID
    repetitions: int = 50
    seed: int = 0
    default_value: float = 1.0
    workers: int = 1

    def __post_init__(self):
        object.__setattr__(self, "mechanisms", tuple(self.mechanisms))
        if not self.mechanisms:
            raise ConfigError("at least one mechanism is required")
        check_mechanisms(self.mechanisms)
        object.__setattr__(self, "epsilons", _check_grid(self.epsilons, self.repetitions, self.workers))
        if not -1.0 <= self.default_value <= 1.0:
            raise ConfigError(f"default value must lie in [-1, 1], got {self.default_value}")

    def as_dict(self) -> dict:
        # workers is an execution detail with no effect on results, so it is
        # kept out of emitted headers to preserve byte-identical outputs.
        return {
            "mechanisms": list(self.mechanisms),
            "epsilons": list(self.epsilons),
            "repetitions": self.repetitions,
            "seed": self.seed,
            "default_value": self.default_value,
        }


@dataclass(frozen=True)
class MetricRow:
    mechanism: str
    epsilon: float
    repetition: int
    freq_ae: float
    freq_mse: float
    mean_ae: float
    mean_mse: float
    undefined_means: int
    wall_time: float

    def as_dict(self, timing: bool = False) -> dict:
        row = {
            "mechanism": self.mechanism,
            "epsilon": self.epsilon,
            "repetition": self.repetition,
            "freq_ae": self.freq_ae,
            "freq_mse": self.freq_mse,
            "mean_ae": self.mean_ae,
            "mean_mse": self.mean_mse,
            "undefined_means": self.undefined_means,
        }
        if timing:
            row["wall_time"] = self.wall_time
        return row


class SingleRun(NamedTuple):
    frequency: np.ndarray
    mean: np.ndarray
    mean_defined: np.ndarray
    row: MetricRow


class SweepResult(NamedTuple):
    rows: list
    per_key_rows: list
    failures: list


def estimate_population(values: np.ndarray, mechanism: str, epsilon: float, rng,
                        default_value: float = 1.0):
    """Encode every user, aggregate by sampled key, decode.

    Returns (frequency, mean, mean_defined) arrays of length d.  Keys that
    received no reports get NaN frequency.
    """
    entry = check_mechanisms([mechanism])[0]
    encoded = entry.encode(values, epsilon, default_value, ensure_generator(rng))
    table = code_table(entry.mechanism, encoded.key_index, encoded.codes, values.shape[1])
    return entry.decode(table, epsilon, default_value)


def _ae_mse(errors) -> tuple:
    """(mean, mean square) of absolute errors; NaN for none."""
    return (float(errors.mean()), float((errors ** 2).mean())) if errors.size else (math.nan, math.nan)


def _error_metrics(frequency, mean, defined, truth: GroundTruth):
    freq_err = np.abs(frequency - truth.frequency)
    truth_defined = ~np.isnan(truth.mean)
    usable = defined & truth_defined & ~np.isnan(mean)
    undefined = int((truth_defined & ~usable).sum())
    freq_ae, freq_mse = _ae_mse(freq_err[~np.isnan(freq_err)])
    mean_ae, mean_mse = _ae_mse(np.abs(mean[usable] - truth.mean[usable]))
    return freq_ae, freq_mse, mean_ae, mean_mse, undefined


def run_single(ds: Dataset, mechanism: str, epsilon: float, rng, repetition: int = 0,
               default_value: float = 1.0, truth: GroundTruth = None) -> SingleRun:
    """One encode/aggregate/decode pass over the dataset plus its metric row."""
    if truth is None:
        truth = true_stats(ds)
    start = time.perf_counter()
    frequency, mean, defined = estimate_population(ds.values, mechanism, epsilon, rng, default_value)
    elapsed = time.perf_counter() - start
    freq_ae, freq_mse, mean_ae, mean_mse, undefined = _error_metrics(frequency, mean, defined, truth)
    row = MetricRow(mechanism, float(epsilon), int(repetition), freq_ae, freq_mse,
                    mean_ae, mean_mse, undefined, elapsed)
    return SingleRun(frequency, mean, defined, row)


def _run_grid(tag: int, seed: int, axes: dict, work, workers: int):
    """Run work(rng, cell, *labels) on every cell of a grid; returns (results, failures).

    axes maps each axis name to its labels, outermost axis first, and the
    cells run in row-major order; cell is the tuple of a cell's indices
    along the axes.  A cell draws from the substream
    (tag, *cell indices) of the master seed, never from a shared stream,
    so results do not depend on the number of workers.  results holds what
    the cells that completed returned, in grid order; failures holds one
    dict per cell that raised: its axis labels plus "error".
    """
    root = RandomSource(seed)
    cells = itertools.product(*(range(len(labels)) for labels in axes.values()))
    # pool.map submits every cell at once: no more threads than cells or than CPUs this process may use.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(workers, math.prod(map(len, axes.values())), cpus)

    def attempt(cell):
        labels = [axis[i] for axis, i in zip(axes.values(), cell)]
        try:
            return labels, work(root.substream(tag, *cell).generator(), cell, *labels)
        except Exception as exc:  # recorded per cell, the grid continues
            return labels, exc

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(attempt, cells))
    else:
        outcomes = list(map(attempt, cells))
    failures = [{**dict(zip(axes, labels)), "error": f"{type(outcome).__name__}: {outcome}"}
                for labels, outcome in outcomes if isinstance(outcome, Exception)]
    return [outcome for _, outcome in outcomes if not isinstance(outcome, Exception)], failures


def run_sweep(config: ExperimentConfig, ds: Dataset, per_key: bool = False) -> SweepResult:
    """Run the mechanisms x epsilons x repetitions grid over one dataset.

    Rows come in grid order (mechanism, epsilon, repetition).  A cell that
    raises is recorded in failures and the rest of the grid still runs.
    """
    truth = true_stats(ds)

    def work(rng, _cell, mechanism, epsilon, rep):
        return run_single(ds, mechanism, epsilon, rng, repetition=rep,
                          default_value=config.default_value, truth=truth)

    axes = {"mechanism": config.mechanisms, "epsilon": config.epsilons,
            "repetition": range(config.repetitions)}
    runs, failures = _run_grid(_SWEEP_TAG, config.seed, axes, work, config.workers)
    per_key_rows = [
        {"mechanism": run.row.mechanism, "epsilon": run.row.epsilon, "repetition": run.row.repetition,
         "key": key, "freq_est": float(run.frequency[key]), "freq_true": float(truth.frequency[key]),
         "mean_est": float(run.mean[key]), "mean_true": float(truth.mean[key])}
        for run in (runs if per_key else ()) for key in range(ds.d)
    ]
    return SweepResult([run.row for run in runs], per_key_rows, failures)


_BOX_STATISTICS = ("min", "q1", "median", "q3", "max", "mean")


def _box_statistics(name: str, samples) -> dict:
    """{name_min, name_q1, name_median, name_q3, name_max, name_mean} of samples, NaNs dropped."""
    samples = np.asarray(samples, dtype=np.float64)
    valid = samples[~np.isnan(samples)]
    if valid.size == 0:
        values = [math.nan] * len(_BOX_STATISTICS)
    else:
        values = np.percentile(valid, [0, 25, 50, 75, 100]).tolist() + [float(valid.mean())]
    return {f"{name}_{statistic}": value for statistic, value in zip(_BOX_STATISTICS, values)}


def _box_summary(rows, keys, box=(), means=(), sums=()) -> list:
    """One summary row per distinct value of the keys columns, in order of first appearance.

    A summary row holds the keys, the group size as "repetitions", the box
    statistics of every box column, the NaN-free mean of every means
    column (as column_mean) and the sum of every sums column.
    """
    groups = {}
    for row in rows:
        groups.setdefault(tuple(row[key] for key in keys), []).append(row)
    summary = []
    for values, group in groups.items():
        cell = dict(zip(keys, values), repetitions=len(group))
        for column in box:
            cell.update(_box_statistics(column, [r[column] for r in group]))
        for column in means:
            cell[f"{column}_mean"] = _box_statistics(column, [r[column] for r in group])[f"{column}_mean"]
        for column in sums:
            cell[column] = sum(r[column] for r in group)
        summary.append(cell)
    return summary


def summarize(rows) -> list:
    """Box-plot statistics per (mechanism, epsilon) cell over repetitions."""
    return _box_summary(rows_to_dicts(rows), ("mechanism", "epsilon"), box=("freq_ae", "mean_ae"),
                        means=("freq_mse", "mean_mse"), sums=("undefined_means",))


def soft_checks(summary) -> list:
    """Non-fatal consistency checks over a sweep summary; returns violation messages.

    Checks that more budget does not hurt (median frequency AE at the
    largest epsilon is at most that at the smallest) and that mean
    estimation is the harder task (median mean AE at least median
    frequency AE for epsilon <= 2).
    """
    messages = []
    by_mechanism = {}
    for cell in summary:
        by_mechanism.setdefault(cell["mechanism"], []).append(cell)
    for mechanism, cells in by_mechanism.items():
        lo = min(cells, key=lambda c: c["epsilon"])
        hi = max(cells, key=lambda c: c["epsilon"])
        if hi["freq_ae_median"] > lo["freq_ae_median"]:
            messages.append(
                f"{mechanism}: median frequency AE at eps={hi['epsilon']:g} "
                f"({hi['freq_ae_median']:.4g}) exceeds that at eps={lo['epsilon']:g} "
                f"({lo['freq_ae_median']:.4g})"
            )
        for cell in cells:
            if cell["epsilon"] <= 2.0 and not math.isnan(cell["mean_ae_median"]):
                if cell["mean_ae_median"] < cell["freq_ae_median"]:
                    messages.append(
                        f"{mechanism} eps={cell['epsilon']:g}: median mean AE "
                        f"({cell['mean_ae_median']:.4g}) below median frequency AE "
                        f"({cell['freq_ae_median']:.4g})"
                    )
    return messages


def key_sampling_tolerance(frequency: float, d: int, n: int) -> float:
    """Three sigmas of pure key-sampling noise: each key draws about n/d reports."""
    return 3.0 * math.sqrt(frequency * (1.0 - frequency) * d / n)


# ---------------------------------------------------------------------------
# Conditional experiments
# ---------------------------------------------------------------------------


def condition_text(cond: Condition) -> str:
    parts = [f"k{key + 1}={cond.beta[key]}" for key in range(cond.d) if cond.alpha[key]]
    return ",".join(parts)


def default_conditional_queries(d: int) -> list:
    """The standard 2-way query: target key 1 conditioned on key 2 being present."""
    if d < 2:
        return [(0, Condition.empty(d))]
    return [(0, Condition.parse("k2=1", d))]


class ConditionalRows(list):
    """run_conditional's row dicts in grid order.

    .failures lists the cells that raised; .aggregate is the aggregate of
    cell (epsilons[0], repetition 0), or None when that cell failed.
    """

    def __init__(self, rows, failures, aggregate):
        super().__init__(rows)
        self.failures = failures
        self.aggregate = aggregate


def run_conditional(ds: Dataset, epsilons, repetitions: int, seed: int, queries=None,
                    method: str = "column", workers: int = 1, full_partition: bool = False) -> ConditionalRows:
    """Compare the private conditional pipeline against the exact oracle.

    Per (epsilon, repetition): encode the full population with the
    full-record one-hot mechanism, calibrate, and answer every query;
    rows carry both the private estimates and the oracle values.  A cell
    draws the atom sums of query_classes' partition, with the rows' exact
    joint law; full_partition draws all 3^d positions, so that cell 0's
    aggregate is the full vector save_aggregate writes.  queries, any
    iterable of (k, cond), is read once; the oracle, the Lumping and the
    QueryPlan are built once per call.  A cell that raises
    leaves no rows and is recorded in failures.  method must be "column".
    """
    if ds.d > IOH_DIMENSION_CAP:
        raise ConfigError(f"dataset dimension {ds.d} exceeds the one-hot cap of {IOH_DIMENSION_CAP}")
    epsilons = _check_grid(epsilons, repetitions, workers)
    if method != "column":
        raise ConfigError(f"unknown simulation method {method!r}; choose column")
    queries = list(queries) if queries is not None else default_conditional_queries(ds.d)
    if not queries:
        raise ConfigError("at least one conditional query is required")
    oracle = true_conditionals(ds, queries)
    lumping = Lumping(ds.values, None if full_partition else query_classes(queries, ds.d))
    plan = QueryPlan(queries, lumping.classes)
    query_fields = [(f"k{k + 1}", condition_text(cond), *truth) for (k, cond), truth in zip(queries, oracle)]
    first = []  # cell (0, 0)'s aggregate, once that cell has answered every query

    def work(rng, cell, epsilon, rep):
        agg = lumping.draw(epsilon, rng)
        cell_rows = [{
            "d": ds.d, "epsilon": epsilon, "repetition": rep, "target": target, "condition": condition,
            "freq_est": est_freq, "freq_true": true_freq, "freq_ae": abs(est_freq - true_freq),
            "mean_est": est_mean, "mean_true": true_mean, "mean_ae": abs(est_mean - true_mean),
        } for (target, condition, true_freq, true_mean), (est_freq, est_mean) in zip(query_fields, plan.answers(agg))]
        if cell == (0, 0):
            first.append(agg)
        return cell_rows

    axes = {"epsilon": epsilons, "repetition": range(repetitions)}
    cells, failures = _run_grid(_COND_TAG, seed, axes, work, workers)
    return ConditionalRows([row for cell_rows in cells for row in cell_rows], failures, first[0] if first else None)


# ---------------------------------------------------------------------------
# Default-value study
# ---------------------------------------------------------------------------


class StudyResult(NamedTuple):
    detail: list
    summary: list
    failures: list


def default_value_study(ds: Dataset, vbars=DEFAULT_VBAR_GRID, epsilons=(0.5, 1.0),
                        repetitions: int = 50, seed: int = 0, workers: int = 1) -> StudyResult:
    """Sweep the f2m default value over a grid at fixed budgets.

    The detail rows are f2m metric rows plus their default value; the
    summary aggregates mean AE per (epsilon, default value) so the spread
    across default values can be compared directly.  A cell that raises
    is recorded in failures and the rest of the grid still runs.
    """
    epsilons = _check_grid(epsilons, repetitions, workers)
    vbars = [float(v) for v in vbars]
    if not vbars or any(not -1.0 <= v <= 1.0 for v in vbars):
        raise ConfigError(f"default values must lie in [-1, 1], got {vbars}")
    truth = true_stats(ds)

    def work(rng, _cell, epsilon, vbar, rep):
        row = run_single(ds, "f2m", epsilon, rng, repetition=rep, default_value=vbar, truth=truth).row.as_dict()
        row["vbar"] = vbar
        return row

    axes = {"epsilon": epsilons, "vbar": vbars, "repetition": range(repetitions)}
    detail, failures = _run_grid(_STUDY_TAG, seed, axes, work, workers)
    summary = _box_summary(detail, ("epsilon", "vbar"), box=("mean_ae",), means=("freq_ae",))
    return StudyResult(detail, summary, failures)


def default_value_spread_ratio(summary) -> dict:
    """Max/min ratio of the average mean AE across default values, per epsilon."""
    by_epsilon = {}
    for cell in summary:
        by_epsilon.setdefault(cell["epsilon"], []).append(cell["mean_ae_mean"])
    return {eps: max(v) / min(v) for eps, v in by_epsilon.items()}


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def rows_to_dicts(rows, timing: bool = False) -> list:
    return [row.as_dict(timing=timing) if isinstance(row, MetricRow) else dict(row) for row in rows]


def _format_cell(value) -> str:
    if isinstance(value, (int, np.integer, np.bool_)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "nan" if math.isnan(value) else "%.6g" % value
    return str(value)


def _json_cell(value):
    if isinstance(value, (int, np.integer, np.bool_)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return None if math.isnan(value) else float("%.6g" % value)
    return str(value)


def emit(rows, fmt: str, path, config: dict = None):
    """Write rows (a list of uniform dicts) as csv or json.

    Column order follows the first row; floats carry 6 significant digits;
    the header embeds the config for reproducibility.  Output is
    byte-deterministic for identical inputs, and replaces path atomically.
    """
    rows = rows_to_dicts(rows) if rows and isinstance(rows[0], MetricRow) else [dict(r) for r in rows]
    if not rows:
        raise DomainError("refusing to emit an empty table")
    columns = list(rows[0].keys())
    for row in rows:
        if list(row.keys()) != columns:
            raise DomainError("rows disagree on columns")
    check_format(fmt)
    if fmt == "csv":
        buffer = io.StringIO()
        if config is not None:
            buffer.write("# kvldp " + json.dumps(config, sort_keys=True) + "\n")
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(row[c]) for c in columns])
        payload = buffer.getvalue()
    else:
        document = {
            "config": config,
            "columns": columns,
            "rows": [[_json_cell(row[c]) for c in columns] for row in rows],
        }
        payload = json.dumps(document, sort_keys=True, indent=1) + "\n"
    with atomic_writer(path) as handle:
        handle.write(payload)


_INT_PATTERN = re.compile(r"^-?\d+$")


def _parse_cell(text: str):
    if _INT_PATTERN.match(text):
        return int(text)
    try:
        return float(text)
    except ValueError:
        return text


def parse_table(path):
    """Read back an emitted table as (config or None, row dicts); DomainError naming the file if it is none."""
    try:
        with open(path, encoding="utf-8") as handle:
            content = handle.read()
        if content.lstrip().startswith("{"):
            document = json.loads(content)
            columns = document["columns"]
            rows = [
                {c: (math.nan if cell is None else cell) for c, cell in zip(columns, row)}
                for row in document["rows"]
            ]
            return document.get("config"), rows
        config = None
        lines = content.splitlines()
        start = 0
        if lines and lines[0].startswith("# kvldp "):
            config = json.loads(lines[0][len("# kvldp "):])
            start = 1
        reader = csv.reader(lines[start:])
        header = next(reader)
        rows = [{c: _parse_cell(cell) for c, cell in zip(header, row)} for row in reader if row]
        return config, rows
    except (ValueError, KeyError, TypeError, StopIteration, RecursionError, csv.Error) as exc:
        raise DomainError(f"{path}: not an emitted kvldp table: {exc!r}") from exc


def population_report_lines(mechanism: str, encoded) -> list:
    """Render a population encoding as wire-format report lines.

    Every line is drawn from a table over (key, payload) indexed by
    key * |payloads| + payload code, so only that table is formatted.
    """
    name = check_mechanisms([mechanism])[0].mechanism
    texts = PAYLOADS[name].texts
    key_index = np.asarray(encoded.key_index, dtype=np.int64)
    keys = int(key_index.max()) + 1 if key_index.size else 0
    table = [f"{name.value},{key},{text}" for key in range(keys) for text in texts]
    return list(map(table.__getitem__, (key_index * len(texts) + encoded.codes).tolist()))


def write_trace(path, mechanism: str, ds: Dataset, epsilon: float, rng,
                default_value: float = 1.0):
    """Encode the population once and write one wire-format line per report, atomically."""
    encoded = check_mechanisms([mechanism])[0].encode(ds.values, epsilon, default_value, ensure_generator(rng))
    lines = population_report_lines(mechanism, encoded)
    with atomic_writer(path) as handle:
        if lines:
            handle.write("\n".join(lines))
            handle.write("\n")
