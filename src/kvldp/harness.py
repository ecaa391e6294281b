"""Experiment runner: budget sweeps, repetitions, error metrics, and output.

A sweep is a grid of (mechanism, epsilon, repetition) cells over one
dataset.  Every cell derives its own random stream from the master seed
and the cell coordinates, so results are identical no matter how many
workers the grid is spread over, and output files are byte-for-byte
reproducible.

Errors are reported as AE (absolute error, averaged over keys) and MSE
against the exact ground truth of the dataset; mean estimates that come
back undefined are counted separately instead of polluting the averages.
Per-cell wall time is collected but kept out of emitted files unless
explicitly requested, since timing would break reproducible output.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .conditional import (
    IOH_DIMENSION_CAP,
    Condition,
    aggregate_from_bit_sums,
    conditional_frequency,
    conditional_mean,
    simulate_ioh_bit_sums,
)
from .core import DomainError, PrivacyBudget, RandomSource, atomic_writer, ensure_generator
from .datagen import Dataset, GroundTruth, true_conditional, true_stats
from .mechanisms import (
    PAYLOADS,
    Mechanism,
    f2m_decode_array,
    f2m_encode_population,
    kvoh_decode_array,
    kvoh_encode_population,
    kvue_decode_array,
    kvue_encode_population,
    lpp_encode_population,
    privkv_decode_improved_array,
    privkv_decode_original_array,
    stats_from_estimates,
    tally_f2m,
    tally_kvoh,
    tally_ternary,
    wire_codes,
)

MECHANISMS = ("privkv", "privkv-improved", "f2m", "kvue", "kvoh")
DEFAULT_EPSILON_GRID = (0.1, 0.2, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0)
DEFAULT_VBAR_GRID = (-1.0, -0.5, 0.0, 0.5, 1.0)

# Stream-id tags keeping the sweep, conditional, and default-value
# experiments on disjoint substreams of the master seed.
_SWEEP_TAG = 1
_COND_TAG = 2
_STUDY_TAG = 3


class ConfigError(ValueError):
    """An experiment configuration is inconsistent or incomplete."""


def _check_workers(workers: int):
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")


def check_mechanisms(names):
    """Raise ConfigError naming every entry of names that is not one of MECHANISMS."""
    unknown = [m for m in names if m not in MECHANISMS]
    if unknown:
        raise ConfigError(f"unknown mechanisms {unknown}; choose from {list(MECHANISMS)}")


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
        object.__setattr__(self, "epsilons", tuple(float(e) for e in self.epsilons))
        if not self.mechanisms:
            raise ConfigError("at least one mechanism is required")
        check_mechanisms(self.mechanisms)
        if not self.epsilons or any(not (math.isfinite(e) and e > 0) for e in self.epsilons):
            raise ConfigError(f"epsilons must be positive finite reals, got {self.epsilons}")
        if self.repetitions < 1:
            raise ConfigError(f"repetitions must be at least 1, got {self.repetitions}")
        if not -1.0 <= self.default_value <= 1.0:
            raise ConfigError(f"default value must lie in [-1, 1], got {self.default_value}")
        _check_workers(self.workers)

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


def _encode_population(values: np.ndarray, mechanism: str, epsilon: float, g, default_value: float):
    """Run the population encoder behind a mechanism name; privkv-improved encodes as privkv."""
    if mechanism in ("privkv", "privkv-improved"):
        return lpp_encode_population(values, PrivacyBudget.split(epsilon), g)
    if mechanism == "f2m":
        return f2m_encode_population(values, PrivacyBudget.split(epsilon), default_value, g)
    if mechanism == "kvue":
        return kvue_encode_population(values, epsilon, g)
    if mechanism == "kvoh":
        return kvoh_encode_population(values, epsilon, g)
    raise ConfigError(f"unknown mechanism {mechanism!r}; choose from {list(MECHANISMS)}")


def estimate_population(values: np.ndarray, mechanism: str, epsilon: float, rng,
                        default_value: float = 1.0):
    """Encode every user, aggregate by sampled key, decode.

    Returns (frequency, mean, mean_defined) arrays of length d.  Keys that
    received no reports get NaN frequency.
    """
    d = values.shape[1]
    encoded = _encode_population(values, mechanism, epsilon, ensure_generator(rng), default_value)
    if mechanism == "f2m":
        ones, totals, pos, neg = tally_f2m(encoded.key_index, encoded.key_bits, encoded.signs, d)
        return f2m_decode_array(ones, totals, pos, neg, PrivacyBudget.split(epsilon), default_value)
    if mechanism == "kvoh":
        sums, totals = tally_kvoh(encoded.key_index, encoded.bits, d)
        return stats_from_estimates(kvoh_decode_array(sums, totals, epsilon), totals)
    counts = tally_ternary(encoded.key_index, encoded.states, d)
    if mechanism == "privkv":
        return privkv_decode_original_array(counts, PrivacyBudget.split(epsilon))
    if mechanism == "privkv-improved":
        estimates = privkv_decode_improved_array(counts, PrivacyBudget.split(epsilon))
    else:
        estimates = kvue_decode_array(counts, epsilon)
    return stats_from_estimates(estimates, counts.sum(axis=1))


def _error_metrics(frequency, mean, defined, truth: GroundTruth):
    freq_err = np.abs(frequency - truth.frequency)
    valid_freq = ~np.isnan(freq_err)
    freq_ae = float(freq_err[valid_freq].mean()) if valid_freq.any() else math.nan
    freq_mse = float((freq_err[valid_freq] ** 2).mean()) if valid_freq.any() else math.nan
    truth_defined = ~np.isnan(truth.mean)
    usable = defined & truth_defined & ~np.isnan(mean)
    if usable.any():
        mean_err = np.abs(mean[usable] - truth.mean[usable])
        mean_ae = float(mean_err.mean())
        mean_mse = float((mean_err ** 2).mean())
    else:
        mean_ae = math.nan
        mean_mse = math.nan
    undefined = int((truth_defined & ~usable).sum())
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


def _run_tasks(tasks, work, workers):
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(work, tasks))
    return [work(task) for task in tasks]


def run_sweep(config: ExperimentConfig, ds: Dataset, per_key: bool = False) -> SweepResult:
    """Run the mechanisms x epsilons x repetitions grid over one dataset.

    Cell order in the result is deterministic (mechanism, epsilon,
    repetition); the per-cell random stream depends only on the master
    seed and the cell coordinates, never on scheduling.  A cell that
    raises is recorded in failures and the rest of the grid still runs.
    """
    truth = true_stats(ds)
    root = RandomSource(config.seed)
    tasks = [
        (mi, ei, rep)
        for mi in range(len(config.mechanisms))
        for ei in range(len(config.epsilons))
        for rep in range(config.repetitions)
    ]

    def work(task):
        mi, ei, rep = task
        rng = root.substream(_SWEEP_TAG, mi, ei, rep).generator()
        try:
            result = run_single(ds, config.mechanisms[mi], config.epsilons[ei], rng,
                                repetition=rep, default_value=config.default_value, truth=truth)
        except Exception as exc:  # recorded per cell, sweep continues
            return task, exc
        return task, result

    outcome = dict(_run_tasks(tasks, work, config.workers))
    rows = []
    per_key_rows = []
    failures = []
    for task in tasks:
        result = outcome[task]
        if isinstance(result, Exception):
            mi, ei, rep = task
            failures.append({
                "mechanism": config.mechanisms[mi],
                "epsilon": config.epsilons[ei],
                "repetition": rep,
                "error": f"{type(result).__name__}: {result}",
            })
            continue
        rows.append(result.row)
        if per_key:
            for key in range(ds.d):
                per_key_rows.append({
                    "mechanism": result.row.mechanism,
                    "epsilon": result.row.epsilon,
                    "repetition": result.row.repetition,
                    "key": key,
                    "freq_est": float(result.frequency[key]),
                    "freq_true": float(truth.frequency[key]),
                    "mean_est": float(result.mean[key]),
                    "mean_true": float(truth.mean[key]),
                })
    return SweepResult(rows, per_key_rows, failures)


def _quartiles(samples):
    samples = np.asarray(samples, dtype=np.float64)
    valid = samples[~np.isnan(samples)]
    if valid.size == 0:
        return [math.nan] * 5 + [math.nan]
    q = np.percentile(valid, [0, 25, 50, 75, 100])
    return [float(x) for x in q] + [float(valid.mean())]


def summarize(rows) -> list:
    """Box-plot statistics per (mechanism, epsilon) cell over repetitions."""
    cells = {}
    order = []
    for row in rows:
        cell = (row.mechanism, row.epsilon)
        if cell not in cells:
            cells[cell] = []
            order.append(cell)
        cells[cell].append(row)
    summary = []
    for mechanism, epsilon in order:
        group = cells[(mechanism, epsilon)]
        f_min, f_q1, f_med, f_q3, f_max, f_mean = _quartiles([r.freq_ae for r in group])
        m_min, m_q1, m_med, m_q3, m_max, m_mean = _quartiles([r.mean_ae for r in group])
        summary.append({
            "mechanism": mechanism,
            "epsilon": epsilon,
            "repetitions": len(group),
            "freq_ae_min": f_min, "freq_ae_q1": f_q1, "freq_ae_median": f_med,
            "freq_ae_q3": f_q3, "freq_ae_max": f_max, "freq_ae_mean": f_mean,
            "mean_ae_min": m_min, "mean_ae_q1": m_q1, "mean_ae_median": m_med,
            "mean_ae_q3": m_q3, "mean_ae_max": m_max, "mean_ae_mean": m_mean,
            "freq_mse_mean": _quartiles([r.freq_mse for r in group])[5],
            "mean_mse_mean": _quartiles([r.mean_mse for r in group])[5],
            "undefined_means": sum(r.undefined_means for r in group),
        })
    return summary


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


def key_sampling_tolerance(frequency: float, d: int, n: int, sigmas: float = 3.0) -> float:
    """Pure key-sampling noise floor: each key draws about n/d reports."""
    return sigmas * math.sqrt(frequency * (1.0 - frequency) * d / n)


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


def run_conditional(ds: Dataset, epsilons, repetitions: int, seed: int, queries=None,
                    method: str = "column", workers: int = 1) -> list:
    """Compare the private conditional pipeline against the exact oracle.

    Per (epsilon, repetition): encode the full population with the
    full-record one-hot mechanism, calibrate, and answer every query;
    rows carry both the private estimates and the oracle values.
    """
    if ds.d > IOH_DIMENSION_CAP:
        raise ConfigError(f"dataset dimension {ds.d} exceeds the one-hot cap of {IOH_DIMENSION_CAP}")
    epsilons = [float(e) for e in epsilons]
    if not epsilons or any(e <= 0 for e in epsilons):
        raise ConfigError(f"epsilons must be positive, got {epsilons}")
    if repetitions < 1:
        raise ConfigError(f"repetitions must be at least 1, got {repetitions}")
    _check_workers(workers)
    queries = queries if queries is not None else default_conditional_queries(ds.d)
    oracle = [true_conditional(ds, k, cond) for k, cond in queries]
    root = RandomSource(seed)
    tasks = [(ei, rep) for ei in range(len(epsilons)) for rep in range(repetitions)]

    def work(task):
        ei, rep = task
        rng = root.substream(_COND_TAG, ei, rep).generator()
        sample = simulate_ioh_bit_sums(ds.values, epsilons[ei], rng, method=method)
        agg = aggregate_from_bit_sums(sample.bit_sums, sample.n_users, ds.d, epsilons[ei])
        cell_rows = []
        for qi, (k, cond) in enumerate(queries):
            est_freq = conditional_frequency(agg, k, cond)
            est_mean = conditional_mean(agg, k, cond)
            true_freq, true_mean = oracle[qi]
            cell_rows.append({
                "d": ds.d,
                "epsilon": epsilons[ei],
                "repetition": rep,
                "target": f"k{k + 1}",
                "condition": condition_text(cond),
                "freq_est": est_freq,
                "freq_true": true_freq,
                "freq_ae": abs(est_freq - true_freq),
                "mean_est": est_mean,
                "mean_true": true_mean,
                "mean_ae": abs(est_mean - true_mean),
            })
        return task, cell_rows

    outcome = dict(_run_tasks(tasks, work, workers))
    rows = []
    for task in tasks:
        rows.extend(outcome[task])
    return rows


# ---------------------------------------------------------------------------
# Default-value study
# ---------------------------------------------------------------------------


def default_value_study(ds: Dataset, vbars=DEFAULT_VBAR_GRID, epsilons=(0.5, 1.0),
                        repetitions: int = 50, seed: int = 0, workers: int = 1):
    """Sweep the f2m default value over a grid at fixed budgets.

    Returns (detail_rows, summary_rows); the summary aggregates mean AE per
    (epsilon, default value) so the spread across default values can be
    compared directly.
    """
    vbars = [float(v) for v in vbars]
    if any(not -1.0 <= v <= 1.0 for v in vbars):
        raise ConfigError(f"default values must lie in [-1, 1], got {vbars}")
    _check_workers(workers)
    truth = true_stats(ds)
    root = RandomSource(seed)
    tasks = [
        (ei, vi, rep)
        for ei in range(len(epsilons))
        for vi in range(len(vbars))
        for rep in range(repetitions)
    ]

    def work(task):
        ei, vi, rep = task
        rng = root.substream(_STUDY_TAG, ei, vi, rep).generator()
        result = run_single(ds, "f2m", epsilons[ei], rng, repetition=rep,
                            default_value=vbars[vi], truth=truth)
        return task, result.row

    outcome = dict(_run_tasks(tasks, work, workers))
    detail = []
    for task in tasks:
        ei, vi, rep = task
        row = outcome[task].as_dict()
        row["vbar"] = vbars[vi]
        detail.append(row)
    summary = []
    for ei, epsilon in enumerate(epsilons):
        for vi, vbar in enumerate(vbars):
            group = [outcome[(ei, vi, rep)] for rep in range(repetitions)]
            m_min, m_q1, m_med, m_q3, m_max, m_mean = _quartiles([r.mean_ae for r in group])
            summary.append({
                "epsilon": float(epsilon), "vbar": vbar, "repetitions": repetitions,
                "mean_ae_min": m_min, "mean_ae_q1": m_q1, "mean_ae_median": m_med,
                "mean_ae_q3": m_q3, "mean_ae_max": m_max, "mean_ae_mean": m_mean,
                "freq_ae_mean": _quartiles([r.freq_ae for r in group])[5],
            })
    return detail, summary


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
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "nan" if math.isnan(value) else "%.6g" % value
    return str(value)


def _json_cell(value):
    if isinstance(value, (bool, np.bool_)):
        return int(value)
    if isinstance(value, (int, np.integer)):
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
    if fmt == "csv":
        buffer = io.StringIO()
        if config is not None:
            buffer.write("# kvldp " + json.dumps(config, sort_keys=True) + "\n")
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(row[c]) for c in columns])
        payload = buffer.getvalue()
    elif fmt == "json":
        document = {
            "config": config,
            "columns": columns,
            "rows": [[_json_cell(row[c]) for c in columns] for row in rows],
        }
        payload = json.dumps(document, sort_keys=True, indent=1) + "\n"
    else:
        raise ConfigError(f"unknown output format {fmt!r}; choose csv or json")
    try:
        with atomic_writer(path) as handle:
            handle.write(payload)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


_INT_PATTERN = re.compile(r"^-?\d+$")


def _parse_cell(text: str):
    if _INT_PATTERN.match(text):
        return int(text)
    try:
        return float(text)
    except ValueError:
        return text


def parse_table(path):
    """Read back an emitted table; returns (config or None, list of row dicts)."""
    with open(path) as handle:
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


def population_report_lines(mechanism: str, encoded) -> list:
    """Render a population encoding as wire-format report lines.

    Every line is drawn from a table over (key, payload) indexed by
    key * |payloads| + payload code, so only that table is formatted.
    """
    name = Mechanism(mechanism if mechanism != "privkv-improved" else "privkv")
    texts = PAYLOADS[name].texts
    key_index = np.asarray(encoded.key_index, dtype=np.int64)
    keys = int(key_index.max()) + 1 if key_index.size else 0
    table = [f"{name.value},{key},{text}" for key in range(keys) for text in texts]
    return list(map(table.__getitem__, (key_index * len(texts) + wire_codes(encoded)).tolist()))


def write_trace(path, mechanism: str, ds: Dataset, epsilon: float, rng,
                default_value: float = 1.0):
    """Encode the population once and write one wire-format line per report, atomically."""
    encoded = _encode_population(ds.values, mechanism, epsilon, ensure_generator(rng), default_value)
    lines = population_report_lines(mechanism, encoded)
    with atomic_writer(path) as handle:
        if lines:
            handle.write("\n".join(lines))
            handle.write("\n")
