"""Harness tests: metrics, sweeps, determinism, emission round trips."""

import json
import math

import numpy as np
import pytest

import jsonschema

from kvldp import harness
from kvldp.conditional import Condition, Lumping, query_classes
from kvldp.core import RandomSource
from kvldp.datagen import Dataset, gen_regime, gen_synthetic, true_stats
from kvldp.harness import (
    ConfigError,
    ExperimentConfig,
    MetricRow,
    condition_text,
    default_value_spread_ratio,
    default_value_study,
    emit,
    key_sampling_tolerance,
    parse_table,
    rows_to_dicts,
    run_conditional,
    run_single,
    run_sweep,
    soft_checks,
    summarize,
    write_trace,
)
from kvldp.mechanisms import Report, theoretical_bound


def _small_dataset(seed=1, d=20, n=20000):
    return gen_regime("middle", "middle", d=d, n=n, seed=seed)


def test_config_validation():
    config = ExperimentConfig(mechanisms=("kvue",), epsilons=(1.0,), repetitions=2)
    assert config.epsilons == (1.0,)
    with pytest.raises(ConfigError):
        ExperimentConfig(mechanisms=("quantum",))
    with pytest.raises(ConfigError):
        ExperimentConfig(epsilons=(0.0,))
    with pytest.raises(ConfigError):
        ExperimentConfig(repetitions=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(default_value=2.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(workers=0)


def test_run_single_deterministic():
    ds = _small_dataset()
    truth = true_stats(ds)
    a = run_single(ds, "kvue", 1.0, RandomSource(5).substream(1, 0, 0).generator(), truth=truth)
    b = run_single(ds, "kvue", 1.0, RandomSource(5).substream(1, 0, 0).generator(), truth=truth)
    assert np.array_equal(a.frequency, b.frequency, equal_nan=True)
    assert np.array_equal(a.mean, b.mean, equal_nan=True)
    assert a.row.as_dict() == b.row.as_dict()


def test_run_single_noiseless_sampling_floor():
    # At eps = 50 the only frequency error left is key-sampling noise.
    ds = _small_dataset()
    truth = true_stats(ds)
    tolerance = key_sampling_tolerance(0.6, ds.d, ds.n)
    for mechanism in ("privkv", "privkv-improved", "f2m", "kvue", "kvoh"):
        result = run_single(ds, mechanism, 50.0, RandomSource(6).generator(), truth=truth)
        assert result.row.freq_ae <= tolerance, mechanism
        assert result.row.undefined_means == 0


def test_run_single_unknown_mechanism():
    ds = _small_dataset()
    with pytest.raises(ConfigError):
        run_single(ds, "telepathy", 1.0, RandomSource(0).generator())


def test_run_sweep_shapes_and_order():
    ds = _small_dataset(n=5000)
    config = ExperimentConfig(mechanisms=("kvue", "f2m"), epsilons=(0.5, 2.0), repetitions=3, seed=3)
    result = run_sweep(config, ds)
    assert len(result.rows) == 2 * 2 * 3
    keys = [(r.mechanism, r.epsilon, r.repetition) for r in result.rows]
    assert keys == sorted(keys, key=lambda t: (("kvue", "f2m").index(t[0]), t[1], t[2]))
    single = run_sweep(ExperimentConfig(mechanisms=("kvue",), epsilons=(1.0,), repetitions=1), ds)
    assert len(single.rows) == 1
    detailed = run_sweep(ExperimentConfig(mechanisms=("kvue",), epsilons=(1.0,), repetitions=2), ds, per_key=True)
    assert len(detailed.per_key_rows) == 2 * ds.d
    assert {"mechanism", "epsilon", "repetition", "key", "freq_est", "freq_true",
            "mean_est", "mean_true"} == set(detailed.per_key_rows[0])


def _sweep_rows(workers):
    config = ExperimentConfig(mechanisms=("privkv", "kvoh"), epsilons=(0.5, 2.0),
                              repetitions=3, seed=11, workers=workers)
    return rows_to_dicts(run_sweep(config, _small_dataset(n=8000)).rows)


def _conditional_rows(workers):
    return list(run_conditional(_small_dataset(n=8000, d=4), (0.5, 2.0), 3, 11, workers=workers))


def _study_rows(workers):
    detail, summary, _ = default_value_study(_small_dataset(n=8000), (-1.0, 1.0), (0.5, 2.0), 3, 11,
                                             workers=workers)
    return detail + summary


@pytest.mark.parametrize("experiment", [_sweep_rows, _conditional_rows, _study_rows],
                         ids=["run_sweep", "run_conditional", "default_value_study"])
def test_experiment_worker_invariance(experiment):
    rows = experiment(1)
    assert len(rows) >= 6
    # repr tells floats apart to the last bit and matches NaN with NaN.
    assert repr(rows) == repr(experiment(3))


def test_run_sweep_records_partial_failures():
    # An epsilon below the calibration floor fails its cells; the rest of
    # the grid still runs and the failures carry the cell coordinates.
    ds = _small_dataset(n=1000, d=4)
    config = ExperimentConfig(mechanisms=("kvue",), epsilons=(1.0, 1e-13), repetitions=2, seed=8)
    result = run_sweep(config, ds)
    assert len(result.rows) == 2
    assert all(r.epsilon == 1.0 for r in result.rows)
    assert len(result.failures) == 2
    assert result.failures[0]["epsilon"] == 1e-13
    assert "IllConditioned" in result.failures[0]["error"]


def test_run_conditional_records_partial_failures():
    ds = _small_dataset(n=1000, d=4)
    rows = run_conditional(ds, (1e-20, 1.0), 2, seed=8)
    assert [(r["epsilon"], r["repetition"]) for r in rows] == [(1.0, 0), (1.0, 1)]
    assert [(f["epsilon"], f["repetition"]) for f in rows.failures] == [(1e-20, 0), (1e-20, 1)]
    assert all(f["error"].startswith("IllConditionedError: ") for f in rows.failures)
    assert rows.aggregate is None  # cell (epsilons[0], repetition 0) failed


def _cell_draw(ds, epsilon, seed, cell, classes=None):
    """The aggregate a run_conditional cell draws, from that cell's own substream."""
    return Lumping(ds.values, classes).draw(epsilon, RandomSource(seed).substream(2, *cell).generator())


def _same_aggregate(a, b) -> bool:
    return (a.n_users, a.d, a.epsilon, a.classes) == (b.n_users, b.d, b.epsilon, b.classes) \
        and a.values.tobytes() == b.values.tobytes()


@pytest.mark.parametrize("full_partition", [True, False])
def test_run_conditional_hands_back_the_first_cells_aggregate(full_partition):
    ds = _small_dataset(n=1000, d=4)
    rows = run_conditional(ds, (2.0, 4.0), 2, seed=8, full_partition=full_partition)
    classes = None if full_partition else query_classes(harness.default_conditional_queries(4), 4)
    assert _same_aggregate(rows.aggregate, _cell_draw(ds, 2.0, 8, (0, 0), classes))


def test_run_conditional_finds_the_first_cell_by_position_not_by_epsilon():
    # With a repeated epsilon, cells (0, 0) and (1, 0) share their labels, and
    # two workers may finish them in either order.
    ds = _small_dataset(n=1000, d=4)
    rows = run_conditional(ds, (1.0, 1.0), 2, seed=8, workers=2, full_partition=True)
    assert _same_aggregate(rows.aggregate, _cell_draw(ds, 1.0, 8, (0, 0)))
    assert not _same_aggregate(rows.aggregate, _cell_draw(ds, 1.0, 8, (1, 0)))


def test_default_value_study_records_partial_failures():
    ds = _small_dataset(n=1000, d=4)
    detail, summary, failures = default_value_study(ds, vbars=(0.0,), epsilons=(1e-20, 1.0),
                                                    repetitions=2, seed=8)
    assert [(r["epsilon"], r["repetition"]) for r in detail] == [(1.0, 0), (1.0, 1)]
    assert [(s["epsilon"], s["repetitions"]) for s in summary] == [(1.0, 2)]
    assert [(f["epsilon"], f["vbar"], f["repetition"]) for f in failures] == [(1e-20, 0.0, 0), (1e-20, 0.0, 1)]
    assert all(f["error"].startswith("IllConditionedError: ") for f in failures)


def test_summarize_and_soft_checks():
    ds = _small_dataset(n=5000)
    config = ExperimentConfig(mechanisms=("kvue",), epsilons=(0.5, 5.0), repetitions=5, seed=4)
    result = run_sweep(config, ds)
    summary = summarize(result.rows)
    assert len(summary) == 2
    cell = summary[0]
    assert cell["freq_ae_min"] <= cell["freq_ae_q1"] <= cell["freq_ae_median"]
    assert cell["freq_ae_median"] <= cell["freq_ae_q3"] <= cell["freq_ae_max"]
    assert cell["repetitions"] == 5
    # More budget helps, and means are harder than frequencies here.
    assert soft_checks(summary) == []
    # A fabricated summary that violates monotonicity is reported.
    broken = [dict(cell, epsilon=0.5, freq_ae_median=0.01, mean_ae_median=0.005),
              dict(cell, epsilon=5.0, freq_ae_median=0.5, mean_ae_median=0.04)]
    messages = soft_checks(broken)
    assert any("exceeds" in m for m in messages)
    assert any("below median frequency AE" in m for m in messages)


def test_per_key_bound_coverage_kvue():
    # Per-key frequency errors stay below the closed-form bound at
    # delta = 0.05 in at least 93% of (key, repetition) pairs.
    ds = gen_synthetic("gaussian", 100, 100000, seed=21)
    truth = true_stats(ds)
    bound = theoretical_bound("kvue", 1.0, ds.n // ds.d, 0.05, 0.5)[0]
    inside = 0
    total = 0
    for rep in range(5):
        result = run_single(ds, "kvue", 1.0, RandomSource(22).substream(1, 0, rep).generator(), truth=truth)
        errors = np.abs(result.frequency - truth.frequency)
        inside += int((errors <= bound).sum())
        total += ds.d
    assert inside / total >= 0.93


def test_emit_csv_round_trip(tmp_path):
    ds = _small_dataset(n=2000)
    config = ExperimentConfig(mechanisms=("kvue",), epsilons=(1.0,), repetitions=3, seed=7)
    rows = rows_to_dicts(run_sweep(config, ds).rows)
    path = tmp_path / "out.csv"
    emit(rows, "csv", path, config=config.as_dict())
    header, parsed = parse_table(path)
    assert header == config.as_dict()
    assert len(parsed) == 3
    again = tmp_path / "again.csv"
    emit(parsed, "csv", again, config=header)
    assert path.read_bytes() == again.read_bytes()


def test_emit_json_schema(tmp_path):
    schema = {
        "type": "object",
        "required": ["columns", "rows"],
        "properties": {
            "columns": {"type": "array", "items": {"type": "string"}},
            "rows": {
                "type": "array",
                "items": {"type": "array", "items": {"type": ["number", "string", "null"]}},
            },
        },
    }
    rows = [{"mechanism": "kvue", "epsilon": 1.0, "value": 0.5},
            {"mechanism": "kvue", "epsilon": 2.0, "value": math.nan}]
    path = tmp_path / "out.json"
    emit(rows, "json", path, config={"seed": 0})
    document = json.loads(path.read_text())
    jsonschema.validate(document, schema)
    assert document["rows"][1][2] is None  # NaN serialized as null
    _, parsed = parse_table(path)
    assert math.isnan(parsed[1]["value"])


def test_emit_same_seed_byte_identical(tmp_path):
    ds = _small_dataset(n=4000)
    config = ExperimentConfig(mechanisms=("f2m", "kvue"), epsilons=(1.0,), repetitions=2, seed=13)
    paths = []
    for workers, name in ((1, "a.csv"), (8, "b.csv")):
        cfg = ExperimentConfig(mechanisms=config.mechanisms, epsilons=config.epsilons,
                               repetitions=config.repetitions, seed=config.seed, workers=workers)
        result = run_sweep(cfg, ds)
        path = tmp_path / name
        emit(rows_to_dicts(result.rows), "csv", path, config={"seed": 13})
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


def test_emit_validation(tmp_path):
    with pytest.raises(Exception):
        emit([], "csv", tmp_path / "empty.csv")
    with pytest.raises(ConfigError):
        emit([{"a": 1}], "xml", tmp_path / "x.xml")
    with pytest.raises(OSError):
        emit([{"a": 1}], "csv", tmp_path / "nodir" / "x.csv")


def test_default_value_study_shape_and_ratio():
    ds = _small_dataset(n=5000, d=10)
    detail, summary, failures = default_value_study(ds, vbars=(-1.0, 0.0, 1.0), epsilons=(1.0,),
                                                    repetitions=4, seed=9)
    assert len(detail) == 3 * 4
    assert len(summary) == 3
    assert failures == []
    ratios = default_value_spread_ratio(summary)
    assert set(ratios) == {1.0}
    assert ratios[1.0] >= 1.0


def test_run_conditional_noiseless_matches_oracle():
    g = RandomSource(14).generator()
    values = np.where(g.random((2000, 2)) < 0.7, np.where(g.random((2000, 2)) < 0.9, 1.0, -1.0), np.nan)
    ds = Dataset(values)
    rows = run_conditional(ds, epsilons=[50.0], repetitions=2, seed=15)
    assert len(rows) == 2
    for row in rows:
        assert row["freq_ae"] == pytest.approx(0.0, abs=1e-6)
        assert row["mean_ae"] == pytest.approx(0.0, abs=1e-6)
        assert row["condition"] == "k2=1"
        assert row["target"] == "k1"


def test_run_conditional_undefined_rows():
    # A condition contradicting every user yields NaN on both sides.
    values = np.ones((50, 2))
    ds = Dataset(values)
    queries = [(0, Condition.parse("k2=0", 2))]
    rows = run_conditional(ds, epsilons=[50.0], repetitions=1, seed=16, queries=queries)
    assert math.isnan(rows[0]["freq_est"])
    assert math.isnan(rows[0]["freq_true"])


def _experiments(ds):
    """The three experiments over ds, each taking (epsilons, repetitions, workers)."""
    return [
        lambda e, r, w: run_sweep(ExperimentConfig(mechanisms=("kvue",), epsilons=e, repetitions=r,
                                                   workers=w), ds),
        lambda e, r, w: run_conditional(ds, epsilons=e, repetitions=r, seed=0, workers=w),
        lambda e, r, w: default_value_study(ds, epsilons=e, repetitions=r, seed=0, workers=w),
    ]


def test_run_conditional_validation():
    # Every experiment rejects a bad grid with ConfigError before any cell runs.
    ds = Dataset(np.ones((10, 2)))
    for experiment in _experiments(ds):
        # Text is no sequence of epsilons: "12" would otherwise read as (1.0, 2.0), b"12" as (49.0, 50.0).
        for epsilons in ([], [-1.0], [0.0], [math.nan], [math.inf], [1.0, -1.0], ["one"], "12", b"12"):
            with pytest.raises(ConfigError, match="epsilons"):
                experiment(epsilons, 1, 1)
        for repetitions in (0, -2, 1.5, True):
            with pytest.raises(ConfigError, match="repetitions"):
                experiment([1.0], repetitions, 1)
    with pytest.raises(ConfigError, match="simulation method"):
        run_conditional(ds, epsilons=[1.0], repetitions=1, seed=0, method="bogus")
    with pytest.raises(ConfigError, match="default values"):
        default_value_study(ds, vbars=(), repetitions=1)
    big = Dataset(np.ones((2, 13)))
    with pytest.raises(ConfigError):
        run_conditional(big, epsilons=[1.0], repetitions=1, seed=0)


def test_run_conditional_rejects_peruser_before_any_cell_runs(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the grid ran before the method was checked")

    monkeypatch.setattr(harness, "_run_grid", fail)
    monkeypatch.setattr(harness, "true_conditionals", fail)
    with pytest.raises(ConfigError, match="unknown simulation method 'peruser'"):
        run_conditional(Dataset(np.ones((10, 2))), epsilons=[1.0], repetitions=1, seed=0, method="peruser")


def test_run_conditional_rejects_no_queries_before_any_cell_runs(monkeypatch):
    # Without a query every cell would be drawn for no rows.
    def fail(*args, **kwargs):
        raise AssertionError("the oracle or the grid ran without a query")

    monkeypatch.setattr(harness, "_run_grid", fail)
    monkeypatch.setattr(harness, "true_conditionals", fail)
    for queries in ([], iter([])):
        with pytest.raises(ConfigError, match="at least one conditional query"):
            run_conditional(Dataset(np.ones((10, 2))), [1.0], 1, 0, queries=queries)


def test_run_conditional_reads_an_iterator_of_queries_as_its_list():
    ds = gen_regime("high", "low", d=3, n=500, seed=17)
    queries = [(0, Condition.parse("k2=1", 3)), (2, Condition.parse("k1=0", 3))]
    want = run_conditional(ds, [1.0], 2, 5, queries=queries)
    got = run_conditional(ds, [1.0], 2, 5, queries=iter(queries))
    assert len(want) == 4 and not got.failures
    assert repr(list(got)) == repr(list(want))


@pytest.mark.parametrize("workers", [0, -1, True])
def test_experiments_reject_non_positive_workers(workers):
    ds = Dataset(np.ones((10, 2)))
    for experiment in _experiments(ds):
        with pytest.raises(ConfigError, match="workers"):
            experiment([1.0], 1, workers)


def test_condition_text_round_trip():
    cond = Condition.parse("k3=1,k1=0", 3)
    assert condition_text(cond) == "k1=0,k3=1"
    assert Condition.parse(condition_text(cond), 3) == cond
    assert condition_text(Condition.empty(2)) == ""


def test_write_trace_lines_parse(tmp_path):
    ds = _small_dataset(n=500, d=6)
    for mechanism in ("privkv", "f2m", "kvue", "kvoh"):
        path = tmp_path / f"{mechanism}.txt"
        write_trace(path, mechanism, ds, 1.0, RandomSource(17).generator())
        lines = path.read_text().splitlines()
        assert len(lines) == ds.n
        report = Report.from_line(lines[0])
        assert report.key_index < ds.d


def test_key_sampling_tolerance_formula():
    assert key_sampling_tolerance(0.5, 100, 100000) == pytest.approx(3 * math.sqrt(0.25 / 1000))


def test_metric_row_timing_column_is_opt_in():
    row = MetricRow("kvue", 1.0, 0, 0.1, 0.01, 0.2, 0.05, 0, 1.23)
    assert "wall_time" not in row.as_dict()
    assert row.as_dict(timing=True)["wall_time"] == 1.23
