"""End-to-end CLI tests driving kvldp.cli.main with in-process argv."""

import argparse
import math
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvldp import cli
from kvldp.cli import main
from kvldp.conditional import Condition, Lumping, conditional_frequency, conditional_mean, load_aggregate
from kvldp.core import RandomSource
from kvldp.datagen import gen_synthetic, load_dataset
from kvldp.harness import _SWEEP_TAG, ConfigError, ExperimentConfig, parse_table, run_single
from kvldp.mechanisms import PAYLOADS, PROTOCOLS, Report, code_table


def test_generate_and_run_sweep(tmp_path, capsys):
    dataset = tmp_path / "ds.csv"
    assert main(["generate", "--dist", "uniform", "--d", "10", "--n", "3000",
                 "--seed", "5", "--out", str(dataset)]) == 0
    ds = load_dataset(dataset)
    assert ds.n == 3000 and ds.d == 10

    out = tmp_path / "sweep.csv"
    code = main(["run", "--dataset", str(dataset), "--mechanisms", "kvue,f2m",
                 "--epsilon", "1,2", "--reps", "2", "--seed", "1", "--out", str(out)])
    assert code == 0
    _, rows = parse_table(out)
    assert len(rows) == 2 * 2 * 2
    _, summary = parse_table(tmp_path / "sweep.summary.csv")
    assert len(summary) == 4
    assert "wall_time" not in rows[0]


def test_run_reads_config_file_with_flag_override(tmp_path):
    config_file = tmp_path / "exp.conf"
    config_file.write_text(
        "dataset=regime:middle:middle\nmechanisms=kvue\nepsilon=1\nreps=3\n"
        "seed=2\nd=8\nn=2000\nout=should_be_overridden.csv\n"
    )
    out = tmp_path / "from_config.csv"
    assert main(["run", "--config", str(config_file), "--out", str(out)]) == 0
    header, rows = parse_table(out)
    assert len(rows) == 3
    assert header["mechanisms"] == ["kvue"]
    assert header["seed"] == 2


def test_run_determinism_across_worker_counts(tmp_path):
    args = ["run", "--dataset", "gaussian", "--d", "10", "--n", "3000",
            "--mechanisms", "privkv,kvoh", "--epsilon", "0.5", "--reps", "2", "--seed", "9"]
    out1, out8 = tmp_path / "w1.csv", tmp_path / "w8.csv"
    assert main(args + ["--workers", "1", "--out", str(out1)]) == 0
    assert main(args + ["--workers", "8", "--out", str(out8)]) == 0
    assert out1.read_bytes() == out8.read_bytes()


def test_run_trace_and_per_key(tmp_path):
    out = tmp_path / "t.csv"
    trace_dir = tmp_path / "traces"
    assert main(["run", "--dataset", "uniform", "--d", "5", "--n", "500",
                 "--mechanisms", "kvue", "--epsilon", "1", "--reps", "1",
                 "--out", str(out), "--per-key", "--trace", str(trace_dir)]) == 0
    assert (trace_dir / "kvue.txt").read_text().count("\n") == 500
    _, per_key = parse_table(tmp_path / "t.perkey.csv")
    assert len(per_key) == 5


def test_each_trace_is_the_reports_behind_its_mechanism_first_row(tmp_path):
    # A trace used to be drawn on a stream of its own, which no row came from.
    names = list(reversed(PROTOCOLS))  # the cell index is the position on the command line
    out, trace_dir, seed, epsilon, vbar = tmp_path / "t.csv", tmp_path / "traces", 3, 0.25, 0.5
    assert main(["run", "--dataset", "gaussian", "--d", "12", "--n", "400", "--mechanisms", ",".join(names),
                 "--epsilon", f"{epsilon},2", "--reps", "2", "--vbar", str(vbar), "--seed", str(seed),
                 "--per-key", "--trace", str(trace_dir), "--out", str(out)]) == 0
    ds = gen_synthetic("gaussian", 12, 400, RandomSource(seed).substream(cli._DATASET_TAG).stream_id)
    _, per_key = parse_table(tmp_path / "t.perkey.csv")
    undefined = 0
    for i, name in enumerate(names):
        reports = [Report.from_line(line) for line in (trace_dir / f"{name}.txt").read_text().splitlines()]
        payloads = PAYLOADS[PROTOCOLS[name].mechanism]
        table = code_table(PROTOCOLS[name].mechanism, [r.key_index for r in reports],
                           [payloads.code_of_value[r.payload] for r in reports], ds.d)
        decoded = PROTOCOLS[name].decode(table, epsilon, vbar)
        run = run_single(ds, name, epsilon, RandomSource(seed).substream(_SWEEP_TAG, i, 0, 0).generator(),
                         default_value=vbar)
        for got, want in zip(decoded, run[:3]):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        rows = [row for row in per_key if (row["mechanism"], row["epsilon"], row["repetition"]) == (name, epsilon, 0)]
        assert [row["key"] for row in rows] == list(range(ds.d))
        for row, frequency, mean in zip(rows, decoded[0], decoded[1]):
            assert ("%.6g" % row["freq_est"], "%.6g" % row["mean_est"]) == ("%.6g" % frequency, "%.6g" % mean)
        undefined += int((~decoded[2]).sum())
    assert undefined > 0  # the comparison covers NaN means too


_SMALL_RUN = ["--dataset", "gaussian", "--d", "3", "--n", "50", "--reps", "1"]


@pytest.mark.parametrize("argv, message", [
    (["run", *_SMALL_RUN, "--mechanisms", "kvue,kvue"], "mechanism 'kvue' is given more than once"),
    (["run", *_SMALL_RUN, "--epsilon", "1,1.0"], "epsilon 1.0 is given more than once"),
    (["default-study", *_SMALL_RUN, "--vbar=0,0"], "default value 0.0 is given more than once"),
    (["conditional", "--n", "50", "--dims", "3,3"], "dimension 3 is given more than once"),
    (["conditional", "--n", "50", "--dims", "2", "--epsilon", "4,4"], "epsilon 4.0 is given more than once"),
    (["bounds", "--mechanisms", "kvue,kvue"], "mechanism 'kvue' is given more than once"),
], ids=["run-mechanisms", "run-epsilon", "default-study-vbar", "conditional-dims", "conditional-epsilon",
        "bounds-mechanisms"])
def test_a_repeated_grid_value_is_a_config_error(tmp_path, capsys, argv, message):
    # Each used to exit 0: run's summary merged two cells into one with twice the repetitions and one
    # trace overwrote the other, default-study printed a spread ratio of 1.000 and conditional wrote
    # rows that shared every label.
    out = tmp_path / "x.csv"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error[config]" in err and message in err
    assert not out.exists()


def test_ingest_command(tmp_path):
    raw = tmp_path / "ratings.csv"
    raw.write_text("u1,a,5\nu1,b,3\nu2,a,1\n")
    out = tmp_path / "ingested.csv"
    assert main(["ingest", "--input", str(raw), "--top-k", "2", "--out", str(out)]) == 0
    ds = load_dataset(out)
    assert ds.n == 2 and ds.d == 2


def test_conditional_command(tmp_path):
    out = tmp_path / "cond.csv"
    assert main(["conditional", "--dims", "2", "--epsilon", "4", "--reps", "2",
                 "--n", "2000", "--seed", "3", "--out", str(out)]) == 0
    _, rows = parse_table(out)
    assert len(rows) == 2
    assert rows[0]["condition"] == "k2=1"
    agg_out = tmp_path / "agg.txt"
    assert main(["conditional", "--dims", "2", "--epsilon", "4", "--reps", "1",
                 "--n", "500", "--out", str(tmp_path / "cond2.csv"),
                 "--agg-out", str(agg_out)]) == 0
    assert agg_out.exists()


def test_conditional_agg_out_reproduces_first_row(tmp_path):
    out = tmp_path / "cond.csv"
    agg_out = tmp_path / "agg.txt"
    assert main(["conditional", "--dims", "3,2", "--epsilon", "2,4", "--reps", "2", "--n", "3000",
                 "--seed", "8", "--out", str(out), "--agg-out", str(agg_out)]) == 0
    _, rows = parse_table(out)
    agg, seed = load_aggregate(agg_out)
    assert (agg.d, agg.epsilon, agg.n_users, seed) == (3, 2.0, 3000, 8)
    query = Condition.parse(rows[0]["condition"], 3)
    assert "%.6g" % conditional_frequency(agg, 0, query) == "%.6g" % rows[0]["freq_est"]
    assert "%.6g" % conditional_mean(agg, 0, query) == "%.6g" % rows[0]["mean_est"]


def test_conditional_explicit_query(tmp_path):
    out = tmp_path / "cond.csv"
    assert main(["conditional", "--dims", "3", "--epsilon", "4", "--reps", "1",
                 "--n", "1000", "--target", "k2", "--cond", "k1=1,k3=0",
                 "--out", str(out)]) == 0
    _, rows = parse_table(out)
    assert rows[0]["target"] == "k2"
    assert rows[0]["condition"] == "k1=1,k3=0"


def test_default_study_command(tmp_path, capsys):
    out = tmp_path / "study.csv"
    assert main(["default-study", "--dataset", "regime:high:low", "--d", "8", "--n", "2000",
                 "--vbar=-1,0,1", "--epsilon", "1", "--reps", "2", "--out", str(out)]) == 0
    _, rows = parse_table(out)
    assert len(rows) == 3 * 2
    _, summary = parse_table(tmp_path / "study.summary.csv")
    assert len(summary) == 3
    assert "max/min across default values" in capsys.readouterr().out


def _cell_failures(err: str) -> list:
    return [line for line in err.splitlines() if line.startswith("cell-failure: ")]


def test_conditional_reports_failed_cells_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "cond.csv"
    assert main(["conditional", "--dims", "3", "--epsilon", "1e-20,1", "--reps", "2", "--n", "1000",
                 "--out", str(out)]) == 0
    failures = _cell_failures(capsys.readouterr().err)
    assert len(failures) == 2
    assert all("'d': 3, 'epsilon': 1e-20" in line and "IllConditionedError" in line for line in failures)
    _, rows = parse_table(out)
    assert [(r["epsilon"], r["repetition"]) for r in rows] == [(1.0, 0), (1.0, 1)]


def test_conditional_agg_out_skips_a_failed_first_cell_and_keeps_the_run(tmp_path, capsys):
    out = tmp_path / "cond.csv"
    agg_out = tmp_path / "agg.txt"
    assert main(["conditional", "--dims", "3", "--epsilon", "1e-20,1", "--reps", "1", "--n", "1000",
                 "--out", str(out), "--agg-out", str(agg_out)]) == 0
    err = capsys.readouterr().err
    assert len(_cell_failures(err)) == 1
    skipped = [line for line in err.splitlines() if line.startswith("agg-out skipped: ")]
    assert len(skipped) == 1
    assert "d=3 epsilon=1e-20 repetition=0" in skipped[0]
    assert not agg_out.exists()
    _, rows = parse_table(out)
    assert [(r["epsilon"], r["repetition"]) for r in rows] == [(1.0, 0)]


def test_default_study_reports_failed_cells_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "study.csv"
    assert main(["default-study", "--dataset", "regime:high:low", "--d", "4", "--n", "1000",
                 "--vbar", "0", "--epsilon", "1e-20,1", "--reps", "2", "--out", str(out)]) == 0
    failures = _cell_failures(capsys.readouterr().err)
    assert len(failures) == 2
    assert all("'epsilon': 1e-20, 'vbar': 0.0" in line and "IllConditionedError" in line for line in failures)
    _, rows = parse_table(out)
    assert [(r["epsilon"], r["repetition"]) for r in rows] == [(1.0, 0), (1.0, 1)]


def test_default_study_rejects_a_bad_grid_as_config_error(tmp_path, capsys):
    base = ["default-study", "--dataset", "uniform", "--d", "4", "--n", "100", "--out", str(tmp_path / "s.csv")]
    for flags in (["--reps", "0", "--epsilon", "1"], ["--reps", "1", "--epsilon=-1"],
                  ["--reps", "1", "--epsilon", "nan"]):
        assert main(base + flags) == 2, flags
        assert "error[config]" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_bounds_and_cost_commands(tmp_path, capsys):
    assert main(["bounds", "--epsilon", "1", "--n", "100000", "--delta", "0.05", "--f", "0.5"]) == 0
    printed = capsys.readouterr().out
    assert "0.0235" in printed  # kvue frequency bound at eps=1
    out = tmp_path / "bounds.csv"
    assert main(["bounds", "--epsilon", "0.5,1", "--out", str(out)]) == 0
    _, rows = parse_table(out)
    assert len(rows) == 6
    assert main(["cost", "--d", "100"]) == 0
    printed = capsys.readouterr().out
    assert "8.22882" in printed  # log2(300)


def test_exit_codes(tmp_path, capsys):
    # config error: unknown mechanism
    assert main(["run", "--dataset", "uniform", "--d", "4", "--n", "100",
                 "--mechanisms", "nope", "--epsilon", "1", "--reps", "1",
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert "error[config]" in capsys.readouterr().err
    # domain error: bounds with delta outside (0, 1)
    assert main(["bounds", "--epsilon", "1", "--delta", "2.0"]) == 3
    assert "error[domain]" in capsys.readouterr().err
    # io error: unwritable output path
    assert main(["bounds", "--epsilon", "1", "--out", str(tmp_path / "no" / "dir" / "x.csv")]) == 4
    assert "error[io]" in capsys.readouterr().err
    # config error: dataset file missing
    assert main(["run", "--dataset", str(tmp_path / "missing.csv"), "--epsilon", "1",
                 "--reps", "1", "--out", str(tmp_path / "y.csv")]) == 2


def test_bounds_rejects_unknown_mechanism_as_config_error(capsys):
    # Used to escape as a ValueError traceback from Mechanism("foo").
    assert main(["bounds", "--mechanisms", "kvue,foo", "--epsilon", "1"]) == 2
    err = capsys.readouterr().err
    assert "error[config]" in err and "unknown mechanisms ['foo']" in err


def test_bounds_privkv_improved_is_a_domain_error_like_privkv(capsys):
    # privkv-improved used to pass check_mechanisms and then escape as a
    # ValueError traceback from Mechanism("privkv-improved").
    for name in ("privkv", "privkv-improved"):
        assert main(["bounds", "--mechanisms", name, "--epsilon", "1"]) == 3
        err = capsys.readouterr().err
        assert "error[domain]" in err and "no closed-form bound for mechanism 'privkv'" in err


def _fail_if_called(*args, **kwargs):
    raise AssertionError("the experiment ran before the output format was checked")


@pytest.mark.parametrize("command, experiment", [
    (["run", "--dataset", "uniform", "--d", "4", "--n", "100", "--mechanisms", "kvue"], "run_sweep"),
    (["conditional", "--dims", "2", "--n", "100"], "run_conditional"),
    (["default-study", "--dataset", "uniform", "--d", "4", "--n", "100"], "default_value_study"),
])
def test_unknown_format_is_rejected_before_the_grid_runs(tmp_path, capsys, monkeypatch, command, experiment):
    monkeypatch.setattr(cli, experiment, _fail_if_called)
    out = tmp_path / "x.xml"
    assert main(command + ["--epsilon", "1", "--reps", "1", "--format", "xml", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error[config]" in err and "unknown output format 'xml'" in err
    assert not out.exists()


def test_conditional_rejects_peruser_before_any_dataset_is_built(tmp_path, capsys, monkeypatch):
    # The conditional command has no --method flag and no method config key.
    def fail(*args, **kwargs):
        raise AssertionError("a dataset was built for a removed option")

    monkeypatch.setattr(cli, "gen_regime", fail)
    monkeypatch.setattr(cli, "_dataset_from_spec", fail)
    out = tmp_path / "cond.csv"
    base = ["conditional", "--dims", "2", "--n", "100", "--out", str(out)]
    for flags in (["--method", "peruser"], ["--dataset", "gaussian", "--method", "peruser"],
                  ["--method", "column"]):
        with pytest.raises(SystemExit) as exc:  # an argparse usage error
            main(base + flags)
        assert exc.value.code == 2, flags
        assert "unrecognized arguments: --method" in capsys.readouterr().err
    config = tmp_path / "cond.cfg"
    config.write_text("method = peruser\n")
    assert main(base + ["--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "error[config]" in err and "unknown key 'method'" in err
    assert not out.exists()


def test_conditional_agg_out_draws_each_cell_once(tmp_path, monkeypatch):
    draws = []
    draw = Lumping.draw

    def spy(self, epsilon, rng):
        draws.append(self.values.shape[1])
        return draw(self, epsilon, rng)

    monkeypatch.setattr(Lumping, "draw", spy)
    assert main(["conditional", "--dims", "3,2", "--epsilon", "2,4", "--reps", "2", "--n", "300",
                 "--out", str(tmp_path / "cond.csv"), "--agg-out", str(tmp_path / "agg.txt")]) == 0
    assert draws == [3] * 4 + [2] * 4  # --agg-out saves the first grid's cell 0 without drawing it again


def test_conditional_agg_out_leaves_the_rows_of_every_later_grid_byte_identical(tmp_path):
    # The full partition of the first grid draws one uniform per key, so only that grid's rows may move.
    argv = ["conditional", "--dims", "3,4,2", "--epsilon", "1,4", "--n", "2000", "--reps", "2", "--seed", "5"]
    assert main(argv + ["--out", str(tmp_path / "plain.csv")]) == 0
    assert main(argv + ["--out", str(tmp_path / "saved.csv"), "--agg-out", str(tmp_path / "agg.txt")]) == 0
    plain, saved = ((tmp_path / name).read_text().splitlines() for name in ("plain.csv", "saved.csv"))
    later = [[line for line in lines if line.startswith(("4,", "2,"))] for lines in (plain, saved)]
    assert len(later[0]) == 8 and later[0] == later[1]
    assert plain[:2] == saved[:2] and len(plain) == len(saved)  # same header and columns, same first-grid row count


def test_bounds_at_a_vanishing_epsilon_is_a_domain_error(capsys):
    # Used to end in a ZeroDivisionError traceback with exit 1.
    # kvoh at 3e-12, below its decoder's floor, used to print a bound of 1.14523e+11 and exit 0.
    for mechanism, epsilon in (("kvue", "1e-17"), ("kvoh", "1e-16"), ("f2m", "5e-324"), ("kvoh", "3e-12")):
        assert main(["bounds", "--mechanisms", mechanism, "--epsilon", epsilon]) == 3
        err = capsys.readouterr().err
        assert "error[domain]" in err and "epsilon too small" in err


@pytest.mark.parametrize("delta", ["1e-310", "5e-324"])
def test_bounds_stay_finite_at_a_subnormal_delta(tmp_path, delta):
    # Used to print freq_bound inf and a vacuous mean bound, and exit 0.
    out = tmp_path / "bounds.csv"
    assert main(["bounds", "--mechanisms", "kvue,kvoh,f2m", "--epsilon", "1", "--n", "1000000",
                 "--delta", delta, "--out", str(out)]) == 0
    _, rows = parse_table(out)
    assert [row["mechanism"] for row in rows] == ["kvue", "kvoh", "f2m"]
    for row in rows:
        assert row["mean_bound"] != "vacuous", row
        assert math.isfinite(float(row["freq_bound"])) and math.isfinite(float(row["mean_bound"])), row


@pytest.mark.parametrize("command", [["bounds", "--epsilon", "1"], ["cost", "--d", "10"]])
def test_table_commands_check_the_format_without_out(capsys, command):
    # Without --out the table is printed, and any --format used to pass.
    assert main(command + ["--format", "xml"]) == 2
    captured = capsys.readouterr()
    assert "unknown output format 'xml'" in captured.err and captured.out == ""


@pytest.mark.parametrize("command", [
    ["run", "--dataset", "gaussian", "--d", "3", "--n", "50", "--mechanisms", "kvue,f2m"],
    ["default-study", "--dataset", "gaussian", "--d", "3", "--n", "50", "--vbar", "0,1"],
])
def test_a_grid_where_every_cell_fails_prints_its_failures_then_exits_3(tmp_path, capsys, command):
    # The cell-failure lines used to be lost behind "refusing to emit an empty table".
    out = tmp_path / "x.csv"
    assert main(command + ["--reps", "1", "--epsilon", "1e-300", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert len(_cell_failures(err)) == 2 and all("IllConditionedError" in line for line in _cell_failures(err))
    assert "error[domain]: refusing to emit an empty table" in err.splitlines()[-1]
    assert not out.exists()


@pytest.mark.parametrize("content", [b"u1,a,5\n\xff\xfe,b,3\n", b"u1,a,5\nu2," + b"x" * 131073 + b",3\n"],
                         ids=["not-utf8", "field-past-csv-limit"])
def test_ingest_of_an_unreadable_file_is_a_domain_error_naming_it(tmp_path, capsys, content):
    # Used to end in a UnicodeDecodeError or _csv.Error traceback.
    raw = tmp_path / "ratings.csv"
    raw.write_bytes(content)
    out = tmp_path / "ingested.csv"
    assert main(["ingest", "--input", str(raw), "--top-k", "2", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "error[domain]" in err and "ratings.csv" in err
    assert not out.exists()


def test_console_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "kvldp.cli", "cost", "--d", "10"],
        capture_output=True, text=True, check=False,
    )
    assert result.returncode == 0
    assert "privkv" in result.stdout


def test_json_output_format(tmp_path):
    out = tmp_path / "sweep.json"
    assert main(["run", "--dataset", "uniform", "--d", "4", "--n", "500",
                 "--mechanisms", "kvue", "--epsilon", "1", "--reps", "1",
                 "--format", "json", "--out", str(out)]) == 0
    header, rows = parse_table(out)
    assert rows[0]["mechanism"] == "kvue"
    assert header["epsilons"] == [1.0]


_LONG_FLAGS = {
    "generate": {"--dist", "--freq-regime", "--mean-regime", "--d", "--n", "--seed", "--spread", "--out"},
    "ingest": {"--input", "--top-k", "--scale", "--max-rows", "--max-users", "--out"},
    "run": {"--dataset", "--mechanisms", "--epsilon", "--reps", "--seed", "--vbar", "--workers", "--d",
            "--n", "--out", "--format", "--config", "--per-key", "--timing", "--trace"},
    "conditional": {"--dims", "--epsilon", "--reps", "--seed", "--n", "--dataset", "--target", "--cond",
                    "--workers", "--out", "--format", "--config", "--agg-out"},
    "default-study": {"--dataset", "--vbar", "--epsilon", "--reps", "--seed", "--workers", "--d", "--n",
                      "--out", "--format", "--config"},
    "bounds": {"--mechanisms", "--epsilon", "--n", "--delta", "--f", "--out", "--format"},
    "cost": {"--d", "--out", "--format"},
}
_COMMAND_LINE_ONLY = {"--config", "--per-key", "--timing", "--trace", "--agg-out"}
_CONFIGURABLE = sorted(command for command, flags in _LONG_FLAGS.items() if "--config" in flags)


@pytest.mark.parametrize("command", sorted(_LONG_FLAGS))
def test_table_commands_take_exactly_their_long_flags_and_config_keys(command):
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {flag for action in sub.choices[command]._actions for flag in action.option_strings}
    assert flags - {"-h", "--help"} == _LONG_FLAGS[command]
    assert {f"--{key}" for key in cli.OPTIONS[command]} == _LONG_FLAGS[command] - _COMMAND_LINE_ONLY


def _options_of(argv):
    return cli._options(cli.build_parser().parse_args(argv))


def test_run_defaults_are_those_of_experiment_config():
    options = _options_of(["run", "--out", "x.csv"])
    defaults = ExperimentConfig()
    assert (options.mechanisms, options.epsilon, options.reps, options.seed, options.vbar, options.workers) == (
        defaults.mechanisms, defaults.epsilons, defaults.repetitions, defaults.seed, defaults.default_value,
        defaults.workers)


@pytest.mark.parametrize("command", _CONFIGURABLE)
def test_an_unknown_config_key_is_a_config_error_naming_it(tmp_path, capsys, command):
    # "rep=3" used to be ignored: the command ran its default repetitions and exited 0.
    config_file = tmp_path / "exp.conf"
    config_file.write_text("epsilon=1\nrep=3\n")
    out = tmp_path / "x.csv"
    assert main([command, "--config", str(config_file), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error[config]" in err and "line 2: unknown key 'rep'" in err
    assert not out.exists()


@pytest.mark.parametrize("command", _CONFIGURABLE)
def test_a_config_file_that_is_not_utf8_text_is_a_config_error(tmp_path, capsys, command):
    # Used to escape as a UnicodeDecodeError traceback.
    config_file = tmp_path / "exp.conf"
    config_file.write_bytes(b"reps=3\n\xff\xfe\x00\n")
    assert main([command, "--config", str(config_file), "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert "error[config]" in err and "exp.conf: not a UTF-8 text file" in err


@pytest.mark.parametrize("target", ["k+2", "k02", "k1_0", "k\u0662", "k2 ", "2", "k0", "K2", ""])
def test_conditional_target_has_one_spelling(tmp_path, capsys, target):
    assert main(["conditional", "--dims", "2", "--epsilon", "4", "--reps", "1", "--n", "200",
                 "--target", target, "--out", str(tmp_path / "c.csv")]) == 2
    err = capsys.readouterr().err
    assert "error[config]" in err and "must look like k2" in err


def test_generate_rejects_a_nan_spread_as_a_domain_error(tmp_path, capsys):
    out = tmp_path / "g.csv"
    assert main(["generate", "--dist", "gaussian", "--d", "3", "--n", "5", "--spread", "nan",
                 "--out", str(out)]) == 3
    assert "error[domain]" in capsys.readouterr().err
    assert not out.exists()


def test_generate_past_memory_is_a_capacity_error(tmp_path, capsys):
    # Used to end in a numpy _ArrayMemoryError traceback with exit 1.
    out = tmp_path / "g.csv"
    assert main(["generate", "--dist", "gaussian", "--d", "100", "--n", "10000000000000",
                 "--out", str(out)]) == 3
    assert "error[domain]: n x d = 10000000000000 x 100 does not fit in memory" in capsys.readouterr().err
    assert not out.exists()


_HUGE = "1" + "0" * 400


@pytest.mark.parametrize("argv, code, message", [
    (["run", "--dataset", "gaussian", "--d", "3", "--n", "50", "--reps", _HUGE], 2, "repetitions must be an integer"),
    (["conditional", "--dims", "2", "--n", "50", "--reps", _HUGE], 2, "repetitions must be an integer"),
    (["default-study", "--dataset", "gaussian", "--d", "3", "--n", "50", "--reps", _HUGE], 2,
     "repetitions must be an integer"),
    (["generate", "--dist", "gaussian", "--d", _HUGE, "--n", "5"], 3, "keys does not fit in memory"),
    (["generate", "--dist", "regime", "--freq-regime", "high", "--mean-regime", "low", "--d", str(10 ** 16),
      "--n", "5"], 3, "keys does not fit in memory"),
    (["bounds", "--n", _HUGE], 3, "n must be at least 1 and a finite float"),
], ids=["run-reps", "conditional-reps", "default-study-reps", "generate-gaussian-d", "generate-regime-d", "bounds-n"])
def test_an_oversize_integer_option_ends_in_a_documented_exit_code(tmp_path, capsys, argv, code, message):
    # Each used to end in a traceback with exit 1: an OverflowError from the grid's range or from 2.0 / n,
    # and the generators' key targets escaping the n x d matrix's capacity guard.
    out = tmp_path / "x.csv"
    assert main(argv + ["--out", str(out)]) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["cost", "--d", ","], ["bounds", "--epsilon", ","], ["bounds", "--epsilon", " "]])
def test_an_empty_number_list_is_a_config_error(capsys, argv):
    # Used to end in an IndexError traceback from printing an empty table.
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error[config]" in err and "no number given" in err


def test_conditional_rejects_dims_that_differ_from_the_dataset_file(tmp_path, capsys):
    # --dims 3 on a 5-key file used to write d=5 rows under a "dims": [3],
    # "n": 100000 header.
    dataset = tmp_path / "ds.csv"
    assert main(["generate", "--dist", "regime", "--freq-regime", "high", "--mean-regime", "low",
                 "--d", "5", "--n", "300", "--seed", "1", "--out", str(dataset)]) == 0
    out = tmp_path / "c.csv"
    base = ["conditional", "--dataset", str(dataset), "--epsilon", "4", "--reps", "1", "--out", str(out)]
    assert main(base + ["--dims", "3"]) == 2
    assert "error[config]" in capsys.readouterr().err and not out.exists()
    assert main(base + ["--dims", "5"]) == 0
    header, rows = parse_table(out)
    assert header["dims"] == [5] and header["n"] == 300 and {row["d"] for row in rows} == {5}


def _no_work(*args, **kwargs):
    raise AssertionError("work started before every option was checked")


def test_conditional_checks_every_dimension_before_any_work(tmp_path, capsys, monkeypatch):
    # --dims 2,13 used to run the whole d=2 grid, then build the 13-key dataset and exit 2.
    for name in ("gen_regime", "load_dataset", "_dataset_from_spec", "run_conditional"):
        monkeypatch.setattr(cli, name, _no_work)
    out = tmp_path / "c.csv"
    for dims in ("2,13", "0,2", "13"):
        assert main(["conditional", "--dims", dims, "--n", "200", "--reps", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error[config]: cannot parse --dims '{dims}': each dimension must lie in 1..12" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["--dims", "8,2", "--target", "k1", "--cond", "k5=1"], "condition key k5 outside domain of size 2"),
    (["--dims", "8,2", "--target", "k6"], "target key 5 outside domain of size 2"),
    (["--dims", "3", "--target", "k2", "--cond", "k2=0"], "target key 1 must not be constrained by the condition"),
])
def test_conditional_checks_target_and_condition_before_any_work(tmp_path, capsys, monkeypatch, argv, message):
    # --dims 8,2 --target k1 --cond k5=1 used to run the whole d=8 grid, then exit 3.
    for name in ("gen_regime", "load_dataset", "_dataset_from_spec", "run_conditional"):
        monkeypatch.setattr(cli, name, _no_work)
    out = tmp_path / "c.csv"
    assert main(["conditional", *argv, "--n", "200", "--reps", "1", "--out", str(out)]) == 3
    assert f"error[domain]: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("header", ['{"n": 0, "d": 3}', '{"n": 5, "d": 0}'])
@pytest.mark.parametrize("command", [["run"], ["conditional", "--dims", "3"]])
def test_a_dataset_file_without_users_or_keys_is_a_domain_error(tmp_path, capsys, monkeypatch, header, command):
    # n = 0 used to write rows of NaN truth and exit 0; d = 0 failed every run cell before exit 3.
    for name in ("run_sweep", "run_conditional"):
        monkeypatch.setattr(cli, name, _no_work)
    dataset = tmp_path / "ds.csv"
    dataset.write_text(f"# kvldp-dataset {header}\n")
    out = tmp_path / "out.csv"
    assert main(command + ["--dataset", str(dataset), "--reps", "1", "--out", str(out)]) == 3
    assert "is 0, but a dataset needs a user and a key" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["default-study", "--dataset", "gaussian", "--vbar=0,0"], "default value 0.0 is given more than once"),
    (["default-study", "--dataset", "regime:high:low", "--vbar", "2"], "default values must lie in [-1, 1]"),
    (["default-study", "--dataset", "gaussian", "--epsilon", "0"], "epsilons must be positive finite reals"),
    (["default-study", "--dataset", "gaussian", "--reps", "0"], "repetitions must be an integer"),
    (["conditional", "--dims", "2,3", "--epsilon", "0"], "epsilons must be positive finite reals"),
    (["conditional", "--dims", "2", "--reps", "0"], "repetitions must be an integer"),
    (["conditional", "--dims", "2", "--dataset", "gaussian", "--workers", "0"], "workers must be an integer"),
], ids=["study-vbar-repeated", "study-vbar-range", "study-epsilon", "study-reps",
        "conditional-epsilon", "conditional-reps", "conditional-workers"])
def test_a_bad_grid_is_a_config_error_before_any_dataset_is_built(tmp_path, capsys, monkeypatch, argv, message):
    # default-study --vbar=0,0 at n=3e5 used to build its dataset and exit 2 only after 1.24 s.
    for name in ("gen_regime", "gen_synthetic", "load_dataset"):
        monkeypatch.setattr(cli, name, _no_work)
    out = tmp_path / "x.csv"
    assert main(argv + ["--n", "300000", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error[config]" in err and message in err
    assert not out.exists()


def test_conditional_checks_a_dataset_file_against_every_dimension_before_any_grid(tmp_path, capsys, monkeypatch):
    # --dims 5,3 on a 5-key file used to run the d=5 grid before it rejected 3.
    dataset = tmp_path / "ds.csv"
    assert main(["generate", "--dist", "gaussian", "--d", "5", "--n", "50", "--out", str(dataset)]) == 0
    monkeypatch.setattr(cli, "run_conditional", _no_work)
    out = tmp_path / "c.csv"
    assert main(["conditional", "--dataset", str(dataset), "--dims", "5,3", "--reps", "1", "--out", str(out)]) == 2
    assert "error[config]: --dims 3 does not match the 5 keys of dataset" in capsys.readouterr().err
    assert not out.exists()


def test_a_bad_agg_out_path_keeps_the_conditional_table(tmp_path, capsys):
    # --out used to be written after --agg-out, so a bad --agg-out lost the run,
    # and the error named a hidden temporary file.
    out = tmp_path / "c.csv"
    agg_out = tmp_path / "nodir" / "a.txt"
    assert main(["conditional", "--dims", "2", "--n", "200", "--reps", "1", "--out", str(out),
                 "--agg-out", str(agg_out)]) == 4
    err = capsys.readouterr().err
    assert f"error[io]: cannot write {agg_out}:" in err and ".tmp" not in err
    _, rows = parse_table(out)
    assert {row["d"] for row in rows} == {2}


@pytest.mark.parametrize("argv, message", [
    (["generate", "--d", "3", "--n", "5"], "--dist is required for generate"),
    (["generate", "--dist", "gaussian", "--n", "x"], "cannot parse --n 'x'"),
    (["generate", "--dist", "lognormal"], "cannot parse --dist 'lognormal'"),
    (["generate", "--dist", "regime", "--freq-regime", "bogus", "--mean-regime", "low"],
     "cannot parse --freq-regime 'bogus'"),
    (["generate", "--dist", "uniform", "--spread", "wide"], "cannot parse --spread 'wide'"),
    (["ingest", "--top-k", "2"], "--input is required for ingest"),
    (["ingest", "--input", "RATINGS", "--top-k", "x"], "cannot parse --top-k 'x'"),
    (["ingest", "--input", "RATINGS", "--scale", "1"], "cannot parse --scale '1': needs exactly two numbers"),
    (["ingest", "--input", "RATINGS", "--max-rows", "1.5"], "cannot parse --max-rows '1.5'"),
    (["bounds", "--n", "x"], "cannot parse --n 'x'"),
    (["bounds", "--delta", "small"], "cannot parse --delta 'small'"),
    (["cost", "--d", "x"], "cannot parse --d 'x'"),
])
def test_newly_tabled_commands_report_bad_options_as_config_errors_before_any_work(
        tmp_path, capsys, monkeypatch, argv, message):
    # Each of these used to be an argparse usage error, or reached the body before failing.
    for name in ("gen_synthetic", "gen_regime", "ingest_ratings", "theoretical_bound", "report_size_bits"):
        monkeypatch.setattr(cli, name, _no_work)
    ratings = tmp_path / "ratings.csv"
    ratings.write_text("u1,a,5\n")
    out = tmp_path / "x.csv"
    argv = [str(ratings) if arg == "RATINGS" else arg for arg in argv]
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"error[config]: {message}" in captured.err and captured.out == ""
    assert not out.exists()


_CONFIG_KEYS = sorted({key for command in _CONFIGURABLE for key in cli.OPTIONS[command]})
_CONFIG_LINES = st.one_of(
    st.tuples(st.sampled_from(_CONFIG_KEYS), st.sampled_from(["=", " = "]),
              st.text("0123456789.,-+ek:regimhlowcsvjnaf\u0662 ", max_size=8)).map("".join),
    st.sampled_from(["", "  ", "# comment", "rep=3", "=1", "reps"]),
    st.text(max_size=12),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_CONFIGURABLE), st.lists(_CONFIG_LINES, max_size=4).map("\n".join))
def test_config_file_fuzz_ends_in_resolved_options_or_a_config_error(tmp_path_factory, command, text):
    config_file = tmp_path_factory.mktemp("conf") / "exp.conf"
    config_file.write_text(text, encoding="utf-8", newline="")
    try:
        options = _options_of([command, "--config", str(config_file), "--out", "x.csv"])
    except ConfigError:
        return
    assert set(vars(options)) == set(cli.OPTIONS[command]) and options.out == "x.csv"


# Per table option, valid values and edge values: zero, negatives, NaN, inf,
# overflow, empty lists, repeated grid values, junk, and paths that are
# missing, unwritable or not the expected kind of file.  A value starting
# with @ names a file in the example's own directory.  --n, --reps and --workers are always given,
# so a run stays at n <= 40, one repetition and at most 2 workers; so are
# the required options, so that most lines reach a run.
_NUMBERS = ["0", "-1", "nan", "inf", "1e300", ",", "x"]
_COUNTS = (["1", "2"], ["0", "-1", "x"])
_FUZZ_VALUES = {
    "n": (["1", "2", "40"], ["0", "-3", "1e3", "x", _HUGE]),
    "d": (["1", "3", "12"], ["0", "-1", "2,3", "x", _HUGE]),
    "reps": (["1"], ["0", "-1", "x", _HUGE]), "workers": (["1", "2"], ["0", "x"]),
    "seed": (["0", "7"], ["-1", "18446744073709551616", "x"]),
    "epsilon": (["0.5", "4", "1,4"], [*_NUMBERS, "1,1"]), "vbar": (["0.5"], [*_NUMBERS, "0.5,1", "0,0"]),
    "delta": (["0.05"], _NUMBERS), "f": (["0.5"], _NUMBERS), "spread": (["0.1", "0"], _NUMBERS),
    "dims": (["2", "1", "3,2", "8,2"], ["13", "0", ",", "x", "3,3"]),
    "target": (["k1", "k2"], ["k6", "k0", "k01", "", "x"]),
    "cond": (["k2=1", "k1=0", ""], ["k5=1", "k2=1,k2=0", "k2=2", "x"]),
    "mechanisms": (["kvue", "f2m,kvoh", "privkv"], [",", "x", "kvue,kvue"]),
    "format": (["csv", "json"], ["x"]), "dist": (["gaussian", "uniform", "regime"], ["x"]),
    "freq-regime": (["high", "extreme_low"], ["x"]), "mean-regime": (["low"], ["x"]),
    "top-k": (["1", "3"], ["0", "-1", "x"]), "scale": (["1,5"], ["5,1", "1", "nan,5", "x"]),
    "max-rows": _COUNTS, "max-users": _COUNTS,
    "out": (["@out.csv", "@ds.csv"], ["@nodir/out.csv", "@"]),
    "input": (["@ratings.csv"], ["@missing.csv", "@ds.csv", "@"]),
    "dataset": (["gaussian", "uniform", "regime:high:low", "@ds.csv"], ["regime:x", "@missing.csv", "@ratings.csv", "@"]),
}
_ALWAYS = ("n", "reps", "workers")


@st.composite
def _fuzz_argv(draw):
    """A command line of one subcommand in which at most one option takes an edge value."""
    command = draw(st.sampled_from(sorted(cli.OPTIONS)))
    names = list(cli.OPTIONS[command])
    edge = draw(st.sampled_from([None, *names]))
    argv = [command]
    for name in names:
        valid, edges = _FUZZ_VALUES[name]
        if name == edge or name in _ALWAYS or cli.OPTIONS[command][name][1] is ... or draw(st.booleans()):
            argv += [f"--{name}", draw(st.sampled_from(edges if name == edge else valid))]
    if command == "conditional" and draw(st.booleans()):
        argv += ["--agg-out", draw(st.sampled_from(["@agg.txt", "@nodir/agg.txt"]))]
    return argv


@settings(max_examples=70, deadline=None)
@given(_fuzz_argv())
def test_argv_fuzz_ends_in_a_documented_exit_code(tmp_path_factory, argv):
    folder = tmp_path_factory.mktemp("argv")
    (folder / "ratings.csv").write_text("user,item,rating\nu1,a,5\nu2,a,1\nu2,b,3\n")
    assert main(["generate", "--dist", "gaussian", "--d", "3", "--n", "20", "--out", str(folder / "ds.csv")]) == 0
    argv = [str(folder / arg[1:]) if arg.startswith("@") else arg for arg in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # an argparse usage error
        code = exc.code
    assert code in (0, 2, 3, 4), argv
