"""End-to-end CLI tests driving kvldp.cli.main with in-process argv."""

import argparse
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvldp import cli
from kvldp.cli import main
from kvldp.conditional import Condition, conditional_frequency, conditional_mean, load_aggregate
from kvldp.datagen import load_dataset
from kvldp.harness import ConfigError, ExperimentConfig, parse_table


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
    "run": {"--dataset", "--mechanisms", "--epsilon", "--reps", "--seed", "--vbar", "--workers", "--d",
            "--n", "--out", "--format", "--config", "--per-key", "--timing", "--trace"},
    "conditional": {"--dims", "--epsilon", "--reps", "--seed", "--n", "--dataset", "--target", "--cond",
                    "--method", "--workers", "--out", "--format", "--config", "--agg-out"},
    "default-study": {"--dataset", "--vbar", "--epsilon", "--reps", "--seed", "--workers", "--d", "--n",
                      "--out", "--format", "--config"},
}
_COMMAND_LINE_ONLY = {"--config", "--per-key", "--timing", "--trace", "--agg-out"}


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


@pytest.mark.parametrize("command", sorted(_LONG_FLAGS))
def test_an_unknown_config_key_is_a_config_error_naming_it(tmp_path, capsys, command):
    # "rep=3" used to be ignored: the command ran its default repetitions and exited 0.
    config_file = tmp_path / "exp.conf"
    config_file.write_text("epsilon=1\nrep=3\n")
    out = tmp_path / "x.csv"
    assert main([command, "--config", str(config_file), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error[config]" in err and "line 2: unknown key 'rep'" in err
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(_LONG_FLAGS))
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


_CONFIG_KEYS = sorted({key for table in cli.OPTIONS.values() for key in table})
_CONFIG_LINES = st.one_of(
    st.tuples(st.sampled_from(_CONFIG_KEYS), st.sampled_from(["=", " = "]),
              st.text("0123456789.,-+ek:regimhlowcsvjnaf\u0662 ", max_size=8)).map("".join),
    st.sampled_from(["", "  ", "# comment", "rep=3", "=1", "reps"]),
    st.text(max_size=12),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_LONG_FLAGS)), st.lists(_CONFIG_LINES, max_size=4).map("\n".join))
def test_config_file_fuzz_ends_in_resolved_options_or_a_config_error(tmp_path_factory, command, text):
    config_file = tmp_path_factory.mktemp("conf") / "exp.conf"
    config_file.write_text(text, encoding="utf-8", newline="")
    try:
        options = _options_of([command, "--config", str(config_file), "--out", "x.csv"])
    except ConfigError:
        return
    assert set(vars(options)) == set(cli.OPTIONS[command]) and options.out == "x.csv"
