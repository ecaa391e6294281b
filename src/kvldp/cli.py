"""Command-line front end for dataset generation, sweeps, and bound tables.

Subcommands: generate, ingest, run, conditional, default-study, bounds,
cost.  Options may also come from a plain key=value config file via
--config; explicit flags win over the file.  Exit codes: 0 success,
2 configuration error, 3 domain/capacity error, 4 I/O error.  Any other
exception is a bug: it is not caught, so it exits 1 with a traceback.
"""

from __future__ import annotations

import argparse
import os
import sys

from .conditional import IOH_DIMENSION_CAP, Condition, parse_key_name, save_aggregate
from .core import DomainError, RandomSource
from .datagen import (
    FREQUENCY_REGIMES,
    MEAN_REGIMES,
    gen_regime,
    gen_synthetic,
    ingest_ratings,
    load_dataset,
    save_dataset,
)
from .harness import (
    DEFAULT_EPSILON_GRID,
    DEFAULT_VBAR_GRID,
    ConfigError,
    ExperimentConfig,
    _format_cell,
    check_format,
    check_mechanisms,
    check_method,
    default_value_study,
    default_value_spread_ratio,
    emit,
    first_conditional_aggregate,
    rows_to_dicts,
    run_conditional,
    run_sweep,
    soft_checks,
    summarize,
    write_trace,
)
from .mechanisms import Mechanism, packed_size_bits, report_size_bits, theoretical_bound

_TRACE_TAG = 4
_DATASET_TAG = 9


def _numbers(kind):
    """A parser of comma-separated numbers of one kind; empty items are skipped, but one number is needed."""
    def parse(text):
        if not (numbers := tuple(kind(tok) for tok in text.split(",") if tok.strip())):
            raise ValueError("no number given")
        return numbers
    return parse


def _choice(*names):
    """A parser accepting exactly one of names."""
    def parse(text):
        if text not in names:
            raise ValueError(f"choose from {', '.join(names)}")
        return text
    return parse


def _names(text):
    return text.split(",")


def _dims(text):
    dims = _numbers(int)(text)
    if not all(1 <= d <= IOH_DIMENSION_CAP for d in dims):
        raise ValueError(f"each dimension must lie in 1..{IOH_DIMENSION_CAP}")
    return dims


def _scale(text):
    if len(scale := _numbers(float)(text)) != 2:
        raise ValueError("needs exactly two numbers, min,max")
    return scale


def _parse(name: str, parse, text):
    """parse(text), with any failure a ConfigError naming the option."""
    try:
        return parse(text)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"cannot parse --{name} {text!r}: {exc}") from exc


# The options of every command.  Each name is a long flag (and, for the
# commands that take --config, a config key), mapped to the parser of its
# text and its default; a default of ... marks a required option.  A value
# comes from the flag, else the file, else the default.
_DEFAULTS = ExperimentConfig()
_SIZE = {"d": (int, 100), "n": (int, 100000)}
_DATASET = {"dataset": (str, None), **_SIZE}
_OUTPUT = {"out": (str, None), "format": (check_format, "csv")}
_COMMON = {"seed": (int, _DEFAULTS.seed), "workers": (int, _DEFAULTS.workers),
           "out": (str, ...), "format": _OUTPUT["format"]}
OPTIONS = {
    "generate": {"dist": (_choice("gaussian", "uniform", "regime"), ...),
                 "freq-regime": (_choice(*sorted(FREQUENCY_REGIMES)), None),
                 "mean-regime": (_choice(*sorted(MEAN_REGIMES)), None),
                 **_SIZE, "seed": (int, 0), "spread": (float, 0.1), "out": (str, ...)},
    "ingest": {"input": (str, ...), "top-k": (int, 100), "scale": (_scale, (1.0, 5.0)),
               "max-rows": (int, None), "max-users": (int, None), "out": (str, ...)},
    "run": {**_DATASET, "mechanisms": (_names, _DEFAULTS.mechanisms),
            "epsilon": (_numbers(float), _DEFAULTS.epsilons), "reps": (int, _DEFAULTS.repetitions),
            "vbar": (float, _DEFAULTS.default_value), **_COMMON},
    "conditional": {"dims": (_dims, (2, 4, 8)), "epsilon": (_numbers(float), (4.0,)),
                    "reps": (int, 20), "n": _SIZE["n"], "dataset": (str, None),
                    "target": (parse_key_name, None), "cond": (str, None), "method": (check_method, "column"),
                    **_COMMON},
    "default-study": {**_DATASET, "vbar": (_numbers(float), DEFAULT_VBAR_GRID),
                      "epsilon": (_numbers(float), (0.5, 1.0)), "reps": (int, _DEFAULTS.repetitions),
                      **_COMMON},
    "bounds": {"mechanisms": (_names, ("f2m", "kvue", "kvoh")), "epsilon": (_numbers(float), DEFAULT_EPSILON_GRID),
               "n": (int, 1000), "delta": (float, 0.05), "f": (float, 0.5), **_OUTPUT},
    "cost": {"d": (_numbers(int), (100,)), **_OUTPUT},
}
_HELP = {"dist": "gaussian | uniform | regime (with --freq-regime/--mean-regime)",
         "spread": "half-width of per-user value jitter", "scale": "rating scale min,max"}


def _options(args) -> argparse.Namespace:
    """The table options of args.command, each parsed from its flag, else --config, else defaulted.

    A dash in a name becomes an underscore in its attribute.  An unknown
    --config key, a file that is not UTF-8 text, an unparsable value or a
    missing required option is a ConfigError.
    """
    table = OPTIONS[args.command]
    file_values = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as handle:
                lines = list(handle)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{args.config}: not a UTF-8 text file") from exc
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{args.config}: line {lineno}: expected key=value, got {line!r}")
            key, _, value = (part.strip() for part in line.partition("="))
            if key not in table:
                raise ConfigError(f"{args.config}: line {lineno}: unknown key {key!r} for "
                                  f"{args.command}; known keys: {', '.join(table)}")
            file_values[key] = value
    options = argparse.Namespace()
    for name, (parse, default) in table.items():
        attribute = name.replace("-", "_")
        text = getattr(args, attribute)
        if text is None:
            text = file_values.get(name)
        if text is None and default is ...:
            raise ConfigError(f"--{name} is required for {args.command}")
        setattr(options, attribute, default if text is None else _parse(name, parse, text))
    return options


def _dataset_from_spec(spec, d, n, seed):
    """A path loads a saved dataset; 'gaussian', 'uniform' or 'regime:f:m' generate one."""
    if spec is None:
        raise ConfigError("a dataset is required (--dataset PATH|gaussian|uniform|regime:F:M)")
    spec = str(spec)
    if os.path.exists(spec):
        return load_dataset(spec)
    gen_seed = RandomSource(seed).substream(_DATASET_TAG).stream_id
    if spec in ("gaussian", "uniform"):
        return gen_synthetic(spec, d, n, gen_seed)
    if spec.startswith("regime:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigError(f"regime spec must look like regime:high:low, got {spec!r}")
        return gen_regime(parts[1], parts[2], d, n, gen_seed)
    raise ConfigError(f"dataset {spec!r} is neither an existing file nor a generator spec")


def _sibling_path(out: str, label: str) -> str:
    base, ext = os.path.splitext(out)
    return f"{base}.{label}{ext}"


def _print_failures(failures):
    for failure in failures:
        print(f"cell-failure: {failure}", file=sys.stderr)


def _print_or_emit(rows, opts):
    """Write rows to --out, else print them as an aligned table."""
    if opts.out:
        emit(rows, opts.format, opts.out)
        return
    cells = [{column: _format_cell(value) for column, value in row.items()} for row in rows]
    widths = {c: max(len(c), *(len(r[c]) for r in cells)) for c in cells[0]}
    print("  ".join(c.ljust(widths[c]) for c in widths))
    for row in cells:
        print("  ".join(row[c].ljust(widths[c]) for c in widths))


# ---------------------------------------------------------------------------
# Subcommands: each takes its table options and the parsed command line
# ---------------------------------------------------------------------------


def _cmd_generate(opts, args) -> int:
    if opts.dist == "regime":
        if not opts.freq_regime or not opts.mean_regime:
            raise ConfigError("--dist regime requires --freq-regime and --mean-regime")
        ds = gen_regime(opts.freq_regime, opts.mean_regime, opts.d, opts.n, opts.seed, value_spread=opts.spread)
    else:
        ds = gen_synthetic(opts.dist, opts.d, opts.n, opts.seed, value_spread=opts.spread)
    save_dataset(ds, opts.out)
    print(f"wrote {ds.n} users x {ds.d} keys to {opts.out}")
    return 0


def _cmd_ingest(opts, args) -> int:
    ds = ingest_ratings(opts.input, opts.top_k, rating_scale=opts.scale,
                        max_rows=opts.max_rows, max_users=opts.max_users)
    save_dataset(ds, opts.out)
    print(f"ingested {ds.n} users x {ds.d} keys from {opts.input} to {opts.out}")
    return 0


def _cmd_run(opts, args) -> int:
    config = ExperimentConfig(mechanisms=opts.mechanisms, epsilons=opts.epsilon, repetitions=opts.reps,
                              seed=opts.seed, default_value=opts.vbar, workers=opts.workers)
    ds = _dataset_from_spec(opts.dataset, opts.d, opts.n, opts.seed)
    result = run_sweep(config, ds, per_key=args.per_key)
    _print_failures(result.failures)  # before emit, which refuses a table that every cell failed
    header = {**config.as_dict(), "dataset": ds.provenance}
    emit(rows_to_dicts(result.rows, timing=args.timing), opts.format, opts.out, config=header)
    summary = summarize(result.rows)
    emit(summary, opts.format, _sibling_path(opts.out, "summary"), config=header)
    if args.per_key:
        emit(result.per_key_rows, opts.format, _sibling_path(opts.out, "perkey"), config=header)
    if args.trace:
        os.makedirs(args.trace, exist_ok=True)
        for mi, mechanism in enumerate(config.mechanisms):
            rng = RandomSource(opts.seed).substream(_TRACE_TAG, mi).generator()
            write_trace(os.path.join(args.trace, f"{mechanism}.txt"), mechanism, ds,
                        config.epsilons[0], rng, config.default_value)
    for message in soft_checks(summary):
        print(f"soft-check: {message}", file=sys.stderr)
    print(f"wrote {len(result.rows)} rows to {opts.out}")
    return 0


def _cmd_conditional(opts, args) -> int:
    if opts.cond is not None and opts.target is None:
        raise ConfigError("--cond requires --target")
    loaded = None  # a --dataset file, loaded once and checked against every dimension before any grid
    if opts.dataset is not None and os.path.exists(opts.dataset):
        loaded = load_dataset(opts.dataset)
        if mismatched := [d for d in opts.dims if d != loaded.d]:
            raise ConfigError(f"--dims {mismatched[0]} does not match the {loaded.d} keys of dataset {opts.dataset}")
    if opts.target is not None:  # valid at the smallest dimension, so at every one, before any grid
        Condition.parse(opts.cond or "", min(opts.dims)).augmented(opts.target)
    all_rows, aggregate = [], None
    for di, d in enumerate(opts.dims):
        if loaded is not None:
            ds = loaded
        elif opts.dataset is not None:
            ds = _dataset_from_spec(opts.dataset, d, opts.n, opts.seed)
        else:
            gen_seed = RandomSource(opts.seed).substream(_DATASET_TAG, di).stream_id
            ds = gen_regime("high", "low", d, opts.n, gen_seed)
        queries = None
        if opts.target is not None:
            queries = [(opts.target, Condition.parse(opts.cond or "", ds.d))]
        # --agg-out saves the first grid's cell 0 whole, so that grid draws all 3^d positions.
        rows = run_conditional(ds, opts.epsilon, opts.reps, opts.seed, queries=queries, method=opts.method,
                               workers=opts.workers, full_partition=bool(args.agg_out) and di == 0)
        all_rows.extend(rows)
        _print_failures({"d": ds.d, **failure} for failure in rows.failures)
        if args.agg_out and di == 0:
            # The aggregate is that of cell (epsilons[0], repetition 0); when
            # that cell failed, redrawing it would fail the same way.
            epsilon = opts.epsilon[0]
            if any(f["epsilon"] == epsilon and f["repetition"] == 0 for f in rows.failures):
                print(f"agg-out skipped: cell d={ds.d} epsilon={epsilon!r} repetition=0 failed, "
                      f"{args.agg_out} not written", file=sys.stderr)
            else:
                aggregate = first_conditional_aggregate(ds, epsilon, opts.seed, opts.method)
    emit(all_rows, opts.format, opts.out,
         config={"dims": list(opts.dims), "epsilons": list(opts.epsilon), "repetitions": opts.reps,
                 "seed": opts.seed, "n": ds.n, "method": opts.method})
    print(f"wrote {len(all_rows)} rows to {opts.out}")
    if aggregate is not None:  # after --out, so that a bad --agg-out path keeps the table
        save_aggregate(aggregate, args.agg_out, seed=opts.seed)
    return 0


def _cmd_default_study(opts, args) -> int:
    ds = _dataset_from_spec(opts.dataset, opts.d, opts.n, opts.seed)
    detail, summary, failures = default_value_study(ds, opts.vbar, opts.epsilon, opts.reps, opts.seed,
                                                    workers=opts.workers)
    _print_failures(failures)
    header = {"vbars": list(opts.vbar), "epsilons": list(opts.epsilon), "repetitions": opts.reps,
              "seed": opts.seed, "dataset": ds.provenance}
    emit(detail, opts.format, opts.out, config=header)
    emit(summary, opts.format, _sibling_path(opts.out, "summary"), config=header)
    for epsilon, ratio in sorted(default_value_spread_ratio(summary).items()):
        print(f"eps={epsilon:g}: mean-AE max/min across default values = {ratio:.3f}")
    return 0


def _cmd_bounds(opts, args) -> int:
    rows = []
    for entry in check_mechanisms(opts.mechanisms):
        for epsilon in opts.epsilon:
            freq_bound, mean_bound = theoretical_bound(entry.mechanism, epsilon, opts.n, opts.delta, opts.f)
            rows.append({
                "mechanism": entry.mechanism.value, "epsilon": epsilon, "n": opts.n,
                "delta": opts.delta, "f_k": opts.f,
                "freq_bound": freq_bound,
                "mean_bound": mean_bound if mean_bound != float("inf") else "vacuous",
            })
    _print_or_emit(rows, opts)
    return 0


def _cmd_cost(opts, args) -> int:
    _print_or_emit([{"d": d, "mechanism": mechanism.value, "nominal_bits": report_size_bits(mechanism, d),
                     "packed_bits": packed_size_bits(mechanism, d)}
                    for d in opts.d for mechanism in Mechanism], opts)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# Each command's handler, its help line and its command-line-only flags.
_CONFIG = {"--config": {"help": "key=value file supplying defaults for the flags above"}}
_COMMANDS = {
    "generate": (_cmd_generate, "write a synthetic dataset file", {}),
    "ingest": (_cmd_ingest, "build a dataset from a user,item,rating file", {}),
    "run": (_cmd_run, "mechanism x epsilon x repetition sweep", {
        **_CONFIG, "--per-key": {"action": "store_true", "help": "also write per-key estimate rows"},
        "--timing": {"action": "store_true", "help": "include wall-time column (breaks byte determinism)"},
        "--trace": {"help": "directory for wire-format report traces (first epsilon)"}}),
    "conditional": (_cmd_conditional, "conditional frequency/mean experiment vs oracle", {
        **_CONFIG, "--agg-out": {"help": "persist the first cell's calibrated aggregate vector"}}),
    "default-study": (_cmd_default_study, "f2m default-value sensitivity study", _CONFIG),
    "bounds": (_cmd_bounds, "print closed-form error bound tables", {}),
    "cost": (_cmd_cost, "per-report communication cost table", {}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kvldp",
                                     description="Locally private key-value collection simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, summary, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for name in OPTIONS[command]:
            p.add_argument(f"--{name}", help=_HELP.get(name))
        for flag, settings in flags.items():
            p.add_argument(flag, **settings)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(_options(args), args)
    except ConfigError as exc:
        print(f"error[config]: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error[domain]: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
