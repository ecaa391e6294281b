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

from .conditional import Condition, parse_key_name, save_aggregate
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


def _parse(name: str, parse, text):
    """parse(text), with any failure a ConfigError naming the option."""
    try:
        return parse(text)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"cannot parse --{name} {text!r}: {exc}") from exc


# The options of run, conditional and default-study.  Each name is a long
# flag and a --config key, mapped to the parser of its text and its
# default; a value comes from the flag, else the file, else the default.
_DEFAULTS = ExperimentConfig()
_DATASET = {"dataset": (str, None), "d": (int, 100), "n": (int, 100000)}
_COMMON = {"seed": (int, _DEFAULTS.seed), "workers": (int, _DEFAULTS.workers),
           "out": (str, None), "format": (check_format, "csv")}
OPTIONS = {
    "run": {**_DATASET, "mechanisms": (lambda text: text.split(","), _DEFAULTS.mechanisms),
            "epsilon": (_numbers(float), _DEFAULTS.epsilons), "reps": (int, _DEFAULTS.repetitions),
            "vbar": (float, _DEFAULTS.default_value), **_COMMON},
    "conditional": {"dims": (_numbers(int), (2, 4, 8)), "epsilon": (_numbers(float), (4.0,)),
                    "reps": (int, 20), "n": _DATASET["n"], "dataset": (str, None),
                    "target": (parse_key_name, None), "cond": (str, None), "method": (check_method, "column"),
                    **_COMMON},
    "default-study": {**_DATASET, "vbar": (_numbers(float), DEFAULT_VBAR_GRID),
                      "epsilon": (_numbers(float), (0.5, 1.0)), "reps": (int, _DEFAULTS.repetitions),
                      **_COMMON},
}


def _options(args) -> argparse.Namespace:
    """The table options of args.command, each parsed from its flag, else --config, else defaulted.

    An unknown --config key, a file that is not UTF-8 text, an unparsable
    value, a missing --out or an unknown --format is a ConfigError.
    """
    table = OPTIONS[args.command]
    file_values = {}
    if args.config:
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
        text = getattr(args, name)
        if text is None:
            text = file_values.get(name)
        setattr(options, name, default if text is None else _parse(name, parse, text))
    if options.out is None:
        raise ConfigError(f"--out is required for {args.command}")
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


def _print_table(rows):
    columns = list(rows[0].keys())
    widths = {c: max(len(c), *(len(_cell(r[c])) for r in rows)) for c in columns}
    print("  ".join(c.ljust(widths[c]) for c in columns))
    for row in rows:
        print("  ".join(_cell(row[c]).ljust(widths[c]) for c in columns))


def _cell(value) -> str:
    if isinstance(value, float):
        return "%.6g" % value
    return str(value)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_generate(args) -> int:
    seed, d, n = (_parse(name, int, getattr(args, name)) for name in ("seed", "d", "n"))
    if args.dist in ("gaussian", "uniform"):
        ds = gen_synthetic(args.dist, d, n, seed, value_spread=args.spread)
    elif args.dist == "regime":
        if not args.freq_regime or not args.mean_regime:
            raise ConfigError("--dist regime requires --freq-regime and --mean-regime")
        ds = gen_regime(args.freq_regime, args.mean_regime, d, n, seed, value_spread=args.spread)
    else:
        raise ConfigError(f"unknown distribution {args.dist!r}")
    save_dataset(ds, args.out)
    print(f"wrote {ds.n} users x {ds.d} keys to {args.out}")
    return 0


def _cmd_ingest(args) -> int:
    scale = _parse("scale", _numbers(float), args.scale)
    if len(scale) != 2:
        raise ConfigError(f"--scale needs exactly two numbers, got {args.scale!r}")
    ds = ingest_ratings(args.input, args.top_k, rating_scale=scale,
                        max_rows=args.max_rows, max_users=args.max_users)
    save_dataset(ds, args.out)
    print(f"ingested {ds.n} users x {ds.d} keys from {args.input} to {args.out}")
    return 0


def _cmd_run(args) -> int:
    opts = _options(args)
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


def _cmd_conditional(args) -> int:
    opts = _options(args)
    if opts.cond is not None and opts.target is None:
        raise ConfigError("--cond requires --target")
    all_rows = []
    for di, d in enumerate(opts.dims):
        if opts.dataset is not None:
            ds = _dataset_from_spec(opts.dataset, d, opts.n, opts.seed)
            if ds.d != d:
                raise ConfigError(f"--dims {d} does not match the {ds.d} keys of dataset {opts.dataset}")
        else:
            gen_seed = RandomSource(opts.seed).substream(_DATASET_TAG, di).stream_id
            ds = gen_regime("high", "low", d, opts.n, gen_seed)
        queries = None
        if opts.target is not None:
            queries = [(opts.target, Condition.parse(opts.cond or "", ds.d))]
        rows = run_conditional(ds, opts.epsilon, opts.reps, opts.seed, queries=queries,
                               method=opts.method, workers=opts.workers)
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
                save_aggregate(first_conditional_aggregate(ds, epsilon, opts.seed, opts.method),
                               args.agg_out, seed=opts.seed)
    emit(all_rows, opts.format, opts.out,
         config={"dims": list(opts.dims), "epsilons": list(opts.epsilon), "repetitions": opts.reps,
                 "seed": opts.seed, "n": ds.n, "method": opts.method})
    print(f"wrote {len(all_rows)} rows to {opts.out}")
    return 0


def _cmd_default_study(args) -> int:
    opts = _options(args)
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


def _cmd_bounds(args) -> int:
    check_format(args.format)
    mechanisms = [entry.mechanism for entry in check_mechanisms(str(args.mechanisms).split(","))]
    epsilons = _parse("epsilon", _numbers(float), args.epsilon)
    rows = []
    for mechanism in mechanisms:
        for epsilon in epsilons:
            freq_bound, mean_bound = theoretical_bound(mechanism, epsilon, args.n, args.delta, args.f)
            rows.append({
                "mechanism": mechanism.value, "epsilon": epsilon, "n": args.n,
                "delta": args.delta, "f_k": args.f,
                "freq_bound": freq_bound,
                "mean_bound": mean_bound if mean_bound != float("inf") else "vacuous",
            })
    if args.out:
        emit(rows, args.format, args.out)
    else:
        _print_table(rows)
    return 0


def _cmd_cost(args) -> int:
    check_format(args.format)
    rows = []
    for d in _parse("d", _numbers(int), args.d):
        for mechanism in Mechanism:
            rows.append({
                "d": d,
                "mechanism": mechanism.value,
                "nominal_bits": report_size_bits(mechanism, d),
                "packed_bits": packed_size_bits(mechanism, d),
            })
    if args.out:
        emit(rows, args.format, args.out)
    else:
        _print_table(rows)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_options(parser, command: str):
    for name in OPTIONS[command]:
        parser.add_argument(f"--{name}")
    parser.add_argument("--config", help="key=value file supplying defaults for the flags above")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kvldp",
                                     description="Locally private key-value collection simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic dataset file")
    p.add_argument("--dist", required=True,
                   help="gaussian | uniform | regime (with --freq-regime/--mean-regime)")
    p.add_argument("--freq-regime", choices=sorted(FREQUENCY_REGIMES))
    p.add_argument("--mean-regime", choices=sorted(MEAN_REGIMES))
    p.add_argument("--d", default=100)
    p.add_argument("--n", default=100000)
    p.add_argument("--seed", default=0)
    p.add_argument("--spread", type=float, default=0.1, help="half-width of per-user value jitter")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("ingest", help="build a dataset from a user,item,rating file")
    p.add_argument("--input", required=True)
    p.add_argument("--top-k", type=int, default=100)
    p.add_argument("--scale", default="1,5", help="rating scale min,max")
    p.add_argument("--max-rows", type=int)
    p.add_argument("--max-users", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("run", help="mechanism x epsilon x repetition sweep")
    _add_options(p, "run")
    p.add_argument("--per-key", action="store_true", help="also write per-key estimate rows")
    p.add_argument("--timing", action="store_true", help="include wall-time column (breaks byte determinism)")
    p.add_argument("--trace", help="directory for wire-format report traces (first epsilon)")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("conditional", help="conditional frequency/mean experiment vs oracle")
    _add_options(p, "conditional")
    p.add_argument("--agg-out", help="persist the first cell's calibrated aggregate vector")
    p.set_defaults(func=_cmd_conditional)

    p = sub.add_parser("default-study", help="f2m default-value sensitivity study")
    _add_options(p, "default-study")
    p.set_defaults(func=_cmd_default_study)

    p = sub.add_parser("bounds", help="print closed-form error bound tables")
    p.add_argument("--mechanisms", default="f2m,kvue,kvoh")
    p.add_argument("--epsilon", default=",".join(map(str, DEFAULT_EPSILON_GRID)))
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--f", type=float, default=0.5)
    p.add_argument("--out")
    p.add_argument("--format", default="csv")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("cost", help="per-report communication cost table")
    p.add_argument("--d", default="100")
    p.add_argument("--out")
    p.add_argument("--format", default="csv")
    p.set_defaults(func=_cmd_cost)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
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
