"""Command-line front end for dataset generation, sweeps, and bound tables.

Subcommands: generate, ingest, run, conditional, default-study, bounds,
cost.  Options may also come from a plain key=value config file via
--config; explicit flags win over the file.  Exit codes: 0 success,
2 configuration error, 3 domain/capacity error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .conditional import Condition, save_aggregate
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
    MECHANISMS,
    ConfigError,
    ExperimentConfig,
    check_format,
    check_mechanisms,
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


def _read_config_file(path) -> dict:
    values = {}
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}: line {lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def _resolve(args, config: dict, key: str, fallback=None):
    value = getattr(args, key.replace("-", "_"), None)
    if value is not None:
        return value
    if key in config:
        return config[key]
    return fallback


def _numbers(text, what: str, kind=float):
    try:
        return tuple(kind(tok) for tok in str(text).split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"cannot parse {what} list {text!r}") from exc


def _int(text, what: str) -> int:
    try:
        return int(text)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what} must be an integer, got {text!r}") from exc


def _float(text, what: str) -> float:
    try:
        return float(text)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what} must be a number, got {text!r}") from exc


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


def _dataset(args, file_config: dict, seed):
    """The dataset --dataset names, generated at --d and --n when it is a generator spec."""
    return _dataset_from_spec(_resolve(args, file_config, "dataset"),
                              _int(_resolve(args, file_config, "d", 100), "d"),
                              _int(_resolve(args, file_config, "n", 100000), "n"), seed)


def _sibling_path(out: str, label: str) -> str:
    base, ext = os.path.splitext(out)
    return f"{base}.{label}{ext}"


def _output(args, file_config: dict, command: str):
    """The --out path and checked --format of a command that writes tables."""
    out = _resolve(args, file_config, "out")
    if out is None:
        raise ConfigError(f"--out is required for {command}")
    fmt = str(_resolve(args, file_config, "format", "csv"))
    check_format(fmt)
    return out, fmt


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
    seed = _int(args.seed, "seed")
    d = _int(args.d, "d")
    n = _int(args.n, "n")
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
    scale = _numbers(args.scale, "scale")
    if len(scale) != 2:
        raise ConfigError(f"--scale needs exactly two numbers, got {args.scale!r}")
    ds = ingest_ratings(args.input, args.top_k, rating_scale=scale,
                        max_rows=args.max_rows, max_users=args.max_users)
    save_dataset(ds, args.out)
    print(f"ingested {ds.n} users x {ds.d} keys from {args.input} to {args.out}")
    return 0


def _cmd_run(args) -> int:
    file_config = _read_config_file(args.config) if args.config else {}
    seed = _int(_resolve(args, file_config, "seed", 0), "seed")
    config = ExperimentConfig(
        mechanisms=tuple(str(_resolve(args, file_config, "mechanisms", ",".join(MECHANISMS))).split(",")),
        epsilons=_numbers(_resolve(args, file_config, "epsilon", ",".join(map(str, DEFAULT_EPSILON_GRID))), "epsilon"),
        repetitions=_int(_resolve(args, file_config, "reps", 50), "reps"),
        seed=seed,
        default_value=_float(_resolve(args, file_config, "vbar", 1.0), "vbar"),
        workers=_int(_resolve(args, file_config, "workers", 1), "workers"),
    )
    ds = _dataset(args, file_config, seed)
    out, fmt = _output(args, file_config, "run")
    result = run_sweep(config, ds, per_key=args.per_key)
    header = config.as_dict()
    header["dataset"] = ds.provenance
    emit(rows_to_dicts(result.rows, timing=args.timing), fmt, out, config=header)
    summary = summarize(result.rows)
    emit(summary, fmt, _sibling_path(out, "summary"), config=header)
    if args.per_key:
        emit(result.per_key_rows, fmt, _sibling_path(out, "perkey"), config=header)
    if args.trace:
        os.makedirs(args.trace, exist_ok=True)
        for mi, mechanism in enumerate(config.mechanisms):
            rng = RandomSource(seed).substream(_TRACE_TAG, mi).generator()
            write_trace(os.path.join(args.trace, f"{mechanism}.txt"), mechanism, ds,
                        config.epsilons[0], rng, config.default_value)
    _print_failures(result.failures)
    for message in soft_checks(summary):
        print(f"soft-check: {message}", file=sys.stderr)
    print(f"wrote {len(result.rows)} rows to {out}")
    return 0


def _cmd_conditional(args) -> int:
    file_config = _read_config_file(args.config) if args.config else {}
    seed = _int(_resolve(args, file_config, "seed", 0), "seed")
    dims = _numbers(_resolve(args, file_config, "dims", "2,4,8"), "dims", int)
    epsilons = _numbers(_resolve(args, file_config, "epsilon", "4"), "epsilon")
    reps = _int(_resolve(args, file_config, "reps", 20), "reps")
    n = _int(_resolve(args, file_config, "n", 100000), "n")
    method = str(_resolve(args, file_config, "method", "column"))
    dataset_spec = _resolve(args, file_config, "dataset")
    target = _resolve(args, file_config, "target")
    cond_text = _resolve(args, file_config, "cond")
    out, fmt = _output(args, file_config, "conditional")

    all_rows = []
    for di, d in enumerate(dims):
        if dataset_spec is not None:
            ds = _dataset_from_spec(dataset_spec, d, n, seed)
            if ds.d != d and len(dims) > 1:
                raise ConfigError("an explicit dataset file cannot serve multiple --dims")
        else:
            gen_seed = RandomSource(seed).substream(_DATASET_TAG, di).stream_id
            ds = gen_regime("high", "low", d, n, gen_seed)
        queries = None
        if target is not None or cond_text is not None:
            if target is None:
                raise ConfigError("--cond requires --target")
            if not str(target).startswith("k"):
                raise ConfigError(f"--target must look like k2, got {target!r}")
            k = _int(str(target)[1:], "target key") - 1
            cond = Condition.parse(str(cond_text or ""), ds.d)
            queries = [(k, cond)]
        rows = run_conditional(ds, epsilons, reps, seed, queries=queries, method=method,
                               workers=_int(_resolve(args, file_config, "workers", 1), "workers"))
        all_rows.extend(rows)
        _print_failures({"d": ds.d, **failure} for failure in rows.failures)
        if args.agg_out and di == 0:
            # The aggregate is that of cell (epsilons[0], repetition 0); when
            # that cell failed, redrawing it would fail the same way.
            if any(f["epsilon"] == epsilons[0] and f["repetition"] == 0 for f in rows.failures):
                print(f"agg-out skipped: cell d={ds.d} epsilon={epsilons[0]!r} repetition=0 failed, "
                      f"{args.agg_out} not written", file=sys.stderr)
            else:
                save_aggregate(first_conditional_aggregate(ds, epsilons[0], seed, method), args.agg_out, seed=seed)
    emit(all_rows, fmt, out, config={"dims": list(dims), "epsilons": list(epsilons),
                                     "repetitions": reps, "seed": seed, "n": n, "method": method})
    print(f"wrote {len(all_rows)} rows to {out}")
    return 0


def _cmd_default_study(args) -> int:
    file_config = _read_config_file(args.config) if args.config else {}
    seed = _int(_resolve(args, file_config, "seed", 0), "seed")
    vbars = _numbers(_resolve(args, file_config, "vbar", ",".join(map(str, DEFAULT_VBAR_GRID))), "vbar")
    epsilons = _numbers(_resolve(args, file_config, "epsilon", "0.5,1"), "epsilon")
    reps = _int(_resolve(args, file_config, "reps", 50), "reps")
    ds = _dataset(args, file_config, seed)
    out, fmt = _output(args, file_config, "default-study")
    workers = _int(_resolve(args, file_config, "workers", 1), "workers")
    detail, summary, failures = default_value_study(ds, vbars, epsilons, reps, seed, workers=workers)
    header = {"vbars": list(vbars), "epsilons": list(epsilons), "repetitions": reps,
              "seed": seed, "dataset": ds.provenance}
    emit(detail, fmt, out, config=header)
    emit(summary, fmt, _sibling_path(out, "summary"), config=header)
    _print_failures(failures)
    for epsilon, ratio in sorted(default_value_spread_ratio(summary).items()):
        print(f"eps={epsilon:g}: mean-AE max/min across default values = {ratio:.3f}")
    return 0


def _cmd_bounds(args) -> int:
    mechanisms = [entry.mechanism for entry in check_mechanisms(str(args.mechanisms).split(","))]
    epsilons = _numbers(args.epsilon, "epsilon")
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
    rows = []
    for d in _numbers(args.d, "d", int):
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
    for flag in ("--dataset", "--mechanisms", "--epsilon", "--reps", "--seed", "--vbar",
                 "--workers", "--d", "--n", "--out", "--format"):
        p.add_argument(flag)
    p.add_argument("--config", help="key=value file supplying defaults for the flags above")
    p.add_argument("--per-key", action="store_true", help="also write per-key estimate rows")
    p.add_argument("--timing", action="store_true", help="include wall-time column (breaks byte determinism)")
    p.add_argument("--trace", help="directory for wire-format report traces (first epsilon)")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("conditional", help="conditional frequency/mean experiment vs oracle")
    for flag in ("--dims", "--epsilon", "--reps", "--seed", "--n", "--dataset",
                 "--target", "--cond", "--method", "--workers", "--out", "--format"):
        p.add_argument(flag)
    p.add_argument("--config")
    p.add_argument("--agg-out", help="persist the first cell's calibrated aggregate vector")
    p.set_defaults(func=_cmd_conditional)

    p = sub.add_parser("default-study", help="f2m default-value sensitivity study")
    for flag in ("--dataset", "--vbar", "--epsilon", "--reps", "--seed", "--workers",
                 "--d", "--n", "--out", "--format"):
        p.add_argument(flag)
    p.add_argument("--config")
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
