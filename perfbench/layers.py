"""Per-layer measurements for the traced run.

The single-key cell is recomposed from the layer functions, in the order
``estimate_population`` runs them: encode -> tally -> decode (the decoder
plus ``stats_from_estimates``).  Each recomposed cell must reproduce
``run_single``'s frequency, mean and defined arrays exactly on the same
substream, so the layer timings describe the program that runs.  A layer
function that no longer exists makes its metrics missing rather than
stopping the run.
"""

from __future__ import annotations

import os

import numpy as np

import kvldp.conditional as conditional
import kvldp.mechanisms as mechanisms
from kvldp import PrivacyBudget, RandomSource, run_single, save_dataset
from kvldp.harness import DEFAULT_EPSILON_GRID, MECHANISMS, write_trace

from spans import high_percentile, median, philox_position

CELL_SAMPLES = 40    # per mechanism; p75 then has ten samples beyond it
COND_SAMPLES = 10    # per dimension
SWEEP_TAG = 1        # run_sweep's stream tag, reused so cells match its law


class MissingLayer(LookupError):
    """A layer function the recomposition needs is not in the program."""


def _fn(module, name):
    fn = getattr(module, name, None)
    if fn is None:
        raise MissingLayer(f"{module.__name__}.{name}")
    return fn


def encode(mechanism, values, epsilon, g, vbar):
    m = mechanisms
    if mechanism in ("privkv", "privkv-improved"):
        return _fn(m, "lpp_encode_population")(values, PrivacyBudget.split(epsilon), g)
    if mechanism == "f2m":
        return _fn(m, "f2m_encode_population")(values, PrivacyBudget.split(epsilon), vbar, g)
    if mechanism == "kvue":
        return _fn(m, "kvue_encode_population")(values, epsilon, g)
    return _fn(m, "kvoh_encode_population")(values, epsilon, g)


def tally(mechanism, encoded, d):
    m = mechanisms
    if mechanism == "f2m":
        return _fn(m, "tally_f2m")(encoded.key_index, encoded.key_bits, encoded.signs, d)
    if mechanism == "kvoh":
        return _fn(m, "tally_kvoh")(encoded.key_index, encoded.bits, d)
    return _fn(m, "tally_ternary")(encoded.key_index, encoded.states, d)


def decode(mechanism, tallied, epsilon, vbar):
    """Decoder plus stats_from_estimates: (frequency, mean, mean_defined) per key."""
    m = mechanisms
    stats = _fn(m, "stats_from_estimates")
    if mechanism in ("privkv", "privkv-improved"):
        budget = PrivacyBudget.split(epsilon)
        if mechanism == "privkv":
            return _fn(m, "privkv_decode_original_array")(tallied, budget)
        return stats(_fn(m, "privkv_decode_improved_array")(tallied, budget), tallied.sum(axis=1))
    if mechanism == "f2m":
        ones, totals, pos, neg = tallied
        return _fn(m, "f2m_decode_array")(ones, totals, pos, neg, PrivacyBudget.split(epsilon), vbar)
    if mechanism == "kvue":
        return stats(_fn(m, "kvue_decode_array")(tallied, epsilon), tallied.sum(axis=1))
    sums, totals = tallied
    return stats(_fn(m, "kvoh_decode_array")(sums, totals, epsilon), totals)


def _timing(out, name, samples, scale, spread=False):
    out[name] = median(samples) * scale
    if spread:
        out[name + ".p75"] = high_percentile(samples) * scale
        out[name + ".n"] = len(samples)


def mechanism_layers(protocol, seed, tr, out, missing, gates):
    """Recompose CELL_SAMPLES cells per mechanism and time run_single on each one's substream."""
    ds, truth = protocol.ds, protocol.truth
    root = RandomSource(seed)
    vbar = 1.0
    cell_ms, overhead_ms, substream_s, unattributed_s = [], [], [], []
    cells = 0
    for mi, mechanism in enumerate(MECHANISMS):
        samples = {"encode": [], "tally": [], "decode": []}
        try:
            for k in range(CELL_SAMPLES):
                ei, rep = k % len(DEFAULT_EPSILON_GRID), k // len(DEFAULT_EPSILON_GRID)
                epsilon = DEFAULT_EPSILON_GRID[ei]
                with tr.span("harness.cell", cell=f"{mechanism}/eps{epsilon:g}/rep{rep}") as cell:
                    with tr.span("core.substream") as sub:
                        g = root.substream(SWEEP_TAG, mi, ei, rep).generator()
                    with tr.span("mechanisms.encode") as enc_span:
                        encoded = encode(mechanism, ds.values, epsilon, g, vbar)
                    with tr.span("mechanisms.tally") as tally_span:
                        tallied = tally(mechanism, encoded, ds.d)
                    with tr.span("mechanisms.decode") as dec_span:
                        frequency, mean, defined = decode(mechanism, tallied, epsilon, vbar)
                g = root.substream(SWEEP_TAG, mi, ei, rep).generator()
                with tr.span("harness.run_single", cell=cell.cell) as single_span:
                    single = run_single(ds, mechanism, epsilon, g, repetition=rep,
                                        default_value=vbar, truth=truth)
                cells += 1
                same = (np.array_equal(frequency, single.frequency, equal_nan=True)
                        and np.array_equal(mean, single.mean, equal_nan=True)
                        and np.array_equal(defined, single.mean_defined))
                if not same:
                    gates.append(f"recomposed {cell.cell} differs from run_single")
                layer_s = enc_span.seconds + tally_span.seconds + dec_span.seconds
                samples["encode"].append(enc_span.seconds)
                samples["tally"].append(tally_span.seconds)
                samples["decode"].append(dec_span.seconds)
                substream_s.append(sub.seconds)
                cell_ms.append(single_span.seconds)
                overhead_ms.append(single_span.seconds - layer_s)
                unattributed_s.append(cell.seconds - layer_s - sub.seconds)
            g = root.substream(SWEEP_TAG, mi, 0, 0).generator()
            encode(mechanism, ds.values, DEFAULT_EPSILON_GRID[0], g, vbar)
            words = philox_position(g)
            if words is None:
                missing.append(f"mechanisms.rng_words_per_report.{mechanism}")
            else:
                out[f"mechanisms.rng_words_per_report.{mechanism}"] = words / ds.n
        except MissingLayer as exc:
            missing.append(f"{mechanism}: {exc}")
            continue
        for layer in ("encode", "tally"):
            _timing(out, f"mechanisms.{layer}_ms.{mechanism}", samples[layer], 1e3, spread=True)
        _timing(out, f"mechanisms.decode_ms.{mechanism}", samples["decode"], 1e3)
    if cell_ms:
        _timing(out, "harness.cell_ms", cell_ms, 1e3, spread=True)
        _timing(out, "harness.cell_overhead_ms", overhead_ms, 1e3)
        _timing(out, "core.substream_us", substream_s, 1e6, spread=True)
        _timing(out, "trace.unattributed_ms", unattributed_s, 1e3)
    return cells


def conditional_layers(cond, seed, tr, out, missing):
    """Index, column simulation, calibration and queries per dimension, on layer-suite streams."""
    root = RandomSource(seed)
    cells = 0
    try:
        index = _fn(conditional, "ioh_index_population")
        simulate = _fn(conditional, "simulate_ioh_bit_sums")
        calibrate = _fn(conditional, "aggregate_from_bit_sums")
    except MissingLayer as exc:
        missing.append(f"conditional: {exc}")
        return cells
    for ds, queries in cond.inputs:
        d = ds.d
        samples = {"index": [], "simulate": [], "calibrate": [], "query": []}
        words = []
        for k in range(COND_SAMPLES):
            epsilon = cond.epsilons[k % len(cond.epsilons)]
            with tr.span("conditional.index", cell=f"d{d}/index{k}") as span:
                index(ds.values, root.substream(d, k, 0).generator())
            samples["index"].append(span.seconds)
            g = root.substream(d, k, 1).generator()
            with tr.span("conditional.cell", cell=f"d{d}/eps{epsilon:g}/s{k}"):
                with tr.span("conditional.simulate") as span:
                    sample = simulate(ds.values, epsilon, g, method="column")
                samples["simulate"].append(span.seconds)
                words.append(philox_position(g))
                with tr.span("conditional.calibrate") as span:
                    agg = calibrate(sample.bit_sums, sample.n_users, d, epsilon)
                samples["calibrate"].append(span.seconds)
                for target, cond_ in queries:
                    with tr.span("conditional.query") as span:
                        conditional.conditional_frequency(agg, target, cond_)
                        conditional.conditional_mean(agg, target, cond_)
                    samples["query"].append(span.seconds)
            cells += 1
        for layer, values in samples.items():
            _timing(out, f"conditional.{layer}_ms.d{d}", values, 1e3)
        if None in words:
            missing.append(f"conditional.rng_words_per_cell.d{d}")
        else:
            out[f"conditional.rng_words_per_cell.d{d}"] = median(words)
        out[f"conditional.positions.d{d}"] = len(agg.values)
    return cells


def records_layers(records, workdir, seed, tr, out):
    """save_dataset and write_trace on their own, beside the traced records unit."""
    with tr.span("datagen.save", cell="records/save"):
        save_dataset(records.reference, os.path.join(workdir, "layer-save.csv"))
    root = RandomSource(seed)
    seconds = []
    for mi, mechanism in enumerate(MECHANISMS):
        with tr.span("harness.write_trace", cell=f"records/trace/{mechanism}") as span:
            write_trace(os.path.join(workdir, f"layer-{mechanism}.txt"), mechanism, records.reference,
                        1.0, root.substream(mi).generator())
        seconds.append(span.seconds)
    out["harness.trace_s"] = median(seconds)
