"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are fixed here and nowhere else: Monte-Carlo means sit
within 4 sample standard errors, closed forms reproduce to 1e-10
relative, likelihood-ratio audits to 1e-12 relative, and runtime caps
follow the stated targets.
"""

import math
import time

import numpy as np
import pytest

from kvldp.conditional import (
    Condition,
    aggregate_from_bit_sums,
    conditional_frequency,
    conditional_mean,
    ioh_index_population,
    simulate_ioh_bit_sums,
)
from kvldp.core import PrivacyBudget, RandomSource
from kvldp.datagen import Dataset, gen_regime, gen_synthetic, true_conditional, true_stats
from kvldp.harness import (
    ExperimentConfig,
    default_value_spread_ratio,
    default_value_study,
    emit,
    key_sampling_tolerance,
    rows_to_dicts,
    run_single,
    run_sweep,
    soft_checks,
    summarize,
)
from kvldp.mechanisms import (
    ABSENT,
    NEG,
    POS,
    Mechanism,
    count_deviation_bound,
    f2m_channel,
    kvoh_bit_channel,
    kvoh_channel,
    kvoh_decode_array,
    kvoh_encode_population,
    kvue_channel,
    kvue_decode_array,
    kvue_encode_population,
    lpp_channel,
    lpp_encode_population,
    privkv_decode_improved_array,
    report_size_bits,
    tally_kvoh,
    tally_ternary,
    theoretical_bound,
    worst_case_ratio,
)

EPS_GRID = (0.5, 1.0, 2.0)
TRUE_STATES = {"absent": 350, "pos": 400, "neg": 250}  # N = 1000


def _report(number, name, detail):
    print(f"ACCEPTANCE {number} ({name}): PASS - {detail}")


def _state_population():
    column = np.concatenate([
        np.full(TRUE_STATES["pos"], 1.0),
        np.full(TRUE_STATES["neg"], -1.0),
        np.full(TRUE_STATES["absent"], np.nan),
    ])
    return column[:, None]


def test_criterion_1_unbiasedness():
    start = time.perf_counter()
    rounds = 500
    values = _state_population()
    truth = np.array([TRUE_STATES["neg"], TRUE_STATES["absent"], TRUE_STATES["pos"]], dtype=float)
    checks = 0

    def assert_unbiased(samples, target, label):
        nonlocal checks
        stderr = samples.std(ddof=1) / math.sqrt(len(samples))
        assert abs(samples.mean() - target) <= 4 * stderr, (
            f"{label}: mean {samples.mean():.2f} vs {target} (se {stderr:.3f})")
        checks += 1

    for eps_index, eps in enumerate(EPS_GRID):
        budget = PrivacyBudget.split(2 * eps)  # eps1 = eps2 = eps
        privkv_samples = np.empty((rounds, 3))
        kvue_samples = np.empty((rounds, 3))
        kvoh_samples = np.empty((rounds, 3))
        for r in range(rounds):
            enc = lpp_encode_population(values, budget, RandomSource(1000, r * 31 + eps_index).generator())
            privkv_samples[r] = privkv_decode_improved_array(
                tally_ternary(enc.key_index, enc.states, 1), budget)[0]
            enc = kvue_encode_population(values, eps, RandomSource(2000, r * 31 + eps_index).generator())
            kvue_samples[r] = kvue_decode_array(tally_ternary(enc.key_index, enc.states, 1), eps)[0]
            enc = kvoh_encode_population(values, eps, RandomSource(3000, r * 31 + eps_index).generator())
            sums, totals = tally_kvoh(enc.key_index, enc.bits, 1)
            kvoh_samples[r] = kvoh_decode_array(sums, totals, eps)[0]
        for digit, label in ((NEG, "neg"), (ABSENT, "absent"), (POS, "pos")):
            assert_unbiased(privkv_samples[:, digit], truth[digit], f"privkv-improved {label} eps={eps}")
            assert_unbiased(kvue_samples[:, digit], truth[digit], f"kvue {label} eps={eps}")
            assert_unbiased(kvoh_samples[:, digit], truth[digit], f"kvoh {label} eps={eps}")

    # Full-record aggregate: 1000 users over d=2 with deterministic values.
    ioh_values = np.concatenate([
        np.tile([1.0, 1.0], (400, 1)),
        np.tile([-1.0, np.nan], (250, 1)),
        np.tile([np.nan, 1.0], (200, 1)),
        np.tile([np.nan, np.nan], (150, 1)),
    ])
    ioh_truth = np.bincount(ioh_index_population(ioh_values, RandomSource(0).generator()), minlength=9)
    for eps_index, eps in enumerate(EPS_GRID):
        samples = np.empty((rounds, 9))
        for r in range(rounds):
            sample = simulate_ioh_bit_sums(ioh_values, eps, RandomSource(4000, r * 31 + eps_index).generator())
            samples[r] = aggregate_from_bit_sums(sample.bit_sums, sample.n_users, 2, eps).values
        for position in range(9):
            assert_unbiased(samples[:, position], float(ioh_truth[position]),
                            f"ioh position {position} eps={eps}")

    elapsed = time.perf_counter() - start
    assert elapsed < 120
    _report(1, "unbiasedness", f"{checks} four-sigma checks over {rounds} rounds in {elapsed:.1f}s")


def test_criterion_2_bound_coverage():
    start = time.perf_counter()
    trials = 500
    delta = 0.05
    values = _state_population()
    report = []
    for mechanism in (Mechanism.KVUE, Mechanism.KVOH):
        bound = count_deviation_bound(mechanism, 1.0, 1000, delta)
        violations = 0
        for r in range(trials):
            rng = RandomSource(5000 if mechanism is Mechanism.KVUE else 6000, r).generator()
            if mechanism is Mechanism.KVUE:
                enc = kvue_encode_population(values, 1.0, rng)
                estimate = kvue_decode_array(tally_ternary(enc.key_index, enc.states, 1), 1.0)[0, POS]
            else:
                enc = kvoh_encode_population(values, 1.0, rng)
                sums, totals = tally_kvoh(enc.key_index, enc.bits, 1)
                estimate = kvoh_decode_array(sums, totals, 1.0)[0, POS]
            if abs(estimate - TRUE_STATES["pos"]) > bound:
                violations += 1
        assert violations <= (delta + 0.02) * trials, f"{mechanism.value}: {violations} violations"
        report.append(f"{mechanism.value} {violations}/{trials}")
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    _report(2, "bound coverage", f"violations {', '.join(report)} (limit 35) in {elapsed:.1f}s")


def test_criterion_3_closed_form_reproduction():
    log40 = math.log(2 / 0.05)
    n = 10**5
    checks = []

    freq, mean = theoretical_bound(Mechanism.KVUE, 1.0, n, 0.05, 0.5)
    checks.append((freq, (math.e + 2) / (math.e - 1) * math.sqrt(2 / n * log40)))
    checks.append((mean, (math.e + 2) * math.sqrt(2 * log40)
                   / ((math.e - 1) * 0.5 * math.sqrt(n) - (math.e + 2) * math.sqrt(2 * log40))))
    assert abs(freq - 0.0236) < 5e-5

    e_half = math.exp(0.5)
    freq, mean = theoretical_bound(Mechanism.KVOH, 1.0, n, 0.05, 0.5)
    checks.append((freq, (e_half + 1) / (e_half - 1) * math.sqrt(2 / n * log40)))
    checks.append((mean, (e_half + 1) * math.sqrt(2 * log40)
                   / (0.5 * (e_half - 1) * math.sqrt(n) - (e_half + 1) * math.sqrt(2 * log40))))

    freq, mean = theoretical_bound(Mechanism.F2M, 1.0, n, 0.05, 0.5)
    checks.append((freq, (math.e + 1) / (math.e - 1) * math.sqrt(log40 / (2 * n))))
    checks.append((mean, 2 * 1.5 * (math.e + 1) * math.sqrt(log40)
                   / (math.sqrt(2 * n) * 0.25 * (math.e - 1) - 0.5 * (math.e - 1) * math.sqrt(log40))))

    checks.append((count_deviation_bound(Mechanism.KVUE, 2.0, 1000, 0.05),
                   (math.exp(2) + 2) / (math.exp(2) - 1) * math.sqrt(500 * log40)))
    checks.append((count_deviation_bound(Mechanism.KVOH, 2.0, 1000, 0.05),
                   (math.e + 1) / (math.e - 1) * math.sqrt(500 * log40)))

    for d in (1, 10, 100, 1000):
        checks.append((report_size_bits(Mechanism.PRIVKV, d), math.log2(3 * d)))
        checks.append((report_size_bits(Mechanism.KVUE, d), math.log2(3 * d)))
        checks.append((report_size_bits(Mechanism.F2M, d), 2 * math.log2(d)))
        checks.append((report_size_bits(Mechanism.KVOH, d), 3 * math.log2(d)))

    # Variance forms: the kvoh estimator variance is exactly
    # N e^{eps/2}/(e^{eps/2}-1)^2; the nominal kvue variance
    # N (e^eps+1)/(e^eps-1)^2 equals the per-report floor b(1-b)/(a-b)^2.
    eps = 2.0
    p_bit = 1 / (1 + math.exp(-eps / 2))
    checks.append((1000 * math.exp(eps / 2) / (math.exp(eps / 2) - 1) ** 2,
                   ((math.exp(eps / 2) + 1) / (math.exp(eps / 2) - 1)) ** 2 * 1000 * p_bit * (1 - p_bit)))
    a = math.exp(eps) / (math.exp(eps) + 2)
    b = 1 / (math.exp(eps) + 2)
    checks.append((1000 * (math.exp(eps) + 1) / (math.exp(eps) - 1) ** 2,
                   1000 * b * (1 - b) / (a - b) ** 2))

    for got, want in checks:
        assert got == pytest.approx(want, rel=1e-10), (got, want)
    _report(3, "closed-form reproduction", f"{len(checks)} formulas at 1e-10 relative")


def test_criterion_4_noiseless_degeneracy():
    start = time.perf_counter()
    ds = gen_regime("middle", "middle", d=100, n=100000, seed=77)
    truth = true_stats(ds)
    tolerance = key_sampling_tolerance(0.6, ds.d, ds.n)
    details = []
    for index, mechanism in enumerate(("privkv", "privkv-improved", "f2m", "kvue", "kvoh")):
        rng = RandomSource(7000).substream(index).generator()
        result = run_single(ds, mechanism, 50.0, rng, truth=truth)
        assert result.row.freq_ae <= tolerance, f"{mechanism}: {result.row.freq_ae} > {tolerance}"
        details.append(f"{mechanism} {result.row.freq_ae:.5f}")
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    _report(4, "noiseless degeneracy",
            f"freq AE vs tolerance {tolerance:.5f}: {', '.join(details)} in {elapsed:.1f}s")


def test_criterion_5_conditional_oracle_equivalence():
    start = time.perf_counter()

    def noiseless_aggregate(values, seed):
        sample = simulate_ioh_bit_sums(values, 50.0, RandomSource(seed).generator(), method="peruser")
        return aggregate_from_bit_sums(sample.bit_sums, sample.n_users, values.shape[1], 50.0)

    # Table-style worked example on the 3-user toy population.
    toy = np.array([
        [1.0, np.nan, -1.0],
        [-1.0, 1.0, 1.0],
        [np.nan, -1.0, -1.0],
    ])
    agg = noiseless_aggregate(toy, seed=8000)
    assert conditional_frequency(agg, 0, Condition.parse("k3=1", 3)) == pytest.approx(2 / 3, abs=1e-6)
    assert conditional_mean(agg, 2, Condition.parse("k1=1", 3)) == pytest.approx(0.0, abs=1e-6)

    # Exhaustive (k, alpha, beta) queries over a random +-1 population, d=4.
    g = RandomSource(8001).generator()
    d = 4
    values = np.where(g.random((50, d)) < 0.5, np.where(g.random((50, d)) < 0.5, 1.0, -1.0), np.nan)
    ds = Dataset(values)
    agg = noiseless_aggregate(values, seed=8002)
    queries = 0
    for k in range(d):
        others = [i for i in range(d) if i != k]
        for pattern in range(3 ** (d - 1)):
            alpha = [0] * d
            beta = [0] * d
            code = pattern
            for i in others:
                state = code % 3
                code //= 3
                if state:  # 0 free, 1 constrained absent, 2 constrained present
                    alpha[i] = 1
                    beta[i] = 1 if state == 2 else 0
            cond = Condition(tuple(alpha), tuple(beta))
            want_freq, want_mean = true_conditional(ds, k, cond)
            got_freq = conditional_frequency(agg, k, cond)
            got_mean = conditional_mean(agg, k, cond)
            for want, got in ((want_freq, got_freq), (want_mean, got_mean)):
                if math.isnan(want):
                    assert math.isnan(got)
                else:
                    assert got == pytest.approx(want, abs=1e-6), (k, cond, want, got)
            queries += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30
    _report(5, "conditional oracle equivalence",
            f"toy examples plus {queries} exhaustive d=4 queries in {elapsed:.1f}s")


def test_criterion_6_protocol_sweep(tmp_path):
    start = time.perf_counter()
    config = ExperimentConfig(repetitions=50, seed=2024, workers=4)
    ordering_cells = 0
    for dist in ("gaussian", "uniform"):
        ds = gen_synthetic(dist, d=100, n=100000, seed=13 if dist == "gaussian" else 14)
        result = run_sweep(config, ds)
        assert len(result.rows) == 5 * 8 * 50
        summary = summarize(result.rows)
        emit(summary, "csv", tmp_path / f"{dist}.summary.csv", config=config.as_dict())
        emit(rows_to_dicts(result.rows), "csv", tmp_path / f"{dist}.csv", config=config.as_dict())

        # Deterministic box-plot statistics: re-emitting reproduces the bytes,
        # and re-running a spot cell reproduces its row.
        emit(summary, "csv", tmp_path / f"{dist}.summary2.csv", config=config.as_dict())
        assert (tmp_path / f"{dist}.summary.csv").read_bytes() == (tmp_path / f"{dist}.summary2.csv").read_bytes()
        truth = true_stats(ds)
        spot = run_single(ds, config.mechanisms[0], config.epsilons[0],
                          RandomSource(config.seed).substream(1, 0, 0, 0).generator(),
                          repetition=0, default_value=config.default_value, truth=truth)
        assert spot.row.as_dict() == result.rows[0].as_dict()

        # Mean estimation is the harder task for eps <= 2 (soft check made hard
        # here because it holds with a wide margin on these datasets).
        violations = soft_checks(summary)
        print(f"  {dist}: soft-check violations: {violations if violations else 'none'}")
        for cell in summary:
            if cell["epsilon"] <= 2.0:
                assert cell["mean_ae_median"] >= cell["freq_ae_median"], cell
                ordering_cells += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 600
    _report(6, "protocol sweep", f"2x2000 cells, ordering held in {ordering_cells} cells, {elapsed:.0f}s < 600s")


def test_criterion_7_default_value_insensitivity():
    start = time.perf_counter()
    ds = gen_synthetic("gaussian", d=100, n=100000, seed=15)
    summary = default_value_study(ds, vbars=(-1.0, -0.5, 0.0, 0.5, 1.0),
                                  epsilons=(0.5, 1.0), repetitions=50, seed=99, workers=4).summary
    ratios = default_value_spread_ratio(summary)
    for epsilon, ratio in ratios.items():
        assert ratio <= 1.5, f"eps={epsilon}: spread ratio {ratio:.3f}"
    elapsed = time.perf_counter() - start
    _report(7, "default-value insensitivity",
            "spread ratios " + ", ".join(f"eps={e:g}:{r:.3f}" for e, r in sorted(ratios.items()))
            + f" (limit 1.5) in {elapsed:.0f}s")


def test_criterion_8_ldp_ratio_audit():
    audits = 0
    for eps in (0.1, 0.5, 1.0, 2.0, 5.0):
        assert worst_case_ratio(kvue_channel(eps)) == pytest.approx(math.exp(eps), rel=1e-12)
        assert worst_case_ratio(kvoh_bit_channel(eps)) == pytest.approx(math.exp(eps / 2), rel=1e-12)
        assert worst_case_ratio(kvoh_channel(eps)) == pytest.approx(math.exp(eps), rel=1e-12)
        audits += 3
    for eps1, eps2 in ((0.5, 0.5), (0.25, 0.75), (1.0, 2.0)):
        budget = PrivacyBudget(eps1, eps2)
        # Independent key/value stages realize exactly e^{eps1} * e^{eps2}.
        assert worst_case_ratio(f2m_channel(budget)) == pytest.approx(math.exp(eps1 + eps2), rel=1e-12)
        # The local perturbation protocol decomposes the same way: the key
        # stage alone realizes e^{eps1}, the value stage e^{eps2}, and the
        # full table stays within the composed product.
        table = lpp_channel(budget)
        key_stage = np.array([
            [table[ABSENT, ABSENT], table[ABSENT, POS] + table[ABSENT, NEG]],
            [table[POS, ABSENT], table[POS, POS] + table[POS, NEG]],
        ])
        assert worst_case_ratio(key_stage) == pytest.approx(math.exp(eps1), rel=1e-12)
        w = math.exp(-eps2)
        value_stage = np.array([[1 / (1 + w), w / (1 + w)], [w / (1 + w), 1 / (1 + w)]])
        assert worst_case_ratio(value_stage) == pytest.approx(math.exp(eps2), rel=1e-12)
        product = worst_case_ratio(key_stage) * worst_case_ratio(value_stage)
        assert product == pytest.approx(math.exp(eps1 + eps2), rel=1e-12)
        assert worst_case_ratio(table) <= product * (1 + 1e-12)
        audits += 5
    _report(8, "ldp ratio audit", f"{audits} worst-case ratios at 1e-12 relative")


def test_criterion_9_determinism(tmp_path):
    ds = gen_regime("middle", "middle", d=20, n=20000, seed=55)
    outputs = {}
    for label, workers in (("w1", 1), ("w8", 8), ("w1b", 1)):
        config = ExperimentConfig(epsilons=(0.5, 2.0), repetitions=3, seed=123, workers=workers)
        result = run_sweep(config, ds)
        detail = tmp_path / f"{label}.csv"
        summary = tmp_path / f"{label}.summary.csv"
        emit(rows_to_dicts(result.rows), "csv", detail, config=config.as_dict())
        emit(summarize(result.rows), "csv", summary, config=config.as_dict())
        outputs[label] = (detail.read_bytes(), summary.read_bytes())
    assert outputs["w1"] == outputs["w8"]
    assert outputs["w1"] == outputs["w1b"]
    _report(9, "determinism", "detail and summary files byte-identical across 1/8 workers and reruns")
