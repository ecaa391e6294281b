"""Mechanism tests: frozen closed forms, sampling laws, unbiasedness, audits.

Monte-Carlo expectations are frozen from independently evaluated closed
forms (stated next to each assertion); unbiasedness checks compare the
Monte-Carlo mean against the true count at 4 sample standard errors.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvldp.conditional import aggregate_from_bit_sums
from kvldp.core import DomainError, IllConditionedError, PrivacyBudget, RandomSource
from kvldp.mechanisms import (
    ABSENT,
    NEG,
    PAYLOADS,
    POS,
    PROTOCOLS,
    Mechanism,
    Report,
    count_deviation_bound,
    f2m_channel,
    f2m_decode_array,
    f2m_encode_population,
    kvoh_channel,
    kvoh_bit_channel,
    kvoh_decode_array,
    kvoh_encode_population,
    kvue_channel,
    kvue_decode_array,
    kvue_encode_population,
    lpp_channel,
    lpp_encode_population,
    pack_reports,
    packed_size_bits,
    privkv_decode_improved_array,
    privkv_decode_original_array,
    report_size_bits,
    stats_from_estimates,
    tally_f2m,
    tally_kvoh,
    tally_reports,
    tally_ternary,
    theoretical_bound,
    unpack_reports,
    worst_case_ratio,
)

LN3 = math.log(3)


def _population(n_absent, n_pos, n_neg):
    """A d=1 population with deterministic +-1 values and the given state counts."""
    column = np.concatenate([
        np.full(n_pos, 1.0),
        np.full(n_neg, -1.0),
        np.full(n_absent, np.nan),
    ])
    return column[:, None]


def _counts(m_absent, m_pos, m_neg):
    """One key's report tally as a 1-row array indexed by state digit."""
    row = np.zeros((1, 3), dtype=np.int64)
    row[0, ABSENT], row[0, POS], row[0, NEG] = m_absent, m_pos, m_neg
    return row


def _estimates(n_absent, n_pos, n_neg):
    """One key's state-count estimates as a 1-row array indexed by state digit."""
    row = np.zeros((1, 3))
    row[0, ABSENT], row[0, POS], row[0, NEG] = n_absent, n_pos, n_neg
    return row


def _f2m_decode(key_bit_counts, value_sign_counts, budget, default_value):
    """f2m_decode_array on one key: (ones, total) and (+1, -1) counts in, (freq, mean, defined) out."""
    (ones, total), (m_pos, m_neg) = key_bit_counts, value_sign_counts
    frequency, mean, defined = f2m_decode_array(np.array([ones]), np.array([total]), np.array([m_pos]),
                                                np.array([m_neg]), budget, default_value)
    return frequency[0], mean[0], defined[0]


# ---------------------------------------------------------------------------
# Encoders
# ---------------------------------------------------------------------------


def test_lpp_encode_limits():
    g = RandomSource(1).generator()
    budget = PrivacyBudget(50.0, 50.0)
    full = np.ones((200, 4))
    assert (lpp_encode_population(full, budget, g).states == POS).all()
    empty = np.full((200, 4), np.nan)
    assert (lpp_encode_population(empty, budget, g).states == ABSENT).all()


def test_lpp_branch_probabilities():
    # Key present with v=0 and eps1=eps2=ln3: Pr[<0,0>]=0.25 and the +-1
    # branches split the remaining 0.75 evenly (value channel is symmetric
    # at v=0), so Pr[<1,1>] = Pr[<1,-1>] = 0.375.
    budget = PrivacyBudget(LN3, LN3)
    encoded = lpp_encode_population(np.zeros((10**6, 1)), budget, RandomSource(2).generator())
    shares = np.bincount(encoded.states, minlength=3) / 10**6
    assert shares[ABSENT] == pytest.approx(0.25, abs=0.002)
    assert shares[POS] == pytest.approx(0.375, abs=0.002)
    assert shares[NEG] == pytest.approx(0.375, abs=0.002)


def test_f2m_encode_limits_and_independence():
    g = RandomSource(3).generator()
    budget = PrivacyBudget(50.0, 50.0)
    held = f2m_encode_population(np.ones((200, 1)), budget, 1.0, g)
    assert (held.key_bits == 1).all() and (held.signs == 1).all()
    absent = f2m_encode_population(np.full((200, 1), np.nan), budget, 1.0, g)
    # The value sign carries the default value, not zero.
    assert (absent.key_bits == 0).all() and (absent.signs == 1).all()

    budget = PrivacyBudget(LN3, LN3)
    encoded = f2m_encode_population(np.zeros((10**6, 1)), budget, 1.0, RandomSource(4).generator())
    p_key = encoded.key_bits.mean()
    p_sign = (encoded.signs == 1).mean()
    joint = ((encoded.key_bits == 1) & (encoded.signs == 1)).mean()
    assert p_key == pytest.approx(0.75, abs=0.002)
    assert p_sign == pytest.approx(0.5, abs=0.002)
    assert joint == pytest.approx(p_key * p_sign, abs=0.002)


def test_kvue_encode_distribution():
    # eps = ln2 keeps with p = 2/4 = 0.5 and moves to each other state w.p. 0.25.
    values = np.ones((10**6, 1))
    encoded = kvue_encode_population(values, math.log(2), RandomSource(5).generator())
    assert (encoded.true_states == POS).all()
    shares = np.bincount(encoded.states, minlength=3) / 10**6
    assert shares[POS] == pytest.approx(0.5, abs=0.002)
    assert shares[ABSENT] == pytest.approx(0.25, abs=0.002)
    assert shares[NEG] == pytest.approx(0.25, abs=0.002)
    g = RandomSource(6).generator()
    assert (kvue_encode_population(np.ones((200, 1)), 50.0, g).states == POS).all()


def test_population_encoders_reject_bad_epsilon():
    values = np.ones((10, 2))
    g = RandomSource(10).generator()
    for eps in (-2.0, 0.0, math.nan):
        with pytest.raises(DomainError):
            kvue_encode_population(values, eps, g)
        with pytest.raises(DomainError):
            kvoh_encode_population(values, eps, g)


def test_kvoh_encode_distribution():
    g = RandomSource(7).generator()
    encoded = kvoh_encode_population(np.full((200, 1), -1.0), 50.0, g)
    assert (encoded.bits == [1, 0, 0]).all()
    # eps = 2 ln3 keeps each bit w.p. 0.75; Pr[(1,0,0) | NEG] = 0.75^3.
    encoded = kvoh_encode_population(np.full((10**6, 1), -1.0), 2 * LN3, RandomSource(8).generator())
    exact = ((encoded.bits == [1, 0, 0]).all(axis=1)).mean()
    assert exact == pytest.approx(0.75**3, abs=0.002)


# ---------------------------------------------------------------------------
# Decoders: frozen formula examples
# ---------------------------------------------------------------------------


def test_privkv_original_frequency_calibration():
    # p1 = 0.75, observed signed share 0.6 -> (0.75 - 1 + 0.6) / 0.5 = 0.7
    budget = PrivacyBudget(LN3, LN3)
    counts = _counts(m_absent=40, m_pos=30, m_neg=30)  # signed share 60/100
    frequency, _, _ = privkv_decode_original_array(counts, budget)
    assert frequency[0] == pytest.approx(0.7, rel=1e-12)


def test_privkv_original_mean_calibration():
    # p2 = 0.75, N = 100, m_pos = 60, m_neg = 40:
    # n1 = -0.5*100 + 60/0.5 = 70, n2 = -0.5*100 + 40/0.5 = 30, mean 0.4
    budget = PrivacyBudget(LN3, LN3)
    _, mean, defined = privkv_decode_original_array(_counts(m_absent=0, m_pos=60, m_neg=40), budget)
    assert mean[0] == pytest.approx(0.4, rel=1e-12)
    assert defined[0]


def test_privkv_original_noiseless_passthrough():
    budget = PrivacyBudget(50.0, 50.0)
    frequency, mean, _ = privkv_decode_original_array(_counts(m_absent=25, m_pos=45, m_neg=30), budget)
    assert frequency[0] == pytest.approx(0.75, abs=1e-9)
    assert mean[0] == pytest.approx((45 - 30) / 75, abs=1e-9)


def test_privkv_original_degenerate_mean():
    budget = PrivacyBudget(1.0, 1.0)
    _, mean, defined = privkv_decode_original_array(_counts(m_absent=10, m_pos=0, m_neg=0), budget)
    assert not defined[0]
    assert math.isnan(mean[0])


def test_privkv_improved_frozen_example():
    # p1 = p2 = 0.75, (M0, M1, M-1) = (40, 40, 20):
    # sum = (60 - 25)/0.5 = 70, diff = 20/0.375 = 53.33..
    budget = PrivacyBudget(LN3, LN3)
    est = privkv_decode_improved_array(_counts(m_absent=40, m_pos=40, m_neg=20), budget)[0]
    assert est[POS] == pytest.approx(61.0 + 2.0 / 3.0, rel=1e-12)
    assert est[NEG] == pytest.approx(8.0 + 1.0 / 3.0, rel=1e-12)
    assert est[ABSENT] == pytest.approx(30.0, rel=1e-12)


def test_privkv_improved_matches_direct_closed_form():
    # The one-shot closed form for N1*/N-1* must agree with the
    # linear-identity implementation.
    budget = PrivacyBudget(0.7, 1.3)
    p1 = 1 / (1 + math.exp(-0.7))
    p2 = 1 / (1 + math.exp(-1.3))
    p1p, p2p = 2 * p1 - 1, 2 * p2 - 1
    rng = np.random.default_rng(0)
    for _ in range(25):
        m = rng.integers(0, 500, size=3)
        m_absent, m_pos, m_neg = (int(x) for x in m)
        total = m_absent + m_pos + m_neg
        n1 = ((p1 * p2p + p1p) * m_pos + (p1 * p2p - p1p) * m_neg
              - p1 * p2p * (1 - p1) * total) / (2 * p1 * p1p * p2p)
        n_neg = ((p1 * p2p - p1p) * m_pos + (p1 * p2p + p1p) * m_neg
                 - p1 * p2p * (1 - p1) * total) / (2 * p1 * p1p * p2p)
        est = privkv_decode_improved_array(_counts(m_absent, m_pos, m_neg), budget)[0]
        assert est[POS] == pytest.approx(n1, rel=1e-12, abs=1e-9)
        assert est[NEG] == pytest.approx(n_neg, rel=1e-12, abs=1e-9)


def test_privkv_improved_noiseless_identity():
    budget = PrivacyBudget(50.0, 50.0)
    est = privkv_decode_improved_array(_counts(m_absent=37, m_pos=41, m_neg=22), budget)[0]
    assert est[POS] == pytest.approx(41, abs=1e-6)
    assert est[NEG] == pytest.approx(22, abs=1e-6)
    assert est[ABSENT] == pytest.approx(37, abs=1e-6)


def test_privkv_improved_unbiased_monte_carlo():
    # True counts (N0, N1, N-1) = (500, 300, 200), eps1 = eps2 = 1.
    budget = PrivacyBudget(1.0, 1.0)
    values = _population(500, 300, 200)
    rounds = 500
    samples = np.empty(rounds)
    for r in range(rounds):
        encoded = lpp_encode_population(values, budget, RandomSource(100, r).generator())
        counts = tally_ternary(encoded.key_index, encoded.states, 1)
        samples[r] = privkv_decode_improved_array(counts, budget)[0, POS]
    stderr = samples.std(ddof=1) / math.sqrt(rounds)
    assert abs(samples.mean() - 300.0) <= 4 * stderr


def test_kvue_decode_frozen_example():
    # p = 0.5 (eps = ln2), (M0, M1, M-1) = (50, 30, 20), M = 100.
    est = kvue_decode_array(_counts(m_absent=50, m_pos=30, m_neg=20), math.log(2))[0]
    assert est[ABSENT] == pytest.approx(100.0, rel=1e-12)
    assert est[POS] == pytest.approx(20.0, rel=1e-12)
    assert est[NEG] == pytest.approx(-20.0, rel=1e-12)
    assert est.sum() == pytest.approx(100.0, rel=1e-12)


def test_kvue_decode_noiseless_identity():
    est = kvue_decode_array(_counts(m_absent=11, m_pos=7, m_neg=5), 50.0)[0]
    assert est[ABSENT] == pytest.approx(11, abs=1e-6)
    assert est[POS] == pytest.approx(7, abs=1e-6)
    assert est[NEG] == pytest.approx(5, abs=1e-6)


def test_kvue_unbiased_monte_carlo_with_variance_oracle():
    # True counts (600, 250, 150), eps = 2, 500 full-population rounds.
    eps = 2.0
    values = _population(600, 250, 150)
    rounds = 500
    samples = np.empty(rounds)
    for r in range(rounds):
        encoded = kvue_encode_population(values, eps, RandomSource(200, r).generator())
        counts = tally_ternary(encoded.key_index, encoded.states, 1)
        samples[r] = kvue_decode_array(counts, eps)[0, POS]
    stderr = samples.std(ddof=1) / math.sqrt(rounds)
    assert abs(samples.mean() - 250.0) <= 4 * stderr
    # Exact channel variance: Var(N1*) = Var(M1) / (a - b)^2 with
    # Var(M1) = N1 a(1-a) + (N - N1) b(1-b).
    a = math.exp(eps) / (math.exp(eps) + 2)
    b = 1 / (math.exp(eps) + 2)
    var_exact = (250 * a * (1 - a) + 750 * b * (1 - b)) / (a - b) ** 2
    assert 0.75 <= samples.var(ddof=1) / var_exact <= 1.3
    # The nominal variance N (e^eps + 1)/(e^eps - 1)^2 is the exact variance
    # of an all-absent population (per-report variance floor).
    nominal = 1000 * (math.exp(eps) + 1) / (math.exp(eps) - 1) ** 2
    floor = 1000 * b * (1 - b) / (a - b) ** 2
    assert nominal == pytest.approx(floor, rel=1e-12)


def test_kvoh_decode_frozen_example():
    # e^{eps/2} = 3, M_i = 30, N = 100: (4*30 - 100)/2 = 10.
    est = kvoh_decode_array(np.array([[30, 30, 30]]), np.array([100]), 2 * LN3)[0]
    assert est[POS] == pytest.approx(10.0, rel=1e-12)
    assert est[NEG] == pytest.approx(10.0, rel=1e-12)
    assert est[ABSENT] == pytest.approx(10.0, rel=1e-12)


def test_kvoh_decode_noiseless_and_validation():
    est = kvoh_decode_array(np.array([[40, 35, 25]]), np.array([100]), 50.0)[0]
    assert est[NEG] == pytest.approx(40, abs=1e-6)
    assert est[ABSENT] == pytest.approx(35, abs=1e-6)
    assert est[POS] == pytest.approx(25, abs=1e-6)
    with pytest.raises(DomainError):
        kvoh_decode_array(np.array([[101, 0, 0]]), np.array([100]), 1.0)


def test_kvoh_unbiased_monte_carlo_with_variance_oracle():
    # N1 = 400 of N = 1000 at eps = 2; per-position variance is exactly
    # N e^{eps/2} / (e^{eps/2} - 1)^2 regardless of the true composition.
    eps = 2.0
    values = _population(600, 400, 0)
    rounds = 500
    samples = np.empty(rounds)
    for r in range(rounds):
        encoded = kvoh_encode_population(values, eps, RandomSource(300, r).generator())
        sums, totals = tally_kvoh(encoded.key_index, encoded.bits, 1)
        samples[r] = kvoh_decode_array(sums, totals, eps)[0, POS]
    stderr = samples.std(ddof=1) / math.sqrt(rounds)
    assert abs(samples.mean() - 400.0) <= 4 * stderr
    e_half = math.exp(eps / 2)
    var_exact = 1000 * e_half / (e_half - 1) ** 2
    assert 0.75 <= samples.var(ddof=1) / var_exact <= 1.3


def test_f2m_decode_frozen_examples():
    # Noiseless key channel (f* = 0.5) and value channel with
    # m_all = (875 - 125)/1000 = 0.75: m_k* = (0.75 - 0.5 * 1)/0.5 = 0.5.
    budget = PrivacyBudget(50.0, 50.0)
    frequency, mean, _ = _f2m_decode((500, 1000), (875, 125), budget, 1.0)
    assert frequency == pytest.approx(0.5, abs=1e-9)
    assert mean == pytest.approx(0.5, abs=1e-9)
    # f* = 1 leaves nothing to subtract: m_k* = m_all.
    frequency, mean, _ = _f2m_decode((1000, 1000), (875, 125), budget, -0.3)
    assert frequency == pytest.approx(1.0, abs=1e-9)
    assert mean == pytest.approx(0.75, abs=1e-9)


def test_f2m_decode_degenerate_frequency():
    budget = PrivacyBudget(1.0, 1.0)
    _, mean, defined = _f2m_decode((0, 1000), (500, 500), budget, 1.0)
    assert not defined
    assert math.isnan(mean)


def test_f2m_noiseless_population_mean():
    # Everyone holds the key at value 0.6; with a huge budget the only noise
    # left is value discretization.
    budget = PrivacyBudget(50.0, 50.0)
    n = 10**5
    encoded = f2m_encode_population(np.full((n, 1), 0.6), budget, 1.0, RandomSource(9).generator())
    ones, totals, pos, neg = tally_f2m(encoded.key_index, encoded.key_bits, encoded.signs, 1)
    frequency, mean, _ = _f2m_decode((int(ones[0]), int(totals[0])), (int(pos[0]), int(neg[0])), budget, 1.0)
    assert frequency == pytest.approx(1.0, abs=1e-9)
    assert mean == pytest.approx(0.6, abs=4 * math.sqrt((1 - 0.36) / n))


def test_counts_to_stats_frozen_examples():
    n_reports = np.array([100.0])
    frequency, mean, _ = stats_from_estimates(_estimates(0.0, 50.0, 50.0), n_reports)
    assert frequency[0] == pytest.approx(1.0)
    assert mean[0] == pytest.approx(0.0)
    # Negative estimates are clipped before the ratio: (100, 20, -20) -> f*=0.2, m*=1.
    frequency, mean, _ = stats_from_estimates(_estimates(100.0, 20.0, -20.0), n_reports)
    assert frequency[0] == pytest.approx(0.2)
    assert mean[0] == pytest.approx(1.0)
    frequency, mean, _ = stats_from_estimates(_estimates(60.0, 30.0, 10.0), n_reports)
    assert frequency[0] == pytest.approx(0.4)
    assert mean[0] == pytest.approx(0.5)


def test_counts_to_stats_degenerate():
    _, _, defined = stats_from_estimates(_estimates(100.0, 0.4, 0.3), np.array([100.0]))
    assert not defined[0]
    zero = stats_from_estimates(np.array([[0.0, 0.0, 0.0]]), np.array([0.0]))
    assert math.isnan(zero[0][0])
    assert not zero[2][0]


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------

counts_strategy = st.tuples(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
)
eps_strategy = st.floats(min_value=0.01, max_value=20.0)


@given(counts_strategy, eps_strategy, eps_strategy)
@settings(max_examples=100, deadline=None)
def test_privkv_improved_conservation(counts, eps1, eps2):
    budget = PrivacyBudget(eps1, eps2)
    est = privkv_decode_improved_array(_counts(*counts), budget)[0]
    total = sum(counts)
    assert abs(est.sum() - total) <= 1e-9 * max(total, 1)


@given(counts_strategy, eps_strategy)
@settings(max_examples=100, deadline=None)
def test_kvue_conservation(counts, eps):
    est = kvue_decode_array(_counts(*counts), eps)[0]
    total = sum(counts)
    assert abs(est.sum() - total) <= 1e-9 * max(total, 1)


def test_improved_linear_identities():
    # The two relations from the unbiasedness argument hold exactly.
    budget = PrivacyBudget(0.9, 1.7)
    p1 = 1 / (1 + math.exp(-0.9))
    p2 = 1 / (1 + math.exp(-1.7))
    m_absent, m_pos, m_neg = 123, 456, 78
    est = privkv_decode_improved_array(_counts(m_absent, m_pos, m_neg), budget)[0]
    total = m_absent + m_pos + m_neg
    expected_sum = (m_pos + m_neg - total * (1 - p1)) / (2 * p1 - 1)
    expected_diff = (m_pos - m_neg) / (p1 * (2 * p2 - 1))
    assert est[POS] + est[NEG] == pytest.approx(expected_sum, rel=1e-12)
    assert est[POS] - est[NEG] == pytest.approx(expected_diff, rel=1e-12)


def test_ill_conditioned_budgets_raise():
    with pytest.raises(IllConditionedError, match="epsilon too small"):
        privkv_decode_improved_array(_counts(1, 1, 1), PrivacyBudget(1e-13, 1.0))
    with pytest.raises(IllConditionedError, match="epsilon too small"):
        kvue_decode_array(_counts(1, 1, 1), 1e-13)
    with pytest.raises(IllConditionedError, match="epsilon too small"):
        kvoh_decode_array(np.array([[1, 1, 1]]), np.array([3]), 1e-13)


def _decode_at(name):
    if name == "ioh":
        return lambda eps: aggregate_from_bit_sums(np.full(9, 2), 3, 2, eps)
    entry = PROTOCOLS[name]
    return lambda eps: entry.decode(np.ones((2, len(PAYLOADS[entry.mechanism].values))), eps, 0.0)


@pytest.mark.parametrize("name", [*PROTOCOLS, "ioh"])
@pytest.mark.parametrize("epsilon", [1e-13, 1e-20])
def test_every_decoder_applies_the_one_conditioning_rule(name, epsilon):
    # At 1e-20 every channel's rows are equal, so only the check before inverting gives this error.
    with pytest.raises(IllConditionedError, match="epsilon too small"):
        _decode_at(name)(epsilon)
    _decode_at(name)(1.0)  # the same call decodes at a workable budget


def test_noiseless_degeneracy_all_mechanisms():
    # At eps = 50 every decoder reproduces the plug-in statistics of the
    # sampled reports (values only carry discretization noise, which the
    # plug-in tally shares).
    rng = np.random.default_rng(12)
    n, d = 20000, 10
    values = np.where(rng.random((n, d)) < 0.6, rng.uniform(-1, 1, (n, d)), np.nan)
    budget = PrivacyBudget(50.0, 50.0)

    def plug_in(true_counts):
        signed = true_counts[:, POS] + true_counts[:, NEG]
        freq = signed / true_counts.sum(axis=1)
        mean = (true_counts[:, POS] - true_counts[:, NEG]) / signed
        return freq, mean

    encoded = lpp_encode_population(values, budget, RandomSource(20).generator())
    truth = tally_ternary(encoded.key_index, encoded.true_states, d)
    counts = tally_ternary(encoded.key_index, encoded.states, d)
    want_freq, want_mean = plug_in(truth)
    freq, mean, _ = privkv_decode_original_array(counts, budget)
    assert np.allclose(freq, want_freq, atol=1e-6)
    assert np.allclose(mean, want_mean, atol=1e-6)
    freq, mean, _ = stats_from_estimates(privkv_decode_improved_array(counts, budget), counts.sum(axis=1))
    assert np.allclose(freq, want_freq, atol=1e-6)
    assert np.allclose(mean, want_mean, atol=1e-6)

    encoded = kvue_encode_population(values, 50.0, RandomSource(21).generator())
    truth = tally_ternary(encoded.key_index, encoded.true_states, d)
    counts = tally_ternary(encoded.key_index, encoded.states, d)
    want_freq, want_mean = plug_in(truth)
    freq, mean, _ = stats_from_estimates(kvue_decode_array(counts, 50.0), counts.sum(axis=1))
    assert np.allclose(freq, want_freq, atol=1e-6)
    assert np.allclose(mean, want_mean, atol=1e-6)

    encoded = kvoh_encode_population(values, 50.0, RandomSource(22).generator())
    truth = tally_ternary(encoded.key_index, encoded.true_states, d)
    sums, totals = tally_kvoh(encoded.key_index, encoded.bits, d)
    want_freq, want_mean = plug_in(truth)
    freq, mean, _ = stats_from_estimates(kvoh_decode_array(sums, totals, 50.0), totals)
    assert np.allclose(freq, want_freq, atol=1e-6)
    assert np.allclose(mean, want_mean, atol=1e-6)

    encoded = f2m_encode_population(values, budget, 1.0, RandomSource(23).generator())
    truth = tally_ternary(encoded.key_index, encoded.true_states, d)
    ones, totals, pos, neg = tally_f2m(encoded.key_index, encoded.key_bits, encoded.signs, d)
    want_freq, want_mean = plug_in(truth)
    freq, mean, _ = f2m_decode_array(ones, totals, pos, neg, budget, 1.0)
    assert np.allclose(freq, want_freq, atol=1e-6)
    assert np.allclose(mean, want_mean, atol=1e-6)


# ---------------------------------------------------------------------------
# Bounds and communication cost
# ---------------------------------------------------------------------------


def test_theoretical_bound_spot_values():
    log40 = math.log(2 / 0.05)
    freq, mean = theoretical_bound(Mechanism.KVUE, 1.0, 10**5, 0.05, 0.5)
    want_freq = (math.e + 2) / (math.e - 1) * math.sqrt(2 / 10**5 * log40)
    assert freq == pytest.approx(want_freq, rel=1e-10)
    assert freq == pytest.approx(0.0236, abs=5e-5)
    want_mean = ((math.e + 2) * math.sqrt(2 * log40)
                 / ((math.e - 1) * 0.5 * math.sqrt(10**5) - (math.e + 2) * math.sqrt(2 * log40)))
    assert mean == pytest.approx(want_mean, rel=1e-10)

    freq, mean = theoretical_bound(Mechanism.KVOH, 1.0, 10**5, 0.05, 0.5)
    e_half = math.exp(0.5)
    want_freq = (e_half + 1) / (e_half - 1) * math.sqrt(2 / 10**5 * log40)
    assert freq == pytest.approx(want_freq, rel=1e-10)
    want_mean = ((e_half + 1) * math.sqrt(2 * log40)
                 / (0.5 * (e_half - 1) * math.sqrt(10**5) - (e_half + 1) * math.sqrt(2 * log40)))
    assert mean == pytest.approx(want_mean, rel=1e-10)

    freq, mean = theoretical_bound(Mechanism.F2M, 1.0, 10**5, 0.05, 0.5)
    want_freq = (math.e + 1) / (math.e - 1) * math.sqrt(log40 / (2 * 10**5))
    assert freq == pytest.approx(want_freq, rel=1e-10)
    want_mean = (2 * (0.5 + 1) * (math.e + 1) * math.sqrt(log40)
                 / (math.sqrt(2 * 10**5) * 0.25 * (math.e - 1) - 0.5 * (math.e - 1) * math.sqrt(log40)))
    assert mean == pytest.approx(want_mean, rel=1e-10)


def test_count_deviation_bound_spot_values():
    log40 = math.log(40)
    got = count_deviation_bound(Mechanism.KVUE, 2.0, 1000, 0.05)
    want = (math.exp(2) + 2) / (math.exp(2) - 1) * math.sqrt(1000 / 2 * log40)
    assert got == pytest.approx(want, rel=1e-10)
    got = count_deviation_bound(Mechanism.KVOH, 2.0, 1000, 0.05)
    want = (math.e + 1) / (math.e - 1) * math.sqrt(1000 / 2 * log40)
    assert got == pytest.approx(want, rel=1e-10)


def test_bounds_shrink_with_n():
    for mechanism in (Mechanism.KVUE, Mechanism.KVOH, Mechanism.F2M):
        freq, mean = theoretical_bound(mechanism, 1.0, 10**14, 0.05, 0.5)
        assert freq < 1e-4
        assert mean < 1e-4


def test_kvoh_bound_dominates_kvue():
    # (e^{eps/2}+1)/(e^{eps/2}-1) >= (e^eps+2)/(e^eps-1) over the sweep range.
    for eps in (0.1, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0):
        kvue_freq, _ = theoretical_bound(Mechanism.KVUE, eps, 1000, 0.05, 0.5)
        kvoh_freq, _ = theoretical_bound(Mechanism.KVOH, eps, 1000, 0.05, 0.5)
        assert kvoh_freq >= kvue_freq


def test_bound_vacuous_marker_and_domain_errors():
    _, mean = theoretical_bound(Mechanism.KVUE, 1.0, 10, 0.05, 0.1)
    assert mean == math.inf
    _, mean = theoretical_bound(Mechanism.F2M, 1.0, 10, 0.05, 0.1)
    assert mean == math.inf
    with pytest.raises(DomainError):
        theoretical_bound(Mechanism.PRIVKV, 1.0, 100, 0.05, 0.5)
    with pytest.raises(DomainError):
        theoretical_bound(Mechanism.KVUE, 1.0, 100, 1.5, 0.5)
    with pytest.raises(DomainError):
        theoretical_bound(Mechanism.KVUE, 1.0, 100, 0.05, 0.0)
    with pytest.raises(DomainError):
        theoretical_bound(Mechanism.KVUE, -1.0, 100, 0.05, 0.5)


@pytest.mark.parametrize("mechanism, epsilon", [
    (Mechanism.KVUE, 1e-17), (Mechanism.KVOH, 1e-16), (Mechanism.F2M, 5e-324), (Mechanism.KVUE, 1e-12),
])
def test_bounds_at_a_vanishing_epsilon_are_ill_conditioned(mechanism, epsilon):
    # Each used to end in a ZeroDivisionError from its calibration factor.
    with pytest.raises(IllConditionedError, match="epsilon too small"):
        theoretical_bound(mechanism, epsilon, 1000, 0.05, 0.5)
    if mechanism is not Mechanism.F2M:
        with pytest.raises(IllConditionedError, match="epsilon too small"):
            count_deviation_bound(mechanism, epsilon, 1000, 0.05)


def _refuses(call, *args) -> bool:
    try:
        call(*args)
    except IllConditionedError:
        return True
    return False


@pytest.mark.parametrize("mechanism", [Mechanism.KVUE, Mechanism.KVOH, Mechanism.F2M])
def test_a_bound_refuses_an_epsilon_exactly_where_its_decoder_does(mechanism):
    # A bound and its decoder invert one table, so they share one floor: about 3e-12 for kvue, 4e-12 for kvoh
    # and 2e-12 per channel for f2m, whose bound takes one channel's budget and its decoder the total of two.
    decode, scale = _decode_at(mechanism.value), 2.0 if mechanism is Mechanism.F2M else 1.0
    refusals = []
    for epsilon in np.logspace(-13, -10, 61):
        refusals.append(_refuses(theoretical_bound, mechanism, epsilon, 1000, 0.05, 0.5))
        assert refusals[-1] == _refuses(decode, scale * epsilon), epsilon
        if mechanism is not Mechanism.F2M:
            assert refusals[-1] == _refuses(count_deviation_bound, mechanism, epsilon, 1000, 0.05), epsilon
    assert refusals[0] and not refusals[-1]  # the grid straddles the floor


@pytest.mark.parametrize("epsilon, n, delta, match", [
    (1.0, 1000, 2.0, "delta"), (1.0, 1000, 0.0, "delta"), (1.0, 1000, math.nan, "delta"),
    (-1.0, 1000, 0.05, "epsilon"), (math.inf, 1000, 0.05, "epsilon"), (math.nan, 1000, 0.05, "epsilon"),
    (1.0, -5, 0.05, "n must"), (1.0, 0, 0.05, "n must"), (1.0, math.nan, 0.05, "n must"),
    (1.0, math.inf, 0.05, "n must"), pytest.param(1.0, 10 ** 400, 0.05, "n must", id="1.0-1e400-0.05-n must"),
])
def test_count_deviation_bound_checks_its_inputs(epsilon, n, delta, match):
    # delta=2 used to return 0.0, epsilon=-1 a negative bound and n=-5 a
    # math domain error.
    for mechanism in (Mechanism.KVUE, Mechanism.KVOH):
        with pytest.raises(DomainError, match=match):
            count_deviation_bound(mechanism, epsilon, n, delta)


def test_report_size_bits_frozen_values():
    assert report_size_bits(Mechanism.PRIVKV, 100) == pytest.approx(math.log2(300), rel=1e-12)
    assert report_size_bits(Mechanism.KVUE, 100) == pytest.approx(math.log2(300), rel=1e-12)
    assert report_size_bits(Mechanism.F2M, 100) == pytest.approx(2 * math.log2(100), rel=1e-12)
    assert report_size_bits(Mechanism.KVOH, 100) == pytest.approx(3 * math.log2(100), rel=1e-12)
    assert report_size_bits(Mechanism.PRIVKV, 1) == pytest.approx(math.log2(3), rel=1e-12)


def test_packed_size_within_nominal_cost():
    # Wire packing stays within ceil(nominal) + ceil(log2 d) index bits.
    for d in (2, 3, 10, 100, 1000):
        index_bits = math.ceil(math.log2(d))
        for mechanism in Mechanism:
            packed = packed_size_bits(mechanism, d)
            assert packed <= math.ceil(report_size_bits(mechanism, d)) + index_bits


def test_pack_unpack_round_trip():
    g = RandomSource(31).generator()
    d = 37
    reports = []
    for _ in range(100):
        j = int(g.integers(d))
        reports.append(Report(Mechanism.KVOH, j, tuple(int(b) for b in g.integers(0, 2, 3))))
    data = pack_reports(reports, d)
    assert len(data) * 8 >= len(reports) * packed_size_bits(Mechanism.KVOH, d)
    assert unpack_reports(data, Mechanism.KVOH, len(reports), d) == reports

    reports = [Report(Mechanism.F2M, int(g.integers(d)), (int(g.integers(2)), 1 if g.random() < 0.5 else -1))
               for _ in range(50)]
    assert unpack_reports(pack_reports(reports, d), Mechanism.F2M, 50, d) == reports
    reports = [Report(Mechanism.KVUE, int(g.integers(d)), int(g.integers(3))) for _ in range(50)]
    assert unpack_reports(pack_reports(reports, d), Mechanism.KVUE, 50, d) == reports


def test_report_wire_lines():
    for report in (
        Report(Mechanism.PRIVKV, 3, 2),
        Report(Mechanism.KVUE, 0, 1),
        Report(Mechanism.F2M, 17, (1, -1)),
        Report(Mechanism.KVOH, 5, (1, 0, 1)),
    ):
        assert Report.from_line(report.to_line()) == report
    assert Report(Mechanism.F2M, 17, (1, -1)).to_line() == "f2m,17,10"
    with pytest.raises(DomainError):
        Report.from_line("nope")
    with pytest.raises(DomainError):
        Report.from_line("kvoh,1,10")
    with pytest.raises(DomainError):
        Report(Mechanism.PRIVKV, 0, 3)
    with pytest.raises(DomainError):
        Report(Mechanism.KVOH, 0, (1, 0))


def test_tally_reports_matches_population_tallies():
    g = RandomSource(33).generator()
    budget = PrivacyBudget(1.0, 1.0)
    record_values = np.where(g.random((200, 5)) < 0.5, 0.3, np.nan)
    encoded = lpp_encode_population(record_values, budget, g)
    reports = [Report(Mechanism.PRIVKV, j, s) for j, s in zip(encoded.key_index.tolist(), encoded.states.tolist())]
    counts = tally_reports(reports, 5)
    assert counts.shape == (5, 3)
    assert counts.sum() == 200
    assert (counts == tally_ternary(encoded.key_index, encoded.states, 5)).all()
    with pytest.raises(DomainError):
        tally_reports([], 5)


# ---------------------------------------------------------------------------
# Channel-table privacy audit
# ---------------------------------------------------------------------------


def test_channels_are_stochastic():
    budget = PrivacyBudget(0.8, 1.1)
    for table in (lpp_channel(budget), f2m_channel(budget), kvue_channel(1.3),
                  kvoh_channel(1.3), kvoh_bit_channel(1.3)):
        assert np.allclose(table.sum(axis=1), 1.0, rtol=1e-12)
        assert (table > 0).all()


def test_kvue_worst_case_ratio_is_exp_eps():
    for eps in (0.1, 0.5, 1.0, 2.0, 5.0):
        assert worst_case_ratio(kvue_channel(eps)) == pytest.approx(math.exp(eps), rel=1e-12)


def test_kvoh_worst_case_ratio_composes_two_half_bits():
    for eps in (0.2, 1.0, 2.0, 4.0):
        assert worst_case_ratio(kvoh_bit_channel(eps)) == pytest.approx(math.exp(eps / 2), rel=1e-12)
        assert worst_case_ratio(kvoh_channel(eps)) == pytest.approx(math.exp(eps), rel=1e-12)


def test_f2m_worst_case_ratio_is_budget_product():
    for eps1, eps2 in ((0.5, 0.5), (0.3, 1.1), (2.0, 0.7)):
        budget = PrivacyBudget(eps1, eps2)
        assert worst_case_ratio(f2m_channel(budget)) == pytest.approx(math.exp(eps1 + eps2), rel=1e-12)


def test_lpp_ratio_bounded_by_budget_product():
    # The composed bound e^{eps1} * e^{eps2} holds; the key stage alone
    # realizes exactly e^{eps1} (output <0,0> against present vs absent).
    for eps1, eps2 in ((0.5, 0.5), (1.0, 2.0), (3.0, 0.2)):
        budget = PrivacyBudget(eps1, eps2)
        table = lpp_channel(budget)
        assert worst_case_ratio(table) <= math.exp(eps1 + eps2) * (1 + 1e-12)
        key_ratio = table[ABSENT, ABSENT] / table[POS, ABSENT]
        assert key_ratio == pytest.approx(math.exp(eps1), rel=1e-12)
