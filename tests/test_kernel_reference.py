"""Bit-identity of the branch-free perturbation kernels against np.where references.

The reference functions below are the select-and-compact formulations the
kernels replaced: np.where on random masks, boolean-mask compaction in the
tallies, fancy-index gathers.  Every test runs a kernel and its reference
on two generators of the same stream and asserts equal bytes, equal dtypes
and shapes, and an equal generator state afterwards, so the kernels draw
the same variates in the same order.

The tie tests build values whose discretization threshold (1 + v) / 2
equals the uniform drawn for them exactly, so a strict comparison turned
non-strict changes the output.

The last section keeps the forms that the row-blocked draws, the strided
query sums and the column-only oracle replaced: one-shot (n, d) draws, a
gather by ascending product index, and an oracle over the whole presence
matrix.
"""

import math
import tracemalloc

import numpy as np
import pytest

from kvldp.conditional import (
    _PERUSER_BLOCK_ELEMENTS,
    AggregateVector,
    Condition,
    _product_values,
    _signed_value_sum,
    frequency_count,
    ioh_index_population,
    simulate_ioh_bit_sums,
)
from kvldp.core import (
    DomainError,
    PrivacyBudget,
    RandomSource,
    direct_encode_array,
    discretize_array,
    flip_keep_probability,
    row_blocks,
    rr_bit_array,
    rr_sign_array,
)
from kvldp.datagen import Dataset, _materialize, true_conditional
from kvldp.mechanisms import (
    ABSENT,
    NEG,
    POS,
    F2MReports,
    KVOHReports,
    TernaryReports,
    f2m_encode_population,
    kvoh_encode_population,
    kvue_encode_population,
    lpp_encode_population,
    tally_f2m,
    tally_kvoh,
    tally_ternary,
)

EPSILONS = (0.1, 1.0, 4.0, 30.0)
SEEDS = (1, 2)


# ---------------------------------------------------------------------------
# np.where references
# ---------------------------------------------------------------------------


def _ref_discretize_array(values, g):
    values = np.asarray(values, dtype=np.float64)
    if not np.all((values >= -1.0) & (values <= 1.0)):
        raise DomainError("values must be finite reals in [-1, 1]")
    u = g.random(values.shape)
    return np.where(u < (1.0 + values) / 2.0, 1, -1).astype(np.int8)


def _ref_rr_bit_array(bits, epsilon, g):
    p = flip_keep_probability(epsilon)
    bits = np.asarray(bits)
    if not np.all((bits == 0) | (bits == 1)):
        raise DomainError("bits must be 0 or 1")
    keep = g.random(bits.shape) < p
    return np.where(keep, bits, 1 - bits).astype(np.int8)


def _ref_rr_sign_array(signs, epsilon, g):
    p = flip_keep_probability(epsilon)
    signs = np.asarray(signs)
    keep = g.random(signs.shape) < p
    return np.where(keep, signs, -signs).astype(np.int8)


def _ref_direct_encode_array(xs, K, epsilon, g):
    p = 1.0 / (1.0 + (K - 1) * math.exp(-epsilon))
    xs = np.asarray(xs)
    keep = g.random(xs.shape) < p
    offsets = g.integers(1, K, size=xs.shape)
    return np.where(keep, xs, (xs + offsets) % K)


def _ref_gather(values, g):
    n, d = values.shape
    key_index = g.integers(0, d, size=n)
    sampled = values[np.arange(n), key_index]
    return key_index, sampled, ~np.isnan(sampled)


def _ref_digits(present, signs):
    return np.where(present, np.where(signs > 0, POS, NEG), ABSENT).astype(np.int8)


def _ref_lpp(values, budget, g):
    key_index, sampled, present = _ref_gather(values, g)
    placeholder = g.uniform(-1.0, 1.0, size=sampled.shape)
    v_star = _ref_discretize_array(np.where(present, sampled, placeholder), g)
    v_prime = _ref_rr_sign_array(v_star, budget.epsilon_value, g)
    keep = g.random(sampled.shape) < flip_keep_probability(budget.epsilon_key)
    emit_key = np.where(present, keep, ~keep)
    states = np.where(emit_key, np.where(v_prime > 0, POS, NEG), ABSENT).astype(np.int8)
    return TernaryReports(key_index, states, _ref_digits(present, v_star))


def _ref_f2m(values, budget, default_value, g):
    key_index, sampled, present = _ref_gather(values, g)
    key_bits = _ref_rr_bit_array(present.astype(np.int8), budget.epsilon_key, g)
    v_star = _ref_discretize_array(np.where(present, sampled, default_value), g)
    signs = _ref_rr_sign_array(v_star, budget.epsilon_value, g)
    return F2MReports(key_index, key_bits, signs, _ref_digits(present, v_star))


def _ref_kvue(values, epsilon, g):
    key_index, sampled, present = _ref_gather(values, g)
    v_star = _ref_discretize_array(np.where(present, sampled, 0.0), g)
    true_states = _ref_digits(present, v_star)
    states = _ref_direct_encode_array(true_states, 3, epsilon, g).astype(np.int8)
    return TernaryReports(key_index, states, true_states)


def _ref_kvoh(values, epsilon, g):
    key_index, sampled, present = _ref_gather(values, g)
    v_star = _ref_discretize_array(np.where(present, sampled, 0.0), g)
    true_states = _ref_digits(present, v_star)
    p = flip_keep_probability(float(epsilon) / 2.0)
    onehot = true_states[:, None] == np.arange(3, dtype=np.int8)[None, :]
    u = g.random((sampled.shape[0], 3))
    bits = np.where(onehot, u < p, u < 1.0 - p).astype(np.int8)
    return KVOHReports(key_index, bits, true_states)


def _ref_tally_ternary(key_index, states, d):
    flat = np.asarray(key_index, dtype=np.int64) * 3 + np.asarray(states, dtype=np.int64)
    return np.bincount(flat, minlength=3 * d).reshape(d, 3)


def _ref_tally_f2m(key_index, key_bits, signs, d):
    key_index = np.asarray(key_index, dtype=np.int64)
    totals = np.bincount(key_index, minlength=d)
    ones = np.bincount(key_index[np.asarray(key_bits, dtype=bool)], minlength=d)
    pos = np.bincount(key_index[np.asarray(signs) > 0], minlength=d)
    return ones, totals, pos, totals - pos


def _ref_tally_kvoh(key_index, bits, d):
    key_index = np.asarray(key_index, dtype=np.int64)
    bits = np.asarray(bits)
    sums = np.stack(
        [np.bincount(key_index[bits[:, position] > 0], minlength=d) for position in range(3)],
        axis=1,
    )
    return sums, np.bincount(key_index, minlength=d)


def _ref_ioh_index(values, g):
    n, d = values.shape
    u = g.random((n, d))
    present = ~np.isnan(values)
    positive = u < (1.0 + np.where(present, values, 0.0)) / 2.0
    digits = np.where(present, np.where(positive, 2, 0), 1).astype(np.int64)
    return digits @ (3 ** np.arange(d - 1, -1, -1, dtype=np.int64))


def _ref_peruser_bit_sums(values, epsilon, g):
    indices = _ref_ioh_index(values, g)
    size = 3 ** values.shape[1]
    keep = flip_keep_probability(float(epsilon) / 2.0)
    onehot = indices[:, None] == np.arange(size, dtype=np.int64)[None, :]
    u = g.random((values.shape[0], size))
    return np.where(onehot, u < keep, u < 1.0 - keep).sum(axis=0)


# ---------------------------------------------------------------------------
# Inputs and comparison
# ---------------------------------------------------------------------------


def _matrix(n, d, seed):
    """Values in [-1, 1] with exact -1, 0 and 1 entries and NaN (absent) holes.

    For d >= 2 the last key is held by no user and the first by every user.
    """
    rng = np.random.default_rng(seed)
    values = rng.uniform(-1.0, 1.0, size=(n, d))
    values[rng.random((n, d)) < 0.15] = -1.0
    values[rng.random((n, d)) < 0.15] = 0.0
    values[rng.random((n, d)) < 0.15] = 1.0
    values[rng.random((n, d)) < 0.4] = np.nan
    if d >= 2:
        values[:, -1] = np.nan
        values[:, 0] = rng.choice([-1.0, 0.0, 1.0], size=n)
    return values


# (n, d) shapes: the paper's d=100, odd and tiny domains, and single users.
SHAPES = [(1, 1), (1, 2), (1, 37), (1, 100), (500, 1), (500, 2), (2000, 37), (3000, 100)]


def _generators(seed):
    return RandomSource(seed).generator(), RandomSource(seed).generator()


def _assert_identical(got, want, g_got, g_want):
    got = got if isinstance(got, tuple) else (got,)
    want = want if isinstance(want, tuple) else (want,)
    assert type(got) is type(want)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    # Philox's state holds small arrays (counter, key, buffer); repr shows them whole.
    assert repr(g_got.bit_generator.state) == repr(g_want.bit_generator.state)


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_discretize_array_matches_reference(seed):
    values = np.random.default_rng(seed).uniform(-1.0, 1.0, 5000)
    values[::7], values[::11], values[::13] = -1.0, 1.0, 0.0
    for shaped in (values, values.reshape(50, 100), values[:1]):
        g, ref = _generators(seed)
        _assert_identical(discretize_array(shaped, g), _ref_discretize_array(shaped, ref), g, ref)


@pytest.mark.parametrize("epsilon", EPSILONS)
@pytest.mark.parametrize("dtype", [np.int8, np.int64, bool])
def test_rr_bit_array_matches_reference(epsilon, dtype):
    bits = (np.random.default_rng(3).random(5000) < 0.3).astype(dtype)
    g, ref = _generators(4)
    _assert_identical(rr_bit_array(bits, epsilon, g), _ref_rr_bit_array(bits, epsilon, ref), g, ref)


@pytest.mark.parametrize("epsilon", EPSILONS)
@pytest.mark.parametrize("dtype", [np.int8, np.int64])
def test_rr_sign_array_matches_reference(epsilon, dtype):
    signs = np.where(np.random.default_rng(5).random(5000) < 0.6, 1, -1).astype(dtype)
    g, ref = _generators(6)
    _assert_identical(rr_sign_array(signs, epsilon, g), _ref_rr_sign_array(signs, epsilon, ref), g, ref)


@pytest.mark.parametrize("K", [2, 3, 5])
@pytest.mark.parametrize("dtype", [np.int8, np.int64])
@pytest.mark.parametrize("epsilon", EPSILONS)
def test_direct_encode_array_matches_reference(K, dtype, epsilon):
    xs = np.random.default_rng(K).integers(0, K, 5000).astype(dtype)
    xs[:K] = np.arange(K)  # every category, the largest included
    g, ref = _generators(7)
    _assert_identical(direct_encode_array(xs, K, epsilon, g), _ref_direct_encode_array(xs, K, epsilon, ref), g, ref)


# ---------------------------------------------------------------------------
# Encoders and tallies
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("seed", SEEDS)
def test_lpp_encoder_and_tally_match_reference(shape, seed):
    values = _matrix(*shape, seed)
    d = shape[1]
    for epsilon in EPSILONS:
        budget = PrivacyBudget.split(epsilon)
        g, ref = _generators(seed)
        got, want = lpp_encode_population(values, budget, g), _ref_lpp(values, budget, ref)
        _assert_identical(got, want, g, ref)
        for states in (got.states, got.true_states):
            _assert_identical(tally_ternary(got.key_index, states, d),
                              _ref_tally_ternary(want.key_index, states, d), g, ref)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("default_value", [-1.0, 0.0, 1.0])
def test_f2m_encoder_and_tally_match_reference(shape, default_value):
    values = _matrix(*shape, 11)
    d = shape[1]
    for epsilon in EPSILONS:
        budget = PrivacyBudget.split(epsilon)
        g, ref = _generators(12)
        got = f2m_encode_population(values, budget, default_value, g)
        want = _ref_f2m(values, budget, default_value, ref)
        _assert_identical(got, want, g, ref)
        _assert_identical(tally_f2m(got.key_index, got.key_bits, got.signs, d),
                          _ref_tally_f2m(want.key_index, want.key_bits, want.signs, d), g, ref)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("seed", SEEDS)
def test_kvue_encoder_and_tally_match_reference(shape, seed):
    values = _matrix(*shape, seed + 20)
    d = shape[1]
    for epsilon in EPSILONS:
        g, ref = _generators(seed)
        got, want = kvue_encode_population(values, epsilon, g), _ref_kvue(values, epsilon, ref)
        _assert_identical(got, want, g, ref)
        _assert_identical(tally_ternary(got.key_index, got.states, d),
                          _ref_tally_ternary(want.key_index, want.states, d), g, ref)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("seed", SEEDS)
def test_kvoh_encoder_and_tally_match_reference(shape, seed):
    values = _matrix(*shape, seed + 30)
    d = shape[1]
    for epsilon in EPSILONS:
        g, ref = _generators(seed)
        got, want = kvoh_encode_population(values, epsilon, g), _ref_kvoh(values, epsilon, ref)
        _assert_identical(got, want, g, ref)
        _assert_identical(tally_kvoh(got.key_index, got.bits, d),
                          _ref_tally_kvoh(want.key_index, want.bits, d), g, ref)


def test_tallies_match_reference_on_arbitrary_bit_values():
    # The f2m and kvoh tallies read any nonzero key bit as set and any
    # positive sign or bit as +1, as the masks of the reference do.
    rng = np.random.default_rng(8)
    key_index = rng.integers(0, 9, 4000)
    key_bits = rng.integers(-2, 3, 4000).astype(np.int8)
    signs = rng.integers(-2, 3, 4000)
    bits = rng.integers(-1, 3, (4000, 3)).astype(np.int8)
    g, ref = _generators(0)
    _assert_identical(tally_f2m(key_index, key_bits, signs, 9), _ref_tally_f2m(key_index, key_bits, signs, 9), g, ref)
    _assert_identical(tally_kvoh(key_index, bits, 9), _ref_tally_kvoh(key_index, bits, 9), g, ref)
    empty = np.zeros(0, dtype=np.int64)
    _assert_identical(tally_ternary(empty, empty, 4), _ref_tally_ternary(empty, empty, 4), g, ref)
    _assert_identical(tally_f2m(empty, empty, empty, 4), _ref_tally_f2m(empty, empty, empty, 4), g, ref)
    _assert_identical(tally_kvoh(empty, np.zeros((0, 3), np.int8), 4),
                      _ref_tally_kvoh(empty, np.zeros((0, 3), np.int8), 4), g, ref)


# ---------------------------------------------------------------------------
# Full-record index
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("shape", [(1, 1), (1, 12), (500, 1), (500, 2), (2000, 5), (2000, 12)])
@pytest.mark.parametrize("seed", SEEDS)
def test_ioh_index_population_matches_reference(shape, seed):
    values = _matrix(*shape, seed + 40)
    g, ref = _generators(seed)
    _assert_identical(ioh_index_population(values, g), _ref_ioh_index(values, ref), g, ref)


@pytest.mark.parametrize("epsilon", EPSILONS)
def test_peruser_bit_sums_match_reference(epsilon):
    values = _matrix(300, 4, 50)
    g, ref = _generators(51)
    sample = simulate_ioh_bit_sums(values, epsilon, g, method="peruser")
    _assert_identical(sample.bit_sums, _ref_peruser_bit_sums(values, epsilon, ref), g, ref)


# ---------------------------------------------------------------------------
# Exact threshold ties
# ---------------------------------------------------------------------------
#
# A uniform draw u is a multiple of 2^-53, so v = 2u - 1 is exact and
# (1 + v) / 2 gives back u itself: the strict test u < (1 + v) / 2 is false.


def _tied(u):
    return 2.0 * u - 1.0


def test_discretize_ties_match_reference():
    u = RandomSource(60).generator().random(1000)
    values = _tied(u)
    assert ((1.0 + values) / 2.0 == u).all()
    g, ref = _generators(60)
    out = discretize_array(values, g)
    _assert_identical(out, _ref_discretize_array(values, ref), g, ref)
    assert (out == -1).all()


def _replay_encoder_draws(seed, n, d, skipped):
    """The key indices and discretization uniforms an encoder draws from (seed, 0).

    skipped is the number of n-variate draws in between: privkv's
    placeholder values and f2m's key-bit flips, one double each.
    """
    g = RandomSource(seed).generator()
    key_index = g.integers(0, d, size=n)
    for _ in range(skipped):
        g.random(n)
    return key_index, g.random(n)


@pytest.mark.parametrize("mechanism", ["privkv", "f2m", "kvue", "kvoh"])
def test_encoder_ties_match_reference(mechanism):
    n, d, seed = 1000, 5, 61
    key_index, u = _replay_encoder_draws(seed, n, d, int(mechanism in ("privkv", "f2m")))
    values = np.full((n, d), np.nan)
    holders = np.arange(n) % 4 != 0
    values[np.arange(n)[holders], key_index[holders]] = _tied(u[holders])
    # The f2m default ties with the draw of the first absent report.
    default_value = float(_tied(u[0]))
    budget = PrivacyBudget.split(1.0)
    encoders = {
        "privkv": (lambda v, g: lpp_encode_population(v, budget, g), lambda v, g: _ref_lpp(v, budget, g)),
        "f2m": (lambda v, g: f2m_encode_population(v, budget, default_value, g),
                lambda v, g: _ref_f2m(v, budget, default_value, g)),
        "kvue": (lambda v, g: kvue_encode_population(v, 1.0, g), lambda v, g: _ref_kvue(v, 1.0, g)),
        "kvoh": (lambda v, g: kvoh_encode_population(v, 1.0, g), lambda v, g: _ref_kvoh(v, 1.0, g)),
    }
    encode, reference = encoders[mechanism]
    g, ref = _generators(seed)
    got = encode(values, g)
    _assert_identical(got, reference(values, ref), g, ref)
    assert (got.true_states[holders] == NEG).all()


def _epsilon_tied_to(draws, threshold_of):
    """An epsilon at which threshold_of(epsilon) equals one of the draws exactly."""
    for u in draws:
        if u == 0.0 or u == 0.5:
            continue
        epsilon = 2.0 * abs(math.log(u / (1.0 - u)))
        for step in range(-4, 5):
            tried = epsilon
            for _ in range(abs(step)):
                tried = math.nextafter(tried, math.copysign(math.inf, step))
            if threshold_of(tried) == u:
                return tried
    raise AssertionError("no epsilon ties with the draws")


@pytest.mark.parametrize("position", [ABSENT, NEG])
def test_kvoh_bit_ties_match_reference(position):
    # Every true state is ABSENT, so bit ABSENT is kept below p and bit NEG set below 1 - p.
    n, d, seed = 1000, 5, 63
    g = RandomSource(seed).generator()
    g.integers(0, d, size=n)
    g.random(n)
    u = g.random((n, 3))[:, position]
    if position == ABSENT:
        epsilon = _epsilon_tied_to(u, lambda eps: flip_keep_probability(eps / 2.0))
    else:
        epsilon = _epsilon_tied_to(u, lambda eps: 1.0 - flip_keep_probability(eps / 2.0))
    values = np.full((n, d), np.nan)
    g, ref = _generators(seed)
    _assert_identical(kvoh_encode_population(values, epsilon, g), _ref_kvoh(values, epsilon, ref), g, ref)


def test_ioh_index_ties_match_reference():
    n, d = 400, 6
    values = _tied(RandomSource(62).generator().random((n, d)))
    values[np.random.default_rng(62).random((n, d)) < 0.3] = np.nan
    g, ref = _generators(62)
    got = ioh_index_population(values, g)
    _assert_identical(got, _ref_ioh_index(values, ref), g, ref)
    digits = got[:, None] // 3 ** np.arange(d - 1, -1, -1) % 3
    present = ~np.isnan(values)
    assert (digits[present] == NEG).all() and (digits[~present] == ABSENT).all()


# ---------------------------------------------------------------------------
# Domain checks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bad", [1.0000000000000002, -1.0000000000000002, math.inf, -math.inf, 3.0])
def test_encoders_reject_present_values_outside_unit_interval(bad):
    values = np.full((50, 1), np.nan)
    values[7, 0] = bad
    budget = PrivacyBudget.split(1.0)
    for encode in (lambda g: lpp_encode_population(values, budget, g),
                   lambda g: f2m_encode_population(values, budget, 0.0, g),
                   lambda g: kvue_encode_population(values, 1.0, g),
                   lambda g: kvoh_encode_population(values, 1.0, g)):
        with pytest.raises(DomainError):
            encode(RandomSource(0).generator())


def test_tally_ternary_rejects_state_outside_digits():
    # A state digit of 3 at key 0 used to land in key 1's NEG count.
    with pytest.raises(DomainError):
        tally_ternary([0], [3], 5)
    with pytest.raises(DomainError):
        tally_ternary([1], [-1], 5)


# Each tally on the given keys, with legal payloads.
TALLIES = {
    "ternary": lambda keys: tally_ternary(keys, [1] * len(keys), 5),
    "f2m": lambda keys: tally_f2m(keys, [1] * len(keys), [1] * len(keys), 5),
    "kvoh": lambda keys: tally_kvoh(keys, np.ones((len(keys), 3), np.int8), 5),
}


@pytest.mark.parametrize("tally", sorted(TALLIES))
def test_tallies_reject_key_at_or_beyond_d(tally):
    # f2m used to return length-8 arrays at d=5; the others raised a bare ValueError.
    for keys in ([5], [0, 7]):
        with pytest.raises(DomainError):
            TALLIES[tally](keys)


@pytest.mark.parametrize("tally", sorted(TALLIES))
def test_tallies_reject_negative_key(tally):
    # bincount used to raise a bare ValueError.
    for keys in ([-1], [2, -3, 4]):
        with pytest.raises(DomainError):
            TALLIES[tally](keys)


# ---------------------------------------------------------------------------
# Row-blocked draws, strided query sums and the column-only oracle
# ---------------------------------------------------------------------------


def _ref_product_indices(digit_sets):
    indices = np.zeros(1, dtype=np.int64)
    for digits in digit_sets:
        digits = np.asarray(sorted(digits), dtype=np.int64)
        indices = (indices[:, None] * 3 + digits[None, :]).ravel()
    return indices


def _ref_true_conditional(ds, k, cond):
    present = ~np.isnan(ds.values)
    matched = np.ones(ds.n, dtype=bool)
    for key, (a, b) in enumerate(zip(cond.alpha, cond.beta)):
        if a:
            matched &= present[:, key] == bool(b)
    n_matched = int(matched.sum())
    if n_matched == 0:
        return math.nan, math.nan
    holders = matched & present[:, k]
    n_holders = int(holders.sum())
    mean = float(ds.values[holders, k].mean()) if n_holders else math.nan
    return n_holders / n_matched, mean


def _ref_materialize(freq_targets, mean_targets, n, rng, value_spread):
    half_width = np.minimum(value_spread, 1.0 - np.abs(mean_targets))
    present = rng.random((n, len(freq_targets))) < freq_targets[None, :]
    jitter = rng.uniform(-1.0, 1.0, size=present.shape) * half_width[None, :]
    return np.where(present, mean_targets[None, :] + jitter, np.nan)


DIGIT_SETS = [(0, 2), (1,), (0, 1, 2), (0,), (2,)]


def _aggregate(d, seed):
    """Calibrated-looking values over 16 decades, so any change of summation order shows."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(3 ** d) * 10.0 ** rng.uniform(-8, 8, 3 ** d)
    return AggregateVector(values, 1000, d, 1.0)


def _digit_products(d, seed, count):
    rng = np.random.default_rng(seed)
    products = [[(0, 1, 2)] * d, [(0,)] * d, [(2,)] * d, [(1,)] * d, [(0, 2)] * d]
    products += [[DIGIT_SETS[i] for i in rng.integers(0, len(DIGIT_SETS), d)] for _ in range(count)]
    return products


@pytest.mark.parametrize("d", [1, 2, 5, 12])
def test_product_sums_match_the_index_gather(d):
    agg = _aggregate(d, d)
    for sets in _digit_products(d, d + 1, 30):
        got = _product_values(agg.values, sets)
        want = agg.values[_ref_product_indices(sets)]
        assert got.tobytes() == want.tobytes()
        assert np.float64(got.sum()).tobytes() == np.float64(want.sum()).tobytes()


@pytest.mark.parametrize("d", [1, 2, 5, 12])
def test_frequency_and_signed_sums_match_the_index_gather(d):
    agg = _aggregate(d, d + 2)
    rng = np.random.default_rng(d + 3)
    for _ in range(20):
        alpha = rng.integers(0, 2, d)
        beta = alpha * rng.integers(0, 2, d)
        sets = [((0, 2) if b else (1,)) if a else (0, 1, 2) for a, b in zip(alpha, beta)]
        want = float(agg.values[_ref_product_indices(sets)].sum())
        assert repr(frequency_count(agg, alpha, beta)) == repr(want)
        free = np.flatnonzero(alpha == 0)
        if free.size:
            k = int(free[0])
            augmented = Condition(tuple(alpha), tuple(beta)).augmented(k)
            sets[k] = (2,)
            plus = float(agg.values[_ref_product_indices(sets)].sum())
            sets[k] = (0,)
            minus = float(agg.values[_ref_product_indices(sets)].sum())
            assert repr(_signed_value_sum(agg, k, augmented)) == repr(plus - minus)


def _block_sizes(row_size, block_elements=65536):
    """n below one block, exactly two blocks, and one row past a block."""
    rows = max(1, block_elements // row_size)
    return [max(1, rows // 3), 2 * rows, rows + 1]


@pytest.mark.parametrize("d", [1, 12])
def test_blocked_index_matches_the_one_shot_draw(d):
    for n in _block_sizes(d):
        values = _matrix(n, d, 70 + n)
        g, ref = _generators(71)
        _assert_identical(ioh_index_population(values, g), _ref_ioh_index(values, ref), g, ref)


def test_row_blocks_cover_every_row_once():
    for n, row_size, block in [(1, 12, 64), (10, 3, 9), (12, 3, 9), (13, 3, 9), (5, 100, 9), (0, 4, 8)]:
        blocks = row_blocks(n, row_size, block)
        assert np.arange(n).tolist() == [i for rows in blocks for i in range(n)[rows]]
        assert all(len(range(n)[rows]) * row_size <= max(block, row_size) for rows in blocks)


def test_blocked_peruser_simulation_matches_reference_across_blocks():
    d = 8
    for n in _block_sizes(3 ** d, _PERUSER_BLOCK_ELEMENTS)[1:]:
        values = _matrix(n, d, 80 + n)
        g, ref = _generators(81)
        sample = simulate_ioh_bit_sums(values, 1.0, g, method="peruser")
        _assert_identical(sample.bit_sums, _ref_peruser_bit_sums(values, 1.0, ref), g, ref)


def test_peruser_simulation_memory_is_bounded_by_its_block():
    # One-shot, 1000 users at d=8 need 52 MB of uniforms alone; a block is
    # 8 MB, and a block's uniforms live until the next block's replace them.
    d, n = 8, 1000
    values = _matrix(n, d, 90)
    block_bytes = 8 * _PERUSER_BLOCK_ELEMENTS
    assert 8 * n * 3 ** d > 6 * block_bytes
    tracemalloc.start()
    try:
        simulate_ioh_bit_sums(values, 1.0, RandomSource(91).generator(), method="peruser")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * block_bytes


@pytest.mark.parametrize("shape", [(1, 2), (500, 2), (3000, 5), (2000, 12)])
def test_true_conditional_matches_the_full_matrix_form(shape):
    n, d = shape
    ds = Dataset(_matrix(n, d, 100 + d))
    rng = np.random.default_rng(101 + d)
    # The empty condition, then "the last key held" (no user holds it), then random ones.
    conditions = [Condition.empty(d), Condition.parse(f"k{d}=1", d)]
    for _ in range(20):
        alpha = rng.integers(0, 2, d)
        conditions.append(Condition(tuple(alpha), tuple(alpha * rng.integers(0, 2, d))))
    answered = 0
    for cond in conditions:
        for k in range(d):
            if cond.alpha[k]:
                continue
            got = np.array(true_conditional(ds, k, cond))
            assert got.tobytes() == np.array(_ref_true_conditional(ds, k, cond)).tobytes()
            answered += not np.isnan(got).any()
    assert np.isnan(true_conditional(ds, 0, conditions[1])).all()
    assert answered


@pytest.mark.parametrize("d", [1, 12])
def test_blocked_presence_matches_the_one_shot_draw(d):
    freq = np.linspace(0.1, 0.9, d)
    mean = np.linspace(-0.9, 0.9, d)
    for n in _block_sizes(d):
        g, ref = _generators(120 + n)
        got = _materialize(freq, mean, n, g, 0.1)
        _assert_identical(got, _ref_materialize(freq, mean, n, ref, 0.1), g, ref)
