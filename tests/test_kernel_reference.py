"""Bit-identity of the branch-free perturbation kernels against np.where references.

The reference functions below are the select-and-compact formulations the
kernels replaced: np.where on random masks, boolean-mask compaction in the
tallies, fancy-index gathers, and a per-report inverse CDF that compares a
uniform with every threshold of its row at once.  Every test runs a kernel
and its reference on two generators of the same stream and asserts equal
bytes, equal dtypes and shapes, and an equal generator state afterwards,
so the kernels draw the same variates in the same order.

The four hand-written samplers the channel-table sampler replaced are kept
below as _ref_lpp, _ref_f2m, _ref_kvue and _ref_kvoh.  They draw in another
order, so the table sampler is checked against them in law: a two-sample
chi-square test on the (true state, payload code) counts.  The per-user
full-record sampler that simulate_ioh_bit_sums' column law replaced is
kept as _ref_peruser_bit_sums, the reference of the same test on
(position, bit sum) counts.  So is _ref_column_bit_sums, the column law
as it was drawn before its kept bits were drawn only at occupied
positions.  The lumped conditional draw is checked against the full
vector twice: bit for bit on the partition whose atoms are single
positions, and in law on coarser partitions, by a chi-square test on the
binned answers to the queries that partition serves.

The tie tests build values whose discretization threshold (1 + v) / 2, or a
budget whose inverse-CDF threshold, equals the uniform drawn for it
exactly, so a strict comparison turned non-strict changes the output.

The last section keeps the forms that the row-blocked draws, the strided
query sums and the column-only oracles replaced: one-shot (n, d) draws, a
gather by ascending product index, and an oracle over the whole presence
matrix.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from kvldp.conditional import (
    AggregateVector,
    Condition,
    Lumping,
    QueryPlan,
    _atom_sizes,
    _class_index,
    aggregate_from_bit_sums,
    conditional_frequency,
    conditional_mean,
    frequency_count,
    frequency_index_set,
    ioh_index_population,
    mean_index_sets,
    query_classes,
    simulate_ioh_bit_sums,
)
from kvldp.core import (
    DomainError,
    PrivacyBudget,
    RandomSource,
    flip_keep_probability,
    row_blocks,
    state_digits,
)
from kvldp.datagen import Dataset, _materialize, true_conditional, true_conditionals
from kvldp.harness import MECHANISMS
from kvldp.mechanisms import (
    ABSENT,
    NEG,
    PAYLOADS,
    POS,
    PROTOCOLS,
    Mechanism,
    ReportBatch,
    f2m_encode_population,
    f2m_state_channel,
    kvoh_bit_channel,
    kvoh_channel,
    kvoh_decode_array,
    kvoh_encode_population,
    kvue_channel,
    kvue_encode_population,
    lpp_channel,
    lpp_encode_population,
    sample,
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


def _ref_state_digits(values, g):
    present = ~np.isnan(values)
    return _ref_digits(present, _ref_discretize_array(np.where(present, values, 0.0), g))


def _ref_sample(mechanism, values, channel, g):
    """The table sampler per report: a code counts the thresholds of its state's row at or below its uniform."""
    key_index, sampled, _ = _ref_gather(values, g)
    true_states = _ref_state_digits(sampled, g)
    u = g.random(len(key_index))
    cdf = np.cumsum(channel, axis=1)[true_states, :-1]
    return ReportBatch(mechanism, key_index, (u[:, None] >= cdf).sum(axis=1).astype(np.uint8), true_states)


# The hand-written samplers the table sampler replaced, each returning its
# reports as a ReportBatch: the law reference of the two-sample test.


def _ref_lpp(values, budget, g):
    key_index, sampled, present = _ref_gather(values, g)
    placeholder = g.uniform(-1.0, 1.0, size=sampled.shape)
    v_star = _ref_discretize_array(np.where(present, sampled, placeholder), g)
    v_prime = _ref_rr_sign_array(v_star, budget.epsilon_value, g)
    keep = g.random(sampled.shape) < flip_keep_probability(budget.epsilon_key)
    emit_key = np.where(present, keep, ~keep)
    states = np.where(emit_key, np.where(v_prime > 0, POS, NEG), ABSENT)
    return ReportBatch(Mechanism.PRIVKV, key_index, states.astype(np.uint8), _ref_digits(present, v_star))


def _ref_f2m(values, budget, default_value, g):
    key_index, sampled, present = _ref_gather(values, g)
    key_bits = _ref_rr_bit_array(present.astype(np.int8), budget.epsilon_key, g)
    v_star = _ref_discretize_array(np.where(present, sampled, default_value), g)
    signs = _ref_rr_sign_array(v_star, budget.epsilon_value, g)
    codes = 2 * key_bits + (signs > 0)
    return ReportBatch(Mechanism.F2M, key_index, codes.astype(np.uint8), _ref_digits(present, v_star))


def _ref_kvue(values, epsilon, g):
    key_index, sampled, present = _ref_gather(values, g)
    v_star = _ref_discretize_array(np.where(present, sampled, 0.0), g)
    true_states = _ref_digits(present, v_star)
    states = _ref_direct_encode_array(true_states, 3, epsilon, g)
    return ReportBatch(Mechanism.KVUE, key_index, states.astype(np.uint8), true_states)


def _ref_kvoh(values, epsilon, g):
    key_index, sampled, present = _ref_gather(values, g)
    v_star = _ref_discretize_array(np.where(present, sampled, 0.0), g)
    true_states = _ref_digits(present, v_star)
    p = flip_keep_probability(float(epsilon) / 2.0)
    onehot = true_states[:, None] == np.arange(3, dtype=np.int8)[None, :]
    u = g.random((sampled.shape[0], 3))
    bits = np.where(onehot, u < p, u < 1.0 - p)
    codes = bits @ np.array([4, 2, 1])
    return ReportBatch(Mechanism.KVOH, key_index, codes.astype(np.uint8), true_states)


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


def _ref_column_bit_sums(values, epsilon, g):
    n, d = values.shape
    flip, keep = kvoh_bit_channel(epsilon)[1]
    counts = np.bincount(ioh_index_population(values, g), minlength=3 ** d)
    return g.binomial(counts, keep) + g.binomial(n - counts, flip)


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
    values[::7], values[::11], values[::13], values[::17] = -1.0, 1.0, 0.0, np.nan
    for shaped in (values, values.reshape(50, 100), values[:1]):
        g, ref = _generators(seed)
        _assert_identical(state_digits(shaped, g), _ref_state_digits(shaped, ref), g, ref)


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
        got = lpp_encode_population(values, budget, g)
        want = _ref_sample(Mechanism.PRIVKV, values, lpp_channel(budget), ref)
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
        want = _ref_sample(Mechanism.F2M, values, f2m_state_channel(budget, default_value), ref)
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
        got = kvue_encode_population(values, epsilon, g)
        want = _ref_sample(Mechanism.KVUE, values, kvue_channel(epsilon), ref)
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
        got = kvoh_encode_population(values, epsilon, g)
        want = _ref_sample(Mechanism.KVOH, values, kvoh_channel(epsilon), ref)
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
# The table sampler in law against the samplers it replaced
# ---------------------------------------------------------------------------
#
# Per mechanism, the (true state, payload code) counts of the table sampler
# and of the old sampler, each on its own fixed seed, form a two-row table.
# Pearson's homogeneity statistic is held against the chi-square quantile
# at the standard normal z = 4 (Wilson-Hilferty), a false-alarm rate of
# about 3e-5 per test.

OLD_SAMPLERS = {
    "privkv": lambda values, eps, vbar, g: _ref_lpp(values, PrivacyBudget.split(eps), g),
    "privkv-improved": lambda values, eps, vbar, g: _ref_lpp(values, PrivacyBudget.split(eps), g),
    "f2m": lambda values, eps, vbar, g: _ref_f2m(values, PrivacyBudget.split(eps), vbar, g),
    "kvue": lambda values, eps, vbar, g: _ref_kvue(values, eps, g),
    "kvoh": lambda values, eps, vbar, g: _ref_kvoh(values, eps, g),
}


def _chi_square_critical(dof: int, z: float = 4.0) -> float:
    return dof * (1.0 - 2.0 / (9.0 * dof) + z * math.sqrt(2.0 / (9.0 * dof))) ** 3


def _joint_counts(batch: ReportBatch) -> np.ndarray:
    size = len(PAYLOADS[batch.mechanism].values)
    return np.bincount(batch.true_states.astype(np.int64) * size + batch.codes, minlength=3 * size)


def _pearson(table: np.ndarray):
    """(Pearson's homogeneity statistic, dof) of a two-row count table, empty columns dropped."""
    table = table[:, table.sum(axis=0) > 0]
    expected = table.sum(axis=1, keepdims=True) * table.sum(axis=0) / table.sum()
    return float(((table - expected) ** 2 / expected).sum()), table.shape[1] - 1


def _homogeneity(name, new_epsilon, old_epsilon, vbar, seed):
    """(statistic, dof) of the table sampler's joint counts against the old sampler's."""
    values = _matrix(60000, 3, seed)
    new = PROTOCOLS[name].encode(values, new_epsilon, vbar, RandomSource(seed, 1).generator())
    old = OLD_SAMPLERS[name](values, old_epsilon, vbar, RandomSource(seed, 2).generator())
    return _pearson(np.stack([_joint_counts(new), _joint_counts(old)]))


@pytest.mark.parametrize("name", MECHANISMS)
@pytest.mark.parametrize("epsilon", [0.5, 2.0])
def test_table_sampler_matches_the_old_sampler_in_law(name, epsilon):
    statistic, dof = _homogeneity(name, epsilon, epsilon, 0.5, 150 + MECHANISMS.index(name) + int(10 * epsilon))
    assert statistic < _chi_square_critical(dof), (name, epsilon, statistic)


@pytest.mark.parametrize("name", MECHANISMS)
def test_homogeneity_rejects_the_old_sampler_at_another_budget(name):
    statistic, dof = _homogeneity(name, 1.3, 1.0, 0.5, 170 + MECHANISMS.index(name))
    assert statistic > _chi_square_critical(dof), (name, statistic)


# simulate_ioh_bit_sums' column law held against the per-user reference,
# _ref_peruser_bit_sums, which draws and sums every user's bit vector, and
# against _ref_column_bit_sums, the column law's earlier draw order.  Over
# repeated draws on one small population (two of its nine positions
# occupied) the two give a two-row table of (position, bit sum) counts;
# cells with fewer than 10 draws on both sides together are pooled into
# one.  Each position gets exactly one draw per repetition, a margin the
# statistic does not subtract, so it runs a little below its chi-square
# and errs toward passing: at 40 seeds its z averaged -0.5, and 1.2
# against 1.0 still failed 10 seeds in 10.

_COLUMN_USERS, _COLUMN_DIMENSION = 20, 2
COLUMN_REFERENCES = {"per-user": _ref_peruser_bit_sums, "all-positions": _ref_column_bit_sums}


def _column_homogeneity(new_epsilon, old_epsilon, seed, reference, repetitions=2000):
    """(statistic, dof) of simulate_ioh_bit_sums' (position, bit sum) counts against the reference's."""
    values = _matrix(_COLUMN_USERS, _COLUMN_DIMENSION, seed)
    new, old = RandomSource(seed, 1).generator(), RandomSource(seed, 2).generator()
    sums = np.array([[simulate_ioh_bit_sums(values, new_epsilon, new).bit_sums,
                      COLUMN_REFERENCES[reference](values, old_epsilon, old)] for _ in range(repetitions)])
    # Cell of (position i, bit sum s) is i * (n + 1) + s.
    cells = sums + np.arange(3 ** _COLUMN_DIMENSION) * (_COLUMN_USERS + 1)
    size = 3 ** _COLUMN_DIMENSION * (_COLUMN_USERS + 1)
    table = np.stack([np.bincount(cells[:, side].ravel(), minlength=size) for side in (0, 1)])
    sparse = table.sum(axis=0) < 10
    return _pearson(np.column_stack([table[:, ~sparse], table[:, sparse].sum(axis=1)]))


@pytest.mark.parametrize("epsilon", [0.5, 2.0])
def test_column_law_matches_the_per_user_reference(epsilon):
    statistic, dof = _column_homogeneity(epsilon, epsilon, 190 + int(10 * epsilon), "per-user")
    assert statistic < _chi_square_critical(dof), (epsilon, statistic, dof)


def test_column_homogeneity_rejects_the_per_user_reference_at_another_budget():
    statistic, dof = _column_homogeneity(1.3, 1.0, 230, "per-user")
    assert statistic > _chi_square_critical(dof), (statistic, dof)


@pytest.mark.parametrize("epsilon", [0.5, 2.0])
def test_occupied_position_draw_matches_the_all_positions_draw_in_law(epsilon):
    statistic, dof = _column_homogeneity(epsilon, epsilon, 240 + int(10 * epsilon), "all-positions")
    assert statistic < _chi_square_critical(dof), (epsilon, statistic, dof)


def test_column_homogeneity_rejects_the_all_positions_draw_at_another_budget():
    statistic, dof = _column_homogeneity(1.3, 1.0, 270, "all-positions")
    assert statistic > _chi_square_critical(dof), (statistic, dof)


@pytest.mark.parametrize("mechanism", list(Mechanism))
def test_zero_mass_payloads_are_never_drawn(mechanism):
    size = len(PAYLOADS[mechanism].values)
    values = _matrix(20000, 3, 180)
    one_hot = np.eye(size)[[1, 0, 1]]  # rows [0, 1, 0, ...], [1, 0, 0, ...], [0, 1, 0, ...]
    batch = sample(mechanism, values, one_hot, RandomSource(181).generator())
    assert (batch.codes == one_hot.argmax(axis=1)[batch.true_states]).all()
    rng = np.random.default_rng(182)
    for _ in range(5):
        channel = rng.random((3, size)) * (rng.random((3, size)) < 0.5)
        channel[:, rng.integers(0, size)] += 0.5
        channel /= channel.sum(axis=1, keepdims=True)
        batch = sample(mechanism, values, channel, RandomSource(183).generator())
        assert (channel[batch.true_states, batch.codes] > 0).all()


# ---------------------------------------------------------------------------
# Full-record index
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("shape", [(1, 1), (1, 12), (500, 1), (500, 2), (2000, 5), (2000, 12)])
@pytest.mark.parametrize("seed", SEEDS)
def test_ioh_index_population_matches_reference(shape, seed):
    values = _matrix(*shape, seed + 40)
    g, ref = _generators(seed)
    _assert_identical(ioh_index_population(values, g), _ref_ioh_index(values, ref), g, ref)


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
    out = state_digits(values, g)
    _assert_identical(out, _ref_state_digits(values, ref), g, ref)
    assert (out == NEG).all()


def _replay_encoder_draws(seed, n, d):
    """The key indices, discretization uniforms and code uniforms a sampler draws from (seed, 0)."""
    g = RandomSource(seed).generator()
    return g.integers(0, d, size=n), g.random(n), g.random(n)


@pytest.mark.parametrize("mechanism", ["privkv", "f2m", "kvue", "kvoh"])
def test_encoder_ties_match_reference(mechanism):
    n, d, seed = 1000, 5, 61
    key_index, u, _ = _replay_encoder_draws(seed, n, d)
    values = np.full((n, d), np.nan)
    holders = np.arange(n) % 4 != 0
    values[np.arange(n)[holders], key_index[holders]] = _tied(u[holders])
    budget = PrivacyBudget.split(1.0)
    encoders = {
        "privkv": (lambda v, g: lpp_encode_population(v, budget, g), lpp_channel(budget)),
        "f2m": (lambda v, g: f2m_encode_population(v, budget, 0.5, g), f2m_state_channel(budget, 0.5)),
        "kvue": (lambda v, g: kvue_encode_population(v, 1.0, g), kvue_channel(1.0)),
        "kvoh": (lambda v, g: kvoh_encode_population(v, 1.0, g), kvoh_channel(1.0)),
    }
    encode, channel = encoders[mechanism]
    g, ref = _generators(seed)
    got = encode(values, g)
    _assert_identical(got, _ref_sample(Mechanism(mechanism), values, channel, ref), g, ref)
    assert (got.true_states[holders] == NEG).all()


@pytest.mark.parametrize("position", [0, 1])
def test_code_threshold_ties_match_reference(position):
    # Every row's threshold at column position is the first report's code
    # uniform t exactly, so that report takes code position + 1, never position.
    n, d, seed = 1000, 5, 63
    t = _replay_encoder_draws(seed, n, d)[2][0]
    row = [t, 1.0 - t, 0.0] if position == 0 else [t, 0.0, 1.0 - t]
    channel = np.array([row] * 3)
    assert np.cumsum(channel, axis=1)[0, position] == t
    values = _matrix(n, d, seed)
    g, ref = _generators(seed)
    got = sample(Mechanism.KVUE, values, channel, g)
    _assert_identical(got, _ref_sample(Mechanism.KVUE, values, channel, ref), g, ref)
    assert got.codes[0] == position + 1


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
    encoders = [lambda g: lpp_encode_population(values, budget, g),
                lambda g: f2m_encode_population(values, budget, 0.0, g),
                lambda g: kvue_encode_population(values, 1.0, g),
                lambda g: kvoh_encode_population(values, 1.0, g)]
    encoders += [lambda g, entry=entry: entry.encode(values, 1.0, 0.0, g) for entry in PROTOCOLS.values()]
    for encode in encoders:
        with pytest.raises(DomainError):
            encode(RandomSource(0).generator())


@pytest.mark.parametrize("epsilon", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_encoders_reject_a_budget_that_is_not_positive_and_finite(epsilon):
    values = np.zeros((10, 2))
    g = RandomSource(0).generator()
    for name, entry in PROTOCOLS.items():
        with pytest.raises(DomainError):
            entry.encode(values, epsilon, 0.0, g)
    for encode in (kvue_encode_population, kvoh_encode_population):
        with pytest.raises(DomainError):
            encode(values, epsilon, g)
    with pytest.raises(DomainError):
        PrivacyBudget.split(epsilon)


@pytest.mark.parametrize("default_value", [1.0000000000000002, -1.5, math.nan, math.inf])
def test_f2m_rejects_a_default_value_outside_unit_interval(default_value):
    values = np.zeros((10, 2))
    g = RandomSource(0).generator()
    with pytest.raises(DomainError):
        f2m_encode_population(values, PrivacyBudget.split(1.0), default_value, g)
    with pytest.raises(DomainError):
        PROTOCOLS["f2m"].encode(values, 1.0, default_value, g)


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


def _aggregate(d, seed):
    """Calibrated-looking values over 16 decades, so any change of summation order shows."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(3 ** d) * 10.0 ** rng.uniform(-8, 8, 3 ** d)
    return AggregateVector(values, 1000, d, 1.0)


def _digit_sets(cond, target=None, digit=None):
    """Per key, the ascending digits a query reads: {0,2} present, {1} absent, {0,1,2} free, the target {digit}."""
    sets = [((0, 2) if b else (1,)) if a else (0, 1, 2) for a, b in zip(cond.alpha, cond.beta)]
    if target is not None:
        sets[target] = (digit,)
    return sets


def _digit_queries(d, seed, count):
    """(cond, target, digit): no key, every key present and every key absent constrained, then random
    conditions; each read whole and with a random key pinned to digit 0 and to digit 2."""
    rng = np.random.default_rng(seed)
    conds = [Condition.empty(d), Condition((1,) * d, (1,) * d), Condition((1,) * d, (0,) * d)]
    for _ in range(count):
        alpha = rng.integers(0, 2, d)
        conds.append(Condition(alpha, alpha * rng.integers(0, 2, d)))
    for cond in conds:
        target = int(rng.integers(d))
        yield from ((cond, None, None), (cond, target, 0), (cond, target, 2))


@pytest.mark.parametrize("d", [1, 2, 5, 12])
def test_product_sums_match_the_index_gather(d):
    # On the identity partition a query's view is the gather of its positions, in ascending index order.
    agg = _aggregate(d, d)
    identity = ((0, 1, 2),) * d
    for cond, target, digit in _digit_queries(d, d + 1, 30):
        index = _class_index(identity, cond, target, digit)
        positions = _ref_product_indices(_digit_sets(cond, target, digit))
        assert np.arange(3 ** d).reshape((3,) * d)[index].ravel().tobytes() == positions.tobytes()
        got, want = agg.values.reshape((3,) * d)[index].ravel(), agg.values[positions]
        assert got.tobytes() == want.tobytes()
        assert np.float64(got.sum()).tobytes() == np.float64(want.sum()).tobytes()
        if all(cond.alpha):  # an exact pattern: the index sets hold the same positions
            if target is None:
                assert frequency_index_set(cond.beta).tobytes() == positions.tobytes()
            elif cond.beta[target]:
                assert mean_index_sets(target, cond.beta)[digit == 0].tobytes() == positions.tobytes()


def _assert_same_sum(got, gathered):
    """got sums gathered's entries in its own order: equal to 1e-9 of their summed magnitudes."""
    assert abs(got - gathered.sum()) <= 1e-9 * np.abs(gathered).sum(), (got, gathered.sum())


def _plan_sums(agg, k, cond):
    """The four sums QueryPlan.answers forms for (k, cond): the condition's users, k held, k at 2 and at 0."""
    plan = QueryPlan([(k, cond)], agg.classes)
    return [float(agg.values.reshape(plan.shape)[index].sum()) for index in plan.indices[0]]


@pytest.mark.parametrize("d", [1, 2, 5, 12])
def test_frequency_and_signed_sums_match_the_index_gather(d):
    # The query sums reduce a strided view, in another order than the gather.
    agg = _aggregate(d, d + 2)
    rng = np.random.default_rng(d + 3)
    for _ in range(20):
        alpha = rng.integers(0, 2, d)
        beta = alpha * rng.integers(0, 2, d)
        cond = Condition(alpha, beta)
        _assert_same_sum(frequency_count(agg, alpha, beta), agg.values[_ref_product_indices(_digit_sets(cond))])
        free = np.flatnonzero(alpha == 0)
        if free.size:
            k = int(free[0])
            denominator, numerator, positive, negative = _plan_sums(agg, k, cond)
            _assert_same_sum(denominator, agg.values[_ref_product_indices(_digit_sets(cond))])
            _assert_same_sum(numerator, agg.values[_ref_product_indices(_digit_sets(cond.augmented(k)))])
            plus = agg.values[_ref_product_indices(_digit_sets(cond, k, 2))]
            minus = agg.values[_ref_product_indices(_digit_sets(cond, k, 0))]
            _assert_same_sum(positive - negative, np.concatenate([plus, -minus]))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_query_sums_match_the_index_set_sums_for_every_condition(d):
    # A condition's positions are the union of the exact patterns gamma that
    # agree with beta on alpha; so are the plus and minus sets of each target.
    agg = _aggregate(d, d + 40)
    patterns = list(itertools.product((0, 1), repeat=d))
    exact = {gamma: frequency_index_set(gamma) for gamma in patterns}
    signed = {(k, gamma): mean_index_sets(k, gamma) for gamma in patterns for k in range(d) if gamma[k]}
    for alpha, beta in itertools.product(patterns, repeat=2):
        if any(b and not a for a, b in zip(alpha, beta)):
            continue
        members = [gamma for gamma in patterns if all(g == b for g, a, b in zip(gamma, alpha, beta) if a)]
        _assert_same_sum(frequency_count(agg, alpha, beta), agg.values[np.concatenate([exact[g] for g in members])])
        for k in (key for key in range(d) if not alpha[key]):
            for sum_, side in zip(_plan_sums(agg, k, Condition(alpha, beta))[2:], (0, 1)):
                positions = np.concatenate([signed[k, g][side] for g in members if g[k]])
                _assert_same_sum(sum_, agg.values[positions])


def _block_sizes(row_size):
    """n below one row_blocks block, exactly two blocks, and one row past a block."""
    rows = max(1, 65536 // row_size)
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


@pytest.mark.parametrize("calibrate", [
    lambda sums: kvoh_decode_array(sums, 1000, 1.0),
    lambda sums: aggregate_from_bit_sums(sums, 1000, 10, 1.0),
], ids=["kvoh_decode_array", "aggregate_from_bit_sums"])
def test_calibrating_a_full_record_vector_makes_no_third_temporary(calibrate):
    # The float copy of the integer bit sums and the result are two 3^d
    # float vectors; a broadcast subtraction that numpy cannot elide is a third.
    sums = np.random.default_rng(92).integers(0, 1001, 3 ** 10)
    tracemalloc.start()
    try:
        calibrate(sums)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 3 ** 10 * 8


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


@pytest.mark.parametrize("shape", [(1, 2), (500, 2), (3000, 5), (2000, 12)])
def test_batched_oracle_matches_each_query_alone(shape):
    n, d = shape
    ds = Dataset(_matrix(n, d, 110 + d))
    rng = np.random.default_rng(111 + d)
    # "The last key held" matches no user; the last key as target has no holders.
    conditions = [Condition.empty(d), Condition.parse(f"k{d}=1", d), Condition.parse("k1=1", d)]
    for _ in range(10):
        alpha = rng.integers(0, 2, d)
        conditions.append(Condition(tuple(alpha), tuple(alpha * rng.integers(0, 2, d))))
    queries = [(k, cond) for cond in conditions for k in range(d) if not cond.alpha[k]]
    got = np.array(true_conditionals(ds, queries))
    assert got.tobytes() == np.array([_ref_true_conditional(ds, k, cond) for k, cond in queries]).tobytes()
    assert got.tobytes() == np.array([true_conditional(ds, k, cond) for k, cond in queries]).tobytes()
    assert np.isnan(got).all(axis=1).any()  # an empty matched set
    assert (np.isnan(got[:, 1]) & (got[:, 0] == 0.0)).any()  # matched users, no holders
    assert not np.isnan(got).any(axis=1).all()  # and answered queries


@pytest.mark.parametrize("d", [1, 12])
def test_blocked_presence_matches_the_one_shot_draw(d):
    freq = np.linspace(0.1, 0.9, d)
    mean = np.linspace(-0.9, 0.9, d)
    for n in _block_sizes(d):
        g, ref = _generators(120 + n)
        got = _materialize(freq, mean, n, g, 0.1)
        _assert_identical(got, _ref_materialize(freq, mean, n, ref, 0.1), g, ref)


# ---------------------------------------------------------------------------
# Lumped conditional draw
# ---------------------------------------------------------------------------


def _ref_full_aggregate(values, epsilon, g):
    """Bit sums and calibrated full vector as drawn before the lumped draw: one (n, d) index draw,
    flipped-on bits at every position, kept bits where the position is occupied."""
    n, d = values.shape
    flip, keep = kvoh_bit_channel(epsilon)[1]
    counts = np.bincount(_ref_ioh_index(values, g), minlength=3 ** d)
    bit_sums = g.binomial(n - counts, flip)
    held = np.flatnonzero(counts)
    bit_sums[held] += g.binomial(counts[held], keep)
    return bit_sums, kvoh_decode_array(bit_sums, n, epsilon)


@pytest.mark.parametrize("shape", [(1, 1), (500, 3), (3000, 6), (2000, 12)])
def test_full_partition_reproduces_the_full_vector_draw(shape):
    values = _matrix(*shape, 130 + shape[1])
    g, ref = _generators(131)
    bit_sums, full = _ref_full_aggregate(values, 1.0, ref)
    agg = Lumping(values).draw(1.0, g)
    _assert_identical(agg.values, full, g, ref)
    assert agg.classes == ((0, 1, 2),) * shape[1]
    g, ref = _generators(132)
    bit_sums, full = _ref_full_aggregate(values, 1.0, ref)
    sample = simulate_ioh_bit_sums(values, 1.0, g)
    _assert_identical(sample.bit_sums, bit_sums, g, ref)
    assert aggregate_from_bit_sums(sample.bit_sums, sample.n_users, shape[1], 1.0).values.tobytes() == full.tobytes()


def _workload_queries(d):
    """Target k1 conditioned on kj=1 and on kj=0 for every j != 1."""
    return [(0, Condition.parse(f"k{j}={bit}", d)) for j in range(2, d + 1) for bit in (1, 0)]


def test_query_partition_keeps_what_the_queries_read():
    # Key 1 is the workload's mean target; every other key is named only in conditions.
    classes = query_classes(_workload_queries(12), 12)
    assert classes == ((0, 1, 2),) + ((0, 1, 0),) * 11
    assert len(_atom_sizes(classes)) == 3 * 2 ** 11 and _atom_sizes(classes).sum() == 3 ** 12
    # A mean target, conditions on two keys, and a key no query names, which collapses to one class.
    classes = query_classes([(1, Condition.parse("k1=1,k3=0", 4))], 4)
    assert classes == ((0, 1, 0), (0, 1, 2), (0, 1, 0), (0, 0, 0))
    assert len(_atom_sizes(classes)) == 2 * 3 * 2 and _atom_sizes(classes).sum() == 3 ** 4
    assert _atom_sizes(((0, 1, 2),) * 5) == 1


def _lump_vector(values, d, classes):
    """Sum a full 3^d vector over the atoms of a partition."""
    lumped = values.reshape((3,) * d)
    for key, m in enumerate(classes):
        lumped = np.stack([lumped.take([t for t in range(3) if m[t] == c], axis=key).sum(axis=key)
                           for c in range(max(m) + 1)], axis=key)
    return lumped.ravel()


@pytest.mark.parametrize("d, queries", [
    (1, [(0, "")]),
    (3, [(0, "k2=1"), (2, "k1=0")]),
    (5, [(1, "k1=1,k3=0"), (1, "k3=1")]),
])
def test_lumped_index_and_sums_are_the_full_ones_mapped_through_the_classes(d, queries):
    queries = [(k, Condition.parse(text, d)) for k, text in queries]
    classes = query_classes(queries, d)
    strides = [math.prod(max(m) + 1 for m in classes[key + 1:]) for key in range(d)]
    rng = np.random.default_rng(140 + d)
    # On +-1 values every sign is certain, so the lumped index is the full one mapped per digit.
    values = np.where(rng.random((400, d)) < 0.6, rng.choice([-1.0, 1.0], (400, d)), np.nan)
    digits = np.unravel_index(ioh_index_population(values, rng), (3,) * d)
    mapped = sum(np.take(classes[key], digits[key]) * strides[key] for key in range(d))
    assert (Lumping(values, classes).index(rng) == mapped).all()
    # Query sums over the lumped vector equal those over the full one.
    full = AggregateVector(rng.normal(size=3 ** d) * 100.0 + 50.0, 1000, d, 1.0)
    lumped = AggregateVector(_lump_vector(full.values, d, classes), 1000, d, 1.0, classes)
    for k, cond in queries:
        for operator_ in (conditional_frequency, conditional_mean):
            assert operator_(lumped, k, cond) == pytest.approx(operator_(full, k, cond), rel=1e-9, nan_ok=True)
    if d == 5:  # k5 is in no query, so it has one class
        with pytest.raises(DomainError, match="split a class"):
            conditional_frequency(lumped, 1, Condition.parse("k5=1", d))


def _binned(answers, quantiles):
    """Bin codes of (repetitions, side) answers: pooled quantile bins of the defined answers, then NaN."""
    defined = answers[~np.isnan(answers)]
    edges = np.unique(np.quantile(defined, quantiles)) if len(defined) else np.empty(0)
    return np.where(np.isnan(answers), len(edges) + 1, np.searchsorted(edges, np.nan_to_num(answers))), len(edges) + 2


def _answer_homogeneity(queries, d, lumped_epsilon, full_epsilon, seed, repetitions=400, shared=True):
    """(statistic, dof) of the lumped draw's answers against the full vector's, per binned answer
    and per pair of binned frequencies (the joint law of two rows).  shared=False answers each
    query of the lumped side from its own draw."""
    rng = np.random.default_rng(seed)
    values = np.where(rng.random((200, d)) < 0.7, rng.uniform(-1.0, 1.0, (200, d)), np.nan)
    lumped = Lumping(values, query_classes(queries, d))
    full = Lumping(values)
    g_lumped, g_full = RandomSource(seed, 1).generator(), RandomSource(seed, 2).generator()

    def answers(lumping, epsilon, g, shared=True):
        agg = lumping.draw(epsilon, g)
        rows = []
        for k, cond in queries:
            agg = agg if shared else lumping.draw(epsilon, g)
            rows += [conditional_frequency(agg, k, cond), conditional_mean(agg, k, cond)]
        return rows

    table = np.array([[answers(lumped, lumped_epsilon, g_lumped, shared), answers(full, full_epsilon, g_full)]
                      for _ in range(repetitions)])  # (repetitions, side, answer)
    results = []
    for column in np.moveaxis(table, 2, 0):
        bins, size = _binned(column, np.linspace(0.1, 0.9, 9))
        results.append(_pearson(np.stack([np.bincount(bins[:, side], minlength=size) for side in (0, 1)])))
    for a, b in itertools.combinations(range(0, table.shape[2], 2), 2):
        (bins_a, size_a), (bins_b, size_b) = (_binned(table[:, :, j], [0.5]) for j in (a, b))
        joint = bins_a * size_b + bins_b
        results.append(_pearson(np.stack([np.bincount(joint[:, side], minlength=size_a * size_b) for side in (0, 1)])))
    return [(statistic, dof) for statistic, dof in results if dof]


LUMPED_QUERY_SETS = {"workload": (_workload_queries(4), 4),
                     "split keys": ([(1, Condition.parse("k1=1,k3=0", 4)), (1, Condition.parse("k1=0", 4))], 4)}


@pytest.mark.parametrize("name", list(LUMPED_QUERY_SETS))
def test_lumped_answers_match_the_full_vector_in_law(name):
    queries, d = LUMPED_QUERY_SETS[name]
    for statistic, dof in _answer_homogeneity(queries, d, 3.0, 3.0, 150 + d):
        assert statistic < _chi_square_critical(dof), (name, statistic, dof)


@pytest.mark.parametrize("budget, shared, repetitions", [(1.5, True, 300), (3.0, False, 300)],
                         ids=["another budget", "a draw per query"])
def test_answer_homogeneity_rejects_the_lumped_draw_at_another_budget_or_per_query(budget, shared, repetitions):
    # One draw per query keeps every answer's marginal law, so only the joint tests can see it.
    queries, d = LUMPED_QUERY_SETS["workload"]
    assert any(statistic > _chi_square_critical(dof)
               for statistic, dof in _answer_homogeneity(queries, d, 3.0, budget, 160, repetitions, shared))

