"""Conditional-analysis tests: indexing, index algebra, and private queries."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvldp.conditional import (
    IOH_DIMENSION_CAP,
    AggregateVector,
    Condition,
    QueryPlan,
    aggregate_from_bit_sums,
    conditional_frequency,
    conditional_mean,
    frequency_count,
    frequency_index_set,
    ioh_index_population,
    load_aggregate,
    mean_index_sets,
    parse_key_name,
    save_aggregate,
    simulate_ioh_bit_sums,
)
from kvldp.core import CapacityError, DomainError, RandomSource
from kvldp.datagen import Dataset, gen_regime, true_conditional
from kvldp.harness import run_conditional
from kvldp.mechanisms import clipped_ratio

# Three users over {Hamburger, Fries, Pepsi} with deterministic +-1 values:
# user1 <1,1>,<0,0>,<1,-1>; user2 <1,-1>,<1,1>,<1,1>; user3 <0,0>,<1,-1>,<1,-1>.
TOY_VALUES = np.array([
    [1.0, np.nan, -1.0],
    [-1.0, 1.0, 1.0],
    [np.nan, -1.0, -1.0],
])


def _ref_ioh_index(row, g):
    """Per-record reference: ascending keys, one discretization draw per present key."""
    index = 0
    for value in row:
        if math.isnan(value):
            digit = 1
        else:
            digit = 2 if g.random() < (1.0 + value) / 2.0 else 0
        index = index * 3 + digit
    return index


def test_ioh_index_frozen_examples():
    g = RandomSource(1).generator()
    # States (<1,1>, <0,0>, <1,-1>) have digits (2,1,0): 2*9 + 1*3 + 0 = 21.
    assert ioh_index_population(np.array([[1.0, np.nan, -1.0]]), g)[0] == 21
    assert ioh_index_population(np.array([[np.nan]]), g)[0] == 1
    # Both keys present at +1 is the maximal index 3^2 - 1 = 8.
    assert ioh_index_population(np.array([[1.0, 1.0]]), g)[0] == 8


def test_ioh_index_errors():
    g = RandomSource(1).generator()
    with pytest.raises(CapacityError):
        ioh_index_population(np.full((1, IOH_DIMENSION_CAP + 1), np.nan), g)
    with pytest.raises(DomainError):
        ioh_index_population(np.empty((1, 0)), g)


def test_ioh_index_population_matches_scalar():
    g = RandomSource(2).generator()
    indices = ioh_index_population(TOY_VALUES, g)
    # Deterministic +-1 values fix the digits: (2,1,0), (0,2,2), (1,0,0).
    assert list(indices) == [21, 8, 9]
    # On +-1 values the index is a function of the record, so both paths agree row by row.
    rng = np.random.default_rng(8)
    values = np.where(rng.random((500, 5)) < 0.6, rng.choice([-1.0, 1.0], (500, 5)), np.nan)
    ref = [_ref_ioh_index(row, g) for row in values]
    assert list(ioh_index_population(values, g)) == ref
    # On fractional values the two paths draw differently but share one law:
    # every index count agrees within 4 standard deviations of a difference.
    n = 20000
    row = np.array([0.3, np.nan, -0.6])
    ref = np.bincount([_ref_ioh_index(row, g) for _ in range(n)], minlength=27)
    got = np.bincount(ioh_index_population(np.tile(row, (n, 1)), g), minlength=27)
    assert np.all(np.abs(got - ref) <= 4 * np.sqrt(got + ref + 1))


@pytest.mark.parametrize("method", ["peruser", "bogus", None])
def test_simulation_has_one_method_and_checks_it_before_any_draw(method):
    g = RandomSource(8).generator()
    with pytest.raises(DomainError, match="unknown simulation method"):
        simulate_ioh_bit_sums(np.ones((3, 2)), 1.0, g, method=method)
    assert g.random() == RandomSource(8).generator().random()  # nothing was drawn


def test_ioh_encode_noiseless_is_one_hot():
    g = RandomSource(3).generator()
    sample = simulate_ioh_bit_sums(np.array([[1.0, np.nan, -1.0]]), 50.0, g, method="column")
    expected = np.zeros(27, dtype=np.int64)
    expected[21] = 1
    assert (sample.bit_sums == expected).all()


def test_ioh_encode_expected_set_bits():
    # d=1 at eps = 2 ln3: each bit kept w.p. 0.75, so a one-hot input sets
    # 0.75 + 2 * 0.25 = 1.25 bits on average.
    g = RandomSource(4).generator()
    rounds = 20000
    sample = simulate_ioh_bit_sums(np.ones((rounds, 1)), 2 * math.log(3), g, method="column")
    assert sample.bit_sums.sum() / rounds == pytest.approx(1.25, abs=0.01)


def test_ioh_aggregate_frozen_calibration():
    # e^{eps/2} = 3, N = 100, column sum 30: (4*30 - 100)/2 = 10.
    agg = aggregate_from_bit_sums(np.array([30, 30, 30]), 100, 1, 2 * math.log(3))
    assert np.allclose(agg.values, 10.0, rtol=1e-12)


def test_ioh_aggregate_noiseless_counts():
    g = RandomSource(5).generator()
    values = np.concatenate([np.full(40, 1.0), np.full(10, np.nan)])[:, None]
    sample = simulate_ioh_bit_sums(values, 50.0, g, method="column")
    agg = aggregate_from_bit_sums(sample.bit_sums, sample.n_users, 1, 50.0)
    assert agg.n_users == 50
    assert np.allclose(agg.values, [0.0, 10.0, 40.0], atol=1e-6)


def test_ioh_aggregate_unbiased_monte_carlo():
    # True count 40 at one position out of N = 1000 users, eps = 2.
    values = np.concatenate([np.full(40, 1.0), np.full(960, np.nan)])[:, None]
    rounds = 300
    samples = np.empty((rounds, 3))
    for r in range(rounds):
        sample = simulate_ioh_bit_sums(values, 2.0, RandomSource(400, r).generator(), method="column")
        agg = aggregate_from_bit_sums(sample.bit_sums, sample.n_users, 1, 2.0)
        samples[r] = agg.values
    for position, truth in ((2, 40.0), (1, 960.0), (0, 0.0)):
        stderr = samples[:, position].std(ddof=1) / math.sqrt(rounds)
        assert abs(samples[:, position].mean() - truth) <= 4 * stderr
    # Each user contributes one calibrated unit in expectation.
    totals = samples.sum(axis=1)
    assert abs(totals.mean() - 1000.0) <= 4 * totals.std(ddof=1) / math.sqrt(rounds)


def test_peruser_simulation_matches_column_law():
    # The column law meets the per-user mean and variance; the per-user
    # reference itself is in tests/test_kernel_reference.py.
    values = np.concatenate([np.full(30, 1.0), np.full(170, np.nan)])[:, None]
    rounds = 300
    samples = np.empty(rounds)
    for r in range(rounds):
        sample = simulate_ioh_bit_sums(values, 1.0, RandomSource(401, r).generator(), method="column")
        agg = aggregate_from_bit_sums(sample.bit_sums, sample.n_users, 1, 1.0)
        samples[r] = agg.values[2]
    stderr = samples.std(ddof=1) / math.sqrt(rounds)
    assert abs(samples.mean() - 30.0) <= 4 * stderr
    # Per-position variance is N e^{eps/2} / (e^{eps/2} - 1)^2, as for per-user reports.
    e_half = math.exp(0.5)
    var_exact = 200 * e_half / (e_half - 1) ** 2
    assert 0.6 <= samples.var(ddof=1) / var_exact <= 1.5


def test_aggregate_linearity():
    values = np.where(RandomSource(6).generator().random((400, 2)) < 0.5, 0.7, np.nan)
    sample = simulate_ioh_bit_sums(values, 1.5, RandomSource(7).generator(), method="column")
    half = 200
    # Recompute halves from the same per-user draw by re-simulating with a
    # fixed stream is not possible at the column level, so check linearity
    # of the calibration itself: aggregating (sums, N) in two pieces adds up.
    sums_a = sample.bit_sums // 2
    sums_b = sample.bit_sums - sums_a
    whole = aggregate_from_bit_sums(sample.bit_sums, 400, 2, 1.5).values
    parts = (aggregate_from_bit_sums(sums_a, half, 2, 1.5).values
             + aggregate_from_bit_sums(sums_b, 400 - half, 2, 1.5).values)
    assert np.allclose(whole, parts, rtol=1e-12, atol=1e-9)


def test_frequency_index_set_frozen_examples():
    assert list(frequency_index_set((1, 0, 1))) == [3, 5, 21, 23]
    assert list(frequency_index_set((0, 0, 0))) == [13]
    assert list(frequency_index_set((1, 1))) == [0, 2, 6, 8]


def test_mean_index_sets_frozen_example():
    plus, minus = mean_index_sets(0, (1, 0, 1))
    assert list(plus) == [21, 23]
    assert list(minus) == [3, 5]
    plus, minus = mean_index_sets(0, (1,))
    assert list(plus) == [2]
    assert list(minus) == [0]
    with pytest.raises(DomainError):
        mean_index_sets(1, (1, 0, 1))


@given(st.integers(min_value=1, max_value=6), st.data())
@settings(max_examples=60, deadline=None)
def test_mean_index_sets_partition_property(d, data):
    gamma = list(data.draw(st.tuples(*[st.integers(0, 1)] * d)))
    k = data.draw(st.integers(0, d - 1))
    gamma[k] = 1
    gamma = tuple(gamma)
    plus, minus = mean_index_sets(k, gamma)
    popcount = sum(gamma)
    assert len(plus) == len(minus) == 2 ** (popcount - 1)
    assert not set(plus) & set(minus)
    assert sorted(set(plus) | set(minus)) == list(frequency_index_set(gamma))


def _random_aggregate(d, seed):
    g = RandomSource(seed).generator()
    return AggregateVector(g.normal(size=3 ** d), 100, d, 1.0)


def test_frequency_count_worked_examples():
    agg = _random_aggregate(3, 8)
    # F with alpha=101, beta=101 sums the exact patterns 101 and 111.
    direct = frequency_count(agg, (1, 0, 1), (1, 0, 1))
    expanded = (agg.values[frequency_index_set((1, 0, 1))].sum()
                + agg.values[frequency_index_set((1, 1, 1))].sum())
    assert direct == pytest.approx(expanded, rel=1e-12)
    # F with alpha=001, beta=000 expands over the four patterns with last key absent.
    direct = frequency_count(agg, (0, 0, 1), (0, 0, 0))
    expanded = sum(agg.values[frequency_index_set(g)].sum()
                   for g in [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])
    assert direct == pytest.approx(expanded, rel=1e-12)
    # Unconstrained condition counts everything.
    assert frequency_count(agg, (0, 0, 0), (0, 0, 0)) == pytest.approx(float(agg.values.sum()), rel=1e-12)


def test_frequency_count_validation():
    agg = _random_aggregate(2, 9)
    with pytest.raises(DomainError):
        frequency_count(agg, (1, 0), (1, 1))  # beta not supported on alpha
    with pytest.raises(DomainError):
        frequency_count(agg, (1, 0, 0), (0, 0, 0))  # wrong length


@given(st.integers(min_value=1, max_value=5), st.data())
@settings(max_examples=60, deadline=None)
def test_marginal_consistency(d, data):
    agg = _random_aggregate(d, data.draw(st.integers(0, 1000)))
    alpha = list(data.draw(st.tuples(*[st.integers(0, 1)] * d)))
    beta = [a and data.draw(st.integers(0, 1)) for a in alpha]
    free = [i for i in range(d) if not alpha[i]]
    if not free:
        return
    i = data.draw(st.sampled_from(free))
    total = frequency_count(agg, tuple(alpha), tuple(beta))
    alpha2 = list(alpha)
    alpha2[i] = 1
    with_key = list(beta)
    with_key[i] = 1
    split = (frequency_count(agg, tuple(alpha2), tuple(with_key))
             + frequency_count(agg, tuple(alpha2), tuple(beta)))
    assert total == pytest.approx(split, rel=1e-9, abs=1e-9)


def _noiseless_aggregate(values, seed=10):
    sample = simulate_ioh_bit_sums(values, 50.0, RandomSource(seed).generator(), method="column")
    return aggregate_from_bit_sums(sample.bit_sums, sample.n_users, values.shape[1], 50.0)


def test_conditional_queries_toy_population():
    ds = Dataset(TOY_VALUES)
    agg = _noiseless_aggregate(TOY_VALUES)
    # Frequency of Hamburger among Pepsi drinkers: 2 of 3.
    cond = Condition.parse("k3=1", 3)
    assert conditional_frequency(agg, 0, cond) == pytest.approx(2 / 3, abs=1e-6)
    assert true_conditional(ds, 0, cond)[0] == pytest.approx(2 / 3)
    # Mean Pepsi value among Hamburger holders: (-1 + 1)/2 = 0.
    cond = Condition.parse("k1=1", 3)
    assert conditional_mean(agg, 2, cond) == pytest.approx(0.0, abs=1e-6)
    assert true_conditional(ds, 2, cond)[1] == pytest.approx(0.0)


def test_conditional_frequency_unconditional_reduction():
    agg = _noiseless_aggregate(TOY_VALUES)
    empty = Condition.empty(3)
    # Reduces to the single-key frequency estimate: Pepsi held by all 3.
    assert conditional_frequency(agg, 2, empty) == pytest.approx(1.0, abs=1e-6)
    assert conditional_frequency(agg, 1, empty) == pytest.approx(2 / 3, abs=1e-6)


def test_conditional_contradictory_condition_is_undefined():
    agg = _noiseless_aggregate(TOY_VALUES)
    # Nobody lacks Pepsi in the toy data.
    cond = Condition.parse("k3=0", 3)
    assert math.isnan(conditional_frequency(agg, 0, cond))
    assert math.isnan(conditional_mean(agg, 0, cond))


@pytest.mark.parametrize("full_partition", [False, True], ids=["lumped", "full"])
@pytest.mark.parametrize("d, epsilon", [(4, 1.0), (4, 50.0), (8, 1.0), (8, 50.0)])
def test_query_plan_answers_are_the_operators_bit_for_bit(d, epsilon, full_partition):
    values = gen_regime("high", "low", d, 3000, seed=30 + d).values.copy()  # a dataset's values are read-only
    values[:, d - 1] = np.nan_to_num(values[:, d - 1], nan=0.5)  # every user holds the last key
    # The workload's queries, whose last one (k1 given k{d}=0) is contradictory, then a mean target on two keys.
    queries = [(0, Condition.parse(f"k{j}={bit}", d)) for j in range(2, d + 1) for bit in (1, 0)]
    queries.append((1, Condition.parse("k1=1,k3=0", d)))
    rows = run_conditional(Dataset(values), (epsilon,), 1, seed=d, queries=queries, full_partition=full_partition)
    agg = rows.aggregate  # cell 0's, whose rows come first
    want = np.array([(conditional_frequency(agg, k, cond), conditional_mean(agg, k, cond)) for k, cond in queries])
    assert np.array(QueryPlan(queries, agg.classes).answers(agg)).tobytes() == want.tobytes()
    assert np.array([(row["freq_est"], row["mean_est"]) for row in rows]).tobytes() == want.tobytes()
    if epsilon == 50.0:  # noiseless: the contradictory query counts no user
        assert np.isnan(want[2 * (d - 1) - 1]).all() and not np.isnan(want).all()
    with pytest.raises(DomainError, match="partition"):
        QueryPlan(queries, agg.classes).answers(AggregateVector(agg.values, agg.n_users, d, epsilon, ((0, 0, 0),) * d))


def test_a_target_whose_digits_0_and_2_share_a_class_is_no_target():
    # Key 1's classes lump its negative and positive values; both operators answer through one plan,
    # which reads k1 at digit 2 and at digit 0 apart, so the frequency raises where the mean does.
    agg = AggregateVector(np.ones(2 * 3), 100, 2, 1.0, ((0, 1, 0), (0, 1, 2)))
    for operator_ in (conditional_frequency, conditional_mean):
        with pytest.raises(DomainError, match="split a class"):
            operator_(agg, 0, Condition.empty(2))
    assert conditional_frequency(agg, 1, Condition.parse("k1=1", 2)) == pytest.approx(2 / 3)


def test_an_aggregate_holds_one_value_per_atom():
    # Eight values on d = 2 used to build an aggregate whose operators raised a bare ValueError
    # (cannot reshape) and whose saved file load_aggregate refused.
    with pytest.raises(DomainError, match=r"a vector of 9 values, not of shape \(8,\)"):
        aggregate_from_bit_sums(np.full(8, 2), 3, 2, 1.0)
    with pytest.raises(DomainError, match=r"a vector of 6 values, not of shape \(9,\)"):
        AggregateVector(np.ones(9), 100, 2, 1.0, ((0, 1, 0), (0, 1, 2)))
    with pytest.raises(DomainError, match=r"a vector of 3 values, not of shape \(3, 3\)"):
        AggregateVector(np.ones((3, 3)), 100, 1, 1.0)
    assert len(aggregate_from_bit_sums(np.full(9, 2), 3, 2, 1.0).values) == 9
    assert len(AggregateVector(np.ones(6), 100, 2, 1.0, ((0, 1, 0), (0, 1, 2))).values) == 6


@pytest.mark.parametrize("low", [0.0, -1.0])
def test_clipped_ratio_clips_as_np_clip_does(low):
    xs = (-0.0, 0.0, math.nan, 1.0, -1.0, 0.5, -0.5, 2.0, -2.0, math.inf, -math.inf)
    got = clipped_ratio(np.array(xs), 1.0, low, True)
    assert got.dtype == np.float64 and got.shape == (len(xs),)
    for x, y in zip(xs, got.tolist()):
        assert type(y) is float
        assert np.float64(y).tobytes() == np.float64(np.clip(x, low, 1.0)).tobytes(), x
    # NaN exactly where the denominator counts fewer than one user, with no warning at a zero one.
    bottom = np.array([0.0, 0.5, 2.0])
    got = clipped_ratio(np.ones(3), bottom, low, bottom >= 1.0)
    assert np.isnan(got[:2]).all() and got[2] == 0.5


def test_conditional_boundary_all_plus_one():
    values = np.array([[1.0, 1.0], [1.0, np.nan], [1.0, 1.0]])
    agg = _noiseless_aggregate(values, seed=11)
    assert conditional_mean(agg, 0, Condition.parse("k2=1", 2)) == pytest.approx(1.0, abs=1e-6)


def test_conditional_accuracy_d2_synthetic():
    # d=2, N=10^4, eps=4: estimates within 0.15 of the oracle on a
    # condition holding about 80% of users, across 20 trials.
    g = RandomSource(12).generator()
    n = 10**4
    values = np.where(g.random((n, 2)) < 0.8, -0.8 + 0.1 * g.uniform(-1, 1, (n, 2)), np.nan)
    ds = Dataset(values)
    cond = Condition.parse("k2=1", 2)
    true_freq, true_mean = true_conditional(ds, 0, cond)
    for trial in range(20):
        sample = simulate_ioh_bit_sums(values, 4.0, RandomSource(500, trial).generator(), method="column")
        agg = aggregate_from_bit_sums(sample.bit_sums, n, 2, 4.0)
        assert abs(conditional_frequency(agg, 0, cond) - true_freq) <= 0.15
        assert abs(conditional_mean(agg, 0, cond) - true_mean) <= 0.15


def test_exhaustive_noiseless_equivalence_d2():
    g = RandomSource(13).generator()
    values = np.where(g.random((60, 2)) < 0.5, np.where(g.random((60, 2)) < 0.5, 1.0, -1.0), np.nan)
    ds = Dataset(values)
    agg = _noiseless_aggregate(values, seed=14)
    for k in range(2):
        other = 1 - k
        for constraint in (None, 0, 1):
            if constraint is None:
                cond = Condition.empty(2)
            else:
                cond = Condition.parse(f"k{other + 1}={constraint}", 2)
            want_freq, want_mean = true_conditional(ds, k, cond)
            got_freq = conditional_frequency(agg, k, cond)
            got_mean = conditional_mean(agg, k, cond)
            if math.isnan(want_freq):
                assert math.isnan(got_freq)
            else:
                assert got_freq == pytest.approx(want_freq, abs=1e-6)
            if math.isnan(want_mean):
                assert math.isnan(got_mean)
            else:
                assert got_mean == pytest.approx(want_mean, abs=1e-6)


def test_condition_parse_and_validation():
    cond = Condition.parse("k3=1,k1=0", 3)
    assert cond.alpha == (1, 0, 1)
    assert cond.beta == (0, 0, 1)
    assert Condition.parse("", 2) == Condition.empty(2)
    cond = Condition.parse(" k10=1,k2=0\n", 12)
    assert (cond.alpha[1], cond.beta[1], cond.alpha[9], cond.beta[9]) == (1, 0, 1, 1)
    assert parse_key_name("k12") == 11
    for bad in ("k4=1", "k0=1", "k1=2", "k1=1,k1=0", "banana"):
        with pytest.raises(DomainError):
            Condition.parse(bad, 3)
    with pytest.raises(DomainError):
        Condition((1, 0), (1, 1))
    with pytest.raises(DomainError):
        Condition.parse("k1=1", 3).augmented(0)
    augmented = Condition.parse("k1=1", 3).augmented(2)
    assert augmented.alpha == (1, 0, 1)
    assert augmented.beta == (1, 0, 1)


@pytest.mark.parametrize("text", ["k+2=1", "k\u0662=1", "k02=+1", "k02=1", "k2=+1", "k2=01", "k2 = 1",
                                  "k2=1 ,k1=0", "k2=1, k1=0", "k1_0=1", "K2=1", "k2=1=1", "k2", "k2=", ",",
                                  "k" + "1" * 5000 + "=1"])
def test_condition_parse_accepts_one_spelling_of_a_token(text):
    with pytest.raises(DomainError):
        Condition.parse(text, 12)


def test_aggregate_persistence_round_trip(tmp_path):
    agg = _random_aggregate(2, 15)
    path = tmp_path / "agg.txt"
    save_aggregate(agg, path, seed=77)
    loaded, seed = load_aggregate(path)
    assert seed == 77
    assert loaded.d == agg.d and loaded.n_users == agg.n_users
    assert loaded.epsilon == agg.epsilon
    assert (loaded.values == agg.values).all()
    lumped = AggregateVector(np.zeros(6), 100, 2, 1.0, ((0, 1, 2), (0, 1, 0)))
    with pytest.raises(DomainError, match="only a full 3\\^d aggregate"):
        save_aggregate(lumped, tmp_path / "lumped.txt")
    assert not (tmp_path / "lumped.txt").exists()
