"""Tests for the randomness primitives: closed forms, sampling laws, determinism."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvldp.core import (
    DiscretizedState,
    DomainError,
    PrivacyBudget,
    RandomSource,
    flip_keep_probability,
    state_digits,
)
from kvldp.mechanisms import (
    Mechanism,
    f2m_encode_population,
    kvue_channel,
    rr_channel,
    sample,
)

NEG, ABSENT, POS = (int(state) for state in DiscretizedState)


def _ref_discretize(v, g):
    """Per-value reference: one uniform draw, +1 when it falls below (1 + v) / 2."""
    return 1 if g.random() < (1.0 + v) / 2.0 else -1


def _signs(values, g):
    """The +-1 value signs of state_digits for present values."""
    return state_digits(values, g).astype(np.int64) - 1


def _rr_bits(bits, epsilon, g):
    """Binary randomized response through the table sampler: the f2m key bit of a held (1) or absent (0) key."""
    values = np.where(np.asarray(bits) == 1, 0.0, np.nan)[:, None]
    return f2m_encode_population(values, PrivacyBudget(epsilon, 1.0), 0.0, g).key_bits


def _vpp(values, epsilon, g):
    """Value perturbation through the table sampler: the f2m sign of held keys (discretize, then randomized response)."""
    return f2m_encode_population(values[:, None], PrivacyBudget(50.0, epsilon), 0.0, g).signs


def test_flip_keep_probability_closed_forms():
    assert flip_keep_probability(math.log(3)) == pytest.approx(0.75, rel=1e-15)
    assert flip_keep_probability(1.0) == pytest.approx(math.e / (math.e + 1), rel=1e-15)
    # eps -> 0+ keeps no information
    assert flip_keep_probability(1e-12) == pytest.approx(0.5, abs=1e-9)
    assert flip_keep_probability(1000.0) == 1.0  # saturates without overflow


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_flip_keep_probability_domain(bad):
    with pytest.raises(DomainError):
        flip_keep_probability(bad)


def test_discretize_boundaries_are_deterministic():
    g = RandomSource(1).generator()
    assert (state_digits(np.ones(1000), g) == POS).all()
    assert (state_digits(np.full(1000, -1.0), g) == NEG).all()
    assert (state_digits(np.full((10, 100), np.nan), g) == ABSENT).all()


def test_discretize_rejects_out_of_range():
    # NaN is no error: it marks an absent key.
    g = RandomSource(1).generator()
    for bad in (1.0001, -2.0, math.inf, -math.inf):
        with pytest.raises(DomainError):
            state_digits(np.array([0.0, np.nan, bad]), g)
        with pytest.raises(DomainError):
            state_digits(np.array([[0.0, np.nan], [bad, 0.0]]), g)


def test_discretize_monte_carlo_against_closed_form():
    # Pr[+1] = (1 + v)/2; at v = 0.5 that is 0.75.
    draws = state_digits(np.full(10**6, 0.5), RandomSource(7).generator())
    assert (draws == POS).mean() == pytest.approx(0.75, abs=0.002)


def test_discretize_scalar_matches_array_law():
    g = RandomSource(11).generator()
    scalar = np.array([_ref_discretize(0.5, g) for _ in range(200000)])
    hits = int((scalar == 1).sum())
    # 4 sigma band around 0.75 at 2e5 draws
    assert abs(hits / 200000 - 0.75) < 4 * math.sqrt(0.75 * 0.25 / 200000)
    # One draw per value in stream order, so the same stream gives the same signs.
    assert (_signs(np.full(200000, 0.5), RandomSource(11).generator()) == scalar).all()


def test_discretize_unbiased_over_value_grid():
    g = RandomSource(3).generator()
    n = 10**5
    for v in (-0.9, -0.5, -0.1, 0.0, 0.3, 0.7, 1.0):
        mean = _signs(np.full(n, v), g).mean()
        stderr = math.sqrt(max(1.0 - v * v, 1e-12) / n)
        assert abs(mean - v) <= 4 * stderr + 1e-9


def test_randomized_response_bit_laws():
    g = RandomSource(5).generator()
    assert (_rr_bits(np.ones(1000, dtype=np.int8), 50.0, g) == 1).all()
    zeros = _rr_bits(np.zeros(10**6, dtype=np.int8), math.log(3), g)
    assert (zeros == 0).mean() == pytest.approx(0.75, abs=0.002)
    near_uniform = _rr_bits(np.ones(10**6, dtype=np.int8), 1e-9, g)
    assert (near_uniform == 1).mean() == pytest.approx(0.5, abs=0.002)


def test_direct_encode_probability_table_ratio_is_exp_eps():
    # LDP ratio asserted on the probability table, not on samples.
    for eps in (0.1, 0.5, 1.0, 2.0, 5.0):
        for K in (2, 3, 10):
            w = math.exp(-eps)
            p_keep = 1.0 / (1.0 + (K - 1) * w)
            p_other = w / (1.0 + (K - 1) * w)
            assert p_keep / p_other == pytest.approx(math.exp(eps), rel=1e-12)
            assert p_keep + (K - 1) * p_other == pytest.approx(1.0, rel=1e-12)


def test_direct_encode_monte_carlo():
    # The 3-category generalized randomized response through the table sampler:
    # (x=NEG, eps=ln 2) keeps 0.5 and moves to each other category w.p. 0.25.
    g = RandomSource(13).generator()
    out = sample(Mechanism.KVUE, np.full((10**6, 1), -1.0), kvue_channel(math.log(2)), g).codes
    counts = np.bincount(out, minlength=3) / 10**6
    assert counts[NEG] == pytest.approx(0.5, abs=0.002)
    assert counts[ABSENT] == pytest.approx(0.25, abs=0.002)
    assert counts[POS] == pytest.approx(0.25, abs=0.002)
    assert (sample(Mechanism.KVUE, np.ones((1000, 1)), kvue_channel(50.0), g).codes == POS).all()


def test_direct_encode_binary_matches_rr_law():
    # Generalized randomized response over two categories is the binary table.
    for eps in (0.1, math.log(3), 5.0):
        w = math.exp(-eps)
        np.testing.assert_allclose(rr_channel(eps), [[1 / (1 + w), w / (1 + w)], [w / (1 + w), 1 / (1 + w)]],
                                   rtol=1e-15)
    out = _rr_bits(np.ones(10**6, dtype=np.int8), math.log(3), RandomSource(17).generator())
    assert (out == 1).mean() == pytest.approx(0.75, abs=0.002)


def test_direct_encode_domain_errors():
    for bad in (-1.0, 0.0, math.nan, math.inf):
        for channel in (kvue_channel, rr_channel):
            with pytest.raises(DomainError):
                channel(bad)
    g = RandomSource(1).generator()
    for shape in ((3, 4), (2, 3)):  # a kvue table is (3, 3)
        with pytest.raises(DomainError):
            sample(Mechanism.KVUE, np.zeros((5, 2)), np.full(shape, 1.0 / shape[1]), g)
    with pytest.raises(DomainError):
        sample(Mechanism.KVUE, np.zeros((5, 2)), [[1.5, -0.5, 0.0]] * 3, g)


def test_vpp_closed_form():
    g = RandomSource(19).generator()
    assert (_vpp(np.ones(1000), 50.0, g) == 1).all()
    # v=0 is symmetric for any budget
    out = _vpp(np.zeros(10**6), 0.7, g)
    assert (out == 1).mean() == pytest.approx(0.5, abs=0.002)
    # v=0.5, eps=ln3: 0.75*0.75 + 0.25*0.25 = 0.625
    out = _vpp(np.full(10**6, 0.5), math.log(3), g)
    assert (out == 1).mean() == pytest.approx(0.625, abs=0.002)


def test_determinism_same_key_same_stream():
    a = RandomSource(123, 45).generator().random(1000)
    b = RandomSource(123, 45).generator().random(1000)
    assert (a == b).all()
    c = RandomSource(123, 46).generator().random(1000)
    assert not (a == c).all()


def test_substreams_are_distinct_and_reproducible():
    root = RandomSource(99)
    assert root.substream(2, 3) == root.substream(2, 3)
    assert root.substream(2, 3) != root.substream(3, 2)
    assert root.substream(0) != root


def test_random_source_validation():
    with pytest.raises(DomainError):
        RandomSource(-1)
    with pytest.raises(DomainError):
        RandomSource(0, 2**64)


def test_privacy_budget_composition():
    budget = PrivacyBudget.split(1.0)
    assert budget.epsilon_key + budget.epsilon_value == pytest.approx(budget.epsilon_total)
    assert budget.epsilon_key == pytest.approx(0.5)
    lopsided = PrivacyBudget.split(2.0, key_share=0.25)
    assert lopsided.epsilon_key == pytest.approx(0.5)
    assert lopsided.epsilon_value == pytest.approx(1.5)
    for bad in (0.0, -1.0, math.inf):
        with pytest.raises(DomainError):
            PrivacyBudget.split(bad)
    with pytest.raises(DomainError):
        PrivacyBudget(1.0, 0.0)


@given(st.floats(min_value=0.01, max_value=20.0), st.integers(min_value=0, max_value=1))
@settings(max_examples=50, deadline=None)
def test_rr_keep_probability_property(eps, bit):
    # Keep probability always in (0.5, 1) and monotone in eps.
    p = flip_keep_probability(eps)
    assert 0.5 < p < 1.0 or p == pytest.approx(1.0)
    assert flip_keep_probability(eps + 1.0) > p - 1e-15
    assert _rr_bits(np.array([bit]), eps, RandomSource(0).generator())[0] in (0, 1)


def test_discretized_state_digit_identity():
    # digit = key_bit * value_sign + 1 for the three (key bit, value sign) states
    for key_bit, value_sign, state in ((0, 0, DiscretizedState.ABSENT), (1, 1, DiscretizedState.POS),
                                       (1, -1, DiscretizedState.NEG)):
        assert int(state) == key_bit * value_sign + 1
    assert list(DiscretizedState) == [DiscretizedState.NEG, DiscretizedState.ABSENT, DiscretizedState.POS]
