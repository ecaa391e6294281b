"""The protocol registry: every mechanism name's sampler against its state channel.

The chi-square tests count each sampler's (true state, payload code)
pairs and compare them with the registry's channel Pr[payload code | true
state digit]; the algebraic tests read each linear decoder D off the
decoder itself, by decoding an identity code table, and check C @ D = I
and that D is channel_inverse of the very table the sampler draws from.
"""

import math

import numpy as np
import pytest

from kvldp.core import RandomSource
from kvldp.harness import DEFAULT_EPSILON_GRID, MECHANISMS
from kvldp.mechanisms import (
    PAYLOADS,
    PROTOCOLS,
    channel_inverse,
    code_table,
    kvoh_bit_channel,
    tally_f2m,
    tally_kvoh,
    tally_ternary,
    worst_case_ratio,
)

VBARS = (-1.0, 0.0, 0.5, 1.0)
LINEAR = ("privkv-improved", "kvue", "kvoh")


def _chi_square_critical(dof: int, z: float = 4.0) -> float:
    """Wilson-Hilferty upper quantile of chi-square(dof) at the standard normal quantile z."""
    return dof * (1.0 - 2.0 / (9.0 * dof) + z * math.sqrt(2.0 / (9.0 * dof))) ** 3


def _population(n: int, d: int, seed: int) -> np.ndarray:
    """Values uniform on [-1, 1], with a third of the pairs absent and some at the +-1 ends."""
    g = RandomSource(seed).generator()
    values = g.uniform(-1.0, 1.0, size=(n, d))
    values[:, 0] = np.where(g.random(n) < 0.5, -1.0, 1.0)
    values[g.random((n, d)) < 1.0 / 3.0] = np.nan
    return values


def _chi_square(name: str, epsilon: float, vbar: float, channel: np.ndarray, seed: int):
    """(statistic, dof) of the sampler's (true state, payload code) counts against channel."""
    encoded = PROTOCOLS[name].encode(_population(60000, 3, seed), epsilon, vbar, RandomSource(seed, 1).generator())
    size = channel.shape[1]
    observed = np.bincount(encoded.true_states.astype(np.int64) * size + encoded.codes,
                           minlength=3 * size).reshape(3, size)
    expected = observed.sum(axis=1, keepdims=True) * channel
    assert expected.min() > 5, "every cell needs an expected count above 5"
    return float(((observed - expected) ** 2 / expected).sum()), 3 * (size - 1)


CASES = [(name, vbar) for name in MECHANISMS for vbar in (VBARS if name == "f2m" else (1.0,))]


@pytest.mark.parametrize("name, vbar", CASES)
@pytest.mark.parametrize("epsilon", [0.5, 2.0])
def test_sampler_follows_its_registry_channel(name, vbar, epsilon):
    seed = 1000 * MECHANISMS.index(name) + int(10 * epsilon) + int(10 * vbar) + 50
    statistic, dof = _chi_square(name, epsilon, vbar, PROTOCOLS[name].channel(epsilon, vbar), seed)
    assert statistic < _chi_square_critical(dof), (name, vbar, epsilon, statistic)


@pytest.mark.parametrize("name", MECHANISMS)
def test_chi_square_rejects_a_channel_at_the_wrong_budget(name):
    # The test above has teeth: the same counts against the channel of a
    # budget 30% larger fail it.
    statistic, dof = _chi_square(name, 1.0, 0.0, PROTOCOLS[name].channel(1.3, 0.0), 7)
    assert statistic > _chi_square_critical(dof)


@pytest.mark.parametrize("name", LINEAR)
def test_linear_decoder_inverts_its_channel(name):
    entry = PROTOCOLS[name]
    size = len(PAYLOADS[entry.mechanism].values)
    for epsilon in DEFAULT_EPSILON_GRID:
        # Row c of D is the decoded state counts of one report with payload code c.
        decoder = entry.estimate(np.eye(size), epsilon)
        product = entry.channel(epsilon, 1.0) @ decoder
        assert np.abs(product - np.eye(3)).max() < 1e-12, (name, epsilon)


@pytest.mark.parametrize("name", LINEAR)
def test_linear_decoder_is_the_inverse_of_the_sampled_channel(name):
    # Bit for bit, not to a tolerance: a separate formula passes the check above too.
    entry = PROTOCOLS[name]
    payloads = PAYLOADS[entry.mechanism].array
    for epsilon in DEFAULT_EPSILON_GRID:
        channel = entry.channel(epsilon, 1.0)
        if name == "kvoh":
            # The sampled table flips each bit of the one-hot pattern by kvoh_bit_channel.
            bit = kvoh_bit_channel(epsilon)
            assert np.array_equal(channel, bit[np.eye(3, dtype=int)[:, None], payloads].prod(axis=2))
            per_bit = channel_inverse(bit)
            expected = (per_bit[1, 1] - per_bit[0, 1]) * payloads + per_bit[0, 1]
        else:
            expected = channel_inverse(channel)
        decoder = entry.estimate(np.eye(len(payloads)), epsilon)
        assert decoder.tobytes() == expected.tobytes(), (name, epsilon)


def test_only_the_linear_decoders_have_an_estimate():
    assert tuple(name for name in MECHANISMS if PROTOCOLS[name].estimate is not None) == LINEAR


@pytest.mark.parametrize("name", MECHANISMS)
def test_channels_are_stochastic_and_epsilon_ldp(name):
    entry = PROTOCOLS[name]
    for epsilon in DEFAULT_EPSILON_GRID:
        for vbar in VBARS:
            channel = entry.channel(epsilon, vbar)
            assert channel.shape == (3, len(PAYLOADS[entry.mechanism].values))
            np.testing.assert_allclose(channel.sum(axis=1), 1.0, rtol=0, atol=1e-14)
            assert worst_case_ratio(channel) <= math.exp(epsilon) * (1 + 1e-12), (name, epsilon, vbar)


def test_mechanisms_are_the_registry_keys():
    assert MECHANISMS == tuple(PROTOCOLS) == ("privkv", "privkv-improved", "f2m", "kvue", "kvoh")


@pytest.mark.parametrize("name", MECHANISMS)
def test_registry_tally_matches_the_array_tallies(name):
    entry = PROTOCOLS[name]
    encoded = entry.encode(_population(2000, 5, 3), 1.0, 0.5, RandomSource(4).generator())
    tallied = entry.tally(code_table(entry.mechanism, encoded.key_index, encoded.codes, 5))
    if entry.mechanism.value == "f2m":
        expected = tally_f2m(encoded.key_index, encoded.key_bits, encoded.signs, 5)
    elif entry.mechanism.value == "kvoh":
        expected = tally_kvoh(encoded.key_index, encoded.bits, 5)
    else:
        expected = (tally_ternary(encoded.key_index, encoded.states, 5),)
        tallied = (tallied,)
    assert len(tallied) == len(expected) and all(np.array_equal(a, b) for a, b in zip(tallied, expected))
