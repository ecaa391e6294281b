"""Client-side encoders and aggregator-side estimators for key-value data.

Four single-key mechanisms are implemented.  Each user samples one key
index uniformly, perturbs the (key presence, value) pair under local
differential privacy, and ships a small report; the aggregator groups
reports by sampled index and inverts the known perturbation channel to
recover per-key frequency and mean estimates.

  privkv  - key bit via randomized response, value via the sign-flip
            primitive; reports one of the three states <0,0>, <1,-1>,
            <1,1>.  Two decoders exist: the original frequency/count
            calibration and an improved estimator that removes the bias
            the key flips induce on the value counts.
  f2m     - key bit and value sign perturbed independently; absent keys
            carry a configurable default value, later subtracted out.
  kvue    - the whole ternary state pushed through a 3-category
            generalized randomized response.
  kvoh    - the ternary state one-hot encoded into 3 bits, each bit
            flipped independently with budget eps/2.

Each mechanism is one channel table Pr[payload code | true state digit].
PROTOCOLS maps each name, privkv-improved included, to its wire form,
code-table tally, channel and decoder.  One sampler draws every mechanism's
reports from that very table, the one worst_case_ratio audits, into one
ReportBatch; the *_encode_population names call it with their channel.
Decoders work on per-key tallies, one row per key.
"""

from __future__ import annotations

import enum
import functools
import math
import re
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .core import (
    CapacityError,
    DiscretizedState,
    DomainError,
    IllConditionedError,
    PrivacyBudget,
    check_epsilon,
    ensure_generator,
    flip_keep_probability,
    state_digits,
)

_MIN_CONDITIONING = 1e-12

NEG, ABSENT, POS = (int(DiscretizedState.NEG), int(DiscretizedState.ABSENT), int(DiscretizedState.POS))


class Mechanism(str, enum.Enum):
    PRIVKV = "privkv"
    F2M = "f2m"
    KVUE = "kvue"
    KVOH = "kvoh"


# ---------------------------------------------------------------------------
# Wire payloads
# ---------------------------------------------------------------------------


class PayloadTable:
    """One mechanism's wire payloads; a payload's position is its packed code.

    Report validation, the wire lines, bit packing, trace rendering and the
    report batch views all read this one table: text <-> Report payload
    value <-> packed code.  array holds the values as int8 rows.
    """

    def __init__(self, texts, values):
        self.texts = tuple(texts)
        self.values = tuple(values)
        self.array = np.array(self.values, dtype=np.int8)
        self.bits = (len(self.texts) - 1).bit_length()
        self.code_of_text = {text: code for code, text in enumerate(self.texts)}
        self.code_of_value = {value: code for code, value in enumerate(self.values)}


_TERNARY_PAYLOADS = PayloadTable("012", (NEG, ABSENT, POS))
_KVOH_TEXTS = [f"{code:03b}" for code in range(8)]
PAYLOADS = {
    Mechanism.PRIVKV: _TERNARY_PAYLOADS,
    Mechanism.KVUE: _TERNARY_PAYLOADS,
    # (key bit, value sign); the text is the key bit then 1 for +1, 0 for -1.
    Mechanism.F2M: PayloadTable(("00", "01", "10", "11"), ((0, -1), (0, 1), (1, -1), (1, 1))),
    Mechanism.KVOH: PayloadTable(_KVOH_TEXTS, [tuple(map(int, text)) for text in _KVOH_TEXTS]),
}
_MECHANISM_OF_NAME = {m.value: m for m in Mechanism}


# A trace holds at most d x |payloads| distinct lines, so nearly every line
# is a cache hit.  The bound caps memory for hostile input such as many
# distinct key indices; lru_cache stores no exception, so a malformed
# line raises on every call.
_REPORT_LINE_CACHE_SIZE = 1 << 14
# The one spelling of a key index: ASCII digits, no sign, no leading zero.
_KEY_INDEX = re.compile("0|[1-9][0-9]*")


@functools.lru_cache(maxsize=_REPORT_LINE_CACHE_SIZE)
def _parse_report_line(line: str) -> Report:
    """The report a wire line holds; equal lines share one immutable Report."""
    try:
        name, index, text = line.strip().split(",")
        mechanism = _MECHANISM_OF_NAME[name]
        if not _KEY_INDEX.fullmatch(index):
            raise ValueError(f"non-canonical key index {index!r}")
        key_index = int(index)
    except (KeyError, ValueError) as exc:
        raise DomainError(f"malformed report line {line!r}") from exc
    table = PAYLOADS[mechanism]
    code = table.code_of_text.get(text)
    if code is None:
        raise DomainError(f"malformed {name} payload in {line!r}")
    return Report(mechanism, key_index, table.values[code])


@dataclass(frozen=True, slots=True)
class Report:
    """One perturbed client message: sampled key index plus payload.

    Payload shape depends on the mechanism: a ternary state digit for
    privkv/kvue, a (key bit, value sign) pair for f2m, and a 3-bit tuple
    for kvoh; PAYLOADS lists the legal values.
    """

    mechanism: Mechanism
    key_index: int
    payload: object

    def __post_init__(self):
        if isinstance(self.key_index, bool) or not isinstance(self.key_index, (int, np.integer)) or self.key_index < 0:
            raise DomainError(f"key index must be a non-negative integer, got {self.key_index!r}")
        table = PAYLOADS.get(self.mechanism) if isinstance(self.mechanism, Mechanism) else None
        if table is None:
            raise DomainError(f"unknown mechanism {self.mechanism!r}")
        try:
            legal = self.payload in table.code_of_value
        except TypeError:  # unhashable, such as a list
            legal = False
        if not legal:
            raise DomainError(f"{self.mechanism.value} payload must be one of {table.values}, got {self.payload!r}")

    def to_line(self) -> str:
        table = PAYLOADS[self.mechanism]
        return f"{self.mechanism.value},{self.key_index},{table.texts[table.code_of_value[self.payload]]}"

    # The memo itself, not a method calling it: a hit then costs one call.
    from_line = staticmethod(_parse_report_line)


# ---------------------------------------------------------------------------
# The table sampler
# ---------------------------------------------------------------------------
#
# Every mechanism samples from its channel table Pr[payload code | true
# state digit], the table worst_case_ratio audits.  A population is a (n, d)
# float matrix with NaN marking absent keys (the dense form datasets use);
# one user is a 1-row matrix.  Each report takes one key index, then one
# uniform for its state digit and one for its payload code, so a fixed
# (seed, stream) reproduces the cell bit-for-bit however cells are scheduled.


class ReportBatch(NamedTuple):
    """A population's reports: sampled key, payload code and true state digit per user.

    A code is a position in PAYLOADS[mechanism]; states (privkv, kvue),
    key_bits and signs (f2m) and bits (kvoh) are the payload values read
    off that table.
    """

    mechanism: Mechanism
    key_index: np.ndarray
    codes: np.ndarray
    true_states: np.ndarray

    @property
    def payloads(self) -> np.ndarray:
        return PAYLOADS[self.mechanism].array.take(self.codes, axis=0)

    states = bits = payloads
    key_bits = property(lambda self: self.payloads[:, 0])
    signs = property(lambda self: self.payloads[:, 1])


def sample(mechanism: Mechanism, values: np.ndarray, channel: np.ndarray, rng) -> ReportBatch:
    """Each user's report: a uniform key index, its state digit, then a code drawn by inverse CDF over channel[state]."""
    channel = np.asarray(channel, dtype=np.float64)
    if channel.shape != (3, len(PAYLOADS[mechanism].values)) or not channel.min() >= 0.0:
        raise DomainError(f"a {mechanism.value} channel is a non-negative (3, {len(PAYLOADS[mechanism].values)}) table")
    # Code c is drawn for u in [cdf[c - 1], cdf[c]); a zero-mass tail's threshold is exactly 1.
    cdf = np.cumsum(channel[:, :-1], axis=1)
    cdf[np.cumsum(channel[:, :0:-1], axis=1)[:, ::-1] == 0.0] = 1.0
    g = ensure_generator(rng)
    n, d = values.shape
    key_index = g.integers(0, d, size=n)
    states = state_digits(values.reshape(-1).take(np.arange(0, n * d, d) + key_index), g)
    u, rows = g.random(n), states.astype(np.intp)  # an intp index spares take() a cast per column
    codes = np.zeros(n, dtype=np.uint8)
    for column in cdf.T:
        codes += u >= column.take(rows)
    return ReportBatch(mechanism, key_index, codes, states)


def lpp_encode_population(values: np.ndarray, budget: PrivacyBudget, rng) -> ReportBatch:
    return sample(Mechanism.PRIVKV, values, lpp_channel(budget), rng)


def f2m_encode_population(values: np.ndarray, budget: PrivacyBudget, default_value: float, rng) -> ReportBatch:
    return sample(Mechanism.F2M, values, f2m_state_channel(budget, default_value), rng)


def kvue_encode_population(values: np.ndarray, epsilon: float, rng) -> ReportBatch:
    return sample(Mechanism.KVUE, values, kvue_channel(epsilon), rng)


def kvoh_encode_population(values: np.ndarray, epsilon: float, rng) -> ReportBatch:
    return sample(Mechanism.KVOH, values, kvoh_channel(epsilon), rng)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def _checked_codes(codes, size: int, what: str) -> np.ndarray:
    """codes as int64 after one min/max pass checking they lie in [0, size)."""
    codes = np.asarray(codes, dtype=np.int64)
    if codes.size:
        low, high = codes.min(), codes.max()
        if low < 0 or high >= size:
            raise DomainError(f"{what} must lie in [0, {size}), found {low}..{high}")
    return codes


def _f2m_codes(key_bits, signs) -> np.ndarray:
    """f2m payload codes 2 * key_bit + (sign > 0); a nonzero key bit counts as set."""
    codes = np.asarray(key_bits, dtype=bool).view(np.int8) * 2
    codes += np.asarray(signs) > 0
    return codes


def _kvoh_codes(bits) -> np.ndarray:
    """kvoh payload codes, the three bits read most significant first; a positive bit counts as set."""
    set_bits = (np.asarray(bits) > 0).view(np.int8)
    return set_bits[:, 0] * 4 + set_bits[:, 1] * 2 + set_bits[:, 2]


def _f2m_tally(table: np.ndarray):
    # Codes 2 and 3 carry a set key bit, codes 1 and 3 a +1 sign.
    totals = table.sum(axis=1)
    pos = table[:, 1] + table[:, 3]
    return table[:, 2] + table[:, 3], totals, pos, totals - pos


def _kvoh_tally(table: np.ndarray):
    # Row c of the payload array holds the three bits of code c, most significant first.
    return table @ PAYLOADS[Mechanism.KVOH].array, table.sum(axis=1)


def code_table(mechanism: Mechanism, key_index, codes, d: int) -> np.ndarray:
    """(d, |payloads|) report counts per (key, payload code) from one bincount, both ranges checked."""
    size = len(PAYLOADS[mechanism].values)
    flat = _checked_codes(key_index, d, "key indices") * size + _checked_codes(codes, size, "payload codes")
    return np.bincount(flat, minlength=d * size).reshape(d, size)


def tally_ternary(key_index: np.ndarray, states: np.ndarray, d: int) -> np.ndarray:
    """Per-key counts of the three states, shape (d, 3) indexed by state digit."""
    return code_table(Mechanism.KVUE, key_index, states, d)


def tally_f2m(key_index, key_bits, signs, d: int):
    """Per-key aggregates for f2m: (set key bits, report totals, +1 signs, -1 signs)."""
    return _f2m_tally(code_table(Mechanism.F2M, key_index, _f2m_codes(key_bits, signs), d))


def tally_kvoh(key_index, bits, d: int):
    """Per-key bit-position sums, shape (d, 3), plus per-key report totals."""
    return _kvoh_tally(code_table(Mechanism.KVOH, key_index, _kvoh_codes(bits), d))


def _report_columns(reports: Sequence[Report], d: int):
    """(mechanism, key indices, payload codes) of a non-empty one-mechanism report list over [0, d)."""
    mechanism = reports[0].mechanism
    if any(r.mechanism is not mechanism for r in reports):
        raise DomainError("mixed mechanisms in one report batch")
    code_of_value = PAYLOADS[mechanism].code_of_value
    try:
        key_index = np.array([r.key_index for r in reports], dtype=np.int64)
    except OverflowError as exc:
        raise DomainError("key index beyond the 64-bit range") from exc
    outside = key_index >= d
    if outside.any():
        raise DomainError(f"key index {key_index[outside.argmax()]} outside domain of size {d}")
    codes = np.array([code_of_value[r.payload] for r in reports], dtype=np.int64)
    return mechanism, key_index, codes


def _bit_matrix(words: np.ndarray, width: int) -> np.ndarray:
    """(n, width) uint8 matrix of each word's low width bits, most significant first."""
    bits = np.empty((len(words), width), dtype=np.uint8)
    for column in range(width):
        bits[:, column] = (words >> (width - 1 - column)) & 1
    return bits


def tally_reports(reports: Sequence[Report], d: int):
    """Aggregate scalar reports (all of one mechanism) into decoder inputs."""
    if not reports:
        raise DomainError("no reports to tally")
    mechanism, key_index, codes = _report_columns(reports, d)
    return PROTOCOLS[mechanism.value].tally(code_table(mechanism, key_index, codes, d))


# ---------------------------------------------------------------------------
# Decoders
# ---------------------------------------------------------------------------


def _require_conditioned(value: float, what: str):
    if value < _MIN_CONDITIONING:
        raise IllConditionedError(f"{what} = {value:.3e} is below {_MIN_CONDITIONING:g}; epsilon too small")


def privkv_decode_original_array(counts: np.ndarray, budget: PrivacyBudget):
    """Original privkv calibration, vectorized over keys.

    counts has shape (d, 3) indexed by state digit.  Returns (frequency,
    mean, mean_defined) arrays; keys with no reports get NaN frequency.
    """
    counts = np.asarray(counts, dtype=np.float64)
    p1 = flip_keep_probability(budget.epsilon_key)
    p2 = flip_keep_probability(budget.epsilon_value)
    _require_conditioned(2.0 * p1 - 1.0, "2*p1 - 1")
    _require_conditioned(2.0 * p2 - 1.0, "2*p2 - 1")
    m_total = counts.sum(axis=1)
    n_pos = counts[:, POS]
    n_neg = counts[:, NEG]
    n_signed = n_pos + n_neg
    with np.errstate(invalid="ignore", divide="ignore"):
        f_hat = np.where(m_total > 0, n_signed / m_total, np.nan)
        frequency = np.clip((p1 - 1.0 + f_hat) / (2.0 * p1 - 1.0), 0.0, 1.0)
        shift = (p2 - 1.0) / (2.0 * p2 - 1.0) * n_signed
        n1 = np.clip(shift + n_pos / (2.0 * p2 - 1.0), 0.0, n_signed)
        n2 = np.clip(shift + n_neg / (2.0 * p2 - 1.0), 0.0, n_signed)
        defined = n_signed >= 1
        mean = np.where(defined, (n1 - n2) / np.where(n_signed > 0, n_signed, 1.0), np.nan)
    return frequency, mean, defined


def privkv_decode_improved_array(counts: np.ndarray, budget: PrivacyBudget) -> np.ndarray:
    """Unbiased state-count estimates under the privkv channel, shape (d, 3).

    Solves the two linear relations the channel imposes on the observed
    counts: the signed total (M1 + M-1 - M(1-p1)) / (2p1 - 1) recovers
    N1 + N-1, and (M1 - M-1) / (p1 (2p2 - 1)) recovers N1 - N-1.  The
    absent estimate keeps the three parts summing to the report total.
    """
    counts = np.asarray(counts, dtype=np.float64)
    p1 = flip_keep_probability(budget.epsilon_key)
    p2 = flip_keep_probability(budget.epsilon_value)
    _require_conditioned(2.0 * p1 - 1.0, "2*p1 - 1")
    _require_conditioned(2.0 * p2 - 1.0, "2*p2 - 1")
    m_total = counts.sum(axis=1)
    m_pos = counts[:, POS]
    m_neg = counts[:, NEG]
    signed_sum = (m_pos + m_neg - m_total * (1.0 - p1)) / (2.0 * p1 - 1.0)
    signed_diff = (m_pos - m_neg) / (p1 * (2.0 * p2 - 1.0))
    estimates = np.empty_like(counts)
    estimates[:, POS] = (signed_sum + signed_diff) / 2.0
    estimates[:, NEG] = (signed_sum - signed_diff) / 2.0
    estimates[:, ABSENT] = m_total - signed_sum
    return estimates


def kvue_decode_array(counts: np.ndarray, epsilon: float) -> np.ndarray:
    """Invert the 3-state generalized randomized response: N_i* = (2 M_i - (1-p) M) / (3p - 1)."""
    counts = np.asarray(counts, dtype=np.float64)
    p = 1.0 / (1.0 + 2.0 * math.exp(-float(epsilon)))
    _require_conditioned(3.0 * p - 1.0, "3*p - 1")
    m_total = counts.sum(axis=1, keepdims=True)
    return (2.0 * counts - (1.0 - p) * m_total) / (3.0 * p - 1.0)


def kvoh_decode_array(bit_sums: np.ndarray, n_reports: np.ndarray, epsilon: float) -> np.ndarray:
    """Per-position calibration N_i* = ((e^{eps/2}+1) M_i - N) / (e^{eps/2}-1).

    Positions are calibrated independently and deliberately not
    renormalized; the three estimates need not sum to N.
    """
    bit_sums = np.asarray(bit_sums, dtype=np.float64)
    n_reports = np.asarray(n_reports, dtype=np.float64)
    if bit_sums.min(initial=0.0) < 0 or np.any(bit_sums > n_reports[..., None]):
        raise DomainError("bit sums must lie in [0, n_reports]")
    denom = math.expm1(float(epsilon) / 2.0)
    _require_conditioned(denom, "e^{eps/2} - 1")
    estimates = (denom + 2.0) * bit_sums
    estimates -= n_reports[..., None]  # in place: a broadcast operand blocks numpy's temporary elision
    return np.divide(estimates, denom, out=estimates)


def stats_from_estimates(estimates: np.ndarray, n_reports: np.ndarray):
    """Clip state estimates and form (frequency, mean, mean_defined) arrays.

    Clips the signed-state estimates to [0, N] first, then builds the
    frequency and mean; a clipped support below one report leaves the mean
    undefined instead of dividing by a near-zero frequency.
    """
    estimates = np.asarray(estimates, dtype=np.float64)
    n_reports = np.asarray(n_reports, dtype=np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        n_pos = np.clip(estimates[..., POS], 0.0, n_reports)
        n_neg = np.clip(estimates[..., NEG], 0.0, n_reports)
        support = n_pos + n_neg
        frequency = np.where(n_reports > 0, np.clip(support / np.where(n_reports > 0, n_reports, 1.0), 0.0, 1.0), np.nan)
        defined = support >= 1.0
        mean = np.where(defined, np.clip((n_pos - n_neg) / np.where(support > 0, support, 1.0), -1.0, 1.0), np.nan)
    return frequency, mean, defined


def f2m_decode_array(ones, totals, pos, neg, budget: PrivacyBudget, default_value: float):
    """f2m calibration, vectorized over keys.

    The key channel is the same randomized response as privkv, so the
    frequency uses the identical calibration with the key budget.  The
    all-report mean uses the value budget, then the default-value mass of
    the absent keys is subtracted and rescaled by the frequency.
    """
    ones = np.asarray(ones, dtype=np.float64)
    totals = np.asarray(totals, dtype=np.float64)
    pos = np.asarray(pos, dtype=np.float64)
    neg = np.asarray(neg, dtype=np.float64)
    p1 = flip_keep_probability(budget.epsilon_key)
    _require_conditioned(2.0 * p1 - 1.0, "2*p1 - 1")
    factor = 1.0 / math.tanh(budget.epsilon_value / 2.0)  # (e^eps2 + 1) / (e^eps2 - 1)
    with np.errstate(invalid="ignore", divide="ignore"):
        f_hat = np.where(totals > 0, ones / totals, np.nan)
        frequency = np.clip((p1 - 1.0 + f_hat) / (2.0 * p1 - 1.0), 0.0, 1.0)
        signed = pos + neg
        mean_all = factor * np.where(signed > 0, (pos - neg) / np.where(signed > 0, signed, 1.0), np.nan)
        defined = (totals > 0) & (frequency >= 1.0 / np.where(totals > 0, totals, 1.0))
        mean = np.where(
            defined,
            np.clip((mean_all - (1.0 - frequency) * default_value) / np.where(defined, frequency, 1.0), -1.0, 1.0),
            np.nan,
        )
    return frequency, mean, defined


# ---------------------------------------------------------------------------
# Closed-form error bounds and communication cost
# ---------------------------------------------------------------------------

BOUND_VACUOUS = math.inf


# kvue's calibration factor is (e^eps + 2) / (e^eps - 1) and kvoh's
# (e^{eps/2} + 1) / (e^{eps/2} - 1): both (1 + a w) / (1 - w) with
# w = e^{-eps * scale}, keyed to (a, scale).
_UNARY_FACTORS = {Mechanism.KVUE: (2.0, 1.0), Mechanism.KVOH: (1.0, 0.5)}


def _check_bound_inputs(mechanism, epsilon: float, n: int, delta: float, f_k: float = 1.0):
    """(Mechanism, log(2/delta)); DomainError on a bad input, IllConditionedError where the factors blow up."""
    mechanism = Mechanism(mechanism)
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise DomainError(f"epsilon must be positive and finite, got {epsilon!r}")
    _require_conditioned(math.tanh(epsilon / 2.0), "tanh(eps/2)")  # the decoders' floor, about eps = 2e-12
    if not n >= 1:
        raise DomainError(f"n must be at least 1, got {n!r}")
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta must lie in (0, 1), got {delta!r}")
    if not 0.0 < f_k <= 1.0:
        raise DomainError(f"f_k must lie in (0, 1], got {f_k!r}")
    return mechanism, math.log(2.0 / delta)


def theoretical_bound(mechanism: Mechanism, epsilon: float, n: int, delta: float, f_k: float):
    """Hoeffding-style (frequency, mean) error bounds for one key.

    n is the number of reports carrying the key's index.  Each bound holds
    with probability at least (1 - delta)^2.  A mean bound whose
    denominator is non-positive (n too small for the guarantee to bite)
    is reported as the vacuous marker math.inf.  For f2m, epsilon is the
    budget of the individual channel (key or value), matching the
    single-epsilon form of its derivation.
    """
    mechanism, log_term = _check_bound_inputs(mechanism, epsilon, n, delta, f_k)
    root_2l = math.sqrt(2.0 * log_term)
    if mechanism in _UNARY_FACTORS:
        a, scale = _UNARY_FACTORS[mechanism]
        w = math.exp(-epsilon * scale)
        freq_bound = (1.0 + a * w) / (1.0 - w) * math.sqrt(2.0 / n * log_term)
        denom = (1.0 - w) * f_k * math.sqrt(n) - (1.0 + a * w) * root_2l
        mean_bound = (1.0 + a * w) * root_2l / denom if denom > 0 else BOUND_VACUOUS
        return freq_bound, mean_bound
    if mechanism is Mechanism.F2M:
        factor = 1.0 / math.tanh(epsilon / 2.0)  # (e^eps + 1) / (e^eps - 1)
        freq_bound = factor * math.sqrt(log_term / (2.0 * n))
        # 2 (f+1) (e^eps+1) sqrt(L) / (sqrt(2n) f^2 (e^eps-1) - f (e^eps-1) sqrt(L))
        denom = f_k * (math.sqrt(2.0 * n) * f_k - math.sqrt(log_term))
        mean_bound = 2.0 * (f_k + 1.0) * factor * math.sqrt(log_term) / denom if denom > 0 else BOUND_VACUOUS
        return freq_bound, mean_bound
    raise DomainError(f"no closed-form bound for mechanism {mechanism.value!r}")


def count_deviation_bound(mechanism: Mechanism, epsilon: float, n: int, delta: float) -> float:
    """Bound on |N_i* - N_i| holding with probability at least 1 - delta."""
    mechanism, log_term = _check_bound_inputs(mechanism, epsilon, n, delta)
    if mechanism not in _UNARY_FACTORS:
        raise DomainError(f"no count deviation bound for mechanism {mechanism.value!r}")
    a, scale = _UNARY_FACTORS[mechanism]
    w = math.exp(-epsilon * scale)
    return (1.0 + a * w) / (1.0 - w) * math.sqrt(n / 2.0 * log_term)


def report_size_bits(mechanism: Mechanism, d: int) -> float:
    """Nominal communication cost in bits for one report (index included)."""
    mechanism = Mechanism(mechanism)
    if d < 1:
        raise DomainError(f"key domain size must be at least 1, got {d!r}")
    if mechanism in (Mechanism.PRIVKV, Mechanism.KVUE):
        return math.log2(3 * d)
    if mechanism is Mechanism.F2M:
        return 2.0 * math.log2(d) if d > 1 else 0.0
    return 3.0 * math.log2(d) if d > 1 else 0.0


def _index_bits(d: int) -> int:
    return (d - 1).bit_length() if d > 1 else 0


def packed_size_bits(mechanism: Mechanism, d: int) -> int:
    """Bits one report occupies in the packed wire form."""
    return _index_bits(d) + PAYLOADS[Mechanism(mechanism)].bits


def _packed_stride(mechanism: Mechanism, d: int) -> int:
    stride = packed_size_bits(mechanism, d)
    if stride > 63:
        raise CapacityError(f"a packed report of {stride} bits exceeds the 63-bit word")
    return stride


def pack_reports(reports: Sequence[Report], d: int) -> bytes:
    """Bit-pack reports (all one mechanism) at packed_size_bits each.

    Each report is the word key_index << payload bits | payload code,
    written most significant bit first; the stream is zero-padded to a
    whole byte.
    """
    if not reports:
        return b""
    mechanism, key_index, codes = _report_columns(reports, d)
    stride = _packed_stride(mechanism, d)
    words = (key_index << PAYLOADS[mechanism].bits) | codes
    return np.packbits(_bit_matrix(words, stride)).tobytes()


def unpack_reports(data: bytes, mechanism: Mechanism, count: int, d: int):
    """Inverse of pack_reports."""
    mechanism = Mechanism(mechanism)
    table = PAYLOADS[mechanism]
    stride = _packed_stride(mechanism, d)
    if count < 0:
        raise DomainError(f"report count must be non-negative, got {count!r}")
    if len(data) * 8 < count * stride:
        raise DomainError("packed data too short for the requested report count")
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=count * stride).reshape(count, stride)
    words = np.zeros(count, dtype=np.int64)
    for column in range(stride):
        words = (words << 1) | bits[:, column]
    mask = (1 << table.bits) - 1
    codes = words & mask
    key_index = words >> table.bits
    if codes.max(initial=0) >= len(table.values):
        raise DomainError(f"packed {mechanism.value} payload code {codes.max()} is not a legal payload")
    if key_index.max(initial=0) >= d:
        raise DomainError(f"packed key index {key_index.max()} outside domain of size {d}")
    # Reports are immutable values: build each distinct one once and share it.
    distinct, inverse = np.unique(words, return_inverse=True)
    built = [Report(mechanism, word >> table.bits, table.values[word & mask]) for word in distinct.tolist()]
    return list(map(built.__getitem__, inverse.tolist()))


# ---------------------------------------------------------------------------
# Channel tables (closed-form privacy audit surface)
# ---------------------------------------------------------------------------
#
# Every table is composed from the binary randomized-response table, whose
# keep/flip pair is computed independently (never as 1 - p), so worst-case
# likelihood ratios come out at e^eps up to a few ulps and can be asserted
# at 1e-12 relative tolerance.


def rr_channel(epsilon: float) -> np.ndarray:
    """(2, 2) binary randomized response table Pr[output bit | input bit]."""
    w = math.exp(-check_epsilon(epsilon))
    p, q = 1.0 / (1.0 + w), w / (1.0 + w)
    return np.array([[p, q], [q, p]])


def f2m_channel(budget: PrivacyBudget) -> np.ndarray:
    """(4, 4) table over (key bit, value sign) pairs ordered (0,-1),(0,1),(1,-1),(1,1)."""
    return np.kron(rr_channel(budget.epsilon_key), rr_channel(budget.epsilon_value))


def _pair_of_state(default_value: float) -> np.ndarray:
    """(3, 4) Pr[(key bit, value sign) | state digit]; an absent key's sign is default_value discretized."""
    if not -1.0 <= default_value <= 1.0:
        raise DomainError(f"default value must lie in [-1, 1], got {default_value!r}")
    rows = np.zeros((3, 4))
    rows[NEG, 2] = rows[POS, 3] = 1.0
    rows[ABSENT, :2] = (1.0 - default_value) / 2.0, (1.0 + default_value) / 2.0
    return rows


def f2m_state_channel(budget: PrivacyBudget, default_value: float) -> np.ndarray:
    """(3, 4) table Pr[(key bit, value sign) | state digit] of f2m."""
    return _pair_of_state(default_value) @ f2m_channel(budget)


# Row c is the state digit privkv reports for (key bit, value sign) pair c.
_STATE_OF_PAIR = np.eye(3)[[ABSENT, ABSENT, NEG, POS]]


def lpp_channel(budget: PrivacyBudget) -> np.ndarray:
    """(3, 3) table Pr[output state | input state], rows/cols by state digit.

    The f2m channel with a uniform absent sign, both key-bit-0 outputs read as ABSENT.
    """
    return _pair_of_state(0.0) @ f2m_channel(budget) @ _STATE_OF_PAIR


def kvue_channel(epsilon: float) -> np.ndarray:
    """(3, 3) generalized randomized response table with keep e^eps/(e^eps+2)."""
    w = math.exp(-check_epsilon(epsilon))
    keep = 1.0 / (1.0 + 2.0 * w)
    other = w / (1.0 + 2.0 * w)
    table = np.full((3, 3), other)
    np.fill_diagonal(table, keep)
    return table


def kvoh_bit_channel(epsilon: float) -> np.ndarray:
    """(2, 2) per-bit table of the kvoh/ioh bit flip at budget eps/2."""
    return rr_channel(float(epsilon) / 2.0)


def kvoh_channel(epsilon: float) -> np.ndarray:
    """(3, 8) table: input state digit vs 3-bit output pattern (b0 b1 b2 big-endian)."""
    bit = kvoh_bit_channel(epsilon)
    return np.kron(np.kron(bit, bit), bit)[[4, 2, 1]]  # the one-hot patterns of digits 0, 1, 2


def worst_case_ratio(table: np.ndarray) -> float:
    """Max over outputs of the max/min likelihood ratio across inputs."""
    table = np.asarray(table, dtype=np.float64)
    if np.any(table <= 0):
        raise DomainError("channel table must be strictly positive")
    return float(np.max(table.max(axis=0) / table.min(axis=0)))


# ---------------------------------------------------------------------------
# Protocol registry
# ---------------------------------------------------------------------------


class Protocol(NamedTuple):
    """One mechanism name: its wire form, code-table tally, state channel and decoder.

    A code table counts reports per (key, payload code), shape (d, |payloads|).
    """

    mechanism: Mechanism  # the wire form of its reports
    tally: Callable  # code table -> decoder inputs, as tally_reports returns them
    channel: Callable  # (epsilon, default_value) -> (3, |payloads|) Pr[payload code | true state digit]
    estimate: Optional[Callable] = None  # (code table, epsilon) -> (d, 3) state counts
    nonlinear: Optional[Callable] = None  # (code table, epsilon, default_value) -> as decode

    def encode(self, values, epsilon, default_value, rng) -> ReportBatch:
        """A population's reports, sampled from the very table channel() returns."""
        return sample(self.mechanism, values, self.channel(epsilon, default_value), rng)

    def decode(self, table, epsilon, default_value):
        """(frequency, mean, defined) per key of a code table."""
        if self.estimate is None:
            return self.nonlinear(table, epsilon, default_value)
        return stats_from_estimates(self.estimate(table, epsilon), table.sum(axis=1))


def _unchanged(table):
    return table


# The two privkv names share the wire form and channel; only the decoder differs.
_LPP = Protocol(Mechanism.PRIVKV, _unchanged, lambda eps, vbar: lpp_channel(PrivacyBudget.split(eps)))

PROTOCOLS = {
    "privkv": _LPP._replace(
        nonlinear=lambda table, eps, vbar: privkv_decode_original_array(table, PrivacyBudget.split(eps))),
    "privkv-improved": _LPP._replace(
        estimate=lambda table, eps: privkv_decode_improved_array(table, PrivacyBudget.split(eps))),
    "f2m": Protocol(
        Mechanism.F2M, _f2m_tally, lambda eps, vbar: f2m_state_channel(PrivacyBudget.split(eps), vbar),
        nonlinear=lambda table, eps, vbar: f2m_decode_array(*_f2m_tally(table), PrivacyBudget.split(eps), vbar)),
    "kvue": Protocol(Mechanism.KVUE, _unchanged, lambda eps, vbar: kvue_channel(eps), estimate=kvue_decode_array),
    "kvoh": Protocol(
        Mechanism.KVOH, _kvoh_tally, lambda eps, vbar: kvoh_channel(eps),
        estimate=lambda table, eps: kvoh_decode_array(*_kvoh_tally(table), eps)),
}
