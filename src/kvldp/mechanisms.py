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

The *_population encoders privatize a whole (n, d) population at once,
drawing a fixed number of variates from one generator; one user is a
1-row matrix.  Decoders work on per-key tallies, one row per key.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .core import (
    CapacityError,
    DiscretizedState,
    DomainError,
    IllConditionedError,
    PrivacyBudget,
    direct_encode_array,
    ensure_generator,
    flip_keep_probability,
    rr_bit_array,
    rr_sign_array,
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

    Report validation, the wire lines, bit packing and trace rendering all
    read this one table: text <-> Report payload value <-> packed code.
    """

    def __init__(self, texts, values):
        self.texts = tuple(texts)
        self.values = tuple(values)
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


@functools.lru_cache(maxsize=_REPORT_LINE_CACHE_SIZE)
def _parse_report_line(line: str) -> Report:
    """The report a wire line holds; equal lines share one immutable Report."""
    try:
        name, index, text = line.strip().split(",")
        mechanism = _MECHANISM_OF_NAME[name]
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
        if not isinstance(self.key_index, (int, np.integer)) or self.key_index < 0:
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
# Vectorized population encoders
# ---------------------------------------------------------------------------
#
# All take a (n, d) float matrix with NaN marking absent keys (the dense
# form datasets use) and one generator; the number and order of draws is
# fixed, so a fixed (seed, stream) reproduces the cell bit-for-bit no
# matter how cells are scheduled across workers.


class TernaryReports(NamedTuple):
    key_index: np.ndarray
    states: np.ndarray
    true_states: np.ndarray


class F2MReports(NamedTuple):
    key_index: np.ndarray
    key_bits: np.ndarray
    signs: np.ndarray
    true_states: np.ndarray


class KVOHReports(NamedTuple):
    key_index: np.ndarray
    bits: np.ndarray
    true_states: np.ndarray


_ONE_HOT = np.eye(3, dtype=bool)  # row s is the kvoh one-hot of state digit s


def _gather_sampled(values: np.ndarray, g: np.random.Generator):
    n, d = values.shape
    key_index = g.integers(0, d, size=n)
    sampled = values.reshape(-1).take(np.arange(0, n * d, d) + key_index)
    present = ~np.isnan(sampled)
    return key_index, sampled, present


def _discretize_sampled(sampled: np.ndarray, present: np.ndarray, fill, g: np.random.Generator) -> np.ndarray:
    """discretize_array of the sampled values with fill in place of the absent (NaN) ones.

    Thresholds instead of selecting the fill: an absent value's own
    threshold is NaN, which compares false, so one draw per report gives
    the same signs as discretizing the filled array.
    """
    if np.fmin.reduce(sampled, initial=0.0) < -1.0 or np.fmax.reduce(sampled, initial=0.0) > 1.0:
        raise DomainError("values must be finite reals in [-1, 1]")
    u = g.random(sampled.shape)
    positive = u < (1.0 + sampled) / 2.0
    positive |= ~present & (u < (1.0 + fill) / 2.0)
    return positive.view(np.int8) * 2 - 1


def _digits(present: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """State digit key_bit * value_sign + 1 of +-1 int8 signs."""
    return present.view(np.int8) * signs + 1


def lpp_encode_population(values: np.ndarray, budget: PrivacyBudget, rng) -> TernaryReports:
    g = ensure_generator(rng)
    key_index, sampled, present = _gather_sampled(values, g)
    placeholder = g.uniform(-1.0, 1.0, size=sampled.shape)
    v_star = _discretize_sampled(sampled, present, placeholder, g)
    v_prime = rr_sign_array(v_star, budget.epsilon_value, g)
    keep = g.random(sampled.shape) < flip_keep_probability(budget.epsilon_key)
    return TernaryReports(key_index, _digits(present == keep, v_prime), _digits(present, v_star))


def f2m_encode_population(values: np.ndarray, budget: PrivacyBudget, default_value: float, rng) -> F2MReports:
    if not -1.0 <= default_value <= 1.0:
        raise DomainError(f"default value must lie in [-1, 1], got {default_value!r}")
    g = ensure_generator(rng)
    key_index, sampled, present = _gather_sampled(values, g)
    key_bits = rr_bit_array(present, budget.epsilon_key, g)
    v_star = _discretize_sampled(sampled, present, default_value, g)
    signs = rr_sign_array(v_star, budget.epsilon_value, g)
    return F2MReports(key_index, key_bits, signs, _digits(present, v_star))


def kvue_encode_population(values: np.ndarray, epsilon: float, rng) -> TernaryReports:
    g = ensure_generator(rng)
    key_index, sampled, present = _gather_sampled(values, g)
    true_states = _digits(present, _discretize_sampled(sampled, present, 0.0, g))
    states = direct_encode_array(true_states, 3, epsilon, g).astype(np.int8)
    return TernaryReports(key_index, states, true_states)


def kvoh_encode_population(values: np.ndarray, epsilon: float, rng) -> KVOHReports:
    g = ensure_generator(rng)
    key_index, sampled, present = _gather_sampled(values, g)
    true_states = _digits(present, _discretize_sampled(sampled, present, 0.0, g))
    p = flip_keep_probability(float(epsilon) / 2.0)
    onehot = _ONE_HOT.take(true_states, axis=0)
    u = g.random((sampled.shape[0], 3))
    bits = (onehot & (u < p)) | (~onehot & (u < 1.0 - p))
    return KVOHReports(key_index, bits.view(np.int8), true_states)


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


def _code_table(key_index: np.ndarray, codes: np.ndarray, d: int, size: int) -> np.ndarray:
    """(d, size) report counts per (key, payload code), from one bincount."""
    return np.bincount(key_index * size + codes, minlength=d * size).reshape(d, size)


# Row c holds the three bits of kvoh payload code c, most significant first.
_KVOH_BIT_OF_CODE = np.array(PAYLOADS[Mechanism.KVOH].values, dtype=np.int64)


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
    return table @ _KVOH_BIT_OF_CODE, table.sum(axis=1)


def tally_ternary(key_index: np.ndarray, states: np.ndarray, d: int) -> np.ndarray:
    """Per-key counts of the three states, shape (d, 3) indexed by state digit."""
    key_index = _checked_codes(key_index, d, "key indices")
    return _code_table(key_index, _checked_codes(states, 3, "state digits"), d, 3)


def tally_f2m(key_index, key_bits, signs, d: int):
    """Per-key aggregates for f2m: (set key bits, report totals, +1 signs, -1 signs)."""
    key_index = _checked_codes(key_index, d, "key indices")
    return _f2m_tally(_code_table(key_index, _f2m_codes(key_bits, signs), d, 4))


def tally_kvoh(key_index, bits, d: int):
    """Per-key bit-position sums, shape (d, 3), plus per-key report totals."""
    key_index = _checked_codes(key_index, d, "key indices")
    return _kvoh_tally(_code_table(key_index, _kvoh_codes(bits), d, 8))


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


def wire_codes(encoded) -> np.ndarray:
    """Payload code (row of the mechanism's PAYLOADS table) of every report in a population encoding."""
    if isinstance(encoded, F2MReports):
        return _f2m_codes(encoded.key_bits, encoded.signs).astype(np.int64)
    if isinstance(encoded, KVOHReports):
        return _kvoh_codes(encoded.bits).astype(np.int64)
    return encoded.states.astype(np.int64)


def tally_reports(reports: Sequence[Report], d: int):
    """Aggregate scalar reports (all of one mechanism) into decoder inputs."""
    if not reports:
        raise DomainError("no reports to tally")
    mechanism, key_index, codes = _report_columns(reports, d)
    table = _code_table(key_index, codes, d, len(PAYLOADS[mechanism].values))
    if mechanism is Mechanism.F2M:
        return _f2m_tally(table)
    if mechanism is Mechanism.KVOH:
        return _kvoh_tally(table)
    return table


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
    if np.any(bit_sums < 0) or np.any(bit_sums > n_reports[..., None]):
        raise DomainError("bit sums must lie in [0, n_reports]")
    denom = math.expm1(float(epsilon) / 2.0)
    _require_conditioned(denom, "e^{eps/2} - 1")
    return ((denom + 2.0) * bit_sums - n_reports[..., None]) / denom


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


def theoretical_bound(mechanism: Mechanism, epsilon: float, n: int, delta: float, f_k: float):
    """Hoeffding-style (frequency, mean) error bounds for one key.

    n is the number of reports carrying the key's index.  Each bound holds
    with probability at least (1 - delta)^2.  A mean bound whose
    denominator is non-positive (n too small for the guarantee to bite)
    is reported as the vacuous marker math.inf.  For f2m, epsilon is the
    budget of the individual channel (key or value), matching the
    single-epsilon form of its derivation.
    """
    mechanism = Mechanism(mechanism)
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise DomainError(f"epsilon must be positive and finite, got {epsilon!r}")
    if n < 1:
        raise DomainError(f"n must be at least 1, got {n!r}")
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta must lie in (0, 1), got {delta!r}")
    if not 0.0 < f_k <= 1.0:
        raise DomainError(f"f_k must lie in (0, 1], got {f_k!r}")
    log_term = math.log(2.0 / delta)
    root_2l = math.sqrt(2.0 * log_term)
    if mechanism is Mechanism.KVUE:
        w = math.exp(-epsilon)
        factor = (1.0 + 2.0 * w) / (1.0 - w)  # (e^eps + 2) / (e^eps - 1)
        freq_bound = factor * math.sqrt(2.0 / n * log_term)
        denom = (1.0 - w) * f_k * math.sqrt(n) - (1.0 + 2.0 * w) * root_2l
        mean_bound = (1.0 + 2.0 * w) * root_2l / denom if denom > 0 else BOUND_VACUOUS
        return freq_bound, mean_bound
    if mechanism is Mechanism.KVOH:
        w = math.exp(-epsilon / 2.0)
        factor = (1.0 + w) / (1.0 - w)  # (e^{eps/2} + 1) / (e^{eps/2} - 1)
        freq_bound = factor * math.sqrt(2.0 / n * log_term)
        denom = f_k * (1.0 - w) * math.sqrt(n) - (1.0 + w) * root_2l
        mean_bound = (1.0 + w) * root_2l / denom if denom > 0 else BOUND_VACUOUS
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
    mechanism = Mechanism(mechanism)
    log_term = math.log(2.0 / delta)
    if mechanism is Mechanism.KVUE:
        w = math.exp(-epsilon)
        return (1.0 + 2.0 * w) / (1.0 - w) * math.sqrt(n / 2.0 * log_term)
    if mechanism is Mechanism.KVOH:
        w = math.exp(-epsilon / 2.0)
        return (1.0 + w) / (1.0 - w) * math.sqrt(n / 2.0 * log_term)
    raise DomainError(f"no count deviation bound for mechanism {mechanism.value!r}")


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
# Probabilities are built from the keep/flip pair computed independently
# (never as 1 - p), so worst-case likelihood ratios come out at e^eps up
# to a few ulps and can be asserted at 1e-12 relative tolerance.


def _rr_pair(epsilon: float):
    w = math.exp(-float(epsilon))
    return 1.0 / (1.0 + w), w / (1.0 + w)


def lpp_channel(budget: PrivacyBudget) -> np.ndarray:
    """(3, 3) table Pr[output state | input state], rows/cols by state digit."""
    p1, q1 = _rr_pair(budget.epsilon_key)
    p2, q2 = _rr_pair(budget.epsilon_value)
    table = np.empty((3, 3))
    table[ABSENT] = [q1 / 2.0, p1, q1 / 2.0]
    table[NEG] = [p1 * p2, q1, p1 * q2]
    table[POS] = [p1 * q2, q1, p1 * p2]
    return table


def f2m_channel(budget: PrivacyBudget) -> np.ndarray:
    """(4, 4) table over (key bit, value sign) pairs ordered (0,-1),(0,1),(1,-1),(1,1)."""
    p1, q1 = _rr_pair(budget.epsilon_key)
    p2, q2 = _rr_pair(budget.epsilon_value)
    inputs = [(0, -1), (0, 1), (1, -1), (1, 1)]
    table = np.empty((4, 4))
    for i, (kb, sign) in enumerate(inputs):
        for o, (kb_out, sign_out) in enumerate(inputs):
            table[i, o] = (p1 if kb_out == kb else q1) * (p2 if sign_out == sign else q2)
    return table


def kvue_channel(epsilon: float) -> np.ndarray:
    """(3, 3) generalized randomized response table with keep e^eps/(e^eps+2)."""
    w = math.exp(-float(epsilon))
    keep = 1.0 / (1.0 + 2.0 * w)
    other = w / (1.0 + 2.0 * w)
    table = np.full((3, 3), other)
    np.fill_diagonal(table, keep)
    return table


def kvoh_bit_channel(epsilon: float) -> np.ndarray:
    """(2, 2) per-bit table of the kvoh/ioh bit flip at budget eps/2."""
    p, q = _rr_pair(float(epsilon) / 2.0)
    return np.array([[p, q], [q, p]])


def kvoh_channel(epsilon: float) -> np.ndarray:
    """(3, 8) table: input state digit vs 3-bit output pattern (b0 b1 b2 big-endian)."""
    p, q = _rr_pair(float(epsilon) / 2.0)
    table = np.empty((3, 8))
    for state in range(3):
        for pattern in range(8):
            prob = 1.0
            for position in range(3):
                bit = (pattern >> (2 - position)) & 1
                truth = 1 if position == state else 0
                prob *= p if bit == truth else q
            table[state, pattern] = prob
    return table


def worst_case_ratio(table: np.ndarray) -> float:
    """Max over outputs of the max/min likelihood ratio across inputs."""
    table = np.asarray(table, dtype=np.float64)
    if np.any(table <= 0):
        raise DomainError("channel table must be strictly positive")
    return float(np.max(table.max(axis=0) / table.min(axis=0)))
