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
Decoders work on per-key tallies, one row per key, and read the inverse
of the same table from channel_inverse, which holds the one conditioning rule;
the error bounds read their calibration and epsilon floor off that inverse too.
Every frequency and mean, conditional answers included, leaves through clipped_ratio.
"""

from __future__ import annotations

import enum
import functools
import math
import re
import sys
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
        mechanism = Mechanism(name)
        if not _KEY_INDEX.fullmatch(index):
            raise ValueError(f"non-canonical key index {index!r}")
        key_index = int(index)
    except ValueError as exc:
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


def _bit_estimate(ones, totals, channel: np.ndarray) -> np.ndarray:
    """True 1 bits behind ones set bits of totals, each bit sent through a (2, 2) channel with D = its inverse.

    D[0, 1] totals + (D[1, 1] - D[0, 1]) ones, with totals broadcast and added in place: one new array.
    """
    (_, d01), (_, d11) = channel_inverse(channel)
    estimates = (d11 - d01) * np.asarray(ones, dtype=np.float64)
    estimates += d01 * np.asarray(totals, dtype=np.float64)
    return estimates


def privkv_decode_original_array(counts: np.ndarray, budget: PrivacyBudget):
    """Original privkv calibration, vectorized over keys; counts has shape (d, 3) indexed by state digit.

    Key bit and value sign each read their randomized-response inverse: in closed form the frequency
    (f - 1 + p1) / (2p1 - 1) of the signed share f, and the counts (M_{+-1} - (1 - p2)(M1 + M-1)) / (2p2 - 1)
    clipped to [0, M1 + M-1].  Returns (frequency, mean, mean_defined); keys with no reports get NaN frequency.
    """
    counts = np.asarray(counts, dtype=np.float64)
    m_total = counts.sum(axis=1)
    n_signed = counts[:, POS] + counts[:, NEG]
    held = _bit_estimate(n_signed, m_total, rr_channel(budget.epsilon_key))
    signs = _bit_estimate(counts[:, [POS, NEG]], n_signed[:, None], rr_channel(budget.epsilon_value))
    n1, n2 = np.clip(signs, 0.0, n_signed[:, None]).T
    defined = n_signed >= DEGENERACY_THRESHOLD
    return clipped_ratio(held, m_total, 0.0, m_total > 0), clipped_ratio(n1 - n2, n_signed, -1.0, defined), defined


def privkv_decode_improved_array(counts: np.ndarray, budget: PrivacyBudget) -> np.ndarray:
    """Unbiased state-count estimates under the privkv channel, shape (d, 3): counts @ its inverse.

    In closed form, (M1 + M-1 - M(1-p1)) / (2p1 - 1) recovers N1 + N-1 and
    (M1 - M-1) / (p1 (2p2 - 1)) recovers N1 - N-1; the absent estimate
    keeps the three parts summing to the report total.
    """
    return np.asarray(counts, dtype=np.float64) @ channel_inverse(lpp_channel(budget))


def kvue_decode_array(counts: np.ndarray, epsilon: float) -> np.ndarray:
    """counts @ the inverse of kvue's channel; in closed form N_i* = (2 M_i - (1-p) M) / (3p - 1)."""
    return np.asarray(counts, dtype=np.float64) @ channel_inverse(kvue_channel(epsilon))


def kvoh_decode_array(bit_sums: np.ndarray, n_reports: np.ndarray, epsilon: float) -> np.ndarray:
    """Per-position inverse of kvoh_bit_channel; in closed form N_i* = ((e^{eps/2}+1) M_i - N) / (e^{eps/2}-1).

    Positions are calibrated independently and deliberately not
    renormalized; the three estimates need not sum to N.
    """
    bit_sums = np.asarray(bit_sums, dtype=np.float64)
    n_reports = np.asarray(n_reports, dtype=np.float64)
    if bit_sums.min(initial=0.0) < 0 or np.any(bit_sums > n_reports[..., None]):
        raise DomainError("bit sums must lie in [0, n_reports]")
    return _bit_estimate(bit_sums, n_reports[..., None], kvoh_bit_channel(epsilon))


# A calibrated count below one user carries no signal: a ratio against it is
# undefined (NaN), not divided out.  Each clipped_ratio caller applies its own floor.
DEGENERACY_THRESHOLD = 1.0


def clipped_ratio(top, bottom, low: float, defined) -> np.ndarray:
    """top / bottom clipped to [low, 1] where defined holds, NaN elsewhere; the one clip of every estimate."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(defined, np.clip(np.divide(top, bottom), low, 1.0), np.nan)


def stats_from_estimates(estimates: np.ndarray, n_reports: np.ndarray):
    """Clip the signed-state estimates to [0, N], then form (frequency, mean, mean_defined) arrays.

    A clipped support below one report leaves the mean undefined.
    """
    estimates = np.asarray(estimates, dtype=np.float64)
    n_reports = np.asarray(n_reports, dtype=np.float64)
    n_pos = np.clip(estimates[..., POS], 0.0, n_reports)
    n_neg = np.clip(estimates[..., NEG], 0.0, n_reports)
    support = n_pos + n_neg
    defined = support >= DEGENERACY_THRESHOLD
    frequency = clipped_ratio(support, n_reports, 0.0, n_reports > 0)
    return frequency, clipped_ratio(n_pos - n_neg, support, -1.0, defined), defined


def f2m_decode_array(ones, totals, pos, neg, budget: PrivacyBudget, default_value: float):
    """f2m calibration, vectorized over keys.

    The frequency reads privkv's key-bit inverse; the all-report mean reads the value-sign inverse, in
    closed form (pos - neg) / (pos + neg) times (e^eps2 + 1) / (e^eps2 - 1).  Then the default-value
    mass of the absent keys is subtracted and rescaled by the frequency.
    """
    totals = np.asarray(totals, dtype=np.float64)
    signed = np.add(pos, neg, dtype=np.float64)
    held = _bit_estimate(ones, totals, rr_channel(budget.epsilon_key))
    plus = _bit_estimate(pos, signed, rr_channel(budget.epsilon_value))
    frequency = clipped_ratio(held, totals, 0.0, totals > 0)
    mean_all = np.where(signed > 0, (2.0 * plus - signed) / np.where(signed > 0, signed, 1.0), np.nan)
    defined = (totals > 0) & (frequency >= 1.0 / np.where(totals > 0, totals, 1.0))
    return frequency, clipped_ratio(mean_all - (1.0 - frequency) * default_value, frequency, -1.0, defined), defined


# ---------------------------------------------------------------------------
# Closed-form error bounds and communication cost
# ---------------------------------------------------------------------------

BOUND_VACUOUS = math.inf


def _bound_terms(mechanism, epsilon: float, n: int, delta: float, f_k: float = 1.0):
    """(Mechanism, log(2/delta), spread) of a bound; DomainError on a bad input.

    The spread is the widest column range of channel_inverse(T), T the table the mechanism's decoder
    inverts: the most one report can move a calibrated count, 1/(p - q) for these randomized-response
    tables.  channel_inverse's conditioning rule is the bound's epsilon floor, as it is the decoder's.
    """
    mechanism = Mechanism(mechanism)
    if not 1 <= n <= sys.float_info.max:
        raise DomainError(f"n must be at least 1 and a finite float, got {n!r}")
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta must lie in (0, 1), got {delta!r}")
    if not 0.0 < f_k <= 1.0:
        raise DomainError(f"f_k must lie in (0, 1], got {f_k!r}")
    # f2m's bound takes the budget of one channel, key or value.
    tables = {Mechanism.KVUE: kvue_channel, Mechanism.KVOH: kvoh_bit_channel, Mechanism.F2M: rr_channel}
    if mechanism not in tables:
        raise DomainError(f"no closed-form bound for mechanism {mechanism.value!r}")
    spread = float(np.ptp(channel_inverse(tables[mechanism](epsilon)), axis=0).max())
    return mechanism, math.log(2.0) - math.log(delta), spread  # 2 / delta overflows for a subnormal delta


def theoretical_bound(mechanism: Mechanism, epsilon: float, n: int, delta: float, f_k: float):
    """Hoeffding-style (frequency, mean) error bounds for one key.

    n is the number of reports carrying the key's index.  Each bound holds
    with probability at least (1 - delta)^2.  A mean bound whose
    denominator is non-positive (n too small for the guarantee to bite)
    is reported as the vacuous marker math.inf.  For f2m, epsilon is the
    budget of the individual channel (key or value), matching the
    single-epsilon form of its derivation.
    """
    mechanism, log_term, spread = _bound_terms(mechanism, epsilon, n, delta, f_k)
    if mechanism is Mechanism.F2M:  # mean: 2 (f+1) s sqrt(L) / (f (sqrt(2n) f - sqrt(L)))
        denom = f_k * (math.sqrt(2.0 * n) * f_k - math.sqrt(log_term))
        mean_bound = 2.0 * (f_k + 1.0) * spread * math.sqrt(log_term) / denom if denom > 0 else BOUND_VACUOUS
        return spread * math.sqrt(log_term / (2.0 * n)), mean_bound
    root_2l = math.sqrt(2.0 * log_term)
    freq_bound = spread * math.sqrt(2.0 / n * log_term)
    denom = f_k * math.sqrt(n) - spread * root_2l
    return freq_bound, (spread * root_2l / denom if denom > 0 else BOUND_VACUOUS)


def count_deviation_bound(mechanism: Mechanism, epsilon: float, n: int, delta: float) -> float:
    """Bound on |N_i* - N_i| holding with probability at least 1 - delta."""
    mechanism, log_term, spread = _bound_terms(mechanism, epsilon, n, delta)
    if mechanism is Mechanism.F2M:
        raise DomainError(f"no count deviation bound for mechanism {mechanism.value!r}")
    return spread * math.sqrt(n / 2.0 * log_term)


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
    return rr_channel(check_epsilon(epsilon) / 2.0)


def kvoh_channel(epsilon: float) -> np.ndarray:
    """(3, 8) table: input state digit vs 3-bit output pattern (b0 b1 b2 big-endian)."""
    bit = kvoh_bit_channel(epsilon)
    return np.kron(np.kron(bit, bit), bit)[[4, 2, 1]]  # the one-hot patterns of digits 0, 1, 2


def channel_inverse(table: np.ndarray) -> np.ndarray:
    """The decoder D of a square channel table: counts @ D estimates the true state counts.

    IllConditionedError when its smallest singular value is below _MIN_CONDITIONING, checked before
    inverting: at a vanishing epsilon the rows are equal and the table has no inverse.
    """
    table = np.asarray(table, dtype=np.float64)
    if (smallest := np.linalg.svd(table, compute_uv=False).min()) < _MIN_CONDITIONING:
        raise IllConditionedError(f"the channel's smallest singular value = {smallest:.3e} is below "
                                  f"{_MIN_CONDITIONING:g}; epsilon too small")
    return np.linalg.inv(table)


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
