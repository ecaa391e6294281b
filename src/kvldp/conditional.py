"""Full-record one-hot encoding and conditional frequency/mean queries.

A user's whole record is collapsed into a single base-3 number: each key
contributes the digit key_bit * value_sign + 1 (0 = present negative,
1 = absent, 2 = present positive), key 0 most significant.  The number
indexes a one-hot vector of length 3^d whose bits are then flipped
independently with budget eps/2 each; since two distinct one-hot vectors
differ in exactly two bits this composes to eps for the whole record.

The aggregator sums received vectors, rescales every position to an
unbiased estimate of the number of users at that index, and answers
L-way conditional queries by summing calibrated positions over
Cartesian-product index sets: a key constrained present contributes
digits {0,2}, constrained absent {1}, unconstrained {0,1,2}, and the
target key of a mean query contributes {2} for the positive part and {0}
for the negative part.
"""

from __future__ import annotations

import json
import math
import operator
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    CapacityError,
    DomainError,
    IllConditionedError,
    atomic_writer,
    ensure_generator,
    flip_keep_probability,
    row_blocks,
    state_digits,
)

# 3^12 = 531,441 positions; beyond that the dense vector stops being a
# reasonable in-memory object.
IOH_DIMENSION_CAP = 12

_MIN_CONDITIONING = 1e-12

# Bits per row block of the peruser simulation (8 MB of uniforms).
_PERUSER_BLOCK_ELEMENTS = 1 << 20

# At most 18 digits, so int() never meets its digit limit.
_KEY_NAME = re.compile("k([1-9][0-9]{0,17})")


def parse_key_name(name: str) -> int:
    """The 0-based index of a key named 'k' plus its 1-based index in ASCII digits, no leading zero."""
    match = _KEY_NAME.fullmatch(name)
    if match is None:
        raise DomainError(f"a key name must look like k2, got {name!r}")
    return int(match[1]) - 1


def _check_dimension(d: int) -> int:
    if not isinstance(d, (int, np.integer)) or d < 1:
        raise DomainError(f"dimension must be a positive integer, got {d!r}")
    if d > IOH_DIMENSION_CAP:
        raise CapacityError(f"dimension {d} exceeds the one-hot capacity cap of {IOH_DIMENSION_CAP}")
    return int(d)


def _check_bits(bits, d: int, name: str) -> tuple:
    bits = tuple(int(b) for b in bits)
    if len(bits) != d:
        raise DomainError(f"{name} must have length {d}, got {len(bits)}")
    if any(b not in (0, 1) for b in bits):
        raise DomainError(f"{name} must be a 0/1 vector")
    return bits


@dataclass(frozen=True)
class Condition:
    """Key-existence condition: alpha marks constrained keys, beta their required presence."""

    alpha: tuple
    beta: tuple

    def __post_init__(self):
        alpha = _check_bits(self.alpha, len(self.alpha), "alpha")
        beta = _check_bits(self.beta, len(alpha), "beta")
        if any(b and not a for a, b in zip(alpha, beta)):
            raise DomainError("beta must be supported on alpha")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    @property
    def d(self) -> int:
        return len(self.alpha)

    @property
    def n_constrained(self) -> int:
        return sum(self.alpha)

    @classmethod
    def empty(cls, d: int) -> "Condition":
        return cls((0,) * d, (0,) * d)

    @classmethod
    def parse(cls, text: str, d: int) -> "Condition":
        """Parse 'k3=1,k1=0' (1-based key names) into a length-d condition.

        Each token has one spelling: a parse_key_name key name, '=', then
        0 or 1, with no space inside it.
        """
        alpha = [0] * d
        beta = [0] * d
        text = text.strip()
        if text:
            for token in text.split(","):
                name, _, value = token.partition("=")
                key = parse_key_name(name)
                if value not in ("0", "1"):
                    raise DomainError(f"cannot parse condition token {token!r}; expected e.g. 'k3=1'")
                if key >= d:
                    raise DomainError(f"condition key {name} outside domain of size {d}")
                if alpha[key]:
                    raise DomainError(f"key {name} constrained twice")
                alpha[key] = 1
                beta[key] = int(value)
        return cls(tuple(alpha), tuple(beta))

    def augmented(self, k: int) -> "Condition":
        """Force the target key present (used by both conditional operators)."""
        if not 0 <= k < self.d:
            raise DomainError(f"target key {k} outside domain of size {self.d}")
        if self.alpha[k]:
            raise DomainError(f"target key {k} is already constrained by the condition")
        alpha = list(self.alpha)
        beta = list(self.beta)
        alpha[k] = 1
        beta[k] = 1
        return Condition(tuple(alpha), tuple(beta))


@dataclass(frozen=True)
class AggregateVector:
    """Calibrated per-position user-count estimates (may be negative; never clipped)."""

    values: np.ndarray
    n_users: int
    d: int
    epsilon: float


def aggregate_from_bit_sums(bit_sums: np.ndarray, n_users: int, d: int, epsilon: float) -> AggregateVector:
    """Rescale summed bits to unbiased per-position counts.

    values[i] = ((e^{eps/2} + 1) * sum_i - N) / (e^{eps/2} - 1); entries may
    come out negative and are deliberately left unclipped so that the
    counting operators stay linear and marginally consistent.
    """
    denom = math.expm1(float(epsilon) / 2.0)
    if denom < _MIN_CONDITIONING:
        raise IllConditionedError(f"e^{{eps/2}} - 1 = {denom:.3e} is too small to calibrate")
    bit_sums = np.asarray(bit_sums, dtype=np.float64)
    values = ((denom + 2.0) * bit_sums - float(n_users)) / denom
    return AggregateVector(values, int(n_users), int(d), float(epsilon))


# ---------------------------------------------------------------------------
# Population encoding
# ---------------------------------------------------------------------------


class IOHSample(NamedTuple):
    bit_sums: np.ndarray
    n_users: int
    true_counts: np.ndarray


def ioh_index_population(values: np.ndarray, rng) -> np.ndarray:
    """Base-3 record index of every row of a (n, d) value matrix with NaN = absent.

    Key 0 is the most significant digit, and each digit is the cell's
    state_digits digit.  Rows are indexed in blocks, so the float
    temporaries stay block-sized while the draws are those of one (n, d)
    draw.
    """
    n, d = values.shape
    d = _check_dimension(d)
    g = ensure_generator(rng)
    powers = 3 ** np.arange(d - 1, -1, -1, dtype=np.int64)
    index = np.empty(n, dtype=np.int64)
    for rows in row_blocks(n, d):
        index[rows] = state_digits(values[rows], g) @ powers
    return index


def simulate_ioh_bit_sums(values: np.ndarray, epsilon: float, rng, method: str = "column") -> IOHSample:
    """Draw the aggregated bit sums of an encoded population.

    method='peruser' materializes every user's 3^d bit vector: the one-hot
    of the record's index with every bit flipped at budget eps/2, which is
    the report each user sends.  method='column' exploits that all n * 3^d
    perturbed bits are independent, so each column sum is distributed as
    Binomial(c_i, p) + Binomial(n - c_i, 1-p) with c_i the true count at
    position i; this samples from exactly the same law at O(3^d) cost and
    is what makes d=8 experiments tractable.  The peruser reports are
    drawn and summed in row blocks of at most 2^20 bits, so its memory
    does not grow with n.
    """
    n, d = values.shape
    d = _check_dimension(d)
    g = ensure_generator(rng)
    indices = ioh_index_population(values, g)
    size = 3 ** d
    true_counts = np.bincount(indices, minlength=size)
    keep = flip_keep_probability(float(epsilon) / 2.0)
    if method == "column":
        kept = g.binomial(true_counts, keep)
        spurious = g.binomial(n - true_counts, 1.0 - keep)
        return IOHSample(kept + spurious, n, true_counts)
    if method == "peruser":
        positions = np.arange(size, dtype=np.int64)
        bit_sums = np.zeros(size, dtype=np.int64)
        for rows in row_blocks(n, size, _PERUSER_BLOCK_ELEMENTS):
            onehot = indices[rows, None] == positions[None, :]
            u = g.random(onehot.shape)
            bits = (onehot & (u < keep)) | (~onehot & (u < 1.0 - keep))
            bit_sums += bits.sum(axis=0)
            del onehot, u, bits  # freed before the next block draws its uniforms
        return IOHSample(bit_sums, n, true_counts)
    raise DomainError(f"unknown simulation method {method!r}")


# ---------------------------------------------------------------------------
# Index algebra
# ---------------------------------------------------------------------------


# A digit set's positions along one base-3 axis, as an ascending slice.
_DIGIT_SLICES = {(0, 2): slice(0, 3, 2), (1,): slice(1, 2), (0, 1, 2): slice(0, 3),
                 (0,): slice(0, 1), (2,): slice(2, 3)}


def _product_values(values: np.ndarray, digit_sets) -> np.ndarray:
    """values at the Cartesian product of per-position digit sets, in ascending index order.

    The product is a strided view of values as a (3,) * d tensor.  It is
    copied to a contiguous vector before any reduction: that vector holds
    the same entries in the same order as a gather by ascending index, so
    its sum is the same pairwise sum bit for bit, where a sum over the
    strided view would run in another order.
    """
    view = values.reshape((3,) * len(digit_sets))[tuple(_DIGIT_SLICES[s] for s in digit_sets)]
    return np.ascontiguousarray(view).ravel()


def frequency_index_set(gamma) -> np.ndarray:
    """Positions matching an exact existence pattern: digit {0,2} where present, {1} where absent."""
    gamma = _check_bits(gamma, len(gamma), "gamma")
    positions = np.arange(3 ** len(gamma), dtype=np.int64)
    return _product_values(positions, [(0, 2) if bit else (1,) for bit in gamma])


def mean_index_sets(k: int, gamma):
    """Positive/negative position sets for the value of key k under pattern gamma.

    The target key must be present in the pattern; its digit is pinned to 2
    for the plus set and 0 for the minus set, other keys as in
    frequency_index_set.
    """
    gamma = _check_bits(gamma, len(gamma), "gamma")
    if not 0 <= k < len(gamma):
        raise DomainError(f"target key {k} outside pattern of length {len(gamma)}")
    if not gamma[k]:
        raise DomainError(f"pattern marks target key {k} absent; its value is meaningless")
    plus_sets = [(0, 2) if bit else (1,) for bit in gamma]
    minus_sets = list(plus_sets)
    plus_sets[k] = (2,)
    minus_sets[k] = (0,)
    positions = np.arange(3 ** len(gamma), dtype=np.int64)
    return _product_values(positions, plus_sets), _product_values(positions, minus_sets)


def _condition_digit_sets(alpha, beta):
    sets = []
    for a, b in zip(alpha, beta):
        if a:
            sets.append((0, 2) if b else (1,))
        else:
            sets.append((0, 1, 2))
    return sets


def frequency_count(agg: AggregateVector, alpha, beta) -> float:
    """Calibrated number of users whose existence pattern restricted to alpha equals beta.

    Equals the sum of frequency_index_set sums over all full patterns gamma
    with gamma & alpha == beta; computed directly as one Cartesian-product
    sum since those index sets partition it.
    """
    condition = Condition(tuple(alpha), tuple(beta))
    if condition.d != agg.d:
        raise DomainError(f"condition length {condition.d} does not match aggregate dimension {agg.d}")
    return float(_product_values(agg.values, _condition_digit_sets(condition.alpha, condition.beta)).sum())


def _signed_value_sum(agg: AggregateVector, k: int, condition: Condition) -> float:
    plus_sets = _condition_digit_sets(condition.alpha, condition.beta)
    minus_sets = list(plus_sets)
    plus_sets[k] = (2,)
    minus_sets[k] = (0,)
    plus = float(_product_values(agg.values, plus_sets).sum())
    minus = float(_product_values(agg.values, minus_sets).sum())
    return plus - minus


# A calibrated count below one user carries no signal; ratios against it
# are reported as undefined (NaN) rather than divided out.  The small slack
# keeps a noiseless count of exactly one user (which lands a calibration
# residual of order N/e^{eps/2} below 1.0) on the defined side.
DEGENERACY_THRESHOLD = 1.0
_THRESHOLD_SLACK = 1e-6


def _degenerate(count: float) -> bool:
    return count < DEGENERACY_THRESHOLD - _THRESHOLD_SLACK


def conditional_frequency(agg: AggregateVector, k: int, cond: Condition) -> float:
    """Estimated frequency of key k among users matching the condition; NaN if degenerate."""
    augmented = cond.augmented(k)
    denominator = frequency_count(agg, cond.alpha, cond.beta)
    if _degenerate(denominator):
        return math.nan
    numerator = frequency_count(agg, augmented.alpha, augmented.beta)
    return float(np.clip(numerator / denominator, 0.0, 1.0))


def conditional_mean(agg: AggregateVector, k: int, cond: Condition) -> float:
    """Estimated mean value of key k among matching users holding it; NaN if degenerate."""
    augmented = cond.augmented(k)
    holders = frequency_count(agg, augmented.alpha, augmented.beta)
    if _degenerate(holders):
        return math.nan
    signed = _signed_value_sum(agg, k, augmented)
    return float(np.clip(signed / holders, -1.0, 1.0))


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def save_aggregate(agg: AggregateVector, path, seed=None):
    """Write an aggregate as a flat value-per-line file with a JSON header, atomically."""
    header = {"d": agg.d, "epsilon": agg.epsilon, "n_users": agg.n_users, "seed": seed}
    with atomic_writer(path) as handle:
        handle.write("# " + json.dumps(header, sort_keys=True) + "\n")
        for value in agg.values:
            handle.write("%.17g\n" % value)


def load_aggregate(path):
    """Inverse of save_aggregate; returns (AggregateVector, seed)."""
    with open(path, encoding="utf-8") as handle:
        try:
            first = handle.readline()
            if not first.startswith("# "):
                raise ValueError("missing aggregate header line")
            header = json.loads(first[2:])
            d, n_users, epsilon = header["d"], header["n_users"], header["epsilon"]
            if bool in (type(d), type(n_users), type(epsilon)):
                raise TypeError("a header field is a boolean")
            d, n_users, epsilon = operator.index(d), operator.index(n_users), float(epsilon)
            values = np.array([float(line) for line in handle if line.strip()], dtype=np.float64)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DomainError(f"{path}: malformed aggregate file: {exc!r}") from exc
    if d < 1 or n_users < 0 or not 0.0 < epsilon < math.inf:
        raise DomainError(f"{path}: header needs d >= 1, n_users >= 0 and a finite epsilon > 0")
    d = _check_dimension(d)
    if len(values) != 3 ** d:
        raise DomainError(f"{path}: expected 3^{d} values, found {len(values)}")
    if not np.isfinite(values).all():
        raise DomainError(f"{path}: non-finite aggregate value")
    return AggregateVector(values, n_users, d, epsilon), header.get("seed")
