"""Full-record one-hot encoding and conditional frequency/mean queries.

A user's whole record is collapsed into a single base-3 number: each key
contributes the digit key_bit * value_sign + 1 (0 = present negative,
1 = absent, 2 = present positive), key 0 most significant.  This is kvoh
on a domain of 3^d positions: every bit of the number's one-hot vector is
flipped by kvoh_bit_channel at budget eps/2, which composes to eps since
two one-hot vectors differ in two bits, and kvoh_decode_array calibrates
the summed vectors to unbiased per-index user counts.  The aggregator sees
only those sums, so the simulation draws them from their exact law.

L-way conditional queries sum calibrated positions over Cartesian-product
index sets: a key constrained present contributes digits {0,2},
constrained absent {1}, unconstrained {0,1,2}, and the target key of a
mean query contributes {2} for the positive part and {0} for the
negative part.  So queries read each key through a partition of its
digits (query_classes) and need only the sums over atoms, the products of
classes.  Over an atom A the column sums add up to exactly
Binomial(c_A, p) + Binomial(n|A| - c_A, 1 - p), which Lumping.draw draws
in O(n + atoms) with every answer's exact joint law; the full 3^d vector
is the partition into single positions.  This module keeps what is
specific to full records: the record index, the bit-sum simulation, the
index algebra and persistence.
"""

from __future__ import annotations

import functools
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
    atomic_writer,
    ensure_generator,
    row_blocks,
)
from .mechanisms import kvoh_bit_channel, kvoh_decode_array

# 3^12 = 531,441 positions; beyond that the dense vector stops being a
# reasonable in-memory object.
IOH_DIMENSION_CAP = 12

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
            raise DomainError(f"target key {k} must not be constrained by the condition")
        alpha = list(self.alpha)
        beta = list(self.beta)
        alpha[k] = 1
        beta[k] = 1
        return Condition(tuple(alpha), tuple(beta))


def _class_maps(classes, d: int) -> tuple:
    """Per key, a tuple mapping digits 0, 1, 2 to classes; by default every key keeps its digits apart."""
    return tuple(map(tuple, classes or ((0, 1, 2),) * d))


@dataclass(frozen=True)
class AggregateVector:
    """Calibrated user counts (may be negative; never clipped), one per product of per-key classes.

    classes[k] maps key k's digits to its classes; by default each digit is a class (3^d positions).
    """

    values: np.ndarray
    n_users: int
    d: int
    epsilon: float
    classes: tuple = None

    def __post_init__(self):
        object.__setattr__(self, "classes", _class_maps(self.classes, self.d))


def _atom_sizes(classes):
    """Positions per atom, in atom order; the scalar 1 when every key keeps its digits apart."""
    per_key = [np.bincount(m) for m in classes]
    return 1 if all(len(c) == 3 for c in per_key) else functools.reduce(np.multiply.outer, per_key).ravel()


def aggregate_from_bit_sums(bit_sums: np.ndarray, n_users: int, d: int, epsilon: float,
                            classes=None) -> AggregateVector:
    """Rescale summed bits to unbiased per-atom counts with kvoh's calibration.

    An atom of |A| positions sums n_users * |A| bits.  Entries may come out
    negative and are deliberately left unclipped so that the counting
    operators stay linear and marginally consistent.
    """
    classes = _class_maps(classes, int(d))
    values = kvoh_decode_array(np.asarray(bit_sums)[:, None], int(n_users) * _atom_sizes(classes), epsilon)[:, 0]
    return AggregateVector(values, int(n_users), int(d), float(epsilon), classes)


# ---------------------------------------------------------------------------
# Population encoding
# ---------------------------------------------------------------------------


class IOHSample(NamedTuple):
    bit_sums: np.ndarray
    n_users: int


class Lumping:
    """A population whose atom sums are drawn under per-key digit classes (default: 3^d positions).

    base is each user's atom index with every held key at digit 0; steps[k] moves key k to digit 2.
    """

    def __init__(self, values: np.ndarray, classes=None):
        self.values = np.asarray(values, dtype=np.float64)
        n, d = self.values.shape
        self.classes = _class_maps(classes, _check_dimension(d))
        strides = np.cumprod([1] + [max(m) + 1 for m in self.classes[:0:-1]], dtype=np.int64)[::-1]
        first, absent, second = (np.array([m[digit] for m in self.classes]) * strides for digit in range(3))
        self.base, self.steps = np.empty(n, dtype=np.int64), second - first
        for rows in row_blocks(n, d):
            block = self.values[rows]
            if np.fmin.reduce(block, None, initial=0.0) < -1.0 or np.fmax.reduce(block, None, initial=0.0) > 1.0:
                raise DomainError("values must be finite reals in [-1, 1]")
            self.base[rows] = first.sum() + np.isnan(block) @ (absent - first).astype(np.float64)  # exact below 2^53

    def index(self, g: np.random.Generator) -> np.ndarray:
        """Every user's atom index: as in state_digits, a held v takes digit 2 when its u < (1 + v) / 2.

        One u per key with a nonzero step, row-major, in row blocks that draw as one (n, keys) draw does.
        """
        split = np.flatnonzero(self.steps)
        index = self.base.copy()
        for rows in row_blocks(len(index), len(split)):
            u = g.random((len(index[rows]), len(split)))
            for j, key in enumerate(split):
                index[rows] += (u[:, j] < (1.0 + self.values[rows, key]) / 2.0) * self.steps[key]
        return index

    def bit_sums(self, epsilon: float, g: np.random.Generator) -> np.ndarray:
        """Per atom A: Binomial(n|A| - c_A, flip) at every atom, plus Binomial(c_A, keep) where c_A > 0."""
        flip, keep = kvoh_bit_channel(epsilon)[1]
        counts = np.bincount(self.index(g), minlength=math.prod(max(m) + 1 for m in self.classes))
        bit_sums = g.binomial(len(self.base) * _atom_sizes(self.classes) - counts, flip)
        held = np.flatnonzero(counts)
        bit_sums[held] += g.binomial(counts[held], keep)
        return bit_sums

    def draw(self, epsilon: float, rng) -> AggregateVector:
        """One private collection of the population, calibrated per atom (see the module docstring)."""
        n, d = self.values.shape
        return aggregate_from_bit_sums(self.bit_sums(epsilon, ensure_generator(rng)), n, d, epsilon, self.classes)


def ioh_index_population(values: np.ndarray, rng) -> np.ndarray:
    """Base-3 record index of every row of a (n, d) value matrix with NaN = absent.

    Key 0 is the most significant digit, and each digit is the cell's
    state_digits digit, drawn as one (n, d) draw.
    """
    return Lumping(values).index(ensure_generator(rng))


def simulate_ioh_bit_sums(values: np.ndarray, epsilon: float, rng, method: str = "column") -> IOHSample:
    """Draw the aggregated bit sums of an encoded population.

    Each user would send the one-hot of its record index with every bit
    flipped at budget eps/2.  All n * 3^d perturbed bits are independent,
    so each column sum is exactly Binomial(c_i, p) + Binomial(n - c_i, 1-p)
    with c_i the true count at position i.  The one method, 'column',
    samples that law without drawing any user's vector: the atom sums of
    the partition whose atoms are single positions.
    """
    if method != "column":
        raise DomainError(f"unknown simulation method {method!r}; the one method is 'column'")
    lumping = Lumping(values)  # checks the dimension
    return IOHSample(lumping.bit_sums(epsilon, ensure_generator(rng)), len(lumping.base))


# ---------------------------------------------------------------------------
# Index algebra
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)  # few keys: class maps of three digits, five digit slices
def _class_slice(classes: tuple, start, stop, step) -> slice:
    """The slice of a key's classes whose union is its digits [start:stop:step]."""
    digits = range(3)[start:stop:step]
    members = sorted({classes[digit] for digit in digits})
    if sum(classes.count(c) for c in members) != len(digits):
        raise DomainError(f"digits {list(digits)} split a class of the aggregate's partition {classes}")
    return slice(members[0], members[-1] + 1, members[1] - members[0] if len(members) > 1 else 1)


def _product_view(values: np.ndarray, digit_slices, classes) -> np.ndarray:
    """values at the Cartesian product of per-key digit slices: a strided view of the class tensor."""
    view = values.reshape(tuple(max(m) + 1 for m in classes))
    return view[tuple(_class_slice(m, s.start, s.stop, s.step) for m, s in zip(classes, digit_slices))]


def _product_values(values: np.ndarray, digit_slices) -> np.ndarray:
    """Full-vector values at the Cartesian product of per-key digit slices, in ascending index order.

    A contiguous copy of _product_view: the positions that
    frequency_index_set and mean_index_sets return.  _product_sum sums the
    view itself, without the copy, in numpy's order for the view.
    """
    return np.ascontiguousarray(_product_view(values, digit_slices, _class_maps(None, len(digit_slices)))).ravel()


def _digit_slices(alpha, beta, target=None, digit=None) -> list:
    """Per-key slices of the digits matching beta on alpha, the target key pinned to digit."""
    slices = [(slice(0, 3, 2) if b else slice(1, 2)) if a else slice(0, 3) for a, b in zip(alpha, beta)]
    if target is not None:
        slices[target] = slice(digit, digit + 1)
    return slices


def query_classes(queries, d: int) -> tuple:
    """Per key, the classes of the coarsest digit partition whose unions are the queries' digit sets.

    A target reads {0}, {2} and {0,2}; a key named only in conditions {0,2}
    or {1}; any other key {0,1,2} alone.
    """
    classes = [(0, 0, 0)] * d
    for k, cond in queries:
        cond.augmented(k)  # checks the target
        # The three maps order as their partitions refine: (0, 0, 0) < (0, 1, 0) < (0, 1, 2).
        classes = [max(m, (0, 1, 0)) if a else m for m, a in zip(classes, cond.alpha)]
        classes[k] = (0, 1, 2)
    return tuple(classes)


def _product_sum(agg: AggregateVector, cond: Condition, target=None, digit=None) -> float:
    if cond.d != agg.d:
        raise DomainError(f"condition length {cond.d} does not match aggregate dimension {agg.d}")
    return float(_product_view(agg.values, _digit_slices(cond.alpha, cond.beta, target, digit), agg.classes).sum())


def frequency_index_set(gamma) -> np.ndarray:
    """Positions matching an exact existence pattern: digit {0,2} where present, {1} where absent."""
    gamma = _check_bits(gamma, len(gamma), "gamma")
    positions = np.arange(3 ** len(gamma), dtype=np.int64)
    return _product_values(positions, _digit_slices((1,) * len(gamma), gamma))


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
    positions = np.arange(3 ** len(gamma), dtype=np.int64)
    plus, minus = (_digit_slices((1,) * len(gamma), gamma, k, digit) for digit in (2, 0))
    return _product_values(positions, plus), _product_values(positions, minus)


def frequency_count(agg: AggregateVector, alpha, beta) -> float:
    """Calibrated number of users whose existence pattern restricted to alpha equals beta.

    Equals the sum of frequency_index_set sums over all full patterns gamma
    with gamma & alpha == beta; computed directly as one Cartesian-product
    sum since those index sets partition it.
    """
    return _product_sum(agg, Condition(tuple(alpha), tuple(beta)))


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
    denominator = _product_sum(agg, cond)  # frequency_count of a condition already checked
    if _degenerate(denominator):
        return math.nan
    numerator = _product_sum(agg, augmented)
    return float(np.clip(numerator / denominator, 0.0, 1.0))


def conditional_mean(agg: AggregateVector, k: int, cond: Condition) -> float:
    """Estimated mean value of key k among matching users holding it; NaN if degenerate."""
    augmented = cond.augmented(k)
    positive, negative = _product_sum(agg, augmented, k, 2), _product_sum(agg, augmented, k, 0)
    holders = positive + negative  # the target key's {0, 2} digits, summed once
    if _degenerate(holders):
        return math.nan
    return float(np.clip((positive - negative) / holders, -1.0, 1.0))


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def save_aggregate(agg: AggregateVector, path, seed=None):
    """Write a full 3^d aggregate as a flat value-per-line file with a JSON header, atomically."""
    if agg.classes != _class_maps(None, agg.d):
        raise DomainError(f"only a full 3^d aggregate can be saved, not one of atoms {agg.classes}")
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
