"""Randomness-driven primitives for locally private key-value collection.

Everything here is a pure function of its inputs plus an explicit random
source, so callers can parallelize freely by handing each worker its own
stream.  The random source is a counter-based generator (Philox) keyed by
(seed, stream_id): the same pair reproduces the same stream on every
platform, and distinct stream ids give statistically independent streams
regardless of iteration order or thread scheduling.

The one side effect here is ``atomic_writer``, through which the package
writes every file it produces.
"""

from __future__ import annotations

import contextlib
import enum
import math
import os
import secrets
from dataclasses import dataclass

import numpy as np

_UINT64_MASK = (1 << 64) - 1


class DomainError(ValueError):
    """An input lies outside the documented domain of an operation."""


class CapacityError(DomainError):
    """A requested size exceeds a hard capacity limit."""


class IllConditionedError(DomainError):
    """The privacy budget is so small that calibration factors underflow."""


def _splitmix64(x: int) -> int:
    # SplitMix64 finalizer; used only to derive child stream ids.
    x = (x + 0x9E3779B97F4A7C15) & _UINT64_MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _UINT64_MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _UINT64_MASK
    return x ^ (x >> 31)


@dataclass(frozen=True)
class RandomSource:
    """Reproducible, seekable randomness keyed by (seed, stream_id).

    ``generator()`` returns a fresh numpy Generator over a Philox counter
    stream whose 128-bit key is the (seed, stream_id) pair, so repeated
    calls restart the identical stream.  ``substream`` derives independent
    child sources by hashing extra indices into the stream id; use one
    child per user / per experiment cell.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or not 0 <= value <= _UINT64_MASK:
                raise DomainError(f"{name} must be an unsigned 64-bit integer, got {value!r}")

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def substream(self, *indices: int) -> "RandomSource":
        sid = self.stream_id
        for index in indices:
            sid = _splitmix64(sid ^ _splitmix64(int(index) & _UINT64_MASK))
        return RandomSource(self.seed, sid)


def row_blocks(n: int, row_size: int, block_elements: int = 65536) -> list:
    """Slices cutting n rows of row_size elements into consecutive blocks.

    Each block holds at most block_elements elements (one row at least).
    Drawing g.random(block_shape) block by block consumes the generator
    exactly as one (n, row_size) draw does, so a blocked kernel keeps
    every variate while its temporaries stay block-sized.
    """
    step = max(1, block_elements // max(1, row_size))
    return [slice(first, first + step) for first in range(0, n, step)]


def ensure_generator(rng) -> np.random.Generator:
    """Accept a RandomSource, a numpy Generator, or a bare integer seed."""
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, RandomSource):
        return rng.generator()
    if isinstance(rng, (int, np.integer)):
        return RandomSource(int(rng)).generator()
    raise DomainError(f"cannot build a generator from {type(rng).__name__}")


@dataclass(frozen=True)
class PrivacyBudget:
    """Additive privacy budget split between key and value perturbation.

    The total budget is epsilon_key + epsilon_value by sequential
    composition; both parts must be strictly positive and finite.
    """

    epsilon_key: float
    epsilon_value: float

    def __post_init__(self):
        for name in ("epsilon_key", "epsilon_value"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise DomainError(f"{name} must be a positive finite real, got {value!r}")

    @property
    def epsilon_total(self) -> float:
        return self.epsilon_key + self.epsilon_value

    @classmethod
    def split(cls, epsilon_total: float, key_share: float = 0.5) -> "PrivacyBudget":
        """Split a total budget; the default is the even split eps/2 + eps/2."""
        if not (math.isfinite(epsilon_total) and epsilon_total > 0):
            raise DomainError(f"epsilon_total must be positive and finite, got {epsilon_total!r}")
        if not 0 < key_share < 1:
            raise DomainError(f"key_share must lie in (0, 1), got {key_share!r}")
        return cls(epsilon_total * key_share, epsilon_total * (1.0 - key_share))


class DiscretizedState(enum.IntEnum):
    """Ternary state of one key-value pair after value discretization.

    The digit is key_bit * value_sign + 1, so NEG=<1,-1> is 0, ABSENT=<0,0>
    is 1 and POS=<1,1> is 2.  This digit doubles as the base-3 digit used by
    the full-record index encoding.
    """

    NEG = 0
    ABSENT = 1
    POS = 2


def check_epsilon(epsilon: float) -> float:
    """epsilon as a float; DomainError unless it is a positive finite real."""
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise DomainError(f"epsilon must be a positive finite real, got {epsilon!r}")
    return float(epsilon)


def flip_keep_probability(epsilon: float) -> float:
    """Randomized-response keep probability p = e^eps / (e^eps + 1).

    Computed as 1 / (1 + e^-eps) so large budgets cannot overflow.
    """
    return 1.0 / (1.0 + math.exp(-check_epsilon(epsilon)))


def state_digits(values: np.ndarray, rng) -> np.ndarray:
    """The int8 DiscretizedState digit of every value, NaN marking an absent key.

    One uniform u per value, drawn whether the key is present or not, in
    row-major order.  A present v in [-1, 1] has sign +1 when u < (1 + v) / 2,
    so Pr[+1] = (1 + v) / 2 and the sign's expectation is v; an absent
    value's NaN threshold compares false and its digit is ABSENT.
    """
    values = np.asarray(values, dtype=np.float64)
    if np.fmin.reduce(values, axis=None, initial=0.0) < -1.0 or np.fmax.reduce(values, axis=None, initial=0.0) > 1.0:
        raise DomainError("values must be finite reals in [-1, 1]")
    u = ensure_generator(rng).random(values.shape)
    signs = (u < (1.0 + values) / 2.0).view(np.int8) * 2 - 1
    return (~np.isnan(values)).view(np.int8) * signs + 1


@contextlib.contextmanager
def atomic_writer(path):
    """Open a text file that replaces ``path`` only once it is complete.

    Writes go to a hidden temporary file in the target's directory, which
    os.replace renames over the target on success and which is removed on
    failure: a reader never sees a half-written file, and a write that
    fails part-way leaves the earlier file intact.
    """
    path = os.fspath(path)
    directory, name = os.path.split(path)
    temp = os.path.join(directory, f".{name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
    try:
        with open(temp, "x", newline="\n") as handle:
            yield handle
        os.replace(temp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(temp)
        raise
