"""Synthetic dataset generators, ratings-file ingestion, and exact oracles.

Datasets are held densely as an (n, d) float matrix with NaN marking an
absent key; that form feeds the vectorized encoders directly and keeps
the exact ground-truth statistics one nan-aware reduction away.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import itertools
import json
import math
import mmap
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .core import CapacityError, DomainError, RandomSource, atomic_writer, row_blocks, seek, usable_cpus
from .conditional import Condition

FREQUENCY_REGIMES = {"extreme_low": 0.05, "low": 0.2, "middle": 0.6, "high": 0.8}
MEAN_REGIMES = {"low": -0.8, "middle": 0.0, "high": 0.8}


@dataclass(frozen=True)
class Dataset:
    """n user records over d keys; values[i, k] is NaN when user i lacks key k.

    A dataset is immutable: values is a read-only, C-ordered float64 view
    (a C-ordered float64 input is not copied, any other layout is copied
    once), and true_stats computes its ground truth once and keeps it.
    Writing to an array after handing it in leaves that truth stale.
    """

    values: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64, order="C").view()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        if values.ndim != 2:
            raise DomainError(f"dataset values must be a 2-d matrix, got shape {values.shape}")
        # fmin/fmax skip NaN and reduce without an n x d temporary.
        if values.size and (np.fmin.reduce(values, axis=None) < -1.0
                            or np.fmax.reduce(values, axis=None) > 1.0):
            raise DomainError("dataset values must lie in [-1, 1]")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]

    def __reduce__(self):
        # A copy or an unpickled dataset is rebuilt through the constructor, so its
        # values are read-only again and it computes its own truth.
        return Dataset, (self.values, self.provenance)

    @functools.cached_property
    def _truth(self) -> GroundTruth:
        # cached_property writes the instance dict, which a frozen dataclass allows.
        return _ground_truth(self.values)


@dataclass(frozen=True)
class GroundTruth:
    """Exact per-key frequency and mean; mean is NaN where no user holds the key."""

    frequency: np.ndarray
    mean: np.ndarray


_TWO_BITS, _NAN_BITS = np.array([2.0, np.nan]).view(np.uint64)


@contextlib.contextmanager
def _fits_in_memory(what: str):
    """CapacityError where numpy or mmap refuses to allocate what."""
    try:
        yield
    # numpy raises ValueError past its largest array, mmap OSError or, past its largest size, OverflowError
    except (MemoryError, ValueError, OSError, OverflowError) as exc:
        raise CapacityError(f"{what} does not fit in memory") from exc


def _mapped_matrix(n, d):
    """An uninitialized (n, d) float64 matrix in an anonymous mapping of its own.

    Once a free has raised glibc's dynamic mmap threshold, malloc serves
    n x d arrays from its heap, where the holes they leave decide the peak
    memory of later work (records-io read 114-115 MB against 109-110 MB
    when generation stopped allocating a presence matrix first).  A mapping
    of its own stays out of that heap and gives its pages back when freed.
    Huge pages are advised, as numpy does for its large arrays: without
    them first touch and every pass over the matrix are slower.
    """
    buffer = mmap.mmap(-1, n * d * 8, access=mmap.ACCESS_COPY)
    with contextlib.suppress(AttributeError, OSError):  # no huge pages here
        buffer.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(buffer, count=n * d).reshape(n, d)


def _materialize(freq_targets, mean_targets, n, rng, value_spread):
    """Draw the user/key presence and jittered values around the targets.

    Values are drawn uniformly on [m - w, m + w] with w capped at 1 - |m|,
    which keeps them inside [-1, 1] and leaves the expected value exactly
    at the target (a clipped bell around m would bias extreme targets).

    The bytes and rng's final state are those of one presence draw
    rng.random((n, d)) < freq_targets followed by one value draw
    rng.uniform(-1, 1, (n, d)), whatever the number of CPUs: the rows are
    cut into one contiguous range per usable CPU (at most one per row
    block), and each range seeks both streams to its first row and fills
    its rows of the result block by block, in cache.
    """
    if not value_spread >= 0.0:
        raise DomainError(f"value spread must be a non-negative number, got {value_spread!r}")
    freq_targets = np.asarray(freq_targets, dtype=np.float64)
    mean_targets = np.asarray(mean_targets, dtype=np.float64)
    d = len(freq_targets)
    half_width = np.minimum(value_spread, 1.0 - np.abs(mean_targets))
    with _fits_in_memory(f"n x d = {n} x {d}"):
        values = _mapped_matrix(n, d)

    def fill(lo, hi):
        presence, uniform = seek(rng, lo * d), seek(rng, (n + lo) * d)
        part = values[lo:hi]
        blocks = row_blocks(hi - lo, d)
        scale = np.empty(part[blocks[0]].shape, dtype=np.uint64)
        for rows in blocks:
            block = part[rows]
            bits = scale[:len(block)]
            presence.random(out=block)
            # The bits of 2.0 where the key is present and of NaN where it is absent.
            np.greater_equal(block, freq_targets, out=bits)
            np.negative(bits, out=bits)
            bits &= _TWO_BITS ^ _NAN_BITS
            bits ^= _TWO_BITS
            # 2u - 1 is the -1 + 2u that uniform(-1, 1) computes, bit for bit, and an
            # absent key's NaN passes through the arithmetic unchanged: one multiply
            # both doubles and masks, where a masked copy cost as much as the draw.
            uniform.random(out=block)
            block *= bits.view(np.float64)
            block -= 1.0
            block *= half_width
            block += mean_targets

    ranges = min(usable_cpus(), len(row_blocks(n, d)))
    bounds = [n * i // ranges for i in range(ranges + 1)]
    if ranges > 1:
        with ThreadPoolExecutor(max_workers=ranges) as pool:
            list(pool.map(fill, bounds[:-1], bounds[1:]))
    else:
        fill(0, n)
    rng.bit_generator.state = seek(rng, 2 * n * d).bit_generator.state
    return values


def _check_sizes(d, n):
    if not isinstance(d, (int, np.integer)) or d < 1:
        raise DomainError(f"key count d must be a positive integer, got {d!r}")
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise DomainError(f"user count n must be a positive integer, got {n!r}")


def gen_synthetic(dist: str, d: int, n: int, seed: int, value_spread: float = 0.1) -> Dataset:
    """Generate a dataset whose per-key frequency/mean targets follow the named law.

    dist='gaussian': f_k ~ Normal(0.5, 0.15) clipped to [0.05, 0.95] and
    m_k ~ Normal(0, 0.4) clipped to [-0.9, 0.9].  dist='uniform':
    f_k ~ Uniform(0.05, 0.95) and m_k ~ Uniform(-0.9, 0.9).
    """
    _check_sizes(d, n)
    if dist not in ("gaussian", "uniform"):
        raise DomainError(f"unknown distribution {dist!r}; expected 'gaussian' or 'uniform'")
    rng = RandomSource(seed).generator()
    with _fits_in_memory(f"d = {d} keys"):
        if dist == "gaussian":
            freq_targets = np.clip(rng.normal(0.5, 0.15, size=d), 0.05, 0.95)
            mean_targets = np.clip(rng.normal(0.0, 0.4, size=d), -0.9, 0.9)
        else:
            freq_targets = rng.uniform(0.05, 0.95, size=d)
            mean_targets = rng.uniform(-0.9, 0.9, size=d)
    values = _materialize(freq_targets, mean_targets, n, rng, value_spread)
    provenance = {"generator": "gen_synthetic", "dist": dist, "d": int(d), "n": int(n),
                  "seed": int(seed), "value_spread": value_spread}
    return Dataset(values, provenance)


def gen_regime(frequency_regime: str, mean_regime: str, d: int, n: int, seed: int,
               value_spread: float = 0.1) -> Dataset:
    """Generate a dataset with every key pinned to the named frequency/mean regime."""
    _check_sizes(d, n)
    if frequency_regime not in FREQUENCY_REGIMES:
        raise DomainError(f"unknown frequency regime {frequency_regime!r}; choose from {sorted(FREQUENCY_REGIMES)}")
    if mean_regime not in MEAN_REGIMES:
        raise DomainError(f"unknown mean regime {mean_regime!r}; choose from {sorted(MEAN_REGIMES)}")
    rng = RandomSource(seed).generator()
    with _fits_in_memory(f"d = {d} keys"):
        freq_targets = np.full(d, FREQUENCY_REGIMES[frequency_regime])
        mean_targets = np.full(d, MEAN_REGIMES[mean_regime])
    values = _materialize(freq_targets, mean_targets, n, rng, value_spread)
    provenance = {"generator": "gen_regime", "frequency_regime": frequency_regime,
                  "mean_regime": mean_regime, "d": int(d), "n": int(n), "seed": int(seed),
                  "value_spread": value_spread}
    return Dataset(values, provenance)


# ---------------------------------------------------------------------------
# Ratings ingestion
# ---------------------------------------------------------------------------


def _scan_rows(path, rating_scale, max_rows, max_users):
    """Yield (user_id, item_id, value) from a user,item,rating[,...] file.

    UTF-8 text, comma- or tab-delimited with an optional header row, both
    auto-detected.  Ratings are affinely mapped from [lo, hi] onto [-1, 1].
    The same admission rules (row cap, first-seen user cap) are applied on
    every scan so two passes see identical data.
    """
    lo, hi = rating_scale
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise DomainError(f"rating scale must satisfy min < max, got {rating_scale!r}")
    admitted_users = {}
    rows_seen = 0
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            sample = handle.readline()
            delimiter = "\t" if "\t" in sample else ","
            handle.seek(0)
            reader = csv.reader(handle, delimiter=delimiter)
            for lineno, row in enumerate(reader, start=1):
                if not row or all(not cell.strip() for cell in row):
                    continue
                if len(row) < 3:
                    raise DomainError(f"{path}: line {lineno}: expected at least 3 columns, got {len(row)}")
                user, item, rating_text = row[0].strip(), row[1].strip(), row[2].strip()
                try:
                    rating = float(rating_text)
                except ValueError:
                    if lineno == 1:
                        continue  # header row
                    raise DomainError(f"{path}: line {lineno}: rating {rating_text!r} is not a number")
                if not lo <= rating <= hi:
                    raise DomainError(f"{path}: line {lineno}: rating {rating} outside scale [{lo}, {hi}]")
                if max_rows is not None and rows_seen >= max_rows:
                    return
                rows_seen += 1
                if user not in admitted_users:
                    if max_users is not None and len(admitted_users) >= max_users:
                        continue
                    admitted_users[user] = True
                yield user, item, 2.0 * (rating - lo) / (hi - lo) - 1.0
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DomainError(f"{path}: not a readable ratings file: {exc}") from exc


def _item_sort_key(items):
    try:
        return {item: (int(item),) for item in items}
    except ValueError:
        return {item: (item,) for item in items}


def ingest_ratings(path, top_k: int, rating_scale=(1.0, 5.0), max_rows=None, max_users=None) -> Dataset:
    """Build a dataset from a ratings file over the top_k most-rated items.

    The key domain is the top_k items by rating count (ties broken by
    ascending item id); users keep their ratings on those items (last
    occurrence wins on duplicates) and users left with none are dropped.
    If fewer than top_k distinct items exist, all of them are used.
    """
    if not isinstance(top_k, (int, np.integer)) or top_k < 1:
        raise DomainError(f"top_k must be a positive integer, got {top_k!r}")
    counts = {}
    for _, item, _ in _scan_rows(path, rating_scale, max_rows, max_users):
        counts[item] = counts.get(item, 0) + 1
    if not counts:
        raise DomainError(f"{path}: no usable rating rows")
    order_key = _item_sort_key(counts)
    ranked = sorted(counts, key=lambda item: (-counts[item], order_key[item]))
    chosen = ranked[: min(int(top_k), len(ranked))]
    key_of = {item: index for index, item in enumerate(chosen)}

    user_rows = {}  # in order of each user's first kept rating
    for user, item, value in _scan_rows(path, rating_scale, max_rows, max_users):
        key = key_of.get(item)
        if key is not None:
            user_rows.setdefault(user, {})[key] = value

    values = np.full((len(user_rows), len(chosen)), np.nan)
    for i, ratings in enumerate(user_rows.values()):
        for key, value in ratings.items():
            values[i, key] = value
    provenance = {"generator": "ingest_ratings", "path": str(path), "top_k": int(top_k),
                  "rating_scale": [float(rating_scale[0]), float(rating_scale[1])],
                  "keys": [str(item) for item in chosen],
                  "max_rows": max_rows, "max_users": max_users}
    return Dataset(values, provenance)


# ---------------------------------------------------------------------------
# Exact oracles
# ---------------------------------------------------------------------------


def _ground_truth(values) -> GroundTruth:
    """Exact per-key frequency and mean by direct counting, in one pass over row blocks.

    Each block's absent entries are zeroed through their bits (NaN != NaN
    gives an all-zero mask) and the block is reduced under the running
    sum, so every key's holders are added in row order, as a masked
    reduction of a C-ordered matrix adds them, without an n x d mask.
    """
    n, d = values.shape
    blocks = row_blocks(n, d)
    holders = np.zeros(d, dtype=np.int64)
    # [running sum; block], reduced along axis 0.  At d = 1 a spare zero
    # column keeps numpy from summing the lone column pairwise.
    stack = np.zeros((1 + max((len(range(n)[rows]) for rows in blocks), default=0), max(d, 2)))
    running = np.zeros(stack.shape[1])
    for rows in blocks:
        block = values[rows]
        present = np.equal(block, block)
        holders += np.count_nonzero(present, axis=0)
        mask = present.view(np.uint8).astype(np.uint64)
        np.negative(mask, out=mask)  # all ones where present, zero where absent
        np.bitwise_and(block.view(np.uint64), mask, out=stack[1:1 + len(block), :d].view(np.uint64))
        stack[0] = running
        np.add.reduce(stack[:1 + len(block)], axis=0, out=running)
    sums = running[:d]
    frequency = holders / n
    mean = np.where(holders > 0, sums / np.where(holders > 0, holders, 1), np.nan)
    for array in (frequency, mean):
        array.flags.writeable = False
    return GroundTruth(frequency, mean)


def true_stats(ds: Dataset) -> GroundTruth:
    """Exact per-key frequency and mean, computed on first use and kept on the dataset.

    Its arrays are read-only.  Threads racing on a new dataset may each
    compute it, and every one gets the same bytes.
    """
    return ds._truth


def true_conditionals(ds: Dataset, queries) -> list:
    """Exact conditional (frequency, mean) of every (k, cond) query by brute-force filtering.

    Each query counts key-k holders among the users whose key-existence
    pattern matches its condition and averages their raw values; NaN marks
    an empty conditioned population / no holders.  One pass over row blocks
    reads every named key's presence, and each target's values are read once.
    """
    queries = list(queries)
    for k, cond in queries:
        if cond.d != ds.d:
            raise DomainError(f"condition length {cond.d} does not match dataset dimension {ds.d}")
        if not 0 <= k < ds.d:
            raise DomainError(f"target key {k} outside domain of size {ds.d}")
        if cond.alpha[k]:
            raise DomainError(f"target key {k} must not be constrained by the condition")
    targets = {k: np.ascontiguousarray(ds.values[:, k]) for k in sorted({k for k, _ in queries})}
    keys = sorted(set(targets).union(*(np.flatnonzero(cond.alpha) for _, cond in queries)))
    columns = np.empty((len(keys), ds.n), dtype=bool)  # one contiguous presence row per named key
    for rows in row_blocks(ds.n, ds.d):
        columns[:, rows] = ~np.isnan(ds.values[rows, keys]).T
    present = dict(zip(keys, columns))
    answers = []
    for k, cond in queries:
        matched = np.ones(ds.n, dtype=bool)
        for key in np.flatnonzero(cond.alpha):
            matched &= present[key] == bool(cond.beta[key])
        holders = matched & present[k]
        n_matched, n_holders = np.count_nonzero(matched), np.count_nonzero(holders)
        # compress gathers the holders' values in row order, as column[holders] does
        mean = float(np.compress(holders, targets[k]).mean()) if n_holders else math.nan
        answers.append((n_holders / n_matched, mean) if n_matched else (math.nan, math.nan))
    return answers


def true_conditional(ds: Dataset, k: int, cond: Condition):
    """Exact conditional (frequency, mean) of key k: the true_conditionals batch of one query."""
    return true_conditionals(ds, [(k, cond)])[0]


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

_DATASET_MAGIC = "# kvldp-dataset "
_ROW_FORMAT = "%d,%d,%.17g\n"
_ROW_DTYPE = np.dtype("int64,int64,float64")
# Values formatted per step by save_dataset (a row_blocks element budget, so
# 65536 // d rows) and lines parsed per step by load_dataset; bounds the
# transient memory of both.
_CHUNK_ROWS = 65536


def _format_rows(users, keys, values) -> str:
    fields = [None] * (3 * len(users))
    fields[0::3] = users.tolist()
    fields[1::3] = keys.tolist()
    fields[2::3] = values.tolist()
    return (_ROW_FORMAT * len(users)) % tuple(fields)


def save_dataset(ds: Dataset, path):
    """Write 'user_index,key_index,value' rows under a provenance header, atomically."""
    header = dict(ds.provenance)
    header.update({"n": ds.n, "d": ds.d})
    with atomic_writer(path) as handle:
        handle.write(_DATASET_MAGIC + json.dumps(header, sort_keys=True) + "\n")
        for rows in row_blocks(ds.n, ds.d, _CHUNK_ROWS):
            block = ds.values[rows]
            users, keys = np.nonzero(~np.isnan(block))
            handle.write(_format_rows(users + rows.start, keys, block[users, keys]))


def _read_header(path, text) -> dict:
    try:
        header = json.loads(text)
    except ValueError as exc:
        raise DomainError(f"{path}: line 1: malformed header") from exc
    if not isinstance(header, dict):
        raise DomainError(f"{path}: line 1: header is not a JSON object")
    for key in ("n", "d"):
        if key not in header:
            raise DomainError(f"{path}: line 1: header lacks {key!r}")
        value = header[key]
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise DomainError(f"{path}: line 1: header {key!r} must be a non-negative integer, got {value!r}")
        if value == 0:
            raise DomainError(f"{path}: line 1: header {key!r} is 0, but a dataset needs a user and a key")
    return header


def _parse_rows(lines):
    return np.loadtxt(lines, delimiter=",", dtype=_ROW_DTYPE, comments=None, ndmin=1)


def _parses(lines) -> bool:
    try:
        _parse_rows(lines)
    except (ValueError, OverflowError):
        return False
    return True


def _first_malformed(lines) -> int:
    """Offset of the first line np.loadtxt rejects, in non-blank lines that fail together."""
    lo, hi = 0, len(lines)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _parses(lines[lo:mid]):
            lo = mid
        else:
            hi = mid
    return lo


def _first_repeat(flat, taken) -> int:
    """Offset of the first row whose pair an earlier chunk or row already set."""
    seen = set()
    for offset, (code, earlier) in enumerate(zip(flat.tolist(), taken.tolist())):
        if earlier or code in seen:
            return offset
        seen.add(code)
    return -1


def _load_chunk(path, lines, lineno, values):
    """Parse one chunk of rows into values; lineno is the file line of lines[0]."""
    if not any(line.strip() for line in lines):
        return
    offsets = np.arange(len(lines))
    try:
        rows = _parse_rows(lines)
    except (ValueError, OverflowError):
        rows = None
    if rows is None or len(rows) != len(lines):
        # Blank lines carry no row; keep each row's line for the messages.
        offsets = np.flatnonzero([bool(line.strip()) for line in lines])
    if rows is None:
        lines = [lines[i] for i in offsets]
        try:
            rows = _parse_rows(lines)
        except (ValueError, OverflowError) as exc:
            i = _first_malformed(lines)
            raise DomainError(f"{path}: line {lineno + offsets[i]}: malformed row {lines[i].strip()!r}") from exc
    n, d = values.shape
    users, keys, vals = rows["f0"], rows["f1"], rows["f2"]
    bad_user = (users < 0) | (users >= n)
    bad_key = (keys < 0) | (keys >= d)
    bad = bad_user | bad_key | ~(np.abs(vals) <= 1.0)
    if bad.any():
        i = int(bad.argmax())
        if bad_user[i]:
            reason = f"user index {users[i]} outside [0, {n})"
        elif bad_key[i]:
            reason = f"key index {keys[i]} outside [0, {d})"
        elif np.isnan(vals[i]):
            reason = "value is nan"
        else:
            reason = f"value {vals[i]!r} outside [-1, 1]"
        raise DomainError(f"{path}: line {lineno + offsets[i]}: {reason}")
    flat = users * d + keys
    cells = values.reshape(-1)
    taken = ~np.isnan(cells[flat])
    ordered = np.sort(flat)
    if taken.any() or (ordered[1:] == ordered[:-1]).any():
        i = _first_repeat(flat, taken)
        raise DomainError(f"{path}: line {lineno + offsets[i]}: duplicate pair (user {users[i]}, key {keys[i]})")
    cells[flat] = vals


def load_dataset(path) -> Dataset:
    """Inverse of save_dataset.

    Rows are parsed in bounded chunks.  A malformed row, an index outside
    the header's n x d, a value that is nan or outside [-1, 1], a repeated
    (user, key) pair and a header lacking n or d all raise DomainError
    naming the file line; a header n x d too large to allocate raises
    CapacityError.
    """
    with open(path) as handle:
        try:
            first = handle.readline()
            if not first.startswith(_DATASET_MAGIC):
                raise DomainError(f"{path}: not a kvldp dataset file")
            header = _read_header(path, first[len(_DATASET_MAGIC):])
            with _fits_in_memory(f"{path}: line 1: header n x d = {header['n']} x {header['d']}"):
                values = _mapped_matrix(header["n"], header["d"])
                values.fill(np.nan)
            lineno = 2
            while lines := list(itertools.islice(handle, _CHUNK_ROWS)):
                _load_chunk(path, lines, lineno, values)
                lineno += len(lines)
        except UnicodeDecodeError as exc:
            raise DomainError(f"{path}: not a text file") from exc
    provenance = {key: header[key] for key in header if key not in ("n", "d")}
    return Dataset(values, provenance)
