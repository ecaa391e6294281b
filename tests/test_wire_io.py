"""Byte-equality of the column-wise file and wire paths against per-line references.

The reference functions below are the straightforward per-pair, per-line
and per-bit implementations the vectorized code replaced; the tests pin
the new code to their exact bytes and Report lists.
"""

import dataclasses
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvldp import cli
from kvldp.conditional import AggregateVector, Condition, load_aggregate, save_aggregate
from kvldp.core import CapacityError, DomainError, PrivacyBudget, RandomSource, atomic_writer
from kvldp import datagen
from kvldp.datagen import Dataset, gen_regime, gen_synthetic, load_dataset, save_dataset
from kvldp.harness import emit, parse_table, population_report_lines, write_trace
from kvldp.mechanisms import (
    PAYLOADS,
    Mechanism,
    Report,
    f2m_encode_population,
    kvoh_encode_population,
    kvue_encode_population,
    lpp_encode_population,
    pack_reports,
    packed_size_bits,
    tally_reports,
    unpack_reports,
)

DIMS = (1, 2, 3, 37, 64, 65)
TRACE_MECHANISMS = ("privkv", "privkv-improved", "f2m", "kvue", "kvoh")


# ---------------------------------------------------------------------------
# Per-line / per-bit references
# ---------------------------------------------------------------------------


def _ref_save_dataset(ds, path):
    header = dict(ds.provenance)
    header.update({"n": ds.n, "d": ds.d})
    with open(path, "w", newline="\n") as handle:
        handle.write("# kvldp-dataset " + json.dumps(header, sort_keys=True) + "\n")
        rows, keys = np.nonzero(~np.isnan(ds.values))
        for user, key in zip(rows, keys):
            handle.write("%d,%d,%.17g\n" % (user, key, ds.values[user, key]))


def _ref_report_lines(mechanism, encoded):
    name = "privkv" if mechanism == "privkv-improved" else mechanism
    if name in ("privkv", "kvue"):
        for j, state in zip(encoded.key_index, encoded.states):
            yield f"{name},{j},{state}"
    elif name == "f2m":
        for j, bit, sign in zip(encoded.key_index, encoded.key_bits, encoded.signs):
            yield f"{name},{j},{bit}{1 if sign > 0 else 0}"
    else:
        for j, bits in zip(encoded.key_index, encoded.bits):
            yield f"{name},{j},{bits[0]}{bits[1]}{bits[2]}"


def _ref_from_line(line):
    """Report.from_line before the memo: one new Report per call."""
    try:
        name, index, text = line.strip().split(",")
        mechanism = Mechanism(name)
        key_index = int(index)
    except ValueError as exc:
        raise DomainError(f"malformed report line {line!r}") from exc
    table = PAYLOADS[mechanism]
    code = table.code_of_text.get(text)
    if code is None:
        raise DomainError(f"malformed {name} payload in {line!r}")
    return Report(mechanism, key_index, table.values[code])


def _ref_index_bits(d):
    return (d - 1).bit_length() if d > 1 else 0


def _ref_payload_bits(report):
    if report.mechanism in (Mechanism.PRIVKV, Mechanism.KVUE):
        return [(report.payload >> 1) & 1, report.payload & 1]
    if report.mechanism is Mechanism.F2M:
        return [report.payload[0], 1 if report.payload[1] > 0 else 0]
    return list(report.payload)


def _ref_pack(reports, d):
    if not reports:
        return b""
    bits = []
    for report in reports:
        for position in range(_ref_index_bits(d) - 1, -1, -1):
            bits.append((report.key_index >> position) & 1)
        bits.extend(_ref_payload_bits(report))
    return np.packbits(np.array(bits, dtype=np.uint8)).tobytes()


def _ref_unpack(data, mechanism, count, d):
    stride = packed_size_bits(mechanism, d)
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    index_bits = _ref_index_bits(d)
    reports = []
    for r in range(count):
        chunk = bits[r * stride:(r + 1) * stride]
        key_index = 0
        for b in chunk[:index_bits]:
            key_index = (key_index << 1) | int(b)
        payload_bits = [int(b) for b in chunk[index_bits:]]
        if mechanism in (Mechanism.PRIVKV, Mechanism.KVUE):
            payload = (payload_bits[0] << 1) | payload_bits[1]
        elif mechanism is Mechanism.F2M:
            payload = (payload_bits[0], 1 if payload_bits[1] == 1 else -1)
        else:
            payload = tuple(payload_bits)
        reports.append(Report(mechanism, key_index, payload))
    return reports


def _encode(mechanism, values, seed):
    g = RandomSource(seed).generator()
    if mechanism in ("privkv", "privkv-improved"):
        return lpp_encode_population(values, PrivacyBudget.split(1.0), g)
    if mechanism == "f2m":
        return f2m_encode_population(values, PrivacyBudget.split(1.0), 1.0, g)
    if mechanism == "kvue":
        return kvue_encode_population(values, 1.0, g)
    return kvoh_encode_population(values, 1.0, g)


def _random_reports(mechanism, n, d, seed):
    g = RandomSource(seed).generator()
    values = PAYLOADS[mechanism].values
    return [Report(mechanism, int(k), values[int(c)])
            for k, c in zip(g.integers(0, d, n), g.integers(0, len(values), n))]


# ---------------------------------------------------------------------------
# Byte equality
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", DIMS)
def test_save_dataset_matches_reference(tmp_path, d):
    ds = gen_synthetic("uniform", d, 300, seed=d)
    save_dataset(ds, tmp_path / "new.csv")
    _ref_save_dataset(ds, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    loaded = load_dataset(tmp_path / "new.csv")
    assert np.array_equal(loaded.values, ds.values, equal_nan=True)


def test_save_and_load_across_chunk_boundaries(tmp_path, monkeypatch):
    monkeypatch.setattr(datagen, "_CHUNK_ROWS", 7)
    ds = gen_regime("middle", "high", 5, 61, seed=8)
    save_dataset(ds, tmp_path / "new.csv")
    _ref_save_dataset(ds, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    loaded = load_dataset(tmp_path / "new.csv")
    assert np.array_equal(loaded.values.view(np.uint64), ds.values.view(np.uint64))


def test_save_dataset_edge_values(tmp_path):
    values = np.array([[-1.0, -0.0, np.nan], [1e-300, 1.0, 0.1 + 0.2], [np.nan, np.nan, np.nan]])
    ds = Dataset(values, {"note": "edge"})
    save_dataset(ds, tmp_path / "new.csv")
    _ref_save_dataset(ds, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    loaded = load_dataset(tmp_path / "new.csv")
    assert np.array_equal(loaded.values.view(np.uint64), values.view(np.uint64))
    assert loaded.provenance == {"note": "edge"}


@pytest.mark.parametrize("d", DIMS)
def test_write_trace_matches_reference(tmp_path, d):
    ds = gen_synthetic("gaussian", d, 400, seed=50 + d)
    for mechanism in TRACE_MECHANISMS:
        path = tmp_path / f"{mechanism}.txt"
        write_trace(path, mechanism, ds, 1.0, RandomSource(d).generator())
        reference = "".join(line + "\n" for line in _ref_report_lines(mechanism, _encode(mechanism, ds.values, d)))
        assert path.read_text() == reference
        assert population_report_lines(mechanism, _encode(mechanism, ds.values, d)) == reference.splitlines()


@pytest.mark.parametrize("d", DIMS)
def test_pack_unpack_match_reference(d):
    for mechanism in (Mechanism.PRIVKV, Mechanism.KVUE, Mechanism.F2M, Mechanism.KVOH):
        for count in (1, 7, 8, 9, 250):
            reports = _random_reports(mechanism, count, d, seed=count * d)
            data = pack_reports(reports, d)
            assert data == _ref_pack(reports, d)
            assert len(data) == -(-count * packed_size_bits(mechanism, d) // 8)
            unpacked = unpack_reports(data, mechanism, count, d)
            assert unpacked == _ref_unpack(data, mechanism, count, d) == reports


def test_tally_reports_matches_per_report_columns():
    for mechanism in (Mechanism.KVUE, Mechanism.F2M, Mechanism.KVOH):
        reports = _random_reports(mechanism, 500, 9, seed=4)
        keys = np.array([r.key_index for r in reports])
        tallied = tally_reports(reports, 9)
        if mechanism is Mechanism.KVUE:
            states = np.array([r.payload for r in reports])
            assert np.array_equal(tallied, np.bincount(keys * 3 + states, minlength=27).reshape(9, 3))
        elif mechanism is Mechanism.F2M:
            ones, totals, pos, neg = tallied
            assert np.array_equal(ones, np.bincount(keys, [r.payload[0] for r in reports], 9))
            assert np.array_equal(pos, np.bincount(keys, [r.payload[1] > 0 for r in reports], 9))
            assert np.array_equal(totals, pos + neg)
        else:
            sums, totals = tallied
            bits = np.array([r.payload for r in reports])
            for position in range(3):
                assert np.array_equal(sums[:, position], np.bincount(keys, bits[:, position], 9))


def test_pack_edge_cases():
    assert pack_reports([], 5) == b""
    assert unpack_reports(b"", Mechanism.KVOH, 0, 5) == []
    assert unpack_reports(b"\xff", Mechanism.KVUE, 0, 5) == []
    # d=1 has no index bits: kvue code 3 is the bit pair 11.
    with pytest.raises(DomainError):
        unpack_reports(bytes([0b11000000]), Mechanism.KVUE, 1, 1)
    with pytest.raises(DomainError):
        unpack_reports(bytes([0b01110000]), Mechanism.PRIVKV, 2, 1)
    assert unpack_reports(bytes([0b10000000]), Mechanism.KVUE, 1, 1) == [Report(Mechanism.KVUE, 0, 2)]
    with pytest.raises(DomainError):
        unpack_reports(b"\x00", Mechanism.KVOH, 2, 5)  # 2 x 6 bits need 2 bytes
    with pytest.raises(DomainError):
        pack_reports([Report(Mechanism.KVUE, 5, 1)], 5)
    with pytest.raises(DomainError):
        pack_reports([Report(Mechanism.KVUE, 0, 1), Report(Mechanism.PRIVKV, 0, 1)], 5)


@pytest.mark.parametrize("payload", [1, (1, 1), (0, 1, 0)], ids=["ternary", "f2m", "kvoh"])
def test_tally_reports_rejects_key_outside_domain(payload):
    mechanism = {1: Mechanism.KVUE, (1, 1): Mechanism.F2M, (0, 1, 0): Mechanism.KVOH}[payload]
    reports = [Report(mechanism, 0, payload), Report(mechanism, 7, payload)]
    with pytest.raises(DomainError, match="key index 7 outside domain of size 5"):
        tally_reports(reports, 5)
    with pytest.raises(DomainError, match="key index 7 outside domain of size 5"):
        pack_reports(reports, 5)


@pytest.mark.parametrize("payload", [3, -1, 0.5, "1", None, (1, 0), [1, -1], {1}, np.array([1, 0, 1])])
def test_report_rejects_illegal_payloads(payload):
    for mechanism in Mechanism:
        with pytest.raises(DomainError):
            Report(mechanism, 0, payload)


def test_report_rejects_illegal_f2m_and_kvoh_shapes():
    for payload in ((1, 0), (2, 1), (1, 1, 1), [1, -1]):
        with pytest.raises(DomainError):
            Report(Mechanism.F2M, 0, payload)
    for payload in ((1, 0), (1, 0, 2), [1, 0, 1], (1, 0, 1, 0)):
        with pytest.raises(DomainError):
            Report(Mechanism.KVOH, 0, payload)
    with pytest.raises(DomainError):
        Report(Mechanism.KVUE, -1, 0)
    with pytest.raises(DomainError):
        Report(Mechanism.KVUE, 1.0, 0)
    with pytest.raises(DomainError):
        Report("kvue", 0, 1)


def test_from_line_covers_every_payload_and_rejects_others():
    for mechanism, table in PAYLOADS.items():
        for text, value in zip(table.texts, table.values):
            report = Report.from_line(f"{mechanism.value},4,{text}\n")
            assert report == Report(mechanism, 4, value)
            assert report.to_line() == f"{mechanism.value},4,{text}"
    for line in ("kvue,1,x", "kvue,1,3", "f2m,1,1", "f2m,1,21", "kvoh,1,1010", "pckv,1,0", "kvue,-1,0", "kvue,1"):
        with pytest.raises(DomainError):
            Report.from_line(line)


@pytest.mark.parametrize("index", ["1_0", "+3", " 3 ", "\u0663", "03", "00", "-0", "3.0", "0x3", "", "1e3"])
def test_from_line_accepts_one_spelling_of_a_key_index(index):
    before = Report.from_line.cache_info().currsize
    with pytest.raises(DomainError):
        Report.from_line(f"kvue,{index},0\n")
    assert Report.from_line.cache_info().currsize == before
    for canonical in ("0", "3", "10", "2" * 40):
        assert Report.from_line(f"kvue,{canonical},0\n").to_line() == f"kvue,{canonical},0"


@pytest.mark.parametrize("key_index", [True, False, np.bool_(True)])
def test_report_rejects_a_bool_key_index(key_index):
    with pytest.raises(DomainError):
        Report(Mechanism.KVUE, key_index, 1)


_JUNK = "0123456789+-_ .,=k\u0663\t"
_WIRE_LINES = st.one_of(
    st.tuples(
        st.sampled_from(["", " ", "\t"]),
        st.sampled_from([m.value for m in Mechanism] + ["pckv", "KVUE", ""]),
        st.one_of(st.integers(0, 2**70).map(str), st.text(_JUNK, max_size=6)),
        st.one_of(st.sampled_from(sorted({text for table in PAYLOADS.values() for text in table.texts})),
                  st.text(_JUNK, max_size=4)),
        st.sampled_from(["", "\n", "\r\n", " ", ",", ",0"]),
    ).map(lambda parts: f"{parts[0]}{parts[1]},{parts[2]},{parts[3]}{parts[4]}"),
    st.text(max_size=24),
)


@settings(max_examples=400, deadline=None)
@given(_WIRE_LINES)
def test_from_line_fuzz_ends_in_a_round_tripping_report_or_a_domain_error(line):
    try:
        report = Report.from_line(line)
    except DomainError:
        return
    assert report.to_line() == line.strip()


_CONDITION_TOKENS = st.one_of(
    st.tuples(st.integers(-1, 14), st.integers(-1, 2)).map(lambda kv: f"k{kv[0]}={kv[1]}"),
    st.text(_JUNK, max_size=5),
)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.lists(_CONDITION_TOKENS, max_size=5).map(",".join), st.text(max_size=16)),
       st.integers(min_value=1, max_value=12))
def test_condition_parse_fuzz_ends_in_a_condition_or_a_domain_error(text, d):
    try:
        condition = Condition.parse(text, d)
    except DomainError:
        return
    assert condition.d == d and sum(condition.alpha) <= text.count("=")


def test_memoized_from_line_equals_the_uncached_parse():
    for mechanism, table in PAYLOADS.items():
        for text in table.texts:
            for key_index in (0, 36, 2**40):
                for end in ("\n", "\r\n", ""):
                    line = f"{mechanism.value},{key_index},{text}{end}"
                    assert Report.from_line(line) == _ref_from_line(line)


def test_from_line_shares_one_report_per_distinct_line():
    line = "f2m,36,10\n"
    assert Report.from_line(line) is Report.from_line(line)
    assert Report.from_line("kvoh,2,101") is Report.from_line("kvoh,2,101")


def test_from_line_rejects_a_bad_line_on_every_call_without_caching_it():
    before = Report.from_line.cache_info().currsize
    for _ in range(2):
        with pytest.raises(DomainError):
            Report.from_line("kvue,9,7\n")
    assert Report.from_line.cache_info().currsize == before


def test_from_line_cache_stays_bounded_and_correct_past_its_size():
    maxsize = Report.from_line.cache_info().maxsize
    assert maxsize is not None
    lines = [f"kvue,{key_index},{key_index % 3}" for key_index in range(maxsize + 100)]
    for line in lines:
        assert Report.from_line(line) == _ref_from_line(line)
        assert Report.from_line.cache_info().currsize <= maxsize
    # The earliest lines were evicted and are parsed afresh.
    assert all(Report.from_line(line) == _ref_from_line(line) for line in lines[:200])


def test_a_shared_report_is_immutable():
    report = Report.from_line("kvue,3,2")
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.key_index = 4
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.payload = 0
    assert Report.from_line("kvue,3,2") == Report(Mechanism.KVUE, 3, 2)


# ---------------------------------------------------------------------------
# load_dataset rejections
# ---------------------------------------------------------------------------


def _dataset_file(tmp_path, rows, header=None):
    header = {"n": 3, "d": 2} if header is None else header
    path = tmp_path / "bad.csv"
    path.write_text("# kvldp-dataset " + json.dumps(header) + "\n" + "".join(row + "\n" for row in rows))
    return path


def _exit_code(path, tmp_path):
    return cli.main(["run", "--dataset", str(path), "--mechanisms", "kvue", "--epsilon", "1",
                     "--reps", "1", "--out", str(tmp_path / "out.csv")])


@pytest.mark.parametrize("rows, line, message", [
    (["0,0,0.5", "-1,0,0.5"], 3, "user index -1"),
    (["0,-1,0.5"], 2, "key index -1"),
    (["0,0,0.5", "1,1,0.2", "2,1,nan"], 4, "nan"),
    (["0,0,0.5", "1,1,0.2", "0,0,0.3"], 4, "duplicate pair"),
    (["0,1,0.5", "3,0,0.5"], 3, "user index 3"),
    (["0,2,0.5"], 2, "key index 2"),
    (["0,0,1.5"], 2, "outside"),
    (["0,0,inf"], 2, "outside"),
    (["0,0,0.5", "1.0,0,0.5"], 3, "malformed"),
    (["0,0,0.5", "", "1,0"], 4, "malformed"),
    (["0,0,0.5", "# comment"], 3, "malformed"),
])
def test_load_dataset_rejects_with_line_number(tmp_path, capsys, rows, line, message):
    path = _dataset_file(tmp_path, rows)
    with pytest.raises(DomainError, match=f"line {line}: .*{message}"):
        load_dataset(path)
    assert _exit_code(path, tmp_path) == 3
    assert "error[domain]" in capsys.readouterr().err


def test_load_dataset_duplicate_across_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr(datagen, "_CHUNK_ROWS", 2)
    path = _dataset_file(tmp_path, ["0,0,0.5", "1,0,0.5", "2,1,0.5", "", "0,0,0.1"])
    with pytest.raises(DomainError, match="line 6: duplicate pair"):
        load_dataset(path)


@pytest.mark.parametrize("header, message", [
    ({"d": 2}, "lacks 'n'"),
    ({"n": 3}, "lacks 'd'"),
    ({"n": -1, "d": 2}, "non-negative"),
    ({"n": "3", "d": 2}, "non-negative"),
    ([3, 2], "JSON object"),
])
def test_load_dataset_rejects_bad_header(tmp_path, header, message):
    path = _dataset_file(tmp_path, ["0,0,0.5"], header=header)
    with pytest.raises(DomainError, match=f"line 1: .*{message}"):
        load_dataset(path)
    assert _exit_code(path, tmp_path) == 3


def test_load_dataset_rejects_unallocatable_header(tmp_path):
    path = _dataset_file(tmp_path, ["0,0,0.5"], header={"n": 10 ** 12, "d": 10 ** 6})
    with pytest.raises(CapacityError, match="line 1"):
        load_dataset(path)
    assert _exit_code(path, tmp_path) == 3


def test_load_dataset_skips_blank_lines_and_accepts_any_order(tmp_path, monkeypatch):
    monkeypatch.setattr(datagen, "_CHUNK_ROWS", 3)
    path = _dataset_file(tmp_path, ["2,1,-0.25", "", "   ", "0,0,0.5", " 1 , 0 , 1 ", "", "", ""])
    loaded = load_dataset(path)
    expected = np.array([[0.5, np.nan], [1.0, np.nan], [np.nan, -0.25]])
    assert np.array_equal(loaded.values, expected, equal_nan=True)


def test_load_aggregate_rejects_missing_header_key(tmp_path):
    agg = AggregateVector(np.arange(9, dtype=float), 100, 2, 1.0)
    path = tmp_path / "agg.txt"
    save_aggregate(agg, path)
    for key in ("d", "n_users", "epsilon"):
        header = {"d": 2, "epsilon": 1.0, "n_users": 100}
        del header[key]
        path.write_text("# " + json.dumps(header) + "\n" + "0\n" * 9)
        with pytest.raises(DomainError, match=key):
            load_aggregate(path)
    path.write_text('# {"d": 2, "epsilon": 1.0, "n_users": 100}\n' + "x\n" * 9)
    with pytest.raises(DomainError):
        load_aggregate(path)


_GOOD_HEADER = '# {"d": 1, "epsilon": 1.0, "n_users": 10, "seed": 3}\n'


@pytest.mark.parametrize("content", [
    b"\xff\xfe\x00junk\n",
    (_GOOD_HEADER + "0\n").encode() + b"\xff\n1\n",
    (_GOOD_HEADER + "0\nnan\n1\n").encode(),
    (_GOOD_HEADER + "0\n-inf\n1\n").encode(),
    b'# {"d": true, "epsilon": 1.0, "n_users": 10}\n0\n1\n2\n',
    b'# {"d": 1, "epsilon": 1.0, "n_users": 10.5}\n0\n1\n2\n',
    b'# {"d": 1, "epsilon": true, "n_users": 10}\n0\n1\n2\n',
    b'# {"d": 1, "epsilon": -1.0, "n_users": 10}\n0\n1\n2\n',
    b'# {"d": 1, "epsilon": 1e999, "n_users": 10}\n0\n1\n2\n',
    b'# {"d": 0, "epsilon": 1.0, "n_users": 10}\n',
])
def test_load_aggregate_rejects_a_bad_file_naming_it(tmp_path, content):
    path = tmp_path / "agg.txt"
    path.write_bytes(content)
    with pytest.raises(DomainError, match="agg.txt"):
        load_aggregate(path)
    path.write_bytes((_GOOD_HEADER + "0\n-2.5\n1\n").encode())
    agg, seed = load_aggregate(path)
    assert (agg.values.tolist(), agg.n_users, agg.d, agg.epsilon, seed) == ([0.0, -2.5, 1.0], 10, 1, 1.0, 3)


_AGGREGATE_HEADERS = st.one_of(
    st.fixed_dictionaries({"d": st.just(1), "epsilon": st.floats(), "n_users": st.integers(-1, 10**6)},
                          optional={"seed": st.one_of(st.integers(), st.none(), st.text(max_size=3))}),
    st.fixed_dictionaries({}, optional={
        "d": st.one_of(st.integers(-1, 13), st.booleans(), st.floats(), st.text(max_size=2)),
        "epsilon": st.one_of(st.integers(-2, 10**400), st.booleans(), st.none(), st.text(max_size=2)),
        "n_users": st.one_of(st.integers(-2, 10**30), st.floats(), st.booleans()),
    }),
)
_AGGREGATE_BYTES = st.one_of(
    st.binary(max_size=64),
    st.tuples(
        _AGGREGATE_HEADERS.map(lambda header: "# " + json.dumps(header) + "\n"),
        st.lists(st.floats().map(repr), min_size=2, max_size=4).map("\n".join),
        st.one_of(st.just(""), st.text("0123456789.e-+naif \n", max_size=5)),
        st.one_of(st.just(b""), st.binary(max_size=3)),
    ).map(lambda parts: "".join(parts[:3]).encode() + parts[3]),
)


@settings(max_examples=300, deadline=None)
@given(content=_AGGREGATE_BYTES)
def test_load_aggregate_fuzz_ends_in_an_aggregate_or_a_domain_error(tmp_path_factory, content):
    path = tmp_path_factory.mktemp("agg") / "agg.txt"
    path.write_bytes(content)
    try:
        agg, _ = load_aggregate(path)
    except DomainError:
        return
    assert agg.values.shape == (3 ** agg.d,) and np.isfinite(agg.values).all()
    assert agg.n_users >= 0 and 0 < agg.epsilon < math.inf


_BAD_TABLES = {
    "empty": b"",
    "bad-header": b"# kvldp {not json\na,b\n1,2\n",
    "no-columns": b'{"rows": [[1, 2]]}\n',
    "no-rows": b'{"columns": ["a"]}\n',
    "row-not-a-list": b'{"columns": ["a"], "rows": [3]}\n',
    "deep-header": b"# kvldp " + b"[" * 100000 + b"\n",
    "not-utf8": b"\xff\xfe,a\n1,2\n",
}


@pytest.mark.parametrize("case", sorted(_BAD_TABLES))
def test_parse_table_rejects_a_bad_file_naming_it(tmp_path, case):
    # An empty file, a bad header and a document without columns used to
    # raise StopIteration, JSONDecodeError and KeyError.
    path = tmp_path / "table.csv"
    path.write_bytes(_BAD_TABLES[case])
    with pytest.raises(DomainError, match="table.csv"):
        parse_table(path)
    emit([{"a": 1, "b": 0.5}], "csv", path, config={"seed": 1})
    assert parse_table(path) == ({"seed": 1}, [{"a": 1, "b": 0.5}])


_JSON_VALUES = st.recursive(st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3)),
                            lambda inner: st.one_of(st.lists(inner, max_size=3),
                                                    st.dictionaries(st.text(max_size=3), inner, max_size=3)),
                            max_leaves=8)
_TABLE_BYTES = st.one_of(
    st.binary(max_size=64),
    st.dictionaries(st.sampled_from(["columns", "rows", "config"]), _JSON_VALUES).map(
        lambda document: json.dumps(document).encode()),
    st.tuples(
        st.one_of(st.just(""), _JSON_VALUES.map(lambda header: "# kvldp " + json.dumps(header) + "\n"),
                  st.text(max_size=12).map(lambda header: "# kvldp " + header + "\n")),
        st.text(alphabet=st.sampled_from('ab,"\n\r 0123456789.-e\x00'), max_size=40),
    ).map(lambda parts: "".join(parts).encode("utf-8", "surrogatepass")),
)


@settings(max_examples=300, deadline=None)
@given(content=_TABLE_BYTES)
def test_parse_table_fuzz_ends_in_a_table_or_a_domain_error(tmp_path_factory, content):
    path = tmp_path_factory.mktemp("table") / "table.csv"
    path.write_bytes(content)
    try:
        _, rows = parse_table(path)
    except DomainError:
        return
    assert isinstance(rows, list) and all(isinstance(row, dict) for row in rows)


# Header sizes stay small or are far too large to allocate: a mid-sized
# n x d would fill gigabytes with NaN before any row is read.
_DATASET_SIZES = st.one_of(st.integers(-2, 6), st.just(10**15), st.booleans(), st.floats(0, 4), st.text(max_size=2))
_DATASET_BYTES = st.one_of(
    st.binary(max_size=64),
    st.tuples(
        st.fixed_dictionaries({}, optional={"n": _DATASET_SIZES, "d": _DATASET_SIZES,
                                            "dist": st.text(max_size=3)}).map(
            lambda header: "# kvldp-dataset " + json.dumps(header) + "\n"),
        st.lists(st.tuples(st.integers(-1, 6), st.integers(-1, 6), st.one_of(st.floats(), st.just(0.5))).map(
            lambda row: "%d,%d,%r" % row), max_size=6).map("\n".join),
        st.one_of(st.just(""), st.text("0123456789,.e-+naif \n", max_size=8)),
        st.one_of(st.just(b""), st.binary(max_size=3)),
    ).map(lambda parts: "".join(parts[:3]).encode() + parts[3]),
)


@settings(max_examples=300, deadline=None)
@given(content=_DATASET_BYTES)
def test_load_dataset_fuzz_ends_in_a_dataset_or_a_domain_error(tmp_path_factory, content):
    path = tmp_path_factory.mktemp("ds") / "ds.csv"
    path.write_bytes(content)
    try:
        ds = load_dataset(path)
    except DomainError:
        return
    present = ds.values[~np.isnan(ds.values)]
    assert ds.values.shape == (ds.n, ds.d) and (np.abs(present) <= 1.0).all()


# ---------------------------------------------------------------------------
# Atomic writes
# ---------------------------------------------------------------------------


def test_atomic_writer_failure_keeps_earlier_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("earlier\n")
    with pytest.raises(RuntimeError):
        with atomic_writer(path) as handle:
            handle.write("partial")
            handle.flush()
            raise RuntimeError("disk gone")
    assert path.read_text() == "earlier\n"
    assert os.listdir(tmp_path) == ["out.txt"]


_WRITERS = {
    "emit": lambda path: emit([{"a": 1}], "csv", path),
    "save_dataset": lambda path: save_dataset(gen_synthetic("gaussian", 3, 5, seed=1), path),
    "save_aggregate": lambda path: save_aggregate(AggregateVector(np.zeros(9), n_users=4, d=2, epsilon=1.0), path),
    "write_trace": lambda path: write_trace(path, "kvue", gen_synthetic("gaussian", 3, 5, seed=1), 1.0, 0),
}


@pytest.mark.parametrize("writer", sorted(_WRITERS))
def test_a_write_into_a_missing_directory_names_its_target(tmp_path, writer):
    # The error used to name the hidden temporary file, .out.txt.<pid>.<hex>.tmp.
    path = tmp_path / "nodir" / "out.txt"
    with pytest.raises(OSError) as info:
        _WRITERS[writer](path)
    assert str(info.value).startswith(f"cannot write {path}: ") and ".tmp" not in str(info.value)


def test_save_dataset_failing_part_way_keeps_earlier_file(tmp_path, monkeypatch):
    path = tmp_path / "data.csv"
    earlier = gen_synthetic("gaussian", 4, 30, seed=1)
    save_dataset(earlier, path)
    before = path.read_bytes()
    monkeypatch.setattr(datagen, "_CHUNK_ROWS", 8)
    calls = []
    format_rows = datagen._format_rows

    def failing(*args):
        calls.append(1)
        if len(calls) == 3:
            raise OSError("no space left on device")
        return format_rows(*args)

    monkeypatch.setattr(datagen, "_format_rows", failing)
    with pytest.raises(OSError):
        save_dataset(gen_synthetic("gaussian", 4, 30, seed=2), path)
    assert len(calls) == 3
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["data.csv"]


def _writers(tmp_path):
    ds = gen_synthetic("gaussian", 3, 40, seed=5)
    agg = AggregateVector(np.arange(9, dtype=float), 40, 2, 1.0)
    return {
        "save_dataset": lambda path: save_dataset(ds, path),
        "write_trace": lambda path: write_trace(path, "kvoh", ds, 1.0, RandomSource(1).generator()),
        "save_aggregate": lambda path: save_aggregate(agg, path, seed=3),
        "emit": lambda path: emit([{"a": 1, "b": 0.5}], "csv", path, config={"seed": 0}),
    }


@pytest.mark.parametrize("writer", ["save_dataset", "write_trace", "save_aggregate", "emit"])
def test_writers_are_atomic(tmp_path, monkeypatch, writer):
    write = _writers(tmp_path)[writer]
    path = tmp_path / "target.txt"
    write(path)
    assert os.listdir(tmp_path) == ["target.txt"]
    path.write_text("earlier\n")

    def failing_replace(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError):
        write(path)
    assert path.read_text() == "earlier\n"
    assert os.listdir(tmp_path) == ["target.txt"]
