"""Dataset generator, ingestion, and oracle tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvldp.conditional import Condition
from kvldp.core import CapacityError, DomainError, RandomSource
from kvldp.datagen import (
    Dataset,
    gen_regime,
    gen_synthetic,
    ingest_ratings,
    load_dataset,
    save_dataset,
    true_conditional,
    true_stats,
)

TOY_VALUES = np.array([
    [1.0, np.nan, -1.0],
    [-1.0, 1.0, 1.0],
    [np.nan, -1.0, -1.0],
])


def _check_fidelity(ds, freq_targets, mean_targets, spread=0.1):
    truth = true_stats(ds)
    holders = (~np.isnan(ds.values)).sum(axis=0)
    for k in range(ds.d):
        f = freq_targets[k]
        sigma_f = math.sqrt(f * (1 - f) / ds.n)
        assert abs(truth.frequency[k] - f) <= 4 * sigma_f + 1e-12
        # Uniform jitter on [-w, w] has sd w / sqrt(3).
        w = min(spread, 1 - abs(mean_targets[k]))
        sigma_m = w / math.sqrt(3 * max(holders[k], 1))
        assert abs(truth.mean[k] - mean_targets[k]) <= 4 * sigma_m + 1e-12


def test_gen_regime_fidelity():
    ds = gen_regime("extreme_low", "middle", d=20, n=20000, seed=5)
    _check_fidelity(ds, [0.05] * 20, [0.0] * 20)
    ds = gen_regime("high", "high", d=20, n=20000, seed=6)
    _check_fidelity(ds, [0.8] * 20, [0.8] * 20)
    ds = gen_regime("high", "low", d=20, n=20000, seed=7)
    _check_fidelity(ds, [0.8] * 20, [-0.8] * 20)


def test_gen_synthetic_fidelity_against_recorded_targets():
    for dist in ("gaussian", "uniform"):
        ds = gen_synthetic(dist, d=30, n=20000, seed=8)
        truth = true_stats(ds)
        # Targets are unknown here, but the generated stats must stay inside
        # the documented target ranges plus sampling slack.
        assert (truth.frequency > 0.02).all() and (truth.frequency < 0.98).all()
        assert (np.abs(truth.mean) < 0.95).all()
        assert ds.provenance["dist"] == dist


def test_gen_synthetic_reproducible_and_validated():
    a = gen_synthetic("uniform", 5, 100, seed=9)
    b = gen_synthetic("uniform", 5, 100, seed=9)
    assert np.array_equal(a.values, b.values, equal_nan=True)
    c = gen_synthetic("uniform", 5, 100, seed=10)
    assert not np.array_equal(a.values, c.values, equal_nan=True)
    with pytest.raises(DomainError):
        gen_synthetic("cauchy", 5, 100, seed=0)
    with pytest.raises(DomainError):
        gen_synthetic("uniform", 5, 0, seed=0)
    single = gen_synthetic("uniform", 5, 1, seed=0)
    assert single.n == 1
    truth = true_stats(single)
    present = ~np.isnan(single.values[0])
    assert np.array_equal(truth.frequency, present.astype(float))


def test_generated_values_match_the_where_formulation_bit_for_bit():
    # The generator builds its matrix in place; it must keep every bit of
    # np.where(present, mean + uniform * half_width, nan).
    for ds, draws in (
        (gen_regime("middle", "high", 7, 300, seed=4), (np.full(7, 0.6), np.full(7, 0.8))),
        (gen_synthetic("gaussian", 6, 250, seed=5), None),
    ):
        rng = RandomSource(ds.provenance["seed"]).generator()
        if draws is None:
            freq = np.clip(rng.normal(0.5, 0.15, size=6), 0.05, 0.95)
            mean = np.clip(rng.normal(0.0, 0.4, size=6), -0.9, 0.9)
        else:
            freq, mean = draws
        half_width = np.minimum(0.1, 1.0 - np.abs(mean))
        present = rng.random((ds.n, ds.d)) < freq[None, :]
        jitter = rng.uniform(-1.0, 1.0, size=(ds.n, ds.d)) * half_width[None, :]
        expected = np.where(present, mean[None, :] + jitter, np.nan)
        assert expected.tobytes() == ds.values.tobytes()


def test_gen_regime_validation():
    with pytest.raises(DomainError):
        gen_regime("supersonic", "middle", 5, 10, seed=0)
    with pytest.raises(DomainError):
        gen_regime("high", "sideways", 5, 10, seed=0)


@pytest.mark.parametrize("spread", [math.nan, -0.1, -math.inf])
def test_generators_reject_a_nan_or_negative_value_spread(spread):
    # A NaN spread used to give an all-absent dataset and a header reading NaN.
    with pytest.raises(DomainError, match="value spread"):
        gen_synthetic("gaussian", 3, 5, seed=0, value_spread=spread)
    with pytest.raises(DomainError, match="value spread"):
        gen_regime("high", "low", 3, 5, seed=0, value_spread=spread)
    assert gen_regime("high", "low", 3, 5, seed=0, value_spread=0.0).n == 5


@pytest.mark.parametrize("n", [10 ** 13, 2 ** 62])
def test_generators_raise_capacity_error_when_numpy_refuses_the_matrix(n):
    # 10^15 presence bytes exceed any address space (MemoryError), and 2^62 x 100
    # elements exceed numpy's largest array (ValueError); numpy refuses both at once.
    with pytest.raises(CapacityError, match="does not fit in memory"):
        gen_synthetic("gaussian", 100, n, seed=0)
    with pytest.raises(CapacityError, match="does not fit in memory"):
        gen_regime("high", "low", 100, n, seed=0)


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------


def _write(path, text):
    path.write_text(text)
    return str(path)


def test_ingest_linear_value_map(tmp_path):
    # Scale [1,5]: rating 5 -> 1, rating 3 -> 0, rating 1 -> -1.
    path = _write(tmp_path / "toy.csv", "u1,a,5\nu1,b,3\nu2,a,1\n")
    ds = ingest_ratings(path, top_k=2, rating_scale=(1, 5))
    assert ds.d == 2
    truth = {item: k for k, item in enumerate(ds.provenance["keys"])}
    assert ds.values[0, truth["a"]] == pytest.approx(1.0)
    assert ds.values[0, truth["b"]] == pytest.approx(0.0)
    assert ds.values[1, truth["a"]] == pytest.approx(-1.0)


def test_ingest_top_k_selection_and_ties(tmp_path):
    # Item 30 has 3 ratings, items 10 and 20 have 2 each; the tie at 2 breaks
    # by ascending item id, so top 2 = [30, 10].
    rows = ["u1,30,4", "u2,30,4", "u3,30,4", "u1,10,2", "u2,10,2", "u1,20,3", "u3,20,5"]
    path = _write(tmp_path / "ranked.csv", "\n".join(rows) + "\n")
    ds = ingest_ratings(path, top_k=2, rating_scale=(1, 5))
    assert ds.provenance["keys"] == ["30", "10"]
    # top_k above the number of distinct items truncates.
    ds = ingest_ratings(path, top_k=10, rating_scale=(1, 5))
    assert ds.d == 3
    assert ds.provenance["keys"] == ["30", "10", "20"]


def test_ingest_header_and_tab_detection(tmp_path):
    path = _write(tmp_path / "ml.tsv", "userId\tmovieId\trating\ttimestamp\n1\t99\t5\t123\n2\t99\t1\t456\n")
    ds = ingest_ratings(path, top_k=100, rating_scale=(1, 5))
    assert ds.n == 2 and ds.d == 1
    assert ds.values[0, 0] == pytest.approx(1.0)
    assert ds.values[1, 0] == pytest.approx(-1.0)


def test_ingest_malformed_rows_report_line_numbers(tmp_path):
    path = _write(tmp_path / "bad.csv", "u1,a,5\nu2,a\n")
    with pytest.raises(DomainError, match="line 2"):
        ingest_ratings(path, top_k=1)
    path = _write(tmp_path / "bad2.csv", "u1,a,5\nu2,a,high\n")
    with pytest.raises(DomainError, match="line 2"):
        ingest_ratings(path, top_k=1)
    path = _write(tmp_path / "bad3.csv", "u1,a,9\n")
    with pytest.raises(DomainError, match="outside scale"):
        ingest_ratings(path, top_k=1)
    with pytest.raises(OSError):
        ingest_ratings(tmp_path / "missing.csv", top_k=1)


def test_ingest_duplicates_and_user_drop(tmp_path):
    # u1 re-rates item a (last wins); u3 only rated an item outside the top key set.
    rows = ["u1,a,1", "u1,a,5", "u2,a,3", "u3,zzz,4"]
    path = _write(tmp_path / "dup.csv", "\n".join(rows) + "\n")
    ds = ingest_ratings(path, top_k=1, rating_scale=(1, 5))
    assert ds.provenance["keys"] == ["a"]
    assert ds.n == 2
    assert ds.values[0, 0] == pytest.approx(1.0)


def test_ingest_row_and_user_limits(tmp_path):
    rows = [f"u{i},a,3" for i in range(10)]
    path = _write(tmp_path / "cap.csv", "\n".join(rows) + "\n")
    assert ingest_ratings(path, top_k=1, max_rows=4).n == 4
    assert ingest_ratings(path, top_k=1, max_users=3).n == 3


@pytest.mark.parametrize("content", [b"u1,a,5\n\xff\xfe,b,3\n", b"u1,a,5\nu2," + b"x" * 131073 + b",3\n"],
                         ids=["not-utf8", "field-past-csv-limit"])
def test_ingest_rejects_an_unreadable_file_naming_it(tmp_path, content):
    # Used to raise UnicodeDecodeError and _csv.Error.
    path = tmp_path / "ratings.csv"
    path.write_bytes(content)
    with pytest.raises(DomainError, match="ratings.csv"):
        ingest_ratings(path, top_k=2)


_RATING_FIELDS = st.one_of(st.sampled_from(["u1", "u2", "a", "b", "7", "1", "3", "5", "5.0", "9", "nan", "-inf",
                                            '"', '"a,b"', "", " ", "x" * 131073]),
                           st.text(max_size=4))
_RATING_BYTES = st.one_of(
    st.binary(max_size=64),
    st.tuples(
        st.lists(st.lists(_RATING_FIELDS, min_size=1, max_size=4).map(",".join), max_size=6).map("\n".join),
        st.one_of(st.just(b""), st.binary(max_size=3)),
    ).map(lambda parts: parts[0].encode("utf-8", "surrogatepass") + parts[1]),
)


@settings(max_examples=300, deadline=None)
@given(content=_RATING_BYTES, top_k=st.integers(1, 3), max_rows=st.one_of(st.none(), st.integers(-1, 4)),
       max_users=st.one_of(st.none(), st.integers(0, 3)))
def test_ingest_fuzz_ends_in_a_dataset_or_a_domain_error(tmp_path_factory, content, top_k, max_rows, max_users):
    path = tmp_path_factory.mktemp("ratings") / "ratings.csv"
    path.write_bytes(content)
    try:
        ds = ingest_ratings(path, top_k, rating_scale=(1, 5), max_rows=max_rows, max_users=max_users)
    except DomainError:
        return
    present = ds.values[~np.isnan(ds.values)]
    assert 1 <= ds.d <= top_k and ds.n >= 1 and (np.abs(present) <= 1.0).all()
    assert (~np.isnan(ds.values)).any(axis=1).all()


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def test_true_stats_toy_tables():
    ds = Dataset(TOY_VALUES)
    truth = true_stats(ds)
    assert truth.frequency[2] == pytest.approx(1.0)       # Pepsi: all 3 users
    assert truth.frequency[0] == pytest.approx(2 / 3)     # Hamburger: 2 of 3
    # Fries-style mean: two holders at -0.3 and -0.1 average to -0.2.
    fries = Dataset(np.array([[np.nan], [-0.3], [-0.1]]))
    assert true_stats(fries).mean[0] == pytest.approx(-0.2)
    nobody = Dataset(np.full((3, 1), np.nan))
    assert true_stats(nobody).frequency[0] == 0.0
    assert math.isnan(true_stats(nobody).mean[0])


def test_true_stats_matches_the_where_formulation_bit_for_bit():
    # true_stats sums holders' values without an n x d copy; every bit of
    # the per-key sums and means must match the masked-copy formulation.
    for ds in (gen_synthetic("gaussian", 30, 4000, seed=6), gen_regime("low", "high", 9, 3000, seed=7)):
        present = ~np.isnan(ds.values)
        holders = present.sum(axis=0)
        sums = np.where(present, ds.values, 0.0).sum(axis=0)
        mean = np.where(holders > 0, sums / np.where(holders > 0, holders, 1), np.nan)
        assert true_stats(ds).mean.tobytes() == mean.tobytes()


def test_true_conditional_toy_tables():
    ds = Dataset(TOY_VALUES)
    freq, _ = true_conditional(ds, 0, Condition.parse("k3=1", 3))
    assert freq == pytest.approx(2 / 3)
    _, mean = true_conditional(ds, 2, Condition.parse("k1=1", 3))
    assert mean == pytest.approx(0.0)
    # Empty condition reduces to the unconditional statistics.
    truth = true_stats(ds)
    for k in range(3):
        freq, mean = true_conditional(ds, k, Condition.empty(3))
        assert freq == pytest.approx(truth.frequency[k])
        if math.isnan(truth.mean[k]):
            assert math.isnan(mean)
        else:
            assert mean == pytest.approx(truth.mean[k])


def test_true_conditional_empty_population_and_validation():
    ds = Dataset(TOY_VALUES)
    freq, mean = true_conditional(ds, 0, Condition.parse("k3=0", 3))
    assert math.isnan(freq) and math.isnan(mean)
    with pytest.raises(DomainError):
        true_conditional(ds, 2, Condition.parse("k3=1", 3))  # target constrained
    with pytest.raises(DomainError):
        true_conditional(ds, 0, Condition.parse("k2=1", 2))  # wrong length


def test_dataset_record_view_and_validation():
    ds = Dataset(TOY_VALUES)
    row = ds.values[0]
    present = np.flatnonzero(~np.isnan(row))
    assert dict(zip(present.tolist(), row[present].tolist())) == {0: 1.0, 2: -1.0}
    assert ds.d == 3
    with pytest.raises(DomainError):
        Dataset(np.array([[2.0]]))
    with pytest.raises(DomainError):
        Dataset(np.array([[np.nan, -np.inf]]))
    with pytest.raises(DomainError):
        Dataset(np.zeros(3))
    # NaN marks an absent key; all-absent and empty matrices are valid.
    assert Dataset(np.full((2, 2), np.nan)).n == 2
    assert Dataset(np.empty((0, 3))).d == 3


def test_dataset_round_trip(tmp_path):
    ds = gen_synthetic("gaussian", 7, 50, seed=123)
    path = tmp_path / "ds.csv"
    save_dataset(ds, path)
    loaded = load_dataset(path)
    assert np.array_equal(loaded.values, ds.values, equal_nan=True)
    assert loaded.provenance["dist"] == "gaussian"
    assert loaded.provenance["seed"] == 123
    with pytest.raises(DomainError):
        load_dataset(__file__)
