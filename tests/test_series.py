"""CSV ingestion, standardization and windowing contracts."""
import numpy as np
import pytest

from periflow.series import (MultivariateSeries, SeriesError, Standardization,
                             chronological_split, csv_line, load_csv, make_windows)


def _write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_load_csv_basic(tmp_path):
    p = _write(tmp_path, "t,a,b\n" + "\n".join(f"{i},{i * 1.5},{-i}" for i in range(3)))
    s = load_csv(p)
    assert s.length == 3 and s.dims == 2  # leading 't' is the timestamp
    assert s.labels is None

    p2 = _write(tmp_path, "timestamp,a,b\n0,1,2\n1,3,4\n2,5,6\n", "ts.csv")
    s2 = load_csv(p2)
    assert s2.dims == 2 and s2.dim_names == ["a", "b"]
    np.testing.assert_array_equal(s2.timestamps, [0, 1, 2])


def test_load_csv_skips_a_byte_order_mark(tmp_path):
    # spreadsheet exports begin with one; read as part of the first name it
    # would turn the timestamp column into a data channel
    text = "timestamp,ch0,ch1,label\n0,1.5,2,0\n\n1,3,-4,1\n"
    plain = load_csv(_write(tmp_path, text))
    marked = tmp_path / "bom.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    bom = load_csv(marked)
    assert bom.dim_names == plain.dim_names == ["ch0", "ch1"]
    for key in ("values", "timestamps", "labels"):
        np.testing.assert_array_equal(getattr(bom, key), getattr(plain, key))
    assert csv_line(marked, 1) == 4


def test_load_csv_with_labels(tmp_path):
    p = _write(tmp_path, "a,b,label\n1,2,0\n3,4,1\n5,6,0\n")
    s = load_csv(p)
    assert s.dims == 2
    np.testing.assert_array_equal(s.labels, [0, 1, 0])


def test_load_csv_parse_error_reports_line(tmp_path):
    p = _write(tmp_path, "t,a,b\n1,abc,2\n")
    with pytest.raises(SeriesError, match="line 2"):
        load_csv(p)


def test_load_csv_rfc3339_timestamps(tmp_path):
    p = _write(tmp_path, "timestamp,a\n2024-01-01T00:00:00Z,1\n2024-01-01T00:01:00Z,2\n")
    s = load_csv(p)
    assert s.timestamps[1] - s.timestamps[0] == 60.0


def test_load_csv_rejects_non_monotone_timestamps(tmp_path):
    p = _write(tmp_path, "timestamp,a\n5,1\n3,2\n")
    with pytest.raises(SeriesError, match="increasing"):
        load_csv(p)


def test_load_csv_rejects_label_only_schema(tmp_path):
    p = _write(tmp_path, "label\n0\n1\n")
    with pytest.raises(SeriesError, match="data columns"):
        load_csv(p)


def test_split_boundaries_and_ordering():
    s = MultivariateSeries(np.arange(10, dtype=float).reshape(-1, 1), np.arange(10))
    train, val, test = chronological_split(s.values, 0.6, 0.2)
    stamps = chronological_split(s.timestamps, 0.6, 0.2)
    assert (len(train), len(val), len(test)) == (6, 2, 2)
    assert stamps[0][-1] < stamps[1][0] < stamps[2][0]
    # disjoint and contiguous
    merged = np.concatenate([train, val, test])
    np.testing.assert_array_equal(merged, s.values)


def test_split_smallest_supported_length():
    s = MultivariateSeries(np.zeros((5, 1)), np.arange(5))
    train, val, test = chronological_split(s.values, 0.6, 0.2)
    assert min(len(train), len(val), len(test)) >= 1


def test_standardize_constant_channel_guard():
    vals = np.column_stack([np.full(10, 5.0), np.arange(10, dtype=float)])
    s = MultivariateSeries(vals, np.arange(10))
    stats = Standardization.fit(s.values[:6])
    out = stats.apply(s.values)
    np.testing.assert_array_equal(out[:, 0], 0.0)
    assert stats.std[0] == 1.0


def test_standardize_two_point_channel():
    # mean 1, population std 1 -> [-1, 1]
    s = MultivariateSeries(np.array([[0.0], [2.0]]), np.arange(2))
    stats = Standardization.fit(s.values)
    out = stats.apply(s.values)
    np.testing.assert_allclose(out[:, 0], [-1.0, 1.0])
    assert stats.mean[0] == 1.0 and stats.std[0] == 1.0


def test_standardize_normal_channel_statistics():
    rng = np.random.default_rng(0)
    s = MultivariateSeries(rng.normal(size=(1000, 1)), np.arange(1000))
    out = Standardization.fit(s.values).apply(s.values)
    assert abs(out.mean()) < 0.1


def test_standardize_train_stats_property():
    rng = np.random.default_rng(1)
    s = MultivariateSeries(rng.normal(2.0, 3.0, size=(500, 4)), np.arange(500))
    train, _, _ = chronological_split(s.values, 0.6, 0.2)
    out = Standardization.fit(train).apply(s.values)
    train = out[:len(train)]
    assert np.all(np.abs(train.mean(axis=0)) < 1e-9)
    assert np.all(np.abs(train.std(axis=0) - 1.0) < 1e-9)


def test_make_windows_counts():
    s = MultivariateSeries(np.arange(10, dtype=float).reshape(-1, 1), np.arange(10))
    wb = make_windows(s.values, 4, stride=2)
    assert len(wb) == 4
    np.testing.assert_array_equal(wb[:, 0, 0], [0, 2, 4, 6])

    s60 = MultivariateSeries(np.zeros((60, 1)), np.arange(60))
    assert len(make_windows(s60.values, 60, stride=1)) == 1

    s100 = MultivariateSeries(np.arange(200.0).reshape(100, 2), np.arange(100))
    wb3 = make_windows(s100.values, 60, stride=3)
    # floor((100-60)/3)+1 windows, starts 0..39 step 3
    assert len(wb3) == 14
    np.testing.assert_array_equal(wb3[:, 0, 0], 2 * np.arange(0, 40, 3))


def test_make_windows_too_long_raises():
    s = MultivariateSeries(np.zeros((5, 1)), np.arange(5))
    with pytest.raises(SeriesError, match="exceeds"):
        make_windows(s.values, 6)


def test_non_overlapping_windows_reconstruct_prefix():
    rng = np.random.default_rng(2)
    s = MultivariateSeries(rng.normal(size=(103, 3)), np.arange(103))
    wb = make_windows(s.values, 10, stride=10)
    rebuilt = wb.reshape(-1, 3)
    np.testing.assert_array_equal(rebuilt, s.values[:rebuilt.shape[0]])


@pytest.mark.parametrize("text,where", [
    ("t,a,b\n0,1,2\n1,NaN,2\n", "line 3, column a: non-finite value 'NaN'"),
    ("t,a,b\n0,1,-inf\n", "line 2, column b: non-finite value '-inf'"),
    ("t,a,b\n0,1,2\ninf,1,2\n", "line 3, column t: non-finite value 'inf'"),
])
def test_load_csv_rejects_non_finite(tmp_path, text, where):
    p = _write(tmp_path, text)
    with pytest.raises(SeriesError) as info:
        load_csv(p)
    assert str(info.value) == where


def test_load_csv_rejects_unparsable_timestamp(tmp_path):
    p = _write(tmp_path, "timestamp,a\n0,1\nsoon,2\n")
    with pytest.raises(SeriesError) as info:
        load_csv(p)
    assert str(info.value) == "line 3: cannot parse timestamp 'soon'"


@pytest.mark.parametrize("label", ["2", "-1", "0.5"])
def test_load_csv_names_the_line_of_a_bad_label(tmp_path, label):
    p = _write(tmp_path, f"t,a,label\n0,1,0\n1,2,{label}\n2,3,1\n")
    with pytest.raises(SeriesError) as info:
        load_csv(p)
    assert str(info.value) == f"line 3: bad label {label!r}"


@pytest.mark.parametrize("header, twice", [("t,ch0,ch1,ch0", "ch0"),
                                           ("index,score,score", "score")])
def test_load_csv_refuses_a_column_named_twice(tmp_path, header, twice):
    p = _write(tmp_path, f"{header}\n0,1,2" + ",3" * (header.count(",") - 2) + "\n")
    with pytest.raises(SeriesError) as info:
        load_csv(p)
    assert str(info.value) == f"{p}: header names column {twice!r} twice"
