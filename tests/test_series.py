"""CSV ingestion, standardization and windowing contracts."""
import numpy as np
import pytest

from periflow.series import (SeriesError, Standardization, chronological_split, csv_line,
                             load_csv, make_windows)


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
    np.testing.assert_array_equal(s2.values, [[1, 2], [3, 4], [5, 6]])
    assert s2.values.dtype == np.float64


def test_load_csv_skips_a_byte_order_mark(tmp_path):
    # spreadsheet exports begin with one; read as part of the first name it
    # would turn the timestamp column into a data channel
    text = "timestamp,ch0,ch1,label\n0,1.5,2,0\n\n1,3,-4,1\n"
    plain = load_csv(_write(tmp_path, text))
    marked = tmp_path / "bom.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    bom = load_csv(marked)
    assert bom.dim_names == plain.dim_names == ["ch0", "ch1"]
    for key in ("values", "labels"):
        np.testing.assert_array_equal(getattr(bom, key), getattr(plain, key))
    assert csv_line(marked, 1) == 4


@pytest.mark.parametrize("good_rows", [1, 3000])
def test_load_csv_names_the_first_line_that_is_not_utf8(tmp_path, good_rows):
    # also past the first block the reader decodes, with a byte-order mark
    path = tmp_path / "latin1.csv"
    rows = "".join(f"{i},0.5\n" for i in range(good_rows)).encode()
    path.write_bytes(b"\xef\xbb\xbft,x0\n" + rows + b"7,\xff2\n8,\xfe3\n")
    with pytest.raises(SeriesError) as info:
        load_csv(path)
    assert str(info.value) == f"{path}: line {good_rows + 2}: byte 0xff is not UTF-8"


def test_load_csv_names_the_line_of_a_field_past_the_csv_limit(tmp_path):
    p = _write(tmp_path, "t,x\n0,1\n1," + "2" * 200_000 + "\n2,3\n")
    with pytest.raises(SeriesError) as info:
        load_csv(p)
    assert str(info.value) == f"{p}: line 3: field larger than field limit (131072)"


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
    rows = ["2024-01-01T00:00:00Z,1", "2024-01-01T00:01:00+00:00,2", "2024-01-01T00:02:00Z,3"]
    s = load_csv(_write(tmp_path, "timestamp,a\n" + "\n".join(rows) + "\n"))
    np.testing.assert_array_equal(s.values, [[1], [2], [3]])
    rows[1], rows[2] = rows[2], rows[1]
    p = _write(tmp_path, "timestamp,a\n" + "\n".join(rows) + "\n", "swapped.csv")
    with pytest.raises(SeriesError) as info:
        load_csv(p)
    assert str(info.value) == (f"{p}: line 4: timestamp '2024-01-01T00:01:00+00:00' "
                               f"is not greater than the previous row's")


def test_load_csv_rejects_non_monotone_timestamps(tmp_path):
    # a lower or a repeated stamp, past a blank line that is still counted
    for second in ("3", "5"):
        p = _write(tmp_path, f"timestamp,a\n5,1\n\n{second},2\n")
        with pytest.raises(SeriesError) as info:
            load_csv(p)
        assert str(info.value) == (f"{p}: line 4: timestamp {second!r} "
                                   f"is not greater than the previous row's")


def test_load_csv_rejects_label_only_schema(tmp_path):
    p = _write(tmp_path, "label\n0\n1\n")
    with pytest.raises(SeriesError, match="data columns"):
        load_csv(p)


def test_split_boundaries_and_ordering():
    values = np.arange(10, dtype=float).reshape(-1, 1)
    train, val, test = chronological_split(values, 0.6, 0.2)
    assert (len(train), len(val), len(test)) == (6, 2, 2)
    assert train[-1, 0] < val[0, 0] < test[0, 0]
    # disjoint and contiguous
    merged = np.concatenate([train, val, test])
    np.testing.assert_array_equal(merged, values)


def test_split_smallest_supported_length():
    train, val, test = chronological_split(np.zeros((5, 1)), 0.6, 0.2)
    assert min(len(train), len(val), len(test)) >= 1


def test_standardize_constant_channel_guard():
    vals = np.column_stack([np.full(10, 5.0), np.arange(10, dtype=float)])
    stats = Standardization.fit(vals[:6])
    out = stats.apply(vals)
    np.testing.assert_array_equal(out[:, 0], 0.0)
    assert stats.std[0] == 1.0


def test_standardize_two_point_channel():
    # mean 1, population std 1 -> [-1, 1]
    vals = np.array([[0.0], [2.0]])
    stats = Standardization.fit(vals)
    out = stats.apply(vals)
    np.testing.assert_allclose(out[:, 0], [-1.0, 1.0])
    assert stats.mean[0] == 1.0 and stats.std[0] == 1.0


def test_standardize_normal_channel_statistics():
    rng = np.random.default_rng(0)
    vals = rng.normal(size=(1000, 1))
    out = Standardization.fit(vals).apply(vals)
    assert abs(out.mean()) < 0.1


def test_standardize_train_stats_property():
    rng = np.random.default_rng(1)
    vals = rng.normal(2.0, 3.0, size=(500, 4))
    train, _, _ = chronological_split(vals, 0.6, 0.2)
    out = Standardization.fit(train).apply(vals)
    train = out[:len(train)]
    assert np.all(np.abs(train.mean(axis=0)) < 1e-9)
    assert np.all(np.abs(train.std(axis=0) - 1.0) < 1e-9)


def test_make_windows_counts():
    wb = make_windows(np.arange(10, dtype=float).reshape(-1, 1), 4, stride=2)
    assert len(wb) == 4
    np.testing.assert_array_equal(wb[:, 0, 0], [0, 2, 4, 6])

    assert len(make_windows(np.zeros((60, 1)), 60, stride=1)) == 1

    wb3 = make_windows(np.arange(200.0).reshape(100, 2), 60, stride=3)
    # floor((100-60)/3)+1 windows, starts 0..39 step 3
    assert len(wb3) == 14
    np.testing.assert_array_equal(wb3[:, 0, 0], 2 * np.arange(0, 40, 3))


def test_make_windows_too_long_raises():
    with pytest.raises(SeriesError, match="exceeds"):
        make_windows(np.zeros((5, 1)), 6)


def test_non_overlapping_windows_reconstruct_prefix():
    rng = np.random.default_rng(2)
    vals = rng.normal(size=(103, 3))
    wb = make_windows(vals, 10, stride=10)
    rebuilt = wb.reshape(-1, 3)
    np.testing.assert_array_equal(rebuilt, vals[:rebuilt.shape[0]])


@pytest.mark.parametrize("text,where", [
    ("t,a,b\n0,1,2\n1,NaN,2\n", "line 3, column a: non-finite value 'NaN'"),
    ("t,a,b\n0,1,-inf\n", "line 2, column b: non-finite value '-inf'"),
    ("t,a,b\n0,1,2\ninf,1,2\n", "line 3, column t: non-finite value 'inf'"),
])
def test_load_csv_rejects_non_finite(tmp_path, text, where):
    p = _write(tmp_path, text)
    with pytest.raises(SeriesError) as info:
        load_csv(p)
    assert str(info.value) == f"{p}: {where}"


def test_load_csv_rejects_unparsable_timestamp(tmp_path):
    p = _write(tmp_path, "timestamp,a\n0,1\nsoon,2\n")
    with pytest.raises(SeriesError) as info:
        load_csv(p)
    assert str(info.value) == f"{p}: line 3: cannot parse timestamp 'soon'"


@pytest.mark.parametrize("label", ["2", "-1", "0.5"])
def test_load_csv_names_the_line_of_a_bad_label(tmp_path, label):
    p = _write(tmp_path, f"t,a,label\n0,1,0\n1,2,{label}\n2,3,1\n")
    with pytest.raises(SeriesError) as info:
        load_csv(p)
    assert str(info.value) == f"{p}: line 3: bad label {label!r}"


@pytest.mark.parametrize("header, twice", [("t,ch0,ch1,ch0", "ch0"),
                                           ("index,score,score", "score")])
def test_load_csv_refuses_a_column_named_twice(tmp_path, header, twice):
    p = _write(tmp_path, f"{header}\n0,1,2" + ",3" * (header.count(",") - 2) + "\n")
    with pytest.raises(SeriesError) as info:
        load_csv(p)
    assert str(info.value) == f"{p}: header names column {twice!r} twice"
