"""The CSV format, read and written, and standardization, chronological
splitting and windowing of a series' values."""
from __future__ import annotations

import csv
import json
import math
from array import array
from dataclasses import dataclass
from datetime import datetime
from typing import NamedTuple

import numpy as np


class SeriesError(ValueError):
    """Raised for malformed or inconsistent input series."""


class MultivariateSeries(NamedTuple):
    """A length-T_l series of D channels: (T_l, D) float64 values, (T_l,)
    0/1 int64 labels or None, and the D channel names. Read-only by
    convention; `load_csv` and `synthetic.generate` build it."""

    values: np.ndarray
    labels: np.ndarray | None
    dim_names: list[str]

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def dims(self) -> int:
        return self.values.shape[1]


def _finite(value: float, text: str, path, line_no: int, column: str) -> float:
    if not math.isfinite(value):
        raise SeriesError(f"{path}: line {line_no}, column {column}: non-finite value {text!r}")
    return value


def _parse_number(text: str, path, line_no: int, column: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise SeriesError(f"{path}: line {line_no}, column {column}: cannot parse value "
                          f"{text!r}") from None
    return _finite(value, text, path, line_no, column)


def _parse_timestamp(text: str, path, line_no: int, column: str) -> float:
    try:
        value = float(text)
    except ValueError:
        try:
            return datetime.fromisoformat(text.replace("Z", "+00:00")).timestamp()
        except ValueError:
            raise SeriesError(f"{path}: line {line_no}: cannot parse timestamp "
                              f"{text!r}") from None
    return _finite(value, text, path, line_no, column)


def utf8_text(path) -> str:
    """The text of the file at `path`; a file that is not UTF-8 is refused
    naming its first line that is not, and the byte."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise SeriesError(f"{path}: line {line_no}: byte {data[exc.start]:#04x} "
                          f"is not UTF-8") from None


def load_csv(path) -> MultivariateSeries:
    """Read a comma-separated file with a header row into a series.

    A leading timestamp column (named `timestamp` or `t`) and a `label`
    column are recognised when present; every remaining column is parsed
    as float64. Each stamp, a number or ISO 8601, must be greater than the
    previous row's; it is checked as its row is read and not kept. Every
    refusal names the file: a NaN or infinite value with its line and
    column, a stamp out of order or a label other than 0 or 1 with its
    line, a column named twice, and a file that is not UTF-8. A UTF-8
    byte-order mark, as spreadsheet exports write it, is skipped.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise SeriesError(f"{path}: empty file") from None
            header = [h.strip() for h in header]
            twice = [name for i, name in enumerate(header) if name in header[:i]]
            if twice:
                raise SeriesError(f"{path}: header names column {twice[0]!r} twice")
            has_ts = bool(header) and header[0] in ("timestamp", "t")
            label_idx = header.index("label") if "label" in header else None
            data_idx = [i for i, name in enumerate(header)
                        if not (has_ts and i == 0) and i != label_idx]
            if not data_idx:
                raise SeriesError(f"{path}: no numeric data columns in header {header}")

            # a flat float64 buffer: 8 bytes a value, not a Python float in a list
            values, labels, last_stamp = array("d"), [], -math.inf
            for line_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise SeriesError(f"{path}: line {line_no}: expected {len(header)} "
                                      f"fields, got {len(row)}")
                values.extend([_parse_number(row[i], path, line_no, header[i])
                               for i in data_idx])
                if has_ts:
                    stamp = _parse_timestamp(row[0], path, line_no, header[0])
                    if stamp <= last_stamp:
                        raise SeriesError(f"{path}: line {line_no}: timestamp {row[0]!r} "
                                          f"is not greater than the previous row's")
                    last_stamp = stamp
                if label_idx is not None:
                    try:
                        lab = int(row[label_idx])
                    except ValueError:
                        lab = -1
                    if lab not in (0, 1):
                        raise SeriesError(f"{path}: line {line_no}: bad label "
                                          f"{row[label_idx]!r}")
                    labels.append(lab)
    except UnicodeDecodeError:
        utf8_text(path)  # raises, naming the first line that is not UTF-8
        raise
    except csv.Error as exc:  # a field longer than the csv module's limit
        raise SeriesError(f"{path}: line {reader.line_num}: {exc}") from None

    if not values:
        raise SeriesError(f"{path}: no data rows")
    return MultivariateSeries(
        np.frombuffer(values, dtype=np.float64).reshape(-1, len(data_idx)),
        np.asarray(labels, dtype=np.int64) if label_idx is not None else None,
        [header[i] for i in data_idx])


def csv_line(path, row: int) -> int:
    """The line of the CSV file at `path` that `load_csv` read data row
    `row` from, numbered as its errors number lines."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        next(reader)
        return [line_no for line_no, fields in enumerate(reader, start=2) if fields][row]


TABLE_BLOCK = 1024  # rows per write of `write_table`


def write_table(path, header: list[str], columns) -> None:
    """Write equal-length 1-D `columns` under `header` in the format
    `load_csv` reads: ints as themselves, floats as their shortest repr,
    so every float reads back bitwise. Rows are formatted a block at a
    time, so no list of every value is built."""
    columns = [np.asarray(column) for column in columns]
    row = ",".join(["%r"] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, len(columns[0]), TABLE_BLOCK):
            block = zip(*(column[lo:lo + TABLE_BLOCK].tolist() for column in columns))
            fh.write("".join([row % values for values in block]))


def write_json(path, report: dict) -> None:
    """Write `report` as indented JSON with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def chronological_split(values: np.ndarray, train_frac: float, val_frac: float):
    """The contiguous train, validation and test parts of `values`: the
    first floor(train_frac * n) rows, up to floor((train_frac + val_frac) * n),
    and the rest, as views."""
    n = len(values)
    i1 = int(np.floor(train_frac * n))
    i2 = int(np.floor((train_frac + val_frac) * n))
    return values[:i1], values[i1:i2], values[i2:]


@dataclass(frozen=True)
class Standardization:
    """Zero-mean unit-variance transform with population (1/N) statistics;
    a near-constant channel keeps its scale (std below 1e-8 is taken as 1),
    so it maps to zeros."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, train_values: np.ndarray) -> "Standardization":
        std = train_values.std(axis=0)
        return cls(train_values.mean(axis=0), np.where(std < 1e-8, 1.0, std))

    def apply(self, values: np.ndarray) -> np.ndarray:
        return (values - self.mean) / self.std


def make_windows(values: np.ndarray, window_length: int, stride: int = 1) -> np.ndarray:
    """Contiguous (B, T, D) windows of (T_l, D) `values` starting at 0,
    stride, 2*stride, ... up to T_l - T, as a read-only strided view:
    nothing is copied, and indexing a batch of windows copies only that
    batch."""
    if stride < 1:
        raise SeriesError("stride must be >= 1")
    if window_length > len(values):
        raise SeriesError(
            f"window length {window_length} exceeds series length {len(values)}")
    view = np.lib.stride_tricks.sliding_window_view(values, window_length, axis=0)
    return np.swapaxes(view, 1, 2)[::stride]
