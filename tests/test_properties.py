"""Property tests at the file layer: CSV, score file and config file round
trips, refused CSV cells, and config values refused in a checkpoint and in
the dataclasses, over inputs generated from the CSV format and the config
fields' declared types and rules.

Each property draws a fixed sequence of at most 50 examples and keeps no
example database, so the suite stays deterministic; `conftest.py` keeps
Hypothesis's caches out of the tree.
"""
import json
from dataclasses import fields
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from periflow import series as series_module  # noqa: E402
from periflow.cli import load_config, main, write_resolved_config  # noqa: E402
from periflow.config import ConfigError, GenConfig  # noqa: E402
from periflow.evaluate import auroc  # noqa: E402
from periflow.series import (MultivariateSeries, SeriesError, load_csv,  # noqa: E402
                             write_table)
from periflow.synthetic import write_csv  # noqa: E402
from periflow.training import (TrainConfig, build_models, load_checkpoint,  # noqa: E402
                               save_checkpoint)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=50)
BOM = b"\xef\xbb\xbf"

finite = st.floats(allow_nan=False, allow_infinity=False)
# names that survive a plain comma-separated header and are not taken by
# the timestamp and label columns
names = st.text("abcxyz_0123456789", min_size=1, max_size=6).filter(
    lambda name: name not in ("t", "timestamp", "label"))


@st.composite
def series(draw):
    t_l = draw(st.integers(1, 12))
    d = draw(st.integers(1, 4))
    values = draw(st.lists(finite, min_size=t_l * d, max_size=t_l * d))
    labels = draw(st.none() | st.lists(st.integers(0, 1), min_size=t_l, max_size=t_l))
    dim_names = draw(st.lists(names, min_size=d, max_size=d, unique=True))
    return MultivariateSeries(np.reshape(values, (t_l, d)),
                              None if labels is None else np.array(labels), dim_names)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("properties")


@PROPERTY
@given(series(), st.booleans())
def test_write_then_load_returns_the_series(scratch, original, bom):
    path = scratch / "roundtrip.csv"
    write_csv(original, path)
    if bom:
        path.write_bytes(BOM + path.read_bytes())
    loaded = load_csv(path)
    assert loaded.dim_names == original.dim_names
    np.testing.assert_array_equal(loaded.values, original.values)
    if original.labels is None:
        assert loaded.labels is None
    else:
        np.testing.assert_array_equal(loaded.labels, original.labels)


# ints that a float64 holds exactly, and finite floats with the format's
# edges drawn often: signed zeros, subnormals and the largest magnitudes
table_ints = st.integers(-2 ** 53, 2 ** 53)
table_floats = finite | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                         1e308, -1e308, 1.7976931348623157e308])


@PROPERTY
@given(st.data(), st.integers(1, 5))
def test_write_table_then_load_returns_every_value_bitwise(scratch, data, block):
    n = data.draw(st.integers(1, 12))
    header = data.draw(st.lists(names, min_size=1, max_size=4, unique=True))
    columns = [np.array(data.draw(st.lists(cells, min_size=n, max_size=n)))
               for cells in data.draw(st.lists(st.sampled_from([table_ints, table_floats]),
                                               min_size=len(header), max_size=len(header)))]
    path = scratch / "table.csv"
    # rows written a few at a time, so that blocks meet inside the table
    with mock.patch.object(series_module, "TABLE_BLOCK", block):
        write_table(path, header, columns)
    loaded = load_csv(path)
    assert loaded.dim_names == header
    expected = np.column_stack([column.astype(np.float64) for column in columns])
    np.testing.assert_array_equal(loaded.values.view(np.int64), expected.view(np.int64))


@PROPERTY
@given(st.lists(table_floats, min_size=2, max_size=40), st.data())
def test_eval_of_a_written_score_file_is_auroc_of_the_scores(scratch, scores, data):
    labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=len(scores),
                                         max_size=len(scores))))
    assume(0 < labels.sum() < len(labels))
    scores = np.array(scores)
    write_table(scratch / "scores.csv", ["index", "score", "log_likelihood"],
                [np.arange(len(scores)), scores, -scores])
    write_table(scratch / "labelled.csv", ["x", "label"], [np.zeros(len(labels)), labels])
    out = scratch / "eval"
    assert main(["eval", "--scores", str(scratch / "scores.csv"),
                 "--data", str(scratch / "labelled.csv"), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["auroc"] == auroc(scores, labels)


@PROPERTY
@given(series(), st.data(), st.sampled_from(["nan", "inf", "-inf", "x", ""]),
       st.booleans())
def test_a_bad_data_cell_is_refused_with_its_line_and_column(scratch, original, data,
                                                             bad, bom):
    path = scratch / "bad_cell.csv"
    write_csv(original, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    row = data.draw(st.integers(0, original.length - 1))
    col = data.draw(st.integers(0, original.dims - 1))
    cells = lines[1 + row].split(",")
    cells[1 + col] = bad  # after the timestamp
    lines[1 + row] = ",".join(cells)
    path.write_bytes((BOM if bom else b"") + ("\n".join(lines) + "\n").encode())
    with pytest.raises(SeriesError) as info:
        load_csv(path)
    assert str(info.value).startswith(
        f"{path}: line {row + 2}, column {original.dim_names[col]}: ")


@PROPERTY
@given(st.lists(st.floats(1e-3, 1e6), min_size=2, max_size=12), st.floats(-1e9, 1e9),
       st.data())
def test_a_stamp_not_after_the_previous_one_is_refused_with_its_line(scratch, steps, start,
                                                                     data):
    stamps = (start + np.cumsum(steps)).tolist()
    path = scratch / "stamps.csv"
    write_table(path, ["t", "x"], [np.array(stamps), np.zeros(len(stamps))])
    assert load_csv(path).length == len(stamps)
    # repeat (a drop of 0) or lower the stamp of row r
    r = data.draw(st.integers(1, len(stamps) - 1))
    stamps[r] = stamps[r - 1] - data.draw(st.just(0.0) | st.floats(0.0, 1e6))
    write_table(path, ["t", "x"], [np.array(stamps), np.zeros(len(stamps))])
    with pytest.raises(SeriesError) as info:
        load_csv(path)
    assert str(info.value) == (f"{path}: line {r + 2}: timestamp '{stamps[r]!r}' "
                               f"is not greater than the previous row's")


_OTHER_TYPES = (st.text(max_size=4) | st.none() | st.booleans() | st.integers()
                | st.floats(allow_nan=False) | st.lists(st.integers(), max_size=2))
# values of each field type: an int is a float, also an odd one past 2**53
# that a float rounds, and texts rich in the whitespace and line breaks
# that a line of a config file cannot hold
_OF_TYPE = {bool: st.booleans(), int: st.integers(),
            float: st.floats() | st.integers() | st.integers(2 ** 52, 2 ** 63).map(
                lambda n: 2 * n + 1),
            str: st.text(max_size=8) | st.text(" \t\n\r\x0b\x85\u2028ab", max_size=4)}
# the generator's spec strings, which drawn text would almost never parse,
# drawn from their grammar with the blank entries and spaces it skips
_SPECS = {
    "gen_periods": st.lists(st.builds("{}:{!r}".format, st.integers(2, 99), finite)
                            | st.just(""), min_size=1, max_size=3).map(", ".join),
    "gen_anomalies": st.lists(st.builds("{}:{}:{}:{!r}".format,
                                        st.sampled_from(["spike", "level_shift", "period_break"]),
                                        st.integers(0, 99), st.integers(1, 9), finite)
                              | st.just(""), max_size=3).map("; ".join)}


def _wrong_type(kind):
    def differs(value):
        # an int is a float, but a bool is no int
        return type(value) is not kind and not (kind is float and type(value) is int)
    return _OTHER_TYPES.filter(differs)


def _broken_rule(f, value, config):
    """The first rule of field `f` that `value` breaks, the other fields
    at `config`'s values, or None."""
    return next((rule for rule, test in f.metadata.get("rules", ()) if not test(value, config)),
                None)


def _stored(f, value):
    """`value` as the config holds it: an int given for a float is a float."""
    return float(value) if type(f.default) is float and type(value) is int else value


def _out_of_range(f, config):
    return _OF_TYPE[type(f.default)].filter(lambda value: _broken_rule(f, value, config))


@st.composite
def bad_values(draw, f, config):
    """A value that field `f` refuses, the other fields at `config`'s
    values, and the refusal's rule: a value of its type that breaks one of
    its rules, or a value of another type."""
    if f.metadata.get("rules") and draw(st.booleans()):
        value = draw(_out_of_range(f, config))
        return value, _broken_rule(f, value, config)
    kind = type(f.default)
    return draw(_wrong_type(kind)), kind.__name__


@st.composite
def valid_configs(draw, config):
    """A `config` whose every value is drawn from its field's type (a spec
    string from its grammar) and kept if it passes the field's rules,
    given the fields drawn before it, else is the default. The split
    fractions, whose last the others fix, are drawn as shares of 1."""
    pinned = {}
    if config is GenConfig:
        cut, end = sorted(draw(st.lists(st.floats(0, 1), min_size=2, max_size=2)))
        pinned = {"train_frac": cut, "val_frac": end - cut, "test_frac": 1.0 - end}
    values = {**{f.name: f.default for f in fields(config)}, **pinned}
    for f in fields(config):
        if f.name not in pinned:
            view = SimpleNamespace(**values)
            drawn = draw(_SPECS.get(f.name, _OF_TYPE[type(f.default)]))
            values[f.name] = drawn if _broken_rule(f, drawn, view) is None else f.default
            # a default that a value drawn before it rules out
            assume(_broken_rule(f, values[f.name], view) is None)
    return config(**values)


@pytest.fixture(scope="module")
def saved(scratch):
    """The entries of an untrained 3-channel, window-24 checkpoint and its
    config."""
    config = TrainConfig(window_length=24, hidden=8, n_factors=2, k_periods=2,
                         num_blocks=1, seed=4)
    bundle = build_models(config, 3, 6, np.random.default_rng(0))
    bundle.columns = ["x0", "x1", "x2"]
    path = scratch / "saved.npz"
    save_checkpoint(path, bundle)
    with np.load(path, allow_pickle=False) as blob:
        return {key: blob[key] for key in blob.files}, config


@PROPERTY
@given(st.data())
def test_a_bad_checkpoint_config_value_names_the_checkpoint_and_key(scratch, saved, data):
    arrays, config = saved
    f = data.draw(st.sampled_from(fields(TrainConfig)))
    value, rule = data.draw(bad_values(f, config))
    meta = json.loads(bytes(arrays["meta"]).decode())
    meta["config"][f.name] = value
    ckpt = scratch / "bad_config.npz"
    with open(ckpt, "wb") as fh:
        np.savez(fh, **{**arrays, "meta": np.frombuffer(json.dumps(meta).encode(),
                                                         dtype=np.uint8)})
    with pytest.raises(ValueError) as info:
        load_checkpoint(ckpt)
    assert str(info.value) == (f"{ckpt}: not a periflow checkpoint ({f.name} must be {rule}, "
                               f"got {_stored(f, value)!r})")


@pytest.mark.parametrize("config, key", [(config, f.name) for config in (TrainConfig, GenConfig)
                                         for f in fields(config)])
@settings(derandomize=True, database=None, deadline=None, max_examples=10)
@given(data=st.data())
def test_a_wrong_typed_config_value_is_refused_naming_the_key(config, key, data):
    kind = {f.name: type(f.default) for f in fields(config)}[key]
    value = data.draw(_wrong_type(kind))
    with pytest.raises(ValueError) as info:
        config(**{key: value})
    assert str(info.value) == f"{key} must be {kind.__name__}, got {value!r}"


@pytest.mark.parametrize("config, key", [(config, f.name) for config in (TrainConfig, GenConfig)
                                         for f in fields(config) if f.metadata.get("rules")])
@settings(derandomize=True, database=None, deadline=None, max_examples=10)
@given(data=st.data())
def test_a_value_its_rules_refuse_is_refused_naming_the_key(config, key, data):
    f = {f.name: f for f in fields(config)}[key]
    value = data.draw(_out_of_range(f, config()))
    with pytest.raises(ConfigError) as info:
        config(**{key: value})
    assert str(info.value) == (f"{key} must be {_broken_rule(f, value, config())}, "
                               f"got {_stored(f, value)!r}")


@PROPERTY
@given(valid_configs(TrainConfig), valid_configs(GenConfig))
def test_resolved_config_round_trips(scratch, train_cfg, gen_cfg):
    write_resolved_config(scratch, train_cfg, gen_cfg,
                          {"command": "train", "data": "a b.csv", "global_period": 7})
    assert load_config(scratch / "resolved_config.txt") == (train_cfg, gen_cfg)
