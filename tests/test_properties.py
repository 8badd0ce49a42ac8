"""Property tests at the file layer: CSV round trips, refused CSV cells and
refused checkpoint config values, over generated inputs.

Each property draws a fixed sequence of at most 50 examples and keeps no
example database, so the suite stays deterministic; `conftest.py` keeps
Hypothesis's caches out of the tree.
"""
import json
import math
from dataclasses import fields

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from periflow.series import MultivariateSeries, SeriesError, load_csv  # noqa: E402
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
    steps = draw(st.lists(st.floats(1e-3, 1e6), min_size=t_l, max_size=t_l))
    start = draw(st.floats(-1e9, 1e9))
    stamps = start + np.cumsum(steps)
    labels = draw(st.none() | st.lists(st.integers(0, 1), min_size=t_l, max_size=t_l))
    dim_names = draw(st.lists(names, min_size=d, max_size=d, unique=True))
    return MultivariateSeries(np.reshape(values, (t_l, d)), stamps, labels, dim_names)


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
    np.testing.assert_array_equal(loaded.timestamps, original.timestamps)
    if original.labels is None:
        assert loaded.labels is None
    else:
        np.testing.assert_array_equal(loaded.labels, original.labels)


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
        f"line {row + 2}, column {original.dim_names[col]}: ")


_KINDS = {f.name: type(f.default) for f in fields(TrainConfig)}
# values each checked key refuses at the saved config's window_length of 24
_OUT_OF_RANGE = {
    "lr": st.floats(max_value=0.0) | st.sampled_from([math.inf, math.nan]),
    "epochs": st.integers(max_value=0),
    "batch_size": st.integers(max_value=0),
    "alpha": st.floats(max_value=-1e-300) | st.sampled_from([math.inf, math.nan]),
    "beta": st.floats(max_value=-1e-300) | st.sampled_from([math.inf, math.nan]),
    "window_length": st.integers(max_value=0),
    "k_periods": st.integers(max_value=0) | st.integers(min_value=12),
    "hidden": st.integers(max_value=0),
    "n_factors": st.integers(max_value=0),
    "num_layers": st.integers(max_value=0),
    "num_blocks": st.integers(max_value=-1),
    "train_stride": st.integers(max_value=0),
    "sigma": st.floats(max_value=-1e-300) | st.sampled_from([math.inf, math.nan]),
    "k_h_frac": st.floats(max_value=0.0) | st.floats(min_value=1.0) | st.just(math.nan),
    "context_radius": st.integers(max_value=-2),
    "noise": st.text(max_size=8).filter(lambda text: text not in ("gaussian", "laplace")),
}
_OTHER_TYPES = (st.text(max_size=4) | st.none() | st.booleans() | st.integers()
                | st.floats(allow_nan=False) | st.lists(st.integers(), max_size=2))


def _wrong_type(kind):
    def differs(value):
        # an int is a float, but a bool is no int
        return type(value) is not kind and not (kind is float and type(value) is int)
    return _OTHER_TYPES.filter(differs)


@st.composite
def bad_config_values(draw):
    key = draw(st.sampled_from(sorted(_KINDS)))
    if key in _OUT_OF_RANGE and draw(st.booleans()):
        return key, draw(_OUT_OF_RANGE[key])
    return key, draw(_wrong_type(_KINDS[key]))


@pytest.fixture(scope="module")
def saved_arrays(scratch):
    """The entries of an untrained 3-channel, window-24 checkpoint."""
    config = TrainConfig(window_length=24, hidden=8, n_factors=2, k_periods=2,
                         num_blocks=1, seed=4)
    bundle = build_models(config, 3, 6, np.random.default_rng(0))
    bundle.columns = ["x0", "x1", "x2"]
    path = scratch / "saved.npz"
    save_checkpoint(path, bundle)
    with np.load(path, allow_pickle=False) as blob:
        return {key: blob[key] for key in blob.files}


@PROPERTY
@given(bad_config_values())
def test_a_bad_checkpoint_config_value_names_the_checkpoint_and_key(scratch, saved_arrays,
                                                                     bad):
    key, value = bad
    meta = json.loads(bytes(saved_arrays["meta"]).decode())
    meta["config"][key] = value
    ckpt = scratch / "bad_config.npz"
    with open(ckpt, "wb") as fh:
        np.savez(fh, **{**saved_arrays, "meta": np.frombuffer(json.dumps(meta).encode(),
                                                               dtype=np.uint8)})
    with pytest.raises(ValueError) as info:
        load_checkpoint(ckpt)
    message = str(info.value)
    assert message.startswith(f"{ckpt}: not a periflow checkpoint (")
    assert f"(config {key!r} is " in message or f"({key} must be " in message
