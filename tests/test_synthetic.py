"""Synthetic generator: determinism, labels, detectability hooks."""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from periflow.config import ConfigError, GenConfig  # noqa: E402
from periflow.series import load_csv  # noqa: E402
from periflow.spectral import discover_global_period, periodicity_strength  # noqa: E402
from periflow.synthetic import generate, write_csv  # noqa: E402


def test_clean_series_recovers_period():
    s = generate(GenConfig(gen_length=1000, gen_dims=2, gen_periods="20:3.0",
                           gen_noise_std=0.0), seed=1)
    assert discover_global_period(s.values) == 20
    np.testing.assert_array_equal(s.labels, 0)


def test_spike_labels_exact():
    s = generate(GenConfig(gen_length=1000, gen_dims=1, gen_periods="20:1.0",
                           gen_noise_std=0.1, gen_anomalies="spike:500:1:10.0"), seed=2)
    assert s.labels[500] == 1 and s.labels.sum() == 1


def test_label_mass_equals_interval_length():
    s = generate(GenConfig(gen_length=1000, gen_dims=2, gen_periods="20:3.0,5:1.0",
                           gen_anomalies="spike:100:3:5.0;level_shift:300:40:2.0;"
                                         "period_break:600:60:7"), seed=3)
    assert s.labels.sum() == 3 + 40 + 60


def test_overlapping_anomalies_add_values_and_merge_labels():
    # no warning: pytest turns every warning into an error
    spec = dict(gen_length=300, gen_dims=1, gen_periods="20:3.0,5:1.0")
    clean = generate(GenConfig(**spec), seed=4)
    s = generate(GenConfig(**spec, gen_anomalies="spike:100:10:5.0;spike:105:10:5.0"), seed=4)
    np.testing.assert_array_equal(np.flatnonzero(s.labels), np.arange(100, 115))
    added = np.zeros(300)
    added[100:110] += 5.0
    added[105:115] += 5.0
    np.testing.assert_allclose(s.values[:, 0] - clean.values[:, 0], added, atol=1e-12)


def test_seeded_determinism():
    config = GenConfig(gen_length=500, gen_dims=3, gen_periods="20:3.0,5:1.0",
                       gen_anomalies="level_shift:50:20:3.0")
    a, b = generate(config, seed=7), generate(config, seed=7)
    np.testing.assert_array_equal(a.values, b.values)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_period_break_lowers_periodicity_strength():
    s = generate(GenConfig(gen_length=1200, gen_dims=1, gen_periods="20:3.0",
                           gen_noise_std=0.1, gen_anomalies="period_break:300:300:7"), seed=5)
    broken = periodicity_strength(s.values[300:600, 0], 20)
    normal = periodicity_strength(s.values[600:900, 0], 20)
    assert broken < normal


# amplitudes and magnitudes whose sums stay far inside float64, written as
# their shortest repr, which reads back as the same float
sizes = st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def gen_configs(draw):
    """A `GenConfig` of 1-4 channels whose spec strings are drawn from
    their grammar: 1-3 distinct periods in [2, 59] and 0-4 anomalies of any
    kind inside the series."""
    length = draw(st.integers(1, 150))
    periods = draw(st.lists(st.integers(2, 59), min_size=1, max_size=3, unique=True))
    anomalies = []
    for kind in draw(st.lists(st.sampled_from(["spike", "level_shift", "period_break"]),
                              max_size=4)):
        start = draw(st.integers(0, length - 1))
        duration = draw(st.integers(1, length - start))
        anomalies.append(f"{kind}:{start}:{duration}:{draw(sizes)!r}")
    return GenConfig(gen_length=length, gen_dims=draw(st.integers(1, 4)),
                     gen_periods=draw(st.sampled_from([",", ", "])).join(
                         f"{p}:{draw(sizes)!r}" for p in periods),
                     gen_noise_std=draw(st.floats(0.0, 10.0)),
                     gen_anomalies=";".join(anomalies))


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(gen_configs(), st.integers(0, 2 ** 32))
def test_csv_roundtrip(tmp_path_factory, config, seed):
    # every spec drawn from the grammar passes the rules, and
    # generate -> write_csv -> load_csv is bitwise
    s = generate(config, seed)
    path = tmp_path_factory.mktemp("roundtrip") / "series.csv"
    write_csv(s, path)
    back = load_csv(path)
    np.testing.assert_array_equal(back.values.view(np.int64), s.values.view(np.int64))
    stamps = np.loadtxt(path, delimiter=",", skiprows=1, usecols=0, ndmin=1)
    np.testing.assert_array_equal(stamps, np.arange(config.gen_length))
    np.testing.assert_array_equal(back.labels, s.labels)
    assert back.labels.any() == bool(config.gen_anomalies)
    assert back.dim_names == s.dim_names == [f"ch{i}" for i in range(config.gen_dims)]


def test_rejects_out_of_range_anomaly():
    with pytest.raises(ConfigError, match="inside"):
        GenConfig(gen_length=100, gen_anomalies="spike:95:10:1.0")
