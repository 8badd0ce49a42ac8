"""Synthetic generator: determinism, labels, detectability hooks."""
import numpy as np
import pytest

from periflow.spectral import discover_global_period, periodicity_strength
from periflow.synthetic import Anomaly, SynthConfig, generate, write_csv
from periflow.series import load_csv


def test_clean_series_recovers_period():
    cfg = SynthConfig(length=1000, dims=2, periods={20: 3.0}, noise_std=0.0,
                      seed=1)
    s = generate(cfg)
    assert discover_global_period(s.values) == 20
    np.testing.assert_array_equal(s.labels, 0)


def test_spike_labels_exact():
    cfg = SynthConfig(length=1000, dims=1, periods={20: 1.0}, noise_std=0.1,
                      anomalies=[Anomaly("spike", 500, 1, 10.0)], seed=2)
    s = generate(cfg)
    assert s.labels[500] == 1 and s.labels.sum() == 1


def test_label_mass_equals_interval_length():
    anomalies = [Anomaly("spike", 100, 3, 5.0),
                 Anomaly("level_shift", 300, 40, 2.0),
                 Anomaly("period_break", 600, 60, 7)]
    cfg = SynthConfig(length=1000, dims=2, anomalies=anomalies, seed=3)
    s = generate(cfg)
    assert s.labels.sum() == 3 + 40 + 60


def test_overlap_merged_with_warning():
    anomalies = [Anomaly("spike", 100, 10, 5.0), Anomaly("spike", 105, 10, 5.0)]
    cfg = SynthConfig(length=300, dims=1, anomalies=anomalies, seed=4)
    with pytest.warns(UserWarning, match="merged"):
        s = generate(cfg)
    assert s.labels.sum() == 15


def test_seeded_determinism():
    cfg = SynthConfig(length=500, dims=3, seed=7,
                      anomalies=[Anomaly("level_shift", 50, 20, 3.0)])
    a, b = generate(cfg), generate(cfg)
    np.testing.assert_array_equal(a.values, b.values)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_period_break_lowers_periodicity_strength():
    cfg = SynthConfig(length=1200, dims=1, periods={20: 3.0}, noise_std=0.1,
                      anomalies=[Anomaly("period_break", 300, 300, 7)], seed=5)
    s = generate(cfg)
    broken = periodicity_strength(s.values[300:600, 0], 20)
    normal = periodicity_strength(s.values[600:900, 0], 20)
    assert broken < normal


def test_csv_roundtrip(tmp_path):
    # generate -> write_csv -> load_csv is bitwise, over 1-4 dims, with and
    # without anomalies
    rng = np.random.default_rng(21)
    for case in range(8):
        dims = case % 4 + 1
        length = int(rng.integers(40, 120))
        anomalies = []
        if case % 2:
            start = int(rng.integers(0, length - 10))
            anomalies = [Anomaly("spike", start, 2, float(rng.normal(0.0, 5.0))),
                         Anomaly("period_break", start + 3, 6, 7.0)]
        periods = {int(p): float(a) for p, a in zip(rng.integers(2, 30, size=2),
                                                    rng.uniform(0.5, 4.0, size=2))}
        s = generate(SynthConfig(length=length, dims=dims, periods=periods,
                                 noise_std=float(rng.uniform(0.0, 1.0)),
                                 anomalies=anomalies, seed=case))
        path = tmp_path / f"series{case}.csv"
        write_csv(s, path)
        back = load_csv(path)
        np.testing.assert_array_equal(back.values.view(np.int64), s.values.view(np.int64))
        np.testing.assert_array_equal(back.timestamps.view(np.int64),
                                      s.timestamps.view(np.int64))
        np.testing.assert_array_equal(back.labels, s.labels)
        assert back.labels.any() == bool(anomalies)
        assert back.dim_names == s.dim_names == [f"ch{i}" for i in range(dims)]


def test_rejects_out_of_range_anomaly():
    with pytest.raises(ValueError, match="outside"):
        SynthConfig(length=100, anomalies=[Anomaly("spike", 95, 10, 1.0)])
