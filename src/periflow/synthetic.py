"""Multi-periodic synthetic series with labelled anomaly injection.

Each channel is a sum of sines with per-channel random phases plus white
noise. Three anomaly archetypes cover the detection pathways: additive
spikes, level shifts, and period breaks (the dominant sine is regenerated
at a different period inside the interval).
"""
from __future__ import annotations

import numpy as np

from .config import ConfigError, GenConfig, anomaly_entries, period_entries
from .series import MultivariateSeries, write_table


def generate(config: GenConfig, seed: int) -> MultivariateSeries:
    """Deterministic (per seed) `gen_length` x `gen_dims` series with labels
    set on the injected intervals; a series whose values overflow float64
    is refused with a ConfigError."""
    rng = np.random.default_rng(seed)
    t = np.arange(config.gen_length, dtype=np.float64)
    values = np.zeros((config.gen_length, config.gen_dims))
    labels = np.zeros(config.gen_length, dtype=np.int64)
    periods = period_entries(config.gen_periods)
    dominant, amp = max(periods, key=lambda entry: entry[1])
    phases = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for period, amplitude in sorted(periods):
            phases[period] = rng.uniform(0, 2 * np.pi, size=config.gen_dims)
            values += amplitude * np.sin(2 * np.pi * t[:, None] / period + phases[period][None, :])
        values += config.gen_noise_std * rng.standard_normal(values.shape)

        for kind, lo, duration, magnitude in anomaly_entries(config.gen_anomalies):
            hi = lo + duration
            labels[lo:hi] = 1  # overlapping entries: their values add, their labels merge
            if kind in ("spike", "level_shift"):
                values[lo:hi] += magnitude
            else:  # period_break: dominant sine continues at a different period
                p_new = max(2, int(round(magnitude)))
                seg = t[lo:hi, None]
                old = amp * np.sin(2 * np.pi * seg / dominant + phases[dominant][None, :])
                new = amp * np.sin(2 * np.pi * seg / p_new + phases[dominant][None, :])
                values[lo:hi] += new - old
    if not np.isfinite(values).all():
        raise ConfigError("the series that gen_periods, gen_noise_std and gen_anomalies "
                          "describe overflows float64")
    return MultivariateSeries(values, labels, [f"ch{i}" for i in range(config.gen_dims)])


def write_csv(series: MultivariateSeries, path) -> None:
    """Emit the same schema `series.load_csv` consumes, stamped 0..T_l-1."""
    header = ["timestamp", *series.dim_names]
    columns = [np.arange(series.length, dtype=np.float64), *series.values.T]
    if series.labels is not None:
        header.append("label")
        columns.append(series.labels)
    write_table(path, header, columns)
