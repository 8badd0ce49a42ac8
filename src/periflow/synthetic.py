"""Multi-periodic synthetic series with labelled anomaly injection.

Each channel is a sum of sines with per-channel random phases plus white
noise. Three anomaly archetypes cover the detection pathways: additive
spikes, level shifts, and period breaks (the dominant sine is regenerated
at a different period inside the interval).
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .series import MultivariateSeries


@dataclass(frozen=True)
class Anomaly:
    """kind is one of spike | level_shift | period_break.

    `magnitude` is the additive size for spikes and level shifts; for a
    period break it is the replacement period length.
    """

    kind: str
    start: int
    duration: int
    magnitude: float

    def __post_init__(self):
        if self.kind not in ("spike", "level_shift", "period_break"):
            raise ValueError(f"unknown anomaly kind {self.kind!r}")
        if self.duration < 1:
            raise ValueError("anomaly duration must be >= 1")


@dataclass
class SynthConfig:
    length: int = 4000
    dims: int = 3
    periods: dict[int, float] = field(default_factory=lambda: {20: 3.0, 5: 1.0})
    noise_std: float = 0.3
    anomalies: list[Anomaly] = field(default_factory=list)
    seed: int = 0

    def __post_init__(self):
        for p in self.periods:
            if p < 2:
                raise ValueError(f"synthetic period must be >= 2, got {p}")
        for a in self.anomalies:
            if not 0 <= a.start < self.length or a.start + a.duration > self.length:
                raise ValueError(f"anomaly {a} outside [0, {self.length})")


def generate(config: SynthConfig) -> MultivariateSeries:
    """Deterministic (per seed) series with labels set on injected intervals."""
    rng = np.random.default_rng(config.seed)
    t = np.arange(config.length, dtype=np.float64)
    values = np.zeros((config.length, config.dims))
    phases = {}
    for period, amp in sorted(config.periods.items()):
        phases[period] = rng.uniform(0, 2 * np.pi, size=config.dims)
        values += amp * np.sin(2 * np.pi * t[:, None] / period + phases[period][None, :])
    values += config.noise_std * rng.standard_normal(values.shape)

    labels = np.zeros(config.length, dtype=np.int64)
    dominant = max(config.periods, key=lambda p: config.periods[p])
    for anomaly in config.anomalies:
        lo, hi = anomaly.start, anomaly.start + anomaly.duration
        if labels[lo:hi].any():
            warnings.warn(f"overlapping anomaly interval [{lo}, {hi}) merged")
        labels[lo:hi] = 1
        if anomaly.kind in ("spike", "level_shift"):
            values[lo:hi] += anomaly.magnitude
        else:  # period_break: dominant sine continues at a different period
            amp = config.periods[dominant]
            p_new = max(2, int(round(anomaly.magnitude)))
            seg = t[lo:hi, None]
            old = amp * np.sin(2 * np.pi * seg / dominant + phases[dominant][None, :])
            new = amp * np.sin(2 * np.pi * seg / p_new + phases[dominant][None, :])
            values[lo:hi] += new - old

    return MultivariateSeries(values, t, labels,
                              [f"ch{i}" for i in range(config.dims)])


def write_csv(series: MultivariateSeries, path) -> None:
    """Emit the same schema `series.load_csv` consumes."""
    header = ["timestamp", *series.dim_names]
    if series.labels is not None:
        header.append("label")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(series.length):
            row = [repr(float(series.timestamps[i]))]
            row += [repr(float(v)) for v in series.values[i]]
            if series.labels is not None:
                row.append(str(int(series.labels[i])))
            fh.write(",".join(row) + "\n")
