"""Seeded inputs for the benchmark, and the set-up step that writes them.

The benchmark owns its input generator so that a change to
`periflow.synthetic` cannot change what is measured. Every series is a sum
of sines with per-channel random phases plus white noise, with labelled
anomalies at fixed positions (the c09 recipe of the acceptance suite).

Run as a script, this module is the set-up step of one run:

    python3 perfbench/inputs.py --workload score --seed 3 --work DIR

It imports periflow, writes the workload's CSVs into DIR and, for `score`
and `stream`, trains the checkpoint they use with `periflow train`. The
benchmark times this script as `setup_s`; running it in its own process
keeps the memory that training takes out of the measured process.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SERIES_PERIODS = {20: 3.0, 60: 1.0}
NOISE_STD = 0.3
DIMS = 3
WINDOW = 60
SPLIT = (0.6, 0.2, 0.2)  # the program's default train/val/test fractions

# (kind, start, duration, magnitude); a period break's magnitude is the
# replacement period of the dominant sine
C09_ANOMALIES = (
    ("spike", 420, 2, 8.0),
    ("level_shift", 700, 30, 4.0),
    ("period_break", 1150, 31, 7),
    ("spike", 1900, 2, -8.0),
    ("level_shift", 2405, 30, -4.0),
    ("spike", 2880, 2, 8.0),
    ("level_shift", 3300, 30, 4.0),
    ("period_break", 3650, 31, 7),
)


# c09's model; `train` and the checkpoint of `score` and `stream` both
# train it for EPOCHS epochs at train stride STRIDE
MODEL = {"window_length": WINDOW, "hidden": 32, "k_periods": 3, "n_factors": 4,
         "num_layers": 2, "num_blocks": 2, "batch_size": 32, "sigma": 0.1}
EPOCHS = 1
STRIDE = 4


@dataclass(frozen=True)
class Sizes:
    """Series lengths and anomaly schedules; `FULL` is what the benchmark
    runs, and the self-tests run a smaller one."""

    train_length: int = 4000
    score_length: int = 4000
    stream_length: int = 1100  # 1041 windows per pass
    anomalies: tuple = C09_ANOMALIES
    stream_anomalies: tuple = (
        ("spike", 180, 2, 8.0),
        ("level_shift", 330, 30, 4.0),
        ("period_break", 560, 31, 7),
        ("spike", 760, 2, -8.0),
        ("level_shift", 850, 30, -4.0),
    )


FULL = Sizes()


def draw_phases(rng: np.random.Generator) -> dict[int, np.ndarray]:
    """Per-channel phase of each sine; series that share them come from
    one process, since the flow models how the channels move together."""
    return {period: rng.uniform(0.0, 2.0 * np.pi, size=DIMS)
            for period in sorted(SERIES_PERIODS)}


def generate(length: int, anomalies, phases: dict[int, np.ndarray],
             rng: np.random.Generator, start: int = 0):
    """(values (length, DIMS), labels (length,)) of one seeded series whose
    first timestep is `start`; anomaly positions count from the series' own
    first row."""
    t = np.arange(start, start + length, dtype=np.float64)
    values = np.zeros((length, DIMS))
    for period, amp in SERIES_PERIODS.items():
        values += amp * np.sin(2.0 * np.pi * t[:, None] / period + phases[period])
    values += NOISE_STD * rng.standard_normal(values.shape)
    labels = np.zeros(length, dtype=np.int64)
    dominant = max(SERIES_PERIODS, key=SERIES_PERIODS.get)
    for kind, first, duration, magnitude in anomalies:
        lo, hi = first, first + duration
        if hi > length:
            raise ValueError(f"anomaly {kind}@{first} outside a series of {length}")
        labels[lo:hi] = 1
        if kind in ("spike", "level_shift"):
            values[lo:hi] += magnitude
        else:
            amp, seg = SERIES_PERIODS[dominant], t[lo:hi, None]
            values[lo:hi] += amp * (
                np.sin(2.0 * np.pi * seg / int(magnitude) + phases[dominant])
                - np.sin(2.0 * np.pi * seg / dominant + phases[dominant]))
    return values, labels


def write_csv(path: Path, values: np.ndarray, labels: np.ndarray,
              first_index: int = 0) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("timestamp," + ",".join(f"ch{d}" for d in range(values.shape[1]))
                 + ",label\n")
        for i, (row, lab) in enumerate(zip(values, labels)):
            fh.write(f"{float(first_index + i)!r},"
                     + ",".join(repr(float(v)) for v in row) + f",{int(lab)}\n")


def split_bounds(length: int) -> tuple[int, int]:
    """Row indices where the program's chronological split cuts a series."""
    return (int(np.floor(SPLIT[0] * length)),
            int(np.floor((SPLIT[0] + SPLIT[1]) * length)))


def train_args(data: Path, out: Path, seed: int) -> list[str]:
    """`periflow train` arguments for the benchmark's model and recipe."""
    sets = [f"{k}={v}" for k, v in MODEL.items()]
    sets += [f"epochs={EPOCHS}", f"train_stride={STRIDE}"]
    args = ["train", "--data", str(data), "--out", str(out), "--seed", str(seed)]
    for item in sets:
        args += ["--set", item]
    return args


def set_up(workload: str, seed: int, work: Path, sizes: Sizes = FULL) -> None:
    """Write the inputs of one run; train the checkpoint score/stream use."""
    from periflow import cli  # the import is part of the set-up cost

    work.mkdir(parents=True, exist_ok=True)
    phase_rng, train_rng, eval_rng = map(np.random.default_rng,
                                         np.random.SeedSequence(seed).spawn(3))
    phases = draw_phases(phase_rng)
    values, labels = generate(sizes.train_length, sizes.anomalies, phases,
                              train_rng)
    write_csv(work / "train.csv", values, labels)
    if workload == "train":
        _, test_lo = split_bounds(sizes.train_length)
        write_csv(work / "test.csv", values[test_lo:], labels[test_lo:], test_lo)
        return
    # score and stream see later data from the process the checkpoint saw
    length, anomalies = ((sizes.score_length, sizes.anomalies)
                         if workload == "score" else
                         (sizes.stream_length, sizes.stream_anomalies))
    values, labels = generate(length, anomalies, phases, eval_rng,
                              start=sizes.train_length)
    write_csv(work / f"{workload}.csv", values, labels)
    args = train_args(work / "train.csv", work / "ckpt", seed)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(args)
    if code != 0:
        raise SystemExit(f"checkpoint training failed with exit code {code}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("train", "score", "stream"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args()
    set_up(args.workload, args.seed, args.work)


if __name__ == "__main__":
    sys.exit(main())
