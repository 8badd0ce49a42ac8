"""Output checks computed apart from the program.

Nothing here imports periflow: every reference value (the identity-flow
NLL, the energy baseline, the AUROC as a pairwise count) is recomputed
from the benchmark's own inputs with plain numpy. Each check returns a
list of failure messages; an empty list means the output is correct.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)


def read_series(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """(values, labels) of a CSV in the benchmark's input schema."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    body = np.asarray(rows[1:], dtype=np.float64)
    return body[:, 1:-1], body[:, -1].astype(np.int64)


def read_table(path: Path) -> dict[str, np.ndarray]:
    """Columns of a numeric CSV with a header row, by name."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    body = np.asarray(rows[1:], dtype=np.float64).reshape(len(rows) - 1, -1)
    return {name: body[:, i] for i, name in enumerate(rows[0])}


def train_stats(values: np.ndarray, train_frac: float = 0.6):
    """Mean and population std of the training split (std < 1e-8 -> 1)."""
    train = values[:int(np.floor(train_frac * len(values)))]
    std = train.std(axis=0)
    return train.mean(axis=0), np.where(std < 1e-8, 1.0, std)


def windows_of(values: np.ndarray, length: int, stride: int) -> np.ndarray:
    starts = range(0, len(values) - length + 1, stride)
    return np.stack([values[s:s + length] for s in starts])


def identity_nll(windows: np.ndarray) -> float:
    """Mean NLL of (B, T, D) windows under the identity flow:
    0.5*T*D*log(2*pi) + 0.5*mean ||x||^2."""
    _, t, d = windows.shape
    return 0.5 * t * d * LOG_2PI + 0.5 * float(np.mean(np.sum(windows ** 2,
                                                               axis=(1, 2))))


def energy_baseline(standardized: np.ndarray) -> np.ndarray:
    """Identity-flow energy 0.5*||x_t||^2 per timestep."""
    return 0.5 * np.sum(standardized ** 2, axis=1)


def pairwise_auroc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney count: share of (anomalous, normal) pairs the anomalous
    point outscores, ties counted half."""
    pos, neg = scores[labels == 1], scores[labels == 0]
    wins = np.count_nonzero(pos[:, None] > neg[None, :])
    ties = np.count_nonzero(pos[:, None] == neg[None, :])
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def pointwise(step_scores: np.ndarray, length: int) -> np.ndarray:
    """Per-timestep mean over the stride-1 windows covering it."""
    b, t = step_scores.shape
    sums, counts = np.zeros(length), np.zeros(length)
    for w in range(b):
        sums[w:w + t] += step_scores[w]
        counts[w:w + t] += 1
    return sums / counts


def check_history(history: dict[str, np.ndarray], closed_form: float) -> list[str]:
    """Epoch-0 NLL equals the identity-flow NLL, every loss is finite, and
    training lowered the best validation NLL below epoch 0's."""
    failures = []
    losses = np.concatenate([history[c] for c in
                             ("nll", "similarity", "independence", "val_nll")])
    if not np.all(np.isfinite(losses)):
        failures.append("history holds a non-finite loss")
    if not abs(history["nll"][0] - closed_form) < 1e-6:
        failures.append(f"epoch-0 nll {history['nll'][0]!r} != identity-flow "
                        f"nll {closed_form!r}")
    best = history["val_nll"][history["best"] == 1]
    if len(best) != 1 or not best[0] < history["val_nll"][0]:
        failures.append(f"best val_nll {best} not below epoch 0's "
                        f"{history['val_nll'][0]!r}")
    return failures


def check_scored(out_dir: Path, labels: np.ndarray,
                 baseline: np.ndarray) -> tuple[list[str], float]:
    """Check a `periflow score` output directory against the labels.

    scores.csv must hold one finite row per timestep; the program's AUROC
    in summary.json must equal the pairwise count within 1e-12 and lie
    strictly above the energy baseline's. Returns (failures, auroc).
    """
    failures = []
    table = read_table(out_dir / "scores.csv")
    scores = table["score"]
    if len(scores) != len(labels) or not np.array_equal(
            table["index"], np.arange(len(labels))):
        return [f"scores.csv has {len(scores)} rows for {len(labels)} "
                "timesteps"], float("nan")
    if not np.all(np.isfinite(scores)):
        failures.append("scores.csv holds a non-finite score")
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    program = float(summary["auroc"])
    failures += check_auroc(scores, labels, program, baseline)
    return failures, program


def check_auroc(scores: np.ndarray, labels: np.ndarray, program: float,
                baseline: np.ndarray) -> list[str]:
    failures = []
    recount = pairwise_auroc(scores, labels)
    if not abs(recount - program) <= 1e-12:
        failures.append(f"program auroc {program!r} != pairwise count {recount!r}")
    floor = pairwise_auroc(baseline, labels)
    if not recount > floor:
        failures.append(f"auroc {recount:.6f} not above the energy baseline "
                        f"{floor:.6f}")
    return failures


def batch_mismatches(single: np.ndarray, batched: np.ndarray,
                     rtol: float = 1e-9) -> np.ndarray:
    """Indices where a one-window score differs from the batched score of
    the same window by more than rtol relative."""
    single, batched = np.asarray(single), np.asarray(batched)
    bad = ~(np.abs(single - batched) <= rtol * np.abs(batched))
    return np.flatnonzero(bad)
