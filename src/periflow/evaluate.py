"""Score alignment, AUROC, and report emission."""
from __future__ import annotations

from collections.abc import Iterable
from pathlib import Path

import numpy as np

from .series import write_json, write_table

HIST_BINS = 50  # bins of score_histogram.csv


class EvalError(ValueError):
    pass


def window_scores_to_points(chunks: Iterable, series_length: int) -> np.ndarray:
    """Spread the per-timestep scores of a series' stride-1 windows back
    onto its timeline, as one (series_length,) array.

    `chunks` yields (b, T) blocks of window scores, for the windows that
    start at steps 0, 1, 2, ... in order; each is folded into the per-step
    sums as it comes, so the windows' scores need never be held at once.
    Each timestep receives the mean over all windows that include it,
    summed window by window in window order. Windows that do not cover the
    series exactly, or a non-finite result, raise `EvalError`.
    """
    sums = np.zeros(series_length)
    counts = np.zeros(series_length, dtype=np.int64)
    done = t = 0
    for chunk in chunks:
        chunk = np.asarray(chunk, dtype=np.float64)
        b, t = chunk.shape
        if done + b + t - 1 > series_length:
            raise EvalError(f"window {done + b - 1} of {t} steps overruns a series "
                            f"of {series_length} steps")
        steps = np.arange(done, done + b)[:, None] + np.arange(t)
        np.add.at(sums, steps, chunk)  # window by window, as a loop would
        np.add.at(counts, steps, 1)
        done += b
    if done == 0 or done + t - 1 < series_length:
        raise EvalError(f"{done} windows of {t} steps do not cover a series of "
                        f"{series_length} steps")
    scores = sums / counts
    if not np.all(np.isfinite(scores)):
        raise EvalError("non-finite scores")
    return scores


def auroc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Probability a random positive outscores a random negative, ties
    counted half; computed from midranks in O(n log n)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise EvalError("scores and labels must align")
    pos = labels == 1
    neg = labels == 0
    n_pos, n_neg = int(pos.sum()), int(neg.sum())
    if n_pos == 0 or n_neg == 0:
        raise EvalError("labels must contain both classes")
    # 1-based midrank of a tie group ending at sorted position `ends`
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    ranks = (ends - (counts - 1) / 2.0)[group]
    rank_sum = ranks[pos].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def auroc_summary(scores: np.ndarray, labels: np.ndarray) -> dict:
    """{"auroc": value}, or {"auroc": None, "auroc_reason": why} when the
    labels hold one class and AUROC is undefined."""
    labels = np.asarray(labels)
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        return {"auroc": None,
                "auroc_reason": f"labels hold one class ({n_neg} normal, "
                                f"{n_pos} anomalous), so AUROC is undefined"}
    return {"auroc": auroc(scores, labels)}


def emit_reports(out_dir, scores: np.ndarray, labels: np.ndarray | None,
                 diagnostics: dict, metadata: dict) -> dict:
    """Write the score histogram, per-step trace, per-window period-weight
    table, and a summary JSON. Returns the summary dict.

    `diagnostics` holds the (B, k) `periods`, `amp_weights` and `attention`
    of `score_windows` for B stride-1 windows; the period-weight table gets
    k rows per window, whose `window_start` is the window's index.

    The summary is computed first, so a failure there writes no file."""
    scores = np.asarray(scores, dtype=np.float64)
    summary = dict(metadata)
    summary["n_scores"] = int(scores.size)
    if labels is not None:
        summary.update(auroc_summary(scores, labels))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    edges = np.histogram_bin_edges(scores, bins=HIST_BINS)
    if labels is None:
        counts = {"count": np.histogram(scores, bins=edges)[0]}
    else:
        labels = np.asarray(labels)
        counts = {"count_normal": np.histogram(scores[labels == 0], bins=edges)[0],
                  "count_anomalous": np.histogram(scores[labels == 1], bins=edges)[0]}
    write_table(out / "score_histogram.csv", ["bin_left", "bin_right", *counts],
                [edges[:-1], edges[1:], *counts.values()])
    write_table(out / "scores.csv", ["index", "score", "log_likelihood"],
                [np.arange(scores.size), scores, -scores])
    n, k = diagnostics["periods"].shape
    write_table(out / "period_weights.csv",
                ["window_start", "period", "amplitude_weight", "attention_score"],
                [np.arange(n).repeat(k), *(diagnostics[key].ravel()
                                           for key in ("periods", "amp_weights", "attention"))])
    write_json(out / "summary.json", summary)
    return summary
