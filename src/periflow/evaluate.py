"""Score alignment, AUROC, and report emission."""
from __future__ import annotations

import json
from collections.abc import Iterable
from pathlib import Path

import numpy as np

HIST_BINS = 50  # bins of score_histogram.csv
REPORT_BLOCK = 1024  # windows per block of period_weights.csv rows


class EvalError(ValueError):
    pass


def window_scores_to_points(chunks: Iterable, window_starts: np.ndarray,
                            series_length: int) -> np.ndarray:
    """Spread per-window per-timestep scores back onto the source timeline,
    as one (series_length,) array.

    `chunks` yields (b, T) blocks of window scores that follow one another
    in the order of `window_starts`; each is folded into the per-step sums
    as it comes, so the windows' scores need never be held at once. Each
    covered timestep receives the mean over all windows that include it,
    summed window by window in window order; timesteps outside every
    window copy the nearest covered score. A non-finite result raises
    `EvalError`.
    """
    window_starts = np.asarray(window_starts, dtype=np.int64)
    sums = np.zeros(series_length)
    counts = np.zeros(series_length, dtype=np.int64)
    done = 0
    for chunk in chunks:
        chunk = np.asarray(chunk, dtype=np.float64)
        b, t = chunk.shape
        starts = window_starts[done:done + b]
        if starts.size != b:
            raise EvalError("one start index per window required")
        over = starts + t > series_length
        if over.any():
            raise EvalError(f"window at {starts[over][0]} overruns series of "
                            f"length {series_length}")
        steps = starts[:, None] + np.arange(t)
        np.add.at(sums, steps, chunk)  # window by window, as a loop would
        np.add.at(counts, steps, 1)
        done += b
    if done != window_starts.size:
        raise EvalError("one start index per window required")
    covered = counts > 0
    if not covered.any():
        raise EvalError("no timestep is covered by any window")
    scores = np.zeros(series_length)
    scores[covered] = sums[covered] / counts[covered]
    # an uncovered step copies the nearest covered one, the left on a tie
    idx = np.flatnonzero(covered)
    holes = np.flatnonzero(~covered)
    pos = np.searchsorted(idx, holes)
    left = idx[np.maximum(pos - 1, 0)]
    right = idx[np.minimum(pos, idx.size - 1)]
    scores[holes] = scores[np.where(holes - left <= right - holes, left, right)]
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
                 diagnostics: dict | None = None,
                 metadata: dict | None = None) -> dict:
    """Write the score histogram, per-step trace, per-window period-weight
    table, and a summary JSON. Returns the summary dict.

    `diagnostics` holds the (B,) `window_start`s and the (B, k) `periods`,
    `amp_weights` and `attention` of `score_windows`; the period-weight
    table gets k rows per window.

    The summary is computed first, so a failure there writes no file."""
    scores = np.asarray(scores, dtype=np.float64)
    summary = dict(metadata or {})
    summary["n_scores"] = int(scores.size)
    if labels is not None:
        summary.update(auroc_summary(scores, labels))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    edges = np.histogram_bin_edges(scores, bins=HIST_BINS)
    with open(out / "score_histogram.csv", "w", encoding="utf-8") as fh:
        if labels is None:
            fh.write("bin_left,bin_right,count\n")
            counts, _ = np.histogram(scores, bins=edges)
            for i, c in enumerate(counts):
                fh.write(f"{float(edges[i])!r},{float(edges[i + 1])!r},{c}\n")
        else:
            fh.write("bin_left,bin_right,count_normal,count_anomalous\n")
            labels = np.asarray(labels)
            c0, _ = np.histogram(scores[labels == 0], bins=edges)
            c1, _ = np.histogram(scores[labels == 1], bins=edges)
            for i in range(len(c0)):
                fh.write(f"{float(edges[i])!r},{float(edges[i + 1])!r},"
                         f"{c0[i]},{c1[i]}\n")

    with open(out / "scores.csv", "w", encoding="utf-8") as fh:
        fh.write("index,score,log_likelihood\n")
        for i, s in enumerate(scores):
            fh.write(f"{i},{float(s)!r},{float(-s)!r}\n")

    if diagnostics is not None:
        columns = [diagnostics[key] for key in ("periods", "amp_weights", "attention")]
        k = columns[0].shape[1]
        with open(out / "period_weights.csv", "w", encoding="utf-8") as fh:
            fh.write("window_start,period,amplitude_weight,attention_score\n")
            # a block of windows at a time, so no list of every value is built
            for lo in range(0, columns[0].shape[0], REPORT_BLOCK):
                rows = zip(np.repeat(diagnostics["window_start"][lo:lo + REPORT_BLOCK],
                                     k).tolist(),
                           *(col[lo:lo + REPORT_BLOCK].ravel().tolist() for col in columns))
                for start, p, w, a in rows:
                    fh.write(f"{start},{p},{w!r},{a!r}\n")

    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary
