"""Score alignment and AUROC against brute-force oracles."""
import json

import numpy as np
import pytest

from periflow.evaluate import (EvalError, auroc, emit_reports,
                               window_scores_to_points)


def brute_force_auroc(scores, labels):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def test_auroc_worked_example():
    scores = np.array([0.1, 0.4, 0.35, 0.8])
    labels = np.array([0, 0, 1, 1])
    assert auroc(scores, labels) == brute_force_auroc(scores, labels) == 0.75


def test_auroc_perfect_separation():
    scores = np.array([1.0, 2.0, 10.0, 11.0])
    assert auroc(scores, np.array([0, 0, 1, 1])) == 1.0


def test_auroc_all_ties():
    assert auroc(np.ones(6), np.array([0, 1, 0, 1, 0, 1])) == 0.5
    assert auroc(np.full(10, -3.5), np.array([0] * 9 + [1])) == 0.5
    # two tie groups; the positives share the top one with a negative
    scores = np.array([1.0] * 8 + [2.0] * 3)
    labels = np.array([0] * 8 + [1, 1, 0])
    assert auroc(scores, labels) == brute_force_auroc(scores, labels) == 17 / 18


def test_auroc_matches_brute_force_random():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = rng.integers(5, 200)
        scores = np.round(rng.normal(size=n), 2)  # rounding forces ties
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert abs(auroc(scores, labels) - brute_force_auroc(scores, labels)) < 1e-12


def test_auroc_monotone_transform_invariance():
    rng = np.random.default_rng(1)
    scores = rng.normal(size=50)
    labels = rng.integers(0, 2, size=50)
    labels[:2] = [0, 1]
    a1 = auroc(scores, labels)
    a2 = auroc(np.exp(scores) * 3 + 1, labels)
    assert a1 == a2


def test_auroc_reflection_identity():
    rng = np.random.default_rng(2)
    scores = rng.normal(size=40)  # continuous, no ties
    labels = rng.integers(0, 2, size=40)
    labels[:2] = [0, 1]
    assert abs(auroc(scores, labels) + auroc(-scores, labels) - 1.0) < 1e-12


def test_auroc_rejects_single_class():
    with pytest.raises(EvalError):
        auroc(np.arange(4.0), np.zeros(4, dtype=int))


def test_alignment_disjoint_windows():
    step = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = window_scores_to_points([step], np.array([0, 2]), 4)
    np.testing.assert_array_equal(out, [1, 2, 3, 4])
    # every step is covered once, so it keeps its one window's value
    np.testing.assert_array_equal(out, step.ravel())


def test_alignment_overlap_mean():
    step = np.array([[1.0, 1.0], [3.0, 3.0]])
    out = window_scores_to_points([step], np.array([0, 1]), 3)
    assert out[1] == 2.0
    # the ends are covered once and keep their window's value
    np.testing.assert_array_equal(out, [1.0, 2.0, 3.0])


def test_alignment_conservation_identity():
    rng = np.random.default_rng(3)
    t, stride, length = 16, 3, 100
    starts = np.arange(0, length - t + 1, stride)
    step = rng.normal(size=(len(starts), t))
    out = window_scores_to_points([step], starts, length)
    coverage = np.bincount((starts[:, None] + np.arange(t)).ravel(), minlength=length)
    lhs = np.sum(out * coverage)
    rhs = step.sum()
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_alignment_trailing_fill():
    step = np.array([[5.0, 5.0]])
    out = window_scores_to_points([step], np.array([0]), 5)
    np.testing.assert_array_equal(out, 5.0)
    # the uncovered steps 2..4 copy step 1, the nearest covered one
    out = window_scores_to_points([np.array([[5.0, 7.0]])], np.array([0]), 5)
    np.testing.assert_array_equal(out, [5.0, 7.0, 7.0, 7.0, 7.0])


def alignment_loop(step, starts, length):
    """Window-at-a-time sums and hole-at-a-time nearest fill: the reference."""
    sums, counts = np.zeros(length), np.zeros(length, dtype=np.int64)
    for w, lo in enumerate(starts):
        sums[lo:lo + step.shape[1]] += step[w]
        counts[lo:lo + step.shape[1]] += 1
    idx = np.where(counts > 0)[0]
    scores = np.zeros(length)
    scores[idx] = sums[idx] / counts[idx]
    for h in np.where(counts == 0)[0]:
        scores[h] = scores[idx[np.argmin(np.abs(idx - h))]]  # ties go left
    return scores, counts


def test_alignment_matches_loop_with_gaps():
    # leading, interior (odd and even widths, so some holes tie) and
    # trailing gaps, overlapping and repeated windows
    rng = np.random.default_rng(5)
    for _ in range(50):
        t = int(rng.integers(1, 6))
        starts = np.sort(rng.choice(np.arange(2, 40), size=int(rng.integers(1, 9))))
        starts = np.concatenate([starts, starts[:1]])
        step = rng.normal(size=(len(starts), t))
        length = int(starts.max()) + t + int(rng.integers(0, 4))
        out = window_scores_to_points([step], starts, length)
        scores, _ = alignment_loop(step, starts, length)
        np.testing.assert_array_equal(out, scores)
        # the same windows folded in chunks of any size sum in the same order
        sizes = rng.integers(1, 4, size=len(starts)).cumsum()
        chunks = iter(np.split(step, sizes[sizes < len(starts)]))
        chunked = window_scores_to_points(chunks, starts, length)
        np.testing.assert_array_equal(chunked, scores)


def test_alignment_rejects_chunks_that_miss_their_starts():
    chunks = [np.ones((2, 3)), np.ones((2, 3))]
    with pytest.raises(EvalError, match="one start index per window"):
        window_scores_to_points(iter(chunks), np.array([0, 1, 2]), 10)
    with pytest.raises(EvalError, match="one start index per window"):
        window_scores_to_points(iter(chunks), np.arange(5), 10)


def test_alignment_rejects_empty_coverage():
    with pytest.raises(EvalError):
        window_scores_to_points([np.zeros((0, 4))], np.zeros(0, dtype=int), 10)


def test_alignment_rejects_non_finite_scores():
    with pytest.raises(EvalError, match="non-finite scores"):
        window_scores_to_points([np.array([[1.0, np.inf]])], np.array([0]), 3)


# two windows' diagnostics, as `score_windows` returns them, k = 2
_DIAG = {"window_start": np.array([0, 1]),
         "periods": np.array([[20, 5], [20, 7]]),
         "amp_weights": np.array([[0.7, 0.3], [0.6, 0.4]]),
         "attention": np.array([[0.6, 0.4], [0.5, 0.5]])}


def test_emit_reports_with_labels(tmp_path):
    rng = np.random.default_rng(4)
    scores = rng.normal(size=200)
    labels = (rng.random(200) < 0.1).astype(int)
    labels[:2] = [0, 1]
    summary = emit_reports(tmp_path, scores, labels, diagnostics=_DIAG,
                           metadata={"run": "test"})
    loaded = json.loads((tmp_path / "summary.json").read_text())
    assert loaded["auroc"] == summary["auroc"]
    assert loaded["run"] == "test"
    hist = (tmp_path / "score_histogram.csv").read_text().strip().splitlines()
    counts = np.array([[int(v) for v in line.split(",")[2:]] for line in hist[1:]])
    assert counts.sum() == 200
    assert (tmp_path / "period_weights.csv").read_text().splitlines() == [
        "window_start,period,amplitude_weight,attention_score",
        "0,20,0.7,0.6", "0,5,0.3,0.4", "1,20,0.6,0.5", "1,7,0.4,0.5"]


def test_emit_reports_without_labels(tmp_path):
    scores = np.arange(10.0)
    summary = emit_reports(tmp_path, scores, None, _DIAG, {})
    assert "auroc" not in summary
    hist = (tmp_path / "score_histogram.csv").read_text().splitlines()
    assert hist[0] == "bin_left,bin_right,count"


def test_emit_reports_one_class_labels(tmp_path):
    summary = emit_reports(tmp_path, np.arange(10.0), np.zeros(10, dtype=int), _DIAG, {})
    loaded = json.loads((tmp_path / "summary.json").read_text())
    assert loaded["auroc"] is None and summary["auroc"] is None
    assert "one class" in loaded["auroc_reason"]
    assert "\n" not in loaded["auroc_reason"]


def test_emit_reports_failure_writes_nothing(tmp_path):
    out = tmp_path / "report"
    with pytest.raises(EvalError, match="align"):
        emit_reports(out, np.arange(10.0), np.array([0, 1] * 4), _DIAG, {})
    assert not out.exists()
