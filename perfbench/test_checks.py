"""Self-tests of the benchmark's checks: each check must reject a broken
output, and a tiny run of each workload must pass every check.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402
from periflow import training  # noqa: E402
from tracer import Tracer  # noqa: E402

TINY = inputs.Sizes(
    train_length=2000, score_length=2000, stream_length=300,
    anomalies=(("spike", 210, 2, 8.0), ("level_shift", 350, 30, 4.0),
               ("period_break", 575, 31, 7), ("spike", 950, 2, -8.0),
               ("level_shift", 1200, 30, -4.0), ("spike", 1440, 2, 8.0),
               ("level_shift", 1650, 30, 4.0), ("period_break", 1825, 31, 7)),
    stream_anomalies=(("level_shift", 100, 30, 4.0),
                      ("period_break", 200, 31, 7)))
SEED = 5
DECLARED = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json")
                      .read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """One set-up and one single-round run per workload, shared by tests."""
    runs = {}

    def get(name: str):
        if name not in runs:
            work = tmp_path_factory.mktemp(name)
            inputs.set_up(name, SEED, work, TINY)
            runs[name] = work, workloads.WORKLOADS[name](work, SEED, 0.0)
        return runs[name]
    return get


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_passes_every_check(tiny_run, name):
    _, phase = tiny_run(name)
    assert phase.attempted >= 1
    assert phase.failed == 0, phase.failures
    metrics = workloads.end_to_end(phase, setup_s=1.0)
    assert set(metrics) == {m["name"] for m in DECLARED["end_to_end"]}
    for key, (value, _) in metrics.items():
        assert np.isfinite(value) and value > 0, (name, key, value)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_layer(tiny_run, name):
    work, untraced = tiny_run(name)
    tracer = Tracer()
    traced = workloads.WORKLOADS[name](work, SEED, 0.0, tracer=tracer,
                                       tag="t")
    assert traced.failed == 0, traced.failures
    layers = workloads.per_layer(tracer, [traced], [untraced])
    assert set(layers) == {m["name"] for m in DECLARED["per_layer"]}
    ran = {"train": "autodiff.backward.us", "score": "evaluate.emit_reports.us",
           "stream": "flow.forward.us"}[name]
    assert layers[ran][0] > 0
    # self times of all spans add up to the time inside the root spans
    assert sum(tracer.self_times().values()) == pytest.approx(tracer.root_time())
    assert 0 <= layers["trace.unaccounted_pct"][0] < 10


def _scored_inputs(work: Path):
    train_values, _ = checks.read_series(work / "train.csv")
    mean, std = checks.train_stats(train_values)
    values, labels = checks.read_series(work / "score.csv")
    return labels, checks.energy_baseline((values - mean) / std)


def test_shuffled_scores_fail_the_auroc_check(tiny_run):
    work, _ = tiny_run("score")
    labels, baseline = _scored_inputs(work)
    scores = checks.read_table(work / "score0" / "scores.csv")["score"]
    assert checks.check_auroc(scores, labels, checks.pairwise_auroc(scores, labels),
                              baseline) == []
    shuffled = np.random.default_rng(0).permutation(scores)
    assert checks.check_auroc(shuffled, labels,
                              checks.pairwise_auroc(shuffled, labels), baseline)
    # a program AUROC that disagrees with the recount fails as well
    assert checks.check_auroc(scores, labels,
                              checks.pairwise_auroc(scores, labels) + 1e-9,
                              baseline)


def test_perturbed_single_score_fails_batch_independence(tiny_run):
    work, _ = tiny_run("stream")
    bundle = training.load_checkpoint(work / "ckpt" / "model.npz")
    values, _ = checks.read_series(work / "stream.csv")
    windows = checks.windows_of(bundle.stats.apply(values), inputs.WINDOW, 1)[:8]
    batched, _, _ = training.score_windows(bundle, windows)
    single = np.array([training.score_windows(bundle, windows[i:i + 1])[0][0]
                       for i in range(len(windows))])
    assert len(checks.batch_mismatches(single, batched)) == 0
    single[3] *= 1.0 + 1e-6
    assert list(checks.batch_mismatches(single, batched)) == [3]


def test_timings_are_scaled_to_reference_seconds():
    # 100 windows in 2 CPU s, on a machine at half the reference speed: the
    # reference computation took twice REFERENCE_S, so 2 CPU s are 1
    # reference second
    phase = workloads.Phase(rounds=[(100, 2.5, 2.0)], latencies=[2.0],
                            scale=0.5)
    metrics = workloads.end_to_end(phase, setup_s=1.0)
    assert metrics["windows_per_s"][0] == pytest.approx(100.0)
    assert metrics["latency_p50_ms"][0] == pytest.approx(1000.0)


def test_history_check_rejects_a_wrong_identity_nll():
    history = {"epoch": np.array([0.0, 1.0]), "nll": np.array([200.0, 150.0]),
               "similarity": np.zeros(2), "independence": np.zeros(2),
               "val_nll": np.array([210.0, 160.0]), "best": np.array([0.0, 1.0])}
    assert checks.check_history(history, 200.0) == []
    assert checks.check_history(history, 200.0 + 2e-6)
    history["val_nll"][1] = 211.0
    assert checks.check_history(history, 200.0)
