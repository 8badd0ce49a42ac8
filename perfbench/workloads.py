"""The three workloads: `periflow train`, `periflow score` and a streaming
loop of one-window `score_windows` calls.

Each workload repeats whole rounds of the same operations until the run
length has passed, then checks every operation's output with `checks`.
A failed check counts the operation as failed. Inputs come from the
set-up step (`inputs.py`), which has already written them into `work`.
A block of reference samples (`speed.Speedometer`) runs before the first
round and after every round, outside the rounds' timing. Their median
gives the factor that turns the phase's CPU seconds into reference
seconds.
"""
from __future__ import annotations

import contextlib
import io
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import speed
from inputs import STRIDE, WINDOW, split_bounds, train_args
from periflow import autodiff, cli, evaluate, flow, optim, training

# (owner, attribute, span name); each is patched where its callers look it up
TRACE_POINTS = (
    (autodiff.Tensor, "backward", "autodiff.backward"),
    (optim.ParamStore, "adam_step", "optim.adam_step"),
    (training, "intervene", "spectral.intervene"),
    (training, "similarity_loss", "causal.similarity_loss"),
    (training, "independence_loss", "causal.independence_loss"),
    (training, "total_loss", "training.total_loss"),
    (training, "encode_batch", "training.encode_batch"),
    (training, "embed", "factors.embed"),
    (training, "fuse", "fusion.fuse"),
    (training, "top_k_periods", "spectral.top_k_periods"),
    (training, "condition", "flow.condition"),
    (training, "nll_loss", "flow.nll_loss"),
    (training, "anomaly_score", "flow.anomaly_score"),
    (training, "save_checkpoint", "training.save_checkpoint"),
    (training, "score_windows", "training.score_windows"),
    (flow, "forward", "flow.forward"),
    (evaluate, "auroc", "evaluate.auroc"),
    (cli, "load_csv", "series.load_csv"),
    (cli, "load_checkpoint", "training.load_checkpoint"),
    (cli, "prepare_series", "training.prepare_series"),
    (cli, "fit", "training.fit"),
    (cli, "score_windows", "training.score_windows"),
    (cli, "window_scores_to_points", "evaluate.window_scores_to_points"),
    (cli, "emit_reports", "evaluate.emit_reports"),
)

STREAM_WARMUP_CALLS = 10

# per-layer metric -> the spans whose self time it sums
LAYER_SPANS = {
    "autodiff.backward.us": ("autodiff.backward",),
    "optim.adam_step.us": ("optim.adam_step",),
    "spectral.intervene.us": ("spectral.intervene",),
    "causal.losses.us": ("causal.similarity_loss", "causal.independence_loss"),
    "training.encode_batch.self_us": ("training.encode_batch",),
    "factors.extract_pyramid.us": ("factors.extract_pyramid",),
    "factors.embed.us": ("factors.embed",),
    "fusion.fuse.us": ("fusion.fuse",),
    "spectral.top_k_periods.us": ("spectral.top_k_periods",),
    "flow.forward.us": ("flow.forward",),
    "flow.condition.us": ("flow.condition",),
    "series.load_csv.us": ("series.load_csv",),
    "evaluate.window_scores_to_points.us": ("evaluate.window_scores_to_points",),
    "evaluate.auroc.us": ("evaluate.auroc",),
    "evaluate.emit_reports.us": ("evaluate.emit_reports",),
    "training.save_checkpoint.us": ("training.save_checkpoint",),
}


@dataclass
class Phase:
    """What one timed phase did, before and after its checks."""

    # (windows, wall seconds, CPU seconds) per round. On a shared VM the
    # hypervisor takes the CPU away now and then for milliseconds (steal
    # time) whatever the program does; CPU time leaves that out, and
    # `scale` how fast the host's load lets the CPU run (see `speed`)
    rounds: list = field(default_factory=list)
    latencies: list = field(default_factory=list)  # CPU s per operation
    scale: float = math.nan   # reference seconds per CPU second
    attempted: int = 0
    failed: int = 0
    auroc: float = math.nan
    peak_rss_mb: float = math.nan
    failures: list = field(default_factory=list)

    @property
    def windows(self) -> int:
        return sum(r[0] for r in self.rounds)

    def fail(self, what: str, reasons: list[str]) -> None:
        if reasons:
            self.failed += 1
            self.failures.append(f"{what}: {'; '.join(reasons)}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@contextlib.contextmanager
def tracing(tracer):
    """Spans and counters for the calls inside the block, when tracing."""
    if tracer is None:
        yield
        return
    for owner, attr, name in TRACE_POINTS:
        tracer.wrap(owner, attr, name)
    tracer.wrap(training, "extract_pyramid", "factors.extract_pyramid",
                count=lambda args: args[0].shape[0])
    tracer.count_calls(autodiff.Tensor, "__init__", "autodiff.tensors")
    try:
        yield
    finally:
        tracer.restore()


def _cli_rounds(prefix: Path, argv_for, seconds: float, tracer,
                phase: Phase) -> list[tuple]:
    """Run one `periflow` command in-process per round, each round writing
    to its own directory, until `seconds` have passed. Returns (out dir,
    exit code, wall s, CPU s) per round."""
    rounds = []
    with tracing(tracer):
        start = time.perf_counter()
        speedo = speed.Speedometer()
        while not rounds or time.perf_counter() - start < seconds:
            out = prefix.with_name(f"{prefix.name}{len(rounds)}")
            span = tracer.span("cli.main") if tracer else contextlib.nullcontext()
            t0, c0 = time.perf_counter(), time.process_time()
            with contextlib.redirect_stdout(io.StringIO()), span:
                code = cli.main(argv_for(out))
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            speedo.block()
            phase.latencies.append(cpu)
            rounds.append((out, code, wall, cpu))
    phase.scale = speedo.scale()
    phase.attempted = len(rounds)
    phase.peak_rss_mb = peak_rss_mb()
    return rounds


def run_train(work: Path, seed: int, seconds: float, tracer=None,
              tag: str = "") -> Phase:
    phase = Phase()
    rounds = _cli_rounds(work / f"train{tag}",
                         lambda out: train_args(work / "train.csv", out, seed),
                         seconds, tracer, phase)

    values, _ = checks.read_series(work / "train.csv")
    mean, std = checks.train_stats(values)
    fit_rows, _ = split_bounds(len(values))
    train_windows = checks.windows_of((values[:fit_rows] - mean) / std, WINDOW,
                                      STRIDE)
    closed_form = checks.identity_nll(train_windows)
    test_values, test_labels = checks.read_series(work / "test.csv")
    baseline = checks.energy_baseline((test_values - mean) / std)
    aurocs = []
    for out, code, *times in rounds:
        if code != 0:
            phase.fail(out.name, [f"periflow train exited {code}"])
            continue
        history = checks.read_table(out / "history.csv")
        phase.rounds.append((len(train_windows) * int(history["epoch"][-1]),
                             *times))
        reasons = checks.check_history(history, closed_form)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["score", "--checkpoint", str(out / "model.npz"),
                             "--data", str(work / "test.csv"),
                             "--out", str(out / "test_scores")])
        if code != 0:
            reasons.append(f"periflow score of the test split exited {code}")
        else:
            more, auroc = checks.check_scored(out / "test_scores", test_labels,
                                              baseline)
            reasons += more
            aurocs.append(auroc)
        phase.fail(out.name, reasons)
    phase.auroc = _one_auroc(phase, aurocs)
    return phase


def _one_auroc(phase: Phase, aurocs: list[float]) -> float:
    """Rounds repeat the same work, so they must agree on the AUROC."""
    if len(set(aurocs)) > 1:
        phase.fail("rounds", [f"rounds disagree on auroc: {aurocs}"])
    return aurocs[0] if aurocs else math.nan


def run_score(work: Path, seed: int, seconds: float, tracer=None,
              tag: str = "") -> Phase:
    phase = Phase()
    rounds = _cli_rounds(work / f"score{tag}",
                         lambda out: ["score",
                                      "--checkpoint", str(work / "ckpt" / "model.npz"),
                                      "--data", str(work / "score.csv"),
                                      "--out", str(out)],
                         seconds, tracer, phase)

    train_values, _ = checks.read_series(work / "train.csv")
    mean, std = checks.train_stats(train_values)
    values, labels = checks.read_series(work / "score.csv")
    baseline = checks.energy_baseline((values - mean) / std)
    aurocs = []
    for out, code, *times in rounds:
        if code != 0:
            phase.fail(out.name, [f"periflow score exited {code}"])
            continue
        phase.rounds.append((len(values) - WINDOW + 1, *times))
        reasons, auroc = checks.check_scored(out, labels, baseline)
        aurocs.append(auroc)
        phase.fail(out.name, reasons)
    phase.auroc = _one_auroc(phase, aurocs)
    return phase


def run_stream(work: Path, seed: int, seconds: float, tracer=None,
               tag: str = "") -> Phase:
    """Closed loop, one caller: each call scores only the newest window.
    A monitor runs for long, so a few calls warm up before the timing."""
    phase = Phase()
    bundle = training.load_checkpoint(work / "ckpt" / "model.npz")
    values, labels = checks.read_series(work / "stream.csv")
    windows = checks.windows_of(bundle.stats.apply(values), WINDOW, 1)
    for i in range(STREAM_WARMUP_CALLS):
        training.score_windows(bundle, windows[i:i + 1])

    singles, first_steps = [], []
    with tracing(tracer):
        start = time.perf_counter()
        speedo = speed.Speedometer()
        while not singles or time.perf_counter() - start < seconds:
            t0, c0 = time.perf_counter(), time.process_time()
            taus, calls = np.empty(len(windows)), []
            for i in range(len(windows)):
                c = time.process_time()
                tau, tau_t, _ = training.score_windows(bundle, windows[i:i + 1])
                calls.append(time.process_time() - c)
                taus[i] = tau[0]
                if not singles:
                    first_steps.append(tau_t[0])
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            speedo.block()
            singles.append(taus)
            phase.latencies += calls
            phase.rounds.append((len(windows), wall, cpu))
    phase.scale = speedo.scale()
    phase.attempted = len(phase.latencies)
    phase.peak_rss_mb = peak_rss_mb()

    batched, _, _ = training.score_windows(bundle, windows)
    for r, taus in enumerate(singles):
        for i in checks.batch_mismatches(taus, batched):
            phase.fail(f"stream{tag} round {r} window {i}",
                       [f"single {taus[i]!r} != batched {batched[i]!r}"])
    points = checks.pointwise(np.stack(first_steps), len(values))
    phase.auroc = checks.pairwise_auroc(points, labels)
    return phase


WORKLOADS = {"train": run_train, "score": run_score, "stream": run_stream}


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def end_to_end(phase: Phase, setup_s: float) -> dict:
    """Timings in reference seconds (see `speed`)."""
    ms = 1e3 * phase.scale
    return {
        "windows_per_s": (statistics.median(w / cpu for w, _, cpu
                                            in phase.rounds) / phase.scale,
                          "1/s"),
        "latency_p50_ms": (ms * statistics.median(phase.latencies), "ms"),
        "latency_p90_ms": (ms * percentile(phase.latencies, 90), "ms"),
        "auroc": (phase.auroc, "ratio"),
        "peak_rss_mb": (phase.peak_rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(tracer, traced: list[Phase], untraced: list[Phase]) -> dict:
    """Self time per window for each layer, plus how the traced wall time
    splits into layers, other spans and time outside every span, and the
    cost of tracing against the untraced phases."""
    def per_window_s(phases):
        return (sum(r[1] for p in phases for r in p.rounds)
                / sum(p.windows for p in phases))

    windows = sum(p.windows for p in traced)
    rounds_wall = sum(r[1] for p in traced for r in p.rounds)
    selfs = tracer.self_times()
    out = {}
    for metric, names in LAYER_SPANS.items():
        out[metric] = (1e6 * sum(selfs.get(n, 0.0) for n in names) / windows,
                       "us")
    layered = {n for names in LAYER_SPANS.values() for n in names}
    other = sum(v for n, v in selfs.items() if n not in layered)
    out["trace.other.us"] = (1e6 * other / windows, "us")
    dispatches = sum(1 for s in tracer.spans if s[0] == "factors.extract_pyramid")
    out["factors.windows_per_dispatch"] = (
        tracer.counts["factors.extract_pyramid"] / dispatches, "count")
    out["autodiff.tensors_per_window"] = (
        tracer.counts["autodiff.tensors"] / windows, "count")
    out["trace.unaccounted_pct"] = (
        100.0 * (rounds_wall - tracer.root_time()) / rounds_wall, "%")
    out["trace.overhead_pct"] = (
        100.0 * (per_window_s(traced) / per_window_s(untraced) - 1.0), "%")
    return out
