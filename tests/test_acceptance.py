"""Acceptance gate: one test per criterion, each printing a PASS line.

The quantitative detection runs (criteria 9 and 10) train full models on
synthetic data and are the slow part of the suite; everything else is
property-based and fast.
"""
import time

import numpy as np
import pytest

from conftest import numeric_gradient, relative_error
from periflow.autodiff import Tensor
from periflow.causal import independence_loss, similarity_loss
from periflow.evaluate import auroc, window_scores_to_points
from periflow.flow import LOG_2PI, forward, init_flow, inverse, log_prob, mask_law
from periflow.series import chronological_split, make_windows
from periflow.spectral import intervene
from periflow.synthetic import Anomaly, SynthConfig, generate
from periflow.training import (TrainConfig, build_models, evaluate_objective,
                               fit, prepare_series, score_windows, total_loss)


def _random_flow(rng, d=3, t=12, period=4, hidden=8, n=2, layers=2, blocks=2,
                 out_scale=0.5, radius=None):
    seed_rng = np.random.default_rng(rng.integers(2 ** 32))
    p = mask_law(period, t)[0]
    model = init_flow(d, hidden, n, p, layers, blocks, seed_rng,
                      context_radius=p if radius is None else radius)
    for layer in model.layers:
        for net in (layer.s_net, layer.t_net):
            w, b = net.layers[-1]
            w.data = seed_rng.normal(0.0, out_scale, size=w.shape)
            b.data = seed_rng.normal(0.0, out_scale, size=b.shape)
    return model


def test_c01_flow_invertibility():
    # 500 (model, window) pairs, max roundtrip error < 1e-6, inside 10 s
    rng = np.random.default_rng(101)
    start = time.time()
    worst = 0.0
    for _ in range(50):
        model = _random_flow(rng)
        x = rng.normal(size=(10, 12, 3))
        hc = rng.normal(size=(10, 8))
        z, _, _ = forward(x, hc, model)
        back = inverse(z, hc, model)
        worst = max(worst, float(np.max(np.abs(back - x))))
    elapsed = time.time() - start
    assert worst < 1e-6
    assert elapsed < 10.0
    print(f"\n[criterion 1] PASS invertibility: 500 pairs, "
          f"max|X - inv(fwd(X))| = {worst:.2e}, {elapsed:.1f}s")


def test_c02_jacobian_exactness():
    # 50 random cases with T*D <= 16: exp(logdet) vs finite-difference det
    rng = np.random.default_rng(102)
    shapes = [(4, 2), (8, 2), (4, 4), (5, 3), (16, 1)]
    start = time.time()
    worst = 0.0
    for case in range(50):
        t, d = shapes[case % len(shapes)]
        model = _random_flow(rng, d=d, t=t, period=max(1, t // 3), out_scale=0.4)
        x = rng.normal(size=(t, d))
        hc = rng.normal(size=(1, model.hidden))

        def run(flat):
            z, _, _ = forward(flat.reshape(1, t, d), hc, model)
            return z.reshape(-1)

        flat0 = x.reshape(-1)
        n = flat0.size
        jac = np.zeros((n, n))
        eps = 1e-6
        for i in range(n):
            hi, lo = flat0.copy(), flat0.copy()
            hi[i] += eps
            lo[i] -= eps
            jac[:, i] = (run(hi) - run(lo)) / (2 * eps)
        _, logdet, _ = forward(x[None], hc, model)
        fd = abs(np.linalg.det(jac))
        worst = max(worst, abs(np.exp(logdet[0]) - fd) / fd)
    elapsed = time.time() - start
    assert worst < 1e-3
    assert elapsed < 30.0
    print(f"[criterion 2] PASS jacobian exactness: 50 cases, "
          f"worst rel err = {worst:.2e}, {elapsed:.1f}s")


def test_c03_density_normalization():
    # D=1, T<=2: quadrature over [-10, 10] per axis recovers mass 1 +- 1e-2
    start = time.time()
    trapezoid = np.trapezoid if hasattr(np, "trapezoid") else np.trapz
    axis = np.linspace(-10.0, 10.0, 400)
    masses = []

    rng = np.random.default_rng(103)
    model1 = _random_flow(rng, d=1, t=2, period=1, hidden=4, n=1, out_scale=0.3)
    hc1 = 0.5 * rng.normal(size=(1, 4))
    dens = np.exp(log_prob(axis.reshape(-1, 1, 1),
                           Tensor(np.repeat(hc1, 400, axis=0)), model1).data)
    masses.append(trapezoid(dens, axis))

    model2 = _random_flow(rng, d=1, t=2, period=1, hidden=4, n=1, out_scale=0.3)
    hc2 = 0.5 * rng.normal(size=(1, 4))
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    grid = np.stack([xx.ravel(), yy.ravel()], axis=1)[:, :, None]
    dens2 = np.zeros(grid.shape[0])
    for lo in range(0, grid.shape[0], 20000):
        chunk = grid[lo:lo + 20000]
        dens2[lo:lo + 20000] = np.exp(
            log_prob(chunk, Tensor(np.repeat(hc2, chunk.shape[0], axis=0)),
                     model2).data)
    masses.append(trapezoid(trapezoid(dens2.reshape(400, 400), axis, axis=1), axis))
    elapsed = time.time() - start
    for mass in masses:
        assert abs(mass - 1.0) < 1e-2
    assert elapsed < 20.0
    print(f"[criterion 3] PASS normalization: masses = "
          f"{', '.join(f'{m:.4f}' for m in masses)}, {elapsed:.1f}s")


def test_c04_gradient_suite():
    # analytic vs central differences across all five consumers
    start = time.time()
    worst = {}

    # treatment losses on raw representations
    rng = np.random.default_rng(104)
    a = Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)

    def sim():
        return similarity_loss(a, b) + independence_loss((a + b) * 0.5)

    for tensor, label in ((a, "losses/a"), (b, "losses/b")):
        tensor.grad = None
        loss = sim()
        loss.backward()
        fd = numeric_gradient(lambda: sim().data, tensor)
        worst[label] = relative_error(tensor.grad, fd)

    # full pipeline: miner, fusion, conditioner and flow parameters under
    # the combined objective
    cfg = TrainConfig(window_length=12, hidden=6, n_factors=2, k_periods=2,
                      num_layers=2, num_blocks=1, batch_size=4, epochs=1,
                      context_radius=2, seed=104)
    synth = SynthConfig(length=64, dims=2, periods={6: 2.0, 3: 0.6},
                        noise_std=0.3, seed=104)
    series = generate(synth)
    windows = make_windows(series.values, 12, stride=13)
    bundle = build_models(cfg, 2, 6, np.random.default_rng(105))
    # move output layers off zero so upstream gradients are visible
    move_rng = np.random.default_rng(106)
    for layer in bundle.flow.layers:
        for net in (layer.s_net, layer.t_net):
            w, bias = net.layers[-1]
            w.data = move_rng.normal(0.0, 0.2, size=w.shape)
            bias.data = move_rng.normal(0.0, 0.2, size=bias.shape)

    def objective():
        loss, _ = total_loss(windows, bundle, np.random.default_rng(107))
        return loss

    params = bundle.named_params()
    for name, tensor in params.items():
        tensor.grad = None
    loss = objective()
    loss.backward()
    analytic = {name: tensor.grad.copy() if tensor.grad is not None else None
                for name, tensor in params.items()}
    # eps=1e-5: the objective sits at NLL scale while attention gradients
    # are ~1e-4, so the 1e-6 step leaves subtraction noise above tolerance
    for name, tensor in params.items():
        fd = numeric_gradient(lambda: objective().data, tensor, eps=1e-5)
        assert analytic[name] is not None, f"no gradient for {name}"
        worst[name] = relative_error(analytic[name], fd)

    elapsed = time.time() - start
    bad = {k: v for k, v in worst.items() if v >= 1e-4}
    assert not bad, f"gradient mismatches: {bad}"
    assert elapsed < 60.0
    print(f"[criterion 4] PASS gradients: {len(worst)} tensors, "
          f"worst rel err = {max(worst.values()):.2e}, {elapsed:.1f}s")


def test_c05_mask_law():
    start = time.time()
    for t in range(2, 257):
        expected_full = (np.arange(t) // np.arange(1, t)[:, None]) % 2
        for p in range(1, t):
            np.testing.assert_array_equal(mask_law(p, t)[1], expected_full[p - 1])
    elapsed = time.time() - start
    assert elapsed < 5.0
    print(f"[criterion 5] PASS mask law: all (p, T) with p < T <= 256, "
          f"{elapsed:.1f}s")


def test_c06_intervention_band_preservation():
    rng = np.random.default_rng(106)
    start = time.time()
    worst = 0.0
    for _ in range(200):
        t = int(rng.integers(16, 128))
        d = int(rng.integers(1, 4))
        x = rng.normal(size=(t, d))
        k_h_frac = 0.25
        out = intervene(x[None], k_h_frac=k_h_frac, sigma=1.0, noise="gaussian",
                        rng=rng)[0]
        k_h = min(max(int(round(k_h_frac * t)), 1), t // 2)
        diff = np.abs(np.fft.fft(out, axis=0) - np.fft.fft(x, axis=0))
        worst = max(worst, float(diff[:k_h].max()))
    elapsed = time.time() - start
    assert worst < 1e-8
    assert elapsed < 5.0
    print(f"[criterion 6] PASS band preservation: 200 windows, "
          f"max low-band drift = {worst:.2e}, {elapsed:.1f}s")


def test_c07_loss_identities():
    start = time.time()
    # sigma = 0 -> zero similarity loss through the full objective
    cfg = TrainConfig(window_length=12, hidden=6, n_factors=2, k_periods=2,
                      num_layers=2, num_blocks=1, sigma=0.0, seed=107,
                      epochs=1)
    synth = SynthConfig(length=64, dims=2, periods={6: 2.0}, noise_std=0.3,
                        seed=107)
    windows = make_windows(generate(synth).values, 12, stride=7)
    bundle = build_models(cfg, 2, 6, np.random.default_rng(108))
    total, comps = total_loss(windows, bundle, np.random.default_rng(109))
    assert abs(comps["similarity"]) < 1e-12

    # orthonormal factor rows -> zero independence loss
    rows = np.linalg.qr(np.random.default_rng(110).normal(size=(6, 3)))[0].T
    assert independence_loss(Tensor(rows[None])).item() < 1e-24

    # alpha = beta = 0 -> total equals the flow NLL exactly
    cfg0 = TrainConfig(window_length=12, hidden=6, n_factors=2, k_periods=2,
                       num_layers=2, num_blocks=1, alpha=0.0, beta=0.0,
                       seed=107, epochs=1)
    bundle0 = build_models(cfg0, 2, 6, np.random.default_rng(111))
    total0, comps0 = total_loss(windows, bundle0, np.random.default_rng(112))
    assert total0.item() == comps0["nll"]
    elapsed = time.time() - start
    assert elapsed < 5.0
    print(f"[criterion 7] PASS loss identities, {elapsed:.1f}s")


def test_c08_auroc_oracle():
    rng = np.random.default_rng(108)
    start = time.time()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 201))
        scores = np.round(rng.normal(size=n), 1)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        brute = sum((p > neg).sum() + 0.5 * (p == neg).sum() for p in pos)
        brute /= len(pos) * len(neg)
        worst = max(worst, abs(auroc(scores, labels) - brute))
    elapsed = time.time() - start
    assert worst < 1e-12
    assert elapsed < 5.0
    print(f"[criterion 8] PASS auroc oracle: 100 sets, max diff = {worst:.1e}, "
          f"{elapsed:.1f}s")


DETECTION_ANOMALIES = [
    Anomaly("spike", 420, 2, 8.0),
    Anomaly("level_shift", 700, 30, 4.0),
    Anomaly("period_break", 1150, 31, 7),
    Anomaly("spike", 1900, 2, -8.0),
    Anomaly("level_shift", 2405, 30, -4.0),
    Anomaly("spike", 2880, 2, 8.0),
    Anomaly("level_shift", 3300, 30, 4.0),
    Anomaly("period_break", 3650, 31, 7),
]


def _detection_run(seed: int, anomalies, use_periodic_mask: bool = True,
                   epochs: int = 15, noise_std: float = 0.3,
                   train_stride: int = 2):
    synth = SynthConfig(4000, 3, {20: 3.0, 60: 1.0}, noise_std, anomalies,
                        seed=seed)
    series = generate(synth)
    cfg = TrainConfig(epochs=epochs, batch_size=32, window_length=60,
                      train_stride=train_stride, alpha=0.1, beta=0.1,
                      k_periods=3, n_factors=4, hidden=32, num_layers=2,
                      num_blocks=2, sigma=0.1, seed=seed, patience=5,
                      use_periodic_mask=use_periodic_mask)
    data = prepare_series(series.values, cfg)
    bundle, history = fit(data["train"], data["val"], cfg,
                          data["global_period"])
    _, _, test_labels = chronological_split(series.labels, 0.6, 0.2)
    windows = data["test"]
    tau, tau_t, _ = score_windows(bundle, windows)
    pts = window_scores_to_points([tau_t], len(test_labels))
    trained = auroc(pts, test_labels)
    base_t = 0.5 * np.sum(windows ** 2, axis=2)
    base_pts = window_scores_to_points([base_t], len(test_labels))
    baseline = auroc(base_pts, test_labels)
    return trained, baseline, history


@pytest.mark.slow
def test_c09_synthetic_detection():
    # T_l=4000, D=3, periods {20, 60}, noise 0.3, 8 mixed anomalies
    # (158/4000 = 3.95% anomalous points); mean pointwise AUROC over three
    # seeds must reach 0.85 and beat the identity-flow energy baseline
    results = []
    for seed in (0, 1, 2):
        start = time.time()
        trained, baseline, _ = _detection_run(seed, DETECTION_ANOMALIES)
        elapsed = time.time() - start
        assert elapsed < 600.0, f"run for seed {seed} exceeded 10 minutes"
        results.append((trained, baseline, elapsed))
    mean_trained = float(np.mean([r[0] for r in results]))
    mean_baseline = float(np.mean([r[1] for r in results]))
    assert mean_baseline < mean_trained, (
        f"baseline {mean_baseline:.4f} not strictly below trained {mean_trained:.4f}")
    assert mean_trained >= 0.85
    detail = ", ".join(f"seed{i}: {r[0]:.3f} (base {r[1]:.3f}, {r[2]:.0f}s)"
                       for i, r in enumerate(results))
    print(f"[criterion 9] PASS detection: mean AUROC = {mean_trained:.4f} "
          f"(baseline {mean_baseline:.4f}); {detail}")


BREAK_HEAVY_ANOMALIES = [
    Anomaly("period_break", 420, 30, 16),
    Anomaly("period_break", 1150, 30, 26),
    Anomaly("spike", 1900, 2, 8.0),
    Anomaly("period_break", 2405, 30, 16),
    Anomaly("level_shift", 2880, 20, 4.0),
    Anomaly("period_break", 3350, 30, 26),
    Anomaly("period_break", 3700, 30, 16),
]


@pytest.mark.slow
def test_c10_mask_ablation_direction():
    # on period-break-heavy data (subtle period changes, higher noise),
    # replacing the period-aligned mask with a fixed half/half split must
    # strictly reduce mean AUROC over 3 seeds
    with_mask, without_mask = [], []
    for seed in (0, 1, 2):
        trained, _, _ = _detection_run(seed, BREAK_HEAVY_ANOMALIES,
                                       use_periodic_mask=True, epochs=10,
                                       noise_std=0.5, train_stride=3)
        with_mask.append(trained)
        ablated, _, _ = _detection_run(seed, BREAK_HEAVY_ANOMALIES,
                                       use_periodic_mask=False, epochs=10,
                                       noise_std=0.5, train_stride=3)
        without_mask.append(ablated)
    mean_with = float(np.mean(with_mask))
    mean_without = float(np.mean(without_mask))
    assert mean_without < mean_with, (
        f"half/half mask {mean_without:.4f} not strictly below "
        f"periodic mask {mean_with:.4f}")
    print(f"[criterion 10] PASS mask ablation: periodic {mean_with:.4f} > "
          f"half/half {mean_without:.4f} "
          f"(per seed: {[round(float(v), 3) for v in with_mask]} vs "
          f"{[round(float(v), 3) for v in without_mask]})")


def test_c11_identity_start_nll():
    # zero-initialised flow heads: epoch-0 training NLL equals the
    # closed-form standard-normal NLL of the standardized windows
    cfg = TrainConfig(window_length=24, hidden=8, n_factors=2, k_periods=2,
                      num_layers=2, num_blocks=2, train_stride=2, epochs=1,
                      seed=111)
    synth = SynthConfig(length=600, dims=2, periods={12: 3.0, 4: 1.0},
                        noise_std=0.3, seed=111)
    data = prepare_series(generate(synth).values, cfg)
    bundle = build_models(cfg, 2, data["global_period"],
                          np.random.default_rng(112))
    row = evaluate_objective(data["train"], bundle,
                             np.random.default_rng(113))
    w = data["train"]
    closed_form = 0.5 * w.shape[1] * w.shape[2] * LOG_2PI + \
        0.5 * float(np.mean(np.sum(w ** 2, axis=(1, 2))))
    assert abs(row["nll"] - closed_form) < 1e-6
    print(f"[criterion 11] PASS identity-start NLL: {row['nll']:.6f} vs "
          f"closed form {closed_form:.6f}")


def test_c12_complexity_smoke():
    # scoring cost across T in {60, 120, 240} scales near-linearly:
    # the ratio of successive cost ratios stays within 1.5x. Windows carry
    # the periodic structure the detector targets; white noise would
    # fragment period selection into per-window groups and measure python
    # dispatch instead of the pipeline.
    rng = np.random.default_rng(114)
    cfg = TrainConfig(window_length=60, hidden=32, n_factors=4, k_periods=3,
                      num_layers=2, num_blocks=2, epochs=1, seed=114)
    bundle = build_models(cfg, 3, 20, rng)
    synth = SynthConfig(length=1200, dims=3, periods={20: 3.0, 60: 1.0},
                        noise_std=0.3, seed=114)
    series = generate(synth)
    times = {}
    for t in (60, 120, 240):
        windows = make_windows(series.values, t, stride=4)[:240]
        score_windows(bundle, windows[:8], batch_size=32)  # warm-up
        reps = []
        # modest chunks and a median keep allocator jitter out of the
        # measurement; single huge chunks at T=240 time the allocator
        for _ in range(5):
            start = time.perf_counter()
            score_windows(bundle, windows, batch_size=32)
            reps.append(time.perf_counter() - start)
        times[t] = float(np.median(reps))
    r1 = times[120] / times[60]
    r2 = times[240] / times[120]
    ratio_of_ratios = max(r1, r2) / min(r1, r2)
    assert ratio_of_ratios < 1.5, f"ratios {r1:.2f}, {r2:.2f}"
    detail = {t: round(v, 3) for t, v in times.items()}
    print(f"[criterion 12] PASS complexity: times {detail}, "
          f"ratios {r1:.2f}/{r2:.2f}, ratio-of-ratios {ratio_of_ratios:.2f}")
