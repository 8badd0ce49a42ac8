"""Objective composition, fit loop behaviour, checkpoint round-trips."""
import json
import tracemalloc

import numpy as np
import pytest

from periflow.autodiff import Tensor
from periflow.causal import independence_loss, similarity_loss
from periflow.config import GenConfig
from periflow.factors import extract_pyramid
from periflow import flow
from periflow.flow import _CONTEXT_BLOCK, LOG_2PI, condition, forward, nll_loss
from periflow.fusion import fuse
from periflow.optim import ParamStore
from periflow.spectral import intervene, top_k_periods
from periflow.synthetic import generate
from periflow.training import (TrainConfig, TrainingDiverged,
                               build_models, encode_batch, evaluate_objective,
                               fit, history_to_csv, load_checkpoint,
                               prepare_series, save_checkpoint,
                               score_windows, total_loss)

CFG = dict(window_length=24, hidden=8, n_factors=2, k_periods=2, num_layers=2,
           num_blocks=1, batch_size=16, epochs=3, train_stride=2, seed=1)


def _data(length=400, seed=0, noise=0.3):
    return generate(GenConfig(gen_length=length, gen_dims=2, gen_periods="8:2.0,3:0.5",
                              gen_noise_std=noise), seed)


def _prepared(config=None, length=400):
    config = config or TrainConfig(**CFG)
    data = prepare_series(_data(length).values, config)
    return config, data


def test_total_loss_weight_degeneracy():
    config, data = _prepared(TrainConfig(**{**CFG, "alpha": 0.0, "beta": 0.0}))
    bundle = build_models(config, 2, data["global_period"],
                          np.random.default_rng(0))
    windows = data["train"][:8]
    total, comps = total_loss(windows, bundle, np.random.default_rng(1))
    assert total.item() == comps["nll"]


def test_total_loss_zero_sigma_sim_vanishes():
    config, data = _prepared(TrainConfig(**{**CFG, "sigma": 0.0}))
    bundle = build_models(config, 2, data["global_period"],
                          np.random.default_rng(0))
    total, comps = total_loss(data["train"][:8], bundle,
                              np.random.default_rng(1))
    assert abs(comps["similarity"]) < 1e-12


def test_total_loss_matches_module_composition():
    # the batched path must agree with encoding window by window,
    # drawing the band noise in the same order
    config, data = _prepared()
    bundle = build_models(config, 2, data["global_period"],
                          np.random.default_rng(3))
    windows = data["train"][:6]
    seed = 99
    total, comps = total_loss(windows, bundle, np.random.default_rng(seed))

    rng = np.random.default_rng(seed)
    reps_clean, reps_aug = [], []
    for w in windows:
        w_aug = intervene(w[None], k_h_frac=config.k_h_frac, sigma=config.sigma,
                          noise=config.noise, rng=rng)
        reps_clean.append(encode_batch(w[None], bundle)[0].data[0])
        reps_aug.append(encode_batch(w_aug, bundle)[0].data[0])
    c_o = np.stack(reps_clean)
    c_aug = np.stack(reps_aug)
    l_sim = similarity_loss(Tensor(c_o), Tensor(c_aug)).item()
    l_ind = independence_loss(Tensor(0.5 * (c_o + c_aug))).item()
    h_c = condition(Tensor(0.5 * (c_o + c_aug)), bundle.flow)
    l_nf = nll_loss(windows, h_c, bundle.flow).item()

    assert abs(comps["similarity"] - l_sim) < 1e-9
    assert abs(comps["independence"] - l_ind) < 1e-9
    assert abs(comps["nll"] - l_nf) < 1e-9
    assert abs(total.item() - (l_nf + 0.1 * l_sim + 0.1 * l_ind)) < 1e-9


def test_encode_batch_matches_per_window():
    config, data = _prepared()
    bundle = build_models(config, 2, data["global_period"],
                          np.random.default_rng(4))
    windows = data["train"][:5]
    rep, diags = encode_batch(windows, bundle)
    for key in ("periods", "amp_weights", "attention"):
        assert diags[key].shape == (5, config.k_periods)
    for i, w in enumerate(windows):
        picks = top_k_periods(w[None], config.k_periods, bundle.miner.embed_w.data)
        one = fuse(extract_pyramid(w[None], bundle.miner, picks.periods,
                                   picks.spectrum), bundle.fusion)
        np.testing.assert_allclose(rep.data[i], one.values.data[0], atol=1e-9)
        np.testing.assert_array_equal(diags["periods"][i], picks.periods[0])
        np.testing.assert_allclose(diags["attention"][i], one.attention[0],
                                   atol=1e-12)


def test_encode_batch_folds_and_fuses_once(monkeypatch):
    import periflow.training as training
    config, data = _prepared()
    bundle = build_models(config, 2, data["global_period"],
                          np.random.default_rng(4))
    windows = data["train"][:7].copy()
    windows[2] = 0.7  # a constant window rides in the same pyramid
    calls = {"extract_pyramid": 0, "fuse": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    for name in calls:
        monkeypatch.setattr(training, name, counted(name, getattr(training, name)))
    encode_batch(windows, bundle)
    assert calls == {"extract_pyramid": 1, "fuse": 1}


def test_encode_batch_tape_size_is_fixed(monkeypatch):
    # the fold is one node however many distinct periods a batch picks,
    # so a recorded 32-window encode creates a fixed number of tensors
    config = TrainConfig(**{**CFG, "window_length": 60, "k_periods": 3})
    bundle = build_models(config, 2, 12, np.random.default_rng(7))
    init = Tensor.__init__
    created = [0]

    def counted(self, *args, **kwargs):
        created[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counted)
    counts = []
    for seed in (0, 1):
        windows = np.random.default_rng(seed).normal(size=(32, 60, 2))
        created[0] = 0
        rep, diags = encode_batch(windows, bundle)
        assert rep.requires_grad and np.unique(diags["periods"]).size > 10
        counts.append(created[0])
    assert counts[0] == counts[1] <= 44


def test_identity_start_nll_is_standard_normal():
    config, data = _prepared()
    bundle = build_models(config, 2, data["global_period"],
                          np.random.default_rng(5))
    windows = data["train"]
    row = evaluate_objective(windows, bundle, np.random.default_rng(6))
    t, d = windows.shape[1], windows.shape[2]
    expected = 0.5 * t * d * LOG_2PI + 0.5 * np.mean(np.sum(windows ** 2, axis=(1, 2)))
    assert abs(row["nll"] - expected) < 1e-6


def test_fit_improves_and_is_deterministic(tmp_path):
    config, data = _prepared()
    bundle1, hist1 = fit(data["train"], data["val"], config,
                         data["global_period"], data["stats"])
    bundle2, hist2 = fit(data["train"], data["val"], config,
                         data["global_period"], data["stats"])
    assert hist1 == hist2
    for a, b in zip(bundle1.named_params().values(), bundle2.named_params().values()):
        np.testing.assert_array_equal(a.data, b.data)
    assert hist1[-1]["nll"] < hist1[0]["nll"]

    p1, p2 = tmp_path / "h1.csv", tmp_path / "h2.csv"
    history_to_csv(hist1, p1)
    history_to_csv(hist2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_fit_nll_decreases_on_standard_normal_stream():
    # the identity start is already near-optimal for white noise, so any
    # decrease must come from the conditional adaptation; epoch 10 must
    # still sit below epoch 0
    rng = np.random.default_rng(0)
    cfg = TrainConfig(window_length=24, hidden=8, n_factors=2, k_periods=2,
                      num_layers=2, num_blocks=1, batch_size=32, epochs=10,
                      train_stride=2, seed=1, patience=100)
    data = prepare_series(rng.normal(size=(500, 1)), cfg)
    _, hist = fit(data["train"], data["val"], cfg, data["global_period"])
    assert hist[10]["nll"] < hist[0]["nll"]


def test_fit_retains_best_validation_epoch():
    config, data = _prepared()
    _, history = fit(data["train"], data["val"], config,
                     data["global_period"])
    best_rows = [r for r in history if r["best"]]
    assert len(best_rows) == 1
    assert all(best_rows[0]["val_nll"] <= r["val_nll"] + 1e-12 for r in history)


def test_fit_alpha_beta_zero_matches_manual_nll_path():
    # with alpha=beta=0 the update must be driven by the nll gradient alone
    config, data = _prepared(TrainConfig(**{**CFG, "alpha": 0.0, "beta": 0.0,
                                            "epochs": 1}))
    windows = data["train"][:16]

    def one_step(alpha, beta):
        cfg = TrainConfig(**{**CFG, "alpha": alpha, "beta": beta, "epochs": 1})
        bundle = build_models(cfg, 2, data["global_period"],
                              np.random.default_rng(7))
        store = ParamStore(bundle.named_params())
        loss, _ = total_loss(windows, bundle, np.random.default_rng(8))
        store.zero_grad()
        loss.backward()
        store.adam_step(cfg.lr)
        return {n: t.data.copy() for n, t in bundle.named_params().items()}

    base = one_step(0.0, 0.0)

    # manual path: backward through the nll component alone, bypassing
    # total_loss; zero weights must contribute no gradient at all
    from periflow.spectral import intervene
    cfg = TrainConfig(**{**CFG, "alpha": 0.0, "beta": 0.0, "epochs": 1})
    bundle = build_models(cfg, 2, data["global_period"], np.random.default_rng(7))
    store = ParamStore(bundle.named_params())
    rng = np.random.default_rng(8)
    clean_rep, _ = encode_batch(windows, bundle)
    augmented = np.concatenate([intervene(w[None], k_h_frac=cfg.k_h_frac,
                                          sigma=cfg.sigma, noise=cfg.noise, rng=rng)
                                for w in windows])
    aug_rep, _ = encode_batch(augmented, bundle)
    conditioning = (clean_rep + aug_rep) * 0.5
    nll_only = nll_loss(windows, condition(conditioning, bundle.flow), bundle.flow)
    store.zero_grad()
    nll_only.backward()
    store.adam_step(cfg.lr)
    manual = {n: t.data.copy() for n, t in bundle.named_params().items()}
    for name in base:
        np.testing.assert_array_equal(base[name], manual[name])

    # and weighted losses must move parameters differently
    moved = one_step(0.5, 0.5)
    diffs = [not np.array_equal(moved[n], base[n]) for n in base]
    assert any(diffs)


def test_gradient_reaches_every_parameter_group():
    # two steps: the zero-initialised flow output layers block upstream
    # gradients at step 1 by construction (identity start), so the dead
    # subgraph check runs after they have moved off zero
    config, data = _prepared()
    bundle = build_models(config, 2, data["global_period"],
                          np.random.default_rng(9))
    store = ParamStore(bundle.named_params())
    before = store.snapshot()
    rng = np.random.default_rng(10)
    for _ in range(2):
        loss, _ = total_loss(data["train"][:16], bundle, rng)
        store.zero_grad()
        loss.backward()
        store.adam_step(config.lr)
    after = store.snapshot()
    unchanged = [n for n in before if np.array_equal(before[n], after[n])]
    assert unchanged == []


def _graph_order(root):
    """Nodes reachable from root, in the library's topological order."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        stack.extend((p, False) for p in node._parents
                     if p.requires_grad and id(p) not in seen)
    return order


def _sweep_keeping_every_grad(root):
    """The reverse sweep as it was before intermediates were freed: every
    node keeps its gradient."""
    root.grad = np.ones_like(root.data)
    for node in reversed(_graph_order(root)):
        if node._backward is None or node.grad is None:
            continue
        for parent, g in zip(node._parents, node._backward(node.grad)):
            if g is not None and parent.requires_grad:
                parent.grad = np.array(g) if parent.grad is None else parent.grad + g


def test_backward_frees_intermediate_grads_only():
    config, data = _prepared()
    bundle = build_models(config, 2, data["global_period"],
                          np.random.default_rng(12))
    params = bundle.named_params()
    loss, _ = total_loss(data["train"][:8], bundle,
                         np.random.default_rng(13))
    inner = [n for n in _graph_order(loss) if n._backward is not None]
    # the fused miner, fusion and log_prob nodes keep the graph near 40
    # nodes, each with its data: no op makes a hidden node
    assert len(inner) > 40 and all(n.size > 0 for n in inner)

    loss.backward()
    assert all(n.grad is None for n in inner)
    freed = {name: t.grad for name, t in params.items()}
    assert all(g is not None for g in freed.values())

    for t in params.values():
        t.grad = None
    _sweep_keeping_every_grad(loss)
    assert all(n.grad is not None for n in inner)
    for name, t in params.items():
        np.testing.assert_array_equal(t.grad, freed[name])


@pytest.mark.parametrize("num_layers", [1, 2, 3])
def test_total_loss_runs_the_flow_once_as_one_node(num_layers, monkeypatch):
    # the loss reaches the coupling layers through `flow.forward` once (the
    # name a tracer patches), and its graph holds one flow node: the
    # log-density, whose parents are every coupling-net weight
    config, data = _prepared(TrainConfig(**{**CFG, "num_layers": num_layers}))
    bundle = build_models(config, 2, data["global_period"],
                          np.random.default_rng(14))
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return forward(*args, **kwargs)

    monkeypatch.setattr(flow, "forward", counted)
    loss, _ = total_loss(data["train"][:8], bundle, np.random.default_rng(15))
    assert len(calls) == 1
    weights = {id(p) for name, p in bundle.flow.named().items() if ".layer" in name}
    assert len(weights) == 8 * num_layers
    flow_nodes = [n for n in _graph_order(loss) if weights & {id(p) for p in n._parents}]
    assert len(flow_nodes) == 1
    assert weights <= {id(p) for p in flow_nodes[0]._parents}


def test_fit_divergence_aborts_with_context(tmp_path):
    # an absurd learning rate blows the translation nets up until the
    # quadratic latent term overflows to inf
    config, data = _prepared(TrainConfig(**{**CFG, "lr": 1e200, "epochs": 4}))
    ckpt = tmp_path / "last_good.npz"
    with np.errstate(over="ignore"), pytest.raises(TrainingDiverged) as info:
        fit(data["train"], data["val"], config, data["global_period"],
            checkpoint_path=ckpt)
    assert info.value.epoch >= 1 and info.value.batch_index >= 0
    assert ckpt.exists()
    load_checkpoint(ckpt)  # still loadable


def test_checkpoint_roundtrip(tmp_path):
    config, data = _prepared()
    bundle, _ = fit(data["train"], data["val"], config,
                    data["global_period"], data["stats"])
    path = tmp_path / "model.npz"
    save_checkpoint(path, bundle)
    loaded = load_checkpoint(path)
    for (n1, t1), (n2, t2) in zip(sorted(bundle.named_params().items()),
                                  sorted(loaded.named_params().items())):
        assert n1 == n2
        np.testing.assert_array_equal(t1.data, t2.data)
    assert loaded.global_period == bundle.global_period
    np.testing.assert_array_equal(loaded.stats.mean, bundle.stats.mean)

    windows = data["test"][:10]
    tau_a, _, _ = score_windows(bundle, windows)
    tau_b, _, _ = score_windows(loaded, windows)
    np.testing.assert_array_equal(tau_a, tau_b)


def test_checkpoint_with_mask_meta_entries_loads_and_scores_the_same(tmp_path):
    # earlier checkpoints also wrote the mask period and context radius
    # into meta; the loader derives both from the config and the global
    # period, so such a checkpoint rebuilds the same flow and scores alike
    config, data = _prepared()
    bundle = build_models(config, 2, 30, np.random.default_rng(12))  # 30 >= T: clamped
    rng = np.random.default_rng(13)
    for layer in bundle.flow.layers:
        for net in (layer.s_net, layer.t_net):
            for p in net.layers[-1]:
                p.data = rng.normal(0.0, 0.3, size=p.shape)
    path = tmp_path / "model.npz"
    save_checkpoint(path, bundle)
    with np.load(path, allow_pickle=False) as blob:
        arrays = {k: blob[k] for k in blob.files}
    meta = json.loads(bytes(arrays["meta"]).decode())
    assert set(meta) == {"format_version", "config", "global_period", "d_in"}
    meta = {"format_version": meta["format_version"], "config": meta["config"],
            "global_period": 30, "mask_period": 12, "d_in": 2, "context_radius": 12}
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    older = tmp_path / "older.npz"
    with open(older, "wb") as fh:
        np.savez(fh, **arrays)
    windows = data["test"][:10]
    want, want_t, _ = score_windows(bundle, windows)
    for loaded in (load_checkpoint(path), load_checkpoint(older)):
        assert loaded.flow.mask_period == loaded.flow.context_radius == 12
        tau, tau_t, _ = score_windows(loaded, windows)
        np.testing.assert_array_equal(tau, want)
        np.testing.assert_array_equal(tau_t, want_t)


def test_checkpoint_shape_mismatch_fails_loudly(tmp_path):
    config, data = _prepared()
    bundle = build_models(config, 2, data["global_period"],
                          np.random.default_rng(11))
    path = tmp_path / "model.npz"
    save_checkpoint(path, bundle)

    import json as _json
    import numpy as _np
    with _np.load(path, allow_pickle=False) as blob:
        arrays = {k: blob[k] for k in blob.files}
    meta = _json.loads(bytes(arrays["meta"]).decode())
    meta["config"]["hidden"] = 16  # lie about the architecture
    arrays["meta"] = _np.frombuffer(_json.dumps(meta).encode(), dtype=_np.uint8)
    with open(path, "wb") as fh:
        _np.savez(fh, **arrays)
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    assert str(info.value).startswith(f"{path}: not a periflow checkpoint (param/")
    assert "has shape" in str(info.value)


def test_score_windows_deterministic():
    config, data = _prepared()
    bundle = build_models(config, 2, data["global_period"],
                          np.random.default_rng(12))
    windows = data["test"][:10]
    tau1, tau_t1, diag1 = score_windows(bundle, windows)
    tau2, tau_t2, _ = score_windows(bundle, windows)
    np.testing.assert_array_equal(tau1, tau2)
    np.testing.assert_array_equal(tau_t1, tau_t2)
    assert sorted(diag1) == ["amp_weights", "attention", "periods"]
    _, _, chunked = score_windows(bundle, windows, batch_size=4)
    for key in diag1:  # chunks are concatenated in window order
        assert diag1[key].shape == (10, config.k_periods)
        np.testing.assert_allclose(chunked[key], diag1[key], rtol=1e-12, atol=1e-15)


def _c09_bundle(length=1000, global_period=None):
    """A c09-sized model (T=60, H=32, N=4, k=3, 2 layers of 2 blocks) with
    its flow heads moved off zero, and its c09-style series prepared; the
    model is built for `global_period`, or for the series' own."""
    series = generate(GenConfig(gen_length=length, gen_periods="20:3.0,60:1.0",
                                gen_anomalies="spike:650:2:8.0;level_shift:700:20:4.0"),
                      seed=4)
    config = TrainConfig(window_length=60, seed=4)
    data = prepare_series(series.values, config)
    bundle = build_models(config, 3, global_period or data["global_period"],
                          np.random.default_rng(5))
    rng = np.random.default_rng(6)
    for layer in bundle.flow.layers:
        for net in (layer.s_net, layer.t_net):
            w, b = net.layers[-1]
            w.data = rng.normal(0.0, 0.3, size=w.shape)
            b.data = rng.normal(0.0, 0.3, size=b.shape)
    return bundle, data


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_window_scores_alike_alone_and_in_a_chunk(dtype):
    # a window scored alone against the same window inside a 256-window
    # chunk: bitwise, in float32 and in float64, at mask periods 20, 30 and
    # 25, whose coupling layers move 40 and 20, 30 and 30, and 35 and 25
    # rows (a global period of at least T masks at T/2)
    for global_period, mask_period in ((20, 20), (60, 30), (25, 25)):
        bundle, data = _c09_bundle(global_period=global_period)
        assert bundle.flow.mask_period == mask_period
        windows = data["train"][:256]
        assert windows.shape[0] == 256
        twin = bundle.astype(dtype)
        tau, tau_t, diags = score_windows(twin, windows)
        assert 60 in diags["periods"]  # a one-cycle fold, whose row mean is one row
        # the first and last windows of the first coupling-context block too
        for i in (0, 1, _CONTEXT_BLOCK - 1, _CONTEXT_BLOCK, 255):
            one, one_t, _ = score_windows(twin, windows[i:i + 1])
            where = f"mask period {mask_period}, window {i}"
            np.testing.assert_array_equal(one, tau[i:i + 1], err_msg=where)
            np.testing.assert_array_equal(one_t, tau_t[i:i + 1], err_msg=where)


@pytest.mark.parametrize("d, bound_mb", [(3, 3.3), (38, 31.5)])
def test_score_chunk_peak_memory(d, bound_mb):
    # one 256-window float32 chunk at T=60, H=32 and context radius 20:
    # the coupling context is built a block of windows at a time, so no
    # (256, M, (2r+1)D + H) array is made (it alone is 6.3 MB at D=3 and
    # 65 MB at D=38); the bounds are 1.5 times the measured peaks, 2.2 and
    # 21.0 MB
    config = TrainConfig(window_length=60, hidden=32)
    bundle = build_models(config, d, 20, np.random.default_rng(5)).astype(np.float32)
    assert bundle.flow.context_radius == 20
    windows = np.random.default_rng(6).normal(size=(256, 60, d))
    score_windows(bundle, windows)  # warm the caches of the mask rows
    tracemalloc.start()
    try:
        score_windows(bundle, windows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * 1e6, f"peak {peak / 1e6:.1f} MB"


def test_float32_twin_scores_close_to_float64():
    bundle, data = _c09_bundle()
    params = {name: t.data for name, t in bundle.named_params().items()}
    twin = bundle.astype(np.float32)
    assert all(t.data.dtype == np.float32 for t in twin.named_params().values())
    for name, t in bundle.named_params().items():  # the original is untouched
        assert t.data is params[name] and t.data.dtype == np.float64
    windows = data["test"]
    tau, tau_t, diags = score_windows(bundle, windows)
    tau32, tau32_t, diags32 = score_windows(twin, windows)
    assert tau32.dtype == tau32_t.dtype == np.float64
    np.testing.assert_array_equal(diags32["periods"], diags["periods"])
    # float32 rounds at 6e-8 relative; a window's NLL sums a few hundred
    # rounded terms, so 1e-5 leaves room without hiding a real change
    np.testing.assert_allclose(tau32, tau, rtol=1e-5)
    np.testing.assert_allclose(tau32_t, tau_t, rtol=1e-5, atol=1e-5)


def test_evaluate_objective_matches_taped_loss():
    config, data = _prepared()
    bundle = build_models(config, 2, data["global_period"], np.random.default_rng(7))
    windows = data["val"]
    comps = evaluate_objective(windows, bundle, np.random.default_rng(8))
    loss, taped = total_loss(windows, bundle, np.random.default_rng(8))
    assert loss._backward is not None
    assert comps == pytest.approx(taped, rel=1e-12)


def test_constant_window_beside_ordinary_ones():
    # a constant window has energy only at DC, yet it picks k_periods bins
    # (the lowest ones) like every other window, in the same pyramid
    config, data = _prepared()
    bundle = build_models(config, 2, data["global_period"],
                          np.random.default_rng(14))
    windows = data["train"][:6].copy()
    windows[3] = 0.7
    rep, diags = encode_batch(windows, bundle)
    assert diags["periods"].shape == (6, config.k_periods)
    t = config.window_length
    assert diags["periods"][3].tolist() == [-(-t // f)
                                            for f in range(1, config.k_periods + 1)]
    for i, w in enumerate(windows):
        np.testing.assert_allclose(rep.data[i], encode_batch(w[None], bundle)[0].data[0],
                                   atol=1e-12)

    store = ParamStore(bundle.named_params())
    loss, _ = total_loss(windows, bundle, np.random.default_rng(15))
    store.zero_grad()
    loss.backward()
    store.adam_step(config.lr)
    assert all(np.all(np.isfinite(t.data)) for t in bundle.named_params().values())

    tau, tau_t, scored = score_windows(bundle, windows)
    assert tau.shape == (6,) and np.all(np.isfinite(tau_t))
    assert scored["periods"].shape == (6, config.k_periods)


def test_fit_on_series_with_a_zero_stretch():
    # at the identity start an all-zero window has a zero representation
    # and zero picked amplitudes; training leaves it out of the similarity
    series = _data(2000)
    series.values[500:600] = 0.0
    config = TrainConfig(**{**CFG, "epochs": 1, "apply_standardization": False})
    data = prepare_series(series.values, config)
    assert np.any(np.all(data["train"] == 0.0, axis=(1, 2)))
    _, history = fit(data["train"], data["val"], config, data["global_period"])
    assert len(history) == 2
    assert all(np.isfinite(row[key]) for row in history
               for key in ("nll", "similarity", "independence", "val_nll"))


@pytest.mark.parametrize("kind", ["csv", "npy", "npz"])
def test_load_checkpoint_rejects_other_files(tmp_path, kind):
    path = tmp_path / "model.npz"
    if kind == "csv":
        path.write_text("t,x0\n0,1.0\n")
    else:
        with open(path, "wb") as fh:
            (np.save if kind == "npy" else np.savez)(fh, np.zeros(3))
    with pytest.raises(ValueError, match="not a periflow checkpoint") as info:
        load_checkpoint(path)
    assert str(info.value).startswith(str(path))
    assert "pickle" not in str(info.value)
