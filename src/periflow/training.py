"""End-to-end training: joint objective, fit loop, checkpoints, scoring.

The objective combines the flow negative log-likelihood on clean windows
(conditioned on the averaged clean/augmented representation) with the
consistency and orthogonality treatment losses:

    total = nll + alpha * similarity + beta * independence

Every window picks exactly k periods, and the batch is folded as one
(B, k, N, D_h) pyramid and fused once, which keeps the math equal to a
window-at-a-time composition of the module-level operations.
"""
from __future__ import annotations

import copy
import json
import zipfile
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .causal import independence_loss, similarity_loss
# `embed` is not called here; perfbench's tracer looks it up in this module
from .factors import MinerParams, embed, extract_pyramid, init_miner  # noqa: F401
from .flow import FlowModel, condition, anomaly_score, init_flow, mask_law, nll_loss
from .fusion import FusionParams, fuse, init_fusion
from .optim import ParamStore
from .series import MultivariateSeries, SeriesError, SplitSpec, Standardization, \
    make_windows, standardize
from .spectral import discover_global_period, intervene, top_k_periods

CHECKPOINT_VERSION = 1
SCORE_CHUNK = 256  # windows per scoring pass


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch: int, batch_index: int):
        super().__init__(f"non-finite loss at epoch {epoch}, batch {batch_index}")
        self.epoch = epoch
        self.batch_index = batch_index


@dataclass
class TrainConfig:
    lr: float = 0.001
    epochs: int = 30
    batch_size: int = 32
    window_length: int = 60
    train_stride: int = 1
    alpha: float = 0.1
    beta: float = 0.1
    k_periods: int = 3
    n_factors: int = 4
    hidden: int = 32
    num_layers: int = 2
    num_blocks: int = 2
    sigma: float = 0.1
    k_h_frac: float = 0.25
    noise: str = "gaussian"
    seed: int = 0
    patience: int = 10
    context_radius: int = -1  # -1: the clamped global period, even without the periodic mask
    use_periodic_mask: bool = True  # False: fixed half/half split mask
    apply_standardization: bool = True

    def __post_init__(self):
        for key, valid, rule in (
                ("lr", np.isfinite(self.lr) and self.lr > 0, "finite and > 0"),
                ("epochs", self.epochs >= 1, ">= 1"),
                ("batch_size", self.batch_size >= 1, ">= 1"),
                ("alpha", np.isfinite(self.alpha) and self.alpha >= 0, "finite and >= 0"),
                ("beta", np.isfinite(self.beta) and self.beta >= 0, "finite and >= 0"),
                ("window_length", self.window_length >= 1, ">= 1"),
                ("k_periods", 1 <= self.k_periods < self.window_length / 2,
                 "in [1, window_length / 2)"),
                ("hidden", self.hidden >= 1, ">= 1"),
                ("n_factors", self.n_factors >= 1, ">= 1"),
                ("num_layers", self.num_layers >= 1, ">= 1"),
                ("num_blocks", self.num_blocks >= 0, ">= 0"),
                ("train_stride", self.train_stride >= 1, ">= 1"),
                ("sigma", np.isfinite(self.sigma) and self.sigma >= 0, "finite and >= 0"),
                ("k_h_frac", 0 < self.k_h_frac < 1, "in (0, 1)"),
                ("context_radius", self.context_radius >= -1, ">= -1")):
            if not valid:
                raise ValueError(f"{key} must be {rule}, got {getattr(self, key)!r}")
        if self.noise not in ("gaussian", "laplace"):
            raise ValueError(f"noise must be 'gaussian' or 'laplace', got {self.noise!r}")


@dataclass
class ModelBundle:
    """Everything needed to score: parameter groups, period, input stats
    and the names of the data columns trained on, in order."""

    miner: MinerParams
    fusion: FusionParams
    flow: FlowModel
    global_period: int
    d_in: int
    config: TrainConfig
    stats: Standardization | None = None
    columns: list[str] | None = None

    def named_params(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        out.update(self.miner.named())
        out.update(self.fusion.named())
        out.update(self.flow.named())
        return out

    def astype(self, dtype) -> "ModelBundle":
        """A copy whose parameters are cast to `dtype`; its scores compute
        in that dtype."""
        twin = copy.deepcopy(self)
        for tensor in twin.named_params().values():
            tensor.data = tensor.data.astype(dtype)
        return twin


def build_models(config: TrainConfig, d_in: int, global_period: int,
                 rng: np.random.Generator) -> ModelBundle:
    miner = init_miner(d_in, config.hidden, config.n_factors, rng)
    fusion = init_fusion(config.hidden, rng)
    t = config.window_length
    clamped = mask_law(global_period, t)[0]
    # the receptive field of the coupling nets always spans one global
    # period per side, so the half/half mask ablation changes the mask only
    radius = clamped if config.context_radius < 0 else config.context_radius
    # the ablation's fixed half/half split is the law at a period of T
    mask_period = clamped if config.use_periodic_mask else mask_law(t, t)[0]
    flow = init_flow(d_in, config.hidden, config.n_factors, mask_period,
                     config.num_layers, config.num_blocks, rng, context_radius=radius)
    return ModelBundle(miner, fusion, flow, global_period, d_in, config)


def encode_batch(windows: np.ndarray, bundle: ModelBundle):
    """Clean-path representation (B, N, D_h) for a stack of windows.

    Each window picks its k_periods strongest bins of its embedded
    spectrum, and the whole batch is folded into one pyramid and fused
    once; the miner never materializes the embedded windows (see
    `factors.period_pool`). Returns the representation tensor and a dict of
    (B, k) diagnostics: the picked periods, the softmaxed amplitude
    weights and the attention scores.
    """
    picks = top_k_periods(windows, bundle.config.k_periods, bundle.miner.embed_w.data)
    pyramid = extract_pyramid(windows, bundle.miner, picks.periods, picks.spectrum)
    rep = fuse(pyramid, bundle.fusion)
    return rep.values, {"periods": picks.periods, "amp_weights": rep.amp_softmax,
                        "attention": rep.attention}


def total_loss(windows: np.ndarray, bundle: ModelBundle,
               rng: np.random.Generator):
    """Joint objective on one batch; returns the scalar tensor and the
    component values (nll, similarity, independence) as floats."""
    cfg = bundle.config
    clean_rep, _ = encode_batch(windows, bundle)
    if cfg.sigma == 0.0:
        aug_rep = clean_rep
    else:
        augmented = intervene(windows, k_h_frac=cfg.k_h_frac, sigma=cfg.sigma,
                              noise=cfg.noise, rng=rng)
        aug_rep, _ = encode_batch(augmented, bundle)
    conditioning = (clean_rep + aug_rep) * 0.5
    l_sim = similarity_loss(clean_rep, aug_rep)
    l_ind = independence_loss(conditioning)
    h_c = condition(conditioning, bundle.flow)
    l_nf = nll_loss(windows, h_c, bundle.flow)

    total = l_nf
    if cfg.alpha != 0.0:
        total = total + l_sim * cfg.alpha
    if cfg.beta != 0.0:
        total = total + l_ind * cfg.beta
    components = {"nll": l_nf.item(), "similarity": l_sim.item(),
                  "independence": l_ind.item()}
    return total, components


def evaluate_objective(windows: np.ndarray, bundle: ModelBundle,
                       rng: np.random.Generator) -> dict:
    """Loss components averaged over the given windows, SCORE_CHUNK at a
    time, without updates and without recording a graph."""
    sums = {"nll": 0.0, "similarity": 0.0, "independence": 0.0}
    count = 0
    for lo in range(0, windows.shape[0], SCORE_CHUNK):
        chunk = np.ascontiguousarray(windows[lo:lo + SCORE_CHUNK])
        with ad.no_grad():
            _, comps = total_loss(chunk, bundle, rng)
        for key in sums:
            sums[key] += comps[key] * chunk.shape[0]
        count += chunk.shape[0]
    return {key: sums[key] / count for key in sums}


def fit(train: np.ndarray, val: np.ndarray, config: TrainConfig,
        global_period: int, stats: Standardization | None = None,
        checkpoint_path=None, columns: list[str] | None = None):
    """Mini-batch Adam over shuffled (B, T, D) windows with early stopping.

    Returns (bundle, history); the bundle holds the parameters of
    the best validation epoch. History row 0 is the pre-training state.
    """
    if len(train) == 0 or len(val) == 0:
        raise ValueError("fit needs non-empty train and validation batches")
    d_in = train.shape[2]
    seeds = np.random.SeedSequence(config.seed).spawn(4)
    init_rng, shuffle_rng, noise_rng, eval_rng = map(np.random.default_rng, seeds)

    bundle = build_models(config, d_in, global_period, init_rng)
    bundle.stats, bundle.columns = stats, columns
    store = ParamStore(bundle.named_params())

    history: list[dict] = []
    row0 = evaluate_objective(train, bundle, eval_rng)
    row0.update(epoch=0, val_nll=float(np.mean(score_windows(bundle, val)[0])))
    history.append(row0)

    best_val = row0["val_nll"]
    best_snap = store.snapshot()
    best_epoch = 0
    stale = 0

    for epoch in range(1, config.epochs + 1):
        order = shuffle_rng.permutation(len(train))
        sums = {"nll": 0.0, "similarity": 0.0, "independence": 0.0}
        seen = 0
        for bi, lo in enumerate(range(0, len(train), config.batch_size)):
            idx = order[lo:lo + config.batch_size]
            # overflow is caught by the finiteness check, not warned about
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    loss, comps = total_loss(train[idx], bundle, noise_rng)
                    finite = np.isfinite(loss.item())
                except ad.NumericOverflow:
                    finite = False
                if not finite:
                    store.restore(best_snap)  # keep the last good parameters
                    if checkpoint_path is not None:
                        save_checkpoint(checkpoint_path, bundle)
                    raise TrainingDiverged(epoch, bi)
                loss.backward()
                store.adam_step(config.lr)
            del loss  # free this step's tape before the next one is built
            for key in sums:
                sums[key] += comps[key] * len(idx)
            seen += len(idx)
        row = {key: sums[key] / seen for key in sums}
        row.update(epoch=epoch,
                   val_nll=float(np.mean(score_windows(bundle, val)[0])))
        history.append(row)

        if row["val_nll"] < best_val:
            best_val = row["val_nll"]
            best_snap = store.snapshot()
            best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break

    store.restore(best_snap)
    if checkpoint_path is not None:
        save_checkpoint(checkpoint_path, bundle)
    for row in history:
        row["best"] = 1 if row["epoch"] == best_epoch else 0
    return bundle, history


def score_windows(bundle: ModelBundle, windows: np.ndarray,
                  batch_size: int = SCORE_CHUNK):
    """Anomaly scores for standardized windows.

    Conditioning uses the clean path only, so scoring is deterministic;
    no graph is recorded. Each chunk of `batch_size` windows is copied
    into a contiguous array of the dtype of the bundle's parameters, which
    the whole pass then runs in, so `windows` may be a strided view.
    Returns float64 tau (B,) and tau_t (B, T) and the diagnostics of
    `encode_batch`, each a (B, k) array.
    """
    dtype = bundle.miner.embed_w.data.dtype
    n, t = windows.shape[:2]
    tau, tau_t, diags = np.empty(n), np.empty((n, t)), {}
    with ad.no_grad():
        for lo in range(0, n, batch_size):
            chunk = np.ascontiguousarray(windows[lo:lo + batch_size], dtype=dtype)
            rep, d = encode_batch(chunk, bundle)
            h_c = condition(rep, bundle.flow).data
            hi = lo + chunk.shape[0]
            tau[lo:hi], tau_t[lo:hi] = anomaly_score(chunk, h_c, bundle.flow)
            for key, value in d.items():
                if key not in diags:
                    diags[key] = np.empty((n, *value.shape[1:]), dtype=value.dtype)
                diags[key][lo:hi] = value
    return tau, tau_t, diags


def prepare_series(series: MultivariateSeries, config: TrainConfig,
                   split: SplitSpec = SplitSpec()):
    """Standardize (train statistics only), split chronologically, window,
    and discover the global period on the training split."""
    if config.apply_standardization:
        prepared, stats = standardize(series, split)
    else:
        prepared, stats = series, None
    train_s, val_s, test_s = prepared.split(split)
    for name, part in (("train", train_s), ("validation", val_s), ("test", test_s)):
        if part.length < config.window_length:
            raise SeriesError(f"{name} split has {part.length} of {series.length} "
                              f"steps, fewer than window_length {config.window_length}")
    global_period = discover_global_period(train_s)
    train_w = make_windows(train_s, config.window_length, config.train_stride)
    val_w = make_windows(val_s, config.window_length, config.train_stride)
    test_w = make_windows(test_s, config.window_length, 1)
    return {
        "train": train_w, "val": val_w, "test": test_w,
        "train_series": train_s, "val_series": val_s, "test_series": test_s,
        "stats": stats, "global_period": global_period,
    }


def history_to_csv(history: list[dict], path) -> None:
    cols = ["epoch", "nll", "similarity", "independence", "val_nll", "best"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for row in history:
            fh.write(",".join(repr(row[c]) if isinstance(row[c], float) else str(row[c])
                              for c in cols) + "\n")


def save_checkpoint(path, bundle: ModelBundle) -> None:
    """Versioned npz container: every parameter tensor under a named path,
    plus the global period, input dimension, data column names and
    statistics, and the training configuration, from which the flow's mask
    follows."""
    arrays = {f"param/{name}": t.data for name, t in bundle.named_params().items()}
    meta = {
        "format_version": CHECKPOINT_VERSION,
        "config": asdict(bundle.config),
        "global_period": bundle.global_period,
        "d_in": bundle.d_in,
    }
    if bundle.columns is not None:
        meta["columns"] = bundle.columns
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    if bundle.stats is not None:
        arrays["stats/mean"] = bundle.stats.mean
        arrays["stats/std"] = bundle.stats.std
    with open(path, "wb") as fh:  # keep the exact filename, no .npz suffixing
        np.savez(fh, **arrays)


def load_checkpoint(path) -> ModelBundle:
    """Rebuild the bundle; a missing or malformed entry (a config value of
    the wrong type or out of range, column names that are not `d_in`
    distinct strings), any shape mismatch, a non-finite parameter or
    statistic, or a standard deviation that is not positive fails loudly,
    naming the checkpoint and the entry. A checkpoint without column names
    loads with `columns` None."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"checkpoint not found: {path}")

    def malformed(why: str) -> ValueError:
        return ValueError(f"{path}: not a periflow checkpoint ({why})")

    if not zipfile.is_zipfile(path):
        raise malformed("not an npz archive")
    with np.load(path, allow_pickle=False) as data:
        if "meta" not in data.files:
            raise malformed("no 'meta' entry")
        try:
            meta = json.loads(bytes(data["meta"]).decode())
        except ValueError:
            raise malformed("'meta' is not JSON") from None
        for key in ("format_version", "config", "d_in", "global_period"):
            if key not in meta:
                raise malformed(f"meta has no {key!r}")
        if meta["format_version"] != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version "
                             f"{meta['format_version']} (expected {CHECKPOINT_VERSION})")
        for key in ("d_in", "global_period"):
            if type(meta[key]) is not int or meta[key] < 1:
                raise malformed(f"meta {key!r} is {meta[key]!r}, not a positive int")
        unknown = sorted(set(meta["config"]) - {f.name for f in fields(TrainConfig)})
        if unknown:
            raise malformed(f"unknown config key {unknown[0]!r} in meta")
        for f in fields(TrainConfig):
            value, kind = meta["config"].get(f.name, f.default), type(f.default)
            # an int is a float, but a bool is no int
            if type(value) is not kind and not (kind is float and type(value) is int):
                raise malformed(f"config {f.name!r} is {value!r}, not {kind.__name__}")
        columns = meta.get("columns")
        if columns is not None and not (
                type(columns) is list and all(type(name) is str for name in columns)
                and len(set(columns)) == len(columns) == meta["d_in"]):
            raise malformed(f"meta 'columns' is {columns!r}, not a list of "
                            f"{meta['d_in']} distinct strings")
        try:
            config = TrainConfig(**meta["config"])
        except ValueError as exc:  # an out-of-range value, named by its key
            raise malformed(str(exc)) from None
        rng = np.random.default_rng(0)
        bundle = build_models(config, meta["d_in"], meta["global_period"], rng)
        bundle.columns = columns
        for name, tensor in bundle.named_params().items():
            key = f"param/{name}"
            if key not in data:
                raise ValueError(f"checkpoint missing parameter {name}")
            arr = data[key]
            if arr.shape != tensor.data.shape:
                raise ValueError(
                    f"checkpoint shape mismatch for {name}: "
                    f"{arr.shape} vs expected {tensor.data.shape}")
            if not np.all(np.isfinite(arr)):
                raise malformed(f"{key} holds a non-finite value")
            tensor.data = arr.astype(np.float64)
        if "stats/mean" in data.files or "stats/std" in data.files:
            stats = []
            for key in ("stats/mean", "stats/std"):
                if key not in data.files:
                    raise malformed(f"no {key!r} entry")
                stats.append(data[key])
                if stats[-1].shape != (bundle.d_in,):
                    raise malformed(f"{key} has shape {stats[-1].shape}, "
                                    f"expected ({bundle.d_in},)")
            mean, std = stats
            if not np.all(np.isfinite(mean)):
                raise malformed("stats/mean holds a non-finite value")
            if not np.all(np.isfinite(std) & (std > 0)):
                raise malformed("stats/std holds a value that is not finite and positive")
            bundle.stats = Standardization(mean, std)
    return bundle
