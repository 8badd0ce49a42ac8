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
from .config import GenConfig, TrainConfig
# `embed` is not called here; perfbench's tracer looks it up in this module
from .factors import MinerParams, embed, extract_pyramid, init_miner  # noqa: F401
from .flow import FlowModel, condition, anomaly_score, init_flow, mask_law, nll_loss
from .fusion import FusionParams, fuse, init_fusion
from .optim import ParamStore
from .series import SeriesError, Standardization, chronological_split, make_windows, \
    write_table
from .spectral import discover_global_period, intervene, top_k_periods

CHECKPOINT_VERSION = 1
SCORE_CHUNK = 256  # windows per scoring pass


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch: int, batch_index: int):
        super().__init__(f"non-finite loss at epoch {epoch}, batch {batch_index}")
        self.epoch = epoch
        self.batch_index = batch_index


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


def prepare_series(values: np.ndarray, config: TrainConfig, split: GenConfig = GenConfig()):
    """Split (T_l, D) `values` chronologically by `split`'s fractions,
    standardize them on the training part's statistics, window them, and
    discover the global period on the training part."""
    parts = chronological_split(values, split.train_frac, split.val_frac)
    for name, part in zip(("train", "validation", "test"), parts):
        if len(part) < config.window_length:
            raise SeriesError(f"{name} split has {len(part)} of {len(values)} "
                              f"steps, fewer than window_length {config.window_length}")
    stats = Standardization.fit(parts[0]) if config.apply_standardization else None
    if stats is not None:
        parts = [stats.apply(part) for part in parts]
    train, val, test = parts
    return {
        "train": make_windows(train, config.window_length, config.train_stride),
        "val": make_windows(val, config.window_length, config.train_stride),
        "test": make_windows(test, config.window_length, 1),
        "stats": stats, "global_period": discover_global_period(train),
    }


def history_to_csv(history: list[dict], path) -> None:
    cols = ["epoch", "nll", "similarity", "independence", "val_nll", "best"]
    write_table(path, cols, [[row[c] for row in history] for c in cols])


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


_NOT_OURS = "not a periflow checkpoint ({})".format
# what a checkpoint's meta must hold, in order: (test, refusal); a test may
# rely on the rows before it, and a refusal is formatted with the meta as `m`
_META_RULES = (
    (lambda m: type(m) is dict, _NOT_OURS("meta is not a JSON object")),
    *((lambda m, k=k: k in m, _NOT_OURS(f"meta has no {k!r}"))
      for k in ("format_version", "config", "d_in", "global_period")),
    (lambda m: m["format_version"] == CHECKPOINT_VERSION,
     f"unsupported checkpoint version {{m[format_version]}} (expected {CHECKPOINT_VERSION})"),
    *((lambda m, k=k: type(m[k]) is int and m[k] >= 1,
       _NOT_OURS(f"meta {k!r} is {{m[{k}]!r}}, not a positive int"))
      for k in ("d_in", "global_period")),
    (lambda m: type(m["config"]) is dict, _NOT_OURS("meta 'config' is not a JSON object")),
    (lambda m: m.get("columns") is None or (
        type(m["columns"]) is list and all(type(name) is str for name in m["columns"])
        and len(set(m["columns"])) == len(m["columns"]) == m["d_in"]),
     _NOT_OURS("meta 'columns' is {m[columns]!r}, not a list of {m[d_in]} distinct strings")),
)


def load_checkpoint(path) -> ModelBundle:
    """Rebuild the bundle; a missing or malformed entry (a meta or meta
    config that is not a JSON object, a config value of the wrong type or
    out of range, column names that are not `d_in` distinct strings), an
    array the model needs that is missing, of the wrong shape or not
    finite, or a standard deviation that is not positive fails loudly,
    naming the checkpoint and the entry. A checkpoint without column names
    loads with `columns` None, and one without statistics with `stats`
    None."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"checkpoint not found: {path}")

    def malformed(why: str) -> ValueError:
        return ValueError(f"{path}: {_NOT_OURS(why)}")

    if not zipfile.is_zipfile(path):
        raise malformed("not an npz archive")
    with np.load(path, allow_pickle=False) as data:
        if "meta" not in data.files:
            raise malformed("no 'meta' entry")
        try:
            meta = json.loads(bytes(data["meta"]).decode())
        except ValueError:
            raise malformed("'meta' is not JSON") from None
        for test, why in _META_RULES:
            if not test(meta):
                raise ValueError(f"{path}: " + why.format(m=meta))
        unknown = sorted(set(meta["config"]) - {f.name for f in fields(TrainConfig)})
        if unknown:
            raise malformed(f"unknown config key {unknown[0]!r} in meta")
        try:
            config = TrainConfig(**meta["config"])
        except ValueError as exc:  # a value of the wrong type or range, named by its key
            raise malformed(str(exc)) from None
        rng = np.random.default_rng(0)
        bundle = build_models(config, meta["d_in"], meta["global_period"], rng)
        bundle.columns = meta.get("columns")
        params = bundle.named_params()
        shapes = {f"param/{name}": tensor.data.shape for name, tensor in params.items()}
        if "stats/mean" in data.files or "stats/std" in data.files:
            shapes.update({"stats/mean": (bundle.d_in,), "stats/std": (bundle.d_in,)})
        arrays = {}
        for key, shape in shapes.items():
            if key not in data.files:
                raise malformed(f"no {key!r} entry")
            arrays[key] = data[key]
            if arrays[key].shape != shape:
                raise malformed(f"{key} has shape {arrays[key].shape}, expected {shape}")
            if not np.all(np.isfinite(arrays[key])):
                raise malformed(f"{key} holds a non-finite value")
        for name, tensor in params.items():
            tensor.data = arrays[f"param/{name}"].astype(np.float64)
        if "stats/std" in arrays:
            if not np.all(arrays["stats/std"] > 0):
                raise malformed("stats/std holds a value that is not positive")
            bundle.stats = Standardization(arrays["stats/mean"], arrays["stats/std"])
    return bundle
