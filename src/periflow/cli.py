"""Command-line pipeline: gen, train, score, eval, inspect.

Configuration is a flat `key = value` text file; any key can be overridden
with repeated `--set key=value` flags and the seed with `--seed`. `score`
runs a trained model, so it refuses a training key (the seed too) whose
value differs from the checkpoint's, and a data file whose column names or
order differ from those it was trained on. Every command writes its fully
resolved configuration beside its outputs so a run can be reproduced from
its output directory alone: `--config <out>/resolved_config.txt` reads it
back, and the run's own facts (command, inputs, discovered period) are `#`
comments in it. Commands exit 0 on success and print a single
`error: ...` line on failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .autodiff import NumericOverflow
from .config import ConfigError, GenConfig, TrainConfig
from .evaluate import auroc_summary, emit_reports, window_scores_to_points
from .series import (SeriesError, csv_line, load_csv, make_windows, utf8_text,
                     write_json)
from .spectral import (SpectralError, discover_global_period,
                       periodicity_strength, top_k_periods)
from .synthetic import generate, write_csv
from .training import (SCORE_CHUNK, fit, history_to_csv, load_checkpoint, prepare_series,
                       score_windows)


def _coerce(key: str, raw: str, target: type):
    if target is bool:
        low = raw.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"config key {key!r}: cannot parse boolean {raw!r}")
    try:
        return target(raw.strip())
    except ValueError:
        raise ConfigError(f"config key {key!r}: cannot parse {raw!r} as "
                          f"{target.__name__}") from None


def _given_values(path=None, overrides=(), seed=None) -> dict[str, object]:
    """The keys a config file, `--set` overrides and `--seed` give, coerced
    to their types; unknown keys are rejected."""
    types = {f.name: type(f.default) for config in (TrainConfig, GenConfig)
             for f in fields(config)}
    values: dict[str, object] = {}

    def absorb(key: str, raw: str):
        key = key.strip()
        if key not in types:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = _coerce(key, raw, types[key])

    if path is not None:
        text = utf8_text(path)
        for line_no, line in enumerate(text.splitlines(), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"config line {line_no}: expected key = value")
            key, raw = stripped.split("=", 1)
            absorb(key, raw)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        absorb(key, raw)
    if seed is not None:
        values["seed"] = int(seed)
    return values


def _configs(values: dict[str, object]) -> tuple[TrainConfig, GenConfig]:
    return tuple(config(**{f.name: values[f.name] for f in fields(config) if f.name in values})
                 for config in (TrainConfig, GenConfig))


def load_config(path=None, overrides=(), seed=None) -> tuple[TrainConfig, GenConfig]:
    """Flat key=value config with unknown keys rejected."""
    return _configs(_given_values(path, overrides, seed))


def write_resolved_config(out_dir: Path, train_cfg: TrainConfig,
                          gen_cfg: GenConfig, extra: dict) -> None:
    """Every config key as `key = value`, then the run's `extra` facts
    (command, inputs, discovered period) as `# key = value` comments, so
    `--config` reads the file back to the same configuration."""
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "resolved_config.txt", "w", encoding="utf-8") as fh:
        for key, value in {**asdict(train_cfg), **asdict(gen_cfg)}.items():
            fh.write(f"{key} = {value}\n")
        for key, value in extra.items():
            fh.write(f"# {key} = {value}\n")


def cmd_gen(args) -> int:
    train_cfg, gen_cfg = load_config(args.config, args.set, args.seed)
    series = generate(gen_cfg, train_cfg.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    target = out / "synthetic.csv"
    write_csv(series, target)
    write_resolved_config(out, train_cfg, gen_cfg, {"command": "gen"})
    print(json.dumps({"written": str(target), "length": series.length,
                      "dims": series.dims,
                      "anomalous_points": int(series.labels.sum())}))
    return 0


def cmd_train(args) -> int:
    train_cfg, gen_cfg = load_config(args.config, args.set, args.seed)
    series = load_csv(args.data)
    data = prepare_series(series.values, train_cfg, gen_cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ckpt = out / "model.npz"
    _, history = fit(data["train"], data["val"], train_cfg,
                     data["global_period"], stats=data["stats"],
                     checkpoint_path=ckpt, columns=series.dim_names)
    history_to_csv(history, out / "history.csv")
    write_resolved_config(out, train_cfg, gen_cfg,
                          {"command": "train", "data": args.data,
                           "global_period": data["global_period"]})
    best = [row for row in history if row["best"]][0]
    print(json.dumps({"checkpoint": str(ckpt), "epochs_run": history[-1]["epoch"],
                      "best_epoch": best["epoch"],
                      "best_val_nll": best["val_nll"],
                      "global_period": data["global_period"]}))
    return 0


def cmd_score(args) -> int:
    given = _given_values(args.config, args.set, args.seed)
    _, gen_cfg = _configs(given)
    bundle = load_checkpoint(args.checkpoint)
    trained = asdict(bundle.config)
    for key, value in given.items():
        # a trained model's settings are fixed; equal values (as in the
        # train run's resolved config) pass
        if key in trained and value != trained[key]:
            raise ConfigError(f"{key} = {value} given, but {args.checkpoint} "
                              f"was trained with {key} = {trained[key]}")
    series = load_csv(args.data)
    if series.dims != bundle.d_in:
        raise ValueError(f"{args.data}: {series.dims} data columns, but the checkpoint "
                         f"was trained on {bundle.d_in}")
    if bundle.columns is not None and series.dim_names != bundle.columns:
        raise ValueError(f"{args.data}: data columns {series.dim_names} differ from "
                         f"the checkpoint's {bundle.columns}")
    window_length = bundle.config.window_length
    if series.length < window_length:
        raise SeriesError(f"{args.data}: {series.length} steps, fewer than the "
                          f"checkpoint's window_length {window_length}")
    values = series.values
    if bundle.stats is not None:
        values = bundle.stats.apply(values)
    windows = make_windows(values, window_length, stride=1)
    # score in float32, at about half the arithmetic and memory of float64;
    # the picker still sees float64 amplitudes and tau is summed in float64
    twin = bundle.astype(np.float32)
    chunk_diags = []

    def overflow(lo, chunk):
        # a window scores alike alone and in its chunk: the first that fails
        # alone names its largest value
        for i in range(chunk.shape[0]):
            try:
                score_windows(twin, chunk[i:i + 1])
            except NumericOverflow:
                part = np.abs(values[lo + i:lo + i + window_length])
                row, col = np.unravel_index(np.argmax(part), part.shape)
                row += lo + i
                raise SeriesError(f"{args.data}: line {csv_line(args.data, row)}, column "
                                  f"{series.dim_names[col]}: value "
                                  f"{float(series.values[row, col])!r} overflows "
                                  f"float32 scoring once standardized")

    def chunk_scores():
        # one chunk's tau_t at a time, folded onto the timeline as it comes
        for lo in range(0, len(windows), SCORE_CHUNK):
            chunk = windows[lo:lo + SCORE_CHUNK]
            # a value whose float32 cast or square overflows is named, not
            # warned about
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    _, tau_t, diags = score_windows(twin, chunk)
                except NumericOverflow:
                    overflow(lo, chunk)
                    raise
            chunk_diags.append(diags)
            yield tau_t

    points = window_scores_to_points(chunk_scores(), series.length)
    diags = {key: np.concatenate([d[key] for d in chunk_diags]) for key in chunk_diags[0]}
    out = Path(args.out)
    summary = emit_reports(out, points, series.labels, diagnostics=diags,
                           metadata={"checkpoint": str(args.checkpoint),
                                     "data": str(args.data),
                                     "windows": len(windows),
                                     "window_length": window_length,
                                     "global_period": bundle.global_period,
                                     "seed": bundle.config.seed})
    write_resolved_config(out, bundle.config, gen_cfg,
                          {"command": "score", "checkpoint": args.checkpoint,
                           "data": args.data})
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_eval(args) -> int:
    table = load_csv(args.scores)
    if "score" not in table.dim_names:
        raise ConfigError(f"{args.scores}: no 'score' column")
    scores = table.values[:, table.dim_names.index("score")]
    series = load_csv(args.data)
    if series.labels is None:
        raise SeriesError(f"{args.data}: no label column to evaluate against")
    if len(scores) != series.length:
        raise ConfigError(f"{args.scores}: {len(scores)} scores vs "
                          f"{series.length} labels")
    summary = {**auroc_summary(scores, series.labels),
               "n_points": len(scores),
               "anomaly_rate": float(series.labels.mean())}
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "summary.json", summary)
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_inspect(args) -> int:
    train_cfg, _ = load_config(args.config, args.set, args.seed)
    series = load_csv(args.data)
    period = discover_global_period(series.values)
    freqs, periods, amps, _ = top_k_periods(
        series.values[None], min(train_cfg.k_periods, max(1, series.length // 2 - 1)))
    strength = {}
    for d, name in enumerate(series.dim_names):
        try:
            strength[name] = periodicity_strength(series.values[:, d], period)
        except SpectralError:  # too short for two cycles of the period
            strength[name] = None
    report = {"global_period": period,
              "top_periods": periods[0].tolist(),
              "top_frequencies": freqs[0].tolist(),
              "amplitudes": amps[0].tolist(),
              "periodicity_strength": strength}
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_json(out / "inspect.json", report)
    print(json.dumps(report, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="periflow",
        description="Periodicity-aware density-based time-series anomaly detection")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, data=False, checkpoint=False, scores=False, out_required=True):
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--seed", type=int, default=None, help="override the seed")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override one config key")
        if data:
            p.add_argument("--data", required=True, help="input CSV")
        if checkpoint:
            p.add_argument("--checkpoint", required=True, help="model checkpoint")
        if scores:
            p.add_argument("--scores", required=True, help="scores CSV")
        p.add_argument("--out", required=out_required, default=None,
                       help="output directory")

    p_gen = sub.add_parser("gen", help="generate a labelled synthetic dataset")
    common(p_gen)
    p_gen.set_defaults(func=cmd_gen)

    p_train = sub.add_parser("train", help="train a detector")
    common(p_train, data=True)
    p_train.set_defaults(func=cmd_train)

    p_score = sub.add_parser("score", help="score a series with a checkpoint")
    common(p_score, data=True, checkpoint=True)
    p_score.set_defaults(func=cmd_score)

    p_eval = sub.add_parser("eval", help="evaluate scores against labels")
    common(p_eval, data=True, scores=True)
    p_eval.set_defaults(func=cmd_eval)

    p_inspect = sub.add_parser("inspect", help="report periodicity diagnostics")
    common(p_inspect, data=True, out_required=False)
    p_inspect.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # one-line machine-parseable failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
