"""End-to-end command-line pipeline."""
import ast
import json
import re
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from periflow.cli import ConfigError, GenConfig, load_config, main, write_resolved_config
from periflow.series import Standardization, load_csv
from periflow.training import TrainConfig, build_models, save_checkpoint

FAST = [
    "--set", "epochs=2", "--set", "window_length=24", "--set", "hidden=8",
    "--set", "n_factors=2", "--set", "k_periods=2", "--set", "num_blocks=1",
    "--set", "train_stride=4", "--set", "gen_length=600",
    "--set", "gen_periods=12:3.0,4:1.0",
    "--set", "gen_anomalies=spike:520:2:8.0;level_shift:555:20:4.0",
]


def test_load_config_file_and_overrides(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nlr = 0.01\nepochs = 5\ngen_dims = 2\n")
    train_cfg, gen_cfg = load_config(cfg, overrides=["epochs=7"], seed=3)
    assert train_cfg.lr == 0.01 and train_cfg.epochs == 7 and train_cfg.seed == 3
    assert gen_cfg.gen_dims == 2


def test_load_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("not_a_key = 1\n")
    with pytest.raises(ConfigError, match="not_a_key"):
        load_config(cfg)


def test_load_config_reports_bad_value():
    with pytest.raises(ConfigError, match="epochs"):
        load_config(None, overrides=["epochs=soon"])


def test_gen_reruns_from_its_resolved_config(tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["gen", "--out", str(out1), "--seed", "5", *FAST]) == 0
    assert main(["gen", "--out", str(out2), "--config",
                 str(out1 / "resolved_config.txt")]) == 0
    for name in ("synthetic.csv", "resolved_config.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_gen_is_idempotent(tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["gen", "--out", str(out1), "--seed", "5", *FAST]) == 0
    assert main(["gen", "--out", str(out2), "--seed", "5", *FAST]) == 0
    assert (out1 / "synthetic.csv").read_bytes() == (out2 / "synthetic.csv").read_bytes()
    assert (out1 / "resolved_config.txt").exists()


def test_gen_merges_overlapping_anomalies_silently(tmp_path, capsys):
    # overlapping entries add their values and merge their labels; that is
    # no cause for a message
    out = tmp_path / "data"
    assert main(["gen", "--out", str(out), "--set", "gen_length=200",
                 "--set", "gen_anomalies=spike:10:5:1;spike:12:5:1"]) == 0
    assert capsys.readouterr().err == ""
    labels = load_csv(out / "synthetic.csv").labels
    np.testing.assert_array_equal(np.flatnonzero(labels), np.arange(10, 17))


def test_full_pipeline(tmp_path, capsys):
    # 2k-point set end to end: gen -> train -> score -> eval
    data_dir = tmp_path / "data"
    assert main(["gen", "--out", str(data_dir), "--seed", "5", *FAST,
                 "--set", "gen_length=2000",
                 "--set", "gen_anomalies=spike:1520:2:8.0;level_shift:1555:20:4.0"
                 ]) == 0
    csv = data_dir / "synthetic.csv"
    input_bytes = csv.read_bytes()

    run1 = tmp_path / "run1"
    assert main(["train", "--data", str(csv), "--out", str(run1), "--seed", "5",
                 *FAST]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert (run1 / "model.npz").exists() and (run1 / "history.csv").exists()
    assert out["global_period"] == 12

    score_dir = tmp_path / "scored"
    assert main(["score", "--checkpoint", str(run1 / "model.npz"),
                 "--data", str(csv), "--out", str(score_dir), *FAST]) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert "auroc" in summary
    assert (score_dir / "scores.csv").exists()
    assert (score_dir / "period_weights.csv").exists()

    eval_dir = tmp_path / "eval"
    assert main(["eval", "--scores", str(score_dir / "scores.csv"),
                 "--data", str(csv), "--out", str(eval_dir)]) == 0
    ev = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert abs(ev["auroc"] - summary["auroc"]) < 1e-12
    loaded = json.loads((eval_dir / "summary.json").read_text())
    assert loaded["auroc"] == ev["auroc"]
    assert csv.read_bytes() == input_bytes  # inputs never mutated


def test_train_determinism_byte_identical_history(tmp_path, capsys):
    data_dir = tmp_path / "data"
    main(["gen", "--out", str(data_dir), "--seed", "9", *FAST])
    csv = data_dir / "synthetic.csv"
    r1, r2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["train", "--data", str(csv), "--out", str(r1), "--seed", "3",
                 *FAST]) == 0
    assert main(["train", "--data", str(csv), "--out", str(r2), "--seed", "3",
                 *FAST]) == 0
    assert (r1 / "history.csv").read_bytes() == (r2 / "history.csv").read_bytes()


def test_inspect_reports_global_period(tmp_path, capsys):
    data_dir = tmp_path / "data"
    main(["gen", "--out", str(data_dir), "--seed", "5", "--set", "gen_length=400",
          "--set", "gen_periods=20:3.0", "--set", "gen_noise_std=0.05"])
    assert main(["inspect", "--data", str(data_dir / "synthetic.csv")]) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["global_period"] == 20
    assert 20 in report["top_periods"]
    strengths = [v for v in report["periodicity_strength"].values() if v is not None]
    assert all(s > 0.8 for s in strengths)


def test_missing_checkpoint_is_one_line_error(tmp_path, capsys):
    code = main(["score", "--checkpoint", str(tmp_path / "nope.npz"),
                 "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def _write_series(path, channels, length):
    cols = ",".join(f"x{c}" for c in range(channels))
    rows = "".join(f"{i}," + ",".join(f"{np.sin(i / (3 + c)):.6f}" for c in range(channels))
                   + "\n" for i in range(length))
    path.write_text(f"t,{cols}\n{rows}")


def test_diverging_train_is_one_line_error(tmp_path, capsys):
    csv = tmp_path / "series.csv"
    _write_series(csv, 3, 400)
    run = tmp_path / "run"
    code = main(["train", "--data", str(csv), "--out", str(run), *FAST,
                 "--set", "lr=1e200"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite loss at epoch 1") and err.count("\n") == 1
    assert (run / "model.npz").exists()


@pytest.mark.parametrize("standardize", ["true", "false"])
def test_score_channel_mismatch_names_both_counts(tmp_path, capsys, standardize):
    train_csv, score_csv = tmp_path / "train.csv", tmp_path / "score.csv"
    _write_series(train_csv, 3, 300)
    _write_series(score_csv, 2, 400)
    run = tmp_path / "run"
    assert main(["train", "--data", str(train_csv), "--out", str(run), *FAST,
                 "--set", "epochs=1", "--set", f"apply_standardization={standardize}"]) == 0
    capsys.readouterr()
    code = main(["score", "--checkpoint", str(run / "model.npz"), "--data", str(score_csv),
                 "--out", str(tmp_path / "scored")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {score_csv}: 2 data columns, but the checkpoint was trained on 3\n")
    assert not (tmp_path / "scored").exists()


def test_score_memory_grows_by_less_than_512_bytes_per_step(tmp_path, capsys):
    # windows, scores and reports are held per chunk or per step, never per
    # (window, step): a series 4x longer adds only O(length) to the peak
    train_csv = tmp_path / "train.csv"
    _write_series(train_csv, 3, 400)
    run = tmp_path / "run"
    assert main(["train", "--data", str(train_csv), "--out", str(run), *FAST,
                 "--set", "epochs=1", "--set", "window_length=60"]) == 0
    peaks = {}
    for length in (5_000, 20_000):
        csv = tmp_path / f"series{length}.csv"
        _write_series(csv, 3, length)
        tracemalloc.start()
        try:
            assert main(["score", "--checkpoint", str(run / "model.npz"),
                         "--data", str(csv), "--out", str(tmp_path / f"scored{length}")]) == 0
            peaks[length] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    per_step = (peaks[20_000] - peaks[5_000]) / 15_000
    assert per_step < 512, f"peak grows {per_step:.0f} bytes per step"


def test_bad_config_key_is_one_line_error(tmp_path, capsys):
    code = main(["gen", "--out", str(tmp_path), "--set", "mystery=1"])
    assert code == 1
    assert "mystery" in capsys.readouterr().err


@pytest.mark.parametrize("setting, message", [
    ("gen_periods=20", "gen_periods must be period:amplitude entries split at ',', got '20'"),
    ("gen_periods=20:x",
     "gen_periods must be period:amplitude entries split at ',', got '20:x'"),
    ("gen_anomalies=spike:10:2", "gen_anomalies must be kind:start:duration:magnitude "
                                 "entries split at ';', got 'spike:10:2'"),
    ("gen_anomalies=spike:10:2:8.0;spike:x:2:8.0",
     "gen_anomalies must be kind:start:duration:magnitude entries split at ';', "
     "got 'spike:10:2:8.0;spike:x:2:8.0'"),
    # values that would write a series `load_csv` refuses
    ("gen_periods=20:nan", "gen_periods must be entries whose amplitudes are finite, "
                           "got '20:nan'"),
    ("gen_periods=20:inf", "gen_periods must be entries whose amplitudes are finite, "
                           "got '20:inf'"),
    ("gen_anomalies=spike:5:2:nan", "gen_anomalies must be entries whose magnitudes are "
                                    "finite, got 'spike:5:2:nan'"),
    ("gen_anomalies=period_break:5:2:inf", "gen_anomalies must be entries whose magnitudes "
                                           "are finite, got 'period_break:5:2:inf'"),
    # finite amplitudes whose sum overflows
    ("gen_periods=20:1e308,21:1e308", "the series that gen_periods, gen_noise_std and "
                                      "gen_anomalies describe overflows float64"),
])
def test_bad_gen_entry_names_the_cause(tmp_path, capsys, setting, message):
    code = main(["gen", "--out", str(tmp_path / "data"), "--set", setting])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("command", ["gen", "train", "score", "inspect"])
def test_every_command_refuses_a_bad_gen_spec_before_writing(tmp_path, capsys, command):
    # the spec is checked when the configuration is built, also by the
    # commands that never generate a series, so no resolved config holds it
    ckpt, _ = _saved_checkpoint(tmp_path)
    csv = tmp_path / "series.csv"
    _write_series(csv, 3, 400)
    inputs = {"gen": [], "train": ["--data", str(csv)], "inspect": ["--data", str(csv)],
              "score": ["--checkpoint", str(ckpt), "--data", str(csv)]}[command]
    code = main([command, *inputs, "--out", str(tmp_path / "out"),
                 "--set", "gen_periods=1:3.0"])
    assert code == 1
    assert capsys.readouterr().err == ("error: gen_periods must be entries whose periods are "
                                       "distinct and in [2, 2**53], got '1:3.0'\n")
    assert not (tmp_path / "out").exists()


def test_a_config_file_that_is_not_utf8_is_refused_naming_its_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"lr = 0.01\n# caf\xe9\nepochs = 5\n")
    code = main(["gen", "--out", str(tmp_path / "data"), "--config", str(cfg)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {cfg}: line 2: byte 0xe9 is not UTF-8\n"
    assert not (tmp_path / "data").exists()


def test_inspect_short_series_reports_null_strength(tmp_path, capsys):
    # one cycle in 6 rows: period 6 needs 12 samples for a strength
    rows = "\n".join(f"{t},{np.sin(2 * np.pi * t / 6):.6f}" for t in range(6))
    csv = tmp_path / "short.csv"
    csv.write_text("t,x0\n" + rows + "\n")
    assert main(["inspect", "--data", str(csv)]) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["global_period"] == 6
    assert report["periodicity_strength"] == {"x0": None}


def test_inspect_finds_the_period_of_a_series_on_a_large_offset(tmp_path, capsys):
    # a 3-amplitude period-20 sine on an offset of 1e6 varies by far more
    # than the constant test's absolute tolerance, though by less than a
    # relative one of 1e-5; an exactly constant series is still refused
    rng = np.random.default_rng(12)
    t = np.arange(2000)[:, None]
    values = 1e6 + 3.0 * np.sin(2 * np.pi * t / 20 + rng.uniform(0, 2 * np.pi, 3)) \
        + 0.3 * rng.normal(size=(2000, 3))
    for name, data in (("offset", values), ("constant", np.full((2000, 3), 1e6))):
        rows = "".join(f"{i}," + ",".join(repr(float(v)) for v in row) + "\n"
                       for i, row in enumerate(data))
        (tmp_path / f"{name}.csv").write_text(f"t,x0,x1,x2\n{rows}")
    assert main(["inspect", "--data", str(tmp_path / "offset.csv")]) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["global_period"] == 20
    assert main(["inspect", "--data", str(tmp_path / "constant.csv")]) == 1
    assert capsys.readouterr().err == "error: constant series has no dominant frequency\n"


def test_one_class_labels_score_and_eval(tmp_path, capsys):
    # gen without anomalies labels every step normal; AUROC is undefined
    data_dir = tmp_path / "data"
    assert main(["gen", "--out", str(data_dir), "--seed", "5", *FAST,
                 "--set", "gen_anomalies="]) == 0
    csv = data_dir / "synthetic.csv"
    run = tmp_path / "run"
    assert main(["train", "--data", str(csv), "--out", str(run), "--seed", "5",
                 *FAST, "--set", "epochs=1"]) == 0
    score_dir, eval_dir = tmp_path / "scored", tmp_path / "eval"
    assert main(["score", "--checkpoint", str(run / "model.npz"),
                 "--data", str(csv), "--out", str(score_dir)]) == 0
    assert main(["eval", "--scores", str(score_dir / "scores.csv"),
                 "--data", str(csv), "--out", str(eval_dir)]) == 0
    for summary_dir in (score_dir, eval_dir):
        summary = json.loads((summary_dir / "summary.json").read_text())
        assert summary["auroc"] is None
        assert "one class" in summary["auroc_reason"]


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_csv_value_is_rejected_at_load(tmp_path, capsys, bad):
    data_dir = tmp_path / "data"
    assert main(["gen", "--out", str(data_dir), "--seed", "5", *FAST]) == 0
    csv = data_dir / "synthetic.csv"
    lines = csv.read_text().splitlines()
    header = lines[0].split(",")
    row = lines[10].split(",")
    row[2] = bad  # line 11 of the file, second data column
    lines[10] = ",".join(row)
    csv.write_text("\n".join(lines) + "\n")
    code = main(["train", "--data", str(csv), "--out", str(tmp_path / "run"), *FAST])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: {csv}: line 11, column {header[2]}: non-finite value '{bad}'\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("bad, message", [
    ("nan", "non-finite value 'nan'"),
    ("inf", "non-finite value 'inf'"),
    ("", "cannot parse value ''"),
])
def test_eval_rejects_bad_score(tmp_path, capsys, bad, message):
    csv = tmp_path / "series.csv"
    csv.write_text("t,x0,label\n" + "".join(f"{i},0.5,{i % 2}\n" for i in range(6)))
    scores = [f"{i},{0.1 * i},{-0.1 * i}" for i in range(6)]
    scores[2] = f"2,{bad},0.0"  # line 4 of the file
    scores_csv = tmp_path / "scores.csv"
    scores_csv.write_text("index,score,log_likelihood\n" + "\n".join(scores) + "\n")
    code = main(["eval", "--scores", str(scores_csv), "--data", str(csv),
                 "--out", str(tmp_path / "eval")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {scores_csv}: line 4, column score: {message}\n"
    assert not (tmp_path / "eval").exists()


def test_eval_names_the_data_file_of_a_bad_label(tmp_path, capsys):
    # eval reads two CSVs; the refusal says which one is at fault
    csv = tmp_path / "series.csv"
    csv.write_text("t,x0,label\n" + "".join(f"{i},0.5,{min(i, 2)}\n" for i in range(6)))
    scores_csv = tmp_path / "scores.csv"
    scores_csv.write_text("index,score,log_likelihood\n"
                          + "".join(f"{i},{0.1 * i},{-0.1 * i}\n" for i in range(6)))
    code = main(["eval", "--scores", str(scores_csv), "--data", str(csv),
                 "--out", str(tmp_path / "eval")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {csv}: line 4: bad label '2'\n"
    assert not (tmp_path / "eval").exists()


def test_eval_rejects_short_row(tmp_path, capsys):
    csv = tmp_path / "series.csv"
    csv.write_text("t,x0,label\n" + "".join(f"{i},0.5,{i % 2}\n" for i in range(3)))
    scores_csv = tmp_path / "scores.csv"
    scores_csv.write_text("index,score,log_likelihood\n0,0.1,-0.1\n1\n2,0.3,-0.3\n")
    code = main(["eval", "--scores", str(scores_csv), "--data", str(csv),
                 "--out", str(tmp_path / "eval")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {scores_csv}: line 3: expected 3 fields, got 1\n"
    assert not (tmp_path / "eval").exists()
    # read as `load_csv` reads: header names are stripped and a blank row
    # is skipped, but still counted in the line numbers
    scores_csv.write_text("index, score, log_likelihood\n0,0.1,-0.1\n\n1\n")
    code = main(["eval", "--scores", str(scores_csv), "--data", str(csv),
                 "--out", str(tmp_path / "eval")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {scores_csv}: line 4: expected 3 fields, got 1\n"
    scores_csv.write_text("index, score, log_likelihood\n0,0.1,-0.1\n\n1,0.3,-0.3\n2,0.2,-0.2\n\n")
    assert main(["eval", "--scores", str(scores_csv), "--data", str(csv),
                 "--out", str(tmp_path / "eval")]) == 0
    summary = json.loads((tmp_path / "eval" / "summary.json").read_text())
    assert summary["n_points"] == 3 and summary["auroc"] == 1.0


def test_eval_parses_every_column(tmp_path, capsys):
    # the scores file is read as a series, so a bad value fails in any
    # column, not only in `score`
    csv = tmp_path / "series.csv"
    csv.write_text("t,x0,label\n" + "".join(f"{i},0.5,{i % 2}\n" for i in range(3)))
    scores_csv = tmp_path / "scores.csv"
    scores_csv.write_text("index,score,log_likelihood\n0,0.1,-0.1\n1,0.2,abc\n2,0.3,-0.3\n")
    code = main(["eval", "--scores", str(scores_csv), "--data", str(csv),
                 "--out", str(tmp_path / "eval")])
    assert code == 1
    assert capsys.readouterr().err == (f"error: {scores_csv}: line 3, column log_likelihood: "
                                       f"cannot parse value 'abc'\n")
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("setting", [
    "window_length=0", "k_periods=0", "k_periods=12", "hidden=0", "n_factors=0",
    "num_layers=0", "num_blocks=-1", "train_stride=0", "sigma=-0.1",
    "k_h_frac=0", "k_h_frac=1", "context_radius=-2", "lr=inf", "alpha=inf",
    "beta=inf", "sigma=inf", "noise=uniform", "seed=-1", "patience=0",
    "gen_periods=20:3.0\nlr=5"])
def test_bad_train_config_names_the_key(tmp_path, capsys, setting):
    csv = tmp_path / "series.csv"
    csv.write_text("t,x0\n" + "".join(f"{i},{np.sin(i / 3):.6f}\n" for i in range(200)))
    code = main(["train", "--data", str(csv), "--out", str(tmp_path / "run"),
                 *FAST, "--set", setting])
    assert code == 1
    err = capsys.readouterr().err
    key = setting.split("=")[0]
    assert err.startswith(f"error: {key} must be ") and err.count("\n") == 1
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("setting, rule", [
    ("gen_length=-5", ">= 1, got -5"), ("gen_length=0", ">= 1, got 0"),
    ("gen_dims=0", ">= 1, got 0"), ("gen_noise_std=nan", "finite and >= 0, got nan"),
    ("gen_noise_std=inf", "finite and >= 0, got inf"),
    ("gen_noise_std=-0.1", "finite and >= 0, got -0.1"), ("seed=-1", ">= 0, got -1")])
def test_bad_gen_config_names_the_key(tmp_path, capsys, setting, rule):
    code = main(["gen", "--out", str(tmp_path / "data"), "--set", setting])
    assert code == 1
    key = setting.split("=")[0]
    assert capsys.readouterr().err == f"error: {key} must be {rule}\n"
    assert not (tmp_path / "data").exists()


def test_bad_split_fraction_names_the_key(tmp_path, capsys):
    # a NaN fraction fails the sum check no more than a finite one passes
    # it, and negative fractions can sum to 1, so each is checked alone
    csv = tmp_path / "series.csv"
    csv.write_text("t,x0\n" + "".join(f"{i},{np.sin(i / 3):.6f}\n" for i in range(200)))
    code = main(["train", "--data", str(csv), "--out", str(tmp_path / "run"),
                 *FAST, "--set", "train_frac=nan"])
    assert code == 1
    assert capsys.readouterr().err == "error: train_frac must be finite and >= 0, got nan\n"
    assert not (tmp_path / "run").exists()
    with pytest.raises(ConfigError, match=r"^val_frac must be finite and >= 0, got -0.7$"):
        GenConfig(train_frac=1.5, val_frac=-0.7, test_frac=0.2)


@pytest.mark.parametrize("command", ["gen", "score"])
@pytest.mark.parametrize("settings, message", [
    (["train_frac=-1", "val_frac=0.5"], "train_frac must be finite and >= 0, got -1.0"),
    (["train_frac=0.7"], "test_frac must be within 1e-9 of 1 - train_frac - val_frac, got 0.2")],
    ids=["negative", "sum"])
def test_gen_and_score_refuse_a_bad_split_fraction(tmp_path, capsys, command, settings,
                                                   message):
    # the fractions are checked when the configuration is built, before
    # anything is written, by every command that reads them
    ckpt, _ = _saved_checkpoint(tmp_path)
    csv = tmp_path / "series.csv"
    _write_series(csv, 3, 100)
    given = [arg for setting in settings for arg in ("--set", setting)]
    inputs = ["--checkpoint", str(ckpt), "--data", str(csv)] if command == "score" else []
    code = main([command, *inputs, "--out", str(tmp_path / "out"), *given])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "score"])
def test_a_config_string_that_is_not_utf8_is_refused_naming_the_key(tmp_path, capsys,
                                                                   command):
    # argv holds a byte that is not UTF-8 as a surrogate, which a resolved
    # config cannot hold; it is refused before anything is written
    ckpt, _ = _saved_checkpoint(tmp_path)
    csv = tmp_path / "series.csv"
    _write_series(csv, 3, 400)
    inputs = ["--checkpoint", str(ckpt)] if command == "score" else FAST
    code = main([command, "--data", str(csv), *inputs, "--out", str(tmp_path / "out"),
                 "--set", "gen_anomalies=\udcff"])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: gen_anomalies must be a single line of UTF-8 text without surrounding "
        "whitespace, got '\\udcff'\n")
    assert not (tmp_path / "out").exists()


def test_readme_states_every_declared_rule():
    # each bullet of README's "Configuration keys" reads "- `key`, ...: rule"
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration keys", 1)[1].split("\n## ", 1)[0]
    stated = set()
    for bullet in re.findall(r"^- (.*(?:\n  .*)*)", section, re.M):
        keys, rule = " ".join(bullet.split()).split(": ", 1)
        stated |= {(key, rule) for key in re.findall(r"`(\w+)`", keys)}
    assert stated == {(f.name, rule) for config in (TrainConfig, GenConfig)
                      for f in fields(config) for rule, _ in f.metadata.get("rules", ())}


def test_split_shorter_than_window_names_the_split(tmp_path, capsys):
    data_dir = tmp_path / "data"
    assert main(["gen", "--out", str(data_dir), "--set", "gen_length=200"]) == 0
    capsys.readouterr()
    run = tmp_path / "run"
    code = main(["train", "--data", str(data_dir / "synthetic.csv"), "--out", str(run)])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: validation split has 40 of 200 steps, fewer than window_length 60\n")
    assert not run.exists()


def _train_and_score(tmp_path, capsys):
    """Train a 3-channel model on the file `series.csv` with columns x0, x1,
    x2 and score that file: the checkpoint and the score directory."""
    csv = tmp_path / "series.csv"
    _write_series(csv, 3, 400)
    run, scored = tmp_path / "run", tmp_path / "scored"
    assert main(["train", "--data", str(csv), "--out", str(run), *FAST,
                 "--set", "epochs=1"]) == 0
    assert main(["score", "--checkpoint", str(run / "model.npz"), "--data", str(csv),
                 "--out", str(scored)]) == 0
    capsys.readouterr()
    return run / "model.npz", scored


@pytest.mark.parametrize("header, given", [
    ("t,x2,x0,x1", "['x2', 'x0', 'x1']"), ("t,x0,x1,y2", "['x0', 'x1', 'y2']")],
    ids=["reordered", "renamed"])
def test_score_refuses_data_columns_that_differ(tmp_path, capsys, header, given):
    # each value moves with its name, so the counts agree and only the
    # names tell that channels would be fed to the wrong inputs
    ckpt, _ = _train_and_score(tmp_path, capsys)
    rows = [line.split(",") for line in (tmp_path / "series.csv").read_text().splitlines()]
    order = [rows[0].index(name) if name in rows[0] else 3 for name in header.split(",")]
    moved = tmp_path / "moved.csv"
    moved.write_text("\n".join([header] + [",".join(row[i] for i in order)
                                            for row in rows[1:]]) + "\n")
    code = main(["score", "--checkpoint", str(ckpt), "--data", str(moved),
                 "--out", str(tmp_path / "moved_scored")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {moved}: data columns {given} differ from the checkpoint's "
        f"['x0', 'x1', 'x2']\n")
    assert not (tmp_path / "moved_scored").exists()


def test_checkpoint_without_columns_scores_as_before(tmp_path, capsys):
    ckpt, scored = _train_and_score(tmp_path, capsys)
    with np.load(ckpt, allow_pickle=False) as blob:
        arrays = {key: blob[key] for key in blob.files}
    meta = json.loads(bytes(arrays["meta"]).decode())
    assert meta.pop("columns") == ["x0", "x1", "x2"]
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    bare = tmp_path / "bare.npz"
    with open(bare, "wb") as fh:
        np.savez(fh, **arrays)
    again = tmp_path / "again"
    assert main(["score", "--checkpoint", str(bare), "--data", str(tmp_path / "series.csv"),
                 "--out", str(again)]) == 0
    for name in ("scores.csv", "period_weights.csv", "score_histogram.csv"):
        assert (again / name).read_bytes() == (scored / name).read_bytes()


def _saved_checkpoint(tmp_path):
    """An untrained 3-channel, window-24 checkpoint (seed 4) and its config."""
    config = TrainConfig(window_length=24, hidden=8, n_factors=2, k_periods=2,
                         num_blocks=1, seed=4)
    bundle = build_models(config, 3, 6, np.random.default_rng(0))
    bundle.stats = Standardization(np.zeros(3), np.ones(3))
    ckpt = tmp_path / "model.npz"
    save_checkpoint(ckpt, bundle)
    return ckpt, config


def _score_with_a_big_value(tmp_path, capsys, value):
    """Train on a 400-step series whose column x1 holds `value` at line 353
    of its file, in the test split, then score it: the exit code and stderr."""
    csv = tmp_path / "series.csv"
    _write_series(csv, 3, 400)
    lines = csv.read_text().splitlines()
    fields = lines[351].split(",")
    fields[2] = value
    lines[351] = ",".join(fields)
    lines.insert(300, "")  # a blank line, which load_csv skips, moves it to line 353
    csv.write_text("\n".join(lines) + "\n")
    run = tmp_path / "run"
    assert main(["train", "--data", str(csv), "--out", str(run), *FAST,
                 "--set", "epochs=1"]) == 0
    capsys.readouterr()
    code = main(["score", "--checkpoint", str(run / "model.npz"), "--data", str(csv),
                 "--out", str(tmp_path / "scored")])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("value", ["1e20", "1e37", "1e39"])
def test_score_names_a_value_whose_square_overflows_float32(tmp_path, capsys, value):
    # float64 training takes the value; float32 scoring cannot (1e39 casts
    # to inf, the square of the others overflows): the window that fails
    # alone names it, with no RuntimeWarning
    code, err = _score_with_a_big_value(tmp_path, capsys, value)
    assert code == 1
    csv = tmp_path / "series.csv"
    assert err == (f"error: {csv}: line 353, column x1: value {float(value)!r} overflows "
                   f"float32 scoring once standardized\n")
    assert not (tmp_path / "scored").exists()


@pytest.mark.parametrize("given, key, value, trained", [
    (["--set", "window_length=12"], "window_length", "12", "24"),
    (["--seed", "99"], "seed", "99", "4"),
    (["--set", "hidden=8", "--set", "sigma=0.2"], "sigma", "0.2", "0.1"),
    (["--config", "CONFIG"], "hidden", "4", "8"),
], ids=["set", "seed", "second_set", "config"])
def test_score_refuses_a_changed_training_key(tmp_path, capsys, given, key,
                                              value, trained):
    ckpt, _ = _saved_checkpoint(tmp_path)
    (tmp_path / "CONFIG").write_text("window_length = 24\nhidden = 4\n")
    csv = tmp_path / "series.csv"
    _write_series(csv, 3, 100)
    given = [str(tmp_path / g) if g == "CONFIG" else g for g in given]
    code = main(["score", "--checkpoint", str(ckpt), "--data", str(csv),
                 "--out", str(tmp_path / "scored"), *given])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {key} = {value} given, but {ckpt} was trained with "
        f"{key} = {trained}\n")
    assert not (tmp_path / "scored").exists()


def test_score_accepts_the_checkpoints_own_training_keys(tmp_path, capsys):
    # a train run's resolved config, its seed and equal overrides all pass
    ckpt, config = _saved_checkpoint(tmp_path)
    write_resolved_config(tmp_path / "run", config, GenConfig(),
                          {"command": "train"})
    csv = tmp_path / "series.csv"
    _write_series(csv, 3, 100)
    out = tmp_path / "scored"
    assert main(["score", "--checkpoint", str(ckpt), "--data", str(csv),
                 "--out", str(out),
                 "--config", str(tmp_path / "run" / "resolved_config.txt"),
                 "--seed", "4", "--set", "window_length=24",
                 "--set", "gen_length=50"]) == 0
    assert (out / "scores.csv").exists()
    assert load_config(out / "resolved_config.txt")[0] == config


def test_score_short_series_names_the_file_and_window_length(tmp_path, capsys):
    ckpt, _ = _saved_checkpoint(tmp_path)
    csv = tmp_path / "series.csv"
    _write_series(csv, 3, 20)
    code = main(["score", "--checkpoint", str(ckpt), "--data", str(csv),
                 "--out", str(tmp_path / "scored")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {csv}: 20 steps, fewer than the checkpoint's window_length 24\n")
    assert not (tmp_path / "scored").exists()


@pytest.mark.parametrize("case, why", [
    ("no_format_version", "not a periflow checkpoint (meta has no 'format_version')"),
    ("no_stats_std", "not a periflow checkpoint (no 'stats/std' entry)"),
    ("unknown_config_key", "not a periflow checkpoint (unknown config key 'mystery' in meta)"),
    ("short_stats_mean", "not a periflow checkpoint (stats/mean has shape (2,), expected (3,))"),
    ("meta_not_json", "not a periflow checkpoint ('meta' is not JSON)"),
    ("meta_not_object", "not a periflow checkpoint (meta is not a JSON object)"),
    ("config=5", "not a periflow checkpoint (meta 'config' is not a JSON object)"),
    ("other_version", "unsupported checkpoint version 2 (expected 1)"),
    ("nan_param", "not a periflow checkpoint "
                  "(param/flow.layer0.s0.w holds a non-finite value)"),
    ("no_param", "not a periflow checkpoint (no 'param/flow.cond_b' entry)"),
    ("short_param", "not a periflow checkpoint "
                    "(param/flow.cond_b has shape (3,), expected (8,))"),
    ("inf_stats_mean", "not a periflow checkpoint (stats/mean holds a non-finite value)"),
    ("inf_stats_std", "not a periflow checkpoint (stats/std holds a non-finite value)"),
    ("zero_stats_std", "not a periflow checkpoint (stats/std holds a value that is not positive)"),
    ("negative_stats_std", "not a periflow checkpoint "
                           "(stats/std holds a value that is not positive)"),
    *[(f"{key}={value!r}", f"not a periflow checkpoint "
                           f"(meta {key!r} is {value!r}, not a positive int)")
      for key in ("global_period", "d_in") for value in (0, -3, "x", 1.5)],
    *[(f"config.{key}={value!r}", f"not a periflow checkpoint "
                                  f"({key} must be {kind}, got {value!r})")
      for key, value, kind in (("window_length", "x", "int"), ("epochs", None, "int"),
                               ("lr", "0.1", "float"))],
    ("config.sigma=1e999", "not a periflow checkpoint (sigma must be finite and >= 0, got inf)"),
    ("config.k_periods=12", "not a periflow checkpoint "
                            "(k_periods must be in [1, window_length / 2), got 12)"),
    *[(f"columns={value!r}", f"not a periflow checkpoint "
                             f"(meta 'columns' is {value!r}, not a list of 3 distinct strings)")
      for value in ("x0,x1,x2", ["x0", "x1"], ["x0", "x0", "x1"], ["x0", "x1", 2])],
])
def test_malformed_checkpoint_names_the_entry(tmp_path, capsys, case, why):
    ckpt, _ = _saved_checkpoint(tmp_path)
    with np.load(ckpt, allow_pickle=False) as blob:
        arrays = {key: blob[key] for key in blob.files}
    meta = json.loads(bytes(arrays["meta"]).decode())
    if case == "no_format_version":
        del meta["format_version"]
    elif case == "no_stats_std":
        del arrays["stats/std"]
    elif case == "unknown_config_key":
        meta["config"]["mystery"] = 1
    elif case == "short_stats_mean":
        arrays["stats/mean"] = arrays["stats/mean"][:2]
    elif case == "other_version":
        meta["format_version"] = 2
    elif case == "meta_not_object":
        meta = 7
    elif case == "nan_param":
        arrays["param/flow.layer0.s0.w"][1, 2] = np.nan
    elif case == "no_param":
        del arrays["param/flow.cond_b"]
    elif case == "short_param":
        arrays["param/flow.cond_b"] = arrays["param/flow.cond_b"][:3]
    elif case == "inf_stats_mean":
        arrays["stats/mean"][0] = np.inf
    elif case == "inf_stats_std":
        arrays["stats/std"][2] = np.inf
    elif case in ("zero_stats_std", "negative_stats_std"):
        arrays["stats/std"][1] = 0.0 if case == "zero_stats_std" else -1.0
    elif case.startswith("config."):
        key, value = case[len("config."):].split("=")
        meta["config"][key] = ast.literal_eval(value)
    elif "=" in case:
        key, value = case.split("=")
        meta[key] = ast.literal_eval(value)
    arrays["meta"] = np.frombuffer(b"{meta: 1}" if case == "meta_not_json"
                                   else json.dumps(meta).encode(), dtype=np.uint8)
    with open(ckpt, "wb") as fh:
        np.savez(fh, **arrays)
    csv = tmp_path / "series.csv"
    _write_series(csv, 3, 100)
    code = main(["score", "--checkpoint", str(ckpt), "--data", str(csv),
                 "--out", str(tmp_path / "scored")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {ckpt}: {why}\n"
    assert not (tmp_path / "scored").exists()
