"""Run the same periflow recipes in two source trees and diff every output
byte for byte.

    python tools/byte_diff.py PARENT CHILD [--perfbench] [--keep DIR]

Each tree runs in a process of its own, with its own `src/` on the import
path and `OPENBLAS_NUM_THREADS=1`, in a fresh directory. Every command is
given relative paths, so no output names the directory it ran in and no
line needs to be ignored. A command's standard output is kept as
`<name>.stdout` and compared too. The recipes:

- `PIPELINE` (always): `gen → train → score → eval → inspect` on a
  1,200-step series, then a 300-step `gen` with a spike, a level shift
  and a period break over three periods; `tests/test_characterization.py`
  pins their outputs.
- `--perfbench`: perfbench's seed-7 `score` set-up, which trains the
  checkpoint with perfbench's train recipe (`pb/ckpt/`); `periflow score`
  of its score series (`pb/scored/`); and the τ of 300 one-window
  `score_windows` calls on its `stream` series (`pb/stream_tau.txt`),
  from a checkpoint the `stream` set-up trains (`pb/stream/`).

Prints each file that differs or exists on one side only and exits 1, or
prints how many files are identical and exits 0. `--keep DIR` leaves the
two runs in `DIR/parent` and `DIR/child`.
"""
from __future__ import annotations

import argparse
import contextlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

_GIVEN = ["--seed", "3", "--set", "gen_length=1200", "--set", "window_length=40",
          "--set", "hidden=16", "--set", "epochs=2", "--set", "train_stride=2",
          "--set", "gen_anomalies=spike:1000:2:8.0;level_shift:1100:20:4.0"]
# (name, `periflow` arguments), run in order in one directory
PIPELINE = (
    ("gen", ["gen", "--out", "data", *_GIVEN]),
    ("train", ["train", "--data", "data/synthetic.csv", "--out", "run", *_GIVEN]),
    ("score", ["score", "--checkpoint", "run/model.npz", "--data", "data/synthetic.csv",
               "--out", "scored"]),
    ("eval", ["eval", "--scores", "scored/scores.csv", "--data", "data/synthetic.csv",
              "--out", "eval"]),
    ("inspect", ["inspect", "--data", "data/synthetic.csv", "--out", "inspect"]),
    # every anomaly kind over three periods: the period break continues the
    # largest-amplitude sine, here not the first period given
    ("gen_kinds", ["gen", "--out", "kinds", "--seed", "5", "--set", "gen_length=300",
                   "--set", "gen_dims=2", "--set", "gen_periods=7:1.5,20:3.0,45:0.5",
                   "--set", "gen_anomalies=spike:40:2:8.0;level_shift:120:20:-4.0;"
                                            "period_break:200:40:11"]),
)
PERFBENCH_SEED = 7
STREAM_CALLS = 300


def run_pipeline() -> None:
    """Run `PIPELINE` in the working directory with the periflow that
    imports first."""
    from periflow import cli

    for name, argv in PIPELINE:
        with open(f"{name}.stdout", "w", encoding="utf-8") as out, \
                contextlib.redirect_stdout(out):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"periflow {name} exited {code}")


def run_perfbench(tree) -> None:
    """Run the `--perfbench` recipe in the working directory with the
    perfbench of `tree` and the periflow that imports first."""
    sys.path.insert(0, str(Path(tree) / "perfbench"))
    import checks
    import inputs
    from periflow import cli, training

    pb = Path("pb")
    inputs.set_up("score", PERFBENCH_SEED, pb)
    with open(pb / "score.stdout", "w", encoding="utf-8") as out, \
            contextlib.redirect_stdout(out):
        code = cli.main(["score", "--checkpoint", str(pb / "ckpt" / "model.npz"),
                         "--data", str(pb / "score.csv"), "--out", str(pb / "scored")])
    if code != 0:
        raise SystemExit(f"periflow score exited {code}")
    inputs.set_up("stream", PERFBENCH_SEED, pb / "stream")
    bundle = training.load_checkpoint(pb / "stream" / "ckpt" / "model.npz")
    values, _ = checks.read_series(pb / "stream" / "stream.csv")
    windows = checks.windows_of(bundle.stats.apply(values), inputs.WINDOW, 1)
    with open(pb / "stream_tau.txt", "w", encoding="utf-8") as fh:
        for i in range(STREAM_CALLS):
            tau, _, _ = training.score_windows(bundle, windows[i:i + 1])
            fh.write(f"{float(tau[0])!r}\n")


def run_tree(tree: Path, work: Path, perfbench: bool) -> None:
    """Run the recipes with `tree`'s source in a fresh process in `work`."""
    work.mkdir(parents=True)
    tree = tree.resolve()
    path = os.pathsep.join([str(tree / "src"), str(Path(__file__).resolve().parent)])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": path}
    code = "import byte_diff; byte_diff.run_pipeline()"
    if perfbench:
        code += f"; byte_diff.run_perfbench({str(tree)!r})"
    subprocess.run([sys.executable, "-c", code], cwd=work, env=env, check=True)


def differing(a: Path, b: Path) -> tuple[list[str], int]:
    """The files under `a` and `b` that differ or exist on one side only,
    and the number that are identical."""
    def files(root):
        return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}

    names = sorted(files(a) | files(b))
    bad = [name for name in names
           if not ((a / name).is_file() and (b / name).is_file()
                   and (a / name).read_bytes() == (b / name).read_bytes())]
    return bad, len(names) - len(bad)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("child", type=Path)
    parser.add_argument("--perfbench", action="store_true",
                        help="also run perfbench's seed-7 score and stream recipes")
    parser.add_argument("--keep", type=Path, default=None,
                        help="leave the runs in DIR/parent and DIR/child")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        root = args.keep if args.keep is not None else Path(scratch)
        for side, tree in (("parent", args.parent), ("child", args.child)):
            run_tree(tree, root / side, args.perfbench)
        bad, same = differing(root / "parent", root / "child")
    for name in bad:
        print(f"differs: {name}")
    print(f"{same} files identical, {len(bad)} differ")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
