"""Characterization: the `gen → train → score → eval → inspect` run of
`tools/byte_diff.py` against the outputs committed in `characterization/`.

Every output but `run/model.npz` (binary; `history.csv` and the scores
pin what it holds) is compared: its text outside numbers exactly, and
each number within a tolerance measured across OpenBLAS kernels. With
`OPENBLAS_CORETYPE` set to SkylakeX (the committed outputs), Haswell, Zen
and Sandybridge, and with 1 or 2 BLAS threads, the largest differences
from the committed outputs were:

- float64 training (`run/history.csv`): 1.5e-12 relative;
- float32 scoring (`scored/`): 1.2e-7 absolute on the period weights and
  attention, in [0, 1], and 1.7e-8 relative on the scores, which lie in
  [2.8, 26.4];
- every other file: none.

So a number passes when |got - expected| <= tol * max(1, |expected|),
with tol 1e-10 for what float64 computes and 1e-6 for what the float32
scoring computes (the files under `scored/`, `eval/` and the two
commands' standard output). `flow.LOG_2PI` moved by 1e-6 moves the
history by 3.5e-7 relative, and fails; `flow.SCALE_CLAMP` moved by 1e-6
moves it by 1.2e-12, within the kernels' spread, and passes.

A change that moves these outputs on purpose replaces the committed
files with `python tools/byte_diff.py . . --keep DIR` (copy
`DIR/child`, without `run/model.npz`) and says why.
"""
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = Path(__file__).resolve().parent / "characterization"
_spec = importlib.util.spec_from_file_location("byte_diff", ROOT / "tools" / "byte_diff.py")
byte_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(byte_diff)

NUMBER = re.compile(r"-?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|inf|nan)")
FLOAT32_FILES = ("scored/", "eval/", "score.stdout", "eval.stdout")


def _files(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*")
            if p.is_file() and p.name != "model.npz"}


def mismatches(name: str, got: str, expected: str) -> list[str]:
    """Where `got` differs from `expected` beyond the tolerance of `name`."""
    if NUMBER.sub("#", got) != NUMBER.sub("#", expected):
        return [f"{name}: text outside numbers differs"]
    tol = 1e-6 if name.startswith(FLOAT32_FILES) else 1e-10
    bad = []
    for a, b in zip(NUMBER.findall(got), NUMBER.findall(expected)):
        if not abs(float(a) - float(b)) <= tol * max(1.0, abs(float(b))):
            bad.append(f"{name}: {a} against {b}")
    return bad


def test_pipeline_outputs_match_the_committed_ones(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    byte_diff.run_pipeline()
    assert _files(tmp_path) == _files(EXPECTED)
    bad = [line for name in sorted(_files(EXPECTED))
           for line in mismatches(name, (tmp_path / name).read_text(encoding="utf-8"),
                                  (EXPECTED / name).read_text(encoding="utf-8"))]
    assert not bad, "\n".join(bad[:20])


def test_mismatches_tells_kernel_noise_from_a_change():
    assert mismatches("run/history.csv", "1,170.22141083090761\n",
                      "1,170.2214108309076\n") == []
    assert mismatches("run/history.csv", "1,170.22148\n", "1,170.22141\n")
    assert mismatches("scored/scores.csv", "7,2.8554618\n", "7,2.8554617\n") == []
    assert mismatches("scored/scores.csv", "7,2.85547\n", "7,2.85546\n")
    assert mismatches("scored/scores.csv", "8,2.8554617\n", "7,2.8554617\n")
    assert mismatches("gen.stdout", '{"dims": 3}', '{"dim": 3}')


def test_byte_diff_finds_the_working_tree_equal_to_itself(tmp_path):
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "byte_diff.py"),
                           str(ROOT), str(ROOT), "--keep", str(tmp_path)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == f"{len(_files(EXPECTED)) + 1} files identical, 0 differ\n"
    # a changed byte and a file on one side only are reported
    scores = tmp_path / "child" / "scored" / "scores.csv"
    scores.write_bytes(scores.read_bytes() + b" ")
    (tmp_path / "parent" / "extra.txt").write_text("x\n")
    assert byte_diff.differing(tmp_path / "parent", tmp_path / "child") == (
        ["extra.txt", "scored/scores.csv"], len(_files(EXPECTED)))

