"""Benchmark of periflow's train, score and stream paths.

    python3 perfbench/run.py --workload {train,score,stream} --seed N \
        --seconds S --trace {0,1}

Run from the root of a periflow source tree; the program is imported from
`src/`. The set-up step (`inputs.py`) runs in a fresh process once before
the timed phase. The timed phase repeats whole rounds of the workload for
S seconds and checks every output. Then the set-up runs again until it has
run SETUP_REPEATS times; `setup_s` is the median. Every timing is CPU
time scaled to reference seconds by the median of reference samples
taken between the rounds (`speed.py`); the set-ups are scaled by a
reference process run before the first and one after the last. With
`--trace 1` the run alternates untraced and traced phases, TRACE_PAIRS of
each at S / TRACE_PAIRS seconds, so that drift in the machine's speed
falls on both sides of the tracing overhead, and prints per-layer metrics
instead of end-to-end ones. The last line of
standard output is the result as one JSON object; the line before it
records the machine, the numpy/OpenBLAS build, the BLAS thread count and
the unscaled figures.
"""
from __future__ import annotations

import os

# BLAS must see these before numpy is first imported, here and in the
# set-up processes that inherit the environment
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 50
TRACE_PAIRS = 2


def blas_threads() -> int | None:
    """Threads the bundled OpenBLAS will use, or None if it cannot be asked."""
    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(), "machine": platform.machine(),
            "cpu": cpu, "cpus": os.cpu_count(),
            "loadavg": list(os.getloadavg())}


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_child(args: list[str], env: dict) -> tuple[float, float]:
    """(wall s, CPU s) of one child process, which must exit 0."""
    cpu = children_cpu_s()
    start = time.perf_counter()
    proc = subprocess.Popen(args, env=env)
    # a blocking wait returns as the child exits; Popen.wait(timeout)
    # polls, and would round the time up to its 50 ms poll interval
    watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    if code != 0:
        raise subprocess.CalledProcessError(code, proc.args)
    return time.perf_counter() - start, children_cpu_s() - cpu


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def set_up(workload: str, seed: int, work: Path, times: list[tuple],
           count: int) -> None:
    """Run `count` fresh set-up processes, appending (wall s, CPU s) of
    each to `times`. Every set-up writes the same inputs for the same
    seed."""
    for _ in range(count):
        times.append(run_child([sys.executable, str(HERE / "inputs.py"),
                                "--workload", workload, "--seed", str(seed),
                                "--work", str(work)], child_env()))


def reference_cpu_s() -> float:
    """CPU s of one reference process, `speed.py` run as a script."""
    return run_child([sys.executable, str(HERE / "speed.py")], child_env())[1]


def main() -> int:
    parser = argparse.ArgumentParser(description="periflow benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("train", "score", "stream"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "periflow" / "__init__.py").is_file():
        print(f"error: no periflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    # one vCPU for the whole run, set-up children included: the host loads
    # this VM's vCPUs unevenly, so the reference samples must run on the
    # CPU whose work they scale, and a round must not move between them
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    env = environment()
    env["cpus_used"] = sorted(os.sched_getaffinity(0))
    if env["blas_threads"] != 1:
        print(f"error: BLAS runs {env['blas_threads']} threads, expected 1 "
              "(None: no bundled OpenBLAS to ask)", file=sys.stderr)
        return 2

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    setup_times: list[tuple] = []
    references = [] if args.trace else [reference_cpu_s()]
    set_up(args.workload, args.seed, work, setup_times, 1)

    import workloads
    run = workloads.WORKLOADS[args.workload]
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        untraced, traced = [], []
        for _ in range(TRACE_PAIRS):
            untraced.append(run(work, args.seed, args.seconds / TRACE_PAIRS))
            traced.append(run(work, args.seed, args.seconds / TRACE_PAIRS,
                              tracer=tracer, tag="t"))
        tracer.write(work / "spans.jsonl")
        metrics = workloads.per_layer(tracer, traced, untraced)
        phases = untraced + traced
    else:
        phases = [run(work, args.seed, args.seconds)]
        # a traced run reports no setup_s, so only here do the other
        # set-ups run; after the timed phase, so that their median samples
        # the machine at both ends of the run
        set_up(args.workload, args.seed, work, setup_times, SETUP_REPEATS - 1)
        references.append(reference_cpu_s())
        setup_scale = speed.REFERENCE_PROCESS_S / statistics.median(references)
        metrics = workloads.end_to_end(
            phases[0], setup_scale * statistics.median(t[1] for t in setup_times))
        env["unscaled"] = {
            "windows_per_s": statistics.median(r[0] / r[1]
                                               for r in phases[0].rounds),
            "setup_s": statistics.median(t[0] for t in setup_times),
            "reference_s_per_cpu_s": phases[0].scale,
            "setup_reference_s_per_cpu_s": setup_scale}

    for p in phases:
        for failure in p.failures:
            print(f"check failed: {failure}", file=sys.stderr)
    env["samples"] = [{"operations": p.attempted,
                       "latency_samples": len(p.latencies)}
                      for p in phases]
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "correct": all(p.failed == 0 for p in phases),
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
