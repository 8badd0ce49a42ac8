"""The machine's speed, measured with a fixed reference computation.

This VM shares its host, and its speed moves with the host's load: the
same `score` round ran at about 810 windows/s in one hour and 1524 in
another. No change to periflow moves that. So the benchmark
times a fixed computation of its own between the rounds of a workload,
in CPU time like the rounds, and reports every timing in reference
seconds: CPU seconds times REFERENCE_S over the median CPU time of that
computation over the run. On a machine as fast as the reference VM the
two agree. The median over the whole run follows the host's load from
one run to the next; a factor from only the samples next to each round
followed the noise of a few samples as well, and spread `train` more
than it took out.

A set-up is a fresh process, and starting one (the interpreter, imports,
fresh pages) slows down more under load than the computation alone: a
`train` set-up took 2.3 times its quiet CPU time when the computation
took 1.6 times its own. So set-ups are scaled by a fresh process instead,
this module run as a script, which starts, imports numpy and takes one
block of samples.

The computation mixes what periflow spends its time on: interpreter work
on small objects, elementwise numpy on window-sized arrays, BLAS matmuls
and an FFT. It allocates no arrays, so the allocator state a workload
leaves behind cannot change its speed; an allocating version ran 40%
faster after one `periflow score` in the same process than before it.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

SAMPLE_CALLS = 80     # one sample is about 50 ms of CPU
BLOCK_SAMPLES = 4     # samples taken between two rounds
# CPU seconds of one sample on the reference VM (2-vCPU Intel Xeon,
# numpy 2.4.6, OpenBLAS on one thread) while its host was quiet
REFERENCE_S = 0.0455
# CPU seconds of `python3 speed.py` on the reference VM, put in the scale
# of REFERENCE_S: measured under load and multiplied by the factor that
# the samples in the same process gave
REFERENCE_PROCESS_S = 0.34


class _Node:
    __slots__ = ("value", "parents", "backward")

    def __init__(self, value, parents=(), backward=None):
        self.value = value
        self.parents = parents
        self.backward = backward


_rng = np.random.default_rng(0)
_X = _rng.standard_normal((32, 60, 3))
_W = _rng.standard_normal((180, 32)) * 0.1
_B = _rng.standard_normal((256, 180))
_H = np.empty_like(_X)
_T = np.empty_like(_X)
_M = np.empty((256, 32))
_S = np.empty((32, 31, 3), dtype=np.complex128)
_A = np.empty((32, 31, 3))


def reference_work() -> int:
    """One call of the fixed computation; returns a count so that no part
    of it is dead code."""
    np.copyto(_H, _X)
    for _ in range(12):
        np.multiply(_H, 0.5, out=_T)
        np.add(_T, 0.1, out=_T)
        np.tanh(_T, out=_H)
    for _ in range(2):
        np.matmul(_B, _W, out=_M)
    np.fft.rfft(_X, axis=1, out=_S)
    np.abs(_S, out=_A)
    node = _Node(0)
    for i in range(400):
        node = _Node(i, (node,), len)
        if node.backward is not None and i % 3 == 0:
            node = _Node(node.value + node.parents[0].value, node.parents)
    return node.value


def block() -> list[float]:
    """CPU seconds of BLOCK_SAMPLES samples."""
    samples = []
    for _ in range(BLOCK_SAMPLES):
        start = time.process_time()
        for _ in range(SAMPLE_CALLS):
            reference_work()
        samples.append(time.process_time() - start)
    return samples


class Speedometer:
    """Blocks of reference samples between a workload's rounds: one when
    it is made, and one at every `block()`."""

    def __init__(self):
        self.samples = block()

    def block(self) -> None:
        self.samples += block()

    def scale(self) -> float:
        """Reference seconds per CPU second over the blocks so far."""
        return REFERENCE_S / statistics.median(self.samples)


if __name__ == "__main__":
    block()
