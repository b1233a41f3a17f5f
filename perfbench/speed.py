"""Machine-speed probe: rescales measured times to a fixed reference speed.

The shared hosts this benchmark runs on change speed by a quarter to a
third for seconds to minutes at a time, on every CPU at once; process CPU
time moves with wall time.  A run of ten seconds cannot average that out.
So, while a run measures, a second process times three fixed reference
kernels every 20 ms on the other CPU (about a tenth of that CPU's time),
each standing for one kind of work momentflow does: Python objects and
strings (validation, parsing, printing), small numpy arrays (the small-n
flows) and one 128 x 128 BLAS product (the n = 200 flow).  None of them
calls momentflow.  A time measured over ``[start, end]`` is reported in
seconds *at reference speed*:

    wall seconds * geometric mean over kernels k of
                   (KERNEL_REFERENCE_S[k] * mean(1 / seconds of kernel k))

over the samples taken in ``[start - WINDOW_S, end + WINDOW_S]``.  When the
host runs a quarter slower, the kernels do too, and the factor takes the
quarter back out; a change to momentflow moves the program's time and not
the kernels'.  Each sample follows an untimed warm-up call, because the
first work after the probe's sleep runs slow by a varying amount.

    python3 perfbench/speed.py        # the probe: samples until stdin closes
"""

from __future__ import annotations

import bisect
import json
import math
import os
import select
import subprocess
import sys
import time

import numpy as np

# Median kernel times on the 2-CPU machine the bounds were set on, in the
# order of KERNELS.  They only fix the unit: a reported second is a second
# of that machine.
KERNEL_REFERENCE_S = (4.7e-4, 4.7e-4, 1.4e-4)
PERIOD_S = 0.02
WINDOW_S = 0.1
STOP_TIMEOUT_S = 30


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def python_kernel() -> int:
    """Small objects, dict inserts, type checks and number formatting."""
    table, printed = {}, []
    for i in range(400):
        item = _Item(str(i), i)
        table[item.key] = item
        if isinstance(item.value, int) and item.value >= 0:
            printed.append(f"{item.value:.6g}")
    return len(", ".join(printed)) + len(table)


_SMALL = np.random.default_rng(0).random((8, 8))
_BLOCK = np.random.default_rng(1).random((128, 128))


def numpy_kernel() -> float:
    """Many calls on 8 x 8 arrays, where numpy's per-call cost dominates."""
    m, total = _SMALL, 0.0
    for _ in range(25):
        m = np.exp(-m)
        m = m + m.T
        np.fill_diagonal(m, 0.0)
        m = m / m.max()
        total += float(np.trace(m @ m))
    return total


def blas_kernel() -> float:
    return float((_BLOCK @ _BLOCK)[0, 0])


KERNELS = (python_kernel, numpy_kernel, blas_kernel)


def probe() -> None:
    """Time the kernels every PERIOD_S until stdin closes, then print samples.

    Prints ``ready`` after the first sample, and at the end one JSON list
    of ``[monotonic end, [seconds per kernel]]`` pairs.
    """
    samples = []
    while True:
        python_kernel()  # warm-up
        seconds = []
        for kernel in KERNELS:
            start = time.monotonic()
            kernel()
            seconds.append(time.monotonic() - start)
        samples.append((time.monotonic(), seconds))
        if len(samples) == 1:
            print("ready", flush=True)
        if select.select([sys.stdin], [], [], PERIOD_S)[0]:
            break
    print(json.dumps(samples), flush=True)


class Probe:
    """The probe process, for ``with``; ``scale`` after the block ends.

    Times passed to ``scale`` are ``time.monotonic()`` readings, which on
    Linux every process reads from the same clock.
    """

    def __enter__(self):
        # One BLAS thread, as in the measured process: a thread pool woken
        # after each sleep would time its own wake-up.
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self._process = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)], env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        if self._process.stdout.readline().strip() != "ready":
            self._stop()
            raise RuntimeError("the speed probe did not start")
        return self

    def __exit__(self, *exc_info):
        samples = self._stop()
        self.stamps = [end for end, _ in samples]
        # Per kernel, prefix sums of 1 / seconds, for a window's mean in
        # O(log n).
        self._prefix = [[0.0] for _ in KERNELS]
        for _, seconds in samples:
            for prefix, kernel_s in zip(self._prefix, seconds):
                prefix.append(prefix[-1] + 1.0 / kernel_s)
        self.kernel_medians_s = [sorted(column)[len(column) // 2]
                                 for column in zip(*(s for _, s in samples))]
        return False

    def _stop(self):
        process = self._process
        try:
            out, _ = process.communicate(timeout=STOP_TIMEOUT_S)
        finally:
            if process.poll() is None:
                process.kill()
            process.wait()
        lines = out.strip().splitlines()
        if process.returncode != 0 or not lines:
            raise RuntimeError(f"the speed probe exited with {process.returncode}")
        return json.loads(lines[-1])

    def scale(self, start: float, end: float) -> float:
        """Factor that turns wall seconds in ``[start, end]`` into reference seconds."""
        lo = bisect.bisect_left(self.stamps, start - WINDOW_S)
        hi = bisect.bisect_right(self.stamps, end + WINDOW_S)
        if hi == lo:  # no sample in the window: take the nearest one
            lo = min(max(lo - 1, 0), len(self.stamps) - 1)
            if lo + 1 < len(self.stamps) and (
                    self.stamps[lo + 1] - end < start - self.stamps[lo]):
                lo += 1
            hi = lo + 1
        return math.exp(sum(
            math.log(reference * (prefix[hi] - prefix[lo]) / (hi - lo))
            for reference, prefix in zip(KERNEL_REFERENCE_S, self._prefix)) / len(KERNELS))

if __name__ == "__main__":
    probe()
