"""Machine speed, taken from a fixed reference kernel between timed steps.

On a shared VM the speed of one CPU moves by up to 1.7x, in stretches
that last from a second to several minutes. A run that falls in a slow
stretch reads slow for every step, whatever the program does, and two sets
of runs of the same code disagree by more than any useful bound.

So the benchmark times a fixed kernel, written here and independent of the
package, before and after each timed piece of work (one CLI process, one
set-up repeat, one closed-loop fit or session), on the same CPU, and
reports every time scaled to the speed at which that kernel takes
``REF_S`` seconds:

    scaled = measured * REF_S / mean kernel time over the phase

where the phase is either set-up or the timed part of the run.

The kernel mixes what the package spends its time on: a pure-Python float
loop (features, policy, the control loop), JSON lines written and parsed
(session logs) and small numpy products and reductions (the MLP). A change
to the package cannot change the kernel. The raw times and the speed
factor are printed and kept in the result file beside the scaled ones.
"""

from __future__ import annotations

import json
import os
import statistics
import time

import numpy as np

# About one pass of the kernel on a two-vCPU x86 VM (Python 3.11, numpy 2.4,
# one BLAS thread), which took 30-55 ms as its speed moved. Only sets the
# scale of the reported numbers; comparisons between commits do not depend
# on it.
REF_S = 0.050
PASSES = 3

_rng = np.random.default_rng(0)
_ROWS = [
    {"t": round(i * 0.01, 2), "imu": [float(x) for x in _rng.normal(size=6)],
     "mic": float(_rng.normal()), "label": i % 3 == 0}
    for i in range(750)
]
_X = _rng.normal(size=(64, 32))
_W1 = _rng.normal(size=(32, 24))
_W2 = _rng.normal(size=(24, 1))
_SIGNAL = _rng.normal(size=4096)


def _kernel() -> float:
    acc = 0.0
    for i in range(120_000):
        x = (i % 97) * 0.01
        acc += x * x - 0.5 * x if i & 1 else x
    text = "\n".join(json.dumps(row) for row in _ROWS)
    rows = [json.loads(line) for line in text.splitlines()]
    acc += sum(row["mic"] for row in rows)
    for _ in range(450):
        h = np.tanh(_X @ _W1)
        acc += float((h @ _W2).sum())
        acc += float(np.abs(np.diff(_SIGNAL[:512])).mean())
    return acc


def pin_to_one_cpu() -> int:
    """Keep this process and every process it starts on one CPU.

    The two vCPUs of the VM changed speed independently (their kernel times
    correlated at 0.3), so a sample only describes work on its own CPU. The
    benchmark runs one process at a time, so one CPU loses nothing.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def sample() -> float:
    """Median seconds of one kernel pass, over ``PASSES`` passes."""
    times = []
    for _ in range(PASSES):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Speed:
    """Kernel samples taken between the timed pieces of one run."""

    def __init__(self) -> None:
        _kernel()  # warm caches and numpy before the first sample
        self.samples: list[float] = []

    def mark(self) -> None:
        self.samples.append(sample())

    def factor(self) -> float:
        """The machine's speed over this phase, relative to the reference.

        The mean, not the median, of the samples: the speed switches within
        seconds, and the work between samples runs at the average speed.
        """
        return REF_S / statistics.fmean(self.samples) if self.samples else 0.0
