"""Host-speed calibration for the end-to-end timings.

On a shared virtual machine the host's speed drifts over seconds to
minutes.  On the 2-core x86_64 VM this benchmark was written on, the median
time of one 5 s FC run over 25 s windows ranged from 0.76x to 1.25x of its
overall median, and whole pole-sweep passes took 4.2 s in one benchmark run
and 5.2 s in the next.  Medians within a run cannot remove drift that slow.

So the benchmark runs this fixed loop, which uses no fuzzpole code, before
each of the workload's runs and after each pass, and rescales every run's
time by the host's speed around it: ``rescaled = measured * REFERENCE_S /
(mean of the loop times just before and just after the run)``.  The loop
mixes what the workloads spend their time on: small numpy array operations,
scalar float math and number formatting.  Over five seeds on that VM the
spread (interquartile range over median) of ``wall_s`` fell from 13-19% raw
to 2-4% rescaled.  Rescaled figures read as seconds on a host that runs the
loop in ``REFERENCE_S``; the raw figures are printed beside them.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

# About the median loop time on the VM described above (Python 3.11, numpy 2.4).
REFERENCE_S = 0.004
ITERATIONS = 170

_GRID = np.linspace(-1.0, 1.0, 201)


def _loop() -> float:
    acc = 0.0
    for i in range(ITERATIONS):
        v = _GRID * (1.0 + i * 1e-3)
        y = np.where(v > 0.1, v, np.where(v < -0.1, -v, 0.0))
        acc += float(np.cumsum(np.minimum(y, 0.5))[-1])
        for j in range(20):
            a = math.sin(acc * 1e-9 + j) * 0.5 + j * 1e-3
            acc += a * a
        acc += len(",".join(f"{acc * k:.6g}" for k in range(7)))
    return acc


def loop_seconds(repeats: int = 1) -> float:
    """Median time of the loop over ``repeats`` runs."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Calibrator:
    """Loop times sampled between a workload's runs, and the time they took."""

    def __init__(self):
        self.times: list[float] = []  # when each sample ended
        self.samples: list[float] = []
        self.spent = 0.0

    def between_runs(self) -> None:
        start = time.perf_counter()
        self.samples.append(loop_seconds())
        self.times.append(time.perf_counter())
        self.spent += self.times[-1] - start

    def factor(self, start: float, end: float) -> float:
        """Multiply a time measured from ``start`` to ``end`` by this to
        rescale it: the mean of the samples just before and just after."""
        before = max(bisect.bisect_right(self.times, start) - 1, 0)
        after = min(bisect.bisect_left(self.times, end), len(self.times) - 1)
        return REFERENCE_S / ((self.samples[before] + self.samples[after]) / 2)

    def median_factor(self) -> float:
        return REFERENCE_S / statistics.median(self.samples)
