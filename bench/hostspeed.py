"""Host speed, sampled through a run by a fixed reference kernel.

The benchmark host shares its cores with other tenants.  Measured on it
(2 cores), the same work ran at two speeds about 40% apart, switching every
few seconds to tens of seconds, so a whole run can land in either.  Repeating
work inside a run does not remove that.

So the timed run samples a reference kernel between tasks: interpreter loops,
tiny matrix products and wide row updates, the three kinds of work matslice's
kernels do, but no matslice code.  A task's time is scaled by
``REFERENCE_S / k``, where k is the median of the ``NEAREST`` kernel samples
closest in time to the task.  Pairing each task with its neighbours in time
cancelled the host's speed changes better than whole-run averages did: over
9-second windows the spread of task times fell from 15-19% to 2-7%.  Scaled
times read as if the host ran at the speed at which the kernel takes
``REFERENCE_S``, the fast mode of that host.  A change to matslice leaves the
kernel alone and so moves scaled times fully.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

REFERENCE_S = 0.7e-3
INTERVAL_S = 0.02
NEAREST = 5
_SMALL = np.linspace(-1.0, 1.0, 36).reshape(6, 6)
_WIDE = np.linspace(-1.0, 1.0, 9 * 720).reshape(9, 720)


def kernel() -> float:
    acc = 0
    for i in range(4000):
        acc += i * i
    for _ in range(40):
        b = _SMALL @ _SMALL.T
        acc += float(np.abs(b - b.T).max())
    rows = _WIDE.copy()
    for _ in range(4):
        for i in range(1, 9):
            rows[i] -= 1e-3 * rows[0]
    return acc + float(rows[-1, -1])


class HostSpeed:
    def __init__(self):
        self.times: list[float] = []     # instants of the samples, ascending
        self.samples: list[float] = []   # kernel durations

    def sample(self):
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.times.append(end)
        self.samples.append(end - start)

    def sample_if_due(self):
        if not self.times or time.perf_counter() - self.times[-1] >= INTERVAL_S:
            self.sample()

    def scale(self, t: float) -> float:
        """Factor that takes a time measured at instant ``t`` to reference speed."""
        i = bisect.bisect_left(self.times, t)
        lo, hi = i, i   # widen [lo, hi) towards whichever neighbour is closer to t
        while hi - lo < min(NEAREST, len(self.times)):
            if hi == len(self.times) or (lo > 0 and t - self.times[lo - 1] <= self.times[hi] - t):
                lo -= 1
            else:
                hi += 1
        return REFERENCE_S / statistics.median(self.samples[lo:hi])
