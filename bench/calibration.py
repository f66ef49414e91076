"""Machine-speed calibration for the untraced run.

On a shared virtual machine the CPU speed seen by one process drifts by a
quarter and more, within seconds and between runs (other guests on the same
cores), and it moves every timing of a run together.  Measured this way,
the spread of throughput and latency percentiles over 30-second windows of
``grid-scan`` was about 0.2 of the median.

A fixed pure-Python kernel, timed between operations about every 50 ms of
work, tracks that drift.  Each time is multiplied by ``REFERENCE_KERNEL_S``
over the median CPU time of the four kernel runs nearest to it, that is,
reported at a reference speed at which the kernel takes 3 ms of CPU (on
the 2-vCPU Xeon VM it was written on, the kernel took 2.2 to 4.4 ms).  On
the same windows this brought the spread down to about 0.05.  The kernel
uses only the standard library, so no change to wallkit can move it.
"""

from __future__ import annotations

import bisect
import json
import statistics
import time
from fractions import Fraction
from math import gcd

REFERENCE_KERNEL_S = 0.003
EVERY_S = 0.05


def kernel() -> int:
    """Fixed mix of big-integer, Fraction, tuple, dict and JSON work."""
    acc = 0
    seen: dict[int, tuple] = {}
    for i in range(1, 300):
        f = Fraction(i, i + 7) + Fraction(3, i)
        t = (i, i * i, f.numerator % 97)
        seen[t[2]] = t
        acc += gcd(t[1], 1 + acc % 1000) + len(json.dumps({"a": i, "b": str(f)}))
    return acc + len(seen)


class Calibration:
    """Kernel timings on the process CPU clock, and the scale they imply."""

    def __init__(self) -> None:
        self.ends: list[float] = []
        self.took: list[float] = []

    def sample(self) -> None:
        start = time.process_time()
        kernel()
        end = time.process_time()
        self.ends.append(end)
        self.took.append(end - start)

    def maybe_sample(self) -> None:
        if not self.ends or time.process_time() - self.ends[-1] >= EVERY_S:
            self.sample()

    def scale(self, at: float) -> float:
        """Factor from CPU seconds at process time ``at`` to reference seconds."""
        i = bisect.bisect_left(self.ends, at)
        return REFERENCE_KERNEL_S / statistics.median(self.took[max(0, i - 2):i + 2])
