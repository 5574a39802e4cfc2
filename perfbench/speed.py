"""The machine's speed, measured with a fixed reference computation.

On a shared host the same single-threaded code runs up to 1.5 times slower
for seconds to minutes at a time, in CPU time as much as in wall time: the
processor itself is contended below the guest.  A worker therefore times a
fixed unit of work that never touches the library (``reference_s``) now and
then between ops, and scales each op's CPU time by ``NOMINAL_REF_S`` over the
reference time measured around it.  A scaled time reads as the op's CPU time
on a machine that runs the reference in ``NOMINAL_REF_S``; it moves when the
library does more or less work, and not when the host gets busier.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# median reference time on the 2-vCPU Intel Xeon VM (2.0 GHz) the benchmark
# was defined on; it fixes the unit of every scaled time and must not change
NOMINAL_REF_S = 0.002
# op CPU time between two reference samples, and reference repeats per sample
SAMPLE_EVERY_S = 0.25
REPEATS = 5

_WORDS = np.arange(1 << 17, dtype=np.uint64)
_SCRATCH = np.empty_like(_WORDS)


def reference_s() -> float:
    """CPU time of one fixed unit of interpreter work (dict inserts and a scan
    of small ints) and numpy work (streaming integer arithmetic, no allocation)."""
    start = time.process_time()
    table = {}
    for i in range(6000):
        table[(i * 2654435761) & 0xFFFFF] = i
    total = 0
    for key, value in table.items():
        total += key & value
    for _ in range(4):
        np.multiply(_WORDS, np.uint64(2654435761), out=_SCRATCH)
        np.bitwise_and(_SCRATCH, np.uint64(0xFFFF), out=_SCRATCH)
        total += int(_SCRATCH[-1])
    return time.process_time() - start


class Probe:
    """Reference samples taken between a worker's ops, and the scale factor
    they give each op: ``NOMINAL_REF_S`` over the mean of the samples taken
    just before and just after it."""

    def __init__(self):
        self.marks: list[tuple[int, float]] = []  # (ops timed before the sample, reference s)
        self.ops = 0
        self.since = 0.0
        reference_s()  # the first call pages in the scratch array: not a sample
        self.sample()

    def sample(self) -> None:
        self.marks.append((self.ops, statistics.median(reference_s() for _ in range(REPEATS))))
        self.since = 0.0

    def after_op(self, cpu_s: float) -> None:
        self.ops += 1
        self.since += cpu_s
        if self.since >= SAMPLE_EVERY_S:
            self.sample()

    def factors(self) -> list[float]:
        """One factor per op timed so far; takes a closing sample if needed."""
        if self.marks[-1][0] < self.ops:
            self.sample()
        out = []
        for (first, before), (last, after) in zip(self.marks, self.marks[1:]):
            out += [2 * NOMINAL_REF_S / (before + after)] * (last - first)
        return out

    def median_factor(self) -> float:
        return NOMINAL_REF_S / statistics.median(ref for _, ref in self.marks)
