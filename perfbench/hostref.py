"""Host-speed reference: a fixed memory-bound kernel timed between operations.

The benchmark's host is a small share of a busy machine, and its speed
moves by a third or more from one second to the next as neighbours contend
for its cores, caches and memory.  Every pass therefore times this kernel
before the first measured operation and after each one, in the same
process and outside every timed region.  Each operation's time is rescaled
by ``NOMINAL_KERNEL_S`` over the mean of the two kernel times around it,
so the gated time metrics read as seconds on a host where the kernel takes
its nominal time.

The kernel reads random entries of a 4 MiB integer array (twice the L2
cache of the baseline host), so it feels both a slow core and a contended
cache, as the synthesizer's pointer-heavy heap does.  It runs no code of
the package under test, so a change to the package moves the rescaled
figures exactly as much as the raw ones.  The array holds no objects the
garbage collector tracks, so it never adds to the package's collection
work; its bytes are known exactly and are taken out of the pass's peak RSS.

See the kernel time on a host with::

    python3 perfbench/hostref.py
"""

from __future__ import annotations

import random
import statistics
import time
from array import array
from typing import List

#: Entries of the array (8 bytes each).
TABLE_SIZE = 1 << 19
#: Random reads per kernel call.
READS = 60_000
#: Median kernel time on the 2-vCPU host the baseline was taken on.
NOMINAL_KERNEL_S = 0.011


class HostSpeed:
    """The kernel, its samples in one pass, and the rescaling they give."""

    def __init__(self) -> None:
        rng = random.Random(0)
        self._table = array("q", range(TABLE_SIZE))
        self._order = array("q", (rng.randrange(TABLE_SIZE) for _ in range(READS)))
        self.samples: List[float] = []

    @property
    def resident_mb(self) -> float:
        """Memory the kernel's arrays hold, in MiB."""
        return sum(a.itemsize * len(a) for a in (self._table, self._order)) / 2**20

    def kernel_seconds(self) -> float:
        """Wall seconds of one kernel call."""
        table = self._table
        start = time.perf_counter()
        total = 0
        for index in self._order:
            total += table[index]
        return time.perf_counter() - start

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            self.samples.append(self.kernel_seconds())

    def scale(self) -> float:
        """Nominal over the pass's median kernel time (for set-up)."""
        return NOMINAL_KERNEL_S / statistics.median(self.samples)

    def rescaled(self, seconds: List[float]) -> float:
        """Total of per-operation times, each rescaled by the kernel around it.

        ``seconds[i]`` ran between samples ``i`` and ``i + 1``.
        """
        return sum(
            t * NOMINAL_KERNEL_S / ((self.samples[i] + self.samples[i + 1]) / 2)
            for i, t in enumerate(seconds)
        )


if __name__ == "__main__":
    speed = HostSpeed()
    speed.sample(50)
    print(f"kernel median {statistics.median(speed.samples):.5f} s over 50 calls")
