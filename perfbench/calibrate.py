"""Host-speed calibration: a fixed reference kernel timed between points.

The benchmark runs on shared machines whose throughput drifts by tens of
percent over seconds to minutes, with CPU time tracking wall time, so a
raw host time mostly measures the neighbours. The child process times
:meth:`Calibrator.kernel` (a few milliseconds of dict probes and numpy
work that the program under test never touches) before every point, and
:class:`ReferenceClock` turns host times into *reference seconds*: each
stretch of host time scaled by ``NOMINAL_S`` over the kernel's local
median time. A slower program still reads slower; a slower host does not.

The samples are excluded from every interval they fall in, so the
kernel's own time never counts as the program's.
"""

import bisect
import statistics
import time

#: The kernel time a reference second is scaled to (about its median on
#: the two-vCPU Xeon VM the benchmark was tuned on).
NOMINAL_S = 0.006

#: Samples on each side of a gap whose median gives the gap's speed. The
#: host switches between speeds within seconds, so the window is short;
#: one sample alone scatters by 10-15% from the next.
WINDOW = 2


class Calibrator:
    """Times :meth:`kernel` and keeps ``[start, end]`` samples on
    ``time.perf_counter``."""

    def __init__(self):
        import numpy

        # Cache-resident work: probes of a small dict, a 1 MB sort.
        self._keys = [(i * 2654435761) & 0xFFFFF for i in range(32768)]
        self._table = dict.fromkeys(self._keys[::2], 1)
        self._array = numpy.arange(1 << 17, dtype=numpy.int64)
        # Work that misses the private caches: scattered probes of a larger
        # dict, scattered gathers from a 4 MB array.
        wide = [(i * 2654435761) & 0xFFFFFFF for i in range(65536)]
        self._wide_table = dict.fromkeys(wide[::2], 1)
        self._wide_probe = wide[::8]
        self._wide_array = numpy.arange(1 << 19, dtype=numpy.int64)
        self._wide_index = (numpy.arange(40000, dtype=numpy.int64) * 2654435761) % (1 << 19)
        self.kernel()  # warm-up: first-call allocations are not host speed
        self.samples = []

    def kernel(self):
        """The reference work: fixed, deterministic, independent of ``repro``.

        The program slows more than cache-resident work when neighbours
        contend for memory and less than memory-bound work, so the kernel
        mixes both in about equal time.
        """
        hits = 0
        table = self._table
        for key in self._keys:
            if key in table:
                hits += key & 3
            else:
                hits -= 1
        mixed = (self._array * 2654435761) & 0xFFFF
        mixed.sort()
        table = self._wide_table
        for key in self._wide_probe:
            if key in table:
                hits += 1
        return hits + int(mixed[-1]) + int(self._wide_array[self._wide_index].sum())

    def sample(self, count=1):
        for _ in range(count):
            start = time.perf_counter()
            self.kernel()
            self.samples.append([start, time.perf_counter()])


class ReferenceClock:
    """Maps ``time.perf_counter`` readings to reference seconds.

    The clock stands still during every calibration sample and otherwise
    runs at ``NOMINAL_S`` over the local kernel time: the gap between
    samples ``j-1`` and ``j`` uses the median time of samples ``j-WINDOW``
    to ``j+WINDOW-1``. Time before the first or after the last sample
    runs at the nearest gap's rate. Reference zero is the first sample's
    start.
    """

    def __init__(self, samples):
        if not samples:
            raise ValueError("no calibration samples")
        self.starts = [start for start, _end in samples]
        self.ends = [end for _start, end in samples]
        took = [end - start for start, end in samples]
        n = len(took)
        # rate[j]: the gap that ends at sample j (j == n: after the last).
        self.rate = [
            NOMINAL_S / statistics.median(took[max(0, j - WINDOW) : min(n, j + WINDOW)])
            for j in range(n + 1)
        ]
        # at[j]: the reference time at which sample j starts (and ends).
        self.at = [0.0]
        for j in range(1, n):
            gap = self.starts[j] - self.ends[j - 1]
            self.at.append(self.at[-1] + gap * self.rate[j])

    def __call__(self, t):
        i = bisect.bisect_right(self.starts, t)
        if i == 0:
            return (t - self.starts[0]) * self.rate[0]
        if t < self.ends[i - 1]:
            return self.at[i - 1]
        return self.at[i - 1] + (t - self.ends[i - 1]) * self.rate[i]
