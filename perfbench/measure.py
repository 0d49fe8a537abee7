"""Wall-clock measurement for the benchmark: a calibration sampler,
nearest-rank percentiles, peak memory and the environment record.

The machines this benchmark runs on are shared: the speed of the
interpreter swings by up to 2x within seconds as neighbouring load
comes and goes.  Raw wall times of identical work then spread by
30-40% between runs, far wider than any regression bound.  So every
reported time is **calibration-normalized**: while a run measures, a
``SIGALRM`` timer interrupts the program every :data:`PERIOD_S` and
times a fixed probe (:func:`_probe_body`) that exercises the same
mix the program spends its time in -- small slotted objects, method
calls, dict stores and small numpy masks.  An interval's normalized
duration is its wall time, minus the probes that ran inside it, times
``REF_PROBE_S / mean probe time around the interval``.  The unit stays
seconds: a normalized second is the time the work takes when one probe
takes :data:`REF_PROBE_S`, about the probe's time on an idle core of a
2-vCPU x86-64 cloud VM (Python 3.11, numpy 2.4).
"""

from __future__ import annotations

import bisect
import os
import platform
import resource
import signal
import statistics
import sys
import time

import numpy as np

PERIOD_S = 0.02
"""Probe interval in wall seconds (the probe costs ~2% of a run)."""

REF_PROBE_S = 3.0e-4
"""Probe duration that defines one normalized second."""

_PROBE_MATRIX = np.random.default_rng(0).random((48, 4))


class _Box:
    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        self.lo = lo
        self.hi = hi

    def meets(self, other: "_Box") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi


def _probe_body() -> int:
    """Fixed work whose duration tracks the interpreter's current
    speed for the kind of code the benchmark measures."""
    table: dict[int, tuple] = {}
    hits = 0
    previous = _Box(0.0, 1.0)
    matrix = _PROBE_MATRIX
    for i in range(60):
        box = _Box(i * 0.5, i + 1.0)
        if box.meets(previous):
            hits += 1
        table[i & 15] = (box, i)
        mask = (matrix[:, 0] <= box.hi) & (matrix[:, 2] >= box.lo)
        hits += len(np.flatnonzero(mask).tolist())
        previous = box
    return hits


class Calibrator:
    """Samples the probe on a wall-clock timer while active (a context
    manager) and normalizes measured intervals against it."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.durations: list[float] = []
        self._previous_handler = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _probe_body()
        end = time.perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self.durations.append(end - start)

    def __enter__(self) -> "Calibrator":
        self._previous_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def normalized(self, t0: float, t1: float) -> float:
        """Normalized seconds of the wall interval ``[t0, t1]``."""
        first = bisect.bisect_left(self.starts, t0)
        last = bisect.bisect_right(self.ends, t1)
        inside = sum(self.durations[first:last])
        around = self.durations[max(first - 1, 0) : last + 1]
        if not around:
            raise RuntimeError("no calibration probe ran during the run")
        mean_probe = sum(around) / len(around)
        return max(t1 - t0 - inside, 0.0) * (REF_PROBE_S / mean_probe)

    def median_probe_ms(self) -> float:
        return statistics.median(self.durations) * 1e3


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (the repository's own convention: the
    reported value is an observed sample, never an interpolation)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = int(-(-q * len(ordered) // 1))
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux reports
    ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    """What the figures were measured on."""
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "ref_probe_ms": REF_PROBE_S * 1e3,
    }
