"""Host-speed probe: scales measured program time to reference seconds.

The host's speed drifts by up to 2x, in stretches from seconds to longer than
a run, and CPU time drifts with it, so neither a median of passes nor a best
repeat is steady from run to run.  A fixed probe, which mixes interpreter work
and small numpy calls as a simplex iteration does and shares no code with the
program, runs before and after every pass and, in untraced passes, between
jobs at most every PROBE_EVERY_S.  Program time between two probes is scaled by
PROBE_REF_S over the mean probe time at its two ends: a wall metric reads as
the seconds the work takes on a host where the probe takes PROBE_REF_S.
"""

from __future__ import annotations

import bisect
import math
import time

import numpy as np

from milpbench import runner

PROBE_REF_S = 0.006  # the probe's time on an idle Xeon at the fast end of its drift
PROBE_EVERY_S = 0.25

_rng = np.random.default_rng(12345)
_BASE = _rng.random((40, 40)) + 40.0 * np.eye(40)
_LOWER = _rng.random(40)


def probe_once() -> float:
    """Seconds for 150 steps of dense 40x40 algebra plus a Python ratio-test loop."""
    t0 = time.perf_counter()
    B, x = _BASE.copy(), np.zeros(40)
    for k in range(150):
        d = B @ B[:, k % 40]
        np.flatnonzero((d > 0.5) & (_LOWER < 0.7))
        best, p_best = math.inf, 0
        for p in range(40):
            if d[p] > 1e-9:
                t = (x[p] + _LOWER[p]) / d[p]
                if t < best - 1e-9:
                    best, p_best = t, p
        B -= np.outer(d, B[p_best, :] / d[p_best]) * 1e-6
    return time.perf_counter() - t0


class SpeedClock:
    """Probe timeline of one run; ``with clock:`` also probes between jobs."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.factors: list[float] = []
        self.job_ends: list[float] = []
        self._saved = None

    def probe(self) -> None:
        start = time.perf_counter()
        took = probe_once()
        self.starts.append(start)
        self.ends.append(time.perf_counter())
        self.factors.append(PROBE_REF_S / took)

    def __enter__(self) -> "SpeedClock":
        self._saved = original = runner.run_job

        def run_job(*args, **kwargs):
            record = original(*args, **kwargs)
            self.job_ends.append(time.perf_counter())
            if self.job_ends[-1] - self.ends[-1] >= PROBE_EVERY_S:
                self.probe()
            return record

        runner.run_job = run_job
        return self

    def __exit__(self, *exc) -> None:
        runner.run_job = self._saved

    def factor_at(self, t: float) -> float:
        """Mean factor of the probes just before and just after time ``t``."""
        k = bisect.bisect_right(self.ends, t)
        before = self.factors[max(k - 1, 0)]
        after = self.factors[min(k, len(self.factors) - 1)]
        return (before + after) / 2.0

    def program_time(self, start: float, end: float, scaled: bool) -> float:
        """Time in [start, end] outside the probes; scaled to reference seconds if asked."""
        total = 0.0
        for k in range(1, len(self.starts)):
            lo, hi = max(start, self.ends[k - 1]), min(end, self.starts[k])
            if hi > lo:
                factor = (self.factors[k - 1] + self.factors[k]) / 2.0 if scaled else 1.0
                total += (hi - lo) * factor
        return total
