"""Calibrated time: job latencies restated at a fixed machine speed.

The container this benchmark was built on changes speed by up to 2x from one
second to the next (other tenants' load), and CPU time swings with wall
time, so raw times of identical runs spread by 13-40%.  A fixed slice of
work owned by the benchmark (interpreter calls, small-array numpy and a
gather over a 1 MB array) runs after every job, repeated to about CAL_SHARE
of the job's time.  (Slices before a job as well made the first pass, which
has no earlier pass to size them by, read 10% faster than the others.)  A job's calibrated latency is its latency times
CAL_REF_S over the median slice time within CAL_NEAR_S of the job: seconds
at the speed at which one slice takes CAL_REF_S, about its median there.
"""
from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.special import rel_entr

CAL_REF_S = 2.0e-3
CAL_SHARE = 0.03
CAL_NEAR_S = 0.2


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._pmfs = rng.dirichlet(np.ones(4), size=64)
        self._big = rng.random(1 << 17)
        self._gather = rng.integers(0, 1 << 17, 1 << 17)
        self.slices: list[tuple[float, float]] = []  # (end time, seconds)

    def _slice(self) -> None:
        p, acc = self._pmfs, 0.0
        t0 = time.perf_counter()
        for i in range(200):
            acc += float(rel_entr(p[i % 64], p[(7 * i + 3) % 64]).sum())
            acc += len(str({"i": i, "pair": (i, i + 1)}))
        acc += float(np.log1p(self._big[self._gather]).sum())
        t1 = time.perf_counter()
        self.slices.append((t1, t1 - t0))

    def after_job(self, seconds: float) -> None:
        """Run the slices that follow a job of the given length."""
        for _ in range(max(1, min(100, round(CAL_SHARE * seconds / CAL_REF_S)))):
            self._slice()

    def scale(self, start: float, end: float) -> float:
        """The job that ran from start to end, in seconds at the reference speed."""
        near = [s for t, s in self.slices if start - CAL_NEAR_S <= t <= end + CAL_NEAR_S]
        return (end - start) * CAL_REF_S / statistics.median(near)
