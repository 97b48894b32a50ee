"""A fixed reference computation that gauges how fast the machine runs at a moment.

On a shared host the same work takes 10–35% more or less time from one
minute to the next, which is more than the benchmark's bounds allow.  The
run therefore takes short samples of this computation while it measures
(from inside the step timer, every ``GAUGE_INTERVAL_NS`` of each process's
time) and rescales each measured interval by how long the samples took
around it: a time is reported in seconds at the reference speed, the speed at
which one sample takes ``NOMINAL_NS``.

The computation is the kind of dense linear algebra the program's steps
make: a Cholesky factorisation and a solve at size 36, two 400 x 36
matrix-vector products and an argsort of 400 values.  Four candidates were
timed between the steps of a fixed monitor stream and of fixed p = 15 null
runs for 150 s each: this one, small solves with Python arithmetic, a
pure-Python loop and a 4 MB copy.  This one followed the 2 s medians of
step latency closest (correlation 0.89 on the monitor and 0.90 at p = 15;
the others 0.63–0.82).  It is part of the benchmark, not of the program,
so no change to the program changes it; a program that gets faster or
slower moves every rescaled time by the same share as its clock time.

    python3 bench/reference.py      # prints the median sample, in ns
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# About the median sample, taken between the program's steps, on the machine
# the figures in README.md come from: there a rescaled time reads close to
# the clock.
NOMINAL_NS = 450_000
GAUGE_INTERVAL_NS = 40_000_000
BIN_NS = 2_000_000_000

_rng = np.random.default_rng(20091064)
_gram = _rng.standard_normal((36, 36))
_SPD = _gram @ _gram.T + 36.0 * np.eye(36)
_WIDE = _rng.standard_normal((400, 36))
_OBS = _rng.standard_normal(400)


def _work() -> None:
    for _ in range(5):
        np.linalg.cholesky(_SPD)
        coef = np.linalg.solve(_SPD, _WIDE.T @ _OBS)
        np.argsort(_WIDE @ coef)


def sample_ns() -> int:
    """Duration of one run of the reference computation, in ns."""
    start = time.perf_counter_ns()
    _work()
    return time.perf_counter_ns() - start


class Speed:
    """The machine's speed over a run, from (time, duration) reference samples.

    Time is cut into ``BIN_NS`` bins from the first sample; a bin's factor
    is ``NOMINAL_NS`` over the median duration of its samples, and a bin
    with no sample takes the nearest sampled bin's.  ``scale`` turns a
    measured interval into seconds at the reference speed by integrating
    the factor over it.
    """

    def __init__(self, times_ns, durations_ns):
        times = np.asarray(times_ns, dtype=np.int64)
        durations = np.asarray(durations_ns, dtype=np.float64)
        if times.size == 0:
            raise ValueError("no reference samples were taken")
        self.origin = int(times.min())
        bins = (times - self.origin) // BIN_NS
        n = int(bins.max()) + 1
        medians = np.full(n, np.nan)
        for b in np.unique(bins):
            medians[b] = np.median(durations[bins == b])
        sampled = np.flatnonzero(~np.isnan(medians))
        nearest = sampled[np.abs(np.arange(n)[:, None] - sampled[None, :]).argmin(axis=1)]
        self.factor = NOMINAL_NS / medians[nearest]
        self.samples = int(times.size)
        self.median_sample_ns = float(np.median(durations))

    def factor_at(self, times_ns) -> np.ndarray:
        bins = (np.asarray(times_ns, dtype=np.int64) - self.origin) // BIN_NS
        return self.factor[np.clip(bins, 0, self.factor.size - 1)]

    def scale(self, start_ns: int, end_ns: int) -> float:
        """Seconds at the reference speed that the interval [start, end) took."""
        edges = self.origin + BIN_NS * np.arange(1, self.factor.size, dtype=np.int64)
        cuts = np.concatenate(([start_ns], edges[(edges > start_ns) & (edges < end_ns)], [end_ns]))
        return float(np.sum(np.diff(cuts) * self.factor_at(cuts[:-1]))) / 1e9


if __name__ == "__main__":
    durations = [sample_ns() for _ in range(550)][50:]
    print(round(statistics.median(durations)))
