"""Host speed, sampled while the benchmark runs.

The benchmark shares a small host whose cores speed up and slow down by
up to a third within seconds.  While a round runs, a thread repeats a fixed
calibration slice (small numpy calls, a sort, dict updates: the kind of
work graphopt's hot paths do) every ``PERIOD_S`` seconds and times each
slice by its own CPU time, which waiting for a core or for the
interpreter lock does not advance.  A round's speed factor is the mean
slice time over ``REFERENCE_SLICE_S``; dividing a timing by it expresses
the timing at the reference speed.  An operation's factor averages the
slices run during it or within ``MARGIN_S`` of it, since the speed moves
within a round.  The slice does not touch graphopt, so no change to the
program changes the factor's meaning.
"""

from __future__ import annotations

import statistics
import threading
import time

import numpy as np

REFERENCE_SLICE_S = 3.0e-3  # the slice's CPU time on the reference host
PERIOD_S = 0.1
MARGIN_S = 0.25

_ROWS = np.random.default_rng(0).random((30, 6))


def calibration_slice() -> float:
    """CPU seconds of one fixed slice of mixed Python and numpy work."""
    start = time.thread_time()
    buckets: dict = {}
    for i in range(300):
        row = _ROWS[i % 30]
        value = float(np.clip(row * 1.5, 0.0, 1.0).sum())
        key = tuple(sorted(int(v * 10) for v in row))
        buckets[key] = buckets.get(key, 0.0) + value
    return time.thread_time() - start


class SpeedProbe:
    """Context manager sampling the host speed while its block runs."""

    def __init__(self):
        self.slices: list[tuple[float, float]] = []  # (perf_counter, CPU s)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _take(self) -> None:
        self.slices.append((time.perf_counter(), calibration_slice()))

    def _sample(self) -> None:
        while not self._stop.wait(PERIOD_S):
            self._take()

    def __enter__(self) -> "SpeedProbe":
        self._take()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._take()

    @property
    def factor(self) -> float:
        """Mean slice time over the reference: above 1 on a slower host."""
        return statistics.fmean(s for _, s in self.slices) / REFERENCE_SLICE_S

    def factor_during(self, start: float, seconds: float) -> float:
        """The factor of the slices within ``MARGIN_S`` of an interval,
        or of the nearest slice when none is."""
        near = [s for t, s in self.slices
                if start - MARGIN_S <= t <= start + seconds + MARGIN_S]
        if not near:
            near = [min(self.slices, key=lambda ts: abs(ts[0] - start))[1]]
        return statistics.fmean(near) / REFERENCE_SLICE_S


def sampled_factor() -> float:
    """The speed factor from ten slices run back to back, for short phases."""
    return statistics.fmean(calibration_slice() for _ in range(10)) / REFERENCE_SLICE_S
