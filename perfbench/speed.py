"""Machine-speed probe: a fixed stdlib job timed close to the measured work.

The 2-vCPU machine this benchmark was tuned on runs identical work at
speeds that drift by up to 2x over tens of seconds, and most of that
drift hits the workload and any other Python code running at that
moment alike. An episode therefore times a fixed job of its own (a
``deepcopy`` of a small nested dict, with the cyclic collector paused)
before set-up, between workflow calls of the timed phase and around the
replay, and reports ``factor``: the reference time of that job over its
median time in the episode. A wall or CPU time multiplied by the factor
is in *reference seconds*, the time it would have been on a machine
where the job takes ``REFERENCE_S``. The job uses nothing from islsim, so no change to
the program can move it. Time spent probing is left out of every
timing the episode reports.
"""

from __future__ import annotations

import copy
import gc
import statistics
import time

_JOB = {f"k{i}": {"a": [i, str(i), (i, i)], "b": {"x": i, "y": [1, 2]}} for i in range(60)}
REFERENCE_S = 0.9e-3  # median time of one job on the tuning machine
EVERY_S = 0.025  # during the timed phase, at most one job per this many seconds


class Probe:
    """Times of the fixed job in one episode, and the time spent on them."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._last = float("-inf")

    def sample(self, n: int = 1) -> None:
        start = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            for _ in range(n):
                began = time.perf_counter()
                copy.deepcopy(_JOB)
                self.samples.append(time.perf_counter() - began)
        finally:
            if collecting:
                gc.enable()
        self._last = time.perf_counter()
        self.spent_s += self._last - start

    def sample_if_due(self) -> None:
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()

    def factor(self) -> float:
        """Reference seconds per wall second in this episode."""
        return REFERENCE_S / statistics.median(self.samples)
