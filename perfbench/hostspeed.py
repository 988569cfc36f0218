"""Host-speed calibration, so that run-to-run time figures compare.

The benchmark runs on a shared virtual machine whose CPU throughput
shifts by up to 1.6x for minutes at a time, with the load of other
tenants on the same cores.  Part of it shows as time stolen from the
virtual CPUs, part only as slower execution (process CPU time grows as
much as wall time); a run that falls in a slow stretch is slower in
every figure (README, "Host-speed calibration").

So each run also times a fixed slice of work that shares no code with
``repro``: parsing and walking a Python syntax tree, an interpreter
loop over a dict, and numpy dominance masks over a small fixed array,
the kinds of work the program does.  The slice is timed by the calling
thread's CPU time, which grows with a slower core but leaves out time
the thread spent waiting (for the GIL, a lock or a core), so a thread
of the program left busy in the background cannot make it look slower.
Slices are taken while the program is idle (no request in flight, no
command running): at the start of a run and between operations, at
most every :data:`INTERVAL_S` of the measured window.  Stolen time is
not in the slice; :func:`steal_s` reports it beside the figures.

:attr:`HostSpeed.scale` is :data:`REFERENCE_S` divided by the run's
median slice time.  Every end-to-end time is multiplied by it (a rate
divided), which reports it in *reference milliseconds*: the time it
would have taken had a slice taken exactly :data:`REFERENCE_S`.  The
raw figures are printed beside the scaled ones.
"""

from __future__ import annotations

import ast
import functools
import os
import time
from pathlib import Path
from typing import List

import numpy as np

from common import clock, median

#: Thread CPU time of one slice that every time metric is scaled to;
#: about what a slice takes on the reference host when it is quiet.
REFERENCE_S = 0.030

#: Least wall time between two slices inside the measured window.
INTERVAL_S = 0.5

_rng = np.random.default_rng(2012)
_POINTS = _rng.random((2000, 5))
_PROBES = _rng.random((60, 5))


@functools.lru_cache(maxsize=1)
def _source() -> str:
    """A fixed Python module of this benchmark, parsed by every slice."""
    return Path(__file__).with_name("common.py").read_text()


def slice_cpu_s() -> float:
    """Thread CPU time of one fixed slice of interpreter and numpy work."""
    source = _source()
    t0 = time.thread_time()
    names = 0
    for _ in range(3):
        for node in ast.walk(ast.parse(source)):
            names += isinstance(node, ast.Name)
    counts = {}
    for i in range(45_000):
        key = i & 255
        counts[key] = counts.get(key, 0) + i
    hits = 0
    for q in _PROBES:
        hits += int(((_POINTS <= q).all(axis=1) & (_POINTS < q).any(axis=1)).sum())
    return time.thread_time() - t0


def steal_s() -> float:
    """Time stolen from this machine's CPUs since boot, summed over CPUs.

    0.0 where ``/proc/stat`` is not there to read.
    """
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    # cpu user nice system idle iowait irq softirq steal ...
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


class HostSpeed:
    """Calibration slices of one run."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        #: Wall time spent in slices, to take out of measured windows.
        self.spent_s = 0.0
        self._last = -INTERVAL_S

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            t0 = clock()
            self.samples.append(slice_cpu_s())
            self._last = clock()
            self.spent_s += self._last - t0

    def maybe_sample(self, n: int = 1) -> None:
        """``n`` slices, if :data:`INTERVAL_S` has passed since the last."""
        if clock() - self._last >= INTERVAL_S:
            self.sample(n)

    @property
    def slice_s(self) -> float:
        return median(self.samples)

    @property
    def scale(self) -> float:
        """Factor that turns a measured time into reference time."""
        return REFERENCE_S / self.slice_s
