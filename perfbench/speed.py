"""Machine-speed probe: fixed work that owes nothing to stickysim.

On a shared host the same code runs up to twice as slow for seconds to
minutes at a time, and CPU time slows as much as wall time.  A Sampler
therefore runs this probe every ``INTERVAL_S`` during a timed region, from a
SIGALRM handler in the measuring thread, and scales each stretch of host time
between two readings by ``REFERENCE_S`` over their mean.  The sum is seconds
at a fixed reference speed, which a change to stickysim moves and a slow
phase of the host mostly does not.  Probe time itself is left out.

The probe mimics the two kinds of work the workloads do: an interpreter-bound
event loop over Python lists fed by blocks of numpy uniforms (like the
simulators), and many numpy calls on short arrays (like the ODE steps).
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

# probe seconds on the reference host (2-core x86-64 sandbox, Python 3.11,
# numpy 2.4) in a quiet phase; only the ratio to it is used, and it is the
# same constant for every commit compared
REFERENCE_S = 0.025
INTERVAL_S = 0.25

_DRAWS = 1 << 15
_SERVERS = 100
_LEVELS = 280


def _event_loop(gen: np.random.Generator) -> int:
    """Birth-death chain over a slot table with swap removal."""
    buf = gen.random(_DRAWS).tolist()
    occ = [0] * _SERVERS
    last = [0.0] * _SERVERS
    hist = [0.0] * 512
    slots: list[int] = []
    count = 0
    t = 0.0
    log = math.log
    for k in range(0, _DRAWS - 1, 2):
        t += -log(1.0 - buf[k]) / (1.0 + count)
        v = buf[k + 1]
        if v < 0.5 or count == 0:
            s = int(v * 2 * _SERVERS) % _SERVERS
            o = occ[s]
            occ[s] = o + 1
            slots.append(s)
            count += 1
        else:
            j = int(v * count) % count
            s = slots[j]
            count -= 1
            slots[j] = slots[count]
            slots.pop()
            o = occ[s]
            occ[s] = o - 1
        hist[o] += t - last[s]
        last[s] = t
    return count


def _array_steps(x: np.ndarray) -> float:
    """Short-array updates shaped like an RK4 stage."""
    y = x.copy()
    top = 0.0
    for _ in range(750):
        z = np.zeros(_LEVELS + 1)
        z[:_LEVELS] = y
        q = z[:-1] - z[1:]
        y = np.clip(y + 1e-3 * (q - y), 0.0, 1.0)
        np.minimum.accumulate(y, out=y)
        top = float(np.abs(q).max())
    return top


class Probe:
    """Runs the probe and remembers every reading."""

    def __init__(self) -> None:
        self._gen = np.random.Generator(np.random.Philox(7))
        self._x = np.linspace(1.0, 0.0, _LEVELS)
        self.readings: list[float] = []

    def __call__(self) -> float:
        t0 = time.perf_counter()
        _event_loop(self._gen)
        _array_steps(self._x)
        seconds = time.perf_counter() - t0
        self.readings.append(seconds)
        return seconds

    def median(self, times: int) -> float:
        return statistics.median(self() for _ in range(times))


class Sampler:
    """Host and reference-speed seconds of a timed region, probed as it runs.

    Use as a context manager around the region; read ``wall`` and ``norm``
    after it.  Probe readings land in ``probe.readings``.
    """

    def __init__(self, probe: Probe) -> None:
        self.probe = probe
        self.wall = 0.0
        self.norm = 0.0
        self._last = 0.0
        self._since = 0.0
        self._busy = False

    def _close_stretch(self) -> None:
        stretch = time.perf_counter() - self._since
        reading = self.probe()
        self.wall += stretch
        self.norm += stretch * 2.0 * REFERENCE_S / (self._last + reading)
        self._last = reading
        self._since = time.perf_counter()

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:
            self._busy = True
            try:
                self._close_stretch()
            finally:
                self._busy = False

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._last = self.probe()
        self._since = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._close_stretch()
