"""Speed-normalised walls.

On a shared cloud VM the CPU's speed changes by a quarter or more from
one second to the next (the sibling hyperthread's load, other tenants),
and a whole run can fall into a slow minute.  Every time the benchmark
reports is therefore normalised: a fixed probe (:func:`speed_probe`)
runs right before and right after each timed *slice*, and the slice's
wall is scaled by ``REFERENCE_S`` over the mean of the two probes.  The
figures then read as the walls on a machine where the probe takes
``REFERENCE_S``; a change to the program moves them exactly as it moves
the raw walls, while the machine's drift cancels.

A slice should be short (well under a second or two): the probes see
the speed at its ends only.  Passes that run longer split themselves
into slices through :meth:`Meter.time`.
"""

from __future__ import annotations

import time

import numpy as np

#: the probe's size, and its median wall on the 2-vCPU VM the benchmark
#: was written on (the machine the normalised walls refer to)
PROBE_LOOP = 150_000
PROBE_MATMULS = 36
PROBE_SWEEPS = 12
REFERENCE_S = 0.040

#: a probe that ended less than this long ago still describes the speed
#: (back-to-back slices share the probe between them)
_REUSE_S = 0.005

_MATRIX = np.linspace(-1.0, 1.0, 200 * 200).reshape(200, 200)
#: 8 MB each: larger than the last-level cache, so sweeping them is
#: bound by memory bandwidth
_BIG = np.ones(1 << 20)
_DST = np.empty_like(_BIG)


def speed_probe() -> float:
    """Wall seconds of a fixed slice of interpreter, BLAS and memory work.

    The program's time splits between computing and waiting on memory,
    and a neighbour slows the two by different amounts.  Around
    ``stream-sweep`` rounds whose walls fell from 1.9 s to 1.35 s and
    back, the compute half alone fell and rose with them.  The daemon's
    cold passes, whose raw walls ran from 5.0 s to 8.2 s across five
    processes, read 4.7-5.8 s normalised by the compute half alone,
    4.6-5.5 s by the memory half alone, and 4.8-5.2 s by both.
    """
    t0 = time.perf_counter()
    s = 0
    for i in range(PROBE_LOOP):
        s += i * i
    for _ in range(PROBE_MATMULS):
        _MATRIX @ _MATRIX
    for _ in range(PROBE_SWEEPS):
        np.copyto(_DST, _BIG)
        np.add(_BIG, 1.0, out=_DST)
    return time.perf_counter() - t0


class Meter:
    """Raw and speed-normalised wall of a sequence of timed slices."""

    def __init__(self) -> None:
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self._last: tuple[float, float] | None = None  # (probe, ended at)

    def _probe(self) -> float:
        if self._last is not None and time.perf_counter() - self._last[1] < _REUSE_S:
            return self._last[0]
        value = speed_probe()
        self._last = (value, time.perf_counter())
        return value

    def time(self, fn, *args):
        """``(fn(*args), scale)``: runs one slice and adds up its walls.

        ``scale`` turns a raw duration measured inside the slice (a
        request's latency) into a normalised one.
        """
        before = self._probe()
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0
        after = speed_probe()
        self._last = (after, time.perf_counter())
        scale = REFERENCE_S / ((before + after) / 2.0)
        self.raw_s += wall
        self.scaled_s += wall * scale
        return result, scale
