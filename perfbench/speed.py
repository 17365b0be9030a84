"""Scale timings to a fixed machine speed with a calibration loop.

On a shared host the same code runs up to twice as fast in one minute
as in the next, because other tenants load the CPU.  The meter times a
fixed exact-rational loop (stdlib ``Fraction`` only, nothing from
syzmirror) before, during and after the timed interval; during it, a
SIGALRM every ``PERIOD_S`` takes a sample.  Each stretch between two
samples is scaled by ``REFERENCE_UNIT_S`` over the mean loop time at its
two ends, so a stretch that ran at half speed counts half.  Sampling
time itself is left out of both the raw and the scaled time.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

# Loop time of one calibration unit on the benchmark machine (x86-64
# VM, 2 vCPUs, Python 3.11) while no other tenant loads it.  Scaled
# times are seconds at that speed.
REFERENCE_UNIT_S = 0.00134
PERIOD_S = 0.05

_OPERANDS = {(i, j): Fraction(i + 1, j + 2) for i in range(6) for j in range(6)}


def _unit() -> None:
    """A small sparse convolution over Fractions, like the kernel's loop."""
    out = {}
    for (i, j), a in _OPERANDS.items():
        for (k, l), b in _OPERANDS.items():
            if i + j + k + l <= 8:
                e = (i + k, j + l)
                prev = out.get(e)
                out[e] = a * b if prev is None else prev + a * b


def unit_time() -> float:
    """Seconds one calibration unit takes, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        began = time.perf_counter()
        _unit()
        return time.perf_counter() - began
    finally:
        if enabled:
            gc.enable()


class SpeedMeter:
    """Clock for one timed interval: ``with meter: ...`` then ``meter.raw_s``.

    Uses SIGALRM, so it runs only in the main thread of the process.
    """

    def __init__(self):
        # (wall at start, wall at end, unit time, cpu at start, cpu at end)
        self._samples: list[tuple[float, float, float, float, float]] = []
        self._active = False
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _sample(self) -> None:
        begin, cpu_begin = time.perf_counter(), time.process_time()
        unit = unit_time()
        self._samples.append((begin, time.perf_counter(), unit, cpu_begin, time.process_time()))

    def _on_alarm(self, signum, frame) -> None:
        if self._active:
            self._sample()

    def __enter__(self) -> "SpeedMeter":
        self._samples = []
        self._sample()
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._active = False
        self._sample()

    def _gaps(self, start: int, end: int):
        """(length, unit time at its two ends) of each stretch between samples."""
        for cur, nxt in zip(self._samples, self._samples[1:]):
            yield nxt[start] - cur[end], (cur[2] + nxt[2]) / 2

    @property
    def raw_s(self) -> float:
        """Wall seconds of the interval, without the sampling time."""
        return sum(length for length, _ in self._gaps(0, 1))

    @property
    def scaled_s(self) -> float:
        """Wall seconds of the interval at the reference speed."""
        return sum(length * REFERENCE_UNIT_S / unit for length, unit in self._gaps(0, 1))

    @property
    def scaled_cpu_s(self) -> float:
        """CPU seconds (user plus system) of the interval at the reference speed."""
        return sum(length * REFERENCE_UNIT_S / unit for length, unit in self._gaps(3, 4))
