"""Host-speed probe: a region's time rescaled to a reference host speed.

The benchmark shares its cores with other tenants, and the speed they
leave it drifts by 20-35% over tens of seconds: the same pass on the
same inputs took 15 s to 22 s in back-to-back runs on a 2 vCPU Xeon
VM, with its CPU time equal to its wall time.  A raw time measures
that drift more than the program.

:class:`SpeedProbe` samples the host's speed while the program runs.
Every ``PERIOD_S`` a ``SIGALRM`` handler, in the program's own thread
and so on its own core, times a fixed piece of pure-Python work
(:func:`probe_work`) that shares no code with the program.  The CPU
time since the previous sample is then rescaled by how much slower
than on the reference host that work ran::

    ref_s = sum(slice_cpu_s * REFERENCE_PROBE_S / probe_cpu_s)

A program change that saves time shortens the slices and leaves the
probe unchanged, so ``ref_s`` falls with it; a slow spell on the host
lengthens both and cancels out.  CPU time rather than wall time keeps
out the time the process spends waiting for a core.  The probe's own
time is left out of every figure; it costs about 1.5% of the region.
"""

from __future__ import annotations

import gc
import signal
import time
from typing import List, Tuple

#: wall time between two probe samples.  A CPU-time timer
#: (``ITIMER_PROF``) would sample more evenly, but while one is armed
#: Linux reads the process CPU clock only at scheduler ticks.
PERIOD_S = 0.05
#: loop iterations of one probe sample
PROBE_WORK = 3000
#: one probe sample's CPU time inside a pass on the reference machine
#: (2 vCPU Xeon VM at 2.0 GHz, Python 3.11) in a quiet spell, so that
#: ``ref_s`` reads close to the CPU time there
REFERENCE_PROBE_S = 0.0007


def probe_work(n: int) -> int:
    """Fixed dict and integer work, like the program's inner loops."""
    table = {}
    acc = 0
    for i in range(n):
        key = (i * 2654435761) & 0xFFFF
        table[key] = table.get(key, 0) + 1
        acc ^= key << (i & 7)
    return acc + len(table)


class SpeedProbe:
    """Time a region as raw wall time, and as CPU time at reference speed."""

    def __init__(self) -> None:
        #: (CPU time since the previous sample, probe CPU time) per sample
        self.samples: List[Tuple[float, float]] = []
        self.wall_s = 0.0
        self._probe_wall_s = 0.0
        self._last_cpu = 0.0
        self._start_wall = 0.0
        self._old_handler = None
        self._busy = False

    def _sample(self, *_signal_args) -> None:
        if self._busy:  # a timer signal that landed inside a sample
            return
        self._busy = True
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            wall = time.perf_counter()
            start = time.process_time()
            probe_work(PROBE_WORK)
            end = time.process_time()
            self._probe_wall_s += time.perf_counter() - wall
        finally:
            if gc_was_enabled:
                gc.enable()
            self._busy = False
        self.samples.append((start - self._last_cpu, end - start))
        self._last_cpu = end

    def __enter__(self) -> "SpeedProbe":
        self.samples = []
        self._probe_wall_s = 0.0
        self._old_handler = signal.signal(signal.SIGALRM, self._sample)
        self._start_wall = time.perf_counter()
        self._last_cpu = time.process_time()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self._sample()  # closes the last slice
        self.wall_s = (
            time.perf_counter() - self._start_wall - self._probe_wall_s
        )

    @property
    def cpu_s(self) -> float:
        """CPU time of the region, without the probe's own time."""
        return sum(slice_s for slice_s, _ in self.samples)

    @property
    def ref_s(self) -> float:
        """The region's CPU time at the reference host's speed."""
        return sum(
            slice_s * REFERENCE_PROBE_S / probe_s
            for slice_s, probe_s in self.samples
        )
