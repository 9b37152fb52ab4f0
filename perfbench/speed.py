"""Host-speed normalisation of the benchmark's times.

The machines this benchmark runs on are small shares of a busy host,
and their speed drifts by 20-30% over seconds to minutes: a fixed loop
runs that much slower in some stretches than in others, with no steal
time shown in the guest.  A stretch can cover a whole run, so no
statistic inside a run removes it.

A probe measures the drift where the work runs.  A SIGALRM timer fires
every PROBE_INTERVAL_S of wall time, and its handler runs ``kernel``, a
fixed mix of small numpy operations and interpreter work that imports
nothing from the program, and records how long it took.  The probes'
own time is taken out of the measured time, and the rest is scaled by
REF_PROBE_S / (mean probe time over the same interval): a time in
*reference seconds*, the time the work would take on a host that runs
the kernel in REF_PROBE_S.  Handlers run between bytecodes of the main
thread, so a probe never interrupts the program inside a numpy call.
"""
from __future__ import annotations

import gc
import signal
import time

import numpy as np

PROBE_INTERVAL_S = 0.1
# about the kernel's mean time per probe on the 2-core host the baseline
# was measured on; it only sets the scale of reference seconds
REF_PROBE_S = 0.0020
KERNEL_ROUNDS = 30

_rng = np.random.default_rng(0)
# small enough to stay in L1.  A kernel that also read a 4 MB array
# tracked the host's drift somewhat better, but the program's own cache
# footprint slowed it too: it ran 18% slower during `attn`, whose tape
# leak grows the heap to 800 MB, than during `eval`.  That would fold
# part of a change to the program into the correction (README.md)
_X = _rng.standard_normal((40, 64))
_W = _rng.standard_normal((64, 64)) / 8.0


def kernel() -> None:
    """The fixed work a probe times: the shapes of a small encoder step
    (matmul, tanh, softmax) plus Python object work between them."""
    x = _X
    kept = {}
    for i in range(KERNEL_ROUNDS):
        h = np.tanh(x @ _W)
        x = h * 0.5 + _X
        e = np.exp(h - h.max(axis=1, keepdims=True))
        e /= e.sum(axis=1, keepdims=True)
        kept[i] = [float(e[0, 0]), str(i)]


class SpeedProbe:
    """Probes the host's speed on a timer; ``samples`` holds
    (start, duration) pairs in perf_counter seconds."""

    def __init__(self, interval: float = PROBE_INTERVAL_S):
        self.interval = interval
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def _handler(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()   # a collection of the program's heap is not speed
        started = time.perf_counter()
        kernel()
        self.samples.append((started, time.perf_counter() - started))
        if collecting:
            gc.enable()

    def start(self) -> None:
        """Probe now, then every `interval`."""
        self._handler(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        """Probe a last time and stop, so that even a process shorter
        than `interval` has a probe at each end."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._handler(None, None)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def window(self, started: float, ended: float) -> dict:
        """Probes that started within [started, ended]: their count,
        total and mean time.  An interval too short to hold one takes
        the mean of every probe so far."""
        inside = [d for s, d in self.samples if started <= s <= ended]
        pool = inside or [d for _, d in self.samples]
        return {"probes": len(inside), "probe_s": sum(inside),
                "probe_mean_s": sum(pool) / len(pool) if pool else None}


def reference_seconds(wall_s: float, window: dict) -> float:
    """`wall_s` without the probes' own time, in reference seconds."""
    mean = window.get("probe_mean_s")
    busy = wall_s - window.get("probe_s", 0.0)
    return busy * REF_PROBE_S / mean if mean else busy
