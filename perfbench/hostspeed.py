"""Timings on a shared host, scaled to a nominal host speed.

The benchmark runs on a few cores of a host shared with other guests.  The
speed of that host for the same pure-Python work drifts by tens of percent
within seconds: on a 2-vCPU KVM guest (Intel Xeon, 2.1 GHz) with nothing
else running in the guest and no steal time, a fixed loop took from 0.023 to
0.043 s in ten-second windows, and the process's CPU time drifted with its
wall time.  A wall time alone then measures the neighbours as much as the
program.

A ``HostSpeed`` times a short fixed reference loop, a *probe*, every
``period`` seconds from a ``SIGALRM`` handler, which runs between two
bytecodes of the program, and before and after every timed phase.  The
host's speed at a probe is ``NOMINAL_PROBE_S`` over the probe's time.  A
phase reports its wall time, less the probes and collections the harness ran
inside it, multiplied by the mean speed of the probes from just before it to
just after it: its time in seconds at the nominal speed.  On a host running
at the nominal speed that is its wall time; the wall time is kept beside it.
Interleaving a fixed loop with a varied workload tracked the drift well on
that host: the quartile distance over median of ten-sample medians fell from
0.30 for wall times to 0.03 for scaled times.

A process that waits for a child does not probe: a probe taken just after
waking from the wait reads slow.  The child probes itself
(``cli_child.py``) and its probes are ``record``-ed into the parent's.

The collector is off during a probe, which frees all it allocates, so a
probe never triggers a collection of the program's objects.
"""

from __future__ import annotations

import contextlib
import gc
import signal
import time

PROBE_ITERATIONS = 3000
# Time of one probe at the nominal speed: about the fastest the host above
# ran it.
NOMINAL_PROBE_S = 0.0015


def reference_loop(n: int = PROBE_ITERATIONS) -> int:
    """Fixed pure-Python work of the program's kind: tuples, sets and dicts
    built, hashed and looked up, all freed before it returns."""
    table: dict[tuple[int, int], int] = {}
    seen = set()
    for i in range(n):
        key = (i % 211, i % 13)
        table[key] = table.get(key, 0) + 1
        seen.add(frozenset((i & 63, key[0])))
    return len(table) + len(seen)


class Timing:
    """The result of one timed phase."""

    wall = 0.0
    seconds = 0.0


class HostSpeed:
    """Probes of the host's speed and phases timed against them.

    ``period`` (seconds) turns on probes during phases, while the object is
    entered as a context manager.  ``edges=False`` leaves out the probes
    before and after each phase, for a process whose phases wait for a child
    that probes itself; a phase that saw no probe then probes once at its
    end."""

    def __init__(self, period: float | None = None, edges: bool = True) -> None:
        self.period = period
        self.edges = edges
        self.speeds: list[float] = []
        self.paused = 0.0
        self._busy = False
        self._previous_handler = None

    def probe(self) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        t1 = time.perf_counter()
        reference_loop()
        t2 = time.perf_counter()
        if collecting:
            gc.enable()
        self.speeds.append(NOMINAL_PROBE_S / (t2 - t1))
        self.paused += time.perf_counter() - t0
        self._busy = False

    def record(self, speeds: list[float], paused: float) -> None:
        """Add the probes another process took while this one waited."""
        self.speeds.extend(speeds)
        self.paused += paused

    def __enter__(self) -> "HostSpeed":
        if self.period:
            self._previous_handler = signal.signal(signal.SIGALRM,
                                                   lambda signum, frame: self.probe())
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        if self.period:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous_handler)

    @contextlib.contextmanager
    def timed(self):
        """Time the body: a full collection first, so that every phase
        starts from the same collector state, then probes around it."""
        t = time.perf_counter()
        gc.collect()
        self.paused += time.perf_counter() - t
        first = len(self.speeds)
        if self.edges:
            self.probe()
        paused = self.paused
        timing = Timing()
        t0 = time.perf_counter()
        try:
            yield timing
        finally:
            t1 = time.perf_counter()
            timing.wall = t1 - t0 - (self.paused - paused)
            if self.edges or len(self.speeds) == first:
                self.probe()
            speeds = self.speeds[first:]
            timing.seconds = timing.wall * sum(speeds) / len(speeds)
