"""How fast the host runs right now, gauged by a fixed pure-Python loop.

The benchmark runs on VMs that share their physical cores with other
tenants.  The same pass takes up to 1.6 times as long for seconds to
minutes at a time, and ``process_time`` slows with wall time, so no
estimate taken from the passes alone stays put from run to run.  This loop is part of the
benchmark, not of the program, so its time moves with the host and never
with a change to the program.  Scaling a pass's time by ``REF_S`` over the
loop's time measured during it reports the pass at the reference speed.

A pass is sampled with ``Sampler``: a SIGALRM handler runs the loop once
every ``INTERVAL_S`` of wall time, so the samples cover the whole pass, and
the handler's own time is left out of the pass.  A set-up start, which is
another process, is scaled by ``sample()`` taken before and after it.
"""

import math
import signal
import statistics
import time

INT_ITERATIONS = 8_000
OBJ_ITERATIONS = 1_200
REPS = 5
INTERVAL_S = 0.025
# The loop's time on the VM the benchmark was built on, in a quiet period.
REF_S = 1.2e-3


class _P:
    __slots__ = ("x", "y", "t")

    def __init__(self, x, y, t):
        self.x, self.y, self.t = x, y, t


def loop() -> float:
    """Integer arithmetic, then small objects with float maths.

    On a slowed host the integer half slowed less than the program's
    passes and the object half more; their sum tracked the passes best.
    """
    a = 0
    for i in range(INT_ITERATIONS):
        a = (a * 31 + i) & 0xFFFF
    acc = 0.0
    kept = []
    for i in range(OBJ_ITERATIONS):
        p = _P(i * 0.5, i * 0.25, float(i))
        dx, dy = p.x - 1.0, p.y - 2.0
        acc += math.sqrt(dx * dx + dy * dy)
        kept.append(p)
    return acc + a


def sample() -> float:
    """The loop's median time, in seconds, over REPS back-to-back runs."""
    times = []
    for _ in range(REPS):
        start = time.perf_counter()
        loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def at_reference(elapsed: float, before: float, after: float) -> float:
    """elapsed, timed between loop samples before and after, at REF_S speed."""
    return elapsed * REF_S / ((before + after) / 2)


class Sampler:
    """Times the loop every INTERVAL_S while the with-block runs."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0  # seconds the handler took, to leave out of the pass

    def _tick(self, signum=None, frame=None):
        start = time.perf_counter()
        loop()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.spent += time.perf_counter() - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:  # a pass shorter than INTERVAL_S
            self._tick()

    def at_reference(self, elapsed: float) -> float:
        """elapsed, the pass's time without the handler's, at REF_S speed."""
        return elapsed * statistics.fmean(REF_S / s for s in self.samples)
