"""A fixed task that gauges how fast the host runs Python at the moment.

The benchmark's host is shared, and its speed drifts by up to 1.8x over
tens of seconds: a fixed loop runs at one speed for several seconds and
then at another. Two runs of the same code can so differ by more than a
regression worth catching. `run.py` times this task before, during and
after every operation and divides the operation's time by the host speed
it saw.

The task is interpreter work of the kind the package does (a seeded rng,
list and string building, dict counting, small numpy updates) and does
not touch the package. The cyclic collector is off while it runs, so its
time does not depend on how many objects the program under test holds.
"""
from __future__ import annotations

import gc
import random
import signal
from time import perf_counter

import numpy as np

WORDS = [f"w{i}" for i in range(2000)]
_COUNTS = dict.fromkeys(WORDS, 0)
_RNG = random.Random()
_ACC = np.zeros(8)
# seconds one chunk takes on the nominal host, a round figure: a time
# divided by the host factor is stated in seconds on that host. On the
# 2-vCPU host of BASELINE.md a chunk took 1.5 to 5 ms as its speed drifted.
NOMINAL_CHUNK_S = 0.002


def chunk() -> None:
    """One unit of the task, about 2 ms on the nominal host. It holds only
    a few small objects at a time, so a chunk run in the middle of an
    operation leaves no new memory pools behind for the operation to fill."""
    _RNG.seed(0)
    for _ in range(150):
        tokens = [WORDS[_RNG.randrange(len(WORDS))] for _ in range(12)]
        _RNG.shuffle(tokens)
        for tok in " ".join(tokens).split():
            _COUNTS[tok] += 1
        _ACC[_RNG.randrange(8)] += 1.0


def host_factor(seconds: float) -> float:
    """Chunks for at least `seconds` (at least one); returns the mean chunk
    time as a multiple of NOMINAL_CHUNK_S, so 1.5 means a host running
    1.5x slower than the nominal one."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        n = 0
        start = perf_counter()
        while True:
            chunk()
            n += 1
            elapsed = perf_counter() - start
            if elapsed >= seconds:
                return elapsed / n / NOMINAL_CHUNK_S
    finally:
        if enabled:
            gc.enable()


class HostGauge:
    """Gauges the host every `interval` seconds while an operation runs.

    A SIGALRM timer runs one chunk at each tick, in the main thread between
    the operation's bytecodes. A tick keeps only running sums: objects it
    kept alive would pin memory pools amid the operation's own and raise
    its peak memory. `factor_sum` / `count` is the mean host factor of the
    ticks; `paused(t)` is the time the ticks that began before `t` took, to
    be taken off the operation's wall time.
    """

    def __init__(self, interval: float):
        self.interval = interval
        self.count = 0
        self.factor_sum = 0.0
        self.seconds = 0.0
        self.last = (0.0, 0.0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame):
        start = perf_counter()
        self.factor_sum += host_factor(0.0)
        self.count += 1
        self.last = (start, perf_counter() - start)
        self.seconds += self.last[1]

    def paused(self, until: float) -> float:
        # ticks are `interval` apart, so only the last can begin after `until`
        start, seconds = self.last
        return self.seconds - (seconds if start >= until else 0.0)
