"""Wall times rescaled to a fixed machine speed.

On the shared 2-vCPU host the benchmark was built on, each CPU alternates
between a fast and a slow mode, about 1.7x apart, switching every few
seconds (README.md has the measurements). Raw wall times of a pass then
spread by a quarter from one run to the next. A Meter therefore samples
the speed of the CPU while every timed interval runs, with a fixed slice
of pure-Python Fraction arithmetic that does not depend on the library:
once before and once after the interval, and from SIGALRM every
TICK_SECONDS during it. An interval's rescaled time is its wall time, less
the time the samples took inside it, times the mean sampled speed: the
time it would have taken on a CPU that runs the reference slice at
SECONDS_PER_ITERATION.
"""

import signal
import time
from fractions import Fraction

# Fast-mode time of one reference iteration on the build host (Intel Xeon, 2 vCPUs, Python 3.11).
SECONDS_PER_ITERATION = 2.2e-6
TICK_SECONDS = 0.025
TICK_ITERATIONS = 200
EDGE_ITERATIONS = 1000


def sample(iterations: int) -> tuple[float, float]:
    """(speed relative to the reference, seconds the sample took)."""
    start = time.monotonic()
    acc = Fraction(0)
    for i in range(1, iterations + 1):
        acc += Fraction(i % 7, i % 11 + 1)
    took = time.monotonic() - start
    return iterations * SECONDS_PER_ITERATION / took, took


class Meter:
    """Speed samples for one process; use as a context manager."""

    def __init__(self) -> None:
        self.speeds: list[float] = []
        self.ticked_s = 0.0

    def __enter__(self) -> "Meter":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_SECONDS, TICK_SECONDS)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        speed, took = sample(TICK_ITERATIONS)
        self.speeds.append(speed)
        self.ticked_s += took

    def mark(self) -> tuple[int, float, float]:
        """Start an interval: an edge sample, then (index, ticked_s, time)."""
        self.speeds.append(sample(EDGE_ITERATIONS)[0])
        return len(self.speeds) - 1, self.ticked_s, time.monotonic()

    def since(self, mark: tuple[int, float, float], began: float | None = None) -> float:
        """Rescaled seconds from the mark (or from the earlier monotonic
        time began) until now; ends with an edge sample."""
        end = time.monotonic()
        ticked = self.ticked_s
        index, ticked_at_mark, marked = mark
        wall = end - (marked if began is None else began) - (ticked - ticked_at_mark)
        self.speeds.append(sample(EDGE_ITERATIONS)[0])
        speeds = self.speeds[index:]
        return wall * sum(speeds) / len(speeds)
