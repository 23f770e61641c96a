"""Machine-speed meter: wall time corrected for a noisy, shared CPU.

The benchmark runs on small virtual machines whose CPUs are shared
with other tenants; their speed drifts by a quarter and more within
seconds, so raw wall times of identical runs spread further than any
useful regression bound.  A background thread therefore times a fixed
pure-Python kernel (dict updates on tuple keys, big-integer products and
gcds, the operations the germ engine is made of) for a few milliseconds
five times a second.  While it does, the main thread waits for the
interpreter lock, so the kernel runs on the same CPU under the same
conditions as the work being timed.

:meth:`SpeedMeter.corrected` integrates the measured kernel rate over an
interval, skipping the meter's own windows, and divides by the rate of
the reference machine: the result is the seconds the interval would
have taken at reference speed.  On a machine at reference speed it
equals wall time; it falls when the program gets faster and is blind to
the machine slowing down.  The kernel is benchmark code, so no change to
the package can move the reference.
"""

from __future__ import annotations

import math
import threading
import time

#: Kernel calls per second on the reference machine (2-core VM,
#: Intel Xeon at 2.1 GHz, Python 3.11.7), median over a loaded run.
REFERENCE_RATE = 10_000.0
PERIOD_S = 0.2
SAMPLE_S = 0.004          # below the interpreter's 5 ms switch interval


def kernel() -> None:
    table = {}
    x = 3 ** 200
    for i in range(50):
        table[(i, i + 1)] = i
        x = (x * 7 + i) % (1 << 300)
        math.gcd(x, 6 ** 50)


class SpeedMeter:
    """Background sampler of the kernel rate; use as a context manager."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []  # (start, end, rate)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-meter", daemon=True)

    def __enter__(self) -> "SpeedMeter":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        clock = time.perf_counter
        start = clock()
        calls = 0
        while clock() - start < SAMPLE_S:
            kernel()
            calls += 1
        end = clock()
        self.samples.append((start, end, calls / (end - start)))

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            self._sample()

    def corrected(self, t0: float, t1: float) -> float:
        """Seconds that [t0, t1] would have taken at reference speed.

        Each stretch between two samples is weighted by the mean of the
        rates at its ends; the meter's own windows are left out.  With no
        sample inside the interval the nearest sample's rate is used.
        """
        inside = [s for s in self.samples if s[1] > t0 and s[0] < t1]
        if not inside:
            nearest = min(self.samples, key=lambda s: min(abs(s[0] - t0), abs(s[1] - t1)))
            return (t1 - t0) * nearest[2] / REFERENCE_RATE
        total = 0.0
        edge, rate = t0, inside[0][2]
        for start, end, r in inside:
            total += max(0.0, min(start, t1) - edge) * (rate + r) / 2
            edge, rate = max(edge, end), r
        total += max(0.0, t1 - edge) * rate
        return total / REFERENCE_RATE
