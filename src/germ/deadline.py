"""Wall-clock deadlines for a computation in the current process."""

from __future__ import annotations

import signal
from contextlib import contextmanager


@contextmanager
def deadline(seconds: float | None):
    """Abort the enclosed computation with TimeoutError after ``seconds``.

    Uses the alarm signal, so it works in the main thread of any
    process, sweep workers included; ``None`` or 0 sets no deadline.
    """
    if not seconds:
        yield
        return

    def handler(signum, frame):
        raise TimeoutError(f"computation exceeded {seconds} seconds")

    old = signal.signal(signal.SIGALRM, handler)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
