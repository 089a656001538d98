"""Host-speed calibration: operation times at a fixed reference speed.

The benchmark host is shared; identical work there takes 220 to 430 ms
from one second to the next (see README).  Between operations the run
times a fixed piece of work in short bursts (for `battery` also inside
each long call), one that resembles the operations it rates:
interpreter work for `classical` and `quantum`, set and tuple churn for
`battery`, a bare interpreter start for `cli` children, and for the
set-up launches of every workload a bare interpreter that runs the
interpreter work (see `setup_work`).  An operation's time is scaled by
the work's reference time over its mean time around the operation, so
the host's drift cancels and the program's own cost remains.
"""

from __future__ import annotations

import bisect
import contextlib
import os
import signal
import statistics
import subprocess
import sys
import time

EVERY_S = 0.05  # at most one burst per this many seconds; also the sampling interval
MAX_BURST = 200
WINDOW_S = 0.5  # calibrations this close to an operation rate the host for it


def interpreter_work():
    """Dict, big-integer and loop work: the cost profile of in-process calls."""
    acc, table = 0, {}
    for i in range(3000):
        x = (i * 2654435761) & 0xFFFF
        table[x] = table.get(x, 0) ^ i
        acc ^= (x << (i & 63)) | i
    return acc


def allocation_work():
    """Tuple, frozenset and set churn: the cost profile of the battery's
    coefficient-set products."""
    acc = set()
    for i in range(600):
        member = frozenset({(i, i * 7 & 255), (i & 31, i >> 3)})
        if member in acc:
            acc.discard(member)
        else:
            acc.add(member)
    return len(acc)


def spawn_work():
    """Start and stop a bare interpreter: the cost profile of `cli` calls."""
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)


def setup_work():
    """Start a bare interpreter that runs this file: a few stdlib imports
    and 20 rounds of interpreter work.  A worker's set-up is interpreter
    start, imports and Python work (input generation, warm-up); a bare
    start alone did not follow its in-process part."""
    subprocess.run([sys.executable, "-S", os.path.abspath(__file__)], check=True)

# (work, its typical seconds on the reference host (2-core x86, Python
# 3.11.7), calibrations per second of operations)
IN_PROCESS = (interpreter_work, 0.0012, 100)
ALLOCATION = (allocation_work, 0.0003, 100)
CHILD = (spawn_work, 0.009, 8)
SETUP = (setup_work, 0.057, 0)  # timed by explicit calibrate() calls only


class HostSpeed:
    def __init__(self, calibration=IN_PROCESS) -> None:
        self.work, self.reference_s, self.per_s = calibration
        self.times: list[float] = []  # when each calibration started
        self.seconds: list[float] = []  # how long it took
        self.last = time.perf_counter()

    def burst(self, force: bool = False) -> None:
        """Calibrate, unless the previous burst is less than EVERY_S old.

        The burst grows with the time since the previous one, so a long
        operation is rated by as many calibrations as a run of short ones.
        """
        gap = time.perf_counter() - self.last
        if not force and gap < EVERY_S:
            return
        self.calibrate(min(MAX_BURST, max(1, int(self.per_s * gap))))

    def calibrate(self, count: int) -> None:
        """Time the work `count` times back to back."""
        for _ in range(count):
            start = time.perf_counter()
            self.work()
            self.times.append(start)
            self.seconds.append(time.perf_counter() - start)
        self.last = time.perf_counter()

    @contextlib.contextmanager
    def sampling(self):
        """Also time the work once every EVERY_S inside the block, from a
        SIGALRM handler, so the host speed during a long operation is
        measured and not only inferred from the bursts around it."""

        def sample(signum, frame):
            start = time.perf_counter()
            self.work()
            self.times.append(start)
            self.seconds.append(time.perf_counter() - start)

        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, start: float, end: float) -> float:
        """Reference over mean calibration time around [start, end].

        The mean, not the median: an operation's time sums the host's
        slow moments as well as its fast ones (see README)."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        return self.reference_s / statistics.fmean(self.seconds[lo:hi])


if __name__ == "__main__":  # the child of setup_work
    for _ in range(20):
        interpreter_work()
