"""A fixed pure-Python kernel that measures the host's current speed.

The benchmark's host is shared: over periods of seconds to minutes its
speed moves by up to 2x while the process keeps its CPU (process time
moves with wall time, so this is not time taken away by the scheduler).
A pass's wall time follows the speed the host had at that moment.

The kernel below is timed right before and right after every unit of a
pass; the unit's wall time divided by the mean of the two is the unit's
cost in *calibration units*, which the host's speed largely cancels out
of.  The kernel does what the simulator spends its time on -- a heap
calendar, generator processes, dict and attribute updates, float
arithmetic -- so a slower host slows both alike.  It uses nothing from
the program under test: its cost is the same at every revision, and a
change to the program moves the ratio by exactly the change's share.
"""

from __future__ import annotations

import heapq
import time

__all__ = ["kernel", "time_kernel"]

_PROCS = 300
_STEPS = 20
_STATE = 2048


class _Slot:
    __slots__ = ("count", "total")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0


def _process(i: int, state: dict):
    for k in range(_STEPS):
        slot = state[(i * 131 + k * 17) % _STATE]
        slot.count += 1
        slot.total += k * 0.25
        yield 0.5 + (i * 7 + k) % 13


def kernel() -> float:
    """Run a fixed event-calendar simulation; returns its end time."""
    state = {key: _Slot() for key in range(_STATE)}
    calendar = []
    seq = 0
    for i in range(_PROCS):
        heapq.heappush(calendar, (0.0, seq, _process(i, state)))
        seq += 1
    now = 0.0
    while calendar:
        now, _, proc = heapq.heappop(calendar)
        try:
            delay = next(proc)
        except StopIteration:
            continue
        heapq.heappush(calendar, (now + delay, seq, proc))
        seq += 1
    acc = 0
    for i in range(50000):
        acc += i * i % 7
    return now + acc


def time_kernel() -> float:
    """Wall time of one :func:`kernel` run, in seconds."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
