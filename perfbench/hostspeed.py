"""Host-time measurement that cancels the host's changing speed.

On a shared 2-CPU host, other tenants slow every process down by up to
1.6x for stretches that last from a fraction of a second to the length of
a whole run; CPU time inflates as much as wall time, so neither can be
compared across runs as it stands.  A `Clock` therefore runs a fixed
pure-Python reference loop (calls, tuple packing, slot attributes, list
churn: the interpreter paths the simulator spends its time in) between
timed calls, and scales each call's wall time by REFERENCE_S over the mean
of the reference times measured just before and just after it.  A scaled
time reads as the time the call would take on a host where the reference
loop takes REFERENCE_S, which is about its time on an uncontended
Xeon vCPU, so scaled and raw times agree when the host is quiet.
"""

import time

REFERENCE_S = 2.5e-4
_LOOPS = 1000
_PASSES = 3


class _Cell:
    __slots__ = ("count", "queue")


def _step(c0, c1, seq, p):
    if p & 2 and c0 > 0:
        c0 -= 1
    return c0, (c1 + 1) & 0xFFFF, seq ^ (c0 == 0), p


def _reference_pass():
    cell = _Cell()
    cell.count = 0
    cell.queue = []
    st = (100, 0, 0, 0)
    t0 = time.perf_counter()
    for i in range(_LOOPS):
        st = _step(st[0], st[1], st[2], i & 3)
        cell.count += st[1] & 1
        cell.queue.append(i)
        if len(cell.queue) > 8:
            del cell.queue[0]
    return time.perf_counter() - t0


def reference():
    """Wall seconds of the fixed reference loop: the best of _PASSES
    passes, so a single preemption does not read as a slow host."""
    return min(_reference_pass() for _ in range(_PASSES))


class Clock:
    """Times calls in wall seconds and in reference-scaled seconds."""

    def __init__(self):
        reference()                 # first pass runs cold
        self._last = reference()

    def time(self, fn, *args):
        """(result, wall seconds, scaled seconds) of fn(*args)."""
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0
        ref = reference()
        scaled = wall * REFERENCE_S * 2 / (self._last + ref)
        self._last = ref
        return result, wall, scaled
