"""Correctness checks on every simulated result, run outside the timed loop.

`Recorder` replaces `machine.run_system` with a wrapper that keeps each
(config, trace) pair, so the results of `run_system` calls made deep inside
`harness` are seen too.  After the timed loop, `check_trace` compares every
recorded trace with the per-cycle oracle, `run_system(cfg, use_hops=False)`,
and checks the invariants any trace must satisfy.
"""

import hashlib

import etmreg.machine as M


class Recorder:
    """Keeps every (SystemConfig, SystemTrace) pair `run_system` returns,
    grouped by the op that was running."""

    def __init__(self):
        self.original = M.run_system
        self.calls = None

    def __enter__(self):
        original = self.original

        def run_system(sys_cfg, *args, **kwargs):
            trace = original(sys_cfg, *args, **kwargs)
            if self.calls is not None:
                self.calls.append((sys_cfg, trace))
            return trace

        M.run_system = run_system
        return self

    def __exit__(self, *exc):
        M.run_system = self.original

    def start_op(self):
        self.calls = []
        return self.calls

    def stop(self):
        self.calls = None

    def oracle(self, sys_cfg):
        return self.original(sys_cfg, use_hops=False)


# a run whose controller grants at least this share of its capacity is
# bandwidth-bound: its cores issue nearly every cycle, so the hop path has
# little to skip and the machine steps cycle by cycle
BUS_BOUND = 0.9
# utilisation bands that split a pass's calls by regime: throttle-bound,
# mixed, bus-bound
REGIMES = ((0.0, 0.5), (0.5, BUS_BOUND), (BUS_BOUND, float("inf")))


def core_cycles(sys_cfg):
    return sys_cfg.duration_cycles * len(sys_cfg.cores)


def bus_utilisation(sys_cfg, trace):
    """Lines granted / lines the shared controller could have granted."""
    return trace.total_granted / (sys_cfg.shared_mem_bandwidth
                                  * trace.duration_cycles)


def invariant_errors(sys_cfg, trace):
    """Properties every trace must have, whatever the regulator does."""
    errors = []
    completed = sum(st.completed_lines for st in trace.stats)
    if trace.total_granted != completed:
        errors.append("total_granted %d != completed lines %d"
                      % (trace.total_granted, completed))
    for i, st in enumerate(trace.stats):
        if sum(trace.windows[i]) != st.completed_lines:
            errors.append("core %d: window lines %d != completed %d"
                          % (i, sum(trace.windows[i]), st.completed_lines))
        if st.throttled_cycles > trace.duration_cycles:
            errors.append("core %d: throttled %d cycles of %d"
                          % (i, st.throttled_cycles, trace.duration_cycles))
    cap = sys_cfg.shared_mem_bandwidth * sys_cfg.duration_cycles + 1
    if completed > cap:
        errors.append("%d lines exceed the controller cap of %.1f"
                      % (completed, cap))
    return errors


def check_trace(sys_cfg, trace, oracle):
    """Error strings for one recorded run_system call; empty when it
    matches the oracle and holds every invariant."""
    errors = invariant_errors(sys_cfg, trace)
    if trace != oracle:
        errors.insert(0, "hop result differs from the oracle (%s)"
                      % _first_difference(trace, oracle))
    return errors


def _first_difference(a, b):
    for i, (x, y) in enumerate(zip(a.stats, b.stats)):
        for name in x.__dataclass_fields__:
            if getattr(x, name) != getattr(y, name):
                return "core %d %s: %d vs oracle %d" % (
                    i, name, getattr(x, name), getattr(y, name))
    for name in ("windows", "window_events", "periods", "total_granted"):
        if getattr(a, name) != getattr(b, name):
            return name
    return "trace"


class Digest:
    """SHA-256 over the repr of simulated results, in op order."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, value):
        self._h.update(repr(value).encode())
        self._h.update(b"\n")

    def hexdigest(self):
        return self._h.hexdigest()[:16]
