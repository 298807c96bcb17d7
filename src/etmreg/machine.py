"""Cycle-stepped model of cores, memory subsystem, and attached regulators.

One simulated cycle advances in a fixed order:

  1. the shared memory controller grants cacheline slots (bandwidth
     accumulates at an exact rational rate; one round-robin pass across
     requesting cores, at most one line each; within a core, ready reads
     are served before write-backs)
  2. each core retires its grant (a write-back retirement pulses the
     write-back signals), runs its interrupt state machine against the
     previous cycle's throttle level, and issues at most one line (an
     issued refill pulses the refill signals immediately)
  3. each core's regulator observes the cycle: the trace-unit fabric steps
     on the pulse/fetch inputs, whose taps see the cycle's pulses ORed,
     or a software baseline updates on the PMU count, which counts each
     line's pulse
  4. window, period, and aggregate statistics are updated

A core moves at most one line a cycle, as a trace-unit input pulses
once a cycle at most.  It issues at its workload's exact rate: its issue
credit counts 1/den lines and grows by the rate's numerator in each
cycle the workload may issue.  Cores stall on read_outstanding /
write_buffer_depth backpressure, and a stall banks at most one cycle's
credit.  A throttle level raises an interrupt after
irq_latency_cycles; the handler charges an entry cost, issues its own
kernel-mode memory traffic, polls the throttle level every
handler_poll_cycles, and pays an exit cost once the level drops.  The
workload issues nothing from handler entry to handler exit, but
in-flight transactions keep draining and keep pulsing — the gap between
"throttle asserted" and "traffic actually stops" is the point of the
model.  Timer-replenished regulators additionally run their handler at
every period boundary, throttled or not.

Each core's regulator is one runtime object, built once per run: none, the
fabric, MemGuard or MemPol.  It observes every stepped cycle and returns
the throttle level; its class attributes say how the core reacts to that
level (the fabric and MemGuard raise an interrupt, MemGuard's handler
sleeps instead of polling, MemPol halts issue from outside).

Each core keeps its own time, and a cycle steps only the cores that act
in it: a core is stepped at its own event cycles and at each grant
outside a train (below).  The inert stretches between (throttle
stalls, idle phases, compute-bound spans, a saturating core waiting on
the bus) are skipped per core.  One rule, `_core_span`, says how far: to
the first deadline the core or its regulator states.  A core's deadlines
are its interrupt phase end, trace record and idle end, and its next
issue, which the exact credit gives in closed form.  A core whose queue
is full cannot issue before a grant, and a handler poll that finds the
throttle level held only reschedules itself, so neither is a deadline.
The regulator then bounds the span with its own answer: MemGuard its
next timer refill, MemPol its next poll, and the fabric the stretch in
which its counters only count down, found by probing one pulse-free
cycle.  Before a lagging core steps, `_catch_up` advances it across the
cycles it skipped, its issue credit and poll instant included, and at
the end every core is caught up to the duration.

The controller is the only thing that couples cores, and it reads only
their queue heads, which change only at a cycle that core steps.  So the
loop runs the controller at every cycle it visits and jumps to the
earliest of: a core's next step, the controller's next possible grant
(the earliest ready queue head, once the accumulator holds a whole
line), the window edge and the duration.  Both queues hold the cycle each
request becomes ready: a read's after the memory latency, a write-back's
the cycle after it is buffered.  A window edge needs no core step, as a
core's event count moves only at its stepped cycles.  The grants to a
sole requester stalled on a full queue, at most one a cycle on any bus,
run as a train, in one hop (`_train`): each retires the ready queue head
and the issue credit refills the slot, one pulse, until a head is not
ready, the credit falls short, the regulator's `pulse_budget` or the
burst phase would run out, or another core, the window edge or the
duration is due.  The loop goes on from the last.
`run_system(cfg, use_hops=False)` steps every core at every cycle in the
same loop; both must produce identical results.
"""

from dataclasses import dataclass, fields
from fractions import Fraction
from math import isfinite
from numbers import Real
from operator import attrgetter
from typing import Optional

from . import fabric as F
from . import regulators as REG
from .accounting import model_for


# =========================================================================
# configuration types
# =========================================================================

OP_READ = "read"
OP_PREFETCH = "prefetch"
OP_WRITE = "write"
OP_MODIFY = "modify"
OPS = (OP_READ, OP_PREFETCH, OP_WRITE, OP_MODIFY)

CACHELINE = 64                  # bytes moved per memory transaction

_BIG = 1 << 62


def lines_mbps(lines, cycles, freq_mhz):
    """MB/s of `lines` cachelines moved over `cycles` at `freq_mhz`."""
    seconds = cycles / (freq_mhz * 1e6)
    return lines * CACHELINE / seconds / 1e6


def _is_real(value):
    """True for a real number, but not a bool, which would pass as a rate
    of 0 or 1."""
    return isinstance(value, Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class CoreModelConfig:
    """Timing/capacity parameters of one core and its path to memory."""
    core_type: str = "cortex-a53"
    freq_mhz: int = 1200
    irq_latency_cycles: int = 81
    read_outstanding: int = 8
    write_buffer_depth: int = 20
    mem_latency_cycles: int = 40
    handler_entry_cycles: int = 30
    handler_poll_cycles: int = 20
    handler_exit_cycles: int = 20
    handler_kernel_events: int = 2
    refill_signals: frozenset = frozenset({21})
    wb_signals: frozenset = frozenset({22})

    def __post_init__(self):
        object.__setattr__(self, "refill_signals",
                           frozenset(self.refill_signals))
        object.__setattr__(self, "wb_signals", frozenset(self.wb_signals))
        for f in fields(self):
            if f.type is int:
                F.check_int(f.name, getattr(self, f.name))
        if self.freq_mhz <= 0:
            raise ValueError("freq_mhz must be positive")
        if self.read_outstanding < 1 or self.write_buffer_depth < 1:
            raise ValueError("need at least one read slot and buffer entry")
        if self.handler_poll_cycles < 1:
            raise ValueError("handler_poll_cycles must be >= 1")
        for name in ("irq_latency_cycles", "mem_latency_cycles",
                     "handler_entry_cycles", "handler_exit_cycles",
                     "handler_kernel_events"):
            if getattr(self, name) < 0:
                raise ValueError("%s must be >= 0" % name)
        # a signal the core type's regulators never tap would let its
        # traffic through uncounted
        known = model_for(self.core_type, etm=False).signals
        stray = (self.refill_signals | self.wb_signals) - known
        if stray:
            raise ValueError(
                "refill_signals/wb_signals %s are not among the %s "
                "accounting signals %s" % (sorted(stray), self.core_type,
                                           sorted(known)))


@dataclass(frozen=True)
class Synthetic:
    """Endless stream of one access type.

    `issue_ipc_limit` is the exact average number of lines issued per
    cycle, taken as the rational value of the number given (a float 0.1
    is a hair above one tenth), at most one line a cycle.  A core stalled
    on a full queue banks at most one cycle's worth of it, so it issues
    again in the cycle the queue frees, no sooner.
    """
    op: str
    issue_ipc_limit: float = 1.0

    def __post_init__(self):
        if self.op not in OPS:
            raise ValueError("unknown op %r" % (self.op,))
        x = self.issue_ipc_limit
        if not (_is_real(x) and 0 <= x <= 1):
            raise ValueError("issue_ipc_limit must be a number in [0, 1] (a "
                             "core moves at most one line a cycle), got %r"
                             % (x,))


@dataclass(frozen=True)
class Burst:
    """Repeating pattern of (op, bytes, idle_cycles) phases.

    Idle phases spin in user mode by default (the core keeps fetching and
    the attached fabric keeps counting); with wfi_idle=True they are
    architecturally idle and the fabric freezes for their duration.
    """
    pattern: tuple
    wfi_idle: bool = False

    def __post_init__(self):
        object.__setattr__(self, "pattern",
                           tuple(tuple(p) for p in self.pattern))
        if not self.pattern:
            raise ValueError("burst pattern is empty")
        busy = False
        for i, (op, nbytes, idle) in enumerate(self.pattern):
            if op not in OPS:
                raise ValueError("unknown op %r" % (op,))
            F.check_int("burst phase %d bytes" % i, nbytes)
            F.check_int("burst phase %d idle_cycles" % i, idle)
            if nbytes < 0 or idle < 0:
                raise ValueError("negative burst phase")
            if nbytes % CACHELINE:
                raise ValueError("burst bytes must be a multiple of the "
                                 "%d-byte cacheline" % CACHELINE)
            busy = busy or nbytes > 0 or idle > 0
        if not busy:
            raise ValueError("burst pattern is all zero")


@dataclass(frozen=True)
class TraceReplay:
    """Scripted pulse stream of (cycle_delta, signal set, exec mode)
    records.  Replay cores drive the attached fabric directly and never
    touch the memory controller."""
    records: tuple

    def __post_init__(self):
        records = tuple(self.records)
        object.__setattr__(self, "records", records)
        for i, rec in enumerate(records):
            F.check_int("record %d %r cycle delta" % (i, rec), rec[0])
            if rec[0] < 0:
                raise ValueError("record %d %r has a negative cycle delta"
                                 % (i, rec))
            if rec[2] != F.USER and rec[2] != F.KERNEL:
                raise ValueError("record %d %r has mode %r, not %r or %r"
                                 % (i, rec, rec[2], F.USER, F.KERNEL))
            if min(rec[1], default=0) < 0:
                raise ValueError("record %d %r has a negative signal"
                                 % (i, rec))


@dataclass(frozen=True)
class CoreSpec:
    """One core of the system: timing model, workload, optional regulator
    (None, an EtmConfig, a MemGuardConfig, or a MemPolConfig)."""
    model: CoreModelConfig
    workload: object
    regulator: Optional[object] = None


@dataclass(frozen=True)
class SystemConfig:
    """Cores sharing one memory controller, whose exact rate may exceed
    one line a cycle for several cores: each core still moves at most
    one line a cycle."""
    cores: tuple
    shared_mem_bandwidth: Fraction  # cachelines per cycle at the controller
    duration_cycles: int
    window_cycles: int = 0          # 0 -> one millisecond of core clock

    def __post_init__(self):
        object.__setattr__(self, "cores", tuple(self.cores))
        if not self.cores:
            raise ValueError("need at least one core")
        F.check_int("duration_cycles", self.duration_cycles)
        F.check_int("window_cycles", self.window_cycles)
        if self.duration_cycles <= 0:
            raise ValueError("duration_cycles must be positive")
        b = self.shared_mem_bandwidth
        if not (_is_real(b) and isfinite(b) and b > 0):
            raise ValueError("shared_mem_bandwidth must be a positive finite "
                             "number, got %r" % (b,))
        object.__setattr__(self, "shared_mem_bandwidth",
                           Fraction(self.shared_mem_bandwidth))
        if self.window_cycles < 0:
            raise ValueError("window_cycles must be >= 0 (0 is one "
                             "millisecond), got %r" % (self.window_cycles,))
        # the run steps one cycle domain: the window, the bandwidth and
        # every delay are counted in it
        freqs = sorted({c.model.freq_mhz for c in self.cores})
        if len(freqs) > 1:
            raise ValueError("cores run at %s MHz; a system runs on one "
                             "core clock" % " and ".join(map(str, freqs)))


# =========================================================================
# run results
# =========================================================================

@dataclass(frozen=True)
class CoreStats:
    """Per-core statistics counters; `CoreState` keeps each one, by the
    same name, as a running count."""
    issued_lines: int
    completed_lines: int
    kernel_lines: int           # handler-caused traffic, part of the above
    pmc_events: int             # per-signal event count (PMU adder view)
    tap_events: int             # cycles with >= 1 monitored signal (tap view)
    throttled_cycles: int
    throttle_entries: int
    irq_count: int
    handler_cycles: int
    idle_cycles: int


_STATS = tuple(f.name for f in fields(CoreStats))
_stats_of = attrgetter(*_STATS)


@dataclass(frozen=True)
class PeriodRecord:
    """One regulator period: events observed and whether it throttled."""
    pmc_events: int
    tap_events: int
    throttled: bool


@dataclass(frozen=True)
class SystemTrace:
    duration_cycles: int
    window_cycles: int
    windows: tuple              # per core: tuple of completed lines/window
    window_events: tuple        # per core: tuple of monitored events/window
    stats: tuple                # per core: CoreStats
    periods: tuple              # per core: tuple of PeriodRecord (fabric only)
    total_granted: int

    def achieved_mbps(self, core_index, freq_mhz):
        return lines_mbps(self.stats[core_index].completed_lines,
                          self.duration_cycles, freq_mhz)


# =========================================================================
# regulator runtimes
# =========================================================================

# interrupt phases
_IRQ_NONE = 0
_IRQ_PENDING = 1
_IRQ_ENTRY = 2
_IRQ_WAIT = 3       # the handler polls the level, or sleeps on it
_IRQ_EXIT = 4

_USER_FETCH_ADDR = 0x1000
_KERNEL_FETCH_ADDR = 1 << 60


class _Unregulated:
    """Runtime of a core without a regulator, and the defaults the
    regulator runtimes below override.

    The class attributes say how the core reacts to the throttle level:
    `irq_on_throttle` raises an interrupt on it, `sleeps` makes the handler
    sleep until the level drops instead of polling it, and `halts` stops
    the workload's issue from outside the core while the level is high.
    """
    __slots__ = ()
    irq_on_throttle = False
    sleeps = False
    halts = False
    periods = ()

    def observe(self, st, cycle, pm, hits, kernel, wfi):
        """Take one cycle of core `st`: its pulse mask `pm`, of which
        `hits` are monitored events.  Returns the throttle level."""
        return False

    def quiet_span(self, st, cycle):
        """Cycles from `cycle` that this regulator can skip in one hop if
        core `st` emits no pulse: it neither acts nor changes a level in
        them."""
        return _BIG

    def pulse_budget(self, st, pm, hits):
        """How many of the quiet cycles that the last `quiet_span` call
        allowed core `st` may instead pulse `pm`, `hits` monitored events
        a cycle, while this regulator neither acts nor changes a level."""
        return _BIG

    def advance(self, span, pulses=0, hits=0):
        """Skip `span` cycles from the cycle of the last `quiet_span`
        call, at most as many as it allowed, `pulses` of them pulsing as
        the last `pulse_budget` call allowed.  It may run long after the
        calls, when the core next steps: what they found (the fabric's
        counter slopes) holds for any span up to the probed one."""


class _Fabric(_Unregulated):
    """The trace-unit fabric; its throttle outputs raise an interrupt on
    the core, whose handler polls the level."""
    __slots__ = ("step", "idle_out", "cm_user", "cm_kernel",
                 "state", "out", "reload", "d0", "d1", "e0", "e1",
                 "pmc_mark", "tap_mark", "period_throttled", "periods")
    irq_on_throttle = True

    def __init__(self, cfg, st):
        cf = F.compile_fabric(cfg)
        self.step = cf.step
        self.idle_out = cf.idle_out
        # the core fetches from one user and one kernel address
        self.cm_user = cf.cmp_mask(_USER_FETCH_ADDR, True)
        self.cm_kernel = cf.cmp_mask(_KERNEL_FETCH_ADDR, False)
        self.state = cf.reset_tuple()
        self.reload = self.state[:2]
        self.out = 0
        self.d0 = self.d1 = 0           # counter slopes found by quiet_span
        self.e0 = self.e1 = 0           # and under pulses, by pulse_budget
        # the core's event counts at the last period boundary
        self.pmc_mark = self.tap_mark = 0
        self.period_throttled = False
        self.periods = []
        sigs = set()
        for tap in cfg.inputs:
            sigs |= tap.monitored
        st.tap_mask = F._signal_mask(sigs)

    def observe(self, st, cycle, pm, hits, kernel, wfi):
        s = self.state
        if wfi:
            out = self.idle_out(s[2], s[3], s[4])
        else:
            # each tap masks the pulses itself, so pm goes in unmasked
            cur = self.step(s[0], s[1], s[2], s[3], s[4], pm,
                            self.cm_kernel if kernel else self.cm_user)
            self.state = cur[:5]
            out = cur[7]
            if cur[6]:                  # period boundary: close the record
                self.periods.append(PeriodRecord(
                    st.pmc_events - self.pmc_mark,
                    st.tap_events - self.tap_mark, self.period_throttled))
                self.pmc_mark = st.pmc_events
                self.tap_mark = st.tap_events
                self.period_throttled = False
        self.out = out
        if out & F.THROTTLE_MASK:
            self.period_throttled = True
            return True
        return False

    def quiet_span(self, st, cycle):
        """A one-cycle probe without pulses: the span is how long the
        counters keep counting down by at most one a cycle without firing
        and without any level changing.  A sleeping core freezes the
        fabric, so nothing changes at all."""
        kernel = st.irq_phase >= _IRQ_ENTRY
        if not kernel and st.wfi_idle and st.idle_until > cycle:
            self.d0 = self.d1 = 0
            return _BIG
        p = self._probe(0, self.cm_kernel if kernel else self.cm_user)
        if p is None:
            return 0
        a, b, self.d0, self.d1 = p
        # a counter counting down from a fires a - 1 cycles after the probe
        return min(a - 1 if self.d0 else _BIG, b - 1 if self.d1 else _BIG)

    def pulse_budget(self, st, pm, hits):
        """A one-cycle probe with the pulses `pm` from the state that
        `quiet_span` probed gives the counters' slopes under pulses.  A
        counter that only pulses move fires at its value-th pulse.  One at
        its reload value whose two slopes differ may be reloaded by one
        kind of cycle, which no slope describes."""
        p = self._probe(pm, self.cm_user)
        if p is None:
            return 0
        a, b, e0, e1 = p
        r0, r1 = self.reload
        if (a == r0 and e0 != self.d0) or (b == r1 and e1 != self.d1):
            return 0
        self.e0 = e0
        self.e1 = e1
        return min(a - 1 if e0 > self.d0 else _BIG,
                   b - 1 if e1 > self.d1 else _BIG)

    def _probe(self, pm, cm):
        """Step a copy of the state once on the pulses `pm`: the counter
        values as the state holds them (counter 0 holds all 32 bits of
        the joined pair, counter 1 then stays at 0) and how far each
        drops, or None if a counter fires or jumps or a level changes."""
        s = self.state
        cur = self.step(s[0], s[1], s[2], s[3], s[4], pm, cm)
        if (cur[2] != s[2] or cur[3] != s[3] or cur[4] != s[4]
                or cur[5] or cur[6] or cur[7] != self.out):
            return None
        d0, d1 = s[0] - cur[0], s[1] - cur[1]
        if d0 not in (0, 1) or d1 not in (0, 1):
            return None
        return s[0], s[1], d0, d1

    def advance(self, span, pulses=0, hits=0):
        s = self.state
        quiet = span - pulses
        self.state = (s[0] - self.d0 * quiet - self.e0 * pulses,
                      s[1] - self.d1 * quiet - self.e1 * pulses,
                      s[2], s[3], s[4])


class _MemGuard(_Unregulated):
    """MemGuard: a budget refilled by a periodic timer interrupt that runs
    the handler every period; on exhaustion the handler sleeps until the
    next refill instead of polling."""
    __slots__ = ("cfg", "state")
    irq_on_throttle = True
    sleeps = True

    def __init__(self, cfg, st):
        self.cfg = cfg
        self.state = REG.memguard_reset(cfg)
        # the periodic replenishment timer loads the first budget at t=0
        # and re-fires at every boundary after that
        st.irq_phase = _IRQ_PENDING
        st.irq_at = st.model.irq_latency_cycles

    def observe(self, st, cycle, pm, hits, kernel, wfi):
        s = self.state
        if not hits and cycle < s.next_boundary:
            return s.throttled          # nothing to charge or refill
        self.state, throttled = REG.memguard_step(self.cfg, s, hits, cycle)
        if self.state.next_boundary != s.next_boundary \
                and st.irq_phase == _IRQ_NONE:
            # replenishment timer interrupt: the handler runs every period
            st.irq_phase = _IRQ_PENDING
            st.irq_at = cycle + st.model.irq_latency_cycles
        return throttled

    def quiet_span(self, st, cycle):
        return self.state.next_boundary - cycle

    def pulse_budget(self, st, pm, hits):
        # the budget must stay above zero
        return (self.state.remaining - 1) // hits if hits else _BIG

    def advance(self, span, pulses=0, hits=0):
        if pulses:
            s = self.state
            self.state = REG.MemGuardState(s.remaining - pulses * hits,
                                           s.next_boundary)


class _MemPol(_Unregulated):
    """MemPol: an external poller reads the core's event counter and halts
    its issue from outside; no interrupt runs on the core."""
    __slots__ = ("cfg", "state")
    halts = True

    def __init__(self, cfg):
        self.cfg = cfg
        self.state = REG.mempol_reset(cfg)

    def observe(self, st, cycle, pm, hits, kernel, wfi):
        s = self.state
        if cycle < s.next_poll:
            return s.halted
        self.state, halted = REG.mempol_step(self.cfg, s, st.pmc_events,
                                             cycle)
        return halted

    def quiet_span(self, st, cycle):
        return self.state.next_poll - cycle


# =========================================================================
# per-core mutable state
# =========================================================================

class CoreState:
    """Mutable per-core simulation state: workload cursor, memory queues,
    interrupt machine, regulator runtime, statistics counters."""

    __slots__ = (
        "model", "workload", "reg",
        # memory queues: FIFOs of the cycles their requests become ready
        "reads", "wb",
        # workload cursor
        "op", "ipc", "ipc_den", "ipc_acc", "ipc_stall", "phase", "lines_left",
        "idle_until", "wfi_idle", "trace_recs", "trace_pos", "trace_next",
        # interrupt machine
        "irq_phase", "irq_at", "kernel_pending", "prev_throttle",
        # pulse masks, and the monitored events of one line's pulse
        "refill_mask", "wbk_mask", "tap_mask", "refill_hits", "wbk_hits",
    ) + _STATS

    def __init__(self, spec: CoreSpec):
        m = spec.model
        self.model = m
        self.workload = spec.workload
        self.reads = []
        self.wb = []
        self.refill_mask = F._signal_mask(m.refill_signals)
        self.wbk_mask = F._signal_mask(m.wb_signals)

        w = spec.workload
        self.phase = 0
        self.idle_until = 0
        self.wfi_idle = False
        self.trace_recs = ()
        self.trace_pos = 0
        self.trace_next = _BIG
        if isinstance(w, Synthetic):
            self.op = w.op
            self.ipc, self.ipc_den = \
                Fraction(w.issue_ipc_limit).as_integer_ratio()
            self.lines_left = _BIG
        elif isinstance(w, Burst):
            self.ipc, self.ipc_den = 1, 1
            op, nbytes, _idle = w.pattern[0]
            self.op = op
            self.lines_left = nbytes // CACHELINE
            self.wfi_idle = w.wfi_idle
        elif isinstance(w, TraceReplay):
            # a replay core issues nothing: no issue rate, no end of lines
            self.op = OP_READ
            self.ipc, self.ipc_den = 0, 1
            self.lines_left = _BIG
            # pre-resolve records to (absolute cycle, mask, kernel),
            # merging same-cycle records
            t = 0
            merged = []
            for delta, sigs, mode in w.records:
                t += delta
                mask = F._signal_mask(sigs)
                kern = mode == F.KERNEL
                if merged and merged[-1][0] == t:
                    prev = merged[-1]
                    merged[-1] = (t, prev[1] | mask, prev[2] or kern)
                else:
                    merged.append((t, mask, kern))
            self.trace_recs = tuple(merged)
            if merged:
                self.trace_next = merged[0][0]
        else:
            raise ValueError("unknown workload %r" % (w,))
        # the issue credit counts 1/ipc_den lines, ipc of them a cycle.  A
        # core stalled on a full queue holds one addition short of a
        # line, so it issues in the cycle the queue frees
        self.ipc_acc = 0
        self.ipc_stall = self.ipc_den - self.ipc

        self.irq_phase = _IRQ_NONE
        self.irq_at = _BIG
        self.kernel_pending = 0
        self.prev_throttle = False

        self.tap_mask = self.refill_mask | self.wbk_mask
        reg = spec.regulator
        if reg is None:
            self.reg = _Unregulated()
        elif isinstance(reg, F.EtmConfig):
            self.reg = _Fabric(reg, self)
        elif isinstance(reg, REG.MemGuardConfig):
            self.reg = _MemGuard(reg, self)
        elif isinstance(reg, REG.MemPolConfig):
            self.reg = _MemPol(reg)
        else:
            raise ValueError("unknown regulator %r" % (reg,))
        self.refill_hits = (self.refill_mask & self.tap_mask).bit_count()
        self.wbk_hits = (self.wbk_mask & self.tap_mask).bit_count()

        for name in _STATS:
            setattr(self, name, 0)

    # -- memory controller interface --------------------------------------

    def has_request(self, cycle):
        """True when a request is ready at `cycle`."""
        r = self.reads
        if r and r[0] <= cycle:
            return True
        w = self.wb
        return bool(w) and w[0] <= cycle

    def serve_one(self, cycle):
        """Retire the line of one grant; True for a write-back, which pulses
        now (a refill pulsed at issue)."""
        self.completed_lines += 1
        r = self.reads
        if r and r[0] <= cycle:
            del r[0]
            return False
        del self.wb[0]
        return True


# =========================================================================
# one core-cycle
# =========================================================================

def _advance_burst(st: CoreState, cycle):
    """Move to the next burst phase once lines and idle are both spent."""
    w = st.workload
    hops = 0
    while st.lines_left == 0:
        _op, _nbytes, idle = w.pattern[st.phase]
        if idle:
            if st.idle_until == 0:
                st.idle_until = cycle + idle
                return
            if st.idle_until > cycle:
                return
        st.phase = (st.phase + 1) % len(w.pattern)
        op, nbytes, _idle = w.pattern[st.phase]
        st.op = op
        st.lines_left = nbytes // CACHELINE
        st.idle_until = 0
        hops += 1
        if hops > len(w.pattern):
            return


def _core_cycle(st: CoreState, cycle, grants):
    """Retire the cycle's grant, if `grants`, run the interrupt machine
    against the previous cycle's throttle level, issue at most one line,
    and let the regulator observe the cycle's pulses; updates
    st.prev_throttle and the statistics.

    `pm` ORs the cycle's pulses, as the fabric's taps see them; `hits`
    counts each line's pulse apart, as the PMU adders do."""
    m = st.model
    reg = st.reg
    pm = hits = 0
    if grants and st.serve_one(cycle):  # a write-back pulses as it retires
        pm |= st.wbk_mask
        hits += st.wbk_hits

    # ---- interrupt machine ----
    phase = st.irq_phase
    req = st.prev_throttle
    if phase == _IRQ_NONE:
        if req and reg.irq_on_throttle:
            st.irq_phase = _IRQ_PENDING
            st.irq_at = cycle + m.irq_latency_cycles
    elif phase == _IRQ_PENDING:
        if cycle >= st.irq_at:
            st.irq_phase = _IRQ_ENTRY
            st.irq_at = cycle + m.handler_entry_cycles
            st.irq_count += 1
            st.kernel_pending += m.handler_kernel_events
    elif phase == _IRQ_ENTRY:
        if cycle >= st.irq_at:
            st.irq_phase = _IRQ_WAIT
            if reg.sleeps:
                st.irq_at = _BIG        # sleeps until the level drops
            else:
                st.irq_at = cycle + m.handler_poll_cycles
    elif phase == _IRQ_WAIT:
        if reg.sleeps:
            if not req:                 # level dropped: wake & exit
                st.irq_phase = _IRQ_EXIT
                st.irq_at = cycle + m.handler_exit_cycles
        elif cycle >= st.irq_at:        # poll instant
            if req:
                st.irq_at = cycle + m.handler_poll_cycles
            else:
                st.irq_phase = _IRQ_EXIT
                st.irq_at = cycle + m.handler_exit_cycles
    else:                               # _IRQ_EXIT
        if cycle >= st.irq_at:
            st.irq_phase = _IRQ_NONE
            st.irq_at = _BIG

    in_handler = st.irq_phase >= _IRQ_ENTRY
    if in_handler:
        st.handler_cycles += 1
        # the handler's own memory traffic: one kernel line per cycle
        if st.kernel_pending and len(st.reads) < m.read_outstanding:
            st.reads.append(cycle + m.mem_latency_cycles)
            st.kernel_pending -= 1
            st.issued_lines += 1
            st.kernel_lines += 1
            pm |= st.refill_mask
            hits += st.refill_hits

    # ---- scripted pulse streams ----
    kernel = in_handler
    if cycle == st.trace_next:
        recs = st.trace_recs
        _t, mask, kern = recs[st.trace_pos]
        pm |= mask
        hits += (mask & st.tap_mask).bit_count()
        kernel = kernel or kern
        st.trace_pos += 1
        st.trace_next = (recs[st.trace_pos][0]
                         if st.trace_pos < len(recs) else _BIG)

    # ---- issue stage ----
    wfi = False
    if not in_handler and not (req and reg.halts):
        if st.lines_left == 0:
            _advance_burst(st, cycle)
        if st.idle_until > cycle:
            st.idle_cycles += 1
            wfi = st.wfi_idle
        elif st.lines_left > 0 and st.ipc:
            acc = st.ipc_acc + st.ipc
            if acc < st.ipc_den:
                st.ipc_acc = acc
            elif _queue_full(st):       # the credit holds short of a line
                st.ipc_acc = st.ipc_stall
            else:
                st.ipc_acc = acc - st.ipc_den
                st.issued_lines += 1
                st.lines_left -= 1
                op = st.op
                if op != OP_WRITE:
                    st.reads.append(cycle + m.mem_latency_cycles)
                    pm |= st.refill_mask
                    hits += st.refill_hits
                if op == OP_WRITE or op == OP_MODIFY:
                    st.wb.append(cycle + 1)     # ready once it is buffered

    # ---- the regulator observes the cycle ----
    if hits:
        st.pmc_events += hits
        st.tap_events += 1
    throttled = reg.observe(st, cycle, pm, hits, kernel, wfi)
    if throttled:
        st.throttled_cycles += 1
        if not req:
            st.throttle_entries += 1
    st.prev_throttle = throttled


# =========================================================================
# quiet stretches
# =========================================================================

def _queue_full(st: CoreState):
    """True when the queue that core `st`'s workload op fills is full, so
    its issue stage stalls."""
    m = st.model
    if st.op == OP_WRITE:
        return len(st.wb) >= m.write_buffer_depth
    if st.op == OP_MODIFY and len(st.wb) >= m.write_buffer_depth:
        return True
    return len(st.reads) >= m.read_outstanding


def _core_span(st: CoreState, cycle, limit):
    """How many cycles from `cycle`, at most `limit`, core `st` can skip
    in one hop unless the controller grants it a line: it emits no pulse,
    changes no queue and reaches no deadline in them.  Below 2 it steps
    the next cycle instead.

    The deadlines are the interrupt phase end, the trace record, the idle
    end, the workload's next issue and the regulator's own `quiet_span`.
    A core whose queue is full cannot issue until a grant frees the queue,
    and a handler poll that sees the throttle level held only reschedules
    itself: the catch-up in `_catch_up` advances both without a
    deadline."""
    reg = st.reg
    phase = st.irq_phase
    req = st.prev_throttle
    if phase == _IRQ_NONE:
        if req and reg.irq_on_throttle:
            return 0                    # interrupt about to be raised
    elif phase == _IRQ_WAIT and reg.sleeps and not req:
        return 0                        # handler about to wake up
    d = st.irq_at if phase != _IRQ_WAIT or not req else _BIG
    if st.trace_next < d:
        d = st.trace_next
    if phase >= _IRQ_ENTRY:
        if st.kernel_pending and len(st.reads) < st.model.read_outstanding:
            return 0                    # the handler issues a kernel line
    elif not (req and reg.halts):
        if st.idle_until > cycle:
            if st.idle_until < d:
                d = st.idle_until
        elif st.lines_left == 0:
            return 0                    # a spent burst phase moves on
        elif st.ipc and not _queue_full(st):
            # the workload issues in the cycle whose addition brings its
            # credit to a whole line
            t = cycle - 1 - (st.ipc_acc - st.ipc_den) // st.ipc
            if t < d:
                d = t
    span = d - cycle if d - cycle < limit else limit
    if span < 2:
        return 0
    # only now ask the regulator, as the fabric's answer costs a step
    q = reg.quiet_span(st, cycle)
    if q < span:
        if q < 2:
            return 0
        span = q
    return span


def _catch_up(st: CoreState, start, end):
    """Advance core `st` from `start` to `end` across cycles that
    `_core_span` found quiet at `start`: its cycle counts, its issue
    credit, its held-level poll instant and its regulator."""
    span = end - start
    if st.prev_throttle:
        st.throttled_cycles += span
    if st.irq_phase >= _IRQ_ENTRY:
        st.handler_cycles += span
        if st.irq_at < end:
            # held-level polls: on to the first one at or after end
            p = st.model.handler_poll_cycles
            st.irq_at += -(-(end - st.irq_at) // p) * p
    elif not (st.prev_throttle and st.reg.halts):
        if st.idle_until > start:
            st.idle_cycles += span
        elif st.lines_left > 0 and st.ipc:
            # the credit builds up as in each stepped cycle; only a core
            # stalled on a full queue reaches a line, and holds there
            a = st.ipc_acc + span * st.ipc
            st.ipc_acc = a if a < st.ipc_den else st.ipc_stall
    st.reg.advance(span)


def _train(st: CoreState, t, end, acc, num, den, cap):
    """Apply in one hop the grants that a controller of rate num/den, its
    accumulator at `acc` and capped at `cap`, makes before `end` to core
    `st`, its sole requester, which stepped at `t` stalled on a full
    queue.  The core takes at most one grant a cycle.  Each grant retires
    the queue head, if it is ready, and the issue credit refills the
    slot, if it reaches a line: the core pulses once and changes no phase,
    so the regulator, within its `pulse_budget`, does not act.
    Returns the number of grants, the last grant cycle and the accumulator
    after it."""
    # a phase with lines left is not idle
    if (st.irq_phase != _IRQ_NONE or st.prev_throttle or st.lines_left < 2
            or st.op == OP_MODIFY or not _queue_full(st)):
        return 0, t, acc
    if st.op == OP_WRITE:
        if st.reads:                    # a read in flight is served first
            return 0, t, acc
        q, lat, pm, hits = st.wb, 1, st.wbk_mask, st.wbk_hits
    else:
        q, lat = st.reads, st.model.mem_latency_cycles
        pm, hits = st.refill_mask, st.refill_hits
    g = t - (acc - den) // num if acc < den else t + 1
    if g >= end or q[0] > g:
        return 0, t, acc
    room = min(st.lines_left - 1, st.reg.pulse_budget(st, pm, hits))
    ipc, ipc_den, a = st.ipc, st.ipc_den, st.ipc_acc
    k = 0
    last = t
    while k < room and g < end and q[0] <= g:
        # the credit as `_catch_up` and `_core_cycle` leave it: a core
        # that held a whole line before g holds none after it
        c = a + (g - last) * ipc - ipc_den
        if c < 0:
            break
        a = c if c < ipc else 0
        del q[0]
        q.append(g + lat)
        acc += (g - last) * num - den
        if acc > cap:
            acc = cap
        last = g
        k += 1
        g = last - (acc - den) // num if acc < den else last + 1
    if k:
        st.ipc_acc = a
        st.completed_lines += k
        st.issued_lines += k
        st.lines_left -= k
        if hits:
            st.pmc_events += k * hits
            st.tap_events += k
        st.reg.advance(last - t, k, hits)
    return k, last, acc


# =========================================================================
# the system loop
# =========================================================================

def run_system(sys_cfg: SystemConfig, use_hops: bool = True) -> SystemTrace:
    """Run the whole system for duration_cycles; fully deterministic."""
    cores = [CoreState(cs) for cs in sys_cfg.cores]
    n = len(cores)
    duration = sys_cfg.duration_cycles
    window = sys_cfg.window_cycles
    if window <= 0:
        window = sys_cfg.cores[0].model.freq_mhz * 1000   # one millisecond
    # acc counts 1/den lines: num a cycle, up to a line or a cycle's rate
    num, den = sys_cfg.shared_mem_bandwidth.as_integer_ratio()
    cap = max(den, num)
    acc = 0
    rr = 0
    total_granted = 0
    windows = [[] for _ in range(n)]
    wevents = [[] for _ in range(n)]
    ln_snap = [0] * n
    ev_snap = [0] * n
    win_end = window
    grants = [0] * n
    at = [0] * n        # the cycle each core's state is valid at
    due = [0] * n       # the next cycle each core must step

    cycle = 0
    while cycle < duration:
        if cycle >= win_end:
            for i in range(n):
                st = cores[i]
                windows[i].append(st.completed_lines - ln_snap[i])
                ln_snap[i] = st.completed_lines
                wevents[i].append(st.pmc_events - ev_snap[i])
                ev_snap[i] = st.pmc_events
            win_end += window

        # ---- 1. controller grants ----
        acc += num
        avail = acc // den
        if avail:
            served = 0
            for k in range(n):
                ci = rr + k
                if ci >= n:
                    ci -= n
                if cores[ci].has_request(cycle):
                    grants[ci] = 1
                    served += 1
                    if served == avail:
                        break
            if served:
                rr += 1
                if rr >= n:
                    rr = 0
                acc -= served * den
                total_granted += served
        if acc > cap:
            acc = cap

        # ---- 2+3. the cores due now or given a grant, and their
        # regulators; each core first catches up from its own time ----
        nxt = win_end if win_end < duration else duration
        ready = _BIG
        queued = 0
        for i in range(n):
            st = cores[i]
            g = grants[i]
            d = due[i]
            if g or d <= cycle:
                if g:
                    grants[i] = 0
                if at[i] < cycle:
                    _catch_up(st, at[i], cycle)
                _core_cycle(st, cycle, g)
                d = cycle + 1
                at[i] = d
                if use_hops:
                    d += _core_span(st, d, duration - d)
                due[i] = d
            if d < nxt:
                nxt = d
            r = st.reads
            if r and r[0] < ready:
                ready = r[0]
            w = st.wb
            if w and w[0] < ready:
                ready = w[0]
            if r or w:
                queued += 1
                sole = i

        # ---- a sole requester that just stepped takes its next grants
        # as one train; the loop goes on from the last, where `ready`
        # may be early, which costs a visit ----
        if use_hops and queued == 1 and at[sole] > cycle:
            st = cores[sole]
            k, last, acc = _train(st, cycle, nxt, acc, num, den, cap)
            if k:
                total_granted += k
                rr = (rr + k) % n
                cycle = last
                d = at[sole] = last + 1
                d += _core_span(st, d, duration - d)
                due[sole] = d
                if d < nxt:
                    nxt = d

        # ---- 4. on to the next cycle that a core or the controller acts
        # in: the controller's next possible grant is the earliest ready
        # queue head, once the accumulator holds a whole line ----
        cycle += 1
        if nxt > cycle and ready < nxt:
            line_at = cycle
            need = den - num - acc
            if need > 0:
                line_at -= -need // num
            if ready < line_at:
                ready = line_at
            if ready < nxt:
                nxt = ready
        if nxt > cycle:
            acc += (nxt - cycle) * num
            if acc > cap:
                acc = cap
            cycle = nxt

    for i in range(n):
        if at[i] < duration:
            _catch_up(cores[i], at[i], duration)

    # close the final (full or partial) window
    for i in range(n):
        windows[i].append(cores[i].completed_lines - ln_snap[i])
        wevents[i].append(cores[i].pmc_events - ev_snap[i])

    stats = tuple(CoreStats(*_stats_of(st)) for st in cores)
    return SystemTrace(duration_cycles=duration,
                       window_cycles=window,
                       windows=tuple(tuple(w) for w in windows),
                       window_events=tuple(tuple(w) for w in wevents),
                       stats=stats,
                       periods=tuple(tuple(st.reg.periods) for st in cores),
                       total_granted=total_granted)
