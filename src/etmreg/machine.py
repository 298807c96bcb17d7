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
credit.  A throttle level raises an interrupt in the cycle it rises,
pending from the next cycle for irq_latency_cycles; the handler charges
an entry cost, issues its own kernel-mode memory traffic, polls the
throttle level every handler_poll_cycles, and pays an exit cost once the
level drops.  Each interrupt phase moves in the first cycle at or after
its end, and never in the cycle it began, so a phase of 0 cycles lasts
one.  The workload issues nothing from handler entry to handler exit,
but in-flight transactions keep draining and keep pulsing — the gap
between "throttle asserted" and "traffic actually stops" is the point of
the model.  Timer-replenished regulators additionally run their handler at
every period boundary, throttled or not.

Each core's regulator is one runtime object, built once per run: none, the
fabric, MemGuard or MemPol.  It observes every stepped cycle and returns
the throttle level; its class attributes say how the core reacts to that
level (the fabric and MemGuard raise an interrupt, MemGuard's handler
sleeps instead of polling, MemPol halts issue from outside).

Each core keeps its own time, and a cycle steps only the cores that act
in it.  The loop skips the other cycles in hops of two kinds, core spans
and shares, and every hopped core lands in one way.

A core span (`_core_span`) skips one core's inert cycles (throttle
stalls, idle phases, compute-bound spans, a saturating core waiting on
the bus) up to the first deadline that the core or its regulator states:
its interrupt's entry, the cycle its handler returns to the workload with
the level held, its trace record and idle end, and its next issue, which
the exact credit gives in closed form.  A full queue, which only a grant
frees, is no deadline, nor are the handler's moves that only relabel it
(its entry's end, its polls, and the poll or wake-up that finds the
level low).  The regulator bounds the span with its own answer: MemGuard
its next timer refill, MemPol its next poll, and the fabric the stretch
in which its counters only count down, found by probing one pulse-free
cycle, which may clear a counter-zero latch that nothing reads.  Before a
lagging core steps, it lands and its issue credit builds up; at the end
every core is caught up to the duration.

The controller is the only thing that couples cores, and it reads only
their queue heads, which the loop keeps in one list.  So the loop runs
the controller at every cycle it visits and jumps to the earliest of: a
core's next step, the controller's next possible grant (the earliest
ready queue head, once the accumulator holds a whole line), the window
edge and the duration.  Both queues hold the cycle each request becomes
ready: a read's after the memory latency, a write-back's the cycle after
it is buffered.  A window edge needs no core step, as a core's event
count moves only at its stepped cycles.

A share (`_Share`) states once the bounds of a core's hop whose events
are issues and grants.  Its workload issues outside its handler, not
halted, not idle and at a rate above 0, into the queues that
`CoreState.caps` names for its op, up to their free slots and short of
its burst phase's last line, whose issue ends the phase, which only a
step does.  Its pulses are of one kind, as many as the regulator's
`pulse_budget` allows.

A core's step (`_step`) lands it, steps it and finds its span; one due
again the next cycle, with a workload that issues, as it refills its
free queue slots after its handler exits or at a burst start, ends it by
opening its share (`_opening`): the issues of its credit's closed form
in one hop, up to the controller's next possible grant to it.

The train (`_train`) is the one hop the loop plans, at a visit where a
queue head and the controller's next line both come before the next
step.  The cores that request take their grants in it, each while it is
stalled on a full queue with a line left, a grant that frees it issuing
from the credit, or drains: a grant only retires a line, but a freed
read slot in its handler takes a pending kernel line, an idle core's
fabric stays frozen under `wfi_idle`, and a core whose workload issues
but is not stalled drains up to its next issue, which bounds its share,
its credit building up.  The train serves one requester on any bus, as
a core takes one line a cycle at most, and several on a bus of less
than a line a cycle (`num < den`, as on every board preset), where the
controller makes one grant a cycle at most, in round-robin order: the
cores whose heads are ready take the grants in turns, at the
controller's closed-form grant cycles, and the controller waits for a
lone requester's head.  Each grant retires a ready read first, else the
write-back head.  A read grant that issues and pulses nothing is silent;
the others come in runs alike (`_Share.open`), each retiring the head of
one queue, then issuing from the credit, a kernel line, or nothing.  A
core without requests steps inside the train at its own deadline, and
joins the train if it then requests.  The train ends before a grant
that its share refuses, or when a requester, the window edge or the
duration is due; on a bus of a line a cycle or more, the grants to
several requesters step one by one.  The loop goes on from the last
cycle it covered.

Every hopped core lands in one way (`_hold`): its throttled, handler and
idle cycles count, its handler's moves apply in closed form, its
regulator advances across the hop, by the pulses its share counted, and
its issue credit builds up unless the grants issued from it.
`run_system(cfg, use_hops=False)` steps every core at every cycle in the
same loop; both must produce identical results.

What a core carries from one cycle to the next is declared once, in
`_STATE` and its regulator runtime's `_STATE`; `snapshot` reads both, and
the hop differential compares it at every core-step of a hopping run.
"""

from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import repeat
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


def _is_triple(item):
    return isinstance(item, (tuple, list)) and len(item) == 3


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
        if not isinstance(self.core_type, str):
            raise ValueError("core_type must be text, got %r"
                             % (self.core_type,))
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
        for i, p in enumerate(self.pattern):
            if not _is_triple(p):
                raise ValueError("burst phase %d %r is not a (op, bytes, "
                                 "idle_cycles) triple" % (i, p))
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
        # a long replay is checked record by record, so each message is
        # formatted only for a bad one
        for i, rec in enumerate(records):
            if not _is_triple(rec):
                raise ValueError("record %d %r is not a (cycle delta, "
                                 "signals, mode) triple" % (i, rec))
            delta, sigs, mode = rec
            if type(delta) is not int:
                F.check_int("record %d %r cycle delta" % (i, rec), delta)
            if delta < 0:
                raise ValueError("record %d %r has a negative cycle delta"
                                 % (i, rec))
            if mode != F.USER and mode != F.KERNEL:
                raise ValueError("record %d %r has mode %r, not %r or %r"
                                 % (i, rec, mode, F.USER, F.KERNEL))
            if not (isinstance(sigs, (set, frozenset, tuple, list))
                    and all(type(s) is int for s in sigs)):
                raise ValueError("record %d %r signals are not a set of ints"
                                 % (i, rec))
            if min(sigs, default=0) < 0:
                raise ValueError("record %d %r has a negative signal"
                                 % (i, rec))


@dataclass(frozen=True)
class CoreSpec:
    """One core of the system: timing model, workload, optional regulator
    (None, an EtmConfig, a MemGuardConfig, or a MemPolConfig)."""
    model: CoreModelConfig
    workload: object
    regulator: Optional[object] = None

    def __post_init__(self):
        if not isinstance(self.model, CoreModelConfig):
            raise ValueError("core model %r is not a CoreModelConfig"
                             % (self.model,))


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
        for i, core in enumerate(self.cores):
            if not isinstance(core, CoreSpec):
                raise ValueError("core %d %r is not a CoreSpec" % (i, core))
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

    Each runtime's slots are `_CONSTANTS`, set when the run starts;
    `_STATE`, what it carries from one of its core's steps to the next,
    which `snapshot` reads; and `_PROBES`, what its hop answers cache.
    """
    _CONSTANTS = _STATE = _PROBES = ()
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

    def pulse_budget(self, st, cycle, pm, hits):
        """How many of the quiet cycles that the last `quiet_span` call
        allowed core `st`, whose state holds at `cycle`, may instead pulse
        `pm`, `hits` monitored events a cycle, while this regulator neither
        acts nor changes a level."""
        return _BIG

    def advance(self, span, pulses=0, hits=0):
        """Skip `span` cycles from the cycle of the last `quiet_span`
        call, at most as many as it allowed, `pulses` of them pulsing as
        the last `pulse_budget` call allowed.  It may run long after the
        calls, when the core next steps: what they found (the fabric's
        counter slopes) holds for any span up to the probed one."""


class _Fabric(_Unregulated):
    """The trace-unit fabric; its throttle outputs raise an interrupt on
    the core, whose handler polls the level.

    Its constants include its config's generated functions
    (`fabric.CompiledFabric`): `step` steps a cycle, `idle_out` gives an
    idle cycle's outputs, and the one-step probes answer the hops:
    `quiet_span` asks `quiet_probe`, `pulse_budget` asks `probe`.  A
    probe may accept a cycle that clears a counter-zero latch, the cycle
    after a counter fires, where no counter input or idle output reads
    it; `advance` writes the latches the probe found."""
    # `periods` is the list that each closed period's record joins
    _CONSTANTS = ("step", "probe", "quiet_probe", "idle_out", "cm_user",
                  "cm_kernel", "reload", "periods")
    _STATE = ("state", "out", "pmc_mark", "tap_mark", "period_throttled")
    # the fetch, counter slopes and latches that `quiet_span` and
    # `pulse_budget` find are a cache, not state: they rewrite them before
    # each call that reads them, and a run without hops never sets them
    _PROBES = ("cm", "d0", "d1", "e0", "e1", "z0", "z1")
    __slots__ = _CONSTANTS + _STATE + _PROBES
    irq_on_throttle = True

    def __init__(self, cfg, st):
        cf = F.compile_fabric(cfg)
        self.step = cf.step
        self.probe = cf.probe
        self.quiet_probe = cf.quiet_probe
        self.idle_out = cf.idle_out
        # the core fetches from one user and one kernel address
        self.cm_user = cf.cmp_mask(_USER_FETCH_ADDR, True)
        self.cm_kernel = cf.cmp_mask(_KERNEL_FETCH_ADDR, False)
        self.cm = self.cm_user          # the fetch that quiet_span probed
        self.state = cf.reset_tuple()
        self.reload = self.state[:2]
        self.out = 0
        self.d0 = self.d1 = 0           # counter slopes found by quiet_span
        self.e0 = self.e1 = 0           # and under pulses, by pulse_budget
        self.z0 = self.z1 = False       # the latches that quiet_span found
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
        and without any level changing, with the fetch of the core's phase.
        The probed cycle leaves the counter-zero latches of all of them.  A
        sleeping core freezes the fabric, so nothing changes at all, its
        latches included."""
        kernel = st.irq_phase >= _IRQ_ENTRY
        s = self.state
        if not kernel and st.wfi_idle and st.idle_until > cycle:
            self.d0 = self.d1 = 0
            self.z0, self.z1 = s[3:]
            return _BIG
        cm = self.cm = self.cm_kernel if kernel else self.cm_user
        p = self.quiet_probe(s[0], s[1], s[2], s[3], s[4], cm, self.out)
        if p is None:
            return 0
        a, b, self.d0, self.d1, self.z0, self.z1 = p
        # a counter counting down from a fires a - 1 cycles after the probe
        return min(a - 1 if self.d0 else _BIG, b - 1 if self.d1 else _BIG)

    def pulse_budget(self, st, cycle, pm, hits):
        """A one-cycle probe with the pulses `pm` from the state that
        `quiet_span` probed gives the counters' slopes under pulses.  A
        counter that only pulses move fires at its value-th pulse.  At its
        reload value, the kind of cycle that seems to hold a counter the
        other kind moves may instead reload it, which no slope describes:
        a second probe one count lower tells a reload from a held value.
        A sleeping core's pulses do not reach the frozen fabric."""
        if st.wfi_idle and st.idle_until > cycle \
                and st.irq_phase < _IRQ_ENTRY:
            self.e0 = self.e1 = 0
            return _BIG
        s = self.state
        cm = self.cm
        out = self.out
        probe = self.probe
        p = probe(s[0], s[1], s[2], s[3], s[4], pm, cm, out)
        if p is None:
            return 0
        a, b, e0, e1, _z0, _z1 = p
        r0, r1 = self.reload
        if a == r0 and e0 != self.d0:
            q = probe(a - 1, b, s[2], s[3], s[4], 0 if e0 else pm, cm, out)
            if q is None or q[2]:
                return 0
        if b == r1 and e1 != self.d1:
            q = probe(a, b - 1, s[2], s[3], s[4], 0 if e1 else pm, cm, out)
            if q is None or q[3]:
                return 0
        self.e0 = e0
        self.e1 = e1
        return min(a - 1 if e0 > self.d0 else _BIG,
                   b - 1 if e1 > self.d1 else _BIG)

    def advance(self, span, pulses=0, hits=0):
        s = self.state
        quiet = span - pulses
        self.state = (s[0] - self.d0 * quiet - self.e0 * pulses,
                      s[1] - self.d1 * quiet - self.e1 * pulses,
                      s[2], self.z0, self.z1)


class _MemGuard(_Unregulated):
    """MemGuard: a budget refilled by a periodic timer interrupt that runs
    the handler every period; on exhaustion the handler sleeps until the
    next refill instead of polling."""
    _CONSTANTS = ("cfg",)
    _STATE = ("state",)
    __slots__ = _CONSTANTS + _STATE
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
            st.irq_at = cycle + (st.model.irq_latency_cycles or 1)
        return throttled

    def quiet_span(self, st, cycle):
        return self.state.next_boundary - cycle

    def pulse_budget(self, st, cycle, pm, hits):
        # the budget must stay above zero; a throttled core is not charged
        s = self.state
        return (s.remaining - 1) // hits if hits and not s.throttled else _BIG

    def advance(self, span, pulses=0, hits=0):
        s = self.state
        if pulses and not s.throttled:
            self.state = REG.MemGuardState(s.remaining - pulses * hits,
                                           s.next_boundary)


class _MemPol(_Unregulated):
    """MemPol: an external poller reads the core's event counter and halts
    its issue from outside; no interrupt runs on the core."""
    _CONSTANTS = ("cfg",)
    _STATE = ("state",)
    __slots__ = _CONSTANTS + _STATE
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

# what a line's move pulses: a write-back as it retires, a refill as it
# issues into a read slot, both in a train's grant, or neither
_WBK = 1
_REFILL = 2

# what a core fixes when the run starts
_CONSTANTS = (
    "model", "workload", "reg",
    # the workload's issue rate, idle kind and replay schedule
    "ipc", "ipc_den", "ipc_stall", "wfi_idle", "trace_recs",
    # pulse masks, and the monitored events of one line's pulse
    "refill_mask", "wbk_mask", "tap_mask", "refill_hits", "wbk_hits",
    # each op's queue limits and adds
    "caps",
)

# what a core carries from one cycle to the next, beside its regulator
# runtime's `_STATE`
_STATE = (
    # memory queues: FIFOs (lists) of the cycles their requests become ready
    "reads", "wb",
    # workload cursor
    "op", "ipc_acc", "phase", "lines_left", "idle_until", "trace_pos",
    "trace_next",
    # interrupt machine
    "irq_phase", "irq_at", "kernel_pending", "prev_throttle",
)
_state_of = attrgetter(*_STATE)

_STATS = tuple(f.name for f in fields(CoreStats))
_stats_of = attrgetter(*_STATS)


class CoreState:
    """Mutable per-core simulation state: the run's `_CONSTANTS`, the
    `_STATE` it carries between cycles and its `_STATS` counters."""

    __slots__ = _CONSTANTS + _STATE + _STATS

    def __init__(self, spec: CoreSpec):
        m = spec.model
        self.model = m
        self.workload = spec.workload
        self.reads = []
        self.wb = []
        self.refill_mask = F._signal_mask(m.refill_signals)
        self.wbk_mask = F._signal_mask(m.wb_signals)
        # each op's issue: the read-slot and write-buffer limits of the
        # queues it fills, `_BIG` for a queue it does not fill, and what it
        # adds to them, a read that pulses a refill and a write-back
        r, w = m.read_outstanding, m.write_buffer_depth
        read = (r, _BIG, _REFILL, False)
        self.caps = {OP_READ: read, OP_PREFETCH: read,
                     OP_WRITE: (_BIG, w, 0, True),
                     OP_MODIFY: (r, w, _REFILL, True)}

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


def _head(st: CoreState):
    """The cycle that the first of core `st`'s queue heads comes ready;
    the controller grants it a line from then on."""
    r, w = st.reads, st.wb
    h = r[0] if r else _BIG
    return w[0] if w and w[0] < h else h


def snapshot(st: CoreState):
    """The state that core `st` carries from one cycle to the next: its
    `_STATE`, the queues as tuples, and then its regulator runtime's.  Its
    cycles stay absolute, as only a key that compares two instants of one
    run would need them relative to now."""
    reg = st.reg
    s = _state_of(st)
    return ((tuple(s[0]), tuple(s[1])) + s[2:]
            + tuple(map(getattr, repeat(reg), reg._STATE)))


# =========================================================================
# one core-cycle
# =========================================================================

def _advance_burst(st: CoreState, cycle):
    """Move to the next burst phase once lines and idle are both spent."""
    w = st.workload
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
    # `irq_at` is the cycle the phase moves in, never the one it began in
    req = st.prev_throttle
    if cycle >= st.irq_at:
        phase = st.irq_phase
        if phase == _IRQ_PENDING:
            st.irq_phase = _IRQ_ENTRY
            st.irq_at = cycle + (m.handler_entry_cycles or 1)
            st.irq_count += 1
            st.kernel_pending += m.handler_kernel_events
        elif phase == _IRQ_ENTRY:
            # the handler reads the level at each poll, or, asleep until
            # it drops, in every cycle from the next
            st.irq_phase = _IRQ_WAIT
            st.irq_at = cycle + (1 if reg.sleeps else m.handler_poll_cycles)
        elif phase == _IRQ_WAIT:
            if not req:                 # level dropped: exit
                st.irq_phase = _IRQ_EXIT
                st.irq_at = cycle + (m.handler_exit_cycles or 1)
            elif not reg.sleeps:
                st.irq_at = cycle + m.handler_poll_cycles
        else:                           # _IRQ_EXIT
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
                _rcap, _wcap, radd, wadd = st.caps[st.op]
                if radd:
                    st.reads.append(cycle + m.mem_latency_cycles)
                    pm |= st.refill_mask
                    hits += st.refill_hits
                if wadd:
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
        if not st.irq_phase and reg.irq_on_throttle:
            # the level raises the interrupt, pending from the next cycle
            st.irq_phase = _IRQ_PENDING
            st.irq_at = cycle + 1 + (m.irq_latency_cycles or 1)
    st.prev_throttle = throttled


# =========================================================================
# quiet stretches
# =========================================================================

def _queue_full(st: CoreState):
    """True when a queue that core `st`'s workload op fills is full, so
    its issue stage stalls."""
    rcap, wcap, _radd, _wadd = st.caps[st.op]
    return len(st.reads) >= rcap or len(st.wb) >= wcap


def _core_span(st: CoreState, cycle, limit):
    """How many cycles from `cycle`, at most `limit`, core `st` can skip
    in one hop unless the controller grants it a line: it emits no pulse,
    changes no queue and reaches no deadline in them.  Below 2 it steps
    the next cycle instead.

    The deadlines are the interrupt's entry, the cycle the handler
    returns to the workload with the level held, the trace record, the
    idle end, the workload's next issue and the regulator's own
    `quiet_span`.  A core whose queue is full cannot issue until a grant
    frees the queue, and the handler's other moves only relabel it: its
    landing (`_hold`) advances both without a deadline.  A core whose
    next issue is due within 2 cycles steps the next cycle, unless its
    step opens its share with that cycle and the issues after it
    (`_opening`)."""
    reg = st.reg
    phase = st.irq_phase
    req = st.prev_throttle
    d = st.trace_next
    if phase >= _IRQ_ENTRY:
        m = st.model
        if st.kernel_pending and len(st.reads) < m.read_outstanding:
            return 0                    # the handler issues a kernel line
        # the cycle the handler returns to the workload: its exit's end.
        # Held high, the level keeps it waiting; held low, its wait ends
        # at its first read of the level
        t = st.irq_at
        if phase != _IRQ_EXIT:
            if req:
                t = _BIG
            else:
                if phase == _IRQ_ENTRY:
                    t += 1 if reg.sleeps else m.handler_poll_cycles
                elif t < cycle:
                    t = cycle           # asleep, it wakes now
                t += m.handler_exit_cycles or 1
        if t < d:
            d = t
    elif not (req and reg.halts):
        if st.irq_at < d:
            d = st.irq_at               # a pending interrupt's entry
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


def _hold(st: CoreState, start, end, pulses=0, hits=0, credit=True):
    """Land core `st` at `end` from a hop that began at `start`, in which
    it held its throttle level: count its throttled, handler and idle
    cycles, and advance its regulator across them, `pulses` of which
    pulsed `hits` monitored events each.  In its handler, apply the moves
    those cycles make: the end of its entry, its polls that find the level
    high, on to the first at or after `end`, and the poll or wake-up that
    finds it low, which starts its exit.  Outside its handler, not halted
    and not idle, its workload's issue credit builds up across them as in
    each stepped cycle, less the lines the hop already took from it,
    unless `credit` is False because the hop's grants set it: only a core
    stalled on a full queue reaches a line, and holds there."""
    span = end - start
    st.reg.advance(span, pulses, hits)
    req = st.prev_throttle
    if req:
        st.throttled_cycles += span
    phase = st.irq_phase
    if phase < _IRQ_ENTRY:
        if req and st.reg.halts:
            return
        if st.idle_until > start:
            st.idle_cycles += span
        elif credit and st.lines_left > 0 and st.ipc:
            a = st.ipc_acc + span * st.ipc
            st.ipc_acc = a if a < st.ipc_den else st.ipc_stall
        return
    st.handler_cycles += span
    t = st.irq_at
    if phase == _IRQ_ENTRY and t < end:
        phase = st.irq_phase = _IRQ_WAIT
        t += 1 if st.reg.sleeps else st.model.handler_poll_cycles
    if phase == _IRQ_WAIT and t < end:
        if not req:
            if t < start:
                t = start               # asleep, it wakes now
            st.irq_phase = _IRQ_EXIT
            t += st.model.handler_exit_cycles or 1
        elif not st.reg.sleeps:
            p = st.model.handler_poll_cycles
            t += -(-(end - t) // p) * p
    st.irq_at = t

# a share's `run` while none is open: its queue, adds, limit, fill, grants
# and pulse kind
_CLOSED = (None, 0, 0, 0, 0, 0, 0)


def _issues(st: CoreState, t):
    """True when core `st`'s workload may issue at `t`: outside its
    handler, not halted, not in an idle burst phase and at a rate above
    0."""
    return not (st.irq_phase >= _IRQ_ENTRY or st.prev_throttle
                and st.reg.halts or st.idle_until > t or not st.ipc)


def _room(st: CoreState, q):
    """The issues that core `st`'s free queue slots take, one after each
    grant from queue `q`, or without grants for `q` = (): the lines
    before its burst phase's last one, whose issue ends the phase, which
    only a step does, and the fill of the queues that its op fills
    (`CoreState.caps`) and no grant drains.  None if the grant leaves no
    slot free."""
    rcap, wcap, _radd, _wadd = st.caps[st.op]
    reads, wb = st.reads, st.wb
    # the queue lengths after the grant
    nr, nw = len(reads) - (q is reads), len(wb) - (q is wb)
    if nr >= rcap or nw >= wcap:
        return None
    fill = rcap - nr if q is not reads else _BIG
    if q is not wb and wcap - nw < fill:
        fill = wcap - nw
    return st.lines_left - 1, fill


class _Share:
    """One core's part of a hop from its state at `t` + 1: the issues that
    open it (`_opening`), or the grants of a train (`_train`).  `last` is
    the cycle of its last grant.  Its pulses are of one kind, which its
    first pulsing run sets and asks the regulator's `pulse_budget` for
    (`allow`).  Each run counts its issues and pulses in the core
    (`count`), and after the hop the core lands (`_hold`), its credit
    building up unless its grants issued from it.

    A train's grants issue from the credit (`issue`) only while the core
    is stalled on a full queue with a line left and its workload issues
    (`_issues`), as the train states when it builds the share: a grant
    that frees the queue then issues a line, into the free slots that
    `_room` gives.  Else the core drains: a grant only
    retires a line, but a freed read slot in its handler takes a pending
    kernel line.  A core whose workload issues drains up to its next
    issue, which bounds its share, while its credit builds up.  Idle, its
    cycles count as idle ones, and under `wfi_idle` its fabric stays
    frozen.

    A grant retires a ready read first, else the write-back head.  A read
    grant that then issues nothing and pulses nothing is silent: a
    drainer's, unless its handler has kernel lines to issue, and a stalled
    core's while its write buffer is full.  Silent grants need no set-up.
    The others come in runs alike (`open`), which `run` holds from one
    turn to the next: each grant retires the head of one queue and then
    issues from the credit, a pending kernel line, or nothing."""
    __slots__ = ("st", "issue", "t", "last", "wcap", "radd", "wadd", "kind",
                 "hits", "budget", "run", "pulses")

    def __init__(self, st, t, issue):
        self.st = st
        self.t = self.last = t
        self.kind = self.hits = self.pulses = 0
        self.run = _CLOSED
        self.issue = issue
        if issue:
            _rcap, self.wcap, self.radd, self.wadd = st.caps[st.op]

    def open(self, q):
        """Set up the run whose grants retire the head of queue `q`.  The
        share refuses the grant after the run's limit: the last line of
        the burst phase, a pulse of another kind or one beyond the budget.
        Returns the run's read and write-back adds, its limit, its fill
        (when its queue runs dry or the other one fills up) and its pulse
        kind, or None if the share refuses its first grant."""
        st = self.st
        kind = _WBK if q is st.wb else 0
        run, fill = _BIG, len(q)
        radd = wadd = 0
        room = self.issue and _room(st, q)
        if room:
            radd, wadd = self.radd, self.wadd
            kind |= radd
            run, fill = room
        elif q is st.reads and st.irq_phase >= _IRQ_ENTRY \
                and st.kernel_pending:
            # the reads after the last kernel line take none
            kind = radd = _REFILL
            fill = st.kernel_pending
        run = self.allow(kind, run)
        if run < 1:
            return None
        return radd, wadd, run, fill, kind

    def allow(self, kind, n):
        """`n` cut to the pulses of `kind` that the regulator still allows
        the share; none after a pulse of another kind."""
        if not kind or n < 1:
            return n
        if kind != self.kind:
            if self.kind:
                return 0
            # the share's pulse kind, and how many the regulator allows
            st = self.st
            pm = hits = 0
            if kind & _WBK:
                pm, hits = st.wbk_mask, st.wbk_hits
            if kind & _REFILL:
                pm |= st.refill_mask
                hits += st.refill_hits
            self.kind, self.hits = kind, hits
            self.budget = st.reg.pulse_budget(st, self.t + 1, pm, hits)
        x = self.budget - self.pulses
        return x if x < n else n

    def count(self, n, issues, kind):
        """Count in the core the `n` issues of a run if `issues`, its
        workload's lines or, in its handler, kernel lines, and its pulses
        if `kind`, as its queues already hold them."""
        st = self.st
        if issues:
            st.issued_lines += n
            if st.irq_phase < _IRQ_ENTRY:
                st.lines_left -= n
            else:
                st.kernel_pending -= n
                st.kernel_lines += n
        if kind:
            self.pulses += n
            if self.hits:
                st.pmc_events += n * self.hits
                st.tap_events += n


def _opening(st: CoreState, t, g, end):
    """Open core `st`'s share at `t` + 1, the cycle it is due after its
    step at `t`, if its workload issues there: apply in one hop the lines
    it issues from its credit into its free queue slots (`_room`), with
    their queue entries, counts and refill pulses (`_Share.allow`,
    `_Share.count`).  They come at the cycles of the credit's closed form,
    before `end`, the interrupt's entry, the regulator's `quiet_span` and
    the controller's next possible grant to the core: the later of its
    next line `g` and the first of the core's own heads (`_head`) or the
    run's.  The checks that need no probe of the regulator, whose answers
    cost a fabric step each, come before the share is built.  Returns the
    cycle the core's state then holds at, or 0 if it takes no line.  A
    core whose workload issues replays no trace records."""
    t1 = t + 1
    room = _issues(st, t1) and _room(st, ())
    if not room:
        return 0
    ipc, den, acc = st.ipc, st.ipc_den, st.ipc_acc
    lat = st.model.mem_latency_cycles
    _rcap, _wcap, radd, wadd = st.caps[st.op]
    # the k-th issue comes at t - (acc - k * den) // ipc; the run's first
    # head is the first issue's write-back, ready the cycle after, or its
    # read, ready `lat` cycles after, whichever comes first
    head = t - (acc - den) // ipc
    head += 1 if wadd and (lat or not radd) else lat
    h = _head(st)
    if h < head:
        head = h
    if head < g:
        head = g
    if head < end:
        end = head
    if st.irq_at < end:
        end = st.irq_at
    k = (acc + (end - t1) * ipc) // den
    n = min(room)
    if k > n:
        k = n
    if k < 1:
        return 0
    s = _Share(st, t, False)
    q = t1 + st.reg.quiet_span(st, t1)
    if q < end:
        end = q
        k = min(k, (acc + (end - t1) * ipc) // den)
    k = s.allow(radd, k)
    if k < 1:
        return 0
    # the issue cycles; at a line a cycle the credit stays 0
    issued = (range(t1, t1 + k) if ipc == den else
              [t - (acc - j * den) // ipc for j in range(1, k + 1)])
    if k < (acc + (end - t1) * ipc) // den:
        end = issued[-1] + 1
    if radd:
        st.reads += [c + lat for c in issued]
    if wadd:
        st.wb += [c + 1 for c in issued]        # ready once it is buffered
    st.ipc_acc = acc - k * den
    s.count(k, True, radd)
    _hold(st, t1, end, s.pulses, s.hits)
    return end


def _step(st: CoreState, start, cycle, grant, g, end, duration):
    """Land core `st` at `cycle` from `start` (`_hold`), step it there
    with the cycle's grant if `grant` and find its next step
    (`_core_span`); if that is the next cycle, open its share there
    (`_opening`) before `end`, the controller's next line being `g`.
    Returns the cycle its state then holds at and its next step."""
    if start < cycle:
        _hold(st, start, cycle)
    _core_cycle(st, cycle, grant)
    t = cycle + 1
    span = _core_span(st, t, duration - t)
    if not span:
        e = _opening(st, cycle, g, end)
        if e:
            return e, e + _core_span(st, e, duration - e)
    return t, t + span


def _train(cores, heads, at, due, rings, duration, t, g, end, acc, num,
           den, cap, rr):
    """Plan the hop from `t`, the cycle the loop visited last: the
    controller of rate num/den, whose accumulator holds `acc`, capped at
    `cap`, makes its grants from its next line at `g` to before `end` to
    the cores that request (`heads`), each as one share.

    The controller makes one grant a cycle at most: to a sole requester on
    any bus, and to several only on a bus of less than a line a cycle
    (`num < den`).  Each goes to the first core in the round-robin order
    `rings[rr]` whose head is ready, and `rr` moves on by one.  So the
    shares ready at a grant take the grants after it in a rotation: the
    first takes them up to its place in the ring, and each next one from
    the place after the one before it up to its own; a sole share takes
    them all, and the controller waits for its head.  A share is built at
    its first turn.  At its turn it takes silent read grants without a
    run, and the others as one more of its run, or of a run it sets up
    (`_Share.open`) when the grant is not.  The rotation ends at a turn
    whose share is not ready, before a grant at or after the first head
    of a share that was not ready at its start, or when a core without
    requests is due: it steps at its own deadline `due` (`_step`), after
    that cycle's grant, as the loop would step it, and joins the train if
    it then requests.  The train ends before a grant that its share
    refuses, or at a requester's own deadline.  Each core it granted or
    stepped then holds its state at `at`, its next step at `due` and its
    first queue head in `heads`.  Returns the number of grants, the last
    cycle the train covered (`t` if none), the accumulator and `rr` after
    it, the first step and queue head of any core after it, and the
    controller's next line."""
    n = len(cores)
    # each requester's share, False until its first turn, and None for a
    # core without requests
    shares = [None] * n
    edge = end
    queued = k = 0
    last = step_at = t
    line = g                            # the controller's next line
    while True:
        if last == step_at:
            # the cores without requests: each due at `last` steps, after
            # that cycle's grant, as the loop would step it, and each that
            # then requests joins
            step_at = _BIG
            for i in range(n):
                if shares[i] is None:
                    d = due[i]
                    if d == last:
                        st = cores[i]
                        at[i], d = _step(st, at[i], last, 0, line, edge,
                                         duration)
                        due[i] = d
                        heads[i] = _head(st)
                    if heads[i] < _BIG:
                        shares[i] = False
                        queued += 1
                        if d < end:
                            end = d
                    elif d < step_at:
                        step_at = d
            if queued > 1 and num >= den:
                break                   # a cycle may grant several lines
        first = min(heads)
        if first > g:                   # the controller waits for a head
            g = first
        if step_at < g and step_at < end:
            # the cores without requests due then step, in the cycle that
            # the last grant came in or after it
            acc += (step_at - last) * num
            if acc > cap:
                acc = cap
            last = step_at
            if line <= last:            # the accumulator holds a line
                line = last + 1
            g = line                    # a core that steps may request
            continue
        if g >= end:
            break
        # the rotation of the shares ready at g, in round-robin order; a
        # grant in the cycle that a core steps in comes before the step
        stop = step_at + 1 if step_at < end else end
        turns = ()
        for i in rings[rr]:
            h = heads[i]
            if h <= g:
                turns += (i,)
            elif h < stop:
                stop = h
        m = len(turns)
        # the first share's turn lasts up to its place in the ring, each
        # next one's from the place after the one before it; a sole share
        # takes every grant, and the controller waits for its head
        left = (turns[0] - rr) % n + 1 if m > 1 else _BIG
        taken = j = 0
        s = None
        # the accumulator fills up to `cap` while the controller waits;
        # after a grant it waits for no head
        over = acc + (g - 1 - last) * num - cap
        if over > 0:
            acc -= over
        while g < stop:
            if s is None:
                # the share whose turn it is, and its open run
                i = turns[j]
                s = shares[i]
                if not s:
                    st = cores[i]
                    # its grants issue from the credit while it is stalled
                    # on a full queue with a line left
                    s = shares[i] = _Share(st, at[i] - 1, _issues(
                        st, at[i]) and st.lines_left > 0 and _queue_full(st))
                st = s.st
                reads, wb = st.reads, st.wb
                issue = s.issue
                # at a rate of a line a cycle the credit stays 0
                credit = issue and st.ipc < st.ipc_den
                if credit:
                    ipc, ipc_den, stall = st.ipc, st.ipc_den, st.ipc_stall
                    a, s_last = st.ipc_acc, s.last
                lat = st.model.mem_latency_cycles
                rq, radd, wadd, run, fill, rn, kind = s.run
            silent = False
            if reads and reads[0] <= g:
                q = reads
                silent = len(wb) >= s.wcap if issue else not (
                    st.kernel_pending and st.irq_phase >= _IRQ_ENTRY)
            elif wb and wb[0] <= g:
                q = wb
            else:
                if m > 1:
                    break               # not ready at its turn
                h = _head(st)
                if h >= stop:
                    break
                g = h                   # the controller waits for the head
                over = acc + (g - 1 - last) * num - cap
                if over > 0:
                    acc -= over
                continue
            if silent:
                qa = qw = first = 0
                lim = len(reads)
            else:
                lim = run if run < fill else fill
                if rq is not q or rn == lim:
                    if rq is q and rn == run < fill:
                        end = g         # one more of the run, past its limit
                        break
                    if rn:              # the run ends: count its grants
                        s.count(rn, radd or wadd, kind)
                        rn = 0
                    opened = s.open(q)
                    if opened is None:
                        rq = None
                        end = g
                        break
                    radd, wadd, run, fill, kind = opened
                    rq = q
                    lim = run if run < fill else fill
                qa, qw, first = radd, wadd, rn
            issues = qa or qw
            # a write-back run ends before a read comes ready
            o = stop
            if q is wb:
                h = reads[0] if reads else g + lat if qa else _BIG
                if h < o:
                    o = h
            top = first + left
            if lim < top:
                top = lim
            done = first
            while True:
                if credit:
                    # the credit as `_hold` and `_core_cycle` leave it: a
                    # core that held a whole line before g holds none after
                    c = a + (g - s_last) * ipc
                    if issues:
                        c -= ipc_den
                        if c < 0:
                            stop = end = g
                            break
                        if c >= ipc:
                            c = 0
                    elif c >= ipc_den:
                        c = stall
                    a = c
                    s_last = g
                del q[0]
                if qa:
                    reads.append(g + lat)
                if qw:
                    wb.append(g + 1)    # ready once it is buffered
                done += 1
                acc += (g - last) * num - den
                if acc > cap:
                    acc = cap
                last = g
                g = last - (acc - den) // num if acc < den else last + 1
                if done == top or g >= o or q[0] > g:
                    break
            done -= first
            if done:
                over = 0
                line = g
                taken += done
                left -= done
                s.last = last
                st.completed_lines += done
                if credit:
                    st.ipc_acc = a
                if not silent:
                    rn += done
                elif rq is wb and radd:
                    fill += done        # each frees a read slot
            if not left:
                # the turn passes on: the share keeps its run
                s.run = rq, radd, wadd, run, fill, rn, kind
                s = None
                j = j + 1 if j + 1 < m else 0
                left = (turns[j] - turns[j - 1]) % n
        if s is not None:
            s.run = rq, radd, wadd, run, fill, rn, kind
        if over > 0:                    # no grant since the wait
            acc += over
        for i in turns:
            heads[i] = _head(cores[i])
        k += taken
        rr = (rr + taken) % n
        if g >= end and step_at >= end:
            break
    # each core granted lands at its last grant and holds its state from
    # there on, its credit built up if it drained.  The loop goes on to
    # the first step or head of any core
    for i in range(n if last > t else 0):
        s = shares[i]
        if s and s.last > s.t:
            _q, radd, wadd, _run, _fill, rn, kind = s.run
            if rn:                      # the run still open counts too
                s.count(rn, radd or wadd, kind)
            d = at[i] = s.last + 1
            _hold(s.st, s.t + 1, d, s.pulses, s.hits, not s.issue)
            due[i] = d + _core_span(s.st, d, duration - d)
    return k, last, acc, rr, min(min(due), edge), min(heads), line


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
    heads = [_BIG] * n  # the first queue head of each core (`_head`)
    at = [0] * n        # the cycle each core's state is valid at
    # the controller's round-robin order from each core
    rings = [tuple(range(i, n)) + tuple(range(i)) for i in range(n)]
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
                if heads[ci] <= cycle:
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
        # regulators.  With hops, each core first catches up from its own
        # time, and one due again the next cycle opens its share there, up
        # to the controller's next line g, which no step moves ----
        edge = win_end if win_end < duration else duration
        g = cycle - (acc - den) // num if acc < den else cycle + 1
        nxt = edge
        for i in range(n):
            grant = grants[i]
            d = due[i]
            if grant or d <= cycle:
                st = cores[i]
                if grant:
                    grants[i] = 0
                if use_hops:
                    at[i], d = _step(st, at[i], cycle, grant, g, edge,
                                     duration)
                else:
                    _core_cycle(st, cycle, grant)
                    d = at[i] = cycle + 1
                due[i] = d
                heads[i] = _head(st)
            if d < nxt:
                nxt = d
        ready = min(heads)

        # ---- one train: the requesters take their next grants, if a head
        # and the controller's next line both come before nxt, which they
        # never do without hops, as every core is due the next cycle.  The
        # loop goes on from the last cycle the train covered, with the next
        # step and head that it leaves ----
        if ready < nxt and g < nxt:
            k, cycle, acc, rr, nxt, ready, g = _train(
                cores, heads, at, due, rings, duration, cycle, g, edge, acc,
                num, den, cap, rr)
            total_granted += k

        # ---- 4. on to the next cycle that a core or the controller acts
        # in: the controller's next possible grant is the earliest ready
        # queue head, once the accumulator holds a whole line at g ----
        cycle += 1
        if nxt > cycle and ready < nxt:
            if ready < g:
                ready = g
            if ready < nxt:
                nxt = ready
        if nxt > cycle:
            acc += (nxt - cycle) * num
            if acc > cap:
                acc = cap
            cycle = nxt

    for i in range(n):
        if at[i] < duration:
            _hold(cores[i], at[i], duration)

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
