"""Regulator designs built on the trace-unit fabric, plus software baselines.

Hardware designs (all compiled to EtmConfig):

  PR       periodic replenishment; overuse while throttled carries into the
           next period
  PR_STOP  PR with accounting gated off while throttled (kept to show why
           that is a bad idea)
  PR_USER  PR with accounting restricted to user-mode execution via an
           address range comparator
  TB31/TB22/TB13
           token bucket, bucket depth 4; throttling in the top 1/2/3 states

Software baselines (plain step functions, no fabric):

  MEMGUARD periodic timer replenishment with on-core interrupt costs
  MEMPOL   external polling regulator with a sliding window
"""

import math
from dataclasses import dataclass

from . import fabric as F
from .accounting import model_for


# =========================================================================
# design names and specs
# =========================================================================

PR = "pr"
PR_STOP = "pr-stop"
PR_USER = "pr-user"
TB31 = "tb31"
TB22 = "tb22"
TB13 = "tb13"
MEMGUARD = "memguard"
MEMPOL = "mempol"

ETM_DESIGNS = (PR, PR_STOP, PR_USER, TB31, TB22, TB13)
ALL_DESIGNS = ETM_DESIGNS + (MEMGUARD, MEMPOL)

# sequencer states whose level raises the throttle interrupt
_THROTTLE_STATES = {
    PR: frozenset({3}),
    PR_STOP: frozenset({3}),
    PR_USER: frozenset({2, 3}),
    TB31: frozenset({3}),
    TB22: frozenset({2, 3}),
    TB13: frozenset({1, 2, 3}),
}

# first kernel address: PR_USER counts fetches below it as user mode
USER_KERNEL_SPLIT = 1 << 47

# polls in MemPol's sliding regulation window
MEMPOL_WINDOW = 8


class RangeError(ValueError):
    pass


@dataclass(frozen=True)
class RegulatorSpec:
    """What to build: a design name plus its budget/period in events/cycles."""
    design: str
    budget_events: int
    period_cycles: int
    core_type: str = "cortex-a53"
    model_variant: str = "default"

    @property
    def throttle_states(self) -> frozenset:
        return _THROTTLE_STATES[self.design]


def _check_positive(what, value, unit):
    F.check_int(what, value)
    if value < 1:
        raise RangeError("%s %s %ss is below 1 %s" % (what, value, unit, unit))


def _check_ranges(spec: RegulatorSpec):
    if spec.design not in ETM_DESIGNS:
        raise RangeError("design %r is not a trace-unit design" % (spec.design,))
    _check_positive("budget", spec.budget_events, "event")
    if spec.budget_events > F.COUNTER_MAX:
        raise RangeError("budget %d exceeds 16-bit counter range"
                         % spec.budget_events)
    _check_positive("period", spec.period_cycles, "cycle")
    if spec.period_cycles > F.COUNTER_MAX:
        raise RangeError("period %d cycles exceeds 16-bit counter range"
                         % spec.period_cycles)


def max_period(freq_mhz) -> float:
    """Longest replenishment period the 16-bit cycle counter can hold at
    this clock, in microseconds, rounded down to 0.1 µs."""
    if freq_mhz <= 0:
        raise ValueError("frequency must be positive")
    return math.floor(10 * F.COUNTER_MAX / freq_mhz) / 10


def _event_tap(spec: RegulatorSpec, signals):
    """The event input: `signals` if given, else the PMU events that the
    accounting model of the spec's core type and variant monitors."""
    if signals is None:
        signals = model_for(spec.core_type, spec.model_variant).signals
    sigs = frozenset(signals)
    if not (1 <= len(sigs) <= F.NUM_INPUTS):
        raise RangeError("need 1..%d PMU signals on the event tap, got %d"
                         % (F.NUM_INPUTS, len(sigs)))
    return (F.ExternalInputSelector(sigs),)


# =========================================================================
# periodic replenishment (PR, PR_STOP)
# =========================================================================
#
# Selector map:
#   2  event pulse (OR of the monitored PMU signals)
#   3  budget counter fired
#   4  period counter fired
#   5  sequencer in state 3 (throttling); inverted uses read "state 0"
#      since the sequencer only ever visits {0, 3}
#
# The budget counter self-reloads on exhaustion and keeps counting while
# throttled, so overuse wraps into the next period's allowance.  Its reload
# event (period fire AND not-throttled) refills it to the full budget only
# at boundaries reached in state 0; a boundary reached while throttled skips
# the refill and the carried value stands.  Overuse beyond a full budget
# wraps (the counter has no floor), which is the documented small-budget
# failure mode.

def build_pr_config(spec: RegulatorSpec, signals=None) -> F.EtmConfig:
    if spec.design not in (PR, PR_STOP):
        raise RangeError("build_pr_config handles PR designs, not %r"
                         % (spec.design,))
    _check_ranges(spec)
    sels = F.HARDWIRED + (
        F.ResourceSelectorConfig(F.EXTERNAL_INPUTS, frozenset({0})),
        F.ResourceSelectorConfig(F.COUNTER_ZERO, frozenset({0})),
        F.ResourceSelectorConfig(F.COUNTER_ZERO, frozenset({1})),
        F.ResourceSelectorConfig(F.SEQUENCER_STATE, spec.throttle_states),
    )
    if spec.design == PR_STOP:
        # accounting stops while throttled: events only count in state 0
        budget_input = F.EventSpec(2, 5, "and", invert_b=True)
    else:
        budget_input = F.EventSpec(2)
    cfg = F.EtmConfig(
        inputs=_event_tap(spec, signals),
        selectors=sels,
        counters=(
            F.CounterConfig(0, spec.budget_events, budget_input,
                            self_reload=True,
                            reload_event=F.EventSpec(4, 5, "and",
                                                     invert_b=True)),
            F.CounterConfig(1, spec.period_cycles, F.EventSpec(F.TRUE_SEL),
                            self_reload=True),
        ),
        sequencer=F.SequencerConfig(forward=(3, 3, 3), backward=(4, 4, 4)),
        outputs=(F.ExternalOutputConfig(1, 5),),
    )
    F.validate_config(cfg)
    return cfg


# =========================================================================
# token bucket (TB31, TB22, TB13)
# =========================================================================
#
# Selector map:
#   2        event pulse
#   3..6     sequencer in state 0 / 1 / 2 / 3
#   7..9     budget fired AND state 0/1/2   (fill one more debt step)
#   10..12   period fired AND state 1/2/3   (pay one debt step back)
#
# State k means k whole budgets of debt; the budget counter's value is the
# fraction toward the next step.  Gating every transition by the latched
# state makes each fire move exactly one step, and nothing ever resets the
# budget counter, so unused headroom accumulates across periods up to the
# bucket depth.

def build_tb_config(spec: RegulatorSpec, signals=None) -> F.EtmConfig:
    if spec.design not in (TB31, TB22, TB13):
        raise RangeError("build_tb_config handles TB designs, not %r"
                         % (spec.design,))
    _check_ranges(spec)
    sels = list(F.HARDWIRED)
    sels.append(F.ResourceSelectorConfig(F.EXTERNAL_INPUTS, frozenset({0})))
    for st in range(4):
        sels.append(F.ResourceSelectorConfig(F.SEQUENCER_STATE,
                                             frozenset({st})))
    for st in range(3):        # budget fire in state st: st -> st+1
        sels.append(F.ResourceSelectorConfig(F.COUNTER_ZERO, frozenset({0}),
                                             paired_with=(3 + st, "and")))
    for st in range(1, 4):     # period fire in state st: st -> st-1
        sels.append(F.ResourceSelectorConfig(F.COUNTER_ZERO, frozenset({1}),
                                             paired_with=(3 + st, "and")))
    outputs = tuple(
        F.ExternalOutputConfig(i + 1, 3 + st)
        for i, st in enumerate(sorted(spec.throttle_states)))
    cfg = F.EtmConfig(
        inputs=_event_tap(spec, signals),
        selectors=tuple(sels),
        counters=(
            F.CounterConfig(0, spec.budget_events, F.EventSpec(2),
                            self_reload=True),
            F.CounterConfig(1, spec.period_cycles, F.EventSpec(F.TRUE_SEL),
                            self_reload=True),
        ),
        sequencer=F.SequencerConfig(forward=(7, 8, 9), backward=(10, 11, 12)),
        outputs=outputs,
    )
    F.validate_config(cfg)
    return cfg


# =========================================================================
# user-mode-only periodic replenishment (PR_USER)
# =========================================================================
#
# States: 0 = under budget / kernel, 1 = under budget / user,
#         2 = over budget / user,   3 = over budget / kernel.
# Selector map:
#   2  event pulse              3  budget fired        4  period fired
#   5  user-space fetch         6  no user-space fetch this cycle
#   7  state in {1,2}: accounting enabled (user side)
#   8  state in {2,3}: over budget (throttle output)
#   9  period fired AND state in {2,3}: the replenish reset
#
# The budget counter only counts events attributed to user-mode states; a
# replenish while over budget resets (2 or 3) -> 0 and the next user-space
# fetch moves 0 -> 1.

def build_pr_user_config(spec: RegulatorSpec, signals=None) -> F.EtmConfig:
    if spec.design != PR_USER:
        raise RangeError("build_pr_user_config handles PR_USER, not %r"
                         % (spec.design,))
    _check_ranges(spec)
    sels = F.HARDWIRED + (
        F.ResourceSelectorConfig(F.EXTERNAL_INPUTS, frozenset({0})),
        F.ResourceSelectorConfig(F.COUNTER_ZERO, frozenset({0})),
        F.ResourceSelectorConfig(F.COUNTER_ZERO, frozenset({1})),
        F.ResourceSelectorConfig(F.ADDRESS_RANGE, frozenset({0})),
        F.ResourceSelectorConfig(F.ADDRESS_RANGE, frozenset({0}), invert=True),
        F.ResourceSelectorConfig(F.SEQUENCER_STATE, frozenset({1, 2})),
        F.ResourceSelectorConfig(F.SEQUENCER_STATE, spec.throttle_states),
        F.ResourceSelectorConfig(F.COUNTER_ZERO, frozenset({1}),
                                 paired_with=(8, "and")),
    )
    cfg = F.EtmConfig(
        inputs=_event_tap(spec, signals),
        selectors=sels,
        counters=(
            F.CounterConfig(0, spec.budget_events, F.EventSpec(2, 7, "and"),
                            self_reload=True,
                            reload_event=F.EventSpec(4, 8, "and",
                                                     invert_b=True)),
            F.CounterConfig(1, spec.period_cycles, F.EventSpec(F.TRUE_SEL),
                            self_reload=True),
        ),
        sequencer=F.SequencerConfig(
            forward=(5, 3, 6),            # user fetch; budget; kernel/none
            backward=(6, F.FALSE_SEL, 5),  # kernel/none; never; user fetch
            reset=9),
        comparators=(F.AddressRangeComparatorConfig(
            0, 0, USER_KERNEL_SPLIT, match_user=True,
            match_kernel=False),),
        outputs=(F.ExternalOutputConfig(1, 8),),
    )
    F.validate_config(cfg)
    return cfg


def build_config(spec: RegulatorSpec, signals=None) -> F.EtmConfig:
    """Dispatch to the design's builder.  The event tap monitors the PMU
    events of the spec's core model unless `signals` overrides them."""
    if spec.design in (PR, PR_STOP):
        return build_pr_config(spec, signals)
    if spec.design in (TB31, TB22, TB13):
        return build_tb_config(spec, signals)
    if spec.design == PR_USER:
        return build_pr_user_config(spec, signals)
    raise RangeError("no fabric config for design %r" % (spec.design,))


# =========================================================================
# MemGuard baseline
# =========================================================================

@dataclass(frozen=True)
class MemGuardConfig:
    budget_events: int
    period_cycles: int          # any size; not bound to a 16-bit counter

    def __post_init__(self):
        F.check_int("budget_events", self.budget_events)
        _check_positive("budget", self.budget_events, "event")
        _check_positive("period", self.period_cycles, "cycle")


@dataclass(frozen=True)
class MemGuardState:
    remaining: int
    next_boundary: int
    throttled: bool = False


def memguard_reset(cfg: MemGuardConfig) -> MemGuardState:
    return MemGuardState(remaining=cfg.budget_events,
                         next_boundary=cfg.period_cycles)


def memguard_step(cfg: MemGuardConfig, st: MemGuardState, pmc_delta: int,
                  cycle: int):
    """Advance to `cycle`, charging `pmc_delta` events observed since the
    previous call.  Returns (state, throttle).

    Every period boundary raises a replenishment timer interrupt whether or
    not any budget was used; exhaustion raises one overflow interrupt.
    Events seen while throttled (write-buffer drain) are not charged.
    """
    remaining = st.remaining
    boundary = st.next_boundary
    throttled = st.throttled
    while cycle >= boundary:            # timer interrupt: replenish
        remaining = cfg.budget_events
        throttled = False
        boundary += cfg.period_cycles
    if not throttled and pmc_delta:
        remaining -= pmc_delta
        if remaining <= 0:              # overflow interrupt: throttle
            remaining = 0
            throttled = True
    new = MemGuardState(remaining=remaining, next_boundary=boundary,
                        throttled=throttled)
    return new, throttled


# =========================================================================
# MemPol baseline
# =========================================================================

@dataclass(frozen=True)
class MemPolConfig:
    budget_events: int          # per regulation window (window_size polls)
    poll_cycles: int            # cycles between polls
    window_size: int = MEMPOL_WINDOW

    def __post_init__(self):
        F.check_int("budget_events", self.budget_events)
        _check_positive("budget", self.budget_events, "event")
        _check_positive("poll period", self.poll_cycles, "cycle")
        # a window of 0 polls would sum the whole history (`win[-0:]`)
        _check_positive("window_size", self.window_size, "poll")


@dataclass(frozen=True)
class MemPolState:
    last_snapshot: int = 0
    window: tuple = ()
    halted: bool = False
    pending: bool = False       # decision taken at the last poll boundary
    next_poll: int = 0


def mempol_reset(cfg: MemPolConfig) -> MemPolState:
    return MemPolState(next_poll=cfg.poll_cycles)


def mempol_step(cfg: MemPolConfig, st: MemPolState, pmc_snapshot: int,
                cycle: int):
    """Advance to `cycle` given the current free-running PMC value.
    Returns (state, halt).

    Regulation only acts at poll boundaries: the sliding window of per-poll
    deltas decides halt/resume, and the decision takes effect one poll
    period later (the control core's reaction latency).  Between polls the
    core runs unchecked.
    """
    if cycle < st.next_poll:
        return st, st.halted
    win = st.window
    last = st.last_snapshot
    halted = st.halted
    pending = st.pending
    boundary = st.next_poll
    while cycle >= boundary:
        halted = pending                # previous decision becomes effective
        win = (win + (pmc_snapshot - last,))[-cfg.window_size:]
        last = pmc_snapshot
        pending = sum(win) > cfg.budget_events
        boundary += cfg.poll_cycles
    new = MemPolState(last_snapshot=last, window=win, halted=halted,
                      pending=pending, next_poll=boundary)
    return new, halted
