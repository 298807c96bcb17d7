"""Cycle-stepped model of the trace-unit resources used for bandwidth regulation.

Models the small programmable fabric found in an Arm CoreSight trace unit:
up to four external input taps fed by PMU event signals, sixteen resource
selectors (two hardwired to TRUE/FALSE), two 16-bit down-counters that can
self-reload or reload on a trigger event, a four-state sequencer, four
address-range comparator pairs, and four external outputs.

The model is deterministic and evaluates one core clock cycle per step.
Within a cycle:

  1. previous sequencer state and counter values are latched,
  2. counter input events are evaluated against this cycle's signal pulses
     and the *previous* cycle's counter-zero signals (no combinational loop),
  3. counters decrement; a 1->0 crossing raises the counter-zero signal
     (a one-cycle pulse for self-reloading counters, a persistent level for
     trigger-reloading ones); reload triggers then apply, seeing this
     cycle's crossings,
  4. sequencer transitions evaluate with this cycle's counter-zero signals
     and the latched sequencer state; resets beat forward moves which beat
     backward moves; a chain of up to three moves can run in one cycle, but
     each link re-checks its selector against the latched levels,
  5. external output levels are computed from the post-update sequencer.

When the core is idle the state is frozen bit-identically; returned output
levels reflect the frozen sequencer with all pulses low.

`compile_fabric` turns a config into a generated step function over a
plain state tuple; it is the one way to step the fabric.  The test suite
checks it against an independent interpretive reference.  A chained
counter 0 is one 32-bit counter: the state holds its whole value in
`cv0`, and `cv1` stays 0.  Only the register program (`regprog`) splits
it over the two 16-bit value registers.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

SEQ_STATES = 4
NUM_SELECTORS = 16
NUM_COUNTERS = 2
NUM_INPUTS = 4
NUM_COMPARATOR_PAIRS = 4
NUM_OUTPUTS = 4
COUNTER_MAX = 0xFFFF
CHAINED_MAX = 0xFFFFFFFF
# external outputs 1..3 are routed to the throttle interrupt
THROTTLE_MASK = 0b1110

# selector source kinds
CONST_TRUE = "const_true"
CONST_FALSE = "const_false"
EXTERNAL_INPUTS = "external_inputs"
COUNTER_ZERO = "counter_zero"
SEQUENCER_STATE = "sequencer_state"
ADDRESS_RANGE = "address_range"

USER = "user"
KERNEL = "kernel"


def check_int(name, value):
    """Raise a ValueError that names `name` unless `value` is an int (a
    bool is not): counters, cycles and lines are whole numbers."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError("%s must be an int, got %r" % (name, value))


class InvalidConfig(ValueError):
    """Raised by validate_config; `violations` lists every broken budget/rule."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


# =========================================================================
# configuration types
# =========================================================================

@dataclass(frozen=True)
class ExternalInputSelector:
    """One input tap: pulses when any of its monitored PMU signals pulses."""
    monitored: frozenset  # SignalId ints

    def __post_init__(self):
        object.__setattr__(self, "monitored", frozenset(self.monitored))


@dataclass(frozen=True)
class ResourceSelectorConfig:
    """One resource selector slot.

    Value = OR over `members` of the source group, then optional inversion,
    then optional combination with another slot (`paired_with`, op 'and'/'or').
    A slot used as a pair operand must not itself be paired.
    """
    source: str
    members: frozenset = frozenset()
    invert: bool = False
    paired_with: Optional[tuple] = None  # (other slot index, 'and'|'or')

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(self.members))
        if self.paired_with is not None:
            object.__setattr__(self, "paired_with", tuple(self.paired_with))


# The two hardwired slots present in every config.
HARDWIRED = (
    ResourceSelectorConfig(CONST_TRUE),
    ResourceSelectorConfig(CONST_FALSE),
)

TRUE_SEL = 0
FALSE_SEL = 1


@dataclass(frozen=True)
class EventSpec:
    """Event input of a counter: a selector, or two selectors combined.

    Consumers may combine two slots with and/or and invert either operand
    without spending a third slot.
    """
    sel_a: int
    sel_b: Optional[int] = None
    op: str = "and"
    invert_a: bool = False
    invert_b: bool = False

    def selectors(self):
        if self.sel_b is None:
            return (self.sel_a,)
        return (self.sel_a, self.sel_b)


@dataclass(frozen=True)
class CounterConfig:
    """16-bit down-counter.

    Decrements when `input` is true; the 1->0 crossing raises its zero
    signal.  With self_reload the crossing reloads immediately (zero signal
    is a one-cycle pulse); without it the counter rests at zero (zero signal
    is a level) until `reload_event` fires.  `reload_event` may also be set
    alongside self_reload; it forces a reload regardless of current value.
    With chained (counter 0 only) both counters form one 32-bit counter and
    counter 1 must not be configured; the fabric state holds the 32-bit
    value in `cv0`.
    """
    index: int
    reload_value: int
    input: EventSpec
    self_reload: bool = True
    reload_event: Optional[EventSpec] = None
    chained: bool = False


@dataclass(frozen=True)
class SequencerConfig:
    """forward[i] drives i->i+1, backward[i] drives i+1->i, reset jumps to 0."""
    forward: tuple = (FALSE_SEL, FALSE_SEL, FALSE_SEL)
    backward: tuple = (FALSE_SEL, FALSE_SEL, FALSE_SEL)
    reset: int = FALSE_SEL

    def __post_init__(self):
        object.__setattr__(self, "forward", tuple(self.forward))
        object.__setattr__(self, "backward", tuple(self.backward))


@dataclass(frozen=True)
class AddressRangeComparatorConfig:
    """Range pair: pulses on an instruction fetch in [lo, hi) in a matching mode."""
    pair_index: int
    lo: int
    hi: int
    match_user: bool = True
    match_kernel: bool = False


@dataclass(frozen=True)
class ExternalOutputConfig:
    output_index: int
    selector: int


@dataclass(frozen=True)
class EtmConfig:
    """Full fabric configuration.  selectors[0]/[1] are the hardwired pair."""
    inputs: tuple = ()
    selectors: tuple = HARDWIRED
    counters: tuple = ()
    sequencer: SequencerConfig = SequencerConfig()
    comparators: tuple = ()
    outputs: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "selectors", tuple(self.selectors))
        object.__setattr__(self, "counters", tuple(self.counters))
        object.__setattr__(self, "comparators", tuple(self.comparators))
        object.__setattr__(self, "outputs", tuple(self.outputs))

    def counter(self, index):
        for c in self.counters:
            if c.index == index:
                return c
        return None

    def __hash__(self):
        # memoized: each fabric core of every run_system looks its config
        # up in compile_fabric's cache, and sweeps and benchmarks re-run
        # the same config objects; walking the nested tuples costs 2-4 us
        # for a pr, tb13 or pr-user config, a memoized cache hit 0.2 us
        # (2-vCPU Xeon, Python 3.11)
        try:
            return self._hash
        except AttributeError:
            h = hash((self.inputs, self.selectors, self.counters,
                      self.sequencer, self.comparators, self.outputs))
            object.__setattr__(self, "_hash", h)
            return h


@dataclass(frozen=True)
class ResourceReport:
    selectors_used: int
    counters_used: int
    inputs_used: int        # distinct monitored PMU signals
    comparator_pairs_used: int


# =========================================================================
# validation
# =========================================================================

def validate_config(config: EtmConfig) -> ResourceReport:
    """Check every hardware budget and wiring rule; raise InvalidConfig listing
    all violations, or return the resource usage report."""
    v = []
    sels = config.selectors

    if len(sels) < 2 or sels[0].source != CONST_TRUE or sels[1].source != CONST_FALSE:
        v.append("SelectorBudget: slots 0 and 1 must be the hardwired TRUE/FALSE pair")
    if len(sels) > NUM_SELECTORS:
        v.append("SelectorBudget: %d selectors configured, limit %d"
                 % (len(sels), NUM_SELECTORS))

    counter_indices = {c.index for c in config.counters}

    def check_sel_ref(idx, what):
        if not (0 <= idx < len(sels)):
            v.append("%s references selector %d, only %d configured"
                     % (what, idx, len(sels)))
            return False
        return True

    for i, s in enumerate(sels):
        if s.source == EXTERNAL_INPUTS:
            bad = [m for m in s.members if not (0 <= m < len(config.inputs))]
            if bad or not s.members:
                v.append("selector %d: external-input members %s invalid for %d input taps"
                         % (i, sorted(s.members), len(config.inputs)))
        elif s.source == COUNTER_ZERO:
            if not s.members or not s.members <= counter_indices:
                v.append("selector %d: counter members %s not configured"
                         % (i, sorted(s.members)))
        elif s.source == SEQUENCER_STATE:
            if not s.members or not s.members <= set(range(SEQ_STATES)):
                v.append("selector %d: sequencer states %s out of range"
                         % (i, sorted(s.members)))
        elif s.source == ADDRESS_RANGE:
            pairs = {c.pair_index for c in config.comparators}
            if not s.members or not s.members <= pairs:
                v.append("selector %d: comparator pairs %s not configured"
                         % (i, sorted(s.members)))
        if s.paired_with is not None:
            other, op = s.paired_with
            if op not in ("and", "or"):
                v.append("selector %d: pair op %r not and/or" % (i, op))
            if other == i:
                v.append("selector %d: paired with itself" % i)
            elif check_sel_ref(other, "selector %d pair" % i):
                if sels[other].paired_with is not None:
                    v.append("selector %d: pair operand %d is itself paired" % (i, other))

    if len(config.inputs) > NUM_INPUTS:
        v.append("InputBudget: %d input taps, limit %d" % (len(config.inputs), NUM_INPUTS))
    all_signals = set()
    for i, tap in enumerate(config.inputs):
        if len(tap.monitored) > NUM_INPUTS:
            v.append("InputBudget: tap %d monitors %d signals, limit %d"
                     % (i, len(tap.monitored), NUM_INPUTS))
        if not tap.monitored:
            v.append("InputBudget: tap %d monitors nothing" % i)
        all_signals |= tap.monitored
    if len(all_signals) > NUM_INPUTS:
        v.append("InputBudget: %d distinct signals monitored, limit %d"
                 % (len(all_signals), NUM_INPUTS))

    if len(config.counters) > NUM_COUNTERS:
        v.append("CounterBudget: %d counters, limit %d" % (len(config.counters), NUM_COUNTERS))
    if len(counter_indices) != len(config.counters):
        v.append("CounterBudget: duplicate counter index")
    chained = False
    for c in config.counters:
        if c.index not in (0, 1):
            v.append("CounterBudget: counter index %d invalid" % c.index)
        if c.chained:
            if c.index != 0:
                v.append("CounterBudget: chained is only valid on counter 0")
            else:
                chained = True
        limit = CHAINED_MAX if (c.chained and c.index == 0) else COUNTER_MAX
        try:
            check_int("counter %d reload_value" % c.index, c.reload_value)
            if not (1 <= c.reload_value <= limit):
                v.append("counter %d: reload must be >= 1 and <= %d, got %d"
                         % (c.index, limit, c.reload_value))
        except ValueError as e:
            v.append(str(e))
        for ev, what in ((c.input, "input"), (c.reload_event, "reload")):
            if ev is None:
                continue
            for si in ev.selectors():
                check_sel_ref(si, "counter %d %s event" % (c.index, what))
            if ev.op not in ("and", "or"):
                v.append("counter %d %s event: op %r not and/or" % (c.index, what, ev.op))
    if chained and 1 in counter_indices:
        v.append("CounterBudget: chained counter 0 leaves no counter 1 to configure")

    for lst, what in ((config.sequencer.forward, "forward"),
                      (config.sequencer.backward, "backward")):
        if len(lst) != 3:
            v.append("sequencer: %s needs 3 selectors" % what)
        for idx in lst:
            check_sel_ref(idx, "sequencer %s" % what)
    check_sel_ref(config.sequencer.reset, "sequencer reset")

    if len(config.comparators) > NUM_COMPARATOR_PAIRS:
        v.append("ComparatorBudget: %d range pairs, limit %d"
                 % (len(config.comparators), NUM_COMPARATOR_PAIRS))
    seen_pairs = set()
    for c in config.comparators:
        if not (0 <= c.pair_index < NUM_COMPARATOR_PAIRS):
            v.append("ComparatorBudget: pair index %d invalid" % c.pair_index)
        if c.pair_index in seen_pairs:
            v.append("ComparatorBudget: pair index %d configured twice" % c.pair_index)
        seen_pairs.add(c.pair_index)
        if c.lo >= c.hi:
            v.append("comparator pair %d: empty range [%#x, %#x)" % (c.pair_index, c.lo, c.hi))
        if not (c.match_user or c.match_kernel):
            v.append("comparator pair %d: matches neither mode" % c.pair_index)

    if len(config.outputs) > NUM_OUTPUTS:
        v.append("OutputBudget: %d outputs, limit %d" % (len(config.outputs), NUM_OUTPUTS))
    seen_out = set()
    for o in config.outputs:
        if not (0 <= o.output_index < NUM_OUTPUTS):
            v.append("output index %d invalid" % o.output_index)
        if o.output_index in seen_out:
            v.append("output %d configured twice" % o.output_index)
        seen_out.add(o.output_index)
        check_sel_ref(o.selector, "output %d" % o.output_index)

    if v:
        raise InvalidConfig(v)

    n_counters = len(config.counters) + (1 if chained else 0)
    return ResourceReport(
        selectors_used=len(sels),
        counters_used=n_counters,
        inputs_used=len(all_signals),
        comparator_pairs_used=len(config.comparators),
    )


# =========================================================================
# compiled stepper (per-config generated code)
# =========================================================================

def reset_fabric(config: EtmConfig) -> tuple:
    """The state `CompiledFabric.step` takes, at reset: counters at their
    reload values, sequencer at 0, no counter-zero signal."""
    vals = [0, 0]
    for c in config.counters:
        vals[c.index] = c.reload_value
    return (vals[0], vals[1], 0, False, False)


def _signal_mask(signals):
    m = 0
    for s in signals:
        m |= 1 << s
    return m


class _ExprGen:
    """Builds python expressions for slot values in a given evaluation context.

    Contexts differ in which counter-zero variables and sequencer variable
    they read: counter inputs see the previous cycle ('z0p','z1p', latched
    'seq'); triggers and transitions see this cycle ('pz0','pz1' before
    trigger reloads apply, latched 'seq'); outputs see final signals and the
    new state ('nz0','nz1', 'ns'); idle outputs see no pulses and only the
    persisting counter-zero levels.
    """

    def __init__(self, config):
        self.config = config
        self.input_masks = [_signal_mask(t.monitored) for t in config.inputs]

    def base(self, i, zvars, seqvar):
        s = self.config.selectors[i]
        if s.source == CONST_TRUE:
            e = "True"
        elif s.source == CONST_FALSE:
            e = "False"
        elif s.source == EXTERNAL_INPUTS:
            mask = 0
            for t in s.members:
                mask |= self.input_masks[t]
            e = "((p & %d) != 0)" % mask
        elif s.source == COUNTER_ZERO:
            e = "(" + " or ".join(zvars[c] for c in sorted(s.members)) + ")"
        elif s.source == SEQUENCER_STATE:
            mask = sum(1 << st for st in s.members)
            e = "(((%d >> %s) & 1) != 0)" % (mask, seqvar)
        elif s.source == ADDRESS_RANGE:
            mask = sum(1 << pi for pi in s.members)
            e = "((cm & %d) != 0)" % mask
        else:
            raise ValueError(s.source)
        if s.invert:
            e = "(not %s)" % e
        return e

    def slot(self, i, zvars, seqvar):
        e = self.base(i, zvars, seqvar)
        s = self.config.selectors[i]
        if s.paired_with is not None:
            other, op = s.paired_with
            e = "(%s %s %s)" % (e, op, self.base(other, zvars, seqvar))
        return e

    def event(self, ev, zvars, seqvar):
        a = self.slot(ev.sel_a, zvars, seqvar)
        if ev.invert_a:
            a = "(not %s)" % a
        if ev.sel_b is None:
            return a
        b = self.slot(ev.sel_b, zvars, seqvar)
        if ev.invert_b:
            b = "(not %s)" % b
        return "(%s %s %s)" % (a, ev.op, b)


_PREV = {0: "z0p", 1: "z1p"}
_PROV = {0: "pz0", 1: "pz1"}
_NOW = {0: "nz0", 1: "nz1"}


def _generate_step(config: EtmConfig):
    """Emit a specialized step function for this config.

    Signature: step(cv0, cv1, seq, z0p, z1p, p, cm) ->
               (cv0', cv1', seq', nz0, nz1, f0, f1, out_mask)
    where p is the pulsing-signal bitmask, cm the comparator-pair bitmask.
    """
    g = _ExprGen(config)
    L = []
    emit = L.append
    emit("def _step(cv0, cv1, seq, z0p, z1p, p, cm):")

    c0 = config.counter(0)
    c1 = config.counter(1)

    # --- counters: decrement phase (inputs see previous-cycle zero signals)
    for c, nm in ((c0, 0), (c1, 1)):
        if c is None:
            emit("    f%d = False" % nm)
            emit("    pz%d = False" % nm)
            emit("    nv%d = cv%d" % (nm, nm))
            continue
        emit("    in%d = %s" % (nm, g.event(c.input, _PREV, "seq")))
        emit("    f%d = in%d and cv%d == 1" % (nm, nm, nm))
        if c.self_reload:
            emit("    nv%d = %d if f%d else (cv%d - 1 if (in%d and cv%d > 0) else cv%d)"
                 % (nm, c.reload_value, nm, nm, nm, nm, nm))
            emit("    pz%d = f%d" % (nm, nm))
        else:
            emit("    nv%d = cv%d - 1 if (in%d and cv%d > 0) else cv%d"
                 % (nm, nm, nm, nm, nm))
            emit("    pz%d = nv%d == 0" % (nm, nm))

    # --- reload triggers (see this cycle's pre-trigger zero signals)
    for c, nm in ((c0, 0), (c1, 1)):
        if c is None:
            emit("    nz%d = False" % nm)
            continue
        if c.reload_event is not None:
            emit("    if %s:" % g.event(c.reload_event, _PROV, "seq"))
            emit("        nv%d = %d" % (nm, c.reload_value))
        emit("    nz%d = %s" % (nm, ("pz%d" % nm) if c.self_reload else ("(nv%d == 0)" % nm)))

    # --- sequencer (transitions see final zero signals, latched state)
    sq = config.sequencer
    emit("    F0 = %s" % g.slot(sq.forward[0], _NOW, "seq"))
    emit("    F1 = %s" % g.slot(sq.forward[1], _NOW, "seq"))
    emit("    F2 = %s" % g.slot(sq.forward[2], _NOW, "seq"))
    emit("    B0 = %s" % g.slot(sq.backward[0], _NOW, "seq"))
    emit("    B1 = %s" % g.slot(sq.backward[1], _NOW, "seq"))
    emit("    B2 = %s" % g.slot(sq.backward[2], _NOW, "seq"))
    emit("    if %s:" % g.slot(sq.reset, _NOW, "seq"))
    emit("        ns = 0")
    emit("    else:")
    emit("        ns = seq")
    emit("        moved = False")
    emit("        if ns == 0 and F0: ns = 1; moved = True")
    emit("        if ns == 1 and F1: ns = 2; moved = True")
    emit("        if ns == 2 and F2: ns = 3; moved = True")
    emit("        if not moved:")
    emit("            if ns == 3 and B2: ns = 2")
    emit("            if ns == 2 and B1: ns = 1")
    emit("            if ns == 1 and B0: ns = 0")

    # --- outputs (levels of the post-update cycle)
    out_terms = []
    for o in config.outputs:
        out_terms.append("(%d if %s else 0)" % (1 << o.output_index,
                                                g.slot(o.selector, _NOW, "ns")))
    emit("    out = %s" % (" | ".join(out_terms) if out_terms else "0"))
    emit("    return (nv0, nv1, ns, nz0, nz1, bool(f0), bool(f1), out)")

    ns = {}
    exec(compile("\n".join(L), "<fabric-step>", "exec"), ns)
    return ns["_step"]


def _generate_idle_out(config: EtmConfig):
    """Output mask during idle cycles: no signal or comparator pulses, and
    of the counter-zero signals only the levels of trigger-reloaded
    counters persist."""
    g = _ExprGen(config)
    zvars = {}
    for c in (0, 1):
        cfg = config.counter(c)
        zvars[c] = _PREV[c] if cfg is not None and not cfg.self_reload \
            else "False"
    L = ["def _idle_out(seq, z0p, z1p):", "    p = cm = 0"]
    out_terms = []
    for o in config.outputs:
        out_terms.append("(%d if %s else 0)" % (1 << o.output_index,
                                                g.slot(o.selector, zvars,
                                                       "seq")))
    L.append("    return %s" % (" | ".join(out_terms) if out_terms else "0"))
    ns = {}
    exec(compile("\n".join(L), "<fabric-idle>", "exec"), ns)
    return ns["_idle_out"]


class CompiledFabric:
    """Config compiled to its step function, its idle-output function and
    its comparator mask; the state is a plain (cv0, cv1, seq, z0, z1)
    tuple, in which a chained counter 0 holds its 32-bit value in cv0
    and cv1 stays 0.

    step(cv0, cv1, seq, z0, z1, p, cm) takes the pulsing-signal mask `p`
    and the comparator-pair mask `cm` and returns the next state followed
    by (fired0, fired1, out_mask).  idle_out(seq, z0, z1) is the output
    mask of an idle cycle, which leaves the state as it is."""

    __slots__ = ("config", "step", "idle_out", "_cmp_table")

    def __init__(self, config: EtmConfig):
        validate_config(config)
        self.config = config
        self.step = _generate_step(config)
        self.idle_out = _generate_idle_out(config)
        self._cmp_table = tuple(
            (c.pair_index, c.lo, c.hi, c.match_user, c.match_kernel)
            for c in config.comparators)

    def reset_tuple(self):
        return reset_fabric(self.config)

    def cmp_mask(self, fetch_addr, exec_mode_user: bool) -> int:
        if fetch_addr is None or not self._cmp_table:
            return 0
        m = 0
        for pi, lo, hi, mu, mk in self._cmp_table:
            if lo <= fetch_addr < hi and (mu if exec_mode_user else mk):
                m |= 1 << pi
        return m


@lru_cache(maxsize=256)
def compile_fabric(config: EtmConfig) -> CompiledFabric:
    return CompiledFabric(config)
