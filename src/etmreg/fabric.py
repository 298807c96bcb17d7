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

`compile_fabric` turns a config into generated functions over a plain
state tuple: `step`, the one way to step the fabric; `probe` and the
pulse-free `quiet_probe`, one step that answers only how far each
counter drops, and which counter-zero latches it leaves, in a cycle that
changes nothing else (`_generate_kernel` states what a probe refuses),
which the machine's hops ask; and `idle_out`.  The code is
generated per config shape: the config's constants (reload values, tap and
comparator masks) are names bound per config, so the configs of one
shape share one compile.  The generator folds constants as it builds the
source, and resolves the sequencer's selectors for each latched state.
The test suite checks the functions against an independent interpretive
reference.  A chained
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
        # up in compile_fabric's cache.  A config built once and run many
        # times (several cores sharing it, a SystemConfig run again) pays
        # the walk over the nested tuples, 2-4 us for a pr, tb13 or
        # pr-user config, once and a memoized hit 0.2 us after (2-vCPU
        # Xeon, Python 3.11).  A probe's config is fresh, built by
        # `with_reload_values`, so it hashes once; on a cache hit the
        # equality test then mostly short-cuts on the parts it shares
        # with its template
        try:
            return self._hash
        except AttributeError:
            h = hash((self.inputs, self.selectors, self.counters,
                      self.sequencer, self.comparators, self.outputs))
            object.__setattr__(self, "_hash", h)
            return h


def with_reload_values(config: EtmConfig, values) -> EtmConfig:
    """`config` with its i-th counter reloading to `values[i]`; every
    other part is `config`'s own object.  A reload value moves no wiring,
    so if `config` passed `check_config` and each value is an int in
    1..COUNTER_MAX, the copy keeps its report and is not checked again."""
    if len(values) != len(config.counters):
        raise ValueError("%d reload values for %d counters"
                         % (len(values), len(config.counters)))
    counters = tuple(
        CounterConfig(c.index, v, c.input, c.self_reload, c.reload_event,
                      c.chained)
        for c, v in zip(config.counters, values))
    out = EtmConfig(config.inputs, config.selectors, counters,
                    config.sequencer, config.comparators, config.outputs)
    report = config.__dict__.get("_report")
    if report is not None and all(type(v) is int and 1 <= v <= COUNTER_MAX
                                  for v in values):
        object.__setattr__(out, "_report", report)
    return out


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
        if c.index not in range(NUM_COUNTERS):
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


def check_config(config: EtmConfig) -> ResourceReport:
    """`validate_config(config)`, run once per config: the report is kept
    on the config, and `with_reload_values` hands it on to its copies."""
    report = config.__dict__.get("_report")
    if report is None:
        report = validate_config(config)
        object.__setattr__(config, "_report", report)
    return report


# =========================================================================
# compiled stepper (per-shape generated code, constants bound per config)
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


# Expressions are python source strings; "True" and "False" are the
# constants that the helpers below fold.

def _not(e):
    if e == "True":
        return "False"
    if e == "False":
        return "True"
    return "(not %s)" % e


def _join(a, op, b):
    """`a op b` for op 'and' or 'or'."""
    zero, unit = ("False", "True") if op == "and" else ("True", "False")
    if a == zero or b == zero:
        return zero
    if a == unit or a == b:
        return b
    if b == unit:
        return a
    return "(%s %s %s)" % (a, op, b)


def _pick(c, a, b):
    """The conditional expression `a if c else b`."""
    if c == "True" or a == b:
        return a
    if c == "False":
        return b
    return "(%s if %s else %s)" % (a, c, b)


def _differs(a, b):
    """`a != b` for two booleans."""
    if a == "False":
        return b
    if a == "True":
        return _not(b)
    return "(%s != %s)" % (a, b)


def _shape_of(config):
    """What the generated code of `config` depends on: the config without
    its constants (reload values, tap signals, comparator ranges)."""
    return (config.selectors,
            tuple((c.index, c.input, c.self_reload, c.reload_event)
                  for c in config.counters),
            config.sequencer, config.outputs)


def _constants(config, names):
    """The values in `config` of the constants `names`: counter n's reload
    value `Rn`, and selector i's tap mask `Pi` or comparator-pair mask
    `Ci`."""
    values = []
    for name in names:
        i = int(name[1:])
        if name[0] == "R":
            values.append(config.counter(i).reload_value)
            continue
        members = config.selectors[i].members
        if name[0] == "P":
            values.append(_signal_mask({s for t in members
                                        for s in config.inputs[t].monitored}))
        else:
            values.append(_signal_mask(members))
    return values


class _Kernel:
    """Builds the source of one fabric shape, folding as it goes.

    Each slot value is an expression in an evaluation context
    (z, seq, p, cm): the counter-zero expressions that it reads, the
    sequencer state (a variable, or a state the code has resolved), and
    the pulse and comparator masks, None where they are 0.  Counter
    inputs see the previous cycle's signals ('z0p', 'z1p') and the latched
    'seq'; reload triggers see this cycle's signals before the triggers
    apply; transitions see the final signals and the latched state,
    resolved to each of its values; outputs see the final signals and the
    new state.  Idle outputs see no pulses and only the persisting
    counter-zero levels.

    Config constants appear as names (`names`), which `_constants` binds
    to a config's values.
    """

    def __init__(self, shape):
        self.selectors, counters, self.sequencer, self.outputs = shape
        # counter index -> (input, self_reload, reload_event)
        self.counters = {c[0]: c[1:] for c in counters}
        self.names = set()
        self.lines = []

    def let(self, name, e):
        """Bind `e` to `name`, unless it is a constant or a name itself,
        which the code then reads in place of `name`."""
        if e.isidentifier():
            return e
        self.lines.append("%s = %s" % (name, e))
        return name

    # --- selectors ---------------------------------------------------

    def base(self, i, ctx):
        z, seq, p, cm = ctx
        s = self.selectors[i]
        src = s.source
        if src == CONST_TRUE:
            e = "True"
        elif src == CONST_FALSE:
            e = "False"
        elif src == COUNTER_ZERO:
            e = "False"
            for c in sorted(s.members):
                e = _join(e, "or", z[c])
        elif src == SEQUENCER_STATE:
            if isinstance(seq, int):
                e = "True" if seq in s.members else "False"
            elif len(s.members) == SEQ_STATES:
                e = "True"
            elif len(s.members) == 1:
                e = "(%s == %d)" % (seq, min(s.members))
            else:
                e = "(%s in %r)" % (seq, tuple(sorted(s.members)))
        elif src == EXTERNAL_INPUTS or src == ADDRESS_RANGE:
            var = p if src == EXTERNAL_INPUTS else cm
            name = ("P%d" if src == EXTERNAL_INPUTS else "C%d") % i
            self.names.add(name)
            e = "((%s & %s) != 0)" % (var, name) if var else "False"
        else:
            raise ValueError(src)
        return _not(e) if s.invert else e

    def slot(self, i, ctx):
        e = self.base(i, ctx)
        pair = self.selectors[i].paired_with
        if pair is not None:
            e = _join(e, pair[1], self.base(pair[0], ctx))
        return e

    def event(self, ev, ctx):
        a = self.slot(ev.sel_a, ctx)
        if ev.invert_a:
            a = _not(a)
        if ev.sel_b is None:
            return a
        b = self.slot(ev.sel_b, ctx)
        if ev.invert_b:
            b = _not(b)
        return _join(a, ev.op, b)

    def outputs_of(self, z, seq, p, cm):
        """The output mask: a table by state where only the state decides
        it, else an or of the outputs' levels."""
        def levels(state):
            m, terms = 0, []
            for o in self.outputs:
                e = self.slot(o.selector, (z, state, p, cm))
                if e == "True":
                    m |= 1 << o.output_index
                elif e != "False":
                    terms.append("(%d if %s else 0)" % (1 << o.output_index,
                                                        e))
            return m, terms

        by_state = [levels(k) for k in range(SEQ_STATES)]
        if not any(terms for _, terms in by_state):
            table = tuple(m for m, _ in by_state)
            if min(table) == max(table):
                return str(table[0])
            return "%r[%s]" % (table, seq)
        m, terms = levels(seq)
        return " | ".join(terms + [str(m)] if m else terms)

    # --- one cycle ---------------------------------------------------

    def counters_of(self, p, probe):
        """Emit the counters' decrement phase and reload triggers.  In a
        probe, a fire or a reload trigger returns None.  Returns each
        counter's next value, fire, zero signal and drop."""
        prev = ("z0p", "z1p")
        nv, f, pz, dec = ["cv0", "cv1"], ["False"] * 2, ["False"] * 2, \
            ["False"] * 2
        for n, (inp, self_reload, _) in sorted(self.counters.items()):
            cv = "cv%d" % n
            self.names.add("R%d" % n)
            inp = self.let("in%d" % n, self.event(inp, (prev, "seq", p, "cm")))
            fire = _join(inp, "and", "(%s == 1)" % cv)
            dec[n] = _join(inp, "and", "(%s > 0)" % cv)
            if probe:
                if fire != "False":
                    self.lines.append("if %s: return None" % fire)
            else:
                f[n] = self.let("f%d" % n, fire)
            down = _pick(dec[n], "%s - 1" % cv, cv)
            if self_reload:
                nv[n] = _pick(f[n], "R%d" % n, down)
                pz[n] = f[n]
            else:
                nv[n] = self.let("nv%d" % n, down)
                pz[n] = self.let("pz%d" % n, "(%s == 0)" % nv[n])
        nz = list(pz)
        for n, (_, self_reload, trigger) in sorted(self.counters.items()):
            e = "False"
            if trigger is not None:
                e = self.event(trigger, (tuple(pz), "seq", p, "cm"))
            if probe:
                if e != "False":
                    self.lines.append("if %s: return None" % e)
            elif e != "False":
                nv[n] = self.let("nv%d" % n, _pick(e, "R%d" % n, nv[n]))
                if not self_reload:
                    nz[n] = self.let("nz%d" % n, "(%s == 0)" % nv[n])
            else:
                nv[n] = self.let("nv%d" % n, nv[n])
        return nv, f, tuple(nz), [_pick(e, "1", "0") for e in dec]

    def transitions(self, nz, p, k):
        """The sequencer's selectors at latched state k: reset, forward
        and backward."""
        ctx = (nz, k, p, "cm")
        sq = self.sequencer
        return (self.slot(sq.reset, ctx),
                [self.slot(i, ctx) for i in sq.forward],
                [self.slot(i, ctx) for i in sq.backward])

    def next_state(self, nz, p, k):
        """The state that latched state k moves to: resets beat forward
        moves, which beat backward moves, and each link of a chain
        re-checks its selector against the latched levels."""
        reset, fwd, bwd = self.transitions(nz, p, k)

        def pick(c, known, then, other):
            # `known` holds the selector values that the branches taken
            # so far decided
            c = known.get(c, c)
            if c == "True":
                return then(known)
            if c == "False":
                return other(known)
            return _pick(c, then({**known, c: "True"}),
                         other({**known, c: "False"}))

        def up(j, known):
            if j == SEQ_STATES - 1:
                return str(j)
            return pick(fwd[j], known, lambda kn: up(j + 1, kn),
                        lambda kn: str(j))

        def down(j, known):
            if j == 0:
                return "0"
            return pick(bwd[j - 1], known, lambda kn: down(j - 1, kn),
                        lambda kn: str(j))

        def rest(known):
            if k == SEQ_STATES - 1:
                return down(k, known)
            return pick(fwd[k], known, lambda kn: up(k + 1, kn),
                        lambda kn: down(k, kn))

        return pick(reset, {}, lambda kn: "0", rest)

    def moves(self, nz, p, k):
        """Whether latched state k moves."""
        reset, fwd, bwd = self.transitions(nz, p, k)
        if k == 0:
            return _join(_not(reset), "and", fwd[0])
        m = reset if k == SEQ_STATES - 1 else _join(reset, "or", fwd[k])
        return _join(m, "or", bwd[k - 1])

    def step(self):
        self.lines = []
        nv, f, nz, _ = self.counters_of("p", False)
        cases = [(k, self.next_state(nz, "p", k)) for k in range(SEQ_STATES)]
        cases = [(k, e) for k, e in cases if e != str(k)]
        ns = "seq"
        if cases:
            ns = "ns"
            every = len(cases) == SEQ_STATES
            for j, (k, e) in enumerate(cases):
                if every and j == SEQ_STATES - 1:
                    self.lines.append("else: ns = %s" % e)
                else:
                    self.lines.append("%s seq == %d: ns = %s"
                                      % ("elif" if j else "if", k, e))
            if not every:
                self.lines.append("else: ns = seq")
        self.lines.append("return (%s, %s, %s, %s, %s, %s, %s, %s)" % (
            nv[0], nv[1], ns, nz[0], nz[1], f[0], f[1],
            self.outputs_of(nz, ns, "p", "cm")))
        return self.lines

    def reads_latch(self):
        """Whether a counter input or the idle output reads the latched
        counter-zero signals.  Where neither does, a cycle that changes
        them behaves as the cycles after it, which a probe may then
        accept."""
        prev = ("z0p", "z1p")
        exprs = [self.event(c[0], (prev, "seq", "p", "cm"))
                 for c in self.counters.values()] + self.idle_out()
        return any(z in e for e in exprs for z in prev)

    def probe(self, p, latched):
        self.lines = []
        _, _, nz, d = self.counters_of(p, True)
        moved = "False"
        for k in range(SEQ_STATES):
            moved = _join(moved, "or", _join("(seq == %d)" % k, "and",
                                             self.moves(nz, p, k)))
        tests = [moved]
        if latched:
            tests += [_differs(nz[0], "z0p"), _differs(nz[1], "z1p")]
        tests.append("%s != out" % self.outputs_of(nz, "seq", p, "cm"))
        for e in tests:
            if e != "False":
                self.lines.append("if %s: return None" % e)
        self.lines.append("return (cv0, cv1, %s, %s, %s, %s)"
                          % (tuple(d) + nz))
        return self.lines

    def idle_out(self):
        z = tuple("False" if self.counters.get(n, (0, True))[1]
                  else "z%dp" % n for n in (0, 1))
        return ["return %s" % self.outputs_of(z, "seq", None, None)]


@lru_cache(maxsize=256)
def _generate_kernel(shape):
    """The source of a config shape (`_shape_of`) and the names of its
    constants.

    The source defines `_fabric(*constants)`, which returns the shape's
    functions with the constants bound:

      step(cv0, cv1, seq, z0p, z1p, p, cm) ->
          (cv0', cv1', seq', nz0, nz1, f0, f1, out_mask)
      probe(cv0, cv1, seq, z0p, z1p, p, cm, out) -> None or
          (cv0, cv1, d0, d1, z0, z1)
      quiet_probe(cv0, cv1, seq, z0p, z1p, cm, out): probe with p = 0
      idle_out(seq, z0p, z1p) -> out_mask

    where p is the pulsing-signal bitmask and cm the comparator-pair
    bitmask.  A probe steps the state once and returns how far each
    counter drops, 0 or 1, and the counter-zero latches the step leaves.
    It returns None if, in that cycle, a counter fires, a reload trigger
    fires, the sequencer moves or the output mask (`out` before the
    cycle) changes.  It refuses a latch change only where a counter input
    or the idle output reads the latches (`_Kernel.reads_latch`):
    elsewhere, as in every paper design, the steps after one that clears
    a latch behave as it does.  So the cycles of a hop that repeat a
    probed kind of cycle, quiet or pulsing, each drop the counters as the
    probe found and reload none.
    """
    g = _Kernel(shape)
    latched = g.reads_latch()
    bodies = (("step(cv0, cv1, seq, z0p, z1p, p, cm)", g.step()),
              ("probe(cv0, cv1, seq, z0p, z1p, p, cm, out)",
               g.probe("p", latched)),
              ("quiet_probe(cv0, cv1, seq, z0p, z1p, cm, out)",
               g.probe(None, latched)),
              ("idle_out(seq, z0p, z1p)", g.idle_out()))
    names = tuple(sorted(g.names))
    lines = ["def _fabric(%s):" % ", ".join(names)]
    for head, body in bodies:
        lines.append("    def %s:" % head)
        lines.extend("        " + ln for ln in body)
    lines.append("    return step, probe, quiet_probe, idle_out")
    return "\n".join(lines), names


@lru_cache(maxsize=256)
def _compile_kernel(source):
    """The `_fabric` function of `source`: each shape compiles once."""
    ns = {}
    exec(compile(source, "<fabric>", "exec"), ns)
    return ns["_fabric"]


class CompiledFabric:
    """Config compiled to its step, probe and idle-output functions and
    its comparator mask; the state is a plain (cv0, cv1, seq, z0, z1)
    tuple, in which a chained counter 0 holds its 32-bit value in cv0
    and cv1 stays 0.  The functions are its shape's code, compiled once
    per shape, with this config's constants bound.

    step(cv0, cv1, seq, z0, z1, p, cm) takes the pulsing-signal mask `p`
    and the comparator-pair mask `cm` and returns the next state followed
    by (fired0, fired1, out_mask).  probe(cv0, cv1, seq, z0, z1, p, cm,
    out) is one step from a cycle whose output mask was `out`: it returns
    (cv0, cv1, d0, d1, z0', z1'), how far each counter drops and the
    counter-zero latches the step leaves, or None in a cycle that
    `_generate_kernel` says a probe refuses.
    quiet_probe(cv0, cv1, seq, z0, z1, cm, out) is probe with p = 0.
    idle_out(seq, z0, z1) is the output mask of an idle cycle, which
    leaves the state as it is."""

    __slots__ = ("config", "step", "probe", "quiet_probe", "idle_out",
                 "_cmp_table")

    def __init__(self, config: EtmConfig):
        check_config(config)
        self.config = config
        source, names = _generate_kernel(_shape_of(config))
        self.step, self.probe, self.quiet_probe, self.idle_out = \
            _compile_kernel(source)(*_constants(config, names))
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
