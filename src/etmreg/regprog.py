"""Compile regulator specs into ordered CoreSight register-write programs.

The simulator configures the trace-unit fabric through an in-memory
config object; real hardware is configured by a fixed sequence of
register writes.  This module emits that sequence symbolically — register
names and named fields, not byte offsets — ordered into the six phases a
safe reprogramming needs:

    Unlock > DisableAll > ProgramCTI > ProgramETM
           > EnablePMUExport > EnableETM

and lifts such programs back into fabric configs so the two forms can be
checked against each other by simulation.

The exact per-register bit encodings belong to the Arm reference manuals;
the catalog here keeps the register *names* and the resource kinds they
program, which is the level the simulator can verify.  Field widths are
still enforced so emitted values would fit their hardware homes.
"""

import re
from dataclasses import dataclass
from functools import lru_cache

from . import fabric as F
from . import regulators as R
from .regulators import RangeError, max_period

__all__ = [
    "RegisterWrite", "RegisterProgram", "MalformedProgram",
    "ResourceBudgetExceeded", "RangeError", "PHASES", "UNLOCK_KEY",
    "compile", "program_for_config", "lift", "max_period",
    "emit_text", "parse_text",
]

PHASES = ("Unlock", "DisableAll", "ProgramCTI", "ProgramETM",
          "EnablePMUExport", "EnableETM")

UNLOCK_KEY = 0xC5ACCE55

DEVICES = ("DBG", "PMU", "ETM", "CTI")


class MalformedProgram(ValueError):
    pass


class ResourceBudgetExceeded(ValueError):
    pass


# =========================================================================
# program types
# =========================================================================

@dataclass(frozen=True, slots=True)
class RegisterWrite:
    """One symbolic register write: device, register, named fields."""
    device: str
    register: str
    fields: tuple            # ((name, value), ...) — names may repeat
    comment: str = ""
    phase: str = ""

    def __post_init__(self):
        object.__setattr__(self, "fields",
                           tuple((n, v) for n, v in self.fields))

    def get(self, name, default=None):
        for n, v in self.fields:
            if n == name:
                return v
        return default

    def getall(self, name):
        return [v for n, v in self.fields if n == name]


@dataclass(frozen=True)
class RegisterProgram:
    writes: tuple
    warnings: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "writes", tuple(self.writes))
        object.__setattr__(self, "warnings", tuple(self.warnings))

    def phase(self, name):
        return [w for w in self.writes if w.phase == name]


# =========================================================================
# register catalog
# =========================================================================

# field -> bit width (ints) or allowed tokens (strings)
_SEL_W = 4          # selector slot index
_TOKENS_OP = ("and", "or")
_TOKENS_GROUP = ("TRUE", "FALSE", "EXTIN", "CNTR", "SEQ", "ARC")

# register base name -> (device, max index or None, {field: width|tokens})
_CATALOG = {
    "LAR": (None, None, {"key": 32}),
    "TRCPRGCTLR": ("ETM", None, {"en": 1}),
    "TRCEXTINSELR": ("ETM", None, {"tap0": 16, "tap1": 16,
                                   "tap2": 16, "tap3": 16}),
    "TRCRSCTLR": ("ETM", F.NUM_SELECTORS - 1,
                  {"group": _TOKENS_GROUP, "select": 16, "invert": 1,
                   "pair": _SEL_W, "pairop": _TOKENS_OP}),
    "TRCCNTRLDVR": ("ETM", F.NUM_COUNTERS - 1, {"value": 16}),
    "TRCCNTVR": ("ETM", F.NUM_COUNTERS - 1, {"value": 16}),
    "TRCCNTCTLR": ("ETM", F.NUM_COUNTERS - 1,
                   {"in_a": _SEL_W, "in_b": _SEL_W, "in_op": _TOKENS_OP,
                    "in_inv_a": 1, "in_inv_b": 1, "self_reload": 1,
                    "rld_a": _SEL_W, "rld_b": _SEL_W, "rld_op": _TOKENS_OP,
                    "rld_inv_a": 1, "rld_inv_b": 1, "chain": 1}),
    "TRCSEQEVR": ("ETM", F.SEQ_STATES - 2, {"f": _SEL_W, "b": _SEL_W}),
    "TRCSEQRSTEVR": ("ETM", None, {"sel": _SEL_W}),
    "TRCSEQSTR": ("ETM", None, {"state": 2}),
    "TRCACVR": ("ETM", 2 * F.NUM_COMPARATOR_PAIRS - 1, {"addr": 64}),
    "TRCACATR": ("ETM", 2 * F.NUM_COMPARATOR_PAIRS - 1,
                 {"match_user": 1, "match_kernel": 1}),
    "TRCEVENTCTL0R": ("ETM", None, {"out0": _SEL_W, "out1": _SEL_W,
                                    "out2": _SEL_W, "out3": _SEL_W}),
    "PMCR": ("PMU", None, {"x": 1, "e": 1}),
    "CTIINEN": ("CTI", F.NUM_OUTPUTS - 1, {"chan": 2, "en": 1}),
    "CTIGATE": ("CTI", None, {"en": 1}),
    "CTIINTACK": ("CTI", None, {"ack": 32}),
}

_REG_RE = re.compile(r"^([A-Z0-9]*?[A-Z])(\d*)$")

# which registers each phase may write
_PHASE_REGISTERS = {
    "Unlock": {"LAR"},
    "DisableAll": {"TRCPRGCTLR", "CTIGATE"},
    "ProgramCTI": {"CTIINEN", "CTIGATE"},
    "ProgramETM": {"TRCEXTINSELR", "TRCRSCTLR", "TRCCNTRLDVR", "TRCCNTVR",
                   "TRCCNTCTLR", "TRCSEQEVR", "TRCSEQRSTEVR", "TRCSEQSTR",
                   "TRCACVR", "TRCACATR", "TRCEVENTCTL0R"},
    "EnablePMUExport": {"PMCR"},
    "EnableETM": {"TRCPRGCTLR"},
}

_GROUP_OF_SOURCE = {
    F.CONST_TRUE: "TRUE",
    F.CONST_FALSE: "FALSE",
    F.EXTERNAL_INPUTS: "EXTIN",
    F.COUNTER_ZERO: "CNTR",
    F.SEQUENCER_STATE: "SEQ",
    F.ADDRESS_RANGE: "ARC",
}
_SOURCE_OF_GROUP = {g: s for s, g in _GROUP_OF_SOURCE.items()}


def _split_register(name):
    """'TRCRSCTLR4' -> ('TRCRSCTLR', 4); a name that ends in a letter is
    a whole base: 'TRCEVENTCTL0R' -> ('TRCEVENTCTL0R', None)."""
    m = _REG_RE.match(name)
    if not m:
        raise MalformedProgram("unknown register %r" % (name,))
    base, idx = m.group(1), m.group(2)
    return base, (int(idx) if idx else None)


@lru_cache(maxsize=256)
def _register(name):
    """(base, index, device, field spec, whether the index names an
    instance of the base) of register `name`, from the catalog;
    MalformedProgram if the catalog has no such register.  Memoized: a
    program names each register of the catalog again and again."""
    base, idx = _split_register(name)
    entry = _CATALOG.get(base)
    if entry is None:
        raise MalformedProgram("unknown register %r" % (name,))
    device, max_idx, fieldspec = entry
    exists = (idx is None) == (max_idx is None) and \
        (idx is None or 0 <= idx <= max_idx)
    return base, idx, device, fieldspec, exists


def check_write(w: RegisterWrite):
    """Validate one write against the catalog: register exists, device
    matches, index in range, fields known and within width."""
    base, idx, device, fieldspec, exists = _register(w.register)
    if device is not None and w.device != device:
        raise MalformedProgram("%s is a %s register, written via %s"
                               % (w.register, device, w.device))
    if w.device not in DEVICES:
        raise MalformedProgram("unknown device %r" % (w.device,))
    if not exists:
        raise MalformedProgram("no register instance %r" % (w.register,))
    for name, value in w.fields:
        spec = fieldspec.get(name)
        if spec is None:
            raise MalformedProgram("%s has no field %r" % (w.register, name))
        if isinstance(spec, int):
            if not isinstance(value, int) or not 0 <= value < (1 << spec):
                raise MalformedProgram("%s.%s=%r does not fit %d bits"
                                       % (w.register, name, value, spec))
        elif value not in spec:
            raise MalformedProgram("%s.%s=%r not one of %s"
                                   % (w.register, name, value, spec))
    return base, idx


# =========================================================================
# compile: EtmConfig -> program
# =========================================================================

@lru_cache(maxsize=256)
def _unmask(mask):
    return frozenset(i for i in range(16) if mask & (1 << i))


def _selector_fields(sel: F.ResourceSelectorConfig):
    fields = [("group", _GROUP_OF_SOURCE[sel.source]),
              ("select", F._signal_mask(sel.members))]
    if sel.invert:
        fields.append(("invert", 1))
    if sel.paired_with is not None:
        other, op = sel.paired_with
        fields.append(("pair", other))
        fields.append(("pairop", op))
    return fields


def _event_fields(prefix, ev: F.EventSpec):
    fields = [(prefix + "_a", ev.sel_a)]
    if ev.invert_a:
        fields.append((prefix + "_inv_a", 1))
    if ev.sel_b is not None:
        fields.append((prefix + "_b", ev.sel_b))
        fields.append((prefix + "_op", ev.op))
        if ev.invert_b:
            fields.append((prefix + "_inv_b", 1))
    return fields


# what a counter that the config leaves out is programmed with:
# (input, self_reload, reload_event, chained)
_DISABLED_COUNTER = (F.EventSpec(F.FALSE_SEL), True, None, False)


def _routed(outputs):
    """Sorted indices of the (index, selector) outputs that raise the
    throttle interrupt: those in F.THROTTLE_MASK, unless wired to FALSE,
    which can never assert."""
    return sorted(k for k, sel in outputs
                  if F.THROTTLE_MASK >> k & 1 and sel != F.FALSE_SEL)


def program_for_config(config: F.EtmConfig, warnings=()) -> RegisterProgram:
    """Emit the full programming sequence realizing `config`.

    Every resource slot is written: unused selectors get the FALSE group,
    unused counters a FALSE input, unused comparators an empty range, and
    unused outputs the FALSE selector, so stale hardware state cannot
    leak through.  Only the counters' value registers hold their reload
    values; every other write is built once per wiring
    (`_wiring_writes`), and every write is checked.
    """
    try:
        F.check_config(config)
    except F.InvalidConfig as e:
        raise ResourceBudgetExceeded(str(e)) from None

    head, counters, tail = _wiring_writes(
        config.inputs, config.selectors,
        tuple((c.index, c.input, c.self_reload, c.reload_event, c.chained)
              for c in config.counters),
        config.sequencer, config.comparators, config.outputs)
    # a chained counter 0's 32-bit value (cv0 in the fabric state) keeps
    # its high half in counter 1's value registers; `lift` joins them
    values = F.reset_fabric(config)[:2]
    if any(c.chained for c in config.counters):
        values = (values[0] & F.COUNTER_MAX, values[0] >> 16)
    w = list(head)
    for n, (reload_note, start_note, control) in enumerate(counters):
        value = (("value", values[n]),)
        w.append(RegisterWrite("ETM", "TRCCNTRLDVR%d" % n, value,
                               reload_note, "ProgramETM"))
        w.append(RegisterWrite("ETM", "TRCCNTVR%d" % n, value, start_note,
                               "ProgramETM"))
        w.append(control)
    w.extend(tail)

    prog = RegisterProgram(tuple(w), tuple(warnings))
    for wr in prog.writes:
        check_write(wr)
    return prog


@lru_cache(maxsize=64)
def _wiring_writes(inputs, selectors, counters, sequencer, comparators,
                   outputs):
    """The writes of a config's program that its wiring fixes: those
    before the counters' registers, for each counter the comments of its
    two value writes and its control write, and those after.  `counters`
    holds each configured counter's (index, input, self_reload,
    reload_event, chained).  Memoized: a wiring is a design's template,
    and every budget and period of the design shares it."""
    head = []
    tail = []
    w = head

    def emit(device, register, fields, comment=""):
        w.append(RegisterWrite(device, register, tuple(fields), comment,
                               phase))

    phase = "Unlock"
    for dev in DEVICES:
        emit(dev, "LAR", [("key", UNLOCK_KEY)], "unlock %s lane" % dev)

    phase = "DisableAll"
    emit("ETM", "TRCPRGCTLR", [("en", 0)],
         "stop the trace unit while reprogramming")
    emit("CTI", "CTIGATE", [("en", 0)], "disconnect cross-trigger channels")

    phase = "ProgramCTI"
    for k in _routed((o.output_index, o.selector) for o in outputs):
        emit("CTI", "CTIINEN%d" % k, [("chan", 0), ("en", 1)],
             "trace-unit output %d raises the throttle interrupt" % k)
    emit("CTI", "CTIGATE", [("en", 1)], "reconnect the gated channels")

    phase = "ProgramETM"
    tap_fields = []
    all_sigs = []
    for t, tap in enumerate(inputs):
        for sig in sorted(tap.monitored):
            tap_fields.append(("tap%d" % t, sig))
            all_sigs.append(sig)
    emit("ETM", "TRCEXTINSELR", tap_fields,
         "monitor PMU events %s" % ", ".join(map(str, all_sigs)))

    for n in range(2, F.NUM_SELECTORS):
        if n < len(selectors):
            emit("ETM", "TRCRSCTLR%d" % n, _selector_fields(selectors[n]),
                 "resource selector %d" % n)
        else:
            emit("ETM", "TRCRSCTLR%d" % n, [("group", "FALSE"),
                                            ("select", 0)], "unused")

    chained = any(c[4] for c in counters)
    by_index = {c[0]: c[1:] for c in counters}
    parts = []
    for n in range(F.NUM_COUNTERS):
        used = n in by_index
        inp, self_reload, reload_event, chain = by_index.get(
            n, _DISABLED_COUNTER)
        high = "high half of chained counter 0" if n == 1 and chained else ""
        fields = _event_fields("in", inp)
        fields.append(("self_reload", int(self_reload)))
        if reload_event is not None:
            fields.extend(_event_fields("rld", reload_event))
        if chain:
            fields.append(("chain", 1))
        control = RegisterWrite("ETM", "TRCCNTCTLR%d" % n, tuple(fields),
                                "count/reload events" if used else "unused",
                                phase)
        parts.append((high or ("reload value" if used else "unused"),
                      high or ("start full" if used else "unused"), control))

    w = tail
    for i in range(F.SEQ_STATES - 1):
        emit("ETM", "TRCSEQEVR%d" % i,
             [("f", sequencer.forward[i]), ("b", sequencer.backward[i])],
             "state %d <-> %d moves" % (i, i + 1))
    emit("ETM", "TRCSEQRSTEVR", [("sel", sequencer.reset)],
         "jump to state 0")
    emit("ETM", "TRCSEQSTR", [("state", 0)], "start in state 0")

    by_pair = {c.pair_index: c for c in comparators}
    for k in range(F.NUM_COMPARATOR_PAIRS):
        c = by_pair.get(k)
        if c is None:
            emit("ETM", "TRCACVR%d" % (2 * k), [("addr", 0)], "unused")
            emit("ETM", "TRCACVR%d" % (2 * k + 1), [("addr", 0)], "unused")
            emit("ETM", "TRCACATR%d" % (2 * k),
                 [("match_user", 0), ("match_kernel", 0)], "unused")
        else:
            emit("ETM", "TRCACVR%d" % (2 * k), [("addr", c.lo)],
                 "range %d low bound" % k)
            emit("ETM", "TRCACVR%d" % (2 * k + 1), [("addr", c.hi)],
                 "range %d high bound (exclusive)" % k)
            emit("ETM", "TRCACATR%d" % (2 * k),
                 [("match_user", int(c.match_user)),
                  ("match_kernel", int(c.match_kernel))],
                 "range %d fetch-mode filter, covers the pair" % k)

    by_out = {o.output_index: o.selector for o in outputs}
    emit("ETM", "TRCEVENTCTL0R",
         [("out%d" % k, by_out.get(k, F.FALSE_SEL))
          for k in range(F.NUM_OUTPUTS)],
         "external output selects (FALSE = unused)")

    phase = "EnablePMUExport"
    emit("PMU", "PMCR", [("x", 1), ("e", 1)],
         "export event pulses to the trace unit")

    phase = "EnableETM"
    emit("ETM", "TRCPRGCTLR", [("en", 1)], "go")
    return tuple(head), tuple(parts), tuple(tail)


def compile(spec: R.RegulatorSpec, core_model=None,
            safe_floor_events=None) -> RegisterProgram:
    """Build the register program realizing `spec` on its core type.

    The monitored PMU events come from the core's accounting model, which
    must be countable on the trace unit (NotEtmRealizable otherwise);
    budget and period must fit the 16-bit counters (RangeError).

    When the budget sits below the platform's safe floor — passed in as
    `safe_floor_events`, typically from harness calibration, or else
    estimated from the core model's in-flight capacity — the program
    carries a warning diagnostic; regulation that tight overshoots.
    """
    config = R.build_config(spec)

    warnings = []
    floor = safe_floor_events
    if floor is None and core_model is not None:
        # events already in flight when throttling lands cannot be
        # recalled; a budget below that is structurally unenforceable
        floor = core_model.read_outstanding + core_model.write_buffer_depth
    if floor is not None and spec.budget_events < floor:
        warnings.append(
            "budget %d events is below the platform safe floor of %d; "
            "per-period overshoot will dominate the allowance"
            % (spec.budget_events, floor))
    return program_for_config(config, warnings)


# =========================================================================
# lift: program -> EtmConfig
# =========================================================================

def _check_phasing(prog: RegisterProgram):
    last = 0
    unlocked = set()
    for w in prog.writes:
        base, _idx = check_write(w)
        if base == "CTIINTACK":
            raise MalformedProgram(
                "CTIINTACK written in %s phase: the interrupt acknowledge "
                "belongs to the runtime handler, not the programming "
                "sequence" % (w.phase or "no",))
        if w.phase not in PHASES:
            raise MalformedProgram("write outside any known phase: %r"
                                   % (w.phase,))
        pi = PHASES.index(w.phase)
        if pi < last:
            raise MalformedProgram("phase %s after %s" % (w.phase,
                                                          PHASES[last]))
        last = pi
        if base not in _PHASE_REGISTERS[w.phase]:
            raise MalformedProgram("%s may not be written in the %s phase"
                                   % (w.register, w.phase))
        if base == "LAR":
            if w.get("key") != UNLOCK_KEY:
                raise MalformedProgram("bad unlock key for %s" % w.device)
            unlocked.add(w.device)
        elif w.device not in unlocked:
            raise MalformedProgram("%s written before its unlock"
                                   % (w.device,))
    dis = prog.phase("DisableAll")
    if not any(w.register == "TRCPRGCTLR" and w.get("en") == 0 for w in dis):
        raise MalformedProgram("trace unit not disabled before programming")
    if not any(w.register == "PMCR" and w.get("x") == 1
               for w in prog.phase("EnablePMUExport")):
        raise MalformedProgram("PMU export not enabled")
    ena = prog.phase("EnableETM")
    if not any(w.register == "TRCPRGCTLR" and w.get("en") == 1 for w in ena):
        raise MalformedProgram("trace unit never enabled")


def _lift_event(fields, prefix):
    a = fields.get(prefix + "_a")
    if a is None:
        return None
    return F.EventSpec(a, fields.get(prefix + "_b"),
                       fields.get(prefix + "_op", "and"),
                       invert_a=bool(fields.get(prefix + "_inv_a", 0)),
                       invert_b=bool(fields.get(prefix + "_inv_b", 0)))


def _need(w, fields, name):
    """The value of field `name` that lifting write `w` requires."""
    if name not in fields:
        raise MalformedProgram("%s lacks its %s field" % (w.register, name))
    return fields[name]


def lift(prog: RegisterProgram) -> F.EtmConfig:
    """Reconstruct the fabric config a well-phased program realizes."""
    _check_phasing(prog)

    taps = {}
    sels = {}
    cnt = {}
    seq_f = [F.FALSE_SEL] * (F.SEQ_STATES - 1)
    seq_b = [F.FALSE_SEL] * (F.SEQ_STATES - 1)
    seq_reset = F.FALSE_SEL
    acvr = {}
    acatr = {}
    outs = {}

    for w in prog.phase("ProgramETM"):
        base, idx = _register(w.register)[:2]
        fields = dict(w.fields)
        if base == "TRCEXTINSELR":
            for t in range(F.NUM_INPUTS):
                sigs = w.getall("tap%d" % t)
                if sigs:
                    taps[t] = frozenset(sigs)
        elif base == "TRCRSCTLR":
            src = _SOURCE_OF_GROUP[_need(w, fields, "group")]
            pair = None
            if "pair" in fields:
                pair = (fields["pair"], fields.get("pairop", "and"))
            sels[idx] = F.ResourceSelectorConfig(
                src, _unmask(fields.get("select", 0)),
                invert=bool(fields.get("invert", 0)), paired_with=pair)
        elif base == "TRCCNTRLDVR":
            cnt.setdefault(idx, {})["reload"] = _need(w, fields, "value")
        elif base == "TRCCNTVR":
            cnt.setdefault(idx, {})["start"] = _need(w, fields, "value")
        elif base == "TRCCNTCTLR":
            d = cnt.setdefault(idx, {})
            d["input"] = _lift_event(fields, "in")
            d["self_reload"] = bool(fields.get("self_reload", 1))
            d["reload_event"] = _lift_event(fields, "rld")
            d["chained"] = bool(fields.get("chain", 0))
        elif base == "TRCSEQEVR":
            seq_f[idx] = fields.get("f", F.FALSE_SEL)
            seq_b[idx] = fields.get("b", F.FALSE_SEL)
        elif base == "TRCSEQRSTEVR":
            seq_reset = fields.get("sel", F.FALSE_SEL)
        elif base == "TRCSEQSTR":
            if fields.get("state", 0) != 0:
                raise MalformedProgram("sequencer must start in state 0")
        elif base == "TRCACVR":
            acvr[idx] = _need(w, fields, "addr")
        elif base == "TRCACATR":
            acatr[idx] = fields
        elif base == "TRCEVENTCTL0R":
            for k in range(F.NUM_OUTPUTS):
                outs[k] = fields.get("out%d" % k, F.FALSE_SEL)

    inputs = tuple(F.ExternalInputSelector(taps[t])
                   for t in sorted(taps))

    selectors = list(F.HARDWIRED)
    for n in range(2, F.NUM_SELECTORS):
        if n in sels:
            selectors.append(sels[n])
        elif any(m > n for m in sels):
            raise MalformedProgram("selector slot %d skipped" % n)
    plain_false = F.ResourceSelectorConfig(F.CONST_FALSE)
    while len(selectors) > 2 and selectors[-1] == plain_false:
        selectors.pop()

    if cnt.get(0, {}).get("chained") and 1 in cnt:
        # join the high half that counter 1's value registers hold
        low, high = cnt[0], cnt[1]
        for key in ("reload", "start"):
            if key in high:
                low[key] = low.get(key, 0) | high.pop(key) << 16

    counters = []
    for n in sorted(cnt):
        d = cnt[n]
        inp = d.get("input")
        if inp is None:
            raise MalformedProgram("counter %d has values but no control"
                                   % n)
        disabled = (inp == F.EventSpec(F.FALSE_SEL)
                    and d.get("reload", 0) == 0
                    and d.get("reload_event") is None
                    and not d.get("chained"))
        if disabled:
            continue
        if d.get("start") != d.get("reload"):
            raise MalformedProgram("counter %d start value differs from "
                                   "its reload value" % n)
        counters.append(F.CounterConfig(
            n, d.get("reload", 0), inp,
            self_reload=d.get("self_reload", True),
            reload_event=d.get("reload_event"),
            chained=d.get("chained", False)))

    comparators = []
    for k in range(F.NUM_COMPARATOR_PAIRS):
        lo = acvr.get(2 * k, 0)
        hi = acvr.get(2 * k + 1, 0)
        at = acatr.get(2 * k, {})
        if lo == hi == 0:
            continue
        comparators.append(F.AddressRangeComparatorConfig(
            k, lo, hi,
            match_user=bool(at.get("match_user", 0)),
            match_kernel=bool(at.get("match_kernel", 0))))

    outputs = tuple(F.ExternalOutputConfig(k, outs[k])
                    for k in sorted(outs) if outs[k] != F.FALSE_SEL)

    routed = _routed(outs.items())
    inen = set()
    for w in prog.phase("ProgramCTI"):
        base, idx = _register(w.register)[:2]
        if base == "CTIINEN" and w.get("en") == 1:
            inen.add(idx)
    if sorted(inen) != routed:
        raise MalformedProgram(
            "cross-trigger routing %s does not match the configured "
            "outputs %s" % (sorted(inen), routed))

    return F.EtmConfig(inputs=inputs, selectors=tuple(selectors),
                       counters=tuple(counters),
                       sequencer=F.SequencerConfig(tuple(seq_f),
                                                   tuple(seq_b), seq_reset),
                       comparators=tuple(comparators), outputs=outputs)


# =========================================================================
# text form
# =========================================================================

def _fmt_value(name, value):
    if isinstance(value, str):
        return value
    if name in ("addr", "key"):
        return hex(value)
    return str(value)


def emit_text(prog: RegisterProgram) -> str:
    """One line per write: `DEVICE REGISTER field=value ... # comment`,
    with phase marker comments between phases."""
    lines = []
    for msg in prog.warnings:
        lines.append("# warning: %s" % msg)
    phase = None
    for w in prog.writes:
        if w.phase != phase:
            phase = w.phase
            lines.append("# phase: %s" % phase)
        parts = [w.device, w.register]
        parts += ["%s=%s" % (n, _fmt_value(n, v)) for n, v in w.fields]
        if w.comment:
            parts += ["#", w.comment]
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


# every ASCII token that int(token, 0) reads: a sign, then a prefixed
# hex, octal or binary numeral, or a decimal one without leading zeros;
# an underscore may stand before any digit but the first decimal one
_NUMERAL = re.compile(r"[+-]?(?:0[xX](?:_?[0-9a-fA-F])+|0[oO](?:_?[0-7])+"
                      r"|0[bB](?:_?[01])+|0(?:_?0)*|[1-9](?:_?[0-9])*)")


def _field_value(val):
    """`val` as `int(val, 0)` reads it, or the text itself where that
    raises.  An ASCII word is told from a numeral by its form, so text
    such as TRUE, 1e3 or 08 costs no exception."""
    if val.isascii() and not _NUMERAL.fullmatch(val):
        return val
    try:
        return int(val, 0)
    except ValueError:          # other digits, or beyond int's digit limit
        return val


def parse_text(text: str) -> RegisterProgram:
    """Inverse of emit_text; tolerant of blank lines and extra comments."""
    writes = []
    warnings = []
    phase = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if body.startswith("phase:"):
                phase = body[len("phase:"):].strip()
            elif body.startswith("warning:"):
                warnings.append(body[len("warning:"):].strip())
            continue
        code, _, comment = line.partition("#")
        parts = code.split()
        if len(parts) < 2:
            raise MalformedProgram("line %d: expected DEVICE REGISTER ..."
                                   % lineno)
        device, register = parts[0], parts[1]
        fields = []
        for tok in parts[2:]:
            name, eq, val = tok.partition("=")
            if not eq:
                raise MalformedProgram("line %d: bad field %r"
                                       % (lineno, tok))
            fields.append((name, _field_value(val)))
        writes.append(RegisterWrite(device, register, tuple(fields),
                                    comment.strip(), phase))
    return RegisterProgram(tuple(writes), tuple(warnings))
