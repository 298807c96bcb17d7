"""Tests for the register-write program compiler and its lifting inverse."""

import dataclasses
import itertools
import random

import pytest

import etmreg.fabric as F
import etmreg.regprog as P
import etmreg.regulators as R
from etmreg.accounting import NotEtmRealizable
from etmreg.machine import CoreModelConfig
from reference_fabric import (random_config, random_config_small,
                              run_reference, stream_palette)
from reference_regulators import drive


def spec_for(design, budget=27, period=6000, **kw):
    return R.RegulatorSpec(design, budget, period, **kw)


def drop_writes(prog, pred):
    return P.RegisterProgram(
        tuple(w for w in prog.writes if not pred(w)), prog.warnings)


# =========================================================================
# compile -> lift round trips
# =========================================================================

@pytest.mark.parametrize("design", R.ETM_DESIGNS)
def test_lift_inverts_compile(design):
    spec = spec_for(design)
    assert P.lift(P.compile(spec)) == R.build_config(spec)


def test_random_specs_round_trip():
    rng = random.Random(1234)
    for _ in range(60):
        spec = R.RegulatorSpec(rng.choice(R.ETM_DESIGNS),
                               rng.randint(1, F.COUNTER_MAX),
                               rng.randint(1, F.COUNTER_MAX))
        assert P.lift(P.compile(spec)) == R.build_config(spec)


def test_lifted_config_simulates_identically():
    # equal configs share one cached compiled fabric, so the lifted one
    # runs on the reference interpreter; TB22 sets no address comparator
    spec = spec_for(R.TB22, budget=5, period=40)
    built = R.build_config(spec)
    lifted = P.lift(P.compile(spec))
    rng = random.Random(7)
    cycles = [(21,) if rng.random() < 0.3 else () for _ in range(2000)]
    stream = [(frozenset(c), frozenset(), False) for c in cycles]
    assert drive(built, cycles) == run_reference(lifted, stream)


def test_text_round_trip():
    prog = P.compile(spec_for(R.PR_USER))
    text = P.emit_text(prog)
    assert P.parse_text(text) == prog
    assert P.lift(P.parse_text(text)) == R.build_config(spec_for(R.PR_USER))


def test_text_parser_tolerates_noise():
    prog = P.compile(spec_for(R.PR))
    lines = P.emit_text(prog).splitlines()
    noisy = "\n\n".join(["# a stray remark"] + lines + ["   "])
    assert P.parse_text(noisy) == prog


def test_text_parser_rejects_junk():
    with pytest.raises(P.MalformedProgram):
        P.parse_text("ETM\n")
    with pytest.raises(P.MalformedProgram):
        P.parse_text("ETM TRCPRGCTLR en\n")


# what `ETM TRCCNTRLDVR0 value=<v>` parses to, and check_write's answer:
# the parsed value, then the register check returns, or its message
_NUMERALS = [
    ("0xC5ACCE55", 0xC5ACCE55,
     "TRCCNTRLDVR0.value=3316436565 does not fit 16 bits"),
    ("0b101", 5, None),
    ("-1", -1, "TRCCNTRLDVR0.value=-1 does not fit 16 bits"),
    ("+3", 3, None),
    ("1_0", 10, None),
    ("1e3", "1e3", "TRCCNTRLDVR0.value='1e3' does not fit 16 bits"),
    ("08", "08", "TRCCNTRLDVR0.value='08' does not fit 16 bits"),
    ("TRUE", "TRUE", "TRCCNTRLDVR0.value='TRUE' does not fit 16 bits"),
]


@pytest.mark.parametrize("text,value,error", _NUMERALS)
def test_parse_text_reads_numerals_as_int_reads_them(text, value, error):
    prog = P.parse_text("ETM TRCCNTRLDVR0 value=%s\n" % text)
    (w,) = prog.writes
    assert w.fields == (("value", value),)
    assert type(w.get("value")) is type(value)
    if error is None:
        assert P.check_write(w) == ("TRCCNTRLDVR", 0)
    else:
        with pytest.raises(P.MalformedProgram) as e:
            P.check_write(w)
        assert str(e.value) == error


def test_parse_text_field_values_match_int_base_0():
    # every token int(tok, 0) reads is an int, and every other one text:
    # all tokens of up to 3 characters, and longer random ones, of signs,
    # prefixes, underscores, letters and non-ASCII digits (an
    # Arabic-Indic 3 is a digit, a superscript 2 not)
    alphabet = "0178abefxoXOB_+-\u0663\u00b2"
    rng = random.Random(29)
    tokens = [tok for n in (1, 2, 3)
              for tok in map("".join, itertools.product(alphabet, repeat=n))]
    tokens += ["".join(rng.choice(alphabet) for _ in range(rng.randint(4, 8)))
               for _ in range(3000)]
    tokens.append("1" * 5000)       # past int's digit limit: text
    for tok in tokens:
        try:
            want = int(tok, 0)
        except ValueError:
            want = tok
        (w,) = P.parse_text("ETM TRCCNTRLDVR0 value=%s\n" % tok).writes
        assert w.fields == (("value", want),), tok


def test_memoized_register_names_still_fail_by_name():
    for _ in range(2):
        for name, message in (
                ("trcrsctlr4", "unknown register 'trcrsctlr4'"),
                ("TRCBOGUS", "unknown register 'TRCBOGUS'"),
                ("TRCRSCTLR16", "no register instance 'TRCRSCTLR16'")):
            with pytest.raises(P.MalformedProgram) as e:
                P.check_write(P.RegisterWrite("ETM", name, ()))
            assert str(e.value) == message
        assert P.check_write(P.RegisterWrite(
            "ETM", "TRCRSCTLR4", ())) == ("TRCRSCTLR", 4)


def test_programs_of_one_wiring_differ_only_in_counter_values():
    # the writes a design's wiring fixes are built once and shared; only
    # the counters' value registers hold the budget and period
    a = P.compile(spec_for(R.TB13, budget=5, period=100))
    b = P.compile(spec_for(R.TB13, budget=7, period=300))
    assert len(a.writes) == len(b.writes)
    changed = [x.register for x, y in zip(a.writes, b.writes) if x != y]
    assert changed == ["TRCCNTRLDVR0", "TRCCNTVR0", "TRCCNTRLDVR1",
                       "TRCCNTVR1"]
    assert all(x is y for x, y in zip(a.writes, b.writes)
               if x.register not in changed)


def text_round_trip(prog):
    return P.lift(P.parse_text(P.emit_text(prog)))


def trajectory(config, stream):
    """Raw step results of the compiled fabric over palette cycles."""
    cf = F.compile_fabric(config)
    s = cf.reset_tuple()
    out = []
    for _pulses, _hits, idle, pm, cm in stream:
        if idle:
            out.append(cf.idle_out(s[2], s[3], s[4]))
        else:
            r = cf.step(s[0], s[1], s[2], s[3], s[4], pm, cm)
            s = r[:5]
            out.append(r)
    return out


def test_random_configs_program_and_lift():
    # every valid fabric, chained counters and FALSE-wired outputs
    # included, programs, lifts back to the same writes and steps alike
    rng = random.Random(2024)
    for i in range(1000):
        gen = random_config if i % 2 else random_config_small
        cfg = gen(rng)
        prog = P.program_for_config(cfg)
        lifted = text_round_trip(prog)
        assert P.program_for_config(lifted).writes == prog.writes, cfg
        palette = stream_palette(rng, cfg)
        stream = [rng.choice(palette) for _ in range(40)]
        assert trajectory(lifted, stream) == trajectory(cfg, stream), cfg


def chained_config(reload_value):
    return F.EtmConfig(
        inputs=(F.ExternalInputSelector({21}),),
        selectors=F.HARDWIRED + (
            F.ResourceSelectorConfig(F.EXTERNAL_INPUTS, {0}),
            F.ResourceSelectorConfig(F.COUNTER_ZERO, {0})),
        counters=(F.CounterConfig(0, reload_value, F.EventSpec(2),
                                  chained=True),),
        outputs=(F.ExternalOutputConfig(1, 3),))


def test_chained_counter_splits_over_both_value_registers():
    cfg = chained_config(70000)                 # 1 << 16 | 4464
    prog = P.program_for_config(cfg)
    values = {w.register: w.get("value") for w in prog.writes
              if w.register.startswith(("TRCCNTRLDVR", "TRCCNTVR"))}
    assert values == {"TRCCNTRLDVR0": 4464, "TRCCNTVR0": 4464,
                      "TRCCNTRLDVR1": 1, "TRCCNTVR1": 1}
    ctl1 = next(w for w in prog.writes if w.register == "TRCCNTCTLR1")
    assert ctl1.get("in_a") == F.FALSE_SEL and ctl1.get("chain") is None
    assert text_round_trip(prog) == cfg


def test_false_wired_output_lifts_and_re_emits():
    cfg = dataclasses.replace(
        chained_config(5),
        outputs=(F.ExternalOutputConfig(1, 3),
                 F.ExternalOutputConfig(2, F.FALSE_SEL)))
    prog = P.program_for_config(cfg)
    inen = [w.register for w in prog.writes
            if w.register.startswith("CTIINEN")]
    assert inen == ["CTIINEN1"]         # FALSE can never raise the interrupt
    assert P.program_for_config(text_round_trip(prog)).writes == prog.writes


# =========================================================================
# program shape
# =========================================================================

def test_phases_in_order_and_export_before_enable():
    prog = P.compile(spec_for(R.PR))
    order = [P.PHASES.index(w.phase) for w in prog.writes]
    assert order == sorted(order)
    assert {w.phase for w in prog.writes} == set(P.PHASES)
    idx_x = next(i for i, w in enumerate(prog.writes)
                 if w.register == "PMCR" and w.get("x") == 1)
    idx_en = max(i for i, w in enumerate(prog.writes)
                 if w.register == "TRCPRGCTLR")
    assert idx_x < idx_en


def test_all_four_devices_unlocked_first():
    prog = P.compile(spec_for(R.TB31))
    lars = [w for w in prog.writes if w.register == "LAR"]
    assert {w.device for w in lars} == set(P.DEVICES)
    assert all(w.phase == "Unlock" for w in lars)
    assert prog.writes[:len(lars)] == tuple(lars)


def test_unused_resources_forced_to_false_selector():
    prog = P.compile(spec_for(R.PR))        # uses selector slots 2..5
    rs = {w.register: w for w in prog.writes
          if w.register.startswith("TRCRSCTLR")}
    assert len(rs) == F.NUM_SELECTORS - 2   # every programmable slot
    for n in range(6, F.NUM_SELECTORS):
        assert rs["TRCRSCTLR%d" % n].get("group") == "FALSE"
    evt = next(w for w in prog.writes if w.register == "TRCEVENTCTL0R")
    assert evt.get("out0") == F.FALSE_SEL
    assert evt.get("out2") == F.FALSE_SEL
    assert evt.get("out3") == F.FALSE_SEL
    # unused comparator pairs are programmed to an empty range
    for k in range(1, F.NUM_COMPARATOR_PAIRS):
        a = next(w for w in prog.writes
                 if w.register == "TRCACVR%d" % (2 * k))
        assert a.get("addr") == 0


def test_cti_routes_exactly_the_configured_outputs():
    prog = P.compile(spec_for(R.TB13))      # throttles in states 1, 2, 3
    inen = sorted(int(w.register[len("CTIINEN"):])
                  for w in prog.writes if w.register.startswith("CTIINEN"))
    assert inen == [1, 2, 3]
    prog = P.compile(spec_for(R.PR))
    inen = [w for w in prog.writes if w.register.startswith("CTIINEN")]
    assert len(inen) == 1 and inen[0].register == "CTIINEN1"


def test_emitted_programs_fit_resource_budgets():
    for design in R.ETM_DESIGNS:
        report = F.validate_config(P.lift(P.compile(spec_for(design))))
        assert report.selectors_used <= F.NUM_SELECTORS
        assert report.counters_used <= F.NUM_COUNTERS


# =========================================================================
# compile-time gates
# =========================================================================

def test_counter_width_gate():
    # 40 us at 2000 MHz needs 80000 cycles: over the 16-bit counter
    with pytest.raises(P.RangeError):
        P.compile(spec_for(R.PR, period=80000))
    P.compile(spec_for(R.PR, period=65400))  # 32.7 us at 2000 MHz fits


def test_max_period_display_rounding():
    assert P.max_period(2000) == 32.7
    assert P.max_period(1200) == 54.6
    assert P.max_period(1) == 65535.0
    with pytest.raises(ValueError):
        P.max_period(0)


def test_unrealizable_models_do_not_compile():
    with pytest.raises(NotEtmRealizable, match="fractional factor"):
        P.compile(spec_for(R.TB22, core_type="cortex-a78",
                           model_variant="moderate2"))
    with pytest.raises(NotEtmRealizable, match="six ETM PMU inputs"):
        P.compile(spec_for(R.PR, core_type="cortex-a78",
                           model_variant="moderate1"))


def test_model_signals_feed_the_event_tap():
    prog = P.compile(spec_for(R.PR, core_type="cortex-a76",
                              model_variant="moderate2"))
    ext = next(w for w in prog.writes if w.register == "TRCEXTINSELR")
    assert ext.getall("tap0") == [73, 74, 157]


def test_software_design_is_rejected():
    with pytest.raises(P.RangeError):
        P.compile(R.RegulatorSpec(R.MEMGUARD, 27, 6000))


def test_resource_budget_exceeded():
    too_many = F.EtmConfig(
        inputs=(F.ExternalInputSelector(frozenset({21})),),
        selectors=F.HARDWIRED + tuple(
            F.ResourceSelectorConfig(F.EXTERNAL_INPUTS, frozenset({0}))
            for _ in range(15)))
    with pytest.raises(P.ResourceBudgetExceeded):
        P.program_for_config(too_many)


def test_budget_floor_advisory():
    cm = CoreModelConfig()                  # 8 reads + 20 buffer entries
    low = P.compile(spec_for(R.PR, budget=5), core_model=cm)
    assert len(low.warnings) == 1 and "safe floor" in low.warnings[0]
    ok = P.compile(spec_for(R.PR, budget=200), core_model=cm)
    assert ok.warnings == ()
    cal = P.compile(spec_for(R.PR, budget=200), safe_floor_events=300)
    assert len(cal.warnings) == 1
    text = P.emit_text(low)
    assert "# warning:" in text
    assert P.parse_text(text).warnings == low.warnings


# =========================================================================
# malformed programs
# =========================================================================

def test_intack_belongs_to_the_runtime():
    prog = P.compile(spec_for(R.PR))
    bad = list(prog.writes)
    bad.insert(7, P.RegisterWrite("CTI", "CTIINTACK", (("ack", 1),),
                                  phase="ProgramCTI"))
    with pytest.raises(P.MalformedProgram, match="runtime handler"):
        P.lift(P.RegisterProgram(tuple(bad)))


def test_missing_pmu_export():
    prog = P.compile(spec_for(R.PR))
    bad = drop_writes(prog, lambda w: w.register == "PMCR")
    with pytest.raises(P.MalformedProgram, match="PMU export not enabled"):
        P.lift(bad)


def test_missing_disable_or_enable():
    prog = P.compile(spec_for(R.PR))
    bad = drop_writes(prog, lambda w: w.phase == "DisableAll"
                      and w.register == "TRCPRGCTLR")
    with pytest.raises(P.MalformedProgram, match="not disabled"):
        P.lift(bad)
    bad = drop_writes(prog, lambda w: w.phase == "EnableETM")
    with pytest.raises(P.MalformedProgram, match="never enabled"):
        P.lift(bad)


def test_phase_order_violation():
    prog = P.compile(spec_for(R.PR))
    shuffled = P.RegisterProgram(prog.writes[::-1], ())
    with pytest.raises(P.MalformedProgram):
        P.lift(shuffled)


def test_resource_write_in_wrong_phase():
    w = P.RegisterWrite("ETM", "TRCCNTRLDVR0", (("value", 5),),
                        phase="Unlock")
    prog = P.RegisterProgram((w,))
    with pytest.raises(P.MalformedProgram, match="Unlock"):
        P.lift(prog)


def test_write_before_unlock():
    prog = P.compile(spec_for(R.PR))
    bad = drop_writes(prog, lambda w: w.register == "LAR"
                      and w.device == "ETM")
    with pytest.raises(P.MalformedProgram, match="unlock"):
        P.lift(bad)


def test_unknown_register_and_bad_fields():
    with pytest.raises(P.MalformedProgram, match="unknown register"):
        P.check_write(P.RegisterWrite("ETM", "TRCBOGUS", ()))
    with pytest.raises(P.MalformedProgram, match="no register instance"):
        P.check_write(P.RegisterWrite("ETM", "TRCRSCTLR99", ()))
    with pytest.raises(P.MalformedProgram, match="no field"):
        P.check_write(P.RegisterWrite("ETM", "TRCPRGCTLR", (("zz", 1),)))
    with pytest.raises(P.MalformedProgram, match="does not fit"):
        P.check_write(P.RegisterWrite("ETM", "TRCCNTRLDVR0",
                                      (("value", 1 << 16),)))
    with pytest.raises(P.MalformedProgram, match="not one of"):
        P.check_write(P.RegisterWrite("ETM", "TRCRSCTLR2",
                                      (("group", "BOGUS"),)))
    with pytest.raises(P.MalformedProgram, match="ETM register"):
        P.check_write(P.RegisterWrite("PMU", "TRCPRGCTLR", (("en", 1),)))


def test_cti_routing_must_match_outputs():
    prog = P.compile(spec_for(R.TB13))
    bad = drop_writes(prog, lambda w: w.register == "CTIINEN2")
    with pytest.raises(P.MalformedProgram, match="routing"):
        P.lift(bad)


def test_a_skipped_selector_slot_is_named():
    # `pr` reads slots past 3, so a program without slot 3 has a hole
    prog = P.compile(spec_for(R.PR))
    bad = drop_writes(prog, lambda w: w.register == "TRCRSCTLR3")
    with pytest.raises(P.MalformedProgram, match="selector slot 3 skipped"):
        P.lift(bad)


def test_sequencer_must_start_at_zero():
    prog = P.compile(spec_for(R.PR))
    writes = tuple(
        dataclasses.replace(w, fields=(("state", 2),))
        if w.register == "TRCSEQSTR" else w for w in prog.writes)
    with pytest.raises(P.MalformedProgram, match="state 0"):
        P.lift(P.RegisterProgram(writes))


def test_counter_start_must_equal_reload():
    prog = P.compile(spec_for(R.PR))
    writes = tuple(
        dataclasses.replace(w, fields=(("value", 3),))
        if w.register == "TRCCNTVR0" else w for w in prog.writes)
    with pytest.raises(P.MalformedProgram, match="reload"):
        P.lift(P.RegisterProgram(writes))


@pytest.mark.parametrize("register,field", [
    ("TRCRSCTLR2", "group"),
    ("TRCCNTRLDVR0", "value"),
    ("TRCCNTVR0", "value"),
    ("TRCACVR0", "addr"),
])
def test_missing_field_names_register_and_field(register, field):
    # a write without a field lift needs used to escape as a KeyError
    prog = P.compile(spec_for(R.PR_USER))
    writes = tuple(
        dataclasses.replace(
            w, fields=tuple(f for f in w.fields if f[0] != field))
        if w.register == register else w for w in prog.writes)
    with pytest.raises(P.MalformedProgram,
                       match="%s lacks its %s field" % (register, field)):
        P.lift(P.RegisterProgram(writes))
