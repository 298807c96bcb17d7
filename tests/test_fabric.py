"""Unit tests for the trace-unit resource fabric.

Hand-stepped counter/sequencer examples pin down the cycle semantics; the
random differential tests check the generated stepper against the naive
reference interpreter on both config families.
"""

import dataclasses
import itertools
import random

import pytest

import etmreg.fabric as F
import etmreg.harness as H
import etmreg.regulators as R
from reference_fabric import (
    eval_event,
    eval_slot,
    random_config,
    random_config_small,
    reference_step,
    run_reference,
    stream_palette,
)
from reference_regulators import CV0, FIRED0, OUT, SEQ, Z0, drive


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def cmp_hits(config, fetch_addr, exec_mode):
    """Comparator pairs pulsing for this fetch (none without a fetch)."""
    cm = F.compile_fabric(config).cmp_mask(fetch_addr, exec_mode == F.USER)
    return frozenset(p for p in range(F.NUM_COMPARATOR_PAIRS) if cm >> p & 1)


def slot(config, index, signals=(), seq=0, fetch_addr=None,
         exec_mode=F.USER):
    """Value of one selector slot, from the reference interpreter, with
    no counter firing this cycle."""
    return eval_slot(config.selectors, config.inputs, index,
                     frozenset(signals),
                     cmp_hits(config, fetch_addr, exec_mode),
                     False, False, seq)


def counting_config(reload_value, self_reload=True, reload_event=None,
                    chained=False):
    """Counter 0 decrementing every cycle (input = hardwired TRUE)."""
    return F.EtmConfig(
        counters=(F.CounterConfig(0, reload_value, F.EventSpec(F.TRUE_SEL),
                                  self_reload=self_reload,
                                  reload_event=reload_event,
                                  chained=chained),),
    )


def event_counting_config(reload_value, signals=(21, 22), **kw):
    """Counter 0 decrementing on a pulse of any of `signals` (tap 0, slot 2)."""
    sels = F.HARDWIRED + (
        F.ResourceSelectorConfig(F.EXTERNAL_INPUTS, frozenset({0})),)
    return F.EtmConfig(
        inputs=(F.ExternalInputSelector(frozenset(signals)),),
        selectors=sels,
        counters=(F.CounterConfig(0, reload_value, F.EventSpec(2), **kw),),
    )


# ---------------------------------------------------------------------------
# counters
# ---------------------------------------------------------------------------

def test_self_reload_fires_every_reload_cycles():
    rows = drive(counting_config(5), [()] * 17)
    fire_cycles = [i + 1 for i, r in enumerate(rows) if r[FIRED0]]
    assert fire_cycles == [5, 10, 15]
    # value path R -> R-1 -> ... -> 1 -> fire + reload to R
    assert rows[3][CV0] == 1
    assert rows[4][CV0] == 5


def test_reload_one_fires_every_cycle():
    rows = drive(counting_config(1), [()] * 6)
    assert all(r[FIRED0] for r in rows)


def test_self_reload_fire_count_is_floor():
    rng = random.Random(7)
    for _ in range(20):
        r = rng.randint(1, 37)
        t = rng.randint(1, 300)
        rows = drive(counting_config(r), [()] * t)
        fires = sum(row[FIRED0] for row in rows)
        assert fires == t // r


def test_counter_only_decrements_on_input_pulse():
    cfg = event_counting_config(3)
    rows = drive(cfg, [{21}, (), {7}] * 6)
    # signal 7 is not monitored; pulses land on cycles 0,3,6,9,12,15
    # (0-based) and every 3rd one fires the counter
    fire_cycles = [i for i, r in enumerate(rows) if r[FIRED0]]
    assert fire_cycles == [6, 15]


def test_trigger_reload_is_a_level_until_reloaded():
    # reload on a pulse of signal 23 (tap 1, slot 3)
    sels = F.HARDWIRED + (
        F.ResourceSelectorConfig(F.EXTERNAL_INPUTS, frozenset({0})),
        F.ResourceSelectorConfig(F.EXTERNAL_INPUTS, frozenset({1})),
    )
    cfg = F.EtmConfig(
        inputs=(F.ExternalInputSelector(frozenset({21})),
                F.ExternalInputSelector(frozenset({23}))),
        selectors=sels,
        counters=(F.CounterConfig(0, 2, F.EventSpec(2), self_reload=False,
                                  reload_event=F.EventSpec(3)),),
    )
    rows = drive(cfg, [{21}, {21}, (), (), {21}, {23}, {21}])
    fired = [r[FIRED0] for r in rows]
    level = [r[Z0] for r in rows]
    vals = [r[CV0] for r in rows]
    assert vals == [1, 0, 0, 0, 0, 2, 1]
    assert fired == [False, True, False, False, False, False, False]
    # zero signal holds as a level while the counter rests at zero; extra
    # input pulses at zero change nothing
    assert level == [False, True, True, True, True, False, False]


def test_self_reload_with_forced_reload_event():
    # reload_event pins the counter at its reload value whenever signal 23
    # pulses, deferring the fire
    sels = F.HARDWIRED + (
        F.ResourceSelectorConfig(F.EXTERNAL_INPUTS, frozenset({0})),
        F.ResourceSelectorConfig(F.EXTERNAL_INPUTS, frozenset({1})),
    )
    cfg = F.EtmConfig(
        inputs=(F.ExternalInputSelector(frozenset({21})),
                F.ExternalInputSelector(frozenset({23}))),
        selectors=sels,
        counters=(F.CounterConfig(0, 3, F.EventSpec(2), self_reload=True,
                                  reload_event=F.EventSpec(3)),),
    )
    rows = drive(cfg, [{21}, {21, 23}, {21}, {21}, {21}])
    vals = [r[CV0] for r in rows]
    fired = [r[FIRED0] for r in rows]
    assert vals == [2, 3, 2, 1, 3]
    assert fired == [False, False, False, False, True]


def test_reload_zero_rejected():
    with pytest.raises(F.InvalidConfig, match="reload must be >= 1"):
        F.validate_config(counting_config(0))


def test_reload_above_width_rejected():
    with pytest.raises(F.InvalidConfig, match="reload"):
        F.validate_config(counting_config(F.COUNTER_MAX + 1))
    # but a chained counter takes the full 32-bit range
    F.validate_config(counting_config(F.COUNTER_MAX + 1, chained=True))


def test_new_reload_values_keep_a_checked_config_checked():
    base = counting_config(5)
    F.check_config(base)
    copy = F.with_reload_values(base, (9,))
    assert copy == counting_config(9)
    assert copy.selectors is base.selectors
    assert copy.sequencer is base.sequencer
    assert F.compile_fabric(copy).reset_tuple()[0] == 9
    # a value out of the counter's range hands no report on, so the
    # compile checks the copy and names the value
    for bad in (0, F.COUNTER_MAX + 1):
        with pytest.raises(ValueError, match="reload"):
            F.compile_fabric(F.with_reload_values(base, (bad,)))
    with pytest.raises(ValueError, match="2 reload values for 1 counters"):
        F.with_reload_values(base, (5, 6))


def test_chained_counter_crosses_16_bits():
    n = 70000  # > 0xFFFF
    cfg = counting_config(n, chained=True)
    cf = F.compile_fabric(cfg)
    prev = cf.reset_tuple()
    assert prev[:2] == (n, 0)
    fires = []
    for cycle in range(1, n + 2):
        cur = cf.step(prev[0], prev[1], prev[2], prev[3], prev[4], 0, 0)
        if cur[5]:
            fires.append(cycle)
        prev = cur
    assert fires == [n]
    assert F.validate_config(cfg).counters_used == 2


def test_chained_only_on_counter_zero():
    cfg = F.EtmConfig(counters=(
        F.CounterConfig(1, 5, F.EventSpec(F.TRUE_SEL), chained=True),))
    with pytest.raises(F.InvalidConfig, match="chained"):
        F.validate_config(cfg)
    cfg = F.EtmConfig(counters=(
        F.CounterConfig(0, 5, F.EventSpec(F.TRUE_SEL), chained=True),
        F.CounterConfig(1, 5, F.EventSpec(F.TRUE_SEL)),
    ))
    with pytest.raises(F.InvalidConfig, match="chained"):
        F.validate_config(cfg)


def test_counter_values_stay_in_bounds():
    rng = random.Random(11)
    for _ in range(25):
        cfg = random_config_small(rng)
        if any(c.chained for c in cfg.counters):
            continue
        reloads = {c.index: c.reload_value for c in cfg.counters}
        pal = stream_palette(rng, cfg)
        for row in drive(cfg, [None if pal[i][2] else pal[i][0]
                               for i in rng.choices(range(len(pal)), k=400)]):
            for idx, r in reloads.items():
                assert 0 <= row[idx] <= r


# ---------------------------------------------------------------------------
# sequencer
# ---------------------------------------------------------------------------

def seq_config(forward, backward, reset=F.FALSE_SEL, outputs=()):
    """Sequencer driven by per-signal taps: slot 2 <- signal 21 (tap 0),
    slot 3 <- signal 22 (tap 1), slot 4 <- signal 23 (tap 2)."""
    sels = F.HARDWIRED + tuple(
        F.ResourceSelectorConfig(F.EXTERNAL_INPUTS, frozenset({t}))
        for t in range(3))
    return F.EtmConfig(
        inputs=tuple(F.ExternalInputSelector(frozenset({s}))
                     for s in (21, 22, 23)),
        selectors=sels,
        sequencer=F.SequencerConfig(forward=forward, backward=backward,
                                    reset=reset),
        outputs=outputs,
    )


def test_sequencer_single_steps():
    # distinct selectors per link so each pulse moves exactly one state
    cfg = seq_config(forward=(2, 3, 2), backward=(1, 4, 1))
    rows = drive(cfg, [{21}, (), {22}, {23}, {23}])
    assert [r[SEQ] for r in rows] == [1, 1, 2, 1, 1]


def test_sequencer_multi_step_chain():
    # same selector armed on every link: one pulse walks 0 -> 3
    cfg = seq_config(forward=(2, 2, 2), backward=(3, 3, 3))
    rows = drive(cfg, [{21}, {22}])
    assert rows[0][SEQ] == 3
    # and one pulse of the backward selector walks 3 -> 0
    assert rows[1][SEQ] == 0


def test_sequencer_reset_beats_forward():
    cfg = seq_config(forward=(2, 2, 2), backward=(3, 3, 3), reset=4)
    rows = drive(cfg, [{21}, {21, 23}, {21}])
    assert [r[SEQ] for r in rows] == [3, 0, 3]


def test_forward_blocks_backward_same_cycle():
    # both selectors pulse together: forward wins, no backward move
    cfg = seq_config(forward=(2, 1, 1), backward=(3, 3, 3))
    rows = drive(cfg, [{21, 22}, {21, 22}, {22}])
    # cycle 0: 0 -> 1 (forward); cycle 1: forward from 1 unarmed, backward
    # fires 1 -> 0; cycle 2: backward from 0 is a no-op
    assert [r[SEQ] for r in rows] == [1, 0, 0]


def test_backward_selector_indexing():
    # backward[i] drives i+1 -> i; only backward[2] is armed
    cfg = seq_config(forward=(2, 2, 2), backward=(1, 1, 3))
    rows = drive(cfg, [{21}, {22}, {22}])
    assert [r[SEQ] for r in rows] == [3, 2, 2]


def test_output_levels_follow_new_state():
    base = seq_config(forward=(2, 2, 2), backward=(3, 3, 3))
    cfg = F.EtmConfig(
        inputs=base.inputs,
        selectors=base.selectors + (
            F.ResourceSelectorConfig(F.SEQUENCER_STATE, frozenset({3})),),
        sequencer=base.sequencer,
        outputs=(F.ExternalOutputConfig(1, 5),),
    )
    rows = drive(cfg, [{21}, (), {22}])
    # the output tracks the post-transition state in the same cycle
    assert [r[OUT] for r in rows] == [0b10, 0b10, 0]


# ---------------------------------------------------------------------------
# selectors
# ---------------------------------------------------------------------------

def test_hardwired_slot_values():
    cfg = F.EtmConfig()
    assert slot(cfg, F.TRUE_SEL) is True
    assert slot(cfg, F.FALSE_SEL) is False


def test_tap_ors_its_signals():
    cfg = event_counting_config(5, signals=(21, 22))
    for sig, want in ((21, True), (22, True), (7, False)):
        assert slot(cfg, 2, signals={sig}) is want


def test_selector_invert_and_pairing():
    sels = F.HARDWIRED + (
        F.ResourceSelectorConfig(F.EXTERNAL_INPUTS, frozenset({0})),
        F.ResourceSelectorConfig(F.SEQUENCER_STATE, frozenset({0}),
                                 invert=True),
        F.ResourceSelectorConfig(F.EXTERNAL_INPUTS, frozenset({0}),
                                 paired_with=(3, "and")),
        F.ResourceSelectorConfig(F.EXTERNAL_INPUTS, frozenset({0}),
                                 paired_with=(3, "or")),
    )
    cfg = F.EtmConfig(
        inputs=(F.ExternalInputSelector(frozenset({21})),),
        selectors=sels)
    ev = {21}
    assert slot(cfg, 3, seq=0) is False         # inverted "in {0}"
    assert slot(cfg, 3, seq=2) is True
    assert slot(cfg, 4, ev, seq=2) is True      # pulse and not-state0
    assert slot(cfg, 4, ev, seq=0) is False
    assert slot(cfg, 5, seq=0) is False         # or: both low
    assert slot(cfg, 5, seq=2) is True


def test_comparator_range_and_mode():
    cfg = F.EtmConfig(
        selectors=F.HARDWIRED + (
            F.ResourceSelectorConfig(F.ADDRESS_RANGE, frozenset({0})),),
        comparators=(F.AddressRangeComparatorConfig(0, 0x1000, 0x2000,
                                                    match_user=True,
                                                    match_kernel=False),),
    )

    def hit(addr, mode):
        return slot(cfg, 2, fetch_addr=addr, exec_mode=mode)

    assert hit(0x1000, F.USER) is True
    assert hit(0x1FFF, F.USER) is True
    assert hit(0x2000, F.USER) is False        # exclusive upper bound
    assert hit(0x0FFF, F.USER) is False
    assert hit(0x1800, F.KERNEL) is False      # mode filter
    assert hit(None, F.USER) is False          # no fetch this cycle


# ---------------------------------------------------------------------------
# validation budgets
# ---------------------------------------------------------------------------

def test_empty_config_uses_the_hardwired_pair_only():
    rep = F.validate_config(F.EtmConfig())
    assert rep == F.ResourceReport(selectors_used=2, counters_used=0,
                                   inputs_used=0, comparator_pairs_used=0)


def test_selector_budget_enforced():
    sels = F.HARDWIRED + tuple(
        F.ResourceSelectorConfig(F.SEQUENCER_STATE, frozenset({0}))
        for _ in range(15))
    with pytest.raises(F.InvalidConfig, match="SelectorBudget"):
        F.validate_config(F.EtmConfig(selectors=sels))


def test_missing_hardwired_pair_rejected():
    sels = (F.ResourceSelectorConfig(F.SEQUENCER_STATE, frozenset({0})),)
    with pytest.raises(F.InvalidConfig, match="hardwired"):
        F.validate_config(F.EtmConfig(selectors=sels))


def test_input_budgets():
    taps = tuple(F.ExternalInputSelector(frozenset({s}))
                 for s in (3, 7, 21, 22, 23))
    with pytest.raises(F.InvalidConfig, match="InputBudget"):
        F.validate_config(F.EtmConfig(inputs=taps))
    # 4 taps but 5 distinct signals is just as dead
    taps = (F.ExternalInputSelector(frozenset({3, 7})),
            F.ExternalInputSelector(frozenset({21, 22})),
            F.ExternalInputSelector(frozenset({23})))
    with pytest.raises(F.InvalidConfig, match="distinct signals"):
        F.validate_config(F.EtmConfig(inputs=taps))


def test_pair_operand_must_not_be_paired():
    sels = F.HARDWIRED + (
        F.ResourceSelectorConfig(F.SEQUENCER_STATE, frozenset({0}),
                                 paired_with=(0, "and")),
        F.ResourceSelectorConfig(F.SEQUENCER_STATE, frozenset({1}),
                                 paired_with=(2, "or")),
    )
    with pytest.raises(F.InvalidConfig, match="itself paired"):
        F.validate_config(F.EtmConfig(selectors=sels))


def test_duplicate_output_rejected():
    outs = (F.ExternalOutputConfig(1, 0), F.ExternalOutputConfig(1, 1))
    with pytest.raises(F.InvalidConfig, match="configured twice"):
        F.validate_config(F.EtmConfig(outputs=outs))


def test_comparator_empty_range_rejected():
    cmps = (F.AddressRangeComparatorConfig(0, 0x2000, 0x2000),)
    with pytest.raises(F.InvalidConfig, match="empty range"):
        F.validate_config(F.EtmConfig(comparators=cmps))


def test_dangling_selector_reference_rejected():
    cfg = F.EtmConfig(counters=(F.CounterConfig(0, 5, F.EventSpec(9)),))
    with pytest.raises(F.InvalidConfig, match="references selector 9"):
        F.validate_config(cfg)


def test_all_violations_reported_at_once():
    cfg = F.EtmConfig(
        counters=(F.CounterConfig(0, 0, F.EventSpec(9)),),
        outputs=(F.ExternalOutputConfig(1, 0), F.ExternalOutputConfig(1, 1)),
    )
    with pytest.raises(F.InvalidConfig) as ei:
        F.validate_config(cfg)
    assert len(ei.value.violations) >= 3


# ---------------------------------------------------------------------------
# idle and determinism
# ---------------------------------------------------------------------------

def test_idle_freezes_state_bit_identical():
    rows = drive(counting_config(3), [(), (), None])
    assert rows[2][:5] == rows[1][:5]
    assert rows[2][FIRED0:OUT] == (False, False)


def test_idle_outputs_drop_pulses_keep_levels():
    # output 1 follows the counter-zero pulse, output 2 a sequencer level
    sels = F.HARDWIRED + (
        F.ResourceSelectorConfig(F.COUNTER_ZERO, frozenset({0})),
        F.ResourceSelectorConfig(F.SEQUENCER_STATE, frozenset({0})),
    )
    cfg = F.EtmConfig(
        selectors=sels,
        counters=(F.CounterConfig(0, 2, F.EventSpec(F.TRUE_SEL)),),
        outputs=(F.ExternalOutputConfig(1, 2), F.ExternalOutputConfig(2, 3)),
    )
    rows = drive(cfg, [(), (), None])
    assert rows[1][OUT] & 0b10                 # fired this cycle
    assert rows[2][:5] == rows[1][:5]
    assert not rows[2][OUT] & 0b10             # pulse source goes low
    assert rows[2][OUT] & 0b100                # level source persists


def test_determinism():
    rng = random.Random(23)
    cfg = random_config_small(rng)
    pal = stream_palette(rng, cfg)
    cycles = [None if pal[i][2] else pal[i][0]
              for i in rng.choices(range(len(pal)), k=300)]
    assert drive(cfg, cycles) == drive(cfg, cycles)


# ---------------------------------------------------------------------------
# differential against the reference interpreter
# ---------------------------------------------------------------------------

def _compiled_trace(cfg, stream):
    cf = F.compile_fabric(cfg)
    prev = cf.reset_tuple()
    traj = []
    for ps, cs, idle, pm, cm in stream:
        if idle:
            cur = (prev[0], prev[1], prev[2], prev[3], prev[4], False, False,
                   cf.idle_out(prev[2], prev[3], prev[4]))
        else:
            cur = cf.step(prev[0], prev[1], prev[2], prev[3], prev[4], pm, cm)
        traj.append(cur)
        prev = cur[:5]
    return traj


@pytest.mark.parametrize("family", [random_config_small, random_config])
def test_reference_equivalence(family):
    rng = random.Random(2024 if family is random_config else 4)
    for _ in range(30):
        cfg = family(rng)
        pal = stream_palette(rng, cfg)
        stream = [pal[i] for i in rng.choices(range(len(pal)), k=600)]
        got = _compiled_trace(cfg, stream)
        want = run_reference(cfg, [(ps, cs, idle)
                                   for ps, cs, idle, pm, cm in stream])
        assert got == want


def test_public_step_matches_reference_with_comparators():
    # the compiled stepper fed from fetch addresses in both modes, the
    # comparator masks included, against the reference cycle by cycle
    rng = random.Random(99)
    for _ in range(6):
        cfg = random_config(rng)
        if not cfg.comparators:
            continue
        pal = stream_palette(rng, cfg)
        ref = F.reset_fabric(cfg) + (False, False, 0)
        lo = cfg.comparators[0].lo
        cycles, fetches, want = [], [], []
        for j in rng.choices(range(len(pal)), k=500):
            ps, cs, idle, pm, cm = pal[j]
            addr = lo + 64 * (j % 7) if j % 3 else None
            mode = F.USER if j % 2 else F.KERNEL
            cycles.append(None if idle else ps)
            fetches.append((addr, mode == F.USER))
            ref = reference_step(cfg, ref, ps, cmp_hits(cfg, addr, mode), idle)
            want.append(ref)
        assert drive(cfg, cycles, fetches) == want


# ---------------------------------------------------------------------------
# the generated kernel: probes and the shape cache
# ---------------------------------------------------------------------------

def _reads_latch(cfg):
    """Whether a counter input or the idle output of `cfg`'s shape reads
    the latched counter-zero signals, as its kernel's code does."""
    return F._Kernel(F._shape_of(cfg)).reads_latch()


def _step_probe(cf, s, pm, cm, out, latched):
    """A probe from one step: the counter values as the state holds them,
    how far each drops and the counter-zero latches that the step leaves,
    or None if a counter fires or drops by other than 0 or 1, or a reload
    trigger fires, or the sequencer or the output mask `out` changes, or a
    latch changes in a shape that reads them (`latched`)."""
    cur = cf.step(s[0], s[1], s[2], s[3], s[4], pm, cm)
    if (cur[2] != s[2] or cur[5] or cur[6] or cur[7] != out
            or latched and (cur[3] != s[3] or cur[4] != s[4])):
        return None
    d0, d1 = s[0] - cur[0], s[1] - cur[1]
    if d0 not in (0, 1) or d1 not in (0, 1):
        return None
    pulses = frozenset(i for i in range(pm.bit_length()) if pm >> i & 1)
    hits = frozenset(i for i in range(F.NUM_COMPARATOR_PAIRS) if cm >> i & 1)
    if _reloads(cf.config, s, pulses, hits):
        return None
    return s[0], s[1], d0, d1, cur[3], cur[4]


def _reloads(cfg, s, pulses, hits):
    """Whether a reload trigger fires in the step from state `s`: the
    triggers read the zero signals of the step without them."""
    bare = dataclasses.replace(cfg, counters=tuple(
        dataclasses.replace(c, reload_event=None) for c in cfg.counters))
    z = reference_step(bare, s, pulses, hits, False)[3:5]
    return any(c.reload_event is not None and eval_event(
        cfg.selectors, cfg.inputs, c.reload_event, pulses, hits, z[0], z[1],
        s[2]) for c in cfg.counters)


@pytest.mark.parametrize("family", [random_config_small, random_config])
def test_probes_match_one_step(family):
    # counters at 0, 1, their reload value and one above it, which no run
    # reaches, in every state of the sequencer and the zero signals
    rng = random.Random(31 if family is random_config else 32)
    answers = set()
    cleared = shapes = 0
    for _ in range(40):
        cfg = family(rng)
        cf = F.compile_fabric(cfg)
        latched = _reads_latch(cfg)
        shapes += latched
        pal = stream_palette(rng, cfg)
        values = []
        for n in (0, 1):
            c = cfg.counter(n)
            r = c.reload_value if c is not None else 1
            values.append(sorted({0, 1, r, r + 1}))
        for _ in range(150):
            s = (rng.choice(values[0]), rng.choice(values[1]),
                 rng.randrange(F.SEQ_STATES), rng.random() < 0.3,
                 rng.random() < 0.3)
            pm = rng.choice(pal)[3]
            cm = rng.randrange(1 << F.NUM_COMPARATOR_PAIRS)
            # the level before the cycle: mostly the one the cycle keeps
            out = (cf.idle_out(s[2], s[3], s[4]) if rng.random() < 0.8
                   else rng.randrange(1 << F.NUM_OUTPUTS))
            for want, got in (
                    (_step_probe(cf, s, pm, cm, out, latched),
                     cf.probe(s[0], s[1], s[2], s[3], s[4], pm, cm, out)),
                    (_step_probe(cf, s, 0, cm, out, latched),
                     cf.quiet_probe(s[0], s[1], s[2], s[3], s[4], cm,
                                    out))):
                assert got == want, (cfg, s, pm, cm, out)
                answers.add(None if want is None else want[2:4])
                cleared += want is not None and want[4:] != s[3:]
    # both kinds of answer, and drops of 0 and 1, came up, as did shapes
    # that read the latches and accepted steps that change them
    assert None in answers and (0, 0) in answers
    assert {(1, 0), (0, 1), (1, 1)} & answers
    assert 0 < shapes < 40 and cleared


@pytest.mark.parametrize("family", [random_config_small, random_config])
def test_a_shape_that_reads_no_latch_steps_alike_under_any(family):
    # what lets a probe accept a step that changes the latches: where the
    # shape reads none, a step and the idle output are the same under any
    # latches, so the steps after it behave as it does
    rng = random.Random(33 if family is random_config else 34)
    free = 0
    for _ in range(60):
        cfg = family(rng)
        if _reads_latch(cfg):
            continue
        free += 1
        cf = F.compile_fabric(cfg)
        pal = stream_palette(rng, cfg)
        for _ in range(50):
            cv = [0, 0]
            for c in cfg.counters:
                cv[c.index] = rng.choice((0, 1, 2, c.reload_value))
            seq = rng.randrange(F.SEQ_STATES)
            pm = rng.choice(pal)[3]
            cm = rng.randrange(1 << F.NUM_COMPARATOR_PAIRS)
            runs = {(cf.step(cv[0], cv[1], seq, z0, z1, pm, cm),
                     cf.idle_out(seq, z0, z1))
                    for z0 in (False, True) for z1 in (False, True)}
            assert len(runs) == 1, (cfg, cv, seq, pm, cm)
    assert free


@pytest.mark.parametrize("board", ["zcu102", "rk3588-a76"])
def test_the_designs_reload_only_where_a_counter_fires(board):
    # what lets a probe refuse every reload: in each paper design a reload
    # trigger fires only in a cycle where a counter fires, which a probe
    # refuses already.  Counter values 0, 1, 2, R - 1 and R, in every state of the
    # sequencer and the latches, under each flavour of the palette
    rng = random.Random(35)
    b = H.preset(board)
    for design in R.ETM_DESIGNS:
        cfg = H.regulator_for(design, b, 350.0, 5.0)
        values = []
        for n in (0, 1):
            c = cfg.counter(n)
            r = c.reload_value if c is not None else 1
            values.append(sorted({0, 1, 2, r - 1, r}))
        reloads = 0
        for pulses, hits, idle, _, _ in stream_palette(rng, cfg):
            if idle:
                continue
            for s in itertools.product(values[0], values[1],
                                       range(F.SEQ_STATES), (False, True),
                                       (False, True)):
                if _reloads(cfg, s, pulses, hits):
                    reloads += 1
                    cur = reference_step(cfg, s, pulses, hits, False)
                    assert cur[5] or cur[6], (design, s, pulses, hits)
        # the token-bucket designs have no trigger
        assert bool(reloads) == any(c.reload_event for c in cfg.counters), \
            design


def test_the_designs_accept_a_latch_clear():
    # in each paper design, the cycle after a counter fires clears its
    # latch and needs no step; a counter whose input is the other's zero
    # signal reads the latch, so there the clear is a step
    b = H.preset("zcu102")
    for design in R.ETM_DESIGNS:
        cfg = H.regulator_for(design, b, 350.0, 5.0)
        cf = F.compile_fabric(cfg)
        assert not _reads_latch(cfg), design
        r0, r1 = F.reset_fabric(cfg)[:2]
        for z0, z1 in ((True, False), (False, True)):
            s = (r0, r1, 0, z0, z1)
            out = cf.idle_out(0, z0, z1)
            p = cf.quiet_probe(*s, 0, out)
            assert p is not None and p[4:] == (False, False), design
    zero = F.ResourceSelectorConfig(F.COUNTER_ZERO, frozenset({0}))
    cfg = F.EtmConfig(
        selectors=F.HARDWIRED + (zero,),
        counters=(F.CounterConfig(0, 100, F.EventSpec(F.TRUE_SEL)),
                  F.CounterConfig(1, 5, F.EventSpec(2))))
    cf = F.compile_fabric(cfg)
    assert _reads_latch(cfg)
    assert cf.quiet_probe(50, 3, 0, True, False, 0, 0) is None
    assert cf.quiet_probe(50, 3, 0, False, False, 0, 0) == (
        50, 3, 1, 0, False, False)


def _with_reloads(cfg, rng):
    """`cfg` with other reload values in each counter."""
    return dataclasses.replace(cfg, counters=tuple(
        dataclasses.replace(c, reload_value=rng.randint(
            1, F.CHAINED_MAX if c.chained else F.COUNTER_MAX))
        for c in cfg.counters))


@pytest.mark.parametrize("family", [random_config_small, random_config])
def test_configs_of_one_shape_share_their_code(family):
    rng = random.Random(41 if family is random_config else 42)
    for _ in range(10):
        cfg = family(rng)
        twin = _with_reloads(cfg, rng)
        assert twin != cfg
        a, b = F.compile_fabric(cfg), F.compile_fabric(twin)
        for fn in ("step", "probe", "quiet_probe", "idle_out"):
            assert getattr(a, fn).__code__ is getattr(b, fn).__code__
        # and each steps with its own reload values
        for c in (cfg, twin):
            pal = stream_palette(rng, c)
            stream = [pal[i] for i in rng.choices(range(len(pal)), k=300)]
            assert _compiled_trace(c, stream) == run_reference(
                c, [(ps, cs, idle) for ps, cs, idle, pm, cm in stream])


def test_sweep_compiles_one_kernel_per_design():
    # every fabric design at four targets: one kernel compile per design,
    # where compiling each config's step took 24 (6 designs x 4 targets)
    F.compile_fabric.cache_clear()
    F._generate_kernel.cache_clear()
    F._compile_kernel.cache_clear()
    H.run_sweep(H.ExperimentConfig(
        board="zcu102", designs=R.ETM_DESIGNS,
        targets_mbps=(100.0, 350.0, 600.0, 900.0), period_us=2.5,
        duration_ms=0.01))
    assert F.compile_fabric.cache_info().misses == 24
    assert F._compile_kernel.cache_info().misses == 6
