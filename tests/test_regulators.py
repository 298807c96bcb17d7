"""Tests for the regulator constructions and the software baselines."""

import random

import pytest

import etmreg.fabric as F
import etmreg.regulators as R
from reference_regulators import CV0, CV1, SEQ, TokenBucket, drive, throttled

EV = (21,)                       # a cycle with one accounting event
USER = (0x1000, True)            # an instruction fetch in user space
KERNEL = (1 << 60, False)        # and one in kernel space


def spec(design, budget=27, period=6000):
    return R.RegulatorSpec(design, budget_events=budget, period_cycles=period)


# ---------------------------------------------------------------------------
# construction and resource counts
# ---------------------------------------------------------------------------

def test_pr_uses_six_selectors():
    for design in (R.PR, R.PR_STOP):
        cfg = R.build_pr_config(spec(design))
        assert F.validate_config(cfg).selectors_used == 6


def test_tb_uses_thirteen_selectors():
    for design in (R.TB31, R.TB22, R.TB13):
        cfg = R.build_tb_config(spec(design))
        assert F.validate_config(cfg).selectors_used == 13


def test_pr_and_pr_stop_differ_only_in_budget_input():
    a = R.build_pr_config(spec(R.PR))
    b = R.build_pr_config(spec(R.PR_STOP))
    assert a.selectors == b.selectors
    assert a.sequencer == b.sequencer
    assert a.outputs == b.outputs
    assert a.counter(1) == b.counter(1)
    ca, cb = a.counter(0), b.counter(0)
    assert ca.input != cb.input
    assert (ca.reload_value, ca.self_reload, ca.reload_event) == \
           (cb.reload_value, cb.self_reload, cb.reload_event)


def test_tb_never_uses_trigger_reload():
    for design in (R.TB31, R.TB22, R.TB13):
        cfg = R.build_tb_config(spec(design))
        for c in cfg.counters:
            assert c.self_reload and c.reload_event is None


def test_throttle_state_sets():
    assert spec(R.TB31).throttle_states == frozenset({3})
    assert spec(R.TB22).throttle_states == frozenset({2, 3})
    assert spec(R.TB13).throttle_states == frozenset({1, 2, 3})
    assert spec(R.PR).throttle_states == frozenset({3})
    assert spec(R.PR_USER).throttle_states == frozenset({2, 3})
    # outputs are wired to exactly those state levels
    cfg = R.build_tb_config(spec(R.TB13))
    states = sorted(min(cfg.selectors[o.selector].members)
                    for o in cfg.outputs)
    assert states == [1, 2, 3]


@pytest.mark.parametrize("design", R.ETM_DESIGNS)
def test_throttle_outputs_read_the_throttle_states(design):
    s = spec(design)
    cfg = R.build_config(s)
    routed = [cfg.selectors[o.selector] for o in cfg.outputs
              if F.THROTTLE_MASK >> o.output_index & 1]
    assert routed
    assert all(sel.source == F.SEQUENCER_STATE for sel in routed)
    assert frozenset().union(*(sel.members for sel in routed)) \
        == s.throttle_states


def test_budget_and_period_ranges():
    with pytest.raises(R.RangeError, match="exceeds 16-bit counter"):
        R.build_pr_config(spec(R.PR, budget=70000))
    with pytest.raises(R.RangeError, match="exceeds 16-bit counter"):
        R.build_tb_config(spec(R.TB31, period=70000))
    with pytest.raises(R.RangeError):
        R.build_pr_config(spec(R.PR, budget=0))
    # 65535 is the last valid value on both axes
    R.build_pr_config(spec(R.PR, budget=65535, period=65535))


def test_fabric_period_below_one_cycle_is_named():
    with pytest.raises(R.RangeError, match="period 0 cycles is below 1 cycle"):
        R.build_pr_config(spec(R.PR, period=0))
    with pytest.raises(R.RangeError, match="budget 0 events is below 1"):
        R.build_tb_config(spec(R.TB13, budget=0))


def test_build_config_dispatch():
    assert R.build_config(spec(R.PR)) == R.build_pr_config(spec(R.PR))
    assert R.build_config(spec(R.TB22)) == R.build_tb_config(spec(R.TB22))
    assert R.build_config(spec(R.PR_USER)) == \
        R.build_pr_user_config(spec(R.PR_USER))
    with pytest.raises(R.RangeError):
        R.build_config(spec(R.MEMGUARD))


def test_custom_signal_set():
    cfg = R.build_pr_config(spec(R.PR), signals=(33,))
    assert cfg.inputs[0].monitored == frozenset({33})
    with pytest.raises(R.RangeError):
        R.build_pr_config(spec(R.PR), signals=(1, 2, 3, 4, 5))


# ---------------------------------------------------------------------------
# PR dynamics
# ---------------------------------------------------------------------------

def test_pr_throttles_on_budget_and_releases_on_period():
    cfg = R.build_pr_config(spec(R.PR, budget=5, period=50))
    stream = []
    for c in range(1, 101):
        stream.append(EV if c % 4 == 0 and c <= 20 else ())
    log = drive(cfg, stream)
    # the 5th event lands on cycle 20; the period fire on cycle 50 releases
    assert [i + 1 for i, r in enumerate(log) if throttled(r)] == \
        list(range(20, 50))


def test_pr_overuse_carries_into_next_period():
    q, p, overuse = 50, 1000, 7
    cfg = R.build_pr_config(spec(R.PR, budget=q, period=p))
    stream = []
    # period 1: exhaust the budget, then `overuse` more events while throttled
    stream += [EV] * q
    stream += [EV] * overuse
    stream += [()] * (p - len(stream))
    # period 2: an event per cycle until the regulator throttles again
    stream += [EV] * (p // 2)
    log = drive(cfg, stream)
    onsets = [i + 1 for i in range(1, len(log))
              if throttled(log[i]) and not throttled(log[i - 1])]
    assert onsets[0] == q
    # the second onset comes `overuse` events early
    admitted_second = onsets[1] - p
    assert admitted_second == q - overuse


def test_pr_stop_does_not_carry_and_admits_more():
    q, p, overuse = 50, 1000, 7
    stream = []
    stream += [EV] * (q + overuse)
    stream += [()] * (p - len(stream))
    stream += [EV] * (p // 2)
    onsets = {}
    for design in (R.PR, R.PR_STOP):
        cfg = R.build_pr_config(spec(design, budget=q, period=p))
        log = drive(cfg, stream)
        onsets[design] = [i + 1 for i in range(1, len(log))
                          if throttled(log[i]) and not throttled(log[i - 1])]
    assert onsets[R.PR_STOP][1] - p == q          # full budget again
    assert onsets[R.PR][1] - p == q - overuse     # carry bites
    assert onsets[R.PR][1] < onsets[R.PR_STOP][1]


def test_pr_small_budget_wraps_overuse():
    # overuse beyond a whole budget wraps: only (overuse mod budget) carries
    q, p, overuse = 5, 400, 12
    cfg = R.build_pr_config(spec(R.PR, budget=q, period=p))
    stream = []
    stream += [EV] * (q + overuse)
    stream += [()] * (p - len(stream))
    stream += [EV] * 40
    log = drive(cfg, stream)
    onsets = [i + 1 for i in range(1, len(log))
              if throttled(log[i]) and not throttled(log[i - 1])]
    assert onsets[1] - p == q - (overuse % q)


# ---------------------------------------------------------------------------
# TB dynamics
# ---------------------------------------------------------------------------

def test_tb_matches_token_bucket_oracle():
    rng = random.Random(61)
    for design in (R.TB31, R.TB22, R.TB13):
        for _ in range(12):
            q = rng.randint(2, 30)
            p = rng.randint(3, 120)
            cfg = R.build_tb_config(spec(design, budget=q, period=p))
            ref = TokenBucket(q, p)
            density = rng.choice((0.1, 0.4, 0.9))
            thr_len = len(spec(design).throttle_states)
            evs = [rng.random() < density for _ in range(500)]
            rows = drive(cfg, [EV if ev else () for ev in evs])
            for ev, r in zip(evs, rows):
                ref.step(ev)
                assert (r[SEQ], r[CV0], r[CV1]) == ref.expected()
                assert throttled(r) == (ref.debt >= 4 - thr_len)


def test_tb_headroom_orders_the_variants():
    # from an idle bucket, a dense burst is admitted until the debt reaches
    # the variant's throttle region: 3, 2, 1 whole budgets
    q, p = 10, 5000
    admitted = {}
    for design in (R.TB31, R.TB22, R.TB13):
        cfg = R.build_tb_config(spec(design, budget=q, period=p))
        log = drive(cfg, [EV] * 60)
        first = next(i for i, r in enumerate(log) if throttled(r))
        admitted[design] = first + 1
    assert admitted == {R.TB31: 3 * q, R.TB22: 2 * q, R.TB13: q}


def test_tb_debt_saturates():
    q, p = 3, 7
    cfg = R.build_tb_config(spec(R.TB31, budget=q, period=p))
    log = drive(cfg, [EV] * 200)
    # saturated bucket: each grant pays one step back, events refill it
    # within a budget's worth of cycles; debt never leaves the top states
    states = {r[SEQ] for r in log[50:]}
    assert states == {2, 3}
    # and a long quiet stretch pays all debt back without undershoot
    log = drive(cfg, [EV] * 100 + [()] * 200)
    assert log[-1][SEQ] == 0


# ---------------------------------------------------------------------------
# PR_USER dynamics
# ---------------------------------------------------------------------------

def test_pr_user_ignores_kernel_mode_events():
    cfg = R.build_pr_user_config(spec(R.PR_USER, budget=5, period=500))
    # enter the user state, return to kernel (the state tracks the fetch
    # stream with a one-cycle lag), then feed events from kernel mode only
    stream = [(), ()] + [EV] * 20 + [()]
    fetches = [USER, KERNEL] + [KERNEL] * 20 + [USER]
    log = drive(cfg, stream, fetches)
    assert not any(throttled(r) for r in log)
    assert log[-1][CV0] == 5                   # budget untouched
    # 5 events in user mode now throttle exactly
    stream += [EV] * 5 + [()] * 3
    fetches += [USER] * 8
    log = drive(cfg, stream, fetches)
    throttled_from = next(i for i, r in enumerate(log) if throttled(r))
    assert throttled_from == len(stream) - 4   # the 5th user event
    assert log[throttled_from][SEQ] == 2


def test_pr_user_replenish_resets_then_first_fetch_restores():
    q, p = 4, 60
    cfg = R.build_pr_user_config(spec(R.PR_USER, budget=q, period=p))
    # settle into state 1 first, exhaust the budget (state 2), then two
    # kernel fetches over budget (state 3), then user code to the period end
    stream = [()] + [EV] * q + [()] * (p - q)
    fetches = [USER] * (q + 1) + [KERNEL] * 2 + [USER] * (p - q - 2)
    log = drive(cfg, stream, fetches)
    assert log[q][SEQ] == 2                    # the q-th counted event
    assert throttled(log[q])
    assert log[q + 1][SEQ] == 3
    assert throttled(log[q + 1])
    assert log[p - 1][SEQ] == 0                # replenish: (2 or 3) -> 0
    assert not throttled(log[p - 1])           # throttle drops with the reset
    assert log[p][SEQ] == 1                    # next user fetch
    assert not throttled(log[p])


def test_pr_user_equals_pr_on_all_user_streams():
    q, p, periods = 20, 400, 12
    rng = random.Random(5)
    pr = R.build_pr_config(spec(R.PR, budget=q, period=p))
    pu = R.build_pr_user_config(spec(R.PR_USER, budget=q, period=p))
    # events never land on the cycle right after a replenish boundary, where
    # the user design sits in state 0 for one fetch
    stream = []
    for c in range(1, p * periods + 1):
        ev = rng.random() < 0.12 and c % p != 1
        stream.append(EV if ev else ())
    log_pr = drive(pr, stream, [USER] * len(stream))
    log_pu = drive(pu, stream, [USER] * len(stream))
    assert [throttled(r) for r in log_pr] == [throttled(r) for r in log_pu]
    # budget counters stay in lockstep as well
    assert [r[CV0] for r in log_pr] == [r[CV0] for r in log_pu]


# ---------------------------------------------------------------------------
# MemGuard baseline
# ---------------------------------------------------------------------------

def test_memguard_interrupts_every_period_even_when_quiet():
    cfg = R.MemGuardConfig(budget_events=100, period_cycles=1000)
    st = R.memguard_reset(cfg)
    for cycle in range(1, 10001):
        st, throttled = R.memguard_step(cfg, st, 0, cycle)
        assert not throttled
    assert st.next_boundary == 11000    # ten timer refills, all quiet


def test_baseline_period_below_one_cycle_is_rejected():
    # a zero period would never let the step functions pass a boundary
    with pytest.raises(R.RangeError, match="below 1 cycle"):
        R.MemGuardConfig(27, 0)
    with pytest.raises(R.RangeError, match="below 1 cycle"):
        R.MemPolConfig(50, 0)


@pytest.mark.parametrize("make,budget", [
    (R.MemGuardConfig, 0), (R.MemGuardConfig, -5),
    (R.MemPolConfig, 0), (R.MemPolConfig, -5),
], ids=["memguard-0", "memguard-negative", "mempol-0", "mempol-negative"])
def test_baseline_budget_below_one_event_is_rejected(make, budget):
    # each constructed, as the fabric designs' budgets do not: MemPol then
    # halted its core from the second poll on, whatever it moved
    with pytest.raises(R.RangeError,
                       match="budget %d events is below 1 event" % budget):
        make(budget, 600)


@pytest.mark.parametrize("make,match", [
    # a saturating zcu102 read ran differently with hops and without them
    # on these two; the pr spec completed 138 lines with hops, 30 without
    (lambda: R.MemGuardConfig(22, 600.5), "period must be an int"),
    (lambda: R.build_config(spec(R.PR, period=6000.5)),
     "period must be an int"),
    # these were taken silently
    (lambda: R.build_config(spec(R.PR, budget=27.5)), "budget must be an int"),
    (lambda: R.MemGuardConfig(True, 600), "budget_events must be an int"),
    (lambda: R.MemPolConfig(170.0, 600), "budget_events must be an int"),
    (lambda: R.MemPolConfig(170, True), "poll period must be an int"),
    (lambda: R.MemPolConfig(170, 600, window_size=2.0),
     "window_size must be an int"),
    # a window of 0 polls summed the whole history
    (lambda: R.MemPolConfig(170, 600, window_size=0),
     "window_size 0 polls is below 1 poll"),
    (lambda: F.validate_config(F.EtmConfig(counters=(
        F.CounterConfig(0, 27.5, F.EventSpec(F.TRUE_SEL)),))),
     "counter 0 reload_value must be an int"),
    (lambda: F.validate_config(F.EtmConfig(counters=(
        F.CounterConfig(0, True, F.EventSpec(F.TRUE_SEL)),))),
     "counter 0 reload_value must be an int"),
], ids=["memguard-period", "pr-period", "pr-budget", "memguard-budget",
        "mempol-budget", "mempol-poll", "mempol-window-float",
        "mempol-window-0", "fabric-reload-float", "fabric-reload-bool"])
def test_a_non_integer_regulator_count_is_named(make, match):
    with pytest.raises(ValueError, match=match):
        make()


def test_memguard_throttles_until_boundary():
    cfg = R.MemGuardConfig(budget_events=5, period_cycles=1000)
    st = R.memguard_reset(cfg)
    history = []
    for cycle in range(1, 2001):
        delta = 1 if cycle in (10, 20, 30, 40, 50) else 0
        st, throttled = R.memguard_step(cfg, st, delta, cycle)
        history.append(throttled)
    assert history[49] and all(history[50:999])
    assert not history[999]            # boundary replenish at cycle 1000
    assert not any(history[1000:])
    assert st.next_boundary == 3000     # two timer refills


def test_memguard_drain_events_not_charged_while_throttled():
    cfg = R.MemGuardConfig(budget_events=3, period_cycles=100)
    st = R.memguard_reset(cfg)
    st, throttled = R.memguard_step(cfg, st, 3, 10)
    assert throttled
    st, throttled = R.memguard_step(cfg, st, 7, 20)   # write-buffer drain
    assert throttled and st.remaining == 0
    st, throttled = R.memguard_step(cfg, st, 0, 100)
    assert not throttled and st.remaining == 3


# ---------------------------------------------------------------------------
# MemPol baseline
# ---------------------------------------------------------------------------

def test_mempol_below_budget_never_halts():
    cfg = R.MemPolConfig(budget_events=800, poll_cycles=625, window_size=8)
    st = R.mempol_reset(cfg)
    pmc = 0
    for cycle in range(1, 50001):
        pmc += 1 if cycle % 10 == 0 else 0     # 100 events per window
        st, halt = R.mempol_step(cfg, st, pmc, cycle)
        assert not halt


def test_mempol_burst_overshoots_at_least_one_poll():
    cfg = R.MemPolConfig(budget_events=100, poll_cycles=625, window_size=8)
    st = R.mempol_reset(cfg)
    pmc = 0
    first_halt = None
    for cycle in range(1, 20001):
        if cycle > 625:                        # burst starts just after poll 1
            pmc += 1                           # one event per cycle
        st, halt = R.mempol_step(cfg, st, pmc, cycle)
        if halt and first_halt is None:
            first_halt = cycle
            break
    assert first_halt is not None
    overshoot = pmc                            # events before the halt landed
    assert overshoot >= 1 * 625                # >= peak_rate x poll interval


def test_mempol_resumes_when_window_drains():
    cfg = R.MemPolConfig(budget_events=50, poll_cycles=100, window_size=8)
    st = R.mempol_reset(cfg)
    pmc = 0
    halted_cycles = []
    for cycle in range(1, 5001):
        if cycle <= 300:
            pmc += 1
        st, halt = R.mempol_step(cfg, st, pmc, cycle)
        if halt:
            halted_cycles.append(cycle)
    assert halted_cycles
    # the window forgets the burst after 8 quiet polls, so the halt lifts
    assert halted_cycles[-1] < 300 + 9 * 100
    assert not halt
