"""Tests for the cycle-stepped core/memory machine and its fast path."""

import dataclasses
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

import etmreg.fabric as F
import etmreg.harness as H
import etmreg.machine as M
import etmreg.regulators as R
from reference_fabric import random_config, random_config_small

# ZCU102-like timing: 1200 MHz A53, 81-cycle interrupt delivery
ZCU = dict(freq_mhz=1200, irq_latency_cycles=81, read_outstanding=8,
           write_buffer_depth=20, mem_latency_cycles=40,
           handler_entry_cycles=30, handler_poll_cycles=20,
           handler_exit_cycles=20, handler_kernel_events=2)

# every modeled error source turned off
IDEAL = dict(freq_mhz=1200, irq_latency_cycles=0, read_outstanding=1,
             write_buffer_depth=1, mem_latency_cycles=0,
             handler_entry_cycles=0, handler_poll_cycles=1,
             handler_exit_cycles=0, handler_kernel_events=0)

CAP_1000 = 1000e6 / 64 / 1.2e9      # cachelines/cycle for 1000 MB/s @ 1200


def mkreg(design, target_mbps, period_us=5.0, freq=1200):
    period = int(period_us * freq)
    budget = max(1, round(target_mbps * 1e6 * period_us * 1e-6 / 64))
    spec = R.RegulatorSpec(design=design, budget_events=budget,
                           period_cycles=period)
    return R.build_config(spec), budget, period


def one_core(workload, regulator=None, model=None, dur=240_000,
             cap=CAP_1000):
    core = M.CoreSpec(model=M.CoreModelConfig(**(model or ZCU)),
                      workload=workload, regulator=regulator)
    return M.SystemConfig(cores=(core,), shared_mem_bandwidth=cap,
                          duration_cycles=dur)


@pytest.fixture(scope="module")
def pr_read_350():
    cfg, q, p = mkreg(R.PR, 350.0)
    sc = one_core(M.Synthetic(op="read"), cfg, dur=1_200_000)
    return M.run_system(sc), q, p


@pytest.fixture(scope="module")
def prstop_read_350():
    cfg, q, p = mkreg(R.PR_STOP, 350.0)
    sc = one_core(M.Synthetic(op="read"), cfg, dur=1_200_000)
    return M.run_system(sc), q, p


@pytest.fixture(scope="module")
def prstop_write_350():
    cfg, q, p = mkreg(R.PR_STOP, 350.0)
    sc = one_core(M.Synthetic(op="write"), cfg, dur=1_200_000)
    return M.run_system(sc), q, p


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------

def test_workload_validation():
    with pytest.raises(ValueError, match="unknown op"):
        M.Synthetic(op="paint")
    with pytest.raises(ValueError, match="issue_ipc_limit"):
        M.Synthetic(op="read", issue_ipc_limit=-1)
    with pytest.raises(ValueError, match="empty"):
        M.Burst(pattern=())
    with pytest.raises(ValueError, match="all zero"):
        M.Burst(pattern=((M.OP_READ, 0, 0),))
    with pytest.raises(ValueError, match="negative"):
        M.Burst(pattern=((M.OP_READ, -64, 0),))


@pytest.mark.parametrize("rate", [float("inf"), float("nan")])
def test_non_finite_issue_rate_is_named(rate):
    # inf overflowed inside run_system; nan silently issued nothing
    with pytest.raises(ValueError, match="issue_ipc_limit"):
        M.Synthetic(op="read", issue_ipc_limit=rate)


@pytest.mark.parametrize("rate", [1.5, 2.0, float("inf"), float("nan")])
def test_issue_rate_above_a_line_a_cycle_is_named(rate):
    # a core moves at most one line a cycle, as a trace-unit input pulses
    # at most once a cycle.  At 2.0 a `pr` read at 350 MB/s moved 672 MB/s:
    # the taps saw 1,090 pulses for 2,100 lines
    with pytest.raises(ValueError, match=r"issue_ipc_limit .* \[0, 1\]"):
        M.Synthetic(op="read", issue_ipc_limit=rate)


def _with_count(field, value):
    """A config whose int-valued `field` is set to `value`."""
    core = M.CoreSpec(M.CoreModelConfig(**ZCU), M.Synthetic(op="read"))
    if field in ("duration_cycles", "window_cycles"):
        kw = dict(cores=(core,), shared_mem_bandwidth=0.1,
                  duration_cycles=100)
        kw[field] = value
        return M.SystemConfig(**kw)
    if field == "bytes":
        return M.Burst(((M.OP_READ, 640, 0), (M.OP_READ, value, 100)))
    if field == "idle_cycles":
        return M.Burst(((M.OP_READ, 640, value),))
    if field == "cycle delta":
        return M.TraceReplay(((value, frozenset({21}), "user"),))
    return M.CoreModelConfig(**dict(ZCU, **{field: value}))


@pytest.mark.parametrize("field,value", [
    # each of these was taken.  A `pr` core on zcu102 ran differently with
    # hops and without them at a poll of 1.5, an idle of 100.5 or a replay
    # delta of 3.5, and a duration of 1000.5 ran silently
    ("handler_poll_cycles", 1.5), ("mem_latency_cycles", 40.0),
    ("read_outstanding", True), ("freq_mhz", 1200.5),
    ("duration_cycles", 1000.5), ("window_cycles", 600.0),
    ("bytes", 640.0), ("idle_cycles", 100.5), ("cycle delta", 3.5),
    ("cycle delta", False),
])
def test_a_non_integer_count_is_named(field, value):
    with pytest.raises(ValueError, match=field + r".* must be an int"):
        _with_count(field, value)


@pytest.mark.parametrize("rate", [True, "0.5"])
def test_an_issue_rate_that_is_not_a_number_is_named(rate):
    # True ran as a rate of 1; "0.5" raised a bare TypeError
    with pytest.raises(ValueError, match="issue_ipc_limit"):
        M.Synthetic(op="read", issue_ipc_limit=rate)


@pytest.mark.parametrize("field,value", [
    ("shared_mem_bandwidth", float("inf")),
    ("shared_mem_bandwidth", float("nan")),
    # True ran as a rate of 1; "0.5" raised a bare TypeError
    ("shared_mem_bandwidth", True),
    ("shared_mem_bandwidth", "0.5"),
    ("window_cycles", -5),
])
def test_bad_system_rate_or_window_is_named(field, value):
    # inf and nan failed inside run_system with OverflowError or "cannot
    # convert float NaN to integer"; a negative window became 1 ms
    core = M.CoreSpec(model=M.CoreModelConfig(**ZCU),
                      workload=M.Synthetic(op="read"))
    kw = dict(cores=(core,), shared_mem_bandwidth=0.1, duration_cycles=100)
    kw[field] = value
    with pytest.raises(ValueError, match=field):
        M.SystemConfig(**kw)


def test_rate_is_stored_exactly():
    # a float rate converts exactly; it was rounded to 2**-32 line per cycle
    core = M.CoreSpec(model=M.CoreModelConfig(**ZCU),
                      workload=M.Synthetic(op="read"))
    sc = M.SystemConfig(cores=(core,), shared_mem_bandwidth=0.1,
                        duration_cycles=100)
    assert isinstance(sc.shared_mem_bandwidth, Fraction)
    assert sc.shared_mem_bandwidth == Fraction(0.1)


def test_model_validation():
    with pytest.raises(ValueError, match="freq_mhz"):
        M.CoreModelConfig(**dict(ZCU, freq_mhz=0))
    with pytest.raises(ValueError, match="read slot"):
        M.CoreModelConfig(**dict(ZCU, read_outstanding=0))
    with pytest.raises(ValueError, match="irq_latency_cycles"):
        M.CoreModelConfig(**dict(ZCU, irq_latency_cycles=-1))


def test_signals_must_be_the_core_types_own():
    # the A53's default signals 21/22 on an A72, whose regulators tap
    # 24/25: a `pr` core at 350 MB/s let 3,906 lines through, 0 counted
    with pytest.raises(ValueError, match=r"\[21, 22\] .* cortex-a72"):
        M.CoreModelConfig(core_type="cortex-a72")
    with pytest.raises(ValueError, match=r"\[7\] .* cortex-a53"):
        M.CoreModelConfig(refill_signals=frozenset({21, 7}))


def test_system_config_validation():
    core = M.CoreSpec(model=M.CoreModelConfig(**ZCU),
                      workload=M.Synthetic(op="read"))
    with pytest.raises(ValueError, match="at least one core"):
        M.SystemConfig(cores=(), shared_mem_bandwidth=0.1,
                       duration_cycles=100)
    with pytest.raises(ValueError, match="duration"):
        M.SystemConfig(cores=(core,), shared_mem_bandwidth=0.1,
                       duration_cycles=0)
    with pytest.raises(ValueError, match="bandwidth"):
        M.SystemConfig(cores=(core,), shared_mem_bandwidth=0.0,
                       duration_cycles=100)


def test_mixed_core_clocks_are_rejected():
    # the run steps one clock, so an A55 at 1120 MHz beside an A76 at
    # 1200 MHz would be misread in the A76's cycles
    cores = tuple(M.CoreSpec(H.preset(b).model, M.Synthetic(op="read"))
                  for b in ("rk3588-a76", "rk3588-a55"))
    with pytest.raises(ValueError, match="1120 and 1200 MHz"):
        M.SystemConfig(cores=cores, shared_mem_bandwidth=0.1,
                       duration_cycles=100)


def test_unknown_workload_and_regulator_rejected():
    with pytest.raises(ValueError, match="unknown workload"):
        M.run_system(one_core("not a workload", dur=10))
    with pytest.raises(ValueError, match="unknown regulator"):
        M.run_system(one_core(M.Synthetic(op="read"), regulator=object(),
                              dur=10))


@pytest.mark.parametrize("make,msg", [
    # a bare IndexError or TypeError
    (lambda: M.TraceReplay(((1, frozenset({21})),)),
     r"record 0 \(1, .*\) is not a \(cycle delta, signals, mode\) triple"),
    (lambda: M.TraceReplay((5,)), r"record 0 5 is not a \(cycle delta"),
    (lambda: M.TraceReplay(((1, frozenset({"21"}), "user"),)),
     r"record 0 .* signals are not a set of ints"),
    (lambda: M.TraceReplay(((1, 21, "user"),)),
     r"record 0 \(1, 21, 'user'\) signals are not a set of ints"),
    # "not enough values to unpack"
    (lambda: M.Burst(((M.OP_READ, 640, 0), (M.OP_WRITE, 640))),
     r"burst phase 1 \('write', 640\) is not a \(op, bytes, idle_cycles\)"),
    # an AttributeError
    (lambda: M.SystemConfig((M.Synthetic(op="read"),), 0.1, 100),
     r"core 0 Synthetic\(.*\) is not a CoreSpec"),
    (lambda: M.CoreSpec("zcu102", M.Synthetic(op="read")),
     "core model 'zcu102' is not a CoreModelConfig"),
    (lambda: M.CoreModelConfig(core_type=5), "core_type must be text, got 5"),
], ids=["record-pair", "record-int", "signal-text", "signals-int",
        "phase-pair", "core-workload", "model-name", "core-type-int"])
def test_a_malformed_workload_or_core_is_named(make, msg):
    with pytest.raises(ValueError, match=msg):
        make()


def test_burst_bytes_must_match_cacheline():
    with pytest.raises(ValueError, match="multiple of the 64-byte"):
        M.Burst(((M.OP_READ, 100, 0),))


# ---------------------------------------------------------------------------
# memory controller: cap, fairness, conservation
# ---------------------------------------------------------------------------

def test_unregulated_read_hits_controller_cap():
    tr = M.run_system(one_core(M.Synthetic(op="read"), dur=600_000, cap=0.1))
    mbps = tr.achieved_mbps(0, 1200)
    # 0.1 lines/cycle * 64 B * 1200 MHz = 7680 MB/s, minus queue warm-up
    assert 7660.0 <= mbps <= 7680.0


def test_unregulated_zcu102_read_completes_the_cap():
    # 1000 MB/s at 1200 MHz is 5/384 lines a cycle, which 32.32 fixed point
    # rounded down by a line in 2 ms
    b = H.preset("zcu102")
    assert b.cap_lines_per_cycle() == Fraction(5, 384)
    tr = M.run_system(H.point_system(b, None, M.OP_READ, 2.0))
    assert tr.stats[0].completed_lines == 31_250


# ---------------------------------------------------------------------------
# issue credit
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rate,lines", [
    # ten float additions of 0.1 fell short of a line: one line every
    # 11 cycles, 9,090
    (0.1, 10_000),
    # a clamp before the issue cut the carry of a core that never stalls:
    # 25,000 and 50,000.  Fraction(0.3) and Fraction(0.7) are a hair
    # below 0.3 and 0.7
    (0.3, 29_999), (0.7, 69_999),
    (0.5, 50_000), (0.02, 2_000),
])
def test_synthetic_issues_at_its_exact_rate(rate, lines):
    sc = one_core(M.Synthetic(op="write", issue_ipc_limit=rate),
                  dur=100_000, cap=1.0)
    assert M.run_system(sc).stats[0].issued_lines == lines


@pytest.mark.parametrize("reg", [
    None, mkreg(R.PR, 350.0)[0], R.MemGuardConfig(27, 6000),
    R.MemPolConfig(50, 300),
], ids=["none", "pr", "memguard", "mempol"])
def test_a_stall_banks_no_issues(reg):
    # a saturating read core stalls on its read slots.  A stall banks at
    # most one cycle's credit, so however many slots free at once (all of
    # them, after a throttle), the core issues one line a cycle and no
    # refills collapse into one pulse
    st = M.run_system(one_core(M.Synthetic(op="read"), reg, dur=100_000,
                               cap=2.0)).stats[0]
    assert st.issued_lines > 400
    assert st.pmc_events == st.issued_lines


@pytest.mark.parametrize("op", [M.OP_READ, M.OP_WRITE])
def test_each_line_pulses_the_pmu_adder(op):
    # a modify core whose refill and write-back pulse one signal, the
    # refill's (read) or the write-back's (write): a grant that retires a
    # write-back frees the buffer entry that the next refill takes in the
    # same cycle.  The PMU adder counts both lines, the tap one cycle;
    # ORed pulses counted 661 events
    b = H.preset("zcu102")
    sig = frozenset({21 if op == M.OP_READ else 22})
    model = dataclasses.replace(b.model, refill_signals=sig, wb_signals=sig)
    sc = M.SystemConfig((M.CoreSpec(model, M.Synthetic(op=M.OP_MODIFY)),),
                        b.cap_lines_per_cycle(), 100_000)
    st = M.run_system(sc).stats[0]
    assert (st.issued_lines, st.completed_lines) == (661, 1_302)
    assert (st.pmc_events, st.tap_events) == (1_302, 661)


def test_tiny_rate_runs_and_grants_nothing():
    # no positive rate is below the accumulator's resolution
    sc = one_core(M.Synthetic(op="read"), dur=10_000, cap=1e-12)
    tr = M.run_system(sc)
    assert tr.total_granted == 0
    assert tr == M.run_system(sc, use_hops=False)


def test_round_robin_shares_cap_fairly():
    model = M.CoreModelConfig(**ZCU)
    cores = (M.CoreSpec(model=model, workload=M.Synthetic(op="read")),
             M.CoreSpec(model=model, workload=M.Synthetic(op="read")))
    sc = M.SystemConfig(cores=cores, shared_mem_bandwidth=CAP_1000,
                        duration_cycles=600_000)
    tr = M.run_system(sc)
    a = tr.achieved_mbps(0, 1200)
    b = tr.achieved_mbps(1, 1200)
    assert abs(a - b) < 1.0
    assert 995.0 <= a + b <= 1000.5


def test_grant_retire_conservation(prstop_read_350):
    tr, _, _ = prstop_read_350
    assert tr.total_granted == sum(s.completed_lines for s in tr.stats)
    st = tr.stats[0]
    assert st.completed_lines <= st.issued_lines
    assert st.issued_lines - st.completed_lines <= 8 + 20   # still queued


def test_windows_sum_to_totals(prstop_read_350):
    tr, _, _ = prstop_read_350
    assert tr.window_cycles == 1200 * 1000      # one millisecond
    assert len(tr.windows[0]) == 1              # run is exactly one window
    assert sum(tr.windows[0]) == tr.stats[0].completed_lines
    assert sum(tr.window_events[0]) == tr.stats[0].pmc_events


def test_run_is_deterministic():
    cfg, _, _ = mkreg(R.PR_STOP, 350.0)
    sc = one_core(M.Synthetic(op="read"), cfg, dur=120_000)
    assert M.run_system(sc) == M.run_system(sc)


# ---------------------------------------------------------------------------
# quiet-stretch hopping must be invisible
# ---------------------------------------------------------------------------

def _diff_scenarios():
    zcu = M.CoreModelConfig(**ZCU)
    pr_stop, _, _ = mkreg(R.PR_STOP, 350.0)
    pr, _, _ = mkreg(R.PR, 500.0)
    tb = R.build_config(R.RegulatorSpec(design=R.TB13, budget_events=27,
                                        period_cycles=6000))
    pru = R.build_config(R.RegulatorSpec(design=R.PR_USER, budget_events=27,
                                         period_cycles=6000))
    mg = R.MemGuardConfig(budget_events=27, period_cycles=6000)
    mp = R.MemPolConfig(budget_events=50, poll_cycles=300)
    wfi = M.Burst(pattern=((M.OP_READ, 64 * 40, 3000),
                           (M.OP_MODIFY, 64 * 10, 500)), wfi_idle=True)
    spin = M.Burst(pattern=((M.OP_READ, 64 * 40, 3000),))
    big = M.Burst(pattern=((M.OP_READ, 64 * 200, 8000),))
    single = {
        "pr_stop_read": (M.Synthetic(op="read"), pr_stop),
        "pr_stop_write": (M.Synthetic(op="write"), pr_stop),
        "burst_wfi_pr": (wfi, pr),
        "burst_spin_pr": (spin, pr),
        "tb13_read": (M.Synthetic(op="read"), tb),
        "pr_user_read": (M.Synthetic(op="read"), pru),
        "memguard_quiet": (M.Synthetic(op="read", issue_ipc_limit=0.0), mg),
        "memguard_busy": (M.Synthetic(op="read"), mg),
        "mempol_burst": (big, mp),
        # the write phase ends with a one-cycle idle; the read phase that
        # follows must start on time, not after a hop to the window edge
        "burst_next_phase": (M.Burst(((M.OP_WRITE, 64, 1),
                                      (M.OP_READ, 448, 3000))), None),
    }
    out = {k: one_core(w, r, dur=120_000) for k, (w, r) in single.items()}
    # empty phases around an idle-only phase and a read phase: each phase
    # move passes them, the last one wrapping around to the first
    out["burst_empty_phases_wrap"] = one_core(M.Burst((
        (M.OP_WRITE, 0, 0), (M.OP_READ, 0, 400), (M.OP_MODIFY, 0, 0),
        (M.OP_READ, 64 * 12, 0), (M.OP_WRITE, 0, 0))), pr, dur=60_000)
    # at 1 line/cycle the controller holds a whole line while a single
    # read slot waits out the memory latency
    out["over_grant"] = one_core(M.Synthetic(op="read"),
                                 model=dict(ZCU, read_outstanding=1),
                                 dur=120_000, cap=1.0)
    out["two_core"] = M.SystemConfig(
        cores=(M.CoreSpec(model=zcu, workload=M.Synthetic(op="read"),
                          regulator=pr),
               M.CoreSpec(model=zcu, workload=M.Synthetic(op="modify"))),
        shared_mem_bandwidth=CAP_1000, duration_cycles=120_000)
    # one read slot, zero latency and a handler that polls every cycle
    out["ideal_pr_read"] = one_core(M.Synthetic(op="read"),
                                    mkreg(R.PR, 350.0)[0], model=IDEAL,
                                    dur=120_000)
    # issue credit that builds up over many cycles before each issue
    out["ipc_0.02_pr"] = one_core(M.Synthetic(op="read", issue_ipc_limit=0.02),
                                  mkreg(R.PR, 350.0)[0], dur=120_000)
    out["ipc_0.3_tb13"] = one_core(M.Synthetic(op="modify",
                                               issue_ipc_limit=0.3),
                                   tb, dur=120_000)
    # the handler's kernel lines wait behind a full single read slot
    out["kernel_vs_full_reads"] = one_core(
        M.Synthetic(op="read"), pr_stop,
        model=dict(ZCU, read_outstanding=1, handler_kernel_events=3),
        dur=120_000)
    # a wide bus shared by saturating cores, one line a cycle each
    out["three_core_2.0"] = M.SystemConfig(
        cores=tuple(M.CoreSpec(model=zcu, workload=M.Synthetic(op=op),
                               regulator=reg)
                    for op, reg in ((M.OP_READ, pr), (M.OP_WRITE, None),
                                    (M.OP_MODIFY, mp))),
        shared_mem_bandwidth=2.0, duration_cycles=60_000)
    # MemPol halts a write core whose buffer is full
    out["mempol_full_write"] = one_core(M.Synthetic(op="write"), mp,
                                        dur=120_000)
    # credit reaching a line on a full buffer holds one addition short
    out["ipc_0.7_stalled_write"] = one_core(
        M.Synthetic(op="write", issue_ipc_limit=0.7),
        model=dict(ZCU, write_buffer_depth=2), dur=120_000, cap=0.05)
    # preset rates whose denominators (384, 896) are not powers of two, so
    # the next-grant deadline divides by a numerator that leaves remainders
    zcu102 = H.preset("zcu102")
    out["zcu102_cap_read_write"] = M.SystemConfig(
        cores=tuple(M.CoreSpec(zcu102.model, M.Synthetic(op=op))
                    for op in (M.OP_READ, M.OP_WRITE)),
        shared_mem_bandwidth=zcu102.cap_lines_per_cycle(),
        duration_cycles=120_000)
    a55 = H.preset("rk3588-a55")
    out["rk3588_a55_mempol"] = H.point_system(
        a55, H.regulator_for(R.MEMPOL, a55, 350.0, 5.0), M.OP_READ, 0.1)
    # grant trains.  The write phase starts with reads in flight, which
    # the controller serves first
    cap = zcu102.cap_lines_per_cycle()
    out["burst_read_then_write"] = M.SystemConfig(
        (M.CoreSpec(zcu102.model, M.Burst(((M.OP_READ, 512, 0),
                                           (M.OP_WRITE, 2560, 0)))),),
        cap, 120_000)
    # window edges inside trains
    out["pr_900_window_1000"] = dataclasses.replace(H.point_system(
        zcu102, H.regulator_for(R.PR, zcu102, 900.0, 5.0), M.OP_READ, 0.1),
        window_cycles=1000)
    # a reader that is the sole requester only while its neighbour sleeps
    out["reader_and_wfi_burst"] = M.SystemConfig(
        (M.CoreSpec(zcu102.model, M.Synthetic(op=M.OP_READ)),
         M.CoreSpec(zcu102.model, wfi, pr)), cap, 120_000)
    # a tap of three signals
    a76 = H.preset("rk3588-a76")
    out["rk3588_a76_tb13"] = H.point_system(
        a76, H.regulator_for(R.TB13, a76, 1500.0, 5.0), M.OP_READ, 0.1)
    # a counter that each pulse reloads and each quiet cycle counts down:
    # a probe refuses each pulse, as it fires the reload trigger, so the
    # hop run steps the pulses and hops over the quiet cycles between them
    ext = F.ResourceSelectorConfig(F.EXTERNAL_INPUTS, frozenset({0}))
    zero = F.ResourceSelectorConfig(F.COUNTER_ZERO, frozenset({0}))
    reloaded = F.EtmConfig(
        inputs=(F.ExternalInputSelector(frozenset({21})),),
        selectors=F.HARDWIRED + (ext, zero),
        counters=(F.CounterConfig(0, 50, F.EventSpec(F.TRUE_SEL),
                                  reload_event=F.EventSpec(2)),),
        outputs=(F.ExternalOutputConfig(1, 3),))
    out["pulse_reloaded_counter"] = one_core(M.Synthetic(op="read"), reloaded,
                                             dur=20_000, cap=0.05)
    # counter 1 counts the event tap and each quiet cycle reloads it: a
    # probe refuses each quiet cycle, as it fires the reload trigger, so
    # the hop run steps every cycle, as the per-cycle run does.  At a
    # grant every other cycle it never fires
    zero1 = F.ResourceSelectorConfig(F.COUNTER_ZERO, frozenset({1}))
    quiet_reloaded = F.EtmConfig(
        inputs=(F.ExternalInputSelector(frozenset({21})),),
        selectors=F.HARDWIRED + (ext, zero1),
        counters=(F.CounterConfig(1, 50, F.EventSpec(2), reload_event=(
            F.EventSpec(2, invert_a=True))),),
        outputs=(F.ExternalOutputConfig(1, 3),))
    out["quiet_reloaded_counter_1"] = one_core(
        M.Synthetic(op="read"), quiet_reloaded, dur=20_000, cap=0.5)
    # a chained counter 0 whose value crosses 16 bits: a cycle counter
    # that fires 5 interrupts, and a pulse counter that never fires
    for name, reload_value, inp in (("cycles", 70_000, F.TRUE_SEL),
                                    ("pulses", 65_600, 2)):
        chained = F.EtmConfig(
            inputs=(F.ExternalInputSelector(
                zcu102.model.refill_signals | zcu102.model.wb_signals),),
            selectors=F.HARDWIRED + (ext, zero),
            counters=(F.CounterConfig(0, reload_value, F.EventSpec(inp),
                                      chained=True),),
            outputs=(F.ExternalOutputConfig(1, 3),))
        for op in (M.OP_READ, M.OP_WRITE):
            out["chained_%s_%s" % (name, op)] = M.SystemConfig(
                (M.CoreSpec(zcu102.model, M.Synthetic(op=op), chained),),
                cap, 400_000)
    # drain trains: a throttled core's grants while its interrupt is
    # pending, in its handler, or halted.  Here the handler's kernel lines
    # wait for two read slots, and then the reads drain without pulses; on
    # a bus of a line a cycle the first of those follows the last kernel
    # line's grant in the next cycle, between two held-level polls
    out["drain_pr_kernel_lines"] = one_core(
        M.Synthetic(op="read"), mkreg(R.PR, 350.0)[0],
        model=dict(ZCU, handler_kernel_events=3, read_outstanding=2),
        cap=1.0)
    # the handler's fetch is kernel mode, which `pr-user` does not count
    out["drain_pr_user_write"] = one_core(M.Synthetic(op="write"),
                                          mkreg(R.PR_USER, 350.0)[0])
    # MemGuard charges nothing while throttled
    out["drain_memguard_write"] = H.point_system(
        zcu102, H.regulator_for(R.MEMGUARD, zcu102, 350.0, 5.0),
        M.OP_WRITE, 0.1)
    # a halted core retires its reads, then pulses for its write-backs
    out["drain_mempol_modify"] = H.point_system(
        zcu102, H.regulator_for(R.MEMPOL, zcu102, 350.0, 5.0),
        M.OP_MODIFY, 0.1)
    # held-level polls inside the trains.  A grant every 20 cycles drains
    # the write-backs as the handler's kernel reads come ready, which are
    # served first
    for poll in (1, 20):
        out["drain_pr_stop_write_poll_%d" % poll] = one_core(
            M.Synthetic(op="write"), pr_stop,
            model=dict(ZCU, handler_poll_cycles=poll), cap=0.05)
    # one core drains beside a core whose timer handler now and then
    # queues kernel lines and a core that mostly sleeps
    out["drain_beside_idle_cores"] = M.SystemConfig(
        (M.CoreSpec(zcu102.model, M.Synthetic(op=M.OP_READ),
                    H.regulator_for(R.PR, zcu102, 350.0, 5.0)),
         M.CoreSpec(zcu102.model, M.Synthetic(op=M.OP_READ,
                                              issue_ipc_limit=0.0), mg),
         M.CoreSpec(zcu102.model, M.Burst(((M.OP_WRITE, 640, 20_000),),
                                          wfi_idle=True))), cap, 120_000)
    # modify trains: a grant retires a read, with no pulse while the write
    # buffer stays full, or a write-back, and a freed queue takes a line,
    # whose refill pulses
    for design in (None, R.PR, R.TB13, R.MEMGUARD, R.MEMPOL):
        reg = None if design is None else H.regulator_for(design, zcu102,
                                                          350.0, 5.0)
        out["modify_%s" % design] = H.point_system(zcu102, reg, M.OP_MODIFY,
                                                   0.05)
    # a write buffer of two changes the pulse kind every few grants
    out["modify_wb2_pr"] = M.SystemConfig(
        (M.CoreSpec(dataclasses.replace(zcu102.model, write_buffer_depth=2),
                    M.Synthetic(op=M.OP_MODIFY),
                    H.regulator_for(R.PR, zcu102, 350.0, 5.0)),), cap, 60_000)
    # contention trains: the controller grants one line a cycle at most, in
    # round-robin order among the stalled cores
    pr350 = H.regulator_for(R.PR, zcu102, 350.0, 5.0)
    for n, dur in ((2, 60_000), (4, 40_000), (8, 20_000)):
        out["pr350_read_x%d" % n] = M.SystemConfig(
            (M.CoreSpec(zcu102.model, M.Synthetic(op=M.OP_READ), pr350),) * n,
            cap, dur)
    out["mixed_modify_write_read"] = M.SystemConfig(
        (M.CoreSpec(zcu102.model, M.Synthetic(op=M.OP_MODIFY), pr350),
         M.CoreSpec(zcu102.model, M.Synthetic(op=M.OP_WRITE),
                    H.regulator_for(R.MEMGUARD, zcu102, 350.0, 5.0)),
         M.CoreSpec(zcu102.model, M.Synthetic(op=M.OP_READ))), cap, 60_000)
    out["victim_pr150_writers"] = M.SystemConfig(
        (M.CoreSpec(zcu102.model, M.Synthetic(op=M.OP_READ)),)
        + (M.CoreSpec(zcu102.model, M.Synthetic(op=M.OP_WRITE),
                      H.regulator_for(R.PR, zcu102, 150.0, 5.0)),) * 3,
        cap, 60_000)
    # one core drains in its handler, its kernel lines waiting for read
    # slots, while the other stalls on its write buffer
    out["handler_drain_beside_stall"] = M.SystemConfig(
        (M.CoreSpec(dataclasses.replace(zcu102.model,
                                        handler_kernel_events=4),
                    M.Synthetic(op=M.OP_READ),
                    H.regulator_for(R.PR_STOP, zcu102, 350.0, 5.0)),
         M.CoreSpec(zcu102.model, M.Synthetic(op=M.OP_WRITE))), cap, 60_000)
    # the picked core waits for its own head while the other's comes ready
    # first: a single read slot each, one with a shorter memory latency, on
    # a bus of half a line a cycle
    out["waits_while_other_head_ready"] = M.SystemConfig(
        tuple(M.CoreSpec(dataclasses.replace(zcu102.model, read_outstanding=1,
                                             mem_latency_cycles=lat),
                         M.Synthetic(op=M.OP_READ), pr350)
              for lat in (40, 25)), 0.5, 60_000)
    # a sole requester that lags the controller: the window edges, every
    # 997 cycles, are visits at which the core does not step
    out["lagging_sole_requester"] = dataclasses.replace(
        H.point_system(zcu102, pr350, M.OP_READ, 0.1), window_cycles=997)
    # a `write` core with reads in flight: each burst's write phase starts
    # with the read phase's reads still queued, and its write buffer fills
    out["write_with_read_in_flight"] = M.SystemConfig(
        (M.CoreSpec(dataclasses.replace(zcu102.model, write_buffer_depth=4),
                    M.Burst(((M.OP_READ, 64 * 16, 0),
                             (M.OP_WRITE, 64 * 64, 0))),
                    H.regulator_for(R.PR, zcu102, 350.0, 5.0)),), cap,
        120_000)
    # a core without requests, here a replay whose records step it, steps
    # inside the trains of the others
    rng = random.Random(5)
    replay = M.TraceReplay(tuple(
        (rng.randint(0, 400),
         frozenset(rng.sample((21, 22), rng.randint(1, 2))),
         F.KERNEL if rng.random() < 0.15 else F.USER) for _ in range(300)))
    out["bursty_four_core_replay"] = M.SystemConfig(
        (M.CoreSpec(zcu102.model, M.Burst(((M.OP_READ, 64 * 60, 0),
                                           (M.OP_MODIFY, 64 * 40, 2000))),
                    pr350),
         M.CoreSpec(zcu102.model, M.Burst(((M.OP_WRITE, 64 * 100, 500),),
                                          wfi_idle=True),
                    H.regulator_for(R.MEMGUARD, zcu102, 600.0, 10.0)),
         M.CoreSpec(zcu102.model, M.Synthetic(op=M.OP_MODIFY,
                                              issue_ipc_limit=0.5),
                    H.regulator_for(R.MEMPOL, zcu102, 350.0, 5.0)),
         M.CoreSpec(zcu102.model, replay,
                    H.regulator_for(R.TB13, zcu102, 500.0, 2.5))),
        cap, 60_000)
    # issue runs: a core refilling its free queue slots takes those issues
    # in one hop.  A `pr` read core refills its read slots after each
    # handler exit
    out["ramp_pr_read_after_handler"] = H.point_system(
        zcu102, H.regulator_for(R.PR, zcu102, 350.0, 5.0), M.OP_READ, 0.05)
    # a write burst starts on an accumulator that holds a line, so its first
    # write-back is granted the cycle after it issues
    out["ramp_write_full_accumulator"] = one_core(
        M.Burst(((M.OP_WRITE, 64 * 30, 3000),)), pr, cap=0.05, dur=60_000)
    # a `pr` budget of 5 events, below the 8 read slots: the counter fires
    # mid-ramp
    pr5 = R.build_config(R.RegulatorSpec(design=R.PR, budget_events=5,
                                         period_cycles=6000))
    out["ramp_cut_by_pulse_budget"] = one_core(M.Synthetic(op="read"), pr5,
                                               dur=60_000)
    # the level held while the interrupt is pending: the ramp goes on into
    # 16 read slots once MemGuard's budget runs out, which it no longer
    # charges, and the handler's entry, 12 cycles on, ends it
    out["ramp_while_pending"] = one_core(
        M.Synthetic(op="read"),
        R.MemGuardConfig(budget_events=5, period_cycles=6000),
        model=dict(ZCU, irq_latency_cycles=12, read_outstanding=16),
        dur=60_000)
    # MemGuard's `remaining` budget ends a ramp
    out["ramp_cut_by_memguard_budget"] = one_core(
        M.Burst(((M.OP_READ, 64 * 40, 2000),)),
        R.MemGuardConfig(budget_events=5, period_cycles=6000), dur=60_000)
    # a MemPol poll every 5 cycles, the regulator's `quiet_span`, ends a
    # ramp
    out["ramp_cut_by_quiet_span"] = one_core(
        M.Burst(((M.OP_READ, 64 * 40, 2000),)),
        R.MemPolConfig(budget_events=50, poll_cycles=5), dur=60_000)
    # two cores whose bursts start runs in the same cycle
    out["ramps_in_one_cycle"] = M.SystemConfig(
        (M.CoreSpec(zcu102.model, M.Burst(((M.OP_READ, 64 * 24, 1500),)),
                    pr350),) * 2, cap, 60_000)
    # a window edge every 13 cycles falls inside the ramps
    out["ramp_window_13"] = dataclasses.replace(
        out["ramp_pr_read_after_handler"], window_cycles=13)
    # one read slot whose read is ready the cycle it issues; a credit of
    # 0.6 leaves the slot free after some grants
    for cap_ in (0.05, 0.5):
        out["ramp_latency_0_one_slot_%s" % cap_] = one_core(
            M.Synthetic(op="read", issue_ipc_limit=0.6), pr,
            model=dict(ZCU, mem_latency_cycles=0, read_outstanding=1),
            dur=60_000, cap=cap_)
    # on a bus of two lines a cycle, a run that fills an empty single read
    # slot makes the core a second requester beside a stalled reader, so
    # their grants step, as the controller may serve both in one cycle
    out["ramp_from_empty_beside_requester"] = M.SystemConfig(
        (M.CoreSpec(zcu102.model, M.Synthetic(op=M.OP_READ)),
         M.CoreSpec(dataclasses.replace(zcu102.model, read_outstanding=1,
                                        mem_latency_cycles=3),
                    M.Synthetic(op=M.OP_READ, issue_ipc_limit=0.6))),
        2.0, 20_000)
    # a fractional credit issues at the cycles of its closed form
    out["ramp_ipc_0.6_modify"] = one_core(
        M.Synthetic(op="modify", issue_ipc_limit=0.6), pr5, dur=60_000)
    # at a memory latency of 0, a modify run's first head is its first
    # read, ready in the cycle it issues, not its write-back a cycle later
    out["ramp_modify_latency_0"] = one_core(
        M.Synthetic(op="modify", issue_ipc_limit=0.3),
        model=dict(ZCU, mem_latency_cycles=0), dur=60_000, cap=0.9)
    # share openings inside the train.  A `modify` burst with a write
    # buffer of two opens its share at each phase start, filling the
    # buffer, and its grants in the same train then retire a write-back
    # and issue a line, pulsing both signals, which MemGuard charges twice
    # where its opening's refills cost one each
    out["modify_opening_then_both_pulses"] = M.SystemConfig(
        (M.CoreSpec(dataclasses.replace(zcu102.model, write_buffer_depth=2),
                    M.Burst(((M.OP_MODIFY, 64 * 40, 1500),)),
                    H.regulator_for(R.MEMGUARD, zcu102, 350.0, 5.0)),), cap,
        60_000)
    # two bursts open their shares in one cycle and then contend for a
    # bus of half a line a cycle; the second's reads, at a memory latency
    # of 3, come ready long before the first's opening ends
    out["two_openings_under_contention"] = M.SystemConfig(
        (M.CoreSpec(zcu102.model, M.Burst(((M.OP_READ, 64 * 24, 1500),)),
                    pr350),
         M.CoreSpec(dataclasses.replace(zcu102.model, mem_latency_cycles=3),
                    M.Burst(((M.OP_READ, 64 * 24, 1500),)), pr350)), 0.5,
        60_000)
    # a low-rate writer, not stalled, beside a burst reader: it drains in
    # their rotations up to its next issue, its credit building up.  A
    # `bursty` benchmark system whose trains a requester that was not
    # stalled refused 70 times
    out["low_rate_writer_beside_burst_reader"] = M.SystemConfig(
        (M.CoreSpec(zcu102.model, M.Burst(((M.OP_READ, 3008, 839),))),
         M.CoreSpec(zcu102.model, M.Synthetic(op=M.OP_WRITE,
                                              issue_ipc_limit=0.02),
                    H.regulator_for(R.PR_STOP, zcu102, 179.2, 10.0))),
        cap, 40_000)
    # rotations: the stalled cores whose heads are ready take the grants in
    # round-robin turns, each keeping its run from one turn to the next.  A
    # saturating burst reader and a writer alternate
    writer = M.CoreSpec(zcu102.model, M.Synthetic(op=M.OP_WRITE))
    out["rotation_burst_read_write"] = M.SystemConfig(
        (M.CoreSpec(zcu102.model, M.Burst(((M.OP_READ, 64 * 2000, 0),))),
         writer), cap, 60_000)
    # a share whose credit gains half a line a cycle
    out["rotation_credit_0.5"] = M.SystemConfig(
        (M.CoreSpec(zcu102.model, M.Synthetic(op=M.OP_MODIFY,
                                              issue_ipc_limit=0.5), pr350),
         M.CoreSpec(zcu102.model, M.Burst(((M.OP_WRITE, 64 * 2000, 0),)))),
        cap, 60_000)
    # the single read slot of a third core, with a shorter memory latency,
    # comes ready between the turns of two stalled writers
    out["rotation_cut_by_head"] = M.SystemConfig(
        (writer,
         M.CoreSpec(dataclasses.replace(zcu102.model, read_outstanding=1,
                                        mem_latency_cycles=25),
                    M.Synthetic(op=M.OP_READ)),
         writer), cap, 60_000)
    # a `pr` budget of 5 events ends one share's run inside a rotation
    out["rotation_cut_by_pulse_budget"] = M.SystemConfig(
        (M.CoreSpec(zcu102.model, M.Synthetic(op=M.OP_READ), pr5), writer),
        cap, 60_000)
    # idle drains: a burst core's write-backs drain in its idle phase
    # beside a stalled reader, on a bus of half a line a cycle, its fabric
    # frozen under `wfi_idle`.  A 50-cycle idle phase mostly ends before
    # they drain, where the train would go on, and the next phase's issues
    # end it; a 5000-cycle one outlasts the drain
    for idle in (50, 5000):
        for wfi_ in (False, True):
            out["idle_drain_%d_wfi_%s" % (idle, wfi_)] = M.SystemConfig(
                (M.CoreSpec(zcu102.model,
                            M.Burst(((M.OP_WRITE, 64 * 40, idle),
                                     (M.OP_READ, 64 * 8, 0)), wfi_idle=wfi_),
                            pr350),
                 M.CoreSpec(zcu102.model, M.Synthetic(op=M.OP_READ))),
                0.5, 60_000)
    # a sole share's single read slot comes ready long after the controller
    # holds a line: the train waits for the head, the accumulator capped
    out["sole_share_waits_for_head"] = one_core(
        M.Synthetic(op="read"), model=dict(ZCU, read_outstanding=1),
        dur=60_000, cap=0.05)
    # and a head bunched right behind the one it waits for: a 3-line
    # modify burst drains its write-backs, then the controller waits for
    # the first read, 100 cycles after its issue.  Capped at one line
    # while it waits, the accumulator holds the next line only after the
    # idle phase ends, though the second read is ready the next cycle
    out["sole_share_waits_then_bunched_head"] = one_core(
        M.Burst(((M.OP_MODIFY, 64 * 3, 108),)),
        model=dict(ZCU, mem_latency_cycles=100), dur=20_000, cap=0.05)
    # MemGuard charges an idle core's write-back pulses, frozen or not
    out["idle_drain_memguard"] = M.SystemConfig(
        (M.CoreSpec(zcu102.model, M.Burst(((M.OP_MODIFY, 64 * 40, 400),),
                                          wfi_idle=True),
                    R.MemGuardConfig(budget_events=12, period_cycles=3000)),
         writer), cap, 60_000)
    # silent core-steps ride in hops: the interrupt machine's moves inside
    # the handler and the fabric's latch clears.  A handler whose entry
    # and exit take no cycles still moves a cycle after each began
    out["handler_entry_exit_0"] = one_core(
        M.Synthetic(op="read"), pr, dur=60_000,
        model=dict(ZCU, handler_entry_cycles=0, handler_exit_cycles=0))
    out["handler_poll_1"] = one_core(
        M.Synthetic(op="read"), pr, dur=60_000,
        model=dict(ZCU, handler_poll_cycles=1))
    # the period ends during a handler entry longer than it: the level
    # drops there, and the first poll finds it low
    out["level_drops_in_entry"] = one_core(
        M.Synthetic(op="read"), mkreg(R.PR, 350.0, period_us=2.5)[0],
        model=dict(ZCU, handler_entry_cycles=4000), dur=60_000)
    # MemGuard's handler sleeps until the timer's refill drops the level
    out["memguard_woken_by_refill"] = H.point_system(
        zcu102, H.regulator_for(R.MEMGUARD, zcu102, 350.0, 5.0), M.OP_READ,
        0.05)
    # a cycle counter fires in the cycle before each idle phase, and the
    # frozen fabric holds the latch that it set across the phase
    ticker = F.EtmConfig(counters=(F.CounterConfig(0, 14, F.EventSpec(
        F.TRUE_SEL)),))
    out["wfi_idle_holds_latch"] = one_core(
        M.Burst(((M.OP_READ, 64 * 7, 3000),), wfi_idle=True), ticker,
        dur=40_000)
    # a counter whose input reads a zero signal: there a cycle that
    # changes the latch steps
    latched = random_config(random.Random(196))
    assert F._Kernel(F._shape_of(latched)).reads_latch()
    out["random_config_reads_latch"] = one_core(M.Synthetic(op="read"),
                                                latched, dur=20_000)
    return out


_DIFF = _diff_scenarios()


@pytest.mark.parametrize("reg", [
    None, mkreg(R.PR, 350.0)[0], R.MemGuardConfig(27, 6000),
    R.MemPolConfig(50, 300),
], ids=["none", "pr", "memguard", "mempol"])
def test_every_slot_is_declared_once(reg):
    # each slot of a core and of its regulator runtime is a constant,
    # state, a statistic or a probe cache, so that a slot added later
    # without a declaration cannot escape the differential's snapshot
    st = M.CoreState(M.CoreSpec(M.CoreModelConfig(**ZCU),
                                M.Synthetic(op="read"), reg))
    rt = st.reg
    for obj, groups in ((st, (M._CONSTANTS, M._STATE, M._STATS)),
                        (rt, (rt._CONSTANTS, rt._STATE, rt._PROBES))):
        names = sorted(n for group in groups for n in group)
        slots = sorted(n for cls in type(obj).__mro__
                       for n in vars(cls).get("__slots__", ()))
        assert names == slots
        assert not hasattr(obj, "__dict__")
        for name in names:
            getattr(obj, name)          # each is set when the run starts


def _record_steps(mp, at=()):
    """From now on, count the core-steps in `.steps`.  If `at` is None,
    record in `.states` the grants, `M.snapshot` and statistics that each
    core steps from, by (cycle, core index); else assert at each step that
    `at` holds, the record of another run, that they match it."""
    rec = SimpleNamespace(steps=0, states={})
    cycles = None if at is None else {cycle for cycle, _ in at}
    index = {}
    core_cycle = M._core_cycle

    def recording(st, cycle, grants):
        rec.steps += 1
        if at is None or cycle in cycles:
            # every core steps at cycle 0, in order, which numbers the cores
            key = cycle, index.setdefault(id(st), len(index))
            if at is None:
                rec.states[key] = grants, M.snapshot(st), M._stats_of(st)
            elif key in at:
                assert (grants, M.snapshot(st), M._stats_of(st)) == at[key], \
                    key
        core_cycle(st, cycle, grants)

    mp.setattr(M, "_core_cycle", recording)
    return rec


def _assert_hops_exactly(monkeypatch, sc):
    """Each core that the hop run of `sc` steps starts that cycle from the
    grants, state and statistics that the per-cycle run has there, and the
    results match (`pytest -l` shows the system)."""
    with monkeypatch.context() as mp:
        hop = _record_steps(mp, None)
        hopped = M.run_system(sc)
    with monkeypatch.context() as mp:
        _record_steps(mp, hop.states)
        assert M.run_system(sc, use_hops=False) == hopped


@pytest.mark.parametrize("name", sorted(_DIFF))
def test_hop_fast_path_is_exact(monkeypatch, name):
    _assert_hops_exactly(monkeypatch, _DIFF[name])


def _random_workload(rng):
    ops = (M.OP_READ, M.OP_PREFETCH, M.OP_WRITE, M.OP_MODIFY)
    kind = rng.randrange(3)
    if kind == 0:
        return M.Synthetic(rng.choice(ops), issue_ipc_limit=rng.choice(
            (0.0, 0.02, 0.3, 1.0, 0.7, 0.95)))
    if kind == 1:
        pattern = [(rng.choice(ops),
                    64 * rng.choice((0, 1, 2, rng.randint(0, 200))),
                    rng.choice((0, 1, rng.randint(0, 5000))))
                   for _ in range(rng.randint(1, 3))]
        if not any(nbytes or idle for _, nbytes, idle in pattern):
            pattern[0] = (pattern[0][0], 64, 0)
        return M.Burst(tuple(pattern), wfi_idle=rng.random() < 0.5)
    return M.TraceReplay(tuple(
        (rng.choice((0, 1, 2, rng.randint(0, 600))),
         frozenset(rng.sample((7, 21, 22), rng.randint(1, 2))),
         rng.choice(("user", "user", "kernel")))
        for _ in range(rng.randint(0, 200))))


def _random_regulator(rng):
    design = rng.choice(R.ALL_DESIGNS + (None,))
    budget = rng.randint(1, 60)
    if design is None:
        return None
    if design == R.MEMGUARD:
        return R.MemGuardConfig(budget, rng.randint(300, 20_000))
    if design == R.MEMPOL:
        return R.MemPolConfig(budget, rng.randint(50, 2000))
    return R.build_config(R.RegulatorSpec(design, budget,
                                          rng.randint(300, 8000)))


def _random_model(rng, **signals):
    return M.CoreModelConfig(
        irq_latency_cycles=rng.choice((0, 1, 5, 81, 300)),
        read_outstanding=rng.randint(1, 10),
        write_buffer_depth=rng.randint(1, 24),
        mem_latency_cycles=rng.choice((0, 1, 3, 40, 120)),
        handler_entry_cycles=rng.choice((0, 1, 30)),
        handler_poll_cycles=rng.choice((1, 2, 20)),
        handler_exit_cycles=rng.choice((0, 1, 20)),
        handler_kernel_events=rng.randint(0, 3), **signals)


def _random_core(rng):
    return M.CoreSpec(_random_model(rng), _random_workload(rng),
                      _random_regulator(rng))


_RATES = (0.01, 0.05, 0.2, 0.5, 1.0, 2.0)


def _random_system(rng):
    cores = [_random_core(rng) for _ in range(rng.randint(1, 3))]
    rate = rng.choice(_RATES + (rng.uniform(0.005, 2.0),))
    # now and then a longer run, so busy queues hop many times
    longest = rng.choice((40_000,) * 7 + (120_000,))
    return M.SystemConfig(cores=tuple(cores), shared_mem_bandwidth=rate,
                          duration_cycles=rng.randint(5000, longest))


def test_random_systems_hop_exactly(monkeypatch):
    # every valid system must hop to exactly the per-cycle result, and
    # none may raise
    rng = random.Random(1)
    for _ in range(100):
        _assert_hops_exactly(monkeypatch, _random_system(rng))


def test_many_lagging_cores_hop_exactly(monkeypatch):
    # the controller arbitrates among many cores, each on its own time
    rng = random.Random(2)
    for case in range(20):
        sc = M.SystemConfig(
            cores=tuple(_random_core(rng) for _ in range(rng.randint(4, 8))),
            shared_mem_bandwidth=2.0 if case % 4 == 0 else rng.choice(
                _RATES + (rng.uniform(0.005, 2.0),)),
            duration_cycles=rng.randint(2000, 20_000))
        _assert_hops_exactly(monkeypatch, sc)


def test_random_contention_hops_exactly(monkeypatch):
    # 2-4 saturating burst and synthetic cores under random designs share
    # the zcu102 controller, so their grants go in rotations
    rng = random.Random(7)
    b = H.preset("zcu102")
    ops = (M.OP_READ, M.OP_WRITE, M.OP_MODIFY)
    for _ in range(30):
        cores = []
        for _ in range(rng.randint(2, 4)):
            design = rng.choice(R.ALL_DESIGNS + (None,))
            reg = None if design is None else H.regulator_for(
                design, b, rng.choice((150.0, 350.0, 700.0)),
                rng.choice((2.5, 5.0)))
            if rng.random() < 0.5:
                w = M.Synthetic(rng.choice(ops), issue_ipc_limit=rng.choice(
                    (1.0, 0.5, 0.3)))
            else:
                w = M.Burst(tuple(
                    (rng.choice(ops), 64 * rng.randint(8, 300),
                     rng.choice((0, 50, 2000)))
                    for _ in range(rng.randint(1, 2))),
                    wfi_idle=rng.random() < 0.5)
            cores.append(M.CoreSpec(b.model, w, reg))
        _assert_hops_exactly(monkeypatch, M.SystemConfig(
            tuple(cores), b.cap_lines_per_cycle(), rng.randint(8000, 20_000)))


def test_random_fabric_configs_hop_exactly(monkeypatch):
    # any fabric config, not only the six designs, with the core's pulses
    # on one or both of the signals its taps may monitor
    rng = random.Random(13)
    for _ in range(50):
        sigs = {k: frozenset(rng.sample((21, 22), rng.randint(1, 2)))
                for k in ("refill_signals", "wb_signals")}
        reg = rng.choice((random_config, random_config_small))(rng)
        sc = M.SystemConfig(
            cores=(M.CoreSpec(_random_model(rng, **sigs),
                              _random_workload(rng), reg),),
            shared_mem_bandwidth=rng.choice((0.013, 0.05, 0.2, 1.0)),
            duration_cycles=rng.randint(5000, 40_000))
        _assert_hops_exactly(monkeypatch, sc)


def test_the_per_cycle_run_steps_every_core_every_cycle(monkeypatch):
    # the differential trusts the run without hops to step each core at
    # each cycle, so no hop, train or share opening may slip into it
    sc = dataclasses.replace(_DIFF["ramps_in_one_cycle"],
                             duration_cycles=20_000)
    rec = _record_steps(monkeypatch)

    def planner(*args):
        raise AssertionError("the run without hops planned a hop")

    for name in ("_train", "_step", "_opening"):
        monkeypatch.setattr(M, name, planner)
    M.run_system(sc, use_hops=False)
    assert rec.steps == len(sc.cores) * sc.duration_cycles


# cycles each 0.1 ms single-core scenario stepped while the hop rule still
# refused any queued traffic: (board, design, target MB/s, op) -> cycles
_STEPPED_BEFORE = {
    ("zcu102", None, 0.0, M.OP_READ): 120_000,
    ("zcu102", R.PR, 350.0, M.OP_READ): 44_986,
    ("zcu102", R.PR, 350.0, M.OP_WRITE): 45_746,
    ("zcu102", R.PR, 950.0, M.OP_READ): 113_580,
    ("zcu102", R.TB13, 1000.0, M.OP_READ): 120_000,
    ("zcu102", R.MEMGUARD, 350.0, M.OP_READ): 45_588,
    ("zcu102", R.MEMPOL, 350.0, M.OP_READ): 49_128,
    ("ideal", R.PR, 350.0, M.OP_READ): 120_000,
}


# and since a sole requester takes its grants as trains in every phase
# whose only events are grants, and a core refilling its free queue slots
# takes those issues as a run.  Each stepped one grant at a time before
# trains: 1,570, 821, 1,100, 1,761, 1,803, 864, 675 and 659 in this order.
# Trains outside interrupt phases and throttles alone stepped 8, 537,
# 1,037, 537, 446, 524, 52 and 159; while a lone core's train took the
# grants of one queue and one pulse kind only 8, 318, 596, 318, 284, 302,
# 35 and 139; before issue runs 8, 298, 576, 298, 264, 282, 35 and 139;
# and while the interrupt machine's moves in the handler and the fabric's
# latch clears each stepped 1, 158, 196, 158, 158, 142, 20 and 139
_STEPPED_WITH_TRAINS = {
    ("zcu102", None, 0.0, M.OP_READ): 1,
    ("zcu102", R.PR, 350.0, M.OP_READ): 80,
    ("zcu102", R.PR, 350.0, M.OP_WRITE): 119,
    ("zcu102", R.PR, 950.0, M.OP_READ): 80,
    ("zcu102", R.TB13, 1000.0, M.OP_READ): 80,
    ("zcu102", R.MEMGUARD, 350.0, M.OP_READ): 81,
    ("zcu102", R.MEMPOL, 350.0, M.OP_READ): 20,
    ("ideal", R.PR, 350.0, M.OP_READ): 119,
}


@pytest.mark.parametrize("board,design,target,op", sorted(
    _STEPPED_BEFORE, key=str))
def test_saturating_runs_step_a_tenth_of_their_cycles(monkeypatch, board,
                                                      design, target, op):
    # the count of stepped cycles repeats exactly, so it guards the hop
    # rule's reach against host noise
    b = H.preset(board)
    reg = None if design is None else H.regulator_for(design, b, target, 5.0)
    sc = H.point_system(b, reg, op, 0.1)
    rec = _record_steps(monkeypatch)
    M.run_system(sc)
    assert sc.duration_cycles == 120_000
    assert rec.steps * 10 <= _STEPPED_BEFORE[board, design, target, op]
    assert rec.steps <= _STEPPED_WITH_TRAINS[board, design, target, op]


def test_a_floor_search_near_the_cap_steps_few_cores(monkeypatch):
    # its probes are bus-bound runs, whose grants go one by one to a lone
    # core: 2,088 core-steps before trains, 986 before drain trains, 608
    # while a lone core's train took the grants of one queue and one pulse
    # kind only, 570 before issue runs, and 338 while the handler's moves
    # each stepped.  The count repeats exactly, so it guards the trains
    # and runs against host noise
    rec = _record_steps(monkeypatch)
    H.calibrate_safe_floor("zcu102", R.MEMGUARD, 2.5, duration_ms=0.015)
    assert rec.steps <= 191


@pytest.mark.parametrize("design,op,ms,steps", [
    # a user's sweep point: 53,997 core-steps before drain trains, 31,998
    # while a lone core's train took the grants of one queue and one pulse
    # kind only, 29,998 before issue runs, and 15,998 while the handler's
    # moves and the fabric's latch clears each stepped
    (R.PR, M.OP_READ, 10.0, 8_000),
    # the handler's fetch is kernel mode, which `pr-user` does not count:
    # 1,038 core-steps before drain trains, 1,017 when the pulse budget
    # probed a user-mode fetch, 597 while a lone core's train took the
    # grants of one queue and one pulse kind only, 577 before issue runs,
    # and 197 while the handler's moves each stepped
    (R.PR_USER, M.OP_WRITE, 0.1, 119),
], ids=["pr-read-10ms", "pr-user-write-0.1ms"])
def test_a_throttled_core_drains_in_trains(monkeypatch, design, op, ms,
                                           steps):
    # the grants during the interrupt latency and the handler take one hop
    # each train.  The count repeats exactly, so it guards the drain
    # trains against host noise
    b = H.preset("zcu102")
    sc = H.point_system(b, H.regulator_for(design, b, 350.0, 5.0), op, ms)
    rec = _record_steps(monkeypatch)
    M.run_system(sc)
    assert rec.steps <= steps


@pytest.mark.parametrize("design", [R.PR, R.TB13, R.PR_USER])
def test_a_pulse_budget_asks_the_kernel_probe_once(monkeypatch, design):
    # a read point of 200 regulation periods: 800 kernel probes, and 1,000
    # (1,001 under `pr-user`) while a counter at its reload value took a
    # second probe to tell a reload from a held value.  The count repeats
    # exactly
    probes = [0]
    init = M._Fabric.__init__

    def counting(reg, cfg, st):
        init(reg, cfg, st)
        probe = reg.probe

        def probing(*args):
            probes[0] += 1
            return probe(*args)
        reg.probe = probing

    monkeypatch.setattr(M._Fabric, "__init__", counting)
    b = H.preset("zcu102")
    M.run_system(H.point_system(b, H.regulator_for(design, b, 350.0, 5.0),
                                M.OP_READ, 1.0))
    assert probes[0] <= 800


def test_a_lone_core_on_a_full_bus_takes_trains(monkeypatch):
    # a bus of a line a cycle granted a lone reader one line a step:
    # 24,000 core-steps, and 8 while it stepped in each cycle that issued
    # its first reads.  It now steps once: a run issues the rest of its
    # first reads, and one train, which waits for each read to come ready,
    # takes every grant after them
    b = H.preset("zcu102")
    rec = _record_steps(monkeypatch)
    st = M.run_system(M.SystemConfig(
        (M.CoreSpec(b.model, M.Synthetic(op=M.OP_READ)),), 1.0,
        120_000)).stats[0]
    assert st.completed_lines == 23_992
    assert rec.steps <= 1


def test_a_lone_core_moves_a_line_a_cycle_on_a_wide_bus():
    # a bus of two lines a cycle granted a modify core its read and its
    # write-back in one cycle, and the tap saw one pulse for both:
    # tap_events read 22,500
    b = H.preset("zcu102")
    st = M.run_system(M.SystemConfig(
        (M.CoreSpec(b.model, M.Synthetic(op=M.OP_MODIFY)),), 2.0,
        100_000)).stats[0]
    assert (st.completed_lines, st.pmc_events, st.tap_events) == (
        39_992, 40_000, 39_993)


# core-steps of 0.1 ms saturating `pr`@350 read systems on zcu102, since
# the grants to several requesters take one hop and each core's refill of
# its read slots one run: cores -> core-steps.  While a hop still had to
# suit every core at once they stepped 821, 3,130, 6,508 and 12,856 times,
# with trains for a sole requester only 318, 1,628, 1,768 and 1,936, a
# lone core 318 while its train took the grants of one queue and one pulse
# kind only, 298, 597, 212 and 376 before issue runs, and 158, 317, 184
# and 320 while the handler's moves and the latch clears each stepped
_CORE_STEPS = {1: 80, 2: 160, 4: 96, 8: 168}


@pytest.mark.parametrize("n", sorted(_CORE_STEPS))
def test_idle_neighbours_do_not_step(monkeypatch, n):
    # each core steps only at its own events and outside trains; the count
    # repeats exactly, so it guards the gain against host noise
    b = H.preset("zcu102")
    sc = H.point_system(b, H.regulator_for(R.PR, b, 350.0, 5.0),
                        M.OP_READ, 0.1)
    sc = dataclasses.replace(sc, cores=sc.cores * n)
    rec = _record_steps(monkeypatch)
    M.run_system(sc)
    assert sc.duration_cycles == 120_000
    assert rec.steps <= _CORE_STEPS[n]


# core-steps of 0.1 ms saturating zcu102 modify points at 350 MB/s, since a
# modify core takes its grants as trains and its refills as runs: design ->
# core-steps.  Each grant stepped it before: 1,570, 442, 845 and 660; 9,
# 337, 344 and 38 while its drain in a train took the grants of one queue
# and one pulse kind only; 9, 317, 324 and 37 before issue runs; and 2,
# 198, 203 and 23 while the handler's moves and the latch clears each
# stepped
_MODIFY_STEPS = {None: 2, R.PR: 120, R.MEMGUARD: 142, R.MEMPOL: 23}


@pytest.mark.parametrize("design", sorted(_MODIFY_STEPS, key=str))
def test_a_modify_core_takes_trains(monkeypatch, design):
    # a grant retires a read with no pulse while the write buffer stays
    # full, or a write-back, and then the core may issue a line whose
    # refill pulses.  The count repeats exactly
    b = H.preset("zcu102")
    reg = None if design is None else H.regulator_for(design, b, 350.0, 5.0)
    rec = _record_steps(monkeypatch)
    M.run_system(H.point_system(b, reg, M.OP_MODIFY, 0.1))
    assert rec.steps <= _MODIFY_STEPS[design]


def test_a_victim_among_writers_takes_contention_trains(monkeypatch):
    # an unregulated reader and three `pr`@150 writers on zcu102 for 0.2 ms:
    # 5,405 core-steps while the grants to several stalled cores each
    # stepped one, 2,492 before issue runs, and 1,255 while the handler's
    # moves and the latch clears each stepped.  The count repeats exactly
    b = H.preset("zcu102")
    writer = M.CoreSpec(b.model, M.Synthetic(op=M.OP_WRITE),
                        H.regulator_for(R.PR, b, 150.0, 5.0))
    sc = M.SystemConfig(
        (M.CoreSpec(b.model, M.Synthetic(op=M.OP_READ)),) + (writer,) * 3,
        b.cap_lines_per_cycle(), 240_000)
    rec = _record_steps(monkeypatch)
    M.run_system(sc)
    assert rec.steps <= 702


# runs set up (`_Share.open` calls) per system, since several shares take
# their grants in rotations, each keeping its run from turn to turn, and
# silent read grants need none: scenario -> set-ups.  While each contention
# pick called `_Share.take`, which set up a run, they called it 737, 781
# and 780 times, and the first 193 while the handler's moves each stepped
_SETUPS = {"bursty_four_core_replay": 191, "rotation_burst_read_write": 2,
           "rotation_credit_0.5": 26}


@pytest.mark.parametrize("name", sorted(_SETUPS))
def test_rotations_set_up_few_runs(monkeypatch, name):
    # the count repeats exactly, so it guards the rotations against host
    # noise
    opened = []
    opener = M._Share.open

    def counting(share, q):
        opened.append(q)
        return opener(share, q)

    monkeypatch.setattr(M._Share, "open", counting)
    M.run_system(_DIFF[name])
    assert len(opened) <= _SETUPS[name]


# core-steps, since a core in an idle burst phase drains in trains:
# scenario -> core-steps.  While each grant to it stepped they stepped 469
# and 305 times, 302 and 152 while the handler's moves and the latch
# clears each stepped, and 185 and 114 while a core that stepped inside a
# train ended it and opened its share only at the loop's next visit
_DRAIN_STEPS = {"drain_beside_idle_cores": 181,
                "ramp_write_full_accumulator": 114}


@pytest.mark.parametrize("name", sorted(_DRAIN_STEPS))
def test_idle_phases_drain_in_trains(monkeypatch, name):
    # the count repeats exactly
    rec = _record_steps(monkeypatch)
    M.run_system(_DIFF[name])
    assert rec.steps <= _DRAIN_STEPS[name]


# per scenario: shares that took neither an issue nor a grant, and the
# regulators' `quiet_span` and `pulse_budget` calls, since an opening's
# checks that need no probe come before its share is built, a share is
# built at its first turn, and a requester that is not stalled drains in
# the train.  While an issue run built its share first, every requester
# got a share when the train was set up, and such a requester refused the
# whole train, they read 137 and 868, 0 and 119, 53 and 375, and 155 and
# 294.  The low-rate writer's drains, refused then, now take their
# grants, which probes its budget where it stepped: 225 core-steps then,
# 154 now
_FUTILE = {"bursty_four_core_replay": (5, 867),
           "ramp_pr_read_after_handler": (0, 119),
           "ramps_in_one_cycle": (10, 369),
           "low_rate_writer_beside_burst_reader": (3, 366)}


@pytest.mark.parametrize("name", sorted(_FUTILE))
def test_hops_build_few_futile_shares(monkeypatch, name):
    # the counts repeat exactly
    made, issued = [], set()
    probes = [0]
    init, count = M._Share.__init__, M._Share.count

    def making(share, *args):
        made.append(share)
        init(share, *args)

    def counting(share, n, issues, kind):
        if issues and n:
            issued.add(id(share))
        return count(share, n, issues, kind)

    monkeypatch.setattr(M._Share, "__init__", making)
    monkeypatch.setattr(M._Share, "count", counting)
    for cls in (M._Unregulated, M._Fabric, M._MemGuard, M._MemPol):
        for method in ("quiet_span", "pulse_budget"):
            if method in vars(cls):
                def probing(*args, _probe=vars(cls)[method]):
                    probes[0] += 1
                    return _probe(*args)
                monkeypatch.setattr(cls, method, probing)
    M.run_system(_DIFF[name])
    futile = sum(1 for s in made if s.last == s.t and id(s) not in issued)
    most_futile, most_probes = _FUTILE[name]
    assert futile <= most_futile
    assert probes[0] <= most_probes


# `_train` calls that take no grant per scenario, since the loop calls it
# only when a queue head and the controller's next line both come before
# the next step, and a core that steps opens its share itself.  While the
# loop also called it at each visit where a core was due the next cycle,
# to open that core's share, they read 160, 249, 3,415 and 343.  On a bus
# of a line a cycle or more, several requesters take their grants in
# steps, which the loop no longer asks a train for: `three_core_2.0`
# read 12,730 while it did
_FUTILE_TRAINS = {"drain_pr_stop_write_poll_20": 0,
                  "idle_drain_50_wfi_False": 3,
                  "random_config_reads_latch": 0,
                  "sole_share_waits_then_bunched_head": 19,
                  "three_core_2.0": 0}


@pytest.mark.parametrize("name", sorted(_FUTILE_TRAINS))
def test_trains_take_grants(monkeypatch, name):
    # the counts repeat exactly
    futile = [0]
    train = M._train

    def counting(*args):
        out = train(*args)
        futile[0] += not out[0]
        return out

    monkeypatch.setattr(M, "_train", counting)
    M.run_system(_DIFF[name])
    assert futile[0] <= _FUTILE_TRAINS[name]


# core-steps, since the handler's moves that only relabel its core (its
# entry's end, its polls and the poll or wake-up that finds the level low)
# ride in hops: scenario -> core-steps.  While each moved in a step of its
# own they stepped 78, 69, 121 and 72 times
_HANDLER_STEPS = {"handler_entry_exit_0": 41, "handler_poll_1": 40,
                  "level_drops_in_entry": 62, "memguard_woken_by_refill": 41}


@pytest.mark.parametrize("name", sorted(_HANDLER_STEPS))
def test_handler_moves_ride_in_hops(monkeypatch, name):
    # the count repeats exactly
    rec = _record_steps(monkeypatch)
    M.run_system(_DIFF[name])
    assert rec.steps <= _HANDLER_STEPS[name]


# ---------------------------------------------------------------------------
# regulation accuracy
# ---------------------------------------------------------------------------

def test_pr_long_run_within_two_percent(pr_read_350):
    tr, q, p = pr_read_350
    achieved = tr.achieved_mbps(0, 1200)
    assert abs(achieved - 350.0) / 350.0 <= 0.02
    # the residue is budget rounding: 27 lines per 5 us period = 345.6
    assert achieved == pytest.approx(q * 64 * 1200 / p, rel=0.01)


def test_pr_stop_read_overshoot_bounded(prstop_read_350):
    tr, q, _ = prstop_read_350
    per = tr.periods[0]
    assert len(per) == 200
    thr = [r for r in per if r.throttled]
    assert thr, "a saturating stream must throttle"
    ov = [r.pmc_events - q for r in thr]
    assert max(ov) <= 8                  # outstanding-read window
    assert 0 < sum(ov) / len(ov) <= 8


def test_pr_stop_write_drain_matches_buffer(prstop_write_350):
    tr, q, _ = prstop_write_350
    thr = [r for r in tr.periods[0] if r.throttled]
    assert thr
    mean = sum(r.pmc_events - q for r in thr) / len(thr)
    assert 15.0 <= mean <= 25.0          # ~write_buffer_depth once stopped


def test_pr_tracks_target_closer_than_pr_stop(pr_read_350, prstop_read_350):
    a, _, _ = pr_read_350
    b, _, _ = prstop_read_350
    err_pr = abs(a.achieved_mbps(0, 1200) - 350.0)
    err_stop = abs(b.achieved_mbps(0, 1200) - 350.0)
    assert err_pr < err_stop


def test_handler_traffic_is_counted(prstop_read_350):
    tr, _, _ = prstop_read_350
    st = tr.stats[0]
    assert st.irq_count == 200                   # one per throttled period
    assert st.kernel_lines == st.irq_count * 2   # handler_kernel_events
    assert st.throttle_entries == 200
    assert 0 < st.handler_cycles < st.throttled_cycles
    assert st.idle_cycles == 0


def test_ideal_model_tracks_budget_quantum():
    cfg, _, _ = mkreg(R.PR, 512.0)
    tr = M.run_system(one_core(M.Synthetic(op="read"), cfg, model=IDEAL,
                               dur=600_000))
    limit = 64 * 1200 / 6000             # one cacheline per period, MB/s
    assert abs(tr.achieved_mbps(0, 1200) - 512.0) <= limit


def test_overshoot_monotone_in_irq_latency():
    maxes = []
    for lat in (0, 40, 81, 162):
        cfg, q, _ = mkreg(R.PR_STOP, 350.0)
        tr = M.run_system(one_core(M.Synthetic(op="read"), cfg,
                                   model=dict(ZCU, irq_latency_cycles=lat),
                                   dur=240_000))
        thr = [r for r in tr.periods[0] if r.throttled]
        maxes.append(max(r.pmc_events - q for r in thr))
    assert maxes == sorted(maxes)


# ---------------------------------------------------------------------------
# interrupt-cost contrasts between designs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("lat,entry,poll,exit_", [
    (81, 30, 20, 20), (0, 0, 1, 0), (1, 1, 3, 1), (5, 0, 7, 0)])
def test_interrupt_phases_move_on_time(monkeypatch, lat, entry, poll, exit_):
    # a replay's pulse on signal 21 at cycle 100 fires counter 0, which
    # moves the sequencer to the throttling state, and one on 22 at 400
    # fires counter 1, which moves it back.  The level raises the
    # interrupt at 100, pending from 101; each phase moves in the first
    # cycle at or after its end and never in the one it began, so a phase
    # of 0 cycles lasts one; the first poll after 400 finds the level low
    sel = F.ResourceSelectorConfig
    cfg = F.EtmConfig(
        inputs=(F.ExternalInputSelector({21}), F.ExternalInputSelector({22})),
        selectors=F.HARDWIRED + (
            sel(F.EXTERNAL_INPUTS, {0}), sel(F.EXTERNAL_INPUTS, {1}),
            sel(F.COUNTER_ZERO, {0}), sel(F.COUNTER_ZERO, {1}),
            sel(F.SEQUENCER_STATE, {1})),
        counters=(F.CounterConfig(0, 1, F.EventSpec(2)),
                  F.CounterConfig(1, 1, F.EventSpec(3))),
        sequencer=F.SequencerConfig(forward=(4, 1, 1), backward=(5, 1, 1)),
        outputs=(F.ExternalOutputConfig(1, 6),))
    sc = one_core(M.TraceReplay(((100, {21}, F.USER), (300, {22}, F.USER))),
                  cfg, dur=1000, model=dict(
                      ZCU, irq_latency_cycles=lat, handler_entry_cycles=entry,
                      handler_poll_cycles=poll, handler_exit_cycles=exit_))
    moves = {}
    core_cycle = M._core_cycle

    def recording(st, cycle, grants):
        phase = st.irq_phase
        core_cycle(st, cycle, grants)
        if st.irq_phase != phase:
            moves[cycle] = st.irq_phase

    monkeypatch.setattr(M, "_core_cycle", recording)
    M.run_system(sc, use_hops=False)
    enter = 101 + max(lat, 1)
    wait = enter + max(entry, 1)
    leave = wait + -(-(401 - wait) // poll) * poll
    assert moves == {100: M._IRQ_PENDING, enter: M._IRQ_ENTRY,
                     wait: M._IRQ_WAIT, leave: M._IRQ_EXIT,
                     leave + max(exit_, 1): M._IRQ_NONE}


def test_memguard_timer_fires_every_period_even_when_quiet():
    mg = R.MemGuardConfig(budget_events=27, period_cycles=1_200_000)
    sc = one_core(M.Synthetic(op="read", issue_ipc_limit=0.0), mg,
                  dur=12_000_000)
    st = M.run_system(sc).stats[0]
    assert st.irq_count >= 12_000_000 // 1_200_000      # 10 periods
    assert st.completed_lines == st.kernel_lines        # handler-only traffic
    assert st.handler_cycles >= st.irq_count * 50       # entry + exit


def test_fabric_designs_raise_no_interrupts_when_quiet():
    cfg, _, _ = mkreg(R.PR, 350.0)
    sc = one_core(M.Synthetic(op="read", issue_ipc_limit=0.0), cfg,
                  dur=12_000_000)
    st = M.run_system(sc).stats[0]
    assert st.irq_count == 0
    assert st.throttled_cycles == 0
    assert st.completed_lines == 0


def test_mempol_halts_without_interrupts():
    mp = R.MemPolConfig(budget_events=20, poll_cycles=300)
    sc = one_core(M.Burst(pattern=((M.OP_READ, 64 * 200, 8000),)), mp,
                  dur=240_000)
    st = M.run_system(sc).stats[0]
    assert st.throttled_cycles > 0       # bursts blow the window budget
    assert st.irq_count == 0             # halt line, not an interrupt
    assert st.handler_cycles == 0


# ---------------------------------------------------------------------------
# idle semantics
# ---------------------------------------------------------------------------

def test_wfi_idle_freezes_the_fabric():
    pat = ((M.OP_READ, 64 * 40, 3000),)
    # budget far above burst demand so neither run ever throttles
    cfg = R.build_config(R.RegulatorSpec(design=R.PR, budget_events=200,
                                         period_cycles=6000))
    spin = M.run_system(one_core(M.Burst(pattern=pat), cfg, dur=240_000))
    wfi = M.run_system(one_core(M.Burst(pattern=pat, wfi_idle=True), cfg,
                                dur=240_000))
    assert spin.stats[0].irq_count == 0 and wfi.stats[0].irq_count == 0
    # identical core timing, so identical architectural idle time
    assert wfi.stats[0].idle_cycles == spin.stats[0].idle_cycles
    assert wfi.stats[0].completed_lines == spin.stats[0].completed_lines
    # but the frozen unit sees far fewer period boundaries
    assert len(spin.periods[0]) == 40
    assert len(wfi.periods[0]) < len(spin.periods[0])


# ---------------------------------------------------------------------------
# scripted pulse replay
# ---------------------------------------------------------------------------

def test_trace_replay_drives_the_regulator():
    model = dict(ZCU, handler_kernel_events=0)
    cfg = R.build_config(R.RegulatorSpec(design=R.PR, budget_events=5,
                                         period_cycles=100))
    recs = [(2, frozenset({21}), "user")] * 6    # pulses at 2,4,...,12
    recs.append((238, frozenset({21, 22}), "user"))  # two events at 250
    tr = M.run_system(one_core(M.TraceReplay(records=recs), cfg,
                               model=model, dur=300))
    st = tr.stats[0]
    assert (st.pmc_events, st.tap_events) == (8, 7)
    assert st.completed_lines == 0               # replay issues no memory ops
    assert st.irq_count == 1
    per = tr.periods[0]
    assert len(per) == 3
    assert per[0].pmc_events == 6 and per[0].throttled
    assert per[1].pmc_events == 0 and not per[1].throttled
    # the PMU adder counts both events, the tap one cycle
    assert (per[2].pmc_events, per[2].tap_events) == (2, 1)
    assert not per[2].throttled


def test_trace_replay_rejects_a_negative_delta():
    # a step back in time used to leave every later record unreplayed:
    # pmc_events read 1 of 3
    refill = frozenset({21})
    recs = [(5, refill, "user"), (-3, refill, "user"), (10, refill, "user")]
    with pytest.raises(ValueError, match=r"record 1 \(-3, .*negative"):
        M.TraceReplay(records=recs)


@pytest.mark.parametrize("rec,msg", [
    # a misspelt mode used to replay silently as user mode
    ((1, frozenset({21}), "Kernel"), "has mode 'Kernel'"),
    ((1, frozenset({21}), "hyp"), "has mode 'hyp'"),
    # a negative signal used to fail in run_system: "negative shift count"
    ((2, frozenset({22, -1}), "user"), "has a negative signal"),
], ids=["Kernel", "hyp", "negative signal"])
def test_trace_replay_rejects_a_bad_record(rec, msg):
    recs = [(1, frozenset({21}), "kernel"), rec]
    with pytest.raises(ValueError, match=r"record 1 \(.*\) " + msg):
        M.TraceReplay(records=recs)


def test_user_gated_design_ignores_kernel_traffic():
    model = dict(ZCU, handler_kernel_events=0)
    cfg = R.build_config(R.RegulatorSpec(design=R.PR_USER, budget_events=5,
                                         period_cycles=100))
    user = [(2, frozenset({21}), "user")] * 6
    # the mode tracker follows the fetch stream, so a kernel episode is a
    # run of consecutive kernel-mode fetches, not isolated one-cycle flips
    kern = [(0 if i == 0 else 1, frozenset({21}), "kernel")
            for i in range(6)]
    tu = M.run_system(one_core(M.TraceReplay(records=user), cfg,
                               model=model, dur=300))
    tk = M.run_system(one_core(M.TraceReplay(records=kern), cfg,
                               model=model, dur=300))
    assert tu.stats[0].throttled_cycles > 0
    assert tk.stats[0].throttled_cycles == 0
    assert tk.stats[0].pmc_events == 6           # the tap still sees them


def test_achieved_mbps_arithmetic():
    tr = M.SystemTrace(duration_cycles=1_200_000, window_cycles=100,
                       windows=((),), window_events=((),),
                       stats=(M.CoreStats(1875, 1875, 0, 0, 0, 0, 0, 0, 0,
                                          0),),
                       periods=((),), total_granted=1875)
    assert tr.achieved_mbps(0, 1200) == pytest.approx(120.0)
