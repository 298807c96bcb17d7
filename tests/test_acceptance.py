"""Top-level acceptance checks: one test per numbered end-to-end claim.

Each test exercises a user-facing guarantee across module boundaries and
prints a single ``criterion N: PASS/FAIL — detail`` line (visible with -s
and in failure reports) before asserting on the same condition.  The
tolerances here are the advertised ones; loosening them is a behavior
change, not a test fix.
"""

import gc
import random
import time

import pytest

import etmreg.accounting as A
import etmreg.fabric as F
import etmreg.harness as H
import etmreg.machine as M
import etmreg.regprog as RP
import etmreg.regulators as R

import reference_fabric as RF
import reference_regulators as RR


def _verdict(n, ok, detail):
    print("criterion %d: %s — %s" % (n, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d: %s" % (n, detail)


# =========================================================================
# 1. fabric equivalence at scale
# =========================================================================

def test_01_fabric_matches_reference_at_scale():
    """1,000 random configs x 10,000-cycle random streams: the compiled
    stepper's trajectory equals the naive per-cycle interpreter's, cycle
    for cycle, in under a minute."""
    rng = random.Random(20260501)
    n_configs, n_cycles = 1000, 10000

    # everything random is drawn up front; the timed region below is
    # purely stepping
    jobs = []
    for _ in range(n_configs):
        cfg = RF.random_config_small(rng)
        cf = F.compile_fabric(cfg)
        pal = RF.stream_palette(rng, cfg)
        rows = [pal[i] for i in rng.choices(range(len(pal)), k=n_cycles)]
        jobs.append((cfg, cf, rows))

    mismatches = 0
    gc.disable()
    t0 = time.perf_counter()
    try:
        for cfg, cf, rows in jobs:
            stp, idl = cf.step, cf.idle_out
            prev = cf.reset_tuple()
            got = []
            ga = got.append
            for ps, cs, idle, pm, cm in rows:
                if idle:
                    cur = (prev[0], prev[1], prev[2], prev[3], prev[4],
                           False, False, idl(prev[2], prev[3], prev[4]))
                else:
                    cur = stp(prev[0], prev[1], prev[2], prev[3], prev[4],
                              pm, cm)
                ga(cur)
                prev = cur

            st = cf.reset_tuple() + (False, False, 0)
            want = []
            wa = want.append
            for ps, cs, idle, pm, cm in rows:
                st = RF.reference_step(cfg, st, ps, cs, idle)
                wa(st)

            if got != want:
                mismatches += sum(1 for g, w in zip(got, want) if g != w)
    finally:
        gc.enable()
    elapsed = time.perf_counter() - t0

    _verdict(1, mismatches == 0 and elapsed < 60.0,
             "%d configs x %d cycles: %d mismatches, %.1f s (budget 60 s)"
             % (n_configs, n_cycles, mismatches, elapsed))


# =========================================================================
# 2. counter-width gate
# =========================================================================

def test_02_counter_width_gate():
    """The 16-bit cycle counter caps the replenishment period: 40 us at
    2000 MHz must be rejected, 32.7 us accepted, and the cap at 1200 MHz
    is 54.6 us."""
    with pytest.raises(R.RangeError):
        RP.compile(R.RegulatorSpec(R.PR, 100, int(round(40.0 * 2000))))
    prog = RP.compile(R.RegulatorSpec(R.PR, 100, int(round(32.7 * 2000))))
    accepted = len(prog.writes) > 0
    cap_2000 = RP.max_period(2000)
    cap_1200 = RP.max_period(1200)
    _verdict(2, accepted and cap_2000 == 32.7 and cap_1200 == 54.6,
             "40 us @ 2 GHz rejected, 32.7 us accepted; max period "
             "%.1f us @ 2 GHz, %.1f us @ 1.2 GHz" % (cap_2000, cap_1200))


# =========================================================================
# 3. selector budgets of the two fabric layouts
# =========================================================================

def test_03_selector_budgets():
    """The period-replenished layout fits in 6 of the 16 selector slots
    and the bucket layout in 13, both passing full validation."""
    pr = R.build_pr_config(R.RegulatorSpec(R.PR, 27, 6000))
    tb = R.build_tb_config(R.RegulatorSpec(R.TB13, 27, 6000))
    F.validate_config(pr)
    F.validate_config(tb)
    _verdict(3, len(pr.selectors) == 6 and len(tb.selectors) == 13,
             "period-replenished uses %d/16 selectors, bucket uses %d/16"
             % (len(pr.selectors), len(tb.selectors)))


# =========================================================================
# 4. exactness on the ideal platform
# =========================================================================

def test_04_ideal_platform_accuracy():
    """With the shortest interrupt path the model has (each 0-cycle
    interrupt phase lasts a cycle, so the handler starts two cycles after
    the level rises) and single-entry queues, every target below the
    memory cap is hit to within one budget quantum per period."""
    ideal = H.preset("ideal")
    period_us = 50.0
    quantum = H.budget_to_bandwidth(1, period_us)
    worst = 0.0
    bad = 0
    targets = (40.0, 160.0, 280.0, 400.0, 520.0, 640.0, 760.0, 880.0,
               999.0)
    for tgt in targets:
        reg = H.regulator_for(R.PR, ideal, tgt, period_us)
        sysc = M.SystemConfig(
            cores=(M.CoreSpec(ideal.model, M.Synthetic(M.OP_READ), reg),),
            shared_mem_bandwidth=ideal.cap_lines_per_cycle(),
            duration_cycles=1_800_000)   # 30 whole periods
        ach = M.run_system(sysc).achieved_mbps(0, ideal.freq_mhz)
        err = abs(ach - tgt)
        worst = max(worst, err)
        bad += err > quantum
    _verdict(4, bad == 0,
             "%d targets across (0, cap): worst error %.3f MB/s, "
             "quantum %.3f MB/s" % (len(targets), worst, quantum))


# =========================================================================
# 5. carry vs. stop-only accuracy on the zcu102 preset
# =========================================================================

def test_05_carry_vs_stop_only():
    """At a 5 us period on the zcu102 preset: the stop-only design
    overshoots each period by at most 8 lines on reads and by about the
    write-buffer depth (20 +/- 25%) on writes; the carrying design stays
    within 2% of every target from 350 MB/s up and beats stop-only's
    error everywhere."""
    b = H.preset("zcu102")
    targets = (350.0, 550.0, 750.0, 950.0)
    pr_in_band = prs_read_ov = prs_write_ov = pr_wins = True
    detail = []
    for op in (M.OP_READ, M.OP_WRITE):
        for tgt in targets:
            rp = H.run_point(b, R.PR, tgt, op, 5.0, 1.0)
            rs = H.run_point(b, R.PR_STOP, tgt, op, 5.0, 1.0)
            pr_err = abs(rp.achieved_mbps - tgt)
            if pr_err > 0.02 * tgt:
                pr_in_band = False
            if pr_err >= abs(rs.achieved_mbps - tgt):
                pr_wins = False
            if op == M.OP_READ and rs.max_window_overshoot_events > 8:
                prs_read_ov = False
            # near the cap a write run barely throttles and the
            # overshoot collapses, so the buffer-depth band is checked
            # where regulation actually bites
            if (op == M.OP_WRITE and tgt <= 750.0
                    and not 15 <= rs.max_window_overshoot_events <= 25):
                prs_write_ov = False
            detail.append("%s/%g: pr %+.1f, stop %+.1f, ov %d"
                          % (op, tgt, rp.achieved_mbps - tgt,
                             rs.achieved_mbps - tgt,
                             rs.max_window_overshoot_events))
    _verdict(5, pr_in_band and prs_read_ov and prs_write_ov and pr_wins,
             "; ".join(detail))


# =========================================================================
# 6. bucket trajectory against the arithmetic oracle
# =========================================================================

def test_06_bucket_matches_token_oracle():
    """100 random (design, budget, period) triples within counter range:
    the fabric's (sequencer state, counter values) track an independent
    token-bucket model every single cycle, as does the throttle line."""
    rng = random.Random(77)
    thr_min = {R.TB31: 3, R.TB22: 2, R.TB13: 1}
    cycles_checked = 0
    bad = 0
    for _ in range(100):
        design = rng.choice((R.TB31, R.TB22, R.TB13))
        budget = rng.randint(3, 120)
        period = rng.randint(10, 400)
        cfg = R.build_tb_config(R.RegulatorSpec(design, budget, period))
        ref = RR.TokenBucket(budget, period)
        density = rng.choice((0.1, 0.4, 0.9))
        evs = [rng.random() < density for _ in range(500)]
        rows = RR.drive(cfg, [(21,) if ev else () for ev in evs])
        for ev, r in zip(evs, rows):
            ref.step(ev)
            cycles_checked += 1
            if (r[RR.SEQ], r[RR.CV0], r[RR.CV1]) != ref.expected():
                bad += 1
            if RR.throttled(r) != (ref.debt >= thr_min[design]):
                bad += 1
    _verdict(6, bad == 0,
             "100 triples, %d cycles compared, %d divergences"
             % (cycles_checked, bad))


# =========================================================================
# 7. bucket depth: floors and saturation behavior
# =========================================================================

def test_07_bucket_depth_tradeoff():
    """Deeper buckets enforce less aggressively: the single-step bucket
    has the lowest usable floor and the three-step bucket the highest,
    while at a saturating target the single-step bucket flaps through
    >100 throttle interrupts per millisecond and the deeper ones none."""
    f13 = H.calibrate_safe_floor("zcu102", R.TB13, 5, duration_ms=0.5)
    f22 = H.calibrate_safe_floor("zcu102", R.TB22, 5, duration_ms=0.5)
    f31 = H.calibrate_safe_floor("zcu102", R.TB31, 5, duration_ms=0.5)
    b = H.preset("zcu102")
    r13 = H.run_point(b, R.TB13, 1000.0, M.OP_READ, 5.0, 1.0)
    r22 = H.run_point(b, R.TB22, 1000.0, M.OP_READ, 5.0, 1.0)
    r31 = H.run_point(b, R.TB31, 1000.0, M.OP_READ, 5.0, 1.0)
    _verdict(7, (f13 < f22 < f31 and r13.irqs_per_ms > 100
                 and r22.irqs_per_ms == 0 and r31.irqs_per_ms == 0),
             "floors %.1f < %.1f < %.1f MB/s; at the cap: %.0f vs %.0f "
             "vs %.0f irqs/ms"
             % (f13, f22, f31, r13.irqs_per_ms, r22.irqs_per_ms,
                r31.irqs_per_ms))


# =========================================================================
# 8. accounting-model realizability gate
# =========================================================================

def test_08_model_realizability_gate():
    """Models that need more than four inputs or non-uniform weights are
    rejected with a reason; the three-signal a76 model passes."""
    with pytest.raises(A.NotEtmRealizable) as e_frac:
        A.model_for("cortex-a78", "moderate2")
    with pytest.raises(A.NotEtmRealizable) as e_inputs:
        A.model_for("cortex-a78", "moderate1")
    ok_a76 = A.model_for("cortex-a76", "moderate2").etm_realizable
    frac_ok = "fractional factor in the sum" in str(e_frac.value)
    inputs_ok = ("requires monitoring of six ETM PMU inputs"
                 in str(e_inputs.value))
    _verdict(8, frac_ok and inputs_ok and ok_a76,
             "a78/moderate2: %r; a78/moderate1: %r; a76/moderate2 "
             "realizable: %s" % (str(e_frac.value), str(e_inputs.value),
                                 ok_a76))


# =========================================================================
# 9. count-ratio predictions and calibrated simulation
# =========================================================================

def test_09_count_ratios():
    """Collision-free a53 ratios are 1.00/1.00/2.00 for read/write/modify;
    the calibrated pulse profiles give the measured a72 adder-view read
    ratio (1.76 +/- 0.03) and the a76 OR-view read ratio (1.90 +/- 0.05)."""
    m53 = A.model_for("cortex-a53")
    mix = {"read": 0.25, "write": 0.25, "modify": 0.5}
    r = A.expected_ratios(m53, mix, collision_prob=0.0)
    a53_ok = (abs(r["read"].pmu - 1.0) <= 0.01
              and abs(r["write"].pmu - 1.0) <= 0.01
              and abs(r["modify"].pmu - 2.0) <= 0.01
              and r["read"].etm == r["read"].pmu)
    r72 = A.emit_profile("cortex-a72", "default", "read").ratios
    r76 = A.emit_profile("cortex-a76", "moderate2", "read").ratios
    a72_ok = abs(r72.pmu - 1.76) <= 0.03
    a76_ok = abs(r76.etm - 1.90) <= 0.05
    _verdict(9, a53_ok and a72_ok and a76_ok,
             "a53 read/write/modify %.2f/%.2f/%.2f; a72 read adder view "
             "%.3f; a76 read OR view %.3f"
             % (r["read"].pmu, r["write"].pmu, r["modify"].pmu,
                r72.pmu, r76.etm))


# =========================================================================
# 10. interrupt economy and burst containment
# =========================================================================

def test_10_interrupt_economy_and_bursts():
    """A core whose total traffic stays under one budget raises zero
    interrupts under every fabric design over 100 ms, while the
    timer-replenished baseline fires one per period regardless; and at a
    burst onset the polling baseline lets through at least a poll
    interval of peak-rate lines where the fabric design's overshoot stays
    within its latency + in-flight bound."""
    b = H.preset("zcu102")
    dur = int(round(100 * b.freq_mhz * 1000))
    wl = M.Burst(((M.OP_READ, 2 * 64, 10_500_000),))
    irqs = {}
    for d in (R.MEMGUARD,) + R.ETM_DESIGNS:
        period_us = 1000.0 if d == R.MEMGUARD else 5.0
        reg = H.regulator_for(d, b, 350.0, period_us)
        sysc = M.SystemConfig(cores=(M.CoreSpec(b.model, wl, reg),),
                              shared_mem_bandwidth=b.cap_lines_per_cycle(),
                              duration_cycles=dur)
        irqs[d] = M.run_system(sysc).stats[0].irq_count
    quiet_ok = (irqs[R.MEMGUARD] >= 100
                and all(irqs[d] == 0 for d in R.ETM_DESIGNS))

    poll = b.period_cycles(6.25)
    peak = b.cap_lines_per_cycle()
    wl = M.Burst(((M.OP_READ, 400 * 64, 120000),))
    mp = H.regulator_for(R.MEMPOL, b, 100.0, 6.25)
    sysc = M.SystemConfig(cores=(M.CoreSpec(b.model, wl, mp),),
                          shared_mem_bandwidth=peak,
                          duration_cycles=600000,
                          window_cycles=poll)
    tr = M.run_system(sysc)
    episode = []
    for w in tr.windows[0]:
        if w:
            episode.append(w)
        elif episode:
            break
    poll_overshoot = sum(episode) - mp.budget_events

    pr = H.regulator_for(R.PR, b, 100.0, 5.0)
    sysc = M.SystemConfig(cores=(M.CoreSpec(b.model, wl, pr),),
                          shared_mem_bandwidth=peak,
                          duration_cycles=600000,
                          window_cycles=poll)
    tr = M.run_system(sysc)
    budget = H.bandwidth_to_budget(100.0, 5.0)
    pr_overshoot = max((p.pmc_events - budget
                        for p in tr.periods[0] if p.throttled), default=0)
    pr_bound = b.model.irq_latency_cycles * peak + b.model.read_outstanding
    burst_ok = (poll_overshoot >= peak * poll and pr_overshoot <= pr_bound)

    _verdict(10, quiet_ok and burst_ok,
             "quiet 100 ms irqs: timer-replenished %d, fabric designs %s; "
             "burst onset: polling overshoot %.0f events (>= %.1f), "
             "fabric overshoot %d (<= %.1f)"
             % (irqs[R.MEMGUARD],
                [irqs[d] for d in R.ETM_DESIGNS],
                poll_overshoot, peak * poll, pr_overshoot, pr_bound))


# =========================================================================
# 11. compile/lift round trip
# =========================================================================

def test_11_compile_lift_round_trip():
    """lifting a compiled register program reproduces the directly built
    fabric config for 200 random regulator specs, and the two configs
    drive byte-identical simulations."""
    rng = random.Random(4242)
    cores = ("cortex-a53", "cortex-a57", "cortex-a72", "cortex-a55",
             "cortex-a76", "cortex-a78")
    structural_bad = 0
    for _ in range(200):
        spec = R.RegulatorSpec(rng.choice(R.ETM_DESIGNS),
                               rng.randint(1, 0xFFFF),
                               rng.randint(16, 0xFFFF),
                               core_type=rng.choice(cores))
        model = A.model_for(spec.core_type)
        direct = R.build_config(spec, signals=sorted(model.signals))
        if RP.lift(RP.compile(spec)) != direct:
            structural_bad += 1

    b = H.preset("zcu102")
    sim_bad = 0
    for design in R.ETM_DESIGNS:
        spec = R.RegulatorSpec(design, 40, 6000)
        model = A.model_for(spec.core_type)
        direct = R.build_config(spec, signals=sorted(model.signals))
        lifted = RP.lift(RP.compile(spec))
        traces = []
        for cfg in (direct, lifted):
            sysc = M.SystemConfig(
                cores=(M.CoreSpec(b.model, M.Synthetic(M.OP_READ), cfg),),
                shared_mem_bandwidth=b.cap_lines_per_cycle(),
                duration_cycles=240000)
            traces.append(M.run_system(sysc))
        ta, tb_ = traces
        if not (ta.windows == tb_.windows and ta.stats == tb_.stats
                and ta.periods == tb_.periods
                and ta.total_granted == tb_.total_granted):
            sim_bad += 1
    _verdict(11, structural_bad == 0 and sim_bad == 0,
             "200 specs: %d structural mismatches; %d of %d differential "
             "simulations diverged"
             % (structural_bad, sim_bad, len(R.ETM_DESIGNS)))


# =========================================================================
# 12. sweep reproducibility
# =========================================================================

def test_12_sweep_reproducibility(tmp_path):
    """Running the same sweep configuration twice yields byte-identical
    CSV output."""
    cfg = H.ExperimentConfig(board="zcu102", designs=(R.PR, R.TB22),
                             targets_mbps=(250.0, 500.0),
                             op_types=(M.OP_READ,), period_us=5.0,
                             duration_ms=0.3)
    res1 = H.run_sweep(cfg)
    res2 = H.run_sweep(cfg)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    H.write_csv(res1.rows, p1)
    H.write_csv(res2.rows, p2)
    b1 = p1.read_bytes()
    b2 = p2.read_bytes()
    _verdict(12, b1 == b2 and len(b1) > 0 and res1.failures == res2.failures,
             "two runs, %d rows each, %d CSV bytes, identical: %s"
             % (len(res1.rows), len(b1), b1 == b2))
