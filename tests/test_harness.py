"""Tests for the sweep harness: budgets, presets, points, CSV/SVG."""

import pytest

import etmreg.harness as H
import etmreg.machine as M
import etmreg.regulators as R
from etmreg.regulators import RangeError


# =========================================================================
# budget arithmetic
# =========================================================================

def test_bandwidth_to_budget_examples():
    assert H.bandwidth_to_budget(350, 5) == 27
    assert H.bandwidth_to_budget(0.0128, 5) == 1      # floor of one line
    assert H.bandwidth_to_budget(10000, 50) == 7813


def test_budget_counter_range():
    b = H.preset("zcu102")
    # the 16-bit limit belongs to the fabric, not to the conversion
    assert H.bandwidth_to_budget(10000, 500) == 78125
    with pytest.raises(RangeError, match="budget 78125 exceeds 16-bit"):
        H.regulator_for(R.PR, b, 100000, 50)
    assert H.regulator_for(R.MEMGUARD, b, 10000, 500).budget_events == 78125
    with pytest.raises(RangeError):
        H.bandwidth_to_budget(-1, 5)
    with pytest.raises(RangeError):
        H.bandwidth_to_budget(100, 0)


INF, NAN = float("inf"), float("nan")


@pytest.mark.parametrize("us", [INF, -INF, NAN])
def test_a_non_finite_time_is_named(us):
    # inf raised a bare OverflowError, nan "cannot convert float NaN to
    # integer"
    with pytest.raises(RangeError, match="%r us is not a finite time" % us):
        H.us_to_cycles(us, 1200)


@pytest.mark.parametrize("target,period,name", [
    (INF, 5, "target_mbps inf"), (NAN, 5, "target_mbps nan"),
    (350, INF, "period_us inf"), (350, NAN, "period_us nan"),
])
def test_a_non_finite_budget_input_is_named(target, period, name):
    # inf overflowed in the rounding; nan passed the sign check
    with pytest.raises(RangeError, match=name + " is not a positive finite"):
        H.bandwidth_to_budget(target, period)


def test_budget_to_bandwidth_inverse():
    assert H.budget_to_bandwidth(27, 5) == pytest.approx(345.6)
    b = H.bandwidth_to_budget(345.6, 5)
    assert H.budget_to_bandwidth(b, 5) == pytest.approx(345.6)


# =========================================================================
# presets and per-point regulators
# =========================================================================

def test_zcu102_preset():
    b = H.preset("zcu102")
    assert b.model.core_type == "cortex-a53"
    assert (b.freq_mhz, b.model.irq_latency_cycles) == (1200, 81)
    assert b.period_cycles(5) == 6000
    assert b.cap_lines_per_cycle() == pytest.approx(1000 / (64 * 1200))


def test_unknown_preset():
    with pytest.raises(KeyError, match="unknown board"):
        H.preset("devboard9000")


def test_regulator_for_each_kind():
    b = H.preset("zcu102")
    cfg = H.regulator_for(R.PR, b, 350, 5)
    assert cfg == R.build_config(R.RegulatorSpec(R.PR, 27, 6000))
    mg = H.regulator_for(R.MEMGUARD, b, 350, 1000)
    assert mg == R.MemGuardConfig(budget_events=5469,
                                  period_cycles=1_200_000)
    mp = H.regulator_for(R.MEMPOL, b, 350, 6.25)
    assert mp.poll_cycles == 7500
    assert mp.window_size == R.MEMPOL_WINDOW
    assert mp.budget_events == H.bandwidth_to_budget(
        350, 6.25 * mp.window_size)
    with pytest.raises(RangeError):
        H.regulator_for("sorcery", b, 350, 5)


@pytest.mark.parametrize("design", R.ALL_DESIGNS)
def test_regulator_for_rejects_a_zero_cycle_period(design):
    # 0.0001 us rounds to 0 cycles at 1200 MHz; each design's config
    # said "period 0 cycles is below 1 cycle", which names no argument
    b = H.preset("zcu102")
    with pytest.raises(RangeError, match="period_us 0.0001 is 0 cycles at "
                       "the zcu102 clock of 1200 MHz, below 1 cycle"):
        H.regulator_for(design, b, 350, 0.0001)


def test_regulator_taps_follow_the_core_model():
    cfg = H.regulator_for(R.PR, H.preset("rk3588-a76"), 350, 5)
    assert cfg.inputs[0].monitored == frozenset({73, 74, 157})
    cfg = H.regulator_for(R.PR, H.preset("am69x"), 350, 5)
    assert cfg.inputs[0].monitored == frozenset({24, 25})


# =========================================================================
# sweep points
# =========================================================================

def test_pr_point_hits_its_target():
    row = H.run_point(H.preset("zcu102"), R.PR, 350, "read", 5, 1.0)
    assert row.achieved_mbps == pytest.approx(345.6, rel=0.02)
    assert 0 < row.throttle_fraction < 1
    assert row.irqs_per_ms == pytest.approx(200, abs=5)
    assert row.max_window_overshoot_events <= 8
    assert row.accounted_vs_actual_ratio == pytest.approx(1.0, abs=0.02)
    assert row.key() == (R.PR, "read", 350.0)


def test_modify_point_halves_useful_bandwidth():
    row = H.run_point(H.preset("zcu102"), R.PR, 350, "modify", 5, 1.0)
    # two monitored events per transaction: the program sees half the
    # target while the accounting sees all of it
    assert row.achieved_mbps == pytest.approx(345.6 / 2, rel=0.05)
    assert row.accounted_vs_actual_ratio == pytest.approx(2.0, abs=0.05)


def test_achieved_never_exceeds_the_cap():
    row = H.run_point(H.preset("zcu102"), R.PR, 5000, "read", 5, 0.5)
    assert row.achieved_mbps <= 1000.0


def test_saturating_tb13_oscillates_tb31_does_not():
    # at the memory cap the single-step bucket flaps on quantization
    # jitter while the deeper buckets absorb it silently
    b = H.preset("zcu102")
    r13 = H.run_point(b, R.TB13, 1000, "read", 5, 1.0)
    r31 = H.run_point(b, R.TB31, 1000, "read", 5, 1.0)
    assert r13.oscillating
    assert r13.irqs_per_ms > 100
    assert not r31.oscillating
    assert r31.irqs_per_ms == 0


def test_result_row_invariants():
    with pytest.raises(ValueError):
        H.ResultRow(1, -2, "read", "pr", 5, 0, 0, 0, 1)
    with pytest.raises(ValueError):
        H.ResultRow(1, 2, "read", "pr", 5, 1.5, 0, 0, 1)


# =========================================================================
# sweeps
# =========================================================================

def small_cfg(**kw):
    base = dict(board="zcu102", designs=(R.PR,),
                targets_mbps=(200, 400), op_types=("read",),
                period_us=5.0, duration_ms=0.5)
    base.update(kw)
    return H.ExperimentConfig(**base)


def test_sweep_rows_sorted_and_deterministic():
    cfg = small_cfg(designs=(R.TB13, R.PR))
    a = H.run_sweep(cfg)
    b = H.run_sweep(cfg)
    assert a == b
    assert a.failures == ()
    keys = [r.key() for r in a.rows]
    assert keys == sorted(keys)
    assert len(a.rows) == 4


def test_sweep_continues_past_bad_points():
    cfg = small_cfg(targets_mbps=(200, 2e6))   # second needs budget > 2^16
    res = H.run_sweep(cfg)
    assert len(res.rows) == 1
    assert len(res.failures) == 1
    assert "target=2e+06" in res.failures[0]


def test_raising_the_target_never_lowers_achieved():
    cfg = small_cfg(targets_mbps=(150, 300, 600, 900))
    rows = H.run_sweep(cfg).rows
    achieved = [r.achieved_mbps for r in rows]
    assert achieved == sorted(achieved)


def test_experiment_config_validation():
    with pytest.raises(ValueError, match="unknown config keys"):
        H.ExperimentConfig.from_dict({"bogus": 1, "targets_mbps": [1]})
    with pytest.raises(ValueError, match="no sweep targets"):
        small_cfg(targets_mbps=())
    with pytest.raises(ValueError, match="16-bit"):
        small_cfg(period_us=60.0)          # 72000 cycles at 1200 MHz
    small_cfg(period_us=60.0, designs=(R.MEMGUARD,))   # fine off-fabric
    with pytest.raises(KeyError):
        small_cfg(board="devboard9000")


@pytest.mark.parametrize("field,value", [
    # each of these constructed, and then every point failed or overflowed
    ("period_us", 0), ("period_us", -5.0), ("period_us", INF),
    ("period_us", NAN), ("duration_ms", INF), ("duration_ms", NAN),
    ("targets_mbps", (INF,)), ("targets_mbps", (200, NAN)),
])
def test_experiment_config_rejects_a_non_finite_or_non_positive_value(
        field, value):
    with pytest.raises(ValueError, match=field + ".* positive finite"):
        small_cfg(**{field: value})


@pytest.mark.parametrize("design", [R.PR, R.MEMGUARD])
def test_experiment_config_rejects_a_period_below_one_cycle(design):
    # it constructed, and then every point failed with "period 0 cycles is
    # below 1 cycle", so a sweep returned no rows
    with pytest.raises(RangeError, match="period_us 0.0001 is 0 cycles at "
                       "the zcu102 clock of 1200 MHz, below 1 cycle"):
        H.ExperimentConfig(designs=(design,), targets_mbps=(200,),
                           period_us=0.0001, duration_ms=0.05)


@pytest.mark.parametrize("duration_ms,cycles", [
    (0, 0), (-1, -1_200_000), (1e-7, 0)])
def test_a_duration_below_one_cycle_is_named(duration_ms, cycles):
    # each raised "duration_cycles must be positive", which names a field
    # of the machine's config, not the argument
    message = ("duration_ms %r is %d cycles at the zcu102 clock of 1200 MHz, "
               "below 1 cycle" % (duration_ms, cycles))
    board = H.preset("zcu102")
    with pytest.raises(RangeError, match=message):
        H.run_point(board, R.PR, 350.0, "read", 5.0, duration_ms)
    with pytest.raises(RangeError, match=message):
        H.calibrate_safe_floor("zcu102", R.PR, 5, duration_ms=duration_ms)
    # a sweep config names a duration that is not positive as such, and
    # one below a cycle as above
    with pytest.raises(RangeError, match="duration_ms" if duration_ms <= 0
                       else message):
        H.ExperimentConfig(targets_mbps=(200,), duration_ms=duration_ms)


# =========================================================================
# calibration
# =========================================================================

def test_zcu102_pr_floor():
    floor = H.calibrate_safe_floor("zcu102", R.PR, 5, duration_ms=0.5)
    # the floor is the irreducible per-period traffic: handler events
    # plus the in-flight drain that lands after throttling
    assert floor == pytest.approx(140.8)


def test_ideal_board_floor_is_two_quanta():
    # even with zero latency the core issues one line in the cycle the
    # budget expires, and at budget 1 that overshoot wraps the counter;
    # budget 2 absorbs it via carry, so the floor is the second quantum
    floor = H.calibrate_safe_floor("ideal", R.PR, 5, duration_ms=0.5)
    assert floor == pytest.approx(H.budget_to_bandwidth(2, 5))


@pytest.mark.parametrize("tol", [NAN, -0.01])
def test_floor_search_rejects_a_bad_tol(tol):
    # nan reported that the design misses every target up to the cap
    with pytest.raises(RangeError, match="tol %r is not a number >= 0" % tol):
        H.calibrate_safe_floor("zcu102", R.PR, 5, tol=tol, duration_ms=0.2)


def test_floor_no_convergence():
    # a 0.1 us period leaves room for 2 events at the cap, below the
    # per-period handler traffic: no target is enforceable
    with pytest.raises(H.NoConvergence):
        H.calibrate_safe_floor("zcu102", R.PR, 0.1, duration_ms=0.2)


# =========================================================================
# CSV and SVG artifacts
# =========================================================================

ROWS = (
    H.ResultRow(100.0, 98.5, "read", "pr", 5.0, 0.25, 200.0, 3, 1.0),
    H.ResultRow(200.0, 199.0, "write", "pr", 5.0, 0.5, 200.0, 21, 1.0),
    H.ResultRow(300.0, 152.2, "modify", "pr", 5.0, 0.5, 200.0, 4, 2.0),
    H.ResultRow(400.0, 398.0, "prefetch", "tb13", 5.0, 0.1, 12.0, 7, 1.0),
)


def test_csv_round_trip_exact(tmp_path):
    path = tmp_path / "rows.csv"
    H.write_csv(ROWS, path)
    assert H.load_csv(path) == list(ROWS)


def test_csv_shape(tmp_path):
    path = tmp_path / "one.csv"
    H.write_csv(ROWS[:1], path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == ("target_mbps,achieved_mbps,op_type,regulator,"
                        "period_us,throttle_fraction,irqs_per_ms,"
                        "max_window_overshoot_events,"
                        "accounted_vs_actual_ratio")
    with pytest.raises(ValueError):
        path.write_text("a,b\n1,2\n")
        H.load_csv(path)


@pytest.mark.parametrize("body,msg", [
    ("100.0,98.5,read,pr,5.0,0.25,200.0,3,1.0,7", "line 3: 10 cells"),
    ("100.0,98.5,read,pr,5.0,0.25,200.0,3", "line 3: 8 cells"),
    ("100.0,abc,read,pr,5.0,0.25,200.0,3,1.0", "line 3: could not convert"),
    (None, "unexpected CSV columns"),
], ids=["extra cell", "short row", "bad cell", "empty file"])
def test_load_csv_rejects_malformed_files(tmp_path, body, msg):
    path = tmp_path / "bad.csv"
    text = ""
    if body is not None:
        H.write_csv(ROWS[:1], path)
        text = path.read_text() + body + "\n"
    path.write_text(text)
    with pytest.raises(ValueError, match=msg):
        H.load_csv(path)


def test_outputs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    sa, sb = tmp_path / "a.svg", tmp_path / "b.svg"
    H.emit_outputs(ROWS, a, sa)
    H.emit_outputs(ROWS, b, sb)
    assert a.read_bytes() == b.read_bytes()
    assert sa.read_bytes() == sb.read_bytes()
    with pytest.raises(ValueError):
        H.emit_outputs([], a)


def test_svg_has_a_series_per_op_and_the_diagonal():
    svg = H.render_svg(ROWS)
    assert svg.count("<polyline") == 4
    assert "stroke-dasharray" in svg          # identity diagonal
    assert "target MB/s" in svg and "achieved MB/s" in svg
    assert "pr/modify" in svg and "tb13/prefetch" in svg
