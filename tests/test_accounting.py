"""Tests for per-core accounting models and calibrated count ratios."""

import os
import pathlib
import subprocess
import sys

import pytest

import etmreg.accounting as A
import etmreg.fabric as F


# =========================================================================
# model catalog
# =========================================================================

def test_a53_default_model_terms():
    m = A.model_for("cortex-a53")
    assert m.variant == "default"
    assert [(t.coefficient, t.event) for t in m.terms] == [
        (1, "L2D_CACHE_REFILL"), (1, "L2D_CACHE_WB")]
    assert m.signals == frozenset({21, 22})
    assert m.etm_realizable
    assert m.budget_scale == 1


def test_a57_aliases_a72_events_on_different_inputs():
    m57 = A.model_for("cortex-a57")
    m72 = A.model_for("cortex-a72")
    assert [t.event for t in m57.terms] == [t.event for t in m72.terms]
    assert m57.signals == frozenset({24, 25})
    assert m72.signals == frozenset({24, 25})


@pytest.mark.parametrize("core,variant,nsignals,scale", [
    ("cortex-a55", "pessimistic", 1, 2),
    ("cortex-a55", "moderate1", 1, A.Fraction(1, 4)),
    ("cortex-a55", "moderate2", 2, 1),
    ("cortex-a76", "pessimistic", 2, 2),
    ("cortex-a76", "moderate1", 4, 1),
    ("cortex-a76", "moderate2", 3, 1),
    ("cortex-a78", "pessimistic", 3, 2),
])
def test_realizable_models_signal_counts(core, variant, nsignals, scale):
    m = A.model_for(core, variant)
    assert len(m.signals) == nsignals <= F.NUM_INPUTS
    assert m.budget_scale == scale


def test_default_variant_resolution():
    assert A.model_for("cortex-a55").variant == "moderate2"
    assert A.model_for("cortex-a76").variant == "moderate2"
    assert A.model_for("cortex-a78").variant == "pessimistic"


def test_unknown_variant():
    with pytest.raises(A.UnknownVariant):
        A.model_for("cortex-a53", "moderate1")
    with pytest.raises(A.UnknownVariant):
        A.model_for("cortex-m0")


# =========================================================================
# realizability gates
# =========================================================================

def test_a78_moderate1_needs_too_many_inputs():
    with pytest.raises(A.NotEtmRealizable) as exc:
        A.model_for("cortex-a78", "moderate1")
    assert "requires monitoring of six ETM PMU inputs" in str(exc.value)


def test_a78_moderate2_has_fractional_weight():
    with pytest.raises(A.NotEtmRealizable) as exc:
        A.model_for("cortex-a78", "moderate2")
    assert "fractional factor in the sum" in str(exc.value)


def test_a76_moderate2_is_accepted():
    m = A.model_for("cortex-a76", "moderate2")
    assert m.etm_realizable
    assert m.rejection_reason is None


def test_flagged_model_for_adder_side_regulators():
    m = A.model_for("cortex-a78", "moderate1", etm=False)
    assert not m.etm_realizable
    assert "six ETM PMU inputs" in m.rejection_reason
    m = A.model_for("cortex-a78", "moderate2", etm=False)
    assert "fractional factor" in m.rejection_reason


def test_input_count_gate_checked_before_weights():
    # six distinct inputs with equal weights still rejects on the count
    m = A.model_for("cortex-a78", "moderate1", etm=False)
    assert {t.coefficient for t in m.terms} == {1}
    assert len(m.signals) == 6


# =========================================================================
# expected ratios
# =========================================================================

THIRDS = {"read": 1 / 3, "write": 1 / 3, "modify": 1 / 3}


def test_a53_exact_ratios_without_collisions():
    r = A.expected_ratios(A.model_for("cortex-a53"), THIRDS, 0.0)
    assert r["read"].pmu == pytest.approx(1.00, abs=0.01)
    assert r["write"].pmu == pytest.approx(1.00, abs=0.01)
    assert r["modify"].pmu == pytest.approx(2.00, abs=0.01)
    for v in r.values():
        assert v.etm == v.pmu


def test_single_input_ops_never_collapse():
    # an a53 read only pulses the refill wire; nothing to collide with
    r = A.expected_ratios(A.model_for("cortex-a53"), {"read": 1.0}, 0.5)
    assert r["read"].etm == r["read"].pmu == 1.0


def test_multi_input_ops_undercount_by_half_the_pairs():
    m = A.model_for("cortex-a76", "moderate2")
    r = A.expected_ratios(m, {"read": 1.0}, 0.10)
    assert r["read"].pmu == pytest.approx(2.00, abs=1e-9)
    assert r["read"].etm == pytest.approx(1.90, abs=1e-9)


@pytest.mark.parametrize("core,variant", sorted(A._MODELS))
def test_modify_counts_two_lines_on_every_model(core, variant):
    m = A.model_for(core, variant, etm=False)
    r = A.expected_ratios(m, {"modify": 1.0}, 0.0)
    # one line in, one line out, regardless of which events are summed
    assert r["modify"].pmu == pytest.approx(2.0)


def test_etm_never_exceeds_pmu():
    for (core, variant) in A._MODELS:
        m = A.model_for(core, variant, etm=False)
        for p in (0.0, 0.25, 1.0):
            r = A.expected_ratios(m, THIRDS, p)
            for v in r.values():
                assert v.etm <= v.pmu + 1e-12


def test_mix_validation():
    m = A.model_for("cortex-a53")
    with pytest.raises(ValueError):
        A.expected_ratios(m, {"read": 0.5}, 0.0)
    with pytest.raises(ValueError):
        A.expected_ratios(m, {}, 0.0)
    with pytest.raises(ValueError):
        A.expected_ratios(m, {"read": 1.0}, 1.5)
    with pytest.raises(ValueError):
        A.expected_ratios(m, {"swizzle": 1.0}, 0.0)


def test_prefetch_behaves_as_read():
    m = A.model_for("cortex-a72")
    r = A.expected_ratios(m, {"read": 0.5, "prefetch_l2": 0.5}, 0.0)
    assert r["prefetch_l2"] == r["read"]


# =========================================================================
# calibrated profiles
# =========================================================================

def test_a72_read_profile_matches_measured_gap():
    p = A.emit_profile("cortex-a72", "default", "read")
    assert p.pulses_per_line == pytest.approx(1.76)
    # measured 1.76 adder vs 1.74 OR-ed: p = 2*(1 - 1.74/1.76)
    assert p.collision_prob == pytest.approx(2 * (1 - 1.74 / 1.76))
    assert p.collision_prob > 0


def test_a76_read_profile_collision_prob():
    p = A.emit_profile("cortex-a76", "moderate2", "read")
    assert p.pulses_per_line == pytest.approx(2.00)
    assert p.collision_prob == pytest.approx(0.10)


def test_a53_write_profile_is_collision_free():
    p = A.emit_profile("cortex-a53", "default", "write")
    assert p.pulses_per_line == pytest.approx(0.97)
    assert p.collision_prob == 0.0
    # the write-back term carries the whole count
    assert p.term_pulses[0] == 0.0
    assert p.term_pulses[1] == pytest.approx(0.97)


def test_a76_prefetch_l3_barely_pulses():
    p = A.emit_profile("cortex-a76", "moderate2", "prefetch_l3")
    assert p.pulses_per_line == pytest.approx(0.06)


def test_ideal_board_profiles():
    p = A.emit_profile("cortex-a53", "default", "modify", board="ideal")
    assert p.pulses_per_line == pytest.approx(2.0)
    assert p.collision_prob == 0.0
    p = A.emit_profile("cortex-a76", "moderate2", "read", board="ideal")
    assert p.pulses_per_line == pytest.approx(1.0)


def test_unmeasured_combinations_fail_loudly():
    with pytest.raises(A.UnknownCombination):
        A.emit_profile("cortex-a53", "default", "prefetch_l3")
    with pytest.raises(A.UnknownCombination):
        # rows ship for the core's preferred variant only
        A.emit_profile("cortex-a55", "pessimistic", "read")
    with pytest.raises(A.UnknownCombination):
        A.emit_profile("cortex-a57", "default", "read")  # no board
    with pytest.raises(A.UnknownCombination):
        A.emit_profile("cortex-a72", "default", "swizzle")


def test_calibration_table_is_sane():
    table = A.calibration_table()
    assert len(table) > 30
    for (board, core, op), (_var, pmu, etm) in table.items():
        assert 0.0 <= etm <= pmu + 1e-12, (board, core, op)
        assert pmu <= 8.0


# =========================================================================
# calibrated count ratios
# =========================================================================

def test_simulated_a72_read_ratio():
    p = A.emit_profile("cortex-a72", "default", "read")
    assert p.ratios.pmu == pytest.approx(1.76, abs=0.03)


def test_simulated_a76_read_or_view():
    p = A.emit_profile("cortex-a76", "moderate2", "read")
    assert p.ratios.etm == pytest.approx(1.90, abs=0.05)


def test_profile_ratios_reproduce_the_table():
    table = A.calibration_table()
    boards = {
        ("zcu102", "cortex-a53", "default"),
        ("am69x", "cortex-a72", "default"),
        ("rk3588", "cortex-a55", "moderate2"),
        ("rk3588", "cortex-a76", "moderate2"),
        ("orin", "cortex-a78", "pessimistic"),
    }
    checked = 0
    for board, core, variant in sorted(boards):
        for (b, c, op), (_var, pmu, etm) in sorted(table.items()):
            if (b, c) != (board, core) or pmu <= 0.05:
                continue
            r = A.emit_profile(core, variant, op, board=board).ratios
            assert r.pmu == pytest.approx(pmu, abs=1e-12), (b, c, op)
            assert r.etm == pytest.approx(etm, abs=1e-12), (b, c, op)
            checked += 1
    assert checked >= 30


def test_package_imports_without_numpy():
    # the package must not grow a numpy dependency back: block the module
    # and import every entry point in a fresh interpreter
    src = str(pathlib.Path(A.__file__).resolve().parents[1])
    code = ('import sys; sys.modules["numpy"] = None; '
            'import etmreg.cli, etmreg.machine, etmreg.accounting')
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
