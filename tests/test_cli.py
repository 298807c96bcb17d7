"""End-to-end checks for the command-line front end.

Everything goes through cli.main(argv) so exit codes and stderr text
are part of the contract; no subprocesses are spawned.
"""

import json

import pytest
import yaml

import etmreg.cli as C
import etmreg.fabric as F
import etmreg.harness as H
import etmreg.regprog as P
import etmreg.regulators as R


def write_yaml(path, data):
    path.write_text(yaml.safe_dump(data))
    return str(path)


# =========================================================================
# spec files
# =========================================================================

def test_spec_from_dict_direct():
    spec = C.spec_from_dict({"design": "pr", "budget_events": 27,
                             "period_cycles": 6000})
    assert spec == R.RegulatorSpec("pr", 27, 6000)


def test_spec_from_dict_target_with_board():
    spec = C.spec_from_dict({"design": "pr-stop", "target_mbps": 350,
                             "period_us": 5, "board": "zcu102"})
    assert spec.budget_events == H.bandwidth_to_budget(350, 5)
    assert spec.period_cycles == 6000
    assert spec.core_type == "cortex-a53"


def test_spec_from_dict_target_with_freq():
    spec = C.spec_from_dict({"design": "tb22", "target_mbps": 700,
                             "period_us": 10, "freq_mhz": 2000,
                             "core_type": "cortex-a72"})
    assert spec.period_cycles == 20000
    assert spec.core_type == "cortex-a72"


def test_spec_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown spec keys: tempo"):
        C.spec_from_dict({"design": "pr", "budget_events": 1,
                          "period_cycles": 10, "tempo": 4})


def test_spec_from_dict_needs_frequency():
    with pytest.raises(ValueError, match="freq_mhz or board"):
        C.spec_from_dict({"design": "pr", "target_mbps": 100,
                          "period_us": 5})


# =========================================================================
# compile / validate
# =========================================================================

def test_compile_stdout_lifts_back(tmp_path, capsys):
    spec_path = write_yaml(tmp_path / "spec.yaml",
                           {"design": "pr", "budget_events": 27,
                            "period_cycles": 6000})
    assert C.main(["compile", spec_path]) == 0
    out = capsys.readouterr().out
    lifted = P.lift(P.parse_text(out))
    assert lifted == R.build_config(R.RegulatorSpec("pr", 27, 6000))


def test_compile_floor_warning_on_stderr(tmp_path, capsys):
    spec_path = write_yaml(tmp_path / "spec.yaml",
                           {"design": "pr", "budget_events": 5,
                            "period_cycles": 6000})
    assert C.main(["compile", spec_path, "--board", "zcu102"]) == 0
    cap = capsys.readouterr()
    assert "warning:" in cap.err and "safe floor" in cap.err
    assert "# warning:" in cap.out


def test_compile_to_file(tmp_path, capsys):
    spec_path = write_yaml(tmp_path / "spec.yaml",
                           {"design": "tb13", "budget_events": 70,
                            "period_cycles": 6000})
    out_path = tmp_path / "prog.txt"
    assert C.main(["compile", spec_path, "--out", str(out_path)]) == 0
    assert capsys.readouterr().out == ""
    prog = P.parse_text(out_path.read_text())
    assert P.lift(prog) == R.build_config(R.RegulatorSpec("tb13", 70, 6000))


def test_validate_spec_prints_resource_counts(tmp_path, capsys):
    spec_path = write_yaml(tmp_path / "spec.yaml",
                           {"design": "pr", "budget_events": 27,
                            "period_cycles": 6000})
    assert C.main(["validate", spec_path]) == 0
    out = capsys.readouterr().out
    assert "ok" in out
    assert "selectors 6/%d" % F.NUM_SELECTORS in out
    assert "counters 2/%d" % F.NUM_COUNTERS in out


@pytest.mark.parametrize("board", sorted(H.PRESETS))
def test_validate_spec_checks_the_compiled_fabric(tmp_path, capsys, board):
    # the spec's core model picks the monitored events for both commands
    spec_path = write_yaml(tmp_path / "spec.yaml",
                           {"design": "pr", "target_mbps": 350,
                            "period_us": 5, "board": board})
    prog_path = tmp_path / "prog.txt"
    assert C.main(["compile", spec_path, "--out", str(prog_path)]) == 0
    capsys.readouterr()
    assert C.main(["validate", spec_path]) == 0
    from_spec = capsys.readouterr().out.splitlines()[1]
    assert C.main(["validate", "--program", str(prog_path)]) == 0
    assert capsys.readouterr().out.splitlines()[1] == from_spec
    if board == "rk3588-a76":
        assert "inputs 3/%d" % F.NUM_INPUTS in from_spec


def test_validate_program_file(tmp_path, capsys):
    spec_path = write_yaml(tmp_path / "spec.yaml",
                           {"design": "tb31", "budget_events": 70,
                            "period_cycles": 6000})
    prog_path = tmp_path / "prog.txt"
    assert C.main(["compile", spec_path, "--out", str(prog_path)]) == 0
    assert C.main(["validate", "--program", str(prog_path)]) == 0
    out = capsys.readouterr().out
    assert "%s: ok" % prog_path in out
    assert "selectors 13/%d" % F.NUM_SELECTORS in out


def test_validate_without_arguments_is_usage_error(capsys):
    assert C.main(["validate"]) == 2
    assert "need a spec file or --program" in capsys.readouterr().err


# =========================================================================
# simulate
# =========================================================================

def test_simulate_json(capsys):
    rc = C.main(["simulate", "--board", "zcu102", "--design", "pr",
                 "--target", "350", "--duration-ms", "0.2", "--json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["design"] == "pr"
    assert data["duration_cycles"] == 240000
    assert 0 < data["achieved_mbps"] < 1000
    assert data["bus_lines"] > 0
    assert data["irq_count"] > 0


def test_simulate_modify_matches_run_point(capsys):
    # a modify moves two bus lines per program line; both report the
    # program's view
    rc = C.main(["simulate", "--board", "zcu102", "--design", "pr",
                 "--target", "350", "--op", "modify", "--period-us", "5",
                 "--duration-ms", "0.2", "--json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    row = H.run_point(H.preset("zcu102"), "pr", 350.0, "modify", 5.0, 0.2)
    assert data["achieved_mbps"] == row.achieved_mbps


def test_simulate_text_summary(capsys):
    rc = C.main(["simulate", "--board", "zcu102", "--design", "none",
                 "--op", "write", "--duration-ms", "0.2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "design none" in out
    assert "achieved" in out
    assert "per-window bus MB/s:" in out
    assert "0 irqs" in out


def test_simulate_text_matches_json(capsys):
    # a 0.2 ms run fills a fifth of the 1 ms window: the window's MB/s is
    # over its own length, and the line count is the program's view, as
    # achieved is
    argv = ["simulate", "--board", "zcu102", "--design", "pr",
            "--target", "350", "--op", "modify", "--duration-ms", "0.2"]
    assert C.main(argv) == 0
    out = capsys.readouterr().out
    assert C.main(argv + ["--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    (bus_lines,) = data["window_bus_lines"]
    bus_mbps = bus_lines * 64 * 1200 / data["duration_cycles"]
    assert "per-window bus MB/s: %.0f\n" % bus_mbps in out
    assert "achieved %.1f MB/s (%d program lines," % (
        data["achieved_mbps"], data["bus_lines"] // 2) in out


def test_calibrate_prints_the_safe_floor(capsys):
    # on the ideal board, tb13 holds the search's first budget, a line a
    # period
    assert C.main(["calibrate", "--board", "ideal", "--design", "tb13",
                   "--period-us", "5", "--duration-ms", "0.1"]) == 0
    assert capsys.readouterr().out == \
        "tb13 on ideal, 5.0 us period: safe floor 12.8 MB/s\n"


@pytest.mark.parametrize("argv,message", [
    # each of these exited with an OverflowError or a ValueError traceback
    (["simulate", "--target", "inf"], "target_mbps inf is not"),
    (["simulate", "--target", "nan"], "target_mbps nan is not"),
    (["simulate", "--duration-ms", "inf"], "duration_ms inf is not"),
    (["simulate", "--design", "memguard", "--period-us", "inf"],
     "period_us inf is not"),
    (["calibrate", "--period-us", "inf"], "period_us inf is not"),
    # nan reported that `pr` misses every target up to the cap
    (["calibrate", "--tol", "nan"], "tol nan is not a number >= 0"),
], ids=["target-inf", "target-nan", "duration-inf", "memguard-period-inf",
        "calibrate-period-inf", "calibrate-tol-nan"])
def test_a_non_finite_number_is_named(capsys, argv, message):
    assert C.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err


@pytest.mark.parametrize("command", ["simulate", "calibrate"])
@pytest.mark.parametrize("duration", ["-1", "0", "1e-7"])
def test_a_duration_below_one_cycle_is_named(capsys, command, duration):
    # each exited with "duration_cycles must be positive"
    assert C.main([command, "--duration-ms", duration]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: duration_ms ") \
        and "cycles at the zcu102 clock of 1200 MHz, below 1 cycle" in err, err


@pytest.mark.parametrize("command", ["simulate", "calibrate"])
@pytest.mark.parametrize("period,design,why", [
    ("0.0001", "memguard", "0 cycles at the zcu102 clock of 1200 MHz, "
     "below 1 cycle"),
    ("100", "pr", "120000 cycles at the zcu102 clock of 1200 MHz, over the "
     "16-bit counter; max is 54.6 us"),
], ids=["below-a-cycle", "over-the-counter"])
def test_a_period_out_of_range_is_named(capsys, command, period, design,
                                        why):
    # each named the design's config field: "period 0 cycles is below 1
    # cycle" and "period 120000 cycles exceeds 16-bit counter range"
    assert C.main([command, "--design", design, "--period-us", period]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: period_us %r is %s"
                          % (float(period), why)), err


def test_simulate_unknown_board_is_parse_error():
    with pytest.raises(SystemExit) as e:
        C.main(["simulate", "--board", "breadboard"])
    assert e.value.code == 2


# =========================================================================
# sweep
# =========================================================================

def sweep_cfg(tmp_path, **overrides):
    data = dict(board="zcu102", designs=["pr"], targets_mbps=[200.0],
                op_types=["read"], period_us=5.0, duration_ms=0.2)
    data.update(overrides)
    return write_yaml(tmp_path / "sweep.yaml", data)


def test_sweep_writes_csv(tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    cfg = sweep_cfg(tmp_path, csv_path=str(csv_path))
    assert C.main(["sweep", cfg]) == 0
    assert "wrote %s" % csv_path in capsys.readouterr().err
    rows = H.load_csv(csv_path)
    assert len(rows) == 1 and rows[0].regulator == "pr"


def test_sweep_csv_override_and_stdout(tmp_path, capsys):
    cfg = sweep_cfg(tmp_path)
    assert C.main(["sweep", cfg]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == (
        "target_mbps,achieved_mbps,op_type,regulator,period_us,"
        "throttle_fraction,irqs_per_ms,max_window_overshoot_events,"
        "accounted_vs_actual_ratio")
    assert len(out.splitlines()) == 2


def test_sweep_reports_failures_but_keeps_rows(tmp_path, capsys):
    cfg = sweep_cfg(tmp_path, targets_mbps=[200.0, 2e6])
    assert C.main(["sweep", cfg]) == 0
    cap = capsys.readouterr()
    assert "failed:" in cap.err
    assert len(cap.out.splitlines()) == 2    # header + the good row


def test_sweep_all_failures_exit_1(tmp_path, capsys):
    cfg = sweep_cfg(tmp_path, targets_mbps=[2e6])
    assert C.main(["sweep", cfg]) == 1
    assert "failed:" in capsys.readouterr().err


def test_sweep_svg(tmp_path, capsys):
    svg_path = tmp_path / "chart.svg"
    cfg = sweep_cfg(tmp_path, targets_mbps=[150.0, 300.0],
                    svg_path=str(svg_path))
    assert C.main(["sweep", cfg]) == 0
    assert svg_path.read_text().startswith("<svg")


# =========================================================================
# error handling
# =========================================================================

def test_unknown_design_in_spec_exits_1(tmp_path, capsys):
    spec_path = write_yaml(tmp_path / "spec.yaml",
                           {"design": "sorcery", "budget_events": 1,
                            "period_cycles": 10})
    assert C.main(["compile", spec_path]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("command", ["compile", "validate"])
def test_unrealizable_model_exits_1(tmp_path, capsys, command):
    spec_path = write_yaml(tmp_path / "spec.yaml",
                           {"design": "pr", "budget_events": 27,
                            "period_cycles": 6000,
                            "core_type": "cortex-a78",
                            "model_variant": "moderate1"})
    assert C.main([command, spec_path]) == 1
    assert "six ETM PMU inputs" in capsys.readouterr().err


@pytest.mark.parametrize("command,data,message", [
    ("sweep", {"targets_mbps": 350}, "targets_mbps must be a list"),
    ("sweep", {"duration_ms": "abc"}, "duration_ms must be a number"),
    ("sweep", {"designs": "pr"}, "designs must be a list"),
    ("sweep", {"op_types": "read"}, "op_types must be a list"),
    ("validate", {"design": "pr", "budget_events": "abc",
                  "period_cycles": 6000}, "budget_events must be an integer"),
    ("validate", {"budget_events": 27, "period_cycles": 6000},
     "missing spec key: design"),
    ("validate", {"design": "pr", "budget_events": 27,
                  "period_cycles": 6000, "core_type": 5},
     "core_type must be text"),
    # these exited with an OverflowError traceback
    ("sweep", {"duration_ms": float("inf")},
     "duration_ms inf is not a positive finite number"),
    ("sweep", {"targets_mbps": [float("inf")]},
     "targets_mbps entry inf is not a positive finite number"),
], ids=["targets-scalar", "duration-text", "designs-string",
        "op-types-string", "budget-text", "no-design", "core-type-number",
        "duration-inf", "target-inf"])
def test_malformed_yaml_names_the_key(tmp_path, capsys, command, data,
                                      message):
    if command == "sweep":
        path = sweep_cfg(tmp_path, **data)
    else:
        path = write_yaml(tmp_path / "spec.yaml", data)
    assert C.main([command, path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err


def test_missing_file_exits_1(capsys):
    assert C.main(["compile", "/no/such/spec.yaml"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_non_mapping_config_rejected(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("- just\n- a list\n")
    assert C.main(["sweep", str(path)]) == 1
    assert "expected a key/value mapping" in capsys.readouterr().err
