"""Command-line front end.

Subcommands:

  simulate   one run on a board preset; prints the trace summary
  sweep      experiment config file -> CSV (and optional SVG chart)
  compile    regulator spec file -> register-write program text
  validate   regulator spec or program file -> resource report
  calibrate  search a board's safe minimum bandwidth target

Config files are YAML; the schemas are documented in the README and
errors name the offending key.
"""

import argparse
import json
import sys

import yaml

from . import fabric as F
from . import harness as H
from . import machine as M
from . import regprog as P
from . import regulators as R


def _load_yaml(path):
    with open(path) as f:
        data = yaml.safe_load(f)
    if not isinstance(data, dict):
        raise ValueError("%s: expected a key/value mapping" % path)
    return data


def _write_out(text, path):
    if path:
        with open(path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


# =========================================================================
# regulator spec files
# =========================================================================

def _required(data, key):
    if key not in data:
        raise ValueError("missing spec key: %s" % key)
    return data[key]


def spec_from_dict(data: dict) -> R.RegulatorSpec:
    """Accepts either budget_events/period_cycles directly or
    target_mbps/period_us (+ freq_mhz or board) to derive them."""
    known = {"design", "core_type", "model_variant", "budget_events",
             "period_cycles", "target_mbps", "period_us", "freq_mhz",
             "board"}
    bad = set(data) - known
    if bad:
        raise ValueError("unknown spec keys: %s" % ", ".join(sorted(bad)))
    for key in ("design", "core_type", "model_variant", "board"):
        if key in data:
            H.config_value(key, data[key], "text")
    design = _required(data, "design")
    kw = {}
    board = None
    if "board" in data:
        board = H.preset(data["board"])
        kw["core_type"] = board.model.core_type
    if "core_type" in data:
        kw["core_type"] = data["core_type"]
    if "model_variant" in data:
        kw["model_variant"] = data["model_variant"]
    if "budget_events" in data:
        budget = H.config_value("budget_events", data["budget_events"],
                                "an integer")
        period = H.config_value("period_cycles",
                                _required(data, "period_cycles"),
                                "an integer")
    else:
        freq = data.get("freq_mhz", board.freq_mhz if board else None)
        if freq is None:
            raise ValueError("need freq_mhz or board to convert period_us")
        freq = H.config_value("freq_mhz", freq)
        target = H.config_value("target_mbps", _required(data, "target_mbps"))
        period_us = H.config_value("period_us", _required(data, "period_us"))
        budget = H.bandwidth_to_budget(target, period_us)
        period = H.us_to_cycles(period_us, freq)
    return R.RegulatorSpec(design, budget, period, **kw)


# =========================================================================
# subcommands
# =========================================================================

def cmd_simulate(args):
    board = H.preset(args.board)
    if args.design == "none":
        reg = None
    else:
        reg = H.regulator_for(args.design, board, args.target,
                              args.period_us)
    trace = M.run_system(H.point_system(board, reg, args.op,
                                        args.duration_ms))
    achieved = H.program_mbps(trace, args.op, board.freq_mhz)
    st = trace.stats[0]
    if args.json:
        out = {
            "board": args.board, "design": args.design,
            "target_mbps": args.target, "op": args.op,
            "duration_cycles": trace.duration_cycles,
            "achieved_mbps": achieved,
            "bus_lines": st.completed_lines,
            "pmc_events": st.pmc_events,
            "throttled_cycles": st.throttled_cycles,
            "throttle_entries": st.throttle_entries,
            "irq_count": st.irq_count,
            "handler_cycles": st.handler_cycles,
            "window_bus_lines": list(trace.windows[0]),
            "window_cycles": trace.window_cycles,
        }
        _write_out(json.dumps(out, indent=2) + "\n", args.out)
        return 0
    lines = [
        "board %s  design %s  op %s  target %g MB/s" % (
            args.board, args.design, args.op, args.target),
        "simulated %d cycles (%.3f ms at %d MHz)" % (
            trace.duration_cycles,
            trace.duration_cycles / board.freq_mhz / 1000, board.freq_mhz),
        "achieved %.1f MB/s (%d program lines, %d monitored events)" % (
            achieved, H.program_lines(st, args.op), st.pmc_events),
        "throttled %.1f%% of cycles, %d throttle entries, %d irqs" % (
            100 * st.throttled_cycles / trace.duration_cycles,
            st.throttle_entries, st.irq_count),
    ]
    # bus lines per window over that window's own length: the last
    # window of a run ends early when the run does
    w = trace.window_cycles
    mb = [M.lines_mbps(lines, min(w, trace.duration_cycles - k * w),
                       board.freq_mhz)
          for k, lines in enumerate(trace.windows[0])]
    lines.append("per-window bus MB/s: "
                 + " ".join("%.0f" % v for v in mb))
    _write_out("\n".join(lines) + "\n", args.out)
    return 0


def cmd_sweep(args):
    data = _load_yaml(args.config)
    if args.csv:
        data["csv_path"] = args.csv
    if args.svg:
        data["svg_path"] = args.svg
    cfg = H.ExperimentConfig.from_dict(data)
    result = H.run_sweep(cfg)
    for msg in result.failures:
        print("failed: %s" % msg, file=sys.stderr)
    if cfg.csv_path or cfg.svg_path:
        for path in H.emit_outputs(result.rows, cfg.csv_path, cfg.svg_path):
            print("wrote %s" % path, file=sys.stderr)
    else:
        sys.stdout.write(H.rows_to_csv(result.rows))
    return 1 if result.failures and not result.rows else 0


def cmd_compile(args):
    spec = spec_from_dict(_load_yaml(args.spec))
    core_model = None
    if args.board:
        core_model = H.preset(args.board).model
    prog = P.compile(spec, core_model=core_model)
    _write_out(P.emit_text(prog), args.out)
    for msg in prog.warnings:
        print("warning: %s" % msg, file=sys.stderr)
    return 0


def cmd_validate(args):
    if args.program:
        with open(args.program) as f:
            config = P.lift(P.parse_text(f.read()))
        what = args.program
    else:
        spec = spec_from_dict(_load_yaml(args.spec))
        config = R.build_config(spec)
        what = "%s (budget %d, period %d)" % (spec.design,
                                              spec.budget_events,
                                              spec.period_cycles)
    report = F.validate_config(config)
    print("%s: ok" % what)
    print("selectors %d/%d  counters %d/%d  inputs %d/%d  "
          "comparator pairs %d/%d"
          % (report.selectors_used, F.NUM_SELECTORS,
             report.counters_used, F.NUM_COUNTERS,
             report.inputs_used, F.NUM_INPUTS,
             report.comparator_pairs_used, F.NUM_COMPARATOR_PAIRS))
    return 0


def cmd_calibrate(args):
    floor = H.calibrate_safe_floor(args.board, args.design, args.period_us,
                                   tol=args.tol,
                                   duration_ms=args.duration_ms)
    print("%s on %s, %.1f us period: safe floor %.1f MB/s"
          % (args.design, args.board, args.period_us, floor))
    return 0


# =========================================================================
# argument parsing
# =========================================================================

def _build_parser():
    ap = argparse.ArgumentParser(
        prog="etmreg",
        description="trace-unit bandwidth-regulator simulator")
    sub = ap.add_subparsers(dest="command", required=True)

    boards = sorted(H.PRESETS)
    designs = list(R.ALL_DESIGNS)

    p = sub.add_parser("simulate", help="run one configuration")
    p.add_argument("--board", default="zcu102", choices=boards)
    p.add_argument("--design", default=R.PR, choices=designs + ["none"])
    p.add_argument("--target", type=float, default=350.0,
                   help="bandwidth target in MB/s")
    p.add_argument("--op", default=M.OP_READ, choices=M.OPS)
    p.add_argument("--period-us", type=float, default=5.0)
    p.add_argument("--duration-ms", type=float, default=10.0)
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")
    p.add_argument("--out", default="", help="write to a file")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="run an experiment config file")
    p.add_argument("config", help="YAML experiment description")
    p.add_argument("--csv", default="", help="override csv_path")
    p.add_argument("--svg", default="", help="override svg_path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("compile",
                       help="emit the register program for a spec file")
    p.add_argument("spec", help="YAML regulator spec")
    p.add_argument("--board", default="",
                   help="board preset for the budget-floor advisory")
    p.add_argument("--out", default="")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("validate",
                       help="check a spec or program against the "
                            "resource budgets")
    p.add_argument("spec", nargs="?", default="",
                   help="YAML regulator spec")
    p.add_argument("--program", default="",
                   help="register program text to lift instead")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("calibrate",
                       help="find the safe minimum bandwidth target")
    p.add_argument("--board", default="zcu102", choices=boards)
    p.add_argument("--design", default=R.PR, choices=designs)
    p.add_argument("--period-us", type=float, default=5.0)
    p.add_argument("--tol", type=float, default=0.05)
    p.add_argument("--duration-ms", type=float, default=2.0)
    p.set_defaults(func=cmd_calibrate)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "validate" and not args.spec and not args.program:
        print("validate: need a spec file or --program", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ValueError, H.NoConvergence, KeyError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
