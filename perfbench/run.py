#!/usr/bin/env python3
"""etmreg benchmark: one workload, one seed, a closed loop of ops.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

One process, one caller: each op starts when the previous one returns.
The seed fixes the pass, a list of ops (see workloads.py).  The pass runs
in rounds, each in a fresh seeded order, until `--seconds` have passed
and at least MIN_ROUNDS rounds ran.  An op's time is its best over the
rounds: on a shared host, other tenants slow every process down for
stretches of several seconds, and the best of rounds spread over the run
leaves those stretches out.  Later rounds must reproduce the first
round's results exactly.  Afterwards, outside the timed loop, every
simulated result is checked against the per-cycle oracle and the trace
invariants (see checks.py).

`--trace 0` prints the end-to-end metrics.  `--trace 1` alternates
untraced and traced rounds, then runs the per-layer suite (layers.py),
and prints the per-layer metrics.  Human-readable lines come first; the
last line of standard output is one JSON object.
"""

import argparse
import json
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 15
MIN_ROUNDS = 3
TRACE_ROUNDS = 4        # untraced and traced, alternating
TAIL_BEYOND = 10
SHOW_FAILURES = 20


def import_package():
    """Put the checkout's own sources first on the path; refuse to run
    without them."""
    if str(SRC) in sys.path:
        return
    pkg = SRC / "etmreg"
    if not (pkg / "__init__.py").is_file():
        sys.exit("perfbench: no etmreg sources at %s; run from the "
                 "repository root" % pkg)
    sys.path.insert(0, str(SRC))
    import etmreg
    if Path(etmreg.__file__).resolve().parent != pkg.resolve():
        sys.exit("perfbench: imported etmreg from %s, not %s"
                 % (etmreg.__file__, pkg))


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("sweep", "bursty", "deploy"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# =========================================================================
# set-up
# =========================================================================

def build_pass(workload, seed):
    """Import the package, draw the workload's pass of ops and build and
    compile every config in it."""
    import_package()
    from workloads import WORKLOADS
    stream, count = WORKLOADS[workload]
    ops = stream(seed)
    pass_ops = [next(ops) for _ in range(count)]
    for op in pass_ops:
        op.prepare()
    return pass_ops


def _reloadable(name):
    return name == "etmreg" or name.startswith("etmreg.") \
        or name == "workloads"


def measure_setup(workload, seed, clock):
    """Median scaled set-up time over SETUP_REPEATS repeats in this
    process.  Each repeat drops etmreg's modules (and `workloads`, which
    binds them) from sys.modules, imports them again and builds the pass,
    so it pays etmreg's import and a cold compile cache; extension modules
    such as numpy stay loaded.  The original modules are put back after."""
    saved = {k: v for k, v in sys.modules.items() if _reloadable(k)}
    times = []
    try:
        for _ in range(SETUP_REPEATS):
            for name in [k for k in sys.modules if _reloadable(k)]:
                del sys.modules[name]
            times.append(clock.time(build_pass, workload, seed)[2])
    finally:
        for name in [k for k in sys.modules if _reloadable(k)]:
            del sys.modules[name]
        sys.modules.update(saved)
    return statistics.median(times)


# =========================================================================
# the closed loop
# =========================================================================

class Slot:
    """One op of the pass: its first result and its time in every round."""

    __slots__ = ("index", "op", "output", "error", "calls", "failures",
                 "times", "traced_times", "wall")

    def __init__(self, index, op):
        self.index = index
        self.op = op
        self.output = None
        self.error = None
        self.calls = []             # [(SystemConfig, SystemTrace)]
        self.failures = []
        self.times = []             # scaled seconds, untraced rounds
        self.traced_times = []
        self.wall = []              # wall seconds, untraced rounds

    def answer(self):
        return answer(self.output, self.error)


def answer(output, error):
    """What an op returned, in a form two rounds can compare."""
    if error is not None:
        return ("error", error.strip().splitlines()[-1])
    if isinstance(output, BaseException):
        return ("raised", repr(output))
    return output


def run_op(op):
    """(output, formatted traceback or None)."""
    try:
        return op.run(), None
    except op.expected as e:        # a valid answer, e.g. NoConvergence
        return e, None
    except Exception:               # counted as a failed op
        return None, traceback.format_exc()


def run_round(slots, order, clock, recorder, tracer):
    """Run every op once in `order`.  The first round keeps each op's
    result and its run_system calls; later rounds must reproduce the
    result.  Returns the indices of ops whose result changed."""
    first = not slots[0].times
    changed = []
    for i in order:
        slot = slots[i]
        if tracer is not None:
            tracer.op = i
        if first:
            slot.calls = recorder.start_op()
        (output, error), wall, scaled = clock.time(run_op, slot.op)
        recorder.stop()
        if tracer is not None:
            slot.traced_times.append(scaled)
        else:
            slot.times.append(scaled)
            slot.wall.append(wall)
        if first:
            slot.output, slot.error = output, error
        elif answer(output, error) != slot.answer():
            changed.append(i)
    return changed


def closed_loop(slots, seconds, seed, clock, recorder, tracer):
    """Rounds over the pass, each in a fresh seeded order, until `seconds`
    have passed and MIN_ROUNDS ran (with a tracer: TRACE_ROUNDS,
    alternating untraced and traced).  Returns the indices of ops whose
    result changed between rounds."""
    rng = random.Random(seed)
    need = TRACE_ROUNDS if tracer is not None else MIN_ROUNDS
    changed = set()
    start = time.perf_counter()
    rounds = 0
    while rounds < need or time.perf_counter() - start < seconds:
        order = list(range(len(slots)))
        rng.shuffle(order)
        if tracer is not None and rounds % 2 == 1:
            with tracer:
                changed.update(run_round(slots, order, clock, recorder,
                                         tracer))
        else:
            changed.update(run_round(slots, order, clock, recorder, None))
        rounds += 1
    return changed


# =========================================================================
# checks and metrics
# =========================================================================

def run_oracles(slots, recorder, clock=None):
    """The oracle trace of every recorded run_system call, keyed by (op
    index, call index).  With a clock (traced run), each call is also run
    again with hops, and the two are timed back to back; the second value
    is then [calls, hop seconds, no-hop seconds] per checks.REGIMES band of
    the hop trace's controller utilisation, else None."""
    import checks
    oracles = {}
    bands = [[0, 0.0, 0.0] for _ in checks.REGIMES]
    for slot in slots:
        for j, (sys_cfg, trace) in enumerate(slot.calls):
            if clock is None:
                oracles[slot.index, j] = recorder.oracle(sys_cfg)
                continue
            hop = clock.time(recorder.original, sys_cfg)[2]
            oracles[slot.index, j], _, nohop = clock.time(recorder.oracle,
                                                          sys_cfg)
            util = checks.bus_utilisation(sys_cfg, trace)
            band = next(b for (lo, hi), b in zip(checks.REGIMES, bands)
                        if lo <= util < hi)
            band[0] += 1
            band[1] += hop
            band[2] += nohop
    return oracles, (bands if clock is not None else None)


def print_regimes(bands):
    """Hop and no-hop host time of the pass's calls per utilisation band;
    returns no-hop / hop over the whole pass."""
    import checks
    for (lo, hi), (calls, hop, nohop) in zip(checks.REGIMES, bands):
        if calls:
            print("regime utilisation %.1f-%.1f: %d calls, %.3f s with "
                  "hops, %.3f s without, gain %.3f"
                  % (lo, min(hi, 1.0), calls, hop, nohop, nohop / hop))
    return sum(b[2] for b in bands) / sum(b[1] for b in bands)


def check_slots(workload, slots, oracles):
    """Oracle and invariant checks on every op's first result; returns the
    number of run_system calls whose hop result differs from the oracle."""
    import checks
    import workloads
    mismatches = 0
    cap = workloads.H.preset(workloads.BOARD).mem_cap_mbps
    for slot in slots:
        if slot.error is not None:
            slot.failures.append(slot.answer()[1])
        for j, (sys_cfg, trace) in enumerate(slot.calls):
            errors = checks.check_trace(sys_cfg, trace, oracles[slot.index, j])
            if errors and errors[0].startswith("hop result"):
                mismatches += 1
            slot.failures.extend(errors)
        if workload == "sweep" and slot.error is None:
            result = slot.output
            slot.failures.extend(result.failures)
            if len(result.rows) != len(slot.op.cfg.targets_mbps):
                slot.failures.append("sweep returned %d rows for %d targets"
                                     % (len(result.rows),
                                        len(slot.op.cfg.targets_mbps)))
            for row in result.rows:
                if row.achieved_mbps > cap:
                    slot.failures.append("achieved %.1f MB/s over the cap"
                                         % row.achieved_mbps)
    return mismatches


def core_cycles(slot):
    from checks import core_cycles as cc
    return sum(cc(sys_cfg) for sys_cfg, _ in slot.calls)


def tail(times):
    """(percentile, value) at the highest nearest-rank with TAIL_BEYOND
    ops above it, or None when that rank is not above the median."""
    n = len(times)
    rank = n - TAIL_BEYOND
    if rank <= (n + 1) // 2:
        return None
    return 100 * rank // n, sorted(times)[rank - 1]


def sim_answers(workload, slots):
    """Simulated-time answers and the result digest over the pass; a
    speed-only change must leave them bit-identical."""
    import checks
    digest = checks.Digest()
    irqs = 0
    core_ms = 0.0
    calls = bus_bound = throttled = cycles = 0
    for slot in slots:
        digest.add(slot.answer())
        for sys_cfg, trace in slot.calls:
            digest.add(trace)
            for spec, st in zip(sys_cfg.cores, trace.stats):
                irqs += st.irq_count
                core_ms += trace.duration_cycles / (spec.model.freq_mhz
                                                    * 1e3)
                throttled += st.throttled_cycles
            calls += 1
            bus_bound += checks.bus_utilisation(sys_cfg, trace) \
                >= checks.BUS_BOUND
            cycles += checks.core_cycles(sys_cfg)
    out = {"digest": digest.hexdigest(),
           "sim.irqs_per_ms": irqs / core_ms,
           "sim.bus_bound_calls": "%d/%d" % (bus_bound, calls),
           "sim.throttled_share": throttled / cycles}
    ok = [s for s in slots if s.error is None]
    if workload == "sweep":
        errs = [abs(row.achieved_mbps - row.target_mbps) / row.target_mbps
                for s in ok for row in s.output.rows]
        out["sim.target_error_pct"] = 100 * statistics.median(errs)
    if workload == "deploy":
        floors = [s.output[0] for s in ok if isinstance(s.output, tuple)]
        out["sim.converged"] = "%d/%d" % (len(floors), len(slots))
        if floors:
            out["sim.safe_floor_mbps"] = statistics.median(floors)
    return out


def report_failures(args, slots):
    failed = [s for s in slots if s.failures]
    if not failed:
        return
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / ("failures-%s-seed%d.txt" % (args.workload, args.seed))
    with open(path, "w") as f:
        for s in failed:
            f.write("op %d %s\n" % (s.index, s.op.label))
            for msg in s.failures:
                f.write("    %s\n" % msg)
    for s in failed[:SHOW_FAILURES]:
        print("FAILED op %d: %s: %s" % (s.index, s.op.label, s.failures[0]))
    if len(failed) > SHOW_FAILURES:
        print("... %d more in %s" % (len(failed) - SHOW_FAILURES, path))


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(slots, setup_s, rss_mb):
    best = [min(s.times) for s in slots]
    wall = [min(s.wall) for s in slots]
    print("wall best-of-rounds: %.3f s per pass, op p50 %.4f s"
          % (sum(wall), statistics.median(wall)))
    m = {
        "core_mcycles_per_s": metric(
            sum(core_cycles(s) for s in slots) / sum(best) / 1e6,
            "Mcycles/s"),
        "op_p50_s": metric(statistics.median(best), "s"),
    }
    t = tail(best)
    if t is not None:
        m["op_tail_s"] = metric(t[1], "s")
        print("op_tail_s is p%d over %d ops" % (t[0], len(best)))
    m["setup_s"] = metric(setup_s, "s")
    m["peak_rss_mb"] = metric(rss_mb, "MB")
    return m


def per_layer(slots, tracer, mismatches, suite, pass_hop_gain):
    best = sum(min(s.times) for s in slots)
    best_traced = sum(min(s.traced_times) for s in slots)
    rounds = len(slots[0].traced_times)
    cycles = sum(core_cycles(s) for s in slots)
    print("traced core_mcycles_per_s %.4f vs untraced %.4f"
          % (cycles / best_traced / 1e6, cycles / best / 1e6))

    def spans_of(name):
        """The workload's spans of `name`, or the probe's when the workload
        makes no such call (see layer_suite)."""
        spans = tracer.by_name(name)
        own = [s for s in spans if s.op != "probe"]
        return own or spans

    self_s = tracer.self_times()
    rs = spans_of("machine.run_system")
    rp = spans_of("harness.run_point")
    cal = {s.id for s in spans_of("harness.calibrate_safe_floor")}
    probes = [s for s in tracer.by_name("harness.run_point")
              if s.parent in cal]
    rs_time = sum(s.duration for s in rs)

    def per_pass(spans):
        return sum(1 for s in spans if s.op != "probe") / rounds

    def mean_ms(name):
        spans = spans_of(name)
        return 1e3 * sum(s.duration for s in spans) / len(spans)

    m = {}
    for design, ns in suite["step_ns"].items():
        m["fabric.step_ns." + design] = metric(ns, "ns")
    m["fabric.compile_ms"] = metric(suite["compile_ms"], "ms")
    m["fabric.compile.calls"] = metric(
        per_pass(tracer.by_name("fabric.compile_fabric")), "count")
    m["regulators.memguard_step_ns"] = metric(suite["memguard_ns"], "ns")
    m["regulators.mempol_step_ns"] = metric(suite["mempol_ns"], "ns")
    m["machine.run_system.s"] = metric(rs_time / len(rs), "s")
    m["machine.run_system.calls"] = metric(per_pass(rs), "count")
    m["machine.lines_per_s"] = metric(
        sum(s.lines for s in rs) / rs_time, "1/s")
    for name, gain in suite["hop_gain"].items():
        m["machine.hop_gain." + name] = metric(gain, "ratio")
    m["machine.hop_gain.pass"] = metric(pass_hop_gain, "ratio")
    for n, rate in suite["scaling"].items():
        m["machine.scaling.%dcore" % n] = metric(rate, "Mcycles/s")
    m["machine.oracle_mismatches"] = metric(mismatches, "count")
    m["harness.run_point.self_s"] = metric(
        sum(self_s[s.id] for s in rp) / len(rp), "s")
    m["harness.calibrate.probes"] = metric(len(probes) / len(cal), "count")
    m["regprog.compile_ms"] = metric(mean_ms("regprog.compile"), "ms")
    m["regprog.lift_ms"] = metric(mean_ms("regprog.lift"), "ms")
    m["cli.simulate_s"] = metric(suite["cli_s"], "s")
    m["cli.harness_mismatches"] = metric(suite["cli_mismatches"], "count")
    m["trace.overhead_pct"] = metric(100 * (best_traced / best - 1), "%")
    return m


def layer_suite(seed, clock, tracer):
    """Per-cycle microbenchmarks and machine scenarios (untraced), then the
    entry-point and CLI probes (traced, as op "probe")."""
    import layers
    suite = {
        "step_ns": {d: layers.fabric_step_ns(clock, d, seed)
                    for d in ("pr", "tb13", "pr-user")},
        "compile_ms": layers.fabric_compile_ms(clock),
        "memguard_ns": layers.memguard_step_ns(clock, seed),
        "mempol_ns": layers.mempol_step_ns(clock, seed),
        "hop_gain": layers.hop_gain(clock),
        "scaling": layers.scaling(clock),
    }
    with tracer:
        tracer.op = "probe"
        layers.entry_probe()
        suite["cli_s"], suite["cli_mismatches"] = layers.cli_probe(
            clock, str(SRC))
    return suite


# =========================================================================
# main
# =========================================================================

def main(argv=None):
    args = parse_args(argv)
    pass_ops = build_pass(args.workload, args.seed)
    import checks
    import spans
    from hostspeed import Clock

    slots = [Slot(i, op) for i, op in enumerate(pass_ops)]
    tracer = spans.Tracer() if args.trace else None
    run_op(pass_ops[0])             # warm-up: first-call costs untimed
    clock = Clock()
    with checks.Recorder() as recorder:
        changed = closed_loop(slots, args.seconds, args.seed, clock,
                              recorder, tracer)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    suite = layer_suite(args.seed, clock, tracer) if args.trace else None
    setup_s = None if args.trace else measure_setup(args.workload,
                                                    args.seed, clock)

    oracles, bands = run_oracles(slots, recorder,
                                 clock if args.trace else None)
    mismatches = check_slots(args.workload, slots, oracles)
    failed = sum(1 for s in slots if s.failures)
    print("workload %s  seed %d  trace %d  %d ops x %d rounds"
          % (args.workload, args.seed, args.trace, len(slots),
             len(slots[0].times) + len(slots[0].traced_times)))
    print("failed_ops_frac %.4f (%d of %d ops; %d oracle mismatches)"
          % (failed / len(slots), failed, len(slots), mismatches))
    report_failures(args, slots)
    for i in sorted(changed):
        print("NONDETERMINISTIC op %d: %s" % (i, slots[i].op.label))
    for name, value in sim_answers(args.workload, slots).items():
        print("%s %s" % (name, value if isinstance(value, str)
                         else repr(value)))

    if args.trace:
        metrics = per_layer(slots, tracer, mismatches, suite,
                            print_regimes(bands))
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / ("spans-%s-seed%d.jsonl"
                                % (args.workload, args.seed)))
    else:
        metrics = end_to_end(slots, setup_s, rss_mb)
    for name, m in metrics.items():
        print("%s %.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": not changed, "attempted": len(slots),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
