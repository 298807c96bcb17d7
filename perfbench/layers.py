"""Per-layer measurements that do not come from the workload's spans.

Per-cycle functions (`CompiledFabric.step`, `memguard_step`,
`mempol_step`) are called millions of times per run, so they get no span:
they are timed here in a tight loop over a seeded input stream instead.
The fixed `machine` scenarios time `run_system` with and without hops and
across core counts; the `cli` probe runs the command line in a
subprocess.  Every figure is a median of repeated timings, each scaled
by the host-speed reference (hostspeed.py).
"""

import json
import os
import random
import statistics
import subprocess
import sys

import etmreg.fabric as F
import etmreg.harness as H
import etmreg.machine as M
import etmreg.regprog as P
import etmreg.regulators as R
from etmreg.accounting import model_for

REPEATS = 5
STEP_CALLS = 20_000
BOARD = "zcu102"
USER_FETCH_ADDR = 0x1000

# name -> (board, design or None, target MB/s, op); ROADMAP item 2's set
HOP_SCENARIOS = {
    "none-read": ("zcu102", None, 0.0, M.OP_READ),
    "pr-350-read": ("zcu102", R.PR, 350.0, M.OP_READ),
    "pr-350-write": ("zcu102", R.PR, 350.0, M.OP_WRITE),
    "pr-950-read": ("zcu102", R.PR, 950.0, M.OP_READ),
    "tb13-1000-read": ("zcu102", R.TB13, 1000.0, M.OP_READ),
    "memguard-350-read": ("zcu102", R.MEMGUARD, 350.0, M.OP_READ),
    "mempol-350-read": ("zcu102", R.MEMPOL, 350.0, M.OP_READ),
    "ideal-pr-350-read": ("ideal", R.PR, 350.0, M.OP_READ),
}
HOP_DURATION_MS = 0.1
HOP_REPEATS = 3
SCALING_CORES = (1, 2, 4, 8)
SCALING_CYCLES = 40_000
CLI_OPS = (M.OP_READ, M.OP_WRITE, M.OP_MODIFY)
CLI_DURATION_MS = 0.05


def _median_time(clock, fn, repeats=REPEATS):
    return statistics.median(clock.time(fn)[2] for _ in range(repeats))


def _regulator(design, target=350.0, board=BOARD):
    return H.regulator_for(design, H.preset(board), target, 5.0)


# =========================================================================
# per-cycle functions
# =========================================================================

def fabric_step_ns(clock, design, seed):
    """ns per CompiledFabric.step call on a seeded pulse stream."""
    cfg = _regulator(design)
    cf = F.compile_fabric(cfg)
    model = H.preset(BOARD).model
    refill = 1 << min(model.refill_signals)
    wb = 1 << min(model.wb_signals)
    rng = random.Random(seed)
    pulses = [(refill if rng.random() < 0.3 else 0)
              | (wb if rng.random() < 0.1 else 0)
              for _ in range(STEP_CALLS)]
    cm = cf.cmp_mask(USER_FETCH_ADDR, True)
    step = cf.step

    def loop():
        s = cf.reset_tuple()
        for p in pulses:
            s = step(s[0], s[1], s[2], s[3], s[4], p, cm)

    return _median_time(clock, loop) / STEP_CALLS * 1e9


def memguard_step_ns(clock, seed):
    """ns per memguard_step call, one call per simulated cycle."""
    cfg = _regulator(R.MEMGUARD)
    rng = random.Random(seed)
    deltas = [rng.choice((0, 0, 0, 1, 1, 2)) for _ in range(STEP_CALLS)]
    step = R.memguard_step

    def loop():
        st = R.memguard_reset(cfg)
        for cycle, d in enumerate(deltas):
            st, _ = step(cfg, st, d, cycle)

    return _median_time(clock, loop) / STEP_CALLS * 1e9


def mempol_step_ns(clock, seed):
    """ns per mempol_step call at a poll boundary (the machine calls it
    only there)."""
    cfg = _regulator(R.MEMPOL)
    rng = random.Random(seed)
    deltas = [rng.randint(0, 2 * cfg.budget_events // cfg.window_size)
              for _ in range(STEP_CALLS)]
    step = R.mempol_step

    def loop():
        st = R.mempol_reset(cfg)
        pmc = 0
        for d in deltas:
            pmc += d
            st, _ = step(cfg, st, pmc, st.next_poll)

    return _median_time(clock, loop) / STEP_CALLS * 1e9


def fabric_compile_ms(clock):
    """ms for one uncached compile_fabric, median over the fabric designs
    (the cost set-up pays per new config)."""
    compile_uncached = F.compile_fabric.__wrapped__
    times = []
    for design in R.ETM_DESIGNS:
        cfg = _regulator(design)
        times.append(_median_time(clock, lambda: compile_uncached(cfg)))
    return statistics.median(times) * 1e3


# =========================================================================
# machine scenarios
# =========================================================================

def _single_core(board_name, design, target, op, duration_ms):
    board = H.preset(board_name)
    reg = None if design is None else _regulator(design, target, board_name)
    return M.SystemConfig(
        cores=(M.CoreSpec(board.model, M.Synthetic(op), reg),),
        shared_mem_bandwidth=board.cap_lines_per_cycle(),
        duration_cycles=int(round(duration_ms * board.freq_mhz * 1000)))


def hop_gain(clock):
    """Scenario -> host time without hops / host time with hops."""
    out = {}
    run = M.run_system
    for name, (board, design, target, op) in HOP_SCENARIOS.items():
        cfg = _single_core(board, design, target, op, HOP_DURATION_MS)
        with_hops, without = [], []
        for i in range(HOP_REPEATS):
            # alternate which side runs first
            for hops in ((True, False) if i % 2 == 0 else (False, True)):
                (with_hops if hops else without).append(
                    clock.time(run, cfg, hops)[2])
        out[name] = statistics.median(without) / statistics.median(with_hops)
    return out


def scaling(clock):
    """Core count -> simulated core-Mcycles per host second, every core
    running saturating reads under `pr` at 350 MB/s."""
    board = H.preset(BOARD)
    reg = _regulator(R.PR)
    out = {}
    for n in SCALING_CORES:
        cfg = M.SystemConfig(
            cores=tuple(M.CoreSpec(board.model, M.Synthetic(M.OP_READ), reg)
                        for _ in range(n)),
            shared_mem_bandwidth=board.cap_lines_per_cycle(),
            duration_cycles=SCALING_CYCLES)
        t = _median_time(clock, lambda: M.run_system(cfg), HOP_REPEATS)
        out[n] = n * SCALING_CYCLES / t / 1e6
    return out


# =========================================================================
# entry points called once each (spanned when a tracer is active)
# =========================================================================

def cli_probe(clock, src_dir):
    """(median seconds of `python -m etmreg simulate --json`, number of
    ops where its achieved MB/s differs from run_point's)."""
    board = H.preset(BOARD)
    env = dict(os.environ, PYTHONPATH=src_dir)
    times, mismatches = [], 0
    for op in CLI_OPS:
        cmd = [sys.executable, "-m", "etmreg", "simulate", "--board", BOARD,
               "--design", R.PR, "--target", "350", "--op", op,
               "--period-us", "5", "--duration-ms", str(CLI_DURATION_MS),
               "--json"]
        proc, _, scaled = clock.time(
            lambda: subprocess.run(cmd, env=env, capture_output=True,
                                   text=True, timeout=120, check=True))
        times.append(scaled)
        cli = json.loads(proc.stdout)["achieved_mbps"]
        row = H.run_point(board, R.PR, 350.0, op, 5.0, CLI_DURATION_MS)
        if cli != row.achieved_mbps:
            mismatches += 1
    return statistics.median(times), mismatches


def entry_probe():
    """One calibration and a compile + lift of every fabric design, so the
    traced run has harness and regprog spans on every workload."""
    board = H.preset(BOARD)
    H.calibrate_safe_floor(BOARD, R.PR, 2.5, duration_ms=0.02)
    model = model_for(board.model.core_type)
    for design in R.ETM_DESIGNS:
        spec = R.RegulatorSpec(design, 27, board.period_cycles(5.0),
                               core_type=board.model.core_type,
                               model_variant=model.variant)
        P.lift(P.compile(spec, core_model=board.model))
