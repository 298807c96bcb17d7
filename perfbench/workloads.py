"""Seeded operation streams for the three benchmark workloads.

Each workload is a generator of `Op`s drawn from one `random.Random(seed)`,
so a seed fixes every input.  Ops come in blocks that cover the workload's
design space once (every sweep row, every core count, every design) in a
seeded order, and a pass is a whole number of blocks, so every seed runs
the same mix and per-run statistics do not hinge on what the seed drew.

`Op.prepare()` builds and compiles the op's configs (set-up); `Op.run()`
is the timed call into the package.
"""

import random

import etmreg.fabric as F
import etmreg.harness as H
import etmreg.machine as M
import etmreg.regprog as P
import etmreg.regulators as R
from etmreg.accounting import model_for

BOARD = "zcu102"

# sweep: one run_sweep call per (design, op) row; targets from below the
# safe floor (throttle-bound, hop path) to near the 1000 MB/s cap
# (bandwidth-bound, stepped every cycle)
SWEEP_BANDS = ((20.0, 150.0), (150.0, 500.0), (500.0, 850.0),
               (850.0, 990.0))
SWEEP_OPS = (M.OP_READ, M.OP_WRITE)
SWEEP_PERIOD_US = 2.5
SWEEP_DURATION_MS = 0.02

# bursty: every op simulates the same number of core-cycles
BURSTY_CORE_CYCLES = 80_000
BURSTY_REGULATORS = R.ALL_DESIGNS + ("none",)
BURSTY_PERIODS_US = (2.5, 5.0, 10.0, 20.0)
# the systems of one block: the workload kind of each core
BURSTY_SYSTEMS = (("burst",), ("burst", "synthetic"),
                  ("burst", "burst", "synthetic", "replay"))

# deploy: calibrate -> compile -> text round trip -> lift -> validate
DEPLOY_BOARDS = ("zcu102", "rk3588-a55", "rk3588-a76")
DEPLOY_DESIGNS = R.ETM_DESIGNS + (R.MEMGUARD,)
DEPLOY_PERIOD_US = (2.5, 5.0)
DEPLOY_PROBE_MS = 0.015


class Op:
    """One closed-loop operation: a single call into the package."""

    label = ""
    expected = ()       # exception types that are a valid answer

    def prepare(self):
        """Build and compile every config the op needs up front."""

    def run(self):
        raise NotImplementedError


def _compile_regulator(reg):
    if isinstance(reg, F.EtmConfig):
        F.compile_fabric(reg)


# =========================================================================
# sweep
# =========================================================================

class SweepOp(Op):
    def __init__(self, design, op, targets):
        self.cfg = H.ExperimentConfig(
            board=BOARD, designs=(design,), targets_mbps=targets,
            op_types=(op,), period_us=SWEEP_PERIOD_US,
            duration_ms=SWEEP_DURATION_MS)
        self.label = "sweep %s %s targets=%s" % (
            design, op, ",".join("%g" % t for t in self.cfg.targets_mbps))

    def prepare(self):
        board = H.preset(BOARD)
        for t in self.cfg.targets_mbps:
            _compile_regulator(H.regulator_for(
                self.cfg.designs[0], board, t, SWEEP_PERIOD_US))

    def run(self):
        return H.run_sweep(self.cfg)


def sweep_ops(seed):
    rng = random.Random(seed)
    rows = [(d, op) for d in R.ALL_DESIGNS for op in SWEEP_OPS]
    while True:
        rng.shuffle(rows)
        for design, op in rows:
            targets = tuple(round(rng.uniform(lo, hi), 1)
                            for lo, hi in SWEEP_BANDS)
            yield SweepOp(design, op, targets)


# =========================================================================
# bursty
# =========================================================================

def _draw_burst(rng):
    while True:
        pattern = []
        for _ in range(rng.randint(1, 3)):
            op = rng.choice((M.OP_READ, M.OP_WRITE, M.OP_MODIFY))
            nbytes = 64 * rng.randint(0, 128)
            idle = rng.choice((0, rng.randint(1, 5000)))
            pattern.append((op, nbytes, idle))
        if any(n or i for _, n, i in pattern):
            return M.Burst(tuple(pattern), wfi_idle=rng.random() < 0.5)


def _draw_replay(rng, signals):
    records = []
    for _ in range(rng.randint(50, 400)):
        sigs = rng.choice(((signals[0],), (signals[1],), signals))
        mode = F.KERNEL if rng.random() < 0.15 else F.USER
        records.append((rng.randint(0, 400), frozenset(sigs), mode))
    return M.TraceReplay(tuple(records))


def _draw_workload(rng, kind, model):
    if kind == "burst":
        return _draw_burst(rng)
    if kind == "synthetic":
        return M.Synthetic(rng.choice((M.OP_WRITE, M.OP_MODIFY)),
                           issue_ipc_limit=rng.choice((1.0, 0.5, 0.1,
                                                       0.02)))
    return _draw_replay(rng, (min(model.refill_signals),
                              min(model.wb_signals)))


def _bag(rng, items):
    """Endless draws that use every item once before any repeats."""
    items = list(items)
    while True:
        rng.shuffle(items)
        yield from items


class BurstyOp(Op):
    def __init__(self, cores, regs):
        board = H.preset(BOARD)
        self.sys_cfg = M.SystemConfig(
            cores=cores, shared_mem_bandwidth=board.cap_lines_per_cycle(),
            duration_cycles=BURSTY_CORE_CYCLES // len(cores))
        self.label = "bursty %d-core %s" % (len(cores), " | ".join(
            "%s/%s" % (r, type(c.workload).__name__)
            for r, c in zip(regs, cores)))

    def prepare(self):
        for c in self.sys_cfg.cores:
            _compile_regulator(c.regulator)

    def run(self):
        return M.run_system(self.sys_cfg)


def bursty_ops(seed):
    """Blocks of the BURSTY_SYSTEMS in a seeded order; regulators come
    from a shuffled bag, so each is used equally often."""
    rng = random.Random(seed)
    board = H.preset(BOARD)
    systems = list(BURSTY_SYSTEMS)
    regulators = _bag(rng, BURSTY_REGULATORS)
    while True:
        rng.shuffle(systems)
        for kinds in systems:
            cores, regs = [], []
            for kind in kinds:
                design = next(regulators)
                reg = None
                if design != "none":
                    reg = H.regulator_for(
                        design, board, round(rng.uniform(50.0, 900.0), 1),
                        rng.choice(BURSTY_PERIODS_US))
                workload = _draw_workload(rng, kind, board.model)
                cores.append(M.CoreSpec(board.model, workload, reg))
                regs.append(design)
            yield BurstyOp(tuple(cores), regs)


# =========================================================================
# deploy
# =========================================================================

class LiftMismatch(AssertionError):
    pass


class DeployOp(Op):
    expected = (H.NoConvergence,)

    def __init__(self, board, design, period_us):
        self.board = board
        self.design = design
        self.period_us = period_us
        self.label = "deploy %s %s period=%gus" % (board, design, period_us)

    def _spec(self, budget):
        b = H.preset(self.board)
        model = model_for(b.model.core_type)
        spec = R.RegulatorSpec(self.design, budget,
                               b.period_cycles(self.period_us),
                               core_type=b.model.core_type,
                               model_variant=model.variant)
        return spec, sorted(model.signals)

    def prepare(self):
        b = H.preset(self.board)
        _compile_regulator(H.regulator_for(
            self.design, b, b.mem_cap_mbps, self.period_us))

    def run(self):
        """Returns (floor MB/s, emitted program text or None)."""
        floor = H.calibrate_safe_floor(self.board, self.design,
                                       self.period_us,
                                       duration_ms=DEPLOY_PROBE_MS)
        if self.design not in R.ETM_DESIGNS:
            return floor, None
        budget = H.bandwidth_to_budget(floor, self.period_us)
        spec, signals = self._spec(budget)
        b = H.preset(self.board)
        text = P.emit_text(P.compile(spec, core_model=b.model,
                                     safe_floor_events=budget))
        lifted = P.lift(P.parse_text(text))
        F.validate_config(lifted)
        if lifted != R.build_config(spec, signals=signals):
            raise LiftMismatch("lifted config differs from build_config")
        return floor, text


def deploy_ops(seed):
    """Blocks of every design once; boards taken in a seeded rotation."""
    rng = random.Random(seed)
    designs = list(DEPLOY_DESIGNS)
    boards = list(DEPLOY_BOARDS)
    rng.shuffle(boards)
    k = 0
    while True:
        rng.shuffle(designs)
        for design in designs:
            yield DeployOp(boards[k % len(boards)], design,
                           round(rng.uniform(*DEPLOY_PERIOD_US), 2))
            k += 1


# name -> (op stream, ops in the fixed pass: whole blocks, and at least
# 22 so that the tail percentile has ten ops above it and is above p50)
WORKLOADS = {
    "sweep": (sweep_ops, 2 * len(R.ALL_DESIGNS) * len(SWEEP_OPS)),
    "bursty": (bursty_ops, 16 * len(BURSTY_SYSTEMS)),
    "deploy": (deploy_ops, 4 * len(DEPLOY_DESIGNS)),
}
