"""Batch experiment runner: target sweeps, safe-floor calibration, CSV/SVG.

One sweep point = one board preset + one regulator design + one bandwidth
target + one access type, simulated for a fixed stretch of time on a
single regulated core running a saturating synthetic workload.  Points
are independent and merged in sorted configuration order, so repeated
runs of the same config produce byte-identical outputs.
"""

from dataclasses import dataclass, fields
from fractions import Fraction
from math import isfinite

from . import fabric as F
from . import machine as M
from . import regulators as R
from .regulators import RangeError

__all__ = [
    "BoardPreset", "PRESETS", "ExperimentConfig", "ResultRow",
    "SweepResult", "NoConvergence", "us_to_cycles", "bandwidth_to_budget",
    "regulator_for", "point_system", "program_lines", "program_mbps",
    "run_point", "run_sweep", "calibrate_safe_floor",
    "write_csv", "load_csv", "render_svg", "emit_outputs",
]


class NoConvergence(RuntimeError):
    pass


# =========================================================================
# board presets
# =========================================================================

@dataclass(frozen=True)
class BoardPreset:
    """A core model plus the board's shared-memory ceiling."""
    name: str
    model: M.CoreModelConfig
    mem_cap_mbps: float

    @property
    def freq_mhz(self):
        return self.model.freq_mhz

    def cap_lines_per_cycle(self):
        return Fraction(self.mem_cap_mbps) / (M.CACHELINE * self.freq_mhz)

    def period_cycles(self, period_us):
        return us_to_cycles(period_us, self.freq_mhz)


def _preset(name, cap, **kw):
    return BoardPreset(name, M.CoreModelConfig(**kw), cap)


PRESETS = {p.name: p for p in (
    # reference board: single-entry queues, no memory latency, and the
    # shortest interrupt path the model has.  An interrupt phase moves a
    # cycle after it began at the earliest, so each 0-cycle phase lasts a
    # cycle: the handler starts two cycles after the level rises, and its
    # entry and exit take a cycle each
    _preset("ideal", 1000.0, core_type="cortex-a53", freq_mhz=1200,
            irq_latency_cycles=0, read_outstanding=1, write_buffer_depth=1,
            mem_latency_cycles=0, handler_entry_cycles=0,
            handler_poll_cycles=1, handler_exit_cycles=0,
            handler_kernel_events=0),
    _preset("zcu102", 1000.0, core_type="cortex-a53", freq_mhz=1200,
            irq_latency_cycles=81),
    _preset("lx2160a", 2500.0, core_type="cortex-a72", freq_mhz=2000,
            irq_latency_cycles=259,
            refill_signals=frozenset({24}), wb_signals=frozenset({25})),
    _preset("am69x", 2500.0, core_type="cortex-a72", freq_mhz=2000,
            irq_latency_cycles=163,
            refill_signals=frozenset({24}), wb_signals=frozenset({25})),
    _preset("rk3588-a55", 2000.0, core_type="cortex-a55", freq_mhz=1120,
            irq_latency_cycles=272,
            refill_signals=frozenset({33}), wb_signals=frozenset({34})),
    _preset("rk3588-a76", 2000.0, core_type="cortex-a76", freq_mhz=1200,
            irq_latency_cycles=308,
            refill_signals=frozenset({73}), wb_signals=frozenset({74})),
)}


def preset(name) -> BoardPreset:
    try:
        return PRESETS[name]
    except KeyError:
        raise KeyError("unknown board preset %r; have %s"
                       % (name, ", ".join(sorted(PRESETS)))) from None


# =========================================================================
# budgets
# =========================================================================

def _check_positive(what, value):
    """Raise a RangeError that names `what` unless `value` is a positive
    finite number."""
    if not (isfinite(value) and value > 0):
        raise RangeError("%s %r is not a positive finite number"
                         % (what, value))


def _check_cycles(what, value, cycles, board, counted=False):
    """Raise a RangeError that names `what` and `board`'s clock if `value`,
    `cycles` cycles at that clock, is below 1 cycle, or over the trace
    unit's 16-bit counter if a counter counts them (`counted`)."""
    if cycles < 1:
        why = "below 1 cycle"
    elif counted and cycles > F.COUNTER_MAX:
        why = "over the 16-bit counter; max is %.1f us" % R.max_period(
            board.freq_mhz)
    else:
        return
    raise RangeError("%s %r is %d cycles at the %s clock of %d MHz, %s"
                     % (what, value, cycles, board.name, board.freq_mhz, why))


def _period_cycles(board, period_us, designs):
    """`period_us` in cycles of `board`'s clock, or a RangeError that
    names it if it is not a positive finite number, is below 1 cycle or,
    for a trace-unit design among `designs`, over its 16-bit counter."""
    _check_positive("period_us", period_us)
    cycles = board.period_cycles(period_us)
    _check_cycles("period_us", period_us, cycles, board,
                  any(d in R.ETM_DESIGNS for d in designs))
    return cycles


def us_to_cycles(us, freq_mhz) -> int:
    """Cycles in `us` microseconds at `freq_mhz`, to the nearest cycle."""
    if not isfinite(us):
        raise RangeError("%r us is not a finite time" % (us,))
    return round(us * freq_mhz)


def bandwidth_to_budget(target_mbps, period_us) -> int:
    """Events per period allowing `target_mbps`; rounds to the nearest
    whole cacheline, minimum one.  The trace unit's 16-bit limit is
    checked where a fabric config is built."""
    _check_positive("target_mbps", target_mbps)
    _check_positive("period_us", period_us)
    exact = target_mbps * 1e6 * period_us * 1e-6 / M.CACHELINE
    return max(1, int(exact + 0.5))     # half rounds up, never to even


def budget_to_bandwidth(budget_events, period_us) -> float:
    return budget_events * M.CACHELINE / period_us  # B/us == MB/s


def regulator_for(design, board: BoardPreset, target_mbps, period_us):
    """Build the regulator runtime config for one sweep point."""
    pc = _period_cycles(board, period_us, (design,))
    if design in R.ETM_DESIGNS:
        return R.build_config(R.RegulatorSpec(
            design, bandwidth_to_budget(target_mbps, period_us), pc,
            core_type=board.model.core_type))
    if design == R.MEMGUARD:
        return R.MemGuardConfig(
            budget_events=bandwidth_to_budget(target_mbps, period_us),
            period_cycles=pc)
    if design == R.MEMPOL:
        # the polling regulator budgets over a sliding window of polls
        return R.MemPolConfig(
            budget_events=bandwidth_to_budget(
                target_mbps, period_us * R.MEMPOL_WINDOW),
            poll_cycles=pc)
    raise RangeError("unknown regulator design %r" % (design,))


# =========================================================================
# experiment config and result rows
# =========================================================================

_CONFIG_TYPES = {"a number": (int, float), "an integer": int, "text": str}


def config_value(key, value, kind="a number"):
    """`value` of config key `key` if it is of `kind`, one of "a number",
    "an integer" or "text"; else a ValueError that names the key."""
    if isinstance(value, bool) or not isinstance(value, _CONFIG_TYPES[kind]):
        raise ValueError("%s must be %s, got %r" % (key, kind, value))
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    board: str = "zcu102"
    designs: tuple = (R.PR,)
    targets_mbps: tuple = ()
    op_types: tuple = (M.OP_READ,)
    period_us: float = 5.0
    duration_ms: float = 10.0
    csv_path: str = ""
    svg_path: str = ""

    def __post_init__(self):
        for key in ("designs", "targets_mbps", "op_types"):
            value = getattr(self, key)
            if not isinstance(value, (list, tuple)):
                raise ValueError("%s must be a list, got %r" % (key, value))
            object.__setattr__(self, key, tuple(value))
        object.__setattr__(self, "targets_mbps", tuple(
            float(config_value("targets_mbps", t))
            for t in self.targets_mbps))
        b = preset(self.board)
        _period_cycles(b, config_value("period_us", self.period_us),
                       self.designs)
        _check_positive("duration_ms", config_value("duration_ms",
                                                    self.duration_ms))
        if not self.targets_mbps:
            raise ValueError("no sweep targets")
        for t in self.targets_mbps:
            _check_positive("targets_mbps entry", t)
        _check_cycles("duration_ms", self.duration_ms,
                      us_to_cycles(self.duration_ms * 1000, b.freq_mhz), b)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f for f in cls.__dataclass_fields__}
        bad = set(data) - known
        if bad:
            raise ValueError("unknown config keys: %s" % ", ".join(sorted(bad)))
        return cls(**data)


@dataclass(frozen=True)
class ResultRow:
    target_mbps: float
    achieved_mbps: float
    op_type: str
    regulator: str
    period_us: float
    throttle_fraction: float
    irqs_per_ms: float
    max_window_overshoot_events: int
    accounted_vs_actual_ratio: float

    def __post_init__(self):
        if self.achieved_mbps < 0:
            raise ValueError("achieved bandwidth cannot be negative")
        if not 0.0 <= self.throttle_fraction <= 1.0:
            raise ValueError("throttle_fraction out of [0, 1]")

    @property
    def oscillating(self) -> bool:
        """Throttle interrupts arriving faster than one per 10 us."""
        return self.irqs_per_ms > 100

    def key(self):
        return (self.regulator, self.op_type, self.target_mbps)


# CSV columns, in order: each is a ResultRow field and the type that
# parses its cells
_ROW_FIELDS = tuple((f.name, f.type) for f in fields(ResultRow))


@dataclass(frozen=True)
class SweepResult:
    rows: tuple
    failures: tuple     # ("design=.. op=.. target=..: message", ...)


# =========================================================================
# running points
# =========================================================================

def point_system(board: BoardPreset, reg, op_type,
                 duration_ms) -> M.SystemConfig:
    """One sweep point as a system: a single core of `board` running a
    saturating `op_type` stream under `reg` (a regulator config or None)
    for `duration_ms`, a RangeError that names it if it is not finite or
    not at least 1 cycle."""
    if not isfinite(duration_ms):       # named, not as a time in us
        _check_positive("duration_ms", duration_ms)
    cycles = us_to_cycles(duration_ms * 1000, board.freq_mhz)
    _check_cycles("duration_ms", duration_ms, cycles, board)
    return M.SystemConfig(
        cores=(M.CoreSpec(board.model, M.Synthetic(op_type), reg),),
        shared_mem_bandwidth=board.cap_lines_per_cycle(),
        duration_cycles=cycles)


def program_lines(stats: M.CoreStats, op_type):
    """Lines the `op_type` program moved: a modify transaction moves two
    lines on the bus but advances the program by one."""
    if op_type == M.OP_MODIFY:
        return stats.completed_lines // 2
    return stats.completed_lines


def program_mbps(trace: M.SystemTrace, op_type, freq_mhz) -> float:
    """Achieved MB/s of core 0 as its `op_type` program sees it."""
    return M.lines_mbps(program_lines(trace.stats[0], op_type),
                        trace.duration_cycles, freq_mhz)


def run_point(board: BoardPreset, design, target_mbps, op_type,
              period_us, duration_ms) -> ResultRow:
    """Simulate one sweep point and reduce it to a ResultRow."""
    reg = regulator_for(design, board, target_mbps, period_us)
    trace = M.run_system(point_system(board, reg, op_type, duration_ms))
    st = trace.stats[0]
    duration = trace.duration_cycles
    app_lines = program_lines(st, op_type)

    overshoot = 0
    if design in R.ETM_DESIGNS:
        budget = bandwidth_to_budget(target_mbps, period_us)
        for p in trace.periods[0]:
            if p.throttled and p.pmc_events - budget > overshoot:
                overshoot = p.pmc_events - budget

    return ResultRow(
        target_mbps=float(target_mbps),
        achieved_mbps=program_mbps(trace, op_type, board.freq_mhz),
        op_type=op_type,
        regulator=design,
        period_us=float(period_us),
        throttle_fraction=st.throttled_cycles / duration,
        irqs_per_ms=st.irq_count / duration_ms,
        max_window_overshoot_events=overshoot,
        accounted_vs_actual_ratio=(st.pmc_events / app_lines
                                   if app_lines else 0.0),
    )


def run_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Run every (design, op_type, target) point; a point whose
    construction fails is recorded in `failures` and the sweep goes on.
    Rows come back sorted by (regulator, op_type, target)."""
    board = preset(cfg.board)
    points = sorted(
        (d, op, t) for d in cfg.designs for op in cfg.op_types
        for t in cfg.targets_mbps)
    rows = []
    failures = []
    for design, op, target in points:
        try:
            rows.append(run_point(board, design, target, op,
                                  cfg.period_us, cfg.duration_ms))
        except (RangeError, ValueError) as e:
            failures.append("design=%s op=%s target=%g: %s"
                            % (design, op, target, e))
    rows.sort(key=lambda r: r.key())
    return SweepResult(tuple(rows), tuple(failures))


# =========================================================================
# safe-floor calibration
# =========================================================================

def calibrate_safe_floor(board_name, design, period_us, tol=0.05,
                         duration_ms=2.0) -> float:
    """Smallest bandwidth target this board/design/period still enforces.

    Searches budgets for the first whose achieved/target ratio stays
    within `tol`; below the floor, in-flight traffic and interrupt
    latency outrun the allowance.  Returns the floor target in MB/s.
    """
    if not tol >= 0:
        raise RangeError("tol %r is not a number >= 0" % (tol,))
    board = preset(board_name)

    def ok(budget):
        target = budget_to_bandwidth(budget, period_us)
        row = run_point(board, design, target, M.OP_READ, period_us,
                        duration_ms)
        return row.achieved_mbps / target <= 1.0 + tol

    lo, hi = 1, bandwidth_to_budget(board.mem_cap_mbps, period_us)
    if ok(lo):
        hi = lo
    elif not ok(hi):
        raise NoConvergence(
            "%s on %s misses every target up to the %g MB/s cap"
            % (design, board_name, board.mem_cap_mbps))
    else:
        while hi - lo > 1:      # ok(lo) is False, ok(hi) is True
            mid = (lo + hi) // 2
            if ok(mid):
                hi = mid
            else:
                lo = mid
    floor = budget_to_bandwidth(hi, period_us)
    if floor > board.mem_cap_mbps:
        # A "floor" above the memory cap only converged because the bus,
        # not the regulator, was doing the limiting.  No usable target
        # exists below the cap.
        raise NoConvergence(
            "%s on %s: smallest enforceable target %g MB/s exceeds the "
            "%g MB/s cap" % (design, board_name, floor,
                             board.mem_cap_mbps))
    return floor


# =========================================================================
# CSV
# =========================================================================

def _fmt_cell(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)


def rows_to_csv(rows) -> str:
    lines = [",".join(name for name, _ in _ROW_FIELDS)]
    for r in rows:
        lines.append(",".join(_fmt_cell(getattr(r, name))
                              for name, _ in _ROW_FIELDS))
    return "\n".join(lines) + "\n"


def write_csv(rows, path):
    with open(path, "w") as f:
        f.write(rows_to_csv(rows))


def load_csv(path):
    """Inverse of write_csv: reproduces the ResultRow list exactly."""
    with open(path) as f:
        lines = f.read().splitlines()
    header = lines[0].split(",") if lines else []
    if header != [name for name, _ in _ROW_FIELDS]:
        raise ValueError("unexpected CSV columns %s" % (header,))
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != len(_ROW_FIELDS):
            raise ValueError("line %d: %d cells, expected %d"
                             % (lineno, len(cells), len(_ROW_FIELDS)))
        try:
            rows.append(ResultRow(**{name: typ(cell) for (name, typ), cell
                                     in zip(_ROW_FIELDS, cells)}))
        except ValueError as e:
            raise ValueError("line %d: %s" % (lineno, e)) from None
    return rows


# =========================================================================
# SVG chart
# =========================================================================

_SVG_W, _SVG_H, _SVG_PAD = 640, 480, 56
_SERIES_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
                  "#8c564b")


def _nice(v):
    return ("%.6g" % v)


def render_svg(rows) -> str:
    """Line chart of achieved vs. target, one series per (regulator,
    op_type), with the identity diagonal for reference."""
    if not rows:
        raise ValueError("no rows to plot")
    xs = [r.target_mbps for r in rows]
    ys = [r.achieved_mbps for r in rows]
    lo = 0.0
    hi = max(xs + ys) * 1.05 or 1.0
    span = hi - lo
    inner_w = _SVG_W - 2 * _SVG_PAD
    inner_h = _SVG_H - 2 * _SVG_PAD

    def px(v):
        return _SVG_PAD + (v - lo) / span * inner_w

    def py(v):
        return _SVG_H - _SVG_PAD - (v - lo) / span * inner_h

    series = {}
    for r in rows:
        series.setdefault((r.regulator, r.op_type), []).append(r)
    out = []
    out.append('<svg xmlns="http://www.w3.org/2000/svg" width="%d" '
               'height="%d" viewBox="0 0 %d %d">'
               % (_SVG_W, _SVG_H, _SVG_W, _SVG_H))
    out.append('<rect width="%d" height="%d" fill="white"/>'
               % (_SVG_W, _SVG_H))
    out.append('<text x="%d" y="24" font-size="15" text-anchor="middle">'
               'achieved vs. target bandwidth</text>' % (_SVG_W // 2))
    # axes
    out.append('<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="black"/>'
               % (px(lo), py(lo), px(hi), py(lo)))
    out.append('<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="black"/>'
               % (px(lo), py(lo), px(lo), py(hi)))
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        v = lo + frac * span
        out.append('<text x="%g" y="%g" font-size="11" '
                   'text-anchor="middle">%s</text>'
                   % (px(v), py(lo) + 18, _nice(v)))
        out.append('<text x="%g" y="%g" font-size="11" '
                   'text-anchor="end">%s</text>'
                   % (px(lo) - 6, py(v) + 4, _nice(v)))
    out.append('<text x="%d" y="%d" font-size="12" text-anchor="middle">'
               'target MB/s</text>' % (_SVG_W // 2, _SVG_H - 12))
    out.append('<text x="16" y="%d" font-size="12" text-anchor="middle" '
               'transform="rotate(-90 16 %d)">achieved MB/s</text>'
               % (_SVG_H // 2, _SVG_H // 2))
    # identity diagonal
    out.append('<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="#888" '
               'stroke-dasharray="6,4"/>' % (px(lo), py(lo), px(hi), py(hi)))
    for i, key in enumerate(sorted(series)):
        pts = sorted(series[key], key=lambda r: r.target_mbps)
        color = _SERIES_COLORS[i % len(_SERIES_COLORS)]
        path = " ".join("%g,%g" % (px(r.target_mbps), py(r.achieved_mbps))
                        for r in pts)
        out.append('<polyline points="%s" fill="none" stroke="%s" '
                   'stroke-width="2"/>' % (path, color))
        for r in pts:
            out.append('<circle cx="%g" cy="%g" r="3" fill="%s"/>'
                       % (px(r.target_mbps), py(r.achieved_mbps), color))
        out.append('<text x="%d" y="%d" font-size="12" fill="%s">'
                   '%s/%s</text>'
                   % (_SVG_W - _SVG_PAD - 150, _SVG_PAD + 16 * i + 4,
                      color, key[0], key[1]))
    out.append("</svg>")
    return "\n".join(out) + "\n"


def emit_outputs(rows, csv_path="", svg_path=""):
    """Write the requested artifacts; same rows produce identical bytes."""
    if not rows:
        raise ValueError("no rows to emit")
    written = []
    if csv_path:
        write_csv(rows, csv_path)
        written.append(csv_path)
    if svg_path:
        with open(svg_path, "w") as f:
            f.write(render_svg(rows))
        written.append(svg_path)
    return written
