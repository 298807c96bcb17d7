"""Per-core accounting models for cacheline-granularity bandwidth counting.

Each core type exposes a handful of low-level cache/bus events whose sum
approximates the core's memory traffic.  A model is a weighted sum of such
events; whether it fits on the trace unit depends on two hardware limits:

* the unit has four external input slots, so a model may need at most four
  distinct signals in total;
* the OR-ed input has no adders, so term weights cannot differ.  A common
  weight across all terms is fine — it folds into the budget value — which
  is how single-term models with factors like 2 or 1/4 stay usable.

Counting through a single OR-ed input also undercounts whenever two
monitored signals pulse in the same cycle (the OR collapses them to one).
Measured per-board count ratios, shipped in ``data/calibration.txt``, pin
both the per-operation pulse rates and — via the gap between the adder
view and the OR view — the probability of such same-cycle collapses.
Those factors are calibration constants: this module reproduces the
measured numbers, it does not explain their microarchitectural causes.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources

from .fabric import NUM_INPUTS

__all__ = [
    "UnknownVariant", "NotEtmRealizable", "UnknownCombination",
    "ModelTerm", "BandwidthModel", "Ratios", "OpSignalProfile",
    "model_for", "expected_ratios", "emit_profile", "calibration_table",
]


class UnknownVariant(ValueError):
    pass


class NotEtmRealizable(ValueError):
    def __init__(self, reason):
        super().__init__(reason)
        self.reason = reason


class UnknownCombination(ValueError):
    pass


# =========================================================================
# event catalog
# =========================================================================

# trace-unit input numbers per core type and event name; multi-pulse
# events occupy one input per pulse they can emit in a single cycle
_EVENT_SIGNALS = {
    "cortex-a53": {
        "L2D_CACHE_REFILL": (21,),
        "L2D_CACHE_WB": (22,),
    },
    "cortex-a57": {
        "L2D_CACHE_REFILL": (24,),
        "L2D_CACHE_WB": (25,),
    },
    "cortex-a72": {
        "L2D_CACHE_REFILL": (24,),
        "L2D_CACHE_WB": (25,),
    },
    "cortex-a55": {
        "L3D_CACHE_ALLOC": (33,),
        "BUS_ACCESS": (23,),
        "L3D_CACHE_REFILL": (34,),
    },
    "cortex-a76": {
        "L2D_CACHE_WR": (73, 74),
        "L3D_CACHE_REFILL": (158, 159),
        "L3D_CACHE_ALLOC": (157,),
    },
    "cortex-a78": {
        "L2D_CACHE_WR": (103, 104, 105),
        # input numbering of the two events below is not architecturally
        # fixed here; only their input counts gate feasibility
        "L3D_CACHE_REFILL": (106, 107, 108),
        "BUS_ACCESS_WR": (109,),
    },
}

# idealized pulses per benchmark cacheline as (read, write, modify);
# prefetch behaves as read.  A modify fetches the line and writes it
# back, so refill-like and write-back-like events fire once each, while
# allocation events fire once per line no matter what triggered it.
_EVENT_OP_WEIGHTS = {
    "L2D_CACHE_REFILL": (1, 0, 1),
    "L2D_CACHE_WB": (0, 1, 1),
    "L2D_CACHE_WR": (1, 1, 1),
    "L3D_CACHE_ALLOC": (1, 1, 1),
    "L3D_CACHE_REFILL": (1, 0, 1),
    "BUS_ACCESS": (4, 4, 8),
    "BUS_ACCESS_WR": (0, 4, 4),
}

_OP_COLUMN = {"read": 0, "prefetch": 0, "write": 1, "modify": 2}

# (coefficient, event_name) term lists
_MODELS = {
    ("cortex-a53", "default"): ((1, "L2D_CACHE_REFILL"),
                                (1, "L2D_CACHE_WB")),
    ("cortex-a57", "default"): ((1, "L2D_CACHE_REFILL"),
                                (1, "L2D_CACHE_WB")),
    ("cortex-a72", "default"): ((1, "L2D_CACHE_REFILL"),
                                (1, "L2D_CACHE_WB")),
    ("cortex-a55", "pessimistic"): ((2, "L3D_CACHE_ALLOC"),),
    ("cortex-a55", "moderate1"): ((Fraction(1, 4), "BUS_ACCESS"),),
    ("cortex-a55", "moderate2"): ((1, "L3D_CACHE_ALLOC"),
                                  (1, "L3D_CACHE_REFILL")),
    ("cortex-a76", "pessimistic"): ((2, "L2D_CACHE_WR"),),
    ("cortex-a76", "moderate1"): ((1, "L2D_CACHE_WR"),
                                  (1, "L3D_CACHE_REFILL")),
    ("cortex-a76", "moderate2"): ((1, "L2D_CACHE_WR"),
                                  (1, "L3D_CACHE_ALLOC")),
    ("cortex-a78", "pessimistic"): ((2, "L2D_CACHE_WR"),),
    ("cortex-a78", "moderate1"): ((1, "L2D_CACHE_WR"),
                                  (1, "L3D_CACHE_REFILL")),
    ("cortex-a78", "moderate2"): ((Fraction(1, 4), "BUS_ACCESS_WR"),
                                  (1, "L3D_CACHE_REFILL")),
}

# what "default" resolves to on cores with several variants
_DEFAULT_VARIANT = {
    "cortex-a53": "default",
    "cortex-a57": "default",
    "cortex-a72": "default",
    "cortex-a55": "moderate2",
    "cortex-a76": "moderate2",
    "cortex-a78": "pessimistic",
}

# the measurement board each core's calibration row comes from
_DEFAULT_BOARD = {
    "cortex-a53": "zcu102",
    "cortex-a72": "am69x",
    "cortex-a55": "rk3588",
    "cortex-a76": "rk3588",
    "cortex-a78": "orin",
}

_COUNT_WORDS = {5: "five", 6: "six", 7: "seven", 8: "eight", 9: "nine",
                10: "ten", 11: "eleven", 12: "twelve"}


# =========================================================================
# models
# =========================================================================

@dataclass(frozen=True)
class ModelTerm:
    coefficient: Fraction
    event: str
    signals: frozenset


@dataclass(frozen=True)
class BandwidthModel:
    """Weighted sum of per-core events approximating memory traffic."""
    core_type: str
    variant: str
    terms: tuple

    @property
    def signals(self) -> frozenset:
        out = frozenset()
        for t in self.terms:
            out |= t.signals
        return out

    @property
    def rejection_reason(self):
        """Why this model cannot be counted on the trace unit, or None."""
        n = len(self.signals)
        if n > NUM_INPUTS:
            word = _COUNT_WORDS.get(n, str(n))
            return ("requires monitoring of %s ETM PMU inputs, but only "
                    "%d are available" % (word, NUM_INPUTS))
        coeffs = {t.coefficient for t in self.terms}
        if len(coeffs) > 1:
            if any(c.denominator != 1 for c in coeffs):
                return ("fractional factor in the sum cannot be realized "
                        "by an OR-ed input")
            return ("unequal term weights cannot be realized by an "
                    "OR-ed input")
        return None

    @property
    def etm_realizable(self) -> bool:
        return self.rejection_reason is None


def model_for(core_type, variant="default", etm=True) -> BandwidthModel:
    """Look up the accounting model for a core; resolves variant
    "default" to the core's preferred one.  With etm=True (the default)
    raises NotEtmRealizable for models the trace unit cannot count;
    etm=False returns them anyway, flagged, for adder-based regulators.
    """
    core = core_type.lower()
    var = variant.lower()
    if var == "default":
        var = _DEFAULT_VARIANT.get(core, "default")
    try:
        raw = _MODELS[(core, var)]
    except KeyError:
        raise UnknownVariant("no accounting model for (%s, %s)"
                             % (core_type, variant)) from None
    sigmap = _EVENT_SIGNALS[core]
    terms = tuple(ModelTerm(coefficient=Fraction(c), event=ev,
                            signals=frozenset(sigmap[ev]))
                  for c, ev in raw)
    model = BandwidthModel(core_type=core, variant=var, terms=terms)
    if etm and not model.etm_realizable:
        raise NotEtmRealizable("(%s, %s) %s"
                               % (core, var, model.rejection_reason))
    return model


# =========================================================================
# count ratios
# =========================================================================

@dataclass(frozen=True)
class Ratios:
    pmu: float      # per-signal adder view, counts per benchmark line
    etm: float      # OR-ed input view, after same-cycle collapse


def _or_view(pmu, collision_prob):
    """Counts per line on the OR-ed input: each pulse shares its cycle
    with probability collision_prob, and every such pair counts once."""
    return pmu * (1.0 - collision_prob / 2.0)


def _base_op(op):
    return op.split("_", 1)[0]


def _term_weights(model, op):
    """Idealized pulses per line of each model term for this op."""
    col = _OP_COLUMN.get(_base_op(op))
    if col is None:
        raise ValueError("unknown mem op %r" % (op,))
    return [t.coefficient * _EVENT_OP_WEIGHTS[t.event][col]
            for t in model.terms]


def _op_pulses(model, op):
    """(expected pulses per line, signals active for this op)."""
    weights = _term_weights(model, op)
    active = set()
    for t, w in zip(model.terms, weights):
        if w:
            active |= t.signals
    return sum(weights, Fraction(0)), frozenset(active)


def expected_ratios(model, workload_mix, collision_prob=0.0):
    """Predict the adder-view and OR-view count ratios per operation.

    workload_mix maps op name -> proportion (must sum to 1).  Pulses can
    collapse only when an operation drives two or more distinct inputs;
    each pulse then shares its cycle with a second one with probability
    collision_prob, and every such pair counts once instead of twice.
    """
    if not 0.0 <= collision_prob <= 1.0:
        raise ValueError("collision_prob must be within [0, 1]")
    if not workload_mix:
        raise ValueError("empty workload mix")
    if abs(sum(workload_mix.values()) - 1.0) > 1e-9:
        raise ValueError("workload mix proportions must sum to 1")
    out = {}
    for op in workload_mix:
        pulses, active = _op_pulses(model, op)
        pmu = float(pulses)
        etm = _or_view(pmu, collision_prob) if len(active) >= 2 else pmu
        out[op] = Ratios(pmu=pmu, etm=etm)
    return out


# =========================================================================
# calibrated per-board profiles
# =========================================================================

@dataclass(frozen=True)
class OpSignalProfile:
    """Calibrated pulse behavior of one operation on one core."""
    core_type: str
    variant: str
    mem_op: str                 # bench operation name, e.g. "read_ldnp"
    term_pulses: tuple          # expected pulses per line, per model term
    collision_prob: float       # chance a pulse shares its cycle

    @property
    def pulses_per_line(self) -> float:
        return sum(self.term_pulses)

    @property
    def ratios(self) -> Ratios:
        """Counts per line in the adder view and the OR-ed input view."""
        ppl = self.pulses_per_line
        return Ratios(pmu=ppl, etm=_or_view(ppl, self.collision_prob))


@lru_cache(maxsize=1)
def calibration_table():
    """dict (board, core_type, op) -> (variant, pmu, etm) from the
    shipped table; each board/core pair is measured under one variant."""
    text = resources.files("etmreg").joinpath(
        "data/calibration.txt").read_text()
    table = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 6:
            raise ValueError("calibration.txt line %d: expected 6 fields"
                             % lineno)
        board, core, variant, op, pmu, etm = parts
        table[(board, core, op)] = (variant, float(pmu), float(etm))
    return table


def calibration_entry(board, core_type, op, variant="*"):
    table = calibration_table()
    key = (board, core_type, op)
    if board == "ideal":
        key = ("ideal", "*", op)
    row = table.get(key)
    if row is None or row[0] not in ("*", variant):
        raise UnknownCombination("no calibration for (%s, %s, %s) under "
                                 "variant %s" % (board, core_type, op,
                                                 variant))
    return row[1], row[2]


def emit_profile(core_type, variant, mem_op, board=None) -> OpSignalProfile:
    """Calibrated pulse profile of one operation on one core.

    board defaults to the core's measurement platform; board="ideal"
    gives perfect accounting (one pulse per line moved, no collapse).
    The measured total is split across model terms in proportion to
    their idealized weights.
    """
    model = model_for(core_type, variant, etm=False)
    if board is None:
        board = _DEFAULT_BOARD.get(model.core_type)
        if board is None:
            raise UnknownCombination("no measurement platform for %s; "
                                     "pass board= explicitly" % (core_type,))
    pmu, etm = calibration_entry(board, model.core_type, mem_op,
                                 variant=model.variant)
    # split the calibrated total over terms by their idealized weights
    weights = _term_weights(model, mem_op)
    ideal = sum(weights, Fraction(0))
    if ideal > 0:
        split = tuple(pmu * float(w / ideal) for w in weights)
    else:
        split = (pmu,) + (0.0,) * (len(model.terms) - 1)
    if pmu > 0 and etm < pmu:
        p = min(1.0, max(0.0, 2.0 * (1.0 - etm / pmu)))
    else:
        p = 0.0
    return OpSignalProfile(core_type=model.core_type, variant=model.variant,
                           mem_op=mem_op, term_pulses=split,
                           collision_prob=p)
