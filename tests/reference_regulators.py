"""Independent token-bucket oracle and a small fabric driver."""

import etmreg.fabric as F


class TokenBucket:
    """Cycle-stepped token bucket: debt in whole budgets plus an event count
    toward the next debt step.  Grants arrive one per period and pay back one
    whole step; debt saturates at [0, 3].  A cycle where a debt step and a
    grant coincide keeps the debt step and loses the grant."""

    def __init__(self, budget, period):
        self.budget = budget
        self.period = period
        self.debt = 0
        self.events = 0     # toward the next debt step
        self.cycles = 0     # toward the next grant

    def step(self, event):
        fill = False
        if event:
            self.events += 1
            if self.events == self.budget:
                self.events = 0
                fill = True
        self.cycles += 1
        grant = self.cycles == self.period
        if grant:
            self.cycles = 0
        if fill and self.debt < 3:
            self.debt += 1
        elif grant and self.debt > 0:
            self.debt -= 1
        return self.debt

    def expected(self):
        """The (sequencer state, counter0, counter1) triple the fabric must
        show after the same cycle."""
        return (self.debt, self.budget - self.events,
                self.period - self.cycles)


# fields of a step result
CV0, CV1, SEQ, Z0, Z1, FIRED0, FIRED1, OUT = range(8)


def drive(config, cycles, fetches=None):
    """Step the compiled fabric from reset over `cycles`, each the PMU
    signals pulsing in it, or None for a cycle in which the core is idle.
    `fetches`, if given, holds each cycle's instruction fetch as (address,
    user mode), or None.  Returns each cycle's step result:
    (cv0, cv1, seq, z0, z1, fired0, fired1, out_mask)."""
    cf = F.compile_fabric(config)
    s = cf.reset_tuple()
    rows = []
    for i, signals in enumerate(cycles):
        if signals is None:
            rows.append(s + (False, False, cf.idle_out(s[2], s[3], s[4])))
            continue
        cm = cf.cmp_mask(*fetches[i]) if fetches and fetches[i] else 0
        r = cf.step(*s, F._signal_mask(signals), cm)
        rows.append(r)
        s = r[:5]
    return rows


def throttled(row):
    return bool(row[OUT] & F.THROTTLE_MASK)
