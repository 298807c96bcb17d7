"""Independent reference interpreter for the fabric, plus random generators.

This is the oracle the compiled stepper is checked against.  It re-derives
every rule from the config data structure on every cycle: selector values are
re-evaluated on demand by walking the config, counters and the sequencer are
updated by direct transcription of the documented cycle order.  Nothing is
precompiled or cached across cycles.
"""

import random

from etmreg import fabric as F

# local aliases: eval_slot runs several times per simulated cycle and the
# module-attribute lookups dominate it otherwise
CONST_TRUE = F.CONST_TRUE
CONST_FALSE = F.CONST_FALSE
EXTERNAL_INPUTS = F.EXTERNAL_INPUTS
COUNTER_ZERO = F.COUNTER_ZERO
SEQUENCER_STATE = F.SEQUENCER_STATE
ADDRESS_RANGE = F.ADDRESS_RANGE


def _base_slot(s, taps, pulses, cmp_hits, z0, z1, seq):
    src = s.source
    if src == CONST_TRUE:
        val = True
    elif src == CONST_FALSE:
        val = False
    elif src == EXTERNAL_INPUTS:
        val = False
        for t in s.members:
            if not pulses.isdisjoint(taps[t].monitored):
                val = True
                break
    elif src == COUNTER_ZERO:
        val = False
        for c in s.members:
            if z0 if c == 0 else z1:
                val = True
                break
    elif src == SEQUENCER_STATE:
        val = seq in s.members
    elif src == ADDRESS_RANGE:
        val = not cmp_hits.isdisjoint(s.members)
    else:
        raise ValueError(src)
    return val != s.invert


def eval_slot(selectors, taps, i, pulses, cmp_hits, z0, z1, seq):
    s = selectors[i]
    # inline of _base_slot for the slot itself; the pair operand (rare) goes
    # through the helper
    src = s.source
    if src == CONST_TRUE:
        v = True
    elif src == CONST_FALSE:
        v = False
    elif src == EXTERNAL_INPUTS:
        v = False
        for t in s.members:
            if not pulses.isdisjoint(taps[t].monitored):
                v = True
                break
    elif src == COUNTER_ZERO:
        v = False
        for c in s.members:
            if z0 if c == 0 else z1:
                v = True
                break
    elif src == SEQUENCER_STATE:
        v = seq in s.members
    elif src == ADDRESS_RANGE:
        v = not cmp_hits.isdisjoint(s.members)
    else:
        raise ValueError(src)
    if s.invert:
        v = not v
    pw = s.paired_with
    if pw is not None:
        other, op = pw
        w = _base_slot(selectors[other], taps, pulses, cmp_hits, z0, z1, seq)
        v = (v and w) if op == "and" else (v or w)
    return v


def eval_event(selectors, taps, ev, pulses, cmp_hits, z0, z1, seq):
    a = eval_slot(selectors, taps, ev.sel_a, pulses, cmp_hits, z0, z1, seq)
    if ev.invert_a:
        a = not a
    bsel = ev.sel_b
    if bsel is None:
        return a
    b = eval_slot(selectors, taps, bsel, pulses, cmp_hits, z0, z1, seq)
    if ev.invert_b:
        b = not b
    return (a and b) if ev.op == "and" else (a or b)


def reference_step(config, state, pulses, cmp_hits, idle):
    """One cycle.  state/result = (cv0, cv1, seq, z0, z1, fired0, fired1, out);
    the incoming state only reads the first five fields."""
    cv0, cv1, seq, z0p, z1p = state[0], state[1], state[2], state[3], state[4]
    selectors = config.selectors
    taps = config.inputs

    if idle:
        # self-reload pulses are low while idle; trigger-reload levels persist
        iz0, iz1 = False, False
        for c in config.counters:
            if not c.self_reload:
                if c.index == 0:
                    iz0 = z0p
                else:
                    iz1 = z1p
        out = 0
        none = frozenset()
        for o in config.outputs:
            if eval_slot(selectors, taps, o.selector, none, none, iz0, iz1, seq):
                out |= 1 << o.output_index
        return (cv0, cv1, seq, z0p, z1p, False, False, out)

    # --- counters: decrement phase (inputs read previous-cycle zero signals)
    f0 = f1 = False
    nz0 = nz1 = False
    counters = config.counters
    chained_cfg = None
    for c in counters:
        if c.chained:
            chained_cfg = c
    if chained_cfg is not None:
        c = chained_cfg
        v = cv0
        inp = eval_event(selectors, taps, c.input, pulses, cmp_hits, z0p, z1p,
                         seq)
        f0 = inp and v == 1
        if f0 and c.self_reload:
            v = c.reload_value
        elif inp and v > 0:
            v -= 1
        pz0 = f0 if c.self_reload else v == 0
        if c.reload_event is not None and eval_event(
                selectors, taps, c.reload_event, pulses, cmp_hits, pz0, False,
                seq):
            v = c.reload_value
        nz0 = f0 if c.self_reload else v == 0
        ncv0, ncv1 = v, 0
    else:
        # decrement all counters first (inputs only read previous-cycle zero
        # signals, so order between counters does not matter), then apply
        # reload triggers, which read this cycle's pre-trigger zero signals
        ncv0, ncv1 = cv0, cv1
        pz0 = pz1 = False
        any_reload = False
        for c in counters:
            if c.reload_event is not None:
                any_reload = True
            ei = c.input
            if ei.sel_b is None and not ei.invert_a:
                inp = eval_slot(selectors, taps, ei.sel_a, pulses, cmp_hits,
                                z0p, z1p, seq)
            else:
                inp = eval_event(selectors, taps, ei, pulses, cmp_hits,
                                 z0p, z1p, seq)
            if c.index == 0:
                x = inp and cv0 == 1
                v = ncv0
                if x and c.self_reload:
                    v = c.reload_value
                elif inp and v > 0:
                    v -= 1
                f0 = x
                pz0 = x if c.self_reload else v == 0
                ncv0 = v
            else:
                x = inp and cv1 == 1
                v = ncv1
                if x and c.self_reload:
                    v = c.reload_value
                elif inp and v > 0:
                    v -= 1
                f1 = x
                pz1 = x if c.self_reload else v == 0
                ncv1 = v
        if any_reload:
            for c in counters:
                if c.reload_event is not None and eval_event(
                        selectors, taps, c.reload_event, pulses, cmp_hits,
                        pz0, pz1, seq):
                    if c.index == 0:
                        ncv0 = c.reload_value
                    else:
                        ncv1 = c.reload_value
        for c in counters:
            if c.index == 0:
                nz0 = f0 if c.self_reload else ncv0 == 0
            else:
                nz1 = f1 if c.self_reload else ncv1 == 0

    # --- sequencer: reset beats forward beats backward; chains re-check each
    # link against this cycle's selector values
    sq = config.sequencer
    if eval_slot(selectors, taps, sq.reset, pulses, cmp_hits, nz0, nz1, seq):
        ns = 0
    else:
        ns = seq
        moved = False
        for _ in range(3):
            if ns < 3 and eval_slot(selectors, taps, sq.forward[ns], pulses,
                                    cmp_hits, nz0, nz1, seq):
                ns += 1
                moved = True
            else:
                break
        if not moved:
            for _ in range(3):
                if ns > 0 and eval_slot(selectors, taps, sq.backward[ns - 1],
                                        pulses, cmp_hits, nz0, nz1, seq):
                    ns -= 1
                else:
                    break

    # --- outputs: levels of the post-update cycle
    out = 0
    for o in config.outputs:
        if eval_slot(selectors, taps, o.selector, pulses, cmp_hits, nz0, nz1, ns):
            out |= 1 << o.output_index

    return (ncv0, ncv1, ns, nz0, nz1, f0, f1, out)


def run_reference(config, stream):
    """Full trajectory under the reference interpreter."""
    state = F.reset_fabric(config) + (False, False, 0)
    traj = []
    for pulses, cmp_hits, idle in stream:
        state = reference_step(config, state, pulses, cmp_hits, idle)
        traj.append(state)
    return traj


# =========================================================================
# random generation
# =========================================================================

SIGNAL_POOL = (3, 7, 21, 22, 23, 24, 25, 33, 34, 73, 74, 157, 158, 159)


def random_config(rng: random.Random) -> F.EtmConfig:
    """A random valid config exercising taps, pairs, inversion, both counter
    modes, chaining, comparators, and outputs."""
    n_taps = rng.randint(1, 4)
    signals = rng.sample(SIGNAL_POOL, rng.randint(1, 4))
    taps = []
    for _ in range(n_taps):
        k = rng.randint(1, len(signals))
        taps.append(F.ExternalInputSelector(frozenset(rng.sample(signals, k))))
    taps = tuple(taps)

    n_cmp = rng.randint(0, 2)
    comparators = []
    for pi in range(n_cmp):
        lo = rng.randrange(0, 1 << 20, 64)
        hi = lo + rng.randrange(64, 1 << 16, 64)
        mu = rng.random() < 0.8
        comparators.append(F.AddressRangeComparatorConfig(
            pair_index=pi, lo=lo, hi=hi, match_user=mu,
            match_kernel=(not mu) or rng.random() < 0.3))
    comparators = tuple(comparators)

    chained = rng.random() < 0.1
    counters = []
    if chained:
        counters.append(F.CounterConfig(
            0, rng.randint(1, 1 << 18), F.EventSpec(2),
            self_reload=rng.random() < 0.7, chained=True))
    else:
        n_counters = rng.randint(1, 2)
        for ci in range(n_counters):
            counters.append(F.CounterConfig(
                ci, rng.choice((rng.randint(1, 6), rng.randint(1, 400))),
                F.EventSpec(2), self_reload=rng.random() < 0.7))
    counter_ids = frozenset(c.index for c in counters)

    # selector pool: always an events slot at 2, then a random mix
    sels = [F.ResourceSelectorConfig(F.EXTERNAL_INPUTS,
                                     frozenset(rng.sample(range(n_taps),
                                                          rng.randint(1, n_taps))))]
    n_extra = rng.randint(2, 9)
    for _ in range(n_extra):
        kind = rng.random()
        if kind < 0.3:
            members = frozenset(rng.sample(sorted(counter_ids),
                                           rng.randint(1, len(counter_ids))))
            src = F.COUNTER_ZERO
        elif kind < 0.6:
            members = frozenset(rng.sample(range(4), rng.randint(1, 3)))
            src = F.SEQUENCER_STATE
        elif kind < 0.75 and comparators:
            members = frozenset(rng.sample(range(len(comparators)),
                                           rng.randint(1, len(comparators))))
            src = F.ADDRESS_RANGE
        else:
            members = frozenset(rng.sample(range(n_taps),
                                           rng.randint(1, n_taps)))
            src = F.EXTERNAL_INPUTS
        sels.append(F.ResourceSelectorConfig(src, members,
                                             invert=rng.random() < 0.25))
    sels = list(F.HARDWIRED) + sels
    n = len(sels)

    # a couple of paired slots referencing unpaired ones
    for _ in range(rng.randint(0, 2)):
        if len(sels) >= F.NUM_SELECTORS:
            break
        a = rng.randrange(2, n)
        base = sels[a]
        other = rng.randrange(0, n)   # operands < n are never themselves paired
        sels.append(F.ResourceSelectorConfig(
            base.source, base.members, invert=rng.random() < 0.3,
            paired_with=(other, rng.choice(("and", "or")))))
    n = len(sels)

    def rand_event():
        if rng.random() < 0.4:
            return F.EventSpec(rng.randrange(0, n), rng.randrange(0, n),
                               rng.choice(("and", "or")),
                               invert_a=rng.random() < 0.3,
                               invert_b=rng.random() < 0.3)
        return F.EventSpec(rng.randrange(0, n), invert_a=rng.random() < 0.2)

    new_counters = []
    for c in counters:
        new_counters.append(F.CounterConfig(
            c.index, c.reload_value, rand_event(),
            self_reload=c.self_reload,
            reload_event=rand_event() if rng.random() < 0.4 else None,
            chained=c.chained))

    seqcfg = F.SequencerConfig(
        forward=tuple(rng.randrange(0, n) if rng.random() < 0.8 else F.FALSE_SEL
                      for _ in range(3)),
        backward=tuple(rng.randrange(0, n) if rng.random() < 0.8 else F.FALSE_SEL
                       for _ in range(3)),
        reset=rng.randrange(0, n) if rng.random() < 0.3 else F.FALSE_SEL)

    outputs = []
    for oi in rng.sample(range(4), rng.randint(0, 3)):
        outputs.append(F.ExternalOutputConfig(oi, rng.randrange(0, n)))

    cfg = F.EtmConfig(inputs=taps, selectors=tuple(sels),
                      counters=tuple(new_counters), sequencer=seqcfg,
                      comparators=tuple(comparators), outputs=tuple(outputs))
    F.validate_config(cfg)
    return cfg


def random_config_small(rng: random.Random) -> F.EtmConfig:
    """Restricted random family: at most 4 selectors beyond the hardwired
    pair, at most 2 counters, no comparators.  The large-scale equivalence
    run uses this family; random_config above is the kitchen-sink variant."""
    n_taps = rng.randint(1, 4)
    signals = rng.sample(SIGNAL_POOL, rng.randint(1, 4))
    taps = tuple(
        F.ExternalInputSelector(frozenset(
            rng.sample(signals, rng.randint(1, len(signals)))))
        for _ in range(n_taps))

    chained = rng.random() < 0.1
    if chained:
        counters = [F.CounterConfig(0, rng.randint(1, 1 << 18), F.EventSpec(2),
                                    self_reload=rng.random() < 0.7,
                                    chained=True)]
    else:
        counters = [F.CounterConfig(
            ci, rng.choice((rng.randint(1, 6), rng.randint(1, 400))),
            F.EventSpec(2), self_reload=rng.random() < 0.7)
            for ci in range(rng.randint(1, 2))]
    counter_ids = sorted(c.index for c in counters)

    sels = list(F.HARDWIRED)
    sels.append(F.ResourceSelectorConfig(
        F.EXTERNAL_INPUTS,
        frozenset(rng.sample(range(n_taps), rng.randint(1, n_taps)))))
    for _ in range(rng.randint(0, 3)):
        kind = rng.random()
        if kind < 0.35:
            src, pool = F.COUNTER_ZERO, counter_ids
        elif kind < 0.7:
            src, pool = F.SEQUENCER_STATE, range(4)
        else:
            src, pool = F.EXTERNAL_INPUTS, range(n_taps)
        members = frozenset(rng.sample(sorted(pool),
                                       rng.randint(1, min(3, len(pool)))))
        unpaired = [i for i, s in enumerate(sels) if s.paired_with is None]
        if rng.random() < 0.25:
            pair = (rng.choice(unpaired), rng.choice(("and", "or")))
        else:
            pair = None
        sels.append(F.ResourceSelectorConfig(src, members,
                                             invert=rng.random() < 0.25,
                                             paired_with=pair))
    n = len(sels)

    def rand_event():
        if rng.random() < 0.4:
            return F.EventSpec(rng.randrange(0, n), rng.randrange(0, n),
                               rng.choice(("and", "or")),
                               invert_a=rng.random() < 0.3,
                               invert_b=rng.random() < 0.3)
        return F.EventSpec(rng.randrange(0, n), invert_a=rng.random() < 0.2)

    counters = [F.CounterConfig(c.index, c.reload_value, rand_event(),
                                self_reload=c.self_reload,
                                reload_event=(rand_event()
                                              if rng.random() < 0.4 else None),
                                chained=c.chained)
                for c in counters]

    seqcfg = F.SequencerConfig(
        forward=tuple(rng.randrange(0, n) if rng.random() < 0.8 else F.FALSE_SEL
                      for _ in range(3)),
        backward=tuple(rng.randrange(0, n) if rng.random() < 0.8 else F.FALSE_SEL
                       for _ in range(3)),
        reset=rng.randrange(0, n) if rng.random() < 0.3 else F.FALSE_SEL)

    outputs = tuple(F.ExternalOutputConfig(oi, rng.randrange(0, n))
                    for oi in rng.sample(range(4), rng.randint(0, 3)))

    cfg = F.EtmConfig(inputs=taps, selectors=tuple(sels),
                      counters=tuple(counters), sequencer=seqcfg,
                      comparators=(), outputs=outputs)
    F.validate_config(cfg)
    return cfg


def stream_palette(rng: random.Random, config: F.EtmConfig):
    """Palette of (pulse_set, cmp_set, idle, pulse_mask, cmp_mask) cycle
    flavours for this config; streams are drawn from it by index."""
    signals = sorted(set().union(*(t.monitored for t in config.inputs)))
    cmp_all = [c.pair_index for c in config.comparators]
    palette = []

    def add(pulse_set, cmp_set, idle):
        pm = 0
        for s in pulse_set:
            pm |= 1 << s
        cm = 0
        for s in cmp_set:
            cm |= 1 << s
        palette.append((frozenset(pulse_set), frozenset(cmp_set), idle, pm, cm))

    add((), (), False)
    add((), (), False)          # weight the quiet cycle
    add((), (), True)           # idle
    for k in range(1, len(signals) + 1):
        for _ in range(2):
            add(rng.sample(signals, k), (), False)
    if cmp_all:
        for k in range(1, len(cmp_all) + 1):
            add((), rng.sample(cmp_all, k), False)
            add(rng.sample(signals, 1), rng.sample(cmp_all, k), False)
    return palette


def random_stream(rng: random.Random, config: F.EtmConfig, n: int):
    """n cycles of (pulse_set, cmp_set, idle) for the reference interpreter."""
    palette = stream_palette(rng, config)
    idx = rng.choices(range(len(palette)), k=n)
    return [(palette[i][0], palette[i][1], palette[i][2]) for i in idx]
