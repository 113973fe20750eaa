"""Per-unit costs of each layer, measured through public functions on the
workload's own domains and formulas, with tracing off.

Each measurement repeats its unit until ``MIN_SECONDS`` have passed and
divides, so the result is a rate or a per-unit time rather than a single
short reading.
"""

from __future__ import annotations

import itertools
import time

from tricheck import (Interval, Property, RunConfig, SplitMix64, cardinality, iter_trees,
                      pattern, random_tree, run_exhaustive, symbolize, truth_eval)
from tricheck.harness import Ticker, eval_predicate
from tricheck.strategies import IntRange, RejectionExhausted, TupleOf
from tricheck.symbolic import SymBool

MIN_SECONDS = 0.3
ENUM_CAP = 2000          # values taken from each domain per enumeration round

_now = time.perf_counter


def _repeat(unit, min_seconds: float = MIN_SECONDS) -> tuple[int, float]:
    """Run ``unit`` (which returns how many items it processed) until
    ``min_seconds`` pass; return (items, seconds)."""
    items, t0 = 0, _now()
    while True:
        items += unit()
        elapsed = _now() - t0
        if elapsed >= min_seconds:
            return items, elapsed


def _props(harnesses) -> list[Property]:
    return [Property(h.name, h.strategy, h.predicate) for h in harnesses]


def draw_us(harnesses, seed: int) -> float:
    """Microseconds per ``random_tree`` draw, round-robin over the domains
    that have a value to draw (a filter that accepts nothing has none)."""
    rng = SplitMix64(seed)
    strategies = []
    for h in harnesses:
        try:
            random_tree(h.strategy, rng)
        except RejectionExhausted:
            continue
        strategies.append(h.strategy)

    def unit() -> int:
        for s in strategies:
            for _ in range(20):
                random_tree(s, rng)
        return 20 * len(strategies)
    draws, seconds = _repeat(unit)
    return seconds / draws * 1e6


def enum_values_per_s(harnesses) -> float:
    """Values per second from ``iter_trees`` alone, up to ``ENUM_CAP`` per domain."""
    strategies = [h.strategy for h in harnesses]

    def unit() -> int:
        n = 0
        for s in strategies:
            for tree in itertools.islice(iter_trees(s), ENUM_CAP):
                tree.current
                n += 1
        return n
    values, seconds = _repeat(unit)
    return values / seconds


def pattern_compile_s(patterns) -> float:
    """Seconds to parse and compile the workload's patterns once."""
    def unit() -> int:
        for text, cap in patterns:
            cardinality(pattern(text, cap))
        return 1
    rounds, seconds = _repeat(unit, MIN_SECONDS / 3)
    return seconds / rounds


def eval_overhead_ns(harnesses) -> float:
    """What ``eval_predicate`` plus ``Ticker.tick`` add to a bare predicate
    call, in nanoseconds per evaluation, on each domain's first values."""
    cases = []
    for prop in _props(harnesses):
        values = [t.current for t in itertools.islice(iter_trees(prop.strategy), 64)]
        cases.append((prop, values))

    def bare() -> int:
        n = 0
        for prop, values in cases:
            pred = prop.predicate
            if prop.unpack:
                for v in values:
                    try:
                        pred(*v)
                    except Exception:  # noqa: BLE001 - mirrors eval_predicate
                        pass
            else:
                for v in values:
                    try:
                        pred(v)
                    except Exception:  # noqa: BLE001
                        pass
            n += len(values)
        return n

    def wrapped() -> int:
        n = 0
        ticker = Ticker()
        for prop, values in cases:
            for v in values:
                eval_predicate(prop, v)
                ticker.tick()
            n += len(values)
        return n

    per_call = {bare: [], wrapped: []}
    for _ in range(5):  # interleaved, so drift hits both sides alike
        for unit in (bare, wrapped):
            n, s = _repeat(unit, MIN_SECONDS / 5)
            per_call[unit].append(s / n)
    median = lambda xs: sorted(xs)[len(xs) // 2]  # noqa: E731
    return (median(per_call[wrapped]) - median(per_call[bare])) * 1e9


def _values_seen(verdict) -> int:
    if verdict.counterexample is not None:
        return verdict.counterexample.case_index + 1
    return verdict.cases or 0


def _bare_loop(prop: Property) -> float:
    """Seconds per bare nested loop calling ``prop``'s predicate on every
    point of its tuple of ``int_range``s."""
    ranges = [range(c.lo, c.hi + 1) for c in prop.strategy.components]
    pred = prop.predicate

    def loop() -> int:
        if len(ranges) == 2:
            ra, rb = ranges
            for a in ra:
                for b in rb:
                    pred(a, b)
        else:
            ra, rb, rc = ranges
            for a in ra:
                for b in rb:
                    for c in rc:
                        pred(a, b, c)
        return 1
    n, seconds = _repeat(loop, 0.2)
    return seconds / n


def exhaustive_costs(harnesses) -> tuple[float, float]:
    """(values per second of ``run_exhaustive`` over every domain within the
    default budget, floor ratio).  The floor ratio divides the time for the
    largest true harness over a tuple of two or three plain ``int_range``s
    by a bare nested loop calling its predicate, timed right after it; 0
    when the workload has none."""
    config = RunConfig(backend="exhaustive")
    props = _props(harnesses)
    tuples = [p for p in props if isinstance(p.strategy, TupleOf)
              and len(p.strategy.components) in (2, 3)
              and all(isinstance(c, IntRange) for c in p.strategy.components)]
    values, seconds, floor_ratio = 0, 0.0, 0.0
    floor_size = 0
    for prop in props:
        card = cardinality(prop.strategy)
        if card.kind == "too_large" or (card.is_finite and card.count > config.budget):
            continue
        t0 = _now()
        verdict = run_exhaustive(prop, config)
        elapsed = _now() - t0
        values += _values_seen(verdict)
        seconds += elapsed
        if prop in tuples and verdict.kind.value == "proved" and card.count > floor_size:
            if elapsed < 0.2:  # too short to read once: time it repeatedly
                def once(prop=prop) -> int:
                    run_exhaustive(prop, config)
                    return 1
                n, elapsed = _repeat(once, 0.2)
                elapsed /= n
            floor_ratio, floor_size = elapsed / _bare_loop(prop), card.count
    return values / seconds, floor_ratio


def _formulas(harnesses):
    """(formula, box) for every symbolizable alternative whose predicate
    yields a symbolic boolean, built as ``run_symbolic`` builds them."""
    out = []
    for prop in _props(harnesses):
        alts = symbolize(prop.strategy)
        for alt in alts or ():
            try:
                raw = (prop.predicate(*alt.carrier) if prop.unpack and isinstance(alt.carrier, tuple)
                       else prop.predicate(alt.carrier))
            except Exception:  # noqa: BLE001 - not in the carrier fragment
                continue
            if not isinstance(raw, SymBool):
                continue
            formula = raw if alt.hypothesis is None else (~alt.hypothesis | raw)
            out.append((formula, alt.box))
    return out


def symbolize_s(harnesses) -> float:
    """Seconds to symbolize every domain of the workload once."""
    strategies = [h.strategy for h in harnesses]

    def unit() -> int:
        for s in strategies:
            symbolize(s)
        return 1
    rounds, seconds = _repeat(unit, MIN_SECONDS / 3)
    return seconds / rounds


def _bisections(box: dict, depth: int) -> list[dict]:
    """``box`` and the leaves of bisecting it ``depth`` times, each time
    along its widest dimension, as branch-and-prune would."""
    leaves = [box]
    for _ in range(depth):
        nxt = []
        for b in leaves:
            vid = max(b, key=lambda v: (b[v].hi - b[v].lo, -v), default=None)
            if vid is None or b[vid].lo == b[vid].hi:
                nxt.append(b)
                continue
            iv, mid = b[vid], (b[vid].lo + b[vid].hi) // 2
            nxt += [{**b, vid: Interval(iv.lo, mid)}, {**b, vid: Interval(mid + 1, iv.hi)}]
        leaves = nxt
    return [box] + leaves


def us_per_box(harnesses) -> float:
    """Microseconds per ``truth_eval`` of one of the workload's own formulas
    over one box (its whole box and 32 sub-boxes); 0 when it has none."""
    pairs = []
    for formula, box in _formulas(harnesses):
        for b in _bisections(box, 5):
            try:
                truth_eval(formula, b)
            except ArithmeticError:  # a divisor range spanning zero
                continue
            pairs.append((formula, b))
    if not pairs:
        return 0.0

    def unit() -> int:
        for formula, b in pairs:
            truth_eval(formula, b)
        return len(pairs)
    boxes, seconds = _repeat(unit)
    return seconds / boxes * 1e6
