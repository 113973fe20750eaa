"""The benchmark's workloads: the harnesses each one checks and what each
verdict must be.

* ``corpus``     -- the 29 built-in properties, with a hand-written table of
                    expected verdicts per backend;
* ``containers`` -- seeded harnesses over structured domains whose answers
                    and minimal counterexamples are known by construction;
* ``arith``      -- seeded integer harnesses in the symbolic carrier
                    fragment, answered by a plain-Python brute force.

Every generator is a pure function of the seed.  A harness's cost depends
on its template and domain sizes, which are fixed; the seed moves offsets,
thresholds and constants, so two seeds cost about the same.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Any, Callable

import tricheck
from tricheck import (PropertyRegistry, int_range, list_of, one_of, optional_of,
                      ordered_map_of, pattern, tuple_of)
from tricheck.symbolic import tdiv, trem

BACKENDS = ("fuzz", "exhaustive", "symbolic", "ensemble")
STANDALONE = ("fuzz", "exhaustive", "symbolic")

P = "pass_sampled"
PR = "proved"
F = "falsified"
BUDGET = "unknown:budget_exceeded"
UNSUP = "unknown:unsupported"
UNDEC = "unknown:undecided"
FEXH = "unknown:filter_exhausted"


@dataclass(frozen=True)
class Expect:
    """Allowed verdicts of one harness under one backend.  ``minimal`` is the
    counterexample a shrinking backend must reach when it falsifies."""

    kinds: frozenset
    minimal: Any = None


def expect(*kinds: str, minimal: Any = None) -> Expect:
    return Expect(frozenset(kinds), minimal)


@dataclass
class Harness:
    name: str
    strategy: Any
    predicate: Callable[..., Any]
    source: str                       # the predicate as written
    expects: dict[str, Expect]        # backend -> allowed verdicts
    failing: frozenset | None = None  # every failing value, where known


@dataclass
class Workload:
    name: str
    backends: tuple[str, ...]         # passes measured end to end
    cases: int                        # --cases for the CLI
    harnesses: list[Harness]
    registry: PropertyRegistry | None  # None: the CLI's built-in corpus
    patterns: list[tuple[str, int]] = field(default_factory=list)

    def by_name(self) -> dict[str, Harness]:
        return {h.name: h for h in self.harnesses}

    def fingerprint(self) -> list[tuple]:
        """Everything generation decided, in comparable form."""
        return [(h.name, repr(h.strategy), h.source,
                 sorted((b, sorted(e.kinds), repr(e.minimal)) for b, e in h.expects.items()))
                for h in self.harnesses]


def registry_of(harnesses: list[Harness]) -> PropertyRegistry:
    reg = PropertyRegistry()
    for h in harnesses:
        reg.register(h.name, h.strategy, h.predicate)
    return reg


# --------------------------------------------------------------------------
# corpus: hand-written expectations for the built-in properties

#: property -> (fuzz, exhaustive, symbolic, ensemble, minimal counterexample).
#: multiply.strict fails only at (1000, 1000), one point in 10^6, so 16384
#: fuzz cases usually miss it; either outcome is correct.
CORPUS_TABLE: dict[str, tuple] = {
    "clamp.idem":       (P, PR, UNSUP, PR, None),
    "div.recompose":    (P, PR, PR, PR, None),
    "even.rebuild":     (P, PR, PR, PR, None),
    "filter.vacuous":   (FEXH, PR, PR, PR, None),
    "identity.wide":    (P, BUDGET, UNDEC, P, None),
    "list.no_triples":  (F, F, UNSUP, F, [0, 0, 0]),
    "list.rev_rev":     (P, PR, UNSUP, PR, None),
    "list.sort_idem":   (P, PR, UNSUP, PR, None),
    "map.keys_sorted":  (P, PR, UNSUP, PR, None),
    "map.size":         (P, PR, UNSUP, PR, None),
    "max.dominates":    (P, PR, UNSUP, PR, None),
    "multiply":         (P, PR, PR, PR, None),
    "multiply.strict":  ((P, F), F, F, F, (1000, 1000)),
    "neg.involution":   (P, PR, PR, PR, None),
    "opt.with_default": (P, PR, UNSUP, PR, None),
    "ordered.pair":     (P, PR, PR, PR, None),
    "pattern.choice":   (P, PR, UNSUP, PR, None),
    "pattern.digits":   (P, PR, UNSUP, PR, None),
    "pattern.pairs":    (P, PR, UNSUP, PR, None),
    "pattern.word":     (P, PR, UNSUP, PR, None),
    "rem.abs_bound":    (P, PR, UNSUP, PR, None),
    "rem.range":        (P, PR, PR, PR, None),
    "rem.total":        (F, F, UNSUP, F, 0),
    "scale.range":      (P, PR, PR, PR, None),
    "sign.cases":       (P, PR, PR, PR, None),
    "square.nonneg":    (P, PR, PR, PR, None),
    "sub.self_zero":    (P, PR, PR, PR, None),
    "sum.assoc":        (P, PR, PR, PR, None),
    "threshold.wide":   (F, F, F, F, 50000),
}


def corpus(seed: int) -> Workload:
    """The built-in corpus.  The seed only reaches the CLI's ``--seed``."""
    harnesses = []
    for prop in tricheck.build_registry():
        row = CORPUS_TABLE[prop.name]
        expects = {}
        for backend, kinds in zip(BACKENDS, row[:4]):
            kinds = kinds if isinstance(kinds, tuple) else (kinds,)
            expects[backend] = expect(*kinds, minimal=row[4])
        harnesses.append(Harness(prop.name, prop.strategy, prop.predicate,
                                 prop.name, expects))
    patterns = [(h.strategy.text, h.strategy.star_cap) for h in harnesses
                if isinstance(h.strategy, tricheck.Pattern)]
    return Workload("corpus", BACKENDS, 16384, harnesses, None, patterns)


# --------------------------------------------------------------------------
# containers: structured domains with answers known by construction

def _lambda(args: str, body: str) -> Callable[..., Any]:
    return eval(f"lambda {args}: {body}", {"tdiv": tdiv, "trem": trem})


def containers(seed: int) -> Workload:
    """Seventeen harnesses: a true and a falsifiable one per domain kind,
    plus a second falsifiable list.

    Each falsifiable predicate fails exactly when one feature of the value
    (length, largest element, a mapped value...) reaches a threshold, so the
    greedy shrinker's minimum is the threshold's simplest witness.  Failures
    are dense (at least about a quarter of draws), so fuzzing finds them.
    """
    rng = random.Random(f"containers:{seed}")
    out: list[Harness] = []
    patterns: list[tuple[str, int]] = []

    def add(name, strategy, args, body, kinds, minimal=None):
        """``kinds``: verdicts under fuzz, exhaustive, symbolic and ensemble."""
        out.append(Harness(name, strategy, _lambda(args, body), body,
                           {b: expect(k, minimal=minimal) for b, k in zip(BACKENDS, kinds)}))

    # list_of: 111111 lists of length 0..5
    lo = rng.randrange(-50, 50)
    elems = int_range(lo, lo + 9)
    add("list.rev_sort", list_of(elems, 0, 5), "xs",
        "sorted(reversed(xs)) == sorted(xs) and len(xs) <= 5", (P, PR, UNSUP, PR))
    k = 4
    add("list.short", list_of(elems, 0, 5), "xs", f"len(xs) < {k}", (F, F, UNSUP, F),
        minimal=[lo] * k)
    t = lo + rng.randrange(4, 8)
    add("list.max", list_of(elems, 0, 5), "xs", f"max(xs, default={lo}) < {t}",
        (F, F, UNSUP, F), minimal=[t])

    # ordered_map_of: 8441 maps of size 0..3 over ten keys
    klo = rng.randrange(0, 100)
    keys, vals = int_range(klo, klo + 9), int_range(0, 3)
    add("map.sorted", ordered_map_of(keys, vals, 0, 3), "d",
        f"list(d) == sorted(d) and all({klo} <= key <= {klo + 9} for key in d)",
        (P, PR, UNSUP, PR))
    v = rng.randrange(2, 4)
    add("map.values", ordered_map_of(keys, vals, 0, 3), "d",
        f"all(x < {v} for x in d.values())", (F, F, UNSUP, F), minimal={klo: v})

    # pattern: 4680 strings [a-h]{1,4}
    text = "[a-h]{1,4}"
    patterns.append((text, 8))
    add("pattern.alphabet", pattern(text), "s",
        "1 <= len(s) <= 4 and all('a' <= c <= 'h' for c in s)", (P, PR, UNSUP, PR))
    c = "defg"[rng.randrange(4)]
    add("pattern.max", pattern(text), "s", f"max(s) < {c!r}", (F, F, UNSUP, F), minimal=c)

    # one_of: two disjoint 1000-wide ranges
    a = rng.randrange(-5000, 0)
    b = a + 1000 + rng.randrange(0, 500)
    alt = one_of(int_range(a, a + 999), int_range(b, b + 999))
    add("oneof.bounds", alt, "x",
        f"({a} <= x <= {a + 999}) or ({b} <= x <= {b + 999})", (P, PR, UNSUP, PR))
    t = b + 200 + rng.randrange(0, 100)
    add("oneof.threshold", alt, "x", f"x < {t}", (F, F, F, F), minimal=t)

    # optional_of: absent or one of 2000 values
    hi = 2000
    add("opt.positive", optional_of(int_range(1, hi)), "v", "v is None or v >= 1",
        (P, PR, UNSUP, PR))
    t = 700 + rng.randrange(0, 100)
    add("opt.threshold", optional_of(int_range(1, hi)), "v", f"v is None or v < {t}",
        (F, F, UNSUP, F), minimal=t)

    # .filter: even values, and a contiguous accepted half
    m = 20000 + 2 * rng.randrange(0, 100)
    add("filter.even", int_range(0, m).filter("even", lambda x: x % 2 == 0), "x",
        "x % 2 == 0", (P, PR, UNSUP, PR))
    half = m // 2
    t = half // 3 + rng.randrange(0, 200)
    add("filter.threshold", int_range(0, m).filter("low half", _lambda("x", f"x <= {half}")),
        "x", f"x < {t}", (F, F, F, F), minimal=t)

    # .map: an affine image of 5000 values
    mul, off = rng.randrange(2, 9), rng.randrange(-100, 100)
    affine = int_range(0, 4999).map(_lambda("x", f"{mul} * x + {off}"))
    add("map.affine", affine, "y", f"(y - {off}) % {mul} == 0", (P, PR, UNSUP, PR))
    x0 = 2000 + rng.randrange(0, 200)
    add("map.threshold", affine, "y", f"y < {mul * x0 + off}", (F, F, F, F),
        minimal=mul * x0 + off)

    # wide int_range: 2^40 values, far beyond the enumeration budget
    lo = rng.randrange(0, 1 << 20)
    wide = int_range(lo, lo + (1 << 40), width=64)
    add("wide.lower", wide, "x", f"x >= {lo}", (P, BUDGET, PR, PR))
    t = lo + (1 << 38) + rng.randrange(0, 1 << 37)
    add("wide.threshold", wide, "x", f"x < {t}", (F, BUDGET, F, F), minimal=t)

    return Workload("containers", ("fuzz", "exhaustive"), 8192, out, registry_of(out), patterns)


# --------------------------------------------------------------------------
# arith: carrier-fragment formulas decided by brute force

#: Variable-range widths; the seed picks only the offsets and constants.
_WA, _WB = 128, 64


def _arith_templates(rng: random.Random) -> list[tuple[str, str, list[tuple[int, int]]]]:
    """(name, predicate body, variable ranges) per template: seven true and
    five false by construction.  Comparisons are always parenthesized
    because ``&``/``|`` bind tighter than ``<``.  ``~`` is only ever an
    operand of ``&``: on plain bools ``~b`` is -1 or -2, and only masking
    with a bool turns it back into a truth value."""

    def pair(b_lo: int | None = None):
        p = rng.randrange(-200, 200)
        q = rng.randrange(-200, 200) if b_lo is None else b_lo
        return [(p, p + _WA - 1), (q, q + _WB - 1)]

    def corner_max(r):
        (alo, ahi), (blo, bhi) = r
        return max(alo * blo, alo * bhi, ahi * blo, ahi * bhi)

    r_mul = pair()
    r_div = pair(b_lo=rng.choice((1, -_WB)))        # b never crosses zero
    a_lo = rng.randrange(-300, 100)
    r_rem = [(a_lo, a_lo + 511), (1, 8)]
    a1, b1 = a_lo + 256 + rng.randrange(256), rng.randrange(1, r_rem[1][1] + 1)
    r_pt = pair()
    a0, b0 = rng.randrange(r_pt[0][0], r_pt[0][1] + 1), rng.randrange(r_pt[1][0], r_pt[1][1] + 1)
    r3 = [(lo, lo + 15) for lo in (rng.randrange(-20, 20) for _ in range(3))]
    return [
        ("add.cancel", "(a + b) - b == a", pair()),
        ("div.recompose", "tdiv(a, b) * b + trem(a, b) == a", r_div),
        ("rem.bounds", "(trem(a, b) < b) & (trem(a, b) > -b)", r_rem),
        ("square.diff", "(a * a) - (b * b) == (a - b) * (a + b)", pair()),
        ("mul.max", f"a * b <= {corner_max(r_mul)}", r_mul),
        ("order.total", "(a < b) | (~(a < b) & (a >= b))", pair()),
        ("sum3.assoc", "(a + b) + c == a + (b + c)", r3),
        ("mul.off_by_one", f"a * b <= {corner_max(r_mul) - 1}", r_mul),
        ("add.never", "(a + b) - b != a", pair()),
        ("rem.hits", f"(trem(a, b) != {trem(a1, b1)}) | (a < {a_lo + 256})", r_rem),
        ("point.excluded", f"~((a == {a0}) & (b == {b0})) & (a <= {r_pt[0][1]})", r_pt),
        ("div.exact", "tdiv(a, b) * b == a", r_div),
    ]


def _brute_force(fn: Callable[..., Any], ranges: list[tuple[int, int]]) -> set[tuple]:
    """The points of the domain where the predicate fails, by plain Python."""
    failing = set()
    for point in itertools.product(*(range(lo, hi + 1) for lo, hi in ranges)):
        try:
            ok = bool(fn(*point))
        except ArithmeticError:
            ok = False
        if not ok:
            failing.add(point)
    return failing


def arith(seed: int) -> Workload:
    """Twelve integer harnesses over tuples of ``int_range``.  The answer for
    each comes from evaluating the predicate at every point; the failing
    points are kept so every reported counterexample can be looked up."""
    rng = random.Random(f"arith:{seed}")
    out = []
    for name, body, ranges in _arith_templates(rng):
        fn = _lambda(", ".join("abc"[:len(ranges)]), body)
        failing = _brute_force(fn, ranges)
        kind = F if failing else PR
        strategy = tuple_of(*(int_range(lo, hi) for lo, hi in ranges))
        # fuzz may miss a sparse failure; no shrink minimum is claimed here
        out.append(Harness(f"arith.{name}", strategy, fn, body,
                           {"fuzz": expect(P, F) if failing else expect(P),
                            "exhaustive": expect(kind), "symbolic": expect(kind),
                            "ensemble": expect(kind)},
                           frozenset(failing)))
    return Workload("arith", ("symbolic", "ensemble"), 256, out, registry_of(out))


GENERATORS: dict[str, Callable[[int], Workload]] = {
    "corpus": corpus,
    "containers": containers,
    "arith": arith,
}
