"""Built-in property corpus.

A spread of harnesses exercising every strategy constructor and every way a
verdict can come out: proved under all three backends, falsified with a known
minimal counterexample, provable only by some backends, or honestly Unknown.
The CLI runs this registry when no harness module is given, and the test
suite uses it as the cross-backend agreement corpus.

Predicates that should be provable symbolically are written against the
carrier discipline: ``&``/``|``/``~`` instead of ``and``/``or``/``not``,
``tdiv``/``trem`` instead of ``//``/``%``, and no data-dependent branching.
The rest are ordinary Python and simply come back Unsupported from the
symbolic backend.
"""

from __future__ import annotations

from .harness import PropertyRegistry
from .patterns import DEFAULT_REPETITION_CAP, pattern
from .strategies import (
    int_range,
    list_of,
    one_of,
    optional_of,
    ordered_map_of,
    tuple_of,
)
from .symbolic import tdiv, trem


# -- predicates shared between backends -------------------------------------

def _multiply_in_range(a, b):
    """The product of two values in [1, 1000] lands in [1, 10^6]."""
    r = a * b
    return (1 <= r) & (r <= 10**6)


def _multiply_strict(a, b):
    # deliberately wrong at exactly (1000, 1000): 10^6 is not < 10^6
    r = a * b
    return (1 <= r) & (r < 10**6)


def _div_recompose(a, b):
    return tdiv(a, b) * b + trem(a, b) == a


def _rem_in_divisor_range(a, b):
    return (trem(a, b) < b) & (trem(a, b) > -b)


def _rem_abs_bound(a, b):
    # abs() needs a concrete int, so the symbolic backend reports Unsupported
    return abs(trem(a, b)) < abs(b)


def _max_dominates(a, b):
    m = a if a > b else b
    return m >= a and m >= b


def _clamp(x):
    return min(max(x, 0), 100)


# -- registry ----------------------------------------------------------------

def build_registry(repetition_cap: int = DEFAULT_REPETITION_CAP) -> PropertyRegistry:
    """The default corpus; ``repetition_cap`` bounds unbounded pattern
    repetition (``*``/``+``) when desugaring regexes."""
    reg = PropertyRegistry()
    cap = repetition_cap

    # arithmetic, provable three ways
    reg.register(
        "multiply",
        tuple_of(int_range(1, 1000), int_range(1, 1000)),
        _multiply_in_range,
        tags=["arith", "golden"])
    reg.register(
        "multiply.strict",
        tuple_of(int_range(1, 1000), int_range(1, 1000)),
        _multiply_strict,
        tags=["arith", "falsifiable"])
    reg.register(
        "neg.involution",
        int_range(-64, 63),
        lambda x: -(-x) == x,
        tags=["arith"])
    reg.register(
        "sub.self_zero",
        int_range(-50, 49),
        lambda x: x - x == 0,
        tags=["arith"])
    reg.register(
        "square.nonneg",
        int_range(-1000, 1000),
        lambda x: x * x >= 0,
        tags=["arith"])
    reg.register(
        "sum.assoc",
        tuple_of(int_range(0, 15), int_range(0, 15), int_range(0, 15)),
        lambda a, b, c: (a + b) + c == a + (b + c),
        tags=["arith"])
    reg.register(
        "sign.cases",
        one_of(int_range(-20, -1), int_range(1, 20)),
        lambda x: x * x >= 1,
        tags=["arith"])
    reg.register(
        "identity.wide",
        int_range(0, 2**64 - 1, width=64, signed=False),
        lambda x: x == x,
        tags=["arith", "wide"])  # too big to enumerate or fully split
    reg.register(
        "threshold.wide",
        int_range(0, 65535),
        lambda x: x < 50000,
        tags=["arith", "falsifiable"])

    # truncating division
    reg.register(
        "div.recompose",
        tuple_of(int_range(-100, 100),
                 one_of(int_range(1, 10), int_range(-10, -1))),
        _div_recompose,
        tags=["division"])
    reg.register(
        "rem.range",
        tuple_of(int_range(-60, 60), int_range(1, 7)),
        _rem_in_divisor_range,
        tags=["division"])
    reg.register(
        "rem.abs_bound",
        tuple_of(int_range(-60, 60), int_range(1, 7)),
        _rem_abs_bound,
        tags=["division"])
    reg.register(
        "rem.total",
        int_range(0, 3),
        lambda x: trem(10, x) >= 0,  # aborts at x = 0
        tags=["division", "falsifiable"])

    # filters and maps
    reg.register(
        "even.rebuild",
        int_range(0, 200).filter("even", lambda x: trem(x, 2) == 0),
        lambda x: tdiv(x, 2) * 2 == x,
        tags=["filter"])
    reg.register(
        "scale.range",
        int_range(1, 5).map(lambda x: x * 10),
        lambda y: (y >= 10) & (y <= 50) & (trem(y, 10) == 0),
        tags=["map"])
    reg.register(
        "ordered.pair",
        tuple_of(int_range(0, 30), int_range(0, 30))
        .filter("ordered", lambda t: t[0] <= t[1]),
        lambda t: t[1] - t[0] >= 0,
        tags=["filter"])
    reg.register(
        "filter.vacuous",
        int_range(0, 50).filter("negative", lambda x: x < 0),
        lambda x: x >= 0,
        tags=["filter", "vacuous"])  # nothing survives the filter

    # host-control-flow predicates: fine concretely, opaque symbolically
    reg.register(
        "max.dominates",
        tuple_of(int_range(-40, 40), int_range(-40, 40)),
        _max_dominates,
        tags=["branching"])
    reg.register(
        "clamp.idem",
        int_range(-500, 500),
        lambda x: _clamp(_clamp(x)) == _clamp(x),
        tags=["branching"])

    # strings from regex-subset patterns
    reg.register(
        "pattern.pairs",
        pattern("[ab]{2}", star_cap=cap),
        lambda s: len(s) == 2 and set(s) <= {"a", "b"},
        tags=["pattern"])
    reg.register(
        "pattern.digits",
        pattern("[0-9]{1,3}", star_cap=cap),
        lambda s: 1 <= len(s) <= 3 and s.isdigit(),
        tags=["pattern"])
    reg.register(
        "pattern.choice",
        pattern("cat|dog(gy)?", star_cap=cap),
        lambda s: s in ("cat", "dog", "doggy"),
        tags=["pattern"])
    reg.register(
        "pattern.word",
        pattern("a+", star_cap=cap),
        lambda s: 1 <= len(s) <= cap and set(s) == {"a"},
        tags=["pattern"])

    # containers
    reg.register(
        "list.rev_rev",
        list_of(int_range(0, 9), 0, 4),
        lambda xs: list(reversed(list(reversed(xs)))) == xs,
        tags=["container"])
    reg.register(
        "list.sort_idem",
        list_of(int_range(0, 9), 0, 4),
        lambda xs: sorted(sorted(xs)) == sorted(xs),
        tags=["container"])
    reg.register(
        "list.no_triples",
        list_of(int_range(0, 3), 0, 3),
        lambda xs: len(xs) < 3,  # falsified; shrinks to [0, 0, 0]
        tags=["container", "falsifiable"])
    reg.register(
        "map.keys_sorted",
        ordered_map_of(int_range(0, 9), int_range(0, 1), 0, 3),
        lambda d: list(d) == sorted(d),
        tags=["container"])
    reg.register(
        "map.size",
        ordered_map_of(int_range(0, 5), int_range(0, 0), 1, 2),
        lambda d: 1 <= len(d) <= 2,
        tags=["container"])
    reg.register(
        "opt.with_default",
        optional_of(int_range(1, 9)),
        lambda v: (0 if v is None else v) >= 0,
        tags=["container"])

    return reg


#: Registry the CLI falls back to when no harness module is named.
REGISTRY = build_registry()
