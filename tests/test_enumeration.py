"""Index-addressed enumeration against the per-node tree streams it replaced.

``_oracles.iter_trees_reference`` and ``simplest_tree_reference`` are the
enumeration as it was before strategies learned ``_values``/``_unrank``/
``_span``.  Over a zoo of every combinator (filters nested everywhere a
filter can sit, patterns, and every corpus domain that is not too large)
the two must agree on accepted values, rejection counts and labels, and on
the tree at every position.
"""

import pytest

import tricheck.strategies as st
from _oracles import iter_trees_reference, simplest_tree_reference
from tricheck.corpus import REGISTRY
from tricheck.patterns import pattern
from tricheck.strategies import (
    EnumStats,
    RejectionExhausted,
    int_range,
    iter_trees,
    just,
    list_of,
    one_of,
    optional_of,
    ordered_map_of,
    simplest_tree,
    tuple_of,
)

D = int_range(0, 3)
ODD = int_range(0, 5).filter("odd", lambda x: x % 2 == 1)
NONE = int_range(0, 3).filter("none", lambda x: False)
LATE = int_range(0, 200).filter("late", lambda x: x >= 150)
MID = int_range(0, 99).filter("mid", lambda x: x >= 60)


def _boom(x):
    if x == 2:
        raise ValueError("crashing filter")
    return True


ZOO = {
    "just": just("x"),
    "int": int_range(-3, 4),
    "map": D.map(lambda x: x * 10),
    "filter": ODD,
    "filter.crashing": D.filter("boom", _boom),
    "filter.empty": NONE,
    "filter.late": LATE,
    "filter.accepts_item_101": int_range(0, 200).filter("at", lambda x: x >= 100),
    "filter.accepts_item_102": int_range(0, 200).filter("past", lambda x: x >= 101),
    "filter.of_filter": ODD.filter("big", lambda x: x > 1),
    "filter.of_map": D.map(lambda x: x * 3).filter("even", lambda x: x % 2 == 0),
    "map.of_filter": ODD.map(lambda x: -x),
    "one_of": one_of(D, just(9), int_range(-2, -1)),
    "one_of.filtered": one_of(ODD, NONE, D),
    "optional": optional_of(D),
    "optional.filtered": optional_of(ODD),
    "tuple": tuple_of(D, just("a"), int_range(1, 2)),
    "tuple.empty": tuple_of(),
    "tuple.filtered_head": tuple_of(ODD, D),
    "tuple.filtered_middle": tuple_of(D, ODD, int_range(0, 1)),
    "tuple.filtered_last": tuple_of(D, ODD),
    "tuple.empty_tail": tuple_of(ODD, NONE),
    "tuple.late_pair": tuple_of(LATE, LATE),
    "tuple.filtered": tuple_of(D, D).filter("ordered", lambda t: t[0] <= t[1]),
    "tuple.nested_filtered_head": tuple_of(tuple_of(ODD, D), int_range(0, 1)),
    "list.of_filtered_pairs": list_of(tuple_of(ODD, int_range(0, 1)), 0, 2),
    "list": list_of(D, 0, 3),
    "list.min": list_of(int_range(0, 2), 2, 3),
    "list.filtered": list_of(ODD, 0, 3),
    "list.filtered_min": list_of(ODD, 2, 2),
    "list.late": list_of(LATE, 1, 2),
    "list.of_optional": list_of(optional_of(int_range(0, 1)), 1, 2),
    "list.filtered_whole": list_of(D, 0, 2).filter("short", lambda xs: sum(xs) < 3),
    "map_of": ordered_map_of(D, int_range(0, 1), 0, 3),
    "map_of.min": ordered_map_of(int_range(0, 4), just(0), 2, 3),
    "map_of.filtered_keys": ordered_map_of(ODD, int_range(0, 1), 1, 2),
    "map_of.filtered_values": ordered_map_of(D, ODD, 0, 2),
    "map_of.late_values": ordered_map_of(int_range(0, 1), LATE, 1, 2),
    "map_of.merging_keys": ordered_map_of(int_range(0, 4).map(lambda x: x // 2),
                                          int_range(0, 1), 1, 2),
    "map_of.too_few_keys": ordered_map_of(int_range(0, 4).map(lambda x: 0), D, 2, 2),
    "map_of.mixed_keys": ordered_map_of(one_of(just(1), just("a"), just(0)), D, 0, 2),
    "list.of_too_few_keys": list_of(ordered_map_of(int_range(0, 4).map(lambda x: 0),
                                                   D, 2, 2), 0, 2),
    "one_of.containers": one_of(list_of(ODD, 0, 1), optional_of(NONE), tuple_of(ODD, ODD)),
    "one_of.late_first": one_of(LATE, D),
    "tuple.mid_pair": tuple_of(MID, MID),
    "list.mid_pair": list_of(MID, 2, 2),
    "map_of.mid_values": ordered_map_of(D, MID, 2, 2),
    "pattern.pairs": pattern("[ab]{2}"),
    "pattern.choice": pattern("cat|dog(gy)?"),
    "pattern.star": pattern("a*b?", star_cap=3),
    "pattern.digits": pattern("[0-9]{1,2}"),
}
# corpus domains that print alike are alike (the only transform among them
# is one lambda), so each is checked once
_corpus = {}
for _prop in REGISTRY:
    if _prop.strategy.cardinality().kind != "too_large":
        _corpus.setdefault(repr(_prop.strategy), _prop)
ZOO.update((f"corpus.{p.name}", p.strategy) for p in _corpus.values())

#: every tree is compared on domains up to this many positions; beyond it,
#: the first ones and then every 997th (the corpus' 10^6-pair products)
EVERY_TREE_UP_TO = 5000

#: zoo entries whose ``simplest_tree`` differs from the per-node reference.
#: The reference combined each component's own simplest tree; now the first
#: accepted position must lie among the first 101 stream items, where a
#: rejected position of a nested filter can repeat once per head value.
SIMPLEST_DIFFERS = {"one_of.late_first", "tuple.mid_pair", "list.mid_pair",
                    "map_of.mid_values"}


def _signature(tree):
    """What a tree shows a shrinker: its value, measure and first candidates."""
    return (type(tree.current), repr(tree.current), tree.complexity(),
            [(repr(c.current), c.complexity()) for c in tree.candidates()])


@pytest.mark.parametrize("name", sorted(ZOO))
def test_same_walk_as_the_reference(name):
    """Same accepted values in the same order, same rejection count, and the
    same tree at every index (past ``EVERY_TREE_UP_TO``, at a stride)."""
    s = ZOO[name]
    ref_stats, stats = EnumStats(), EnumStats()
    ref = list(iter_trees_reference(s, ref_stats))
    got = list(iter_trees(s, stats))
    assert [t.current for t in got] == [t.current for t in ref]
    assert list(st.enumerate_values(s)) == [t.current for t in ref]
    assert stats.rejected == ref_stats.rejected
    indices = [t.index for t in got]
    assert indices == sorted(set(indices))
    if s.cardinality().is_finite:
        assert s._span() == len(got)
    big = len(ref) > EVERY_TREE_UP_TO
    for i, (r, g) in enumerate(zip(ref, got)):
        if big and i >= 1000 and i % 997:
            continue
        assert _signature(s._unrank(g.index)) == _signature(r)
        assert _signature(g) == _signature(r)


@pytest.mark.parametrize("name", sorted(n for n, s in ZOO.items()
                                         if s.cardinality().kind == "unknown"))
def test_same_label_at_the_rejection_bound(name):
    s = ZOO[name]
    total = EnumStats()
    for _ in iter_trees_reference(s, total):
        pass
    for bound in sorted({0, total.rejected // 2, max(total.rejected - 1, 0)}):
        outcomes = []
        for walk in (iter_trees_reference, iter_trees):
            seen = []
            with pytest.raises(RejectionExhausted) as exc:
                for t in walk(s, EnumStats(max_rejected=bound)):
                    seen.append(repr(t.current))
            outcomes.append((seen, exc.value.label, str(exc.value)))
        assert outcomes[0] == outcomes[1]


def test_same_filter_calls_as_the_reference():
    """Filter predicates see the same values in the same order: a rejected
    head still skips its whole tail, and tails are walked once per head."""
    calls = []

    def odd(x):
        calls.append(x)
        return x % 2 == 1

    f = int_range(0, 5).filter("odd", odd)
    for s in (tuple_of(f, f, D), list_of(f, 0, 2), ordered_map_of(f, f, 0, 2),
              one_of(f, optional_of(f)), tuple_of(D, f).filter("f", lambda t: odd(t[0])),
              tuple_of(f, ordered_map_of(f, D, 0, 1)),
              tuple_of(f, f, ordered_map_of(f, D, 1, 1))):
        seen = []
        for walk in (iter_trees_reference, iter_trees):
            calls.clear()
            for _ in walk(s, EnumStats()):
                pass
            seen.append(list(calls))
        assert seen[0] == seen[1]


@pytest.mark.parametrize("name", sorted(ZOO))
def test_same_simplest_tree(name):
    s = ZOO[name]
    ref, got = simplest_tree_reference(s), simplest_tree(s)
    same = (ref is None and got is None) or (
        ref is not None and got is not None and _signature(ref) == _signature(got))
    assert same == (name not in SIMPLEST_DIFFERS)


@pytest.mark.parametrize("keys", [
    lambda count: int_range(0, 2_000_000).map(count),
    lambda count: int_range(0, 10**8).map(count).filter("sparse", lambda k: k < 3),
], ids=["wide", "sparse"])
def test_simplest_tree_walks_at_most_101_keys_of_a_map(keys):
    """A map's stream walks its whole key universe before its first value,
    so ``simplest_tree`` gives up (None) once a key walk passes 101 items;
    the per-node reference answered ``{}`` here without walking any key."""
    seen = []
    s = ordered_map_of(keys(lambda k: seen.append(k) or k), D, 0, 1)
    assert simplest_tree_reference(s).current == {}
    seen.clear()
    assert simplest_tree(s) is None
    assert len(seen) <= 2 * (st.MAX_REJECTIONS_PER_VALUE + 1)


def test_unranking_agrees_with_the_stream_past_the_first_size():
    """Mixed radix and combinadic unranking at every base position against
    the values the stream walks; sums and sizes refuse a position past the
    end."""
    for s in (list_of(int_range(0, 2), 0, 3),
              ordered_map_of(int_range(0, 5), int_range(0, 2), 0, 3),
              one_of(just(0), tuple_of(int_range(0, 2), optional_of(D)))):
        values = list(st.enumerate_values(s))
        assert [s._unrank(i).current for i in range(s._span())] == values
        with pytest.raises(IndexError):
            s._unrank(len(values))


def test_enumeration_walks_values_without_building_trees(monkeypatch):
    """Walking the stream builds no shrink tree; only unranking does."""
    def forbidden(*args, **kw):
        raise AssertionError("a tree was built while walking")

    s = tuple_of(list_of(ODD, 0, 2), ordered_map_of(D, optional_of(D), 0, 1))
    expected = list(st.enumerate_values(s))
    for tree_type in ("_IntTree", "_TupleTree", "_ListTree", "_MapEntriesTree",
                      "_FilterTree", "_PresentTree", "_AbsentTree"):
        monkeypatch.setattr(st, tree_type, forbidden)
    assert [t.current for t in iter_trees(s)] == expected
