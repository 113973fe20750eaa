"""Index-addressed enumeration against the per-node streams it replaced.

``_oracles.iter_trees_reference`` is the enumeration as it was before
strategies learned ``_values``/``_unrank``/``_span``, written over plain
values.  Over a zoo of every combinator (filters nested everywhere a filter
can sit, patterns, and every corpus domain that is not too large) the two
must agree on accepted values, rejection counts and labels, and the choices
``_unrank`` gives for every position must replay into the value the stream
has there.  ``iter_trees`` is the one reader of a ``_values`` stream, so
``enumerate_values`` and map key walks are checked through it.

The same zoo, with the pinned draws of ``test_pins``, holds the plain fuzz
context and the recording context to the same draws: the same values, PRNG
state, rejection budget and error, and a replay of the recorded choices
with no PRNG draws the same values again.
"""

import pytest

import tricheck.strategies as st
from _oracles import iter_trees_reference
from test_pins import DRAWN
from tricheck.corpus import REGISTRY
from tricheck.exhaustive import run_exhaustive
from tricheck.fuzz import run_fuzz
from tricheck.harness import Property, RunConfig
from tricheck.patterns import pattern
from tricheck.prng import SplitMix64
from tricheck.results import VerdictKind
from tricheck.strategies import (
    EnumStats,
    RejectionExhausted,
    ValueTree,
    _tree_at,
    int_range,
    iter_trees,
    just,
    list_of,
    one_of,
    optional_of,
    ordered_map_of,
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
    "tuple.wide_filtered": tuple_of(D, ODD, int_range(0, 1), LATE, D),
    "tuple.empty_tail": tuple_of(ODD, NONE),
    "tuple.late_pair": tuple_of(LATE, LATE),
    "tuple.filtered": tuple_of(D, D).filter("ordered", lambda t: t[0] <= t[1]),
    "tuple.nested_filtered_head": tuple_of(tuple_of(ODD, D), int_range(0, 1)),
    # where the chained walk of filter-free nodes meets the skipping one
    "tuple.skip_free_in_filtered": tuple_of(tuple_of(D, D), ODD),
    "tuple.of_filtered_key_map": tuple_of(ordered_map_of(ODD, D, 0, 2), int_range(0, 1)),
    "tuple.nine_bits": tuple_of(*[int_range(0, 1)] * 9),
    "list.skip_free_nest": list_of(one_of(D.map(lambda x: -x), optional_of(just("a")),
                                          list_of(int_range(0, 1), 1, 2)), 0, 2),
    "list.of_filtered_pairs": list_of(tuple_of(ODD, int_range(0, 1)), 0, 2),
    "list": list_of(D, 0, 3),
    "list.min": list_of(int_range(0, 2), 2, 3),
    "list.filtered": list_of(ODD, 0, 3),
    "list.filtered_min": list_of(ODD, 2, 2),
    "list.late": list_of(LATE, 1, 2),
    "list.long_filtered": list_of(ODD, 4, 5),
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

#: every position is replayed on domains up to this many positions; beyond
#: it, the first ones and then every 997th (the corpus' 10^6-pair products)
EVERY_TREE_UP_TO = 5000

def _shown(value):
    return type(value), repr(value)


@pytest.mark.parametrize("name", sorted(ZOO))
def test_same_walk_as_the_reference(name):
    """Same accepted values in the same order and the same rejection count;
    the choices at every index replay, all of them and no more, into the
    value there (past ``EVERY_TREE_UP_TO``, at a stride)."""
    s = ZOO[name]
    ref_stats, stats = EnumStats(), EnumStats()
    ref = list(iter_trees_reference(s, ref_stats))
    got = list(iter_trees(s, stats))
    assert [_shown(t.current) for t in got] == [_shown(v) for v in ref]
    assert [_shown(v) for v in st.enumerate_values(s)] == [_shown(v) for v in ref]
    assert stats.rejected == ref_stats.rejected
    indices = [t.index for t in got]
    assert indices == sorted(set(indices))
    if s.cardinality().is_finite:
        assert s._span() == len(got)
    big = len(ref) > EVERY_TREE_UP_TO
    for i, (r, g) in enumerate(zip(ref, got)):
        if big and i >= 1000 and i % 997:
            continue
        tree = _tree_at(s, g.index)
        assert _shown(tree.current) == _shown(r)
        assert tree.choices == tuple(s._unrank(g.index))
        assert g.complexity() == tree.complexity()


@pytest.mark.parametrize("name", sorted(ZOO))
def test_enumerate_values_is_what_the_trees_carry(name):
    """``enumerate_values`` reads the stream without trees: the same values
    in the same order, a budget taking the first ones."""
    s = ZOO[name]
    carried = [_shown(t.current) for t in iter_trees(s)]
    assert [_shown(v) for v in st.enumerate_values(s)] == carried
    assert [_shown(v) for v in st.enumerate_values(s, budget=3)] == carried[:3]


def _iter_values(s, stats):
    return (t.current for t in iter_trees(s, stats))


@pytest.mark.parametrize("name", sorted(n for n, s in ZOO.items()
                                         if s.cardinality().kind == "unknown"))
def test_same_label_at_the_rejection_bound(name):
    s = ZOO[name]
    total = EnumStats()
    for _ in iter_trees_reference(s, total):
        pass
    for bound in sorted({0, total.rejected // 2, max(total.rejected - 1, 0)}):
        outcomes = []
        for walk in (iter_trees_reference, _iter_values):
            seen = []
            with pytest.raises(RejectionExhausted) as exc:
                for v in walk(s, EnumStats(max_rejected=bound)):
                    seen.append(repr(v))
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


def test_unranking_agrees_with_the_stream_past_the_first_size():
    """Mixed radix and combinadic unranking at every base position against
    the values the stream walks; sums and sizes refuse a position past the
    end."""
    for s in (list_of(int_range(0, 2), 0, 3),
              ordered_map_of(int_range(0, 5), int_range(0, 2), 0, 3),
              one_of(just(0), tuple_of(int_range(0, 2), optional_of(D)))):
        values = list(st.enumerate_values(s))
        assert [_tree_at(s, i).current for i in range(s._span())] == values
        with pytest.raises(IndexError):
            s._unrank(len(values))


def test_enumeration_walks_values_without_building_trees(monkeypatch):
    """Walking the stream builds no shrink tree; only replaying does."""
    def forbidden(*args, **kw):
        raise AssertionError("a tree was built while walking")

    s = tuple_of(list_of(ODD, 0, 2), ordered_map_of(D, optional_of(D), 0, 1))
    expected = list(st.enumerate_values(s))
    for name in ("_ChoiceTree", "_Recorder"):
        monkeypatch.setattr(st, name, forbidden)
    assert [t.current for t in iter_trees(s)] == expected


def test_position_0_of_a_one_of_sizes_no_key_universe():
    """A failure at ``[]`` rebuilds position 0, whose first alternative holds
    a map: enumeration never walked its 100001 keys, nor does the rebuild."""
    keys = []

    def few(k):
        keys.append(k)
        return k < 3

    inner = ordered_map_of(int_range(0, 10**5).filter("few", few), int_range(0, 1), 0, 1)
    s = one_of(list_of(inner, 0, 1), just(0))
    v = run_exhaustive(Property("p", s, lambda x: False), RunConfig(backend="exhaustive"))
    assert v.counterexample.original == v.counterexample.shrunk == []
    assert keys == []


#: strategies with no position at all: a map with fewer keys than its
#: ``min_size``, a map whose values have none, and what is built over them
EMPTY = ordered_map_of(int_range(0, 5).filter("first", lambda k: k < 1), D, 2, 2)
OF_EMPTY = ordered_map_of(int_range(0, 3), EMPTY, 1, 1)
EMPTIES = {
    "map_of.too_few_keys": EMPTY,
    "map_of.empty_values": OF_EMPTY,
    "map": EMPTY.map(len),
    "filter": EMPTY.filter("any", lambda m: True),
    "tuple": tuple_of(D, EMPTY),
    "list": list_of(EMPTY, 1, 1),
    "list.of_empty_values": list_of(OF_EMPTY, 1, 1),
    "one_of": one_of(EMPTY, OF_EMPTY),
}


def test_position_0_falls_through_empty_alternatives():
    """An alternative with no position at all is passed over at position 0,
    as enumeration passes over it."""
    for s in (*(one_of(e, just("next")) for e in EMPTIES.values()),
              one_of(*EMPTIES.values(), just("next"))):
        assert list(st.enumerate_values(s)) == ["next"]
        assert _tree_at(s, 0).current == "next"
        v = run_exhaustive(Property("p", s, lambda x: False), RunConfig(backend="exhaustive"))
        assert v.counterexample.original == v.counterexample.shrunk == "next"


def test_position_0_unranks_no_component_after_an_empty_one():
    """Enumeration of ``tuple_of(EMPTY, big)`` stops at ``EMPTY`` and never
    walks ``big``'s keys; rebuilding position 0 of the ``one_of`` stops
    there too."""
    keys = []

    def few(k):
        keys.append(k)
        return k < 3

    big = ordered_map_of(int_range(0, 10**5).filter("few", few), int_range(0, 1), 0, 1)
    s = one_of(tuple_of(EMPTY, big), just("next"))
    v = run_exhaustive(Property("p", s, lambda x: False), RunConfig(backend="exhaustive"))
    assert v.counterexample.original == v.counterexample.shrunk == "next"
    assert keys == []


@pytest.mark.parametrize("name", sorted(ZOO) + [f"empty.{n}" for n in sorted(EMPTIES)])
def test_nonempty_is_a_positive_span(name):
    """A strategy is nonempty (position 0 exists) exactly when its span is
    positive."""
    s = EMPTIES[name[6:]] if name.startswith("empty.") else ZOO[name]
    if s._span() > 0:
        s._unrank(0)
    else:
        with pytest.raises(IndexError):
            s._unrank(0)


#: every zoo entry and every pinned draw; ``filter.empty`` and
#: ``map_of.too_few_keys`` exhaust their rejection budgets
DRAWN_ZOO = {**ZOO, **{f"pinned.{n}": s for n, s in DRAWN.items()}}


def _draws(s, ctx, n=4):
    """Type and repr of ``n`` draws from one context, or the error that
    ended them."""
    out = []
    try:
        for _ in range(n):
            out.append(_shown(s._draw(ctx)))
    except RejectionExhausted as exc:
        out.append(str(exc))
    return out


@pytest.mark.parametrize("name", sorted(DRAWN_ZOO))
def test_draw_is_the_value_of_the_random_tree(name):
    """The plain context and the recording one ``random_tree`` uses draw the
    same values, leave the same PRNG state and rejection budget, and fail
    alike; the recorded choices replay, with no PRNG, into the same values."""
    s = DRAWN_ZOO[name]
    for seed in range(40):
        for budget in (None, 40):  # per-value and run-wide exhaustion
            plain = st._GenContext(SplitMix64(seed), budget)
            rec = st._Recorder(rng=SplitMix64(seed), rejection_budget=budget)
            drawn = _draws(s, plain)
            assert _draws(s, rec) == drawn
            assert rec.rng.state == plain.rng.state
            assert rec.rejection_budget == plain.rejection_budget
            values = [d for d in drawn if type(d) is tuple]
            replay = st._Recorder(rec.choices)
            assert _draws(s, replay, len(values)) == values
            assert replay.choices == rec.choices[:len(replay.choices)]


def _counted():
    """A strategy with every combinator, and the calls its counting map
    transform and filter have seen."""
    calls = {"map": 0, "filter": 0}

    def double(x):
        calls["map"] += 1
        return 2 * x

    def small(x):
        calls["filter"] += 1
        return x < 4

    s = tuple_of(list_of(int_range(0, 9).map(double), 0, 3),
                 one_of(ordered_map_of(int_range(0, 9).filter("small", small),
                                       int_range(0, 9).map(double), 0, 3),
                        optional_of(int_range(0, 9).filter("small", small))),
                 pattern("[ab]{0,2}"))
    return s, calls


def test_a_strategy_with_only_a_draw_fuzzes_and_shrinks():
    """``_draw`` is the one draw a strategy needs: it fuzzes, and it shrinks
    by replaying its choices."""
    class Pair(st.Strategy):
        def _draw(self, ctx):
            return ctx.choice(0, 9), ctx.choice(0, 9)

    v = run_fuzz(Property("p", Pair(), lambda p: sum(p) < 5), RunConfig(seed=5, cases=300))
    assert v.kind is VerdictKind.FALSIFIED and sum(v.counterexample.original) >= 5
    assert v.counterexample.shrunk == (0, 5)


def test_a_passing_fuzz_run_builds_no_tree(monkeypatch):
    def forbidden(*args, **kw):
        raise AssertionError("a tree was built for a passing case")

    s, _ = _counted()
    for name, obj in list(vars(st).items()):
        if isinstance(obj, type) and issubclass(obj, ValueTree):
            monkeypatch.setattr(st, name, forbidden)
    monkeypatch.setattr(st, "_Recorder", forbidden)
    v = run_fuzz(Property("p", s, lambda *a: True), RunConfig(seed=5, cases=300))
    assert v.kind is VerdictKind.PASS_SAMPLED and v.cases == 300


@pytest.mark.parametrize("predicate, kind, calls", [
    (lambda *a: True, VerdictKind.PASS_SAMPLED, {"map": 672, "filter": 918}),
    (lambda xs, m, t: not (len(xs) == 3 and t == "ab"), VerdictKind.FALSIFIED,
     {"map": 223, "filter": 210}),
], ids=["passing", "failing_at_case_61"])
def test_fuzz_draws_make_the_user_calls_tree_draws_made(predicate, kind, calls):
    """A passing run makes the calls each case made when the fuzz loop built
    a tree for it.  A failing run also makes those of its recording redraw
    and of every shrink candidate, each replayed afresh."""
    s, seen = _counted()
    v = run_fuzz(Property("p", s, predicate), RunConfig(seed=5, cases=300))
    assert v.kind is kind
    assert seen == calls
