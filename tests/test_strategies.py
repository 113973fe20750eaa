"""Strategy DSL: cardinality algebra, canonical enumeration, seeded draws,
filter budgets, and shrink-candidate ordering."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from tricheck.prng import SplitMix64
from tricheck.strategies import (
    BoundOverflow,
    Cardinality,
    EmptyChoice,
    EmptyRange,
    EmptySize,
    EnumStats,
    NotEnumerable,
    RejectionExhausted,
    _card_sum_powers,
    cardinality,
    enumerate_values,
    int_range,
    iter_trees,
    just,
    list_of,
    one_of,
    optional_of,
    ordered_map_of,
    random_tree,
    tuple_of,
)
from tricheck.patterns import pattern

from _oracles import enumerate_oracle


# --------------------------------------------------------------------------
# cardinality algebra

def test_cardinality_just_is_one():
    assert cardinality(just("x")) == Cardinality.finite(1)


def test_cardinality_int_range_is_span():
    assert cardinality(int_range(-3, 9)) == Cardinality.finite(13)


def test_cardinality_tuple_multiplies():
    s = tuple_of(int_range(0, 1), int_range(0, 2))
    assert cardinality(s) == Cardinality.finite(6)


def test_cardinality_one_of_adds():
    s = one_of(int_range(0, 4), just(99), int_range(0, 1))
    assert cardinality(s) == Cardinality.finite(8)


def test_cardinality_optional_adds_one():
    assert cardinality(optional_of(int_range(0, 9))) == Cardinality.finite(11)


def test_cardinality_list_sums_powers():
    # 2^0 + 2^1 + 2^2 = 7
    assert cardinality(list_of(int_range(0, 1), 0, 2)) == Cardinality.finite(7)


def test_cardinality_ordered_map_worked_example():
    # 2 keys, 2 values, sizes 0..2: C(2,0)*1 + C(2,1)*2 + C(2,2)*4 = 9
    s = ordered_map_of(int_range(0, 1), int_range(0, 1), min_size=0, max_size=2)
    assert cardinality(s) == Cardinality.finite(9)


def test_cardinality_filter_is_unknown():
    s = int_range(0, 9).filter("even", lambda x: x % 2 == 0)
    assert cardinality(s).kind == "unknown"


def test_cardinality_map_keeps_upper_bound():
    s = int_range(0, 9).map(lambda x: x // 2)  # image has 5 values, bound says 10
    assert cardinality(s) == Cardinality.finite(10)


def test_cardinality_saturates_past_2_63():
    s = int_range(0, 2**64 - 1, width=64, signed=False)
    assert cardinality(s).kind == "too_large"
    assert cardinality(tuple_of(s, int_range(0, 1))).kind == "too_large"
    assert cardinality(list_of(int_range(0, 2**62), 2, 3)).kind == "too_large"
    wide = int_range(0, 2**40)
    assert cardinality(ordered_map_of(wide, wide, 0, 3)).kind == "too_large"
    # a list that may hold nothing has one value, however wide its elements
    pair = tuple_of(int_range(0, 2**62), int_range(0, 2**62))
    assert cardinality(list_of(pair, 0, 0)) == Cardinality.finite(1)
    # a map saturates whether its sum of terms grows past 2**63 or a key or
    # value domain already is past it
    million = int_range(0, 10**6)
    assert cardinality(ordered_map_of(million, million, 0, 10)).kind == "too_large"
    assert cardinality(ordered_map_of(s, just(0), 0, 1)).kind == "too_large"
    assert cardinality(ordered_map_of(just(0), s, 0, 1)).kind == "too_large"


def test_cardinality_of_lists_of_one_or_no_value_takes_no_step_per_length():
    """A one-value element gives one list per length, so sizing it is
    immediate however wide the length range; no value gives only ``[]``."""
    assert cardinality(list_of(just(0), 3, 10**18)) == Cardinality.finite(10**18 - 2)
    assert cardinality(list_of(just(0), 0, 2**63)).kind == "too_large"
    assert _card_sum_powers(Cardinality.finite(0), 0, 10**18) == Cardinality.finite(1)
    assert _card_sum_powers(Cardinality.finite(0), 1, 10**18) == Cardinality.finite(0)


def test_unknown_is_contagious_through_containers():
    f = int_range(0, 9).filter("odd", lambda x: x % 2 == 1)
    assert cardinality(tuple_of(f, int_range(0, 1))).kind == "unknown"
    assert cardinality(list_of(f, 0, 2)).kind == "unknown"


# --------------------------------------------------------------------------
# construction errors

def test_int_range_empty_raises():
    with pytest.raises(EmptyRange):
        int_range(5, 4)


def test_int_range_width_overflow_raises():
    with pytest.raises(BoundOverflow):
        int_range(0, 256, width=8, signed=False)
    with pytest.raises(BoundOverflow):
        int_range(-1, 10, width=8, signed=False)
    with pytest.raises(BoundOverflow):
        int_range(0, 128, width=8, signed=True)
    # boundary values are fine
    int_range(0, 255, width=8, signed=False)
    int_range(-128, 127, width=8, signed=True)


def test_int_range_unknown_width_raises():
    with pytest.raises(ValueError, match="width must be one of"):
        int_range(0, 1, width=12)


def test_one_of_empty_raises():
    with pytest.raises(EmptyChoice):
        one_of()


def test_ordered_map_impossible_min_size_raises():
    # only 2 distinct keys exist, so min_size=3 admits no map at all
    with pytest.raises(EmptySize):
        ordered_map_of(int_range(0, 1), int_range(0, 5), min_size=3, max_size=4)
    with pytest.raises(EmptySize):
        ordered_map_of(int_range(0, 1), int_range(0, 1), 3, 3)
    with pytest.raises(EmptySize):  # min_size above max_size
        ordered_map_of(int_range(0, 3), int_range(0, 1), 3, 2)


def test_list_of_bad_bounds_raise():
    with pytest.raises(EmptySize):
        list_of(int_range(0, 1), 3, 2)


def test_enumerate_too_large_without_budget_raises():
    s = int_range(0, 2**64 - 1, width=64, signed=False)
    with pytest.raises(NotEnumerable):
        enumerate_values(s)


def test_enumerate_too_large_with_budget_is_truncated():
    s = int_range(0, 2**64 - 1, width=64, signed=False)
    assert list(enumerate_values(s, budget=5)) == [0, 1, 2, 3, 4]


def test_a_too_large_product_is_walked_lazily():
    """The first values of a product of two 2**40-value components come at
    once: no component stream is materialized, as ``itertools.product``
    would materialize it."""
    s = tuple_of(int_range(0, 2**40), int_range(0, 2**40))
    first = [(0, 0), (0, 1), (0, 2)]
    trees = list(itertools.islice(iter_trees(s), 3))
    assert [(t.current, t.choices) for t in trees] == list(zip(first, first))
    assert list(enumerate_values(s, budget=3)) == first


# --------------------------------------------------------------------------
# canonical enumeration order

def test_int_range_enumerates_ascending():
    assert list(enumerate_values(int_range(-2, 3))) == [-2, -1, 0, 1, 2, 3]


def test_one_of_enumerates_in_declaration_order():
    s = one_of(just("b"), just("a"))
    assert list(enumerate_values(s)) == ["b", "a"]


def test_tuple_enumerates_first_component_slowest():
    s = tuple_of(int_range(0, 1), int_range(0, 2))
    assert list(enumerate_values(s)) == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2),
    ]


def test_optional_enumerates_absent_first():
    assert list(enumerate_values(optional_of(int_range(0, 1)))) == [None, 0, 1]


def test_list_enumerates_length_then_lexicographic():
    s = list_of(int_range(0, 1), 0, 2)
    assert list(enumerate_values(s)) == [
        [], [0], [1], [0, 0], [0, 1], [1, 0], [1, 1],
    ]


def test_ordered_map_enumerates_size_then_key_combination():
    s = ordered_map_of(int_range(0, 1), int_range(0, 1), min_size=0, max_size=2)
    assert list(enumerate_values(s)) == [
        {},
        {0: 0}, {0: 1}, {1: 0}, {1: 1},
        {0: 0, 1: 0}, {0: 0, 1: 1}, {0: 1, 1: 0}, {0: 1, 1: 1},
    ]


def test_filter_enumerates_surviving_values_in_base_order():
    s = int_range(0, 9).filter("even", lambda x: x % 2 == 0)
    assert list(enumerate_values(s)) == [0, 2, 4, 6, 8]


def test_map_enumerates_images_in_base_order():
    s = int_range(0, 4).map(lambda x: x * x)
    assert list(enumerate_values(s)) == [0, 1, 4, 9, 16]


# --------------------------------------------------------------------------
# enumeration agrees with an independent recursive oracle

ORACLE_SHAPES = [
    just(7),
    int_range(-3, 4),
    int_range(0, 6).map(lambda x: x * 2),
    int_range(0, 9).filter("div3", lambda x: x % 3 == 0),
    one_of(just("x"), int_range(0, 2), just("y")),
    tuple_of(int_range(0, 2), one_of(just("a"), just("b"))),
    optional_of(tuple_of(int_range(0, 1), int_range(0, 1))),
    list_of(int_range(0, 2), 1, 2),
    ordered_map_of(int_range(0, 2), int_range(0, 1), min_size=0, max_size=2),
    pattern("[ab]{2}"),
    tuple_of(list_of(int_range(0, 1), 0, 1), optional_of(just(9))),
]


@pytest.mark.parametrize("shape", ORACLE_SHAPES, ids=[repr(s) for s in ORACLE_SHAPES])
def test_enumeration_matches_oracle(shape):
    assert list(enumerate_values(shape)) == enumerate_oracle(shape)


@pytest.mark.parametrize("shape", ORACLE_SHAPES, ids=[repr(s) for s in ORACLE_SHAPES])
def test_finite_cardinality_counts_enumeration(shape):
    card = cardinality(shape)
    values = list(enumerate_values(shape))
    if card.is_finite and not _has_filter_or_map(shape):
        assert card.count == len(values)
    elif card.is_finite:
        assert card.count >= len(values)  # upper bound under map/filter


def _has_filter_or_map(strategy) -> bool:
    from tricheck.strategies import Filter, Map
    if isinstance(strategy, (Filter, Map)):
        return True
    for attr in ("inner", "element", "keys", "values"):
        sub = getattr(strategy, attr, None)
        if sub is not None and _has_filter_or_map(sub):
            return True
    for attr in ("alternatives", "components"):
        for sub in getattr(strategy, attr, ()):
            if _has_filter_or_map(sub):
                return True
    return False


# --------------------------------------------------------------------------
# randomized generation

def test_random_tree_is_seed_deterministic():
    s = tuple_of(int_range(0, 1000), list_of(int_range(0, 9), 0, 4))
    a = [random_tree(s, SplitMix64(99)).current for _ in range(1)]
    draws1 = _draws(s, seed=99, n=20)
    draws2 = _draws(s, seed=99, n=20)
    assert draws1 == draws2
    assert draws1 != _draws(s, seed=100, n=20)
    assert a[0] == draws1[0]


def _draws(s, seed, n):
    rng = SplitMix64(seed)
    return [random_tree(s, rng).current for _ in range(n)]


def test_random_values_lie_in_domain():
    s = int_range(-50, 50)
    rng = SplitMix64(3)
    for _ in range(500):
        v = random_tree(s, rng).current
        assert -50 <= v <= 50


def test_random_ordered_map_has_distinct_sorted_keys():
    s = ordered_map_of(int_range(0, 20), int_range(0, 5), min_size=0, max_size=6)
    rng = SplitMix64(7)
    for _ in range(200):
        m = random_tree(s, rng).current
        ks = list(m.keys())
        assert ks == sorted(set(ks))


def test_random_ordered_map_draws_no_more_entries_than_keys():
    s = ordered_map_of(int_range(0, 1), int_range(0, 5), min_size=0, max_size=5)
    assert {len(m) for m in _draws(s, 7, 200)} == {0, 1, 2}


def test_duplicate_map_keys_charge_the_run_wide_budget():
    s = ordered_map_of(int_range(0, 4).map(lambda x: 0), int_range(0, 1), 2, 2)
    with pytest.raises(RejectionExhausted) as exc:
        random_tree(s, SplitMix64(1), rejection_budget=3)
    assert exc.value.label == f"<distinct keys of {s!r}>"
    assert "run-wide" in str(exc.value)


def test_enumerated_ordered_map_has_distinct_sorted_keys():
    s = ordered_map_of(int_range(0, 4), int_range(0, 1), min_size=1, max_size=3)
    for m in enumerate_values(s):
        ks = list(m.keys())
        assert ks == sorted(set(ks))


def test_impossible_filter_exhausts_per_value_budget():
    s = int_range(0, 3).filter("never", lambda x: False)
    with pytest.raises(RejectionExhausted) as exc:
        random_tree(s, SplitMix64(1))
    assert exc.value.label == "never"


def test_crashing_filter_counts_as_rejection():
    def boom(x):
        raise RuntimeError("opaque predicate crash")

    s = int_range(0, 3).filter("explosive", boom)
    with pytest.raises(RejectionExhausted) as exc:
        random_tree(s, SplitMix64(1))
    assert exc.value.label == "explosive"


def test_run_wide_rejection_budget_trips_before_per_value_one():
    # accepts ~1/4 of draws, so a tiny run-wide budget trips first
    s = int_range(0, 3).filter("quarter", lambda x: x == 0)
    with pytest.raises(RejectionExhausted) as exc:
        for _ in range(1000):
            random_tree(s, SplitMix64(1), rejection_budget=0)
    assert exc.value.label == "quarter"


def test_enumeration_reject_bound_via_stats():
    s = int_range(0, 10_000).filter("one", lambda x: x == 10_000)
    stats = EnumStats(max_rejected=50)
    with pytest.raises(RejectionExhausted):
        list(iter_trees(s, stats))
    assert stats.rejected == 51


# --------------------------------------------------------------------------
# shrink candidates

class _Always:
    """A generator stand-in whose every draw is ``value``."""

    def __init__(self, value):
        self.value = value

    def uniform_in(self, lo, hi):
        assert lo <= self.value <= hi
        return self.value


def _int_ladder(lo, hi, value):
    return [c.current for c in random_tree(int_range(lo, hi), _Always(value)).candidates()]


def test_int_shrink_ladder_order():
    assert _int_ladder(0, 10, 10) == [0, 5, 8, 9]
    assert _int_ladder(3, 9, 7) == [3, 5, 6]
    assert _int_ladder(0, 0, 0) == []


def test_int_shrink_ladder_is_strictly_below_value():
    seen = _int_ladder(0, 2**16, 52655)
    assert seen[0] == 0
    assert all(v < 52655 for v in seen)
    assert seen[1:] == sorted(seen[1:])  # approach from below after the floor


def test_a_candidate_replay_stops_at_the_parent_length():
    """A candidate that asks for more choices than its parent drew is
    dropped at that choice: lowering a filter's accepted draw to a rejected
    value costs one filter call, not a run of rejections over zeros."""
    calls = []
    s = int_range(0, 100).filter("big", lambda x: calls.append(x) or x >= 50)
    tree = random_tree(s, _Always(80))
    calls.clear()
    assert [c.current for c in tree.candidates()] == [60, 70, 75, 78, 79]
    assert calls == [0, 40, 60, 70, 75, 78, 79]


def test_list_shrinks_truncations_before_drops_before_elements():
    s = list_of(int_range(0, 9), 0, 4)
    rng = SplitMix64(0)
    tree = None
    while tree is None or len(tree.current) != 3:
        tree = random_tree(s, rng)
    cands = [c.current for c in tree.candidates()]
    v = tree.current
    assert cands[0] == []          # shortest truncation first
    assert cands[1] == v[:1]
    assert cands[2] == v[:2]
    assert cands[3] == [v[1], v[2]]  # then single drops, position 0 first
    assert cands[4] == [v[0], v[2]]


def test_union_shrinks_toward_earlier_alternatives():
    s = one_of(just("first"), just("second"), just("third"))
    rng = SplitMix64(0)
    tree = None
    while tree is None or tree.current != "third":
        tree = random_tree(s, rng)
    firsts = [c.current for c in tree.candidates()]
    assert firsts[:2] == ["first", "second"]


def test_filter_drops_candidates_that_break_the_predicate():
    s = int_range(0, 100).filter("ge10", lambda x: x >= 10)
    rng = SplitMix64(5)
    tree = None
    while tree is None or tree.current < 30:
        tree = random_tree(s, rng)
    for c in tree.candidates():
        assert c.current >= 10


def test_map_shrinks_on_the_preimage():
    s = int_range(0, 50).map(lambda x: x * 10)
    rng = SplitMix64(2)
    tree = None
    while tree is None or tree.current < 100:
        tree = random_tree(s, rng)
    cands = [c.current for c in tree.candidates()]
    assert cands[0] == 0
    assert all(v % 10 == 0 for v in cands)


def test_ordered_map_shrinks_entry_count_first():
    s = ordered_map_of(int_range(0, 30), int_range(0, 9), min_size=0, max_size=4)
    rng = SplitMix64(4)
    tree = None
    while tree is None or len(tree.current) != 3:
        tree = random_tree(s, rng)
    cands = [c.current for c in tree.candidates()]
    assert cands[0] == {}
    assert all(len(c) < 3 for c in cands[: len(tree.current) + 1])


@settings(max_examples=150, deadline=None)
@given(hst.integers(min_value=0, max_value=2**63 - 1), hst.integers(min_value=0, max_value=10))
def test_candidate_complexity_strictly_decreases(seed, which):
    shapes = [
        int_range(0, 10_000),
        tuple_of(int_range(0, 99), int_range(-5, 5)),
        list_of(int_range(0, 9), 0, 5),
        optional_of(int_range(0, 1000)),
        one_of(just(0), int_range(1, 64), just("z")),
        ordered_map_of(int_range(0, 15), int_range(0, 3), min_size=0, max_size=3),
        int_range(0, 500).map(lambda x: -x),
        int_range(0, 500).filter("pos", lambda x: x >= 0),
        pattern("[ab]{1,3}"),
        tuple_of(list_of(int_range(0, 3), 0, 2), int_range(0, 7)),
        just(None),
    ]
    tree = random_tree(shapes[which], SplitMix64(seed), rejection_budget=10_000)
    parent = tree.complexity()
    for cand in tree.candidates():
        assert cand.complexity() < parent


def test_enumerated_trees_shrink_too():
    # enumeration produces the same shrinkable trees as random generation
    s = tuple_of(int_range(0, 3), int_range(0, 3))
    trees = list(iter_trees(s))
    last = trees[-1]
    assert last.current == (3, 3)
    assert any(c.current == (0, 3) for c in last.candidates())
