"""Bounded-exhaustive backend: complete enumerations prove, first failures
refute, and both budget gates hold."""

import time

import pytest

import tricheck.exhaustive as exhaustive
import tricheck.strategies as st
from tricheck.exhaustive import run_exhaustive
from tricheck.fuzz import run_fuzz
from tricheck.harness import Property, RunConfig
from tricheck.patterns import pattern
from tricheck.results import UnknownReason, VerdictKind
from _oracles import choices_reference, iter_trees_reference
from tricheck.runner import ENSEMBLE_ORDER, run_ensemble
from tricheck.strategies import (enumerate_values, int_range, just, list_of, one_of,
                                 optional_of, ordered_map_of, tuple_of)


def prop(strategy, predicate, name="p"):
    return Property(name=name, strategy=strategy, predicate=predicate)


# --------------------------------------------------------------------------
# proofs

def test_full_enumeration_proves_with_exact_count():
    p = prop(int_range(-5, 5), lambda x: x * x >= 0)
    v = run_exhaustive(p, RunConfig())
    assert v.kind is VerdictKind.PROVED
    assert v.method == "exhaustive"
    assert v.cases == 11
    assert v.backend == "exhaustive"
    assert not v.vacuity_warning


def test_product_domain_counts_every_pair():
    p = prop(tuple_of(int_range(1, 10), int_range(1, 10)),
             lambda a, b: 1 <= a * b <= 100)
    v = run_exhaustive(p, RunConfig())
    assert v.kind is VerdictKind.PROVED
    assert v.cases == 100


def test_filtered_domain_proves_over_accepted_values_only():
    s = int_range(0, 20).filter("even", lambda x: x % 2 == 0)
    p = prop(s, lambda x: x % 2 == 0)
    v = run_exhaustive(p, RunConfig())
    assert v.kind is VerdictKind.PROVED
    assert v.cases == 11  # 0, 2, ..., 20


def test_empty_refinement_is_a_vacuous_proof():
    s = int_range(0, 10).filter("negative", lambda x: x < 0)
    p = prop(s, lambda x: False)  # unfalsifiable: no value ever reaches it
    v = run_exhaustive(p, RunConfig())
    assert v.kind is VerdictKind.PROVED
    assert v.cases == 0
    assert v.vacuity_warning is True


#: a product, and a product with a filter below it, over which the walk
#: builds no tree: only a failing value is rebuilt
UNBUILT = {
    "product": tuple_of(int_range(0, 9), int_range(-4, 4)),
    "filtered": tuple_of(int_range(0, 9).filter("odd", lambda x: x % 2), int_range(0, 3)),
}


def _no_tree(*args, **kw):
    raise AssertionError("a tree was built or replayed while walking")


@pytest.mark.parametrize("name", sorted(UNBUILT))
def test_a_passing_walk_builds_no_tree(monkeypatch, name):
    """The walk yields values; it neither builds a tree per value nor
    replays a value that did not fail."""
    monkeypatch.setattr(st, "_WalkedTree", _no_tree)
    monkeypatch.setattr(st, "_replay", _no_tree)
    monkeypatch.setattr(exhaustive, "_replay", _no_tree)
    v = run_exhaustive(prop(UNBUILT[name], lambda *a: True), RunConfig())
    assert v.kind is VerdictKind.PROVED
    assert v.cases == len(list(enumerate_values(UNBUILT[name])))


@pytest.mark.parametrize("name", sorted(UNBUILT))
def test_a_failing_walk_rebuilds_only_the_failing_position(monkeypatch, name):
    """A falsified walk builds no tree, and rebuilds the failing value once,
    from the choices the reference gives for it; every later replay is a
    shrink candidate's."""
    s = UNBUILT[name]
    value, choices = next((v, c) for v, c in choices_reference(s) if v[0] * v[1] >= 6)
    rebuilt, replayed = [], []
    original_replay = st._replay

    def noting(into):
        def replay(strategy, prefix, limit=None):
            into.append(list(prefix))
            return original_replay(strategy, prefix, limit)
        return replay

    monkeypatch.setattr(st, "_WalkedTree", _no_tree)
    monkeypatch.setattr(st, "_replay", noting(replayed))
    monkeypatch.setattr(exhaustive, "_replay", noting(rebuilt))
    v = run_exhaustive(prop(s, lambda a, b: a * b < 6), RunConfig())
    assert v.kind is VerdictKind.FALSIFIED
    assert v.counterexample.original == value
    assert rebuilt == [choices]
    assert replayed and all(len(r) <= len(choices) for r in replayed)


# --------------------------------------------------------------------------
# refutations come in canonical order

def test_counterexample_is_canonically_first():
    p = prop(int_range(0, 100), lambda x: x < 37)
    v = run_exhaustive(p, RunConfig())
    assert v.kind is VerdictKind.FALSIFIED
    assert v.counterexample.original == 37
    assert v.counterexample.shrunk == 37
    assert v.counterexample.case_index == 37
    assert v.counterexample.seed is None


def test_pair_counterexample_follows_row_major_order():
    # first failing pair with the leftmost component slowest: (6, 9)
    p = prop(tuple_of(int_range(0, 9), int_range(0, 9)),
             lambda a, b: a * b < 50)
    v = run_exhaustive(p, RunConfig())
    assert v.kind is VerdictKind.FALSIFIED
    assert v.counterexample.original == (6, 9)
    assert v.counterexample.case_index == 69
    assert v.counterexample.shrunk == (6, 9)  # already a local minimum


def test_counterexample_is_shrunk():
    p = prop(list_of(int_range(0, 3), 0, 3), lambda xs: len(xs) < 3)
    v = run_exhaustive(p, RunConfig())
    assert v.kind is VerdictKind.FALSIFIED
    assert v.counterexample.shrunk == [0, 0, 0]


def _below_six(xs):
    assert sum(xs) < 6, f"sum of {xs} is {sum(xs)}"


#: a tuple, a list, a filter, a one_of and an ordered map, each with a
#: predicate that first fails past its first value, by returning False or by
#: raising
REBUILT = {
    "tuple": (tuple_of(list_of(int_range(0, 3), 0, 2), int_range(0, 4)),
              lambda xs, n: sum(xs) + n < 6),
    "list": (list_of(int_range(0, 3), 0, 3), _below_six),
    "filter": (list_of(int_range(0, 4), 0, 3).filter("sorted", lambda xs: xs == sorted(xs)),
               lambda xs: len(xs) < 3 or xs[1] < 2),
    "one_of": (one_of(just(None), optional_of(list_of(int_range(0, 3), 1, 3))),
               lambda xs: xs is None or _below_six(xs)),
    "map": (ordered_map_of(int_range(0, 3), int_range(0, 2), 0, 3),
            lambda m: sum(m.values()) + len(m) < 5),
}


def _scramble(value):
    """Mutates every list and dict in ``value``."""
    if isinstance(value, list):
        value.append(-7)
    elif isinstance(value, dict):
        value.clear()
    elif isinstance(value, tuple):
        for part in value:
            _scramble(part)


def _mutating(check):
    """``check``, which scrambles its argument before it fails."""
    def predicate(*args):
        try:
            ok = check(*args)
        except AssertionError:
            _scramble(args)
            raise
        if ok is False:
            _scramble(args)
        return ok
    return predicate


def _falsification(v):
    assert v.kind is VerdictKind.FALSIFIED
    c = v.counterexample
    return c.original, c.shrunk, c.case_index, c.message


@pytest.mark.parametrize("name", sorted(REBUILT))
def test_a_failure_is_rebuilt_from_the_walks_choices(monkeypatch, name):
    """The failing value is the reference's first failing one, and is
    rebuilt alike when the predicate mutates it before failing, and when
    ``exhaustive.iter_trees`` is wrapped in a plain generator, as
    ``bench/tracing.py`` wraps it: the rebuild reads the walk's choices
    from ``EnumStats``, not from the value or the iterator."""
    s, check = REBUILT[name]
    expected = _falsification(run_exhaustive(prop(s, check), RunConfig()))
    unpack = isinstance(s, st.TupleOf)
    first = next(i for i, v in enumerate(iter_trees_reference(s))
                 if _fails(check, v, unpack))
    assert expected[0] == list(iter_trees_reference(s))[first]
    assert expected[2] == first
    assert _falsification(run_exhaustive(prop(s, _mutating(check)), RunConfig())) == expected
    walk = exhaustive.iter_trees

    def wrapped(strategy, stats):
        yield from walk(strategy, stats)

    monkeypatch.setattr(exhaustive, "iter_trees", wrapped)
    assert _falsification(run_exhaustive(prop(s, check), RunConfig())) == expected
    assert _falsification(run_exhaustive(prop(s, _mutating(check)), RunConfig())) == expected


def _fails(check, value, unpack):
    try:
        return check(*value) is False if unpack else check(value) is False
    except AssertionError:
        return True


@pytest.mark.parametrize("strategy, predicate, shrunk", [
    (list_of(just(0), 1200, 1200), lambda xs: True, None),
    (pattern("a{1100}"), lambda s: True, None),
    (tuple_of(*[just(0)] * 1100), lambda *xs: True, None),
    (list_of(just(0), 1100, 1100), lambda xs: len(xs) < 1100, [0] * 1100),
], ids=["list", "pattern", "tuple", "list.falsified"])
def test_a_product_of_a_thousand_components_does_not_exhaust_the_stack(
        strategy, predicate, shrunk):
    """Each domain has one value; its product nests log2(n) deep, not n."""
    v = run_exhaustive(prop(strategy, predicate), RunConfig())
    if shrunk is None:
        assert v.kind is VerdictKind.PROVED
        assert v.cases == 1
    else:
        assert v.kind is VerdictKind.FALSIFIED
        assert v.counterexample.shrunk == shrunk


# --------------------------------------------------------------------------
# budget gates

def test_finite_domain_over_budget_is_not_attempted():
    p = prop(int_range(0, 999), lambda x: True)
    v = run_exhaustive(p, RunConfig(budget=10))
    assert v.kind is VerdictKind.UNKNOWN
    assert v.reason is UnknownReason.BUDGET_EXCEEDED
    assert v.detail == "needs 1000 evaluations, budget is 10"


def test_too_large_domain_is_not_attempted():
    p = prop(int_range(0, 2**64 - 1, width=64, signed=False), lambda x: True)
    v = run_exhaustive(p, RunConfig())
    assert v.kind is VerdictKind.UNKNOWN
    assert v.reason is UnknownReason.BUDGET_EXCEEDED
    assert v.detail == "domain exceeds 2**63 values"


def test_filtered_stream_counts_accepted_values_against_budget():
    s = int_range(0, 1000).filter("all", lambda x: True)
    p = prop(s, lambda x: True)
    v = run_exhaustive(p, RunConfig(budget=5))
    assert v.kind is VerdictKind.UNKNOWN
    assert v.reason is UnknownReason.BUDGET_EXCEEDED
    assert "accepted values exceeded budget 5" in v.detail


def test_a_none_past_the_budget_is_a_value_left():
    """Five accepted values fill the budget, and the sixth is None: the
    stream has not ended, so nothing is proved."""
    s = one_of(int_range(0, 4), just(None)).filter("all", lambda x: True)
    v = run_exhaustive(prop(s, lambda x: True), RunConfig(budget=5))
    assert v.describe() == "unknown: budget_exceeded (accepted values exceeded budget 5)"


@pytest.mark.parametrize("budget, described", [
    (5, "proved (exhaustive, 5 cases)"),
    (4, "unknown: budget_exceeded (accepted values exceeded budget 4)"),
])
def test_accepted_values_that_exactly_fill_the_budget_prove(budget, described):
    """Five accepted values then five rejected ones: once the budget is
    spent, the stream proves only if nothing accepted is left in it."""
    s = int_range(0, 9).filter("small", lambda x: x < 5)
    assert run_exhaustive(prop(s, lambda x: True), RunConfig(budget=budget)).describe() == described


def test_filtered_stream_bounds_base_traversal():
    # only one value in 100k is accepted; the base walk stops at 10x budget
    s = int_range(0, 100_000).filter("needle", lambda x: x == 100_000)
    p = prop(s, lambda x: True)
    v = run_exhaustive(p, RunConfig(budget=100))
    assert v.kind is VerdictKind.UNKNOWN
    assert v.reason is UnknownReason.BUDGET_EXCEEDED
    assert "needle" in v.detail


def test_budgeted_walk_maps_only_the_heads_it_reaches():
    # the 101st accepted value, (10, 0), trips the budget: a stream that
    # materialized the head component would call the transform 10^6 times
    calls = []

    def f(x):
        calls.append(x)
        return x

    s = tuple_of(int_range(0, 10**6).map(f), int_range(0, 9)).filter("all", lambda t: True)
    v = run_exhaustive(prop(s, lambda t: True), RunConfig(budget=100))
    assert v.kind is VerdictKind.UNKNOWN
    assert v.reason is UnknownReason.BUDGET_EXCEEDED
    assert len(calls) <= 11


@pytest.mark.parametrize("tail", [lambda m: m, lambda m: list_of(m, 0, 1)],
                         ids=["map", "list_of_map"])
def test_rejected_head_walks_no_keys_outside_the_rejection_bound(tail):
    # head 0 is rejected and skips its tail, so the sparse key universe is
    # walked only after head 1 (after (1, []) under a list), and every key
    # walk is charged to the 10x budget rejection bound
    calls = []

    def needle(k):
        calls.append(k)
        return k < 3

    keys = int_range(0, 10**8).filter("needle", needle)
    s = tuple_of(int_range(0, 1).filter("one", lambda x: x == 1),
                 tail(ordered_map_of(keys, int_range(0, 1), 0, 1)))
    v = run_exhaustive(prop(s, lambda head, tail: True), RunConfig(budget=100))
    assert v.kind is VerdictKind.UNKNOWN
    assert v.reason is UnknownReason.BUDGET_EXCEEDED
    assert "needle" in v.detail
    assert len(calls) <= 10 * 100 + 4


def test_failure_at_the_first_position_walks_no_keys():
    """The first value holds the empty list, so neither its walk nor its
    rebuild walks the map's keys."""
    calls = []

    def sparse(k):
        calls.append(k)
        return k < 3

    keys = int_range(0, 10**5).filter("sparse", sparse)
    s = tuple_of(int_range(0, 1), list_of(ordered_map_of(keys, int_range(0, 1), 0, 1), 0, 1))
    v = run_exhaustive(prop(s, lambda a, ms: False), RunConfig())
    assert v.kind is VerdictKind.FALSIFIED
    assert v.counterexample.original == v.counterexample.shrunk == (0, [])
    assert calls == []


def test_completeness_check_holds_the_span_to_the_cardinality(monkeypatch):
    # a walk that yields more values than the independently computed
    # cardinality fails the self-check
    monkeypatch.setattr(st.IntRange, "_walk",
                        lambda self, stats: (iter(range(self.lo, self.hi + 2)), list))
    with pytest.raises(AssertionError, match="yielded 4 values, cardinality said at most 3"):
        run_exhaustive(prop(int_range(0, 2), lambda x: True), RunConfig())


def test_oversized_key_universe_is_unknown_not_a_hang(monkeypatch):
    monkeypatch.setattr("tricheck.strategies._KEY_UNIVERSE_CAP", 50)
    s = ordered_map_of(int_range(0, 1000).filter("all", lambda x: True),
                       int_range(0, 1), min_size=0, max_size=2)
    p = prop(s, lambda m: True)
    v = run_exhaustive(p, RunConfig())
    assert v.kind is VerdictKind.UNKNOWN
    assert v.reason is UnknownReason.BUDGET_EXCEEDED
    assert "key universe" in v.detail


class _DrawOnly(st.Strategy):
    """A user strategy with nothing but a ``_draw``."""

    def _draw(self, ctx):
        return ctx.choice(1, 6)


class _Counted(_DrawOnly):
    """One that sizes its domain but cannot list it."""

    def _cardinality(self):
        return st.Cardinality.finite(6)


def test_a_strategy_without_enumeration_is_unsupported_not_a_crash():
    for strategy, name, hook in [
            (_DrawOnly(), "_DrawOnly", "_cardinality"), (_Counted(), "_Counted", "_walk"),
            (tuple_of(int_range(0, 1), _DrawOnly()), "_DrawOnly", "_cardinality"),
            (tuple_of(int_range(0, 1), _Counted()), "_Counted", "_walk")]:
        v = run_exhaustive(prop(strategy, lambda *xs: True), RunConfig())
        assert (v.kind, v.reason, v.detail) == (
            VerdictKind.UNKNOWN, UnknownReason.UNSUPPORTED,
            f"strategy {name} has no {hook} interpretation")
    # the ensemble goes on to fuzz, which needs only the draw
    v = run_ensemble(prop(_DrawOnly(), lambda x: 1 <= x <= 6), ENSEMBLE_ORDER, RunConfig())
    assert (v.kind, v.backend) == (VerdictKind.PASS_SAMPLED, "fuzz")


# --------------------------------------------------------------------------
# deadlines

def test_expired_deadline_times_out_with_progress(monkeypatch):
    monkeypatch.setattr("tricheck.harness.POLL_INTERVAL", 8)
    p = prop(int_range(0, 999), lambda x: True)
    v = run_exhaustive(p, RunConfig(), deadline=time.monotonic() - 1.0)
    assert v.kind is VerdictKind.UNKNOWN
    assert v.reason is UnknownReason.TIMEOUT
    assert 0 < v.cases < 1000


def test_expired_deadline_is_polled_on_the_interval(monkeypatch):
    monkeypatch.setattr("tricheck.harness.POLL_INTERVAL", 4)
    p = prop(int_range(0, 999), lambda x: True)
    v = run_exhaustive(p, RunConfig(), deadline=time.monotonic() - 1.0)
    assert v.kind is VerdictKind.UNKNOWN
    assert v.reason is UnknownReason.TIMEOUT
    assert v.cases == 4  # the deadline check fires after the fourth evaluation


@pytest.mark.parametrize("run, strategy", [
    (run_fuzz, int_range(0, 999)),
    (run_exhaustive, int_range(0, 999)),
    (run_exhaustive, int_range(0, 999).filter("odd", lambda x: x % 2)),
], ids=["fuzz", "exhaustive", "filtered-exhaustive"])
def test_a_timeout_counts_the_units_evaluated(monkeypatch, run, strategy):
    monkeypatch.setattr("tricheck.harness.POLL_INTERVAL", 4)
    calls = []

    def predicate(x):
        calls.append(x)
        return True

    v = run(prop(strategy, predicate), RunConfig(), deadline=time.monotonic() - 1.0)
    assert v.reason is UnknownReason.TIMEOUT
    assert v.cases == len(calls) > 0


def test_a_failure_hands_its_unused_lease_to_the_shrink(monkeypatch):
    """Under a deadline already passed, the walk and the shrink together get
    one poll interval: 6 values walked up to the failure at 5, then 2 shrink
    candidates, and the poll after the eighth unit stops the shrink."""
    monkeypatch.setattr("tricheck.harness.POLL_INTERVAL", 8)
    calls = []

    def predicate(x):
        calls.append(x)
        return x != 5

    v = run_exhaustive(prop(int_range(0, 99), predicate), RunConfig(),
                       deadline=time.monotonic() - 1.0)
    assert v.kind is VerdictKind.FALSIFIED
    assert v.counterexample.original == 5
    assert v.counterexample.shrink_incomplete
    assert calls == [0, 1, 2, 3, 4, 5, 0, 3]


# --------------------------------------------------------------------------
# aborting predicates

def test_predicate_abort_is_falsified_with_message():
    def predicate(x):
        if x == 13:
            raise ZeroDivisionError("unlucky")
        return True

    p = prop(int_range(0, 100), predicate)
    v = run_exhaustive(p, RunConfig())
    assert v.kind is VerdictKind.FALSIFIED
    assert v.counterexample.original == 13
    assert "ZeroDivisionError" in v.counterexample.message
