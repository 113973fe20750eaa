"""Bounded-exhaustive backend: complete enumerations prove, first failures
refute, and both budget gates hold."""

import time

import pytest

from tricheck.exhaustive import run_exhaustive
from tricheck.fuzz import run_fuzz
from tricheck.harness import Property, RunConfig
from tricheck.patterns import pattern
from tricheck.results import UnknownReason, VerdictKind
from tricheck.strategies import int_range, just, list_of, ordered_map_of, tuple_of


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
    # head 0 is rejected and skips its tail, whose span needs the sparse key
    # universe; it is resolved only once head 1 leads to an accepted value,
    # and every key walk is charged to the 10x budget rejection bound
    calls = []

    def needle(k):
        calls.append(k)
        return k < 3

    keys = int_range(0, 10**8).filter("needle", needle)
    s = tuple_of(int_range(0, 1).filter("one", lambda x: x == 1),
                 tail(ordered_map_of(keys, int_range(0, 1), 0, 1)))
    v = run_exhaustive(prop(s, lambda t: True), RunConfig(budget=100))
    assert v.kind is VerdictKind.UNKNOWN
    assert v.reason is UnknownReason.BUDGET_EXCEEDED
    assert "needle" in v.detail
    assert len(calls) <= 10 * 100 + 4


def test_failure_at_the_first_position_walks_no_keys():
    """Rebuilding the failing value unranks position 0: every digit is 0 and
    the empty list comes first, so no span is asked of the unwalked map."""
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
    # a span and a stream that agree with each other but overshoot the
    # independently computed cardinality still fail the self-check
    import tricheck.strategies as st
    monkeypatch.setattr(st.IntRange, "_span", lambda self, stats=None: self.hi - self.lo + 2)
    monkeypatch.setattr(st.IntRange, "_values",
                        lambda self, stats: iter(range(self.lo, self.hi + 2)))
    with pytest.raises(AssertionError, match="cardinality said at most 3"):
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
