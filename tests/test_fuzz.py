"""Randomized backend: reproducibility, greedy shrinking, filter budgets,
and deadline behaviour."""

import time
import types

import pytest

from tricheck.corpus import REGISTRY
from tricheck.fuzz import run_fuzz, shrink_failure
from tricheck.harness import Property, RunConfig, Ticker
from tricheck.prng import SplitMix64
from tricheck.results import UnknownReason, VerdictKind
from tricheck.strategies import int_range, random_tree, tuple_of


def prop(strategy, predicate, name="p"):
    return Property(name=name, strategy=strategy, predicate=predicate)


# --------------------------------------------------------------------------
# reproducibility

def test_same_seed_same_verdict():
    p = prop(int_range(0, 65535), lambda x: x < 50000)
    a = run_fuzz(p, RunConfig(seed=42, cases=64))
    b = run_fuzz(p, RunConfig(seed=42, cases=64))
    assert a.kind is b.kind is VerdictKind.FALSIFIED
    assert a.counterexample.original == b.counterexample.original
    assert a.counterexample.shrunk == b.counterexample.shrunk
    assert a.counterexample.case_index == b.counterexample.case_index
    assert a.counterexample.seed == b.counterexample.seed == 42


def test_different_seed_different_draws():
    p = prop(tuple_of(int_range(0, 2**32 - 1), int_range(0, 2**32 - 1)),
             lambda a, b: False)
    a = run_fuzz(p, RunConfig(seed=1, cases=4))
    b = run_fuzz(p, RunConfig(seed=2, cases=4))
    assert a.counterexample.original != b.counterexample.original


def test_passing_run_reports_case_count():
    p = prop(int_range(0, 100), lambda x: x >= 0)
    v = run_fuzz(p, RunConfig(seed=0, cases=37))
    assert v.kind is VerdictKind.PASS_SAMPLED
    assert v.cases == 37
    assert v.backend == "fuzz"
    assert v.duration_ms >= 0


# --------------------------------------------------------------------------
# shrinking

@pytest.mark.parametrize("seed", [0, 1, 7, 42, 1337])
def test_threshold_failure_shrinks_to_exact_boundary(seed):
    p = prop(int_range(0, 65535), lambda x: x < 50000)
    v = run_fuzz(p, RunConfig(seed=seed, cases=256))
    assert v.kind is VerdictKind.FALSIFIED
    assert v.counterexample.shrunk == 50000
    assert v.counterexample.original >= 50000
    assert not v.counterexample.shrink_incomplete


def test_pair_failure_shrinks_both_components():
    # fails when both coordinates are large; the greedy pass minimizes each
    p = prop(tuple_of(int_range(0, 1000), int_range(0, 1000)),
             lambda a, b: a < 400 or b < 300)
    v = run_fuzz(p, RunConfig(seed=11, cases=512))
    assert v.kind is VerdictKind.FALSIFIED
    assert v.counterexample.shrunk == (400, 300)


def test_shrink_failure_reaches_local_minimum_directly():
    p = prop(int_range(0, 10_000), lambda x: x < 123)
    rng = SplitMix64(5)
    tree = random_tree(p.strategy, rng)
    while tree.current < 123:
        tree = random_tree(p.strategy, rng)
    shrunk, incomplete = shrink_failure(p, tree)
    assert shrunk.current == 123
    assert incomplete is False


def test_shrink_failure_stops_at_expired_ticker():
    p = prop(int_range(0, 10_000), lambda x: x < 123)
    rng = SplitMix64(5)
    tree = random_tree(p.strategy, rng)
    while tree.current < 123:
        tree = random_tree(p.strategy, rng)
    expired = Ticker(deadline=time.monotonic() - 1.0)
    expired.count = 1023  # the next tick crosses a poll boundary
    shrunk, incomplete = shrink_failure(p, tree, expired)
    assert incomplete is True
    assert shrunk.current == tree.current  # best so far: nothing moved yet


def test_interrupted_shrink_is_flagged_in_the_verdict(monkeypatch):
    monkeypatch.setattr("tricheck.harness.POLL_INTERVAL", 4)
    now = 0.0
    monkeypatch.setattr("tricheck.harness.time", types.SimpleNamespace(monotonic=lambda: now))
    failed_once = False

    def predicate(x):
        nonlocal failed_once, now
        if x >= 5000:
            if failed_once:
                now = 2.0  # the deadline passes mid-shrink
            failed_once = True
            return False
        return True

    p = prop(int_range(0, 65535), predicate)
    v = run_fuzz(p, RunConfig(seed=3, cases=256), deadline=1.0)
    assert v.kind is VerdictKind.FALSIFIED
    assert v.counterexample.shrink_incomplete is True
    assert v.counterexample.shrunk >= 5000  # descent was cut short


#: predicate calls made after the first failure, for each corpus property
#: that fuzz falsifies at seed 7 with 512 cases: a count, so that a shrinker
#: that does more work fails here while timings stay informational
CORPUS_SHRINK_EVALS = {"list.no_triples": 17, "rem.total": 0, "threshold.wide": 56}


def test_corpus_shrink_costs_are_pinned():
    evals = {}
    for p in REGISTRY:
        calls = 0

        def counted(*args, predicate=p.predicate):
            nonlocal calls
            calls += 1
            return predicate(*args)

        v = run_fuzz(prop(p.strategy, counted, p.name), RunConfig(seed=7, cases=512))
        if v.kind is VerdictKind.FALSIFIED:
            evals[p.name] = calls - (v.counterexample.case_index + 1)
    assert evals == CORPUS_SHRINK_EVALS


# --------------------------------------------------------------------------
# filter budgets

def test_hopeless_filter_yields_filter_exhausted():
    s = int_range(0, 50).filter("negative", lambda x: x < 0)
    p = prop(s, lambda x: True)
    v = run_fuzz(p, RunConfig(seed=0, cases=16))
    assert v.kind is VerdictKind.UNKNOWN
    assert v.reason is UnknownReason.FILTER_EXHAUSTED
    assert "negative" in v.detail


def test_run_wide_budget_is_total_across_cases():
    # accepts 1 draw in 32: each case needs ~32 retries (well under the
    # per-value 100), but 4 cases only get 40 retries *in total*
    s = int_range(0, 31).filter("one", lambda x: x == 0)
    p = prop(s, lambda x: True)
    v = run_fuzz(p, RunConfig(seed=0, cases=4))
    assert v.kind is VerdictKind.UNKNOWN
    assert v.reason is UnknownReason.FILTER_EXHAUSTED
    assert "run-wide" in v.detail
    assert v.cases == 1  # one case completed before the budget drained


# --------------------------------------------------------------------------
# deadlines

def test_expired_deadline_times_out_with_progress_count(monkeypatch):
    monkeypatch.setattr("tricheck.harness.POLL_INTERVAL", 4)
    p = prop(int_range(0, 100), lambda x: True)
    v = run_fuzz(p, RunConfig(seed=0, cases=50), deadline=time.monotonic() - 1.0)
    assert v.kind is VerdictKind.UNKNOWN
    assert v.reason is UnknownReason.TIMEOUT
    assert v.cases == 4  # the deadline check fires after the fourth evaluation


def test_preset_stop_is_honored_within_1024_evaluations():
    p = prop(int_range(0, 100), lambda x: True)
    v = run_fuzz(p, RunConfig(seed=0, cases=5000), deadline=time.monotonic() - 1.0)
    assert v.kind is VerdictKind.UNKNOWN
    assert v.reason is UnknownReason.TIMEOUT
    assert v.cases == 1024


# --------------------------------------------------------------------------
# predicate aborts count as failures with a message

def test_crashing_predicate_is_a_failure_with_message():
    def predicate(x):
        if x >= 1000:
            raise ValueError("boom at large x")
        return True

    p = prop(int_range(0, 65535), predicate)
    v = run_fuzz(p, RunConfig(seed=42, cases=128))
    assert v.kind is VerdictKind.FALSIFIED
    assert v.counterexample.shrunk == 1000
    assert "ValueError" in v.counterexample.message
    assert "boom at large x" in v.counterexample.message
