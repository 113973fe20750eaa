"""The per-unit entry points the benchmark counts work through.

``bench/tracing.py`` counts ``harness.evals``, ``exhaustive.values`` and
``prng.u64`` by wrapping ``eval_predicate`` as bound in the fuzz and
exhaustive modules, ``exhaustive.iter_trees`` and ``SplitMix64.next_u64``.
A backend loop that inlines one of them would silently zero that counter,
so these tests hold every loop to one call per unit of work.
"""

from collections import Counter

import pytest

import tricheck.exhaustive as exhaustive
import tricheck.fuzz as fuzz
from tricheck.harness import Property, RunConfig
from tricheck.prng import _GOLDEN, _MASK64, SplitMix64
from tricheck.results import VerdictKind
from tricheck.strategies import int_range, just, list_of, one_of, tuple_of

HOOK = "bench/tracing.py counts this through the hook; the loop must call it once per {}"


@pytest.fixture
def calls(monkeypatch):
    """Counts of calls through each hook, by name."""
    n: Counter = Counter()

    def counting(name, fn):
        def wrapped(*args, **kw):
            n[name] += 1
            return fn(*args, **kw)
        return wrapped

    for module in (fuzz, exhaustive):
        monkeypatch.setattr(module, "eval_predicate",
                            counting("evals", module.eval_predicate))
    monkeypatch.setattr(SplitMix64, "next_u64", counting("u64", SplitMix64.next_u64))
    iter_trees = exhaustive.iter_trees

    def counted_trees(*args):
        for tree in iter_trees(*args):
            n["next"] += 1
            yield tree

    monkeypatch.setattr(exhaustive, "iter_trees", counted_trees)
    return n


def _words_drawn(seed: int, lo: int, hi: int, draws: int) -> int:
    """PRNG words that ``draws`` calls of ``uniform_in(lo, hi)`` consume,
    read from how far the state moved: each word adds the golden gamma."""
    rng = SplitMix64(seed)
    for _ in range(draws):
        rng.uniform_in(lo, hi)
    return (rng.state - seed) * pow(_GOLDEN, -1, 1 << 64) & _MASK64


def test_fuzz_calls_every_hook_once_per_unit(calls):
    seed, cases = 11, 500
    p = Property("t", int_range(0, 999), lambda x: True)
    v = fuzz.run_fuzz(p, RunConfig(seed=seed, cases=cases))
    assert v.kind is VerdictKind.PASS_SAMPLED
    seen = dict(calls)
    words = _words_drawn(seed, 0, 999, cases)
    assert words > cases  # 0..999 under a 1023 mask rejects some words
    assert seen.get("evals") == v.cases, HOOK.format("evaluation")
    assert seen.get("u64") == words, HOOK.format("PRNG word")


def test_exhaustive_calls_every_hook_once_per_unit(calls):
    p = Property("t", tuple_of(int_range(0, 9), int_range(-4, 4)), lambda a, b: a * b < 100)
    v = exhaustive.run_exhaustive(p, RunConfig())
    assert v.kind is VerdictKind.PROVED
    assert v.cases == 90
    assert calls["evals"] == v.cases, HOOK.format("evaluation")
    assert calls["next"] == v.cases, HOOK.format("enumerated value")
    assert calls["u64"] == 0


@pytest.mark.parametrize("strategy, accepted", [
    (tuple_of(int_range(0, 9).filter("odd", lambda x: x % 2), int_range(0, 3)), 20),
    (list_of(one_of(int_range(0, 2), just(None)), 0, 3), 1 + 4 + 16 + 64),
], ids=["filtered", "skip_free_list_of_one_of"])
def test_exhaustive_calls_every_hook_once_per_accepted_value(calls, strategy, accepted):
    """Both walks, the one that skips rejected positions and the chained one
    with nothing to skip, take one step and one evaluation per value."""
    v = exhaustive.run_exhaustive(Property("t", strategy, lambda *a: True), RunConfig())
    assert v.kind is VerdictKind.PROVED
    assert v.cases == accepted
    assert calls["evals"] == v.cases, HOOK.format("evaluation")
    assert calls["next"] == v.cases, HOOK.format("enumerated value")
    assert calls["u64"] == 0
