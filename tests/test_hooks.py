"""The per-unit entry points the benchmark counts work through.

``bench/tracing.py`` counts ``harness.evals``, ``exhaustive.values`` and
``prng.u64`` by wrapping ``eval_predicate`` as bound in the fuzz and
exhaustive modules, ``exhaustive.iter_trees`` and ``SplitMix64.next_u64``.
``exhaustive.iter_trees`` names the walk, ``strategies.walk``, which
yields one value per enumerated value, not a tree.  A backend loop that
inlines one of them would silently zero that counter, so these tests hold
every loop to one call per unit of work.
"""

import contextlib
from collections import Counter

import pytest

import tricheck.exhaustive as exhaustive
import tricheck.fuzz as fuzz
import tricheck.strategies as st
from test_enumeration import DRAWN_ZOO
from tricheck.corpus import build_registry
from tricheck.harness import Property, RunConfig
from tricheck.patterns import pattern
from tricheck.prng import _GOLDEN, _MASK64, SplitMix64
from tricheck.results import VerdictKind
from tricheck.strategies import (enumerate_values, int_range, just, list_of, one_of,
                                 optional_of, ordered_map_of, random_tree, tuple_of)
from tricheck.symbolic import run_symbolic

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
    walk = exhaustive.iter_trees

    def counted_walk(*args):
        for value in walk(*args):
            n["next"] += 1
            yield value

    monkeypatch.setattr(exhaustive, "iter_trees", counted_walk)
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
    """A walk with a filter in it and one with none take one step and one
    evaluation per value."""
    v = exhaustive.run_exhaustive(Property("t", strategy, lambda *a: True), RunConfig())
    assert v.kind is VerdictKind.PROVED
    assert v.cases == accepted
    assert calls["evals"] == v.cases, HOOK.format("evaluation")
    assert calls["next"] == v.cases, HOOK.format("enumerated value")
    assert calls["u64"] == 0


def test_the_fuzz_draw_is_written_on_first_use_and_draws_through_the_live_hook(monkeypatch):
    """Set-up writes no draw: building strategies, sizing them, enumerating,
    recording a draw, and the exhaustive and symbolic backends never do.  The
    first fuzz run over a strategy writes its draw once and a later run
    reuses it, drawing every word through the ``next_u64`` patched in then,
    as ``bench/tracing.py`` counts ``prng.u64``."""
    written = []

    class Writer(st._DrawWriter):
        def __init__(self):
            written.append(1)
            super().__init__()

    monkeypatch.setattr(st, "_DrawWriter", Writer)
    fresh = [p.strategy for p in build_registry()] + [
        tuple_of(list_of(int_range(0, 9).map(abs), 0, 3), just("a"),
                 one_of(ordered_map_of(int_range(0, 9).filter("odd", lambda x: x % 2),
                                       int_range(0, 9), 0, 3),
                        optional_of(int_range(0, 9))),
                 pattern("[ab]{0,2}c?"))]
    for s in fresh + list(DRAWN_ZOO.values()):
        s.cardinality()
        for interpret in (lambda: list(enumerate_values(s, budget=20)),
                          lambda: random_tree(s, SplitMix64(1), 100)):
            with contextlib.suppress(Exception):  # zoo maps raise, zoo filters run dry
                interpret()
    for s in fresh:
        p = Property("p", s, lambda *a: False)
        exhaustive.run_exhaustive(p, RunConfig(backend="exhaustive"))
        run_symbolic(p, RunConfig(backend="symbolic"))
    assert written == [], "a draw was written before any fuzz run"

    s, seed, cases = fresh[-1], 3, 200
    p = Property("p", s, lambda *a: True)
    fuzz.run_fuzz(p, RunConfig(seed=seed, cases=cases))
    assert len(written) == 1
    ctx = st._GenContext(SplitMix64(seed))
    for _ in range(cases):
        s._draw(ctx)
    words = (ctx.rng.state - seed) * pow(_GOLDEN, -1, 1 << 64) & _MASK64
    n = Counter()

    def counted(rng):
        n["u64"] += 1
        return next_u64(rng)

    next_u64 = SplitMix64.next_u64
    monkeypatch.setattr(SplitMix64, "next_u64", counted)
    v = fuzz.run_fuzz(p, RunConfig(seed=seed, cases=cases))
    assert v.kind is VerdictKind.PASS_SAMPLED
    assert len(written) == 1, "a second run wrote its draw again"
    assert n["u64"] == words > cases, HOOK.format("PRNG word")
