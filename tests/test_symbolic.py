"""Symbolic backend: interval arithmetic, three-valued truth, carrier
recording, branch-and-prune, and the driver's verdict mapping."""

import enum
import itertools
import operator
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import tricheck.symbolic as sym
from tricheck.corpus import REGISTRY
from tricheck.harness import POLL_INTERVAL, Property, RunConfig, Ticker
from tricheck.patterns import pattern
from tricheck.prng import SplitMix64
from tricheck.results import UnknownReason, VerdictKind
from tricheck.strategies import (Strategy, int_range, just, list_of, one_of,
                                 optional_of, ordered_map_of, tuple_of)
from tricheck.symbolic import (
    Add,
    And,
    BoolConst,
    Box,
    Cmp,
    Const,
    Div,
    DivMaybeZero,
    EvalError,
    Interval,
    Mul,
    Neg,
    Not,
    Or,
    Rem,
    Sub,
    SymExpr,
    SymbolicCoercion,
    Truth3,
    Var,
    branch_and_prune,
    concrete_eval,
    concrete_truth,
    interval_eval,
    run_symbolic,
    symbolize,
    tdiv,
    trem,
    truth_eval,
)

from _oracles import (branch_and_prune_oracle, concrete_oracle, interval_oracle,
                      tdiv_oracle, trem_oracle, truth_oracle)
from test_acceptance import _SMALL_INTERVALS, _gen_expr

X, Y = Var(0), Var(1)


def box(*ivs) -> Box:
    return {i: Interval(lo, hi) for i, (lo, hi) in enumerate(ivs)}


# --------------------------------------------------------------------------
# trunc-toward-zero division helpers

@settings(max_examples=300, deadline=None)
@given(hst.integers(-10**12, 10**12), hst.integers(-10**6, 10**6).filter(lambda b: b != 0))
def test_tdiv_trem_match_reference(a, b):
    q, r = tdiv(a, b), trem(a, b)
    assert q == tdiv_oracle(a, b)
    assert r == trem_oracle(a, b)
    assert q * b + r == a            # recomposition
    assert abs(r) < abs(b)           # remainder is smaller than the divisor
    assert r == 0 or (r < 0) == (a < 0)  # sign follows the dividend


def test_tdiv_truncates_toward_zero_unlike_floor():
    assert tdiv(-7, 2) == -3         # floor would give -4
    assert tdiv(7, -2) == -3
    assert trem(-7, 2) == -1         # floor-mod would give 1
    assert trem(7, -2) == 1


class _Step(enum.IntEnum):
    BACK = -3
    NONE = 0
    ON = 5


def test_tdiv_trem_agree_on_plain_ints_bools_and_int_enums():
    """Two plain ints take an inline path, a bool or an IntEnum the general
    one: both agree with ``_tq``, and a zero divisor raises on both."""
    for a in [*range(-20, 21), True, False, *_Step]:
        for b in [*range(-8, 0), *range(1, 9), True, _Step.BACK, _Step.ON]:
            q = sym._tq(a, b)
            assert (tdiv(a, b), trem(a, b)) == (q, a - b * q), (a, b)
    for a, b in ((7, 0), (-7, 0), (7, False), (True, 0), (-4, _Step.NONE)):
        for divide in (tdiv, trem):
            with pytest.raises(ZeroDivisionError):
                divide(a, b)


def test_tdiv_on_carriers_builds_nodes():
    node = tdiv(X, 3)
    assert concrete_eval(node, {0: -7}) == -2
    node = trem(10, X)
    assert concrete_eval(node, {0: 4}) == 2


# --------------------------------------------------------------------------
# interval evaluation

def test_interval_add_sub_neg():
    b = box((1, 3), (-2, 5))
    assert interval_eval(X + Y, b) == Interval(-1, 8)
    assert interval_eval(X - Y, b) == Interval(-4, 5)
    assert interval_eval(-X, b) == Interval(-3, -1)
    assert interval_eval(X + 10, b) == Interval(11, 13)


def test_interval_mul_takes_extreme_products():
    b = box((-2, 3), (-5, 4))
    assert interval_eval(X * Y, b) == Interval(-15, 12)
    assert interval_eval(X * X, b) == Interval(-6, 9)  # dependency is not tracked


def test_interval_div_uses_endpoint_quotients():
    assert interval_eval(tdiv(X, Y), box((10, 20), (2, 5))) == Interval(2, 10)
    assert interval_eval(tdiv(X, Y), box((-20, -10), (2, 5))) == Interval(-10, -2)
    assert interval_eval(tdiv(X, Y), box((10, 20), (-5, -2))) == Interval(-10, -2)


def test_interval_div_straddling_zero_raises():
    with pytest.raises(DivMaybeZero):
        interval_eval(tdiv(X, Y), box((1, 4), (-1, 1)))


def test_interval_rem_singleton_is_exact():
    assert interval_eval(trem(X, Y), box((-7, -7), (2, 2))) == Interval(-1, -1)


def test_interval_rem_sign_follows_dividend():
    assert interval_eval(trem(X, Y), box((0, 100), (3, 3))) == Interval(0, 2)
    assert interval_eval(trem(X, Y), box((-100, 0), (3, 3))) == Interval(-2, 0)
    mixed = interval_eval(trem(X, Y), box((-100, 100), (1, 10)))
    assert mixed == Interval(-9, 9)


def test_interval_rem_clips_to_dividend_magnitude():
    assert interval_eval(trem(X, Y), box((0, 2), (100, 100))) == Interval(0, 2)


@settings(max_examples=300, deadline=None)
@given(hst.data())
def test_interval_eval_is_sound_on_samples(data):
    lo1 = data.draw(hst.integers(-50, 50))
    hi1 = data.draw(hst.integers(lo1, 51))
    lo2 = data.draw(hst.integers(1, 30))
    hi2 = data.draw(hst.integers(lo2, 31))
    b = {0: Interval(lo1, hi1), 1: Interval(lo2, hi2)}
    exprs = [X + Y, X - Y, X * Y, -X, tdiv(X, Y), trem(X, Y), X * Y - tdiv(X, Y)]
    e = exprs[data.draw(hst.integers(0, len(exprs) - 1))]
    iv = interval_eval(e, b)
    x = data.draw(hst.integers(lo1, hi1))
    y = data.draw(hst.integers(lo2, hi2))
    assert iv.contains(concrete_eval(e, {0: x, 1: y}))


# --------------------------------------------------------------------------
# three-valued truth

def test_truth_comparisons_separate_or_stay_maybe():
    b = box((0, 10), (20, 30))
    assert truth_eval(X < Y, b) is Truth3.TRUE
    assert truth_eval(X > Y, b) is Truth3.FALSE
    assert truth_eval(Y <= X, b) is Truth3.FALSE
    assert truth_eval(Y >= X, b) is Truth3.TRUE
    overlapping = box((0, 10), (5, 15))
    assert truth_eval(X < Y, overlapping) is Truth3.MAYBE


def test_truth_le_boundary_counts_as_true():
    b = box((0, 5), (5, 9))
    assert truth_eval(X <= Y, b) is Truth3.TRUE
    assert truth_eval(X < Y, b) is Truth3.MAYBE  # x = y = 5 is possible


def test_truth_eq_needs_points():
    assert truth_eval(X == Y, box((3, 3), (3, 3))) is Truth3.TRUE
    assert truth_eval(X == Y, box((3, 3), (4, 4))) is Truth3.FALSE
    assert truth_eval(X == Y, box((3, 4), (3, 4))) is Truth3.MAYBE
    assert truth_eval(X == Y, box((0, 2), (5, 9))) is Truth3.FALSE


def test_truth_ne_mirrors_eq():
    assert truth_eval(X != Y, box((0, 2), (5, 9))) is Truth3.TRUE
    assert truth_eval(X != Y, box((3, 3), (3, 3))) is Truth3.FALSE
    assert truth_eval(X != Y, box((3, 4), (3, 4))) is Truth3.MAYBE


def test_truth_kleene_connectives():
    b = box((0, 10), (5, 15))
    t = X >= 0      # TRUE on the box
    f = X < 0       # FALSE
    m = X < Y       # MAYBE
    assert truth_eval(And(t, m), b) is Truth3.MAYBE
    assert truth_eval(And(f, m), b) is Truth3.FALSE
    assert truth_eval(Or(t, m), b) is Truth3.TRUE
    assert truth_eval(Or(f, m), b) is Truth3.MAYBE
    assert truth_eval(Not(m), b) is Truth3.MAYBE
    assert truth_eval(Not(f), b) is Truth3.TRUE
    assert truth_eval(BoolConst(True), b) is Truth3.TRUE


def test_formula_operators_build_nodes():
    formula = (X >= 0) & (X <= 10) | ~(Y == 0)
    assert isinstance(formula, Or)
    assert concrete_truth(formula, {0: 5, 1: 0}) is True
    assert concrete_truth(formula, {0: -1, 1: 0}) is False
    assert concrete_truth(formula, {0: -1, 1: 3}) is True


# --------------------------------------------------------------------------
# coercion traps

def test_native_bool_on_expression_raises():
    with pytest.raises(SymbolicCoercion):
        bool(X)
    with pytest.raises(SymbolicCoercion):
        if X:  # pragma: no cover - the test is that we never get here
            pass


def test_chained_comparison_raises():
    with pytest.raises(SymbolicCoercion):
        0 <= X <= 10  # noqa: B015 - chaining forces a native bool


def test_native_branch_on_formula_raises():
    with pytest.raises(SymbolicCoercion):
        bool(X < 3)
    with pytest.raises(SymbolicCoercion):
        (X < 3) and True  # noqa: B015


def test_numeric_coercions_raise():
    for fn in (int, float, len, list):
        with pytest.raises(SymbolicCoercion):
            fn(X)


def test_expressions_are_unhashable():
    with pytest.raises(TypeError):
        {X: 1}


# --------------------------------------------------------------------------
# symbolize

def test_symbolize_int_range_is_one_var():
    alts = symbolize(int_range(-5, 9))
    assert len(alts) == 1
    (alt,) = alts
    assert isinstance(alt.carrier, Var)
    assert alt.box == {alt.carrier.vid: Interval(-5, 9)}
    assert alt.hypothesis is None


def test_symbolize_one_of_concatenates_branches():
    alts = symbolize(one_of(int_range(0, 4), int_range(10, 14)))
    assert len(alts) == 2
    assert [next(iter(a.box.values())) for a in alts] == [Interval(0, 4),
                                                          Interval(10, 14)]


def test_symbolize_tuple_crosses_components():
    alts = symbolize(tuple_of(int_range(0, 1), one_of(just(5), int_range(7, 8))))
    assert len(alts) == 2
    for alt in alts:
        assert isinstance(alt.carrier, tuple) and len(alt.carrier) == 2

    s = tuple_of(one_of(just(1), int_range(2, 3)), int_range(0, 1).map(lambda v: v * 2))
    first, second = symbolize(s)  # in the order of the first component's branches
    assert repr(first.carrier) == "(1, (v1 * 2))"
    assert first.box == {1: Interval(0, 1)}
    assert repr(second.carrier) == "(v0, (v1 * 2))"
    assert second.box == {0: Interval(2, 3), 1: Interval(0, 1)}


def test_symbolize_filter_becomes_hypothesis():
    s = int_range(0, 100).filter("big", lambda x: x >= 50)
    (alt,) = symbolize(s)
    assert isinstance(alt.hypothesis, Cmp)
    (alt,) = symbolize(int_range(0, 9).filter("all", lambda x: True))
    assert isinstance(alt.hypothesis, BoolConst) and alt.hypothesis.value is True


def test_symbolize_map_rewrites_the_carrier():
    (alt,) = symbolize(int_range(0, 9).map(lambda x: x * 10 + 1))
    assert concrete_eval(alt.carrier, {next(iter(alt.box)): 3}) == 31
    (alt,) = symbolize(int_range(0, 9).map(lambda x: (x, x + 1)))
    assert isinstance(alt.carrier, tuple)
    assert [concrete_eval(c, {next(iter(alt.box)): 3}) for c in alt.carrier] == [3, 4]


def test_symbolize_rejects_container_and_string_domains():
    assert symbolize(list_of(int_range(0, 1), 0, 2)) is None
    assert symbolize(optional_of(int_range(0, 1))) is None
    assert symbolize(just("text")) is None
    assert symbolize(tuple_of(int_range(0, 1), just("s"))) is None
    assert symbolize(just((1, 2))) is None
    assert symbolize(ordered_map_of(int_range(0, 3), int_range(0, 1), 0, 2)) is None
    assert symbolize(pattern("ab")) is None


def test_symbolize_rejects_opaque_transforms():
    assert symbolize(int_range(-5, 5).map(abs)) is None
    assert symbolize(int_range(0, 9).filter("even", lambda x: x % 2 == 0)) is None
    assert symbolize(int_range(0, 9).filter("none", lambda x: None)) is None
    assert symbolize(int_range(0, 9).filter("raises", lambda x: 1 // 0)) is None
    assert symbolize(int_range(0, 9).map(lambda x: True)) is None
    # a carrier cannot take the branch an int would
    assert symbolize(int_range(0, 9).filter("is_int", lambda x: isinstance(x, int))) is None
    assert symbolize(int_range(0, 9).map(lambda x: x if isinstance(x, int) else 0)) is None


# --------------------------------------------------------------------------
# branch and prune

def test_prune_proves_true_root_without_splitting():
    r = X * Y
    formula = (Const(1) <= r) & (r <= Const(10**6))
    out = branch_and_prune(formula, box((1, 1000), (1, 1000)))
    assert out.status == "proved"
    assert out.splits == 0
    assert out.boxes == 1


def test_prune_finds_the_single_failing_corner():
    r = X * Y
    formula = (Const(1) <= r) & (r < Const(10**6))
    out = branch_and_prune(formula, box((1, 1000), (1, 1000)))
    assert out.status == "witness"
    assert out.witness == {0: 1000, 1: 1000}
    assert out.splits > 0


def test_prune_witness_is_concretely_failing():
    formula = X < Const(50_000)
    out = branch_and_prune(formula, box((0, 65535)))
    assert out.status == "witness"
    assert not concrete_truth(formula, out.witness)


def test_prune_budget_exhaustion_is_undecided():
    # x*x vs x spans MAYBE forever on a wide box when the budget is tiny
    formula = (X * X) >= X
    out = branch_and_prune(formula, box((-1000, 1000)), budget=3)
    assert out.status in ("undecided", "proved")  # tiny budgets may still finish
    if out.status == "undecided":
        assert "budget" in out.note


def test_the_budget_and_the_deadline_end_the_search():
    """No point is probed past the budget: a box that almost every point
    refutes, given one unit, is undecided, and a corpus run's symbolic
    verdicts are the same at any seed."""
    out = branch_and_prune(X < Const(-10**6), box((-2**40, 2**40)), budget=1)
    assert (out.status, out.witness, out.boxes, out.splits, out.note) == (
        "undecided", None, 1, 1, "box budget 1 exhausted; 2 boxes left, "
        f"widest v0 in [{-2**40}, 0]")

    def verdicts(seed):
        return [(v.kind, v.reason, v.detail, v.cases, v.splits,
                 v.counterexample and v.counterexample.original)
                for v in (run_symbolic(p, RunConfig(seed=seed)) for p in REGISTRY)]
    assert verdicts(0) == verdicts(1)


def test_prune_division_straddling_zero_is_unsupported():
    formula = tdiv(Const(10), X) >= Const(0)
    out = branch_and_prune(formula, box((-5, 5)))
    assert out.status == "unsupported"
    # in a filter hypothesis the driver gives up before any box is searched
    v = run(int_range(-5, 5).filter("d", lambda a: tdiv(10, a) > 0), lambda a: a > 0)
    assert v.describe().startswith("unknown: unsupported (divisor interval contains zero at ")
    assert v.cases == 0
    # in a map, the witness found is a point where the real map divides by
    # zero as the strategy draws it: the detail names the map's line
    shift = lambda a: (a, tdiv(6, a))  # noqa: E731
    v = run(int_range(-3, 3).map(shift), lambda t: t[0] != 0)
    assert v.describe() == (
        "unknown: unsupported (witness value aborts during evaluation: ZeroDivisionError: "
        f"integer division or modulo by zero at test_symbolic.py:{shift.__code__.co_firstlineno})")


def test_a_point_box_always_decides():
    """Interval arithmetic is exact at a single point, so branch_and_prune
    never has to split, or decide concretely, a point box left MAYBE."""
    rng = SplitMix64(8)
    decided = refused = 0
    for _ in range(4000):
        nvars = rng.uniform_in(1, 3)
        formula = _gen_formula(rng, rng.uniform_in(0, 3), nvars)
        point = {v: rng.uniform_in(-30, 30) for v in range(nvars)}
        try:
            truth = truth_eval(formula, {v: Interval(x, x) for v, x in point.items()})
        except DivMaybeZero:
            refused += 1  # a zero divisor at the point
            continue
        assert truth is not Truth3.MAYBE, (formula, point)
        assert (truth is Truth3.TRUE) == concrete_truth(formula, point), (formula, point)
        decided += 1
    assert decided > 3000 and refused > 0


# --------------------------------------------------------------------------
# the driver

def run(strategy, predicate, **cfg):
    p = Property(name="t", strategy=strategy, predicate=predicate)
    return run_symbolic(p, RunConfig(**cfg))


def test_driver_proves_the_in_range_product():
    v = run(tuple_of(int_range(1, 1000), int_range(1, 1000)),
            lambda a, b: (1 <= a * b) & (a * b <= 10**6))
    assert v.kind is VerdictKind.PROVED
    assert v.method == "symbolic"
    assert v.splits == 0
    assert v.backend == "symbolic"


def test_driver_refutes_the_strict_product_at_the_corner():
    v = run(tuple_of(int_range(1, 1000), int_range(1, 1000)),
            lambda a, b: (1 <= a * b) & (a * b < 10**6))
    assert v.kind is VerdictKind.FALSIFIED
    assert v.counterexample.original == (1000, 1000)
    assert v.counterexample.shrunk == (1000, 1000)  # witnesses are not shrunk
    assert v.counterexample.seed is None


def test_driver_checks_every_alternative():
    s = one_of(int_range(0, 10), int_range(90, 100))
    v = run(s, lambda x: x <= 100)
    assert v.kind is VerdictKind.PROVED
    v = run(s, lambda x: x <= 10)  # second branch refutes
    assert v.kind is VerdictKind.FALSIFIED
    assert 90 <= v.counterexample.original <= 100


def test_driver_weakens_goal_by_filter_hypothesis():
    s = int_range(0, 100).filter("small", lambda x: x <= 10)
    v = run(s, lambda x: x <= 10)
    assert v.kind is VerdictKind.PROVED


def test_driver_flags_vacuous_hypothesis():
    s = int_range(0, 50).filter("negative", lambda x: x < 0)
    v = run(s, lambda x: x >= 0)
    assert v.kind is VerdictKind.PROVED
    assert v.vacuity_warning is True


def test_driver_native_branch_is_unsupported():
    v = run(int_range(0, 10), lambda x: max(x, 0) == x)
    assert v.kind is VerdictKind.UNKNOWN
    assert v.reason is UnknownReason.UNSUPPORTED


def test_driver_container_domain_is_unsupported():
    v = run(list_of(int_range(0, 1), 0, 2), lambda xs: True)
    assert v.kind is VerdictKind.UNKNOWN
    assert v.reason is UnknownReason.UNSUPPORTED
    assert "not expressible" in v.detail


@pytest.mark.parametrize("strategy,node", [
    (list_of(int_range(0, 1), 0, 2), "list_of(int_range(0, 1, i64), 0, 2)"),
    (ordered_map_of(int_range(0, 5), int_range(0, 0), 1, 2),
     "ordered_map_of(int_range(0, 5, i64), int_range(0, 0, i64), 1, 2)"),
    (tuple_of(int_range(0, 9), pattern("[ab]{2}")), "pattern('[ab]{2}')"),
    (one_of(int_range(0, 9), just(None)), "just(None)"),
    (list_of(tuple_of(*[int_range(0, 1)] * 1000), 0, 2),
     "list_of(tuple_of(" + "int_range(0, 1, i64), " * 2 + "int_range(0, 1, i6…"),
    (tuple_of(int_range(0, 9).map(lambda x: True), int_range(0, 1)),
     "int_range(0, 9, i64).map(<lambda>)"),
    (int_range(0, 9).filter("none", lambda x: None), "int_range(0, 9, i64).filter('none')"),
], ids=["list", "ordered_map", "pattern", "just", "long", "map_result", "filter_result"])
def test_an_inexpressible_node_is_named_in_the_detail(strategy, node):
    """The detail names the node that has no carrier, not the whole domain,
    and cuts a name longer than 80 characters; a map or filter whose result
    has no carrier is that node."""
    v = run(strategy, lambda x: True)
    assert v.reason is UnknownReason.UNSUPPORTED
    assert v.detail == f"strategy {node} is not expressible over the symbolic carrier"


class Dice(Strategy):
    """A user strategy with nothing but a ``_draw``."""

    def _draw(self, ctx):
        return ctx.choice(1, 6)


def test_a_user_node_is_named_by_its_class():
    """A user node's default repr holds its memory address, so two runs
    would report different details; its class names it instead."""
    details = {run(tuple_of(int_range(0, 9), Dice()), lambda x: True).detail for _ in range(2)}
    assert details == {"strategy Dice is not expressible over the symbolic carrier"}


@pytest.mark.parametrize("name, detail, line", [
    ("clamp.idem", "predicate not symbolically evaluable: symbolic boolean used in a"
     " native branch; use &, |, ~", "return min(max(x, 0), 100)"),
    ("max.dominates", "predicate not symbolically evaluable: symbolic boolean used in a"
     " native branch; use &, |, ~", "m = a if a > b else b"),
    ("rem.abs_bound", "predicate not symbolically evaluable: bad operand type for abs():"
     " 'Rem'", "return abs(trem(a, b)) < abs(b)"),
    ("rem.total", "divisor interval contains zero", "lambda x: trem(10, x) >= 0,"),
])
def test_an_unsupported_corpus_detail_names_the_harness_line(name, detail, line):
    """A raise in user code names the innermost line outside the symbolic
    module that it came through, as a division that may be by zero does."""
    source = Path(REGISTRY.get(name).predicate.__code__.co_filename).read_text()
    number = next(i for i, text in enumerate(source.splitlines(), 1)
                  if text.strip().startswith(line))
    v = run_symbolic(REGISTRY.get(name), RunConfig())
    assert v.reason is UnknownReason.UNSUPPORTED
    assert v.detail == f"{detail} at corpus.py:{number}"


@pytest.mark.parametrize("n", [600, 900])
def test_a_deep_falsified_formula_is_falsified(n):
    """A sum of n copies of one variable nests n deep: the walk takes one
    frame per level, and the witness is confirmed by a loop, not by
    recursion."""
    v = run(int_range(0, 1), lambda x: sum([x] * n) >= n + 1)
    assert v.kind is VerdictKind.FALSIFIED
    assert v.counterexample.original == 0


def test_a_formula_too_deep_to_walk_is_unsupported():
    """A sum of 1000 terms nests 1000 deep; the formula walks give up on it
    instead of ending the run."""
    v = run(tuple_of(*[int_range(0, 1)] * 1000), lambda *xs: sum(xs) >= 0)
    assert v.kind is VerdictKind.UNKNOWN
    assert v.reason is UnknownReason.UNSUPPORTED
    assert v.detail == "formula nests too deeply"


@pytest.mark.parametrize("n", [20, 64, 300])
def test_a_wide_tuple_is_decided(n):
    """A leaf is one ``product`` loop and a split one push, whatever the
    box's width: CPython compiles at most 20 nested loops."""
    fields = tuple_of(*[int_range(0, 1)] * n)
    assert run(fields, lambda *xs: sum(xs) >= 0).describe() == "proved (symbolic, 1 boxes)"
    v = run(fields, lambda *xs: sum(xs) <= n - 1)
    assert v.kind is VerdictKind.FALSIFIED
    assert v.counterexample.original == (1,) * n


def test_a_proof_confirms_bare_variable_fields_without_evaluating_them(monkeypatch):
    """A proof is confirmed at up to 2n + 3 distinct points; a field that is
    a drawn int is read from each point as it is, so 300 of them evaluate
    no formula."""
    evaluated, confirmed = [], []
    evaluate = sym._evaluate

    def counted(node, *args):
        evaluated.append(node)
        return evaluate(node, *args)

    def holds(*xs):
        if not isinstance(xs[0], Var):
            confirmed.append(xs)
        return sum(xs) >= 0

    monkeypatch.setattr(sym, "_evaluate", counted)
    v = run(tuple_of(*[int_range(0, 1)] * 300), holds)
    assert v.describe() == "proved (symbolic, 1 boxes)"
    # both corners and each field at 1 (the midpoint is the low corner)
    assert (len(evaluated), len(confirmed)) == (0, 300 + 2)


def test_a_proof_confirms_mapped_fields_with_one_replay_per_point(monkeypatch):
    """A field that is a map of a drawn int is built by the real map: each
    confirmation point is one replay of the strategy's own draw, reading
    exactly the 300 choices of the template, and evaluates no formula."""
    evaluated, replays, confirmed = [], [], []
    evaluate, replay = sym._evaluate, sym.st._replay

    def counted_evaluate(node, *args):
        evaluated.append(node)
        return evaluate(node, *args)

    def counted_replay(strategy, prefix, limit=None):
        replays.append((len(prefix), limit))
        return replay(strategy, prefix, limit)

    def holds(*xs):
        if type(xs[0]) is int:
            confirmed.append(xs)
        return sum(xs) >= 0

    monkeypatch.setattr(sym, "_evaluate", counted_evaluate)
    monkeypatch.setattr(sym.st, "_replay", counted_replay)
    v = run(tuple_of(*[int_range(0, 1).map(lambda x: x + 1)] * 300), holds)
    assert v.describe() == "proved (symbolic, 1 boxes)"
    assert (len(evaluated), len(replays), len(confirmed)) == (0, 300 + 2, 300 + 2)
    assert set(replays) == {(300, 300)}
    assert confirmed[:2] == [(1,) * 300, (2,) * 300]


def test_a_value_keeps_the_constants_its_map_wrote():
    """A witness is the strategy's own draw, so an IntEnum member a map
    returns stays one, beside the int it equals."""
    v = run(int_range(0, 4).map(lambda x: (1, Color.RED, x + 1, (x + 1, x))),
            lambda t: t[3][1] < 4)
    assert v.counterexample.original == (1, 1, 5, (5, 4))
    assert [type(c) for c in v.counterexample.original[:2]] == [int, Color]


def test_a_wide_witness_inside_a_leaf_is_charged_as_point_by_point():
    """A leaf charges all its points at once and takes back those after a
    failing one.  Over 300 fields, 293 fixed and 7 free, the whole box is a
    leaf of 128 points whose point of rank 7, the first with three free
    ones, fails: one box and eight points, as the reference charges them."""
    fields = [int_range(1, 1)] * 293 + [int_range(0, 1)] * 7
    v = run(tuple_of(*fields), lambda *xs: sum(xs) != 296)
    assert (v.kind, v.cases, v.splits) == (VerdictKind.FALSIFIED, 1 + 8, 0)
    assert v.counterexample.original == (1,) * 293 + (0, 0, 0, 0, 1, 1, 1)
    formula = sum(Var(i) for i in range(300)) != 296
    b = {i: Interval(1 - (i >= 293), 1) for i in range(300)}
    for budget in (4, 9, 100):  # too small for the leaf, just enough, plenty
        out = branch_and_prune(formula, b, budget)
        assert (out.status, out.witness, out.boxes, out.splits, out.note) == (
            branch_and_prune_oracle(formula, b, budget)), budget


def test_the_kernel_source_is_linear_in_the_variables_and_nests_no_deeper():
    def source(n):
        xs = [Var(i) for i in range(n)]
        nodes, _ = sym._shape(sum(xs) >= 0, sym._FORMULA_KINDS, list(range(n)))
        return sym._KernelWriter((n, *nodes)).source

    def deepest(text):
        return max(len(line) - len(line.lstrip()) for line in text.splitlines())

    assert deepest(source(3)) == deepest(source(100))
    # a branch per variable that pushes all 2n bounds would make it 4 times longer
    assert len(source(200)) < 2.2 * len(source(100))


def test_driver_budget_exhaustion_is_undecided(monkeypatch):
    v = run(int_range(0, 2**48), lambda x: (x * x) >= x, budget=5)
    assert v.kind in (VerdictKind.UNKNOWN, VerdictKind.PROVED)
    if v.kind is VerdictKind.UNKNOWN:
        assert v.reason is UnknownReason.UNDECIDED

    # the budget can also run out between alternatives, before a search
    searches = []

    def counted(*args, **kw):
        searches.append(args)
        return branch_and_prune(*args, **kw)

    monkeypatch.setattr("tricheck.symbolic.branch_and_prune", counted)
    s = one_of(just(5), int_range(0, 9))
    v = run(s, lambda a: a != 70, budget=1)
    assert v.describe() == ("unknown: undecided (box budget 1 exhausted; "
                            "1 of 2 alternatives not searched)")
    assert (v.cases, len(searches)) == (1, 1)
    assert run(s, lambda a: a != 70, budget=2).describe() == "proved (symbolic, 2 boxes)"


def test_a_tuple_builds_only_the_alternatives_the_search_reaches(monkeypatch):
    """16 fields of two alternatives each cross into 2**16 alternatives; at
    a budget of 100 the driver reaches 101 of them, one box each and one
    past the budget, and builds no more."""
    built = []

    class Counted(sym.SymAlternative):
        def __init__(self, carrier, *rest):
            super().__init__(carrier, *rest)
            if isinstance(carrier, tuple):
                built.append(carrier)

    monkeypatch.setattr(sym, "SymAlternative", Counted)
    s = tuple_of(*[one_of(int_range(0, 1), int_range(5, 6))] * 16)
    v = run(s, lambda *xs: sum(xs) >= 0, budget=100)
    assert v.describe() == ("unknown: undecided (box budget 100 exhausted; "
                            "65436 of 65536 alternatives not searched)")
    assert len(built) == 101


def test_driver_reports_boxes_as_cases():
    v = run(int_range(0, 65535), lambda x: x < 50_000)
    assert v.kind is VerdictKind.FALSIFIED
    v2 = run(int_range(0, 100), lambda x: x >= 0)
    assert v2.kind is VerdictKind.PROVED
    assert v2.cases >= 1


def test_driver_unobserved_carrier_is_unsupported():
    for result in (None, True, False):
        v = run(int_range(0, 10), lambda x, r=result: r)
        assert v.kind is VerdictKind.UNKNOWN
        assert v.reason is UnknownReason.UNSUPPORTED
        assert v.detail == "predicate did not observe its input"
    v = run(int_range(0, 10), lambda x: x + 1)
    assert v.detail == "predicate did not yield a symbolic boolean"


def test_driver_filter_hypothesis_may_be_a_plain_bool():
    v = run(int_range(0, 10).filter("all", lambda x: True), lambda x: x >= 0)
    assert v.kind is VerdictKind.PROVED


def test_driver_confirms_a_proof_on_the_real_predicate():
    # the carrier records ``a < 100``, which holds everywhere, but every
    # concrete int takes the other branch, which fails at -5
    v = run(int_range(-5, 5), lambda a: a > 0 if type(a) is int else a < 100)
    assert v.kind is VerdictKind.UNKNOWN
    assert v.reason is UnknownReason.UNSUPPORTED
    assert "-5" in v.detail
    assert v.cases == 1  # the confirmation points are not boxes


def test_driver_confirms_only_points_that_satisfy_the_hypothesis():
    s = int_range(-5, 5).filter("positive", lambda x: x > 0)
    v = run(s, lambda a: a > 0 if type(a) is int else a < 100)
    assert v.kind is VerdictKind.PROVED


def test_driver_confirms_each_variable_at_its_bounds():
    # fails only where b is at its upper bound and a is not at a corner
    def pred(a, b):
        if type(a) is int:
            return b < 9 or a in (0, 9)
        return a + b >= 0

    v = run(tuple_of(int_range(0, 9), int_range(0, 9)), pred)
    assert v.kind is VerdictKind.UNKNOWN
    assert v.reason is UnknownReason.UNSUPPORTED
    assert "(4, 9)" in v.detail


def test_driver_type_tests_are_noted_per_thread():
    """A caller may run checks from several threads at once: a carrier's
    ``__class__`` read in one thread must not count against a predicate that
    another thread is recording at the same moment."""
    inside, done = threading.Event(), threading.Event()

    def pred(a):
        inside.set()
        done.wait(5)
        return a >= 0

    verdicts = []
    worker = threading.Thread(target=lambda: verdicts.append(run(int_range(0, 9), pred)))
    worker.start()
    assert inside.wait(5)
    assert not isinstance(Var(0), int)  # reads __class__ outside any recording
    done.set()
    worker.join(5)
    assert verdicts[0].kind is VerdictKind.PROVED


def test_driver_reports_a_raise_before_a_type_test():
    # ``&`` tries isinstance(x, SymBool) on the expression before it raises
    def pred(x):
        return (x > 0) & x

    v = run(int_range(0, 9), pred)
    assert v.detail == ("predicate not symbolically evaluable: cannot use v0 as a symbolic boolean"
                        f" at test_symbolic.py:{pred.__code__.co_firstlineno + 1}")


#: maps that send one value to 1000 by reading it as text, where a carrier
#: reads ``v0`` whatever value it stands for; each first line is its own
TEXT_READS = {
    "str": lambda x: 1000 if str(x) == "500" else x,
    "f-string": lambda x: 1000 if f"{x}" == "500" else x,
    "repr": lambda x: 1000 if repr(x) == "500" else x,
}


@pytest.mark.parametrize("name", sorted(TEXT_READS))
def test_driver_refuses_a_carrier_read_as_text(name):
    """``str`` and ``format`` raise while user code records and ``repr`` is
    noted, so each map reads Unsupported, naming its line, not proved over
    the one branch ``v0`` takes."""
    transform = TEXT_READS[name]
    v = run(int_range(0, 999).map(transform), lambda y: y <= 999)
    at = f" at test_symbolic.py:{transform.__code__.co_firstlineno}"
    assert (v.kind, v.reason) == (VerdictKind.UNKNOWN, UnknownReason.UNSUPPORTED)
    assert v.detail == ("map reads the repr of a symbolic value" + at if name == "repr" else
                        "map not symbolically evaluable: symbolic value converted to a string" + at)


def test_carriers_print_as_text_outside_a_recording():
    """Outside ``_record`` a carrier converts to its text as before, and the
    details tricheck writes while recording still print it."""
    x = Var(0)
    assert (str(x), f"{x}", repr(x), f"{x + 1!r}", f"{x < 3}") == ("v0", "v0", "v0", "(v0 + 1)",
                                                                   "(v0 < 3)")
    v = run(int_range(0, 9), lambda x: x + (x < 3))
    assert v.detail.startswith(
        "predicate not symbolically evaluable: cannot use (v0 < 3) in a symbolic expression")


# --------------------------------------------------------------------------
# deadlines: one poll cadence per run

def test_driver_polls_the_deadline_on_the_interval(monkeypatch):
    monkeypatch.setattr("tricheck.harness.POLL_INTERVAL", 4)
    p = Property("t", int_range(0, 1000), lambda x: x - x == 0)
    v = run_symbolic(p, RunConfig(), deadline=time.monotonic() - 1.0)
    assert v.kind is VerdictKind.UNKNOWN
    assert v.reason is UnknownReason.TIMEOUT
    assert v.cases == 3  # the deadline check fires before the fourth box
    # the fourth box and the upper halves of the three splits above it
    assert v.detail == "4 boxes left, widest v0 in [501, 1000]"


def test_preset_stop_is_polled_across_alternatives():
    # 200 alternatives of 13 units each (a box and a leaf of 12 points):
    # none reaches a poll on its own, so only a cadence carried across them
    # sees the expired deadline; the 79th spends the lease's last unit in
    # its leaf, where its search ends, so the 80th polls before it searches,
    # 3 units late, and its whole box is left
    s = one_of(*[int_range(12 * k, 12 * k + 11) for k in range(200)])
    p = Property("t", s, lambda x: x - x == 0)
    assert run_symbolic(p, RunConfig()).cases == 2600
    v = run_symbolic(p, RunConfig(), deadline=time.monotonic() - 1.0)
    assert v.kind is VerdictKind.UNKNOWN
    assert v.reason is UnknownReason.TIMEOUT
    assert v.cases == 79 * 13 <= POLL_INTERVAL + sym.LEAF_POINTS - 1
    assert v.detail == ("1 boxes left, widest v79 in [948, 959]; "
                        "120 of 200 alternatives not searched")


def test_a_search_that_ends_in_the_leaf_that_spends_the_lease_is_proved(monkeypatch):
    """A leaf that spends the lease's last unit and empties the work stack
    ends the search: the search is complete, so it reads proved, and the
    poll it owes comes before the next search, if there is one."""
    monkeypatch.setattr("tricheck.harness.POLL_INTERVAL", 4)
    passed = time.monotonic() - 1.0
    # a box and a leaf of 10 points: 11 units against a lease of 4
    p = Property("t", int_range(0, 9), lambda x: x - x == 0)
    assert run_symbolic(p, RunConfig(), deadline=passed).describe() == (
        "proved (symbolic, 11 boxes)")
    # the second alternative polls first, so only the first was searched
    p = Property("t", one_of(int_range(0, 9), int_range(20, 29)), lambda x: x - x == 0)
    v = run_symbolic(p, RunConfig(), deadline=passed)
    assert (v.reason, v.cases, v.detail) == (
        UnknownReason.TIMEOUT, 11, "1 boxes left, widest v1 in [20, 29]")
    assert v.cases - 4 <= sym.LEAF_POINTS - 1


def test_a_run_that_stops_names_its_budget_and_the_alternatives_left():
    """An Undecided detail names the run's budget, not the share of it left
    to the search that ran out, then what that search left, and counts the
    alternatives that were never searched (a Timeout's, in the test above)."""
    # the second of two alternatives runs out, with 1923 of the 4096 left
    v = run_symbolic(REGISTRY.get("div.recompose"), RunConfig(budget=4096))
    assert (v.reason, v.cases, v.detail) == (
        UnknownReason.UNDECIDED, 4096,
        "box budget 4096 exhausted; 6 boxes left, widest v2 in [-5, -1]")
    s = one_of(int_range(0, 10**6), int_range(0, 5), int_range(7, 9))
    v = run(s, lambda x: x - x == 0, budget=100)
    assert (v.reason, v.cases, v.detail) == (
        UnknownReason.UNDECIDED, 100, "box budget 100 exhausted; 19 boxes left, widest v0 in "
        "[500001, 1000000]; 2 of 3 alternatives not searched")


# --------------------------------------------------------------------------
# pinned work: verdict, boxes and splits of every corpus property the
# symbolic backend decides, at the default config

CORPUS_SYMBOLIC_WORK = {
    "div.recompose": ("proved", 4118, 48, None),
    "even.rebuild": ("proved", 204, 1, None),
    "filter.vacuous": ("proved", 1, 0, None),
    "multiply": ("proved", 1, 0, None),
    "multiply.strict": ("falsified", 132, 13, (1000, 1000)),
    "neg.involution": ("proved", 129, 0, None),
    "ordered.pair": ("proved", 492, 5, None),
    "rem.range": ("proved", 862, 7, None),
    "scale.range": ("proved", 6, 0, None),
    "sign.cases": ("proved", 2, 0, None),
    "square.nonneg": ("proved", 3, 1, None),
    "sub.self_zero": ("proved", 101, 0, None),
    "sum.assoc": ("proved", 4159, 31, None),
    "threshold.wide": ("falsified", 95, 9, 50000),
}


@pytest.mark.parametrize("name", sorted(CORPUS_SYMBOLIC_WORK))
def test_corpus_symbolic_work_is_pinned(name):
    v = run_symbolic(REGISTRY.get(name), RunConfig())
    witness = v.counterexample.original if v.counterexample else None
    assert (v.kind.value, v.cases, v.splits, witness) == CORPUS_SYMBOLIC_WORK[name]


def test_identity_wide_spends_its_whole_budget():
    # x == x never separates on intervals, so every box up to the budget is
    # split or, once small enough, evaluated point by point; at the default
    # budget this reads 1048576 boxes, 8121 splits
    v = run_symbolic(REGISTRY.get("identity.wide"), RunConfig(budget=4096))
    assert (v.kind, v.reason, v.cases, v.splits) == (
        VerdictKind.UNKNOWN, UnknownReason.UNDECIDED, 4096, 88)
    # the upper half of the first split, never searched, is the widest left
    assert v.detail == (f"box budget 4096 exhausted; 57 boxes left, widest v0 in "
                        f"[{2**63}, {2**64 - 1}]")


class Color(enum.IntEnum):
    NEG = -3
    RED = 1


@pytest.mark.parametrize("name, strategy, predicate, expected", [
    ("enum.shift", tuple_of(just(Color.RED), int_range(-50, 50)),
     lambda c, x: c * x + c >= -49, ("proved", 1, 0, None)),
    ("enum.square", one_of(just(Color.RED), int_range(0, 9)),
     lambda x: x * x < 50, ("falsified", 11, 0, 8)),
    ("enum.recompose", tuple_of(int_range(-20, 20), just(Color.NEG)),
     lambda x, c: tdiv(x, c) * c + trem(x, c) == x, ("proved", 42, 0, None)),
    ("enum.bounds", int_range(Color.NEG, 40).map(lambda x: x * Color.NEG),
     lambda y: y <= 9, ("proved", 1, 0, None)),
])
def test_int_subclass_constants_search_like_ints(name, strategy, predicate, expected):
    # an IntEnum member is an int whose repr is not an int literal
    v = run_symbolic(Property(name, strategy, predicate), RunConfig())
    witness = v.counterexample.original if v.counterexample else None
    assert (v.kind.value, v.cases, v.splits, witness) == expected


def test_a_constant_of_any_size_enters_the_kernel():
    # the kernel writes constants in hex, which has no digit limit; a
    # decimal literal past 4300 digits raises ValueError as it is written
    big = 10 ** 5000
    v = run_symbolic(Property("huge.bound", int_range(0, 1), lambda x: x < big), RunConfig())
    assert (v.kind, v.cases) == (VerdictKind.PROVED, 1)
    v = run_symbolic(Property("huge.product", int_range(-1, 1), lambda x: x * big > -big),
                     RunConfig())
    assert (v.kind, v.counterexample.original) == (VerdictKind.FALSIFIED, -1)


# --------------------------------------------------------------------------
# compiled closures against the reference tree walkers

OPS = ("lt", "le", "gt", "ge", "eq", "ne")


def _gen_formula(rng: SplitMix64, depth: int, nvars: int):
    kind = rng.uniform_in(0, 6 if depth > 0 else 2)
    if kind == 0:
        return BoolConst(rng.uniform_in(0, 1) == 1)
    if kind <= 3:
        return Cmp(OPS[rng.uniform_in(0, 5)], _gen_expr(rng, rng.uniform_in(0, 4), nvars),
                   _gen_expr(rng, rng.uniform_in(0, 2), nvars))
    if kind == 4:
        return Not(_gen_formula(rng, depth - 1, nvars))
    a, b = _gen_formula(rng, depth - 1, nvars), _gen_formula(rng, depth - 1, nvars)
    return And(a, b) if kind == 5 else Or(a, b)


def _gen_box(rng: SplitMix64, nvars: int, max_width: int) -> Box:
    vids = list(range(nvars))
    if rng.uniform_in(0, 1):
        vids.reverse()  # insertion order decides witness and sample order
    out = {}
    for v in vids:
        lo = rng.uniform_in(-60, 60)
        out[v] = Interval(lo, lo + rng.uniform_in(0, max_width))
    return out


def _name_divisions(node, counter) -> None:
    """Give every Div/Rem its own location, so a raise names the node that
    raised and the evaluation order shows."""
    if isinstance(node, (Div, Rem)):
        node.location = f"division {next(counter)}"
    for part in ("lhs", "rhs", "inner"):
        child = getattr(node, part, None)
        if child is not None:
            _name_divisions(child, counter)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (DivMaybeZero, EvalError) as exc:
        return type(exc).__name__, exc.location


def test_compiled_evaluation_matches_the_reference_walkers():
    rng = SplitMix64(11)
    raised = {"DivMaybeZero": 0, "EvalError": 0}
    for _ in range(4000):
        nvars = rng.uniform_in(1, 3)
        expr = _gen_expr(rng, rng.uniform_in(1, 5), nvars)
        formula = _gen_formula(rng, 3, nvars)
        _name_divisions(expr, itertools.count())
        _name_divisions(formula, itertools.count())
        b = _gen_box(rng, nvars, (3, 40)[rng.uniform_in(0, 1)])
        point = {v: rng.uniform_in(iv.lo, iv.hi) for v, iv in b.items()}

        hull = _outcome(interval_eval, expr, b)
        if isinstance(hull, Interval):
            hull = (hull.lo, hull.hi)
        assert hull == _outcome(interval_oracle, expr, b), (expr, b)
        truth = _outcome(truth_eval, formula, b)
        if isinstance(truth, Truth3):
            truth = truth.value
        assert truth == _outcome(truth_oracle, formula, b), (formula, b)
        assert _outcome(concrete_eval, expr, point) == _outcome(concrete_oracle, expr, point)
        got = _outcome(concrete_truth, formula, point)
        assert got == _outcome(concrete_oracle, formula, point), (formula, point)
        for result in (hull, truth, got):
            if isinstance(result, tuple) and isinstance(result[0], str):
                raised[result[0]] += 1
    # the zero-divisor paths are exercised too
    assert raised["DivMaybeZero"] >= 100 and raised["EvalError"] >= 30, raised


#: each rule's kind -> its value or truth at a point, from the oracles
_POINT_ORACLES = {
    Neg: operator.neg, Add: operator.add, Sub: operator.sub, Mul: operator.mul,
    Div: tdiv_oracle, Rem: trem_oracle, "lt": operator.lt, "le": operator.le,
    "gt": operator.gt, "ge": operator.ge, "eq": operator.eq, "ne": operator.ne,
}


@pytest.mark.parametrize("kind", list(_POINT_ORACLES), ids=lambda k: getattr(k, "__name__", k))
def test_every_rule_holds_on_every_small_interval(kind):
    """Each rule as a one-node formula through the search kernel, over
    every interval with bounds in [-5, 5] and every operand pair: a
    comparison is proved exactly where it holds at every point, ``node <
    max`` is refuted at a point reaching the maximum, and a divisor range
    holding zero reads unsupported.  Criterion 05 holds one-shot evaluation
    to the same rules over the same intervals."""
    fn = _POINT_ORACLES[kind]
    unary = kind is Neg
    divides = kind is Div or kind is Rem
    comparison = isinstance(kind, str)
    searched = 0
    for alo, ahi in _SMALL_INTERVALS:
        for blo, bhi in [(0, 0)] if unary else _SMALL_INTERVALS:
            node = kind(X) if unary else Cmp(kind, X, Y) if comparison else kind(X, Y, "here")
            b = {0: Interval(alo, ahi)} if unary else {0: Interval(alo, ahi), 1: Interval(blo, bhi)}
            if divides and blo <= 0 <= bhi:
                out = branch_and_prune(node < 0, b)
                assert (out.status, out.note) == ("unsupported", "divisor interval contains zero at here")
                continue
            values = [fn(x) if unary else fn(x, y)
                      for x in range(alo, ahi + 1) for y in range(blo, bhi + 1)]
            if comparison:
                out = branch_and_prune(node, b)
                assert (out.status == "proved") == all(values), (kind, b)
                if out.status == "witness":
                    assert not fn(*out.witness.values())
            else:
                top = max(values)
                out = branch_and_prune(node < top, b)
                assert out.status == "witness" and fn(*out.witness.values()) == top, (kind, b)
            searched += 1
    # 36 of the 66 intervals hold zero
    assert searched == (66 if unary else 66 * 66 - 66 * 36 * divides)


def _search_cases():
    """Inputs the random formulas rarely or never make: a node read twice
    (as ``_multiply_in_range`` reads its product), vids with holes, box
    variables the formula never reads, no variables at all, divisions that
    carry their location, and boxes a whole word wide.  Then boxes of one
    point, which the interval reading decides exactly: a zero divisor on
    the right of a connective whose left side is already TRUE, the second of
    two divisions aborting, and points at ±2^63.  Then leaves, decided point
    by point: points at ±2^63, a quotient read by two comparisons, a leaf
    whose witness is its first failing point in product order over the vids
    (not the box's insertion order), a box of LEAF_POINTS + 1 points (split
    into leaves), a box of 64 points whose second leaf does not fit a budget
    of 60 (split again), and a leaf whose divisor range holds zero.  Last,
    subterms and divisions that share a kind and a left operand but not a
    right one (``a - b``/``a - c``, ``tdiv(a, b)``/``trem(a, c)``), which
    the walk must keep apart, and a quotient two comparisons read twice."""
    x, z, w = Var(0), Var(2), Var(3)
    r = x * z
    q = Div(x, z, "shared.py:5")
    word = Interval(-2**63, 2**63 - 1)
    holes = {0: Interval(1, 1000), 2: Interval(1, 1000)}
    edges = {0: Interval(-2**63, -2**63), 2: Interval(2**63, 2**63)}
    return [
        ((1 <= r) & (r <= 10**6), holes),
        ((1 <= r) & (r < 10**6), {2: Interval(1, 1000), 0: Interval(1, 1000)}),
        (~(r > 40) | (-r < -40), {0: Interval(-9, 9), 2: Interval(-9, 9)}),
        ((x * -1 < 3) & (-1 * z <= 0), {0: Interval(-10, 10), 2: Interval(-3, 8)}),
        (x + x == 2 * x, {0: Interval(-50, 50), 2: Interval(0, 3)}),
        (x - x == 0, {7: Interval(-1, 1), 0: Interval(-9, 9), 3: Interval(0, 100)}),
        (Cmp("lt", Const(2), Const(3)), {}),
        (Cmp("ge", Const(2) * Const(-4), Const(0)), {}),
        (BoolConst(False), {}),
        (Cmp("eq", Div(Const(7), Const(0), "zero.py:1"), Const(1)), {}),
        (Div(x, z, "div.py:7") >= -x, {0: Interval(-5, 5), 2: Interval(-2, 3)}),
        ((Rem(x, z - 1, "rem.py:9") < 3) | (x > 2), {2: Interval(0, 4), 0: Interval(-20, 20)}),
        ((Div(x, Const(-3), "neg.py:2") * -3 <= x + 2) & (Rem(x, Const(7), "pos.py:3") < 7),
         {0: Interval(-40, 40)}),
        (x * x >= 0, {0: word}),
        (x + z != x + z + 1, {0: word, 2: word}),
        (x * z <= 2**124, {2: word, 0: word}),
        (Div(x, Const(1 << 62), "wide.py:4") < 2, {0: word, 2: Interval(0, 1)}),
        ((x > 2) | (Rem(x, z - 1, "point.py:6") < 3), {0: Interval(5, 5), 2: Interval(1, 1)}),
        ((x > 2) | (Rem(x, z - 1, "point.py:6") < 3), {0: Interval(5, 5), 2: Interval(2, 2)}),
        ((Div(x, z + 5, "first.py:1") < 9) & (Rem(x, z, "second.py:2") < 9),
         {0: Interval(4, 4), 2: Interval(0, 0)}),
        (Cmp("gt", -Const(5), Const(-4)), {}),
        ((Div(Const(-7), Const(2), "none.py:1") == -3) & (Rem(Const(-7), Const(2), "none.py:2")
                                                         == -1), {}),
        (Rem(Const(7), Const(0) * Const(3), "none.py:3") != 1, {}),
        ((q == -1) & (Rem(x, z, "edge.py:2") == 0) & (r < 0) & (-x == z) & (x - z < x),
         edges),
        (x + z < 1, {0: Interval(2**63 - 1, 2**63), 2: Interval(-2**63, -2**63 + 1)}),
        (x * z > -(2**126), {0: Interval(-2**63, -2**63 + 2), 2: Interval(2**63 - 2, 2**63)}),
        ((q * z <= x + 2) & (q != 7), {0: Interval(-9, 30), 2: Interval(2, 4)}),
        (((q >= 2) | (q <= 1)) & (q != 5), {0: Interval(0, 12), 2: Interval(1, 3)}),
        (x * z != -(2**126), {2: Interval(-2**63, -2**63), 0: Interval(2**63, 2**63)}),
        (x * z != 12, {2: Interval(2, 5), 0: Interval(2, 5)}),
        (x * x >= x, {0: Interval(-(sym.LEAF_POINTS // 2), sym.LEAF_POINTS // 2)}),
        (x - x == 0, {0: Interval(0, 63)}),
        (Div(Const(12), z, "leaf.py:1") != 5, {2: Interval(-2, 2)}),
        ((x - z) - (x - w) == w - z,
         {0: Interval(0, 3), 2: Interval(0, 3), 3: Interval(0, 3)}),
        ((Div(x, z, "q.py:1") <= x) & (Rem(x, w, "r.py:2") >= 0),
         {0: Interval(0, 20), 2: Interval(1, 3), 3: Interval(4, 6)}),
        ((Rem(x, z, "r.py:1") < z) & (Rem(x, z, "r.py:2") > -z) & (Div(x, z, "q.py:3") * z <= x),
         {0: Interval(0, 40), 2: Interval(1, 8)}),
    ]


def test_branch_and_prune_matches_the_reference_search():
    rng = SplitMix64(12)
    statuses = set()
    cases = []
    for i in range(600):
        nvars = rng.uniform_in(1, 3)
        formula = _gen_formula(rng, 2, nvars)
        _name_divisions(formula, itertools.count())
        cases.append((formula, _gen_box(rng, nvars, 40), (4, 60, 400)[i % 3]))
    random_cases = len(cases)
    cases += [(f, b, budget) for f, b in _search_cases() for budget in (4, 60, 400, 5000)]
    points = []  # the points of leaves, which the kernel decides with plain ints
    for i, (formula, b, budget) in enumerate(cases):
        out = branch_and_prune(formula, b, budget)
        expected = branch_and_prune_oracle(formula, b, budget, points=points)
        got = (out.status, out.witness, out.boxes, out.splits, out.note)
        assert got == expected, (formula, b)
        statuses.add(out.status)
        if i == random_cases - 1:
            random_points = len(points)
    assert statuses == {"proved", "witness", "undecided", "unsupported"}
    # leaves run, on the random formulas as well as the hand-made ones (4062
    # and 16610 points when this was written)
    assert random_points >= 2800 and len(points) >= 12000, (random_points, len(points))

    # the lease is counted down once per box or point and handed back on the
    # way out; an expired deadline is seen at the first poll, here made 34
    # units late by the leaf that spent the lease's last unit
    for ticker, status, boxes, count in ((Ticker(deadline=time.monotonic() - 1.0),
                                          "timeout", 1052, 1057),
                                         (Ticker(), "undecided", 3000, 3005)):
        ticker.tick(5)
        out = branch_and_prune(X == X, box((0, 1 << 20)), 3000, ticker=ticker)
        assert (out.status, out.boxes, ticker.count) == (status, boxes, count)


def test_the_search_ignores_the_lease_phase():
    """Whether a box is a leaf depends on the budget left, never on how much
    of the ticker's lease is left, so a ticker part way through its poll
    interval searches the same boxes and hands back every unit it did not
    spend; a passed deadline is seen at most LEAF_POINTS - 1 units after the
    poll that was due."""
    b = box((0, 127), (0, 63))
    same = (X + Y) - Y == X  # MAYBE on every box of more than one point
    for formula in (same, same & (X * Y != 127 * 63)):  # proved; the last point fails
        outcomes = set()
        for phase in (0, 1, 500, 1023):
            ticker = Ticker()
            ticker.tick(phase)
            out = branch_and_prune(formula, b, 1 << 20, ticker=ticker)
            outcomes.add((out.status, str(out.witness), out.boxes, out.splits))
            assert ticker.count == phase + out.boxes
        assert len(outcomes) == 1 and out.boxes > 2 * POLL_INTERVAL, outcomes
    late = []
    for phase in (0, 1, 500, 1023):
        ticker = Ticker(deadline=time.monotonic() - 1.0)
        ticker.tick(phase)
        out = branch_and_prune(same, b, 1 << 20, ticker=ticker)
        assert out.status == "timeout"
        late.append(out.boxes - (POLL_INTERVAL - 1 - phase % POLL_INTERVAL))
    assert late == [19, 20, 0, 0] and max(late) <= sym.LEAF_POINTS - 1


def test_every_early_exit_leaves_the_unevaluated_box_on_work():
    # the kernel carries the box it searches outside ``work``; an exit before
    # that box is evaluated must put it back, for the note to read
    formula = (X - Y) * (X - Y) >= 0  # true, but MAYBE along the diagonal
    b = box((0, 1 << 12), (-7, 1 << 12))
    timed = branch_and_prune(formula, b, 1 << 20, ticker=Ticker(deadline=time.monotonic() - 1.0))
    budgeted = branch_and_prune(formula, b, timed.boxes)
    assert (timed.status, budgeted.status) == ("timeout", "undecided")
    # the first poll, after the leaf that spent the lease's last unit
    assert timed.boxes == budgeted.boxes == 1109
    assert timed.splits == budgeted.splits
    reference = []
    expected = branch_and_prune_oracle(formula, b, timed.boxes, remaining=reference)
    reference = [{v: (iv.lo, iv.hi) for v, iv in r.items()} for r in reference]
    assert len(reference) > 1
    assert budgeted.note == expected[4] == f"box budget 1109 exhausted; {timed.note}"
    assert timed.note.startswith(f"{len(reference)} boxes left, widest v")
    # and the stack the kernel leaves, read directly
    kernel = sym._kernel(formula, [0, 1])[0]
    for ticker, budget, status in ((Ticker(deadline=time.monotonic() - 1.0), 1 << 20, "timeout"),
                                   (Ticker(), timed.boxes, "undecided")):
        work = [(0, 1 << 12, -7, 1 << 12)]
        assert kernel(work, budget, ticker.lease(), ticker.renew)[:3] == (
            status, timed.boxes, timed.splits)
        assert [{0: (w[0], w[1]), 1: (w[2], w[3])} for w in work] == reference


@pytest.fixture
def walked(monkeypatch):
    """The nodes ``_shape`` walks from, in order."""
    nodes = []
    shape = sym._shape

    def counted(node, kinds, vids):
        nodes.append(node)
        return shape(node, kinds, vids)

    monkeypatch.setattr(sym, "_shape", counted)
    return nodes


def test_a_node_walks_its_shape_once(walked):
    """A node evaluated over a box and then at points keeps its walk and
    each reading's program; an operand evaluated on its own is walked from
    itself."""
    inner = X * Y
    formula = (inner >= 0) | (X < 3)
    b = box((-2, 4), (-1, 3))
    assert truth_eval(formula, b) is Truth3.MAYBE
    assert [concrete_truth(formula, {0: x, 1: -1}) for x in range(-2, 5)] == [True] * 5 + [
        False] * 2
    assert truth_eval(formula, b) is Truth3.MAYBE
    assert len(walked) == 1 and walked[0] is formula
    assert interval_eval(inner, b) == Interval(-6, 12)
    assert concrete_eval(inner, {0: 4, 1: 3}) == 12
    assert len(walked) == 2 and walked[1] is inner


@pytest.mark.parametrize("evaluate, node, env", [
    (interval_eval, X + Var(3), box((0, 5))),
    (truth_eval, X < Var(3), box((0, 5))),
    (concrete_eval, X + Var(3), {0: 1}),
    (concrete_truth, X < Var(3), {0: 1}),
], ids=["interval_eval", "truth_eval", "concrete_eval", "concrete_truth"])
def test_a_variable_the_box_or_valuation_lacks_raises_the_same_every_time(evaluate, node, env):
    # the first call walks the node and builds its program; the later ones
    # find both on the node
    for _ in range(3):
        with pytest.raises(KeyError):
            evaluate(node, env)


def test_both_sides_of_a_connective_are_evaluated_at_a_point():
    """At a point, as over a box, ``&`` and ``|`` evaluate both operands: a
    zero divisor on the right raises even where the left side decides."""
    x = Var(0)
    for formula in ((x >= 0) | (tdiv(10, x) > 0), (x < 0) & (tdiv(10, x) > 0)):
        where = formula.rhs.lhs.location
        assert where.startswith("test_symbolic.py:")
        with pytest.raises(EvalError) as raised:
            concrete_truth(formula, {0: 0})
        assert raised.value.location == where
        out = branch_and_prune(formula, {0: Interval(0, 0)})
        assert (out.status, out.note) == (
            "unsupported", f"divisor interval contains zero at {where}")


def test_the_kernel_cache_is_emptied_when_full(monkeypatch):
    kernels = {}
    monkeypatch.setattr("tricheck.symbolic._KERNELS", kernels)
    monkeypatch.setattr("tricheck.symbolic._KERNEL_CACHE_SIZE", 2)
    for c in range(5):  # five shapes: kept 1, 2, then emptied to 1, 2, 1
        assert branch_and_prune(X < 10 + c, box((0, 5))).status == "proved"
    assert len(kernels) == 1


@pytest.fixture
def written(monkeypatch):
    """The shape keys of the kernel sources written, from an empty cache: each
    ``_KernelWriter`` made is one source written."""
    keys = []

    class Writer(sym._KernelWriter):
        def __init__(self, key):
            keys.append(key)
            super().__init__(key)

    monkeypatch.setattr(sym, "_KernelWriter", Writer)
    monkeypatch.setattr(sym, "_KERNELS", {})
    return keys


def test_one_shape_is_written_once_and_each_note_names_its_own_division(written):
    z = Var(2)
    notes = [branch_and_prune(Div(X, z, where) >= 0, b).note
             for where in ("a.py:1", "b.py:2")
             for b in ({0: Interval(0, 9), 2: Interval(-1, 1)},  # aborts over a box
                       {2: Interval(0, 0), 0: Interval(3, 3)})]  # and at a point
    assert notes == ["divisor interval contains zero at a.py:1"] * 2 + [
        "divisor interval contains zero at b.py:2"] * 2
    assert len(written) == 1


@pytest.mark.parametrize("first, second", [
    ((lambda: X < 3, [0]), (lambda: X < 4, [0])),
    ((lambda: X < 3, [0]), (lambda: X < -3, [0])),
    ((lambda: X < Var(2), [0, 2]), (lambda: Var(2) < X, [0, 2])),
    ((lambda: X < Var(2), [0, 2]), (lambda: X < Var(2), [0, 1, 2])),
], ids=["const", "const_sign", "vid_order", "vid_count"])
def test_a_different_shape_gets_a_kernel_of_its_own(written, first, second):
    """A different Const, or variables at other places in the box: each
    changes the kernel's source, so each has a key and a kernel of its own.
    Rebuilt nodes of one shape share."""
    (build, vids), (build_other, other_vids) = first, second
    kernel = sym._kernel(build(), vids)[0]
    assert sym._kernel(build_other(), other_vids)[0] is not kernel
    assert len(written) == 2 and written[0] != written[1]
    assert sym._kernel(build(), vids)[0] is kernel
    assert len(written) == 2


def test_a_subterm_written_twice_shares_the_kernel_of_one_computed_once(written):
    """The walk is hash-consed: a product written twice is one node, as a
    product computed once and read twice is, so the two share a kernel, and
    the kernel reads the product once per box and once per point."""
    r = X * Y
    kernel = sym._kernel((r >= 0) & (r <= 9), [0, 1])[0]
    assert sym._kernel((X * Y >= 0) & (X * Y <= 9), [0, 1])[0] is kernel
    assert len(written) == 1 and sum(entry[0] is Mul for entry in written[0][1:]) == 1
    source = sym._KernelWriter(written[0]).source
    assert (source.count(" = p0 * p1"), source.count(" = l0 * l1")) == (1, 1)


def test_equal_divisions_keep_the_first_location_and_share_one_quotient(written):
    """Two equal remainders are one node, whose location is the first one's,
    where it aborts first.  At a point, ``tdiv(a, b)`` and ``trem(a, b)``
    check the divisor and compute the quotient once; over a box, each
    divisor is checked once.  A different dividend or divisor gets its own."""
    z, w = Var(2), Var(3)
    formula = (Rem(X, z, "first.py:1") < z) & (Rem(X, z, "second.py:2") > -z)
    nodes, locations = sym._shape(formula, sym._FORMULA_KINDS, [0, 2])
    assert sum(entry[0] is Rem for entry in nodes) == 1 and locations == ["first.py:1"]
    out = branch_and_prune(formula, {0: Interval(0, 9), 2: Interval(-1, 1)})
    assert (out.status, out.note) == (
        "unsupported", "divisor interval contains zero at first.py:1")
    for recompose in (Div(X, z, "q.py:1") * z + Rem(X, z, "r.py:2") == X,
                      Rem(X, z, "r.py:2") + Div(X, z, "q.py:1") * z == X):
        source = _kernel_source(recompose, [0, 2])
        assert [source.count(text) for text in (
            "if p1 == 0:", "(p0 < 0) == (p1 < 0)", "if l1 <= 0 <= h1:")] == [1, 1, 1]
        out = branch_and_prune(recompose, {0: Interval(-40, 40), 2: Interval(1, 9)})
        assert out.status == "proved"
    source = _kernel_source((Div(X, z, "q.py:1") <= X) & (Rem(X, w, "r.py:2") >= 0), [0, 2, 3])
    assert [source.count(text) for text in ("if p1 == 0:", "if p2 == 0:", "(p0 < 0) == (p1 < 0)",
                                            "(p0 < 0) == (p2 < 0)")] == [1, 1, 1, 1]


def _kernel_source(formula, vids: list[int]) -> str:
    return sym._KernelWriter((len(vids), *sym._shape(formula, sym._FORMULA_KINDS, vids)[0])).source


def test_a_variable_outside_the_box_is_refused_after_a_cache_hit(written):
    assert branch_and_prune(X < 1, box((0, 5))).status == "witness"
    for formula in (Var(3) < 1, X < Var(3)):
        with pytest.raises(ValueError, match="the box does not bound variable v3"):
            branch_and_prune(formula, box((0, 5)))
    assert len(written) == 1


def test_a_second_run_over_the_corpus_writes_no_kernel(written):
    verdicts = [run_symbolic(p, RunConfig()) for p in REGISTRY]
    assert len(written) > 5
    del written[:]
    assert [run_symbolic(p, RunConfig()).kind for p in REGISTRY] == [v.kind for v in verdicts]
    assert written == []


def test_interval_rules_are_compiled_on_first_use():
    # in a fresh interpreter: this one has compiled them already
    # one rule per kind and reading: x + x + 1 takes a step per node, a
    # variable, two additions and a constant
    script = ("import tricheck, tricheck.symbolic as sym\n"
              "assert sym._rule.cache_info().currsize == 0\n"
              "x = sym.Var(0)\n"
              "assert sym.interval_eval(x + x + 1, {0: sym.Interval(0, 2)}) == sym.Interval(1, 5)\n"
              "assert sym._rule.cache_info()[:4] == (1, 3, None, 3)\n"
              "assert sym.interval_eval(x + x + 3, {0: sym.Interval(0, 2)}) == sym.Interval(3, 7)\n"
              "assert sym._rule.cache_info()[:4] == (5, 3, None, 3)\n"
              "assert sym.concrete_eval(x + x + 1, {0: 2}) == 5\n"
              "assert sym._rule.cache_info()[:4] == (6, 6, None, 6)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_evaluators_reject_the_wrong_node_kind():
    with pytest.raises(TypeError):
        interval_eval(X < 3, box((0, 1)))
    with pytest.raises(TypeError):
        truth_eval(X, box((0, 1)))
    with pytest.raises(TypeError):
        concrete_eval(Cmp("lt", X, X + (X < 1)), {0: 1})

    class Stranger(SymExpr):  # outside the kinds the evaluators know
        pass

    class Plus(Add):  # a subclass follows its base's rule
        __slots__ = ()

    b = box((0, 1))
    for evaluate in (truth_eval, branch_and_prune):
        with pytest.raises(TypeError):
            evaluate(Stranger() < 3, b)
        with pytest.raises(ValueError, match="unknown comparison 'xx'"):
            evaluate(Cmp("xx", X, X), b)
    with pytest.raises(TypeError):
        interval_eval(Stranger(), b)
    assert interval_eval(Plus(X, X), b) == Interval(0, 2)
    assert truth_eval(Plus(X, X) < 3, b) is Truth3.TRUE
    assert branch_and_prune(Plus(X, X) < 2, b).witness == {0: 1}


def test_negative_variable_ids_are_refused():
    with pytest.raises(ValueError):
        Var(-1)
    with pytest.raises(ValueError):
        branch_and_prune(BoolConst(True), {-1: Interval(0, 1)})
