"""End-to-end acceptance checks, one test per numbered claim.

Each test here exercises a released behaviour through the public surface
(backends, runner, CLI) rather than through internals, so ``pytest -v``
prints one pass/fail line per claim.  Slower by design: the interval
soundness sweep alone evaluates 10^5 random expressions.
"""

import json
import time

import pytest

import tricheck.harness as harness
import tricheck.patterns as pat
import tricheck.strategies as st
from _oracles import enumerate_oracle, match_ast, min_failing_int, splitmix64_take
from test_patterns import MATCHER_PATTERNS
from tricheck.cli import main, update_history
from tricheck.corpus import REGISTRY
from tricheck.exhaustive import run_exhaustive
from tricheck.fuzz import run_fuzz
from tricheck.harness import Property, PropertyRegistry, RunConfig
from tricheck.prng import SplitMix64
from tricheck.results import Verdict, VerdictKind, UnknownReason
from tricheck.runner import (
    BUILTIN_BACKENDS,
    ENSEMBLE_ORDER,
    InconsistentBackends,
    PropertyResult,
    RunReport,
    run_ensemble,
    run_suite,
)
from tricheck.symbolic import (
    Cmp,
    Const,
    DivMaybeZero,
    Interval,
    Truth3,
    Var,
    concrete_eval,
    concrete_truth,
    interval_eval,
    run_symbolic,
    tdiv,
    trem,
    truth_eval,
)


def test_criterion_01_golden_harness_three_ways():
    """One registered harness; three backends; three grades of verdict."""
    prop = REGISTRY.get("multiply")

    sampled = run_fuzz(prop, RunConfig(seed=42, cases=256))
    assert sampled.kind is VerdictKind.PASS_SAMPLED
    assert sampled.cases == 256

    t0 = time.monotonic()
    proved = run_exhaustive(prop, RunConfig())
    elapsed = time.monotonic() - t0
    assert proved.kind is VerdictKind.PROVED
    assert proved.method == "exhaustive"
    assert proved.cases == 1_000_000
    assert elapsed <= 60.0

    t0 = time.monotonic()
    symbolic = run_symbolic(prop, RunConfig())
    elapsed = time.monotonic() - t0
    assert symbolic.kind is VerdictKind.PROVED
    assert symbolic.method == "symbolic"
    assert symbolic.splits == 0
    assert elapsed <= 1.0


def test_criterion_02_mutated_golden_harness():
    """Tightening the bound to a*b < 10^6 flips the verdict at (1000, 1000)."""
    prop = REGISTRY.get("multiply.strict")

    for backend in (run_exhaustive, run_symbolic):
        verdict = backend(prop, RunConfig())
        assert verdict.kind is VerdictKind.FALSIFIED
        assert verdict.counterexample.shrunk == (1000, 1000)

    # brute force confirms that counterexample is the only one
    failures = [
        (a, b)
        for a in range(1, 1001)
        for b in range(1, 1001)
        if not (1 <= a * b < 10**6)
    ]
    assert failures == [(1000, 1000)]

    # 256 random draws out of 10^6 values are expected to miss the single bad pair
    sampled = run_fuzz(prop, RunConfig(seed=42, cases=256))
    assert sampled.kind is VerdictKind.PASS_SAMPLED


def test_criterion_03_backends_never_disagree():
    """No corpus property is Proved by one backend and Falsified by another,
    and the ensemble's disagreement alarm stays quiet except on a backend
    that actually lies."""
    names = REGISTRY.names()
    assert len(names) >= 20

    kinds: dict[str, set[VerdictKind]] = {}
    for backend in ("fuzz", "exhaustive", "symbolic"):
        config = RunConfig(backend=backend, seed=7, cases=128, budget=50_000)
        report = run_suite(REGISTRY, config)
        for result in report.results:
            kinds.setdefault(result.name, set()).add(result.verdict.kind)
    for name, seen in kinds.items():
        assert not {VerdictKind.PROVED, VerdictKind.FALSIFIED} <= seen, (
            f"{name}: backends disagree ({seen})"
        )

    # full ensemble run: the cross-check never fires on honest backends
    run_suite(REGISTRY, RunConfig(backend="ensemble", seed=7, cases=128, budget=50_000))

    # injected bug: a backend that rubber-stamps Proved races real exhaustive
    # checking on a property that is false; the disagreement must abort
    def stamp(prop, config, *, deadline=None):
        return Verdict.proved("exhaustive", 1)

    liar_table = dict(BUILTIN_BACKENDS)
    liar_table["stamp"] = stamp
    bogus = Property("inject.bug", st.int_range(0, 1000), lambda x: x < 500)
    for order in (["stamp", "exhaustive"], ["exhaustive", "stamp"]):
        with pytest.raises(InconsistentBackends):
            run_ensemble(bogus, order, RunConfig(), backend_table=liar_table)


def test_criterion_03_ensemble_reports_the_first_decision_in_its_order(tmp_path, capsys):
    """The ensemble's verdict is the first definitive standalone verdict in
    ENSEMBLE_ORDER, backend and counterexample included, and two ensemble
    runs report the same, modulo run id, timestamp and durations."""
    flags = ["--seed", "7", "--cases", "128", "--budget", "50000"]
    config = RunConfig(seed=7, cases=128, budget=50_000)
    for prop in REGISTRY:
        ensemble = run_ensemble(prop, ENSEMBLE_ORDER, config)
        alone = [BUILTIN_BACKENDS[name](prop, config) for name in ENSEMBLE_ORDER]
        first = next((v for v in alone if v.is_definitive), None)
        if first is None:
            assert not ensemble.is_definitive, prop.name
            continue
        assert (ensemble.kind, ensemble.backend, ensemble.counterexample) \
            == (first.kind, first.backend, first.counterexample), prop.name

    reports = [tmp_path / "r1.json", tmp_path / "r2.json"]
    for report in reports:
        main(["run", "--backend", "ensemble", "--report", str(report), *flags],
             registry=REGISTRY)
    capsys.readouterr()
    assert _normalized(reports[0]) == _normalized(reports[1])


def _filter_free(s) -> bool:
    if isinstance(s, st.Filter):
        return False
    if isinstance(s, (st.Just, st.IntRange, pat.Pattern)):
        return True
    if isinstance(s, st.Map):
        return _filter_free(s.inner)
    if isinstance(s, st.OneOf):
        return all(_filter_free(a) for a in s.alternatives)
    if isinstance(s, st.TupleOf):
        return all(_filter_free(c) for c in s.components)
    if isinstance(s, st.ListOf):
        return _filter_free(s.element)
    if isinstance(s, st.OrderedMapOf):
        return _filter_free(s.keys) and _filter_free(s.values)
    raise TypeError(f"unrecognized strategy {s!r}")


def _freeze(v):
    if isinstance(v, list):
        return ("list",) + tuple(_freeze(x) for x in v)
    if isinstance(v, dict):
        return ("dict",) + tuple((_freeze(k), _freeze(x)) for k, x in sorted(v.items()))
    return v


def test_criterion_04_enumeration_matches_brute_force_oracle():
    """Every filter-free corpus strategy small enough to list completely
    enumerates exactly the set the eager recursive oracle produces."""
    checked = 0
    for name in REGISTRY.names():
        strategy = REGISTRY.get(name).strategy
        card = st.cardinality(strategy)
        if not (_filter_free(strategy) and card.is_finite and card.count <= 10_000):
            continue
        got = [_freeze(v) for v in st.enumerate_values(strategy)]
        want = [_freeze(v) for v in enumerate_oracle(strategy)]
        assert set(got) == set(want), name
        assert len(got) == card.count, name
        checked += 1
    assert checked >= 10  # the sweep must not silently degenerate


def _gen_expr(rng: SplitMix64, depth: int, nvars: int):
    kind = rng.uniform_in(0, 9 if depth > 0 else 3)
    if kind <= 1:
        return Const(rng.uniform_in(-20, 20))
    if kind <= 3:
        return Var(rng.uniform_in(0, nvars - 1))
    a = _gen_expr(rng, depth - 1, nvars)
    b = _gen_expr(rng, depth - 1, nvars)
    if kind <= 5:
        return a + b
    if kind == 6:
        return a - b
    if kind <= 8:
        return a * b
    return tdiv(a, b) if rng.uniform_in(0, 1) == 0 else trem(a, b)


def test_criterion_05_interval_arithmetic_is_sound():
    """10^5 random expressions over random boxes: a concrete evaluation never
    escapes the interval, and every decided comparison survives 100 concrete
    samples."""
    rng = SplitMix64(2024)
    contained = decided = refused = 0
    ops = ("lt", "le", "gt", "ge", "eq", "ne")
    for _ in range(100_000):
        nvars = rng.uniform_in(1, 3)
        depth = rng.uniform_in(1, 6)
        expr = _gen_expr(rng, depth, nvars)
        box = {}
        for v in range(nvars):
            lo = rng.uniform_in(-60, 60)
            box[v] = Interval(lo, lo + rng.uniform_in(0, 40))
        try:
            hull = interval_eval(expr, box)
        except DivMaybeZero:
            refused += 1  # divisor interval straddles zero: soundly rejected
            continue
        point = {v: rng.uniform_in(b.lo, b.hi) for v, b in box.items()}
        value = concrete_eval(expr, point)
        assert hull.contains(value), (expr, box, point, value, hull)
        contained += 1

        formula = Cmp(ops[rng.uniform_in(0, 5)], expr, Const(rng.uniform_in(-100, 100)))
        truth = truth_eval(formula, box)
        if truth is Truth3.MAYBE:
            continue
        decided += 1
        expected = truth is Truth3.TRUE
        for _ in range(100):
            point = {v: rng.uniform_in(b.lo, b.hi) for v, b in box.items()}
            assert concrete_truth(formula, point) == expected, (formula, box, point)
    # the sweep must exercise the checker, not skip its way to green
    assert contained >= 90_000, (contained, refused)
    assert decided >= 50_000


def _normalized(report_path) -> dict:
    doc = json.loads(report_path.read_text())
    doc["run_id"] = doc["timestamp"] = None
    for entry in doc["results"]:
        entry["duration_ms"] = None
    return doc


def test_criterion_06_determinism_and_replay(tmp_path, capsys):
    """Identical config twice gives the identical report (modulo run id and
    timestamp), and a falsified property replays to a byte-identical shrunk
    counterexample through the CLI."""
    flags = ["--seed", "7", "--cases", "128", "--budget", "50000"]
    first, second = tmp_path / "r1.json", tmp_path / "r2.json"
    rc1 = main(["run", "--report", str(first), *flags], registry=REGISTRY)
    rc2 = main(["run", "--report", str(second), *flags], registry=REGISTRY)
    capsys.readouterr()
    assert rc1 == rc2 == 1  # the corpus deliberately contains falsifiable properties
    assert _normalized(first) == _normalized(second)

    report = json.loads(first.read_text())
    falsified = [r for r in report["results"] if r["verdict"] == "falsified"]
    assert falsified, "corpus run produced no falsification to replay"
    target = falsified[0]

    replay_args = ["replay", "--property", target["name"], *flags]
    rc = main(replay_args, registry=REGISTRY)
    out_a = capsys.readouterr().out
    rc_again = main(replay_args, registry=REGISTRY)
    out_b = capsys.readouterr().out
    assert rc == rc_again == 1
    assert out_a == out_b  # byte-identical replay
    assert out_a.strip().endswith(f"shrunk={target['counterexample']['shrunk']}")


def test_criterion_07_shrinking_reaches_the_minimal_failure():
    """For 50 randomized threshold predicates the shrunk counterexample equals
    the smallest failing value found by brute-force scan."""
    meta = SplitMix64(7)
    for i in range(50):
        lo = meta.uniform_in(-1_000_000, 1_000_000)
        span = meta.uniform_in(1_000, 100_000)
        hi = lo + span
        threshold = lo + meta.uniform_in(0, span // 2)
        strict = meta.uniform_in(0, 1) == 1
        if strict:
            predicate = lambda x, t=threshold: x < t
            fails = lambda x, t=threshold: x >= t
        else:
            predicate = lambda x, t=threshold: x <= t
            fails = lambda x, t=threshold: x > t
        prop = Property(f"acc.threshold{i}", st.int_range(lo, hi), predicate)
        verdict = run_fuzz(prop, RunConfig(seed=1000 + i, cases=512))
        assert verdict.kind is VerdictKind.FALSIFIED, (i, lo, hi, threshold)
        assert verdict.counterexample.shrunk == min_failing_int(lo, hi, fails), i


SEED0_FIRST_8 = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
    0x1B39896A51A8749B,
    0x53CB9F0C747EA2EA,
    0x2C829ABE1F4532E1,
    0xC584133AC916AB3C,
]


def test_criterion_08_prng_matches_reference_vectors():
    rng = SplitMix64(0)
    outputs = [rng.next_u64() for _ in range(8)]
    assert outputs == SEED0_FIRST_8
    assert outputs == splitmix64_take(0, 8)  # independent transcription


def test_criterion_09_flaky_detection_keys_on_config_hash(tmp_path):
    """Proved / Unknown{Timeout} / Proved under one fingerprint and config is
    flaky; moving the middle run to a different config un-flags it."""
    base = dict(backend="exhaustive", seed=3, cases=64, budget=1000,
                timeout_ms=500, code_fingerprint="f" * 8)
    verdicts = [
        Verdict.proved("exhaustive", 10),
        Verdict.unknown(UnknownReason.TIMEOUT, detail="deadline"),
        Verdict.proved("exhaustive", 10),
    ]

    def report(run_id: str, verdict: Verdict, config: RunConfig) -> RunReport:
        return RunReport(run_id=run_id, timestamp="2026-08-19T00:00:00Z",
                         config=config,
                         results=[PropertyResult("acc.flaky", verdict)])

    steady = tmp_path / "steady.jsonl"
    flaky: list[str] = []
    for run_id, verdict in zip(("a" * 16, "b" * 16, "c" * 16), verdicts):
        flaky = update_history(str(steady), report(run_id, verdict, RunConfig(**base)))
    assert flaky == ["acc.flaky"]

    varied = tmp_path / "varied.jsonl"
    configs = [RunConfig(**base), RunConfig(**{**base, "seed": 99}), RunConfig(**base)]
    for run_id, verdict, config in zip(("a" * 16, "b" * 16, "c" * 16), verdicts, configs):
        flaky = update_history(str(varied), report(run_id, verdict, config))
    assert flaky == []


def test_criterion_10_pattern_strings_satisfy_the_ast_matcher():
    assert set(st.enumerate_values(pat.pattern("[ab]{2}"))) == {"aa", "ab", "ba", "bb"}

    assert len(MATCHER_PATTERNS) == 20
    for text in MATCHER_PATTERNS:
        ast = pat.parse_pattern(text, star_cap=4)
        strategy = pat.pattern(text, star_cap=4)
        for s in st.enumerate_values(strategy, budget=300):
            assert match_ast(ast, s), f"{text}: enumerated {s!r} fails to match"
        rng = SplitMix64(5)
        for _ in range(25):
            s = st.random_tree(strategy, rng).current
            assert match_ast(ast, s), f"{text}: drew {s!r} that fails to match"


# --------------------------------------------------------------------------
# a symbolic verdict must be true of the real predicate

def _ensemble_report(tmp_path, capsys, name, strategy, predicate):
    """Exit code and the single result of ``tricheck run --backend ensemble``
    over a one-property registry."""
    registry = PropertyRegistry()
    registry.register(name, strategy, predicate)
    out = tmp_path / "report.json"
    rc = main(["run", "--backend", "ensemble", "--report", str(out)], registry=registry)
    capsys.readouterr()
    (result,) = json.loads(out.read_text())["results"]
    return rc, result


def _raises_below_zero(a):
    if type(a) is int and a < 0:
        raise ValueError("negative")


def test_symbolic_unobserved_input_is_unsupported_not_proved(tmp_path, capsys):
    """A predicate that returns None on the carrier never looked at it: the
    symbolic backend must not prove it, and the ensemble reports the
    concrete falsification at -5 instead of InconsistentBackends."""
    prop = Property("acc.raises", st.int_range(-5, 5), _raises_below_zero)
    v = run_symbolic(prop, RunConfig())
    assert v.kind is VerdictKind.UNKNOWN
    assert v.reason is UnknownReason.UNSUPPORTED
    assert v.detail == "predicate did not observe its input"
    assert run_exhaustive(prop, RunConfig()).counterexample.shrunk == -5

    rc, result = _ensemble_report(tmp_path, capsys, "acc.raises",
                                  st.int_range(-5, 5), _raises_below_zero)
    assert rc == 1  # falsified, not 3 (InconsistentBackends)
    assert result["verdict"] == "falsified"
    assert result["counterexample"]["shrunk"] == "-5"


def test_symbolic_witness_is_confirmed_on_the_real_predicate(tmp_path, capsys):
    """A witness of the recorded formula that the real predicate accepts is
    not a counterexample: the verdict is Unsupported, and the ensemble no
    longer aborts with InconsistentBackends."""
    def is_int(a):
        return type(a) is int

    v = run_symbolic(Property("acc.is_int", st.int_range(-5, 5), is_int), RunConfig())
    assert v.kind is VerdictKind.UNKNOWN
    assert v.reason is UnknownReason.UNSUPPORTED
    rc, result = _ensemble_report(tmp_path, capsys, "acc.is_int", st.int_range(-5, 5), is_int)
    assert rc == 0
    assert result["verdict"] == "proved"

    # the carrier records ``a > 0``, which fails at -5, but the predicate
    # takes the other branch on every concrete int
    def disagrees(a):
        return True if type(a) is int else a > 0

    v = run_symbolic(Property("acc.disagrees", st.int_range(-5, 5), disagrees), RunConfig())
    assert v.kind is VerdictKind.UNKNOWN
    assert v.reason is UnknownReason.UNSUPPORTED
    assert "disagree" in v.detail
    rc, result = _ensemble_report(tmp_path, capsys, "acc.disagrees",
                                  st.int_range(-5, 5), disagrees)
    assert rc == 0
    assert result["verdict"] == "proved"


def test_symbolic_proof_is_confirmed_on_the_real_predicate(tmp_path, capsys):
    """A predicate that branches on its argument's type records ``a < 100``
    over the carrier, which the boxes prove, while every concrete int takes
    the ``a > 0`` branch.  The proof is checked at concrete points of the
    box first: the verdict is Unsupported and names -5, and the ensemble
    reports exhaustive's falsification instead of InconsistentBackends."""
    def by_type(a):
        return a > 0 if type(a) is int else a < 100

    v = run_symbolic(Property("acc.by_type", st.int_range(-5, 5), by_type), RunConfig())
    assert v.kind is VerdictKind.UNKNOWN
    assert v.reason is UnknownReason.UNSUPPORTED
    assert "-5" in v.detail
    rc, result = _ensemble_report(tmp_path, capsys, "acc.by_type", st.int_range(-5, 5), by_type)
    assert rc == 1  # falsified, not 3 (InconsistentBackends)
    assert result["verdict"] == "falsified"
    assert result["counterexample"]["shrunk"] == "-5"


def test_symbolic_proof_is_confirmed_inside_the_box():
    """As above, but the predicate and its recorded formula would disagree
    only at 3, which is none of the points a proof is confirmed at.  The
    ``isinstance`` test reads the carrier's ``__class__``, so the symbolic
    backend sees the type test and does not prove what exhaustive falsifies
    at 3."""
    def by_type(a):
        return a != 3 if isinstance(a, int) else a < 100

    v = run_symbolic(Property("acc.by_type_inside", st.int_range(-5, 5), by_type), RunConfig())
    assert v.kind is VerdictKind.UNKNOWN
    assert v.reason is UnknownReason.UNSUPPORTED
    assert v.detail == "predicate tests the type of a symbolic value"


def test_symbolic_filter_that_tests_types_is_unsupported():
    """A filter that branches on ``isinstance`` records ``a < 100`` over the
    carrier, so the hypothesis admits 3, which the filter rejects on ints:
    the symbolic backend reported 3 as a counterexample, and the ensemble
    aborted with InconsistentBackends against exhaustive's proof."""
    s = st.int_range(-5, 5).filter("not_3", lambda a: a != 3 if isinstance(a, int) else a < 100)
    prop = Property("acc.filter_by_type", s, lambda a: a != 3)
    v = run_symbolic(prop, RunConfig())
    assert v.kind is VerdictKind.UNKNOWN
    assert v.reason is UnknownReason.UNSUPPORTED
    assert v.detail == "filter 'not_3' tests the type of a symbolic value"
    assert run_exhaustive(prop, RunConfig()).kind is VerdictKind.PROVED
    assert run_ensemble(prop, ["symbolic", "exhaustive"], RunConfig()).kind is VerdictKind.PROVED


def test_symbolic_filter_that_is_a_type_test_is_not_vacuously_proved():
    """``isinstance(a, int)`` is False on the carrier, so the hypothesis was
    false over the whole box and the symbolic backend proved ``a < 5``
    vacuously, which exhaustive falsifies at 5."""
    s = st.int_range(0, 9).filter("is_int", lambda a: isinstance(a, int))
    prop = Property("acc.is_int_filter", s, lambda a: a < 5)
    v = run_symbolic(prop, RunConfig())
    assert v.kind is VerdictKind.UNKNOWN
    assert v.reason is UnknownReason.UNSUPPORTED
    assert "tests the type" in v.detail
    assert run_exhaustive(prop, RunConfig()).counterexample.shrunk == 5


def test_symbolic_map_that_tests_types_is_unsupported():
    """A map that branches on ``isinstance`` records ``a * 0`` over the
    carrier, which never equals 3, while on ints it is the identity.  A
    proof's confirmation evaluates the recorded carrier, not the real map,
    so it could not catch this: symbolic proved what fuzz and exhaustive
    falsify at 3."""
    s = st.int_range(-5, 5).map(lambda a: a if isinstance(a, int) else a * 0)
    prop = Property("acc.map_by_type", s, lambda a: a != 3)
    v = run_symbolic(prop, RunConfig())
    assert v.kind is VerdictKind.UNKNOWN
    assert v.reason is UnknownReason.UNSUPPORTED
    assert v.detail == "map tests the type of a symbolic value"
    assert run_exhaustive(prop, RunConfig()).counterexample.shrunk == 3
    assert run_fuzz(prop, RunConfig()).counterexample.shrunk == 3


# --------------------------------------------------------------------------
# exhaustive: counts what it walked, reports what it evaluated

def test_ordered_map_over_merging_keys_is_proved(tmp_path, capsys):
    """``map`` makes cardinality an upper bound: five keys merge into three,
    so 18 distinct maps exist where the bound says 50.  The completeness
    check compares against the positions actually walked, so the run proves
    instead of aborting with an AssertionError."""
    s = st.ordered_map_of(st.int_range(0, 4).map(lambda x: x // 2), st.int_range(0, 1), 1, 2)
    assert s.cardinality() == st.Cardinality.finite(50)
    v = run_exhaustive(Property("acc.merging_keys", s, lambda m: len(m) <= 2), RunConfig())
    assert v.kind is VerdictKind.PROVED
    assert v.cases == 18

    rc, result = _ensemble_report(tmp_path, capsys, "acc.merging_keys", s,
                                  lambda m: len(m) <= 2)
    assert rc == 0
    assert result["verdict"] == "proved"


def test_exhaustive_reports_the_input_that_failed():
    """A predicate that mutates its argument must not rewrite the reported
    counterexample: the failing value is rebuilt from its position."""
    def appends(xs):
        xs.append(99)
        return len(xs) < 4

    prop = Property("acc.appends", st.list_of(st.int_range(0, 3), 0, 3), appends)
    v = run_exhaustive(prop, RunConfig())
    assert v.kind is VerdictKind.FALSIFIED
    assert v.counterexample.original == [0, 0, 0]
    assert v.counterexample.shrunk == [0, 0, 0]

    # shrink candidates of a tuple share its list, which they append to
    def nested(a, xs):
        xs.append(99)
        return a < 3 or len(xs) < 2

    prop = Property("acc.nested", st.tuple_of(st.int_range(0, 3),
                                              st.list_of(st.int_range(0, 3), 0, 3)), nested)
    v = run_exhaustive(prop, RunConfig())
    assert v.counterexample.original == (3, [0])
    assert v.counterexample.shrunk == (3, [0])


def test_fuzz_reports_the_input_that_failed():
    """Fuzz draws the failing case again from the generator state it started
    at, so the reported original is the value the predicate was given, and
    an unmoved shrink reports that same value."""
    def appends(xs):
        xs.append(99)
        return len(xs) < 4

    prop = Property("acc.appends", st.list_of(st.int_range(0, 3), 0, 6), appends)
    v = run_fuzz(prop, RunConfig(seed=1, cases=256))
    assert v.kind is VerdictKind.FALSIFIED
    assert v.counterexample.original == [3, 1, 0, 1, 1, 0]

    prop = Property("acc.appends_empty", st.list_of(st.just(0), 0, 0),
                    lambda xs: xs.append(99) or False)
    v = run_fuzz(prop, RunConfig(seed=1, cases=256))
    assert v.counterexample.original == []
    assert v.counterexample.shrunk == []


def test_fuzz_shrinks_to_a_value_the_predicate_did_not_mutate():
    """Every shrink candidate is replayed afresh from its choices, and the
    shrunk value is replayed once more: a predicate that appends to its list
    cannot leak 99s into the report, nor into the candidates after it."""
    def appends(xs):
        xs.append(99)
        return len(xs) < 4

    prop = Property("acc.appends", st.list_of(st.int_range(0, 3), 0, 6), appends)
    v = run_fuzz(prop, RunConfig(seed=1, cases=256))
    assert v.counterexample.original == [3, 1, 0, 1, 1, 0]
    assert v.counterexample.shrunk == [0, 0, 0]

    prop = Property("acc.nested", st.tuple_of(st.int_range(0, 3),
                                              st.list_of(st.int_range(0, 3), 0, 4)),
                    lambda a, xs: xs.append(99) or a < 3 or len(xs) < 3)
    v = run_fuzz(prop, RunConfig(seed=3, cases=256))
    assert v.counterexample.original == (3, [3, 0, 2, 2])
    assert v.counterexample.shrunk == (3, [0, 0])


def test_exhaustive_reports_a_failure_on_a_poll_boundary(monkeypatch):
    """The fourth evaluation is the last before a poll; with the deadline
    already past, the failure it finds is still the verdict, not a timeout."""
    monkeypatch.setattr(harness, "POLL_INTERVAL", 4)
    prop = Property("acc.boundary", st.int_range(0, 999), lambda x: x != 3)
    v = run_exhaustive(prop, RunConfig(), deadline=time.monotonic() - 1)
    assert v.kind is VerdictKind.FALSIFIED, v.describe()
    assert v.counterexample.original == 3
    assert v.counterexample.case_index == 3


def test_fuzz_reports_a_failure_on_a_poll_boundary(monkeypatch):
    """Seed 18's fourth draw, 928, is the first failure and lands on a poll
    boundary; the expired deadline then cuts only the shrink short."""
    monkeypatch.setattr(harness, "POLL_INTERVAL", 4)
    prop = Property("acc.boundary", st.int_range(0, 999), lambda x: x < 500)
    v = run_fuzz(prop, RunConfig(seed=18, cases=100), deadline=time.monotonic() - 1)
    assert v.kind is VerdictKind.FALSIFIED, v.describe()
    assert v.counterexample.original == 928
    assert v.counterexample.case_index == 3
    assert v.counterexample.shrink_incomplete
