"""Suite runner: the ensemble's schedule, agreement checking, waivers, and
the config/report bookkeeping the CLI builds on."""

import datetime as dt
import math
import re
import threading
import time

import pytest

from tricheck.harness import DuplicateName, Property, PropertyRegistry, RunConfig
from tricheck.results import Counterexample, UnknownReason, Verdict, VerdictKind
from tricheck.runner import (
    InconsistentBackends,
    PropertyResult,
    RunReport,
    Waiver,
    apply_waivers,
    config_as_dict,
    config_hash,
    new_run_id,
    run_ensemble,
    run_property,
    run_suite,
    utc_timestamp,
)
from tricheck.strategies import int_range, tuple_of


def make_registry():
    reg = PropertyRegistry()
    reg.register("alg.add_commutes", tuple_of(int_range(0, 50), int_range(0, 50)),
                 lambda a, b: a + b == b + a)
    reg.register("alg.sub_commutes", tuple_of(int_range(0, 50), int_range(0, 50)),
                 lambda a, b: a - b == b - a)  # false off the diagonal
    reg.register("ord.le_total", tuple_of(int_range(0, 9), int_range(0, 9)),
                 lambda a, b: (a <= b) | (b <= a))
    return reg


def fake_backend(verdict=None, delay=0.0, exc=None, record=None, name="fake"):
    def fn(prop, config, *, deadline=None):
        if delay:
            # cooperative wait: give up at the deadline, as a backend's poll does
            if deadline is not None and deadline < time.monotonic() + delay:
                time.sleep(max(0.0, deadline - time.monotonic()))
                if record is not None:
                    record.append("timed out")
                return Verdict.unknown(UnknownReason.TIMEOUT, detail="timed out")
            time.sleep(delay)
        if exc is not None:
            raise exc
        v = Verdict(verdict.kind, backend=name, reason=verdict.reason,
                    counterexample=verdict.counterexample, cases=verdict.cases,
                    method=verdict.method)
        return v
    return fn


def falsified(value=7):
    return Verdict.falsified(Counterexample(original=value, shrunk=value))


# --------------------------------------------------------------------------
# ensembles

def test_ensemble_requires_two_backends():
    reg = make_registry()
    with pytest.raises(ValueError):
        run_ensemble(reg.get("alg.add_commutes"), ["fuzz"], RunConfig())


def test_ensemble_rejects_unknown_backend_names():
    reg = make_registry()
    with pytest.raises(ValueError):
        run_ensemble(reg.get("alg.add_commutes"), ["fuzz", "quantum"], RunConfig())


def test_first_definitive_verdict_wins():
    reg = make_registry()
    table = {
        "quick": fake_backend(falsified(), name="quick"),
        "slow": fake_backend(Verdict.pass_sampled(10), delay=5.0, name="slow"),
    }
    t0 = time.monotonic()
    v = run_ensemble(reg.get("alg.add_commutes"), ["quick", "slow"], RunConfig(),
                     backend_table=table)
    assert v.kind is VerdictKind.FALSIFIED
    assert v.backend == "quick"
    assert time.monotonic() - t0 < 3.0  # the loser ran out of time, it was not awaited


def test_losers_observe_an_expired_deadline():
    reg = make_registry()
    seen = []
    table = {
        "winner": fake_backend(Verdict.proved("exhaustive", 100), name="winner"),
        "loser": fake_backend(Verdict.pass_sampled(1), delay=10.0,
                              record=seen, name="loser"),
    }
    v = run_ensemble(reg.get("alg.add_commutes"), ["winner", "loser"], RunConfig(),
                     backend_table=table)
    assert v.kind is VerdictKind.PROVED
    assert seen == ["timed out"]


def test_a_real_member_after_the_winner_evaluates_one_poll_interval(monkeypatch):
    from tricheck.runner import BUILTIN_BACKENDS

    monkeypatch.setattr("tricheck.harness.POLL_INTERVAL", 8)
    calls = []

    def predicate(x):
        calls.append(x)
        return True

    table = dict(BUILTIN_BACKENDS)
    table["winner"] = fake_backend(Verdict.proved("exhaustive", 100), name="winner")
    v = run_ensemble(Property("t", int_range(0, 99), predicate), ["winner", "exhaustive"],
                     RunConfig(), deadline=time.monotonic() + 60.0, backend_table=table)
    assert v.backend == "winner"
    assert calls == list(range(8))


def test_a_sampler_is_not_run_after_a_falsified_winner():
    """A member that only samples never says Proved, so it cannot contradict
    a Falsified winner and is not run after one; after a Proved winner it
    runs once, to cross-check."""
    reg = make_registry()
    for verdict, runs in ((falsified(), 0), (Verdict.proved("exhaustive", 100), 1)):
        calls = []

        def fuzz(prop, config, *, deadline=None):
            calls.append(deadline)
            return Verdict.pass_sampled(8)

        table = {"winner": fake_backend(verdict, name="winner"), "fuzz": fuzz}
        v = run_ensemble(reg.get("alg.add_commutes"), ["winner", "fuzz"], RunConfig(),
                         backend_table=table)
        assert (v.kind, v.backend) == (verdict.kind, "winner")
        assert calls == [-math.inf] * runs
    from tricheck.runner import SAMPLERS

    assert SAMPLERS == {"fuzz"}


def test_pass_sampled_beats_unknown():
    reg = make_registry()
    table = {
        "sampler": fake_backend(Verdict.pass_sampled(256), name="sampler"),
        "giveup": fake_backend(Verdict.unknown(UnknownReason.UNSUPPORTED), name="giveup"),
    }
    v = run_ensemble(reg.get("alg.add_commutes"), ["sampler", "giveup"], RunConfig(),
                     backend_table=table)
    assert v.kind is VerdictKind.PASS_SAMPLED
    assert v.backend == "sampler"


def test_most_informative_unknown_wins():
    reg = make_registry()
    table = {
        "a": fake_backend(Verdict.unknown(UnknownReason.UNSUPPORTED), name="a"),
        "b": fake_backend(Verdict.unknown(UnknownReason.BUDGET_EXCEEDED), name="b"),
        "c": fake_backend(Verdict.unknown(UnknownReason.TIMEOUT), name="c"),
    }
    v = run_ensemble(reg.get("alg.add_commutes"), ["a", "b", "c"], RunConfig(),
                     backend_table=table)
    assert v.reason is UnknownReason.BUDGET_EXCEEDED


def test_contradictory_definitive_verdicts_abort():
    reg = make_registry()
    table = {
        "optimist": fake_backend(Verdict.proved("exhaustive", 100), name="optimist"),
        "realist": fake_backend(falsified(), name="realist"),
    }
    with pytest.raises(InconsistentBackends) as exc:
        run_ensemble(reg.get("alg.add_commutes"), ["optimist", "realist"],
                     RunConfig(), backend_table=table)
    msg = str(exc.value)
    assert "alg.add_commutes" in msg
    assert "proved" in msg and "falsified" in msg


def test_injected_bug_in_a_real_backend_is_caught():
    # a backend that rubber-stamps Proved races real exhaustive checking on a
    # property that is actually false: the disagreement must abort the run
    from tricheck.runner import BUILTIN_BACKENDS

    reg = make_registry()
    table = dict(BUILTIN_BACKENDS)
    table["stamp"] = fake_backend(Verdict.proved("exhaustive", 1), name="stamp")
    with pytest.raises(InconsistentBackends):
        run_ensemble(reg.get("alg.sub_commutes"), ["stamp", "exhaustive"],
                     RunConfig(), backend_table=table)


def test_backend_exceptions_propagate():
    reg = make_registry()
    table = {
        "ok": fake_backend(Verdict.pass_sampled(1), name="ok"),
        "broken": fake_backend(exc=RuntimeError("backend crashed"), name="broken"),
    }
    with pytest.raises(RuntimeError, match="backend crashed"):
        run_ensemble(reg.get("alg.add_commutes"), ["ok", "broken"], RunConfig(),
                     backend_table=table)


def test_real_ensemble_agrees_on_a_true_property():
    reg = make_registry()
    v = run_property(reg.get("alg.add_commutes"), RunConfig(backend="ensemble"))
    assert v.kind is VerdictKind.PROVED  # exhaustive finishes the 51x51 grid


def test_real_ensemble_refutes_a_false_property():
    reg = make_registry()
    v = run_property(reg.get("alg.sub_commutes"), RunConfig(backend="ensemble"))
    assert v.kind is VerdictKind.FALSIFIED


def test_members_run_in_order_in_the_calling_thread():
    reg = make_registry()
    calls = []

    def member(verdict, name):
        def fn(prop, config, *, deadline=None):
            calls.append((name, threading.get_ident(), deadline))
            return fake_backend(verdict, name=name)(prop, config)
        return fn

    table = {
        "giveup": member(Verdict.unknown(UnknownReason.UNSUPPORTED), "giveup"),
        "winner": member(Verdict.proved("exhaustive", 100), "winner"),
        "late": member(Verdict.pass_sampled(10), "late"),
    }
    deadline = time.monotonic() + 60.0
    v = run_ensemble(reg.get("alg.add_commutes"), list(table), RunConfig(),
                     deadline=deadline, backend_table=table)
    assert v.backend == "winner"
    me = threading.get_ident()
    assert [(name, ident) for name, ident, _ in calls] \
        == [("giveup", me), ("winner", me), ("late", me)]
    # an even share of what is left until one decides; a deadline already
    # passed after, so the cross-check ends at its first poll
    shares = [d for _, _, d in calls]
    assert time.monotonic() < shares[0] < shares[1] < deadline
    assert shares[2] < time.monotonic()
    assert deadline - shares[0] > 39.0  # a third of the 60 s


def test_a_slow_member_cannot_starve_the_ones_after_it():
    # symbolic gives up on abs at once; exhaustive cannot finish 10^5 slow
    # evaluations, and under the whole deadline it would leave fuzz nothing
    def slow(x):
        time.sleep(0.0001)
        return abs(x) >= 0

    prop = Property("slow.abs", int_range(0, 10**5), slow)
    v = run_property(prop, RunConfig(backend="ensemble", cases=2048, timeout_ms=4000))
    assert v.kind is VerdictKind.PASS_SAMPLED
    assert v.backend == "fuzz"


# --------------------------------------------------------------------------
# suites

def test_suite_results_are_sorted_by_name():
    reg = make_registry()
    report = run_suite(reg, RunConfig(backend="fuzz", seed=5))
    assert [r.name for r in report.results] == sorted(r.name for r in report.results)
    assert len(report.results) == 3


def test_suite_filter_selects_by_glob():
    reg = make_registry()
    report = run_suite(reg, RunConfig(filter="alg.*"))
    assert [r.name for r in report.results] == ["alg.add_commutes", "alg.sub_commutes"]


def test_suite_is_deterministic_for_equal_configs():
    reg = make_registry()
    cfg = RunConfig(backend="fuzz", seed=11, cases=64)
    a = run_suite(reg, cfg)
    b = run_suite(reg, cfg)
    for ra, rb in zip(a.results, b.results):
        assert ra.name == rb.name
        assert ra.verdict.kind == rb.verdict.kind
        if ra.verdict.counterexample:
            assert ra.verdict.counterexample.shrunk == rb.verdict.counterexample.shrunk
    assert a.run_id != b.run_id  # identity differs even when content repeats


def test_a_crash_is_that_propertys_verdict_and_the_suite_goes_on():
    """An exception that escapes one property's check is its
    Unknown{Crashed}, naming the exception and the harness line; the
    properties after it are checked as if it were not there."""
    reg = make_registry()
    reg.register("alg.crashes", int_range(-1, 1).map(lambda a: 6 // a), lambda q: True)
    for backend in ("fuzz", "exhaustive", "ensemble"):
        report = run_suite(reg, RunConfig(backend=backend))
        alone = run_suite(make_registry(), RunConfig(backend=backend))
        crashed = report.results[1]
        assert (crashed.name, crashed.verdict.kind, crashed.verdict.reason,
                crashed.verdict.backend) == (
            "alg.crashes", VerdictKind.UNKNOWN, UnknownReason.CRASHED, backend)
        assert re.fullmatch(r"ZeroDivisionError: integer division or modulo by zero "
                            r"at test_runner\.py:\d+", crashed.verdict.detail)
        assert type(crashed.crash) is ZeroDivisionError
        others = [r for r in report.results if r is not crashed]
        assert [(r.name, r.verdict.describe(), r.crash) for r in others] == [
            (r.name, r.verdict.describe(), None) for r in alone.results]


@pytest.mark.parametrize("abort", [
    KeyboardInterrupt(),
    InconsistentBackends("p", Verdict.proved("exhaustive", 1),
                         Verdict.falsified(Counterexample(original=1, shrunk=1)))])
def test_an_interrupt_or_a_disagreement_still_ends_the_suite(monkeypatch, abort):
    def check(prop, config):
        raise abort

    monkeypatch.setattr("tricheck.runner.run_property", check)
    with pytest.raises(type(abort)):
        run_suite(make_registry(), RunConfig())


def test_suite_totals_buckets():
    reg = make_registry()
    report = run_suite(reg, RunConfig(backend="exhaustive"))
    t = report.totals()
    assert t["proved"] == 2
    assert t["falsified"] == 1
    assert t["waived"] == 0


def test_run_id_is_sixteen_hex_chars():
    rid = new_run_id()
    assert re.fullmatch(r"[0-9a-f]{16}", rid)


def test_timestamp_is_utc_second_precision():
    ts = utc_timestamp()
    assert re.fullmatch(r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z", ts)


# --------------------------------------------------------------------------
# waivers

def today():
    return dt.date(2026, 3, 10)


def report_with(*kinds):
    results = []
    for i, kind in enumerate(kinds):
        if kind is VerdictKind.FALSIFIED:
            v = falsified()
        elif kind is VerdictKind.UNKNOWN:
            v = Verdict.unknown(UnknownReason.UNSUPPORTED)
        elif kind is VerdictKind.PROVED:
            v = Verdict.proved("exhaustive", 10)
        else:
            v = Verdict.pass_sampled(10)
        results.append(PropertyResult(name=f"prop.{i}", verdict=v))
    return RunReport(run_id="0" * 16, timestamp="2026-03-10T00:00:00Z",
                     config=RunConfig(), results=results)


def test_waiver_marks_matching_failures():
    report = report_with(VerdictKind.FALSIFIED, VerdictKind.PASS_SAMPLED)
    w = Waiver("prop.0", "known breakage", dt.date(2026, 12, 31))
    apply_waivers(report, [w], today=today())
    assert report.results[0].waived is True
    assert report.results[0].waiver_reason == "known breakage"
    assert report.results[1].waived is False
    assert report.totals()["waived"] == 1
    assert report.unwaived(VerdictKind.FALSIFIED) == []


def test_waiving_never_changes_the_verdict():
    report = report_with(VerdictKind.FALSIFIED)
    before = report.results[0].verdict.kind
    apply_waivers(report, [Waiver("*", "blanket", dt.date(2026, 12, 31))],
                  today=today())
    assert report.results[0].verdict.kind is before is VerdictKind.FALSIFIED


def test_expired_waiver_is_stale_and_inert():
    report = report_with(VerdictKind.FALSIFIED)
    w = Waiver("prop.*", "too old", dt.date(2026, 3, 9))
    apply_waivers(report, [w], today=today())
    assert report.stale_waivers == ["prop.*"]
    assert report.results[0].waived is False


def test_waiver_is_honored_through_its_expiry_day():
    report = report_with(VerdictKind.FALSIFIED)
    w = Waiver("prop.*", "expires tonight", dt.date(2026, 3, 10))
    apply_waivers(report, [w], today=today())
    assert report.stale_waivers == []
    assert report.results[0].waived is True


def test_waiver_matching_only_passes_is_unused():
    report = report_with(VerdictKind.PASS_SAMPLED, VerdictKind.PROVED)
    w = Waiver("prop.*", "nothing to suppress", dt.date(2026, 12, 31))
    apply_waivers(report, [w], today=today())
    assert report.unused_waivers == ["prop.*"]
    assert all(not r.waived for r in report.results)


def test_second_waiver_does_not_overwrite_the_reason():
    report = report_with(VerdictKind.UNKNOWN)
    ws = [Waiver("prop.0", "first", dt.date(2026, 12, 31)),
          Waiver("prop.*", "second", dt.date(2026, 12, 31))]
    apply_waivers(report, ws, today=today())
    assert report.results[0].waiver_reason == "first"
    assert report.unused_waivers == []  # both suppressed a non-passing entry


def test_waiver_parse_validates_shape():
    good = {"glob": "a.*", "reason": "r", "expires": "2026-01-02"}
    w = Waiver.parse(good)
    assert w.expires == dt.date(2026, 1, 2)
    with pytest.raises(ValueError, match="unknown waiver key"):
        Waiver.parse({**good, "extra": 1})
    with pytest.raises(ValueError, match="missing key"):
        Waiver.parse({"glob": "a"})
    with pytest.raises(ValueError, match="not a date"):
        Waiver.parse({**good, "expires": "soon"})


# --------------------------------------------------------------------------
# config identity

def test_config_dict_has_the_eight_committed_keys():
    d = config_as_dict(RunConfig())
    assert list(d) == ["backend", "seed", "cases", "budget", "timeout_ms",
                       "repetition_cap", "filter", "code_fingerprint"]


def test_config_hash_ignores_the_code_fingerprint():
    a = RunConfig(code_fingerprint="aaaa")
    b = RunConfig(code_fingerprint="bbbb")
    assert config_hash(a) == config_hash(b)


def test_config_hash_tracks_every_other_field():
    base = RunConfig()
    assert config_hash(base) != config_hash(RunConfig(seed=1))
    assert config_hash(base) != config_hash(RunConfig(cases=57))
    assert config_hash(base) != config_hash(RunConfig(backend="exhaustive"))
    assert config_hash(base) != config_hash(RunConfig(filter="x.*"))
    assert re.fullmatch(r"[0-9a-f]{16}", config_hash(base))


def test_config_hash_of_the_defaults_is_stable():
    # history files group runs by this hash, so it must not move when the
    # config's serialization is refactored
    assert config_hash(RunConfig()) == "e5b1631d2a0c5bd9"


# --------------------------------------------------------------------------
# input guards

def test_property_names_are_checked():
    with pytest.raises(ValueError, match="must match"):
        Property("has space", int_range(0, 1), lambda x: True)


def test_registry_refuses_a_duplicate_name():
    reg = make_registry()
    with pytest.raises(DuplicateName):
        reg.register("alg.add_commutes", int_range(0, 1), lambda x: True)


def test_define_registers_the_decorated_predicate():
    reg = PropertyRegistry()

    @reg.define("inc", int_range(0, 9), tags=["t"])
    def inc(x):
        return x + 1 > x

    assert reg.names() == ["inc"]
    assert reg.get("inc").predicate is inc
    assert reg.get("inc").tags == ("t",)


@pytest.mark.parametrize("bad", [{"backend": "smt"}, {"seed": 1 << 64}, {"cases": 0}])
def test_run_config_rejects_bad_values(bad):
    with pytest.raises(ValueError):
        RunConfig(**bad)


def test_verdict_kinds_require_their_fields():
    with pytest.raises(ValueError, match="requires a counterexample"):
        Verdict(VerdictKind.FALSIFIED)
    with pytest.raises(ValueError, match="requires a reason"):
        Verdict(VerdictKind.UNKNOWN)
    with pytest.raises(ValueError, match="proved must not carry a counterexample"):
        Verdict(VerdictKind.PROVED, counterexample=Counterexample(1, 1))


def test_describe_flags_an_incomplete_shrink():
    v = Verdict.falsified(Counterexample(original=9, shrunk=4, seed=1, case_index=2,
                                         shrink_incomplete=True))
    assert v.describe() == "falsified shrunk=4 original=9 seed=1 case=2 (shrink incomplete)"
