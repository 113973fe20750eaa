"""Self-tests of the benchmark: generation, counter determinism, oracle.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import ast
import copy
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import micro  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MODS = {"workloads": workloads, "oracle": oracle, "tracing": tracing, "micro": micro}

#: counters that must repeat exactly between two runs with the same seed
DETERMINISTIC = ("harness.evals", "exhaustive.values", "fuzz.shrink_evals",
                 "symbolic.boxes", "symbolic.splits")


def _small(wl: workloads.Workload, names: tuple[str, ...]) -> workloads.Workload:
    """The workload cut down to ``names``, to keep the tests quick."""
    kept = [h for h in wl.harnesses if h.name in names]
    return workloads.Workload(wl.name, wl.backends, wl.cases, kept,
                              workloads.registry_of(kept), wl.patterns)


def test_generation_is_a_pure_function_of_the_seed():
    for generate in (workloads.containers, workloads.arith):
        assert generate(5).fingerprint() == generate(5).fingerprint()
        assert generate(5).fingerprint() != generate(6).fingerprint()


def test_deterministic_counters_repeat_with_the_same_seed():
    wl = _small(workloads.containers(3), ("list.max", "map.values", "pattern.max",
                                          "filter.threshold", "wide.threshold"))
    wl.harnesses += _small(workloads.arith(3), ("arith.add.cancel", "arith.rem.hits")).harnesses
    wl.registry = workloads.registry_of(wl.harnesses)

    def counts():
        tracer, _, tallies = run.traced_pass(wl, MODS, 3)
        out = {name: tracer.counter(name, workloads.STANDALONE) for name in DETERMINISTIC}
        out["decided"] = sum(t.decided for t in tallies.values())
        out["non_minimal"] = sum(t.non_minimal for t in tallies.values())
        assert sum(t.failed for t in tallies.values()) == 0
        return out

    first = counts()
    assert all(first[name] > 0 for name in DETERMINISTIC), first
    assert counts() == first


def _fuzz_report(wl: workloads.Workload) -> dict:
    """The report of a real fuzz pass, which must check clean."""
    _, tally = run.run_pass(wl, MODS, "fuzz", 1)
    assert tally.failed == 0, tally.problems
    return json.loads((run.OUT / f"report-{wl.name}-fuzz.json").read_text())


def test_planted_wrong_answers_are_failed_checks():
    wl = _small(workloads.containers(1), ("list.rev_sort", "list.max", "opt.threshold"))
    report = _fuzz_report(wl)
    rc = 1  # some harness is falsified
    harnesses = wl.by_name()
    assert oracle.check_pass("fuzz", rc, report, harnesses).failed == 0

    wrong_kind = copy.deepcopy(report)
    entry = next(r for r in wrong_kind["results"] if r["name"] == "list.rev_sort")
    entry["verdict"] = "proved"
    assert oracle.check_pass("fuzz", rc, wrong_kind, harnesses).failed == 1

    passing_cex = copy.deepcopy(report)
    entry = next(r for r in passing_cex["results"] if r["name"] == "list.max")
    entry["counterexample"]["shrunk"] = "[]"
    assert oracle.check_pass("fuzz", rc, passing_cex, harnesses).failed == 1

    assert oracle.check_pass("fuzz", 0, report, harnesses).failed == 1
    assert oracle.check_pass("fuzz", 3, None, harnesses, crash="InconsistentBackends").failed \
        == 1 + len(harnesses)


def test_a_counterexample_that_is_not_minimal_is_counted():
    wl = _small(workloads.containers(1), ("list.max",))
    report = _fuzz_report(wl)
    entry = report["results"][0]
    shrunk = ast.literal_eval(entry["counterexample"]["shrunk"])
    assert shrunk == wl.harnesses[0].expects["fuzz"].minimal
    entry["counterexample"]["shrunk"] = repr(shrunk + shrunk)  # still fails, not minimal
    tally = oracle.check_pass("fuzz", 1, report, wl.by_name())
    assert (tally.failed, tally.non_minimal) == (0, 1)
