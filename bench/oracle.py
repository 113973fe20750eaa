"""Checks one CLI pass against the workload's independent answers.

A check fails when a verdict kind is not one the oracle allows, when a
reported counterexample does not fail the plain predicate (or is not a
known failing value), when the exit code is not the one the verdicts imply,
and when the CLI crashes or reports inconsistent backends (exit 3).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any

from tricheck.strategies import TupleOf
from workloads import Harness

DEFINITIVE = ("proved", "falsified")
SHRINKING = ("fuzz", "exhaustive")


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    decided: int = 0
    non_minimal: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.decided += other.decided
        self.non_minimal += other.non_minimal
        self.problems.extend(other.problems)


def fails_plainly(h: Harness, value: Any) -> bool:
    """Whether the predicate, called directly, rejects ``value``.  Tuple
    domains spread their components over the arguments, as in the CLI."""
    try:
        result = h.predicate(*value) if isinstance(h.strategy, TupleOf) else h.predicate(value)
    except Exception:  # noqa: BLE001 - an abort is a failure
        return True
    return not (result is None or bool(result))


def check_pass(backend: str, rc: int | None, report: dict | None,
               harnesses: dict[str, Harness], crash: str | None = None) -> Tally:
    """Tally one ``tricheck run`` pass of ``backend`` over ``harnesses``."""
    t = Tally()
    t.attempted += 1  # the exit code
    if crash is not None or report is None:
        t.fail(f"{backend}: run crashed: {crash or 'no report written'}")
        t.attempted += len(harnesses)
        t.failed += len(harnesses)
        return t
    seen = set()
    any_falsified = False
    for r in report["results"]:
        t.attempted += 1
        name = r["name"]
        seen.add(name)
        h = harnesses.get(name)
        if h is None:
            t.fail(f"{backend}: unexpected property {name}")
            continue
        kind = r["verdict"] if r["verdict"] != "unknown" else f"unknown:{r.get('reason')}"
        any_falsified |= kind == "falsified"  # the exit code follows what was reported
        allowed = h.expects[backend]
        if kind not in allowed.kinds:
            t.fail(f"{backend}: {name} is {kind}, expected {sorted(allowed.kinds)}")
            continue
        if kind in DEFINITIVE:
            t.decided += 1
        if kind != "falsified":
            continue
        cex = r["counterexample"]
        shrunk = ast.literal_eval(cex["shrunk"])
        original = ast.literal_eval(cex["original"])
        for label, value in (("shrunk", shrunk), ("original", original)):
            if not fails_plainly(h, value) or (h.failing is not None and value not in h.failing):
                t.fail(f"{backend}: {name} {label} counterexample {value!r} does not fail")
        if (r["backend"] in SHRINKING and backend in SHRINKING
                and allowed.minimal is not None and shrunk != allowed.minimal):
            t.non_minimal += 1
    for name in harnesses.keys() - seen:
        t.attempted += 1
        t.fail(f"{backend}: no verdict for {name}")
    expected_rc = 1 if any_falsified else 0
    if rc != expected_rc:
        t.fail(f"{backend}: exit code {rc}, expected {expected_rc}")
    return t
