"""Verdicts: the one result vocabulary every backend speaks.

A backend never returns "it crashed" or "ran out of something" ad hoc; it
returns one of four kinds, and anything short of a definitive answer must say
why it is Unknown.  Falsified always carries a concretely re-checkable
counterexample; Proved never carries one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any


class VerdictKind(Enum):
    PASS_SAMPLED = "pass_sampled"
    PROVED = "proved"
    FALSIFIED = "falsified"
    UNKNOWN = "unknown"


class UnknownReason(Enum):
    BUDGET_EXCEEDED = "budget_exceeded"
    TIMEOUT = "timeout"
    UNSUPPORTED = "unsupported"
    UNDECIDED = "undecided"
    FILTER_EXHAUSTED = "filter_exhausted"


#: Informativeness order used to pick among Unknowns, best first.
UNKNOWN_PREFERENCE = (
    UnknownReason.UNDECIDED,
    UnknownReason.BUDGET_EXCEEDED,
    UnknownReason.FILTER_EXHAUSTED,
    UnknownReason.TIMEOUT,
    UnknownReason.UNSUPPORTED,
)


@dataclass
class Counterexample:
    original: Any
    shrunk: Any
    seed: int | None = None
    case_index: int | None = None
    message: str | None = None
    shrink_incomplete: bool = False


@dataclass
class Verdict:
    kind: VerdictKind
    backend: str = ""
    duration_ms: int = 0
    cases: int | None = None            # units evaluated: samples, values or boxes
    method: str | None = None           # for Proved: "exhaustive" | "symbolic"
    reason: UnknownReason | None = None
    detail: str | None = None
    counterexample: Counterexample | None = None
    vacuity_warning: bool = False
    splits: int | None = None           # symbolic only: box splits performed

    def __post_init__(self) -> None:
        if self.kind is VerdictKind.FALSIFIED and self.counterexample is None:
            raise ValueError("Falsified requires a counterexample")
        if self.kind is not VerdictKind.FALSIFIED and self.counterexample is not None:
            raise ValueError(f"{self.kind.value} must not carry a counterexample")
        if self.kind is VerdictKind.UNKNOWN and self.reason is None:
            raise ValueError("Unknown requires a reason")

    @property
    def is_definitive(self) -> bool:
        return self.kind in (VerdictKind.PROVED, VerdictKind.FALSIFIED)

    @staticmethod
    def pass_sampled(cases: int) -> "Verdict":
        return Verdict(VerdictKind.PASS_SAMPLED, cases=cases)

    @staticmethod
    def proved(method: str, cases: int) -> "Verdict":
        return Verdict(VerdictKind.PROVED, method=method, cases=cases)

    @staticmethod
    def falsified(cex: Counterexample) -> "Verdict":
        return Verdict(VerdictKind.FALSIFIED, counterexample=cex)

    @staticmethod
    def unknown(reason: UnknownReason, detail: str | None = None,
                cases: int | None = None) -> "Verdict":
        return Verdict(VerdictKind.UNKNOWN, reason=reason, detail=detail, cases=cases)

    def describe(self) -> str:
        """One-line human rendering used by the CLI."""
        if self.kind is VerdictKind.PASS_SAMPLED:
            return f"pass ({self.cases} cases sampled)"
        if self.kind is VerdictKind.PROVED:
            extra = f", {self.cases} boxes" if self.method == "symbolic" else f", {self.cases} cases"
            note = " [vacuous]" if self.vacuity_warning else ""
            return f"proved ({self.method}{extra}){note}"
        if self.kind is VerdictKind.FALSIFIED:
            cex = self.counterexample
            parts = [f"falsified shrunk={cex.shrunk!r} original={cex.original!r}"]
            if cex.seed is not None:
                parts.append(f"seed={cex.seed}")
            if cex.case_index is not None:
                parts.append(f"case={cex.case_index}")
            if cex.message:
                parts.append(f"msg={cex.message}")
            if cex.shrink_incomplete:
                parts.append("(shrink incomplete)")
            return " ".join(parts)
        txt = f"unknown: {self.reason.value}"
        if self.detail:
            txt += f" ({self.detail})"
        return txt
