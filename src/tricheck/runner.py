"""Suite execution: backend dispatch, the ensemble, waivers.

One registry of harnesses, several ways to check it.  The runner owns the
verdict plumbing — per-property deadlines, the ensemble that runs backends
in a fixed order and cross-checks them, the agreement check that turns a
proved-vs-falsified disagreement into a hard error, and the bookkeeping
(waivers, totals, durations) that the CLI serializes.
"""

from __future__ import annotations

import datetime as _dt
import fnmatch
import hashlib
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Sequence

from .exhaustive import run_exhaustive
from .fuzz import run_fuzz
from .harness import Property, PropertyRegistry, RunConfig, raised_at
from .results import UNKNOWN_PREFERENCE, UnknownReason, Verdict, VerdictKind
from .symbolic import run_symbolic

BackendFn = Callable[..., Verdict]

#: The three concrete checking strategies, by config name.
BUILTIN_BACKENDS: dict[str, BackendFn] = {
    "fuzz": run_fuzz,
    "exhaustive": run_exhaustive,
    "symbolic": run_symbolic,
}

#: The order config.backend == "ensemble" runs backends in.  Symbolic decides
#: a whole domain without enumerating it and gives up at once on what it
#: cannot symbolize; exhaustive gives up at once on a domain over budget;
#: fuzz, which only samples, goes last.
ENSEMBLE_ORDER: tuple[str, ...] = ("symbolic", "exhaustive", "fuzz")

#: Ensemble members that only sample, so never return Proved: after a
#: Falsified winner, whose counterexample the real predicate has already
#: failed, they cannot contradict it, and the ensemble does not run them.
SAMPLERS: frozenset[str] = frozenset({"fuzz"})


class InconsistentBackends(Exception):
    """Two backends returned contradictory definitive verdicts for the same
    property.  Falsified verdicts are concretely re-checked before being
    reported, so this is a checker bug, never a flaky harness — it aborts the
    run instead of becoming a verdict."""

    def __init__(self, prop_name: str, first: Verdict, second: Verdict) -> None:
        super().__init__(
            f"backends disagree on {prop_name!r}: "
            f"{first.backend} says {first.kind.value}, "
            f"{second.backend} says {second.kind.value}")
        self.prop_name = prop_name
        self.first = first
        self.second = second


def run_ensemble(prop: Property, backends: Sequence[str], config: RunConfig, *,
                 deadline: float | None = None,
                 backend_table: dict[str, BackendFn] | None = None) -> Verdict:
    """Run several backends on one property in a fixed order, in the calling
    thread; the first definitive verdict wins and the rest cross-check it.

    Until one decides, member ``i`` of ``m`` gets an even share of what is
    left of the deadline, ``(deadline - now) / (m - i)``, so a slow member
    cannot starve the ones after it and time a member leaves unused passes
    on.  Every member after the winner gets a deadline that has already
    passed, so it ends at its first poll, with one poll interval of work done:
    enough to finish a small domain or sample; after a Falsified winner a
    member in SAMPLERS is not run at all.  Definitive verdicts that
    completed are cross-checked: one Proved plus one Falsified raises
    InconsistentBackends.  With no definitive verdict at all, PassSampled
    beats Unknown, and among Unknowns the most informative reason wins.
    """
    if len(backends) < 2:
        raise ValueError("an ensemble needs at least two backends")
    table = backend_table if backend_table is not None else BUILTIN_BACKENDS
    for name in backends:
        if name not in table:
            raise ValueError(f"unknown backend {name!r}")

    completed: list[Verdict] = []
    winner: Verdict | None = None
    for i, name in enumerate(backends):
        share = deadline
        if winner is not None:
            if name in SAMPLERS and winner.kind is VerdictKind.FALSIFIED:
                continue  # it cannot say Proved, the one verdict that would contradict
            share = -math.inf  # already passed: it ends at its first poll
        elif deadline is not None:
            now = time.monotonic()
            share = min(deadline, now + (deadline - now) / (len(backends) - i))
        verdict = table[name](prop, config, deadline=share)
        completed.append(verdict)
        if winner is None and verdict.is_definitive:
            winner = verdict

    proved = [v for v in completed if v.kind is VerdictKind.PROVED]
    falsified = [v for v in completed if v.kind is VerdictKind.FALSIFIED]
    if proved and falsified:
        raise InconsistentBackends(prop.name, proved[0], falsified[0])
    if winner is not None:
        return winner

    for v in completed:
        if v.kind is VerdictKind.PASS_SAMPLED:
            return v
    unknowns = [v for v in completed if v.kind is VerdictKind.UNKNOWN]
    return min(unknowns, key=lambda v: UNKNOWN_PREFERENCE.index(v.reason))


def run_property(prop: Property, config: RunConfig) -> Verdict:
    """Check one property under config.backend (ensemble included); its
    deadline, ``config.timeout_ms`` from now, is set here and nowhere else.
    An exception the check raises leaves with ``while_checking`` set to the
    property's name, which the CLI's error line shows under ``replay``."""
    deadline = time.monotonic() + config.timeout_ms / 1000.0
    try:
        if config.backend == "ensemble":
            return run_ensemble(prop, ENSEMBLE_ORDER, config, deadline=deadline)
        return BUILTIN_BACKENDS[config.backend](prop, config, deadline=deadline)
    except Exception as exc:
        exc.while_checking = prop.name
        raise


# --------------------------------------------------------------------------
# reports

@dataclass
class PropertyResult:
    name: str
    verdict: Verdict
    waived: bool = False
    waiver_reason: str | None = None
    #: what the check raised, for an Unknown{Crashed} verdict
    crash: Exception | None = None


@dataclass
class RunReport:
    run_id: str
    timestamp: str
    config: RunConfig
    results: list[PropertyResult] = field(default_factory=list)
    stale_waivers: list[str] = field(default_factory=list)
    unused_waivers: list[str] = field(default_factory=list)

    def totals(self) -> dict[str, int]:
        counts = {"passed": 0, "proved": 0, "falsified": 0, "unknown": 0, "waived": 0}
        key = {
            VerdictKind.PASS_SAMPLED: "passed",
            VerdictKind.PROVED: "proved",
            VerdictKind.FALSIFIED: "falsified",
            VerdictKind.UNKNOWN: "unknown",
        }
        for r in self.results:
            counts[key[r.verdict.kind]] += 1
            if r.waived:
                counts["waived"] += 1
        return counts

    def unwaived(self, kind: VerdictKind) -> list[PropertyResult]:
        return [r for r in self.results if r.verdict.kind is kind and not r.waived]


def new_run_id() -> str:
    """16 hex chars from the operating system's random source."""
    return os.urandom(8).hex()


def utc_timestamp() -> str:
    now = _dt.datetime.now(_dt.timezone.utc).replace(microsecond=0)
    return now.isoformat().replace("+00:00", "Z")


def config_as_dict(config: RunConfig) -> dict:
    """Every field of ``config``, in declaration order."""
    return asdict(config)


def config_hash(config: RunConfig) -> str:
    """Equality token for history grouping.  The code fingerprint is tracked
    as its own history column, so it is left out here."""
    payload = config_as_dict(config)
    del payload["code_fingerprint"]
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def run_suite(registry: PropertyRegistry, config: RunConfig,
              waivers: Iterable["Waiver"] = ()) -> RunReport:
    """Run every selected property under its own deadline; never aborts on a
    failing or crashing property (both are verdicts), only on backend
    disagreement or an interrupt."""
    props = sorted(registry.select(config.filter))
    report = RunReport(run_id=new_run_id(), timestamp=utc_timestamp(), config=config)
    for prop in props:
        report.results.append(_checked(prop, config))
    apply_waivers(report, waivers)
    return report


def _checked(prop: Property, config: RunConfig) -> PropertyResult:
    """``prop``'s result; an exception that escapes its check is
    Unknown{Crashed}, its detail naming the exception and the harness line
    it came through."""
    t0 = time.monotonic()
    try:
        return PropertyResult(prop.name, run_property(prop, config))
    except InconsistentBackends:
        raise
    except Exception as exc:  # noqa: BLE001 - a crash is this property's verdict
        verdict = Verdict.unknown(UnknownReason.CRASHED,
                                  detail=f"{type(exc).__name__}: {exc}{raised_at(exc)}")
        verdict.backend = config.backend
        verdict.duration_ms = int((time.monotonic() - t0) * 1000)
        return PropertyResult(prop.name, verdict, crash=exc)


# --------------------------------------------------------------------------
# waivers

@dataclass(frozen=True)
class Waiver:
    """A declared, expiring suppression: glob over property names, a human
    reason, and the last day it is honored."""

    glob: str
    reason: str
    expires: _dt.date

    @staticmethod
    def parse(obj: dict) -> "Waiver":
        if not isinstance(obj, dict):
            raise ValueError(f"waiver entry must be an object, got {type(obj).__name__}")
        extra = set(obj) - {"glob", "reason", "expires"}
        if extra:
            raise ValueError(f"unknown waiver key: {sorted(extra)[0]}")
        missing = {"glob", "reason", "expires"} - set(obj)
        if missing:
            raise ValueError(f"waiver missing key: {sorted(missing)[0]}")
        if not isinstance(obj["glob"], str) or not isinstance(obj["reason"], str):
            raise ValueError("waiver glob and reason must be strings")
        try:
            expires = _dt.date.fromisoformat(obj["expires"])
        except (TypeError, ValueError):
            raise ValueError(f"waiver expires is not a date: {obj['expires']!r}") from None
        return Waiver(obj["glob"], obj["reason"], expires)


def apply_waivers(report: RunReport, waivers: Iterable[Waiver], *,
                  today: _dt.date | None = None) -> RunReport:
    """Mark matching non-passing entries waived.  Verdicts are untouched —
    waiving only changes failure accounting.  A waiver past its expiry date is
    ignored and listed as stale; an active one that suppresses nothing is
    listed as unused."""
    if today is None:
        today = _dt.datetime.now(_dt.timezone.utc).date()
    report.stale_waivers = []
    report.unused_waivers = []
    for w in waivers:
        if today > w.expires:
            report.stale_waivers.append(w.glob)
            continue
        used = False
        for r in report.results:
            if r.verdict.kind in (VerdictKind.FALSIFIED, VerdictKind.UNKNOWN) \
                    and fnmatch.fnmatchcase(r.name, w.glob):
                if not r.waived:
                    r.waived = True
                    r.waiver_reason = w.reason
                used = True
        if not used:
            report.unused_waivers.append(w.glob)
    return report
