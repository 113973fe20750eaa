"""Suite execution: backend dispatch, ensemble racing, waivers.

One registry of harnesses, several ways to check it.  The runner owns the
verdict plumbing — per-property deadlines, cooperative cancellation between
racing backends, the agreement check that turns a proved-vs-falsified
disagreement into a hard error, and the bookkeeping (waivers, totals,
durations) that the CLI serializes.
"""

from __future__ import annotations

import datetime as _dt
import fnmatch
import hashlib
import json
import queue
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Sequence

from .exhaustive import run_exhaustive
from .fuzz import run_fuzz
from .harness import Property, PropertyRegistry, RunConfig
from .prng import SplitMix64
from .results import UNKNOWN_PREFERENCE, Verdict, VerdictKind
from .symbolic import run_symbolic

BackendFn = Callable[..., Verdict]

#: The three concrete checking strategies, by config name.
BUILTIN_BACKENDS: dict[str, BackendFn] = {
    "fuzz": run_fuzz,
    "exhaustive": run_exhaustive,
    "symbolic": run_symbolic,
}

#: Racing order used when config.backend == "ensemble".
ENSEMBLE_ORDER: tuple[str, ...] = ("fuzz", "exhaustive", "symbolic")


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
    """Race several backends on one property; first definitive verdict wins.

    All backends share the deadline and a stop flag that winners set; losers
    notice it within one poll interval and return a cancelled Unknown.  Any
    definitive verdicts that completed despite losing the race are
    cross-checked — one Proved plus one Falsified raises InconsistentBackends.
    With no definitive verdict at all, PassSampled beats Unknown, and among
    Unknowns the most informative reason wins.
    """
    if len(backends) < 2:
        raise ValueError("an ensemble needs at least two backends")
    table = backend_table if backend_table is not None else BUILTIN_BACKENDS
    for name in backends:
        if name not in table:
            raise ValueError(f"unknown backend {name!r}")

    stop = threading.Event()
    inbox: queue.Queue = queue.Queue()

    def work(name: str) -> None:
        try:
            verdict = table[name](prop, config, deadline=deadline, stop=stop)
        except BaseException as exc:  # noqa: BLE001 - transported to the caller
            inbox.put((name, exc))
            return
        inbox.put((name, verdict))

    threads = [threading.Thread(target=work, args=(name,), daemon=True)
               for name in backends]
    for t in threads:
        t.start()

    completed: list[Verdict] = []
    failure: BaseException | None = None
    winner: Verdict | None = None
    for _ in backends:
        _, outcome = inbox.get()
        if isinstance(outcome, BaseException):
            failure = failure or outcome
            stop.set()
            continue
        completed.append(outcome)
        if winner is None and outcome.is_definitive:
            winner = outcome
            stop.set()
    for t in threads:
        t.join()
    if failure is not None:
        raise failure

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
    deadline, ``config.timeout_ms`` from now, is set here and nowhere else."""
    deadline = time.monotonic() + config.timeout_ms / 1000.0
    if config.backend == "ensemble":
        return run_ensemble(prop, ENSEMBLE_ORDER, config, deadline=deadline)
    return BUILTIN_BACKENDS[config.backend](prop, config, deadline=deadline)


# --------------------------------------------------------------------------
# reports

@dataclass
class PropertyResult:
    name: str
    verdict: Verdict
    waived: bool = False
    waiver_reason: str | None = None


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
    """16 hex chars drawn from the generator, seeded off the wall clock."""
    return f"{SplitMix64(time.time_ns() & ((1 << 64) - 1)).next_u64():016x}"


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
    failing property (failures are verdicts), only on backend disagreement."""
    props = sorted(registry.select(config.filter))
    report = RunReport(run_id=new_run_id(), timestamp=utc_timestamp(), config=config)
    for prop in props:
        report.results.append(PropertyResult(prop.name, run_property(prop, config)))
    apply_waivers(report, waivers)
    return report


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
