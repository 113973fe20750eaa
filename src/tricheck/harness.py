"""Properties, the registry, run configuration, and shared execution plumbing."""

from __future__ import annotations

import functools
import os
import re
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from .patterns import DEFAULT_REPETITION_CAP
from .results import UnknownReason, Verdict
from .strategies import Strategy, TupleOf, Uninterpreted

NAME_PATTERN = re.compile(r"[A-Za-z0-9_.:-]+\Z")

#: Backends poll the deadline once per this many evaluations.
POLL_INTERVAL = 1024

#: The checker's own directory; of its modules only the built-in corpus is
#: a harness.
_PACKAGE = os.path.dirname(__file__)
_CORPUS = os.path.join(_PACKAGE, "corpus.py")


class DuplicateName(ValueError):
    """A property name was registered twice."""


@dataclass(frozen=True)
class Property:
    """A named harness: a strategy plus a predicate over its values.

    When the strategy is a tuple the predicate receives the components as
    separate arguments, so a two-parameter harness reads like a function of
    two variables.  The predicate may return a boolean (or None, meaning
    pass) or signal failure by raising; under the symbolic backend it runs
    over carrier values and must build its result from carrier operations.
    """

    name: str
    strategy: Strategy
    predicate: Callable[..., Any]
    tags: tuple[str, ...] = ()
    #: whether the predicate takes a tuple's components as separate arguments
    unpack: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not NAME_PATTERN.fullmatch(self.name):
            raise ValueError(
                f"property name {self.name!r} must match [A-Za-z0-9_.:-]+")
        object.__setattr__(self, "unpack", isinstance(self.strategy, TupleOf))

    def __lt__(self, other: "Property") -> bool:
        return self.name < other.name


class PropertyRegistry:
    """Insertion-ordered collection of uniquely named properties."""

    def __init__(self) -> None:
        self._props: dict[str, Property] = {}

    def register(self, name: str, strategy: Strategy,
                 predicate: Callable[..., Any],
                 tags: tuple[str, ...] | list[str] = ()) -> Property:
        if name in self._props:
            raise DuplicateName(f"property {name!r} is already registered")
        prop = Property(name, strategy, predicate, tuple(tags))
        self._props[name] = prop
        return prop

    def define(self, name: str, strategy: Strategy,
               tags: tuple[str, ...] | list[str] = ()):
        """Decorator sugar: ``@registry.define("inc", int_range(0, 9))``."""
        def deco(fn: Callable[..., Any]) -> Callable[..., Any]:
            self.register(name, strategy, fn, tags)
            return fn
        return deco

    def get(self, name: str) -> Property:
        return self._props[name]

    def names(self) -> list[str]:
        return list(self._props)

    def select(self, glob: str | None = None) -> list[Property]:
        import fnmatch
        props = list(self._props.values())
        if glob is None:
            return props
        return [p for p in props if fnmatch.fnmatchcase(p.name, glob)]

    def __len__(self) -> int:
        return len(self._props)

    def __iter__(self) -> Iterator[Property]:
        return iter(self._props.values())

    def __contains__(self, name: str) -> bool:
        return name in self._props


@dataclass(frozen=True)
class RunConfig:
    """Everything that can vary between runs, in one committable value.

    Two runs with equal configs (and equal code) are comparable; the history
    file hashes this to decide which runs may be judged against each other.
    ``repetition_cap`` bounds ``*``/``+`` in the built-in corpus's patterns
    only: a harness module's ``pattern`` calls keep their own cap.
    """

    backend: str = "fuzz"
    seed: int = 0
    cases: int = 256
    budget: int = 1 << 20
    timeout_ms: int = 10_000
    repetition_cap: int = DEFAULT_REPETITION_CAP
    filter: str | None = None
    code_fingerprint: str = "unknown"

    def __post_init__(self) -> None:
        if self.backend not in ("fuzz", "exhaustive", "symbolic", "ensemble"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if not (0 <= self.seed < 1 << 64):
            raise ValueError("seed must fit in 64 bits")
        for name in ("cases", "budget", "timeout_ms", "repetition_cap"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")


class DeadlineReached(Exception):
    """Internal control flow: the per-property deadline passed."""


class Ticker:
    """Counts evaluations; every POLL_INTERVAL it checks the deadline.
    ``tick`` counts one.  A backend's per-unit loop counts down locally
    instead: ``left = ticker.lease()``, then on each unit ``left -= 1`` (or
    the ``left`` units walked as one slice, as exhaustive does) and, at 0,
    ``left = ticker.renew()``, which polls; it hands back the units it did not
    use with ``release(left)`` before anything else ticks.  So one cadence
    runs through the whole run, shrinking and every symbolic alternative
    included.  A deadline that has already passed when the run starts, as for
    an ensemble member after the winner, still leaves the first POLL_INTERVAL
    units to run: the run ends at its first poll.  A lessee that spends its
    lease's last unit, or more, without renewing leaves the poll owed
    (``owed``): the next lease is empty, so its first unit renews."""

    __slots__ = ("deadline", "count", "owed")

    def __init__(self, deadline: float | None = None) -> None:
        self.deadline = deadline
        self.count = 0
        self.owed = False

    def tick(self, n: int = 1) -> None:
        before = self.count
        self.count = before + n
        if before // POLL_INTERVAL != self.count // POLL_INTERVAL:
            self.poll()

    def lease(self) -> int:
        """Count ahead to the next poll boundary; returns the units leased,
        none while a poll is owed."""
        if self.owed:
            self.owed = False
            return 0
        left = POLL_INTERVAL - self.count % POLL_INTERVAL
        self.count += left
        return left

    def renew(self) -> int:
        """Poll, then lease the next whole interval."""
        self.poll()
        self.count += POLL_INTERVAL
        return POLL_INTERVAL

    def release(self, left: int) -> None:
        """Hand back ``left`` leased units that were not used; 0 or fewer
        (units spent past the lease) leaves the poll owed."""
        self.count -= left
        self.owed = left <= 0

    def poll(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise DeadlineReached


def backend(name: str) -> Callable[[Callable[..., Verdict]], Callable[..., Verdict]]:
    """Decorator making a backend body ``run(prop, config, ticker)`` the entry
    point ``(prop, config, *, deadline=None)``: the deadline becomes the run's
    Ticker, and every verdict is stamped with the backend's ``name`` and the
    run's wall time, so no backend builds or records any of them.  A strategy
    node without an interpretation the body reads (a user ``Strategy`` with
    only ``_draw``, under exhaustive) is Unknown{Unsupported}, naming both."""
    def decorate(run: Callable[[Property, RunConfig, Ticker], Verdict]) -> Callable[..., Verdict]:
        def stamped(prop: Property, config: RunConfig, *, deadline: float | None = None) -> Verdict:
            t0 = time.monotonic()
            try:
                verdict = run(prop, config, Ticker(deadline))
            except Uninterpreted as exc:
                verdict = Verdict.unknown(UnknownReason.UNSUPPORTED, detail=str(exc))
            verdict.backend = name
            verdict.duration_ms = int((time.monotonic() - t0) * 1000)
            return verdict
        functools.update_wrapper(stamped, run, ("__module__", "__name__", "__qualname__", "__doc__"))
        del stamped.__wrapped__  # its signature is the keyword, not the body's
        return stamped
    return decorate


def _harness_line(name: str, line: int) -> str:
    """`` at <file>:<line>`` if file ``name`` is a harness's, else ``""``: a
    file outside the checker's own modules and the code it generates
    (``<tricheck …>``), or the built-in corpus."""
    if name == _CORPUS or not (name.startswith("<tricheck") or os.path.dirname(name) == _PACKAGE):
        return f" at {name.rsplit('/', 1)[-1]}:{line}"
    return ""


def raised_at(exc: BaseException) -> str:
    """`` at <file>:<line>`` of the innermost harness frame of ``exc``'s
    traceback, or ``""`` (see ``_harness_line``)."""
    at, tb = "", exc.__traceback__
    while tb is not None:
        at = _harness_line(tb.tb_frame.f_code.co_filename, tb.tb_lineno) or at
        tb = tb.tb_next
    return at


def called_at(frame: Any) -> str:
    """`` at <file>:<line>`` of the innermost harness frame among ``frame``
    and its callers, or ``""`` (see ``_harness_line``)."""
    while frame is not None:
        at = _harness_line(frame.f_code.co_filename, frame.f_lineno)
        if at:
            return at
        frame = frame.f_back
    return ""


def eval_predicate(prop: Property, value: Any) -> tuple[bool, str | None]:
    """Run the predicate on a concrete value.

    Returns (ok, message).  None and truthy results pass; falsy results and
    any raise fail — a predicate abort, or a result whose truth test raises,
    is a counterexample, with the abort text attached.
    """
    try:
        if prop.unpack:
            result = prop.predicate(*value)
        else:
            result = prop.predicate(value)
        if result is None or result is True or result:
            return True, None
    except Exception as exc:  # noqa: BLE001 - aborts are verdict data here
        return False, f"{type(exc).__name__}: {exc}"
    return False, "predicate returned a falsy value"
