"""In-memory spans and counters around tricheck's public entry points.

``Tracer.installed()`` wraps, for the duration of a ``with`` block:

* every entry of ``runner.BUILTIN_BACKENDS`` and ``runner.run_ensemble``;
* ``shrink_failure`` as bound in ``tricheck.fuzz`` and ``tricheck.exhaustive``;
* ``symbolic.symbolize`` and ``symbolic.branch_and_prune``;
* ``exhaustive.iter_trees``, timing each ``next``;
* ``cli.write_report``;
* ``eval_predicate`` as bound in the fuzz and exhaustive modules, and the
  outermost ``truth_eval``/``interval_eval`` calls, which recurse through
  their module globals;
* ``SplitMix64.next_u64``.

The per-call hooks (predicate evaluations, enumeration steps, box
evaluations, PRNG draws) are aggregated into counters and leaf times rather
than spans.  Counters are kept per thread and per phase (the backend pass
running), so recording needs no lock and the deterministic counters can be
summed over the standalone passes only.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

from tricheck import cli, exhaustive, fuzz, runner, symbolic
from tricheck.prng import SplitMix64

_now = time.perf_counter


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    thread: int
    t0: float
    t1: float = 0.0
    attrs: dict = field(default_factory=dict)
    children: list = field(default_factory=list)   # child spans
    leaf_time: float = 0.0                         # aggregated leaf work inside


#: span name -> layer its self time is charged to
SPAN_LAYER = {
    "cli.main": "cli",
    "cli.write_report": "cli.report",
    "runner.run_ensemble": "runner",
    "backend.fuzz": "fuzz",
    "backend.exhaustive": "exhaustive",
    "backend.symbolic": "symbolic",
    "fuzz.shrink_failure": "fuzz.shrink",
    "symbolic.symbolize": "symbolic",
    "symbolic.branch_and_prune": "symbolic",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = "setup"
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self._adopt: Span | None = None   # parent for spans on ensemble threads

    # -- recording ---------------------------------------------------------

    def _state(self) -> "_ThreadState":
        """This thread's stack and tallies; lock-free after the first call."""
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(state)
        return state

    def _stack(self) -> list[Span]:
        return self._state().stack

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        parent = stack[-1] if stack else self._adopt
        with self._lock:
            s = Span(len(self.spans) + 1, parent.sid if parent else None, name,
                     threading.get_ident(), _now(), attrs=attrs)
            self.spans.append(s)
            if parent is not None:
                parent.children.append(s)
        stack.append(s)
        try:
            yield s
        finally:
            s.t1 = _now()
            stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self._state().counters[self.phase, name] += n

    def leaf(self, layer: str, seconds: float, counter: str | None = None) -> None:
        """Aggregated work that is not worth a span of its own."""
        state = self._state()
        state.leaf_time[layer] += seconds
        if state.stack:
            state.stack[-1].leaf_time += seconds
        if counter is not None:
            state.counters[self.phase, counter] += 1
            if state.shrinking:
                state.counters[self.phase, "fuzz.shrink_evals"] += 1

    # -- wrappers ----------------------------------------------------------

    def _wrap_backend(self, name: str, fn):
        def traced(prop, config, **kw):
            with self.span(f"backend.{name}", prop=prop.name) as s:
                verdict = fn(prop, config, **kw)
                s.attrs["kind"] = verdict.kind.value
                return verdict
        return traced

    def _wrap_ensemble(self, fn):
        def traced(prop, backends, config, **kw):
            with self.span("runner.run_ensemble", prop=prop.name) as s:
                self._adopt = s
                try:
                    verdict = fn(prop, backends, config, **kw)
                finally:
                    self._adopt = None
                s.attrs["winner"] = verdict.backend if verdict.is_definitive else None
                return verdict
        return traced

    def _wrap_span(self, name: str, fn):
        def traced(*args, **kw):
            with self.span(name):
                return fn(*args, **kw)
        return traced

    def _wrap_shrink(self, fn):
        def traced(*args, **kw):
            self.count("fuzz.shrinks")
            state = self._state()
            state.shrinking += 1
            try:
                with self.span("fuzz.shrink_failure"):
                    return fn(*args, **kw)
            finally:
                state.shrinking -= 1
        return traced

    def _wrap_branch_and_prune(self, fn):
        def traced(*args, **kw):
            with self.span("symbolic.branch_and_prune"):
                out = fn(*args, **kw)
            self.count("symbolic.boxes", out.boxes)
            self.count("symbolic.splits", out.splits)
            return out
        return traced

    def _wrap_eval(self, fn):
        def traced(prop, value):
            t0 = _now()
            try:
                return fn(prop, value)
            finally:
                self.leaf("harness", _now() - t0, "harness.evals")
        return traced

    def _wrap_iter_trees(self, fn):
        tracer = self

        def traced(strategy, stats=None):
            it = fn(strategy, stats)

            def steps():
                try:
                    while True:
                        t0 = _now()
                        try:
                            tree = next(it)
                        except StopIteration:
                            tracer.leaf("strategies", _now() - t0)
                            return
                        tracer.leaf("strategies", _now() - t0, "exhaustive.values")
                        yield tree
                finally:
                    if stats is not None:
                        tracer.count("strategies.filter_rejections", stats.rejected)
            return steps()
        return traced

    def _wrap_outermost(self, counter: str, fn):
        def traced(*args):
            state = self._state()
            if state.in_eval:
                return fn(*args)
            state.in_eval = True
            t0 = _now()
            try:
                return fn(*args)
            finally:
                state.in_eval = False
                self.leaf("symbolic", _now() - t0, counter)
        return traced

    def _wrap_u64(self, fn):
        def traced(rng):
            self.count("prng.u64")
            return fn(rng)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap the entry points above; restore every original on exit."""
        patches = [(runner, "run_ensemble", self._wrap_ensemble(runner.run_ensemble)),
                   (cli, "write_report", self._wrap_span("cli.write_report", cli.write_report)),
                   (symbolic, "symbolize",
                    self._wrap_span("symbolic.symbolize", symbolic.symbolize)),
                   (symbolic, "branch_and_prune",
                    self._wrap_branch_and_prune(symbolic.branch_and_prune)),
                   (symbolic, "truth_eval",
                    self._wrap_outermost("symbolic.truth_evals", symbolic.truth_eval)),
                   (symbolic, "interval_eval",
                    self._wrap_outermost("symbolic.interval_evals", symbolic.interval_eval)),
                   (exhaustive, "iter_trees", self._wrap_iter_trees(exhaustive.iter_trees)),
                   (SplitMix64, "next_u64", self._wrap_u64(SplitMix64.next_u64))]
        for module in (fuzz, exhaustive):
            patches.append((module, "shrink_failure", self._wrap_shrink(module.shrink_failure)))
            patches.append((module, "eval_predicate", self._wrap_eval(module.eval_predicate)))
        backends = dict(runner.BUILTIN_BACKENDS)
        saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
        try:
            for obj, attr, wrapped in patches:
                setattr(obj, attr, wrapped)
            for name, fn in backends.items():
                runner.BUILTIN_BACKENDS[name] = self._wrap_backend(name, fn)
            yield self
        finally:
            for obj, attr, original in saved:
                setattr(obj, attr, original)
            runner.BUILTIN_BACKENDS.update(backends)

    # -- analysis ----------------------------------------------------------

    def counter(self, name: str, phases) -> int:
        return sum(t.counters.get((p, name), 0) for t in self._threads for p in phases)

    def self_times(self) -> dict[str, float]:
        """Seconds per layer, each span's duration minus the union of its
        children's intervals and the leaf work inside it, plus leaf work."""
        out: dict[str, float] = defaultdict(float)
        for t in self._threads:
            for layer, seconds in t.leaf_time.items():
                out[layer] += seconds
        for s in self.spans:
            covered = _union_length([(c.t0, c.t1) for c in s.children])
            out[SPAN_LAYER.get(s.name, s.name)] += (s.t1 - s.t0) - covered - s.leaf_time
        return dict(out)

    def ensemble_races(self) -> list[tuple[Span, Span, float]]:
        """(ensemble span, winning backend span, last backend return) for
        every race some backend decided."""
        races = []
        for s in self.spans:
            if s.name != "runner.run_ensemble" or s.attrs.get("winner") is None:
                continue
            members = [c for c in s.children if c.name.startswith("backend.")]
            winner = min((c for c in members if c.attrs.get("kind") in ("proved", "falsified")),
                         key=lambda c: c.t1)
            races.append((s, winner, max(c.t1 for c in members)))
        return races

    def write(self, path: str) -> None:
        """Chrome trace-event JSON (load it in Perfetto or chrome://tracing)."""
        base = min((s.t0 for s in self.spans), default=0.0)
        events = [{"name": s.name, "ph": "X", "pid": 1, "tid": s.thread,
                   "ts": (s.t0 - base) * 1e6, "dur": (s.t1 - s.t0) * 1e6,
                   "args": {"id": s.sid, "parent": s.parent, **s.attrs}}
                  for s in self.spans]
        counters: dict[str, dict[str, int]] = defaultdict(dict)
        for t in self._threads:
            for (phase, name), n in t.counters.items():
                counters[phase][name] = counters[phase].get(name, 0) + n
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "counters": counters}, fh)


class _ThreadState:
    """Per-thread span stack and tallies, merged when the trace is read."""

    __slots__ = ("stack", "counters", "leaf_time", "shrinking", "in_eval")

    def __init__(self) -> None:
        self.stack: list[Span] = []
        self.counters: dict[tuple[str, str], int] = defaultdict(int)
        self.leaf_time: dict[str, float] = defaultdict(float)
        self.shrinking = 0
        self.in_eval = False


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total
