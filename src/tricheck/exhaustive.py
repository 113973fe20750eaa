"""Bounded-exhaustive checking: a complete enumeration is a proof.

The canonical enumeration order is fixed by the strategy combinators, but
correctness never depends on it — any traversal of the same finite domain
classifies a property identically; order only affects *which* counterexample
is found first (it is then shrunk, so even that mostly converges).
"""

from __future__ import annotations

import threading
import time

from .fuzz import shrink_failure
from .harness import (DeadlineReached, Property, RunConfig, StopRequested,
                      Ticker, eval_predicate)
from .results import Counterexample, UnknownReason, Verdict
from .strategies import (EnumStats, NotEnumerable, RejectionExhausted,
                         cardinality, iter_trees)


def run_exhaustive(prop: Property, config: RunConfig, *,
                   deadline: float | None = None,
                   stop: threading.Event | None = None) -> Verdict:
    """Prove by enumerating every value, or refute with the first failure.

    * Finite cardinality n <= budget: full enumeration; Proved only after
      one evaluation per base position walked, and no more positions than
      n (asserted).  Under ``map``, n is an upper bound, so fewer positions
      than n may be walked.
    * Finite n > budget, or TooLarge: Unknown{BudgetExceeded} without
      evaluating anything, reporting the needed count when known.
    * Unknown cardinality (a filter is present): enumerate the filtered
      stream, counting only accepted values against the budget while the
      underlying traversal is bounded by 10x budget; if the stream ends
      within both bounds the enumeration was complete and the property is
      Proved, otherwise Unknown{BudgetExceeded}.
    """
    t0 = time.monotonic()

    def finish(v: Verdict) -> Verdict:
        v.backend = "exhaustive"
        v.duration_ms = int((time.monotonic() - t0) * 1000)
        return v

    card = cardinality(prop.strategy)
    budget = config.budget
    if card.kind == "too_large":
        return finish(Verdict.unknown(UnknownReason.BUDGET_EXCEEDED,
                                      detail="domain exceeds 2**63 values"))
    if card.is_finite and card.count > budget:
        return finish(Verdict.unknown(
            UnknownReason.BUDGET_EXCEEDED,
            detail=f"needs {card.count} evaluations, budget is {budget}"))

    expected = card.count if card.is_finite else None
    ticker = Ticker(deadline, stop)
    stats = EnumStats(max_rejected=None if expected is not None else 10 * budget,
                      on_reject=ticker.tick)
    count = 0
    try:
        for tree in iter_trees(prop.strategy, stats):
            if expected is None and count >= budget:
                return finish(Verdict.unknown(
                    UnknownReason.BUDGET_EXCEEDED,
                    detail=f"accepted values exceeded budget {budget}"))
            ok, message = eval_predicate(prop, tree.current)
            ticker.tick()
            if not ok:
                # the predicate may mutate what it is given, and shrink
                # candidates share parts with their parent: shrink a tree
                # rebuilt from the base position, report one rebuilt after
                fresh = prop.strategy._unrank(tree.index)
                shrunk, incomplete = shrink_failure(prop, fresh, ticker)
                original = prop.strategy._unrank(tree.index).current
                return finish(Verdict.falsified(Counterexample(
                    original=original,
                    shrunk=original if shrunk is fresh else shrunk.current,
                    seed=None,
                    case_index=count,
                    message=message,
                    shrink_incomplete=incomplete,
                )))
            count += 1
    except RejectionExhausted as exc:
        return finish(Verdict.unknown(UnknownReason.BUDGET_EXCEEDED,
                                      detail=str(exc), cases=count))
    except NotEnumerable as exc:
        return finish(Verdict.unknown(UnknownReason.BUDGET_EXCEEDED,
                                      detail=str(exc), cases=count))
    except (DeadlineReached, StopRequested):
        return finish(Verdict.unknown(UnknownReason.TIMEOUT, cases=count))

    if expected is not None and not count == (span := prop.strategy._span()) <= expected:
        raise AssertionError(
            f"enumeration of {prop.name!r} yielded {count} values, "
            f"its span is {span}, cardinality said at most {expected}")
    verdict = Verdict.proved("exhaustive", count)
    if count == 0:
        verdict.vacuity_warning = True  # nothing satisfied the filters
    return finish(verdict)
