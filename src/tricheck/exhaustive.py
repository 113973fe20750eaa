"""Bounded-exhaustive checking: a complete enumeration is a proof.

The canonical enumeration order is fixed by the strategy combinators, but
correctness never depends on it — any traversal of the same finite domain
classifies a property identically; order only affects *which* counterexample
is found first (it is then shrunk, so even that mostly converges).
"""

from __future__ import annotations

from itertools import islice

from .fuzz import falsified, shrink_failure
from .harness import DeadlineReached, Property, RunConfig, Ticker, backend, eval_predicate
from .results import UnknownReason, Verdict
# ``iter_trees`` here is the walk of values, under the name through which
# ``bench/tracing.py`` and ``tests/test_hooks.py`` count one step per
# enumerated value; ROADMAP item 2 renames it once the benchmark reads
# counters from verdicts
from .strategies import (EnumStats, NotEnumerable, RejectionExhausted, _replay, cardinality,
                         walk as iter_trees)


@backend("exhaustive")
def run_exhaustive(prop: Property, config: RunConfig, ticker: Ticker) -> Verdict:
    """Prove by enumerating every value, or refute with the first failure.

    The walk yields values and builds no tree; only a failing value is
    rebuilt, replayed from the choices the walk gives for it, and shrunk.

    * Finite cardinality n <= budget: full enumeration; Proved only after
      one evaluation per value walked, and no more values than n
      (asserted).  Under ``map``, n is an upper bound, so fewer values than
      n may be walked.
    * Finite n > budget, or TooLarge: Unknown{BudgetExceeded} without
      evaluating anything, reporting the needed count when known.
    * Unknown cardinality (a filter is present): enumerate the filtered
      stream, counting only accepted values against the budget while the
      underlying traversal is bounded by 10x budget; if the stream ends
      within both bounds the enumeration was complete and the property is
      Proved, otherwise Unknown{BudgetExceeded}.
    """
    card = cardinality(prop.strategy)
    budget = config.budget
    if card.kind == "too_large":
        return Verdict.unknown(UnknownReason.BUDGET_EXCEEDED,
                               detail="domain exceeds 2**63 values")
    if card.is_finite and card.count > budget:
        return Verdict.unknown(
            UnknownReason.BUDGET_EXCEEDED,
            detail=f"needs {card.count} evaluations, budget is {budget}")

    # a finite cardinality means no filter, so the bound only binds under one
    stats = EnumStats(max_rejected=10 * budget, on_reject=ticker.tick)
    values = iter_trees(prop.strategy, stats)
    limit = None if card.is_finite else budget  # a finite domain is within budget
    count, left = 0, ticker.lease()
    try:
        # each pass walks the units leased up to the next poll, or to the limit
        while True:
            size = left if limit is None else min(left, limit - count)
            start = count
            for value in islice(values, size):
                count += 1
                ok, message = eval_predicate(prop, value)
                # checked before the poll, so a failure on a poll boundary is
                # reported even when time is up; the failing unit still counts
                if not ok:
                    ticker.release(left - (count - start))
                    # the predicate may mutate what it is given, so it sees only
                    # fresh replays; the walk's choices, read from ``stats`` (a
                    # caller may wrap its iterator), never read a value
                    root = _replay(prop.strategy, stats.choices())
                    return falsified(root, shrink_failure(prop, root, ticker),
                                     None, count - 1, message)
            if count - start < size:
                break  # the stream ended
            if size == left:
                left = ticker.renew()
            if count == limit:
                for _ in values:  # a value may be None, so no default of next() marks the end
                    return Verdict.unknown(
                        UnknownReason.BUDGET_EXCEEDED,
                        detail=f"accepted values exceeded budget {budget}")
                break
    except (RejectionExhausted, NotEnumerable) as exc:
        return Verdict.unknown(UnknownReason.BUDGET_EXCEEDED, detail=str(exc), cases=count)
    except DeadlineReached:
        return Verdict.unknown(UnknownReason.TIMEOUT, cases=count)

    if card.is_finite and count > card.count:
        raise AssertionError(f"enumeration of {prop.name!r} yielded {count} values, "
                             f"cardinality said at most {card.count}")
    verdict = Verdict.proved("exhaustive", count)
    verdict.vacuity_warning = count == 0  # nothing satisfied the filters
    return verdict
