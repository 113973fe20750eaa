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
from .strategies import (EnumStats, NotEnumerable, RejectionExhausted, _tree_at,
                         cardinality, iter_trees)


@backend("exhaustive")
def run_exhaustive(prop: Property, config: RunConfig, ticker: Ticker) -> Verdict:
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
    trees = iter_trees(prop.strategy, stats)
    limit = None if card.is_finite else budget  # a finite domain is within budget
    count, left = 0, ticker.lease()
    try:
        # each pass walks the units leased up to the next poll, or to the limit
        while True:
            size = left if limit is None else min(left, limit - count)
            start = count
            for count, tree in enumerate(islice(trees, size), count + 1):
                ok, message = eval_predicate(prop, tree.current)
                # checked before the poll, so a failure on a poll boundary is
                # reported even when time is up; the failing unit still counts
                if not ok:
                    ticker.release(left - (count - start))
                    # the predicate may mutate what it is given, so it sees only
                    # fresh replays; the position replayed here never is
                    root = _tree_at(prop.strategy, tree.index)
                    return falsified(root, shrink_failure(prop, root, ticker),
                                     None, count - 1, message)
            if count - start < size:
                break  # the stream ended
            if size == left:
                left = ticker.renew()
            if count == limit:
                if next(trees, None) is None:
                    break
                return Verdict.unknown(
                    UnknownReason.BUDGET_EXCEEDED,
                    detail=f"accepted values exceeded budget {budget}")
    except (RejectionExhausted, NotEnumerable) as exc:
        return Verdict.unknown(UnknownReason.BUDGET_EXCEEDED, detail=str(exc), cases=count)
    except DeadlineReached:
        return Verdict.unknown(UnknownReason.TIMEOUT, cases=count)

    if card.is_finite and not count == (span := prop.strategy._span()) <= card.count:
        raise AssertionError(
            f"enumeration of {prop.name!r} yielded {count} values, "
            f"its span is {span}, cardinality said at most {card.count}")
    verdict = Verdict.proved("exhaustive", count)
    verdict.vacuity_warning = count == 0  # nothing satisfied the filters
    return verdict
