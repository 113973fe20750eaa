"""Randomized checking: seeded sampling plus greedy shrinking.

Given the same property, seed and case count, a run is bit-reproducible:
the verdict, every intermediate draw and the shrink chain are pure functions
of the inputs.  There is no coverage feedback and no process isolation —
this backend is the cheap, always-available end of the spectrum.
"""

from __future__ import annotations

from .harness import DeadlineReached, Property, RunConfig, Ticker, backend, eval_predicate
from .prng import SplitMix64
from .results import Counterexample, UnknownReason, Verdict
from .strategies import RejectionExhausted, ValueTree, _GenContext, random_tree


def shrink_failure(prop: Property, failing: ValueTree,
                   ticker: Ticker | None = None) -> tuple[ValueTree, bool]:
    """Greedy descent: repeatedly move to the first (simplest) candidate that
    still fails, until none does.  Returns (local minimum, incomplete flag);
    the flag is set when the deadline cut the descent short, in which case
    the best tree found so far is returned.

    Every candidate evaluation counts against the deadline.
    """
    node = failing
    while True:
        moved = False
        for cand in node.candidates():
            try:
                ok, _ = eval_predicate(prop, cand.current)
                if ticker is not None:
                    ticker.tick()
            except DeadlineReached:
                return node, True
            if not ok:
                node = cand
                moved = True
                break
        if not moved:
            return node, False


def falsified(root: ValueTree, shrink: tuple[ValueTree, bool], seed: int | None,
              case_index: int, message: str | None) -> Verdict:
    """Fuzz's and exhaustive's verdict on the failure replayed as ``root``,
    given what ``shrink_failure`` made of it; the shrunk tree is replayed once
    more, so no predicate has seen either value reported."""
    shrunk, incomplete = shrink
    return Verdict.falsified(Counterexample(
        original=root.current, shrunk=shrunk.replay().current, seed=seed,
        case_index=case_index, message=message, shrink_incomplete=incomplete))


@backend("fuzz")
def run_fuzz(prop: Property, config: RunConfig, ticker: Ticker) -> Verdict:
    """Evaluate the predicate on ``config.cases`` seeded draws.

    First failure is shrunk and reported with the seed and case index; a
    drained filter budget yields Unknown{FilterExhausted}; running out of
    time yields Unknown{Timeout} with the number of cases evaluated.
    """
    rng = SplitMix64(config.seed)
    # one context for the whole run: the 10x budget is spent across cases,
    # not granted afresh to each draw
    ctx = _GenContext(rng, 10 * config.cases)
    draw = prop.strategy._draw
    left = ticker.lease()
    try:
        for case_index in range(config.cases):
            state = rng.state
            ok, message = eval_predicate(prop, draw(ctx))
            # checked before the poll, so a failure on a poll boundary is
            # reported even when time is up; the failing unit still counts
            if not ok:
                ticker.release(left - 1)
                # the predicate may mutate what it is given, so it sees only
                # fresh replays; this case redrawn from its state never is
                root = random_tree(prop.strategy, SplitMix64(state))
                return falsified(root, shrink_failure(prop, root, ticker),
                                 config.seed, case_index, message)
            left -= 1
            if not left:
                left = ticker.renew()
    except RejectionExhausted as exc:
        return Verdict.unknown(UnknownReason.FILTER_EXHAUSTED, detail=str(exc),
                               cases=case_index)
    except DeadlineReached:  # from the poll after case_index was evaluated
        return Verdict.unknown(UnknownReason.TIMEOUT, cases=case_index + 1)
    return Verdict.pass_sampled(config.cases)
