"""tricheck: one property harness, three ways to check it.

Describe a value domain with strategy combinators, attach a predicate, and
the same definition can be fuzzed with random cases, proved by bounded
exhaustive enumeration, or proved over integer intervals by branch-and-prune
— with a runner that runs backends in a fixed order and cross-checks them,
applies waivers, and keeps history.
"""

from .prng import SplitMix64
from .strategies import (
    BoundOverflow,
    Cardinality,
    EmptyChoice,
    EmptyRange,
    EmptySize,
    NotEnumerable,
    RejectionExhausted,
    Strategy,
    ValueTree,
    cardinality,
    enumerate_values,
    int_range,
    iter_trees,
    just,
    list_of,
    one_of,
    optional_of,
    ordered_map_of,
    random_tree,
    tuple_of,
)
from .patterns import ParseError, Pattern, pattern
from .results import (
    UNKNOWN_PREFERENCE,
    Counterexample,
    UnknownReason,
    Verdict,
    VerdictKind,
)
from .harness import (
    DuplicateName,
    Property,
    PropertyRegistry,
    RunConfig,
)
from .fuzz import run_fuzz, shrink_failure
from .exhaustive import run_exhaustive
from .symbolic import (
    Interval,
    SymbolicCoercion,
    branch_and_prune,
    interval_eval,
    run_symbolic,
    symbolize,
    tdiv,
    trem,
    truth_eval,
)
from .runner import (
    InconsistentBackends,
    PropertyResult,
    RunReport,
    Waiver,
    apply_waivers,
    run_ensemble,
    run_property,
    run_suite,
)
from .corpus import REGISTRY, build_registry

__version__ = "0.1.0"

__all__ = [
    "BoundOverflow",
    "Cardinality",
    "Counterexample",
    "DuplicateName",
    "EmptyChoice",
    "EmptyRange",
    "EmptySize",
    "InconsistentBackends",
    "Interval",
    "NotEnumerable",
    "ParseError",
    "Pattern",
    "Property",
    "PropertyRegistry",
    "PropertyResult",
    "REGISTRY",
    "RejectionExhausted",
    "RunConfig",
    "RunReport",
    "SplitMix64",
    "Strategy",
    "SymbolicCoercion",
    "UNKNOWN_PREFERENCE",
    "UnknownReason",
    "ValueTree",
    "Verdict",
    "VerdictKind",
    "Waiver",
    "apply_waivers",
    "branch_and_prune",
    "build_registry",
    "cardinality",
    "enumerate_values",
    "int_range",
    "interval_eval",
    "iter_trees",
    "just",
    "list_of",
    "one_of",
    "optional_of",
    "ordered_map_of",
    "pattern",
    "random_tree",
    "run_ensemble",
    "run_exhaustive",
    "run_fuzz",
    "run_property",
    "run_suite",
    "run_symbolic",
    "shrink_failure",
    "symbolize",
    "tdiv",
    "trem",
    "truth_eval",
    "tuple_of",
]
