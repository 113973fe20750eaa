"""First-class value strategies.

A strategy is a small immutable description of a value domain.  Nothing here
draws a value or proves anything by itself: strategies are *interpreted* by
the checking backends.  Three interpretations live in this module because
every backend shares them:

* ``random_tree``     -- one seeded draw, returned as a :class:`ValueTree`
                         (the value plus its ordered shrink candidates);
* ``iter_trees``      -- the canonical, deterministic enumeration of the
                         whole domain, walked as plain values (below);
* ``cardinality``     -- the exact or bounding size of the domain.

The symbolic interpretation lives in :mod:`tricheck.symbolic` so this module
stays free of solver machinery.

Enumeration is index-addressed.  A node's base positions are its values in
canonical order, except that a filter keeps its inner domain's positions
(rejected ones too) and ``ordered_map_of`` deduplicates its keys.  ``_span()``
counts them, ``_values(stats)`` streams the plain value at each lazily (rejected
ones as ``_Skip``), and ``_unrank(i)`` builds the tree at position ``i``: mixed
radix for products (last component fastest), offsets for sums, combinadic ranks
over the key universe for maps.  ``iter_trees``, ``enumerate_values`` and
``simplest_tree`` derive from these: a tree is built only where one is asked.

Shrink candidates are ordered simplest-first and are *strictly* simpler than
their parent under a per-constructor complexity measure (`ValueTree.complexity`),
which is what makes greedy shrinking terminate.  Integers shrink toward the
range's lower bound, choices toward earlier alternatives, options toward
absent, containers toward fewer elements and then element-wise.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Any, Callable, Iterator, NamedTuple, Sequence

from .prng import SplitMix64

_WIDTHS = (8, 16, 32, 64)

#: Counting saturates once any intermediate exceeds this.
TOO_LARGE_LIMIT = 2 ** 63

#: Per-value retry budget when a filter (or a distinct-key draw) rejects.
MAX_REJECTIONS_PER_VALUE = 100

#: Safety cap when a key-ordered map has to materialize its key universe.
_KEY_UNIVERSE_CAP = 1_000_000


# --------------------------------------------------------------------------
# errors

class EmptyRange(ValueError):
    """int_range with lo > hi."""


class BoundOverflow(ValueError):
    """int_range bounds outside the declared width/signedness domain."""


class EmptyChoice(ValueError):
    """one_of with no alternatives."""


class EmptySize(ValueError):
    """Container size bounds that admit no size at all."""


class NotEnumerable(RuntimeError):
    """Enumeration requested without a budget on a too-large domain."""


class RejectionExhausted(RuntimeError):
    """A filter rejected too many draws; carries the filter's label."""

    def __init__(self, label: str, message: str | None = None) -> None:
        super().__init__(message or f"filter {label!r} exhausted its rejection budget")
        self.label = label


# --------------------------------------------------------------------------
# cardinality algebra

@dataclass(frozen=True)
class Cardinality:
    """Domain size: exact, saturated ("too large"), or unknowable (filters).

    Under ``map`` a Finite count is an upper bound (the transform may merge
    values); under ``filter`` the count is Unknown because the predicate is
    opaque.  Any intermediate above 2**63 saturates to TooLarge.
    """

    kind: str  # "finite" | "too_large" | "unknown"
    count: int | None = None

    @staticmethod
    def finite(n: int) -> "Cardinality":
        if n > TOO_LARGE_LIMIT:
            return TOO_LARGE
        return Cardinality("finite", n)

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    def __repr__(self) -> str:
        if self.is_finite:
            return f"Cardinality.finite({self.count})"
        return f"Cardinality({self.kind!r})"


TOO_LARGE = Cardinality("too_large")
UNKNOWN = Cardinality("unknown")


def _card_op(op: Callable[[int, int], int], a: Cardinality, b: Cardinality) -> Cardinality:
    if a.kind == "unknown" or b.kind == "unknown":
        return UNKNOWN
    if a.kind == "too_large" or b.kind == "too_large":
        return TOO_LARGE
    return Cardinality.finite(op(a.count, b.count))


def _card_sum_powers(inner: Cardinality, lo: int, hi: int) -> Cardinality:
    """sum_{k=lo..hi} inner**k with saturation, for list-shaped domains."""
    if inner.kind == "unknown":
        return UNKNOWN
    if inner.kind == "too_large":
        return TOO_LARGE if hi > 0 else Cardinality.finite(1)
    total = 0
    for k in range(lo, hi + 1):
        term = inner.count ** k
        total += term
        if total > TOO_LARGE_LIMIT:
            return TOO_LARGE
    return Cardinality.finite(total)


# --------------------------------------------------------------------------
# value trees

class ValueTree:
    """A concrete value plus its ordered, strictly-simpler shrink candidates.

    ``candidates()`` returns a fresh iterator each call; candidates are
    produced lazily because integer ladders over wide ranges would otherwise
    materialize enormous structures.  Every candidate's ``complexity()`` is
    lexicographically smaller than its parent's.
    """

    __slots__ = ()
    current: Any

    def candidates(self) -> Iterator["ValueTree"]:
        return iter(())

    def complexity(self) -> tuple:
        raise NotImplementedError


class _LeafTree(ValueTree):
    __slots__ = ("current",)

    def __init__(self, value: Any) -> None:
        self.current = value

    def complexity(self) -> tuple:
        return (0,)


class _IntTree(ValueTree):
    __slots__ = ("current", "lo")

    def __init__(self, value: int, lo: int) -> None:
        self.current = value
        self.lo = lo

    def candidates(self) -> Iterator[ValueTree]:
        v, lo = self.current, self.lo
        d = v - lo
        if d == 0:
            return
        yield _IntTree(lo, lo)
        step = d // 2
        while step > 0:
            c = v - step
            if c != lo:
                yield _IntTree(c, lo)
            step //= 2

    def complexity(self) -> tuple:
        return (self.current - self.lo,)


class _MapTree(ValueTree):
    __slots__ = ("current", "_fn", "_inner")

    def __init__(self, fn: Callable[[Any], Any], inner: ValueTree) -> None:
        self._fn = fn
        self._inner = inner
        self.current = fn(inner.current)

    def candidates(self) -> Iterator[ValueTree]:
        for c in self._inner.candidates():
            yield _MapTree(self._fn, c)

    def complexity(self) -> tuple:
        return self._inner.complexity()


class _FilterTree(ValueTree):
    __slots__ = ("current", "_pred", "_inner")

    def __init__(self, pred: Callable[[Any], Any], inner: ValueTree) -> None:
        self._pred = pred
        self._inner = inner
        self.current = inner.current

    def candidates(self) -> Iterator[ValueTree]:
        # Candidates that no longer satisfy the predicate are dropped along
        # with their whole subtree; domain closure beats shrink reach here.
        for c in self._inner.candidates():
            try:
                ok = bool(self._pred(c.current))
            except Exception:
                ok = False
            if ok:
                yield _FilterTree(self._pred, c)

    def complexity(self) -> tuple:
        return self._inner.complexity()


class _UnionTree(ValueTree):
    """A value drawn from ``one_of``; shrinks first to earlier alternatives.

    When built by the randomized path we carry a salt so that each earlier
    alternative can be generated lazily from its own replayable child stream.
    Enumeration-built trees instead offer each earlier alternative at its
    canonically simplest value.
    """

    __slots__ = ("current", "index", "_inner", "_alts", "_salt")

    def __init__(self, index: int, inner: ValueTree,
                 alts: Sequence["Strategy"], salt: int | None) -> None:
        self.index = index
        self._inner = inner
        self._alts = alts
        self._salt = salt
        self.current = inner.current

    def candidates(self) -> Iterator[ValueTree]:
        for j in range(self.index):
            alt = self._alts[j]
            if self._salt is None:
                t = simplest_tree(alt)
            else:
                ctx = _GenContext(SplitMix64((self._salt + j) & ((1 << 64) - 1)),
                                  rejection_budget=MAX_REJECTIONS_PER_VALUE * 10)
                try:
                    t = alt._random_tree(ctx)
                except RejectionExhausted:
                    t = None
            if t is not None:
                yield _UnionTree(j, t, self._alts, self._salt)
        for c in self._inner.candidates():
            yield _UnionTree(self.index, c, self._alts, self._salt)

    def complexity(self) -> tuple:
        return (self.index, self._inner.complexity())


class _TupleTree(ValueTree):
    __slots__ = ("current", "_comps")

    def __init__(self, comps: Sequence[ValueTree]) -> None:
        self._comps = comps
        self.current = tuple(c.current for c in comps)

    def candidates(self) -> Iterator[ValueTree]:
        comps = self._comps
        for k in range(len(comps)):
            for cand in comps[k].candidates():
                replaced = list(comps)
                replaced[k] = cand
                yield _TupleTree(replaced)

    def complexity(self) -> tuple:
        return tuple(c.complexity() for c in self._comps)


class _AbsentTree(ValueTree):
    __slots__ = ("current",)

    def __init__(self) -> None:
        self.current = None

    def complexity(self) -> tuple:
        return (0,)


class _PresentTree(ValueTree):
    __slots__ = ("current", "_inner")

    def __init__(self, inner: ValueTree) -> None:
        self._inner = inner
        self.current = inner.current

    def candidates(self) -> Iterator[ValueTree]:
        yield _AbsentTree()
        for c in self._inner.candidates():
            yield _PresentTree(c)

    def complexity(self) -> tuple:
        return (1, self._inner.complexity())


class _ListTree(ValueTree):
    __slots__ = ("current", "_elems", "_min_len")

    def __init__(self, elems: Sequence[ValueTree], min_len: int) -> None:
        self._elems = elems
        self._min_len = min_len
        self.current = [e.current for e in elems]

    def candidates(self) -> Iterator[ValueTree]:
        elems, lo = self._elems, self._min_len
        n = len(elems)
        # fewer elements first: truncations shortest-first, then single drops
        for target in range(lo, n):
            yield _ListTree(elems[:target], lo)
        if n - 1 >= lo:
            for i in range(n - 1):  # dropping the last duplicates a truncation
                yield _ListTree(list(elems[:i]) + list(elems[i + 1:]), lo)
        for i in range(n):
            for cand in elems[i].candidates():
                replaced = list(elems)
                replaced[i] = cand
                yield _ListTree(replaced, lo)

    def complexity(self) -> tuple:
        return (len(self._elems), tuple(e.complexity() for e in self._elems))


def _key_sorted(entries: list, key: Callable[[Any], Any]) -> list:
    try:
        return sorted(entries, key=key)
    except TypeError:  # keys not mutually orderable; keep construction order
        return entries


class _MapEntriesTree(ValueTree):
    """Key-ordered map with distinct keys; shrinks entries, then keys/values."""

    __slots__ = ("current", "_entries", "_min_size")

    def __init__(self, entries: list[tuple[ValueTree, ValueTree]], min_size: int) -> None:
        entries = _key_sorted(entries, lambda kv: kv[0].current)
        self._entries = entries
        self._min_size = min_size
        self.current = {k.current: v.current for k, v in entries}

    def candidates(self) -> Iterator[ValueTree]:
        entries, lo = self._entries, self._min_size
        n = len(entries)
        for target in range(lo, n):
            yield _MapEntriesTree(entries[:target], lo)
        if n - 1 >= lo:
            for i in range(n - 1):
                yield _MapEntriesTree(entries[:i] + entries[i + 1:], lo)
        for i, (ktree, vtree) in enumerate(entries):
            others = {e[0].current for j, e in enumerate(entries) if j != i}
            for kc in ktree.candidates():
                if kc.current in others:
                    continue  # keys must stay distinct
                replaced = entries[:i] + [(kc, vtree)] + entries[i + 1:]
                yield _MapEntriesTree(replaced, lo)
        for i, (ktree, vtree) in enumerate(entries):
            for vc in vtree.candidates():
                replaced = entries[:i] + [(ktree, vc)] + entries[i + 1:]
                yield _MapEntriesTree(replaced, lo)

    def complexity(self) -> tuple:
        pairs = sorted((k.complexity(), v.complexity()) for k, v in self._entries)
        return (len(self._entries), tuple(pairs))


# --------------------------------------------------------------------------
# generation / enumeration contexts

class _GenContext:
    """Carries the PRNG and the run-wide rejection budget through a draw."""

    __slots__ = ("rng", "rejection_budget")

    def __init__(self, rng: SplitMix64, rejection_budget: int | None = None) -> None:
        self.rng = rng
        self.rejection_budget = rejection_budget

    def charge_rejection(self, label: str) -> None:
        if self.rejection_budget is not None:
            self.rejection_budget -= 1
            if self.rejection_budget < 0:
                raise RejectionExhausted(
                    label, f"filter {label!r} exhausted the run-wide rejection budget")


class EnumStats:
    """Counters threaded through enumeration; lets callers bound the filter
    rejections walked, and the items of any one ``ordered_map_of`` key walk."""

    __slots__ = ("rejected", "max_rejected", "on_reject", "max_key_walk")

    def __init__(self, max_rejected: int | None = None,
                 on_reject: Callable[[], None] | None = None,
                 max_key_walk: int | None = None) -> None:
        self.rejected = 0
        self.max_rejected = max_rejected
        self.on_reject = on_reject
        self.max_key_walk = max_key_walk

    def note_reject(self, label: str) -> None:
        self.rejected += 1
        if self.on_reject is not None:
            self.on_reject()
        if self.max_rejected is not None and self.rejected > self.max_rejected:
            raise RejectionExhausted(
                label, f"filter {label!r}: base-domain traversal bound exceeded")


class _Skip(NamedTuple):
    """``count`` rejected values in a ``_values`` stream, each heading the whole
    product of ``rest``.  The span is resolved only once an accepted value
    follows, so a skipped tail is never walked for nothing."""

    count: int
    rest: tuple = ()

    def span(self, stats: EnumStats | None) -> int:
        return self.count * math.prod(c._span(stats) for c in self.rest)


def _positions(stream: Iterator[Any], stats: EnumStats | None) -> Iterator[tuple[int, Any]]:
    """(base position, value) of each accepted value of a ``_values`` stream."""
    index = 0
    skipped: list[_Skip] = []
    for v in stream:
        if type(v) is _Skip:
            skipped.append(v)
            continue
        if skipped:
            index += sum(s.span(stats) for s in skipped)
            skipped.clear()
        yield index, v
        index += 1


def _bounded(stream: Iterator[Any], limit: int) -> Iterator[Any]:
    """``stream``, refusing to walk past its first ``limit`` items."""
    for n, v in enumerate(stream):
        if n == limit:
            raise NotEnumerable(f"walk passed {limit} items")
        yield v


def _product(comps: Sequence["Strategy"], stats: EnumStats | None,
             prefix: tuple = ()) -> Iterator[Any]:
    """``prefix`` extended by each tuple of the row-major product of
    ``comps`` (last component fastest), or a ``_Skip``.  Unlike
    itertools.product this never materializes a component stream: the tail is
    walked afresh for each head value, and a skipped head skips it whole."""
    if not comps:
        yield prefix
        return
    head, rest = comps[0], comps[1:]
    if not rest:
        for h in head._values(stats):
            yield h if type(h) is _Skip else prefix + (h,)
        return
    for h in head._values(stats):
        if type(h) is _Skip:
            yield _Skip(h.count, h.rest + rest)
        else:
            yield from _product(rest, stats, prefix + (h,))


def _unrank_digits(comps: Sequence["Strategy"], index: int) -> list[ValueTree]:
    """The trees at the mixed-radix digits of ``index``, last component fastest."""
    trees = []
    for c in reversed(comps):
        index, digit = divmod(index, c._span())
        trees.append(c._unrank(digit))
    return trees[::-1]


def _unrank_combination(n: int, k: int, rank: int) -> list[int]:
    """The ``rank``-th k-subset of range(n) in itertools.combinations order."""
    out, x = [], 0
    for left in range(k, 0, -1):
        while rank >= (block := _choose(n - x - 1, left - 1)):
            rank -= block
            x += 1
        out.append(x)
        x += 1
    return out


# --------------------------------------------------------------------------
# strategy nodes

class Strategy:
    """Immutable description of a value domain.  See module docstring."""

    def map(self, transform: Callable[[Any], Any]) -> "Strategy":
        """Image of this domain under ``transform`` (cardinality becomes an
        upper bound; shrinking happens on the pre-image)."""
        return Map(self, transform)

    def filter(self, label: str, predicate: Callable[[Any], Any]) -> "Strategy":
        """Sub-domain accepted by ``predicate``; ``label`` names the filter
        in diagnostics when the rejection budget runs out."""
        return Filter(self, label, predicate)

    def cardinality(self) -> Cardinality:
        return self._cardinality()

    # interpretation hooks ------------------------------------------------
    def _cardinality(self) -> Cardinality:
        raise NotImplementedError

    def _random_tree(self, ctx: _GenContext) -> ValueTree:
        raise NotImplementedError

    def _values(self, stats: EnumStats | None) -> Iterator[Any]:
        """The plain value at every base position, lazily; rejections as ``_Skip``."""
        raise NotImplementedError

    def _unrank(self, index: int) -> ValueTree:
        """The tree at base position ``index``."""
        raise NotImplementedError

    def _span(self, stats: EnumStats | None = None) -> int:
        """The number of base positions."""
        raise NotImplementedError


@dataclass(frozen=True)
class Just(Strategy):
    value: Any

    def _cardinality(self) -> Cardinality:
        return Cardinality.finite(1)

    def _random_tree(self, ctx: _GenContext) -> ValueTree:
        return _LeafTree(self.value)

    def _values(self, stats: EnumStats | None) -> Iterator[Any]:
        return iter((self.value,))

    def _unrank(self, index: int) -> ValueTree:
        return _LeafTree(self.value)

    def _span(self, stats: EnumStats | None = None) -> int:
        return 1

    def __repr__(self) -> str:
        return f"just({self.value!r})"


@dataclass(frozen=True)
class IntRange(Strategy):
    """Machine-width integer interval; all internal math is unbounded."""

    lo: int
    hi: int
    width: int = 64
    signed: bool = True

    def __post_init__(self) -> None:
        if self.width not in _WIDTHS:
            raise ValueError(f"width must be one of {_WIDTHS}, got {self.width}")
        if self.lo > self.hi:
            raise EmptyRange(f"int_range: lo {self.lo} > hi {self.hi}")
        if self.signed:
            dom_lo, dom_hi = -(1 << (self.width - 1)), (1 << (self.width - 1)) - 1
        else:
            dom_lo, dom_hi = 0, (1 << self.width) - 1
        if self.lo < dom_lo or self.hi > dom_hi:
            kind = "i" if self.signed else "u"
            raise BoundOverflow(
                f"int_range [{self.lo}, {self.hi}] does not fit {kind}{self.width}")

    def _cardinality(self) -> Cardinality:
        return Cardinality.finite(self.hi - self.lo + 1)

    def _random_tree(self, ctx: _GenContext) -> ValueTree:
        return _IntTree(ctx.rng.uniform_in(self.lo, self.hi), self.lo)

    def _values(self, stats: EnumStats | None) -> Iterator[Any]:
        return iter(range(self.lo, self.hi + 1))

    def _unrank(self, index: int) -> ValueTree:
        return _IntTree(self.lo + index, self.lo)

    def _span(self, stats: EnumStats | None = None) -> int:
        return self.hi - self.lo + 1

    def __repr__(self) -> str:
        kind = "i" if self.signed else "u"
        return f"int_range({self.lo}, {self.hi}, {kind}{self.width})"


@dataclass(frozen=True)
class Map(Strategy):
    inner: Strategy
    transform: Callable[[Any], Any]

    def _cardinality(self) -> Cardinality:
        return self.inner._cardinality()  # upper bound: transform may merge

    def _random_tree(self, ctx: _GenContext) -> ValueTree:
        return _MapTree(self.transform, self.inner._random_tree(ctx))

    def _values(self, stats: EnumStats | None) -> Iterator[Any]:
        fn = self.transform
        for v in self.inner._values(stats):
            yield v if type(v) is _Skip else fn(v)

    def _unrank(self, index: int) -> ValueTree:
        return _MapTree(self.transform, self.inner._unrank(index))

    def _span(self, stats: EnumStats | None = None) -> int:
        return self.inner._span(stats)

    def __repr__(self) -> str:
        name = getattr(self.transform, "__name__", "<fn>")
        return f"{self.inner!r}.map({name})"


@dataclass(frozen=True)
class Filter(Strategy):
    inner: Strategy
    label: str
    predicate: Callable[[Any], Any]

    def _accepts(self, value: Any) -> bool:
        try:
            return bool(self.predicate(value))
        except Exception:
            return False  # a crashing filter rejects; the label shows up in diagnostics

    def _cardinality(self) -> Cardinality:
        self.inner._cardinality()  # still validates the substructure
        return UNKNOWN

    def _random_tree(self, ctx: _GenContext) -> ValueTree:
        for _ in range(MAX_REJECTIONS_PER_VALUE):
            t = self.inner._random_tree(ctx)
            if self._accepts(t.current):
                return _FilterTree(self.predicate, t)
            ctx.charge_rejection(self.label)
        raise RejectionExhausted(self.label)

    def _values(self, stats: EnumStats | None) -> Iterator[Any]:
        for v in self.inner._values(stats):
            if type(v) is _Skip or self._accepts(v):
                yield v
            else:
                if stats is not None:
                    stats.note_reject(self.label)
                yield _Skip(1)

    def _unrank(self, index: int) -> ValueTree:
        return _FilterTree(self.predicate, self.inner._unrank(index))

    def _span(self, stats: EnumStats | None = None) -> int:
        return self.inner._span(stats)

    def __repr__(self) -> str:
        return f"{self.inner!r}.filter({self.label!r})"


@dataclass(frozen=True)
class OneOf(Strategy):
    alternatives: tuple[Strategy, ...]

    def __post_init__(self) -> None:
        if not self.alternatives:
            raise EmptyChoice("one_of needs at least one alternative")

    def _cardinality(self) -> Cardinality:
        total = Cardinality.finite(0)
        for alt in self.alternatives:
            total = _card_op(operator.add, total, alt._cardinality())
        return total

    def _random_tree(self, ctx: _GenContext) -> ValueTree:
        i = ctx.rng.uniform_in(0, len(self.alternatives) - 1)
        salt = ctx.rng.next_u64()
        inner = self.alternatives[i]._random_tree(ctx)
        return _UnionTree(i, inner, self.alternatives, salt)

    def _values(self, stats: EnumStats | None) -> Iterator[Any]:
        for alt in self.alternatives:
            yield from alt._values(stats)

    def _unrank(self, index: int) -> ValueTree:
        for i, alt in enumerate(self.alternatives):
            span = alt._span()
            if index < span:
                return _UnionTree(i, alt._unrank(index), self.alternatives, None)
            index -= span
        raise IndexError("one_of: base position out of range")

    def _span(self, stats: EnumStats | None = None) -> int:
        return sum(alt._span(stats) for alt in self.alternatives)

    def __repr__(self) -> str:
        return f"one_of({', '.join(map(repr, self.alternatives))})"


@dataclass(frozen=True)
class TupleOf(Strategy):
    components: tuple[Strategy, ...]

    def _cardinality(self) -> Cardinality:
        total = Cardinality.finite(1)
        for c in self.components:
            total = _card_op(operator.mul, total, c._cardinality())
        return total

    def _random_tree(self, ctx: _GenContext) -> ValueTree:
        return _TupleTree([c._random_tree(ctx) for c in self.components])

    def _values(self, stats: EnumStats | None) -> Iterator[Any]:
        return _product(self.components, stats)

    def _unrank(self, index: int) -> ValueTree:
        return _TupleTree(_unrank_digits(self.components, index))

    def _span(self, stats: EnumStats | None = None) -> int:
        return math.prod(c._span(stats) for c in self.components)

    def __repr__(self) -> str:
        return f"tuple_of({', '.join(map(repr, self.components))})"


@dataclass(frozen=True)
class OptionalOf(Strategy):
    inner: Strategy

    def _cardinality(self) -> Cardinality:
        return _card_op(operator.add, Cardinality.finite(1), self.inner._cardinality())

    def _random_tree(self, ctx: _GenContext) -> ValueTree:
        if ctx.rng.uniform_in(0, 1) == 0:
            return _AbsentTree()
        return _PresentTree(self.inner._random_tree(ctx))

    def _values(self, stats: EnumStats | None) -> Iterator[Any]:
        yield None
        yield from self.inner._values(stats)

    def _unrank(self, index: int) -> ValueTree:
        return _PresentTree(self.inner._unrank(index - 1)) if index else _AbsentTree()

    def _span(self, stats: EnumStats | None = None) -> int:
        return 1 + self.inner._span(stats)

    def __repr__(self) -> str:
        return f"optional_of({self.inner!r})"


@dataclass(frozen=True)
class ListOf(Strategy):
    element: Strategy
    min_len: int
    max_len: int

    def __post_init__(self) -> None:
        if self.min_len < 0 or self.min_len > self.max_len:
            raise EmptySize(f"list_of: bad size bounds [{self.min_len}, {self.max_len}]")

    def _cardinality(self) -> Cardinality:
        return _card_sum_powers(self.element._cardinality(), self.min_len, self.max_len)

    def _random_tree(self, ctx: _GenContext) -> ValueTree:
        n = ctx.rng.uniform_in(self.min_len, self.max_len)
        return _ListTree([self.element._random_tree(ctx) for _ in range(n)], self.min_len)

    def _values(self, stats: EnumStats | None) -> Iterator[Any]:
        for n in range(self.min_len, self.max_len + 1):
            for v in _product((self.element,) * n, stats):
                yield v if type(v) is _Skip else list(v)

    def _unrank(self, index: int) -> ValueTree:
        span = self.element._span()
        for n in range(self.min_len, self.max_len + 1):
            if index < span ** n:
                return _ListTree(_unrank_digits((self.element,) * n, index), self.min_len)
            index -= span ** n
        raise IndexError("list_of: base position out of range")

    def _span(self, stats: EnumStats | None = None) -> int:
        span = self.element._span(stats)
        return sum(span ** n for n in range(self.min_len, self.max_len + 1))

    def __repr__(self) -> str:
        return f"list_of({self.element!r}, {self.min_len}, {self.max_len})"


@dataclass(frozen=True)
class OrderedMapOf(Strategy):
    """Key-ordered map with distinct keys drawn from ``keys``."""

    keys: Strategy
    values: Strategy
    min_size: int
    max_size: int

    def __post_init__(self) -> None:
        if self.min_size < 0 or self.min_size > self.max_size:
            raise EmptySize(
                f"ordered_map_of: bad size bounds [{self.min_size}, {self.max_size}]")
        kcard = self.keys._cardinality()
        if kcard.is_finite and kcard.count < self.min_size:
            raise EmptySize(
                f"ordered_map_of: min_size {self.min_size} exceeds the "
                f"{kcard.count} available keys")

    def _cardinality(self) -> Cardinality:
        kcard = self.keys._cardinality()
        vcard = self.values._cardinality()
        if kcard.kind == "unknown" or vcard.kind == "unknown":
            return UNKNOWN
        if kcard.kind == "too_large" or vcard.kind == "too_large":
            return TOO_LARGE
        total = 0
        hi = min(self.max_size, kcard.count)
        for k in range(self.min_size, hi + 1):
            total += _choose(kcard.count, k) * vcard.count ** k
            if total > TOO_LARGE_LIMIT:
                return TOO_LARGE
        return Cardinality.finite(total)

    def _random_tree(self, ctx: _GenContext) -> ValueTree:
        hi = self.max_size
        kcard = self.keys._cardinality()
        if kcard.is_finite:
            hi = min(hi, kcard.count)
        size = ctx.rng.uniform_in(self.min_size, max(hi, self.min_size))
        label = f"<distinct keys of {self!r}>"
        entries: list[tuple[ValueTree, ValueTree]] = []
        seen: list[Any] = []
        for _ in range(size):
            for _ in range(MAX_REJECTIONS_PER_VALUE):
                kt = self.keys._random_tree(ctx)
                if kt.current not in seen:
                    break
                ctx.charge_rejection(label)
            else:
                raise RejectionExhausted(label)
            seen.append(kt.current)
            entries.append((kt, self.values._random_tree(ctx)))
        return _MapEntriesTree(entries, self.min_size)

    def _key_universe(self, stats: EnumStats | None) -> list[tuple[int, Any]]:
        """(base position, key) of each distinct accepted key, first occurrence
        first.  Every call walks (filter calls count); a completed walk memoizes."""
        keys = self.keys._values(stats)
        if stats is not None and stats.max_key_walk is not None:
            keys = _bounded(keys, stats.max_key_walk)
        universe: list[tuple[int, Any]] = []
        seen: set[Any] = set()  # keys end up as dict keys, so hashable by contract
        for index, k in _positions(keys, stats):
            if k not in seen:
                seen.add(k)
                universe.append((index, k))
                if len(universe) > _KEY_UNIVERSE_CAP:
                    raise NotEnumerable("ordered_map_of: key universe too large to enumerate")
        self.__dict__["_walked_key_positions"] = [i for i, _ in universe]
        return universe

    def _key_positions(self, stats: EnumStats | None = None) -> list[int]:
        memo = self.__dict__.get("_walked_key_positions")
        return [i for i, _ in self._key_universe(stats)] if memo is None else memo

    def _sizes(self, n_keys: int) -> range:
        return range(self.min_size, min(self.max_size, n_keys) + 1)

    def _values(self, stats: EnumStats | None) -> Iterator[Any]:
        keys = [k for _, k in self._key_universe(stats)]
        for size in self._sizes(len(keys)):
            for key_combo in itertools.combinations(keys, size):
                for vals in _product((self.values,) * size, stats):
                    yield vals if type(vals) is _Skip else dict(
                        _key_sorted(list(zip(key_combo, vals)), lambda kv: kv[0]))

    def _unrank(self, index: int) -> ValueTree:
        positions = self._key_positions()
        vspan = self.values._span()
        for size in self._sizes(len(positions)):
            block = vspan ** size
            count = _choose(len(positions), size) * block
            if index < count:
                rank, index = divmod(index, block)
                keys = [self.keys._unrank(positions[j])
                        for j in _unrank_combination(len(positions), size, rank)]
                vals = _unrank_digits((self.values,) * size, index)
                return _MapEntriesTree(list(zip(keys, vals)), self.min_size)
            index -= count
        raise IndexError("ordered_map_of: base position out of range")

    def _span(self, stats: EnumStats | None = None) -> int:
        n, vspan = len(self._key_positions(stats)), self.values._span(stats)
        return sum(_choose(n, k) * vspan ** k for k in self._sizes(n))

    def __repr__(self) -> str:
        return (f"ordered_map_of({self.keys!r}, {self.values!r}, "
                f"{self.min_size}, {self.max_size})")


def _choose(n: int, k: int) -> int:
    if k > n:
        return 0
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


# --------------------------------------------------------------------------
# public constructors

def just(value: Any) -> Strategy:
    return Just(value)


def int_range(lo: int, hi: int, width: int = 64, signed: bool = True) -> Strategy:
    return IntRange(lo, hi, width, signed)


def one_of(*alternatives: Strategy) -> Strategy:
    return OneOf(tuple(alternatives))


def tuple_of(*components: Strategy) -> Strategy:
    return TupleOf(tuple(components))


def optional_of(inner: Strategy) -> Strategy:
    return OptionalOf(inner)


def list_of(element: Strategy, min_len: int, max_len: int) -> Strategy:
    return ListOf(element, min_len, max_len)


def ordered_map_of(keys: Strategy, values: Strategy,
                   min_size: int, max_size: int) -> Strategy:
    return OrderedMapOf(keys, values, min_size, max_size)


# --------------------------------------------------------------------------
# public interpretations

def cardinality(strategy: Strategy) -> Cardinality:
    return strategy._cardinality()


def random_tree(strategy: Strategy, rng: SplitMix64,
                rejection_budget: int | None = None) -> ValueTree:
    """One seeded draw.  ``rejection_budget`` bounds the *total* number of
    filter rejections this draw may burn (on top of the per-value 100)."""
    return strategy._random_tree(_GenContext(rng, rejection_budget))


class _IndexedTree(ValueTree):
    """An enumerated value and its base position; its tree is unranked on demand."""

    __slots__ = ("current", "strategy", "index")

    def __init__(self, value: Any, strategy: Strategy, index: int) -> None:
        self.current = value
        self.strategy = strategy
        self.index = index

    def candidates(self) -> Iterator[ValueTree]:
        return self.strategy._unrank(self.index).candidates()

    def complexity(self) -> tuple:
        return self.strategy._unrank(self.index).complexity()


def iter_trees(strategy: Strategy, stats: EnumStats | None = None) -> Iterator[ValueTree]:
    """Canonical enumeration as shrinkable trees carrying their base ``index``.
    No budget gating; callers that rely on finiteness check ``cardinality``."""
    for index, v in _positions(strategy._values(stats), stats):
        yield _IndexedTree(v, strategy, index)


def enumerate_values(strategy: Strategy, budget: int | None = None) -> Iterator[Any]:
    """Canonical enumeration of values.

    Raises NotEnumerable for a domain already known to exceed 2**63 unless a
    ``budget`` is supplied, in which case at most ``budget`` (accepted)
    values are yielded.
    """
    card = strategy._cardinality()
    if card.kind == "too_large" and budget is None:
        raise NotEnumerable(f"{strategy!r} has more than 2**63 elements; pass a budget")
    it = (v for v in strategy._values(None) if type(v) is not _Skip)
    return it if budget is None else itertools.islice(it, budget)


def simplest_tree(strategy: Strategy) -> ValueTree | None:
    """The canonically simplest value of the domain, if cheaply reachable: the
    first accepted position among the first ``MAX_REJECTIONS_PER_VALUE + 1``
    stream items, where no map may walk more key items than that."""
    stats = EnumStats(max_key_walk=MAX_REJECTIONS_PER_VALUE + 1)
    try:
        for index, _ in _positions(_bounded(strategy._values(stats), stats.max_key_walk),
                                   stats):
            return strategy._unrank(index)
    except NotEnumerable:
        pass
    return None
