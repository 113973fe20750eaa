"""First-class value strategies.

A strategy is a small immutable description of a value domain.  Nothing here
draws a value or proves anything by itself: strategies are *interpreted* by
the checking backends.  These interpretations live in this module because
every backend shares them:

* ``_draw``           -- one draw, as a sequence of choices (below);
* ``random_tree``     -- a seeded draw with its choices recorded, as a
                         :class:`ValueTree` (the value plus its ordered shrink
                         candidates);
* ``iter_trees``      -- the canonical, deterministic enumeration of the
                         whole domain, walked as plain values (below);
* ``cardinality``     -- the exact or bounding size of the domain.

The symbolic interpretation lives in :mod:`tricheck.symbolic` so this module
stays free of solver machinery.

Each random decision a node makes (an integer, a ``one_of`` alternative, a
list or map size) is one ``ctx.choice(lo, hi)``.  The fuzz loop's context
answers from the PRNG; a recording context (``_Recorder``) notes each answer
as its offset from ``lo``, and can read the offsets from a given sequence,
so recorded choices *replay* into a fresh value with no PRNG.  A shrink tree
is a strategy plus the choices that drew it, and its candidates are edits
of them (containers truncated, then elements dropped, then each choice
lowered), each replayed afresh and each using shortlex-smaller choices:
fewer, or as many and lexicographically smaller.  That order makes greedy
shrinking terminate: integers shrink toward the range's lower bound,
``one_of`` toward earlier alternatives, containers toward fewer elements and
then element-wise, and filters and maps through replay.

Enumeration is index-addressed.  A node's base positions are its values in
canonical order, except that a filter keeps its inner domain's positions
(rejected ones too) and ``ordered_map_of`` deduplicates its keys.  ``_span()``
counts them, ``_values(stats)`` streams the plain value at each lazily (rejected
ones as ``_Skip``), and ``_unrank(i)`` gives the choices that draw position
``i``: mixed-radix digits for products (last component fastest), offsets for
sums and sizes, and for maps the key and value choices of the combination
that a combinadic rank picks.  An empty domain raises ``IndexError`` for
``_unrank(0)``, as for any position out of range; at position 0 no node
reads a span and products unrank their components in enumeration order, so
rebuilding it walks no key universe that enumeration did not.

A node with no filter below it (``_skip_free``: its cardinality is not
unknown) yields no ``_Skip``, so its stream is built from chained C
iterators (``chain``, ``map``, ``zip``), with no generator frame and no
``_Skip`` test per value; ``_chained_product`` is ``_product`` in that form.
Every other stream goes through the generators that carry ``_Skip``.
``iter_trees`` counts the positions of a skip-free stream and turns the
``_Skip`` markers of any other into base positions; the exhaustive backend
and a map's key walk go through it.  ``enumerate_values`` needs no
positions, so it reads the stream itself and only drops the ``_Skip``
markers.  A tree is replayed only where one is asked.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property
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
    if inner.count <= 1:  # 1**k is 1 and 0**k is 0 past k = 0: no loop over k
        return Cardinality.finite(hi - lo + 1 if inner.count else int(lo == 0))
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


class _ChoiceTree(ValueTree):
    """A value and the choices that drew it.  Its candidates are edits of
    those choices, each replayed into a fresh value.  An edit lowers the
    first choice it changes, and a replay reads no choice above its prefix
    nor more choices than the parent, so each uses shortlex-smaller choices."""

    __slots__ = ("current", "strategy", "choices", "_containers")

    def __init__(self, strategy: "Strategy", value: Any, rec: _Recorder) -> None:
        self.current = value
        self.strategy = strategy
        self.choices = tuple(rec.choices)
        self._containers = rec.containers

    def replay(self) -> "_ChoiceTree":
        """The same value drawn afresh from the same choices."""
        return _replay(self.strategy, self.choices)

    def candidates(self) -> Iterator[ValueTree]:
        for edit in _edits(self.choices, self._containers):
            tree = _replay(self.strategy, edit, limit=len(self.choices))
            if tree is not None:
                yield tree

    def complexity(self) -> tuple:
        return (len(self.choices), self.choices)  # shortlex


def _replay(strategy: "Strategy", prefix: Sequence[int],
            limit: int | None = None) -> _ChoiceTree | None:
    """The tree that ``prefix``, then zeros, draws; None when that draw needs
    more than ``limit`` choices or a filter gives up."""
    rec = _Recorder(prefix, limit=limit)
    try:
        return _ChoiceTree(strategy, strategy._draw(rec), rec)
    except (_Overrun, RejectionExhausted):
        return None


def _edits(choices: tuple[int, ...],
           containers: list[tuple[int, list[int], int]]) -> Iterator[list[int]]:
    """Edits of ``choices``, simplest first: each container truncated,
    shortest first; then each container's elements but the last dropped one
    at a time (both lower the size choice and delete the elements' choices);
    then each other choice ``v`` lowered to 0, then to v - v//2, v - v//4,
    ..., v - 1."""
    containers = sorted(containers)  # outermost first
    sizes = {size_at for size_at, _, _ in containers}

    def fewer(size_at: int, cut: int, start: int, end: int) -> list[int]:
        edit = list(choices)
        edit[size_at] -= cut
        del edit[start:end]
        return edit

    for size_at, starts, end in containers:
        for cut in range(choices[size_at], 0, -1):  # the size offset bounds the cut
            yield fewer(size_at, cut, starts[-cut], end)
    for size_at, starts, _ in containers:
        if choices[size_at]:
            for start, after in zip(starts, starts[1:]):  # dropping the last is a truncation
                yield fewer(size_at, 1, start, after)
    for i, v in enumerate(choices):
        if v and i not in sizes:
            yield [*choices[:i], 0, *choices[i + 1:]]
            step = v // 2
            while step:
                yield [*choices[:i], v - step, *choices[i + 1:]]
                step //= 2


def _key_sorted(entries: list, key: Callable[[Any], Any]) -> list:
    try:
        return sorted(entries, key=key)
    except TypeError:  # keys not mutually orderable; keep construction order
        return entries


# --------------------------------------------------------------------------
# draw and enumeration contexts

class _Context:
    """A draw's source of choices.  It holds a PRNG (or None) and the run-wide
    rejection budget, and answers ``choice(lo, hi)``, one random decision;
    ``spare_word()``, a PRNG word no choice reads; and ``many(lo, hi, draw)``,
    a size chosen in [lo, hi], then that many elements drawn by ``draw``."""

    __slots__ = ("rng", "rejection_budget")

    def charge_rejection(self, label: str) -> None:
        if self.rejection_budget is not None:
            self.rejection_budget -= 1
            if self.rejection_budget < 0:
                raise RejectionExhausted(
                    label, f"filter {label!r} exhausted the run-wide rejection budget")


class _GenContext(_Context):
    """A plain seeded draw: every choice comes straight from the PRNG."""

    __slots__ = ("choice", "spare_word")

    def __init__(self, rng: SplitMix64, rejection_budget: int | None = None) -> None:
        self.rng = rng
        self.rejection_budget = rejection_budget
        self.choice = rng.uniform_in
        self.spare_word = rng.next_u64

    def many(self, lo: int, hi: int, draw: Callable[[_Context], Any]) -> list:
        return [draw(self) for _ in range(self.rng.uniform_in(lo, hi))]


class _Overrun(Exception):
    """A replay needed more choices than its limit allows."""


class _Recorder(_Context):
    """A draw that records each choice as its offset from ``lo``.  Offsets are
    read from ``prefix`` first (clamped to the range asked for), then from
    the PRNG, or are 0 when there is none; spare words are drawn only from a
    PRNG.  Each list or map is also recorded, as the position of its size
    choice in ``choices``, where each element starts, and where the last one
    ends.  A draw that needs more than ``limit`` choices raises ``_Overrun``."""

    __slots__ = ("prefix", "limit", "choices", "containers")

    def __init__(self, prefix: Sequence[int] = (), rng: SplitMix64 | None = None,
                 rejection_budget: int | None = None, limit: int | None = None) -> None:
        self.rng = rng
        self.rejection_budget = rejection_budget
        self.prefix = prefix
        self.limit = limit
        self.choices: list[int] = []
        self.containers: list[tuple[int, list[int], int]] = []

    def choice(self, lo: int, hi: int) -> int:
        i = len(self.choices)
        if i == self.limit:
            raise _Overrun
        if i < len(self.prefix):
            offset = min(self.prefix[i], hi - lo)
        else:
            offset = 0 if self.rng is None else self.rng.uniform_in(lo, hi) - lo
        self.choices.append(offset)
        return lo + offset

    def spare_word(self) -> None:
        if self.rng is not None:
            self.rng.next_u64()

    def many(self, lo: int, hi: int, draw: Callable[[_Context], Any]) -> list:
        n = self.choice(lo, hi)
        size_at = len(self.choices) - 1
        starts, out = [], []
        for _ in range(n):
            starts.append(len(self.choices))
            out.append(draw(self))
        self.containers.append((size_at, starts, len(self.choices)))
        return out


class EnumStats:
    """Counters threaded through enumeration; lets callers bound the filter
    rejections walked."""

    __slots__ = ("rejected", "max_rejected", "on_reject")

    def __init__(self, max_rejected: int | None = None,
                 on_reject: Callable[[], None] | None = None) -> None:
        self.rejected = 0
        self.max_rejected = max_rejected
        self.on_reject = on_reject

    def note_reject(self, label: str) -> None:
        self.rejected += 1
        if self.on_reject is not None:
            self.on_reject()
        if self.max_rejected is not None and self.rejected > self.max_rejected:
            raise RejectionExhausted(
                label, f"filter {label!r}: base-domain traversal bound exceeded")


class _Skip(NamedTuple):
    """A rejected value in a ``_values`` stream, heading the whole product of
    ``rest``.  The span is resolved only once an accepted value follows, so a
    skipped tail is never walked for nothing."""

    rest: tuple = ()

    def span(self, stats: EnumStats | None) -> int:
        return math.prod(c._span(stats) for c in self.rest)


#: What a filter yields for each value it rejects.
_SKIP = _Skip()


def _product(comps: Sequence["Strategy"], stats: EnumStats | None,
             prefix: tuple = ()) -> Iterator[Any]:
    """``prefix`` extended by each tuple of the row-major product of
    ``comps`` (last component fastest), or a ``_Skip``.  Unlike
    itertools.product this never materializes a component stream: the right
    half is walked afresh for each tuple of the left half, and a skipped left
    tuple skips it whole.  Halving keeps the nesting at log2 of the number
    of components.  This generator walks products with a filter below them;
    ``_chained_product`` walks the others."""
    if len(comps) > 1:
        mid = len(comps) // 2
        right = comps[mid:]
        for h in _product(comps[:mid], stats, prefix):
            if type(h) is _Skip:
                yield _Skip(h.rest + right)
            else:
                yield from _product(right, stats, h)
    elif comps:
        for h in comps[0]._values(stats):
            yield h if type(h) is _Skip else prefix + (h,)
    else:
        yield prefix


def _chained_product(comps: Sequence["Strategy"], stats: EnumStats | None,
                     prefix: tuple = ()) -> Iterator[tuple]:
    """``_product`` of components that yield no ``_Skip``, as chained C
    iterators: the same halving, laziness and order, but no generator frame
    and no ``_Skip`` test per value, only a generator step per left tuple."""
    if len(comps) > 1:
        mid = len(comps) // 2
        right = comps[mid:]
        return itertools.chain.from_iterable(
            _chained_product(right, stats, h)
            for h in _chained_product(comps[:mid], stats, prefix))
    if comps:
        return map(prefix.__add__, zip(comps[0]._values(stats)))
    return iter((prefix,))


def _unrank_digits(comps: Sequence["Strategy"], index: int) -> list[list[int]]:
    """The choices of each component at the mixed-radix digits of ``index``,
    last component fastest, unranked first to last as enumeration meets them.
    Once what is left of ``index`` is 0, so is every digit, and no span is
    needed (a map's span may walk its whole key universe)."""
    digits = []
    for c in reversed(comps):
        index, digit = divmod(index, c._span()) if index else (0, 0)
        digits.append(digit)
    return [c._unrank(d) for c, d in zip(comps, reversed(digits))]


def _unrank_combination(n: int, k: int, rank: int) -> list[int]:
    """The ``rank``-th k-subset of range(n) in itertools.combinations order."""
    out, x = [], 0
    for left in range(k, 0, -1):
        while rank >= (block := math.comb(n - x - 1, left - 1)):
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

    @cached_property
    def _skip_free(self) -> bool:
        """Whether ``_values`` never yields a ``_Skip``: no filter below, so
        the stream may be walked by chained C iterators."""
        return self._cardinality().kind != "unknown"

    # interpretation hooks ------------------------------------------------
    def _cardinality(self) -> Cardinality:
        raise NotImplementedError

    def _draw(self, ctx: _Context) -> Any:
        """One value: each random decision is one ``ctx.choice(lo, hi)``, and
        a list or map is built by one ``ctx.many``."""
        raise NotImplementedError

    def _values(self, stats: EnumStats | None) -> Iterator[Any]:
        """The plain value at every base position, lazily; rejections as ``_Skip``."""
        raise NotImplementedError

    def _unrank(self, index: int) -> list[int]:
        """The choices that draw the value at base position ``index``."""
        raise NotImplementedError

    def _span(self, stats: EnumStats | None = None) -> int:
        """The number of base positions."""
        raise NotImplementedError


@dataclass(frozen=True)
class Just(Strategy):
    value: Any

    def _cardinality(self) -> Cardinality:
        return Cardinality.finite(1)

    def _draw(self, ctx: _Context) -> Any:
        return self.value

    def _values(self, stats: EnumStats | None) -> Iterator[Any]:
        return iter((self.value,))

    def _unrank(self, index: int) -> list[int]:
        return []

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

    def _draw(self, ctx: _Context) -> Any:
        return ctx.choice(self.lo, self.hi)

    def _values(self, stats: EnumStats | None) -> Iterator[Any]:
        return iter(range(self.lo, self.hi + 1))

    def _unrank(self, index: int) -> list[int]:
        return [index]

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

    def _draw(self, ctx: _Context) -> Any:
        return self.transform(self.inner._draw(ctx))

    def _values(self, stats: EnumStats | None) -> Iterator[Any]:
        fn, values = self.transform, self.inner._values(stats)
        if self._skip_free:
            return map(fn, values)
        return (v if type(v) is _Skip else fn(v) for v in values)

    def _unrank(self, index: int) -> list[int]:
        return self.inner._unrank(index)

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

    def _draw(self, ctx: _Context) -> Any:
        for _ in range(MAX_REJECTIONS_PER_VALUE):
            v = self.inner._draw(ctx)
            if self._accepts(v):
                return v
            ctx.charge_rejection(self.label)
        raise RejectionExhausted(self.label)

    def _values(self, stats: EnumStats | None) -> Iterator[Any]:
        for v in self.inner._values(stats):
            if type(v) is _Skip or self._accepts(v):
                yield v
            else:
                if stats is not None:
                    stats.note_reject(self.label)
                yield _SKIP

    def _unrank(self, index: int) -> list[int]:
        return self.inner._unrank(index)

    def _span(self, stats: EnumStats | None = None) -> int:
        return self.inner._span(stats)

    def __repr__(self) -> str:
        return f"{self.inner!r}.filter({self.label!r})"


@dataclass(frozen=True)
class OneOf(Strategy):
    alternatives: tuple[Strategy, ...]

    #: whether a draw takes the spare word ``one_of`` always took, keeping seeded draws
    _spare_word = True

    def __post_init__(self) -> None:
        if not self.alternatives:
            raise EmptyChoice("one_of needs at least one alternative")

    def _cardinality(self) -> Cardinality:
        total = Cardinality.finite(0)
        for alt in self.alternatives:
            total = _card_op(operator.add, total, alt._cardinality())
        return total

    def _draw(self, ctx: _Context) -> Any:
        i = ctx.choice(0, len(self.alternatives) - 1)
        if self._spare_word:
            ctx.spare_word()
        return self.alternatives[i]._draw(ctx)

    def _values(self, stats: EnumStats | None) -> Iterator[Any]:
        return itertools.chain.from_iterable(alt._values(stats) for alt in self.alternatives)

    def _unrank(self, index: int) -> list[int]:
        for i, alt in enumerate(self.alternatives):
            if not index:  # the first alternative with a position 0; no span is read
                try:
                    return [i, *alt._unrank(0)]
                except IndexError:
                    continue
            span = alt._span()
            if index < span:
                return [i, *alt._unrank(index)]
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

    def _draw(self, ctx: _Context) -> Any:
        return tuple([c._draw(ctx) for c in self.components])

    def _values(self, stats: EnumStats | None) -> Iterator[Any]:
        return (_chained_product if self._skip_free else _product)(self.components, stats)

    def _unrank(self, index: int) -> list[int]:
        return list(itertools.chain.from_iterable(_unrank_digits(self.components, index)))

    def _span(self, stats: EnumStats | None = None) -> int:
        return math.prod(c._span(stats) for c in self.components)

    def __repr__(self) -> str:
        return f"tuple_of({', '.join(map(repr, self.components))})"


class OptionalOf(OneOf):
    """``one_of(just(None), inner)``: absent first, so it shrinks to absent."""

    _spare_word = False

    def __init__(self, inner: Strategy) -> None:
        super().__init__((Just(None), inner))

    def __repr__(self) -> str:
        return f"optional_of({self.alternatives[1]!r})"


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

    def _draw(self, ctx: _Context) -> Any:
        return ctx.many(self.min_len, self.max_len, self.element._draw)

    def _values(self, stats: EnumStats | None) -> Iterator[Any]:
        sizes = range(self.min_len, self.max_len + 1)
        if self._skip_free:
            return itertools.chain.from_iterable(
                map(list, _chained_product((self.element,) * n, stats)) for n in sizes)
        return (v if type(v) is _Skip else list(v)
                for n in sizes for v in _product((self.element,) * n, stats))

    def _unrank(self, index: int) -> list[int]:
        for n in range(self.min_len, self.max_len + 1):
            block = self.element._span() ** n if index else 1  # position 0 needs no span
            if index < block:
                return [n - self.min_len,
                        *itertools.chain.from_iterable(_unrank_digits((self.element,) * n, index))]
            index -= block
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
            total += math.comb(kcard.count, k) * vcard.count ** k
            if total > TOO_LARGE_LIMIT:
                return TOO_LARGE
        return Cardinality.finite(total)

    @cached_property
    def _max_drawn_size(self) -> int:
        kcard = self.keys._cardinality()  # at least min_size keys, or __post_init__ raised
        return min(self.max_size, kcard.count) if kcard.is_finite else self.max_size

    def _keys_label(self) -> str:
        return f"<distinct keys of {self!r}>"

    def _draw(self, ctx: _Context) -> Any:
        """A size, then each entry: a key drawn until it is new, then its value."""
        seen: list[Any] = []

        def entry(ctx: _Context) -> tuple[Any, Any]:
            for _ in range(MAX_REJECTIONS_PER_VALUE):
                k = self.keys._draw(ctx)
                if k not in seen:
                    break
                ctx.charge_rejection(self._keys_label())
            else:
                raise RejectionExhausted(self._keys_label())
            seen.append(k)
            return k, self.values._draw(ctx)

        entries = ctx.many(self.min_size, self._max_drawn_size, entry)
        return dict(_key_sorted(entries, operator.itemgetter(0)))

    def _key_universe(self, stats: EnumStats | None) -> list[tuple[int, Any]]:
        """(base position, key) of each distinct accepted key, first occurrence
        first.  Every call walks (filter calls count); a completed walk memoizes."""
        universe: list[tuple[int, Any]] = []
        seen: set[Any] = set()  # keys end up as dict keys, so hashable by contract
        for tree in iter_trees(self.keys, stats):
            k = tree.current
            if k not in seen:
                seen.add(k)
                universe.append((tree.index, k))
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
        product = _chained_product if self.values._skip_free else _product
        for size in self._sizes(len(keys)):
            for key_combo in itertools.combinations(keys, size):
                for vals in product((self.values,) * size, stats):
                    yield vals if type(vals) is _Skip else dict(
                        _key_sorted(list(zip(key_combo, vals)), lambda kv: kv[0]))

    def _unrank(self, index: int) -> list[int]:
        positions = self._key_positions()
        vspan = self.values._span() if index else 1  # position 0 needs no value span
        for size in self._sizes(len(positions)):
            block = vspan ** size
            count = math.comb(len(positions), size) * block
            if index < count:
                rank, index = divmod(index, block)
                keys = [self.keys._unrank(positions[j])
                        for j in _unrank_combination(len(positions), size, rank)]
                vals = _unrank_digits((self.values,) * size, index)
                return [size - self.min_size,
                        *itertools.chain.from_iterable(k + v for k, v in zip(keys, vals))]
            index -= count
        raise IndexError("ordered_map_of: base position out of range")

    def _span(self, stats: EnumStats | None = None) -> int:
        n, vspan = len(self._key_positions(stats)), self.values._span(stats)
        return sum(math.comb(n, k) * vspan ** k for k in self._sizes(n))

    def __repr__(self) -> str:
        return (f"ordered_map_of({self.keys!r}, {self.values!r}, "
                f"{self.min_size}, {self.max_size})")


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
    """One seeded draw with its choices recorded, so that it shrinks.
    ``rejection_budget`` bounds the *total* number of filter rejections this
    draw may burn (on top of the per-value 100)."""
    rec = _Recorder(rng=rng, rejection_budget=rejection_budget)
    return _ChoiceTree(strategy, strategy._draw(rec), rec)


def _tree_at(strategy: Strategy, index: int) -> _ChoiceTree:
    """The tree at base position ``index``, replayed from its choices."""
    return _replay(strategy, strategy._unrank(index))


class _IndexedTree(ValueTree):
    """An enumerated value and its base position; its tree is replayed on demand.
    ``iter_trees`` builds one per value by slot stores, with no ``__init__``
    (a bare call of the class costs about half of ``object.__new__``'s)."""

    __slots__ = ("current", "strategy", "index")

    def candidates(self) -> Iterator[ValueTree]:
        return _tree_at(self.strategy, self.index).candidates()

    def complexity(self) -> tuple:
        return _tree_at(self.strategy, self.index).complexity()


def iter_trees(strategy: Strategy, stats: EnumStats | None = None) -> Iterator[ValueTree]:
    """Canonical enumeration as shrinkable trees carrying their base ``index``.
    No budget gating; callers that rely on finiteness check ``cardinality``.
    The exhaustive backend's per-value loop.  A stream with no filter below
    it has no ``_Skip``, so each value's index is its count.  Otherwise each
    accepted value's index is the count of positions before it, the rejected
    ones summed from their ``_Skip`` markers once the next accepted value
    comes."""
    tree_type, skip = _IndexedTree, _Skip
    values = strategy._values(stats)
    if strategy._skip_free:
        for index, v in enumerate(values):
            tree = tree_type()
            tree.current = v
            tree.strategy = strategy
            tree.index = index
            yield tree
        return
    index = 0
    skipped: list[_Skip] = []
    for v in values:
        if type(v) is skip:
            skipped.append(v)
            continue
        if skipped:
            index += sum(s.span(stats) for s in skipped)
            skipped.clear()
        tree = tree_type()
        tree.current = v
        tree.strategy = strategy
        tree.index = index
        yield tree
        index += 1


def enumerate_values(strategy: Strategy, budget: int | None = None) -> Iterator[Any]:
    """Canonical enumeration of values.

    Raises NotEnumerable for a domain already known to exceed 2**63 unless a
    ``budget`` is supplied, in which case at most ``budget`` (accepted)
    values are yielded.
    """
    card = strategy._cardinality()
    if card.kind == "too_large" and budget is None:
        raise NotEnumerable(f"{strategy!r} has more than 2**63 elements; pass a budget")
    values = strategy._values(None)
    if not strategy._skip_free:
        values = (v for v in values if type(v) is not _Skip)
    return values if budget is None else itertools.islice(values, budget)
