"""First-class value strategies.

A strategy is a small immutable description of a value domain.  Nothing here
draws a value or proves anything by itself: strategies are *interpreted* by
the checking backends.  These interpretations live in this module because
every backend shares them:

* ``_draw``           -- one draw, as a sequence of choices (below);
* ``_draw_factory``   -- the fuzz loop's plain seeded draw, generated (below);
* ``random_tree``     -- a seeded draw with its choices recorded, as a
                         :class:`ValueTree` (the value plus its ordered shrink
                         candidates);
* ``_walk``           -- the canonical, deterministic enumeration of the
                         whole domain, each value with the choices that draw
                         it (below);
* ``cardinality``     -- the exact or bounding size of the domain.

So each node has three readings: ``_cardinality``, ``_draw`` and ``_walk``.

The symbolic interpretation lives in :mod:`tricheck.symbolic` so this module
stays free of solver machinery.

Each random decision a node makes (an integer, a ``one_of`` alternative, a
list or map size) is one ``ctx.choice(lo, hi)``, and a draw makes no other
PRNG call, so it is exactly its choice sequence.  The fuzz loop's context
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

The fuzz loop does not call ``_draw`` per node.  On its first run over a
strategy, ``_DrawWriter`` writes the plain draw as one straight-line
function, compiled once and cached on the strategy (``_draw_factory``):
each ``int_range`` is an inline mask-and-reject loop over the run's
``next_u64`` and each combinator is inlined, so a case costs one frame plus
its PRNG words instead of a frame per node.  It makes the PRNG calls, user
calls and rejection charges of ``_draw`` under ``_GenContext``, which is
kept beside it as the one definition of a draw: recording, replay,
shrinking and outside strategies use it, the generated draw calls it for
any node it does not write or that nests too deep to compile, and the tests
hold the two to the same values, words and errors.

Enumeration walks each node once.  ``_walk(stats)`` returns the node's
values in canonical order as a lazy stream of chained C iterators, and
``choices()``, the choices that draw the value last yielded, never read
from that value, which the predicate may have mutated: an ``int_range``
reads how many values its range iterator has left; a ``one_of``, a list
size and each half of a product note the walk they started last; and a
map notes each distinct key's choices as it walks its keys, once, before
its first entry.  A filter drops, and notes in ``stats``, each value its
predicate rejects, so it never walks what that value would have been
combined with.  ``walk`` puts a walk's ``choices`` in ``stats``: the
exhaustive backend walks values through it and replays only a failing
value, from its choices.  ``iter_trees`` and ``enumerate_values`` are views
of the same walk, as shrinkable trees carrying their choices and as values.
"""

from __future__ import annotations

import itertools
import linecache
import math
import operator
import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Iterator, Sequence

from .prng import SplitMix64

_WIDTHS = (8, 16, 32, 64)

#: Counting saturates once any intermediate exceeds this.
TOO_LARGE_LIMIT = 2 ** 63

#: Per-value retry budget when a filter (or a distinct-key draw) rejects.
MAX_REJECTIONS_PER_VALUE = 100

#: Safety cap on the distinct keys a key-ordered map's enumeration walks.
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


class Uninterpreted(NotImplementedError):
    """A strategy node lacks an interpretation that a backend reads."""


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


_first = operator.itemgetter(0)


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
    ``many(lo, hi, draw)``, a size chosen in [lo, hi], then that many elements
    drawn by ``draw``; and ``charge_rejection(label)``, one filter rejection."""

    __slots__ = ("rng", "rejection_budget")

    def charge_rejection(self, label: str) -> None:
        if self.rejection_budget is not None:
            self.rejection_budget -= 1
            if self.rejection_budget < 0:
                raise RejectionExhausted(
                    label, f"filter {label!r} exhausted the run-wide rejection budget")


class _GenContext(_Context):
    """A plain seeded draw: every choice comes straight from the PRNG."""

    __slots__ = ("choice",)

    def __init__(self, rng: SplitMix64, rejection_budget: int | None = None) -> None:
        self.rng = rng
        self.rejection_budget = rejection_budget
        self.choice = rng.uniform_in

    def many(self, lo: int, hi: int, draw: Callable[[_Context], Any]) -> list:
        return [draw(self) for _ in range(self.rng.uniform_in(lo, hi))]


class _Overrun(Exception):
    """A replay needed more choices than its limit allows."""


class _Recorder(_Context):
    """A draw that records each choice as its offset from ``lo``.  Offsets are
    read from ``prefix`` first (clamped to the range asked for), then from
    the PRNG, or are 0 when there is none.  Each list or map is also
    recorded, as the position of its size choice in ``choices``, where each
    element starts, and where the last one ends.  A draw that needs more than
    ``limit`` choices raises ``_Overrun``."""

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

    def many(self, lo: int, hi: int, draw: Callable[[_Context], Any]) -> list:
        n = self.choice(lo, hi)
        size_at = len(self.choices) - 1
        starts, out = [], []
        for _ in range(n):
            starts.append(len(self.choices))
            out.append(draw(self))
        self.containers.append((size_at, starts, len(self.choices)))
        return out


# --------------------------------------------------------------------------
# the generated plain draw

#: A node is inlined only this many suites and nodes deep, and past them
#: calls its own ``_draw``: CPython compiles at most 20 nested loops and
#: ``try`` blocks in one function (a node opens at most three more), and the
#: writer takes a frame or two per node.
_MAX_INDENT, _MAX_LEVEL = 15, 64

#: numbers each written draw's file name
_DRAW_NAMES = itertools.count(1)


class _DrawWriter:
    """Writes a strategy's draw under ``_GenContext`` as straight-line source,
    ``make(ctx)``, which binds the run's ``next_u64`` and returns ``draw()``.
    Each node's code makes its ``_draw``'s PRNG calls, user calls and
    rejection charges in the same order; a node of any other exact type calls
    its own ``_draw(ctx)``."""

    def __init__(self) -> None:
        from .patterns import Pattern  # patterns imports this module
        self.writers = {
            Just: lambda s, out, level: self.emit(f"{out} = {self.const(s.value)}"),
            IntRange: lambda s, out, level: self.choice(s.lo, s.hi, out),
            Pattern: lambda s, out, level: self.node(s._compiled, out, level),
            Map: self.map, Filter: self.filter, OneOf: self.one_of,
            TupleOf: self.tuple_of, ListOf: self.list_of, OrderedMapOf: self.ordered_map_of}
        self.lines = ["def make(ctx):", " u, charge = ctx.rng.next_u64, ctx.charge_rejection",
                      " def draw():"]
        self.names = {"RejectionExhausted": RejectionExhausted, "_key_sorted": _key_sorted,
                      "_first": _first}
        self.indent, self.locals = 0, 0  # suites open in ``draw``

    def factory(self, s: "Strategy") -> Callable[[_Context], Callable[[], Any]]:
        """Compiles the draw under a name of its own, whose source is in
        ``linecache`` until ``make`` is collected (a draw, or a traceback
        through one, holds ``make`` through its globals), so a traceback
        through it shows the line it was on."""
        self.node(s, "x", 0)
        self.lines += ["  return x", " return draw"]
        name = f"<tricheck draw {next(_DRAW_NAMES)}>"
        source = "".join(line + "\n" for line in self.lines)
        linecache.cache[name] = (len(source), None, source.splitlines(True), name)
        exec(compile(source, name, "exec"), self.names)
        weakref.finalize(self.names["make"], linecache.cache.pop, name, None)
        return self.names["make"]

    def emit(self, line: str) -> None:
        self.lines.append(" " * (2 + self.indent) + line)

    def open(self, header: str) -> None:
        self.emit(header)
        self.indent += 1

    def local(self) -> str:
        self.locals += 1
        return f"v{self.locals}"

    def const(self, obj: Any) -> str:
        name = f"k{len(self.names)}"
        self.names[name] = obj
        return name

    def node(self, s: "Strategy", out: str, level: int) -> None:
        write = self.writers.get(type(s))
        if write is None or level > _MAX_LEVEL or self.indent > _MAX_INDENT:
            self.emit(f"{out} = {self.const(s)}._draw(ctx)")
        else:
            write(s, out, level + 1)

    def choice(self, lo: int, hi: int, out: str) -> None:
        """``SplitMix64.uniform_in(lo, hi)``: mask, then reject past the span."""
        if (hi - lo).bit_length() > 64:  # a size past one word, which uniform_in refuses
            return self.emit(f"{out} = ctx.choice({lo}, {hi})")
        mask = (1 << (hi - lo).bit_length()) - 1
        self.emit(f"{out} = u() & {mask}")
        if mask != hi - lo:
            self.emit(f"while {out} > {hi - lo}: {out} = u() & {mask}")
        if lo:
            self.emit(f"{out} += {lo}")

    def map(self, s: Map, out: str, level: int) -> None:
        self.node(s.inner, out, level)
        self.emit(f"{out} = {self.const(s.transform)}({out})")

    def filter(self, s: Filter, out: str, level: int) -> None:
        label = self.const(s.label)
        self.open(f"for _ in range({MAX_REJECTIONS_PER_VALUE}):")
        self.node(s.inner, out, level)
        self.emit("try:")
        self.emit(f" if {self.const(s.predicate)}({out}): break")
        self.emit("except Exception: pass")  # a crashing filter rejects, as in ``_accepts``
        self.emit(f"charge({label})")
        self.indent -= 1
        self.emit(f"else: raise RejectionExhausted({label})")

    def one_of(self, s: OneOf, out: str, level: int) -> None:
        alts, i = s.alternatives, self.local()
        self.choice(0, len(alts) - 1, i)

        def pick(lo: int, hi: int) -> None:  # a balanced tree of ifs
            if hi - lo == 1:
                return self.node(alts[lo], out, level)
            mid = (lo + hi) // 2
            for header, lo, hi in ((f"if {i} < {mid}:", lo, mid), ("else:", mid, hi)):
                self.open(header)
                pick(lo, hi)
                self.indent -= 1
        pick(0, len(alts))

    def tuple_of(self, s: TupleOf, out: str, level: int) -> None:
        parts = [self.local() for _ in s.components]
        for c, part in zip(s.components, parts):
            self.node(c, part, level)
        self.emit(f"{out} = ({''.join(p + ', ' for p in parts)})")

    def list_of(self, s: ListOf, out: str, level: int) -> None:
        n, v = self.local(), self.local()
        self.choice(s.min_len, s.max_len, n)
        self.emit(f"{out} = []")
        self.open(f"for _ in range({n}):")
        self.node(s.element, v, level)
        self.emit(f"{out}.append({v})")
        self.indent -= 1

    def ordered_map_of(self, s: OrderedMapOf, out: str, level: int) -> None:
        seen, n, k, v = (self.local() for _ in range(4))
        label = f"{self.const(s)}._keys_label()"
        self.emit(f"{seen} = []")
        self.choice(s.min_size, s._max_drawn_size, n)
        self.emit(f"{out} = []")
        self.open(f"for _ in range({n}):")
        self.open(f"for _ in range({MAX_REJECTIONS_PER_VALUE}):")
        self.node(s.keys, k, level)
        self.emit(f"if {k} not in {seen}: break")
        self.emit(f"charge({label})")
        self.indent -= 1
        self.emit(f"else: raise RejectionExhausted({label})")
        self.emit(f"{seen}.append({k})")
        self.node(s.values, v, level)
        self.emit(f"{out}.append(({k}, {v}))")
        self.indent -= 1
        self.emit(f"{out} = dict(_key_sorted({out}, _first))")


class EnumStats:
    """Counters threaded through enumeration; lets callers bound the filter
    rejections walked, and read the choices of the value last walked."""

    __slots__ = ("rejected", "max_rejected", "on_reject", "choices")

    def __init__(self, max_rejected: int | None = None,
                 on_reject: Callable[[], None] | None = None) -> None:
        self.rejected = 0
        self.max_rejected = max_rejected
        self.on_reject = on_reject
        self.choices: Callable[[], list[int]] | None = None  # set by ``walk``

    def note_reject(self, label: str) -> None:
        self.rejected += 1
        if self.on_reject is not None:
            self.on_reject()
        if self.max_rejected is not None and self.rejected > self.max_rejected:
            raise RejectionExhausted(
                label, f"filter {label!r}: base-domain traversal bound exceeded")


#: a node's values in canonical order, lazily, and ``choices()``, the
#: choices that draw the value last yielded
Walk = tuple[Iterator[Any], Callable[[], list[int]]]


def _product(walks: Sequence[Callable[[EnumStats], Walk]], stats: EnumStats,
             prefix: tuple = ()) -> Walk:
    """``prefix`` extended by each tuple of the row-major product of what
    ``walks`` start (last fastest), and the choices of the tuple last
    yielded.  No component is materialized: the right half is walked afresh
    per left tuple, and halving nests log2 of the component count deep.
    ``zip`` repeats a short prefix into each tuple; a long one is copied."""
    if len(walks) > 1:
        mid = len(walks) // 2
        right = walks[mid:]
        heads, head_choices = _product(walks[:mid], stats, prefix)
        tail_choices, head = list, None  # the head's choices, read once per head

        def tails(h: tuple) -> Iterator[tuple]:
            nonlocal tail_choices, head
            values, tail_choices = _product(right, stats, h)
            head = None
            return values

        def choices() -> list[int]:
            nonlocal head
            if head is None:
                head = head_choices()
            return head + tail_choices()
        return itertools.chain.from_iterable(map(tails, heads)), choices
    if walks:
        values, choices = walks[0](stats)
        if len(prefix) > 4:
            return map(prefix.__add__, zip(values)), choices
        return zip(*map(itertools.repeat, prefix), values), choices
    return iter((prefix,)), list


def _sum(walks: Iterator[tuple[int, Iterator[Any], Callable[[], list[int]]]]) -> Walk:
    """The streams of ``walks``, each ``(choice, values, choices)``, chained:
    a value's choices are its walk's choice, then that walk's own."""
    last: tuple = ()

    def start(walk: tuple) -> Iterator[Any]:
        nonlocal last
        last = walk
        return walk[1]
    return itertools.chain.from_iterable(map(start, walks)), lambda: [last[0], *last[2]()]


# --------------------------------------------------------------------------
# strategy nodes

class Strategy:
    """Immutable description of a value domain.  See module docstring."""

    def __init_subclass__(cls, **kwargs: Any) -> None:
        """A class that overrides ``_draw`` inherits no ``_walk`` of the draw it replaced."""
        super().__init_subclass__(**kwargs)
        if "_draw" in vars(cls) and "_walk" not in vars(cls):
            cls._walk = vars(Strategy)["_walk"]

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
    def _draw_factory(self) -> Callable[[_Context], Callable[[], Any]]:
        """``make(ctx)``: the draw under ``_GenContext`` ``ctx``, written and
        compiled on first use; ``make`` binds the run's ``next_u64`` each call."""
        return _DrawWriter().factory(self)

    # interpretation hooks ------------------------------------------------
    def _uninterpreted(self, hook: str) -> Uninterpreted:
        return Uninterpreted(f"strategy {type(self).__name__} has no {hook} interpretation")

    def _cardinality(self) -> Cardinality:
        raise self._uninterpreted("_cardinality")

    def _draw(self, ctx: _Context) -> Any:
        """One value: each random decision is one ``ctx.choice(lo, hi)``, and
        a list or map is built by one ``ctx.many``."""
        raise self._uninterpreted("_draw")

    def _walk(self, stats: EnumStats) -> Walk:
        """The domain's values and their choices (``Walk``); a filter's
        rejection is noted in ``stats``, never yielded."""
        raise self._uninterpreted("_walk")


@dataclass(frozen=True)
class Just(Strategy):
    value: Any

    def _cardinality(self) -> Cardinality:
        return Cardinality.finite(1)

    def _draw(self, ctx: _Context) -> Any:
        return self.value

    def _walk(self, stats: EnumStats) -> Walk:
        return iter((self.value,)), list

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

    def _walk(self, stats: EnumStats) -> Walk:
        values, top = iter(range(self.lo, self.hi + 1)), self.hi - self.lo
        left = values.__length_hint__  # exact past 2**63, where operator.length_hint raises
        return values, lambda: [top - left()]

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

    def _walk(self, stats: EnumStats) -> Walk:
        values, choices = self.inner._walk(stats)
        return map(self.transform, values), choices

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

    def _walk(self, stats: EnumStats) -> Walk:
        values, choices = self.inner._walk(stats)

        def kept(v: Any) -> bool:  # a rejection is noted, and ``note_reject`` returns None
            return self._accepts(v) or stats.note_reject(self.label)
        return filter(kept, values), choices

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

    def _draw(self, ctx: _Context) -> Any:
        return self.alternatives[ctx.choice(0, len(self.alternatives) - 1)]._draw(ctx)

    def _walk(self, stats: EnumStats) -> Walk:
        return _sum((i, *alt._walk(stats)) for i, alt in enumerate(self.alternatives))

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

    def _walk(self, stats: EnumStats) -> Walk:
        return _product([c._walk for c in self.components], stats)

    def __repr__(self) -> str:
        return f"tuple_of({', '.join(map(repr, self.components))})"


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

    def _walk(self, stats: EnumStats) -> Walk:
        def sized(n: int) -> tuple:
            values, choices = _product([self.element._walk] * n, stats)
            return n - self.min_len, map(list, values), choices
        return _sum(map(sized, range(self.min_len, self.max_len + 1)))

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
        return dict(_key_sorted(entries, _first))

    def _walk(self, stats: EnumStats) -> Walk:
        def entry(key_choices: list[int]) -> Callable[[EnumStats], Walk]:
            def walk(stats: EnumStats) -> Walk:
                values, choices = self.values._walk(stats)
                return values, lambda: key_choices + choices()
            return walk

        def combos() -> Iterator[tuple]:
            keys, key_choices = self.keys._walk(stats)
            universe: dict[Any, list[int]] = {}  # keys end up as dict keys, so hashable
            for k in keys:
                if k not in universe:
                    universe[k] = key_choices()
                    if len(universe) > _KEY_UNIVERSE_CAP:
                        raise NotEnumerable("ordered_map_of: key universe too large to enumerate")
            for size in range(self.min_size, min(self.max_size, len(universe)) + 1):
                for combo in itertools.combinations(universe, size):
                    values, choices = _product([entry(universe[k]) for k in combo], stats)
                    yield size - self.min_size, map(
                        lambda vals, combo=combo: dict(_key_sorted(list(zip(combo, vals)), _first)),
                        values), choices
        return _sum(combos())

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
    """``one_of(just(None), inner)``: absent first, so it shrinks to absent."""
    return OneOf((Just(None), inner))


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


class _WalkedTree(_ChoiceTree):
    """An enumerated value and the choices that draw it, replayed only when
    its candidates are asked for."""

    __slots__ = ()

    def __init__(self, strategy: Strategy, value: Any, choices: list[int]) -> None:
        self.current, self.strategy, self.choices = value, strategy, tuple(choices)

    def candidates(self) -> Iterator[ValueTree]:
        return self.replay().candidates()


def walk(strategy: Strategy, stats: EnumStats) -> Iterator[Any]:
    """Canonical enumeration of values, building no tree; ``stats.choices()``
    gives the value last yielded's choices.  Callers check ``cardinality``."""
    values, stats.choices = strategy._walk(stats)
    return values


def iter_trees(strategy: Strategy, stats: EnumStats | None = None) -> Iterator[ValueTree]:
    """The walk as shrinkable trees, each carrying its value's choices."""
    values, choices = strategy._walk(EnumStats() if stats is None else stats)
    for v in values:
        yield _WalkedTree(strategy, v, choices())


def enumerate_values(strategy: Strategy, budget: int | None = None) -> Iterator[Any]:
    """Canonical enumeration of values.  Raises NotEnumerable for a domain
    known to exceed 2**63 unless a ``budget`` caps the (accepted) values."""
    card = strategy._cardinality()
    if card.kind == "too_large" and budget is None:
        raise NotEnumerable(f"{strategy!r} has more than 2**63 elements; pass a budget")
    values, _ = strategy._walk(EnumStats())
    return values if budget is None else itertools.islice(values, budget)
