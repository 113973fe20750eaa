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
* ``iter_positions``  -- the canonical, deterministic enumeration of the
                         whole domain, walked as (base position, plain
                         value) pairs (below), and ``iter_trees`` the same
                         walk as trees;
* ``cardinality``     -- the exact or bounding size of the domain.

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

Enumeration is index-addressed.  A node's base positions are its values in
canonical order, except that a filter keeps its inner domain's positions
(rejected ones too) and ``ordered_map_of`` deduplicates its keys.  ``_span()``
counts them, ``_values(stats, skip)`` streams the plain value at each
accepted one lazily, and ``_unrank(i)`` gives the choices that draw position
``i``: mixed-radix digits for products (last component fastest), offsets for
sums and sizes, and for maps the key and value choices of the combination
that a combinadic rank picks.  An empty domain raises ``IndexError`` for
``_unrank(0)``, as for any position out of range; at position 0 no node
reads a span and products unrank their components in enumeration order, so
rebuilding it walks no key universe that enumeration did not.

A stream holds only values, built from chained C iterators (``chain``,
``map``, ``zip``) except where a filter or a map's entries need a
generator.  A filter reports each value it rejects as ``skip(())``, and a
product's left half reports a rejection as ``skip(rest + right)``: the
rejected position heads the whole product of the components in ``rest``.
``iter_positions`` pairs each value with its base position and builds
nothing per value: a domain of known size has no filter, so ``enumerate``
counts it in C, and any other goes through one generator that sizes what
``skip`` was told only once the next accepted value comes, so a skipped
tail is never walked for nothing.  The exhaustive backend and a map's key
walk go through it; ``iter_trees`` wraps each pair in an ``_IndexedTree``
for callers that want trees.  ``enumerate_values`` needs no positions, so
its ``skip`` drops what it is told.  A tree is replayed only where one is
asked, from its position (``_tree_at``).
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
                      "_first": operator.itemgetter(0)}
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


#: Where a rejection goes: ``skip(rest)`` for a rejected position that heads
#: the whole product of the components in ``rest``.
Skip = Callable[[tuple], None]


def _product(comps: Sequence["Strategy"], stats: EnumStats | None, skip: Skip,
             prefix: tuple = ()) -> Iterator[tuple]:
    """``prefix`` extended by each tuple of the row-major product of
    ``comps`` (last component fastest), as chained C iterators.  Unlike
    itertools.product this never materializes a component stream: the right
    half is walked afresh for each tuple of the left half, and a rejection
    on the left reaches ``skip`` with the right half added, since it skips
    that half whole.  Halving keeps the nesting at log2 of the number of
    components, and costs a generator step per left tuple only."""
    if len(comps) > 1:
        mid = len(comps) // 2
        right = comps[mid:]
        return itertools.chain.from_iterable(
            _product(right, stats, skip, h)
            for h in _product(comps[:mid], stats, lambda rest: skip(rest + right), prefix))
    if comps:
        return zip(*map(itertools.repeat, prefix), comps[0]._values(stats, skip))
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

    def __init_subclass__(cls, **kwargs: Any) -> None:
        """A class that overrides ``_draw`` inherits no ``_values``,
        ``_unrank`` or ``_span``: those read the draw it replaced."""
        super().__init_subclass__(**kwargs)
        if "_draw" in vars(cls):
            for hook in ("_values", "_unrank", "_span"):
                if hook not in vars(cls):
                    setattr(cls, hook, vars(Strategy)[hook])

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

    def _values(self, stats: EnumStats | None, skip: Skip) -> Iterator[Any]:
        """The plain value at every accepted base position, lazily; a rejected
        one is reported as ``skip(())``, never yielded."""
        raise self._uninterpreted("_values")

    def _unrank(self, index: int) -> list[int]:
        """The choices that draw the value at base position ``index``."""
        raise self._uninterpreted("_unrank")

    def _span(self, stats: EnumStats | None = None) -> int:
        """The number of base positions."""
        raise self._uninterpreted("_span")


@dataclass(frozen=True)
class Just(Strategy):
    value: Any

    def _cardinality(self) -> Cardinality:
        return Cardinality.finite(1)

    def _draw(self, ctx: _Context) -> Any:
        return self.value

    def _values(self, stats: EnumStats | None, skip: Skip) -> Iterator[Any]:
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

    def _values(self, stats: EnumStats | None, skip: Skip) -> Iterator[Any]:
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

    def _values(self, stats: EnumStats | None, skip: Skip) -> Iterator[Any]:
        return map(self.transform, self.inner._values(stats, skip))

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

    def _values(self, stats: EnumStats | None, skip: Skip) -> Iterator[Any]:
        for v in self.inner._values(stats, skip):
            if self._accepts(v):
                yield v
            else:
                if stats is not None:
                    stats.note_reject(self.label)
                skip(())

    def _unrank(self, index: int) -> list[int]:
        return self.inner._unrank(index)

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

    def _draw(self, ctx: _Context) -> Any:
        return self.alternatives[ctx.choice(0, len(self.alternatives) - 1)]._draw(ctx)

    def _values(self, stats: EnumStats | None, skip: Skip) -> Iterator[Any]:
        return itertools.chain.from_iterable(
            alt._values(stats, skip) for alt in self.alternatives)

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

    def _values(self, stats: EnumStats | None, skip: Skip) -> Iterator[Any]:
        return _product(self.components, stats, skip)

    def _unrank(self, index: int) -> list[int]:
        return list(itertools.chain.from_iterable(_unrank_digits(self.components, index)))

    def _span(self, stats: EnumStats | None = None) -> int:
        return math.prod(c._span(stats) for c in self.components)

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

    def _values(self, stats: EnumStats | None, skip: Skip) -> Iterator[Any]:
        return itertools.chain.from_iterable(
            map(list, _product((self.element,) * n, stats, skip))
            for n in range(self.min_len, self.max_len + 1))

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
        for index, k in iter_positions(self.keys, stats):
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

    def _values(self, stats: EnumStats | None, skip: Skip) -> Iterator[Any]:
        keys = [k for _, k in self._key_universe(stats)]
        for size in self._sizes(len(keys)):
            for key_combo in itertools.combinations(keys, size):
                for vals in _product((self.values,) * size, stats, skip):
                    yield dict(_key_sorted(list(zip(key_combo, vals)), lambda kv: kv[0]))

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


def iter_positions(strategy: Strategy,
                   stats: EnumStats | None = None) -> Iterator[tuple[int, Any]]:
    """Canonical enumeration as ``(base position, value)`` pairs, building no
    tree.  No budget gating; callers that rely on finiteness check
    ``cardinality``.  A domain of known size has no filter below it, so
    nothing reaches ``skip`` and each value's position is its count, paired
    in C by ``enumerate``.  Otherwise each accepted value's position is the
    count of positions before it, the rejected ones sized from what ``skip``
    was told once the next accepted value comes."""
    skipped: list[tuple] = []
    values = strategy._values(stats, skipped.append)
    if strategy._cardinality().kind != "unknown":
        return enumerate(values)
    return _skipping_positions(values, skipped, stats)


def _skipping_positions(values: Iterator[Any], skipped: list[tuple],
                        stats: EnumStats | None) -> Iterator[tuple[int, Any]]:
    """``iter_positions`` of a stream whose rejections land in ``skipped``."""
    index = 0
    for v in values:
        if skipped:
            index += sum(math.prod(c._span(stats) for c in rest) for rest in skipped)
            skipped.clear()
        yield index, v
        index += 1


def iter_trees(strategy: Strategy, stats: EnumStats | None = None) -> Iterator[ValueTree]:
    """``iter_positions`` as shrinkable trees carrying their base ``index``;
    each tree replays its choices only when its candidates are asked for."""
    tree_type = _IndexedTree
    for index, v in iter_positions(strategy, stats):
        tree = tree_type()
        tree.current = v
        tree.strategy = strategy
        tree.index = index
        yield tree


def enumerate_values(strategy: Strategy, budget: int | None = None) -> Iterator[Any]:
    """Canonical enumeration of values.

    Raises NotEnumerable for a domain already known to exceed 2**63 unless a
    ``budget`` is supplied, in which case at most ``budget`` (accepted)
    values are yielded.
    """
    card = strategy._cardinality()
    if card.kind == "too_large" and budget is None:
        raise NotEnumerable(f"{strategy!r} has more than 2**63 elements; pass a budget")
    values = strategy._values(None, lambda rest: None)  # no positions, so no skip to size
    return values if budget is None else itertools.islice(values, budget)
