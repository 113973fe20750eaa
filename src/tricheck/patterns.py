"""String strategies from a small regular-expression subset.

Supported syntax (the tool's whole pattern language — nothing else):

* literals over printable ASCII (0x20..0x7E)
* ``.`` (any printable ASCII character)
* character classes ``[a-z]``, ``[^0-9]`` (negation is against printable ASCII)
* concatenation, alternation ``|``, grouping ``( )``
* quantifiers ``?``, ``*``, ``+``, ``{m}``, ``{m,n}``; the unbounded forms are
  rewritten to ``{0,K}`` / ``{1,K}`` with a configurable cap K (default 8)
* escapes ``\\\\ \\. \\[ \\] \\( \\) \\| \\{ \\} \\* \\+ \\?``

Anchors, backreferences, lookaround, lazy quantifiers and everything else are
rejected with a ParseError carrying the byte offset.

A parsed pattern compiles to the ordinary strategy combinators, so generation,
enumeration order, cardinality and shrinking all come from one semantics:
classes enumerate ascending, concatenation is row-major with the leftmost part
slowest, alternation follows branch order, and repetition goes shortest-first.
Branches may overlap, so a Finite cardinality is an upper bound on the number
of distinct strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterator

from . import strategies
from .strategies import Cardinality, EnumStats, Strategy, _Context

PRINTABLE_LO = 0x20
PRINTABLE_HI = 0x7E

_ESCAPABLE = set("\\.[](){}|*+?")
DEFAULT_REPETITION_CAP = 8


class ParseError(ValueError):
    """Pattern rejected; ``offset`` is the 0-based position of the problem."""

    def __init__(self, offset: int, message: str) -> None:
        super().__init__(f"parse error at offset {offset}: {message}")
        self.offset = offset


# --------------------------------------------------------------------------
# AST

@dataclass(frozen=True)
class Literal:
    char: str


@dataclass(frozen=True)
class AnyChar:
    pass


@dataclass(frozen=True)
class CharClass:
    """Sorted, merged, disjoint inclusive codepoint ranges; never empty."""

    ranges: tuple[tuple[int, int], ...]

    def chars(self) -> Iterator[str]:
        for lo, hi in self.ranges:
            for cp in range(lo, hi + 1):
                yield chr(cp)

    def contains(self, ch: str) -> bool:
        cp = ord(ch)
        return any(lo <= cp <= hi for lo, hi in self.ranges)


@dataclass(frozen=True)
class Concat:
    parts: tuple


@dataclass(frozen=True)
class Alternation:
    branches: tuple


@dataclass(frozen=True)
class Repeat:
    inner: object
    min: int
    max: int


PatternAst = object  # union of the six node kinds above


def _normalize_ranges(raw: list[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    raw = sorted(raw)
    merged: list[tuple[int, int]] = []
    for lo, hi in raw:
        if merged and lo <= merged[-1][1] + 1:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return tuple(merged)


def _negate_ranges(ranges: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    out: list[tuple[int, int]] = []
    cursor = PRINTABLE_LO
    for lo, hi in ranges:
        if cursor < lo:
            out.append((cursor, lo - 1))
        cursor = max(cursor, hi + 1)
    if cursor <= PRINTABLE_HI:
        out.append((cursor, PRINTABLE_HI))
    return tuple(out)


_FULL_CLASS = CharClass(((PRINTABLE_LO, PRINTABLE_HI),))


# --------------------------------------------------------------------------
# parser (recursive descent, offsets preserved for diagnostics)

class _Parser:
    def __init__(self, text: str, star_cap: int) -> None:
        self.text = text
        self.pos = 0
        self.cap = star_cap

    def error(self, message: str, offset: int | None = None) -> ParseError:
        return ParseError(self.pos if offset is None else offset, message)

    def peek(self) -> str | None:
        return self.text[self.pos] if self.pos < len(self.text) else None

    def take(self) -> str:
        ch = self.text[self.pos]
        self.pos += 1
        return ch

    def parse(self) -> PatternAst:
        ast = self.alternation()
        if self.pos != len(self.text):
            raise self.error(f"unexpected {self.text[self.pos]!r}")
        return ast

    def alternation(self) -> PatternAst:
        branches = [self.concat()]
        while self.peek() == "|":
            self.take()
            branches.append(self.concat())
        if len(branches) == 1:
            return branches[0]
        return Alternation(tuple(branches))

    def concat(self) -> PatternAst:
        parts: list = []
        while True:
            ch = self.peek()
            if ch is None or ch in "|)":
                break
            parts.append(self.repeatable())
        if len(parts) == 1:
            return parts[0]
        return Concat(tuple(parts))

    def repeatable(self) -> PatternAst:
        node = self.atom()
        quantified = False
        while True:
            ch = self.peek()
            if ch in ("?", "*", "+") or (ch == "{"):
                if quantified:
                    raise self.error("multiple repeat")
                node = self.quantify(node)
                quantified = True
            else:
                return node

    def quantify(self, node: PatternAst) -> PatternAst:
        at = self.pos
        ch = self.take()
        if ch == "?":
            return Repeat(node, 0, 1)
        if ch == "*":
            return Repeat(node, 0, self.cap)
        if ch == "+":
            return Repeat(node, 1, self.cap)
        # {m} or {m,n}
        m = self.digits("quantifier lower bound")
        if self.peek() == "}":
            self.take()
            return Repeat(node, m, m)
        if self.peek() != ",":
            raise self.error("malformed quantifier", at)
        self.take()
        n = self.digits("quantifier upper bound")
        if self.peek() != "}":
            raise self.error("malformed quantifier", at)
        self.take()
        if m > n:
            raise self.error(f"bad repeat interval {{{m},{n}}}", at)
        return Repeat(node, m, n)

    def digits(self, what: str) -> int:
        start = self.pos
        while self.peek() is not None and self.peek().isdigit():
            self.take()
        if start == self.pos:
            raise self.error(f"expected digits for {what}")
        return int(self.text[start:self.pos])

    def atom(self) -> PatternAst:
        at = self.pos
        ch = self.take()
        if ch == "(":
            inner = self.alternation()
            if self.peek() != ")":
                raise self.error("unbalanced parenthesis", at)
            self.take()
            return inner
        if ch == "[":
            return self.char_class(at)
        if ch == ".":
            return AnyChar()
        if ch == "\\":
            esc = self.peek()
            if esc is None:
                raise self.error("dangling escape", at)
            if esc not in _ESCAPABLE:
                raise self.error(f"unsupported escape \\{esc}", at)
            self.take()
            return Literal(esc)
        if ch in ("*", "+", "?"):
            raise self.error("quantifier with nothing to repeat", at)
        if ch in ("{", "}"):
            raise self.error("brace must be escaped or form a quantifier", at)
        if ch in ("^", "$"):
            raise self.error(f"unsupported anchor {ch!r}", at)
        if not (PRINTABLE_LO <= ord(ch) <= PRINTABLE_HI):
            raise self.error(f"character {ch!r} outside printable ASCII", at)
        return Literal(ch)

    def char_class(self, at: int) -> CharClass:
        negated = False
        if self.peek() == "^":
            negated = True
            self.take()
        raw: list[tuple[int, int]] = []
        while True:
            ch = self.peek()
            if ch is None:
                raise self.error("unterminated character class", at)
            if ch == "]" and raw:
                break
            lo = self.class_char()
            if self.peek() == "-" and self.pos + 1 < len(self.text) \
                    and self.text[self.pos + 1] != "]":
                self.take()
                hi = self.class_char()
                if lo > hi:
                    raise self.error(f"reversed class range {chr(lo)}-{chr(hi)}", at)
                raw.append((lo, hi))
            else:
                raw.append((lo, lo))
            if self.peek() == "]":
                break
        self.take()  # the closing bracket
        ranges = _normalize_ranges(raw)
        if negated:
            ranges = _negate_ranges(ranges)
        if not ranges:
            raise self.error("class matches nothing", at)
        return CharClass(ranges)

    def class_char(self) -> int:
        at = self.pos
        ch = self.take()
        if ch == "\\":
            esc = self.peek()
            if esc is None:
                raise self.error("dangling escape", at)
            if esc not in _ESCAPABLE and esc != "-":
                raise self.error(f"unsupported escape \\{esc}", at)
            self.take()
            ch = esc
        if not (PRINTABLE_LO <= ord(ch) <= PRINTABLE_HI):
            raise self.error(f"character {ch!r} outside printable ASCII", at)
        return ord(ch)


def parse_pattern(text: str, star_cap: int = DEFAULT_REPETITION_CAP) -> PatternAst:
    """Parse ``text`` into a pattern AST, rewriting ``*``/``+`` with ``star_cap``."""
    if star_cap < 1:
        raise ValueError("star_cap must be at least 1")
    return _Parser(text, star_cap).parse()


# --------------------------------------------------------------------------
# compilation to strategy combinators

def _join(parts) -> str:
    return "".join(parts)


def _class_strategy(cls: CharClass) -> Strategy:
    table = tuple(cls.chars())
    if len(table) == 1:
        return strategies.just(table[0])
    return strategies.int_range(0, len(table) - 1, width=32, signed=False) \
        .map(lambda i, _t=table: _t[i])


def _compile(node: PatternAst) -> Strategy:
    if isinstance(node, Literal):
        return strategies.just(node.char)
    if isinstance(node, AnyChar):
        return _class_strategy(_FULL_CLASS)
    if isinstance(node, CharClass):
        return _class_strategy(node)
    if isinstance(node, Concat):
        if not node.parts:
            return strategies.just("")
        return strategies.tuple_of(*[_compile(p) for p in node.parts]).map(_join)
    if isinstance(node, Alternation):
        return strategies.one_of(*[_compile(b) for b in node.branches])
    if isinstance(node, Repeat):
        return strategies.list_of(_compile(node.inner), node.min, node.max).map(_join)
    raise TypeError(f"not a pattern node: {node!r}")


@dataclass(frozen=True)
class Pattern(Strategy):
    """Strategy over the language of a parsed pattern."""

    text: str
    ast: PatternAst
    star_cap: int = DEFAULT_REPETITION_CAP

    @cached_property
    def _compiled(self) -> Strategy:
        return _compile(self.ast)

    def _cardinality(self) -> Cardinality:
        return self._compiled._cardinality()

    def _draw(self, ctx: _Context) -> Any:
        return self._compiled._draw(ctx)

    def _values(self, stats: EnumStats | None) -> Iterator[Any]:
        return self._compiled._values(stats)

    def _unrank(self, index: int) -> list[int]:
        return self._compiled._unrank(index)

    def _span(self, stats: EnumStats | None = None) -> int:
        return self._compiled._span(stats)

    def __repr__(self) -> str:
        return f"pattern({self.text!r})"


def pattern(text: str, star_cap: int = DEFAULT_REPETITION_CAP) -> Pattern:
    """Strategy over strings matching ``text`` (see module docstring for the
    supported subset)."""
    return Pattern(text, parse_pattern(text, star_cap), star_cap)
