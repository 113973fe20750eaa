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

The parser builds the ordinary strategy combinators as it reads; there is no
separate syntax tree.  A literal is ``just``, a class is an ascending table
under an ``int_range`` map, and concatenation, alternation and repetition are
``tuple_of``, ``one_of`` and ``list_of``.  So generation, enumeration order,
cardinality and shrinking all come from one semantics:
classes enumerate ascending, concatenation is row-major with the leftmost part
slowest, alternation follows branch order, and repetition goes shortest-first.
Branches may overlap, so a Finite cardinality is an upper bound on the number
of distinct strings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from .strategies import (Cardinality, EnumStats, Strategy, Walk, _Context, int_range, just,
                         list_of, one_of, tuple_of)

PRINTABLE_LO = 0x20
PRINTABLE_HI = 0x7E

_ESCAPABLE = set("\\.[](){}|*+?")
DEFAULT_REPETITION_CAP = 8


class ParseError(ValueError):
    """Pattern rejected; ``offset`` is the 0-based position of the problem."""

    def __init__(self, offset: int, message: str) -> None:
        super().__init__(f"parse error at offset {offset}: {message}")
        self.offset = offset


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


def _join(parts) -> str:
    return "".join(parts)


def _class_strategy(ranges: tuple[tuple[int, int], ...]) -> Strategy:
    """The class's characters in ascending order, indexed by an ``int_range``."""
    table = tuple(chr(cp) for lo, hi in ranges for cp in range(lo, hi + 1))
    if len(table) == 1:
        return just(table[0])
    return int_range(0, len(table) - 1, width=32, signed=False) \
        .map(lambda i, _t=table: _t[i])


# --------------------------------------------------------------------------
# parser (recursive descent, offsets preserved for diagnostics): each method
# returns the strategy for what it read

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

    def parse(self) -> Strategy:
        node = self.alternation()
        if self.pos != len(self.text):
            raise self.error(f"unexpected {self.text[self.pos]!r}")
        return node

    def alternation(self) -> Strategy:
        branches = [self.concat()]
        while self.peek() == "|":
            self.take()
            branches.append(self.concat())
        return branches[0] if len(branches) == 1 else one_of(*branches)

    def concat(self) -> Strategy:
        parts: list[Strategy] = []
        while True:
            ch = self.peek()
            if ch is None or ch in "|)":
                break
            parts.append(self.repeatable())
        if not parts:
            return just("")
        return parts[0] if len(parts) == 1 else tuple_of(*parts).map(_join)

    def repeatable(self) -> Strategy:
        node = self.atom()
        quantified = False
        while True:
            ch = self.peek()
            if ch in ("?", "*", "+") or (ch == "{"):
                if quantified:
                    raise self.error("multiple repeat")
                node = list_of(node, *self.quantifier()).map(_join)
                quantified = True
            else:
                return node

    def quantifier(self) -> tuple[int, int]:
        """The bounds ``(m, n)`` of the quantifier at the cursor."""
        at = self.pos
        ch = self.take()
        if ch == "?":
            return 0, 1
        if ch == "*":
            return 0, self.cap
        if ch == "+":
            return 1, self.cap
        # {m} or {m,n}
        m = self.digits("quantifier lower bound")
        if self.peek() == "}":
            self.take()
            return m, m
        if self.peek() != ",":
            raise self.error("malformed quantifier", at)
        self.take()
        n = self.digits("quantifier upper bound")
        if self.peek() != "}":
            raise self.error("malformed quantifier", at)
        self.take()
        if m > n:
            raise self.error(f"bad repeat interval {{{m},{n}}}", at)
        return m, n

    def digits(self, what: str) -> int:
        start = self.pos
        while self.peek() is not None and self.peek().isdigit():
            self.take()
        if start == self.pos:
            raise self.error(f"expected digits for {what}")
        return int(self.text[start:self.pos])

    def atom(self) -> Strategy:
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
            return _class_strategy(((PRINTABLE_LO, PRINTABLE_HI),))
        if ch == "\\":
            esc = self.peek()
            if esc is None:
                raise self.error("dangling escape", at)
            if esc not in _ESCAPABLE:
                raise self.error(f"unsupported escape \\{esc}", at)
            self.take()
            return just(esc)
        if ch in ("*", "+", "?"):
            raise self.error("quantifier with nothing to repeat", at)
        if ch in ("{", "}"):
            raise self.error("brace must be escaped or form a quantifier", at)
        if ch in ("^", "$"):
            raise self.error(f"unsupported anchor {ch!r}", at)
        if not (PRINTABLE_LO <= ord(ch) <= PRINTABLE_HI):
            raise self.error(f"character {ch!r} outside printable ASCII", at)
        return just(ch)

    def char_class(self, at: int) -> Strategy:
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
        return _class_strategy(ranges)

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


@dataclass(frozen=True)
class Pattern(Strategy):
    """Strategy over the language of a pattern: the combinators its parse built."""

    text: str
    star_cap: int = DEFAULT_REPETITION_CAP
    _compiled: Strategy = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.star_cap < 1:
            raise ValueError("star_cap must be at least 1")
        object.__setattr__(self, "_compiled", _Parser(self.text, self.star_cap).parse())

    def _cardinality(self) -> Cardinality:
        return self._compiled._cardinality()

    def _draw(self, ctx: _Context) -> Any:
        return self._compiled._draw(ctx)

    def _walk(self, stats: EnumStats) -> Walk:
        return self._compiled._walk(stats)

    def __repr__(self) -> str:
        return f"pattern({self.text!r})"


def pattern(text: str, star_cap: int = DEFAULT_REPETITION_CAP) -> Pattern:
    """Strategy over strings matching ``text`` (see module docstring for the
    supported subset), rewriting ``*``/``+`` with ``star_cap``.  A bad pattern
    raises ParseError here."""
    return Pattern(text, star_cap)
