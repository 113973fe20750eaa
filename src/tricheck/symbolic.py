"""Symbolic checking over integer intervals.

The predicate, and each map and filter of its strategy, is run once over
*carrier* values — expression nodes instead of ints — which records it as a
tree over {Const, Var, Add, Sub, Mul, Div, Rem, Neg} and comparisons and
connectives over those.  ``_record`` is the one place user code meets
carriers.  Carriers refuse to be coerced into native control flow: branching
on a symbolic boolean, ``int()``, ``len()``, ``str()`` and friends raise,
and a type test such as ``isinstance(x, int)`` reads the carrier's
``__class__``, and ``repr(x)`` its text, which ``_record`` notes.  Either
way the harness is reported as unsupported rather than silently checked
for the wrong thing.

A recorded formula is wired in one place: ``_shape`` walks it once into a
list of nodes, operands first and each distinct subterm once.  Each
operator's rule is written once as source, in two readings: over a box of
``(lo, hi)`` pairs (a range, or a truth: 1 true, -1 false, 0 maybe, with
comparisons decided by interval separation) and at a point of plain ints.  One-shot
evaluation runs one step per node, each its kind's rule compiled once per
reading.  ``branch_and_prune`` instead generates the source of one search
kernel for the formula's shape and its box layout: the whole loop, with
the formula as straight-line interval code over the bounds of the box it
searches, held in locals, and as plain integer code at each point of a
small undecided box.  It splits larger undecided boxes along their widest
dimension until every box is decided, a concrete witness refutes the
property, or the box budget or the deadline runs out.  Interval division
truncates toward zero and a divisor interval that straddles zero aborts
the analysis (soundly) instead.  Both readings evaluate both sides of ``&`` and ``|``.

Every verdict is anchored concretely, on values the strategy's own draw
builds (``_drawn``), never read from a carrier.  A witness must fail the
recorded formula under integer evaluation, and then the real predicate too;
a proof, vacuous or not, stands only once the real filters agree with the
hypothesis, and the real predicate holds, at a few points of each box (its
corners, its midpoint and each variable's bounds).
"""

from __future__ import annotations

import builtins
import functools
import itertools
import math
import sys
import threading
from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterator

from . import strategies as st
from .harness import (DeadlineReached, Property, RunConfig, Ticker, backend, called_at,
                      eval_predicate, raised_at)
from .results import Counterexample, UnknownReason, Verdict

#: Default box budget for a single branch_and_prune call.
DEFAULT_BOX_BUDGET = 100_000

#: The most points of a MAYBE box that is decided point by point, not split.
LEAF_POINTS = 128


# --------------------------------------------------------------------------
# errors

class SymbolicCoercion(TypeError):
    """A symbolic value leaked into native control flow (if/int/len/...)."""


class DivMaybeZero(ArithmeticError):
    """Interval division where the divisor interval contains zero."""

    def __init__(self, location: str | None) -> None:
        where = f" at {location}" if location else ""
        super().__init__(f"divisor interval contains zero{where}")
        self.location = location


class EvalError(ArithmeticError):
    """Concrete evaluation failed; ``kind`` is currently always div_by_zero."""

    def __init__(self, kind: str, location: str | None) -> None:
        where = f" at {location}" if location else ""
        super().__init__(f"{kind}{where}")
        self.kind = kind
        self.location = location


class _Unsupported(Exception):
    """Internal control flow: the harness cannot be checked symbolically;
    the message is the verdict's detail."""


#: The longest node repr a detail prints; a longer one is cut to end in "…".
_NODE_REPR_CAP = 80


def _inexpressible(s: st.Strategy) -> _Unsupported:
    """The give-up for a node that has no carrier, naming it (a user's node
    by its class: a default repr holds a memory address)."""
    node = repr(s) if type(s).__module__.startswith(f"{__package__}.") else type(s).__name__
    if len(node) > _NODE_REPR_CAP:
        node = node[:_NODE_REPR_CAP - 1] + "…"
    return _Unsupported(f"strategy {node} is not expressible over the symbolic carrier")


def _caller_location() -> str | None:
    try:
        frame = sys._getframe(2)
        return f"{frame.f_code.co_filename.rsplit('/', 1)[-1]}:{frame.f_lineno}"
    except Exception:  # pragma: no cover - platforms without frame access
        return None


# --------------------------------------------------------------------------
# intervals

@dataclass(frozen=True)
class Interval:
    """Closed integer interval [lo, hi]; endpoints are unbounded ints."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"interval [{self.lo}, {self.hi}] is empty")

    def contains(self, x: int) -> bool:
        return self.lo <= x <= self.hi

    def __repr__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


Box = dict  # var id -> Interval


def tdiv(a, b):
    """Division truncating toward zero; on carriers, builds a Div node.

    Host ``//`` floors, which is not what the symbolic Div means on negative
    operands, so shared predicate sources must use this helper (and ``trem``)
    for division under every backend.
    """
    if type(a) is int and type(b) is int:  # the common case, inline
        return a // b if (a < 0) == (b < 0) else -(-a // b)
    if isinstance(a, SymExpr) or isinstance(b, SymExpr):
        return Div(_as_expr(a), _as_expr(b), _caller_location())
    return _tq(a, b)


def trem(a, b):
    """Remainder with the sign of the dividend (pairs with ``tdiv``)."""
    if type(a) is int and type(b) is int:  # the common case, inline
        return a - b * (a // b if (a < 0) == (b < 0) else -(-a // b))
    if isinstance(a, SymExpr) or isinstance(b, SymExpr):
        return Rem(_as_expr(a), _as_expr(b), _caller_location())
    return a - b * _tq(a, b)


def _tq(a: int, b: int) -> int:
    """``tdiv`` on plain ints."""
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


# --------------------------------------------------------------------------
# carrier expressions

_CMP_SYMBOLS = {"lt": "<", "le": "<=", "gt": ">", "ge": ">=", "eq": "==", "ne": "!="}
_CMP_OPS = tuple(_CMP_SYMBOLS)


#: thread ident -> False, or once the user code ``_record`` runs in that thread
#: reads a carrier's ``__class__`` or ``repr``, what and where (``called_at``);
#: per thread, so callers may check in several threads; empty while none records
_recording: dict[int, bool | str] = {}


def _note(read: str) -> None:
    """Notes the first ``read`` of a carrier by the user code ``_record``
    runs in this thread, with the line it was made on."""
    if _recording and _recording.get(me := threading.get_ident()) is False:
        _recording[me] = f"{read}{called_at(sys._getframe(2))}"


def _class(self) -> type:
    """A carrier's ``__class__``, noted while user code runs: a type test
    such as ``isinstance(x, int)`` reads it once the exact-type check fails."""
    _note("tests the type of a symbolic value")
    return type(self)


def _repr(self) -> str:
    """A carrier's text, noted while user code runs, so tricheck's details can print it."""
    _note("reads the repr of a symbolic value")
    return self._text()


def _str(self, spec: str = "") -> str:
    """``str`` and ``format``, refused while user code runs: ``v0`` stands for any value."""
    if _recording and threading.get_ident() in _recording:
        raise SymbolicCoercion("symbolic value converted to a string")
    return format(self._text(), spec)


def _comparison(op: str):
    def compare(self, other):
        return Cmp(op, self, _as_expr(other))
    compare.__name__ = f"__{op}__"
    return compare


class SymExpr:
    """Base of the expression carriers.  Arithmetic builds nodes; anything
    that would need a concrete answer right now raises SymbolicCoercion."""

    __slots__ = ("_compiled",)

    def __add__(self, other):
        return Add(self, _as_expr(other))

    def __radd__(self, other):
        return Add(_as_expr(other), self)

    def __sub__(self, other):
        return Sub(self, _as_expr(other))

    def __rsub__(self, other):
        return Sub(_as_expr(other), self)

    def __mul__(self, other):
        return Mul(self, _as_expr(other))

    def __rmul__(self, other):
        return Mul(_as_expr(other), self)

    def __neg__(self):
        return Neg(self)

    __lt__, __le__, __gt__, __ge__, __eq__, __ne__ = map(_comparison, _CMP_OPS)
    __hash__ = None  # equality builds formulas, so these are not hashable
    __class__ = property(_class)
    __repr__ = _repr
    __str__ = __format__ = _str
    _text = object.__repr__  # what a node kind without text of its own prints

    def __bool__(self):
        raise SymbolicCoercion("symbolic value used as a native boolean")

    def __int__(self):
        raise SymbolicCoercion("symbolic value coerced with int()")

    __index__ = __int__

    def __float__(self):
        raise SymbolicCoercion("symbolic value coerced with float()")

    def __len__(self):
        raise SymbolicCoercion("symbolic value has no length")

    def __iter__(self):
        raise SymbolicCoercion("symbolic value is not iterable")


class Const(SymExpr):
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def _text(self) -> str:
        return repr(self.value)


class Var(SymExpr):
    __slots__ = ("vid",)

    def __init__(self, vid: int) -> None:
        if vid < 0:  # boxes number their variables from 0
            raise ValueError(f"variable id {vid} is negative")
        self.vid = vid

    def _text(self) -> str:
        return f"v{self.vid}"


class _Bin(SymExpr):
    __slots__ = ("lhs", "rhs", "location")
    op = "?"

    def __init__(self, lhs: SymExpr, rhs: SymExpr, location: str | None = None) -> None:
        self.lhs = lhs
        self.rhs = rhs
        self.location = location  # where a Div or Rem was written

    def _text(self) -> str:
        return f"({self.lhs!r} {self.op} {self.rhs!r})"


class Add(_Bin):
    __slots__ = ()
    op = "+"


class Sub(_Bin):
    __slots__ = ()
    op = "-"


class Mul(_Bin):
    __slots__ = ()
    op = "*"


class Div(_Bin):
    __slots__ = ()

    def _text(self) -> str:
        return f"tdiv({self.lhs!r}, {self.rhs!r})"


class Rem(_Bin):
    __slots__ = ()

    def _text(self) -> str:
        return f"trem({self.lhs!r}, {self.rhs!r})"


class Neg(SymExpr):
    __slots__ = ("inner",)

    def __init__(self, inner: SymExpr) -> None:
        self.inner = inner

    def _text(self) -> str:
        return f"(-{self.inner!r})"


def _as_expr(value) -> SymExpr:
    if isinstance(value, SymExpr):
        return value
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"cannot use {value!r} in a symbolic expression")
    return Const(value)


class SymBool:
    """Symbolic truth value.  Combine with ``&``, ``|``, ``~`` — the native
    ``and``/``or``/``not`` need a concrete bool and are trapped."""

    __slots__ = ("_compiled",)
    __class__ = property(_class)
    __repr__ = _repr
    __str__ = __format__ = _str
    _text = object.__repr__  # what a node kind without text of its own prints

    def __and__(self, other):
        return And(self, _as_bool(other))

    __rand__ = __and__

    def __or__(self, other):
        return Or(self, _as_bool(other))

    __ror__ = __or__

    def __invert__(self):
        return Not(self)

    def __bool__(self):
        raise SymbolicCoercion(
            "symbolic boolean used in a native branch; use &, |, ~")


class BoolConst(SymBool):
    __slots__ = ("value",)

    def __init__(self, value: bool) -> None:
        self.value = value

    def _text(self) -> str:
        return repr(self.value)


class Cmp(SymBool):
    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, op: str, lhs: SymExpr, rhs: SymExpr) -> None:
        self.op = op
        self.lhs = lhs
        self.rhs = rhs

    def _text(self) -> str:
        return f"({self.lhs!r} {_CMP_SYMBOLS[self.op]} {self.rhs!r})"


class _Junction(SymBool):
    __slots__ = ("lhs", "rhs")
    op = "?"

    def __init__(self, lhs: SymBool, rhs: SymBool) -> None:
        self.lhs = lhs
        self.rhs = rhs

    def _text(self) -> str:
        return f"({self.lhs!r} {self.op} {self.rhs!r})"


class And(_Junction):
    __slots__ = ()
    op = "&"


class Or(_Junction):
    __slots__ = ()
    op = "|"


class Not(SymBool):
    __slots__ = ("inner",)

    def __init__(self, inner: SymBool) -> None:
        self.inner = inner

    def _text(self) -> str:
        return f"~{self.inner!r}"


def _as_bool(value) -> SymBool:
    if isinstance(value, SymBool):
        return value
    if isinstance(value, bool):
        return BoolConst(value)
    raise TypeError(f"cannot use {value!r} as a symbolic boolean")


# --------------------------------------------------------------------------
# interval rules: each operator's range or truth, once, as source

def _range_rule(kind: type, a: tuple, b: tuple | None, x: str, y: str,
                abort: str | None) -> list[str]:
    """Statements setting ``x``, ``y`` to a sound range of a ``kind`` node
    (Neg, Add, Sub, Mul, Div or Rem) whose operands range over ``a`` and
    ``b``, each the sources of a ``(lo, hi)`` pair (``b`` is None for Neg).
    A divisor range holding zero runs the statement ``abort`` instead; with
    ``abort`` None the divisor is not checked, as an earlier node already
    checked the same range."""
    alo, ahi = a
    if kind is Neg:
        return [f"{x} = -{ahi}", f"{y} = -{alo}"]
    blo, bhi = b
    if kind is Add:
        return [f"{x} = {alo} + {blo}", f"{y} = {ahi} + {bhi}"]
    if kind is Sub:
        return [f"{x} = {alo} - {bhi}", f"{y} = {ahi} - {blo}"]
    if kind is Mul:
        return _hull(x, y, *(f"{p} * {q}" for p in a for q in b))
    guard = f"if {blo} <= 0 <= {bhi}: {abort}"
    checked = [guard] if abort else []
    if kind is Div:
        # with the divisor's sign fixed the quotient is monotone in each
        # argument, so endpoint combinations bound the image
        return [*checked, *_hull(x, y, *(_tq_source(p, q) for p in a for q in b))]
    # Rem: |remainder| < |divisor|, sign of the dividend; exact on a point
    return [*checked,
            f"if {alo} == {ahi} and {blo} == {bhi}:",
            f"    {x} = {y} = {alo} - {blo} * {_tq_source(alo, blo)}",
            "else:",
            f"    m = ({bhi} if {blo} > 0 else -{blo}) - 1",
            f"    {x} = 0 if {alo} >= 0 else {alo} if {alo} > -m else -m",
            f"    {y} = 0 if {ahi} <= 0 else {ahi} if {ahi} < m else m"]


def _hull(x: str, y: str, p: str, q: str, r: str, s: str) -> list[str]:
    """``x, y = min(p, q, r, s), max(p, q, r, s)`` without the calls."""
    return [f"p = {p}", f"q = {q}", f"r = {r}", f"s = {s}",
            f"if p < q: {x} = p; {y} = q",
            f"else: {x} = q; {y} = p",
            f"if r < {x}: {x} = r",
            f"elif r > {y}: {y} = r",
            f"if s < {x}: {x} = s",
            f"elif s > {y}: {y} = s"]


def _tq_source(a: str, b: str) -> str:
    """Source of ``_tq(a, b)``: floor division where the signs agree, else
    the negated floor of the negated dividend."""
    return f"({a} // {b} if ({a} < 0) == ({b} < 0) else -(-{a} // {b}))"


def _compare_rule(op: str, a: tuple, b: tuple, t: str) -> str:
    """Statement setting ``t`` to the truth of comparison ``op`` between
    operands ranging over ``a`` and ``b``: 1 TRUE, -1 FALSE, 0 MAYBE."""
    # each comparison is lt or eq, negated for ge/le/ne, with the operands'
    # roles swapped for gt/le
    yes, no = ("(-1)", "1") if op in ("ge", "le", "ne") else ("1", "(-1)")
    (alo, ahi), (blo, bhi) = (b, a) if op in ("gt", "le") else (a, b)
    if op in ("eq", "ne"):
        return (f"{t} = {no} if {ahi} < {blo} or {bhi} < {alo} "
                f"else {yes} if {alo} == {ahi} == {blo} == {bhi} else 0")
    return f"{t} = {yes} if {ahi} < {blo} else {no} if {alo} >= {bhi} else 0"


def _point_rule(kind: type | str, a: str, b: str | None, x: str,
                abort: str | None, quotient: str | None = None) -> list[str]:
    """Statements setting ``x`` to the value at a point of a ``kind`` node
    (Neg to Rem, an int) or comparison (``kind`` is its op, a bool), whose
    operands' values are the sources ``a`` and ``b`` (``b`` is None for
    Neg).  On a box of one point this is what ``_range_rule`` and
    ``_compare_rule`` compute, since interval arithmetic is exact there, and
    a zero divisor runs ``abort`` as a divisor range holding zero does (with
    ``abort`` None, an earlier node checked this divisor).  Div and Rem read
    ``tdiv(a, b)`` from ``quotient`` where an earlier node computed it."""
    if kind is Neg:
        return [f"{x} = -{a}"]
    if kind is Div or kind is Rem:
        checked = [] if abort is None else [f"if {b} == 0: {abort}"]
        quotient = quotient or _tq_source(a, b)
        return [*checked,
                f"{x} = {quotient}" if kind is Div else f"{x} = {a} - {b} * {quotient}"]
    op = _CMP_SYMBOLS[kind] if isinstance(kind, str) else kind.op  # Add, Sub, Mul
    return [f"{x} = {a} {op} {b}"]


_EXPR_KINDS = (Const, Var, Neg, Add, Sub, Mul, Div, Rem)
_FORMULA_KINDS = (BoolConst, Not, And, Or, Cmp)


def _reading(kind: type | str, a, b, k: int, abort: str | None,
             point: bool, quotient: str | None = None) -> tuple[list[str], Any]:
    """``(statements, result)`` reading node ``k`` of ``kind`` (Neg to Rem, a
    comparison op, Not, And or Or) from its operands' results ``a`` and
    ``b`` (None for Neg and Not), all sources.  At a point a result is an
    int or a bool; over a box a ``(lo, hi)`` pair or a truth, 1 TRUE, -1
    FALSE, 0 MAYBE, so ``&``/``|``/``~`` are min, max and negation.
    ``abort`` runs where a divisor may be zero, and a Div or Rem at a point
    reads ``quotient`` (see ``_point_rule``)."""
    if kind in _EXPR_KINDS:
        x, y = f"x{k}", f"y{k}"
        if point:
            return _point_rule(kind, a, b, x, abort, quotient), x
        return _range_rule(kind, a, b, x, y, abort), (x, y)
    t = f"t{k}"
    if kind is Not:
        return [f"{t} = not {a}" if point else f"{t} = -{a}"], t
    if kind is And or kind is Or:
        if point:
            return [f"{t} = {a} {'and' if kind is And else 'or'} {b}"], t
        return [f"{t} = {a} if {a} {'<' if kind is And else '>'} {b} else {b}"], t
    if point:
        return _point_rule(kind, a, b, t, None), t
    return [_compare_rule(kind, a, b, t)], t


@functools.cache
def _rule(kind: type | str, point: bool) -> Any:
    """A ``kind`` node's step at a point or over a box, compiled on first
    use into ``make(i, j, location)``, which returns ``step(e, v)``: the
    node's result, given ``v``, the results of the steps before it.  A node
    with operands runs its ``_reading`` over ``v[i]`` and ``v[j]`` (Neg and
    Not over ``v[i]``), a Var reads ``e[i]`` from the box or valuation
    ``e``, and a constant is ``i`` as the reading holds it.  Where the
    kernel aborts, a step raises EvalError at a point, else DivMaybeZero."""
    if kind is Var or kind is Const or kind is BoolConst:
        lines, result = [], ("e[i]" if kind is Var else "i" if point
                             else "i, i" if kind is Const else "1 if i else -1")
    else:
        if point or kind in (Not, And, Or):  # ints, bools or truths
            a, b = names = "a", "b"
        else:  # (lo, hi) pairs
            a, b = ("alo", "ahi"), ("blo", "bhi")
            names = "alo, ahi", "blo, bhi"
        abort = "raise EvalError('div_by_zero', location)" if point else "raise DivMaybeZero(location)"
        lines, result = _reading(kind, a, b, 0, abort, point)
        arity = 1 if kind is Neg or kind is Not else 2
        lines = [f"{name} = v[{x}]" for name, x in zip(names[:arity], "ij")] + lines
    result = result if isinstance(result, str) else ", ".join(result)
    body = "".join(f"        {line}\n" for line in (*lines, f"return {result}"))
    source = f"def make(i, j, location):\n    def step(e, v):\n{body}    return step\n"
    namespace = {"DivMaybeZero": DivMaybeZero, "EvalError": EvalError}
    exec(builtins.compile(source, "<tricheck rule>", "exec"), namespace)
    return namespace["make"]


# --------------------------------------------------------------------------
# one-shot evaluation: a loop over the formula's shape

class Truth3(Enum):
    TRUE = "true"
    FALSE = "false"
    MAYBE = "maybe"


def _program(nodes: list, locations: list, point: bool) -> Any:
    """``run(env)``: the result of the last of ``nodes`` (walked by
    ``_shape`` with ``locations``) at a point, ``env`` holding ints, or
    over a box, ``env`` holding ``(lo, hi)`` pairs: one ``_rule`` step per
    node, in the kernel's order.  A Var's step reads its entry's vid or
    position from ``env`` (a key it lacks raises)."""
    steps = []
    divisions = iter(locations)
    for kind, *operands in nodes:
        i, j = (*operands, None)[:2]  # a leaf's vid, index or value, else operand positions
        location = next(divisions) if kind is Div or kind is Rem else None
        steps.append(_rule(kind, point)(i, j, location))

    def run(env):
        values = []
        push = values.append
        for step in steps:
            push(step(env, values))
        return values[-1]
    return run


def _evaluate(node, kinds: tuple, env: dict, point: bool):
    """``node``'s ``_program`` in one reading, run over ``env``.  The node
    keeps its ``_shape`` and each reading's program in ``_compiled``, so
    later calls neither walk nor build.  A node outside ``kinds`` raises
    TypeError."""
    memo = getattr(node, "_compiled", None)
    if memo is None or memo[0] is not kinds:
        memo = node._compiled = [kinds, *_shape(node, kinds, None), None, None]
    run = memo[3 + point]
    if run is None:  # another thread may build an equivalent program
        run = memo[3 + point] = _program(memo[1], memo[2], point)
    return run(env)


def interval_eval(expr: SymExpr, box: Box) -> Interval:
    """Sound range of ``expr`` over ``box``: the concrete value at any point
    of the box lies inside the returned interval."""
    return Interval(*_evaluate(expr, _EXPR_KINDS,
                               {vid: (iv.lo, iv.hi) for vid, iv in box.items()}, False))


def truth_eval(formula: SymBool, box: Box) -> Truth3:
    """Three-valued truth of ``formula`` over ``box``: TRUE / FALSE are sound
    for every point of the box, MAYBE is undecided."""
    truth = _evaluate(formula, _FORMULA_KINDS,
                      {vid: (iv.lo, iv.hi) for vid, iv in box.items()}, False)
    return (Truth3.MAYBE, Truth3.TRUE, Truth3.FALSE)[truth]  # -1 indexes FALSE


def concrete_eval(expr: SymExpr, valuation: dict) -> int:
    """Ordinary integer evaluation; Div/Rem truncate toward zero and raise
    EvalError on a zero divisor."""
    return _evaluate(expr, _EXPR_KINDS, valuation, True)


def concrete_truth(formula: SymBool, valuation: dict) -> bool:
    """Truth of ``formula`` at ``valuation``.  Both sides of ``&`` and ``|``
    are evaluated, as over a box, so a zero divisor on either raises
    EvalError."""
    return _evaluate(formula, _FORMULA_KINDS, valuation, True)


# --------------------------------------------------------------------------
# symbolizing strategies

@dataclass
class SymAlternative:
    """One disjunct of a symbolized strategy: the carrier shape, the box of
    variable ranges, any filter hypothesis to assume, and its draw's template."""

    carrier: Any  # SymExpr or tuple of them
    box: Box
    hypothesis: SymBool | None
    template: tuple  # per choice of the draw: its one_of branch, or the Var it reads


def _coerce_carrier(value, s: st.Strategy) -> Any:
    """``value``, a result of node ``s``, as a carrier: nodes and ints, or tuples of them."""
    if isinstance(value, SymExpr):
        return value
    if isinstance(value, tuple):
        return tuple(_coerce_carrier(part, s) for part in value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise _inexpressible(s)
    return Const(value)


def _record(fn, args: tuple, what: str) -> Any:
    """``fn(*args)`` for user code ``fn`` (a map, a filter or the predicate)
    over carriers ``args``: the one place the two meet.  A raise, or a type
    test of a carrier (which cannot take an int's branch), gives up with
    _Unsupported, its detail naming the code as ``what`` and the line of
    user code the raise came through or the type test was made on."""
    me = threading.get_ident()
    _recording[me] = False
    try:
        result = fn(*args)
    except Exception as exc:
        raise _Unsupported(f"{what} not symbolically evaluable: {exc}{raised_at(exc)}") from exc
    finally:
        noted = _recording.pop(me)
    if noted is not False:
        raise _Unsupported(f"{what} {noted}")
    return result


def _conj(a: SymBool | None, b: SymBool | None) -> SymBool | None:
    return b if a is None else a if b is None else And(a, b)


def symbolize(strategy: st.Strategy) -> list[SymAlternative] | None:
    """Carrier values and boxes for ``strategy``, or None when the domain is
    not expressible (containers, strings, opaque transforms/filters, a node
    whose class draws its own way).

    ``one_of`` produces one alternative per branch; a tuple crosses its
    components' alternatives.  Maps and filters run over the carrier through
    ``_record``, so one that raises or tests the carrier's type gives None.
    A map's ints, carriers or tuples of them become the carrier; a filter's
    symbolic boolean or bool becomes a hypothesis.
    """
    try:
        return list(_alternatives(strategy, itertools.count()))
    except _Unsupported:
        return None


class _Crossing:
    """A tuple's alternatives: its components' (``parts``), crossed lazily,
    first component slowest, so a caller builds only the alternatives it
    reaches (templates joined in draw order); ``total`` counts them all."""

    def __init__(self, parts: list[list[SymAlternative]]) -> None:
        self.parts = parts
        self.total = math.prod(map(len, parts))

    def __iter__(self) -> Iterator[SymAlternative]:
        for combo in itertools.product(*self.parts):
            yield SymAlternative(tuple(p.carrier for p in combo),
                                 {vid: iv for p in combo for vid, iv in p.box.items()},
                                 functools.reduce(_conj, (p.hypothesis for p in combo), None),
                                 tuple(c for p in combo for c in p.template))


def _alternatives(s: st.Strategy, vids: Iterator[int]) -> list[SymAlternative] | _Crossing:
    """``symbolize``'s walk, numbering variables from ``vids``; it gives up
    by raising _Unsupported.  A node is read by its ``_draw``, so a subclass
    that draws its own way is read as no built-in node.  A tuple builds its
    components' alternatives here and crosses them lazily (``_Crossing``)."""
    draw = getattr(type(s), "_draw", None)
    if draw is st.Just._draw:
        if isinstance(s.value, bool) or not isinstance(s.value, (int, SymExpr)):
            raise _inexpressible(s)
        return [SymAlternative(_coerce_carrier(s.value, s), {}, None, ())]
    if draw is st.IntRange._draw:
        var = Var(next(vids))
        return [SymAlternative(var, {var.vid: Interval(s.lo, s.hi)}, None, (var,))]
    if draw is st.Map._draw:
        return [SymAlternative(_coerce_carrier(_record(s.transform, (alt.carrier,), "map"), s),
                               alt.box, alt.hypothesis, alt.template)
                for alt in _alternatives(s.inner, vids)]
    if draw is st.Filter._draw:
        out = []
        for alt in _alternatives(s.inner, vids):
            raw = _record(s.predicate, (alt.carrier,), f"filter {s.label!r}")
            if not isinstance(raw, (SymBool, bool)):
                raise _inexpressible(s)
            out.append(SymAlternative(alt.carrier, alt.box,
                                      _conj(alt.hypothesis, _as_bool(raw)), alt.template))
        return out
    if draw is st.OneOf._draw:
        return [SymAlternative(alt.carrier, alt.box, alt.hypothesis, (i, *alt.template))
                for i, branch in enumerate(s.alternatives) for alt in _alternatives(branch, vids)]
    if draw is st.TupleOf._draw:
        return _Crossing([list(_alternatives(component, vids)) for component in s.components])
    raise _inexpressible(s)  # ListOf, OrderedMapOf, Pattern, unknown nodes


def _confirmation_points(box: Box) -> list[dict]:
    """Valuations of ``box`` a proof is checked at: both extreme corners, the
    midpoint, and each variable at its bounds with the others at the
    midpoint; at most 2k+3 for k variables, without repeats."""
    mid = {vid: (iv.lo + iv.hi) // 2 for vid, iv in box.items()}
    points = [{vid: iv.lo for vid, iv in box.items()},
              {vid: iv.hi for vid, iv in box.items()}, mid]
    for vid, iv in box.items():
        points += [{**mid, vid: iv.lo}, {**mid, vid: iv.hi}]
    return list({tuple(p.values()): p for p in points}.values())


def _drawn(prop: Property, alt: SymAlternative, val: dict, what: str) -> tuple[bool, Any]:
    """``(admitted, value)`` at valuation ``val`` of ``alt``'s box: the value
    the strategy's own draw builds from ``alt.template``, each choice a
    branch or a variable's value less its range's ``lo``, and whether the
    recorded hypothesis holds there (a zero divisor in it rejects, as it
    does in a real filter).  Gives up naming ``what`` where the draw
    raises, or where the real filters and the hypothesis disagree."""
    choices = [c if type(c) is int else val[c.vid] - alt.box[c.vid].lo for c in alt.template]
    try:
        tree = st._replay(prop.strategy, choices, limit=len(choices))
    except Exception as exc:
        raise _Unsupported(f"{what} value aborts during evaluation: "
                           f"{type(exc).__name__}: {exc}{raised_at(exc)}") from exc
    try:
        admitted = alt.hypothesis is None or concrete_truth(alt.hypothesis, val)
    except EvalError:
        admitted = False
    if tree is None and admitted:
        at = ", ".join(f"v{vid}={x}" for vid, x in val.items())
        raise _Unsupported(f"the recorded hypothesis holds at {at} but the filters "
                           "reject the value drawn there: they disagree")
    if tree is not None and not admitted:
        raise _Unsupported(f"the filters accept {tree.current!r} but the recorded "
                           "hypothesis rejects it: they disagree")
    return admitted, None if tree is None else tree.current


def _confirm(prop: Property, alt: SymAlternative) -> None:
    """Check ``alt`` at its confirmation points, after its formula held on
    its whole box, or its hypothesis failed there (a vacuous proof): give
    up where ``_drawn`` does, or where the real predicate fails on a value
    the filters admit, as the predicate and its recorded formula disagree."""
    for val in _confirmation_points(alt.box):
        admitted, value = _drawn(prop, alt, val, "a confirmation point's")
        if admitted:
            ok, message = eval_predicate(prop, value)
            if not ok:
                raise _Unsupported(f"the recorded formula holds at {value!r} but the "
                                   f"predicate fails there ({message}): they disagree")


# --------------------------------------------------------------------------
# branch and prune

@dataclass
class SolveOutcome:
    status: str  # proved | witness | undecided | unsupported | timeout
    witness: dict | None = None
    boxes: int = 0
    splits: int = 0
    note: str | None = None


def branch_and_prune(formula: SymBool, box: Box,
                     budget: int = DEFAULT_BOX_BUDGET, *,
                     ticker: Ticker | None = None) -> SolveOutcome:
    """Decide ``formula`` over ``box`` by splitting boxes, searched depth
    first from a work stack.

    One unit of ``budget`` (and of the ticker's lease) is a box evaluated
    over intervals or a point of a leaf: a MAYBE box of at most LEAF_POINTS
    points that fit the budget left, evaluated in ``itertools.product``
    order over the vids (the highest fastest).  A leaf is charged all its
    points at once, less those after a point that ends the search, so the
    count is what charging each point would give.  Other MAYBE boxes are
    split along their widest dimension (ties to the lowest vid), the lower
    half searched first.  Proved means every sub-box evaluated TRUE or held
    at each of its points.  A FALSE box (at its midpoint) or failing point
    yields a witness, always re-checked concretely before being returned.  The budget and the
    deadline end the search, as "undecided" and "timeout", whose note counts
    the boxes left unevaluated and names the widest variable range among
    them (the first met, from the bottom of the stack and by vid).  The
    search runs in a kernel cached by the formula's shape (see ``_kernel``).
    """
    keys = list(box)  # witnesses follow the caller's order
    vids = sorted(keys)
    if vids and vids[0] < 0:
        raise ValueError(f"variable id {vids[0]} is negative")
    kernel, nodes, locations = _kernel(formula, vids)
    work = [tuple(end for v in vids for end in (box[v].lo, box[v].hi))]
    ticker = ticker or Ticker()
    left = ticker.lease()
    try:
        status, boxes, splits, left, last = kernel(work, budget, left, ticker.renew)
    finally:
        ticker.release(left)
    if status == "proved":
        return SolveOutcome(status, boxes=boxes, splits=splits)
    if status == "unsupported":
        return SolveOutcome(status, boxes=boxes, splits=splits,
                            note=str(DivMaybeZero(locations[last])))
    if status == "witness":  # a FALSE box, read at its midpoint, or a failing point
        mid = [(lo + hi) // 2 for lo, hi in zip(last[::2], last[1::2])]
        if _program(nodes, locations, True)(mid):  # pragma: no cover - soundness guard
            raise AssertionError("interval refutation failed concrete confirmation")
        val = dict(zip(vids, mid))
        return SolveOutcome(status, witness={v: val[v] for v in keys}, boxes=boxes, splits=splits)
    # out of budget or time: say what is left, naming the first widest range
    ranges = [(v, b[2 * i], b[2 * i + 1]) for b in work for i, v in enumerate(vids)]
    note = f"box budget {budget} exhausted; " if status == "undecided" else ""
    note += f"{len(work)} boxes left"
    if ranges:
        v, lo, hi = max(ranges, key=lambda r: r[2] - r[1])
        note += f", widest v{v} in [{lo}, {hi}]"
    return SolveOutcome(status, boxes=boxes, splits=splits, note=note)


# --------------------------------------------------------------------------
# search kernels: the branch-and-prune loop as generated source

#: shape key (see ``_shape``) -> kernel, emptied when full.  Formulas are
#: rebuilt on every run, so only their shape repeats, and keying on it keeps
#: no formula alive.
_KERNELS: dict[tuple, Any] = {}
_KERNEL_CACHE_SIZE = 1024


def _kernel(formula: SymBool, vids: list[int]) -> tuple:
    """``(kernel, nodes, locations)``: the search loop for ``formula`` over
    boxes whose variables are ``vids`` in ascending order, and ``_shape``'s
    walk of it.

    ``kernel(work, budget, left, renew)`` searches the stack ``work`` of flat
    boxes, tuples or lists of ``lo, hi`` per vid in ``vids`` order (a split
    pushes a list), depth first, and returns
    ``(status, boxes, splits, left, last)``: ``status`` is SolveOutcome's,
    ``last`` the FALSE box or failing point (as a box) for "witness" and the
    index into ``locations`` of the division whose divisor range held zero
    for "unsupported".  The box being searched lives in the ``l<i>``/``h<i>``
    locals, not in ``work``: the search pops the next box only after a TRUE
    one or a leaf, and a split pushes the upper half and narrows the box to
    the lower half.  On "undecided" and "timeout" the unevaluated box is
    pushed back, so ``work`` then holds every box not yet evaluated.
    ``left``/``renew`` are a Ticker lease, spent one unit per box or point
    up to box count ``end``: a leaf adds its ``size`` to ``boxes`` before
    its points run, and a point that returns takes back, through ``rank``,
    the points after it.  Each box compares ``boxes`` with ``stop``, the
    earlier of the budget and ``end - 1``, whose unit polls before its box
    is searched, or after the leaf that spent it, up to LEAF_POINTS - 1
    units late; a search that ends in that leaf is complete and returns
    "proved" with ``left`` at 0 or below, so the ticker owes the poll to
    the next search.  A deadline found passed reads "timeout".  The formula
    is straight-line code, each distinct subterm evaluated once per box or
    point in ``_shape``'s order, as in one-shot evaluation, so the first
    division to abort is the same.  Each divisor is checked for zero once,
    by the first division by it, and at a point ``tdiv(a, b)`` and
    ``trem(a, b)`` share one quotient.

    Kernels are cached by ``len(vids)`` and ``_shape``'s nodes, so a formula
    whose shape was seen before costs one walk and no source, and a subterm
    written twice shares the kernel of one computed once.
    """
    nodes, locations = _shape(formula, _FORMULA_KINDS, vids)
    key = (len(vids), *nodes)
    kernel = _KERNELS.get(key)
    if kernel is None:
        namespace = {"DeadlineReached": DeadlineReached, "product": itertools.product,
                     "rank": _rank}
        source = _KernelWriter(key).source
        exec(builtins.compile(source, "<tricheck search kernel>", "exec"), namespace)
        if len(_KERNELS) >= _KERNEL_CACHE_SIZE:
            _KERNELS.clear()
        kernel = _KERNELS[key] = namespace["kernel"]
    return kernel, nodes, locations


def _shape(node, kinds: tuple, vids: list[int] | None) -> tuple[list, list]:
    """``(nodes, locations)`` for ``node``, a formula (``kinds`` is
    _FORMULA_KINDS) or an expression (_EXPR_KINDS), over boxes whose
    variables are ``vids``: the one walk that wires a formula, for the
    search kernel and for one-shot evaluation alike.  ``nodes`` has one
    entry per distinct subterm, operands first, with ``node`` last: its
    kind, or its op for a comparison, then its operands' positions among the
    entries, a Var's index in ``vids`` (its vid when ``vids`` is None), a
    Const's value or a BoolConst's truth.  The walk is hash-consed: a
    subterm whose entry an earlier one has, a shared node or one written
    twice, is that entry, so each distinct subterm is evaluated once.  With
    ``len(vids)`` that is everything the kernel's source depends on.
    ``locations`` are the Div/Rem locations in the same order, so an entry
    written twice keeps its first location, which is where it aborts first.
    A node outside ``kinds`` raises TypeError, and a Var outside ``vids`` or
    a comparison with an unknown op raises ValueError."""
    index = None if vids is None else {vid: i for i, vid in enumerate(vids)}
    nodes: list[tuple] = []
    seen: dict[int, int] = {}  # id(node) -> its position in nodes
    entries: dict[tuple, int] = {}  # entry -> its position in nodes
    locations: list[str | None] = []

    def walk(node, kinds: tuple) -> int:
        at = seen.get(id(node))
        if at is not None:
            return at
        kind = type(node)
        if kind not in kinds:  # each isinstance miss would read a carrier's __class__
            # a subclass follows the rule of the first kind it subclasses
            kind = next((k for k in kinds if isinstance(node, k)), None)
            if kind is None:
                raise TypeError(f"no rule for {node!r}")
        if kind is Const:
            entry = (Const, node.value)
        elif kind is Var:
            if index is None:
                entry = (Var, node.vid)
            elif node.vid in index:
                entry = (Var, index[node.vid])
            else:
                raise ValueError(f"the box does not bound variable v{node.vid}")
        elif kind is BoolConst:
            entry = (BoolConst, bool(node.value))
        elif kind is Neg or kind is Not:
            entry = (kind, walk(node.inner, kinds))
        elif kind is Cmp:
            if node.op not in _CMP_SYMBOLS:
                raise ValueError(f"unknown comparison {node.op!r}")
            entry = (node.op, walk(node.lhs, _EXPR_KINDS), walk(node.rhs, _EXPR_KINDS))
        else:
            entry = (kind, walk(node.lhs, kinds), walk(node.rhs, kinds))
        at = entries.setdefault(entry, len(nodes))
        if at == len(nodes):
            nodes.append(entry)
            if kind is Div or kind is Rem:
                locations.append(node.location)
        seen[id(node)] = at
        return at

    walk(node, kinds)
    del walk  # it refers to itself: a cycle that only the collector would free
    return nodes, locations


def _box_source(n: int, name: str = "l{0}, h{0}, ") -> str:
    """The box held in the locals (by ``name``, a leaf's point) as a tuple display."""
    return "(" + "".join(name.format(i) for i in range(n)) + ")"


def _rank(point: tuple, box: tuple) -> int:
    """The position of ``point`` among the points of the flat ``box`` (``lo,
    hi`` per variable) in ``product`` order, the last variable fastest."""
    rank = 0
    for p, lo, hi in zip(point, box[::2], box[1::2]):
        rank = rank * (hi - lo + 1) + p - lo
    return rank


def _split_lines(n: int) -> list[str]:
    """A MAYBE box of ``n`` variables is split along its widest
    dimension (ties to the lowest vid): the upper half is pushed, as a
    list, and the lower half searched next in place."""
    lines = ["splits += 1", "d = 0; w = h0 - l0"]
    lines += [f"if h{i} - l{i} > w: d = {i}; w = h{i} - l{i}" for i in range(1, n)]
    lines.append(f"b = [{_box_source(n)[1:-1]}]")
    lines += [f"if d == {i}: m = (l{i} + h{i}) // 2; b[{2 * i}] = m + 1; h{i} = m"
              for i in range(n)]
    return [*lines, "push(b)"]


class _KernelWriter:
    """The ``source`` of the search kernel for one ``_kernel`` key.  Each
    node is read twice (``_reading``) into fresh locals named by its
    position in the key: over the box held in ``l<i>``/``h<i>``, and at the
    point ``p<i>`` of a leaf, in a ``product`` loop over the first ``n - 1``
    vids around a plain ``range`` loop over the last.  Only the first
    division by a node checks it for zero, and at a point the first of
    ``tdiv(a, b)`` and ``trem(a, b)`` computes the quotient both read (in
    ``q<k>`` when the Rem comes first)."""

    def __init__(self, key: tuple) -> None:
        n, *nodes = key
        box = _box_source(n)
        # a leaf charges all its points up front; a point that ends the
        # search takes back those after it, as if each point were charged
        spent = f"boxes += 1 + rank({_box_source(n, 'p{0}, ')}, {box}) - size"
        over_box: list = []  # per node: its bounds' sources, or its truth's
        at_point: list[str] = []  # per node: its value's source
        box_lines: list[str] = []
        point_lines: list[str] = []
        aborts = 0
        checked: set[int] = set()  # divisors already checked for zero
        quotients: dict[Any, str] = {}  # (dividend, divisor) -> its quotient's local at a point
        for k, (kind, *operands) in enumerate(nodes):
            if kind is Const or kind is Var or kind is BoolConst:
                (leaf,) = operands
                if kind is Const:
                    text = f"({hex(leaf)})"  # no digit limit, and an IntEnum is its int
                    over_box.append((text, text))
                    at_point.append(text)
                elif kind is Var:
                    over_box.append((f"l{leaf}", f"h{leaf}"))
                    at_point.append(f"p{leaf}")
                else:
                    over_box.append("1" if leaf else "(-1)")
                    at_point.append(repr(leaf))
                continue
            a, b = (*operands, None)[:2]  # b is None for Neg and Not
            abort = quotient = None
            if kind is Div or kind is Rem:
                if b not in checked:  # the first division by b checks it for zero
                    checked.add(b)
                    abort = f"return 'unsupported', boxes, splits, end - boxes, {aborts}"
                aborts += 1
                pair = (a, b)
                quotient = quotients.get(pair)
                if quotient is None and kind is Rem and (Div, a, b) in nodes:
                    # tdiv(a, b) comes later: one quotient at a point serves both
                    quotient = quotients[pair] = f"q{k}"
                    point_lines += _point_rule(Div, at_point[a], at_point[b], quotient,
                                               abort and f"{spent}; {abort}")
                elif kind is Div:
                    quotients[pair] = f"x{k}"
            # a quotient computed earlier checked its divisor there
            at_abort = None if quotient else abort and f"{spent}; {abort}"
            for point, results, out, leave in ((False, over_box, box_lines, abort),
                                               (True, at_point, point_lines, at_abort)):
                lines, result = _reading(kind, results[a], None if b is None else results[b],
                                         k, leave, point, quotient)
                out += lines
                results.append(result)
        truth = over_box[-1]
        witness = "return 'witness', boxes, splits, end - boxes, "
        inner = f"for p{n - 1} in range(l{n - 1}, h{n - 1} + 1):" if n else "for _ in range(1):"
        leaf = [f"size = {' * '.join(f'(h{i} - l{i} + 1)' for i in range(n)) or 1}",
                f"if size > {LEAF_POINTS} or size > budget - boxes:",
                *(f"    {line}" for line in _split_lines(n)), "    continue",
                "boxes += size",
                f"for {_box_source(n - 1, 'p{0}, ')} in product("
                f"{''.join(f'range(l{i}, h{i} + 1), ' for i in range(n - 1))}):",
                f"    {inner}",
                *(f"        {line}" for line in [*point_lines, f"if not {at_point[-1]}:",
                                                 f"    {spent}",
                                                 f"    {witness}{_box_source(n, 'p{0}, p{0}, ')}"])]
        lines = [*box_lines, f"if not {truth}:", *(f"    {line}" for line in leaf),
                 f"elif {truth} < 0:", f"    {witness}{box}",
                 "if not work:", "    return 'proved', boxes, splits, end - boxes, None",
                 f"{box} = pop()"]
        self.source = f"""\
def kernel(work, budget, left, renew):
    pop = work.pop
    push = work.append
    {box} = pop()
    boxes = splits = 0
    end = left
    stop = min(end - 1, budget)
    while True:
        if boxes >= stop:
            if boxes >= budget:
                push({box})
                return 'undecided', boxes, splits, end - boxes, None
            try:
                end += renew()
            except DeadlineReached:
                push({box})
                return 'timeout', boxes, splits, min(end - boxes, 0), None
            stop = min(end - 1, budget)
        boxes += 1
""" + "".join(f"        {line}\n" for line in lines)


# --------------------------------------------------------------------------
# driver

def _stopped(status: str, budget: int, left: str | None, unsearched: int,
             total: int) -> Verdict:
    """The verdict of a run that ran out of budget (``status`` "undecided")
    or time ("timeout"): its detail names the run's ``budget``, what the
    search that ran out ``left`` (None when the budget ran out between
    searches) and how many of the ``total`` alternatives were not searched."""
    detail = [f"box budget {budget} exhausted"] if status == "undecided" else []
    if left:
        detail.append(left)
    if unsearched:
        detail.append(f"{unsearched} of {total} alternatives not searched")
    reason = UnknownReason.UNDECIDED if status == "undecided" else UnknownReason.TIMEOUT
    return Verdict.unknown(reason, detail="; ".join(detail))


def _goal(prop: Property, alt: SymAlternative) -> SymBool | None:
    """The formula ``alt`` must prove: the predicate run over its carrier,
    implied by the filter hypothesis, or None when the hypothesis is false
    over the whole box.  Raises _Unsupported when the predicate cannot be
    recorded as a formula over the carrier."""
    raw = _record(prop.predicate, alt.carrier if prop.unpack else (alt.carrier,), "predicate")
    if not isinstance(raw, SymBool):
        # a plain bool or None was decided without looking at the carrier
        blind = isinstance(raw, bool) or raw is None
        raise _Unsupported("predicate did not observe its input" if blind
                           else "predicate did not yield a symbolic boolean")
    if alt.hypothesis is None:
        return raw
    try:
        if truth_eval(alt.hypothesis, alt.box) is Truth3.FALSE:
            return None
    except DivMaybeZero as exc:
        raise _Unsupported(str(exc)) from exc
    return Or(Not(alt.hypothesis), raw)


@backend("symbolic")
def run_symbolic(prop: Property, config: RunConfig, ticker: Ticker) -> Verdict:
    """Try to prove the property over its whole domain, or refute it with a
    concrete witness.

    The strategy is symbolized into one or more (carrier, box) alternatives;
    all must prove, any witness refutes.  Filter hypotheses weaken the goal
    to "hypothesis implies assertion"; an alternative whose hypothesis is
    false over its whole box is vacuously proved and flags the verdict.
    Witnesses are reported unshrunk, and only once the real predicate fails
    on them too.  A plain bool or None from the carrier is unsupported, and
    so is a proved or vacuous alternative that ``_confirm`` finds wrong.
    """
    budget = config.budget
    boxes = splits = 0
    vacuous = False
    alts = None
    try:
        alts = _alternatives(prop.strategy, itertools.count())
        total = alts.total if isinstance(alts, _Crossing) else len(alts)
        for searched, alt in enumerate(alts):  # ``searched`` alternatives before this one
            formula = _goal(prop, alt)
            if formula is None:  # the whole box violates the filter: check only that
                _confirm(prop, alt)
                vacuous = True
                boxes += 1
                continue
            if boxes >= budget:
                verdict = _stopped("undecided", budget, None, total - searched, total)
                break
            share = budget - boxes
            out = branch_and_prune(formula, alt.box, share, ticker=ticker)
            boxes += out.boxes
            splits += out.splits
            if out.status == "proved":
                _confirm(prop, alt)
                continue
            if out.status == "unsupported":
                raise _Unsupported(out.note)
            if out.status != "witness":  # the note names the share of the budget it was given
                left = out.note.removeprefix(f"box budget {share} exhausted; ")
                verdict = _stopped(out.status, budget, left, total - searched - 1, total)
                break
            value = _drawn(prop, alt, out.witness, "witness")[1]
            if eval_predicate(prop, value)[0]:
                raise _Unsupported(f"the recorded formula fails at {value!r} but the "
                                   "predicate passes there: they disagree")
            verdict = Verdict.falsified(Counterexample(
                original=value, shrunk=value, seed=None, case_index=None))
            break
        else:
            verdict = Verdict.proved("symbolic", boxes)
            verdict.vacuity_warning = vacuous
    except _Unsupported as exc:
        verdict = Verdict.unknown(UnknownReason.UNSUPPORTED, detail=str(exc))
    except RecursionError:  # from a formula walk: _record turns user code's into _Unsupported
        verdict = Verdict.unknown(UnknownReason.UNSUPPORTED, detail="formula nests too deeply")
    if alts is not None:  # boxes are counted once there is something to search
        verdict.cases, verdict.splits = boxes, splits
    return verdict
