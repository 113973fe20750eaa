"""Symbolic checking over integer intervals.

The predicate is run once over *carrier* values — expression nodes instead of
ints — which records it as a tree over {Const, Var, Add, Sub, Mul, Div, Rem,
Neg} and comparisons/connectives over those.  Carriers refuse to be coerced
into native control flow: branching on a symbolic boolean, ``int()``,
``len()`` and friends raise, and the driver reports the harness as
unsupported rather than silently checking the wrong thing.

``compile`` turns a recorded formula, once, into closures: interval
evaluation over ``(lo, hi)`` tuples, three-valued truth (true / false /
maybe, with comparisons decided by interval separation) and concrete
evaluation at a point.  ``branch_and_prune`` runs the truth closure over
tuple boxes, splitting undecided ones along their widest dimension until
every box is decided, a concrete witness refutes the property, or the box
budget runs out.  Interval division truncates toward zero and a divisor
interval that straddles zero aborts the analysis (soundly) instead.

Every verdict is anchored concretely.  A witness must fail the recorded
formula under integer evaluation, and then the real predicate too; a proof
stands only once the real predicate also holds at a few points of each box
(its corners, its midpoint and each variable's bounds).
"""

from __future__ import annotations

import operator
import sys
import threading
from dataclasses import dataclass
from enum import Enum
from typing import Any

from . import strategies as st
from .harness import (DeadlineReached, Property, RunConfig, StopRequested, Ticker,
                      backend, eval_predicate)
from .prng import SplitMix64
from .results import Counterexample, UnknownReason, Verdict

#: Default box budget for a single branch_and_prune call.
DEFAULT_BOX_BUDGET = 100_000

#: Concrete valuations sampled from the remaining boxes when the budget or
#: deadline runs out before the search decides.
FALLBACK_SAMPLES = 1000


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
    if isinstance(a, SymExpr) or isinstance(b, SymExpr):
        return Div(_as_expr(a), _as_expr(b), _caller_location())
    return _tq(a, b)


def trem(a, b):
    """Remainder with the sign of the dividend (pairs with ``tdiv``)."""
    if isinstance(a, SymExpr) or isinstance(b, SymExpr):
        return Rem(_as_expr(a), _as_expr(b), _caller_location())
    return a - b * _tq(a, b)


def _tq(a: int, b: int) -> int:
    """``tdiv`` on plain ints."""
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


# --------------------------------------------------------------------------
# carrier expressions

_CMP_OPS = ("lt", "le", "gt", "ge", "eq", "ne")


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

    def __repr__(self) -> str:
        return repr(self.value)


class Var(SymExpr):
    __slots__ = ("vid",)

    def __init__(self, vid: int) -> None:
        if vid < 0:  # vids index tuple boxes, where a negative index wraps
            raise ValueError(f"variable id {vid} is negative")
        self.vid = vid

    def __repr__(self) -> str:
        return f"v{self.vid}"


class _Bin(SymExpr):
    __slots__ = ("lhs", "rhs")
    op = "?"

    def __init__(self, lhs: SymExpr, rhs: SymExpr) -> None:
        self.lhs = lhs
        self.rhs = rhs

    def __repr__(self) -> str:
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


class Div(SymExpr):
    __slots__ = ("lhs", "rhs", "location")

    def __init__(self, lhs: SymExpr, rhs: SymExpr, location: str | None = None) -> None:
        self.lhs = lhs
        self.rhs = rhs
        self.location = location

    def __repr__(self) -> str:
        return f"tdiv({self.lhs!r}, {self.rhs!r})"


class Rem(SymExpr):
    __slots__ = ("lhs", "rhs", "location")

    def __init__(self, lhs: SymExpr, rhs: SymExpr, location: str | None = None) -> None:
        self.lhs = lhs
        self.rhs = rhs
        self.location = location

    def __repr__(self) -> str:
        return f"trem({self.lhs!r}, {self.rhs!r})"


class Neg(SymExpr):
    __slots__ = ("inner",)

    def __init__(self, inner: SymExpr) -> None:
        self.inner = inner

    def __repr__(self) -> str:
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

    def __repr__(self) -> str:
        return repr(self.value)


class Cmp(SymBool):
    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, op: str, lhs: SymExpr, rhs: SymExpr) -> None:
        self.op = op
        self.lhs = lhs
        self.rhs = rhs

    def __repr__(self) -> str:
        sym = {"lt": "<", "le": "<=", "gt": ">", "ge": ">=", "eq": "==", "ne": "!="}[self.op]
        return f"({self.lhs!r} {sym} {self.rhs!r})"


class And(SymBool):
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: SymBool, rhs: SymBool) -> None:
        self.lhs = lhs
        self.rhs = rhs

    def __repr__(self) -> str:
        return f"({self.lhs!r} & {self.rhs!r})"


class Or(SymBool):
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: SymBool, rhs: SymBool) -> None:
        self.lhs = lhs
        self.rhs = rhs

    def __repr__(self) -> str:
        return f"({self.lhs!r} | {self.rhs!r})"


class Not(SymBool):
    __slots__ = ("inner",)

    def __init__(self, inner: SymBool) -> None:
        self.inner = inner

    def __repr__(self) -> str:
        return f"~{self.inner!r}"


def _as_bool(value) -> SymBool:
    if isinstance(value, SymBool):
        return value
    if isinstance(value, bool):
        return BoolConst(value)
    raise TypeError(f"cannot use {value!r} as a symbolic boolean")


# --------------------------------------------------------------------------
# compilation: interval, three-valued and concrete closures

class Truth3(Enum):
    TRUE = "true"
    FALSE = "false"
    MAYBE = "maybe"


_TRUE, _FALSE, _MAYBE = Truth3.TRUE, Truth3.FALSE, Truth3.MAYBE


def compile(node: SymExpr | SymBool) -> tuple:
    """``(over_box, at_point)`` closures for ``node``, memoized on it.

    ``over_box(box)`` reads ``box[vid]`` as ``(lo, hi)`` (a tuple indexed by
    vid, or a dict) and returns an expression's sound ``(lo, hi)`` range or a
    formula's Truth3; a divisor range containing zero raises DivMaybeZero.
    ``at_point(valuation)`` evaluates over ``{vid: int}``; Div/Rem truncate
    toward zero and raise EvalError on a zero divisor.
    """
    try:
        return node._compiled
    except AttributeError:
        pass
    fns = (_compile_expr if isinstance(node, SymExpr) else _compile_formula)(node)
    node._compiled = fns  # a racing thread would build equivalent closures
    return fns


def _expr(node) -> tuple:
    if not isinstance(node, SymExpr):
        raise TypeError(f"not an expression node: {node!r}")
    return compile(node)


def _formula(node) -> tuple:
    if not isinstance(node, SymBool):
        raise TypeError(f"not a formula node: {node!r}")
    return compile(node)


def _compile_expr(e: SymExpr) -> tuple:
    if isinstance(e, Const):
        c = e.value
        point = (c, c)
        return (lambda box: point), (lambda val: c)
    if isinstance(e, Var):
        get = operator.itemgetter(e.vid)
        return get, get
    if isinstance(e, Neg):
        fi, gi = _expr(e.inner)

        def neg(box):
            lo, hi = fi(box)
            return -hi, -lo
        return neg, (lambda val: -gi(val))
    if not isinstance(e, (Add, Sub, Mul, Div, Rem)):
        raise TypeError(f"not an expression node: {e!r}")
    (fa, ga), (fb, gb) = _expr(e.lhs), _expr(e.rhs)
    if isinstance(e, Add):
        def add(box):
            (alo, ahi), (blo, bhi) = fa(box), fb(box)
            return alo + blo, ahi + bhi
        return add, (lambda val: ga(val) + gb(val))
    if isinstance(e, Sub):
        def sub(box):
            (alo, ahi), (blo, bhi) = fa(box), fb(box)
            return alo - bhi, ahi - blo
        return sub, (lambda val: ga(val) - gb(val))
    if isinstance(e, Mul):
        def mul(box):
            (alo, ahi), (blo, bhi) = fa(box), fb(box)
            p, q, r, s = alo * blo, alo * bhi, ahi * blo, ahi * bhi
            return min(p, q, r, s), max(p, q, r, s)
        return mul, (lambda val: ga(val) * gb(val))
    location, is_div = e.location, isinstance(e, Div)

    def div(box):
        (alo, ahi), (blo, bhi) = fa(box), fb(box)
        if blo <= 0 <= bhi:
            raise DivMaybeZero(location)
        # truncating division is monotone in each argument once the divisor
        # has a fixed sign, so endpoint combinations bound the image
        p, q, r, s = _tq(alo, blo), _tq(alo, bhi), _tq(ahi, blo), _tq(ahi, bhi)
        return min(p, q, r, s), max(p, q, r, s)

    def rem(box):
        (alo, ahi), (blo, bhi) = fa(box), fb(box)
        if blo <= 0 <= bhi:
            raise DivMaybeZero(location)
        if alo == ahi and blo == bhi:
            r = alo - blo * _tq(alo, blo)
            return r, r
        m = max(abs(blo), abs(bhi)) - 1  # |remainder| < |divisor|, sign of the dividend
        return (0 if alo >= 0 else max(alo, -m)), (0 if ahi <= 0 else min(ahi, m))

    def at_point(val):
        a, b = ga(val), gb(val)
        if b == 0:
            raise EvalError("div_by_zero", location)
        return _tq(a, b) if is_div else a - b * _tq(a, b)
    return (div if is_div else rem), at_point


def _compile_formula(f: SymBool) -> tuple:
    if isinstance(f, BoolConst):
        value = f.value
        truth = _TRUE if value else _FALSE
        return (lambda box: truth), (lambda val: value)
    if isinstance(f, Not):
        fi, gi = _formula(f.inner)

        def negation(box):
            t = fi(box)
            return _FALSE if t is _TRUE else _TRUE if t is _FALSE else _MAYBE
        return negation, (lambda val: not gi(val))
    if isinstance(f, (And, Or)):
        # over a box both sides are evaluated, so a divisor range straddling
        # zero anywhere in the formula aborts the analysis
        (fa, ga), (fb, gb) = _formula(f.lhs), _formula(f.rhs)
        if isinstance(f, And):
            def conj(box):
                a, b = fa(box), fb(box)
                if a is _FALSE or b is _FALSE:
                    return _FALSE
                return _TRUE if a is _TRUE and b is _TRUE else _MAYBE
            return conj, (lambda val: ga(val) and gb(val))

        def disj(box):
            a, b = fa(box), fb(box)
            if a is _TRUE or b is _TRUE:
                return _TRUE
            return _FALSE if a is _FALSE and b is _FALSE else _MAYBE
        return disj, (lambda val: ga(val) or gb(val))
    if not isinstance(f, Cmp):
        raise TypeError(f"not a formula node: {f!r}")
    op = f.op
    if op not in _CMP_OPS:
        raise ValueError(f"unknown comparison {op!r}")
    (fa, ga), (fb, gb) = _expr(f.lhs), _expr(f.rhs)
    concrete = getattr(operator, op)
    # each comparison is lt or eq, negated for ge/le/ne, with the operands'
    # roles swapped for gt/le (the lhs is still evaluated first)
    yes, no = (_FALSE, _TRUE) if op in ("ge", "le", "ne") else (_TRUE, _FALSE)
    if op in ("lt", "ge"):
        def cmp(box):
            (alo, ahi), (blo, bhi) = fa(box), fb(box)
            return yes if ahi < blo else no if alo >= bhi else _MAYBE
    elif op in ("gt", "le"):
        def cmp(box):
            (alo, ahi), (blo, bhi) = fa(box), fb(box)
            return yes if bhi < alo else no if blo >= ahi else _MAYBE
    else:
        def cmp(box):
            (alo, ahi), (blo, bhi) = fa(box), fb(box)
            if ahi < blo or bhi < alo:
                return no
            return yes if alo == ahi == blo == bhi else _MAYBE
    return cmp, (lambda val: concrete(ga(val), gb(val)))


def interval_eval(expr: SymExpr, box: Box) -> Interval:
    """Sound range of ``expr`` over ``box``: the concrete value at any point
    of the box lies inside the returned interval."""
    return Interval(*_expr(expr)[0]({vid: (iv.lo, iv.hi) for vid, iv in box.items()}))


def truth_eval(formula: SymBool, box: Box) -> Truth3:
    """Three-valued truth of ``formula`` over ``box``: TRUE / FALSE are sound
    for every point of the box, MAYBE is undecided."""
    return _formula(formula)[0]({vid: (iv.lo, iv.hi) for vid, iv in box.items()})


def concrete_eval(expr: SymExpr, valuation: dict) -> int:
    """Ordinary integer evaluation; Div/Rem truncate toward zero and raise
    EvalError on a zero divisor."""
    return _expr(expr)[1](valuation)


def concrete_truth(formula: SymBool, valuation: dict) -> bool:
    return _formula(formula)[1](valuation)


# --------------------------------------------------------------------------
# symbolizing strategies

@dataclass
class SymAlternative:
    """One disjunct of a symbolized strategy: the carrier shape, the box of
    variable ranges, and any filter hypothesis to assume."""

    carrier: Any  # SymExpr or tuple of them
    box: Box
    hypothesis: SymBool | None


def _coerce_carrier(value) -> Any | None:
    if isinstance(value, SymExpr):
        return value
    if isinstance(value, bool):
        return None
    if isinstance(value, int):
        return Const(value)
    if isinstance(value, tuple):
        parts = [_coerce_carrier(v) for v in value]
        if any(p is None for p in parts):
            return None
        return tuple(parts)
    return None


def symbolize(strategy: st.Strategy) -> list[SymAlternative] | None:
    """Carrier values and boxes for ``strategy``, or None when the domain is
    not expressible (containers, strings, opaque transforms/filters).

    ``one_of`` produces one alternative per branch; a tuple crosses its
    components' alternatives.  Filters become hypotheses: their predicate is
    run over the carrier and must yield a symbolic boolean.
    """
    counter = iter(range(1 << 30))

    def conj(a: SymBool | None, b: SymBool | None) -> SymBool | None:
        if a is None:
            return b
        if b is None:
            return a
        return And(a, b)

    def go(s: st.Strategy) -> list[tuple] | None:
        if isinstance(s, st.Just):
            carrier = _coerce_carrier(s.value)
            if carrier is None or isinstance(carrier, tuple):
                return None
            return [(carrier, {}, None)]
        if isinstance(s, st.IntRange):
            vid = next(counter)
            return [(Var(vid), {vid: Interval(s.lo, s.hi)}, None)]
        if isinstance(s, st.Map):
            inner = go(s.inner)
            if inner is None:
                return None
            out = []
            for carrier, box, hyp in inner:
                try:
                    mapped = _coerce_carrier(s.transform(carrier))
                except Exception:
                    return None
                if mapped is None:
                    return None
                out.append((mapped, box, hyp))
            return out
        if isinstance(s, st.Filter):
            inner = go(s.inner)
            if inner is None:
                return None
            out = []
            for carrier, box, hyp in inner:
                try:
                    raw = s.predicate(carrier)
                except Exception:
                    return None
                if isinstance(raw, SymBool):
                    cond = raw
                elif isinstance(raw, bool):
                    cond = BoolConst(raw)
                else:
                    return None
                out.append((carrier, box, conj(hyp, cond)))
            return out
        if isinstance(s, st.OneOf):
            out = []
            for alt in s.alternatives:
                sub = go(alt)
                if sub is None:
                    return None
                out.extend(sub)
            return out
        if isinstance(s, st.TupleOf):
            combos: list[tuple] = [((), {}, None)]
            for comp in s.components:
                sub = go(comp)
                if sub is None:
                    return None
                combos = [
                    (cs + (carrier,), {**box, **b}, conj(hyp, h))
                    for cs, box, hyp in combos
                    for carrier, b, h in sub
                ]
            return combos
        return None  # ListOf, OrderedMapOf, Pattern, unknown nodes

    alts = go(strategy)
    if alts is None:
        return None
    return [SymAlternative(c, b, h) for c, b, h in alts]


def _carrier_value(carrier, valuation: dict):
    if isinstance(carrier, tuple):
        return tuple(_carrier_value(c, valuation) for c in carrier)
    return concrete_eval(carrier, valuation)


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


def _failing_point(prop: Property, alt: SymAlternative) -> tuple | None:
    """(value, message) at the first confirmation point of a proved
    alternative where the real predicate fails, or None.  Points outside
    the filter hypothesis, or where building the value aborts, are skipped.
    The formula held there, so a failure means the predicate and the formula
    it recorded over the carrier disagree."""
    for val in _confirmation_points(alt.box):
        try:
            if alt.hypothesis is not None and not concrete_truth(alt.hypothesis, val):
                continue
            value = _carrier_value(alt.carrier, val)
        except EvalError:
            continue
        ok, message = eval_predicate(prop, value)
        if not ok:
            return value, message
    return None


# --------------------------------------------------------------------------
# branch and prune

@dataclass
class SolveOutcome:
    status: str  # proved | witness | undecided | unsupported | timeout | cancelled
    witness: dict | None = None
    boxes: int = 0
    splits: int = 0
    note: str | None = None


def _sample_remaining(holds, work: list, keys: list, seed: int) -> dict | None:
    """Last-ditch concrete probing of the undecided region."""
    if not work:
        return None
    rng = SplitMix64(seed)
    for i in range(FALLBACK_SAMPLES):
        box = work[i % len(work)]
        val = {vid: rng.uniform_in(*box[vid]) for vid in keys}
        try:
            if not holds(val):
                return val
        except EvalError:
            # a div-by-zero here does not witness anything about the formula
            continue
    return None


def branch_and_prune(formula: SymBool, box: Box,
                     budget: int = DEFAULT_BOX_BUDGET, *,
                     ticker: Ticker | None = None,
                     sample_seed: int = 0) -> SolveOutcome:
    """Decide ``formula`` over ``box`` by recursive box splitting.

    Proved means every sub-box evaluated TRUE.  A FALSE box yields a witness,
    always re-checked concretely before being returned.  Budget or deadline
    exhaustion first probes the remaining region with concrete samples.
    Splits take the widest dimension (ties to the lowest vid) and search the
    lower half first; a point box is always decided, since interval
    arithmetic is exact there.
    """
    truth, holds = _formula(formula)
    keys = list(box)  # witnesses and samples follow the caller's order
    vids = sorted(keys)
    if vids and vids[0] < 0:
        raise ValueError(f"variable id {vids[0]} is negative")
    size = vids[-1] + 1 if vids else 0
    work = [tuple((box[v].lo, box[v].hi) if v in box else None for v in range(size))]
    push, pop = work.append, work.pop
    if ticker is None:
        ticker = Ticker()
    left = ticker.lease()
    boxes = 0
    splits = 0
    try:
        while work:
            if boxes >= budget:
                status, note = "undecided", f"box budget {budget} exhausted"
                break
            left -= 1
            if not left:
                try:
                    left = ticker.renew()
                except DeadlineReached:
                    status, note = "timeout", None
                    break
                except StopRequested:
                    return SolveOutcome("cancelled", boxes=boxes, splits=splits)
            current = pop()
            boxes += 1
            try:
                t = truth(current)
            except DivMaybeZero as exc:
                return SolveOutcome("unsupported", boxes=boxes, splits=splits, note=str(exc))
            if t is _TRUE:
                continue
            if t is _FALSE:
                val = {vid: (current[vid][0] + current[vid][1]) // 2 for vid in keys}
                if holds(val):  # pragma: no cover - soundness guard
                    raise AssertionError("interval refutation failed concrete confirmation")
                return SolveOutcome("witness", witness=val, boxes=boxes, splits=splits)
            # a MAYBE box is never a point, so it has a dimension to split
            dim, width = -1, 0
            for vid in vids:
                lo, hi = current[vid]
                if hi - lo > width:
                    dim, width = vid, hi - lo
            lo, hi = current[dim]
            mid = (lo + hi) // 2
            head, tail = current[:dim], current[dim + 1:]
            splits += 1
            push(head + ((mid + 1, hi),) + tail)
            push(head + ((lo, mid),) + tail)
        else:
            return SolveOutcome("proved", boxes=boxes, splits=splits)
    finally:
        ticker.release(left)
    # out of budget or time: probe what is left before giving up
    val = _sample_remaining(holds, work, keys, sample_seed)
    if val is not None:
        return SolveOutcome("witness", witness=val, boxes=boxes, splits=splits)
    return SolveOutcome(status, boxes=boxes, splits=splits, note=note)


# --------------------------------------------------------------------------
# driver

_OUTCOME_REASON = {
    "undecided": UnknownReason.UNDECIDED,
    "unsupported": UnknownReason.UNSUPPORTED,
    "timeout": UnknownReason.TIMEOUT,
    "cancelled": UnknownReason.TIMEOUT,
}


class _Unsupported(Exception):
    """Internal control flow: the harness cannot be checked symbolically;
    the message is the verdict's detail."""


def _goal(prop: Property, alt: SymAlternative) -> SymBool | None:
    """The formula ``alt`` must prove: the predicate run over its carrier,
    implied by the filter hypothesis, or None when the hypothesis is false
    over the whole box.  Raises _Unsupported when the predicate cannot be
    recorded as a formula over the carrier."""
    try:
        raw = prop.predicate(*alt.carrier) if prop.unpack else prop.predicate(alt.carrier)
    except Exception as exc:
        raise _Unsupported(f"predicate not symbolically evaluable: {exc}") from exc
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
def run_symbolic(prop: Property, config: RunConfig, *,
                 deadline: float | None = None,
                 stop: threading.Event | None = None) -> Verdict:
    """Try to prove the property over its whole domain, or refute it with a
    concrete witness.

    The strategy is symbolized into one or more (carrier, box) alternatives;
    all must prove, any witness refutes.  Filter hypotheses weaken the goal
    to "hypothesis implies assertion"; an alternative whose hypothesis is
    false over its whole box is vacuously proved and flags the verdict.
    Witnesses are reported unshrunk, and only once the real predicate fails
    on them too.  A plain bool or None from the carrier is unsupported, and
    so is a proved alternative whose box has a confirmation point where the
    real predicate fails.
    """
    alts = symbolize(prop.strategy)
    ticker = Ticker(deadline, stop)
    budget = config.budget
    boxes = splits = 0
    vacuous = False
    try:
        if alts is None:
            raise _Unsupported("strategy is not expressible over the symbolic carrier")
        for alt in alts:
            formula = _goal(prop, alt)
            if formula is None:
                vacuous = True  # the whole box violates the filter: nothing to check
                boxes += 1
                continue
            if boxes >= budget:
                verdict = Verdict.unknown(UnknownReason.UNDECIDED,
                                          detail=f"box budget {budget} exhausted")
                break
            out = branch_and_prune(formula, alt.box, budget - boxes,
                                   ticker=ticker, sample_seed=config.seed)
            boxes += out.boxes
            splits += out.splits
            if out.status == "proved":
                failing = _failing_point(prop, alt)
                if failing is not None:
                    value, message = failing
                    raise _Unsupported(
                        f"the recorded formula holds at {value!r} but the "
                        f"predicate fails there ({message}): they disagree")
                continue
            if out.status != "witness":
                verdict = Verdict.unknown(_OUTCOME_REASON[out.status], detail=out.note)
                break
            try:
                value = _carrier_value(alt.carrier, out.witness)
            except EvalError as exc:
                raise _Unsupported(f"witness value aborts during evaluation: {exc}") from exc
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
    if alts is not None:  # boxes are counted once there is something to search
        verdict.cases, verdict.splits = boxes, splits
    return verdict
