"""Independent oracles the tests compare the library against.

Everything here is deliberately written *without* looking at the library's
internals: the generator is transcribed separately from its public reference
description, enumeration is eager recursion instead of lazy streams, and
pattern membership is Python's ``re`` on the pattern text, so it never reads
the library's parser (the eager enumeration of a pattern walks the
combinators that parser built; ``test_patterns.py`` pins their languages by
hand).  When a test says "matches the oracle", this module is the other side
of that comparison.  The reference enumeration at the end is
the one exception: it is the library's previous per-node streams, written
over plain values, kept as the baseline that index-addressed enumeration
must reproduce.
"""

from __future__ import annotations

import itertools
import re

from tricheck import strategies as st
from tricheck import patterns as pat
from tricheck import symbolic as sym
from tricheck.prng import SplitMix64


# --------------------------------------------------------------------------
# reference generator (transcribed independently from the public algorithm:
# one additive constant, two xor-multiply mixing rounds, final xor-shift)

def splitmix64_reference(seed):
    """Yields the output stream for ``seed``, forever."""
    mask = 0xFFFFFFFFFFFFFFFF
    x = seed & mask
    while True:
        x = (x + 0x9E3779B97F4A7C15) & mask
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        yield z ^ (z >> 31)


def splitmix64_take(seed, n):
    gen = splitmix64_reference(seed)
    return [next(gen) for _ in range(n)]


class SplitMix64PerWord:
    """The library's earlier generator, one word mixed per call, kept as the
    reference the block generator must reproduce word for word and state for
    state.  Its ``uniform_in`` is only meaningful for spans of at most 64
    bits: a wider mask never rejects and never reaches the top of the range."""

    __slots__ = ("state",)

    def __init__(self, seed=0):
        self.state = seed & 0xFFFFFFFFFFFFFFFF

    def next_u64(self):
        mask = 0xFFFFFFFFFFFFFFFF
        self.state = (self.state + 0x9E3779B97F4A7C15) & mask
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    def uniform_in(self, lo, hi):
        if lo > hi:
            raise ValueError(f"uniform_in: empty range [{lo}, {hi}]")
        n = hi - lo + 1
        mask = (1 << (n - 1).bit_length()) - 1
        while True:
            v = self.next_u64() & mask
            if v < n:
                return lo + v


# --------------------------------------------------------------------------
# eager recursive enumeration (independent of the library's lazy streams)

def enumerate_oracle(strategy):
    """Every value of a finite strategy domain, as an eager list.

    Orders broadly follow the documented canonical orders but the point of
    this function is the *set* of values; exact-order expectations live in
    dedicated snapshot tests.
    """
    if isinstance(strategy, st.Just):
        return [strategy.value]
    if isinstance(strategy, st.IntRange):
        return list(range(strategy.lo, strategy.hi + 1))
    if isinstance(strategy, st.Map):
        return [strategy.transform(v) for v in enumerate_oracle(strategy.inner)]
    if isinstance(strategy, st.Filter):
        return [v for v in enumerate_oracle(strategy.inner) if _accepts(strategy, v)]
    if isinstance(strategy, st.OneOf):
        out = []
        for alt in strategy.alternatives:
            out.extend(enumerate_oracle(alt))
        return out
    if isinstance(strategy, st.TupleOf):
        pools = [enumerate_oracle(c) for c in strategy.components]
        return [tuple(combo) for combo in itertools.product(*pools)]
    if isinstance(strategy, st.ListOf):
        pool = enumerate_oracle(strategy.element)
        out = []
        for n in range(strategy.min_len, strategy.max_len + 1):
            out.extend(list(combo) for combo in itertools.product(pool, repeat=n))
        return out
    if isinstance(strategy, st.OrderedMapOf):
        keys = []
        for k in enumerate_oracle(strategy.keys):
            if k not in keys:
                keys.append(k)
        vals = enumerate_oracle(strategy.values)
        out = []
        hi = min(strategy.max_size, len(keys))
        for size in range(strategy.min_size, hi + 1):
            for key_combo in itertools.combinations(keys, size):
                for val_combo in itertools.product(vals, repeat=size):
                    out.append(dict(sorted(zip(key_combo, val_combo))))
        return out
    if isinstance(strategy, pat.Pattern):
        return enumerate_oracle(strategy._compiled)
    raise TypeError(f"oracle cannot enumerate {strategy!r}")


def _accepts(f, value):
    try:
        return bool(f.predicate(value))
    except Exception:
        return False


# --------------------------------------------------------------------------
# pattern membership by Python's ``re``

def matches_pattern(text, s, star_cap):
    """Is ``s`` in the language of pattern ``text``?  The pattern syntax is a
    subset of ``re``'s once, outside a class, an unescaped ``*`` is rewritten
    to ``{0,K}`` and ``+`` to ``{1,K}``.  On printable ASCII, the only strings
    patterns make, ``.`` and ``[^...]`` mean the same in both.  A class is
    copied as is, so it must not hold ``[`` or a doubled ``-&|~``, which
    ``re`` warns may change meaning."""
    out, i = [], 0
    while i < len(text):
        ch = text[i]
        if ch == "\\":
            out.append(text[i:i + 2])
            i += 2
        elif ch == "[":
            j = i + 2 if text[i + 1] == "^" else i + 1
            while True:  # a member first: a leading ']' is one
                j += 2 if text[j] == "\\" else 1
                if text[j] == "]":
                    break
            out.append(text[i:j + 1])
            i = j + 1
        else:
            out.append({"*": f"{{0,{star_cap}}}", "+": f"{{1,{star_cap}}}"}.get(ch, ch))
            i += 1
    return re.fullmatch("".join(out), s) is not None


# --------------------------------------------------------------------------
# truncating division, from floor division plus a correction

def tdiv_oracle(a, b):
    q = a // b
    if q < 0 and q * b != a:
        q += 1
    return q


def trem_oracle(a, b):
    return a - b * tdiv_oracle(a, b)


# --------------------------------------------------------------------------
# shrinking order

def min_failing_int(lo, hi, fails):
    """The failing value of [lo, hi] that the declared shrink order ranks
    simplest: integers shrink toward lo, so it is the first failing value
    scanning upward from lo.  None when the predicate never fails."""
    for x in range(lo, hi + 1):
        if fails(x):
            return x
    return None


# --------------------------------------------------------------------------
# reference symbolic evaluation: the tree walkers the compiled closures
# replaced, dispatching on node type at every visit, over dict boxes of
# Intervals and dict valuations

def _tq(a, b):
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def interval_oracle(expr, box):
    """(lo, hi) hull of ``expr`` over ``box``, or DivMaybeZero."""
    if isinstance(expr, sym.Const):
        return expr.value, expr.value
    if isinstance(expr, sym.Var):
        return box[expr.vid].lo, box[expr.vid].hi
    if isinstance(expr, sym.Neg):
        lo, hi = interval_oracle(expr.inner, box)
        return -hi, -lo
    (alo, ahi), (blo, bhi) = interval_oracle(expr.lhs, box), interval_oracle(expr.rhs, box)
    if isinstance(expr, sym.Add):
        return alo + blo, ahi + bhi
    if isinstance(expr, sym.Sub):
        return alo - bhi, ahi - blo
    if isinstance(expr, sym.Mul):
        products = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
        return min(products), max(products)
    if blo <= 0 <= bhi:
        raise sym.DivMaybeZero(expr.location)
    if isinstance(expr, sym.Div):
        quots = (_tq(alo, blo), _tq(alo, bhi), _tq(ahi, blo), _tq(ahi, bhi))
        return min(quots), max(quots)
    if alo == ahi and blo == bhi:
        r = alo - blo * _tq(alo, blo)
        return r, r
    m = max(abs(blo), abs(bhi)) - 1
    if alo >= 0:
        return 0, min(ahi, m)
    if ahi <= 0:
        return max(alo, -m), 0
    return max(alo, -m), min(ahi, m)


def truth_oracle(formula, box):
    """Kleene truth of ``formula`` over ``box`` as "true", "false" or
    "maybe"; both operands of a connective are always evaluated."""
    if isinstance(formula, sym.BoolConst):
        return "true" if formula.value else "false"
    if isinstance(formula, sym.Not):
        return {"true": "false", "false": "true", "maybe": "maybe"}[
            truth_oracle(formula.inner, box)]
    if isinstance(formula, (sym.And, sym.Or)):
        pair = {truth_oracle(formula.lhs, box), truth_oracle(formula.rhs, box)}
        absorbing = "false" if isinstance(formula, sym.And) else "true"
        if absorbing in pair:
            return absorbing
        return "maybe" if "maybe" in pair else pair.pop()
    (alo, ahi), (blo, bhi) = interval_oracle(formula.lhs, box), interval_oracle(formula.rhs, box)
    points_equal = alo == ahi == blo == bhi
    disjoint = ahi < blo or bhi < alo
    decided = {
        "lt": (ahi < blo, alo >= bhi), "le": (ahi <= blo, alo > bhi),
        "gt": (alo > bhi, ahi <= blo), "ge": (alo >= bhi, ahi < blo),
        "eq": (points_equal, disjoint), "ne": (disjoint, points_equal),
    }[formula.op]
    return "true" if decided[0] else "false" if decided[1] else "maybe"


def concrete_oracle(node, val):
    """Integer value of an expression or bool of a formula at ``val``; both
    operands of a connective are always evaluated, as ``truth_oracle`` does
    over a box."""
    if isinstance(node, (sym.Const, sym.BoolConst)):
        return node.value
    if isinstance(node, sym.Var):
        return val[node.vid]
    if isinstance(node, sym.Neg):
        return -concrete_oracle(node.inner, val)
    if isinstance(node, sym.Not):
        return not concrete_oracle(node.inner, val)
    if isinstance(node, (sym.And, sym.Or)):
        pair = concrete_oracle(node.lhs, val), concrete_oracle(node.rhs, val)
        return all(pair) if isinstance(node, sym.And) else any(pair)
    a, b = concrete_oracle(node.lhs, val), concrete_oracle(node.rhs, val)
    if isinstance(node, sym.Cmp):
        return {"lt": a < b, "le": a <= b, "gt": a > b,
                "ge": a >= b, "eq": a == b, "ne": a != b}[node.op]
    if isinstance(node, (sym.Add, sym.Sub, sym.Mul)):
        return a + b if isinstance(node, sym.Add) else a - b if isinstance(node, sym.Sub) else a * b
    if b == 0:
        raise sym.EvalError("div_by_zero", node.location)
    return _tq(a, b) if isinstance(node, sym.Div) else a - b * _tq(a, b)


def branch_and_prune_oracle(formula, box, budget, seed=0, remaining=None, points=None):
    """(status, witness, boxes, splits, note) from dict-box splitting.  A box
    left maybe is a leaf when it holds at most ``sym.LEAF_POINTS`` points
    and they fit the budget left: each point, in ``itertools.product`` order
    over the sorted vids, is one more box, and the first that fails is the
    witness.  Any other maybe box is split along its widest dimension (ties
    to the lowest vid), lower half searched first.  Once the budget runs out,
    seeded samples from the remaining boxes.  The list ``remaining``, when
    given, receives those boxes, bottom of the stack first; the list
    ``points`` receives every point a leaf evaluates."""
    work, boxes, splits = [dict(box)], 0, 0
    while work:
        if boxes >= budget:
            if remaining is not None:
                remaining.extend(work)
            rng = SplitMix64(seed)
            for i in range(sym.FALLBACK_SAMPLES):
                b = work[i % len(work)]
                val = {v: rng.uniform_in(iv.lo, iv.hi) for v, iv in b.items()}
                try:
                    if not concrete_oracle(formula, val):
                        return "witness", val, boxes, splits, None
                except sym.EvalError:
                    continue
            return "undecided", None, boxes, splits, f"box budget {budget} exhausted"
        current = work.pop()
        boxes += 1
        try:
            truth = truth_oracle(formula, current)
        except sym.DivMaybeZero as exc:
            return "unsupported", None, boxes, splits, str(exc)
        if truth == "false":
            val = {v: (iv.lo + iv.hi) // 2 for v, iv in current.items()}
            return "witness", val, boxes, splits, None
        if truth == "true":
            continue
        vids = sorted(current)
        axes = [range(current[v].lo, current[v].hi + 1) for v in vids]
        size = 1
        for axis in axes:
            size *= axis.stop - axis.start  # len() refuses a range a word wide
        if size <= min(sym.LEAF_POINTS, budget - boxes):
            for point in itertools.product(*axes):
                val = dict(zip(vids, point))
                boxes += 1
                if points is not None:
                    points.append(val)
                if not concrete_oracle(formula, val):  # a zero divisor here raises
                    return "witness", val, boxes, splits, None
            continue
        widths = [(iv.hi - iv.lo, -v) for v, iv in current.items()]
        dim = -max(widths)[1]
        iv = current[dim]
        mid = (iv.lo + iv.hi) // 2
        splits += 1
        work.append({**current, dim: sym.Interval(mid + 1, iv.hi)})
        work.append({**current, dim: sym.Interval(iv.lo, mid)})
    return "proved", None, boxes, splits, None


# --------------------------------------------------------------------------
# reference enumeration: the per-node streams that enumeration used before
# it became index-addressed, kept as the other side of the differential
# tests.  Each node's stream is transcribed from the ``_iter_trees`` method
# it once had, over plain values instead of trees.

def lazy_product_reference(stream_fns):
    """Row-major product of replayable streams (first component slowest)."""
    if not stream_fns:
        yield ()
        return
    head = stream_fns[0]
    rest = stream_fns[1:]
    if not rest:
        for h in head():
            yield (h,)
        return
    for h in head():
        for tail in lazy_product_reference(rest):
            yield (h,) + tail


def _key_sorted_reference(entries):
    try:
        return dict(sorted(entries, key=lambda kv: kv[0]))
    except TypeError:  # keys not mutually orderable; keep construction order
        return dict(entries)


def iter_trees_reference(s, stats=None):
    """The canonical enumeration of ``s`` as ``iter_trees`` walks it: the
    value of each accepted position, in order."""
    if isinstance(s, pat.Pattern):
        s = s._compiled
    if isinstance(s, st.Just):
        yield s.value
    elif isinstance(s, st.IntRange):
        yield from range(s.lo, s.hi + 1)
    elif isinstance(s, st.Map):
        for v in iter_trees_reference(s.inner, stats):
            yield s.transform(v)
    elif isinstance(s, st.Filter):
        for v in iter_trees_reference(s.inner, stats):
            if s._accepts(v):
                yield v
            elif stats is not None:
                stats.note_reject(s.label)
    elif isinstance(s, st.OneOf):
        for alt in s.alternatives:
            yield from iter_trees_reference(alt, stats)
    elif isinstance(s, st.TupleOf):
        fns = [(lambda c=c: iter_trees_reference(c, stats)) for c in s.components]
        yield from lazy_product_reference(fns)
    elif isinstance(s, st.ListOf):
        for n in range(s.min_len, s.max_len + 1):
            fns = [(lambda: iter_trees_reference(s.element, stats))] * n
            for combo in lazy_product_reference(fns):
                yield list(combo)
    elif isinstance(s, st.OrderedMapOf):
        universe = []
        seen = set()
        for k in iter_trees_reference(s.keys, stats):
            if k in seen:
                continue
            seen.add(k)
            universe.append(k)
            if len(universe) > st._KEY_UNIVERSE_CAP:
                raise st.NotEnumerable("ordered_map_of: key universe too large to enumerate")
        for size in range(s.min_size, min(s.max_size, len(universe)) + 1):
            for key_combo in itertools.combinations(universe, size):
                fns = [(lambda: iter_trees_reference(s.values, stats))] * size
                for val_combo in lazy_product_reference(fns):
                    yield _key_sorted_reference(list(zip(key_combo, val_combo)))
    else:
        raise TypeError(f"no reference enumeration for {s!r}")
