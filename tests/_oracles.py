"""Independent oracles the tests compare the library against.

Everything here is deliberately written *without* looking at the library's
internals: the generator is transcribed separately from its public reference
description, enumeration is eager recursion instead of lazy streams, and the
pattern matcher interprets the AST directly rather than going through
strategy compilation.  When a test says "matches the oracle", this module is
the other side of that comparison.  The reference enumeration at the end is
the one exception: it is the library's previous per-node tree streams, kept
as the baseline that index-addressed enumeration must reproduce.
"""

from __future__ import annotations

import itertools

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
    if isinstance(strategy, st.OptionalOf):
        return [None] + enumerate_oracle(strategy.inner)
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
        return language_of(strategy.ast)
    raise TypeError(f"oracle cannot enumerate {strategy!r}")


def _accepts(f, value):
    try:
        return bool(f.predicate(value))
    except Exception:
        return False


# --------------------------------------------------------------------------
# pattern language and matcher, interpreting the AST directly

def language_of(ast):
    """Eager list of every string the pattern AST denotes (small inputs only)."""
    if isinstance(ast, pat.Literal):
        return [ast.char]
    if isinstance(ast, pat.AnyChar):
        return [chr(c) for c in range(pat.PRINTABLE_LO, pat.PRINTABLE_HI + 1)]
    if isinstance(ast, pat.CharClass):
        return list(ast.chars())
    if isinstance(ast, pat.Concat):
        pools = [language_of(p) for p in ast.parts]
        return ["".join(combo) for combo in itertools.product(*pools)]
    if isinstance(ast, pat.Alternation):
        out = []
        for b in ast.branches:
            out.extend(language_of(b))
        return out
    if isinstance(ast, pat.Repeat):
        pool = language_of(ast.inner)
        out = []
        for n in range(ast.min, ast.max + 1):
            out.extend("".join(combo) for combo in itertools.product(pool, repeat=n))
        return out
    raise TypeError(f"not a pattern node: {ast!r}")


def match_ast(ast, text):
    """Backtracking membership test: is ``text`` in the AST's language?"""
    return len(text) in _ends(ast, text, 0)


def _ends(node, text, start):
    """Set of positions where ``node`` can stop matching, starting at ``start``."""
    if isinstance(node, pat.Literal):
        if text.startswith(node.char, start):
            return {start + 1}
        return set()
    if isinstance(node, pat.AnyChar):
        if start < len(text) and pat.PRINTABLE_LO <= ord(text[start]) <= pat.PRINTABLE_HI:
            return {start + 1}
        return set()
    if isinstance(node, pat.CharClass):
        if start < len(text) and node.contains(text[start]):
            return {start + 1}
        return set()
    if isinstance(node, pat.Concat):
        positions = {start}
        for part in node.parts:
            positions = set().union(*(_ends(part, text, p) for p in positions)) \
                if positions else set()
        return positions
    if isinstance(node, pat.Alternation):
        return set().union(*(_ends(b, text, start) for b in node.branches))
    if isinstance(node, pat.Repeat):
        # breadth-wise: positions reachable after exactly k repetitions
        result = set()
        frontier = {start}
        if node.min == 0:
            result.add(start)
        for k in range(1, node.max + 1):
            frontier = set().union(*(_ends(node.inner, text, p) for p in frontier)) \
                if frontier else set()
            if not frontier:
                break
            if k >= node.min:
                result |= frontier
        return result
    raise TypeError(f"not a pattern node: {node!r}")


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
    """Integer value of an expression or bool of a formula at ``val``."""
    if isinstance(node, (sym.Const, sym.BoolConst)):
        return node.value
    if isinstance(node, sym.Var):
        return val[node.vid]
    if isinstance(node, sym.Neg):
        return -concrete_oracle(node.inner, val)
    if isinstance(node, sym.Not):
        return not concrete_oracle(node.inner, val)
    if isinstance(node, sym.And):
        return concrete_oracle(node.lhs, val) and concrete_oracle(node.rhs, val)
    if isinstance(node, sym.Or):
        return concrete_oracle(node.lhs, val) or concrete_oracle(node.rhs, val)
    a, b = concrete_oracle(node.lhs, val), concrete_oracle(node.rhs, val)
    if isinstance(node, sym.Cmp):
        return {"lt": a < b, "le": a <= b, "gt": a > b,
                "ge": a >= b, "eq": a == b, "ne": a != b}[node.op]
    if isinstance(node, (sym.Add, sym.Sub, sym.Mul)):
        return a + b if isinstance(node, sym.Add) else a - b if isinstance(node, sym.Sub) else a * b
    if b == 0:
        raise sym.EvalError("div_by_zero", node.location)
    return _tq(a, b) if isinstance(node, sym.Div) else a - b * _tq(a, b)


def branch_and_prune_oracle(formula, box, budget, seed=0):
    """(status, witness, boxes, splits, note) from dict-box splitting: widest
    dimension first (ties to the lowest vid), lower half searched first,
    seeded samples from the remaining boxes once the budget runs out."""
    work, boxes, splits = [dict(box)], 0, 0
    while work:
        if boxes >= budget:
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
        widths = [(iv.hi - iv.lo, -v) for v, iv in current.items() if iv.hi > iv.lo]
        if not widths:
            val = {v: iv.lo for v, iv in current.items()}
            try:
                if not concrete_oracle(formula, val):
                    return "witness", val, boxes, splits, None
            except sym.EvalError:
                return ("unsupported", None, boxes, splits,
                        "division by zero at a concrete point")
            continue
        dim = -max(widths)[1]
        iv = current[dim]
        mid = (iv.lo + iv.hi) // 2
        splits += 1
        work.append({**current, dim: sym.Interval(mid + 1, iv.hi)})
        work.append({**current, dim: sym.Interval(iv.lo, mid)})
    return "proved", None, boxes, splits, None


# --------------------------------------------------------------------------
# reference enumeration: the per-node tree streams that enumeration used
# before it became index-addressed, kept as the other side of the
# differential tests.  Each node's stream is transcribed from the
# ``_iter_trees`` / ``_simplest_tree`` method it once had.

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


def iter_trees_reference(s, stats=None):
    """The canonical enumeration of ``s`` as shrinkable trees."""
    if isinstance(s, pat.Pattern):
        s = s._compiled
    if isinstance(s, st.Just):
        yield st._LeafTree(s.value)
    elif isinstance(s, st.IntRange):
        for v in range(s.lo, s.hi + 1):
            yield st._IntTree(v, s.lo)
    elif isinstance(s, st.Map):
        for t in iter_trees_reference(s.inner, stats):
            yield st._MapTree(s.transform, t)
    elif isinstance(s, st.Filter):
        for t in iter_trees_reference(s.inner, stats):
            if s._accepts(t.current):
                yield st._FilterTree(s.predicate, t)
            elif stats is not None:
                stats.note_reject(s.label)
    elif isinstance(s, st.OneOf):
        for i, alt in enumerate(s.alternatives):
            for t in iter_trees_reference(alt, stats):
                yield st._UnionTree(i, t, s.alternatives, None)
    elif isinstance(s, st.TupleOf):
        fns = [(lambda c=c: iter_trees_reference(c, stats)) for c in s.components]
        for combo in lazy_product_reference(fns):
            yield st._TupleTree(combo)
    elif isinstance(s, st.OptionalOf):
        yield st._AbsentTree()
        for t in iter_trees_reference(s.inner, stats):
            yield st._PresentTree(t)
    elif isinstance(s, st.ListOf):
        for n in range(s.min_len, s.max_len + 1):
            fns = [(lambda: iter_trees_reference(s.element, stats))] * n
            for combo in lazy_product_reference(fns):
                yield st._ListTree(combo, s.min_len)
    elif isinstance(s, st.OrderedMapOf):
        universe = []
        seen = set()
        for kt in iter_trees_reference(s.keys, stats):
            if kt.current in seen:
                continue
            seen.add(kt.current)
            universe.append(kt)
            if len(universe) > st._KEY_UNIVERSE_CAP:
                raise st.NotEnumerable("ordered_map_of: key universe too large to enumerate")
        for size in range(s.min_size, min(s.max_size, len(universe)) + 1):
            for key_combo in itertools.combinations(universe, size):
                fns = [(lambda: iter_trees_reference(s.values, stats))] * size
                for val_combo in lazy_product_reference(fns):
                    yield st._MapEntriesTree(list(zip(key_combo, val_combo)), s.min_size)
    else:
        raise TypeError(f"no reference enumeration for {s!r}")


def simplest_tree_reference(s):
    """The canonically simplest tree of ``s``, node by node."""
    if isinstance(s, pat.Pattern):
        s = s._compiled
    if isinstance(s, st.Just):
        return st._LeafTree(s.value)
    if isinstance(s, st.IntRange):
        return st._IntTree(s.lo, s.lo)
    if isinstance(s, st.Map):
        t = simplest_tree_reference(s.inner)
        return None if t is None else st._MapTree(s.transform, t)
    if isinstance(s, st.Filter):
        for i, t in enumerate(iter_trees_reference(s.inner)):
            if s._accepts(t.current):
                return st._FilterTree(s.predicate, t)
            if i >= st.MAX_REJECTIONS_PER_VALUE:
                return None
        return None
    if isinstance(s, st.OneOf):
        for i, alt in enumerate(s.alternatives):
            t = simplest_tree_reference(alt)
            if t is not None:
                return st._UnionTree(i, t, s.alternatives, None)
        return None
    if isinstance(s, st.TupleOf):
        comps = [simplest_tree_reference(c) for c in s.components]
        if any(t is None for t in comps):
            return None
        return st._TupleTree(comps)
    if isinstance(s, st.OptionalOf):
        return st._AbsentTree()
    if isinstance(s, st.ListOf):
        if s.min_len == 0:
            return st._ListTree([], 0)
        t = simplest_tree_reference(s.element)
        if t is None:
            return None
        return st._ListTree([t] * s.min_len, s.min_len)
    if isinstance(s, st.OrderedMapOf):
        if s.min_size == 0:
            return st._MapEntriesTree([], 0)
        vt = simplest_tree_reference(s.values)
        if vt is None:
            return None
        entries = []
        seen = []
        for i, kt in enumerate(iter_trees_reference(s.keys)):
            if kt.current in seen:
                continue
            seen.append(kt.current)
            entries.append((kt, vt))
            if len(entries) == s.min_size:
                return st._MapEntriesTree(entries, s.min_size)
            if i >= st.MAX_REJECTIONS_PER_VALUE * s.min_size:
                break
        return None
    raise TypeError(f"no reference simplest tree for {s!r}")
