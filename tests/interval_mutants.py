"""Mutation check of the interval rules, the search kernel, the
carriers, the predicate's concrete reading and the enumeration layer: does
the suite notice an unsound one?

Each mutant below is one textual edit of one file under
``src/tricheck/``, which the mutant names, with the test files that must
kill it.  A rule mutant (``MUTANTS``) makes interval or point evaluation
wrong; the others (``SUITE_MUTANTS``) make the search kernel's leaf, the
units it charges or its split wrong, merge subterms that differ, share a
quotient between divisions that differ, check a symbolic verdict on values
the strategy did not draw there or without its filters' agreement, let user
code read a carrier's text unnoticed, let a predicate that returns None
fail, or give an enumerated value choices that do not draw it, or miscount
its filters' rejections.  For each, the
script copies ``src/`` into a temporary directory, edits the copy (never
the checkout), and runs pytest with that copy first on ``PYTHONPATH``:

1. criterion 05 (``test_criterion_05_interval_arithmetic_is_sound``) alone,
   for rule mutants only: it checks one-shot evaluation, which runs no
   kernel and no predicate, so the other mutants must be killed by their
   suites alone;
2. the test files the mutant names, and only those, with ``-x``.

A run that fails kills the mutant.  The script prints, per mutant, the
first test that failed in each run.  It exits 1 if a mutant survives a
run it must fail, or if a mutant's target text is not in its file exactly
once (the code moved, so the mutant must be rewritten); a run that cannot
collect its tests stops it.  The name keeps pytest from collecting this
file.

    python tests/interval_mutants.py            # from the repository root
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("tricheck")

CRITERION_05 = ["tests/test_acceptance.py::test_criterion_05_interval_arithmetic_is_sound"]
SYMBOLIC = ["tests/test_symbolic.py", "tests/test_acceptance.py"]
ENUMERATION = ["tests/test_enumeration.py"]

#: (source file under src/tricheck, what goes wrong, target text, its
#: replacement, the test files that must kill it)
MUTANTS = [
    ("symbolic.py", "Mul's hull drops the hi*hi corner",
     'return _hull(x, y, *(f"{p} * {q}" for p in a for q in b))',
     'return _hull(x, y, *[f"{p} * {q}" for p in a for q in b][:3], f"{alo} * {blo}")', SYMBOLIC),
    ("symbolic.py", "Sub's bounds are swapped",
     'return [f"{x} = {alo} - {bhi}", f"{y} = {ahi} - {blo}"]',
     'return [f"{x} = {alo} - {blo}", f"{y} = {ahi} - {bhi}"]', SYMBOLIC),
    ("symbolic.py", "Add's upper bound uses blo",
     'f"{y} = {ahi} + {bhi}"',
     'f"{y} = {ahi} + {blo}"', SYMBOLIC),
    ("symbolic.py", "Neg's bounds are taken from the wrong end",
     'return [f"{x} = -{ahi}", f"{y} = -{alo}"]',
     'return [f"{x} = -{alo}", f"{y} = -{ahi}"]', SYMBOLIC),
    ("symbolic.py", "Rem's m is one smaller",
     'f"    m = ({bhi} if {blo} > 0 else -{blo}) - 1"',
     'f"    m = ({bhi} if {blo} > 0 else -{blo}) - 2"', SYMBOLIC),
    ("symbolic.py", "Rem takes its exact branch when only the dividend is a point",
     'f"if {alo} == {ahi} and {blo} == {bhi}:"',
     'f"if {alo} == {ahi}:"', SYMBOLIC),
    ("symbolic.py", "Rem's lower bound is one higher",
     'else {alo} if {alo} > -m else -m"',
     'else {alo} if {alo} > -m else -m + 1"', SYMBOLIC),
    ("symbolic.py", "the Div guard misses a divisor range that ends at 0",
     'guard = f"if {blo} <= 0 <= {bhi}: {abort}"',
     'guard = f"if {blo} <= 0 < {bhi}: {abort}"', SYMBOLIC),
    ("symbolic.py", "the Div hull floors instead of truncating",
     '*_hull(x, y, *(_tq_source(p, q) for p in a for q in b))',
     '*_hull(x, y, *(f"{p} // {q}" for p in a for q in b))', SYMBOLIC),
    ("symbolic.py", "< reads TRUE when ahi <= blo",
     'return f"{t} = {yes} if {ahi} < {blo} else',
     'return f"{t} = {yes} if {ahi} <= {blo} else', SYMBOLIC),
    ("symbolic.py", "== reads TRUE on boxes with equal bounds",
     'f"else {yes} if {alo} == {ahi} == {blo} == {bhi} else 0"',
     'f"else {yes} if {alo} == {blo} and {ahi} == {bhi} else 0"', SYMBOLIC),
    ("symbolic.py", "Or is min and And is max",
     "{'<' if kind is And else '>'}",
     "{'>' if kind is And else '<'}", SYMBOLIC),
    ("symbolic.py", "point Div floors",
     'f"{x} = {quotient}" if kind is Div',
     'f"{x} = {a} // {b}" if kind is Div', SYMBOLIC),
    ("symbolic.py", "point Rem is %",
     'else f"{x} = {a} - {b} * {quotient}"',
     'else f"{x} = {a} % {b}"', SYMBOLIC),
    ("symbolic.py", "_program swaps the operands",
     "i, j = (*operands, None)[:2]",
     "i, j = (*operands[::-1], None)[:2]", SYMBOLIC),
]

#: the same, for what criterion 05 does not run: the search kernel's leaf,
#: its charge, its split and its shared quotients, the walk's matching of
#: equal subterms, how a symbolic verdict's values are drawn and checked,
#: what user code may read of a carrier, the concrete reading of a
#: predicate's result, and the choices an enumeration gives each value and
#: the rejections it counts
SUITE_MUTANTS = [
    ("symbolic.py", "the leaf drops each range's last point",
     "f'range(l{i}, h{i} + 1), '",
     "f'range(l{i}, h{i}), '", SYMBOLIC),
    ("symbolic.py", "the innermost range drops its last point",
     'range(l{n - 1}, h{n - 1} + 1)',
     'range(l{n - 1}, h{n - 1})', SYMBOLIC),
    ("symbolic.py", "a leaf charges one point fewer than it holds",
     '"boxes += size",',
     '"boxes += size - 1",', SYMBOLIC),
    ("symbolic.py", "a failing point in a leaf is charged one rank short",
     'spent = f"boxes += 1 + rank(',
     'spent = f"boxes += rank(', SYMBOLIC),
    ("symbolic.py", "the pushed upper half starts at m + 2",
     "b[{2 * i}] = m + 1;",
     "b[{2 * i}] = m + 2;", SYMBOLIC),
    ("symbolic.py", "the lower half narrows to m - 1",
     "h{i} = m\"",
     "h{i} = m - 1\"", SYMBOLIC),
    ("symbolic.py", "split ties go to the highest vid",
     'f"if h{i} - l{i} > w:',
     'f"if h{i} - l{i} >= w:', SYMBOLIC),
    ("symbolic.py", "equal subterms are matched by kind and left operand only",
     "entries.setdefault(entry, len(nodes))",
     "entries.setdefault(entry[:2], len(nodes))", SYMBOLIC),
    ("symbolic.py", "a shared quotient is looked up by its dividend only",
     "pair = (a, b)",
     "pair = a", SYMBOLIC),
    ("symbolic.py", "a checked value is drawn with every variable at its range's lo",
     "else val[c.vid] - alt.box[c.vid].lo for c in alt.template]",
     "else 0 for c in alt.template]", SYMBOLIC),
    ("symbolic.py", "the filters alone admit a drawn value, the hypothesis unchecked",
     "admitted = alt.hypothesis is None or concrete_truth(alt.hypothesis, val)",
     "admitted = tree is not None", SYMBOLIC),
    ("symbolic.py", "a vacuous alternative is left unconfirmed",
     "check only that\n                _confirm(prop, alt)\n",
     "check only that\n", SYMBOLIC),
    ("symbolic.py", "a carrier's repr is read unnoticed",
     '    _note("reads the repr of a symbolic value")\n',
     "", SYMBOLIC),
    ("harness.py", "a predicate that returns None fails",
     "if result is None or result is True or result:",
     "if result is True or result:", SYMBOLIC),
    ("strategies.py", "a filter's rejection is not noted",
     "return self._accepts(v) or stats.note_reject(self.label)",
     "return self._accepts(v)", ENUMERATION),
    ("strategies.py", "a range's choice is read one past its value",
     "lambda: [top - left()]",
     "lambda: [top - left() + 1]", ENUMERATION),
    ("strategies.py", "a one_of names the alternative before the one it walks",
     "(i, *alt._walk(stats))",
     "(i - 1, *alt._walk(stats))", ENUMERATION),
    ("strategies.py", "a product's choices drop its left half",
     "return head + tail_choices()",
     "return tail_choices()", ENUMERATION),
    ("strategies.py", "a product keeps its first head's choices for every head",
     "            head = None\n            return values",
     "            return values", ENUMERATION),
    ("strategies.py", "a list's size choice is not offset by min_len",
     "return n - self.min_len, map(list, values)",
     "return n, map(list, values)", ENUMERATION),
    ("strategies.py", "a map takes every key's choices from its first key",
     "[entry(universe[k]) for k in combo]",
     "[entry(universe[combo[0]]) for k in combo]", ENUMERATION),
]


def _killer(src: Path, tests: list[str]) -> str | None:
    """The first test of ``tests`` that fails under pytest importing from
    ``src``, with the run's wall time, or None if all pass; a run that
    cannot collect its tests raises."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-rf", "-p", "no:cacheprovider",
                           *tests], cwd=ROOT, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):  # 1 is failed tests; anything else is a broken run
        raise RuntimeError(f"pytest exited {proc.returncode}:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    if proc.returncode == 0:
        return None
    first = re.search(r"^FAILED \S+::(\S+)", proc.stdout, re.M)
    return f"{first.group(1) if first else '?'} ({time.monotonic() - start:.1f} s)"


def main() -> int:
    mutants = [(*m, True) for m in MUTANTS] + [(*m, False) for m in SUITE_MUTANTS]
    failed = []
    with tempfile.TemporaryDirectory() as scratch:
        src = Path(scratch) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        for n, (source, what, old, new, suites, rule) in enumerate(mutants, 1):
            path = src / PACKAGE / source
            original = (ROOT / "src" / PACKAGE / source).read_text()
            if original.count(old) != 1:
                print(f"{n:2}  {what}: target text found {original.count(old)} times in {source}, not once")
                failed.append(n)
                continue
            path.write_text(original.replace(old, new))
            try:
                alone = _killer(src, CRITERION_05) if rule else "not run (not an interval rule)"
                killer = _killer(src, suites)
            finally:
                path.write_text(original)
            print(f"{n:2}  {what} ({source})\n      criterion 05 alone: {alone or 'SURVIVED'}\n"
                  f"      {', '.join(Path(t).name for t in suites)}: {killer or 'SURVIVED'}",
                  flush=True)
            if not (alone and killer):
                failed.append(n)
    print(f"{len(mutants) - len(failed)} of {len(mutants)} mutants killed by every run they must fail")
    return 1 if failed else 0

if __name__ == "__main__":
    sys.exit(main())
