"""Mutation check of the interval rules: does the suite notice an unsound one?

Each mutant below is one textual edit of ``src/tricheck/symbolic.py`` that
makes interval or point evaluation wrong.  For each, the script copies
``src/`` into a temporary directory, edits the copy (never the checkout),
and runs pytest with that copy first on ``PYTHONPATH``:

1. criterion 05 (``test_criterion_05_interval_arithmetic_is_sound``) alone;
2. ``tests/test_symbolic.py`` and ``tests/test_acceptance.py`` with ``-x``.

A run that fails kills the mutant.  The script prints, per mutant, the
first test that failed in each run.  It exits 1 if a mutant survives
either run, or if a mutant's target text is not in the source exactly once
(the code moved, so the mutant must be rewritten); a run that cannot
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
SOURCE = Path("tricheck") / "symbolic.py"

CRITERION_05 = ["tests/test_acceptance.py::test_criterion_05_interval_arithmetic_is_sound"]
SUITES = ["tests/test_symbolic.py", "tests/test_acceptance.py"]

#: (what goes wrong, target text, its replacement)
MUTANTS = [
    ("Mul's hull drops the hi*hi corner",
     'return _hull(x, y, *(f"{p} * {q}" for p in a for q in b))',
     'return _hull(x, y, *[f"{p} * {q}" for p in a for q in b][:3], f"{alo} * {blo}")'),
    ("Sub's bounds are swapped",
     'return [f"{x} = {alo} - {bhi}", f"{y} = {ahi} - {blo}"]',
     'return [f"{x} = {alo} - {blo}", f"{y} = {ahi} - {bhi}"]'),
    ("Add's upper bound uses blo",
     'f"{y} = {ahi} + {bhi}"',
     'f"{y} = {ahi} + {blo}"'),
    ("Neg's bounds are taken from the wrong end",
     'return [f"{x} = -{ahi}", f"{y} = -{alo}"]',
     'return [f"{x} = -{alo}", f"{y} = -{ahi}"]'),
    ("Rem's m is one smaller",
     'f"    m = ({bhi} if {blo} > 0 else -{blo}) - 1"',
     'f"    m = ({bhi} if {blo} > 0 else -{blo}) - 2"'),
    ("Rem takes its exact branch when only the dividend is a point",
     'f"if {alo} == {ahi} and {blo} == {bhi}:"',
     'f"if {alo} == {ahi}:"'),
    ("Rem's lower bound is one higher",
     'else {alo} if {alo} > -m else -m"',
     'else {alo} if {alo} > -m else -m + 1"'),
    ("the Div guard misses a divisor range that ends at 0",
     'guard = f"if {blo} <= 0 <= {bhi}: {abort}"',
     'guard = f"if {blo} <= 0 < {bhi}: {abort}"'),
    ("the Div hull floors instead of truncating",
     '*_hull(x, y, *(_tq_source(p, q) for p in a for q in b))',
     '*_hull(x, y, *(f"{p} // {q}" for p in a for q in b))'),
    ("< reads TRUE when ahi <= blo",
     'return f"{t} = {yes} if {ahi} < {blo} else',
     'return f"{t} = {yes} if {ahi} <= {blo} else'),
    ("== reads TRUE on boxes with equal bounds",
     'f"else {yes} if {alo} == {ahi} == {blo} == {bhi} else 0"',
     'f"else {yes} if {alo} == {blo} and {ahi} == {bhi} else 0"'),
    ("Or is min and And is max",
     "{'<' if kind is And else '>'}",
     "{'>' if kind is And else '<'}"),
    ("point Div floors",
     'f"{x} = {quotient}" if kind is Div',
     'f"{x} = {a} // {b}" if kind is Div'),
    ("point Rem is %",
     'else f"{x} = {a} - {b} * {quotient}"',
     'else f"{x} = {a} % {b}"'),
    ("_program swaps the operands",
     "i, j = (*operands, None)[:2]",
     "i, j = (*operands[::-1], None)[:2]"),
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
    original = (ROOT / "src" / SOURCE).read_text()
    failed = []
    with tempfile.TemporaryDirectory() as scratch:
        src = Path(scratch) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        for n, (what, old, new) in enumerate(MUTANTS, 1):
            if original.count(old) != 1:
                print(f"{n:2}  {what}: target text found {original.count(old)} times, not once")
                failed.append(n)
                continue
            (src / SOURCE).write_text(original.replace(old, new))
            alone, suites = _killer(src, CRITERION_05), _killer(src, SUITES)
            print(f"{n:2}  {what}\n      criterion 05 alone: {alone or 'SURVIVED'}\n"
                  f"      symbolic and acceptance: {suites or 'SURVIVED'}", flush=True)
            if not (alone and suites):
                failed.append(n)
    print(f"{len(MUTANTS) - len(failed)} of {len(MUTANTS)} mutants killed by both runs")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
