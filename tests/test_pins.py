"""Pinned fuzz-path outputs: seeded draws and normalized corpus reports.

The differential enumeration tests never see a tree built by a random draw,
so these pins hold the fuzz path still across refactors of the tree classes:
every combinator's draw at seeds 0-19 (value and first-level shrink
candidates), the built-in corpus report under ``--backend fuzz`` and
``--backend exhaustive`` with run id, timestamp and durations blanked, and
the PRNG words each property of the fuzz run draws.

The expected values live in ``tests/pins/``, and the word counts in
``FUZZ_WORDS`` below.  After a change that is meant to alter them,
regenerate with ``PYTHONPATH=src python tests/test_pins.py``, which rewrites
the files and prints the word counts, and review the diff.
"""

import json
import pathlib
from unittest import mock

import pytest

from tricheck import runner
from tricheck.cli import main
from tricheck.patterns import pattern
from tricheck.prng import SplitMix64
from tricheck.strategies import (int_range, just, list_of, one_of, optional_of,
                                 ordered_map_of, random_tree, tuple_of)

PINS = pathlib.Path(__file__).parent / "pins"
SEEDS = range(20)


def _double(x):
    return 2 * x


def _odd(x):
    return x % 2 == 1


DRAWN = {
    "just": just("x"),
    "int_range": int_range(-50, 1000),
    "map": int_range(0, 100).map(_double),
    "filter": int_range(0, 100).filter("odd", _odd),
    "one_of": one_of(int_range(0, 9), just("a"), int_range(100, 200)),
    "tuple_of": tuple_of(int_range(0, 9), int_range(-5, 5), just(None)),
    "optional_of": optional_of(int_range(0, 50)),
    "list_of": list_of(int_range(0, 9), 0, 5),
    "ordered_map_of": ordered_map_of(int_range(0, 9), int_range(0, 3), 0, 3),
    "pattern": pattern("[ab]{1,3}c?"),
    "list_of.optional": list_of(optional_of(int_range(0, 3)), 1, 3),
    "tuple_of.nested": tuple_of(optional_of(tuple_of(int_range(0, 5), just(1))),
                                list_of(int_range(0, 2), 0, 2)),
    "one_of.optional": one_of(optional_of(int_range(0, 3)), list_of(int_range(0, 3), 1, 2)),
}

REPORTS = ("fuzz", "exhaustive")
REPORT_ARGS = ["--seed", "7", "--cases", "512", "--budget", "4096"]

# PRNG words per property in the fuzz report's run: a deterministic work
# counter, the benchmark's ``prng.u64`` split by property
FUZZ_WORDS = {
    "clamp.idem": 523,
    "div.recompose": 2002,
    "even.rebuild": 1349,
    "filter.vacuous": 121,
    "identity.wide": 512,
    "list.no_triples": 8,
    "list.rev_rev": 2387,
    "list.sort_idem": 2387,
    "map.keys_sorted": 2454,
    "map.size": 2398,
    "max.dominates": 1652,
    "multiply": 1057,
    "multiply.strict": 1057,
    "neg.involution": 512,
    "opt.with_default": 943,
    "ordered.pair": 1928,
    "pattern.choice": 771,
    "pattern.digits": 2280,
    "pattern.pairs": 1536,
    "pattern.word": 512,
    "rem.abs_bound": 1133,
    "rem.range": 1133,
    "rem.total": 3,
    "scale.range": 841,
    "sign.cases": 1321,
    "square.nonneg": 522,
    "sub.self_zero": 673,
    "sum.assoc": 1536,
    "threshold.wide": 8,
}


def drawn(name):
    """[current, first-level candidates] of each seeded draw, as reprs."""
    out = []
    for seed in SEEDS:
        tree = random_tree(DRAWN[name], SplitMix64(seed))
        out.append([repr(tree.current), [repr(c.current) for c in tree.candidates()]])
    return out


def corpus_report(backend, directory):
    """The corpus report with its run id, timestamp and durations blanked."""
    path = pathlib.Path(directory) / f"report-{backend}.json"
    main(["run", "--backend", backend, *REPORT_ARGS, "--report", str(path)])
    doc = json.loads(path.read_text())
    doc["run_id"] = doc["timestamp"] = None
    for result in doc["results"]:
        result["duration_ms"] = None
    return doc


def fuzz_words():
    """The PRNG words each property draws in the fuzz report's run, counted
    through ``SplitMix64.next_u64`` as the benchmark's tracer counts them."""
    used, counts = 0, {}
    next_u64, run_property = SplitMix64.next_u64, runner.run_property

    def counted_word(self):
        nonlocal used
        used += 1
        return next_u64(self)

    def counted_run(prop, *args, **kw):
        before = used
        verdict = run_property(prop, *args, **kw)
        counts[prop.name] = used - before
        return verdict

    with mock.patch.object(SplitMix64, "next_u64", counted_word), \
            mock.patch.object(runner, "run_property", counted_run):
        main(["run", "--backend", "fuzz", *REPORT_ARGS])
    return counts


@pytest.mark.parametrize("name", sorted(DRAWN))
def test_seeded_draws_are_pinned(name):
    assert drawn(name) == json.loads((PINS / "draws.json").read_text())[name]


@pytest.mark.parametrize("backend", REPORTS)
def test_corpus_report_is_pinned(backend, tmp_path, capsys):
    expected = json.loads((PINS / f"corpus-{backend}.json").read_text())
    assert corpus_report(backend, tmp_path) == expected


def test_fuzz_words_per_property_are_pinned(capsys):
    assert fuzz_words() == FUZZ_WORDS


if __name__ == "__main__":
    import tempfile

    PINS.mkdir(exist_ok=True)
    (PINS / "draws.json").write_text(
        json.dumps({name: drawn(name) for name in sorted(DRAWN)}, indent=1) + "\n")
    with tempfile.TemporaryDirectory() as tmp:
        for backend in REPORTS:
            doc = corpus_report(backend, tmp)
            (PINS / f"corpus-{backend}.json").write_text(json.dumps(doc, indent=1) + "\n")
    words = fuzz_words()
    print("FUZZ_WORDS = {")
    for name, n in words.items():
        print(f'    "{name}": {n},')
    print("}")
