"""Pinned fuzz-path outputs: seeded draws and normalized corpus reports.

The differential enumeration tests never see a tree built by a random draw,
so these pins hold the fuzz path still across refactors of the tree classes:
every combinator's draw at seeds 0-19 (value and first-level shrink
candidates), and the built-in corpus report under ``--backend fuzz`` and
``--backend exhaustive`` with run id, timestamp and durations blanked.

The expected values live in ``tests/pins/``.  After a change that is meant
to alter them, regenerate with ``PYTHONPATH=src python tests/test_pins.py``
and review the diff.
"""

import json
import pathlib

import pytest

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


@pytest.mark.parametrize("name", sorted(DRAWN))
def test_seeded_draws_are_pinned(name):
    assert drawn(name) == json.loads((PINS / "draws.json").read_text())[name]


@pytest.mark.parametrize("backend", REPORTS)
def test_corpus_report_is_pinned(backend, tmp_path, capsys):
    expected = json.loads((PINS / f"corpus-{backend}.json").read_text())
    assert corpus_report(backend, tmp_path) == expected


if __name__ == "__main__":
    import tempfile

    PINS.mkdir(exist_ok=True)
    (PINS / "draws.json").write_text(
        json.dumps({name: drawn(name) for name in sorted(DRAWN)}, indent=1) + "\n")
    with tempfile.TemporaryDirectory() as tmp:
        for backend in REPORTS:
            doc = corpus_report(backend, tmp)
            (PINS / f"corpus-{backend}.json").write_text(json.dumps(doc, indent=1) + "\n")
