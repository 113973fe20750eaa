"""Command-line behaviour: exit codes, config precedence, the report schema,
history bookkeeping, and deterministic replay."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tricheck.cli import main, read_config_file, update_history, UsageError
from tricheck.harness import PropertyRegistry
from tricheck.strategies import int_range, tuple_of


@pytest.fixture()
def passing_registry():
    reg = PropertyRegistry()
    reg.register("add.commutes", tuple_of(int_range(0, 30), int_range(0, 30)),
                 lambda a, b: a + b == b + a, tags=("algebra",))
    reg.register("square.nonneg", int_range(-20, 20), lambda x: x * x >= 0)
    return reg


@pytest.fixture()
def mixed_registry():
    reg = PropertyRegistry()
    reg.register("ok.add", int_range(0, 30), lambda x: x + 0 == x)
    reg.register("bad.threshold", int_range(0, 1000), lambda x: x < 500)
    reg.register("stuck.filtered", int_range(0, 9).filter("none", lambda x: False),
                 lambda x: True)
    return reg


# --------------------------------------------------------------------------
# exit codes

def test_all_green_exits_zero(passing_registry, capsys):
    code = main(["run", "--backend", "exhaustive"], registry=passing_registry)
    assert code == 0
    out = capsys.readouterr().out
    assert "add.commutes: proved (exhaustive, 961 cases)" in out
    assert "totals: passed=0 proved=2 falsified=0 unknown=0 waived=0" in out


def test_falsification_exits_one(mixed_registry, capsys):
    code = main(["run", "--backend", "exhaustive", "--filter", "bad.*"],
                registry=mixed_registry)
    assert code == 1
    out = capsys.readouterr().out
    assert "bad.threshold: falsified shrunk=500" in out


def test_unknown_is_green_unless_strict(mixed_registry):
    base = ["run", "--backend", "fuzz", "--filter", "stuck.*"]
    assert main(base, registry=mixed_registry) == 0
    assert main(base + ["--strict"], registry=mixed_registry) == 2


def test_a_run_that_selects_no_property_is_a_usage_error(mixed_registry, tmp_path, capsys):
    """A mistyped filter must not read as a green run: exit 3, no report and
    no history line.  ``list`` still prints nothing and exits 0."""
    report, history = tmp_path / "r.json", tmp_path / "h.jsonl"
    code = main(["run", "--backend", "fuzz", "--filter", "bad.thresholdd*", "--strict",
                 "--report", str(report), "--history", str(history)], registry=mixed_registry)
    assert code == 3
    assert "error: --filter 'bad.thresholdd*' selects no property" in capsys.readouterr().err
    assert not report.exists() and not history.exists()
    assert main(["run"], registry=PropertyRegistry()) == 3
    assert "error: no property registered" in capsys.readouterr().err
    assert main(["list", "--filter", "bad.thresholdd*"], registry=mixed_registry) == 0
    assert capsys.readouterr().out == ""


class _Ambiguous:
    def __bool__(self):
        raise ValueError("the truth of this result is ambiguous")


@pytest.mark.parametrize("backend", ["fuzz", "exhaustive"])
def test_a_result_whose_truth_test_raises_is_a_counterexample(backend, capsys):
    """The truth test of a predicate's result is part of the predicate: when
    it raises, that is a failure like any other abort, and the run goes on
    to report every property."""
    reg = PropertyRegistry()
    reg.register("ambiguous", int_range(0, 9), lambda x: _Ambiguous())
    reg.register("fine", int_range(0, 9), lambda x: x >= 0)
    assert main(["run", "--backend", backend], registry=reg) == 1
    out = capsys.readouterr().out
    assert "ambiguous: falsified shrunk=0" in out
    assert "msg=ValueError: the truth of this result is ambiguous" in out
    assert "fine: p" in out  # passed or proved


def test_usage_errors_exit_three(tmp_path, passing_registry, capsys):
    bad = tmp_path / "cfg.json"
    bad.write_text('{"casez": 5}')
    code = main(["run", "--config", str(bad)], registry=passing_registry)
    assert code == 3
    assert "unknown key: casez" in capsys.readouterr().err

    assert main(["run", "--backend", "warpdrive"], registry=passing_registry) == 3
    assert main(["replay", "--property", "no.such"], registry=passing_registry) == 3
    assert main(["run", "--cases", "0"], registry=passing_registry) == 3


WAIVER = {"glob": "*", "reason": "r", "expires": "2099-01-01"}


@pytest.mark.parametrize("files, flags, error", [
    ({}, ["--config", "."], "error: cannot read config ."),
    ({"c.json": "{"}, ["--config", "c.json"], "error: malformed JSON in c.json: "),
    ({"w.json": "["}, ["--waivers", "w.json"], "error: malformed JSON in w.json: "),
    ({"h.txt": "x = 1\n"}, ["h.txt"], "error: cannot import harness module: h.txt"),
    ({"h.py": "raise RuntimeError('boom')\n"}, ["h.py"], "error: error importing h.py: boom"),
    ({}, ["--waivers", "."], "error: cannot read waivers .: "),
    ({"w.json": "[1]"}, ["--waivers", "w.json"],
     "error: w.json: waiver entry must be an object, got int"),
    ({"w.json": json.dumps([{**WAIVER, "glob": 1}])}, ["--waivers", "w.json"],
     "error: w.json: waiver glob and reason must be strings"),
    ({}, ["--report", "."], "error: cannot write report .: "),
    ({}, ["--history", "."], "error: cannot write history .: "),
], ids=["unreadable_config", "config_json", "waiver_json", "harness_suffix", "harness_raises",
        "unreadable_waivers", "waiver_not_object", "waiver_glob", "report", "history"])
def test_a_file_that_cannot_be_used_exits_three(tmp_path, monkeypatch, capsys, passing_registry,
                                                files, flags, error):
    """Each file the CLI reads or writes that it cannot use is a usage error:
    exit 3 and one ``error:`` line naming it."""
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        Path(name).write_text(text)
    assert main(["run", *flags], registry=passing_registry) == 3
    assert capsys.readouterr().err.startswith(error)


def test_backend_disagreement_exits_three(monkeypatch, passing_registry, capsys):
    from tricheck.results import Counterexample, Verdict
    from tricheck.runner import InconsistentBackends

    def explode(registry, config, waivers=()):
        raise InconsistentBackends(
            "add.commutes", Verdict.proved("exhaustive", 1),
            Verdict.falsified(Counterexample(original=1, shrunk=1)))

    monkeypatch.setattr("tricheck.cli.run_suite", explode)
    code = main(["run"], registry=passing_registry)
    assert code == 3
    assert "backends disagree" in capsys.readouterr().err


def test_a_crash_during_a_check_exits_three(tmp_path, capsys):
    """A map that raises aborts the draw, not the predicate, so it is no
    counterexample; the run ends as a tool error, never as exit 1, the code
    of a falsification."""
    mod = tmp_path / "crashing.py"
    mod.write_text(
        "from tricheck import PropertyRegistry, int_range\n"
        "REGISTRY = PropertyRegistry()\n"
        "REGISTRY.register('a.fine', int_range(0, 9), lambda x: x >= 0)\n"
        "REGISTRY.register('b.map_raises', int_range(-3, 3).map(lambda a: 6 // a),\n"
        "                  lambda q: q != 100)\n"
        "REGISTRY.register('c.fine', int_range(0, 9), lambda x: x < 100)\n"
    )
    runs = [["run", str(mod), "--backend", b] for b in ("fuzz", "exhaustive", "ensemble")]
    runs.append(["replay", str(mod), "--backend", "fuzz", "--property", "b.map_raises"])
    for argv in runs:
        assert main(argv) == 3, argv
        err = capsys.readouterr().err
        assert "Traceback" in err and "error: ZeroDivisionError" in err, argv
        # the traceback quotes the harness file's source; the error line itself names it
        assert "b.map_raises" in err.splitlines()[-1], argv
    # symbolic runs the map over a carrier, and a map it cannot record is a verdict
    assert main(["run", str(mod), "--backend", "symbolic"]) == 0
    assert "b.map_raises: unknown: unsupported" in capsys.readouterr().out


@pytest.mark.parametrize("backend", ["symbolic", "ensemble"])
def test_a_twenty_field_harness_is_proved_and_reported(tmp_path, capsys, backend):
    """Twenty fields are one box of twenty variables: its search kernel
    compiles, where twenty nested loops would not."""
    mod = tmp_path / "wide.py"
    mod.write_text(
        "from tricheck import PropertyRegistry, int_range, tuple_of\n"
        "REGISTRY = PropertyRegistry()\n"
        "REGISTRY.register('wide.sum', tuple_of(*[int_range(0, 255)] * 20),\n"
        "                  lambda *fields: sum(fields) <= 5100)\n"
    )
    report = tmp_path / "r.json"
    assert main(["run", str(mod), "--backend", backend, "--report", str(report)]) == 0
    assert "wide.sum: proved (symbolic, 1 boxes)" in capsys.readouterr().out
    assert json.loads(report.read_text())["results"][0]["verdict"] == "proved"


# --------------------------------------------------------------------------
# config file handling

def test_flag_beats_config_file(tmp_path, passing_registry):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cases": 99, "seed": 5}))
    report_path = tmp_path / "report.json"
    code = main(["run", "--config", str(cfg), "--cases", "10",
                 "--report", str(report_path)], registry=passing_registry)
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["config"]["cases"] == 10   # flag wins
    assert report["config"]["seed"] == 5     # file fills the gap


def test_config_file_types_are_checked(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cases": "many"}))
    with pytest.raises(UsageError, match="must be int"):
        read_config_file(str(cfg))
    cfg.write_text(json.dumps({"seed": True}))
    with pytest.raises(UsageError, match="must be an integer"):
        read_config_file(str(cfg))
    cfg.write_text(json.dumps({"strict": 1}))
    with pytest.raises(UsageError, match="must be bool"):
        read_config_file(str(cfg))
    cfg.write_text("[1, 2]")
    with pytest.raises(UsageError, match="must be a JSON object"):
        read_config_file(str(cfg))


def test_a_reports_config_block_is_a_valid_config_file(tmp_path, passing_registry):
    report_path = tmp_path / "report.json"
    assert main(["run", "--seed", "3", "--report", str(report_path)],
                registry=passing_registry) == 0
    written = json.loads(report_path.read_text())["config"]
    assert written["filter"] is None  # no --filter
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(written))
    assert main(["run", "--config", str(cfg), "--report", str(report_path)],
                registry=passing_registry) == 0
    assert json.loads(report_path.read_text())["config"] == written


def test_report_history_strict_can_come_from_the_file(tmp_path, mixed_registry):
    report_path = tmp_path / "r.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "backend": "fuzz", "filter": "stuck.*", "strict": True,
        "report": str(report_path),
    }))
    code = main(["run", "--config", str(cfg)], registry=mixed_registry)
    assert code == 2  # strict from the file
    assert report_path.is_file()


# --------------------------------------------------------------------------
# the report document

def test_report_schema_is_fixed(tmp_path, mixed_registry):
    report_path = tmp_path / "report.json"
    main(["run", "--backend", "exhaustive", "--report", str(report_path)],
         registry=mixed_registry)
    doc = json.loads(report_path.read_text())

    assert list(doc) == ["version", "run_id", "timestamp", "config", "results",
                         "totals", "stale_waivers", "unused_waivers"]
    assert doc["version"] == 1
    assert list(doc["config"]) == ["backend", "seed", "cases", "budget",
                                   "timeout_ms", "repetition_cap", "filter",
                                   "code_fingerprint"]
    names = [r["name"] for r in doc["results"]]
    assert names == sorted(names)

    by_name = {r["name"]: r for r in doc["results"]}
    bad = by_name["bad.threshold"]
    assert bad["verdict"] == "falsified"
    assert bad["counterexample"] == {
        "original": "500", "shrunk": "500", "seed": None, "case_index": 500,
    }
    ok = by_name["ok.add"]
    assert ok["verdict"] == "proved"
    assert "counterexample" not in ok
    assert ok["waived"] is False
    assert ok["vacuity_warning"] is False
    stuck = by_name["stuck.filtered"]
    assert stuck["verdict"] == "proved"  # the empty refinement enumerates fully
    assert stuck["cases"] == 0
    assert stuck["vacuity_warning"] is True

    assert doc["totals"] == {"passed": 0, "proved": 2, "falsified": 1,
                             "unknown": 0, "waived": 0}


def test_counterexample_values_are_reprs(tmp_path):
    reg = PropertyRegistry()
    reg.register("pair.small", tuple_of(int_range(0, 5), int_range(0, 5)),
                 lambda a, b: a + b < 10)
    report_path = tmp_path / "report.json"
    main(["run", "--backend", "exhaustive", "--report", str(report_path)],
         registry=reg)
    doc = json.loads(report_path.read_text())
    cex = doc["results"][0]["counterexample"]
    assert cex["original"] == "(4, 6)" or cex["original"] == "(5, 5)"
    # repr strings survive JSON round-trips without losing the Python shape
    assert eval(cex["shrunk"]) == (5, 5)


def test_reports_differ_only_in_identity_fields(tmp_path, passing_registry):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["run", "--backend", "exhaustive", "--seed", "3"]
    main(argv + ["--report", str(p1)], registry=passing_registry)
    main(argv + ["--report", str(p2)], registry=passing_registry)
    a = json.loads(p1.read_text())
    b = json.loads(p2.read_text())
    for doc in (a, b):
        doc["run_id"] = doc["timestamp"] = None
        for r in doc["results"]:
            r["duration_ms"] = None
    assert a == b


# --------------------------------------------------------------------------
# waivers through the CLI

def test_waived_falsification_exits_zero(tmp_path, mixed_registry, capsys):
    waivers = tmp_path / "waivers.json"
    waivers.write_text(json.dumps([
        {"glob": "bad.*", "reason": "tracked regression", "expires": "2999-01-01"},
    ]))
    code = main(["run", "--backend", "exhaustive", "--waivers", str(waivers),
                 "--strict"], registry=mixed_registry)
    assert code == 0
    out = capsys.readouterr().out
    assert "[waived: tracked regression]" in out
    assert "waived=1" in out


def test_stale_and_unused_waivers_are_reported(tmp_path, mixed_registry, capsys):
    waivers = tmp_path / "waivers.json"
    waivers.write_text(json.dumps([
        {"glob": "bad.*", "reason": "expired long ago", "expires": "2001-01-01"},
        {"glob": "ok.*", "reason": "matches only passes", "expires": "2999-01-01"},
    ]))
    report_path = tmp_path / "r.json"
    code = main(["run", "--backend", "exhaustive", "--waivers", str(waivers),
                 "--report", str(report_path)], registry=mixed_registry)
    assert code == 1  # the stale waiver no longer suppresses bad.threshold
    out = capsys.readouterr().out
    assert "stale waivers: bad.*" in out
    assert "unused waivers: ok.*" in out
    doc = json.loads(report_path.read_text())
    assert doc["stale_waivers"] == ["bad.*"]
    assert doc["unused_waivers"] == ["ok.*"]


def test_waiver_file_must_be_a_list(tmp_path, passing_registry, capsys):
    waivers = tmp_path / "waivers.json"
    waivers.write_text(json.dumps({"glob": "*"}))
    code = main(["run", "--waivers", str(waivers)], registry=passing_registry)
    assert code == 3
    assert "must be a JSON list" in capsys.readouterr().err


# --------------------------------------------------------------------------
# history and flakiness

def flipping_registry():
    state = {"runs": 0}

    def predicate(x):
        return state["runs"] < 1  # true on the first run, false afterwards

    reg = PropertyRegistry()
    reg.register("flip.flop", int_range(0, 10), predicate)
    return reg, state


def test_flaky_property_is_flagged_across_runs(tmp_path, capsys):
    reg, state = flipping_registry()
    hist = tmp_path / "history.jsonl"
    argv = ["run", "--backend", "exhaustive", "--history", str(hist)]

    assert main(argv, registry=reg) == 0
    state["runs"] += 1
    assert main(argv, registry=reg) == 1
    out = capsys.readouterr().out
    assert "flaky: flip.flop" in out

    lines = [json.loads(l) for l in hist.read_text().splitlines()]
    assert len(lines) == 2
    assert {l["verdict"] for l in lines} == {"proved", "falsified"}
    assert len({l["run_id"] for l in lines}) == 2
    for l in lines:
        assert list(l) == ["run_id", "timestamp", "code_fingerprint",
                           "config_hash", "property", "backend", "verdict",
                           "duration_ms"]


def test_config_change_unflags_flakiness(tmp_path, capsys):
    reg, state = flipping_registry()
    hist = tmp_path / "history.jsonl"
    assert main(["run", "--backend", "exhaustive", "--seed", "1",
                 "--history", str(hist)], registry=reg) == 0
    state["runs"] += 1
    main(["run", "--backend", "exhaustive", "--seed", "2",
          "--history", str(hist)], registry=reg)
    out = capsys.readouterr().out
    assert "flaky" not in out  # different config hash: runs are not comparable


def test_identical_rerun_is_not_flaky(tmp_path, passing_registry, capsys):
    hist = tmp_path / "history.jsonl"
    argv = ["run", "--backend", "exhaustive", "--history", str(hist)]
    main(argv, registry=passing_registry)
    main(argv, registry=passing_registry)
    assert "flaky" not in capsys.readouterr().out


def test_corrupt_history_lines_are_skipped_with_a_warning(tmp_path, capsys,
                                                          passing_registry):
    hist = tmp_path / "history.jsonl"
    hist.write_text('not json at all\n{"run_id": "x"}\n')
    argv = ["run", "--backend", "exhaustive", "--history", str(hist)]
    assert main(argv, registry=passing_registry) == 0
    err = capsys.readouterr().err
    assert "history.jsonl:1: skipping corrupt history line" in err
    assert "history.jsonl:2: skipping corrupt history line" in err


def test_history_lines_with_mistyped_fields_are_skipped(tmp_path, capsys, passing_registry):
    """Lines from this very code and config whose property, verdict or
    run id is not a string are corrupt too: the flaky check skips them with
    a warning instead of crashing on an unhashable value."""
    hist = tmp_path / "history.jsonl"
    argv = ["run", "--backend", "exhaustive", "--history", str(hist)]
    assert main(argv, registry=passing_registry) == 0
    first = json.loads(hist.read_text().splitlines()[0])
    with hist.open("a") as fh:
        for key in ("property", "verdict", "run_id"):
            fh.write(json.dumps({**first, key: ["x"]}) + "\n")
    capsys.readouterr()
    assert main(argv, registry=passing_registry) == 0
    err = capsys.readouterr().err
    for lineno in (3, 4, 5):
        assert f"history.jsonl:{lineno}: skipping corrupt history line" in err


def test_history_subcommand_prints_and_filters(tmp_path, passing_registry, capsys):
    hist = tmp_path / "history.jsonl"
    main(["run", "--backend", "exhaustive", "--history", str(hist)],
         registry=passing_registry)
    capsys.readouterr()

    assert main(["history", "--history", str(hist)]) == 0
    out = capsys.readouterr().out
    assert "add.commutes" in out and "square.nonneg" in out

    assert main(["history", "--history", str(hist), "--property", "add.*"]) == 0
    out = capsys.readouterr().out
    assert "add.commutes" in out and "square.nonneg" not in out

    assert main(["history", "--history", str(hist), "--property", "zzz*"]) == 0
    assert "(no matching history records)" in capsys.readouterr().out


def test_missing_history_file_is_a_usage_error(capsys):
    assert main(["history", "--history", "/nonexistent/h.jsonl"]) == 3
    assert "cannot read history" in capsys.readouterr().err


# --------------------------------------------------------------------------
# replay

def test_replay_is_byte_identical(mixed_registry, capsys):
    argv = ["replay", "--property", "bad.threshold", "--backend", "fuzz",
            "--seed", "42"]
    assert main(argv, registry=mixed_registry) == 1
    first = capsys.readouterr().out
    assert main(argv, registry=mixed_registry) == 1
    second = capsys.readouterr().out
    assert first == second
    assert first.splitlines()[-1] == "shrunk=500"


def test_replay_of_a_passing_property_exits_zero(passing_registry, capsys):
    argv = ["replay", "--property", "square.nonneg", "--backend", "exhaustive"]
    assert main(argv, registry=passing_registry) == 0
    assert "proved (exhaustive, 41 cases)" in capsys.readouterr().out


def test_replay_reads_the_config_file_of_the_run(tmp_path, capsys):
    # repetition_cap has no flag, so only the file can reproduce this run
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"repetition_cap": 1, "backend": "exhaustive"}')
    assert main(["run", "--config", str(cfg), "--filter", "pattern.word"]) == 0
    ran = capsys.readouterr().out.splitlines()[0]
    assert ran.startswith("pattern.word: proved (exhaustive, 1 cases)")
    assert main(["replay", "--config", str(cfg), "--property", "pattern.word"]) == 0
    assert capsys.readouterr().out.splitlines() == [ran]


def test_replay_of_an_ensemble_config_is_a_usage_error(tmp_path, passing_registry, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"backend": "ensemble"}')
    argv = ["replay", "--config", str(cfg), "--property", "square.nonneg"]
    assert main(argv, registry=passing_registry) == 3
    assert "ensemble" in capsys.readouterr().err
    assert main(["replay", "--backend", "ensemble", "--property", "square.nonneg"],
                registry=passing_registry) == 3


# --------------------------------------------------------------------------
# list and module loading

def test_list_is_sorted_and_shows_tags(passing_registry, capsys):
    assert main(["list"], registry=passing_registry) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["add.commutes  [algebra]", "square.nonneg"]


def test_registry_loads_from_a_module_file(tmp_path, capsys):
    mod = tmp_path / "harnesses.py"
    mod.write_text(
        "from tricheck import PropertyRegistry, int_range\n"
        "REGISTRY = PropertyRegistry()\n"
        "REGISTRY.register('local.inc', int_range(0, 9), lambda x: x + 1 > x)\n"
    )
    assert main(["list", str(mod)]) == 0
    assert capsys.readouterr().out.strip() == "local.inc"
    assert main(["run", str(mod), "--backend", "exhaustive"]) == 0
    assert "local.inc: proved (exhaustive, 10 cases)" in capsys.readouterr().out


def test_module_without_registry_is_a_usage_error(tmp_path, capsys):
    mod = tmp_path / "empty.py"
    mod.write_text("x = 1\n")
    assert main(["run", str(mod)]) == 3
    assert "must define REGISTRY" in capsys.readouterr().err
    assert main(["run", str(tmp_path / "missing.py")]) == 3


def test_update_history_appends_without_clobbering(tmp_path, passing_registry):
    hist = tmp_path / "h.jsonl"
    argv = ["run", "--backend", "exhaustive", "--history", str(hist)]
    main(argv, registry=passing_registry)
    n1 = len(hist.read_text().splitlines())
    main(argv, registry=passing_registry)
    n2 = len(hist.read_text().splitlines())
    assert (n1, n2) == (2, 4)


# --------------------------------------------------------------------------
# the entry points a shell runs

def test_python_dash_m_runs_the_console_entry_point(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))

    def tricheck(*argv):
        return subprocess.run([sys.executable, "-m", "tricheck", *argv], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=120)

    ran = tricheck("run", "--backend", "symbolic", "--filter", "multiply*")
    assert ran.returncode == 1, ran.stderr[-2000:]
    assert "multiply.strict: falsified shrunk=(1000, 1000)" in ran.stdout
    listed = tricheck("list", "--filter", "map.*")
    assert listed.returncode == 0, listed.stderr[-2000:]
    assert [line.split()[0] for line in listed.stdout.splitlines()] == [
        "map.keys_sorted", "map.size"]
