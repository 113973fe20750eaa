"""Command-line front end.

Deliberately small: four subcommands (``run``, ``list``, ``replay``,
``history``), a handful of flags with strong defaults, and everything else in
a committable JSON config file.  Reports are a single JSON document with a
fixed key set; history is append-only JSON lines so that runs can be diffed
and tracked over time.

Exit codes: 0 — everything passed, proved, or was waived; 1 — at least one
unwaived falsification; 2 — only with --strict, when unwaived Unknowns
remain; 3 — usage or configuration errors, backend disagreement, and any
exception that escapes a subcommand (a crash in the tool or in a strategy is
not a harness verdict).
"""

from __future__ import annotations

import argparse
import dataclasses
import fnmatch
import importlib.util
import json
import sys
from pathlib import Path
from typing import Any

from .corpus import build_registry
from .harness import PropertyRegistry, RunConfig
from .patterns import DEFAULT_REPETITION_CAP
from .results import VerdictKind
from .runner import (
    InconsistentBackends,
    RunReport,
    Waiver,
    config_as_dict,
    config_hash,
    run_property,
    run_suite,
)

#: Config-file keys.  The flag spellings plus the two knobs that deliberately
#: have no flag (they belong in version control, not on the command line).
CONFIG_KEYS: dict[str, type] = {
    "backend": str,
    "seed": int,
    "cases": int,
    "budget": int,
    "timeout_ms": int,
    "filter": str,
    "report": str,
    "history": str,
    "waivers": str,
    "strict": bool,
    "repetition_cap": int,
    "code_fingerprint": str,
}


class UsageError(Exception):
    """Anything that should terminate with exit code 3."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(f"{message}\n{self.format_usage()}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tricheck",
                     description="Check property harnesses by fuzzing, "
                                 "exhaustive enumeration, or interval proof.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a suite and report verdicts")
    _add_run_arguments(run, ["fuzz", "exhaustive", "symbolic", "ensemble"])
    run.add_argument("--filter", default=None, help="glob over property names")
    run.add_argument("--report", default=None, help="write the JSON report here")
    run.add_argument("--history", default=None, help="append JSON-lines history here")
    run.add_argument("--waivers", default=None, help="JSON waiver file")
    run.add_argument("--strict", action="store_true", default=None,
                     help="exit 2 when unwaived Unknown verdicts remain")

    lst = sub.add_parser("list", help="list registered properties")
    lst.add_argument("module", nargs="?", default=None)
    lst.add_argument("--filter", default=None)

    replay = sub.add_parser("replay", help="re-run one property deterministically")
    _add_run_arguments(replay, ["fuzz", "exhaustive", "symbolic"])
    replay.add_argument("--property", required=True)

    hist = sub.add_parser("history", help="print recorded runs")
    hist.add_argument("--history", default="tricheck-history.jsonl")
    hist.add_argument("--property", default=None, help="glob over property names")

    return parser


def _add_run_arguments(parser: argparse.ArgumentParser, backends: list[str]) -> None:
    """The harness module, the config file and the run flags that ``run`` and
    ``replay`` share; each flag left out is None, so it overrides nothing."""
    parser.add_argument("module", nargs="?", default=None,
                        help="python file exposing REGISTRY (default: built-in corpus)")
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--backend", choices=backends, default=None)
    for flag in ("--seed", "--cases", "--budget", "--timeout-ms"):
        parser.add_argument(flag, type=int, default=None)


# --------------------------------------------------------------------------
# config and registry loading

def read_config_file(path: str) -> dict[str, Any]:
    """Validated raw key/value pairs from a JSON config file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"config {path} must be a JSON object")
    for key, value in data.items():
        if key not in CONFIG_KEYS:
            raise UsageError(f"{path}: unknown key: {key}")
        if key == "filter" and value is None:
            continue  # RunConfig's default, as a report's config block writes it
        want = CONFIG_KEYS[key]
        if want is int and isinstance(value, bool):
            raise UsageError(f"{path}: key {key} must be an integer")
        if not isinstance(value, want):
            raise UsageError(
                f"{path}: key {key} must be {want.__name__}, "
                f"got {type(value).__name__}")
    return data


def _settings(args: argparse.Namespace) -> tuple[RunConfig, dict[str, Any]]:
    """The run config and every setting: config-file values first, then the
    flags that were given; RunConfig's own defaults fill the rest."""
    values = read_config_file(args.config) if args.config else {}
    values.update((k, v) for k, v in vars(args).items()
                  if k in CONFIG_KEYS and v is not None)
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    try:
        config = RunConfig(**{k: v for k, v in values.items() if k in fields})
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return config, values


def load_registry(module_path: str | None, repetition_cap: int,
                  override: PropertyRegistry | None = None) -> PropertyRegistry:
    if override is not None and module_path is None:
        return override
    if module_path is None:
        return build_registry(repetition_cap)
    path = Path(module_path)
    if not path.is_file():
        raise UsageError(f"harness module not found: {module_path}")
    spec = importlib.util.spec_from_file_location(f"_tricheck_harness_{path.stem}", path)
    if spec is None or spec.loader is None:
        raise UsageError(f"cannot import harness module: {module_path}")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    except Exception as exc:
        raise UsageError(f"error importing {module_path}: {exc}") from exc
    registry = getattr(module, "REGISTRY", None)
    if not isinstance(registry, PropertyRegistry):
        raise UsageError(f"{module_path} must define REGISTRY as a PropertyRegistry")
    return registry


def load_waivers(path: str) -> list[Waiver]:
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise UsageError(f"cannot read waivers {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(data, list):
        raise UsageError(f"waiver file {path} must be a JSON list")
    try:
        return [Waiver.parse(obj) for obj in data]
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from exc


# --------------------------------------------------------------------------
# report serialization and history

def report_as_dict(report: RunReport) -> dict[str, Any]:
    """The fixed report schema; key order is part of the format."""
    results = []
    for r in report.results:
        v = r.verdict
        entry: dict[str, Any] = {
            "name": r.name,
            "backend": v.backend,
            "verdict": v.kind.value,
        }
        if v.reason is not None:
            entry["reason"] = v.reason.value
        if v.cases is not None:
            entry["cases"] = v.cases
        if v.counterexample is not None:
            cex = v.counterexample
            entry["counterexample"] = {
                "original": repr(cex.original),
                "shrunk": repr(cex.shrunk),
                "seed": cex.seed,
                "case_index": cex.case_index,
            }
        entry["duration_ms"] = v.duration_ms
        entry["waived"] = r.waived
        entry["vacuity_warning"] = v.vacuity_warning
        results.append(entry)
    return {
        "version": 1,
        "run_id": report.run_id,
        "timestamp": report.timestamp,
        "config": config_as_dict(report.config),
        "results": results,
        "totals": report.totals(),
        "stale_waivers": list(report.stale_waivers),
        "unused_waivers": list(report.unused_waivers),
    }


def write_report(report: RunReport, path: str) -> None:
    try:
        with open(path, "w") as fh:
            json.dump(report_as_dict(report), fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise UsageError(f"cannot write report {path}: {exc}") from exc


def update_history(path: str, report: RunReport) -> list[str]:
    """Append one line per result, then flag flaky properties: those whose
    verdict kind differs between runs that share this run's code fingerprint
    and config hash.  Corrupt lines are skipped with a warning."""
    fingerprint = report.config.code_fingerprint
    chash = config_hash(report.config)
    lines = []
    for r in report.results:
        lines.append(json.dumps({
            "run_id": report.run_id,
            "timestamp": report.timestamp,
            "code_fingerprint": fingerprint,
            "config_hash": chash,
            "property": r.name,
            "backend": r.verdict.backend,
            "verdict": r.verdict.kind.value,
            "duration_ms": r.verdict.duration_ms,
        }))
    try:
        with open(path, "a") as fh:
            for line in lines:
                fh.write(line + "\n")
    except OSError as exc:
        raise UsageError(f"cannot write history {path}: {exc}") from exc

    kinds_by_property: dict[str, set[str]] = {}
    runs_by_property: dict[str, set[str]] = {}
    for record in _read_history(path):
        if record.get("code_fingerprint") != fingerprint:
            continue
        if record.get("config_hash") != chash:
            continue
        name = record["property"]
        kinds_by_property.setdefault(name, set()).add(record["verdict"])
        runs_by_property.setdefault(name, set()).add(record["run_id"])
    return sorted(
        name for name, kinds in kinds_by_property.items()
        if len(kinds) > 1 and len(runs_by_property[name]) >= 2)


def _read_history(path: str):
    try:
        fh = open(path)
    except OSError as exc:
        raise UsageError(f"cannot read history {path}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                ok = all(isinstance(record[key], str) for key in ("property", "verdict", "run_id"))
            except (json.JSONDecodeError, TypeError, KeyError):
                ok = False
            if not ok:
                print(f"warning: {path}:{lineno}: skipping corrupt history line",
                      file=sys.stderr)
                continue
            yield record


# --------------------------------------------------------------------------
# subcommands

def _summarize(report: RunReport, flaky: list[str]) -> None:
    for r in report.results:
        line = f"{r.name}: {r.verdict.describe()}"
        if r.waived:
            line += f" [waived: {r.waiver_reason}]"
        print(line)
    totals = report.totals()
    print("totals: " + " ".join(f"{k}={v}" for k, v in totals.items()))
    if report.stale_waivers:
        print("stale waivers: " + ", ".join(report.stale_waivers))
    if report.unused_waivers:
        print("unused waivers: " + ", ".join(report.unused_waivers))
    if flaky:
        print("flaky: " + ", ".join(flaky))


def cmd_run(args: argparse.Namespace,
            registry_override: PropertyRegistry | None) -> int:
    config, settings = _settings(args)
    report_path = settings.get("report")
    history_path = settings.get("history")
    waivers_path = settings.get("waivers")

    registry = load_registry(args.module, config.repetition_cap, registry_override)
    waivers = load_waivers(waivers_path) if waivers_path else []

    try:
        report = run_suite(registry, config, waivers)
    except InconsistentBackends as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    if report_path:
        write_report(report, report_path)
    flaky = update_history(history_path, report) if history_path else []
    _summarize(report, flaky)

    if report.unwaived(VerdictKind.FALSIFIED):
        return 1
    if settings.get("strict") and report.unwaived(VerdictKind.UNKNOWN):
        return 2
    return 0


def cmd_list(args: argparse.Namespace,
             registry_override: PropertyRegistry | None) -> int:
    registry = load_registry(args.module, DEFAULT_REPETITION_CAP, registry_override)
    for prop in sorted(registry.select(args.filter)):
        if prop.tags:
            print(f"{prop.name}  [{', '.join(prop.tags)}]")
        else:
            print(prop.name)
    return 0


def cmd_replay(args: argparse.Namespace,
               registry_override: PropertyRegistry | None) -> int:
    config, _ = _settings(args)
    if config.backend == "ensemble":
        raise UsageError("replay runs one backend, not ensemble: "
                         "choose fuzz, exhaustive or symbolic")
    registry = load_registry(args.module, config.repetition_cap, registry_override)
    if args.property not in registry:
        raise UsageError(f"unknown property: {args.property}")
    prop = registry.get(args.property)
    verdict = run_property(prop, config)
    print(f"{prop.name}: {verdict.describe()}")
    if verdict.kind is VerdictKind.FALSIFIED:
        print(f"shrunk={verdict.counterexample.shrunk!r}")
        return 1
    return 0


def cmd_history(args: argparse.Namespace) -> int:
    shown = 0
    for record in _read_history(args.history):
        if args.property and not fnmatch.fnmatchcase(record["property"], args.property):
            continue
        print(f"{record.get('timestamp', '?')} {record['run_id']} "
              f"{record['property']} {record.get('backend', '?')} "
              f"{record['verdict']} {record.get('duration_ms', '?')}ms")
        shown += 1
    if shown == 0:
        print("(no matching history records)")
    return 0


def main(argv: list[str] | None = None, *,
         registry: PropertyRegistry | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        if args.command == "run":
            return cmd_run(args, registry)
        if args.command == "list":
            return cmd_list(args, registry)
        if args.command == "replay":
            return cmd_replay(args, registry)
        if args.command == "history":
            return cmd_history(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - a crash must not read as a verdict
        import traceback  # only a crash pays for the import
        traceback.print_exc()
        where = getattr(exc, "while_checking", None)
        print(f"error: {type(exc).__name__}: {exc}"
              + (f" (while checking {where})" if where else ""), file=sys.stderr)
        return 3
    raise AssertionError(f"unhandled subcommand {args.command!r}")


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
