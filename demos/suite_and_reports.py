"""
Suites, reports, history, waivers
=================================

Day-to-day use goes through the suite runner: check every registered
property, write a machine-readable report, append one history line per
result, and suppress known failures with expiring waivers.  This script
drives the same code paths the command line uses.
"""

import datetime as dt
import json
import pathlib
import tempfile

from tricheck.cli import main, update_history
from tricheck.harness import Property, PropertyRegistry, RunConfig
from tricheck.runner import Waiver, apply_waivers, run_suite
from tricheck.strategies import int_range

registry = PropertyRegistry()
registry.register("demo.square", int_range(-50, 50), lambda x: x * x >= 0)
registry.register("demo.short", int_range(0, 10_000), lambda x: x < 9_000)

# run_suite checks every property under one configuration and returns a
# report with a fresh run id and timestamp.
config = RunConfig(backend="exhaustive", seed=1, cases=128)
report = run_suite(registry, config)
for result in report.results:
    print(f"{result.name:12s} {result.verdict.describe()}")
print("totals:", report.totals())

# A waiver is a named suppression with a reason and an expiry date; it
# marks matching non-passing results as waived without changing verdicts.
expires = dt.date.today() + dt.timedelta(days=30)
waivers = [Waiver("demo.short", "tracked regression", expires)]
apply_waivers(report, waivers)
waived = [r.name for r in report.results if r.waived]
print("waived:", waived, "->", report.totals())

# History is JSON-lines, one record per (property, run).  A property whose
# verdict kind changes across runs of identical code and configuration is
# flagged as flaky.
with tempfile.TemporaryDirectory() as tmp:
    history = pathlib.Path(tmp) / "history.jsonl"
    update_history(str(history), run_suite(registry, config))
    flaky = update_history(str(history), run_suite(registry, config))
    lines = history.read_text().splitlines()
    print()
    print("history lines:", len(lines), "flaky:", flaky or "none")
    print("sample:", json.dumps(json.loads(lines[0])["verdict"]))

    # The CLI wraps all of the above.  Registries can also be loaded from a
    # module file; here we pass ours in directly.
    report_path = pathlib.Path(tmp) / "report.json"
    print()
    print("--- CLI run ---")
    code = main(["run", "--backend", "exhaustive", "--report", str(report_path)],
                registry=registry)
    print("exit code:", code, "(1: an unwaived falsification)")
    doc = json.loads(report_path.read_text())
    print("report keys:", list(doc))
