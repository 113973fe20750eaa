"""tricheck benchmark: how fast the three checking backends reach verdicts,
end to end and per layer.

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports tricheck from ``src/`` and
nothing else.  Workloads (see ``workloads.py``): ``corpus``, ``containers``,
``arith``, or ``all`` for the three in turn.  Every pass goes through the
public CLI, ``tricheck.cli.main(["run", ...])``, and every verdict is
checked against the workload's independent answers.

``--trace 0`` repeats whole passes until ``--seconds`` have passed and
prints the end-to-end metrics (see ``METRICS.md``).  ``--trace 1`` makes one
untraced and one traced pass, then the per-unit micro-measurements, and
prints the per-layer metrics; it writes the spans to
``.bench_out/trace-<workload>-<seed>.json``.
The last line of output is one JSON object: correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BENCH_MODULES = ("workloads", "oracle", "tracing", "micro")
SETUP_REPS = 7

_now = time.perf_counter


def _fresh_import(workload: str, seed: int):
    """Import tricheck and the benchmark's modules from scratch and build
    the workload: import, harness generation, pattern compilation and the
    oracle's answers.  Returns (workload, modules)."""
    for name in list(sys.modules):
        if name == "tricheck" or name.startswith("tricheck.") or name in BENCH_MODULES:
            del sys.modules[name]
    importlib.import_module("tricheck")
    mods = {name: importlib.import_module(name) for name in BENCH_MODULES}
    wl = mods["workloads"].GENERATORS[workload](seed)
    for h in wl.harnesses:  # compiles patterns and validates every domain
        h.strategy.cardinality()
    return wl, mods


def setup(workload: str, seed: int):
    """Set up ``SETUP_REPS`` times; the last set-up is the one used."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = _now()
        wl, mods = _fresh_import(workload, seed)
        times.append(_now() - t0)
    return wl, mods, statistics.median(times)


def run_pass(wl, mods, backend: str, seed: int):
    """One ``tricheck run`` over the workload; returns (seconds, tally)."""
    from tricheck import cli
    OUT.mkdir(exist_ok=True)
    report_path = OUT / f"report-{wl.name}-{backend}.json"
    report_path.unlink(missing_ok=True)
    argv = ["run", "--backend", backend, "--seed", str(seed),
            "--cases", str(wl.cases), "--report", str(report_path)]
    sink = io.StringIO()
    crash = None
    t0 = _now()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(argv, registry=wl.registry)
    except Exception as exc:  # noqa: BLE001 - a crash is a failed check
        rc, crash = None, f"{type(exc).__name__}: {exc}"
    seconds = _now() - t0
    if rc == 3:
        crash = sink.getvalue().strip().splitlines()[-1]
    report = json.loads(report_path.read_text()) if crash is None and report_path.exists() else None
    tally = mods["oracle"].check_pass(backend, rc, report, wl.by_name(), crash)
    return seconds, tally


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: list) -> None:
        self.a, self.b = a, b


def reference_s() -> float:
    """Seconds for a fixed loop of the operations tricheck's own loops are
    made of: small slotted objects, lists, tuples, dict stores.  Timed around
    each backend pass, it reads the machine's speed at that moment."""
    t0 = _now()
    d = {}
    for i in range(30_000):
        p = _Pair(i, [i, i + 1])
        d[i & 255] = (p, p.b[0] + p.a)
    return _now() - t0


def run_all(wl, mods, backends, seed: int):
    """One pass per backend, each between two readings of the reference
    loop; returns ({backend: seconds}, {backend: ratio}, {backend: tally})."""
    times, ratios, tallies = {}, {}, {}
    for backend in backends:
        before = reference_s()
        times[backend], tallies[backend] = run_pass(wl, mods, backend, seed)
        ratios[backend] = 2 * times[backend] / (before + reference_s())
    return times, ratios, tallies


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# --------------------------------------------------------------------------
# untraced: end-to-end metrics

def measure(workload: str, seed: int, seconds: float) -> dict:
    """Whole passes until ``seconds`` have passed.

    On a shared machine other tenants' load changes how fast this process
    runs by tens of percent, for seconds at a time.  So each backend pass is
    divided by the reference loop timed just before and after it, and
    ``pass_ref`` adds up each backend's median of those ratios.  Wall-time
    medians are printed alongside."""
    wl, mods, setup_s = setup(workload, seed)
    total = mods["oracle"].Tally()
    wall: dict[str, list[float]] = {b: [] for b in wl.backends}
    ratio: dict[str, list[float]] = {b: [] for b in wl.backends}
    decided = []
    t_start = _now()
    while not decided or _now() - t_start < seconds:
        times, ratios, tallies = run_all(wl, mods, wl.backends, seed)
        for b in wl.backends:
            wall[b].append(times[b])
            ratio[b].append(ratios[b])
            total.add(tallies[b])
        decided.append(sum(t.decided for t in tallies.values()))
    metrics = {
        "pass_ref": (sum(statistics.median(v) for v in ratio.values()), "ref"),
        "decided": (statistics.median(decided), "count"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    info = {f"{b}_s": statistics.median(v) for b, v in wall.items()}
    info.update(pass_s=sum(info.values()), passes=len(decided),
                non_minimal=total.non_minimal // len(decided))
    return _result(wl.name, total, metrics, info)


# --------------------------------------------------------------------------
# traced: per-layer metrics

def traced_pass(wl, mods, seed: int):
    """One pass of every backend with tracing on; returns (tracer,
    {backend: seconds}, {backend: tally})."""
    tracer = mods["tracing"].Tracer()
    times, tallies = {}, {}
    with tracer.installed():
        for backend in mods["workloads"].BACKENDS:
            tracer.phase = backend
            with tracer.span("cli.main", backend=backend):
                times[backend], tallies[backend] = run_pass(wl, mods, backend, seed)
    return tracer, times, tallies


def measure_traced(workload: str, seed: int) -> dict:
    wl, mods, setup_s = setup(workload, seed)
    micro, tracing, workloads = mods["micro"], mods["tracing"], mods["workloads"]
    # every backend makes a pass here, so each layer is measured on every
    # workload, including those its end-to-end passes leave out
    backends, standalone = workloads.BACKENDS, workloads.STANDALONE

    total = mods["oracle"].Tally()
    plain_times, ratios, tallies = run_all(wl, mods, backends, seed)
    for t in tallies.values():
        total.add(t)
    tracer, traced_times, traced_tallies = traced_pass(wl, mods, seed)
    for t in traced_tallies.values():
        total.add(t)
    tracer.write(str(OUT / f"trace-{wl.name}-{seed}.json"))

    # draws made by the standalone fuzz pass, from its report
    draws = 0
    for r in json.loads((OUT / f"report-{wl.name}-fuzz.json").read_text())["results"]:
        cex = r.get("counterexample")
        draws += cex["case_index"] + 1 if cex else (r.get("cases") or 0)

    self_s = tracer.self_times()
    races = tracer.ensemble_races()
    standalone_spans = {(s.name, s.attrs.get("prop")): s.t1 - s.t0 for s in tracer.spans
                        if s.name.startswith("backend.") and s.parent is not None
                        and tracer.spans[s.parent - 1].name == "cli.main"}
    winners_alone = sum(standalone_spans.get((w.name, w.attrs["prop"]), 0.0) for _, w, _ in races)
    ensemble_s = sum(e.t1 - e.t0 for e, _, _ in races)
    patterns = wl.patterns or workloads.corpus(seed).patterns
    values_per_s, floor_ratio = micro.exhaustive_costs(wl.harnesses)
    count = lambda name: tracer.counter(name, standalone)  # noqa: E731

    m = {
        "prng.u64": (count("prng.u64"), "count"),
        "strategies.draws": (draws, "count"),
        "strategies.draw_us": (micro.draw_us(wl.harnesses, seed), "us"),
        "strategies.filter_rejections": (count("strategies.filter_rejections"), "count"),
        "strategies.enum_values_per_s": (micro.enum_values_per_s(wl.harnesses), "1/s"),
        "strategies.self_s": (self_s.get("strategies", 0.0), "s"),
        "patterns.compile_s": (micro.pattern_compile_s(patterns), "s"),
        "harness.evals": (count("harness.evals"), "count"),
        "harness.eval_overhead_ns": (micro.eval_overhead_ns(wl.harnesses), "ns"),
        "harness.self_s": (self_s.get("harness", 0.0), "s"),
        "exhaustive.values": (count("exhaustive.values"), "count"),
        "exhaustive.values_per_s": (values_per_s, "1/s"),
        "exhaustive.floor_ratio": (floor_ratio, "ratio"),
        "exhaustive.self_s": (self_s.get("exhaustive", 0.0), "s"),
        "fuzz.shrinks": (count("fuzz.shrinks"), "count"),
        "fuzz.shrink_evals": (count("fuzz.shrink_evals"), "count"),
        "fuzz.shrink_s": (self_s.get("fuzz.shrink", 0.0), "s"),
        "fuzz.self_s": (self_s.get("fuzz", 0.0), "s"),
        "non_minimal": (sum(t.non_minimal for t in tallies.values()), "count"),
        "symbolic.boxes": (count("symbolic.boxes"), "count"),
        "symbolic.splits": (count("symbolic.splits"), "count"),
        "symbolic.truth_evals": (count("symbolic.truth_evals"), "count"),
        "symbolic.us_per_box": (micro.us_per_box(wl.harnesses), "us"),
        "symbolic.symbolize_s": (micro.symbolize_s(wl.harnesses), "s"),
        "symbolic.self_s": (self_s.get("symbolic", 0.0), "s"),
        "runner.ensemble_over_winner": (ensemble_s / winners_alone if winners_alone else 0.0,
                                        "ratio"),
        "runner.loser_stop_ms": (statistics.median(last - w.t1 for _, w, last in races) * 1e3
                                 if races else 0.0, "ms"),
        "runner.self_s": (self_s.get("runner", 0.0), "s"),
        "cli.report_s": (self_s.get("cli.report", 0.0), "s"),
        "cli.self_s": (self_s.get("cli", 0.0), "s"),
        "trace.overhead_s": (sum(traced_times.values()) - sum(plain_times.values()), "s"),
    }
    # the end-to-end metrics once, from the untraced pass
    info = {"pass_ref": sum(ratios[b] for b in wl.backends),
            "pass_s": sum(plain_times[b] for b in wl.backends),
            "decided": sum(tallies[b].decided for b in wl.backends),
            "setup_s": setup_s, "peak_rss_mb": peak_rss_mb(),
            **{f"{b}_s": plain_times[b] for b in backends},
            "traced_pass_s": sum(traced_times.values())}
    return _result(wl.name, total, m, info)


# --------------------------------------------------------------------------
# output

def _result(name: str, tally, metrics: dict, info: dict) -> dict:
    return {"workload": name, "tally": tally, "metrics": metrics, "info": info}


def _print_row(res: dict) -> None:
    tally = res["tally"]
    parts = [f"{k}={v:.6g} {unit}" for k, (v, unit) in res["metrics"].items()]
    parts += [f"{k}={v:.6g}" for k, v in res["info"].items()]
    print(f"[{res['workload']}] attempted={tally.attempted} failed={tally.failed} "
          + "  ".join(parts))
    for problem in tally.problems[:20]:
        print(f"[{res['workload']}] FAILED CHECK: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["corpus", "containers", "arith", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    seed = args.seed % (1 << 64)

    sys.path.insert(0, str(SRC))
    try:
        tricheck = importlib.import_module("tricheck")
    except ImportError as exc:
        print(f"error: cannot import tricheck from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(tricheck.__file__).resolve().parent.parent != SRC:
        print(f"error: tricheck comes from {tricheck.__file__}, not {SRC}", file=sys.stderr)
        return 2

    names = ["corpus", "containers", "arith"] if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        res = measure_traced(name, seed) if args.trace else measure(name, seed, args.seconds)
        _print_row(res)
        results.append(res)

    attempted = sum(r["tally"].attempted for r in results)
    failed = sum(r["tally"].failed for r in results)
    prefix = len(results) > 1
    metrics = {(f"{r['workload']}.{k}" if prefix else k): {"value": v, "unit": unit}
               for r in results for k, (v, unit) in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
