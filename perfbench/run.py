"""adaswitch benchmark: one workload through ``adaswitch run``, in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Work files go under ``.bench_work/``.  The loop is closed: units
(one ``cli.main(["run", ...])`` call each) run back to back on one thread,
whole rounds at a time, up to the round boundary nearest ``--seconds``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` first replays
the workload's fixed traced rounds untraced, then again under the span
tracer, and prints the per-layer metrics, the tracing overhead and the layer
scaling slopes.  Every row of every report.csv is checked; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

PROCESS_START = time.perf_counter()

sys.path.insert(0, str(Path(__file__).resolve().parent))
import slopes  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Unit  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("cli", "harness", "switching", "framework", "oltq", "kserver", "orra")
SETUP_REPS = 9
TAIL_BEYOND = 10   # the tail percentile keeps this many runs beyond it
VALUE_TOL = 1e-9

END_TO_END = (
    ("periods_per_s", "periods/s"),
    ("run_ms_p50", "ms"),
    ("run_ms_tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

# Per-layer metrics: (name, unit, source).  Sources: "calls:<span>",
# "self:<span>" (self seconds), "count:<counter>", or computed below.
PER_LAYER = (
    ("oltq.step.calls", "count", "calls:oltq.step"),
    ("oltq.step.s", "s", "self:oltq.step"),
    ("framework.check_action.calls", "count", "calls:framework.check_action"),
    ("framework.check_action.s", "s", "self:framework.check_action"),
    ("oltq.act.calls", "count", "calls:oltq.act"),
    ("oltq.act.s", "s", "self:oltq.act"),
    ("switching.stream.calls", "count", "calls:switching.stream"),
    ("switching.stream.s", "s", "self:switching.stream"),
    ("oltq.monitor_append.calls", "count", "calls:oltq.monitor_append"),
    ("oltq.monitor_append.s", "s", "self:oltq.monitor_append"),
    ("oltq.solve.calls", "count", "calls:oltq.solve"),
    ("oltq.solve.periods", "count", "count:oltq.solve.periods"),
    ("oltq.solve.s", "s", "self:oltq.solve"),
    ("switching.replans", "count", "count:switching.replans"),
    ("harness.opt_solves_per_instance", "ratio", "opt_solves_per_instance"),
    ("framework.window.calls", "count", "calls:framework.window"),
    ("framework.window.periods", "count", "count:framework.window.periods"),
    ("framework.window.s", "s", "self:framework.window"),
    ("kserver.solve.calls", "count", "calls:kserver.solve"),
    ("kserver.solve.requests", "count", "count:kserver.solve.requests"),
    ("kserver.solve.s", "s", "self:kserver.solve"),
    ("switching.monitor_append.calls", "count", "calls:switching.monitor_append"),
    ("switching.monitor_append.s", "s", "self:switching.monitor_append"),
    ("kserver.act.calls", "count", "calls:kserver.act"),
    ("kserver.act.s", "s", "self:kserver.act"),
    ("kserver.step.calls", "count", "calls:kserver.step"),
    ("kserver.step.s", "s", "self:kserver.step"),
    ("switching.mc.calls", "count", "calls:switching.mc"),
    ("switching.mc.s", "s", "self:switching.mc"),
    ("switching.mc.rollouts", "count", "count:switching.mc.rollouts"),
    ("orra.act.calls", "count", "calls:orra.act"),
    ("orra.act.s", "s", "self:orra.act"),
    ("orra.step.calls", "count", "calls:orra.step"),
    ("orra.step.s", "s", "self:orra.step"),
    ("orra.clone.calls", "count", "calls:orra.clone"),
    ("orra.solve.calls", "count", "calls:orra.solve"),
    ("orra.solve.periods", "count", "count:orra.solve.periods"),
    ("orra.solve.s", "s", "self:orra.solve"),
    ("switching.runner.s", "s", "self:switching.runner"),
    ("switching.switches", "count", "switches"),
    ("harness.gen.calls", "count", "calls:harness.gen"),
    ("harness.gen.s", "s", "self:harness.gen"),
    ("harness.emit.s", "s", "self:harness.emit"),
    ("cli.parse.s", "s", "self:cli.parse"),
    ("trace.overhead", "ratio", "overhead"),
) + tuple((name, unit, "slope") for name, unit in slopes.metric_names())


class Checks:
    """Row checks on report.csv, per-run bound checks and digest identity."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}

    def note(self, problem: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(problem)

    def unit(self, unit: Unit, rc: int, csv_text: str, bound_failures: int,
             runs: int, stderr: str) -> None:
        rows = list(csv.DictReader(io.StringIO(csv_text)))
        self.attempted += max(len(rows), unit.rows)
        if rc != 0:
            self.note(f"{unit.name}: exit code {rc}: {stderr.strip()[-300:]}")
        if len(rows) != unit.rows or runs != unit.rows:
            self.note(f"{unit.name}: {len(rows)} rows, {runs} runs, "
                      f"expected {unit.rows}")
            self.failed += max(len(rows), unit.rows)
            return
        bad = sum(1 for row in rows if self._row_problem(unit, row))
        self.failed += max(bad, bound_failures)
        if bound_failures:
            self.note(f"{unit.name}: {bound_failures} run(s) below T1/T5")
        digest = hashlib.sha256(csv_text.encode()).hexdigest()
        if self.digests.setdefault(unit.name, digest) != digest:
            self.note(f"{unit.name}: report.csv changed between repetitions")
            self.failed += len(rows)

    def _row_problem(self, unit: Unit, row: dict) -> bool:
        where = f"{unit.name} {row['algorithm']}@{row['sweep_value']}"
        if row["flags"].startswith("error:") or ";error:" in row["flags"]:
            self.note(f"{where}: {row['flags']}")
            return True
        val, opt = float(row["val"]), float(row["opt"])
        if unit.app == "caching" and not val >= opt - VALUE_TOL:
            self.note(f"{where}: cost {val} below optimum {opt}")
            return True
        if unit.app != "caching" and not val <= opt + VALUE_TOL:
            self.note(f"{where}: value {val} above optimum {opt}")
            return True
        if unit.app == "oltq" and row["bound"]:
            if not float(row["ratio"]) >= float(row["bound"]) - VALUE_TOL:
                self.note(f"{where}: ratio {row['ratio']} below T5 {row['bound']}")
                return True
        return False


class Runner:
    def __init__(self, modules: dict, out_root: Path, checks: Checks):
        self.modules = modules
        self.out_root = out_root
        self.checks = checks
        self.log = tracing.RunLog()
        self.log.install(modules)
        self.cli_s = 0.0
        self.units = 0

    def reset(self) -> None:
        self.log.reset()
        self.cli_s = 0.0
        self.units = 0

    def unit(self, unit: Unit) -> None:
        out = self.out_root / unit.name
        argv = ["run", "--spec", unit.spec, "--out", str(out), "--format", "csv",
                "--seed", str(unit.seed)]
        runs_before = len(self.log.ms)
        failures_before = len(self.log.bound_failures)
        captured_out, captured_err = io.StringIO(), io.StringIO()
        with redirect_stdout(captured_out), redirect_stderr(captured_err):
            start = time.perf_counter()
            rc = self.modules["cli"].main(argv)
            self.cli_s += time.perf_counter() - start
        self.units += 1
        report = out / "report.csv"
        text = report.read_text(encoding="ascii") if report.is_file() else ""
        self.checks.unit(unit, rc, text,
                         len(self.log.bound_failures) - failures_before,
                         len(self.log.ms) - runs_before, captured_err.getvalue())

    def rounds(self, rounds: list[list[Unit]], count: int) -> None:
        for i in range(count):
            for unit in rounds[i % len(rounds)]:
                self.unit(unit)

    def until(self, rounds: list[list[Unit]], seconds: float) -> None:
        """Whole rounds, cycling through the pool, while the next round is
        expected to end nearer ``seconds`` than stopping now would, and
        until there are enough runs for the tail percentile."""
        start = time.perf_counter()
        i = 0
        elapsed = 0.0
        while (i == 0 or elapsed + elapsed / i / 2 < seconds
               or len(self.log.ms) <= TAIL_BEYOND):
            for unit in rounds[i % len(rounds)]:
                self.unit(unit)
            i += 1
            elapsed = time.perf_counter() - start

    @property
    def periods_per_s(self) -> float:
        return self.log.periods / self.cli_s


def import_package() -> dict:
    for name in [m for m in sys.modules if m == "adaswitch" or m.startswith("adaswitch.")]:
        del sys.modules[name]
    modules = {name: importlib.import_module(f"adaswitch.{name}") for name in MODULES}
    expected = ROOT / "src" / "adaswitch"
    if Path(modules["cli"].__file__).resolve().parent != expected:
        raise ImportError(f"adaswitch imported from {modules['cli'].__file__}, "
                          f"not from {expected}")
    return modules


def set_up(workload, seed: int, directory: Path) -> tuple[float, dict, list]:
    """Import the package, write the seeded inputs, parse every spec."""
    start = time.perf_counter()
    modules = import_package()
    directory.mkdir(parents=True, exist_ok=True)
    rounds = [workload.write_round(str(directory), seed, i) for i in range(workload.pool)]
    for units in rounds:
        for unit in units:
            with open(unit.spec, encoding="ascii") as fh:
                modules["harness"].parse_spec(fh.read())
    return time.perf_counter() - start, modules, rounds


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it:
    (value, percentile)."""
    ordered = sorted(samples)
    rank = len(ordered) - TAIL_BEYOND  # 1-based rank of the reported sample
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def layer_metrics(tracer, runner: Runner, overhead: float, slope_values: dict) -> dict:
    spans = tracer.by_name()
    metrics = {}
    for name, unit, source in PER_LAYER:
        kind, _, key = source.partition(":")
        if kind == "calls":
            value = spans.get(key, {}).get("calls", 0)
        elif kind == "self":
            value = spans.get(key, {}).get("self_s", 0.0)
        elif kind == "count":
            value = tracer.counts[key]
        elif kind == "switches":
            value = runner.log.switches
        elif kind == "opt_solves_per_instance":
            value = tracer.counts["harness.opt_solves"] / max(1, len(tracer.instances))
        elif kind == "overhead":
            value = overhead
        else:
            value = slope_values[name]
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def print_layer_report(tracer, wall_s: float) -> None:
    spans = tracer.by_name()
    by_layer: dict[str, float] = {}
    for name, row in spans.items():
        by_layer[name.split(".")[0]] = by_layer.get(name.split(".")[0], 0.0) + row["self_s"]
    print("layer self time (traced rounds, share of traced wall time):")
    for layer in MODULES:
        s = by_layer.get(layer, 0.0)
        print(f"  {layer:<10}{s:10.3f} s {100 * s / wall_s:6.1f} %")
    print("spans by self time:")
    for name, row in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"]):
        if not row["calls"]:
            continue
        print(f"  {name:<28}{row['calls']:>10} calls {row['self_s']:9.3f} s self"
              f" {row['total_s']:9.3f} s incl {100 * row['self_s'] / wall_s:6.1f} %")


def end_to_end(runner: Runner, rounds: list, seconds: float,
               setup_times: list[float]) -> tuple[dict, dict]:
    """Untraced closed loop for ``seconds``; prints and returns the
    end-to-end metrics."""
    runner.until(rounds, seconds)
    n = len(runner.log.ms)
    tail_ms, tail_pct = tail(runner.log.ms)
    values = {
        "periods_per_s": runner.periods_per_s,
        "run_ms_p50": statistics.median(runner.log.ms),
        "run_ms_tail": tail_ms,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"{n} runs in {runner.units} units, {runner.cli_s:.2f} s in cli.main")
    notes = {"run_ms_p50": f"median of {n} runs",
             "run_ms_tail": f"p{tail_pct:.1f}: rank {n - TAIL_BEYOND} of {n} runs",
             "setup_s": f"median of {SETUP_REPS} set-ups"}
    for name, unit in END_TO_END:
        print(f"  {name:<16}{values[name]:14.4f} {unit:<10}{notes.get(name, '')}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return metrics, {"runs": n, "units": runner.units, "tail_percentile": tail_pct,
                     "runs_ms": runner.log.ms, "setup_reps_s": setup_times}


def per_layer(runner: Runner, modules: dict, rounds: list, count: int, seed: int,
              base: Path) -> tuple[dict, dict]:
    """The first ``count`` rounds untraced, then again under the tracer, then
    the layer slopes; prints and returns the per-layer metrics."""
    runner.rounds(rounds, count)
    untraced_pps = runner.periods_per_s
    # Checks flags any traced report.csv that differs from its untraced one.
    runner.reset()
    tracer = tracing.Tracer()
    tracer.install(modules)
    start = time.perf_counter()
    runner.rounds(rounds, count)
    wall_s = time.perf_counter() - start
    tracer.uninstall()
    tracer.write(str(base / "spans.jsonl"), str(base / "spans_agg.json"))
    overhead = untraced_pps / runner.periods_per_s
    metrics = layer_metrics(tracer, runner, overhead, slopes.measure(modules, seed))
    print(f"traced {count} round(s), {len(runner.log.ms)} runs, {wall_s:.2f} s; "
          f"untraced {untraced_pps:.1f} periods/s, traced {runner.periods_per_s:.1f} "
          f"periods/s, overhead x{overhead:.3f}")
    print_layer_report(tracer, wall_s)
    for name, entry in metrics.items():
        print(f"  {name:<40}{entry['value']:>16.6g} {entry['unit']}")
    return metrics, {"traced_rounds": count, "wall_s": wall_s}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="adaswitch benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "adaswitch" / "__init__.py").is_file():
        print(f"error: no adaswitch sources under {ROOT / 'src'}; run from a "
              f"source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]
    load_start = os.getloadavg()
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    base = ROOT / ".bench_work" / workload.name / f"seed{args.seed}"
    shutil.rmtree(base, ignore_errors=True)

    # The first set-up also pays interpreter start-up and the first imports
    # of the standard library; the median keeps what every set-up pays.
    setup_times = []
    for _ in range(SETUP_REPS):
        elapsed, modules, rounds = set_up(workload, args.seed, base / "inputs")
        setup_times.append(elapsed)
    setup_times[0] += time.perf_counter() - PROCESS_START - sum(setup_times)

    checks = Checks()
    runner = Runner(modules, base / "out", checks)
    if args.trace == 0:
        metrics, extra = end_to_end(runner, rounds, args.seconds, setup_times)
    else:
        metrics, extra = per_layer(runner, modules, rounds, workload.traced_rounds,
                                   args.seed, base)
    attempted = checks.attempted
    print(f"  failed_share    {checks.failed / attempted:14.4f} ratio"
          f"  ({checks.failed} of {attempted} runs)")
    for unit_name, digest in sorted(checks.digests.items()):
        print(f"  report.csv {unit_name} sha256 {digest}")
    for problem in checks.problems:
        print(f"  check failed: {problem}")
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
    }
    print("env " + json.dumps(env))
    result = {"correct": checks.failed == 0 and not checks.problems,
              "attempted": attempted, "failed": checks.failed, "metrics": metrics}
    with open(base / f"result-trace{args.trace}.json", "w", encoding="ascii") as fh:
        json.dump({"workload": workload.name, "seed": args.seed, "env": env,
                   "digests": checks.digests, "problems": checks.problems,
                   **extra, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
