"""Command-line entry points: run experiment specs, validate property suites.

Exit codes: 0 success; 1 spec parse or file error; 2 runtime failure during
an experiment (row log on stderr); 3 validation property failure (with a
serialized counterexample).
"""

from __future__ import annotations

import argparse
import logging
import sys
import time

from . import harness


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adaswitch",
        description="Learning-augmented online decision experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment spec")
    run.add_argument("--spec", required=True, help="experiment spec file")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--seeds", type=int, default=None,
                     help="override: use seeds 0..N-1")
    run.add_argument("--seed", type=int, default=None,
                     help="override: offset every seed by this base")
    run.add_argument("--format", choices=("csv", "svg", "both"), default="both")
    run.add_argument("-v", "--verbose", action="store_true",
                     help="log INFO and above (row failures, horizon padding) "
                          "to stderr")

    val = sub.add_parser("validate", help="run a property suite")
    val.add_argument("suite",
                     choices=("framework", "oltq", "kserver", "orra",
                              "adaswitch", "all"))
    val.add_argument("--budget", type=_seconds, default=None,
                     help="soft time budget in seconds, e.g. 60 or 60s "
                          "(scales trial counts)")
    return parser


def _seconds(text: str) -> float:
    return float(text[:-1] if text.endswith("s") else text)


def cmd_run(spec_path: str, out_dir: str, seeds: int | None = None,
            seed_base: int | None = None, fmt: str = "both") -> int:
    if seeds is not None and seeds < 1:
        print(f"error: --seeds {seeds} selects no seed", file=sys.stderr)
        return 1
    try:
        with open(spec_path, encoding="utf-8") as fh:
            spec = harness.parse_spec(fh.read())
    except OSError as exc:
        print(f"error: cannot read spec {spec_path}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: bad spec {spec_path}: {exc}", file=sys.stderr)
        return 1
    if seeds is not None:
        spec.seeds = list(range(seeds))
    if seed_base is not None:
        spec.seeds = [seed_base + s for s in spec.seeds]
    formats = ("csv", "svg") if fmt == "both" else (fmt,)
    try:
        rows, aggregates = harness.run_experiment(spec)
        failed = [r for r in rows if str(r.get("flags", "")).startswith("error:")]
        written = harness.emit_report(rows, aggregates, out_dir, formats)
    except Exception as exc:
        print(f"error: experiment failed: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {', '.join(written)}")
    print(f"{'algorithm':<28}{'sweep':>10}{'mean ratio':>14}{'stderr':>10}{'rows':>6}")
    for a in aggregates:
        print(f"{a['algorithm']:<28}{a['sweep_value']:>10.4g}"
              f"{a['mean_ratio']:>14.6f}{a['stderr']:>10.6f}{a['rows']:>6}")
    if failed:
        print(f"{len(failed)} row(s) failed:", file=sys.stderr)
        for r in failed:
            print(f"  {r['algorithm']} sweep={r['sweep_value']} seed={r['seed']}"
                  f" {r['flags']}", file=sys.stderr)
        return 2
    return 0


def cmd_validate(suite: str, budget: float | None = None) -> int:
    scale = 1.0
    if budget is not None:
        scale = min(1.0, max(0.2, budget / 60.0))
    from . import validation  # the property suites are not needed to run specs

    start = time.monotonic()
    try:
        results = validation.run_suite(suite, scale=scale)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for r in results:
        print(r.line())
    elapsed = time.monotonic() - start
    print(f"{sum(r.ok for r in results)}/{len(results)} properties passed "
          f"in {elapsed:.1f}s")
    bad = [r for r in results if not r.ok]
    if bad:
        for r in bad:
            print(f"counterexample [{r.name}]: {r.detail}", file=sys.stderr)
        return 3
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        if args.verbose:
            logging.basicConfig(level=logging.INFO, stream=sys.stderr)
        return cmd_run(args.spec, args.out, seeds=args.seeds,
                       seed_base=args.seed, fmt=args.format)
    return cmd_validate(args.suite, budget=args.budget)


if __name__ == "__main__":
    sys.exit(main())
