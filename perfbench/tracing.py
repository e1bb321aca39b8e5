"""Run log and span tracer, installed from outside the program.

Both work by replacing a function at the module or class attribute its
callers look up, so nothing under ``src/`` knows about them.  A function
reached under several names (``switching.stream`` is also ``oltq.stream``)
gets one wrapper, set at every name.

``RunLog`` is always on: it times each outermost application run with two
timestamps and checks the report it returns.  ``Tracer`` is installed only
in the traced run: it records one span per wrapped call (name, start, end,
parent span, run id), aggregates spans per (name, parent) so memory stays
bounded, keeps individual records for the coarse spans, and counts work at
the same boundaries.
"""

from __future__ import annotations

import json
import time
from collections import Counter

# Application entry points the harness calls: (module, attribute, index of
# the realized request sequence among the positional arguments).
ENTRY_POINTS = (
    ("oltq", "adaswitch_oltq", 1),
    ("oltq", "strengthened_adaswitch_oltq", 1),
    ("oltq", "run_qfrac_baseline", 1),
    ("kserver", "adaswitch_kse", 2),
    ("orra", "adaswitch_orra", 1),
)

BOUND_TOL = 1e-9


class RunLog:
    """Per-run samples of the outermost application calls.

    A nested entry-point call (the strengthened wrapper calls
    ``adaswitch_oltq`` or ``run_qfrac_baseline``) is part of its caller's
    run.  Deterministic oltq reports must satisfy ``ratio >= bound - 1e-9``
    for each of T1 and T5 they carry; a run that does not is recorded as
    failed by its index.
    """

    def __init__(self):
        self.depth = 0
        self.reset()

    def reset(self) -> None:
        self.ms: list[float] = []
        self.periods = 0
        self.switches = 0
        self.bound_failures: set[int] = set()

    def install(self, modules: dict) -> None:
        for module, attr, seq_arg in ENTRY_POINTS:
            owner = modules[module]
            setattr(owner, attr, self._wrap(getattr(owner, attr), seq_arg,
                                            check_bounds=module == "oltq"))

    def _wrap(self, fn, seq_arg: int, check_bounds: bool):
        log = self
        clock = time.perf_counter

        def run(*args, **kwargs):
            if log.depth:
                return fn(*args, **kwargs)
            log.depth = 1
            start = clock()
            try:
                report = fn(*args, **kwargs)
            finally:
                end = clock()
                log.depth = 0
                log.ms.append((end - start) * 1e3)
                log.periods += args[seq_arg].effective_length
            log.switches += report.switch_count
            if check_bounds and report.ratio is not None:
                for name in ("T1", "T5"):
                    bound = report.bounds.get(name)
                    if bound is not None and report.ratio < bound - BOUND_TOL:
                        log.bound_failures.add(len(log.ms) - 1)
            return report

        return run


# Span name -> attribute sites ("module:Class.attr" or "module:attr").  The
# first segment of a span name is the layer: the package module it lives in.
SPAN_SITES = {
    "cli.run": ["cli:main"],
    "cli.parse": ["harness:parse_spec"],
    "harness.emit": ["harness:emit_report"],
    "harness.gen": ["harness:gen_geometric", "harness:gen_pattern"],
    "oltq.run": ["oltq:adaswitch_oltq", "oltq:strengthened_adaswitch_oltq",
                 "oltq:run_qfrac_baseline"],
    "kserver.run": ["kserver:adaswitch_kse"],
    "orra.run": ["orra:adaswitch_orra"],
    "switching.runner": ["switching:run_adaswitch_exact", "oltq:run_adaswitch_exact",
                         "switching:run_adaswitch_gamma", "orra:run_adaswitch_gamma"],
    "switching.stream": ["switching:stream", "oltq:stream"],
    "switching.mc": ["switching:_mc_estimate"],
    "switching.monitor_append": ["switching:ResolveMonitor.append"],
    "framework.check_action": ["framework:ProblemInstance.check_action"],
    "framework.window": ["framework:RequestSequence.window"],
    "oltq.step": ["oltq:OltqSimulator.step"],
    "oltq.act": ["oltq:QFracStarPolicy.act"],
    "oltq.monitor_append": ["oltq:OhrrMonitor.append"],
    "oltq.solve": ["oltq:ohrr_star"],
    "kserver.solve": ["kserver:offline_kserver"],
    "kserver.act": ["kserver:MarkingPolicy.act"],
    "kserver.step": ["kserver:KserverSimulator.step"],
    "orra.solve": ["orra:orra_offline_dp"],
    "orra.act": ["orra:PrrStarPolicy.act"],
    "orra.step": ["orra:OrraSimulator.step"],
    "orra.clone": ["orra:OrraSimulator.clone"],
}

# Spans kept one record per call; the per-period ones are only aggregated.
RECORDED = {"cli.run", "cli.parse", "harness.emit", "harness.gen", "oltq.run",
            "kserver.run", "orra.run", "switching.runner", "oltq.solve",
            "kserver.solve", "orra.solve"}

# Per-period spans that call no wrapped function.
LEAVES = {"framework.check_action", "framework.window", "switching.stream",
          "oltq.step", "oltq.act", "oltq.monitor_append", "kserver.act",
          "kserver.step", "orra.act", "orra.step", "orra.clone"}

RUN_SPANS = {"oltq.run", "kserver.run", "orra.run"}
MONITOR_SPANS = {"switching.monitor_append", "oltq.monitor_append"}
ROOT = "root"


def _solve_hook(t0_of, window_arg: int, size_of, size_counter: str):
    """Counts a solve's window size and classifies it: a window starting at
    period 1 outside a monitor is a whole-horizon solve; any other solve
    called by a runner is a replan (a re-plan on a miss, or a batch step)."""
    def hook(tracer, parent, args, kwargs):
        window = args[window_arg]
        tracer.counts[size_counter] += size_of(window)
        if t0_of(args, kwargs) == 1 and parent not in MONITOR_SPANS:
            tracer.counts["harness.opt_solves"] += 1
            tracer.instances.add(hash(tuple(window)))
        elif parent == "switching.runner":
            tracer.counts["switching.replans"] += 1
    return hook


def _stream_hook(tracer, parent, args, kwargs):
    if len(args) > 1 and args[1] == "mc":
        tracer.counts["switching.mc.rollouts"] += 1


def _window_hook(tracer, parent, args, kwargs):
    tracer.counts["framework.window.periods"] += args[2] - args[1] + 1


HOOKS = {
    # ohrr_star(sim, t0, window); offline_kserver(metric, positions, window,
    # t0=1); orra_offline_dp(params, avail, t0, window, budget).
    "oltq.solve": _solve_hook(lambda a, k: a[1], 2, len, "oltq.solve.periods"),
    "kserver.solve": _solve_hook(
        lambda a, k: a[3] if len(a) > 3 else k.get("t0", 1), 2,
        lambda w: sum(e is not None for e in w), "kserver.solve.requests"),
    "orra.solve": _solve_hook(lambda a, k: a[2], 3, len, "orra.solve.periods"),
    "switching.stream": _stream_hook,
    "framework.window": _window_hook,
}


def _resolve(modules: dict, site: str):
    module, _, path = site.partition(":")
    owner = modules[module]
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr


class Tracer:
    def __init__(self):
        # Frame: [name, seconds covered by children, span id, run id].
        self.stack: list[list] = [[ROOT, 0.0, 0, -1]]
        self.next_id = 1
        self.next_run = 0
        # name -> parent name -> [calls, seconds, self seconds]
        self.agg: dict[str, dict[str, list]] = {}
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.instances: set[int] = set()
        self._installed: list[tuple] = []

    def install(self, modules: dict) -> None:
        wrappers: dict[int, object] = {}
        for name, sites in SPAN_SITES.items():
            for site in sites:
                owner, attr = _resolve(modules, site)
                original = getattr(owner, attr)
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._wrap(name, original, HOOKS.get(name))
                self._installed.append((owner, attr, original))
                setattr(owner, attr, wrappers[id(original)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _wrap(self, name: str, fn, hook):
        if name in LEAVES:
            return self._wrap_leaf(name, fn, hook)
        tracer = self
        stack, spans = self.stack, self.spans
        by_parent = self.agg.setdefault(name, {})
        clock = time.perf_counter
        record = name in RECORDED
        opens_run = name in RUN_SPANS

        def traced(*args, **kwargs):
            parent = stack[-1]
            if hook is not None:
                hook(tracer, parent[0], args, kwargs)
            run = parent[3]
            if opens_run and parent[0] not in RUN_SPANS:
                run = tracer.next_run
                tracer.next_run += 1
            span_id = tracer.next_id
            tracer.next_id += 1
            frame = [name, 0.0, span_id, run]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[1] += duration
                entry = by_parent.get(parent[0])
                if entry is None:
                    entry = by_parent[parent[0]] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                if record:
                    spans.append((name, start, end, span_id, parent[2], run))

        return traced

    def _wrap_leaf(self, name: str, fn, hook):
        """Per-period span with no wrapped callee: no frame of its own, so
        its duration is its self time."""
        tracer = self
        stack = self.stack
        by_parent = self.agg.setdefault(name, {})
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            if hook is not None:
                hook(tracer, parent[0], args, kwargs)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                parent[1] += duration
                entry = by_parent.get(parent[0])
                if entry is None:
                    entry = by_parent[parent[0]] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration

        return traced

    def by_name(self) -> dict[str, dict]:
        """Calls, inclusive and self seconds per span name, over parents.
        Inclusive time is summed only over calls not nested in the same
        name, so recursion through one function is not counted twice."""
        out: dict[str, dict] = {}
        for name, by_parent in self.agg.items():
            row = out[name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            for parent, (calls, total, own) in by_parent.items():
                row["calls"] += calls
                row["self_s"] += own
                if parent != name:
                    row["total_s"] += total
        return out

    def write(self, path_spans: str, path_agg: str) -> None:
        with open(path_spans, "w", encoding="ascii") as fh:
            for name, start, end, span_id, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "id": span_id, "parent": parent,
                                     "run": run}) + "\n")
        with open(path_agg, "w", encoding="ascii") as fh:
            json.dump([{"name": name, "parent": parent, "calls": calls,
                        "total_s": total, "self_s": own}
                       for name, by_parent in sorted(self.agg.items())
                       for parent, (calls, total, own) in sorted(by_parent.items())],
                      fh, indent=1)
