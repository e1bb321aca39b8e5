"""Layer scaling: time direct calls at several sizes and fit log-log slopes.

Each operation is timed at 3-4 sizes (median of a few repetitions per size);
the least-squares slope of log(time) against log(size) is reported as
``<layer>.<op>.slope`` next to the points ``<layer>.<op>.ms.<size>``.  A slope
near 1 is linear; a hidden quadratic shows up as a number near 2.

Run directly, ``python3 perfbench/slopes.py --reference`` re-measures the
reference points that ROADMAP.md quotes and prints them next to the quoted
figures.
"""

from __future__ import annotations

import argparse
import importlib
import math
import random
import statistics
import sys
import time
from pathlib import Path

REPS = 3
MIN_POINT_S = 0.05  # keep repeating a point until this much time is spent

# (metric prefix, size tag letter, sizes)
OPERATIONS = (
    ("oltq.solve", "t", (2000, 4000, 8000, 16000)),
    ("oltq.step", "t", (2000, 4000, 8000, 16000)),
    ("kserver.solve", "w", (60, 120, 240)),
    ("orra.solve", "t", (70, 140, 280, 560)),
    ("switching.monitor_append", "w", (20, 40, 80)),
    ("switching.monte_carlo_estimate", "w", (70, 140, 280)),
)


def metric_names() -> list[tuple[str, str]]:
    names = []
    for prefix, tag, sizes in OPERATIONS:
        names.append((f"{prefix}.slope", "ratio"))
        names.extend((f"{prefix}.ms.{tag}{n}", "ms") for n in sizes)
    return names


def _median_ms(call) -> float:
    samples = []
    spent = 0.0
    while len(samples) < REPS or spent < MIN_POINT_S:
        start = time.perf_counter()
        call()
        elapsed = time.perf_counter() - start
        samples.append(elapsed * 1e3)
        spent += elapsed
    return statistics.median(samples)


def fit_slope(sizes, ms) -> float:
    xs = [math.log(n) for n in sizes]
    ys = [math.log(m) for m in ms]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def _geometric_arrivals(rng: random.Random, ell: int, n: int) -> list[int]:
    log_q = math.log1p(-1 / 15)
    return [min(ell, max(1, math.ceil(math.log1p(-rng.random()) / log_q)))
            for _ in range(n)]


def _cases(m: dict, seed: int) -> dict:
    """Per operation, a factory from size to a zero-argument call."""
    oltq, ks, orra, sw, fw = (m["oltq"], m["kserver"], m["orra"],
                              m["switching"], m["framework"])
    rng = random.Random(seed)
    ell = 30
    arrivals = _geometric_arrivals(rng, ell, 16000)
    metric = ks.MetricSpace.uniform([f"p{j}" for j in range(6)])
    positions = metric.points[:2]
    cache_requests = [rng.choice(metric.points) for _ in range(240)]
    params = orra.OrraParams(2, 2)

    def oltq_step(n):
        policy = oltq.QFracStarOracle(ell).restart(None, 0)
        actions = [policy.act(t, e, None) for t, e in enumerate(arrivals[:n], 1)]

        def call():
            sim = oltq.OltqSimulator(ell)
            for t, (e, a) in enumerate(zip(arrivals, actions), 1):
                sim.step(t, e, a)
        return call

    def monitor(n):
        oracle = ks.KserverOfflineOracle(metric)

        def call():
            mon = oracle.monitor(ks.KserverSimulator(metric, positions), 1)
            for t, e in enumerate(cache_requests[:n], 1):
                mon.append(t, e)
        return call

    def mc(n):
        problem = orra.problem_instance(params)
        online = orra.PrrStarOracle(params)
        config = sw.AdaSwitchConfig(epsilon=0.2, b=2.0, c=2.0, alpha=3.0,
                                    monte_carlo_cap=32, seed=seed)
        window = [(1, 1)] * n
        return lambda: sw.monte_carlo_estimate(problem, fw.Trajectory(), window,
                                               online, n, config)

    return {
        "oltq.solve": lambda n: lambda: oltq.ohrr_star(oltq.OltqSimulator(ell), 1,
                                                       arrivals[:n]),
        "oltq.step": oltq_step,
        "kserver.solve": lambda n: lambda: ks.offline_kserver(metric, positions,
                                                              cache_requests[:n]),
        "orra.solve": lambda n: lambda: orra.orra_offline_dp(
            params, orra.AvailabilityVector.fresh(2), 1, [(1, 1)] * n),
        "switching.monitor_append": monitor,
        "switching.monte_carlo_estimate": mc,
    }


def measure(modules: dict, seed: int) -> dict[str, float]:
    """All slope metrics, measured on inputs drawn from ``seed``."""
    cases = _cases(modules, seed)
    out = {}
    for prefix, tag, sizes in OPERATIONS:
        ms = [_median_ms(cases[prefix](n)) for n in sizes]
        for n, value in zip(sizes, ms):
            out[f"{prefix}.ms.{tag}{n}"] = value
        out[f"{prefix}.slope"] = fit_slope(sizes, ms)
    return out


def reference(modules: dict) -> list[tuple[str, str, float]]:
    """ROADMAP reference points: (label, quoted figure, measured ms)."""
    oltq, ks, orra, harness = (modules["oltq"], modules["kserver"],
                               modules["orra"], modules["harness"])
    rows = []
    metric = ks.MetricSpace.uniform([f"p{i}" for i in range(6)])
    initial = ks.ServerConfig(tuple(metric.points[:2]))
    for W, quoted in ((60, "124 ms"), (120, "295 ms"), (240, "931 ms")):
        rng = random.Random(45)  # the criterion-4 caching draw
        reqs = [rng.choice(metric.points) for _ in range(W)]
        pred = [e if rng.random() > 0.2 else rng.choice(metric.points) for e in reqs]
        ms = statistics.median(_median_ms(lambda: ks.adaswitch_kse(
            metric, initial, reqs, pred, variant="caching", seed=s)) for s in range(3))
        rows.append((f"caching adaswitch_kse W={W}", quoted, ms))
    ell = 30
    reality = harness.gen_geometric(1 / 15, ell, 15000, 0)
    eps = oltq.eta_oltq(ell) - 0.3
    rows.append(("oltq adaswitch_oltq T=15000 ell=30", "260 ms", _median_ms(
        lambda: oltq.adaswitch_oltq(ell, reality, reality, eps, seed=0))))
    rows.append(("oltq run_qfrac_baseline T=15000 ell=30", "390 ms", _median_ms(
        lambda: oltq.run_qfrac_baseline(ell, reality, seed=0))))
    window = reality.window(1, reality.effective_length)
    rows.append(("oltq ohrr_star T=15000 ell=30", "40 ms", _median_ms(
        lambda: oltq.ohrr_star(oltq.OltqSimulator(ell), 1, window))))
    params = orra.OrraParams(2, 2)
    reqs2 = [(1, 1)] * 140
    pred2 = [(1, 1) if i % 9 else (1, 0) for i in range(140)]
    for eps in (0.2, 0.55):
        ms = statistics.median(_median_ms(lambda: orra.adaswitch_orra(
            params, reqs2, pred2, eps, alpha=3.0, seed=s, monte_carlo_cap=32))
            for s in range(3))
        rows.append((f"orra adaswitch_orra T=140 mc_cap=32 eps={eps}", "350-630 ms", ms))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reference", action="store_true",
                        help="also re-measure the ROADMAP reference points")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "adaswitch" / "__init__.py").is_file():
        print(f"error: no adaswitch sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    modules = {name: importlib.import_module(f"adaswitch.{name}") for name in
               ("oltq", "kserver", "orra", "switching", "framework", "harness")}
    for name, value in measure(modules, args.seed).items():
        print(f"{name:<44}{value:>12.4f}")
    if args.reference:
        for label, quoted, ms in reference(modules):
            print(f"{label:<48} quoted {quoted:>10}  measured {ms:8.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
