"""Seeded inputs for the benchmark workloads.

A workload is an endless sequence of rounds.  Round ``i`` under benchmark
seed ``s`` is a pure function of ``(workload, s, i)``: a list of units, each
one ``adaswitch run`` call on a spec file this module writes, together with
the instance and prediction files the spec names.  The program sees only
those files and the ``--seed`` base of each unit; the spec format cannot name
a single nonzero seed (``seeds 1`` means seed 0), so the base travels on the
command line.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass
from typing import Callable

ROBUSTNESS_GRID = ("0.1", "0.15", "0.2", "0.25", "0.3", "0.35", "0.4", "0.45",
                   "0.5", "0.55")


@dataclass(frozen=True)
class Unit:
    """One ``adaswitch run`` call and the rows its report.csv must hold."""

    name: str
    app: str
    spec: str
    seed: int
    rows: int


@dataclass(frozen=True)
class Workload:
    name: str
    pool: int            # rounds written at set-up; runs cycle through them
    traced_rounds: int   # fixed work of the traced run, so counts repeat
    write_round: Callable[[str, int, int], list[Unit]]


def derive(*labels: object) -> int:
    """31-bit seed derived from a label tuple (stable across processes)."""
    digest = hashlib.sha256(repr(labels).encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def _oltq_grid_round(name: str, template: str,
                     algorithms: int) -> Callable[[str, int, int], list[Unit]]:
    """Round ``i`` is one ``adaswitch run`` call over the whole robustness
    grid with one seed, as in the experiment specs."""
    def write(directory: str, seed: int, i: int) -> list[Unit]:
        tag = f"r{i:03d}"
        spec = os.path.join(directory, f"{tag}.spec")
        _write(spec, template.format(grid=" ".join(ROBUSTNESS_GRID)))
        return [Unit(tag, "oltq", spec, derive(name, seed, i),
                     algorithms * len(ROBUSTNESS_GRID))]
    return write


# Grid points in the order the rounds take them: low and high robustness
# alternate, so the rounds a timed loop has run cover the grid evenly
# whenever it stops.
GRID_ORDER = (0, 9, 1, 8, 2, 7, 3, 6, 4, 5)


def _oltq_point_round(name: str, template: str,
                      algorithms: int) -> Callable[[str, int, int], list[Unit]]:
    """Round ``i`` is one ``adaswitch run`` call on one grid point with its
    own seed; ten consecutive rounds cover the robustness grid."""
    def write(directory: str, seed: int, i: int) -> list[Unit]:
        j = GRID_ORDER[i % len(GRID_ORDER)]
        tag = f"r{i:03d}-g{j}"
        spec = os.path.join(directory, f"{tag}.spec")
        _write(spec, template.format(grid=ROBUSTNESS_GRID[j]))
        return [Unit(tag, "oltq", spec, derive(name, seed, i), algorithms)]
    return write


# Shaped like experiments/consistency_robustness.spec, one seed per unit.
OLTQ_CONSISTENCY_SPEC = """app oltq
generator geometric
p 0.0666666666666667
ell 30
T 15000
prediction perfect
sweep robustness
grid {grid}
seeds 1
algorithm.name adaswitch
algorithm.name strengthened
algorithm.Z 4
algorithm.name qfrac
"""

# Shaped like experiments/prediction_errors_model2.spec, one seed per unit.
OLTQ_ERRORS_SPEC = """app oltq
generator model2
p_err 0.1
ell 20
T 10000
prediction generator-paired
sweep robustness
grid {grid}
seeds 1
algorithm.name adaswitch
algorithm.name qfrac
"""

CACHE_POINTS = tuple(f"p{j}" for j in range(6))
CACHE_K = 2
CACHE_W = 240
CACHE_REDRAW = 0.2


def _caching_round(directory: str, seed: int, i: int) -> list[Unit]:
    """240 uniform requests on a 6-point uniform metric with k = 2; the
    prediction redraws each position with probability 0.2 (the criterion-4
    shape at W = 240)."""
    tag = f"r{i:03d}"
    rng = random.Random(derive("caching", seed, i))
    requests = [rng.choice(CACHE_POINTS) for _ in range(CACHE_W)]
    prediction = [e if rng.random() > CACHE_REDRAW else rng.choice(CACHE_POINTS)
                  for e in requests]
    metric = os.path.join(directory, "metric.txt")
    _write(metric, f"{len(CACHE_POINTS)} {CACHE_K}\n"
                   + "".join(p + "\n" for p in CACHE_POINTS) + "uniform\n")
    instance = os.path.join(directory, f"{tag}.requests")
    predicted = os.path.join(directory, f"{tag}.prediction")
    _write(instance, "".join(e + "\n" for e in requests))
    _write(predicted, "".join(e + "\n" for e in prediction))
    spec = os.path.join(directory, f"{tag}.spec")
    _write(spec, f"""app caching
metric {metric}
instance {instance}
prediction file
prediction_file {predicted}
sweep W
grid {CACHE_W}
seeds 1
algorithm.name adaswitch
""")
    return [Unit(tag, "caching", spec, derive("caching-rng", seed, i), 1)]


ORRA_T = 210


def _orra_round(directory: str, seed: int, i: int) -> list[Unit]:
    """n = 2, d = 2, T = 210, every request (1,1); the prediction turns
    every ninth request into (1,0).  The seed picks the phase of round 0 and
    each round moves it by one, so nine consecutive rounds take every phase
    once."""
    phase = (derive("orra-phase", seed) + i) % 9
    tag = f"r{i:03d}"
    instance = os.path.join(directory, f"{tag}.instance")
    predicted = os.path.join(directory, f"{tag}.prediction")
    _write(instance, f"2 2 {ORRA_T}\n" + "11\n" * ORRA_T)
    _write(predicted, f"2 2 {ORRA_T}\n" + "".join(
        "11\n" if (t + phase) % 9 else "10\n" for t in range(ORRA_T)))
    spec = os.path.join(directory, f"{tag}.spec")
    _write(spec, f"""app orra
instance {instance}
prediction file
prediction_file {predicted}
sweep epsilon
grid 0.2 0.55
seeds 1
algorithm.name adaswitch
algorithm.alpha 3
algorithm.mc_cap 32
""")
    return [Unit(tag, "orra", spec, derive("orra", seed, i), 2)]


WORKLOADS = {
    w.name: w for w in (
        # One seed covers the whole grid, so the harness meets the same
        # instance at every grid point, as in the experiment.
        Workload("oltq-consistency", pool=4, traced_rounds=1,
                 write_round=_oltq_grid_round("oltq-consistency",
                                              OLTQ_CONSISTENCY_SPEC, algorithms=3)),
        # The number of mispredicted blocks varies by seed, and replans with
        # it, so every round (one grid point) has a seed of its own.
        Workload("oltq-errors", pool=40, traced_rounds=10,
                 write_round=_oltq_point_round("oltq-errors", OLTQ_ERRORS_SPEC,
                                               algorithms=2)),
        Workload("caching", pool=48, traced_rounds=8, write_round=_caching_round),
        Workload("orra", pool=9, traced_rounds=3, write_round=_orra_round),
    )
}
