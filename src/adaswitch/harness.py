"""Experiment harness: request/prediction generators, sweep drivers, and
CSV/SVG report emission.

A sweep evaluates a list of algorithms over a grid (robustness guarantees,
horizons, or error rates) with several seeds per point and records one row
per (algorithm, grid point, seed) from the run's report, whose hindsight
optimum comes from the application's offline oracle.  One record per
application names the spec and algorithm keys it reads with the type each
value is cast to at parse, the report builder, and the bound a row reports.
Rows are plain dicts with a fixed column schema so the CSV round-trips
exactly.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from . import kserver as ks
from . import oltq
from . import orra
from .framework import RequestSequence
from .switching import CompetitiveReport, child_seed

log = logging.getLogger(__name__)

CSV_HEADER = "app,algorithm,sweep_axis,sweep_value,seed,val,opt,ratio,phi_star,switches,bound,flags"

AGGREGATE_HEADER = "algorithm,sweep_value,mean_ratio,stderr,rows"


# ---------------------------------------------------------------------------
# Generators


def gen_geometric(p: float, ell: int, T: int, seed: int) -> RequestSequence:
    """First T periods draw i.i.d. arrivals from a geometric law on
    {1, 2, ...} with success probability p, clipped to at most ell; nothing
    arrives afterwards.  Pure function of (p, ell, T, seed)."""
    if not 0 < p <= 1:
        raise ValueError("geometric parameter p must lie in (0, 1]")
    if T < 1:
        raise ValueError("horizon T must be >= 1")
    rng = random.Random(child_seed(seed, "geometric", p, ell, T))
    arrivals = []
    log_q = math.log1p(-p) if p < 1 else None
    for _ in range(T):
        if log_q is None:
            k = 1
        else:
            u = rng.random()
            k = int(math.ceil(math.log1p(-u) / log_q))
            k = max(1, k)
        arrivals.append(min(k, ell))
    return oltq.make_requests(ell, arrivals)


def _low_block(ell: int) -> list[int]:
    return [ell] + [0] * (2 * ell - 1)


def _high_block(ell: int) -> list[int]:
    return [ell] * ell + [0] * ell


def gen_pattern(model: str, p_err: float, ell: int, T: int,
                seed: int) -> tuple[RequestSequence, RequestSequence]:
    """Block-structured reality/prediction pair.

    Each 2*ell-period block is either low demand (ell orders up front, then
    quiet) or high demand (ell orders in each of the first ell periods).
    Model I predicts low everywhere while each real block is high with
    probability p_err; model II exchanges the roles.  T is padded up to a
    whole number of blocks when needed.
    """
    if model not in ("I", "II"):
        raise ValueError(f"model must be 'I' or 'II', got {model!r}")
    if not 0 <= p_err <= 1:
        raise ValueError("error rate must lie in [0, 1]")
    block = 2 * ell
    blocks = (T + block - 1) // block
    if blocks * block != T:
        log.info("padding horizon %d to %d (whole %d-period blocks)",
                 T, blocks * block, block)
    rng = random.Random(child_seed(seed, "pattern", model, p_err, ell, T))
    reality: list[int] = []
    prediction: list[int] = []
    for _ in range(blocks):
        flip = rng.random() < p_err
        if model == "I":
            reality.extend(_high_block(ell) if flip else _low_block(ell))
            prediction.extend(_low_block(ell))
        else:
            reality.extend(_low_block(ell) if flip else _high_block(ell))
            prediction.extend(_high_block(ell))
    return oltq.make_requests(ell, reality), oltq.make_requests(ell, prediction)


# ---------------------------------------------------------------------------
# Experiment specification


def _count(text: Any) -> int:
    value = float(text)  # so that T 1e4 reads as 10000
    if not value.is_integer():
        raise ValueError
    return int(value)


def _parsed(cast: Callable[[Any], Any], text: Any, lineno: Any, key: str) -> Any:
    """``cast(text)``, or a parse error naming the line and the key when that
    fails or gives a float that is not finite."""
    try:
        value = cast(text)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError
        return value
    except (ValueError, OverflowError):
        raise ValueError(f"line {lineno}: bad value {text!r} for {key!r}") from None


@dataclass
class AlgorithmSpec:
    name: str
    params: dict[str, Any] = field(default_factory=dict)
    lines: dict[str, int] = field(default_factory=dict)  # param key -> spec line


@dataclass
class ExperimentSpec:
    app: str = "oltq"
    generator: str = "geometric"
    params: dict[str, Any] = field(default_factory=dict)
    prediction: str = "perfect"
    sweep_axis: str = "robustness"
    grid: list[float] = field(default_factory=list)
    seeds: list[int] = field(default_factory=lambda: [0])
    algorithms: list[AlgorithmSpec] = field(default_factory=list)
    lines: dict[str, int] = field(default_factory=dict)  # param key -> spec line

    def param(self, key: str, default=None):
        if key in self.params:
            return self.params[key]
        if default is None:
            raise ValueError(f"experiment spec is missing parameter {key!r}")
        return default

    def validate(self) -> None:
        """Check the spec and cast each parameter in place to its key's type;
        casting a value already cast leaves it unchanged."""
        app = _APPS.get(self.app)
        if app is None:
            raise ValueError(f"unknown application {self.app!r}")
        if not self.grid:
            raise ValueError("sweep grid must be nonempty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be distinct")
        owners = [(self, app.spec_keys, "")]
        owners += [(a, app.algorithm_keys, "algorithm.") for a in self.algorithms]
        for owner, casts, prefix in owners:
            for key, value in owner.params.items():
                lineno = owner.lines.get(key, "?")
                if key not in casts:
                    raise ValueError(f"line {lineno}: unknown spec key {prefix + key!r}")
                owner.params[key] = _parsed(casts[key], value, lineno, prefix + key)


def parse_spec(text: str) -> ExperimentSpec:
    """Parse the line-oriented spec format: ``key value...`` pairs, with
    repeated ``algorithm.name`` lines opening parameter blocks that
    following ``algorithm.<key>`` lines extend."""
    spec = ExperimentSpec()
    current: Optional[AlgorithmSpec] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if key == "algorithm.name":
            current = AlgorithmSpec(rest)
            spec.algorithms.append(current)
        elif key.startswith("algorithm."):
            if current is None:
                raise ValueError(f"line {lineno}: algorithm parameter before algorithm.name")
            name = key.split(".", 1)[1]
            current.params[name] = rest
            current.lines[name] = lineno
        elif key == "app":
            spec.app = rest
        elif key == "generator":
            spec.generator = rest
        elif key == "prediction":
            spec.prediction = rest
        elif key == "sweep":
            spec.sweep_axis = rest
        elif key == "grid":
            spec.grid = [_parsed(float, x, lineno, key) for x in rest.split()]
        elif key == "seeds":
            seeds = [_parsed(int, x, lineno, key) for x in rest.split()]
            spec.seeds = list(range(seeds[0])) if len(seeds) == 1 else seeds
            if not spec.seeds:
                raise ValueError(f"line {lineno}: seeds {rest!r} select no seed")
        else:
            spec.params[key] = rest
            spec.lines[key] = lineno
    spec.validate()
    return spec


# ---------------------------------------------------------------------------
# Row production


def _fmt(x) -> str:
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def row_to_csv(row: dict) -> str:
    return ",".join(_fmt(row[k]) for k in CSV_HEADER.split(","))


def parse_rows(text: str) -> list[dict]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("unexpected CSV header")
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        keys = CSV_HEADER.split(",")
        row = dict(zip(keys, cells))
        for k in ("sweep_value", "val", "opt", "ratio", "phi_star", "bound"):
            row[k] = float(row[k]) if row[k] else None
        row["seed"] = int(row["seed"])
        row["switches"] = int(row["switches"])
        rows.append(row)
    return rows


def _oltq_instances(spec: ExperimentSpec, sweep_value: float, seed: int
                    ) -> tuple[int, RequestSequence, RequestSequence]:
    ell = spec.param("ell")
    T = spec.param("T")
    if spec.sweep_axis == "T":
        T = int(sweep_value)
    if spec.generator == "geometric":
        reality = gen_geometric(spec.param("p"), ell, T, seed)
        prediction = reality if spec.prediction == "perfect" else None
        if prediction is None:
            raise ValueError("geometric generator supports only perfect predictions")
    elif spec.generator in ("model1", "model2"):
        p_err = spec.param("p_err", 0.1)
        if spec.sweep_axis == "p_err":
            p_err = sweep_value
        model = "I" if spec.generator == "model1" else "II"
        reality, prediction = gen_pattern(model, p_err, ell, T, seed)
    elif spec.generator == "file":
        _, reality = oltq.read_instance(spec.params["instance"])
        if spec.prediction == "perfect":
            prediction = reality
        else:
            _, prediction = oltq.read_instance(spec.params["prediction_file"])
    else:
        raise ValueError(f"unknown generator {spec.generator!r} for oltq")
    return ell, reality, prediction


def _oltq_report(spec: ExperimentSpec, algo: AlgorithmSpec, sweep_value: float,
                 seed: int) -> CompetitiveReport:
    ell, reality, prediction = _oltq_instances(spec, sweep_value, seed)
    eta = oltq.eta_oltq(ell)
    if algo.name == "adaswitch":
        if spec.sweep_axis == "robustness":
            epsilon = eta - sweep_value
        else:
            epsilon = algo.params.get("epsilon", 0.2)
        return oltq.adaswitch_oltq(ell, reality, prediction, epsilon, seed=seed)
    if algo.name == "strengthened":
        if spec.sweep_axis == "robustness":
            gamma = sweep_value
        else:
            gamma = algo.params.get("gamma", eta - algo.params.get("epsilon", 0.2))
        return oltq.strengthened_adaswitch_oltq(ell, reality, prediction, gamma,
                                                Z=algo.params.get("Z", 4.0), seed=seed)
    if algo.name == "qfrac":
        return oltq.run_qfrac_baseline(ell, reality, seed=seed)
    raise ValueError(f"unknown oltq algorithm {algo.name!r}")


def _kserver_report(spec: ExperimentSpec, algo: AlgorithmSpec, sweep_value: float,
                    seed: int) -> CompetitiveReport:
    metric, k = ks.read_metric(spec.params["metric"])
    reality = ks.read_requests(spec.params["instance"])
    if spec.prediction == "perfect":
        prediction = reality
    else:
        prediction = ks.read_requests(spec.params["prediction_file"])
    initial = ks.ServerConfig(tuple(metric.points[:k]))
    variant = "caching" if spec.app == "caching" else "general"
    epsilon = sweep_value if spec.sweep_axis == "epsilon" else algo.params.get("epsilon")
    return ks.adaswitch_kse(metric, initial, reality, prediction,
                            epsilon=epsilon, variant=variant, seed=seed)


def _orra_report(spec: ExperimentSpec, algo: AlgorithmSpec, sweep_value: float,
                 seed: int) -> CompetitiveReport:
    params, reality = orra.read_instance(spec.params["instance"])
    if spec.prediction == "perfect":
        prediction = reality
    else:
        _, prediction = orra.read_instance(spec.params["prediction_file"])
    epsilon = sweep_value if spec.sweep_axis == "epsilon" else algo.params.get("epsilon")
    return orra.adaswitch_orra(params, reality, prediction, epsilon,
                               alpha=algo.params.get("alpha", 3.0), seed=seed,
                               eta_online=algo.params.get("eta", 0.589),
                               monte_carlo_cap=algo.params.get("mc_cap", 200))


@dataclass(frozen=True)
class _App:
    """One application: the spec and algorithm keys its report builder reads
    beyond parse_spec's own fields, each with its value's cast, the builder,
    and the bound keys, of which a row reports the first the report carries."""

    spec_keys: dict[str, Callable[[Any], Any]]
    algorithm_keys: dict[str, Callable[[Any], Any]]
    report: Callable[..., CompetitiveReport]
    bound_keys: tuple[str, ...]


_FILES = {"instance": str, "prediction_file": str}
_KSERVER = _App({"metric": str, **_FILES}, {"epsilon": float}, _kserver_report, ("T7", "T6"))
_APPS = {
    "oltq": _App({"ell": _count, "T": _count, "p": float, "p_err": float, **_FILES},
                 {"epsilon": float, "Z": float, "gamma": float}, _oltq_report, ("T5",)),
    "kserver": _KSERVER,
    "caching": _KSERVER,
    "orra": _App(_FILES, {"epsilon": float, "alpha": float, "eta": float, "mc_cap": _count},
                 _orra_report, ("T2",)),
}


def _row(spec: ExperimentSpec, algo: AlgorithmSpec, sweep_value: float, seed: int,
         report: CompetitiveReport) -> dict:
    bound = next((report.bounds[k] for k in _APPS[spec.app].bound_keys
                  if k in report.bounds), None)
    return {
        "app": spec.app, "algorithm": algo.name, "sweep_axis": spec.sweep_axis,
        "sweep_value": float(sweep_value), "seed": seed,
        "val": report.val, "opt": report.opt, "ratio": report.ratio,
        "phi_star": report.phi_star, "switches": report.switch_count,
        "bound": bound, "flags": ";".join(report.flags),
    }


def run_experiment(spec: ExperimentSpec) -> tuple[list[dict], list[dict]]:
    """Produce one row per (algorithm, sweep point, seed) plus per-point
    aggregates.  Per-row failures are recorded in the row's flags and the
    run continues."""
    spec.validate()
    rows: list[dict] = []
    report_of = _APPS[spec.app].report
    for algo in spec.algorithms:
        for sweep_value in spec.grid:
            for seed in spec.seeds:
                try:
                    # No name holds the report, so its trajectory is freed
                    # before the next run starts.
                    rows.append(_row(spec, algo, sweep_value, seed,
                                     report_of(spec, algo, sweep_value, seed)))
                except Exception as exc:
                    log.warning("row failed: %s/%s@%s seed=%s: %s", spec.app,
                                algo.name, sweep_value, seed, exc)
                    rows.append({
                        "app": spec.app, "algorithm": algo.name,
                        "sweep_axis": spec.sweep_axis,
                        "sweep_value": float(sweep_value), "seed": seed,
                        "val": math.nan, "opt": math.nan, "ratio": None,
                        "phi_star": math.nan, "switches": 0, "bound": None,
                        "flags": f"error:{type(exc).__name__}",
                    })
    return rows, aggregate(rows)


def aggregate(rows: Sequence[dict]) -> list[dict]:
    """Mean ratio with standard error per (algorithm, sweep point), in
    first-appearance order."""
    groups: dict[tuple, list[float]] = {}
    order: list[tuple] = []
    for row in rows:
        key = (row["algorithm"], row["sweep_value"])
        if key not in groups:
            groups[key] = []
            order.append(key)
        if row["ratio"] is not None and not (isinstance(row["ratio"], float)
                                             and math.isnan(row["ratio"])):
            groups[key].append(row["ratio"])
    out = []
    for key in order:
        vals = groups[key]
        n = len(vals)
        mean = sum(vals) / n if n else math.nan
        if n > 1:
            var = sum((v - mean) ** 2 for v in vals) / (n - 1)
            stderr = math.sqrt(var / n)
        else:
            stderr = 0.0
        out.append({"algorithm": key[0], "sweep_value": key[1],
                    "mean_ratio": mean, "stderr": stderr, "rows": n})
    return out


# ---------------------------------------------------------------------------
# Emission


def emit_report(rows: Sequence[dict], aggregates: Sequence[dict], out_dir: str,
                formats: Sequence[str] = ("csv", "svg"),
                stem: str = "report") -> list[str]:
    import os

    os.makedirs(out_dir, exist_ok=True)
    written = []
    if "csv" in formats:
        path = os.path.join(out_dir, f"{stem}.csv")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(CSV_HEADER + "\n")
            for row in rows:
                fh.write(row_to_csv(row) + "\n")
        written.append(path)
        agg_path = os.path.join(out_dir, f"{stem}_aggregates.csv")
        with open(agg_path, "w", encoding="ascii") as fh:
            fh.write(AGGREGATE_HEADER + "\n")
            for a in aggregates:
                fh.write(",".join([a["algorithm"], _fmt(float(a["sweep_value"])),
                                   _fmt(a["mean_ratio"]), _fmt(a["stderr"]),
                                   str(a["rows"])]) + "\n")
        written.append(agg_path)
    if "svg" in formats:
        if not rows:
            raise ValueError("cannot plot an empty table")
        path = os.path.join(out_dir, f"{stem}.svg")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(render_plot(aggregates,
                                 xlabel=rows[0]["sweep_axis"],
                                 ylabel="competitive ratio"))
        written.append(path)
    return written


_PALETTE = ["#1f6fb2", "#d1495b", "#3a7d44", "#8d6a9f", "#c77d1e", "#4f6d7a"]


def render_plot(aggregates: Sequence[dict], xlabel: str, ylabel: str,
                width: int = 640, height: int = 420) -> str:
    """Minimal hand-rolled SVG: one mean +/- stderr line per algorithm."""
    series: dict[str, list[tuple[float, float, float]]] = {}
    for a in aggregates:
        if isinstance(a["mean_ratio"], float) and math.isnan(a["mean_ratio"]):
            continue
        series.setdefault(a["algorithm"], []).append(
            (a["sweep_value"], a["mean_ratio"], a["stderr"]))
    xs = [p[0] for pts in series.values() for p in pts]
    ys = []
    for pts in series.values():
        for _, m, s in pts:
            ys.extend([m - s, m + s])
    if not xs or not ys:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad_y = 0.05 * (y_hi - y_lo)
    y_lo -= pad_y
    y_hi += pad_y
    margin = 60

    def sx(x: float) -> float:
        return margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def sy(y: float) -> float:
        return height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
    ]
    for i in range(5):
        xv = x_lo + i * (x_hi - x_lo) / 4
        yv = y_lo + i * (y_hi - y_lo) / 4
        parts.append(f'<text x="{sx(xv):.1f}" y="{height - margin + 18}" '
                     f'font-size="11" text-anchor="middle">{xv:.3g}</text>')
        parts.append(f'<text x="{margin - 8}" y="{sy(yv):.1f}" font-size="11" '
                     f'text-anchor="end" dominant-baseline="middle">{yv:.3g}</text>')
    parts.append(f'<text x="{width / 2:.0f}" y="{height - 12}" font-size="13" '
                 f'text-anchor="middle">{xlabel}</text>')
    parts.append(f'<text x="16" y="{height / 2:.0f}" font-size="13" '
                 f'text-anchor="middle" transform="rotate(-90 16 {height / 2:.0f})">'
                 f'{ylabel}</text>')
    for idx, (label, pts) in enumerate(series.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = sorted(pts)
        coords = " ".join(f"{sx(x):.2f},{sy(m):.2f}" for x, m, _ in pts)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                     f'stroke-width="1.8"/>')
        for x, m, s in pts:
            parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(m):.2f}" r="2.6" '
                         f'fill="{color}"/>')
            if s > 0:
                parts.append(f'<line x1="{sx(x):.2f}" y1="{sy(m - s):.2f}" '
                             f'x2="{sx(x):.2f}" y2="{sy(m + s):.2f}" '
                             f'stroke="{color}" stroke-width="1"/>')
        parts.append(f'<rect x="{width - margin - 150}" y="{margin + 18 * idx}" '
                     f'width="12" height="4" fill="{color}"/>')
        parts.append(f'<text x="{width - margin - 132}" y="{margin + 18 * idx + 5}" '
                     f'font-size="12">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
