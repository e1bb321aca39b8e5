"""Named property suites: randomized and brute-force checks of the module
invariants, runnable from the command line (``validate <suite>``) and reused
by the test suite.

Every property returns a :class:`PropertyResult`; on failure the ``detail``
field carries a serialized counterexample sufficient to replay the check by
hand.  Trial counts scale with the ``scale`` argument so a time budget can
shrink the default sizes without skipping any property.
"""

from __future__ import annotations

import math
import random
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Callable

from . import kserver as ks
from . import oltq
from . import orra
from . import switching
from .framework import (
    MAXIMIZE,
    ProblemInstance,
    Trajectory,
    brute_force_opt,
    evaluate_trajectory,
    sequence_distance,
)
from .switching import (
    AdaSwitchConfig,
    OfflineOracle,
    OnlineOracle,
    OnlinePolicy,
    ResolveMonitor,
    run_adaswitch_exact,
    stream,
    theoretical_bound,
    threshold_table,
)


@dataclass
class PropertyResult:
    name: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        suffix = f"  [{self.detail}]" if (self.detail and not self.ok) else ""
        return f"{status} {self.name}{suffix}"


def _scaled(n: int, scale: float) -> int:
    return max(1, int(round(n * scale)))


# ---------------------------------------------------------------------------
# Random instance generators (shared with the tests).


def random_oltq_instance(rng: random.Random, max_ell: int = 4,
                         max_window: int = 8, max_total: int = 6
                         ) -> tuple[int, list[int]]:
    ell = rng.randint(2, max_ell)
    w = rng.randint(1, max_window)
    arrivals = [0] * w
    total = rng.randint(0, max_total)
    for _ in range(total):
        t = rng.randrange(w)
        if arrivals[t] < ell:
            arrivals[t] += 1
    return ell, arrivals


def random_oltq_prefix(rng: random.Random, problem: ProblemInstance, ell: int,
                       length: int) -> Trajectory:
    sim = problem.new_simulator()
    traj = Trajectory()
    for t in range(1, length + 1):
        e = rng.randint(0, min(2, ell))
        space = problem.action_space(t, e)
        a = space[rng.randrange(len(space))]
        r = sim.step(t, e, a)
        traj = traj.extended(e, a, r)
    return traj


def random_metric(rng: random.Random, n: int) -> ks.MetricSpace:
    if rng.random() < 0.3:
        return ks.MetricSpace.uniform([f"p{i}" for i in range(n)])
    # Manhattan distances between grid points with dyadic coordinates:
    # every distance is a multiple of 1/32, so sums of distances are exact
    # in binary floating point and "exact equality" checks are meaningful.
    pts = [(rng.randint(0, 8) / 16.0, rng.randint(0, 8) / 16.0) for _ in range(n)]
    names = [f"p{i}" for i in range(n)]
    dist = [[abs(pts[i][0] - pts[j][0]) + abs(pts[i][1] - pts[j][1])
             for j in range(n)] for i in range(n)]
    return ks.MetricSpace(names, dist)


def random_kserver_instance(rng: random.Random, max_n: int = 5, max_k: int = 3,
                            max_window: int = 7):
    n = rng.randint(2, max_n)
    k = rng.randint(1, min(max_k, n))
    metric = random_metric(rng, n)
    initial = ks.ServerConfig(tuple(rng.choice(metric.points) for _ in range(k)))
    w = rng.randint(1, max_window)
    requests = [rng.choice(metric.points) for _ in range(w)]
    return metric, initial, requests


def random_orra_requests(rng: random.Random, n: int, window: int) -> list[tuple]:
    return [tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(window)]


def _orra_rows(rng: random.Random, n: int, window: int, density: float) -> list[tuple]:
    return [tuple(int(rng.random() < density) for _ in range(n)) for _ in range(window)]


# ---------------------------------------------------------------------------
# framework suite


def prop_trajectory_replay(scale: float = 1.0, seed: int = 101) -> PropertyResult:
    """Replaying a trajectory's own actions reproduces its stored rewards."""
    rng = random.Random(seed)
    for trial in range(_scaled(40, scale)):
        ell, arrivals = random_oltq_instance(rng)
        problem = oltq.problem_instance(ell)
        reqs = oltq.make_requests(ell, arrivals)
        sim = problem.new_simulator()
        traj = Trajectory()
        for t in range(1, reqs.effective_length + 1):
            e = reqs.at(t)
            space = problem.action_space(t, e)
            a = space[rng.randrange(len(space))]
            traj = traj.extended(e, a, sim.step(t, e, a))
        replayed = evaluate_trajectory(problem, list(traj.requests), list(traj.actions))
        if replayed != traj.cumulative:
            return PropertyResult(
                "framework/trajectory-replay", False,
                f"ell={ell} arrivals={arrivals} actions={traj.actions} "
                f"stored={traj.cumulative} replayed={replayed}")
    return PropertyResult("framework/trajectory-replay", True)


def prop_brute_force_dominates(scale: float = 1.0, seed: int = 102) -> PropertyResult:
    """The exhaustive optimum dominates every random action sequence, in
    both objective senses."""
    rng = random.Random(seed)
    for trial in range(_scaled(30, scale)):
        ell, arrivals = random_oltq_instance(rng, max_window=5, max_total=4)
        problem = oltq.problem_instance(ell)
        reqs = oltq.make_requests(ell, arrivals)
        opt, _ = brute_force_opt(problem, reqs)
        window = reqs.window(1, reqs.effective_length)
        for _ in range(5):
            actions = [problem.action_space(t + 1, e)[
                rng.randrange(len(problem.action_space(t + 1, e)))]
                for t, e in enumerate(window)]
            val = evaluate_trajectory(problem, reqs, actions)
            if val > opt + 1e-9:
                return PropertyResult(
                    "framework/brute-force-dominates", False,
                    f"ell={ell} arrivals={arrivals} actions={actions} "
                    f"val={val} > opt={opt}")
        # minimize sense on the metric-service problem
        metric, initial, requests = random_kserver_instance(rng, max_n=4,
                                                            max_k=2,
                                                            max_window=4)
        kproblem = ks.problem_instance(metric, initial)
        kopt, _ = brute_force_opt(kproblem, requests)
        for _ in range(3):
            actions = [rng.randint(1, initial.k) for _ in requests]
            val = evaluate_trajectory(kproblem, requests, actions)
            if val < kopt - 1e-9:
                return PropertyResult(
                    "framework/brute-force-dominates", False,
                    f"min-sense: S={initial.positions} reqs={requests} "
                    f"actions={actions} val={val} < opt={kopt}")
    return PropertyResult("framework/brute-force-dominates", True)


def prop_observation_multi_swap(scale: float = 1.0, seed: int = 103) -> PropertyResult:
    """Swapping up to three requests moves the optimum by at most the summed
    per-request Lipschitz budgets."""
    rng = random.Random(seed)
    for trial in range(_scaled(25, scale)):
        ell, arrivals = random_oltq_instance(rng, max_window=5, max_total=4)
        problem = oltq.problem_instance(ell)
        w = len(arrivals)
        swapped = list(arrivals)
        n_swaps = rng.randint(1, min(3, w))
        for pos in rng.sample(range(w), n_swaps):
            swapped[pos] = rng.randint(0, ell)
        opt_a, _ = brute_force_opt(problem, oltq.make_requests(ell, arrivals))
        opt_b, _ = brute_force_opt(problem, oltq.make_requests(ell, swapped))
        budget = problem.reward_bound * sum(
            min(problem.lipschitz_u * abs(a - b), problem.lipschitz_v)
            for a, b in zip(arrivals, swapped))
        if abs(opt_a - opt_b) > budget + 1e-9:
            return PropertyResult(
                "framework/observation-multi-swap", False,
                f"ell={ell} a={arrivals} b={swapped} gap={abs(opt_a - opt_b)} "
                f"budget={budget}")
    return PropertyResult("framework/observation-multi-swap", True)


def prop_observation_iterative_resolve(scale: float = 1.0, seed: int = 104) -> PropertyResult:
    """Re-solving the optimum each period and executing only its first
    action achieves exactly the one-shot optimum."""
    rng = random.Random(seed)
    for trial in range(_scaled(20, scale)):
        ell, arrivals = random_oltq_instance(rng, max_window=5, max_total=4)
        problem = oltq.problem_instance(ell)
        reqs = oltq.make_requests(ell, arrivals)
        horizon = reqs.effective_length
        opt, _ = brute_force_opt(problem, reqs)
        sim = problem.new_simulator()
        traj = Trajectory()
        total = 0.0
        for t in range(1, horizon + 1):
            window = reqs.window(t, horizon)
            _, plan = brute_force_opt(problem, window, from_prefix=traj)
            a = plan[0]
            r = sim.step(t, reqs.at(t), a)
            traj = traj.extended(reqs.at(t), a, r)
            total += r
        if total != opt:
            return PropertyResult(
                "framework/observation-iterative-resolve", False,
                f"ell={ell} arrivals={arrivals} iterative={total} opt={opt}")
    return PropertyResult("framework/observation-iterative-resolve", True)


def prop_distance_profile(scale: float = 1.0, seed: int = 105) -> PropertyResult:
    """Tightening the cap only lowers the capped total (so it is maximal and
    equals the raw total once the cap clears every per-period distance)."""
    rng = random.Random(seed)
    for trial in range(_scaled(40, scale)):
        ell = rng.randint(2, 5)
        problem = oltq.problem_instance(ell)
        a = oltq.make_requests(ell, [rng.randint(0, ell) for _ in range(6)])
        b = oltq.make_requests(ell, [rng.randint(0, ell) for _ in range(rng.randint(3, 8))])
        caps = sorted(rng.uniform(0, ell + 1) for _ in range(3))
        totals = [sequence_distance(problem, a, b, cap=c).capped_total for c in caps]
        raw = sequence_distance(problem, a, b).raw_total
        if any(totals[i] > totals[i + 1] + 1e-9 for i in range(len(totals) - 1)) \
                or any(t > raw + 1e-9 for t in totals):
            return PropertyResult("framework/distance-profile", False,
                                  f"caps={caps} totals={totals} raw={raw}")
        profile = sequence_distance(problem, a, b, cap=float(ell))
        raw = sequence_distance(problem, a, b)
        if profile.capped_total != raw.raw_total:
            return PropertyResult(
                "framework/distance-profile", False,
                f"cap=ell={ell} capped={profile.capped_total} raw={raw.raw_total}")
    return PropertyResult("framework/distance-profile", True)


# ---------------------------------------------------------------------------
# oltq suite


def prop_ohrr_exactness(scale: float = 1.0, seed: int = 201,
                        trials: int = 150) -> PropertyResult:
    """The greedy sweep equals exhaustive search, with and without reserved
    prefixes."""
    rng = random.Random(seed)
    for trial in range(_scaled(trials, scale)):
        ell, arrivals = random_oltq_instance(rng)
        problem = oltq.problem_instance(ell)
        prefix = None
        prefix_len = 0
        if trial % 2:
            prefix_len = rng.randint(1, 3)
            prefix = random_oltq_prefix(rng, problem, ell, prefix_len)
        reqs = oltq.make_requests(ell, arrivals)
        window = [reqs.at(t) for t in range(1, reqs.effective_length + 1)]
        if not window:
            continue
        expected, _ = brute_force_opt(problem, window, from_prefix=prefix)
        sim = problem.new_simulator(prefix)
        got, plan = oltq.ohrr_star(sim, prefix_len + 1, window)
        replayed = evaluate_trajectory(problem, window, plan, from_prefix=prefix)
        if got != expected or replayed != expected:
            return PropertyResult(
                "oltq/ohrr-star-exactness", False,
                f"ell={ell} arrivals={arrivals} prefix={prefix} "
                f"greedy={got} replayed={replayed} brute={expected}")
    return PropertyResult("oltq/ohrr-star-exactness", True)


def prop_qfrac_robustness(scale: float = 1.0, seed: int = 202,
                          trials: int = 120) -> PropertyResult:
    """The online policy's value clears eta * Opt minus the restart slack
    (no slack at all from a fresh start)."""
    rng = random.Random(seed)
    for trial in range(_scaled(trials, scale)):
        ell, arrivals = random_oltq_instance(rng, max_total=6)
        # Mix in the dense adversarial family where the guarantee is tight.
        if trial % 3 == 0:
            arrivals = [ell] + [rng.randint(0, ell) for _ in range(6)]
        problem = oltq.problem_instance(ell)
        prefix = None
        m = 0
        if trial % 4 == 1:
            m = rng.randint(1, 2)
            prefix = random_oltq_prefix(rng, problem, ell, m)
        reqs = oltq.make_requests(ell, arrivals)
        horizon = reqs.effective_length
        if horizon == 0:
            continue
        window = reqs.window(1, horizon)
        oracle = oltq.QFracStarOracle(ell)
        sim = problem.new_simulator(prefix)
        policy = oracle.restart(sim, m)
        val = 0.0
        for i, e in enumerate(window):
            t = m + i + 1
            action = policy.act(t, e, random.Random(0))
            if len(action) != e:
                return PropertyResult(
                    "oltq/qfrac-star-robustness", False,
                    f"ell={ell} t={t} e={e} emitted {len(action)} entries: {action}")
            val += sim.step(t, e, action)
        # Opt via the greedy sweep, which is separately certified exact;
        # dense adversarial instances overflow exhaustive search.
        opt, _ = oltq.ohrr_star(problem.new_simulator(prefix), m + 1, window)
        slack = 2.0 * ell * ell if m else 0.0
        if val < oracle.eta * opt - slack - 1e-9:
            return PropertyResult(
                "oltq/qfrac-star-robustness", False,
                f"ell={ell} m={m} arrivals={arrivals} val={val} "
                f"eta*opt-slack={oracle.eta * opt - slack}")
    return PropertyResult("oltq/qfrac-star-robustness", True)


def prop_qfrac_schedule_state(scale: float = 1.0, seed: int = 203) -> PropertyResult:
    """The online policy never quotes a past slot nor reuses one of its own."""
    rng = random.Random(seed)
    for trial in range(_scaled(60, scale)):
        ell = rng.randint(1, 6)
        oracle = oltq.QFracStarOracle(ell)
        m = rng.randint(0, 3)
        policy = oracle.restart(oltq.OltqSimulator(ell), m)
        used: set[int] = set()
        for t in range(m + 1, m + 12):
            e = rng.randint(0, ell)
            action = policy.act(t, e, random.Random(0))
            for slot in action:
                if slot is oltq.DECLINE or math.isinf(slot):
                    continue
                if slot < t or slot > t + ell - 1 or slot in used:
                    return PropertyResult(
                        "oltq/qfrac-star-schedule-state", False,
                        f"ell={ell} m={m} t={t} e={e} slot={slot} used={sorted(used)}")
                used.add(slot)
    return PropertyResult("oltq/qfrac-star-schedule-state", True)


def prop_alpha_gamma(scale: float = 1.0, seed: int = 204) -> PropertyResult:
    """The baseline consistency curve is nonincreasing and starts at 1."""
    for ell in (2, 3, 5, 20, 50):
        grid = [i / 100 for i in range(1, int(100 * oltq.eta_oltq(ell)))]
        values = [oltq.alpha_of_gamma(ell, g) for g in grid]
        if any(values[i] < values[i + 1] - 1e-12 for i in range(len(values) - 1)):
            return PropertyResult("oltq/alpha-gamma-curve", False,
                                  f"ell={ell} not nonincreasing: {values}")
        if oltq.alpha_of_gamma(ell, 1e-9) != 1.0:
            return PropertyResult("oltq/alpha-gamma-curve", False,
                                  f"ell={ell} alpha(0+) != 1")
    return PropertyResult("oltq/alpha-gamma-curve", True)


def prop_oltq_constants(scale: float = 1.0, seed: int = 205,
                        trials: int = 120) -> PropertyResult:
    """Empirical influence/Lipschitz maxima never exceed the lead-time
    constants (2*ell and (1, ell))."""
    rng = random.Random(seed)
    for trial in range(_scaled(trials, scale)):
        ell, arrivals = random_oltq_instance(rng, max_window=4, max_total=4)
        problem = oltq.problem_instance(ell)
        m = rng.randint(1, 2)
        pa = random_oltq_prefix(rng, problem, ell, m)
        pb = random_oltq_prefix(rng, problem, ell, m)
        window = arrivals
        opt_a, _ = brute_force_opt(problem, window, from_prefix=pa)
        opt_b, _ = brute_force_opt(problem, window, from_prefix=pb)
        if abs(opt_a - opt_b) / problem.reward_bound > problem.influence_f + 1e-9:
            return PropertyResult(
                "oltq/bounded-influence-constant", False,
                f"ell={ell} window={window} gap={abs(opt_a - opt_b)}")
        if window:
            pos = rng.randrange(len(window))
            swapped = list(window)
            swapped[pos] = rng.randint(0, ell)
            prefix = pa if trial % 2 else None
            oa, _ = brute_force_opt(problem, window, from_prefix=prefix)
            ob, _ = brute_force_opt(problem, swapped, from_prefix=prefix)
            budget = problem.reward_bound * min(
                problem.lipschitz_u * abs(window[pos] - swapped[pos]),
                problem.lipschitz_v)
            if abs(oa - ob) > budget + 1e-9:
                return PropertyResult(
                    "oltq/bounded-influence-constant", False,
                    f"ell={ell} window={window} swapped={swapped} "
                    f"gap={abs(oa - ob)} budget={budget}")
    return PropertyResult("oltq/bounded-influence-constant", True)


def prop_adaswitch_oltq_bounds(scale: float = 1.0, seed: int = 206,
                               trials: int = 25) -> PropertyResult:
    """Per-run ratio clears the closed-form exact-oracle and lead-time bounds
    (both oracles deterministic, so per run rather than in expectation)."""
    rng = random.Random(seed)
    for trial in range(_scaled(trials, scale)):
        ell = rng.randint(2, 3)
        T = rng.randint(4, 18)
        arrivals = [rng.randint(0, ell) for _ in range(T)]
        pred = [rng.randint(0, ell) for _ in range(T)] if trial % 2 else list(arrivals)
        eta = oltq.eta_oltq(ell)
        epsilon = rng.uniform(0.1, 0.9) * eta
        report = oltq.adaswitch_oltq(ell, arrivals, pred, epsilon, seed=seed + trial)
        if report.ratio_undefined:
            continue
        for name in ("T1", "T5"):
            bound = report.bounds.get(name)
            if bound is not None and report.ratio < bound - 1e-9:
                return PropertyResult(
                    "oltq/adaswitch-per-run-bounds", False,
                    f"ell={ell} arrivals={arrivals} pred={pred} eps={epsilon} "
                    f"ratio={report.ratio} < {name}={bound}")
    return PropertyResult("oltq/adaswitch-per-run-bounds", True)


# ---------------------------------------------------------------------------
# kserver suite


def prop_kserver_offline_exactness(scale: float = 1.0, seed: int = 301,
                                   trials: int = 60) -> PropertyResult:
    """The flow reduction reproduces the exhaustive optimum."""
    rng = random.Random(seed)
    for trial in range(_scaled(trials, scale)):
        metric, initial, requests = random_kserver_instance(rng)
        problem = ks.problem_instance(metric, initial)
        expected, _ = brute_force_opt(problem, requests)
        got, actions = ks.offline_kserver(metric, initial.positions, requests)
        replayed = evaluate_trajectory(problem, requests, actions)
        if abs(got - expected) > 1e-9 or abs(replayed - got) > 1e-9:
            return PropertyResult(
                "kserver/offline-flow-exactness", False,
                f"metric={metric.points} dist={metric.dist} S={initial.positions} "
                f"reqs={requests} flow={got} brute={expected}")
    return PropertyResult("kserver/offline-flow-exactness", True)


def prop_lazy_dominance(scale: float = 1.0, seed: int = 302) -> PropertyResult:
    """Converting a multi-move policy to a lazy one never costs more."""
    rng = random.Random(seed)
    for trial in range(_scaled(40, scale)):
        metric, initial, requests = random_kserver_instance(rng, max_n=4, max_k=3,
                                                            max_window=5)
        k = initial.k
        # A multi-move policy: random configurations covering each request.
        virtual = list(initial.positions)
        lazy = list(initial.positions)
        multi_cost = 0.0
        lazy_cost = 0.0
        for e in requests:
            target = [rng.choice(metric.points) for _ in range(k)]
            serve = rng.randrange(k)
            target[serve] = e
            multi_cost += sum(metric.d(virtual[i], target[i]) for i in range(k))
            virtual = target
            lazy_cost += metric.d(lazy[serve], e)
            lazy[serve] = e
        if lazy_cost > multi_cost + 1e-9:
            return PropertyResult(
                "kserver/lazy-dominance", False,
                f"S={initial.positions} reqs={requests} lazy={lazy_cost} "
                f"multi={multi_cost}")
    return PropertyResult("kserver/lazy-dominance", True)


def prop_config_distance_metric(scale: float = 1.0, seed: int = 303) -> PropertyResult:
    """Transport distance between configurations is a metric."""
    rng = random.Random(seed)
    for trial in range(_scaled(50, scale)):
        metric = random_metric(rng, rng.randint(2, 5))
        k = rng.randint(1, 3)
        a = tuple(rng.choice(metric.points) for _ in range(k))
        b = tuple(rng.choice(metric.points) for _ in range(k))
        c = tuple(rng.choice(metric.points) for _ in range(k))
        dab = ks.config_distance(metric, a, b)
        dba = ks.config_distance(metric, b, a)
        dac = ks.config_distance(metric, a, c)
        dcb = ks.config_distance(metric, c, b)
        if abs(dab - dba) > 1e-9 or dab > dac + dcb + 1e-9:
            return PropertyResult(
                "kserver/config-distance-metric", False,
                f"a={a} b={b} c={c} dab={dab} dba={dba} dac+dcb={dac + dcb}")
        if a == b and dab != 0.0:
            return PropertyResult("kserver/config-distance-metric", False,
                                  f"identity fails on {a}")
    return PropertyResult("kserver/config-distance-metric", True)


def prop_wfa_guarantee(scale: float = 1.0, seed: int = 304,
                       trials: int = 25) -> PropertyResult:
    """Lazy work-function trajectories stay within (2k-1) times optimum."""
    rng = random.Random(seed)
    for trial in range(_scaled(trials, scale)):
        metric, initial, requests = random_kserver_instance(rng, max_n=4, max_k=3,
                                                            max_window=7)
        k = initial.k
        opt, _ = ks.offline_kserver(metric, initial.positions, requests)
        sim = ks.KserverSimulator(metric, initial.positions)
        policy = ks.WfaOracle(metric, k).restart(sim, 0)
        cost = 0.0
        for t, e in enumerate(requests, start=1):
            a = policy.act(t, e, random.Random(0))
            cost += sim.step(t, e, a)
        if cost > (2 * k - 1) * opt + 1e-9:
            return PropertyResult(
                "kserver/wfa-competitive", False,
                f"S={initial.positions} reqs={requests} dist={metric.dist} "
                f"wfa={cost} opt={opt} k={k}")
    return PropertyResult("kserver/wfa-competitive", True)


def prop_kserver_prefix_equivalence(scale: float = 1.0, seed: int = 305) -> PropertyResult:
    """Conditioning on a prefix equals restarting from the post-prefix
    configuration, and initial-state changes shift the optimum by at most
    the configuration distance."""
    rng = random.Random(seed)
    for trial in range(_scaled(30, scale)):
        metric, initial, requests = random_kserver_instance(rng, max_n=4, max_k=2,
                                                            max_window=5)
        problem = ks.problem_instance(metric, initial)
        m = rng.randint(1, 3)
        sim = problem.new_simulator()
        traj = Trajectory()
        for t in range(1, m + 1):
            e = rng.choice(metric.points)
            a = rng.randint(1, initial.k)
            traj = traj.extended(e, a, sim.step(t, e, a))
        opt_cond, _ = brute_force_opt(problem, requests, from_prefix=traj)
        opt_fresh, _ = ks.offline_kserver(metric, sim.positions, requests)
        if abs(opt_cond - opt_fresh) > 1e-9:
            return PropertyResult(
                "kserver/prefix-equivalence", False,
                f"prefix={traj.requests}/{traj.actions} reqs={requests} "
                f"cond={opt_cond} fresh={opt_fresh}")
        other = [rng.choice(metric.points) for _ in range(initial.k)]
        opt_other, _ = ks.offline_kserver(metric, other, requests)
        shift = sum(metric.d(p, q) for p, q in zip(sim.positions, other))
        if abs(opt_fresh - opt_other) > shift + 1e-9:
            return PropertyResult(
                "kserver/prefix-equivalence", False,
                f"S={sim.positions} S'={other} reqs={requests} "
                f"|{opt_fresh}-{opt_other}| > {shift}")
    return PropertyResult("kserver/prefix-equivalence", True)


def prop_kserver_constants(scale: float = 1.0, seed: int = 306,
                           trials: int = 40) -> PropertyResult:
    """Empirical influence/Lipschitz maxima never exceed k and (2, 2)."""
    rng = random.Random(seed)
    for trial in range(_scaled(trials, scale)):
        metric, initial, requests = random_kserver_instance(rng, max_n=4, max_k=3,
                                                            max_window=4)
        problem = ks.problem_instance(metric, initial)
        m = rng.randint(1, 2)

        def prefix():
            sim = problem.new_simulator()
            traj = Trajectory()
            for t in range(1, m + 1):
                e = rng.choice(metric.points)
                a = rng.randint(1, initial.k)
                traj = traj.extended(e, a, sim.step(t, e, a))
            return traj

        pa, pb = prefix(), prefix()
        oa, _ = brute_force_opt(problem, requests, from_prefix=pa)
        ob, _ = brute_force_opt(problem, requests, from_prefix=pb)
        if abs(oa - ob) / problem.reward_bound > problem.influence_f + 1e-9:
            return PropertyResult(
                "kserver/constants", False,
                f"influence gap {abs(oa - ob)} > k={problem.influence_f}")
        if requests:
            pos = rng.randrange(len(requests))
            swapped = list(requests)
            swapped[pos] = rng.choice(metric.points)
            o1, _ = brute_force_opt(problem, requests, from_prefix=pa)
            o2, _ = brute_force_opt(problem, swapped, from_prefix=pa)
            budget = min(2.0 * metric.d(requests[pos], swapped[pos]), 2.0)
            if abs(o1 - o2) > budget + 1e-9:
                return PropertyResult(
                    "kserver/constants", False,
                    f"lipschitz gap {abs(o1 - o2)} > {budget} on swap "
                    f"{requests[pos]}->{swapped[pos]}")
    return PropertyResult("kserver/constants", True)


def prop_kserver_monitor_matches_flow(scale: float = 1.0, seed: int = 307,
                                      trials: int = 40) -> PropertyResult:
    """The oracle's window monitor and whole-window value equal the flow
    optimum on every prefix: exactly on uniform metrics (empty requests
    included), within 1e-9 on general metrics, and also where the oracle
    falls back to re-solving the flow (k = 7)."""
    name = "kserver/monitor-matches-flow"
    rng = random.Random(seed)
    cases = []  # (metric, positions, window, tolerance, expect the fallback)
    for trial in range(_scaled(trials, scale)):
        n = rng.randint(2, 5)
        metric = ks.MetricSpace.uniform([f"p{i}" for i in range(n)])
        positions = tuple(rng.choice(metric.points) for _ in range(rng.randint(1, 3)))
        window = [rng.choice(metric.points) if rng.random() < 0.8 else ks.BOT
                  for _ in range(rng.randint(1, 12))]
        cases.append((metric, positions, window, 0.0, False))
        metric, initial, requests = random_kserver_instance(rng, max_window=10)
        cases.append((metric, initial.positions, requests, 1e-9, False))
    metric = ks.MetricSpace.uniform([f"p{i}" for i in range(9)])
    cases.append((metric, metric.points[:7],
                  [rng.choice(metric.points) for _ in range(6)] + [ks.BOT], 0.0, True))
    for metric, positions, window, tol, fallback in cases:
        oracle = ks.KserverOfflineOracle(metric)
        sim = ks.KserverSimulator(metric, positions)
        monitor = oracle.monitor(sim, 1)
        if isinstance(monitor, ResolveMonitor) != fallback:
            return PropertyResult(
                name, False, f"k={len(positions)} n={len(metric.points)}: got "
                f"{type(monitor).__name__}, fallback expected={fallback}")
        for m in range(1, len(window) + 1):
            watched = monitor.append(m, window[m - 1])
            whole = oracle.value(sim.clone(), 1, window[:m])
            flow, _ = ks.offline_kserver(metric, positions, window[:m])
            if abs(watched - flow) > tol or abs(whole - flow) > tol:
                return PropertyResult(
                    name, False,
                    f"dist={metric.dist} S={positions} window={window[:m]} "
                    f"monitor={watched!r} value={whole!r} flow={flow!r}")
    return PropertyResult(name, True)


# ---------------------------------------------------------------------------
# orra suite


def prop_orra_dp_exactness(scale: float = 1.0, seed: int = 401,
                           seeds_per_cell: int = 3) -> PropertyResult:
    """Grid sweep n <= 3, d <= 3, window <= 8: the DP equals exhaustive
    search (and enumerates all patterns where that is feasible)."""
    rng = random.Random(seed)
    per_cell = _scaled(seeds_per_cell, scale)
    for n in range(1, 4):
        for d in range(1, 4):
            params = orra.OrraParams(n, d)
            problem = orra.problem_instance(params)
            for w in range(1, 9):
                patterns = []
                if n == 1 and w <= 6:
                    patterns = [[(b >> i) & 1 for i in range(w)] for b in range(2 ** w)]
                    patterns = [[(x,) for x in p] for p in patterns]
                else:
                    for _ in range(per_cell):
                        patterns.append(random_orra_requests(rng, n, w))
                for pat in patterns:
                    expected, _ = brute_force_opt(problem, pat)
                    got, actions = orra.orra_offline_dp(
                        params, orra.AvailabilityVector.fresh(n), 1, pat)
                    replayed = evaluate_trajectory(problem, pat, actions)
                    if got != expected or replayed != expected:
                        return PropertyResult(
                            "orra/dp-exactness", False,
                            f"n={n} d={d} pattern={pat} dp={got} "
                            f"replayed={replayed} brute={expected}")
    return PropertyResult("orra/dp-exactness", True)


def prop_orra_busy_resource(scale: float = 1.0, seed: int = 402) -> PropertyResult:
    """A resource serving at t cannot serve again before t + d."""
    rng = random.Random(seed)
    for trial in range(_scaled(60, scale)):
        n, d = rng.randint(1, 3), rng.randint(1, 4)
        params = orra.OrraParams(n, d)
        sim = orra.OrraSimulator(params)
        last_served = [None] * n
        for t in range(1, 15):
            e = tuple(rng.randint(0, 1) for _ in range(n))
            a = rng.randint(0, n)
            r = sim.step(t, e, a)
            if r == 1.0:
                i = a - 1
                if last_served[i] is not None and t < last_served[i] + d:
                    return PropertyResult(
                        "orra/busy-resource", False,
                        f"n={n} d={d} resource {a} reserved at "
                        f"{last_served[i]} and again at {t}")
                last_served[i] = t
    return PropertyResult("orra/busy-resource", True)


def prop_orra_lipschitz(scale: float = 1.0, seed: int = 403,
                        trials: int = 40) -> PropertyResult:
    """One swapped request moves any fixed action sequence's value by at
    most 1 and any window optimum by at most d."""
    rng = random.Random(seed)
    for trial in range(_scaled(trials, scale)):
        n, d = rng.randint(1, 3), rng.randint(1, 3)
        params = orra.OrraParams(n, d)
        problem = orra.problem_instance(params)
        w = rng.randint(1, 6)
        reqs = random_orra_requests(rng, n, w)
        actions = [rng.randint(0, n) for _ in range(w)]
        pos = rng.randrange(w)
        swapped = list(reqs)
        swapped[pos] = tuple(rng.randint(0, 1) for _ in range(n))
        va = evaluate_trajectory(problem, reqs, actions)
        vb = evaluate_trajectory(problem, swapped, actions)
        if abs(va - vb) > 1.0 + 1e-9:
            return PropertyResult(
                "orra/strong-lipschitz", False,
                f"n={n} d={d} reqs={reqs} swapped={swapped} actions={actions} "
                f"|{va}-{vb}| > 1")
        # prefix substitution shifts the window optimum by at most d
        m = rng.randint(1, 3)
        pa = Trajectory()
        pb = Trajectory()
        sa, sb = problem.new_simulator(), problem.new_simulator()
        for t in range(1, m + 1):
            ea = tuple(rng.randint(0, 1) for _ in range(n))
            eb = tuple(rng.randint(0, 1) for _ in range(n))
            aa, ab = rng.randint(0, n), rng.randint(0, n)
            pa = pa.extended(ea, aa, sa.step(t, ea, aa))
            pb = pb.extended(eb, ab, sb.step(t, eb, ab))
        oa, _ = brute_force_opt(problem, reqs, from_prefix=pa)
        ob, _ = brute_force_opt(problem, reqs, from_prefix=pb)
        if abs(oa - ob) > d + 1e-9:
            return PropertyResult(
                "orra/strong-lipschitz", False,
                f"n={n} d={d} prefixes differ optimum by {abs(oa - ob)} > d")
    return PropertyResult("orra/strong-lipschitz", True)


def prop_prr_prefix_oblivious(scale: float = 1.0, seed: int = 404) -> PropertyResult:
    """After its reset the re-ranking policy ignores what the prefix was:
    equal prefix lengths and seeds give identical actions from m + d on."""
    rng = random.Random(seed)
    for trial in range(_scaled(25, scale)):
        n, d = rng.randint(1, 3), rng.randint(2, 4)
        params = orra.OrraParams(n, d)
        m = rng.randint(1, 4)
        window = random_orra_requests(rng, n, 10)
        actions = []
        for variant in range(2):
            sim = orra.OrraSimulator(params)
            for t in range(1, m + 1):
                e = tuple(rng.randint(0, 1) for _ in range(n))
                sim.step(t, e, rng.randint(0, n))
            policy = orra.PrrStarPolicy(params, m)
            acts = []
            for i, e in enumerate(window):
                t = m + 1 + i
                acts.append(policy.act(t, e, stream(seed + trial, "online", m + 1, t)))
            actions.append(acts)
        if actions[0] != actions[1]:
            return PropertyResult(
                "orra/prr-prefix-oblivious", False,
                f"n={n} d={d} m={m} window={window} {actions[0]} != {actions[1]}")
    return PropertyResult("orra/prr-prefix-oblivious", True)


# ---------------------------------------------------------------------------
# adaswitch suite


def prop_threshold_formulas(scale: float = 1.0, seed: int = 501) -> PropertyResult:
    """Threshold table matches the written-out formulas on random tuples."""
    rng = random.Random(seed)
    for trial in range(20):
        eta = rng.uniform(0.2, 0.95)
        eps = rng.uniform(0.05, 0.9) * eta
        b = rng.uniform(1.0, 3.0)
        c = b + rng.uniform(0.0, 5.0)
        L = rng.uniform(0.5, 10.0)
        gamma = rng.uniform(0.3, 1.0)
        alpha = max(3.0, gamma * (eta - 15 * eps / 16) /
                    max(gamma - (eta - 15 * eps / 16), 1e-3)) + rng.uniform(0, 2)
        config = AdaSwitchConfig(eps, b, c, alpha=alpha)
        cases = [
            ("max", "exact", 10 * c * L / eps, 2 * c / (eta * b)),
            ("max", "gamma", 16 * eta / eps * alpha * c * L,
             gamma * alpha / ((eta - 15 * eps / 16) * (alpha + gamma)) * 5 * alpha * c / b),
            ("min", "exact", 10 * (eta + eps) * c * L / eps, 2 * (eta + eps) * c / b),
            ("min", "gamma", 18 * eta / eps * (eta + eps) * gamma * alpha * c * L,
             5 * (eta + eps) * alpha * c / b),
        ]
        for objective, kind, s_exp, phi_exp in cases:
            thr = threshold_table(config, objective, kind, eta, gamma, L)
            if not (math.isclose(thr.conservative_exit, s_exp, rel_tol=1e-12)
                    and math.isclose(thr.predictive_exit, phi_exp, rel_tol=1e-12)):
                return PropertyResult(
                    "adaswitch/threshold-formulas", False,
                    f"config={config} {kind}-{objective} got=({thr.conservative_exit},"
                    f"{thr.predictive_exit}) want=({s_exp},{phi_exp})")
    return PropertyResult("adaswitch/threshold-formulas", True)


def prop_switch_count_bound(scale: float = 1.0, seed: int = 502,
                            trials: int = 30) -> PropertyResult:
    """Reverts to conservative are bounded by 1 + eta*b*phi*/(2c)."""
    rng = random.Random(seed)
    for trial in range(_scaled(trials, scale)):
        ell = rng.randint(2, 3)
        T = rng.randint(6, 25)
        arrivals = [rng.randint(0, ell) for _ in range(T)]
        pred = [rng.randint(0, ell) for _ in range(T)]
        eta = oltq.eta_oltq(ell)
        report = oltq.adaswitch_oltq(ell, arrivals, pred, epsilon=0.8 * eta,
                                     seed=seed + trial)
        limit = 1.0 + report.eta * report.b * report.phi_star / (2.0 * report.c)
        if report.switch_count > limit + 1e-9:
            return PropertyResult(
                "adaswitch/switch-count-bound", False,
                f"ell={ell} arrivals={arrivals} pred={pred} "
                f"switches={report.switch_count} > {limit}")
    return PropertyResult("adaswitch/switch-count-bound", True)


def _predictive_epochs(report) -> list[tuple[int, int]]:
    spans = []
    horizon = report.trajectory.m
    for i, (start, mode) in enumerate(report.epochs):
        end = (report.epochs[i + 1][0] - 1) if i + 1 < len(report.epochs) else horizon
        if mode == "predictive" and start <= end:
            spans.append((start, end))
    return spans


def prop_predictive_phase_regret(scale: float = 1.0, seed: int = 503,
                                 trials: int = 25) -> PropertyResult:
    """Within each predictive phase, realized value trails the phase optimum
    by at most 2bL * (capped error) + cL; with a perfect prediction the
    phase actions alone are exactly optimal for their window."""
    rng = random.Random(seed)
    for trial in range(_scaled(trials, scale)):
        ell = 2
        T = rng.randint(5, 10)
        arrivals = [rng.randint(0, ell) for _ in range(T)]
        perfect = trial % 2 == 0
        pred = list(arrivals) if perfect else [rng.randint(0, ell) for _ in range(T)]
        report = oltq.adaswitch_oltq(ell, arrivals, pred, epsilon=0.45, seed=seed + trial)
        problem = oltq.problem_instance(ell)
        reqs = oltq.make_requests(ell, arrivals)
        prediction = oltq.make_requests(ell, pred)
        traj = report.trajectory
        for start, end in _predictive_epochs(report):
            prefix = Trajectory(traj.requests[:start - 1], traj.actions[:start - 1],
                                traj.rewards[:start - 1])
            window = reqs.window(start, end)
            if not window:
                continue
            try:
                phase_opt, _ = brute_force_opt(problem, window, from_prefix=prefix)
            except Exception:
                continue  # window too large to certify; skip, don't weaken
            phase_val = sum(traj.rewards[start - 1:end])
            dhat = sum(min(problem.distance_fn(reqs.at(t), prediction.at(t)),
                           report.c / report.b) for t in range(start, end + 1))
            slack = 2 * report.b * problem.reward_bound * dhat \
                + report.c * problem.reward_bound
            if phase_val < phase_opt - slack - 1e-9:
                return PropertyResult(
                    "adaswitch/predictive-phase-regret", False,
                    f"arrivals={arrivals} pred={pred} phase=({start},{end}) "
                    f"val={phase_val} opt={phase_opt} slack={slack}")
            if perfect and phase_val != phase_opt:
                return PropertyResult(
                    "adaswitch/predictive-phase-regret", False,
                    f"perfect prediction but phase ({start},{end}) "
                    f"val={phase_val} != opt={phase_opt}")
    return PropertyResult("adaswitch/predictive-phase-regret", True)


def prop_bound_arithmetic(scale: float = 1.0, seed: int = 504) -> PropertyResult:
    """Spot values of the closed-form bounds."""
    t1 = theoretical_bound("T1", eta=0.6, epsilon=0.1, c=3.0, L=2.0, b=1.0,
                           opt=1000.0, phi_star=0.0)
    if not math.isclose(t1, 0.5, rel_tol=1e-12):
        return PropertyResult("adaswitch/bound-arithmetic", False, f"T1={t1} != 0.5")
    t1_large = theoretical_bound("T1", eta=0.6, epsilon=0.1, c=3.0, L=2.0, b=1.0,
                                 opt=1e15, phi_star=0.0)
    if not t1_large > 1 - 1e-6:
        return PropertyResult("adaswitch/bound-arithmetic", False,
                              f"T1 limit {t1_large} not near 1")
    t5 = theoretical_bound("T5", eta=0.6, epsilon=0.2, ell=20.0, opt=1e6,
                           phi_star=0.0)
    if not math.isclose(t5, 0.952, rel_tol=1e-12):
        return PropertyResult("adaswitch/bound-arithmetic", False, f"T5={t5} != 0.952")
    return PropertyResult("adaswitch/bound-arithmetic", True)


@contextmanager
def _full_mc_mean():
    """Within the block the gamma runner's Monte Carlo check runs every
    rollout: the threshold it passes to ``_mc_estimate`` is dropped."""
    original = switching._mc_estimate

    def full(*args, threshold=None, **kwargs):
        return original(*args, **kwargs)

    switching._mc_estimate = full
    try:
        yield
    finally:
        switching._mc_estimate = original


class _RandomServerOracle(OnlineOracle, OnlinePolicy):
    """Moves a uniformly random server to each request.  On a line metric
    with coordinates such as 0.1 and 0.7 its costs are not binary
    fractions, so Monte Carlo running totals round."""

    deterministic = False

    def __init__(self, k: int):
        self.k = k

    def restart(self, sim, m):
        return self

    def act(self, t, request, rng):
        return rng.randint(1, self.k)


def _mc_windows(rng: random.Random, count: int):
    """Random (problem, snapshot, window, online oracle, tau) Monte Carlo
    inputs after a random prefix, over short windows: ORRA under the
    re-ranking policy, uniform caching under marking, and a line metric
    under random servers."""
    line = (0.0, 0.1, 0.3, 0.7, 1.0)
    line_metric = ks.MetricSpace([f"x{j}" for j in range(len(line))],
                                 [[abs(a - b) for b in line] for a in line])
    for i in range(count):
        m = rng.randint(0, 4)
        w = rng.randint(1, 6)
        if i % 3 == 0:
            params = orra.OrraParams(rng.randint(2, 4), rng.randint(1, 3))
            problem = orra.problem_instance(params)
            online = orra.PrrStarOracle(params)
            dens = rng.uniform(0.1, 0.9)
            draw = lambda: _orra_rows(rng, params.n, 1, dens)[0]
        else:
            if i % 3 == 1:
                metric = ks.MetricSpace.uniform([f"p{j}" for j in range(rng.randint(3, 5))])
                online = ks.MarkingOracle(metric, 2)
            else:
                metric, online = line_metric, _RandomServerOracle(2)
                w = rng.randint(1, 2)  # short, so some rollouts cost nothing
            problem = ks.problem_instance(metric, ks.ServerConfig(metric.points[:2]))
            draw = lambda: rng.choice(metric.points)
        sim = problem.new_simulator()
        for t in range(1, m + 1):
            e = draw()
            space = problem.action_space(t, e)
            sim.step(t, e, space[rng.randrange(len(space))])
        yield problem, sim, [draw() for _ in range(w)], online, m + 1


def prop_mc_early_exit_matches_full(scale: float = 1.0, seed: int = 505,
                                    trials: int = 4) -> PropertyResult:
    """Settling the Monte Carlo threshold test early never changes it.

    Directly: ``_mc_estimate`` with a threshold answers ``value >=
    threshold`` as the full mean does, for thresholds at, one ulp either
    side of, within the guard band of, and far from a computed mean.  End
    to end: the gamma runner on random ORRA instances whose windows cross
    the conservative exit gives the same report and actions as with every
    rollout run."""
    name = "adaswitch/mc-early-exit-matches-full"
    rng = random.Random(seed)
    for problem, snapshot, window, online, tau in _mc_windows(rng, _scaled(120, scale)):
        t = tau + len(window) - 1 + rng.randint(1, 3)  # budget t^5 >= 32 > cap
        config = AdaSwitchConfig(0.2, 1.0, 1.0, seed=rng.randrange(1000),
                                 monte_carlo_cap=rng.randint(2, 12))
        mean, _ = switching._mc_estimate(problem, snapshot, window, online,
                                         tau, t, config)
        top = len(window) * problem.reward_bound
        for thr in (mean, math.nextafter(mean, math.inf),
                    math.nextafter(mean, -math.inf), mean * (1 + 1e-10),
                    mean * (1 - 1e-10), mean / 2, (mean + top) / 2, top / 2,
                    top, 0.0):
            settled, _ = switching._mc_estimate(problem, snapshot, window, online,
                                                tau, t, config, threshold=thr)
            if (settled >= thr) != (mean >= thr):
                return PropertyResult(
                    name, False,
                    f"{problem.name} window={window} tau={tau} t={t} "
                    f"n={config.monte_carlo_cap} seed={config.seed} "
                    f"mean={mean!r} threshold={thr!r} settled={settled!r}")
    crossed = 0
    for trial in range(_scaled(trials, scale)):
        n, T = rng.choice((2, 3, 4)), rng.randint(220, 300)
        dens = rng.uniform(0.3, 0.7)
        epsilon = rng.choice((0.45, 0.55, 0.58))
        params = orra.OrraParams(n, 2)
        reqs = _orra_rows(rng, n, T, dens)
        if trial % 2:  # an unrelated prediction, so the error budget runs out
            pred = _orra_rows(rng, n, T, dens)
        else:
            pred = [tuple(x ^ (rng.random() < 0.1) for x in e) for e in reqs]
        runs = []
        for full in (False, True):
            with _full_mc_mean() if full else nullcontext():
                report = orra.adaswitch_orra(params, reqs, pred, epsilon,
                                             seed=seed + trial, monte_carlo_cap=32)
            runs.append((report.val, report.epochs, report.switch_count,
                         report.mc_deviation, report.fallback_fired,
                         report.trajectory.actions))
        if runs[0] != runs[1]:
            return PropertyResult(
                name, False,
                f"n={n} T={T} epsilon={epsilon} seed={seed + trial} reqs={reqs} "
                f"pred={pred} early={runs[0][:5]} full={runs[1][:5]}")
        crossed += len(runs[0][1]) > 1
    if not crossed:
        return PropertyResult(name, False, "no run crossed the conservative exit")
    return PropertyResult(name, True)


def prop_step_values_within_reward_bound(scale: float = 1.0, seed: int = 506,
                                         trials: int = 30) -> PropertyResult:
    """Every simulator step value lies in [0, reward_bound], under the
    online policy and under random valid actions, on random lead-time,
    ORRA and caching instances (the Monte Carlo early exit relies on it)."""
    name = "adaswitch/step-values-within-reward-bound"
    rng = random.Random(seed)
    for trial in range(_scaled(trials, scale)):
        ell = rng.randint(2, 4)
        params = orra.OrraParams(rng.randint(1, 4), rng.randint(1, 3))
        orra_dens = rng.uniform(0.2, 0.9)
        metric = ks.MetricSpace.uniform([f"p{j}" for j in range(rng.randint(2, 6))])
        k = rng.randint(1, len(metric.points))
        cases = [
            (oltq.problem_instance(ell), oltq.QFracStarOracle(ell),
             lambda: rng.randint(0, ell)),
            (orra.problem_instance(params), orra.PrrStarOracle(params),
             lambda: _orra_rows(rng, params.n, 1, orra_dens)[0]),
            (ks.problem_instance(metric, ks.ServerConfig(metric.points[:k])),
             ks.MarkingOracle(metric, k),
             lambda: rng.choice(metric.points + (ks.BOT,))),
        ]
        for problem, online, draw in cases:
            for follow_policy in (True, False):
                sim = problem.new_simulator()
                policy = online.restart(sim, 0)
                for t in range(1, rng.randint(2, 25)):
                    e = draw()
                    if follow_policy:
                        a = policy.act(t, e, stream(seed, trial, t))
                    else:
                        space = problem.action_space(t, e)
                        a = space[rng.randrange(len(space))]
                    r = sim.step(t, e, a)
                    if not 0.0 <= r <= problem.reward_bound:
                        return PropertyResult(
                            name, False,
                            f"{problem.name} t={t} request={e!r} action={a!r} "
                            f"value={r!r} outside [0, {problem.reward_bound}]")
    return PropertyResult(name, True)


class _ReplanEveryPeriod(OfflineOracle):
    """Exact oracle whose plans are cut to their first action, so the exact
    runner re-solves at every predictive period instead of following a
    cached plan.  Window values and monitors come from the wrapped oracle."""

    def __init__(self, inner: OfflineOracle):
        self.inner = inner
        self.gamma = inner.gamma

    def solve(self, sim, t0, window):
        value, actions = self.inner.solve(sim, t0, window)
        return value, actions[:1]

    def value(self, sim, t0, window):
        return self.inner.value(sim, t0, window)

    def monitor(self, sim, t0):
        return self.inner.monitor(sim, t0)


def prop_cached_plan_matches_replan(scale: float = 1.0, seed: int = 507,
                                    trials: int = 24) -> PropertyResult:
    """Following a cached plan while the prediction matches equals
    re-solving every predictive period.  Lead-time and ORRA runs with noisy
    predictions give the same value, epochs and actions.  The k-server flow
    breaks ties differently when re-solved from a later state, so caching
    runs use perfect predictions and compare value and epochs only: the
    actions may differ among equally cheap plans, and after a miss such a
    difference can change what the run realizes."""
    name = "adaswitch/cached-plan-matches-replan"
    rng = random.Random(seed)
    replanned = 0
    for trial in range(_scaled(trials, scale)):
        app = ("oltq", "caching", "orra")[trial % 3]
        T = rng.randint(40, 90)
        noise = rng.uniform(0.0, 0.3)
        if app == "oltq":
            ell = rng.randint(2, 3)
            problem = oltq.problem_instance(ell)
            arrivals = [rng.randint(0, ell) for _ in range(T)]
            noisy = [a if rng.random() > noise else rng.randint(0, ell) for a in arrivals]
            reqs, pred = oltq.make_requests(ell, arrivals), oltq.make_requests(ell, noisy)
            offline, online = oltq.OhrrOracle(), oltq.QFracStarOracle(ell)
        elif app == "caching":
            metric = ks.MetricSpace.uniform([f"p{j}" for j in range(rng.randint(3, 5))])
            problem = ks.problem_instance(metric, ks.ServerConfig(metric.points[:2]))
            reqs = pred = ks.make_requests([rng.choice(metric.points) for _ in range(T)])
            offline, online = ks.KserverOfflineOracle(metric), ks.MarkingOracle(metric, 2)
        else:
            params = orra.OrraParams(rng.randint(2, 3), 2)
            problem = orra.problem_instance(params)
            rows = _orra_rows(rng, params.n, T, rng.uniform(0.4, 0.9))
            noisy = [e if rng.random() > noise else tuple(1 - x for x in e) for e in rows]
            reqs, pred = orra.make_requests(params, rows), orra.make_requests(params, noisy)
            offline, online = orra.OrraDpOracle(params), orra.PrrStarOracle(params)
        # b = c = 1 keeps the exit thresholds low enough for short horizons.
        if problem.objective == MAXIMIZE:
            epsilon = rng.uniform(0.3, 0.9) * online.eta
        else:
            epsilon = 3 * online.eta
        config = AdaSwitchConfig(epsilon, 1.0, 1.0, seed=seed + trial)
        runs = []
        for oracle in (offline, _ReplanEveryPeriod(offline)):
            report = run_adaswitch_exact(problem, reqs, pred, oracle, online, config)
            actions = report.trajectory.actions if app != "caching" else None
            runs.append((report.val, report.epochs, actions))
        if runs[0] != runs[1]:
            return PropertyResult(
                name, False,
                f"{problem.name} reqs={reqs.items} pred={pred.items} "
                f"epsilon={config.epsilon} seed={config.seed} cached={runs[0][:2]} "
                f"replanned={runs[1][:2]}")
        replanned += len(runs[0][1]) > 1
    if not replanned:
        return PropertyResult(name, False, "no run reached the predictive state")
    return PropertyResult(name, True)


SUITES: dict[str, list[Callable[..., PropertyResult]]] = {
    "framework": [
        prop_trajectory_replay,
        prop_brute_force_dominates,
        prop_observation_multi_swap,
        prop_observation_iterative_resolve,
        prop_distance_profile,
    ],
    "oltq": [
        prop_ohrr_exactness,
        prop_qfrac_robustness,
        prop_qfrac_schedule_state,
        prop_alpha_gamma,
        prop_oltq_constants,
        prop_adaswitch_oltq_bounds,
    ],
    "kserver": [
        prop_kserver_offline_exactness,
        prop_lazy_dominance,
        prop_config_distance_metric,
        prop_wfa_guarantee,
        prop_kserver_prefix_equivalence,
        prop_kserver_constants,
        prop_kserver_monitor_matches_flow,
    ],
    "orra": [
        prop_orra_dp_exactness,
        prop_orra_busy_resource,
        prop_orra_lipschitz,
        prop_prr_prefix_oblivious,
    ],
    "adaswitch": [
        prop_threshold_formulas,
        prop_switch_count_bound,
        prop_predictive_phase_regret,
        prop_bound_arithmetic,
        prop_mc_early_exit_matches_full,
        prop_step_values_within_reward_bound,
        prop_cached_plan_matches_replan,
    ],
}


def run_suite(name: str, scale: float = 1.0) -> list[PropertyResult]:
    if name == "all":
        names = list(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        raise KeyError(f"unknown suite {name!r}; choose from "
                       f"{', '.join(list(SUITES) + ['all'])}")
    results = []
    for suite in names:
        for prop in SUITES[suite]:
            try:
                results.append(prop(scale=scale))
            except Exception as exc:  # a crashed property is a failed property
                results.append(PropertyResult(
                    f"{suite}/{prop.__name__}", False,
                    f"raised {type(exc).__name__}: {exc}"))
    return results
