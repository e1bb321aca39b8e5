"""Acceptance gate: every criterion at its stated tolerance, one summary
line per criterion on stdout (run with -s to watch them stream)."""

import math
import random

import pytest

from adaswitch import (
    Trajectory,
    brute_force_opt,
    evaluate_trajectory,
    theoretical_bound,
)
from adaswitch import cli, harness
from adaswitch import kserver as ks
from adaswitch import oltq, orra
from adaswitch.validation import (
    prop_predictive_phase_regret,
    random_kserver_instance,
    random_oltq_instance,
    random_oltq_prefix,
    random_orra_requests,
)


def announce(criterion: str, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS  ({detail})")


# ---------------------------------------------------------------------------
# Shared instance suites (generated once, reused across criteria).


@pytest.fixture(scope="module")
def oltq_suite():
    """1,000 random lead-time instances, half with reserved prefixes, each
    carrying its exhaustive optimum."""
    rng = random.Random(410)
    suite = []
    for trial in range(1000):
        ell, arrivals = random_oltq_instance(rng, max_ell=4, max_window=8,
                                             max_total=6)
        problem = oltq.problem_instance(ell)
        prefix = None
        if trial % 2:
            prefix = random_oltq_prefix(rng, problem, ell, rng.randint(1, 3))
        reqs = oltq.make_requests(ell, arrivals)
        window = reqs.window(1, reqs.effective_length)
        opt, _ = brute_force_opt(problem, window, from_prefix=prefix)
        suite.append((ell, problem, prefix, window, opt))
    return suite


@pytest.fixture(scope="module")
def kserver_suite():
    """500 random k-server instances with their exhaustive optima."""
    rng = random.Random(411)
    suite = []
    for _ in range(500):
        metric, initial, requests = random_kserver_instance(
            rng, max_n=5, max_k=3, max_window=7)
        problem = ks.problem_instance(metric, initial)
        opt, _ = brute_force_opt(problem, requests)
        suite.append((metric, initial, problem, requests, opt))
    return suite


@pytest.fixture(scope="module")
def orra_suite():
    """Full (n, d, window) sweep with per-cell request patterns, exhaustive
    where the pattern space is small, sampled otherwise."""
    rng = random.Random(412)
    suite = []
    for n in range(1, 4):
        for d in range(1, 4):
            params = orra.OrraParams(n, d)
            problem = orra.problem_instance(params)
            for w in range(1, 9):
                if n == 1 and w <= 5:
                    patterns = [[((b >> i) & 1,) for i in range(w)]
                                for b in range(2 ** w)]
                else:
                    patterns = [random_orra_requests(rng, n, w) for _ in range(4)]
                for pat in patterns:
                    opt, _ = brute_force_opt(problem, pat)
                    suite.append((params, problem, pat, opt))
    return suite


# ---------------------------------------------------------------------------
# Criterion 1: offline-oracle exactness (exact equality, per run).


def test_criterion_1_offline_oracle_exactness(oltq_suite, kserver_suite,
                                              orra_suite):
    for ell, problem, prefix, window, opt in oltq_suite:
        m = prefix.m if prefix is not None else 0
        sim = problem.new_simulator(prefix)
        value, plan = oltq.ohrr_star(sim, m + 1, window)
        assert value == opt, (ell, window, prefix)
        assert evaluate_trajectory(problem, window, plan, from_prefix=prefix) == opt

    for metric, initial, problem, requests, opt in kserver_suite:
        cost, actions = ks.offline_kserver(metric, initial.positions, requests)
        assert cost == opt, (metric.points, initial.positions, requests)
        assert evaluate_trajectory(problem, requests, actions) == opt

    for params, problem, pat, opt in orra_suite:
        value, actions = orra.orra_offline_dp(
            params, orra.AvailabilityVector.fresh(params.n), 1, pat)
        assert value == opt, (params, pat)
        assert evaluate_trajectory(problem, pat, actions) == opt

    announce("1", f"greedy sweep x{len(oltq_suite)}, flow x{len(kserver_suite)}, "
                  f"DP x{len(orra_suite)} all equal exhaustive search exactly")


# ---------------------------------------------------------------------------
# Criterion 2: online-oracle guarantees.


def test_criterion_2_online_oracle_guarantees(oltq_suite, kserver_suite):
    # Q-FRAC*: per-run additive guarantee on every suite-1 instance,
    # including prefix-conditioned starts.
    for ell, problem, prefix, window, opt in oltq_suite:
        m = prefix.m if prefix is not None else 0
        oracle = oltq.QFracStarOracle(ell)
        sim = problem.new_simulator(prefix)
        policy = oracle.restart(sim, m)
        val = sum(sim.step(m + i + 1, e, policy.act(m + i + 1, e, random.Random(0)))
                  for i, e in enumerate(window))
        assert val >= oracle.eta * opt - 2 * ell * ell - 1e-9, \
            (ell, window, prefix, val, opt)

    # Work function: deterministic per-run (2k-1) guarantee.
    for metric, initial, problem, requests, opt in kserver_suite:
        k = initial.k
        sim = ks.KserverSimulator(metric, initial.positions)
        policy = ks.WfaOracle(metric, k).restart(sim, 0)
        cost = sum(sim.step(t, e, policy.act(t, e, random.Random(0)))
                   for t, e in enumerate(requests, start=1))
        assert cost <= (2 * k - 1) * opt + 1e-9, \
            (metric.points, initial.positions, requests, cost, opt)

    # Marking: randomized, mean over 500 seeds within 2(ln k + 1) * 1.05.
    rng = random.Random(42)
    for k in (2, 3, 4):
        points = [f"p{i}" for i in range(k + 3)]
        metric = ks.MetricSpace.uniform(points)
        for _ in range(2):
            initial = list(points[:k])
            requests = [rng.choice(points) for _ in range(40)]
            opt, _ = ks.offline_kserver(metric, initial, requests)
            if opt == 0:
                continue
            oracle = ks.MarkingOracle(metric, k)
            total = 0.0
            for seed in range(500):
                sim = ks.KserverSimulator(metric, initial)
                policy = oracle.restart(sim, 0)
                total += sum(
                    sim.step(t, e, policy.act(t, e, random.Random(seed * 7919 + t)))
                    for t, e in enumerate(requests, start=1))
            mean = total / 500
            assert mean <= 2 * (math.log(k) + 1) * opt * 1.05, (k, mean, opt)

    # Periodic re-ranking: certified only against the greedy 0.5 floor.
    for n, d in ((1, 2), (2, 2), (3, 3)):
        params = orra.OrraParams(n, d)
        problem = orra.problem_instance(params)
        window = random_orra_requests(rng, n, 12)
        opt, _ = orra.orra_offline_dp(params,
                                      orra.AvailabilityVector.fresh(n), 1, window)
        if opt == 0:
            continue
        total = 0.0
        for seed in range(500):
            sim = problem.new_simulator()
            policy = orra.PrrStarPolicy(params, 0)
            prng = random.Random(seed)
            total += sum(sim.step(t, e, policy.act(t, e, prng))
                         for t, e in enumerate(window, start=1))
        assert total / 500 >= 0.5 * opt - 1e-9, (n, d, window, total / 500, opt)

    announce("2", "Q-FRAC* additive, WFA (2k-1) per run; marking and "
                  "re-ranking means within their randomized envelopes")


# ---------------------------------------------------------------------------
# Criterion 3: framework constants.


def test_criterion_3_framework_constants():
    rng = random.Random(43)

    # Lead-time quotation: 2*ell-bounded influence and (1, ell)-Lipschitz.
    for trial in range(500):
        ell, window = random_oltq_instance(rng, max_ell=3, max_window=4,
                                           max_total=5)
        if not window:
            window = [1]
        problem = oltq.problem_instance(ell)
        m = rng.randint(1, 2)
        pa = random_oltq_prefix(rng, problem, ell, m)
        pb = random_oltq_prefix(rng, problem, ell, m)
        oa, _ = brute_force_opt(problem, window, from_prefix=pa)
        ob, _ = brute_force_opt(problem, window, from_prefix=pb)
        assert abs(oa - ob) / ell <= 2 * ell + 1e-9
        pos = rng.randrange(len(window))
        swapped = list(window)
        swapped[pos] = rng.randint(0, ell)
        o1, _ = brute_force_opt(problem, window, from_prefix=pa)
        o2, _ = brute_force_opt(problem, swapped, from_prefix=pa)
        budget = ell * min(abs(window[pos] - swapped[pos]), ell)
        assert abs(o1 - o2) <= budget + 1e-9

    # k-server: k-bounded influence and (2, 2)-Lipschitz.
    for trial in range(500):
        metric, initial, requests = random_kserver_instance(
            rng, max_n=4, max_k=3, max_window=4)
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
        assert abs(oa - ob) <= initial.k + 1e-9
        pos = rng.randrange(len(requests))
        swapped = list(requests)
        swapped[pos] = rng.choice(metric.points)
        o1, _ = brute_force_opt(problem, requests, from_prefix=pa)
        o2, _ = brute_force_opt(problem, swapped, from_prefix=pa)
        budget = min(2 * metric.d(requests[pos], swapped[pos]), 2.0)
        assert abs(o1 - o2) <= budget + 1e-9

    # Reusable resources: d-bounded influence and (1, 1)-strong-Lipschitz.
    for trial in range(500):
        n, d = rng.randint(1, 3), rng.randint(1, 3)
        params = orra.OrraParams(n, d)
        problem = orra.problem_instance(params)
        w = rng.randint(1, 5)
        window = random_orra_requests(rng, n, w)
        m = rng.randint(1, 3)

        def orra_prefix():
            sim = problem.new_simulator()
            traj = Trajectory()
            for t in range(1, m + 1):
                e = tuple(rng.randint(0, 1) for _ in range(n))
                a = rng.randint(0, n)
                traj = traj.extended(e, a, sim.step(t, e, a))
            return traj

        pa, pb = orra_prefix(), orra_prefix()
        oa, _ = brute_force_opt(problem, window, from_prefix=pa)
        ob, _ = brute_force_opt(problem, window, from_prefix=pb)
        assert abs(oa - ob) <= d + 1e-9
        actions = [rng.randint(0, n) for _ in range(w)]
        pos = rng.randrange(w)
        swapped = list(window)
        swapped[pos] = tuple(rng.randint(0, 1) for _ in range(n))
        va = evaluate_trajectory(problem, window, actions, from_prefix=pa)
        vb = evaluate_trajectory(problem, swapped, actions, from_prefix=pa)
        assert abs(va - vb) <= 1.0 + 1e-9

    announce("3", "1,000 perturbation pairs per application stayed within "
                  "the influence/Lipschitz constants")


# ---------------------------------------------------------------------------
# Criterion 4 and 5: switching-run bounds.


@pytest.fixture(scope="module")
def oltq_adaswitch_runs():
    """A spread of exact-oracle reward runs with deterministic oracles."""
    runs = []
    rng = random.Random(44)
    for trial in range(150):
        ell = rng.randint(2, 3)
        T = rng.randint(5, 40)
        arrivals = [rng.randint(0, ell) for _ in range(T)]
        kind = trial % 3
        if kind == 0:
            pred = list(arrivals)
        elif kind == 1:
            pred = [rng.randint(0, ell) for _ in range(T)]
        else:
            pred = [min(ell, max(0, a + rng.randint(-1, 1))) for a in arrivals]
        eta = oltq.eta_oltq(ell)
        epsilon = rng.uniform(0.15, 0.9) * eta
        report = oltq.adaswitch_oltq(ell, arrivals, pred, epsilon,
                                     seed=5000 + trial)
        runs.append(report)
    return runs


def test_criterion_4_theorem_bounds(oltq_adaswitch_runs):
    # Deterministic oracles: per-run ratio dominates both closed-form bounds.
    checked = 0
    for report in oltq_adaswitch_runs:
        if report.ratio_undefined:
            continue
        for name in ("T1", "T5"):
            if name in report.bounds:
                assert report.ratio >= report.bounds[name] - 1e-9, \
                    (report.seed, name,
                     report.ratio, report.bounds[name])
                checked += 1

    # Caching (randomized marking): mean ratio over 200 seeds against the
    # cost bound, within 0.02.
    rng = random.Random(45)
    k = 2
    eta = 2 * (math.log(k) + 1)
    metric = ks.MetricSpace.uniform([f"p{i}" for i in range(6)])
    initial = ks.ServerConfig(tuple(metric.points[:k]))
    reqs = [rng.choice(metric.points) for _ in range(60)]
    pred = [e if rng.random() > 0.2 else rng.choice(metric.points) for e in reqs]
    ratios = []
    for seed in range(200):
        report = ks.adaswitch_kse(metric, initial, reqs, pred,
                                  variant="caching", seed=seed)
        assert not report.ratio_undefined
        ratios.append(report.ratio)
        bound_inputs = report
    mean = sum(ratios) / len(ratios)
    t3 = theoretical_bound("T3", eta=eta, epsilon=eta, b=2.0, c=float(k),
                           L=1.0, opt=bound_inputs.opt,
                           phi_star=bound_inputs.phi_star)
    assert mean <= t3 + 0.02, (mean, t3)

    # Reusable resources (randomized re-ranking): mean ratio over 200 seeds
    # against the approximate-oracle bound, with the online constant taken
    # as the empirically certified 0.5 floor.  Two slack settings: a tight
    # one where the robustness branch of the bound bites, and a loose one
    # that drives the run through the batched predictive machinery.
    params = orra.OrraParams(2, 2)
    reqs2 = [(1, 1)] * 140
    pred2 = [(1, 1) if i % 9 else (1, 0) for i in range(140)]
    alpha = 3.0
    # Tight slack: bound evaluated with the empirically certified online
    # constant 0.5 (its robustness branch bites).  Loose slack: exercises
    # the batched predictive machinery; 0.55 exceeds the certified 0.5, so
    # that run is held to the bound at its configured constant instead.
    mean2 = bound = None
    for epsilon, eta_for_bound in ((0.2, 0.5), (0.55, 0.589)):
        ratios2 = []
        for seed in range(200):
            report = orra.adaswitch_orra(params, reqs2, pred2, epsilon,
                                         alpha=alpha, seed=seed,
                                         eta_online=0.589, monte_carlo_cap=32)
            ratios2.append(report.ratio)
            orra_report = report
        mean_eps = sum(ratios2) / len(ratios2)
        bound_eps = theoretical_bound(
            "T2", eta=eta_for_bound, epsilon=epsilon, gamma=1.0, alpha=alpha,
            b=2.0, c=float(params.d), L=1.0, opt=orra_report.opt,
            phi_star=orra_report.phi_star)
        assert mean_eps >= bound_eps - 0.02, (epsilon, mean_eps, bound_eps)
        if mean2 is None:
            mean2, bound = mean_eps, bound_eps

    # The predictive-phase regret inequality, exact on brute-forceable phases.
    assert prop_predictive_phase_regret(scale=2.0).ok

    announce("4", f"{checked} per-run bound checks; caching mean "
                  f"{mean:.3f} <= {t3:.3f}+0.02; reusable mean {mean2:.3f} >= "
                  f"{bound:.3f}-0.02; phase regret exact")


def test_criterion_5_switch_count_bound(oltq_adaswitch_runs):
    for report in oltq_adaswitch_runs:
        limit = 1.0 + report.eta * report.b * report.phi_star / (2.0 * report.c)
        assert report.switch_count <= limit + 1e-9, \
            (report.seed, report.switch_count, limit, report.phi_star)
    announce("5", f"reverts within 1 + eta*b*phi*/(2c) on all "
                  f"{len(oltq_adaswitch_runs)} exact-oracle reward runs")


# ---------------------------------------------------------------------------
# Criterion 6: desk-scale reproduction of the reported experiments.


GRID = [0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55]


def _means(aggregates, algorithm):
    return {a["sweep_value"]: a["mean_ratio"] for a in aggregates
            if a["algorithm"] == algorithm}


def test_criterion_6a_consistency_sweep():
    spec = harness.parse_spec(f"""
app oltq
generator geometric
p {1 / 15}
ell 30
T 15000
prediction perfect
sweep robustness
grid {' '.join(str(g) for g in GRID)}
seeds 10
algorithm.name adaswitch
algorithm.name strengthened
algorithm.Z 4
algorithm.name qfrac
""")
    rows, aggregates = harness.run_experiment(spec)
    assert not any(str(r["flags"]).startswith("error:") for r in rows)
    ada = _means(aggregates, "adaswitch")
    strong = _means(aggregates, "strengthened")
    base = _means(aggregates, "qfrac")

    for lo, hi in zip(GRID, GRID[1:]):
        assert ada[hi] <= ada[lo] + 1e-9, \
            f"consistency not nonincreasing: {ada[lo]} -> {ada[hi]}"
    for r in GRID:
        assert ada[r] > r, f"consistency {ada[r]} below guarantee {r}"
    for r in GRID:
        if r <= 0.5:
            assert ada[r] > base[r], (r, ada[r], base[r])
    for r in GRID:
        assert strong[r] >= max(ada[r], base[r]) - 0.01, \
            (r, strong[r], ada[r], base[r])
    announce("6a", f"consistency {ada[GRID[0]]:.3f}..{ada[GRID[-1]]:.3f} "
                   f"nonincreasing, above guarantees and the online baseline; "
                   f"strengthened matches the upper envelope")


def test_criterion_6b_length_sweep():
    spec = harness.parse_spec("""
app oltq
generator geometric
p 0.0666666666666667
ell 20
T 10000
prediction perfect
sweep T
grid 2000 4000 6000 8000 10000
seeds 10
algorithm.name adaswitch
algorithm.epsilon 0.2
""")
    rows, aggregates = harness.run_experiment(spec)
    ada = _means(aggregates, "adaswitch")
    ts = sorted(ada)
    for lo, hi in zip(ts, ts[1:]):
        assert ada[hi] >= ada[lo] - 0.01, \
            f"consistency dropped with horizon: {ada[lo]} -> {ada[hi]}"
    announce("6b", "consistency nondecreasing in the horizon: "
                   + ", ".join(f"{ada[t]:.3f}" for t in ts))


def test_criterion_6c_model2_prediction_errors():
    spec = harness.parse_spec(f"""
app oltq
generator model2
p_err 0.1
ell 20
T 10000
prediction generator-paired
sweep robustness
grid {' '.join(str(g) for g in GRID)}
seeds 10
algorithm.name adaswitch
algorithm.name qfrac
""")
    rows, aggregates = harness.run_experiment(spec)
    ada = _means(aggregates, "adaswitch")
    base = _means(aggregates, "qfrac")
    wins = sum(1 for r in GRID if ada[r] >= base[r])
    assert wins >= 0.9 * len(GRID), \
        f"switching beat the baseline at only {wins}/{len(GRID)} grid points"
    announce("6c", f"exchanged-pattern model: switching >= baseline at "
                   f"{wins}/{len(GRID)} robustness points")


# ---------------------------------------------------------------------------
# Criterion 7: determinism of the command-line pipeline.


def test_criterion_7_byte_identical_csv(tmp_path):
    spec_path = tmp_path / "det.spec"
    spec_path.write_text("""
app oltq
generator geometric
p 0.2
ell 5
T 120
prediction perfect
sweep robustness
grid 0.2 0.4
seeds 4
algorithm.name adaswitch
algorithm.name qfrac
""")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["run", "--spec", str(spec_path), "--out", str(out),
                         "--seed", "11", "--format", "csv"]) == 0
        outs.append((out / "report.csv").read_bytes())
    assert outs[0] == outs[1]
    announce("7", "two invocations with one seed emitted byte-identical CSV")
