"""The switching meta-algorithm: configs, thresholds, bounds, runners."""

import math
import random

import pytest

from adaswitch import (
    AdaSwitchConfig,
    ConfigurationError,
    Trajectory,
    monte_carlo_estimate,
    regret_based_switch_check,
    run_adaswitch_exact,
    run_adaswitch_gamma,
    theoretical_bound,
    threshold_table,
)
from adaswitch import kserver as ks
from adaswitch import oltq, orra
from adaswitch.switching import _mc_estimate
from adaswitch.validation import (
    prop_bound_arithmetic,
    prop_cached_plan_matches_replan,
    prop_mc_early_exit_matches_full,
    prop_predictive_phase_regret,
    prop_step_values_within_reward_bound,
    prop_switch_count_bound,
    prop_threshold_formulas,
)


class TestConfigValidation:
    def test_rejects_c_below_b(self):
        config = AdaSwitchConfig(epsilon=0.1, b=3.0, c=2.0)
        with pytest.raises(ConfigurationError, match="c >= b"):
            oltq_run(config)

    def test_rejects_epsilon_at_eta(self):
        config = AdaSwitchConfig(epsilon=0.5, b=1.0, c=3.0)
        with pytest.raises(ConfigurationError, match="epsilon"):
            oltq_run(config)

    def test_gamma_variant_requires_alpha_feasibility(self):
        from adaswitch.switching import validate_config
        config = AdaSwitchConfig(epsilon=0.01, b=2.0, c=2.0, alpha=3.0)
        # gamma small enough that gamma*alpha/(alpha+gamma) < eta - 15eps/16
        with pytest.raises(ConfigurationError, match="infeasible"):
            validate_config(config, "max", "gamma", eta=0.9, gamma=0.5)

    def test_cost_gamma_alpha_floor(self):
        from adaswitch.switching import validate_config
        config = AdaSwitchConfig(epsilon=0.5, b=2.0, c=2.0, alpha=10.0)
        with pytest.raises(ConfigurationError, match="16"):
            validate_config(config, "min", "gamma", eta=2.0, gamma=1.0)

    def test_regret_mode_needs_exact_oracle(self):
        from adaswitch.switching import validate_config
        config = AdaSwitchConfig(epsilon=0.1, b=1.0, c=2.0, alpha=3.0,
                                 switching_mode="regret-based")
        with pytest.raises(ConfigurationError, match="regret"):
            validate_config(config, "max", "gamma", eta=0.5, gamma=1.0)

    @pytest.mark.parametrize("objective", ["max", "min"])
    @pytest.mark.parametrize("name", ["epsilon", "b", "c", "alpha"])
    def test_rejects_non_finite_fields(self, objective, name):
        from adaswitch.switching import validate_config
        for bad in (math.nan, math.inf, -math.inf):
            fields = dict(epsilon=0.1, b=1.0, c=3.0, alpha=20.0)
            fields[name] = bad
            with pytest.raises(ConfigurationError, match=f"^{name} must be finite"):
                validate_config(AdaSwitchConfig(**fields), objective, "gamma",
                                eta=0.5, gamma=1.0)

    def test_reward_runner_rejects_nan_epsilon(self):
        config = AdaSwitchConfig(epsilon=math.nan, b=1.0, c=3.0)
        with pytest.raises(ConfigurationError, match="^epsilon must be finite"):
            oltq_run(config)

    def test_cost_wrapper_rejects_nan_epsilon(self):
        m = ks.MetricSpace.uniform(["a", "b", "c"])
        reqs = ["b", "c", "a"] * 5
        for seq in (reqs, ["a"] * 3):  # the initial-phase-only path too
            with pytest.raises(ConfigurationError, match="^epsilon must be finite"):
                ks.adaswitch_kse(m, ks.ServerConfig(("a",)), seq, seq,
                                 epsilon=math.nan, variant="caching")


def oltq_run(config, arrivals=(1, 1), pred=(1, 1), ell=2):
    problem = oltq.problem_instance(ell)
    return run_adaswitch_exact(
        problem, oltq.make_requests(ell, list(arrivals)),
        oltq.make_requests(ell, list(pred)),
        oltq.OhrrOracle(), oltq.QFracStarOracle(ell), config)


class TestThresholds:
    def test_formulas_property(self):
        assert prop_threshold_formulas().ok

    def test_caching_defaults(self):
        # c = k, b = 2, eta = eps = 2(ln k + 1), L = 1
        k = 4
        eta = 2 * (math.log(k) + 1)
        config = AdaSwitchConfig(epsilon=eta, b=2.0, c=float(k))
        thr = threshold_table(config, "min", "exact", eta, 1.0, 1.0)
        assert thr.conservative_exit == pytest.approx(10 * (eta + eta) * k / eta)
        assert thr.predictive_exit == pytest.approx(2 * (eta + eta) * k / 2)

    def test_all_positive(self):
        config = AdaSwitchConfig(epsilon=0.2, b=1.0, c=1.0)
        thr = threshold_table(config, "max", "exact", eta=0.5, gamma=1.0, L=2.0)
        assert thr.conservative_exit > 0 and thr.predictive_exit > 0


class TestTheoreticalBound:
    def test_t1_example(self):
        assert theoretical_bound("T1", eta=0.6, epsilon=0.1, c=3.0, L=2.0,
                                 b=1.0, opt=1000.0, phi_star=0.0) == 0.5

    def test_t1_limit(self):
        val = theoretical_bound("T1", eta=0.6, epsilon=0.1, c=3.0, L=2.0,
                                b=1.0, opt=1e18, phi_star=0.0)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_t5_example(self):
        assert theoretical_bound("T5", eta=0.6, epsilon=0.2, ell=20.0,
                                 opt=1e6, phi_star=0.0) == pytest.approx(0.952)

    def test_t2_reduces_to_orra_statement(self):
        # L=1, c=d, b=2: the constant is 18*alpha*d + 14*eta*phi/gamma.
        eta, eps, gamma, alpha, d, opt, phi = 0.5, 0.2, 1.0, 4.0, 3.0, 500.0, 2.0
        got = theoretical_bound("T2", eta=eta, epsilon=eps, gamma=gamma,
                                alpha=alpha, b=2.0, c=d, L=1.0, opt=opt,
                                phi_star=phi)
        expected = max(eta - eps,
                       gamma - gamma ** 2 / alpha
                       - (18 * alpha * d + 14 * eta * phi / gamma) / (eps * opt))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_t7_matches_t3_instantiation(self):
        # Where the instance-dependent branches bind (large optimum), the
        # caching statement is the cost bound at L=1, c=k, b=2, eps=eta:
        # 1 + (56k(ln k + 1) + 18 phi)/opt on both sides.
        k, opt, phi = 3.0, 1e6, 5.0
        eta = 2 * (math.log(k) + 1)
        t3 = theoretical_bound("T3", eta=eta, epsilon=eta, b=2.0, c=k, L=1.0,
                               opt=opt, phi_star=phi)
        t7 = theoretical_bound("T7", k=k, opt=opt, phi_star=phi)
        assert t7 == pytest.approx(t3, rel=1e-12)
        assert t7 == pytest.approx(
            1 + (56 * k * (math.log(k) + 1) + 18 * phi) / opt, rel=1e-12)

    def test_t6_value(self):
        eta, eps, k, opt, phi = 3.0, 1.5, 2.0, 40.0, 6.0
        got = theoretical_bound("T6", eta=eta, epsilon=eps, k=k, opt=opt, phi_star=phi)
        assert got == 1.0 + min(eta + eps, (14 * eta * (eta + eps) * k
                                            + (14 * eta + 4 * eps) * phi) / (eps * opt))
        # A large optimum leaves the instance-dependent branch binding.
        big = theoretical_bound("T6", eta=eta, epsilon=eps, k=k, opt=1e9, phi_star=phi)
        assert 1.0 < big < 1.0 + 1e-6

    def test_t6_preconditions(self):
        with pytest.raises(ConfigurationError, match="T6 needs input 'k'"):
            theoretical_bound("T6", eta=3.0, epsilon=1.0, opt=10.0, phi_star=0.0)
        with pytest.raises(ConfigurationError, match="T6 requires epsilon > 0"):
            theoretical_bound("T6", eta=3.0, epsilon=0.0, k=2.0, opt=10.0, phi_star=0.0)
        with pytest.raises(ConfigurationError, match="T6 requires opt > 0"):
            theoretical_bound("T6", eta=3.0, epsilon=1.0, k=2.0, opt=0.0, phi_star=0.0)

    def test_precondition_errors_name_condition(self):
        with pytest.raises(ConfigurationError, match="epsilon"):
            theoretical_bound("T1", eta=0.5, epsilon=0.6, c=2.0, L=1.0, b=1.0,
                              opt=10.0, phi_star=0.0)
        with pytest.raises(ConfigurationError, match="alpha"):
            theoretical_bound("T2", eta=0.5, epsilon=0.1, gamma=1.0, alpha=2.0,
                              b=1.0, c=2.0, L=1.0, opt=10.0, phi_star=0.0)
        with pytest.raises(ConfigurationError, match="needs input"):
            theoretical_bound("T5", eta=0.5, epsilon=0.1, opt=10.0, phi_star=0.0)

    def test_arithmetic_property(self):
        assert prop_bound_arithmetic().ok


class TestMonteCarlo:
    def test_deterministic_policy_is_exact(self):
        ell = 3
        problem = oltq.problem_instance(ell)
        oracle = oltq.QFracStarOracle(ell)
        window = [2, 1, 3, 0, 2]
        config = AdaSwitchConfig(epsilon=0.2, b=1.0, c=4.0, seed=0)
        estimate = monte_carlo_estimate(problem, Trajectory(), window, oracle,
                                        t=5, config=config)
        sim = problem.new_simulator()
        policy = oracle.restart(sim, 0)
        exact = sum(sim.step(t, e, policy.act(t, e, random.Random(0)))
                    for t, e in enumerate(window, start=1))
        assert estimate == exact

    def test_zero_reward_window(self):
        ell = 2
        problem = oltq.problem_instance(ell)
        oracle = oltq.QFracStarOracle(ell)
        config = AdaSwitchConfig(epsilon=0.2, b=1.0, c=3.0, seed=0)
        assert monte_carlo_estimate(problem, Trajectory(), [0, 0, 0], oracle,
                                    t=3, config=config) == 0.0

    def test_randomized_policy_budget_cap(self):
        params = orra.OrraParams(2, 2)
        problem = orra.problem_instance(params)
        oracle = orra.PrrStarOracle(params)
        config = AdaSwitchConfig(epsilon=0.2, b=2.0, c=2.0, alpha=3.0, seed=1,
                                 monte_carlo_cap=30)
        est = monte_carlo_estimate(problem, Trajectory(), [(1, 1)] * 4, oracle,
                                   t=9, config=config)
        assert 0.0 <= est <= 4.0

    @pytest.mark.parametrize("threshold, rollouts", [(4.5, 0), (None, 30)])
    def test_threshold_out_of_reach_skips_rollouts(self, threshold, rollouts):
        # Four periods are worth at most 4 * L = 4 < 4.5: nothing to roll out.
        params = orra.OrraParams(2, 2)
        problem = orra.problem_instance(params)
        restarts = []

        class Counting(orra.PrrStarOracle):
            def restart(self, sim, m):
                restarts.append(m)
                return super().restart(sim, m)

        config = AdaSwitchConfig(epsilon=0.2, b=2.0, c=2.0, alpha=3.0, seed=1,
                                 monte_carlo_cap=30)
        value, capped = _mc_estimate(problem, problem.new_simulator(), [(1, 1)] * 4,
                                     Counting(params), 1, 9, config,
                                     threshold=threshold)
        assert len(restarts) == rollouts
        assert capped  # the budget 9^5 exceeds the cap whether or not rollouts ran
        if threshold is not None:
            assert value < threshold

    def test_early_exit_matches_full_property(self):
        assert prop_mc_early_exit_matches_full().ok

    def test_step_values_within_reward_bound_property(self):
        assert prop_step_values_within_reward_bound().ok


class TestRegretBasedRule:
    def test_no_regret_no_switch(self):
        # Val = Opt at phase start: regret <= 0, below any positive threshold.
        assert not regret_based_switch_check(eta=0.5, epsilon=0.1, c=3.0,
                                             L=2.0, phase_opt=10.0,
                                             phase_val=10.0)

    def test_boundary_inclusive(self):
        eta, eps, c, L = 0.5, 0.1, 3.0, 2.0
        threshold = 9 * c * L - 2 * (eta - eps) * c * L - (eta - eps) * L
        phase_opt = 200.0
        phase_val = (eta - eps) * phase_opt - threshold
        assert regret_based_switch_check(eta, eps, c, L, phase_opt, phase_val)
        assert not regret_based_switch_check(eta, eps, c, L, phase_opt,
                                             phase_val + 1e-9)

    def test_paired_modes_on_misleading_trace(self):
        # The regret rule tolerates prediction error that does not hurt
        # value, so on the same misleading trace it reverts no earlier than
        # the error-based rule, and its guarantee still holds.
        ell = 2
        rng = random.Random(12)
        arrivals = [2] * 40
        pred = [2] * 6 + [0] * 34  # prediction goes dark, reality continues
        reports = {}
        for mode in ("error-based", "regret-based"):
            reports[mode] = oltq.adaswitch_oltq(ell, arrivals, pred,
                                                epsilon=0.25, seed=3,
                                                switching_mode=mode)

        def first_revert(report):
            starts = [s for s, m in report.epochs[1:] if m == "conservative"]
            return starts[0] if starts else math.inf

        assert first_revert(reports["regret-based"]) >= first_revert(
            reports["error-based"])
        for report in reports.values():
            if not report.ratio_undefined and "T1" in report.bounds:
                assert report.ratio >= report.bounds["T1"] - 1e-9


class TestExactRunner:
    def test_all_null_everything(self):
        config = AdaSwitchConfig(epsilon=0.2, b=1.0, c=3.0)
        report = oltq_run(config, arrivals=[], pred=[])
        assert report.val == 0.0
        assert report.switch_count == 0
        assert report.epochs == ()

    def test_stays_conservative_until_threshold(self):
        config = AdaSwitchConfig(epsilon=0.45, b=1.0, c=3.0)
        report = oltq_run(config, arrivals=[2, 2, 2], pred=[2, 2, 2])
        # window optimum cannot reach 10cL/eps = 133 in three periods
        assert all(mode == "conservative" for _, mode in report.epochs)

    def test_perfect_prediction_additive_loss(self):
        ell = 2
        arrivals = [2] * 60
        config = AdaSwitchConfig(epsilon=0.45, b=1.0, c=float(ell + 1), seed=1)
        report = oltq_run(config, arrivals=arrivals, pred=arrivals)
        assert report.phi_star == 0.0
        assert report.val >= report.opt - 12 * report.c * ell / config.epsilon

    def test_adversarial_mean_robustness(self):
        ell = 2
        eta = oltq.eta_oltq(ell)
        eps = 0.3
        ratios = []
        for seed in range(200):
            rng = random.Random(7000 + seed)
            arrivals = [rng.randint(0, ell) for _ in range(10)]
            pred = [rng.randint(0, ell) for _ in range(10)]
            config = AdaSwitchConfig(epsilon=eps, b=1.0, c=3.0, seed=seed)
            report = oltq_run(config, arrivals=arrivals, pred=pred)
            if not report.ratio_undefined:
                ratios.append(report.ratio)
        assert sum(ratios) / len(ratios) >= eta - eps - 0.02

    def test_switch_count_property(self):
        assert prop_switch_count_bound().ok

    def test_predictive_phase_property(self):
        assert prop_predictive_phase_regret().ok

    def test_cached_plan_property(self):
        assert prop_cached_plan_matches_replan().ok

    def test_epochs_alternate_starting_conservative(self):
        rng = random.Random(5)
        for seed in range(20):
            arrivals = [rng.randint(0, 2) for _ in range(15)]
            pred = [rng.randint(0, 2) for _ in range(15)]
            config = AdaSwitchConfig(epsilon=0.4, b=1.0, c=3.0, seed=seed)
            report = oltq_run(config, arrivals=arrivals, pred=pred)
            modes = [m for _, m in report.epochs]
            if modes:
                assert modes[0] == "conservative"
                assert all(a != b for a, b in zip(modes, modes[1:]))


class TestCostRunner:
    def _caching_setup(self, T=40, seed=0):
        metric = ks.MetricSpace.uniform(["a", "b", "c", "d"])
        initial = ks.ServerConfig(("a", "b"))
        rng = random.Random(seed)
        reqs = [rng.choice(metric.points) for _ in range(T)]
        return metric, initial, reqs

    def test_objective_comes_from_the_problem(self):
        # A config names no objective: a caching problem runs the cost
        # thresholds and carries the cost bound T3, never the reward T1.
        metric, initial, reqs = self._caching_setup()
        problem = ks.problem_instance(metric, initial)
        config = AdaSwitchConfig(epsilon=1.0, b=2.0, c=2.0)
        report = run_adaswitch_exact(problem, ks.make_requests(reqs),
                                     ks.make_requests(reqs),
                                     ks.KserverOfflineOracle(metric),
                                     ks.MarkingOracle(metric, 2), config)
        assert report.variant == "exact-min"
        assert "T3" in report.bounds and "T1" not in report.bounds

    def test_zero_optimum_flags_ratio_undefined(self):
        metric = ks.MetricSpace.uniform(["a", "b"])
        initial = ks.ServerConfig(("a", "b"))
        problem = ks.problem_instance(metric, initial)
        eta = 2 * (math.log(2) + 1)
        config = AdaSwitchConfig(epsilon=eta, b=2.0, c=2.0)
        report = run_adaswitch_exact(problem, ks.make_requests(["a", "b", "a"]),
                                     ks.make_requests(["a", "b", "a"]),
                                     ks.KserverOfflineOracle(metric),
                                     ks.MarkingOracle(metric, 2), config)
        assert report.val == 0.0
        assert "ratio-undefined" in report.flags

    def test_perfect_prediction_cost_bound(self):
        metric, initial, reqs = self._caching_setup(T=60, seed=3)
        k = initial.k
        eta = 2 * (math.log(k) + 1)
        problem = ks.problem_instance(metric, initial)
        config = AdaSwitchConfig(epsilon=eta, b=2.0, c=float(k), seed=3)
        report = run_adaswitch_exact(problem, ks.make_requests(reqs),
                                     ks.make_requests(reqs),
                                     ks.KserverOfflineOracle(metric),
                                     ks.MarkingOracle(metric, k), config)
        assert report.phi_star == 0.0
        slack = 14 * eta * (eta + config.epsilon) * config.c * 1.0 / config.epsilon
        assert report.val <= report.opt + slack + 1e-9

    def test_adversarial_mean_cost_robustness(self):
        metric = ks.MetricSpace.uniform(["a", "b", "c"])
        initial = ks.ServerConfig(("a", "b"))
        problem = ks.problem_instance(metric, initial)
        k = 2
        eta = 2 * (math.log(k) + 1)
        eps = eta
        ratios = []
        for seed in range(200):
            rng = random.Random(4000 + seed)
            reqs = [rng.choice(metric.points) for _ in range(12)]
            pred = [rng.choice(metric.points) for _ in range(12)]
            config = AdaSwitchConfig(epsilon=eps, b=2.0, c=float(k), seed=seed)
            report = run_adaswitch_exact(problem, ks.make_requests(reqs),
                                         ks.make_requests(pred),
                                         ks.KserverOfflineOracle(metric),
                                         ks.MarkingOracle(metric, k), config)
            if not report.ratio_undefined:
                ratios.append(report.ratio)
        assert sum(ratios) / len(ratios) <= eta + eps + 0.02

    def test_gamma_cost_variant_runs_with_opt_gate(self):
        # Algorithm with approximate-oracle thresholds on a cost problem:
        # the conservative exit additionally requires the estimated window
        # optimum to clear gamma.
        metric, initial, reqs = self._caching_setup(T=30, seed=9)
        k = initial.k
        eta = 2 * (math.log(k) + 1)
        problem = ks.problem_instance(metric, initial)
        config = AdaSwitchConfig(epsilon=1.0, b=2.0, c=float(k), alpha=16.0, seed=2,
                                 monte_carlo_cap=40)
        report = run_adaswitch_gamma(problem, ks.make_requests(reqs),
                                     ks.make_requests(reqs),
                                     ks.KserverOfflineOracle(metric),
                                     ks.MarkingOracle(metric, k), config)
        assert report.variant == "gamma-min"
        assert report.val >= report.opt  # a cost run can never beat optimum
