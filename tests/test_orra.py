"""Reusable resources: recursion, DP oracle, re-ranking policy, wrapper."""

import random

import pytest

from adaswitch import ContractError, OracleTooLargeError, Trajectory
from adaswitch import orra
from adaswitch.validation import (
    prop_orra_busy_resource,
    prop_orra_dp_exactness,
    prop_orra_lipschitz,
    prop_prr_prefix_oblivious,
)


class TestRecursion:
    def test_reject_changes_nothing(self):
        sim = orra.OrraSimulator(orra.OrraParams(2, 3))
        before = list(sim.avail.times)
        assert sim.step(1, (1, 1), 0) == 0.0
        assert sim.avail.times == before

    def test_busy_resource_rejects(self):
        sim = orra.OrraSimulator(orra.OrraParams(1, 2))
        r1 = sim.step(1, (1,), 1)
        r2 = sim.step(2, (1,), 1)
        assert (r1, r2) == (1.0, 0.0)
        assert sim.avail.times == [3]

    def test_comeback_at_t_plus_d(self):
        sim = orra.OrraSimulator(orra.OrraParams(1, 2))
        rewards = [sim.step(t, (1,), a) for t, a in ((1, 1), (2, 0), (3, 1))]
        assert rewards == [1.0, 0.0, 1.0]

    def test_ineligible_resource_fails(self):
        sim = orra.OrraSimulator(orra.OrraParams(2, 2))
        assert sim.step(1, (0, 1), 1) == 0.0


class TestOfflineDp:
    def test_single_resource(self):
        params = orra.OrraParams(1, 2)
        val, actions = orra.orra_offline_dp(
            params, orra.AvailabilityVector.fresh(1), 1, [(1,), (1,), (1,)])
        assert val == 2.0
        assert actions == [1, 0, 1]

    def test_two_resources(self):
        params = orra.OrraParams(2, 2)
        val, actions = orra.orra_offline_dp(
            params, orra.AvailabilityVector.fresh(2), 1, [(1, 1)] * 3)
        assert val == 3.0

    def test_empty_window(self):
        params = orra.OrraParams(2, 2)
        assert orra.orra_offline_dp(params, orra.AvailabilityVector.fresh(2),
                                    1, []) == (0.0, [])

    def test_budget_error(self):
        params = orra.OrraParams(8, 4)
        with pytest.raises(OracleTooLargeError):
            orra.orra_offline_dp(params, orra.AvailabilityVector.fresh(8), 1,
                                 [(1,) * 8] * 10, budget=100)

    def test_prefix_conditioning(self):
        # Resource busy until period 3 after a prefix service at t=1.
        params = orra.OrraParams(1, 3)
        problem = orra.problem_instance(params)
        sim = problem.new_simulator()
        sim.step(1, (1,), 1)
        val, actions = orra.orra_offline_dp(params, sim.avail, 2,
                                            [(1,), (1,), (1,)])
        assert val == 1.0  # only period 4 (window position 3) can serve
        assert actions == [0, 0, 1]

    def test_start_before_last_service_is_outside_the_states(self):
        # Busy until 5 seen from t0 = 1: counter 4 > d - 1 = 1.
        params = orra.OrraParams(1, 2)
        with pytest.raises(ContractError, match=r"t0=1 .*\(4,\)"):
            orra.orra_offline_dp(params, orra.AvailabilityVector([5]), 1, [(1,)] * 6)

    def test_exactness_sweep(self):
        assert prop_orra_dp_exactness().ok


class TestPrrStar:
    def test_single_resource_greedy(self):
        params = orra.OrraParams(1, 2)
        policy = orra.PrrStarPolicy(params, 0)
        rng = random.Random(0)
        acts = [policy.act(t, (1,), rng) for t in range(1, 6)]
        assert acts == [1, 0, 1, 0, 1]

    def test_reset_ignores_early_requests(self):
        params = orra.OrraParams(2, 3)
        policy = orra.PrrStarPolicy(params, 2)
        rng = random.Random(0)
        assert policy.act(3, (1, 1), rng) == 0
        assert policy.act(4, (1, 1), rng) == 0
        assert policy.act(5, (1, 1), rng) in (1, 2)

    def test_prefix_oblivious_property(self):
        assert prop_prr_prefix_oblivious().ok

    def test_busy_resource_property(self):
        assert prop_orra_busy_resource().ok

    def test_greedy_half_of_optimum_on_average(self):
        rng = random.Random(17)
        params = orra.OrraParams(2, 2)
        problem = orra.problem_instance(params)
        for _ in range(8):
            window = [tuple(rng.randint(0, 1) for _ in range(2)) for _ in range(8)]
            opt, _ = orra.orra_offline_dp(params, orra.AvailabilityVector.fresh(2),
                                          1, window)
            if opt == 0:
                continue
            served = []
            for seed in range(120):
                sim = problem.new_simulator()
                policy = orra.PrrStarPolicy(params, 0)
                prng = random.Random(seed)
                served.append(sum(sim.step(t, e, policy.act(t, e, prng))
                                  for t, e in enumerate(window, start=1)))
            assert sum(served) / len(served) >= 0.5 * opt - 1e-9


class TestLipschitz:
    def test_property(self):
        assert prop_orra_lipschitz().ok


class TestAdaswitchOrra:
    def test_all_zero_requests(self):
        params = orra.OrraParams(2, 2)
        report = orra.adaswitch_orra(params, [(0, 0)] * 4, [(0, 0)] * 4,
                                     epsilon=0.2)
        assert report.val == 0.0
        assert report.ratio_undefined

    def test_infeasible_alpha_is_reported(self):
        params = orra.OrraParams(2, 2)
        with pytest.raises(Exception, match="alpha"):
            orra.adaswitch_orra(params, [(1, 1)] * 4, [(1, 1)] * 4,
                                epsilon=0.2, alpha=2.0)

    def _predictive_entry(self, report):
        starts = [start for start, mode in report.epochs if mode == "predictive"]
        assert starts, "run never entered the predictive state"
        return starts[0]

    def test_single_batch_covering_horizon_is_exact(self):
        # Probe where the predictive state starts, then end the horizon
        # exactly where the first batch banks its threshold value: the
        # single batch covers the horizon, no fallback fires, and with a
        # perfect prediction the batch realizes the window optimum.
        params = orra.OrraParams(2, 2)
        problem = orra.problem_instance(params)
        probe = orra.adaswitch_orra(params, [(1, 1)] * 220, [(1, 1)] * 220,
                                    epsilon=0.55, alpha=3.0, seed=1,
                                    monte_carlo_cap=50)
        start = self._predictive_entry(probe)
        horizon = start + 5  # alpha*c*L = 6 served across 6 periods
        reqs = [(1, 1)] * horizon
        report = orra.adaswitch_orra(params, reqs, reqs, epsilon=0.55,
                                     alpha=3.0, seed=1, monte_carlo_cap=50)
        assert self._predictive_entry(report) == start
        assert not report.fallback_fired
        assert report.switch_count == 0  # perfect prediction: never reverts
        traj = report.trajectory
        prefix = Trajectory(traj.requests[:start - 1],
                            traj.actions[:start - 1],
                            traj.rewards[:start - 1])
        sim = problem.new_simulator(prefix)
        window = list(traj.requests[start - 1:horizon])
        opt, _ = orra.orra_offline_dp(params, sim.avail, start, window)
        realized = sum(traj.rewards[start - 1:horizon])
        assert realized == opt

    def test_horizon_tail_sacrifice_is_bounded(self):
        # The end-of-horizon branch may coast on arbitrary actions
        # once a batch cannot reach its threshold value; the loss stays
        # within one batch's worth of value.
        params = orra.OrraParams(2, 2)
        problem = orra.problem_instance(params)
        reqs = [(1, 1)] * 220
        report = orra.adaswitch_orra(params, reqs, reqs, epsilon=0.55,
                                     alpha=3.0, seed=1, monte_carlo_cap=50)
        assert report.fallback_fired  # tail batch could not bank alpha*c*L
        start = self._predictive_entry(report)
        traj = report.trajectory
        prefix = Trajectory(traj.requests[:start - 1],
                            traj.actions[:start - 1],
                            traj.rewards[:start - 1])
        sim = problem.new_simulator(prefix)
        window = list(traj.requests[start - 1:220])
        opt, _ = orra.orra_offline_dp(params, sim.avail, start, window)
        realized = sum(traj.rewards[start - 1:220])
        alpha_c_L = 3.0 * params.d * 1.0
        assert realized >= opt - alpha_c_L

    def test_deterministic_online_oracle_single_rollout(self):
        # With a deterministic stand-in policy the conservative monitor is
        # the realized value itself; no Monte Carlo deviation is flagged.
        params = orra.OrraParams(1, 2)

        class GreedyOracle(orra.OnlineOracle):
            eta = 0.5
            deterministic = True

            def restart(self, sim, m):
                busy = {"until": 0}

                class P(orra.OnlinePolicy):
                    def act(self, t, e, rng):
                        if e[0] == 1 and busy["until"] <= t:
                            busy["until"] = t + params.d
                            return 1
                        return 0

                return P()

        problem = orra.problem_instance(params)
        reqs = [(1,)] * 40
        from adaswitch.switching import AdaSwitchConfig, run_adaswitch_gamma
        config = AdaSwitchConfig(epsilon=0.4, b=2.0, c=2.0, alpha=4.0, seed=0)
        report = run_adaswitch_gamma(problem, orra.make_requests(params, reqs),
                                     orra.make_requests(params, reqs),
                                     orra.OrraDpOracle(params), GreedyOracle(),
                                     config)
        assert not report.mc_deviation


class TestFiles:
    def test_round_trip(self, tmp_path):
        params = orra.OrraParams(3, 2)
        reqs = orra.make_requests(params, [(1, 0, 1), (0, 0, 0), (0, 1, 0)])
        path = tmp_path / "inst.txt"
        orra.write_instance(str(path), params, reqs)
        params2, back = orra.read_instance(str(path))
        assert (params2.n, params2.d) == (3, 2)
        assert back.at(1) == (1, 0, 1) and back.at(3) == (0, 1, 0)

    def test_rejects_bad_bitstring(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2 1\n101\n")
        with pytest.raises(ValueError):
            orra.read_instance(str(path))
