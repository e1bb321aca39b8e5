"""Lead-time quotation: reward, oracles, policies, wrappers."""

import math
import random

import pytest

from adaswitch import oltq
from adaswitch.oltq import DECLINE
from adaswitch.validation import (
    prop_adaswitch_oltq_bounds,
    prop_alpha_gamma,
    prop_ohrr_exactness,
    prop_oltq_constants,
    prop_qfrac_robustness,
    prop_qfrac_schedule_state,
)


class TestEta:
    def test_small_values(self):
        assert oltq.eta_oltq(2) == 0.5
        assert oltq.eta_oltq(20) == 0.6

    def test_limit_approaches_golden_section(self):
        assert abs(oltq.eta_oltq(100000) - (math.sqrt(5) - 1) / 2) < 1e-3

    def test_exact_fraction_matches_float_formula(self):
        for ell in range(1, 60):
            gamma_star = math.sqrt(5 / 4 + 1 / ell) - 0.5
            if abs(gamma_star * ell - round(gamma_star * ell)) < 1e-9:
                continue  # integer boundary; float floor/ceil untrustworthy
            q_floor = math.floor(gamma_star * ell)
            q_ceil = math.ceil(gamma_star * ell)
            expected = min(q_floor / ell,
                           (ell + q_ceil) * (ell - q_ceil + 1) / (ell * (ell + 1)))
            assert abs(oltq.eta_oltq(ell) - expected) < 1e-12

    def test_integer_boundary_exact(self):
        # ell = 9 has gamma* * ell exactly 6 (5*81 + 36 = 441 = 21^2), so
        # floor = ceil = 6 and both branches give 2/3.
        assert oltq._gamma_star_floor_ceil(9) == (6, 6)
        assert oltq.eta_oltq(9) == pytest.approx(2 / 3, abs=1e-15)


class TestReward:
    def test_immediate_processing(self):
        # request at t=1 scheduled at slot 1, ell=2: lead time 0 pays 2
        assert oltq.oltq_reward(2, [1], [(1,)], t=1) == 2.0

    def test_slot_exclusivity(self):
        # two orders both pointed at slot 2: only the first earns
        assert oltq.oltq_reward(2, [2], [(2, 2)], t=2) == 1.0
        sim = oltq.OltqSimulator(2)
        assert sim.step(1, 2, (2, 2)) == 0.0
        assert sim.step(2, 0, ()) == 1.0  # one payment, not two

    def test_decline_pays_nothing(self):
        assert oltq.oltq_reward(3, [1], [(DECLINE,)], t=1) == 0.0
        assert oltq.oltq_reward(3, [1, 0, 0], [(DECLINE,), (), ()], t=3) == 0.0

    def test_simulator_agrees_with_reward_form(self):
        rng = random.Random(11)
        for _ in range(50):
            ell = rng.randint(1, 4)
            problem = oltq.problem_instance(ell)
            sim = problem.new_simulator()
            requests, actions = [], []
            for t in range(1, 7):
                e = rng.randint(0, ell)
                space = problem.action_space(t, e)
                a = space[rng.randrange(len(space))]
                requests.append(e)
                actions.append(a)
                got = sim.step(t, e, a)
                assert got == oltq.oltq_reward(ell, requests, actions, t)


class TestOhrrStar:
    def test_basic(self):
        value, actions = oltq.ohrr_star(oltq.OltqSimulator(2), 1, [2, 0])
        assert value == 3.0
        assert actions == [(1, 2), ()]

    def test_reserved_slot(self):
        # Period-1 order committed to slot 2; window orders at period 2 can
        # use slots 2..3 minus the reservation: committed revenue 1 plus a
        # single slot-3 service worth 1.
        sim = oltq.OltqSimulator(2)
        sim.step(1, 1, (2,))
        value, actions = oltq.ohrr_star(sim, 2, [2, 0])
        assert value == 2.0
        assert actions == [(3, DECLINE), ()]

    def test_empty_window(self):
        assert oltq.ohrr_star(oltq.OltqSimulator(3), 1, []) == (0.0, [])

    def test_exactness_property(self):
        assert prop_ohrr_exactness().ok

    def test_freshest_first_beats_fifo(self):
        # Served orders are always the newest pending ones.
        value, actions = oltq.ohrr_star(oltq.OltqSimulator(2), 1, [2, 2, 0])
        # slot 1 serves period-1 order (2), slot 2 serves period-2 order (2),
        # slot 3 serves the other period-2 order (1): 5 total.
        assert value == 5.0
        assert actions[1] == (2, 3)

    def test_monitor_matches_full_solve(self):
        rng = random.Random(3)
        for _ in range(40):
            ell = rng.randint(2, 4)
            problem = oltq.problem_instance(ell)
            prefix_len = rng.randint(0, 2)
            sim = problem.new_simulator()
            for t in range(1, prefix_len + 1):
                e = rng.randint(0, ell)
                space = problem.action_space(t, e)
                sim.step(t, e, space[rng.randrange(len(space))])
            monitor = oltq.OhrrOracle().monitor(sim, prefix_len + 1)
            window = []
            for i in range(6):
                t = prefix_len + 1 + i
                e = rng.randint(0, ell)
                window.append(e)
                incremental = monitor.append(t, e)
                full, _ = oltq.ohrr_star(sim.clone(), prefix_len + 1, window)
                assert incremental == full


class TestQFracStar:
    def test_step_examples(self):
        oracle = oltq.QFracStarOracle(2)
        policy = oracle.restart(oltq.OltqSimulator(2), 0)
        action = policy.act(1, 2, random.Random(0))
        assert action == (1, 2)
        assert policy.next_slot == 3

        policy = oracle.restart(oltq.OltqSimulator(2), 0)
        action = policy.act(1, 1, random.Random(0))
        assert action == (1,)
        assert policy.next_slot == 2

    def test_no_arrivals(self):
        oracle = oltq.QFracStarOracle(3)
        policy = oracle.restart(oltq.OltqSimulator(3), 0)
        policy.act(1, 3, random.Random(0))
        action = policy.act(2, 0, random.Random(0))
        assert action == ()
        assert policy.next_slot >= 3

    def test_robustness_property(self):
        assert prop_qfrac_robustness().ok

    def test_schedule_state_property(self):
        assert prop_qfrac_schedule_state().ok


class TestAlphaGamma:
    def test_curve(self):
        assert prop_alpha_gamma().ok

    def test_approximation(self):
        # alpha(gamma) tracks sqrt(1 - gamma) for moderate patience.
        for gamma in (0.1, 0.3, 0.5):
            assert abs(oltq.alpha_of_gamma(50, gamma) - math.sqrt(1 - gamma)) < 0.06


class TestAdaswitchOltq:
    def test_empty_requests(self):
        report = oltq.adaswitch_oltq(2, [], [], epsilon=0.2)
        assert report.val == 0.0
        assert report.switch_count == 0
        assert report.ratio_undefined

    def test_zero_optimum_flags_ratio_undefined(self):
        # The flag follows the optimum, whatever the objective or runner.
        for report in (oltq.adaswitch_oltq(3, [0, 0, 0], [0, 0], 0.2),
                       oltq.run_qfrac_baseline(3, [0, 0, 0])):
            assert report.ratio is None
            assert report.bounds == {}
            assert report.flags == ("ratio-undefined",)

    def test_perfect_prediction_additive_loss(self):
        rng = random.Random(5)
        ell = 3
        arrivals = [rng.randint(1, ell) for _ in range(60)]
        report = oltq.adaswitch_oltq(ell, arrivals, arrivals, epsilon=0.3, seed=2)
        c, L = report.c, float(ell)
        assert report.phi_star == 0.0
        assert report.val >= report.opt - 12 * c * L / report.epsilon - 1e-9

    def test_adversarial_mean_robustness(self):
        ell = 2
        eta = oltq.eta_oltq(ell)
        epsilon = 0.2
        ratios = []
        for seed in range(200):
            rng = random.Random(1000 + seed)
            arrivals = [rng.randint(0, ell) for _ in range(12)]
            pred = [rng.randint(0, ell) for _ in range(12)]
            report = oltq.adaswitch_oltq(ell, arrivals, pred, epsilon, seed=seed)
            if not report.ratio_undefined:
                ratios.append(report.ratio)
        mean = sum(ratios) / len(ratios)
        assert mean >= eta - epsilon - 0.02

    def test_per_run_bounds_property(self):
        assert prop_adaswitch_oltq_bounds().ok

    def test_constants_property(self):
        assert prop_oltq_constants().ok


class TestStrengthened:
    def test_fallback_on_empty_prediction(self):
        report = oltq.strengthened_adaswitch_oltq(2, [1, 2, 1], [], gamma=0.25, Z=24)
        assert "branch-fallback" in report.flags

    def test_small_patience_always_falls_back(self):
        # At ell = 2 the baseline curve has alpha(gamma) = 1 for every
        # gamma below eta, so the threshold is infinite and the pure online
        # branch always runs.
        report = oltq.strengthened_adaswitch_oltq(2, [2] * 50, [2] * 50,
                                                  gamma=0.25, Z=4, seed=0)
        assert "branch-fallback" in report.flags

    def test_switching_branch_on_large_predicted_optimum(self):
        ell = 20
        arrivals = [ell] * 6000
        report = oltq.strengthened_adaswitch_oltq(ell, arrivals, arrivals,
                                                  gamma=0.55, Z=4, seed=0)
        assert "branch-adaswitch" in report.flags
        # the switching branch runs with slack eta - gamma
        assert abs(report.epsilon - (oltq.eta_oltq(ell) - 0.55)) < 1e-12

    def test_theory_vs_experiment_threshold(self):
        # Z=24 demands a 6x larger predicted optimum than Z=4.
        ell = 20
        arrivals = [ell] * 6000
        z24 = oltq.strengthened_adaswitch_oltq(ell, arrivals, arrivals,
                                               gamma=0.55, Z=24, seed=0)
        assert "branch-fallback" in z24.flags

    def test_gamma_outside_range_rejected(self):
        with pytest.raises(ValueError):
            oltq.strengthened_adaswitch_oltq(2, [1], [1], gamma=0.9)


class TestInstanceFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "inst.txt"
        oltq.write_instance(str(path), 3, [0, 2, 1])
        ell, reqs = oltq.read_instance(str(path))
        assert ell == 3
        assert list(reqs.items) == [0, 2, 1]

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3\n1\n")
        with pytest.raises(ValueError):
            oltq.read_instance(str(path))

    def test_truncated_file_names_path_and_line(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("3 4\n1\n2\n")
        with pytest.raises(ValueError, match=r"short\.txt: line 4: expected an arrival count"):
            oltq.read_instance(str(path))
