"""Core framework: evaluation, exhaustive optimum, distances, estimators."""

import math

import pytest

from adaswitch import (
    InvalidActionError,
    RequestSequence,
    SearchTooLargeError,
    Trajectory,
    brute_force_opt,
    check_bounded_influence,
    check_lipschitz,
    evaluate_trajectory,
    sequence_distance,
)
from adaswitch import kserver as ks
from adaswitch import oltq, orra
from adaswitch.validation import (
    prop_brute_force_dominates,
    prop_distance_profile,
    prop_observation_iterative_resolve,
    prop_observation_multi_swap,
    prop_trajectory_replay,
    random_oltq_prefix,
)
import random


class TestRequestSequence:
    def test_null_padding(self):
        seq = RequestSequence([1, 0, 2], null_request=0)
        assert seq.at(3) == 2
        assert seq.at(17) == 0
        assert seq.effective_length == 3

    def test_declared_effective_length(self):
        seq = RequestSequence([2, 0], null_request=0, effective_length=3)
        assert seq.effective_length == 3
        assert seq.window(1, 4) == [2, 0, 0, 0]

    def test_window_edges(self):
        seq = RequestSequence([1, 0, 2], null_request=0)
        assert seq.window(2, 5) == [0, 2, 0, 0]
        assert seq.window(6, 7) == [0, 0]
        assert seq.window(3, 2) == []
        assert seq.window(0, -1) == []
        with pytest.raises(IndexError, match="period 0 out of range"):
            seq.window(0, 2)

    def test_declared_length_cannot_cut_support(self):
        with pytest.raises(ValueError):
            RequestSequence([0, 5], null_request=0, effective_length=1)

    def test_equality_ignores_trailing_nulls(self):
        assert RequestSequence([1, 0], 0) == RequestSequence([1], 0)


class TestEvaluateTrajectory:
    def test_empty_is_zero(self):
        problem = oltq.problem_instance(2)
        assert evaluate_trajectory(problem, [], []) == 0.0

    def test_oltq_two_orders(self):
        # ell=2, two arrivals at period 1 scheduled at slots 1 and 2:
        # 2 + 1 = 3, via the patience tail period.
        problem = oltq.problem_instance(2)
        reqs = oltq.make_requests(2, [2])
        assert reqs.effective_length == 2
        assert evaluate_trajectory(problem, reqs, [(1, 2), ()]) == 3.0

    def test_caching_single_miss(self):
        metric = ks.MetricSpace.uniform(["a", "b"])
        problem = ks.problem_instance(metric, ks.ServerConfig(("a",)))
        assert evaluate_trajectory(problem, ["b"], [1]) == 1.0

    def test_invalid_action_names_period(self):
        problem = oltq.problem_instance(2)
        with pytest.raises(InvalidActionError, match="period 1"):
            evaluate_trajectory(problem, [1], [(5,)])

    def test_prefix_conditioning_counts_committed_revenue(self):
        # A prefix order processed inside the window contributes to the
        # window's value.
        problem = oltq.problem_instance(2)
        sim = problem.new_simulator()
        prefix = Trajectory().extended(1, (2,), sim.step(1, 1, (2,)))
        # Window periods 2..3; the slot-2 claim from period 1 pays 1 there.
        val = evaluate_trajectory(problem, [0, 0], [(), ()], from_prefix=prefix)
        assert val == 1.0


class TestSimulatorStep:
    @pytest.mark.parametrize("problem, request_, action", [
        (oltq.problem_instance(2), 0, None),
        (oltq.problem_instance(2), 1, (5,)),
        (oltq.problem_instance(2), 1, (math.nan,)),
        (ks.problem_instance(ks.MetricSpace.uniform(["a", "b"]),
                             ks.ServerConfig(("a",))), None, 7),
        (ks.problem_instance(ks.MetricSpace.uniform(["a", "b"]),
                             ks.ServerConfig(("a",))), "b", 7),
        (orra.problem_instance(orra.OrraParams(1, 2)), (0,), 5),
        (orra.problem_instance(orra.OrraParams(1, 2)), (1,), 5),
    ], ids=["oltq-empty", "oltq", "oltq-nan", "kserver-empty", "kserver", "orra-empty", "orra"])
    def test_step_rejects_what_check_action_rejects(self, problem, request_, action):
        with pytest.raises(InvalidActionError, match="period 1"):
            problem.check_action(1, request_, action)
        with pytest.raises(InvalidActionError, match="period 1"):
            problem.new_simulator().step(1, request_, action)


class TestBruteForce:
    def test_empty(self):
        problem = oltq.problem_instance(3)
        assert brute_force_opt(problem, []) == (0.0, [])

    def test_oltq_example(self):
        problem = oltq.problem_instance(2)
        value, actions = brute_force_opt(problem, oltq.make_requests(2, [2]))
        assert value == 3.0
        assert actions == [(1, 2), ()]

    def test_orra_example(self):
        params = orra.OrraParams(1, 2)
        problem = orra.problem_instance(params)
        value, actions = brute_force_opt(problem, [(1,), (1,), (1,)])
        assert value == 2.0
        assert actions == [1, 0, 1]

    def test_cap_reports_size(self):
        problem = oltq.problem_instance(4)
        reqs = oltq.make_requests(4, [4] * 8)
        with pytest.raises(SearchTooLargeError) as err:
            brute_force_opt(problem, reqs, leaf_cap=1000)
        assert err.value.size > 1000

    def test_lexicographic_tie_break(self):
        # Both serving orders give the same value; the enumeration order
        # (slot t first) must win.
        params = orra.OrraParams(2, 1)
        problem = orra.problem_instance(params)
        value, actions = brute_force_opt(problem, [(1, 1)])
        assert value == 1.0
        assert actions == [1]  # action 1 enumerates before action 2


class TestCheckers:
    def test_oltq_bounded_influence_constant(self):
        problem = oltq.problem_instance(2)

        def sampler(rng):
            pa = random_oltq_prefix(rng, problem, 2, 2)
            pb = random_oltq_prefix(rng, problem, 2, 2)
            window = [rng.randint(0, 2) for _ in range(3)]
            return pa, pb, window

        worst = check_bounded_influence(problem, sampler, trials=60, seed=5)
        assert worst <= problem.influence_f + 1e-9

    def test_kserver_bounded_influence_constant(self):
        metric = ks.MetricSpace.uniform(["a", "b", "c"])
        initial = ks.ServerConfig(("a", "b"))
        problem = ks.problem_instance(metric, initial)

        def sampler(rng):
            def prefix():
                sim = problem.new_simulator()
                traj = Trajectory()
                for t in range(1, 3):
                    e = rng.choice(metric.points)
                    a = rng.randint(1, 2)
                    traj = traj.extended(e, a, sim.step(t, e, a))
                return traj

            window = [rng.choice(metric.points) for _ in range(3)]
            return prefix(), prefix(), window

        worst = check_bounded_influence(problem, sampler, trials=60, seed=6)
        assert worst <= problem.influence_f + 1e-9

    def test_orra_bounded_influence_constant(self):
        params = orra.OrraParams(2, 2)
        problem = orra.problem_instance(params)

        def sampler(rng):
            def prefix():
                sim = problem.new_simulator()
                traj = Trajectory()
                for t in range(1, 3):
                    e = tuple(rng.randint(0, 1) for _ in range(2))
                    a = rng.randint(0, 2)
                    traj = traj.extended(e, a, sim.step(t, e, a))
                return traj

            window = [tuple(rng.randint(0, 1) for _ in range(2)) for _ in range(4)]
            return prefix(), prefix(), window

        worst = check_bounded_influence(problem, sampler, trials=60, seed=7)
        assert worst <= problem.influence_f + 1e-9

    def test_lipschitz_identical_swap_has_zero_gap(self):
        problem = oltq.problem_instance(2)

        def sampler(rng):
            return None, 1, 1, [rng.randint(0, 2) for _ in range(2)]

        worst = check_lipschitz(problem, sampler, trials=10, mode="opt", seed=1)
        assert worst <= 0.0  # gap 0, budget 0

    def test_oltq_lipschitz_opt_mode(self):
        problem = oltq.problem_instance(2)

        def sampler(rng):
            prefix = random_oltq_prefix(rng, problem, 2, 1)
            rest = [rng.randint(0, 2) for _ in range(2)]
            return prefix, rng.randint(0, 2), rng.randint(0, 2), rest

        assert check_lipschitz(problem, sampler, trials=60, mode="opt", seed=2) <= 1e-9

    def test_orra_strong_lipschitz_mode(self):
        params = orra.OrraParams(2, 2)
        problem = orra.problem_instance(params)

        def sampler(rng):
            rest = [tuple(rng.randint(0, 1) for _ in range(2)) for _ in range(3)]
            actions = [rng.randint(0, 2) for _ in range(4)]
            e = tuple(rng.randint(0, 1) for _ in range(2))
            e2 = tuple(rng.randint(0, 1) for _ in range(2))
            return None, e, e2, rest, actions

        assert check_lipschitz(problem, sampler, trials=80, mode="strong", seed=3) <= 1e-9


class TestSequenceDistance:
    def test_identical(self):
        problem = oltq.problem_instance(3)
        a = oltq.make_requests(3, [1, 2])
        profile = sequence_distance(problem, a, a, cap=1.0)
        assert (profile.raw_total, profile.capped_total) == (0.0, 0.0)

    def test_raw_and_capped(self):
        problem = oltq.problem_instance(3)
        a = oltq.make_requests(3, [1, 3])
        b = oltq.make_requests(3, [1, 1])
        assert sequence_distance(problem, a, b).raw_total == 2.0
        assert sequence_distance(problem, a, b, cap=1.0).capped_total == 1.0

    def test_trailing_positions_compare_against_null(self):
        problem = oltq.problem_instance(3)
        a = oltq.make_requests(3, [1, 3])
        b = oltq.make_requests(3, [1])
        assert sequence_distance(problem, a, b).raw_total == 3.0

    def test_profile_bounds(self):
        problem = oltq.problem_instance(4)
        rng = random.Random(0)
        for _ in range(30):
            a = oltq.make_requests(4, [rng.randint(0, 4) for _ in range(5)])
            b = oltq.make_requests(4, [rng.randint(0, 4) for _ in range(7)])
            cap = rng.uniform(0.2, 4.0)
            p = sequence_distance(problem, a, b, cap=cap)
            disagreements = sum(
                1 for t in range(1, 8) if a.at(t) != b.at(t))
            assert 0.0 <= p.capped_total <= p.raw_total + 1e-12
            assert p.capped_total <= disagreements * cap + 1e-12


class TestEffectiveLengthEstimate:
    def test_oltq_rule(self):
        problem = oltq.problem_instance(3)
        prediction = oltq.make_requests(3, [0, 2])
        assert problem.estimate_m(0, prediction) == 4

    def test_kserver_all_null_prediction(self):
        metric = ks.MetricSpace.uniform(["a", "b"])
        problem = ks.problem_instance(metric, ks.ServerConfig(("a",)))
        prediction = ks.make_requests([])
        assert problem.estimate_m(5, prediction) == 5

    def test_orra_max_rule(self):
        params = orra.OrraParams(1, 2)
        problem = orra.problem_instance(params)
        prediction = orra.make_requests(params, [(0,)] * 6 + [(1,)])
        assert problem.estimate_m(3, prediction) == 7


class TestInvariantSuite:
    def test_trajectory_replay(self):
        assert prop_trajectory_replay().ok

    def test_brute_force_dominates(self):
        assert prop_brute_force_dominates().ok

    def test_observation_multi_swap(self):
        assert prop_observation_multi_swap().ok

    def test_observation_iterative_resolve(self):
        assert prop_observation_iterative_resolve().ok

    def test_distance_profile(self):
        assert prop_distance_profile().ok
