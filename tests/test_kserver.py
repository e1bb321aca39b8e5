"""k-server and caching: metric, flow oracle, work function, marking."""

import math
import random

import pytest

from adaswitch import ContractError
from adaswitch import kserver as ks
from adaswitch.kserver import BOT
from adaswitch.switching import ResolveMonitor
from adaswitch.validation import (
    prop_config_distance_metric,
    prop_kserver_constants,
    prop_kserver_monitor_matches_flow,
    prop_kserver_offline_exactness,
    prop_kserver_prefix_equivalence,
    prop_lazy_dominance,
    prop_wfa_guarantee,
)


LINE = ks.MetricSpace(["p0", "p05", "p1"],
                      [[0, 0.5, 1], [0.5, 0, 0.5], [1, 0.5, 0]])


class TestMetricSpace:
    def test_uniform_shortcut(self):
        m = ks.MetricSpace.uniform(["a", "b", "c"])
        assert m.uniform_flag
        assert m.d("a", "b") == 1.0
        assert m.d("a", "a") == 0.0

    def test_bot_distance(self):
        m = ks.MetricSpace.uniform(["a", "b"])
        assert m.d("a", BOT) == 1.0
        assert m.d(BOT, BOT) == 0.0

    def test_rejects_asymmetry(self):
        with pytest.raises(ValueError, match="symmetric"):
            ks.MetricSpace(["a", "b"], [[0, 0.3], [0.4, 0]])

    def test_rejects_triangle_violation(self):
        with pytest.raises(ValueError, match="riangle"):
            ks.MetricSpace(["a", "b", "c"],
                           [[0, 1.0, 0.1], [1.0, 0, 0.1], [0.1, 0.1, 0]])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="0, 1"):
            ks.MetricSpace(["a", "b"], [[0, 1.5], [1.5, 0]])


class TestCost:
    def test_server_already_there(self):
        assert ks.KserverSimulator(LINE, ("p0",)).step(1, "p0", 1) == 0.0

    def test_moving_distance(self):
        sim = ks.KserverSimulator(LINE, ("p05", "p1"))
        assert sim.step(1, "p1", 1) == 0.5
        assert sim.positions == ["p1", "p1"]

    def test_empty_request_free(self):
        sim = ks.KserverSimulator(LINE, ("p0",))
        assert sim.step(1, BOT, 1) == 0.0
        assert sim.positions == ["p0"]


class TestOfflineFlow:
    def test_line_metric_single_server(self):
        cost, actions = ks.offline_kserver(LINE, ["p0"], ["p05", "p1"])
        assert cost == 1.0
        assert actions == [1, 1]

    def test_symmetric_choice(self):
        cost, _ = ks.offline_kserver(LINE, ["p0", "p1"], ["p05"])
        assert cost == 0.5

    def test_zero_when_requests_covered(self):
        cost, _ = ks.offline_kserver(LINE, ["p0", "p1"], ["p1", "p0", "p1"])
        assert cost == 0.0

    def test_exactness_property(self):
        assert prop_kserver_offline_exactness().ok

    def test_prefix_equivalence_property(self):
        assert prop_kserver_prefix_equivalence().ok


class TestOracleValues:
    def test_monitor_matches_flow_property(self):
        result = prop_kserver_monitor_matches_flow()
        assert result.ok, result.detail

    def test_work_function_monitor_on_small_instances(self):
        oracle = ks.KserverOfflineOracle(LINE)
        monitor = oracle.monitor(ks.KserverSimulator(LINE, ["p0", "p1"]), 1)
        assert isinstance(monitor, ks.WorkFunctionMonitor)
        window = [BOT, "p05", BOT, "p1", "p0"]
        values = [monitor.append(t, e) for t, e in enumerate(window, start=1)]
        assert values == [0.0, 0.5, 0.5, 0.5, 1.0]

    def test_value_matches_flow_on_line(self):
        oracle = ks.KserverOfflineOracle(LINE)
        sim = ks.KserverSimulator(LINE, ["p0"])
        assert oracle.value(sim, 1, ["p05", "p1", BOT]) == 1.0
        assert oracle.value(sim, 1, []) == 0.0

    def test_falls_back_to_resolving_when_k_exceeds_matching_limit(self):
        m = ks.MetricSpace.uniform([f"p{i}" for i in range(8)])
        oracle = ks.KserverOfflineOracle(m)
        monitor = oracle.monitor(ks.KserverSimulator(m, m.points[:7]), 1)
        assert isinstance(monitor, ResolveMonitor)
        assert monitor.append(1, "p7") == 1.0


class TestWorkFunction:
    def test_covered_request_is_free(self):
        table = ks.WorkFunctionTable(LINE, ("p0", "p1"))
        cfg, _, cost = ks.wfa_step(table, ("p0", "p1"), "p1")
        assert cost == 0.0
        assert cfg == ("p0", "p1")

    def test_single_server_chases_requests(self):
        sim = ks.KserverSimulator(LINE, ["p0"])
        policy = ks.WfaOracle(LINE, 1).restart(sim, 0)
        total = 0.0
        for t, e in enumerate(["p05", "p1", "p0"], start=1):
            a = policy.act(t, e, random.Random(0))
            assert a == 1
            total += sim.step(t, e, a)
        assert total == 2.0  # 0.5 + 0.5 + 1.0

    def test_competitive_property(self):
        assert prop_wfa_guarantee().ok

    def test_lazy_dominance_property(self):
        assert prop_lazy_dominance().ok

    def test_config_distance_metric_property(self):
        assert prop_config_distance_metric().ok

    def test_config_cap(self):
        big = ks.MetricSpace.uniform([f"p{i}" for i in range(10)])
        table = ks.WorkFunctionTable(big, ("p0", "p1", "p2"), cap=5)
        with pytest.raises(ks.OracleTooLargeError):
            table.advance("p3")


class TestMarking:
    def test_hit_marks_and_costs_nothing(self):
        metric = ks.MetricSpace.uniform(["a", "b", "c"])
        policy = ks.MarkingPolicy(["a", "b"])
        sim = ks.KserverSimulator(metric, ["a", "b"])
        slot = policy.act(1, "a", random.Random(0))
        assert slot == 1
        assert sim.step(1, "a", slot) == 0.0
        assert policy.marks == {0} and policy.cache == ["a", "b"]

    def test_single_slot_alternation_always_misses(self):
        metric = ks.MetricSpace.uniform(["a", "b"])
        policy = ks.MarkingPolicy(["a"])
        sim = ks.KserverSimulator(metric, ["a"])
        rng = random.Random(1)
        total = 0.0
        for t, e in enumerate(["a", "b", "a", "b", "a"], start=1):
            total += sim.step(t, e, policy.act(t, e, rng))
        assert total == 4.0  # every request after the warm hit misses

    def test_requires_uniform_metric(self):
        with pytest.raises(ContractError):
            ks.MarkingOracle(LINE, 2)

    def test_mean_cost_within_marking_guarantee(self):
        # Randomized policy: mean over seeds against 2(ln k + 1) * Opt.
        rng = random.Random(9)
        metric = ks.MetricSpace.uniform(["a", "b", "c", "d"])
        for k in (2, 3):
            initial = list(metric.points[:k])
            requests = [rng.choice(metric.points) for _ in range(30)]
            opt, _ = ks.offline_kserver(metric, initial, requests)
            if opt == 0:
                continue
            oracle = ks.MarkingOracle(metric, k)
            costs = []
            for seed in range(120):
                sim = ks.KserverSimulator(metric, initial)
                policy = oracle.restart(sim, 0)
                costs.append(sum(
                    sim.step(t, e, policy.act(t, e, random.Random(seed * 997 + t)))
                    for t, e in enumerate(requests, start=1)))
            mean = sum(costs) / len(costs)
            assert mean <= 2 * (math.log(k) + 1) * opt * 1.05


class TestAdaswitchKse:
    def test_initial_phase_only(self):
        m = ks.MetricSpace.uniform(["a", "b"])
        report = ks.adaswitch_kse(m, ks.ServerConfig(("a", "b")),
                                  ["a", "b", "a"], ["a", "b", "a"],
                                  variant="caching")
        assert report.val == 0.0
        assert report.ratio_undefined
        assert "initial-phase-only" in report.flags

    def test_initial_phase_only_goes_through_the_runner(self):
        m = ks.MetricSpace.uniform(["a", "b"])
        report = ks.adaswitch_kse(m, ks.ServerConfig(("a", "b")),
                                  ["a", "b", "a"], ["a", "b", "b"],
                                  variant="caching")
        assert report.flags == ("ratio-undefined", "initial-phase-only")
        assert report.phi_star == 1.0  # one miss, capped at c/b = k/2 = 1
        assert report.trajectory.actions == (1, 2, 1)

    def test_caching_perfect_prediction_bound(self):
        rng = random.Random(21)
        m = ks.MetricSpace.uniform(["a", "b", "c", "d", "e"])
        reqs = [rng.choice(m.points) for _ in range(50)]
        report = ks.adaswitch_kse(m, ks.ServerConfig(("a", "b")), reqs, reqs,
                                  variant="caching", seed=4)
        if not report.ratio_undefined:
            k = 2
            assert report.ratio <= 1 + 56 * k * (math.log(k) + 1) / report.opt + 1e-9

    def test_general_variant_needs_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            ks.adaswitch_kse(LINE, ks.ServerConfig(("p0",)), ["p1"], ["p1"])

    def test_general_variant_runs_and_bounds(self):
        rng = random.Random(3)
        reqs = [rng.choice(LINE.points) for _ in range(20)]
        pred = [rng.choice(LINE.points) for _ in range(20)]
        report = ks.adaswitch_kse(LINE, ks.ServerConfig(("p0", "p1")), reqs, pred,
                                  epsilon=1.0, variant="general", seed=7)
        assert "eta-kse-uses-2k-minus-1" in report.flags
        if not report.ratio_undefined:
            assert report.ratio <= report.bounds["T6"] + 1e-9

    def test_rejects_interior_empty_requests(self):
        m = ks.MetricSpace.uniform(["a", "b"])
        with pytest.raises(ValueError, match="consecutive"):
            ks.adaswitch_kse(m, ks.ServerConfig(("a",)), ["b", BOT, "b"],
                             ["b", BOT, "b"], variant="caching")

    def test_rejects_unknown_request_point(self):
        m = ks.MetricSpace.uniform(["a", "b"])
        with pytest.raises(ValueError, match="requests period 2: unknown point 'zz'"):
            ks.adaswitch_kse(m, ks.ServerConfig(("a",)), ["b", "zz"], ["b", "a"],
                             variant="caching")

    def test_rejects_unknown_prediction_point(self):
        with pytest.raises(ValueError, match="prediction period 3: unknown point 'q'"):
            ks.adaswitch_kse(LINE, ks.ServerConfig(("p0",)), ["p1", "p0", "p1"],
                             ["p1", "p0", "q"], epsilon=1.0)

    def test_constants_property(self):
        assert prop_kserver_constants().ok


class TestFiles:
    def test_metric_round_trip_uniform(self, tmp_path):
        path = tmp_path / "metric.txt"
        m = ks.MetricSpace.uniform(["a", "b", "c"])
        ks.write_metric(str(path), m, k=2)
        m2, k = ks.read_metric(str(path))
        assert k == 2
        assert m2.uniform_flag
        assert m2.points == m.points

    def test_metric_round_trip_general(self, tmp_path):
        path = tmp_path / "metric.txt"
        ks.write_metric(str(path), LINE, k=1)
        m2, k = ks.read_metric(str(path))
        assert m2.dist == LINE.dist

    def test_metric_short_row_names_path_and_line(self, tmp_path):
        path = tmp_path / "metric.txt"
        path.write_text("3 1\na\nb\nc\n0 1 1\n1 0\n1 1 0\n")
        with pytest.raises(ValueError, match=r"metric\.txt: line 6: expected 3 distances"):
            ks.read_metric(str(path))

    def test_requests_round_trip(self, tmp_path):
        path = tmp_path / "reqs.txt"
        reqs = ks.make_requests(["a", BOT, "b"])
        ks.write_requests(str(path), reqs)
        back = ks.read_requests(str(path))
        assert back.at(1) == "a" and back.at(2) is BOT and back.at(3) == "b"
