"""Experiment harness: generators, sweep runner, CSV/SVG emission."""

import importlib.util
import math
import pathlib
import random
import sys

import pytest

from adaswitch import cli, harness, kserver, oltq, orra


SMALL_SPEC = """
app oltq
generator geometric
p 0.25
ell 4
T 60
prediction perfect
sweep robustness
grid 0.2 0.3
seeds 3
algorithm.name adaswitch
algorithm.name qfrac
"""


class TestGeometric:
    def test_deterministic_per_seed(self):
        a = harness.gen_geometric(0.25, 5, 50, seed=9)
        b = harness.gen_geometric(0.25, 5, 50, seed=9)
        assert a.items == b.items
        c = harness.gen_geometric(0.25, 5, 50, seed=10)
        assert a.items != c.items

    def test_degenerate_p_one(self):
        seq = harness.gen_geometric(1.0, 5, 20, seed=0)
        assert all(seq.at(t) == 1 for t in range(1, 21))

    def test_support_and_clipping(self):
        seq = harness.gen_geometric(0.05, 3, 200, seed=4)
        assert all(1 <= seq.at(t) <= 3 for t in range(1, 201))
        assert seq.at(201) == 0

    def test_clipped_mean_at_reference_parameters(self):
        # E[min(Geom(1/15), 30)] = 15 * (1 - (14/15)^30) ~ 13.1
        seq = harness.gen_geometric(1 / 15, 30, 15000, seed=1)
        mean = sum(seq.items[:15000]) / 15000
        assert 13.0 <= mean <= 17.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            harness.gen_geometric(0.0, 5, 10, seed=0)
        with pytest.raises(ValueError):
            harness.gen_geometric(0.5, 5, 0, seed=0)


class TestPattern:
    def test_zero_error_model1_matches_prediction(self):
        reality, prediction = harness.gen_pattern("I", 0.0, 4, 40, seed=0)
        assert reality.items == prediction.items
        assert reality.items[:8] == (4, 0, 0, 0, 0, 0, 0, 0)

    def test_full_error_model1_all_high(self):
        reality, prediction = harness.gen_pattern("I", 1.0, 3, 18, seed=0)
        assert reality.items[:6] == (3, 3, 3, 0, 0, 0)
        assert prediction.items[:6] == (3, 0, 0, 0, 0, 0)

    def test_model2_exchanges_roles(self):
        reality, prediction = harness.gen_pattern("II", 1.0, 3, 18, seed=0)
        assert reality.items[:6] == (3, 0, 0, 0, 0, 0)
        assert prediction.items[:6] == (3, 3, 3, 0, 0, 0)

    def test_expected_flip_count(self):
        # 250 blocks at error rate 0.1: mean across seeds near 25.
        ell, T = 20, 10000
        counts = []
        for seed in range(30):
            reality, _ = harness.gen_pattern("I", 0.1, ell, T, seed=seed)
            high = sum(1 for b in range(250)
                       if reality.at(b * 2 * ell + 2) == ell)
            counts.append(high)
        mean = sum(counts) / len(counts)
        assert 22.0 <= mean <= 28.0

    def test_padding_to_whole_blocks(self):
        reality, _ = harness.gen_pattern("I", 0.5, 3, 10, seed=0)
        assert len(reality.items) == 12


class TestSpecParsing:
    def test_parse_round(self):
        spec = harness.parse_spec(SMALL_SPEC)
        assert spec.app == "oltq"
        assert spec.grid == [0.2, 0.3]
        assert spec.seeds == [0, 1, 2]
        assert [a.name for a in spec.algorithms] == ["adaswitch", "qfrac"]

    def test_algorithm_params_attach_to_block(self):
        spec = harness.parse_spec(SMALL_SPEC + "algorithm.name strengthened\n"
                                  "algorithm.Z 4\n")
        assert spec.algorithms[-1].params == {"Z": 4.0}

    def test_orphan_algorithm_param_rejected(self):
        with pytest.raises(ValueError, match="algorithm.name"):
            harness.parse_spec("app oltq\nalgorithm.Z 4\n")

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="grid"):
            harness.parse_spec("app oltq\nseeds 2\n")

    @pytest.mark.parametrize("line, key", [("seed 5", "'seed'"),
                                           ("algoritm.name x", "'algoritm.name'"),
                                           ("algorithm.mc-cap 8", "'algorithm.mc-cap'")])
    def test_unknown_key_rejected_with_line(self, line, key):
        text = SMALL_SPEC + line + "\n"
        lineno = len(text.splitlines())
        with pytest.raises(ValueError, match=f"line {lineno}: unknown spec key {key}"):
            harness.parse_spec(text)

    @pytest.mark.parametrize("line", ["ell abc", "algorithm.epsilon x", "p nan",
                                      "grid 0.2 x", "seeds 1 x", "ell 2.7"])
    def test_bad_value_is_parse_error_with_line(self, tmp_path, line):
        text = SMALL_SPEC + line + "\n"
        lineno = len(text.splitlines())
        with pytest.raises(ValueError, match=f"line {lineno}: bad value"):
            harness.parse_spec(text)
        path = tmp_path / "bad.spec"
        path.write_text(text)
        assert cli.main(["run", "--spec", str(path), "--out", str(tmp_path)]) == 1

    def test_shipped_and_benchmark_specs_parse(self, tmp_path, monkeypatch):
        root = pathlib.Path(__file__).resolve().parent.parent
        paths = sorted(root.glob("experiments/*.spec"))
        assert paths
        loader = importlib.util.spec_from_file_location(
            "bench_workloads", root / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(loader)
        monkeypatch.setitem(sys.modules, loader.name, workloads)  # for its dataclasses
        loader.loader.exec_module(workloads)
        for workload in workloads.WORKLOADS.values():
            paths += [pathlib.Path(u.spec) for u in workload.write_round(str(tmp_path), 0, 0)]
        for path in paths:
            harness.parse_spec(path.read_text())
        # Each application accepts only the keys its instance builder reads.
        for text, key in ((SMALL_SPEC + "metric m.txt\n", "'metric'"),
                          ("app orra\ngrid 0.2\nalgorithm.name adaswitch\n"
                           "algorithm.Z 4\n", "'algorithm.Z'")):
            lineno = len(text.splitlines())
            with pytest.raises(ValueError, match=f"line {lineno}: unknown spec key {key}"):
                harness.parse_spec(text)

    def test_counts_read_integral_floats(self):
        for text, T in (("T 15000", 15000), ("T 1e4", 10000)):
            spec = harness.parse_spec(SMALL_SPEC + text + "\n")
            assert spec.params["T"] == T and isinstance(spec.params["T"], int)

    @pytest.mark.parametrize("line", ["seeds 0", "seeds -3", "seeds"])
    def test_empty_seed_list_rejected(self, tmp_path, line):
        text = SMALL_SPEC + line + "\n"
        lineno = len(text.splitlines())
        with pytest.raises(ValueError, match=f"line {lineno}: seeds .* select no seed"):
            harness.parse_spec(text)
        path = tmp_path / "empty.spec"
        path.write_text(text)
        assert cli.main(["run", "--spec", str(path), "--out", str(tmp_path / "out")]) == 1
        assert not (tmp_path / "out").exists()

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ValueError, match="seeds"):
            harness.parse_spec("app oltq\ngrid 0.1\nseeds 1 1\n")


class TestRunExperiment:
    def test_row_shape(self):
        spec = harness.parse_spec(SMALL_SPEC)
        rows, aggregates = harness.run_experiment(spec)
        assert len(rows) == 2 * 2 * 3  # algorithms x grid x seeds
        assert len(aggregates) == 2 * 2
        for row in rows:
            assert set(row) == set(harness.CSV_HEADER.split(","))

    def test_empty_algorithm_list(self):
        spec = harness.parse_spec(SMALL_SPEC)
        spec.algorithms = []
        rows, aggregates = harness.run_experiment(spec)
        assert rows == [] and aggregates == []

    def test_ratio_range_reward(self):
        spec = harness.parse_spec(SMALL_SPEC)
        rows, _ = harness.run_experiment(spec)
        for row in rows:
            if row["ratio"] is not None:
                assert 0.0 <= row["ratio"] <= 1.0 + 1e-9

    def test_aggregates_recompute_exactly(self):
        spec = harness.parse_spec(SMALL_SPEC)
        rows, aggregates = harness.run_experiment(spec)
        again = harness.aggregate(rows)
        assert again == aggregates

    def test_row_failures_are_recorded(self):
        spec = harness.parse_spec(SMALL_SPEC)
        spec.algorithms.append(harness.AlgorithmSpec("no-such-algorithm"))
        rows, _ = harness.run_experiment(spec)
        errors = [r for r in rows if str(r["flags"]).startswith("error:")]
        assert len(errors) == 2 * 3  # grid x seeds for the broken algorithm

    def test_model2_direction_at_single_point(self):
        # With exchanged demand patterns the switching run beats the pure
        # online baseline on average at a mid robustness guarantee.
        spec = harness.parse_spec("""
app oltq
generator model2
p_err 0.1
ell 6
T 720
prediction generator-paired
sweep robustness
grid 0.3
seeds 12
algorithm.name adaswitch
algorithm.name qfrac
""")
        rows, aggregates = harness.run_experiment(spec)
        by_algo = {a["algorithm"]: a["mean_ratio"] for a in aggregates}
        assert by_algo["adaswitch"] > by_algo["qfrac"]


class TestFileDrivenApps:
    def test_caching_sweep_from_files(self, tmp_path):
        from adaswitch import kserver as ks
        rng = random.Random(2)
        metric = ks.MetricSpace.uniform(["a", "b", "c", "d"])
        ks.write_metric(str(tmp_path / "metric.txt"), metric, k=2)
        reqs = ks.make_requests([rng.choice(metric.points) for _ in range(25)])
        ks.write_requests(str(tmp_path / "reqs.txt"), reqs)
        spec = harness.parse_spec(f"""
app caching
generator file
metric {tmp_path / 'metric.txt'}
instance {tmp_path / 'reqs.txt'}
prediction perfect
sweep epsilon
grid 3.4 4.0
seeds 2
algorithm.name adaswitch
""")
        rows, aggregates = harness.run_experiment(spec)
        assert len(rows) == 4
        assert all(not str(r["flags"]).startswith("error:") for r in rows)
        assert all(r["ratio"] is None or r["ratio"] >= 1.0 - 1e-9 for r in rows)

    def test_orra_sweep_from_files(self, tmp_path):
        params = orra.OrraParams(2, 2)
        rng = random.Random(5)
        reqs = orra.make_requests(
            params, [tuple(rng.randint(0, 1) for _ in range(2)) for _ in range(20)])
        orra.write_instance(str(tmp_path / "inst.txt"), params, reqs)
        spec = harness.parse_spec(f"""
app orra
generator file
instance {tmp_path / 'inst.txt'}
prediction perfect
sweep epsilon
grid 0.2
seeds 2
algorithm.name adaswitch
algorithm.mc_cap 30
""")
        rows, _ = harness.run_experiment(spec)
        assert len(rows) == 2
        assert all(not str(r["flags"]).startswith("error:") for r in rows)
        assert all(r["ratio"] is None or 0.0 <= r["ratio"] <= 1.0 + 1e-9
                   for r in rows)

    @pytest.mark.parametrize("read, text, line", [
        (oltq.read_instance, "3 x\n1\n", 1),
        (orra.read_instance, "2 2\n11\n", 1),
        (orra.read_instance, "2 2 2\n11\n1\n", 3),
        (kserver.read_metric, "3\na\nb\nc\nuniform\n", 1),
        (kserver.read_metric, "2 k\na\nb\nuniform\n", 1),
        (kserver.read_metric, "2 1\na\nb\n0 x\n1 0\n", 4),
        (oltq.read_instance, "3 -2\n", 1),
        (oltq.read_instance, "0 0\n", 1),
        (orra.read_instance, "2 2 -1\n", 1),
        (orra.read_instance, "0 2 1\n\n", 1),
        (orra.read_instance, "2 0 1\n11\n", 1),
        (kserver.read_metric, "2 5\na\nb\nuniform\n", 1),
        (kserver.read_metric, "2 0\na\nb\nuniform\n", 1),
        (kserver.read_metric, "-1 1\nuniform\n", 1),
        (oltq.read_instance, "2 2\n1\n5\n", 3),
        (kserver.read_metric, "2 1\na\na\nuniform\n", 3),
        (kserver.read_requests, "a\n\nb\n\n", 2),
        (kserver.read_metric, "2 1\na\n", 3),
    ], ids=["oltq-header-field", "orra-header-short", "orra-short-bitstring",
            "metric-header-short", "metric-header-field", "metric-distance-field",
            "oltq-negative-T", "oltq-zero-ell", "orra-negative-T", "orra-zero-n",
            "orra-zero-d", "metric-k-above-n", "metric-zero-k", "metric-negative-n",
            "oltq-arrival-above-ell", "metric-duplicate-point",
            "requests-interior-blank", "metric-ends-in-points"])
    def test_malformed_file_names_path_and_line(self, tmp_path, read, text, line):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=rf"bad\.txt: line {line}: expected"):
            read(str(path))


class TestEmission:
    def test_csv_round_trip(self, tmp_path):
        spec = harness.parse_spec(SMALL_SPEC)
        rows, aggregates = harness.run_experiment(spec)
        files = harness.emit_report(rows, aggregates, str(tmp_path))
        csv_path = next(f for f in files if f.endswith("report.csv"))
        with open(csv_path, encoding="ascii") as fh:
            parsed = harness.parse_rows(fh.read())
        assert len(parsed) == len(rows)
        for row, back in zip(rows, parsed):
            for key in ("app", "algorithm", "seed", "switches"):
                assert back[key] == row[key]
            for key in ("val", "opt", "ratio", "phi_star"):
                if row[key] is None or (isinstance(row[key], float)
                                        and math.isnan(row[key])):
                    assert back[key] is None
                else:
                    assert back[key] == row[key]

    def test_undefined_ratio_serializes_empty(self):
        row = {"app": "oltq", "algorithm": "adaswitch", "sweep_axis": "robustness",
               "sweep_value": 0.2, "seed": 0, "val": 0.0, "opt": 0.0, "ratio": None,
               "phi_star": 0.0, "switches": 0, "bound": None, "flags": ""}
        cells = harness.row_to_csv(row).split(",")
        header = harness.CSV_HEADER.split(",")
        assert cells[header.index("ratio")] == ""
        assert cells[header.index("opt")] == "0.0"

    def test_svg_single_point(self, tmp_path):
        spec = harness.parse_spec(SMALL_SPEC)
        spec.grid = [0.2]
        spec.seeds = [0]
        rows, aggregates = harness.run_experiment(spec)
        files = harness.emit_report(rows, aggregates, str(tmp_path))
        svg = next(f for f in files if f.endswith(".svg"))
        content = open(svg, encoding="ascii").read()
        assert content.startswith("<svg") and "polyline" in content

    def test_svg_labels_all_series(self, tmp_path):
        spec = harness.parse_spec(SMALL_SPEC + "algorithm.name strengthened\n")
        rows, aggregates = harness.run_experiment(spec)
        files = harness.emit_report(rows, aggregates, str(tmp_path))
        svg = next(f for f in files if f.endswith(".svg"))
        content = open(svg, encoding="ascii").read()
        for name in ("adaswitch", "qfrac", "strengthened"):
            assert f">{name}</text>" in content

    def test_svg_refuses_empty_table(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            harness.emit_report([], [], str(tmp_path), formats=("svg",))
