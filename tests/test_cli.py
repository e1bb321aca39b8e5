"""Command-line behavior: exit codes, overrides, determinism, validation."""

import subprocess
import sys

import pytest

from adaswitch import cli, harness
from adaswitch import oltq


SPEC = """
app oltq
generator geometric
p 0.25
ell 4
T 60
prediction perfect
sweep robustness
grid 0.2 0.3
seeds 2
algorithm.name adaswitch
algorithm.name qfrac
"""


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "exp.spec"
    path.write_text(SPEC)
    return str(path)


class TestRun:
    def test_success_writes_files(self, spec_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(["run", "--spec", spec_file, "--out", str(out)])
        assert code == 0
        assert (out / "report.csv").exists()
        assert (out / "report.svg").exists()
        assert (out / "report_aggregates.csv").exists()
        assert "mean ratio" in capsys.readouterr().out

    def test_missing_spec_names_path(self, tmp_path, capsys):
        code = cli.main(["run", "--spec", str(tmp_path / "nope.spec"),
                         "--out", str(tmp_path)])
        assert code == 1
        assert "nope.spec" in capsys.readouterr().err

    def test_bad_spec_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.spec"
        bad.write_text("app oltq\nalgorithm.Z 4\n")
        code = cli.main(["run", "--spec", str(bad), "--out", str(tmp_path)])
        assert code == 1

    def test_seeds_override(self, spec_file, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["run", "--spec", spec_file, "--out", str(out),
                         "--seeds", "3", "--format", "csv"]) == 0
        rows = harness.parse_rows((out / "report.csv").read_text())
        for algo in ("adaswitch", "qfrac"):
            for sweep in (0.2, 0.3):
                matching = [r for r in rows if r["algorithm"] == algo
                            and r["sweep_value"] == sweep]
                assert len(matching) == 3

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_seeds_override_must_select_a_seed(self, spec_file, tmp_path, capsys, count):
        out = tmp_path / "out"
        assert cli.main(["run", "--spec", spec_file, "--out", str(out),
                         "--seeds", count]) == 1
        assert f"--seeds {count}" in capsys.readouterr().err
        assert not out.exists()

    def test_byte_identical_reruns(self, spec_file, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run", "--spec", spec_file, "--out", str(out_a),
                         "--seed", "7", "--format", "csv"]) == 0
        assert cli.main(["run", "--spec", spec_file, "--out", str(out_b),
                         "--seed", "7", "--format", "csv"]) == 0
        assert (out_a / "report.csv").read_bytes() == \
            (out_b / "report.csv").read_bytes()

    def test_runtime_failure_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "broken.spec"
        bad.write_text(SPEC + "algorithm.name no-such-algorithm\n")
        code = cli.main(["run", "--spec", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "no-such-algorithm" in capsys.readouterr().err

    def test_verbose_configures_logging(self, tmp_path):
        # One failing row: with -v its warning goes through a handler that
        # basicConfig installed (level:logger:message), without -v only
        # through the last-resort handler (bare message).
        bad = tmp_path / "broken.spec"
        bad.write_text(SPEC.replace("seeds 2", "seeds 1").replace("grid 0.2 0.3", "grid 0.2")
                       + "algorithm.name no-such-algorithm\n")
        stderr = {}
        for flags in ([], ["-v"]):
            proc = subprocess.run(
                [sys.executable, "-m", "adaswitch.cli", "run", *flags,
                 "--spec", str(bad), "--out", str(tmp_path / "o"), "--format", "csv"],
                capture_output=True, text=True, timeout=300)
            assert proc.returncode == 2
            stderr[bool(flags)] = proc.stderr
        assert "WARNING:adaswitch.harness:row failed" in stderr[True]
        assert "WARNING:" not in stderr[False]
        assert "row failed: oltq/no-such-algorithm" in stderr[False]

    def test_unknown_flag_is_an_error(self, spec_file, tmp_path):
        with pytest.raises(SystemExit):
            cli.main(["run", "--spec", spec_file, "--out", str(tmp_path),
                      "--frobnicate", "1"])


class TestValidate:
    def test_framework_suite_passes(self, capsys):
        assert cli.main(["validate", "framework"]) == 0
        out = capsys.readouterr().out
        assert "PASS framework/trajectory-replay" in out

    def test_budget_scales_and_completes(self, capsys):
        assert cli.main(["validate", "framework", "--budget", "15"]) == 0

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["validate", "nonsense"])

    def test_mutation_is_caught_and_named(self, monkeypatch, capsys):
        # Off-by-one in the online policy's per-period quota: the oltq suite
        # must fail and name the schedule-state/robustness property.
        original = oltq.QFracStarPolicy.quota
        monkeypatch.setattr(oltq.QFracStarPolicy, "quota",
                            lambda self, t, e: original(self, t, e) + 1)
        code = cli.main(["validate", "oltq"])
        assert code == 3
        captured = capsys.readouterr()
        assert "FAIL oltq/qfrac-star" in captured.out
        assert "qfrac-star" in captured.err  # counterexample names the property


class TestEntryPoint:
    def test_module_invocation(self, spec_file, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "adaswitch.cli", "validate", "framework"],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0
        assert "PASS" in proc.stdout
