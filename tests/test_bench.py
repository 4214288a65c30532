"""Tests for the ``repro.bench`` perf-regression harness."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench import (
    SCENARIOS,
    BenchProfile,
    build_report,
    calibrate,
    compare_reports,
    dump_report,
    load_report,
    parse_scenario_list,
)
from repro.bench.__main__ import main as bench_main
from repro.bench.harness import missing_scenarios

#: Tiny sizes so the whole module stays in test-suite time budget.
TINY = BenchProfile(
    name="tiny",
    scenes=3,
    duration_s=0.4,
    filter_events=6_000,
    filter_scalar_events=1_500,
    serving_sensors=2,
)


#: The repository root, where the committed baselines live.
REPO_ROOT = Path(__file__).resolve().parent.parent


def make_report(scenarios):
    return {
        "benchmark": "event_path",
        "version": 1,
        "profile": "tiny",
        "calibration": {"score": 10.0},
        "scenarios": scenarios,
    }


class TestScenarios:
    def test_filter_scenarios_report_speedup(self):
        metrics = SCENARIOS["nn_filter"](TINY)
        assert metrics["events_per_s"] > 0
        assert metrics["scalar_events_per_s"] > 0
        assert metrics["speedup_vs_scalar"] > 0
        assert metrics["primary"] in metrics

    def test_ebms_scenario_reports_speedup(self):
        metrics = SCENARIOS["ebms_pipeline"](TINY)
        assert metrics["frames_per_s"] > 0
        assert metrics["scalar_frames_per_s"] > 0
        assert metrics["speedup_vs_scalar"] > 0

    def test_overlap_and_serving_scenarios(self):
        overlap = SCENARIOS["overlap_pipeline"](TINY)
        assert overlap["events_per_s"] > 0
        serving = SCENARIOS["serving"](TINY)
        assert serving["events_per_s_1"] > 0
        assert serving["events_per_s_n"] > 0

    def test_kalman_scenario_runs_the_overlap_workload(self):
        kalman = SCENARIOS["kalman_pipeline"](TINY)
        assert kalman["events_per_s"] > 0
        assert kalman["primary"] in kalman
        # Same fleet, same windows: only the tracker differs.
        assert kalman["num_frames"] == SCENARIOS["overlap_pipeline"](TINY)["num_frames"]

    def test_dataset_replay_scenario(self):
        metrics = SCENARIOS["dataset_replay"](TINY)
        assert metrics["primary"] == "events_per_s"
        assert metrics["events_per_s"] > 0
        assert metrics["load_events_per_s"] > 0
        assert metrics["replay_events_per_s"] > 0
        assert metrics["num_recordings"] == TINY.scenes
        assert metrics["num_events"] > 0

    def test_parse_scenario_list(self):
        assert parse_scenario_list("nn_filter, ebms_pipeline") == [
            "nn_filter",
            "ebms_pipeline",
        ]
        with pytest.raises(ValueError):
            parse_scenario_list("bogus")
        with pytest.raises(ValueError):
            parse_scenario_list(" , ")


class TestCalibrationAndReport:
    def test_calibrate_shape(self):
        calibration = calibrate()
        assert calibration["score"] > 0
        assert calibration["numpy_s"] > 0
        assert calibration["python_s"] > 0

    def test_report_round_trip(self, tmp_path):
        report = build_report(TINY, {"x": {"primary": "v", "v": 1.0}}, {"score": 2.0})
        path = tmp_path / "report.json"
        dump_report(report, str(path))
        loaded = load_report(str(path))
        assert loaded == json.loads(json.dumps(report))
        assert load_report(str(tmp_path / "missing.json")) is None


class TestCompareMetric:
    def test_up_metric_regresses_on_drop_beyond_margin(self):
        from repro.bench.compare import compare_metric

        assert compare_metric("s", "m", 60.0, 100.0, tolerance=0.3).regressed
        assert not compare_metric("s", "m", 71.0, 100.0, tolerance=0.3).regressed

    def test_down_metric_regresses_on_rise_beyond_margin(self):
        from repro.bench.compare import compare_metric

        up = compare_metric("s", "m", 140.0, 100.0, tolerance=0.3, direction="down")
        assert up.regressed
        drop = compare_metric("s", "m", 10.0, 100.0, tolerance=0.3, direction="down")
        assert not drop.regressed

    def test_floor_makes_margin_absolute_near_zero(self):
        from repro.bench.compare import compare_metric

        relative = compare_metric("s", "m", -0.04, 0.01, tolerance=0.1)
        assert relative.regressed  # margin 0.001: any real drop trips it
        floored = compare_metric("s", "m", -0.04, 0.01, tolerance=0.1, floor=1.0)
        assert not floored.regressed  # margin 0.1 absolute

    def test_invalid_direction_and_tolerance_rejected(self):
        from repro.bench.compare import compare_metric

        with pytest.raises(ValueError, match="direction"):
            compare_metric("s", "m", 1.0, 1.0, tolerance=0.1, direction="sideways")
        with pytest.raises(ValueError, match="tolerance"):
            compare_metric("s", "m", 1.0, 1.0, tolerance=-0.1)

    def test_zero_baseline_ratio_conventions(self):
        from repro.bench.compare import compare_metric

        assert compare_metric("s", "m", 0.0, 0.0, tolerance=0.1).ratio == 1.0
        assert compare_metric("s", "m", 2.0, 0.0, tolerance=0.1).ratio == float("inf")


class TestCompareReports:
    def test_no_regression_when_equal(self):
        report = make_report(
            {"s": {"primary": "v", "v": 100.0, "speedup_vs_scalar": 8.0}}
        )
        comparisons = compare_reports(report, report, tolerance=0.3)
        assert len(comparisons) == 2
        assert not any(c.regressed for c in comparisons)

    def test_throughput_regression_detected(self):
        baseline = make_report({"s": {"primary": "v", "v": 100.0}})
        current = make_report({"s": {"primary": "v", "v": 50.0}})
        comparisons = compare_reports(current, baseline, tolerance=0.3)
        assert [c.regressed for c in comparisons] == [True]

    def test_speedup_regression_detected(self):
        baseline = make_report(
            {"s": {"primary": "v", "v": 100.0, "speedup_vs_scalar": 10.0}}
        )
        current = make_report(
            {"s": {"primary": "v", "v": 100.0, "speedup_vs_scalar": 2.0}}
        )
        comparisons = compare_reports(current, baseline, tolerance=0.3)
        regressed = {c.metric: c.regressed for c in comparisons}
        assert regressed["speedup_vs_scalar"] is True
        assert regressed["v"] is False

    def test_calibration_normalizes_machine_speed(self):
        # Same code on a machine half as fast: throughput halves, score
        # halves, no regression flagged.
        baseline = make_report({"s": {"primary": "v", "v": 100.0}})
        current = make_report({"s": {"primary": "v", "v": 50.0}})
        current["calibration"] = {"score": 5.0}
        comparisons = compare_reports(current, baseline, tolerance=0.3)
        assert not any(c.regressed for c in comparisons)

    def test_missing_scenarios_are_skipped(self):
        baseline = make_report({"a": {"primary": "v", "v": 1.0}})
        current = make_report({"b": {"primary": "v", "v": 1.0}})
        assert compare_reports(current, baseline) == []

    def test_missing_scenarios_named_in_baseline_order(self):
        metrics = {"primary": "v", "v": 1.0}
        baseline = make_report({"c": metrics, "a": metrics, "b": metrics})
        current = make_report({"a": metrics, "d": metrics})
        assert missing_scenarios(current, baseline) == ["c", "b"]
        assert missing_scenarios(baseline, baseline) == []

    @pytest.mark.parametrize(
        "baseline_name", ["BENCH_event_path.json", "BENCH_event_path_quick.json"]
    )
    def test_committed_baseline_has_no_stale_scenarios(self, baseline_name):
        # Every committed baseline row must be a registered scenario, or a
        # full --check run against it exits 2.
        baseline = load_report(str(REPO_ROOT / baseline_name))
        assert baseline is not None and baseline["scenarios"]
        assert missing_scenarios(make_report(dict(SCENARIOS)), baseline) == []

    def test_invalid_tolerance_rejected(self):
        report = make_report({})
        with pytest.raises(ValueError):
            compare_reports(report, report, tolerance=1.5)


class TestCli:
    def test_list_scenarios(self, capsys):
        assert bench_main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out

    def test_unknown_scenario_errors(self, capsys):
        assert bench_main(["--scenarios", "bogus"]) == 2

    def test_check_without_baseline_fails(self, tmp_path, capsys, monkeypatch):
        # A gate with nothing to gate against must not silently pass.
        import repro.bench.__main__ as cli

        monkeypatch.setattr(cli, "QUICK_PROFILE", TINY)
        code = bench_main(
            [
                "--quick",
                "--check",
                "--scenarios",
                "nn_filter",
                "--baseline",
                str(tmp_path / "missing.json"),
                "--output",
                str(tmp_path / "report.json"),
            ]
        )
        assert code == 2

    def test_check_with_nothing_comparable_fails(self, tmp_path, monkeypatch):
        import repro.bench.__main__ as cli

        monkeypatch.setattr(cli, "QUICK_PROFILE", TINY)
        baseline_path = tmp_path / "baseline.json"
        dump_report(make_report({"unrelated": {"primary": "v", "v": 1.0}}), str(baseline_path))
        code = bench_main(
            [
                "--quick",
                "--check",
                "--scenarios",
                "nn_filter",
                "--baseline",
                str(baseline_path),
                "--output",
                str(tmp_path / "report.json"),
            ]
        )
        assert code == 2

    def test_check_without_output_leaves_the_baseline_untouched(
        self, tmp_path, capsys, monkeypatch
    ):
        # With no --output, --check compares against the profile's artifact
        # in the working directory and writes nothing over it.
        import repro.bench.__main__ as cli

        monkeypatch.setattr(cli, "QUICK_PROFILE", TINY)
        monkeypatch.chdir(tmp_path)
        baseline_path = tmp_path / "BENCH_event_path_quick.json"
        metrics = {"primary": "events_per_s", "events_per_s": 1e-9, "speedup_vs_scalar": 1e-9}
        # Compact JSON: any report written over it would change its bytes.
        baseline_path.write_text(json.dumps(make_report({"nn_filter": metrics})))
        before = baseline_path.read_bytes()
        assert bench_main(["--quick", "--check", "--scenarios", "nn_filter"]) == 0
        assert baseline_path.read_bytes() == before
        assert [path.name for path in tmp_path.iterdir()] == [baseline_path.name]
        assert "wrote JSON report" not in capsys.readouterr().out

    def test_check_with_output_compares_against_the_committed_baseline(
        self, tmp_path, capsys, monkeypatch
    ):
        # --output only says where a checked run's report goes: the gate
        # still reads the profile's committed artifact, here an absurdly
        # fast one that the tiny run must fail against.
        import repro.bench.__main__ as cli

        monkeypatch.setattr(cli, "QUICK_PROFILE", TINY)
        monkeypatch.chdir(tmp_path)
        metrics = {"primary": "events_per_s", "events_per_s": 1e15, "speedup_vs_scalar": 1e6}
        dump_report(make_report({"nn_filter": metrics}), "BENCH_event_path_quick.json")
        output = tmp_path / "checked_report.json"
        code = bench_main(
            ["--quick", "--check", "--scenarios", "nn_filter", "--output", str(output)]
        )
        assert code == 1
        assert "baseline: BENCH_event_path_quick.json" in capsys.readouterr().out
        assert load_report(str(output))["scenarios"]["nn_filter"]["events_per_s"] < 1e15

    def test_check_fails_on_regression(self, tmp_path, capsys, monkeypatch):
        # Fabricate an absurdly fast committed baseline, then run a real
        # tiny benchmark against it: the check must fail.
        import repro.bench.__main__ as cli

        monkeypatch.setattr(cli, "QUICK_PROFILE", TINY)
        baseline_path = tmp_path / "baseline.json"
        dump_report(
            make_report(
                {
                    "nn_filter": {
                        "primary": "events_per_s",
                        "events_per_s": 1e15,
                        "speedup_vs_scalar": 1e6,
                    }
                }
            ),
            str(baseline_path),
        )
        out_path = tmp_path / "report.json"
        code = bench_main(
            [
                "--quick",
                "--check",
                "--scenarios",
                "nn_filter",
                "--baseline",
                str(baseline_path),
                "--output",
                str(out_path),
            ]
        )
        assert code == 1
        assert out_path.exists()
        written = load_report(str(out_path))
        assert "nn_filter" in written["scenarios"]

    def _check_against(
        self, tmp_path, baseline_scenarios, extra_args=(), value=1e-9, check=True
    ):
        """Exit code of a tiny run against a baseline of these scenarios."""
        baseline_path = tmp_path / "baseline.json"
        # Near-zero baseline values by default: the comparison itself never
        # regresses.
        metrics = {"primary": "events_per_s", "events_per_s": value, "speedup_vs_scalar": value}
        dump_report(
            make_report({name: metrics for name in baseline_scenarios}), str(baseline_path)
        )
        return bench_main(
            [
                "--quick",
                *(("--check",) if check else ()),
                *extra_args,
                "--baseline",
                str(baseline_path),
                "--output",
                str(tmp_path / "report.json"),
            ]
        )

    def test_check_fails_on_baseline_scenario_missing_from_run(
        self, tmp_path, capsys, monkeypatch
    ):
        # A baseline scenario the run no longer reports (say, a deleted
        # one) must fail the gate by name, not pass on what remains.
        import repro.bench.__main__ as cli

        monkeypatch.setattr(cli, "QUICK_PROFILE", TINY)
        monkeypatch.setattr(cli, "SCENARIOS", {"nn_filter": SCENARIOS["nn_filter"]})
        assert self._check_against(tmp_path, ["nn_filter"]) == 0
        capsys.readouterr()
        assert self._check_against(tmp_path, ["nn_filter", "retired"]) == 2
        captured = capsys.readouterr()
        assert "retired: MISSING" in captured.out
        assert "missing from this run: retired" in captured.err

    def test_check_with_scenarios_ignores_baseline_scenarios_not_asked_for(
        self, tmp_path, monkeypatch
    ):
        import repro.bench.__main__ as cli

        monkeypatch.setattr(cli, "QUICK_PROFILE", TINY)
        code = self._check_against(
            tmp_path, ["nn_filter", "retired"], ("--scenarios", "nn_filter")
        )
        assert code == 0

    def test_missing_scenario_outranks_a_regression(self, tmp_path, capsys, monkeypatch):
        # nn_filter regresses against an absurd baseline and "retired" is
        # missing: the coverage loss decides the exit code.
        import repro.bench.__main__ as cli

        monkeypatch.setattr(cli, "QUICK_PROFILE", TINY)
        monkeypatch.setattr(cli, "SCENARIOS", {"nn_filter": SCENARIOS["nn_filter"]})
        assert self._check_against(tmp_path, ["nn_filter"], value=1e15) == 1
        capsys.readouterr()
        assert self._check_against(tmp_path, ["nn_filter", "retired"], value=1e15) == 2
        captured = capsys.readouterr()
        assert "REGRESSED" in captured.out
        assert "missing from this run: retired" in captured.err

    def test_missing_scenario_reported_but_not_gated_without_check(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.bench.__main__ as cli

        monkeypatch.setattr(cli, "QUICK_PROFILE", TINY)
        monkeypatch.setattr(cli, "SCENARIOS", {"nn_filter": SCENARIOS["nn_filter"]})
        assert self._check_against(tmp_path, ["nn_filter", "retired"], check=False) == 0
        captured = capsys.readouterr()
        assert "retired: MISSING" in captured.out
        assert captured.err == ""
