"""Tests for the serving-scale benchmark suite and its harness gating."""

from __future__ import annotations

import pytest

from repro.bench import (
    FULL_SERVING_PROFILE,
    QUICK_SERVING_PROFILE,
    ServingScaleProfile,
    build_report,
    compare_reports,
    dump_report,
    load_report,
    run_suite,
)
from repro.bench.__main__ import SUITES, format_scenarios
from repro.bench.__main__ import main as bench_main
from repro.serving.loadgen import run_load

#: Smallest meaningful grid: two cells per hub, one trial, one scene.
TINY_SERVING = ServingScaleProfile(
    name="tiny",
    sensor_counts=(1, 2),
    scenes=1,
    duration_s=0.3,
    batch_us=4_000,
    workers=2,
    trials=1,
    warmup_batches=20,
    speedup_cell=16,  # absent from the grid -> falls back to the 2-cell
)


@pytest.fixture(scope="module")
def tiny_results():
    return run_suite(TINY_SERVING)


class TestRunSuite:
    def test_scenarios_and_per_cell_metrics(self, tiny_results):
        assert set(tiny_results) == {"thread_hub", "process_hub"}
        for metrics in tiny_results.values():
            assert metrics["primary"] == "frames_per_s_2"
            assert metrics[metrics["primary"]] > 0
            for sensors in (1, 2):
                assert metrics[f"frames_per_s_{sensors}"] > 0
                assert metrics[f"events_per_s_{sensors}"] > 0
                assert metrics[f"p99_ms_{sensors}"] >= 0
            assert metrics["parity_ok"] == 1.0
            assert metrics["parity_sensors"] == 2.0  # the widest checked cell

    def test_scaling_efficiency_reported_per_hub(self, tiny_results):
        for metrics in tiny_results.values():
            efficiency = metrics["scaling_efficiency_2"]
            assert efficiency == pytest.approx(
                metrics["frames_per_s_2"] / (2 * metrics["frames_per_s_1"])
            )

    def test_speedup_cell_falls_back_to_largest(self, tiny_results):
        process = tiny_results["process_hub"]
        assert process["speedup_cell_sensors"] == 2.0
        assert process["speedup_vs_thread"] == pytest.approx(
            process["frames_per_s_2"]
            / tiny_results["thread_hub"]["frames_per_s_2"]
        )
        for sensors in (1, 2):
            assert process[f"ratio_vs_thread_{sensors}"] > 0
        assert "speedup_vs_thread" not in tiny_results["thread_hub"]

    def test_a_corrupt_summary_in_any_cell_raises(self, monkeypatch):
        import repro.bench.serving_scale as suite

        replays = []

        def corrupting_run_load(hub, workload, **kwargs):
            report = run_load(hub, workload, **kwargs)
            replays.append(len(workload))
            if len(replays) == 3:  # thread hub, second timed cell
                summary = next(iter(report["summaries"].values()))
                summary["num_frames"] += 1
            return report

        monkeypatch.setattr(suite, "run_load", corrupting_run_load)
        with pytest.raises(RuntimeError, match="thread hub diverged"):
            run_suite(TINY_SERVING)
        assert replays == [2, 1, 2]  # warm-up, 1-sensor cell, 2-sensor cell

    def test_committed_profiles_target_the_16_sensor_cell(self):
        for profile in (FULL_SERVING_PROFILE, QUICK_SERVING_PROFILE):
            assert profile.speedup_cell == 16
            assert 16 in profile.sensor_counts


def make_serving_report(scenarios, score=10.0):
    return {
        "benchmark": "serving_scale",
        "version": 1,
        "profile": "tiny",
        "calibration": {"score": score},
        "scenarios": scenarios,
    }


class TestHarnessGating:
    """``speedup_vs_*`` is gated raw; ``ratio_vs_thread_*`` is informational."""

    def _report(self, speedup, ratio=2.0, fps=100.0):
        return make_serving_report(
            {
                "process_hub": {
                    "primary": "frames_per_s_2",
                    "frames_per_s_2": fps,
                    "speedup_vs_thread": speedup,
                    "ratio_vs_thread_2": ratio,
                }
            }
        )

    def test_speedup_vs_thread_collapse_regresses(self):
        comparisons = compare_reports(
            self._report(speedup=0.9), self._report(speedup=2.5), tolerance=0.3
        )
        regressed = {c.metric: c.regressed for c in comparisons}
        assert regressed["speedup_vs_thread"] is True
        assert regressed["frames_per_s_2"] is False

    def test_speedup_tolerance_is_doubled(self):
        # tolerance 0.3 -> speedup margin 0.6: a drop to 45% of baseline
        # survives, machine-to-machine ratio noise must not gate.
        comparisons = compare_reports(
            self._report(speedup=1.125), self._report(speedup=2.5), tolerance=0.3
        )
        by_metric = {c.metric: c for c in comparisons}
        assert by_metric["speedup_vs_thread"].regressed is False

    def test_ratio_curve_is_not_gated(self):
        comparisons = compare_reports(
            self._report(speedup=2.5, ratio=0.1),
            self._report(speedup=2.5, ratio=3.0),
            tolerance=0.3,
        )
        assert "ratio_vs_thread_2" not in {c.metric for c in comparisons}

    def test_build_report_records_suite_name(self):
        report = build_report(
            TINY_SERVING, {"process_hub": {"primary": "v", "v": 1.0}},
            {"score": 1.0}, benchmark="serving_scale",
        )
        assert report["benchmark"] == "serving_scale"
        assert report["profile"] == "tiny"


class TestCli:
    def test_suite_registry_names_committed_artifacts(self):
        assert SUITES["serving_scale"] == (
            "BENCH_serving_scale.json",
            "BENCH_serving_scale_quick.json",
        )

    def test_scenarios_flag_rejected_for_serving_suite(self, capsys):
        code = bench_main(
            ["--suite", "serving_scale", "--scenarios", "nn_filter"]
        )
        assert code == 2
        assert "event_path" in capsys.readouterr().err

    def test_list_mentions_serving_scale(self, capsys):
        assert bench_main(["--list"]) == 0
        assert "serving_scale" in capsys.readouterr().out

    def test_quick_run_gates_against_baseline(self, tmp_path, monkeypatch, capsys):
        # A real tiny run against an absurdly fast fabricated baseline:
        # the committed-artifact gate must fail on the speedup collapse.
        import repro.bench.serving_scale as suite

        monkeypatch.setattr(suite, "QUICK_SERVING_PROFILE", TINY_SERVING)
        baseline_path = tmp_path / "baseline.json"
        dump_report(
            make_serving_report(
                {
                    "process_hub": {
                        "primary": "frames_per_s_2",
                        "frames_per_s_2": 1e15,
                        "speedup_vs_thread": 1e6,
                    }
                }
            ),
            str(baseline_path),
        )
        out_path = tmp_path / "report.json"
        code = bench_main(
            [
                "--suite",
                "serving_scale",
                "--quick",
                "--check",
                "--baseline",
                str(baseline_path),
                "--output",
                str(out_path),
            ]
        )
        assert code == 1
        written = load_report(str(out_path))
        assert written["benchmark"] == "serving_scale"
        assert set(written["scenarios"]) == {"thread_hub", "process_hub"}
        assert "speedup_vs_thread" in capsys.readouterr().out


class TestFormatScenarios:
    def test_speedup_column_picks_speedup_vs_metrics_only(self):
        report = make_serving_report(
            {
                "process_hub": {
                    "primary": "frames_per_s_2",
                    "frames_per_s_2": 350.0,
                    "ratio_vs_thread_2": 9.9,
                    "speedup_vs_thread": 2.5,
                },
                "thread_hub": {
                    "primary": "frames_per_s_2",
                    "frames_per_s_2": 150.0,
                },
            }
        )
        table = format_scenarios(report)
        process_line = next(l for l in table.splitlines() if "process_hub" in l)
        thread_line = next(l for l in table.splitlines() if "thread_hub" in l)
        assert "2.5x" in process_line
        assert "9.9" not in process_line
        assert "—" in thread_line
