"""Tests for the scenario-matrix robustness suite (``repro.scenarios``)."""

import json
from dataclasses import replace

import pytest

from repro.core.config import EbbiotConfig
from repro.scenarios import __main__ as cli
from repro.scenarios.compare import (
    compare_quality_reports,
    missing_cells,
)
from repro.scenarios.library import (
    MATRICES,
    SCENARIO_LIBRARY,
    MatrixSpec,
    NoiseRegime,
    ScenarioSpec,
    build_scenario_recordings,
    scenario_jobs,
)
from repro.scenarios.matrix import (
    MATRIX_VERSION,
    SUITE_NAME,
    apply_config_overrides,
    run_cell,
    run_matrix,
)
from repro.runtime.runner import RunnerConfig, StreamRunner
from repro.utils.geometry import BoundingBox

#: One deterministic cell at smoke size: the scripted crossing scene always
#: contains its two objects, so every metric is exercised.
TINY_MATRIX = MatrixSpec(
    name="quick",
    scenarios=("occlusion-cross",),
    trackers=("overlap",),
    num_scenes=1,
    duration_s=1.5,
)

#: Quality metrics that must be bit-stable run to run (everything except
#: the wall-clock latency).
DETERMINISTIC_METRICS = (
    "mota",
    "motp",
    "precision",
    "recall",
    "num_matches",
    "num_misses",
    "num_false_positives",
    "num_id_switches",
    "num_ground_truth_boxes",
    "num_frames",
    "num_tracks",
)


def make_report(cells, score=50.0, matrix="quick", suite=SUITE_NAME):
    """A minimal matrix report for compare-layer tests (no rendering)."""
    return {
        "suite": suite,
        "version": MATRIX_VERSION,
        "matrix": matrix,
        "config": {},
        "calibration": {"score": score},
        "cells": cells,
    }


# ---------------------------------------------------------------------------
# scenario grammar
# ---------------------------------------------------------------------------


class TestScenarioGrammar:
    def test_library_names_match_keys(self):
        for name, spec in SCENARIO_LIBRARY.items():
            assert spec.name == name

    def test_matrices_reference_known_scenarios(self):
        for matrix in MATRICES.values():
            for scenario in matrix.scenarios:
                assert scenario in SCENARIO_LIBRARY

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            MatrixSpec(name="bad", scenarios=("nope",), trackers=("overlap",))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            ScenarioSpec(name="x", description="", kind="volcano")

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            NoiseRegime(name="bad", background_rate_hz_per_pixel=-1.0)

    def test_scaled_shrinks_but_never_grows_scenes(self):
        spec = SCENARIO_LIBRARY["density-urban"]
        assert spec.scaled(1, 2.0).num_scenes == 1
        assert spec.scaled(99, 2.0).num_scenes == spec.num_scenes
        assert spec.scaled(1, 2.0).duration_s == 2.0

    def test_pipeline_config_carries_duty_and_threshold(self):
        spec = SCENARIO_LIBRARY["duty-cycled-roe"]
        config = spec.pipeline_config()
        assert config.duty_cycle is not None
        assert config.duty_cycle.frame_duration_us == config.frame_duration_us
        assert config.roe_max_overlap_fraction == spec.roe_max_overlap_fraction

    def test_duty_model_follows_frame_duration_override(self):
        spec = SCENARIO_LIBRARY["duty-cycled-roe"]
        base = EbbiotConfig(frame_duration_us=33_000)
        assert spec.pipeline_config(base).duty_cycle.frame_duration_us == 33_000

    def test_scenario_jobs_layer_declared_roe_boxes(self):
        spec = replace(
            SCENARIO_LIBRARY["duty-cycled-roe"].scaled(1, 1.5),
            roe_boxes=(BoundingBox(0, 0, 10, 10), BoundingBox(5, 0, 10, 10)),
        )
        recordings = build_scenario_recordings(spec)
        jobs = scenario_jobs(spec, "overlap", recordings=recordings)
        assert len(jobs) == 1
        declared = jobs[0].config.roe_boxes[-2:]
        assert [(b.x, b.width) for b in declared] == [(0, 10), (5, 10)]


# ---------------------------------------------------------------------------
# determinism (satellite: same seed => byte-identical packets, same metrics)
# ---------------------------------------------------------------------------


class TestScenarioDeterminism:
    @pytest.mark.parametrize("name", ["occlusion-cross", "rain-storm"])
    def test_renders_are_byte_identical(self, name):
        spec = SCENARIO_LIBRARY[name].scaled(1, 1.5)
        first = build_scenario_recordings(spec)
        second = build_scenario_recordings(spec)
        assert [r.name for r in first] == [r.name for r in second]
        for a, b in zip(first, second):
            assert a.stream.events.tobytes() == b.stream.events.tobytes()

    def test_pooled_metrics_identical_across_runs_and_executors(self):
        spec = SCENARIO_LIBRARY["occlusion-cross"].scaled(1, 1.5)
        recordings = build_scenario_recordings(spec)
        serial = run_cell(spec, "overlap", recordings, executor="serial")
        threaded = run_cell(spec, "overlap", recordings, executor="thread")
        again = run_cell(spec, "overlap", recordings, executor="serial")
        for metric in DETERMINISTIC_METRICS:
            assert serial[metric] == threaded[metric] == again[metric], metric


# ---------------------------------------------------------------------------
# duty-cycled + ROE fleet, end to end (satellite)
# ---------------------------------------------------------------------------


class TestDutyCycledRoeFleet:
    def _run(self, spec, recordings):
        jobs = scenario_jobs(spec, "overlap", recordings=recordings)
        return StreamRunner(RunnerConfig(executor="serial")).run(jobs)

    def test_roe_drops_covered_proposals_and_duty_is_reported(self):
        base_spec = SCENARIO_LIBRARY["duty-cycled-roe"].scaled(1, 2.0)
        recordings = build_scenario_recordings(base_spec)

        open_batch = self._run(replace(base_spec, roe_boxes=()), recordings)
        assert sum(r.num_proposals for r in open_batch.recordings) > 0

        # An operator who excludes the whole frame gets no proposals at
        # all: the fleet path really routes declared boxes into the ROE.
        sealed = replace(
            base_spec, roe_boxes=(BoundingBox(0.0, 0.0, 240.0, 180.0),)
        )
        sealed_batch = self._run(sealed, recordings)
        assert sum(r.num_proposals for r in sealed_batch.recordings) == 0
        assert sum(r.num_tracks for r in sealed_batch.recordings) == 0

        # Wake/sleep accounting rides on every result either way.
        model = base_spec.duty.model(66_000.0)
        for batch in (open_batch, sealed_batch):
            for result in batch.recordings:
                assert result.duty is not None
                assert result.duty.num_frames == result.num_frames
                assert result.duty.active_fraction == pytest.approx(
                    model.duty_cycle
                )
                assert result.duty.sleep_fraction == pytest.approx(
                    1.0 - model.duty_cycle
                )
            summary = batch.fleet_summary()
            assert summary["mean_duty_active_fraction"] == pytest.approx(
                model.duty_cycle
            )

    def test_duty_free_scenario_reports_no_duty(self):
        spec = SCENARIO_LIBRARY["occlusion-cross"].scaled(1, 1.5)
        batch = self._run(spec, build_scenario_recordings(spec))
        assert all(r.duty is None for r in batch.recordings)
        assert batch.fleet_summary()["mean_duty_active_fraction"] is None


# ---------------------------------------------------------------------------
# config overrides (--set)
# ---------------------------------------------------------------------------


class TestApplyConfigOverrides:
    def test_types_follow_field_declarations(self):
        config = apply_config_overrides(
            EbbiotConfig(),
            {"overlap_threshold": "0.9", "max_trackers": "4", "tracker": "kalman"},
        )
        assert config.overlap_threshold == 0.9
        assert config.max_trackers == 4
        assert config.tracker == "kalman"

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown pipeline config field"):
            apply_config_overrides(EbbiotConfig(), {"warp_speed": "9"})

    def test_unparsable_value_rejected(self):
        with pytest.raises(ValueError, match="cannot parse"):
            apply_config_overrides(EbbiotConfig(), {"max_trackers": "many"})

    def test_non_scalar_field_rejected(self):
        with pytest.raises(ValueError, match="cannot parse"):
            apply_config_overrides(EbbiotConfig(), {"roe_boxes": "[]"})

    def test_no_overrides_returns_base(self):
        base = EbbiotConfig()
        assert apply_config_overrides(base, {}) is base


# ---------------------------------------------------------------------------
# compare layer (satellite: direction-aware, negative baselines, missing)
# ---------------------------------------------------------------------------


class TestCompareQualityReports:
    CELL = "occlusion-cross/overlap"

    def _cell(self, mota=0.8, latency=2.0, **extra):
        cell = {
            "mota": mota,
            "motp": 0.6,
            "precision": 0.9,
            "recall": 0.9,
            "latency_ms_per_frame": latency,
        }
        cell.update(extra)
        return cell

    def _compare(self, current_cell, baseline_cell, **kwargs):
        return compare_quality_reports(
            make_report({self.CELL: current_cell}),
            make_report({self.CELL: baseline_cell}),
            **kwargs,
        )

    def _by_metric(self, comparisons):
        return {c.metric: c for c in comparisons}

    def test_quality_drop_beyond_budget_regresses(self):
        by = self._by_metric(
            self._compare(self._cell(mota=0.70), self._cell(mota=0.80), tolerance=0.05)
        )
        assert by["mota"].regressed
        assert by["mota"].direction == "up"
        assert not by["precision"].regressed

    def test_quality_drop_within_budget_passes(self):
        by = self._by_metric(
            self._compare(self._cell(mota=0.76), self._cell(mota=0.80), tolerance=0.05)
        )
        assert not by["mota"].regressed

    def test_negative_mota_baseline_gates_sanely(self):
        # ebms-style baseline: MOTA -6.  The margin scales with |baseline|
        # (0.05 * 6 = 0.3): a small wobble passes, a real collapse fails,
        # and an *improvement* toward zero never regresses — the naive
        # ``baseline * (1 - tol)`` inequality would flip here.
        baseline = self._cell(mota=-6.0)
        assert not self._by_metric(
            self._compare(self._cell(mota=-6.2), baseline, tolerance=0.05)
        )["mota"].regressed
        assert self._by_metric(
            self._compare(self._cell(mota=-7.0), baseline, tolerance=0.05)
        )["mota"].regressed
        assert not self._by_metric(
            self._compare(self._cell(mota=-1.0), baseline, tolerance=0.05)
        )["mota"].regressed

    def test_near_zero_baseline_uses_absolute_budget(self):
        # floor=1.0: a 0.02 drop from a 0.01 baseline stays inside a 0.05
        # absolute budget instead of tripping a vanishing relative margin.
        by = self._by_metric(
            self._compare(self._cell(mota=-0.01), self._cell(mota=0.01), tolerance=0.05)
        )
        assert not by["mota"].regressed

    def test_latency_is_lower_is_better(self):
        by = self._by_metric(
            self._compare(
                self._cell(latency=5.0), self._cell(latency=2.0), latency_tolerance=1.0
            )
        )
        assert by["latency_ms_per_frame"].regressed
        assert by["latency_ms_per_frame"].direction == "down"
        # Faster is never a regression.
        by = self._by_metric(
            self._compare(
                self._cell(latency=0.5), self._cell(latency=2.0), latency_tolerance=1.0
            )
        )
        assert not by["latency_ms_per_frame"].regressed

    def test_latency_normalized_by_machine_speed(self):
        # Twice the latency on a machine half as fast is the same code
        # speed: normalization cancels and nothing regresses.
        current = make_report({self.CELL: self._cell(latency=4.0)}, score=25.0)
        baseline = make_report({self.CELL: self._cell(latency=2.0)}, score=50.0)
        by = self._by_metric(
            compare_quality_reports(current, baseline, latency_tolerance=0.25)
        )
        assert not by["latency_ms_per_frame"].regressed
        assert by["latency_ms_per_frame"].normalized

    def test_missing_cells_listed_in_baseline_order(self):
        current = make_report({self.CELL: self._cell()})
        baseline = make_report(
            {
                self.CELL: self._cell(),
                "rain-storm/overlap": self._cell(),
                "rain-storm/kalman": self._cell(),
            }
        )
        assert missing_cells(current, baseline) == [
            "rain-storm/overlap",
            "rain-storm/kalman",
        ]
        # Extra current-side cells are new coverage, not a loss.
        assert missing_cells(baseline, current) == []

    def test_non_matrix_report_rejected(self):
        bench_like = make_report({self.CELL: self._cell()}, suite="event_path")
        with pytest.raises(ValueError, match="scenario-matrix"):
            compare_quality_reports(make_report({}), bench_like)
        with pytest.raises(ValueError, match="scenario-matrix"):
            compare_quality_reports(bench_like, make_report({}))

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            self._compare(self._cell(), self._cell(), tolerance=-0.1)


# ---------------------------------------------------------------------------
# matrix runner
# ---------------------------------------------------------------------------


class TestRunMatrix:
    def test_report_shape_and_overrides_recorded(self):
        report = run_matrix(
            TINY_MATRIX,
            executor="serial",
            config_overrides={"max_trackers": "4"},
        )
        assert report["suite"] == SUITE_NAME
        assert report["version"] == MATRIX_VERSION
        assert report["matrix"] == "quick"
        assert list(report["cells"]) == ["occlusion-cross/overlap"]
        cell = report["cells"]["occlusion-cross/overlap"]
        assert cell["num_ground_truth_boxes"] > 0
        assert cell["latency_ms_per_frame"] > 0
        assert report["config"]["overrides"] == {"max_trackers": "4"}
        assert report["calibration"]["score"] > 0
        json.dumps(report)  # must be serialisable as-is


# ---------------------------------------------------------------------------
# CLI (satellite: quick gate round-trip, perturbation fails with a named cell)
# ---------------------------------------------------------------------------


@pytest.fixture()
def tiny_cli(monkeypatch, tmp_path):
    """CLI wired to the tiny matrix, running in a scratch directory."""
    monkeypatch.setattr(cli, "MATRICES", {"quick": TINY_MATRIX})
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestScenariosCli:
    def test_list_exits_zero(self, capsys):
        assert cli.main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "matrix full" in out
        assert "duty-cycled-roe" in out

    def test_quick_conflicts_with_explicit_full_matrix(self, capsys):
        assert cli.main(["--quick", "--matrix", "full"]) == 2

    def test_bad_set_syntax_exits_2(self, tiny_cli, capsys):
        assert cli.main(["--quick", "--set", "overlap_threshold"]) == 2
        assert "FIELD=VALUE" in capsys.readouterr().err

    def test_unknown_set_field_exits_2(self, tiny_cli, capsys):
        assert cli.main(["--quick", "--set", "warp_speed=9"]) == 2
        assert "unknown pipeline config field" in capsys.readouterr().err

    def test_check_without_baseline_exits_2(self, tiny_cli, capsys):
        assert cli.main(["--quick", "--check", "--baseline", "missing.json"]) == 2
        assert "no baseline found" in capsys.readouterr().err

    def test_roundtrip_then_perturbation_fails_named(self, tiny_cli, capsys):
        # First run writes the baseline artifact...
        assert cli.main(["--quick"]) == 0
        report_path = tiny_cli / "QUALITY_scenario_matrix_quick.json"
        assert report_path.exists()
        capsys.readouterr()

        # ... an unperturbed re-run gates green against it ...
        assert cli.main(["--quick", "--check"]) == 0
        out = capsys.readouterr().out
        assert "occlusion-cross/overlap.mota" in out
        assert "REGRESSED" not in out

        # ... and perturbing a tracker parameter fails the gate, naming
        # the scenario and metric that broke.
        assert (
            cli.main(["--quick", "--check", "--set", "overlap_threshold=0.95"]) == 1
        )
        out = capsys.readouterr().out
        assert "occlusion-cross/overlap.mota" in out
        assert "REGRESSED" in out

    def test_check_without_output_leaves_the_baseline_untouched(
        self, tiny_cli, capsys
    ):
        assert cli.main(["--quick"]) == 0
        report_path = tiny_cli / "QUALITY_scenario_matrix_quick.json"
        # Compact JSON: any report written over it would change its bytes.
        report_path.write_text(json.dumps(json.loads(report_path.read_text())))
        before = report_path.read_bytes()
        capsys.readouterr()

        assert cli.main(["--quick", "--check"]) == 0
        assert report_path.read_bytes() == before
        assert [path.name for path in tiny_cli.iterdir()] == [report_path.name]
        assert "wrote JSON report" not in capsys.readouterr().out

    def test_check_with_output_compares_against_the_committed_baseline(
        self, tiny_cli, capsys
    ):
        # --output only says where a checked run's report goes: the gate
        # still reads the matrix's committed artifact, not that fresh path.
        assert cli.main(["--quick"]) == 0
        capsys.readouterr()
        output = tiny_cli / "checked_report.json"

        assert cli.main(["--quick", "--check", "--output", str(output)]) == 0
        assert "baseline: QUALITY_scenario_matrix_quick.json" in capsys.readouterr().out
        assert sorted(json.loads(output.read_text())["cells"]) == ["occlusion-cross/overlap"]

    def test_missing_baseline_cell_exits_2(self, tiny_cli, capsys):
        assert cli.main(["--quick"]) == 0
        report_path = tiny_cli / "QUALITY_scenario_matrix_quick.json"
        baseline = json.loads(report_path.read_text())
        baseline["cells"]["ghost-scenario/overlap"] = dict(
            baseline["cells"]["occlusion-cross/overlap"]
        )
        report_path.write_text(json.dumps(baseline))
        capsys.readouterr()

        assert cli.main(["--quick", "--check"]) == 2
        captured = capsys.readouterr()
        assert "ghost-scenario/overlap" in captured.err
        assert "MISSING" in captured.out

    def test_stdout_output_writes_no_file(self, tiny_cli, capsys):
        assert cli.main(["--quick", "--output", "-"]) == 0
        assert not (tiny_cli / "QUALITY_scenario_matrix_quick.json").exists()
        assert '"suite": "scenario_matrix"' in capsys.readouterr().out
