"""Tests for the recorded-dataset layer: manifests, export, replay parity."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.datasets.recorded import (
    MANIFEST_NAME,
    DatasetManifest,
    RecordingEntry,
    discover_datasets,
    export_fleet,
    load_manifest,
)
from repro.runtime.runner import RunnerConfig, StreamRunner
from repro.runtime.scenes import (
    build_scene_recordings,
    jobs_from_manifest,
    jobs_from_recordings,
)


@pytest.fixture(scope="module")
def fleet():
    """A small deterministic fleet shared by the module's tests."""
    return build_scene_recordings(2, duration_s=1.0, base_seed=7)


@pytest.fixture()
def dataset(tmp_path, fleet):
    """The fleet exported as an npz-backed dataset."""
    return export_fleet(fleet, tmp_path / "dataset", name="unit-fleet")


class TestRecordingEntry:
    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="unknown event format"):
            RecordingEntry(
                name="a", events_file="a.bin", format="bogus",
                width=240, height=180, num_events=0, duration_us=0,
            )

    def test_malformed_roe_row_rejected(self):
        with pytest.raises(ValueError, match="roe_boxes"):
            RecordingEntry(
                name="a", events_file="a.npz", format="npz",
                width=240, height=180, num_events=0, duration_us=0,
                roe_boxes=[[1.0, 2.0, 3.0]],  # missing height
            )

    def test_from_dict_missing_keys(self):
        with pytest.raises(ValueError, match="missing keys"):
            RecordingEntry.from_dict({"name": "a"}, source="m.json")

    def test_round_trip(self):
        entry = RecordingEntry(
            name="a", events_file="a.npz", format="npz",
            width=240, height=180, num_events=10, duration_us=1000,
            annotations_file="a.json", scene_tags=["eng"],
            roe_boxes=[[0.0, 1.0, 2.0, 3.0]], metadata={"seed": 3},
        )
        again = RecordingEntry.from_dict(entry.to_dict())
        assert again == entry
        assert again.roe_bounding_boxes()[0].width == 2.0


class TestExportAndLoad:
    def test_manifest_lists_every_recording(self, dataset, fleet):
        assert len(dataset) == len(fleet)
        assert [e.name for e in dataset] == [r.name for r in fleet]
        assert dataset.manifest_path.exists()

    def test_events_round_trip_exactly(self, dataset, fleet):
        for recording in fleet:
            loaded = dataset.load_entry(recording.name)
            np.testing.assert_array_equal(
                loaded.stream.events, recording.stream.events
            )
            assert loaded.stream.resolution == recording.stream.resolution

    def test_annotations_round_trip_exactly(self, dataset, fleet):
        for recording in fleet:
            loaded = dataset.load_entry(recording.name)
            assert loaded.annotations is not None
            source = recording.annotations
            assert (
                loaded.annotations.annotation_interval_us
                == source.annotation_interval_us
            )
            assert [f.to_dict() for f in loaded.annotations.frames] == [
                f.to_dict() for f in source.frames
            ]

    def test_roe_boxes_round_trip(self, dataset, fleet):
        for recording in fleet:
            loaded = dataset.load_entry(recording.name)
            assert loaded.roe_boxes == recording.roe_boxes()

    def test_scene_tags_and_metadata(self, dataset):
        entry = dataset.recordings[0]
        assert entry.scene_tags == ["eng"]
        assert entry.metadata["site"] == "ENG"
        assert dataset.filtered("eng") == [entry]

    @pytest.mark.parametrize("format", ["npz", "csv", "aedat2", "txt"])
    def test_every_format_round_trips(self, tmp_path, fleet, format):
        manifest = export_fleet(
            fleet[:1], tmp_path / format, format=format, name=f"fmt-{format}"
        )
        loaded = manifest.load_entry(fleet[0].name)
        np.testing.assert_array_equal(loaded.stream.events, fleet[0].stream.events)

    def test_unknown_export_format_rejected(self, tmp_path, fleet):
        with pytest.raises(ValueError, match="unknown event format"):
            export_fleet(fleet, tmp_path / "x", format="bogus")

    def test_load_all_and_summary(self, dataset, fleet):
        loaded = dataset.load_all()
        assert [r.name for r in loaded] == [r.name for r in fleet]
        summary = dataset.summary()
        assert summary["num_recordings"] == len(fleet)
        assert summary["annotated"] == len(fleet)
        assert summary["formats"] == ["npz"]
        table = dataset.format_table()
        assert fleet[0].name in table


class TestManifestValidation:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError, match=MANIFEST_NAME):
            DatasetManifest.load(tmp_path)

    def test_invalid_json(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            DatasetManifest.load(tmp_path)

    def test_unsupported_version(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text(
            json.dumps({"manifest_version": 99, "recordings": []})
        )
        with pytest.raises(ValueError, match="manifest_version 99"):
            DatasetManifest.load(tmp_path)

    def test_missing_recordings_key(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text(json.dumps({"manifest_version": 1}))
        with pytest.raises(ValueError, match="recordings"):
            DatasetManifest.load(tmp_path)

    def test_duplicate_names_rejected(self, tmp_path):
        entry = {
            "name": "a", "events_file": "a.npz", "format": "npz",
            "width": 240, "height": 180,
        }
        (tmp_path / MANIFEST_NAME).write_text(
            json.dumps({"manifest_version": 1, "recordings": [entry, entry]})
        )
        with pytest.raises(ValueError, match="duplicate"):
            DatasetManifest.load(tmp_path)

    def test_missing_event_file(self, dataset):
        entry = dataset.recordings[0]
        (dataset.root / entry.events_file).unlink()
        with pytest.raises(FileNotFoundError, match="missing event file"):
            dataset.load_entry(entry)

    def test_stale_event_count_detected(self, dataset, fleet):
        from repro.events.io import save_events_npz
        from repro.events.stream import EventStream

        entry = dataset.recordings[0]
        truncated = EventStream(
            fleet[0].stream.events[:10].copy(), 240, 180
        )
        save_events_npz(dataset.root / entry.events_file, truncated)
        with pytest.raises(ValueError, match="stale or truncated"):
            dataset.load_entry(entry)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_roe_row_rejected(self, dataset, bad):
        # A NaN edge would pass every ROE comparison and drop a whole band
        # of proposals; json reads both NaN and Infinity.
        manifest_path = dataset.root / MANIFEST_NAME
        data = json.loads(manifest_path.read_text())
        data["recordings"][0]["roe_boxes"] = [[bad, 139.4, 54.8, 41.6]]
        manifest_path.write_text(json.dumps(data))
        name = data["recordings"][0]["name"]
        with pytest.raises(ValueError, match=f"recording '{name}': roe_boxes rows must be finite"):
            DatasetManifest.load(dataset.root)

    @pytest.mark.parametrize("field", ["x", "height"])
    def test_non_finite_annotation_box_rejected(self, dataset, field):
        entry = next(e for e in dataset.recordings if e.annotations_file)
        annotations_path = dataset.root / entry.annotations_file
        data = json.loads(annotations_path.read_text())
        box = {"track_id": 1, "object_class": "car", "x": 10.0, "y": 20.0,
               "width": 30.0, "height": 15.0}
        box[field] = float("nan")
        data["frames"][0]["boxes"].append(box)
        annotations_path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=f"{entry.name}.*{field} must be finite"):
            dataset.load_entry(entry)

    def test_unknown_entry_name(self, dataset):
        with pytest.raises(KeyError, match="no recording"):
            dataset.entry("nope")


class TestDiscovery:
    def test_discover_finds_nested_datasets(self, tmp_path, fleet):
        export_fleet(fleet[:1], tmp_path / "a", name="a")
        export_fleet(fleet[:1], tmp_path / "nested" / "b", name="b")
        found = discover_datasets(tmp_path)
        assert found == sorted([tmp_path / "a", tmp_path / "nested" / "b"])
        assert load_manifest(found[0]).name == "a"

    def test_discover_missing_root(self, tmp_path):
        assert discover_datasets(tmp_path / "nowhere") == []


class TestReplayParity:
    """The acceptance criterion: export → replay reproduces the source
    fleet's pooled CLEAR-MOT digits exactly."""

    def test_replay_matches_direct_run_exactly(self, dataset, fleet):
        runner = StreamRunner(RunnerConfig(executor="serial"))
        direct = runner.run(jobs_from_recordings(fleet))
        replayed = runner.run(jobs_from_manifest(dataset))

        direct_mot = direct.mot
        replay_mot = replayed.mot
        assert replay_mot is not None
        assert replay_mot.to_dict() == direct_mot.to_dict()
        for direct_rec, replay_rec in zip(direct.recordings, replayed.recordings):
            left = direct_rec.to_dict()
            right = replay_rec.to_dict()
            # Wall-clock-derived fields are the only legitimate difference.
            for volatile in ("wall_time_s", "events_per_second", "realtime_factor"):
                left.pop(volatile)
                right.pop(volatile)
            assert left == right

    def test_jobs_from_manifest_accepts_path_and_cycles_trackers(self, dataset):
        jobs = jobs_from_manifest(str(dataset.root), trackers=("overlap", "kalman"))
        assert [job.config.tracker for job in jobs] == ["overlap", "kalman"]
        assert all(job.ground_truth for job in jobs)
        # The stored ROE boxes made it into the pipeline config.
        assert jobs[0].config.roe_boxes


class TestDatasetCli:
    def test_export_show_list_round_trip(self, tmp_path, capsys):
        from repro.datasets.__main__ import main

        out = tmp_path / "cli-dataset"
        assert main(
            ["export", "--scenes", "1", "--duration", "1", "--out", str(out)]
        ) == 0
        assert (out / MANIFEST_NAME).exists()
        assert main(["show", str(out)]) == 0
        assert "ENG-00" in capsys.readouterr().out
        assert main(["list", str(tmp_path)]) == 0
        assert "cli-dataset" in capsys.readouterr().out

    def test_show_missing_dataset_errors(self, tmp_path, capsys):
        from repro.datasets.__main__ import main

        assert main(["show", str(tmp_path / "nope")]) == 2
        assert "manifest" in capsys.readouterr().err

    def test_export_rejects_bad_args(self, capsys, tmp_path):
        from repro.datasets.__main__ import main

        assert main(["export", "--scenes", "0", "--out", str(tmp_path / "x")]) == 2


class TestRuntimeDatasetCli:
    def test_dataset_replay_cli(self, tmp_path, fleet, capsys):
        from repro.runtime.__main__ import main

        manifest = export_fleet(fleet, tmp_path / "ds", name="cli")
        json_path = tmp_path / "fleet.json"
        exit_code = main(
            [
                "--dataset",
                str(manifest.root),
                "--executor",
                "serial",
                "--output",
                str(json_path),
            ]
        )
        assert exit_code == 0
        payload = json.loads(json_path.read_text())
        assert payload["fleet"]["num_recordings"] == len(fleet)
        assert payload["fleet"]["mot"] is not None
        assert [r["name"] for r in payload["recordings"]] == [r.name for r in fleet]

    def test_dataset_cli_error_on_missing_dir(self, tmp_path, capsys):
        from repro.runtime.__main__ import main

        assert main(["--dataset", str(tmp_path / "missing")]) == 2
        assert "manifest" in capsys.readouterr().err
