"""End-to-end integration tests: simulate, track with all three pipelines,
evaluate, and check the paper's qualitative claims on a small recording."""

from __future__ import annotations

import pytest

from repro.core import EbbiBuilder, EbbiotConfig, EbbiotPipeline, HistogramRegionProposer
from repro.datasets import LT4_LIKE_SPEC, build_recording
from repro.evaluation import compute_mot_summary, evaluate_recording
from repro.events.filters import NearestNeighbourFilter
from repro.trackers import EbmsTracker, KalmanFilterTracker


@pytest.fixture(scope="module")
def recording():
    """One 12-second LT4-like recording shared by the integration tests."""
    return build_recording(LT4_LIKE_SPEC, duration_override_s=12.0)


@pytest.fixture(scope="module")
def ebbiot_result(recording):
    pipeline = EbbiotPipeline(EbbiotConfig())
    return pipeline.process_stream(recording.stream)


def _run_kalman_baseline(recording, config):
    builder = EbbiBuilder(config.width, config.height, config.median_patch_size)
    proposer = HistogramRegionProposer(
        downsample_x=config.downsample_x,
        downsample_y=config.downsample_y,
        threshold=config.histogram_threshold,
    )
    tracker = KalmanFilterTracker()
    observations = []
    for t_start, t_end, events in recording.stream.iter_frames(config.frame_duration_us):
        frames = builder.build(events, t_start, t_end)
        proposals = proposer.propose(frames.filtered)
        observations.extend(tracker.process_frame(proposals, frames.t_mid_us))
    return observations


def _run_ebms_baseline(recording, config):
    nn_filter = NearestNeighbourFilter(config.width, config.height)
    tracker = EbmsTracker()
    observations = []
    for t_start, t_end, events in recording.stream.iter_frames(config.frame_duration_us):
        filtered = nn_filter.filter(events)
        observations.extend(tracker.process_frame(filtered, (t_start + t_end) // 2))
    return observations


class TestEbbiotEndToEnd:
    def test_reasonable_precision_and_recall(self, recording, ebbiot_result):
        evaluation = evaluate_recording(
            ebbiot_result.track_history.observations,
            recording.annotations.frames,
            iou_thresholds=(0.3,),
        )
        result = evaluation.by_threshold[0.3]
        assert result.precision > 0.6
        assert result.recall > 0.6

    def test_pipeline_statistics_in_expected_ranges(self, ebbiot_result):
        # Objects occupy well under 10 % of the image on average.
        assert ebbiot_result.mean_active_pixel_fraction < 0.1
        # A quiet site: zero to a few simultaneous trackers.
        assert ebbiot_result.mean_active_trackers < 4

    def test_mot_summary_computable(self, recording, ebbiot_result):
        summary = compute_mot_summary(
            ebbiot_result.track_history.observations, recording.annotations.frames
        )
        assert summary.num_ground_truth_boxes > 0
        assert -2.0 <= summary.mota <= 1.0


class TestCrossTrackerComparison:
    def test_ebbiot_beats_ebms_in_precision(self, recording, ebbiot_result):
        """The headline qualitative result of Fig. 4: EBBIOT is more precise
        than the fully event-driven EBMS pipeline."""
        config = EbbiotConfig()
        ebms_observations = _run_ebms_baseline(recording, config)
        ebbiot_eval = evaluate_recording(
            ebbiot_result.track_history.observations,
            recording.annotations.frames,
            iou_thresholds=(0.3,),
        )
        ebms_eval = evaluate_recording(
            ebms_observations, recording.annotations.frames, iou_thresholds=(0.3,)
        )
        assert (
            ebbiot_eval.by_threshold[0.3].precision
            > ebms_eval.by_threshold[0.3].precision
        )

    def test_ebbiot_at_least_as_precise_as_kalman(self, recording, ebbiot_result):
        config = EbbiotConfig()
        kalman_observations = _run_kalman_baseline(recording, config)
        ebbiot_eval = evaluate_recording(
            ebbiot_result.track_history.observations,
            recording.annotations.frames,
            iou_thresholds=(0.3,),
        )
        kalman_eval = evaluate_recording(
            kalman_observations, recording.annotations.frames, iou_thresholds=(0.3,)
        )
        assert (
            ebbiot_eval.by_threshold[0.3].precision
            >= kalman_eval.by_threshold[0.3].precision - 0.05
        )

    def test_all_trackers_produce_output(self, recording):
        config = EbbiotConfig()
        assert len(_run_kalman_baseline(recording, config)) > 0
        assert len(_run_ebms_baseline(recording, config)) > 0
