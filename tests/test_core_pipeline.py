"""Tests for the end-to-end EBBIOT pipeline."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core import EbbiotConfig, EbbiotPipeline
from repro.core.ebbi import events_to_binary_frame
from repro.events.stream import EventStream
from repro.events.types import empty_packet, make_packet
from repro.obs import PIPELINE_STAGES, Instrumentation
from repro.runtime.scenes import build_scene_recordings
from repro.utils.geometry import BoundingBox


class TestPipelineOnSyntheticSquare:
    def test_tracks_constant_velocity_square(self, constant_velocity_stream):
        pipeline = EbbiotPipeline(EbbiotConfig(min_proposal_area=4.0))
        result = pipeline.process_stream(constant_velocity_stream)
        assert result.num_frames > 20
        # The square is detected in (almost) every frame after confirmation.
        frames_with_track = sum(1 for frame in result.frames if frame.tracks)
        assert frames_with_track >= result.num_frames - 5
        # A single stable track id is used throughout.
        assert len(result.track_history.track_ids()) == 1

    def test_track_positions_follow_object(self, constant_velocity_stream):
        pipeline = EbbiotPipeline(EbbiotConfig(min_proposal_area=4.0))
        result = pipeline.process_stream(constant_velocity_stream)
        observations = result.track_history.observations
        xs = [o.box.x for o in observations]
        # Object moves right at 2 px / 33 ms = ~4 px per 66 ms frame.
        assert xs[-1] > xs[0] + 50

    def test_statistics_populated(self, constant_velocity_stream):
        pipeline = EbbiotPipeline(EbbiotConfig(min_proposal_area=4.0))
        result = pipeline.process_stream(constant_velocity_stream)
        assert 0 < result.mean_active_pixel_fraction < 0.05
        assert result.mean_events_per_frame > 0
        assert 0 < result.mean_active_trackers <= 2


class TestPipelineOnSimulatedScene:
    def test_single_car_scene_tracked(self, single_car_stream):
        pipeline = EbbiotPipeline(EbbiotConfig())
        result = pipeline.process_stream(single_car_stream.stream)
        assert result.total_track_observations() > 10
        # Noise alone never creates more trackers than objects + a small margin.
        assert len(result.track_history.track_ids()) <= 3

    def test_keep_frames_flag(self, single_car_stream):
        pipeline = EbbiotPipeline(EbbiotConfig(), keep_frames=True)
        result = pipeline.process_stream(single_car_stream.stream)
        assert result.frames[0].ebbi is not None
        pipeline_no_frames = EbbiotPipeline(EbbiotConfig(), keep_frames=False)
        result_no_frames = pipeline_no_frames.process_stream(single_car_stream.stream)
        assert result_no_frames.frames[0].ebbi is None

    def test_roe_suppresses_distractor_tracks(self, small_geometry):
        """With an ROE over a foliage distractor, no tracks appear inside it."""
        from repro.events.noise import BackgroundActivityNoise
        from repro.simulation.event_generator import FoliageDistractor
        from repro.simulation.scene import Scene, SceneConfig

        region = BoundingBox(0, 130, 60, 50)
        config = SceneConfig(
            geometry=small_geometry,
            noise=BackgroundActivityNoise(rate_hz_per_pixel=0.2),
            distractors=[FoliageDistractor(region, events_per_pixel_per_s=4.0)],
            seed=13,
        )
        scene = Scene(config)
        rendered = scene.render(duration_us=3_000_000)

        with_roe = EbbiotPipeline(EbbiotConfig(roe_boxes=scene.roe_boxes()))
        result_with = with_roe.process_stream(rendered.stream)
        without_roe = EbbiotPipeline(EbbiotConfig())
        result_without = without_roe.process_stream(rendered.stream)

        def tracks_in_region(result):
            return sum(
                1
                for o in result.track_history.observations
                if region.intersection_area(o.box) > 0.5 * o.box.area
            )

        assert tracks_in_region(result_without) > 0
        assert tracks_in_region(result_with) == 0


class TestPipelineMechanics:
    def test_empty_stream(self):
        pipeline = EbbiotPipeline(EbbiotConfig())
        result = pipeline.process_stream(EventStream(empty_packet(), 240, 180))
        assert result.num_frames == 0
        assert result.total_track_observations() == 0

    def test_iter_stream_matches_process_stream_frame_count(self, constant_velocity_stream):
        pipeline = EbbiotPipeline(EbbiotConfig())
        lazy_frames = list(pipeline.iter_stream(constant_velocity_stream))
        pipeline.reset()
        eager = pipeline.process_stream(constant_velocity_stream)
        assert len(lazy_frames) == eager.num_frames

    def test_process_stream_resets_state(self, constant_velocity_stream):
        pipeline = EbbiotPipeline(EbbiotConfig())
        first = pipeline.process_stream(constant_velocity_stream)
        second = pipeline.process_stream(constant_velocity_stream)
        assert first.num_frames == second.num_frames
        assert first.total_track_observations() == second.total_track_observations()

    def test_frame_result_midpoint(self, constant_velocity_stream):
        pipeline = EbbiotPipeline(EbbiotConfig())
        result = pipeline.process_stream(constant_velocity_stream)
        frame = result.frames[0]
        assert frame.t_mid_us == (frame.t_start_us + frame.t_end_us) // 2

    def test_min_proposal_area_filters_noise(self, constant_velocity_stream):
        strict = EbbiotPipeline(EbbiotConfig(min_proposal_area=10_000.0))
        result = strict.process_stream(constant_velocity_stream)
        assert result.total_proposals() == 0


def _block_packet(frame_positions, block=6, frame_duration_us=100):
    """One 6x6 block of active pixels per frame, at the given (x, y) corners."""
    xs, ys, ts = [], [], []
    for frame_index, (x0, y0) in enumerate(frame_positions):
        t = frame_index * frame_duration_us + 10
        for dy in range(block):
            for dx in range(block):
                xs.append(x0 + dx)
                ys.append(y0 + dy)
                ts.append(t)
    from repro.events.types import make_packet

    return make_packet(xs, ys, ts, [1] * len(xs))


class TestProcessStreamSummaryStatistics:
    """Hand-computed alpha / n / NT on a tiny fixed stream (3 frames)."""

    def _stream(self):
        packet = _block_packet([(60, 60), (62, 60), (64, 60)])
        return EventStream(packet, 240, 180)

    def _pipeline(self):
        return EbbiotPipeline(
            EbbiotConfig(frame_duration_us=100, min_proposal_area=4.0)
        )

    def test_mean_events_per_frame(self):
        result = self._pipeline().process_stream(self._stream())
        # 36 events in each of the 3 frames.
        assert result.num_frames == 3
        assert result.mean_events_per_frame == pytest.approx(36.0)

    def test_mean_active_pixel_fraction(self):
        result = self._pipeline().process_stream(self._stream())
        # Each frame has exactly 36 active pixels out of 240 x 180.
        assert result.mean_active_pixel_fraction == pytest.approx(36 / (240 * 180))

    def test_mean_active_trackers(self):
        result = self._pipeline().process_stream(self._stream())
        # The single block allocates one tracker in frame 0 and keeps
        # matching it, so every frame ends with exactly one active slot.
        assert result.mean_active_trackers == pytest.approx(1.0)

    def test_statistics_survive_collect_frames_false(self):
        reference = self._pipeline().process_stream(self._stream())
        compact = self._pipeline().process_stream(
            self._stream(), collect_frames=False
        )
        assert compact.frames == []
        assert compact.num_frames == reference.num_frames
        assert compact.total_proposals() == reference.total_proposals()
        assert compact.mean_events_per_frame == pytest.approx(
            reference.mean_events_per_frame
        )
        assert compact.mean_active_pixel_fraction == pytest.approx(
            reference.mean_active_pixel_fraction
        )
        assert compact.mean_active_trackers == pytest.approx(
            reference.mean_active_trackers
        )
        assert len(compact.track_history) == len(reference.track_history)


class TestChunkedProcessing:
    def test_chunk_size_does_not_change_results(self, constant_velocity_stream):
        reference = EbbiotPipeline(
            EbbiotConfig(min_proposal_area=4.0)
        ).process_stream(constant_velocity_stream, chunk_frames=1)
        for chunk_frames in (2, 7, 1024):
            result = EbbiotPipeline(
                EbbiotConfig(min_proposal_area=4.0)
            ).process_stream(constant_velocity_stream, chunk_frames=chunk_frames)
            assert result.num_frames == reference.num_frames
            assert result.total_proposals() == reference.total_proposals()
            assert [o.to_dict() for o in result.track_history.observations] == [
                o.to_dict() for o in reference.track_history.observations
            ]
            assert result.mean_active_pixel_fraction == pytest.approx(
                reference.mean_active_pixel_fraction
            )

    def test_chunked_matches_lazy_iteration(self, constant_velocity_stream):
        pipeline = EbbiotPipeline(EbbiotConfig(min_proposal_area=4.0))
        eager = pipeline.process_stream(constant_velocity_stream, chunk_frames=16)
        pipeline_lazy = EbbiotPipeline(EbbiotConfig(min_proposal_area=4.0))
        lazy = list(pipeline_lazy.iter_stream(constant_velocity_stream))
        assert len(lazy) == eager.num_frames
        for lazy_frame, eager_frame in zip(lazy, eager.frames):
            assert lazy_frame.num_events == eager_frame.num_events
            assert lazy_frame.proposals == eager_frame.proposals

    def test_invalid_chunk_frames_rejected(self, constant_velocity_stream):
        with pytest.raises(ValueError):
            EbbiotPipeline().process_stream(
                constant_velocity_stream, chunk_frames=0
            )


def _frame_summary(result):
    return [
        (f.frame_index, f.t_start_us, f.t_end_us, f.num_events, f.proposals, f.tracks)
        for f in result.frames
    ]


def _means(result):
    return (
        result.mean_active_pixel_fraction,
        result.mean_events_per_frame,
        result.mean_active_trackers,
    )


class TestOneFrameStep:
    """Chunked, per-window, instrumented and live runs share one frame step."""

    @pytest.fixture(scope="class")
    def scenes(self):
        return build_scene_recordings(4, duration_s=1.5, base_seed=0)

    @pytest.mark.parametrize("tracker", ["overlap", "kalman", "ebms"])
    def test_instrumented_run_equals_plain_run(self, scenes, tracker):
        for recording in scenes:
            config = replace(EbbiotConfig(), tracker=tracker, roe_boxes=recording.roe_boxes())
            plain = EbbiotPipeline(config).process_stream(recording.stream)
            instrumentation = Instrumentation()
            timed = EbbiotPipeline(config, instrumentation=instrumentation).process_stream(
                recording.stream
            )
            assert timed.track_history.observations == plain.track_history.observations
            assert _frame_summary(timed) == _frame_summary(plain)
            assert timed.proposal_count == plain.proposal_count
            assert _means(timed) == _means(plain)
            stages = PIPELINE_STAGES if tracker != "ebms" else ("ebbi", "median", "tracker")
            assert instrumentation.stage_calls == {stage: plain.num_frames for stage in stages}

    def test_alpha_does_not_depend_on_how_frames_are_built(self):
        from repro.serving import SensorSession

        rng = np.random.default_rng(3)
        counts = rng.integers(0, 3000, size=40)
        t = np.concatenate(
            [i * 66_000 + np.sort(rng.integers(0, 66_000, size=n)) for i, n in enumerate(counts)]
        )
        packet = make_packet(
            rng.integers(0, 240, size=len(t)), rng.integers(0, 180, size=len(t)), t, [1] * len(t)
        )
        stream = EventStream(packet, 240, 180)
        windows = list(stream.iter_frames(66_000, align_to_zero=True))
        active = sum(np.count_nonzero(events_to_binary_frame(w, 240, 180)) for _, _, w in windows)
        expected = active / (len(windows) * 240 * 180)

        alphas = [
            EbbiotPipeline().process_stream(stream, chunk_frames=chunk).mean_active_pixel_fraction
            for chunk in (1, 7, 256)
        ]
        instrumented = EbbiotPipeline(instrumentation=Instrumentation())
        alphas.append(instrumented.process_stream(stream).mean_active_pixel_fraction)
        session = SensorSession("alpha")
        for lo in range(0, len(packet), 4000):
            session.ingest(packet[lo : lo + 4000])
        session.finish()
        alphas.append(session.summary().mean_active_pixel_fraction)
        assert alphas == [expected] * 5
