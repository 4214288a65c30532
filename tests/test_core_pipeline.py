"""Tests for the end-to-end EBBIOT pipeline."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core import EbbiotConfig, EbbiotPipeline
from repro.core.ebbi import events_to_binary_frame
from repro.core.pipeline import CHUNK_FRAMES
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

    def test_reset_replaces_the_ebbi_builder(self, constant_velocity_stream):
        """reset() starts a new EBBI builder, so alpha and the frame count
        restart from zero and a reset pipeline replays a stream exactly like
        a fresh one."""

        def replay(pipeline):
            return [
                (frame.frame_index, frame.num_events, frame.proposals,
                 [(o.track_id, o.t_us, o.box) for o in frame.tracks])
                for frame in pipeline.iter_stream(constant_velocity_stream)
            ]

        pipeline = EbbiotPipeline(EbbiotConfig())
        first = replay(pipeline)
        builder = pipeline.ebbi_builder
        assert builder.frames_built == len(first) > 0
        pipeline.reset()
        assert pipeline.ebbi_builder is not builder
        assert pipeline.ebbi_builder.frames_built == pipeline.frames_processed == 0
        assert replay(pipeline) == first
        assert pipeline.ebbi_builder.mean_active_pixel_fraction == (
            builder.mean_active_pixel_fraction
        )

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


def _sparse_stream_past_one_chunk() -> EventStream:
    """CHUNK_FRAMES + 44 windows, most of them empty or nearly so, with a
    6x6 block tracked across the first chunk edge."""
    rng = np.random.default_rng(17)
    xs, ys, ts = [], [], []
    for window in range(CHUNK_FRAMES + 44):
        t0 = window * 66_000
        if CHUNK_FRAMES - 24 <= window < CHUNK_FRAMES + 24:
            x0 = 20 + 3 * (window - CHUNK_FRAMES + 24)
            for cell in range(36):
                xs.append(x0 + cell % 6)
                ys.append(80 + cell // 6)
                ts.append(t0 + 10_000 + int(rng.integers(0, 40_000)))
        if window % 7 == 0 or window == CHUNK_FRAMES + 43:
            for _ in range(3):
                xs.append(int(rng.integers(0, 240)))
                ys.append(int(rng.integers(0, 180)))
                ts.append(t0 + int(rng.integers(0, 66_000)))
    return EventStream(make_packet(xs, ys, ts, [1] * len(xs)), 240, 180)


class TestChunkedProcessing:
    def test_chunked_matches_lazy_iteration(self):
        """``process_stream`` builds EBBI a chunk at a time; across a chunk
        edge its frames equal ``iter_stream``'s, built window by window."""
        stream = _sparse_stream_past_one_chunk()
        chunked_pipeline = EbbiotPipeline()
        chunked = chunked_pipeline.process_stream(stream)
        lazy_pipeline = EbbiotPipeline()
        lazy = list(lazy_pipeline.iter_stream(stream))
        assert len(lazy) == chunked.num_frames == CHUNK_FRAMES + 44
        assert sum(not frame.num_events for frame in lazy) > CHUNK_FRAMES // 2
        edge = slice(CHUNK_FRAMES - 4, CHUNK_FRAMES + 4)
        assert all(frame.tracks for frame in lazy[edge])
        assert len({o.track_id for frame in lazy[edge] for o in frame.tracks}) == 1
        for lazy_frame, chunked_frame in zip(lazy, chunked.frames):
            assert chunked_frame.frame_index == lazy_frame.frame_index
            assert chunked_frame.t_start_us == lazy_frame.t_start_us
            assert chunked_frame.t_end_us == lazy_frame.t_end_us
            assert chunked_frame.num_events == lazy_frame.num_events
            assert chunked_frame.proposals == lazy_frame.proposals
            assert chunked_frame.tracks == lazy_frame.tracks
        alpha = lazy_pipeline.ebbi_builder.mean_active_pixel_fraction
        assert chunked.mean_active_pixel_fraction == alpha > 0


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

        alphas = [EbbiotPipeline().process_stream(stream).mean_active_pixel_fraction]
        instrumented = EbbiotPipeline(instrumentation=Instrumentation())
        alphas.append(instrumented.process_stream(stream).mean_active_pixel_fraction)
        session = SensorSession("alpha")
        for lo in range(0, len(packet), 4000):
            session.ingest(packet[lo : lo + 4000])
        session.finish()
        alphas.append(session.summary().mean_active_pixel_fraction)
        assert alphas == [expected] * 3
