"""Tests for the tracker-backend protocol, registry and pipeline wiring.

Covers the refactor's acceptance bar: the ``"overlap"`` backend is
frame-for-frame identical to the pre-refactor hard-wired pipeline, the
``"kalman"`` and ``"ebms"`` backends reproduce their historical bespoke
evaluation loops, and a pipeline checkpoint round-trips exactly on every
backend.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import EbbiotConfig, EbbiotPipeline
from repro.core.ebbi import EbbiBuilder
from repro.core.histogram_rpn import HistogramRegionProposer
from repro.core.overlap_tracker import OverlapTracker, OverlapTrackerConfig
from repro.core.roe import RegionOfExclusion
from repro.events.filters import NearestNeighbourFilter
from repro.events.stream import EventStream
from repro.events.types import make_packet
from repro.trackers import (
    EbmsTracker,
    KalmanFilterTracker,
    TrackerBackend,
    TrackerFrame,
    available_backends,
    create_backend,
    ensure_backend_name,
    parse_backend_list,
)


def _moving_blocks_stream(seed: int = 0, num_frames: int = 18) -> EventStream:
    """Two 6x6 blocks crossing the view in opposite directions."""
    rng = np.random.default_rng(seed)
    xs, ys, ts = [], [], []
    for frame_index in range(num_frames):
        t = frame_index * 66_000 + 8_000
        for x0, y0 in (
            (20 + 4 * frame_index, 60),
            (200 - 5 * frame_index, 110),
        ):
            for dy in range(6):
                for dx in range(6):
                    xs.append(x0 + dx)
                    ys.append(y0 + dy)
                    ts.append(t + int(rng.integers(0, 40_000)))
    order = np.argsort(ts, kind="stable")
    packet = make_packet(
        [xs[i] for i in order],
        [ys[i] for i in order],
        [ts[i] for i in order],
        [1] * len(xs),
    )
    return EventStream(packet, 240, 180)


def _assert_observations_equal(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert a.track_id == b.track_id
        assert a.t_us == b.t_us
        assert a.box.x == pytest.approx(b.box.x)
        assert a.box.y == pytest.approx(b.box.y)
        assert a.box.width == pytest.approx(b.box.width)
        assert a.box.height == pytest.approx(b.box.height)


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert available_backends() == ("ebms", "kalman", "overlap")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown tracker backend"):
            ensure_backend_name("nope")
        with pytest.raises(ValueError, match="unknown tracker backend"):
            create_backend("nope", EbbiotConfig())

    def test_config_validates_tracker_name(self):
        with pytest.raises(ValueError, match="unknown tracker backend"):
            EbbiotConfig(tracker="not-a-tracker")
        assert EbbiotConfig(tracker="kalman").tracker == "kalman"

    def test_backend_flags(self):
        config = EbbiotConfig()
        overlap = create_backend("overlap", config)
        ebms = create_backend("ebms", config)
        assert overlap.requires_proposals and not overlap.requires_events
        assert ebms.requires_events and not ebms.requires_proposals

    def test_create_backend_passes_instances_through(self):
        config = EbbiotConfig()
        backend = create_backend("kalman", config)
        assert create_backend(backend, config) is backend

    def test_backend_list_keeps_order_and_drops_blank_items(self):
        assert parse_backend_list(" kalman ,, overlap,") == ["kalman", "overlap"]
        assert parse_backend_list("ebms") == ["ebms"]

    @pytest.mark.parametrize(
        "spec, message",
        [("", "at least one"), (" , ,", "at least one"),
         ("overlap,nope", "unknown tracker backend 'nope'")],
        ids=["empty", "blank_items", "unknown_name"],
    )
    def test_backend_list_refuses(self, spec, message):
        with pytest.raises(ValueError, match=message):
            parse_backend_list(spec)

    def test_max_trackers_propagates(self):
        config = EbbiotConfig(max_trackers=3)
        assert create_backend("overlap", config).tracker.config.max_trackers == 3
        assert create_backend("kalman", config).tracker.config.max_tracks == 3
        assert create_backend("ebms", config).tracker.config.max_clusters == 3


class TestOverlapParity:
    def test_pipeline_matches_hand_wired_overlap_tracker(self):
        """Acceptance bar: tracker="overlap" == the pre-refactor pipeline."""
        stream = _moving_blocks_stream(seed=1)
        config = EbbiotConfig()

        # The pre-refactor pipeline, stage by stage, with the identical
        # parameter mapping the hard-wired constructor used.
        builder = EbbiBuilder(config.width, config.height, config.median_patch_size)
        proposer = HistogramRegionProposer(
            downsample_x=config.downsample_x,
            downsample_y=config.downsample_y,
            threshold=config.histogram_threshold,
            min_region_side_px=config.min_region_side_px,
        )
        roe = RegionOfExclusion(boxes=[])
        tracker = OverlapTracker(
            OverlapTrackerConfig(
                max_trackers=config.max_trackers,
                overlap_threshold=config.overlap_threshold,
                prediction_weight=config.prediction_weight,
                occlusion_lookahead_frames=config.occlusion_lookahead_frames,
                min_track_age_frames=config.min_track_age_frames,
                max_missed_frames=config.max_missed_frames,
            )
        )
        reference = []
        for t_start, t_end, events in stream.iter_frames(config.frame_duration_us):
            ebbi = builder.build(events, t_start, t_end)
            proposals = [
                p
                for p in proposer.propose(ebbi.filtered)
                if p.box.area >= config.min_proposal_area
            ]
            proposals = roe.filter_proposals(proposals)
            reference.extend(tracker.process_frame(proposals, ebbi.t_mid_us))

        unified = EbbiotPipeline(EbbiotConfig(tracker="overlap")).process_stream(stream)
        _assert_observations_equal(unified.track_history.observations, reference)
        assert unified.mean_active_trackers == pytest.approx(
            tracker.mean_active_trackers
        )


class TestKalmanParity:
    def test_pipeline_matches_bespoke_kalman_loop(self):
        """The rewritten Fig. 4 EBBI+KF path reproduces the bespoke loop."""
        stream = _moving_blocks_stream(seed=2)
        config = EbbiotConfig()

        builder = EbbiBuilder(config.width, config.height, config.median_patch_size)
        proposer = HistogramRegionProposer(
            downsample_x=config.downsample_x,
            downsample_y=config.downsample_y,
            threshold=config.histogram_threshold,
        )
        roe = RegionOfExclusion(boxes=[])
        tracker = KalmanFilterTracker()
        reference = []
        for t_start, t_end, events in stream.iter_frames(config.frame_duration_us):
            ebbi = builder.build(events, t_start, t_end)
            proposals = roe.filter_proposals(proposer.propose(ebbi.filtered))
            reference.extend(tracker.process_frame(proposals, ebbi.t_mid_us))

        # The bespoke loop applied no proposal-area filter.
        unified = EbbiotPipeline(
            EbbiotConfig(tracker="kalman", min_proposal_area=0.0)
        ).process_stream(stream)
        _assert_observations_equal(unified.track_history.observations, reference)


class TestEbmsParity:
    def test_pipeline_matches_bespoke_nnfilt_ebms_loop(self):
        """The unified event-driven path == NN-filt + EBMS fed frame by frame."""
        stream = _moving_blocks_stream(seed=3, num_frames=12)
        config = EbbiotConfig()

        nn_filter = NearestNeighbourFilter(config.width, config.height)
        tracker = EbmsTracker()
        reference = []
        for t_start, t_end, events in stream.iter_frames(config.frame_duration_us):
            filtered = nn_filter.filter(events)
            reference.extend(tracker.process_frame(filtered, (t_start + t_end) // 2))

        unified = EbbiotPipeline(EbbiotConfig(tracker="ebms")).process_stream(stream)
        _assert_observations_equal(unified.track_history.observations, reference)

    def test_rpn_skipped_for_proposal_free_backend(self):
        stream = _moving_blocks_stream(seed=4, num_frames=8)
        result = EbbiotPipeline(EbbiotConfig(tracker="ebms")).process_stream(stream)
        assert result.total_proposals() == 0
        assert result.num_frames > 0

    def test_step_without_events_raises(self):
        backend = create_backend("ebms", EbbiotConfig())
        frame = TrackerFrame(proposals=[], events=None, t_start_us=0, t_end_us=66_000)
        with pytest.raises(ValueError, match="requires per-window events"):
            backend.step(frame)


class TestSnapshotRestore:
    @pytest.mark.parametrize("backend_name", ["overlap", "kalman", "ebms"])
    def test_round_trip_resumes_identically(self, backend_name):
        """ISSUE satellite: snapshot/restore round-trips on every backend."""
        stream = _moving_blocks_stream(seed=5)
        frames = list(stream.iter_frames(66_000))
        half = len(frames) // 2

        original = EbbiotPipeline(EbbiotConfig(tracker=backend_name))
        for i, (t_start, t_end, events) in enumerate(frames[:half]):
            original.process_frame_events(events, t_start, t_end, i)
        checkpoint = original.snapshot()
        assert isinstance(checkpoint.tracker, TrackerBackend)
        assert checkpoint.tracker.name == backend_name
        assert checkpoint.tracker is not original.tracker

        tail_original = [
            original.process_frame_events(events, t_start, t_end, i)
            for i, (t_start, t_end, events) in enumerate(frames[half:], start=half)
        ]
        resumed = EbbiotPipeline(EbbiotConfig(tracker=backend_name))
        resumed.restore(checkpoint)
        tail_resumed = [
            resumed.process_frame_events(events, t_start, t_end, i)
            for i, (t_start, t_end, events) in enumerate(frames[half:], start=half)
        ]
        for a, b in zip(tail_original, tail_resumed):
            _assert_observations_equal(a.tracks, b.tracks)
        assert resumed.mean_events_per_frame == pytest.approx(
            original.mean_events_per_frame
        )

    @pytest.mark.parametrize("backend_name", ["overlap", "kalman", "ebms"])
    def test_snapshot_is_isolated_from_live_state(self, backend_name):
        """Mutating the live tracker after snapshot leaves the capture intact."""
        stream = _moving_blocks_stream(seed=6, num_frames=10)
        frames = list(stream.iter_frames(66_000))
        pipeline = EbbiotPipeline(EbbiotConfig(tracker=backend_name))
        for i, (t_start, t_end, events) in enumerate(frames[:5]):
            pipeline.process_frame_events(events, t_start, t_end, i)
        checkpoint = pipeline.snapshot()
        before = pipeline.tracker.num_active_tracks

        pipeline.tracker.reset()
        assert pipeline.tracker.num_active_tracks == 0
        pipeline.restore(checkpoint)
        assert pipeline.tracker.num_active_tracks == before

    def test_cross_backend_restore_rejected(self):
        stream = _moving_blocks_stream(seed=7, num_frames=6)
        frames = list(stream.iter_frames(66_000))
        ebms = EbbiotPipeline(EbbiotConfig(tracker="ebms"))
        for i, (t_start, t_end, events) in enumerate(frames):
            ebms.process_frame_events(events, t_start, t_end, i)
        checkpoint = ebms.snapshot()
        kalman = EbbiotPipeline(EbbiotConfig(tracker="kalman"))
        with pytest.raises(ValueError, match="cannot restore"):
            kalman.restore(checkpoint)

    def test_snapshot_is_picklable(self):
        import pickle

        stream = _moving_blocks_stream(seed=8, num_frames=6)
        frames = list(stream.iter_frames(66_000))
        for backend_name in available_backends():
            pipeline = EbbiotPipeline(EbbiotConfig(tracker=backend_name))
            for i, (t_start, t_end, events) in enumerate(frames):
                pipeline.process_frame_events(events, t_start, t_end, i)
            blob = pickle.dumps(pipeline.snapshot())
            restored = pickle.loads(blob)
            fresh = EbbiotPipeline(EbbiotConfig(tracker=backend_name))
            fresh.restore(restored)
            assert fresh.frames_processed == pipeline.frames_processed


class _CountingBackend(TrackerBackend):
    """An injected backend with no checkpoint code of its own."""

    name = "counting"
    requires_events = False
    requires_proposals = True

    def __init__(self):
        self.steps = 0

    def step(self, frame):
        self.steps += 1
        return []

    def reset(self):
        self.steps = 0

    @property
    def num_active_tracks(self):
        return 0

    @property
    def mean_active_trackers(self):
        return 0.0


class TestCustomBackendInjection:
    def test_pipeline_accepts_backend_instance(self):
        backend = _CountingBackend()
        stream = _moving_blocks_stream(seed=9, num_frames=5)
        pipeline = EbbiotPipeline(tracker=backend)
        result = pipeline.process_stream(stream)
        assert pipeline.backend_name == "counting"
        assert backend.steps == result.num_frames > 0

    def test_checkpoint_carries_every_field_of_a_backend(self):
        # A checkpoint copies the backend object, so a field no checkpoint
        # code names still resumes, and restoring twice shares nothing.
        frames = list(_moving_blocks_stream(seed=9, num_frames=5).iter_frames(66_000))
        assert len(frames) == 5
        pipeline = EbbiotPipeline(tracker=_CountingBackend())
        for i, (t_start, t_end, events) in enumerate(frames):
            pipeline.process_frame_events(events, t_start, t_end, i)
        checkpoint = pipeline.snapshot()
        pipeline.tracker.steps = -1

        resumed = [EbbiotPipeline(tracker=_CountingBackend()) for _ in range(2)]
        for target in resumed:
            target.restore(checkpoint)
        resumed[0].tracker.steps += 100
        assert [target.tracker.steps for target in resumed] == [105, 5]
        assert checkpoint.tracker.steps == 5
