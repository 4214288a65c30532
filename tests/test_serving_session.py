"""Tests for :class:`SensorSession`: live processing == batch replay."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import EbbiotConfig, EbbiotPipeline
from repro.events.stream import EventStream
from repro.events.types import make_packet
from repro.serving import SensorSession


def _moving_block_stream(seed: int = 0, num_frames: int = 16) -> EventStream:
    """One 6x6 block crossing the view (same shape as the runtime tests)."""
    rng = np.random.default_rng(seed)
    xs, ys, ts = [], [], []
    for frame_index in range(num_frames):
        x0 = 20 + 3 * frame_index
        y0 = 80
        t = frame_index * 66_000 + 10_000
        for dy in range(6):
            for dx in range(6):
                xs.append(x0 + dx)
                ys.append(y0 + dy)
                ts.append(t + int(rng.integers(0, 40_000)))
    packet = make_packet(xs, ys, ts, [1] * len(xs))
    return EventStream(packet, 240, 180)


def _batches(stream: EventStream, batch_us: int, shuffle_rng=None):
    """Slice a stream into stream-time batches, optionally shuffled within."""
    events = stream.events
    for lo in range(0, int(events["t"][-1]) + 1, batch_us):
        i0, i1 = np.searchsorted(events["t"], [lo, lo + batch_us])
        batch = events[i0:i1].copy()
        if shuffle_rng is not None and len(batch):
            shuffle_rng.shuffle(batch)
        yield batch


def _observations(frames):
    """The track observations of ``frames``, in frame order."""
    return [observation for frame in frames for observation in frame.tracks]


def _replay(session: SensorSession, batches) -> list:
    """Feed ``batches`` into ``session``; return the frames they closed."""
    return [frame for events in batches for frame in session.ingest(events)]


def _resumed(session: SensorSession, config=None) -> SensorSession:
    """A fresh session restored from ``session``'s migration envelope."""
    resumed = SensorSession(session.sensor_id, config=config, reorder_slack_us=0)
    resumed.restore_migration(session.export_migration())
    return resumed


def _assert_observations_equal(live_obs, batch_obs):
    assert len(live_obs) == len(batch_obs)
    for a, b in zip(live_obs, batch_obs):
        assert a.track_id == b.track_id
        assert a.t_us == b.t_us
        assert a.box.x == pytest.approx(b.box.x)
        assert a.box.y == pytest.approx(b.box.y)
        assert a.box.width == pytest.approx(b.box.width)
        assert a.box.height == pytest.approx(b.box.height)


class TestSessionEquivalence:
    def test_live_session_matches_process_stream(self):
        """The ISSUE acceptance criterion: live output == batch replay."""
        stream = _moving_block_stream()
        batch = EbbiotPipeline(EbbiotConfig()).process_stream(stream)

        session = SensorSession("s", reorder_slack_us=2_000)
        frames = _replay(session, _batches(stream, 11_000)) + session.finish()
        summary = session.summary()

        assert summary.num_frames == batch.num_frames
        assert summary.num_events == len(stream)
        assert session.late_events == 0
        assert summary.mean_events_per_frame == pytest.approx(
            batch.mean_events_per_frame
        )
        assert summary.mean_active_pixel_fraction == pytest.approx(
            batch.mean_active_pixel_fraction
        )
        assert summary.mean_active_trackers == pytest.approx(
            batch.mean_active_trackers
        )
        assert summary.num_track_observations > 0
        assert summary.num_proposals == batch.total_proposals()
        _assert_observations_equal(_observations(frames), batch.track_history.observations)

    def test_out_of_order_within_slack_matches_batch(self):
        """Disorder bounded by the slack lands in the correct EBBI window."""
        stream = _moving_block_stream(seed=3)
        batch = EbbiotPipeline(EbbiotConfig()).process_stream(stream)

        rng = np.random.default_rng(7)
        session = SensorSession("s", reorder_slack_us=12_000)
        # Shuffling whole 11 ms batches produces disorder both within a
        # batch (always tolerated) and across adjacent window boundaries.
        frames = _replay(session, _batches(stream, 11_000, shuffle_rng=rng)) + session.finish()

        assert session.late_events == 0
        assert session.frames_processed == batch.num_frames
        _assert_observations_equal(_observations(frames), batch.track_history.observations)

    def test_single_giant_batch_matches_batch(self):
        stream = _moving_block_stream(seed=5)
        batch = EbbiotPipeline(EbbiotConfig()).process_stream(stream)
        session = SensorSession("s")
        frames = session.ingest(stream.events) + session.finish()
        assert session.frames_processed == batch.num_frames
        _assert_observations_equal(_observations(frames), batch.track_history.observations)


class TestSessionLifecycle:
    def test_ingest_after_finish_raises(self):
        session = SensorSession("s")
        session.finish()
        with pytest.raises(RuntimeError):
            session.ingest(_moving_block_stream().events[:10])
        assert session.finish() == []  # idempotent

    def test_summary_of_empty_session(self):
        session = SensorSession("s")
        session.finish()
        summary = session.summary()
        assert summary.num_frames == 0
        assert summary.num_events == 0
        assert summary.mean_active_pixel_fraction == 0.0
        assert summary.events_per_second == 0.0

    def test_snapshot_restore_round_trip(self):
        """A session restored from an envelope into a fresh session continues
        exactly like the original: the same frames and the same summary."""
        stream = _moving_block_stream(seed=9)
        batches = list(_batches(stream, 66_000))
        half = len(batches) // 2

        reference = SensorSession("s", reorder_slack_us=0)
        forked = SensorSession("s", reorder_slack_us=0)
        _replay(reference, batches[:half])
        _replay(forked, batches[:half])
        resumed = _resumed(forked)
        assert resumed.frames_processed == reference.frames_processed > 0

        ref_tail = _replay(reference, batches[half:]) + reference.finish()
        fork_tail = _replay(resumed, batches[half:]) + resumed.finish()
        assert _observations(ref_tail)
        _assert_observations_equal(_observations(fork_tail), _observations(ref_tail))
        ref_summary, fork_summary = reference.summary().to_dict(), resumed.summary().to_dict()
        for field in ("wall_time_s", "events_per_second", "realtime_factor"):
            del ref_summary[field], fork_summary[field]
        assert fork_summary == ref_summary

    def test_restore_rejects_foreign_snapshot(self):
        session_a = SensorSession("a")
        session_b = SensorSession("b")
        with pytest.raises(ValueError, match="belongs to sensor 'a'"):
            session_b.restore_migration(session_a.export_migration())

    def test_restore_refuses_a_session_that_has_processed_data(self):
        batches = list(_batches(_moving_block_stream(seed=3), 66_000))
        source = SensorSession("s", reorder_slack_us=0)
        _replay(source, batches[:4])
        used = SensorSession("s", reorder_slack_us=0)
        _replay(used, batches[:1])
        ingested = used.events_ingested
        with pytest.raises(RuntimeError, match="already processed data"):
            used.restore_migration(source.export_migration())
        assert used.events_ingested == ingested > 0
        assert used.frames_processed == 0

    def test_finished_session_has_nothing_to_migrate(self):
        session = SensorSession("s")
        session.ingest(_moving_block_stream().events[:10])
        session.finish()
        with pytest.raises(RuntimeError, match="nothing to migrate"):
            session.export_migration()


class TestBoundedHistory:
    def test_keep_history_off_keeps_summary_counts_correct(self):
        """A session keeps counters, not frames or observations: its summary
        counts what the frames it returned hold."""
        stream = _moving_block_stream(seed=11)
        session = SensorSession("a")
        frames = _replay(session, _batches(stream, 33_000)) + session.finish()

        summary = session.summary()
        observations = _observations(frames)
        assert summary.num_frames == len(frames) == session.frames_processed
        assert summary.num_proposals == sum(len(frame.proposals) for frame in frames) > 0
        assert summary.num_track_observations == len(observations) > 0
        assert summary.num_tracks == len({o.track_id for o in observations})


class TestNonDefaultBackends:
    """ISSUE satellite: a SensorSession on a baseline backend behaves like
    the batch pipeline, including snapshot/restore."""

    @pytest.mark.parametrize("backend", ["kalman", "ebms"])
    def test_live_session_matches_process_stream(self, backend):
        stream = _moving_block_stream(seed=21)
        config = EbbiotConfig(tracker=backend)
        batch = EbbiotPipeline(config).process_stream(stream)

        session = SensorSession("s", config=config, reorder_slack_us=2_000)
        assert session.backend_name == backend
        frames = _replay(session, _batches(stream, 11_000)) + session.finish()
        summary = session.summary()

        assert summary.tracker == backend
        assert summary.num_frames == batch.num_frames
        assert summary.mean_active_trackers == pytest.approx(
            batch.mean_active_trackers
        )
        _assert_observations_equal(_observations(frames), batch.track_history.observations)

    @pytest.mark.parametrize("backend", ["kalman", "ebms"])
    def test_snapshot_restore_round_trip(self, backend):
        """Satellite: the envelope round-trips on the baseline backends."""
        stream = _moving_block_stream(seed=22)
        batches = list(_batches(stream, 66_000))
        half = len(batches) // 2
        config = EbbiotConfig(tracker=backend)

        reference = SensorSession("s", config=config, reorder_slack_us=0)
        forked = SensorSession("s", config=config, reorder_slack_us=0)
        _replay(reference, batches[:half])
        _replay(forked, batches[:half])
        envelope = forked.export_migration()
        assert envelope.pipeline.tracker.backend == backend
        resumed = _resumed(forked, config)

        ref_tail = _replay(reference, batches[half:]) + reference.finish()
        fork_tail = _replay(resumed, batches[half:]) + resumed.finish()
        assert _observations(ref_tail)
        _assert_observations_equal(_observations(fork_tail), _observations(ref_tail))
        assert resumed.summary().mean_active_trackers == reference.summary().mean_active_trackers

    def test_restore_rejects_other_backend_snapshot(self):
        envelope = SensorSession("s").export_migration()
        kalman = SensorSession("s", config=EbbiotConfig(tracker="kalman"))
        with pytest.raises(ValueError, match="cannot restore"):
            kalman.restore_migration(envelope)
