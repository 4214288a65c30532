"""Tests for :class:`SensorSession`: live processing == batch replay."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core import EbbiotConfig, EbbiotPipeline
from repro.events.stream import EventStream
from repro.events.types import make_packet
from repro.obs import Instrumentation, MetricsRegistry, Tracer
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


def _summary_without_wall_time(session: SensorSession) -> dict:
    """``session``'s summary, less the fields that time the host."""
    summary = session.summary().to_dict()
    for field in ("wall_time_s", "events_per_second", "realtime_factor", "stage_seconds"):
        summary.pop(field, None)
    return summary


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

    @pytest.mark.parametrize(
        "first_t", [5_000_123, 76 * 66_000], ids=["mid_window", "window_edge"]
    )
    def test_late_start_matches_process_stream(self, first_t):
        """A recording starting ~5 s after t = 0 frames on the same grid live."""
        stream = _moving_block_stream(seed=9)
        stream.events["t"] += first_t - stream.t_start
        assert stream.t_start == first_t
        batch = EbbiotPipeline(EbbiotConfig()).process_stream(stream)

        session = SensorSession("s", reorder_slack_us=2_000)
        events = stream.events
        frames = []
        for lo in range(stream.t_start, stream.t_end + 1, 11_000):
            i0, i1 = np.searchsorted(events["t"], [lo, lo + 11_000])
            frames.extend(session.ingest(events[i0:i1].copy()))
        frames.extend(session.finish())

        assert batch.frames[0].t_start_us == 0
        assert session.late_events == 0

        def frame_key(frame):
            boxes = [proposal.box for proposal in frame.proposals]
            return frame.frame_index, frame.t_start_us, frame.t_end_us, frame.num_events, boxes

        assert [frame_key(f) for f in frames] == [frame_key(f) for f in batch.frames]
        assert len(batch.track_history.observations) > 0
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
        assert envelope.pipeline.tracker.name == backend
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


class TestCopyCheckpoint:
    """The envelope holds deep copies of the tracker backend and the framer."""

    @pytest.mark.parametrize("backend", ["overlap", "kalman", "ebms"])
    def test_instrumented_export_resumes_twice_after_pickling(self, backend):
        # The source is instrumented (its pipeline holds locks and does not
        # pickle) and its spool holds out-of-order events at the export.
        # The source moves on after the export, and one unpickled envelope
        # is restored twice, one resumed session running its tail before
        # the other restores: if any of them shared objects, a tail would
        # differ from the unmigrated session's.
        config = EbbiotConfig(tracker=backend)
        shuffle_rng = np.random.default_rng(5)
        batches = list(_batches(_moving_block_stream(seed=22), 4_000, shuffle_rng))
        cut = len(batches) // 2

        reference = SensorSession("s", config=config, reorder_slack_us=8_000)
        _replay(reference, batches[:cut])
        ref_tail = _replay(reference, batches[cut:]) + reference.finish()
        assert _observations(ref_tail)

        instrumentation = Instrumentation(
            tracer=Tracer(), metrics=MetricsRegistry(), labels={"sensor": "s"}
        )
        source = SensorSession(
            "s", config=config, reorder_slack_us=8_000, instrumentation=instrumentation
        )
        _replay(source, batches[:cut])
        spooled = np.concatenate(source.framer._buffer._packets)["t"]
        assert (np.diff(spooled) < 0).any()
        envelope = source.export_migration()
        source_tail = _replay(source, batches[cut:]) + source.finish()
        assert source_tail == ref_tail

        envelope = pickle.loads(pickle.dumps(envelope))
        for _ in range(2):
            resumed = SensorSession("s", config=config)
            resumed.restore_migration(envelope)
            assert resumed.framer.reorder_slack_us == 8_000
            assert _replay(resumed, batches[cut:]) + resumed.finish() == ref_tail
            assert resumed.late_events == reference.late_events == 0
            assert _summary_without_wall_time(resumed) == _summary_without_wall_time(reference)
        assert _summary_without_wall_time(source) == _summary_without_wall_time(reference)

    def test_snapshot_restore_resumes_identically(self):
        # Export a late-starting feed mid-recording, with events still
        # spooled, and resume it in a fresh session with another slack: the
        # frames, and the counters, are those of a session that never moved.
        rng = np.random.default_rng(4)
        ts = np.sort(rng.integers(5_000_123, 5_500_000, size=2_000))
        packet = make_packet(
            rng.integers(0, 240, 2_000), rng.integers(0, 180, 2_000), ts, np.ones(2_000, int)
        )
        # Each batch arrives newest first: the spool is unordered.
        batches = [batch[::-1] for batch in np.array_split(packet, 25)]

        reference = SensorSession("s", reorder_slack_us=2_000)
        expected = _replay(reference, batches) + reference.finish()

        source = SensorSession("s", reorder_slack_us=2_000)
        frames = _replay(source, batches[:12])
        assert source.framer.events_pending > 0
        resumed = SensorSession("s")
        resumed.restore_migration(source.export_migration())
        assert resumed.framer.reorder_slack_us == 2_000
        frames += _replay(resumed, batches[12:]) + resumed.finish()

        assert frames == expected
        assert resumed.frames_processed == reference.frames_processed == len(expected)
        assert resumed.events_ingested == reference.events_ingested == 2_000
        assert resumed.late_events == reference.late_events == 0

    def test_restore_rejects_other_frame_duration(self):
        envelope = SensorSession("s").export_migration()
        other = SensorSession("s", config=EbbiotConfig(frame_duration_us=33_000))
        with pytest.raises(ValueError, match="frame_duration_us"):
            other.restore_migration(envelope)
        assert other.framer.frame_duration_us == 33_000

    @pytest.mark.parametrize(
        ("source_id", "source_config", "refusal"),
        [
            ("other", EbbiotConfig(), "belongs to sensor 'other'"),
            ("s", EbbiotConfig(tracker="kalman"), "cannot restore"),
            ("s", EbbiotConfig(frame_duration_us=33_000), "frame_duration_us"),
        ],
        ids=["other_sensor", "other_backend", "other_frame_duration"],
    )
    def test_refused_envelope_leaves_the_session_as_it_was(
        self, source_id, source_config, refusal
    ):
        # The refused envelope comes from a session with tracks and spooled
        # events, so a refusal raised after any part of it was restored
        # would show in the target's objects or counters.
        batches = list(_batches(_moving_block_stream(seed=23), 66_000))
        cut = len(batches) // 2
        refused_source = SensorSession(source_id, config=source_config)
        _replay(refused_source, batches[:cut])
        assert refused_source.pipeline.tracker.num_active_tracks > 0

        target = SensorSession("s")
        tracker, framer = target.pipeline.tracker, target.framer
        with pytest.raises(ValueError, match=refusal):
            target.restore_migration(refused_source.export_migration())
        assert target.pipeline.tracker is tracker
        assert target.framer is framer
        assert target.pipeline.frames_processed == target.frames_processed == 0
        assert tracker.num_active_tracks == 0 and framer.events_pending == 0

        # The session still takes the right envelope and resumes exactly.
        reference = SensorSession("s")
        _replay(reference, batches[:cut])
        target.restore_migration(reference.export_migration())
        ref_tail = _replay(reference, batches[cut:]) + reference.finish()
        assert _observations(ref_tail)
        assert _replay(target, batches[cut:]) + target.finish() == ref_tail
        assert _summary_without_wall_time(target) == _summary_without_wall_time(reference)
