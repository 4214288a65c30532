"""Adversarial scalar-vs-vectorized parity tests for the event hot paths.

The vectorized NN-filt / EBMS implementations must be *bit-identical* to
their scalar references: same keep-masks, same per-pixel timestamp
memories, same cluster state (centres, spreads, counts, histories, merges),
same track observations.  These tests drive both paths over the adversarial
packet shapes the chunked fast paths are most likely to get wrong:
same-pixel bursts, timestamps exactly at the support boundary, empty and
single-event packets, and packets split at arbitrary boundaries (the
vectorized state must be packet-split invariant because the scalar
reference is).
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import EbbiotConfig
from repro.core.pipeline import EbbiotPipeline
from repro.events.filters import (
    MAX_FILTER_CHUNK,
    MIN_VECTOR_EVENTS,
    NearestNeighbourFilter,
)
from repro.events.types import empty_packet, make_packet
from repro.trackers.ebms import EbmsConfig, EbmsTracker
from repro.utils.fastpath import SCALAR_ENV, force_scalar, scalar_forced


def random_packet(num_events, seed, width=240, height=180, burst_fraction=0.2,
                  time_step=4):
    """Noise + same-pixel bursts + exact timestamp ties."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, width, num_events)
    y = rng.integers(0, height, num_events)
    burst = rng.random(num_events) < burst_fraction
    x[burst] = rng.integers(60, 63, burst.sum())
    y[burst] = rng.integers(60, 63, burst.sum())
    # Coarse time grid so exact ties are common.
    t = np.sort(rng.integers(0, num_events, num_events)) * time_step
    return make_packet(x, y, t, np.ones(num_events, dtype=int))


def blob_packet(num_events, seed, width=240, height=180, num_blobs=4):
    """Moving dense blobs over uniform noise — the EBMS-relevant shape."""
    rng = np.random.default_rng(seed)
    t = np.sort(rng.integers(0, 2_000_000, num_events))
    x = rng.integers(0, width, num_events).astype(float)
    y = rng.integers(0, height, num_events).astype(float)
    for _ in range(num_blobs):
        mask = rng.random(num_events) < 0.2
        cx, cy = rng.uniform(20, width - 20), rng.uniform(20, height - 20)
        vx, vy = rng.uniform(-30, 30), rng.uniform(-10, 10)
        x[mask] = np.clip(cx + vx * t[mask] * 1e-6 + rng.normal(0, 6, mask.sum()), 0, width - 1)
        y[mask] = np.clip(cy + vy * t[mask] * 1e-6 + rng.normal(0, 6, mask.sum()), 0, height - 1)
    return make_packet(x.astype(int), y.astype(int), t, np.ones(num_events, dtype=int))


def ebms_state(tracker):
    """Full observable state of an EBMS tracker, bitwise comparable."""
    clusters = tuple(
        (
            cid,
            c.cx,
            c.cy,
            c.last_update_us,
            c.event_count,
            c.visible,
            c.spread_x,
            c.spread_y,
            tuple(c.position_history),
        )
        for cid, c in tracker._clusters.items()
    )
    return (
        clusters,
        tracker._next_cluster_id,
        tracker.events_processed,
        tracker.merges_performed,
    )


@st.composite
def sliced_streams(draw):
    """A time-sorted stream on a small sensor, its packet cuts and a filter.

    Gaps mix exact ties, short steps, exactly the support time, one
    microsecond past it and several support times, so packets span many
    support times and slices of every length occur; a hot pixel adds
    same-pixel bursts.
    """
    support = draw(st.sampled_from([1, 500, 66_000]) | st.integers(1, 66_000))
    neighbourhood = draw(st.sampled_from([1, 3, 5]))
    num_events = draw(st.integers(0, 1500))
    burst_fraction = draw(st.sampled_from([0.0, 0.3, 0.9]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.integers(0, 16, num_events)
    y = rng.integers(0, 12, num_events)
    burst = rng.random(num_events) < burst_fraction
    x[burst] = 5
    y[burst] = 6
    gap_kinds = [0, 1, max(1, support // 64), support, support + 1, 5 * support]
    gaps = rng.choice(gap_kinds, num_events, p=rng.dirichlet(np.ones(len(gap_kinds))))
    packet = make_packet(x, y, np.cumsum(gaps), np.ones(num_events, dtype=int))
    cuts = sorted(draw(st.lists(st.integers(0, num_events), max_size=5)))
    return packet, [0, *cuts, num_events], neighbourhood, support


class TestNnFilterParity:
    @pytest.mark.parametrize("burst_fraction", [0.0, 0.2, 0.9, 1.0])
    def test_random_packets(self, burst_fraction):
        packet = random_packet(3000, seed=7, burst_fraction=burst_fraction)
        fast = NearestNeighbourFilter(240, 180)
        reference = NearestNeighbourFilter(240, 180)
        assert (fast.process(packet) == reference.process_scalar(packet)).all()
        assert (fast._last_timestamp == reference._last_timestamp).all()

    @pytest.mark.parametrize(
        "num_events, time_step",
        [(3000, 200), (2 * MAX_FILTER_CHUNK + 100, 1)],
        ids=["over_support_time", "over_chunk_cap"],
    )
    def test_long_packet_is_sliced(self, num_events, time_step):
        # A packet that spans more than the support time (intra-packet
        # predecessors can be stale) or holds more than MAX_FILTER_CHUNK
        # events is cut into slices; support crosses each cut through the
        # per-pixel memory.
        packet = random_packet(num_events, seed=3, time_step=time_step)
        assert (
            int(packet["t"][-1] - packet["t"][0]) > 66_000
            or num_events > MAX_FILTER_CHUNK
        )
        fast = NearestNeighbourFilter(240, 180)
        reference = NearestNeighbourFilter(240, 180)
        assert (fast.process(packet) == reference.process_scalar(packet)).all()
        assert (fast._last_timestamp == reference._last_timestamp).all()

    @settings(max_examples=60, deadline=None)
    @given(sliced_streams())
    def test_any_stream_any_cuts_match_the_reference(self, case):
        packet, bounds, neighbourhood, support = case
        fast = NearestNeighbourFilter(16, 12, neighbourhood, support)
        reference = NearestNeighbourFilter(16, 12, neighbourhood, support)
        keep_fast = [fast.process(packet[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
        keep_reference = reference.process_scalar(packet)
        assert (np.concatenate(keep_fast) == keep_reference).all()
        assert (fast._last_timestamp == reference._last_timestamp).all()

    @pytest.mark.parametrize("support", [1, 500, 66_000])
    def test_slice_edges_at_the_support_time(self, support):
        # Two slices of at least MIN_VECTOR_EVENTS events each.  The first
        # spans exactly the support time; the second starts one microsecond
        # later, so its first events see the first slice only through the
        # per-pixel memory.
        row = list(range(10, 10 + MIN_VECTOR_EVENTS))
        far = list(range(60, 60 + MIN_VECTOR_EVENTS))
        xs = row + [40, 10, 25, 41] + far
        ys = [10] * len(row) + [10, 11, 11, 11] + [60] * len(far)
        ts = [0] * len(row) + [1, support, support + 1, support + 1]
        ts += [support + 1] * len(far)
        packet = make_packet(xs, ys, ts, [1] * len(xs))
        fast = NearestNeighbourFilter(240, 180, support_time_us=support)
        reference = NearestNeighbourFilter(240, 180, support_time_us=support)
        keep = fast.process(packet)
        assert (keep == reference.process_scalar(packet)).all()
        assert (fast._last_timestamp == reference._last_timestamp).all()
        first = len(row)
        # Same slice, neighbour exactly support_time_us old: supported.
        assert bool(keep[first + 1]) is True
        # Next slice, neighbours support_time_us + 1 old: not supported.
        assert bool(keep[first + 2]) is False
        # Next slice, neighbour exactly support_time_us old, via memory.
        assert bool(keep[first + 3]) is True

    def test_state_is_the_timestamp_memory_alone(self):
        # No per-packet scratch outlives a vectorized packet, so none
        # travels in a checkpoint.
        used = NearestNeighbourFilter(240, 180)
        used.process(random_packet(3000, seed=5))
        fresh = NearestNeighbourFilter(240, 180)
        assert len(pickle.dumps(used)) == len(pickle.dumps(fresh))

    def test_support_time_boundary_exact(self):
        # A neighbour exactly support_time_us old still supports (>=);
        # one microsecond older does not.
        for age, expected in [(66_000, True), (66_001, False)]:
            fast = NearestNeighbourFilter(240, 180, support_time_us=66_000)
            reference = NearestNeighbourFilter(240, 180, support_time_us=66_000)
            packet = make_packet([100, 101], [90, 90], [0, age], [1, 1])
            keep_fast = fast.process(packet)
            keep_reference = reference.process_scalar(packet)
            assert (keep_fast == keep_reference).all()
            assert bool(keep_fast[1]) is expected

    def test_empty_and_single_event_packets(self):
        fast = NearestNeighbourFilter(240, 180)
        reference = NearestNeighbourFilter(240, 180)
        assert len(fast.process(empty_packet())) == 0
        assert len(reference.process_scalar(empty_packet())) == 0
        single = make_packet([10], [10], [5], [1])
        assert (fast.process(single) == reference.process_scalar(single)).all()
        assert (fast._last_timestamp == reference._last_timestamp).all()

    def test_packet_split_invariance(self):
        # Cutting the stream into arbitrary packets (as the pipeline's
        # chunking does) must not change any keep decision.
        packet = random_packet(4000, seed=11, burst_fraction=0.3)
        reference = NearestNeighbourFilter(240, 180)
        keep_reference = reference.process_scalar(packet)
        fast = NearestNeighbourFilter(240, 180)
        splits = [0, 1, 17, 1000, 1001, 2500, 4000]
        keep_fast = np.concatenate(
            [fast.process(packet[lo:hi]) for lo, hi in zip(splits, splits[1:])]
        )
        assert (keep_fast == keep_reference).all()
        assert (fast._last_timestamp == reference._last_timestamp).all()

    def test_border_pixels(self):
        # Corner/edge pixels exercise the bounds masking in the gathers.
        xs = [0, 1, 0, 239, 238, 239, 0]
        ys = [0, 0, 1, 179, 179, 178, 179]
        packet = make_packet(xs, ys, list(range(0, 700, 100)), [1] * 7)
        fast = NearestNeighbourFilter(240, 180)
        reference = NearestNeighbourFilter(240, 180)
        assert (fast.process(packet) == reference.process_scalar(packet)).all()

    def test_env_var_forces_scalar(self, monkeypatch):
        monkeypatch.setenv(SCALAR_ENV, "1")
        assert scalar_forced()
        with force_scalar(False):
            assert not scalar_forced()
        assert scalar_forced()


class TestEbmsParity:
    CONFIGS = [
        EbmsConfig(),
        EbmsConfig(max_clusters=2),
        # merge_distance > radius: a fresh seed can immediately pair.
        EbmsConfig(cluster_radius_px=10, merge_distance_px=30),
        EbmsConfig(decay_time_us=50_000),
        EbmsConfig(
            merge_distance_px=40.0, cluster_radius_px=25.0, support_threshold_events=5
        ),
    ]

    @pytest.mark.parametrize("config_index", range(len(CONFIGS)))
    def test_cluster_state_bit_identical(self, config_index):
        config = self.CONFIGS[config_index]
        packet = blob_packet(15_000, seed=config_index)
        fast = EbmsTracker(config)
        reference = EbmsTracker(config)
        # Arbitrary packet boundaries, including empty and single-event.
        splits = [0, 0, 1, 137, 5000, 5001, 15_000]
        for lo, hi in zip(splits, splits[1:]):
            fast.process_events(packet[lo:hi])
            reference.process_events_scalar(packet[lo:hi])
        assert ebms_state(fast) == ebms_state(reference)

    def test_observations_bit_identical(self):
        packet = blob_packet(12_000, seed=42)
        fast = EbmsTracker(EbmsConfig(support_threshold_events=20))
        reference = EbmsTracker(EbmsConfig(support_threshold_events=20))
        window = 66_000
        for frame in range(30):
            lo = np.searchsorted(packet["t"], frame * window)
            hi = np.searchsorted(packet["t"], (frame + 1) * window)
            t_mid = frame * window + window // 2
            obs_fast = fast.process_frame(packet[lo:hi], t_mid)
            with force_scalar(True):
                obs_reference = reference.process_frame(packet[lo:hi], t_mid)
            assert [
                (o.track_id, o.t_us, o.box, o.velocity) for o in obs_fast
            ] == [(o.track_id, o.t_us, o.box, o.velocity) for o in obs_reference]

    def test_empty_packet_is_noop(self):
        fast = EbmsTracker()
        fast.process_events(empty_packet())
        assert fast.events_processed == 0
        assert fast.num_clusters == 0

    def test_snapshot_restore_crosses_paths(self):
        # State captured mid-stream on the fast path (a deep copy, as a
        # pipeline checkpoint takes it) resumes identically on either path.
        packet = blob_packet(10_000, seed=3)
        fast = EbmsTracker()
        fast.process_events(packet[:5000])
        resumed_fast = copy.deepcopy(fast)
        resumed_reference = copy.deepcopy(fast)
        resumed_fast.process_events(packet[5000:])
        resumed_reference.process_events_scalar(packet[5000:])
        assert ebms_state(resumed_fast) == ebms_state(resumed_reference)


class TestEndToEndParity:
    def test_ebms_pipeline_digit_identical(self):
        """Whole-pipeline parity: REPRO_FORCE_SCALAR=1 vs the fast path."""
        from repro.datasets import build_recording, LT4_LIKE_SPEC

        recording = build_recording(LT4_LIKE_SPEC, duration_override_s=2.0)
        with force_scalar(False):
            fast = EbbiotPipeline(EbbiotConfig(tracker="ebms")).process_stream(
                recording.stream, collect_frames=False
            )
        with force_scalar(True):
            reference = EbbiotPipeline(EbbiotConfig(tracker="ebms")).process_stream(
                recording.stream, collect_frames=False
            )
        fast_obs = [
            (o.track_id, o.t_us, o.box, o.velocity)
            for o in fast.track_history.observations
        ]
        reference_obs = [
            (o.track_id, o.t_us, o.box, o.velocity)
            for o in reference.track_history.observations
        ]
        assert fast_obs == reference_obs
        assert fast.mean_active_trackers == reference.mean_active_trackers
        assert fast.mean_events_per_frame == reference.mean_events_per_frame

    def test_overlap_pipeline_unaffected_by_scalar_flag(self):
        """The overlap path has no scalar/vectorized split; the flag must
        not change its output (guards accidental coupling)."""
        from repro.datasets import build_recording, LT4_LIKE_SPEC

        recording = build_recording(LT4_LIKE_SPEC, duration_override_s=1.0)
        with force_scalar(False):
            fast = EbbiotPipeline(EbbiotConfig()).process_stream(recording.stream)
        with force_scalar(True):
            reference = EbbiotPipeline(EbbiotConfig()).process_stream(recording.stream)
        assert [
            (o.track_id, o.t_us, o.box) for o in fast.track_history.observations
        ] == [
            (o.track_id, o.t_us, o.box) for o in reference.track_history.observations
        ]


class TestBufferReuse:
    def test_reused_and_fresh_builders_agree(self):
        from repro.core.ebbi import EbbiBuilder

        packet = random_packet(500, seed=1)
        splits = np.array([0, 100, 350, 500], dtype=np.int64)
        starts = np.array([0, 66_000, 132_000])
        ends = starts + 66_000
        reused = EbbiBuilder(240, 180, 3, reuse_buffers=True)
        fresh = EbbiBuilder(240, 180, 3)
        frames_reused = reused.build_batch(packet, starts, ends, splits)
        frames_fresh = fresh.build_batch(packet, starts, ends, splits)
        for a, b in zip(frames_reused, frames_fresh):
            assert (a.raw == b.raw).all()
            assert (a.filtered == b.filtered).all()
        # Second batch overwrites the same scratch and still agrees.
        frames_reused_2 = reused.build_batch(packet, starts, ends, splits)
        for a, b in zip(frames_reused_2, frames_fresh):
            assert (a.raw == b.raw).all()
            assert (a.filtered == b.filtered).all()
