"""Tests for the event-level noise filters (NN-filt and refractory)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.events.filters import NearestNeighbourFilter, RefractoryFilter
from repro.events.types import make_packet


class TestNearestNeighbourFilter:
    def test_isolated_event_rejected(self):
        nn_filter = NearestNeighbourFilter(240, 180)
        packet = make_packet([100], [100], [1000], [1])
        keep = nn_filter.process(packet)
        assert not keep[0]

    def test_spatial_support_accepted(self):
        nn_filter = NearestNeighbourFilter(240, 180)
        packet = make_packet([100, 101], [100, 100], [1000, 1500], [1, 1])
        keep = nn_filter.process(packet)
        assert not keep[0]
        assert keep[1]

    def test_self_support_not_counted(self):
        # The same pixel firing repeatedly should not support itself.
        nn_filter = NearestNeighbourFilter(240, 180)
        packet = make_packet([100, 100, 100], [100, 100, 100], [0, 100, 200], [1, 1, 1])
        keep = nn_filter.process(packet)
        assert not keep.any()

    def test_stale_support_rejected(self):
        nn_filter = NearestNeighbourFilter(240, 180, support_time_us=1000)
        packet = make_packet([100, 101], [100, 100], [0, 5000], [1, 1])
        keep = nn_filter.process(packet)
        assert not keep[1]

    def test_dense_cluster_mostly_kept(self, rng):
        nn_filter = NearestNeighbourFilter(240, 180)
        count = 200
        x = rng.integers(50, 60, count)
        y = rng.integers(50, 60, count)
        t = np.sort(rng.integers(0, 66_000, count))
        packet = make_packet(x, y, t, np.ones(count, dtype=int))
        keep = nn_filter.process(packet)
        assert keep.mean() > 0.8

    def test_uniform_noise_mostly_rejected(self, rng):
        nn_filter = NearestNeighbourFilter(240, 180)
        count = 300
        x = rng.integers(0, 240, count)
        y = rng.integers(0, 180, count)
        t = np.sort(rng.integers(0, 66_000, count))
        packet = make_packet(x, y, t, np.ones(count, dtype=int))
        keep = nn_filter.process(packet)
        assert keep.mean() < 0.3

    def test_state_persists_across_packets(self):
        nn_filter = NearestNeighbourFilter(240, 180)
        first = make_packet([100], [100], [0], [1])
        second = make_packet([101], [100], [100], [1])
        nn_filter.process(first)
        keep = nn_filter.process(second)
        assert keep[0]

    def test_reset_clears_state(self):
        nn_filter = NearestNeighbourFilter(240, 180)
        nn_filter.process(make_packet([100], [100], [0], [1]))
        nn_filter.reset()
        keep = nn_filter.process(make_packet([101], [100], [100], [1]))
        assert not keep[0]

    def test_memory_bits_matches_eq2(self):
        nn_filter = NearestNeighbourFilter(240, 180)
        assert nn_filter.memory_bits == 16 * 240 * 180

    def test_border_events_handled(self):
        nn_filter = NearestNeighbourFilter(240, 180)
        packet = make_packet([0, 0], [0, 1], [0, 100], [1, 1])
        keep = nn_filter.process(packet)
        assert keep[1]

    def test_invalid_neighbourhood_rejected(self):
        with pytest.raises(ValueError):
            NearestNeighbourFilter(240, 180, neighbourhood=4)
        with pytest.raises(ValueError):
            NearestNeighbourFilter(240, 180, support_time_us=0)

    def test_filter_returns_subset(self):
        nn_filter = NearestNeighbourFilter(240, 180)
        packet = make_packet([10, 11, 200], [10, 10, 90], [0, 10, 20], [1, 1, 1])
        kept = nn_filter.filter(packet)
        assert len(kept) == 1
        assert int(kept["x"][0]) == 11


class TestRefractoryFilter:
    def test_rapid_refires_suppressed(self):
        refractory = RefractoryFilter(240, 180, refractory_us=1000)
        packet = make_packet([5, 5, 5], [5, 5, 5], [0, 100, 2000], [1, 1, 1])
        keep = refractory.process(packet)
        assert list(keep) == [True, False, True]

    def test_different_pixels_independent(self):
        refractory = RefractoryFilter(240, 180, refractory_us=1000)
        packet = make_packet([5, 6], [5, 5], [0, 100], [1, 1])
        assert refractory.process(packet).all()

    def test_reset(self):
        refractory = RefractoryFilter(240, 180, refractory_us=10_000)
        refractory.process(make_packet([5], [5], [0], [1]))
        refractory.reset()
        assert refractory.process(make_packet([5], [5], [100], [1]))[0]

    def test_invalid_refractory_rejected(self):
        with pytest.raises(ValueError):
            RefractoryFilter(240, 180, refractory_us=0)

    def test_state_snapshot_round_trip(self):
        # Same contract as the NN filter's snapshot: restoring the captured
        # memory must continue exactly where the original left off.
        refractory = RefractoryFilter(240, 180, refractory_us=10_000)
        refractory.process(make_packet([5, 9], [5, 9], [0, 100], [1, 1]))
        snapshot = refractory.state_snapshot()
        # The snapshot is a copy: mutating the filter doesn't change it.
        refractory.process(make_packet([5], [5], [20_000], [1]))
        restored = RefractoryFilter(240, 180, refractory_us=10_000)
        restored.restore_state(snapshot)
        # Pixel (5, 5) last fired at t=0 in the snapshot: t=5000 suppressed.
        assert not restored.process(make_packet([5], [5], [5000], [1]))[0]
        assert restored.process(make_packet([5], [5], [10_000], [1]))[0]

    def test_restore_state_rejects_wrong_shape(self):
        refractory = RefractoryFilter(240, 180)
        with pytest.raises(ValueError):
            refractory.restore_state(np.zeros((10, 10), dtype=np.int64))
