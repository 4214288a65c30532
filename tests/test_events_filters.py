"""Tests for the event-level noise filter (NN-filt)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.events.filters import NearestNeighbourFilter
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

