"""Tests for the histogram region-proposal network."""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import repro.core.histogram_rpn as histogram_rpn
from repro.core.histogram_rpn import (
    HistogramRegionProposer,
    compute_histograms,
    downsample_binary_frame,
    find_runs_above_threshold,
    stack_histograms,
    stack_runs,
)
from repro.utils import shares


def _frame_with_block(x, y, w, h, width=240, height=180):
    frame = np.zeros((height, width), dtype=np.uint8)
    frame[y : y + h, x : x + w] = 1
    return frame


class TestDownsampling:
    def test_block_sums(self):
        frame = np.zeros((6, 12), dtype=np.uint8)
        frame[0:3, 0:6] = 1
        down = downsample_binary_frame(frame, s1=6, s2=3)
        assert down.shape == (2, 2)
        assert down[0, 0] == 18
        assert down[0, 1] == 0
        assert down[1, 0] == 0

    def test_total_preserved_for_divisible_shapes(self):
        rng = np.random.default_rng(0)
        frame = (rng.random((180, 240)) < 0.2).astype(np.uint8)
        down = downsample_binary_frame(frame, 6, 3)
        assert down.sum() == frame.sum()
        assert down.shape == (60, 40)

    def test_partial_blocks_dropped(self):
        frame = np.ones((7, 13), dtype=np.uint8)
        down = downsample_binary_frame(frame, 6, 3)
        assert down.shape == (2, 2)
        assert down.sum() == 2 * 2 * 18

    def test_identity_downsampling(self):
        frame = np.eye(4, dtype=np.uint8)
        np.testing.assert_array_equal(downsample_binary_frame(frame, 1, 1), frame)

    def test_invalid_factors(self):
        with pytest.raises(ValueError):
            downsample_binary_frame(np.zeros((10, 10)), 0, 1)
        with pytest.raises(ValueError):
            downsample_binary_frame(np.zeros((10, 10)), 20, 20)
        with pytest.raises(ValueError):
            downsample_binary_frame(np.zeros(10), 2, 2)

    @settings(max_examples=25, deadline=None)
    @given(
        hnp.arrays(
            dtype=np.uint8,
            shape=st.tuples(
                st.integers(6, 36).filter(lambda v: v % 3 == 0),
                st.integers(6, 48).filter(lambda v: v % 6 == 0),
            ),
            elements=st.integers(0, 1),
        )
    )
    def test_property_sum_preserved(self, frame):
        down = downsample_binary_frame(frame, 6, 3)
        assert down.sum() == frame.sum()


class TestHistogramsAndRuns:
    def test_histograms_are_projections(self):
        down = np.array([[1, 0, 2], [0, 3, 0]])
        hist_x, hist_y = compute_histograms(down)
        np.testing.assert_array_equal(hist_x, [1, 3, 2])
        np.testing.assert_array_equal(hist_y, [3, 3])

    def test_find_runs_simple(self):
        histogram = np.array([0, 0, 2, 3, 1, 0, 5, 0])
        assert find_runs_above_threshold(histogram, 1) == [(2, 5), (6, 7)]

    def test_find_runs_threshold(self):
        histogram = np.array([1, 1, 3, 3, 1])
        assert find_runs_above_threshold(histogram, 2) == [(2, 4)]

    def test_find_runs_all_below(self):
        assert find_runs_above_threshold(np.zeros(5), 1) == []

    def test_find_runs_all_above(self):
        assert find_runs_above_threshold(np.ones(4), 1) == [(0, 4)]

    def test_find_runs_requires_1d(self):
        with pytest.raises(ValueError):
            find_runs_above_threshold(np.zeros((2, 2)), 1)

    @given(
        hnp.arrays(dtype=np.int32, shape=st.integers(1, 60), elements=st.integers(0, 5)),
        st.integers(1, 4),
    )
    def test_property_runs_cover_exactly_above_threshold_bins(self, histogram, threshold):
        runs = find_runs_above_threshold(histogram, threshold)
        covered = np.zeros(len(histogram), dtype=bool)
        for start, end in runs:
            assert start < end
            covered[start:end] = True
        np.testing.assert_array_equal(covered, histogram >= threshold)
        # Maximal runs, in order: a gap of at least one bin between neighbours.
        assert all(end < start for (_, end), (start, _) in zip(runs, runs[1:]))


class TestHistogramRegionProposer:
    def test_single_object_single_proposal(self):
        proposer = HistogramRegionProposer()
        frame = _frame_with_block(60, 60, 40, 20)
        proposals = proposer.propose(frame)
        assert len(proposals) == 1
        box = proposals[0].box
        assert box.x <= 60 and box.x2 >= 100
        assert box.y <= 60 and box.y2 >= 80
        assert proposals[0].event_count == 40 * 20

    def test_boxes_quantised_to_downsample_grid(self):
        proposer = HistogramRegionProposer(downsample_x=6, downsample_y=3)
        proposals = proposer.propose(_frame_with_block(61, 61, 30, 15))
        box = proposals[0].box
        assert box.x % 6 == 0
        assert box.y % 3 == 0

    def test_two_separated_objects(self):
        frame = _frame_with_block(20, 30, 30, 20) + _frame_with_block(150, 120, 40, 25)
        proposals = HistogramRegionProposer().propose(frame)
        assert len(proposals) == 2

    def test_false_cross_regions_suppressed(self):
        """Two objects sharing no X or Y range create 4 candidate crossings;
        the two empty ones must be rejected by the image check."""
        frame = _frame_with_block(20, 30, 30, 20) + _frame_with_block(150, 120, 40, 25)
        proposals = HistogramRegionProposer(min_event_count=3).propose(frame)
        for proposal in proposals:
            assert proposal.event_count >= 3
        assert len(proposals) == 2

    def test_fragmented_object_merged_by_coarse_bins(self):
        """Two nearby fragments of one vehicle merge into one proposal."""
        frame = _frame_with_block(60, 60, 10, 20) + _frame_with_block(74, 60, 10, 20)
        proposals = HistogramRegionProposer(downsample_x=6, downsample_y=3).propose(frame)
        assert len(proposals) == 1
        assert proposals[0].box.width >= 24

    def test_empty_frame_no_proposals(self):
        assert HistogramRegionProposer().propose(np.zeros((180, 240), dtype=np.uint8)) == []

    def test_sparse_noise_no_proposals(self):
        frame = np.zeros((180, 240), dtype=np.uint8)
        frame[10, 10] = 1
        frame[100, 200] = 1
        proposals = HistogramRegionProposer(min_event_count=3).propose(frame)
        assert proposals == []

    def test_proposals_sorted_by_event_count(self):
        frame = _frame_with_block(20, 30, 20, 10) + _frame_with_block(150, 120, 50, 40)
        proposals = HistogramRegionProposer().propose(frame)
        counts = [p.event_count for p in proposals]
        assert counts == sorted(counts, reverse=True)

    def test_min_region_side_filters_thin_regions(self):
        frame = _frame_with_block(60, 60, 40, 20)
        proposer = HistogramRegionProposer(min_region_side_px=1000)
        assert proposer.propose(frame) == []

    def test_debug_histograms_shapes(self):
        proposer = HistogramRegionProposer(downsample_x=6, downsample_y=3)
        down, hist_x, hist_y = proposer.debug_histograms(
            np.zeros((180, 240), dtype=np.uint8)
        )
        assert down.shape == (60, 40)
        assert hist_x.shape == (40,)
        assert hist_y.shape == (60,)

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            HistogramRegionProposer(downsample_x=0)
        with pytest.raises(ValueError):
            HistogramRegionProposer(threshold=0)
        with pytest.raises(ValueError):
            HistogramRegionProposer(min_event_count=0)

    def test_density_computed(self):
        proposals = HistogramRegionProposer().propose(_frame_with_block(60, 60, 30, 15))
        assert 0 < proposals[0].density <= 1.0

    def test_proposal_to_dict(self):
        proposal = HistogramRegionProposer().propose(_frame_with_block(60, 60, 30, 15))[0]
        data = proposal.to_dict()
        assert set(data) == {"x", "y", "width", "height", "event_count", "density"}


class TestFrameHistograms:
    @given(
        frame=hnp.arrays(
            dtype=np.uint8,
            shape=st.tuples(
                st.integers(min_value=6, max_value=60),
                st.integers(min_value=6, max_value=60),
            ),
            elements=st.integers(min_value=0, max_value=1),
        ),
        s1=st.integers(min_value=1, max_value=6),
        s2=st.integers(min_value=1, max_value=6),
    )
    # Columns of 258 and rows of 342 active pixels: past what uint8 holds.
    @example(frame=np.ones((260, 346), dtype=np.uint8), s1=6, s2=3)
    def test_matches_downsample_then_sum(self, frame, s1, s2):
        from repro.core.histogram_rpn import frame_histograms

        hx, hy = frame_histograms(frame, s1, s2)
        expected_hx, expected_hy = compute_histograms(
            downsample_binary_frame(frame, s1, s2)
        )
        np.testing.assert_array_equal(hx, expected_hx)
        np.testing.assert_array_equal(hy, expected_hy)
        assert hx.dtype == expected_hx.dtype and hy.dtype == expected_hy.dtype

    def test_rejects_bad_factors(self):
        from repro.core.histogram_rpn import frame_histograms

        with pytest.raises(ValueError):
            frame_histograms(np.zeros((10, 10), dtype=np.uint8), 0, 1)
        with pytest.raises(ValueError):
            frame_histograms(np.zeros((4, 4), dtype=np.uint8), 8, 8)
        with pytest.raises(ValueError):
            frame_histograms(np.zeros(10, dtype=np.uint8), 1, 1)


def _scan_runs(values, threshold):
    """Pure-Python reference: maximal runs of ``values`` at or above ``threshold``."""
    runs, start = [], None
    for index, value in enumerate(values):
        if value >= threshold and start is None:
            start = index
        elif value < threshold and start is not None:
            runs.append((start, index))
            start = None
    if start is not None:
        runs.append((start, len(values)))
    return runs


def _reference_propose(proposer: HistogramRegionProposer, frame: np.ndarray):
    """The seed's per-candidate loop, kept as the behavioural reference."""
    from repro.utils.geometry import BoundingBox
    from repro.core.histogram_rpn import RegionProposal

    downsampled = downsample_binary_frame(
        frame, proposer.downsample_x, proposer.downsample_y
    )
    histogram_x, histogram_y = compute_histograms(downsampled)
    x_runs = _scan_runs(histogram_x.tolist(), proposer.threshold)
    y_runs = _scan_runs(histogram_y.tolist(), proposer.threshold)
    if not x_runs or not y_runs:
        return []
    proposals = []
    height, width = frame.shape
    for x_start_bin, x_end_bin in x_runs:
        for y_start_bin, y_end_bin in y_runs:
            x1 = x_start_bin * proposer.downsample_x
            x2 = min(x_end_bin * proposer.downsample_x, width)
            y1 = y_start_bin * proposer.downsample_y
            y2 = min(y_end_bin * proposer.downsample_y, height)
            bw, bh = x2 - x1, y2 - y1
            if bw < proposer.min_region_side_px or bh < proposer.min_region_side_px:
                continue
            event_count = int(np.count_nonzero(frame[y1:y2, x1:x2]))
            if event_count < proposer.min_event_count:
                continue
            box = BoundingBox(float(x1), float(y1), float(bw), float(bh))
            proposals.append(
                RegionProposal(
                    box=box,
                    event_count=event_count,
                    density=event_count / box.area if box.area > 0 else 0.0,
                )
            )
    proposals.sort(key=lambda p: p.event_count, reverse=True)
    return proposals


def _checkerboard_frame():
    """Active 6x3 blocks on every other bin of both axes of a 240x180
    frame: 20 X runs x 30 Y runs, the most candidates the frame can give."""
    blocks = np.zeros((60, 40), dtype=np.uint8)
    blocks[::2, ::2] = 1
    return np.kron(blocks, np.ones((3, 6), dtype=np.uint8))


def _crowded_frame(seed, height, width):
    """Sixteen small random boxes over sparse speckle: many X and Y runs."""
    rng = np.random.default_rng(seed)
    frame = (rng.random((height, width)) < 0.0003).astype(np.uint8)
    for _ in range(16):
        x, y = rng.integers(0, width - 12), rng.integers(0, height - 8)
        frame[y : y + rng.integers(2, 12), x : x + rng.integers(2, 16)] = 1
    return frame


def _large_frame_with_full_columns():
    """A 346x260 frame with columns of 260 events, past what uint8 holds,
    and columns of 256 in the 258-row crop, which uint8 would count as 0."""
    frame = _crowded_frame(7, 260, 346)
    frame[:, ::24] = 1
    frame[:256, 12::24] = 1
    return frame


CROWDED_FRAMES = {
    "checkerboard_240x180": (_checkerboard_frame, 600),
    "crowded_240x180": (lambda: _crowded_frame(1, 180, 240), 9),
    "crowded_346x260": (lambda: _crowded_frame(2, 260, 346), 9),
    "crowded_odd_sides_239x181": (lambda: _crowded_frame(3, 181, 239), 9),
    "full_columns_346x260": (_large_frame_with_full_columns, 9),
}


class TestVectorizedProposeEquivalence:
    @settings(deadline=None, max_examples=40)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        density=st.floats(min_value=0.0, max_value=0.15),
        shape=st.sampled_from([(90, 120), (180, 240), (260, 346), (97, 131)]),
    )
    def test_matches_reference_loop_on_random_frames(self, seed, density, shape):
        rng = np.random.default_rng(seed)
        frame = (rng.random(shape) < density).astype(np.uint8)
        proposer = HistogramRegionProposer(downsample_x=6, downsample_y=3)
        got = proposer.propose(frame)
        expected = _reference_propose(proposer, frame)
        assert got == expected

    def test_matches_reference_on_multi_object_frame(self):
        frame = np.zeros((180, 240), dtype=np.uint8)
        frame[30:60, 20:70] = 1    # car
        frame[100:120, 150:170] = 1  # bike
        frame[40:55, 160:200] = 1   # second car sharing y band with the first
        proposer = HistogramRegionProposer()
        assert proposer.propose(frame) == _reference_propose(proposer, frame)

    @pytest.mark.parametrize("min_side", [2.0, 3.0])
    @pytest.mark.parametrize("name", sorted(CROWDED_FRAMES))
    def test_matches_reference_on_crowded_and_large_frames(self, name, min_side):
        """Frames past 8 candidates; ``min_side`` 3.0 sits on the side of a
        one-bin Y run, which the size filter keeps."""
        make_frame, min_candidates = CROWDED_FRAMES[name]
        frame = make_frame()
        proposer = HistogramRegionProposer(min_region_side_px=min_side)
        hist_x, hist_y = compute_histograms(downsample_binary_frame(frame, 6, 3))
        candidates = len(find_runs_above_threshold(hist_x, 1)) * len(
            find_runs_above_threshold(hist_y, 1)
        )
        assert candidates >= min_candidates
        assert proposer.propose(frame) == _reference_propose(proposer, frame)


@st.composite
def binary_stacks(draw):
    """``(frames, s1, s2)``: 1-20 binary frames, some empty and some full,
    whose sides are not multiples of ``s1`` and ``s2`` (past 1)."""
    s1, s2 = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    height = s2 * draw(st.integers(1, 8)) + draw(st.integers(min(1, s2 - 1), s2 - 1))
    width = s1 * draw(st.integers(1, 8)) + draw(st.integers(min(1, s1 - 1), s1 - 1))
    num_frames = draw(st.integers(1, 20))
    frames = draw(
        hnp.arrays(np.uint8, (num_frames, height, width), elements=st.integers(0, 1))
    )
    for frame, kind in zip(frames, draw(st.lists(
        st.sampled_from(["drawn", "empty", "full"]), min_size=num_frames, max_size=num_frames
    ))):
        if kind != "drawn":
            frame[...] = kind == "full"
    return frames, s1, s2


class TestStackHistogramsAndRuns:
    """The stack calls against the paper's order and a pure-Python scan."""

    @settings(max_examples=150, deadline=None)
    @given(binary_stacks(), st.integers(1, 4), st.sampled_from([np.uint8, np.bool_]))
    # Counts past uint8 (258 rows, 342 columns) on a stack, whose sums take einsum.
    @example(
        (np.stack([np.ones((260, 346), np.uint8), np.zeros((260, 346), np.uint8)]), 6, 3),
        1,
        np.uint8,
    )
    def test_match_downsample_then_sum_then_scan(self, stack, threshold, dtype):
        frames, s1, s2 = stack
        frames = frames.astype(dtype)
        bins = stack_histograms(frames, s1, s2)
        out_width, out_height = frames.shape[2] // s1, frames.shape[1] // s2
        assert bins.shape == (len(frames), out_width + 1 + out_height)
        assert bins.dtype == np.int64
        runs = stack_runs(bins, threshold)
        assert len(runs) == len(frames)
        for frame, row, frame_runs in zip(frames, bins, runs):
            expected_x, expected_y = compute_histograms(downsample_binary_frame(frame, s1, s2))
            np.testing.assert_array_equal(row[:out_width], expected_x)
            assert row[out_width] == 0
            np.testing.assert_array_equal(row[out_width + 1 :], expected_y)
            y_first = out_width + 1
            assert frame_runs == _scan_runs(expected_x.tolist(), threshold) + [
                (start + y_first, end + y_first)
                for start, end in _scan_runs(expected_y.tolist(), threshold)
            ]

    @settings(max_examples=100, deadline=None)
    @given(binary_stacks(), st.integers(1, 4), st.sampled_from([1.0, 2.0, 7.5]))
    def test_stack_spans_propose_like_one_frame_at_a_time(self, stack, threshold, min_side):
        frames, s1, s2 = stack
        proposer = HistogramRegionProposer(s1, s2, threshold, min_region_side_px=min_side)
        spans = proposer.candidate_spans(frames)
        assert len(spans) == len(frames)
        for frame, frame_spans in zip(frames, spans):
            assert frame_spans == proposer.candidate_spans(frame[np.newaxis])[0]
            expected = _reference_propose(proposer, frame)
            assert proposer.propose(frame, frame_spans) == expected
            assert proposer.propose(frame) == expected

    @settings(max_examples=100, deadline=None)
    @given(
        hnp.arrays(np.int64, st.tuples(st.integers(0, 5), st.integers(1, 30)), elements=st.integers(0, 5)),
        st.integers(1, 4),
    )
    def test_runs_of_every_row(self, bins, threshold):
        runs = stack_runs(bins, threshold)
        assert runs == [_scan_runs(row.tolist(), threshold) for row in bins]
        for row, row_runs in zip(bins, runs):
            assert find_runs_above_threshold(row, threshold) == row_runs

    @pytest.mark.parametrize("cpus", [2, 3, 64])
    def test_shares_find_the_one_share_spans(self, cpus, monkeypatch):
        """Two, three and more shares than blocks give every frame's one-frame spans."""
        rng = np.random.default_rng(cpus)
        density = rng.random((43, 1, 1)) * 0.01
        frames = (rng.random((43, 180, 240)) < density).astype(np.uint8)
        frames[3] = 0
        frames[4, 20:90, 30:200] = 1
        proposer = HistogramRegionProposer()
        expected = [proposer.candidate_spans(frame[np.newaxis])[0] for frame in frames]
        threads = set()
        histograms = histogram_rpn.stack_histograms

        def recorded(*args, **kwargs):
            threads.add(threading.current_thread().name)
            return histograms(*args, **kwargs)

        monkeypatch.setattr(histogram_rpn, "stack_histograms", recorded)
        monkeypatch.setattr(shares, "usable_cpus", lambda: cpus)
        # No frame, one block, one full block, an uneven last block.
        for num_frames in (0, 1, 8, 9, 43):
            assert proposer.candidate_spans(frames[:num_frames]) == expected[:num_frames]
        # 43 frames of 240x180 are 6 blocks: one share per CPU, at most one per block.
        assert len(threads) == min(cpus, 6)

    def test_rejects_bad_stacks(self):
        with pytest.raises(ValueError, match="3-D"):
            stack_histograms(np.zeros((4, 4), dtype=np.uint8), 1, 1)
        with pytest.raises(ValueError, match="too large"):
            stack_histograms(np.zeros((2, 4, 4), dtype=np.uint8), 8, 1)
