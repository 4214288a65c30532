"""Event-density histogram region proposal (Section II-B).

The filtered EBBI is block-downsampled by factors ``(s1, s2)`` (Eq. (3)),
its column and row sums form the X and Y histograms (Eq. (4)), and runs of
contiguous above-threshold bins in each histogram define candidate X and Y
intervals.  The Cartesian product of the X and Y intervals gives candidate
2-D regions; each candidate is validated against the binary frame so that
spurious combinations (when several objects are present in both axes) are
discarded — the "check in the original image" the paper describes.

Histograms and runs are found for a whole stack of frames at once
(:func:`stack_histograms`, :func:`stack_runs`,
:meth:`HistogramRegionProposer.candidate_spans`): the chunked pipeline
makes one such call per chunk, whose histograms are taken in one
contiguous share of the stack per usable CPU, and a single frame is a
one-frame stack.  Only the validation is done frame by frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.ebbi import frames_per_block
from repro.utils.geometry import BoundingBox
from repro.utils.shares import run_shares

#: A ``[start, end)`` pixel interval along one axis of a frame.
Span = Tuple[int, int]


@dataclass(frozen=True)
class RegionProposal:
    """One proposed object region.

    Attributes
    ----------
    box:
        Proposed bounding box in full-resolution pixel coordinates.
    event_count:
        Number of active pixels of the (filtered) EBBI inside the box.
    density:
        Active pixels divided by box area.
    """

    box: BoundingBox
    event_count: int
    density: float

    def to_dict(self) -> dict:
        """JSON-serialisable representation."""
        return {
            "x": self.box.x,
            "y": self.box.y,
            "width": self.box.width,
            "height": self.box.height,
            "event_count": self.event_count,
            "density": self.density,
        }


def downsample_binary_frame(frame: np.ndarray, s1: int, s2: int) -> np.ndarray:
    """Block-sum downsampling of a binary frame (Eq. (3)).

    The output pixel ``(i, j)`` is the number of active pixels in the
    ``s1 x s2`` block of the input anchored at ``(i * s1, j * s2)``.  Only
    complete blocks are kept (``i < floor(A / s1)``, ``j < floor(B / s2)``),
    matching the floor in Eq. (3).

    Parameters
    ----------
    frame:
        ``(height, width)`` binary array (indexed ``[y, x]``).
    s1:
        Downsampling factor along x (width).
    s2:
        Downsampling factor along y (height).

    Returns
    -------
    numpy.ndarray
        ``(height // s2, width // s1)`` int64 array of block sums.
    """
    if frame.ndim != 2:
        raise ValueError(f"frame must be 2-D, got shape {frame.shape}")
    if s1 < 1 or s2 < 1:
        raise ValueError(f"downsampling factors must be >= 1, got s1={s1} s2={s2}")
    height, width = frame.shape
    out_width = width // s1
    out_height = height // s2
    if out_width == 0 or out_height == 0:
        raise ValueError(
            f"downsampling factors ({s1}, {s2}) too large for frame {width}x{height}"
        )
    cropped = frame[: out_height * s2, : out_width * s1].astype(np.int32)
    return cropped.reshape(out_height, s2, out_width, s1).sum(axis=(1, 3))


def stack_histograms(frames: np.ndarray, s1: int, s2: int) -> np.ndarray:
    """X and Y histograms of every frame of a binary stack, side by side in one array.

    Row ``i`` holds frame ``i``'s X histogram in bins ``[0, bx)`` and its Y
    histogram in bins ``[bx + 1, bx + 1 + by)`` (``bx = width // s1``,
    ``by = height // s2``), with a zero bin between them, so that no run
    of bins at or above a threshold of 1 or more joins the two (see
    :func:`stack_runs`).  Each equals ``compute_histograms(
    downsample_binary_frame(frames[i], s1, s2))``, but the downsampled
    image is never built: the cropped stack's column sums and row sums are
    one reduction each over the whole stack, folded into bins of ``s1``
    columns (``s2`` rows) by one more each.  This is the hot path of
    :meth:`HistogramRegionProposer.candidate_spans`.

    The sums are taken in the smallest unsigned dtype that holds the
    crop's height and width (uint8 up to 255 pixels) and the bins in
    int64.  The result is exact for binary frames, whose column sums are
    at most their height and row sums at most their width; a frame with
    values above 1 may wrap.

    Returns
    -------
    numpy.ndarray
        ``(n, bx + 1 + by)`` int64 array.
    """
    if frames.ndim != 3:
        raise ValueError(f"frames must be 3-D (n, height, width), got shape {frames.shape}")
    if s1 < 1 or s2 < 1:
        raise ValueError(f"downsampling factors must be >= 1, got s1={s1} s2={s2}")
    num_frames, height, width = frames.shape
    out_width = width // s1
    out_height = height // s2
    if out_width == 0 or out_height == 0:
        raise ValueError(
            f"downsampling factors ({s1}, {s2}) too large for frame {width}x{height}"
        )
    cropped = frames[:, : out_height * s2, : out_width * s1]
    count_dtype = np.min_scalar_type(max(cropped.shape[1:]))
    if num_frames == 1:
        # Cheaper to call than einsum, which a longer stack repays (it
        # reduces 256 frames in half the time).
        column_sums = np.add.reduce(cropped, axis=1, dtype=count_dtype)
        row_sums = np.add.reduce(cropped, axis=2, dtype=count_dtype)
    else:
        # A uint8 stack already holds its counts: einsum then neither casts
        # nor buffers.
        cast = {} if cropped.dtype == count_dtype else {"dtype": count_dtype, "casting": "unsafe"}
        column_sums = np.einsum("fyx->fx", cropped, **cast)
        row_sums = np.einsum("fyx->fy", cropped, **cast)
    bins = np.zeros((num_frames, out_width + 1 + out_height), dtype=np.int64)
    np.add.reduce(column_sums.reshape(num_frames, out_width, s1), axis=2, out=bins[:, :out_width])
    np.add.reduce(
        row_sums.reshape(num_frames, out_height, s2), axis=2, out=bins[:, out_width + 1 :]
    )
    return bins


def frame_histograms(
    frame: np.ndarray, s1: int, s2: int
) -> Tuple[np.ndarray, np.ndarray]:
    """X and Y histograms of one frame: the one-frame call of :func:`stack_histograms`."""
    if frame.ndim != 2:
        raise ValueError(f"frame must be 2-D, got shape {frame.shape}")
    bins = stack_histograms(frame[np.newaxis], s1, s2)[0]
    out_width = frame.shape[1] // s1
    return bins[:out_width], bins[out_width + 1 :]


def compute_histograms(downsampled: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """X and Y histograms of the downsampled image (Eq. (4)).

    Returns
    -------
    (histogram_x, histogram_y)
        ``histogram_x[i]`` sums column ``i`` over all rows; ``histogram_y[j]``
        sums row ``j`` over all columns.
    """
    histogram_x = downsampled.sum(axis=0)
    histogram_y = downsampled.sum(axis=1)
    return histogram_x, histogram_y


def stack_runs(bins: np.ndarray, threshold: int) -> List[List[Tuple[int, int]]]:
    """Maximal runs of bins with value >= threshold, in every row of an ``(n, bins)`` stack.

    One boolean mask holds every row, one false column before and after
    it, and a single difference of the mask and its shift marks every
    run's first bin and the bin after its last.  ``np.nonzero`` lists
    those marks in row-major order, so starts and ends alternate.

    Returns
    -------
    list of list of (start, end)
        ``runs[i]``: the runs of row ``i``, as half-open bin intervals
        ``[start, end)`` in increasing order.
    """
    num_rows, num_bins = bins.shape
    above = np.zeros((num_rows, num_bins + 2), dtype=bool)
    np.greater_equal(bins, threshold, out=above[:, 1:-1])
    rows, marks = (above[:, 1:] != above[:, :-1]).nonzero()
    runs: List[List[Tuple[int, int]]] = [[] for _ in range(num_rows)]
    pairs = iter(marks.tolist())
    for row, start, end in zip(rows[0::2].tolist(), pairs, pairs):
        runs[row].append((start, end))
    return runs


def find_runs_above_threshold(
    histogram: np.ndarray, threshold: int
) -> List[Tuple[int, int]]:
    """Find maximal runs of contiguous bins with value >= threshold.

    The one-histogram call of :func:`stack_runs`.

    Returns
    -------
    list of (start, end)
        Half-open bin index intervals ``[start, end)``.
    """
    if histogram.ndim != 1:
        raise ValueError("histogram must be 1-D")
    return stack_runs(histogram[np.newaxis], threshold)[0]


class HistogramRegionProposer:
    """Histogram-based region proposal network.

    Parameters
    ----------
    downsample_x, downsample_y:
        Block-downsampling factors ``s1`` and ``s2``.
    threshold:
        Minimum downsampled histogram value for a bin to belong to a region
        (the paper uses 1 — "acceptable since we need a coarse location").
    min_region_side_px:
        Candidate regions narrower than this in either direction (in
        full-resolution pixels) are discarded.
    min_event_count:
        Minimum number of active pixels inside the candidate box for it to
        be emitted; this is the validity check in the original image that
        suppresses false X/Y combinations.
    """

    def __init__(
        self,
        downsample_x: int = 6,
        downsample_y: int = 3,
        threshold: int = 1,
        min_region_side_px: float = 2.0,
        min_event_count: int = 3,
    ) -> None:
        if downsample_x < 1 or downsample_y < 1:
            raise ValueError("downsampling factors must be >= 1")
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if min_event_count < 1:
            raise ValueError(f"min_event_count must be >= 1, got {min_event_count}")
        self.downsample_x = downsample_x
        self.downsample_y = downsample_y
        self.threshold = threshold
        self.min_region_side_px = min_region_side_px
        self.min_event_count = min_event_count

    def candidate_spans(self, frames: np.ndarray) -> List[Tuple[List[Span], List[Span]]]:
        """Every frame's X and Y candidate spans, for a stack of frames at once.

        The histograms of the whole stack come from :func:`stack_histograms`,
        run on contiguous shares of the stack's EBBI blocks, one per usable
        CPU (:func:`~repro.utils.shares.run_shares`), and all their
        above-threshold runs from one :func:`stack_runs`; each run becomes
        a ``[start, end)`` pixel span, kept when it is at least
        ``min_region_side_px`` long.  Only complete blocks are binned, so a
        span never passes the frame edge.

        Parameters
        ----------
        frames:
            ``(n, height, width)`` stack of binary EBBIs, already noise
            filtered.

        Returns
        -------
        list of (x_spans, y_spans)
            One pair per frame, each a list of ``(start, end)`` pixel spans
            in increasing order: what :meth:`propose` takes as ``spans``.
        """
        s1, s2 = self.downsample_x, self.downsample_y
        share_bins = run_shares(
            lambda share, start, stop: stack_histograms(frames[start:stop], s1, s2),
            len(frames),
            frames_per_block(math.prod(frames.shape[1:])),
        )
        bins = share_bins[0] if len(share_bins) == 1 else np.concatenate(share_bins)
        y_first = frames.shape[2] // s1 + 1
        min_side = self.min_region_side_px
        spans: List[Tuple[List[Span], List[Span]]] = []
        for runs in stack_runs(bins, self.threshold):
            x_spans: List[Span] = []
            y_spans: List[Span] = []
            for start, end in runs:
                if start < y_first:
                    start, end, axis_spans = start * s1, end * s1, x_spans
                else:
                    start, end, axis_spans = (start - y_first) * s2, (end - y_first) * s2, y_spans
                if end - start >= min_side:
                    axis_spans.append((start, end))
            spans.append((x_spans, y_spans))
        return spans

    def propose(
        self, frame: np.ndarray, spans: Optional[Tuple[List[Span], List[Span]]] = None
    ) -> List[RegionProposal]:
        """Propose regions for one (filtered) binary frame.

        Parameters
        ----------
        frame:
            ``(height, width)`` binary EBBI, already noise filtered.
        spans:
            The frame's ``(x_spans, y_spans)`` from :meth:`candidate_spans`,
            when a caller found them for a whole stack of frames at once;
            by default they are found here, on a one-frame stack.

        Returns
        -------
        list of RegionProposal
            Proposals in full-resolution coordinates, ordered by descending
            event count.
        """
        x_spans, y_spans = (
            self.candidate_spans(frame[np.newaxis])[0] if spans is None else spans
        )

        # Validity check in the original image: combinations of X and Y runs
        # that do not actually contain events are spurious.  Candidates are
        # visited in x-major order, which the stable sort below keeps for
        # equal counts.
        proposals: List[RegionProposal] = []
        for x1, x2 in x_spans:
            for y1, y2 in y_spans:
                event_count = int(np.count_nonzero(frame[y1:y2, x1:x2]))
                if event_count < self.min_event_count:
                    continue
                box = BoundingBox(float(x1), float(y1), float(x2 - x1), float(y2 - y1))
                proposals.append(
                    RegionProposal(
                        box=box,
                        event_count=event_count,
                        density=event_count / box.area if box.area > 0 else 0.0,
                    )
                )
        proposals.sort(key=lambda proposal: proposal.event_count, reverse=True)
        return proposals

    def debug_histograms(
        self, frame: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(downsampled, histogram_x, histogram_y)`` for inspection.

        Used by the Fig. 3 reproduction benchmark and the examples.
        """
        downsampled = downsample_binary_frame(frame, self.downsample_x, self.downsample_y)
        histogram_x, histogram_y = compute_histograms(downsampled)
        return downsampled, histogram_x, histogram_y
