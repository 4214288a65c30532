"""Event-density histogram region proposal (Section II-B).

The filtered EBBI is block-downsampled by factors ``(s1, s2)`` (Eq. (3)),
its column and row sums form the X and Y histograms (Eq. (4)), and runs of
contiguous above-threshold bins in each histogram define candidate X and Y
intervals.  The Cartesian product of the X and Y intervals gives candidate
2-D regions; each candidate is validated against the binary frame so that
spurious combinations (when several objects are present in both axes) are
discarded — the "check in the original image" the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.utils.geometry import BoundingBox


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


def frame_histograms(
    frame: np.ndarray, s1: int, s2: int
) -> Tuple[np.ndarray, np.ndarray]:
    """X and Y histograms computed directly from the full-resolution frame.

    Equivalent to ``compute_histograms(downsample_binary_frame(frame, s1,
    s2))`` but skips materialising the 2-D downsampled image: each histogram
    is one axis sum of the cropped frame folded into bins of ``s1`` (or
    ``s2``) columns (rows).  This is the hot path of
    :meth:`HistogramRegionProposer.propose`.

    The axis sums are taken in the smallest unsigned dtype that holds the
    crop's height and width (uint8 up to 255 pixels) and widened to int64
    for the fold.  The result is exact for a binary frame, whose column
    sums are at most its height and row sums at most its width; a frame
    with values above 1 may wrap.
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
    cropped = frame[: out_height * s2, : out_width * s1]
    count_dtype = np.min_scalar_type(max(cropped.shape))
    column_sums = cropped.sum(axis=0, dtype=count_dtype)
    row_sums = cropped.sum(axis=1, dtype=count_dtype)
    histogram_x = column_sums.reshape(out_width, s1).sum(axis=1, dtype=np.int64)
    histogram_y = row_sums.reshape(out_height, s2).sum(axis=1, dtype=np.int64)
    return histogram_x, histogram_y


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


def find_runs_above_threshold(
    histogram: np.ndarray, threshold: int
) -> List[Tuple[int, int]]:
    """Find maximal runs of contiguous bins with value >= threshold.

    Returns
    -------
    list of (start, end)
        Half-open bin index intervals ``[start, end)``.
    """
    if histogram.ndim != 1:
        raise ValueError("histogram must be 1-D")
    # One pass over the bins as Python numbers: at 240x180 with (s1, s2) =
    # (6, 3) the histograms have 40 and 60 bins, too few for array calls
    # to pay their overhead.
    runs: List[Tuple[int, int]] = []
    start = -1
    for index, value in enumerate(histogram.tolist()):
        if value >= threshold:
            if start < 0:
                start = index
        elif start >= 0:
            runs.append((start, index))
            start = -1
    if start >= 0:
        runs.append((start, len(histogram)))
    return runs


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

    def propose(self, frame: np.ndarray) -> List[RegionProposal]:
        """Propose regions for one (filtered) binary frame.

        Parameters
        ----------
        frame:
            ``(height, width)`` binary EBBI, already noise filtered.

        Returns
        -------
        list of RegionProposal
            Proposals in full-resolution coordinates, ordered by descending
            event count.
        """
        histogram_x, histogram_y = frame_histograms(
            frame, self.downsample_x, self.downsample_y
        )
        x_spans = self._pixel_spans(histogram_x, self.downsample_x)
        y_spans = self._pixel_spans(histogram_y, self.downsample_y)

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

    def _pixel_spans(self, histogram: np.ndarray, factor: int) -> List[Tuple[int, int]]:
        """Above-threshold runs of ``histogram`` as ``[start, end)`` pixel
        spans at least ``min_region_side_px`` long.  Only complete blocks are
        binned, so a span never passes the frame edge."""
        spans: List[Tuple[int, int]] = []
        for start_bin, end_bin in find_runs_above_threshold(histogram, self.threshold):
            start, end = start_bin * factor, end_bin * factor
            if end - start >= self.min_region_side_px:
                spans.append((start, end))
        return spans

    def debug_histograms(
        self, frame: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(downsampled, histogram_x, histogram_y)`` for inspection.

        Used by the Fig. 3 reproduction benchmark and the examples.
        """
        downsampled = downsample_binary_frame(frame, self.downsample_x, self.downsample_y)
        histogram_x, histogram_y = compute_histograms(downsampled)
        return downsampled, histogram_x, histogram_y
