"""EBBIOT core: the paper's primary contribution.

The pipeline has three stages (Fig. 1):

1. :mod:`repro.core.ebbi` — accumulate the events of each ``tF`` window into
   an event-based binary image (EBBI) and denoise it with a binary median
   filter (:mod:`repro.core.median_filter`).
2. :mod:`repro.core.histogram_rpn` — propose object regions from downsampled
   X and Y event-density histograms (with :mod:`repro.core.cca_rpn` as the
   connected-components generalisation the paper leaves to future work).
3. :mod:`repro.core.overlap_tracker` — the overlap-based multi-object
   tracker (OT) with prediction-based occlusion handling.

:class:`repro.core.pipeline.EbbiotPipeline` ties the stages together behind
one ``process_stream`` call.
"""

from repro.core.cca_rpn import ConnectedComponentRPN
from repro.core.config import EbbiotConfig
from repro.core.ebbi import (
    EbbiBuilder,
    events_to_binary_frame,
    events_to_binary_frame_batch,
)
from repro.core.histogram_rpn import (
    HistogramRegionProposer,
    RegionProposal,
    compute_histograms,
    downsample_binary_frame,
    find_runs_above_threshold,
    frame_histograms,
)
from repro.core.median_filter import binary_median_filter, binary_median_filter_stack
from repro.core.overlap_tracker import OverlapTracker, OverlapTrackerConfig
from repro.core.pipeline import (
    EbbiotPipeline,
    FrameResult,
    PipelineResult,
    PipelineState,
)
from repro.core.roe import RegionOfExclusion

__all__ = [
    "EbbiotConfig",
    "EbbiBuilder",
    "events_to_binary_frame",
    "events_to_binary_frame_batch",
    "binary_median_filter",
    "binary_median_filter_stack",
    "HistogramRegionProposer",
    "ConnectedComponentRPN",
    "RegionProposal",
    "compute_histograms",
    "downsample_binary_frame",
    "find_runs_above_threshold",
    "frame_histograms",
    "OverlapTracker",
    "OverlapTrackerConfig",
    "RegionOfExclusion",
    "EbbiotPipeline",
    "FrameResult",
    "PipelineResult",
    "PipelineState",
]
