"""Traffic surveillance at two sites: the paper's main use case.

Builds both Table-I-like recordings (busy ENG with a foliage distractor and
a region of exclusion, quiet LT4), runs EBBIOT and the two baselines on
each, and prints the weighted Fig. 4-style comparison plus a per-site
breakdown — the workload the paper's introduction motivates (low-power
IoVT surveillance nodes watching a junction).

Run with::

    python examples/traffic_surveillance.py [duration_seconds]
"""

from __future__ import annotations

import sys

from repro.core import EbbiBuilder, EbbiotConfig, EbbiotPipeline, HistogramRegionProposer
from repro.core.roe import RegionOfExclusion
from repro.datasets import ENG_LIKE_SPEC, LT4_LIKE_SPEC, build_recording
from repro.evaluation import evaluate_recording, sweep_iou_thresholds
from repro.evaluation.report import format_precision_recall_table
from repro.events.filters import NearestNeighbourFilter
from repro.trackers import EbmsTracker, KalmanFilterTracker

IOU_THRESHOLDS = (0.1, 0.3, 0.5)


def run_ebbiot(recording, config):
    """EBBIOT: EBBI + histogram RPN (+ ROE) + overlap tracker."""
    pipeline = EbbiotPipeline(EbbiotConfig(roe_boxes=recording.roe_boxes()))
    return pipeline.process_stream(recording.stream).track_history.observations


def run_ebbi_kf(recording, config):
    """Baseline 1: same EBBI + RPN front end, Kalman-filter tracker."""
    builder = EbbiBuilder(config.width, config.height, config.median_patch_size)
    proposer = HistogramRegionProposer(config.downsample_x, config.downsample_y)
    roe = RegionOfExclusion(boxes=recording.roe_boxes())
    tracker = KalmanFilterTracker()
    observations = []
    for t_start, t_end, events in recording.stream.iter_frames(config.frame_duration_us):
        ebbi = builder.build(events, t_start, t_end)
        proposals = roe.filter_proposals(proposer.propose(ebbi.filtered))
        observations.extend(tracker.process_frame(proposals, ebbi.t_mid_us))
    return observations


def run_nnfilt_ebms(recording, config):
    """Baseline 2: fully event-driven NN-filter + mean-shift clusters."""
    nn_filter = NearestNeighbourFilter(config.width, config.height)
    tracker = EbmsTracker()
    observations = []
    for t_start, t_end, events in recording.stream.iter_frames(config.frame_duration_us):
        filtered = nn_filter.filter(events)
        observations.extend(tracker.process_frame(filtered, (t_start + t_end) // 2))
    return observations


def main() -> None:
    duration_s = float(sys.argv[1]) if len(sys.argv) > 1 else 15.0
    print(f"Simulating both recording sites ({duration_s:.0f} s each) ...")
    recordings = [
        build_recording(ENG_LIKE_SPEC, duration_override_s=duration_s),
        build_recording(LT4_LIKE_SPEC, duration_override_s=duration_s),
    ]
    for recording in recordings:
        print(
            f"  {recording.name}: {recording.stream.num_events} events, "
            f"{recording.annotations.num_tracks()} ground-truth tracks, "
            f"{len(recording.roe_boxes())} ROE box(es)"
        )

    config = EbbiotConfig()
    trackers = {
        "EBBIOT": run_ebbiot,
        "EBBI+KF": run_ebbi_kf,
        "NNfilt+EBMS": run_nnfilt_ebms,
    }

    combined = {}
    for name, runner in trackers.items():
        print(f"\nRunning {name} ...")
        evaluations = []
        for recording in recordings:
            observations = runner(recording, config)
            evaluation = evaluate_recording(
                observations,
                recording.annotations.frames,
                iou_thresholds=IOU_THRESHOLDS,
                name=recording.name,
            )
            evaluations.append(evaluation)
            at_03 = evaluation.by_threshold[0.3]
            print(
                f"  {recording.name}: precision@0.3 = {at_03.precision:.3f}, "
                f"recall@0.3 = {at_03.recall:.3f} "
                f"({len(observations)} track boxes)"
            )
        combined[name] = sweep_iou_thresholds(evaluations)

    print("\nWeighted across recordings (weights = ground-truth track counts):")
    print(format_precision_recall_table(combined))


if __name__ == "__main__":
    main()
