"""The per-layer prediction map, stage metrics and the paper's cost model.

``PREDICTIONS`` is the map later performance work states its prediction
against: for every per-layer metric of the traced run (names and units
live in ``BENCHMARK.json``), the one end-to-end metric, on one workload,
that a change to that layer should move, and the workloads on which the
prediction is no change.
"""

from __future__ import annotations

from typing import Dict, List

from repro.resources.ebbi_model import EbbiResourceModel
from repro.resources.params import ResourceParams
from repro.resources.rpn_model import RpnResourceModel
from repro.resources.tracker_models import OverlapTrackerResourceModel

STAGES = ("ebbi", "median", "rpn", "roe", "tracker")

#: The serving front door bounds ``tcp_saturate`` (its process runs a full
#: core while the shard workers idle), so wire, front-door and hub changes
#: move its throughput.  ``batch_score`` runs no serving code.
_SERVING = ("tcp_saturate.events_per_s", "batch_score")

#: ``batch_score`` runs the core stages and both scorers and counts both in
#: its throughput; the stages are a small share of ``tcp_saturate``'s work.
_CORE = ("batch_score.events_per_s", "tcp_saturate")

#: per-layer metric name -> (end-to-end metric it should move, no change on)
PREDICTIONS: Dict[str, tuple] = {
    **{
        name: _SERVING
        for name in (
            "client.send_s", "client.recv_s", "protocol.decode_s", "protocol.encode_s",
            "protocol.bytes_per_event", "aioserver.cpu_fraction",
            "aioserver.submit_refusals", "aioserver.backoff_s", "framer.append_s",
            "hub.submit_s", "hub.on_frames_s", "hub.frame_latency_p50_ms",
            "shard.busy_fraction_max", "shard.queue_depth_max", "shard.sensor_skew",
        )
    },
    **{f"pipeline.{stage}_s": _CORE for stage in STAGES},
    **{f"pipeline.{stage}_share": _CORE for stage in STAGES},
    "rpn.proposals_per_frame": _CORE,
    "roe.kept_fraction": _CORE,
    "evaluation.mot_s": _CORE,
    "evaluation.pr_s": _CORE,
    "evaluation.gt_instants": _CORE,
    "trace.overhead_fraction": ("none (tracing cost)", "tcp_saturate, batch_score"),
}


def stage_metrics(stage_seconds: Dict[str, float]) -> Dict[str, float]:
    """``pipeline.<stage>_s`` and ``_share`` from measured stage seconds."""
    total = sum(stage_seconds.get(stage, 0.0) for stage in STAGES)
    out = {}
    for stage in STAGES:
        seconds = stage_seconds.get(stage, 0.0)
        out[f"pipeline.{stage}_s"] = seconds
        out[f"pipeline.{stage}_share"] = seconds / total if total else 0.0
    return out


def model_vs_measured(
    stage_seconds: Dict[str, float],
    active_pixel_fraction: float,
    active_trackers: float,
) -> List[str]:
    """Table of the paper's per-stage cost shares beside the measured ones.

    The model charges ``C_EBBI`` (Eq. 2: accumulation plus the median
    filter), ``C_RPN`` (Eq. 5) and ``C_OT`` (Eq. 6) operations per frame,
    evaluated with the workload's measured ``alpha`` and ``NT``.  Measured
    ``ebbi``+``median`` is set against ``C_EBBI``, ``rpn``+``roe`` against
    ``C_RPN`` and ``tracker`` against ``C_OT``.
    """
    params = ResourceParams().with_measured(
        active_pixel_fraction=min(1.0, max(0.0, active_pixel_fraction)),
        num_trackers=max(0.0, active_trackers),
    )
    model = {
        "EBBI (ebbi+median)": EbbiResourceModel(params).computes_per_frame(),
        "RPN (rpn+roe)": RpnResourceModel(params).computes_per_frame(),
        "OT (tracker)": OverlapTrackerResourceModel(params).computes_per_frame(),
    }
    measured = {
        "EBBI (ebbi+median)": stage_seconds.get("ebbi", 0.0) + stage_seconds.get("median", 0.0),
        "RPN (rpn+roe)": stage_seconds.get("rpn", 0.0) + stage_seconds.get("roe", 0.0),
        "OT (tracker)": stage_seconds.get("tracker", 0.0),
    }
    model_total = sum(model.values())
    measured_total = sum(measured.values())
    lines = [
        f"  model vs measured stage cost (alpha={params.active_pixel_fraction:.4f}, "
        f"NT={params.num_trackers:.2f})",
        f"  {'stage':<20}{'model ops/frame':>16}{'model share':>13}{'measured share':>16}",
    ]
    for name, ops in model.items():
        share = measured[name] / measured_total if measured_total else 0.0
        lines.append(
            f"  {name:<20}{ops:>16.0f}{ops / model_total:>13.3f}{share:>16.3f}"
        )
    return lines


def layer_map_lines(names) -> List[str]:
    """The per-layer metric -> end-to-end prediction map, for the traced report."""
    lines = [f"  {'per-layer metric':<28}{'should move':<32}no change on"]
    for name in names:
        moves, same = PREDICTIONS.get(name, ("(no prediction)", ""))
        lines.append(f"  {name:<28}{moves:<32}{same}")
    return lines
