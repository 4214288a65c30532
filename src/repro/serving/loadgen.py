"""Fleet-scale load generator: ``python -m repro.serving.loadgen``.

Replays synthetic or recorded datasets against a tracking hub — thread or
process workers — from one submitting thread, paced at an ``--speed``
multiple of sensor time (0 = as fast as possible), and reports the numbers
a capacity plan needs:

* **aggregate throughput** — events/s and frames/s over the whole fleet;
* **latency percentiles** — p50/p95/p99 of the hubs' own
  enqueue-to-frame-completion histograms, pooled across every sensor;
* **drop accounting** — batches shed under the ``"drop"`` backpressure
  policy, cross-checked against hub telemetry (the generator's own
  accepted/refused tally must equal what the hub counted — the invariant
  the CI smoke job gates on);
* **per-sensor summaries** — each sensor's closing ``RecordingResult``
  (``summaries`` in the ``--json`` report);
* **SLO verdicts** — optional ``--slo-*`` thresholds turn the report into
  an exit code, so the load test doubles as a regression gate.

The generator drives the hub in process rather than through TCP, so it
measures the hub and its shard workers without the wire codec or the
front door.  (For a TCP soak, point the ``python -m repro.serving`` demo
at ``--serve``.)  One thread submits for
the whole fleet, as the asyncio front door's event loop does; the
``serving_scale`` bench suite times its cells with the same
:func:`run_load`, and :func:`load_recordings` also feeds the demo.

Examples
--------
32 synthetic sensors (8 distinct scenes), process hub, full speed::

    PYTHONPATH=src python -m repro.serving.loadgen --hub process \\
        --sensors 32 --scenes 8 --duration 2 --batch-us 2000

Recorded dataset at 4x sensor speed with SLOs::

    PYTHONPATH=src python -m repro.serving.loadgen --dataset dataset/ \\
        --sensors 16 --speed 4 --slo-p99-ms 250 --slo-min-fps 100
"""

from __future__ import annotations

import argparse
import json
import logging
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import EbbiotConfig
from repro.events.stream import EventStream
from repro.obs import add_log_level_argument, logging_setup
from repro.serving.hub import BACKPRESSURE_POLICIES, HubConfig, TrackingHub
from repro.serving.process_hub import ProcessTrackingHub
from repro.trackers.registry import available_backends, ensure_backend_name

logger = logging.getLogger("repro.serving.loadgen")

#: Hub worker vehicles selectable with ``--hub``.
HUB_KINDS = ("thread", "process")


def make_hub(kind: str, config: HubConfig):
    """Build a hub with the requested worker vehicle (shared with the CLI demo)."""
    if kind == "thread":
        return TrackingHub(config)
    if kind == "process":
        return ProcessTrackingHub(config)
    raise ValueError(f"hub must be one of {HUB_KINDS}, got {kind!r}")


def split_batches(
    events: np.ndarray, batch_us: int
) -> List[Tuple[int, np.ndarray]]:
    """Slice a recording into ``(t_start_us, batch)`` pairs of ``batch_us`` span.

    Mirrors how an event camera packetises its stream: fixed time spans,
    variable event counts.  Slices view the source array (no copies).
    """
    if len(events) == 0:
        return []
    ts = np.ascontiguousarray(events["t"])
    edges = np.arange(int(ts[0]), int(ts[-1]) + batch_us, batch_us, dtype=np.int64)
    bounds = list(np.searchsorted(ts, edges)) + [len(events)]
    out = []
    for start_us, a, b in zip(edges, bounds[:-1], bounds[1:]):
        if b > a:
            out.append((int(start_us), events[a:b]))
    return out


def load_recordings(
    dataset: Optional[str], count: int, duration_s: float = 2.0, seed: int = 0
) -> List[Tuple[str, EventStream]]:
    """Up to ``count`` distinct ``(name, stream)`` recordings for a fleet.

    The first ``count`` entries of the manifest-backed ``dataset``
    directory, or, when ``dataset`` is ``None``, ``count`` rendered
    synthetic scenes of ``duration_s`` seconds from base seed ``seed``.
    """
    if dataset is not None:
        from repro.datasets.recorded import DatasetManifest

        manifest = DatasetManifest.load(dataset)
        loaded = [manifest.load_entry(entry) for entry in manifest.recordings[:count]]
    else:
        from repro.runtime.scenes import build_scene_recordings

        loaded = build_scene_recordings(count, duration_s=duration_s, base_seed=seed)
    if not loaded:
        raise ValueError("the workload source produced no recordings")
    return [(recording.name, recording.stream) for recording in loaded]


def build_workload(
    recordings: List[Tuple[str, EventStream]], sensors: int, batch_us: int
) -> List[Tuple[str, List[Tuple[int, np.ndarray]]]]:
    """The fleet's ``(sensor_id, batches)`` list: ``recordings`` cycled across ``sensors``.

    Fleet size scales independently of how much unique footage exists.
    Each distinct recording is split once; its sensors share the read-only
    batch views (``submit`` copies on the way in).
    """
    split = [(name, split_batches(stream.events, batch_us)) for name, stream in recordings]
    workload = []
    for index in range(sensors):
        name, batches = split[index % len(split)]
        workload.append((f"{name}#{index:03d}", batches))
    return workload


def _pooled_latency_ms(metrics_state: dict) -> Dict[str, float]:
    """Fleet latency percentiles pooled over every sensor's histogram window."""
    samples: List[float] = []
    for family in metrics_state["families"]:
        if family["name"] != "repro_sensor_frame_latency_seconds":
            continue
        for child in family["children"]:
            samples.extend(child.get("window", ()))
    if not samples:
        return {"count": 0, "mean_ms": 0.0, "p50_ms": 0.0, "p95_ms": 0.0, "p99_ms": 0.0}
    arr = np.asarray(samples, dtype=np.float64) * 1e3
    return {
        "count": int(arr.size),
        "mean_ms": float(arr.mean()),
        "p50_ms": float(np.percentile(arr, 50)),
        "p95_ms": float(np.percentile(arr, 95)),
        "p99_ms": float(np.percentile(arr, 99)),
    }


def run_load(hub, workload, speed: float = 0.0, close_timeout: float = 120.0) -> dict:
    """Replay the workload into one started hub from the calling thread; returns the report.

    Every batch goes out in one stable order keyed by its offset from its
    own sensor's first batch, so per-sensor order holds and a recording's
    epoch offset neither stalls the feed nor reorders it.  With
    ``speed > 0`` a batch waits until its offset is due at ``speed``x
    sensor time.  The report's ``summaries`` maps each sensor to its
    closing :class:`~repro.runtime.aggregate.RecordingResult` as a dict.

    The hub must be started and empty; the caller owns its lifecycle.
    """
    for sensor_id, _ in workload:
        hub.register(sensor_id)
    feed = sorted(
        (
            (t_start_us - batches[0][0], sensor_id, batch)
            for sensor_id, batches in workload
            for t_start_us, batch in batches
        ),
        key=lambda item: item[0],
    )
    accepted = 0
    started = time.perf_counter()
    for offset_us, sensor_id, batch in feed:
        if speed > 0:
            delay = started + offset_us * 1e-6 / speed - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
        accepted += hub.submit(sensor_id, batch)
    summaries = {
        sensor_id: hub.close_sensor(sensor_id, timeout=close_timeout).to_dict()
        for sensor_id, _ in workload
    }
    wall_s = time.perf_counter() - started

    refused = len(feed) - accepted
    telemetry = hub.telemetry_dict()
    totals = telemetry["totals"]
    latency = _pooled_latency_ms(hub.merged_metrics().state_dict())
    events_in = totals["events_received"]
    frames_out = totals["frames_emitted"]
    drop_invariant = {
        "submitted": len(feed),
        "accepted": accepted,
        "refused": refused,
        "hub_batches_received": sum(
            s["batches_received"] for s in telemetry["sensors"].values()
        ),
        "hub_dropped_batches": totals["dropped_batches"],
    }
    drop_invariant["ok"] = (
        drop_invariant["hub_batches_received"] == accepted
        and drop_invariant["hub_dropped_batches"] == refused
    )
    return {
        "num_sensors": len(workload),
        "wall_s": wall_s,
        "aggregate": {
            "events_in": events_in,
            "batches_in": accepted,
            "frames_out": frames_out,
            "track_observations": totals["track_observations"],
            "late_events": totals["late_events"],
            "events_per_s": events_in / wall_s if wall_s > 0 else 0.0,
            "frames_per_s": frames_out / wall_s if wall_s > 0 else 0.0,
            "latency_ms": latency,
        },
        "drop_invariant": drop_invariant,
        "shards": [
            {
                "shard": stat.shard,
                "num_sensors": stat.num_sensors,
                "queue_depth": stat.queue_depth,
                "busy_fraction": stat.busy_fraction,
            }
            for stat in hub.shard_stats()
        ],
        "summaries": summaries,
    }


def check_slos(report: dict, args: argparse.Namespace) -> List[str]:
    """Evaluate the ``--slo-*`` thresholds; returns violation messages."""
    aggregate = report["aggregate"]
    violations = []
    if args.slo_p99_ms is not None:
        p99 = aggregate["latency_ms"]["p99_ms"]
        if p99 > args.slo_p99_ms:
            violations.append(
                f"p99 latency {p99:.1f} ms exceeds SLO {args.slo_p99_ms:.1f} ms"
            )
    if args.slo_min_fps is not None:
        fps = aggregate["frames_per_s"]
        if fps < args.slo_min_fps:
            violations.append(
                f"aggregate {fps:.1f} fps below SLO {args.slo_min_fps:.1f} fps"
            )
    if args.slo_max_drop_fraction is not None:
        drop = report["drop_invariant"]
        submitted = max(1, drop["submitted"])
        fraction = drop["refused"] / submitted
        if fraction > args.slo_max_drop_fraction:
            violations.append(
                f"drop fraction {fraction:.3f} exceeds SLO "
                f"{args.slo_max_drop_fraction:.3f}"
            )
    if not report["drop_invariant"]["ok"]:
        violations.append(
            f"drop-counter invariant violated: {report['drop_invariant']}"
        )
    return violations


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving.loadgen",
        description=(
            "Replay synthetic or recorded sensor fleets against a tracking "
            "hub and report throughput, latency percentiles and SLO verdicts."
        ),
    )
    parser.add_argument(
        "--hub", choices=HUB_KINDS, default="process",
        help="hub worker vehicle under load (default: process)",
    )
    parser.add_argument(
        "--sensors", type=int, default=16, help="fleet size"
    )
    parser.add_argument(
        "--scenes", type=int, default=None,
        help="distinct synthetic scenes to cycle across the fleet "
             "(default: min(sensors, 4))",
    )
    parser.add_argument(
        "--duration", type=float, default=2.0,
        help="length of each synthetic recording in seconds",
    )
    parser.add_argument("--seed", type=int, default=0, help="synthetic base seed")
    parser.add_argument(
        "--dataset", metavar="DIR", default=None,
        help="replay a recorded manifest-backed dataset instead of synthesis",
    )
    parser.add_argument(
        "--batch-us", type=int, default=2_000,
        help="stream-time span of each submitted batch in microseconds",
    )
    parser.add_argument(
        "--speed", type=float, default=0.0, metavar="FACTOR",
        help="pace replay at FACTOR x sensor time (0 = as fast as possible)",
    )
    parser.add_argument("--workers", type=int, default=4, help="hub worker shards")
    parser.add_argument(
        "--ring-kib", type=int, default=1024,
        help="event ring capacity per shard in KiB",
    )
    parser.add_argument(
        "--backpressure", choices=BACKPRESSURE_POLICIES, default="block",
        help="what to do when a shard ring fills",
    )
    parser.add_argument(
        "--tracker", default="overlap",
        help=f"tracker backend; one of {', '.join(available_backends())}",
    )
    parser.add_argument(
        "--slo-p99-ms", type=float, default=None, metavar="MS",
        help="fail (exit 1) if pooled p99 frame latency exceeds MS",
    )
    parser.add_argument(
        "--slo-min-fps", type=float, default=None, metavar="FPS",
        help="fail (exit 1) if aggregate frames/s falls below FPS",
    )
    parser.add_argument(
        "--slo-max-drop-fraction", type=float, default=None, metavar="FRAC",
        help="fail (exit 1) if more than FRAC of batches are shed",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the full report as JSON ('-' for stdout)",
    )
    add_log_level_argument(parser)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    logging_setup(args.log_level)
    if args.sensors <= 0 or args.duration <= 0 or args.batch_us <= 0:
        logger.error("error: --sensors, --duration and --batch-us must be positive")
        return 2
    if args.speed < 0:
        logger.error("error: --speed must be >= 0")
        return 2
    if args.scenes is not None and args.scenes <= 0:
        logger.error("error: --scenes must be positive")
        return 2
    try:
        ensure_backend_name(args.tracker)
        config = HubConfig(
            num_workers=args.workers,
            backpressure=args.backpressure,
            pipeline_config=EbbiotConfig(tracker=args.tracker),
            ring_capacity_bytes=args.ring_kib * 1024,
        )
        count = args.sensors if args.dataset else (args.scenes or min(args.sensors, 4))
        recordings = load_recordings(args.dataset, count, args.duration, args.seed)
        workload = build_workload(recordings, args.sensors, args.batch_us)
    except (FileNotFoundError, ValueError) as error:
        logger.error("error: %s", error)
        return 2

    total_batches = sum(len(b) for _, b in workload)
    total_events = sum(len(e) for _, bs in workload for _, e in bs)
    pace = f"{args.speed:g}x sensor time" if args.speed > 0 else "full speed"
    print(
        f"loadgen: {len(workload)} sensor(s), {total_events} events in "
        f"{total_batches} batches of {args.batch_us} us, {args.hub} hub "
        f"({args.workers} shards, {args.backpressure}), {pace}",
        flush=True,
    )
    with make_hub(args.hub, config) as hub:
        report = run_load(hub, workload, speed=args.speed)
    report["config"] = {
        "hub": args.hub,
        "workers": args.workers,
        "backpressure": args.backpressure,
        "batch_us": args.batch_us,
        "speed": args.speed,
        "source": args.dataset or f"synthetic(scenes={args.scenes}, "
        f"duration={args.duration}, seed={args.seed})",
    }
    violations = check_slos(report, args)
    report["slo"] = {"violations": violations, "ok": not violations}

    aggregate = report["aggregate"]
    latency = aggregate["latency_ms"]
    print(
        f"done in {report['wall_s']:.2f} s: "
        f"{aggregate['events_per_s']:,.0f} events/s, "
        f"{aggregate['frames_per_s']:.1f} frames/s aggregate"
    )
    print(
        f"frame latency: p50 {latency['p50_ms']:.2f} ms, "
        f"p95 {latency['p95_ms']:.2f} ms, p99 {latency['p99_ms']:.2f} ms "
        f"({latency['count']} samples)"
    )
    drop = report["drop_invariant"]
    print(
        f"drops: {drop['refused']} of {drop['submitted']} batches shed "
        f"(invariant {'ok' if drop['ok'] else 'VIOLATED'})"
    )
    if args.json is not None:
        payload = json.dumps(report, indent=2)
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
            print(f"wrote report to {args.json}")
    for violation in violations:
        logger.error("SLO violation: %s", violation)
    return 1 if violations else 0


if __name__ == "__main__":
    raise SystemExit(main())
