"""Command-line entry point: ``python -m repro.serving``.

Two modes:

* **demo** (default) — start an in-process tracking server, render N
  synthetic sensors, stream them concurrently over real TCP connections,
  and print the per-sensor table plus fleet statistics (the live mirror of
  ``python -m repro.runtime``).
* **--serve** — run a standalone server until interrupted; remote sensor
  clients connect with :class:`repro.serving.client.SensorClient`.

Both modes serve connections on one asyncio event loop
(:class:`~repro.serving.aioserver.AsyncTrackingServer`, one coroutine per
sensor); ``--hub`` selects what runs each shard's worker — a thread (no
fork, shares the GIL) or a forked process (true parallelism).

Examples
--------
Live demo, eight synthetic sensors of two seconds each::

    PYTHONPATH=src python -m repro.serving --sensors 8 --duration 2

Standalone process-hub server on a fixed port::

    PYTHONPATH=src python -m repro.serving --serve --port 7700 --hub process

Replay a recorded manifest-backed dataset from disk as the demo's sensors,
paced at twice sensor speed::

    PYTHONPATH=src python -m repro.serving --dataset dataset/ --speed 2

Profile a demo fleet: per-stage cost into the telemetry metrics and a
Perfetto-loadable Chrome trace::

    PYTHONPATH=src python -m repro.serving --sensors 2 --trace trace.json \\
        --metrics metrics.prom
"""

from __future__ import annotations

import argparse
import json
import logging
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional

from repro.core.config import EbbiotConfig
from repro.obs import add_log_level_argument, logging_setup
from repro.runtime.scenes import build_scene_recordings
from repro.serving.aioserver import AsyncTrackingServer
from repro.serving.client import stream_recording
from repro.serving.hub import BACKPRESSURE_POLICIES, HubConfig
from repro.serving.loadgen import HUB_KINDS, make_hub
from repro.trackers.registry import available_backends, parse_backend_list

logger = logging.getLogger("repro.serving")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (separate so tests can introspect it)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving",
        description=(
            "Serve the EBBIOT pipeline to live sensors over TCP "
            "(JSONL line protocol), or run a synthetic multi-sensor demo."
        ),
    )
    parser.add_argument(
        "--serve",
        action="store_true",
        help="run a standalone server until interrupted (no demo sensors)",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=0, help="bind port (0 picks an ephemeral port)"
    )
    parser.add_argument(
        "--sensors", type=int, default=8, help="demo: number of synthetic sensors"
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=2.0,
        help="demo: length of each synthetic recording in seconds",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="demo: base seed for the synthetic scenes"
    )
    parser.add_argument(
        "--batch-us",
        type=int,
        default=16_500,
        help="demo: stream-time span of each client batch in microseconds",
    )
    parser.add_argument(
        "--realtime",
        action="store_true",
        help="demo: throttle clients to sensor real time",
    )
    parser.add_argument(
        "--speed",
        type=float,
        default=None,
        metavar="FACTOR",
        help=(
            "demo: paced replay speed factor (1.0 = sensor real time, "
            "2.0 = twice as fast; overrides --realtime)"
        ),
    )
    parser.add_argument(
        "--dataset",
        metavar="DIR",
        default=None,
        help=(
            "demo: replay recordings from a recorded manifest-backed dataset "
            "instead of rendering synthetic scenes (--sensors caps how many; "
            "--duration/--seed are ignored)"
        ),
    )
    parser.add_argument(
        "--hub",
        choices=HUB_KINDS,
        default="thread",
        help="run shard workers on threads or forked processes",
    )
    parser.add_argument(
        "--workers", type=int, default=4, help="hub worker shards"
    )
    parser.add_argument(
        "--transport",
        choices=("shm", "pipe", "auto"),
        default="auto",
        help="shard event transport (shared-memory ring or pipes)",
    )
    parser.add_argument(
        "--ring-kib",
        type=int,
        default=1024,
        help="event ring capacity per shard in KiB",
    )
    parser.add_argument(
        "--backpressure",
        choices=BACKPRESSURE_POLICIES,
        default="block",
        help="what to do when a shard ring fills",
    )
    parser.add_argument(
        "--slack-us",
        type=int,
        default=5_000,
        help="out-of-order arrival tolerance in microseconds",
    )
    parser.add_argument(
        "--tracker",
        default="overlap",
        metavar="NAME[,NAME...]",
        help=(
            "tracker backend(s); one of "
            f"{', '.join(available_backends())}.  The first name is the "
            "server default; in demo mode a comma-separated list is cycled "
            "across the synthetic sensors via the hello handshake"
        ),
    )
    parser.add_argument(
        "--json",
        "--output",
        dest="json",
        metavar="PATH",
        default=None,
        help="demo: also write fleet results as JSON ('-' for stdout)",
    )
    parser.add_argument(
        "--telemetry-json",
        metavar="PATH",
        default=None,
        help="demo: write the telemetry registry snapshot as JSON",
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help=(
            "demo: write the hub's Prometheus text exposition after the run "
            "('-' for stdout); implies --instrument"
        ),
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help=(
            "demo: write a Chrome trace-event JSON of per-stage pipeline "
            "spans (load in Perfetto / chrome://tracing); implies --instrument"
        ),
    )
    parser.add_argument(
        "--instrument",
        action="store_true",
        help="record per-stage timing into the hub's metrics and trace",
    )
    parser.add_argument(
        "--trace-sample",
        type=int,
        default=1,
        metavar="N",
        help="record trace spans for every Nth frame window (default: every)",
    )
    add_log_level_argument(parser)
    return parser


def _trackers(args: argparse.Namespace) -> List[str]:
    """The validated backend list from ``--tracker`` (first = server default)."""
    return parse_backend_list(args.tracker)


def _instrumented(args: argparse.Namespace) -> bool:
    return args.instrument or args.metrics is not None or args.trace is not None


def _hub_config(args: argparse.Namespace) -> HubConfig:
    return HubConfig(
        num_workers=args.workers,
        backpressure=args.backpressure,
        reorder_slack_us=args.slack_us,
        pipeline_config=EbbiotConfig(tracker=_trackers(args)[0]),
        instrument=_instrumented(args),
        trace_sample_every=args.trace_sample,
        transport=args.transport,
        ring_capacity_bytes=args.ring_kib * 1024,
    )


def _make_server(args: argparse.Namespace) -> AsyncTrackingServer:
    """The (not yet started) server fronting a ``--hub`` vehicle."""
    hub = make_hub(args.hub, _hub_config(args))
    return AsyncTrackingServer(args.host, args.port, hub=hub)


def _demo_recordings(args: argparse.Namespace) -> List[tuple]:
    """The demo's ``(name, stream)`` pairs: rendered, or replayed from disk."""
    if args.dataset is not None:
        from repro.datasets.recorded import DatasetManifest

        manifest = DatasetManifest.load(args.dataset)
        loaded = [
            manifest.load_entry(entry)
            for entry in manifest.recordings[: args.sensors]
        ]
        print(
            f"loaded {len(loaded)} of {len(manifest)} recording(s) from "
            f"{args.dataset}"
        )
        return [(recording.name, recording.stream) for recording in loaded]
    print(
        f"rendering {args.sensors} synthetic sensor(s) of {args.duration:.1f} s each ...",
        flush=True,
    )
    rendered = build_scene_recordings(
        args.sensors, duration_s=args.duration, base_seed=args.seed
    )
    return [(recording.name, recording.stream) for recording in rendered]


def run_demo(args: argparse.Namespace) -> int:
    """In-process server + N concurrent sensor clients (rendered or replayed)."""
    try:
        recordings = _demo_recordings(args)
    except (FileNotFoundError, ValueError) as error:
        logger.error("error: %s", error)
        return 2
    trackers = _trackers(args)
    with _make_server(args) as server:
        host, port = server.address
        print(
            f"tracking server listening on {host}:{port} "
            f"({args.hub} hub, tracker(s): {', '.join(trackers)})"
        )
        with ThreadPoolExecutor(max_workers=max(1, len(recordings))) as pool:
            futures = [
                pool.submit(
                    stream_recording,
                    host,
                    port,
                    name,
                    stream,
                    batch_duration_us=args.batch_us,
                    realtime=args.realtime,
                    speed=args.speed,
                    tracker=trackers[index % len(trackers)],
                )
                for index, (name, stream) in enumerate(recordings)
            ]
            outcomes = [future.result() for future in futures]
        telemetry = server.hub.telemetry_dict()
        batch = server.hub.batch_result()
        exposition = server.hub.metrics_text() if args.metrics is not None else None
        trace = server.hub.chrome_trace() if args.trace is not None else None

    total_frames = sum(len(frames) for frames, _ in outcomes)
    print()
    print(batch.format_table())
    totals = telemetry["totals"]
    print(
        f"telemetry: {totals['events_received']} events in, "
        f"{totals['frames_emitted']} frames out, "
        f"{totals['track_observations']} track observations, "
        f"{totals['late_events']} late, {totals['dropped_batches']} batches dropped"
    )

    if args.json is not None:
        payload = json.dumps(batch.to_dict(), indent=2)
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
            print(f"wrote JSON result to {args.json}")
    if args.telemetry_json is not None:
        with open(args.telemetry_json, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(telemetry, indent=2) + "\n")
        print(f"wrote telemetry to {args.telemetry_json}")
    if exposition is not None:
        if args.metrics == "-":
            print(exposition, end="")
        else:
            with open(args.metrics, "w", encoding="utf-8") as handle:
                handle.write(exposition)
            print(f"wrote Prometheus exposition to {args.metrics}")
    if trace is not None:
        num_spans = sum(1 for e in trace["traceEvents"] if e.get("ph") == "X")
        with open(args.trace, "w", encoding="utf-8") as handle:
            json.dump(trace, handle)
            handle.write("\n")
        print(f"wrote Chrome trace ({num_spans} spans) to {args.trace}")

    if total_frames == 0:
        logger.error("no frames were received from the server")
        return 1
    return 0


def run_server(args: argparse.Namespace) -> int:
    """Standalone server mode (blocks until KeyboardInterrupt)."""
    with _make_server(args) as server:
        host, port = server.address
        print(
            f"tracking server listening on {host}:{port} "
            f"({args.hub} hub; Ctrl-C to stop)",
            flush=True,
        )
        server.serve_forever()
    print("server stopped")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Parse arguments and run the selected mode.  Returns the exit code."""
    args = build_parser().parse_args(argv)
    logging_setup(args.log_level)
    if args.sensors <= 0:
        logger.error("error: --sensors must be positive")
        return 2
    if args.duration <= 0:
        logger.error("error: --duration must be positive")
        return 2
    if args.batch_us <= 0:
        logger.error("error: --batch-us must be positive")
        return 2
    if args.speed is not None and args.speed <= 0:
        logger.error("error: --speed must be positive")
        return 2
    if args.ring_kib <= 0:
        logger.error("error: --ring-kib must be positive")
        return 2
    try:
        _hub_config(args)
    except ValueError as error:
        logger.error("error: %s", error)
        return 2
    if args.serve:
        return run_server(args)
    return run_demo(args)


if __name__ == "__main__":
    raise SystemExit(main())
