"""Command-line entry point: ``python -m repro.runtime``.

Renders a synthetic fleet of traffic scenes, runs the full EBBI →
histogram-RPN → overlap-tracker pipeline over all of them concurrently and
prints the merged fleet statistics (optionally as JSON for scripting).

Examples
--------
Run four scenes on the default thread executor::

    PYTHONPATH=src python -m repro.runtime --scenes 4

Longer recordings, explicit worker count, JSON to a file::

    PYTHONPATH=src python -m repro.runtime --scenes 8 --duration 10 \\
        --workers 4 --json fleet.json

Run the same fleet on a baseline tracker, or A/B two backends across the
fleet's sites (comma-separated names are cycled per scene)::

    PYTHONPATH=src python -m repro.runtime --scenes 4 --tracker kalman
    PYTHONPATH=src python -m repro.runtime --scenes 8 --tracker overlap,ebms

Replay a recorded, manifest-backed dataset from disk instead of rendering
(export one with ``python -m repro.datasets export``)::

    PYTHONPATH=src python -m repro.runtime --dataset dataset/

Profile where the budget goes — write a Chrome trace (open it in
``chrome://tracing`` or https://ui.perfetto.dev) and a Prometheus metrics
snapshot, and print the per-stage cost table::

    PYTHONPATH=src python -m repro.runtime --scenes 2 --trace trace.json \\
        --metrics metrics.prom
"""

from __future__ import annotations

import argparse
import json
import logging
from typing import List, Optional

from repro.obs import add_log_level_argument, logging_setup
from repro.runtime.runner import EXECUTORS, RunnerConfig, StreamRunner
from repro.runtime.scenes import build_scene_jobs, jobs_from_manifest
from repro.trackers.registry import available_backends, parse_backend_list

logger = logging.getLogger("repro.runtime")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (separate so tests can introspect it)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime",
        description=(
            "Run the EBBIOT pipeline over N synthetic traffic scenes "
            "concurrently and report fleet statistics."
        ),
    )
    parser.add_argument(
        "--scenes", type=int, default=4, help="number of scenes in the fleet (default 4)"
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=6.0,
        help="length of each recording in seconds (default 6)",
    )
    parser.add_argument(
        "--executor",
        choices=EXECUTORS,
        default="thread",
        help="how to run the recordings (default thread)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker count for the concurrent executors (default: CPU count)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="base seed for the fleet's traffic draws"
    )
    parser.add_argument(
        "--dataset",
        metavar="DIR",
        default=None,
        help=(
            "replay a recorded manifest-backed dataset from this directory "
            "instead of rendering synthetic scenes (--scenes/--duration/"
            "--seed are ignored)"
        ),
    )
    parser.add_argument(
        "--tracker",
        default="overlap",
        metavar="NAME[,NAME...]",
        help=(
            "tracker backend(s) for the fleet; one of "
            f"{', '.join(available_backends())}, or a comma-separated list "
            "cycled across the scenes (default overlap)"
        ),
    )
    parser.add_argument(
        "--json",
        "--output",
        dest="json",
        metavar="PATH",
        default=None,
        help="also write the full result as JSON ('-' for stdout)",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help=(
            "write a Chrome trace-event JSON (one span per pipeline stage "
            "per frame window, one pid per recording; open in "
            "chrome://tracing or Perfetto); implies --instrument"
        ),
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help=(
            "write a Prometheus text-exposition metrics snapshot of the "
            "run ('-' for stdout)"
        ),
    )
    parser.add_argument(
        "--trace-sample",
        type=int,
        default=1,
        metavar="N",
        help="trace every Nth frame window (default 1 = all windows)",
    )
    parser.add_argument(
        "--instrument",
        action="store_true",
        help=(
            "collect the per-stage wall-clock breakdown (printed as a table "
            "and added to the JSON result) without writing a trace"
        ),
    )
    add_log_level_argument(parser)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Render the fleet, run it, print the report.  Returns the exit code."""
    args = build_parser().parse_args(argv)
    logging_setup(args.log_level)
    if args.dataset is None and args.scenes <= 0:
        logger.error("error: --scenes must be positive")
        return 2
    if args.dataset is None and args.duration <= 0:
        logger.error("error: --duration must be positive")
        return 2
    try:
        trackers = parse_backend_list(args.tracker)
        runner_config = RunnerConfig(
            executor=args.executor,
            max_workers=args.workers,
            instrument=args.instrument or args.metrics is not None,
            trace=args.trace is not None,
            trace_sample_every=args.trace_sample,
        )
    except ValueError as error:
        logger.error("error: %s", error)
        return 2

    if args.dataset is not None:
        try:
            jobs = jobs_from_manifest(args.dataset, trackers=trackers)
        except (FileNotFoundError, ValueError) as error:
            logger.error("error: %s", error)
            return 2
        total_events = sum(len(job.stream) for job in jobs)
        print(
            f"loaded {len(jobs)} recording(s) ({total_events} events) from "
            f"{args.dataset}; processing on '{args.executor}' executor "
            f"with tracker(s) {', '.join(trackers)} ..."
        )
    else:
        print(
            f"rendering {args.scenes} synthetic traffic scene(s) "
            f"of {args.duration:.1f} s each ...",
            flush=True,
        )
        jobs = build_scene_jobs(
            args.scenes,
            duration_s=args.duration,
            base_seed=args.seed,
            trackers=trackers,
        )
        total_events = sum(len(job.stream) for job in jobs)
        print(
            f"rendered {total_events} events; processing on '{args.executor}' executor "
            f"with tracker(s) {', '.join(trackers)} ..."
        )

    batch = StreamRunner(runner_config).run(jobs)

    print()
    print(batch.format_table())
    if runner_config.instrument or runner_config.trace:
        print()
        print(batch.format_stage_table())

    if args.trace is not None:
        trace = batch.chrome_trace()
        with open(args.trace, "w", encoding="utf-8") as handle:
            json.dump(trace, handle)
            handle.write("\n")
        num_spans = sum(1 for e in trace["traceEvents"] if e.get("ph") == "X")
        print(f"wrote Chrome trace ({num_spans} spans) to {args.trace}")

    if args.metrics is not None:
        exposition = batch.metrics_registry().to_prometheus_text()
        if args.metrics == "-":
            print(exposition, end="")
        else:
            with open(args.metrics, "w", encoding="utf-8") as handle:
                handle.write(exposition)
            print(f"wrote metrics exposition to {args.metrics}")

    if args.json is not None:
        payload = json.dumps(batch.to_dict(), indent=2)
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
            print(f"wrote JSON result to {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
