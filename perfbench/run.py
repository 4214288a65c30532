"""The repository benchmark: socket-to-score workloads for the EBBIOT reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload tcp_saturate --seed 1 --seconds 30 --trace 0

Workloads (``BENCHMARK.json`` records why each exists):

* ``tcp_saturate`` -- two sensor connections from one single-threaded
  client process to ``AsyncTrackingServer`` over a 2-shard process hub,
  JSONL ``events`` in 500 us batches, sent unpaced with at most four EBBI
  windows of sensor time in flight past the last frame received;
* ``batch_score`` -- offline replay of long tiled recordings through
  ``process_stream`` followed by both scorers.

End-to-end metrics, the same four for every workload:

* ``setup_s`` -- render, tile, split, pre-encode and hub start, set up
  several times per run (median);
* ``events_per_s`` -- events acknowledged over the socket per second
  (``tcp_saturate``); events tracked and scored per second, i.e.
  ``process_stream`` plus ``compute_mot_summary`` and
  ``evaluate_recording`` (``batch_score``);
* ``frame_latency_p50_ms``/``_p99_ms`` -- from the batch that let a window
  close leaving the client to its ``frame`` push arriving
  (``tcp_saturate``); each frame's service time in the replay, with its
  chunk's EBBI build shared out over the chunk's frames (``batch_score``).

The host these numbers come from is shared and its speed drifts, so every
timing is scaled by a host slowdown probed next to it: ``batch_score``
probes between recordings and reduces many short samples with a lower
quartile (``common.slowdown``, ``common.fast_end``); ``tcp_saturate``
probes from its client while the load runs and takes the median over
rounds on freshly started stacks (``common.codec_probe``).

Every run prints a human-readable report, then as its last line one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end metrics, measured with no
tracing; with ``--trace 1`` the workload then runs again with spans around
the calls into each layer and the metrics are the per-layer ones,
including the tracing overhead; the report adds the model-vs-measured
stage table and the prediction map of ``layers.py``.  Metric names and
units are those of ``BENCHMARK.json``.

``failed``/``attempted`` carry the failure accounting (error replies,
dropped connections, frame pushes shed by the front door, and outputs that
differ from batch replay or from the scoring oracle); the report prints it
as ``failed_fraction``.  Inputs depend only on ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("tcp_saturate", "batch_score")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _declared_metrics():
    """``{name: unit}`` of the end-to-end and the per-layer metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def _stop_children() -> None:
    """Stop and reap every process the run started, helpers included.

    Besides the workload's own processes, the shared-memory rings of the
    process hub start ``multiprocessing``'s resource tracker, which would
    otherwise outlive this process until it noticed the exit.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(timeout=10.0)
        if child.is_alive():
            child.terminate()
            child.join(timeout=10.0)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("error: no src/repro next to the benchmark; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        return _main(args)
    finally:
        _stop_children()


def _main(args) -> int:
    import importlib

    from layers import layer_map_lines

    end_to_end, per_layer = _declared_metrics()
    workload = importlib.import_module(args.workload)
    result = workload.run(args.seed, args.seconds, bool(args.trace))
    unknown = set(result["metrics"]) ^ set(end_to_end)
    unknown |= set(result.get("layers", {})) - set(per_layer)
    if unknown:
        print(f"error: metrics missing or not declared in BENCHMARK.json: "
              f"{sorted(unknown)}", file=sys.stderr)
        return 2

    for line in result["lines"]:
        print(line)
    samples = result.get("samples", {})
    print(f"  failed_fraction {result['failed'] / result['attempted']:.6f} "
          f"({result['failed']} of {result['attempted']} operations)")
    for name, unit in end_to_end.items():
        value = result["metrics"][name]
        note = ""
        if name.startswith("frame_latency") and "frame_latency" in samples:
            note = f"  ({samples['frame_latency']} samples)"
        print(f"  {name:<24}{value:>16.6g} {unit}{note}")
    if args.trace:
        # A workload measures the layers it runs; the others read 0.
        metrics = {name: (result["layers"].get(name, 0.0), unit)
                   for name, unit in per_layer.items()}
        print("  per-layer metrics (- = layer not run by this workload):")
        for name, (value, unit) in metrics.items():
            shown = f"{value:>16.6g}" if name in result["layers"] else f"{'-':>16}"
            print(f"  {name:<30}{shown} {unit}")
        for line in layer_map_lines(per_layer):
            print(line)
    else:
        metrics = {name: (result["metrics"][name], unit) for name, unit in end_to_end.items()}
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
