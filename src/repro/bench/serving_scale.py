"""Serving-scale benchmark: thread vs process shard workers across fleet sizes.

``python -m repro.bench --suite serving_scale`` drives the hub on both
worker vehicles with the *same* deterministic synthetic fleet and reports,
per sensor count, aggregate throughput, per-sensor scaling efficiency and
pooled tail latency.  The committed ``BENCH_serving_scale.json`` artifact is the
regression gate for the process-per-shard re-architecture: its headline
``speedup_vs_thread`` metric (process-hub aggregate fps over thread-hub
aggregate fps at the 16-sensor cell) is a same-machine ratio, so the
harness compares it raw across machines.

Measurement methodology — the parts that tame single-box variance:

* **one submitting thread**: each cell is one
  :func:`repro.serving.loadgen.run_load`, which feeds every sensor's
  batches from the bench thread in one merged order — the traffic shape
  of the asyncio front door, whose single event-loop thread submits for
  every connection.  A feeder thread per sensor would add GIL/scheduler
  churn that swamps the hub-architecture signal at small batch sizes;
* **fine batches** (default 500 us of stream time, ~tens of events) keep
  the workload in the regime the re-architecture targets — per-batch
  overhead dominating per-event compute — which is where thread workers'
  GIL serialization hurts;
* **warm-up + median-of-N**: each vehicle gets one discarded warm-up
  run on a truncated workload (allocator, fork, and import effects), then
  every cell runs ``trials`` times and the median-throughput trial is
  reported.

Live-vs-batch parity is asserted on every timed cell: every sensor's
closing ``RecordingResult`` must match a batch ``process_stream`` of its
source recording on event count, frame count and track observations.
A mismatch raises — a fast wrong hub must never look like a speedup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.core.pipeline import EbbiotPipeline
from repro.serving.hub import HubConfig
from repro.serving.loadgen import (
    HUB_KINDS,
    build_workload,
    load_recordings,
    make_hub,
    run_load,
)

#: Close-side drain allowance per cell; generous because the 64-sensor
#: thread cell legitimately queues seconds of work behind the GIL.
CLOSE_TIMEOUT_S = 180.0


@dataclass(frozen=True)
class ServingScaleProfile:
    """Workload sizes for one serving-scale run.

    ``full`` is the committed-baseline configuration; ``quick`` trims the
    fleet for CI smoke.  ``ring_kib`` is sized so no shard ring stalls the
    feeder on the largest cell — the cells measure the workers' processing,
    not buffer tuning.
    """

    name: str = "full"
    sensor_counts: Tuple[int, ...] = (1, 4, 16, 64)
    scenes: int = 4
    duration_s: float = 2.0
    batch_us: int = 500
    workers: int = 4
    trials: int = 3
    warmup_batches: int = 4_000
    ring_kib: int = 8_192
    seed: int = 0

    #: The cell the headline thread-vs-process ratio is taken at (falls
    #: back to the largest cell when absent from ``sensor_counts``).
    speedup_cell: int = 16


FULL_SERVING_PROFILE = ServingScaleProfile()
QUICK_SERVING_PROFILE = ServingScaleProfile(
    name="quick",
    sensor_counts=(1, 4, 16),
    scenes=3,
    duration_s=1.0,
    trials=2,
    warmup_batches=2_000,
)


def _hub_config(profile: ServingScaleProfile) -> HubConfig:
    """The hub configuration of every cell, on either vehicle.

    The hub blocks on backpressure so no batch is ever shed — parity and
    fairness require every cell to process the identical workload.
    """
    return HubConfig(
        num_workers=profile.workers,
        backpressure="block",
        ring_capacity_bytes=profile.ring_kib * 1024,
    )


def _replay(kind: str, profile: ServingScaleProfile, workload) -> dict:
    """One :func:`run_load` of ``workload`` through a fresh hub; its report.

    The timed window covers the submit loop plus the close-side drain of
    every sensor — aggregate throughput counts the work until the last
    frame is actually produced, not until the feeder's queue empties.
    """
    with make_hub(kind, _hub_config(profile)) as hub:
        return run_load(hub, workload, close_timeout=CLOSE_TIMEOUT_S)


def _check_parity(
    kind: str, summaries: Dict[str, dict], references: Dict[str, tuple]
) -> None:
    """Require every closing summary to match batch replay of its recording.

    ``references`` maps a recording name to its batch ``process_stream``
    (events, frames, track observations); the live path may coalesce
    batches but must never change the output.  Raises ``RuntimeError``
    on any divergence so a broken hub can never post a benchmark number.
    """
    for sensor_id, summary in summaries.items():
        live = (
            summary["num_events"],
            summary["num_frames"],
            summary["num_track_observations"],
        )
        batch = references[sensor_id.rpartition("#")[0]]
        if live != batch:
            raise RuntimeError(
                f"{kind} hub diverged from batch replay for {sensor_id!r}: "
                f"live (events, frames, observations) = {live}, batch = {batch}"
            )


def run_suite(
    profile: ServingScaleProfile, log: Callable[[str], None] = lambda line: None
) -> Dict[str, Dict[str, float]]:
    """Run every cell on both worker vehicles; returns the scenario dict.

    The returned mapping has one scenario per vehicle
    (``thread_hub`` / ``process_hub``) so the harness gates each hub's
    absolute throughput independently, plus the machine-independent
    ``speedup_vs_thread`` ratio on the process scenario.
    """
    counts = sorted(set(profile.sensor_counts))
    max_n = counts[-1]
    speedup_cell = (
        profile.speedup_cell if profile.speedup_cell in counts else max_n
    )
    recordings = load_recordings(None, profile.scenes, profile.duration_s, profile.seed)
    pipeline_config = _hub_config(profile).pipeline_config
    references = {}
    for name, stream in recordings:
        batch = EbbiotPipeline(pipeline_config).process_stream(stream, collect_frames=False)
        references[name] = (len(stream), batch.num_frames, batch.total_track_observations())
    # Every cell's fleet is a prefix of the largest (sensors cycle scenes).
    fleet = build_workload(recordings, max_n, profile.batch_us)
    per_sensor = max(1, profile.warmup_batches // max_n)
    warm_up = [(sensor_id, batches[:per_sensor]) for sensor_id, batches in fleet]

    cells: Dict[str, Dict[int, dict]] = {}
    for kind in HUB_KINDS:
        log(f"  {kind} hub: warm-up ({sum(len(b) for _, b in warm_up)} batches)")
        _replay(kind, profile, warm_up)

        cells[kind] = {}
        for sensors in counts:
            trials = []
            for _ in range(profile.trials):
                report = _replay(kind, profile, fleet[:sensors])
                _check_parity(kind, report["summaries"], references)
                trials.append(report["aggregate"])
            trials.sort(key=lambda trial: trial["frames_per_s"])
            median = trials[len(trials) // 2]
            cells[kind][sensors] = median
            log(
                f"  {kind} hub, {sensors:>2} sensor(s): "
                f"{median['frames_per_s']:8.1f} fps aggregate "
                f"(p99 {median['latency_ms']['p99_ms']:.1f} ms, "
                f"{profile.trials} trial(s), parity ok)"
            )

    scenarios: Dict[str, Dict[str, float]] = {}
    for kind in HUB_KINDS:
        metrics: Dict[str, float] = {
            "primary": f"frames_per_s_{max_n}",
            "workers": float(profile.workers),
            "batch_us": float(profile.batch_us),
            "trials": float(profile.trials),
            # Every timed cell is parity-checked; this is the widest one.
            "parity_sensors": float(max_n),
            "parity_ok": 1.0,
        }
        fps_1 = cells[kind][counts[0]]["frames_per_s"] if counts[0] == 1 else 0.0
        for sensors in counts:
            cell = cells[kind][sensors]
            metrics[f"frames_per_s_{sensors}"] = cell["frames_per_s"]
            metrics[f"events_per_s_{sensors}"] = cell["events_per_s"]
            metrics[f"p99_ms_{sensors}"] = cell["latency_ms"]["p99_ms"]
            if sensors > 1 and fps_1 > 0:
                metrics[f"scaling_efficiency_{sensors}"] = cell[
                    "frames_per_s"
                ] / (sensors * fps_1)
        scenarios[f"{kind}_hub"] = metrics

    process = scenarios["process_hub"]
    thread = scenarios["thread_hub"]
    process["speedup_cell_sensors"] = float(speedup_cell)
    thread_fps = thread[f"frames_per_s_{speedup_cell}"]
    process["speedup_vs_thread"] = (
        process[f"frames_per_s_{speedup_cell}"] / thread_fps if thread_fps else 0.0
    )
    # Informational (not harness-gated): the full ratio curve.
    for sensors in counts:
        thread_fps = thread[f"frames_per_s_{sensors}"]
        process[f"ratio_vs_thread_{sensors}"] = (
            process[f"frames_per_s_{sensors}"] / thread_fps if thread_fps else 0.0
        )
    return scenarios
