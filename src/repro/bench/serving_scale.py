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

* **merged single-feeder submission**: every sensor's batches are merged
  into one stream-time-sorted list and submitted from the bench thread,
  the way a gateway would multiplex a fleet onto the hub.  One feeder
  thread per sensor (what ``loadgen`` does for pacing realism) adds
  GIL/scheduler churn that swamps the hub-architecture signal at small
  batch sizes;
* **fine batches** (default 500 us of stream time, ~tens of events) keep
  the workload in the regime the re-architecture targets — per-batch
  overhead dominating per-event compute — which is where thread workers'
  GIL serialization hurts;
* **warm-up + median-of-N**: each vehicle gets one discarded warm-up
  run (allocator, fork, and import effects), then every cell runs
  ``trials`` times and the median-throughput trial is reported.

Live-vs-batch parity is asserted on every run: a small fleet is replayed
through each hub with the same merged driver and every sensor's closing
``RecordingResult`` must match a batch ``process_stream`` of its source
recording frame-for-frame (frames *and* track observations).  A mismatch
raises — a fast wrong hub must never look like a speedup.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.core.pipeline import EbbiotPipeline
from repro.runtime.scenes import build_scene_recordings
from repro.serving.hub import HubConfig
from repro.serving.loadgen import HUB_KINDS, _pooled_latency_ms, make_hub, split_batches

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
    parity_sensors: int = 4
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


def _build_fleet(profile: ServingScaleProfile):
    """Render the scene fleet once and pre-split every scene's batches.

    Sensors cycle the distinct scenes (as :func:`repro.serving.loadgen.
    build_workload` does), so the per-scene batch lists are shared across
    sensors — batches are read-only views and ``submit`` copies on the
    way in, making the sharing safe and the workload build O(scenes).
    """
    recordings = build_scene_recordings(
        profile.scenes, duration_s=profile.duration_s, base_seed=profile.seed
    )
    scene_batches = [
        split_batches(recording.stream.events, profile.batch_us)
        for recording in recordings
    ]
    return recordings, scene_batches


def _workload_for(profile, recordings, scene_batches, sensors: int):
    """``(sensor_id, scene_index, batches)`` rows for a ``sensors``-wide cell."""
    workload = []
    for index in range(sensors):
        scene = index % len(recordings)
        workload.append(
            (f"{recordings[scene].name}#{index:03d}", scene, scene_batches[scene])
        )
    return workload


def _merge_submissions(workload) -> List[Tuple[str, np.ndarray]]:
    """Interleave every sensor's batches into one stream-time-sorted feed.

    The sort is stable, so batches sharing a start time keep sensor
    registration order — per-sensor batch order (the only order the hubs
    guarantee) is preserved exactly.
    """
    merged = [
        (t_start_us, sensor_id, batch)
        for sensor_id, _, batches in workload
        for t_start_us, batch in batches
    ]
    merged.sort(key=lambda item: item[0])
    return [(sensor_id, batch) for _, sensor_id, batch in merged]


def _run_cell(kind: str, profile, workload, merged) -> Dict[str, float]:
    """One timed replay of a cell through a fresh hub.

    The timed window covers the submit loop plus the close-side drain of
    every sensor — aggregate throughput counts the work until the last
    frame is actually produced, not until the feeder's queue empties.
    """
    hub = make_hub(kind, _hub_config(profile))
    with hub:
        for sensor_id, _, _ in workload:
            hub.register(sensor_id)
        started = time.perf_counter()
        for sensor_id, batch in merged:
            hub.submit(sensor_id, batch)
        for sensor_id, _, _ in workload:
            hub.close_sensor(sensor_id, timeout=CLOSE_TIMEOUT_S)
        wall_s = time.perf_counter() - started
        totals = hub.telemetry_dict()["totals"]
        latency = _pooled_latency_ms(hub.merged_metrics().state_dict())
    return {
        "wall_s": wall_s,
        "frames": float(totals["frames_emitted"]),
        "events": float(totals["events_received"]),
        "frames_per_s": totals["frames_emitted"] / wall_s if wall_s > 0 else 0.0,
        "events_per_s": totals["events_received"] / wall_s if wall_s > 0 else 0.0,
        "p50_ms": latency["p50_ms"],
        "p99_ms": latency["p99_ms"],
    }


def _assert_parity(kind: str, profile, recordings, scene_batches) -> int:
    """Replay a small fleet and require frame-for-frame batch parity.

    Every sensor's closing :class:`RecordingResult` must match a batch
    ``process_stream`` of its source recording on event count, frame
    count and track observations — the live path may coalesce batches
    but must never change the output.  Raises ``RuntimeError`` on any
    divergence so a broken hub can never post a benchmark number.
    """
    sensors = min(profile.parity_sensors, max(profile.sensor_counts))
    workload = _workload_for(profile, recordings, scene_batches, sensors)
    merged = _merge_submissions(workload)
    config = _hub_config(profile)

    expected = {}
    for _, scene, _ in workload:
        if scene not in expected:
            expected[scene] = EbbiotPipeline(config.pipeline_config).process_stream(
                recordings[scene].stream, collect_frames=False
            )

    hub = make_hub(kind, config)
    with hub:
        for sensor_id, _, _ in workload:
            hub.register(sensor_id)
        for sensor_id, batch in merged:
            hub.submit(sensor_id, batch)
        results = {
            sensor_id: hub.close_sensor(sensor_id, timeout=CLOSE_TIMEOUT_S)
            for sensor_id, _, _ in workload
        }

    for sensor_id, scene, _ in workload:
        result = results[sensor_id]
        reference = expected[scene]
        stream = recordings[scene].stream
        live = (
            result.num_events,
            result.num_frames,
            result.num_track_observations,
        )
        batch = (
            len(stream),
            reference.num_frames,
            reference.total_track_observations(),
        )
        if live != batch:
            raise RuntimeError(
                f"{kind} hub diverged from batch replay for {sensor_id!r}: "
                f"live (events, frames, observations) = {live}, batch = {batch}"
            )
    return sensors


def run_suite(
    profile: ServingScaleProfile, log: Callable[[str], None] = lambda line: None
) -> Dict[str, Dict[str, float]]:
    """Run every cell on both worker vehicles; returns the scenario dict.

    The returned mapping has one scenario per vehicle
    (``thread_hub`` / ``process_hub``) so the harness gates each hub's
    absolute throughput independently, plus the machine-independent
    ``speedup_vs_thread`` ratio on the process scenario.
    """
    recordings, scene_batches = _build_fleet(profile)
    counts = sorted(set(profile.sensor_counts))
    max_n = counts[-1]
    speedup_cell = (
        profile.speedup_cell if profile.speedup_cell in counts else max_n
    )

    cells: Dict[str, Dict[int, Dict[str, float]]] = {}
    for kind in HUB_KINDS:
        warm_workload = _workload_for(profile, recordings, scene_batches, max_n)
        warm_merged = _merge_submissions(warm_workload)[: profile.warmup_batches]
        log(f"  {kind} hub: warm-up ({len(warm_merged)} batches)")
        _run_cell(kind, profile, warm_workload, warm_merged)

        cells[kind] = {}
        for sensors in counts:
            workload = _workload_for(profile, recordings, scene_batches, sensors)
            merged = _merge_submissions(workload)
            trials = [
                _run_cell(kind, profile, workload, merged)
                for _ in range(profile.trials)
            ]
            trials.sort(key=lambda trial: trial["frames_per_s"])
            median = trials[len(trials) // 2]
            cells[kind][sensors] = median
            log(
                f"  {kind} hub, {sensors:>2} sensor(s): "
                f"{median['frames_per_s']:8.1f} fps aggregate "
                f"(p99 {median['p99_ms']:.1f} ms, "
                f"{profile.trials} trial(s))"
            )

    scenarios: Dict[str, Dict[str, float]] = {}
    for kind in HUB_KINDS:
        parity_sensors = _assert_parity(kind, profile, recordings, scene_batches)
        metrics: Dict[str, float] = {
            "primary": f"frames_per_s_{max_n}",
            "workers": float(profile.workers),
            "batch_us": float(profile.batch_us),
            "trials": float(profile.trials),
            "parity_sensors": float(parity_sensors),
            "parity_ok": 1.0,
        }
        fps_1 = cells[kind][counts[0]]["frames_per_s"] if counts[0] == 1 else 0.0
        for sensors in counts:
            cell = cells[kind][sensors]
            metrics[f"frames_per_s_{sensors}"] = cell["frames_per_s"]
            metrics[f"events_per_s_{sensors}"] = cell["events_per_s"]
            metrics[f"p99_ms_{sensors}"] = cell["p99_ms"]
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
