"""Concurrent execution of the EBBIOT pipeline over many recordings.

Each stationary sensor produces an independent event stream, so a fleet of
recordings is embarrassingly parallel at the recording level: one pipeline
instance per stream, no shared state.  :class:`StreamRunner` schedules one
:func:`run_recording` call per :class:`RecordingJob` on a thread pool, a
process pool or serially, and merges the per-recording summaries into a
:class:`~repro.runtime.aggregate.BatchResult`.

Inside each job the pipeline uses the vectorised chunked path
(:meth:`~repro.core.pipeline.EbbiotPipeline.process_stream`): frame
boundaries for the whole recording are resolved with one ``searchsorted``
and EBBI frames are accumulated and filtered in batches, so the per-event
Python work is gone and — for the thread executor — the NumPy kernels
release the GIL while other recordings make progress.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence

from repro.core.config import EbbiotConfig
from repro.core.pipeline import EbbiotPipeline, PipelineResult
from repro.evaluation.mot_metrics import compute_mot_summary
from repro.events.stream import EventStream
from repro.runtime.aggregate import BatchResult, RecordingResult
from repro.simulation.ground_truth import GroundTruthFrame

#: Executor kinds understood by :class:`RunnerConfig`.
EXECUTORS = ("serial", "thread", "process")

#: IoU threshold of the CLEAR-MOT evaluation run for jobs with ground truth.
MOT_IOU_THRESHOLD = 0.3


@dataclass
class RecordingJob:
    """One recording for the runner to process.

    Parameters
    ----------
    name:
        Identifier reported in the results.
    stream:
        The recording's event stream.
    ground_truth:
        Optional ground-truth frames; when present the job's result carries
        a CLEAR-MOT summary.
    config:
        Optional per-recording pipeline configuration (e.g. a site-specific
        region of exclusion); falls back to the runner's shared config.
    """

    name: str
    stream: EventStream
    ground_truth: Optional[List[GroundTruthFrame]] = None
    config: Optional[EbbiotConfig] = None


@dataclass
class RunnerConfig:
    """Configuration of a :class:`StreamRunner`.

    Parameters
    ----------
    executor:
        ``"thread"`` (default), ``"process"`` or ``"serial"``.  Threads fit
        the NumPy-heavy pipeline (kernels drop the GIL) and need no
        pickling; processes sidestep the GIL entirely at the cost of
        shipping each job's events to the worker; serial is the reference
        and debugging mode.
    max_workers:
        Worker count for the concurrent executors; defaults to the CPU
        count (capped at 8 so a laptop run does not oversubscribe).
    pipeline_config:
        Shared pipeline configuration for jobs that do not bring their own.
    instrument:
        Attach a per-job :class:`repro.obs.Instrumentation` so each
        recording's result carries its ``stage_seconds`` breakdown.  Runs
        the per-window (unchunked) pipeline path — measurably slower, so
        off by default.
    trace:
        Additionally record one Chrome trace-event span per stage per frame
        window into each recording's ``trace_events`` (implies
        ``instrument``).
    trace_sample_every:
        Trace every Nth frame window (1 = all windows); thins the trace of
        long recordings without affecting the ``stage_seconds`` totals.
    """

    executor: str = "thread"
    max_workers: Optional[int] = None
    pipeline_config: EbbiotConfig = field(default_factory=EbbiotConfig)
    instrument: bool = False
    trace: bool = False
    trace_sample_every: int = 1

    def __post_init__(self) -> None:
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"executor must be one of {EXECUTORS}, got {self.executor!r}"
            )
        if self.max_workers is not None and self.max_workers <= 0:
            raise ValueError(f"max_workers must be positive, got {self.max_workers}")
        if self.trace_sample_every < 1:
            raise ValueError(
                f"trace_sample_every must be >= 1, got {self.trace_sample_every}"
            )

    def resolved_max_workers(self, num_jobs: int) -> int:
        """Worker count actually used for ``num_jobs`` jobs."""
        if self.max_workers is not None:
            return max(1, min(self.max_workers, num_jobs))
        return max(1, min(os.cpu_count() or 1, 8, num_jobs))


def run_recording(job: RecordingJob, config: RunnerConfig) -> RecordingResult:
    """Process one recording end to end and summarise it.

    Module-level (rather than a method) so the process executor can pickle
    it; builds a fresh pipeline per call, so concurrent invocations share
    nothing.  Instrumentation is likewise per call — the tracer and
    accumulators never cross a process boundary, only their plain-dict
    snapshots on the result do.
    """
    pipeline_config = job.config or config.pipeline_config
    instrumentation = None
    tracer = None
    if config.instrument or config.trace:
        from repro.obs import Instrumentation, Tracer

        if config.trace:
            tracer = Tracer()
        instrumentation = Instrumentation(
            tracer=tracer, sample_every=config.trace_sample_every
        )
    pipeline = EbbiotPipeline(pipeline_config, instrumentation=instrumentation)
    started = time.perf_counter()
    result: PipelineResult = pipeline.process_stream(job.stream, collect_frames=False)
    wall_time_s = time.perf_counter() - started
    mot = None
    if job.ground_truth:
        mot = compute_mot_summary(
            result.track_history.observations,
            job.ground_truth,
            iou_threshold=MOT_IOU_THRESHOLD,
        )
    duty = None
    if pipeline_config.duty_cycle is not None and result.num_frames > 0:
        duty = pipeline_config.duty_cycle.summarize(result.num_frames)
    return RecordingResult(
        name=job.name,
        num_events=len(job.stream),
        num_frames=result.num_frames,
        duration_s=job.stream.duration_s,
        wall_time_s=wall_time_s,
        mean_active_pixel_fraction=result.mean_active_pixel_fraction,
        mean_events_per_frame=result.mean_events_per_frame,
        mean_active_trackers=result.mean_active_trackers,
        num_tracks=len(result.track_history.track_ids()),
        num_track_observations=result.total_track_observations(),
        num_proposals=result.total_proposals(),
        mot=mot,
        tracker=pipeline.backend_name,
        duty=duty,
        stage_seconds=(
            instrumentation.snapshot() if instrumentation is not None else None
        ),
        trace_events=tracer.events() if tracer is not None else None,
    )


class StreamRunner:
    """Runs the EBBIOT pipeline over a fleet of recordings concurrently."""

    def __init__(self, config: Optional[RunnerConfig] = None) -> None:
        self.config = config or RunnerConfig()

    def run(self, jobs: Sequence[RecordingJob]) -> BatchResult:
        """Process all jobs and merge their summaries.

        Results keep the submission order regardless of completion order,
        so batch output is deterministic for a fixed job list.
        """
        jobs = list(jobs)
        started = time.perf_counter()
        if not jobs or self.config.executor == "serial":
            results = [run_recording(job, self.config) for job in jobs]
        else:
            with self._make_executor(len(jobs)) as executor:
                futures = [
                    executor.submit(run_recording, job, self.config) for job in jobs
                ]
                results = [future.result() for future in futures]
        wall_time_s = time.perf_counter() - started
        return BatchResult(recordings=results, wall_time_s=wall_time_s)

    def with_executor(self, executor: str) -> "StreamRunner":
        """A runner identical to this one but with a different executor."""
        return StreamRunner(replace(self.config, executor=executor))

    def _make_executor(self, num_jobs: int) -> Executor:
        workers = self.config.resolved_max_workers(num_jobs)
        if self.config.executor == "process":
            return ProcessPoolExecutor(max_workers=workers)
        return ThreadPoolExecutor(max_workers=workers)
