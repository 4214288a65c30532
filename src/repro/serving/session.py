"""One live sensor = one :class:`SensorSession`.

A session owns the full per-sensor serving state: an
:class:`~repro.serving.framer.OnlineFramer` that turns the live batch feed
into closed ``tF`` windows, an :class:`~repro.core.pipeline.EbbiotPipeline`
that runs the incremental EBBI → RPN → tracker step on each closed window,
and the same running summary statistics the batch runtime reports (``alpha``,
events/frame, active trackers), so a live sensor and a replayed recording
produce directly comparable :class:`~repro.runtime.aggregate.RecordingResult`
summaries.

Sessions are single-threaded by design: the hub shards sensors across
workers and each session only ever runs on its shard's worker, so no locks
are needed here.  :meth:`~SensorSession.export_migration` /
:meth:`~SensorSession.restore_migration` are a session's one checkpoint
(shard-to-shard migration).

A session keeps counters only (frames, proposals, track observations and
distinct track ids): frames leave it only as the return values of
:meth:`~SensorSession.ingest` and :meth:`~SensorSession.finish`, so an
indefinitely streaming sensor runs at constant memory.  Steady-state
sessions do not allocate per frame either: the pipeline's
:class:`~repro.core.ebbi.EbbiBuilder` runs with buffer reuse, so each
closed window is accumulated and median-filtered into persistent scratch
stacks (see :class:`~repro.core.ebbi.EbbiScratch`) as a one-frame stack,
by the same build body and frame step that ``process_stream`` runs in
chunks, and reports the same ``alpha`` as a batch replay of the same
windows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.config import EbbiotConfig
from repro.core.pipeline import EbbiotPipeline, FrameResult, PipelineState
from repro.runtime.aggregate import RecordingResult
from repro.serving.framer import FramerSnapshot, OnlineFramer


@dataclass(frozen=True)
class MigrationEnvelope:
    """A live session's checkpoint: everything needed to move it between
    shards mid-stream.

    It carries the pipeline's :class:`~repro.core.pipeline.PipelineState`
    (the tracker backend's state and the running statistics), the framer's
    full state -- spooled events included, via :class:`FramerSnapshot` --
    and the summary counters, so the restored session's future frames
    **and** its final summary are identical to an unmigrated run.
    Envelopes are plain picklable data: process shards ship them over their
    control pipes.
    """

    sensor_id: str
    pipeline: PipelineState
    framer: FramerSnapshot
    busy_s: float
    proposal_count: int
    num_observations: int
    track_ids: frozenset
    pipeline_config: EbbiotConfig


class SensorSession:
    """Incremental EBBIOT processing of one live sensor's event feed.

    Parameters
    ----------
    sensor_id:
        Stable identifier of the sensor (shard key in the hub).
    config:
        Pipeline configuration; defaults to the paper's parameters.
    reorder_slack_us:
        Out-of-order tolerance handed to the :class:`OnlineFramer`.
    instrumentation:
        Optional :class:`repro.obs.Instrumentation` threaded into the
        pipeline; an instrumented hub passes one per sensor (labelled with
        the sensor id) so per-stage cost shows up in its metrics and trace.
    """

    def __init__(
        self,
        sensor_id: str,
        config: Optional[EbbiotConfig] = None,
        reorder_slack_us: int = 5_000,
        instrumentation=None,
    ) -> None:
        self.sensor_id = sensor_id
        self.instrumentation = instrumentation
        self.pipeline = EbbiotPipeline(config, instrumentation=instrumentation)
        self.framer = OnlineFramer(
            frame_duration_us=self.pipeline.config.frame_duration_us,
            reorder_slack_us=reorder_slack_us,
        )
        self._busy_s = 0.0
        self._finished = False
        self._proposal_count = 0
        self._num_observations = 0
        self._track_ids = set()

    # -- ingestion -----------------------------------------------------------------------

    def ingest(self, events: np.ndarray) -> List[FrameResult]:
        """Feed one batch of events; return the frames it closed (often [])."""
        if self._finished:
            raise RuntimeError(f"session {self.sensor_id!r} is already finished")
        started = time.perf_counter()
        frames = [self._process(w) for w in self.framer.append(events)]
        self._busy_s += time.perf_counter() - started
        return frames

    def finish(self) -> List[FrameResult]:
        """End of stream: flush the framer and process the tail windows."""
        if self._finished:
            return []
        started = time.perf_counter()
        frames = [self._process(w) for w in self.framer.flush()]
        self._busy_s += time.perf_counter() - started
        self._finished = True
        return frames

    def _process(self, window) -> FrameResult:
        frame = self.pipeline.process_frame_events(
            window.events, window.t_start_us, window.t_end_us, window.frame_index
        )
        self._proposal_count += len(frame.proposals)
        self._num_observations += len(frame.tracks)
        self._track_ids.update(observation.track_id for observation in frame.tracks)
        return frame

    # -- state ---------------------------------------------------------------------------

    @property
    def frames_processed(self) -> int:
        """Windows fully processed so far."""
        return self.pipeline.frames_processed

    @property
    def backend_name(self) -> str:
        """Registry name of the session's tracker backend."""
        return self.pipeline.backend_name

    @property
    def events_ingested(self) -> int:
        """Events accepted by the framer (excludes late drops)."""
        return self.framer.events_accepted

    @property
    def late_events(self) -> int:
        """Events dropped for arriving after their window closed."""
        return self.framer.late_events

    def export_migration(self) -> MigrationEnvelope:
        """Package the complete live state for a shard-to-shard hand-off.

        Call with the session drained (no concurrent :meth:`ingest`); the
        source session must not be used afterwards.
        """
        if self._finished:
            raise RuntimeError(
                f"session {self.sensor_id!r} is finished; nothing to migrate"
            )
        return MigrationEnvelope(
            sensor_id=self.sensor_id,
            pipeline=self.pipeline.snapshot(),
            framer=self.framer.snapshot(),
            busy_s=self._busy_s,
            proposal_count=self._proposal_count,
            num_observations=self._num_observations,
            track_ids=frozenset(self._track_ids),
            pipeline_config=self.pipeline.config,
        )

    def restore_migration(self, envelope: MigrationEnvelope) -> None:
        """Resume a migrated session; future output is byte-identical.

        The receiving session must be freshly constructed for the same
        sensor with the same pipeline configuration (the hub guarantees
        both).  Another sensor's envelope raises :class:`ValueError`, and
        so does the pipeline checkpoint of another tracker backend.
        """
        if envelope.sensor_id != self.sensor_id:
            raise ValueError(
                f"envelope belongs to sensor {envelope.sensor_id!r}, "
                f"not {self.sensor_id!r}"
            )
        if self.frames_processed or self.events_ingested:
            raise RuntimeError(
                f"cannot restore a migration onto session {self.sensor_id!r} "
                "that has already processed data"
            )
        self.pipeline.restore(envelope.pipeline)
        self.framer.restore(envelope.framer)
        self._busy_s = envelope.busy_s
        self._proposal_count = envelope.proposal_count
        self._num_observations = envelope.num_observations
        self._track_ids = set(envelope.track_ids)

    # -- summary -------------------------------------------------------------------------

    def summary(self) -> RecordingResult:
        """The live session summarised exactly like a batch recording.

        ``duration_s`` is the stream time covered by closed windows and
        ``wall_time_s`` the time actually spent in the pipeline (framing +
        processing), so ``realtime_factor`` reads as "how much faster than
        the sensor the session is running".
        """
        covered_us = self.frames_processed * self.pipeline.config.frame_duration_us
        return RecordingResult(
            name=self.sensor_id,
            num_events=self.events_ingested,
            num_frames=self.frames_processed,
            duration_s=covered_us * 1e-6,
            wall_time_s=self._busy_s,
            mean_active_pixel_fraction=self.pipeline.ebbi_builder.mean_active_pixel_fraction,
            mean_events_per_frame=self.pipeline.mean_events_per_frame,
            mean_active_trackers=self.pipeline.tracker.mean_active_trackers,
            num_tracks=len(self._track_ids),
            num_track_observations=self._num_observations,
            num_proposals=self._proposal_count,
            tracker=self.backend_name,
            stage_seconds=(
                self.instrumentation.snapshot()
                if self.instrumentation is not None
                else None
            ),
        )
