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
are needed here.  :meth:`snapshot` / :meth:`restore` checkpoint the tracker
and statistics between batches (state migration, fault recovery).

Steady-state sessions do not allocate per frame: the pipeline's
:class:`~repro.core.ebbi.EbbiBuilder` runs with buffer reuse, so each
closed window is accumulated and median-filtered into persistent scratch
stacks (see :class:`~repro.core.ebbi.EbbiScratch`) as a one-frame stack,
by the same build body and frame step that ``process_stream`` runs in
chunks.  The frames a session hands to the RPN + tracker step are views
into those buffers, consumed before the next window is built; anything
retained (``collect_frames`` with ``keep_frames`` pipelines) is a detached
copy.  A long-lived sensor session therefore runs at constant memory *and*
constant allocation traffic, and reports the same ``alpha`` as a batch
replay of the same windows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.config import EbbiotConfig
from repro.core.pipeline import EbbiotPipeline, FrameResult, PipelineResult, PipelineState
from repro.runtime.aggregate import RecordingResult
from repro.serving.framer import FramerSnapshot, OnlineFramer


@dataclass(frozen=True)
class SessionSnapshot:
    """Checkpoint of a session's pipeline state between batches.

    The framer's in-flight buffer is deliberately *not* part of the
    snapshot: checkpoints are taken at batch boundaries and un-closed events
    are still owned by the transport (a resumed session re-ingests from the
    last acknowledged batch).
    """

    sensor_id: str
    pipeline: PipelineState
    frames_processed: int
    events_ingested: int


@dataclass(frozen=True)
class MigrationEnvelope:
    """Everything needed to move a live session between shards mid-stream.

    Wraps the PR 2 :class:`SessionSnapshot` (the pipeline checkpoint) and
    adds what a *hot* hand-off additionally needs: the framer's full state —
    spooled events included, via :class:`FramerSnapshot` — plus the summary
    counters, so the restored session's future frames **and** its final
    summary are identical to an unmigrated run.  Envelopes are plain
    picklable data: process shards ship them over their control pipes.
    """

    session: SessionSnapshot
    framer: FramerSnapshot
    busy_s: float
    num_observations: int
    track_ids: frozenset
    proposal_count: int
    collect_frames: bool
    keep_history: bool
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
    collect_frames:
        Keep per-frame :class:`FrameResult` objects in :attr:`result`
        (handy in tests; off for long-lived production sessions).
    keep_history:
        Accumulate every :class:`TrackObservation` in
        ``result.track_history``.  The hub turns this off for its sessions
        so an indefinitely streaming sensor stays at constant memory; the
        summary counts (observations, distinct tracks) are maintained
        separately and are unaffected.
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
        collect_frames: bool = False,
        keep_history: bool = True,
        instrumentation=None,
    ) -> None:
        self.sensor_id = sensor_id
        self.instrumentation = instrumentation
        self.pipeline = EbbiotPipeline(config, instrumentation=instrumentation)
        self.framer = OnlineFramer(
            frame_duration_us=self.pipeline.config.frame_duration_us,
            reorder_slack_us=reorder_slack_us,
        )
        self.collect_frames = collect_frames
        self.keep_history = keep_history
        self.result = PipelineResult()
        self._started_monotonic = time.perf_counter()
        self._busy_s = 0.0
        self._finished = False
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
        self.result.add_frame(
            frame, keep=self.collect_frames, keep_history=self.keep_history
        )
        self._num_observations += len(frame.tracks)
        self._track_ids.update(observation.track_id for observation in frame.tracks)
        return frame

    # -- state ---------------------------------------------------------------------------

    @property
    def frames_processed(self) -> int:
        """Windows fully processed so far."""
        return self.result.frames_processed

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

    def snapshot(self) -> SessionSnapshot:
        """Checkpoint the pipeline state (call between batches)."""
        return SessionSnapshot(
            sensor_id=self.sensor_id,
            pipeline=self.pipeline.snapshot(),
            frames_processed=self.frames_processed,
            events_ingested=self.events_ingested,
        )

    def restore(self, snapshot: SessionSnapshot) -> None:
        """Reinstate a checkpoint taken by :meth:`snapshot`.

        Only the pipeline (tracker + statistics) is restored; the track
        history accumulated in :attr:`result` is left as-is since it
        reflects frames already delivered downstream.
        """
        if snapshot.sensor_id != self.sensor_id:
            raise ValueError(
                f"snapshot belongs to sensor {snapshot.sensor_id!r}, "
                f"not {self.sensor_id!r}"
            )
        self.pipeline.restore(snapshot.pipeline)

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
            session=self.snapshot(),
            framer=self.framer.snapshot(),
            busy_s=self._busy_s,
            num_observations=self._num_observations,
            track_ids=frozenset(self._track_ids),
            proposal_count=self.result.proposal_count,
            collect_frames=self.collect_frames,
            keep_history=self.keep_history,
            pipeline_config=self.pipeline.config,
        )

    def restore_migration(self, envelope: MigrationEnvelope) -> None:
        """Resume a migrated session; future output is byte-identical.

        The receiving session must be freshly constructed for the same
        sensor with the same pipeline configuration (the hub guarantees
        both); the pipeline checkpoint re-validates the backend match.
        """
        if self.frames_processed or self.events_ingested:
            raise RuntimeError(
                f"cannot restore a migration onto session {self.sensor_id!r} "
                "that has already processed data"
            )
        self.restore(envelope.session)
        self.framer.restore(envelope.framer)
        self.result.frames_processed = envelope.session.frames_processed
        self.result.proposal_count = envelope.proposal_count
        self._busy_s = envelope.busy_s
        self._num_observations = envelope.num_observations
        self._track_ids = set(envelope.track_ids)
        self.collect_frames = envelope.collect_frames
        self.keep_history = envelope.keep_history

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
            num_proposals=self.result.total_proposals(),
            tracker=self.backend_name,
            stage_seconds=(
                self.instrumentation.snapshot()
                if self.instrumentation is not None
                else None
            ),
        )
