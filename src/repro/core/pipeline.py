"""The end-to-end EBBIOT pipeline (Fig. 1).

:class:`EbbiotPipeline` wires the three stages together: EBBI generation and
median filtering, histogram region proposal (with ROE filtering), and a
pluggable tracker backend.  ``process_stream`` runs a whole recording and
returns the per-frame results plus the statistics needed by the resource
models (mean active-pixel fraction ``alpha``, mean events per frame ``n``,
mean active trackers ``NT``).

The tracker stage is selected by ``EbbiotConfig.tracker`` through the
registry of :mod:`repro.trackers.registry`: ``"overlap"`` (the paper's
tracker, default), ``"kalman"`` (the EBBI+KF baseline) or ``"ebms"`` (the
event-driven NN-filt+EBMS baseline).  Backends that declare
``requires_proposals = False`` (EBMS) make the pipeline skip the RPN + ROE
stages and instead receive each window's raw events, so the one
``process_stream`` / ``process_frame_events`` path reproduces all three of
the paper's Fig. 4/5 pipelines.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.core.config import EbbiotConfig
from repro.core.ebbi import EbbiBuilder, EbbiFrames, untimed_stage
from repro.core.histogram_rpn import HistogramRegionProposer, RegionProposal, Span
from repro.core.roe import RegionOfExclusion
from repro.events.stream import EventStream, FrameIndex
from repro.trackers.backend import TrackerBackend, TrackerFrame
from repro.trackers.base import TrackHistory, TrackObservation

#: Windows per EBBI build on :meth:`EbbiotPipeline.process_stream`'s chunked
#: path: the raw and filtered stacks are ``CHUNK_FRAMES x height x width``
#: each, accumulated and filtered in cache-sized blocks.
CHUNK_FRAMES = 256


@dataclass(frozen=True)
class PipelineState:
    """Checkpoint of an :class:`EbbiotPipeline` between frames.

    Everything a live session needs to checkpoint and later resume (or
    migrate to another worker): a deep copy of the tracker backend object
    itself, so every field a tracker keeps is carried without checkpoint
    code of its own, plus the EBBI builder's and the pipeline's running
    counters.  The EBBI frames are per-window scratch and never part of the
    state.  Only the backend is copied, never the pipeline, whose
    instrumentation may hold locks: the state stays picklable.
    """

    tracker: TrackerBackend
    ebbi_stats: tuple
    total_events: int
    frames_processed: int


@dataclass
class FrameResult:
    """Per-frame output of the pipeline."""

    frame_index: int
    t_start_us: int
    t_end_us: int
    num_events: int
    proposals: List[RegionProposal]
    tracks: List[TrackObservation]

    @property
    def t_mid_us(self) -> int:
        """Midpoint of the frame window (matches the GT sampling instants)."""
        return (self.t_start_us + self.t_end_us) // 2


@dataclass
class PipelineResult:
    """Whole-recording output of the pipeline.

    The ``frames_processed`` / ``proposal_count`` counters are the source of
    truth for frame and proposal totals (use :meth:`add_frame` to keep them
    in sync); ``frames`` holds the per-frame results, and stays empty when
    the pipeline runs with ``collect_frames=False`` (fleet-scale runs where
    per-frame objects for thousands of frames would dominate memory).
    """

    frames: List[FrameResult] = field(default_factory=list)
    track_history: TrackHistory = field(default_factory=TrackHistory)
    mean_active_pixel_fraction: float = 0.0
    mean_events_per_frame: float = 0.0
    mean_active_trackers: float = 0.0
    frames_processed: int = 0
    proposal_count: int = 0

    def add_frame(self, frame_result: FrameResult, keep: bool = True) -> None:
        """Record one frame's output: counters, the track observations, and
        the frame itself when ``keep`` is true."""
        self.frames_processed += 1
        self.proposal_count += len(frame_result.proposals)
        if keep:
            self.frames.append(frame_result)
        self.track_history.extend(frame_result.tracks)

    @property
    def num_frames(self) -> int:
        """Number of frames processed."""
        return self.frames_processed

    def total_proposals(self) -> int:
        """Total number of region proposals over the recording."""
        return self.proposal_count

    def total_track_observations(self) -> int:
        """Total number of reported track boxes over the recording."""
        return len(self.track_history)


class EbbiotPipeline:
    """EBBI generation + histogram RPN + a pluggable tracker backend.

    Parameters
    ----------
    config:
        Pipeline configuration; defaults to the paper's parameters.  The
        ``config.tracker`` name selects the backend.
    tracker:
        Optional override of ``config.tracker``: a registry name or a ready
        :class:`~repro.trackers.backend.TrackerBackend` instance (tests and
        experiments inject custom trackers this way).
    instrumentation:
        Optional :class:`repro.obs.Instrumentation`.  When attached, every
        frame window is wrapped in a ``frame`` span and each stage (``ebbi``,
        ``median``, ``rpn``, ``roe``, ``tracker`` — proposal-free backends
        skip ``rpn``/``roe``) is timed into it; ``process_stream`` switches
        from chunked EBBI batching to per-window building so the spans
        reflect true per-window cost.  Instrumented and plain runs share one
        frame step; with the default ``None`` its stages run in a shared
        no-op context and the pipeline never calls into :mod:`repro.obs`.
    """

    def __init__(
        self,
        config: Optional[EbbiotConfig] = None,
        tracker: Optional[Union[str, TrackerBackend]] = None,
        instrumentation=None,
    ) -> None:
        # Deferred import: the registry's backends transitively import the
        # core package, which imports this module.
        from repro.trackers.registry import create_backend

        self.config = config or EbbiotConfig()
        self.region_proposer = HistogramRegionProposer(
            downsample_x=self.config.downsample_x,
            downsample_y=self.config.downsample_y,
            threshold=self.config.histogram_threshold,
            min_region_side_px=self.config.min_region_side_px,
        )
        self.roe = RegionOfExclusion(
            boxes=list(self.config.roe_boxes),
            max_overlap_fraction=self.config.roe_max_overlap_fraction,
        )
        self.tracker: TrackerBackend = create_backend(
            tracker if tracker is not None else self.config.tracker, self.config
        )
        self.instrumentation = instrumentation
        self.ebbi_builder = self._make_ebbi_builder()
        self._total_events = 0
        self._frames_processed = 0

    def _make_ebbi_builder(self) -> EbbiBuilder:
        """EBBI builder for the active backend.

        When no stage consumes the filtered frame (a proposal-free backend
        such as EBMS — the paper's event-driven pipeline has no EBBI stage
        at all), the median filter is disabled; raw accumulation alone
        provides the ``alpha``/``n`` statistics.

        The builder reuses its frame stacks across windows/chunks (no
        per-frame allocations on the steady-state path): every frame it
        hands out lives only for the duration of its RPN + tracker step.
        """
        patch_size = (
            self.config.median_patch_size if self.tracker.requires_proposals else 0
        )
        builder = EbbiBuilder(
            self.config.width, self.config.height, patch_size, reuse_buffers=True
        )
        builder.instrumentation = self.instrumentation
        return builder

    @property
    def backend_name(self) -> str:
        """Registry name of the active tracker backend."""
        return self.tracker.name

    # -- single-frame processing ---------------------------------------------------------

    def process_frame_events(
        self, events: np.ndarray, t_start_us: int, t_end_us: int, frame_index: int = 0
    ) -> FrameResult:
        """Process one accumulation window of events through all stages."""
        instrumentation = self.instrumentation
        span = (
            untimed_stage("frame")
            if instrumentation is None
            else instrumentation.frame(frame_index, t_start_us, t_end_us, len(events))
        )
        with span:
            ebbi = self.ebbi_builder.build(events, t_start_us, t_end_us)
            return self._process_built_frame(ebbi, frame_index, events)

    def _process_built_frame(
        self,
        ebbi: EbbiFrames,
        frame_index: int,
        events: Optional[np.ndarray] = None,
        spans: Optional[Tuple[List[Span], List[Span]]] = None,
    ) -> FrameResult:
        """RPN + ROE + tracker stages for an already-built EBBI frame.

        ``events`` is the window's raw packet; event-driven backends
        (``requires_events``) consume it, and proposal-free backends
        (``not requires_proposals``) skip the RPN + ROE stages entirely.
        ``spans`` are the frame's candidate spans when the chunked path
        found them for its whole chunk (else the RPN finds them here).
        The stages are timed through the attached instrumentation, or run in
        the shared no-op context of :func:`~repro.core.ebbi.untimed_stage`.
        """
        stage = untimed_stage if self.instrumentation is None else self.instrumentation.stage
        proposals: List[RegionProposal] = []
        if self.tracker.requires_proposals:
            with stage("rpn"):
                proposals = self.region_proposer.propose(ebbi.filtered, spans)
                proposals = [p for p in proposals if p.box.area >= self.config.min_proposal_area]
            with stage("roe"):
                proposals = self.roe.filter_proposals(proposals)
        with stage("tracker"):
            frame = TrackerFrame(proposals, events, ebbi.t_start_us, ebbi.t_end_us)
            tracks = self.tracker.step(frame)
        self._total_events += ebbi.num_events
        self._frames_processed += 1
        return FrameResult(
            frame_index=frame_index,
            t_start_us=ebbi.t_start_us,
            t_end_us=ebbi.t_end_us,
            num_events=ebbi.num_events,
            proposals=proposals,
            tracks=tracks,
        )

    # -- whole-recording processing -------------------------------------------------------

    def process_stream(self, stream: EventStream, collect_frames: bool = True) -> PipelineResult:
        """Run the pipeline over an entire event stream.

        Frame boundaries for the whole recording are resolved up front with
        one vectorised search (:meth:`EventStream.frame_index`) and EBBI
        frames are accumulated and median-filtered :data:`CHUNK_FRAMES`
        windows at a time (:meth:`~repro.core.ebbi.EbbiBuilder.build_batch`);
        only the inherently sequential RPN + tracker stages run frame by
        frame.  An instrumented pipeline builds window by window instead
        (:meth:`iter_stream`), so the ``ebbi``/``median`` spans reflect each
        window's true cost rather than an amortised chunk share; both
        sources give the same frames.

        Frame windows start at ``t = 0`` (see
        :meth:`~repro.events.stream.EventStream.frame_index`), so frame
        midpoints line up with the simulator's ground-truth sampling
        instants and with a live session's windows.

        Parameters
        ----------
        stream:
            The recording to process.
        collect_frames:
            When ``False`` per-frame :class:`FrameResult` objects are
            dropped after their tracks are recorded, keeping long fleet runs
            at constant memory; summary statistics and the track history are
            unaffected.
        """
        self.reset()
        if self.instrumentation is not None:
            frames = self.iter_stream(stream)
        else:
            index = stream.frame_index(self.config.frame_duration_us)
            frames = self._iter_chunks(index)
        result = PipelineResult()
        for frame_result in frames:
            result.add_frame(frame_result, keep=collect_frames)
        result.mean_active_pixel_fraction = self.ebbi_builder.mean_active_pixel_fraction
        result.mean_events_per_frame = self.mean_events_per_frame
        result.mean_active_trackers = self.tracker.mean_active_trackers
        return result

    def _iter_chunks(self, index: FrameIndex) -> Iterator[FrameResult]:
        """Process the windows of ``index``, building EBBI :data:`CHUNK_FRAMES` at a time.

        The RPN's histograms and runs are found for each chunk's whole
        filtered stack at once (:meth:`HistogramRegionProposer.candidate_spans`),
        so per frame only the candidates' validation is left to it.
        """
        for chunk_start in range(0, index.num_frames, CHUNK_FRAMES):
            chunk_stop = min(chunk_start + CHUNK_FRAMES, index.num_frames)
            batch = self.ebbi_builder.build_batch(
                index.events,
                index.starts[chunk_start:chunk_stop],
                index.ends[chunk_start:chunk_stop],
                index.splits[chunk_start : chunk_stop + 1],
            )
            spans: List[Optional[Tuple[List[Span], List[Span]]]] = (
                list(self.region_proposer.candidate_spans(batch.filtered))
                if self.tracker.requires_proposals
                else [None] * len(batch)
            )
            for frame_index, ebbi, frame_spans in zip(
                range(chunk_start, chunk_stop), batch, spans
            ):
                events = index.frame_events(frame_index) if self.tracker.requires_events else None
                yield self._process_built_frame(ebbi, frame_index, events, frame_spans)

    def iter_stream(self, stream: EventStream) -> Iterator[FrameResult]:
        """Lazily process a stream frame by frame (no whole-recording state)."""
        for frame_index, (t_start, t_end, events) in enumerate(
            stream.iter_frames(self.config.frame_duration_us)
        ):
            yield self.process_frame_events(events, t_start, t_end, frame_index)

    # -- state and statistics ---------------------------------------------------------------

    def reset(self) -> None:
        """Reset all stage state (tracker backend, statistics)."""
        self.ebbi_builder = self._make_ebbi_builder()
        self.tracker.reset()
        self._total_events = 0
        self._frames_processed = 0

    def snapshot(self) -> PipelineState:
        """Capture the incremental state between frames.

        Valid only at frame boundaries (after a :meth:`process_frame_events`
        call returns), which is the only time a live session checkpoints.
        The backend is deep-copied, so the pipeline moving on leaves the
        checkpoint unchanged.
        """
        return PipelineState(
            tracker=copy.deepcopy(self.tracker),
            ebbi_stats=self.ebbi_builder.stats_snapshot(),
            total_events=self._total_events,
            frames_processed=self._frames_processed,
        )

    def restore(self, state: PipelineState) -> None:
        """Reinstate a state captured by :meth:`snapshot`.

        The pipeline runs on a fresh copy of the checkpoint's backend, so
        one checkpoint can be restored more than once.  A checkpoint taken
        under another tracker backend raises :class:`ValueError`, so it can
        never silently resume on the wrong algorithm.
        """
        if state.tracker.name != self.tracker.name:
            raise ValueError(
                f"cannot restore a {state.tracker.name!r} checkpoint into a "
                f"{self.tracker.name!r} pipeline"
            )
        self.tracker = copy.deepcopy(state.tracker)
        self.ebbi_builder.restore_stats(state.ebbi_stats)
        self._total_events = state.total_events
        self._frames_processed = state.frames_processed

    @property
    def mean_events_per_frame(self) -> float:
        """Mean raw events per frame (the paper's ``n``)."""
        if self._frames_processed == 0:
            return 0.0
        return self._total_events / self._frames_processed

    @property
    def frames_processed(self) -> int:
        """Frames processed since the last reset."""
        return self._frames_processed
