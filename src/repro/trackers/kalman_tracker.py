"""Multi-object Kalman-filter tracker (the EBBI+KF baseline).

The paper's comparison tracker (Section II-C) runs a constant-velocity
Kalman filter per track with a centroid measurement, fed by the same
EBBI+RPN region proposals as the overlap tracker.  Association between
predicted track centroids and proposals uses IoU with a greedy fallback to
centroid distance, as in the composite-vision tracker the paper cites
(Lin et al., ACCV 2015).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


from repro.core.histogram_rpn import RegionProposal
from repro.trackers.association import greedy_overlap_assignment, unmatched_indices
from repro.trackers.base import TrackObservation, TrackState
from repro.trackers.kalman import ConstantVelocityKalmanFilter
from repro.utils.geometry import BoundingBox


@dataclass
class KalmanTrackerConfig:
    """Parameters of the multi-object Kalman tracker.

    Parameters
    ----------
    max_tracks:
        Maximum simultaneous tracks (kept equal to the OT's ``NT = 8``).
    min_iou_for_match:
        Minimum IoU between a predicted track box and a proposal for a
        match; below this, a distance-gated fallback match is attempted.
    max_match_distance_px:
        Maximum centroid distance for the fallback match.
    min_track_age_frames:
        Frames before a track is confirmed and reported.
    max_missed_frames:
        Consecutive unmatched frames before the track is dropped.
    size_smoothing:
        Exponential smoothing factor for box size (the KF only estimates the
        centroid; width/height are smoothed separately).
    process_noise, measurement_noise:
        Passed to each track's :class:`ConstantVelocityKalmanFilter`.
    """

    max_tracks: int = 8
    min_iou_for_match: float = 0.1
    max_match_distance_px: float = 30.0
    min_track_age_frames: int = 2
    max_missed_frames: int = 3
    size_smoothing: float = 0.6
    process_noise: float = 1.0
    measurement_noise: float = 2.0

    def __post_init__(self) -> None:
        if self.max_tracks < 1:
            raise ValueError(f"max_tracks must be >= 1, got {self.max_tracks}")
        if not 0.0 <= self.min_iou_for_match <= 1.0:
            raise ValueError("min_iou_for_match must be in [0, 1]")
        if self.max_match_distance_px <= 0:
            raise ValueError("max_match_distance_px must be positive")
        if not 0.0 <= self.size_smoothing <= 1.0:
            raise ValueError("size_smoothing must be in [0, 1]")


@dataclass
class _KalmanTrack:
    """Internal per-track state."""

    track_id: int
    filter: ConstantVelocityKalmanFilter
    width: float
    height: float
    age_frames: int = 0
    missed_frames: int = 0
    hits: int = 1

    def box(self) -> BoundingBox:
        """Current box built from the filter centroid and smoothed size."""
        cx, cy = self.filter.position
        return BoundingBox.from_center(cx, cy, self.width, self.height)


@dataclass(frozen=True)
class _KalmanTrackSnapshot:
    """Picklable capture of one track, filter state included."""

    track_id: int
    filter_state: tuple
    width: float
    height: float
    age_frames: int
    missed_frames: int
    hits: int


@dataclass(frozen=True)
class KalmanTrackerState:
    """Immutable snapshot of a :class:`KalmanFilterTracker`'s full state.

    Produced by :meth:`KalmanFilterTracker.snapshot`, consumed by
    :meth:`KalmanFilterTracker.restore`; the serving layer checkpoints it
    through the tracker-backend protocol.
    """

    tracks: Tuple[_KalmanTrackSnapshot, ...]
    next_track_id: int
    frames_processed: int
    total_active_tracks: int


class KalmanFilterTracker:
    """Constant-velocity Kalman-filter multi-object tracker."""

    def __init__(self, config: Optional[KalmanTrackerConfig] = None) -> None:
        self.config = config or KalmanTrackerConfig()
        self._tracks: Dict[int, _KalmanTrack] = {}
        self._next_track_id = 1
        self._frames_processed = 0
        self._total_active_tracks = 0

    # -- per-frame interface --------------------------------------------------------------

    def reset(self) -> None:
        """Clear all tracks and statistics."""
        self._tracks.clear()
        self._next_track_id = 1
        self._frames_processed = 0
        self._total_active_tracks = 0

    @property
    def num_active_tracks(self) -> int:
        """Number of currently allocated tracks."""
        return len(self._tracks)

    @property
    def mean_active_tracks(self) -> float:
        """Mean number of active tracks per frame."""
        if self._frames_processed == 0:
            return 0.0
        return self._total_active_tracks / self._frames_processed

    def snapshot(self) -> KalmanTrackerState:
        """Capture the complete tracker state (filters deep-copied)."""
        return KalmanTrackerState(
            tracks=tuple(
                _KalmanTrackSnapshot(
                    track_id=track.track_id,
                    filter_state=track.filter.state_snapshot(),
                    width=track.width,
                    height=track.height,
                    age_frames=track.age_frames,
                    missed_frames=track.missed_frames,
                    hits=track.hits,
                )
                for track in self._tracks.values()
            ),
            next_track_id=self._next_track_id,
            frames_processed=self._frames_processed,
            total_active_tracks=self._total_active_tracks,
        )

    def restore(self, state: KalmanTrackerState) -> None:
        """Reinstate a previously captured :class:`KalmanTrackerState`."""
        self._tracks = {}
        for captured in state.tracks:
            kalman_filter = ConstantVelocityKalmanFilter(
                process_noise=self.config.process_noise,
                measurement_noise=self.config.measurement_noise,
            )
            kalman_filter.restore_state(captured.filter_state)
            self._tracks[captured.track_id] = _KalmanTrack(
                track_id=captured.track_id,
                filter=kalman_filter,
                width=captured.width,
                height=captured.height,
                age_frames=captured.age_frames,
                missed_frames=captured.missed_frames,
                hits=captured.hits,
            )
        self._next_track_id = state.next_track_id
        self._frames_processed = state.frames_processed
        self._total_active_tracks = state.total_active_tracks

    def process_frame(
        self, proposals: Sequence[RegionProposal], t_us: int
    ) -> List[TrackObservation]:
        """Predict, associate, update and manage track lifecycles for one frame."""
        self._frames_processed += 1
        proposal_boxes = [p.box for p in proposals]

        # Predict all tracks one frame ahead.
        for track in self._tracks.values():
            track.filter.predict()
        track_ids = list(self._tracks.keys())
        predicted_boxes = [self._tracks[tid].box() for tid in track_ids]

        # Primary association: IoU between predicted boxes and proposals.
        pairs = greedy_overlap_assignment(
            predicted_boxes, proposal_boxes, min_score=self.config.min_iou_for_match
        )
        matched_tracks = {track_ids[i] for i, _ in pairs}
        matched_proposals = {j for _, j in pairs}

        # Fallback association by centroid distance for the remainder.
        for i in unmatched_indices(len(track_ids), pairs, 0):
            best_j, best_distance = None, self.config.max_match_distance_px
            for j in range(len(proposal_boxes)):
                if j in matched_proposals:
                    continue
                distance = predicted_boxes[i].center_distance(proposal_boxes[j])
                if distance < best_distance:
                    best_j, best_distance = j, distance
            if best_j is not None:
                pairs.append((i, best_j))
                matched_tracks.add(track_ids[i])
                matched_proposals.add(best_j)

        # Update matched tracks.
        for i, j in pairs:
            track = self._tracks[track_ids[i]]
            proposal_box = proposal_boxes[j]
            cx, cy = proposal_box.center
            track.filter.update(cx, cy)
            smoothing = self.config.size_smoothing
            track.width = smoothing * track.width + (1 - smoothing) * proposal_box.width
            track.height = smoothing * track.height + (1 - smoothing) * proposal_box.height
            track.missed_frames = 0
            track.hits += 1

        # Age unmatched tracks and drop stale ones.
        for track_id in list(self._tracks.keys()):
            if track_id in matched_tracks:
                continue
            track = self._tracks[track_id]
            track.missed_frames += 1
            if track.missed_frames > self.config.max_missed_frames:
                del self._tracks[track_id]

        # Start new tracks from unmatched proposals.
        for j, proposal_box in enumerate(proposal_boxes):
            if j in matched_proposals:
                continue
            if len(self._tracks) >= self.config.max_tracks:
                break
            self._start_track(proposal_box)

        # Report confirmed tracks.
        observations: List[TrackObservation] = []
        for track in self._tracks.values():
            track.age_frames += 1
            if track.age_frames < self.config.min_track_age_frames:
                continue
            observations.append(
                TrackObservation(
                    track_id=track.track_id,
                    box=track.box(),
                    t_us=t_us,
                    velocity=track.filter.velocity,
                    state=TrackState.CONFIRMED,
                )
            )
        self._total_active_tracks += len(self._tracks)
        return observations

    # -- internals ----------------------------------------------------------------------------

    def _start_track(self, proposal_box: BoundingBox) -> None:
        """Initialise a new Kalman track from a proposal."""
        kalman_filter = ConstantVelocityKalmanFilter(
            process_noise=self.config.process_noise,
            measurement_noise=self.config.measurement_noise,
        )
        cx, cy = proposal_box.center
        kalman_filter.initialise(cx, cy)
        track = _KalmanTrack(
            track_id=self._next_track_id,
            filter=kalman_filter,
            width=proposal_box.width,
            height=proposal_box.height,
        )
        self._tracks[track.track_id] = track
        self._next_track_id += 1
