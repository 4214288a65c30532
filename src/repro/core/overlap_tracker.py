"""Overlap-based tracker (OT) — Section II-C of the paper.

Up to ``NT = 8`` trackers are active at a time.  Every frame the tracker:

1. predicts each valid tracker's position by adding its velocity to its
   previous position;
2. matches predictions against region proposals by overlap — a match is
   declared when the overlap area exceeds a fraction of either the predicted
   tracker box or the proposal box;
3. seeds new trackers from unmatched proposals while free tracker slots
   remain;
4. when a tracker matches one or more proposals, merges the proposals
   (repairing fragmentation using the tracker's history) and updates
   position and velocity as a weighted average of prediction and proposal;
5. when several trackers match the same proposal, distinguishes *dynamic
   occlusion* (their predicted trajectories overlap within the next ``n = 2``
   frames — each tracker coasts on its prediction with velocity retained)
   from *fragmentation* (the trackers are merged into one and the extra
   slots are freed).

The implementation is deliberately simple and register-friendly, mirroring
the paper's claim that the tracker state fits in well under 0.5 kB.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.histogram_rpn import RegionProposal
from repro.trackers.base import TrackObservation, TrackState
from repro.utils.geometry import BoundingBox, merge_boxes


@dataclass
class OverlapTrackerConfig:
    """Parameters of the overlap tracker.

    Parameters
    ----------
    max_trackers:
        Maximum simultaneous trackers ``NT``.
    overlap_threshold:
        Fraction of the predicted-tracker or proposal area that must overlap
        for a match.
    prediction_weight:
        Weight given to the prediction when blending with the matched
        proposal (position and size); ``0`` trusts proposals entirely,
        ``1`` trusts predictions entirely.
    velocity_smoothing:
        Exponential smoothing factor for velocity updates (weight of the old
        velocity).
    occlusion_lookahead_frames:
        Number of future frames ``n`` over which predicted trajectories are
        extrapolated when testing for dynamic occlusion.
    min_track_age_frames:
        Trackers younger than this are reported as tentative and excluded
        from the confirmed output, which suppresses one-frame noise tracks.
    max_missed_frames:
        Consecutive unmatched frames after which a tracker is freed.
    size_smoothing:
        Exponential smoothing factor for box size updates; large values keep
        the remembered full extent of a fragmented object.
    """

    max_trackers: int = 8
    overlap_threshold: float = 0.25
    prediction_weight: float = 0.5
    velocity_smoothing: float = 0.7
    occlusion_lookahead_frames: int = 2
    min_track_age_frames: int = 2
    max_missed_frames: int = 3
    size_smoothing: float = 0.6

    def __post_init__(self) -> None:
        if self.max_trackers < 1:
            raise ValueError(f"max_trackers must be >= 1, got {self.max_trackers}")
        if not 0.0 < self.overlap_threshold <= 1.0:
            raise ValueError(
                f"overlap_threshold must be in (0, 1], got {self.overlap_threshold}"
            )
        for name in ("prediction_weight", "velocity_smoothing", "size_smoothing"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.occlusion_lookahead_frames < 0:
            raise ValueError("occlusion_lookahead_frames must be non-negative")
        if self.min_track_age_frames < 0:
            raise ValueError("min_track_age_frames must be non-negative")
        if self.max_missed_frames < 0:
            raise ValueError("max_missed_frames must be non-negative")


@dataclass
class _TrackerSlot:
    """Internal state of one tracker slot (the ``Ti`` position vector)."""

    track_id: int
    box: BoundingBox
    velocity: Tuple[float, float] = (0.0, 0.0)
    age_frames: int = 0
    missed_frames: int = 0
    hits: int = 1

    def predicted_box(self, frames_ahead: int = 1) -> BoundingBox:
        """Predicted box ``frames_ahead`` frames into the future."""
        return self.box.translated(
            self.velocity[0] * frames_ahead, self.velocity[1] * frames_ahead
        )


@dataclass(frozen=True)
class TrackerState:
    """Immutable snapshot of an :class:`OverlapTracker`'s full state.

    Mirrors the paper's point that the whole tracker state is tiny (well
    under 0.5 kB): a handful of slots plus counters.  Produced by
    :meth:`OverlapTracker.snapshot` and consumed by
    :meth:`OverlapTracker.restore`; the serving layer uses it to
    checkpoint/migrate live sensor sessions.
    """

    slots: Tuple[_TrackerSlot, ...]
    next_track_id: int
    frames_processed: int
    total_active_trackers: int
    occlusions_detected: int
    merges_performed: int


class OverlapTracker:
    """The EBBIOT overlap-based multi-object tracker."""

    def __init__(self, config: Optional[OverlapTrackerConfig] = None) -> None:
        self.config = config or OverlapTrackerConfig()
        self._slots: Dict[int, _TrackerSlot] = {}
        self._next_track_id = 1
        self._frames_processed = 0
        self._total_active_trackers = 0
        self._occlusions_detected = 0
        self._merges_performed = 0

    # -- per-frame interface ----------------------------------------------------------

    def reset(self) -> None:
        """Clear all tracker slots and statistics."""
        self._slots.clear()
        self._next_track_id = 1
        self._frames_processed = 0
        self._total_active_trackers = 0
        self._occlusions_detected = 0
        self._merges_performed = 0

    @property
    def num_active_tracks(self) -> int:
        """Number of allocated tracker slots."""
        return len(self._slots)

    def snapshot(self) -> TrackerState:
        """Capture the complete tracker state (slots deep-copied)."""
        return TrackerState(
            slots=tuple(replace(slot) for slot in self._slots.values()),
            next_track_id=self._next_track_id,
            frames_processed=self._frames_processed,
            total_active_trackers=self._total_active_trackers,
            occlusions_detected=self._occlusions_detected,
            merges_performed=self._merges_performed,
        )

    def restore(self, state: TrackerState) -> None:
        """Reinstate a previously captured :class:`TrackerState`."""
        self._slots = {slot.track_id: replace(slot) for slot in state.slots}
        self._next_track_id = state.next_track_id
        self._frames_processed = state.frames_processed
        self._total_active_trackers = state.total_active_trackers
        self._occlusions_detected = state.occlusions_detected
        self._merges_performed = state.merges_performed

    @property
    def free_slots(self) -> int:
        """Number of tracker slots still available."""
        return self.config.max_trackers - len(self._slots)

    # -- statistics ---------------------------------------------------------------------

    @property
    def frames_processed(self) -> int:
        """Number of frames processed since the last reset."""
        return self._frames_processed

    @property
    def mean_active_trackers(self) -> float:
        """Mean number of active trackers per frame (the paper's ``NT`` ≈ 2)."""
        if self._frames_processed == 0:
            return 0.0
        return self._total_active_trackers / self._frames_processed

    @property
    def occlusions_detected(self) -> int:
        """Count of dynamic-occlusion events handled."""
        return self._occlusions_detected

    @property
    def merges_performed(self) -> int:
        """Count of fragmentation merges performed."""
        return self._merges_performed

    # -- main per-frame update -----------------------------------------------------------

    def process_frame(
        self, proposals: Sequence[RegionProposal], t_us: int
    ) -> List[TrackObservation]:
        """Run one overlap-tracker update.

        Parameters
        ----------
        proposals:
            Region proposals for the current frame (already ROE filtered).
        t_us:
            Frame timestamp (midpoint of the accumulation window), attached
            to the reported observations.

        Returns
        -------
        list of TrackObservation
            One observation per confirmed tracker after the update.
        """
        self._frames_processed += 1
        proposal_boxes = [p.box for p in proposals]

        # Step 1: predict all valid trackers one frame ahead.
        predictions: Dict[int, BoundingBox] = {
            track_id: slot.predicted_box(1) for track_id, slot in self._slots.items()
        }

        # Step 2: overlap matching between predictions and proposals.
        matches_by_tracker: Dict[int, List[int]] = {tid: [] for tid in self._slots}
        matches_by_proposal: Dict[int, List[int]] = {
            index: [] for index in range(len(proposal_boxes))
        }
        for track_id, predicted in predictions.items():
            for index, proposal_box in enumerate(proposal_boxes):
                if self._is_match(predicted, proposal_box):
                    matches_by_tracker[track_id].append(index)
                    matches_by_proposal[index].append(track_id)

        handled_trackers: Set[int] = set()
        handled_proposals: Set[int] = set()

        # Step 5 first: proposals matched by multiple trackers — occlusion or
        # earlier fragmentation.  Handling these before step 4 keeps each
        # tracker updated exactly once per frame.
        for index, tracker_ids in matches_by_proposal.items():
            involved = [tid for tid in tracker_ids if tid not in handled_trackers]
            if len(involved) < 2:
                continue
            if self._predicts_occlusion(involved):
                self._occlusions_detected += 1
                for track_id in involved:
                    self._coast_on_prediction(track_id)
                    handled_trackers.add(track_id)
                # The proposal is consumed by the occluded pair; do not seed
                # a new tracker from it.
                handled_proposals.add(index)
            else:
                survivor = self._merge_trackers(involved, proposal_boxes[index])
                handled_trackers.update(involved)
                handled_proposals.add(index)
                self._merges_performed += len(involved) - 1
                # The surviving tracker has been updated from this proposal.
                handled_trackers.add(survivor)

        # Step 4: trackers matched to one or more proposals.
        for track_id, proposal_indices in matches_by_tracker.items():
            if track_id in handled_trackers:
                continue
            available = [i for i in proposal_indices if i not in handled_proposals]
            if not available:
                if proposal_indices:
                    # All its proposals were consumed by an occlusion group.
                    self._coast_on_prediction(track_id)
                    handled_trackers.add(track_id)
                continue
            merged_proposal = merge_boxes([proposal_boxes[i] for i in available])
            self._update_from_proposal(track_id, merged_proposal)
            handled_trackers.add(track_id)
            handled_proposals.update(available)

        # Unmatched trackers coast on their prediction and accumulate misses.
        for track_id in list(self._slots.keys()):
            if track_id in handled_trackers:
                continue
            slot = self._slots[track_id]
            slot.missed_frames += 1
            if slot.missed_frames > self.config.max_missed_frames:
                del self._slots[track_id]
            else:
                self._coast_on_prediction(track_id, count_missed=False)

        # Step 3: seed new trackers from unmatched proposals.
        for index, proposal_box in enumerate(proposal_boxes):
            if index in handled_proposals or matches_by_proposal[index]:
                continue
            if len(self._slots) >= self.config.max_trackers:
                break
            self._seed_tracker(proposal_box)

        # Age bookkeeping and output.
        observations: List[TrackObservation] = []
        for slot in self._slots.values():
            slot.age_frames += 1
            confirmed = slot.age_frames >= self.config.min_track_age_frames
            state = TrackState.CONFIRMED if confirmed else TrackState.TENTATIVE
            if confirmed:
                observations.append(
                    TrackObservation(
                        track_id=slot.track_id,
                        box=slot.box,
                        t_us=t_us,
                        velocity=slot.velocity,
                        state=state,
                    )
                )
        self._total_active_trackers += len(self._slots)
        return observations

    # -- internals -------------------------------------------------------------------------

    def _is_match(self, predicted: BoundingBox, proposal: BoundingBox) -> bool:
        """Overlap test: overlap area vs a fraction of either box's area."""
        overlap = predicted.intersection_area(proposal)
        if overlap <= 0:
            return False
        threshold = self.config.overlap_threshold
        return (
            overlap >= threshold * predicted.area or overlap >= threshold * proposal.area
        )

    def _predicts_occlusion(self, tracker_ids: Sequence[int]) -> bool:
        """``True`` when any pair of trackers is predicted to overlap soon.

        The paper extrapolates the predicted trajectories up to ``n = 2``
        future time steps; if they overlap the shared proposal is attributed
        to dynamic occlusion rather than fragmentation.  Trackers that are
        (nearly) stationary relative to each other are treated as fragments.
        """
        lookahead = self.config.occlusion_lookahead_frames
        for i in range(len(tracker_ids)):
            for j in range(i + 1, len(tracker_ids)):
                slot_i = self._slots[tracker_ids[i]]
                slot_j = self._slots[tracker_ids[j]]
                relative_speed = abs(slot_i.velocity[0] - slot_j.velocity[0]) + abs(
                    slot_i.velocity[1] - slot_j.velocity[1]
                )
                if relative_speed < 0.5:
                    # Moving together: almost certainly fragments of one object.
                    continue
                for step in range(1, lookahead + 1):
                    box_i = slot_i.predicted_box(step)
                    box_j = slot_j.predicted_box(step)
                    if box_i.intersection_area(box_j) > 0:
                        return True
        return False

    def _coast_on_prediction(self, track_id: int, count_missed: bool = False) -> None:
        """Update a tracker entirely from its prediction (occlusion case)."""
        slot = self._slots[track_id]
        slot.box = slot.predicted_box(1)
        if count_missed:
            slot.missed_frames += 1

    def _update_from_proposal(self, track_id: int, proposal: BoundingBox) -> None:
        """Blend prediction and proposal into the corrected tracker state."""
        slot = self._slots[track_id]
        predicted = slot.predicted_box(1)
        weight = self.config.prediction_weight
        new_x = weight * predicted.x + (1 - weight) * proposal.x
        new_y = weight * predicted.y + (1 - weight) * proposal.y
        size_weight = self.config.size_smoothing
        new_w = size_weight * slot.box.width + (1 - size_weight) * proposal.width
        new_h = size_weight * slot.box.height + (1 - size_weight) * proposal.height
        new_box = BoundingBox(new_x, new_y, new_w, new_h)

        observed_velocity = (new_box.x - slot.box.x, new_box.y - slot.box.y)
        smoothing = self.config.velocity_smoothing
        slot.velocity = (
            smoothing * slot.velocity[0] + (1 - smoothing) * observed_velocity[0],
            smoothing * slot.velocity[1] + (1 - smoothing) * observed_velocity[1],
        )
        slot.box = new_box
        slot.missed_frames = 0
        slot.hits += 1

    def _merge_trackers(self, tracker_ids: Sequence[int], proposal: BoundingBox) -> int:
        """Merge fragmented trackers into the oldest one; free the rest.

        Returns the id of the surviving tracker.
        """
        survivor_id = max(
            tracker_ids, key=lambda tid: (self._slots[tid].age_frames, -tid)
        )
        # Average the velocities of the merged trackers (they belong to the
        # same physical object).
        vx = sum(self._slots[tid].velocity[0] for tid in tracker_ids) / len(tracker_ids)
        vy = sum(self._slots[tid].velocity[1] for tid in tracker_ids) / len(tracker_ids)
        survivor = self._slots[survivor_id]
        survivor.velocity = (vx, vy)
        self._update_from_proposal(survivor_id, proposal)
        for track_id in tracker_ids:
            if track_id != survivor_id:
                del self._slots[track_id]
        return survivor_id

    def _seed_tracker(self, proposal: BoundingBox) -> None:
        """Seed a new tracker slot from an unmatched proposal."""
        slot = _TrackerSlot(track_id=self._next_track_id, box=proposal)
        self._slots[slot.track_id] = slot
        self._next_track_id += 1
