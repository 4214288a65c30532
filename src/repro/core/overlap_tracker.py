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

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.histogram_rpn import RegionProposal
from repro.trackers.base import TrackObservation
from repro.utils.geometry import BoundingBox


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
        Trackers younger than this many frames are not reported, which
        suppresses one-frame noise tracks.
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


class _TrackerSlot:
    """One tracker slot: the paper's ``Ti`` position vector and its counters.

    The box is kept as plain floats (bottom-left corner ``x, y`` and extents
    ``w, h``) with the velocity ``vx, vy`` in pixels per frame; a
    :class:`BoundingBox` is built only for a reported observation.
    """

    __slots__ = ("track_id", "x", "y", "w", "h", "vx", "vy", "age_frames", "missed_frames")

    def __init__(self, track_id: int, x: float, y: float, w: float, h: float) -> None:
        self.track_id = track_id
        self.x = x
        self.y = y
        self.w = w
        self.h = h
        self.vx = 0.0
        self.vy = 0.0
        self.age_frames = 0
        self.missed_frames = 0


#: A proposal as ``(x, y, x2, y2, width, height)``, its box's fields read once.
_Edges = Tuple[float, float, float, float, float, float]


class OverlapTracker:
    """The EBBIOT overlap-based multi-object tracker.

    The per-frame arithmetic runs on plain floats, with the operations of
    :mod:`repro.utils.geometry` in the same order: a right edge is
    ``x + width``, an overlap is ``min`` of the right edges less ``max`` of
    the left edges, and a merge is ``BoundingBox.from_corners`` over the
    min/max edges.  One frame ahead, the predicted corner is ``x + vx``
    (``vx * 1`` is ``vx`` exactly).
    """

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
        config = self.config
        edges: List[_Edges] = []
        for proposal in proposals:
            box = proposal.box
            x, y, width, height = box.x, box.y, box.width, box.height
            edges.append((x, y, x + width, y + height, width, height))

        # Steps 1-2: predict each valid tracker one frame ahead and match the
        # prediction against the proposals by overlap: a match needs the
        # overlap area to reach a fraction of either box's area.
        threshold = config.overlap_threshold
        matches_by_proposal: List[List[_TrackerSlot]] = [[] for _ in edges]
        matches_by_tracker: List[Tuple[_TrackerSlot, List[int]]] = []
        for slot in self._slots.values():
            px = slot.x + slot.vx
            py = slot.y + slot.vy
            px2 = px + slot.w
            py2 = py + slot.h
            own_share = threshold * (slot.w * slot.h)
            matched: List[int] = []
            for index, (bx, by, bx2, by2, bw, bh) in enumerate(edges):
                overlap_w = (bx2 if bx2 < px2 else px2) - (bx if bx > px else px)
                if overlap_w <= 0:
                    continue
                overlap_h = (by2 if by2 < py2 else py2) - (by if by > py else py)
                if overlap_h <= 0:
                    continue
                overlap = overlap_w * overlap_h
                if overlap > 0 and (overlap >= own_share or overlap >= threshold * (bw * bh)):
                    matched.append(index)
                    matches_by_proposal[index].append(slot)
            matches_by_tracker.append((slot, matched))

        handled: Set[_TrackerSlot] = set()
        consumed: Set[int] = set()

        # Step 5 first: proposals matched by multiple trackers — occlusion or
        # earlier fragmentation.  Handling these before step 4 keeps each
        # tracker updated exactly once per frame.
        for index, matching_slots in enumerate(matches_by_proposal):
            involved = [slot for slot in matching_slots if slot not in handled]
            if len(involved) < 2:
                continue
            if self._predicts_occlusion(involved):
                self._occlusions_detected += 1
                for slot in involved:
                    slot.x += slot.vx
                    slot.y += slot.vy
            else:
                x, y, _, _, width, height = edges[index]
                self._merge_trackers(involved, x, y, width, height)
                self._merges_performed += len(involved) - 1
            handled.update(involved)
            # The occluded pair or the merged survivor consumed the proposal;
            # it seeds no new tracker.
            consumed.add(index)

        # Step 4: trackers matched to one or more proposals take their
        # merged box; the others coast on their prediction, and a tracker
        # matched by nothing accumulates a miss and is freed after too many.
        max_missed = config.max_missed_frames
        for slot, matched in matches_by_tracker:
            if slot in handled:
                continue
            available = [index for index in matched if index not in consumed]
            if available:
                self._update_from_proposal(slot, *_enclosing(edges, available))
                consumed.update(available)
                continue
            if not matched:
                slot.missed_frames += 1
                if slot.missed_frames > max_missed:
                    del self._slots[slot.track_id]
                    continue
            slot.x += slot.vx
            slot.y += slot.vy

        # Step 3: seed new trackers from the proposals no tracker matched.
        for index, matching_slots in enumerate(matches_by_proposal):
            if matching_slots:
                continue
            if len(self._slots) >= config.max_trackers:
                break
            x, y, _, _, width, height = edges[index]
            self._slots[self._next_track_id] = _TrackerSlot(
                self._next_track_id, x, y, width, height
            )
            self._next_track_id += 1

        # Age bookkeeping and output of the confirmed trackers.
        observations: List[TrackObservation] = []
        min_age = config.min_track_age_frames
        for slot in self._slots.values():
            slot.age_frames += 1
            if slot.age_frames >= min_age:
                observations.append(
                    TrackObservation(
                        slot.track_id,
                        BoundingBox(slot.x, slot.y, slot.w, slot.h),
                        t_us,
                        (slot.vx, slot.vy),
                    )
                )
        self._total_active_trackers += len(self._slots)
        return observations

    # -- internals -------------------------------------------------------------------------

    def _predicts_occlusion(self, slots: Sequence[_TrackerSlot]) -> bool:
        """``True`` when any pair of trackers is predicted to overlap soon.

        The paper extrapolates the predicted trajectories up to ``n = 2``
        future time steps; if they overlap the shared proposal is attributed
        to dynamic occlusion rather than fragmentation.  Trackers that are
        (nearly) stationary relative to each other are treated as fragments.
        """
        lookahead = self.config.occlusion_lookahead_frames
        for i, a in enumerate(slots):
            for b in slots[i + 1:]:
                relative_speed = abs(a.vx - b.vx) + abs(a.vy - b.vy)
                if relative_speed < 0.5:
                    # Moving together: almost certainly fragments of one object.
                    continue
                for step in range(1, lookahead + 1):
                    ax = a.x + a.vx * step
                    bx = b.x + b.vx * step
                    ax2 = ax + a.w
                    bx2 = bx + b.w
                    overlap_w = (bx2 if bx2 < ax2 else ax2) - (bx if bx > ax else ax)
                    if overlap_w <= 0:
                        continue
                    ay = a.y + a.vy * step
                    by = b.y + b.vy * step
                    ay2 = ay + a.h
                    by2 = by + b.h
                    overlap_h = (by2 if by2 < ay2 else ay2) - (by if by > ay else ay)
                    if overlap_h > 0 and overlap_w * overlap_h > 0:
                        return True
        return False

    def _update_from_proposal(
        self, slot: _TrackerSlot, x: float, y: float, width: float, height: float
    ) -> None:
        """Blend prediction and proposal into the corrected tracker state."""
        weight = self.config.prediction_weight
        new_x = weight * (slot.x + slot.vx) + (1 - weight) * x
        new_y = weight * (slot.y + slot.vy) + (1 - weight) * y
        size_weight = self.config.size_smoothing
        new_w = size_weight * slot.w + (1 - size_weight) * width
        new_h = size_weight * slot.h + (1 - size_weight) * height
        smoothing = self.config.velocity_smoothing
        slot.vx = smoothing * slot.vx + (1 - smoothing) * (new_x - slot.x)
        slot.vy = smoothing * slot.vy + (1 - smoothing) * (new_y - slot.y)
        slot.x, slot.y, slot.w, slot.h = new_x, new_y, new_w, new_h
        slot.missed_frames = 0

    def _merge_trackers(
        self, slots: Sequence[_TrackerSlot], x: float, y: float, width: float, height: float
    ) -> None:
        """Merge fragmented trackers into the oldest one and free the rest."""
        survivor = max(slots, key=lambda slot: (slot.age_frames, -slot.track_id))
        # Average the velocities of the merged trackers (they belong to the
        # same physical object).
        survivor.vx = sum(slot.vx for slot in slots) / len(slots)
        survivor.vy = sum(slot.vy for slot in slots) / len(slots)
        self._update_from_proposal(survivor, x, y, width, height)
        for slot in slots:
            if slot is not survivor:
                del self._slots[slot.track_id]


def _enclosing(
    edges: Sequence[_Edges], indices: Sequence[int]
) -> Tuple[float, float, float, float]:
    """``merge_boxes`` of the proposals at ``indices`` as ``(x, y, width, height)``."""
    x1 = min(edges[index][0] for index in indices)
    y1 = min(edges[index][1] for index in indices)
    x2 = max(edges[index][2] for index in indices)
    y2 = max(edges[index][3] for index in indices)
    left, right = min(x1, x2), max(x1, x2)
    bottom, top = min(y1, y2), max(y1, y2)
    return left, bottom, right - left, top - bottom
