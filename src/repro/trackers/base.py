"""Track output data structures shared by every tracker.

Every tracker in this library — the EBBIOT overlap tracker, the Kalman
filter baseline and the EBMS baseline — reports its per-frame output as a
list of :class:`TrackObservation` so the evaluation harness can treat them
uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Sequence

from repro.utils.geometry import BoundingBox


class TrackState(str, Enum):
    """Lifecycle state of a track."""

    CONFIRMED = "confirmed"
    LOST = "lost"


@dataclass(frozen=True)
class TrackObservation:
    """One tracker box reported at one frame instant.

    Attributes
    ----------
    track_id:
        Stable identifier of the track within its tracker.
    box:
        Reported bounding box.
    t_us:
        Time of the report (frame midpoint).
    velocity:
        Estimated velocity ``(vx, vy)`` in pixels per frame, when available.
    state:
        Lifecycle state of the track at this instant.
    """

    track_id: int
    box: BoundingBox
    t_us: int
    velocity: Optional[tuple] = None
    state: TrackState = TrackState.CONFIRMED

    def to_dict(self) -> dict:
        """JSON-serialisable representation."""
        return {
            "track_id": self.track_id,
            "t_us": self.t_us,
            "x": self.box.x,
            "y": self.box.y,
            "width": self.box.width,
            "height": self.box.height,
            "velocity": list(self.velocity) if self.velocity is not None else None,
            "state": self.state.value,
        }


@dataclass
class TrackHistory:
    """Accumulated per-track output over a whole recording."""

    observations: List[TrackObservation] = field(default_factory=list)

    def append(self, observation: TrackObservation) -> None:
        """Add one observation."""
        self.observations.append(observation)

    def extend(self, observations: Sequence[TrackObservation]) -> None:
        """Add several observations."""
        self.observations.extend(observations)

    def track_ids(self) -> List[int]:
        """Distinct track ids present in the history."""
        return sorted({o.track_id for o in self.observations})

    def __len__(self) -> int:
        return len(self.observations)
