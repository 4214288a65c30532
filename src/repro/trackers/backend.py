"""The tracker-backend protocol: one incremental interface for every tracker.

The paper's headline result is comparative — EBBIOT against the EBBI+Kalman
and NN-filt+EBMS baselines (Fig. 4 / Fig. 5) — and the follow-up work
(EBBINNOT, the hybrid tracking+classification framework) iterates on exactly
this tracker-swap axis.  This module defines the abstraction that makes the
swap a one-line configuration change everywhere in the system:

* :class:`TrackerFrame` — the per-window input bundle a pipeline hands to a
  backend: the region proposals (for frame-driven trackers) *and* the raw
  window events (for event-driven trackers such as EBMS).
* :class:`TrackerBackend` — the incremental ``step`` / ``reset`` protocol.
  ``step`` consumes one :class:`TrackerFrame` and returns the frame's
  :class:`~repro.trackers.base.TrackObservation` list, so the core pipeline,
  the batch runtime and the live serving layer can drive any tracker the
  same way.

A backend has no checkpoint code of its own: a pipeline checkpoint
(:meth:`~repro.core.pipeline.EbbiotPipeline.snapshot`) holds a deep copy of
the backend object, so every field a tracker keeps is carried.  Backends
therefore keep plain, picklable state (no locks, files or callbacks).

Concrete adapters for the three paper trackers live in
:mod:`repro.trackers.registry` under the names ``"overlap"``, ``"kalman"``
and ``"ebms"``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import ClassVar, List, Optional, Sequence

import numpy as np

from repro.trackers.base import TrackObservation


@dataclass(frozen=True)
class TrackerFrame:
    """Everything a tracker backend may want from one EBBI window.

    Attributes
    ----------
    proposals:
        ROE-filtered region proposals of the window (empty when the pipeline
        skipped the RPN because the backend declared
        ``requires_proposals = False``).
    events:
        The window's raw event packet, or ``None`` when the driving pipeline
        did not materialise it (only legal for backends with
        ``requires_events = False``).
    t_start_us, t_end_us:
        Bounds of the accumulation window in microseconds.
    """

    proposals: Sequence
    events: Optional[np.ndarray]
    t_start_us: int
    t_end_us: int

    @property
    def t_mid_us(self) -> int:
        """Midpoint of the window — the timestamp tracks are reported at."""
        return (self.t_start_us + self.t_end_us) // 2


class TrackerBackend(abc.ABC):
    """Incremental tracker interface shared by core, runtime and serving.

    Class attributes
    ----------------
    name:
        Registry name of the backend (``"overlap"``, ``"kalman"``, ...).
    requires_events:
        ``True`` when :meth:`step` needs the window's raw events (the
        event-driven EBMS backend); pipelines must then populate
        :attr:`TrackerFrame.events`.
    requires_proposals:
        ``False`` when the backend ignores region proposals, letting the
        pipeline skip the RPN + ROE stages entirely for that tracker.
    """

    name: ClassVar[str] = "abstract"
    requires_events: ClassVar[bool] = False
    requires_proposals: ClassVar[bool] = True

    @abc.abstractmethod
    def step(self, frame: TrackerFrame) -> List[TrackObservation]:
        """Advance the tracker by one frame window; return its active tracks."""

    @abc.abstractmethod
    def reset(self) -> None:
        """Clear all tracker state and statistics."""

    @property
    @abc.abstractmethod
    def num_active_tracks(self) -> int:
        """Number of currently allocated tracks."""

    @property
    @abc.abstractmethod
    def mean_active_trackers(self) -> float:
        """Mean active tracks per frame (the paper's ``NT`` statistic)."""

    # -- shared helpers -------------------------------------------------------------------

    def _require_events(self, frame: TrackerFrame) -> np.ndarray:
        """The frame's events, or a clear error if the pipeline withheld them."""
        if frame.events is None:
            raise ValueError(
                f"backend {self.name!r} requires per-window events but the "
                "frame carries none"
            )
        return frame.events
