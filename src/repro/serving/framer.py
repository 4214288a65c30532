"""Online framing of live event batches into EBBI windows.

Batch replay (:meth:`~repro.core.pipeline.EbbiotPipeline.process_stream`)
sees the whole recording up front and can resolve every window boundary at
once.  A live sensor instead delivers events in small batches, possibly out
of order by a bounded amount (network reordering, per-chip readout skew).
:class:`OnlineFramer` reproduces the paper's interrupt-driven ``tF``
windowing under those conditions:

* incoming batches are spooled in an :class:`~repro.events.stream.EventBuffer`;
* a *watermark* trails the largest timestamp seen by ``reorder_slack_us``;
  a window ``[start, end)`` closes only once ``end <= watermark``, so any
  event delayed by at most the slack still lands in its correct window;
* events that arrive after their window closed (later than the slack allows)
  are dropped and counted — the explicit, bounded-loss policy a real
  ingestion node needs.

Windows start at ``t = 0``, the grid :meth:`EventStream.frame_index` uses
too.  With in-order input (or disorder within the slack) the sequence of
closed windows is therefore **identical** to what ``frame_index`` produces
for the completed recording, whenever its first event arrives, which is the
property the serving equivalence tests assert.

A framer has no checkpoint code of its own: a session's migration envelope
holds a deep copy of the whole framer, spool included (see
:meth:`~repro.serving.session.SensorSession.export_migration`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.events.stream import EventBuffer, frame_boundaries
from repro.events.types import empty_packet, normalize_packet


@dataclass(frozen=True)
class ClosedWindow:
    """One completed EBBI accumulation window emitted by the framer."""

    frame_index: int
    t_start_us: int
    t_end_us: int
    events: np.ndarray

    @property
    def num_events(self) -> int:
        """Number of events that landed in the window."""
        return len(self.events)


class OnlineFramer:
    """Turns an unordered live event feed into closed ``tF`` windows.

    The first window starts at ``t = 0``, as in batch replay.

    Parameters
    ----------
    frame_duration_us:
        EBBI window length ``tF`` in microseconds.
    reorder_slack_us:
        Maximum tolerated arrival disorder: an event may arrive this much
        (stream-time) after later-stamped events and still be framed
        correctly.  Larger slack delays window closure by the same amount.
    """

    def __init__(self, frame_duration_us: int = 66_000, reorder_slack_us: int = 5_000) -> None:
        if frame_duration_us <= 0:
            raise ValueError(
                f"frame_duration_us must be positive, got {frame_duration_us}"
            )
        if reorder_slack_us < 0:
            raise ValueError(
                f"reorder_slack_us must be non-negative, got {reorder_slack_us}"
            )
        self.frame_duration_us = frame_duration_us
        self.reorder_slack_us = reorder_slack_us
        self._buffer = EventBuffer()
        self._next_window_start = 0
        self._next_frame_index = 0
        self._late_events = 0
        self._events_accepted = 0

    # -- state ---------------------------------------------------------------------------

    @property
    def frames_closed(self) -> int:
        """Number of windows closed so far."""
        return self._next_frame_index

    @property
    def late_events(self) -> int:
        """Events dropped because their window had already closed."""
        return self._late_events

    @property
    def events_accepted(self) -> int:
        """Events accepted into the buffer (excludes late drops)."""
        return self._events_accepted

    @property
    def events_pending(self) -> int:
        """Events buffered but not yet emitted in a closed window."""
        return len(self._buffer)

    @property
    def watermark_us(self) -> Optional[int]:
        """Current watermark (largest seen timestamp minus the slack)."""
        if self._buffer.max_seen_t is None:
            return None
        return self._buffer.max_seen_t - self.reorder_slack_us

    # -- ingestion -----------------------------------------------------------------------

    def append(self, events: np.ndarray) -> List[ClosedWindow]:
        """Ingest one batch and return any windows it allowed to close."""
        events = normalize_packet(events)
        if len(events):
            late = events["t"] < self._next_window_start
            num_late = int(late.sum())
            if num_late:
                self._late_events += num_late
                events = events[~late]
            self._events_accepted += len(events)
            self._buffer.append(events)
        return self._close_through(self.watermark_us)

    def flush(self) -> List[ClosedWindow]:
        """Close every window needed to cover the buffered events.

        Call at end of stream; afterwards the framer is ready for a new
        recording starting at the next window boundary.
        """
        max_seen = self._buffer.max_seen_t
        if max_seen is None or max_seen < self._next_window_start:
            return []
        return self._close_through(max_seen + 1, force=True)

    # -- internals -----------------------------------------------------------------------

    def _close_through(
        self, horizon_us: Optional[int], force: bool = False
    ) -> List[ClosedWindow]:
        """Close all windows with ``end <= horizon`` (``end > horizon`` too
        for the final forced window of a flush)."""
        if horizon_us is None:
            return []
        span = horizon_us - self._next_window_start
        if force:
            num_windows = -(-span // self.frame_duration_us)
        else:
            num_windows = span // self.frame_duration_us
        if num_windows <= 0:
            return []
        last_end = self._next_window_start + num_windows * self.frame_duration_us
        drained = self._buffer.drain_until(last_end)
        if len(drained) == 0:
            drained = empty_packet()
        edges, splits = frame_boundaries(
            drained["t"], self.frame_duration_us, self._next_window_start, last_end
        )
        windows = [
            ClosedWindow(
                frame_index=self._next_frame_index + i,
                t_start_us=int(edges[i]),
                t_end_us=int(edges[i + 1]),
                events=drained[splits[i] : splits[i + 1]],
            )
            for i in range(len(edges) - 1)
        ]
        self._next_frame_index += len(windows)
        self._next_window_start = last_end
        return windows
