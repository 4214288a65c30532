"""Lightweight tracer exporting Chrome trace-event JSON.

A :class:`Tracer` records complete spans (``ph: "X"`` duration events in
trace-event terms) into a bounded in-memory buffer and renders them as a
JSON document loadable straight into ``chrome://tracing`` or Perfetto
(https://ui.perfetto.dev).  That gives the pipeline a flame-graph view —
one lane per worker thread, one slice per stage per frame window — for the
cost of a ``time.perf_counter()`` pair and a dict append per span.

Design points:

* timestamps are microseconds relative to the tracer's construction, so
  traces from one process line up on a shared clock; every span carries
  ``pid`` 0, and :func:`merge_chrome_traces` re-bases nothing and instead
  assigns each source its own ``pid``;
* thread idents are mapped to small consecutive ``tid`` integers in
  first-seen order, keeping the JSON stable and compact;
* the buffer is bounded (default 200k events ≈ tens of MB of JSON); once
  full, new spans are counted as dropped rather than grown without limit —
  a tracer must never be the thing that OOMs the hub.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: Default maximum buffered events before the tracer starts dropping.
DEFAULT_BUFFER_LIMIT = 200_000


class Tracer:
    """Collects Chrome trace-event duration spans for one process or hub."""

    def __init__(self, buffer_limit: int = DEFAULT_BUFFER_LIMIT) -> None:
        if buffer_limit <= 0:
            raise ValueError(f"buffer_limit must be positive, got {buffer_limit}")
        self.buffer_limit = buffer_limit
        self._lock = threading.Lock()
        self._events: List[dict] = []
        self._dropped = 0
        self._tids: Dict[int, int] = {}
        self._epoch = time.perf_counter()

    def now_us(self) -> float:
        """Microseconds since this tracer's epoch."""
        return (time.perf_counter() - self._epoch) * 1e6

    def _tid(self) -> int:
        ident = threading.get_ident()
        tid = self._tids.get(ident)
        if tid is None:
            tid = len(self._tids)
            self._tids[ident] = tid
        return tid

    def record_span(
        self,
        name: str,
        start_us: float,
        duration_us: float,
        cat: str = "stage",
        args: Optional[dict] = None,
    ) -> None:
        """Append one complete span (``ph: "X"``) to the buffer."""
        event = {
            "name": name,
            "cat": cat,
            "ph": "X",
            "ts": start_us,
            "dur": duration_us,
            "pid": 0,
            "tid": 0,
        }
        if args:
            event["args"] = args
        with self._lock:
            event["tid"] = self._tid()
            if len(self._events) >= self.buffer_limit:
                self._dropped += 1
                return
            self._events.append(event)

    @contextmanager
    def span(
        self, name: str, cat: str = "stage", args: Optional[dict] = None
    ) -> Iterator[None]:
        """Time the enclosed block as one span."""
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.record_span(
                name,
                start_us=(start - self._epoch) * 1e6,
                duration_us=(end - start) * 1e6,
                cat=cat,
                args=args,
            )

    @property
    def dropped(self) -> int:
        """Spans discarded because the buffer was full."""
        with self._lock:
            return self._dropped

    def events(self) -> List[dict]:
        """A copy of the buffered trace events (chronological append order)."""
        with self._lock:
            return [dict(event) for event in self._events]

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def clear(self) -> None:
        """Drop all buffered events (the drop counter resets too)."""
        with self._lock:
            self._events.clear()
            self._dropped = 0

    def chrome_trace(self, process_name: Optional[str] = None) -> dict:
        """The buffered spans as a Chrome trace-event JSON document."""
        events = self.events()
        if process_name is not None:
            events.insert(
                0,
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": 0,
                    "tid": 0,
                    "args": {"name": process_name},
                },
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def merge_chrome_traces(tracks: Sequence[Tuple[str, Iterable[dict]]]) -> dict:
    """Merge several event streams into one trace, one ``pid`` per track.

    ``tracks`` is ``[(name, events), ...]`` — e.g. one entry per recording
    in a fleet run, or one per hub worker process.  Each track's events get
    a distinct ``pid`` plus a ``process_name`` metadata event so Perfetto
    shows them as separate named process groups.
    """
    merged: List[dict] = []
    for pid, (name, events) in enumerate(tracks):
        merged.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": name},
            }
        )
        for event in events:
            rebased = dict(event)
            rebased["pid"] = pid
            merged.append(rebased)
    return {"traceEvents": merged, "displayTimeUnit": "ms"}


def validate_chrome_trace(trace: dict) -> List[dict]:
    """Check a trace document's shape; returns its duration (``X``) events.

    Raises :class:`ValueError` on structural problems.  Used by tests and
    the CI obs-smoke job to assert an emitted trace is actually loadable.
    """
    if not isinstance(trace, dict) or "traceEvents" not in trace:
        raise ValueError("trace must be an object with a traceEvents array")
    events = trace["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("traceEvents must be an array")
    spans: List[dict] = []
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"traceEvents[{index}] is not an object")
        for field in ("name", "ph", "pid", "tid"):
            if field not in event:
                raise ValueError(f"traceEvents[{index}] missing field {field!r}")
        if event["ph"] == "X":
            for field in ("ts", "dur"):
                if not isinstance(event.get(field), (int, float)):
                    raise ValueError(
                        f"traceEvents[{index}] span missing numeric {field!r}"
                    )
            spans.append(event)
    return spans
