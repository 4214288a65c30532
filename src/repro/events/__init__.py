"""Event-camera data substrate: event packets, streams, IO, noise and filters.

A neuromorphic vision sensor (NVS) outputs a stream of events
``e_i = (x_i, y_i, t_i, p_i)`` whenever the log-intensity at a pixel changes
by more than a threshold (Section II of the paper).  This package provides
the event data structures shared by the simulator, the EBBIOT pipeline and
the event-driven baselines.
"""

from repro.events.filters import NearestNeighbourFilter
from repro.events.io import (
    EVENT_FORMATS,
    EventFormat,
    load_events,
    load_events_aedat2,
    load_events_csv,
    load_events_npz,
    load_events_txt,
    save_events_aedat2,
    save_events_csv,
    save_events_npz,
    save_events_txt,
)
from repro.events.noise import BackgroundActivityNoise, HotPixelNoise
from repro.events.stream import (
    EventBuffer,
    EventStream,
    FrameIndex,
    frame_boundaries,
)
from repro.events.types import (
    EVENT_DTYPE,
    OFF_POLARITY,
    ON_POLARITY,
    concatenate_packets,
    empty_packet,
    make_packet,
    normalize_packet,
)

__all__ = [
    "EVENT_DTYPE",
    "ON_POLARITY",
    "OFF_POLARITY",
    "make_packet",
    "empty_packet",
    "concatenate_packets",
    "normalize_packet",
    "EventBuffer",
    "EventStream",
    "FrameIndex",
    "frame_boundaries",
    "BackgroundActivityNoise",
    "HotPixelNoise",
    "NearestNeighbourFilter",
    "EVENT_FORMATS",
    "EventFormat",
    "load_events",
    "save_events_npz",
    "load_events_npz",
    "save_events_csv",
    "load_events_csv",
    "save_events_aedat2",
    "load_events_aedat2",
    "save_events_txt",
    "load_events_txt",
]
