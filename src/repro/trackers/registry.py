"""String registry of tracker backends: ``"overlap"``, ``"kalman"``, ``"ebms"``.

Every layer of the system selects its tracker through this registry —
``EbbiotConfig(tracker="kalman")`` is all it takes to run the paper's
EBBI+KF baseline through the core pipeline, the batch runtime fleet and the
live serving layer.  Each adapter wraps one of the repo's trackers behind
the :class:`~repro.trackers.backend.TrackerBackend` protocol:

* :class:`OverlapBackend` (``"overlap"``) — the paper's contribution, the
  overlap tracker of Section II-C (default everywhere; Fig. 4/5 "EBBIOT").
* :class:`KalmanBackend` (``"kalman"``) — the EBBI+KF comparison tracker
  (Fig. 4/5 "EBBI+KF"): the same EBBI + RPN front end feeding a
  constant-velocity Kalman multi-object tracker.
* :class:`EbmsBackend` (``"ebms"``) — the fully event-driven NN-filt+EBMS
  baseline (Fig. 4/5 "NNfilt+EBMS").  It declares
  ``requires_proposals = False`` / ``requires_events = True``: the pipeline
  skips the RPN entirely and instead hands each window's raw events to the
  backend, which runs its own stateful nearest-neighbour filter before the
  mean-shift clusters — the event-driven pipeline of Section II-A.

The registry is a fixed mapping of these three names.  Each backend is
built from the full :class:`~repro.core.config.EbbiotConfig`, mapping the
shared knobs (``max_trackers``, lifecycle frames, sensor geometry) onto its
own configuration.  An adapter has no checkpoint code: a pipeline
checkpoint is a deep copy of the adapter, the wrapped tracker and the EBMS
backend's filter memory included.
"""

from __future__ import annotations

from typing import List, Tuple, Union

from repro.events.filters import NearestNeighbourFilter
from repro.trackers.backend import TrackerBackend, TrackerFrame
from repro.trackers.base import TrackObservation
from repro.trackers.ebms import EbmsConfig, EbmsTracker
from repro.trackers.kalman_tracker import KalmanFilterTracker, KalmanTrackerConfig

# -- registry API ----------------------------------------------------------------------


def available_backends() -> Tuple[str, ...]:
    """Registered backend names, sorted for stable CLI/docs output."""
    return tuple(sorted(_REGISTRY))


def ensure_backend_name(name: str) -> str:
    """Validate a backend name against the registry; return it unchanged."""
    if name not in _REGISTRY:
        raise ValueError(
            f"unknown tracker backend {name!r}; available: "
            f"{', '.join(available_backends())}"
        )
    return name


def parse_backend_list(spec: str) -> List[str]:
    """Parse a CLI-style ``NAME[,NAME...]`` backend list and validate it.

    Shared by the runtime/serving CLIs and the shoot-out benchmark so the
    flag grammar and error text cannot drift between them.
    """
    names = [name.strip() for name in spec.split(",") if name.strip()]
    if not names:
        raise ValueError("expected at least one tracker backend name")
    for name in names:
        ensure_backend_name(name)
    return names


def create_backend(
    spec: Union[str, TrackerBackend], config: "EbbiotConfig"
) -> TrackerBackend:
    """Build a backend from a registry name (or pass an instance through).

    Accepting a ready :class:`TrackerBackend` instance lets tests and
    experiments inject custom trackers.
    """
    if isinstance(spec, TrackerBackend):
        return spec
    ensure_backend_name(spec)
    return _REGISTRY[spec](config)


# -- the three paper backends ----------------------------------------------------------


class OverlapBackend(TrackerBackend):
    """The EBBIOT overlap tracker (Section II-C) behind the backend protocol."""

    name = "overlap"
    requires_events = False
    requires_proposals = True

    def __init__(self, config: "EbbiotConfig") -> None:
        # Deferred import: repro.core.overlap_tracker pulls in the core
        # package, which imports this module back through the pipeline.
        from repro.core.overlap_tracker import OverlapTracker, OverlapTrackerConfig

        self.tracker = OverlapTracker(
            OverlapTrackerConfig(
                max_trackers=config.max_trackers,
                overlap_threshold=config.overlap_threshold,
                prediction_weight=config.prediction_weight,
                occlusion_lookahead_frames=config.occlusion_lookahead_frames,
                min_track_age_frames=config.min_track_age_frames,
                max_missed_frames=config.max_missed_frames,
            )
        )

    def step(self, frame: TrackerFrame) -> List[TrackObservation]:
        return self.tracker.process_frame(frame.proposals, frame.t_mid_us)

    def reset(self) -> None:
        self.tracker.reset()

    @property
    def num_active_tracks(self) -> int:
        return self.tracker.num_active_tracks

    @property
    def mean_active_trackers(self) -> float:
        return self.tracker.mean_active_trackers

    # The overlap tracker's occlusion bookkeeping is part of the paper's
    # evaluation; surface it so callers need not reach into ``.tracker``.

    @property
    def occlusions_detected(self) -> int:
        """Dynamic-occlusion events handled (Section II-C step 5)."""
        return self.tracker.occlusions_detected

    @property
    def merges_performed(self) -> int:
        """Fragmentation merges performed."""
        return self.tracker.merges_performed


class KalmanBackend(TrackerBackend):
    """The EBBI+KF baseline: RPN proposals into a Kalman multi-object tracker."""

    name = "kalman"
    requires_events = False
    requires_proposals = True

    def __init__(self, config: "EbbiotConfig") -> None:
        self.tracker = KalmanFilterTracker(
            KalmanTrackerConfig(
                max_tracks=config.max_trackers,
                min_track_age_frames=config.min_track_age_frames,
                max_missed_frames=config.max_missed_frames,
            )
        )

    def step(self, frame: TrackerFrame) -> List[TrackObservation]:
        return self.tracker.process_frame(frame.proposals, frame.t_mid_us)

    def reset(self) -> None:
        self.tracker.reset()

    @property
    def num_active_tracks(self) -> int:
        return self.tracker.num_active_tracks

    @property
    def mean_active_trackers(self) -> float:
        return self.tracker.mean_active_tracks


class EbmsBackend(TrackerBackend):
    """The NN-filt+EBMS baseline: event-driven, no EBBI proposals needed.

    The backend owns the stateful nearest-neighbour filter of the
    event-driven pipeline (its per-pixel timestamp memory is exactly the
    ``Bt * A * B`` bits Eq. (2) charges that approach with), so a pipeline
    only has to hand over each window's raw events.
    """

    name = "ebms"
    requires_events = True
    requires_proposals = False

    def __init__(self, config: "EbbiotConfig") -> None:
        self.nn_filter = NearestNeighbourFilter(config.width, config.height)
        self.tracker = EbmsTracker(EbmsConfig(max_clusters=config.max_trackers))

    def step(self, frame: TrackerFrame) -> List[TrackObservation]:
        filtered = self.nn_filter.filter(self._require_events(frame))
        return self.tracker.process_frame(filtered, frame.t_mid_us)

    def reset(self) -> None:
        self.nn_filter.reset()
        self.tracker.reset()

    @property
    def num_active_tracks(self) -> int:
        return self.tracker.num_active_tracks

    @property
    def mean_active_trackers(self) -> float:
        return self.tracker.mean_visible_clusters


_REGISTRY = {backend.name: backend for backend in (OverlapBackend, KalmanBackend, EbmsBackend)}
