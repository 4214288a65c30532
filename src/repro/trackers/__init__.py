"""Multi-object trackers: shared track data structures, baselines, backends.

The EBBIOT overlap tracker itself lives in :mod:`repro.core.overlap_tracker`
(it is part of the paper's contribution); this package provides the shared
:class:`TrackObservation` output type plus the two
baselines the paper compares against:

* :class:`KalmanFilterTracker` — constant-velocity Kalman filter tracker on
  the EBBI+RPN proposals (the EBBI+KF baseline of Fig. 4 / Fig. 5).
* :class:`EbmsTracker` — event-based mean-shift cluster tracker (Delbruck &
  Lang style), fed by the NN-filtered event stream.

All three trackers are also available behind the uniform
:class:`TrackerBackend` protocol (:mod:`repro.trackers.backend`) through the
string registry of :mod:`repro.trackers.registry` — the names ``"overlap"``,
``"kalman"`` and ``"ebms"`` are what ``EbbiotConfig(tracker=...)`` accepts
throughout the core pipeline, the batch runtime and the live serving layer.
"""

from repro.trackers.association import greedy_overlap_assignment, iou_assignment
from repro.trackers.backend import TrackerBackend, TrackerFrame
from repro.trackers.base import TrackObservation, TrackState
from repro.trackers.ebms import EbmsCluster, EbmsConfig, EbmsTracker
from repro.trackers.kalman import ConstantVelocityKalmanFilter
from repro.trackers.kalman_tracker import KalmanFilterTracker, KalmanTrackerConfig
from repro.trackers.registry import (
    EbmsBackend,
    KalmanBackend,
    OverlapBackend,
    available_backends,
    create_backend,
    ensure_backend_name,
    parse_backend_list,
)

__all__ = [
    "TrackObservation",
    "TrackState",
    "greedy_overlap_assignment",
    "iou_assignment",
    "ConstantVelocityKalmanFilter",
    "KalmanFilterTracker",
    "KalmanTrackerConfig",
    "EbmsTracker",
    "EbmsCluster",
    "EbmsConfig",
    "TrackerBackend",
    "TrackerFrame",
    "OverlapBackend",
    "KalmanBackend",
    "EbmsBackend",
    "available_backends",
    "create_backend",
    "ensure_backend_name",
    "parse_backend_list",
]
