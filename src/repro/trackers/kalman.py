"""Constant-velocity Kalman filter for a single track.

The comparison tracker in the paper (Section II-C, Eq. (7)) follows a
constant-velocity motion model with a measurement vector containing the
track centroid.  This module implements the standard predict/update
recursion for that model; the multi-object wrapper with data association
lives in :mod:`repro.trackers.kalman_tracker`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np


@dataclass
class ConstantVelocityKalmanFilter:
    """Kalman filter with state ``[cx, cy, vx, vy]`` and measurement ``[cx, cy]``.

    Positions are in pixels, velocities in pixels per frame (the filter is
    stepped once per EBBI frame).

    Parameters
    ----------
    process_noise:
        Standard deviation of the per-frame acceleration noise (pixels per
        frame^2).
    measurement_noise:
        Standard deviation of the centroid measurement noise (pixels).
    initial_velocity_uncertainty:
        Initial standard deviation of the velocity estimate.
    """

    process_noise: float = 1.0
    measurement_noise: float = 2.0
    initial_velocity_uncertainty: float = 5.0

    state: np.ndarray = field(init=False, repr=False)
    covariance: np.ndarray = field(init=False, repr=False)
    _initialised: bool = field(init=False, default=False)

    def __post_init__(self) -> None:
        if self.process_noise <= 0 or self.measurement_noise <= 0:
            raise ValueError("noise standard deviations must be positive")
        self.state = np.zeros(4)
        self.covariance = np.eye(4)

    # -- model matrices ----------------------------------------------------------------

    @staticmethod
    def transition_matrix() -> np.ndarray:
        """State transition ``F`` for one frame step."""
        return np.array(
            [
                [1.0, 0.0, 1.0, 0.0],
                [0.0, 1.0, 0.0, 1.0],
                [0.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )

    @staticmethod
    def measurement_matrix() -> np.ndarray:
        """Measurement matrix ``H`` extracting the centroid."""
        return np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])

    def process_noise_covariance(self) -> np.ndarray:
        """Process noise ``Q`` for the constant-velocity model."""
        q = self.process_noise**2
        # Discrete white-noise acceleration model with dt = 1 frame.
        return q * np.array(
            [
                [0.25, 0.0, 0.5, 0.0],
                [0.0, 0.25, 0.0, 0.5],
                [0.5, 0.0, 1.0, 0.0],
                [0.0, 0.5, 0.0, 1.0],
            ]
        )

    def measurement_noise_covariance(self) -> np.ndarray:
        """Measurement noise ``R``."""
        return (self.measurement_noise**2) * np.eye(2)

    # -- filter operations ----------------------------------------------------------------

    def initialise(self, cx: float, cy: float) -> None:
        """Initialise the state from the first centroid measurement."""
        self.state = np.array([cx, cy, 0.0, 0.0])
        self.covariance = np.diag(
            [
                self.measurement_noise**2,
                self.measurement_noise**2,
                self.initial_velocity_uncertainty**2,
                self.initial_velocity_uncertainty**2,
            ]
        )
        self._initialised = True

    @property
    def is_initialised(self) -> bool:
        """``True`` once :meth:`initialise` has been called."""
        return self._initialised

    def predict(self) -> Tuple[float, float]:
        """Advance the state one frame; return the predicted centroid."""
        if not self._initialised:
            raise RuntimeError("filter must be initialised before predict()")
        transition = self.transition_matrix()
        self.state = transition @ self.state
        self.covariance = (
            transition @ self.covariance @ transition.T + self.process_noise_covariance()
        )
        return (float(self.state[0]), float(self.state[1]))

    def update(self, cx: float, cy: float) -> Tuple[float, float]:
        """Fuse a centroid measurement; return the corrected centroid."""
        if not self._initialised:
            raise RuntimeError("filter must be initialised before update()")
        measurement = np.array([cx, cy])
        measurement_matrix = self.measurement_matrix()
        innovation = measurement - measurement_matrix @ self.state
        innovation_covariance = (
            measurement_matrix @ self.covariance @ measurement_matrix.T
            + self.measurement_noise_covariance()
        )
        kalman_gain = (
            self.covariance
            @ measurement_matrix.T
            @ np.linalg.inv(innovation_covariance)
        )
        self.state = self.state + kalman_gain @ innovation
        identity = np.eye(4)
        self.covariance = (identity - kalman_gain @ measurement_matrix) @ self.covariance
        return (float(self.state[0]), float(self.state[1]))

    # -- accessors --------------------------------------------------------------------------

    @property
    def position(self) -> Tuple[float, float]:
        """Current centroid estimate."""
        return (float(self.state[0]), float(self.state[1]))

    @property
    def velocity(self) -> Tuple[float, float]:
        """Current velocity estimate in pixels per frame."""
        return (float(self.state[2]), float(self.state[3]))

    def position_uncertainty(self) -> float:
        """Scalar position uncertainty (trace of the positional covariance)."""
        return float(self.covariance[0, 0] + self.covariance[1, 1])
