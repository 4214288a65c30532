"""Object trajectories for the traffic scene simulator.

A trajectory maps time (microseconds) to the position of an object's
bottom-left corner in pixels.  All trajectories also report the time window
during which the object exists in the scene so the simulator can skip
inactive objects cheaply.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Tuple


class Trajectory(abc.ABC):
    """Mapping from time to the object's bottom-left corner position."""

    @abc.abstractmethod
    def position(self, t_us: int) -> Tuple[float, float]:
        """Bottom-left corner ``(x, y)`` in pixels at time ``t_us``."""

    @abc.abstractmethod
    def velocity(self, t_us: int) -> Tuple[float, float]:
        """Instantaneous velocity ``(vx, vy)`` in pixels per microsecond."""

    @property
    @abc.abstractmethod
    def t_start_us(self) -> int:
        """Time the object enters the scene."""

    @property
    @abc.abstractmethod
    def t_end_us(self) -> int:
        """Time the object leaves the scene."""

    def is_active(self, t_us: int) -> bool:
        """``True`` when the object exists at time ``t_us``."""
        return self.t_start_us <= t_us < self.t_end_us


@dataclass(frozen=True)
class ConstantVelocityTrajectory(Trajectory):
    """Straight-line motion at constant velocity.

    Parameters
    ----------
    start_position:
        Bottom-left corner at ``t_start``.
    velocity_px_per_s:
        Velocity in pixels per second ``(vx, vy)``.
    t_start, t_end:
        Active interval in microseconds.
    """

    start_position: Tuple[float, float]
    velocity_px_per_s: Tuple[float, float]
    t_start: int
    t_end: int

    def __post_init__(self) -> None:
        if self.t_end <= self.t_start:
            raise ValueError(
                f"t_end ({self.t_end}) must be after t_start ({self.t_start})"
            )

    @property
    def t_start_us(self) -> int:
        return self.t_start

    @property
    def t_end_us(self) -> int:
        return self.t_end

    def position(self, t_us: int) -> Tuple[float, float]:
        dt_s = (t_us - self.t_start) * 1e-6
        return (
            self.start_position[0] + self.velocity_px_per_s[0] * dt_s,
            self.start_position[1] + self.velocity_px_per_s[1] * dt_s,
        )

    def velocity(self, t_us: int) -> Tuple[float, float]:
        return (self.velocity_px_per_s[0] * 1e-6, self.velocity_px_per_s[1] * 1e-6)


@dataclass(frozen=True)
class StopAndGoTrajectory(Trajectory):
    """Horizontal motion that pauses for a while mid-way (traffic-light stop).

    The object moves at ``speed_px_per_s`` along x, stops at
    ``stop_position_x`` for ``stop_duration_us``, then continues.  Vertical
    position is constant.
    """

    start_position: Tuple[float, float]
    speed_px_per_s: float
    stop_position_x: float
    stop_duration_us: int
    t_start: int
    t_end: int

    def __post_init__(self) -> None:
        if self.t_end <= self.t_start:
            raise ValueError("t_end must be after t_start")
        if self.speed_px_per_s == 0:
            raise ValueError("speed_px_per_s must be non-zero")
        direction = 1.0 if self.speed_px_per_s > 0 else -1.0
        distance_to_stop = (self.stop_position_x - self.start_position[0]) * direction
        if distance_to_stop < 0:
            raise ValueError("stop_position_x must lie ahead of the start position")

    @property
    def t_start_us(self) -> int:
        return self.t_start

    @property
    def t_end_us(self) -> int:
        return self.t_end

    def _time_to_stop_us(self) -> float:
        distance = abs(self.stop_position_x - self.start_position[0])
        return distance / abs(self.speed_px_per_s) * 1e6

    def position(self, t_us: int) -> Tuple[float, float]:
        elapsed = t_us - self.t_start
        reach_stop = self._time_to_stop_us()
        if elapsed <= reach_stop:
            x = self.start_position[0] + self.speed_px_per_s * elapsed * 1e-6
        elif elapsed <= reach_stop + self.stop_duration_us:
            x = self.stop_position_x
        else:
            moving_time = elapsed - reach_stop - self.stop_duration_us
            x = self.stop_position_x + self.speed_px_per_s * moving_time * 1e-6
        return (x, self.start_position[1])

    def velocity(self, t_us: int) -> Tuple[float, float]:
        elapsed = t_us - self.t_start
        reach_stop = self._time_to_stop_us()
        if reach_stop < elapsed <= reach_stop + self.stop_duration_us:
            return (0.0, 0.0)
        return (self.speed_px_per_s * 1e-6, 0.0)


def crossing_trajectory(
    width: int,
    y: float,
    speed_px_per_s: float,
    t_enter_us: int,
    object_width: float,
    direction: int = 1,
) -> ConstantVelocityTrajectory:
    """Trajectory of an object crossing the full field of view horizontally.

    Parameters
    ----------
    width:
        Sensor width in pixels.
    y:
        Vertical (lane) position of the object's bottom edge.
    speed_px_per_s:
        Horizontal speed magnitude in pixels per second.
    t_enter_us:
        Time the object's leading edge enters the frame.
    object_width:
        Width of the object, used to start/stop fully outside the frame.
    direction:
        ``+1`` for left-to-right, ``-1`` for right-to-left.
    """
    if direction not in (1, -1):
        raise ValueError(f"direction must be +1 or -1, got {direction}")
    if speed_px_per_s <= 0:
        raise ValueError(f"speed must be positive, got {speed_px_per_s}")
    travel_px = width + 2 * object_width
    duration_us = int(travel_px / speed_px_per_s * 1e6)
    if direction == 1:
        start_x = -object_width
        velocity = (speed_px_per_s, 0.0)
    else:
        start_x = float(width)
        velocity = (-speed_px_per_s, 0.0)
    return ConstantVelocityTrajectory(
        start_position=(start_x, y),
        velocity_px_per_s=velocity,
        t_start=t_enter_us,
        t_end=t_enter_us + duration_us,
    )
