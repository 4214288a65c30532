"""Tests for the trajectory models."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.simulation.trajectories import (
    ConstantVelocityTrajectory,
    StopAndGoTrajectory,
    crossing_trajectory,
)


class TestConstantVelocityTrajectory:
    def test_position_at_start_and_later(self):
        trajectory = ConstantVelocityTrajectory((10, 20), (30, -10), 0, 2_000_000)
        assert trajectory.position(0) == (10, 20)
        x, y = trajectory.position(1_000_000)
        assert x == pytest.approx(40)
        assert y == pytest.approx(10)

    def test_velocity_units(self):
        trajectory = ConstantVelocityTrajectory((0, 0), (60, 0), 0, 1_000_000)
        vx, vy = trajectory.velocity(500_000)
        assert vx == pytest.approx(60e-6)
        assert vy == 0.0

    def test_active_interval(self):
        trajectory = ConstantVelocityTrajectory((0, 0), (1, 0), 100, 200)
        assert trajectory.is_active(100)
        assert trajectory.is_active(150)
        assert not trajectory.is_active(200)
        assert not trajectory.is_active(50)

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            ConstantVelocityTrajectory((0, 0), (1, 0), 100, 100)

    @given(st.integers(0, 10**7), st.floats(-100, 100), st.floats(-100, 100))
    def test_position_is_linear_in_time(self, t, vx, vy):
        trajectory = ConstantVelocityTrajectory((5, 5), (vx, vy), 0, 10**7 + 1)
        x, y = trajectory.position(t)
        assert x == pytest.approx(5 + vx * t * 1e-6, abs=1e-6)
        assert y == pytest.approx(5 + vy * t * 1e-6, abs=1e-6)


class TestStopAndGoTrajectory:
    def _trajectory(self):
        return StopAndGoTrajectory(
            start_position=(0, 50),
            speed_px_per_s=60.0,
            stop_position_x=60.0,
            stop_duration_us=1_000_000,
            t_start=0,
            t_end=10_000_000,
        )

    def test_moves_then_stops_then_moves(self):
        trajectory = self._trajectory()
        # Reaches the stop after 1 s.
        assert trajectory.position(500_000)[0] == pytest.approx(30.0)
        assert trajectory.position(1_000_000)[0] == pytest.approx(60.0)
        # During the stop the position is pinned and velocity is zero.
        assert trajectory.position(1_500_000)[0] == pytest.approx(60.0)
        assert trajectory.velocity(1_500_000) == (0.0, 0.0)
        # After the stop, motion resumes.
        assert trajectory.position(2_500_000)[0] == pytest.approx(90.0)
        assert trajectory.velocity(2_500_000)[0] > 0

    def test_vertical_position_constant(self):
        trajectory = self._trajectory()
        for t in (0, 1_200_000, 3_000_000):
            assert trajectory.position(t)[1] == 50

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            StopAndGoTrajectory((0, 0), 0.0, 10, 100, 0, 1000)
        with pytest.raises(ValueError):
            # Stop position behind the start for a rightward mover.
            StopAndGoTrajectory((50, 0), 10.0, 10, 100, 0, 10**7)
        with pytest.raises(ValueError):
            StopAndGoTrajectory((0, 0), 10.0, 10, 100, 100, 100)

    def test_leftward_stop_and_go(self):
        trajectory = StopAndGoTrajectory(
            start_position=(100, 10),
            speed_px_per_s=-50.0,
            stop_position_x=50.0,
            stop_duration_us=500_000,
            t_start=0,
            t_end=10_000_000,
        )
        assert trajectory.position(1_000_000)[0] == pytest.approx(50.0)
        assert trajectory.position(2_000_000)[0] < 50.0


class TestCrossingTrajectory:
    def test_left_to_right_covers_full_width(self):
        trajectory = crossing_trajectory(240, 50, 60.0, 0, object_width=40, direction=1)
        start_x = trajectory.position(trajectory.t_start_us)[0]
        end_x = trajectory.position(trajectory.t_end_us)[0]
        assert start_x == pytest.approx(-40)
        assert end_x >= 240

    def test_right_to_left(self):
        trajectory = crossing_trajectory(240, 50, 60.0, 0, object_width=40, direction=-1)
        assert trajectory.position(trajectory.t_start_us)[0] == pytest.approx(240)
        assert trajectory.velocity(0)[0] < 0

    def test_duration_scales_with_speed(self):
        slow = crossing_trajectory(240, 50, 30.0, 0, 40)
        fast = crossing_trajectory(240, 50, 60.0, 0, 40)
        assert (slow.t_end_us - slow.t_start_us) == pytest.approx(
            2 * (fast.t_end_us - fast.t_start_us), rel=0.01
        )

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            crossing_trajectory(240, 50, 60.0, 0, 40, direction=0)
        with pytest.raises(ValueError):
            crossing_trajectory(240, 50, -5.0, 0, 40)
