"""Tests for the DAVIS sensor geometry."""

from __future__ import annotations

import pytest

from repro.sensor.davis import DAVIS240, SensorGeometry


class TestSensorGeometry:
    def test_defaults_match_paper(self):
        assert DAVIS240.width == 240
        assert DAVIS240.height == 180
        assert DAVIS240.num_pixels == 43_200

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            SensorGeometry(width=0, height=180)
        with pytest.raises(ValueError):
            SensorGeometry(width=240, height=180, lens_focal_length_mm=0)
