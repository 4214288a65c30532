"""Tests for the EBBIOT pipeline configuration."""

from __future__ import annotations

import pytest

from repro.core.config import EbbiotConfig
from repro.sensor.duty_cycle import DutyCycleModel


class TestEbbiotConfig:
    def test_paper_defaults(self):
        config = EbbiotConfig.paper_defaults()
        assert config.width == 240
        assert config.height == 180
        assert config.frame_duration_us == 66_000
        assert config.median_patch_size == 3
        assert config.downsample_x == 6
        assert config.downsample_y == 3
        assert config.max_trackers == 8
        assert config.occlusion_lookahead_frames == 2

    def test_derived_properties(self):
        config = EbbiotConfig()
        assert config.frame_rate_hz == pytest.approx(15.15, rel=0.01)
        assert config.downsampled_width == 40
        assert config.downsampled_height == 60

    def test_tracker_backend_field(self):
        # The default is the paper's overlap tracker; the registry names
        # are accepted and anything else is rejected at construction.
        assert EbbiotConfig().tracker == "overlap"
        assert EbbiotConfig.paper_defaults().tracker == "overlap"
        for name in ("overlap", "kalman", "ebms"):
            assert EbbiotConfig(tracker=name).tracker == name
        with pytest.raises(ValueError, match="unknown tracker backend"):
            EbbiotConfig(tracker="centroid")


# (field, bad value, exception, text the message must contain)
INVALID_FIELDS = [
    ("width", 0, ValueError, "width"),
    ("height", -180, ValueError, "height"),
    ("width", 240.0, TypeError, "width"),
    ("frame_duration_us", 0, ValueError, "frame_duration_us"),
    ("median_patch_size", 0, ValueError, "median_patch_size"),
    ("median_patch_size", 4, ValueError, "must be odd"),
    ("downsample_x", 0, ValueError, "downsample_x"),
    ("downsample_y", 0, ValueError, "downsample_y"),
    ("downsample_x", 241, ValueError, "downsampling factors"),
    ("downsample_y", 181, ValueError, "downsampling factors"),
    ("max_trackers", 0, ValueError, "max_trackers"),
    ("overlap_threshold", 0.0, ValueError, "overlap_threshold"),
    ("overlap_threshold", 1.5, ValueError, "overlap_threshold"),
    ("prediction_weight", -0.1, ValueError, "prediction_weight"),
    ("prediction_weight", 1.5, ValueError, "prediction_weight"),
    ("occlusion_lookahead_frames", -1, ValueError, "occlusion_lookahead_frames"),
    ("min_track_age_frames", -1, ValueError, "min_track_age_frames"),
    ("max_missed_frames", -1, ValueError, "max_missed_frames"),
    ("histogram_threshold", 0, ValueError, "histogram_threshold"),
    ("roe_max_overlap_fraction", -0.1, ValueError, "roe_max_overlap_fraction"),
    ("roe_max_overlap_fraction", 1.1, ValueError, "roe_max_overlap_fraction"),
]

# Values on a closed end of a field's valid range.
BOUNDARY_FIELDS = [
    ("median_patch_size", 1),
    ("downsample_x", 240),
    ("downsample_y", 180),
    ("overlap_threshold", 1.0),
    ("prediction_weight", 0.0),
    ("prediction_weight", 1.0),
    ("occlusion_lookahead_frames", 0),
    ("min_track_age_frames", 0),
    ("max_missed_frames", 0),
    ("roe_max_overlap_fraction", 0.0),
    ("roe_max_overlap_fraction", 1.0),
]


def _case_id(case) -> str:
    return f"{case[0]}={case[1]!r}"


class TestFieldValidation:
    """Every bad field is refused at construction, and the error says which."""

    @pytest.mark.parametrize("case", INVALID_FIELDS, ids=_case_id)
    def test_invalid_value_rejected(self, case):
        field, value, error, message = case
        with pytest.raises(error, match=message):
            EbbiotConfig(**{field: value})

    @pytest.mark.parametrize("case", BOUNDARY_FIELDS, ids=_case_id)
    def test_closed_bound_accepted(self, case):
        field, value = case
        assert getattr(EbbiotConfig(**{field: value}), field) == value

    def test_duty_cycle_must_share_the_frame_period(self):
        matching = DutyCycleModel(frame_duration_us=66_000)
        assert EbbiotConfig(duty_cycle=matching).duty_cycle is matching
        with pytest.raises(ValueError, match="duty_cycle.frame_duration_us"):
            EbbiotConfig(duty_cycle=DutyCycleModel(frame_duration_us=33_000))
