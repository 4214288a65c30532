"""Sensor noise models.

Neuromorphic sensors produce spurious "background activity" events even when
the scene is static (Section II-A of the paper, citing Padala et al. 2018).
These spurious events are what make naive event-driven interrupts unsuitable
for duty-cycled IoT nodes and what the median / NN filters must remove.  Two
noise models are provided:

* :class:`BackgroundActivityNoise` — spatially and temporally uniform noise
  events at a configurable rate per pixel, which appear as salt-and-pepper
  noise in the accumulated binary image.
* :class:`HotPixelNoise` — a small set of pixels that fire at a much higher
  rate, a common DVS artefact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.events.types import EVENT_DTYPE, make_packet, sort_packet


@dataclass
class BackgroundActivityNoise:
    """Uniform background-activity noise generator.

    Parameters
    ----------
    rate_hz_per_pixel:
        Mean number of noise events per pixel per second.  Typical DVS
        background activity is in the 0.1 - 5 Hz/pixel range depending on
        bias settings and temperature.
    on_fraction:
        Fraction of noise events with ON polarity.
    """

    rate_hz_per_pixel: float = 1.0
    on_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.rate_hz_per_pixel < 0:
            raise ValueError(
                f"rate_hz_per_pixel must be non-negative, got {self.rate_hz_per_pixel}"
            )
        if not 0.0 <= self.on_fraction <= 1.0:
            raise ValueError(f"on_fraction must be in [0, 1], got {self.on_fraction}")

    def expected_events(self, width: int, height: int, duration_us: int) -> float:
        """Expected number of noise events over the given window."""
        return self.rate_hz_per_pixel * width * height * duration_us * 1e-6

    def generate(
        self,
        width: int,
        height: int,
        t_start_us: int,
        t_end_us: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Generate noise events over ``[t_start_us, t_end_us)``.

        The number of events is Poisson distributed around the expected
        count; positions and timestamps are uniform.
        """
        duration = t_end_us - t_start_us
        if duration <= 0 or self.rate_hz_per_pixel == 0:
            return np.empty(0, dtype=EVENT_DTYPE)
        expected = self.expected_events(width, height, duration)
        count = int(rng.poisson(expected))
        if count == 0:
            return np.empty(0, dtype=EVENT_DTYPE)
        x = rng.integers(0, width, size=count)
        y = rng.integers(0, height, size=count)
        t = rng.integers(t_start_us, t_end_us, size=count)
        p = np.where(rng.random(count) < self.on_fraction, 1, -1)
        return sort_packet(make_packet(x, y, t, p))


@dataclass
class HotPixelNoise:
    """A fixed set of hot pixels firing at an elevated rate.

    Parameters
    ----------
    num_hot_pixels:
        How many pixels are "hot".
    rate_hz:
        Firing rate of each hot pixel in events per second.
    seed:
        Seed used to pick which pixels are hot, so the hot-pixel map is
        stable across frames of the same recording.
    """

    num_hot_pixels: int = 10
    rate_hz: float = 100.0
    seed: int = 0

    _positions: Optional[np.ndarray] = None

    def positions(self, width: int, height: int) -> np.ndarray:
        """Return the fixed ``(num_hot_pixels, 2)`` array of hot pixel coords."""
        if self._positions is None or len(self._positions) != self.num_hot_pixels:
            rng = np.random.default_rng(self.seed)
            xs = rng.integers(0, width, size=self.num_hot_pixels)
            ys = rng.integers(0, height, size=self.num_hot_pixels)
            object.__setattr__(self, "_positions", np.column_stack([xs, ys]))
        return self._positions

    def generate(
        self,
        width: int,
        height: int,
        t_start_us: int,
        t_end_us: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Generate hot-pixel events over ``[t_start_us, t_end_us)``."""
        duration_s = (t_end_us - t_start_us) * 1e-6
        if duration_s <= 0 or self.num_hot_pixels == 0 or self.rate_hz == 0:
            return np.empty(0, dtype=EVENT_DTYPE)
        positions = self.positions(width, height)
        per_pixel = rng.poisson(self.rate_hz * duration_s, size=self.num_hot_pixels)
        total = int(per_pixel.sum())
        if total == 0:
            return np.empty(0, dtype=EVENT_DTYPE)
        x = np.repeat(positions[:, 0], per_pixel)
        y = np.repeat(positions[:, 1], per_pixel)
        t = rng.integers(t_start_us, t_end_us, size=total)
        p = np.where(rng.random(total) < 0.5, 1, -1)
        return sort_packet(make_packet(x, y, t, p))
