"""DAVIS sensor geometry: resolution and lens of the recordings.

The paper's pixel latch (Section II-A: a pixel that fired is not reset
until read out, so the array itself holds the binary image) is modelled
where the frames are built, by :func:`repro.core.ebbi.events_to_binary_frame`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class SensorGeometry:
    """Resolution and optics of the sensor.

    Parameters
    ----------
    width, height:
        Pixel array size (``A x B``).  The DAVIS used in the paper is
        240 x 180.
    lens_focal_length_mm:
        Lens focal length; the two recordings in Table I use 12 mm (ENG) and
        6 mm (LT4), which changes the apparent size and speed of objects.
    """

    width: int = 240
    height: int = 180
    lens_focal_length_mm: float = 12.0

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError(
                f"sensor resolution must be positive, got {self.width}x{self.height}"
            )
        if self.lens_focal_length_mm <= 0:
            raise ValueError(
                f"lens focal length must be positive, got {self.lens_focal_length_mm}"
            )

    @property
    def num_pixels(self) -> int:
        """Total pixel count ``A * B``."""
        return self.width * self.height

    @property
    def resolution(self) -> Tuple[int, int]:
        """Resolution as ``(width, height)``."""
        return (self.width, self.height)


#: The DAVIS240 geometry used throughout the paper.
DAVIS240 = SensorGeometry(width=240, height=180, lens_focal_length_mm=12.0)
