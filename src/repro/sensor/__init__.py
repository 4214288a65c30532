"""DAVIS sensor model: geometry and duty-cycled timing.

The EBBIOT scheme re-uses the sensor pixel array as a one-bit memory: pixels
that fire are not reset until read out, so while the processor sleeps the
sensor itself accumulates the event-based binary image (Section II-A,
Fig. 2).  This package models the sensor's geometry plus the
interrupt-driven duty-cycle timing / energy budget of the processor.
"""

from repro.sensor.davis import SensorGeometry
from repro.sensor.duty_cycle import DutyCycleModel, DutyCyclePhase, DutyCycleTrace

__all__ = [
    "SensorGeometry",
    "DutyCycleModel",
    "DutyCyclePhase",
    "DutyCycleTrace",
]
