"""Synthetic stationary-camera traffic scene simulator.

The paper evaluates on 1.1 hours of real DAVIS recordings at a traffic
junction (Table I), which are not publicly available.  This package is the
substitution documented in DESIGN.md: a scene simulator that produces
DAVIS-style event streams from moving objects (cars, buses, bikes, humans)
seen side-on by a stationary sensor, together with the ground-truth bounding
boxes the evaluation needs.

The simulator deliberately reproduces the properties that make the real data
hard for a tracker:

* events concentrate on object edges and high-contrast texture, so large
  plain-sided vehicles *fragment* into multiple event blobs (Section II-C);
* background-activity noise produces salt-and-pepper speckle in the EBBI;
* objects in different lanes occlude each other dynamically;
* static distractors (trees / foliage) generate events inside regions of
  exclusion;
* object sizes span an order of magnitude and speeds range from sub-pixel
  to several pixels per frame.
"""

from repro.simulation.event_generator import ObjectEventGenerator
from repro.simulation.ground_truth import GroundTruthBox, GroundTruthFrame, sample_ground_truth
from repro.simulation.objects import (
    OBJECT_TEMPLATES,
    ObjectClass,
    ObjectTemplate,
    SceneObject,
)
from repro.simulation.scene import Scene, SceneConfig, SimulationResult
from repro.simulation.traffic import TrafficScenarioConfig, build_traffic_scene
from repro.simulation.trajectories import (
    ConstantVelocityTrajectory,
    StopAndGoTrajectory,
    Trajectory,
)

__all__ = [
    "ObjectClass",
    "ObjectTemplate",
    "OBJECT_TEMPLATES",
    "SceneObject",
    "Trajectory",
    "ConstantVelocityTrajectory",
    "StopAndGoTrajectory",
    "ObjectEventGenerator",
    "Scene",
    "SceneConfig",
    "SimulationResult",
    "GroundTruthBox",
    "GroundTruthFrame",
    "sample_ground_truth",
    "TrafficScenarioConfig",
    "build_traffic_scene",
]
