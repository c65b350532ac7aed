"""2D unicycle motion planning with dual-headway pose control.

Library surface: geometry primitives, the forward/backward pose controllers
with their convex motion-prediction bounds, a safety test that returns the
direction it certified, unicycle pose distances, an optimal sampling-based
planner, and a closed-loop plan executor that drives each segment in its
certified direction; one closed-loop controller run is an `execute` of a
two-vertex graph. The `uniplan` CLI wraps planning, execution, and
parameter sweeps around JSON scenario files.
"""

from .config import ControlParams, PlannerParams
from .control import Pose
from .geom import Ball, ConvexPolygon, Vec2
from .metrics import WeightedDistance, objective_distance, project
from .planner import MotionGraph, build_tree, prune
from .prediction import issafe, motion_bound
from .executor import execute
from .world import Problem, World, load_scenario

__version__ = "0.1.0"

__all__ = [
    "Ball", "ControlParams", "ConvexPolygon", "MotionGraph", "PlannerParams",
    "Pose", "Problem", "Vec2", "WeightedDistance", "World",
    "build_tree", "execute", "issafe", "load_scenario",
    "motion_bound", "objective_distance", "project", "prune",
]
