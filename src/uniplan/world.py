"""Workspace, obstacles, and free-space queries, plus scenario file loading.

A scenario is a JSON document describing the rectangular workspace, convex
obstacles, the disk robot radius, start and goal poses, and optional planner
and control sections. Unknown keys are rejected. The schema with defaults is
documented in the README.

json_numbers is the one check of JSON numbers, for scenario files here and
for graph files in planner.MotionGraph.from_dict; with_planner is the one
way to change a problem's planner fields.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field, fields, replace

from .config import ControlParams, PlannerParams
from .control import Pose
# separation is not called here; perfbench/tracing.py patches it in this module
from .geom import (  # noqa: F401
    Ball,
    Point,
    Shape,
    Vec2,
    aabb_xy,
    convex_hull,
    hull_contains,
    point_polygon_distance,
    polygon_separation,
    separation,
)


class ScenarioError(Exception):
    """Scenario file failed to parse or validate."""


_REJECTION_CAP = 10**6


@dataclass(frozen=True)
class World:
    """Axis-aligned workspace with convex obstacles and a disk robot.

    A position is free if the robot disk lies in the closed workspace (it may
    touch the boundary) and clears every obstacle strictly (it may not touch
    one).

    Each obstacle's AABB and float geometry are tabulated once, on
    construction, in `table`: one (x0, y0, x1, y1, ball, vertices) row per
    obstacle, where ball is (cx, cy, radius) for a ball and None otherwise,
    and vertices the (x, y) tuples of a polygon and None for a ball. The
    free-space checks read only the table.
    """

    x_min: float
    y_min: float
    x_max: float
    y_max: float
    obstacles: tuple[Shape, ...]
    robot_radius: float
    table: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise ScenarioError("workspace must have positive area")
        if self.robot_radius <= 0:
            raise ScenarioError("robot_radius must be > 0")
        rows = []
        for ob in self.obstacles:
            if isinstance(ob, Ball):
                cx, cy, r = ob.center.x, ob.center.y, ob.radius
                rows.append((cx - r, cy - r, cx + r, cy + r, (cx, cy, r), None))
            else:
                points = ob.points()
                rows.append((*aabb_xy(points), None, points))
        object.__setattr__(self, "table", tuple(rows))


def pose_is_free(world: World, px: float, py: float) -> bool:
    """True iff the robot disk at (px, py) stays in the workspace and off obstacles."""
    r = world.robot_radius
    if not (
        world.x_min + r <= px <= world.x_max - r
        and world.y_min + r <= py <= world.y_max - r
    ):
        return False
    for _, _, _, _, ball, vertices in world.table:
        if ball is not None:
            d = max(0.0, math.hypot(px - ball[0], py - ball[1]) - ball[2])
        else:
            d = point_polygon_distance(px, py, vertices)
        if d <= r:
            return False
    return True


def region_is_free(world: World, hull: Sequence[Point]) -> bool:
    """True iff the hull, CCW (x, y) vertex tuples, dilated by the robot
    radius lies in free space."""
    r = world.robot_radius
    hx0, hy0, hx1, hy1 = aabb_xy(hull)
    if not (
        hx0 - r >= world.x_min
        and hy0 - r >= world.y_min
        and hx1 + r <= world.x_max
        and hy1 + r <= world.y_max
    ):
        return False
    for ox0, oy0, ox1, oy1, ball, vertices in world.table:
        # axis gap lower-bounds the true distance; skip the exact test when clear
        gap = max(ox0 - hx1, hx0 - ox1, oy0 - hy1, hy0 - oy1)
        if gap > r:
            continue
        if ball is not None:
            d = max(0.0, point_polygon_distance(ball[0], ball[1], hull) - ball[2])
        else:
            d = polygon_separation(hull, vertices)
        if d <= r:
            return False
    return True


class UniformDraws:
    """Generator.uniform draws served from blocks of Generator.random.

    Generator.uniform(low, high) is low + (high - low) * u for the next
    double u of the generator's stream, and Generator.random(k) returns the
    next k of those doubles, so uniform() here returns the same floats, draw
    for draw, without a generator call per draw. The generator runs up to
    one block ahead of the draws served.
    """

    def __init__(self, rng, block: int = 256):
        self._rng = rng
        self._block = block
        self._left: list[float] = []  # drawn doubles still to serve, last first

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        if not self._left:
            self._left = self._rng.random(self._block).tolist()
            self._left.reverse()
        return low + (high - low) * self._left.pop()


def sample_free_pose(world: World, rng, goal: Pose,
                     goal_bias: float) -> tuple[float, float, float]:
    """Draw (x, y, theta): the goal's with probability goal_bias, else
    sample_uniform_pose's, uniform over free space.

    Draw order (fixed for reproducibility): one uniform for the bias when
    goal_bias > 0, then per rejection try two uniforms for the position, then
    one uniform for the heading once a free position is found.
    """
    if goal_bias > 0.0 and rng.uniform() < goal_bias:
        return goal.x, goal.y, goal.theta
    return sample_uniform_pose(world, rng)


def sample_uniform_pose(world: World, rng) -> tuple[float, float, float]:
    """Uniform free position (rejection sampling) and heading, as plain
    (x, y, theta) floats; no object is built per try. -pi + 2 pi u rounds
    below pi for every double u < 1, so theta lies in [-pi, pi), where
    Pose(x, y, theta) keeps it bit for bit."""
    for _ in range(_REJECTION_CAP):
        x = rng.uniform(world.x_min, world.x_max)
        y = rng.uniform(world.y_min, world.y_max)
        if pose_is_free(world, x, y):
            return x, y, rng.uniform(-math.pi, math.pi)
    raise ScenarioError("free space too small: rejection sampling cap exceeded")


@dataclass(frozen=True)
class Problem:
    """A fully validated planning problem."""

    world: World
    start: Pose
    goal: Pose
    control: ControlParams
    planner: PlannerParams


def with_planner(problem: Problem, **changes) -> Problem:
    """problem with the given planner fields changed; a field given as None
    is left as it is. The changed PlannerParams is validated again."""
    updates = {name: value for name, value in changes.items() if value is not None}
    return replace(problem, planner=replace(problem.planner, **updates)) if updates else problem


def _require_keys(obj: dict, allowed: set[str], required: set[str], where: str):
    unknown = set(obj) - allowed
    if unknown:
        raise ScenarioError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ScenarioError(f"{where}: missing keys {sorted(missing)}")


def json_numbers(values, integer: bool = False) -> bool:
    """Whether every value is a finite JSON number, or with integer set a
    JSON integer.

    json reads true and false as Python bools, which are no numbers, and
    reads NaN, Infinity and integers beyond the float range, which no
    number field takes; an integer field takes any integer. Each type is
    tested once, not each value.
    """
    kinds = int if integer else (int, float)
    if not all(kind is not bool and issubclass(kind, kinds) for kind in set(map(type, values))):
        return False
    try:
        return integer or all(map(math.isfinite, values))
    except OverflowError:
        return False


def _number(obj: dict, key: str, where: str) -> float:
    if not json_numbers((obj[key],)):
        raise ScenarioError(f"{where}.{key} must be a finite number (got {obj[key]!r})")
    return float(obj[key])


def _point(value, where: str) -> Vec2:
    if not (isinstance(value, list) and len(value) == 2 and json_numbers(value)):
        raise ScenarioError(f"{where} must be a list of two finite numbers (got {value!r})")
    return Vec2(float(value[0]), float(value[1]))


def _parse_pose(obj, where: str) -> Pose:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where}: expected an object with x, y, theta")
    _require_keys(obj, {"x", "y", "theta"}, {"x", "y", "theta"}, where)
    return Pose(*(_number(obj, key, where) for key in ("x", "y", "theta")))


def _parse_obstacle(obj, where: str) -> Shape:
    if not isinstance(obj, dict) or "type" not in obj:
        raise ScenarioError(f"{where}: expected an object with a 'type' key")
    kind = obj["type"]
    if kind == "ball":
        _require_keys(obj, {"type", "center", "radius"}, {"center", "radius"}, where)
        center = _point(obj["center"], f"{where}.center")
        radius = _number(obj, "radius", where)
        if radius <= 0:
            raise ScenarioError(f"{where}: ball radius must be > 0")
        return Ball(center, radius)
    if kind == "polygon":
        _require_keys(obj, {"type", "vertices"}, {"vertices"}, where)
        if not isinstance(obj["vertices"], list):
            raise ScenarioError(f"{where}.vertices must be a list")
        pts = [_point(p, f"{where}.vertices[{i}]") for i, p in enumerate(obj["vertices"])]
        if len(pts) < 3:
            raise ScenarioError(f"{where}: polygon needs at least 3 vertices")
        hull = convex_hull(pts)
        if len(hull.vertices) >= 3:
            for p in pts:
                # an input point strictly inside the hull means non-convex input
                if hull_contains(hull, p, -1e-9):
                    raise ScenarioError(f"{where}: polygon is not convex")
        return hull
    raise ScenarioError(f"{where}: unknown obstacle type {kind!r}")


# JSON value checks for the declared field types of the params dataclasses
_FIELD_CHECKS = {
    "float": (lambda v: json_numbers((v,)), "a finite number"),
    "int": (lambda v: json_numbers((v,), integer=True), "an integer"),
    "str": (lambda v: isinstance(v, str), "a string"),
}


def _parse_params(cls, obj, where: str):
    """Build a ControlParams/PlannerParams from its scenario section."""
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where}: expected an object")
    types = {f.name: f.type for f in fields(cls)}
    _require_keys(obj, set(types), set(), where)
    for name, value in obj.items():
        check, expected = _FIELD_CHECKS[types[name]]
        if not check(value):
            raise ScenarioError(f"{where}.{name} must be {expected} (got {value!r})")
    try:
        return cls(**obj)
    except ValueError as e:
        raise ScenarioError(str(e)) from e


def scenario_from_dict(doc: dict) -> Problem:
    """Build a validated Problem from a parsed scenario document."""
    _require_keys(
        doc,
        {"workspace", "obstacles", "robot_radius", "start", "goal", "planner", "control"},
        {"workspace", "start", "goal"},
        "scenario",
    )
    ws = doc["workspace"]
    if not isinstance(ws, dict):
        raise ScenarioError("workspace: expected an object with min and max")
    _require_keys(ws, {"min", "max"}, {"min", "max"}, "workspace")
    lo, hi = _point(ws["min"], "workspace.min"), _point(ws["max"], "workspace.max")
    obstacle_docs = doc.get("obstacles", [])
    if not isinstance(obstacle_docs, list):
        raise ScenarioError("obstacles must be a list")
    obstacles = tuple(
        _parse_obstacle(ob, f"obstacles[{i}]") for i, ob in enumerate(obstacle_docs)
    )
    world = World(
        x_min=lo.x,
        y_min=lo.y,
        x_max=hi.x,
        y_max=hi.y,
        obstacles=obstacles,
        robot_radius=_number(doc, "robot_radius", "scenario") if "robot_radius" in doc else 0.5,
    )
    start = _parse_pose(doc["start"], "start")
    goal = _parse_pose(doc["goal"], "goal")

    control = _parse_params(ControlParams, doc.get("control", {}), "control")
    planner = _parse_params(PlannerParams, doc.get("planner", {}), "planner")

    if not pose_is_free(world, start.x, start.y):
        raise ScenarioError("start pose not free")
    if not pose_is_free(world, goal.x, goal.y):
        raise ScenarioError("goal pose not free")
    return Problem(world=world, start=start, goal=goal, control=control, planner=planner)


def load_scenario(path) -> Problem:
    """Load and validate a scenario JSON file."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        raise ScenarioError(f"cannot read scenario file: {e}") from e
    except json.JSONDecodeError as e:
        raise ScenarioError(f"scenario file is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ScenarioError("scenario file must contain a JSON object")
    return scenario_from_dict(doc)


def scenario_to_dict(problem: Problem) -> dict:
    """Serialize a Problem back into the scenario document form."""
    obstacles = []
    for ob in problem.world.obstacles:
        if isinstance(ob, Ball):
            obstacles.append(
                {"type": "ball", "center": [ob.center.x, ob.center.y], "radius": ob.radius}
            )
        else:
            obstacles.append(
                {"type": "polygon", "vertices": [[v.x, v.y] for v in ob.vertices]}
            )
    w = problem.world
    return {
        "workspace": {"min": [w.x_min, w.y_min], "max": [w.x_max, w.y_max]},
        "obstacles": obstacles,
        "robot_radius": w.robot_radius,
        "start": {"x": problem.start.x, "y": problem.start.y, "theta": problem.start.theta},
        "goal": {"x": problem.goal.x, "y": problem.goal.y, "theta": problem.goal.theta},
        "control": asdict(problem.control),
        "planner": asdict(problem.planner),
    }
