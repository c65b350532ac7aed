"""Dependency-free SVG rendering of worlds, trees, paths, and trajectories.

Plain string emission keeps the output diffable and byte-reproducible.
"""

from __future__ import annotations

from .config import ControlParams
# in_forward_domain is not called here; perfbench/tracing.py patches it in this module
from .control import Pose, in_forward_domain  # noqa: F401
from .geom import Ball
from .planner import MotionGraph
from .prediction import issafe, motion_bound
from .world import World

_SCALE = 60.0  # px per meter
_MARGIN = 20.0  # px


def _fmt(v: float) -> str:
    return f"{v:.6g}"


class _Canvas:
    def __init__(self, world: World):
        self.w = world
        self.width = (world.x_max - world.x_min) * _SCALE + 2 * _MARGIN
        self.height = (world.y_max - world.y_min) * _SCALE + 2 * _MARGIN
        self.parts: list[str] = []

    def pt(self, x: float, y: float) -> tuple[float, float]:
        # y grows upward in world coordinates, downward in SVG
        px = _MARGIN + (x - self.w.x_min) * _SCALE
        py = self.height - (_MARGIN + (y - self.w.y_min) * _SCALE)
        return px, py

    def line(self, a, b, stroke, width=1.0, cls=None):
        ax, ay = self.pt(*a)
        bx, by = self.pt(*b)
        c = f' class="{cls}"' if cls else ""
        self.parts.append(
            f'<line{c} x1="{_fmt(ax)}" y1="{_fmt(ay)}" x2="{_fmt(bx)}" y2="{_fmt(by)}" '
            f'stroke="{stroke}" stroke-width="{_fmt(width)}"/>'
        )

    def polygon(self, pts, fill, stroke="none", opacity=1.0, cls=None):
        coords = " ".join(
            f"{_fmt(px)},{_fmt(py)}" for px, py in (self.pt(x, y) for x, y in pts)
        )
        c = f' class="{cls}"' if cls else ""
        self.parts.append(
            f'<polygon{c} points="{coords}" fill="{fill}" stroke="{stroke}" '
            f'opacity="{_fmt(opacity)}"/>'
        )

    def circle(self, center, radius, fill, opacity=1.0, cls=None):
        cx, cy = self.pt(*center)
        c = f' class="{cls}"' if cls else ""
        self.parts.append(
            f'<circle{c} cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(radius * _SCALE)}" '
            f'fill="{fill}" opacity="{_fmt(opacity)}"/>'
        )

    def polyline(self, pts, stroke, width=2.0, cls=None):
        coords = " ".join(
            f"{_fmt(px)},{_fmt(py)}" for px, py in (self.pt(x, y) for x, y in pts)
        )
        c = f' class="{cls}"' if cls else ""
        self.parts.append(
            f'<polyline{c} points="{coords}" fill="none" stroke="{stroke}" '
            f'stroke-width="{_fmt(width)}"/>'
        )

    def pose_triangle(self, pose: Pose, size: float, fill, cls=None):
        c, s = pose.cos, pose.sin
        tip = (pose.x + size * c, pose.y + size * s)
        left = (pose.x - 0.5 * size * c - 0.4 * size * s,
                pose.y - 0.5 * size * s + 0.4 * size * c)
        right = (pose.x - 0.5 * size * c + 0.4 * size * s,
                 pose.y - 0.5 * size * s - 0.4 * size * c)
        self.polygon([tip, left, right], fill=fill, cls=cls)

    def to_svg(self) -> str:
        header = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(self.width)}" '
            f'height="{_fmt(self.height)}" '
            f'viewBox="0 0 {_fmt(self.width)} {_fmt(self.height)}">'
        )
        return header + "\n" + "\n".join(self.parts) + "\n</svg>\n"


def _draw_world(canvas: _Canvas, world: World):
    a = canvas.pt(world.x_min, world.y_max)
    b = canvas.pt(world.x_max, world.y_min)
    canvas.parts.append(
        f'<rect x="{_fmt(a[0])}" y="{_fmt(a[1])}" width="{_fmt(b[0] - a[0])}" '
        f'height="{_fmt(b[1] - a[1])}" fill="white" stroke="black" stroke-width="1.5"/>'
    )
    for ob in world.obstacles:
        if isinstance(ob, Ball):
            canvas.circle((ob.center.x, ob.center.y), ob.radius, fill="#555555",
                          cls="obstacle")
        else:
            canvas.polygon([(v.x, v.y) for v in ob.vertices], fill="#555555",
                           cls="obstacle")


def render_plan(world: World, graph: MotionGraph, params: ControlParams) -> str:
    """SVG of the tree, its vertices, prediction hulls, and the best path."""
    canvas = _Canvas(world)
    _draw_world(canvas, world)
    for a, b, _ in graph.edges():
        pa, pb = graph.poses[a], graph.poses[b]
        canvas.line((pa.x, pa.y), (pb.x, pb.y), stroke="#9ecae1", width=0.8, cls="edge")
    best: list[int] = []
    if graph.goal_index is not None:
        best = graph.path_indices(graph.goal_index)
        for a, b in zip(best, best[1:]):
            pa, pb = graph.poses[a], graph.poses[b]
            # every tree edge passed issafe, so it certifies a direction here
            hull = motion_bound(pa, pb, params, issafe(pa, pb, world, params))
            pts = [(v.x, v.y) for v in hull.vertices]
            if len(pts) >= 3:
                canvas.polygon(pts, fill="#fdae6b", opacity=0.25, cls="hull")
        canvas.polyline(
            [(graph.poses[i].x, graph.poses[i].y) for i in best],
            stroke="#d62728", width=2.5, cls="best-path",
        )
    for i in graph.alive_indices():
        canvas.pose_triangle(graph.poses[int(i)], size=0.12, fill="#3182bd",
                             cls="vertex")
    canvas.pose_triangle(graph.poses[0], size=0.25, fill="#2ca02c", cls="start")
    if best:
        canvas.pose_triangle(graph.poses[best[-1]], size=0.25, fill="#d62728",
                             cls="goal")
    return canvas.to_svg()


def render_execution(world: World, graph: MotionGraph, xs, ys) -> str:
    """SVG overlay of an executed trajectory on the graph's best path."""
    canvas = _Canvas(world)
    _draw_world(canvas, world)
    if graph.goal_index is not None:
        best = graph.path_indices(graph.goal_index)
        canvas.polyline(
            [(graph.poses[i].x, graph.poses[i].y) for i in best],
            stroke="#fdae6b", width=2.0, cls="best-path",
        )
        for i in best:
            canvas.pose_triangle(graph.poses[i], size=0.15, fill="#e6550d",
                                 cls="waypoint")
    canvas.polyline(list(zip(xs, ys)), stroke="#1f77b4", width=2.0, cls="trajectory")
    return canvas.to_svg()
