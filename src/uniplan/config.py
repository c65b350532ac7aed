"""Configuration dataclasses for the controllers and the planner.

All coefficient constraints are enforced at construction so that downstream
code can assume a valid configuration. OBJECTIVES and INFORMED_MODES are the
one list of objective and informed-mode names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields


OBJECTIVES = ("euclidean", "euccos", "dualhead", "uniform")
INFORMED_MODES = ("off", "zero", "euclidean")


def check_kappa(kappa: float, name: str) -> None:
    """The pose distances' shared coefficient must lie in (0, 0.5)."""
    if not 0.0 < kappa < 0.5:
        raise ValueError(f"{name} must be in (0, 0.5) (got {kappa:.6g})")


def check_finite(value: float, name: str) -> None:
    """A value must be neither NaN nor infinite."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite (got {value})")


def _check_finite(params, section: str) -> None:
    """No float field of a params dataclass may be NaN or infinite."""
    for f in fields(params):
        value = getattr(params, f.name)
        if isinstance(value, float):
            check_finite(value, f"{section}.{f.name}")


@dataclass(frozen=True)
class ControlParams:
    """Coefficients and integration settings for the pose controllers.

    headway/tailway are the forward-controller coefficients (point ahead of
    the robot, point behind the goal); back_tailway/back_headway are the
    backward-controller coefficients (point behind the robot, point ahead of
    the goal). gain is the reference-dynamics gain in 1/s.
    """

    headway: float = 0.25
    tailway: float = 0.25
    back_tailway: float = 0.25
    back_headway: float = 0.25
    gain: float = 1.0
    step: float = 1e-3       # integration step, s
    goal_tol: float = 1e-3   # position convergence tolerance, m
    angle_tol: float = 1e-2  # orientation convergence tolerance, rad
    horizon: float = 60.0    # simulation horizon, s

    def __post_init__(self):
        _check_finite(self, "control")
        for name in ("headway", "tailway", "back_tailway", "back_headway"):
            if getattr(self, name) <= 0:
                raise ValueError(f"control.{name} must be > 0")
        for a, b in (("headway", "tailway"), ("back_tailway", "back_headway")):
            total = 2 * getattr(self, a) + getattr(self, b)
            if total >= 1:
                raise ValueError(f"control: requires 2*{a} + {b} < 1 (got {total:.6g})")
        for name in ("gain", "step", "goal_tol", "angle_tol", "horizon"):
            if getattr(self, name) <= 0:
                raise ValueError(f"control.{name} must be > 0")


@dataclass(frozen=True)
class PlannerParams:
    """Sampling, neighborhood, projection, and objective settings for planning."""

    samples: int = 3000
    goal_bias: float = 0.05             # probability of drawing the goal pose
    neighbor_radius: float = 1.5        # Euclidean neighborhood radius, m
    neighbor_angle: float = 1 - math.cos(math.pi / 3)   # cosine-distance radius
    step_radius: float = 1.0            # projection position step, m
    step_angle: float = 1 - math.cos(math.pi / 6)       # projection cosine step
    alpha: float = 1.0                  # translation weight
    beta: float = 10.0                  # orientation weight
    objective: str = "dualhead"
    kappa: float = 1.0 / 3.0            # shared coefficient of the pose distances
    informed: str = "off"
    seed: int = 0

    def __post_init__(self):
        _check_finite(self, "planner")
        if self.samples < 0:
            raise ValueError("planner.samples must be >= 0")
        if not 0.0 <= self.goal_bias <= 1.0:
            raise ValueError(f"planner.goal_bias must be in [0, 1] (got {self.goal_bias:.6g})")
        check_kappa(self.kappa, "planner.kappa")
        for name in ("neighbor_radius", "neighbor_angle"):
            if getattr(self, name) < 0:
                raise ValueError(f"planner.{name} must be >= 0")
        if self.step_radius <= 0:
            raise ValueError("planner.step_radius must be > 0")
        if not 0.0 < self.step_angle < 2.0:
            raise ValueError("planner.step_angle must be in (0, 2)")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("planner.alpha and planner.beta must be >= 0")
        if self.alpha == 0 and self.beta == 0:
            raise ValueError("planner.alpha and planner.beta cannot both be 0")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"planner.objective must be one of {OBJECTIVES}")
        if self.informed not in INFORMED_MODES:
            raise ValueError(f"planner.informed must be one of {INFORMED_MODES}")
        if self.informed != "off" and self.objective == "uniform":
            # the Euclidean/zero heuristics only under-estimate distance-based costs
            raise ValueError("planner.informed requires a distance-based objective")
