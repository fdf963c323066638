"""Fitness and comparison functions over performance estimates."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import InvalidArgumentError
from .simulator import PerformanceEstimate


@dataclass(frozen=True)
class ObjectiveConfig:
    """Stated detection targets and weights of the design objective."""

    p_re_target: float = 0.5
    p_se_target: float = 1.0
    w_re: float = 1.0
    w_se: float = 1.0
    w_fr: float = 1.0

    def __post_init__(self):
        for name in ("w_re", "w_se", "w_fr"):
            if getattr(self, name) < 0:
                raise InvalidArgumentError(f"{name} must be >= 0")
        for name in ("p_re_target", "p_se_target"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise InvalidArgumentError(f"{name} must be in [0, 1]")
        # f is largest with each p at whichever of 0 and 1 lies farther
        # from its target, and p_fr = 1; then every f is finite.
        worst = PerformanceEstimate(
            p_re=float(self.p_re_target < 0.5),
            p_se=float(self.p_se_target < 0.5),
            p_fr=1.0,
            runs_simulated=0,
        )
        if not math.isfinite(fitness_f(worst, self)):
            raise InvalidArgumentError(
                "objective weights too large: the worst-case f is not a finite number"
            )


def fitness_f(est: PerformanceEstimate, cfg: Optional[ObjectiveConfig] = None) -> float:
    """Design objective; lower is better, 0 for a perfect procedure. The
    default ``cfg`` is ``ObjectiveConfig()``."""
    cfg = ObjectiveConfig() if cfg is None else cfg
    return math.sqrt(
        cfg.w_re * (est.p_re - cfg.p_re_target) ** 2
        + cfg.w_se * (est.p_se - cfg.p_se_target) ** 2
        + cfg.w_fr * est.p_fr**2
    )


def comparison_f1(est: PerformanceEstimate) -> float:
    """Ranking objective: like the design objective with fixed targets
    (0.5, 1.0) and unit weights, but overshooting the random-error
    detection target is not penalized."""
    d_re = est.p_re - 0.5 if est.p_re < 0.5 else 0.0
    d_se = est.p_se - 1.0
    return math.sqrt(d_re**2 + d_se**2 + est.p_fr**2)
