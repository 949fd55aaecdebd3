"""Singular weight, admissible step weight, resolution scale, and
grid-approximated weighted sup-norms."""
from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .basis import _check_degree, _check_x, _distinct
from .blending import TestFunction, _evaluate

__all__ = [
    "WeightParams",
    "StepWeight",
    "EvalGrid",
    "wbar",
    "step_weight",
    "varphi",
    "delta_n",
    "refined_grid",
    "weighted_sup_norm",
]


@dataclass(frozen=True)
class WeightParams:
    """Singularity location xi in (0,1) and exponent alpha > 0 of the
    weight |x - xi|^alpha."""

    xi: float
    alpha: float

    def __post_init__(self):
        if not 0.0 < self.xi < 1.0:
            raise ValueError(f"xi must lie in (0,1), got {self.xi!r}")
        if not 0.0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha!r}")


@dataclass(frozen=True)
class StepWeight:
    """Step-weight exponents for x^beta0 (1-x)^beta1."""

    beta0: float
    beta1: float

    def __post_init__(self):
        if not (0.0 <= self.beta0 < math.inf and 0.0 <= self.beta1 < math.inf):
            raise ValueError("step-weight exponents must be finite and non-negative, "
                             f"got ({self.beta0!r}, {self.beta1!r})")

    @property
    def theorem_admissible(self) -> bool:
        """True when min(beta0, beta1) >= 1/2, as the second-derivative
        and direct/inverse statements require."""
        return min(self.beta0, self.beta1) >= 0.5


@dataclass(frozen=True, eq=False)
class EvalGrid:
    """Strictly increasing abscissae in [0,1], none inside the
    exclusion tube of radius _EXCLUSION_RADIUS around the singularity."""

    points: np.ndarray


def wbar(params: WeightParams, x):
    """|x - xi|^alpha; exactly 0 at x = xi."""
    xs = _check_x(x)
    val = np.abs(xs - params.xi) ** params.alpha
    return float(val) if np.ndim(x) == 0 else val


def step_weight(sw: StepWeight, x):
    """x^beta0 (1-x)^beta1 (with 0^0 = 1 so zero exponents are inert)."""
    xs = _check_x(x)
    val = xs**sw.beta0 * (1.0 - xs) ** sw.beta1
    return float(val) if np.ndim(x) == 0 else val


def varphi(x):
    """sqrt(x (1-x)), the natural Bernstein step scale."""
    xs = _check_x(x)
    val = np.sqrt(xs * (1.0 - xs))
    return float(val) if np.ndim(x) == 0 else val


def delta_n(n: int, x):
    """varphi(x) + 1/sqrt(n), the local resolution scale at degree n."""
    n = _check_degree(n)
    return varphi(x) + 1.0 / math.sqrt(n)


_EXCLUSION_RADIUS = 1e-12


def refined_grid(
    params: WeightParams,
    uniform: int = 4097,
    cluster: int = 256,
) -> EvalGrid:
    """Uniform grid plus geometric clusters accumulating at xi, 0 and 1.

    Extrema of weighted errors concentrate at the singularity and the
    endpoints, so a quarter of the cluster budget refines each side of
    xi and each endpoint, down to distance 1e-10.  Points inside the
    exclusion tube around xi (radius _EXCLUSION_RADIUS) are dropped.
    """
    if uniform < 2:
        raise ValueError("uniform grid needs at least 2 points")
    parts = [np.linspace(0.0, 1.0, uniform)]
    m = cluster // 4
    if m:
        d_xi = np.geomspace(1e-10, 0.45 * min(params.xi, 1.0 - params.xi), m)
        d_end = np.geomspace(1e-10, 0.1, m)
        parts += [params.xi - d_xi, params.xi + d_xi, d_end, 1.0 - d_end]
    pts = _distinct(np.concatenate(parts))
    pts = pts[(pts >= 0.0) & (pts <= 1.0)]
    pts = pts[np.abs(pts - params.xi) > _EXCLUSION_RADIUS]
    pts.flags.writeable = False
    return EvalGrid(points=pts)


def weighted_sup_norm(f: TestFunction, params: WeightParams, grid: EvalGrid) -> float:
    """max over the grid of |wbar(x) f(x)|, the grid analogue of the
    weighted sup-norm (the limit value at xi itself is 0 and the grid
    never contains xi).  A failed evaluation of f (an overflow, an
    invalid operation, or a NaN or infinite value) is a ValueError."""
    x = grid.points
    vals = _evaluate(f, "on the grid", lambda: wbar(params, x) * f.eval(x))
    return float(np.max(np.abs(vals)))
