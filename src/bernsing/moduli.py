"""Weighted second-order modulus of smoothness and the step-weight
quadrature ratio."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blending import TestFunction, _evaluate
from .exceptions import Degenerate
from .weights import EvalGrid, StepWeight, WeightParams, step_weight, wbar

__all__ = [
    "ModulusConfig",
    "modulus_curve",
    "quadrature_bound_ratio",
]

# Translates of a second difference may not approach the singularity by
# more than this fraction of the step h*phi(x).  Without the guard the
# grid sup for functions unbounded at xi is dominated by accidental
# near-hits of the translate lattice on xi, which scale like the weight
# exponent instead of the smoothness exponent.  The trimmed set grows
# back to the formal sup as the fraction tends to 0.
REL_STEP_TUBE = 0.25

T_MAX = 0.25
# panels per axis of quadrature_bound_ratio
_PANELS = 256


@dataclass(frozen=True)
class ModulusConfig:
    """Discretization of the double sup: h runs over geometric ladders
    of h_steps points (spanning two decades below each anchor scale),
    x over the given grid; t_values are the anchor scales."""

    x_grid: EvalGrid
    t_values: tuple
    h_steps: int = 16

    def __post_init__(self):
        if not (self.h_steps >= 8 and float(self.h_steps).is_integer()):
            raise ValueError(f"h_steps must be an integer >= 8, got {self.h_steps!r}")
        _check_t_values(self.t_values)


def _check_t_values(t_values) -> None:
    """Raise ValueError unless the anchor scales are non-empty, strictly
    increasing and in (0, T_MAX]."""
    ts = np.asarray(t_values, dtype=float)
    # NaN fails both comparisons
    if ts.size == 0 or not ((ts > 0.0) & (ts <= T_MAX)).all():
        raise ValueError(f"t_values must lie in (0, {T_MAX}]")
    if (np.diff(ts) <= 0).any():
        raise ValueError("t_values must be strictly increasing")


def _admissible(x, off, xi, exclusion):
    """True where the stencil x - off, x, x + off lies in [0,1], x clears
    the exclusion tube around xi (absolute radius ``exclusion``) and the
    translates clear it widened to REL_STEP_TUBE * off."""
    tube = np.maximum(exclusion, REL_STEP_TUBE * off)
    return ((x + off <= 1.0) & (x - off >= 0.0) & (np.abs(x - xi) > exclusion)
            & (np.abs(x + off - xi) > tube) & (np.abs(x - off - xi) > tube))


def _weighted_diff_max(f, params, sw, grid, h):
    """Grid sup of |wbar * second difference| at one step h, or None
    when every grid point is inadmissible."""
    x = grid.points
    off = h * step_weight(sw, x)
    ok = _admissible(x, off, params.xi, grid.exclusion_radius)
    if not ok.any():
        return None
    xa = x[ok]
    oa = off[ok]
    vals = _evaluate(f, "in a second difference", lambda: wbar(params, xa) * np.abs(
        f.eval(xa + oa) - 2.0 * f.eval(xa) + f.eval(xa - oa)))
    return float(vals.max())


def _ladder(anchor: float, h_steps: int) -> np.ndarray:
    ratio = 0.01 ** (1.0 / (h_steps - 1))
    return anchor * ratio ** np.arange(h_steps)


def modulus_curve(f: TestFunction, params: WeightParams, sw: StepWeight,
                  cfg: ModulusConfig) -> np.ndarray:
    """Grid sup over steps h <= t and abscissae x of
    |wbar(x) (f(x + h phi(x)) - 2 f(x) + f(x - h phi(x)))| at every
    anchor t in cfg.t_values.

    The h grid at t is the union of the geometric ladders of t and of
    every anchor below it, so the curve is non-decreasing in t by
    construction and each ladder is evaluated once.  (h, x) pairs that
    _admissible rejects are skipped; at the first anchor where every pair
    so far was rejected the sup is undefined and Degenerate is raised.
    """
    curve, best = [], None
    for t in cfg.t_values:
        for h in _ladder(t, cfg.h_steps):
            m = _weighted_diff_max(f, params, sw, cfg.x_grid, h)
            if m is not None:
                best = m if best is None else max(best, m)
        if best is None:
            raise Degenerate(f"no admissible (h, x) pair at t={t!r}")
        curve.append(best)
    return np.array(curve)


def quadrature_bound_ratio(sw: StepWeight, t: float, x: float) -> float:
    """Ratio of the double integral of phi^-2 over [-t/2, t/2]^2
    (composite 2-d trapezoid) to t^2 phi^-2(x), for 0 < t < 1/4 and
    t < x < 1-t.  Boundedness of this ratio over a (t, x) sweep is the
    step-weight integrability property the smoothing arguments rest on.
    """
    if not 0.0 < t < 0.25:
        raise ValueError(f"t must lie in (0, 1/4), got {t!r}")
    if not t < x < 1.0 - t:
        raise ValueError(f"x must lie in (t, 1-t), got {x!r}")
    u = np.linspace(-t / 2.0, t / 2.0, _PANELS + 1)
    wu = np.full(_PANELS + 1, t / _PANELS)
    wu[0] *= 0.5
    wu[-1] *= 0.5
    y = x + u[:, None] + u[None, :]
    integral = float(wu @ step_weight(sw, y) ** -2.0 @ wu)
    return integral / (t * t * step_weight(sw, x) ** -2.0)
