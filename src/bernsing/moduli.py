"""Weighted second-order modulus of smoothness and the step-weight
quadrature ratio."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .blending import TestFunction, _evaluate
from .exceptions import Degenerate
from .weights import _EXCLUSION_RADIUS, EvalGrid, StepWeight, WeightParams, step_weight, wbar

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
    if ts.size == 0:
        raise ValueError("t_values must be non-empty")
    # NaN fails both comparisons
    if not ((ts > 0.0) & (ts <= T_MAX)).all():
        raise ValueError(f"t_values must lie in (0, {T_MAX}]")
    if (np.diff(ts) <= 0).any():
        raise ValueError("t_values must be strictly increasing")


def _admissible(x, off, xi):
    """True where the stencil x - off, x, x + off lies in [0,1], x clears
    the exclusion tube around xi (radius _EXCLUSION_RADIUS, as the grid)
    and the translates clear it widened to REL_STEP_TUBE * off."""
    tube = np.maximum(_EXCLUSION_RADIUS, REL_STEP_TUBE * off)
    return ((x + off <= 1.0) & (x - off >= 0.0) & (np.abs(x - xi) > _EXCLUSION_RADIUS)
            & (np.abs(x + off - xi) > tube) & (np.abs(x - off - xi) > tube))


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
    phi, wbar and 2 f are evaluated once on the whole grid, f also where no
    admissible step reaches; each step evaluates f at its two translates.
    """
    x = cfg.x_grid.points
    phi, w = step_weight(sw, x), wbar(params, x)
    f2 = _evaluate(f, "in a second difference", lambda: 2.0 * f.eval(x))
    curve, best = [], None
    for t in cfg.t_values:
        for h in _ladder(t, cfg.h_steps):
            off = h * phi
            ok = _admissible(x, off, params.xi)
            if ok.any():
                xa, oa = x[ok], off[ok]
                m = float(_evaluate(f, "in a second difference", lambda: w[ok] * np.abs(
                    f.eval(xa + oa) - f2[ok] + f.eval(xa - oa))).max())
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
    A ValueError names t, x and the exponents where phi^-2 or its
    integral is not a finite positive float64 (beta0 or beta1 too large).
    """
    if not 0.0 < t < 0.25:
        raise ValueError(f"t must lie in (0, 1/4), got {t!r}")
    if not t < x < 1.0 - t:
        raise ValueError(f"x must lie in (t, 1-t), got {x!r}")
    wu = np.full(_PANELS + 1, t / _PANELS)
    wu[[0, -1]] *= 0.5
    with np.errstate(over="ignore", divide="ignore"):
        # node (i, j) is x + s[i + j] for the s below: phi^-2 once per anti-
        # diagonal, summed over a Hankel copy (the strided view sums otherwise)
        g = step_weight(sw, x + np.linspace(-t, t, 2 * _PANELS + 1)) ** -2.0
        integral = float(wu @ sliding_window_view(g, _PANELS + 1).copy() @ wu)
        # a numpy power gives inf where a float power raises OverflowError
        weight = float(np.float64(step_weight(sw, x)) ** -2.0)
    if not (0.0 < integral < np.inf and 0.0 < weight < np.inf):
        raise ValueError(f"phi^-2 or its integral is not finite and positive at "
                         f"t={t!r}, x={x!r} with beta0={sw.beta0!r}, beta1={sw.beta1!r}")
    return integral / (t * t * weight)
