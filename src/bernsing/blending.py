"""C2 blending around the singular zone: quintic switch, lattice knots,
bridge line, and the spliced function with its exact second derivative."""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .basis import _check_degree, _check_x
from .exceptions import InvalidDegree, MissingDerivative

__all__ = ["Knots", "TestFunction", "psi", "psi_d", "knots", "bridge_p", "fbar", "fbar_d2"]


@dataclass(frozen=True)
class TestFunction:
    """A function on [0,1] minus the singular point.

    ``eval`` (and ``d1``/``d2`` where present) must accept scalars and
    ndarrays.  ``alpha0`` is the nominal smoothness exponent in (0,2)
    when known; ``in_w2phi`` marks functions with a finite weighted
    second-derivative norm sup |wbar * phi^2 * f''|.
    """

    __test__ = False  # keep pytest from collecting this as a test class

    eval: Callable
    name: str = ""
    d1: Optional[Callable] = None
    d2: Optional[Callable] = None
    alpha0: Optional[float] = None
    in_w2phi: bool = False

    def __post_init__(self):
        if self.alpha0 is not None and not 0.0 < self.alpha0 < 2.0:
            raise ValueError(f"alpha0 must lie in (0,2), got {self.alpha0!r}")


def _evaluate(f: TestFunction, where: str, compute: Callable[[], np.ndarray]) -> np.ndarray:
    """compute(), an expression in evaluations of f, as a float array.
    An overflow or an invalid operation while it runs, or a NaN or an
    infinity in its result, is one ValueError naming f and ``where``."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            vals = np.asarray(compute(), dtype=float)
    except FloatingPointError as e:
        reason = str(e)
    else:
        if np.isfinite(vals).all():
            return vals
        reason = "non-finite value"
    raise ValueError(f"evaluation of {f.name or 'f'} failed {where}: {reason}")


def _as_array(x):
    scalar = np.ndim(x) == 0
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    return scalar, xs


def psi(x):
    """Quintic switch: 0 for x<=0, 10x^3-15x^4+6x^5 on (0,1), 1 for x>=1.

    Non-decreasing, C2 on the whole line, with psi and its first two
    derivatives vanishing at 0 and psi(1)=1 with flat first/second
    derivatives there.
    """
    scalar, xs = _as_array(x)
    u = np.clip(xs, 0.0, 1.0)
    val = u * u * u * (10.0 + u * (-15.0 + 6.0 * u))
    return float(val[0]) if scalar else val


def psi_d(x, order: int):
    """First or second derivative of the quintic switch (zero outside (0,1))."""
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order!r}")
    scalar, xs = _as_array(x)
    u = np.clip(xs, 0.0, 1.0)
    if order == 1:
        val = 30.0 * u * u * (1.0 - u) ** 2
    else:
        val = 60.0 * u * (1.0 - u) * (1.0 - 2.0 * u)
    return float(val[0]) if scalar else val


@dataclass(frozen=True)
class Knots:
    """Transition abscissae 0 < x1 < x2 < xi < x3 < x4 < 1, all lattice
    points k/n; i1..i4 are the corresponding lattice indices."""

    n: int
    x1: float
    x2: float
    x3: float
    x4: float
    i1: int
    i2: int
    i3: int
    i4: int


def knots(n: int, xi: float) -> Knots:
    """Lattice knots floor(n*xi -+ c*sqrt(n))/n for c = 2, 1.

    Raises InvalidDegree when n is too small for this xi: the blend
    zones would collapse or leave (0,1), which would silently corrupt
    rate experiments if clamped instead.
    """
    n = _check_degree(n)
    if not 0.0 < xi < 1.0:
        raise ValueError(f"xi must lie in (0,1), got {xi!r}")
    s = math.sqrt(n)
    if n * xi - 2.0 * s < 1.0:
        raise InvalidDegree(f"n={n} too small for xi={xi}: n*xi - 2*sqrt(n) < 1")
    i1 = math.floor(n * xi - 2.0 * s)
    i2 = math.floor(n * xi - s)
    i3 = math.floor(n * xi + s)
    i4 = math.floor(n * xi + 2.0 * s)
    if i4 >= n:
        raise InvalidDegree(f"n={n} too small for xi={xi}: x4 >= 1")
    return Knots(n=n, x1=i1 / n, x2=i2 / n, x3=i3 / n, x4=i4 / n, i1=i1, i2=i2, i3=i3, i4=i4)


def _line(k: Knots, fx1, fx4, x):
    a = (x - k.x4) / (k.x1 - k.x4)
    b = (k.x1 - x) / (k.x1 - k.x4)
    return a * fx1 + b * fx4


def bridge_p(f: TestFunction, k: Knots, x):
    """The line through (x1, f(x1)) and (x4, f(x4))."""
    return _line(k, f.eval(k.x1), f.eval(k.x4), x)


def _zones(f: TestFunction, k: Knots, x) -> tuple:
    """The zone table of the spliced function at x: x as an array, the
    masks of the outer zone (f itself) and of the bridge zone (the
    line), one (mask, start, end, f_first) per blend zone, where the
    switch psi((t - start)/(end - start)) runs from f to the line when
    f_first and from the line to f otherwise, and the bridge line and
    its slope, from one evaluation of f at x1 and one at x4."""
    xs = np.atleast_1d(_check_x(x))
    fx1 = f.eval(k.x1)
    fx4 = f.eval(k.x4)
    blends = (((xs > k.x1) & (xs < k.x2), k.x1, k.x2, True),
              ((xs > k.x3) & (xs < k.x4), k.x3, k.x4, False))
    return (xs, (xs <= k.x1) | (xs >= k.x4), (xs >= k.x2) & (xs <= k.x3), blends,
            functools.partial(_line, k, fx1, fx4), (fx4 - fx1) / (k.x4 - k.x1))


def _ends(f_side, line_side, f_first: bool) -> tuple:
    """(value where the switch is 0, value where it is 1)."""
    return (f_side, line_side) if f_first else (line_side, f_side)


def fbar(f: TestFunction, k: Knots, x):
    """The spliced function: f outside [x1,x4], the bridge line on
    [x2,x3], and quintic blends between f and the bridge on the two
    transition zones.  f is never evaluated strictly inside (x2,x3),
    and on [0,x1] u [x4,1] the value is f(x) through the identical
    evaluation path (bit-exact)."""
    xs, outer, bridge, blends, line, _ = _zones(f, k, x)
    out = np.empty_like(xs)
    out[outer] = f.eval(xs[outer])
    out[bridge] = line(xs[bridge])
    for sel, a, b, f_first in blends:
        t = xs[sel]
        w = psi((t - a) / (b - a))
        lo, hi = _ends(f.eval(t), line(t), f_first)
        out[sel] = lo * (1.0 - w) + w * hi
    return float(out[0]) if np.ndim(x) == 0 else out


def fbar_d2(f: TestFunction, k: Knots, x):
    """Exact second derivative of the spliced function.

    Outer intervals: f''.  Bridge: 0.  Blend zones: the product-rule
    expansion of lo (1 - psi) + psi hi, that is
    psi'' * (hi - lo) + 2 psi' * (hi - lo)' + lo'' (1 - psi) + psi hi'',
    with the chain-rule factor 1/(x2-x1) or 1/(x4-x3), where lo and hi
    are f and the bridge line in the order the switch runs.  Kept
    symbolic so checks of the weighted second-derivative norm are free
    of differencing noise near the knots.
    """
    if f.d1 is None or f.d2 is None:
        raise MissingDerivative(f"fbar_d2 needs d1 and d2 on {f.name or 'f'}")
    xs, outer, _, blends, line, slope = _zones(f, k, x)
    out = np.zeros_like(xs)
    out[outer] = f.d2(xs[outer])
    for sel, a, b, f_first in blends:
        t = xs[sel]
        c = 1.0 / (b - a)
        u = (t - a) * c
        w = psi(u)
        lo, hi = _ends(f.eval(t), line(t), f_first)
        lo1, hi1 = _ends(f.d1(t), slope, f_first)
        lo2, hi2 = _ends(f.d2(t), 0.0, f_first)
        out[sel] = (
            psi_d(u, 2) * c * c * (hi - lo)
            + 2.0 * psi_d(u, 1) * c * (hi1 - lo1)
            + (lo2 * (1.0 - w) + w * hi2)
        )
    return float(out[0]) if np.ndim(x) == 0 else out
