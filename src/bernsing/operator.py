"""The bridged Bernstein operator: degree-n Bernstein sums applied to
the spliced function, so the singular point is never sampled."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import bernstein_apply
from .blending import Knots, TestFunction, fbar, knots
from .weights import WeightParams

__all__ = ["OperatorInstance", "build_operator", "bbar_apply", "bbar_second"]


@dataclass(frozen=True, eq=False)
class OperatorInstance:
    """Immutable snapshot of one (f, n) pair: the spliced samples at the
    lattice k/n, ready for repeated evaluation across abscissae."""

    n: int
    params: WeightParams
    knots: Knots
    fbar_samples: np.ndarray


def build_operator(f: TestFunction, n: int, params: WeightParams) -> OperatorInstance:
    """Precompute the n+1 spliced samples.  Lattice points strictly
    inside (x2, x3) take bridge-line values, so f is never evaluated
    there."""
    k = knots(n, params.xi)
    lattice = np.arange(n + 1) / n
    samples = fbar(f, k, lattice)
    if not np.isfinite(samples).all():
        raise ValueError(f"{f.name or 'f'} has non-finite spliced samples at n={n}")
    samples.flags.writeable = False
    return OperatorInstance(n=n, params=params, knots=k, fbar_samples=samples)


def bbar_apply(op: OperatorInstance, x):
    """Evaluate the operator at x (scalar or ndarray)."""
    return bernstein_apply(op.fbar_samples, x)


def bbar_second(op: OperatorInstance, x):
    """Exact second derivative of the operator polynomial:
    n (n-1) * sum_k (s_{k+2} - 2 s_{k+1} + s_k) p_{n-2,k}(x).

    The forward-difference identity is an exact polynomial fact, valid
    for every x in [0,1]; a single code path avoids branch-boundary
    artifacts.
    """
    if op.n < 2:
        raise ValueError(f"second derivative needs n >= 2, got n={op.n}")
    s = op.fbar_samples
    dd = s[:-2] - 2.0 * s[1:-1] + s[2:]
    return op.n * (op.n - 1) * bernstein_apply(dd, x)
