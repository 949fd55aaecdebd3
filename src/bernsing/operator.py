"""The bridged Bernstein operator: degree-n Bernstein sums applied to
the spliced function, so the singular point is never sampled."""
from __future__ import annotations

import numpy as np

from .basis import bernstein_apply
from .blending import TestFunction, _evaluate, fbar, knots
from .weights import WeightParams

__all__ = ["build_operator", "bbar_second"]


def build_operator(f: TestFunction, n: int, params: WeightParams) -> np.ndarray:
    """The operator of degree n as its n+1 spliced samples at the lattice
    k/n, read-only; bernstein_apply(samples, x) evaluates it.  Lattice
    points strictly inside (x2, x3) take bridge-line values, so f is
    never evaluated there."""
    k = knots(n, params.xi)
    lattice = np.arange(n + 1) / n
    samples = _evaluate(f, f"at the lattice of degree {n}", lambda: fbar(f, k, lattice))
    samples.flags.writeable = False
    return samples


def bbar_second(samples: np.ndarray, x):
    """Exact second derivative of the operator polynomial of degree
    n = len(samples) - 1:
    n (n-1) * sum_k (s_{k+2} - 2 s_{k+1} + s_k) p_{n-2,k}(x).

    The forward-difference identity is an exact polynomial fact, valid
    for every x in [0,1]; a single code path avoids branch-boundary
    artifacts.
    """
    n = len(samples) - 1
    if n < 2:
        raise ValueError(f"second derivative needs n >= 2, got n={n}")
    dd = samples[:-2] - 2.0 * samples[1:-1] + samples[2:]
    return n * (n - 1) * bernstein_apply(dd, x)
