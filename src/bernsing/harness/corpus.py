"""Built-in test functions keyed by name.

Every entry is vectorised (accepts scalars and ndarrays) and carries
the metadata the checks need: exact derivatives where they exist, the
nominal smoothness exponent where one is known, and whether the
weighted second-derivative norm is finite.
"""
from __future__ import annotations

import numpy as np

from ..blending import TestFunction
from ..weights import WeightParams

__all__ = ["CORPUS_NAMES", "corpus"]

_AFFINE_A = 0.75
_AFFINE_B = 0.2

_BUMP_C = 0.35
_BUMP_S = 0.12


def _affine() -> TestFunction:
    return TestFunction(
        eval=lambda t: _AFFINE_A * np.asarray(t, float) + _AFFINE_B,
        d1=lambda t: np.full_like(np.asarray(t, float), _AFFINE_A),
        d2=lambda t: np.zeros_like(np.asarray(t, float)),
        name="affine",
        in_w2phi=True,
    )


def _quadratic() -> TestFunction:
    return TestFunction(
        eval=lambda t: np.asarray(t, float) ** 2,
        d1=lambda t: 2.0 * np.asarray(t, float),
        d2=lambda t: np.full_like(np.asarray(t, float), 2.0),
        name="quadratic",
        in_w2phi=True,
    )


def _smooth_bump() -> TestFunction:
    c, s = _BUMP_C, _BUMP_S

    def f(t):
        u = (np.asarray(t, float) - c) / s
        return np.exp(-u * u)

    def f1(t):
        u = (np.asarray(t, float) - c) / s
        return np.exp(-u * u) * (-2.0 * u / s)

    def f2(t):
        u = (np.asarray(t, float) - c) / s
        return np.exp(-u * u) * (4.0 * u * u - 2.0) / (s * s)

    return TestFunction(eval=f, d1=f1, d2=f2, name="smooth-bump", in_w2phi=True)


def _power(xi: float, s: float, odd: bool) -> tuple:
    """eval, d1 and d2 of the signed power sign(x-xi)^odd |x-xi|^s.  The
    k-th derivative is c_k |x-xi|^(s-k), with c_k = 1, s, s(s-1), times
    sign(x-xi) when k + odd is odd."""

    def derivative(k: int, c: float):
        signed = (k + odd) % 2 == 1

        def g(t):
            d = np.asarray(t, float) - xi
            return (c * np.sign(d) if signed else c) * np.abs(d) ** (s - k)

        return g

    return derivative(0, 1.0), derivative(1, s), derivative(2, s * (s - 1.0))


def _inner_root(params: WeightParams) -> TestFunction:
    """Even root singularity |x-xi|^(-alpha/2)."""
    a = params.alpha
    f, f1, f2 = _power(params.xi, -a / 2.0, odd=False)
    return TestFunction(eval=f, d1=f1, d2=f2, name="inner-root",
                        alpha0=a / 2.0 if a / 2.0 < 2.0 else None)


def _inner_cusp(params: WeightParams, alpha0: float) -> TestFunction:
    """Odd cusp sign(x-xi) |x-xi|^(alpha0-alpha): the weighted value
    decays like |x-xi|^alpha0 at the singularity, and alpha0 is the
    decay exponent of its weighted modulus.  The sign factor keeps the
    second difference alive when alpha0 equals the weight exponent
    (a plain power would collapse to a constant there)."""
    f, f1, f2 = _power(params.xi, alpha0 - params.alpha, odd=True)
    return TestFunction(eval=f, d1=f1, d2=f2, name=f"inner-cusp[{alpha0:g}]", alpha0=alpha0)


# name -> factory of (params, alpha0); only inner-cusp reads alpha0
_FACTORIES = {
    "affine": lambda params, alpha0: _affine(),
    "quadratic": lambda params, alpha0: _quadratic(),
    "inner-cusp": _inner_cusp,
    "inner-root": lambda params, alpha0: _inner_root(params),
    "smooth-bump": lambda params, alpha0: _smooth_bump(),
}
CORPUS_NAMES = tuple(_FACTORIES)


def corpus(name: str, params: WeightParams, alpha0: float | None = None) -> TestFunction:
    """Look up a corpus function by name.

    ``alpha0`` selects the nominal exponent of ``inner-cusp`` (default
    1.0) and is rejected for the other names, whose exponent is either
    fixed by construction or unknown.
    """
    if name not in _FACTORIES:
        raise ValueError(f"unknown corpus function {name!r}; choose from {CORPUS_NAMES}")
    if name == "inner-cusp":
        alpha0 = 1.0 if alpha0 is None else alpha0
    elif alpha0 is not None:
        raise ValueError(f"alpha0 is only configurable for 'inner-cusp', not {name!r}")
    return _FACTORIES[name](params, alpha0)
