"""Independent oracles used only by the tests.

Most of this is a from-scratch reimplementation (exact binomials,
explicit four-sum operator, finite differences) kept deliberately
separate from the library's evaluation paths.  Four parts are not: the
log-binomial table that full_width_block reads, for the reason in its
docstring; the scalar sums (basis_value to lemma6_sum), which slice
the indices they sum over from one whole row of basis_row;
quadrature_ratio_2d, which calls step_weight at every node of the full
grid, the reference for the bits of the library's anti-diagonal form;
and per_step_modulus_curve, which reads the library's stencil rule and,
unless given its own, its step ladder.
The lemma sweep reads whole blocks through moment tables of its own, so
the scalar sums check it one abscissa at a time.  The last row is kept:
a caller that runs all its sums at one (n, x) before the next builds
each row once, and no more than one row is held.
"""
import math
from functools import lru_cache

import mpmath
import numpy as np

from bernsing.basis import _check_degree, _inverse_weights, basis_row
from bernsing.exceptions import Degenerate
from bernsing.harness.checks import _window
from bernsing.moduli import _admissible, _ladder
from bernsing.weights import step_weight, wbar


def naive_basis(n, k, x):
    if x == 0.0:
        return 1.0 if k == 0 else 0.0
    if x == 1.0:
        return 1.0 if k == n else 0.0
    return float(math.comb(n, k)) * x**k * (1.0 - x) ** (n - k)


def naive_row(n, x):
    return np.array([naive_basis(n, k, x) for k in range(n + 1)])


def mp_row(n, x, dps=40):
    """p_{n,k}(x) for k = 0..n as mpmath numbers with dps significant
    digits, x taken at its exact binary value, 0 < x < 1.  The ratio
    recurrence p_{k+1} = p_k (n-k)/(k+1) x/(1-x) loses about log10(n)
    digits, far below the float64 level at any n used here."""
    with mpmath.workdps(dps):
        x = mpmath.mpf(x)
        r = x / (1 - x)
        row = [(1 - x) ** n]
        for k in range(n):
            row.append(row[-1] * (n - k) / (k + 1) * r)
    return row


def quadrature_ratio_2d(sw, t, x, panels):
    """quadrature_bound_ratio as a composite trapezoid on the full
    (panels + 1)^2 node grid: phi^-2 at (x + u_i) + u_j for every pair of
    nodes u_i, u_j in [-t/2, t/2], summed by wu @ (grid) @ wu."""
    u = np.linspace(-t / 2.0, t / 2.0, panels + 1)
    wu = np.full(panels + 1, t / panels)
    wu[0] *= 0.5
    wu[-1] *= 0.5
    integral = float(wu @ step_weight(sw, x + u[:, None] + u[None, :]) ** -2.0 @ wu)
    return integral / (t * t * float(np.float64(step_weight(sw, x)) ** -2.0))


def mp_quadrature_ratio(beta0, beta1, t, x, dps=30):
    """The exact ratio the trapezoid approximates: the double integral of
    phi^-2(x + u + v) over [-t/2, t/2]^2, which is the triangle-kernel
    integral of (t - |s|) phi^-2(x + s) over [-t, t], over t^2 phi^-2(x),
    with phi(y) = y^beta0 (1 - y)^beta1, by mpmath quadrature split at the
    kink s = 0, t and x at their exact binary values."""
    with mpmath.workdps(dps):
        t, x = mpmath.mpf(t), mpmath.mpf(x)
        b0, b1 = 2 * mpmath.mpf(beta0), 2 * mpmath.mpf(beta1)

        def inv_phi2(y):
            return y**-b0 * (1 - y) ** -b1

        integral = mpmath.quad(lambda s: (t - abs(s)) * inv_phi2(x + s), [-t, 0, t])
        return integral / (t * t * inv_phi2(x))


def ln_fact_loop(n):
    """ln k! for k = 0..m, m >= n, as the library's table lays it out:
    fixed segments, to 64 and then by doubling, each summing the logs of
    its indices onto the last entry before it with Neumaier compensation
    restarted at the segment start.  The sum runs one longdouble scalar
    at a time: the reference for the table's array passes."""
    ld = np.longdouble
    table = np.zeros(2, dtype=ld)
    while table.size <= n:
        top = table.size - 1
        size = max(64, 2 * top)
        logs = np.log(np.arange(top + 1, size + 1, dtype=ld))
        out = np.empty(size + 1, dtype=ld)
        out[: top + 1] = table
        s, c = out[top], ld(0.0)
        for i in range(logs.size):
            t = logs[i]
            tot = s + t
            if abs(s) >= abs(t):
                c += (s - tot) + t
            else:
                c += (t - tot) + s
            s = tot
            out[top + 1 + i] = s + c
        table = out
    return table


def full_width_block(n, x, klo, khi):
    """p_{n,k}(x) for k = klo..khi (columns) at every x (rows), with the
    exponent ln C(n,k) + k ln x + (n-k) ln(1-x) assembled in longdouble
    over every column, in the kernel's operation order, then rounded to
    float64 and exponentiated, with 0**0 = 1 at x = 0 and x = 1.

    The log-binomials come from the library's table: this oracle pins
    which entries the kernel leaves out, not the table, and an equality
    to the bit needs the same table entries."""
    from bernsing.basis import _log_binom

    ld = np.longdouble
    x = np.asarray(x, dtype=float)
    k = np.arange(klo, khi + 1, dtype=ld)
    xl = x.astype(ld)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        e = _log_binom(n, np.arange(klo, khi + 1)) + np.log(xl) * k
        e = e + np.log1p(-xl) * (n - k)
    out = np.exp(e.astype(float))
    if klo == 0:
        out[x == 0.0, 0] = 1.0
    if khi == n:
        out[x == 1.0, -1] = 1.0
    return out


# the last row asked for, kept for the next sum at the same (n, x)
_row = lru_cache(maxsize=1)(basis_row)


def basis_value(n, k, x):
    """p_{n,k}(x) = C(n,k) x^k (1-x)^(n-k), evaluated in log space."""
    n = _check_degree(n)
    if not 0 <= k <= n or int(k) != k:
        raise ValueError(f"index k must be an integer in 0..{n}, got {k!r}")
    return float(_row(n, x)[int(k)])


def central_moment_sum(n, gamma, x):
    """Sum_k p_{n,k}(x) |k - n x|^gamma."""
    n = _check_degree(n)
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma!r}")
    # |k - n x|^gamma is 0**gamma at k = n x; this includes x in {0, 1}
    if gamma < 0 and float(n * x).is_integer():
        raise ValueError(f"negative gamma is undefined where n*x is an index, got n*x = {n * x!r}")
    d = np.abs(np.arange(n + 1, dtype=float) - n * x)
    with np.errstate(divide="ignore"):
        return float(np.dot(_row(n, x), d**gamma))


def inverse_moment_sum(n, u, v, x):
    """Sum over interior indices k = 1..n-1 of (k/n)^-u (1-k/n)^-v p_{n,k}(x)."""
    n = _check_degree(n)
    if n < 2:
        raise ValueError(f"degree must be an integer >= 2, got {n!r}")
    if not 0.0 < x < 1.0:
        raise ValueError(f"abscissa must lie in (0,1), got {x!r}")
    if not (math.isfinite(u) and math.isfinite(v)) or u < 0 or v < 0:
        raise ValueError(f"exponents u, v must be finite and non-negative, got {u!r}, {v!r}")
    return float(np.dot(_row(n, x)[1:n], _inverse_weights(n, u, v)))


def an_sum(n, params, x):
    """wbar(x) times the basis mass of the indices within sqrt(n) of
    n*xi (the samples the bridge replaces)."""
    n = _check_degree(n)
    klo, khi = _window(n, params.xi)
    return wbar(params, x) * float(_row(n, x)[klo : khi + 1].sum())


def lemma6_sum(n, params, beta, x):
    """wbar(x) * sum over the same index window of |k - n x|^beta p_{n,k}(x)."""
    n = _check_degree(n)
    if not math.isfinite(beta) or beta < 0:
        raise ValueError(f"beta must be finite and non-negative, got {beta!r}")
    klo, khi = _window(n, params.xi)
    d = np.abs(np.arange(klo, khi + 1, dtype=float) - n * x)
    return wbar(params, x) * float(np.dot(_row(n, x)[klo : khi + 1], d**beta))


def quintic_switch(u):
    if u <= 0.0:
        return 0.0
    if u >= 1.0:
        return 1.0
    return 10.0 * u**3 - 15.0 * u**4 + 6.0 * u**5


def naive_knots(n, xi):
    s = math.sqrt(n)
    return (
        math.floor(n * xi - 2.0 * s) / n,
        math.floor(n * xi - s) / n,
        math.floor(n * xi + s) / n,
        math.floor(n * xi + 2.0 * s) / n,
    )


def four_sum_operator(f, n, xi, x):
    """Direct evaluation of the four-sum form of the bridged operator.

    The lattice points sitting exactly at x2 and x3 are counted with the
    bridge-line sum; the blended branch takes the same value there
    (switch at its endpoints), so the split is unambiguous.
    """
    x1, x2, x3, x4 = naive_knots(n, xi)
    fx1 = float(f.eval(x1))
    fx4 = float(f.eval(x4))

    def bridge(t):
        return ((t - x4) * fx1 + (x1 - t) * fx4) / (x1 - x4)

    total = 0.0
    for k in range(n + 1):
        t = k / n
        p = naive_basis(n, k, x)
        if t <= x1 or t >= x4:
            total += p * float(f.eval(t))
        elif x2 <= t <= x3:
            total += p * bridge(t)
        elif t < x2:
            w = quintic_switch((t - x1) / (x2 - x1))
            total += p * (float(f.eval(t)) * (1.0 - w) + w * bridge(t))
        else:
            w = quintic_switch((t - x3) / (x4 - x3))
            total += p * (bridge(t) * (1.0 - w) + w * float(f.eval(t)))
    return total


def four_sum_values(f, n, xi):
    """Per-lattice-index values of the four-sum form (same classification
    as four_sum_operator), precomputed so grids can be swept quickly."""
    x1, x2, x3, x4 = naive_knots(n, xi)
    fx1 = float(f.eval(x1))
    fx4 = float(f.eval(x4))

    def bridge(t):
        return ((t - x4) * fx1 + (x1 - t) * fx4) / (x1 - x4)

    vals = np.empty(n + 1)
    for k in range(n + 1):
        t = k / n
        if t <= x1 or t >= x4:
            vals[k] = float(f.eval(t))
        elif x2 <= t <= x3:
            vals[k] = bridge(t)
        elif t < x2:
            w = quintic_switch((t - x1) / (x2 - x1))
            vals[k] = float(f.eval(t)) * (1.0 - w) + w * bridge(t)
        else:
            w = quintic_switch((t - x3) / (x4 - x3))
            vals[k] = bridge(t) * (1.0 - w) + w * float(f.eval(t))
    return vals


def four_sum_apply(vals, n, xs):
    """Dot the four-sum values against independently built basis rows at
    every abscissa in xs (float binomials and plain powers; exact enough
    below n ~ 1000); x = 0 and x = 1 take the end values."""
    xs = np.asarray(xs, dtype=float)
    ks = np.arange(n + 1, dtype=float)
    combs = np.array([float(math.comb(n, k)) for k in range(n + 1)])
    x = xs[:, None]
    out = (combs * x**ks * (1.0 - x) ** (n - ks)) @ vals
    out[xs == 0.0] = vals[0]
    out[xs == 1.0] = vals[-1]
    return out


def central_first(g, x, h):
    return (g(x + h) - g(x - h)) / (2.0 * h)


def central_second(g, x, h):
    return (g(x + h) - 2.0 * g(x) + g(x - h)) / (h * h)


def five_point_second(g, x, h):
    return (
        -g(x + 2.0 * h) + 16.0 * g(x + h) - 30.0 * g(x) + 16.0 * g(x - h) - g(x - 2.0 * h)
    ) / (12.0 * h * h)


def per_step_modulus_curve(f, params, sw, cfg, ladder=_ladder):
    """modulus_curve as one pass per step h, each evaluating step_weight
    on the grid and wbar, f(x) and f at the two translates on the
    admissible points afresh, and summing f(x + off) - 2 f(x) + f(x - off)
    in that order: the bit reference of the driver, which evaluates phi,
    wbar and 2 f once per curve.  ladder(t, h_steps) gives the steps at
    anchor t."""
    x = cfg.x_grid.points
    curve, best = [], None
    for t in cfg.t_values:
        for h in ladder(t, cfg.h_steps):
            off = h * step_weight(sw, x)
            ok = _admissible(x, off, params.xi, cfg.x_grid.exclusion_radius)
            if ok.any():
                xa, oa = x[ok], off[ok]
                m = float(np.max(wbar(params, xa) * np.abs(
                    f.eval(xa + oa) - 2.0 * f.eval(xa) + f.eval(xa - oa))))
                best = m if best is None else max(best, m)
        if best is None:
            raise Degenerate(f"no admissible (h, x) pair at t={t!r}")
        curve.append(best)
    return np.array(curve)
