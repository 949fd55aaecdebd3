"""Numerically stable Bernstein basis evaluation and moment sums.

All basis values are computed in log space: a cumulative log-factorial
table supplies the log-binomial, the exponent is assembled in extended
precision, and only the final (small-magnitude) exponent is handed to
``exp`` in double precision.  Direct binomial products would overflow
near n = 1030; the exponent cancellation (log-binomial against
k*ln x + (n-k)*ln(1-x), both of size ~n) would cost ~1e-12 of absolute
accuracy if assembled in float64, which is why the table and assembly
use ``np.longdouble``.

Entries that float64 ``exp`` would return as exactly 0.0 are not
evaluated.  A block of abscissae is assembled a cache-sized tile of rows
at a time, and a tile only between the two Chernoff edges of its
smallest and largest x, past which p_{n,k}(x) <= exp(-n KL(k/n || x)) <=
exp(-750); each edge takes a fixed four Newton steps from the Hoeffding
radius sqrt(375 n), so it costs O(1) per tile and never widens the window.

A large block's elementwise work runs on one thread per usable CPU
(``taskset`` restricts them); each takes the next tile until none is
left and assembles it in two small buffers of its own.  An entry goes
through the same operations in the same order on any thread or tile: no
bit moves.
"""
from __future__ import annotations

import collections
import functools
import math
import os
import threading

import numpy as np

__all__ = [
    "basis_value",
    "basis_row",
    "bernstein_apply",
    "central_moment_sum",
    "inverse_moment_sum",
]

_LD = np.longdouble

# ln(i!) for i = 0..len-1, accumulated with Neumaier compensation so the
# per-entry absolute error stays at the longdouble rounding level instead
# of growing with the table length.  The table grows in fixed segments,
# up to 64 and then by doubling, with the compensation restarted at each
# segment start, so no entry depends on the degrees asked for before.
_ln_fact = np.zeros(2, dtype=_LD)


def _extend_ln_fact(n: int) -> None:
    global _ln_fact
    while _ln_fact.size <= n:
        top = _ln_fact.size - 1
        size = max(64, 2 * top)
        logs = np.log(np.arange(top + 1, size + 1, dtype=_LD))
        out = np.empty(size + 1, dtype=_LD)
        out[: top + 1] = _ln_fact
        s = out[top]
        c = _LD(0.0)
        for i in range(logs.size):
            t = logs[i]
            tot = s + t
            if abs(s) >= abs(t):
                c += (s - tot) + t
            else:
                c += (t - tot) + s
            s = tot
            out[top + 1 + i] = s + c
        _ln_fact = out


# The bound is a constant: the largest sweep (rates to n = 16384) uses 9 degrees.
@functools.lru_cache(maxsize=32)
def _binom_log_row(n: int) -> np.ndarray:
    """ln C(n, k) for k = 0..n (read-only)."""
    _extend_ln_fact(n)
    f = _ln_fact[: n + 1]
    row = _ln_fact[n] - f - f[::-1]
    row.flags.writeable = False
    return row


# Values per block: it only pins the block shape that bernstein_apply's
# gemv sees, on which the last bits of its values depend; the rows per
# block follow the full index width though only a window is assembled.
# _PART_VALUES: values at least per part where a block is split by rows,
# and about per tile of a part's longdouble assembly.
_BLOCK_VALUES = 1_000_000
_PART_VALUES = 1 << 15

# Entries are set to 0.0 unevaluated past the Chernoff edge (_zero_reach)
# where p_{n,k}(x) <= exp(-n KL(k/n || x)) <= exp(-_ZERO_EXPONENT), below
# float64 exp's zero threshold of about -745.13 (the longdouble exponent
# is off by ~1e-13 at most).  _ZERO_RADIUS sqrt(n), the Hoeffding radius
# where KL >= 2 ((k - n x)/n)^2 already gives the bound, is the Newton start.
_ZERO_EXPONENT = 750.0
_ZERO_RADIUS = math.sqrt(_ZERO_EXPONENT / 2.0)
_NEWTON_STEPS = 4


def _zero_reach(n: int, a: float, b: float) -> float:
    """A distance r <= _ZERO_RADIUS sqrt(n) such that p_{n,k}(x) <=
    exp(-_ZERO_EXPONENT) wherever k lies more than r from n x on one
    side: above it with a = x, below it with a = 1 - x; b = 1 - a.

    g(d) = n KL(a + d || a) - _ZERO_EXPONENT is convex and increasing in
    d on (0, b), and g >= 0 at the Hoeffding start, so every Newton step
    stays at or beyond the root: each iterate is a valid edge.  Where the
    start already lies past the end index (reach >= n b), or a = 0, the
    Hoeffding radius is returned."""
    reach = _ZERO_RADIUS * math.sqrt(n)
    if a <= 0.0 or reach >= n * b:
        return reach
    d = reach / n
    for _ in range(_NEWTON_STEPS):
        up, down = math.log1p(d / a), math.log1p(-d / b)
        g = n * ((a + d) * up + (b - d) * down) - _ZERO_EXPONENT
        d -= g / (n * (up - down))
    return min(reach, n * d)


def _check_degree(n: int, least: int = 0) -> int:
    """n as an int; a float-valued integer such as 64.0 is accepted."""
    if n < least or int(n) != n:
        raise ValueError(f"degree must be an integer >= {least}, got {n!r}")
    return int(n)


def _check_x(x) -> np.ndarray:
    """x as a float64 array, every entry in [0,1] (NaN is rejected)."""
    xs = np.asarray(x, dtype=float)
    bad = xs[~((xs >= 0.0) & (xs <= 1.0))]
    if bad.size:
        raise ValueError(f"abscissa must lie in [0,1], got {bad.flat[0]!r}")
    return xs


def _in_parts(part, parts: int) -> None:
    """part() on parts threads, the first this one, all joined before the
    first error, if any, is re-raised."""
    if parts == 1:
        return part()
    errors = []

    def run():
        try:
            part()
        except BaseException as exc:
            errors.append(exc)
    threads = [threading.Thread(target=run) for _ in range(parts - 1)]
    for th in threads:
        th.start()
    run()
    for th in threads:
        th.join()
    if errors:
        raise errors[0]


def _edges(n: int, xs: np.ndarray, klo: int, khi: int) -> tuple[int, int]:
    """The indices lo..end-1 of klo..khi between the lower Chernoff edge
    of min(xs) and the upper edge of max(xs) (see _zero_reach; both edges
    increase with x); end = lo where none is left."""
    xmin, xmax = float(xs.min()), float(xs.max())
    lo = max(klo, math.floor(n * xmin - _zero_reach(n, 1.0 - xmin, xmin)))
    hi = min(khi, math.ceil(n * xmax + _zero_reach(n, xmax, 1.0 - xmax)))
    return lo, max(lo, hi + 1)


def _blocks(n: int, x: np.ndarray, klo: int = 0, khi: int | None = None):
    """Yield (rows, block) with block[i, j] = p_{n, klo+j}(x[rows][i]).

    x is a 1-d float64 array in [0,1].  Rows come _BLOCK_VALUES values
    at a time, and every block is written into one output array, so a
    block is only valid until the next one is requested.  With 0**0 = 1 the
    rows at x = 0 and x = 1 are unit vectors (zero outside the index
    window).

    A block is assembled a tile of rows at a time, and each tile only
    between the Chernoff edges of its own smallest and largest x
    (_edges); the rest of its rows is set to 0.0, which is what exp
    returns there anyway.  The block's edges size the tiles and the part
    count; the parts take the next tile until none is left.  The columns
    a tile assembles go through the same operations in the same order as
    a full-width block, so every value is the same to the bit.
    """
    khi = n if khi is None else khi
    k = np.arange(klo, khi + 1, dtype=_LD)
    nk = n - k
    lrow = _binom_log_row(n)[klo : khi + 1]
    step = max(1, _BLOCK_VALUES // k.size)
    out = np.empty((min(step, x.size), k.size))
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for a in range(0, x.size, step):
        rows = slice(a, min(a + step, x.size))
        xb = x[rows]
        o = out[: xb.size]
        lo, end = _edges(n, xb, klo, khi)
        width = end - lo
        tile = max(1, _PART_VALUES // max(width, 1))
        xl = xb.astype(_LD)
        parts = max(1, min(xb.size, xb.size * width // _PART_VALUES, cpus or 1))
        # a tile buffer pair per part, made on this thread: made on a worker,
        # it came from that thread's malloc arena, and peak RSS varied by 1.8 MiB
        pool = [np.empty((2, min(tile, xb.size) * width), _LD) for _ in range(parts)]
        starts = collections.deque(range(0, xb.size, tile))

        def part():
            buf = pool.pop()
            # a thread starts from numpy's default error state
            with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
                while True:
                    try:
                        b = starts.popleft()
                    except IndexError:
                        return
                    s = slice(b, min(b + tile, xb.size))
                    j0, j1 = (j - klo for j in _edges(n, xb[s], lo, end - 1))
                    m, w = s.stop - b, j1 - j0
                    # contiguous m x w buffers: strided views cost numpy a cast buffer
                    er, tr = buf[:, : m * w].reshape(2, m, w)
                    o[s, :j0] = o[s, j1:] = 0.0
                    ow = o[s, j0:j1]
                    np.multiply(np.log(xl[s])[:, None], k[j0:j1], out=er)
                    np.add(lrow[j0:j1], er, out=er)
                    np.multiply(np.log1p(-xl[s])[:, None], nk[j0:j1], out=tr)
                    np.add(er, tr, out=er)
                    ow[...] = er
                    np.exp(ow, out=ow)
        _in_parts(part, parts)
        # the log-space form leaves 0 * -inf = NaN where 0**0 = 1 is
        # meant; every other entry of an endpoint row is exp(-inf) = 0
        if lo == 0:
            o[xb == 0.0, 0] = 1.0
        if end == n + 1:
            o[xb == 1.0, -1] = 1.0
        yield rows, o


def _row(n: int, x: float, klo: int = 0, khi: int | None = None) -> np.ndarray:
    """p_{n,k}(x) for k = klo..khi at one abscissa."""
    return next(_blocks(n, _check_x([x]), klo, khi))[1][0]


def _inverse_weights(n: int, u: float, v: float) -> np.ndarray:
    """(k/n)^-u (1-k/n)^-v for the interior indices k = 1..n-1."""
    t = np.arange(1, n, dtype=float) / n
    return t**-u * (1.0 - t) ** -v


def basis_value(n: int, k: int, x: float) -> float:
    """p_{n,k}(x) = C(n,k) x^k (1-x)^(n-k), evaluated in log space."""
    n = _check_degree(n)
    if not 0 <= k <= n or int(k) != k:
        raise ValueError(f"index k must be an integer in 0..{n}, got {k!r}")
    k = int(k)
    return float(_row(n, x, k, k)[0])


def basis_row(n: int, x: float) -> np.ndarray:
    """p_{n,k}(x) for k = 0..n as a read-only array (non-negative, sums to 1)."""
    w = _row(_check_degree(n, 1), x)
    w.flags.writeable = False
    return w


def bernstein_apply(samples, x):
    """Sum_k samples[k] * p_{n,k}(x) with n = len(samples) - 1.

    x may be a scalar or an ndarray; interior abscissae are evaluated in
    basis blocks, so rows are never materialised for the whole grid at
    once, and x = 0, 1 take the end samples.

    The last bit of a value depends on which abscissae share its block:
    ``block @ s`` is a BLAS gemv, which sums each row in an order set by
    the kernel, the block shape and the BLAS thread count (on the refined
    grid at n = 16384, one and two OpenBLAS threads differ by up to
    6.2e-15).  The row split of the block's assembly moves no bit.
    """
    s = np.asarray(samples, dtype=float)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("samples must be a non-empty 1-d vector")
    xs = _check_x(x)
    flat = xs.ravel()
    out = np.where(flat == 0.0, s[0], s[-1])
    inner = np.flatnonzero((flat > 0.0) & (flat < 1.0))
    for rows, block in _blocks(s.size - 1, flat[inner]):
        out[inner[rows]] = block @ s
    return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)


def central_moment_sum(n: int, gamma: float, x: float) -> float:
    """Sum_k p_{n,k}(x) |k - n x|^gamma."""
    n = _check_degree(n, 1)
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma!r}")
    # |k - n x|^gamma is 0**gamma at k = n x; this includes x in {0, 1}
    if gamma < 0 and float(n * x).is_integer():
        raise ValueError(f"negative gamma is undefined where n*x is an index, got n*x = {n * x!r}")
    d = np.abs(np.arange(n + 1, dtype=float) - n * x)
    with np.errstate(divide="ignore"):
        return float(np.dot(_row(n, x), d**gamma))


def inverse_moment_sum(n: int, u: float, v: float, x: float) -> float:
    """Sum over interior indices k = 1..n-1 of (k/n)^-u (1-k/n)^-v p_{n,k}(x)."""
    n = _check_degree(n, 2)
    if not 0.0 < x < 1.0:
        raise ValueError(f"abscissa must lie in (0,1), got {x!r}")
    if not (math.isfinite(u) and math.isfinite(v)) or u < 0 or v < 0:
        raise ValueError(f"exponents u, v must be finite and non-negative, got {u!r}, {v!r}")
    return float(np.dot(_row(n, x, 1, n - 1), _inverse_weights(n, u, v)))
