"""Numerically stable Bernstein basis evaluation and the operator sum.

All basis values are computed in log space: a cumulative log-factorial
table supplies the log-binomial, the exponent is assembled in extended
precision, and only the final (small-magnitude) exponent is handed to
``exp`` in double precision.  Direct binomial products would overflow
near n = 1030; the exponent cancellation (log-binomial against
k*ln x + (n-k)*ln(1-x), both of size ~n) would cost ~1e-12 of absolute
accuracy if assembled in float64, which is why the table and assembly
use ``np.longdouble``; one helper (_assemble) runs it for both paths.

Basis rows and the lemma sweep's blocks (_blocks) leave out only entries
that float64 ``exp`` returns as exactly 0.0: a block is assembled a tile
of rows at a time, each only between the two Chernoff edges of its
smallest and largest x, past which p_{n,k}(x) <= exp(-n KL(k/n || x)) <=
exp(-750); each edge takes four Newton steps from the Hoeffding radius
sqrt(375 n).  The operator sum (bernstein_apply) is banded: each interior
x sums only |k - n x| <= t(x), outside which a row holds at most
2 e^-40 ~ 8.5e-18 of its mass, in tiles of sorted x that are each dotted
with their own sample slice.

Large jobs run on one thread per usable CPU (``taskset`` restricts them),
each taking the next tile until none is left.  Tiles do not depend on
the thread count, and an entry goes through the same operations on any
thread: no bit moves with it.
"""
from __future__ import annotations

import collections
import functools
import math
import os
import threading

import numpy as np

__all__ = ["basis_row", "bernstein_apply"]

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


# Values per lemma-sweep block: it pins the size of those blocks and the
# block shape that lemma 2's gemv `block @ samples` sees, on which the
# last bits of its values depend; the rows per block follow the full
# index width though only a window is assembled.
# _PART_VALUES: values at least per part where work is split by rows,
# and about per tile of a part's assembly.
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

# bernstein_apply's band [floor(n x - t), ceil(n x + t)]: t solves
# t^2 / (2 (sigma^2 + t/3)) = _BAND_EXPONENT, sigma^2 = n x (1 - x), so by
# Bernstein's inequality the row mass at |k - n x| > t is <= 2 exp(-40).
_BAND_EXPONENT = 40.0


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


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _assemble(xl: np.ndarray, k: np.ndarray, nk: np.ndarray, lrow: np.ndarray,
              buf: np.ndarray, out: np.ndarray) -> None:
    """out[i, j] = exp(lrow[j] + k[j] ln xl[i] + nk[j] ln(1 - xl[i])): four
    longdouble passes in buf's two halves (buf: (2, >= out.size)), then the
    cast into out and exp, so a value has the same bits in any tile."""
    m, w = out.shape
    # contiguous m x w buffers: strided views cost numpy a cast buffer
    er, tr = buf[:, : m * w].reshape(2, m, w)
    np.multiply(np.log(xl)[:, None], k, out=er)
    np.add(lrow, er, out=er)
    np.multiply(np.log1p(-xl)[:, None], nk, out=tr)
    np.add(er, tr, out=er)
    out[...] = er
    np.exp(out, out=out)


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

    A block is assembled a tile of rows at a time, each only between the
    Chernoff edges of its own smallest and largest x (_edges); the rest
    of its rows is set to 0.0, which is what exp returns there anyway.
    The block's edges size the tiles and the part count.  Every value has
    the bits of a full-width block.
    """
    khi = n if khi is None else khi
    k = np.arange(klo, khi + 1, dtype=_LD)
    nk = n - k
    lrow = _binom_log_row(n)[klo : khi + 1]
    step = max(1, _BLOCK_VALUES // k.size)
    out = np.empty((min(step, x.size), k.size))
    cpus = _cpus()
    for a in range(0, x.size, step):
        rows = slice(a, min(a + step, x.size))
        xb = x[rows]
        o = out[: xb.size]
        lo, end = _edges(n, xb, klo, khi)
        width = end - lo
        tile = max(1, _PART_VALUES // max(width, 1))
        xl = xb.astype(_LD)
        parts = max(1, min(xb.size, xb.size * width // _PART_VALUES, cpus))
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
                    o[s, :j0] = o[s, j1:] = 0.0
                    _assemble(xl[s], k[j0:j1], nk[j0:j1], lrow[j0:j1], buf, o[s, j0:j1])
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


def basis_row(n: int, x: float) -> np.ndarray:
    """p_{n,k}(x) for k = 0..n as a read-only array (non-negative, sums to 1)."""
    w = _row(_check_degree(n, 1), x)
    w.flags.writeable = False
    return w


def _bands(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first and last index of each abscissa's band, within 0..n."""
    r = _BAND_EXPONENT
    t = r / 3.0 + np.sqrt(r * r / 9.0 + 2.0 * r * n * x * (1.0 - x))
    lo, hi = np.maximum(np.floor(n * x - t), 0), np.minimum(np.ceil(n * x + t), n)
    return lo.astype(int), hi.astype(int)


def _banded_apply(s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Sum_k s[k] p_{n,k}(x) over each band, for increasing x in (0, 1):
    each tile is assembled on its columns, entries outside their row's
    band are set to 0.0, and the tile is dotted with its slice of s."""
    n = s.size - 1
    lo, hi = _bands(n, x)
    # tiles (b, e, j0, j1): the longest run of rows b..e-1, at least one,
    # whose union j0..j1-1 of bands holds at most _PART_VALUES values
    tiles, b, cap = collections.deque(), 0, max(1, _PART_VALUES // int((hi - lo).min() + 1))
    while b < x.size:
        j0 = np.minimum.accumulate(lo[b : b + cap])
        j1 = np.maximum.accumulate(hi[b : b + cap]) + 1
        span = (j1 - j0) * np.arange(1, j0.size + 1)
        m = max(1, int(np.searchsorted(span, _PART_VALUES, "right")))
        tiles.append((b, b + m, int(j0[m - 1]), int(j1[m - 1])))
        b += m
    cols = np.arange(n + 1)
    k, lrow, xl, res = cols.astype(_LD), _binom_log_row(n), x.astype(_LD), np.empty(x.size)
    sizes = [(e - b) * (j1 - j0) for b, e, j0, j1 in tiles]
    parts = max(1, min(len(tiles), sum(sizes) // _PART_VALUES, _cpus()))
    # a longdouble buffer pair and a tile per part, made on this thread (see _blocks)
    pool = [(np.empty((2, max(sizes)), _LD), np.empty(max(sizes))) for _ in range(parts)]

    def part():
        buf, vals = pool.pop()
        with np.errstate(under="ignore"):
            while True:
                try:
                    b, e, j0, j1 = tiles.popleft()
                except IndexError:
                    return
                tile, c = vals[: (e - b) * (j1 - j0)].reshape(e - b, j1 - j0), cols[j0:j1]
                _assemble(xl[b:e], k[j0:j1], n - k[j0:j1], lrow[j0:j1], buf, tile)
                np.copyto(tile, 0.0, where=(c < lo[b:e, None]) | (c > hi[b:e, None]))
                res[b:e] = tile @ s[j0:j1]
    _in_parts(part, parts)
    return res


def bernstein_apply(samples, x):
    """Sum_k samples[k] * p_{n,k}(x) with n = len(samples) - 1.

    x may be a scalar or an ndarray; x = 0, 1 take the end samples.  An
    interior x sums only its band (_BAND_EXPONENT): a value differs from
    the full sum by at most 2 e^-40 max|samples|, plus rounding.  The
    distinct interior x are sorted and cut into tiles, each dotted with
    its sample slice by a BLAS gemv whose summation order follows the
    tile's shape: a value's last bits depend on which abscissae the call
    holds, but not on their order or repeats, or on the number of CPUs.
    """
    s = np.asarray(samples, dtype=float)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("samples must be a non-empty 1-d vector")
    xs = _check_x(x)
    flat = xs.ravel()
    out = np.where(flat == 0.0, s[0], s[-1])
    inner = np.flatnonzero((flat > 0.0) & (flat < 1.0))
    if inner.size:
        # each x once: a gemv may round equal rows of a tile differently
        xu, back = np.unique(flat[inner], return_inverse=True)
        out[inner] = _banded_apply(s, xu)[back]
    return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)
