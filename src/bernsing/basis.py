"""Numerically stable Bernstein basis evaluation and the operator sum.

Basis rows and the lemma sweep's blocks (_blocks) are computed in log
space: a cumulative log-factorial table supplies the log-binomial, the
exponent is assembled in extended precision, and only the final
(small-magnitude) exponent is handed to ``exp`` in double precision.
Direct binomial products would overflow near n = 1030; the exponent
cancellation (log-binomial against k*ln x + (n-k)*ln(1-x), both of size
~n) would cost ~1e-12 of absolute accuracy if assembled in float64,
which is why the table and assembly use ``np.longdouble``.  Every
kernel reads one window rule, the Bernstein band of x at an exponent R
(_bands), outside which a row holds at most 2 e^-R of its mass.  Blocks
hold whole rows, k = 0..n, and callers slice the indices they read.  An
entry is the full-width value inside its row's band and 0.0 outside it:
rows take R = 750, where float64 ``exp`` returns exactly 0.0 for every
entry left out, and the lemma sweep R = 60 (see checks._SWEEP_EXPONENT).
A block is assembled once, between the lowest band start and the
highest band end of its rows, on the calling thread, its exponent in a
small C kernel (_exponent.c) where the system cc can build one and in
numpy otherwise, to the same bits; an entry goes
through the same operations whichever rows share the call, so no bit
depends on how a caller groups its rows.

The operator sum (bernstein_apply) reads no ln k! table and exponentiates
one value per distinct min(x, 1 - x).  Each interior x sums the whole
segments of _SEGMENT columns that cover its band at R = 40, outside which
a row holds at most 2 e^-40 ~ 8.5e-18 of its mass; x > 1/2 is taken as
1 - x on a column of reversed samples, so r = x/(1-x) <= 1 and the sides
share one pass.  A term is an anchor p_{n,a}(x) times r^l times
C(n, a + l) / C(n, a), and a row's first anchor takes ln C(n, a) from the
segment steps: a tile is one gemm and row dots per column.  What depends
on x alone (the fold, sort, logs and powers r^l) is built once per call
for all its sample vectors, of any degrees (bernstein_apply_many), and
each vector's segment tables and steps once per call for all its blocks.
"""
from __future__ import annotations

import numpy as np

from .exceptions import InvalidDegree

__all__ = ["basis_row", "bernstein_apply", "bernstein_apply_many"]

_LD = np.longdouble


def _neumaier(terms: np.ndarray, s, c) -> tuple[np.ndarray, np.ndarray]:
    """Neumaier's running sums s + terms[0] + ... and compensations from c,
    the start pair first: the scalar loop's bits (cumsum adds in order)."""
    run = np.cumsum(np.concatenate(([s], terms)))
    prev, tot = run[:-1], run[1:]
    err = np.where(abs(prev) >= abs(terms), (prev - tot) + terms, (terms - tot) + prev)
    return run, np.cumsum(np.concatenate(([c], err)))


# ln(i!) for i = 0..len-1, Neumaier-compensated so the per-entry absolute
# error stays at the longdouble rounding level instead of growing with
# the table length.  It grows in fixed segments (to 64, then by doubling,
# _LN_FACT_CHUNK terms at a time), the compensation restarted at each
# segment start, so no entry depends on the degrees asked for before.
_ln_fact = np.zeros(2, dtype=_LD)
_LN_FACT_CHUNK = 1 << 15  # bounds temporaries; no bit depends on it


def _extend_ln_fact(n: int) -> None:
    global _ln_fact
    while _ln_fact.size <= n:
        top = _ln_fact.size - 1
        out = np.empty(max(64, 2 * top) + 1, dtype=_LD)
        out[: top + 1] = _ln_fact
        s, c = out[top], _LD(0.0)
        for a in range(top + 1, out.size, _LN_FACT_CHUNK):
            b = min(a + _LN_FACT_CHUNK, out.size)
            run, comp = _neumaier(np.log(np.arange(a, b, dtype=_LD)), s, c)
            out[a - 1 : b], s, c = run + comp, run[-1], comp[-1]
        _ln_fact = out


def _log_binom(n: int, k: np.ndarray) -> np.ndarray:
    """ln C(n, k) at the integer indices k, 0 <= k <= n."""
    _extend_ln_fact(n)
    return _ln_fact[n] - _ln_fact[k] - _ln_fact[n - k]


# The band of x at exponent R is [floor(n x - t), ceil(n x + t)] within
# 0..n, where t solves t^2 / (2 (sigma^2 + t/3)) = R, sigma^2 = n x (1 - x):
# by Bernstein's inequality the row mass at |k - n x| > t is <= 2 exp(-R).
# bernstein_apply sums the band at _BAND_EXPONENT.  Rows use
# _ROW_EXPONENT: an entry left out is <= 2 exp(-750), below float64 exp's
# zero threshold of about -745.13 (the longdouble exponent is off by
# ~1e-13 at most), so a row keeps every bit of a full-width one.
_BAND_EXPONENT = 40.0
_ROW_EXPONENT = 750.0

# The operator sum's segments: the columns a .. a + _SEGMENT - 1 from each
# anchor a = _SEGMENT q.  A tile's rows times the segments they cover, or
# times _SEGMENT powers where that is more, stay within _TILE_ANCHORS.
# A power r^l below _POWER_FLOOR is set to 0.0: its term is below 1e-147
# (an anchor is <= 1 and C(n, a + l) / C(n, a) <= 5e152 up to n = 2^20),
# and no denormal reaches the gemm.
_SEGMENT = 32
_TILE_ANCHORS = 1 << 13
_POWER_FLOOR = 1e-300
# At most this many distinct abscissae share one set of tables
# (_abscissae, 0.3 KiB each); every refined grid fits in one.
_ABSCISSA_BLOCK = 1 << 12


def _check_degree(n: int) -> int:
    """n as an int, at least 1; a float-valued integer such as 64.0 is
    accepted.  Raises InvalidDegree otherwise."""
    if not -np.inf < n < np.inf:  # NaN fails this too
        raise InvalidDegree(f"degree must be finite, got {n!r}")
    if n < 1 or int(n) != n:
        raise InvalidDegree(f"degree must be an integer >= 1, got {n!r}")
    return int(n)


def _check_x(x) -> np.ndarray:
    """x as a float64 array, every entry in [0,1] (NaN is rejected)."""
    xs = np.asarray(x, dtype=float)
    bad = xs[~((xs >= 0.0) & (xs <= 1.0))]
    if bad.size:
        raise ValueError(f"abscissa must lie in [0,1], got {bad.flat[0]!r}")
    return xs


def _distinct(a: np.ndarray) -> np.ndarray:
    """np.unique(a), sorted and distinct, without its import of numpy.ma."""
    a = np.sort(a)
    return a[np.concatenate(([True], a[1:] != a[:-1]))]


def _bands(n: int, x: np.ndarray, exponent: float) -> tuple[np.ndarray, np.ndarray]:
    """The first and last index of each abscissa's band at the exponent,
    within 0..n."""
    r = exponent
    t = r / 3.0 + np.sqrt(r * r / 9.0 + 2.0 * r * n * x * (1.0 - x))
    lo, hi = np.maximum(np.floor(n * x - t), 0), np.minimum(np.ceil(n * x + t), n)
    return lo.astype(int), hi.astype(int)


_kernel = None  # _exponent_kernel's answer once it has looked


def _exponent_kernel():
    """The compiled exponent kernel of _blocks (_exponent.c), or False.

    On the first call it is loaded from the user's cache
    ($XDG_CACHE_HOME/bernsing, else ~/.cache/bernsing), where a library
    is named by a hash of the source and the platform; a missing one is
    first built there with the system cc, its output captured, and moved
    into place whole.  Without a compiler, a writable cache, a longdouble
    the size of C's long double or a library that loads, every call
    returns False: nothing is tried again and nothing is printed."""
    global _kernel
    if _kernel is None:
        _kernel = _build_kernel() or False
    return _kernel


def _build_kernel():
    # numpy has imported all of these but subprocess, which only a build
    # needs; hashlib would map OpenSSL, 3.7 MiB of peak RSS
    import ctypes
    import os
    import platform
    import shutil
    import sys
    import tempfile
    import zlib

    if ctypes.sizeof(ctypes.c_longdouble) != np.dtype(_LD).itemsize:
        return None
    source = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_exponent.c")
    cache = os.path.join(os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache"),
                         "bernsing")
    try:
        with open(source, "rb") as fh:
            key = fh.read() + f"\0{sys.platform}\0{platform.machine()}".encode()
        lib = os.path.join(cache, f"_exponent-{zlib.crc32(key):08x}{zlib.adler32(key):08x}.so")
        if not os.path.exists(lib):
            cc = shutil.which("cc")
            if cc is None:
                return None
            import subprocess

            os.makedirs(cache, exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
            os.close(fd)
            try:
                done = subprocess.run([cc, "-O2", "-shared", "-fPIC", "-ffp-contract=off",
                                       "-o", tmp, source], stdin=subprocess.DEVNULL,
                                      capture_output=True)
                if done.returncode != 0:
                    return None
                os.replace(tmp, lib)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        kernel = ctypes.CDLL(lib).bernsing_exponent
    except OSError:
        return None
    ptr, i64 = ctypes.c_void_p, ctypes.c_longlong
    kernel.argtypes = [ptr, ptr, i64, ptr, i64, i64, i64, ptr, i64]
    kernel.restype = None
    return kernel


def _blocks(n: int, x: np.ndarray, exponent: float, out: np.ndarray) -> np.ndarray:
    """Fill out[:x.size] with block[i, k] = p_{n,k}(x[i]) for k = 0..n
    inside the row's band at the exponent (_bands) and 0.0 outside it,
    and return that view.

    x is a 1-d float64 array in [0,1] and out a float64 array of at least
    x.size rows and n + 1 columns.  With 0**0 = 1 the rows at x = 0 and
    x = 1 are unit vectors.  A caller that needs some indices only slices
    the columns: an entry does not depend on them.

    The block is assembled once, between the lowest band start and the
    highest band end of its rows, and the log-binomials are read on those
    columns only.  Every entry is computed as in a full-width block, and
    after exp every entry outside its own row's band is set to 0.0, so no
    bit depends on which rows share a call.  At _ROW_EXPONENT that is the
    full-width block itself.

    The exponent ln C(n, k) + k ln x + (n - k) ln(1 - x) is assembled in
    longdouble and rounded to float64 in one pass of the compiled kernel
    (_exponent_kernel), or where none could be built in four numpy passes
    and a cast: the same operations in the same order, so both give the
    same bits.  The logarithms, the log-binomials, exp, the band zeroing
    and the endpoint rows stay in numpy on either path; numpy's SIMD exp
    need not round as libm's does.
    """
    # each row's band as the columns j0 .. j1 - 1
    j0, j1 = _bands(n, x, exponent)
    j1 += 1
    c0, e0, e1, c1 = int(j0.min()), int(j0.max()), int(j1.min()), int(j1.max())
    cols = np.arange(c0, c1)
    o = out[: x.size]
    o[:, :c0] = o[:, c1:] = 0.0
    v = o[:, c0:c1]
    xl = x.astype(_LD)
    kernel = _exponent_kernel()
    # log 0 and 0 * -inf at x = 0 and 1 (fixed below), and exp
    # underflow to 0.0 near the band edges, as it may
    with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
        lnx, ln1mx, lb = np.log(xl), np.log1p(-xl), _log_binom(n, cols)
        if kernel and o.dtype == float and o.strides[1] == 8 and o.strides[0] % 8 == 0:
            # the exponent and its cast in one compiled pass (_exponent.c)
            kernel(lnx.ctypes.data, ln1mx.ctypes.data, x.size, lb.ctypes.data,
                   c0, c1 - c0, n, v.ctypes.data, o.strides[0] // o.itemsize)
        else:
            # the same exponent in four longdouble passes, in two
            # contiguous buffers (strided views cost numpy a cast buffer),
            # then the cast
            k = cols.astype(_LD)
            er, tr = np.empty((2, *v.shape), _LD)
            np.multiply(lnx[:, None], k, out=er)
            np.add(lb, er, out=er)
            np.multiply(ln1mx[:, None], n - k, out=tr)
            np.add(er, tr, out=er)
            v[...] = er
        np.exp(v, out=v)
        # then 0.0 outside each row's own band: only the columns before
        # the last band start and from the first band end on
        np.copyto(v[:, : e0 - c0], 0.0, where=cols[: e0 - c0] < j0[:, None])
        np.copyto(v[:, e1 - c0 :], 0.0, where=cols[e1 - c0 :] >= j1[:, None])
    # the log-space form leaves 0 * -inf = NaN where 0**0 = 1 is
    # meant; every other entry of an endpoint row is exp(-inf) = 0
    o[x == 0.0, 0] = 1.0
    o[x == 1.0, -1] = 1.0
    return o


def _inverse_weights(n: int, u: float, v: float) -> np.ndarray:
    """(k/n)^-u (1-k/n)^-v for the interior indices k = 1..n-1."""
    t = np.arange(1, n, dtype=float) / n
    return t**-u * (1.0 - t) ** -v


def basis_row(n: int, x: float) -> np.ndarray:
    """p_{n,k}(x) for k = 0..n as a read-only array (non-negative, sums to 1)."""
    n = _check_degree(n)
    w = _blocks(n, _check_x([x]), _ROW_EXPONENT, np.empty((1, n + 1)))[0]
    w.flags.writeable = False
    return w


def _segments(ss: tuple, top: float) -> tuple:
    """n and the tables of sample vectors ss of degree n for x in (0, top]:
    for the anchors a = _SEGMENT q up to the segment of top's band end
    (band ends grow with x on (0, 1/2]), h[q, j, l] = ss[j][a + l]
    C(n, a + l) / C(n, a) (0 past n), and the steps C(n, a + _SEGMENT) /
    C(n, a) and ln C(n, a), the compensated sum of the logs of the
    (positive) steps before a, in longdouble: per segment a cumprod of
    (n - k)/(k + 1) from its own anchor, so no value depends on top,
    _TILE_ANCHORS values at a time."""
    n = ss[0].size - 1
    qb = int(_bands(n, top, _BAND_EXPONENT)[1]) // _SEGMENT
    size = _SEGMENT * (qb + 1)
    h, steps = np.zeros((qb + 1, len(ss), _SEGMENT)), np.empty(qb + 1, _LD)
    for j, s in enumerate(ss):
        h[:, j].flat[: s.size] = s[:size]
    for c in range(0, size, _TILE_ANCHORS):
        k = np.arange(c, min(c + _TILE_ANCHORS, size), dtype=_LD).reshape(-1, _SEGMENT)
        g = np.cumprod(np.maximum(n - k, 0) / (k + 1), axis=1)
        q = slice(c // _SEGMENT, c // _SEGMENT + g.shape[0])
        steps[q] = g[:, -1]
        h[q, :, 1:] *= g[:, None, :-1].astype(float)
    run, comp = _neumaier(np.log(steps[:-1]), _LD(0.0), _LD(0.0))
    return n, h, steps, run + comp


def _abscissae(t: np.ndarray) -> tuple:
    """The tables of increasing t in (0, 1/2] that every degree reads: t,
    ln t and ln(1 - t), r^l for l < _SEGMENT in float64 (0.0 below
    _POWER_FLOOR) and r^_SEGMENT, r = t/(1-t), each r^(l-1) r in longdouble."""
    tl = t.astype(_LD)
    r = tl / (1.0 - tl)
    rl, p = np.empty((t.size, _SEGMENT)), np.ones(t.size, _LD)
    for l in range(_SEGMENT):
        rl[:, l] = p
        p *= r
    np.copyto(rl, 0.0, where=rl < _POWER_FLOOR)
    return t, np.log(tl), np.log1p(-tl), rl, p


def _segment_sum(seg: tuple, tab: tuple) -> np.ndarray:
    """res[i, j] = Sum_k ss[j][k] p_{n,k}(x[i]) over the whole segments
    that cover each band, for the tables seg (_segments) of sample vectors
    ss of degree n and tab (_abscissae) of increasing x in (0, top],
    r = x/(1-x) <= 1.

    A term is p_{n,a}(x) r^l h[q, j, l] with a = _SEGMENT q: per tile of
    rows, one gemm of the powers r^l against the stacked tables h and one
    dot product of each row with its anchors p_{n,a}(x) per column, the
    powers and anchors shared.  The first anchor is the longdouble exp of
    its log-space exponent, with ln C(n, a) read from seg, and every later
    one the last times its step times r^_SEGMENT."""
    n, h, steps, lnc = seg
    x, lnx, ln1mx, rl, rs = tab
    q0, q1 = np.asarray(_bands(n, x, _BAND_EXPONENT)) // _SEGMENT
    a0 = _SEGMENT * q0
    first = np.exp(lnc[q0] + a0 * lnx + (n - a0) * ln1mx)
    res = np.empty((x.size, h.shape[1]))
    b = 0
    while b < x.size:
        # the longest run of rows b..e-1, at least one, whose union ta..tb
        # of segments stays within _TILE_ANCHORS (see there)
        ta = np.minimum.accumulate(q0[b : b + _TILE_ANCHORS // _SEGMENT])
        tb = np.maximum.accumulate(q1[b : b + _TILE_ANCHORS // _SEGMENT])
        cost = np.maximum(tb - ta + 1, _SEGMENT) * np.arange(1, ta.size + 1)
        m = max(1, int(np.searchsorted(cost, _TILE_ANCHORS, "right")))
        e, ta, tb = b + m, int(ta[m - 1]), int(tb[m - 1])
        y = rl[b:e] @ h[ta : tb + 1].reshape(-1, _SEGMENT).T
        # the anchor chain: 1.0 before a row's first segment, so no row
        # depends on its tile-mates
        col = np.arange(ta, tb + 1)
        before = col < q0[b:e, None]
        chain = np.empty((m, tb - ta + 1), _LD)
        np.multiply(steps[ta:tb], rs[b:e, None], out=chain[:, 1:])
        np.copyto(chain, 1.0, where=before)
        chain[np.arange(m), q0[b:e] - ta] = first[b:e]
        np.cumprod(chain, axis=1, out=chain)
        anchors = chain.astype(float)
        np.copyto(anchors, 0.0, where=before | (col > q1[b:e, None]))
        res[b:e] = np.vecdot(anchors[:, :, None], y.reshape(m, col.size, -1), axis=1)
        b = e
    return res


def _banded_apply(ss: list, x: np.ndarray) -> list:
    """[Sum_k s[k] p_{n,k}(x) for s in ss] over the segments covering each
    band, for x in (0, 1), folded in place: x > 1/2 as 1 - x (exact there)
    on the reversed samples' column, and each distinct abscissa once, as a
    gemm may round equal rows of a tile differently.  The tables of x are
    built once for all of ss, those of each s (_segments) once per call.
    The samples are scaled by a power of two below 1 in magnitude, so no
    partial sum overflows."""
    right = x > 0.5
    np.subtract(1.0, x, out=x, where=right)
    tu = _distinct(x)
    es = [int(np.frexp(np.abs(s).max())[1]) for s in ss]
    res = [np.empty((tu.size, 2)) for _ in ss]
    # powers and anchors far from a band underflow to 0.0, as they may
    with np.errstate(under="ignore"):
        segs = [_segments((s, s[::-1]), tu[-1]) for s in map(np.ldexp, ss, [-e for e in es])]
        for b in range(0, tu.size, _ABSCISSA_BLOCK):
            tab = _abscissae(tu[b : b + _ABSCISSA_BLOCK])
            for seg, r in zip(segs, res):
                r[b : b + _ABSCISSA_BLOCK] = _segment_sum(seg, tab)
    del tab, segs  # before the grid-sized arrays of the gather
    # each x's row and column as one index into the flat sums
    at = 2 * np.searchsorted(tu, x) + right
    return [np.ldexp(r.ravel()[at], e) for r, e in zip(res, es)]


def bernstein_apply_many(vectors, x) -> list:
    """[bernstein_apply(s, x) for s in vectors], bit for bit, in one pass
    over x: the sample vectors may have any degrees, and every table that
    depends on x alone (the fold of x > 1/2, the distinct abscissae, their
    logarithms and powers) is built once for all of them."""
    ss = [np.asarray(s, dtype=float) for s in vectors]
    if any(s.ndim != 1 or s.size == 0 or not np.isfinite(s).all() for s in ss):
        raise ValueError("samples must be a non-empty 1-d vector of finite values")
    xs = _check_x(x)
    flat = xs.ravel()
    inner = (flat > 0.0) & (flat < 1.0)
    sums = _banded_apply(ss, flat[inner]) if inner.any() else [()] * len(ss)
    outs = [np.where(flat == 0.0, s[0], s[-1]) for s in ss]
    for out, v in zip(outs, sums):
        out[inner] = v
    return [float(o[0]) if xs.ndim == 0 else o.reshape(xs.shape) for o in outs]


def bernstein_apply(samples, x):
    """Sum_k samples[k] * p_{n,k}(x) with n = len(samples) - 1, all finite.

    x may be a scalar or an ndarray; x = 0, 1 take the end samples.  An
    interior x sums only the segments that cover its band
    (_BAND_EXPONENT): a value differs from the full sum by at most
    2 e^-40 max|samples|, plus rounding.  The distinct interior x, those
    above 1/2 as 1 - x, are sorted and cut into tiles, each one BLAS gemm
    and dot products per row, on the calling thread: a value's last bits
    depend on which abscissae the call holds, not on their order, repeats
    or the CPUs.  A call costs O(n max min(x, 1 - x)) longdouble steps and
    float64 table values from segment 0 to its bands (34 ms and 18 MiB for
    x = 0.5 at n = 2^20): pass x in one call, and the sample vectors on
    one x in one bernstein_apply_many call, which builds the tables of x
    once.
    """
    return bernstein_apply_many([samples], x)[0]
