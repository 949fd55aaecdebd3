"""Fixed calibration jobs: yardsticks for how fast the host runs right now.

Usage, from the repository root::

    python3 bench/calibrate.py rows|blocks

``run.py`` starts one of these jobs in a cold interpreter before the
first cold CLI run and after every one, and divides each CLI run's times
by the mean wall time of the two jobs around it.  The jobs never import
``bernsing``, so no change to the program can move them.  Each does the
kind of work that dominates one workload, because on a shared host the
other tenants slow different kinds of work by different amounts:

* ``rows``: a Python loop of small ``np.longdouble`` array calls that
  evaluate log-space Bernstein rows for n = 64..1024, with a dict cache
  of log-binomial rows.  Like the scalar sweeps of ``lemmas``.
* ``blocks``: log-space Bernstein blocks of degree 4096 over 1000
  points, assembled in ``np.longdouble`` in chunks of about 10^6
  values, then ``exp`` and a BLAS gemv.  Like the block applies of
  ``rates`` at large n.

Each takes about 1 s on a 2-vCPU Xeon.  Exits 0, or 1 when its result
is wrong.
"""
import math
import sys

import numpy as np

_LD = np.longdouble


def log_binom_row(n: int) -> np.ndarray:
    return np.array([math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                     for k in range(n + 1)], dtype=_LD)


def rows(reps: int = 150) -> float:
    """Mean sum of 195 basis rows per rep; each row sums to 1."""
    cache: dict[int, np.ndarray] = {}
    points = [j / 40.0 for j in range(1, 40)]
    total = 0.0
    for _ in range(reps):
        for n in (64, 128, 256, 512, 1024):
            lrow = cache.get(n)
            if lrow is None:
                lrow = cache[n] = log_binom_row(n)
            for x in points:
                xl = _LD(x)
                k = np.arange(n + 1, dtype=_LD)
                ex = lrow + k * np.log(xl) + (n - k) * np.log1p(-xl)
                total += float(np.exp(ex.astype(np.float64)).sum())
    return total / (reps * 5 * len(points))


def blocks(reps: int = 6) -> float:
    """Mean of B_n applied to all-ones samples over the points; 1."""
    n = 4096
    k = np.arange(n + 1, dtype=_LD)
    nk = _LD(n) - k
    lrow = log_binom_row(n)
    ones = np.ones(n + 1)
    xs = np.linspace(0.0005, 0.9995, 1000)
    chunk = 1_000_000 // (n + 1)
    total = 0.0
    for _ in range(reps):
        for a in range(0, xs.size, chunk):
            xl = xs[a:a + chunk].astype(_LD)
            ex = (lrow[None, :] + np.log(xl)[:, None] * k[None, :]) + np.log1p(-xl)[:, None] * nk[None, :]
            total += float((np.exp(ex.astype(np.float64)) @ ones).sum())
    return total / (reps * xs.size)


if __name__ == "__main__":
    jobs = {"rows": rows, "blocks": blocks}
    if len(sys.argv) != 2 or sys.argv[1] not in jobs:
        sys.exit(f"usage: calibrate.py {'|'.join(jobs)}")
    mean = jobs[sys.argv[1]]()
    if abs(mean - 1.0) > 1e-9:
        sys.exit(f"calibration job {sys.argv[1]}: partition of unity fails (mean {mean:.17g})")
