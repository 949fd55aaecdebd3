import ctypes
import glob
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

import bernsing
from bernsing import InvalidDegree, basis
from bernsing.basis import (
    _ROW_EXPONENT,
    _bands,
    _blocks,
    basis_row,
    bernstein_apply,
    bernstein_apply_many,
)
from bernsing.harness import ExperimentConfig, lemma_suite
from bernsing.harness.checks import _SWEEP_EXPONENT, _window, sequence_verdict
from bernsing.weights import WeightParams, wbar

from oracles import (
    an_sum,
    basis_value,
    central_moment_sum,
    full_width_block,
    inverse_moment_sum,
    lemma6_sum,
    ln_fact_loop,
    mp_row,
    naive_basis,
    naive_row,
)


def _block(n, xs, exponent=_ROW_EXPONENT):
    """_blocks into a NaN-filled buffer one row longer than xs: the block
    is the buffer's first xs.size rows, and the row after them stays NaN."""
    out = np.full((xs.size + 1, n + 1), np.nan)
    got = _blocks(n, xs, exponent, out)
    assert got.shape == (xs.size, n + 1) and np.shares_memory(got, out)
    assert np.isnan(out[-1]).all()
    return got


def _sliced(n, xs, rows, exponent=_ROW_EXPONENT):
    """The block of xs from one _block call per `rows` consecutive rows."""
    return np.concatenate([_block(n, xs[a : a + rows], exponent)
                           for a in range(0, xs.size, rows)])


class TestBasisValue:
    def test_frozen_examples(self):
        # 2 * 0.5 * 0.5 by direct arithmetic
        assert basis_value(2, 1, 0.5) == pytest.approx(0.5, rel=1e-14)
        assert basis_value(2, 1, 0.5) == pytest.approx(naive_basis(2, 1, 0.5), rel=1e-14)

    def test_endpoint_convention(self):
        assert basis_value(7, 0, 0.0) == 1.0
        assert basis_value(7, 3, 0.0) == 0.0
        assert basis_value(7, 7, 1.0) == 1.0
        assert basis_value(7, 2, 1.0) == 0.0

    def test_partition_small(self):
        total = sum(basis_value(5, k, 0.3) for k in range(6))
        assert total == pytest.approx(1.0, abs=1e-14)

    def test_matches_naive_oracle(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 60))
            k = int(rng.integers(0, n + 1))
            x = float(rng.uniform(0.01, 0.99))
            assert basis_value(n, k, x) == pytest.approx(naive_basis(n, k, x), rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            basis_value(4, 5, 0.5)
        with pytest.raises(ValueError):
            basis_value(4, 2, 1.5)
        with pytest.raises(ValueError):
            basis_value(4, 2, -0.1)

    def test_non_integer_index_rejected(self):
        # a float k used to reach the index slice and raise TypeError
        with pytest.raises(ValueError, match="integer"):
            basis_value(10, 2.5, 0.3)
        assert basis_value(10, 3.0, 0.3) == basis_value(10, 3, 0.3)


class TestBasisRow:
    @pytest.mark.parametrize("n", [math.inf, -math.inf, math.nan])
    def test_non_finite_degree_rejected(self, n):
        # inf used to raise OverflowError, NaN numpy's integer conversion error
        with pytest.raises(InvalidDegree, match="degree must be finite"):
            basis_row(n, 0.3)

    def test_frozen_examples(self):
        np.testing.assert_allclose(basis_row(1, 0.25), [0.75, 0.25], rtol=1e-14)
        np.testing.assert_allclose(basis_row(3, 0.0), [1, 0, 0, 0], atol=0)
        np.testing.assert_allclose(
            basis_row(4, 0.5), np.array([1, 4, 6, 4, 1]) / 16.0, rtol=1e-14
        )

    def test_row_matches_basis_value(self, rng):
        for n in (7, 64, 511):
            x = float(rng.uniform(0.05, 0.95))
            row = basis_row(n, x)
            ks = rng.integers(0, n + 1, size=12)
            for k in ks:
                v = basis_value(n, int(k), x)
                assert abs(row[k] - v) <= 1e-14 * max(v, 1e-300)

    def test_partition_of_unity_sweep(self):
        xs = np.linspace(0.0, 1.0, 1001)
        for n in (16, 64, 256):
            err = max(abs(basis_row(n, float(x)).sum() - 1.0) for x in xs)
            assert err <= 1e-12
        xs = np.linspace(0.0, 1.0, 101)
        for n in (1024, 4096):
            err = max(abs(basis_row(n, float(x)).sum() - 1.0) for x in xs)
            assert err <= 1e-12

    def test_zero_pattern(self):
        # interior weights are strictly positive while float64 can
        # represent them (underflow sets in past n ~ 1024 at x = 1/2)
        for n in (16, 256, 1024):
            w = basis_row(n, 0.5)
            assert (w > 0.0).all()
        w = basis_row(9, 0.0)
        assert w[0] == 1.0 and (w[1:] == 0.0).all()
        w = basis_row(9, 1.0)
        assert w[-1] == 1.0 and (w[:-1] == 0.0).all()

    def test_symmetry(self, rng):
        # rounding of the reflected argument 1-x is amplified by the
        # log-derivative ~ n/x, so the 1e-13 comparison is made where it
        # is well-conditioned and relaxed (with a deep-tail cutoff) beyond
        for _ in range(20):
            n = int(rng.integers(2, 129))
            x = float(rng.uniform(0.2, 0.8))
            a = basis_row(n, x)
            b = basis_row(n, 1.0 - x)[::-1]
            np.testing.assert_allclose(a, b, rtol=1e-13)
        for _ in range(20):
            n = int(rng.integers(2, 300))
            x = float(rng.uniform(0.01, 0.99))
            a = basis_row(n, x)
            b = basis_row(n, 1.0 - x)[::-1]
            live = b > 1e-150
            np.testing.assert_allclose(a[live], b[live], rtol=1e-11)
            np.testing.assert_allclose(a[~live], b[~live], atol=1e-150)

    def test_non_negative(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 2000))
            x = float(rng.uniform(0, 1))
            assert (basis_row(n, x) >= 0.0).all()

    def test_read_only(self):
        w = basis_row(8, 0.3)
        assert w.shape == (9,) and not w.flags.writeable
        with pytest.raises(ValueError):
            w[0] = 1.0


class TestLogFactorialTable:
    @staticmethod
    def _build(monkeypatch, sizes):
        monkeypatch.setattr(basis, "_ln_fact", np.zeros(2, dtype=np.longdouble))
        for n in sizes:
            basis._extend_ln_fact(n)
        return basis._ln_fact

    def test_history_free(self, monkeypatch):
        # the compensation restarts at fixed segment starts, so a table
        # grown through other sizes has the bits of one built at once
        grown = self._build(monkeypatch, (64, 100, 1000, 3000, 16384))
        assert np.array_equal(grown[:16385], self._build(monkeypatch, (16384,))[:16385])

    @pytest.mark.parametrize("chunk", [1 << 15, 1000])
    @pytest.mark.parametrize("sizes", [(65536,), (64, 100, 1000, 3000, 16384, 65536)])
    def test_array_passes_give_the_scalar_loop_bits(self, sizes, chunk, monkeypatch):
        # cumsum adds left to right, so the compensated prefix sums carry
        # the loop's bits, also across the chunks a segment is cut into
        # (below 2^16 only the 1000-term chunks cut one)
        monkeypatch.setattr(basis, "_LN_FACT_CHUNK", chunk)
        got = self._build(monkeypatch, sizes)[: 2**16 + 1]
        want = ln_fact_loop(2**16)[: 2**16 + 1]
        assert np.array_equal(got, want)


class TestBernsteinApply:
    def test_preserves_linear(self):
        for n in (3, 17, 64, 1024):
            samples = 3.0 * np.arange(n + 1) / n - 1.0
            assert bernstein_apply(samples, 0.37) == pytest.approx(0.11, abs=1e-12)

    def test_quadratic_frozen(self):
        # brute force: sum (k/4)^2 p_{4,k}(1/2) = 5/16
        samples = (np.arange(5) / 4.0) ** 2
        brute = sum((k / 4.0) ** 2 * naive_basis(4, k, 0.5) for k in range(5))
        assert brute == pytest.approx(0.3125, abs=1e-15)
        assert bernstein_apply(samples, 0.5) == pytest.approx(0.3125, rel=1e-13)

    def test_constant(self, rng):
        samples = np.ones(33)
        for x in rng.uniform(0, 1, 20):
            assert bernstein_apply(samples, float(x)) == pytest.approx(1.0, abs=1e-13)
        # C(n, a + l) / C(n, a) times 1e300 overflows at n = 1024: the
        # samples are scaled by a power of two first
        xs = rng.uniform(0, 1, 20)
        for big in (1e300, -1.7e308):
            got = bernstein_apply(np.full(1025, big), xs)
            np.testing.assert_allclose(got, big, rtol=1e-13)

    def test_vector_matches_scalar(self, rng):
        # matrix-vector and dot accumulation may differ by an ulp
        samples = rng.standard_normal(65)
        xs = np.concatenate([[0.0, 1.0], rng.uniform(0, 1, 40)])
        vec = bernstein_apply(samples, xs)
        scal = np.array([bernstein_apply(samples, float(x)) for x in xs])
        np.testing.assert_allclose(vec, scal, rtol=5e-15, atol=5e-15)

    def test_errors(self):
        with pytest.raises(ValueError):
            bernstein_apply([], 0.5)
        with pytest.raises(ValueError):
            bernstein_apply([1.0, 2.0], 1.5)
        # a non-finite sample, as _check_x rejects a NaN abscissa
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                bernstein_apply([1.0, bad, 1.0], 0.3)
            with pytest.raises(ValueError):
                bernstein_apply([1.0, 1.0, bad], np.array([0.0, 1.0]))

    def test_nan_abscissa_rejected(self):
        samples = np.arange(5.0)
        with pytest.raises(ValueError):
            bernstein_apply(samples, np.array([0.25, np.nan]))
        with pytest.raises(ValueError):
            bernstein_apply(samples, np.nan)

    def test_blocks_match_scalar_path_exactly(self):
        # At n = 4096 the 998 interior abscissae fill many tiles of the
        # segment sum on both sides of 1/2, with x = 0 and x = 1 at the
        # ends.  One-hot samples make every summation order exact: a
        # table segment off by one, a wrong mirror, an anchor chain that
        # depends on a row's tile-mates, a segment mask that differs
        # between a tile and a single row, or a wrong endpoint value shows
        # as a mismatch, while gemm against gemv rounding cannot.
        n = 4096
        xs = np.linspace(0.0, 1.0, 1000)
        for k in range(0, n + 1, 1024):
            samples = np.zeros(n + 1)
            samples[k] = 1.0
            vec = bernstein_apply(samples, xs)
            scal = np.array([bernstein_apply(samples, float(x)) for x in xs])
            assert (vec == scal).all(), f"k={k}"
            assert vec[0] == samples[0] and vec[-1] == samples[-1]
            assert vec.max() > 0.0


@pytest.mark.skipif(
    np.finfo(np.longdouble).nmant < 63,
    reason="the bounds hold when the log-space exponent is assembled in 80-bit "
    "longdouble; here longdouble is float64, which loses about 1e-12",
)
class TestArbitraryPrecisionOracle:
    # the README's claims (rows and partition of unity to degree 2^14,
    # the operator sum to degree 2^16) against 40-digit rows; x = 0.987
    # takes the mirrored path of the operator sum, and at x = 1e-10 its
    # powers r^l from l = 31 on are set to 0.0
    @pytest.mark.parametrize(("x", "n"), [(x, n) for x in (0.013, 0.37, 0.5)
                                          for n in (4096, 16384)]
                             + [(0.013, 65536), (0.37, 65536), (0.987, 16384),
                                (1e-10, 16384)])
    def test_row_sum_and_apply(self, n, x):
        # at n = 65536 only the operator sum is claimed: the row's
        # log-binomial ln n! - ln k! - ln (n-k)! cancels terms of size 7e5
        # there, and the row reads 1.02e-13 per entry and 2.4e-14 in sum.
        # The operator sum reads no ln k! table: a row's first anchor
        # takes ln C(n, a) from compensated sums of the segment steps, so
        # no error of that size is common to the row.  Samples cos(0.37 k)
        # cancel to about 1e-16 and would hide such an error; samples
        # sqrt|k/n - 1/2| do not (largest measured error 8.8e-16, and
        # 3.9e-14 at x = 0.013, n = 65536 with anchors from the table)
        exact = mp_row(n, x)
        k = np.arange(n + 1)
        with mpmath.workdps(40):
            # the entries below 1e-40 add less than 1e-35 to these sums
            live = [(p, i) for i, p in enumerate(exact) if p > 1e-40]
            for samples, bound in ((np.cos(0.37 * k), 1e-15),
                                   (np.sqrt(np.abs(k / n - 0.5)), 4e-15)):
                applied = mpmath.fsum(p * float(samples[i]) for p, i in live)
                assert abs(bernstein_apply(samples, x) - applied) <= bound
            if n > 16384:
                return
            row = basis_row(n, x)
            rel = max(abs(mpmath.mpf(float(w)) - p) / p
                      for w, p in zip(row, exact) if p > 1e-300)
        assert rel <= 1e-13
        assert abs(math.fsum(row) - 1.0) <= 1e-14

    @pytest.mark.parametrize(("n", "bound"), [(16384, 2.5e-15), (65536, 1e-14)])
    def test_apply_ones_on_the_refined_grid(self, n, bound, grid, monkeypatch):
        # the partition of unity through the operator sum, at every
        # abscissa of the refined grid.  Measured 1.11e-15 and 4.11e-15;
        # anchors from ln n! - ln a! - ln (n-a)!, whose table entries are
        # rounded at the size of ln n!, read 1.12e-14 and 8.15e-14.  The
        # sum reads no ln k! table, so a small one stays as it is.
        monkeypatch.setattr(basis, "_ln_fact", np.zeros(2, dtype=np.longdouble))
        got = bernstein_apply(np.ones(n + 1), grid.points)
        assert np.abs(got - 1.0).max() <= bound
        assert basis._ln_fact.size == 2

    # The moment sums against the 40-digit row, rounded once to float64
    # and summed with fsum against the same float64 weights, so the
    # oracle itself is off by at most about 2 ulp.  Largest measured
    # relative error: 4.2e-15 (central, inverse), 5.3e-15 (an_sum,
    # lemma6_sum); the bound leaves a factor of about 2.
    MOMENT_REL = 1e-14

    @pytest.mark.parametrize("n", [4096, 16384])
    @pytest.mark.parametrize("x", [0.013, 0.37, 0.5])
    def test_moment_sums(self, n, x):
        p = np.array([float(v) for v in mp_row(n, x)])
        k = np.arange(n + 1, dtype=float)

        def check(got, want):
            # a sum below the float64 range (an_sum far from xi) is 0.0
            if want <= 1e-300:
                assert got <= 1e-300
            else:
                assert abs(got - want) <= self.MOMENT_REL * want

        for gamma in (0.5, 1.0, 2.0, 3.0):
            check(central_moment_sum(n, gamma, x),
                  math.fsum(p * np.abs(k - n * x) ** gamma))
        t = k[1:-1] / n
        for u, v in ((0.5, 0.0), (1.0, 1.0), (2.0, 0.5)):
            check(inverse_moment_sum(n, u, v, x),
                  math.fsum(p[1:-1] * t**-u * (1.0 - t) ** -v))
        params = WeightParams(xi=0.42, alpha=1.0)
        klo, khi = _window(n, params.xi)
        near, d = p[klo : khi + 1], np.abs(k[klo : khi + 1] - n * x)
        check(an_sum(n, params, x), wbar(params, x) * math.fsum(near))
        for beta in (0.5, 1.0, 2.0):
            check(lemma6_sum(n, params, beta, x),
                  wbar(params, x) * math.fsum(near * d**beta))


class TestExactZeroWindow:
    # The kernel assembles a call's rows only between the lowest band
    # start and the highest band end of its rows (basis._bands at
    # _ROW_EXPONENT), and sets the rest to 0.0; the full-width oracle
    # evaluates every column.
    # Sorted abscissae give narrow windows, and single rows (basis_row)
    # the narrowest; both must equal the oracle to the bit.
    XI = 0.37

    @classmethod
    def _abscissae(cls):
        rng = np.random.default_rng(375)
        xi = cls.XI
        ends = [0.0, 1.0, 1e-10, 1.0 - 1e-10, xi - 1e-10, xi + 1e-10]
        return np.sort(np.concatenate(
            [ends, rng.uniform(0.0, 1.0, 60), xi + rng.uniform(-0.02, 0.02, 34)]))

    @staticmethod
    def _windows(n):
        return [w for w in ((0, n), (1, n - 1), (n // 3, n // 2)) if w[0] <= w[1]]

    @pytest.mark.parametrize("n", [1, 7, 1024, 4096, 16384])
    def test_equals_full_width(self, n):
        xs = self._abscissae()
        want = full_width_block(n, xs, 0, n)
        assert (_block(n, xs) == want).all()
        for x, row in zip(xs, want):
            assert (basis_row(n, x) == row).all(), x

    @pytest.mark.parametrize("n", [1, 7, 1024, 4096, 16384])
    def test_oracle_is_zero_beyond_the_radius(self, n):
        xs = self._abscissae()
        for klo, khi in self._windows(n):
            want = full_width_block(n, xs, klo, khi)
            far = np.abs(np.arange(klo, khi + 1) - n * xs[:, None]) >= math.sqrt(375 * n)
            assert (want[far] == 0.0).all(), (klo, khi)
            if n >= 1024:
                assert far.any()

    # The row bands at the extremes of x: at the endpoints, in the
    # underflow range next to them, and in the middle.  Mixed blocks hold
    # endpoint-cluster and mid-grid rows together, so one call spans both.
    EDGE_X = [0.0, 1e-300, 1e-10, 1e-3, 0.2, 0.5, 0.99, 1.0 - 1e-10, 1.0]

    @classmethod
    def _mixed(cls):
        mid = np.linspace(0.3, 0.7, 11)
        return np.concatenate([[x, m] for x, m in zip(cls.EDGE_X, mid)] + [cls.EDGE_X[::-1]])

    @pytest.mark.parametrize("n", [64, 1024, 16384, 65536])
    def test_row_band_edges_equal_full_width(self, n):
        # the edges of the row band at _ROW_EXPONENT (Bernstein's
        # inequality): the full-width block is exactly 0.0 outside every
        # row's band, and rows and blocks equal it
        xs = np.array(self.EDGE_X)
        for x in xs:
            assert (basis_row(n, x) == full_width_block(n, [x], 0, n)[0]).all(), x
        for x in (xs, self._mixed()):
            want = full_width_block(n, x, 0, n)
            lo, hi = _bands(n, x, _ROW_EXPONENT)
            k = np.arange(n + 1)
            assert (want[(k < lo[:, None]) | (k > hi[:, None])] == 0.0).all()
            assert (_block(n, x) == want).all()


class TestSweepBands:
    # The lemma sweep's blocks hold each row's band at _SWEEP_EXPONENT and
    # 0.0 outside it: the full-width value inside, whichever rows share a
    # call.

    @pytest.mark.parametrize("n", [64, 1024, 16384, 65536])
    def test_blocks_are_the_full_width_block_on_each_band(self, n):
        # endpoint-cluster and mid-grid rows in no order, in calls of 1, 3
        # and 7 consecutive rows; x = 0 and x = 1 stretch a call's columns
        # over 0..n, and a call of 3 or 7 rows spans bands far wider than
        # some of its rows'
        xs = TestExactZeroWindow._mixed()
        lo, hi = _bands(n, xs, _SWEEP_EXPONENT)
        k = np.arange(n + 1)
        inside = (k >= lo[:, None]) & (k <= hi[:, None])
        want = np.where(inside, full_width_block(n, xs, 0, n), 0.0).view(np.uint64)
        for tile in (1, 3, 7):
            got = _sliced(n, xs, tile, _SWEEP_EXPONENT)
            assert (got.view(np.uint64) == want).all(), tile

    def test_a_call_reads_only_its_band(self, monkeypatch):
        # one row at n = 65536 reads ln C(n, k) on its band's columns
        # only, not on all n + 1
        n, x = 65536, np.array([0.5])
        (lo,), (hi,) = _bands(n, x, _SWEEP_EXPONENT)
        seen = []

        def log_binom(n, k, _log_binom=basis._log_binom):
            seen.append(np.size(k))
            return _log_binom(n, k)

        monkeypatch.setattr(basis, "_log_binom", log_binom)
        _blocks(n, x, _SWEEP_EXPONENT, np.empty((1, n + 1)))
        assert seen and sum(seen) <= hi - lo + 1, (seen, lo, hi)

    @staticmethod
    def _outside(n, x, weight):
        """The 40-digit sum of p_k(x) weight(k) over the k outside the band
        of x at _SWEEP_EXPONENT: the first term past each band edge from
        log-gamma, then the ratio recurrence outward.  Past the mode the
        ratios fall below 1 and keep falling, so a tail stops once a term
        p_k is below 1e-250 (the rest is smaller still)"""
        (lo,), (hi,) = _bands(n, np.array([x]), _SWEEP_EXPONENT)
        with mpmath.workdps(40):
            xm = mpmath.mpf(x)
            r = xm / (1 - xm)

            def p(k):
                return mpmath.exp(mpmath.loggamma(n + 1) - mpmath.loggamma(k + 1)
                                  - mpmath.loggamma(n - k + 1)
                                  + k * mpmath.log(xm) + (n - k) * mpmath.log1p(-xm))

            total = mpmath.mpf(0)
            for k, step in ((hi + 1, 1), (lo - 1, -1)):
                term = p(k) if 0 <= k <= n else 0
                while 0 <= k <= n and term > 1e-250:
                    total += term * weight(k)
                    # p_{k+1} = p_k (n - k) r / (k + 1), p_{k-1} = p_k k / ((n - k + 1) r)
                    term *= ((n - k) * r / (k + 1) if step > 0 else k / ((n - k + 1) * r))
                    k += step
            return total

    @pytest.mark.parametrize("n", [64, 1024, 16384])
    @pytest.mark.parametrize("x", [1e-10, 0.013, 0.37, 0.5])
    def test_mass_outside_the_band_within_bernstein_bound(self, n, x):
        mass = self._outside(n, x, lambda k: 1)
        assert mass <= 2 * mpmath.exp(-_SWEEP_EXPONENT), mass

    @pytest.mark.parametrize("n", [64, 1024, 16384])
    @pytest.mark.parametrize("x", [0.1, 0.37, 0.5, 0.9])
    def test_weighted_tail_outside_the_band_below_1e24(self, n, x):
        # the rule behind _SWEEP_EXPONENT: the band leaves out at most
        # 1e-24 of a row's sum weighted by |k - n x|^3, the largest weight
        # a lemma puts on an entry (lemma 4, gamma = 3).  The worst case
        # here is 10^-25.2 (n = 16384, x = 0.1); an exponent of 50 gives
        # 10^-20.8
        c = n * mpmath.mpf(x)
        tail = self._outside(n, x, lambda k: abs(k - c) ** 3)
        full = np.dot(basis_row(n, x), np.abs(np.arange(n + 1) - n * x) ** 3)
        assert tail <= 1e-24 * full, (tail, full)


@pytest.fixture
def starts(monkeypatch):
    """The number of threads started so far, as a one-item list."""
    count = [0]
    start = threading.Thread.start

    def counted(thread):
        count[0] += 1
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return count


class TestBandedApply:
    # bernstein_apply sums each interior abscissa over the segments that
    # cover its Bernstein band (basis._bands), in tiles of sorted
    # distinct abscissae.

    @pytest.mark.parametrize("n", [64, 1024, 16384, 65536])
    def test_band_mass_within_bernstein_bound(self, n, grid):
        # the full-width row's mass outside the band is at most
        # 2 exp(-40) ~ 8.5e-18, with slack for the float64 entries' own
        # rounding.  The oracle's entries are exactly 0.0 beyond sqrt(375 n)
        # of n x (TestExactZeroWindow), so each chunk of sorted rows only
        # evaluates the columns within that radius.
        bound = 2.0 * math.exp(-basis._BAND_EXPONENT) * (1.0 + 1e-12)
        reach = math.sqrt(375 * n)
        for xs in (grid.points, TestExactZeroWindow._mixed()):
            x = np.sort(xs[(xs > 0.0) & (xs < 1.0)])
            lo, hi = _bands(n, x, basis._BAND_EXPONENT)
            worst = 0.0
            for a in range(0, x.size, 16):
                rows = slice(a, a + 16)
                klo = max(0, math.floor(n * x[rows].min() - reach))
                khi = min(n, math.ceil(n * x[rows].max() + reach))
                p = full_width_block(n, x[rows], klo, khi)
                k = np.arange(klo, khi + 1)
                out = (k < lo[rows, None]) | (k > hi[rows, None])
                worst = max(worst, float(np.where(out, p, 0.0).sum(axis=1).max()))
            assert worst <= bound, (worst, bound)

    @pytest.mark.parametrize("n", [1024, 16384, 65536])
    def test_apply_bytes_on_any_cpus_and_order(self, n, grid):
        # endpoint-cluster and mid-grid rows, each repeated 8 times, and
        # every 4th grid point: the same bits for sorted and shuffled x.
        # No CPU count is read, so order and repeats are what could move
        # a bit.
        xs = np.concatenate([np.tile(TestExactZeroWindow._mixed(), 8), grid.points[::4]])
        s = np.random.default_rng(n).standard_normal(n + 1)
        order = np.argsort(xs, kind="stable")
        want = np.empty_like(xs)
        want[order] = bernstein_apply(s, xs[order])
        shuffle = np.random.default_rng(7).permutation(xs.size)
        for perm in (order, shuffle):
            got = bernstein_apply(s, xs[perm])
            assert (got.view(np.uint64) == want[perm].view(np.uint64)).all()


class TestApplyMany:
    # bernstein_apply_many builds the tables of x once for every sample
    # vector; each vector keeps the bits of its own bernstein_apply call

    @pytest.mark.parametrize("points", ["refined", "uniform"])
    def test_equals_one_vector_calls_bit_for_bit(self, points, grid):
        # degrees 64..16384 on the refined grid (one block of tables) and
        # on 65,537 uniform points (32,769 distinct min(x, 1 - x), nine
        # blocks), with x = 0, 1 and 1/2, repeats, and both sides of 1/2
        xs = grid.points if points == "refined" else np.linspace(0.0, 1.0, 65537)
        xs = np.concatenate([xs, [0.5, 1.0, 0.0, 0.5, 0.25, 0.75], xs[::7]])
        rng = np.random.default_rng(len(xs))
        vectors = [rng.standard_normal((64 << i) + 1) for i in range(9)]
        got = bernstein_apply_many(vectors, xs)
        assert len(got) == len(vectors)
        for s, g in zip(vectors, got):
            assert (g.view(np.uint64) == bernstein_apply(s, xs).view(np.uint64)).all()

    def test_builds_each_vectors_tables_once(self, monkeypatch):
        # 65,537 uniform points hold nine blocks of distinct abscissae;
        # each sample vector's segment tables serve all nine
        calls = []

        def counted(ss, top, _build=basis._segments):
            calls.append(ss[0].size)
            return _build(ss, top)

        monkeypatch.setattr(basis, "_segments", counted)
        xs = np.linspace(0.0, 1.0, 65537)
        vectors = [np.cos(0.37 * np.arange(1025)), np.sin(0.37 * np.arange(16385))]
        bernstein_apply_many(vectors, xs)
        assert calls == [1025, 16385]

    def test_scalar_empty_and_errors(self):
        vectors = [[1.0, 3.0], np.arange(5.0)]
        got = bernstein_apply_many(vectors, 0.5)
        assert got == [bernstein_apply(s, 0.5) for s in vectors] and type(got[0]) is float
        assert bernstein_apply_many([], np.array([0.0, 0.5])) == []
        with pytest.raises(ValueError):
            bernstein_apply_many([[1.0, 2.0], [1.0, np.nan]], 0.3)
        with pytest.raises(ValueError):
            bernstein_apply_many([[1.0, 2.0]], 1.5)


class TestMomentIdentities:
    # the first three moments of the Bernstein operator in closed form,
    # at every abscissa of the refined grid.  Largest measured relative
    # error 4.3e-15 at n = 2^16 and 6.7e-14 at 2^20; a band at
    # _BAND_EXPONENT = 10 reads 6.6e-6

    @pytest.mark.parametrize(("n", "bound"), [(1 << 16, 1.5e-14), (1 << 20, 2e-13)])
    def test_first_three_moments(self, n, bound, grid):
        x, k = grid.points, np.arange(n + 1) / n
        want = [x, x**2 + x * (1 - x) / n,
                x**3 + 3 * x**2 * (1 - x) / n + x * (1 - x) * (1 - 2 * x) / n**2]
        for r, (got, w) in enumerate(zip(bernstein_apply_many([k, k**2, k**3], x), want), 1):
            assert (np.abs(got - w) <= bound * w).all(), (n, r)

    @pytest.mark.parametrize("n", [1 << 10, 1 << 16])
    @pytest.mark.parametrize("x", [0.013, 0.1, 0.37, 0.5, 0.9])
    def test_row_identities(self, n, x):
        # basis_row's mass, second and third central moments, and de
        # Moivre's mean absolute deviation 2 nu (1 - x) p_{n,nu}(x) with
        # nu = floor(n x) + 1.  The third moment vanishes at x = 1/2 and is
        # compared there against v^1.5.  Largest measured relative errors
        # at 2^16: 3.0e-14, 3.0e-14, 4.3e-13 and 1.9e-14; rows at
        # _ROW_EXPONENT = 10 read 6.7e-6, 1.5e-4, 1.0e-2 and 3.9e-5
        p = basis_row(n, x)
        d = np.arange(n + 1) - n * x
        v = n * x * (1 - x)
        nu = math.floor(n * x) + 1
        third, mad = v * (1 - 2 * x), 2 * nu * (1 - x) * p[nu]
        checks = [(p.sum(), 1.0, 1.0, 1e-13), ((d * d) @ p, v, v, 1e-13),
                  ((d**3) @ p, third, abs(third) or v**1.5, 2e-12),
                  (np.abs(d) @ p, mad, mad, 1e-13)]
        for i, (got, want, scale, bound) in enumerate(checks):
            assert abs(got - want) <= bound * scale, (i, got, want)


class TestBlockTiles:
    # A caller may hand _blocks any consecutive rows, one call after
    # another on the calling thread.  Every entry sees the same operations
    # whichever rows share a call, so calls of any size must give the
    # full-width bits.

    @staticmethod
    def _abscissae(n):
        # about 2^16 values (at least 15 rows), x = 0 in the first call
        # and x = 1 in the last
        rows = max(15, (1 << 16) // (n + 1))
        return np.concatenate([[0.0], np.linspace(0.3, 0.7, rows - 2), [1.0]])

    @pytest.mark.parametrize("n", [1024, 16384, 65536])
    @pytest.mark.parametrize("tile", [1, 3, 7])
    def test_any_tile_size_gives_the_full_width_bits(self, n, tile):
        # calls of `tile` consecutive rows; x = 0 and x = 1 lie in
        # different calls
        xs = self._abscissae(n)
        want = full_width_block(n, xs, 0, n).view(np.uint64)
        assert (_sliced(n, xs, tile).view(np.uint64) == want).all()

    @pytest.mark.parametrize(("calls", "points", "bound"),
                             [(1, "refined", 2.0), (2, "refined", 2.0),
                              (1, "uniform", 4.5), (2, "uniform", 4.5)],
                             ids=["1", "2", "uniform-1", "uniform-2"])
    def test_apply_peak_memory_is_its_tables_and_a_tile(self, calls, points, bound, grid):
        # the segment sum holds the sample tables of both sides of 1/2,
        # built once per call from segment 0 to the band end of the
        # largest min(x, 1 - x) (about 280 segments by 2 columns by 32
        # float64 values), the longdouble temporaries of _TILE_ANCHORS
        # table values, one tile, and the tables of at most
        # _ABSCISSA_BLOCK distinct abscissae; no block, no log-factorial
        # table, and nothing kept from one call to the next: measured
        # 1.71 MiB for one call and for two (1.84 MiB when each block
        # rebuilt the sample tables).  On 65,537 uniform points one
        # block's abscissa tables take 1.2 MiB, and the folded abscissae,
        # their index into the 32,769 distinct ones, the sums and the
        # result are arrays the size of the grid: measured 4.08 MiB for
        # one call and 4.09 MiB for two (5.78 MiB when the logs and first
        # anchors spanned all distinct abscissae at once), where one table
        # for the whole grid would hold 8 MiB of powers
        n = 16384
        s = np.cos(0.37 * np.arange(n + 1))
        xs = grid.points if points == "refined" else np.linspace(0.0, 1.0, 65537)
        tracemalloc.start()
        try:
            for _ in range(calls):
                bernstein_apply(s, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * 2**20, peak

    def test_no_call_starts_a_thread(self, params, sw, grid, starts):
        # the lemma sweep's blocks, a row at a large degree and the
        # operator sum on the refined grid all run on the calling thread
        lemma_suite(ExperimentConfig(params=params, sw=sw))
        basis_row(65536, 0.3)
        bernstein_apply(np.cos(0.37 * np.arange(16385)), grid.points)
        assert starts[0] == 0

    def test_callers_errstate_does_not_raise(self):
        # x = 0 and x = 1 give log(0) and 0 * -inf; the interior rows
        # underflow in exp near the band edges
        n, xs = 16384, self._abscissae(16384)
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _block(n, xs)
            # and the operator sum, at x = 1e-300 among others, where
            # powers and anchors underflow
            bernstein_apply(np.ones(n + 1), np.append(xs, TestExactZeroWindow.EDGE_X))
        assert (got == full_width_block(n, xs, 0, n)).all()

    @pytest.mark.parametrize("n", [1024, 16384, 65536])
    def test_mixed_tiles_give_the_full_width_bits(self, n):
        # endpoint-cluster and mid-grid rows in no order, in calls of 1, 3
        # and 7 consecutive rows: a call spans from the lowest band start
        # to the highest band end of its rows, which are rarely its first
        # and last rows
        xs = TestExactZeroWindow._mixed()
        want = full_width_block(n, xs, 0, n).view(np.uint64)
        for tile in (1, 3, 7):
            assert (_sliced(n, xs, tile).view(np.uint64) == want).all(), tile

    def test_apply_exponentiates_one_anchor_per_abscissa(self, grid, monkeypatch):
        # values handed to exp on the refined grid at n = 16384: one
        # longdouble anchor per distinct abscissa of (0, 1/2] once those
        # above 1/2 are taken as 1 - x, 2,268 of the 4,350 interior ones,
        # every other term a product of ratios, where one pass per side
        # of 1/2 took 4,350, banded tiles 4,494,564 (the bands hold
        # 3,961,728) and full-width blocks 16,900,027
        sizes = []

        def exp(a, *args, _exp=np.exp, **kw):
            sizes.append(np.size(a))
            return _exp(a, *args, **kw)

        monkeypatch.setattr(np, "exp", exp)
        bernstein_apply(np.cos(0.37 * np.arange(16385)), grid.points)
        inner = grid.points[(grid.points > 0.0) & (grid.points < 1.0)]
        mirrored = np.unique(np.minimum(inner, 1.0 - inner))
        assert sum(sizes) <= mirrored.size, (sum(sizes), mirrored.size)


class TestCentralMomentSum:
    def test_frozen_examples(self):
        brute = sum((k - 2.0) ** 2 * naive_basis(4, k, 0.5) for k in range(5))
        assert brute == pytest.approx(1.0, abs=1e-15)
        assert central_moment_sum(4, 2.0, 0.5) == pytest.approx(1.0, rel=1e-13)
        assert central_moment_sum(17, 0.0, 0.31) == pytest.approx(1.0, abs=1e-13)
        # binomial variance identity n x (1-x), cross-checked brute force
        brute = sum((k - 30.0) ** 2 * naive_basis(100, k, 0.3) for k in range(101))
        assert brute == pytest.approx(21.0, rel=1e-12)
        assert central_moment_sum(100, 2.0, 0.3) == pytest.approx(21.0, rel=1e-12)

    def test_moment_bound_sweep(self, rng):
        # ratio to n^(g/2) varphi^g stays bounded with no growth trend
        xs = np.linspace(0.1, 0.9, 17)
        for g in (1.0, 2.0, 3.0):
            seq = []
            for n in (16, 64, 256, 1024, 4096):
                seq.append(
                    max(
                        central_moment_sum(n, g, float(x))
                        / (n ** (g / 2.0) * (x * (1.0 - x)) ** (g / 2.0))
                        for x in xs
                    )
                )
            ok, note = sequence_verdict(seq)
            assert ok, f"gamma={g}: {note}"

    def test_domain_error(self):
        with pytest.raises(ValueError):
            central_moment_sum(8, -1.0, 0.0)

    def test_negative_gamma_at_an_index_rejected(self):
        # n x = 3 is an index, so the sum holds 0**-1; it used to return inf
        with pytest.raises(ValueError, match="index"):
            central_moment_sum(10, -1.0, 0.3)
        assert math.isfinite(central_moment_sum(10, -1.0, 0.31))

    def test_non_finite_gamma_rejected(self):
        # NaN used to come back as the sum
        for gamma in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                central_moment_sum(10, gamma, 0.3)


class TestInverseMomentSum:
    def test_frozen_examples(self):
        # 1 - p_{10,0}(1/2) - p_{10,10}(1/2) = 1 - 2/1024
        expected = 1.0 - 2.0 / 1024.0
        brute = sum(naive_basis(10, k, 0.5) for k in range(1, 10))
        assert brute == pytest.approx(expected, abs=1e-15)
        assert inverse_moment_sum(10, 0.0, 0.0, 0.5) == pytest.approx(expected, rel=1e-13)
        # sum_{k=1}^{3} (4/k) p_{4,k}(1/2) = 25/12
        brute = sum((4.0 / k) * naive_basis(4, k, 0.5) for k in range(1, 4))
        assert brute == pytest.approx(25.0 / 12.0, abs=1e-15)
        assert inverse_moment_sum(4, 1.0, 0.0, 0.5) == pytest.approx(25.0 / 12.0, rel=1e-13)

    def test_bounded_constant_sweep(self):
        xs = np.linspace(0.1, 0.9, 17)
        for u, v in ((0.5, 0.0), (1.0, 0.0), (1.0, 1.0)):
            seq = []
            for n in (16, 64, 256, 1024, 4096):
                seq.append(
                    max(
                        inverse_moment_sum(n, u, v, float(x))
                        / (x**-u * (1.0 - x) ** -v)
                        for x in xs
                    )
                )
            ok, note = sequence_verdict(seq)
            assert ok, f"(u,v)=({u},{v}): {note}"

    def test_domain_errors(self):
        for bad_x in (0.0, 1.0):
            with pytest.raises(ValueError):
                inverse_moment_sum(8, 1.0, 1.0, bad_x)
        with pytest.raises(ValueError):
            inverse_moment_sum(1, 0.0, 0.0, 0.5)

    def test_non_finite_exponents_rejected(self):
        # NaN used to come back as the sum, and inf as inf
        for u, v in ((math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (0.0, math.inf)):
            with pytest.raises(ValueError, match="finite"):
                inverse_moment_sum(64, u, v, 0.3)


class TestFloatValuedDegree:
    # a float-valued integer degree used to reach np.empty in the
    # log-factorial table and raise TypeError
    CASES = {
        "basis_row": lambda n: basis_row(n, 0.3),
        "basis_value": lambda n: basis_value(n, 3, 0.3),
        "central_moment_sum": lambda n: central_moment_sum(n, 1.0, 0.3),
        "inverse_moment_sum": lambda n: inverse_moment_sum(n, 1, 1, 0.3),
        "an_sum": lambda n: an_sum(n, WeightParams(0.5, 1.0), 0.3),
        "lemma6_sum": lambda n: lemma6_sum(n, WeightParams(0.5, 1.0), 1.0, 0.3),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_matches_int_degree(self, name):
        got, want = self.CASES[name](64.0), self.CASES[name](64)
        assert np.array_equal(got, want)


class TestBlasThreadDefault:
    # importing bernsing sets one OpenBLAS thread unless the user set one;
    # the children import the tree the suite imported, which may be a copy
    SRC = str(Path(bernsing.__file__).resolve().parents[1])

    def _imported(self, preset):
        env = dict(os.environ, PYTHONPATH=self.SRC)
        env.pop("OPENBLAS_NUM_THREADS", None)
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        code = "import os, bernsing; print(os.environ['OPENBLAS_NUM_THREADS'])"
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        return done.stdout.strip()

    def test_unset_becomes_one(self):
        assert self._imported(None) == "1"

    def test_user_value_wins(self):
        assert self._imported("2") == "2"

    def test_suite_runs_one_thread(self):
        # conftest imports bernsing before numpy, so the in-process tests,
        # the reference comparisons among them, run the CLI's default
        libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                      "numpy.libs", "*openblas*"))
        for path in libs:
            lib = ctypes.CDLL(path)
            for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                         "openblas_get_num_threads64_", "openblas_get_num_threads"):
                get = getattr(lib, name, None)
                if get is not None:
                    get.restype, get.argtypes = ctypes.c_int, []
                    assert get() == 1
                    return
        pytest.skip("numpy is not linked to a bundled OpenBLAS")
