import math

import numpy as np
import pytest

from bernsing import (
    InvalidDegree,
    MissingDerivative,
    StepWeight,
    TestFunction,
    WeightParams,
    bridge_p,
    delta_n,
    fbar,
    fbar_d2,
    knots,
    psi,
    psi_d,
    step_weight,
    wbar,
)
from bernsing.harness.checks import kendall_tau
from bernsing.harness.corpus import corpus

from oracles import central_first, central_second, five_point_second


class TestPsi:
    def test_anchors(self):
        assert psi(0.0) == 0.0
        assert psi(1.0) == 1.0
        # 10/8 - 15/16 + 6/32
        assert psi(0.5) == pytest.approx(0.5, abs=1e-15)
        assert psi(-3.0) == 0.0
        assert psi(2.0) == 1.0

    def test_non_decreasing_and_bounded(self):
        xs = np.linspace(-1.0, 2.0, 3001)
        v = psi(xs)
        assert (np.diff(v) >= -1e-16).all()
        assert v.min() >= 0.0 and v.max() <= 1.0

    def test_flat_derivatives_at_joins(self):
        assert psi_d(0.0, 1) == 0.0
        assert psi_d(0.0, 2) == 0.0
        assert psi_d(1.0, 1) == 0.0
        assert psi_d(1.0, 2) == 0.0

    def test_derivative_value(self):
        # 30/4 - 60/8 + 30/16
        assert psi_d(0.5, 1) == pytest.approx(1.875, abs=1e-15)

    def test_derivatives_match_finite_differences(self):
        for x in np.arange(0.1, 0.95, 0.1):
            fd1 = central_first(psi, x, 1e-6)
            assert abs(psi_d(x, 1) - fd1) <= 1e-7
            fd2 = central_second(psi, x, 1e-4)
            assert abs(psi_d(x, 2) - fd2) <= 1e-5

    def test_c2_across_joins(self):
        # second differences straddling 0 and 1 stay small: C2 joins
        for x0 in (0.0, 1.0):
            assert abs(central_second(psi, x0, 1e-5)) <= 1e-4

    def test_order_validation(self):
        with pytest.raises(ValueError):
            psi_d(0.5, 3)


class TestKnots:
    def test_frozen_examples(self):
        k = knots(100, 0.5)
        assert (k.x1, k.x2, k.x3, k.x4) == (0.30, 0.40, 0.60, 0.70)
        k = knots(64, 0.5)
        assert (k.x1, k.x2, k.x3, k.x4) == (0.25, 0.375, 0.625, 0.75)
        k = knots(100, 0.3)
        assert (k.x1, k.x2, k.x3, k.x4) == (0.10, 0.20, 0.40, 0.50)

    def test_invariants_sweep(self):
        for n in (64, 100, 256, 777, 4096):
            for xi in (0.3, 0.45, 0.5, 0.62, 0.7):
                k = knots(n, xi)
                assert 0.0 < k.x1 < k.x2 < xi < k.x3 < k.x4 < 1.0
                for x, i in ((k.x1, k.i1), (k.x2, k.i2), (k.x3, k.i3), (k.x4, k.i4)):
                    assert x == i / n

    def test_accepted_knots_are_ordered(self):
        # every degree that knots accepts gives four distinct knots around
        # xi: for n >= 2, sqrt(n) > 1 keeps i2 above i1 and i4 above i3
        for xi in (0.05, 0.2, 0.37, 0.46, 0.5, 0.54, 0.63, 0.8, 0.95):
            accepted = 0
            for n in range(1, 5000):
                try:
                    k = knots(n, xi)
                except InvalidDegree:
                    continue
                accepted += 1
                assert k.x1 < k.x2 < xi < k.x3 < k.x4, (n, xi)
            assert accepted > 1000, xi

    def test_too_small_degree(self):
        with pytest.raises(InvalidDegree):
            knots(16, 0.5)  # n*xi - 2 sqrt(n) = 0
        with pytest.raises(InvalidDegree):
            knots(100, 0.95)  # x4 would reach past 1

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            knots(100, 1.2)
        with pytest.raises(InvalidDegree):
            knots(0, 0.5)

    def test_degree_rule_of_the_basis(self):
        # knots takes basis_row's degree rule: inf used to raise
        # OverflowError and NaN numpy's integer conversion error
        for n in (math.inf, -math.inf, math.nan):
            with pytest.raises(InvalidDegree, match="degree must be finite"):
                knots(n, 0.5)
        with pytest.raises(InvalidDegree, match="degree must be an integer >= 1, got 64.5"):
            knots(64.5, 0.5)
        assert knots(64.0, 0.5) == knots(64, 0.5)


class TestTestFunction:
    def test_alpha0_range(self):
        with pytest.raises(ValueError):
            TestFunction(eval=lambda t: t, alpha0=2.5)

    @pytest.mark.parametrize("name,a0", [
        ("affine", None), ("quadratic", None), ("smooth-bump", None),
        ("inner-root", None), ("inner-cusp", 1.5),
    ])
    def test_derivatives_match_finite_differences(self, params, name, a0):
        f = corpus(name, params, a0)
        probes = [0.11, 0.23, 0.41, 0.66, 0.83]  # away from xi = 0.5
        for x in probes:
            fd1 = central_first(lambda t: float(f.eval(t)), x, 1e-6)
            fd2 = central_second(lambda t: float(f.eval(t)), x, 1e-4)
            scale1 = max(abs(fd1), 1.0)
            scale2 = max(abs(fd2), 1.0)
            assert abs(float(f.d1(x)) - fd1) <= 1e-5 * scale1
            assert abs(float(f.d2(x)) - fd2) <= 1e-5 * scale2


class TestBridge:
    def test_interpolates_nodes(self, params):
        f = corpus("smooth-bump", params)
        k = knots(100, params.xi)
        assert bridge_p(f, k, k.x1) == pytest.approx(float(f.eval(k.x1)), rel=1e-14)
        assert bridge_p(f, k, k.x4) == pytest.approx(float(f.eval(k.x4)), rel=1e-14)

    def test_affine_identity(self, params):
        f = corpus("affine", params)
        k = knots(100, params.xi)
        xs = np.linspace(0.0, 1.0, 101)
        np.testing.assert_allclose(bridge_p(f, k, xs), f.eval(xs), rtol=0, atol=1e-14)

    def test_quadratic_chord_midpoint(self, params):
        f = corpus("quadratic", params)
        k = knots(100, 0.5)  # knots 0.30 .. 0.70
        assert bridge_p(f, k, 0.5) == pytest.approx(0.29, abs=1e-15)


def _bump_inside(k):
    lo, hi = k.x2, k.x3
    mid = 0.5 * (lo + hi)
    rad = 0.45 * (hi - lo)

    def b(t):
        u = (np.asarray(t, float) - mid) / rad
        out = np.where(np.abs(u) < 1.0, (1.0 - u * u) ** 3, 0.0)
        return out

    return b


class TestFbar:
    def test_bridge_zone_ignores_f_there(self, params):
        f = corpus("inner-root", params)
        k = knots(100, params.xi)
        xs = np.linspace(k.x2, k.x3, 41)
        np.testing.assert_allclose(fbar(f, k, xs), bridge_p(f, k, xs), rtol=0, atol=0)

    def test_left_knot_value_exact(self, params):
        f = corpus("smooth-bump", params)
        k = knots(100, params.xi)
        assert fbar(f, k, k.x1) == float(f.eval(k.x1))

    def test_affine_reproduced(self, params):
        f = corpus("affine", params)
        k = knots(256, params.xi)
        xs = np.linspace(0.0, 1.0, 257)
        np.testing.assert_allclose(fbar(f, k, xs), f.eval(xs), rtol=0, atol=1e-14)

    def test_bit_exact_outside(self, params, rng):
        f = corpus("inner-root", params)
        k = knots(100, params.xi)
        xs = np.concatenate([
            rng.uniform(0.0, k.x1, 50), rng.uniform(k.x4, 1.0, 50), [0.0, k.x1, k.x4, 1.0],
        ])
        assert (fbar(f, k, xs) == np.asarray(f.eval(xs), float)).all()

    def test_depends_only_on_exterior_values(self, params):
        f = corpus("inner-root", params)
        k = knots(100, params.xi)
        bump = _bump_inside(k)
        g = TestFunction(eval=lambda t: f.eval(t) + bump(t), name="bumped")
        xs = np.linspace(0.0, 1.0, 501)
        assert (fbar(f, k, xs) == fbar(g, k, xs)).all()

    def test_domain_check(self, params):
        f = corpus("affine", params)
        k = knots(100, params.xi)
        with pytest.raises(ValueError):
            fbar(f, k, 1.5)
        for fn in (fbar, fbar_d2):
            for x in (np.nan, [0.1, np.nan, 0.9]):
                with pytest.raises(ValueError):
                    fn(f, k, x)


class TestFbarD2:
    def test_affine_zero(self, params):
        f = corpus("affine", params)
        k = knots(100, params.xi)
        xs = np.linspace(0.0, 1.0, 501)
        np.testing.assert_allclose(fbar_d2(f, k, xs), 0.0, atol=1e-12)

    def test_zero_on_bridge(self, params):
        f = corpus("smooth-bump", params)
        k = knots(100, params.xi)
        xs = np.linspace(k.x2 + 1e-9, k.x3 - 1e-9, 21)
        assert (fbar_d2(f, k, xs) == 0.0).all()

    def test_missing_derivative(self, params):
        f = TestFunction(eval=lambda t: np.asarray(t, float) ** 2)
        with pytest.raises(MissingDerivative):
            fbar_d2(f, knots(100, params.xi), 0.5)

    @pytest.mark.parametrize("name", ["quadratic", "smooth-bump"])
    def test_matches_finite_differences(self, params, name):
        f = corpus(name, params)
        n = 100
        k = knots(n, params.xi)
        segments = [(0.0, k.x1), (k.x1, k.x2), (k.x2, k.x3), (k.x3, k.x4), (k.x4, 1.0)]
        for lo, hi in segments:
            probes = lo + (hi - lo) * np.linspace(0.07, 0.93, 100)
            exact = fbar_d2(f, k, probes)
            fd = np.array([
                five_point_second(lambda t: fbar(f, k, float(t)), float(x), 1e-4)
                for x in probes
            ])
            scale = max(np.max(np.abs(exact)), 1.0)
            np.testing.assert_allclose(fd, exact, atol=1e-5 * scale)

    def test_c2_joins(self, params):
        # value and slope continuity from one-sided differences of the
        # spliced function, second-derivative continuity from one-sided
        # limits of the exact formula (a one-sided difference quotient
        # for the second derivative would be swamped by the O(h * F''')
        # truncation next to the bridge knots)
        f = corpus("quadratic", params)
        for n in (100, 256):
            k = knots(n, params.xi)
            for x0 in (k.x1, k.x2, k.x3, k.x4):
                assert abs(fbar(f, k, x0 - 1e-12) - fbar(f, k, x0 + 1e-12)) <= 1e-10
                # one-sided limits approach each other at rate eps * |F'''|
                eps = 1e-10
                left = fbar_d2(f, k, x0 - eps)
                right = fbar_d2(f, k, x0 + eps)
                assert abs(left - right) <= 1e-6 * max(1.0, abs(left), abs(right))
                # one-sided slopes bracket the limit to O(h |F''|)
                h = 1e-6
                s_l = (fbar(f, k, x0) - fbar(f, k, x0 - h)) / h
                s_r = (fbar(f, k, x0 + h) - fbar(f, k, x0)) / h
                curv = max(abs(left), abs(right), 1.0)
                assert abs(s_l - s_r) <= 3.0 * h * curv + 1e-9


class TestBridgeErrorAndCurvatureBounds:
    def test_bridge_error_ratio_bounded(self, params, sw, light_grid):
        # weighted distance to the bridge line against the squared local
        # scale: bounded with no growth over the sweep
        f = corpus("quadratic", params)
        x = light_grid.points
        d2norm = np.max(wbar(params, x) * step_weight(sw, x) ** 2 * np.abs(f.d2(x)))
        seq = []
        for n in (64, 256, 1024, 4096):
            k = knots(n, params.xi)
            xz = x[(x >= k.x1) & (x <= k.x4)]
            num = wbar(params, xz) * np.abs(f.eval(xz) - bridge_p(f, k, xz))
            den = (delta_n(n, xz) / (math.sqrt(n) * step_weight(sw, xz))) ** 2 * d2norm
            seq.append(float(np.max(num / den)))
        assert all(np.isfinite(seq))
        assert kendall_tau(seq) <= 0.5

    def test_spliced_curvature_ratio_bounded(self, params, sw, light_grid):
        f = corpus("quadratic", params)
        x = light_grid.points
        w2 = wbar(params, x) * step_weight(sw, x) ** 2
        d2norm = np.max(w2 * np.abs(f.d2(x)))
        seq = []
        for n in (64, 256, 1024, 4096):
            k = knots(n, params.xi)
            seq.append(float(np.max(w2 * np.abs(fbar_d2(f, k, x)))) / d2norm)
        assert all(np.isfinite(seq))
        assert kendall_tau(seq) <= 0.5
