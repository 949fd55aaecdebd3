import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from bernsing import (
    InvalidDegree,
    TestFunction,
    WeightParams,
    bbar_apply,
    bbar_second,
    bridge_p,
    build_operator,
    knots,
    step_weight,
    varphi,
    wbar,
    weighted_sup_norm,
)
from bernsing.harness.checks import kendall_tau, sequence_verdict
from bernsing.harness.corpus import corpus

from oracles import five_point_second, four_sum_operator


def _bump_inside(k):
    mid = 0.5 * (k.x2 + k.x3)
    rad = 0.45 * (k.x3 - k.x2)

    def b(t):
        u = (np.asarray(t, float) - mid) / rad
        return np.where(np.abs(u) < 1.0, (1.0 - u * u) ** 3, 0.0)

    return b


class TestBuildOperator:
    def test_non_finite_samples_rejected(self, params):
        f = TestFunction(eval=lambda t: np.full(np.shape(t), np.nan), name="nan-valued")
        with pytest.raises(ValueError, match="nan-valued"):
            build_operator(f, 64, params)

    def test_affine_samples_affine(self, params):
        f = corpus("affine", params)
        op = build_operator(f, 100, params)
        t = np.arange(101) / 100.0
        np.testing.assert_allclose(op.fbar_samples, f.eval(t), rtol=0, atol=1e-14)

    def test_constant_samples(self, params):
        f = TestFunction(eval=lambda t: np.ones_like(np.asarray(t, float)), name="one")
        op = build_operator(f, 64, params)
        np.testing.assert_allclose(op.fbar_samples, 1.0, atol=1e-15)

    def test_never_evaluates_f_inside_bridge(self, params):
        k = knots(100, params.xi)
        calls = []

        def spy(t):
            ts = np.atleast_1d(np.asarray(t, float))
            calls.append(ts)
            return np.abs(ts - params.xi) ** -0.5

        f = TestFunction(eval=spy, name="spied")
        build_operator(f, 100, params)
        seen = np.concatenate(calls)
        assert not ((seen > k.x2) & (seen < k.x3)).any()

    def test_exterior_dependence_bit_identical(self, params):
        f = corpus("inner-root", params)
        k = knots(100, params.xi)
        bump = _bump_inside(k)
        g = TestFunction(eval=lambda t: f.eval(t) + bump(t), name="bumped")
        a = build_operator(f, 100, params)
        b = build_operator(g, 100, params)
        assert np.array_equal(a.fbar_samples, b.fbar_samples)

    def test_samples_immutable(self, params):
        op = build_operator(corpus("quadratic", params), 64, params)
        with pytest.raises(ValueError):
            op.fbar_samples[0] = 7.0

    def test_propagates_invalid_degree(self, params):
        from bernsing import InvalidDegree

        with pytest.raises(InvalidDegree):
            build_operator(corpus("affine", params), 16, params)


class TestBbarApply:
    def test_preserves_linear(self, params):
        f = TestFunction(
            eval=lambda t: 2.0 * np.asarray(t, float) + 0.1,
            name="line",
        )
        for n in (64, 256, 1024):
            op = build_operator(f, n, params)
            xs = np.linspace(0.0, 1.0, 101)
            np.testing.assert_allclose(bbar_apply(op, xs), 2.0 * xs + 0.1, atol=1e-11)

    def test_constant(self, params):
        f = TestFunction(eval=lambda t: np.full_like(np.asarray(t, float), 3.25))
        op = build_operator(f, 64, params)
        np.testing.assert_allclose(bbar_apply(op, np.linspace(0, 1, 33)), 3.25, atol=1e-12)

    def test_singular_function_finite_at_xi(self, params):
        f = corpus("inner-root", params)
        op = build_operator(f, 100, params)
        val = bbar_apply(op, 0.5)
        assert math.isfinite(val)
        oracle = four_sum_operator(f, 100, params.xi, 0.5)
        assert val == pytest.approx(oracle, rel=1e-12)

    def test_four_sum_oracle_small_degrees(self, params):
        # lattice-compatible small cases across the whole corpus
        for name, a0 in (("affine", None), ("quadratic", None), ("smooth-bump", None),
                         ("inner-root", None), ("inner-cusp", None)):
            f = corpus(name, params, a0)
            op = build_operator(f, 32, params)
            for x in np.linspace(0.0, 1.0, 21):
                a = bbar_apply(op, float(x))
                b = four_sum_operator(f, 32, params.xi, float(x))
                assert abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))

    def test_positive_operator(self, params, rng):
        f = corpus("inner-root", params)
        op = build_operator(f, 256, params)
        xs = rng.uniform(0, 1, 200)
        assert (bbar_apply(op, xs) >= -1e-15).all()

    def test_linearity(self, params, rng):
        f = corpus("quadratic", params)
        g = corpus("smooth-bump", params)
        a, b = 1.7, -0.45
        h = TestFunction(eval=lambda t: a * f.eval(t) + b * g.eval(t), name="combo")
        opf = build_operator(f, 128, params)
        opg = build_operator(g, 128, params)
        oph = build_operator(h, 128, params)
        xs = rng.uniform(0, 1, 50)
        np.testing.assert_allclose(
            bbar_apply(oph, xs),
            a * bbar_apply(opf, xs) + b * bbar_apply(opg, xs),
            atol=1e-11,
        )


class TestBbarSecond:
    def test_affine_vanishes(self, params):
        f = corpus("affine", params)
        for n in (64, 512):
            op = build_operator(f, n, params)
            xs = np.linspace(0.0, 1.0, 101)
            assert np.max(np.abs(bbar_second(op, xs))) <= 1e-9 * n * n

    def test_matches_finite_differences(self, params):
        f = corpus("quadratic", params)
        n = 64
        op = build_operator(f, n, params)
        k = op.knots
        # probes well away from the blend zone
        probes = np.concatenate([
            np.linspace(0.02, k.x1 - 0.05, 20),
            np.linspace(k.x4 + 0.05, 0.98, 20),
        ])
        for x in probes:
            fd = five_point_second(lambda t: bbar_apply(op, float(t)), float(x), 1e-4)
            exact = bbar_second(op, float(x))
            assert abs(fd - exact) <= 1e-4 * max(1.0, abs(exact))

    def test_degree_guard(self, params):
        f = corpus("affine", params)
        op = build_operator(f, 64, params)
        object.__setattr__(op, "n", 1)
        with pytest.raises(ValueError):
            bbar_second(op, 0.5)


class TestNormBounds:
    def test_weighted_norm_ratio_bounded(self, params, light_grid):
        # the operator does not inflate the weighted sup-norm
        f = corpus("inner-root", params)
        x = light_grid.points
        w = wbar(params, x)
        nwf = weighted_sup_norm(f, params, light_grid)
        seq = []
        for n in (64, 256, 1024):
            op = build_operator(f, n, params)
            seq.append(float(np.max(w * np.abs(bbar_apply(op, x)))) / nwf)
        ok, note = sequence_verdict(seq)
        assert ok, note

    def test_second_derivative_sups_no_growth(self, params, sw, light_grid):
        # normalized curvature sups may decay but never trend upward
        x = light_grid.points
        w = wbar(params, x)
        phi2 = step_weight(sw, x) ** 2
        froot = corpus("inner-root", params)
        fquad = corpus("quadratic", params)
        nw_root = weighted_sup_norm(froot, params, light_grid)
        nw2_quad = float(np.max(w * phi2 * np.abs(fquad.d2(x))))
        t1, t2a, t2b = [], [], []
        for n in (64, 256, 1024):
            b2r = np.abs(bbar_second(build_operator(froot, n, params), light_grid.points))
            b2q = np.abs(bbar_second(build_operator(fquad, n, params), light_grid.points))
            t1.append(float(np.max(w * b2r)) / (n * n * nw_root))
            t2a.append(float(np.max(w * phi2 * b2r)) / (n * nw_root))
            t2b.append(float(np.max(w * phi2 * b2q)) / nw2_quad)
        for seq in (t1, t2a, t2b):
            assert all(np.isfinite(seq))
            assert kendall_tau(seq) <= 0.5

    def test_interpolated_curvature_bound_no_growth(self, params, light_grid):
        # per-x bound n * max(n^(1-lam), varphi^(2(lam-1))) for the
        # varphi^(2 lam)-weighted curvature, lam in {0, 1/2, 1}
        f = corpus("inner-root", params)
        x = light_grid.points
        inner = (x > 0.0) & (x < 1.0)  # varphi vanishes at the endpoints
        x = x[inner]
        w = wbar(params, x)
        vp = varphi(x)
        nwf = weighted_sup_norm(f, params, light_grid)
        for lam in (0.0, 0.5, 1.0):
            seq = []
            for n in (64, 256, 1024):
                b2 = np.abs(bbar_second(build_operator(f, n, params), light_grid.points))[inner]
                bound = n * np.maximum(n ** (1.0 - lam), vp ** (2.0 * (lam - 1.0))) * nwf
                seq.append(float(np.max(w * vp ** (2.0 * lam) * b2 / bound)))
            assert all(np.isfinite(seq))
            assert kendall_tau(seq) <= 0.5, f"lambda={lam}: growth trend {seq}"


def _valid_degree(n, xi):
    try:
        knots(n, xi)
    except InvalidDegree:
        return False
    return True


@st.composite
def _configs(draw):
    """(params, n) with xi in [0.25, 0.75], alpha in (0, 3] and n in
    64..4096 valid for the knots at xi."""
    xi = draw(st.floats(0.25, 0.75))
    alpha = draw(st.floats(0.0, 3.0, exclude_min=True))
    n = draw(st.integers(64, 4096))
    assume(_valid_degree(n, xi))
    return WeightParams(xi=xi, alpha=alpha), n


def _singular(params, a, b, s):
    """a |t - xi|^(-alpha/2) + b (t - s)^2: non-negative for a, b >= 0,
    and infinite at xi."""
    def f(t):
        t = np.asarray(t, float)
        with np.errstate(divide="ignore"):
            return a * np.abs(t - params.xi) ** (-params.alpha / 2.0) + b * (t - s) ** 2

    return TestFunction(eval=f, name="singular")


def _probes(op):
    k = op.knots
    return np.concatenate([np.linspace(0.0, 1.0, 129), [k.x1, k.x2, op.params.xi, k.x3, k.x4]])


_coef = st.floats(0.0, 10.0)
_signed = st.floats(-5.0, 5.0)
_PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


class TestOperatorProperties:
    @_PROPERTY
    @given(_configs(), _coef, _coef, st.floats(0.0, 1.0))
    def test_positive(self, cfg, a, b, s):
        params, n = cfg
        op = build_operator(_singular(params, a, b, s), n, params)
        assert (bbar_apply(op, _probes(op)) >= 0.0).all()

    @_PROPERTY
    @given(_configs(), _signed, _signed)
    def test_linear(self, cfg, a, b):
        params, n = cfg
        f = _singular(params, 1.0, 0.0, 0.0)
        g = corpus("smooth-bump", params)
        h = TestFunction(eval=lambda t: a * f.eval(t) + b * g.eval(t), name="combo")
        opf, opg = build_operator(f, n, params), build_operator(g, n, params)
        xs = _probes(opf)
        scale = (abs(a) * np.abs(opf.fbar_samples).max()
                 + abs(b) * np.abs(opg.fbar_samples).max())
        np.testing.assert_allclose(
            bbar_apply(build_operator(h, n, params), xs),
            a * bbar_apply(opf, xs) + b * bbar_apply(opg, xs),
            rtol=0, atol=1e-12 * scale + 1e-300)

    @_PROPERTY
    @given(_configs(), _signed, _signed)
    def test_reproduces_affine(self, cfg, c0, c1):
        params, n = cfg
        f = TestFunction(eval=lambda t: c0 + c1 * np.asarray(t, float), name="affine")
        op = build_operator(f, n, params)
        xs = _probes(op)
        np.testing.assert_allclose(bbar_apply(op, xs), c0 + c1 * xs, rtol=0, atol=1e-11)

    @_PROPERTY
    @given(_configs())
    def test_f_never_evaluated_inside_bridge(self, cfg):
        params, n = cfg
        f = _singular(params, 1.0, 1.0, 0.5)
        seen = []
        spy = TestFunction(
            eval=lambda t: (seen.append(np.atleast_1d(np.asarray(t, float))), f.eval(t))[1],
            name="spied")
        op = build_operator(spy, n, params)
        bbar_apply(op, _probes(op))
        seen = np.concatenate(seen)
        k = op.knots
        assert seen.size and not ((seen > k.x2) & (seen < k.x3)).any()
