import math
from types import SimpleNamespace

import numpy as np
import pytest

from bernsing import (
    Degenerate,
    EvalGrid,
    ModulusConfig,
    StepWeight,
    TestFunction,
    WeightParams,
    quadrature_bound_ratio,
    modulus_curve,
    refined_grid,
    step_weight,
    wbar,
)
from bernsing import moduli
from bernsing.harness import ExperimentConfig, checks
from bernsing.harness.checks import sequence_verdict
from bernsing.harness.config import DEFAULT_T_VALUES
from bernsing.harness.corpus import corpus
from bernsing.harness.rates import fit_rate
from bernsing.moduli import _PANELS, T_MAX, _admissible

from oracles import mp_quadrature_ratio, per_step_modulus_curve, quadrature_ratio_2d

T_LADDER = tuple(2.0**-k for k in range(9, 2, -1))


def _cfg(grid, ts=T_LADDER, h_steps=16):
    return ModulusConfig(x_grid=grid, t_values=ts, h_steps=h_steps)


def _point(x):
    """A one-abscissa grid: the curve is then the largest weighted
    second difference at x over the ladders."""
    return EvalGrid(points=np.array([x]))


class TestSecondDifference:
    def test_affine_vanishes(self, params, sw):
        ident = TestFunction(eval=lambda t: np.asarray(t, float), name="identity")
        for f in (ident, corpus("affine", params)):
            for x in (0.25, 0.41, 0.7):
                curve = modulus_curve(f, params, sw, _cfg(_point(x)))
                assert curve.max() <= 1e-14

    def test_square_identity(self, params, sw):
        # f(x + o) - 2 f(x) + f(x - o) = 2 o^2 grows with the step, so
        # each anchor's sup is taken at the top of its own ladder, h = t
        f = corpus("quadratic", params)
        ts = (0.0625, 0.125)
        for x in (0.3, 0.7):
            curve = modulus_curve(f, params, sw, _cfg(_point(x), ts=ts))
            want = [wbar(params, x) * 2.0 * (t * step_weight(sw, x)) ** 2 for t in ts]
            np.testing.assert_allclose(curve, want, rtol=1e-12)

    def test_kink_formula(self, params):
        f = TestFunction(eval=lambda t: np.abs(np.asarray(t, float) - 0.5), name="kink")
        eps, t = 0.02, 0.05  # the top step h * phi = t exceeds eps
        x = 0.5 + eps
        curve = modulus_curve(f, params, StepWeight(0.0, 0.0), _cfg(_point(x), ts=(t,)))
        # direct evaluation: (eps+h*phi) - 2*eps + (h*phi-eps)
        direct = (eps + t) - 2.0 * eps + (t - eps)
        assert direct == pytest.approx(2.0 * (t - eps), rel=1e-13)
        assert curve[0] == pytest.approx(wbar(params, x) * direct, rel=1e-13)

    def test_inadmissible_outside(self):
        assert _admissible(0.3, 0.25, 0.9)
        assert not _admissible(0.95, 0.25, 0.5)
        assert not _admissible(0.05, 0.25, 0.5)

    def test_inadmissible_tube(self):
        # translate lands exactly on the singularity
        assert not _admissible(0.4, 0.1, 0.5)
        assert _admissible(0.4, 0.1, 0.6)
        # x itself inside the exclusion tube
        assert not _admissible(0.5, 0.1, 0.5)


class TestWeightedModulus:
    def test_affine_negligible(self, params, sw, light_grid):
        f = corpus("affine", params)
        curve = modulus_curve(f, params, sw, _cfg(light_grid))
        assert curve.max() <= 1e-13

    def test_monotone_in_t_by_construction(self, params, sw, light_grid):
        f = corpus("inner-cusp", params, 1.5)
        curve = modulus_curve(f, params, sw, _cfg(light_grid))
        assert (np.diff(curve) >= 0.0).all()
        # every step of the second ladder leaves [0,1] at this point, so
        # its entry is the sup carried over from the first ladder
        g = corpus("quadratic", params)
        cfg = _cfg(_point(0.998), ts=(0.001, 0.25), h_steps=8)
        curve = modulus_curve(g, params, StepWeight(0.0, 0.0), cfg)
        assert curve[0] > 0.0 and curve[1] == curve[0]
        # here the sixth anchor's own ladder reads 15.8% below the fifth
        # anchor's, so only the running max keeps the curve monotone
        off = WeightParams(xi=0.3, alpha=1.0)
        cfg = _cfg(refined_grid(off, uniform=1025, cluster=128), ts=DEFAULT_T_VALUES)
        curve = modulus_curve(corpus("inner-root", off), off, StepWeight(0.5, 0.5), cfg)
        assert (np.diff(curve) >= 0.0).all()

    def test_curve_matches_pointwise_calls(self, params, sw, light_grid):
        # the curve over the first k anchors is the first k entries of
        # the full curve, bit for bit: an entry depends on no later anchor
        f = corpus("inner-cusp", params, 1.0)
        full = modulus_curve(f, params, sw, _cfg(light_grid, ts=T_LADDER[:4], h_steps=8))
        for k in range(1, 4):
            prefix = modulus_curve(f, params, sw, _cfg(light_grid, ts=T_LADDER[:k], h_steps=8))
            assert np.array_equal(prefix, full[:k])

    def test_power_of_two_scaling_exact(self, params, sw, light_grid):
        f = corpus("inner-cusp", params, 1.5)
        cfg = _cfg(light_grid, ts=T_LADDER[:4], h_steps=8)
        base = modulus_curve(f, params, sw, cfg)
        for c in (2.0, -4.0):
            g = TestFunction(eval=lambda t, c=c: c * f.eval(t), name="scaled")
            assert np.array_equal(modulus_curve(g, params, sw, cfg), abs(c) * base)

    def test_general_scaling(self, params, sw, light_grid):
        f = corpus("inner-cusp", params, 1.0)
        cfg = _cfg(light_grid, ts=T_LADDER[:4], h_steps=8)
        g = TestFunction(eval=lambda t: 3.0 * f.eval(t), name="x3")
        np.testing.assert_allclose(modulus_curve(g, params, sw, cfg),
                                   3.0 * modulus_curve(f, params, sw, cfg), rtol=1e-13)

    def test_square_attains_bound(self, params, sw, grid):
        # sup of wbar * 2 h^2 phi^2 at h = t, maximised over the grid
        f = corpus("quadratic", params)
        curve = dict(zip(T_LADDER, modulus_curve(f, params, sw, _cfg(grid))))
        bound_density = wbar(params, grid.points) * step_weight(sw, grid.points) ** 2
        for t in (0.125, 0.03125):
            bound = 2.0 * t * t * float(np.max(bound_density))
            assert curve[t] <= bound * (1.0 + 1e-9)
            assert curve[t] >= 0.98 * bound

    def test_slope_recovers_exponent(self, params, sw, grid):
        # inner-root: nominal exponent alpha/2
        f = corpus("inner-root", params)
        curve = modulus_curve(f, params, sw, _cfg(grid))
        fit = fit_rate(list(zip(T_LADDER, curve)), scale_name="t")
        assert abs(fit.fitted_slope - 0.5) <= 0.1

    def test_degenerate_when_nothing_admissible(self, params):
        # a lone point next to 1 with a flat step weight: every stencil
        # leaves [0,1]
        g = EvalGrid(points=np.array([1.0 - 1e-8]))
        f = corpus("quadratic", params)
        cfg = ModulusConfig(x_grid=g, t_values=(0.0625, 0.125), h_steps=8)
        with pytest.raises(Degenerate, match="t=0.0625"):
            modulus_curve(f, params, StepWeight(0.0, 0.0), cfg)

    def test_t_range_validated(self, params, sw, light_grid):
        # the modulus and the experiment configuration share one rule
        for bad in ((0.3,), (0.0,), (), (0.125, 0.0625), (0.125, 0.125)):
            with pytest.raises(ValueError) as mod:
                _cfg(light_grid, ts=bad)
            with pytest.raises(ValueError) as exp:
                ExperimentConfig(params=params, sw=sw, t_values=bad)
            assert str(mod.value) == str(exp.value)
        assert _cfg(light_grid, ts=(T_MAX,)).t_values == (T_MAX,)

    def test_config_validation(self, light_grid):
        with pytest.raises(ValueError):
            ModulusConfig(x_grid=light_grid, t_values=(0.125,), h_steps=4)
        with pytest.raises(ValueError):
            ModulusConfig(x_grid=light_grid, t_values=(0.3,))
        with pytest.raises(ValueError):
            ModulusConfig(x_grid=light_grid, t_values=(0.125, 0.0625))

    def test_non_finite_t_rejected(self, light_grid):
        # NaN used to pass, and a modulus run then failed as a check
        for bad in ((math.nan,), (0.0625, math.nan), (math.inf,)):
            with pytest.raises(ValueError, match="t_values"):
                ModulusConfig(x_grid=light_grid, t_values=bad)

    def test_fractional_h_steps_rejected(self, light_grid):
        # 8.5 used to build a 9-step ladder with a ratio taken from 7.5
        for bad in (8.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="h_steps"):
                ModulusConfig(x_grid=light_grid, t_values=(0.125,), h_steps=bad)


class TestDriverOracle:
    """modulus_curve evaluates phi, wbar and 2 f once per curve and f at
    the two translates per step; oracles.per_step_modulus_curve makes one
    full pass per step."""

    # (xi, alpha, function, alpha0, beta): the CLI default, and the
    # configs where the sub-anchor rungs of the ladders carry the sup
    CONFIGS = [(0.5, 1.0, "inner-root", None, (0.5, 0.5)),
               (0.3, 1.0, "inner-root", None, (1.0, 1.0)),
               (0.5, 0.5, "inner-cusp", 1.5, (0.5, 0.5))]

    @staticmethod
    def _setup(xi, alpha, name, alpha0, beta):
        params = WeightParams(xi=xi, alpha=alpha)
        return corpus(name, params, alpha0), params, StepWeight(*beta), refined_grid(params)

    @pytest.mark.parametrize("h_steps", [12, 16])
    @pytest.mark.parametrize("config", CONFIGS)
    def test_bits_of_the_per_step_driver(self, config, h_steps):
        f, params, sw, grid = self._setup(*config)
        cfg = _cfg(grid, ts=DEFAULT_T_VALUES, h_steps=h_steps)
        got = modulus_curve(f, params, sw, cfg)
        assert np.array_equal(got, per_step_modulus_curve(f, params, sw, cfg))

    def test_degenerate_as_the_per_step_driver(self, params):
        g = EvalGrid(points=np.array([1.0 - 1e-8]))
        f, sw = corpus("quadratic", params), StepWeight(0.0, 0.0)
        cfg = ModulusConfig(x_grid=g, t_values=(0.0625, 0.125), h_steps=8)
        messages = []
        for driver in (modulus_curve, per_step_modulus_curve):
            with pytest.raises(Degenerate) as e:
                driver(f, params, sw, cfg)
            messages.append(str(e.value))
        assert messages[0] == messages[1]

    def test_two_decade_ladder(self):
        # here the grid sup is not monotone in h: a one-decade ladder
        # reads up to 10.8% off and the anchors alone 15.5% low.  The
        # oracle builds its own ladder, whose steps may differ from the
        # library's in the last bit
        f, params, sw, grid = self._setup(*self.CONFIGS[1])
        cfg = _cfg(grid, ts=DEFAULT_T_VALUES)
        want = per_step_modulus_curve(f, params, sw, cfg,
                                      lambda t, h: t * 0.01 ** (np.arange(h) / (h - 1)))
        np.testing.assert_allclose(modulus_curve(f, params, sw, cfg), want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("where", ["light", "edge"])
    def test_grid_factors_once_per_curve(self, params, sw, light_grid, monkeypatch, where):
        # f on the grid once and at the two translates of each admissible
        # step; at 0.998 every step of the second ladder leaves [0,1]
        calls = {"step_weight": 0, "wbar": 0, "eval": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(moduli, "step_weight", counted("step_weight", step_weight))
        monkeypatch.setattr(moduli, "wbar", counted("wbar", wbar))
        g = corpus("quadratic", params)
        f = TestFunction(eval=counted("eval", g.eval), name="counted")
        if where == "light":
            cfg, steps = _cfg(light_grid, h_steps=8), len(T_LADDER) * 8
        else:
            cfg, steps, sw = _cfg(_point(0.998), ts=(0.001, 0.25), h_steps=8), 8, StepWeight(0, 0)
        modulus_curve(f, params, sw, cfg)
        assert calls == {"step_weight": 1, "wbar": 1, "eval": 1 + 2 * steps}

    def test_error_fields_read_the_grid_once(self, params, light_grid, monkeypatch):
        on_grid, weights = [], []
        monkeypatch.setattr(checks, "wbar", lambda p, x: weights.append(x) or wbar(p, x))
        g = corpus("inner-root", params)

        def counted(t):
            on_grid.append(t is light_grid.points)
            return g.eval(t)

        f = TestFunction(eval=counted, name=g.name)
        fields = checks._error_fields(f, (64, 128, 256), params, light_grid)
        assert len(fields) == 3 and sum(on_grid) == 1 and len(weights) == 1


class TestQuadratureBound:
    def test_bounded_ratio_sweep(self, sw):
        seq = []
        for t in (0.125, 0.0625, 0.03125):
            xs = [c * t for c in (1.25, 2.0, 4.0)] + [0.3, 0.5, 0.7]
            seq.append(max(quadrature_bound_ratio(sw, t, x) for x in xs))
        ok, note = sequence_verdict(seq)
        assert ok, note

    def test_flat_weight_recovers_area(self):
        # with phi == 1 the double integral is exactly t^2
        sw0 = StepWeight(0.0, 0.0)
        assert quadrature_bound_ratio(sw0, 0.1, 0.5) == pytest.approx(1.0, rel=1e-12)

    def test_domain_validation(self, sw):
        with pytest.raises(ValueError):
            quadrature_bound_ratio(sw, 0.3, 0.5)
        with pytest.raises(ValueError):
            quadrature_bound_ratio(sw, 0.125, 0.1)



@pytest.fixture(scope="module")
def lemma3_points():
    """The (t, x) points at which lemma 3 asks for the ratio."""
    points = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(checks, "quadrature_bound_ratio", lambda sw, t, x: points.append((t, x)) or 1.0)
        checks._lemma3(SimpleNamespace(sw=StepWeight(0.5, 0.5)))
    assert len(points) == 49
    return points


class TestQuadratureHankelForm:
    """The ratio evaluates phi^-2 once per anti-diagonal of the node grid;
    oracles.quadrature_ratio_2d evaluates it at every node."""

    BETAS = ((0.5, 0.5), (1.0, 1.0), (0.5, 1.0), (2.0, 0.5), (0.0, 0.0))

    def test_bits_of_the_full_grid_on_lemma3_points(self, lemma3_points):
        # lemma 3's t are dyadic, so (x + u_i) + u_j rounds to the same
        # float as x + s_(i+j) and both forms sum the same values
        for beta in self.BETAS:
            sw = StepWeight(*beta)
            for t, x in lemma3_points:
                got, want = quadrature_bound_ratio(sw, t, x), quadrature_ratio_2d(sw, t, x, _PANELS)
                assert got == want, (beta, t, x, got, want)

    def test_full_grid_to_rounding_elsewhere(self):
        # at other t the two node sets differ by rounding (largest
        # measured change 3.6e-16)
        rng = np.random.default_rng(31)
        for beta in self.BETAS:
            sw = StepWeight(*beta)
            for t in [0.1, *rng.uniform(0.01, 0.24, 12)]:
                x = rng.uniform(t, 1.0 - t)
                want = quadrature_ratio_2d(sw, t, x, _PANELS)
                assert abs(quadrature_bound_ratio(sw, t, x) - want) <= 1e-15 * want, (beta, t, x)

    def test_one_abscissa_per_anti_diagonal(self, sw, monkeypatch):
        # 2 * _PANELS + 1 nodes and x itself, not (_PANELS + 1)^2 nodes
        sizes = []

        def counting(s, x):
            sizes.append(np.size(x))
            return step_weight(s, x)

        monkeypatch.setattr(moduli, "step_weight", counting)
        quadrature_bound_ratio(sw, 0.125, 0.5)
        assert sorted(sizes) == [1, 2 * _PANELS + 1]

    def test_trapezoid_against_the_exact_integral(self, lemma3_points):
        # lemma 3's constant is the 257-panel trapezoid's value, not the
        # integral to 17 digits: the largest measured error is 7.59e-6
        sw = StepWeight(0.5, 0.5)
        for t, x in lemma3_points:
            exact = mp_quadrature_ratio(0.5, 0.5, t, x)
            assert abs(quadrature_bound_ratio(sw, t, x) / exact - 1) <= 1e-5, (t, x)
