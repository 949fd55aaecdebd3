import math

import numpy as np
import pytest

from bernsing import (
    Degenerate,
    EvalGrid,
    Inadmissible,
    ModulusConfig,
    StepWeight,
    TestFunction,
    WeightParams,
    quadrature_bound_ratio,
    modulus_curve,
    second_difference,
    step_weight,
    wbar,
    weighted_modulus,
)
from bernsing.harness.checks import sequence_verdict
from bernsing.harness.corpus import corpus
from bernsing.harness.rates import fit_rate

T_LADDER = tuple(2.0**-k for k in range(9, 2, -1))


def _cfg(grid, ts=T_LADDER, h_steps=16):
    return ModulusConfig(x_grid=grid, t_values=ts, h_steps=h_steps)


class TestSecondDifference:
    def test_affine_vanishes(self, params):
        # exactly zero when the affine values themselves are exact
        ident = TestFunction(eval=lambda t: np.asarray(t, float), name="identity")
        assert second_difference(ident, 0.5, 0.5, 0.5) == 0.0
        f = corpus("affine", params)
        assert abs(second_difference(f, 0.5, 0.5, 0.5)) <= 1e-15
        assert abs(second_difference(f, 0.41, 0.2, 0.37)) <= 1e-14

    def test_square_identity(self, params):
        f = corpus("quadratic", params)
        for x, h, phi in ((0.5, 0.1, 0.4), (0.3, 0.22, 0.17)):
            assert second_difference(f, x, h, phi) == pytest.approx(
                2.0 * h * h * phi * phi, rel=1e-12
            )

    def test_kink_formula(self):
        f = TestFunction(eval=lambda t: np.abs(np.asarray(t, float) - 0.5), name="kink")
        h, phi = 0.1, 0.5
        eps = 0.02  # less than h*phi = 0.05
        x = 0.5 + eps
        # direct evaluation: (eps+h*phi) - 2*eps + (h*phi-eps)
        direct = (eps + h * phi) - 2.0 * eps + (h * phi - eps)
        assert second_difference(f, x, h, phi) == pytest.approx(direct, rel=1e-13)
        assert direct == pytest.approx(2.0 * (h * phi - eps), rel=1e-13)

    def test_inadmissible_outside(self, params):
        f = corpus("quadratic", params)
        with pytest.raises(Inadmissible):
            second_difference(f, 0.95, 0.5, 0.5)

    def test_inadmissible_tube(self, params):
        f = corpus("inner-root", params)
        with pytest.raises(Inadmissible):
            # translate lands exactly on the singularity
            second_difference(f, 0.4, 0.2, 0.5, xi=0.5, exclusion=1e-12)


class TestWeightedModulus:
    def test_affine_negligible(self, params, sw, light_grid):
        f = corpus("affine", params)
        val = weighted_modulus(f, params, sw, 0.125, _cfg(light_grid))
        assert val <= 1e-13

    def test_monotone_in_t_by_construction(self, params, sw, light_grid):
        f = corpus("inner-cusp", params, 1.5)
        cfg = _cfg(light_grid)
        vals = [weighted_modulus(f, params, sw, t, cfg) for t in cfg.t_values]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_curve_matches_pointwise_calls(self, params, sw, light_grid):
        f = corpus("inner-cusp", params, 1.0)
        cfg = _cfg(light_grid, ts=T_LADDER[:4], h_steps=8)
        curve = modulus_curve(f, params, sw, cfg)
        single = [weighted_modulus(f, params, sw, t, cfg) for t in cfg.t_values]
        np.testing.assert_allclose(curve, single, rtol=0, atol=0)

    def test_power_of_two_scaling_exact(self, params, sw, light_grid):
        f = corpus("inner-cusp", params, 1.5)
        cfg = _cfg(light_grid, ts=T_LADDER[:4], h_steps=8)
        for c in (2.0, -4.0):
            g = TestFunction(eval=lambda t, c=c: c * f.eval(t), name="scaled")
            a = weighted_modulus(g, params, sw, 0.0625, cfg)
            b = abs(c) * weighted_modulus(f, params, sw, 0.0625, cfg)
            assert a == b

    def test_general_scaling(self, params, sw, light_grid):
        f = corpus("inner-cusp", params, 1.0)
        cfg = _cfg(light_grid, ts=T_LADDER[:4], h_steps=8)
        g = TestFunction(eval=lambda t: 3.0 * f.eval(t), name="x3")
        a = weighted_modulus(g, params, sw, 0.0625, cfg)
        b = 3.0 * weighted_modulus(f, params, sw, 0.0625, cfg)
        assert a == pytest.approx(b, rel=1e-13)

    def test_square_attains_bound(self, params, sw, grid):
        # sup of wbar * 2 h^2 phi^2 at h = t, maximised over the grid
        f = corpus("quadratic", params)
        cfg = _cfg(grid)
        bound_density = wbar(params, grid.points) * step_weight(sw, grid.points) ** 2
        for t in (0.125, 0.03125):
            val = weighted_modulus(f, params, sw, t, cfg)
            bound = 2.0 * t * t * float(np.max(bound_density))
            assert val <= bound * (1.0 + 1e-9)
            assert val >= 0.98 * bound

    def test_slope_recovers_exponent(self, params, sw, grid):
        # inner-root: nominal exponent alpha/2
        f = corpus("inner-root", params)
        curve = modulus_curve(f, params, sw, _cfg(grid))
        fit = fit_rate(list(zip(T_LADDER, curve)), scale_name="t")
        assert abs(fit.fitted_slope - 0.5) <= 0.1

    def test_degenerate_when_nothing_admissible(self, params):
        # a lone point next to 1 with a flat step weight: every stencil
        # leaves [0,1]
        g = EvalGrid(points=np.array([1.0 - 1e-8]), exclusion_radius=1e-12)
        f = corpus("quadratic", params)
        cfg = ModulusConfig(x_grid=g, t_values=(0.125,), h_steps=8)
        with pytest.raises(Degenerate):
            weighted_modulus(f, params, StepWeight(0.0, 0.0), 0.125, cfg)

    def test_t_range_validated(self, params, sw, light_grid):
        f = corpus("quadratic", params)
        with pytest.raises(ValueError):
            weighted_modulus(f, params, sw, 0.3, _cfg(light_grid))

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

