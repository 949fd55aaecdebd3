import math

import numpy as np
import pytest

from bernsing import (
    InvalidDegree,
    EvalGrid,
    StepWeight,
    TestFunction,
    WeightParams,
    delta_n,
    refined_grid,
    step_weight,
    varphi,
    wbar,
    weighted_sup_norm,
)
from bernsing.weights import _EXCLUSION_RADIUS


class TestWeightParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            WeightParams(xi=0.0, alpha=1.0)
        with pytest.raises(ValueError):
            WeightParams(xi=1.0, alpha=1.0)
        with pytest.raises(ValueError):
            WeightParams(xi=0.5, alpha=0.0)

    def test_admissibility_flag(self):
        assert StepWeight(0.5, 0.5).theorem_admissible
        assert StepWeight(0.5, 2.0).theorem_admissible
        assert not StepWeight(0.4, 0.5).theorem_admissible
        assert not StepWeight(0.5, 0.0).theorem_admissible
        for bad in ((-0.1, 0.5), (math.nan, 0.5), (0.5, math.inf)):
            with pytest.raises(ValueError):
                StepWeight(*bad)


class TestWbar:
    def test_examples(self):
        assert wbar(WeightParams(0.5, 1.0), 0.75) == pytest.approx(0.25, abs=1e-15)
        assert wbar(WeightParams(0.5, 1.0), 0.5) == 0.0
        assert wbar(WeightParams(0.3, 2.0), 0.1) == pytest.approx(0.04, rel=1e-14)

    def test_symmetry_about_xi(self, rng):
        for _ in range(20):
            xi = float(rng.uniform(0.1, 0.9))
            alpha = float(rng.uniform(0.2, 3.0))
            p = WeightParams(xi, alpha)
            d = float(rng.uniform(0, min(xi, 1.0 - xi)))
            assert abs(wbar(p, xi + d) - wbar(p, xi - d)) <= 1e-14

    def test_domain(self):
        with pytest.raises(ValueError):
            wbar(WeightParams(0.5, 1.0), 1.2)
        for x in (np.nan, [0.1, np.nan, 0.9]):
            with pytest.raises(ValueError):
                wbar(WeightParams(0.5, 1.0), x)
            with pytest.raises(ValueError):
                step_weight(StepWeight(0.5, 0.5), x)


class TestStepWeight:
    def test_examples(self):
        assert step_weight(StepWeight(0.5, 0.5), 0.5) == pytest.approx(0.5, abs=1e-15)
        assert step_weight(StepWeight(0.5, 0.5), 0.0) == 0.0
        assert step_weight(StepWeight(1.0, 0.5), 0.25) == pytest.approx(
            0.25 * math.sqrt(0.75), rel=1e-14
        )

    def test_zero_exponents_inert(self):
        sw = StepWeight(0.0, 0.0)
        assert step_weight(sw, 0.0) == 1.0
        assert step_weight(sw, 1.0) == 1.0

    def test_symmetric_max_at_half(self):
        sw = StepWeight(0.5, 0.5)
        xs = np.linspace(0.0, 1.0, 2001)
        vals = step_weight(sw, xs)
        assert vals.max() <= step_weight(sw, 0.5) + 1e-15


class TestVarphiDelta:
    def test_varphi_examples(self):
        assert varphi(0.5) == 0.5
        assert varphi(0.0) == 0.0
        assert varphi(0.1) == pytest.approx(0.3, rel=1e-14)

    def test_delta_examples(self):
        assert delta_n(100, 0.0) == pytest.approx(0.1, abs=1e-15)
        assert delta_n(100, 0.5) == pytest.approx(0.6, abs=1e-15)
        assert delta_n(4, 0.5) == pytest.approx(1.0, abs=1e-15)

    def test_delta_rejects_degree_zero(self):
        with pytest.raises(ValueError, match="degree must be an integer >= 1, got 0"):
            delta_n(0, 0.3)

    def test_delta_rejects_a_fractional_degree(self):
        # the degree rule of basis_row: 64.0 is degree 64, 64.5 no degree
        assert delta_n(64.0, 0.3) == delta_n(64, 0.3)
        with pytest.raises(ValueError, match="degree must be an integer >= 1, got 64.5"):
            delta_n(64.5, 0.3)

    @pytest.mark.parametrize("n", [math.inf, -math.inf, math.nan])
    def test_delta_rejects_a_non_finite_degree(self, n):
        with pytest.raises(InvalidDegree, match="degree must be finite"):
            delta_n(n, 0.3)

    @pytest.mark.parametrize("bad", [1.5, -0.5, math.nan])
    def test_domain(self, bad):
        # outside [0,1], and at NaN, sqrt(x (1-x)) would be a silent NaN
        for x in (bad, np.array([0.25, bad, 0.75])):
            for scale in (varphi, lambda t: delta_n(64, t)):
                with pytest.raises(ValueError, match=rf"abscissa must lie in \[0,1\], got .*{bad!r}"):
                    scale(x)

    def test_delta_monotone_and_floor(self, rng):
        xs = rng.uniform(0, 1, 50)
        prev = delta_n(4, xs)
        for n in (8, 64, 512):
            cur = delta_n(n, xs)
            assert (cur <= prev + 1e-15).all()
            assert (cur >= np.maximum(varphi(xs), 1.0 / math.sqrt(n)) - 1e-15).all()
            prev = cur


class TestGrid:
    def test_structure(self, params, grid):
        p = grid.points
        assert p[0] == 0.0 and p[-1] == 1.0
        assert (np.diff(p) > 0).all()
        assert (np.abs(p - params.xi) > _EXCLUSION_RADIUS).all()
        # clusters reach down to 1e-10 of the three anchors
        assert np.min(np.abs(p - params.xi)) < 1e-9
        assert p[1] < 1e-9 and 1.0 - p[-2] < 1e-9
        with pytest.raises(ValueError):
            p[0] = 0.5

    def test_density_control(self, params):
        g = refined_grid(params, uniform=129, cluster=0)
        assert g.points.size == 128  # xi itself is excluded from the 129


class TestWeightedSupNorm:
    def test_constant_one(self, params, grid):
        f = TestFunction(eval=lambda t: np.ones_like(np.asarray(t, float)), name="one")
        assert weighted_sup_norm(f, params, grid) == pytest.approx(0.5, abs=1e-15)

    def test_zero(self, params, grid):
        f = TestFunction(eval=lambda t: np.zeros_like(np.asarray(t, float)), name="zero")
        assert weighted_sup_norm(f, params, grid) == 0.0

    def test_root_singular(self, params, grid):
        f = TestFunction(eval=lambda t: np.abs(np.asarray(t, float) - 0.5) ** -0.5)
        assert weighted_sup_norm(f, params, grid) == pytest.approx(
            math.sqrt(0.5), rel=1e-12
        )

    def test_failed_evaluation_raises(self, params, grid):
        f = TestFunction(eval=lambda t: np.full_like(np.asarray(t, float), np.nan))
        with pytest.raises(ValueError):
            weighted_sup_norm(f, params, grid)

    def test_triangle_inequality(self, params, grid, rng):
        c1, c2 = rng.standard_normal(2)
        f = TestFunction(eval=lambda t: np.sin(7.0 * np.asarray(t, float)) * c1)
        g = TestFunction(eval=lambda t: np.cos(3.0 * np.asarray(t, float)) * c2)
        fg = TestFunction(eval=lambda t: f.eval(t) + g.eval(t))
        lhs = weighted_sup_norm(fg, params, grid)
        rhs = weighted_sup_norm(f, params, grid) + weighted_sup_norm(g, params, grid)
        assert lhs <= rhs + 1e-12
