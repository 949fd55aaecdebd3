"""Acceptance suite: one test (and one printed PASS/FAIL line) per
criterion, run at the tolerances fixed below.

Criterion 6a checks the Bernstein-type inequality
sup wbar |B''_n f| <= C n^2 ||wbar f|| of the bridged operator.  The n^2
envelope is the worst case over the whole weighted class; no fixed
function attains it (README, "Install and test").  So 6a checks three
things: (a) for the root-singular function the normalized sequence does
not grow beyond the 4x gate; (b) the per-degree extremal cos(n pi x),
whose lattice samples alternate in sign, holds the normalized sequence
flat (bounded-ratio rule), which shows n^2 is attained; (c) the
root-singular sequence decays at the predicted rate n^(-1-alpha/4),
i.e. n^(-5/4) at alpha = 1, within the slope tolerance.
"""
import math

import numpy as np
import pytest

from bernsing import (
    StepWeight,
    TestFunction,
    WeightParams,
    basis_row,
    bbar_apply,
    bbar_second,
    bernstein_apply,
    build_operator,
    fbar,
    fbar_d2,
    knots,
    refined_grid,
    step_weight,
    wbar,
    weighted_sup_norm,
)
from bernsing.harness import ExperimentConfig, corpus, direct_check, inverse_check
from bernsing.harness.checks import (
    MAX_OVER_MIN,
    SLOPE_TOL,
    _window,
    error_field,
    lemma_suite,
    sequence_verdict,
)
from bernsing.harness.cli import run_cli
from bernsing.harness.rates import fit_rate

from oracles import five_point_second, four_sum_values, four_sum_apply

FULL_NS = (64, 128, 256, 512, 1024, 2048, 4096)
XIS = (0.3, 0.5, 0.7)
ALPHAS = (0.5, 1.0, 2.0)


def _report(cid: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {cid} failed: {detail}"


def _bump_inside(k):
    mid = 0.5 * (k.x2 + k.x3)
    rad = 0.45 * (k.x3 - k.x2)

    def b(t):
        u = (np.asarray(t, float) - mid) / rad
        return np.where(np.abs(u) < 1.0, (1.0 - u * u) ** 3, 0.0)

    return b


class TestCriterion1Exactness:
    def test_c1_partition_of_unity(self):
        xs = np.linspace(0.0, 1.0, 1001)
        worst = 0.0
        for n in FULL_NS:
            for x in xs:
                worst = max(worst, abs(basis_row(n, float(x)).sum() - 1.0))
        _report("1-partition", worst <= 1e-12, f"max |sum-1| = {worst:.3e}")

    def test_c1_linear_reproduction_and_splice(self):
        xs = np.linspace(0.0, 1.0, 65)
        worst_bn = worst_bbar = 0.0
        ok_exact = ok_bump = True
        for n in FULL_NS:
            samples = 3.0 * np.arange(n + 1) / n - 1.0
            worst_bn = max(worst_bn, np.max(np.abs(bernstein_apply(samples, xs) - (3.0 * xs - 1.0))))
        for xi in XIS:
            for alpha in ALPHAS:
                params = WeightParams(xi=xi, alpha=alpha)
                aff = corpus("affine", params)
                froot = corpus("inner-root", params)
                for n in FULL_NS:
                    op = build_operator(aff, n, params)
                    worst_bbar = max(
                        worst_bbar,
                        np.max(np.abs(bbar_apply(op, xs) - np.asarray(aff.eval(xs)))),
                    )
                    k = op.knots
                    outer = np.concatenate([
                        np.linspace(0.0, k.x1, 40), np.linspace(k.x4, 1.0, 40)
                    ])
                    ok_exact &= bool(
                        (fbar(froot, k, outer) == np.asarray(froot.eval(outer), float)).all()
                    )
                    bump = _bump_inside(k)
                    bumped = TestFunction(
                        eval=lambda t, f=froot, b=bump: f.eval(t) + b(t), name="bumped"
                    )
                    ok_bump &= bool(
                        np.array_equal(
                            op_samples := build_operator(froot, n, params).fbar_samples,
                            build_operator(bumped, n, params).fbar_samples,
                        )
                    )
        ok = worst_bn <= 1e-11 and worst_bbar <= 1e-11 and ok_exact and ok_bump
        _report(
            "1-exactness",
            ok,
            f"Bn err {worst_bn:.2e}, bridged err {worst_bbar:.2e}, "
            f"splice bit-exact {ok_exact}, bump-independent {ok_bump}",
        )


class TestCriterion2OracleEquivalence:
    def test_c2_four_sum_oracle(self):
        params = WeightParams(xi=0.5, alpha=1.0)
        xs = np.linspace(0.0, 1.0, 1001)
        worst = 0.0
        for name, a0 in (("affine", None), ("quadratic", None), ("smooth-bump", None),
                         ("inner-root", None), ("inner-cusp", None)):
            f = corpus(name, params, a0)
            for n in (64, 100, 256):
                mine = bbar_apply(build_operator(f, n, params), xs)
                o = four_sum_apply(four_sum_values(f, n, params.xi), n, xs)
                rel = np.abs(mine - o) / np.maximum(1.0, np.maximum(np.abs(mine), np.abs(o)))
                worst = max(worst, float(rel.max()))
        _report("2-oracle", worst <= 1e-12, f"max rel disagreement {worst:.3e}")


class TestCriterion3Derivatives:
    def test_c3_operator_second_derivative(self):
        params = WeightParams(xi=0.5, alpha=1.0)
        f = corpus("quadratic", params)
        worst = 0.0
        for n in (64, 256):
            op = build_operator(f, n, params)
            k = op.knots
            probes = np.concatenate([
                np.linspace(0.02, k.x1 - 0.05, 25),
                np.linspace(k.x4 + 0.05, 0.98, 25),
            ])
            for x in probes:
                fd = five_point_second(lambda t: bbar_apply(op, float(t)), float(x), 1e-4)
                exact = bbar_second(op, float(x))
                worst = max(worst, abs(fd - exact) / max(1.0, abs(exact)))
        ok_poly = worst <= 1e-4

        worst_f = 0.0
        for name in ("quadratic", "smooth-bump"):
            g = corpus(name, params)
            k = knots(100, params.xi)
            segs = [(0.0, k.x1), (k.x1, k.x2), (k.x2, k.x3), (k.x3, k.x4), (k.x4, 1.0)]
            for lo, hi in segs:
                probes = lo + (hi - lo) * np.linspace(0.1, 0.9, 50)
                exact = fbar_d2(g, k, probes)
                scale = max(np.max(np.abs(exact)), 1.0)
                for x, e in zip(probes, exact):
                    fd = five_point_second(lambda t: fbar(g, k, float(t)), float(x), 1e-4)
                    worst_f = max(worst_f, abs(fd - e) / scale)
        ok_splice = worst_f <= 1e-4
        _report(
            "3-derivatives",
            ok_poly and ok_splice,
            f"operator d2 rel {worst:.2e}, splice d2 rel {worst_f:.2e}",
        )


class TestCriterion4LemmaSuite:
    def test_c4_default_config_green(self):
        cfg = ExperimentConfig(
            params=WeightParams(xi=0.5, alpha=1.0), sw=StepWeight(0.5, 0.5)
        )
        results = lemma_suite(cfg)
        bad = {k: r.detail for k, r in results.items() if r.verdict != "pass"}
        detail = "; ".join(f"{k}: C={r.constant:.4g}" for k, r in sorted(results.items()))
        _report("4-lemmas", not bad, detail if not bad else str(bad))


class TestCriterion5TruncatedMassDecay:
    def test_c5_decay_slope(self):
        ok = True
        details = []
        for alpha in (1.0, 2.0):
            params = WeightParams(xi=0.5, alpha=alpha)
            x = refined_grid(params).points
            # an_sum at every abscissa, one block pass per degree: the
            # basis mass of the window is B_n of its indicator
            seq = []
            for n in FULL_NS:
                klo, khi = _window(n, params.xi)
                window = np.zeros(n + 1)
                window[klo : khi + 1] = 1.0
                seq.append(float(np.max(wbar(params, x) * bernstein_apply(window, x))))
            slope = fit_rate(list(zip(FULL_NS, seq)), scale_name="n").fitted_slope
            bound = -alpha / 2.0 + 0.1
            ok &= slope <= bound
            details.append(f"alpha={alpha:g}: slope {slope:.3f} <= {bound:.2f}")
        _report("5-decay", ok, "; ".join(details))


@pytest.fixture(scope="module")
def curvature_sequences():
    params = WeightParams(xi=0.5, alpha=1.0)
    sw = StepWeight(0.5, 0.5)
    grid = refined_grid(params)
    x = grid.points
    froot = corpus("inner-root", params)
    fquad = corpus("quadratic", params)
    w = wbar(params, x)
    phi2 = step_weight(sw, x) ** 2
    nw_root = weighted_sup_norm(froot, params, grid)
    nw2_quad = float(np.max(w * phi2 * np.abs(fquad.d2(x))))
    t1, t2a, t2b, t1x = [], [], [], []
    for n in FULL_NS:
        b2r = np.abs(bbar_second(build_operator(froot, n, params), grid.points))
        b2q = np.abs(bbar_second(build_operator(fquad, n, params), grid.points))
        t1.append(float(np.max(w * b2r)) / (n * n * nw_root))
        t2a.append(float(np.max(w * phi2 * b2r)) / (n * nw_root))
        t2b.append(float(np.max(w * phi2 * b2q)) / nw2_quad)
        # lattice samples (-1)^k, so B''_n f_n(0) = 4 n (n-1)
        fcos = TestFunction(
            eval=lambda t, n=n: np.cos(n * np.pi * np.asarray(t, float)), name="cos(n pi x)"
        )
        b2c = np.abs(bbar_second(build_operator(fcos, n, params), grid.points))
        t1x.append(float(np.max(w * b2c)) / (n * n * weighted_sup_norm(fcos, params, grid)))
    return t1, t2a, t2b, t1x


class TestCriterion6CurvatureConstants:
    """Normalized curvature sups over the full degree sweep."""

    @pytest.fixture()
    def setup(self, curvature_sequences):
        return curvature_sequences

    def test_c6a_sup_by_n2_norm(self, setup):
        t1, _, _, t1x = setup
        # n^2 bounds the whole weighted class and is attained per degree,
        # not by a fixed f (README): (a) inner-root does not grow,
        # (b) cos(n pi x) holds the constant, (c) inner-root decays ~ n^(-5/4)
        growth = max(t1) / t1[0]
        sharp_ok, sharp = sequence_verdict(t1x)
        slope = fit_rate(list(zip(FULL_NS, t1)), scale_name="n").fitted_slope
        ok = growth <= MAX_OVER_MIN and sharp_ok and abs(slope + 1.25) <= SLOPE_TOL
        _report(
            "6a-curvature/n^2",
            ok,
            f"inner-root max/first {growth:.2f} <= {MAX_OVER_MIN:g}, "
            f"cos(n pi x) {sharp} (last {t1x[-1]:.3f}), "
            f"inner-root slope {slope:.3f} (target -1.25 +- {SLOPE_TOL:g})",
        )

    def test_c6b_weighted_sup_by_n_norm(self, setup):
        _, t2a, _, _ = setup
        spread = max(t2a) / min(t2a)
        _report("6b-curvature/n", spread <= 4.0, f"max/min {spread:.2f}")

    def test_c6c_weighted_sup_by_d2_norm(self, setup):
        _, _, t2b, _ = setup
        spread = max(t2b) / min(t2b)
        _report("6c-curvature/stiffness", spread <= 4.0, f"max/min {spread:.2f}")


class TestCriterion7DirectTheorem:
    @pytest.mark.parametrize("name", ["quadratic", "inner-root"])
    def test_c7_bounded_ratio(self, name):
        cfg = ExperimentConfig(
            params=WeightParams(xi=0.5, alpha=1.0),
            sw=StepWeight(0.5, 0.5),
            function_name=name,
        )
        rep = direct_check(cfg)
        pos = [r.ratio for r in rep.rows if r.ratio > 0]
        growth = pos[-1] / pos[0] if pos else 0.0
        _report(
            f"7-direct[{name}]",
            rep.verdict == "pass",
            f"ratios last/first {growth:.3f} <= 2, max {rep.max_ratio:.3f}",
        )


class TestCriterion8ExponentEquivalence:
    @pytest.mark.parametrize("a0", [1.0, 1.5])
    def test_c8_slope_and_bounded_error(self, a0):
        cfg = ExperimentConfig(
            params=WeightParams(xi=0.5, alpha=1.0),
            sw=StepWeight(0.5, 0.5),
            function_name="inner-cusp",
            alpha0=a0,
        )
        rep = inverse_check(cfg)
        ok = rep.verdict == "pass" and abs(rep.fitted_slope - a0) <= 0.15 and rep.max_ratio <= 4.0
        _report(
            f"8-inverse[a0={a0:g}]",
            ok,
            f"slope {rep.fitted_slope:.3f} (target {a0:g} +- 0.15), "
            f"error-side spread {rep.max_ratio:.2f} <= 4",
        )


class TestCriterion9Cli:
    BASE = ["--xi", "0.5", "--alpha", "1", "--beta0", "0.5", "--beta1", "0.5"]

    def test_c9_determinism_and_exit_codes(self, tmp_path):
        args = ["rates", *self.BASE, "--function", "inner-root", "--n", "64:512"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        code0 = run_cli(args + ["--out", str(a)])
        code0b = run_cli(args + ["--out", str(b)])
        identical = a.read_bytes() == b.read_bytes()
        code2 = run_cli(["rates", "--alpha", "1"])  # missing --xi
        # a genuinely failing check: over two decades of n the bridge
        # error ratio decays past the 4x flatness gate, so the suite
        # reports lemma7/lemma8 as failed
        code1 = run_cli(
            ["lemmas", *self.BASE, "--n", "64:4096", "--grid", "513",
             "--out", str(tmp_path / "l.csv")]
        )
        ok = code0 == 0 and code0b == 0 and identical and code2 == 2 and code1 == 1
        _report(
            "9-cli",
            ok,
            f"exit0={code0},{code0b} identical={identical} exit2={code2} exit1={code1}",
        )


class TestCriterion10BridgeAblation:
    # n = 1024 and xi = 1/2 + d/n, so the lattice point k = 512 lies d/n from
    # the singularity.  The classical operator samples f(k/n) there, and its
    # weighted error grows like d^(-alpha/2); the bridged operator never
    # samples inside the bridge, so its error does not depend on d.  At
    # xi = 0.3 the classical error is the smaller one, so no gate here
    # claims that the bridge always wins
    N = 1024
    DS = (0.5, 0.01, 1e-4)

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_c10_bridge_ablation(self, alpha):
        n = self.N
        bridged, classical = [], []
        for d in self.DS:
            params = WeightParams(xi=0.5 + d / n, alpha=alpha)
            grid = refined_grid(params)
            x = grid.points
            f = corpus("inner-root", params)
            bridged.append(float(error_field(f, n, params, grid).max()))
            b = bernstein_apply(f.eval(np.arange(n + 1) / n), x)
            classical.append(float(np.max(wbar(params, x) * np.abs(f.eval(x) - b))))
        spread = max(bridged) / min(bridged)
        slope = math.log(classical[2] / classical[1]) / math.log(self.DS[2] / self.DS[1])
        _report(
            f"10-bridge-ablation[alpha={alpha:g}]",
            spread <= 1.01 and abs(slope + alpha / 2) <= SLOPE_TOL,
            f"bridged spread over d {spread:.4f} <= 1.01, classical slope in d {slope:.3f} "
            f"(target {-alpha / 2:g} +- {SLOPE_TOL:g})",
        )
