import json
import math
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest

from bernsing import (
    Degenerate,
    MissingExponent,
    StepWeight,
    WeightParams,
    basis,
    bernstein_apply,
    build_operator,
    quadrature_bound_ratio,
    refined_grid,
    varphi,
    wbar,
    weighted_sup_norm,
)
from bernsing.basis import _blocks
from bernsing.harness import (
    ExperimentConfig,
    corpus,
    direct_check,
    error_decay,
    error_field,
    fit_rate,
    inverse_check,
    kendall_tau,
    lemma_suite,
    operator_dump,
    sequence_verdict,
)
from bernsing.harness import checks
from bernsing.harness.rates import (
    LemmaResult,
    lemma_results_to_csv,
    report_to_csv,
    report_to_json,
)

from oracles import (
    an_sum,
    central_moment_sum,
    four_sum_operator,
    inverse_moment_sum,
    lemma6_sum,
    naive_basis,
)


def _cfg(params, sw, **kw):
    return ExperimentConfig(params=params, sw=sw, **kw)


class TestCorpus:
    def test_affine_values(self, params):
        f = corpus("affine", params)
        a, b = 0.75, 0.2
        assert float(f.eval(0.3)) == pytest.approx(a * 0.3 + b, rel=1e-15)

    def test_quadratic_d2(self, params):
        f = corpus("quadratic", params)
        assert (np.asarray(f.d2(np.linspace(0, 1, 11))) == 2.0).all()

    def test_inner_root_weighted_decay(self, params):
        f = corpus("inner-root", params)
        xs = 0.5 + np.geomspace(1e-8, 1e-2, 13)
        ds = xs - 0.5  # distances as the evaluations actually see them
        vals = wbar(params, xs) * np.asarray(f.eval(xs))
        np.testing.assert_allclose(vals, ds**0.5, rtol=1e-12)
        assert vals[0] < 1e-3  # weighted value really decays at xi
        assert f.alpha0 == 0.5

    def test_inner_cusp_metadata(self, params):
        f = corpus("inner-cusp", params)
        assert f.alpha0 == 1.0
        g = corpus("inner-cusp", params, 1.5)
        assert g.alpha0 == 1.5
        assert not g.in_w2phi
        # odd around xi, weighted value decays like |d|^alpha0
        d = 1e-4
        assert float(g.eval(0.5 + d)) == pytest.approx(-float(g.eval(0.5 - d)), rel=1e-12)

    @pytest.mark.parametrize("a0", [0.0, 2.0, math.nan])
    def test_inner_cusp_alpha0_out_of_range(self, params, a0):
        with pytest.raises(ValueError, match="alpha0"):
            corpus("inner-cusp", params, a0)

    def test_unknown_name(self, params):
        with pytest.raises(ValueError):
            corpus("sawtooth", params)

    def test_alpha0_rejected_elsewhere(self, params):
        with pytest.raises(ValueError):
            corpus("quadratic", params, 1.0)


class TestWindowSums:
    def test_vanishes_at_xi(self, params):
        assert an_sum(100, params, 0.5) == 0.0
        assert lemma6_sum(100, params, 1.0, 0.5) == 0.0

    def test_direct_summation_oracle(self, params):
        n = 100
        lo = math.ceil(n * 0.5 - 10.0)
        hi = math.floor(n * 0.5 + 10.0)
        for x in (0.5 + 3.0 / 10.0, 0.35, 0.62):
            brute = wbar(params, x) * sum(naive_basis(n, k, x) for k in range(lo, hi + 1))
            assert an_sum(n, params, x) == pytest.approx(brute, rel=1e-12)
            brute6 = wbar(params, x) * sum(
                abs(k - n * x) * naive_basis(n, k, x) for k in range(lo, hi + 1)
            )
            assert lemma6_sum(n, params, 1.0, x) == pytest.approx(brute6, rel=1e-12)

    def test_beta_zero_reduces_to_mass_sum(self, params, rng):
        for x in rng.uniform(0.05, 0.95, 8):
            a = lemma6_sum(64, params, 0.0, float(x))
            b = an_sum(64, params, float(x))
            assert a == pytest.approx(b, rel=1e-14)

    def test_non_finite_beta_rejected(self, params):
        # NaN used to come back as the sum, and inf as inf
        for beta in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                lemma6_sum(64, params, beta, 0.3)

    def test_invalid_degree_rejected(self, params):
        # 64.5 used to raise a slice TypeError, -4 a math domain error
        for n in (64.5, -4, 0):
            with pytest.raises(ValueError, match="degree"):
                an_sum(n, params, 0.3)
            with pytest.raises(ValueError, match="degree"):
                lemma6_sum(n, params, 1.0, 0.3)


class TestErrorField:
    def test_affine_zero(self, params, light_grid):
        f = corpus("affine", params)
        field = error_field(f, 64, params, light_grid)
        assert field.max() <= 1e-11

    def test_non_negative(self, params, light_grid):
        f = corpus("inner-root", params)
        assert (error_field(f, 64, params, light_grid) >= 0.0).all()

    def test_matches_four_sum_oracle_pointwise(self, params, light_grid):
        f = corpus("quadratic", params)
        n = 64
        field = error_field(f, n, params, light_grid)
        x = light_grid.points
        i = int(np.argmin(np.abs(x - 0.9)))
        oracle = wbar(params, x[i]) * abs(
            float(f.eval(x[i])) - four_sum_operator(f, n, params.xi, float(x[i]))
        )
        assert field[i] == pytest.approx(oracle, rel=1e-10, abs=1e-15)


class TestFitRate:
    def test_exact_power_law(self):
        scales = [2.0**-k for k in range(3, 10)]
        pairs = [(s, 3.7 * s**1.25) for s in scales]
        rep = fit_rate(pairs, scale_name="t")
        assert rep.fitted_slope == pytest.approx(1.25, abs=1e-10)
        assert rep.slope_stderr == pytest.approx(0.0, abs=1e-10)
        assert rep.scale_name == "t"
        for row in rep.rows:
            assert row.ratio == pytest.approx(1.0, rel=1e-10)

    def test_noisy_power_law(self, rng):
        scales = np.geomspace(1e-3, 1e-1, 12)
        vals = 0.8 * scales**-0.75 * (1.0 + 0.01 * rng.standard_normal(12))
        rep = fit_rate(list(zip(scales, vals)))
        assert abs(rep.fitted_slope - (-0.75)) <= 0.05

    def test_too_few_pairs(self):
        with pytest.raises(ValueError):
            fit_rate([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            fit_rate([(1.0, 1.0), (2.0, 0.0), (3.0, 3.0), (4.0, 4.0)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        # NaN used to pass the positivity check and give slope NaN, inf
        # the same with a RuntimeWarning
        with pytest.raises(ValueError, match="finite"):
            fit_rate([(1.0, 1.0), (2.0, bad), (4.0, 3.0), (8.0, 4.0)])
        with pytest.raises(ValueError, match="finite"):
            fit_rate([(1.0, 1.0), (bad, 2.0), (4.0, 3.0), (8.0, 4.0)])

    def test_scales_that_do_not_spread_rejected(self):
        # one scale made the slope 0 / 0: NaN with a RuntimeWarning
        with pytest.raises(ValueError, match="two distinct scales"):
            fit_rate([(2.0, 1.0), (2.0, 2.0), (2.0, 3.0), (2.0, 4.0)])

    def test_fit_reports_an_infinite_value_without_a_slope(self):
        # a ratio that overflows gets the no-slope report, not a fit error
        rep = checks._fit((64, 128, 256, 512), [1.0, math.inf, 3.0, 4.0])
        assert rep.fitted_slope is None
        assert [r.measured for r in rep.rows] == [1.0, math.inf, 3.0, 4.0]


class TestSequenceRules:
    def test_kendall_tau(self):
        assert kendall_tau([1, 2, 3, 4]) == 1.0
        assert kendall_tau([4, 3, 2, 1]) == -1.0
        assert abs(kendall_tau([1, 3, 2, 4])) < 1.0

    def test_verdicts(self):
        ok, _ = sequence_verdict([1.0, 1.1, 0.9, 1.05])
        assert ok
        ok, _ = sequence_verdict([1.0, 2.0, 4.5, 9.0])  # spread > 4
        assert not ok
        ok, _ = sequence_verdict([1.0, 1.4, 1.9, 2.6])  # monotone growth
        assert not ok
        ok, _ = sequence_verdict([1.0, 1.01, 1.02, 1.03])  # immaterial drift
        assert ok
        ok, _ = sequence_verdict([1.0, math.inf, 1.0])
        assert not ok

    def test_monotone_in_tolerance(self, rng, monkeypatch):
        # loosening the spread gate never flips pass into fail
        for _ in range(30):
            seq = np.exp(rng.standard_normal(6))
            prev = False
            for gate in (1.5, 2.0, 4.0, 8.0, 100.0):
                monkeypatch.setattr(checks, "MAX_OVER_MIN", gate)
                ok, _ = sequence_verdict(seq)
                assert ok or not prev
                prev = ok


class TestLemmaSuite:
    def test_default_config_green(self, params, sw):
        results = lemma_suite(_cfg(params, sw))
        for key, r in results.items():
            assert r.verdict == "pass", f"{key}: {r.detail}"
        assert set(results) == {f"lemma{i}" for i in range(1, 9)}

    def test_skips_without_admissible_step_weight(self, params):
        results = lemma_suite(_cfg(params, StepWeight(0.0, 0.5)))
        assert results["lemma3"].verdict == "skip"
        assert results["lemma7"].verdict == "skip"
        assert results["lemma8"].verdict == "skip"
        assert "violated" in results["lemma3"].detail
        for key in ("lemma1", "lemma2", "lemma4", "lemma5", "lemma6"):
            assert results[key].verdict == "pass"

    def test_constants_reported_finite(self, params, sw):
        results = lemma_suite(_cfg(params, sw, n_values=(64, 128, 256, 512)))
        for r in results.values():
            if r.verdict == "pass":
                assert r.constant is not None and math.isfinite(r.constant)


class _Rows:
    """A sweep chunk budget of `rows` rows at every degree."""

    def __init__(self, rows):
        self.rows = rows

    def __floordiv__(self, width):
        return self.rows


class TestLemmaSweepsMatchScalarSums:
    PARAMS = WeightParams(xi=0.47, alpha=0.7)

    def _cfg(self, sw):
        return _cfg(self.PARAMS, sw, n_values=(64, 128, 256, 512), grid_density=513)

    @pytest.fixture(scope="class")
    def scalar(self, sw):
        """The scalar sums' expectations: per lemma 1, 4 and 6 the worst
        ratio and the verdict notes, one sequence per value over the grid
        points in [0.1, 0.9]; lemma 5's grid max per degree; and the
        _blocks calls they took with the number of (n, x) rows.  Every sum
        of one (n, x) runs before the next, on the oracles' kept row."""
        cfg, params, a = self._cfg(sw), self.PARAMS, self.PARAMS.alpha
        lemmas = {
            "lemma1": (lambda n, uv, t: inverse_moment_sum(n, *uv, t)
                       / (t ** -uv[0] * (1.0 - t) ** -uv[1]),
                       ((0.5, 0.0), (1.0, 0.0), (1.0, 1.0))),
            "lemma4": (lambda n, g, t: central_moment_sum(n, g, t)
                       / (n ** (g / 2) * varphi(t) ** g), (1.0, 2.0, 3.0)),
            "lemma6": (lambda n, b, t: lemma6_sum(n, params, b, t)
                       / (n ** ((b - a) / 2.0) * varphi(t) ** b), (1.0, 2.0)),
        }
        seqs = {key: [[] for _ in values] for key, (_, values) in lemmas.items()}
        seq5, calls, blocks = [], [], basis._blocks

        def counting(n, *args):
            calls.append(n)
            return blocks(n, *args)

        x = cfg.make_grid().points.tolist()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(basis, "_blocks", counting)
            for n in cfg.n_values:
                mass, ratios = [], {key: [] for key in lemmas}
                for t in x:
                    mass.append(an_sum(n, params, t))
                    if 0.1 <= t <= 0.9:
                        for key, (ratio, values) in lemmas.items():
                            ratios[key].append([ratio(n, v, t) for v in values])
                seq5.append(max(mass))
                for key, r in ratios.items():
                    for seq, col in zip(seqs[key], zip(*r)):
                        seq.append(max(col))
        expect = {key: (max(map(max, ss)), [sequence_verdict(s)[1] for s in ss])
                  for key, ss in seqs.items()}
        return expect, seq5, len(calls), len(cfg.n_values) * len(x)

    @staticmethod
    def _check(results, cases):
        for key, (worst, notes) in cases.items():
            assert results[key].constant == worst, key
            assert [d.split(" ", 1)[1] for d in results[key].detail.split("; ")] == notes

    def test_scalar_sums_build_each_row_once(self, scalar):
        # lemmas 1, 4, 5 and 6 read each (n, x) row through 9 scalar sums
        # (an_sum alone outside [0.1, 0.9]); the oracles slice one kept
        # whole row, so no row is built twice
        *_, calls, rows = scalar
        assert calls <= rows

    def test_bit_identical(self, sw, scalar):
        # lemmas 1, 2, 4, 5 and 6 evaluate one basis block per degree;
        # the scalar sums, one abscissa at a time, and the operator
        # applied to the whole grid must give the same bits
        params, cfg = self.PARAMS, self._cfg(sw)
        grid = cfg.make_grid()
        results = lemma_suite(cfg)
        expect, seq5, *_ = scalar
        self._check(results, expect)
        slope = fit_rate(list(zip(cfg.n_values, seq5)), scale_name="n").fitted_slope
        assert results["lemma5"].constant == slope
        # lemma 2's max sits at x = 1 for inner-root, inside (0, 1) for
        # smooth-bump.  Lemma 2 sums each block row on its own with
        # np.vecdot: the row dots of one full-width block over the whole
        # grid, in no chunks, give its bits, and the operator sum, which
        # adds in another order, agrees to 1e-13 relative
        x, w = grid.points, wbar(params, grid.points)
        suites = {cfg.function_name: results,
                  "smooth-bump": lemma_suite(replace(cfg, function_name="smooth-bump"))}
        for name, res in suites.items():
            f = corpus(name, params)
            nwf = weighted_sup_norm(f, params, grid)
            seq2, applied = [], []
            for n in cfg.n_values:
                op = build_operator(f, n, params)
                block = _blocks(n, x, basis._ROW_EXPONENT, np.empty((x.size, n + 1)))
                seq2.append(float(np.max(w * np.abs(np.vecdot(block, op)) / nwf)))
                applied.append(float(np.max(w * np.abs(bernstein_apply(op, grid.points)))) / nwf)
            assert res["lemma2"].constant == max(seq2), name
            assert res["lemma2"].constant == pytest.approx(max(applied), rel=1e-13, abs=0.0), name
            assert res["lemma2"].detail == f"{name}: {sequence_verdict(seq2)[1]}"

    def test_any_row_group_gives_the_scalar_sums(self, sw, scalar, monkeypatch):
        # lemmas 4 and 6 read one |k - n x| table per sweep chunk: chunks
        # of 1 and 7 rows, and one chunk per degree, must all give the
        # bits of the scalar sums
        cfg = self._cfg(sw)
        cases = {key: scalar[0][key] for key in ("lemma4", "lemma6")}
        for budget in (_Rows(1), _Rows(7), 10**9):
            monkeypatch.setattr(checks, "_BLOCK_VALUES", budget)
            self._check(lemma_suite(cfg), cases)


class TestScalarPow:
    def test_matches_the_scalar_calls(self):
        # the lemma sweep raises whole arrays of bases to a power with
        # checks._pow; every value must equal the scalar call it stands
        # for, bit for bit, where numpy's array pow may round otherwise.
        # Each xi of the 41 takes the next exponent of each cycle.
        alphas = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
        gammas = (1.0, 2.0, 3.0)
        uvs = ((0.5, 0.0), (1.0, 0.0), (1.0, 1.0))
        for i, xi in enumerate(np.linspace(0.3, 0.7, 41).tolist()):
            p = WeightParams(xi=xi, alpha=alphas[i % 6])
            x = refined_grid(p).points
            xs = x[(x >= 0.1) & (x <= 0.9)]
            g, (u, v) = gammas[i % 3], uvs[i % 3]
            cases = {
                "wbar": (checks._pow(np.abs(x - xi), p.alpha),
                         [wbar(p, float(t)) for t in x]),
                "varphi^g": (checks._pow(varphi(xs), g),
                             [varphi(float(t)) ** g for t in xs]),
                "inverse weight": (checks._pow(xs, -u) * checks._pow(1.0 - xs, -v),
                                   [t**-u * (1.0 - t) ** -v for t in xs]),
            }
            for name, (got, want) in cases.items():
                diff = got.view(np.uint64) != np.array(want).view(np.uint64)
                assert not diff.any(), (name, xi, int(diff.sum()))


class TestLemmaSuiteOneSweep:
    def test_one_basis_pass_per_degree(self, params, sw, monkeypatch):
        # every basis evaluation of the suite, whichever module reaches
        # the kernel through, is one pass per degree, in degree order:
        # that degree's chunks cover every abscissa of the grid once
        calls = []

        def counting(n, x, *args):
            calls.append((n, x.copy()))
            return _blocks(n, x, *args)

        monkeypatch.setattr(basis, "_blocks", counting)
        monkeypatch.setattr(checks, "_blocks", counting)
        cfg = _cfg(params, sw, n_values=(64, 128, 256, 512), grid_density=513)
        lemma_suite(cfg)
        degrees = [n for n, _ in calls]
        assert sorted(set(degrees)) == list(cfg.n_values)
        assert degrees == sorted(degrees)
        x = cfg.make_grid().points
        for n in cfg.n_values:
            covered = np.concatenate([t for m, t in calls if m == n])
            assert covered.tobytes() == x.tobytes(), n

    def test_peak_memory_is_one_block_buffer(self, params, sw):
        # the default sweep writes every degree's chunks into one buffer
        # of _BLOCK_VALUES float64 values (256 KiB): measured peak 2.2 MiB
        # with the grid, the tables and a chunk's longdouble buffers.
        # Chunks of 10^6 values peak at 9.5 MiB, and a buffer per degree
        # or per chunk is still alive when the next one is allocated
        tracemalloc.start()
        try:
            lemma_suite(ExperimentConfig(params=params, sw=sw))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20, peak

    @pytest.mark.parametrize("rows", [1, 7])
    def test_any_chunk_gives_the_same_bits(self, params, sw, rows, monkeypatch):
        # lemmas 1, 2, 4, 5 and 6 read each block row on its own, so
        # chunks of 1 and 7 rows keep their bits
        cfg = _cfg(params, sw, n_values=(64, 128, 256, 512), grid_density=513)
        want = lemma_suite(cfg)
        monkeypatch.setattr(checks, "_BLOCK_VALUES", _Rows(rows))
        got = lemma_suite(cfg)
        for key in ("lemma1", "lemma2", "lemma4", "lemma5", "lemma6"):
            assert got[key].constant.hex() == want[key].constant.hex(), key
            assert got[key] == want[key], key


class TestSweepBandOffCentre:
    @pytest.mark.parametrize("xi, alpha, name, alpha0", [
        (0.35, 2.0, "smooth-bump", None),
        (0.61, 0.5, "inner-cusp", 1.5),
    ])
    def test_equals_full_width_blocks(self, sw, xi, alpha, name, alpha0, monkeypatch):
        # the default sweep off the centre, on the band at _SWEEP_EXPONENT,
        # gives the results of blocks that hold every entry a row keeps
        # (basis._ROW_EXPONENT), result for result
        cfg = _cfg(WeightParams(xi=xi, alpha=alpha), sw, function_name=name, alpha0=alpha0)
        got = lemma_suite(cfg)
        monkeypatch.setattr(checks, "_SWEEP_EXPONENT", basis._ROW_EXPONENT)
        want = lemma_suite(cfg)
        assert list(got) == list(want)
        for key in want:
            assert got[key] == want[key], key


class TestLemma5:
    def test_zero_mass_is_not_a_skip(self, params):
        # wbar underflows the window mass to 0.0 at a large alpha (500 at
        # n = 1024); that is no missing degree, and fit_rate rejects it
        cfg = _cfg(params, StepWeight(0.5, 0.5), n_values=(64, 128, 256, 512))
        with pytest.raises(ValueError, match="positive") as e:
            checks._lemma5(cfg, [1e-3, 1e-4, 0.0, 1e-6])
        assert str(e.value).startswith("lemma 5: the weighted window mass is 0.0 at n=256, alpha=1;")

    def test_too_few_degrees_skip(self, params, sw):
        got = checks._lemma5(_cfg(params, sw, n_values=(64, 128, 256)), [1e-3, 0.0, 1e-5])
        assert (got.verdict, got.constant) == ("skip", None)


class TestDirectCheck:
    def test_affine_all_zero_passes(self, params, sw):
        rep = direct_check(_cfg(params, sw, function_name="affine", n_values=(64, 128, 256)))
        assert rep.verdict == "pass"
        assert all(r.ratio == 0.0 for r in rep.rows)

    def test_quadratic_bounded(self, params, sw):
        rep = direct_check(_cfg(params, sw, function_name="quadratic"))
        assert rep.verdict == "pass"
        pos = [r.ratio for r in rep.rows if r.ratio > 0]
        assert pos[-1] / pos[0] <= 2.0

    def test_requires_admissible_weight(self, params):
        with pytest.raises(ValueError):
            direct_check(_cfg(params, StepWeight(0.3, 0.5)))


class TestInverseCheck:
    def test_missing_exponent(self, params, sw):
        with pytest.raises(MissingExponent):
            inverse_check(_cfg(params, sw, function_name="affine"))

    def test_cusp_recovers_exponent(self, params, sw):
        rep = inverse_check(
            _cfg(params, sw, function_name="inner-cusp", alpha0=1.0,
                 n_values=(64, 128, 256, 512))
        )
        assert rep.verdict == "pass"
        assert 0.85 <= rep.fitted_slope <= 1.15
        assert rep.max_ratio <= 4.0

    def test_synthetic_exponent_15(self, params, sw):
        rep = inverse_check(
            _cfg(params, sw, function_name="inner-cusp", alpha0=1.5,
                 n_values=(64, 128, 256, 512))
        )
        assert rep.verdict == "pass"
        assert 1.35 <= rep.fitted_slope <= 1.65


class TestErrorDecay:
    def test_inner_root_rate(self, params, sw):
        rep = error_decay(_cfg(params, sw, n_values=(64, 128, 256, 512)))
        assert rep.verdict == "pass"
        # weighted error decays like n^(-alpha0/2) = n^(-1/4)
        assert -0.4 <= rep.fitted_slope <= -0.1

    def test_quadratic_rate(self, params, sw):
        # sup error is dominated by the bridge zone: wbar ~ n^(-1/2)
        # against a chord error ~ n^(-1) gives n^(-3/2)
        rep = error_decay(
            _cfg(params, sw, function_name="quadratic", n_values=(64, 128, 256, 512))
        )
        assert -1.7 <= rep.fitted_slope <= -1.2

    def test_nine_degrees_build_the_abscissa_tables_once(self, params, sw, grid, monkeypatch):
        # every degree's operator sum reads one set of tables of the
        # refined grid's 2,268 distinct min(x, 1 - x), built in one block
        sizes = []

        def counted(t, _build=basis._abscissae):
            sizes.append(t.size)
            return _build(t)

        monkeypatch.setattr(basis, "_abscissae", counted)
        n_values = tuple(64 << i for i in range(9))
        rep = error_decay(_cfg(params, sw, function_name="inner-root", n_values=n_values))
        assert len(rep.rows) == 9
        inner = grid.points[(grid.points > 0.0) & (grid.points < 1.0)]
        assert sizes == [np.unique(np.minimum(inner, 1.0 - inner)).size]


class TestOperatorDump:
    def test_structure(self, params, sw):
        cfg = _cfg(params, sw, n_values=(64, 128))
        dump = operator_dump(cfg)
        assert dump["n"] == 128
        assert len(dump["samples"]) == 129
        k = dump["knots"]
        assert 0.0 < k["x1"] < k["x2"] < 0.5 < k["x3"] < k["x4"] < 1.0


class TestReportSerialization:
    def test_csv_shape_and_determinism(self):
        pairs = [(2.0**k, 3.0 * 2.0 ** (-0.5 * k)) for k in range(6, 11)]
        rep = fit_rate(pairs, scale_name="n")
        text1 = report_to_csv(rep)
        text2 = report_to_csv(rep)
        assert text1 == text2
        lines = text1.split("\n")
        assert lines[0] == "n,measured,reference,ratio"
        assert len(lines) == len(pairs) + 2 and lines[-1] == ""
        # 17 significant digits round-trip exactly
        val = float(lines[1].split(",")[1])
        assert val == pairs[0][1]

    def test_json_mirrors_fields(self, params, sw):
        pairs = [(2.0**k, 2.0**-k) for k in range(4, 9)]
        rep = fit_rate(pairs, scale_name="n")
        payload = json.loads(report_to_json(rep))
        assert set(payload) == {
            "scale_name", "rows", "fitted_slope", "slope_stderr",
            "residuals", "max_ratio", "verdict", "tolerance",
        }
        assert payload["rows"][0]["scale"] == 16.0
        # a lemma table and an operator dump go through the same writer
        lemmas = {
            "lemma1": LemmaResult("lemma1", "pass", 1.25, "ok"),
            "lemma3": LemmaResult("lemma3", "skip", None, "hypothesis violated"),
        }
        dump = operator_dump(_cfg(params, sw, n_values=(64,)))
        for result, fields in ((lemmas, {k: asdict(r) for k, r in lemmas.items()}),
                               (dump, dump)):
            text = report_to_json(result)
            assert json.loads(text) == fields
            assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"

    def test_lemma_csv(self):
        res = {
            "lemma1": LemmaResult("lemma1", "pass", 1.25, "ok"),
            "lemma3": LemmaResult("lemma3", "skip", None, "hypothesis violated"),
        }
        text = lemma_results_to_csv(res)
        lines = text.split("\n")
        assert lines[0] == "lemma,verdict,constant,detail"
        assert lines[1].startswith("lemma1,pass,1.25")
        assert lines[2].startswith("lemma3,skip,,")


class TestExperimentConfigValidation:
    def test_rejects_unusable_degree(self, params, sw):
        with pytest.raises(Exception):
            _cfg(params, sw, n_values=(16, 64))

    def test_rejects_unknown_function(self, params, sw):
        with pytest.raises(ValueError):
            _cfg(params, sw, function_name="nope")

    def test_rejects_bad_t(self, params, sw):
        with pytest.raises(ValueError):
            _cfg(params, sw, t_values=(0.5,))

    def test_rejects_non_finite_t(self, params, sw):
        # NaN passes every <= test and used to be accepted
        for bad in ((math.nan,), (0.0625, math.nan), (math.inf,)):
            with pytest.raises(ValueError, match="t_values"):
                _cfg(params, sw, t_values=bad)


class TestMirror:
    """x -> 1 - x, xi -> 1 - xi and beta0 <-> beta1 leave every quantity
    here invariant in exact arithmetic; in floating point they agree to
    the stated ulps.  Every abscissa is one whose mirror is exact."""

    XI = (0.47, 0.53)

    @pytest.fixture(scope="class")
    def suites(self):
        sw = StepWeight(0.5, 0.5)
        return [lemma_suite(_cfg(WeightParams(xi=xi, alpha=1.0), sw)) for xi in self.XI]

    def test_bernstein_apply(self):
        # within 2 ulps of the largest sample; the sums differ only at
        # x = 1/2 (x > 1/2 is summed as 1 - x), by at most 0.16 ulp of 1
        rng = np.random.default_rng(20)
        upper = rng.uniform(0.5, 1.0, 200)
        x = np.concatenate([np.arange(4097) / 4096, upper, 1.0 - upper])
        for n in (64, 1024, 16384):
            k = np.arange(n + 1)
            for s in (np.cos(0.37 * k), np.sqrt(np.abs(k / n - 0.5))):
                diff = np.abs(bernstein_apply(s[::-1].copy(), 1.0 - x) - bernstein_apply(s, x))
                assert diff.max() <= 2 * np.spacing(np.abs(s).max()), n

    def test_quadrature_bound_ratio(self):
        # within 16 ulps: 2 at most at these points, 8 over 37 evenly
        # spaced x per t
        rng = np.random.default_rng(20)
        for b0, b1 in ((0.5, 0.5), (1.0, 1.0), (0.5, 1.0), (2.0, 0.5), (0.25, 0.75)):
            for t in (0.125, 0.0625, 0.03125, 0.1):
                for upper in rng.uniform(0.5, 1.0 - t, 6):
                    for x in (upper, 1.0 - upper):
                        got = quadrature_bound_ratio(StepWeight(b0, b1), t, x)
                        want = quadrature_bound_ratio(StepWeight(b1, b0), t, 1.0 - x)
                        assert abs(got - want) <= 16 * np.spacing(want), (b0, b1, t, x)

    @pytest.mark.parametrize("name", ["lemma3", "lemma4", "lemma5", "lemma6"])
    def test_lemma_constants(self, suites, name):
        # within 4 ulps (measured 0: the constants are bit-identical)
        got, want = (s[name].constant for s in suites)
        assert abs(got - want) <= 4 * np.spacing(abs(want)), (got, want)

    @pytest.mark.xfail(strict=True, reason="knots rounds all four knots down, so the operator "
                       "at 1 - xi is not the mirror of the one at xi (measured at xi = 0.47 "
                       "and 0.53: lemma 7 2.274 against 2.518, lemma 8 7.195 against 7.539)")
    @pytest.mark.parametrize("name", ["lemma7", "lemma8"])
    def test_knot_asymmetry(self, suites, name):
        got, want = (s[name].constant for s in suites)
        assert abs(got - want) <= 4 * np.spacing(abs(want)), (got, want)
