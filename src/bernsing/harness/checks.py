"""Lemma and theorem verification sweeps.

Every inequality with an unspecified constant is operationalised as a
bounded-ratio sweep: the measured quantity is divided by its claimed
bound, the resulting sequence over the degree sweep must stay within a
factor 4 of itself and show no monotone growth trend (Kendall tau of
ratio against n at most 0.5).  Decay statements are checked as fitted
log-log slopes.
"""
from __future__ import annotations

import math

import numpy as np

from ..basis import _blocks, _check_degree, _inverse_weights, _row
from ..blending import TestFunction, _evaluate, bridge_p, fbar_d2, knots
from ..exceptions import Degenerate, MissingExponent
from ..moduli import T_MAX, ModulusConfig, quadrature_bound_ratio, modulus_curve
from ..operator import bbar_apply, build_operator
from ..weights import (
    EvalGrid,
    WeightParams,
    delta_n,
    step_weight,
    varphi,
    wbar,
    weighted_sup_norm,
)
from .config import ExperimentConfig
from .corpus import corpus
from .rates import LemmaResult, RateReport, RateRow, fit_rate

__all__ = [
    "kendall_tau",
    "sequence_verdict",
    "an_sum",
    "lemma6_sum",
    "error_field",
    "direct_check",
    "inverse_check",
    "lemma_suite",
    "error_decay",
    "operator_dump",
]

MAX_OVER_MIN = 4.0
TAU_LIMIT = 0.5
# A monotone trend only counts as growth when it accumulates materially;
# without the slack a convergent-from-below sequence with a 1% drift
# would trip the Kendall rule on three points.
TREND_SLACK = 1.25
SLOPE_TOL = 0.15
DIRECT_GROWTH = 2.0


def kendall_tau(values) -> float:
    """Kendall tau of the sequence against its index (ties count zero)."""
    v = list(values)
    m = len(v)
    if m < 2:
        return 0.0
    conc = 0
    for i in range(m):
        for j in range(i + 1, m):
            if v[j] > v[i]:
                conc += 1
            elif v[j] < v[i]:
                conc -= 1
    return conc / (m * (m - 1) / 2)


def sequence_verdict(ratios, max_over_min: float = MAX_OVER_MIN,
                     tau_limit: float = TAU_LIMIT) -> tuple[bool, str]:
    """Pass rule for a bounded-constant sweep: spread within a factor
    max_over_min, and no monotone growth trend (Kendall tau above
    tau_limit with more than TREND_SLACK accumulated growth)."""
    r = np.asarray(ratios, dtype=float)
    if not np.isfinite(r).all() or (r <= 0).any():
        return False, "non-finite or non-positive ratio"
    spread = float(r.max() / r.min())
    tau = kendall_tau(r)
    ok = spread <= max_over_min and not (tau > tau_limit and spread > TREND_SLACK)
    return ok, f"max/min={spread:.3g} tau={tau:.2f}"


def _window(n: int, xi: float) -> tuple[int, int]:
    """Indices within sqrt(n) of n*xi (never empty: the span is 2 sqrt(n) >= 2)."""
    s = math.sqrt(n)
    return max(0, math.ceil(n * xi - s)), min(n, math.floor(n * xi + s))


def an_sum(n: int, params: WeightParams, x: float) -> float:
    """wbar(x) times the basis mass of the indices within sqrt(n) of
    n*xi (the samples the bridge replaces)."""
    n = _check_degree(n, 1)
    klo, khi = _window(n, params.xi)
    return wbar(params, x) * float(_row(n, x, klo, khi).sum())


def lemma6_sum(n: int, params: WeightParams, beta: float, x: float) -> float:
    """wbar(x) * sum over the same index window of |k - n x|^beta p_{n,k}(x)."""
    n = _check_degree(n, 1)
    if not math.isfinite(beta) or beta < 0:
        raise ValueError(f"beta must be finite and non-negative, got {beta!r}")
    klo, khi = _window(n, params.xi)
    d = np.abs(np.arange(klo, khi + 1, dtype=float) - n * x)
    return wbar(params, x) * float(np.dot(_row(n, x, klo, khi), d**beta))


def error_field(f: TestFunction, n: int, params: WeightParams, grid: EvalGrid) -> np.ndarray:
    """Pointwise weighted error wbar * |f - operator(f)| on the grid."""
    x = grid.points
    b = bbar_apply(build_operator(f, n, params), x)
    return _evaluate(f, f"in the error field of degree {n}",
                     lambda: wbar(params, x) * np.abs(f.eval(x) - b))


def _scale_field(n: int, sw, x: np.ndarray) -> np.ndarray:
    """Per-x comparison scale delta_n(x) / (sqrt(n) phi(x))."""
    phi = np.maximum(step_weight(sw, x), 1e-300)
    return delta_n(n, x) / (math.sqrt(n) * phi)


# the modulus table behind direct_check: ladder length and scale count
_TABLE_H_STEPS = 12
_TABLE_T_POINTS = 24


def _tabulated_modulus(f, params, sw, grid, scales):
    """Monotone log-log interpolant of the modulus curve covering the
    given scales (clipped into (0, T_MAX])."""
    lo = max(min(float(s.min()) for s in scales) * 0.999, 1e-8)
    lo = min(lo, T_MAX)
    # every scale clipped to T_MAX leaves a one-point table
    tt = np.unique(np.geomspace(lo, T_MAX, _TABLE_T_POINTS))
    cfg = ModulusConfig(x_grid=grid, t_values=tuple(tt), h_steps=_TABLE_H_STEPS)
    curve = modulus_curve(f, params, sw, cfg)
    lt = np.log(tt)
    lc = np.log(np.maximum(curve, 1e-300))

    def lookup(s: np.ndarray) -> np.ndarray:
        return np.exp(np.interp(np.log(np.clip(s, tt[0], T_MAX)), lt, lc))

    return lookup


def _theorem_setup(cfg: ExperimentConfig, check: str):
    """The corpus function and the grid of a theorem check, whose
    statement needs min(beta0, beta1) >= 1/2."""
    if not cfg.sw.theorem_admissible:
        raise ValueError(f"{check} needs min(beta0, beta1) >= 1/2")
    return corpus(cfg.function_name, cfg.params, cfg.alpha0), cfg.make_grid()


def _fit(n_values, seq) -> RateReport | None:
    """fit_rate over the degree sweep when the sequence can be fitted
    (at least 4 points, all positive), else None."""
    fittable = len(seq) >= 4 and all(v > 0.0 for v in seq)
    return fit_rate(list(zip(n_values, seq)), scale_name="n") if fittable else None


def _report(rows, fit: RateReport | None, max_ratio: float, ok: bool,
            tolerance: float) -> RateReport:
    """A degree-sweep report whose slope fields are copied from fit
    (empty without one)."""
    return RateReport(
        scale_name="n",
        rows=tuple(rows),
        fitted_slope=None if fit is None else fit.fitted_slope,
        slope_stderr=None if fit is None else fit.slope_stderr,
        residuals=() if fit is None else fit.residuals,
        max_ratio=max_ratio,
        verdict="pass" if ok else "fail",
        tolerance=tolerance,
    )


def direct_check(cfg: ExperimentConfig) -> RateReport:
    """Jackson-type direction: for each degree, the grid sup of
    weighted error divided by the weighted modulus at the local scale
    delta_n(x)/(sqrt(n) phi(x)).  Passes when the ratio sequence is
    finite and does not grow (last/first <= 2); points where both
    sides vanish are skipped, and a vanishing modulus under a
    non-vanishing error is an inconsistency reported as Degenerate.
    """
    f, grid = _theorem_setup(cfg, "direct_check")
    x = grid.points
    scales = {n: _scale_field(n, cfg.sw, x) for n in cfg.n_values}
    lookup = _tabulated_modulus(f, cfg.params, cfg.sw, grid, list(scales.values()))
    atol = 1e-11 * max(1.0, weighted_sup_norm(f, cfg.params, grid))
    rows = []
    for n in cfg.n_values:
        err = error_field(f, n, cfg.params, grid)
        mod = lookup(scales[n])
        live = np.flatnonzero((err > atol) | (mod > atol))
        bad = live[mod[live] <= atol]
        if bad.size:
            raise Degenerate(
                f"modulus vanishes at x={x[bad[0]]!r} (n={n}) where the error does not"
            )
        if live.size:
            q = err[live] / mod[live]
            i = int(np.argmax(q))
            rows.append(RateRow(float(n), float(err[live[i]]), float(mod[live[i]]), float(q[i])))
        else:
            rows.append(RateRow(float(n), 0.0, 0.0, 0.0))
    ratios = [r.ratio for r in rows]
    pos = [r for r in ratios if r > 0.0]
    ok = all(math.isfinite(r) for r in ratios) and (not pos or pos[-1] / pos[0] <= DIRECT_GROWTH)
    return _report(rows, _fit(cfg.n_values, ratios), max(ratios), ok, DIRECT_GROWTH)


def inverse_check(cfg: ExperimentConfig) -> RateReport:
    """Bernstein-type direction at desk scale: (a) the fitted slope of
    the weighted modulus against t must recover the nominal exponent
    alpha0 within 0.15, and (b) the weighted error normalised by the
    local scale to the power alpha0 must be a bounded sequence over the
    degree sweep (max/min <= 4).  Rows carry the normalised error
    sequence; the slope fields carry the modulus-side fit.
    """
    f, grid = _theorem_setup(cfg, "inverse_check")
    if f.alpha0 is None:
        raise MissingExponent(f"{f.name} has no nominal smoothness exponent")
    a0 = f.alpha0
    x = grid.points
    curve = modulus_curve(f, cfg.params, cfg.sw, ModulusConfig(x_grid=grid, t_values=cfg.t_values))
    fit = fit_rate(list(zip(cfg.t_values, curve)), scale_name="t")
    seq = []
    for n in cfg.n_values:
        err = error_field(f, n, cfg.params, grid)
        seq.append(float(np.max(err * _scale_field(n, cfg.sw, x) ** -a0)))
    first = seq[0]
    rows = [RateRow(float(n), e, first, e / first if first > 0 else math.inf)
            for n, e in zip(cfg.n_values, seq)]
    positive = min(seq) > 0.0 and all(map(math.isfinite, seq))
    spread = max(seq) / min(seq) if positive else math.inf
    ok = spread <= MAX_OVER_MIN and abs(fit.fitted_slope - a0) <= SLOPE_TOL
    return _report(rows, fit, spread, ok, SLOPE_TOL)


def _pow(base: np.ndarray, p: float) -> np.ndarray:
    """base ** p one element at a time, by libm pow on Python floats.
    numpy's array pow can round the last bit differently, which would
    move the printed constants: on an AVX-512 host (numpy 2.4, SIMD pow),
    over the refined grids of 41 xi in [0.3, 0.7], it differs from the
    scalar calls for wbar at 28,663 of 1,070,832 abscissae (alpha in 0.5,
    1, ..., 3) and for varphi^3 and t^-0.5 at 7,901 and 7,960 of 139,686
    in [0.1, 0.9]; this form at none.  Only the pow needs to be scalar."""
    return np.array([b**p for b in base.tolist()])


def _term_max(n: int, rows: slice, block: np.ndarray, span: slice, window, term) -> float:
    """Max of term over the block rows inside span (-inf when there are
    none), with the columns cut to the index window(n)."""
    lo, hi = max(rows.start, span.start), min(rows.stop, span.stop)
    if lo >= hi:
        return -math.inf
    klo, khi = window(n)
    k = np.arange(klo, khi + 1, dtype=float)
    part = block[lo - rows.start : hi - rows.start, klo : khi + 1]
    return term(n, slice(lo - span.start, hi - span.start), k, part).max()


def _sweep(cfg, x, terms: dict) -> dict:
    """Grid max per degree of every labelled term, one sequence over
    cfg.n_values per label.

    For each n the basis block over all indices 0..n at the abscissae x
    is built once.  A term is (span, window, fn): span is the slice of x
    it reads, window(n) its index range, and fn maps (n, rows, k, block)
    to one value per block row, where rows indexes x[span] and k holds
    the indices.
    """
    best = np.empty((len(terms), len(cfg.n_values)))
    for j, n in enumerate(cfg.n_values):
        # no block outlives the comprehension, so the output block of
        # degree n is freed before that of the next degree is allocated
        best[:, j] = np.max([[_term_max(n, rows, block, *t) for t in terms.values()]
                             for rows, block in _blocks(n, x)], axis=0)
    return dict(zip(terms, best.tolist()))


def _verdict(name: str, seqs: dict) -> LemmaResult:
    """Bounded-ratio verdict on every labelled sequence; the constant is
    the worst ratio of all of them."""
    verdicts = [sequence_verdict(seq) for seq in seqs.values()]
    ok = all(good for good, _ in verdicts)
    detail = "; ".join(f"{label} {note}" for label, (_, note) in zip(seqs, verdicts))
    return LemmaResult(name, "pass" if ok else "fail", max(map(max, seqs.values())), detail)


# rows per |k - n x|^g weight matrix in _moment_ratio.  A fresh process
# running `lemmas --xi 0.5 --alpha 1` peaks at 42.6 MiB RSS (median of 5,
# 2 vCPU, numpy 2.4); one matrix per block (976 x 1025 at n = 1024)
# raises that to 55.1 MiB, while 8, 32 and 64 rows stay within 0.2 MiB
# of 42.6 and move its wall time only within the run-to-run spread.  Each
# row's dot product reads only that row, so the group size changes no bit.
_ROW_GROUP = 16


def _moment_ratio(xs, phi, g, e, num):
    """Term num(x) sum_k p_{n,k}(x) |k - n x|^g / (n^e phi^g), phi = varphi(xs).

    np.vecdot sums each row with the same dot kernel as a 1-d np.dot.
    A matrix product would sum in another order, and ratios that equal 1
    to within rounding (lemma 4 at gamma = 2) would change their trend
    statistic."""
    den = _pow(phi, g)

    def term(n, rows, k, block):
        t = xs[rows, None]
        sums = [np.vecdot(block[i : i + _ROW_GROUP], np.abs(k - n * t[i : i + _ROW_GROUP]) ** g)
                for i in range(0, len(t), _ROW_GROUP)]
        return num[rows] * np.concatenate(sums) / (n ** e * den[rows])

    return term


def _basis_lemmas(cfg, grid, f) -> dict:
    """Lemmas 1, 2, 4, 5 and 6 from one basis sweep: their labelled
    sequences keyed by lemma.  Lemmas 2 and 5 read the whole grid,
    lemmas 1, 4 and 6 its points in [0.1, 0.9]."""
    x = grid.points
    whole = slice(0, x.size)
    inner = slice(int(np.searchsorted(x, 0.1)), int(np.searchsorted(x, 0.9, "right")))
    xs, a = x[inner], cfg.params.alpha
    phi, wb = varphi(xs), _pow(np.abs(x - cfg.params.xi), a)
    w = wbar(cfg.params, x)
    nwf = weighted_sup_norm(f, cfg.params, grid)
    samples = {n: build_operator(f, n, cfg.params).fbar_samples for n in cfg.n_values}

    def inverse(u, v):
        den = _pow(xs, -u) * _pow(1.0 - xs, -v)
        return lambda n, rows, k, block: (
            np.vecdot(block, _inverse_weights(n, u, v)) / den[rows])

    # (lemma, label) -> (abscissae, index window, per-row values)
    full, near = (lambda n: (0, n)), (lambda n: _window(n, cfg.params.xi))
    terms = {}
    for u, v in ((0.5, 0.0), (1.0, 0.0), (1.0, 1.0)):
        terms["lemma1", f"(u={u:g},v={v:g})"] = (inner, lambda n: (1, n - 1), inverse(u, v))
    terms["lemma2", f"{f.name}:"] = (
        whole, full, lambda n, rows, k, block: w[rows] * np.abs(block @ samples[n]) / nwf)
    for g in (1.0, 2.0, 3.0):
        terms["lemma4", f"gamma={g:g}"] = (
            inner, full, _moment_ratio(xs, phi, g, g / 2, np.ones(xs.size)))
    terms["lemma5", "mass"] = (whole, near, lambda n, rows, k, block: wb[rows] * block.sum(1))
    for b in (1.0, 2.0):
        terms["lemma6", f"beta={b:g}"] = (
            inner, near, _moment_ratio(xs, phi, b, (b - a) / 2, wb[inner]))
    seqs = {}
    for (name, label), seq in _sweep(cfg, x, terms).items():
        seqs.setdefault(name, {})[label] = seq
    return seqs


def _lemma3(cfg) -> LemmaResult:
    t_values = (0.125, 0.0625, 0.03125)
    seq = []
    for t in t_values:
        xs = sorted(
            {c * t for c in (1.25, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0)}
            | {1.0 - c * t for c in (1.25, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0)}
            | {0.3, 0.4, 0.5, 0.6, 0.7}
        )
        xs = [x for x in xs if t < x < 1.0 - t]
        seq.append(max(quadrature_bound_ratio(cfg.sw, t, x) for x in xs))
    return _verdict("lemma3", {f"t in {t_values}:": seq})


def _lemma5(cfg, seq) -> LemmaResult:
    """Decay verdict on the weighted window mass sequence."""
    if len(cfg.n_values) < 4:
        return LemmaResult("lemma5", "skip", None, "need >= 4 degrees for a slope fit")
    fit = fit_rate(list(zip(cfg.n_values, seq)), scale_name="n")
    bound = -cfg.params.alpha / 2.0 + 0.1
    ok = fit.fitted_slope is not None and fit.fitted_slope <= bound
    return LemmaResult(
        "lemma5",
        "pass" if ok else "fail",
        fit.fitted_slope,
        f"slope={fit.fitted_slope:.4f} must be <= {bound:.4f}",
    )


def _lemmas78(cfg, grid, f) -> tuple[LemmaResult, LemmaResult]:
    """Lemma 7 (weighted bridge error on [x1, x4] against the squared
    local scale) and lemma 8 (weighted curvature of the spliced
    function), both relative to the weighted second-derivative norm of
    a function in W2phi with non-zero curvature (f, else quadratic),
    over one pass of the degree sweep."""
    x = grid.points
    w2 = wbar(cfg.params, x) * step_weight(cfg.sw, x) ** 2
    curved = f.in_w2phi and f.d2 is not None and np.any(w2 * f.d2(x))
    g = f if curved else corpus("quadratic", cfg.params)
    d2norm = float(np.max(w2 * np.abs(g.d2(x))))
    bridge, curvature = [], []
    for n in cfg.n_values:
        k = knots(n, cfg.params.xi)
        xz = x[(x >= k.x1) & (x <= k.x4)]
        num = wbar(cfg.params, xz) * np.abs(np.asarray(g.eval(xz), float) - bridge_p(g, k, xz))
        den = _scale_field(n, cfg.sw, xz) ** 2 * d2norm
        bridge.append(float(np.max(num / den)))
        curvature.append(float(np.max(w2 * np.abs(fbar_d2(g, k, x)))) / d2norm)
    return (_verdict("lemma7", {f"{g.name}:": bridge}),
            _verdict("lemma8", {f"{g.name}:": curvature}))


def lemma_suite(cfg: ExperimentConfig) -> dict[str, LemmaResult]:
    """All bounded-constant and decay checks, keyed lemma1..lemma8.

    Checks whose hypotheses the configuration violates are skipped with
    the reason recorded; each executed check reports its measured
    constant (worst ratio over the sweep, or the fitted slope for the
    decay check).
    """
    grid = cfg.make_grid()
    f = corpus(cfg.function_name, cfg.params, cfg.alpha0)
    seqs = _basis_lemmas(cfg, grid, f)
    results = {"lemma5": _lemma5(cfg, seqs.pop("lemma5")["mass"])}
    results.update((name, _verdict(name, s)) for name, s in seqs.items())
    # lemmas 3, 7 and 8 are stated for min(beta0, beta1) >= 1/2
    if cfg.sw.theorem_admissible:
        results["lemma3"] = _lemma3(cfg)
        results["lemma7"], results["lemma8"] = _lemmas78(cfg, grid, f)
    else:
        for name in ("lemma3", "lemma7", "lemma8"):
            results[name] = LemmaResult(name, "skip", None, "min(beta0, beta1) >= 1/2 violated")
    return dict(sorted(results.items()))


def error_decay(cfg: ExperimentConfig) -> RateReport:
    """Raw error-decay table: grid sup of the weighted error per degree
    with its fitted log-log rate."""
    f = corpus(cfg.function_name, cfg.params, cfg.alpha0)
    grid = cfg.make_grid()
    seq = [float(np.max(error_field(f, n, cfg.params, grid))) for n in cfg.n_values]
    fit = _fit(cfg.n_values, seq)
    if fit is not None:
        return fit
    rows = [RateRow(float(n), e, 0.0, 0.0) for n, e in zip(cfg.n_values, seq)]
    return _report(rows, None, 0.0, all(map(math.isfinite, seq)), 0.0)


def operator_dump(cfg: ExperimentConfig) -> dict:
    """Knots and spliced samples of the largest configured degree."""
    n = cfg.n_values[-1]
    f = corpus(cfg.function_name, cfg.params, cfg.alpha0)
    op = build_operator(f, n, cfg.params)
    k = op.knots
    return {
        "function": f.name,
        "n": n,
        "xi": cfg.params.xi,
        "alpha": cfg.params.alpha,
        "knots": {"x1": k.x1, "x2": k.x2, "x3": k.x3, "x4": k.x4},
        "samples": [float(s) for s in op.fbar_samples],
    }
