"""Lemma and theorem verification sweeps.

Every inequality with an unspecified constant is operationalised as a
bounded-ratio sweep: the measured quantity is divided by its claimed
bound, the resulting sequence over the degree sweep must stay within a
factor 4 of itself and show no growth trend (Kendall tau of ratio
against n above 0.5 with a spread above TREND_SLACK); direct's finite
ratios may grow at most DIRECT_GROWTH-fold, last positive over first.
Decay statements are checked as fitted log-log slopes: lemma 5's at
most -alpha/2 + 0.1, the inverse modulus's within SLOPE_TOL of alpha0.
"""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from ..basis import _blocks, _distinct, _inverse_weights, bernstein_apply_many
from ..blending import TestFunction, _evaluate, bridge_p, fbar_d2, knots
from ..exceptions import Degenerate, MissingExponent
from ..moduli import T_MAX, ModulusConfig, quadrature_bound_ratio, modulus_curve
from ..operator import build_operator
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


def sequence_verdict(ratios) -> tuple[bool, str]:
    """Pass rule for a bounded-constant sweep: spread within a factor
    MAX_OVER_MIN, and no monotone growth trend (Kendall tau above
    TAU_LIMIT with more than TREND_SLACK accumulated growth)."""
    r = np.asarray(ratios, dtype=float)
    if not np.isfinite(r).all() or (r <= 0).any():
        return False, "non-finite or non-positive ratio"
    spread = float(r.max() / r.min())
    tau = kendall_tau(r)
    ok = spread <= MAX_OVER_MIN and not (tau > TAU_LIMIT and spread > TREND_SLACK)
    return ok, f"max/min={spread:.3g} tau={tau:.2f}"


def _window(n: int, xi: float) -> tuple[int, int]:
    """Indices within sqrt(n) of n*xi (never empty: the span is 2 sqrt(n) >= 2)."""
    s = math.sqrt(n)
    return max(0, math.ceil(n * xi - s)), min(n, math.floor(n * xi + s))


def _error_fields(f: TestFunction, n_values, params: WeightParams, grid: EvalGrid) -> list:
    """error_field at each degree: every operator summed in one call, wbar
    and f evaluated once on the grid (a failure of f names the first degree)."""
    x = grid.points
    sums = bernstein_apply_many([build_operator(f, n, params) for n in n_values], x)
    w = wbar(params, x)
    fx = _evaluate(f, f"in the error field of degree {n_values[0]}", lambda: f.eval(x))
    return [_evaluate(f, f"in the error field of degree {n}", lambda: w * np.abs(fx - b))
            for n, b in zip(n_values, sums)]


def error_field(f: TestFunction, n: int, params: WeightParams, grid: EvalGrid) -> np.ndarray:
    """Pointwise weighted error wbar * |f - operator(f)| on the grid."""
    return _error_fields(f, (n,), params, grid)[0]


def _scale_field(n: int, sw, x: np.ndarray) -> np.ndarray:
    """Per-x comparison scale delta_n(x) / (sqrt(n) phi(x))."""
    phi = np.maximum(step_weight(sw, x), 1e-300)
    return delta_n(n, x) / (math.sqrt(n) * phi)


# the modulus table behind direct_check: ladder length and scale count
_TABLE_H_STEPS = 12
_TABLE_T_POINTS = 24


def _tabulated_modulus(f, params, sw, grid, smallest):
    """Monotone log-log interpolant of the modulus curve from the smallest scale to T_MAX."""
    # every scale above T_MAX leaves a one-point table
    lo = min(max(smallest * 0.999, 1e-8), T_MAX)
    tt = _distinct(np.geomspace(lo, T_MAX, _TABLE_T_POINTS))
    cfg = ModulusConfig(x_grid=grid, t_values=tuple(tt), h_steps=_TABLE_H_STEPS)
    curve = modulus_curve(f, params, sw, cfg)
    lt = np.log(tt)
    lc = np.log(np.maximum(curve, 1e-300))

    def lookup(s: np.ndarray) -> np.ndarray:
        # a scale outside the table reads the table's end value
        return np.exp(np.interp(np.log(s), lt, lc))

    return lookup


def _theorem_setup(cfg: ExperimentConfig, check: str):
    """The corpus function and the grid of a theorem check, whose
    statement needs min(beta0, beta1) >= 1/2."""
    if not cfg.sw.theorem_admissible:
        raise ValueError(f"{check} needs min(beta0, beta1) >= 1/2")
    return corpus(cfg.function_name, cfg.params, cfg.alpha0), cfg.make_grid()


def _fit(n_values, seq) -> RateReport:
    """The degree-sweep report of seq: fit_rate's when it can be fitted (at
    least 4 points, all positive and finite), else its values as rows, no slope."""
    if len(seq) >= 4 and all(0.0 < v < math.inf for v in seq):
        return fit_rate(list(zip(n_values, seq)), scale_name="n")
    rows = tuple(RateRow(float(n), v, 0.0, 0.0) for n, v in zip(n_values, seq))
    return RateReport("n", rows, None, None, (), 0.0, "pass", 0.0)


def direct_check(cfg: ExperimentConfig) -> RateReport:
    """Jackson-type direction: for each degree, the grid sup of
    weighted error divided by the weighted modulus at the local scale
    delta_n(x)/(sqrt(n) phi(x)).  Passes when the ratio sequence is
    finite and does not grow (last/first <= 2); points where both
    sides vanish are skipped, and a vanishing modulus under a
    non-vanishing error is an inconsistency reported as Degenerate.
    So is a ratio whose sup sits at a local scale above T_MAX, where the
    modulus table ends.
    """
    f, grid = _theorem_setup(cfg, "direct_check")
    x = grid.points
    scales = {n: _scale_field(n, cfg.sw, x) for n in cfg.n_values}
    smallest = min(float(s.min()) for s in scales.values())
    lookup = _tabulated_modulus(f, cfg.params, cfg.sw, grid, smallest)
    atol = 1e-11 * max(1.0, weighted_sup_norm(f, cfg.params, grid))
    rows = []
    for n, err in zip(cfg.n_values, _error_fields(f, cfg.n_values, cfg.params, grid)):
        mod = lookup(scales[n])
        live = np.flatnonzero((err > atol) | (mod > atol))
        bad = live[mod[live] <= atol]
        if bad.size:
            raise Degenerate(
                f"modulus vanishes at x={x[bad[0]]:.6g} (n={n}) where the error does not"
            )
        if live.size:
            q = err[live] / mod[live]
            i = int(np.argmax(q))
            if scales[n][live[i]] > T_MAX:
                raise Degenerate(f"the ratio's sup at x={x[live[i]]:.6g} (n={n}) has the local "
                                 f"scale {scales[n][live[i]]:.3g}, clipped to T_MAX={T_MAX}")
            rows.append(RateRow(float(n), float(err[live[i]]), float(mod[live[i]]), float(q[i])))
        else:
            rows.append(RateRow(float(n), 0.0, 0.0, 0.0))
    ratios = [r.ratio for r in rows]
    pos = [r for r in ratios if r > 0.0]
    ok = all(math.isfinite(r) for r in ratios) and (not pos or pos[-1] / pos[0] <= DIRECT_GROWTH)
    return replace(_fit(cfg.n_values, ratios), rows=tuple(rows), max_ratio=max(ratios),
                   verdict="pass" if ok else "fail", tolerance=DIRECT_GROWTH)


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
    if len(cfg.t_values) < 4:
        raise ValueError(f"need at least 4 t values to fit the modulus rate, got "
                         f"{len(cfg.t_values)}: {', '.join(map(repr, cfg.t_values))}")
    a0 = f.alpha0
    x = grid.points
    curve = modulus_curve(f, cfg.params, cfg.sw, ModulusConfig(x_grid=grid, t_values=cfg.t_values))
    fit = fit_rate(list(zip(cfg.t_values, curve)), scale_name="t")
    seq = [float(np.max(err * _scale_field(n, cfg.sw, x) ** -a0))
           for n, err in zip(cfg.n_values, _error_fields(f, cfg.n_values, cfg.params, grid))]
    first = seq[0]
    rows = [RateRow(float(n), e, first, e / first if first > 0 else math.inf)
            for n, e in zip(cfg.n_values, seq)]
    positive = min(seq) > 0.0 and all(map(math.isfinite, seq))
    spread = max(seq) / min(seq) if positive else math.inf
    ok = spread <= MAX_OVER_MIN and abs(fit.fitted_slope - a0) <= SLOPE_TOL
    return replace(fit, scale_name="n", rows=tuple(rows), max_ratio=spread,
                   verdict="pass" if ok else "fail", tolerance=SLOPE_TOL)


def _pow(base: np.ndarray, p: float) -> np.ndarray:
    """base ** p with the bits of the scalar b ** p: np.float_power calls
    libm pow per element.  numpy's SIMD array pow (`**`) can round the last
    bit otherwise, which would move the printed constants: on an AVX-512
    host (numpy 2.4), over the refined grids of 41 xi in [0.3, 0.7], it
    differs for wbar at 28,663 of 1,070,832 abscissae (alpha in 0.5, 1,
    ..., 3) and for varphi^3 and t^-0.5 at 7,901 and 7,960 of 139,686."""
    return np.float_power(base, p)


# The lemma sweep's blocks hold each row's Bernstein band at this
# exponent (basis._bands) and 0.0 outside it.  The rule: the band leaves
# out at most 1e-24 of any row's weighted sum, 8 orders below half a
# float64 ulp, for the largest weight a lemma puts on an entry,
# |k - n x|^3 (lemma 4, gamma = 3).  At 60 the worst such tail (40
# digits, n = 64..65536, x in [0.1, 0.9]) is 10^-24.9 of the row's sum
# (n = 65536, x = 0.1); lemma 1's and the plain mass's are below 10^-27.
# At 50 it would be 10^-20.5.
_SWEEP_EXPONENT = 60.0

# Values per lemma-sweep chunk (256 KiB), the one row grouping of the sweep:
# every lemma reads each block row on its own, so it is only a memory budget.
_BLOCK_VALUES = 1 << 15


def _verdict(name: str, seqs: dict) -> LemmaResult:
    """Bounded-ratio verdict on every labelled sequence; the constant is
    the worst ratio of all of them."""
    verdicts = [sequence_verdict(seq) for seq in seqs.values()]
    ok = all(good for good, _ in verdicts)
    detail = "; ".join(f"{label} {note}" for label, (_, note) in zip(seqs, verdicts))
    return LemmaResult(name, "pass" if ok else "fail", max(map(max, seqs.values())), detail)


def _basis_lemmas(cfg, grid, f) -> dict:
    """Lemmas 1, 2, 4, 5 and 6 from one basis sweep: their labelled
    sequences, each the grid max per degree, keyed by lemma.

    For each n the basis block over all indices 0..n is built chunk by
    chunk of about _BLOCK_VALUES values, rows c..e of the grid, each row
    on its band at _SWEEP_EXPONENT, into one buffer sized for the largest
    degree, and the chunk's |k - n x| and its powers into two more: no
    chunk allocates an array of its size.  Lemmas 2 and 5 write every
    row, lemmas 1, 4 and 6 the rows in [i0, i1), the grid points in
    [0.1, 0.9].  The values go into one table, a row per label and a
    column per abscissa, filled with -inf per degree, and each label's
    max is taken once per degree.  Every lemma sums each block row on its
    own with np.vecdot, as a 1-d np.dot does; a matrix product would sum
    in another order and move the trend statistic of ratios that equal 1
    to rounding (lemma 4, gamma = 2).
    """
    x = grid.points
    i0, i1 = int(np.searchsorted(x, 0.1)), int(np.searchsorted(x, 0.9, "right"))
    xs, a = x[i0:i1], cfg.params.alpha
    phi, wb = varphi(xs), _pow(np.abs(x - cfg.params.xi), a)
    w = wbar(cfg.params, x)
    nwf = weighted_sup_norm(f, cfg.params, grid)
    samples = [build_operator(f, n, cfg.params) for n in cfg.n_values]
    gammas, betas = (1.0, 2.0, 3.0), (1.0, 2.0)  # of lemmas 4 and 6
    den = {g: _pow(phi, g) for g in gammas}  # betas are gammas too
    # lemma 6's bound n^((beta - alpha)/2) phi^beta underflows at a large alpha
    for n in cfg.n_values:
        if any(n ** ((b - a) / 2) * np.min(den[b], initial=math.inf) == 0.0 for b in betas):
            raise ValueError(f"lemma 6: the bound n^((beta - alpha)/2) phi^beta underflows "
                             f"to 0.0 at n={n}, alpha={a:g}")
    uvs = ((0.5, 0.0), (1.0, 0.0), (1.0, 1.0))  # of lemma 1
    inv_den = [_pow(xs, -u) * _pow(1.0 - xs, -v) for u, v in uvs]
    # the table's rows: lemma 1 0..2, lemma 2 3, lemma 4 4..6, lemma 6 7..8, lemma 5 9
    labels = ([("lemma1", f"(u={u:g},v={v:g})") for u, v in uvs] + [("lemma2", f"{f.name}:")]
              + [("lemma4", f"gamma={g:g}") for g in gammas]
              + [("lemma6", f"beta={b:g}") for b in betas] + [("lemma5", "mass")])
    best, table = np.empty((len(labels), len(cfg.n_values))), np.empty((len(labels), x.size))
    rows = [min(max(1, _BLOCK_VALUES // (n + 1)), x.size) for n in cfg.n_values]
    buf = np.empty(max(m * (n + 1) for n, m in zip(cfg.n_values, rows)))
    dbuf, pbuf = np.empty((2, buf.size))  # lemma 4's and 6's |k - n x|^gamma
    for j, (n, m, fbar) in enumerate(zip(cfg.n_values, rows, samples)):
        weights = [_inverse_weights(n, u, v) for u, v in uvs]
        # lemma 1 sums the interior indices 1..n-1, lemmas 5 and 6 those
        # within sqrt(n) of n xi
        klo, khi = _window(n, cfg.params.xi)
        k = np.arange(n + 1, dtype=float)
        table.fill(-math.inf)
        for c in range(0, x.size, m):
            e = min(c + m, x.size)
            block = _blocks(n, x[c:e], _SWEEP_EXPONENT, buf[: m * (n + 1)].reshape(m, n + 1))
            table[3, c:e] = w[c:e] * np.abs(np.vecdot(block, fbar)) / nwf
            table[9, c:e] = wb[c:e] * block[:, klo : khi + 1].sum(1)
            lo, hi = max(c, i0), min(e, i1)
            if lo >= hi:
                continue
            inner, r = block[lo - c : hi - c], slice(lo - i0, hi - i0)
            for t in range(3):
                table[t, lo:hi] = np.vecdot(inner[:, 1:n], weights[t]) / inv_den[t][r]
            # lemma 4 over 0..n and lemma 6 near xi from one table d = |k - n x|
            d = dbuf[: (hi - lo) * (n + 1)].reshape(hi - lo, n + 1)
            np.subtract(k, n * xs[r, None], out=d)
            np.abs(d, out=d)
            for t, g in enumerate(gammas):
                # d ** g with its bits, in place: ndarray ** takes 2.0 as
                # a square, and d ** 1.0 is a copy of d
                p = d if g == 1.0 else pbuf[: d.size].reshape(d.shape)
                if g == 2.0:
                    np.square(d, out=p)
                elif g != 1.0:
                    np.power(d, g, out=p)
                table[4 + t, lo:hi] = np.vecdot(inner, p) / (n ** (g / 2) * den[g][r])
                if g in betas:
                    sb = np.vecdot(inner[:, klo : khi + 1], p[:, klo : khi + 1])
                    table[7 + t, lo:hi] = wb[lo:hi] * sb / (n ** ((g - a) / 2) * den[g][r])
        table.max(axis=1, out=best[:, j])
    seqs = {}
    for (name, label), seq in zip(labels, best.tolist()):
        seqs.setdefault(name, {})[label] = seq
    return seqs


def _lemma3(cfg) -> dict:
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
    return {f"t in {t_values}:": seq}


def _lemma5(cfg, seq) -> LemmaResult:
    """Decay verdict on the weighted window mass sequence; a 0.0 (underflowed) mass raises."""
    if len(cfg.n_values) < 4:
        return LemmaResult("lemma5", "skip", None, "need >= 4 degrees for a slope fit")
    for n, mass in zip(cfg.n_values, seq):
        if not mass > 0.0:
            raise ValueError(f"lemma 5: the weighted window mass is {mass!r} at n={n}, "
                             f"alpha={cfg.params.alpha:g}; its slope fit needs positive values")
    fit = fit_rate(list(zip(cfg.n_values, seq)), scale_name="n")
    bound = -cfg.params.alpha / 2.0 + 0.1
    ok = fit.fitted_slope <= bound
    return LemmaResult(
        "lemma5",
        "pass" if ok else "fail",
        fit.fitted_slope,
        f"slope={fit.fitted_slope:.4f} must be <= {bound:.4f}",
    )


def _lemmas78(cfg, grid, f) -> dict:
    """The labelled sequences, keyed by lemma, of lemma 7 (weighted
    bridge error on [x1, x4] against the squared local scale) and lemma
    8 (weighted curvature of the spliced function), both relative to the
    weighted second-derivative norm of a function in W2phi with non-zero
    curvature (f, else quadratic), over one pass of the degree sweep."""
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
    return {"lemma7": {f"{g.name}:": bridge}, "lemma8": {f"{g.name}:": curvature}}


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
    # lemmas 3, 7 and 8 are stated for min(beta0, beta1) >= 1/2
    if cfg.sw.theorem_admissible:
        seqs["lemma3"] = _lemma3(cfg)
        seqs.update(_lemmas78(cfg, grid, f))
    else:
        for name in ("lemma3", "lemma7", "lemma8"):
            results[name] = LemmaResult(name, "skip", None, "min(beta0, beta1) >= 1/2 violated")
    results.update((name, _verdict(name, s)) for name, s in seqs.items())
    return dict(sorted(results.items()))


def error_decay(cfg: ExperimentConfig) -> RateReport:
    """Raw error-decay table: grid sup of the weighted error per degree
    with its fitted log-log rate."""
    f = corpus(cfg.function_name, cfg.params, cfg.alpha0)
    grid = cfg.make_grid()
    seq = [float(np.max(err)) for err in _error_fields(f, cfg.n_values, cfg.params, grid)]
    return _fit(cfg.n_values, seq)


def operator_dump(cfg: ExperimentConfig) -> dict:
    """Knots and spliced samples of the largest configured degree."""
    n = cfg.n_values[-1]
    f = corpus(cfg.function_name, cfg.params, cfg.alpha0)
    samples = build_operator(f, n, cfg.params)
    k = knots(n, cfg.params.xi)
    return {
        "function": f.name,
        "n": n,
        "xi": cfg.params.xi,
        "alpha": cfg.params.alpha,
        "knots": {"x1": k.x1, "x2": k.x2, "x3": k.x3, "x4": k.x4},
        "samples": [float(s) for s in samples],
    }
