"""Rate fitting and deterministic report serialization."""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, astuple, dataclass

import numpy as np

__all__ = [
    "RateRow",
    "RateReport",
    "LemmaResult",
    "fit_rate",
    "report_to_csv",
    "report_to_json",
    "lemma_results_to_csv",
]


@dataclass(frozen=True)
class RateRow:
    scale: float
    measured: float
    reference: float
    ratio: float


@dataclass(frozen=True)
class RateReport:
    """One experiment's table plus its log-log fit and verdict.

    ``scale_name`` says what the scale column is ('n' or 't');
    ``fitted_slope`` is None when the data could not be fitted."""

    scale_name: str
    rows: tuple
    fitted_slope: float | None
    slope_stderr: float | None
    residuals: tuple
    max_ratio: float
    verdict: str
    tolerance: float


@dataclass(frozen=True)
class LemmaResult:
    lemma: str
    verdict: str  # pass | fail | skip
    constant: float | None
    detail: str


def fit_rate(pairs, scale_name: str = "scale") -> RateReport:
    """Least-squares slope of ln(value) against ln(scale).

    Needs at least 4 pairs with positive finite entries and two distinct
    scales.  Row references are the fitted power law, so row ratios read
    as multiplicative residuals.
    """
    pts = [(float(s), float(v)) for s, v in pairs]
    if len(pts) < 4:
        raise ValueError(f"need at least 4 pairs to fit a rate, got {len(pts)}")
    if not all(0.0 < s < math.inf and 0.0 < v < math.inf for s, v in pts):  # NaN fails too
        raise ValueError("rate fitting needs positive finite scales and values")
    ls = np.log([s for s, _ in pts])
    if ls.min() == ls.max():
        raise ValueError("rate fitting needs at least two distinct scales")
    lv = np.log([v for _, v in pts])
    m = ls.size
    sxx = float(np.sum((ls - ls.mean()) ** 2))
    slope = float(np.sum((ls - ls.mean()) * (lv - lv.mean())) / sxx)
    intercept = float(lv.mean() - slope * ls.mean())
    resid = lv - (intercept + slope * ls)
    ssr = float(np.sum(resid**2))
    stderr = math.sqrt(ssr / (m - 2) / sxx) if m > 2 else 0.0
    rows = []
    for (s, v), r in zip(pts, resid):
        ref = math.exp(intercept) * s**slope
        rows.append(RateRow(scale=s, measured=v, reference=ref, ratio=v / ref))
    max_ratio = max(r.ratio for r in rows)
    return RateReport(
        scale_name=scale_name,
        rows=tuple(rows),
        fitted_slope=slope,
        slope_stderr=stderr,
        residuals=tuple(float(r) for r in resid),
        max_ratio=max_ratio,
        verdict="pass" if math.isfinite(slope) and math.isfinite(stderr) else "fail",
        tolerance=0.0,
    )


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _csv(header, rows) -> str:
    """The one CSV writer: a header, then every row's fields through
    _fmt, with LF endings."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows([_fmt(v) for v in row] for row in rows)
    return buf.getvalue()


def report_to_csv(report: RateReport) -> str:
    """Rows only, fixed column order, 17 significant digits."""
    return _csv([report.scale_name, "measured", "reference", "ratio"],
                map(astuple, report.rows))


def lemma_results_to_csv(results: dict[str, LemmaResult]) -> str:
    return _csv(["lemma", "verdict", "constant", "detail"],
                (astuple(results[key]) for key in sorted(results)))


def report_to_json(result) -> str:
    """The one JSON writer: a rate report, a lemma table or an operator
    dump, with every dataclass written as its fields."""
    return json.dumps(result, default=asdict, sort_keys=True, indent=2) + "\n"
