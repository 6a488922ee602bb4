"""Rate tables and rate regressions.

A rate is a stimulus's spike count over its half-open window [discard,
discard + window), as neural.SpikeCounter counts it, divided by the window
length, in impulses per second (ips).  The minimum nonzero rate is
therefore 1/window (about 4.08 ips for the 245 ms window, 10 ips for the
100 ms window); records sitting exactly at that quantization floor are
flagged, since finer rates are unresolvable by counting.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class RateRecord:
    afferent_type: str
    stimulus_id: str
    freq_hz: float
    amplitude_um: float
    predicted_ips: float
    observed_ips: float | None = None
    window_ms: float | None = None

    @property
    def at_quantization_floor(self) -> bool:
        """True when the rate equals the smallest resolvable nonzero value."""
        if self.window_ms is None or self.predicted_ips <= 0:
            return False
        return abs(self.predicted_ips * self.window_ms / 1000.0 - 1.0) < 1e-9


def rate_records_to_csv(records: list[RateRecord], provenance: str | None = None) -> str:
    """The rates CSV text: provenance and quantization-floor comment lines,
    the header, then one row per record."""
    # one TYPE:stimulus_id per flagged row, since a stimulus has a row per type
    floor_ids = [f"{r.afferent_type}:{r.stimulus_id}" for r in records
                 if r.at_quantization_floor]
    lines = []
    if provenance:
        lines.append(f"# provenance: {provenance}\n")
    if floor_ids:
        lines.append(f"# at_quantization_floor: {','.join(floor_ids)}\n")
    lines.append("afferent,stimulus_id,freq_hz,amplitude_um,predicted_ips,observed_ips\n")
    for r in records:
        obs = "" if r.observed_ips is None else repr(float(r.observed_ips))
        lines.append(
            f"{r.afferent_type},{r.stimulus_id},{float(r.freq_hz)!r},"
            f"{float(r.amplitude_um)!r},{float(r.predicted_ips)!r},{obs}\n"
        )
    return "".join(lines)


def regression(observed, predicted) -> dict:
    """OLS of predicted on observed, as the record regression_<TYPE>.json
    holds: slope, intercept, r_squared (the squared correlation), p_value
    (the two-sided t-test of nonzero slope) and n."""
    x = np.asarray(observed, dtype=float)
    y = np.asarray(predicted, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValidationError("observed and predicted must be 1-D and equal length")
    if x.size < 3:
        raise ValidationError(f"regression needs n >= 3, got {x.size}")
    if np.all(x == x[0]):
        raise ValidationError("observed values are all equal; slope is undefined")
    # centred (co)variances, formed in the order scipy.stats.linregress
    # forms them, so the two agree to the last bit in nearly every case
    d = np.stack([x, y])
    d -= d.mean(axis=1, keepdims=True)
    (sxx, sxy), (_, syy) = (d @ d.T) * (1.0 / x.size)
    slope = sxy / sxx
    intercept = y.mean() - slope * x.mean()
    # constant predictions leave r (and so R^2 and p) undefined: NaN
    r = np.clip(sxy / np.sqrt(sxx * syy), -1.0, 1.0) if syy > 0 else np.nan
    df = x.size - 2
    # the 1e-20 terms keep t finite (p = 0) for a perfect fit, |r| = 1
    t = r * np.sqrt(df / ((1.0 - r + 1e-20) * (1.0 + r + 1e-20)))
    return {
        "slope": float(slope), "intercept": float(intercept), "r_squared": float(r * r),
        "p_value": t_two_sided_p(float(t), df), "n": int(x.size),
    }


def t_two_sided_p(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's t with df degrees of freedom.

    This is the regularized incomplete beta I_x(df/2, 1/2) at
    x = df / (df + t^2), summed as a continued fraction on the side of its
    symmetry I_x(a, b) = 1 - I_(1-x)(b, a) where that converges fast.
    1 - x = t^2 / (df + t^2) is formed directly, not by subtraction, so p
    keeps its precision near 1 (t near 0).
    """
    if math.isnan(t):
        return math.nan
    t2 = t * t
    if t2 == 0.0:
        return 1.0
    if math.isinf(t2):
        return 0.0
    a, b = 0.5 * df, 0.5
    x, y = df / (df + t2), t2 / (df + t2)
    # x^a y^b / B(a, b), the factor both sides share
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log(y)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        if front < sys.float_info.min:  # underflow: p is 0, as stdtr reports it
            return 0.0
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, y) / b


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b) by the modified Lentz method;
    it converges in O(sqrt(max(a, b))) terms for x < (a + 1) / (a + b + 2)."""
    tiny = 1e-300  # stands in for a zero denominator
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):
        even = m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m))
        odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))
        for coeff in (even, odd):
            d = 1.0 + coeff * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + coeff / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-16:
            break
    return h
