"""Firing-rate extraction, rate tables, and rate regressions.

Rates are spike counts over a half-open window [discard, discard + window)
divided by the window length, in impulses per second (ips).  The minimum
nonzero rate is therefore 1/window (about 4.08 ips for the 245 ms window,
10 ips for the 100 ms window); records sitting exactly at that quantization
floor are flagged, since finer rates are unresolvable by counting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import ValidationError
from .neural import SpikeTrain


def firing_rate(train: SpikeTrain, discard_ms: float, window_ms: float) -> float:
    """Spikes in the window [discard, discard + window), per second.

    Counts with SpikeTrain.count_in_window, the step rule of simulate's
    rate table and of fitting.
    """
    if discard_ms < 0 or window_ms <= 0:
        raise ValidationError("need discard >= 0 and window > 0")
    if discard_ms + window_ms > train.duration_ms + 1e-9:
        raise ValidationError(
            f"window [{discard_ms}, {discard_ms + window_ms}) ms overruns the "
            f"simulated {train.duration_ms} ms"
        )
    n = train.count_in_window(discard_ms, discard_ms + window_ms)
    return n / (window_ms / 1000.0)


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


def rate_records_to_csv(records: list[RateRecord], path, provenance: str | None = None) -> None:
    floor_ids = [r.stimulus_id for r in records if r.at_quantization_floor]
    with open(path, "w") as fh:
        if provenance:
            fh.write(f"# provenance: {provenance}\n")
        if floor_ids:
            fh.write(f"# at_quantization_floor: {','.join(floor_ids)}\n")
        fh.write("afferent,stimulus_id,freq_hz,amplitude_um,predicted_ips,observed_ips\n")
        for r in records:
            obs = "" if r.observed_ips is None else repr(float(r.observed_ips))
            fh.write(
                f"{r.afferent_type},{r.stimulus_id},{float(r.freq_hz)!r},"
                f"{float(r.amplitude_um)!r},{float(r.predicted_ips)!r},{obs}\n"
            )


@dataclass(frozen=True)
class RegressionReport:
    slope: float
    intercept: float
    r_squared: float
    p_value: float
    n: int

    def to_dict(self) -> dict:
        return {
            "slope": self.slope, "intercept": self.intercept,
            "r_squared": self.r_squared, "p_value": self.p_value, "n": self.n,
        }


def regression(observed, predicted) -> RegressionReport:
    """OLS of predicted on observed; R^2 is the squared correlation and the
    p-value is the two-sided t-test of nonzero slope."""
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
    return RegressionReport(
        slope=float(slope), intercept=float(intercept), r_squared=float(r * r),
        p_value=float(2.0 * special.stdtr(df, -abs(t))), n=int(x.size),
    )
