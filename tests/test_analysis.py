import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special, stats

from afferentsim import analysis, neural, stimulus
from afferentsim.errors import ValidationError


DT = stimulus.DT_MS
# A leak-free RA cell that resets at each spike: an input held at a3 for one
# step drives it alpha'/2 * dt = 25 mV, past its 10 mV gap, so it spikes on
# the next step and rests until the next pulse.
PULSE_CELL = dataclasses.replace(neural.default_afferent_params()["RA"], tau_m_ms=1e9,
                                 alpha_prime=100.0, tau_r_ms=0.0)


def window_count(spikes_ms, start_ms, end_ms, duration_ms=345.0):
    """The kernel's count over [start, end) of a cell that spikes at exactly
    `spikes_ms`, each a step time, in a trace of `duration_ms`."""
    steps = np.round(np.asarray(spikes_ms, dtype=float) / DT).astype(int)
    feature = np.zeros(round(duration_ms / DT) + 1)
    feature[steps - 1] = PULSE_CELL.a3_pa_per_ms
    counter = neural.SpikeCounter([(feature,)], [(start_ms, end_ms)])
    (count,), ((got,),) = counter.spike_steps(neural.ParamTable.from_params([PULSE_CELL]))
    assert got.tolist() == steps.tolist()  # the cell spiked where it was meant to
    return int(count[0])


# ------------------------------------------------------------- firing rate
# A rate is the kernel's count over [discard, discard + window) divided by
# window / 1000, the one expression simulate and fit use.


def test_firing_rate_basic():
    spikes = 100.0 + 10.0 * np.arange(10)  # ten spikes inside the window
    assert window_count(spikes, 100.0, 200.0, duration_ms=200.0) == 10


def test_firing_rate_window_edges():
    # half-open window [discard, discard + window): a spike on its first
    # step counts and one on its end step does not; edges between step
    # times move up to the next step time
    spikes = [99.5, 100.0, 199.5, 200.0, 250.0]
    assert window_count(spikes, 100.0, 200.0) == 2
    assert window_count(spikes, 99.6, 199.6) == 2
    assert window_count(spikes, 99.4, 199.6) == 3
    assert window_count([], 100.0, 345.0) == 0


def test_firing_rate_discard_excludes_onset():
    assert window_count([5.0, 20.0, 50.0, 99.0], 100.0, 200.0, duration_ms=200.0) == 0


def test_firing_rate_window_overrun():
    # a window must end within the trace its stimulus renders, which can
    # fall short of duration_ms: the protocol is refused when it loads
    def spec(duration, window):
        return stimulus.StimulusSpec(
            stimulus_id="s", kind="sinusoid", duration_ms=duration,
            discard_ms=100.0, window_ms=window, freq_hz=50.0, amplitude_um=10.0,
        )
    with pytest.raises(ValidationError, match=r"overruns the rendered 200.0 ms trace"):
        spec(200.0, 150.0).validate()
    with pytest.raises(ValidationError, match=r"\[100.0, 200.2\) ms overruns the "
                                              r"rendered 200.0 ms trace"):
        spec(200.2, 100.2).validate()  # 400 steps of 0.5 ms end at 200.0 ms
    spec(200.0, 100.0).validate()  # exactly fits
    spec(200.2, 100.0).validate()


def test_firing_rate_single_spike_quantum():
    # one spike in the window is the smallest nonzero rate, and its record
    # sits at the quantization floor
    for spike, duration, window in ((200.0, 345.0, 245.0), (150.0, 200.0, 100.0)):
        rate = window_count([spike], 100.0, 100.0 + window, duration) / (window / 1000.0)
        assert rate == pytest.approx(1000.0 / window)
        rec = analysis.RateRecord("RA", "s", 20.0, 6.71, predicted_ips=rate,
                                  window_ms=window)
        assert rec.at_quantization_floor


@settings(max_examples=25, deadline=None)
@given(st.floats(0.0, 500.0))
def test_firing_rate_shift_invariance(shift):
    # spikes land on step times, so the drawn shift moves them by its whole steps
    shift = DT * (shift // DT)
    base = np.array([110.0, 130.0, 180.0, 210.0, 300.0])
    n0 = window_count(base, 100.0, 345.0, duration_ms=400.0)
    assert window_count(base + shift, 100.0 + shift, 345.0 + shift, 400.0 + shift) == n0


# -------------------------------------------------------------- rate table


def test_rate_record_quantization_floor():
    rec = analysis.RateRecord("SA", "s1", 20.0, 6.71, predicted_ips=1.0 / 0.245,
                              window_ms=245.0)
    assert rec.at_quantization_floor
    rec2 = analysis.RateRecord("SA", "s2", 20.0, 9.32, predicted_ips=2.0 / 0.245,
                               window_ms=245.0)
    assert not rec2.at_quantization_floor
    rec3 = analysis.RateRecord("SA", "s3", 20.0, 9.32, predicted_ips=0.0,
                               window_ms=245.0)
    assert not rec3.at_quantization_floor


def test_rate_records_csv():
    records = [
        analysis.RateRecord("SA", "s1", 20.0, 6.71, predicted_ips=1 / 0.245,
                            observed_ips=12.5, window_ms=245.0),
        analysis.RateRecord("RA", "s2", 50.0, 10.66, predicted_ips=40.0,
                            window_ms=100.0),
        analysis.RateRecord("PC", "s1", 20.0, 6.71, predicted_ips=1 / 0.245,
                            window_ms=245.0),
    ]
    lines = analysis.rate_records_to_csv(records, provenance="prov").splitlines()
    assert lines[0] == "# provenance: prov"
    # each flagged row by type and stimulus, so a stimulus flagged for two
    # types is named twice, once per type
    assert lines[1] == "# at_quantization_floor: SA:s1,PC:s1"
    assert lines[2] == "afferent,stimulus_id,freq_hz,amplitude_um,predicted_ips,observed_ips"
    assert lines[3].startswith("SA,s1,20.0,6.71,")
    assert lines[3].endswith(",12.5")
    assert lines[4].endswith(",")  # missing observation stays blank
    assert lines[5].startswith("PC,s1,20.0,6.71,")


# -------------------------------------------------------------- regression


def test_regression_identity():
    x = np.array([1.0, 5.0, 9.0, 12.0, 30.0])
    rep = analysis.regression(x, x)
    assert rep["slope"] == pytest.approx(1.0, rel=1e-12)
    assert rep["intercept"] == pytest.approx(0.0, abs=1e-12)
    assert rep["r_squared"] == pytest.approx(1.0, rel=1e-12)
    assert rep["p_value"] < 1e-4
    assert rep["n"] == 5


def test_regression_affine():
    x = np.array([0.0, 1.0, 2.0, 4.0, 8.0, 16.0])
    rep = analysis.regression(x, 2.0 * x + 3.0)
    assert rep["slope"] == pytest.approx(2.0, rel=1e-12)
    assert rep["intercept"] == pytest.approx(3.0, rel=1e-12)
    assert rep["r_squared"] == pytest.approx(1.0, rel=1e-12)


def _longdouble_regression(x, y):
    """Normal-equation fit in extended precision, for cross-checking."""
    x = np.asarray(x, dtype=np.longdouble)
    y = np.asarray(y, dtype=np.longdouble)
    n = x.size
    sx, sy = x.sum(), y.sum()
    sxx, sxy = (x * x).sum(), (x * y).sum()
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    intercept = (sy - slope * sx) / n
    r = (n * sxy - sx * sy) / np.sqrt(
        (n * sxx - sx * sx) * (n * (y * y).sum() - sy * sy)
    )
    r2 = r * r
    t = r * np.sqrt((n - 2) / (1 - r2)) if r2 < 1 else np.inf
    p = 2.0 * stats.t.sf(abs(float(t)), df=int(n - 2))
    return float(slope), float(intercept), float(r2), float(p)


def test_regression_against_normal_equations(rng):
    x = rng.uniform(0.0, 120.0, size=20)
    y = 0.8 * x + 4.0 + rng.normal(scale=6.0, size=20)
    rep = analysis.regression(x, y)
    slope, intercept, r2, p = _longdouble_regression(x, y)
    assert rep["slope"] == pytest.approx(slope, rel=1e-9)
    assert rep["intercept"] == pytest.approx(intercept, rel=1e-9)
    assert rep["r_squared"] == pytest.approx(r2, rel=1e-9)
    assert rep["p_value"] == pytest.approx(p, rel=1e-6)
    assert rep["n"] == 20


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(3, 40), slope=st.floats(-2.0, 2.0), noise=st.floats(0.0, 50.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=4, slope=0.0, noise=0.0, seed=0)  # constant predictions
def test_regression_matches_linregress(n, slope, noise, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 150.0, size=n)
    y = slope * x + 4.0 + rng.normal(scale=noise, size=n)
    rep = analysis.regression(x, y)
    ref = stats.linregress(x, y)
    # relative bounds only (abs=0), so p-values far below 1e-12 count too;
    # constant predictions give NaN R^2 and p on both sides
    assert rep["slope"] == pytest.approx(ref.slope, rel=1e-12, abs=0)
    assert rep["intercept"] == pytest.approx(ref.intercept, rel=1e-12, abs=0)
    assert rep["r_squared"] == pytest.approx(ref.rvalue**2, rel=1e-12, abs=0, nan_ok=True)
    assert rep["p_value"] == pytest.approx(ref.pvalue, rel=1e-9, abs=0, nan_ok=True)


def test_t_p_value_closed_forms():
    # df = 1 (Cauchy): 1 - (2/pi) atan|t| = (2/pi) atan(1/|t|);
    # df = 2: 1 - |t|/sqrt(2 + t^2) = 2 / (s (s + |t|)), s = sqrt(2 + t^2).
    # The right-hand forms have no cancellation, so they are exact to a few
    # ulps at every t.
    for t in np.concatenate([[1e-300, 1e-12, 1.04e-8, 1e-3], np.geomspace(0.01, 1e12, 60)]):
        s = math.sqrt(2.0 + t * t)
        for sign in (1.0, -1.0):
            assert analysis.t_two_sided_p(sign * t, 1) == pytest.approx(
                2.0 / math.pi * math.atan(1.0 / t), rel=1e-13, abs=0), t
            assert analysis.t_two_sided_p(sign * t, 2) == pytest.approx(
                2.0 / (s * (s + t)), rel=1e-13, abs=0), t


def test_t_p_value_matches_stdtr():
    # below |t| = 1e-3 stdtr itself drifts from the exact tail
    for df in range(1, 61):
        for t in np.geomspace(1e-3, 1e6, 40):
            expected = 2.0 * special.stdtr(df, -t)
            got = analysis.t_two_sided_p(float(t), df)
            assert got == pytest.approx(expected, rel=2e-12, abs=0), (df, t)


def test_t_p_value_limits():
    assert analysis.t_two_sided_p(0.0, 5) == 1.0
    assert analysis.t_two_sided_p(math.inf, 5) == 0.0
    assert analysis.t_two_sided_p(-math.inf, 5) == 0.0
    assert math.isnan(analysis.t_two_sided_p(math.nan, 5))
    # p below the smallest normal double is reported as 0, as stdtr does
    assert analysis.t_two_sided_p(4e10, 32) == 0.0 == special.stdtr(32, -4e10)


def test_regression_degenerate_inputs():
    with pytest.raises(ValidationError):
        analysis.regression([1.0, 2.0], [1.0, 2.0])  # too few points
    with pytest.raises(ValidationError):
        analysis.regression([1.0, 2.0, 3.0], [1.0, 2.0])  # length mismatch
    with pytest.raises(ValidationError):
        analysis.regression([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])  # zero variance


@settings(max_examples=25, deadline=None)
@given(st.floats(0.1, 50.0), st.floats(-100.0, 100.0))
def test_r_squared_affine_invariance(scale, offset):
    x = np.array([3.0, 7.0, 11.0, 12.5, 20.0, 41.0])
    y = np.array([5.0, 6.5, 14.0, 11.0, 22.0, 39.0])
    base = analysis.regression(x, y)
    scaled = analysis.regression(x, scale * y + offset)
    assert scaled["r_squared"] == pytest.approx(base["r_squared"], rel=1e-9)
    assert scaled["slope"] == pytest.approx(scale * base["slope"], rel=1e-9)


def test_regression_report_dict():
    rep = analysis.regression([1.0, 2.0, 3.0], [1.0, 2.1, 2.9])
    assert set(rep) == {"slope", "intercept", "r_squared", "p_value", "n"}
