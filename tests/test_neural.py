import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afferentsim import neural
from afferentsim.neural import SATURATION_FIELDS
from afferentsim.errors import ValidationError
from oracles import stress_to_drive

DT = 0.5
PARAMS = neural.default_afferent_params()


def drive_for(stress, params):
    return stress_to_drive(neural.filtered_inputs(params, stress), params)


def whole_trace_steps(features, params):
    """Spike steps, [parameter set][stimulus], over whole input traces."""
    counter = neural.SpikeCounter(features, [(0.0, len(f[0]) * DT) for f in features])
    return counter.spike_steps(neural.ParamTable.from_params(params))[1]


def constant_drive_steps(params, drives, n=2001):
    """Spike steps under each constant drive d in `drives` (mV/ms).  Inputs
    held at the saturation constants make each term exactly 1/2, so
    alpha' = 2d/n_terms gives the drive d bit for bit."""
    sats = params.saturation()
    units = [dataclasses.replace(params, alpha_prime=2.0 * d / len(sats))
             for d in drives]
    steps = whole_trace_steps([tuple(np.full(n, a) for a in sats)], units)
    return [s for (s,) in steps]


# ---------------------------------------------------------------- filters


def test_derivative_constant_and_ramp():
    const = np.full(50, 3.2)
    d = neural.derivative(const)
    assert np.all(d == 0.0)
    slope = 4.0  # per ms
    ramp = slope * np.arange(50) * DT
    d = neural.derivative(ramp)
    assert d[0] == 0.0
    assert np.allclose(d[1:], slope, atol=1e-12)


def test_derivative_sinusoid_accuracy():
    f = 50.0  # Hz
    t = np.arange(801) * DT
    x = np.sin(2 * np.pi * f * t / 1000.0)
    d = neural.derivative(x)
    w = 2 * np.pi * f / 1000.0  # rad per ms
    exact = w * np.cos(w * t)
    # backward difference has truncation error <= w^2 * dt / 2
    bound = 0.5 * w**2 * DT + 1e-12
    assert np.abs(d[1:] - exact[1:]).max() <= bound


def test_moving_average_abs_constant():
    x = np.full(100, -2.5)
    y = neural.moving_average_abs(x, 9, 9)
    assert y.shape == x.shape
    # interior is exactly |c|; edges are zero-padded so magnitude shrinks
    assert np.allclose(y[9:-9], 2.5, atol=1e-12)
    assert y[0] == pytest.approx(2.5 * 10 / 19)
    assert np.all(y <= 2.5 + 1e-12)


def test_moving_average_abs_impulse():
    x = np.zeros(60)
    x[30] = -19.0
    y = neural.moving_average_abs(x, 9, 9)
    # the impulse spreads uniformly over the 19-sample window
    nz = np.flatnonzero(y)
    assert nz.tolist() == list(range(21, 40))
    assert np.allclose(y[nz], 1.0, atol=1e-12)


def test_moving_average_abs_matches_direct_sum(rng):
    x = rng.normal(size=200)
    for m_before, m_after in [(9, 9), (9, 8), (0, 0), (3, 7)]:
        y = neural.moving_average_abs(x, m_before, m_after)
        width = m_before + m_after + 1
        expected = np.empty_like(x)
        for t in range(len(x)):
            acc = 0.0
            # window [t - m_after, t + m_before], zero outside the trace
            for n in range(-m_after, m_before + 1):
                j = t + n
                if 0 <= j < len(x):
                    acc += abs(x[j])
            expected[t] = acc / width
        assert np.allclose(y, expected, atol=1e-12)


def test_moving_average_abs_memory_is_bounded_by_the_trace(rng):
    """Half-widths far past the trace cost no more memory than the trace:
    each is clipped to n - 1, where the window already ends, and the mean
    still divides by the declared width.  At m = 10**6 on a 691-sample trace
    the traced peak stays under 1 MB (a full-width kernel takes 32 MB), and
    every sample is within 1e-12 relative of a direct windowed sum."""
    x = rng.normal(size=691)
    ax = np.abs(x)
    for m_before, m_after in [(10**6, 10**6), (10**6, 5), (4, 10**6), (690, 691)]:
        tracemalloc.start()
        try:
            y = neural.moving_average_abs(x, m_before, m_after)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6, (m_before, m_after, peak)
        width = m_before + m_after + 1
        expected = np.array([
            math.fsum(ax[max(t - m_after, 0):t + m_before + 1]) / width
            for t in range(x.size)
        ])
        assert np.all(np.abs(y - expected) <= 1e-12 * expected), (m_before, m_after)


def test_abs_difference_filter():
    const = np.full(40, 7.0)
    assert np.all(neural.abs_difference_filter(const) == 0.0)
    ramp = 3.0 * np.arange(40) * DT
    y = neural.abs_difference_filter(ramp)
    assert y[0] == 0.0
    assert np.allclose(y[1:], 3.0 * DT, atol=1e-12)
    alternating = np.resize([1.0, -1.0], 40)
    y = neural.abs_difference_filter(alternating)
    assert np.allclose(y[1:], 2.0, atol=1e-12)


# ---------------------------------------------------------- drive transform


def test_zero_stress_zero_drive():
    for params in PARAMS.values():
        drive = drive_for(np.zeros(300), params)
        assert np.all(drive == 0.0)


def test_half_saturation_points():
    ra = PARAMS["RA"]
    # constant-slope stress: |d sigma/dt| equals a3 -> drive = alpha'/2
    ramp = ra.a3_pa_per_ms * np.arange(100) * DT
    drive = drive_for(ramp, ra)
    assert drive[1] == pytest.approx(ra.alpha_prime / 2.0, rel=1e-12)
    assert drive[1] == pytest.approx(5.115, abs=5e-4)

    pc = PARAMS["PC"]
    # build stress by double cumulative integration so that the second
    # derivative ramps by exactly a4 per step
    d2 = pc.a4_pa_per_ms2 * np.maximum(0, np.arange(100) - 1).astype(float)
    s1 = DT * np.cumsum(d2)
    s0 = DT * np.cumsum(s1)
    drive = drive_for(s0, pc)
    assert drive[10] == pytest.approx(pc.alpha_prime / 2.0, rel=1e-9)
    assert drive[10] == pytest.approx(2.07, abs=5e-4)

    # the saturating transform itself, probed exactly at each half point
    half_ra = stress_to_drive((np.full(5, ra.a3_pa_per_ms),), ra)
    assert np.allclose(half_ra, 5.115, atol=1e-12)
    half_pc = stress_to_drive((np.full(5, pc.a4_pa_per_ms2),), pc)
    assert np.allclose(half_pc, 2.07, atol=1e-12)


def test_drive_bounded_by_alpha(rng):
    stress = np.abs(rng.normal(scale=5e4, size=400))
    for name, params in PARAMS.items():
        drive = drive_for(stress, params)
        n_terms = len(params.saturation())
        assert np.all(drive >= 0.0)
        # each saturating term contributes strictly less than alpha'
        assert np.all(drive < n_terms * params.alpha_prime), name


def test_sa_drive_uses_two_terms():
    sa = PARAMS["SA"]
    # large constant stress saturates the first term only; the derivative
    # term is zero, so the drive tends to alpha'*(1) not alpha'*(2)
    stress = np.full(300, 1e9)
    mid = drive_for(stress, sa)[50]
    # term 1 saturates to within a1/|f1| of 1; term 2 sees a zero derivative
    assert mid == pytest.approx(sa.alpha_prime, rel=1e-5)
    assert mid < sa.alpha_prime


# ------------------------------------------------------------------- LIF


def test_zero_drive_rests():
    for params in PARAMS.values():
        zeros = tuple(np.zeros(2001) for _ in params.saturation())
        assert whole_trace_steps([zeros], [params])[0][0].size == 0
        # zero stress filters to zero input, hence zero drive
        (steps,), counts = neural.run_afferents([np.zeros(2001)], params, [(0.0, 1000.0)])
        assert steps.size == 0 and counts.tolist() == [0]


def test_subthreshold_asymptote():
    """The potential tends to u_rest + tau*d: a drive just below
    (theta - u_rest)/tau never fires, one just above does."""
    for params in PARAMS.values():
        rheobase = (params.threshold_mv - params.u_rest_mv) / params.tau_m_ms
        # 12 000 steps: 9.4 tau_m for PC, the slowest type to reach threshold
        below, above = constant_drive_steps(
            params, [rheobase * (1.0 - 1e-3), rheobase * (1.0 + 1e-3)], n=12001,
        )
        assert below.size == 0, params.afferent_type
        assert above.size > 0, params.afferent_type


def test_membrane_trace_below_threshold():
    """Rebuilt from the kernel's spike steps, with a reset at each of them,
    the membrane stays below threshold: it crosses exactly at the recorded
    steps and shows the reset value there."""
    ra = PARAMS["RA"]
    d = 2.0 * (ra.threshold_mv - ra.u_reset_mv) / ra.tau_m_ms
    (steps,) = constant_drive_steps(ra, [d], n=8001)
    assert steps.size > 0
    c1 = 1.0 - DT / ra.tau_m_ms
    n_refr = int(np.ceil(ra.tau_r_ms / DT))
    spiked = np.zeros(8001, dtype=bool)
    spiked[steps] = True
    membrane = np.empty(8001)
    membrane[0] = ra.u_rest_mv
    refr = 0
    for k in range(8000):
        dk = 0.0 if refr > 0 else d
        refr = max(refr - 1, 0)
        u = c1 * membrane[k] + (1.0 - c1) * ra.u_rest_mv + DT * dk
        assert (u >= ra.threshold_mv) == spiked[k + 1], k + 1
        membrane[k + 1] = ra.u_reset_mv if spiked[k + 1] else u
        if spiked[k + 1]:
            refr = n_refr
    assert np.all(membrane < ra.threshold_mv)
    assert np.allclose(membrane[steps], ra.u_reset_mv)


def test_refractory_gap_enforced():
    for params in PARAMS.values():
        (steps,) = constant_drive_steps(params, [100.0])  # very strong drive
        spikes = steps * DT
        assert spikes.size > 1
        assert np.diff(spikes).min() >= params.tau_r_ms - DT / 2


def _lif_spike_steps_py(terms, p):
    """Scalar integrate-and-fire loop of parameter set p over its inputs
    `terms`; the oracle for SpikeCounter."""
    drive = stress_to_drive(terms, p)
    c1 = 1.0 - DT / p.tau_m_ms
    n_refr = int(np.ceil(p.tau_r_ms / DT))
    uk = p.u_rest_mv
    refr = 0
    steps = []
    for k in range(drive.shape[0] - 1):
        d = drive[k]
        if refr > 0:
            d = 0.0
            refr -= 1
        uk = c1 * uk + (1.0 - c1) * p.u_rest_mv + DT * d
        if uk >= p.threshold_mv:
            steps.append(k + 1)
            uk = p.u_reset_mv
            refr = n_refr
    return steps


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    afferent=st.sampled_from(["SA", "RA", "PC"]),
    n_stim=st.integers(1, 5),
    n_par=st.integers(1, 4),
)
def test_spike_counter_matches_scalar_loop(seed, afferent, n_stim, n_par):
    """Batched spike steps equal the scalar loop's, unit by unit, to each
    trace's end, and so do the window counts, from a call and from the
    spike_steps pass alike.

    Each example draws one cell, with u_reset < u_rest and tau_r among 0,
    0.5, 1 and 2.5 ms, and its sets draw tau_m, alpha' and the saturation
    constants, half of them a tau_m below the step.  There c1 = 1 - dt/tau_m
    < 0: a unit reset below rest overshoots past rest with the drive gated
    off, so it can reach threshold while refractory, and its gate must
    restart at that latest spike, as the scalar loop's countdown does."""
    rng = np.random.default_rng(seed)
    features, windows = [], []
    for _ in range(n_stim):
        n = int(rng.integers(0, 300))  # mixed lengths, some too short to run
        scale = 10.0 ** rng.uniform(0.0, 5.0)
        terms = tuple(
            np.abs(rng.normal(scale=scale, size=n)) * (rng.random(n) < 0.8)
            for _ in SATURATION_FIELDS[afferent]
        )
        start = float(rng.uniform(0.0, 80.0))
        features.append(terms)
        # windows may run past the end of the trace
        windows.append((start, start + float(rng.uniform(0.0, 250.0))))
    theta = float(rng.uniform(-60.0, -40.0))
    u_rest = theta - float(rng.uniform(1.0, 20.0))
    cell = dataclasses.replace(
        PARAMS[afferent],
        tau_r_ms=float(rng.choice([0.0, 0.5, 1.0, 2.5])),
        threshold_mv=theta,
        u_rest_mv=u_rest,
        u_reset_mv=u_rest - float(rng.uniform(0.5, 15.0)),
    )
    params = []
    for _ in range(n_par):
        updates = {
            "tau_m_ms": float(rng.uniform(0.1, 0.25) if rng.random() < 0.5
                              else rng.uniform(1.0, 2000.0)),
            "alpha_prime": float(rng.uniform(0.01, 100.0)),
        }
        for name in SATURATION_FIELDS[afferent]:
            updates[name] = float(10.0 ** rng.uniform(0.0, 6.0))
        params.append(dataclasses.replace(cell, **updates))

    counter = neural.SpikeCounter(features, windows)
    table = neural.ParamTable.from_params(params)
    got = counter(table)
    got_counts, got_steps = counter.spike_steps(table)
    assert got.shape == (n_par, n_stim)
    assert np.array_equal(got_counts, got)
    for i, p in enumerate(params):
        for s, (terms, (start, end)) in enumerate(zip(features, windows)):
            steps = _lif_spike_steps_py(terms, p)
            k_lo, k_hi = neural.window_steps(start, end)
            # every unit runs to its trace end: spikes after the window are kept
            assert got_steps[i][s].tolist() == steps, (i, s)
            assert got[i, s] == sum(k_lo <= k < k_hi for k in steps), (i, s)


def test_param_table_holds_sets_of_one_cell():
    """A table is N sets of one cell.  from_params refuses sets that differ
    in anything but tau_m, alpha' and the saturation constants, naming the
    field, and an empty list; a table refuses saturation rows that are not
    its cell type's terms and a column that breaks its rule."""
    sa = PARAMS["SA"]
    other = dataclasses.replace(sa, tau_m_ms=5.0, alpha_prime=3.0, a1_pa=7.0,
                                a2_pa_per_ms=8.0, a3_pa_per_ms=9.0)
    table = neural.ParamTable.from_params([sa, other])
    assert table.cell is sa and len(table) == 2
    assert table.tau_m_ms.tolist() == [sa.tau_m_ms, 5.0]
    assert table.alpha_prime.tolist() == [sa.alpha_prime, 3.0]
    assert table.saturation.tolist() == [[sa.a1_pa, 7.0], [sa.a2_pa_per_ms, 8.0]]
    for name, value in (("afferent_type", "RA"), ("threshold_mv", -52.0),
                        ("u_rest_mv", -64.0), ("u_reset_mv", -70.0),
                        ("tau_r_ms", 0.5), ("m1", 3), ("m4", 9)):
        with pytest.raises(ValidationError,
                           match=f"parameter set 2 differs from set 0 in {name}$"):
            neural.ParamTable.from_params([sa, other, dataclasses.replace(other, **{name: value})])
    with pytest.raises(ValidationError, match="need at least one parameter set"):
        neural.ParamTable.from_params([])
    for rows in ([[1.0]], [[1.0], [2.0], [3.0]], np.ones((2, 0))):
        with pytest.raises(ValidationError, match=r"SA saturation must have shape \(2, N\)"):
            neural.ParamTable(sa, [1.0], [1.0], rows)
    with pytest.raises(ValidationError, match=r"alpha_prime must have shape \(2,\)"):
        neural.ParamTable(sa, [1.0, 2.0], [1.0], np.ones((2, 2)))
    with pytest.raises(ValidationError, match="tau_m_ms must be > 0; parameter set 1 breaks it"):
        neural.ParamTable(sa, [1.0, -1.0], [1.0, 1.0], np.ones((2, 2)))


@pytest.mark.parametrize("block", [1, 3, 16, 10_000])
def test_spike_counter_is_block_invariant(monkeypatch, block):
    """Spike steps and window counts do not depend on how many steps of drive
    are formed at once: every block size gives the scalar loop's.

    The units mix n_refr = ceil(tau_r/dt) of 0, 1, 2 and 5.  Those with
    tau_m < dt (c1 = -4) and a reset below rest overshoot past threshold
    while refractory: half of them on every step, half every third step,
    so lags reach back across block boundaries.  The windows open at steps
    11 and 25 and close at steps 77 and 53, inside blocks of 3 and of 16;
    the second runs past its trace's end at step 47, so it counts to there.
    The last window opens at step 90, after its trace has stopped, so it
    counts nothing.  The units of one tau_r differ in u_reset, so each unit
    is a cell of its own and runs as its own table."""
    monkeypatch.setattr(neural, "STEP_BLOCK", block)
    rng = np.random.default_rng(3)
    features, windows = [], [(5.5, 38.5), (0.0, 100.0), (12.5, 26.5), (45.0, 60.0)]
    for n in (80, 47, 61, 29):
        features.append(tuple(np.abs(rng.normal(scale=2e4, size=n)) * (rng.random(n) < 0.8)
                              for _ in range(2)))
    params = []
    for tau_r in (0.0, 0.5, 1.0, 2.5):
        params.append(dataclasses.replace(PARAMS["SA"], tau_m_ms=20.0, alpha_prime=4.0,
                                          threshold_mv=-55.0, tau_r_ms=tau_r))
        for below_rest in (5.0, 0.5):
            params.append(dataclasses.replace(
                PARAMS["SA"], tau_m_ms=0.1, threshold_mv=-55.0, u_rest_mv=-65.0,
                u_reset_mv=-65.0 - below_rest, tau_r_ms=tau_r))

    counter = neural.SpikeCounter(features, windows)
    got_steps = []
    for i, p in enumerate(params):
        table = neural.ParamTable.from_params([p])
        (got,), ((counts,), (unit_steps,)) = counter(table), counter.spike_steps(table)
        got_steps.append(unit_steps)
        assert np.array_equal(counts, got)
        for s, (terms, (start, end)) in enumerate(zip(features, windows)):
            steps = _lif_spike_steps_py(terms, p)
            k_lo, k_hi = neural.window_steps(start, end)
            assert unit_steps[s].tolist() == steps, (i, s)
            assert got[s] == sum(k_lo <= k < k_hi for k in steps), (i, s)
    # the overshooting units with n_refr = 5 spike 1 and 3 steps apart
    assert set(np.diff(got_steps[10][0])) == {1}
    assert 3 in set(np.diff(got_steps[11][0]))


def test_window_counts_above_a_byte_match_scalar_loop():
    """Counts of more than 255 spikes per window equal the scalar loop's, so
    the counter's byte-wide partial sums cross a chunk boundary exactly.

    With tau_r = 0 and a drive of 25 mV per step against a 10 mV gap, the
    first unit fires on every step of a 600-step window; the others fire
    every third or fourth step, and one stimulus opens its window at step
    21."""
    sa = PARAMS["SA"]
    features = [tuple(np.full(700, a) for a in sa.saturation())] * 2
    windows = [(0.0, 300.0), (10.5, 320.0)]
    params = [dataclasses.replace(sa, tau_r_ms=0.0, tau_m_ms=1e6, alpha_prime=alpha)
              for alpha in (50.0, 15.0, 9.0)]
    got = neural.SpikeCounter(features, windows)(
        neural.ParamTable.from_params(params))
    for i, p in enumerate(params):
        for s, (terms, (start, end)) in enumerate(zip(features, windows)):
            steps = _lif_spike_steps_py(terms, p)
            k_lo, k_hi = neural.window_steps(start, end)
            assert got[i, s] == sum(k_lo <= k < k_hi for k in steps), (i, s)
    # the first unit's counts span three byte-wide chunks
    assert got[0].min() > 2 * 255 and got[2].max() < 255


def test_spike_counter_working_memory_does_not_grow_with_the_trace():
    """One call's traced peak at 4 000 steps exceeds its peak at 400 by far
    less than a spike record of every step would take (3 600 steps x 4
    stimuli x 50 sets, one byte each): the record keeps only the rows the
    refractory lags read, and the window counts are summed as it runs."""
    rng = np.random.default_rng(5)
    params = [dataclasses.replace(PARAMS["SA"], alpha_prime=float(a))
              for a in np.linspace(1.0, 20.0, 50)]
    table = neural.ParamTable.from_params(params)
    peaks = []
    for n in (400, 4000):
        features = [tuple(np.abs(rng.normal(scale=2e4, size=n)) for _ in range(2))
                    for _ in range(4)]
        counter = neural.SpikeCounter(features, [(10.0, n * DT)] * 4)
        assert counter(table).sum() > 0
        tracemalloc.start()
        try:
            counter(table)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 3600 * 4 * 50 / 10


def test_count_spikes_in_window_matches_simulation():
    """The counter's window count equals the count of the whole-trace spike
    times in [lo, hi), from a call and from the spike_steps pass, whose
    steps are the whole trace's.  The window closes before the last step of
    the trace, so the count is the snapshot taken where it closes."""
    ra = PARAMS["RA"]
    d = 2.0 * (ra.threshold_mv - ra.u_reset_mv) / ra.tau_m_ms
    # the constant feature whose saturating drive is close to d
    feature = np.full(691, ra.a3_pa_per_ms * d / (ra.alpha_prime - d))
    spike_times_ms = whole_trace_steps([(feature,)], [ra])[0][0] * DT
    lo, hi = 100.0, 345.0
    expected = np.count_nonzero((spike_times_ms >= lo) & (spike_times_ms < hi))
    assert expected > 0
    counter = neural.SpikeCounter([(feature,)], [(lo, hi)])
    table = neural.ParamTable.from_params([ra])
    got = counter(table)
    counts, ((steps,),) = counter.spike_steps(table)
    assert got.shape == (1, 1)
    assert got[0, 0] == expected
    assert np.array_equal(counts, got)
    assert np.array_equal(steps * DT, spike_times_ms)


def test_time_shift_equivariance(rng):
    """Prepending k zero inputs shifts every spike by exactly k steps."""
    ra = PARAMS["RA"]
    base = np.abs(rng.normal(scale=0.5, size=1200)) * 0.4 * ra.a3_pa_per_ms
    k = 40
    shifted = np.concatenate([np.zeros(k), base])
    s0, s1 = whole_trace_steps([(base,), (shifted,)], [ra])[0]
    assert s0.size > 0
    assert np.array_equal(s1, s0 + k)


# ----------------------------------------------------------- composition


def test_run_afferents_composition(rng):
    """One call over several traces gives each trace the spike steps of its
    own filter chain through the counter, whole whatever its window, and
    the count of its spikes in its window."""
    traces = [np.abs(rng.normal(scale=2e4, size=n)) for n in (691, 401, 691)]
    windows = [(100.0, 345.0), (50.0, 150.0), (0.0, 400.0)]
    for params in PARAMS.values():
        spiked, counts = neural.run_afferents(traces, params, windows)
        assert len(spiked) == len(traces) and counts.shape == (len(traces),)
        for j, (trace, got) in enumerate(zip(traces, spiked)):
            inputs = neural.filtered_inputs(params, trace)
            steps = whole_trace_steps([inputs], [params])[0][0]
            assert np.array_equal(got, steps)
            k_lo, k_hi = neural.window_steps(*windows[j])
            assert counts[j] == np.count_nonzero((steps >= k_lo) & (steps < k_hi))
            (alone,), _ = neural.run_afferents([trace], params, [windows[j]])
            assert np.array_equal(got, alone)


def test_constant_stress_silences_ra_pc():
    stress = np.full(691, 5e4)
    for name in ("RA", "PC"):
        (steps,), _ = neural.run_afferents([stress], PARAMS[name], [(0.0, 345.0)])
        # rate-sensitive types ignore the standing load (only the onset
        # transient at sample 1 can contribute)
        assert steps.size <= 1


def test_params_validation_and_hash():
    sa = PARAMS["SA"]
    assert sa.content_hash() == PARAMS["SA"].content_hash()
    assert sa.content_hash() != PARAMS["RA"].content_hash()
    with pytest.raises(ValidationError):
        neural.AfferentParams(
            afferent_type="SA", tau_m_ms=-1.0, alpha_prime=1.0,
            a1_pa=100.0, a2_pa_per_ms=100.0,
        )
    with pytest.raises(ValidationError):
        neural.AfferentParams(
            afferent_type="RA", tau_m_ms=10.0, alpha_prime=1.0,
        )  # missing a3
    with pytest.raises(ValidationError):
        neural.AfferentParams(
            afferent_type="SA", tau_m_ms=10.0, alpha_prime=1.0,
            a1_pa=100.0, a2_pa_per_ms=100.0, threshold_mv=-70.0,
        )  # threshold below rest never fires sensibly
    d = sa.to_dict()
    assert neural.AfferentParams.from_dict(d) == sa


def test_default_params_table():
    sa, ra, pc = PARAMS["SA"], PARAMS["RA"], PARAMS["PC"]
    assert (sa.tau_m_ms, sa.alpha_prime) == (32.14, 1.79)
    assert (sa.a1_pa, sa.a2_pa_per_ms) == (1926.32, 9850.98)
    assert (sa.threshold_mv, sa.tau_r_ms) == (-50.0, 1.0)
    assert (ra.tau_m_ms, ra.a3_pa_per_ms, ra.alpha_prime) == (456.70, 17191.87, 10.23)
    assert (ra.threshold_mv, ra.tau_r_ms) == (-55.0, 0.5)
    assert (pc.tau_m_ms, pc.a4_pa_per_ms2, pc.alpha_prime) == (639.85, 16.34, 4.14)
    assert (pc.threshold_mv, pc.tau_r_ms) == (-55.0, 0.5)
    for p in PARAMS.values():
        assert p.u_rest_mv == -65.0 and p.u_reset_mv == -65.0
        assert (p.m1, p.m2, p.m3, p.m4) == (9, 9, 9, 8)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.0, 20.0))
def test_drive_monotone_in_stress_scale(scale):
    """Scaling a stress trace up never lowers the drive anywhere."""
    t = np.arange(200) * DT
    base = 1e4 * (1.0 + np.sin(2 * np.pi * 30.0 * t / 1000.0))
    for params in PARAMS.values():
        lo = drive_for(base, params)
        hi = drive_for(base * (1.0 + scale), params)
        # tolerance covers rounding noise in the double-difference chain,
        # which is amplified by 1/dt^2 relative to the stress magnitude
        assert np.all(hi >= lo - 1e-7)
