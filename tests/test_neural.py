import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afferentsim import neural
from afferentsim.optimize import _SAT_FIELDS
from afferentsim.errors import ValidationError
from afferentsim.fem import StressTrace

DT = 0.5
PARAMS = neural.default_afferent_params()


def constant_drive(value, n=2001, dt_ms=DT):
    return neural.DriveTrace(dt_ms=dt_ms, values=np.full(n, float(value)))


# ---------------------------------------------------------------- filters


def test_derivative_constant_and_ramp():
    const = np.full(50, 3.2)
    d = neural.derivative(const, DT)
    assert np.all(d == 0.0)
    slope = 4.0  # per ms
    ramp = slope * np.arange(50) * DT
    d = neural.derivative(ramp, DT)
    assert d[0] == 0.0
    assert np.allclose(d[1:], slope, atol=1e-12)


def test_derivative_sinusoid_accuracy():
    f = 50.0  # Hz
    t = np.arange(801) * DT
    x = np.sin(2 * np.pi * f * t / 1000.0)
    d = neural.derivative(x, DT)
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


def test_abs_difference_filter():
    const = np.full(40, 7.0)
    assert np.all(neural.abs_difference_filter(const, DT) == 0.0)
    ramp = 3.0 * np.arange(40) * DT
    y = neural.abs_difference_filter(ramp, DT)
    assert y[0] == 0.0
    assert np.allclose(y[1:], 3.0 * DT, atol=1e-12)
    alternating = np.resize([1.0, -1.0], 40)
    y = neural.abs_difference_filter(alternating, DT)
    assert np.allclose(y[1:], 2.0, atol=1e-12)


# ---------------------------------------------------------- drive transform


def test_zero_stress_zero_drive():
    for params in PARAMS.values():
        drive = neural.drive_for_stress(np.zeros(300), params, DT)
        assert np.all(drive.values == 0.0)


def test_half_saturation_points():
    ra = PARAMS["RA"]
    # constant-slope stress: |d sigma/dt| equals a3 -> drive = alpha'/2
    ramp = ra.a3_pa_per_ms * np.arange(100) * DT
    drive = neural.drive_for_stress(ramp, ra, DT)
    assert drive.values[1] == pytest.approx(ra.alpha_prime / 2.0, rel=1e-12)
    assert drive.values[1] == pytest.approx(5.115, abs=5e-4)

    pc = PARAMS["PC"]
    # build stress by double cumulative integration so that the second
    # derivative ramps by exactly a4 per step
    d2 = pc.a4_pa_per_ms2 * np.maximum(0, np.arange(100) - 1).astype(float)
    s1 = DT * np.cumsum(d2)
    s0 = DT * np.cumsum(s1)
    drive = neural.drive_for_stress(s0, pc, DT)
    assert drive.values[10] == pytest.approx(pc.alpha_prime / 2.0, rel=1e-9)
    assert drive.values[10] == pytest.approx(2.07, abs=5e-4)

    # the saturating transform itself, probed exactly at each half point
    half_ra = neural.stress_to_drive((np.full(5, ra.a3_pa_per_ms),), ra, DT)
    assert np.allclose(half_ra.values, 5.115, atol=1e-12)
    half_pc = neural.stress_to_drive((np.full(5, pc.a4_pa_per_ms2),), pc, DT)
    assert np.allclose(half_pc.values, 2.07, atol=1e-12)


def test_drive_bounded_by_alpha(rng):
    stress = np.abs(rng.normal(scale=5e4, size=400))
    for name, params in PARAMS.items():
        drive = neural.drive_for_stress(stress, params, DT)
        n_terms = len(params.saturation())
        assert np.all(drive.values >= 0.0)
        # each saturating term contributes strictly less than alpha'
        assert np.all(drive.values < n_terms * params.alpha_prime), name


def test_sa_drive_uses_two_terms():
    sa = PARAMS["SA"]
    # large constant stress saturates the first term only; the derivative
    # term is zero, so the drive tends to alpha'*(1) not alpha'*(2)
    stress = np.full(300, 1e9)
    drive = neural.drive_for_stress(stress, sa, DT)
    mid = drive.values[50]
    # term 1 saturates to within a1/|f1| of 1; term 2 sees a zero derivative
    assert mid == pytest.approx(sa.alpha_prime, rel=1e-5)
    assert mid < sa.alpha_prime


# ------------------------------------------------------------------- LIF


def test_zero_drive_rests():
    for params in PARAMS.values():
        train = neural.simulate_lif(constant_drive(0.0), params)
        assert train.n_spikes == 0
        assert np.allclose(train.membrane_mv, params.u_rest_mv, atol=1e-12)


def test_subthreshold_asymptote():
    sa = PARAMS["SA"]
    d = 0.4  # asymptote -65 + tau*d = -52.14 < -50 threshold
    train = neural.simulate_lif(constant_drive(d, n=40001), sa)
    assert train.n_spikes == 0
    assert train.membrane_mv[-1] == pytest.approx(
        sa.u_rest_mv + sa.tau_m_ms * d, rel=1e-6
    )


def closed_form_isi(params, d):
    """Steady-state inter-spike interval for a constant suprathreshold drive."""
    tau = params.tau_m_ms
    gap = params.threshold_mv - params.u_reset_mv
    return params.tau_r_ms + tau * math.log(tau * d / (tau * d - gap))


def test_isi_matches_closed_form(rng):
    for _ in range(20):
        tau = float(np.exp(rng.uniform(np.log(25.0), np.log(800.0))))
        tau_r = float(rng.choice([0.5, 1.0]))
        theta = float(rng.choice([-50.0, -55.0]))
        params = neural.AfferentParams(
            afferent_type="RA", tau_m_ms=tau, alpha_prime=10.0,
            a3_pa_per_ms=1000.0, threshold_mv=theta, tau_r_ms=tau_r,
        )
        gap = theta - params.u_reset_mv
        ratio = float(rng.uniform(1.2, 30.0))
        d = ratio * gap / tau
        train = neural.simulate_lif(constant_drive(d, n=120001, dt_ms=DT), params)
        spikes = train.spike_times_ms
        assert len(spikes) >= 3
        isi = np.diff(spikes)[-1]
        assert abs(isi - closed_form_isi(params, d)) <= 2 * DT


def test_refractory_gap_enforced():
    for params in PARAMS.values():
        d = 100.0  # very strong drive
        train = neural.simulate_lif(constant_drive(d), params)
        gaps = np.diff(train.spike_times_ms)
        assert gaps.min() >= params.tau_r_ms - DT / 2


def test_membrane_trace_below_threshold():
    ra = PARAMS["RA"]
    d = 2.0 * (ra.threshold_mv - ra.u_reset_mv) / ra.tau_m_ms
    train = neural.simulate_lif(constant_drive(d, n=8001), ra)
    assert train.n_spikes > 0
    # recorded membrane shows the reset value at spike steps
    assert np.all(train.membrane_mv < ra.threshold_mv)
    steps = np.rint(np.asarray(train.spike_times_ms) / DT).astype(int)
    assert np.allclose(train.membrane_mv[steps], ra.u_reset_mv)


def _lif_count_py(drive, c1, c3, u_rest, u_reset, theta, n_refr, k_lo, k_hi):
    """Scalar windowed-count loop; the oracle for SpikeCounter."""
    n = drive.shape[0]
    uk = u_rest
    refr = 0
    count = 0
    for k in range(n - 1):
        d = drive[k]
        if refr > 0:
            d = 0.0
            refr -= 1
        uk = c1 * uk + (1.0 - c1) * u_rest + c3 * d
        if uk >= theta:
            if k_lo <= k + 1 < k_hi:
                count += 1
            uk = u_reset
            refr = n_refr
    return count


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    afferent=st.sampled_from(["SA", "RA", "PC"]),
    n_stim=st.integers(1, 5),
    n_par=st.integers(1, 4),
)
def test_spike_counter_matches_scalar_loop(seed, afferent, n_stim, n_par):
    """Batched window counts equal the scalar loop's, unit by unit, and the
    spikes simulate_lif records inside the same window."""
    rng = np.random.default_rng(seed)
    features, dts, windows = [], [], []
    for _ in range(n_stim):
        n = int(rng.integers(0, 300))  # mixed lengths, some too short to run
        dt = float(rng.choice([0.25, 0.5, 1.0]))
        scale = 10.0 ** rng.uniform(0.0, 5.0)
        terms = tuple(
            np.abs(rng.normal(scale=scale, size=n)) * (rng.random(n) < 0.8)
            for _ in _SAT_FIELDS[afferent]
        )
        start = float(rng.uniform(0.0, 80.0))
        features.append(terms)
        dts.append(dt)
        # windows may run past the end of the trace
        windows.append((start, start + float(rng.uniform(0.0, 250.0))))
    params = []
    for _ in range(n_par):
        updates = {
            "tau_m_ms": float(rng.uniform(1.0, 2000.0)),
            "alpha_prime": float(rng.uniform(0.01, 100.0)),
            "tau_r_ms": float(rng.choice([0.0, 0.5, 1.0, 2.5])),
        }
        for name in _SAT_FIELDS[afferent]:
            updates[name] = float(10.0 ** rng.uniform(0.0, 6.0))
        params.append(dataclasses.replace(PARAMS[afferent], **updates))

    got = neural.SpikeCounter(features, dts, windows)(params)
    assert got.shape == (n_par, n_stim)
    for i, p in enumerate(params):
        for s, (terms, dt, (start, end)) in enumerate(zip(features, dts, windows)):
            drive = np.zeros_like(terms[0])
            for f, a in zip(terms, p.saturation()):
                drive += f / (a + f)
            drive *= p.alpha_prime
            c1, c3 = neural._step_coefficients(p.tau_m_ms, dt)
            expected = _lif_count_py(
                drive, c1, c3, p.u_rest_mv, p.u_reset_mv, p.threshold_mv,
                int(np.ceil(p.tau_r_ms / dt)),
                int(np.ceil(start / dt - 1e-9)), int(np.ceil(end / dt - 1e-9)),
            )
            assert got[i, s] == expected, (i, s)
            if drive.size >= 2:
                train = neural.simulate_lif(
                    neural.stress_to_drive(terms, p, dt), p, record_membrane=False,
                )
                assert train.count_in_window(start, end) == expected, (i, s)


def test_count_spikes_in_window_matches_simulation():
    ra = PARAMS["RA"]
    d = 2.0 * (ra.threshold_mv - ra.u_reset_mv) / ra.tau_m_ms
    # the constant feature whose saturating drive is close to d
    feature = np.full(691, ra.a3_pa_per_ms * d / (ra.alpha_prime - d))
    drive = neural.stress_to_drive((feature,), ra, DT)
    train = neural.simulate_lif(drive, ra)
    lo, hi = 100.0, 345.0
    expected = np.count_nonzero(
        (np.asarray(train.spike_times_ms) >= lo)
        & (np.asarray(train.spike_times_ms) < hi)
    )
    assert expected > 0
    got = neural.SpikeCounter([(feature,)], [DT], [(lo, hi)])([ra])
    assert got.shape == (1, 1)
    assert got[0, 0] == expected


def test_time_shift_equivariance(rng):
    """Prepending k zero-drive samples shifts every spike by exactly k*dt."""
    ra = PARAMS["RA"]
    base = np.abs(rng.normal(scale=0.5, size=1200)) * 0.4
    base[0] = 0.0
    k = 40
    shifted = np.concatenate([np.zeros(k), base])
    t0 = neural.simulate_lif(neural.DriveTrace(DT, base), ra, record_membrane=False)
    t1 = neural.simulate_lif(neural.DriveTrace(DT, shifted), ra, record_membrane=False)
    assert np.allclose(
        np.asarray(t1.spike_times_ms),
        np.asarray(t0.spike_times_ms) + k * DT,
        atol=1e-9,
    )


# ----------------------------------------------------------- composition


def test_run_afferent_composition(rng):
    stress = np.abs(rng.normal(scale=2e4, size=691))
    for name, params in PARAMS.items():
        trace = StressTrace(name, node_id=5, dt_ms=DT, values=stress)
        train = neural.run_afferent(trace, params)
        drive = neural.drive_for_stress(stress, params, DT)
        again = neural.simulate_lif(drive, params, meta={"node_id": 5})
        assert np.array_equal(train.spike_times_ms, again.spike_times_ms)
        assert train.params_hash == params.content_hash()
        assert train.meta["node_id"] == 5


def test_run_afferent_type_mismatch():
    trace = StressTrace("SA", node_id=1, dt_ms=DT, values=np.zeros(10))
    with pytest.raises(ValidationError):
        neural.run_afferent(trace, PARAMS["RA"])


def test_constant_stress_silences_ra_pc():
    stress = np.full(691, 5e4)
    for name in ("RA", "PC"):
        trace = StressTrace(name, node_id=0, dt_ms=DT, values=stress)
        train = neural.run_afferent(trace, PARAMS[name])
        # rate-sensitive types ignore the standing load (only the onset
        # transient at sample 1 can contribute)
        assert train.n_spikes <= 1


# --------------------------------------------------------- serialization


def test_spike_jsonl_round_trip(tmp_path, rng):
    trains = []
    for name, params in PARAMS.items():
        stress = np.abs(rng.normal(scale=3e4, size=691))
        trace = StressTrace(name, node_id=2, dt_ms=DT, values=stress)
        trains.append(neural.run_afferent(trace, params))
    path = tmp_path / "spikes.jsonl"
    neural.save_spike_trains(trains, path)
    again = neural.load_spike_trains(path)
    assert len(again) == len(trains)
    for a, b in zip(trains, again):
        assert b.afferent_type == a.afferent_type
        assert b.params_hash == a.params_hash
        assert b.dt_ms == a.dt_ms
        assert b.duration_ms == a.duration_ms
        assert np.array_equal(b.spike_times_ms, a.spike_times_ms)
        assert b.membrane_mv is None
    # each line is standalone JSON with the required keys
    for line in path.read_text().splitlines():
        rec = json.loads(line)
        assert set(rec) >= {"afferent", "params_hash", "dt", "spikes", "meta"}


def test_params_validation_and_hash():
    sa = PARAMS["SA"]
    assert sa.content_hash() == PARAMS["SA"].content_hash()
    assert sa.content_hash() != PARAMS["RA"].content_hash()
    with pytest.raises(ValidationError):
        neural.AfferentParams(
            afferent_type="SA", tau_m_ms=-1.0, alpha_prime=1.0,
            a1_pa=100.0, a2_pa_per_ms=100.0,
        ).validate()
    with pytest.raises(ValidationError):
        neural.AfferentParams(
            afferent_type="RA", tau_m_ms=10.0, alpha_prime=1.0,
        ).validate()  # missing a3
    with pytest.raises(ValidationError):
        neural.AfferentParams(
            afferent_type="SA", tau_m_ms=10.0, alpha_prime=1.0,
            a1_pa=100.0, a2_pa_per_ms=100.0, threshold_mv=-70.0,
        ).validate()  # threshold below rest never fires sensibly
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
        lo = neural.drive_for_stress(base, params, DT).values
        hi = neural.drive_for_stress(base * (1.0 + scale), params, DT).values
        # tolerance covers rounding noise in the double-difference chain,
        # which is amplified by 1/dt^2 relative to the stress magnitude
        assert np.all(hi >= lo - 1e-7)
