"""Acceptance suite: one test per shipped guarantee, at the stated tolerance.

Run with -v to get one pass/fail line per criterion.  The FEM-backed session
fixtures (stress banks) are shared with the unit suite, so total runtime
stays desk-scale.
"""

import json
import math
import os
import time

import numpy as np
import pytest
from scipy import signal, stats

from afferentsim import analysis, cli, fem, mesh, neural, optimize, stimulus
from conftest import graded_square_mesh
from oracles import constrained_solve, stress_to_drive, write_protocol_file

DT = 0.5


def test_criterion_01_patch_test():
    """Constant-strain states reproduced to <= 1e-9 on a graded mesh, < 1 s."""
    t0 = time.perf_counter()
    m = graded_square_mesh()
    system = fem.StiffnessSystem(m)
    a, b, c, d, e, f = 0.002, 0.003, -0.001, 0.001, -0.002, 0.004
    exact = np.column_stack([
        a + b * m.nodes[:, 0] + c * m.nodes[:, 1],
        d + e * m.nodes[:, 0] + f * m.nodes[:, 1],
    ])
    on_bound = (
        (m.nodes[:, 0] == m.nodes[:, 0].min()) | (m.nodes[:, 0] == m.nodes[:, 0].max())
        | (m.nodes[:, 1] == m.nodes[:, 1].min()) | (m.nodes[:, 1] == m.nodes[:, 1].max())
    )
    constraints = {}
    for nid in np.flatnonzero(on_bound):
        constraints[2 * nid] = exact[nid, 0]
        constraints[2 * nid + 1] = exact[nid, 1]
    u = constrained_solve(system, constraints)
    rel_err = np.abs(u.reshape(-1, 2) - exact).max() / np.abs(exact).max()
    elapsed = time.perf_counter() - t0
    assert rel_err <= 1e-9
    assert elapsed < 1.0


def test_criterion_02_flamant_half_plane():
    """Surface deflection matches the point-load half-plane solution within
    5% at distances beyond 3 element widths from the load."""
    E, nu, P = 1.0, 0.3, 0.01
    layers = (mesh.MaterialLayer("half", E, nu, (0.0, 40.0)),)
    spec = mesh.GeometrySpec(
        domain_width_mm=80.0, surface_element_mm=0.5, coarsening=20.0,
        afferent_depths_mm={t: 1.0 for t in mesh.AFFERENT_TYPES},
    )
    m = mesh.build_mesh(spec, layers)
    assert m.n_elements <= 5000
    system = fem.StiffnessSystem(m)
    # the downward load P on the centre node: -P times the unit upward load's
    # field, from a footprint (0.1 mm wide at x = 0) of that node alone
    response = fem.build_footprint_response(system, 0.1, 0.0)
    assert m.nodes[response.nodes, 0].tolist() == [0.0]
    u = -P * response.fields[:, 0]
    surf_x = m.nodes[m.surface_nodes, 0]
    order = np.argsort(surf_x)
    xs = surf_x[order]
    w = -u[2 * m.surface_nodes + 1][order]

    # the analytic solution fixes deflection only up to a constant, so
    # compare deflection differences against a reference distance
    x_ref = 6.0
    w_ref = np.interp(x_ref, xs, w)
    scale = 2.0 * P * (1.0 - nu**2) / (np.pi * E)
    three_widths = 3 * 0.5
    for x in np.arange(1.5, 5.51, 0.5):
        assert x >= three_widths
        measured = np.interp(x, xs, w) - w_ref
        analytic = scale * np.log(x_ref / x)
        assert abs(measured - analytic) <= 0.05 * abs(analytic), f"x={x}"


def test_criterion_03_deflection_profile(default_mesh, default_system):
    """50 um probe at 1 mm indentation: max deflection in [0.9, 1.1] mm and
    strictly monotone decay at 0.5 mm sampling."""
    footprint = fem.build_footprint_response(default_system, 0.05, 0.0)
    indenter = fem.IndenterSpec(pre_indentation_mm=1.0, displacement_trace=np.zeros(1))
    result = fem.run_indentation(footprint, indenter)
    _, profile = fem.surface_deflection(default_mesh, footprint.fields @ result.loads[0])
    assert 0.9 <= profile.max() <= 1.1
    assert profile.argmax() == 0  # peak under the probe
    assert np.all(np.diff(profile) < 0)  # strict decay with distance


def test_criterion_04_von_mises_identities():
    s = 2.31
    assert fem.von_mises(np.array([s, 0, 0, 0])) == pytest.approx(abs(s), rel=1e-12)
    assert fem.von_mises(np.array([0, 0, 0, s])) == pytest.approx(
        math.sqrt(3) * abs(s), rel=1e-12
    )
    assert fem.von_mises(np.array([s, s, s, 0])) <= 1e-12
    rng = np.random.default_rng(2024)
    for _ in range(100):
        sxx, syy, szz, txy = rng.normal(scale=4.0, size=4)
        theta = rng.uniform(0.0, 2 * np.pi)
        c, sn = np.cos(theta), np.sin(theta)
        rxx = c * c * sxx + sn * sn * syy + 2 * c * sn * txy
        ryy = sn * sn * sxx + c * c * syy - 2 * c * sn * txy
        rxy = (syy - sxx) * c * sn + (c * c - sn * sn) * txy
        vm0 = fem.von_mises(np.array([sxx, syy, szz, txy]))
        vm1 = fem.von_mises(np.array([rxx, ryy, szz, rxy]))
        assert abs(vm0 - vm1) <= 1e-10 * max(1.0, abs(vm0))


def test_criterion_05_lif_closed_form_isi():
    """Constant-drive ISI matches tau_r + tau*ln(tau*D/(tau*D - (theta-reset)))
    within 2*dt over 20 draws bracketing the shipped parameter values.

    The draws sharing a cell, a (tau_r, threshold) pair, run as the
    parameter sets of one spike_steps call.  The input is held at
    a3 = 1000, so each unit's drive is alpha' * 1/2 with alpha' = 2d:
    exactly the constant drive d."""
    rng = np.random.default_rng(12345)
    draws = []
    for _ in range(20):
        tau = float(np.exp(rng.uniform(np.log(25.0), np.log(800.0))))
        tau_r = float(rng.choice([0.5, 1.0]))
        theta = float(rng.choice([-50.0, -55.0]))
        gap = theta - neural.U_RESET_MV
        d = float(rng.uniform(1.2, 30.0)) * gap / tau
        draws.append((tau, tau_r, theta, d))
    n = 120001
    counter = neural.SpikeCounter([(np.full(n, 1000.0),)], [(0.0, n * DT)])
    steps_by_draw = {}
    for cell in sorted({(tau_r, theta) for _, tau_r, theta, _ in draws}):
        group = [draw for draw in draws if draw[1:3] == cell]
        units = [
            neural.AfferentParams(
                afferent_type="RA", tau_m_ms=tau, alpha_prime=2.0 * d,
                a3_pa_per_ms=1000.0, threshold_mv=theta, tau_r_ms=tau_r,
            )
            for tau, tau_r, theta, d in group
        ]
        _, steps = counter.spike_steps(neural.ParamTable.from_params(units))
        steps_by_draw.update(zip(group, steps))
    assert len(steps_by_draw) == 20
    for (tau, tau_r, theta, d), (steps,) in steps_by_draw.items():
        assert steps.size >= 3
        isi = float(np.diff(steps)[-1]) * DT
        gap = theta - neural.U_RESET_MV
        closed = tau_r + tau * math.log(tau * d / (tau * d - gap))
        assert abs(isi - closed) <= 2 * DT, (tau, tau_r, theta, d)


def test_criterion_06_filter_selectivity(fifty_um_traces):
    """SA chain suppresses 300 Hz drive modulation to < 15% of 20 Hz; PC
    chain drive grows monotonically with frequency at fixed amplitude."""
    sa = neural.default_afferent_params()["SA"]

    def modulation(freq):
        n = round(345.0 / DT) + 1
        t = np.arange(n) * DT
        stress = np.sin(2 * np.pi * freq * t / 1000.0)  # unit-amplitude
        values = stress_to_drive(neural.filtered_inputs(sa, stress), sa)
        interior = values[50:-50]
        return float(interior.max() - interior.min())

    ratio = modulation(300.0) / modulation(20.0)
    assert ratio < 0.15

    # PC drive level: the long membrane time constant integrates over many
    # cycles, so the window-averaged drive is what sets the firing rate
    pc = neural.default_afferent_params()["PC"]
    levels = []
    for freq in (20.0, 50.0, 100.0, 300.0):
        trace = fifty_um_traces[freq]
        values = stress_to_drive(
            neural.filtered_inputs(pc, trace.values), pc
        )
        start = round(100.0 / DT)
        levels.append(float(values[start:].mean()))
    assert all(b > a for a, b in zip(levels, levels[1:])), levels


def test_criterion_07_saturation_identities():
    """Drive at filtered input == a_i is exactly alpha'/2 (RA 5.115, PC 2.07
    mV/ms); every term stays below alpha'."""
    params = neural.default_afferent_params()
    ra, pc = params["RA"], params["PC"]
    half_ra = stress_to_drive((np.full(8, ra.a3_pa_per_ms),), ra)
    assert np.all(half_ra == ra.alpha_prime / 2.0)
    assert half_ra[0] == pytest.approx(5.115, abs=1e-12)
    half_pc = stress_to_drive((np.full(8, pc.a4_pa_per_ms2),), pc)
    assert np.all(half_pc == pc.alpha_prime / 2.0)
    assert half_pc[0] == pytest.approx(2.07, abs=1e-12)

    rng = np.random.default_rng(7)
    huge = np.abs(rng.normal(scale=1e12, size=200))
    for p in params.values():
        for f, a in zip(neural.filtered_inputs(p, huge), p.saturation()):
            term = p.alpha_prime * f / (a + f)
            assert np.all(term < p.alpha_prime)


def test_criterion_08_rate_trends(appendix_a_bank):
    """Shipped parameters on the full sinusoid bank: rates non-decreasing in
    amplitude (1 ips tolerance), SA silent at 300 Hz, RA/PC max-amplitude
    rates increasing from 20 to 100 Hz."""
    specs, bank = appendix_a_bank
    params = neural.default_afferent_params()
    rates: dict[tuple[str, float, float], float] = {}
    windows = [(s.discard_ms, s.discard_ms + s.window_ms) for s in specs]
    for atype, p in params.items():
        _, counts = neural.run_afferents([bank[s.stimulus_id][atype] for s in specs], p, windows)
        for spec, n in zip(specs, counts):
            rates[(atype, spec.freq_hz, spec.amplitude_um)] = n / (spec.window_ms / 1000.0)

    for atype in ("SA", "RA", "PC"):
        for freq, amps in stimulus.SINUSOID_TABLE.items():
            series = [rates[(atype, freq, a)] for a in amps]
            for lo, hi in zip(series, series[1:]):
                assert hi >= lo - 1.0, (atype, freq, series)

    for amp in stimulus.SINUSOID_TABLE[300.0]:
        assert rates[("SA", 300.0, amp)] == 0.0

    for atype in ("RA", "PC"):
        at_max = [
            rates[(atype, f, stimulus.SINUSOID_TABLE[f][-1])]
            for f in (20.0, 50.0, 100.0)
        ]
        assert at_max[0] < at_max[1] < at_max[2], (atype, at_max)


def test_criterion_09_optimizer_round_trip(appendix_a_bank):
    """Fitting rates synthesized from the shipped RA parameters recovers a
    candidate with objective sum <= 4 ips^2 in < 5 min; front verified
    mutually non-dominated by an O(n^2) oracle."""
    specs, bank = appendix_a_bank
    ra_bank = {
        (s.freq_hz, s.amplitude_um): (s, bank[s.stimulus_id]["RA"]) for s in specs
    }
    truth = neural.default_afferent_params()["RA"]
    t0 = time.perf_counter()
    outcome = optimize.recover_parameters(
        truth, ra_bank, seed=0, budget=10000, population_size=100
    )
    elapsed = time.perf_counter() - t0
    assert outcome.objective_sum <= 4.0
    assert elapsed < 300.0

    idx = outcome.front.front_indices()
    objs = outcome.front.objectives
    for i in idx:
        for j in idx:
            if i != j:
                strictly_better = np.all(objs[j] <= objs[i]) and np.any(objs[j] < objs[i])
                assert not strictly_better, (i, j)


def test_criterion_10_deterministic_exports(tmp_path):
    """simulate and fit reruns with identical config + seed are byte-identical."""
    specs = [
        stimulus.StimulusSpec(
            stimulus_id="sin_050hz_113.60um", kind="sinusoid", duration_ms=200.0,
            discard_ms=100.0, window_ms=100.0,
            freq_hz=50.0, amplitude_um=113.60,
        ),
        stimulus.StimulusSpec(
            stimulus_id="sin_100hz_055.39um", kind="sinusoid", duration_ms=200.0,
            discard_ms=100.0, window_ms=100.0,
            freq_hz=100.0, amplitude_um=55.39,
        ),
    ]
    protocol = tmp_path / "protocol.json"
    write_protocol_file(specs, protocol, name="tiny")
    observed = tmp_path / "observed.csv"
    observed.write_text(
        "afferent,freq_hz,amplitude_um,rate_ips\n"
        "RA,50.0,113.6,120.0\nRA,100.0,55.39,150.0\n"
    )
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "protocol": str(protocol), "seed": 1,
        "fit": {"afferents": ["RA"], "observed_rates_csv": str(observed),
                "population": 10, "budget": 30},
    }))
    out = tmp_path / "out"

    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert cli.main(["fit", "--config", str(cfg), "--out", str(out)]) == 0
    exports = [
        "rates.csv", "spikes.jsonl", "mesh.txt", "config_resolved.json",
        "front_RA.csv", "selected_RA.json", "fit_rates_RA.csv",
        "regression_RA.json",
    ]
    exports += [os.path.join("stress", p) for p in os.listdir(out / "stress")]
    first = {p: (out / p).read_bytes() for p in exports}

    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert cli.main(["fit", "--config", str(cfg), "--out", str(out)]) == 0
    for p, blob in first.items():
        assert (out / p).read_bytes() == blob, p


def test_criterion_11_bandpass_noise_spectrum():
    """RMS normalization exact to 1e-9 relative; >= 90% of spectral power
    inside the requested band for all five shipped noise bands."""
    duration_ms = 2**16 * DT  # long trace for a sharp spectral estimate
    for (lo, hi), rms_list in stimulus.NOISE_TABLE.items():
        rms = rms_list[2]
        trace = stimulus.bandpass_noise(lo, hi, rms, duration_ms, seed=42)
        measured = float(np.sqrt(np.mean(trace**2))) * 1000.0
        assert abs(measured - rms) <= 1e-9 * rms

        freqs, psd = signal.welch(trace, fs=1000.0 / DT, nperseg=4096)
        total = np.trapezoid(psd, freqs)
        band = (freqs >= lo) & (freqs <= hi)
        in_band = np.trapezoid(psd[band], freqs[band])
        assert in_band / total >= 0.90, (lo, hi, in_band / total)


def test_criterion_12_regression_oracle():
    """OLS slope/intercept/R^2/p match a normal-equations oracle to 1e-9;
    identity data gives R^2 = 1."""
    x = np.array([1.0, 4.0, 9.0, 16.0, 30.0, 55.0])
    rep = analysis.regression(x, x)
    assert rep["slope"] == pytest.approx(1.0, rel=1e-12)
    assert rep["r_squared"] == pytest.approx(1.0, rel=1e-12)

    rng = np.random.default_rng(99)
    obs = rng.uniform(0.0, 150.0, size=24)
    pred = 0.9 * obs + 5.0 + rng.normal(scale=8.0, size=24)
    rep = analysis.regression(obs, pred)

    xl = np.asarray(obs, dtype=np.longdouble)
    yl = np.asarray(pred, dtype=np.longdouble)
    n = xl.size
    sx, sy = xl.sum(), yl.sum()
    sxx, sxy, syy = (xl * xl).sum(), (xl * yl).sum(), (yl * yl).sum()
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    intercept = (sy - slope * sx) / n
    r = (n * sxy - sx * sy) / np.sqrt((n * sxx - sx * sx) * (n * syy - sy * sy))
    r2 = float(r * r)
    t = float(r) * math.sqrt((n - 2) / (1.0 - r2))
    p = 2.0 * stats.t.sf(abs(t), df=int(n) - 2)

    assert rep["slope"] == pytest.approx(float(slope), rel=1e-9)
    assert rep["intercept"] == pytest.approx(float(intercept), rel=1e-9)
    assert rep["r_squared"] == pytest.approx(r2, rel=1e-9)
    assert rep["p_value"] == pytest.approx(float(p), rel=1e-6)
