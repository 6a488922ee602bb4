import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afferentsim import stimulus
from afferentsim.errors import ValidationError
from oracles import write_protocol_file


def test_sinusoid_formula_and_length():
    trace = stimulus.sinusoid(20.0, 100.0, duration_ms=345.0)
    assert trace.shape == (691,)
    t = np.arange(691) * 0.5
    expected = 0.1 * np.sin(2 * np.pi * 20.0 * t / 1000.0)
    assert np.allclose(trace, expected, atol=1e-15)
    assert trace[0] == 0.0
    # 20 Hz at dt=0.5 ms has an exact 100-step period
    assert np.allclose(trace[:100], trace[100:200], atol=1e-12)


def test_sinusoid_nyquist_guard():
    with pytest.raises(ValidationError):
        stimulus.sinusoid(1000.0, 10.0, 100.0)
    stimulus.sinusoid(999.0, 10.0, 100.0)  # just below passes


def test_diharmonic_is_sum_of_sinusoids():
    a = stimulus.sinusoid(10.0, 5.62, 345.0)
    b = stimulus.sinusoid(50.0, 5.62, 345.0)
    both = stimulus.diharmonic(10.0, 5.62, 50.0, 5.62, 345.0)
    assert np.array_equal(both, a + b)


def test_bandpass_noise_rms_and_mean():
    for lo, hi, rms in [(5.0, 25.0, 1.0), (25.0, 500.0, 20.0), (50.0, 500.0, 0.13)]:
        trace = stimulus.bandpass_noise(lo, hi, rms, duration_ms=345.0, seed=3)
        assert abs(np.mean(trace)) < 1e-12
        measured = np.sqrt(np.mean(trace**2)) * 1000.0  # mm -> um
        assert measured == pytest.approx(rms, rel=1e-9)


def test_bandpass_noise_seed_determinism():
    a = stimulus.bandpass_noise(5.0, 100.0, 10.0, 345.0, seed=11)
    b = stimulus.bandpass_noise(5.0, 100.0, 10.0, 345.0, seed=11)
    c = stimulus.bandpass_noise(5.0, 100.0, 10.0, 345.0, seed=12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_bandpass_noise_without_scipy_is_a_validation_error(monkeypatch):
    monkeypatch.setitem(sys.modules, "scipy.signal", None)  # import raises ImportError
    with pytest.raises(ValidationError, match="need SciPy"):
        stimulus.bandpass_noise(5.0, 100.0, 10.0, 345.0, seed=11)


def test_amplitude_tables_frozen():
    sin_counts = {f: len(a) for f, a in stimulus.SINUSOID_TABLE.items()}
    assert sin_counts == {20.0: 12, 50.0: 10, 100.0: 9, 300.0: 6}
    assert sum(sin_counts.values()) == 37
    assert stimulus.SINUSOID_TABLE[20.0][0] == 6.71
    assert stimulus.SINUSOID_TABLE[20.0][-1] == 250.0
    assert stimulus.SINUSOID_TABLE[50.0][4] == 34.80
    assert stimulus.SINUSOID_TABLE[100.0][1] == 10.00
    assert stimulus.SINUSOID_TABLE[300.0] == (4.59, 7.41, 11.94, 19.24, 31.02, 50.00)

    assert sum(len(v) for v in stimulus.DIHARMONIC_TABLE.values()) == 20
    assert stimulus.DIHARMONIC_TABLE[(10.0, 50.0)][0] == (2.00, 2.00)
    assert stimulus.DIHARMONIC_TABLE[(50.0, 500.0)][-1] == (125.00, 18.75)

    assert sum(len(v) for v in stimulus.NOISE_TABLE.values()) == 25
    assert stimulus.NOISE_TABLE[(5.0, 25.0)] == (0.50, 1.00, 5.00, 10.00, 50.00)
    assert stimulus.NOISE_TABLE[(50.0, 500.0)] == (0.13, 0.50, 1.00, 5.00, 10.00)


def test_builtin_protocol_sinusoids():
    specs = stimulus.builtin_protocol("appendixA")
    assert len(specs) == 37
    ids = [s.stimulus_id for s in specs]
    assert len(set(ids)) == 37
    for s in specs:
        assert s.kind == "sinusoid"
        assert s.discard_ms == 100.0
        if s.freq_hz == 20.0:
            assert s.duration_ms == 345.0 and s.window_ms == 245.0
        else:
            assert s.duration_ms == 200.0 and s.window_ms == 100.0
        # window must fit inside the trace
        assert s.discard_ms + s.window_ms <= s.duration_ms


def test_builtin_protocol_diharmonics():
    specs = stimulus.builtin_protocol("appendixB")
    assert len(specs) == 20
    for s in specs:
        assert s.kind == "diharmonic"
        assert s.duration_ms == 345.0 and s.window_ms == 245.0
        assert s.freq_hz in (10.0, 50.0)


def test_builtin_protocol_noise_seeds():
    specs = stimulus.builtin_protocol("appendixC", base_seed=100)
    assert len(specs) == 25
    seeds = [s.seed for s in specs]
    assert seeds == list(range(100, 125))
    for s in specs:
        assert s.kind == "bandpass_noise"
        assert s.duration_ms == 345.0 and s.window_ms == 245.0
    with pytest.raises(ValidationError):
        stimulus.builtin_protocol("appendixD")


def test_spec_generate_matches_direct_call():
    specs = stimulus.builtin_protocol("appendixC", base_seed=0)
    s = specs[0]
    direct = stimulus.bandpass_noise(
        s.lo_hz, s.hi_hz, s.rms_um, s.duration_ms, seed=s.seed
    )
    assert np.array_equal(s.generate(), direct)


def test_spec_validation_errors():
    with pytest.raises(ValidationError):
        stimulus.StimulusSpec(
            stimulus_id="bad", kind="sinusoid", duration_ms=200.0,
            discard_ms=100.0, window_ms=150.0, freq_hz=50.0, amplitude_um=10.0,
        ).validate()  # window overruns duration
    with pytest.raises(ValidationError):
        stimulus.StimulusSpec(
            stimulus_id="bad", kind="sinusoid", duration_ms=200.0,
            discard_ms=100.0, window_ms=100.0, freq_hz=50.0,
        ).validate()  # missing amplitude
    with pytest.raises(ValidationError):
        stimulus.StimulusSpec(
            stimulus_id="bad", kind="bandpass_noise", duration_ms=200.0,
            discard_ms=100.0, window_ms=100.0, lo_hz=100.0, hi_hz=50.0,
            rms_um=1.0, seed=0,
        ).validate()  # inverted band


def test_spec_window_edges_must_be_step_times():
    tone = dict(stimulus_id="w", kind="sinusoid", duration_ms=200.3, freq_hz=50.0,
                amplitude_um=10.0)
    # the duration need not be a whole number of steps; an edge within 1e-9
    # steps of a step time counts as one
    stimulus.StimulusSpec(discard_ms=99.5, window_ms=100.0 + 1e-10, **tone).validate()
    for discard, window, name in [(100.1, 0.3, "discard_ms"), (100.0, 99.75, "window_ms")]:
        with pytest.raises(ValidationError, match=f"w: {name}=.* is not a whole number "
                                                  "of 0.5 ms steps"):
            stimulus.StimulusSpec(discard_ms=discard, window_ms=window, **tone).validate()
    for name in stimulus.BUILTIN_PROTOCOLS:
        for spec in stimulus.builtin_protocol(name):
            spec.validate()


def test_protocol_json_round_trip(tmp_path):
    specs = stimulus.builtin_protocol("appendixB")
    path = tmp_path / "protocol.json"
    write_protocol_file(specs, path, name="appendixB")
    again = stimulus.load_protocol(path)
    assert again == list(specs)
    raw = json.loads(path.read_text())
    assert raw["name"] == "appendixB"
    assert len(raw["stimuli"]) == 20


@settings(max_examples=30, deadline=None)
@given(
    freq=st.floats(1.0, 900.0),
    amp=st.floats(0.01, 400.0),
    duration=st.floats(10.0, 500.0),
)
def test_sinusoid_amplitude_bound(freq, amp, duration):
    trace = stimulus.sinusoid(freq, amp, duration)
    assert np.abs(trace).max() <= amp / 1000.0 + 1e-15
    assert len(trace) == round(duration / 0.5) + 1
