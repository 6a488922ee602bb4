"""Indenter displacement traces: sinusoids, diharmonics, band-pass noise.

Three bundled protocols ship as machine-readable stimulus banks:

* ``appendixA`` — 37 sinusoids (12 at 20 Hz, 10 at 50 Hz, 9 at 100 Hz,
  6 at 300 Hz) used for parameter fitting,
* ``appendixB`` — 20 diharmonics (four frequency blocks of five amplitude
  rows),
* ``appendixC`` — 25 band-pass noise stimuli (five bands, five RMS levels).

All generators are pure functions of their parameters (plus seed for noise),
so protocol runs are fully deterministic.  Displacements are in mm, time in
ms, dt is 0.5 ms (Nyquist 1 kHz).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

from .errors import INTEGER, NUMBER, STRING, ValidationError, check_kind

# The model's one time step.  The neural constants were fitted at it: RA and
# PC read per-step differences and SA's half-widths m1..m4 count samples, so
# at another step the same constants give other rates.  A config or protocol
# file may restate it (check_dt) but not change it.
DT_MS = 0.5
NYQUIST_HZ = 1000.0 / (2.0 * DT_MS)

# The bundled stimulus banks builtin_protocol renders.
BUILTIN_PROTOCOLS = ("appendixA", "appendixB", "appendixC")

# Rate analysis windows: discard the first 100 ms (filter/start transients),
# then count spikes over 245 ms at 20 Hz and 100 ms at higher frequencies.
DISCARD_MS = 100.0
WINDOW_20HZ_MS = 245.0
WINDOW_FAST_MS = 100.0

# Band-pass noise: Butterworth order, applied forward-backward.
NOISE_FILTER_ORDER = 4

# Sinusoid bank: frequency -> amplitudes (um).
SINUSOID_TABLE: dict[float, tuple[float, ...]] = {
    20.0: (6.71, 9.32, 12.50, 18.00, 25.000, 34.74, 48.27, 67.07, 93.19,
           129.49, 179.92, 250.00),
    50.0: (7.19, 10.66, 15.81, 23.46, 34.80, 51.62, 76.58, 113.60, 168.52,
           250.00),
    100.0: (6.52, 10.00, 15.34, 23.54, 36.11, 55.39, 85.98, 130.37, 200.00),
    300.0: (4.59, 7.41, 11.94, 19.24, 31.02, 50.00),
}

# Diharmonic bank: (f1, f2) -> list of (a1, a2) in um.
DIHARMONIC_TABLE: dict[tuple[float, float], tuple[tuple[float, float], ...]] = {
    (10.0, 50.0): ((2.00, 2.00), (5.62, 5.62), (15.81, 15.81), (44.46, 44.46),
                   (125.00, 125.00)),
    (10.0, 100.0): ((2.00, 2.00), (5.62, 5.32), (15.81, 14.14), (44.46, 37.61),
                    (125.00, 100.00)),
    (50.0, 250.0): ((2.00, 1.00), (5.62, 2.48), (15.81, 6.12), (44.46, 15.15),
                    (125.00, 37.50)),
    (50.0, 500.0): ((2.00, 0.25), (5.62, 0.74), (15.81, 2.17), (44.46, 6.37),
                    (125.00, 18.75)),
}

# Noise bank: (lo, hi) -> RMS levels in um.
NOISE_TABLE: dict[tuple[float, float], tuple[float, ...]] = {
    (5.0, 25.0): (0.50, 1.00, 5.00, 10.00, 50.00),
    (5.0, 100.0): (0.50, 1.00, 5.00, 10.00, 50.00),
    (25.0, 250.0): (0.25, 1.00, 5.00, 10.00, 20.00),
    (25.0, 500.0): (0.25, 1.00, 5.00, 10.00, 20.00),
    (50.0, 500.0): (0.13, 0.50, 1.00, 5.00, 10.00),
}


def check_dt(value, path: str) -> None:
    """A `dt_ms` key of a config or protocol file, which may only restate DT_MS."""
    if check_kind(value, NUMBER, path) != DT_MS:
        raise ValidationError(f"{path}: expected a step of {DT_MS}, got {value} "
                              f"(the model is defined at {DT_MS} ms only)")


def _n_samples(duration_ms: float) -> int:
    if not duration_ms > 0:
        raise ValidationError(f"duration_ms must be > 0, got {duration_ms}")
    return int(round(duration_ms / DT_MS)) + 1


def _check_tone(freq_hz: float, amplitude_um: float) -> None:
    """A sinusoid's band rule: 0 < freq < Nyquist, with amplitude >= 0."""
    if not freq_hz > 0:
        raise ValidationError(f"freq_hz must be > 0, got {freq_hz}")
    if not freq_hz < NYQUIST_HZ:
        raise ValidationError(
            f"freq_hz={freq_hz} violates Nyquist ({NYQUIST_HZ} Hz at dt={DT_MS} ms)"
        )
    if amplitude_um < 0:
        raise ValidationError(f"amplitude_um must be >= 0, got {amplitude_um}")


def _check_band(lo_hz: float, hi_hz: float, rms_um: float) -> None:
    """A noise band's rule: 0 < lo < hi < Nyquist, with rms > 0."""
    if not 0.0 < lo_hz < hi_hz < NYQUIST_HZ:
        raise ValidationError(f"need 0 < lo < hi < Nyquist ({NYQUIST_HZ} Hz): "
                              f"got ({lo_hz}, {hi_hz})")
    if not rms_um > 0:
        raise ValidationError(f"rms_um must be > 0, got {rms_um}")


def sinusoid(freq_hz: float, amplitude_um: float, duration_ms: float) -> np.ndarray:
    """s[k] = A sin(2 pi f k dt), in mm; starts at phase 0."""
    _check_tone(freq_hz, amplitude_um)
    n = _n_samples(duration_ms)
    t_s = np.arange(n) * (DT_MS / 1000.0)
    return (amplitude_um / 1000.0) * np.sin(2.0 * np.pi * freq_hz * t_s)


def diharmonic(
    f1_hz: float, a1_um: float, f2_hz: float, a2_um: float, duration_ms: float,
) -> np.ndarray:
    """Sum of two sinusoids, both starting at phase 0."""
    return sinusoid(f1_hz, a1_um, duration_ms) + sinusoid(f2_hz, a2_um, duration_ms)


def bandpass_noise(
    lo_hz: float, hi_hz: float, rms_um: float, duration_ms: float, seed: int = 0,
) -> np.ndarray:
    """Seeded Gaussian noise, zero-phase band-pass filtered, exact-RMS scaled.

    The band-pass is a Butterworth of order NOISE_FILTER_ORDER (4) applied
    forward-backward (zero phase, so no spurious transients enter the
    downstream derivative filters); after filtering the mean is removed and
    the trace rescaled so its sample RMS equals rms_um exactly.
    """
    _check_band(lo_hz, hi_hz, rms_um)
    n = _n_samples(duration_ms)
    # imported here, not at module top: scipy.signal and the scipy.stats it
    # loads add about 1 s to every import, and only noise stimuli need them
    try:
        from scipy.signal import butter, sosfiltfilt
    except ImportError as exc:
        raise ValidationError(f"band-pass noise stimuli need SciPy: {exc}") from exc

    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(n)
    band = [lo_hz / NYQUIST_HZ, hi_hz / NYQUIST_HZ]
    sos = butter(NOISE_FILTER_ORDER, band, btype="bandpass", output="sos")
    shaped = sosfiltfilt(sos, raw)
    shaped = shaped - shaped.mean()
    rms = np.sqrt(np.mean(shaped**2))
    if rms == 0.0:
        raise ValidationError("filtered noise degenerated to zero; widen the band")
    return (rms_um / 1000.0) * shaped / rms


# --------------------------------------------------------------------------
# stimulus specs and protocols


@dataclass(frozen=True)
class StimulusSpec:
    """One protocol entry, checked when made; generate() renders the
    displacement trace."""

    stimulus_id: str
    kind: str  # sinusoid | diharmonic | bandpass_noise
    duration_ms: float
    discard_ms: float
    window_ms: float
    freq_hz: float | None = None
    amplitude_um: float | None = None
    freq2_hz: float | None = None
    amplitude2_um: float | None = None
    lo_hz: float | None = None
    hi_hz: float | None = None
    rms_um: float | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        # every field is a number except these; those defaulting to None may be None
        kinds = {"stimulus_id": STRING, "kind": STRING, "seed": INTEGER}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None or f.default is not None:
                path = f"{self.stimulus_id}: {f.name}"
                check_kind(value, kinds.get(f.name, NUMBER), path)
        # the id names the stimulus's stress exports inside <out>/stress
        if self.stimulus_id in ("", ".", "..") or any(c in self.stimulus_id for c in "/\\"):
            raise ValidationError(f"stimulus_id {self.stimulus_id!r} is not a plain file name")
        # ... and an unquoted cell of rates.csv and of its
        # at_quantization_floor line, each one line split at commas
        if any(c in self.stimulus_id for c in ',"') or not self.stimulus_id.isprintable():
            raise ValidationError(f"stimulus_id {self.stimulus_id!r} holds a comma, "
                                  "a double quote or a non-printable character")
        if self.kind not in ("sinusoid", "diharmonic", "bandpass_noise"):
            raise ValidationError(f"{self.stimulus_id}: unknown kind {self.kind!r}")
        if not self.duration_ms > 0:
            raise ValidationError(f"{self.stimulus_id}: non-positive duration")
        if self.discard_ms < 0 or self.window_ms <= 0:
            raise ValidationError(f"{self.stimulus_id}: bad analysis window")
        # the rendered trace spans round(duration / dt) steps of dt, which
        # can fall short of duration_ms; no spike is counted past its end
        rendered = (_n_samples(self.duration_ms) - 1) * DT_MS
        length = min(self.duration_ms, rendered)
        if self.discard_ms + self.window_ms > length + 1e-9:
            raise ValidationError(
                f"{self.stimulus_id}: window [{self.discard_ms}, "
                f"{self.discard_ms + self.window_ms}) ms overruns the rendered "
                f"{length} ms trace"
            )
        # a rate divides the count over the window's steps by window_ms, so
        # both window edges must be step times
        for name in ("discard_ms", "window_ms"):
            steps = getattr(self, name) / DT_MS
            if abs(steps - round(steps)) > 1e-9:
                raise ValidationError(f"{self.stimulus_id}: {name}={getattr(self, name)} "
                                      f"is not a whole number of {DT_MS} ms steps")
        need = {
            "sinusoid": ("freq_hz", "amplitude_um"),
            "diharmonic": ("freq_hz", "amplitude_um", "freq2_hz", "amplitude2_um"),
            "bandpass_noise": ("lo_hz", "hi_hz", "rms_um", "seed"),
        }[self.kind]
        for fieldname in need:
            if getattr(self, fieldname) is None:
                raise ValidationError(f"{self.stimulus_id}: missing {fieldname}")
        if self.kind == "bandpass_noise":
            _check_band(self.lo_hz, self.hi_hz, self.rms_um)
        else:
            _check_tone(self.freq_hz, self.amplitude_um)
        if self.kind == "diharmonic":
            _check_tone(self.freq2_hz, self.amplitude2_um)
        if self.kind == "bandpass_noise" and self.seed < 0:
            raise ValidationError(f"{self.stimulus_id}: seed must be >= 0, got {self.seed}")

    def generate(self) -> np.ndarray:
        if self.kind == "sinusoid":
            return sinusoid(self.freq_hz, self.amplitude_um, self.duration_ms)
        if self.kind == "diharmonic":
            return diharmonic(
                self.freq_hz, self.amplitude_um, self.freq2_hz, self.amplitude2_um,
                self.duration_ms,
            )
        return bandpass_noise(self.lo_hz, self.hi_hz, self.rms_um, self.duration_ms, self.seed)


def sinusoid_window_ms(freq_hz: float) -> float:
    """appendixA's count window for a sinusoid: 245 ms at 20 Hz, 100 ms
    otherwise, opening DISCARD_MS after stimulus onset.

    builtin_protocol writes it into each spec; simulate and fit count over
    the spec's own window, so a protocol file may set any other.
    """
    return WINDOW_20HZ_MS if freq_hz == 20.0 else WINDOW_FAST_MS


def builtin_protocol(name: str, base_seed: int = 0) -> list[StimulusSpec]:
    """Render one of the bundled banks named in BUILTIN_PROTOCOLS."""
    specs: list[StimulusSpec] = []
    if name == "appendixA":
        for freq, amps in SINUSOID_TABLE.items():
            window = sinusoid_window_ms(freq)
            for amp in amps:
                specs.append(StimulusSpec(
                    stimulus_id=f"sin_{freq:03.0f}hz_{amp:06.2f}um",
                    kind="sinusoid", duration_ms=DISCARD_MS + window,
                    discard_ms=DISCARD_MS, window_ms=window,
                    freq_hz=freq, amplitude_um=amp,
                ))
    elif name == "appendixB":
        # The slowest component is 10 Hz; use the long analysis window so
        # at least two full cycles land inside it.
        duration = DISCARD_MS + WINDOW_20HZ_MS
        for (f1, f2), rows in DIHARMONIC_TABLE.items():
            for a1, a2 in rows:
                specs.append(StimulusSpec(
                    stimulus_id=(
                        f"dih_{f1:03.0f}hz_{a1:06.2f}um_{f2:03.0f}hz_{a2:06.2f}um"
                    ),
                    kind="diharmonic", duration_ms=duration,
                    discard_ms=DISCARD_MS, window_ms=WINDOW_20HZ_MS,
                    freq_hz=f1, amplitude_um=a1, freq2_hz=f2, amplitude2_um=a2,
                ))
    elif name == "appendixC":
        duration = DISCARD_MS + WINDOW_20HZ_MS
        row = 0
        for (lo, hi), levels in NOISE_TABLE.items():
            for rms in levels:
                specs.append(StimulusSpec(
                    stimulus_id=(
                        f"noise_{lo:03.0f}-{hi:03.0f}hz_rms{rms:05.2f}um_seed{base_seed + row}"
                    ),
                    kind="bandpass_noise", duration_ms=duration,
                    discard_ms=DISCARD_MS, window_ms=WINDOW_20HZ_MS,
                    lo_hz=lo, hi_hz=hi, rms_um=rms, seed=base_seed + row,
                ))
                row += 1
    else:
        raise ValidationError(
            f"unknown builtin protocol {name!r}; expected one of {BUILTIN_PROTOCOLS}"
        )
    return specs


def load_protocol(path) -> list[StimulusSpec]:
    try:
        with open(path, encoding="utf-8-sig") as fh:
            payload = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read protocol file {path}: {exc}") from exc
    if not isinstance(payload, dict) or not isinstance(payload.get("stimuli"), list):
        raise ValidationError(f"{path}: protocol file needs a 'stimuli' list")
    specs = []
    seen: set[str] = set()
    for i, rec in enumerate(payload["stimuli"]):
        try:
            if isinstance(rec, dict) and "dt_ms" in rec:
                rec = dict(rec)
                check_dt(rec.pop("dt_ms"), "dt_ms")
            spec = StimulusSpec(**rec)
        except (TypeError, ValidationError) as exc:
            raise ValidationError(f"{path}: stimulus #{i}: {exc}") from exc
        if spec.stimulus_id in seen:
            # rates, spike trains and stress exports are keyed by the id
            raise ValidationError(
                f"{path}: stimulus #{i} repeats stimulus_id {spec.stimulus_id!r}"
            )
        seen.add(spec.stimulus_id)
        specs.append(spec)
    if not specs:
        raise ValidationError(f"{path}: protocol contains no stimuli")
    return specs
