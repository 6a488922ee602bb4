"""Per-afferent neural dynamics: filters, saturating drive, integrate-and-fire.

Each afferent class reads a different feature of the local von Mises stress:

* SA — moving averages of |stress| and |stress rate| (slowly adapting,
  low-pass),
* RA — the step-to-step change of the stress rate (adapting, band-pass),
* PC — the step-to-step change of the stress acceleration (high-pass).

The feature passes through a saturating transform ``alpha' * x / (a + x)``
to a membrane drive in mV/ms, then a leaky integrate-and-fire unit with an
absolute refractory period.  Stress is in Pa, time in ms throughout.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError
from .fem import StressTrace
from .mesh import AFFERENT_TYPES

U_REST_MV = -65.0
U_RESET_MV = -65.0


@dataclass(frozen=True)
class AfferentParams:
    """Tunable constants (tau_m, a_i, alpha_prime) plus fixed cell constants.

    Only the saturation constants relevant to the afferent type are set:
    SA uses a1 (Pa) and a2 (Pa/ms); RA uses a3 (Pa/ms); PC uses a4 (Pa/ms^2).
    """

    afferent_type: str
    tau_m_ms: float
    alpha_prime: float  # drive scale, mV/ms (membrane R/tau folded in)
    a1_pa: float | None = None
    a2_pa_per_ms: float | None = None
    a3_pa_per_ms: float | None = None
    a4_pa_per_ms2: float | None = None
    threshold_mv: float = -55.0
    u_rest_mv: float = U_REST_MV
    u_reset_mv: float = U_RESET_MV
    tau_r_ms: float = 0.5
    # averaging-filter half-widths (SA only): window [t-m2, t+m1] on stress,
    # [t-m4, t+m3] on stress rate
    m1: int = 9
    m2: int = 9
    m3: int = 9
    m4: int = 8

    def validate(self) -> None:
        if self.afferent_type not in AFFERENT_TYPES:
            raise ValidationError(f"unknown afferent_type {self.afferent_type!r}")
        if not self.tau_m_ms > 0:
            raise ValidationError(f"tau_m_ms must be > 0, got {self.tau_m_ms}")
        if not self.alpha_prime > 0:
            raise ValidationError(f"alpha_prime must be > 0, got {self.alpha_prime}")
        for a in self.saturation():
            if not a > 0:
                raise ValidationError(f"saturation constants must be > 0, got {a}")
        if not self.u_reset_mv <= self.u_rest_mv < self.threshold_mv:
            raise ValidationError(
                "need u_reset <= u_rest < threshold, got "
                f"{self.u_reset_mv}, {self.u_rest_mv}, {self.threshold_mv}"
            )
        if not self.tau_r_ms >= 0:
            raise ValidationError(f"tau_r_ms must be >= 0, got {self.tau_r_ms}")
        if min(self.m1, self.m2, self.m3, self.m4) < 0:
            raise ValidationError("filter widths m1..m4 must be >= 0")

    def saturation(self) -> tuple[float, ...]:
        """Half-saturation constants in chain order for this type."""
        if self.afferent_type == "SA":
            need = (self.a1_pa, self.a2_pa_per_ms)
        elif self.afferent_type == "RA":
            need = (self.a3_pa_per_ms,)
        else:
            need = (self.a4_pa_per_ms2,)
        if any(a is None for a in need):
            raise ValidationError(
                f"{self.afferent_type} params missing saturation constants"
            )
        return tuple(float(a) for a in need)

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}

    @classmethod
    def from_dict(cls, d: dict) -> "AfferentParams":
        p = cls(**d)
        p.validate()
        return p

    def content_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, default=repr)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def default_afferent_params() -> dict[str, AfferentParams]:
    return {
        "SA": AfferentParams(
            "SA", tau_m_ms=32.14, alpha_prime=1.79,
            a1_pa=1926.32, a2_pa_per_ms=9850.98,
            threshold_mv=-50.0, tau_r_ms=1.0,
        ),
        "RA": AfferentParams(
            "RA", tau_m_ms=456.70, alpha_prime=10.23, a3_pa_per_ms=17191.87,
            threshold_mv=-55.0, tau_r_ms=0.5,
        ),
        "PC": AfferentParams(
            "PC", tau_m_ms=639.85, alpha_prime=4.14, a4_pa_per_ms2=16.34,
            threshold_mv=-55.0, tau_r_ms=0.5,
        ),
    }


# --------------------------------------------------------------------------
# filters


def derivative(trace: np.ndarray, dt_ms: float) -> np.ndarray:
    """Backward difference (x[k] - x[k-1])/dt with d[0] = 0."""
    x = np.asarray(trace, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValidationError("derivative needs a 1-D trace of length >= 2")
    d = np.empty_like(x)
    d[0] = 0.0
    d[1:] = np.diff(x) / dt_ms
    return d


def moving_average_abs(trace: np.ndarray, m_before: int, m_after: int) -> np.ndarray:
    """Mean of |x| over the window [t - m_after, t + m_before], zero-padded."""
    if m_before < 0 or m_after < 0:
        raise ValidationError("filter widths must be >= 0")
    x = np.abs(np.asarray(trace, dtype=float))
    width = m_before + m_after + 1
    full = np.convolve(x, np.ones(width)) / width
    # full[i] sums x[j] for j in [i-width+1, i]; the window centered per the
    # spec above starts at index t + m_before of the full output
    return full[m_before : m_before + x.size]


def abs_difference_filter(trace: np.ndarray, dt_ms: float) -> np.ndarray:
    """|x[t] - x[t - dt]| with y[0] = 0 (one-step change magnitude)."""
    x = np.asarray(trace, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValidationError("abs_difference_filter needs a 1-D trace of length >= 2")
    y = np.empty_like(x)
    y[0] = 0.0
    y[1:] = np.abs(np.diff(x))
    return y


def filtered_inputs(
    params: AfferentParams, stress_pa: np.ndarray, dt_ms: float
) -> tuple[np.ndarray, ...]:
    """Type-appropriate filter chain outputs (all nonnegative)."""
    if params.afferent_type == "SA":
        f1 = moving_average_abs(stress_pa, params.m1, params.m2)
        f2 = moving_average_abs(derivative(stress_pa, dt_ms), params.m3, params.m4)
        return (f1, f2)
    if params.afferent_type == "RA":
        return (abs_difference_filter(derivative(stress_pa, dt_ms), dt_ms),)
    d2 = derivative(derivative(stress_pa, dt_ms), dt_ms)
    return (abs_difference_filter(d2, dt_ms),)


# --------------------------------------------------------------------------
# drive


@dataclass(frozen=True)
class DriveTrace:
    dt_ms: float
    values: np.ndarray  # mV/ms, bounded by alpha_prime per saturation term

    def __post_init__(self):
        self.values.setflags(write=False)


def stress_to_drive(
    inputs: tuple[np.ndarray, ...], params: AfferentParams, dt_ms: float
) -> DriveTrace:
    """Saturating transform alpha' * sum_i |f_i| / (a_i + |f_i|)."""
    params.validate()
    sats = params.saturation()
    if len(inputs) != len(sats):
        raise ValidationError(
            f"{params.afferent_type} expects {len(sats)} filtered inputs, "
            f"got {len(inputs)}"
        )
    total = np.zeros_like(np.asarray(inputs[0], dtype=float))
    for f, a in zip(inputs, sats):
        f = np.abs(np.asarray(f, dtype=float))
        total += f / (a + f)
    return DriveTrace(dt_ms=dt_ms, values=params.alpha_prime * total)


# --------------------------------------------------------------------------
# integrate-and-fire


def _lif_full(drive, c1, c3, u_rest, u_reset, theta, n_refr):
    n = drive.shape[0]
    u = np.empty(n)
    u[0] = u_rest
    spike_steps = np.empty(n, dtype=np.int64)
    ns = 0
    refr = 0
    for k in range(n - 1):
        d = drive[k]
        if refr > 0:
            d = 0.0
            refr -= 1
        uk = c1 * u[k] + (1.0 - c1) * u_rest + c3 * d
        if uk >= theta:
            spike_steps[ns] = k + 1
            ns += 1
            uk = u_reset
            refr = n_refr
        u[k + 1] = uk
    return u, spike_steps[:ns]


def _step_coefficients(tau_m_ms: float, dt_ms: float) -> tuple[float, float]:
    """Forward-Euler step u <- c1*u + (1-c1)*u_rest + c3*D."""
    return 1.0 - dt_ms / tau_m_ms, dt_ms


@dataclass(frozen=True)
class SpikeTrain:
    afferent_type: str
    dt_ms: float
    duration_ms: float  # simulated span; spikes lie in (0, duration]
    spike_times_ms: np.ndarray  # strictly increasing
    membrane_mv: np.ndarray | None
    params_hash: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.spike_times_ms.setflags(write=False)
        if self.membrane_mv is not None:
            self.membrane_mv.setflags(write=False)

    @property
    def n_spikes(self) -> int:
        return int(self.spike_times_ms.size)

    def count_in_window(self, start_ms: float, end_ms: float) -> int:
        """Spikes in [start, end), by the step rule of window_steps.

        A spike counts on the last step at or before its time (its own step,
        since simulated spikes land on step times), so for windows whose
        edges are step times this is also the rule start <= t < end.
        """
        k_lo, k_hi = window_steps(start_ms, end_ms, self.dt_ms)
        steps = np.floor(self.spike_times_ms / self.dt_ms + 1e-9)
        return int(np.count_nonzero((steps >= k_lo) & (steps < k_hi)))

    def to_record(self) -> dict:
        return {
            "afferent": self.afferent_type,
            "params_hash": self.params_hash,
            "dt": self.dt_ms,
            "duration_ms": self.duration_ms,
            "spikes": [float(t) for t in self.spike_times_ms],
            "meta": self.meta,
        }


def simulate_lif(
    drive: DriveTrace, params: AfferentParams,
    record_membrane: bool = True, meta: dict | None = None,
) -> SpikeTrain:
    """Forward-Euler leaky IAF over the drive; spikes land on step times.

    A spike is recorded when the post-update potential reaches threshold, at
    the post-update step time; the potential resets and the drive is gated
    off for ceil(tau_r/dt) steps while the leak stays active.
    """
    params.validate()
    values = np.ascontiguousarray(drive.values, dtype=float)
    if values.ndim != 1 or values.size < 2:
        raise ValidationError("drive must be 1-D with length >= 2")
    if not np.all(np.isfinite(values)):
        raise NumericalError("drive contains non-finite samples")
    dt = float(drive.dt_ms)
    c1, c3 = _step_coefficients(params.tau_m_ms, dt)
    n_refr = int(np.ceil(params.tau_r_ms / dt))
    u, steps = _lif_full(
        values, c1, c3, params.u_rest_mv, params.u_reset_mv,
        params.threshold_mv, n_refr,
    )
    return SpikeTrain(
        afferent_type=params.afferent_type,
        dt_ms=dt,
        duration_ms=(values.size - 1) * dt,
        spike_times_ms=steps.astype(float) * dt,
        membrane_mv=u if record_membrane else None,
        params_hash=params.content_hash(),
        meta=dict(meta or {}),
    )


def window_steps(start_ms: float, end_ms: float, dt_ms: float) -> tuple[int, int]:
    """Step indices [k_lo, k_hi) whose step times k*dt lie in [start, end).

    The one window rule behind every windowed spike count: fitting, rate
    prediction and the simulate rate table.
    """
    return (
        int(np.ceil(start_ms / dt_ms - 1e-9)),
        int(np.ceil(end_ms / dt_ms - 1e-9)),
    )


class SpikeCounter:
    """Windowed spike counts of many parameter sets on one bank of inputs.

    The bank holds S stimuli, each a tuple of filter-chain outputs (one per
    saturation term, as from filtered_inputs) with its own dt and count
    window [start, end) in ms.  Calling the counter with N parameter sets
    integrates all N x S integrate-and-fire units together, one time step
    at a time, and returns the (N, S) spike counts inside each window.

    Every unit goes through the same IEEE operations in the same order as
    simulate_lif on the drive of stress_to_drive, so the counts equal a
    per-unit scalar loop's exactly.  The drive is formed for the current
    step only: memory stays O(N x S), never O(N x S x steps).
    """

    def __init__(self, features, dt_ms, windows_ms):
        n_stim = len(features)
        if n_stim == 0 or len(dt_ms) != n_stim or len(windows_ms) != n_stim:
            raise ValidationError("need one dt and one window per stimulus")
        n_terms = {len(f) for f in features}
        if len(n_terms) != 1:
            raise ValidationError("every stimulus needs the same number of inputs")
        self.n_terms = n_terms.pop()
        dt = np.asarray(dt_ms, dtype=float)
        if not np.all(dt > 0):
            raise ValidationError("dt_ms must be > 0")
        stop = np.empty(n_stim, dtype=np.int64)
        first = np.empty(n_stim, dtype=np.int64)
        for s, (terms, (lo_ms, hi_ms)) in enumerate(zip(features, windows_ms)):
            n = {np.asarray(f).shape for f in terms}
            if len(n) != 1 or len(next(iter(n))) != 1:
                raise ValidationError("inputs of one stimulus must be 1-D, equal length")
            k_lo, k_hi = window_steps(lo_ms, hi_ms, dt[s])
            # step k moves the potential to step k + 1; steps past the
            # window end, or past the trace end, cannot add to the count
            stop[s] = min(next(iter(n))[0], k_hi) - 1
            first[s] = k_lo - 1
        # rows run longest first, so the units still integrating at any
        # step are a leading slice of the state arrays
        order = np.argsort(-stop, kind="stable")
        self._order = order
        self._dt = dt[order]
        self._stop = stop[order]
        self._first = first[order]
        n_steps = max(int(self._stop[0]), 0)
        # time-major inputs: row k holds every stimulus's input at step k
        self._inputs = []
        for j in range(self.n_terms):
            table = np.zeros((n_steps, n_stim))
            for row, s in enumerate(order):
                k = max(int(self._stop[row]), 0)
                table[:k, row] = np.abs(np.asarray(features[s][j], dtype=float)[:k])
            if not np.all(np.isfinite(table)):
                raise NumericalError("filtered inputs contain non-finite samples")
            self._inputs.append(table)

    @property
    def n_stimuli(self) -> int:
        return self._order.size

    def __call__(self, params) -> np.ndarray:
        """(N, S) int64 counts for the N parameter sets in `params`."""
        n_par, n_stim = len(params), self.n_stimuli
        sat = np.empty((self.n_terms, n_par))
        for i, p in enumerate(params):
            p.validate()
            a = p.saturation()
            if len(a) != self.n_terms:
                raise ValidationError(
                    f"{p.afferent_type} params have {len(a)} saturation terms, "
                    f"the inputs have {self.n_terms}"
                )
            sat[:, i] = a
        alpha = np.array([p.alpha_prime for p in params])
        theta = np.array([p.threshold_mv for p in params])
        u_rest = np.array([p.u_rest_mv for p in params])
        u_reset = np.array([p.u_reset_mv for p in params])
        # coefficients through the scalar rule simulate_lif uses, so that
        # every unit's arithmetic matches it bit for bit
        c1 = np.empty((n_stim, n_par))
        c3 = np.empty((n_stim, n_par))
        n_refr = np.empty((n_stim, n_par), dtype=np.int64)
        for dt in np.unique(self._dt):
            rows = self._dt == dt
            for i, p in enumerate(params):
                c1[rows, i], c3[rows, i] = _step_coefficients(p.tau_m_ms, dt)
                n_refr[rows, i] = int(np.ceil(p.tau_r_ms / dt))
        rest = (1.0 - c1) * u_rest

        u = np.empty((n_stim, n_par))
        u[:] = u_rest
        refr = np.zeros((n_stim, n_par), dtype=np.int64)
        count = np.zeros((n_stim, n_par), dtype=np.int64)
        drive = np.empty((n_stim, n_par))
        term = np.empty((n_stim, n_par))
        gated = np.empty((n_stim, n_par), dtype=bool)
        spiked = np.empty((n_stim, n_par), dtype=bool)
        stop, first = self._stop, self._first
        first_min, first_max = int(first.min()), int(first.max())
        m = n_stim
        for k in range(self._inputs[0].shape[0]):
            while stop[m - 1] <= k:
                m -= 1
            uu, dd, rr, gg, ss = u[:m], drive[:m], refr[:m], gated[:m], spiked[:m]
            # drive alpha' * sum_j f_j / (a_j + f_j), summed in term order
            f = self._inputs[0][k, :m, None]
            np.add(sat[0], f, out=dd)
            np.divide(f, dd, out=dd)
            for j in range(1, self.n_terms):
                f = self._inputs[j][k, :m, None]
                tt = term[:m]
                np.add(sat[j], f, out=tt)
                np.divide(f, tt, out=tt)
                np.add(dd, tt, out=dd)
            np.multiply(dd, alpha, out=dd)
            # refractory units get no drive this step
            np.greater(rr, 0, out=gg)
            np.copyto(dd, 0.0, where=gg)
            np.subtract(rr, gg, out=rr)
            # u <- (c1*u + (1 - c1)*u_rest) + c3*d
            np.multiply(uu, c1[:m], out=uu)
            np.add(uu, rest[:m], out=uu)
            np.multiply(dd, c3[:m], out=dd)
            np.add(uu, dd, out=uu)
            np.greater_equal(uu, theta, out=ss)
            if k >= first_max:
                count[:m] += ss
            elif k >= first_min:
                count[:m] += ss & (k >= first[:m])[:, None]
            np.copyto(uu, u_reset, where=ss)
            np.copyto(rr, n_refr[:m], where=ss)
        out = np.empty((n_par, n_stim), dtype=np.int64)
        out[:, self._order] = count.T
        return out


def drive_for_stress(
    stress_pa: np.ndarray, params: AfferentParams, dt_ms: float
) -> DriveTrace:
    """Filter + transform only (the sub-chain ahead of the spiking unit)."""
    return stress_to_drive(filtered_inputs(params, stress_pa, dt_ms), params, dt_ms)


def run_afferent(
    stress: StressTrace, params: AfferentParams, record_membrane: bool = True,
) -> SpikeTrain:
    """Full chain: stress trace -> type-specific filters -> drive -> spikes."""
    if stress.afferent_type != params.afferent_type:
        raise ValidationError(
            f"stress trace is {stress.afferent_type}, params are "
            f"{params.afferent_type}"
        )
    return simulate_lif(
        drive_for_stress(stress.values, params, stress.dt_ms), params,
        record_membrane=record_membrane, meta={"node_id": stress.node_id},
    )


# --------------------------------------------------------------------------
# spike-train serialization


def save_spike_trains(trains: list[SpikeTrain], path) -> None:
    with open(path, "w") as fh:
        for tr in trains:
            fh.write(json.dumps(tr.to_record(), sort_keys=True))
            fh.write("\n")


def load_spike_trains(path) -> list[SpikeTrain]:
    """Rebuild spike trains from JSONL; membrane traces are not serialized."""
    trains = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            trains.append(SpikeTrain(
                afferent_type=rec["afferent"],
                dt_ms=float(rec["dt"]),
                duration_ms=float(rec["duration_ms"]),
                spike_times_ms=np.asarray(rec["spikes"], dtype=float),
                membrane_mv=None,
                params_hash=rec["params_hash"],
                meta=rec.get("meta", {}),
            ))
    return trains
