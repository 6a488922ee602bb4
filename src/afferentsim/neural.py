"""Per-afferent neural dynamics: filters, saturating drive, integrate-and-fire.

Each afferent class reads a different feature of the local von Mises stress:

* SA — moving averages of |stress| and |stress rate| (slowly adapting,
  low-pass),
* RA — the step-to-step change of the stress rate (adapting, band-pass),
* PC — the step-to-step change of the stress acceleration (high-pass).

The feature passes through a saturating transform ``alpha' * x / (a + x)``
to a membrane drive in mV/ms, then a leaky integrate-and-fire unit with an
absolute refractory period.  SpikeCounter holds the one integrate-and-fire
loop, over the parameter sets of one cell (a ParamTable), and the one
window count: run_afferents turns whole stress traces into spike trains and
window counts with it, and fitting counts spikes in windows with it.
Stress is in Pa, time in ms throughout, and every trace is sampled at
stimulus.DT_MS (0.5 ms), the one step at which the constants hold, since
the filters difference and average whole samples and the shipped constants
were fitted at that step.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import INTEGER, NUMBER, STRING, NumericalError, ValidationError, check_kind
from .errors import short_digest
from .fem import StressTrace
from .mesh import AFFERENT_TYPES
from .stimulus import DT_MS

U_REST_MV = -65.0
U_RESET_MV = -65.0

# The half-saturation constants each afferent type reads, in chain order.
SATURATION_FIELDS = {
    "SA": ("a1_pa", "a2_pa_per_ms"),
    "RA": ("a3_pa_per_ms",),
    "PC": ("a4_pa_per_ms2",),
}


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
        need = [getattr(self, name) for name in SATURATION_FIELDS[self.afferent_type]]
        if any(a is None for a in need):
            raise ValidationError(
                f"{self.afferent_type} params missing saturation constants"
            )
        return tuple(float(a) for a in need)

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}

    @classmethod
    def from_dict(cls, d: dict, path: str = "params") -> "AfferentParams":
        """Params from a JSON object, each field of its kind: afferent_type a
        string, m1..m4 integers, every other field a number (never a bool),
        and null allowed for the saturation constants.  Errors name the field
        as path.field."""
        if not isinstance(d, dict):
            raise ValidationError(f"{path}: expected an object, got {d!r}")
        unknown = sorted(set(d) - set(_PARAM_KINDS))
        if unknown:
            raise ValidationError(f"{path}: unknown fields {unknown}")
        checked = {
            name: None if value is None and name in _NULLABLE
            else check_kind(value, _PARAM_KINDS[name], f"{path}.{name}")
            for name, value in d.items()
        }
        try:
            p = cls(**checked)
        except TypeError as exc:  # a missing field
            raise ValidationError(f"{path}: {exc}") from exc
        p.validate()
        return p

    def content_hash(self) -> str:
        return short_digest(self.to_dict())


# The saturation constants may be null: each type reads only its own.
_NULLABLE = set().union(*SATURATION_FIELDS.values())
_PARAM_KINDS = {f.name: NUMBER for f in fields(AfferentParams)} | {
    "afferent_type": STRING, "m1": INTEGER, "m2": INTEGER, "m3": INTEGER, "m4": INTEGER,
}


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


def derivative(trace: np.ndarray) -> np.ndarray:
    """Backward difference (x[k] - x[k-1])/dt with d[0] = 0."""
    x = np.asarray(trace, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValidationError("derivative needs a 1-D trace of length >= 2")
    d = np.empty_like(x)
    d[0] = 0.0
    d[1:] = np.diff(x) / DT_MS
    return d


def moving_average_abs(trace: np.ndarray, m_before: int, m_after: int) -> np.ndarray:
    """Mean of |x| over the window [t - m_after, t + m_before], zero-padded."""
    if m_before < 0 or m_after < 0:
        raise ValidationError("filter widths must be >= 0")
    x = np.abs(np.asarray(trace, dtype=float))
    width = m_before + m_after + 1
    # the window ends at the trace's edges, so no half-width need pass n - 1;
    # full[i] sums x[j] for j in [i - b - a, i], so t's window is full[t + b]
    b, a = min(m_before, x.size - 1), min(m_after, x.size - 1)
    full = np.convolve(x, np.ones(b + a + 1)) / width
    return full[b : b + x.size]


def abs_difference_filter(trace: np.ndarray) -> np.ndarray:
    """|x[t] - x[t - dt]| with y[0] = 0 (one-step change magnitude)."""
    x = np.asarray(trace, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValidationError("abs_difference_filter needs a 1-D trace of length >= 2")
    y = np.empty_like(x)
    y[0] = 0.0
    y[1:] = np.abs(np.diff(x))
    return y


def filtered_inputs(params: AfferentParams, stress_pa: np.ndarray) -> tuple[np.ndarray, ...]:
    """Type-appropriate filter chain outputs (all nonnegative)."""
    if params.afferent_type == "SA":
        f1 = moving_average_abs(stress_pa, params.m1, params.m2)
        f2 = moving_average_abs(derivative(stress_pa), params.m3, params.m4)
        return (f1, f2)
    if params.afferent_type == "RA":
        return (abs_difference_filter(derivative(stress_pa)),)
    d2 = derivative(derivative(stress_pa))
    return (abs_difference_filter(d2),)


# --------------------------------------------------------------------------
# integrate-and-fire


@dataclass(frozen=True)
class SpikeTrain:
    afferent_type: str
    duration_ms: float  # simulated span; spikes lie in (0, duration]
    spike_times_ms: np.ndarray  # strictly increasing
    params_hash: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.spike_times_ms.setflags(write=False)

    def to_record(self) -> dict:
        return {
            "afferent": self.afferent_type,
            "params_hash": self.params_hash,
            "dt": DT_MS,
            "duration_ms": self.duration_ms,
            "spikes": [float(t) for t in self.spike_times_ms],
            "meta": self.meta,
        }


def window_steps(start_ms: float, end_ms: float) -> tuple[int, int]:
    """Step indices [k_lo, k_hi) whose step times k*dt lie in [start, end):
    the window rule of SpikeCounter, so of every rate simulate and fit give."""
    return (
        int(np.ceil(start_ms / DT_MS - 1e-9)),
        int(np.ceil(end_ms / DT_MS - 1e-9)),
    )


@dataclass(eq=False)
class ParamTable:
    """N parameter sets of one cell: the one entry type of SpikeCounter.

    Set i is `cell` with its tau_m, alpha' and saturation constants replaced
    by column i of `tau_m_ms`, `alpha_prime` and `saturation` (one row per
    term in chain order, shape (n_terms, N)); the fit keeps every other
    constant fixed.  The cell validates itself and the columns are checked
    whole, so every table is valid.  Fitting builds one straight from a
    population's genes; from_params makes one from a list of AfferentParams.
    """

    cell: AfferentParams
    tau_m_ms: np.ndarray
    alpha_prime: np.ndarray
    saturation: np.ndarray

    def __post_init__(self):
        self.cell.validate()
        self.saturation = np.array(self.saturation, dtype=float, ndmin=2)
        n, n_terms = self.saturation.shape[-1], len(SATURATION_FIELDS[self.cell.afferent_type])
        if self.saturation.shape != (n_terms, n) or n == 0:
            raise ValidationError(f"{self.cell.afferent_type} saturation must have shape "
                                  f"({n_terms}, N) with N >= 1, got {self.saturation.shape}")
        for name in ("tau_m_ms", "alpha_prime"):
            col = np.array(getattr(self, name), dtype=float)
            if col.shape != (n,):
                raise ValidationError(f"{name} must have shape ({n},), got {col.shape}")
            setattr(self, name, col)
        for rule, ok in (
            ("tau_m_ms must be > 0", self.tau_m_ms > 0),
            ("alpha_prime must be > 0", self.alpha_prime > 0),
            ("saturation constants must be > 0", (self.saturation > 0).all(axis=0)),
        ):
            if not ok.all():
                raise ValidationError(f"{rule}; parameter set {np.argmin(ok)} breaks it")

    def __len__(self) -> int:
        return self.tau_m_ms.size

    @classmethod
    def from_params(cls, params) -> "ParamTable":
        """The table of a list of AfferentParams of one cell: the sets may
        differ only in tau_m, alpha' and the saturation constants."""
        if not params:
            raise ValidationError("need at least one parameter set")
        cell = params[0]
        for i, p in enumerate(params):
            differ = ", ".join(f for f in CELL_FIELDS if getattr(p, f) != getattr(cell, f))
            if differ:
                raise ValidationError(f"parameter set {i} differs from set 0 in {differ}")
        return cls(
            cell,
            tau_m_ms=[p.tau_m_ms for p in params],
            alpha_prime=[p.alpha_prime for p in params],
            saturation=np.array([p.saturation() for p in params]).T,
        )


# The AfferentParams fields every set of a ParamTable shares.
CELL_FIELDS = tuple(f.name for f in fields(AfferentParams)
                    if f.name not in _NULLABLE | {"tau_m_ms", "alpha_prime"})


# Steps whose drive SpikeCounter forms at once.  Its (STEP_BLOCK, S, N)
# buffers, one per saturation term and one for the drive, are most of a
# call's working memory: 1.4 MB for SA at a fit's 37 stimuli x 100 sets,
# which fits a 2 MB L2.  64 steps do not fit; 8 take half, but 1-set calls
# run about 10% slower and 100-set calls no faster.
STEP_BLOCK = 16


class SpikeCounter:
    """The integrate-and-fire loop, for many parameter sets on one bank.

    The bank holds S stimuli, each a tuple of filter-chain outputs (one per
    saturation term, as from filtered_inputs) with its own count window
    [start, end) in ms.  Given a ParamTable, N parameter sets of one cell,
    the loop integrates all S x N units together, one time step at a time.
    Calling the counter returns the (N, S) spike counts inside each window,
    and spike_steps those counts and the spike steps themselves.

    Each unit is a forward-Euler leaky integrate-and-fire cell driven by
    alpha' * sum_j f_j / (a_j + f_j) over its inputs f_j, summed in chain
    order.  A spike is recorded when the post-update potential reaches
    threshold, at the post-update step; the potential resets and the drive
    is gated off for n_refr = ceil(tau_r/dt) steps while the leak stays
    active.  Every unit runs to its trace end; its window bounds only its
    count, and a window past the trace end counts to that end.  Every unit
    goes through the same IEEE operations as a per-unit scalar loop, so its
    spikes equal that loop's exactly.

    The n_refr steps after a spike follow a fixed trajectory, after[0] =
    u_reset and after[j] = (after[j-1] * c1 + rest) + 0, made once per
    call; each step copies after[j] over every unit that spiked j steps
    before, oldest lag first so that the latest spike wins (a cell with
    n_refr = 0 resets at the spike itself).  The lags come from a ring
    spike record of n_refr + 1 rows (spike_steps keeps every step), and
    each step adds its spikes into a byte-wide count that moves into an
    int64 total every 255 steps and at each window's opening and closing,
    where its rows take a snapshot of the total, the count being the
    difference: a call's working memory does not grow with the trace.  As
    no step changes a unit's drive, the drive is formed for STEP_BLOCK
    steps at once.  A step is then u * c1, + rest, + drive, one copy per
    lag where its record row is set, the compare into the record and the
    add into the count: 6 ufunc calls for RA and PC and 7 for SA, on
    C-contiguous (S, N) operands and the cell's threshold.
    """

    def __init__(self, features, windows_ms):
        n_stim = len(features)
        if n_stim == 0 or len(windows_ms) != n_stim:
            raise ValidationError("need one window per stimulus")
        n_terms = {len(f) for f in features}
        if len(n_terms) != 1:
            raise ValidationError("every stimulus needs the same number of inputs")
        self.n_terms = n_terms.pop()
        bounds = []
        for terms, (lo_ms, hi_ms) in zip(features, windows_ms):
            shapes = {np.asarray(f).shape for f in terms}
            if len(shapes) != 1 or len(next(iter(shapes))) != 1:
                raise ValidationError("inputs of one stimulus must be 1-D, equal length")
            (n,), (k_lo, k_hi) = shapes.pop(), window_steps(lo_ms, hi_ms)
            # step k moves the potential to step k + 1: a unit runs to its
            # trace end, and its window counts the spikes of steps
            # [first, last), which cannot pass the trace end
            bounds.append((n - 1, max(k_lo - 1, 0), min(n, k_hi) - 1))
        bounds = np.array(bounds, dtype=np.int64)
        # rows run longest first, so the units still integrating at any
        # step are a leading slice of the state arrays
        self._order = np.argsort(-bounds[:, 0], kind="stable")
        self._stop, self._first, self._last = bounds[self._order].T
        n_steps = max(int(self._stop[0]), 0)
        # time-major inputs: [j, k] holds every stimulus's input j at step k
        self._inputs = np.zeros((self.n_terms, n_steps, n_stim))
        for row, s in enumerate(self._order):
            k = max(int(self._stop[row]), 0)
            for j, f in enumerate(features[s]):
                self._inputs[j, :k, row] = np.abs(np.asarray(f, dtype=float)[:k])
        if not np.all(np.isfinite(self._inputs)):
            raise NumericalError("filtered inputs contain non-finite samples")

    @property
    def n_stimuli(self) -> int:
        return self._order.size

    def __call__(self, table: ParamTable) -> np.ndarray:
        """(N, S) int64 spike counts inside each stimulus's window."""
        return self._integrate(table)[0]

    def spike_steps(self, table: ParamTable) -> tuple[np.ndarray, list[list[np.ndarray]]]:
        """(counts, steps) of one pass: the window counts, as a call gives
        them, and the steps of every spike, [parameter set][stimulus], each
        increasing."""
        counts, spiked = self._integrate(table, whole=True)
        by_unit = spiked.transpose(2, 1, 0)  # [i, row, k]
        steps = np.flatnonzero(by_unit) % by_unit.shape[2] + 1
        per_unit = np.split(steps, np.cumsum(by_unit.sum(axis=2).ravel())[:-1])
        rows = np.argsort(self._order)  # the row of each stimulus
        n_stim = self.n_stimuli
        return counts, [[per_unit[i * n_stim + r] for r in rows] for i in range(len(table))]

    def _integrate(self, table: ParamTable, whole: bool = False) -> tuple[np.ndarray, ...]:
        """(counts, spiked): counts[i, s] the spikes of set i on stimulus s
        inside its window; with whole, spiked[k, row, i] whether unit
        (row, i) reached threshold moving to step k + 1, rows being stimuli
        longest first."""
        if table.saturation.shape[0] != self.n_terms:
            raise ValidationError(
                f"the parameter sets have {table.saturation.shape[0]} saturation "
                f"terms, the inputs have {self.n_terms}"
            )
        shape = (self.n_stimuli, len(table))

        def full(values):  # a fresh C-contiguous (S, N) array
            out = np.empty(shape)
            out[...] = values
            return out

        cell = table.cell
        c1 = full(1.0 - DT_MS / table.tau_m_ms)
        rest = (1.0 - c1) * cell.u_rest_mv
        sat = [full(a) for a in table.saturation]
        alpha = full(table.alpha_prime)
        theta = cell.threshold_mv
        n_steps = self._inputs.shape[1]
        n_refr = int(np.ceil(cell.tau_r_ms / DT_MS))
        # lags past the last step never reach a spike
        lead = min(n_refr, n_steps)
        after = [full(cell.u_reset_mv)]
        for _ in range(lead):
            after.append((after[-1] * c1 + rest) + 0.0)

        u = full(cell.u_rest_mv)
        # flat, so that each block's (steps, m, N) view is C-contiguous
        size = min(STEP_BLOCK, n_steps) * shape[0] * shape[1]
        buffers = [np.empty(size) for _ in range(self.n_terms + 1)]  # drive, inputs
        ring = lead + (n_steps if whole else 1)  # lead + 1 rows hold every lag
        spiked = np.zeros((ring,) + shape, dtype=bool)
        # a byte-wide count, flushed every 255 steps so that it cannot wrap
        recent = np.zeros(shape, dtype=np.uint8)
        total, opened, closed = np.zeros((3,) + shape, dtype=np.int64)
        snapshots = ((opened, self._first[:, None]), (closed, self._last[:, None]))
        begin = int(self._first.min())
        flushes = set(range(begin, n_steps, 255)).union(self._first.tolist(), self._last.tolist())
        stop = self._stop.tolist()
        start = 0
        for m in range(shape[0], 0, -1):
            # steps [start, end) integrate the leading m rows: row m - 1 is
            # the shortest still running
            end = stop[m - 1]
            if end <= start:
                continue
            uu, c1m, restm, alpham = u[:m], c1[:m], rest[:m], alpha[:m]
            satm = [a[:m] for a in sat]
            record, record8, recentm = spiked[:, :m], spiked.view(np.uint8)[:, :m], recent[:m]
            # step k writes row lead + k and reads lag j from row lead + k - j
            # (mod the ring), oldest lag first so that the latest spike wins
            overwrites = [(lead - j, after[j][:m]) for j in range(lead, 0, -1)]
            reset = after[0][:m]
            for k0 in range(start, end, STEP_BLOCK):
                k1 = min(k0 + STEP_BLOCK, end)
                n = (k1 - k0) * m * shape[1]
                dd, *fs = [b[:n].reshape(k1 - k0, m, shape[1]) for b in buffers]
                for f, x in zip(fs, self._inputs):
                    np.copyto(f, x[k0:k1, :m, None])
                # the drive, dt * alpha' * sum_j f_j / (a_j + f_j); the first
                # input's buffer holds each later term
                np.add(satm[0], fs[0], out=dd)
                np.divide(fs[0], dd, out=dd)
                tt = fs[0]
                for f, a in zip(fs[1:], satm[1:]):
                    np.add(a, f, out=tt)
                    np.divide(f, tt, out=tt)
                    np.add(dd, tt, out=dd)
                np.multiply(dd, alpham, out=dd)
                np.multiply(dd, DT_MS, out=dd)
                for k in range(k0, k1):
                    if k in flushes:
                        total += recent
                        recent[...] = 0
                        # the rows whose window opens or closes here
                        for snapshot, at in snapshots:
                            np.copyto(snapshot, total, where=at == k)
                    # u <- (c1*u + (1 - c1)*u_rest) + dt*d
                    np.multiply(uu, c1m, out=uu)
                    np.add(uu, restm, out=uu)
                    np.add(uu, dd[k - k0], out=uu)
                    # units that spiked in their last n_refr steps follow
                    # the gated trajectory instead
                    for back, x in overwrites:
                        np.copyto(uu, x, where=record[(k + back) % ring])
                    w = (lead + k) % ring
                    ss = record[w]
                    np.greater_equal(uu, theta, out=ss)
                    if k >= begin:
                        np.add(recentm, record8[w], out=recentm)
                    if n_refr == 0:  # no lag follows, so reset at the spike
                        np.copyto(uu, reset, where=ss)
            start = end
        total += recent
        # a window that closes at its trace end takes the final total, and
        # one that opens as or after it closes counts nothing
        np.copyto(closed, total, where=(self._last == self._stop)[:, None])
        counts = np.empty((len(table), self.n_stimuli), dtype=np.int64)
        counts[:, self._order] = np.where((self._first < self._last)[:, None],
                                          closed - opened, 0).T
        return counts, spiked[lead:]


def run_afferents(
    traces: list[StressTrace], params: AfferentParams, windows_ms,
) -> tuple[list[SpikeTrain], np.ndarray]:
    """Spike trains of one afferent type over whole stress traces, and the
    int64 spike count of each trace's window [start, end) in ms.

    Each trace goes through the type's filter chain, and one SpikeCounter
    pass integrates them all to their ends; spikes land on step times in
    (0, duration].
    """
    counter = SpikeCounter([filtered_inputs(params, t.values) for t in traces], windows_ms)
    (counts,), (steps,) = counter.spike_steps(ParamTable.from_params([params]))
    params_hash = params.content_hash()
    trains = [
        SpikeTrain(
            afferent_type=params.afferent_type,
            duration_ms=t.duration_ms,
            spike_times_ms=k.astype(float) * DT_MS,
            params_hash=params_hash,
            meta={"node_id": t.node_id},
        )
        for t, k in zip(traces, steps)
    ]
    return trains, counts
