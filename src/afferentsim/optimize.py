"""NSGA-II fitting of afferent parameters against observed firing rates.

The tunables per afferent type are (tau_m, saturation constants, alpha'),
laid out as genes with their bounds and encodings in FITTED_PARAMETERS;
cell constants (threshold, rest/reset, refractory, filter widths) stay
fixed.  Objectives are the per-frequency mean squared rate errors over the
stimulus bank, one objective per stimulus frequency (20/50/100/300 Hz),
all to be minimized.  The bank is a list of sinusoids, each a StimulusSpec
and one afferent's stress trace array, counted by neural.bank_counter over
its spec's [discard, discard + window), as simulate counts its rates; only
ObservedRateSet.stimulus_rows matches observed rates to its specs.

The returned front is the rank-0 subset of the final population; the full
population is exported so a human can re-pick, but select_candidate applies
a deterministic rule (min objective sum, then min worst objective, then
lexicographic genes) so pipelines are reproducible.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, short_digest
from .mesh import AFFERENT_TYPES
from .neural import AfferentParams, ParamTable, default_afferent_params
from .neural import SATURATION_FIELDS, bank_counter, run_afferents
from .stimulus import StimulusSpec

OBJECTIVE_FREQS = (20.0, 50.0, 100.0, 300.0)

# Each afferent type's fitted parameters, one row (AfferentParams field, low,
# high, log10) per gene in gene order; bounds are in gene units and hold each
# shipped default with ~2 orders of margin (log10 where values span decades).
FITTED_PARAMETERS = {
    atype: (("tau_m_ms", 1.0, 2000.0, False), *((name, 0.0, 6.0, True) for name in sats),
            ("alpha_prime", 0.01, 100.0, False))
    for atype, sats in SATURATION_FIELDS.items()
}

# NSGA-II variation operators: SBX crossover and polynomial mutation with
# these distribution indices; each gene mutates with probability 1/n_genes.
ETA_CROSSOVER = 15.0
ETA_MUTATION = 20.0
CROSSOVER_PROB = 0.9


def gene_bounds(afferent_type: str) -> tuple[np.ndarray, np.ndarray]:
    rows = FITTED_PARAMETERS[afferent_type]
    return np.array([low for _, low, _, _ in rows]), np.array([high for _, _, high, _ in rows])


def _pow10(log10_a) -> float:
    # a scalar power on every path: NumPy's vectorised power may round
    # differently in the last bit on some CPUs, and that would move fronts
    return float(10.0 ** log10_a)


def genes_to_params(afferent_type: str, genes: np.ndarray) -> AfferentParams:
    """Decode a search vector onto the fixed-constant template for the type."""
    rows = FITTED_PARAMETERS[afferent_type]
    if genes.shape != (len(rows),):
        raise ValidationError(f"{afferent_type} expects {len(rows)} genes, got {genes.shape}")
    return dataclasses.replace(default_afferent_params()[afferent_type], **{
        name: _pow10(g) if log10 else float(g) for (name, _, _, log10), g in zip(rows, genes)})


def _population_rows(afferent_type: str, genes: np.ndarray) -> tuple:
    rows = FITTED_PARAMETERS[afferent_type]
    if genes.ndim != 2 or genes.shape[1] != len(rows):
        raise ValidationError(f"{afferent_type} expects genes of shape (N, {len(rows)}), "
                              f"got {genes.shape}")
    return rows


def genes_to_table(afferent_type: str, genes: np.ndarray) -> ParamTable:
    """Decode a population, genes of shape (N, n_genes), into one parameter
    table of the type's fixed-constant template: set i holds exactly the
    values genes_to_params(genes[i]) does."""
    rows = _population_rows(afferent_type, genes)
    columns = {name: [_pow10(g) for g in col] if log10 else col
               for (name, _, _, log10), col in zip(rows, genes.T)}
    sats = [columns[name] for name in SATURATION_FIELDS[afferent_type]]
    return ParamTable(default_afferent_params()[afferent_type], columns["tau_m_ms"],
                      columns["alpha_prime"], sats)


# --------------------------------------------------------------------------
# observed data and objective evaluation


@dataclass(frozen=True)
class ObservedRateSet:
    afferent_type: str
    records: tuple[tuple[float, float, float], ...]  # (freq_hz, amplitude_um, rate_ips)

    def __post_init__(self) -> None:
        if not self.records:
            raise ValidationError(f"no observed rates for {self.afferent_type}")
        seen = set()
        for f, a, r in self.records:
            for name, value in (("freq_hz", f), ("amplitude_um", a), ("rate_ips", r)):
                if not np.isfinite(value):
                    raise ValidationError(f"observed {name} {value} is not finite")
            if f not in OBJECTIVE_FREQS:
                raise ValidationError(
                    f"observed frequency {f} Hz outside {OBJECTIVE_FREQS}"
                )
            if r < 0:
                raise ValidationError(f"negative observed rate at ({f} Hz, {a} um)")
            if (f, a) in seen:
                raise ValidationError(f"duplicate observed condition ({f} Hz, {a} um)")
            seen.add((f, a))

    def stimulus_rows(self, specs) -> list[int]:
        """Each record's index in `specs`, sinusoid StimulusSpecs, in record
        order.  Refuses two specs at one (freq, amplitude) and a record at a
        (freq, amplitude) no spec has."""
        rows: dict[tuple[float, float], int] = {}
        for i, spec in enumerate(specs):
            first = rows.setdefault((spec.freq_hz, spec.amplitude_um), i)
            if first != i:
                raise ValidationError(
                    f"stimuli {specs[first].stimulus_id!r} and {spec.stimulus_id!r} are both "
                    f"{spec.freq_hz} Hz at {spec.amplitude_um} um; fit needs one stimulus "
                    "per condition"
                )
        missing = sorted({(f, a) for f, a, _ in self.records} - set(rows))
        if missing:
            raise ValidationError(f"no {self.afferent_type} stimulus for observed conditions: "
                                  + ", ".join(f"({f} Hz, {a} um)" for f, a in missing))
        return [rows[(f, a)] for f, a, _ in self.records]

    def content_hash(self) -> str:
        return short_digest([self.afferent_type] + [list(map(float, r)) for r in self.records])


def observed_rates_from_csv(path, afferent_types) -> dict[str, ObservedRateSet]:
    """The validated observed rates of each of `afferent_types`, read in one
    pass over the `afferent,freq_hz,amplitude_um,rate_ips` rows of `path`;
    every row must parse, whichever types are read."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = [
                (no, ln.strip()) for no, ln in enumerate(fh, 1)
                if ln.strip() and not ln.startswith("#")
            ]
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read observed rates {path}: {exc}") from exc
    header = "afferent,freq_hz,amplitude_um,rate_ips"
    if not lines or [c.strip() for c in lines[0][1].split(",")] != header.split(","):
        raise ValidationError(f"{path}: expected header {header}")
    records = {atype: [] for atype in afferent_types}
    for no, ln in lines[1:]:
        parts = ln.split(",")
        try:
            values = tuple(float(c) for c in parts[1:])
        except ValueError:
            values = ()
        if len(values) != 3 or not np.all(np.isfinite(values)):
            raise ValidationError(
                f"{path}: line {no}: malformed row {ln!r} (need an afferent "
                "and three finite numbers)"
            )
        afferent = parts[0].strip()
        if afferent not in AFFERENT_TYPES:
            raise ValidationError(
                f"{path}: line {no}: unknown afferent {parts[0]!r} (need one of "
                f"{', '.join(AFFERENT_TYPES)})"
            )
        if afferent in records:
            records[afferent].append(values)
    return {atype: ObservedRateSet(atype, tuple(rows)) for atype, rows in records.items()}


class RateEvaluator:
    """Maps a population of gene vectors to per-frequency squared rate errors.

    Called with genes of shape (N, n_genes), returns objectives of shape
    (N, 4).  The filter chain does not depend on any tunable gene, so
    neural.bank_counter filters each stimulus once up front.  Per
    population the genes are decoded into one ParamTable, with no
    AfferentParams per candidate, and the saturating transform and the
    windowed spike count run for all candidates and stimuli in one
    SpikeCounter call.

    The evaluator keeps the int32 window counts of every distinct gene
    vector it has integrated, one row per vector keyed by its bytes, each
    row as its call's SpikeCounter output gave it; only unseen vectors go
    to SpikeCounter, and a vector repeated within a call goes once.
    NSGA-II children repeat an earlier vector when crossover and mutation
    both leave a parent unchanged (3.5-7% of them at population 100).  The
    store holds at most one row per evaluation, budget x observed stimuli
    x 4 bytes of counts (1.48 MB for a default-budget fit on appendixA's 37
    sinusoids), and gives the selected candidate's rates without
    integrating it again.
    """

    def __init__(
        self,
        afferent_type: str,
        bank: list[tuple[StimulusSpec, np.ndarray]],
        observed: ObservedRateSet,
    ):
        if observed.afferent_type != afferent_type:
            raise ValidationError("observed rates are for a different afferent type")
        self.afferent_type = afferent_type
        self.rows = observed.stimulus_rows([spec for spec, _ in bank])
        self._counter, self._window_s = bank_counter(
            default_afferent_params()[afferent_type], [bank[i] for i in self.rows]
        )
        self._observed = np.array([r for _, _, r in observed.records])
        self._freq_idx = [OBJECTIVE_FREQS.index(f) for f, _, _ in observed.records]
        self._counts: dict[bytes, np.ndarray] = {}

    def predicted_rates(self, genes: np.ndarray) -> np.ndarray:
        """(N, observed records) predicted rates in ips of each gene vector,
        count / window as run_afferents divides, integrating only the
        vectors not counted before."""
        genes = np.asarray(genes, dtype=float)
        _population_rows(self.afferent_type, genes)
        keys = [row.tobytes() for row in genes]
        # each unseen vector once, in the order first seen
        fresh = {key: i for i, key in enumerate(keys) if key not in self._counts}
        if fresh:
            table = genes_to_table(self.afferent_type, genes[list(fresh.values())])
            self._counts.update(zip(fresh, self._counter(table).astype(np.int32)))
        counts = np.array([self._counts[key] for key in keys], dtype=np.int32)
        return counts.reshape(len(keys), len(self.rows)) / self._window_s

    def __call__(self, genes: np.ndarray) -> np.ndarray:
        err = self.predicted_rates(genes) - self._observed
        sq = err * err
        # accumulate in record order, as a per-candidate loop would
        sums = np.zeros((sq.shape[0], len(OBJECTIVE_FREQS)))
        counts = np.zeros(len(OBJECTIVE_FREQS), dtype=int)
        for s, i in enumerate(self._freq_idx):
            sums[:, i] += sq[:, s]
            counts[i] += 1
        return sums / np.maximum(counts, 1)


# --------------------------------------------------------------------------
# NSGA-II machinery


def fast_non_dominated_sort(objs: np.ndarray) -> np.ndarray:
    """Rank array: 0 for the non-dominated set, 1 for the next layer, ...

    Under minimization i dominates j when it is no worse on every objective
    and better on some.  Once i is <= j everywhere, "better on some" is the
    same as "not equal on all", so the matrix is built one objective at a
    time from two (n, n) comparisons, with no (n, n, k) intermediate.
    """
    n = objs.shape[0]
    le = np.ones((n, n), dtype=bool)
    eq = np.ones((n, n), dtype=bool)
    for col in objs.T:
        le &= np.less_equal.outer(col, col)
        eq &= np.equal.outer(col, col)
    dom = le & ~eq  # dom[i, j]: i dominates j
    n_dominators = dom.sum(axis=0)
    ranks = np.full(n, -1, dtype=int)
    current = 0
    remaining = np.ones(n, dtype=bool)
    while remaining.any():
        front = remaining & (n_dominators == 0)
        if not front.any():  # pragma: no cover - dominance is acyclic
            raise ValidationError("non-dominated sort failed to make progress")
        ranks[front] = current
        n_dominators = n_dominators - dom[front].sum(axis=0)
        n_dominators[front] = -1
        remaining &= ~front
        current += 1
    return ranks


def crowding_distance(objs: np.ndarray) -> np.ndarray:
    """Crowding of members of a single front (any shape (m, k), m >= 1)."""
    m, k = objs.shape
    dist = np.zeros(m)
    if m <= 2:
        dist[:] = np.inf
        return dist
    for j in range(k):
        order = np.argsort(objs[:, j], kind="stable")
        vals = objs[order, j]
        dist[order[0]] = dist[order[-1]] = np.inf
        span = vals[-1] - vals[0]
        if span > 0:
            dist[order[1:-1]] += (vals[2:] - vals[:-2]) / span
    return dist


def _crowding_by_rank(objs: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Each member's crowding distance within its own front."""
    crowd = np.empty(objs.shape[0])
    for r in range(ranks.max() + 1):
        idx = np.flatnonzero(ranks == r)
        crowd[idx] = crowding_distance(objs[idx])
    return crowd


def _survivors(objs: np.ndarray, ranks: np.ndarray, size: int) -> np.ndarray:
    """Indices of the `size` members kept: whole fronts in rank order, then
    the most crowding-distant members of the first front that does not fit.

    Every dominator of a survivor lies in an earlier front and so survives
    too, so each survivor's rank among the survivors is its rank here.
    """
    chosen: list[int] = []
    for r in range(ranks.max() + 1):
        idx = np.flatnonzero(ranks == r)
        if len(chosen) + idx.size <= size:
            chosen.extend(idx.tolist())
        else:
            dist = crowding_distance(objs[idx])
            order = np.argsort(-dist, kind="stable")
            chosen.extend(idx[order[: size - len(chosen)]].tolist())
        if len(chosen) >= size:
            break
    return np.array(chosen, dtype=int)


def _tournament(rng, ranks, crowd) -> int:
    i, j = rng.integers(0, ranks.size, size=2)
    if ranks[i] != ranks[j]:
        return int(i if ranks[i] < ranks[j] else j)
    if crowd[i] != crowd[j]:
        return int(i if crowd[i] > crowd[j] else j)
    return int(min(i, j))


def _sbx_pair(p1, p2, low, high, rng):
    eta = ETA_CROSSOVER
    c1, c2 = p1.copy(), p2.copy()
    for g in range(p1.size):
        if rng.random() > 0.5 or abs(p1[g] - p2[g]) < 1e-14:
            continue
        u = rng.random()
        if u <= 0.5:
            beta = (2.0 * u) ** (1.0 / (eta + 1.0))
        else:
            beta = (1.0 / (2.0 * (1.0 - u))) ** (1.0 / (eta + 1.0))
        y1 = 0.5 * ((1 + beta) * p1[g] + (1 - beta) * p2[g])
        y2 = 0.5 * ((1 - beta) * p1[g] + (1 + beta) * p2[g])
        c1[g] = min(max(y1, low[g]), high[g])
        c2[g] = min(max(y2, low[g]), high[g])
    return c1, c2


def _polynomial_mutation(x, low, high, rng):
    eta = ETA_MUTATION
    for g in range(x.size):
        if rng.random() >= 1.0 / x.size:
            continue
        xl, xu = low[g], high[g]
        span = xu - xl
        u = rng.random()
        d1 = (x[g] - xl) / span
        d2 = (xu - x[g]) / span
        if u < 0.5:
            dq = (2 * u + (1 - 2 * u) * (1 - d1) ** (eta + 1)) ** (1 / (eta + 1)) - 1
        else:
            dq = 1 - (2 * (1 - u) + 2 * (u - 0.5) * (1 - d2) ** (eta + 1)) ** (1 / (eta + 1))
        x[g] = min(max(x[g] + dq * span, xl), xu)


def _evaluate_population(evaluate, genes: np.ndarray) -> np.ndarray:
    objs = np.asarray(evaluate(genes), dtype=float)
    if objs.ndim != 2 or objs.shape[0] != genes.shape[0]:
        raise ValidationError(
            f"evaluate must return (N, n_objectives) for {genes.shape[0]} "
            f"candidates, got shape {objs.shape}"
        )
    if not np.all(np.isfinite(objs)):
        bad = int(np.flatnonzero(~np.isfinite(objs).all(axis=1))[0])
        raise ValidationError(
            f"objective evaluation returned non-finite values for candidate "
            f"{genes[bad].tolist()}"
        )
    return objs


@dataclass
class ParetoFront:
    genes: np.ndarray  # final population, (N, n_genes)
    objectives: np.ndarray  # (N, n_objectives)
    ranks: np.ndarray
    seed: int
    budget: int
    bounds_low: np.ndarray
    bounds_high: np.ndarray
    best_sum_history: list[float] = field(default_factory=list)

    def front_indices(self) -> np.ndarray:
        return np.flatnonzero(self.ranks == 0)


def nsga2(
    evaluate,
    bounds: tuple[np.ndarray, np.ndarray],
    budget: int,
    seed: int,
    *,
    population_size: int,
) -> ParetoFront:
    """Elitist NSGA-II; stops when the evaluation budget would be exceeded.

    `evaluate` maps a population, genes of shape (N, n_genes), to its
    objectives, shape (N, n_objectives); it is called once per generation.
    Children come from binary tournaments, SBX crossover (ETA_CROSSOVER,
    applied with probability CROSSOVER_PROB) and polynomial mutation
    (ETA_MUTATION, each gene with probability 1/n_genes).  Fully
    deterministic for a fixed seed: one generator drives all draws and
    every sort is stable.
    """
    low = np.asarray(bounds[0], dtype=float)
    high = np.asarray(bounds[1], dtype=float)
    if low.shape != high.shape or low.ndim != 1:
        raise ValidationError("bounds must be two equal-length 1-D arrays")
    if not np.all(np.isfinite(low)) or not np.all(np.isfinite(high)) or np.any(low >= high):
        raise ValidationError("bounds must be finite with low < high")
    if population_size < 2:
        raise ValidationError("population_size must be >= 2")
    if budget < population_size:
        raise ValidationError("budget must cover at least the initial population")
    n_genes = low.size
    rng = np.random.default_rng(seed)

    pop = rng.uniform(low, high, size=(population_size, n_genes))
    objs = _evaluate_population(evaluate, pop)
    evals = population_size
    ranks = fast_non_dominated_sort(objs)
    crowd = _crowding_by_rank(objs, ranks)
    best = float(objs.sum(axis=1).min())
    history = [best]

    while evals + population_size <= budget:
        children = np.empty_like(pop)
        for i in range(0, population_size - 1, 2):
            a = _tournament(rng, ranks, crowd)
            b = _tournament(rng, ranks, crowd)
            if rng.random() < CROSSOVER_PROB:
                c1, c2 = _sbx_pair(pop[a], pop[b], low, high, rng)
            else:
                c1, c2 = pop[a].copy(), pop[b].copy()
            _polynomial_mutation(c1, low, high, rng)
            _polynomial_mutation(c2, low, high, rng)
            children[i], children[i + 1] = c1, c2
        if population_size % 2:
            a = _tournament(rng, ranks, crowd)
            c1 = pop[a].copy()
            _polynomial_mutation(c1, low, high, rng)
            children[-1] = c1
        child_objs = _evaluate_population(evaluate, children)
        evals += population_size

        merged = np.vstack([pop, children])
        merged_objs = np.vstack([objs, child_objs])
        merged_ranks = fast_non_dominated_sort(merged_objs)
        pick = _survivors(merged_objs, merged_ranks, population_size)
        pop = merged[pick]
        objs = merged_objs[pick]
        ranks = merged_ranks[pick]
        crowd = _crowding_by_rank(objs, ranks)
        best = min(best, float(objs.sum(axis=1).min()))
        history.append(best)

    return ParetoFront(
        genes=pop, objectives=objs, ranks=ranks, seed=seed, budget=budget,
        bounds_low=low, bounds_high=high, best_sum_history=history,
    )


def select_candidate(front: ParetoFront) -> int:
    """Deterministic pick from the rank-0 set; returns an index into the front.

    Rule: minimal objective sum, then minimal worst single objective, then
    lexicographically smallest gene vector.
    """
    idx = front.front_indices()
    if idx.size == 0:
        raise ValidationError("empty front")
    keys = [
        (
            float(front.objectives[i].sum()),
            float(front.objectives[i].max()),
            tuple(float(g) for g in front.genes[i]),
            int(i),
        )
        for i in idx
    ]
    return min(keys)[-1]


@dataclass
class FitOutcome:
    afferent_type: str
    selected: AfferentParams
    selected_objectives: np.ndarray
    front: ParetoFront
    observed: ObservedRateSet
    # predicted ips of the selected candidate on each of the bank's
    # stimuli, in bank order: run_afferents(selected, bank)[1], bit for bit
    predicted: np.ndarray

    @property
    def objective_sum(self) -> float:
        return float(self.selected_objectives.sum())


def fit_afferent(
    afferent_type: str,
    bank: list[tuple[StimulusSpec, np.ndarray]],
    observed: ObservedRateSet,
    seed: int,
    *,
    budget: int,
    population_size: int,
) -> FitOutcome:
    """Fit one afferent type; the selected candidate's rates on the observed
    stimuli come from the search's own counts, and only the bank's other
    stimuli are integrated again."""
    evaluator = RateEvaluator(afferent_type, bank, observed)
    front = nsga2(evaluator, gene_bounds(afferent_type), budget, seed,
                  population_size=population_size)
    pick = select_candidate(front)
    selected = genes_to_params(afferent_type, front.genes[pick])
    predicted = np.empty(len(bank))
    predicted[evaluator.rows] = evaluator.predicted_rates(front.genes[pick:pick + 1])[0]
    rest = sorted(set(range(len(bank))) - set(evaluator.rows))
    if rest:
        predicted[rest] = run_afferents(selected, [bank[i] for i in rest])[1]
    return FitOutcome(
        afferent_type=afferent_type,
        selected=selected,
        selected_objectives=front.objectives[pick].copy(),
        front=front,
        observed=observed,
        predicted=predicted,
    )


def recover_parameters(
    ground_truth: AfferentParams,
    bank: list[tuple[StimulusSpec, np.ndarray]],
    seed: int,
    *,
    budget: int,
    population_size: int,
) -> FitOutcome:
    """Self-test: fit against rates synthesized from a known parameter set."""
    rates = run_afferents(ground_truth, bank)[1]
    synthetic = ObservedRateSet(ground_truth.afferent_type, tuple(
        (spec.freq_hz, spec.amplitude_um, float(r)) for (spec, _), r in zip(bank, rates)))
    return fit_afferent(
        ground_truth.afferent_type, bank, synthetic, seed,
        budget=budget, population_size=population_size,
    )


# --------------------------------------------------------------------------
# exports


def front_to_csv(front: ParetoFront, afferent_type: str, provenance: str) -> str:
    """CSV text of the full final population, front first, decoded parameter
    columns, after a provenance line."""
    param_cols = [name for name, _, _, _ in FITTED_PARAMETERS[afferent_type]]
    # one decode for the whole population: its columns are genes_to_params's
    # values bit for bit, so the text is that of a per-row decode
    table = genes_to_table(afferent_type, front.genes)
    columns = dict(zip(SATURATION_FIELDS[afferent_type], table.saturation),
                   tau_m_ms=table.tau_m_ms, alpha_prime=table.alpha_prime)
    params = np.column_stack([columns[name] for name in param_cols]).tolist()
    objectives = np.asarray(front.objectives, dtype=float).tolist()
    order = sorted(
        range(front.genes.shape[0]),
        key=lambda i: (
            int(front.ranks[i]),
            float(front.objectives[i].sum()),
            tuple(float(g) for g in front.genes[i]),
        ),
    )
    obj_cols = ",".join(f"objective_{int(f)}" for f in OBJECTIVE_FREQS)
    lines = [f"# provenance: {provenance}\n", f"rank,{obj_cols},{','.join(param_cols)}\n"]
    lines += [
        f"{int(front.ranks[i])},{','.join(map(repr, objectives[i]))},"
        f"{','.join(map(repr, params[i]))}\n"
        for i in order
    ]
    return "".join(lines)


def selected_to_json(outcome: FitOutcome, extra_provenance: dict) -> dict:
    """The JSON payload of the selected candidate: its parameters,
    objectives and provenance, extra_provenance's keys included."""
    return {
        "afferent": outcome.afferent_type,
        "params": outcome.selected.to_dict(),
        "objectives": {
            f"objective_{int(f)}": float(v)
            for f, v in zip(OBJECTIVE_FREQS, outcome.selected_objectives)
        },
        "objective_sum": outcome.objective_sum,
        "provenance": {
            "seed": outcome.front.seed,
            "budget": outcome.front.budget,
            "population": int(outcome.front.genes.shape[0]),
            "bounds_low": [float(v) for v in outcome.front.bounds_low],
            "bounds_high": [float(v) for v in outcome.front.bounds_high],
            "observed_data_hash": outcome.observed.content_hash(),
            **extra_provenance,
        },
    }
