import csv
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afferentsim import neural, optimize, stimulus
from afferentsim.errors import ValidationError
from oracles import dominates, front_csv_text, params_to_genes

DT = 0.5


def synthetic_bank(amps=(10.0, 50.0)):
    """Fabricated offset-sinusoid stress traces at each objective frequency,
    each with the appendixA sinusoid spec whose window counts it."""
    bank = {}
    for f in optimize.OBJECTIVE_FREQS:
        window = stimulus.sinusoid_window_ms(f)
        n = round((stimulus.DISCARD_MS + window) / DT) + 1
        t = np.arange(n) * DT
        for amp in amps:
            spec = stimulus.StimulusSpec(
                stimulus_id=f"sin_{f:g}hz_{amp:g}um", kind="sinusoid",
                duration_ms=stimulus.DISCARD_MS + window,
                discard_ms=stimulus.DISCARD_MS, window_ms=window, freq_hz=f, amplitude_um=amp,
            )
            values = amp * 800.0 * (1.0 + np.sin(2 * np.pi * f * t / 1000.0))
            bank[(f, amp)] = (spec, values)
    return bank


# ------------------------------------------------------------ gene mapping


def test_gene_round_trip():
    for name, params in neural.default_afferent_params().items():
        genes = params_to_genes(params)
        assert len(genes) == len(optimize.gene_bounds(name)[0])
        again = optimize.genes_to_params(name, genes)
        assert again.tau_m_ms == pytest.approx(params.tau_m_ms, rel=1e-12)
        assert again.alpha_prime == pytest.approx(params.alpha_prime, rel=1e-12)
        for g, s in zip(genes[1:-1], params.saturation()):
            assert 10.0**g == pytest.approx(s, rel=1e-12)
        # fixed constants are preserved, not fitted
        assert again.threshold_mv == params.threshold_mv
        assert again.tau_r_ms == params.tau_r_ms

        low, high = optimize.gene_bounds(name)
        assert np.all(genes >= low) and np.all(genes <= high)
        assert low[0] == 1.0 and high[0] == 2000.0
        assert np.all(low[1:-1] == 0.0) and np.all(high[1:-1] == 6.0)
        assert low[-1] == 0.01 and high[-1] == 100.0


def test_gene_count_by_type():
    for atype, n_genes in (("SA", 4), ("RA", 3), ("PC", 3)):
        low, high = optimize.gene_bounds(atype)
        assert low.size == high.size == n_genes


# ---------------------------------------------------------- observed rates


def test_observed_rate_set_validation():
    optimize.ObservedRateSet("RA", ((20.0, 10.0, 5.0), (50.0, 10.0, 40.0)))
    with pytest.raises(ValidationError):
        optimize.ObservedRateSet("RA", ((60.0, 10.0, 5.0),))
    with pytest.raises(ValidationError):
        optimize.ObservedRateSet(
            "RA", ((20.0, 10.0, 5.0), (20.0, 10.0, 6.0))
        )
    with pytest.raises(ValidationError):
        optimize.ObservedRateSet("RA", ((20.0, 10.0, -1.0),))


def test_observed_rate_csv_round_trip(tmp_path):
    sets = [
        optimize.ObservedRateSet("SA", ((20.0, 6.71, 12.0), (300.0, 50.0, 0.0))),
        optimize.ObservedRateSet("RA", ((100.0, 10.0, 80.5),)),
    ]
    path = tmp_path / "observed.csv"
    path.write_text("afferent,freq_hz,amplitude_um,rate_ips\n" + "".join(
        f"{s.afferent_type},{f!r},{a!r},{r!r}\n" for s in sets for f, a, r in s.records
    ))
    sa = optimize.observed_rates_from_csv(path, ["SA"])["SA"]
    assert sa.records == sets[0].records
    ra = optimize.observed_rates_from_csv(path, ["RA"])["RA"]
    assert ra.records == sets[1].records
    assert sa.content_hash() != ra.content_hash()
    with pytest.raises(ValidationError):
        optimize.observed_rates_from_csv(path, ["PC"])  # no rows for PC


def test_observed_rate_csv_reads_every_type_at_once(tmp_path):
    """One read gives each asked-for type the set a read of it alone gives,
    in the order asked, and names the first type without rows."""
    path = tmp_path / "observed.csv"
    path.write_text("afferent,freq_hz,amplitude_um,rate_ips\n"
                    "SA,20,10,5\nRA,50,10,40\nSA,300,50,0\n")
    both = optimize.observed_rates_from_csv(path, ["RA", "SA"])
    assert list(both) == ["RA", "SA"]
    for atype, observed in both.items():
        assert observed == optimize.observed_rates_from_csv(path, [atype])[atype]
    assert both["SA"].records == ((20.0, 10.0, 5.0), (300.0, 50.0, 0.0))
    with pytest.raises(ValidationError, match="^no observed rates for PC$"):
        optimize.observed_rates_from_csv(path, ["SA", "PC", "RA"])


def test_observed_rate_csv_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("afferent,frequency,amp,rate\nRA,20,10,5\n")
    with pytest.raises(ValidationError):
        optimize.observed_rates_from_csv(path, ["RA"])


@pytest.mark.parametrize("row", [
    "RA,20,abc,5", "RA,20,10,nan", "RA,inf,10,5", "SA,20,10,", "RA,20,10",
])
def test_observed_rate_csv_rejects_bad_cells(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text(
        "# comment\nafferent,freq_hz,amplitude_um,rate_ips\nRA,50,10,5\n"
        f"{row}\n"
    )
    # every row must parse, whichever afferent type is read
    with pytest.raises(ValidationError, match="line 4"):
        optimize.observed_rates_from_csv(path, ["RA"])


def test_observed_rate_csv_strips_afferent_cell(tmp_path):
    path = tmp_path / "observed.csv"
    path.write_text("afferent,freq_hz,amplitude_um,rate_ips\n"
                    "RA,20,10,5\nRA ,50,10,40\n PC,20,10,1\n")
    ra = optimize.observed_rates_from_csv(path, ["RA"])["RA"]
    assert ra.records == ((20.0, 10.0, 5.0), (50.0, 10.0, 40.0))


# -------------------------------------------------------------- objectives


def test_objectives_self_consistency():
    bank = synthetic_bank()
    truth = neural.default_afferent_params()["RA"]
    observed = optimize.ObservedRateSet(
        "RA", records=tuple(optimize.predict_rates(truth, bank))
    )
    genes = params_to_genes(truth)
    objs = optimize.RateEvaluator("RA", bank, observed)(genes[None])[0]
    assert objs.shape == (4,)
    assert np.all(objs == 0.0)

    # a uniform +10 ips offset in the observations costs exactly 100 per band
    shifted = optimize.ObservedRateSet(
        "RA", records=tuple((f, a, r + 10.0) for f, a, r in observed.records)
    )
    objs = optimize.RateEvaluator("RA", bank, shifted)(genes[None])[0]
    assert np.allclose(objs, 100.0, atol=1e-9)


def test_objective_scaling_is_quadratic(monkeypatch):
    """With a pinned predictor, scaling observations by c scales errors c^2."""
    bank = synthetic_bank()

    class SilentCounter:
        def __init__(self, features, windows_ms):
            self.n_stimuli = len(features)

        def __call__(self, table):
            assert isinstance(table, neural.ParamTable)
            return np.zeros((len(table), self.n_stimuli), dtype=np.int64)

    monkeypatch.setattr(optimize, "SpikeCounter", SilentCounter)
    genes = params_to_genes(neural.default_afferent_params()["RA"])
    base = optimize.ObservedRateSet(
        "RA", tuple((f, a, 3.0 + f / 10.0) for (f, a) in sorted(synthetic_bank()))
    )
    c = 7.0
    scaled = optimize.ObservedRateSet(
        "RA", tuple((f, a, c * r) for f, a, r in base.records)
    )
    o1 = optimize.RateEvaluator("RA", bank, base)(genes[None])[0]
    o2 = optimize.RateEvaluator("RA", bank, scaled)(genes[None])[0]
    assert np.allclose(o2, c**2 * o1, rtol=1e-12)


@pytest.mark.parametrize("afferent", ["SA", "RA", "PC"])
def test_rate_evaluator_batch_equals_single_rows(afferent, monkeypatch):
    """A batch's objectives equal those of each row on its own, and an
    evaluator that has counted rows before, fed a batch that repeats rows
    within itself and from an earlier call, gives a fresh evaluator's
    objectives while handing SpikeCounter each distinct unseen row once."""
    bank = synthetic_bank()
    truth = neural.default_afferent_params()[afferent]
    observed = optimize.ObservedRateSet(
        afferent, records=tuple(
            (f, a, r + 3.0) for f, a, r in optimize.predict_rates(truth, bank)
        )
    )

    def fresh():
        return optimize.RateEvaluator(afferent, bank, observed)

    low, high = optimize.gene_bounds(afferent)
    genes = np.random.default_rng(7).uniform(low, high, size=(12, low.size))
    genes[0] = params_to_genes(truth)
    batch = fresh()(genes)
    assert batch.shape == (12, 4)
    rows = np.vstack([fresh()(genes[i:i + 1]) for i in range(12)])
    assert np.array_equal(batch, rows)
    mixed = genes[[4, 9, 9, 0, 11, 5, 9, 7, 11, 2]]
    expected = fresh()(mixed)

    handed = []

    class RecordingCounter(neural.SpikeCounter):
        def __call__(self, table):
            handed.extend(zip(table.tau_m_ms.tolist(), table.alpha_prime.tolist(),
                              *table.saturation.tolist()))
            return super().__call__(table)

    monkeypatch.setattr(optimize, "SpikeCounter", RecordingCounter)
    evaluator = fresh()
    assert np.array_equal(evaluator(genes[:6]), batch[:6])
    assert np.array_equal(evaluator(mixed), expected)
    assert np.array_equal(evaluator(genes), batch)
    table = optimize.genes_to_table(afferent, genes[[0, 1, 2, 3, 4, 5, 9, 11, 7, 6, 8, 10]])
    assert handed == list(zip(table.tau_m_ms.tolist(), table.alpha_prime.tolist(),
                              *table.saturation.tolist()))
    with pytest.raises(ValidationError):
        evaluator(genes[0])  # one candidate is still a (1, n_genes) batch


@pytest.mark.parametrize("afferent", ["SA", "RA", "PC"])
def test_gene_columns_match_afferent_params_path(afferent):
    """The evaluator's table, built straight from the genes, gives bit for
    bit the objectives of decoding each gene vector with genes_to_params and
    counting through ParamTable.from_params, over genes spanning the bounds."""
    bank = synthetic_bank()
    truth = neural.default_afferent_params()[afferent]
    observed = optimize.ObservedRateSet(
        afferent, records=tuple(
            (f, a, r + 3.0) for f, a, r in optimize.predict_rates(truth, bank)
        )
    )
    low, high = optimize.gene_bounds(afferent)
    genes = np.random.default_rng(11).uniform(low, high, size=(200, low.size))
    genes[0], genes[1] = low, high
    got = optimize.RateEvaluator(afferent, bank, observed)(genes)

    params = [optimize.genes_to_params(afferent, g) for g in genes]
    table = optimize.genes_to_table(afferent, genes)
    by_params = neural.ParamTable.from_params(params)
    for name in neural.CELL_FIELDS:
        assert getattr(table.cell, name) == getattr(by_params.cell, name), name
    for name in ("tau_m_ms", "alpha_prime", "saturation"):
        assert getattr(table, name).tobytes() == getattr(by_params, name).tobytes(), name
    counter, window_s = optimize._window_counter(
        truth, bank, [(f, a) for f, a, _ in observed.records]
    )
    rates = counter(by_params) / window_s
    expected = np.zeros((len(params), len(optimize.OBJECTIVE_FREQS)))
    for i, row in enumerate(rates):
        for j, freq in enumerate(optimize.OBJECTIVE_FREQS):
            acc, n = 0.0, 0
            for rate, (f, _, obs) in zip(row, observed.records):
                if f == freq:
                    acc += (rate - obs) * (rate - obs)
                    n += 1
            expected[i, j] = acc / max(n, 1)
    assert got.tobytes() == expected.tobytes()


def test_rate_paths_refuse_a_trace_shorter_than_its_window():
    """A 150 ms trace cannot fill its spec's window of [100, 200) ms: both
    predict_rates and the evaluator refuse it and name the condition,
    where counting up to the trace end would divide a partial count by the
    full window."""
    bank = synthetic_bank()
    spec, full = bank[(50.0, 10.0)]
    bank[(50.0, 10.0)] = (spec, full[:301])
    truth = neural.default_afferent_params()["RA"]
    with pytest.raises(ValidationError, match=r"\(50.0 Hz, 10.0 um\) is shorter"):
        optimize.predict_rates(truth, bank)
    observed = optimize.ObservedRateSet("RA", ((20.0, 10.0, 5.0), (50.0, 10.0, 10.0)))
    with pytest.raises(ValidationError, match=r"\(50.0 Hz, 10.0 um\) is shorter"):
        optimize.RateEvaluator("RA", bank, observed)
    # a trace exactly as long as discard + window is counted
    bank[(50.0, 10.0)] = (spec, full)
    assert (full.size - 1) * DT == 200.0
    optimize.predict_rates(truth, bank)


def test_rates_count_over_each_spec_window():
    """Each condition is counted over its own spec's [discard, discard +
    window), so a spec with another window than appendixA's gets the rate
    simulate reports: its spike train's spikes in the window, per second."""
    bank = synthetic_bank()
    spec, trace = bank[(50.0, 10.0)]
    bank[(50.0, 10.0)] = (dataclasses.replace(spec, discard_ms=20.0, window_ms=180.0), trace)
    truth = neural.default_afferent_params()["RA"]
    expected = []
    for (f, a), (s, t) in sorted(bank.items()):
        lo, hi = s.discard_ms, s.discard_ms + s.window_ms
        (steps,), _ = neural.run_afferents([t], truth, [(lo, hi)])
        n = np.count_nonzero((steps * DT >= lo) & (steps * DT < hi))
        expected.append((f, a, n / (s.window_ms / 1000.0)))
    assert optimize.predict_rates(truth, bank) == expected
    assert expected != optimize.predict_rates(truth, synthetic_bank())


def test_evaluator_rejects_missing_conditions():
    bank = synthetic_bank()
    observed = optimize.ObservedRateSet("RA", ((20.0, 123.0, 5.0),))
    with pytest.raises(ValidationError, match="123"):
        optimize.RateEvaluator("RA", bank, observed)
    with pytest.raises(ValidationError):
        optimize.RateEvaluator(
            "SA", bank, optimize.ObservedRateSet("RA", ((20.0, 10.0, 5.0),))
        )


# ----------------------------------------------------- dominance machinery


def test_dominates_examples():
    a, b = np.array([1.0, 2.0]), np.array([2.0, 3.0])
    assert dominates(a, b)
    assert not dominates(b, a)
    assert not dominates(a, a)
    assert not dominates(np.array([1.0, 4.0]), np.array([2.0, 3.0]))
    # the sort's dominance matrix agrees on each pair
    for pair, ranks in [((a, b), [0, 1]), ((b, a), [1, 0]), ((a, a), [0, 0]),
                        (([1.0, 4.0], [2.0, 3.0]), [0, 0])]:
        assert optimize.fast_non_dominated_sort(np.array(pair)).tolist() == ranks


def _brute_force_ranks(objs):
    n = len(objs)
    ranks = np.full(n, -1)
    remaining = set(range(n))
    r = 0
    while remaining:
        front = []
        for i in remaining:
            dominated = False
            for j in remaining:
                if j != i and np.all(objs[j] <= objs[i]) and np.any(objs[j] < objs[i]):
                    dominated = True
                    break
            if not dominated:
                front.append(i)
        for i in front:
            ranks[i] = r
        remaining -= set(front)
        r += 1
    return ranks


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 24), st.integers(2, 4))
def test_sort_matches_brute_force(seed, n, m):
    rng = np.random.default_rng(seed)
    objs = rng.integers(0, 5, size=(n, m)).astype(float)  # ties are common
    assert np.array_equal(
        optimize.fast_non_dominated_sort(objs), _brute_force_ranks(objs)
    )


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 30), st.integers(2, 4))
def test_survivors_keep_their_ranks(seed, size, m):
    """nsga2 reads the survivors' ranks from the merged population's sort:
    they equal a fresh sort of the survivors alone."""
    rng = np.random.default_rng(seed)
    objs = rng.integers(0, 5, size=(2 * size, m)).astype(float)  # ties are common
    ranks = optimize.fast_non_dominated_sort(objs)
    pick = optimize._survivors(objs, ranks, size)
    assert pick.size == size and np.unique(pick).size == size
    assert np.array_equal(optimize.fast_non_dominated_sort(objs[pick]), ranks[pick])


def test_crowding_distance():
    objs = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
    d = optimize.crowding_distance(objs)
    assert d[0] == np.inf and d[2] == np.inf
    assert d[1] == pytest.approx(3.0)
    assert np.all(optimize.crowding_distance(objs[:2]) == np.inf)
    assert np.all(optimize.crowding_distance(objs[:1]) == np.inf)


# ------------------------------------------------------------------ nsga2


def _convex_problem(genes):
    x = genes[:, 0]
    return np.column_stack([x * x, (x - 2.0) * (x - 2.0)])


def _staircase_hypervolume(points, ref):
    pts = sorted({(float(a), float(b)) for a, b in points})
    hv, prev_y = 0.0, ref[1]
    for x, y in pts:
        if y < prev_y and x < ref[0]:
            hv += (ref[0] - x) * (prev_y - y)
            prev_y = y
    return hv


def test_nsga2_converges_on_convex_front():
    bounds = (np.array([-10.0]), np.array([10.0]))
    front = optimize.nsga2(_convex_problem, bounds, budget=2000, seed=3,
                           population_size=40)
    idx = front.front_indices()
    assert idx.size > 0
    objs = front.objectives[idx]
    # every rank-0 member really is non-dominated within the population
    for i in idx:
        for j in range(front.objectives.shape[0]):
            if j != i:
                assert not dominates(front.objectives[j], front.objectives[i])
    hv = _staircase_hypervolume(objs, (25.0, 25.0))
    exact = 625.0 - 8.0 / 3.0
    assert hv >= 0.95 * exact
    assert hv <= exact + 1e-9
    # best-so-far objective sum never worsens across generations
    hist = front.best_sum_history
    assert len(hist) >= 2
    assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))
    assert hist[-1] == pytest.approx(2.0, abs=0.05)  # min of the sum at x=1


def test_nsga2_determinism():
    bounds = (np.array([-10.0]), np.array([10.0]))
    a = optimize.nsga2(_convex_problem, bounds, budget=120, seed=9,
                       population_size=20)
    b = optimize.nsga2(_convex_problem, bounds, budget=120, seed=9,
                       population_size=20)
    c = optimize.nsga2(_convex_problem, bounds, budget=120, seed=10,
                       population_size=20)
    assert np.array_equal(a.genes, b.genes)
    assert np.array_equal(a.objectives, b.objectives)
    assert a.best_sum_history == b.best_sum_history
    assert not np.array_equal(a.genes, c.genes)


def test_nsga2_budget_equals_population_is_initial_sample_only():
    bounds = (np.array([-10.0]), np.array([10.0]))
    init_only = optimize.nsga2(_convex_problem, bounds, budget=40, seed=5,
                               population_size=40)
    assert len(init_only.best_sum_history) == 1
    converged = optimize.nsga2(_convex_problem, bounds, budget=2000, seed=5,
                               population_size=40)
    assert converged.best_sum_history[-1] <= init_only.best_sum_history[0] + 1e-12


def test_nsga2_validation():
    bounds = (np.array([-10.0]), np.array([10.0]))
    with pytest.raises(ValidationError):
        optimize.nsga2(_convex_problem, bounds, budget=100, seed=0,
                       population_size=1)
    with pytest.raises(ValidationError):
        optimize.nsga2(_convex_problem, bounds, budget=10, seed=0,
                       population_size=20)
    with pytest.raises(ValidationError):  # one row of objectives per candidate
        optimize.nsga2(lambda g: np.ones(len(g)), bounds, budget=20, seed=0,
                       population_size=20)


def test_nsga2_rejects_non_finite_objectives():
    bounds = (np.array([-10.0]), np.array([10.0]))
    with pytest.raises(ValidationError):
        optimize.nsga2(lambda g: np.tile([np.nan, 1.0], (len(g), 1)), bounds,
                       budget=4, seed=0, population_size=4)


# -------------------------------------------------------- candidate choice


def _front(genes, objectives, ranks=None):
    genes = np.asarray(genes, dtype=float)
    objectives = np.asarray(objectives, dtype=float)
    n = genes.shape[0]
    return optimize.ParetoFront(
        genes=genes,
        objectives=objectives,
        ranks=np.zeros(n, dtype=int) if ranks is None else np.asarray(ranks),
        seed=0, budget=0,
        bounds_low=np.zeros(genes.shape[1]),
        bounds_high=np.ones(genes.shape[1]),
    )


def test_select_candidate_rules():
    assert optimize.select_candidate(_front([[0.5]], [[1.0, 2.0]])) == 0
    # lower objective sum wins
    f = _front([[0.5], [0.2]], [[1.0, 3.0], [4.0, 5.0]])
    assert optimize.select_candidate(f) == 0
    # equal sums: lower worst objective wins
    f = _front([[0.5], [0.2]], [[0.0, 3.0], [1.0, 2.0]])
    assert optimize.select_candidate(f) == 1
    # equal sums and maxima: lexicographically smaller genes win
    f = _front([[0.5], [0.2]], [[1.0, 2.0], [2.0, 1.0]])
    assert optimize.select_candidate(f) == 1
    # only rank-0 members are considered
    f = _front([[0.5], [0.2]], [[9.0, 9.0], [0.0, 0.0]], ranks=[0, 1])
    assert optimize.select_candidate(f) == 0
    with pytest.raises(ValidationError):
        optimize.select_candidate(_front([[0.5]], [[1.0, 2.0]], ranks=[1]))


# -------------------------------------------------------------- end to end


def test_fit_afferent_and_exports():
    bank = synthetic_bank()
    truth = neural.default_afferent_params()["RA"]
    observed = optimize.ObservedRateSet(
        "RA", records=tuple(optimize.predict_rates(truth, bank))
    )
    outcome = optimize.fit_afferent("RA", bank, observed, seed=1,
                                    budget=96, population_size=16)
    assert outcome.afferent_type == "RA"
    assert outcome.selected.afferent_type == "RA"
    assert outcome.selected_objectives.shape == (4,)
    assert outcome.objective_sum >= 0.0
    assert outcome.front.genes.shape == (16, 3)

    lines = optimize.front_to_csv(outcome.front, "RA", provenance="prov").splitlines()
    assert lines[0] == "# provenance: prov"
    assert lines[1] == ("rank,objective_20,objective_50,objective_100,"
                        "objective_300,tau_m_ms,a3_pa_per_ms,alpha_prime")
    rows = list(csv.DictReader(lines[1:]))
    assert len(rows) == 16
    ranks = [int(r["rank"]) for r in rows]
    assert ranks == sorted(ranks)  # best candidates first
    for row in rows:  # each row is a valid parameter set
        neural.AfferentParams(
            afferent_type="RA", tau_m_ms=float(row["tau_m_ms"]),
            alpha_prime=float(row["alpha_prime"]),
            a3_pa_per_ms=float(row["a3_pa_per_ms"]),
        )

    doc = json.loads(json.dumps(optimize.selected_to_json(outcome, extra_provenance={"extra": "x"})))
    assert doc["afferent"] == "RA"
    assert set(doc["objectives"]) == {
        "objective_20", "objective_50", "objective_100", "objective_300"
    }
    prov = doc["provenance"]
    assert prov["seed"] == 1 and prov["budget"] == 96
    assert prov["population"] == 16
    assert prov["observed_data_hash"] == observed.content_hash()
    assert prov["extra"] == "x"
    assert len(prov["bounds_low"]) == 3
    rebuilt = neural.AfferentParams.from_dict(doc["params"])
    assert rebuilt == outcome.selected


@st.composite
def fronts(draw):
    """An afferent type and a final population whose genes sit on their
    bounds or between them, always with the all-low and all-high corners."""
    afferent = draw(st.sampled_from(["SA", "RA", "PC"]))
    low, high = optimize.gene_bounds(afferent)
    n = draw(st.integers(0, 8))
    genes = [low, high] + [
        [draw(st.one_of(st.sampled_from([lo, hi]), st.floats(lo, hi)))
         for lo, hi in zip(low, high)]
        for _ in range(n)
    ]
    objectives = draw(st.lists(
        st.lists(st.sampled_from([0.0, 1.5]) | st.floats(0.0, 1e6), min_size=4, max_size=4),
        min_size=n + 2, max_size=n + 2,
    ))
    ranks = draw(st.lists(st.integers(0, 3), min_size=n + 2, max_size=n + 2))
    front = optimize.ParetoFront(
        genes=np.array(genes, dtype=float), objectives=np.array(objectives),
        ranks=np.array(ranks), seed=0, budget=n + 2,
        bounds_low=low, bounds_high=high,
    )
    return afferent, front


@settings(max_examples=60, deadline=None)
@given(case=fronts())
def test_front_csv_matches_row_by_row_decode(case):
    """front_to_csv decodes the population as one table and returns the
    text that decoding each row with genes_to_params gives."""
    afferent, front = case
    assert optimize.front_to_csv(front, afferent, provenance="prov") == \
        front_csv_text(front, afferent, "prov")


def test_recover_parameters_wiring():
    bank = synthetic_bank()
    truth = neural.default_afferent_params()["RA"]
    outcome = optimize.recover_parameters(truth, bank, seed=0,
                                          budget=32, population_size=16)
    assert outcome.observed.records == tuple(optimize.predict_rates(truth, bank))
    # the synthesized observations are attainable: truth itself scores zero
    genes = params_to_genes(truth)
    objs = optimize.RateEvaluator("RA", bank, outcome.observed)(genes[None])[0]
    assert np.all(objs == 0.0)
