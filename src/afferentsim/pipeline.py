"""Pipeline stages: skin FEM -> stress traces -> afferents -> rates -> fit.

`simulate`, `validate` and `fit` each take a `RunConfig`, run one command's
stages and return plain results; none writes a file or prints.  The CLI
writes what they return, and scripts and tests call them directly.

Every `simulate` and `fit` solves the skin FEM for its protocol; nothing
is read back from an earlier run.  The FEM is condensed to the indenter's
footprint: each run builds one footprint response (one factorization, one
multi-column solve and one small dense solve per contact segment) before its
first stimulus and passes it to every stimulus, which then reads its loads
off the footprint's depth -> load table without a solve, so appendixA's 37
stimuli take a few hundredths of a second.
"""

from __future__ import annotations

import json
import logging
import os
from collections import namedtuple

import numpy as np

from .analysis import RateRecord, regression
from .config import RunConfig
from .errors import STRING, ValidationError, check_kind
from .fem import IndenterSpec, StiffnessSystem, run_indentation
from .fem import build_footprint_response, surface_deflection
from .mesh import AFFERENT_TYPES, Mesh, build_mesh
from .neural import AfferentParams, default_afferent_params, run_afferents
from .optimize import OBJECTIVE_FREQS, fit_afferent, observed_rates_from_csv
from .stimulus import BUILTIN_PROTOCOLS, DT_MS, StimulusSpec, builtin_protocol, load_protocol

logger = logging.getLogger("afferentsim")

SimulateResult = namedtuple("SimulateResult", "mesh bank trains records")
ValidateResult = namedtuple("ValidateResult", "x_mm deflection_mm report")
FitResult = namedtuple("FitResult", "outcome records regression")


def resolve_protocol(cfg: RunConfig) -> list[StimulusSpec]:
    """The configured protocol: a built-in bank or a protocol JSON file."""
    if cfg.protocol in BUILTIN_PROTOCOLS:
        return builtin_protocol(cfg.protocol, base_seed=cfg.seed)
    return load_protocol(cfg.protocol)


def load_afferent_params(source: str) -> dict[str, AfferentParams]:
    """Default table, or overrides from a selected-candidate/params JSON."""
    params = default_afferent_params()
    if source == "default":
        return params
    try:
        with open(source, encoding="utf-8-sig") as fh:
            raw = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read afferent params {source}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError(f"{source}: expected a JSON object, got {raw!r}")
    try:
        if "afferent" in raw and "params" in raw:  # selected-candidate export
            raw = {check_kind(raw["afferent"], STRING, "afferent"): raw["params"]}
        for atype, rec in raw.items():  # mapping {type: params}
            if atype not in AFFERENT_TYPES:
                raise ValidationError(f"unknown afferent type {atype!r}")
            p = AfferentParams.from_dict(rec, path=atype)
            if p.afferent_type != atype:
                raise ValidationError(f"entry {atype!r} holds {p.afferent_type} params")
            params[atype] = p
    except ValidationError as exc:
        raise ValidationError(f"{source}: {exc}") from exc
    return params


def stress_bank(
    cfg: RunConfig, mesh: Mesh, specs: list[StimulusSpec]
) -> dict[str, dict[str, np.ndarray]]:
    """Per-stimulus, per-afferent stress traces (read-only arrays, Pa, one
    value per DT_MS), solved for every stimulus.

    One footprint response, for the configured probe's diameter and centre,
    is built before the first stimulus and serves them all; a contact
    segment it cannot solve fails there, before any stimulus.  One line per
    bank logs the footprint's DOFs and its largest unit-load residual.
    """
    footprint = build_footprint_response(
        StiffnessSystem(mesh), cfg.indenter_diameter_mm, cfg.indenter_center_x_mm
    )
    bank: dict[str, dict[str, np.ndarray]] = {}
    for spec in specs:
        displacement = spec.generate()
        indenter = IndenterSpec(pre_indentation_mm=cfg.indenter_pre_indentation_mm,
                                displacement_trace=displacement)
        result = run_indentation(footprint, indenter)
        bank[spec.stimulus_id] = result.stress_traces
        logger.info(
            "FEM solved %s (%d steps, %d contact sets)",
            spec.stimulus_id, displacement.size, result.contact_sets,
        )
    logger.info(
        "FEM bank: %d stimuli, %d footprint DOFs, largest unit-load residual %.2e",
        len(specs), footprint.nodes.size, footprint.residual,
    )
    return bank


def simulate(cfg: RunConfig) -> SimulateResult:
    """The mesh, the stress bank (in protocol order), and the spikes.jsonl
    record and rate record of every stimulus, then every afferent type.

    A spikes record holds the afferent type, its params hash, the step dt,
    the trace's duration, the spike times in ms and meta (the afferent's node
    and the stimulus id).  Noise stimuli describe their rate rows by the
    band centre and the RMS amplitude, diharmonics by their first component.
    """
    specs = resolve_protocol(cfg)
    for spec in specs:
        # the id names the stimulus's stress exports, so refuse one the
        # filesystem encoding cannot hold before the FEM runs
        try:
            os.fsencode(spec.stimulus_id)
        except UnicodeError as exc:
            raise ValidationError(f"stimulus_id {spec.stimulus_id!r} cannot name a file "
                                  f"in this filesystem's encoding: {exc}") from exc
    params = load_afferent_params(cfg.afferent_params_source)
    mesh = build_mesh(cfg.geometry, cfg.materials)
    bank = stress_bank(cfg, mesh, specs)
    windows = [(spec.discard_ms, spec.discard_ms + spec.window_ms) for spec in specs]
    by_type = {
        atype: run_afferents(
            [bank[spec.stimulus_id][atype] for spec in specs], params[atype], windows
        )
        for atype in AFFERENT_TYPES
    }
    hashes = {atype: params[atype].content_hash() for atype in AFFERENT_TYPES}
    trains, records = [], []
    for s, spec in enumerate(specs):
        if spec.kind in ("sinusoid", "diharmonic"):
            freq, amp = spec.freq_hz, spec.amplitude_um
        else:
            freq, amp = (spec.lo_hz + spec.hi_hz) / 2.0, spec.rms_um
        for atype in AFFERENT_TYPES:
            steps, counts = by_type[atype]
            trains.append({
                "afferent": atype, "params_hash": hashes[atype], "dt": DT_MS,
                "duration_ms": (bank[spec.stimulus_id][atype].size - 1) * DT_MS,
                "spikes": (steps[s] * DT_MS).tolist(),
                "meta": {"node_id": mesh.afferent_nodes[atype], "stimulus_id": spec.stimulus_id},
            })
            records.append(RateRecord(
                afferent_type=atype, stimulus_id=spec.stimulus_id,
                freq_hz=freq, amplitude_um=amp,
                predicted_ips=int(counts[s]) / (spec.window_ms / 1000.0),
                window_ms=spec.window_ms,
            ))
    return SimulateResult(mesh, bank, trains, records)


def validate(cfg: RunConfig) -> ValidateResult:
    """Static press: 50 um probe, 1 mm indentation, deflection every 0.5 mm.

    Returns the surface profile and a report of its checks.
    """
    mesh = build_mesh(cfg.geometry, cfg.materials)
    footprint = build_footprint_response(StiffnessSystem(mesh), 0.05, 0.0)
    indenter = IndenterSpec(pre_indentation_mm=1.0, displacement_trace=np.zeros(1))
    result = run_indentation(footprint, indenter)
    xs, profile = surface_deflection(mesh, footprint.fields @ result.loads[0])
    max_deflection = float(profile.max())
    max_ok = 0.9 <= max_deflection <= 1.1
    monotone = bool(np.all(np.diff(profile) < 0))
    report = {
        "max_deflection_mm": max_deflection,
        "max_deflection_in_range": max_ok,
        "monotone_decay": monotone,
        "passed": max_ok and monotone,
    }
    return ValidateResult(xs, profile, report)


def _regression_record(pairs) -> dict:
    """The regression over (observed, predicted) pairs, or {"error": ...}
    when it is undefined."""
    try:
        return regression([o for o, _ in pairs], [p for _, p in pairs])
    except ValidationError as exc:
        return {"error": str(exc)}


def fit(cfg: RunConfig) -> dict[str, FitResult]:
    """Fit each configured afferent type to its observed rates, in order:
    the fit outcome, the predicted (and observed) rate per condition, and
    the pooled and per-frequency regressions of observed on predicted.

    Each sinusoid's spikes are counted over its own [discard, discard +
    window), as simulate counts them; each (freq, amplitude) condition may
    occur once, and every observed one must occur, checked before the FEM.
    """
    if cfg.fit.observed_rates_csv is None:
        raise ValidationError("fit.observed_rates_csv must be set in the config")
    specs = resolve_protocol(cfg)
    sin_specs = [s for s in specs if s.kind == "sinusoid"]
    if not sin_specs:
        raise ValidationError("fit needs a sinusoid protocol (no sinusoids found)")
    by_condition: dict[tuple[float, float], StimulusSpec] = {}
    for s in sin_specs:
        condition = (s.freq_hz, s.amplitude_um)
        if condition in by_condition:
            raise ValidationError(
                f"stimuli {by_condition[condition].stimulus_id!r} and "
                f"{s.stimulus_id!r} are both {s.freq_hz} Hz at {s.amplitude_um} "
                "um; fit needs one stimulus per condition"
            )
        by_condition[condition] = s
    observed_by_type = observed_rates_from_csv(cfg.fit.observed_rates_csv, cfg.fit.afferents)
    for observed in observed_by_type.values():
        observed.check_conditions(by_condition)
    mesh = build_mesh(cfg.geometry, cfg.materials)
    bank = stress_bank(cfg, mesh, sin_specs)

    results = {}
    for atype, observed in observed_by_type.items():
        type_bank = {c: (s, bank[s.stimulus_id][atype]) for c, s in by_condition.items()}
        logger.info(
            "fitting %s: %d observed conditions, budget %d",
            atype, len(observed.records), cfg.fit.budget,
        )
        outcome = fit_afferent(
            atype, type_bank, observed, seed=cfg.seed,
            budget=cfg.fit.budget, population_size=cfg.fit.population,
        )

        predicted = {(f, a): r for f, a, r in outcome.predicted}
        obs_map = {(f, a): r for f, a, r in observed.records}
        records = [
            RateRecord(
                afferent_type=atype,
                stimulus_id=by_condition[(f, a)].stimulus_id,
                freq_hz=f, amplitude_um=a,
                predicted_ips=predicted[(f, a)],
                observed_ips=obs_map.get((f, a)),
                window_ms=by_condition[(f, a)].window_ms,
            )
            for (f, a) in sorted(predicted)
        ]

        pairs = [(obs_map[c], predicted[c]) for c in sorted(obs_map)]
        per_freq = {}
        for f in OBJECTIVE_FREQS:
            sub = [pair for (ff, _), pair in zip(sorted(obs_map), pairs) if ff == f]
            if len(sub) >= 3:
                per_freq[f"{int(f)}"] = _regression_record(sub)
        reg = {"pooled": _regression_record(pairs), "per_frequency": per_freq}
        results[atype] = FitResult(outcome, records, reg)
    return results
