"""Pipeline driver: mesh | simulate | fit | validate.

Every command takes --config (JSON, see config module), with optional
--seed / --out / --protocol overrides.  Exit codes: 0 success, 2 validation
error, 3 numerical failure.  Concurrent runs against one output directory
are rejected via a `.lock` file holding the owner's PID; a lock whose owner
no longer exists is removed with a warning.

Every `simulate` and `fit` solves the skin FEM for its protocol; nothing
is read back from an earlier run.  The FEM is condensed to the indenter's
footprint: one factorization and one multi-column solve per run, then a
small dense solve per distinct contact set of each stimulus, so
appendixA's 37 stimuli take a few hundredths of a second.  `simulate` writes each stress trace once, to <out>/stress;
`fit` writes none.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from contextlib import contextmanager

import numpy as np

from . import __version__
from .analysis import RateRecord, firing_rate, rate_records_to_csv, regression
from .config import RunConfig, load_config
from .config import save_resolved_config
from .errors import AfferentSimError, NumericalError, ValidationError
from .fem import IndenterSpec, StiffnessSystem, StressTrace, run_indentation
from .fem import surface_deflection
from .mesh import AFFERENT_TYPES, build_mesh, save_mesh
from .neural import (
    AfferentParams,
    default_afferent_params,
    run_afferents,
    save_spike_trains,
)
from .optimize import (
    ObservedRateSet,
    OBJECTIVE_FREQS,
    fit_afferent,
    front_to_csv,
    predict_rates,
    selected_to_json,
)
from .stimulus import (
    BUILTIN_PROTOCOLS, DISCARD_MS, StimulusSpec, builtin_protocol, load_protocol,
    sinusoid_window_ms,
)

logger = logging.getLogger("afferentsim")


def _dead_lock_owner(path: str) -> int | None:
    """The PID recorded in a lock file, if that process no longer exists.

    None when the file cannot be read, holds no positive PID, or names a
    process that is still alive (or that this user may not signal).
    """
    try:
        with open(path) as fh:
            pid = int(fh.read())
        if pid > 0:
            os.kill(pid, 0)  # signal 0: existence check only
    except ProcessLookupError:
        return pid
    except (OSError, ValueError):
        pass
    return None


@contextmanager
def output_lock(out_dir: str):
    """Reject concurrent invocations against the same output directory.

    A lock left behind by a process that no longer exists is removed with
    a warning and taken over.
    """
    path = os.path.join(out_dir, ".lock")
    for attempt in range(2):
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            break
        except FileExistsError:
            # a second refusal means another run took the lock meanwhile
            pid = _dead_lock_owner(path) if attempt == 0 else None
            if pid is None:
                raise ValidationError(
                    f"output directory {out_dir!r} is in use by another "
                    f"invocation (remove {path} if that run crashed)"
                ) from None
            logger.warning("removing stale lock %s: process %d no longer exists",
                           path, pid)
            os.unlink(path)
    try:
        os.write(fd, f"{os.getpid()}\n".encode())
        os.close(fd)
        yield
    finally:
        try:
            os.unlink(path)
        except OSError:
            pass


def _provenance(cfg: RunConfig) -> str:
    return f"afferentsim={__version__} config={cfg.content_hash()} seed={cfg.seed}"


def _resolve_protocol(cfg: RunConfig) -> list[StimulusSpec]:
    if cfg.protocol in BUILTIN_PROTOCOLS:
        return builtin_protocol(cfg.protocol, dt_ms=cfg.dt_ms, base_seed=cfg.seed)
    return load_protocol(cfg.protocol)


def _indenter_for(cfg: RunConfig, trace: np.ndarray, dt_ms: float) -> IndenterSpec:
    return IndenterSpec(
        diameter_mm=cfg.indenter_diameter_mm,
        center_x_mm=cfg.indenter_center_x_mm,
        pre_indentation_mm=cfg.indenter_pre_indentation_mm,
        displacement_trace=trace,
        dt_ms=dt_ms,
    )


def compute_stress_bank(
    cfg: RunConfig, mesh, system: StiffnessSystem | None,
    specs: list[StimulusSpec],
) -> dict[str, dict[str, StressTrace]]:
    """Per-stimulus, per-afferent stress traces, solved for every stimulus.

    Every stimulus reads the system's footprint response for the
    configured indenter (built by the first one that touches the skin).
    One line per bank logs the footprint's DOFs, the factorizations made
    and the largest unit-load residual.
    """
    if system is None:
        system = StiffnessSystem(mesh)
    made = system.factorizations
    footprint = None
    bank: dict[str, dict[str, StressTrace]] = {}
    for spec in specs:
        displacement = spec.generate()
        indenter = _indenter_for(cfg, displacement, spec.dt_ms)
        try:
            result = run_indentation(mesh, indenter, system=system)
        except NumericalError as exc:
            raise NumericalError(f"stimulus {spec.stimulus_id}: {exc}") from exc
        bank[spec.stimulus_id] = result.stress_traces
        logger.info(
            "FEM solved %s (%d steps, %d contact sets)",
            spec.stimulus_id, displacement.size, result.contact_sets,
        )
        if result.footprint is not None:
            footprint = result.footprint
    if footprint is None:
        logger.info("FEM bank: %d stimuli, none in contact", len(specs))
    else:
        logger.info(
            "FEM bank: %d stimuli, %d footprint DOFs, %d factorizations made, "
            "largest unit-load residual %.2e",
            len(specs), footprint.nodes.size, system.factorizations - made,
            footprint.residual,
        )
    return bank


def _load_afferent_params(source: str) -> dict[str, AfferentParams]:
    """Default table, or overrides from a selected-candidate/params JSON."""
    params = default_afferent_params()
    if source == "default":
        return params
    try:
        with open(source) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read afferent params {source}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError(f"{source}: expected a JSON object, got {raw!r}")
    try:
        if "afferent" in raw and "params" in raw:  # selected-candidate export
            p = AfferentParams.from_dict(raw["params"])
            params[p.afferent_type] = p
        else:  # mapping {type: params}
            for atype, rec in raw.items():
                if atype not in AFFERENT_TYPES:
                    raise ValidationError(f"unknown afferent type {atype!r}")
                p = AfferentParams.from_dict(rec, path=atype)
                if p.afferent_type != atype:
                    raise ValidationError(
                        f"entry {atype!r} holds {p.afferent_type} params"
                    )
                params[atype] = p
    except ValidationError as exc:
        raise ValidationError(f"{source}: {exc}") from exc
    return params


def _spec_descriptor(spec: StimulusSpec) -> tuple[float, float]:
    """(freq_hz, amplitude_um) columns for the rate table."""
    if spec.kind in ("sinusoid", "diharmonic"):
        return spec.freq_hz, spec.amplitude_um
    return (spec.lo_hz + spec.hi_hz) / 2.0, spec.rms_um


# --------------------------------------------------------------------------
# commands


def cmd_mesh(cfg: RunConfig) -> int:
    mesh = build_mesh(cfg.geometry, cfg.materials)
    out = cfg.output_dir
    save_mesh(mesh, os.path.join(out, "mesh.txt"))
    meta = {
        "nodes": mesh.n_nodes,
        "elements": mesh.n_elements,
        "mesh_hash": mesh.content_hash(),
        "afferent_nodes": dict(sorted(mesh.afferent_nodes.items())),
        "provenance": _provenance(cfg),
    }
    with open(os.path.join(out, "mesh_meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"mesh: {mesh.n_nodes} nodes, {mesh.n_elements} elements -> {out}/mesh.txt")
    return 0


def cmd_simulate(cfg: RunConfig) -> int:
    out = cfg.output_dir
    specs = _resolve_protocol(cfg)
    params = _load_afferent_params(cfg.afferent_params_source)
    mesh = build_mesh(cfg.geometry, cfg.materials)
    bank = compute_stress_bank(cfg, mesh, None, specs)
    save_mesh(mesh, os.path.join(out, "mesh.txt"))
    prov = _provenance(cfg)
    by_type = {
        atype: run_afferents(
            [bank[spec.stimulus_id][atype] for spec in specs], params[atype]
        )
        for atype in AFFERENT_TYPES
    }

    stress_dir = os.path.join(out, "stress")
    os.makedirs(stress_dir, exist_ok=True)
    trains = []
    records = []
    for s, spec in enumerate(specs):
        freq, amp = _spec_descriptor(spec)
        for atype in AFFERENT_TYPES:
            bank[spec.stimulus_id][atype].to_csv(
                os.path.join(stress_dir, f"{spec.stimulus_id}_{atype}.csv"),
                provenance=prov,
            )
            train = by_type[atype][s]
            train.meta["stimulus_id"] = spec.stimulus_id
            trains.append(train)
            records.append(RateRecord(
                afferent_type=atype, stimulus_id=spec.stimulus_id,
                freq_hz=freq, amplitude_um=amp,
                predicted_ips=firing_rate(train, spec.discard_ms, spec.window_ms),
                window_ms=spec.window_ms,
            ))

    save_spike_trains(trains, os.path.join(out, "spikes.jsonl"))
    rate_records_to_csv(records, os.path.join(out, "rates.csv"), provenance=prov)
    save_resolved_config(cfg, os.path.join(out, "config_resolved.json"))
    print(
        f"simulate: {len(specs)} stimuli x {len(AFFERENT_TYPES)} afferents -> "
        f"{out}/rates.csv ({len(records)} rows)"
    )
    return 0


def cmd_validate(cfg: RunConfig) -> int:
    """Static press: 50 um probe, 1 mm indentation, deflection every 0.5 mm."""
    out = cfg.output_dir
    mesh = build_mesh(cfg.geometry, cfg.materials)
    indenter = IndenterSpec(
        diameter_mm=0.05, center_x_mm=0.0, pre_indentation_mm=1.0,
        displacement_trace=np.zeros(1), dt_ms=cfg.dt_ms,
    )
    result = run_indentation(mesh, indenter)
    xs, profile = surface_deflection(mesh, result.footprint.fields @ result.loads[0])
    prov = _provenance(cfg)
    with open(os.path.join(out, "deflection.csv"), "w") as fh:
        fh.write(f"# provenance: {prov}\n")
        fh.write("x_mm,deflection_mm\n")
        for x, w in zip(xs, profile):
            fh.write(f"{float(x)!r},{float(w)!r}\n")

    max_deflection = float(profile.max())
    max_ok = 0.9 <= max_deflection <= 1.1
    monotone = bool(np.all(np.diff(profile) < 0))
    report = {
        "max_deflection_mm": max_deflection,
        "max_deflection_in_range": max_ok,
        "monotone_decay": monotone,
        "passed": max_ok and monotone,
        "provenance": prov,
    }
    with open(os.path.join(out, "validation_report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(
        f"validate: max deflection {max_deflection:.4f} mm "
        f"(in [0.9, 1.1]: {max_ok}), monotone decay: {monotone}"
    )
    if not report["passed"]:
        raise ValidationError("deflection validation failed; see validation_report.json")
    return 0


def cmd_fit(cfg: RunConfig) -> int:
    out = cfg.output_dir
    if cfg.fit.observed_rates_csv is None:
        raise ValidationError("fit.observed_rates_csv must be set in the config")
    specs = _resolve_protocol(cfg)
    sin_specs = [s for s in specs if s.kind == "sinusoid"]
    if not sin_specs:
        raise ValidationError("fit needs a sinusoid protocol (no sinusoids found)")
    by_condition: dict[tuple[float, float], StimulusSpec] = {}
    for s in sin_specs:
        window = sinusoid_window_ms(s.freq_hz)
        if s.discard_ms != DISCARD_MS or s.window_ms != window:
            raise ValidationError(
                f"stimulus {s.stimulus_id!r} counts spikes over "
                f"[{s.discard_ms}, {s.discard_ms + s.window_ms}) ms; fit counts "
                f"every {s.freq_hz} Hz sinusoid over "
                f"[{DISCARD_MS}, {DISCARD_MS + window}) ms"
            )
        condition = (s.freq_hz, s.amplitude_um)
        if condition in by_condition:
            raise ValidationError(
                f"stimuli {by_condition[condition].stimulus_id!r} and "
                f"{s.stimulus_id!r} are both {s.freq_hz} Hz at {s.amplitude_um} "
                "um; fit needs one stimulus per condition"
            )
        by_condition[condition] = s
    observed_by_type = {
        atype: ObservedRateSet.from_csv(cfg.fit.observed_rates_csv, atype)
        for atype in cfg.fit.afferents
    }
    mesh = build_mesh(cfg.geometry, cfg.materials)
    bank = compute_stress_bank(cfg, mesh, None, sin_specs)
    prov = _provenance(cfg)

    for atype, observed in observed_by_type.items():
        type_bank = {
            (s.freq_hz, s.amplitude_um): bank[s.stimulus_id][atype]
            for s in sin_specs
        }
        logger.info(
            "fitting %s: %d observed conditions, budget %d",
            atype, len(observed.records), cfg.fit.budget,
        )
        outcome = fit_afferent(
            atype, type_bank, observed, seed=cfg.seed,
            budget=cfg.fit.budget, population_size=cfg.fit.population,
        )
        front_to_csv(
            outcome.front, atype, os.path.join(out, f"front_{atype}.csv"),
            provenance=prov,
        )
        selected_to_json(
            outcome, os.path.join(out, f"selected_{atype}.json"),
            extra_provenance={"config": cfg.content_hash(), "version": __version__},
        )

        predicted = dict(
            ((f, a), r) for f, a, r in predict_rates(outcome.selected, type_bank)
        )
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
        rate_records_to_csv(
            records, os.path.join(out, f"fit_rates_{atype}.csv"), provenance=prov
        )

        pairs = [(obs_map[(f, a)], predicted[(f, a)]) for (f, a) in sorted(obs_map)]
        reg: dict[str, object] = {}
        try:
            pooled = regression([p[0] for p in pairs], [p[1] for p in pairs])
            reg["pooled"] = pooled.to_dict()
        except ValidationError as exc:
            reg["pooled"] = {"error": str(exc)}
        per_freq = {}
        for f in OBJECTIVE_FREQS:
            sub = [(o, p) for (ff, _), (o, p) in zip(sorted(obs_map), pairs) if ff == f]
            if len(sub) >= 3:
                try:
                    per_freq[f"{int(f)}"] = regression(
                        [o for o, _ in sub], [p for _, p in sub]
                    ).to_dict()
                except ValidationError as exc:
                    per_freq[f"{int(f)}"] = {"error": str(exc)}
        reg["per_frequency"] = per_freq
        reg["provenance"] = prov
        with open(os.path.join(out, f"regression_{atype}.json"), "w") as fh:
            json.dump(reg, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(
            f"fit {atype}: objective sum {outcome.objective_sum:.4f} ips^2, "
            f"front size {outcome.front.front_indices().size} -> "
            f"{out}/selected_{atype}.json"
        )
    save_resolved_config(cfg, os.path.join(out, "config_resolved.json"))
    return 0


# --------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="afferentsim",
        description="Tactile afferent simulator: skin FEM + spiking neural models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "mesh": "build and export the skin mesh",
        "simulate": "run a stimulus protocol end to end (FEM + afferents + rates)",
        "fit": "fit afferent parameters to observed rates (NSGA-II)",
        "validate": "static indentation check against the deflection profile",
    }
    for name, help_text in helps.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="override output directory")
        p.add_argument(
            "--protocol", default=None,
            help=f"{'|'.join(BUILTIN_PROTOCOLS)} or a protocol JSON path",
        )
    return parser


_COMMANDS = {
    "mesh": cmd_mesh,
    "simulate": cmd_simulate,
    "fit": cmd_fit,
    "validate": cmd_validate,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s"
    )
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.out is not None:
            cfg.output_dir = args.out
        if args.protocol is not None:
            cfg.protocol = args.protocol
        cfg.validate()
        os.makedirs(cfg.output_dir, exist_ok=True)
        with output_lock(cfg.output_dir):
            return _COMMANDS[args.command](cfg)
    except ValidationError as exc:
        logger.error("validation error: %s", exc)
        return 2
    except NumericalError as exc:
        logger.error("numerical failure: %s", exc)
        return 3
    except AfferentSimError as exc:  # pragma: no cover - unexpected subclass
        logger.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
