"""Pipeline driver: mesh | simulate | fit | validate.

Every command takes --config (JSON, see config module), with optional
--seed / --out / --protocol overrides.  Exit codes: 0 success, 2 validation
error, 3 numerical failure.  Concurrent runs against one output directory
are rejected via a `.lock` file holding the owner's PID; a lock whose owner
no longer exists is removed with a warning.

The stages live in `pipeline`; each command runs one of its functions and
writes what it returns, with a provenance line.  `simulate` writes each
stress trace once, to <out>/stress; `fit` writes none.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import logging
import os
import sys
from contextlib import contextmanager

from . import __version__, pipeline
from .analysis import rate_records_to_csv
from .config import RunConfig, load_config
from .config import save_resolved_config
from .errors import AfferentSimError, NumericalError, ValidationError
from .mesh import AFFERENT_TYPES, build_mesh, save_mesh
from .neural import save_spike_trains
from .optimize import front_to_csv, selected_to_json
from .stimulus import BUILTIN_PROTOCOLS

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


# --------------------------------------------------------------------------
# commands


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_mesh(cfg: RunConfig) -> int:
    mesh = build_mesh(cfg.geometry, cfg.materials)
    out = cfg.output_dir
    text = save_mesh(mesh, os.path.join(out, "mesh.txt"))
    _write_json(os.path.join(out, "mesh_meta.json"), {
        "nodes": mesh.n_nodes,
        "elements": mesh.n_elements,
        "mesh_hash": hashlib.sha256(text.encode()).hexdigest(),
        "afferent_nodes": dict(sorted(mesh.afferent_nodes.items())),
        "provenance": _provenance(cfg),
    })
    print(f"mesh: {mesh.n_nodes} nodes, {mesh.n_elements} elements -> {out}/mesh.txt")
    return 0


def cmd_simulate(cfg: RunConfig) -> int:
    out = cfg.output_dir
    result = pipeline.simulate(cfg)
    save_mesh(result.mesh, os.path.join(out, "mesh.txt"))
    prov = _provenance(cfg)
    stress_dir = os.path.join(out, "stress")
    os.makedirs(stress_dir, exist_ok=True)
    for stimulus_id, traces in result.bank.items():
        for atype, trace in traces.items():
            trace.to_csv(
                os.path.join(stress_dir, f"{stimulus_id}_{atype}.csv"), provenance=prov,
            )
    save_spike_trains(result.trains, os.path.join(out, "spikes.jsonl"))
    rate_records_to_csv(result.records, os.path.join(out, "rates.csv"), provenance=prov)
    save_resolved_config(cfg, os.path.join(out, "config_resolved.json"))
    print(
        f"simulate: {len(result.bank)} stimuli x {len(AFFERENT_TYPES)} afferents -> "
        f"{out}/rates.csv ({len(result.records)} rows)"
    )
    return 0


def cmd_validate(cfg: RunConfig) -> int:
    out = cfg.output_dir
    result = pipeline.validate(cfg)
    prov = _provenance(cfg)
    with open(os.path.join(out, "deflection.csv"), "w") as fh:
        fh.write(f"# provenance: {prov}\n")
        fh.write("x_mm,deflection_mm\n")
        for x, w in zip(result.x_mm, result.deflection_mm):
            fh.write(f"{float(x)!r},{float(w)!r}\n")
    report = result.report
    _write_json(os.path.join(out, "validation_report.json"), report | {"provenance": prov})
    print(f"validate: max deflection {report['max_deflection_mm']:.4f} mm (in [0.9, 1.1]: "
          f"{report['max_deflection_in_range']}), monotone decay: {report['monotone_decay']}")
    if not report["passed"]:
        raise ValidationError("deflection validation failed; see validation_report.json")
    return 0


def cmd_fit(cfg: RunConfig) -> int:
    out = cfg.output_dir
    results = pipeline.fit(cfg)
    prov = _provenance(cfg)
    for atype, result in results.items():
        outcome = result.outcome
        front_to_csv(
            outcome.front, atype, os.path.join(out, f"front_{atype}.csv"),
            provenance=prov,
        )
        selected_to_json(
            outcome, os.path.join(out, f"selected_{atype}.json"),
            extra_provenance={"config": cfg.content_hash(), "version": __version__},
        )
        rate_records_to_csv(
            result.records, os.path.join(out, f"fit_rates_{atype}.csv"), provenance=prov
        )
        _write_json(os.path.join(out, f"regression_{atype}.json"),
                    result.regression | {"provenance": prov})
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
    # Move every object alive now (about 22.5k after the imports, NumPy's
    # included) to the collector's permanent generation.  None of them is
    # garbage, yet the full collections that finalization runs at exit
    # would scan them all again.  Freezing changes no output: the files a
    # command writes are closed by the code that opens them, not by a
    # collection.  Only this entry point freezes; an in-process caller
    # keeps what was alive when each command started out of the
    # collector's reach, and pipeline.* never freezes.
    gc.freeze()
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
        try:
            os.makedirs(cfg.output_dir, exist_ok=True)
        except OSError as exc:
            raise ValidationError(
                f"cannot create output directory {cfg.output_dir!r}: {exc}"
            ) from exc
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
