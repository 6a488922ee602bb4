"""Pipeline driver: mesh | simulate | fit | validate.

Every command takes --config (JSON, see config module), with optional
--seed / --out / --protocol overrides.  Exit codes: 0 success, 2 validation
error, 3 numerical failure.  Concurrent runs against one output directory
are rejected via a `.lock` file holding the owner's PID; a lock whose owner
no longer exists is removed with a warning.

The stages live in `pipeline`; each command runs one of its functions and
writes what it returns, with a provenance line.  `simulate` writes each
stress trace once, to <out>/stress; `fit` writes none.  The library formats
its outputs as text or JSON payloads and opens no file for writing: every
output goes through `_write`, which creates the file's directory and turns a
failed write into a ValidationError (exit 2, the lock removed).
"""

from __future__ import annotations

import argparse
import dataclasses
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
from .errors import NumericalError, ValidationError
from .fem import stress_csv_text
from .mesh import AFFERENT_TYPES, build_mesh, export_mesh_text
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


def _provenance(cfg: RunConfig, config_hash: str | None = None) -> str:
    return f"afferentsim={__version__} config={config_hash or cfg.content_hash()} seed={cfg.seed}"


# --------------------------------------------------------------------------
# commands


def _write(path: str, text: str) -> None:
    """Write one output file as UTF-8, creating its directory; an OSError,
    or a name the filesystem encoding cannot hold (UnicodeError), becomes a
    ValidationError naming the path."""
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except (OSError, UnicodeError) as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def _write_json(path: str, payload: dict) -> None:
    # NaN and Infinity are not JSON: a non-finite number raises ValueError
    _write(path, json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def cmd_mesh(cfg: RunConfig) -> int:
    mesh = build_mesh(cfg.geometry, cfg.materials)
    out = cfg.output_dir
    text = export_mesh_text(mesh)
    _write(os.path.join(out, "mesh.txt"), text)
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
    _write(os.path.join(out, "mesh.txt"), export_mesh_text(result.mesh))
    prov = _provenance(cfg)
    for stimulus_id, traces in result.bank.items():
        for atype, values in traces.items():
            _write(os.path.join(out, "stress", f"{stimulus_id}_{atype}.csv"), stress_csv_text(
                values, atype, result.mesh.afferent_nodes[atype], prov))
    _write(os.path.join(out, "spikes.jsonl"), "".join(
        json.dumps(record, sort_keys=True) + "\n" for record in result.trains
    ))
    _write(os.path.join(out, "rates.csv"), rate_records_to_csv(result.records, prov))
    _write_json(os.path.join(out, "config_resolved.json"), cfg.to_dict())
    print(
        f"simulate: {len(result.bank)} stimuli x {len(AFFERENT_TYPES)} afferents -> "
        f"{out}/rates.csv ({len(result.records)} rows)"
    )
    return 0


def cmd_validate(cfg: RunConfig) -> int:
    out = cfg.output_dir
    result = pipeline.validate(cfg)
    prov = _provenance(cfg)
    _write(os.path.join(out, "deflection.csv"), "".join(
        [f"# provenance: {prov}\n", "x_mm,deflection_mm\n"]
        + [f"{float(x)!r},{float(w)!r}\n" for x, w in zip(result.x_mm, result.deflection_mm)]
    ))
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
    config_hash = cfg.content_hash()
    prov = _provenance(cfg, config_hash)
    for atype, result in results.items():
        outcome = result.outcome
        _write(os.path.join(out, f"front_{atype}.csv"), front_to_csv(outcome.front, atype, prov))
        _write_json(os.path.join(out, f"selected_{atype}.json"), selected_to_json(
            outcome, extra_provenance={"config": config_hash, "version": __version__},
        ))
        _write(os.path.join(out, f"fit_rates_{atype}.csv"),
               rate_records_to_csv(result.records, prov))
        _write_json(os.path.join(out, f"regression_{atype}.json"),
                    result.regression | {"provenance": prov})
        print(
            f"fit {atype}: objective sum {outcome.objective_sum:.4f} ips^2, "
            f"front size {outcome.front.front_indices().size} -> "
            f"{out}/selected_{atype}.json"
        )
    _write_json(os.path.join(out, "config_resolved.json"), cfg.to_dict())
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
    # would scan them all again.  Freezing changes no output: _write closes
    # each file it opens, so none waits for a collection.  Only this entry
    # point freezes; an in-process caller keeps what was alive when each
    # command started out of the collector's reach, and pipeline.* never
    # freezes.
    gc.freeze()
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s"
    )
    try:
        overrides = {"seed": args.seed, "output_dir": args.out, "protocol": args.protocol}
        cfg = dataclasses.replace(load_config(args.config), **{
            key: value for key, value in overrides.items() if value is not None})
        try:
            os.makedirs(cfg.output_dir, exist_ok=True)
        except (OSError, UnicodeError) as exc:
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


if __name__ == "__main__":
    sys.exit(main())
