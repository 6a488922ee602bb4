"""Checks of one operation's output files.

`signature` parses the files a workload must produce and returns the
numbers that every operation of one run must reproduce exactly.
`against_reference` compares a signature with the values recorded at the
commit that defined the benchmark: rates and front objectives must match
exactly, stress traces within 1e-12 relative (checked through per-trace
sums, which a per-sample error of 1e-12 relative moves by at most as much,
since von Mises stress is never negative).
"""

from __future__ import annotations

import glob
import hashlib
import json
import math
import os

from inputs import AFFERENTS

STRESS_RTOL = 1e-12


class CheckError(Exception):
    """An output file is missing, malformed or has the wrong numbers."""


def _data_lines(path: str) -> list[str]:
    try:
        with open(path) as fh:
            return [ln.rstrip("\n") for ln in fh if ln.strip() and not ln.startswith("#")]
    except OSError as exc:
        raise CheckError(f"cannot read {path}: {exc}") from None


def _json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckError(f"cannot parse {path}: {exc}") from None


def _csv_rows(path: str, header: str) -> list[list[str]]:
    lines = _data_lines(path)
    if not lines or lines[0] != header:
        raise CheckError(f"{path}: expected header {header!r}")
    rows = [ln.split(",") for ln in lines[1:]]
    width = header.count(",") + 1
    for row in rows:
        if len(row) != width:
            raise CheckError(f"{path}: malformed row {','.join(row)!r}")
    return rows


def _floats(path: str, cells: list[str]) -> list[float]:
    try:
        return [float(c) for c in cells]
    except ValueError as exc:
        raise CheckError(f"{path}: {exc}") from None


def _stress_stats(path: str) -> list[float]:
    """[n, sum, sum of squares, sum of k * value, max] of one trace."""
    values = _floats(path, [row[1] for row in _csv_rows(path, "t_ms,sigma_pa")])
    if not values or min(values) < 0 or not all(map(math.isfinite, values)):
        raise CheckError(f"{path}: empty, negative or non-finite stress")
    return [
        len(values),
        math.fsum(values),
        math.fsum(v * v for v in values),
        math.fsum(k * v for k, v in enumerate(values)),
        max(values),
    ]


def _sim_signature(out: str, n_stimuli: int) -> dict:
    rates = _csv_rows(
        os.path.join(out, "rates.csv"),
        "afferent,stimulus_id,freq_hz,amplitude_um,predicted_ips,observed_ips",
    )
    if len(rates) != n_stimuli * len(AFFERENTS):
        raise CheckError(f"rates.csv has {len(rates)} rows, expected {n_stimuli * 3}")
    _floats("rates.csv", [row[4] for row in rates])
    files = sorted(glob.glob(os.path.join(out, "stress", "*.csv")))
    if len(files) != len(rates):
        raise CheckError(f"{len(files)} stress exports for {len(rates)} rate rows")
    spikes = []
    try:
        with open(os.path.join(out, "spikes.jsonl")) as fh:
            for line in fh:
                rec = json.loads(line)
                spikes.append([rec["afferent"], rec["meta"]["stimulus_id"], rec["spikes"]])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CheckError(f"cannot parse spikes.jsonl: {exc!r}") from None
    if len(spikes) != len(rates):
        raise CheckError(f"spikes.jsonl has {len(spikes)} trains, expected {len(rates)}")
    if not os.path.isfile(os.path.join(out, "mesh.txt")):
        raise CheckError("mesh.txt is missing")
    _json(os.path.join(out, "config_resolved.json"))
    return {
        # sorted, since the seed sets the order of the stimuli in a protocol
        "rates": sorted(",".join(row) for row in rates),
        "stress": {os.path.basename(p): _stress_stats(p) for p in files},
        "spikes_sha256": hashlib.sha256(json.dumps(spikes).encode()).hexdigest(),
    }


def _fit_signature(out: str, observed: dict) -> dict:
    sig = {}
    for atype in AFFERENTS:
        front_path = os.path.join(out, f"front_{atype}.csv")
        lines = _data_lines(front_path)
        if len(lines) < 2 or not lines[0].startswith(
            "rank,objective_20,objective_50,objective_100,objective_300,"
        ):
            raise CheckError(f"{front_path}: missing header or rows")
        rows = [ln.split(",") for ln in lines[1:]]
        objectives = [",".join(row[1:5]) for row in rows]
        for row in rows:
            _floats(front_path, row)
        front_sums = [
            math.fsum(_floats(front_path, row[1:5])) for row in rows if row[0] == "0"
        ]

        selected = _json(os.path.join(out, f"selected_{atype}.json"))
        try:
            chosen = [selected["objectives"][f"objective_{f}"] for f in (20, 50, 100, 300)]
            chosen_sum = float(selected["objective_sum"])
            params = selected["params"]
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckError(f"selected_{atype}.json: {exc!r}") from None
        if ",".join(map(repr, map(float, chosen))) not in objectives:
            raise CheckError(f"selected_{atype}.json objectives are not a front row")
        # the program sums in numpy's order, so allow rounding between rows
        if not front_sums or math.fsum(map(float, chosen)) > min(front_sums) * (1 + 1e-12):
            raise CheckError(f"selected_{atype}.json is not the rank-0 minimum sum")

        rates_path = os.path.join(out, f"fit_rates_{atype}.csv")
        rates = _csv_rows(
            rates_path,
            "afferent,stimulus_id,freq_hz,amplitude_um,predicted_ips,observed_ips",
        )
        got = {
            (float(r[2]), float(r[3])): float(r[5]) for r in rates if r[5]
        }
        if got != observed[atype]:
            raise CheckError(f"{rates_path}: observed rates differ from the inputs")
        _json(os.path.join(out, f"regression_{atype}.json"))
        sig[atype] = {
            "front": [",".join(row) for row in rows],
            "objectives_sha256": hashlib.sha256("\n".join(objectives).encode()).hexdigest(),
            "objective_sum": chosen_sum,
            "params": params,
            "rates": [",".join(row) for row in rates],
        }
    return sig


def signature(workload: str, out: str, observed: dict | None = None) -> dict:
    if workload in ("sim-cold", "sim-warm"):
        return _sim_signature(out, 37)
    if workload == "sim-fine-cold":
        return _sim_signature(out, 4)
    return _fit_signature(out, observed)


def reference_subset(workload: str, sig: dict) -> dict:
    """The part of a signature that is recorded as the reference."""
    if workload == "fit-warm":
        return {
            a: {k: sig[a][k] for k in ("objectives_sha256", "objective_sum")}
            for a in AFFERENTS
        }
    return {"rates": sig["rates"], "stress": sig["stress"]}


def against_reference(workload: str, sig: dict, ref: dict) -> None:
    if workload == "fit-warm":
        for atype in AFFERENTS:
            if sig[atype]["objectives_sha256"] != ref[atype]["objectives_sha256"]:
                raise CheckError(f"front_{atype}.csv objectives differ from the reference")
        return
    if sig["rates"] != ref["rates"]:
        bad = next(
            (a, b) for a, b in zip(sig["rates"] + [None], ref["rates"] + [None]) if a != b
        )
        raise CheckError(f"rates.csv differs from the reference: {bad[0]!r} vs {bad[1]!r}")
    if sorted(sig["stress"]) != sorted(ref["stress"]):
        raise CheckError("stress exports differ in name from the reference")
    for name, stats in sig["stress"].items():
        want = ref["stress"][name]
        if stats[0] != want[0]:
            raise CheckError(f"stress/{name}: {stats[0]} samples, reference {want[0]}")
        # sum of squares carries twice the per-sample relative error
        for got, exp, tol in zip(stats[1:], want[1:], (1, 2, 1, 1)):
            if not math.isclose(got, exp, rel_tol=tol * STRESS_RTOL * (1 + 1e-6), abs_tol=0.0):
                raise CheckError(
                    f"stress/{name} differs from the reference by more than "
                    f"{STRESS_RTOL:g} relative ({got!r} vs {exp!r})"
                )
