"""Seeded inputs for the benchmark workloads.

Nothing here imports afferentsim: the inputs are fixed by this file and the
seed alone, so a change to the program cannot move them.
"""

from __future__ import annotations

import json
import os
import random

DISCARD_MS = 100.0
WINDOW_MS = {20.0: 245.0, 50.0: 100.0, 100.0: 100.0, 300.0: 100.0}

# The appendixA sinusoid bank (frequency -> amplitudes in um), as frozen by
# the program's own tests.  The observed rates must name these exact values.
APPENDIX_A = {
    20.0: (6.71, 9.32, 12.5, 18.0, 25.0, 34.74, 48.27, 67.07, 93.19,
           129.49, 179.92, 250.0),
    50.0: (7.19, 10.66, 15.81, 23.46, 34.8, 51.62, 76.58, 113.6, 168.52, 250.0),
    100.0: (6.52, 10.0, 15.34, 23.54, 36.11, 55.39, 85.98, 130.37, 200.0),
    300.0: (4.59, 7.41, 11.94, 19.24, 31.02, 50.0),
}
AFFERENTS = ("SA", "RA", "PC")

# Observed-rate recipe: rate = r_max * A^2 / (A^2 + A50^2), per type and
# frequency (ips, um), so rates rise with amplitude and saturate.
RATE_MAX = {
    "SA": {20.0: 40.0, 50.0: 50.0, 100.0: 60.0, 300.0: 40.0},
    "RA": {20.0: 40.0, 50.0: 90.0, 100.0: 120.0, 300.0: 80.0},
    "PC": {20.0: 20.0, 50.0: 60.0, 100.0: 120.0, 300.0: 250.0},
}
RATE_A50_UM = {"SA": 60.0, "RA": 30.0, "PC": 15.0}
RATE_NOISE = 0.1  # standard deviation as a share of r_max

FIT_BUDGET = 500
FIT_POPULATION = 100
FINE_SURFACE_ELEMENT_MM = 0.1


def observed_rates(seed: int) -> list[tuple[str, float, float, float]]:
    """(afferent, freq_hz, amplitude_um, rate_ips), whole spikes per window."""
    rng = random.Random(seed)
    rows = []
    for atype in AFFERENTS:
        for freq, amps in APPENDIX_A.items():
            window_s = WINDOW_MS[freq] / 1000.0
            for amp in amps:
                r_max = RATE_MAX[atype][freq]
                a2 = amp * amp
                clean = r_max * a2 / (a2 + RATE_A50_UM[atype] ** 2)
                noisy = max(0.0, clean + rng.gauss(0.0, RATE_NOISE * r_max))
                rows.append((atype, freq, amp, round(noisy * window_s) / window_s))
    return rows


def fine_protocol(seed: int) -> dict:
    """Largest appendixA amplitude at each frequency, in a seeded order."""
    stimuli = []
    for freq, amps in APPENDIX_A.items():
        amp = max(amps)
        stimuli.append({
            "stimulus_id": f"sin_{freq:03.0f}hz_{amp:06.2f}um",
            "kind": "sinusoid",
            "duration_ms": DISCARD_MS + WINDOW_MS[freq],
            "dt_ms": 0.5,
            "discard_ms": DISCARD_MS,
            "window_ms": WINDOW_MS[freq],
            "freq_hz": freq,
            "amplitude_um": amp,
        })
    random.Random(seed).shuffle(stimuli)
    return {"name": "fine", "stimuli": stimuli}


def _write_json(path: str, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_inputs(workload: str, seed: int, directory: str) -> tuple[str, str]:
    """Write the workload's input files; returns (command, config path).

    Every command also receives `--seed` and `--out`; see `cli_args`.
    """
    os.makedirs(directory, exist_ok=True)
    config = os.path.join(directory, "config.json")
    if workload in ("sim-cold", "sim-warm"):
        _write_json(config, {"protocol": "appendixA", "seed": seed})
        return "simulate", config
    if workload == "sim-fine-cold":
        _write_json(os.path.join(directory, "protocol.json"), fine_protocol(seed))
        _write_json(config, {
            "geometry": {"surface_element_mm": FINE_SURFACE_ELEMENT_MM},
            "protocol": "protocol.json",
            "seed": seed,
        })
        return "simulate", config
    if workload == "fit-warm":
        with open(os.path.join(directory, "observed_rates.csv"), "w") as fh:
            fh.write("afferent,freq_hz,amplitude_um,rate_ips\n")
            for atype, freq, amp, rate in observed_rates(seed):
                fh.write(f"{atype},{freq!r},{amp!r},{rate!r}\n")
        _write_json(config, {
            "protocol": "appendixA",
            "seed": seed,
            "fit": {
                "observed_rates_csv": "observed_rates.csv",
                "population": FIT_POPULATION,
                "budget": FIT_BUDGET,
            },
        })
        return "fit", config
    raise ValueError(f"unknown workload {workload!r}")


def cli_args(command: str, config: str, seed: int, out_dir: str) -> list[str]:
    return [command, "--config", config, "--seed", str(seed), "--out", out_dir]


def _fem_steps(freq: float) -> int:
    return round((DISCARD_MS + WINDOW_MS[freq]) / 0.5) + 1


def work_units(workload: str) -> tuple[int, str]:
    """Work one operation does, and its name: FEM steps, stimuli or evaluations."""
    if workload == "sim-cold":
        return sum(len(a) * _fem_steps(f) for f, a in APPENDIX_A.items()), "fem_steps_per_s"
    if workload == "sim-fine-cold":
        return sum(_fem_steps(f) for f in APPENDIX_A), "fem_steps_per_s"
    if workload == "sim-warm":
        return sum(len(a) for a in APPENDIX_A.values()), "stimuli_per_s"
    return len(AFFERENTS) * FIT_BUDGET, "evals_per_s"
