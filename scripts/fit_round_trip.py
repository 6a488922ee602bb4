#!/usr/bin/env python3
"""Optimizer self-test: synthesize observed rates from the shipped RA
parameters, then try to recover them with the multi-objective fit.

    python3 scripts/fit_round_trip.py [--budget 10000] [--seed 0]

The stress bank is `pipeline.stress_bank` for appendixA on the default mesh,
keyed by condition with `pipeline.condition_bank`.  Reports the selected
candidate, its per-frequency squared-error objectives, and the objective
sum (0 means the synthetic rates were matched exactly).  The full budget
takes 1.9-2.3 s on one core of a 2-core x86-64 host: 1.6-1.9 s to fit
(7% of the children repeat a candidate already counted, and are not
integrated again), the rest to import and to solve the stress bank.
Note: several (tau_m, a, alpha') combinations can produce identical spike
counts, so recovered parameter values may differ from the generator while
the objective sum is still 0 — rate data alone does not pin the parameters.
"""

import argparse
import sys
import time

# names imported directly, so that `--help` fails if any of them is removed
from afferentsim.config import config_from_dict
from afferentsim.mesh import build_mesh
from afferentsim.neural import default_afferent_params
from afferentsim.optimize import OBJECTIVE_FREQS, recover_parameters
from afferentsim.pipeline import condition_bank, resolve_protocol, stress_bank


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget", type=int, default=10000)
    parser.add_argument("--population", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--afferent", default="RA", choices=["SA", "RA", "PC"])
    args = parser.parse_args()

    cfg = config_from_dict({})  # appendixA on the default mesh
    specs = resolve_protocol(cfg)
    bank = stress_bank(cfg, build_mesh(cfg.geometry, cfg.materials), specs)
    type_bank = condition_bank(bank, specs, args.afferent)

    truth = default_afferent_params()[args.afferent]
    t0 = time.perf_counter()
    outcome = recover_parameters(
        truth, type_bank, seed=args.seed,
        budget=args.budget, population_size=args.population,
    )
    elapsed = time.perf_counter() - t0

    picked = outcome.selected
    print(f"\ngenerator : {truth.to_dict()}")
    print(f"recovered : {picked.to_dict()}")
    print(f"objectives: "
          + ", ".join(f"{f:.0f} Hz = {o:.3f}" for f, o in
                      zip(OBJECTIVE_FREQS, outcome.selected_objectives)))
    print(f"objective sum: {outcome.objective_sum:.4f} ips^2 "
          f"({elapsed:.1f} s, front size {outcome.front.front_indices().size})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
