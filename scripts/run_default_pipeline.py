#!/usr/bin/env python3
"""Run the full default pipeline into ./out-default: mesh export, static
deflection check, then the complete 37-stimulus sinusoid protocol.

    python3 scripts/run_default_pipeline.py [--out DIR] [--protocol NAME]

Every run solves the FEM afresh: appendixA's 18 317 steps take one
factorization, one 5-column solve for the unit loads on the indenter's
footprint and 3 small dense solves (one per contact segment of the
footprint's depth -> load table), and the whole script about 0.75-0.9 s on a 2-core x86-64 host.
Outputs: mesh.txt, validation_report.json, deflection.csv, rates.csv,
spikes.jsonl, per-stimulus stress traces.
"""

import argparse
import json
import sys
import tempfile

from afferentsim import cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out-default")
    parser.add_argument("--protocol", default="appendixA",
                        help="appendixA|appendixB|appendixC or a protocol JSON")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump({}, fh)  # all defaults: 20x8 mm mesh, four layers, dt 0.5 ms
        config_path = fh.name

    common = ["--config", config_path, "--out", args.out,
              "--seed", str(args.seed)]
    for step in (["mesh"], ["validate"],
                 ["simulate", "--protocol", args.protocol]):
        code = cli.main(step + common)
        if code != 0:
            return code
    print(f"done: see {args.out}/rates.csv and {args.out}/spikes.jsonl")
    return 0


if __name__ == "__main__":
    sys.exit(main())
