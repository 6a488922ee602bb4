#!/usr/bin/env python3
"""Predicted firing rate versus amplitude and frequency for the shipped
afferent parameters, over the built-in sinusoid bank.

    python3 scripts/rate_trends.py [--out rates_table.csv]

The rates are those of `pipeline.simulate` on the default config (appendixA
on the default mesh), so the --out table holds the afferent, frequency,
amplitude and predicted-rate columns of that run's rates.csv.  Prints one
block per afferent type: rows are amplitudes, columns are frequencies
(20/50/100/300 Hz), entries are rates in ips.  Reproduces the qualitative
picture: SA saturates at one spike per cycle and is silent at 300 Hz; RA
and PC rates climb with both amplitude and frequency.  Takes about 0.45 s,
import included, on a 2-core x86-64 host.
"""

import argparse
import sys

# names imported directly, so that `--help` fails if any of them is removed
from afferentsim.config import config_from_dict
from afferentsim.pipeline import simulate
from afferentsim.stimulus import SINUSOID_TABLE


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None, help="also write a CSV table")
    args = parser.parse_args()

    records = simulate(config_from_dict({})).records
    rates = {(r.afferent_type, r.freq_hz, r.amplitude_um): r.predicted_ips
             for r in records}

    freqs = sorted(SINUSOID_TABLE)
    all_amps = sorted({a for amps in SINUSOID_TABLE.values() for a in amps})
    for atype in ("SA", "RA", "PC"):
        print(f"\n{atype} predicted rate (ips); rows: amplitude um, "
              f"cols: {[int(f) for f in freqs]} Hz")
        for amp in all_amps:
            cells = []
            for f in freqs:
                key = (atype, f, amp)
                cells.append(f"{rates[key]:7.1f}" if key in rates else "      -")
            print(f"  {amp:7.2f} |" + "".join(cells))

    if args.out:
        with open(args.out, "w") as fh:
            fh.write("afferent,freq_hz,amplitude_um,predicted_ips\n")
            for (atype, f, a), r in sorted(rates.items()):
                fh.write(f"{atype},{f!r},{a!r},{r!r}\n")
        print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
