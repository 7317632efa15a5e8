#!/usr/bin/env python3
"""Delay bound vs hop count for the voice tandem (writes hop_scaling.csv).

The bound at epsilon = 1e-9 for 781 through and 1953 cross voice flows per
100 Mbit/s hop grows exactly linearly in the number of hops; plot column
`bound_value` (seconds) against column `H` to see the straight line, e.g.:

    python scripts/run_hop_scaling.py --out hop_scaling.csv
    gnuplot -e "set datafile separator ','; plot 'hop_scaling.csv' \
        using 3:8 every ::1 with linespoints"
"""

import argparse
import sys

from sncalc.cli import main as cli_main

if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="hop_scaling.csv")
    args = ap.parse_args()
    sys.exit(cli_main(["sweep-hops", "--scenario", "voice-fig3", "--out", args.out]))
