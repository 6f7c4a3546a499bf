#!/usr/bin/env python3
"""Sweep the analytic operation counts of both estimators over grid sizes.

Writes a C,sequential_ops,capon_ops CSV for a uniform grid sweep and
prints where the sequential method starts to win, checking that every
later row of the sweep wins too.
"""

import argparse
import sys
from pathlib import Path

from ndspec import DimSpec, SpectralGridSpec, cost_report
from ndspec.cli import main as cli_main


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--gamma", type=int, default=10, help="uniform order")
    parser.add_argument("--dims", type=int, default=5, help="dimension count")
    parser.add_argument("--sweep", default="2:64:2", help="grid sweep cmin:cmax:step")
    parser.add_argument("--out", default="out/cost_sweep.csv", help="output CSV")
    args = parser.parse_args()

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    code = cli_main(["cost", "--gamma", str(args.gamma), "--dims", str(args.dims),
                     "--grid-sweep", args.sweep, "--out", str(out)])
    if code != 0:
        return code

    spec = DimSpec((args.gamma,) * args.dims)
    cmin, cmax, step = (int(tok) for tok in args.sweep.split(":"))
    wins = {}
    for count in range(cmin, cmax + 1, step):
        report = cost_report(spec, SpectralGridSpec((count,) * args.dims))
        wins[count] = report.sequential_total < report.capon_total
    crossover = next((count for count, win in wins.items() if win), None)
    print(f"wrote {out}")
    if crossover is None:
        print("sequential never undercuts the baseline over this sweep")
        return 0
    losing = [count for count, win in wins.items() if count > crossover and not win]
    if losing:
        print(f"sequential first cheaper than the baseline at C = {crossover}, "
              f"but not at C = {', '.join(map(str, losing))}")
    else:
        print(f"sequential cheaper than the baseline from C = {crossover} onward")
    return 0


if __name__ == "__main__":
    sys.exit(main())
