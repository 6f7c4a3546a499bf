#!/usr/bin/env python3
"""Interleaved A/B timing of cold ndspec command lines between two source trees.

Usage, from the repository root:

    python3 scripts/ab_cold.py BASE_ROOT [--change-root .] [--pairs 10]

BASE_ROOT and the change root are checkouts of this repository. Each
timed run is a fresh interpreter, ``python -m ndspec`` with only the
tree's ``src`` on its path, so imports and first-call costs count, as a
user's cold start pays them. The input is the README's synthetic cube at
orders (4,4,4), generated once by the change tree; the commands are
``estimate`` on a 32^3 grid, the same with ``--method capon``, and
``match`` of the tree's own estimate. Runs of the two trees alternate,
which goes first alternates too, after one untimed run of each command
per tree. For each command it prints each side's median and quartiles in
seconds, the pairs the change won, and whether the two trees' output
files are byte-identical.
"""

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
GEN = ["gen", "--gamma", "4,4,4", "--peak", "0.1,0.3,0.7:1", "--peak", "0.1,0.6,0.2:1",
       "--plane", "0:0.6:1", "--noise", "0.1", "--out", "cube.ndcorr"]
GRID = ["--grid", "32,32,32"]
COMMANDS = {
    "estimate": lambda side: ["estimate", "cube.ndcorr", *GRID, "--out", f"{side}_estimate.csv"],
    "estimate --method capon": lambda side: ["estimate", "cube.ndcorr", *GRID, "--method",
                                             "capon", "--out", f"{side}_capon.csv"],
    "match": lambda side: ["match", f"{side}_estimate.csv", "cube.ndcorr",
                           "--out", f"{side}_match.csv"],
}


def run(root: Path, args: list[str], workdir: Path) -> float:
    """Wall seconds of ``python -m ndspec ARGS`` from ``root/src`` in ``workdir``."""
    env = {**os.environ, "PYTHONPATH": str(root.resolve() / "src")}
    started = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "ndspec", *args], cwd=workdir, env=env,
                          capture_output=True, text=True, timeout=300)
    elapsed = time.perf_counter() - started
    if done.returncode != 0:
        raise SystemExit(f"{root}: ndspec {' '.join(args)} exited {done.returncode}: "
                         f"{done.stderr.strip()}")
    return elapsed


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base_root", type=Path, help="checkout of the base tree")
    parser.add_argument("--change-root", type=Path, default=ROOT,
                        help="checkout of the changed tree (default: this one)")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    roots = {"base": args.base_root, "change": args.change_root}
    for root in roots.values():
        if not (root / "src" / "ndspec" / "__init__.py").is_file():
            raise SystemExit(f"{root / 'src' / 'ndspec'} not found")

    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        run(roots["change"], GEN, workdir)
        for side, root in roots.items():  # untimed: byte-compiles, writes the outputs
            for command in COMMANDS.values():
                run(root, command(side), workdir)
        for name, command in COMMANDS.items():
            times = {"base": [], "change": []}
            for i in range(args.pairs):
                for side in (("base", "change") if i % 2 == 0 else ("change", "base")):
                    times[side].append(run(roots[side], command(side), workdir))
            base, change = (np.array(times[side]) for side in ("base", "change"))
            (bq1, bmed, bq3), (cq1, cmed, cq3) = (np.percentile(t, [25, 50, 75])
                                                  for t in (base, change))
            out = command("base")[-1].removeprefix("base")
            same = (workdir / f"base{out}").read_bytes() == (workdir / f"change{out}").read_bytes()
            print(f"{name}: base {bmed:.3f} s [{bq1:.3f}, {bq3:.3f}], "
                  f"change {cmed:.3f} s [{cq1:.3f}, {cq3:.3f}], "
                  f"change won {int(np.sum(change < base))}/{args.pairs} pairs, "
                  f"{bmed / cmed:.2f}x; output bytes {'identical' if same else 'DIFFER'}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
