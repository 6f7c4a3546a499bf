#!/usr/bin/env python3
"""Interleaved A/B timing of ``sequential_spectrum`` between two source trees.

Usage, from the repository root:

    python3 scripts/ab_estimate.py BASE_ROOT [--change-root .]
        [--workload cube wide plane] [--seed 7 2026] [--pairs 200] [--toy]

BASE_ROOT and the change root are checkouts of this repository. Their
``src/ndspec`` trees are imported side by side as ``ndspec_base`` and
``ndspec_change``; the inputs come from the benchmark's
``bench/workloads.py``, built once per tree from the same seed. Calls of
the two trees alternate, and which goes first alternates too. For each
workload and seed it prints each side's median and quartiles in ms, the
pairs the change won, and the largest relative difference of the two
spectra at the cells below 1e9 times the base's median and, separately,
at the line cells above it, whose last digits no evaluation order keeps.
"""

import argparse
import importlib.util
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
LINE_CELL_RATIO = 1e9


def import_tree(root: Path, name: str):
    """The package in ``root/src/ndspec``, imported as ``name``."""
    init = root.resolve() / "src" / "ndspec" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"{init} not found")
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def timed(nd, inputs):
    started = time.perf_counter()
    estimate = nd.sequential_spectrum(inputs.signal, inputs.grid)
    return time.perf_counter() - started, estimate.power


def quartiles_ms(samples):
    return tuple(1e3 * v for v in np.percentile(samples, [25, 50, 75]))


def compare(trees, workloads, name, seed, pairs, toy):
    """One workload and seed: the report lines."""
    inputs = [workloads.build(nd, name, seed, toy) for nd in trees]
    powers = [timed(nd, inp)[1] for nd, inp in zip(trees, inputs)]  # warm-up
    times = ([], [])
    for i in range(pairs):
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            times[side].append(timed(trees[side], inputs[side])[0])
    base, change = (np.array(t) for t in times)
    won = int(np.sum(change < base))
    (bq1, bmed, bq3), (cq1, cmed, cq3) = quartiles_ms(base), quartiles_ms(change)
    lines = [f"{name} seed {seed}: base {bmed:.3f} ms [{bq1:.3f}, {bq3:.3f}], "
             f"change {cmed:.3f} ms [{cq1:.3f}, {cq3:.3f}], "
             f"change won {won}/{pairs} pairs, {bmed / cmed:.3f}x"]
    ref, new = powers
    rel = np.abs(new - ref) / ref
    regular = ref < LINE_CELL_RATIO * np.median(ref)
    for label, mask in (("cells < 1e9 x median", regular), ("line cells", ~regular)):
        if mask.any():
            lines.append(f"  max relative difference at {int(mask.sum())} {label}: "
                         f"{float(rel[mask].max()):.3g}")
    for side, (inp, power) in enumerate(zip(inputs, powers)):
        failure = inp.check(power)
        if failure:
            lines.append(f"  {('base', 'change')[side]} output check failed: {failure}")
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base_root", type=Path, help="checkout of the base tree")
    parser.add_argument("--change-root", type=Path, default=ROOT,
                        help="checkout of the changed tree (default: this one)")
    parser.add_argument("--workload", nargs="+", default=["cube", "wide", "plane"])
    parser.add_argument("--seed", type=int, nargs="+", default=[7])
    parser.add_argument("--pairs", type=int, default=200)
    parser.add_argument("--toy", action="store_true", help="the workloads' toy sizes")
    args = parser.parse_args()

    trees = (import_tree(args.base_root, "ndspec_base"),
             import_tree(args.change_root, "ndspec_change"))
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads  # the benchmark's inputs, read as they are

    for name in args.workload:
        for seed in args.seed:
            print("\n".join(compare(trees, workloads, name, seed, args.pairs, args.toy)),
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
