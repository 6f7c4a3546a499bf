#!/usr/bin/env python3
"""Interleaved A/B timing of one ndspec operation between two source trees.

Usage, from the repository root:

    python3 scripts/ab_estimate.py BASE_ROOT [--change-root .]
        [--op estimate|capon|match] [--workload cube wide plane]
        [--seed 7 2026] [--pairs 200] [--toy]

BASE_ROOT and the change root are checkouts of this repository. Their
``src/ndspec`` trees are imported side by side as ``ndspec_base`` and
``ndspec_change``; the inputs come from the benchmark's
``bench/workloads.py``, built once per tree from the same seed. The
operations are the benchmark's: ``estimate`` is ``sequential_spectrum``
(the default), ``capon`` is ``assemble`` + ``invert_pd`` +
``capon_spectrum``, and ``match`` is ``correlation_match`` of the tree's
own sequential spectrum. Calls of the two trees alternate, which goes
first alternates too, and a garbage collection runs before each call, as
in the benchmark. For each workload and seed it prints each side's
median and quartiles in ms, the pairs the change won, each side's
tracemalloc peak of one untimed call made after the timed pairs, and
the largest relative difference of the two outputs: for ``estimate`` at
the cells below 1e9 times the base's median and, separately, at the
line cells above it, whose last digits no evaluation order keeps; for
``capon`` over the Capon spectrum; for ``match`` over the reconstructed
lags, relative to the largest of them, since the line cells set every
lag's last digits and a lag far below the largest has none of its own.
"""

import argparse
import gc
import importlib.util
import sys
import time
import tracemalloc
import warnings
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


def operation(nd, inputs, op):
    """The timed call of ``op`` on one tree, returning the array compared."""
    if op == "estimate":
        return lambda: nd.sequential_spectrum(inputs.signal, inputs.grid).power
    if op == "capon":
        spec = nd.DimSpec(inputs.signal.gamma)
        return lambda: nd.capon_spectrum(nd.invert_pd(nd.assemble(inputs.signal).entries),
                                         spec, inputs.grid).power
    spectrum = nd.sequential_spectrum(inputs.signal, inputs.grid)
    return lambda: nd.correlation_match(spectrum, inputs.signal).per_lag.reconstructed


def timed(call):
    gc.collect()
    started = time.perf_counter()
    out = call()
    return time.perf_counter() - started, out


def peak_mb(call):
    """tracemalloc peak of one untimed call, in MB."""
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def quartiles_ms(samples):
    return tuple(1e3 * v for v in np.percentile(samples, [25, 50, 75]))


def compare(trees, workloads, op, name, seed, pairs, toy):
    """One workload and seed: the report lines."""
    inputs = [workloads.build(nd, name, seed, toy) for nd in trees]
    calls = [operation(nd, inp, op) for nd, inp in zip(trees, inputs)]
    outputs = [timed(call)[1] for call in calls]  # warm-up
    times = ([], [])
    for i in range(pairs):
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            times[side].append(timed(calls[side])[0])
    base, change = (np.array(t) for t in times)
    won = int(np.sum(change < base))
    (bq1, bmed, bq3), (cq1, cmed, cq3) = quartiles_ms(base), quartiles_ms(change)
    lines = [f"{name} seed {seed}: base {bmed:.3f} ms [{bq1:.3f}, {bq3:.3f}], "
             f"change {cmed:.3f} ms [{cq1:.3f}, {cq3:.3f}], "
             f"change won {won}/{pairs} pairs, {bmed / cmed:.3f}x",
             "  tracemalloc peak of one call: base {:.6g} MB, change {:.6g} MB".format(
                 *(peak_mb(call) for call in calls))]
    ref, new = outputs
    if op == "match":
        largest = float(np.max(np.abs(ref)))
        lines.append(f"  max difference over {ref.size} reconstructed lags, relative to "
                     f"the largest: {float(np.max(np.abs(new - ref))) / largest:.3g}")
        return lines
    rel = np.abs(new - ref) / np.abs(ref)
    if op == "capon":
        lines.append(f"  max relative difference over {rel.size} Capon cells: "
                     f"{float(rel.max()):.3g}")
        return lines
    regular = ref < LINE_CELL_RATIO * np.median(ref)
    for label, mask in (("cells < 1e9 x median", regular), ("line cells", ~regular)):
        if mask.any():
            lines.append(f"  max relative difference at {int(mask.sum())} {label}: "
                         f"{float(rel[mask].max()):.3g}")
    for side, (inp, power) in enumerate(zip(inputs, outputs)):
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
    parser.add_argument("--op", choices=("estimate", "capon", "match"), default="estimate")
    parser.add_argument("--workload", nargs="+", default=["cube", "wide", "plane"])
    parser.add_argument("--seed", type=int, nargs="+", default=[7])
    parser.add_argument("--pairs", type=int, default=200)
    parser.add_argument("--toy", action="store_true", help="the workloads' toy sizes")
    args = parser.parse_args()

    trees = (import_tree(args.base_root, "ndspec_base"),
             import_tree(args.change_root, "ndspec_change"))
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads  # the benchmark's inputs, read as they are

    for nd in trees:  # expected where the grid is coarser than the lag box (wide)
        warnings.simplefilter("ignore", nd.AliasingWarning)
    for name in args.workload:
        for seed in args.seed:
            print("\n".join(compare(trees, workloads, args.op, name, seed, args.pairs,
                                     args.toy)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
