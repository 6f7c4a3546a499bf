#!/usr/bin/env python3
"""Refusal parity of the sequential estimator on a seeded near-singular corpus.

Usage, from the repository root:

    python3 scripts/near_singular.py [--base BASE_ROOT] [--count 400]

The corpus: input i of noise band b is drawn from
``numpy.random.default_rng((2026, b, i))``. Its orders cycle over
(3,4), (2,3), (3,3), (2,2,3), (4,), (4,), (2,3), (3,3,3); it holds 1 to 5
spectral lines on the 1/8 lattice with powers in [0.5, 1.5), each with
probability 1/2 joined by a partner 0.002 higher in f_0, and white noise
of 10^U(lo, hi) times the total line power, with (lo, hi) = (-11, -10),
(-14, -11) and (-17, -14) for bands 0, 1 and 2. ``--count`` inputs are
drawn per band (400 by default), each estimated on an 8^d grid.

Without ``--base`` the script compares this tree's ``sequential_spectrum``
with its dense oracle, ``ndspec.oracle.dense_sweep``: the assembled
matrix inverted by ``invert_pd``, then every stage by ``stage_update``,
with the zero blocks inverted at each stage, on the same unit-scale
lags. With ``--base`` it compares the
``sequential_spectrum`` of the tree at BASE_ROOT (base) with this tree's
(change). It prints the refusals that agree on stage, grid point and
pivot index, the pivot values among them that differ, every input that
only one side refuses or that the sides refuse differently, each pivot
value with the floor it had to exceed on its side, and, over
the inputs both accept, the largest relative differences of the two
spectra at cells below 1e9 times the median, by input.
"""

import argparse
import importlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
GAMMAS = ((3, 4), (2, 3), (3, 3), (2, 2, 3), (4,), (4,), (2, 3), (3, 3, 3))
NOISE_BANDS = ((-11, -10), (-14, -11), (-17, -14))
GRID_COUNT = 8
LINE_CELL_RATIO = 1e9


def corpus_input(nd, band: int, index: int):
    """(orders, signal) of input ``index`` of noise band ``band``."""
    rng = np.random.default_rng((2026, band, index))
    gamma = GAMMAS[index % len(GAMMAS)]
    peaks = []
    for _ in range(int(rng.integers(1, 6))):
        f = rng.integers(0, 8, size=len(gamma)) / 8
        peaks.append((tuple(f), float(rng.uniform(0.5, 1.5))))
        if rng.random() < 0.5:
            partner = ((f[0] + 0.002) % 1.0,) + tuple(f[1:])
            peaks.append((partner, float(rng.uniform(0.5, 1.5))))
    lo, hi = NOISE_BANDS[band]
    noise = sum(p for _, p in peaks) * 10.0 ** rng.uniform(lo, hi)
    comp = nd.SpectralComposition(peaks=tuple(peaks), noise_var=noise)
    return gamma, nd.synth_correlation(comp, gamma)


def outcome(estimate, nd, c, grid):
    """The power, or the refusal as (stage, grid point, pivot index, value,
    floor)."""
    try:
        return estimate(nd, c, grid)
    except nd.NotPositiveDefinite as exc:
        return exc.stage, exc.frequency, exc.pivot_index, exc.pivot_value, exc.floor


def dense(nd, c, grid):
    return importlib.import_module(f"{nd.__name__}.oracle").dense_sweep(c, grid)


def sequential(nd, c, grid):
    return nd.sequential_spectrum(c, grid).power


def compare(sides, count: int):
    """Per input: (label, base outcome, change outcome). ``sides`` holds
    (package, estimate) for the base and for the change."""
    rows = []
    for band in range(len(NOISE_BANDS)):
        for index in range(count):
            outcomes = []
            for nd, estimate in sides:
                gamma, c = corpus_input(nd, band, index)
                grid = nd.SpectralGridSpec((GRID_COUNT,) * len(gamma))
                outcomes.append(outcome(estimate, nd, c, grid))
            rows.append((f"band {band} input {index} gamma {gamma}", *outcomes))
    return rows


def regular_difference(base, change):
    """Largest relative difference at cells below 1e9 times the base's median."""
    regular = base < LINE_CELL_RATIO * np.median(base)
    return float(np.max(np.abs(change[regular] - base[regular]) / base[regular]))


def _pivot_text(o):
    """A refusal's pivot value and the floor it had to exceed."""
    return f"{o[3]:.6g} (floor {o[4]:.6g})"


def _refusal_text(o):
    if not isinstance(o, tuple):
        return "accepted"
    return f"refused at stage {o[0]}, point {o[1]}, pivot {o[2]} {_pivot_text(o)}"


def report(rows, names=("base", "change"), top=6):
    refused, agree, lines = 0, 0, []
    for label, a, b in rows:
        if not (isinstance(a, tuple) or isinstance(b, tuple)):
            continue
        refused += 1
        if isinstance(a, tuple) and isinstance(b, tuple) and a[:3] == b[:3]:
            agree += 1
            if a[3] != b[3]:
                lines.append(f"  {label}: pivot value {_pivot_text(a)} ({names[0]}) "
                             f"vs {_pivot_text(b)} ({names[1]}) at stage {a[0]}")
        else:
            lines.append(f"  {label}: {names[0]} {_refusal_text(a)}; "
                         f"{names[1]} {_refusal_text(b)}")
    accepted = sorted(((regular_difference(a, b), label) for label, a, b in rows
                       if not (isinstance(a, tuple) or isinstance(b, tuple))), reverse=True)
    return ([f"{len(rows)} inputs, {refused} refused by either side, {agree} refused by "
             f"both at the same stage, grid point and pivot index"] + lines
            + [f"{len(accepted)} inputs accepted by both; largest relative differences "
               f"at cells < 1e9 x median:"]
            + [f"  {label}: {diff:.3g}" for diff, label in accepted[:top]])


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", type=Path,
                        help="checkout whose sequential_spectrum is the base "
                             "(default: this tree's dense oracle)")
    parser.add_argument("--count", type=int, default=400, help="inputs per noise band")
    args = parser.parse_args()
    if args.base is None:
        sys.path.insert(0, str(ROOT / "src"))
        import ndspec as nd

        sides, names = ((nd, dense), (nd, sequential)), ("dense", "sequential")
    else:
        from ab_estimate import import_tree

        sides = ((import_tree(args.base, "ndspec_base"), sequential),
                 (import_tree(ROOT, "ndspec_change"), sequential))
        names = ("base", "change")
    print("\n".join(report(compare(sides, args.count), names)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
