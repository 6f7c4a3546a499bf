#!/usr/bin/env python3
"""Reach check: the sequential estimator at q = 4096 against an exact oracle.

Builds the separable product of four seeded order-8 1D signals (orders
(8, 8, 8, 8), q = 4096), estimates its spectrum on a 16^4 grid and compares
it with the outer product of the four 1D Levinson spectra, which is exact for
a separable input. Prints the estimate's wall time, the process's peak RSS
and the oracle's largest relative error; exits 1 when that error is above
1e-8 (criterion 2's tolerance).

Run from the repository root (about 4 s and 0.3 GB):

    PYTHONPATH=src python3 scripts/separable_reach.py --seed 7
"""

import argparse
import resource
import sys
import time

import numpy as np

import ndspec as nd

ORDER, DIMS, POINTS = 8, 4, 16
REL_TOL = 1e-8


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=7, help="seed of the 1D factors")
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    factors = [nd.synth_correlation(nd.SpectralComposition(
        peaks=tuple(((float(rng.random()),), float(rng.random() + 0.3)) for _ in range(3)),
        noise_var=0.2 + float(rng.random())), (ORDER,)) for _ in range(DIMS)]
    lags = factors[0].lags
    for factor in factors[1:]:
        lags = np.multiply.outer(lags, factor.lags)
    signal = nd.CorrelationSignal((ORDER,) * DIMS, lags)
    line = nd.SpectralGridSpec((POINTS,))
    expected = np.ones(())
    for factor in factors:
        expected = np.multiply.outer(expected, nd.ar_spectrum_1d(nd.levinson_1d(factor), line).power)

    start = time.perf_counter()
    power = nd.sequential_spectrum(signal, nd.SpectralGridSpec((POINTS,) * DIMS)).power
    seconds = time.perf_counter() - start
    err = float(np.max(np.abs(power - expected) / expected))
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 2**20
    print(f"orders {(ORDER,) * DIMS}, q = {ORDER ** DIMS}, grid {POINTS}^{DIMS}, seed {args.seed}: "
          f"estimate {seconds:.2f} s, peak RSS {peak_gb:.2f} GB, "
          f"separable-product relative error {err:.2e} (limit {REL_TOL:g})")
    return 0 if err <= REL_TOL else 1


if __name__ == "__main__":
    sys.exit(main())
