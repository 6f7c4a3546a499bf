"""Shared builders for randomized test inputs, and a runner of scripts in
a fresh interpreter.

Everything here is seeded by the caller; no global random state.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from ndspec import (
    CorrelationSignal,
    DimSpec,
    Nesting,
    SpectralComposition,
    synth_correlation,
)
from ndspec.indexing import digits


def random_composition(rng, d, n_peaks=3, noise_floor=0.2):
    """Random point peaks plus a noise floor; always positive definite."""
    peaks = tuple(
        (tuple(rng.random(d)), float(rng.random() + 0.3)) for _ in range(n_peaks)
    )
    return SpectralComposition(peaks=peaks, noise_var=noise_floor + rng.random())


def random_correlation(rng, gamma, n_peaks=3, noise_floor=0.2) -> CorrelationSignal:
    """Random positive definite correlation signal on the given orders."""
    comp = random_composition(rng, len(gamma), n_peaks, noise_floor)
    return synth_correlation(comp, gamma)


def signed_zero_correlation(seed, gamma) -> CorrelationSignal:
    """Seeded random signal for byte-level format checks: every other lag
    before the zero lag, from the second on, and its Hermitian mirror become
    a signed zero or a value below 1e-12; the first lag becomes
    5e-324 - 1e300j."""
    rng = np.random.default_rng(seed)
    lags = random_correlation(rng, gamma).lags.copy()
    flat = lags.reshape(-1)
    mirror = flat[::-1]  # lag -t sits at the mirrored flat index of lag t
    center = flat.size // 2
    for k in range(1, center, 2):
        if k % 3 == 1:
            flat[k] = complex(rng.choice([-1e-13, 3e-14]), rng.choice([-0.0, 2e-15]))
        else:
            flat[k] = complex(-0.0, rng.choice([-0.0, 0.0, -0.5]))
        mirror[k] = np.conj(flat[k])
    if center:
        flat[0], mirror[0] = 5e-324 - 1e300j, 5e-324 + 1e300j
    return CorrelationSignal(gamma, lags)


def several_block_signal(seed) -> CorrelationSignal:
    """A signal of 4 913 lags, more than one block of the table writer, with
    signed zeros and the pair 1e-05 -/+ 1e+16j after the first block."""
    lags = signed_zero_correlation(seed, (9, 9, 9)).lags.copy()
    flat = lags.reshape(-1)
    flat[100], flat[-101] = complex(1e-05, -1e16), complex(1e-05, 1e16)
    return CorrelationSignal((9, 9, 9), lags)


def random_correlation_1d(rng, order, n_peaks=3, noise_floor=0.2) -> CorrelationSignal:
    return random_correlation(rng, (order,), n_peaks, noise_floor)


def separable_correlation(factors) -> CorrelationSignal:
    """Outer product c(t) = prod_i c_i(t_i) of 1D signals."""
    lags = factors[0].lags
    for factor in factors[1:]:
        lags = np.multiply.outer(lags, factor.lags)
    gamma = tuple(f.gamma[0] for f in factors)
    return CorrelationSignal(gamma, lags)


def random_pd_matrix(rng, n) -> np.ndarray:
    """Random Hermitian positive definite matrix with unit-scale diagonal."""
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = b @ b.conj().T / n + 0.5 * np.eye(n)
    return 0.5 * (a + a.conj().T)


def character_matrix(rng, spec: DimSpec, u: int, nesting: Nesting) -> np.ndarray:
    """Random complex matrix whose entries depend on the slot-u digits only
    through their difference (one Toeplitz character, nothing else)."""
    dim = nesting.dims[u]
    rows = digits(spec, nesting).tolist()
    values = {}
    out = np.empty((spec.q, spec.q), dtype=complex)
    for i, di in enumerate(rows):
        for j, dj in enumerate(rows):
            key = (
                tuple(v for k, v in enumerate(di) if k != dim),
                tuple(v for k, v in enumerate(dj) if k != dim),
                di[dim] - dj[dim],
            )
            if key not in values:
                values[key] = complex(rng.standard_normal(), rng.standard_normal())
            out[i, j] = values[key]
    return out


def run_fresh(script: str):
    """Run ``script`` in a fresh interpreter with this package's ``src`` on
    its path; the result is the JSON of its last line of output."""
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", script],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])
