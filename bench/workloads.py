"""Seeded inputs, oracles and output checks of the benchmark workloads.

cube   The paper's synthetic cube: orders (4,4,4) on a 32^3 grid, two point
       peaks on grid cells drawn from the seed, the f0 = 0.6 plane and white
       noise 0.1. The last sweep stage's per-point loop does most of the work.
wide   A separable product of three seeded order-10 1D signals: q = 1000 on
       an 8^3 grid. The initial q x q inverse does most of the work, and the
       outer product of the 1D Levinson spectra is an exact oracle.
plane  2D orders (8,8) with the correlation estimated from 128 x 128 seeded
       complex samples (two sinusoids in noise), on a 256 x 256 grid. Tiny
       stage-2 congruences at 65 536 points and a 65 536-row CSV dominate.

Each workload also has a toy size with the same structure, used for the
warm-up and by the smoke tests. The library only ever receives the inputs
generated here; the seed stays on this side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

NAMES = ("cube", "wide", "plane")

CUBE_PLANE_F0 = 0.6
CUBE_NOISE = 0.1
# Criterion 3: peaks and the plane must stand at least this far above the median.
CUBE_MIN_RATIO = 2.0
# Criterion 2's tolerance for the separable-product oracle.
WIDE_REL_TOL = 1e-8
PLANE_AMPLITUDES = (1.0, 0.8)
PLANE_NOISE_STD = 0.5


@dataclass(frozen=True)
class Shape:
    """Size of one workload: orders, grid counts and, for plane, samples per axis."""

    gamma: tuple[int, ...]
    counts: tuple[int, ...]
    samples: int = 0


SHAPES = {
    "cube": {"full": Shape((4, 4, 4), (32, 32, 32)), "toy": Shape((3, 3, 3), (10, 10, 10))},
    "wide": {"full": Shape((10, 10, 10), (8, 8, 8)), "toy": Shape((3, 3, 3), (4, 4, 4))},
    "plane": {"full": Shape((8, 8), (256, 256), 128), "toy": Shape((4, 4), (32, 32), 32)},
}


@dataclass
class Inputs:
    """What the library receives for one workload, plus its output check.

    ``check`` takes a power array on ``grid`` and returns None when the
    spectrum passes, or a message naming what failed. ``slice_fix`` holds
    the ``--fix`` arguments that leave two free axes for ``ndspec slice``.
    ``planted`` records what the seed drew, for the result record.
    """

    name: str
    signal: object
    grid: object
    check: Callable[[np.ndarray], str | None]
    slice_fix: list[str] = field(default_factory=list)
    planted: dict = field(default_factory=dict)


def _circular_gap(a: int, b: int, n: int) -> int:
    return min((a - b) % n, (b - a) % n)


def _cube(nd, rng, shape: Shape) -> Inputs:
    count = shape.counts[0]
    plane_idx = round(CUBE_PLANE_F0 * count)
    gap = count // 4
    while True:
        f0_idx = int(rng.integers(count))
        if _circular_gap(f0_idx, plane_idx, count) >= gap:
            break
    while True:
        a, b = rng.integers(count, size=(2, 2))
        if all(_circular_gap(int(x), int(y), count) >= gap for x, y in zip(a, b)):
            break
    cells = [(f0_idx, int(a[0]), int(a[1])), (f0_idx, int(b[0]), int(b[1]))]
    comp = nd.SpectralComposition(
        peaks=tuple((tuple(m / count for m in cell), 1.0) for cell in cells),
        planes=((0, CUBE_PLANE_F0, 1.0),),
        noise_var=CUBE_NOISE,
    )
    signal = nd.synth_correlation(comp, shape.gamma)

    def check(power):
        median = float(np.median(power))
        ratios = [float(power[cell]) / median for cell in cells]
        plane_ratio = float(power[plane_idx].min()) / median
        if min(ratios) < CUBE_MIN_RATIO or plane_ratio < CUBE_MIN_RATIO:
            return (f"peaks/median {ratios}, plane min/median {plane_ratio:.3g}; "
                    f"need >= {CUBE_MIN_RATIO}")
        return None

    return Inputs("cube", signal, nd.SpectralGridSpec(shape.counts), check,
                  ["--fix", f"0={plane_idx}"],
                  {"peak_cells": cells, "plane_index": plane_idx})


def _wide(nd, rng, shape: Shape) -> Inputs:
    factors = []
    for g in shape.gamma:
        comp = nd.SpectralComposition(
            peaks=tuple(((float(rng.random()),), float(rng.random() + 0.3))
                        for _ in range(3)),
            noise_var=0.2 + float(rng.random()),
        )
        factors.append(nd.synth_correlation(comp, (g,)))
    lags = factors[0].lags
    for factor in factors[1:]:
        lags = np.multiply.outer(lags, factor.lags)
    signal = nd.CorrelationSignal(shape.gamma, lags)
    expected = np.ones(())
    for factor, count in zip(factors, shape.counts):
        marginal = nd.ar_spectrum_1d(nd.levinson_1d(factor), nd.SpectralGridSpec((count,)))
        expected = np.multiply.outer(expected, marginal.power)

    def check(power):
        err = float(np.max(np.abs(power - expected) / expected))
        if not err <= WIDE_REL_TOL:
            return f"separable-product relative error {err:.3e} > {WIDE_REL_TOL}"
        return None

    return Inputs("wide", signal, nd.SpectralGridSpec(shape.counts), check,
                  ["--fix", "0=0"], {"factor_orders": list(shape.gamma)})


def _local_maxima(power: np.ndarray) -> list[tuple[int, int]]:
    """Cells of a periodic 2D array that are >= all 8 neighbours, largest first."""
    peak = np.ones(power.shape, dtype=bool)
    for s0 in (-1, 0, 1):
        for s1 in (-1, 0, 1):
            if s0 or s1:
                peak &= power >= np.roll(power, (s0, s1), axis=(0, 1))
    cells = np.argwhere(peak)
    order = np.argsort(power[peak])[::-1]
    return [tuple(int(v) for v in cells[i]) for i in order]


def _plane(nd, rng, shape: Shape) -> Inputs:
    n = shape.samples
    gap = n // 6
    while True:
        ks = rng.integers(n, size=(2, 2))
        if all(_circular_gap(int(x), int(y), n) >= gap for x, y in zip(ks[0], ks[1])):
            break
    axis = np.arange(n)
    x = np.zeros((n, n), dtype=complex)
    for (k0, k1), amplitude in zip(ks, PLANE_AMPLITUDES):
        phase = 2.0 * np.pi * rng.random()
        x += amplitude * np.exp(1j * (2.0 * np.pi * (k0 * axis[:, None] + k1 * axis[None, :]) / n
                                      + phase))
    noise = rng.standard_normal((2, n, n))
    x += PLANE_NOISE_STD * (noise[0] + 1j * noise[1]) / np.sqrt(2.0)
    signal = nd.estimate_correlation(x, shape.gamma)
    # samples e^{+j 2 pi f n} put their mass at grid index round((1 - f) C)
    expected = {tuple(round((1.0 - k / n) * c) % c for k, c in zip(pair, shape.counts))
                for pair in ks.tolist()}

    def check(power):
        top = set(_local_maxima(power)[:2])
        if top != expected:
            return f"two largest local maxima at {sorted(top)}, expected {sorted(expected)}"
        return None

    return Inputs("plane", signal, nd.SpectralGridSpec(shape.counts), check, [],
                  {"sinusoid_cells": sorted(expected), "sample_freq_bins": ks.tolist()})


_BUILDERS = {"cube": _cube, "wide": _wide, "plane": _plane}


def build(nd, name: str, seed: int, toy: bool = False) -> Inputs:
    """Inputs of workload ``name`` drawn from ``seed``; ``nd`` is the ndspec package."""
    shape = SHAPES[name]["toy" if toy else "full"]
    return _BUILDERS[name](nd, np.random.default_rng(seed), shape)
