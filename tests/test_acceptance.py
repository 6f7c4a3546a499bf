"""Acceptance gate: every exit criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s``) and then
asserts, so the suite is red whenever a criterion is not met.
"""

import itertools
import time
from fractions import Fraction

import numpy as np

from conftest import (
    character_matrix,
    random_correlation,
    random_correlation_1d,
    separable_correlation,
)
from ndspec import (
    CorrelationSignal,
    DimSpec,
    Nesting,
    SpectralComposition,
    SpectralGridSpec,
    apply_walking,
    ar_spectrum_1d,
    correlation_match,
    cost_report,
    estimate_correlation,
    has_toeplitz_character,
    levinson_1d,
    sequential_spectrum,
    synth_correlation,
    walking_map,
)
from ndspec.baselines import capon_cost
from ndspec.estimator import stage_update
from ndspec.linalg import cholesky
from ndspec.oracle import dense_column

CUBE_COMPOSITION = SpectralComposition(
    peaks=(((0.1, 0.3, 0.7), 1.0), ((0.1, 0.6, 0.2), 1.0)),
    planes=((0, 0.6, 1.0),),
    noise_var=0.1,
)


def _gate(num, name, ok, detail=""):
    line = f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_one_dimensional_oracle_equivalence():
    rng = np.random.default_rng(101)
    grid = SpectralGridSpec((64,))
    started = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        order = int(rng.integers(2, 9))
        c = random_correlation_1d(rng, order)
        oracle = ar_spectrum_1d(levinson_1d(c), grid)
        estimate = sequential_spectrum(c, grid)
        worst = max(worst, float(np.max(np.abs(estimate.power - oracle.power)
                                        / oracle.power)))
    elapsed = time.perf_counter() - started
    _gate(1, "1D oracle equivalence", worst < 1e-10 and elapsed < 1.0,
          f"max rel err {worst:.3e}, {elapsed:.2f}s")


def test_criterion_2_separable_product_property():
    rng = np.random.default_rng(102)
    started = time.perf_counter()
    worst = 0.0
    for case in range(20):
        d = 2 if case % 2 == 0 else 3
        orders = [int(rng.integers(2, 4)) for _ in range(d)]
        factors = [random_correlation_1d(rng, g) for g in orders]
        grid1 = SpectralGridSpec((8,))
        marginals = [ar_spectrum_1d(levinson_1d(f), grid1).power for f in factors]
        expected = marginals[0]
        for marginal in marginals[1:]:
            expected = np.multiply.outer(expected, marginal)
        joint = sequential_spectrum(separable_correlation(factors),
                                    SpectralGridSpec((8,) * d))
        worst = max(worst, float(np.max(np.abs(joint.power - expected) / expected)))
    elapsed = time.perf_counter() - started
    _gate(2, "separable product property", worst < 1e-8 and elapsed < 5.0,
          f"max rel err {worst:.3e}, {elapsed:.2f}s")


def test_criterion_3_cube_reproduction():
    started = time.perf_counter()
    c = synth_correlation(CUBE_COMPOSITION, (3, 3, 3))
    s = sequential_spectrum(c, SpectralGridSpec((10, 10, 10)))
    elapsed = time.perf_counter() - started
    finite = bool(np.all(np.isfinite(s.power)) and np.all(s.power > 0.0))
    median = float(np.median(s.power))
    peak_ratios = (s.power[1, 3, 7] / median, s.power[1, 6, 2] / median)
    plane_ratio = float(s.power[6, :, :].min() / median)
    ok = (finite and s.power.size == 1000
          and all(r >= 2.0 for r in peak_ratios)
          and plane_ratio >= 2.0
          and elapsed < 1.0)
    _gate(3, "3D cube reproduction", ok,
          f"peaks/median {peak_ratios[0]:.3g}, {peak_ratios[1]:.3g}; "
          f"plane min/median {plane_ratio:.3g}; {elapsed:.2f}s")


def test_criterion_4_cost_model_dominance():
    d1, d2 = (DimSpec((2,)), SpectralGridSpec((4,))), (DimSpec((2, 2)), SpectralGridSpec((4, 4)))
    spot_ok = (cost_report(*d1).sequential_total == 14 and capon_cost(*d1) == 16
               and cost_report(*d2).sequential_total == 136 and capon_cost(*d2) == 256)
    # Reference regime gamma = 10, d = 5: the last stage's zero-block
    # inversion alone costs 3/2 (10^4)^3 C, against Capon's 10^10 C^5, so
    # the sequential count can undercut Capon only once C^4 >= 150. The
    # model's crossover is therefore C = 4, and dominance holds from there on.
    spec = DimSpec((10,) * 5)
    last_inversion_c2 = Fraction(3, 2) * (10**4) ** 3 * 2
    ratios = {}
    violations = []
    for count in range(2, 65):
        grid = SpectralGridSpec((count,) * 5)
        seq, cap = cost_report(spec, grid).sequential_total, capon_cost(spec, grid)
        ratios[count] = seq / cap
        if count >= 4 and not seq < cap:
            violations.append(f"C={count}: sequential {seq} >= capon {cap}")
        if count < 4 and not seq >= cap:
            violations.append(f"C={count}: sequential {seq} < capon {cap} "
                              "below the crossover")
        if count == 2 and not seq >= last_inversion_c2:
            violations.append(f"C=2: sequential {seq} under the last stage's "
                              f"inversion {last_inversion_c2}")
    if not spot_ok:
        violations.insert(0, "spot values differ from 14/16 and 136/256")
    first = min((count for count, ratio in ratios.items() if ratio < 1), default=None)
    _gate(4, "cost-model dominance", spot_ok and not violations,
          "; ".join(violations) if violations else
          f"spot values ok; crossover at C = {first}, every C in 4..64 dominates; "
          f"sequential/capon {float(ratios[2]):.3g} at C=2, "
          f"{float(ratios[4]):.3g} at C=4")


def test_criterion_5_correlation_matching():
    ar1 = CorrelationSignal.from_forward_lags([1.0, 0.5])
    spectrum = sequential_spectrum(ar1, SpectralGridSpec((256,)))
    err_1d = correlation_match(spectrum, ar1).max_error

    rng = np.random.default_rng(2024)
    x = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
    x = (x + np.roll(x, 1, axis=0) + np.roll(x, 1, axis=1)) / 3.0
    c = estimate_correlation(x, (3, 3))
    errors = {}
    all_finite = True
    for count in (32, 64):
        report = correlation_match(
            sequential_spectrum(c, SpectralGridSpec((count, count))), c
        )
        errors[count] = report.max_error
        all_finite = all_finite and all(
            np.isfinite(entry.error) for entry in report.per_lag
        )
    ok = err_1d < 1e-3 and all_finite and errors[64] <= 1.1 * errors[32]
    _gate(5, "correlation matching", ok,
          f"1D max rel err {err_1d:.3e}; 2D max err {errors[32]:.3e} -> "
          f"{errors[64]:.3e} on grid doubling")


def test_criterion_6_structural_property_suite():
    rng = np.random.default_rng(106)

    walking_ok = True
    for _ in range(30):
        d = int(rng.integers(1, 4))
        gamma = tuple(int(rng.integers(1, 4)) for _ in range(d))
        spec = DimSpec(gamma)
        perms = list(itertools.permutations(range(d)))
        src = Nesting(perms[int(rng.integers(len(perms)))])
        dst = Nesting(perms[int(rng.integers(len(perms)))])
        u = int(rng.integers(d))
        perm = walking_map(spec, src, dst)
        walking_ok = walking_ok and np.array_equal(np.sort(perm), np.arange(spec.q))
        m = character_matrix(rng, spec, u, src)
        walked = apply_walking(m, perm)
        walking_ok = walking_ok and has_toeplitz_character(
            walked, spec, dst.dims.index(src.dims[u]), dst
        )

    pd_ok = True
    for gamma in [(2, 3), (2, 2, 2)]:
        c = random_correlation(rng, gamma)
        grid = SpectralGridSpec((4,) * len(gamma))
        field = dense_column(c)
        try:
            for _ in range(len(gamma)):
                for point in np.ndindex(*field.counts):
                    cholesky(field.blocks[point + (0,)])
                field = stage_update(field, grid)
        except Exception:  # noqa: BLE001 - any breakdown falsifies propagation
            pd_ok = False

    homo_worst = 0.0
    c = random_correlation(rng, (2, 3))
    grid = SpectralGridSpec((6, 6))
    base = sequential_spectrum(c, grid)
    for alpha in (0.1, 7.0):
        scaled = sequential_spectrum(c.scaled(alpha), grid)
        homo_worst = max(homo_worst, float(np.max(
            np.abs(scaled.power - alpha * base.power) / (alpha * base.power)
        )))

    ok = walking_ok and pd_ok and homo_worst < 1e-12
    _gate(6, "structural property suite", ok,
          f"homogeneity max rel err {homo_worst:.3e}")


def test_criterion_7_stability_versus_order():
    failures = []
    for order in (2, 3, 4):
        gamma = (order,) * 3
        c = synth_correlation(CUBE_COMPOSITION, gamma)
        try:
            s = sequential_spectrum(c, SpectralGridSpec((10, 10, 10)))
        except Exception as exc:  # noqa: BLE001 - any failure breaks the claim
            failures.append(f"orders {gamma}: {type(exc).__name__}")
            continue
        if not (np.all(np.isfinite(s.power)) and np.all(s.power > 0.0)):
            failures.append(f"orders {gamma}: non-positive output")
    _gate(7, "stability versus order", not failures,
          "; ".join(failures) if failures else "orders 2, 3, 4 all positive and finite")
