"""Sequential dimension-by-dimension spectral estimation.

The estimator runs the multichannel Levinson recursion over the slowest
dimension, without assembling the matrix: its forward predictor x and the
inverse P^{-1} of its error give the first block-column x P^{-1} of the
inverse correlation matrix. It then sweeps the dimensions from the
highest label down. Each stage holds, at every already-processed
frequency tuple, the first block-column of a running inverse; the stage
forms the block Fourier sum M(w) over a new frequency axis, pushes it
through the inverted zero block as the congruence M [G(0)]^{-1} M^H, and
extracts a smaller first block-column for the next stage. Only the
columns that are kept are formed: M ([G(0)]^{-1} M_top^H), with M_top
the leading rows of M, costs h^2 h' per point where (M [G(0)]^{-1}) M^H
costs h^3. Stage 1 takes x and P^{-1} as they are: with G = x P^{-1}
and G(0) = P^{-1}, its congruence is M_x P^{-1} M_x,top^H, and nothing
is inverted. Each later stage inverts its zero blocks in one stacked
call. A stage copies its blocks once, block-major, and takes the new
axis in chunks: one GEMM with a phase matrix gives a chunk's Fourier
sums at every point, and one batched call its congruences, so no Python
loop runs over points or single frequencies of a long axis. The last
stage's chunks hold ceil(C / 8) of its C frequencies; an earlier stage's
chunks are as long as its temporaries fit in the larger of the last
stage's working set and the recursion's, which the estimate holds anyway
(one chunk on the benchmark workloads). The last stage's zero blocks are
1 x 1 and are inverted by a reciprocal. It writes only the real part of
each scalar, once, into a float array in grid order m_0..m_{d-1}, and
the power spectrum is formed in place there as their reciprocal.

An estimate's memory is about 8 bytes per grid cell for the power, the
last stage's chunk temporaries (about 4 bytes per cell at chunks of
ceil(C / 8) of its C frequencies), the last stage's input field and its
block-major copy, and the recursion's ~2 gamma_{d-1} h^2 complex values
(the predictor, which it updates in place, and the lag row).

In one dimension the sweep reproduces the classical autoregressive
(maximum entropy) spectrum of the lag sequence exactly: the first column
of the inverse is the normalized prediction polynomial over its error
power, which makes the Levinson recursion an independent oracle for the
whole pipeline. The dense oracle, the assembled matrix inverted and its
first block-column swept by ``stage_update``, and the check of the
recursion against it are in ``ndspec.oracle``, which the estimator does
not import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .correlation import CorrelationSignal, _lag_gather
from .errors import DimensionMismatch, NotPositiveDefinite
from .grid import SpectralGridSpec, SpectrumEstimate, _phases, _roots
from .indexing import DimSpec, Nesting
from .linalg import (PD_PIVOT_REL, _cholesky_inverse, _factor_single, _solve_downdate,
                     invert_pd, one_blas_thread)

# Bytes of products that one step of the recursion's in-place predictor
# update holds: all of an order's block pairs at once on small blocks, one
# pair at a time from h = 33.
_PAIR_BYTES = 2**16


@dataclass(frozen=True, eq=False)
class LevinsonResult:
    """Normalized forward prediction solution of a 1D lag sequence.

    p solves R(c) p = rho e_0 with p[0] = 1; rho is the prediction error
    power c(0) prod(1 - |sigma_k|^2); sigmas are the reflection
    coefficients of successive orders, all strictly inside the unit disc
    for a positive definite sequence.
    """

    p: np.ndarray
    rho: float
    sigmas: np.ndarray


def levinson_1d(c: CorrelationSignal) -> LevinsonResult:
    """Levinson recursion on a 1D Hermitian lag sequence.

    Raises NotPositiveDefinite as soon as a reflection coefficient
    reaches the unit circle (the recursion order is reported as the
    failing pivot index).
    """
    if c.d != 1:
        raise DimensionMismatch(f"expected a 1D correlation signal, got {c.d}-d")
    g = c.gamma[0]
    r = c.lags[g - 1:]
    rho = float(r[0].real)
    if rho <= 0.0:
        raise NotPositiveDefinite("zero lag is not positive", pivot_index=0,
                                  pivot_value=rho)
    p = np.zeros(g, dtype=complex)
    p[0] = 1.0
    sigmas = np.zeros(max(g - 1, 0), dtype=complex)
    for m in range(1, g):
        acc = r[m] + np.dot(p[1:m], r[m - 1:0:-1])
        with np.errstate(over="ignore", invalid="ignore"):  # a tiny rho: |sigma| is inf
            sigma = -acc / rho
        if abs(sigma) >= 1.0:
            raise NotPositiveDefinite(
                f"reflection coefficient {m} has modulus {abs(sigma):.6g} >= 1",
                pivot_index=m, pivot_value=float(abs(sigma)),
            )
        sigmas[m - 1] = sigma
        head = p[1:m].copy()
        p[m] = sigma
        p[1:m] = head + sigma * np.conj(head[::-1])
        rho *= 1.0 - abs(sigma) ** 2
    return LevinsonResult(p, rho, sigmas)


def ar_spectrum_1d(res: LevinsonResult, grid: SpectralGridSpec) -> SpectrumEstimate:
    """S(w) = rho / |sum_k p_k e^{j w k}|^2 on a 1D grid.

    The denominator cannot vanish while every reflection coefficient
    stays inside the unit disc.
    """
    if grid.d != 1:
        raise DimensionMismatch(f"expected a 1D grid, got {grid.d}-d")
    w = grid.angular(0)
    poly = np.exp(1j * np.outer(w, np.arange(res.p.size))) @ res.p
    return SpectrumEstimate(grid, res.rho / np.abs(poly) ** 2)


@dataclass(frozen=True, eq=False)
class StageField:
    """First block-column blocks of the running inverse at one stage.

    ``blocks`` carries one leading axis per processed dimension (highest
    label first), then the block index k, then the h x h block itself.
    Stage x in 1..d is ready for an update; stage d + 1 is the finished
    scalar field, whose blocks are real: a transposed view of one float
    array in grid order m_0..m_{d-1}.

    ``weight``, when known, is the Hermitian matrix that the stage's
    congruence puts between the Fourier sums, at every processed point;
    by default it is the inverse of the zero blocks, which the stage
    computes. The recursion's field holds the predictor x and its known
    weight P^{-1}: the first block-column x P^{-1} stored with an identity
    zero block, whose congruence M_x P^{-1} M_x,top^H is the column's. The
    dense oracle's stage-1 field (``ndspec.oracle.init_stage``) holds the
    first block-column itself and no weight.
    """

    spec: DimSpec
    stage: int
    blocks: np.ndarray
    weight: np.ndarray | None = None

    @property
    def counts(self) -> tuple[int, ...]:
        """Frequency counts of the processed dimensions."""
        return self.blocks.shape[:-3]

    @property
    def block_size(self) -> int:
        return self.blocks.shape[-1]

    @property
    def n_blocks(self) -> int:
        return self.blocks.shape[-3]


def _chunk(field: StageField, grid: SpectralGridSpec, new_h: int) -> int:
    """New-axis frequencies per chunk of the field's stage.

    The last stage takes ceil(C / 8) of its C frequencies. An earlier
    stage takes as many as keep its temporaries (the chunk's Fourier sums
    and the two h x new_h factors of its congruence, at every point),
    beside its C roots of unity, within one byte budget: the larger of
    the last stage's working set, the power, its roots and its chunk
    temporaries, and the recursion's ~2 gamma_{d-1} h^2 complex values.
    Both are in the estimate's footprint already, so no stage holds more
    than the estimate does.
    """
    spec, counts, h = field.spec, grid.counts, field.block_size
    last_chunk = -(-counts[0] // 8)
    if field.stage == spec.d:
        return last_chunk
    complex_bytes, g = 16, spec.gamma[-1]
    # the last stage holds its roots of unity, and its chunk the Fourier
    # sums and their conjugates
    last_stage = 8 * grid.size + complex_bytes * (
        counts[0] + 2 * last_chunk * math.prod(counts[1:]))
    recursion = 2 * complex_bytes * g * (spec.q // g) ** 2
    roots = complex_bytes * counts[spec.d - field.stage]
    per_frequency = complex_bytes * math.prod(field.counts) * (h * h + 2 * h * new_h)
    return max(1, (max(last_stage, recursion) - roots) // per_frequency)


@one_blas_thread
def stage_update(field: StageField, grid: SpectralGridSpec) -> StageField:
    """One sweep stage: invert the zero blocks of every processed point in
    one stacked call (a reciprocal when they are 1 x 1), unless the field
    carries their weight, and copy the blocks once, block-major, into one
    (n_blocks, points h h) matrix. Per chunk of the new axis (``_chunk``),
    one GEMM with the chunk's rows of the phase table, (m k mod C) / C of
    a turn read from the C roots of unity that the stage computes once,
    then gives the block Fourier sums M(w_m) = sum_k G(k) e^{j k w_m} at
    every point, folding k >= C exactly, and one batched product the
    congruences M ([G(0)]^{-1} M_top^H), where M_top holds the rows of the
    next stage's first block-column (a scalar at the last stage). They
    are written through a frequency-major view of the output; the last
    stage writes only the scalars' real parts, into a float array in grid
    order m_0..m_{d-1} that the finished field views transposed.
    NotPositiveDefinite is re-raised tagged with the stage and the first
    processed grid point, in C order, whose zero block failed.
    """
    spec, x, d = field.spec, field.stage, field.spec.d
    if x > d:
        raise ValueError("sweep already complete")
    if grid.d != d:
        raise DimensionMismatch(f"{grid.d}-d grid for a {d}-d field")
    dim = d - x
    count, h, n_blocks = grid.counts[dim], field.block_size, field.n_blocks
    weight = field.weight
    if weight is None:
        try:
            weight = invert_pd(field.blocks[..., 0, :, :])
        except NotPositiveDefinite as exc:
            raise exc.tagged(x, exc.index) from exc
    new_h = h // spec.gamma[dim - 1] if x < d else 1
    # row k holds G(k) at every point: one copy per stage, not per chunk
    flat = np.moveaxis(field.blocks, -3, 0).reshape(n_blocks, -1)
    roots, lags = _roots(count), np.arange(n_blocks)
    if x < d:
        out = np.empty(field.counts + (count, h, new_h), dtype=complex)
    else:  # real scalars, stored in grid order m_0..m_{d-1} and transposed here
        out = np.empty(grid.counts).T[..., None, None]
    by_frequency = np.moveaxis(out, -3, 0)
    step = _chunk(field, grid, new_h)
    for start in range(0, count, step):
        stop = min(start + step, count)
        phases = _phases(count, lags, np.arange(start, stop), roots)
        summed = (phases @ flat).reshape((stop - start,) + field.counts + (h, h))
        del phases  # the chunk's rows only, and not held through its congruence
        kept = by_frequency[start:stop]
        if h > 1:
            np.matmul(summed, weight @ summed[..., :new_h, :].conj().swapaxes(-1, -2), out=kept)
        else:  # 1 x 1 blocks: elementwise, not one BLAS call per point and frequency
            right = summed.conj()
            np.multiply(np.multiply(summed, weight, out=summed), right, out=summed)
            kept[...] = summed if x < d else summed.real
            del right
        del summed  # before the next chunk's sums are formed
    return StageField(spec, x + 1, out.reshape(field.counts + (count, h // new_h, new_h, new_h)))


def _toeplitz_blocks(c: CorrelationSignal) -> np.ndarray:
    """Blocks T(k), k = 0..gamma_{d-1} - 1, of the first block-column of the
    assembled matrix: R is block Toeplitz along the slowest dimension,
    with block (a, b) equal to T(a - b) and T(-k) = T(k)^H.

    Gathered straight from the lag box with the h x h index of the faster
    dimensions (h = 1 in 1D).
    """
    g = c.gamma[-1]
    inner = c.gamma[:-1] or (1,)
    column = c.lags.reshape(-1, 2 * g - 1)[:, g - 1:].T
    return column.take(_lag_gather(inner, Nesting.identity(len(inner))), axis=1)


@one_blas_thread
@np.errstate(over="ignore", invalid="ignore")
def _forward_predictor(c: CorrelationSignal) -> tuple[np.ndarray, np.ndarray]:
    """Forward predictor x, shape (gamma_{d-1}, h, h), and the inverse
    P^{-1} of its error, by the multichannel Levinson recursion over the
    slowest dimension (Whittle 1963; Wiggins & Robinson 1965). The first
    block-column of the inverse of the assembled matrix is x P^{-1}.

    The forward solution x (x_0 = I) of the n + 1 leading block-rows has
    error P. Every T(k) is persymmetric, J T(k) J = T(k)^T with J the
    reversal of the inner flat index, so the backward solution and error
    are y_k = J conj(x_{n-k}) J and Q = J conj(P) J, and each order
    factors one h x h matrix, Q = L L^H.

    The recursion holds x and the lag row T(1..g-1), about
    2 gamma_{d-1} h^2 complex values, and O(h^2) besides. As x_0 = I, an
    order's Delta = sum_i T(n + 1 - i) x_i starts from T(n + 1) and
    multiplies only x_1..x_n; it is formed, negated, in x_{n+1}, which
    ``linalg._solve_downdate`` then turns into x_{n+1} = -Q^{-1} Delta in
    place by two triangular solves with L, W = L^{-1} Delta and
    L^{-H} W, while it updates P. Block m of x_1..x_n then gains y_{m-1}
    x_{n+1} = J conj(x_{n+1-m} J conj(x_{n+1})), a product of its partner
    n + 1 - m, so x is updated in place by block pairs, both products of
    a pair formed before either block is written; a self-paired middle
    block is updated once. Pairs go in groups whose products fit
    _PAIR_BYTES: every pair of an order in one GEMM on small blocks, one
    pair at a time on large ones.

    Q at order n is the Schur complement that the dense Cholesky of R
    factors at block-row n, so it is held to the dense floor, 1e-12 c(0),
    and a refusal names the dense pivot n h + k. P is updated as the dense
    Cholesky updates it, P - W^H W, by a Hermitian rank-h update of the
    triangle of P that the next factorization reads, through
    Q = J conj(P) J: P's upper triangle in C order, which is Q's lower.
    P's strict lower triangle is stale from the first update on, and
    nothing reads it. Neither the update nor the solves form L^{-1}: an
    explicit inverse in that product loses the small pivots of a
    near-singular R and refuses matrices the dense path accepts. A factor
    whose inverse overflows, which only a c(0) far below the other lags
    gives, makes the next Q non-finite; the arithmetic runs without
    overflow or invalid-value warnings, and that Q is refused as the dense
    Cholesky refuses the same pivot. Q is factored by
    ``linalg._factor_single``, as Capon's matrix is, and P^{-1} =
    J conj(Q^{-1}) J is taken once, from the last order's factor, by
    ``linalg._cholesky_inverse``. Where numpy bundles no OpenBLAS, numpy
    factors Q and solves with L, P is updated whole, and the last factor
    is inverted by ``linalg._invert_lower``.
    """
    t = _toeplitz_blocks(c)
    g, h = t.shape[0], t.shape[-1]
    floor = np.float64(PD_PIVOT_REL * c.zero_lag)
    p = t[0].copy()
    # block j of ``row`` is -T(g - 1 - j), j < g - 1, so -[T(n + 1) ... T(1)]
    # is one slice, which runs to its end (T(0) is only P's start); Delta
    # and W are formed negated, and the gain's product is x_{n+1} itself
    row = t[:0:-1].transpose(1, 0, 2).reshape(h, (g - 1) * h)
    del t
    np.negative(row, out=row)
    x = np.zeros((g, h, h), dtype=complex)
    x[0] = np.eye(h)
    pairs_per_step = max(1, _PAIR_BYTES // (2 * x[0].nbytes))
    for n in range(g):
        try:
            lower = _factor_single(p[::-1, ::-1].conj(), floor)
        except NotPositiveDefinite as exc:
            raise replace(exc, pivot_index=n * h + exc.pivot_index).tagged(1, ()) from exc
        if n == g - 1:
            break
        # -Delta, formed in x_{n+1}; x_0 = I, so -T(n + 1) enters unmultiplied
        start = (g - 2 - n) * h
        np.matmul(row[:, start + h:], x[1:n + 1].reshape(-1, h), out=x[n + 1])
        x[n + 1] += row[:, start:start + h]
        # x_{n+1} = -Q^{-1} Delta in place, and P -= W^H W on the triangle
        # that the next factorization reads
        _solve_downdate(lower, x[n + 1], p)
        del lower
        # x_m += y_{m-1} x_{n+1} = J conj(x_{n+1-m} right), m = 1..n, with
        # right = J conj(x_{n+1}): x_m and x_{n+1-m} each add the other's
        # product, both formed before either is written
        right = x[n + 1, ::-1].conj()
        pairs = (n + 1) // 2
        for first in range(1, pairs + 1, pairs_per_step):
            stop = first + pairs_per_step
            if stop > pairs:  # the innermost pairs: blocks first..n+1-first, one slice
                spans = ((first, n + 2 - first),)
            else:
                spans = ((first, stop), (n + 2 - stop, n + 2 - first))
            products = [x[lo:hi].reshape(-1, h) @ right for lo, hi in spans]
            for (lo, hi), product in zip(spans, products[::-1]):
                # the partner's product, conjugated in place and read with
                # its blocks and rows reversed
                np.conjugate(product, out=product)
                x[lo:hi] += product.reshape(-1, h, h)[::-1, ::-1]
            del products, product
        del right
    return x, _cholesky_inverse(lower)[::-1, ::-1].conj()


def _unit_scale(c: CorrelationSignal, first, then=()):
    """Run an estimate on u = c 4^-k, the copy of ``c`` from
    ``c._unit_scaled()`` whose largest lag lies in [1/2, 2), so that no
    step under- or overflows whatever the signal's scale: ``first(u)``,
    then each step of ``then`` on what the step before returned.

    ``first`` works on u's matrix, so its refusals are the matrix's times
    4^-k: their pivot values and floors are reported times 4^k, in the
    signal's units. A floor 1e-12 c(0) that underflows at unit scale, as
    when c(0) lies far below the largest lag, is computed there instead.
    The steps of ``then`` work on the inverse, which scales the other way,
    so their refusals are reported times 4^-k. The last step returns the
    power at unit scale, which is returned times 4^k; with no ``then``,
    what ``first`` returned is.

    An even power of two scales every Cholesky factor by an exact power of
    two too, so the power is bit for bit the unscaled arithmetic's wherever
    that stays in range. Nothing else holds a step's input once the step
    returns, so a sweep stage's field is freed when the next one is formed.
    """
    k, unit = c._unit_scaled()
    try:
        out = first(unit)
    except NotPositiveDefinite as exc:  # pivots of the matrix times 4^-k
        raise exc._scaled(k, PD_PIVOT_REL * c.zero_lag) from exc
    if not then:
        return out
    try:
        for step in then:
            out = step(out)
    except NotPositiveDefinite as exc:  # pivots of the inverse times 4^k
        raise exc._scaled(-k) from exc
    out *= 2.0**k  # 4^k in two exact steps, as 4.0**k overflows for large |k|
    out *= 2.0**k
    return out


def _sweep(grid: SpectralGridSpec) -> list:
    """``_unit_scale`` steps that take a stage-1 field through every stage
    of ``grid`` and then to its power (``_power``)."""
    return [lambda field: stage_update(field, grid)] * grid.d + [_power]


def _power(field: StageField) -> np.ndarray:
    """Power at a finished field's grid points, formed in place in the last
    stage's grid-ordered array as the reciprocal of its real scalars, so it
    is C-contiguous and no transposed copy is made."""
    scalars = np.asarray(field.blocks[..., 0, 0, 0]).T
    return np.divide(1.0, scalars, out=scalars)


@one_blas_thread
def sequential_spectrum(c: CorrelationSignal, grid: SpectralGridSpec) -> SpectrumEstimate:
    """Full sweep over all dimensions; returns S = 1 / G_final on the grid.

    The block Levinson recursion over the slowest dimension gives the
    forward predictor and the inverse of its error, which stage 1 sweeps
    as they are, with no inversion; each dimension is then converted to
    an explicit frequency axis from the highest label down. All of it
    runs on the unit-scale lags of ``_unit_scale``, inside one pin of the
    BLAS to one thread.
    """
    spec = DimSpec(c.gamma)
    if grid.d != spec.d:
        raise DimensionMismatch(f"{grid.d}-d grid for a {spec.d}-d signal")
    power = _unit_scale(c, lambda unit: StageField(spec, 1, *_forward_predictor(unit)),
                        _sweep(grid))
    return SpectrumEstimate(grid, power)
