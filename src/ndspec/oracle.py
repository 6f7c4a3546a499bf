"""Dense oracles of the sequential estimator, for tests and scripts only.

The estimator never assembles or inverts the q x q correlation matrix;
these functions do, and so check it from outside. ``ndspec`` does not
import this module and none of its names are public: import it as
``ndspec.oracle``.

The dense path inverts the assembled matrix by ``invert_pd``, reads its
first block-column (``init_stage``) and sweeps it with
``estimator.stage_update``, inverting the zero blocks at every stage,
stage 1 included. ``cross_check`` holds the recursion's first
block-column to the dense one and the walking maps to the direct
inverse.
"""

from __future__ import annotations

import numpy as np

from . import estimator
from .correlation import CorrelationSignal, assemble
from .errors import NotPositiveDefinite, SizeMismatch
from .estimator import StageField
from .grid import SpectralGridSpec
from .indexing import DimSpec, Nesting, apply_walking, walking_map
from .linalg import invert_pd

# Largest deviation cross_check accepts, relative to the largest entry of
# the dense value.
CROSS_CHECK_TOL = 1e-8


def init_stage(r_inv, spec: DimSpec) -> StageField:
    """Stage-1 field: the first block-column of the inverted matrix.

    Block k of size q/gamma_{d-1} is read at block-row k, block-column 0
    along the stride of the slowest dimension.
    """
    a = np.asarray(r_inv, dtype=complex)
    if a.shape != (spec.q, spec.q):
        raise SizeMismatch(f"inverse shape {a.shape}, expected {(spec.q,) * 2}")
    g_last = spec.gamma[-1]
    h = spec.q // g_last
    blocks = np.stack([a[k * h:(k + 1) * h, 0:h] for k in range(g_last)])
    return StageField(spec, 1, blocks)


def _dense_inverse(c: CorrelationSignal, nesting: Nesting | None = None) -> np.ndarray:
    """The matrix assembled under ``nesting`` and inverted by ``invert_pd``;
    a refusal is tagged as the recursion's, at stage 1 and the initial point."""
    try:
        return invert_pd(assemble(c, nesting).entries)
    except NotPositiveDefinite as exc:
        raise exc.tagged(1, ()) from exc


def dense_column(c: CorrelationSignal) -> StageField:
    """Stage-1 field of the dense path: the first block-column of the
    inverse of the assembled matrix, with no weight."""
    return init_stage(_dense_inverse(c), DimSpec(c.gamma))


def dense_sweep(c: CorrelationSignal, grid: SpectralGridSpec) -> np.ndarray:
    """Power from the dense first block-column swept stage by stage, on
    the unit-scale lags of ``estimator._unit_scale``, as
    ``sequential_spectrum`` runs."""
    return estimator._unit_scale(c, dense_column, estimator._sweep(grid))


def cross_check(c: CorrelationSignal) -> None:
    """Raise ArithmeticError unless the recursion's first block-column
    x P^{-1} matches the dense inverse's and (d > 1) the inverse under the
    reversed nesting, walked back, matches the direct inverse, each within
    CROSS_CHECK_TOL of the largest entry of the dense value.

    All three run on the unit-scale lags of ``estimator._unit_scale``, as
    ``sequential_spectrum`` runs. The recursion is looked up as
    ``estimator._forward_predictor`` at each call.
    """
    spec = DimSpec(c.gamma)
    reversed_nesting = Nesting(tuple(reversed(range(spec.d))))
    x, p_inv, r_inv, alt_inv = estimator._unit_scale(c, lambda unit: (
        *estimator._forward_predictor(unit), _dense_inverse(unit),
        _dense_inverse(unit, reversed_nesting) if spec.d > 1 else None))
    dense = init_stage(r_inv, spec).blocks
    err = float(np.max(np.abs(dense - x @ p_inv)))
    if err > CROSS_CHECK_TOL * float(np.max(np.abs(dense))):
        raise ArithmeticError(
            f"recursion's first block-column deviates from the dense inverse by {err:.3g}"
        )
    if alt_inv is None:
        return
    walked = apply_walking(alt_inv, walking_map(spec, reversed_nesting,
                                                Nesting.identity(spec.d)))
    err = float(np.max(np.abs(walked - r_inv)))
    if err > CROSS_CHECK_TOL * float(np.max(np.abs(r_inv))):
        raise ArithmeticError(
            f"walked inverse deviates from the direct inverse by {err:.3g}"
        )
