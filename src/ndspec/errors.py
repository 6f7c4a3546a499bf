"""Exception types shared across the package."""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace


class NdspecError(Exception):
    """Base class for all errors raised by this package."""


class InvalidNesting(NdspecError):
    """A dimension nesting is not a permutation of the dimension labels."""


class IndexOutOfRange(NdspecError):
    """A slot index lies outside its range."""


class SizeMismatch(NdspecError):
    """Matrix or permutation sizes do not agree."""


class DimensionMismatch(NdspecError):
    """Dimension counts of two objects do not agree."""


class InsufficientData(NdspecError):
    """Not enough samples to cover the requested lag box."""


class FileFormatError(NdspecError):
    """A correlation or spectrum file failed to parse or validate."""


@dataclass(eq=False)
class NotPositiveDefinite(NdspecError):
    """A Hermitian matrix failed its positive-definiteness check.

    Carries the failing pivot index, its value and the ``floor`` it had to
    exceed, the position ``index`` of the failing matrix in a stack and,
    when raised from inside the sequential sweep, the stage number and the
    processed-frequency grid indices where the zero block broke down.

    A pivot refusal has no ``message``: its text is formatted from these
    fields, so a copy with some of them replaced reads right.
    """

    message: str | None = None
    pivot_index: int | None = None
    pivot_value: float | None = None
    stage: int | None = None
    frequency: tuple[int, ...] | None = None
    index: tuple[int, ...] | None = None
    floor: float | None = None

    def __str__(self):
        text = self.message
        if text is None:
            text = f"pivot {self.pivot_index} is {self.pivot_value:.6g} (floor {self.floor:.6g})"
        if self.stage is None:
            return text
        where = "initial point" if not self.frequency else f"grid indices {self.frequency}"
        return f"{text} [stage {self.stage}, {where}]"

    def tagged(self, stage, frequency):
        """Copy of this error annotated with sweep position."""
        return replace(self, stage=stage, frequency=frequency, index=None)

    def _scaled(self, k, floor=None):
        """The same refusal for the matrix times 4^k: pivot value and floor
        times 4^k, exactly unless they over- or underflow. ``floor``, when
        given, is the floor computed in the new units; it replaces one that
        was subnormal or 0 before scaling, whose digits were lost."""
        value, scaled = (v * 2.0**k * 2.0**k for v in (self.pivot_value, self.floor))
        if floor is not None and abs(self.floor) < sys.float_info.min:
            scaled = floor
        return replace(self, pivot_value=value, floor=scaled)
