"""Exception types shared across the package."""


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


class NotPositiveDefinite(NdspecError):
    """A Hermitian matrix failed its positive-definiteness check.

    Carries the failing pivot index, its value and the ``floor`` it had to
    exceed, the position ``index`` of the failing matrix in a stack and,
    when raised from inside the sequential sweep, the stage number and the
    processed-frequency grid indices where the zero block broke down.
    """

    def __init__(self, message, pivot_index=None, pivot_value=None,
                 stage=None, frequency=None, index=None, floor=None):
        super().__init__(message)
        self.pivot_index = pivot_index
        self.pivot_value = pivot_value
        self.floor = floor
        self.index = index
        self.stage = stage
        self.frequency = frequency

    def tagged(self, stage, frequency):
        """Copy of this error annotated with sweep position."""
        where = "initial point" if not frequency else f"grid indices {frequency}"
        return NotPositiveDefinite(
            f"{self.args[0]} [stage {stage}, {where}]",
            pivot_index=self.pivot_index,
            pivot_value=self.pivot_value,
            stage=stage,
            frequency=frequency,
            floor=self.floor,
        )

    def _scaled(self, k):
        """The same pivot refusal for the matrix times 4^k: pivot value and
        floor times 4^k, exactly unless they over- or underflow, and the
        message rebuilt to match."""
        value, floor = (v * 2.0**k * 2.0**k for v in (self.pivot_value, self.floor))
        out = NotPositiveDefinite(f"pivot {self.pivot_index} is {value:.6g} (floor {floor:.6g})",
                                  pivot_index=self.pivot_index, pivot_value=value,
                                  index=self.index, floor=floor)
        return out if self.stage is None else out.tagged(self.stage, self.frequency)
