"""Exception types raised by the groverian package."""


class GroverianError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(GroverianError):
    """Operands describe registers of different shapes or sizes."""


class NotNormalized(GroverianError):
    """Vector norm deviates from 1 beyond the construction tolerance."""


class ZeroVector(GroverianError):
    """Vector norm is numerically zero and cannot be normalized."""


class BadSplit(GroverianError):
    """Bipartition is empty, full, or references invalid sites."""


class BadSubset(GroverianError):
    """Site subset for a partial trace is empty, full, or invalid."""


class WrongShape(GroverianError):
    """Operation requires a specific register shape (e.g. two qubits)."""


class TooLarge(GroverianError):
    """Problem size exceeds the configured cap for this operation."""


class OutOfRange(GroverianError):
    """Scalar argument outside its admissible interval."""


class InvalidDensity(GroverianError):
    """Matrix is not a valid density operator."""


class NonFiniteResult(GroverianError):
    """A result holds NaN or infinity, which the report format cannot carry."""
