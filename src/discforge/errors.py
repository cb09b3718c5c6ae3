"""Exception types shared across the package."""


class DiscforgeError(Exception):
    """Base class for all discforge errors."""


class NotPsdError(DiscforgeError):
    """Matrix failed a correlation or PSD check: asymmetry, a non-unit
    diagonal, a negative pivot, or a zero-pivot residual past its bound."""


class NoConvergenceError(DiscforgeError):
    """Iterative routine exhausted its iteration budget."""


class RankTooSmallError(DiscforgeError):
    """Rank parameter below 2; the unit-increment chain needs r >= 2."""


class BadVarianceError(DiscforgeError):
    """Variance parameter too small for the kernel mixture weights."""


class InfeasibleSliceError(DiscforgeError):
    """No point at distance 1 from x has the requested norm."""


class NormTooLargeError(DiscforgeError):
    """Input vector exceeds the unit-ball norm constraint."""


class NotUnitError(DiscforgeError):
    """A vector expected to be unit norm is not."""


class InconsistentStreamError(DiscforgeError):
    """Correlation matrix stream violates the nesting condition."""


class DimMismatchError(DiscforgeError):
    """Operand dimensions are incompatible."""


class TooLargeError(DiscforgeError):
    """Instance exceeds the brute-force enumeration budget."""


class InfeasibleTriangleError(DiscforgeError):
    """Block sums violate the triangle inequality."""


class BadSizeError(DiscforgeError):
    """Planted instances need n = 2 (mod 4), n >= 6."""


class TooFewSamplesError(DiscforgeError):
    """Not enough samples for the requested statistical test."""
