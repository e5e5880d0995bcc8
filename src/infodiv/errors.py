"""Exception hierarchy for infodiv.

Everything raised on bad data derives from InfodivError so callers (and the
CLI) can distinguish data problems from genuine bugs.
"""


class InfodivError(Exception):
    """Base class for all infodiv data/validation errors."""


class NegativeValueError(InfodivError):
    """A matrix cell is negative."""


class NonFiniteValueError(InfodivError):
    """A matrix cell is NaN or infinite, or a sum or mean of cells leaves
    the float range."""


class DuplicateLabelError(InfodivError):
    """Row or column labels are not pairwise distinct."""


class ZeroRowError(InfodivError):
    """A row sums to zero."""


class EmptyMatrixError(InfodivError):
    """The matrix has no rows/columns or a grand sum of zero."""


class ParseError(InfodivError):
    """CSV input is malformed; message carries row/column coordinates."""


class UndefinedCorrelation(InfodivError):
    """Pearson r requested for a constant vector (zero variance)."""


class UndefinedCosine(InfodivError):
    """Cosine requested for an all-zero vector."""


class InvalidInputError(InfodivError, ValueError):
    """An input or option value is outside what the operation accepts."""


class SizeLimitError(InfodivError):
    """An exhaustive-search input exceeds the hard size guard."""
