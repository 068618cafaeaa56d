"""Exception types shared across the library."""


class SymshiftError(Exception):
    """Base class for all library-specific errors."""


class InvalidWordError(SymshiftError, ValueError):
    """A word argument violates a precondition (empty, bad symbol, not in language)."""


class InvalidPositionError(SymshiftError, ValueError):
    """A replacement index is not an occurrence of the pattern."""


class ReplacementBrokenError(SymshiftError):
    """A shifted position in a sequential replacement stopped being an occurrence.

    Signals that the non-interference hypothesis fails for this instance.
    """

    def __init__(self, message, word=None, step=None, position=None):
        super().__init__(message)
        self.word = word
        self.step = step
        self.position = position


class EmptySubshiftError(SymshiftError, ValueError):
    """The specified subshift has empty language."""


class NumericalError(SymshiftError, ArithmeticError):
    """A numerical routine did not converge or failed its own consistency check."""


class ReduciblePresentationError(SymshiftError):
    """The trimmed transition graph is not strongly connected."""


class ResourceLimitError(SymshiftError):
    """An exhaustive sweep would exceed the configured budget."""


class SpecFormatError(SymshiftError, ValueError):
    """A spec file failed to parse or validate."""
