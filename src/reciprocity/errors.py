"""Exception types shared across the package."""


class ReciprocityError(Exception):
    """Base class for all library errors."""


class TowerError(ReciprocityError):
    """An element does not live over the requested coefficient ring."""


class NonUnitError(ReciprocityError):
    """Inversion (or a symbol) was asked of something that is not a unit."""


class PrecisionError(ReciprocityError):
    """A coefficient beyond the tracked precision was required."""


class FactorError(ReciprocityError):
    """Polynomial factorization failed or an input factor claim is invalid."""


class WindowError(ReciprocityError):
    """A finite-window operator was built or used below its support bound."""


class DomainError(ReciprocityError):
    """Input lies outside the mathematical domain of the operation."""


class ExpressionError(ReciprocityError):
    """Syntax or semantic error in a parsed expression or spec.

    Columns count from 1.  column is None where no position is known (a
    field or ring spec, or input nested too deeply), and the message then
    carries no "(line, column)" suffix.
    """

    def __init__(self, message: str, line: int = 1, column: int | None = None):
        super().__init__(message if column is None else f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column
