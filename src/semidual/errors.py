"""Exception hierarchy.

Input problems (bad matrices, malformed session files, rings outside the
supported class) raise InputError subclasses; the CLI maps these to exit
code 2.  Mathematical check failures discovered at runtime (a module offered
as semidualizing that is not, a complex whose squares do not vanish, two
computation paths disagreeing) raise CheckError subclasses, exit code 1.
"""


class SemidualError(Exception):
    """Base class for every error raised by this package."""


class InputError(SemidualError):
    """Malformed or unsupported input."""


class NotCofiniteError(InputError):
    """Monomial quotient is infinite-dimensional; names an offending variable."""

    def __init__(self, variable: str):
        self.variable = variable
        super().__init__(f"quotient is not cofinite: no pure power of '{variable}' among the relations")


class ParseError(InputError):
    """Session file or polynomial syntax error, with location."""

    def __init__(self, message: str, line: int, column: int):
        self.message = message
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


class CheckError(SemidualError):
    """A mathematical check failed."""


class NotSemidualizingError(CheckError):
    """Module offered as semidualizing failed certification."""


class InvalidComplexError(CheckError):
    """Differentials do not compose to zero."""


class TheoremViolationError(CheckError):
    """Two computation paths that must agree did not.

    This never fires on correct inputs; it exists so a disagreement is loud
    instead of silently producing one of the two answers.
    """
