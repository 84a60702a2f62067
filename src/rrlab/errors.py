"""Exception types shared across the engine."""


class RRLabError(Exception):
    """Base class for all engine errors; carries a source position, which
    line 0 marks as absent."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"{message} (line {line}, column {col})"
                         if line else message)
        self.message = message
        self.line = line
        self.col = col


class RingMismatchError(RRLabError):
    """Operands live in different rings; the term order does not count."""


class ZeroIdealError(RRLabError):
    """Operation requires a nonzero (or proper) ideal."""


class ResourceLimitError(RRLabError):
    """A configured resource cap (pair queue, working bound) was hit."""


class UnsupportedOperationError(RRLabError):
    """Operation is not defined for this kind of ring or input."""


class PreconditionError(RRLabError):
    """A documented precondition of an operation does not hold."""


class InputError(RRLabError):
    """Base for input-language errors."""


class LexicalError(InputError):
    """Unrecognized character or malformed token."""


class SyntacticError(InputError):
    """Token stream does not match the grammar."""


class ArityError(InputError):
    """Command called with the wrong number or kinds of arguments."""


class UnknownIdentifierError(InputError):
    """Reference to an undeclared ring, ideal, or variable."""
