"""Exception types shared across the package."""


class SigmaAmpleError(Exception):
    """Base class for all library errors."""


class NotInvertibleOverIntegers(SigmaAmpleError):
    """The matrix determinant is not +-1, so it has no integer inverse;
    ``intmat.quasi_unipotence`` refuses such a matrix."""


class NotUnipotent(SigmaAmpleError):
    """The operation requires a unipotent matrix."""


class NotQuasiUnipotent(SigmaAmpleError):
    """The operation requires a quasi-unipotent action."""


class NotAmple(SigmaAmpleError):
    """The operation requires an ample divisor class."""


class RankMismatch(SigmaAmpleError):
    """Vector length or tensor arity does not match the lattice rank."""


class MissingToddData(SigmaAmpleError):
    """Euler characteristics need Todd functionals on every component."""


class UnknownName(SigmaAmpleError):
    """A named action, divisor, oracle, or catalog entry does not exist."""


class SchemeParseError(SigmaAmpleError):
    """A scheme description document is malformed.

    The message carries position context: line/column for syntax errors,
    a field path for semantic ones.
    """


class InvalidSchemeData(SigmaAmpleError):
    """An action or oracle fails validation against its scheme."""
