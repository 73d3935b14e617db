"""Exception hierarchy. CLI exit codes: usage/parse errors map to 2, cap
violations to 3, verification inconsistencies to 1."""

from typing import Optional


class PermlatError(Exception):
    """Base for all library errors."""


class InvalidPermutationError(PermlatError):
    pass


class DegreeMismatchError(PermlatError):
    pass


class CapExceededError(PermlatError):
    """A configured size cap was exceeded; carries the cap and the offender."""

    def __init__(self, message: str, cap: int):
        super().__init__(message)
        self.cap = cap


class GroupOrderCapError(CapExceededError):
    pass


class LatticeCapError(CapExceededError):
    pass


class NotAnElementError(PermlatError):
    """A permutation was looked up in a group that does not contain it."""


class NotNormalError(PermlatError):
    pass


class BadTableError(PermlatError):
    """A multiplication table fails the Latin-square or associativity check."""


class GroupFileError(PermlatError):
    """A group or corpus that cannot be loaded. A parse error carries its
    line and column; an error with no file position (an unknown name, an
    unreadable path, a missing key) carries None."""

    def __init__(self, message: str, line: Optional[int] = None, column: int = 1):
        if line is not None:
            message = f"line {line}, col {column}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column
