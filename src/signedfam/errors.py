"""Exception types shared across the package."""


class Error(Exception):
    """Base class for all signedfam errors."""


class DuplicateElement(Error):
    """Two pairs of a signed set share an element."""


class OutOfRange(Error):
    """An element or sign falls outside the governing parameters."""


class WrongSize(Error):
    """A set has the wrong number of pairs for its parameters."""


class TooLarge(Error):
    """A requested family or intersection graph would exceed its size limit."""


class ContainsOne(Error):
    """A plain set contains element 1 where only tail elements are allowed."""


class NoPerfectMatching(Error):
    """No injective assignment into the shadow exists; a precondition was violated."""


class GroupOverflow(Error):
    """A support class is larger than any pairwise-intersecting class can be."""


class NotIntersecting(Error):
    """The input family has a disjoint pair of members."""


class UnsupportedRange(Error):
    """Parameters outside the range where the construction is valid."""


class VerificationFailed(Error):
    """An internally produced certificate failed its own re-verification."""


class CapExceeded(Error):
    """Enumeration hit its output cap; `partial` holds what was found."""

    def __init__(self, message: str, partial=()):
        super().__init__(message)
        self.partial = list(partial)


class FormatError(Error):
    """Invalid or non-canonical serialized input; carries a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
