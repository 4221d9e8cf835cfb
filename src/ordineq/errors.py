"""Exception types shared across the package."""


class OrdineqError(Exception):
    """Base class for all package errors."""


class ParseError(OrdineqError):
    """Malformed textual input (rationals, game/profile documents, DIMACS)."""


class ValidationError(OrdineqError):
    """Structurally well-formed input that violates a model invariant."""


class MalformedLp(OrdineqError):
    """An LP that `linprog` cannot answer: a row or objective of the wrong
    width, a block that is empty, out of range or overlaps another, a block
    or an added row on a boxed tableau, or an unbounded objective.  A
    caller bug: the package only builds bounded LPs."""


class UnknownOutcome(OrdineqError):
    """A utility vector or constraint references an outcome the game lacks."""


class UnsupportedSpace(OrdineqError):
    """The requested operation is not defined for this type-space kind."""


class CapExceeded(OrdineqError):
    """An enumeration would exceed the configured cap; raised rather than
    silently truncating, since exhaustiveness is a correctness property."""
