"""Exception types shared across the package."""


class JordanRepError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(JordanRepError):
    """Matrix operands have incompatible shapes."""


class BadParity(JordanRepError):
    """Composition enumeration asked for an odd total or an odd number of parts."""


class MissingElement(JordanRepError):
    """A recursion step referenced a matrix element not yet present in the table."""


class IllFormedComposition(JordanRepError):
    """A series function was applied to an operator argument of zero valuation."""


class InputError(JordanRepError):
    """Command-line input that cannot be verified or scanned: a malformed
    file, a selection that runs no checks, or a spectrum scan at a zero
    deformation parameter or one that overflows floats."""
