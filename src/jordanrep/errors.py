"""The exception types that some caller catches; every other failure raises
a built-in exception."""


class DimensionMismatch(Exception):
    """Matrix operands have incompatible shapes."""


class InputError(Exception):
    """Command-line input that cannot be verified or scanned: a malformed
    file, a selection that runs no checks, or a spectrum scan at a zero
    deformation parameter or one whose exact cells leave the float range."""
