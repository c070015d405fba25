"""Exception types shared across the package."""


class ContactforgeError(Exception):
    """Base class for package errors."""


class DimensionError(ContactforgeError):
    """Operands live over different ambient matrix sizes, or a matrix is not square."""


class IncompleteAssignmentError(ContactforgeError):
    """A point evaluation is missing a value for some variable."""


class DegreeError(ContactforgeError):
    """A form of unsuitable degree was supplied."""


class InvalidAlgebraError(ContactforgeError):
    """Structure constants violate antisymmetry or the Jacobi identity."""


class TermLimitError(ContactforgeError):
    """A symbolic product exceeded the configured term budget."""


class ParameterError(ContactforgeError, ValueError):
    """A numeric parameter is out of range."""


class InternalCheckError(ContactforgeError):
    """A construction-time self-check failed: the program, not the input, is wrong."""
