"""Exception hierarchy shared by all modules."""


class Gl2Error(Exception):
    """Base class for errors raised by this package."""


class UsageError(Gl2Error):
    """A call asked for an option the operation does not take."""


class PreconditionError(Gl2Error):
    """An operation was called on inputs violating its stated hypotheses."""


class SingularMatrixError(Gl2Error):
    """Inversion of a matrix whose determinant is not a unit."""


class ResourceLimitError(Gl2Error):
    """A computation exceeded a configured size cap."""


class LemmaViolationError(Gl2Error):
    """A verified structural statement failed on a concrete input.

    This is a reportable falsification event, not an internal bug; the CLI
    maps it to a dedicated exit code.
    """
