"""Exception hierarchy shared by all modules."""


class FlipkitError(Exception):
    """Base class for all library errors."""


class GeometryError(FlipkitError):
    """Invalid or degenerate geometric input."""


class SignatureMismatchError(GeometryError):
    """Operands live on different quadrics."""


class DevelopmentError(GeometryError):
    """Development of a tiling into the 3-space failed to close up."""


class ConvergenceError(FlipkitError):
    """Iterative solver did not reach the requested residual."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class SchemaError(FlipkitError):
    """Malformed input file or unknown field."""
