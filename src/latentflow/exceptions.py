"""Exception types shared across the package.

The package has no command-line interface yet. The one planned is to map
ValidationError to exit code 1 and NumericalError to exit code 2, and to
treat everything else as a bug.
"""


class ValidationError(ValueError):
    """Invalid inputs, shapes, config values, or file contents."""


class NumericalError(RuntimeError):
    """Numerical failure: NaN/Inf states, solver breakdown, diverged loss."""
