"""Exception types shared across the package.

Plain ValueError marks misuse of the API (bad argument values, malformed
options).  The two classes below separate data-dependent failures from it so
the command line tool can map each family to a stable exit code.
"""


class DomainError(ValueError):
    """Input data violates a precondition (too few samples, parameter outside
    a curve's valid domain, degenerate geometry such as a stalled sample)."""


class NumericalError(RuntimeError):
    """A computation produced non-finite values or a verification suite
    failed numerically."""
