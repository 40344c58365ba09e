"""Exception types shared across the package.

A type exists only where some code catches it by name.  Every numerical or
contract failure is a TranslabError (CLI exit code 1), told apart by its
message; UsageError maps to exit code 2.  Continuation's half-step retry
catches NewtonFailedError.
"""


class TranslabError(Exception):
    """Base class for numerical and contract failures."""


class NewtonFailedError(TranslabError):
    """Newton stalled at its damping floor or ran out of iterations."""


class UsageError(Exception):
    """Bad command-line input; CLI exit code 2."""
