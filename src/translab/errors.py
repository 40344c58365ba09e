"""Exception types shared across the package.

A type exists only where some code catches it by name.  Every refusal of
the library, numerical or of an input, is a TranslabError (CLI exit code
1), told apart by its message; as a ValueError, it still reaches a caller
that catches one.  Continuation's half-step retry catches NewtonFailedError.
"""


class TranslabError(ValueError):
    """Base class for numerical and contract failures."""


class NewtonFailedError(TranslabError):
    """Newton stalled at its damping floor or ran out of iterations."""
